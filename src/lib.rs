//! # pcea — Parallelized Complex Event Automata
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! implementation of *Complex event recognition meets hierarchical
//! conjunctive queries* (Pinto & Riveros, PODS 2024).
//!
//! * [`common`] — values, schemas, tuples, streams, workload generators;
//! * [`automata`] — NFA/DFA/PFA, predicates, CCEA and PCEA;
//! * [`cq`] — conjunctive queries, hierarchy tests, q-trees and the
//!   HCQ→PCEA compiler (Theorem 4.1);
//! * [`lang`] — a CER pattern language (`;`, `&&`, `|`, `+`, filters)
//!   compiled to PCEA — the paper's first future-work item;
//! * [`engine`] — the streaming evaluator with logarithmic update time and
//!   output-linear-delay enumeration (Theorem 5.1), plus the sharded
//!   multi-query [`Runtime`](engine::Runtime) with an asynchronous
//!   ingestion pipeline ([`IngestHandle`](engine::IngestHandle) producers,
//!   backpressured shard queues, per-consumer
//!   [`Subscription`](engine::Subscription) channels),
//!   epoch-consistent checkpoint/restore + query hot-swap
//!   ([`engine::checkpoint`]), live elastic resharding with a
//!   closed autoscaling loop ([`engine::autoscale`]), and a durability
//!   subsystem — position-stamped WAL, incremental disk checkpoints,
//!   crash recovery ([`engine::durability`]);
//! * [`serve`] — a std-only TCP serving layer: length-framed wire
//!   protocol, thread-per-connection [`Server`](serve::Server), blocking
//!   [`Client`](serve::Client) and a load-generator binary;
//! * [`baselines`] — naive and CCEA-specialized evaluators for comparison,
//!   behind the same [`Evaluator`](engine::Evaluator) trait surface.
//!
//! ## Quickstart: one query, one evaluator
//!
//! ```
//! use pcea::prelude::*;
//!
//! // Parse the paper's hierarchical query Q0 and compile it to a PCEA.
//! let mut schema = Schema::new();
//! let query = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
//! let compiled = compile_hcq(&schema, &query).unwrap();
//!
//! // Evaluate it over the paper's example stream S0 under a sliding window.
//! let r = schema.relation("R").unwrap();
//! let s = schema.relation("S").unwrap();
//! let t = schema.relation("T").unwrap();
//! let mut engine = StreamingEvaluator::new(compiled.pcea, 100);
//! let mut n_outputs = 0;
//! for tuple in sigma0_prefix(r, s, t) {
//!     n_outputs += engine.push_count(&tuple);
//! }
//! assert_eq!(n_outputs, 2); // the two matches of Q0 on S0's first 8 tuples
//! ```
//!
//! ## Many queries, one stream: the sharded `Runtime`
//!
//! Production deployments serve many standing queries over one
//! firehose. The [`Runtime`](engine::Runtime) hosts a registry of
//! compiled queries — from the HCQ compiler *and* the pattern language —
//! routes each tuple only to the queries whose schema matches, and
//! spreads the work across sharded worker threads:
//!
//! ```
//! use pcea::prelude::*;
//!
//! let mut schema = Schema::new();
//! // One query from the HCQ compiler, one from the pattern language.
//! let q0 = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
//! let hcq = compile_hcq(&schema, &q0).unwrap();
//! let pat = pattern_to_pcea(&mut schema, "T(x) ; R(x, _)").unwrap();
//!
//! let mut runtime = Runtime::new(4); // four worker shards
//! let hcq_id = runtime
//!     .register(QuerySpec::new("q0", hcq.pcea, WindowPolicy::Count(100)))
//!     .unwrap();
//! let pat_id = runtime
//!     .register(
//!         QuerySpec::new("t_then_r", pat.pcea, WindowPolicy::Count(100))
//!             // Every join of this pattern is keyed on attribute 0, so it
//!             // may be key-partitioned across all shards.
//!             .with_partition(Partition::ByKey { pos: 0 }),
//!     )
//!     .unwrap();
//!
//! let r = schema.relation("R").unwrap();
//! let s = schema.relation("S").unwrap();
//! let t = schema.relation("T").unwrap();
//! let events = runtime.push_batch(&sigma0_prefix(r, s, t));
//! // Outputs are identical to per-query evaluators: Q0 matches twice at
//! // position 5, the sequential pattern once (T(2)@1 before R(2,11)@5).
//! assert_eq!(events.iter().filter(|e| e.query == hcq_id).count(), 2);
//! assert_eq!(events.iter().filter(|e| e.query == pat_id).count(), 1);
//! ```

pub use cer_automata as automata;
pub use cer_baselines as baselines;
pub use cer_common as common;
pub use cer_core as engine;
pub use cer_cq as cq;
pub use cer_lang as lang;
pub use cer_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use cer_automata::pcea::{Pcea, PceaBuilder, StateId};
    pub use cer_automata::predicate::{CmpOp, EqPredicate, KeyExtractor, UnaryPredicate};
    pub use cer_automata::reference::ReferenceEval;
    pub use cer_automata::valuation::{Label, LabelSet, Valuation, ValuationRef};
    pub use cer_common::gen::{sigma0_prefix, ChainGen, SensorGen, Sigma0Gen, StarGen, StockGen};
    pub use cer_common::{Schema, SliceStream, Stream, StreamExt, Tuple, Value, VecStream};
    pub use cer_core::api::Evaluator;
    pub use cer_core::autoscale::{AutoscalePolicy, Controller, LoadSignals, ScaleDecision};
    pub use cer_core::checkpoint::Snapshot;
    pub use cer_core::config::RuntimeConfig;
    pub use cer_core::durability::{
        CheckpointStats, DurabilityConfig, DurabilityStatus, FsyncPolicy,
    };
    pub use cer_core::error::{Error, ErrorCode};
    pub use cer_core::evaluator::{run_to_end, StreamingEvaluator};
    pub use cer_core::ingest::{
        BackpressurePolicy, IngestConfig, IngestHandle, IngestReceipt, MatchChunk, QueueStats,
        Subscription, SubscriptionFilter,
    };
    pub use cer_core::metrics::PipelineEvent;
    pub use cer_core::runtime::{
        MatchEvent, Partition, QueryId, QuerySpec, RescaleCounters, Runtime, RuntimeStats,
        SharedEvalStats, SnapshotCounters,
    };
    pub use cer_core::window::{WindowClock, WindowPolicy};
    pub use cer_core::{
        validate_prometheus_text, HistogramSnapshot, JournalEntry, Metric, MetricValue,
        MetricsSnapshot,
    };
    pub use cer_cq::compile::{compile_hcq, CompileError, CompiledQuery};
    pub use cer_cq::parser::{parse_query, QueryBuilder};
    pub use cer_cq::query::ConjunctiveQuery;
    pub use cer_lang::{compile_pattern, parse_pattern, pattern_to_pcea, CompiledPattern};
}
