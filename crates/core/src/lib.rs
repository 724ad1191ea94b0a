//! # cer-core — the streaming evaluation engine (Section 5)
//!
//! Implements Theorem 5.1: streaming evaluation of unambiguous PCEA with
//! equality predicates under a sliding window, with
//! `O(|P|·|t| + |P|·log|P| + |P|·log w)` update time and output-linear
//! delay enumeration — plus the multi-query runtime that serves many
//! registered queries over one stream.
//!
//! The evaluation stack is layered into explicit stages:
//!
//! * [`window`] — the ingest/window stage: [`WindowClock`] maps arriving
//!   tuples to monotone expiry bounds (count and time windows);
//! * `fire` — `FireTransitions` and `UpdateIndices` of Algorithm 1 over
//!   the look-up table `H` (`htable`: probed in place, keys interned
//!   once) and the per-position node lists;
//! * [`ds`] — the persistent enumeration structure `DS_w`: product/union
//!   nodes, `max-start`, heap condition (‡), leftist-meld `union`
//!   (Proposition 5.3) and a copying collector;
//! * [`enumerate`] — output-linear-delay enumeration of `⟦n⟧^w_i`
//!   (Theorem 5.2);
//! * [`evaluator`] — the single-query [`StreamingEvaluator`] composing
//!   the stages;
//! * [`api`] — the [`Evaluator`] trait surface shared with the
//!   `cer-baselines` evaluators;
//! * [`runtime`] — the sharded multi-query [`Runtime`]: a registry of
//!   compiled queries, relation-based routing, key-partitioned sharding
//!   across worker threads, and a batch push API;
//! * [`ingest`] — the asynchronous ingestion pipeline underneath the
//!   runtime: a position-stamping sequencer, bounded per-shard queues
//!   with backpressure ([`IngestHandle`] producers), and a subscription
//!   registry delivering [`MatchEvent`]s over per-consumer bounded
//!   channels;
//! * [`checkpoint`] — epoch-consistent snapshots of a live runtime
//!   ([`Runtime::snapshot`](runtime::Runtime::snapshot) /
//!   [`Runtime::restore`](runtime::Runtime::restore), no
//!   stop-the-world, shard count may change across restore) and query
//!   hot-swap with state handoff
//!   ([`Runtime::replace`](runtime::Runtime::replace));
//! * [`autoscale`] — live elasticity: in-process resharding
//!   ([`Runtime::rescale`](runtime::Runtime::rescale), no serialize
//!   round-trip) plus the hysteresis [`Controller`] closing the loop
//!   from load signals to shard count;
//! * [`durability`] — crash recovery: a position-stamped write-ahead
//!   log, incremental disk checkpoints and
//!   [`Runtime::recover`](runtime::Runtime::recover) /
//!   [`Runtime::open_durable`](runtime::Runtime::open_durable).

pub mod api;
pub mod autoscale;
pub mod checkpoint;
pub mod config;
pub mod ds;
pub mod durability;
pub mod enumerate;
pub mod error;
pub mod evaluator;
mod fire;
mod htable;
pub mod ingest;
pub mod metrics;
pub mod runtime;
mod shared;
pub mod window;

pub use api::Evaluator;
pub use autoscale::{AutoscalePolicy, Controller, LoadSignals, ScaleDecision};
pub use cer_obs::{
    validate_prometheus_text, HistogramSnapshot, JournalEntry, Metric, MetricValue, MetricsSnapshot,
};
pub use checkpoint::Snapshot;
pub use config::RuntimeConfig;
pub use ds::{EnumStructure, NodeId, BOTTOM};
pub use durability::{CheckpointStats, DurabilityConfig, DurabilityStatus, FsyncPolicy};
pub use error::{Error, ErrorCode};
pub use evaluator::{run_to_end, EngineStats, StreamingEvaluator};
pub use ingest::{
    BackpressurePolicy, IngestConfig, IngestHandle, IngestReceipt, MatchChunk, QueueStats,
    Subscription, SubscriptionFilter,
};
pub use metrics::PipelineEvent;
pub use runtime::{
    MatchEvent, Partition, QueryId, QuerySpec, RescaleCounters, Runtime, RuntimeStats,
    SharedEvalStats, SnapshotCounters,
};
pub use window::{WindowClock, WindowPolicy};
