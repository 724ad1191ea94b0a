//! The multi-query runtime: many registered queries, one stream,
//! key-partitioned sharding across worker threads.
//!
//! The [`StreamingEvaluator`] hosts *one* automaton. A production
//! deployment serves many standing queries over one firehose, so this
//! module layers a [`Runtime`] on top:
//!
//! * **registry** — queries compiled from any front-end (the HCQ
//!   compiler, the pattern language, or hand-built PCEA) are registered
//!   as [`QuerySpec`]s and identified by [`QueryId`]; a query can be
//!   removed again with [`Runtime::deregister`];
//! * **routing** — each stream tuple is routed only to the queries
//!   whose automaton can react to its relation
//!   ([`Pcea::relations`]); queries with unconfined predicates see
//!   every tuple;
//! * **sharding** — queries are spread across `n` worker threads.
//!   [`Partition::ByQuery`] pins a query to one shard (always sound);
//!   [`Partition::ByKey`] *replicates* a query across all shards and
//!   routes each tuple by the hash of its partition attribute, so a
//!   single hot query scales across cores. Key partitioning is sound
//!   exactly when every join projects the partition attribute on both
//!   sides, which [`Runtime::register`] validates via
//!   [`Pcea::supports_key_partition`];
//! * **ingestion** — shard workers drain bounded per-shard queues fed
//!   by a striped position-block sequencer ([`crate::ingest`]; producers
//!   reserve position blocks and route/stage outside any global lock,
//!   and a per-shard reorder stage restores position order), coalescing
//!   queued tuples into slices of up to [`IngestConfig::max_batch`](crate::ingest::IngestConfig::max_batch) per
//!   wakeup and evaluating each query's subsequence through the
//!   vectorized batch path
//!   ([`StreamingEvaluator::push_slice_for_each`] and the module docs
//!   of [`crate::evaluator`] for why outputs are bit-identical to
//!   tuple-at-a-time). The synchronous [`Runtime::push_batch`] stays:
//!   it ingests, fences with [`Runtime::drain`], and collects the
//!   batch's matches. Producers that want the hot path decoupled from
//!   delivery clone an [`IngestHandle`] and consumers take a
//!   [`Subscription`] — see the [`ingest`](crate::ingest) module docs
//!   for the pipeline and its position-sequencing soundness argument.
//!
//! Outputs are *identical* to running one [`StreamingEvaluator`] per
//! query over the full stream: shard evaluators are fed global stream
//! positions via [`StreamingEvaluator::push_at`], so window semantics
//! and reported positions do not depend on the shard count. (For time
//! windows this relies on the documented non-decreasing-timestamp
//! contract.)
//!
//! ```
//! use cer_core::runtime::{Partition, QuerySpec, Runtime};
//! use cer_core::window::WindowPolicy;
//! use cer_automata::pcea::paper_p0;
//! use cer_common::gen::sigma0_prefix;
//! use cer_common::Schema;
//!
//! let (_, r, s, t) = Schema::sigma0();
//! let mut rt = Runtime::new(4);
//! // Two standing queries over the same stream, one key-partitioned.
//! let narrow = rt
//!     .register(QuerySpec::new("p0_w5", paper_p0(r, s, t), WindowPolicy::Count(5)))
//!     .unwrap();
//! let wide = rt
//!     .register(
//!         QuerySpec::new("p0_wide", paper_p0(r, s, t), WindowPolicy::Count(100))
//!             .with_partition(Partition::ByKey { pos: 0 }),
//!     )
//!     .unwrap();
//! let events = rt.push_batch(&sigma0_prefix(r, s, t));
//! let narrow_hits = events.iter().filter(|e| e.query == narrow).count();
//! let wide_hits = events.iter().filter(|e| e.query == wide).count();
//! assert_eq!((narrow_hits, wide_hits), (2, 2));
//! assert!(events.iter().all(|e| e.position == 5));
//! ```

use crate::checkpoint::{QueryRecord, Snapshot, SnapshotError};
use crate::config::RuntimeConfig;
use crate::durability::{
    encode_deregister, encode_register, encode_replace, io_err, replay_dir, CheckpointStats,
    CheckpointStore, DurabilityError, DurabilityHandle, DurabilityStatus, Wal, WalOp, WalRecord,
};
use crate::evaluator::{EngineStats, StreamingEvaluator};
use crate::ingest::{
    key_shard, BackpressurePolicy, IngestHandle, IngestShared, InstallQuery, QueryMeta, QueueStats,
    ShardMsg, ShardQueue, ShardState, Subscription, SubscriptionFilter,
};
use crate::metrics::{PipelineEvent, ShardStageMetrics};
use crate::shared::PredicateCache;
use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_automata::valuation::Valuation;
use cer_common::hash::{FxBuildHasher, FxHashMap};
use cer_common::{RelationId, Tuple};
use cer_obs::{JournalEntry, MetricsSnapshot};
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Identifier of a query registered in a [`Runtime`], dense from 0 in
/// registration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

/// How a registered query is spread across the runtime's shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// The query lives on exactly one shard (the one hosting the fewest
    /// live pinned queries at registration time, so register/deregister
    /// churn keeps placement balanced). Always sound; multi-query
    /// workloads scale because different queries land on different
    /// shards.
    ByQuery,
    /// The query is replicated on every shard and each tuple is routed
    /// by the hash of its value at tuple position `pos`. Sound exactly
    /// when every join of the automaton projects that attribute on both
    /// sides ([`Pcea::supports_key_partition`]); lets a *single* hot
    /// query scale across cores.
    ByKey {
        /// Tuple position holding the partition attribute.
        pos: usize,
    },
}

/// A query ready for registration: an automaton plus its window policy
/// and placement.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Human-readable name, echoed in errors and stats.
    pub name: String,
    /// The compiled automaton.
    pub pcea: Pcea,
    /// The sliding-window policy.
    pub window: WindowPolicy,
    /// Shard placement.
    pub partition: Partition,
    /// GC cadence forwarded to the shard evaluators (0 = automatic).
    pub gc_every: u64,
}

impl QuerySpec {
    /// A query pinned to one shard ([`Partition::ByQuery`]).
    pub fn new(name: impl Into<String>, pcea: Pcea, window: WindowPolicy) -> Self {
        QuerySpec {
            name: name.into(),
            pcea,
            window,
            partition: Partition::ByQuery,
            gc_every: 0,
        }
    }

    /// Override the placement.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Override the GC cadence.
    pub fn with_gc_every(mut self, every: u64) -> Self {
        self.gc_every = every;
        self
    }
}

/// One completed match: which query fired, at which global stream
/// position, with which valuation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MatchEvent {
    /// Global position of the completing tuple.
    pub position: u64,
    /// The query that matched.
    pub query: QueryId,
    /// The match itself.
    pub valuation: Valuation,
}

/// Why a registration or deregistration was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// [`Partition::ByKey`] was requested but some join of the automaton
    /// does not project the partition attribute on both sides, so runs
    /// could cross shard boundaries and outputs would be lost.
    KeyPartitionUnsound {
        /// The query's name.
        query: String,
        /// The requested partition attribute.
        pos: usize,
    },
    /// The query id is not currently registered (never was, or already
    /// deregistered).
    UnknownQuery {
        /// The offending id.
        id: QueryId,
    },
    /// [`Runtime::replace`] rejected a hot-swap: the new query cannot
    /// take over the old one's accumulated state. The old query keeps
    /// running untouched.
    ReplaceIncompatible {
        /// The replacement query's name.
        query: String,
        /// What failed the compatibility check.
        reason: &'static str,
    },
    /// [`Runtime::rescale`] was asked for a shard count outside the
    /// supported `1..=64` range (the same bound
    /// [`RuntimeConfig`] clamps to at construction).
    InvalidShardCount {
        /// The rejected count.
        shards: usize,
    },
    /// A durable runtime rejected a registration (or hot-swap) whose
    /// definition cannot be serialized to the write-ahead log —
    /// closure predicates have no wire form, so the query could never
    /// be recovered. Rejected *before* anything is logged or routed;
    /// the runtime is unchanged.
    UnserializableQuery {
        /// The rejected query's name.
        query: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::KeyPartitionUnsound { query, pos } => write!(
                f,
                "query `{query}`: key partitioning on tuple position {pos} is unsound — \
                 every join must project that attribute on both sides"
            ),
            RuntimeError::UnknownQuery { id } => {
                write!(f, "query {id:?} is not registered")
            }
            RuntimeError::ReplaceIncompatible { query, reason } => {
                write!(
                    f,
                    "query `{query}` cannot take over the old state: {reason}"
                )
            }
            RuntimeError::InvalidShardCount { shards } => {
                write!(f, "shard count {shards} out of range (1..=64)")
            }
            RuntimeError::UnserializableQuery { query } => {
                write!(
                    f,
                    "query `{query}` cannot be written to the WAL (closure \
                     predicates have no wire form) — a durable runtime would \
                     lose it on recovery"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Runtime counters: per-query engine stats aggregated across shards,
/// plus the occupancy of every shard's ingest queue.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// `(query, per-shard engine counters summed)` in id order.
    pub per_query: Vec<(QueryId, EngineStats)>,
    /// The unsummed breakdown behind [`per_query`](Self::per_query):
    /// `(query, [(shard, counters), …])` in id order, shards ascending.
    /// Summing each query's shard entries reproduces `per_query`
    /// exactly — kept so hot-shard skew under
    /// [`Partition::ByKey`] stays visible instead of being averaged
    /// away.
    pub per_query_shards: Vec<(QueryId, Vec<(usize, EngineStats)>)>,
    /// Per-shard ingest queue occupancy (current depth, high-water
    /// mark, tuples dropped under
    /// [`BackpressurePolicy::DropNewest`](crate::ingest::BackpressurePolicy)),
    /// the evaluation batch sizes the shard workers actually drained
    /// ([`QueueStats::drained_batches`] / [`QueueStats::drained_tuples`]
    /// / [`QueueStats::max_drain_batch`]), and the reorder-stage
    /// counters of the striped sequencer
    /// ([`QueueStats::reorder_pending`] /
    /// [`QueueStats::reorder_high_water`] /
    /// [`QueueStats::reorder_released`]).
    pub shard_queues: Vec<QueueStats>,
    /// Checkpoint counters ([`Runtime::snapshot`]): how many snapshots
    /// were taken, at which position the last one cut, and how long
    /// each shard's copy-on-fence serialization stalled its worker.
    pub snapshots: SnapshotCounters,
    /// Live-resharding counters ([`Runtime::rescale`]): how many
    /// rescales ran, the fence-to-resume duration of the last one, and
    /// each old shard's state-move stall.
    pub rescales: RescaleCounters,
    /// Shared-evaluation effectiveness, summed across shards: predicate
    /// dedup (distinct vs referenced predicates, prefilter `matches()`
    /// calls performed vs avoided) and skeleton grouping (group count
    /// and sizes, concatenated across shards).
    pub shared: SharedEvalStats,
}

/// Effectiveness counters of the per-shard shared-evaluation layer
/// (predicate cache + skeleton groups), surfaced in [`RuntimeStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedEvalStats {
    /// Distinct unary predicates currently interned (summed across
    /// shard caches).
    pub distinct_predicates: usize,
    /// Predicate references held by registered transitions (one per
    /// transition per hosted query replica). The gap to
    /// `distinct_predicates` is the dedup factor.
    pub referenced_predicates: usize,
    /// Cumulative unary `matches()` calls the shared prefilter actually
    /// performed.
    pub prefilter_evals_done: u64,
    /// Cumulative unary `matches()` calls avoided versus private
    /// per-query prefilters (which pay one call per tuple per
    /// referencing transition).
    pub prefilter_evals_saved: u64,
    /// Skeleton-compatible query groups currently live (summed across
    /// shards).
    pub groups: usize,
    /// Member count of every live group, concatenated across shards.
    pub group_sizes: Vec<usize>,
}

/// Checkpoint counters surfaced in [`RuntimeStats`], alongside the
/// queue/reorder stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCounters {
    /// Snapshots successfully taken over this runtime's lifetime.
    pub snapshots_taken: u64,
    /// Epoch position of the most recent snapshot (`None` before the
    /// first).
    pub last_snapshot_pos: Option<u64>,
    /// Per-shard serialization stall of the most recent snapshot, in
    /// nanoseconds — the copy-on-fence cost each worker paid while
    /// producers kept running.
    pub shard_serialize_nanos: Vec<u64>,
}

/// Live-resharding counters surfaced in [`RuntimeStats`], mirroring
/// [`SnapshotCounters`]. [`Runtime::rescale`] moves state in memory
/// without touching the wire layer, so these are deliberately separate
/// from the snapshot counters: a rescale never records into
/// `shard_serialize_nanos`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RescaleCounters {
    /// Rescales completed over this runtime's lifetime.
    pub rescales: u64,
    /// Fence position of the most recent rescale (`None` before the
    /// first): tuples stamped below it were evaluated by the old worker
    /// set, everything at or above by the new one.
    pub last_fence_pos: Option<u64>,
    /// Fence-to-resume wall time of the most recent rescale, in
    /// nanoseconds — from reserving the fence block to the new workers
    /// acknowledging their installed state.
    pub last_rescale_nanos: u64,
    /// Per-old-shard state-capture (move) stall of the most recent
    /// rescale, in nanoseconds — the in-memory analogue of
    /// [`SnapshotCounters::shard_serialize_nanos`].
    pub shard_move_nanos: Vec<u64>,
}

/// One live query's placement under a rescale's new layout: id,
/// partition rule, listen set, and the homes chosen for it.
type Placement = (QueryId, Partition, Option<Vec<RelationId>>, Vec<usize>);

impl RuntimeStats {
    /// Out-of-order timestamps clamped by time-window clocks, summed
    /// across queries and shards
    /// ([`EngineStats::ts_regressions`](crate::evaluator::EngineStats)).
    /// Non-zero means some stream violated the non-decreasing-timestamp
    /// contract — under `ByKey` sharding its outputs may then depend on
    /// the shard count (see the hazard note in [`crate::window`]), so
    /// operators should alert on this counter.
    pub fn ts_regressions(&self) -> u64 {
        self.per_query.iter().map(|(_, st)| st.ts_regressions).sum()
    }
}

/// What a shard worker hosts for one registered query.
struct LocalQuery {
    id: QueryId,
    eval: StreamingEvaluator,
    partition: Partition,
    listens: Option<Vec<RelationId>>,
    /// Indirection table: transition index → shared predicate slot in
    /// the shard's [`PredicateCache`].
    slots: Vec<u32>,
    /// Index of this query's [`QueryGroup`].
    group: usize,
    /// `ts_regressions` observed after the previous batch — new clamps
    /// show up as a delta and are journaled per batch.
    last_regressions: u64,
}

/// A shard-local bucket of skeleton-compatible queries: same automaton
/// skeleton ([`Pcea::skeleton_compatible`]), same routing interests and
/// same partition mode, so the whole group shares one routed tuple
/// selection per batch and its members differ only in per-query
/// residuals (predicates, join state, windows).
struct QueryGroup {
    /// Routing interests shared by every member (equal by construction).
    listens: Option<Vec<RelationId>>,
    /// Partition mode shared by every member.
    partition: Partition,
    /// Indices into the worker's `queries`.
    members: Vec<usize>,
    /// Reusable per-batch selection scratch (indices into the drained
    /// slice), computed once per group instead of once per query.
    sel: Vec<u32>,
}

/// Find the group a query belongs in — same skeleton, listens and
/// partition — or create an empty one. `k` indexes the query in
/// `queries`; membership is the caller's to record.
fn find_or_create_group(groups: &mut Vec<QueryGroup>, queries: &[LocalQuery], k: usize) -> usize {
    let q = &queries[k];
    for (gi, g) in groups.iter().enumerate() {
        if g.partition == q.partition
            && g.listens == q.listens
            && g.members
                .first()
                .is_some_and(|&m| queries[m].eval.pcea().skeleton_compatible(q.eval.pcea()))
        {
            return gi;
        }
    }
    groups.push(QueryGroup {
        listens: q.listens.clone(),
        partition: q.partition,
        members: Vec::new(),
        sel: Vec::new(),
    });
    groups.len() - 1
}

/// Recompute every group's membership from the queries' `group` fields
/// (indices into `queries` shift on removal) and drop groups left
/// empty, remapping the survivors.
fn rebuild_groups(groups: &mut Vec<QueryGroup>, queries: &mut [LocalQuery]) {
    for g in groups.iter_mut() {
        g.members.clear();
    }
    for (k, q) in queries.iter().enumerate() {
        groups[q.group].members.push(k);
    }
    let mut remap = vec![usize::MAX; groups.len()];
    let mut w = 0usize;
    for gi in 0..groups.len() {
        if groups[gi].members.is_empty() {
            continue;
        }
        remap[gi] = w;
        groups.swap(gi, w);
        w += 1;
    }
    groups.truncate(w);
    for q in queries.iter_mut() {
        q.group = remap[q.group];
    }
}

/// Registry metadata the runtime keeps per query. The full spec is
/// retained for live queries so checkpoints can serialize definitions
/// and `replace` can validate hand-off compatibility.
struct QueryInfo {
    name: String,
    alive: bool,
    spec: Option<QuerySpec>,
}

/// The multi-query, sharded streaming runtime. See the [module
/// docs](self) for the architecture, [`crate::ingest`] for the
/// asynchronous pipeline underneath, and [`crate::checkpoint`] for
/// snapshot/restore and query hot-swap.
pub struct Runtime {
    shared: Arc<IngestShared>,
    workers: Vec<Option<JoinHandle<()>>>,
    queries: Vec<QueryInfo>,
    snap_counters: SnapshotCounters,
    rescale_counters: RescaleCounters,
    config: RuntimeConfig,
    /// `Some` when this runtime was opened on a data directory
    /// ([`Runtime::open_durable`] / [`Runtime::recover`]): the attached
    /// WAL plus the checkpoint store. In-memory runtimes carry `None`
    /// and every durability entry point reports
    /// [`DurabilityError::NotDurable`].
    durability: Option<DurabilityHandle>,
}

/// Spawn one shard worker. The queue, stage metrics and shard geometry
/// are per-epoch values passed at spawn time (not read from the shared
/// state) so [`Runtime::rescale`] can run old and new worker sets
/// against different queue sets during the hand-off.
fn spawn_shard_worker(
    shared: Arc<IngestShared>,
    queue: Arc<ShardQueue>,
    stage: Arc<ShardStageMetrics>,
    shard_idx: usize,
    n_shards: usize,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("cer-shard-{shard_idx}"))
        .spawn(move || shard_loop(shared, queue, stage, shard_idx, n_shards))
        .expect("spawn shard worker")
}

impl Runtime {
    /// A runtime from a [`RuntimeConfig`] — or a bare shard count
    /// (clamped to `1..=64`), which converts into a config with every
    /// other knob at its default: `Runtime::new(4)`.
    pub fn new(config: impl Into<RuntimeConfig>) -> Self {
        Self::build(config.into())
    }

    fn build(config: RuntimeConfig) -> Self {
        let config = config.validated();
        let shared = Arc::new(IngestShared::new(&config));
        let queues = shared.queues();
        let stages: Vec<Arc<ShardStageMetrics>> = shared
            .metrics
            .shards
            .lock()
            .expect("metrics poisoned")
            .clone();
        let workers = queues
            .iter()
            .zip(stages)
            .enumerate()
            .map(|(idx, (queue, stage))| {
                Some(spawn_shard_worker(
                    shared.clone(),
                    queue.clone(),
                    stage,
                    idx,
                    queues.len(),
                ))
            })
            .collect();
        Runtime {
            shared,
            workers,
            queries: Vec::new(),
            snap_counters: SnapshotCounters::default(),
            rescale_counters: RescaleCounters::default(),
            config,
            durability: None,
        }
    }

    /// The (validated) configuration this runtime was built from.
    /// [`RuntimeConfig::shards`] tracks [`Runtime::rescale`], so it
    /// reflects the *current* worker count, not necessarily the
    /// construction-time one.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of worker shards (live: follows [`Runtime::rescale`]).
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative [`RescaleCounters`]: how many times this runtime was
    /// live-resharded, the last fence position and duration, and the
    /// per-shard state-move times of the last rescale. Cheaper than
    /// [`Runtime::stats`] — no worker round-trip.
    pub fn rescale_counters(&self) -> &RescaleCounters {
        &self.rescale_counters
    }

    /// Number of currently registered (not deregistered) queries.
    pub fn num_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.alive).count()
    }

    /// The global position the next pushed tuple will occupy.
    pub fn next_position(&self) -> u64 {
        self.shared.seq.lock().expect("sequencer poisoned").next_pos
    }

    /// The name a query was registered under (also for deregistered
    /// ids); `None` for an id this runtime never issued.
    pub fn query_name(&self, id: QueryId) -> Option<&str> {
        self.queries.get(id.0 as usize).map(|q| q.name.as_str())
    }

    /// Register a query; tuples pushed from now on are evaluated against
    /// it. Key-partitioned placements are validated for soundness;
    /// pinned ([`Partition::ByQuery`]) queries are placed on the shard
    /// currently hosting the fewest live pinned queries, so
    /// register/deregister churn cannot pile them up on few shards.
    pub fn register(&mut self, spec: QuerySpec) -> Result<QueryId, RuntimeError> {
        self.register_with_state(spec, None)
    }

    /// The shared registration path: `state` carries a restored
    /// evaluator (checkpoint restore) to seed the shard workers with
    /// instead of fresh state. Key-partitioned restored queries get a
    /// clone of the merged state on *every* home shard, pruned to the
    /// key slice that home owns — see [`crate::checkpoint`] for why
    /// disjointness matters — with the merged counters on the first
    /// home only, so per-query stats summed across shards stay exact.
    fn register_with_state(
        &mut self,
        spec: QuerySpec,
        state: Option<StreamingEvaluator>,
    ) -> Result<QueryId, RuntimeError> {
        if let Partition::ByKey { pos } = spec.partition {
            if !spec.pcea.supports_key_partition(pos) {
                return Err(RuntimeError::KeyPartitionUnsound {
                    query: spec.name,
                    pos,
                });
            }
        }
        // Durable runtimes must be able to log the definition: probe
        // encodability *before* reserving anything, so a rejection
        // consumes no `wal_seq` and leaves no gap in the log.
        if self.shared.wal.get().is_some() {
            use cer_common::wire::{Wire, WireWriter};
            let mut probe = WireWriter::new();
            if spec.encode(&mut probe).is_err() {
                return Err(RuntimeError::UnserializableQuery { query: spec.name });
            }
        }
        let id = QueryId(self.queries.len() as u32);
        let listens = spec.pcea.relations();
        let n_homes = match spec.partition {
            Partition::ByQuery => 1,
            Partition::ByKey { .. } => self.num_shards(),
        };
        // Replica clones are prepared before the sequencer lock: cloning
        // a large restored arena under the lock would stall producers.
        // Under `ByKey`, each home's copy is pruned to the key slice it
        // owns in the *new* layout — replicas must stay disjoint or the
        // next merge (rescale, restore) would duplicate in-window runs.
        let mut states: Vec<Option<Box<StreamingEvaluator>>> = (0..n_homes).map(|_| None).collect();
        if let Some(eval) = state {
            for (k, slot) in states.iter_mut().enumerate().skip(1) {
                let mut clone = eval.clone();
                clone.clear_replica_stats();
                if let Partition::ByKey { pos } = spec.partition {
                    clone.retain_key_shard(pos, k, n_homes);
                }
                *slot = Some(Box::new(clone));
            }
            let mut first = eval;
            if let Partition::ByKey { pos } = spec.partition {
                first.retain_key_shard(pos, 0, n_homes);
            }
            states[0] = Some(Box::new(first));
        }
        let (block, position, wal_seq) = {
            // One sequencer lock acquisition swaps the router AND
            // reserves the zero-width control block, so the routing
            // epoch agrees with block order: blocks reserved before this
            // were routed with the old tables and their tuples are
            // released ahead of the Register message; blocks after see
            // the query and follow it.
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            let n_shards = seq.queues.len();
            let homes: Vec<usize> = match spec.partition {
                Partition::ByQuery => {
                    let counts = seq.router.pinned_per_shard(n_shards);
                    let least = (0..counts.len()).min_by_key(|&s| counts[s]).unwrap_or(0);
                    vec![least]
                }
                Partition::ByKey { .. } => (0..n_shards).collect(),
            };
            let router = Arc::make_mut(&mut seq.router);
            router.metas.push(QueryMeta {
                alive: true,
                partition: spec.partition,
                listens: listens.clone(),
                homes: homes.clone(),
            });
            router.rebuild();
            let (block, position) = seq.reserve(0);
            let wal_seq = seq.take_wal_seq();
            for (k, &shard) in homes.iter().enumerate() {
                seq.queues[shard]
                    .stage_control(
                        block,
                        ShardMsg::Register {
                            id,
                            pcea: spec.pcea.clone(),
                            window: spec.window.clone(),
                            partition: spec.partition,
                            gc_every: spec.gc_every,
                            listens: listens.clone(),
                            state: states[k].take(),
                        },
                    )
                    .expect("runtime not shut down");
            }
            (block, position, wal_seq)
        };
        self.shared.finish_block(block);
        if self.shared.wal.get().is_some() {
            let payload = encode_register(wal_seq, position, id.0, &spec);
            self.shared.wal_append(wal_seq, position, payload);
        }
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::QueryRegistered {
                query: id,
                position,
            });
        self.queries.push(QueryInfo {
            name: spec.name.clone(),
            alive: true,
            spec: Some(spec),
        });
        Ok(id)
    }

    /// Remove a query: tuples ingested from now on are no longer routed
    /// to it, and its final engine counters (summed across shards) are
    /// returned. Tuples already queued ahead of the call still count —
    /// deregistration is FIFO-ordered with ingestion, like
    /// registration. The id is retired, not reused.
    pub fn deregister(&mut self, id: QueryId) -> Result<EngineStats, RuntimeError> {
        let info = self
            .queries
            .get_mut(id.0 as usize)
            .filter(|info| info.alive)
            .ok_or(RuntimeError::UnknownQuery { id })?;
        info.alive = false;
        info.spec = None;
        let (reply, replies) = channel();
        let (block, position, homes, wal_seq) = {
            // Same epoch rule as `register`: the router swap and the
            // zero-width control block share one lock acquisition, so
            // tuples routed to the dying query (older blocks) are
            // released ahead of the Deregister message and still count.
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            let router = Arc::make_mut(&mut seq.router);
            let meta = &mut router.metas[id.0 as usize];
            meta.alive = false;
            let homes = meta.homes.clone();
            router.rebuild();
            let (block, position) = seq.reserve(0);
            let wal_seq = seq.take_wal_seq();
            for &shard in &homes {
                seq.queues[shard]
                    .stage_control(
                        block,
                        ShardMsg::Deregister {
                            id,
                            reply: reply.clone(),
                        },
                    )
                    .expect("runtime not shut down");
            }
            (block, position, homes, wal_seq)
        };
        self.shared.finish_block(block);
        if self.shared.wal.get().is_some() {
            let payload = Ok(encode_deregister(wal_seq, position, id.0));
            self.shared.wal_append(wal_seq, position, payload);
        }
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::QueryDeregistered {
                query: id,
                position,
            });
        drop(reply);
        let mut total = EngineStats::default();
        for _ in 0..homes.len() {
            let st = replies
                .recv()
                .expect("a runtime shard worker died during deregistration");
            if let Some(st) = st {
                sum_stats(&mut total, &st);
            }
        }
        Ok(total)
    }

    /// Capture an epoch-consistent [`Snapshot`] of every registered
    /// query's definition and live evaluator state, **without stopping
    /// producers**: one zero-width *epoch block* is reserved through
    /// the striped sequencer, so every shard serializes at exactly the
    /// same stamped position while ingestion keeps flowing (see
    /// [`crate::checkpoint`] for the consistency argument). Shards
    /// serialize concurrently; each worker's copy-on-fence stall is
    /// reported in [`RuntimeStats::snapshots`].
    ///
    /// Fails up front — before fencing anything — when a registered
    /// definition cannot be serialized (closure predicates).
    pub fn snapshot(&mut self) -> Result<Snapshot, SnapshotError> {
        use cer_common::wire::{Wire, WireWriter};
        // Early validation: every live definition must round-trip, or
        // the snapshot would be unrestorable.
        for info in self.queries.iter().filter(|i| i.alive) {
            let spec = info.spec.as_ref().expect("live query retains its spec");
            let mut probe = WireWriter::new();
            spec.encode(&mut probe)?;
        }
        // Extract: the epoch-fenced copy-on-fence capture, shared with
        // `rescale`. Workers clone their hosted evaluators at the fence
        // and keep serving.
        let (fence_pos, wal_seq, states) = self
            .extract_states()
            .map_err(|_| SnapshotError::ShardWorkerDied)?;
        let position = fence_pos;
        let n_shards = states.len();
        // Encode: the wire layer, snapshot-only. The workers resumed
        // the moment their clone finished; serialization happens here
        // on the control plane against the extracted copies. Per-shard
        // `serialize_nanos` keeps its meaning — capture stall plus
        // encode time.
        let mut per_shard_nanos = vec![0u64; n_shards];
        let mut blobs: FxHashMap<QueryId, Vec<(usize, Vec<u8>)>> = FxHashMap::default();
        for state in states {
            let encode_at = Instant::now();
            let shard = state.shard;
            for (qid, mut eval) in state.queries {
                let blob = eval.snapshot_bytes()?;
                blobs.entry(qid).or_default().push((shard, blob));
            }
            per_shard_nanos[shard] = state.capture_nanos + encode_at.elapsed().as_nanos() as u64;
        }
        self.snap_counters.snapshots_taken += 1;
        self.snap_counters.last_snapshot_pos = Some(position);
        for &nanos in &per_shard_nanos {
            self.shared.metrics.snapshot_serialize.record(nanos);
        }
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::SnapshotTaken { position });
        // A durable runtime rolls the active WAL segment at the fence's
        // `wal_seq`: records below it are exactly the state this
        // snapshot captured, so a checkpoint built from it can truncate
        // whole sealed segments.
        if let Some(wal) = self.shared.wal.get() {
            wal.roll_at(wal_seq);
            self.shared
                .metrics
                .journal
                .push(PipelineEvent::WalRolled { position });
        }
        self.snap_counters.shard_serialize_nanos = per_shard_nanos;
        let queries = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, info)| {
                let mut shard_blobs = blobs.remove(&QueryId(i as u32)).unwrap_or_default();
                shard_blobs.sort_by_key(|(shard, _)| *shard);
                QueryRecord {
                    id: i as u32,
                    name: info.name.clone(),
                    spec: info.spec.clone(),
                    blobs: shard_blobs.into_iter().map(|(_, blob)| blob).collect(),
                }
            })
            .collect();
        Ok(Snapshot {
            position,
            origin_shards: n_shards,
            queries,
            wal_seq,
        })
    }

    /// The extract half of the snapshot path: reserve one zero-width
    /// epoch block through the striped sequencer and have every shard
    /// worker capture (clone) its hosted evaluators at exactly that
    /// point of the released position order, without stopping
    /// producers. Returns the fence position and one [`ShardState`]
    /// per shard, in shard order. No bytes are produced — encoding is
    /// [`Runtime::snapshot`]'s half; [`Runtime::rescale`] consumes the
    /// detaching variant of the same capture directly.
    ///
    /// Also returns the `wal_seq` high-water read under the same lock
    /// acquisition as the fence reservation: every replayable operation
    /// whose `wal_seq` is below it was reserved before the fence and is
    /// therefore covered by the captured state — the recovery replay
    /// filter (`seq >= wal_seq`) is exact, not approximate.
    fn extract_states(&mut self) -> Result<(u64, u64, Vec<ShardState>), ()> {
        let (reply, replies) = channel();
        let (block, position, wal_seq, n_shards) = {
            // Reserved and staged to every shard under one sequencer
            // lock acquisition, like register/deregister.
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            let (block, position) = seq.reserve(0);
            let wal_seq = seq.next_wal_seq;
            for q in seq.queues.iter() {
                q.stage_control(
                    block,
                    ShardMsg::Extract {
                        detach: false,
                        reply: reply.clone(),
                    },
                )
                .map_err(|_| ())?;
            }
            (block, position, wal_seq, seq.queues.len())
        };
        self.shared.finish_block(block);
        drop(reply);
        let mut states = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            states.push(replies.recv().map_err(|_| ())?);
        }
        states.sort_by_key(|s| s.shard);
        Ok((position, wal_seq, states))
    }

    /// Live, in-process resharding: tear the worker set down to
    /// `shards` threads (or up), moving every query's accumulated
    /// state across — no serialize round-trip, producers blocked no
    /// longer than the fence. [`IngestHandle`]s, subscriptions and
    /// [`QueryId`]s all survive; stamping resumes at the fence
    /// position, so outputs are identical to never having rescaled.
    ///
    /// Mechanically this is a two-block fence through the striped
    /// sequencer, installed under one lock acquisition:
    ///
    /// ```text
    ///  old queues ── …tuples… ─ B:Extract(detach)        ×closed×
    ///  new queues ──────────── B+1:Install ─ …tuples (held)…──►
    /// ```
    ///
    /// * every query is re-homed for the new count and the router
    ///   swapped, so blocks reserved *after* the fence route to the
    ///   new queues;
    /// * fence block `B` carries a detaching extract to the old
    ///   workers: each drains its entire pre-fence backlog, hands its
    ///   evaluators over, and exits;
    /// * install block `B+1` is completed only once the merged state
    ///   has been staged to the new queues, and the reorder stage
    ///   releases blocks strictly in order — so the new workers adopt
    ///   their state *before* the first post-fence tuple, which waited
    ///   in the reorder buffer, not in a parked producer.
    ///
    /// The merge is restore's, minus the wire: arenas concatenate with
    /// remapped ids, `H` tables union, window clocks interleave,
    /// counters sum — all on in-memory values
    /// (`StreamingEvaluator::absorb_replica`). The snapshot
    /// serialization histogram is untouched by construction.
    ///
    /// Ordering vs the other control operations
    /// (`register`/`deregister`/`replace`/`snapshot`): all of them,
    /// and `rescale` itself, take `&mut self`, so they are serialized
    /// by construction — a rescale can neither interleave with nor
    /// deadlock against another structural change, and each one
    /// fences FIFO with ingestion through its control block's position
    /// in the reserve order. Concurrent producers ([`IngestHandle`])
    /// and consumers ([`Subscription`]) keep running throughout.
    pub fn rescale(&mut self, shards: usize) -> Result<(), RuntimeError> {
        if shards == 0 || shards > 64 {
            return Err(RuntimeError::InvalidShardCount { shards });
        }
        let old_n = self.num_shards();
        // Everything construction-like happens before the fence.
        let new_queues: Arc<[Arc<ShardQueue>]> = (0..shards)
            .map(|_| Arc::new(ShardQueue::new(self.config.ingest.queue_capacity)))
            .collect();
        let new_stages: Vec<Arc<ShardStageMetrics>> = (0..shards)
            .map(|_| Arc::new(ShardStageMetrics::default()))
            .collect();
        let (reply, replies) = channel();
        let fence_at = Instant::now();
        // Phase 1 — the fence. One sequencer lock acquisition re-homes
        // every live query, swaps the router and the queue set, and
        // reserves both control blocks, so the routing epoch agrees
        // with block order exactly as in register/deregister.
        let (fence_block, install_block, fence_pos, fence_wal_seq, old_queues, placements) = {
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            let old_queues = Arc::clone(&seq.queues);
            let router = Arc::make_mut(&mut seq.router);
            // Deterministic re-placement: pinned queries go least-
            // loaded in id order; keyed queries home on every shard.
            let mut pinned = vec![0usize; shards];
            let mut placements: Vec<Placement> = Vec::new();
            for (i, meta) in router.metas.iter_mut().enumerate() {
                if !meta.alive {
                    continue;
                }
                meta.homes = match meta.partition {
                    Partition::ByQuery => {
                        let least = (0..shards).min_by_key(|&s| pinned[s]).unwrap_or(0);
                        pinned[least] += 1;
                        vec![least]
                    }
                    Partition::ByKey { .. } => (0..shards).collect(),
                };
                placements.push((
                    QueryId(i as u32),
                    meta.partition,
                    meta.listens.clone(),
                    meta.homes.clone(),
                ));
            }
            router.rebuild();
            let (fence_block, fence_pos) = seq.reserve(0);
            let (install_block, _) = seq.reserve(0);
            let fence_wal_seq = seq.next_wal_seq;
            seq.queues = Arc::clone(&new_queues);
            // Watermark broadcasts must keep reaching the retiring
            // queues until their workers hand their state over.
            seq.broadcast = old_queues
                .iter()
                .chain(new_queues.iter())
                .cloned()
                .collect();
            for q in old_queues.iter() {
                q.stage_control(
                    fence_block,
                    ShardMsg::Extract {
                        detach: true,
                        reply: reply.clone(),
                    },
                )
                .expect("runtime not shut down");
            }
            (
                fence_block,
                install_block,
                fence_pos,
                fence_wal_seq,
                old_queues,
                placements,
            )
        };
        self.shared.finish_block(fence_block);
        // A durable runtime rolls the active segment at the fence, so a
        // recovery replaying across this rescale re-derives the same
        // fence point from segment boundaries alone (the log carries no
        // explicit rescale records — shard layout is not durable state).
        if let Some(wal) = self.shared.wal.get() {
            wal.roll_at(fence_wal_seq);
            self.shared.metrics.journal.push(PipelineEvent::WalRolled {
                position: fence_pos,
            });
        }
        drop(reply);
        // Phase 2 — the new workers spawn immediately; their queues
        // hold everything back until the install block releases.
        let new_workers: Vec<Option<JoinHandle<()>>> = new_queues
            .iter()
            .zip(&new_stages)
            .enumerate()
            .map(|(idx, (queue, stage))| {
                Some(spawn_shard_worker(
                    self.shared.clone(),
                    queue.clone(),
                    stage.clone(),
                    idx,
                    shards,
                ))
            })
            .collect();
        // Phase 3 — collect the detached state. A reply proves that
        // shard evaluated everything below the fence.
        let mut states: Vec<ShardState> = Vec::with_capacity(old_n);
        for _ in 0..old_n {
            states.push(
                replies
                    .recv()
                    .expect("a runtime shard worker died during rescale"),
            );
        }
        states.sort_by_key(|s| s.shard);
        let shard_move_nanos: Vec<u64> = states.iter().map(|s| s.capture_nanos).collect();
        // Phase 4 — merge in memory: exactly restore's merge, no bytes.
        let mut by_query: FxHashMap<QueryId, Vec<StreamingEvaluator>> = FxHashMap::default();
        for state in states {
            for (qid, eval) in state.queries {
                by_query.entry(qid).or_default().push(*eval);
            }
        }
        let mut installs: Vec<Vec<InstallQuery>> = (0..shards).map(|_| Vec::new()).collect();
        for (id, partition, listens, homes) in placements {
            let replicas = by_query.remove(&id).unwrap_or_default();
            let mut merged =
                merge_replicas(replicas).expect("live query hosted on at least one old shard");
            merged.set_resume_position(fence_pos);
            // Same replication rule as a restored registration: the
            // merged counters live on the first home only, clones on
            // the others report zero, so stats summed across shards
            // stay exact — and each `ByKey` home keeps only the key
            // slice it owns in the new layout, so the replicas handed
            // out are disjoint and the *next* rescale's merge cannot
            // duplicate runs.
            for &shard in homes.iter().skip(1) {
                let mut clone = merged.clone();
                clone.clear_replica_stats();
                if let Partition::ByKey { pos } = partition {
                    clone.retain_key_shard(pos, shard, shards);
                }
                installs[shard].push(InstallQuery {
                    id,
                    partition,
                    listens: listens.clone(),
                    state: Box::new(clone),
                });
            }
            if let Partition::ByKey { pos } = partition {
                merged.retain_key_shard(pos, homes[0], shards);
            }
            installs[homes[0]].push(InstallQuery {
                id,
                partition,
                listens,
                state: Box::new(merged),
            });
        }
        // Phase 5 — install under the second block. One batched message
        // per new shard (the reorder buffer holds one entry per block
        // id); empty shards still get one, so every queue passes the
        // fence and every worker acknowledges.
        let (ireply, installed) = channel();
        for (shard, queries) in installs.into_iter().enumerate() {
            new_queues[shard]
                .stage_control(
                    install_block,
                    ShardMsg::Install {
                        queries,
                        reply: ireply.clone(),
                    },
                )
                .expect("runtime not shut down");
        }
        self.shared.finish_block(install_block);
        drop(ireply);
        for _ in 0..shards {
            installed
                .recv()
                .expect("a runtime shard worker died during rescale");
        }
        let nanos = fence_at.elapsed().as_nanos() as u64;
        // Phase 6 — retire the old epoch: fold the retiring queues'
        // drop totals into the monotone carry-over, shrink the
        // broadcast set back to the live queues, and reap the old
        // workers (they exited at the fence; close() is for any that
        // died early).
        let retired: u64 = old_queues.iter().map(|q| q.stats().dropped).sum();
        self.shared
            .retired_dropped
            .fetch_add(retired, std::sync::atomic::Ordering::Relaxed);
        {
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            seq.broadcast = Arc::clone(&seq.queues);
        }
        for q in old_queues.iter() {
            q.close();
        }
        let old_workers = std::mem::replace(&mut self.workers, new_workers);
        for mut worker in old_workers {
            if let Some(handle) = worker.take() {
                let _ = handle.join();
            }
        }
        *self.shared.metrics.shards.lock().expect("metrics poisoned") = new_stages;
        self.config.shards = shards;
        self.rescale_counters.rescales += 1;
        self.rescale_counters.last_fence_pos = Some(fence_pos);
        self.rescale_counters.last_rescale_nanos = nanos;
        self.rescale_counters.shard_move_nanos = shard_move_nanos;
        self.shared.metrics.rescale.record(nanos);
        self.shared.metrics.journal.push(PipelineEvent::Rescale {
            from: old_n,
            to: shards,
            fence_pos,
            nanos,
        });
        Ok(())
    }

    /// One autoscaling tick: sample the load signals
    /// ([`crate::autoscale::LoadSignals`]), feed them to the
    /// controller, and when it decides to move, journal the decision
    /// ([`PipelineEvent::AutoscaleDecision`]) and run the
    /// [`rescale`](Self::rescale). Returns the `(from, to)` move when
    /// one happened. Call on any cadence — the controller's hysteresis
    /// is tick-based, not wall-clock-based.
    pub fn autoscale_tick(
        &mut self,
        controller: &mut crate::autoscale::Controller,
    ) -> Result<Option<(usize, usize)>, RuntimeError> {
        use crate::autoscale::{LoadSignals, ScaleDecision};
        let stats = self.stats();
        let mut signals =
            LoadSignals::from_stats(self.num_shards(), self.config.ingest.queue_capacity, &stats);
        signals.parks_total = self.shared.metrics.parks.get();
        match controller.observe(&signals) {
            ScaleDecision::Hold => Ok(None),
            ScaleDecision::Scale { to } => {
                let from = self.num_shards();
                self.shared
                    .metrics
                    .journal
                    .push(PipelineEvent::AutoscaleDecision {
                        from,
                        to,
                        position: self.next_position(),
                    });
                self.rescale(to)?;
                Ok(Some((from, to)))
            }
        }
    }

    /// Rebuild a runtime from a [`Snapshot`] with `shards` worker
    /// threads — the shard count (and hence the partition layout) may
    /// differ from the captured runtime's — and resume stamping at the
    /// snapshot's epoch position. Query ids are preserved, retired ids
    /// included, so pre-snapshot [`QueryId`]s stay valid. Subscriptions
    /// are not part of a snapshot; consumers re-subscribe on the
    /// restored runtime.
    pub fn restore(snapshot: &Snapshot, shards: usize) -> Result<Runtime, SnapshotError> {
        Self::restore_with(snapshot, shards)
    }

    /// [`restore`](Self::restore) from a full [`RuntimeConfig`] (or a
    /// bare shard count): the restored runtime takes every
    /// construction-time knob — ingest queues, journal capacity, e2e
    /// sampling — from the config, not from the captured runtime.
    pub fn restore_with(
        snapshot: &Snapshot,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, SnapshotError> {
        use cer_common::wire::WireError;
        let restore_at = Instant::now();
        let mut rt = Runtime::build(config.into());
        {
            let mut seq = rt.shared.seq.lock().expect("sequencer poisoned");
            seq.next_pos = snapshot.position;
        }
        for record in &snapshot.queries {
            if record.id as usize != rt.queries.len() {
                return Err(SnapshotError::Wire(WireError::Corrupt(
                    "snapshot query ids not dense",
                )));
            }
            let Some(spec) = &record.spec else {
                // A retired id: keep the numbering (and the name for
                // `query_name`) without hosting anything.
                rt.push_retired_placeholder(record.name.clone());
                continue;
            };
            // Decode the captured shard replicas (the wire half), then
            // merge them through the same in-memory path `rescale`
            // uses; `register_with_state` re-replicates the result
            // across the new layout's home shards.
            let replicas = record
                .blobs
                .iter()
                .map(|blob| StreamingEvaluator::from_snapshot_bytes(spec.pcea.clone(), blob))
                .collect::<Result<Vec<_>, _>>()?;
            let mut eval = merge_replicas(replicas).unwrap_or_else(|| {
                let mut fresh =
                    StreamingEvaluator::with_window(spec.pcea.clone(), spec.window.clone());
                fresh.set_gc_every(spec.gc_every);
                fresh
            });
            // A blob whose captured state runs past the snapshot's
            // epoch position is corrupt (e.g. a bit-rotted header):
            // reject it here — decoding must never panic the process.
            if eval.next_position() > snapshot.position {
                return Err(SnapshotError::Wire(WireError::Corrupt(
                    "captured state ahead of the snapshot position",
                )));
            }
            eval.set_resume_position(snapshot.position);
            let id = rt
                .register_with_state(spec.clone(), Some(eval))
                .map_err(|_| SnapshotError::BadDefinition(spec.name.clone()))?;
            debug_assert_eq!(id.0, record.id);
        }
        rt.shared
            .metrics
            .restore
            .record_duration(restore_at.elapsed());
        rt.shared.metrics.journal.push(PipelineEvent::Restored {
            position: snapshot.position,
            shards: rt.num_shards(),
        });
        Ok(rt)
    }

    /// Record a retired query id at restore time: the id stays
    /// unregistered but keeps its slot (and name) so later ids line up.
    fn push_retired_placeholder(&mut self, name: String) {
        let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
        let router = Arc::make_mut(&mut seq.router);
        router.metas.push(QueryMeta {
            alive: false,
            partition: Partition::ByQuery,
            listens: None,
            homes: Vec::new(),
        });
        drop(seq);
        self.queries.push(QueryInfo {
            name,
            alive: false,
            spec: None,
        });
    }

    /// Open a *durable* runtime on `dir`: recover whatever state the
    /// directory holds (latest checkpoint chain plus the WAL suffix —
    /// exactly [`recover`](Self::recover)), or initialize a fresh
    /// durable runtime when the directory is empty. Either way the
    /// returned runtime logs every replayable operation to the WAL and
    /// accepts [`checkpoint`](Self::checkpoint) calls.
    ///
    /// This is the serving-layer entry point: "point me at a data
    /// directory" works on first boot and after a crash alike.
    pub fn open_durable(
        dir: impl Into<PathBuf>,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, DurabilityError> {
        Self::recover_inner(dir.into(), config.into(), true)
    }

    /// Strict crash recovery: rebuild the runtime `dir` was persisting
    /// — restore the latest manifest checkpoint, replay the WAL suffix
    /// (`wal_seq >=` the checkpoint's high-water) in stamp order, and
    /// resume stamping and logging where the crashed process stopped.
    /// A torn tail (a frame cut mid-write by the crash) is truncated
    /// away and journaled ([`PipelineEvent::WalTornTail`]); everything
    /// the crashed process *acknowledged as synced* is reproduced
    /// exactly — see the [module docs](crate::durability) for the
    /// replay-order soundness argument.
    ///
    /// Fails with [`DurabilityError::ManifestMissing`] when the
    /// directory holds neither a checkpoint manifest nor any WAL
    /// segment — recovering "nothing" is almost always an operator
    /// error (wrong path), so it is not silently turned into a fresh
    /// runtime; [`open_durable`](Self::open_durable) is the
    /// recover-or-init entry point.
    pub fn recover(
        dir: impl Into<PathBuf>,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, DurabilityError> {
        Self::recover_inner(dir.into(), config.into(), false)
    }

    fn recover_inner(
        dir: PathBuf,
        config: RuntimeConfig,
        allow_fresh: bool,
    ) -> Result<Runtime, DurabilityError> {
        let config = config.validated();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", e))?;
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&wal_dir).map_err(|e| io_err("create wal dir", e))?;
        let dcfg = config.durability;
        let (store, snapshot) = CheckpointStore::open(&dir, dcfg.full_checkpoint_every)?;
        let wal_present = std::fs::read_dir(&wal_dir)
            .map_err(|e| io_err("read wal dir", e))?
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            });
        if !allow_fresh && snapshot.is_none() && !wal_present {
            return Err(DurabilityError::ManifestMissing);
        }
        // Restore the checkpointed base state (or start empty), then
        // rewind the wal_seq counter to the checkpoint's high-water so
        // the replayed operations re-derive the crashed process's
        // numbering — each replayable op consumes exactly one seq, so
        // matching numbers mean matching order.
        let from_seq = snapshot.as_ref().map(|s| s.wal_seq).unwrap_or(0);
        let mut rt = match &snapshot {
            Some(snap) => Runtime::restore_with(snap, config)?,
            None => Runtime::build(config),
        };
        {
            let mut seq = rt.shared.seq.lock().expect("sequencer poisoned");
            seq.next_wal_seq = from_seq;
        }
        // Replay the suffix. The WAL is *not* attached yet, so replay
        // feeds the normal ingest/register paths without re-logging
        // anything. Every applied record is cross-checked against what
        // the runtime actually did (stamped position, issued id): a
        // divergence means the log and the checkpoint disagree, and
        // continuing would silently fork history.
        let replay = {
            let mut expected = from_seq;
            let mut apply = |rec: WalRecord| -> Result<(), DurabilityError> {
                if rec.seq != expected {
                    return Err(DurabilityError::RecoverMismatch(format!(
                        "wal replay expected record {expected}, found {}",
                        rec.seq
                    )));
                }
                expected += 1;
                match rec.op {
                    WalOp::Batch { start, tuples } => {
                        let receipt = rt
                            .shared
                            .ingest(&tuples, BackpressurePolicy::Block)
                            .map_err(|_| {
                                DurabilityError::RecoverMismatch(
                                    "runtime closed while replaying a batch".into(),
                                )
                            })?;
                        if receipt.positions.start != start {
                            return Err(DurabilityError::RecoverMismatch(format!(
                                "replayed batch stamped at {}, logged at {start}",
                                receipt.positions.start
                            )));
                        }
                    }
                    WalOp::Register { position, id, spec } => {
                        check_position("register", rt.next_position(), position)?;
                        let got = rt.register(spec).map_err(|e| {
                            DurabilityError::RecoverMismatch(format!(
                                "replayed register failed: {e}"
                            ))
                        })?;
                        if got.0 != id {
                            return Err(DurabilityError::RecoverMismatch(format!(
                                "replayed register yielded id {}, logged id {id}",
                                got.0
                            )));
                        }
                    }
                    WalOp::Deregister { position, id } => {
                        check_position("deregister", rt.next_position(), position)?;
                        rt.deregister(QueryId(id)).map_err(|e| {
                            DurabilityError::RecoverMismatch(format!(
                                "replayed deregister failed: {e}"
                            ))
                        })?;
                    }
                    WalOp::Replace { position, id, spec } => {
                        check_position("replace", rt.next_position(), position)?;
                        rt.replace(QueryId(id), spec).map_err(|e| {
                            DurabilityError::RecoverMismatch(format!(
                                "replayed replace failed: {e}"
                            ))
                        })?;
                    }
                }
                Ok(())
            };
            replay_dir(&wal_dir, from_seq, &mut apply)?
        };
        // Fence so replayed tuples are fully evaluated before the
        // runtime is handed out, then assert the counter lines up with
        // the log's end — one seq per record, no gaps on either side.
        rt.drain();
        {
            let seq = rt.shared.seq.lock().expect("sequencer poisoned");
            if seq.next_wal_seq != replay.next_seq {
                return Err(DurabilityError::RecoverMismatch(format!(
                    "replay consumed wal_seq up to {}, log ends at {}",
                    seq.next_wal_seq, replay.next_seq
                )));
            }
        }
        for torn in &replay.torn {
            rt.shared.metrics.journal.push(PipelineEvent::WalTornTail {
                position: rt.next_position(),
                bytes_dropped: torn.bytes_dropped,
            });
        }
        rt.shared.metrics.journal.push(PipelineEvent::Recovered {
            position: rt.next_position(),
            replayed: replay.replayed,
        });
        // Only now attach the WAL: stamping continues at the recovered
        // position, logging at the recovered seq, into a fresh active
        // segment (`resume` truncate-creates it, so repeated recoveries
        // reach a steady state instead of accreting stubs).
        let wal = Arc::new(Wal::new(wal_dir, &dcfg));
        wal.resume(replay.next_seq, replay.segments)?;
        let _ = rt.shared.wal.set(Arc::clone(&wal));
        rt.durability = Some(DurabilityHandle { dir, wal, store });
        Ok(rt)
    }

    /// Cut an incremental checkpoint to the data directory: one
    /// epoch-consistent [`snapshot`](Self::snapshot) (producers keep
    /// flowing), streamed to disk as a delta against the previous
    /// checkpoint's blobs, committed by the manifest rename — then WAL
    /// segments entirely below the cut are deleted. On return, recovery
    /// cost has been reset: a crash now replays only operations logged
    /// after this call.
    ///
    /// Errors leave the *previous* checkpoint intact — the manifest is
    /// replaced atomically, so a torn checkpoint write is swept as an
    /// orphan on the next open, never half-restored.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, DurabilityError> {
        if self.durability.is_none() {
            return Err(DurabilityError::NotDurable);
        }
        let snap = self.snapshot()?;
        let stats = {
            let handle = self.durability.as_mut().expect("durable checked above");
            let mut stats = handle.store.write(&snap)?;
            stats.wal_segments_removed = handle.wal.truncate_below(snap.wal_seq);
            stats
        };
        self.shared
            .metrics
            .ckpt_delta_ratio_bp
            .store(stats.delta_ratio_bp, std::sync::atomic::Ordering::Relaxed);
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::CheckpointWritten {
                position: stats.position,
                epoch: stats.epoch,
                bytes: stats.bytes,
                full: stats.full,
            });
        Ok(stats)
    }

    /// A point-in-time [`DurabilityStatus`] — `None` for an in-memory
    /// runtime. `healthy: false` means a WAL append failed and logging
    /// stopped (the runtime keeps serving from memory — fail-open);
    /// operators should alert on it, since a crash from that state
    /// loses everything after the failure point.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        let h = self.durability.as_ref()?;
        let last = h.store.last_entry();
        Some(DurabilityStatus {
            dir: h.dir.clone(),
            healthy: h.wal.healthy(),
            wal_segments: h.wal.segments(),
            wal_bytes: h.wal.bytes_total(),
            wal_records: h.wal.records_total(),
            last_checkpoint_epoch: last.map(|e| e.epoch),
            last_checkpoint_position: last.map(|e| e.position),
            chain_len: h.store.chain_len(),
        })
    }

    /// Hot-swap: replace query `id`'s automaton with a recompiled one,
    /// handing over the accumulated window state atomically in the
    /// stream order — tuples stamped before the call complete against
    /// the old automaton, tuples after against the new one, and partial
    /// matches survive the swap. The query keeps its id; its name and
    /// definition become the new spec's.
    ///
    /// The hand-off is accepted when the new automaton shares the old
    /// one's *skeleton* ([`Pcea::skeleton_compatible`]: same states,
    /// finals, and per-transition sources/targets/labels — predicates
    /// may differ, which is the recompile case) and the window keeps
    /// its kind. Within a kind any resize is allowed, with one
    /// documented widening caveat: runs already expired under the old
    /// bound are gone, so a widened window converges to its full span
    /// over one old window's worth of stream. The partition mode must
    /// be unchanged (re-sharding live state is a restore-level
    /// operation: [`Runtime::snapshot`] + [`Runtime::restore`]).
    ///
    /// On any incompatibility the swap is rejected and the old query
    /// keeps running untouched.
    pub fn replace(&mut self, id: QueryId, new: QuerySpec) -> Result<(), RuntimeError> {
        let info = self
            .queries
            .get(id.0 as usize)
            .filter(|info| info.alive)
            .ok_or(RuntimeError::UnknownQuery { id })?;
        let old = info.spec.as_ref().expect("live query retains its spec");
        if new.partition != old.partition {
            return Err(RuntimeError::ReplaceIncompatible {
                query: new.name,
                reason: "partition mode must match (snapshot/restore re-shards)",
            });
        }
        if let Partition::ByKey { pos } = new.partition {
            if !new.pcea.supports_key_partition(pos) {
                return Err(RuntimeError::KeyPartitionUnsound {
                    query: new.name,
                    pos,
                });
            }
        }
        if !old.pcea.skeleton_compatible(&new.pcea) {
            return Err(RuntimeError::ReplaceIncompatible {
                query: new.name,
                reason: "automaton skeleton differs (states, finals or transition shape)",
            });
        }
        let window_ok = matches!(
            (&old.window, &new.window),
            (WindowPolicy::Count(_), WindowPolicy::Count(_))
        ) || matches!(
            (&old.window, &new.window),
            (
                WindowPolicy::Time { ts_pos: a, .. },
                WindowPolicy::Time { ts_pos: b, .. },
            ) if a == b
        );
        if !window_ok {
            return Err(RuntimeError::ReplaceIncompatible {
                query: new.name,
                reason: "window kind (or timestamp attribute) differs",
            });
        }
        // Same durable pre-probe as `register`: reject before reserving
        // so a refused swap consumes no `wal_seq`.
        if self.shared.wal.get().is_some() {
            use cer_common::wire::{Wire, WireWriter};
            let mut probe = WireWriter::new();
            if new.encode(&mut probe).is_err() {
                return Err(RuntimeError::UnserializableQuery { query: new.name });
            }
        }
        let listens = new.pcea.relations();
        let (reply, replies) = channel();
        let (block, position, homes, wal_seq) = {
            // Same epoch rule as register/deregister: the routing-table
            // swap and the zero-width Replace block share one lock
            // acquisition, so the routing epoch agrees with the swap
            // point in position order.
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            let router = Arc::make_mut(&mut seq.router);
            let meta = &mut router.metas[id.0 as usize];
            meta.listens = listens.clone();
            let homes = meta.homes.clone();
            router.rebuild();
            let (block, position) = seq.reserve(0);
            let wal_seq = seq.take_wal_seq();
            for &shard in &homes {
                seq.queues[shard]
                    .stage_control(
                        block,
                        ShardMsg::Replace {
                            id,
                            pcea: new.pcea.clone(),
                            window: new.window.clone(),
                            gc_every: new.gc_every,
                            listens: listens.clone(),
                            reply: reply.clone(),
                        },
                    )
                    .expect("runtime not shut down");
            }
            (block, position, homes, wal_seq)
        };
        self.shared.finish_block(block);
        if self.shared.wal.get().is_some() {
            let payload = encode_replace(wal_seq, position, id.0, &new);
            self.shared.wal_append(wal_seq, position, payload);
        }
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::QueryReplaced {
                query: id,
                position,
            });
        drop(reply);
        for _ in 0..homes.len() {
            let swapped = replies
                .recv()
                .expect("a runtime shard worker died during replace");
            assert!(swapped, "home shard did not host the replaced query");
        }
        let info = &mut self.queries[id.0 as usize];
        info.name = new.name.clone();
        info.spec = Some(new);
        Ok(())
    }

    /// Push one tuple; returns its completed matches across all queries.
    pub fn push(&mut self, t: &Tuple) -> Vec<MatchEvent> {
        self.push_batch(std::slice::from_ref(t))
    }

    /// Push a batch of tuples in stream order; returns every match the
    /// batch completed, sorted by `(position, query, valuation)`.
    ///
    /// This is the synchronous convenience path over the asynchronous
    /// pipeline: it ingests the batch (always blocking — the sync path
    /// never drops), fences all shards, and collects the delivered
    /// events. Matches from tuples concurrently ingested through an
    /// [`IngestHandle`] are folded into the same return value.
    pub fn push_batch(&mut self, batch: &[Tuple]) -> Vec<MatchEvent> {
        // An unbounded collector subscription opened before ingestion
        // sees every event the batch completes.
        let sub = self.shared.subs.subscribe(
            SubscriptionFilter::All,
            usize::MAX,
            BackpressurePolicy::Block,
        );
        self.shared
            .ingest(batch, BackpressurePolicy::Block)
            .expect("runtime not shut down");
        self.shared.barrier().expect("a runtime shard worker died");
        let mut out = sub.drain();
        out.sort();
        out
    }

    /// A cloneable producer handle onto the asynchronous ingestion
    /// pipeline. See [`crate::ingest`].
    pub fn ingest_handle(&self) -> IngestHandle {
        IngestHandle {
            shared: self.shared.clone(),
        }
    }

    /// Subscribe to match events with default channel knobs (capacity
    /// 65 536, [`BackpressurePolicy::Block`]). Use
    /// [`subscribe_with`](Self::subscribe_with) to pick the capacity and
    /// what happens when the consumer lags.
    pub fn subscribe(&self, filter: SubscriptionFilter) -> Subscription {
        self.subscribe_with(filter, 1 << 16, BackpressurePolicy::Block)
    }

    /// Subscribe with an explicit channel capacity (in events) and
    /// backpressure policy. `DropNewest` guarantees a stalled consumer
    /// never stalls ingestion; `Block` is lossless but a consumer that
    /// stops draining will eventually park the shard workers (and, once
    /// the ingest queues fill, blocking producers).
    ///
    /// `capacity` is clamped to at least 1: a zero-capacity `Block`
    /// channel could never admit an event, deadlocking the shard worker
    /// that publishes into it.
    pub fn subscribe_with(
        &self,
        filter: SubscriptionFilter,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Subscription {
        self.shared.subs.subscribe(filter, capacity.max(1), policy)
    }

    /// Fence the pipeline: returns once every tuple ingested before the
    /// call has been evaluated and its match events delivered to the
    /// subscriber channels.
    ///
    /// With `Block` subscribers, make sure someone is draining them (or
    /// their capacity covers the in-flight events) — a full blocking
    /// channel parks the shard workers the fence is waiting on.
    pub fn drain(&self) {
        self.shared.barrier().expect("a runtime shard worker died");
    }

    /// Drain the pipeline, collect final statistics, and stop the shard
    /// workers. Outstanding [`IngestHandle`]s observe
    /// [`IngestError::RuntimeClosed`](crate::ingest::IngestError::RuntimeClosed)
    /// afterwards.
    ///
    /// The initial drain is a lossless fence, so it shares `drain`'s
    /// caveat about full `Block` subscribers. Dropping the runtime
    /// *without* `shutdown` never hangs, even with a live, undrained
    /// `Block` subscription: `Drop` closes the subscriber channels along
    /// with the queues, waking any parked worker (in-flight, undelivered
    /// events are discarded — already-queued ones stay readable).
    pub fn shutdown(self) -> RuntimeStats {
        self.drain();
        // `Drop` then closes the queues and joins the workers.
        self.stats()
    }

    /// Aggregate counters: per-query engine stats summed across shards,
    /// plus per-shard ingest queue occupancy.
    pub fn stats(&self) -> RuntimeStats {
        let queues = self.shared.queues();
        let (reply, results) = channel();
        for q in queues.iter() {
            q.push_control(ShardMsg::Stats {
                reply: reply.clone(),
            })
            .expect("runtime not shut down");
        }
        drop(reply);
        let mut agg: FxHashMap<QueryId, EngineStats> = FxHashMap::default();
        let mut breakdown: FxHashMap<QueryId, Vec<(usize, EngineStats)>> = FxHashMap::default();
        let mut shared_total = SharedEvalStats::default();
        let mut received = 0usize;
        for (shard, per_shard, sh) in results {
            received += 1;
            for (id, st) in per_shard {
                sum_stats(agg.entry(id).or_default(), &st);
                breakdown.entry(id).or_default().push((shard, st));
            }
            shared_total.distinct_predicates += sh.distinct_predicates;
            shared_total.referenced_predicates += sh.referenced_predicates;
            shared_total.prefilter_evals_done += sh.prefilter_evals_done;
            shared_total.prefilter_evals_saved += sh.prefilter_evals_saved;
            shared_total.groups += sh.groups;
            shared_total.group_sizes.extend(sh.group_sizes);
        }
        assert!(
            received == queues.len(),
            "a runtime shard worker died before reporting stats ({received}/{} replies)",
            queues.len()
        );
        let mut per_query: Vec<(QueryId, EngineStats)> = agg.into_iter().collect();
        per_query.sort_by_key(|(id, _)| *id);
        let mut per_query_shards: Vec<(QueryId, Vec<(usize, EngineStats)>)> =
            breakdown.into_iter().collect();
        per_query_shards.sort_by_key(|(id, _)| *id);
        for (_, shards) in &mut per_query_shards {
            shards.sort_by_key(|(shard, _)| *shard);
        }
        RuntimeStats {
            per_query,
            per_query_shards,
            shard_queues: queues.iter().map(|q| q.stats()).collect(),
            snapshots: self.snap_counters.clone(),
            rescales: self.rescale_counters.clone(),
            shared: shared_total,
        }
    }

    /// Drain the pipeline event journal: every [`PipelineEvent`] pushed
    /// since the last drain (or since start), each wrapped with its
    /// dense journal sequence number. The journal is bounded
    /// ([`crate::metrics::EVENT_JOURNAL_CAPACITY`]); overwritten events
    /// are counted by [`events_overwritten`](Self::events_overwritten),
    /// and the sequence numbers of the survivors make any gap visible.
    pub fn events(&self) -> Vec<JournalEntry<PipelineEvent>> {
        self.shared.metrics.journal.drain()
    }

    /// How many journal events were overwritten before being drained
    /// (monotone since start; 0 means [`events`](Self::events) saw
    /// everything).
    pub fn events_overwritten(&self) -> u64 {
        self.shared.metrics.journal.overwritten()
    }

    /// A point-in-time [`MetricsSnapshot`] of every pipeline metric:
    /// stage latency histograms, queue occupancy gauges, per-query
    /// engine counters and journal counters. The snapshot is plain data
    /// — merge it, encode it over the wire
    /// ([`cer_common::wire::Wire`]), or render it with
    /// [`metrics_text`](Self::metrics_text).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let m = &self.shared.metrics;
        let mut out = MetricsSnapshot::new();

        // Pipeline-wide histograms.
        out.push_histogram(
            "cer_seq_reserve_nanos",
            "Sequencer position-block reservation latency",
            &[],
            m.seq_reserve.snapshot(),
        );
        out.push_histogram(
            "cer_producer_park_nanos",
            "Producer park duration under Block backpressure",
            &[],
            m.producer_park.snapshot(),
        );
        out.push_histogram(
            "cer_e2e_nanos",
            "End-to-end ingest-to-delivery latency (sampled)",
            &[],
            m.e2e.snapshot(),
        );
        out.push_histogram(
            "cer_delivery_nanos",
            "Latency of one publish call (one chunk of matches) across subscriber channels",
            &[],
            self.shared.subs.delivery.snapshot(),
        );
        out.push_histogram(
            "cer_snapshot_serialize_nanos",
            "Per-shard serialize stall of snapshot fences",
            &[],
            m.snapshot_serialize.snapshot(),
        );
        out.push_histogram(
            "cer_restore_nanos",
            "Wall time of the restore that built this runtime",
            &[],
            m.restore.snapshot(),
        );
        out.push_histogram(
            "cer_rescale_nanos",
            "Fence-to-resume duration of live rescales",
            &[],
            m.rescale.snapshot(),
        );
        out.push_histogram(
            "cer_wal_fsync_nanos",
            "WAL fsync latency per group-commit sync",
            &[],
            m.wal_fsync.snapshot(),
        );

        // Per-shard stage histograms (same metric name, shard label —
        // grouped per name so the text exposition stays contiguous).
        let stages: Vec<Arc<ShardStageMetrics>> =
            m.shards.lock().expect("metrics poisoned").clone();
        for (i, sm) in stages.iter().enumerate() {
            out.push_histogram(
                "cer_shard_eval_nanos",
                "Whole drained-batch evaluation time per shard",
                &[("shard", i.to_string())],
                sm.eval.snapshot(),
            );
        }
        for (i, sm) in stages.iter().enumerate() {
            out.push_histogram(
                "cer_shared_prefilter_nanos",
                "Shared-prefilter phase of batch evaluation per shard",
                &[("shard", i.to_string())],
                sm.prefilter.snapshot(),
            );
        }
        for (i, sm) in stages.iter().enumerate() {
            out.push_histogram(
                "cer_eval_tail_nanos",
                "Fire/index/enumerate tail of batch evaluation per shard",
                &[("shard", i.to_string())],
                sm.eval_tail.snapshot(),
            );
        }
        let live_queues = self.shared.queues();
        for (i, q) in live_queues.iter().enumerate() {
            out.push_histogram(
                "cer_reorder_hold_nanos",
                "Time staged blocks waited in the reorder buffer",
                &[("shard", i.to_string())],
                q.reorder_hold.snapshot(),
            );
        }
        for (i, q) in live_queues.iter().enumerate() {
            out.push_histogram(
                "cer_queue_wait_nanos",
                "Time released batches waited in the shard FIFO",
                &[("shard", i.to_string())],
                q.queue_wait.snapshot(),
            );
        }

        // Pipeline-wide counters.
        out.push_counter(
            "cer_producer_parks_total",
            "Producer park episodes under Block backpressure",
            &[],
            m.parks.get(),
        );
        out.push_counter(
            "cer_tuples_dropped_total",
            "Tuples shed under DropNewest across shard queues",
            &[],
            m.drops.get(),
        );
        out.push_counter(
            "cer_events_pushed_total",
            "Pipeline events pushed to the journal",
            &[],
            m.journal.pushed(),
        );
        out.push_counter(
            "cer_events_overwritten_total",
            "Journal events overwritten before being drained",
            &[],
            m.journal.overwritten(),
        );
        out.push_counter(
            "cer_snapshots_taken_total",
            "Snapshots successfully taken",
            &[],
            stats.snapshots.snapshots_taken,
        );
        out.push_counter(
            "cer_rescales_total",
            "Live rescales successfully completed",
            &[],
            stats.rescales.rescales,
        );
        out.push_counter(
            "cer_wal_bytes_total",
            "Bytes appended to the write-ahead log",
            &[],
            m.wal_bytes.get(),
        );
        out.push_counter(
            "cer_wal_records_total",
            "Records appended to the write-ahead log",
            &[],
            m.wal_records.get(),
        );
        out.push_gauge(
            "cer_checkpoint_delta_ratio_bp",
            "Last checkpoint's bytes as basis points of its full-state size",
            &[],
            m.ckpt_delta_ratio_bp
                .load(std::sync::atomic::Ordering::Relaxed),
        );

        // Per-shard queue gauges and counters (from QueueStats; the
        // cumulative ones are monotone since start by contract).
        let queues = &stats.shard_queues;
        for (i, q) in queues.iter().enumerate() {
            out.push_gauge(
                "cer_queue_depth",
                "Tuples currently staged or queued per shard",
                &[("shard", i.to_string())],
                q.depth as u64,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_gauge(
                "cer_queue_high_water",
                "Maximum queue depth ever observed per shard",
                &[("shard", i.to_string())],
                q.high_water as u64,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_counter(
                "cer_queue_dropped_total",
                "Tuples dropped by DropNewest per shard",
                &[("shard", i.to_string())],
                q.dropped,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_counter(
                "cer_drained_batches_total",
                "Coalesced batches handed to the shard worker",
                &[("shard", i.to_string())],
                q.drained_batches,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_counter(
                "cer_drained_tuples_total",
                "Tuples handed to the shard worker",
                &[("shard", i.to_string())],
                q.drained_tuples,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_gauge(
                "cer_max_drain_batch",
                "Largest coalesced batch handed to the worker",
                &[("shard", i.to_string())],
                q.max_drain_batch as u64,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_gauge(
                "cer_reorder_pending",
                "Blocks currently held in the reorder buffer",
                &[("shard", i.to_string())],
                q.reorder_pending as u64,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_gauge(
                "cer_reorder_high_water",
                "Maximum reorder-buffer occupancy ever observed",
                &[("shard", i.to_string())],
                q.reorder_high_water as u64,
            );
        }
        for (i, q) in queues.iter().enumerate() {
            out.push_counter(
                "cer_reorder_released_total",
                "Entries released from the reorder buffer in block order",
                &[("shard", i.to_string())],
                q.reorder_released,
            );
        }

        // Per-query engine counters (summed across shards).
        let qlabel = |id: QueryId| {
            vec![
                ("query", id.0.to_string()),
                ("name", self.query_name(id).unwrap_or_default().to_string()),
            ]
        };
        for (id, st) in &stats.per_query {
            out.push_counter(
                "cer_query_positions_total",
                "Stream positions evaluated per query",
                &qlabel(*id),
                st.positions,
            );
        }
        for (id, st) in &stats.per_query {
            out.push_gauge(
                "cer_query_arena_nodes",
                "Live enumeration-arena nodes per query",
                &qlabel(*id),
                st.arena_nodes as u64,
            );
        }
        for (id, st) in &stats.per_query {
            out.push_counter(
                "cer_query_extends_total",
                "Extend operations per query",
                &qlabel(*id),
                st.extends,
            );
        }
        for (id, st) in &stats.per_query {
            out.push_counter(
                "cer_query_unions_total",
                "Union operations per query",
                &qlabel(*id),
                st.unions,
            );
        }
        for (id, st) in &stats.per_query {
            out.push_counter(
                "cer_query_ts_regressions_total",
                "Out-of-order timestamps clamped by time-window clocks",
                &qlabel(*id),
                st.ts_regressions,
            );
        }
        out
    }

    /// The Prometheus text exposition of
    /// [`metrics_snapshot`](Self::metrics_snapshot) — serve it from a
    /// `/metrics` endpoint as-is. The output always passes
    /// [`cer_obs::validate_prometheus_text`].
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus_text()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Push whatever the fsync policy was still holding to disk —
        // a clean shutdown loses nothing regardless of `EveryN` /
        // `IntervalMs` batching. (Crashes are the WAL's job.)
        if let Some(wal) = self.shared.wal.get() {
            let _ = wal.flush_sync();
        }
        self.shared.close();
        for worker in &mut self.workers {
            if let Some(handle) = worker.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Merge one query's shard replicas, in ascending shard order, into a
/// single evaluator: arenas concatenate with remapped node ids, the
/// `H` join indexes union, window clocks interleave, counters sum
/// ([`StreamingEvaluator::absorb_replica`]; [`crate::checkpoint`] for
/// the soundness argument). The shared in-memory half of the merge —
/// restore feeds it decoded blobs, rescale the moved evaluators
/// directly. `None` when the query had no replica.
fn merge_replicas(
    replicas: impl IntoIterator<Item = StreamingEvaluator>,
) -> Option<StreamingEvaluator> {
    let mut merged: Option<StreamingEvaluator> = None;
    for eval in replicas {
        match &mut merged {
            None => merged = Some(eval),
            Some(m) => m.absorb_replica(eval),
        }
    }
    merged
}

/// Replay cross-check: a logged control operation must re-apply at the
/// stream position it was originally stamped at, or the log and the
/// restored base state disagree.
fn check_position(op: &str, at: u64, logged: u64) -> Result<(), DurabilityError> {
    if at != logged {
        return Err(DurabilityError::RecoverMismatch(format!(
            "replayed {op} at position {at}, logged at {logged}"
        )));
    }
    Ok(())
}

fn sum_stats(acc: &mut EngineStats, st: &EngineStats) {
    acc.positions += st.positions;
    acc.arena_nodes += st.arena_nodes;
    acc.index_entries += st.index_entries;
    acc.extends += st.extends;
    acc.unions += st.unions;
    acc.collections += st.collections;
    acc.ts_regressions += st.ts_regressions;
}

/// Adopt an evaluator into a worker's hosting structures: intern its
/// predicate slots, append it to `queries`, and place it in a skeleton
/// group. The shared tail of the `Register` and `Install` (rescale
/// hand-off) paths; the caller rebuilds the local routing tables after
/// the last adoption.
#[allow(clippy::too_many_arguments)]
fn host_query(
    queries: &mut Vec<LocalQuery>,
    groups: &mut Vec<QueryGroup>,
    cache: &mut PredicateCache,
    id: QueryId,
    eval: StreamingEvaluator,
    partition: Partition,
    listens: Option<Vec<RelationId>>,
) {
    let slots = eval
        .pcea()
        .transitions()
        .iter()
        .map(|tr| cache.intern(&tr.unary))
        .collect();
    let k = queries.len();
    let last_regressions = eval.stats().ts_regressions;
    queries.push(LocalQuery {
        id,
        eval,
        partition,
        listens,
        slots,
        group: 0,
        last_regressions,
    });
    let gi = find_or_create_group(groups, queries, k);
    queries[k].group = gi;
    groups[gi].members.push(k);
}

/// How many completed matches a shard worker stages before handing them
/// to the subscription registry in one publish call. Large enough that
/// the registry and queue locks are paid once per hundreds of matches,
/// small enough that a tuple completing millions of matches streams to
/// its consumers while it is still being enumerated and that the staged
/// valuations never amount to more than a few tens of KiB.
const MATCH_CHUNK: usize = 256;

/// Publish the staged matches (one chunk) and record, for the e2e
/// samples that fall inside it, the latency since their batch was
/// reserved at `ingest_at`.
fn deliver(shared: &IngestShared, chunk: &mut Vec<MatchEvent>, ingest_at: std::time::Instant) {
    let n = chunk.len() as u64;
    if n == 0 {
        return;
    }
    shared.subs.publish(chunk);
    let sampled = shared.metrics.e2e_samples(n);
    if sampled > 0 {
        let nanos = u64::try_from(ingest_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.e2e.record_n(nanos, sampled);
    }
}

/// One worker thread: hosts its queries' evaluators and a local routing
/// table, drains its bounded ingest queue in FIFO order — coalescing
/// consecutive tuple batches up to [`IngestConfig::max_batch`](crate::ingest::IngestConfig::max_batch) per
/// wakeup — evaluates each query's subsequence of the coalesced slice
/// through the vectorized batch path, and publishes completed matches
/// to the subscription registry in chunks of at most [`MATCH_CHUNK`],
/// the last one when the drained batch ends.
///
/// The queue, stage histograms and shard geometry are spawn-time
/// parameters: they name the worker's *epoch*, and a rescale replaces
/// the whole worker set rather than mutating a running worker.
fn shard_loop(
    shared: Arc<IngestShared>,
    queue: Arc<ShardQueue>,
    stage: Arc<ShardStageMetrics>,
    shard_idx: usize,
    n_shards: usize,
) {
    let max_batch = shared.config.max_batch.max(1);
    let hasher = FxBuildHasher::default();
    let mut queries: Vec<LocalQuery> = Vec::new();
    // Skeleton-compatible query groups: selection (and, through the
    // predicate cache, unary prefiltering) is computed once per group
    // per batch, not once per query.
    let mut groups: Vec<QueryGroup> = Vec::new();
    // Shared unary-predicate cache: each distinct predicate is
    // evaluated at most once per tuple per drained batch, no matter how
    // many hosted queries reference it.
    let mut cache = PredicateCache::default();
    // Reusable per-batch scratch: which queries have a subscriber.
    let mut listening: Vec<bool> = Vec::new();
    // Completed matches on their way to the subscriber channels; see
    // `MATCH_CHUNK`.
    let mut chunk: Vec<MatchEvent> = Vec::new();
    // Local routing: relation → indices into `groups`.
    let mut routes: FxHashMap<RelationId, Vec<usize>> = FxHashMap::default();
    let mut wildcards: Vec<usize> = Vec::new();
    let rebuild_local = |groups: &[QueryGroup],
                         routes: &mut FxHashMap<RelationId, Vec<usize>>,
                         wildcards: &mut Vec<usize>| {
        routes.clear();
        wildcards.clear();
        for (gi, g) in groups.iter().enumerate() {
            match &g.listens {
                Some(rels) => {
                    for &rel in rels {
                        routes.entry(rel).or_default().push(gi);
                    }
                }
                None => wildcards.push(gi),
            }
        }
    };
    while let Some(msg) = queue.pop_batch(max_batch) {
        match msg {
            ShardMsg::Tuples(batch) => {
                let ingest_at = batch.ingest_at;
                let tuples = batch.tuples;
                let eval_at = std::time::Instant::now();
                // Enumerating outputs only pays off if someone is
                // listening for the query's events; gate once per batch
                // rather than per tuple (subscriber churn mid-batch is
                // already racy by construction).
                shared
                    .subs
                    .listening(queries.iter().map(|q| q.id), &mut listening);
                cache.begin_batch(&tuples);
                // Select each *group's* subsequence of the slice (every
                // member shares listens and partition, so the group
                // selection is exactly each member's), then evaluate
                // query-major so the batch path sees the whole run at
                // once. Per-query event order (by position) is
                // unchanged; only the interleaving *across* queries
                // differs from tuple-major, and that was never ordered.
                for g in &mut groups {
                    g.sel.clear();
                }
                for (j, (_, t)) in tuples.iter().enumerate() {
                    let listed = routes
                        .get(&t.relation())
                        .map(Vec::as_slice)
                        .unwrap_or_default();
                    for &gi in listed.iter().chain(&wildcards) {
                        if let Partition::ByKey { pos } = groups[gi].partition {
                            // The batch was routed here for *some*
                            // query; this group only owns its key slice.
                            if key_shard(&hasher, t, pos, n_shards) != shard_idx {
                                continue;
                            }
                        }
                        groups[gi].sel.push(j as u32);
                    }
                }
                let last_pos = tuples.last().map(|(i, _)| *i).unwrap_or(0);
                for g in &groups {
                    if g.sel.is_empty() {
                        continue;
                    }
                    for &k in &g.members {
                        let q = &mut queries[k];
                        let id = q.id;
                        q.eval.push_slice_selected_shared(
                            &tuples,
                            &g.sel,
                            &q.slots,
                            &mut cache,
                            listening[k],
                            Some((&stage.prefilter, &stage.eval_tail)),
                            |position, v| {
                                chunk.push(MatchEvent {
                                    position,
                                    query: id,
                                    valuation: v.clone(),
                                });
                                if chunk.len() >= MATCH_CHUNK {
                                    deliver(&shared, &mut chunk, ingest_at);
                                }
                            },
                        );
                        // Journal new time-window clamps as a per-batch
                        // delta — one cheap counter read per query per
                        // batch, an event only when the stream actually
                        // violated the timestamp contract.
                        let regs = q.eval.stats().ts_regressions;
                        if regs > q.last_regressions {
                            let count = regs - q.last_regressions;
                            q.last_regressions = regs;
                            shared.metrics.journal.push(PipelineEvent::TsRegressions {
                                shard: shard_idx,
                                query: id,
                                position: last_pos,
                                count,
                            });
                        }
                    }
                }
                // Nothing stays staged across messages: whatever fence
                // follows this batch in the queue (barrier, snapshot,
                // rescale) finds its matches already in the channels.
                deliver(&shared, &mut chunk, ingest_at);
                stage.eval.record_duration(eval_at.elapsed());
            }
            ShardMsg::Register {
                id,
                pcea,
                window,
                partition,
                gc_every,
                listens,
                state,
            } => {
                let eval = match state {
                    // Checkpoint restore: adopt the captured state.
                    Some(restored) => *restored,
                    None => {
                        let mut fresh = StreamingEvaluator::with_window(pcea, window);
                        fresh.set_gc_every(gc_every);
                        fresh
                    }
                };
                host_query(
                    &mut queries,
                    &mut groups,
                    &mut cache,
                    id,
                    eval,
                    partition,
                    listens,
                );
                rebuild_local(&groups, &mut routes, &mut wildcards);
            }
            ShardMsg::Extract { detach, reply } => {
                // Copy-on-fence: capture every hosted query at this
                // exact point of the released position order. Shards
                // hit their fences concurrently; producers keep staging
                // later blocks meanwhile. No bytes here — a snapshot
                // encodes the capture on the control plane, a rescale
                // never encodes at all.
                let started = std::time::Instant::now();
                if detach {
                    // Rescale hand-off: move the evaluators out and
                    // exit — this worker's queue is retired, and the
                    // reply doubles as proof the entire pre-fence
                    // backlog was evaluated.
                    let extracted = queries
                        .drain(..)
                        .map(|q| (q.id, Box::new(q.eval)))
                        .collect();
                    let _ = reply.send(ShardState {
                        shard: shard_idx,
                        queries: extracted,
                        capture_nanos: started.elapsed().as_nanos() as u64,
                    });
                    return;
                }
                let cloned = queries
                    .iter()
                    .map(|q| (q.id, Box::new(q.eval.clone())))
                    .collect();
                let _ = reply.send(ShardState {
                    shard: shard_idx,
                    queries: cloned,
                    capture_nanos: started.elapsed().as_nanos() as u64,
                });
            }
            ShardMsg::Install {
                queries: moved,
                reply,
            } => {
                // Rescale hand-off, receiving side: adopt the merged
                // evaluators before the first post-fence tuple (the
                // reorder stage held every later block back until this
                // message's block completed).
                for iq in moved {
                    host_query(
                        &mut queries,
                        &mut groups,
                        &mut cache,
                        iq.id,
                        *iq.state,
                        iq.partition,
                        iq.listens,
                    );
                }
                rebuild_local(&groups, &mut routes, &mut wildcards);
                let _ = reply.send(());
            }
            ShardMsg::Replace {
                id,
                pcea,
                window,
                gc_every,
                listens,
                reply,
            } => {
                let swapped = match queries.iter().position(|q| q.id == id) {
                    Some(k) => {
                        let old = queries.remove(k);
                        for &s in &old.slots {
                            cache.release(s);
                        }
                        let eval = old
                            .eval
                            .replace_automaton(pcea, window, gc_every)
                            .expect("replace compatibility validated by the control plane");
                        let slots = eval
                            .pcea()
                            .transitions()
                            .iter()
                            .map(|tr| cache.intern(&tr.unary))
                            .collect();
                        let last_regressions = eval.stats().ts_regressions;
                        queries.insert(
                            k,
                            LocalQuery {
                                id,
                                eval,
                                partition: old.partition,
                                listens,
                                slots,
                                group: 0,
                                last_regressions,
                            },
                        );
                        // The replacement may land in a different
                        // skeleton group than its predecessor, and
                        // `remove`/`insert` shifted member indices.
                        let gi = find_or_create_group(&mut groups, &queries, k);
                        queries[k].group = gi;
                        rebuild_groups(&mut groups, &mut queries);
                        rebuild_local(&groups, &mut routes, &mut wildcards);
                        true
                    }
                    None => false,
                };
                let _ = reply.send(swapped);
            }
            ShardMsg::Deregister { id, reply } => {
                let stats = match queries.iter().position(|q| q.id == id) {
                    Some(k) => {
                        let q = queries.remove(k);
                        for &s in &q.slots {
                            cache.release(s);
                        }
                        rebuild_groups(&mut groups, &mut queries);
                        rebuild_local(&groups, &mut routes, &mut wildcards);
                        Some(q.eval.stats())
                    }
                    None => None,
                };
                let _ = reply.send(stats);
            }
            ShardMsg::Stats { reply } => {
                let per_query = queries.iter().map(|q| (q.id, q.eval.stats())).collect();
                let shared_stats = SharedEvalStats {
                    distinct_predicates: cache.distinct_predicates(),
                    referenced_predicates: cache.referenced_predicates(),
                    prefilter_evals_done: cache.evals_done(),
                    prefilter_evals_saved: cache.evals_saved(),
                    groups: groups.len(),
                    group_sizes: groups.iter().map(|g| g.members.len()).collect(),
                };
                let _ = reply.send((shard_idx, per_query, shared_stats));
            }
            ShardMsg::Barrier { reply } => {
                let _ = reply.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::pcea::paper_p0;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;

    fn p0_runtime(shards: usize) -> (Runtime, QueryId, QueryId) {
        let (_, r, s, t) = Schema::sigma0();
        let mut rt = Runtime::new(shards);
        let a = rt
            .register(QuerySpec::new(
                "pinned",
                paper_p0(r, s, t),
                WindowPolicy::Count(100),
            ))
            .unwrap();
        let b = rt
            .register(
                QuerySpec::new("keyed", paper_p0(r, s, t), WindowPolicy::Count(100))
                    .with_partition(Partition::ByKey { pos: 0 }),
            )
            .unwrap();
        (rt, a, b)
    }

    #[test]
    fn two_queries_match_single_evaluators() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        for shards in [1usize, 2, 4] {
            let (mut rt, a, b) = p0_runtime(shards);
            let events = rt.push_batch(&stream);
            let mut single = StreamingEvaluator::new(paper_p0(r, s, t), 100);
            let mut want = Vec::new();
            for (n, tu) in stream.iter().enumerate() {
                for v in single.push_collect(tu) {
                    want.push((n as u64, v));
                }
            }
            want.sort();
            for q in [a, b] {
                let mut got: Vec<(u64, Valuation)> = events
                    .iter()
                    .filter(|e| e.query == q)
                    .map(|e| (e.position, e.valuation.clone()))
                    .collect();
                got.sort();
                assert_eq!(got, want, "query {q:?} with {shards} shards");
            }
        }
    }

    #[test]
    fn unsound_key_partition_rejected() {
        // A chain whose join key rotates positions cannot be partitioned
        // on a single attribute.
        use cer_automata::ccea::Ccea;
        use cer_automata::pcea::StateId;
        use cer_automata::predicate::{EqPredicate, UnaryPredicate};
        use cer_automata::valuation::{Label, LabelSet};
        let mut schema = Schema::new();
        let b0 = schema.add_relation("B0", 2).unwrap();
        let b1 = schema.add_relation("B1", 2).unwrap();
        let mut ccea = Ccea::new(2, 2);
        ccea.set_initial(
            StateId(0),
            UnaryPredicate::Relation(b0),
            LabelSet::singleton(Label(0)),
        );
        ccea.add_transition(
            StateId(0),
            UnaryPredicate::Relation(b1),
            EqPredicate::on_positions(b0, [1usize], b1, [0usize]),
            LabelSet::singleton(Label(1)),
            StateId(1),
        );
        ccea.mark_final(StateId(1));
        let pcea = ccea.to_pcea();
        assert!(!pcea.supports_key_partition(0));
        let mut rt = Runtime::new(2);
        let err = rt
            .register(
                QuerySpec::new("chain", pcea, WindowPolicy::Count(10))
                    .with_partition(Partition::ByKey { pos: 0 }),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::KeyPartitionUnsound { pos: 0, .. }
        ));
    }

    #[test]
    fn misaligned_join_keys_rejected_for_key_partition() {
        // Both sides *contain* attribute 0 in their keys, but at
        // swapped indices: the join a[0]==b[1] && a[1]==b[0] does not
        // imply equal partition values, so ByKey{0} must be rejected.
        use cer_automata::predicate::{EqPredicate, UnaryPredicate};
        use cer_automata::valuation::{Label, LabelSet};
        let mut schema = Schema::new();
        let a = schema.add_relation("A", 2).unwrap();
        let b = schema.add_relation("B", 2).unwrap();
        let dot = LabelSet::singleton(Label(0));
        let mut builder = cer_automata::pcea::PceaBuilder::new(1);
        let q0 = builder.add_state();
        let q1 = builder.add_state();
        builder.add_initial_transition(UnaryPredicate::Relation(a), dot, q0);
        builder.add_transition(
            vec![(
                q0,
                EqPredicate::on_positions(a, [0usize, 1], b, [1usize, 0]),
            )],
            UnaryPredicate::Relation(b),
            dot,
            q1,
        );
        builder.mark_final(q1);
        let pcea = builder.build();
        assert!(!pcea.supports_key_partition(0));
        assert!(!pcea.supports_key_partition(1));
        let mut rt = Runtime::new(2);
        let err = rt
            .register(
                QuerySpec::new("swapped", pcea, WindowPolicy::Count(10))
                    .with_partition(Partition::ByKey { pos: 0 }),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::KeyPartitionUnsound { .. }));
    }

    #[test]
    fn keyed_join_free_query_keeps_attribute_less_tuples() {
        // A join-free automaton passes key-partition validation
        // vacuously; tuples lacking the partition attribute must still
        // be routed (to the deterministic home shard), not dropped.
        use cer_automata::predicate::UnaryPredicate;
        use cer_automata::valuation::{Label, LabelSet};
        let mut schema = Schema::new();
        let unary = schema.add_relation("U", 1).unwrap();
        let mut builder = cer_automata::pcea::PceaBuilder::new(1);
        let q0 = builder.add_state();
        builder.add_initial_transition(
            UnaryPredicate::Relation(unary),
            LabelSet::singleton(Label(0)),
            q0,
        );
        builder.mark_final(q0);
        let pcea = builder.build();
        assert!(pcea.supports_key_partition(3), "vacuously sound");
        for shards in [1usize, 2, 4] {
            let mut rt = Runtime::new(shards);
            let id = rt
                .register(
                    QuerySpec::new("unary", pcea.clone(), WindowPolicy::Count(10))
                        // Partition attribute beyond the tuples' arity.
                        .with_partition(Partition::ByKey { pos: 3 }),
                )
                .unwrap();
            let stream: Vec<Tuple> = (0..5)
                .map(|k| cer_common::tuple::tup(unary, [k as i64]))
                .collect();
            let events = rt.push_batch(&stream);
            assert_eq!(events.len(), 5, "shards={shards}");
            assert!(events.iter().all(|e| e.query == id));
        }
    }

    #[test]
    fn batching_is_transparent() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let (mut whole_rt, ..) = p0_runtime(3);
        let whole = whole_rt.push_batch(&stream);
        let (mut split_rt, ..) = p0_runtime(3);
        let mut split = Vec::new();
        for chunk in stream.chunks(3) {
            split.extend(split_rt.push_batch(chunk));
        }
        assert_eq!(whole, split);
        assert_eq!(whole_rt.next_position(), stream.len() as u64);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let (mut rt, a, b) = p0_runtime(4);
        rt.push_batch(&stream);
        let stats = rt.stats();
        assert_eq!(stats.per_query.len(), 2);
        assert_eq!(
            (rt.query_name(a), rt.query_name(b)),
            (Some("pinned"), Some("keyed"))
        );
        let get = |q: QueryId| stats.per_query.iter().find(|(id, _)| *id == q).unwrap().1;
        // Both queries saw all 8 σ0 tuples (all are relevant relations).
        assert_eq!(get(a).positions, 8);
        assert_eq!(get(b).positions, 8);
        assert!(get(a).extends > 0 && get(b).extends > 0);
        // Queue occupancy: drained back to zero, but the high-water
        // mark recorded the batch passing through.
        assert_eq!(stats.shard_queues.len(), 4);
        assert!(stats.shard_queues.iter().all(|q| q.depth == 0));
        assert!(stats.shard_queues.iter().any(|q| q.high_water > 0));
        assert!(stats.shard_queues.iter().all(|q| q.dropped == 0));
    }

    #[test]
    fn foreign_relations_are_not_routed() {
        let (mut schema, r, s, t) = Schema::sigma0();
        let noise = schema.add_relation("NOISE", 1).unwrap();
        let mut rt = Runtime::new(2);
        let q = rt
            .register(QuerySpec::new(
                "p0",
                paper_p0(r, s, t),
                WindowPolicy::Count(100),
            ))
            .unwrap();
        let mut stream = Vec::new();
        for tu in sigma0_prefix(r, s, t) {
            stream.push(cer_common::tuple::tup(noise, [1i64]));
            stream.push(tu);
        }
        let events = rt.push_batch(&stream);
        // Matches still complete (noise consumed global positions: the
        // completing R sits at interleaved position 11).
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.query == q && e.position == 11));
        // The shard evaluator never saw the noise tuples.
        let stats = rt.stats();
        assert_eq!(stats.per_query[0].1.positions, 8);
    }

    #[test]
    fn deregister_returns_final_stats_and_stops_routing() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        for shards in [1usize, 3] {
            let (mut rt, a, b) = p0_runtime(shards);
            let first = rt.push_batch(&stream);
            assert_eq!(first.iter().filter(|e| e.query == b).count(), 2);
            let final_stats = rt.deregister(b).unwrap();
            assert_eq!(final_stats.positions, 8, "shards={shards}");
            assert!(final_stats.extends > 0);
            assert_eq!(rt.num_queries(), 1);
            assert_eq!(rt.query_name(b), Some("keyed"), "name outlives the query");
            // Retired id: a second deregister is rejected.
            assert_eq!(rt.deregister(b), Err(RuntimeError::UnknownQuery { id: b }));
            // The survivor keeps matching (the wide window also joins
            // across batches); the dead query stays silent and no
            // longer accrues stats.
            let second = rt.push_batch(&stream);
            assert!(second.iter().all(|e| e.query == a));
            assert!(second.iter().filter(|e| e.query == a).count() >= 2);
            let stats = rt.stats();
            assert!(stats.per_query.iter().all(|(id, _)| *id != b));
        }
    }

    #[test]
    fn deregister_unknown_id_rejected() {
        let mut rt = Runtime::new(2);
        assert_eq!(
            rt.deregister(QueryId(7)),
            Err(RuntimeError::UnknownQuery { id: QueryId(7) })
        );
    }

    #[test]
    fn query_name_of_unknown_id_is_none_not_a_panic() {
        let (_, r, s, t) = Schema::sigma0();
        let mut rt = Runtime::new(2);
        // Probing a never-registered id must not crash.
        assert_eq!(rt.query_name(QueryId(3)), None);
        let q = rt
            .register(QuerySpec::new(
                "p0",
                paper_p0(r, s, t),
                WindowPolicy::Count(10),
            ))
            .unwrap();
        assert_eq!(rt.query_name(q), Some("p0"));
        assert_eq!(rt.query_name(QueryId(q.0 + 1)), None);
    }

    /// Where each registered query's pinned home landed, read from the
    /// router metadata.
    fn pinned_homes(rt: &Runtime) -> Vec<usize> {
        let seq = rt.shared.seq.lock().unwrap();
        seq.router
            .metas
            .iter()
            .filter(|m| m.alive && m.partition == Partition::ByQuery)
            .map(|m| m.homes[0])
            .collect()
    }

    #[test]
    fn pinned_placement_balances_after_churn() {
        let (_, r, s, t) = Schema::sigma0();
        let mut rt = Runtime::new(2);
        let spec = || QuerySpec::new("pinned", paper_p0(r, s, t), WindowPolicy::Count(10));
        // Fresh runtime: four pinned queries spread 2/2.
        let ids: Vec<QueryId> = (0..4).map(|_| rt.register(spec()).unwrap()).collect();
        assert_eq!(pinned_homes(&rt), vec![0, 1, 0, 1]);
        // Deregister both queries on shard 0. A cursor that ignores
        // deregistration would now alternate 0,1 and leave shard 1 with
        // twice the load; least-loaded placement refills shard 0 first.
        rt.deregister(ids[0]).unwrap();
        rt.deregister(ids[2]).unwrap();
        rt.register(spec()).unwrap();
        rt.register(spec()).unwrap();
        assert_eq!(pinned_homes(&rt), vec![1, 1, 0, 0]);
        // The next two split across the (now equal) shards again.
        rt.register(spec()).unwrap();
        rt.register(spec()).unwrap();
        let homes = pinned_homes(&rt);
        assert_eq!(homes.iter().filter(|&&s| s == 0).count(), 3);
        assert_eq!(homes.iter().filter(|&&s| s == 1).count(), 3);
        // The placement still evaluates correctly after the churn.
        let events = rt.push_batch(&sigma0_prefix(r, s, t));
        assert_eq!(events.len(), 2 * rt.num_queries());
    }
}
