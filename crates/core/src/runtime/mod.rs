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
//!   vectorized batch path over the shard's shared predicate cache
//!   (`StreamingEvaluator::push_slice_selected_shared`; see the module
//!   docs of [`crate::evaluator`] for why outputs are bit-identical to
//!   tuple-at-a-time). The synchronous [`Runtime::push_batch`] stays:
//!   it ingests, fences with [`Runtime::drain`], and collects the
//!   batch's matches. Producers that want the hot path decoupled from
//!   delivery clone an [`IngestHandle`] and consumers take a
//!   [`Subscription`] — see the [`ingest`](crate::ingest) module docs
//!   for the pipeline and its position-sequencing soundness argument.
//!
//! Outputs are *identical* to running one [`StreamingEvaluator`] per
//! query over the full stream: shard evaluators are fed tuples stamped
//! with their global stream positions (gappy, strictly increasing —
//! each shard sees only what was routed to it), so window semantics and
//! reported positions do not depend on the shard count. (For time
//! windows this relies on the documented non-decreasing-timestamp
//! contract.) And they stay identical whatever happens mid-stream:
//! every structural operation — register, deregister, replace,
//! snapshot, rescale, restore, a stats poll, `drain` — reaches the
//! workers through one primitive, the [control
//! fence](crate::ingest#the-control-fence), a zero-width cut in
//! position order that every shard observes at the same point of the
//! stream.
//!
//! The module is split along its seams: this file holds the public
//! types and the query registry ([`Runtime::register`] /
//! [`deregister`](Runtime::deregister) / [`replace`](Runtime::replace)
//! / [`stats`](Runtime::stats)); `worker` the shard worker and its
//! `ShardHost`; `state` everything that moves evaluator state
//! (snapshot, restore, rescale, checkpoint, recovery and the one
//! placement rule); `export` the metrics export.
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

mod export;
mod state;
mod worker;

pub(crate) use worker::ShardHost;

use crate::config::RuntimeConfig;
use crate::durability::{DurabilityHandle, WalOp};
use crate::error::Error;
use crate::evaluator::{EngineStats, StreamingEvaluator};
use crate::ingest::{
    BackpressurePolicy, IngestHandle, IngestShared, QueryMeta, QueueStats, Router, ShardWorkerDied,
    Subscription, SubscriptionFilter,
};
use crate::metrics::PipelineEvent;
use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_automata::valuation::Valuation;
use cer_common::wire::{Wire, WireError, WireWriter};
use cer_common::Tuple;
use cer_obs::JournalEntry;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

cer_common::wire_struct! {
    /// Identifier of a query registered in a [`Runtime`], dense from 0 in
    /// registration order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct QueryId(pub u32);
}

cer_common::wire_enum! {
    /// How a registered query is spread across the runtime's shards.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Partition {
        /// The query lives on exactly one shard (the one hosting the fewest
        /// live pinned queries at registration time, so register/deregister
        /// churn keeps placement balanced). Always sound; multi-query
        /// workloads scale because different queries land on different
        /// shards.
        0 => ByQuery,
        /// The query is replicated on every shard and each tuple is routed
        /// by the hash of its value at tuple position `pos`. Sound exactly
        /// when every join of the automaton projects that attribute on both
        /// sides ([`Pcea::supports_key_partition`]); lets a *single* hot
        /// query scale across cores.
        1 => ByKey {
            /// Tuple position holding the partition attribute.
            pos: usize,
        },
    }
}

cer_common::wire_struct! {
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

    /// Key-partitioned placements must be sound for the automaton.
    fn check_partition(&self) -> Result<(), Error> {
        match self.partition {
            Partition::ByKey { pos } if !self.pcea.supports_key_partition(pos) => {
                Err(Error::KeyPartitionUnsound {
                    query: self.name.clone(),
                    pos,
                })
            }
            _ => Ok(()),
        }
    }

    /// An evaluator for this query with no accumulated state.
    fn fresh_evaluator(&self) -> StreamingEvaluator {
        let mut fresh = StreamingEvaluator::with_window(self.pcea.clone(), self.window.clone());
        fresh.set_gc_every(self.gc_every);
        fresh
    }
}

/// Can `spec` be written to the wire — a WAL record, a snapshot? Closure
/// predicates cannot.
fn encodable(spec: &QuerySpec) -> Result<(), WireError> {
    spec.encode(&mut WireWriter::new())
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
    /// calls performed vs avoided), skeleton grouping (group count
    /// and sizes, concatenated across shards) and families (distinct
    /// evaluators hosted).
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
    /// Distinct evaluators hosted (summed across shards): one per
    /// family — queries of one skeleton group with equal join
    /// predicates, window and collection cadence, registered before the
    /// family saw a tuple, share one, up to 64 distinct sets of unary
    /// predicates to an evaluator. The gap to the summed `group_sizes`
    /// is the evaluation work sharing saved.
    pub evaluators: usize,
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
    workers: Vec<JoinHandle<()>>,
    queries: Vec<QueryInfo>,
    snap_counters: SnapshotCounters,
    rescale_counters: RescaleCounters,
    config: RuntimeConfig,
    /// `Some` when this runtime was opened on a data directory
    /// ([`Runtime::open_durable`] / [`Runtime::recover`]): the attached
    /// WAL plus the checkpoint store. In-memory runtimes carry `None`
    /// and every durability entry point reports [`Error::NotDurable`].
    durability: Option<DurabilityHandle>,
}

/// `push_batch`, `drain` and `stats` keep their infallible signatures:
/// a dead worker is a panic there, with this one message.
fn alive<T>(fenced: Result<T, ShardWorkerDied>) -> T {
    fenced.expect("a runtime shard worker died")
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
        let stages = shared.metrics.shards.lock().expect("metrics poisoned");
        let workers = worker::spawn_workers(&shared, &shared.queues(), &stages);
        drop(stages);
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

    /// The spec of a live query, or [`Error::UnknownQuery`].
    fn live_spec(&self, id: QueryId) -> Result<&QuerySpec, Error> {
        let info = self.queries.get(id.0 as usize).filter(|info| info.alive);
        let info = info.ok_or(Error::UnknownQuery { id })?;
        Ok(info.spec.as_ref().expect("live query retains its spec"))
    }

    /// A durable runtime must be able to log the definition. Probed
    /// *before* anything is fenced, so a rejection consumes no
    /// `wal_seq` and leaves no gap in the log.
    fn check_loggable(&self, spec: &QuerySpec) -> Result<(), Error> {
        if self.shared.wal.get().is_some() && encodable(spec).is_err() {
            let query = spec.name.clone();
            return Err(Error::UnserializableQuery { query });
        }
        Ok(())
    }

    /// Register a query; tuples pushed from now on are evaluated against
    /// it. Key-partitioned placements are validated for soundness;
    /// pinned ([`Partition::ByQuery`]) queries are placed on the shard
    /// currently hosting the fewest live pinned queries, so
    /// register/deregister churn cannot pile them up on few shards.
    ///
    /// One [control fence](crate::ingest#the-control-fence): the router
    /// gains the query under the same lock acquisition that reserves
    /// the block, and the home shards adopt a fresh evaluator at that
    /// point of the stream.
    pub fn register(&mut self, spec: QuerySpec) -> Result<QueryId, Error> {
        spec.check_partition()?;
        self.check_loggable(&spec)?;
        let id = QueryId(self.queries.len() as u32);
        let partition = spec.partition;
        let listens = spec.pcea.relations();
        let (mut fence, (wal_seq, queues, meta)) = self.shared.fence(1, |seq| {
            let mut pinned = seq.router.pinned_per_shard(seq.queues.len());
            let meta = QueryMeta {
                alive: true,
                partition,
                listens,
                homes: Router::pick_homes(partition, &mut pinned),
            };
            let router = Arc::make_mut(&mut seq.router);
            router.metas.push(meta.clone());
            router.rebuild();
            (seq.take_wal_seq(), Arc::clone(&seq.queues), meta)
        });
        let position = fence.position;
        let fresh = [(id, meta, spec.fresh_evaluator())];
        let adopted = state::install(&mut fence, &queues, fresh, true);
        let logged = Cow::Borrowed(&spec);
        let op = WalOp::Register {
            position,
            id,
            spec: logged,
        };
        self.shared.wal_append(wal_seq, position, op);
        // As ever, a registration does not wait for its homes to get to
        // the fence: the next `drain` (or any other fence) proves they
        // adopted the query.
        adopted?;
        let journal = &self.shared.metrics.journal;
        journal.push(PipelineEvent::QueryRegistered {
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
    /// deregistration is one [control
    /// fence](crate::ingest#the-control-fence), ordered with ingestion
    /// like registration. The id is retired, not reused.
    pub fn deregister(&mut self, id: QueryId) -> Result<EngineStats, Error> {
        self.live_spec(id)?;
        let (mut fence, (wal_seq, homes)) = self.shared.fence(1, |seq| {
            let homes = seq.home_queues(id);
            let router = Arc::make_mut(&mut seq.router);
            router.metas[id.0 as usize].alive = false;
            router.rebuild();
            (seq.take_wal_seq(), homes)
        });
        let position = fence.position;
        let evict = move |host: &mut ShardHost| host.evict(id);
        let evicted = fence.stage(homes.into_iter().map(|queue| (queue, evict)));
        let op = WalOp::Deregister { position, id };
        self.shared.wal_append(wal_seq, position, op);
        // Stamped and logged, the op is committed: the registry follows
        // the router and the WAL even when a dead worker fails the call.
        let info = &mut self.queries[id.0 as usize];
        info.alive = false;
        info.spec = None;
        let finals = evicted?.collect()?;
        let journal = &self.shared.metrics.journal;
        journal.push(PipelineEvent::QueryDeregistered {
            query: id,
            position,
        });
        let mut total = EngineStats::default();
        for st in finals.iter().flatten() {
            sum_stats(&mut total, st);
        }
        Ok(total)
    }

    /// Hot-swap: replace query `id`'s automaton with a recompiled one,
    /// handing over the accumulated window state atomically in the
    /// stream order — tuples stamped before the call complete against
    /// the old automaton, tuples after against the new one, and partial
    /// matches survive the swap (one [control
    /// fence](crate::ingest#the-control-fence)). The query keeps its id;
    /// its name and definition become the new spec's.
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
    pub fn replace(&mut self, id: QueryId, new: QuerySpec) -> Result<(), Error> {
        let old = self.live_spec(id)?;
        let incompatible = |reason| {
            let query = new.name.clone();
            Err(Error::ReplaceIncompatible { query, reason })
        };
        if new.partition != old.partition {
            return incompatible("partition mode must match (snapshot/restore re-shards)");
        }
        new.check_partition()?;
        if !old.pcea.skeleton_compatible(&new.pcea) {
            return incompatible("automaton skeleton differs (states, finals or transition shape)");
        }
        let window_ok = match (&old.window, &new.window) {
            (WindowPolicy::Count(_), WindowPolicy::Count(_)) => true,
            (WindowPolicy::Time { ts_pos: a, .. }, WindowPolicy::Time { ts_pos: b, .. }) => a == b,
            _ => false,
        };
        if !window_ok {
            return incompatible("window kind (or timestamp attribute) differs");
        }
        self.check_loggable(&new)?;
        let listens = new.pcea.relations();
        let (mut fence, (wal_seq, homes)) = self.shared.fence(1, |seq| {
            let homes = seq.home_queues(id);
            let router = Arc::make_mut(&mut seq.router);
            router.metas[id.0 as usize].listens = listens.clone();
            router.rebuild();
            (seq.take_wal_seq(), homes)
        });
        let position = fence.position;
        let (pcea, window, gc_every) = (new.pcea.clone(), new.window.clone(), new.gc_every);
        let swap = move |host: &mut ShardHost| host.swap(id, pcea, window, gc_every, listens);
        let swapped = fence.stage(homes.into_iter().map(|queue| (queue, swap.clone())));
        let logged = Cow::Borrowed(&new);
        let op = WalOp::Replace {
            position,
            id,
            spec: logged,
        };
        self.shared.wal_append(wal_seq, position, op);
        // Committed, as in `deregister`: the registry takes the new spec
        // before a dead worker's failure propagates.
        let info = &mut self.queries[id.0 as usize];
        info.name = new.name.clone();
        info.spec = Some(new);
        let swapped = swapped?.collect()?;
        assert!(
            swapped.iter().all(|&hosted| hosted),
            "home shard did not host the replaced query"
        );
        let journal = &self.shared.metrics.journal;
        journal.push(PipelineEvent::QueryReplaced {
            query: id,
            position,
        });
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
        self.drain();
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
    /// call — reserved or staged — has been evaluated and its match
    /// events delivered to the subscriber channels. The fence that
    /// edits nothing and asks the workers for nothing.
    ///
    /// With `Block` subscribers, make sure someone is draining them (or
    /// their capacity covers the in-flight events) — a full blocking
    /// channel parks the shard workers the fence is waiting on.
    pub fn drain(&self) {
        alive(self.shared.fence_all(|_| ()));
    }

    /// Drain the pipeline, collect final statistics, and stop the shard
    /// workers. Outstanding [`IngestHandle`]s observe
    /// [`Error::RuntimeClosed`] afterwards.
    ///
    /// A durable runtime whose stream moved past its last checkpoint
    /// writes a *shutdown checkpoint* after the drain, so that
    /// [`open_durable`](Self::open_durable) after a clean stop restores
    /// it and replays no WAL record. It is skipped when the WAL failed
    /// (recovery then behaves as after a crash), and a checkpoint that
    /// fails is journaled as [`PipelineEvent::CheckpointFailed`] while
    /// `shutdown` still returns. Dropping the runtime instead is a
    /// crash as far as the disk is concerned: nothing is checkpointed.
    ///
    /// The initial drain is a lossless fence, so it shares `drain`'s
    /// caveat about full `Block` subscribers. Dropping the runtime
    /// *without* `shutdown` never hangs, even with a live, undrained
    /// `Block` subscription: `Drop` closes the subscriber channels along
    /// with the queues, waking any parked worker (in-flight, undelivered
    /// events are discarded — already-queued ones stay readable).
    pub fn shutdown(mut self) -> RuntimeStats {
        self.drain();
        self.shutdown_checkpoint();
        // `Drop` then closes the queues and joins the workers.
        self.stats()
    }

    /// Aggregate counters: per-query engine stats summed across shards,
    /// plus per-shard ingest queue occupancy. A stats poll is a [control
    /// fence](crate::ingest#the-control-fence) like any other (it logs
    /// and edits nothing), so the counters of all shards are read at one
    /// point of the stream; it waits on exactly what a
    /// [`drain`](Self::drain) would.
    pub fn stats(&self) -> RuntimeStats {
        let (_, _, replies) = alive(self.shared.fence_all(|host| host.stats()));
        let mut per_query_shards: BTreeMap<QueryId, Vec<(usize, EngineStats)>> = BTreeMap::new();
        let mut shared = SharedEvalStats::default();
        // Replies arrive in shard order, so every breakdown is ascending.
        for (shard, (per_query, sh)) in replies.into_iter().enumerate() {
            for (id, st) in per_query {
                per_query_shards.entry(id).or_default().push((shard, st));
            }
            shared.distinct_predicates += sh.distinct_predicates;
            shared.referenced_predicates += sh.referenced_predicates;
            shared.prefilter_evals_done += sh.prefilter_evals_done;
            shared.prefilter_evals_saved += sh.prefilter_evals_saved;
            shared.groups += sh.groups;
            shared.group_sizes.extend(sh.group_sizes);
            shared.evaluators += sh.evaluators;
        }
        let total = |(id, shards): (&QueryId, &Vec<(usize, EngineStats)>)| {
            let mut total = EngineStats::default();
            for (_, st) in shards {
                sum_stats(&mut total, st);
            }
            (*id, total)
        };
        RuntimeStats {
            per_query: per_query_shards.iter().map(total).collect(),
            per_query_shards: per_query_shards.into_iter().collect(),
            shard_queues: self.shared.queues().iter().map(|q| q.stats()).collect(),
            snapshots: self.snap_counters.clone(),
            rescales: self.rescale_counters.clone(),
            shared,
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
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use cer_automata::pcea::paper_p0;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;

    fn p0_runtime(config: impl Into<RuntimeConfig>) -> (Runtime, QueryId, QueryId) {
        let (_, r, s, t) = Schema::sigma0();
        let mut rt = Runtime::new(config);
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

    /// A shard worker that panics mid-batch fails its callers instead
    /// of parking them: its queue is closed and the fence's staged job
    /// dropped, so `push_batch` ends in `alive()` and a producer gets
    /// `RuntimeClosed`. The call runs on a helper thread behind a
    /// timeout, so a regression fails here instead of hanging the suite.
    #[test]
    fn a_dead_shard_worker_fails_its_callers_instead_of_parking_them() {
        use cer_automata::pcea::PceaBuilder;
        use cer_automata::predicate::UnaryPredicate;
        use cer_automata::valuation::{Label, LabelSet};
        use cer_common::tuple::tup;
        use cer_common::Value;
        let (_, _, _, t) = Schema::sigma0();
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        let boom = |t: &Tuple| {
            assert_ne!(t.get(0), &Value::Int(13), "the predicate panics on 13");
            true
        };
        b.add_initial_transition(
            UnaryPredicate::Custom(std::sync::Arc::new(boom)),
            LabelSet::singleton(Label(0)),
            q,
        );
        b.mark_final(q);
        let mut rt = Runtime::new(1);
        rt.register(QuerySpec::new("boom", b.build(), WindowPolicy::Count(10)))
            .unwrap();
        let stream: Vec<Tuple> = (10..16).map(|k| tup(t, [k])).collect();
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let call = std::panic::AssertUnwindSafe(|| rt.push_batch(&stream));
            let message = std::panic::catch_unwind(call).map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            let produced = rt.ingest_handle().push_batch(&stream).map(drop);
            done.send((message.map(drop), produced)).unwrap();
        });
        let (message, produced) = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("push_batch parked on a dead shard worker");
        helper.join().unwrap();
        let message = message.expect_err("push_batch returned past a dead shard worker");
        assert!(message.contains("a runtime shard worker died"), "{message}");
        assert_eq!(produced, Err(Error::RuntimeClosed));
    }

    /// A `deregister` or `replace` that a dead shard worker fails is
    /// still committed — stamped, routed and logged — so the registry
    /// records it too: a second `deregister` of the same id answers
    /// `unknown_query` instead of fencing again, and a failed `replace`
    /// leaves the new name. The worker dies as above, and the calls run
    /// on a helper thread behind a timeout.
    #[test]
    fn a_dead_shard_worker_leaves_the_registry_in_step_with_the_log() {
        use cer_automata::pcea::{Pcea, PceaBuilder};
        use cer_automata::predicate::UnaryPredicate;
        use cer_automata::valuation::{Label, LabelSet};
        use cer_common::tuple::tup;
        use cer_common::Value;
        let (_, _, _, t) = Schema::sigma0();
        let boom = || -> Pcea {
            let mut b = PceaBuilder::new(1);
            let q = b.add_state();
            let boom = |t: &Tuple| {
                assert_ne!(t.get(0), &Value::Int(13), "the predicate panics on 13");
                true
            };
            b.add_initial_transition(
                UnaryPredicate::Custom(std::sync::Arc::new(boom)),
                LabelSet::singleton(Label(0)),
                q,
            );
            b.mark_final(q);
            b.build()
        };
        let mut rt = Runtime::new(1);
        let gone = rt
            .register(QuerySpec::new("gone", boom(), WindowPolicy::Count(10)))
            .unwrap();
        let swapped = rt
            .register(QuerySpec::new("old", boom(), WindowPolicy::Count(10)))
            .unwrap();
        let stream: Vec<Tuple> = (10..16).map(|k| tup(t, [k])).collect();
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let call = std::panic::AssertUnwindSafe(|| rt.push_batch(&stream));
            assert!(std::panic::catch_unwind(call).is_err(), "the worker died");
            let first = rt.deregister(gone).map(drop);
            let second = rt.deregister(gone).map(drop);
            let new = QuerySpec::new("new", boom(), WindowPolicy::Count(10));
            let replaced = rt.replace(swapped, new);
            let name = rt.query_name(swapped).map(str::to_owned);
            done.send((first, second, replaced, name)).unwrap();
        });
        let (first, second, replaced, name) = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a structural call parked on a dead shard worker");
        helper.join().unwrap();
        assert_eq!(first, Err(Error::ShardWorkerDied));
        assert_eq!(second, Err(Error::UnknownQuery { id: gone }));
        assert_eq!(replaced, Err(Error::ShardWorkerDied));
        assert_eq!(name.as_deref(), Some("new"));
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
        assert!(matches!(err, Error::KeyPartitionUnsound { pos: 0, .. }));
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
        assert!(matches!(err, Error::KeyPartitionUnsound { .. }));
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

    /// `stats()` is a position-ordered fence: issued while producers
    /// are mid-`push_batch` it returns (it waits on nothing a `drain()`
    /// would not), and it cannot report positions that were not yet
    /// stamped when it returned.
    #[test]
    fn stats_under_concurrent_producers_returns_a_consistent_cut() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (_, r, s, t) = Schema::sigma0();
        // Small queues: the producers park instead of building a backlog
        // every fence would have to wait out.
        let ingest = crate::ingest::IngestConfig {
            queue_capacity: 64,
            ..Default::default()
        };
        let (rt, a, b) = p0_runtime(RuntimeConfig::new(2).with_ingest(ingest));
        let stop = Arc::new(AtomicBool::new(false));
        let (started, running) = std::sync::mpsc::channel();
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let handle = rt.ingest_handle();
                let (stop, started) = (stop.clone(), started.clone());
                let batch = sigma0_prefix(r, s, t);
                std::thread::spawn(move || {
                    let mut pushed = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        handle.push_batch(&batch).unwrap();
                        pushed += batch.len() as u64;
                        if pushed == batch.len() as u64 {
                            started.send(()).unwrap();
                        }
                    }
                    pushed
                })
            })
            .collect();
        // Every producer is inside its push loop from here on.
        for _ in 0..producers.len() {
            running.recv().unwrap();
        }
        for _ in 0..20 {
            let stats = rt.stats();
            let stamped = rt.next_position();
            assert_eq!(stats.per_query.len(), 2);
            for (id, st) in &stats.per_query {
                assert!(
                    st.positions <= stamped,
                    "query {id:?} saw {} positions, only {stamped} stamped",
                    st.positions
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        let pushed: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        rt.drain();
        let stats = rt.stats();
        assert_eq!(rt.next_position(), pushed);
        for q in [a, b] {
            let seen = stats.per_query.iter().find(|(id, _)| *id == q).unwrap().1;
            assert_eq!(seen.positions, pushed, "every σ0 tuple is relevant");
        }
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
            assert_eq!(rt.deregister(b), Err(Error::UnknownQuery { id: b }));
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
            Err(Error::UnknownQuery { id: QueryId(7) })
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
