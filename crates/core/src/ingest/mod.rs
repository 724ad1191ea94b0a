//! Asynchronous ingestion: sequenced, backpressured, subscription-fed.
//!
//! The synchronous [`Runtime::push_batch`](crate::runtime::Runtime::push_batch)
//! couples three things that a production firehose wants decoupled:
//! stamping stream positions, evaluating tuples on the shards, and
//! delivering completed matches to consumers. This module splits them
//! into a pipeline:
//!
//! ```text
//!  producers (any thread, cloned IngestHandle)
//!      │  push / push_batch
//!      ▼
//!  ┌─────────────┐   short lock: reserve a contiguous position block
//!  │  sequencer  │   and snapshot the router epoch — nothing else
//!  └─────────────┘
//!      │ route, hash partition keys, clone and stage — all OUTSIDE
//!      │ the lock, concurrently across producers
//!      ▼
//!  ┌─────────────┐  ┌─────────────┐
//!  │ shard 0     │  │ shard k     │   per-shard reorder stage releases
//!  │ reorder ▸   │… │ reorder ▸   │   staged blocks to the FIFO in
//!  │ ShardQueue  │  │ ShardQueue  │   block order; workers drain,
//!  └─────────────┘  └─────────────┘   evaluate, publish MatchEvents
//!      │                 │
//!      ▼                 ▼
//!  ┌───────────────────────────────┐
//!  │     subscription registry     │  per-consumer bounded channels
//!  └───────────────────────────────┘
//!      │ Subscription (per QueryId or All)
//!      ▼
//!  consumers — may lag or drop without stalling ingestion
//! ```
//!
//! # The striped sequencer
//!
//! Each `push_batch` **reserves** a contiguous block of global positions
//! with one short lock acquisition (`SeqCore::reserve`): the block's
//! position range, a dense *block id*, and an [`Arc`] snapshot of the
//! current routing tables. Routing (`Router::shard_mask`), partition-key
//! hashing and tuple cloning then happen entirely **outside** the lock,
//! so concurrent producers stripe that per-tuple work across their own
//! threads instead of serializing it. Each shard's slice of the block is
//! staged into that shard's *reorder buffer*, and the producer finally
//! marks the block **complete** (a second short lock).
//!
//! Because blocks from concurrent producers are staged out of order, the
//! per-shard reorder stage holds staged blocks until the **low
//! watermark** — the smallest block id not yet complete — passes them,
//! then releases them to the worker FIFO in block-id order. Block ids are
//! assigned in the same order as position ranges, so released batches
//! reach each shard worker in strictly increasing position order. A
//! producer can never wedge the watermark: reservation and completion
//! bracket a single `push_batch` call, every exit path (including queue
//! closure and drops) completes the block, and producers park for
//! backpressure only *after* completing — so every reserved block
//! completes in bounded time and sparse or empty blocks (blocks that
//! routed nothing to a shard) simply have no entry to release.
//!
//! # The control fence
//!
//! Control traffic rides the same order. **Every** structural operation
//! on the runtime — register, deregister, replace, snapshot, rescale,
//! restore, a stats poll, `drain()` — reaches the shard workers through
//! one primitive, the `Fence`: under one sequencer lock acquisition it
//! runs the operation's *edit* (to the routing tables, the queue set,
//! the counters) and reserves a **zero-width** block (no positions);
//! then it stages one control job per target shard into the reorder
//! buffers under that block id, completes the block, and has exactly
//! one typed reply per target to collect (only a registration does not
//! wait for them).
//!
//! The ordering argument, stated once for all of them: the edit and
//! the reservation share one lock acquisition, so the routing epoch
//! agrees with block order — blocks reserved before the fence were
//! routed with the old tables (and into the old queue set) and are
//! released *ahead* of the fence's jobs; blocks reserved after it see
//! the edit and are released *behind* them. The watermark cannot pass a
//! reserved block that has not completed — *staged or not* — so a job
//! is delivered to its worker only after every earlier block has
//! completed and been released, and before any later one. Every target
//! therefore runs its job at exactly the same point of the stream: a
//! fence is a zero-width cut in position order, whatever the shard
//! count and whatever producers do meanwhile. (Jobs are staged after
//! the lock is dropped but before the block completes, which is all
//! the argument needs — producers stage their tuple slices the same
//! way.) A second block reserved in the same acquisition (`rescale`)
//! stays incomplete while state moves between worker sets: everything
//! stamped after the fence waits in the reorder buffers, not in parked
//! producers. A reply proves its shard processed everything ahead of
//! the fence, which is exactly what `drain()` needs.
//!
//! # Position-sequencing soundness
//!
//! Why are the asynchronously delivered outputs identical (as a
//! multiset) to the synchronous path? Three invariants carry the
//! argument:
//!
//! 1. **Global, gap-free stamping; per-shard order restored by the
//!    reorder stage.** Reservation assigns each ingested batch the next
//!    contiguous position range, so stamping is gap-free across
//!    producers. Staging is concurrent and out of order, but a shard
//!    worker only ever sees batches *released* by the reorder stage — in
//!    block-id order, which is position order. So every shard receives
//!    exactly the subsequence routed to it, in strictly increasing
//!    position order — the precondition of the evaluator's
//!    per-position core ([`crate::evaluator`]), which takes stamped
//!    positions with gaps but never behind one already pushed.
//! 2. **Window expiry is position-functional.** The
//!    [`WindowClock`](crate::window::WindowClock) computes expiry
//!    bounds from the stamped position (count windows) or from the
//!    tuple's own timestamp attribute (time windows) — never from
//!    arrival time, queue depth, or which shard observes the tuple. A
//!    shard evaluator that sees a *gappy* subsequence therefore
//!    computes the same bound the dense evaluator would, and neither
//!    queueing delay nor reorder-stage buffering can shift window
//!    semantics: a batch held in the reorder buffer is evaluated at its
//!    *stamped* positions whenever it is released. (Time windows
//!    additionally assume the documented non-decreasing-timestamp
//!    contract — see the hazard note in [`crate::window`] about what the
//!    clamp does to contract-violating streams, and the
//!    `ts_regressions` counter that detects them.)
//! 3. **Evaluation is deterministic per shard.** Each worker processes
//!    its queue serially, so the set of matches completed at position
//!    `i` is a function of the routed subsequence up to `i` alone.
//!
//! Hence, for every query, the multiset of
//! [`MatchEvent`](crate::runtime::MatchEvent)s published to
//! the registry equals the synchronous `push_batch` output on the same
//! stream — shard count, queue capacity, producer count, reorder-stage
//! buffering and consumer speed only reorder *delivery*, never
//! membership. The guarantee assumes no tuple was dropped:
//! [`BackpressurePolicy::Block`] never drops, while
//! [`BackpressurePolicy::DropNewest`] trades completeness for a
//! never-blocking producer and counts every tuple it sheds (per shard
//! queue, in [`QueueStats::dropped`]).
//!
//! Workers hand matches to the registry in chunks, and consumers may
//! take them in chunks ([`Subscription::recv_all`]). A chunk is a
//! contiguous run of one worker's enumeration order, and the last chunk
//! of a drained batch is published before the worker takes its next
//! message, so neither membership, nor a query's position order on a
//! channel, nor what a fence means depends on chunking; channel
//! `capacity` keeps counting queued events
//! (`tests/chunked_delivery.rs`).
//!
//! `tests/ingest_async.rs` checks the equivalence differentially across
//! shard counts, producer counts, partition modes and both window kinds
//! (reconstructing the stamped order from the producers' receipts and
//! replaying it synchronously), and checks that a deliberately stalled
//! subscriber never blocks producers under `DropNewest`.
//!
//! # Example
//!
//! ```
//! use cer_core::ingest::SubscriptionFilter;
//! use cer_core::runtime::{QuerySpec, Runtime};
//! use cer_core::window::WindowPolicy;
//! use cer_automata::pcea::paper_p0;
//! use cer_common::gen::sigma0_prefix;
//! use cer_common::Schema;
//!
//! let (_, r, s, t) = Schema::sigma0();
//! let mut rt = Runtime::new(2);
//! let q = rt
//!     .register(QuerySpec::new("p0", paper_p0(r, s, t), WindowPolicy::Count(100)))
//!     .unwrap();
//! let sub = rt.subscribe(SubscriptionFilter::Query(q));
//! let handle = rt.ingest_handle();
//! let producer = std::thread::spawn(move || {
//!     for tuple in sigma0_prefix(r, s, t) {
//!         handle.push(&tuple).unwrap();
//!     }
//! });
//! producer.join().unwrap();
//! rt.drain(); // fence: everything ingested is evaluated and delivered
//! let events = sub.drain();
//! assert_eq!(events.len(), 2);
//! assert!(events.iter().all(|e| e.query == q && e.position == 5));
//! ```

mod queue;
mod subscribe;

pub use queue::QueueStats;
pub use subscribe::{MatchChunk, Subscription, SubscriptionFilter};

pub(crate) use queue::{Closed, ShardMsg, ShardQueue, TupleBatch};
pub(crate) use subscribe::SubscriptionRegistry;

use crate::durability::{WalOp, WalRecord};
use crate::error::Error;
use crate::metrics::{PipelineEvent, PipelineMetrics};
use crate::runtime::{Partition, QueryId, ShardHost};
use cer_common::hash::{FxBuildHasher, FxHashMap};
use cer_common::{RelationId, Tuple};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Instant;

cer_common::wire_enum! {
    /// What a producer does when a shard queue is full.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum BackpressurePolicy {
        /// Park the producer until the shard worker drains room. Lossless;
        /// a saturated shard slows the firehose down to its pace.
        #[default]
        0 => Block,
        /// Drop the newest tuples that do not fit, counting them
        /// ([`QueueStats::dropped`]). The producer never blocks.
        1 => DropNewest,
    }
}

/// Construction-time knobs of the ingestion pipeline
/// (`Runtime::with_config`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestConfig {
    /// Per-shard queue capacity, in tuples. The bound is soft under
    /// [`BackpressurePolicy::Block`]: a batch is admitted whole and the
    /// producer parks *afterwards* until the shard drains below the
    /// bound (completing its position block first, so a parked producer
    /// can never hold back the reorder watermark). Occupancy can
    /// therefore overshoot by one in-flight batch per producer.
    pub queue_capacity: usize,
    /// What [`IngestHandle`] producers do when a shard queue is full.
    /// The synchronous `push_batch` path always blocks (it promises
    /// every match back), whatever this says.
    pub policy: BackpressurePolicy,
    /// Target evaluation batch size, in tuples: each shard-worker wakeup
    /// opportunistically drains consecutive queued tuple batches into
    /// one slice until it reaches this many tuples (it may overshoot by
    /// at most one producer batch), then evaluates the slice through the
    /// vectorized batch path. Larger values amortize per-wakeup
    /// bookkeeping under backlog; the worker never *waits* to fill a
    /// batch, so latency under light load is unaffected. The batch
    /// sizes actually seen are reported in
    /// [`QueueStats::drained_batches`] / [`QueueStats::drained_tuples`] /
    /// [`QueueStats::max_drain_batch`].
    pub max_batch: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 1 << 16,
            policy: BackpressurePolicy::Block,
            max_batch: 4096,
        }
    }
}

/// What one `push_batch` on an [`IngestHandle`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The global positions stamped onto the batch, in order.
    pub positions: Range<u64>,
    /// Tuples dropped across shard queues
    /// ([`BackpressurePolicy::DropNewest`] only). A tuple routed to
    /// several shards counts once per queue that shed it.
    pub dropped: u64,
}

/// Routing metadata for one registered query, kept so tables can be
/// rebuilt when a query is deregistered — and, with the evaluator, all
/// a shard worker needs to adopt the query.
#[derive(Clone)]
pub(crate) struct QueryMeta {
    pub alive: bool,
    pub partition: Partition,
    pub listens: Option<Vec<RelationId>>,
    /// Shards hosting the query (one for `ByQuery`, all for `ByKey`).
    pub homes: Vec<usize>,
}

/// The relation → shard routing tables, derivable from the live
/// [`QueryMeta`]s at any time. Producers route against an [`Arc`]
/// snapshot taken with their block reservation; registration swaps in a
/// rebuilt copy, so a block's snapshot agrees with its block-order
/// position relative to the `Register`/`Deregister` control block.
#[derive(Clone, Default)]
pub(crate) struct Router {
    pub metas: Vec<QueryMeta>,
    /// Shards hosting a pinned query that listens to this relation.
    fixed_routes: FxHashMap<RelationId, Vec<usize>>,
    /// Partition-attribute positions of key-partitioned queries
    /// listening to this relation.
    key_routes: FxHashMap<RelationId, Vec<usize>>,
    /// Shards hosting pinned queries with unconfined predicates.
    wildcard_fixed: Vec<usize>,
    /// Partition positions of key-partitioned unconfined queries.
    wildcard_keys: Vec<usize>,
}

impl Router {
    /// Recompute every table from the live query metadata.
    pub fn rebuild(&mut self) {
        self.fixed_routes.clear();
        self.key_routes.clear();
        self.wildcard_fixed.clear();
        self.wildcard_keys.clear();
        for meta in self.metas.iter().filter(|m| m.alive) {
            match meta.partition {
                Partition::ByQuery => {
                    let shard = meta.homes[0];
                    match &meta.listens {
                        Some(rels) => {
                            for &rel in rels {
                                let route = self.fixed_routes.entry(rel).or_default();
                                if !route.contains(&shard) {
                                    route.push(shard);
                                }
                            }
                        }
                        None => {
                            if !self.wildcard_fixed.contains(&shard) {
                                self.wildcard_fixed.push(shard);
                            }
                        }
                    }
                }
                Partition::ByKey { pos } => match &meta.listens {
                    Some(rels) => {
                        for &rel in rels {
                            let route = self.key_routes.entry(rel).or_default();
                            if !route.contains(&pos) {
                                route.push(pos);
                            }
                        }
                    }
                    None => {
                        if !self.wildcard_keys.contains(&pos) {
                            self.wildcard_keys.push(pos);
                        }
                    }
                },
            }
        }
    }

    /// Number of live pinned (`ByQuery`) queries homed on each shard —
    /// the load metric for placing the next pinned query.
    pub fn pinned_per_shard(&self, n_shards: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_shards];
        for meta in self.metas.iter().filter(|m| m.alive) {
            if meta.partition == Partition::ByQuery {
                counts[meta.homes[0]] += 1;
            }
        }
        counts
    }

    /// Homes for one more query given the pinned load so far: every
    /// shard for `ByKey`; for `ByQuery` the least-loaded shard (lowest
    /// index on ties), whose count is bumped.
    pub fn pick_homes(partition: Partition, pinned: &mut [usize]) -> Vec<usize> {
        match partition {
            Partition::ByQuery => {
                let least = (0..pinned.len()).min_by_key(|&s| pinned[s]).unwrap_or(0);
                pinned[least] += 1;
                vec![least]
            }
            Partition::ByKey { .. } => (0..pinned.len()).collect(),
        }
    }

    /// Re-home every live query for a worker set of `n_shards` —
    /// deterministically, in id order, as if each had just been
    /// registered on an empty runtime — and rebuild the tables. Returns
    /// every live query with its new routing metadata.
    pub fn rehome(&mut self, n_shards: usize) -> Vec<(QueryId, QueryMeta)> {
        let mut pinned = vec![0usize; n_shards];
        let mut placements = Vec::new();
        for (i, meta) in self.metas.iter_mut().enumerate().filter(|(_, m)| m.alive) {
            meta.homes = Self::pick_homes(meta.partition, &mut pinned);
            placements.push((QueryId(i as u32), meta.clone()));
        }
        self.rebuild();
        placements
    }

    /// Bitmask of shards the tuple must reach.
    fn shard_mask(&self, hasher: &FxBuildHasher, t: &Tuple, n_shards: usize) -> u64 {
        let rel = t.relation();
        let mut mask: u64 = 0;
        if let Some(route) = self.fixed_routes.get(&rel) {
            for &s in route {
                mask |= 1 << s;
            }
        }
        for &s in &self.wildcard_fixed {
            mask |= 1 << s;
        }
        for &pos in self
            .key_routes
            .get(&rel)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .chain(&self.wildcard_keys)
        {
            mask |= 1 << key_shard(hasher, t, pos, n_shards);
        }
        mask
    }
}

/// The sequencer's mutable core: the only state producers serialize on.
/// A lock acquisition here reserves positions, assigns a block id and
/// snapshots the router — everything else (routing, hashing, cloning,
/// staging) happens outside, striped across producer threads.
pub(crate) struct SeqCore {
    /// The next global position to stamp.
    pub next_pos: u64,
    /// The next WAL sequence number. Every operation that needs replay
    /// (nonempty batch, register, deregister, replace) takes exactly
    /// one, inside the same lock acquisition that reserves its block —
    /// so `wal_seq` order is block order, which positions alone cannot
    /// express (zero-width control blocks share a position with the
    /// batch reserved next). Advances whether or not a WAL is attached,
    /// so recovery replay re-derives identical numbering.
    pub next_wal_seq: u64,
    /// The next block id to assign (dense, reservation-ordered; block
    /// ids order the same way as position ranges).
    next_block: u64,
    /// The low watermark: every block id below this has completed.
    head_block: u64,
    /// Completion flags for blocks `head_block..next_block`.
    inflight: VecDeque<bool>,
    /// The current routing tables; producers clone the [`Arc`] as their
    /// per-block snapshot, registration swaps in a rebuilt copy.
    pub router: Arc<Router>,
    /// The current shard queue set. Producers snapshot it together with
    /// their block reservation (one lock acquisition), so a block is
    /// always staged into the queue set that matches its position in
    /// block order; `Runtime::rescale` swaps in a new set under the
    /// same lock that reserves the rescale fence block.
    pub queues: Arc<[Arc<ShardQueue>]>,
    /// Every queue a watermark broadcast must reach: the current set,
    /// plus — mid-rescale — the retiring queues still draining their
    /// pre-fence backlog. Reset to the current set once the old workers
    /// detach.
    pub broadcast: Arc<[Arc<ShardQueue>]>,
}

impl SeqCore {
    /// Reserve `len` contiguous positions; returns `(block id, start)`.
    /// The block MUST later be completed on every path, or the reorder
    /// watermark wedges behind it.
    pub fn reserve(&mut self, len: u64) -> (u64, u64) {
        let id = self.next_block;
        self.next_block += 1;
        let start = self.next_pos;
        self.next_pos += len;
        self.inflight.push_back(false);
        (id, start)
    }

    /// Take the next WAL sequence number. Call only under the same lock
    /// acquisition as the operation's [`reserve`](Self::reserve) — and
    /// only on paths that then unconditionally log (or intentionally
    /// skip logging with no WAL attached): a consumed number that never
    /// reaches the log would wedge the group-commit drain.
    pub fn take_wal_seq(&mut self) -> u64 {
        let seq = self.next_wal_seq;
        self.next_wal_seq += 1;
        seq
    }

    /// The queues of the shards hosting query `id`.
    pub fn home_queues(&self, id: QueryId) -> Vec<Arc<ShardQueue>> {
        let homes = &self.router.metas[id.0 as usize].homes;
        homes.iter().map(|&s| Arc::clone(&self.queues[s])).collect()
    }

    /// Mark `id` complete. Returns the new low watermark when it
    /// advanced (the caller must then broadcast it to the shard reorder
    /// buffers), `None` when an earlier block is still in flight.
    pub fn complete(&mut self, id: u64) -> Option<u64> {
        self.inflight[(id - self.head_block) as usize] = true;
        if id != self.head_block {
            return None;
        }
        while self.inflight.front() == Some(&true) {
            self.inflight.pop_front();
            self.head_block += 1;
        }
        Some(self.head_block)
    }
}

/// Everything the producers, the control plane and the shard workers
/// share. `Runtime` owns one behind an [`Arc`]; [`IngestHandle`]s clone
/// the `Arc`.
pub(crate) struct IngestShared {
    pub seq: Mutex<SeqCore>,
    pub subs: SubscriptionRegistry,
    pub config: IngestConfig,
    pub hasher: FxBuildHasher,
    /// Tuples dropped by queues that a rescale has since retired, so
    /// drop totals stay monotone across queue-set swaps.
    pub retired_dropped: std::sync::atomic::AtomicU64,
    /// The runtime's metrics registry and event journal — shared here so
    /// producers, the control plane and the shard workers all record
    /// into the same instance.
    pub metrics: PipelineMetrics,
    /// The write-ahead log, attached once by `Runtime::open_durable` /
    /// `Runtime::recover` *after* any restore/replay traffic (so replay
    /// does not re-log itself). `None` on non-durable runtimes: the hot
    /// path pays one atomic load and skips everything else.
    pub wal: std::sync::OnceLock<Arc<crate::durability::Wal>>,
}

impl IngestShared {
    pub fn new(rc: &crate::config::RuntimeConfig) -> Self {
        let queues: Arc<[Arc<ShardQueue>]> = (0..rc.shards)
            .map(|_| Arc::new(ShardQueue::new(rc.ingest.queue_capacity)))
            .collect();
        IngestShared {
            seq: Mutex::new(SeqCore {
                next_pos: 0,
                next_wal_seq: 0,
                next_block: 0,
                head_block: 0,
                inflight: VecDeque::new(),
                router: Arc::new(Router::default()),
                queues: Arc::clone(&queues),
                broadcast: queues,
            }),
            subs: SubscriptionRegistry::default(),
            config: rc.ingest,
            hasher: FxBuildHasher::default(),
            retired_dropped: std::sync::atomic::AtomicU64::new(0),
            metrics: PipelineMetrics::new(rc.shards, rc.journal_capacity, rc.e2e_sample_every),
            wal: std::sync::OnceLock::new(),
        }
    }

    /// Log a stamped operation to the attached WAL, if any (`op` is
    /// only encoded then), recording append volume and fsync
    /// latency. On an append error the WAL has already poisoned itself
    /// (logging stops, serving continues); this journals the failure
    /// once. Never fails the operation: its block is already stamped
    /// and in flight to the shards.
    pub(crate) fn wal_append(&self, wal_seq: u64, position: u64, op: WalOp<'_>) {
        let Some(wal) = self.wal.get() else { return };
        let appended = wal.append(&WalRecord { seq: wal_seq, op });
        match appended {
            Ok(receipt) => {
                self.metrics.wal_bytes.add(receipt.bytes);
                self.metrics.wal_records.add(receipt.records);
                if let Some(nanos) = receipt.fsync_nanos {
                    self.metrics.wal_fsync.record(nanos);
                }
            }
            Err(e) => {
                let code = e.code();
                self.metrics
                    .journal
                    .push(PipelineEvent::WalFailed { position, code });
            }
        }
    }

    /// An [`Arc`] snapshot of the current shard queue set (one short
    /// sequencer lock). Callers that need the set to agree with a block
    /// reservation must take both under the same lock acquisition
    /// instead.
    pub fn queues(&self) -> Arc<[Arc<ShardQueue>]> {
        Arc::clone(&self.seq.lock().expect("sequencer poisoned").queues)
    }

    /// Complete block `id` and, when the low watermark advanced,
    /// broadcast it so the shard reorder buffers release everything
    /// below it. Must run on every path after `SeqCore::reserve`.
    pub fn finish_block(&self, id: u64) {
        let advanced = {
            let mut seq = self.seq.lock().expect("sequencer poisoned");
            seq.complete(id)
                .map(|watermark| (watermark, Arc::clone(&seq.broadcast)))
        };
        if let Some((watermark, queues)) = advanced {
            for q in queues.iter() {
                q.release_up_to(watermark);
            }
        }
    }

    /// Stamp, route and stage a batch under `policy`. Returns the
    /// stamped position range and the dropped-tuple count.
    ///
    /// One short lock reserves the position block and snapshots the
    /// router; routing, partition-key hashing and cloning then run on
    /// the caller's thread, and each shard's slice is staged into that
    /// shard's reorder buffer. Under [`BackpressurePolicy::Block`] the
    /// producer parks for room only *after* completing the block, so
    /// backpressure can never wedge the reorder watermark.
    pub fn ingest(
        &self,
        batch: &[Tuple],
        policy: BackpressurePolicy,
    ) -> Result<IngestReceipt, Error> {
        if batch.is_empty() {
            let seq = self.seq.lock().expect("sequencer poisoned");
            return Ok(IngestReceipt {
                positions: seq.next_pos..seq.next_pos,
                dropped: 0,
            });
        }
        // The ingest timestamp anchors both the sequencer-reserve span
        // and (carried on the staged batch) the end-to-end latency.
        let ingest_at = Instant::now();
        // The queue set is snapshotted with the reservation: a block
        // reserved before a rescale fence stages into the retiring
        // queues (whose workers drain everything pre-fence before
        // detaching), a block reserved after stages into the new set.
        let (id, start, wal_seq, router, queues) = {
            let mut seq = self.seq.lock().expect("sequencer poisoned");
            let (id, start) = seq.reserve(batch.len() as u64);
            let wal_seq = seq.take_wal_seq();
            (
                id,
                start,
                wal_seq,
                Arc::clone(&seq.router),
                Arc::clone(&seq.queues),
            )
        };
        let n_shards = queues.len();
        self.metrics
            .seq_reserve
            .record_duration(ingest_at.elapsed());
        // Log the stamped batch before staging: the WAL sees the full
        // reserved block (under `DropNewest`, replay may keep tuples
        // the original run shed — the differential tests use `Block`).
        let tuples = Cow::Borrowed(batch);
        self.wal_append(wal_seq, start, WalOp::Batch { start, tuples });
        // Outside the lock: route, hash and clone on this producer's
        // thread, striping the per-tuple work across producers. The
        // outer staging vector is thread-local scratch (each staged
        // slice is handed over by `mem::take`, so only the outer
        // allocation amortizes — same profile as the pre-striping
        // sequencer, now without any shared lock around it).
        thread_local! {
            static STAGING: std::cell::RefCell<Vec<Vec<(u64, Tuple)>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let (dropped, closed, mut touched) = STAGING.with(|cell| {
            let mut staging = cell.borrow_mut();
            if staging.len() < n_shards {
                staging.resize_with(n_shards, Vec::new);
            }
            // Defensive against a poisoned previous call (e.g. a panic
            // mid-staging): normally every slot is already empty.
            for slot in staging.iter_mut() {
                slot.clear();
            }
            for (k, t) in batch.iter().enumerate() {
                let i = start + k as u64;
                let mut mask = router.shard_mask(&self.hasher, t, n_shards);
                while mask != 0 {
                    let s = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    staging[s].push((i, t.clone()));
                }
            }
            let mut dropped = 0u64;
            let mut closed = false;
            let mut touched: u64 = 0;
            for s in 0..n_shards {
                if staging[s].is_empty() {
                    continue;
                }
                let tuples = std::mem::take(&mut staging[s]);
                match queues[s].stage_block(id, tuples, ingest_at, policy) {
                    Ok(d) => {
                        if d > 0 {
                            self.metrics.drops.add(d);
                            self.metrics.journal.push(PipelineEvent::TuplesDropped {
                                shard: s,
                                position: start,
                                count: d,
                            });
                        }
                        dropped += d;
                        touched |= 1 << s;
                    }
                    Err(Closed) => closed = true,
                }
            }
            (dropped, closed, touched)
        });
        // Complete before any backpressure wait (and on the closed
        // path): a parked or failing producer must not hold the
        // watermark back.
        self.finish_block(id);
        if closed {
            return Err(Error::RuntimeClosed);
        }
        if policy == BackpressurePolicy::Block {
            while touched != 0 {
                let s = touched.trailing_zeros() as usize;
                touched &= touched - 1;
                let park_at = Instant::now();
                let parked = queues[s]
                    .wait_for_room()
                    .map_err(|Closed| Error::RuntimeClosed)?;
                if parked {
                    let park = park_at.elapsed();
                    self.metrics.producer_park.record_duration(park);
                    self.metrics.parks.inc();
                    self.metrics.journal.push(PipelineEvent::ProducerParked {
                        shard: s,
                        position: start,
                        park_nanos: u64::try_from(park.as_nanos()).unwrap_or(u64::MAX),
                    });
                }
            }
        }
        Ok(IngestReceipt {
            positions: start..start + batch.len() as u64,
            dropped,
        })
    }

    /// Open a [`Fence`]: under **one** sequencer lock acquisition run
    /// `edit` (the operation's change to the router, the queue set or
    /// the counters — it may also take or read the `wal_seq`) and
    /// reserve `blocks` consecutive zero-width blocks.
    pub fn fence<T>(&self, blocks: u64, edit: impl FnOnce(&mut SeqCore) -> T) -> (Fence<'_>, T) {
        let mut seq = self.seq.lock().expect("sequencer poisoned");
        let out = edit(&mut seq);
        let first = seq.next_block;
        for _ in 0..blocks {
            seq.reserve(0);
        }
        let fence = Fence {
            shared: self,
            blocks: first..first + blocks,
            position: seq.next_pos,
        };
        (fence, out)
    }

    /// The fence that edits nothing: run `job` on every current shard at
    /// one point of the position order. Returns the fence position, the
    /// `wal_seq` high-water read under the same lock acquisition (every
    /// logged operation below it was reserved before the fence, so a
    /// recovery replay filter `seq >= wal_seq` is exact) and the
    /// replies in shard order. `drain()` is `fence_all(|_| ())`.
    pub fn fence_all<R: Send + 'static>(
        &self,
        job: impl Fn(&mut ShardHost) -> R + Clone + Send + 'static,
    ) -> Result<(u64, u64, Vec<R>), ShardWorkerDied> {
        let (mut fence, (wal_seq, queues)) =
            self.fence(1, |seq| (seq.next_wal_seq, Arc::clone(&seq.queues)));
        let jobs = queues.iter().map(|q| (Arc::clone(q), job.clone()));
        Ok((fence.position, wal_seq, fence.stage(jobs)?.collect()?))
    }

    /// Close the pipeline: every shard queue is closed (workers drain
    /// what was released and exit; producers fail fast) and every
    /// subscriber channel is closed and woken — a shard worker parked on
    /// a full `Block` subscription observes the close instead of parking
    /// forever, which is what lets `Runtime::drop` join its workers
    /// under a live, undrained subscriber.
    pub fn close(&self) {
        // Close the *broadcast* set: mid-rescale it is a superset of the
        // current queues, so retiring workers are released too.
        let (position, queues) = {
            let seq = self.seq.lock().expect("sequencer poisoned");
            (seq.next_pos, Arc::clone(&seq.broadcast))
        };
        self.metrics
            .journal
            .push(PipelineEvent::Shutdown { position });
        for q in queues.iter() {
            q.close();
        }
        self.subs.close_all();
    }
}

/// A shard worker vanished: its queue was closed when a [`Fence`] staged
/// its job, or it dropped the job unanswered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardWorkerDied;

impl From<ShardWorkerDied> for Error {
    fn from(_: ShardWorkerDied) -> Self {
        Error::ShardWorkerDied
    }
}

/// The one control fence — see [the module docs](self#the-control-fence)
/// for what it is and for the ordering argument every structural
/// operation inherits from it.
///
/// A `Fence` is a run of reserved, not yet completed zero-width blocks
/// ([`IngestShared::fence`]); each [`stage`](Self::stage) call spends
/// the next one: it stages one control job per target shard under that
/// block id, completes the block, and hands back the [`Replies`] to
/// collect. Blocks never staged are completed on drop, so no path can
/// wedge the reorder watermark.
pub(crate) struct Fence<'a> {
    shared: &'a IngestShared,
    blocks: Range<u64>,
    /// The stream position of the cut: tuples stamped below it are
    /// ahead of the fence, everything at or above is behind it.
    pub position: u64,
}

impl Fence<'_> {
    /// Spend the next reserved block: stage one job per target under
    /// it, then complete it. Each job runs on its shard's worker thread
    /// and its return value is that target's reply. Fails when a
    /// target's queue was already closed.
    pub fn stage<R, J>(
        &mut self,
        jobs: impl IntoIterator<Item = (Arc<ShardQueue>, J)>,
    ) -> Result<Replies<R>, ShardWorkerDied>
    where
        R: Send + 'static,
        J: FnOnce(&mut ShardHost) -> R + Send + 'static,
    {
        assert!(!self.blocks.is_empty(), "fence has no reserved block left");
        let block = self.blocks.start;
        let (reply, inbox) = channel();
        let mut targets = 0;
        let mut closed = false;
        for (k, (queue, job)) in jobs.into_iter().enumerate() {
            let reply = reply.clone();
            let job = Box::new(move |host: &mut ShardHost| {
                let _ = reply.send((k, job(host)));
            });
            closed |= queue.stage_control(block, job).is_err();
            targets += 1;
        }
        self.blocks.start += 1;
        self.shared.finish_block(block);
        if closed {
            return Err(ShardWorkerDied);
        }
        Ok(Replies { inbox, targets })
    }
}

impl Drop for Fence<'_> {
    fn drop(&mut self) {
        for block in self.blocks.clone() {
            self.shared.finish_block(block);
        }
    }
}

/// The pending replies of one staged [`Fence`] block: exactly one per
/// target. Dropping them unawaited is fine — the jobs still run at the
/// fence, and a later fence proves they did.
pub(crate) struct Replies<R> {
    inbox: Receiver<(usize, R)>,
    targets: usize,
}

impl<R> Replies<R> {
    /// Wait for every target's reply; returns them in target order. A
    /// reply proves that shard processed everything ahead of the fence.
    /// Fails when a worker vanished with its job unanswered.
    pub fn collect(self) -> Result<Vec<R>, ShardWorkerDied> {
        let mut out: Vec<Option<R>> = (0..self.targets).map(|_| None).collect();
        for _ in 0..self.targets {
            let (k, reply) = self.inbox.recv().map_err(|_| ShardWorkerDied)?;
            out[k] = Some(reply);
        }
        Ok(out.into_iter().flatten().collect())
    }
}

/// A cloneable producer handle onto the runtime's ingestion pipeline.
///
/// Any number of threads may hold clones and feed the stream
/// concurrently; the sequencer serializes them only to reserve position
/// blocks — routing and staging stripe across the producers' threads.
/// The handle outlives the runtime safely: once the runtime shuts down,
/// pushes return [`Error::RuntimeClosed`].
#[derive(Clone)]
pub struct IngestHandle {
    pub(crate) shared: Arc<IngestShared>,
}

impl IngestHandle {
    /// Push one tuple; returns its stamped global position.
    pub fn push(&self, t: &Tuple) -> Result<u64, Error> {
        let receipt = self.push_batch(std::slice::from_ref(t))?;
        Ok(receipt.positions.start)
    }

    /// Push a batch in stream order under the runtime's configured
    /// [`BackpressurePolicy`].
    pub fn push_batch(&self, batch: &[Tuple]) -> Result<IngestReceipt, Error> {
        self.shared.ingest(batch, self.shared.config.policy)
    }

    /// Occupancy counters of every shard queue, including tuples
    /// dropped by [`BackpressurePolicy::DropNewest`].
    pub fn queue_stats(&self) -> Vec<QueueStats> {
        self.shared.queues().iter().map(|q| q.stats()).collect()
    }

    /// Total tuples dropped across all shard queues so far.
    ///
    /// Monotone across rescales: drops accumulated by queues a rescale
    /// retired are folded into the total when their workers detach.
    pub fn total_dropped(&self) -> u64 {
        let retired = self
            .shared
            .retired_dropped
            .load(std::sync::atomic::Ordering::Relaxed);
        retired
            + self
                .shared
                .queues()
                .iter()
                .map(|q| q.stats().dropped)
                .sum::<u64>()
    }
}

/// Shard a tuple belongs to under key partitioning on position `pos`:
/// the hash of its partition value, or a deterministic home shard (0)
/// when the tuple lacks that attribute. Sequencer and workers must agree
/// on this function. Attribute-less tuples cannot join under a
/// partition-sound automaton (their key extraction is undefined), so a
/// fixed home shard preserves outputs — their matches are self-contained.
pub(crate) fn key_shard(hasher: &FxBuildHasher, t: &Tuple, pos: usize, n_shards: usize) -> usize {
    match t.values().get(pos) {
        Some(v) => (hasher.hash_one(v) % n_shards as u64) as usize,
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tracker_watermark_advances_in_completion_order() {
        let empty: Arc<[Arc<ShardQueue>]> = Arc::from([]);
        let mut seq = SeqCore {
            next_pos: 0,
            next_wal_seq: 0,
            next_block: 0,
            head_block: 0,
            inflight: VecDeque::new(),
            router: Arc::new(Router::default()),
            queues: Arc::clone(&empty),
            broadcast: empty,
        };
        let (a, sa) = seq.reserve(3);
        let (b, sb) = seq.reserve(0); // zero-width control block
        let (c, sc) = seq.reserve(5);
        assert_eq!((sa, sb, sc), (0, 3, 3));
        assert_eq!(seq.next_pos, 8);
        // Completing out of order holds the watermark at the oldest
        // incomplete block...
        assert_eq!(seq.complete(c), None);
        assert_eq!(seq.complete(b), None);
        // ...and completing the head releases everything at once.
        assert_eq!(seq.complete(a), Some(c + 1));
        let (d, sd) = seq.reserve(1);
        assert_eq!(sd, 8);
        assert_eq!(seq.complete(d), Some(d + 1));
    }
}
