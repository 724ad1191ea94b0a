//! Bounded per-shard ingest queues with a block-reorder stage.
//!
//! Each shard worker owns one [`ShardQueue`]: a mutex-and-condvar MPSC
//! queue that carries position-stamped tuple batches *and* control
//! jobs (the per-shard half of every [`Fence`](super::Fence)). Capacity
//! is accounted in **tuples**, not messages, and only tuple batches
//! count — control traffic always gets through, so a saturated firehose
//! can never wedge registration or shutdown.
//!
//! In front of the worker FIFO sits the **reorder stage**: producers of
//! the striped sequencer ([`crate::ingest`]) stage each position block's
//! per-shard slice with [`ShardQueue::stage_block`] in whatever order
//! their threads happen to run, and the sequencer broadcasts its low
//! watermark with [`ShardQueue::release_up_to`] once every older block
//! has completed. Pending entries are released to the FIFO in block-id
//! order — which is position order — so the single consumer still
//! observes strictly increasing positions. Blocks that routed nothing
//! to this shard simply have no entry and are skipped by the watermark;
//! a watermark broadcast that races an older one is ignored (releases
//! are monotone).
//!
//! Two backpressure behaviours are supported per staged block
//! ([`BackpressurePolicy`]): `Block` admits the slice whole and lets the
//! *producer* park afterwards in [`ShardQueue::wait_for_room`] (after
//! completing its block — a parked producer must never hold back the
//! watermark), and `DropNewest` truncates the incoming slice to the
//! remaining room, counting every dropped tuple. Capacity counts staged
//! tuples whether still pending in the reorder buffer or already
//! released to the FIFO.

use super::BackpressurePolicy;
use crate::metrics::MetricRead::{self, Counter, Gauge};
use crate::metrics::MetricRow;
use crate::runtime::ShardHost;
use cer_common::Tuple;
use cer_obs::Histogram;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The queue was closed (its runtime has shut down).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Closed;

/// A released batch of position-stamped tuples, carrying the wall-clock
/// marks the latency histograms are computed from.
pub(crate) struct TupleBatch {
    /// The stamped tuples, in increasing position order.
    pub tuples: Vec<(u64, Tuple)>,
    /// Captured at `SeqCore::reserve` — the start of the end-to-end
    /// ingest→delivery clock. Coalescing keeps the earliest mark.
    pub ingest_at: Instant,
    /// When the reorder stage released the batch to the worker FIFO —
    /// the start of the drain-wait clock.
    pub released_at: Instant,
}

/// A control job: runs on the shard worker's thread against its
/// [`ShardHost`], at the point of the released position order its
/// zero-width block occupies. Built only by
/// [`Fence::stage`](super::Fence::stage), which wraps the caller's typed
/// job together with its reply channel.
pub(crate) type ControlJob = Box<dyn FnOnce(&mut ShardHost) + Send>;

/// What travels to a shard worker. Tuple batches compete for queue
/// capacity; control jobs are always admitted.
pub(crate) enum ShardMsg {
    /// Position-stamped tuples in increasing position order.
    Tuples(TupleBatch),
    /// One structural operation's work for this shard (adopt, evict,
    /// swap, capture, stats, or nothing at all for a barrier).
    Control(ControlJob),
}

/// Occupancy counters of one shard queue, readable at any time.
///
/// # Monotone-since-start semantics
///
/// Every cumulative field — [`dropped`](Self::dropped),
/// [`drained_batches`](Self::drained_batches),
/// [`drained_tuples`](Self::drained_tuples),
/// [`reorder_released`](Self::reorder_released) — and every
/// watermark field — [`high_water`](Self::high_water),
/// [`max_drain_batch`](Self::max_drain_batch),
/// [`reorder_high_water`](Self::reorder_high_water) — is **monotone
/// non-decreasing over the runtime's lifetime**. Reading stats never
/// resets anything: the stats read is a pure copy of the
/// counters, so two consecutive reads r1, r2 always satisfy
/// `r1.field <= r2.field` for these fields. Only
/// [`depth`](Self::depth) and [`reorder_pending`](Self::reorder_pending)
/// are instantaneous levels that move both ways. Rate computation is
/// therefore the reader's job: sample twice and difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Tuples currently staged (pending in the reorder buffer or
    /// released to the FIFO, not yet picked up by the shard worker).
    pub depth: usize,
    /// Maximum `depth` ever observed.
    pub high_water: usize,
    /// Tuples dropped by [`BackpressurePolicy::DropNewest`].
    pub dropped: u64,
    /// Coalesced tuple batches handed to the shard worker so far (one
    /// per worker wakeup that yielded tuples).
    pub drained_batches: u64,
    /// Total tuples handed to the shard worker across those batches;
    /// `drained_tuples / drained_batches` is the mean evaluation batch
    /// size the worker actually saw.
    pub drained_tuples: u64,
    /// Largest single coalesced batch handed to the worker.
    pub max_drain_batch: usize,
    /// Blocks currently held in the reorder buffer, waiting for the
    /// sequencer's low watermark to pass them.
    pub reorder_pending: usize,
    /// Maximum `reorder_pending` ever observed — how far concurrent
    /// producers ran ahead of the oldest incomplete block on this shard.
    pub reorder_high_water: usize,
    /// Entries released from the reorder buffer to the worker FIFO so
    /// far (tuple blocks and ordered control messages).
    pub reorder_released: u64,
}

impl QueueStats {
    /// Exported per shard (label `shard`).
    pub(crate) const ROWS: &'static [MetricRow<Self>] = &[
        (
            "cer_queue_depth",
            "Tuples currently staged or queued per shard",
            Gauge(|q| q.depth as u64),
        ),
        (
            "cer_queue_high_water",
            "Maximum queue depth ever observed per shard",
            Gauge(|q| q.high_water as u64),
        ),
        (
            "cer_queue_dropped_total",
            "Tuples dropped by DropNewest per shard",
            Counter(|q| q.dropped),
        ),
        (
            "cer_drained_batches_total",
            "Coalesced batches handed to the shard worker",
            Counter(|q| q.drained_batches),
        ),
        (
            "cer_drained_tuples_total",
            "Tuples handed to the shard worker",
            Counter(|q| q.drained_tuples),
        ),
        (
            "cer_max_drain_batch",
            "Largest coalesced batch handed to the worker",
            Gauge(|q| q.max_drain_batch as u64),
        ),
        (
            "cer_reorder_pending",
            "Blocks currently held in the reorder buffer",
            Gauge(|q| q.reorder_pending as u64),
        ),
        (
            "cer_reorder_high_water",
            "Maximum reorder-buffer occupancy ever observed",
            Gauge(|q| q.reorder_high_water as u64),
        ),
        (
            "cer_reorder_released_total",
            "Entries released from the reorder buffer in block order",
            Counter(|q| q.reorder_released),
        ),
    ];
}

/// A reorder-buffer entry: one block's slice for this shard, or a
/// position-ordered control message riding a zero-width block.
enum Staged {
    Tuples {
        tuples: Vec<(u64, Tuple)>,
        /// The producer's reserve instant, forwarded onto the released
        /// [`TupleBatch`].
        ingest_at: Instant,
        /// When the slice entered the reorder buffer — start of the
        /// reorder-hold clock.
        staged_at: Instant,
    },
    Control(ControlJob),
}

struct Inner {
    /// Released messages, in block order, ready for the worker.
    msgs: VecDeque<ShardMsg>,
    /// The reorder buffer: staged entries keyed by block id, awaiting
    /// the watermark.
    pending: BTreeMap<u64, Staged>,
    /// Highest watermark applied; `release_up_to` is monotone in it.
    released_watermark: u64,
    depth: usize,
    high_water: usize,
    dropped: u64,
    drained_batches: u64,
    drained_tuples: u64,
    max_drain: usize,
    reorder_high_water: usize,
    reorder_released: u64,
    closed: bool,
}

/// A bounded MPSC queue feeding one shard worker. Producers are the
/// striped sequencer's ingest paths (staging blocks out of order) and
/// the runtime's control plane; the single consumer is the shard worker.
pub(crate) struct ShardQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// How long released entries sat in the reorder buffer waiting for
    /// the sequencer watermark (one sample per released entry).
    pub reorder_hold: Histogram,
    /// How long released batches waited in the worker FIFO before the
    /// shard worker drained them (one sample per coalesced drain).
    pub queue_wait: Histogram,
    /// Lock-free mirror of `!inner.pending.is_empty()`, letting
    /// watermark broadcasts skip shards with nothing staged without
    /// touching their mutex. Safe to read stale-false only because any
    /// entry a broadcast must release was staged (and this flag raised)
    /// before its block completed — and completion happens-before the
    /// broadcast via the sequencer lock.
    has_pending: AtomicBool,
}

impl ShardQueue {
    /// Exported per shard (label `shard`).
    pub const ROWS: &'static [MetricRow<Self>] = &[
        (
            "cer_reorder_hold_nanos",
            "Time staged blocks waited in the reorder buffer",
            MetricRead::Histogram(|q| &q.reorder_hold),
        ),
        (
            "cer_queue_wait_nanos",
            "Time released batches waited in the shard FIFO",
            MetricRead::Histogram(|q| &q.queue_wait),
        ),
    ];

    pub fn new(capacity: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(Inner {
                msgs: VecDeque::new(),
                pending: BTreeMap::new(),
                released_watermark: 0,
                depth: 0,
                high_water: 0,
                dropped: 0,
                drained_batches: 0,
                drained_tuples: 0,
                max_drain: 0,
                reorder_high_water: 0,
                reorder_released: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            reorder_hold: Histogram::new(),
            queue_wait: Histogram::new(),
            has_pending: AtomicBool::new(false),
        }
    }

    /// Stage one block's slice into the reorder buffer under `policy`.
    /// Returns how many tuples were dropped (`DropNewest` only — the
    /// slice is truncated to the remaining room; `Block` admits the
    /// slice whole and never drops, the producer parks later in
    /// [`wait_for_room`](Self::wait_for_room)).
    ///
    /// The entry stays pending until the sequencer watermark passes its
    /// block id; a block is staged at most once per shard, before its
    /// completion, so its id is always at or above the applied
    /// watermark.
    pub fn stage_block(
        &self,
        block: u64,
        mut tuples: Vec<(u64, Tuple)>,
        ingest_at: Instant,
        policy: BackpressurePolicy,
    ) -> Result<u64, Closed> {
        if tuples.is_empty() {
            return Ok(0);
        }
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        if inner.closed {
            return Err(Closed);
        }
        debug_assert!(
            block >= inner.released_watermark,
            "block {block} staged after watermark {}",
            inner.released_watermark
        );
        let dropped = match policy {
            BackpressurePolicy::Block => 0,
            BackpressurePolicy::DropNewest => {
                let room = self.capacity.saturating_sub(inner.depth);
                let dropped = tuples.len().saturating_sub(room) as u64;
                tuples.truncate(room);
                inner.dropped += dropped;
                dropped
            }
        };
        if !tuples.is_empty() {
            inner.depth += tuples.len();
            inner.high_water = inner.high_water.max(inner.depth);
            inner.pending.insert(
                block,
                Staged::Tuples {
                    tuples,
                    ingest_at,
                    staged_at: Instant::now(),
                },
            );
            inner.reorder_high_water = inner.reorder_high_water.max(inner.pending.len());
            self.has_pending.store(true, Ordering::Release);
        }
        Ok(dropped)
    }

    /// Stage a control job under a zero-width block id; bypasses the
    /// capacity bound and is never dropped.
    pub fn stage_control(&self, block: u64, job: ControlJob) -> Result<(), Closed> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        if inner.closed {
            return Err(Closed);
        }
        inner.pending.insert(block, Staged::Control(job));
        inner.reorder_high_water = inner.reorder_high_water.max(inner.pending.len());
        self.has_pending.store(true, Ordering::Release);
        Ok(())
    }

    /// Apply a sequencer low watermark: move every pending entry with a
    /// block id below `watermark` to the worker FIFO, in block order.
    /// Monotone — a broadcast racing an older one is a no-op.
    ///
    /// Skipping when nothing is pending is sound: an entry this
    /// broadcast must release was staged — raising `has_pending` —
    /// strictly before its block completed, and the completion
    /// happens-before the broadcast through the sequencer lock, so the
    /// flag is visible by the time the broadcast reaches this shard. A
    /// skipped broadcast leaves `released_watermark` stale (a lower
    /// bound), which the next real release simply catches up past.
    pub fn release_up_to(&self, watermark: u64) {
        if !self.has_pending.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        if watermark <= inner.released_watermark {
            return;
        }
        inner.released_watermark = watermark;
        let mut moved = false;
        let released_at = Instant::now();
        while let Some(entry) = inner.pending.first_entry() {
            if *entry.key() >= watermark {
                break;
            }
            let msg = match entry.remove() {
                Staged::Tuples {
                    tuples,
                    ingest_at,
                    staged_at,
                } => {
                    self.reorder_hold
                        .record_duration(released_at.saturating_duration_since(staged_at));
                    ShardMsg::Tuples(TupleBatch {
                        tuples,
                        ingest_at,
                        released_at,
                    })
                }
                Staged::Control(job) => ShardMsg::Control(job),
            };
            inner.msgs.push_back(msg);
            inner.reorder_released += 1;
            moved = true;
        }
        if inner.pending.is_empty() {
            self.has_pending.store(false, Ordering::Release);
        }
        if moved {
            self.not_empty.notify_one();
        }
    }

    /// Park until the queue has room below its capacity bound (the
    /// `Block` policy's backpressure point, called by producers *after*
    /// completing their position block) or the queue closes. Returns
    /// whether the producer actually parked, so the caller can record
    /// the park episode without charging the uncontended fast path.
    ///
    /// A closed queue that *has* room reports success: the producer's
    /// batch was already admitted, and a rescale retires (drains, then
    /// closes) old queues concurrently with producers that staged into
    /// them — only a close that strands the producer at a full queue is
    /// an error. The next `stage_block` still fails fast.
    pub fn wait_for_room(&self) -> Result<bool, Closed> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        let mut parked = false;
        while inner.depth >= self.capacity && !inner.closed {
            parked = true;
            inner = self.not_full.wait(inner).expect("ingest queue poisoned");
        }
        if inner.closed && inner.depth >= self.capacity {
            return Err(Closed);
        }
        Ok(parked)
    }

    /// Blocking pop without coalescing (`pop_batch(1)`), for tests.
    #[cfg(test)]
    pub fn pop(&self) -> Option<ShardMsg> {
        self.pop_batch(1)
    }

    /// Blocking pop for the shard worker. Returns `None` once the queue
    /// is closed *and* the released FIFO is fully drained, so no
    /// released work is ever lost (entries still pending in the reorder
    /// buffer at close belong to blocks that can no longer complete and
    /// are abandoned with the shutdown).
    ///
    /// When the front message is a tuple batch, consecutive tuple
    /// batches already queued behind it are opportunistically coalesced
    /// into one slice until it reaches `max_batch` tuples, so a worker
    /// that fell behind evaluates in large batches instead of one
    /// sequencer push at a time. Coalescing only ever merges
    /// front-of-queue neighbours and never crosses a control message,
    /// so FIFO ordering (and barrier semantics) is preserved; the slice
    /// may overshoot `max_batch` by at most one producer batch.
    pub fn pop_batch(&self, max_batch: usize) -> Option<ShardMsg> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        loop {
            if let Some(msg) = inner.msgs.pop_front() {
                let msg = match msg {
                    ShardMsg::Tuples(mut batch) => {
                        // Merging keeps the *front* batch's wall-clock
                        // marks: FIFO order is block order, so they are
                        // the earliest — the e2e and drain-wait clocks
                        // measure the oldest tuple in the merged slice.
                        while batch.tuples.len() < max_batch
                            && matches!(inner.msgs.front(), Some(ShardMsg::Tuples(_)))
                        {
                            match inner.msgs.pop_front() {
                                Some(ShardMsg::Tuples(more)) => batch.tuples.extend(more.tuples),
                                _ => unreachable!("front was a tuple batch"),
                            }
                        }
                        inner.depth -= batch.tuples.len();
                        inner.drained_batches += 1;
                        inner.drained_tuples += batch.tuples.len() as u64;
                        inner.max_drain = inner.max_drain.max(batch.tuples.len());
                        self.queue_wait.record_duration(batch.released_at.elapsed());
                        self.not_full.notify_all();
                        ShardMsg::Tuples(batch)
                    }
                    control => control,
                };
                return Some(msg);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("ingest queue poisoned");
        }
    }

    /// Close the queue: producers fail fast, the worker drains what was
    /// released and exits.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the queue for a worker that died: everything staged or
    /// released is dropped unprocessed (control jobs with their reply
    /// senders), so nothing waits on work that will never run. Used
    /// while unwinding, so a poisoned lock is taken as it is.
    pub fn abandon(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        let (msgs, pending) = (
            std::mem::take(&mut inner.msgs),
            std::mem::take(&mut inner.pending),
        );
        self.has_pending.store(false, Ordering::Release);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(inner);
        drop((msgs, pending));
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.inner.lock().expect("ingest queue poisoned");
        QueueStats {
            depth: inner.depth,
            high_water: inner.high_water,
            dropped: inner.dropped,
            drained_batches: inner.drained_batches,
            drained_tuples: inner.drained_tuples,
            max_drain_batch: inner.max_drain,
            reorder_pending: inner.pending.len(),
            reorder_high_water: inner.reorder_high_water,
            reorder_released: inner.reorder_released,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::tuple::tup;
    use cer_common::Schema;

    fn stamped(r: cer_common::RelationId, start: u64, n: usize) -> Vec<(u64, Tuple)> {
        (0..n)
            .map(|i| (start + i as u64, tup(r, [i as i64])))
            .collect()
    }

    /// Stage one block and release it immediately, the single-producer
    /// fast path.
    fn stage_released(
        q: &ShardQueue,
        block: u64,
        tuples: Vec<(u64, Tuple)>,
        policy: BackpressurePolicy,
    ) -> Result<u64, Closed> {
        let dropped = q.stage_block(block, tuples, Instant::now(), policy)?;
        q.release_up_to(block + 1);
        Ok(dropped)
    }

    /// Stage a block with a fresh ingest mark (the non-test path takes
    /// the mark at `SeqCore::reserve`).
    fn stage(
        q: &ShardQueue,
        block: u64,
        tuples: Vec<(u64, Tuple)>,
        policy: BackpressurePolicy,
    ) -> Result<u64, Closed> {
        q.stage_block(block, tuples, Instant::now(), policy)
    }

    #[test]
    fn out_of_order_blocks_release_in_block_order() {
        let (_, r, _, _) = Schema::sigma0();
        let q = ShardQueue::new(100);
        // Three blocks staged newest-first, as racing producers would.
        stage(&q, 2, stamped(r, 20, 2), BackpressurePolicy::Block).unwrap();
        stage(&q, 1, stamped(r, 10, 2), BackpressurePolicy::Block).unwrap();
        assert_eq!(q.stats().reorder_pending, 2);
        // Watermark stuck below the oldest block: nothing released, the
        // worker would still be waiting.
        q.release_up_to(0);
        assert_eq!(q.stats().reorder_released, 0);
        stage(&q, 0, stamped(r, 0, 2), BackpressurePolicy::Block).unwrap();
        assert_eq!(q.stats().reorder_high_water, 3);
        // Watermark passes all three (a stale broadcast racing in later
        // must be a no-op).
        q.release_up_to(3);
        q.release_up_to(1);
        let mut seen = Vec::new();
        for _ in 0..3 {
            match q.pop().unwrap() {
                ShardMsg::Tuples(b) => seen.extend(b.tuples.iter().map(|(i, _)| *i)),
                _ => panic!("tuples only"),
            }
        }
        // Two latency histograms saw every released/drained batch.
        assert_eq!(q.reorder_hold.count(), 3);
        assert_eq!(q.queue_wait.count(), 3);
        assert_eq!(
            seen,
            vec![0, 1, 10, 11, 20, 21],
            "released in position order"
        );
        let st = q.stats();
        assert_eq!((st.reorder_pending, st.reorder_released), (0, 3));
        assert_eq!(st.depth, 0);
    }

    #[test]
    fn drop_newest_truncates_and_counts_through_the_reorder_stage() {
        let (_, r, _, _) = Schema::sigma0();
        let q = ShardQueue::new(3);
        let dropped =
            stage_released(&q, 0, stamped(r, 0, 5), BackpressurePolicy::DropNewest).unwrap();
        assert_eq!(dropped, 2);
        let st = q.stats();
        assert_eq!((st.depth, st.high_water, st.dropped), (3, 3, 2));
        // Full: everything new is dropped (whether pending or released,
        // staged tuples count), control still gets through.
        let dropped =
            stage_released(&q, 1, stamped(r, 5, 2), BackpressurePolicy::DropNewest).unwrap();
        assert_eq!(dropped, 2);
        q.stage_control(2, Box::new(|_| ())).unwrap();
        q.release_up_to(3);
        match q.pop().unwrap() {
            ShardMsg::Tuples(b) => assert_eq!(b.tuples.len(), 3),
            _ => panic!("tuples first"),
        }
        assert!(matches!(q.pop().unwrap(), ShardMsg::Control(_)));
        assert_eq!(q.stats().depth, 0);
    }

    #[test]
    fn pop_batch_coalesces_up_to_max_but_never_crosses_control() {
        let (_, r, _, _) = Schema::sigma0();
        let q = ShardQueue::new(100);
        // Three consecutive tuple blocks, a barrier, then one more.
        stage(&q, 0, stamped(r, 0, 3), BackpressurePolicy::Block).unwrap();
        stage(&q, 1, stamped(r, 3, 3), BackpressurePolicy::Block).unwrap();
        stage(&q, 2, stamped(r, 6, 3), BackpressurePolicy::Block).unwrap();
        q.stage_control(3, Box::new(|_| ())).unwrap();
        stage(&q, 4, stamped(r, 9, 2), BackpressurePolicy::Block).unwrap();
        q.release_up_to(5);
        // max_batch 5: the first two blocks coalesce (3 < 5, then 6 ≥ 5
        // — overshoot by at most one producer batch), the third stays.
        match q.pop_batch(5).unwrap() {
            ShardMsg::Tuples(b) => assert_eq!(b.tuples.len(), 6),
            _ => panic!("tuples first"),
        }
        // The third block never merges across the barrier.
        match q.pop_batch(100).unwrap() {
            ShardMsg::Tuples(b) => assert_eq!(b.tuples.len(), 3),
            _ => panic!("tuples second"),
        }
        assert!(matches!(q.pop_batch(100).unwrap(), ShardMsg::Control(_)));
        match q.pop_batch(100).unwrap() {
            ShardMsg::Tuples(b) => assert_eq!(b.tuples.len(), 2),
            _ => panic!("tuples last"),
        }
        let st = q.stats();
        assert_eq!(st.depth, 0);
        assert_eq!(st.drained_batches, 3);
        assert_eq!(st.drained_tuples, 11);
        assert_eq!(st.max_drain_batch, 6);
    }

    #[test]
    fn wait_for_room_parks_until_drained_and_close_drains_released() {
        let (_, r, _, _) = Schema::sigma0();
        let q = std::sync::Arc::new(ShardQueue::new(2));
        stage_released(&q, 0, stamped(r, 0, 2), BackpressurePolicy::Block).unwrap();
        // Over-capacity staging is admitted whole (soft bound)...
        stage_released(&q, 1, stamped(r, 2, 2), BackpressurePolicy::Block).unwrap();
        assert_eq!(q.stats().depth, 4);
        // ...and the producer then parks in wait_for_room until the
        // consumer drains below the bound.
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.wait_for_room())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!producer.is_finished());
        assert!(matches!(q.pop(), Some(ShardMsg::Tuples(_))));
        assert!(matches!(q.pop(), Some(ShardMsg::Tuples(_))));
        assert_eq!(producer.join().unwrap(), Ok(true), "the producer parked");
        stage_released(&q, 2, stamped(r, 4, 1), BackpressurePolicy::Block).unwrap();
        q.close();
        // The released batch survives the close; then the queue reports
        // exhaustion and producers fail fast.
        assert!(matches!(q.pop(), Some(ShardMsg::Tuples(_))));
        assert!(q.pop().is_none());
        assert_eq!(
            q.stage_block(
                3,
                stamped(r, 5, 1),
                Instant::now(),
                BackpressurePolicy::Block
            ),
            Err(Closed)
        );
        // Closed with room (fully drained, as a rescale leaves retired
        // queues): the admitted batch was not stranded, so no error.
        assert_eq!(q.wait_for_room(), Ok(false));
        // Closed while still at/over capacity: the producer is stranded.
        let full = ShardQueue::new(1);
        stage_released(&full, 0, stamped(r, 0, 2), BackpressurePolicy::Block).unwrap();
        full.close();
        assert_eq!(full.wait_for_room(), Err(Closed));
    }
}
