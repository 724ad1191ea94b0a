//! Pipeline observability: the per-runtime metrics registry and the
//! structured event journal.
//!
//! Every [`Runtime`](crate::runtime::Runtime) owns one
//! `PipelineMetrics` registry (shared with its producers and shard workers
//! through the ingest pipeline's `Arc`). The span structure mirrors the
//! pipeline stages documented in [`crate::ingest`]:
//!
//! ```text
//!  producer ──────────────────────────────────────────────► consumer
//!   │ seq_reserve   reorder_hold   queue_wait   shard_eval │
//!   │ producer_park              (prefilter + eval tail)   │
//!   │                                         delivery     │
//!   └───────────────────── e2e ──────────────────────────▲─┘
//! ```
//!
//! * `seq_reserve` — the sequencer lock acquisition reserving a
//!   position block ([`SeqCore::reserve`](crate::ingest));
//! * `producer_park` — how long producers park for backpressure under
//!   [`BackpressurePolicy::Block`](crate::ingest::BackpressurePolicy);
//! * reorder hold and drain-batch wait live on each shard queue
//!   ([`crate::ingest`]'s reorder stage);
//! * `shard_eval` / `prefilter` / `eval_tail` — per-shard batch
//!   evaluation, with the shared-prefilter phase split from the
//!   fire/index/enumerate tail;
//! * delivery lives on the subscription registry, one sample per
//!   publish call (a chunk of matches);
//! * `e2e` — true ingest→match-delivery latency, measured from an
//!   `Instant` captured at block reservation and carried on the stamped
//!   batch, and read once per delivered chunk (every sampled match of
//!   a chunk records that reading). Sampled every Nth delivered match
//!   ([`RuntimeConfig::e2e_sample_every`](crate::config::RuntimeConfig::e2e_sample_every));
//!   the default is every match.
//!
//! Recording cost follows the `cer-obs` model: one relaxed atomic add
//! per histogram sample; the journal takes a short mutex on *events*
//! (parks, drops, churn), which are orders of magnitude rarer than
//! tuples.

use crate::error::ErrorCode;
use crate::runtime::QueryId;
use cer_obs::{Counter, Histogram, Journal, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many [`PipelineEvent`]s the journal retains before overwriting
/// the oldest (overwrites are counted, never silent).
pub const EVENT_JOURNAL_CAPACITY: usize = 1024;

/// A structured, position-stamped pipeline event. Drained via
/// [`Runtime::events`](crate::runtime::Runtime::events); each entry
/// additionally carries the journal's own dense sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineEvent {
    /// A producer parked for backpressure on a shard queue
    /// ([`BackpressurePolicy::Block`](crate::ingest::BackpressurePolicy)),
    /// recorded once it unparked, with the park duration.
    ProducerParked {
        /// The shard whose queue was full.
        shard: usize,
        /// Start of the position block the producer had just staged.
        position: u64,
        /// How long it parked, in nanoseconds.
        park_nanos: u64,
    },
    /// A shard queue shed tuples under
    /// [`BackpressurePolicy::DropNewest`](crate::ingest::BackpressurePolicy).
    TuplesDropped {
        /// The shard that dropped.
        shard: usize,
        /// Start of the position block the drop occurred in.
        position: u64,
        /// Tuples shed.
        count: u64,
    },
    /// A time-window clock clamped out-of-order timestamps (the stream
    /// violated the non-decreasing-timestamp contract; see
    /// [`crate::window`]).
    TsRegressions {
        /// The shard that observed the regression.
        shard: usize,
        /// The affected query.
        query: QueryId,
        /// Position of the last tuple in the evaluated batch.
        position: u64,
        /// New clamps observed in that batch.
        count: u64,
    },
    /// A query was registered.
    QueryRegistered {
        /// The new query's id.
        query: QueryId,
        /// Stream position of the registration fence.
        position: u64,
    },
    /// A query was deregistered.
    QueryDeregistered {
        /// The removed query's id.
        query: QueryId,
        /// Stream position of the deregistration fence.
        position: u64,
    },
    /// A query's automaton was hot-swapped in place
    /// ([`Runtime::replace`](crate::runtime::Runtime::replace)).
    QueryReplaced {
        /// The swapped query's id.
        query: QueryId,
        /// Stream position of the swap fence.
        position: u64,
    },
    /// An epoch-consistent snapshot was captured.
    SnapshotTaken {
        /// The snapshot's epoch position.
        position: u64,
    },
    /// A runtime was rebuilt from a snapshot.
    Restored {
        /// The resumed stream position.
        position: u64,
        /// The restored runtime's shard count.
        shards: usize,
    },
    /// The runtime was live-resharded in place
    /// ([`Runtime::rescale`](crate::runtime::Runtime::rescale)).
    Rescale {
        /// Shard count before the rescale.
        from: usize,
        /// Shard count after the rescale.
        to: usize,
        /// Stream position of the rescale fence: every tuple stamped
        /// below it was evaluated by the old worker set, everything at
        /// or above by the new one.
        fence_pos: u64,
        /// Fence-to-resume wall time, in nanoseconds.
        nanos: u64,
    },
    /// The autoscale controller decided to change the shard count (the
    /// matching [`Rescale`](Self::Rescale) event follows once the move
    /// completes). Hold decisions are not journaled.
    AutoscaleDecision {
        /// Shard count at decision time.
        from: usize,
        /// The target shard count.
        to: usize,
        /// The stream position when the decision was made.
        position: u64,
    },
    /// The pipeline shut down (queues closed, workers draining out).
    Shutdown {
        /// The last stamped position at shutdown.
        position: u64,
    },
    /// WAL recovery truncated a torn tail (a record cut mid-write by
    /// the crash) off a segment.
    WalTornTail {
        /// The recovered stream position (after replay).
        position: u64,
        /// Bytes dropped from the segment.
        bytes_dropped: u64,
    },
    /// The active WAL segment was rolled at a checkpoint or rescale
    /// fence.
    WalRolled {
        /// The fence's stream position.
        position: u64,
    },
    /// A WAL append failed: logging is disabled from here on
    /// (fail-open), the runtime keeps serving from memory.
    WalFailed {
        /// Start of the position block whose append failed.
        position: u64,
        /// Why it failed: [`ErrorCode::WalIo`] for the disk, a wire
        /// code for a record that would not encode.
        code: ErrorCode,
    },
    /// A checkpoint failed after the runtime's durability was checked
    /// ([`Runtime::checkpoint`](crate::runtime::Runtime::checkpoint));
    /// the previous checkpoint stays the recovery point.
    CheckpointFailed {
        /// The runtime's next stamping position when it failed.
        position: u64,
        /// Why: [`ErrorCode::WalIo`] for the disk, a wire code for a
        /// state that would not encode.
        code: ErrorCode,
    },
    /// A checkpoint was written and committed to the manifest; WAL
    /// segments it covers were truncated.
    CheckpointWritten {
        /// The checkpoint's epoch cut position.
        position: u64,
        /// The checkpoint's epoch number.
        epoch: u64,
        /// Bytes written to the checkpoint file.
        bytes: u64,
        /// Whether it was a full (chain-base) checkpoint.
        full: bool,
    },
    /// The runtime was rebuilt from disk
    /// ([`Runtime::recover`](crate::runtime::Runtime::recover)): latest
    /// checkpoint restored, WAL suffix replayed.
    Recovered {
        /// The recovered stream position (stamping resumes here).
        position: u64,
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
    },
}

impl PipelineEvent {
    /// The stream position the event is stamped with.
    pub fn position(&self) -> u64 {
        match self {
            PipelineEvent::ProducerParked { position, .. }
            | PipelineEvent::TuplesDropped { position, .. }
            | PipelineEvent::TsRegressions { position, .. }
            | PipelineEvent::QueryRegistered { position, .. }
            | PipelineEvent::QueryDeregistered { position, .. }
            | PipelineEvent::QueryReplaced { position, .. }
            | PipelineEvent::SnapshotTaken { position }
            | PipelineEvent::Restored { position, .. }
            | PipelineEvent::AutoscaleDecision { position, .. }
            | PipelineEvent::Shutdown { position }
            | PipelineEvent::WalTornTail { position, .. }
            | PipelineEvent::WalRolled { position }
            | PipelineEvent::WalFailed { position, .. }
            | PipelineEvent::CheckpointFailed { position, .. }
            | PipelineEvent::CheckpointWritten { position, .. }
            | PipelineEvent::Recovered { position, .. } => *position,
            PipelineEvent::Rescale { fence_pos, .. } => *fence_pos,
        }
    }
}

/// How an exported metric is read off its source `T`, and as which
/// Prometheus kind.
pub(crate) enum MetricRead<T: 'static> {
    Counter(fn(&T) -> u64),
    Gauge(fn(&T) -> u64),
    Histogram(fn(&T) -> &Histogram),
}

/// One exported metric, stated once next to the thing it reads:
/// `(name, help text, kind + reader)`. The export
/// ([`Runtime::metrics_snapshot`](crate::runtime::Runtime::metrics_snapshot))
/// is a loop over tables of these.
pub(crate) type MetricRow<T> = (&'static str, &'static str, MetricRead<T>);

/// Export a table metric-major: each row once per `(labels, source)`
/// item, so same-name samples stay adjacent (one uninterrupted group
/// per name, as the Prometheus text format requires).
pub(crate) fn export_rows<T>(
    out: &mut MetricsSnapshot,
    rows: &[MetricRow<T>],
    items: &[(Vec<(&str, String)>, &T)],
) {
    for (name, help, read) in rows {
        for (labels, src) in items {
            match read {
                MetricRead::Counter(f) => out.push_counter(name, help, labels, f(src)),
                MetricRead::Gauge(f) => out.push_gauge(name, help, labels, f(src)),
                MetricRead::Histogram(f) => {
                    out.push_histogram(name, help, labels, f(src).snapshot())
                }
            }
        }
    }
}

/// Per-shard evaluation-stage histograms, recorded by that shard's
/// worker thread.
#[derive(Default)]
pub(crate) struct ShardStageMetrics {
    /// Whole drained-batch evaluation time (selection + every hosted
    /// query).
    pub eval: Histogram,
    /// Shared-prefilter phase across all evaluations on this shard.
    pub prefilter: Histogram,
    /// The fire/index/enumerate tail, split from the prefilter.
    pub eval_tail: Histogram,
}

impl ShardStageMetrics {
    /// Exported per shard (label `shard`).
    pub const ROWS: &'static [MetricRow<Self>] = &[
        (
            "cer_shard_eval_nanos",
            "Whole drained-batch evaluation time per shard",
            MetricRead::Histogram(|s| &s.eval),
        ),
        (
            "cer_shared_prefilter_nanos",
            "Shared-prefilter phase of batch evaluation per shard",
            MetricRead::Histogram(|s| &s.prefilter),
        ),
        (
            "cer_eval_tail_nanos",
            "Fire/index/enumerate tail of batch evaluation per shard",
            MetricRead::Histogram(|s| &s.eval_tail),
        ),
    ];
}

/// The per-runtime metrics registry. Lives inside the ingest pipeline's
/// shared state so producers, shard workers and the control plane all
/// record into the same instance.
pub(crate) struct PipelineMetrics {
    /// Sequencer position-block reservation latency.
    pub seq_reserve: Histogram,
    /// Producer park duration under `Block` backpressure (recorded only
    /// when the producer actually parked).
    pub producer_park: Histogram,
    /// Park episodes (histogram count equals this; kept as a cheap
    /// counter for export).
    pub parks: Counter,
    /// Tuples shed under `DropNewest`, summed across shards.
    pub drops: Counter,
    /// End-to-end ingest→match-delivery latency (sampled).
    pub e2e: Histogram,
    /// Per-shard capture + encode stall of snapshot fences. Untouched
    /// by `Runtime::rescale` — the rescale path never serializes, and
    /// the zero-wire test pins that by asserting this stays empty.
    pub snapshot_serialize: Histogram,
    /// Wall-clock duration of `Runtime::restore` calls that built this
    /// runtime (at most one sample, on the restored runtime).
    pub restore: Histogram,
    /// Fence-to-resume duration of `Runtime::rescale` calls.
    pub rescale: Histogram,
    /// WAL fsync latency (one sample per group-commit sync).
    pub wal_fsync: Histogram,
    /// Bytes appended to the WAL.
    pub wal_bytes: Counter,
    /// Records appended to the WAL.
    pub wal_records: Counter,
    /// Size of the last checkpoint relative to the uncompressed state
    /// it captured, in basis points (10_000 = no delta savings; 0 = no
    /// checkpoint yet). A gauge, not a counter.
    pub ckpt_delta_ratio_bp: AtomicU64,
    /// Per-shard evaluation-stage histograms. Behind a mutex (locked
    /// only at construction, rescale and metrics export — workers hold
    /// their own `Arc` and record lock-free) because a rescale swaps in
    /// a fresh set sized for the new worker count.
    pub shards: std::sync::Mutex<Vec<std::sync::Arc<ShardStageMetrics>>>,
    /// The bounded event journal.
    pub journal: Journal<PipelineEvent>,
    e2e_ticks: AtomicU64,
    e2e_sample_every: AtomicU64,
}

impl PipelineMetrics {
    pub fn new(n_shards: usize, journal_capacity: usize, e2e_sample_every: u64) -> Self {
        PipelineMetrics {
            seq_reserve: Histogram::new(),
            producer_park: Histogram::new(),
            parks: Counter::new(),
            drops: Counter::new(),
            e2e: Histogram::new(),
            snapshot_serialize: Histogram::new(),
            restore: Histogram::new(),
            rescale: Histogram::new(),
            wal_fsync: Histogram::new(),
            wal_bytes: Counter::new(),
            wal_records: Counter::new(),
            ckpt_delta_ratio_bp: AtomicU64::new(0),
            shards: std::sync::Mutex::new(
                (0..n_shards)
                    .map(|_| std::sync::Arc::new(ShardStageMetrics::default()))
                    .collect(),
            ),
            journal: Journal::new(journal_capacity.max(1)),
            e2e_ticks: AtomicU64::new(0),
            e2e_sample_every: AtomicU64::new(e2e_sample_every.max(1)),
        }
    }

    /// How many of the next `n` delivered matches contribute an e2e
    /// sample: every `sample_every`-th match in global delivery order
    /// does. One relaxed `fetch_add` per delivered chunk; the
    /// histograms stay unbiased under uniform sampling because every
    /// percentile is a ratio of bucket counts.
    #[inline]
    pub fn e2e_samples(&self, n: u64) -> u64 {
        let every = self.e2e_sample_every.load(Ordering::Relaxed).max(1);
        let first = self.e2e_ticks.fetch_add(n, Ordering::Relaxed);
        (first + n).div_ceil(every) - first.div_ceil(every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_sampling_period_is_respected() {
        let m = PipelineMetrics::new(1, EVENT_JOURNAL_CAPACITY, 4);
        let sampled: u64 = (0..16).map(|_| m.e2e_samples(1)).sum();
        assert_eq!(sampled, 4);
        // A chunk samples exactly the ticks it covers: 16..26 holds
        // 16, 20 and 24.
        assert_eq!(m.e2e_samples(10), 3);
        assert_eq!(m.e2e_samples(2), 0);
        assert_eq!(m.e2e_samples(1), 1);
        // 0 is clamped to 1: every match samples.
        let m = PipelineMetrics::new(1, EVENT_JOURNAL_CAPACITY, 0);
        assert_eq!(m.e2e_samples(5), 5);
    }

    #[test]
    fn event_positions_are_extracted_uniformly() {
        let ev = PipelineEvent::SnapshotTaken { position: 42 };
        assert_eq!(ev.position(), 42);
        let ev = PipelineEvent::ProducerParked {
            shard: 1,
            position: 7,
            park_nanos: 100,
        };
        assert_eq!(ev.position(), 7);
    }
}
