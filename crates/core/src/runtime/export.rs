//! The metrics export: [`Runtime::metrics_snapshot`] is a loop over
//! [`MetricRow`] tables. Each table lives next to the thing it reads —
//! [`ShardStageMetrics::ROWS`], [`ShardQueue::ROWS`],
//! [`QueueStats::ROWS`], [`EngineStats::ROWS`] — except the
//! pipeline-wide rows below, which read through the [`Runtime`] because
//! they span its metrics registry, its subscription registry and its
//! own counters.

use super::Runtime;
use crate::evaluator::EngineStats;
use crate::ingest::{QueueStats, ShardQueue};
use crate::metrics::MetricRead::{Counter, Gauge, Histogram};
use crate::metrics::{export_rows, MetricRow, ShardStageMetrics};
use cer_obs::MetricsSnapshot;
use std::sync::atomic::Ordering;

/// Pipeline-wide latency histograms (no labels).
const PIPELINE_HISTOGRAMS: &[MetricRow<Runtime>] = &[
    (
        "cer_seq_reserve_nanos",
        "Sequencer position-block reservation latency",
        Histogram(|rt| &rt.shared.metrics.seq_reserve),
    ),
    (
        "cer_producer_park_nanos",
        "Producer park duration under Block backpressure",
        Histogram(|rt| &rt.shared.metrics.producer_park),
    ),
    (
        "cer_e2e_nanos",
        "End-to-end ingest-to-delivery latency (sampled)",
        Histogram(|rt| &rt.shared.metrics.e2e),
    ),
    (
        "cer_delivery_nanos",
        "Latency of one publish call (one chunk of matches) across subscriber channels",
        Histogram(|rt| &rt.shared.subs.delivery),
    ),
    (
        "cer_snapshot_serialize_nanos",
        "Per-shard serialize stall of snapshot fences",
        Histogram(|rt| &rt.shared.metrics.snapshot_serialize),
    ),
    (
        "cer_restore_nanos",
        "Wall time of the restore that built this runtime",
        Histogram(|rt| &rt.shared.metrics.restore),
    ),
    (
        "cer_rescale_nanos",
        "Fence-to-resume duration of live rescales",
        Histogram(|rt| &rt.shared.metrics.rescale),
    ),
    (
        "cer_wal_fsync_nanos",
        "WAL fsync latency per group-commit sync",
        Histogram(|rt| &rt.shared.metrics.wal_fsync),
    ),
];

/// Pipeline-wide counters and gauges (no labels).
const PIPELINE_SCALARS: &[MetricRow<Runtime>] = &[
    (
        "cer_producer_parks_total",
        "Producer park episodes under Block backpressure",
        Counter(|rt| rt.shared.metrics.parks.get()),
    ),
    (
        "cer_tuples_dropped_total",
        "Tuples shed under DropNewest across shard queues",
        Counter(|rt| rt.shared.metrics.drops.get()),
    ),
    (
        "cer_events_pushed_total",
        "Pipeline events pushed to the journal",
        Counter(|rt| rt.shared.metrics.journal.pushed()),
    ),
    (
        "cer_events_overwritten_total",
        "Journal events overwritten before being drained",
        Counter(|rt| rt.shared.metrics.journal.overwritten()),
    ),
    (
        "cer_snapshots_taken_total",
        "Snapshots successfully taken",
        Counter(|rt| rt.snap_counters.snapshots_taken),
    ),
    (
        "cer_rescales_total",
        "Live rescales successfully completed",
        Counter(|rt| rt.rescale_counters.rescales),
    ),
    (
        "cer_wal_bytes_total",
        "Bytes appended to the write-ahead log",
        Counter(|rt| rt.shared.metrics.wal_bytes.get()),
    ),
    (
        "cer_wal_records_total",
        "Records appended to the write-ahead log",
        Counter(|rt| rt.shared.metrics.wal_records.get()),
    ),
    (
        "cer_checkpoint_delta_ratio_bp",
        "Last checkpoint's bytes as basis points of its full-state size",
        Gauge(|rt| {
            rt.shared
                .metrics
                .ckpt_delta_ratio_bp
                .load(Ordering::Relaxed)
        }),
    ),
];

/// One `(labels, source)` export item per shard, labelled `shard`.
fn per_shard<'a, T: 'a>(
    sources: impl IntoIterator<Item = &'a T>,
) -> Vec<(Vec<(&'static str, String)>, &'a T)> {
    let labelled = |(i, src): (usize, &'a T)| (vec![("shard", i.to_string())], src);
    sources.into_iter().enumerate().map(labelled).collect()
}

impl Runtime {
    /// A point-in-time [`MetricsSnapshot`] of every pipeline metric:
    /// stage latency histograms, queue occupancy gauges, per-query
    /// engine counters and journal counters. The snapshot is plain data
    /// — merge it, encode it over the wire
    /// ([`cer_common::wire::Wire`]), or render it with
    /// [`metrics_text`](Self::metrics_text).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let stages = self.shared.metrics.shards.lock().expect("metrics poisoned");
        let queues = self.shared.queues();
        let mut out = MetricsSnapshot::new();
        // Metric-major throughout, so the text exposition keeps one
        // contiguous group per metric name.
        export_rows(&mut out, PIPELINE_HISTOGRAMS, &[(Vec::new(), self)]);
        let stages = per_shard(stages.iter().map(|stage| &**stage));
        export_rows(&mut out, ShardStageMetrics::ROWS, &stages);
        let queues = per_shard(queues.iter().map(|queue| &**queue));
        export_rows(&mut out, ShardQueue::ROWS, &queues);
        export_rows(&mut out, PIPELINE_SCALARS, &[(Vec::new(), self)]);
        // The cumulative queue counters are monotone since start by
        // contract.
        export_rows(&mut out, QueueStats::ROWS, &per_shard(&stats.shard_queues));
        // Per-query engine counters, summed across shards.
        let per_query: Vec<_> = stats
            .per_query
            .iter()
            .map(|(id, st)| {
                let name = self.query_name(*id).unwrap_or_default().to_string();
                (vec![("query", id.0.to_string()), ("name", name)], st)
            })
            .collect();
        export_rows(&mut out, EngineStats::ROWS, &per_query);
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
