//! Observability-layer tests: the pipeline's latency histograms, the
//! structured event journal, the metrics export surface, and the
//! monotone-since-start contract of [`QueueStats`].
//!
//! The differential property at the bottom re-runs the runtime-vs-
//! independent-evaluator comparison *with the instrumentation active*
//! (e2e sampling on, stats and text export exercised mid-flight), so
//! any observer effect on outputs would fail the same assertions the
//! uninstrumented suite makes.

use pcea::common::wire::{Wire, WireReader, WireWriter};
use pcea::engine::EngineStats;
use pcea::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Deterministic dense stream over all relations of `schema`.
fn mixed_stream(schema: &Schema, n: usize) -> Vec<Tuple> {
    let rels: Vec<_> = schema.relations().collect();
    (0..n)
        .map(|i| {
            let rel = rels[(i * 7 + 3) % rels.len()];
            let arity = schema.arity(rel);
            let values = (0..arity)
                .map(|k| Value::Int(((i * 13 + k * 5 + 1) % 3) as i64))
                .collect();
            Tuple::new(rel, values)
        })
        .collect()
}

/// σ0 schema (T/1, S/2, R/2).
fn sigma0_schema() -> (
    Schema,
    pcea::common::RelationId,
    pcea::common::RelationId,
    pcea::common::RelationId,
) {
    let mut schema = Schema::new();
    let t = schema.add_relation("T", 1).unwrap();
    let s = schema.add_relation("S", 2).unwrap();
    let r = schema.add_relation("R", 2).unwrap();
    (schema, r, s, t)
}

/// σ0-shaped variant with the S-branch tightened to `y ≥ threshold`.
fn sigma0_variant(
    r: pcea::common::RelationId,
    s: pcea::common::RelationId,
    t: pcea::common::RelationId,
    threshold: i64,
) -> Pcea {
    let dot = LabelSet::singleton(Label(0));
    let mut b = PceaBuilder::new(1);
    let q0 = b.add_state();
    let q1 = b.add_state();
    let q2 = b.add_state();
    b.add_initial_transition(UnaryPredicate::Relation(t), dot, q0);
    b.add_initial_transition(
        UnaryPredicate::Relation(s).and(UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Ge,
            value: Value::Int(threshold),
        }),
        dot,
        q1,
    );
    b.add_transition(
        vec![
            (q0, EqPredicate::on_positions(t, [0usize], r, [0usize])),
            (
                q1,
                EqPredicate::on_positions(s, [0usize, 1], r, [0usize, 1]),
            ),
        ],
        UnaryPredicate::Relation(r),
        dot,
        q2,
    );
    b.mark_final(q2);
    b.build()
}

/// Interleaved T/S/R triples with matching join values: under a count
/// window ≥ 3, every triple whose `y` passes the S-branch threshold
/// completes at least one σ0 match. Keys (`x`) spread over 16 values so
/// key-partitioned queries keep every shard busy.
fn triple_stream(
    r: pcea::common::RelationId,
    s: pcea::common::RelationId,
    t: pcea::common::RelationId,
    n_triples: usize,
) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(n_triples * 3);
    for j in 0..n_triples {
        let x = Value::Int((j % 16) as i64);
        let y = Value::Int((j % 5) as i64);
        out.push(Tuple::new(t, vec![x.clone()]));
        out.push(Tuple::new(s, vec![x.clone(), y.clone()]));
        out.push(Tuple::new(r, vec![x, y]));
    }
    out
}

/// A single-relation match-everything automaton: every `rel` tuple is a
/// match (maximum delivery pressure per ingested tuple).
fn match_all(rel: pcea::common::RelationId) -> Pcea {
    let dot = LabelSet::singleton(Label(0));
    let mut b = PceaBuilder::new(1);
    let q0 = b.add_state();
    b.add_initial_transition(UnaryPredicate::Relation(rel), dot, q0);
    b.mark_final(q0);
    b.build()
}

/// Sorted `(position, valuation)` multiset of one per-query evaluator.
fn single_engine_outputs(
    pcea: &Pcea,
    window: WindowPolicy,
    stream: &[Tuple],
) -> Vec<(u64, Valuation)> {
    let mut engine = StreamingEvaluator::with_window(pcea.clone(), window);
    let mut out = Vec::new();
    for (n, t) in stream.iter().enumerate() {
        for v in engine.push_collect(t) {
            out.push((n as u64, v));
        }
    }
    out.sort();
    out
}

/// Sorted `(position, valuation)` multiset of one query's runtime events.
fn runtime_outputs(events: &[MatchEvent], q: QueryId) -> Vec<(u64, Valuation)> {
    let mut out: Vec<(u64, Valuation)> = events
        .iter()
        .filter(|e| e.query == q)
        .map(|e| (e.position, e.valuation.clone()))
        .collect();
    out.sort();
    out
}

/// Extract a histogram metric from a snapshot or panic with the name.
fn hist(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    match &snap
        .get(name, labels)
        .unwrap_or_else(|| panic!("metric {name} {labels:?} missing"))
        .value
    {
        MetricValue::Histogram(h) => h.clone(),
        other => panic!("metric {name}: expected histogram, got {other:?}"),
    }
}

/// Extract a counter or gauge value from a snapshot.
fn scalar(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match &snap
        .get(name, labels)
        .unwrap_or_else(|| panic!("metric {name} {labels:?} missing"))
        .value
    {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
        other => panic!("metric {name}: expected scalar, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Histograms + export surface
// ---------------------------------------------------------------------

/// A synchronous multi-shard workload populates the stage histograms,
/// and the export surface holds together: non-zero percentiles, a text
/// exposition the checker accepts, and a lossless wire round-trip.
#[test]
fn stage_histograms_populate_and_export_is_valid() {
    let (_schema, r, s, t) = sigma0_schema();
    let stream = triple_stream(r, s, t, 200);
    let mut rt = Runtime::new(4);
    for (i, th) in [0i64, 1, 2].iter().enumerate() {
        rt.register(
            QuerySpec::new(
                format!("v{i}"),
                sigma0_variant(r, s, t, *th),
                WindowPolicy::Count(32),
            )
            .with_partition(Partition::ByKey { pos: 0 }),
        )
        .unwrap();
    }
    let events = rt.push_batch(&stream);
    assert!(!events.is_empty(), "the workload must produce matches");

    let snap = rt.metrics_snapshot();
    let queues = rt.stats().shard_queues;
    // The sequencer stamped every push_batch block.
    let reserve = hist(&snap, "cer_seq_reserve_nanos", &[]);
    assert!(reserve.count() > 0);
    assert!(reserve.p50() > 0, "nanosecond spans can't be zero");
    assert!(reserve.p99() >= reserve.p50());
    assert!(reserve.max() >= reserve.p99());
    // Every shard that received tuples evaluated batches, split into
    // prefilter and tail spans (16 keys over 4 shards: all of them, in
    // practice, but only drained shards are required to have timings).
    let mut eval_total = 0;
    let mut active = 0;
    for (i, queue) in queues.iter().enumerate() {
        if queue.drained_tuples == 0 {
            continue;
        }
        active += 1;
        let shard = i.to_string();
        let labels = [("shard", shard.as_str())];
        let eval = hist(&snap, "cer_shard_eval_nanos", &labels);
        assert!(
            eval.count() > 0,
            "shard {i} drained tuples but timed no eval"
        );
        assert!(eval.p50() > 0);
        eval_total += eval.count();
        assert!(hist(&snap, "cer_shared_prefilter_nanos", &labels).count() > 0);
        assert!(hist(&snap, "cer_eval_tail_nanos", &labels).count() > 0);
        assert!(hist(&snap, "cer_queue_wait_nanos", &labels).count() > 0);
    }
    assert!(active >= 1, "no shard saw any tuple");
    // Matches were delivered, so delivery + (default every-match) e2e
    // histograms saw samples.
    assert!(hist(&snap, "cer_delivery_nanos", &[]).count() > 0);
    let e2e = hist(&snap, "cer_e2e_nanos", &[]);
    assert_eq!(e2e.count(), events.len() as u64);
    assert!(e2e.p99() >= e2e.p50() && e2e.p50() > 0);

    // Merging per-shard eval histograms preserves the total count.
    let mut merged = HistogramSnapshot::default();
    for i in 0..4 {
        let shard = i.to_string();
        merged.merge(&hist(
            &snap,
            "cer_shard_eval_nanos",
            &[("shard", shard.as_str())],
        ));
    }
    assert_eq!(merged.count(), eval_total);

    // The text exposition passes the format checker and mentions every
    // family we export.
    let text = rt.metrics_text();
    validate_prometheus_text(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for family in [
        "cer_seq_reserve_nanos",
        "cer_shard_eval_nanos",
        "cer_e2e_nanos",
        "cer_queue_depth",
        "cer_query_positions_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "{family} not exported"
        );
    }

    // The snapshot round-trips through the checkpoint wire format.
    let mut w = WireWriter::new();
    snap.encode(&mut w).unwrap();
    let bytes = w.into_bytes();
    let mut rdr = WireReader::new(&bytes);
    let back = MetricsSnapshot::decode(&mut rdr).unwrap();
    assert!(rdr.is_exhausted());
    assert_eq!(back, snap);
}

/// The e2e span is sampled every Nth delivered match; the knob thins
/// exactly, and the other histograms are unaffected.
#[test]
fn e2e_sampling_knob_thins_recording() {
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 1).unwrap();
    let mut rt = Runtime::new(RuntimeConfig::new(1).with_e2e_sample_every(4));
    rt.register(QuerySpec::new("all", match_all(e), WindowPolicy::Count(4)))
        .unwrap();
    let stream: Vec<Tuple> = (0..100)
        .map(|i| Tuple::new(e, vec![Value::Int(i as i64)]))
        .collect();
    let events = rt.push_batch(&stream);
    assert_eq!(events.len(), 100);
    let snap = rt.metrics_snapshot();
    // Ticks 0, 4, 8, … of the 100 delivered matches were sampled.
    assert_eq!(hist(&snap, "cer_e2e_nanos", &[]).count(), 25);
    // Delivery timing is not thinned by the e2e knob: it has one sample
    // per publish call, and the one drained batch's 100 matches (fewer
    // than a chunk) left the shard in a single call.
    assert_eq!(hist(&snap, "cer_delivery_nanos", &[]).count(), 1);
}

// ---------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------

/// Control-plane events land in the journal in call order, with dense
/// sequence numbers and non-decreasing stream positions; a second drain
/// is empty and nothing was overwritten.
#[test]
fn journal_orders_control_events() {
    let (schema, r, s, t) = sigma0_schema();
    let stream = mixed_stream(&schema, 100);
    let mut rt = Runtime::new(2);
    let q1 = rt
        .register(QuerySpec::new(
            "one",
            sigma0_variant(r, s, t, 0),
            WindowPolicy::Count(16),
        ))
        .unwrap();
    let q2 = rt
        .register(QuerySpec::new(
            "two",
            sigma0_variant(r, s, t, 1),
            WindowPolicy::Count(16),
        ))
        .unwrap();
    rt.push_batch(&stream);
    let _snap = rt.snapshot().unwrap();
    rt.replace(
        q2,
        QuerySpec::new(
            "two_v2",
            sigma0_variant(r, s, t, 2),
            WindowPolicy::Count(16),
        ),
    )
    .unwrap();
    rt.deregister(q1).unwrap();

    let entries = rt.events();
    // Dense journal sequence numbers from 0.
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "journal seqs must be dense");
    }
    // Stream positions never regress along the journal (count windows,
    // ample queue capacity: only single-threaded control events here).
    for w in entries.windows(2) {
        assert!(
            w[0].item.position() <= w[1].item.position(),
            "positions regressed: {:?} then {:?}",
            w[0].item,
            w[1].item
        );
    }
    let kinds: Vec<&PipelineEvent> = entries.iter().map(|e| &e.item).collect();
    assert!(
        matches!(kinds[0], PipelineEvent::QueryRegistered { query, position: 0 } if *query == q1)
    );
    assert!(
        matches!(kinds[1], PipelineEvent::QueryRegistered { query, position: 0 } if *query == q2)
    );
    assert!(matches!(
        kinds[2],
        PipelineEvent::SnapshotTaken { position: 100 }
    ));
    assert!(
        matches!(kinds[3], PipelineEvent::QueryReplaced { query, position: 100 } if *query == q2)
    );
    assert!(
        matches!(kinds[4], PipelineEvent::QueryDeregistered { query, position: 100 } if *query == q1)
    );
    assert_eq!(entries.len(), 5);
    assert_eq!(rt.events_overwritten(), 0);
    // Drain is destructive: the journal is now empty.
    assert!(rt.events().is_empty());
    // A restored runtime journals the restore itself.
    drop(rt);
    let rt2 = Runtime::restore(&_snap, 3).unwrap();
    let restored = rt2.events();
    assert!(restored.iter().any(|e| matches!(
        e.item,
        PipelineEvent::Restored {
            position: 100,
            shards: 3
        }
    )));
    let snap2 = rt2.metrics_snapshot();
    assert!(hist(&snap2, "cer_restore_nanos", &[]).count() > 0);
}

/// Overflowing the bounded journal overwrites the oldest entries and
/// counts every overwrite; the survivors' dense seqs expose the gap.
#[test]
fn journal_counts_ring_overwrites() {
    let (_schema, r, s, t) = sigma0_schema();
    let mut rt = Runtime::new(1);
    // 520 register+deregister cycles = 1040 events > the 1024-slot ring.
    for i in 0..520 {
        let id = rt
            .register(QuerySpec::new(
                format!("churn{i}"),
                sigma0_variant(r, s, t, i as i64 % 3),
                WindowPolicy::Count(8),
            ))
            .unwrap();
        rt.deregister(id).unwrap();
    }
    assert_eq!(rt.events_overwritten(), 16);
    let entries = rt.events();
    assert_eq!(entries.len(), 1024);
    // The oldest 16 events are gone; the survivors start at seq 16 and
    // stay dense to the last push.
    assert_eq!(entries.first().unwrap().seq, 16);
    assert_eq!(entries.last().unwrap().seq, 1039);
    for w in entries.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
    let snap = rt.metrics_snapshot();
    assert_eq!(scalar(&snap, "cer_events_pushed_total", &[]), 1040);
    assert_eq!(scalar(&snap, "cer_events_overwritten_total", &[]), 16);
}

/// DropNewest sheds are journaled with their shard and position, and
/// surface in the drop counters.
#[test]
fn drops_are_journaled_and_counted() {
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 1).unwrap();
    let mut rt = Runtime::new(RuntimeConfig::new(1).with_ingest(IngestConfig {
        queue_capacity: 8,
        policy: BackpressurePolicy::DropNewest,
        ..IngestConfig::default()
    }));
    rt.register(QuerySpec::new("all", match_all(e), WindowPolicy::Count(4)))
        .unwrap();
    let h = rt.ingest_handle();
    let big: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new(e, vec![Value::Int(i as i64)]))
        .collect();
    h.push_batch(&big).unwrap();
    rt.drain();
    let dropped = h.total_dropped();
    assert!(dropped > 0, "a 200-tuple burst must overflow capacity 8");
    let journaled: u64 = rt
        .events()
        .iter()
        .filter_map(|e| match e.item {
            PipelineEvent::TuplesDropped {
                shard: 0, count, ..
            } => Some(count),
            _ => None,
        })
        .sum();
    assert_eq!(journaled, dropped, "every shed tuple is journaled");
    let snap = rt.metrics_snapshot();
    assert_eq!(scalar(&snap, "cer_tuples_dropped_total", &[]), dropped);
    assert_eq!(
        scalar(&snap, "cer_queue_dropped_total", &[("shard", "0")]),
        dropped
    );
}

/// Under Block backpressure with a slow consumer, producers park; the
/// parks are journaled with their duration and counted, and the park
/// histogram agrees.
#[test]
fn producer_parks_are_journaled_under_backpressure() {
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 1).unwrap();
    let mut rt = Runtime::new(RuntimeConfig::new(1).with_ingest(IngestConfig {
        queue_capacity: 4,
        policy: BackpressurePolicy::Block,
        ..IngestConfig::default()
    }));
    let q = rt
        .register(QuerySpec::new("all", match_all(e), WindowPolicy::Count(4)))
        .unwrap();
    // A 1-slot blocking subscription: the shard worker parks on the
    // second undrained match, the 4-tuple queue fills behind it, and
    // the producer parks in turn.
    let sub = rt.subscribe_with(SubscriptionFilter::Query(q), 1, BackpressurePolicy::Block);
    let h = rt.ingest_handle();
    let n = 64u64;
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            h.push(&Tuple::new(e, vec![Value::Int(i as i64)])).unwrap();
        }
    });
    // Let the backlog form, then drain slowly enough to keep it formed.
    std::thread::sleep(Duration::from_millis(50));
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = 0u64;
    while got < n {
        assert!(
            Instant::now() < deadline,
            "only {got}/{n} matches delivered"
        );
        if sub.recv_timeout(Duration::from_secs(1)).is_some() {
            got += 1;
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    producer.join().unwrap();
    rt.drain();

    let parks = rt
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.item,
                PipelineEvent::ProducerParked { shard: 0, park_nanos, .. } if park_nanos > 0
            )
        })
        .count() as u64;
    assert!(parks > 0, "the producer never parked");
    let snap = rt.metrics_snapshot();
    assert_eq!(scalar(&snap, "cer_producer_parks_total", &[]), parks);
    let park_hist = hist(&snap, "cer_producer_park_nanos", &[]);
    assert_eq!(park_hist.count(), parks);
    assert!(park_hist.p50() > 0);
    // The queue spent real time at capacity.
    assert_eq!(scalar(&snap, "cer_queue_high_water", &[("shard", "0")]), 4);
}

// ---------------------------------------------------------------------
// Stats contracts
// ---------------------------------------------------------------------

/// The per-shard engine-stats breakdown sums exactly to the per-query
/// totals, shard ids are valid and strictly increasing per query.
#[test]
fn per_query_shard_breakdown_sums_to_totals() {
    let (_schema, r, s, t) = sigma0_schema();
    let stream = triple_stream(r, s, t, 100);
    let shards = 4;
    let mut rt = Runtime::new(shards);
    rt.register(QuerySpec::new(
        "pinned",
        sigma0_variant(r, s, t, 0),
        WindowPolicy::Count(16),
    ))
    .unwrap();
    rt.register(
        QuerySpec::new("keyed", sigma0_variant(r, s, t, 1), WindowPolicy::Count(16))
            .with_partition(Partition::ByKey { pos: 0 }),
    )
    .unwrap();
    rt.push_batch(&stream);
    let stats = rt.stats();
    assert_eq!(stats.per_query.len(), stats.per_query_shards.len());
    for ((id, total), (bid, breakdown)) in stats.per_query.iter().zip(&stats.per_query_shards) {
        assert_eq!(id, bid, "breakdown is sorted like the totals");
        assert!(!breakdown.is_empty());
        let mut acc = EngineStats::default();
        for w in breakdown.windows(2) {
            assert!(w[0].0 < w[1].0, "shard ids strictly increasing");
        }
        for (shard, st) in breakdown {
            assert!(*shard < shards);
            acc.positions += st.positions;
            acc.arena_nodes += st.arena_nodes;
            acc.index_entries += st.index_entries;
            acc.extends += st.extends;
            acc.unions += st.unions;
            acc.collections += st.collections;
            acc.ts_regressions += st.ts_regressions;
        }
        assert_eq!(&acc, total, "shard breakdown must sum to the total");
    }
    // The keyed query is hosted on every shard and each saw tuples.
    let keyed = &stats.per_query_shards[1].1;
    assert_eq!(keyed.len(), shards);
    assert!(keyed.iter().all(|(_, st)| st.positions > 0));
}

/// The cumulative / high-water [`QueueStats`] fields are monotone
/// since start across repeated `stats()` calls — mid-flight and after
/// drains (regression test for the documented contract).
#[test]
fn queue_stats_are_monotone_since_start() {
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 1).unwrap();
    let mut rt = Runtime::new(RuntimeConfig::new(2).with_ingest(IngestConfig {
        queue_capacity: 16,
        policy: BackpressurePolicy::DropNewest,
        ..IngestConfig::default()
    }));
    rt.register(
        QuerySpec::new("all", match_all(e), WindowPolicy::Count(8))
            .with_partition(Partition::ByKey { pos: 0 }),
    )
    .unwrap();
    let h = rt.ingest_handle();
    let mut prev: Option<Vec<QueueStats>> = None;
    for round in 0..12 {
        // Vary burst size so drops, coalescing and reorder pressure all
        // move; sample both mid-flight and after a drain.
        let burst: Vec<Tuple> = (0..(8 + round * 7))
            .map(|i| Tuple::new(e, vec![Value::Int(i as i64)]))
            .collect();
        h.push_batch(&burst).unwrap();
        if round % 3 == 0 {
            rt.drain();
        }
        let cur = rt.stats().shard_queues;
        if let Some(prev) = &prev {
            for (shard, (p, c)) in prev.iter().zip(&cur).enumerate() {
                let ctx = |f: &str| format!("shard {shard} round {round}: {f} decreased");
                assert!(c.dropped >= p.dropped, "{}", ctx("dropped"));
                assert!(
                    c.drained_batches >= p.drained_batches,
                    "{}",
                    ctx("drained_batches")
                );
                assert!(
                    c.drained_tuples >= p.drained_tuples,
                    "{}",
                    ctx("drained_tuples")
                );
                assert!(
                    c.reorder_released >= p.reorder_released,
                    "{}",
                    ctx("reorder_released")
                );
                assert!(c.high_water >= p.high_water, "{}", ctx("high_water"));
                assert!(
                    c.max_drain_batch >= p.max_drain_batch,
                    "{}",
                    ctx("max_drain_batch")
                );
                assert!(
                    c.reorder_high_water >= p.reorder_high_water,
                    "{}",
                    ctx("reorder_high_water")
                );
            }
        }
        prev = Some(cur);
    }
    rt.drain();
    let last = rt.stats().shard_queues;
    let prev = prev.unwrap();
    for (p, c) in prev.iter().zip(&last) {
        assert!(c.drained_tuples >= p.drained_tuples);
        // Fully drained: the gauges may fall back to zero…
        assert_eq!(c.depth, 0);
        assert_eq!(c.reorder_pending, 0);
        // …but the water-marks must not.
        assert!(c.high_water >= p.high_water);
        assert!(c.reorder_high_water >= p.reorder_high_water);
    }
}

// ---------------------------------------------------------------------
// Differential: instrumentation does not perturb outputs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// With the full observability layer active (e2e sampling, stats
    /// polls and text exports mid-stream), a fleet of near-duplicate
    /// queries still produces, query for query, exactly the independent
    /// per-query evaluator's outputs — across shard counts, partition
    /// modes and window sizes.
    #[test]
    fn instrumented_runtime_matches_independent_evaluators(
        shards in 1usize..5,
        w in prop_oneof![Just(0u64), Just(3), Just(9), Just(1000)],
        keyed in any::<bool>(),
        sample_every in prop_oneof![Just(1u64), Just(3), Just(64)],
        thresholds in proptest::collection::vec(0i64..4, 1..7),
    ) {
        let (_schema, r, s, t) = sigma0_schema();
        let stream = triple_stream(r, s, t, 64);
        let mut rt = Runtime::new(RuntimeConfig::new(shards).with_e2e_sample_every(sample_every));
        let mut ids = Vec::new();
        for (i, &th) in thresholds.iter().enumerate() {
            let mut spec = QuerySpec::new(
                format!("v{i}"),
                sigma0_variant(r, s, t, th),
                WindowPolicy::Count(w),
            );
            if keyed {
                spec = spec.with_partition(Partition::ByKey { pos: 0 });
            }
            ids.push(rt.register(spec).unwrap());
        }
        // Interleave pushes with observer reads: the reads must not
        // perturb the outputs.
        let (head, tail) = stream.split_at(100);
        let mut events = rt.push_batch(head);
        let mid = rt.metrics_snapshot();
        prop_assert!(hist(&mid, "cer_seq_reserve_nanos", &[]).count() > 0);
        prop_assert!(validate_prometheus_text(&rt.metrics_text()).is_ok());
        events.extend(rt.push_batch(tail));
        for (&id, &th) in ids.iter().zip(&thresholds) {
            let want = single_engine_outputs(
                &sigma0_variant(r, s, t, th),
                WindowPolicy::Count(w),
                &stream,
            );
            prop_assert_eq!(runtime_outputs(&events, id), want);
        }
        // The instrumentation observed the whole run: every tuple went
        // through an evaluated batch on some shard.
        let end = rt.metrics_snapshot();
        let eval_batches: u64 = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                hist(&end, "cer_shard_eval_nanos", &[("shard", shard.as_str())]).count()
            })
            .sum();
        prop_assert!(eval_batches > 0);
        if !events.is_empty() {
            let expect = (events.len() as u64).div_ceil(sample_every.max(1));
            // Sampling is a global modulo over delivery order, so the
            // count is exact whatever the interleaving.
            prop_assert_eq!(hist(&end, "cer_e2e_nanos", &[]).count(), expect);
        }
        prop_assert!(validate_prometheus_text(&rt.metrics_text()).is_ok());
    }
}
