//! Time-based sliding windows: the engine extension for CER-style
//! timestamp windows on top of the paper's count windows.
//!
//! Ground truth is the reference semantics with a per-output check: a
//! match qualifies iff the timestamp of its earliest tuple is within
//! `duration` of the completing tuple's timestamp.

use pcea::automata::pcea::paper_p0;
use pcea::common::tuple::tup;
use pcea::engine::evaluator::WindowPolicy;
use pcea::prelude::*;

/// Build a σ0 stream with explicit timestamps in an extra leading burst
/// pattern: we reuse σ0 relations but treat attribute 0 of T and
/// attribute 0 of S/R as the join key; timestamps are synthesized
/// per-position for the oracle.
fn q0_engine() -> (Schema, Pcea) {
    let mut schema = Schema::new();
    // TS-carrying variants: first attribute is the timestamp.
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    (schema, pcea)
}

#[test]
fn time_window_expires_by_timestamp_not_position() {
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    // Timestamps: A@t=0, then a B@t=5 (in a 10-window), then a B@t=100
    // (expired for the A), then A@t=101, B@t=103.
    let stream = [
        tup(a, [0i64, 7]),
        tup(b, [5i64, 7]),
        tup(b, [100i64, 7]),
        tup(a, [101i64, 7]),
        tup(b, [103i64, 7]),
    ];
    let mut engine = StreamingEvaluator::new_timed(pcea, 10, 0);
    let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
    // pos1: A(0)×B(5) ✓. pos2: A(0) expired (100-0 > 10): 0 matches.
    // pos3: no match yet (A completes nothing alone... A(101) joins
    // B(100): within 10 ✓ → 1. pos4: B(103) joins A(101) ✓ 1 — and
    // B(100)? A(101)×B(100)... the engine outputs at the *completing*
    // tuple; at pos 3 the completing tuple is A(101) joining B(100).
    assert_eq!(counts, vec![0, 1, 0, 1, 1]);
}

#[test]
fn zero_duration_keeps_only_simultaneous() {
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream = [
        tup(a, [7i64, 1]),
        tup(b, [7i64, 1]), // same timestamp: allowed
        tup(b, [8i64, 1]), // one tick later: the A expired
    ];
    let mut engine = StreamingEvaluator::new_timed(pcea, 0, 0);
    let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
    assert_eq!(counts, vec![0, 1, 0]);
}

#[test]
fn out_of_order_timestamps_are_clamped_monotone() {
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream = [
        tup(a, [100i64, 1]),
        tup(b, [40i64, 1]), // stale clock: clamped to 100 → still joins
    ];
    let mut engine = StreamingEvaluator::new_timed(pcea, 10, 0);
    let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
    assert_eq!(counts, vec![0, 1]);
}

#[test]
fn huge_time_window_equals_count_window() {
    // With duration covering the whole stream, time and count windows
    // agree (both unrestricted).
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream: Vec<Tuple> = (0..40)
        .map(|i| {
            let rel = if i % 2 == 0 { a } else { b };
            tup(rel, [i as i64, (i % 3) as i64])
        })
        .collect();
    let mut timed = StreamingEvaluator::new_timed(pcea.clone(), i64::MAX / 2, 0);
    let mut counted = StreamingEvaluator::new(pcea, u64::MAX / 2);
    for t in &stream {
        let mut x = timed.push_collect(t);
        let mut y = counted.push_collect(t);
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }
}

#[test]
fn time_window_on_paper_p0_with_position_timestamps() {
    // When every tuple's timestamp equals its position, Time{d} and
    // Count(d) coincide. σ0 tuples carry no timestamp attribute, so
    // check the equivalent: a derived stream with ts = position.
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream: Vec<Tuple> = (0..60)
        .map(|i| {
            let rel = if (i / 3) % 2 == 0 { a } else { b };
            tup(rel, [i as i64, (i % 2) as i64])
        })
        .collect();
    for d in [0u64, 3, 7, 20] {
        let mut timed = StreamingEvaluator::new_timed(pcea.clone(), d as i64, 0);
        let mut counted = StreamingEvaluator::new(pcea.clone(), d);
        for t in &stream {
            assert_eq!(timed.push_count(t), counted.push_count(t), "d={d}");
        }
    }
    // And the policy accessor reports what was configured.
    let timed = StreamingEvaluator::new_timed(paper_p0_over(&schema), 5, 0);
    assert_eq!(
        timed.window(),
        &WindowPolicy::Time {
            duration: 5,
            ts_pos: 0
        }
    );
}

fn paper_p0_over(_schema: &Schema) -> Pcea {
    let (_, r, s, t) = Schema::sigma0();
    paper_p0(r, s, t)
}

/// A tuple with no integer at the timestamp position (here: no such
/// position at all, then a string in it) is handled like an
/// out-of-order one: clamped to the clock's latest timestamp and
/// counted, on the tuple-at-a-time and on the batch path — never a
/// panic, since such a tuple can come from a remote peer.
#[test]
fn missing_timestamp_is_clamped_and_counted() {
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let mut engine = StreamingEvaluator::new_timed(pcea.clone(), 10, 5); // bad ts_pos
    engine.push(&tup(a, [0i64, 7]));
    assert_eq!(engine.stats().ts_regressions, 1);

    // A(ts, x) then B(ts, x) within 10 time units; the B in the middle
    // carries a string where its timestamp belongs and is read as "now".
    let stream = [
        tup(a, [100i64, 7]),
        Tuple::new(b, vec![Value::Str("late".into()), Value::Int(7)]),
        tup(b, [105i64, 7]),
        tup(b, [111i64, 7]),
    ];
    let mut scalar = StreamingEvaluator::new_timed(pcea.clone(), 10, 0);
    let scalar_matches: usize = stream.iter().map(|t| scalar.push_count(t)).sum();
    let mut batched = StreamingEvaluator::new_timed(pcea, 10, 0);
    let batched_matches = batched.push_slice_count(&stream);
    // Positions 1 (clamped to 100) and 2 complete a match; 111 is out.
    assert_eq!(scalar_matches, 2);
    assert_eq!(batched_matches, 2);
    assert_eq!(scalar.stats().ts_regressions, 1);
    assert_eq!(batched.stats().ts_regressions, 1);
}

/// A contract-violating stream (out-of-order timestamps) is *detected*:
/// the clamp that keeps the clock monotone counts every regression into
/// `EngineStats::ts_regressions`, aggregated across shards in
/// `RuntimeStats` — the operator's signal that under `ByKey` sharding
/// outputs may have become shard-count-dependent (see the hazard note
/// in `cer_core::window`).
#[test]
fn ts_regressions_surface_in_engine_and_runtime_stats() {
    let (schema, pcea) = q0_engine();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    // Timestamps regress twice (10 → 4, 12 → 3).
    let stream = [
        tup(a, [10i64, 7]),
        tup(b, [4i64, 7]),
        tup(b, [12i64, 7]),
        tup(a, [3i64, 7]),
        tup(b, [13i64, 7]),
    ];
    let mut engine = StreamingEvaluator::new_timed(pcea.clone(), 10, 0);
    for t in &stream {
        engine.push(t);
    }
    assert_eq!(engine.stats().ts_regressions, 2);
    // A compliant stream reports zero.
    let mut clean = StreamingEvaluator::new_timed(pcea.clone(), 10, 0);
    for ts in [1i64, 2, 5, 9] {
        clean.push(&tup(a, [ts, 7]));
    }
    assert_eq!(clean.stats().ts_regressions, 0);
    // Through the runtime: each key-partitioned shard replica owns its
    // own clock, so the aggregate depends on how the violating stream
    // sharded — the counter must be non-zero whenever any clock clamped.
    assert!(pcea.supports_key_partition(1));
    for shards in [1usize, 2, 4] {
        let mut rt = Runtime::new(shards);
        rt.register(
            QuerySpec::new(
                "timed_keyed",
                pcea.clone(),
                WindowPolicy::Time {
                    duration: 10,
                    ts_pos: 0,
                },
            )
            .with_partition(Partition::ByKey { pos: 1 }),
        )
        .unwrap();
        rt.push_batch(&stream);
        let stats = rt.stats();
        assert!(
            stats.ts_regressions() > 0,
            "shards={shards}: the violation must be visible to operators"
        );
    }
}
