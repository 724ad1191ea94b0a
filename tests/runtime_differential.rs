//! Differential tests for the sharded multi-query `Runtime`: N queries
//! registered in one runtime must produce exactly the same outputs (as
//! multisets of `(position, valuation)`) as N independent per-query
//! `StreamingEvaluator`s fed the full stream — for every shard count,
//! both partition modes, and both window policies.
//!
//! The runtime evaluates hosted queries through the *shared* path
//! (skeleton groups + the per-shard predicate cache), so every test in
//! this file is also a differential check of that machinery against the
//! private single-query prefilter; the fleets of near-duplicate
//! variants below stress it specifically (exact duplicate predicates,
//! cross-query dedup, group churn through deregister/replace/restore).

use pcea::baselines::NaiveRunsEvaluator;
use pcea::prelude::*;
use proptest::prelude::*;

/// Deterministic dense stream over all relations of `schema`, one value
/// domain per attribute position.
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

/// A stream over few keys: every tuple's relation and values are drawn
/// from a fixed generator, values in `0..3`, so that T, S and R tuples
/// of σ0 join (in [`mixed_stream`] each relation keeps one key) and the
/// thresholds of [`sigma0_variant`] keep different S runs under a key.
fn joined_stream(schema: &Schema, n: usize) -> Vec<Tuple> {
    let rels: Vec<_> = schema.relations().collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    (0..n)
        .map(|_| {
            let rel = rels[next(rels.len())];
            let values = (0..schema.arity(rel))
                .map(|_| Value::Int(next(3) as i64))
                .collect();
            Tuple::new(rel, values)
        })
        .collect()
}

/// Sorted `(position, valuation)` multiset of one per-query evaluator
/// over the whole stream.
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

/// Count windows: four queries (two front-ends, both partition modes),
/// compared per shard count and window size.
#[test]
fn count_windows_match_independent_evaluators() {
    let mut schema = Schema::new();
    let q0 = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let q0_pcea = compile_hcq(&schema, &q0).unwrap().pcea;
    let star = parse_query(&mut schema, "QS(x, y1, y2) <- A0(x), A1(x, y1), A2(x, y2)").unwrap();
    let star_pcea = compile_hcq(&schema, &star).unwrap().pcea;
    let pat = pattern_to_pcea(&mut schema, "A(x) ; B(x)").unwrap().pcea;
    let stream = mixed_stream(&schema, 400);

    for w in [0u64, 3, 16, 1000] {
        for shards in [1usize, 2, 4, 8] {
            let mut rt = Runtime::new(shards);
            let specs = [
                ("q0_pinned", q0_pcea.clone(), Partition::ByQuery),
                ("q0_keyed", q0_pcea.clone(), Partition::ByKey { pos: 0 }),
                ("star_pinned", star_pcea.clone(), Partition::ByQuery),
                ("pat_keyed", pat.clone(), Partition::ByKey { pos: 0 }),
            ];
            let mut ids = Vec::new();
            for (name, pcea, partition) in &specs {
                let id = rt
                    .register(
                        QuerySpec::new(*name, pcea.clone(), WindowPolicy::Count(w))
                            .with_partition(*partition),
                    )
                    .unwrap();
                ids.push(id);
            }
            let events = rt.push_batch(&stream);
            for ((name, pcea, _), id) in specs.iter().zip(&ids) {
                let want = single_engine_outputs(pcea, WindowPolicy::Count(w), &stream);
                assert_eq!(
                    runtime_outputs(&events, *id),
                    want,
                    "{name}: w={w}, shards={shards}"
                );
            }
        }
    }
}

/// Time windows: timestamps are the (monotone) stream position, carried
/// in attribute 0 of every tuple.
#[test]
fn time_windows_match_independent_evaluators() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    // Joins are keyed on `x` (attribute 1), so the query may also be
    // key-partitioned on it.
    assert!(pcea.supports_key_partition(1));
    let stream: Vec<Tuple> = (0..300)
        .map(|i| {
            let rel = if (i / 3) % 2 == 0 { a } else { b };
            Tuple::new(rel, vec![Value::Int(i as i64), Value::Int((i % 3) as i64)])
        })
        .collect();

    for duration in [0i64, 4, 25, 10_000] {
        let window = WindowPolicy::Time {
            duration,
            ts_pos: 0,
        };
        for shards in [1usize, 3, 8] {
            let mut rt = Runtime::new(shards);
            let pinned = rt
                .register(QuerySpec::new("timed_pinned", pcea.clone(), window.clone()))
                .unwrap();
            let keyed = rt
                .register(
                    QuerySpec::new("timed_keyed", pcea.clone(), window.clone())
                        .with_partition(Partition::ByKey { pos: 1 }),
                )
                .unwrap();
            let events = rt.push_batch(&stream);
            let want = single_engine_outputs(&pcea, window.clone(), &stream);
            assert!(
                !want.is_empty() || duration == 0,
                "the workload must exercise the window"
            );
            for (name, id) in [("pinned", pinned), ("keyed", keyed)] {
                assert_eq!(
                    runtime_outputs(&events, id),
                    want,
                    "{name}: duration={duration}, shards={shards}"
                );
            }
        }
    }
}

/// The baselines share the runtime's trait surface: driving the naive
/// evaluator through `dyn Evaluator` agrees with the runtime's engine.
#[test]
fn trait_surface_compares_like_for_like() {
    let mut schema = Schema::new();
    let q0 = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let pcea = compile_hcq(&schema, &q0).unwrap().pcea;
    let stream = mixed_stream(&schema, 200);

    let mut rt = Runtime::new(3);
    let id = rt
        .register(QuerySpec::new("q0", pcea.clone(), WindowPolicy::Count(12)))
        .unwrap();
    let events = rt.push_batch(&stream);

    let mut baseline: Box<dyn Evaluator> = Box::new(NaiveRunsEvaluator::new(pcea, 12));
    let mut want = Vec::new();
    for (n, t) in stream.iter().enumerate() {
        for v in baseline.push_collect(t) {
            want.push((n as u64, v));
        }
    }
    want.sort();
    assert_eq!(runtime_outputs(&events, id), want);
}

/// Deregistration mid-stream: the removed query's matches stop at the
/// cut, the survivor is oblivious, and the final stats cover exactly
/// the prefix the query saw.
#[test]
fn deregistration_freezes_the_prefix() {
    let mut schema = Schema::new();
    let q0 = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let pcea = compile_hcq(&schema, &q0).unwrap().pcea;
    let stream = mixed_stream(&schema, 120);
    let (head, tail) = stream.split_at(60);
    let want_full = single_engine_outputs(&pcea, WindowPolicy::Count(9), &stream);
    let want_head: Vec<(u64, Valuation)> =
        want_full.iter().filter(|(p, _)| *p < 60).cloned().collect();

    for shards in [1usize, 2, 4] {
        let mut rt = Runtime::new(shards);
        let keep = rt
            .register(QuerySpec::new("keep", pcea.clone(), WindowPolicy::Count(9)))
            .unwrap();
        let doomed = rt
            .register(
                QuerySpec::new("doomed", pcea.clone(), WindowPolicy::Count(9))
                    .with_partition(Partition::ByKey { pos: 0 }),
            )
            .unwrap();
        let mut events = rt.push_batch(head);
        let final_stats = rt.deregister(doomed).unwrap();
        assert_eq!(final_stats.positions, 60, "shards={shards}");
        events.extend(rt.push_batch(tail));
        assert_eq!(
            runtime_outputs(&events, doomed),
            want_head,
            "shards={shards}: the dead query's matches stop at the cut"
        );
        assert_eq!(
            runtime_outputs(&events, keep),
            want_full,
            "shards={shards}: the survivor is unaffected"
        );
    }
}

/// σ0-shaped near-duplicate variant: `paper_p0`'s three-transition
/// skeleton over (`r`, `s`, `t`) with the S-branch tightened to
/// `S(x,y) ∧ y ≥ threshold`. Variants with equal thresholds are *exact*
/// duplicates — the shared predicate cache's prime target.
fn sigma0_variant(
    r: pcea::common::RelationId,
    s: pcea::common::RelationId,
    t: pcea::common::RelationId,
    threshold: i64,
) -> Pcea {
    sigma0_joined(r, s, t, threshold, &[0, 1])
}

/// [`sigma0_variant`] with S joined to R on the attribute positions
/// `sr_key` of both.
fn sigma0_joined(
    r: pcea::common::RelationId,
    s: pcea::common::RelationId,
    t: pcea::common::RelationId,
    threshold: i64,
    sr_key: &[usize],
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
            (q1, EqPredicate::on_positions(s, sr_key, r, sr_key)),
        ],
        UnaryPredicate::Relation(r),
        dot,
        q2,
    );
    b.mark_final(q2);
    b.build()
}

/// A fresh σ0 schema (T/1, S/2, R/2) for the variant fleets.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The shared-evaluation acceptance property: a fleet of
    /// near-duplicate queries (random thresholds, so duplicates are
    /// common) hosted in one runtime produces, query for query, exactly
    /// the independent per-query evaluator's outputs — across shard
    /// counts, both partition modes and count-window sizes.
    #[test]
    fn near_duplicate_fleet_matches_independent_evaluators(
        shards in 1usize..5,
        w in prop_oneof![Just(0u64), Just(3), Just(9), Just(1000)],
        keyed in any::<bool>(),
        thresholds in proptest::collection::vec(0i64..4, 1..10),
    ) {
        let (schema, r, s, t) = sigma0_schema();
        let stream = mixed_stream(&schema, 240);
        let mut rt = Runtime::new(shards);
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
        let events = rt.push_batch(&stream);
        for (&id, &th) in ids.iter().zip(&thresholds) {
            let want = single_engine_outputs(
                &sigma0_variant(r, s, t, th),
                WindowPolicy::Count(w),
                &stream,
            );
            prop_assert_eq!(runtime_outputs(&events, id), want);
        }
        // The fleet shares one skeleton, listens set and partition, so
        // each hosting shard keeps exactly one group; keyed queries are
        // hosted on every shard, and the cache saw real sharing.
        let stats = rt.stats();
        prop_assert_eq!(
            stats.shared.group_sizes.iter().sum::<usize>(),
            if keyed { shards * thresholds.len() } else { thresholds.len() }
        );
        prop_assert!(stats.shared.groups <= shards);
        prop_assert!(stats.shared.prefilter_evals_saved > 0);
        if keyed {
            let distinct: std::collections::HashSet<i64> =
                thresholds.iter().copied().collect();
            // Per shard: T, R, and one S-variant per distinct threshold.
            prop_assert_eq!(
                stats.shared.distinct_predicates,
                shards * (2 + distinct.len())
            );
            prop_assert_eq!(
                stats.shared.referenced_predicates,
                shards * 3 * thresholds.len()
            );
        }
    }

    /// Same property under *time* windows, over a two-relation join
    /// `A(ta,x), B(tb,x)` with the B-branch tightened per variant.
    #[test]
    fn near_duplicate_fleet_matches_under_time_windows(
        shards in 1usize..5,
        duration in prop_oneof![Just(0i64), Just(4), Just(25), Just(10_000)],
        keyed in any::<bool>(),
        thresholds in proptest::collection::vec(0i64..3, 1..8),
    ) {
        let mut schema = Schema::new();
        let a = schema.add_relation("A", 2).unwrap();
        let b = schema.add_relation("B", 2).unwrap();
        let variant = |threshold: i64| {
            let dot = LabelSet::singleton(Label(0));
            let mut builder = PceaBuilder::new(1);
            let q0 = builder.add_state();
            let q1 = builder.add_state();
            builder.add_initial_transition(UnaryPredicate::Relation(a), dot, q0);
            builder.add_transition(
                vec![(q0, EqPredicate::on_positions(a, [1usize], b, [1usize]))],
                UnaryPredicate::Relation(b).and(UnaryPredicate::Cmp {
                    pos: 1,
                    op: CmpOp::Ge,
                    value: Value::Int(threshold),
                }),
                dot,
                q1,
            );
            builder.mark_final(q1);
            builder.build()
        };
        // Timestamps are the stream position (attribute 0); joins key
        // on `x` (attribute 1), so ByKey partitions on it.
        let stream: Vec<Tuple> = (0..300)
            .map(|i| {
                let rel = if (i / 3) % 2 == 0 { a } else { b };
                Tuple::new(rel, vec![Value::Int(i as i64), Value::Int((i % 3) as i64)])
            })
            .collect();
        let window = WindowPolicy::Time { duration, ts_pos: 0 };
        let mut rt = Runtime::new(shards);
        let mut ids = Vec::new();
        for (i, &th) in thresholds.iter().enumerate() {
            let mut spec = QuerySpec::new(format!("v{i}"), variant(th), window.clone());
            if keyed {
                spec = spec.with_partition(Partition::ByKey { pos: 1 });
            }
            ids.push(rt.register(spec).unwrap());
        }
        let events = rt.push_batch(&stream);
        for (&id, &th) in ids.iter().zip(&thresholds) {
            let want = single_engine_outputs(&variant(th), window.clone(), &stream);
            prop_assert_eq!(runtime_outputs(&events, id), want);
        }
    }

    /// Group and cache maintenance under churn: push, deregister a
    /// duplicate, hot-swap another with an identical recompile
    /// (slot release + re-intern + regroup), snapshot, restore into a
    /// different shard count (groups rebuilt from scratch), push the
    /// rest — the survivors' outputs are exactly the uninterrupted
    /// independent runs.
    #[test]
    fn shared_path_survives_churn_and_restore(
        shards_before in 1usize..4,
        shards_after in 1usize..4,
        cut in 40usize..80,
    ) {
        let (schema, r, s, t) = sigma0_schema();
        let stream = mixed_stream(&schema, 160);
        // Duplicates on purpose: thresholds 0 and 1 both appear thrice.
        let thresholds = [0i64, 1, 0, 1, 0, 1];
        let window = WindowPolicy::Count(9);
        let mut rt = Runtime::new(shards_before);
        let mut ids = Vec::new();
        for (i, &th) in thresholds.iter().enumerate() {
            let mut spec = QuerySpec::new(
                format!("v{i}"),
                sigma0_variant(r, s, t, th),
                window.clone(),
            );
            if i % 2 == 0 {
                spec = spec.with_partition(Partition::ByKey { pos: 0 });
            }
            ids.push(rt.register(spec).unwrap());
        }
        let mut events = rt.push_batch(&stream[..cut]);
        // Retire one duplicate; its siblings must keep their slots.
        rt.deregister(ids[2]).unwrap();
        // Identical recompile: invisible to outputs, but releases and
        // re-interns the query's predicate slots and regroups it.
        rt.replace(
            ids[3],
            QuerySpec::new("v3_v2", sigma0_variant(r, s, t, 1), window.clone()),
        )
        .unwrap();
        let snap = rt.snapshot().unwrap();
        drop(rt);
        let mut rt2 = Runtime::restore(&snap, shards_after).unwrap();
        events.extend(rt2.push_batch(&stream[cut..]));
        for (k, (&id, &th)) in ids.iter().zip(&thresholds).enumerate() {
            if k == 2 {
                continue; // deregistered: checked by its own test above
            }
            let want = single_engine_outputs(
                &sigma0_variant(r, s, t, th),
                window.clone(),
                &stream,
            );
            prop_assert_eq!(runtime_outputs(&events, id), want, "query v{}", k);
        }
        // After restore the five survivors regrouped: every hosted
        // instance is in a group, and shards hosting several queries
        // dedup their shared T/R (and duplicate S) predicates.
        let stats = rt2.stats();
        prop_assert_eq!(stats.per_query.len(), 5);
        prop_assert!(stats.shared.groups >= 1);
        prop_assert!(stats.shared.group_sizes.iter().sum::<usize>() >= 5);
        prop_assert!(stats.shared.distinct_predicates < stats.shared.referenced_predicates);
    }
}

/// The exposed sharing counters on the easiest-to-count configuration:
/// one shard, six pinned queries over three distinct thresholds.
#[test]
fn runtime_stats_expose_predicate_sharing() {
    let (schema, r, s, t) = sigma0_schema();
    let stream = mixed_stream(&schema, 90);
    let mut rt = Runtime::new(1);
    for (i, th) in [0i64, 1, 2, 0, 1, 2].iter().enumerate() {
        rt.register(QuerySpec::new(
            format!("v{i}"),
            sigma0_variant(r, s, t, *th),
            WindowPolicy::Count(16),
        ))
        .unwrap();
    }
    rt.push_batch(&stream);
    let stats = rt.stats();
    // One skeleton group of six; 18 transition references collapse to
    // 5 distinct predicates (T, R, and three S-variants).
    assert_eq!(stats.shared.groups, 1);
    assert_eq!(stats.shared.group_sizes, vec![6]);
    assert_eq!(stats.shared.distinct_predicates, 5);
    assert_eq!(stats.shared.referenced_predicates, 18);
    // Naive cost would be one predicate evaluation per transition per
    // tuple; sharing plus relation confinement saves most of it.
    assert!(stats.shared.prefilter_evals_saved > stats.shared.prefilter_evals_done);
}

/// Incremental registration: a query registered mid-stream sees only the
/// suffix, at its true global positions.
#[test]
fn late_registration_sees_the_suffix() {
    let mut schema = Schema::new();
    let q0 = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let pcea = compile_hcq(&schema, &q0).unwrap().pcea;
    let stream = mixed_stream(&schema, 120);
    let (head, tail) = stream.split_at(60);

    let mut rt = Runtime::new(2);
    let early = rt
        .register(QuerySpec::new(
            "early",
            pcea.clone(),
            WindowPolicy::Count(9),
        ))
        .unwrap();
    let mut events = rt.push_batch(head);
    let late = rt
        .register(QuerySpec::new("late", pcea.clone(), WindowPolicy::Count(9)))
        .unwrap();
    events.extend(rt.push_batch(tail));

    let want_full = single_engine_outputs(&pcea, WindowPolicy::Count(9), &stream);
    assert_eq!(runtime_outputs(&events, early), want_full);
    // The late query saw tuples from global position 60 on; its matches
    // are exactly the full run's matches completing at ≥ 69 (everything
    // within window reach of the suffix but spanning the cut is lost,
    // which positions 60..69 may still straddle).
    let late_got = runtime_outputs(&events, late);
    assert!(late_got.iter().all(|(p, _)| *p >= 60));
    let want_suffix: Vec<(u64, Valuation)> = want_full
        .iter()
        .filter(|(p, v)| {
            let _ = p;
            v.min_pos().is_some_and(|m| m >= 60)
        })
        .cloned()
        .collect();
    assert_eq!(late_got, want_suffix);
}

/// One step of a twin-class scenario (`run_twin_script`).
#[derive(Clone, Debug)]
enum Step {
    /// Register fleet query `k`.
    Register(usize),
    /// Push this range of the stream.
    Push(std::ops::Range<usize>),
    /// Deregister fleet query `k`.
    Deregister(usize),
    /// Replace fleet query `k` with the variant of this threshold.
    Replace(usize, i64),
    /// Snapshot, then restore into this many shards.
    Restore(usize),
    /// Rescale to this many shards.
    Rescale(usize),
    /// Record every hosted query's `stats()` row.
    Poll,
}

/// What one fleet query saw in a scenario.
#[derive(Debug, PartialEq)]
struct QueryOutcome {
    /// Sorted `(position, valuation)` outputs.
    outputs: Vec<(u64, Valuation)>,
    /// The counters `deregister` returned, or the final `stats()` row.
    stats: Option<pcea::engine::evaluator::EngineStats>,
    /// Its `stats()` row at every [`Step::Poll`] it was hosted at.
    polled: Vec<pcea::engine::evaluator::EngineStats>,
}

/// Run `steps` over `stream` on a runtime with `shards` shards. With
/// `only: Some(k)` the runtime hosts fleet query `k` alone — a private
/// evaluator, the oracle — and skips every step about another query.
/// Returns each fleet query's outcome (the skipped ones stay empty) and
/// the `evaluators` count polled after each registration.
fn run_twin_script(
    spec: &dyn Fn(&str, i64) -> QuerySpec,
    thresholds: &[i64],
    stream: &[Tuple],
    steps: &[Step],
    shards: usize,
    only: Option<usize>,
) -> (Vec<QueryOutcome>, Vec<usize>) {
    let mine = |k: usize| only.is_none_or(|q| q == k);
    let mut rt = Runtime::new(shards);
    let mut ids: Vec<Option<QueryId>> = vec![None; thresholds.len()];
    let mut outcomes: Vec<QueryOutcome> = thresholds
        .iter()
        .map(|_| QueryOutcome {
            outputs: Vec::new(),
            stats: None,
            polled: Vec::new(),
        })
        .collect();
    let mut evaluators = Vec::new();
    for step in steps {
        match step {
            Step::Register(k) if mine(*k) => {
                let name = format!("v{k}");
                ids[*k] = Some(rt.register(spec(&name, thresholds[*k])).unwrap());
                evaluators.push(rt.stats().shared.evaluators);
            }
            Step::Push(range) => {
                for event in rt.push_batch(&stream[range.clone()]) {
                    let k = ids.iter().position(|&id| id == Some(event.query)).unwrap();
                    outcomes[k].outputs.push((event.position, event.valuation));
                }
            }
            Step::Deregister(k) if mine(*k) => {
                let id = ids[*k].take().unwrap();
                outcomes[*k].stats = Some(rt.deregister(id).unwrap());
            }
            Step::Replace(k, th) if mine(*k) => {
                let id = ids[*k].unwrap();
                rt.replace(id, spec(&format!("v{k}'"), *th)).unwrap();
            }
            Step::Restore(n) => {
                let snap = rt.snapshot().unwrap();
                rt = Runtime::restore(&snap, *n).unwrap();
            }
            Step::Rescale(n) => rt.rescale(*n).unwrap(),
            Step::Poll => {
                let stats = rt.stats();
                for (k, id) in ids.iter().enumerate() {
                    if let Some(id) = id {
                        let row = stats.per_query.iter().find(|(q, _)| q == id).unwrap();
                        outcomes[k].polled.push(row.1);
                    }
                }
            }
            _ => {}
        }
    }
    let stats = rt.stats();
    for (k, id) in ids.iter().enumerate() {
        if let Some(id) = id {
            let row = stats.per_query.iter().find(|(q, _)| q == id).unwrap();
            outcomes[k].stats = Some(row.1);
        }
        outcomes[k].outputs.sort();
    }
    (outcomes, evaluators)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Families stay exact: a fleet of duplicate and near-duplicate
    /// queries registered in waves before and after tuples, with one
    /// member deregistered and one replaced mid-stream, a snapshot
    /// restored at another shard count and a rescale, under count and
    /// time windows, with the default collection cadence (which the
    /// streams stay below) or a small one (so families collect
    /// mid-stream and each variant's live-node and `H` accounting is
    /// compared). Every query's outputs and engine counters — polled
    /// before and after the churn, at deregistration and at the end —
    /// equal those of the same steps on a runtime hosting that query
    /// alone; both runtimes cut batches at the same positions, one per
    /// push.
    #[test]
    fn twin_classes_match_private_evaluators(
        shards in 1usize..4,
        restored_shards in 1usize..4,
        keyed in any::<bool>(),
        window in prop_oneof![
            Just(WindowPolicy::Count(3)),
            Just(WindowPolicy::Count(1000)),
            Just(WindowPolicy::Time { duration: 2, ts_pos: 0 }),
            Just(WindowPolicy::Time { duration: 10_000, ts_pos: 0 }),
        ],
        early in proptest::collection::vec(0i64..3, 2..6),
        late in proptest::collection::vec(0i64..3, 1..4),
        replaced_threshold in 0i64..3,
        gc_every in prop_oneof![Just(0u64), 1u64..12],
    ) {
        let (schema, r, s, t) = sigma0_schema();
        let stream = joined_stream(&schema, 200);
        let spec = |name: &str, th: i64| {
            let spec = QuerySpec::new(name, sigma0_variant(r, s, t, th), window.clone())
                .with_gc_every(gc_every);
            if keyed {
                spec.with_partition(Partition::ByKey { pos: 0 })
            } else {
                spec
            }
        };
        let thresholds: Vec<i64> = early.iter().chain(&late).copied().collect();
        let (n_early, n) = (early.len(), thresholds.len());
        let mut steps: Vec<Step> = (0..n_early).map(Step::Register).collect();
        steps.push(Step::Push(0..40));
        steps.extend((n_early..n).map(Step::Register));
        steps.extend([
            Step::Push(40..90),
            Step::Poll,
            Step::Deregister(0),
            Step::Replace(1, replaced_threshold),
            Step::Push(90..120),
            Step::Poll,
            Step::Restore(restored_shards),
            Step::Push(120..160),
            Step::Rescale(shards),
            Step::Push(160..200),
        ]);
        let (fleet, evaluators) = run_twin_script(&spec, &thresholds, &stream, &steps, shards, None);
        if window == WindowPolicy::Count(1000) {
            prop_assert!(fleet.iter().any(|q| !q.outputs.is_empty()), "the stream joins");
        }
        for (k, got) in fleet.iter().enumerate() {
            let (solo, _) = run_twin_script(&spec, &thresholds, &stream, &steps, shards, Some(k));
            prop_assert_eq!(got, &solo[k], "query v{}", k);
        }
        // The early wave visibly shared: one family per hosting shard
        // (keyed queries are hosted on every shard; pinned ones share a
        // shard when there is one).
        if keyed || shards == 1 {
            prop_assert_eq!(evaluators[n_early - 1], shards);
        }
    }
}

/// `SharedEvalStats::evaluators` on the easiest-to-count configuration:
/// six pinned queries over three thresholds registered before any tuple
/// form one family of three variants; a seventh registered after tuples
/// have reached the family starts a second.
#[test]
fn evaluators_count_twin_classes() {
    let (schema, r, s, t) = sigma0_schema();
    let stream = mixed_stream(&schema, 90);
    let spec = |i: usize, th: i64| {
        let pcea = sigma0_variant(r, s, t, th);
        QuerySpec::new(format!("v{i}"), pcea, WindowPolicy::Count(16))
    };
    let mut rt = Runtime::new(1);
    for (i, &th) in [0i64, 1, 2, 0, 1, 2].iter().enumerate() {
        rt.register(spec(i, th)).unwrap();
    }
    let stats = rt.stats();
    assert_eq!(stats.shared.evaluators, 1);
    assert_eq!(stats.shared.group_sizes, vec![6]);
    assert_eq!(stats.shared.referenced_predicates, 18);
    rt.push_batch(&stream);
    rt.register(spec(6, 0)).unwrap();
    let stats = rt.stats();
    assert_eq!(stats.shared.evaluators, 2);
    assert_eq!(stats.shared.group_sizes, vec![7]);
    // The twins report the same counters, the late one only its own.
    let row = |q: u32| stats.per_query[q as usize].1;
    assert_eq!(row(0), row(3));
    assert_eq!(row(6).positions, 0);
}

/// Families share only where sharing is sound. 65 distinct thresholds
/// are 64 variants in one family and a second family for the 65th;
/// unequal join extractors and unequal windows never share. Every
/// query still matches its private evaluator, through a deregistration
/// that drops a variant mid-stream.
#[test]
fn families_split_where_sharing_is_unsound() {
    let (schema, r, s, t) = sigma0_schema();
    let stream = joined_stream(&schema, 120);
    let check = |spec: &dyn Fn(&str, i64) -> QuerySpec, thresholds: &[i64], families: usize| {
        let mut steps: Vec<Step> = (0..thresholds.len()).map(Step::Register).collect();
        steps.extend([Step::Push(0..60), Step::Poll, Step::Deregister(0)]);
        steps.extend([Step::Push(60..120), Step::Poll]);
        let (fleet, evaluators) = run_twin_script(spec, thresholds, &stream, &steps, 1, None);
        assert_eq!(evaluators.last(), Some(&families), "{thresholds:?}");
        for (k, got) in fleet.iter().enumerate() {
            let (solo, _) = run_twin_script(spec, thresholds, &stream, &steps, 1, Some(k));
            assert_eq!(got, &solo[k], "query v{k} of {thresholds:?}");
        }
    };
    let window = WindowPolicy::Count(16);
    let by_threshold = |name: &str, th: i64| {
        QuerySpec::new(name, sigma0_variant(r, s, t, th), window.clone()).with_gc_every(5)
    };
    // Most selective first: the lowest variant is often the one whose
    // run is missing.
    let thresholds: Vec<i64> = (-62..3).rev().collect();
    check(&by_threshold, &thresholds, 2);
    // Odd "thresholds" join S to R on `x` alone: the same skeleton and
    // group, another join key.
    let by_join = |name: &str, th: i64| {
        let sr_key: &[usize] = if th % 2 == 1 { &[0] } else { &[0, 1] };
        QuerySpec::new(name, sigma0_joined(r, s, t, 0, sr_key), window.clone())
    };
    check(&by_join, &[0, 1, 0, 1], 2);
    let by_window = |name: &str, th: i64| {
        let window = WindowPolicy::Count(16 + th as u64);
        QuerySpec::new(name, sigma0_variant(r, s, t, 0), window)
    };
    check(&by_window, &[0, 1, 0], 2);
}
