//! Sliding-window semantics and garbage-collection transparency on long
//! streams, across all evaluators.

use pcea::baselines::{NaiveRunsEvaluator, RecomputeEvaluator};
use pcea::common::gen::Sigma0Gen;
use pcea::prelude::*;
use proptest::prelude::*;

fn q0_setup() -> (Schema, ConjunctiveQuery, Pcea) {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    (schema, q, pcea)
}

fn q0_stream(schema: &Schema, n: usize, dom: i64, seed: u64) -> Vec<Tuple> {
    let r = schema.relation("R").unwrap();
    let s = schema.relation("S").unwrap();
    let t = schema.relation("T").unwrap();
    let mut gen = Sigma0Gen::new(r, s, t, seed).with_domains(dom, dom);
    (0..n).map(|_| gen.next_tuple().unwrap()).collect()
}

/// All four evaluators agree, per position, on a 300-tuple stream under
/// several windows. (The reference oracle is too slow here; agreement of
/// independent implementations is the check.)
#[test]
fn four_way_agreement_on_long_streams() {
    let (schema, q, pcea) = q0_setup();
    let stream = q0_stream(&schema, 300, 3, 1234);
    for w in [0u64, 4, 16, 64] {
        let mut engine = StreamingEvaluator::new(pcea.clone(), w);
        let mut naive = NaiveRunsEvaluator::new(pcea.clone(), w);
        let mut rec = RecomputeEvaluator::new(q.clone(), w);
        for (n, tu) in stream.iter().enumerate() {
            let mut a = engine.push_collect(tu);
            let mut b = naive.push_collect(tu);
            let c = rec.push_collect(tu);
            a.sort();
            b.sort();
            assert_eq!(a, b, "engine vs naive at {n}, w={w}");
            assert_eq!(a, c, "engine vs recompute at {n}, w={w}");
        }
    }
}

/// Window monotonicity: enlarging the window never loses outputs, and
/// w = stream length recovers the unwindowed semantics.
#[test]
fn window_monotonicity() {
    let (schema, _, pcea) = q0_setup();
    let stream = q0_stream(&schema, 120, 2, 77);
    let mut prev_total = 0usize;
    for w in [0u64, 1, 2, 4, 8, 16, 32, 64, 128] {
        let mut engine = StreamingEvaluator::new(pcea.clone(), w);
        let total: usize = stream.iter().map(|t| engine.push_count(t)).sum();
        assert!(
            total >= prev_total,
            "outputs must grow with the window: w={w}, {total} < {prev_total}"
        );
        prev_total = total;
    }
}

/// Every output's span fits the window (the defining property of
/// `⟦P⟧^w_i(S)`).
#[test]
fn output_spans_respect_window() {
    let (schema, _, pcea) = q0_setup();
    let stream = q0_stream(&schema, 200, 2, 9);
    for w in [3u64, 9, 27] {
        let mut engine = StreamingEvaluator::new(pcea.clone(), w);
        for tu in &stream {
            let i = engine.next_position();
            engine.push_for_each(tu, &mut |v| {
                let min = v.min_pos().unwrap();
                let max = v.max_pos().unwrap();
                assert_eq!(max, i, "outputs complete at the current position");
                assert!(i - min <= w, "span {} exceeds window {w}", i - min);
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// GC frequency never changes results; memory stays bounded.
    #[test]
    fn gc_frequency_is_unobservable(
        gc_every in 1u64..40,
        w in 1u64..32,
        seed in any::<u64>(),
    ) {
        let (schema, _, pcea) = q0_setup();
        let stream = q0_stream(&schema, 250, 2, seed);
        let mut with_gc = StreamingEvaluator::new(pcea.clone(), w);
        with_gc.set_gc_every(gc_every);
        let mut without_gc = StreamingEvaluator::new(pcea.clone(), w);
        without_gc.set_gc_every(u64::MAX);
        for tu in &stream {
            let mut a = with_gc.push_collect(tu);
            let mut b = without_gc.push_collect(tu);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        prop_assert!(with_gc.stats().collections > 0);
        prop_assert!(with_gc.stats().arena_nodes <= without_gc.stats().arena_nodes);
    }
}

/// Long-haul memory bound: 20k events with a small window keep the
/// arena within a constant multiple of `|∆| · w`.
#[test]
fn long_haul_memory_bound() {
    let (schema, _, pcea) = q0_setup();
    let transitions = pcea.transitions().len();
    let stream = q0_stream(&schema, 20_000, 4, 5);
    let w = 64u64;
    let mut engine = StreamingEvaluator::new(pcea, w);
    engine.set_gc_every(w);
    let mut peak = 0usize;
    for tu in &stream {
        engine.push(tu);
        peak = peak.max(engine.stats().arena_nodes);
    }
    let budget = 16 * transitions * (w as usize + 1);
    assert!(peak <= budget, "arena peaked at {peak} > budget {budget}");
}
