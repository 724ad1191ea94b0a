//! Long-haul stress and edge-case tests: scale beyond what the oracles
//! can check, verified via invariants and cross-engine agreement.

use pcea::baselines::NaiveRunsEvaluator;
use pcea::common::gen::StarGen;
use pcea::prelude::*;

/// A 10-satellite star query over 100k events: the engine must sustain
/// throughput and bounded memory with no invariant violations.
#[test]
fn wide_star_long_stream() {
    let mut schema = Schema::new();
    let k = 10usize;
    let mut gen = StarGen::build(&mut schema, k, 99)
        .unwrap()
        .with_domains(32, 8);
    let body: Vec<String> = std::iter::once("A0(x)".to_string())
        .chain((1..=k).map(|i| format!("A{i}(x, y{i})")))
        .collect();
    let head: Vec<String> = std::iter::once("x".to_string())
        .chain((1..=k).map(|i| format!("y{i}")))
        .collect();
    let text = format!("Q({}) <- {}", head.join(", "), body.join(", "));
    let q = parse_query(&mut schema, &text).unwrap();
    let compiled = compile_hcq(&schema, &q).unwrap();
    let w = 64u64;
    let mut engine = StreamingEvaluator::new(compiled.pcea, w);
    engine.set_gc_every(w);
    let mut outputs = 0usize;
    let mut peak = 0usize;
    for _ in 0..100_000 {
        let t = gen.next_tuple().unwrap();
        outputs += engine.push_count(&t);
        peak = peak.max(engine.stats().arena_nodes);
    }
    // Wide stars with narrow windows rarely complete — the point is that
    // the engine survives; matches may be zero.
    assert!(peak < 500_000, "arena peaked at {peak}");
    let st = engine.stats();
    assert_eq!(st.positions, 100_000);
    let _ = outputs;
}

/// Every output of a long dense run satisfies: completion at the current
/// position, span within the window, exactly one position per atom
/// label (simplicity of compiled HCQs).
#[test]
fn output_wellformedness_under_density() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let compiled = compile_hcq(&schema, &q).unwrap();
    let r = schema.relation("R").unwrap();
    let s = schema.relation("S").unwrap();
    let t = schema.relation("T").unwrap();
    let mut gen = pcea::common::gen::Sigma0Gen::new(r, s, t, 4).with_domains(2, 2);
    let w = 24u64;
    let mut engine = StreamingEvaluator::new(compiled.pcea, w);
    let mut checked = 0usize;
    for _ in 0..3_000 {
        let tu = gen.next_tuple().unwrap();
        let i = engine.next_position();
        engine.push_for_each(&tu, &mut |v| {
            checked += 1;
            assert_eq!(v.max_pos(), Some(i));
            assert!(i - v.min_pos().unwrap() <= w);
            for l in 0..3u32 {
                assert_eq!(v.get(Label(l)).len(), 1, "one position per atom");
            }
        });
    }
    assert!(checked > 10_000, "dense run must produce many outputs");
}

/// Engine vs naive runs on a *pattern-language* automaton (not just
/// compiled CQs): independent implementations agree on a 200-tuple
/// stream under several windows.
#[test]
fn pattern_engine_vs_naive() {
    let mut schema = Schema::new();
    let c = pattern_to_pcea(&mut schema, "A(x) ; B(x, _)+").unwrap();
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream: Vec<Tuple> = (0..200)
        .map(|i| {
            if i % 3 == 0 {
                Tuple::new(a, vec![Value::Int(i % 2)])
            } else {
                Tuple::new(b, vec![Value::Int(i % 2), Value::Int(i)])
            }
        })
        .collect();
    for w in [2u64, 6, 20] {
        let mut engine = StreamingEvaluator::new(c.pcea.clone(), w);
        let mut naive = NaiveRunsEvaluator::new(c.pcea.clone(), w);
        for tu in &stream {
            let mut x = engine.push_collect(tu);
            let mut y = naive.push_collect(tu);
            x.sort();
            y.sort();
            assert_eq!(x, y, "w={w}");
        }
    }
}

/// Empty streams, empty schemas, single-tuple streams: nothing panics.
#[test]
fn degenerate_inputs() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(x) <- T(x)").unwrap();
    let compiled = compile_hcq(&schema, &q).unwrap();
    let t = schema.relation("T").unwrap();
    // Window 0: a single-atom query still matches (span 0).
    let mut engine = StreamingEvaluator::new(compiled.pcea.clone(), 0);
    assert_eq!(engine.push_count(&Tuple::new(t, vec![Value::Int(1)])), 1);
    // An engine that never sees a tuple.
    let idle = StreamingEvaluator::new(compiled.pcea, 10);
    assert_eq!(idle.stats().positions, 0);
    let mut n = 0;
    idle.for_each_output(|_| n += 1);
    assert_eq!(n, 0);
}

/// Tuples of relations the automaton never mentions are skipped at full
/// speed and never corrupt state.
#[test]
fn foreign_relations_ignored() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(x) <- T(x), U(x)").unwrap();
    let compiled = compile_hcq(&schema, &q).unwrap();
    let t = schema.relation("T").unwrap();
    let u = schema.relation("U").unwrap();
    let noise = schema.add_relation("NOISE", 3).unwrap();
    let mut engine = StreamingEvaluator::new(compiled.pcea, 100);
    let mut total = 0usize;
    for i in 0..50i64 {
        total += engine.push_count(&Tuple::new(
            noise,
            vec![Value::Int(i), Value::Int(i), Value::Int(i)],
        ));
    }
    total += engine.push_count(&Tuple::new(t, vec![Value::Int(1)]));
    total += engine.push_count(&Tuple::new(u, vec![Value::Int(1)]));
    assert_eq!(total, 1);
}

/// 64-atom query: the label-set capacity boundary compiles and runs;
/// 65 atoms are rejected.
#[test]
fn label_capacity_boundary() {
    // 64 disconnected unary atoms (a degenerate but legal HCQ).
    let make = |n: usize| {
        let body: Vec<String> = (0..n).map(|i| format!("R{i}(x{i})")).collect();
        let head: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        format!("Q({}) <- {}", head.join(", "), body.join(", "))
    };
    let mut schema = Schema::new();
    let q64 = parse_query(&mut schema, &make(64)).unwrap();
    let compiled = compile_hcq(&schema, &q64).expect("64 atoms fit");
    assert_eq!(compiled.pcea.num_labels(), 64);

    let mut schema2 = Schema::new();
    let q65 = parse_query(&mut schema2, &make(65)).unwrap();
    assert!(matches!(
        compile_hcq(&schema2, &q65),
        Err(pcea::cq::CompileError::TooManyAtoms { got: 65, .. })
    ));
}
