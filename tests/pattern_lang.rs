//! Cross-crate tests of the pattern language: compiled patterns are
//! unambiguous PCEA that the streaming engine evaluates correctly under
//! windows, and the language's expressiveness claims hold end to end.

use pcea::automata::reference::fuzz_unambiguous;
use pcea::common::tuple::tup;
use pcea::lang::LangError;
use pcea::prelude::*;
use proptest::prelude::*;

/// Patterns covering every language construct.
const PATTERNS: &[&str] = &[
    "T(x) && S(x, y) ; R(x, y)",
    "A(x) ; B(x)",
    "A(x) ; B(x) ; C(x)",
    "A(x) | B(x)",
    "(A(x) | B(x)) ; C(x)",
    "A(x) && B(x) && C(x)",
    "A(x)+",
    "S(x, _)+",
    "ALERT(x) ; BUY(x, _)+ [1 > 1]",
    "W(2, y) ; R(y)",
    "A(x) && B(x) ; C(x) | D(x)",
];

fn compile(text: &str) -> (Schema, CompiledPattern) {
    let mut schema = Schema::new();
    let c = pattern_to_pcea(&mut schema, text).unwrap();
    (schema, c)
}

/// Every pattern compiles to an automaton that is unambiguous on fuzzed
/// streams — the precondition of Theorem 5.1.
#[test]
fn all_patterns_fuzz_unambiguous() {
    for text in PATTERNS {
        let (schema, c) = compile(text);
        fuzz_unambiguous(&c.pcea, &schema, 7, 25, 0xC0FFEE)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

// Engine ≡ reference on every pattern, random dense streams, several
// windows.
proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_reference_on_patterns(
        pi in 0..PATTERNS.len(),
        raw in proptest::collection::vec((0usize..8, 0i64..3, 0i64..3), 0..10),
        w in 0u64..12,
    ) {
        let (schema, c) = compile(PATTERNS[pi]);
        let rels: Vec<_> = schema.relations().collect();
        let stream: Vec<Tuple> = raw
            .iter()
            .map(|&(ri, a, b)| {
                let rel = rels[ri % rels.len()];
                let vals = [a, b];
                Tuple::new(
                    rel,
                    (0..schema.arity(rel)).map(|k| Value::Int(vals[k.min(1)])).collect(),
                )
            })
            .collect();
        let reference = ReferenceEval::new(&c.pcea, &stream);
        let mut engine = StreamingEvaluator::new(c.pcea.clone(), w);
        for (n, tu) in stream.iter().enumerate() {
            let mut got = engine.push_collect(tu);
            got.sort();
            got.dedup();
            prop_assert_eq!(
                got,
                reference.windowed_outputs_at(n, w),
                "{} at {} w={}", PATTERNS[pi], n, w
            );
        }
    }
}

/// The language expresses things no CQ can: order sensitivity.
#[test]
fn sequencing_beyond_cq() {
    let (schema, c) = compile("A(x) ; B(x)");
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let mut forward = StreamingEvaluator::new(c.pcea.clone(), 100);
    let n1: usize = [tup(a, [1i64]), tup(b, [1i64])]
        .iter()
        .map(|t| forward.push_count(t))
        .sum();
    let mut backward = StreamingEvaluator::new(c.pcea, 100);
    let n2: usize = [tup(b, [1i64]), tup(a, [1i64])]
        .iter()
        .map(|t| backward.push_count(t))
        .sum();
    assert_eq!((n1, n2), (1, 0));
}

/// Iteration under a window: chains must fit the window end to end.
#[test]
fn iteration_windowed() {
    let (schema, c) = compile("A(x)+");
    let a = schema.relation("A").unwrap();
    let stream: Vec<Tuple> = (0..6).map(|_| tup(a, [1i64])).collect();
    // w = 2: chains may reach back at most 2 positions.
    let mut engine = StreamingEvaluator::new(c.pcea.clone(), 2);
    let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
    // At n: subsets of {n-2, n-1} ∪ {n} containing n: 1, 2, 4, 4, 4, 4.
    assert_eq!(counts, vec![1, 2, 4, 4, 4, 4]);
}

/// The anchoring discipline rejects exactly the unanchored patterns.
#[test]
fn anchoring_discipline() {
    let reject = [
        "S(x, y) ; A(x) ; R(y)",  // y cannot flow through A(x)
        "S(x, y) && T(y) ; A(x)", // y correlates S and T; A(x) gathers both but carries no y
    ];
    for text in reject {
        let mut schema = Schema::new();
        let err = pattern_to_pcea(&mut schema, text).unwrap_err();
        assert!(
            matches!(err, LangError::UnanchoredCorrelation { .. }),
            "{text}: {err:?}"
        );
    }
    // Anchored versions compile.
    let accept = ["S(x, y) ; A(x, y) ; R(y)", "S(x, y) && T(y) ; A(x, y)"];
    for text in accept {
        let mut schema = Schema::new();
        pattern_to_pcea(&mut schema, text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

/// Disjunction + engine: each branch yields its own label pattern.
#[test]
fn disjunction_end_to_end() {
    let (schema, c) = compile("(A(x) | B(x)) ; C(x)");
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let cc = schema.relation("C").unwrap();
    let mut engine = StreamingEvaluator::new(c.pcea, 100);
    engine.push(&tup(a, [1i64]));
    engine.push(&tup(b, [1i64]));
    let outs = engine.push_collect(&tup(cc, [1i64]));
    assert_eq!(outs.len(), 2);
    // One match used the A branch (label 0), the other the B branch
    // (label 1); both mark C (label 2) at position 2.
    let via_a = outs.iter().filter(|v| !v.get(Label(0)).is_empty()).count();
    let via_b = outs.iter().filter(|v| !v.get(Label(1)).is_empty()).count();
    assert_eq!((via_a, via_b), (1, 1));
    assert!(outs.iter().all(|v| v.get(Label(2)) == [2]));
}

/// The stock pattern from the example, on a reproducible feed.
#[test]
fn stock_pattern_end_to_end() {
    use pcea::common::gen::StockGen;
    let mut schema = Schema::new();
    let mut feed = StockGen::build(&mut schema, 5).unwrap();
    let c = pattern_to_pcea(&mut schema, "BUY(x, _) && SELL(x, _) ; ALERT(x)").unwrap();
    let mut engine = StreamingEvaluator::new(c.pcea, 32);
    let mut matches = 0usize;
    for _ in 0..20_000 {
        let t = feed.next_tuple().unwrap();
        let pos = engine.next_position();
        engine.push_for_each(&t, &mut |v| {
            matches += 1;
            // The ALERT (label 2) is always the completing tuple.
            assert_eq!(v.get(Label(2)), [pos]);
            assert!(v.max_pos() == Some(pos));
        });
    }
    assert!(matches > 0, "the feed must trigger the pattern");
}

/// Iteration as a conjunct: `A(x)+ && B(x)` completes when either the
/// last chain step or the B gathers the other side.
#[test]
fn iteration_inside_conjunction() {
    let (schema, c) = compile("A(x)+ && B(x)");
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let stream = [tup(a, [1i64]), tup(a, [1i64]), tup(b, [1i64])];
    let reference = ReferenceEval::new(&c.pcea, &stream);
    // n=2 (B last): chains ending before it: {0}, {1}, {0,1} → 3.
    assert_eq!(reference.outputs_at(2).len(), 3);
    // n=1 (A last): chain {0,1} or {1} each gathering... B not seen yet.
    assert!(reference.outputs_at(1).is_empty());
    reference.check_unambiguous().unwrap();

    // B first, then the chain: completions via the A side.
    let stream2 = [tup(b, [1i64]), tup(a, [1i64]), tup(a, [1i64])];
    let reference2 = ReferenceEval::new(&c.pcea, &stream2);
    // n=1: chain {1} + B → 1. n=2: chains ending at 2: {2}, {1,2} → 2.
    assert_eq!(reference2.outputs_at(1).len(), 1);
    assert_eq!(reference2.outputs_at(2).len(), 2);
    reference2.check_unambiguous().unwrap();
}

/// Deep nesting: disjunction of conjunctions under sequencing.
#[test]
fn nested_conj_disj_seq() {
    let (schema, c) = compile("(A(x) && B(x) | D(x)) ; C(x)");
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let d = schema.relation("D").unwrap();
    let cc = schema.relation("C").unwrap();
    let stream = [
        tup(a, [1i64]),
        tup(b, [1i64]),
        tup(d, [1i64]),
        tup(cc, [1i64]),
    ];
    let reference = ReferenceEval::new(&c.pcea, &stream);
    // C gathers: the (A&&B) combo (one way: B completed it at pos 1 —
    // plus A-completes-last ordering is impossible here) and the D
    // branch: in total (A&&B);C has completer-B alternative {0,1} and
    // completer-A alternative (not matched on this order), plus D;C.
    assert_eq!(reference.outputs_at(3).len(), 2);
    reference.check_unambiguous().unwrap();
}

/// A chain of sequenced conjunctions: correlation flows through each
/// completing atom.
#[test]
fn sequenced_conjunctions() {
    let (schema, c) = compile("A(x) && B(x) ; C(x) && D(x) ; E(x)");
    for rel in ["A", "B", "C", "D", "E"] {
        assert!(schema.relation(rel).is_some());
    }
    let ids: Vec<_> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|r| schema.relation(r).unwrap())
        .collect();
    let stream: Vec<Tuple> = ids.iter().map(|&r| tup(r, [4i64])).collect();
    let reference = ReferenceEval::new(&c.pcea, &stream);
    assert_eq!(
        reference.outputs_at(4).len(),
        1,
        "in-order run matches once"
    );
    reference.check_unambiguous().unwrap();
    // Break the order: E before the C&&D step completes.
    let bad: Vec<Tuple> = [0usize, 1, 4, 2, 3]
        .iter()
        .map(|&k| stream[k].clone())
        .collect();
    let reference_bad = ReferenceEval::new(&c.pcea, &bad);
    assert!((0..5).all(|n| reference_bad.outputs_at(n).is_empty()));
}
