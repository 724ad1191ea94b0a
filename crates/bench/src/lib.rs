//! # cer-bench — benchmark harness
//!
//! Shared workload builders for the criterion benches and the `tables`
//! binary. Each experiment E1–E7 (the claim each one checks is stated
//! above its function in `src/bin/tables.rs`) has a criterion bench
//! (statistical timing) and a row-printer in `src/bin/tables.rs`.

use cer_automata::ccea::Ccea;
use cer_automata::pcea::{Pcea, PceaBuilder, StateId};
use cer_automata::pfa::Pfa;
use cer_automata::predicate::{CmpOp, EqPredicate, UnaryPredicate};
use cer_automata::valuation::{Label, LabelSet};
use cer_common::gen::{ChainGen, Sigma0Gen, StarGen};
use cer_common::{RelationId, Schema, Stream, Tuple, Value};
use cer_cq::compile::compile_hcq;
use cer_cq::parser::parse_query;
use cer_cq::query::ConjunctiveQuery;

/// The text of the star HCQ `Q(x, y1..yk) ← A0(x), A1(x,y1), …, Ak(x,yk)`.
pub fn star_query_text(k: usize) -> String {
    let body: Vec<String> = std::iter::once("A0(x)".to_string())
        .chain((1..=k).map(|i| format!("A{i}(x, y{i})")))
        .collect();
    let head: Vec<String> = std::iter::once("x".to_string())
        .chain((1..=k).map(|i| format!("y{i}")))
        .collect();
    format!("Q({}) <- {}", head.join(", "), body.join(", "))
}

/// The text of the self-join query `Q(x) ← T(x), …, T(x)` (m copies).
pub fn self_join_query_text(m: usize) -> String {
    format!("Q(x) <- {}", vec!["T(x)"; m].join(", "))
}

/// A compiled star query plus its stream generator and schema.
pub struct StarWorkload {
    /// The schema (relations `A0..Ak`).
    pub schema: Schema,
    /// The parsed query.
    pub query: ConjunctiveQuery,
    /// The compiled automaton.
    pub pcea: Pcea,
    /// Pre-generated stream.
    pub stream: Vec<Tuple>,
}

/// Build the star workload: query of `k` satellites, `n` tuples with the
/// given key domains (smaller = more matches).
pub fn star_workload(k: usize, n: usize, x_domain: i64, y_domain: i64, seed: u64) -> StarWorkload {
    let mut schema = Schema::new();
    let mut gen = StarGen::build(&mut schema, k, seed)
        .expect("fresh schema")
        .with_domains(x_domain, y_domain);
    let query = parse_query(&mut schema, &star_query_text(k)).expect("valid star query");
    let pcea = compile_hcq(&schema, &query)
        .expect("star queries are HCQ")
        .pcea;
    let stream: Vec<Tuple> = (0..n)
        .map(|_| gen.next_tuple().expect("infinite"))
        .collect();
    StarWorkload {
        schema,
        query,
        pcea,
        stream,
    }
}

/// The σ0 workload for `Q0(x,y) ← T(x), S(x,y), R(x,y)`.
pub struct Sigma0Workload {
    /// The schema (R, S, T).
    pub schema: Schema,
    /// The parsed query.
    pub query: ConjunctiveQuery,
    /// The compiled automaton.
    pub pcea: Pcea,
    /// Pre-generated stream.
    pub stream: Vec<Tuple>,
}

/// Build the σ0 workload with the given domains.
pub fn sigma0_workload(n: usize, x_domain: i64, y_domain: i64, seed: u64) -> Sigma0Workload {
    let mut schema = Schema::new();
    let query =
        parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").expect("valid query");
    let pcea = compile_hcq(&schema, &query).expect("Q0 is HCQ").pcea;
    let r = schema.relation("R").expect("R");
    let s = schema.relation("S").expect("S");
    let t = schema.relation("T").expect("T");
    let mut gen = Sigma0Gen::new(r, s, t, seed).with_domains(x_domain, y_domain);
    let stream: Vec<Tuple> = (0..n)
        .map(|_| gen.next_tuple().expect("infinite"))
        .collect();
    Sigma0Workload {
        schema,
        query,
        pcea,
        stream,
    }
}

/// A chain CCEA workload: `B0(a,b) ; B1(b,c) ; … ; B_{k-1}(·,·)` joined
/// end-to-start, plus a matching stream.
pub struct ChainWorkload {
    /// The schema (B0..B_{k-1}).
    pub schema: Schema,
    /// The chain automaton.
    pub ccea: Ccea,
    /// Its PCEA embedding.
    pub pcea: Pcea,
    /// Pre-generated stream.
    pub stream: Vec<Tuple>,
}

/// Build the chain workload with `k` steps and the given key domain.
pub fn chain_workload(k: usize, n: usize, domain: i64, seed: u64) -> ChainWorkload {
    assert!(k >= 2, "a chain needs at least two steps");
    let mut schema = Schema::new();
    let mut gen = ChainGen::build(&mut schema, k, seed)
        .expect("fresh schema")
        .with_domain(domain);
    let rels = gen.relations.clone();
    let mut ccea = Ccea::new(k, k);
    ccea.set_initial(
        StateId(0),
        UnaryPredicate::Relation(rels[0]),
        LabelSet::singleton(Label(0)),
    );
    for step in 1..k {
        ccea.add_transition(
            StateId(step as u32 - 1),
            UnaryPredicate::Relation(rels[step]),
            EqPredicate::on_positions(rels[step - 1], [1usize], rels[step], [0usize]),
            LabelSet::singleton(Label(step as u32)),
            StateId(step as u32),
        );
    }
    ccea.mark_final(StateId(k as u32 - 1));
    let pcea = ccea.to_pcea();
    let stream: Vec<Tuple> = (0..n)
        .map(|_| gen.next_tuple().expect("infinite"))
        .collect();
    ChainWorkload {
        schema,
        ccea,
        pcea,
        stream,
    }
}

/// A multi-query workload for the runtime benches: `m` independent
/// σ0-shaped queries `Qj(x,y) ← Tj(x), Sj(x,y), Rj(x,y)` over disjoint
/// relation families, plus one interleaved stream covering all of them.
pub struct MultiQueryWorkload {
    /// The shared schema (relations `Tj`, `Sj`, `Rj` for each query).
    pub schema: Schema,
    /// One compiled automaton per query.
    pub pceas: Vec<Pcea>,
    /// Pre-generated interleaved stream.
    pub stream: Vec<Tuple>,
}

/// Build the multi-query workload: `m` queries, `n` tuples round-robined
/// across the query families with the given key domains.
pub fn multi_query_workload(
    m: usize,
    n: usize,
    x_domain: i64,
    y_domain: i64,
    seed: u64,
) -> MultiQueryWorkload {
    use cer_common::gen::Sigma0Gen;
    assert!(m >= 1);
    let mut schema = Schema::new();
    let mut pceas = Vec::with_capacity(m);
    let mut gens = Vec::with_capacity(m);
    for j in 0..m {
        let text = format!("Q{j}(x, y) <- T{j}(x), S{j}(x, y), R{j}(x, y)");
        let query = parse_query(&mut schema, &text).expect("valid query");
        pceas.push(
            compile_hcq(&schema, &query)
                .expect("σ0-shaped queries are HCQ")
                .pcea,
        );
        let r = schema.relation(&format!("R{j}")).expect("R");
        let s = schema.relation(&format!("S{j}")).expect("S");
        let t = schema.relation(&format!("T{j}")).expect("T");
        gens.push(
            Sigma0Gen::new(r, s, t, seed.wrapping_add(j as u64)).with_domains(x_domain, y_domain),
        );
    }
    let stream: Vec<Tuple> = (0..n)
        .map(|i| gens[i % m].next_tuple().expect("infinite"))
        .collect();
    MultiQueryWorkload {
        schema,
        pceas,
        stream,
    }
}

/// A near-duplicate multi-query workload for the shared-evaluation
/// benches: `skeletons` disjoint σ0-shaped relation families
/// (`Tf`, `Sf`, `Rf`), each hosting `variants` queries that differ only
/// in the threshold constant of the S-branch unary predicate
/// (`S_f(x,y) ∧ y ≥ c`). Thresholds cycle through `0..y_domain`, so
/// with more variants than distinct thresholds most queries are *exact*
/// duplicates of an earlier one — the regime the runtime's shared
/// predicate cache and skeleton grouping target.
pub struct NearDuplicateWorkload {
    /// The schema: relations `Tf`, `Sf`, `Rf` per skeleton family.
    pub schema: Schema,
    /// One compiled automaton per query (`skeletons × variants`),
    /// family-major.
    pub pceas: Vec<Pcea>,
    /// Pre-generated stream, round-robined across the families.
    pub stream: Vec<Tuple>,
}

/// σ0-shaped variant automaton: `paper_p0`'s three-transition skeleton
/// over (`r`, `s`, `t`) with the S-branch initial predicate tightened
/// to `S(x,y) ∧ y ≥ threshold`.
fn sigma0_variant(r: RelationId, s: RelationId, t: RelationId, threshold: i64) -> Pcea {
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

/// Build the near-duplicate workload: `skeletons × variants` queries,
/// `n` tuples round-robined across the skeleton families with the
/// given key domains.
pub fn near_duplicate_workload(
    skeletons: usize,
    variants: usize,
    n: usize,
    x_domain: i64,
    y_domain: i64,
    seed: u64,
) -> NearDuplicateWorkload {
    assert!(skeletons >= 1 && variants >= 1 && y_domain >= 1);
    let mut schema = Schema::new();
    let mut pceas = Vec::with_capacity(skeletons * variants);
    let mut gens = Vec::with_capacity(skeletons);
    for f in 0..skeletons {
        let t = schema
            .add_relation(&format!("T{f}"), 1)
            .expect("fresh schema");
        let s = schema
            .add_relation(&format!("S{f}"), 2)
            .expect("fresh schema");
        let r = schema
            .add_relation(&format!("R{f}"), 2)
            .expect("fresh schema");
        for v in 0..variants {
            pceas.push(sigma0_variant(r, s, t, (v as i64) % y_domain));
        }
        gens.push(
            Sigma0Gen::new(r, s, t, seed.wrapping_add(f as u64)).with_domains(x_domain, y_domain),
        );
    }
    let stream: Vec<Tuple> = (0..n)
        .map(|i| gens[i % skeletons].next_tuple().expect("infinite"))
        .collect();
    NearDuplicateWorkload {
        schema,
        pceas,
        stream,
    }
}

/// The parallel-branch PFA family for experiment E4: `n` branches that
/// must each see their own symbol (in any order) before the joining
/// symbol `n` — the subset construction must track each branch
/// independently, giving ~`2^n` reachable subsets.
pub fn parallel_branch_pfa(n: usize) -> Pfa {
    // States: 2 per branch (waiting, done) + 1 joined.
    let mut p = Pfa::new(2 * n + 1);
    let joined = 2 * n;
    let join_sym = n as u32;
    for b in 0..n {
        let (wait, done) = (2 * b, 2 * b + 1);
        p.add_initial(wait);
        for a in 0..=n as u32 {
            p.add_transition(vec![wait], a, wait);
            p.add_transition(vec![done], a, done);
        }
        p.add_transition(vec![wait], b as u32, done);
    }
    let all_done: Vec<usize> = (0..n).map(|b| 2 * b + 1).collect();
    p.add_transition(all_done, join_sym, joined);
    p.add_final(joined);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_core::Evaluator;

    #[test]
    fn star_workload_builds_and_matches() {
        let w = star_workload(3, 200, 2, 2, 1);
        let mut engine = cer_core::StreamingEvaluator::new(w.pcea, 32);
        let total: usize = w.stream.iter().map(|t| engine.push_count(t)).sum();
        assert!(total > 0, "dense star workload must produce matches");
    }

    #[test]
    fn sigma0_workload_matches_q0() {
        let w = sigma0_workload(300, 3, 3, 2);
        let mut engine = cer_core::StreamingEvaluator::new(w.pcea, 32);
        let total: usize = w.stream.iter().map(|t| engine.push_count(t)).sum();
        assert!(total > 0);
    }

    #[test]
    fn chain_workload_agrees_between_engines() {
        let w = chain_workload(3, 150, 3, 3);
        let mut spec = cer_baselines::CceaStreamEvaluator::new(w.ccea, 16);
        let mut gen = cer_core::StreamingEvaluator::new(w.pcea, 16);
        for t in &w.stream {
            assert_eq!(spec.push_count(t), gen.push_count(t));
        }
    }

    #[test]
    fn near_duplicate_workload_shares_skeletons_and_dedups() {
        let w = near_duplicate_workload(2, 6, 400, 3, 3, 5);
        assert_eq!(w.pceas.len(), 12);
        // Every variant within a family (and across families) shares
        // the three-transition skeleton...
        for p in &w.pceas[1..] {
            assert!(w.pceas[0].skeleton_compatible(p));
        }
        // ...but families listen to disjoint relations.
        assert_ne!(w.pceas[0].relations(), w.pceas[6].relations());
        // Thresholds cycle through 0..y_domain: variant 3 of a family
        // is an exact duplicate of variant 0.
        assert_eq!(
            w.pceas[0].transitions()[1].unary.canonical_key(),
            w.pceas[3].transitions()[1].unary.canonical_key()
        );
        assert_ne!(
            w.pceas[0].transitions()[1].unary.canonical_key(),
            w.pceas[1].transitions()[1].unary.canonical_key()
        );
        // Threshold 0 keeps the full σ0 semantics: matches exist.
        let mut engine = cer_core::StreamingEvaluator::new(w.pceas[0].clone(), 64);
        let total: usize = w.stream.iter().map(|t| engine.push_count(t)).sum();
        assert!(total > 0);
    }

    #[test]
    fn parallel_branch_pfa_language() {
        let p = parallel_branch_pfa(3);
        // Needs 0, 1, 2 (any order) then 3.
        assert!(p.accepts(&[0, 1, 2, 3]));
        assert!(p.accepts(&[2, 0, 1, 3]));
        assert!(!p.accepts(&[0, 1, 3]));
        let d = p.to_dfa();
        assert!(d.num_states() >= 1 << 3, "subset growth is exponential");
    }
}
