//! Baseline 2: per-tuple CQ re-evaluation over the window.
//!
//! The classic pre-automaton approach: keep the last `w + 1` tuples in a
//! buffer and, on every arrival, re-evaluate the conjunctive query over
//! the buffer, reporting the matches that use the new tuple. Correct and
//! simple, but the per-tuple cost is a full (backtracking hash) join over
//! the window — experiment E5 measures where the streaming engine
//! overtakes it.

use cer_automata::valuation::Valuation;
use cer_common::hash::FxHashMap;
use cer_common::{RelationId, Tuple};
use cer_core::api::Evaluator;
use cer_core::window::{WindowClock, WindowPolicy};
use cer_cq::hom;
use cer_cq::query::ConjunctiveQuery;
use std::collections::VecDeque;

/// The re-evaluation baseline.
#[derive(Clone, Debug)]
pub struct RecomputeEvaluator {
    query: ConjunctiveQuery,
    clock: WindowClock,
    /// `(global position, tuple)` ring of the last `w + 1` tuples.
    window: VecDeque<(u64, Tuple)>,
    next_pos: u64,
}

impl RecomputeEvaluator {
    /// Create an evaluator with count window `w`.
    pub fn new(query: ConjunctiveQuery, w: u64) -> Self {
        Self::with_window(query, WindowPolicy::Count(w))
    }

    /// Create an evaluator with an explicit window policy (the
    /// ingest/window stage is shared with the streaming engine).
    pub fn with_window(query: ConjunctiveQuery, window: WindowPolicy) -> Self {
        RecomputeEvaluator {
            query,
            clock: WindowClock::new(window),
            window: VecDeque::new(),
            next_pos: 0,
        }
    }

    /// Tuples currently buffered.
    pub fn buffered(&self) -> usize {
        self.window.len()
    }

    /// Per-relation sizes of the current buffer (diagnostics).
    pub fn relation_histogram(&self) -> FxHashMap<RelationId, usize> {
        let mut h: FxHashMap<RelationId, usize> = FxHashMap::default();
        for (_, t) in &self.window {
            *h.entry(t.relation()).or_insert(0) += 1;
        }
        h
    }
}

impl Evaluator for RecomputeEvaluator {
    /// The new outputs carry *global* stream positions.
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        let i = self.next_pos;
        self.next_pos += 1;
        let lo = self.clock.observe(i, t);
        while self.window.front().is_some_and(|(p, _)| *p < lo) {
            self.window.pop_front();
        }
        self.window.push_back((i, t.clone()));

        // Re-evaluate over the buffer; keep matches that use position i.
        let mut db = cer_cq::Database::new();
        let mut local_to_global: Vec<u64> = Vec::with_capacity(self.window.len());
        let mut new_local = usize::MAX;
        for (k, (p, tu)) in self.window.iter().enumerate() {
            db.insert(tu.clone());
            local_to_global.push(*p);
            if *p == i {
                new_local = k;
            }
        }
        let mut out: Vec<Valuation> = hom::t_homomorphisms(&self.query, &db)
            .into_iter()
            .filter(|eta| eta.contains(&new_local))
            .map(|eta| {
                let global: Vec<usize> = eta.iter().map(|&l| local_to_global[l] as usize).collect();
                hom::thom_to_valuation(&self.query, &global)
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;
    use cer_cq::parser::parse_query;

    fn q0() -> (Schema, ConjunctiveQuery) {
        let mut schema = Schema::new();
        let q = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
        (schema, q)
    }

    #[test]
    fn matches_hom_oracle_on_s0() {
        let (schema, q) = q0();
        let r = schema.relation("R").unwrap();
        let s = schema.relation("S").unwrap();
        let t = schema.relation("T").unwrap();
        let stream = sigma0_prefix(r, s, t);
        for w in [3u64, 4, 5, 100] {
            let mut engine = RecomputeEvaluator::new(q.clone(), w);
            for (n, tu) in stream.iter().enumerate() {
                let got = engine.push_collect(tu);
                let want = hom::windowed_new_outputs_at(&q, &stream, n, w);
                assert_eq!(got, want, "w={w} at position {n}");
            }
        }
    }

    #[test]
    fn window_buffer_is_bounded() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (schema, q) = q0();
        let r = schema.relation("R").unwrap();
        let s = schema.relation("S").unwrap();
        let t = schema.relation("T").unwrap();
        let mut gen = Sigma0Gen::new(r, s, t, 5).with_domains(64, 64);
        let mut engine = RecomputeEvaluator::new(q, 16);
        for _ in 0..200 {
            let tu = gen.next_tuple().unwrap();
            engine.push_collect(&tu);
            assert!(engine.buffered() <= 17);
        }
        assert!(!engine.relation_histogram().is_empty());
    }

    #[test]
    fn self_join_query_recompute() {
        let mut schema = Schema::new();
        let q = parse_query(&mut schema, "Q(x) <- T(x), T(x)").unwrap();
        let t = schema.relation("T").unwrap();
        let stream = [
            cer_common::tuple::tup(t, [1i64]),
            cer_common::tuple::tup(t, [1i64]),
        ];
        let mut engine = RecomputeEvaluator::new(q.clone(), 100);
        assert_eq!(engine.push_collect(&stream[0]).len(), 1);
        // New at position 1: {0↦0,1↦1}, {0↦1,1↦0}, {0↦1,1↦1}.
        assert_eq!(engine.push_collect(&stream[1]).len(), 3);
    }
}
