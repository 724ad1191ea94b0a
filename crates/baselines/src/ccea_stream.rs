//! Baseline 3: a CCEA-specialized streaming evaluator in the style of
//! Grez & Riveros (ICDT 2020, reference \[16\] of the paper).
//!
//! CCEA runs are *chains*, so the enumeration structure degenerates: a
//! node needs a single `parent` pointer (the run's previous step) plus an
//! `alt` pointer chaining alternative runs that reached the same index
//! entry — O(1) list prepend instead of the PCEA engine's logarithmic
//! heap meld, no products. Window pruning keeps two summaries per cell:
//! `max_start` (best chain through this cell, the analogue of the
//! paper's `max-start`) and `suffix_start` (best over this cell and all
//! older alternatives), so enumeration stops scanning an alternative
//! list as soon as its whole suffix has slid out of the window, and
//! fully-dead suffixes are truncated at prepend time. (Reference \[16\]
//! had no sliding windows; the summaries make the comparison with the
//! PCEA engine fair on outputs and on asymptotics.)
//!
//! Experiment E7 compares this specialist against the general PCEA
//! engine on chain workloads.

use cer_automata::ccea::Ccea;
use cer_automata::predicate::Key;
use cer_automata::valuation::{LabelSet, Valuation};
use cer_common::hash::FxHashMap;
use cer_common::Tuple;
use cer_core::api::Evaluator;
use cer_core::window::{WindowClock, WindowPolicy};

const NIL: u32 = u32::MAX;

fn push_node(nodes: &mut Vec<ChainNode>, n: ChainNode) -> u32 {
    nodes.push(n);
    nodes.len() as u32 - 1
}

/// A chain node: one step of one-or-more runs, possibly heading an
/// alternative list.
#[derive(Clone, Debug)]
struct ChainNode {
    labels: LabelSet,
    pos: u64,
    /// `max{min(run) | run represented by this cell}` — the earliest
    /// position of the *best* chain through this cell.
    max_start: u64,
    /// `max(max_start(this), suffix_start(alt))`: best over this cell
    /// and all older alternatives.
    suffix_start: u64,
    /// Previous step (head of an alternative list), or `NIL`.
    parent: u32,
    /// Next (older) alternative reaching the same index entry, or `NIL`.
    alt: u32,
}

/// The chain-specialized streaming evaluator.
#[derive(Clone, Debug)]
pub struct CceaStreamEvaluator {
    ccea: Ccea,
    clock: WindowClock,
    nodes: Vec<ChainNode>,
    /// `(transition index, left key) → alternative-list head`.
    h: FxHashMap<(u32, Key), u32>,
    /// Fresh nodes per state, rebuilt each position.
    n_state: Vec<Vec<u32>>,
    next_pos: u64,
}

impl CceaStreamEvaluator {
    /// Create an evaluator with count window `w`.
    pub fn new(ccea: Ccea, w: u64) -> Self {
        Self::with_window(ccea, WindowPolicy::Count(w))
    }

    /// Create an evaluator with an explicit window policy (the
    /// ingest/window stage is shared with the streaming engine).
    pub fn with_window(ccea: Ccea, window: WindowPolicy) -> Self {
        let n = ccea.num_states();
        CceaStreamEvaluator {
            ccea,
            clock: WindowClock::new(window),
            nodes: Vec::new(),
            h: FxHashMap::default(),
            n_state: vec![Vec::new(); n],
            next_pos: 0,
        }
    }

    /// Nodes allocated so far.
    pub fn arena_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Walk the chain backwards, exploring live alternatives at each
    /// level. The caller guarantees `max_start(node) ≥ lo`.
    fn emit<F: FnMut(&Valuation)>(&self, node: u32, lo: u64, val: &mut Valuation, f: &mut F) {
        let n = &self.nodes[node as usize];
        debug_assert!(n.pos >= lo);
        val.insert(n.labels, n.pos);
        if n.parent == NIL {
            f(val);
        } else {
            let mut a = n.parent;
            while a != NIL && self.nodes[a as usize].suffix_start >= lo {
                if self.nodes[a as usize].max_start >= lo {
                    self.emit(a, lo, val, f);
                }
                a = self.nodes[a as usize].alt;
            }
        }
        val.remove(n.labels, n.pos);
    }
}

impl Evaluator for CceaStreamEvaluator {
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        let mut out = Vec::new();
        self.push_for_each(t, &mut |v| out.push(v.clone()));
        out
    }

    fn push_count(&mut self, t: &Tuple) -> usize {
        let mut n = 0;
        self.push_for_each(t, &mut |_| n += 1);
        n
    }

    fn push_for_each(&mut self, t: &Tuple, mut f: &mut dyn FnMut(&Valuation)) {
        let i = self.next_pos;
        self.next_pos += 1;
        let lo = self.clock.observe(i, t);

        for ns in &mut self.n_state {
            ns.clear();
        }

        // Initial function I(q) = (U, L).
        for q in 0..self.ccea.num_states() {
            let state = cer_automata::pcea::StateId(q as u32);
            if let Some((u, l)) = self.ccea.initial(state) {
                if u.matches(t) {
                    let node = push_node(
                        &mut self.nodes,
                        ChainNode {
                            labels: *l,
                            pos: i,
                            max_start: i,
                            suffix_start: i,
                            parent: NIL,
                            alt: NIL,
                        },
                    );
                    self.n_state[q].push(node);
                }
            }
        }
        // Chain transitions.
        for (e_idx, tr) in self.ccea.transitions().iter().enumerate() {
            if !tr.unary.matches(t) {
                continue;
            }
            let Some(key) = tr.binary.right.extract(t) else {
                continue;
            };
            if let Some(&head) = self.h.get(&(e_idx as u32, key)) {
                let best = self.nodes[head as usize].suffix_start;
                if best >= lo {
                    let max_start = best.min(i);
                    let node = push_node(
                        &mut self.nodes,
                        ChainNode {
                            labels: tr.labels,
                            pos: i,
                            max_start,
                            suffix_start: max_start,
                            parent: head,
                            alt: NIL,
                        },
                    );
                    self.n_state[tr.target.index()].push(node);
                }
            }
        }

        // Update indices: register fresh nodes under their left keys for
        // every transition out of their state, prepending to the
        // alternative list (dead suffixes are truncated).
        for (e_idx, tr) in self.ccea.transitions().iter().enumerate() {
            if self.n_state[tr.source.index()].is_empty() {
                continue;
            }
            let Some(key) = tr.binary.left.extract(t) else {
                continue;
            };
            for k in 0..self.n_state[tr.source.index()].len() {
                let node = self.n_state[tr.source.index()][k];
                let hkey = (e_idx as u32, key.clone());
                match self.h.get(&hkey) {
                    Some(&head) => {
                        let suffix = if self.nodes[head as usize].suffix_start >= lo {
                            head
                        } else {
                            NIL // Whole suffix expired: truncate.
                        };
                        let suffix_start =
                            self.nodes[node as usize].max_start.max(if suffix == NIL {
                                0
                            } else {
                                self.nodes[suffix as usize].suffix_start
                            });
                        let copy = ChainNode {
                            alt: suffix,
                            suffix_start,
                            ..self.nodes[node as usize].clone()
                        };
                        let id = push_node(&mut self.nodes, copy);
                        self.h.insert(hkey, id);
                    }
                    None => {
                        self.h.insert(hkey, node);
                    }
                }
            }
        }

        // Enumeration: fresh nodes at final states.
        let mut val = Valuation::empty(self.ccea.num_labels());
        for &q in self.ccea.finals() {
            for k in 0..self.n_state[q.index()].len() {
                let node = self.n_state[q.index()][k];
                if self.nodes[node as usize].max_start >= lo {
                    self.emit(node, lo, &mut val, &mut f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::ccea::paper_c0;
    use cer_automata::reference::ReferenceEval;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;

    #[test]
    fn matches_reference_on_s0() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let ccea = paper_c0(r, s, t);
        let pcea = ccea.to_pcea();
        let reference = ReferenceEval::new(&pcea, &stream);
        for w in [2u64, 4, 5, 100] {
            let mut engine = CceaStreamEvaluator::new(ccea.clone(), w);
            for (n, tu) in stream.iter().enumerate() {
                let mut got = engine.push_collect(tu);
                got.sort();
                got.dedup();
                assert_eq!(got, reference.windowed_outputs_at(n, w), "w={w} at {n}");
            }
        }
    }

    #[test]
    fn matches_pcea_engine_on_random_chains() {
        use cer_automata::pcea::StateId;
        use cer_automata::predicate::{EqPredicate, UnaryPredicate};
        use cer_automata::valuation::{Label, LabelSet};
        use cer_common::gen::ChainGen;
        use cer_common::{Schema, Stream};

        // Chain query: B0(a,b) ; B1(b,c) ; B2(c,d) joined end-to-start.
        let mut schema = Schema::new();
        let mut gen = ChainGen::build(&mut schema, 3, 99).unwrap().with_domain(3);
        let rels = gen.relations.clone();
        let mut ccea = Ccea::new(3, 3);
        ccea.set_initial(
            StateId(0),
            UnaryPredicate::Relation(rels[0]),
            LabelSet::singleton(Label(0)),
        );
        for k in 1..3usize {
            ccea.add_transition(
                StateId(k as u32 - 1),
                UnaryPredicate::Relation(rels[k]),
                EqPredicate::on_positions(rels[k - 1], [1usize], rels[k], [0usize]),
                LabelSet::singleton(Label(k as u32)),
                StateId(k as u32),
            );
        }
        ccea.mark_final(StateId(2));

        let stream: Vec<Tuple> = (0..300).map(|_| gen.next_tuple().unwrap()).collect();
        let pcea = ccea.to_pcea();
        for w in [5u64, 12, 40] {
            let mut specialist = CceaStreamEvaluator::new(ccea.clone(), w);
            let mut general = cer_core::StreamingEvaluator::new(pcea.clone(), w);
            for tu in &stream {
                let mut a = specialist.push_collect(tu);
                let mut b = general.push_collect(tu);
                a.sort();
                b.sort();
                assert_eq!(a, b, "w={w}");
            }
        }
    }

    #[test]
    fn suffix_truncation_bounds_alt_scans() {
        // A long dense stream with a small window: outputs must still be
        // produced, and the evaluator must not slow to a crawl (smoke
        // test: bounded time is asserted by the test timeout).
        use cer_automata::pcea::StateId;
        use cer_automata::predicate::{EqPredicate, UnaryPredicate};
        use cer_automata::valuation::{Label, LabelSet};
        use cer_common::gen::ChainGen;
        use cer_common::{Schema, Stream};
        let mut schema = Schema::new();
        let mut gen = ChainGen::build(&mut schema, 2, 1).unwrap().with_domain(2);
        let rels = gen.relations.clone();
        let mut ccea = Ccea::new(2, 2);
        ccea.set_initial(
            StateId(0),
            UnaryPredicate::Relation(rels[0]),
            LabelSet::singleton(Label(0)),
        );
        ccea.add_transition(
            StateId(0),
            UnaryPredicate::Relation(rels[1]),
            EqPredicate::on_positions(rels[0], [1usize], rels[1], [0usize]),
            LabelSet::singleton(Label(1)),
            StateId(1),
        );
        ccea.mark_final(StateId(1));
        let mut engine = CceaStreamEvaluator::new(ccea, 16);
        let mut total = 0usize;
        for _ in 0..20_000 {
            let tu = gen.next_tuple().unwrap();
            total += engine.push_count(&tu);
        }
        assert!(total > 10_000, "dense chain stream must produce outputs");
    }
}
