//! Parallelized Complex Event Automata (Section 3).
//!
//! A PCEA transition `(P, U, B, L, q) ∈ 2^Q × U × B^Q × (2^Ω ∖ {∅}) × Q`
//! fires on the current tuple when the tuple satisfies the unary predicate
//! `U` and, for every source state `p ∈ P`, the stored run at `p` joins
//! with the current tuple under the equality predicate `B(p)`. Transitions
//! with `P = ∅` start fresh runs (they play the role of CCEA's initial
//! function). Every fired transition marks the current position with the
//! non-empty label set `L`.
//!
//! The module provides the automaton structure and a [`PceaBuilder`]; the
//! *semantics* lives in two places: [`reference`](crate::reference) gives
//! the exponential run-tree semantics `⟦P⟧_n(S)` used as an oracle, and
//! `cer-core` gives the streaming algorithm of Theorem 5.1.

use crate::predicate::{EqPredicate, UnaryPredicate};
use crate::valuation::LabelSet;
use std::fmt;

cer_common::wire_struct! {
    /// A dense identifier for a PCEA state.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct StateId(pub u32);
}

impl StateId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

cer_common::wire_struct! {
    /// A PCEA transition `(P, U, B, L, q)`.
    ///
    /// `binary[k]` is the equality predicate `B(sources[k])`; the paper's `B`
    /// is a partial function `Q ⇀ Beq` and here it is total on `P` (a run can
    /// only be gathered if its join condition is stated).
    #[derive(Clone, Debug)]
    pub struct Transition {
        /// Source-state set `P`, sorted and duplicate-free. Empty for initial
        /// transitions.
        pub sources: Box<[StateId]>,
        /// The unary predicate `U` on the current tuple.
        pub unary: UnaryPredicate,
        /// Per-source equality predicates, aligned with `sources`.
        pub binary: Box<[EqPredicate]>,
        /// The non-empty label set `L` marking the current position.
        pub labels: LabelSet,
        /// Target state `q`.
        pub target: StateId,
    }
}

/// A parallelized complex event automaton `(Q, U, B, Ω, ∆, F)`.
#[derive(Clone, Debug, Default)]
pub struct Pcea {
    num_states: usize,
    num_labels: usize,
    transitions: Vec<Transition>,
    is_final: Vec<bool>,
}

impl Pcea {
    /// Number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Size of the label alphabet `|Ω|`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The paper's size measure `|P| = |Q| + Σ_{(P,U,B,L,q)} (|P| + |L|)`.
    pub fn size(&self) -> usize {
        self.num_states
            + self
                .transitions
                .iter()
                .map(|t| t.sources.len() + t.labels.len())
                .sum::<usize>()
    }

    /// The transition relation `∆`.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Whether `q ∈ F`.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.is_final[q.index()]
    }

    /// Iterate over final states.
    pub fn finals(&self) -> impl Iterator<Item = StateId> + '_ {
        self.is_final
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| StateId(i as u32))
    }

    /// All states, in index order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states as u32).map(StateId)
    }

    /// The relations whose tuples can fire any transition, or `None`
    /// when some transition's unary predicate is not confined to known
    /// relations (the automaton must then see every tuple). Used by the
    /// multi-query runtime to route stream tuples.
    pub fn relations(&self) -> Option<Vec<cer_common::RelationId>> {
        let mut out: Vec<cer_common::RelationId> = Vec::new();
        for tr in &self.transitions {
            let rs = tr.unary.relations()?;
            for r in rs {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        Some(out)
    }

    /// Whether `other` shares this automaton's *skeleton*: same state
    /// count, same label alphabet, same finals, and transition-for-
    /// transition the same sources, target and label set. Predicates
    /// (unary filters, join keys) are free to differ.
    ///
    /// The skeleton is exactly the part of the automaton that the
    /// streaming engine's accumulated state is keyed on — `DS_w` nodes
    /// carry label sets and target-state node lists, and the look-up
    /// table `H` is keyed by transition index and source slot — so a
    /// skeleton-compatible recompiled query can take over a
    /// predecessor's live state (`Runtime::replace` in `cer-core`).
    pub fn skeleton_compatible(&self, other: &Pcea) -> bool {
        self.num_states == other.num_states
            && self.num_labels == other.num_labels
            && self.is_final == other.is_final
            && self.transitions.len() == other.transitions.len()
            && self
                .transitions
                .iter()
                .zip(&other.transitions)
                .all(|(a, b)| {
                    a.sources == b.sources && a.target == b.target && a.labels == b.labels
                })
    }

    /// Whether outputs are preserved under key-partitioned sharding on
    /// the tuple attribute at `pos`: every join predicate must project
    /// that attribute at a common key index on both sides
    /// ([`EqPredicate::preserves_partition`]), so every pair of joined
    /// tuples — and hence every complete match — shares one partition
    /// value.
    pub fn supports_key_partition(&self, pos: usize) -> bool {
        self.transitions
            .iter()
            .all(|tr| tr.binary.iter().all(|b| b.preserves_partition(pos)))
    }
}

mod wire_impls {
    //! Checkpoint wire encodings: a PCEA round-trips whenever every
    //! transition's unary predicate is a closed form (see the
    //! `predicate` module's wire impls for the one exception).

    use super::*;
    use crate::valuation::MAX_LABELS;
    use cer_common::wire::{Wire, WireError, WireReader, WireWriter};

    // Not a `wire_struct!` row: decoding validates every transition
    // against the state count.
    impl Wire for Pcea {
        fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
            self.num_states.encode(w)?;
            self.num_labels.encode(w)?;
            self.transitions.encode(w)?;
            self.is_final.encode(w)
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            let num_states = usize::decode(r)?;
            let num_labels = usize::decode(r)?;
            let transitions = Vec::<Transition>::decode(r)?;
            let is_final = Vec::<bool>::decode(r)?;
            if is_final.len() != num_states {
                return Err(WireError::Corrupt("finals length != state count"));
            }
            // Ω indexes every valuation the evaluator builds.
            if num_labels > MAX_LABELS {
                return Err(WireError::Corrupt("label alphabet too large"));
            }
            let state_ok = |q: &StateId| q.index() < num_states;
            for tr in &transitions {
                if !state_ok(&tr.target)
                    || !tr.sources.iter().all(state_ok)
                    || tr.sources.len() != tr.binary.len()
                    || tr.labels.is_empty()
                    || tr.labels.iter().any(|l| l.index() >= num_labels)
                {
                    return Err(WireError::Corrupt("malformed transition"));
                }
            }
            Ok(Pcea {
                num_states,
                num_labels,
                transitions,
                is_final,
            })
        }
    }
}

/// Incremental constructor for [`Pcea`].
///
/// ```
/// use cer_automata::pcea::PceaBuilder;
/// use cer_automata::predicate::{EqPredicate, UnaryPredicate};
/// use cer_automata::valuation::{Label, LabelSet};
/// use cer_common::Schema;
///
/// let (_, r, s, t) = Schema::sigma0();
/// let dot = LabelSet::singleton(Label(0));
/// let mut b = PceaBuilder::new(1);
/// let q0 = b.add_state();
/// let q1 = b.add_state();
/// b.add_initial_transition(UnaryPredicate::Relation(t), dot, q0);
/// b.add_transition(
///     vec![(q0, EqPredicate::on_positions(t, [0usize], s, [0usize]))],
///     UnaryPredicate::Relation(s),
///     dot,
///     q1,
/// );
/// b.mark_final(q1);
/// let pcea = b.build();
/// assert_eq!(pcea.num_states(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PceaBuilder {
    num_states: usize,
    num_labels: usize,
    transitions: Vec<Transition>,
    finals: Vec<StateId>,
}

impl PceaBuilder {
    /// Start a builder for an automaton with `num_labels` output labels.
    pub fn new(num_labels: usize) -> Self {
        assert!(
            num_labels <= crate::valuation::MAX_LABELS,
            "at most {} labels supported",
            crate::valuation::MAX_LABELS
        );
        PceaBuilder {
            num_labels,
            ..Self::default()
        }
    }

    /// Add a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.num_states += 1;
        StateId(self.num_states as u32 - 1)
    }

    /// Add `n` fresh states, returning the first id.
    pub fn add_states(&mut self, n: usize) -> Vec<StateId> {
        (0..n).map(|_| self.add_state()).collect()
    }

    /// Add a transition `(P, U, B, L, q)` with per-source join predicates.
    ///
    /// Panics if `labels` is empty (the paper requires `L ∈ 2^Ω ∖ {∅}`),
    /// if a source is duplicated, or if any state is out of range.
    pub fn add_transition(
        &mut self,
        sources: Vec<(StateId, EqPredicate)>,
        unary: UnaryPredicate,
        labels: LabelSet,
        target: StateId,
    ) {
        assert!(!labels.is_empty(), "transition label set must be non-empty");
        assert!(
            labels.iter().all(|l| l.index() < self.num_labels),
            "label out of range"
        );
        let mut sources = sources;
        sources.sort_by_key(|(p, _)| *p);
        assert!(
            sources.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate source state in transition"
        );
        assert!(
            target.index() < self.num_states
                && sources.iter().all(|(p, _)| p.index() < self.num_states),
            "state out of range"
        );
        let (srcs, bins): (Vec<StateId>, Vec<EqPredicate>) = sources.into_iter().unzip();
        self.transitions.push(Transition {
            sources: srcs.into(),
            binary: bins.into(),
            unary,
            labels,
            target,
        });
    }

    /// Add an initial transition `(∅, U, ∅, L, q)`.
    pub fn add_initial_transition(
        &mut self,
        unary: UnaryPredicate,
        labels: LabelSet,
        target: StateId,
    ) {
        self.add_transition(Vec::new(), unary, labels, target);
    }

    /// Mark a state final.
    pub fn mark_final(&mut self, q: StateId) {
        assert!(q.index() < self.num_states, "state out of range");
        if !self.finals.contains(&q) {
            self.finals.push(q);
        }
    }

    /// Finish construction.
    pub fn build(self) -> Pcea {
        let mut is_final = vec![false; self.num_states];
        for f in self.finals {
            is_final[f.index()] = true;
        }
        Pcea {
            num_states: self.num_states,
            num_labels: self.num_labels,
            transitions: self.transitions,
            is_final,
        }
    }
}

/// Build the paper's example PCEA `P0` (Figure 1, right) over σ0:
/// `T` and `S` tuples joined with a later `R` tuple on the predicates
/// `(Tx, Rxy)` and `(Sxy, Rxy)`. One label `●`.
///
/// Returns the automaton; states are `(q0, q1, q2)` in index order.
pub fn paper_p0(
    r: cer_common::RelationId,
    s: cer_common::RelationId,
    t: cer_common::RelationId,
) -> Pcea {
    use crate::valuation::Label;
    let dot = LabelSet::singleton(Label(0));
    let mut b = PceaBuilder::new(1);
    let q0 = b.add_state();
    let q1 = b.add_state();
    let q2 = b.add_state();
    b.add_initial_transition(UnaryPredicate::Relation(t), dot, q0);
    b.add_initial_transition(UnaryPredicate::Relation(s), dot, q1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::Schema;

    #[test]
    fn builder_constructs_paper_p0() {
        let (_, r, s, t) = Schema::sigma0();
        let p = paper_p0(r, s, t);
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.num_labels(), 1);
        assert_eq!(p.transitions().len(), 3);
        assert_eq!(p.finals().collect::<Vec<_>>(), vec![StateId(2)]);
        // |Q| + Σ (|P| + |L|) = 3 + (0+1) + (0+1) + (2+1).
        assert_eq!(p.size(), 8);
    }

    #[test]
    fn transition_sources_sorted_and_aligned() {
        let (_, r, s, t) = Schema::sigma0();
        let mut b = PceaBuilder::new(1);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let bt = EqPredicate::on_positions(t, [0usize], r, [0usize]);
        let bs = EqPredicate::on_positions(s, [0usize], r, [0usize]);
        // Insert sources in reverse order; builder sorts them.
        b.add_transition(
            vec![(q1, bs.clone()), (q0, bt.clone())],
            UnaryPredicate::Relation(r),
            LabelSet::singleton(crate::valuation::Label(0)),
            q2,
        );
        let p = b.build();
        let tr = &p.transitions()[0];
        assert_eq!(tr.sources.as_ref(), &[q0, q1]);
        // binary[0] belongs to q0 (the T-side predicate).
        assert!(tr.binary[0]
            .left
            .extract(&cer_common::tuple::tup(t, [3i64]))
            .is_some());
        assert!(tr.binary[1]
            .left
            .extract(&cer_common::tuple::tup(s, [3i64, 4]))
            .is_some());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_label_set_rejected() {
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        b.add_initial_transition(UnaryPredicate::True, LabelSet::EMPTY, q);
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_sources_rejected() {
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        let p = b.add_state();
        b.add_transition(
            vec![(q, EqPredicate::default()), (q, EqPredicate::default())],
            UnaryPredicate::True,
            LabelSet::singleton(crate::valuation::Label(0)),
            p,
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn labels_bounded_by_alphabet() {
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        b.add_initial_transition(
            UnaryPredicate::True,
            LabelSet::singleton(crate::valuation::Label(5)),
            q,
        );
    }

    #[test]
    fn states_and_finals_iterate() {
        let mut b = PceaBuilder::new(1);
        let states = b.add_states(4);
        b.mark_final(states[1]);
        b.mark_final(states[3]);
        b.mark_final(states[3]); // idempotent
        let p = b.build();
        assert_eq!(p.states().count(), 4);
        assert_eq!(p.finals().collect::<Vec<_>>(), vec![states[1], states[3]]);
        assert!(p.is_final(states[1]));
        assert!(!p.is_final(states[0]));
    }
}
