//! Baseline 1: explicit run maintenance (no factorization).
//!
//! Keeps every partial run of the PCEA as an explicit
//! `(state, last position, last tuple, valuation)` record. Each arriving
//! tuple is matched against all stored runs, taking cross products for
//! multi-source transitions. This is the "textbook" CER automaton
//! evaluator: correct, but both update time and memory grow with the
//! number of partial matches — the behaviour the paper's `DS_w`
//! factorization exists to avoid (experiments E5/E6).

use cer_automata::pcea::Pcea;
use cer_automata::valuation::Valuation;
use cer_common::Tuple;
use cer_core::api::Evaluator;
use cer_core::window::{WindowClock, WindowPolicy};

/// One explicit partial run.
#[derive(Clone, Debug)]
struct Run {
    /// The tuple its root read (needed for future join predicates).
    tuple: Tuple,
    /// The accumulated valuation.
    val: Valuation,
}

/// The explicit-run evaluator.
#[derive(Clone, Debug)]
pub struct NaiveRunsEvaluator {
    pcea: Pcea,
    clock: WindowClock,
    /// `runs[p]`: live partial runs whose root is at state `p`.
    runs: Vec<Vec<Run>>,
    next_pos: u64,
    /// Safety valve: panic if the run store exceeds this (the explosion
    /// is the baseline's point, but tests should fail loudly).
    pub max_runs: usize,
}

impl NaiveRunsEvaluator {
    /// Create an evaluator with count window `w`.
    pub fn new(pcea: Pcea, w: u64) -> Self {
        Self::with_window(pcea, WindowPolicy::Count(w))
    }

    /// Create an evaluator with an explicit window policy (the
    /// ingest/window stage is shared with the streaming engine).
    pub fn with_window(pcea: Pcea, window: WindowPolicy) -> Self {
        let n = pcea.num_states();
        NaiveRunsEvaluator {
            pcea,
            clock: WindowClock::new(window),
            runs: vec![Vec::new(); n],
            next_pos: 0,
            max_runs: 10_000_000,
        }
    }

    /// Number of stored partial runs.
    pub fn stored_runs(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

impl Evaluator for NaiveRunsEvaluator {
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        let i = self.next_pos;
        self.next_pos += 1;
        let lo = self.clock.observe(i, t);

        // Expire runs that can no longer produce an in-window output
        // (their minimum position only decreases under products).
        for rs in &mut self.runs {
            rs.retain(|r| r.val.min_pos().is_none_or(|m| m >= lo));
        }

        let mut fresh: Vec<(usize, Run)> = Vec::new();
        for tr in self.pcea.transitions() {
            if !tr.unary.matches(t) {
                continue;
            }
            // Candidate runs per source slot.
            let mut cands: Vec<Vec<&Run>> = Vec::with_capacity(tr.sources.len());
            let mut feasible = true;
            for (p, b) in tr.sources.iter().zip(tr.binary.iter()) {
                let c: Vec<&Run> = self.runs[p.index()]
                    .iter()
                    .filter(|r| b.satisfied(&r.tuple, t))
                    .collect();
                if c.is_empty() {
                    feasible = false;
                    break;
                }
                cands.push(c);
            }
            if !feasible {
                continue;
            }
            // Cross product of source choices.
            let mut combos: Vec<Valuation> =
                vec![Valuation::singleton(self.pcea.num_labels(), tr.labels, i)];
            for c in &cands {
                let mut next = Vec::with_capacity(combos.len() * c.len());
                for base in &combos {
                    for r in c {
                        next.push(base.product(&r.val));
                    }
                }
                combos = next;
            }
            for val in combos {
                fresh.push((
                    tr.target.index(),
                    Run {
                        tuple: t.clone(),
                        val,
                    },
                ));
            }
        }

        let mut outputs = Vec::new();
        for (p, run) in fresh {
            if self.pcea.is_final(cer_automata::pcea::StateId(p as u32))
                && run.val.min_pos().is_none_or(|m| m >= lo)
            {
                outputs.push(run.val.clone());
            }
            self.runs[p].push(run);
        }
        assert!(
            self.stored_runs() <= self.max_runs,
            "naive run store exploded past {} runs",
            self.max_runs
        );
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::pcea::paper_p0;
    use cer_automata::reference::ReferenceEval;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;

    #[test]
    fn matches_reference_on_s0() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let pcea = paper_p0(r, s, t);
        let reference = ReferenceEval::new(&pcea, &stream);
        for w in [2u64, 4, 5, 100] {
            let mut engine = NaiveRunsEvaluator::new(pcea.clone(), w);
            for (n, tu) in stream.iter().enumerate() {
                let mut got = engine.push_collect(tu);
                got.sort();
                got.dedup();
                assert_eq!(got, reference.windowed_outputs_at(n, w), "w={w} at {n}");
            }
        }
    }

    #[test]
    fn run_store_grows_with_matches() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 3).with_domains(2, 2);
        let pcea = paper_p0(r, s, t);
        let mut engine = NaiveRunsEvaluator::new(pcea, 64);
        let mut sizes = Vec::new();
        for _ in 0..128 {
            let tu = gen.next_tuple().unwrap();
            engine.push_collect(&tu);
            sizes.push(engine.stored_runs());
        }
        assert!(
            sizes[127] > sizes[16],
            "explicit run store should keep growing inside the window"
        );
    }

    #[test]
    fn expiry_bounds_the_store() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 3).with_domains(4, 4);
        let pcea = paper_p0(r, s, t);
        let mut engine = NaiveRunsEvaluator::new(pcea, 8);
        let mut peak = 0;
        for _ in 0..1000 {
            let tu = gen.next_tuple().unwrap();
            engine.push_collect(&tu);
            peak = peak.max(engine.stored_runs());
        }
        assert!(
            peak < 2000,
            "window expiry must bound the store, peak {peak}"
        );
    }
}
