//! The shared evaluator trait surface.
//!
//! Every per-query evaluator in the workspace — the paper's streaming
//! engine and the comparison baselines in `cer-baselines` — implements
//! [`Evaluator`], so differential tests and the multi-query
//! [`Runtime`](crate::runtime::Runtime) benches can swap engines behind
//! one interface and compare like-for-like.
//!
//! An evaluator's `impl Evaluator` is the only definition of its
//! single-tuple surface: no evaluator repeats `push_collect`,
//! `push_count` or `push_for_each` as inherent methods, so calling them
//! on a concrete type needs this trait in scope (it is in `cer_core`'s
//! root and in `pcea::prelude`). The streaming engine's impl pushes a
//! slice of one through the same per-position core as its batch path
//! ([`crate::evaluator`]).

use cer_automata::valuation::Valuation;
use cer_common::Tuple;

/// A single-query streaming evaluator: push one tuple, get the new
/// outputs completed at its position.
pub trait Evaluator {
    /// Push one tuple; returns the new outputs at its position.
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation>;

    /// Push a tuple and count the new outputs. Engines that can count
    /// without materializing valuations should override this.
    fn push_count(&mut self, t: &Tuple) -> usize {
        self.push_collect(t).len()
    }

    /// Push a tuple, calling `f` for each new output.
    fn push_for_each(&mut self, t: &Tuple, f: &mut dyn FnMut(&Valuation)) {
        for v in self.push_collect(t) {
            f(&v);
        }
    }

    /// Push a whole slice of tuples in stream order, calling
    /// `f(offset, v)` for each new output, where `offset` indexes the
    /// tuple within `batch` whose position completed the match.
    ///
    /// The default implementation falls back to tuple-at-a-time
    /// [`push_for_each`](Self::push_for_each), so every evaluator gets
    /// the batch surface for free; engines with a vectorized batch path
    /// (the streaming engine's
    /// [`push_slice_for_each`](crate::evaluator::StreamingEvaluator::push_slice_for_each))
    /// override it. Outputs must be identical to pushing the tuples one
    /// at a time — batch size is an implementation detail, never a
    /// semantic knob.
    fn push_slice(&mut self, batch: &[Tuple], f: &mut dyn FnMut(usize, &Valuation)) {
        for (j, t) in batch.iter().enumerate() {
            self.push_for_each(t, &mut |v| f(j, v));
        }
    }
}
