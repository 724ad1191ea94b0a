//! Output-linear-delay enumeration over `DS_w` (Theorem 5.2).
//!
//! Enumerates `⟦n⟧^w_i` — the valuations represented by a node whose
//! span fits the sliding window — without preprocessing. The walk
//! interleaves two moves:
//!
//! * *union descent*: visit the union tree below a node, pruning any
//!   subtree with `max-start < i − w` in `O(1)` (sound by the heap
//!   condition (‡), complete because expiry is hereditary);
//! * *product expansion*: for a product node, emit the cross product of
//!   one choice per product child, each choice drawn from the child's own
//!   windowed bag. The nodes still to choose from are a linked list of
//!   borrowed `prod` slices whose links live on the recursion stack
//!   (`Pending`), so expanding a product node allocates nothing.
//!
//! The running valuation is one flat [`Valuation`] built in place and
//! backtracked: choosing a node is one `insert` of its `(L, i)`, leaving
//! it the matching `remove`. Between two emitted outputs the walk undoes
//! and redoes only the choices in which they differ — at most one
//! insert/remove pair per node of the next output, plus `O(1)` per pruned
//! branch — so the delay is linear in the next output *counted in
//! scratch operations*. One such operation is a binary search in the
//! label's group plus a `memmove` of the positions stored after the slot
//! and a bump of at most `|Ω|` offset words (see [`Valuation`]'s cost
//! table): a word or two when the position lands at the buffer's end,
//! `O(|Ω| + |ν|)` words at worst — the same bound as the per-label
//! vectors the scratch used to be, and for the `|ν| ≤ |Ω| ≤ 64` outputs
//! of compiled conjunctive queries a constant. What is handed to the
//! callback is the scratch itself, so emitting costs nothing; keeping an
//! output is the caller's one `clone` — one allocation, `O(|Ω| + |ν|)`.
//!
//! When the structure is *simple* (guaranteed for unambiguous PCEA), no
//! valuation is emitted twice.

use crate::ds::{EnumStructure, NodeId};
use cer_automata::valuation::Valuation;

/// Enumerate `⟦root⟧^w_i`, invoking `f` once per valuation.
///
/// `i` is the current stream position and `w` the window size; a
/// valuation qualifies iff `i − min(ν) ≤ w`. The `&Valuation` passed to
/// `f` is a reusable buffer — clone it to keep it.
pub fn for_each_valuation<F: FnMut(&Valuation)>(
    ds: &EnumStructure,
    root: NodeId,
    i: u64,
    w: u64,
    num_labels: usize,
    f: F,
) {
    for_each_valuation_from(ds, root, i.saturating_sub(w), num_labels, f);
}

/// Enumerate all valuations with `min(ν) ≥ lo` — the window-generic
/// variant used by time-based windows, where the expiry bound is not
/// `i − w` but any monotonically non-decreasing position.
pub fn for_each_valuation_from<F: FnMut(&Valuation)>(
    ds: &EnumStructure,
    root: NodeId,
    lo: u64,
    num_labels: usize,
    f: F,
) {
    for_each_valuation_into(ds, root, lo, &mut Valuation::empty(num_labels), f);
}

/// [`for_each_valuation_from`] on a caller-owned scratch, so a caller
/// enumerating many roots pays for one scratch, not one per root.
/// `scratch` must be empty over the query's labels (or over none, to
/// count without materializing) and is empty again on return.
pub(crate) fn for_each_valuation_into<F: FnMut(&Valuation)>(
    ds: &EnumStructure,
    root: NodeId,
    lo: u64,
    scratch: &mut Valuation,
    f: F,
) {
    debug_assert!(scratch.is_empty());
    let mut e = Enumerator {
        ds,
        lo,
        f,
        val: scratch,
    };
    let nothing_pending = Pending {
        nodes: &[],
        next: None,
    };
    e.one_of(root, nothing_pending);
}

/// Materialize `⟦root⟧^w_i` as a vector.
pub fn collect_valuations(
    ds: &EnumStructure,
    root: NodeId,
    i: u64,
    w: u64,
    num_labels: usize,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    for_each_valuation(ds, root, i, w, num_labels, |v| out.push(v.clone()));
    out
}

/// Count `|⟦root⟧^w_i|` without materializing valuations.
pub fn count_valuations(ds: &EnumStructure, root: NodeId, i: u64, w: u64) -> usize {
    let mut n = 0usize;
    for_each_valuation(ds, root, i, w, 0, |_| n += 1);
    n
}

/// The nodes a valuation must still be chosen from: the rest of the
/// product node being expanded, then whatever its ancestors left
/// pending. Each link borrows a node's `prod` slice and lives in the
/// stack frame of the `one_of` call that expands that node.
#[derive(Clone, Copy)]
struct Pending<'p> {
    nodes: &'p [NodeId],
    next: Option<&'p Pending<'p>>,
}

struct Enumerator<'a, F> {
    ds: &'a EnumStructure,
    lo: u64,
    f: F,
    val: &'a mut Valuation,
}

impl<F: FnMut(&Valuation)> Enumerator<'_, F> {
    /// Emit every way of choosing one valuation from each node of
    /// `pending` on top of the current partial valuation.
    fn product_over(&mut self, mut pending: Pending<'_>) {
        loop {
            if let Some((&first, rest)) = pending.nodes.split_first() {
                let rest = Pending {
                    nodes: rest,
                    next: pending.next,
                };
                return self.one_of(first, rest);
            }
            match pending.next {
                Some(outer) => pending = *outer,
                None => return (self.f)(self.val),
            }
        }
    }

    /// Choose a valuation from `⟦node⟧^w_i` (walking its union tree and
    /// product alternatives), then continue with `rest`.
    fn one_of(&mut self, node: NodeId, rest: Pending<'_>) {
        if node.is_bottom() || self.ds.max_start(node) < self.lo {
            return; // (‡): the whole subtree is out of the window.
        }
        let n = self.ds.node(node);
        // Product alternative: ν_{L,i} ⊕ one choice per product child.
        let pending = Pending {
            nodes: self.ds.prod(node),
            next: Some(&rest),
        };
        if self.val.num_labels() == 0 {
            // Counting mode: no labels to record under.
            self.product_over(pending);
        } else {
            self.val.insert(n.labels, n.pos);
            self.product_over(pending);
            self.val.remove(n.labels, n.pos);
        }
        // Union alternatives.
        self.one_of(n.uleft, rest);
        self.one_of(n.uright, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ds::BOTTOM;
    use cer_automata::valuation::{Label, LabelSet};

    fn l(i: u32) -> LabelSet {
        LabelSet::singleton(Label(i))
    }

    #[test]
    fn single_node_single_valuation() {
        let mut ds = EnumStructure::new();
        let n = ds.extend(l(0), 5, &[]);
        let vs = collect_valuations(&ds, n, 5, 10, 1);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].get(Label(0)), &[5]);
    }

    #[test]
    fn product_cross_multiplies() {
        // Two alternatives at label 0 (positions 1 and 2) × one at label
        // 1 (position 3), gathered at position 4 under label 2.
        let mut ds = EnumStructure::new();
        let a1 = ds.extend(l(0), 1, &[]);
        let a2 = ds.extend(l(0), 2, &[]);
        let a = ds.union(a1, a2, 0);
        let b = ds.extend(l(1), 3, &[]);
        let root = ds.extend(l(2), 4, &[a, b]);
        let vs = collect_valuations(&ds, root, 4, 100, 3);
        assert_eq!(vs.len(), 2);
        let mut mins: Vec<u64> = vs.iter().map(|v| v.min_pos().unwrap()).collect();
        mins.sort_unstable();
        assert_eq!(mins, vec![1, 2]);
        for v in &vs {
            assert_eq!(v.get(Label(1)), &[3]);
            assert_eq!(v.get(Label(2)), &[4]);
            assert_eq!(v.weight(), 3);
        }
    }

    #[test]
    fn window_prunes_stale_alternatives() {
        let mut ds = EnumStructure::new();
        let a1 = ds.extend(l(0), 1, &[]);
        let a2 = ds.extend(l(0), 90, &[]);
        let a = ds.union(a1, a2, 0);
        let b = ds.extend(l(1), 95, &[]);
        let root = ds.extend(l(2), 100, &[a, b]);
        // Window 20: only the position-90 alternative survives.
        let vs = collect_valuations(&ds, root, 100, 20, 3);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].min_pos(), Some(90));
        // Window 5: even position 90 is out; nothing qualifies.
        assert!(collect_valuations(&ds, root, 100, 5, 3).is_empty());
        // Window large: both.
        assert_eq!(collect_valuations(&ds, root, 100, 100, 3).len(), 2);
    }

    #[test]
    fn whole_node_out_of_window_yields_nothing() {
        let mut ds = EnumStructure::new();
        let n = ds.extend(l(0), 5, &[]);
        assert!(collect_valuations(&ds, n, 100, 10, 1).is_empty());
        assert_eq!(count_valuations(&ds, n, 100, 10), 0);
    }

    #[test]
    fn union_chain_enumerates_all() {
        let mut ds = EnumStructure::new();
        let mut root = BOTTOM;
        for i in 0..20u64 {
            let n = ds.extend(l(0), i, &[]);
            root = ds.union(root, n, 0);
        }
        let vs = collect_valuations(&ds, root, 19, 100, 1);
        assert_eq!(vs.len(), 20);
        let mut seen: Vec<u64> = vs.iter().map(|v| v.get(Label(0))[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        // Window 4: positions 15..=19.
        assert_eq!(count_valuations(&ds, root, 19, 4), 5);
    }

    #[test]
    fn nested_products_three_levels() {
        // ((1 × 2) at 3) × 4 at 5: a deep product tree.
        let mut ds = EnumStructure::new();
        let a = ds.extend(l(0), 1, &[]);
        let b = ds.extend(l(1), 2, &[]);
        let mid = ds.extend(l(2), 3, &[a, b]);
        let c = ds.extend(l(3), 4, &[]);
        let root = ds.extend(l(4), 5, &[mid, c]);
        let vs = collect_valuations(&ds, root, 5, 100, 5);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].weight(), 5);
    }

    #[test]
    fn count_matches_collect() {
        let mut ds = EnumStructure::new();
        let mut alt = BOTTOM;
        for i in 0..7u64 {
            let n = ds.extend(l(0), i, &[]);
            alt = ds.union(alt, n, 0);
        }
        let b = ds.extend(l(1), 8, &[]);
        let root = ds.extend(l(2), 9, &[alt, b]);
        for w in [0u64, 3, 8, 9, 100] {
            assert_eq!(
                count_valuations(&ds, root, 9, w),
                collect_valuations(&ds, root, 9, w, 3).len(),
                "window {w}"
            );
        }
    }

    #[test]
    fn bottom_enumerates_nothing() {
        let ds = EnumStructure::new();
        assert_eq!(count_valuations(&ds, BOTTOM, 0, 10), 0);
    }
}
