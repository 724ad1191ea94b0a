//! The enumeration data structure `DS_w` (Section 5).
//!
//! `DS_w` represents bags of valuations compactly: each node carries a
//! pair `(L, i)` (labels marking position `i`), a *product* list `prod`
//! (the bag `⟦n⟧_prod = {{ν_{L,i}}} ⊕ ⨁_{n′∈prod} ⟦n′⟧`), and two *union*
//! links `uleft`/`uright` (`⟦n⟧ = ⟦n⟧_prod ∪ ⟦uleft⟧ ∪ ⟦uright⟧`). The
//! per-node value `max-start(n) = max{min(ν) | ν ∈ ⟦n⟧_prod}` supports
//! sliding-window pruning: the bag `⟦n⟧^w_i` is non-empty iff
//! `i − max-start(n) ≤ w`, and the heap condition (‡)
//! (`max-start(n) ≥ max-start(uleft/uright(n))`) makes the check
//! hereditary.
//!
//! Nodes live in an arena and are never mutated (full persistence, as
//! Proposition 5.3 requires): [`EnumStructure::union`] is a persistent
//! *leftist max-heap meld* on `max-start`, copying `O(log n)` nodes per
//! call — the same bound as the paper's direction-bit balanced tree, with
//! a heap invariant that is easier to verify. Melding also drops subtrees
//! that have slid out of the window (the paper's
//! `|max-start(n1) − i(n2)| > w ⇒ union(n1,n2) = n2` case), which bounds
//! live union-tree sizes by `O(k·w)`.
//!
//! # Layout and costs
//!
//! The arena is two vectors the [`EnumStructure`] owns and nothing else
//! points into: `nodes`, fixed-size [`Node`]s (48 bytes, `Copy`), and
//! `pool`, the product lists of all nodes end to end. A node names its
//! list by an index range into the pool, so no node owns a heap block:
//!
//! * [`EnumStructure::extend`] appends one node and `|N|` pool words;
//! * [`EnumStructure::union`] copies `O(log(k·w))` fixed-size nodes and
//!   **no** product list — a path copy keeps its original's range, the
//!   list is immutable and shared;
//! * [`EnumStructure::compact`] (the copying collector) rebuilds both
//!   vectors from the live roots, sized up front for what the arena held
//!   so that in steady state neither regrows before the next collection,
//!   with a dense forwarding table instead of a hash map; each copied
//!   node gets its own range again, as every node has in the checkpoint
//!   encoding, whose bytes the pool did not change.
//!
//! Node ids and pool offsets are `u32`; running out is a panic
//! (`arena full`, the same check for every id and offset handed out,
//! `absorb`'s shifted ones included), never a wrap.

use cer_automata::valuation::LabelSet;

/// Index of a node in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

/// The bottom node `⊥` (empty bag).
pub const BOTTOM: NodeId = NodeId(u32::MAX);

impl NodeId {
    /// Whether this is `⊥`.
    #[inline]
    pub fn is_bottom(self) -> bool {
        self == BOTTOM
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// `len` as the next node id, pool offset or key-store offset of a
/// structure holding `len` items. `u32::MAX` is reserved ([`BOTTOM`]),
/// so a structure is full one short of it.
#[inline]
pub(crate) fn index32(len: usize) -> u32 {
    assert!(len < u32::MAX as usize, "arena full");
    len as u32
}

/// An immutable `DS_w` node. Its product children are
/// [`EnumStructure::prod`] of its id.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Labels `L(n)` marking position `i(n)`.
    pub labels: LabelSet,
    /// Stream position `i(n)`.
    pub pos: u64,
    /// `max{min(ν) | ν ∈ ⟦n⟧_prod}`.
    pub max_start: u64,
    /// Leftist rank (s-value) of the union tree rooted here.
    pub rank: u32,
    /// Product children: `pool[prod_start..][..prod_len]` of the arena
    /// that holds this node.
    prod_start: u32,
    prod_len: u32,
    /// Left union link.
    pub uleft: NodeId,
    /// Right union link.
    pub uright: NodeId,
}

/// Steps the collector's walk makes room for up front: one block
/// covers every union tree a few dozen nodes deep, and deeper ones
/// double it a few times per collection.
const WALK_STACK: usize = 64;

/// Scratch of [`EnumStructure::count_reachable`], kept across
/// collections so that a steady stream reuses it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reach {
    /// The variants that reached each node.
    reached: Vec<u64>,
    stack: Vec<(NodeId, u64)>,
}

/// The arena of `DS_w` nodes.
#[derive(Clone, Debug, Default)]
pub struct EnumStructure {
    nodes: Vec<Node>,
    /// Every node's product list, in creation order.
    pool: Vec<NodeId>,
    /// Nodes `union` has copied over this structure's lifetime.
    copies: u64,
}

impl EnumStructure {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes ever allocated (until compaction).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes copied by [`union`](Self::union) so far (collections keep
    /// the count). The leftist meld copies at most
    /// `⌊log₂(|a|+1)⌋ + ⌊log₂(|b|+1)⌋` per call, `|·|` a union tree's
    /// size; `tests/ds_properties.rs` gates that bound.
    pub fn copies(&self) -> u64 {
        self.copies
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// `max-start` with `⊥ ↦ 0` (never in any window).
    #[inline]
    pub fn max_start(&self, id: NodeId) -> u64 {
        if id.is_bottom() {
            0
        } else {
            self.nodes[id.index()].max_start
        }
    }

    #[inline]
    fn rank(&self, id: NodeId) -> u32 {
        if id.is_bottom() {
            0
        } else {
            self.nodes[id.index()].rank
        }
    }

    /// The product children of `id`.
    #[inline]
    pub fn prod(&self, id: NodeId) -> &[NodeId] {
        let n = &self.nodes[id.index()];
        &self.pool[n.prod_start as usize..][..n.prod_len as usize]
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(index32(self.nodes.len()));
        self.nodes.push(node);
        id
    }

    /// Append a product list to the pool, returning its range.
    fn push_prod(&mut self, prod: impl ExactSizeIterator<Item = NodeId>) -> (u32, u32) {
        let range = (index32(self.pool.len()), index32(prod.len()));
        self.pool.extend(prod);
        range
    }

    /// The paper's `extend(L, i, N)`: a fresh node `n_e` with
    /// `⟦n_e⟧ = {{ν_{L,i}}} ⊕ ⨁_{n∈N} ⟦n⟧` and
    /// `max-start(n_e) = min(i, min_N max-start)`. Runs in `O(|N|)`.
    ///
    /// Requires `pos(n) < i` for every `n ∈ N` (runs only gather strictly
    /// earlier runs).
    pub fn extend(&mut self, labels: LabelSet, pos: u64, prod: &[NodeId]) -> NodeId {
        debug_assert!(
            prod.iter().all(|&n| self.node(n).pos < pos),
            "extend gathers strictly earlier nodes"
        );
        let max_start = prod
            .iter()
            .map(|&n| self.max_start(n))
            .min()
            .map_or(pos, |m| m.min(pos));
        let (prod_start, prod_len) = self.push_prod(prod.iter().copied());
        self.push(Node {
            labels,
            pos,
            max_start,
            rank: 1,
            prod_start,
            prod_len,
            uleft: BOTTOM,
            uright: BOTTOM,
        })
    }

    /// The paper's `union(n1, n2)`: a node `n_u` with
    /// `⟦n_u⟧^w_i = ⟦n1⟧^w_i ∪ ⟦n2⟧^w_i`, fully persistent.
    ///
    /// Implemented as a leftist max-heap meld on `max-start`; subtrees
    /// whose `max-start` has fallen below `window_lo` (i.e. `< i − w`)
    /// are dropped, so only live nodes are retained. `O(log(k·w))` copies
    /// per call.
    pub fn union(&mut self, n1: NodeId, n2: NodeId, window_lo: u64) -> NodeId {
        // Every node the meld pushes is a copy.
        let before = self.nodes.len();
        let melded = self.meld(n1, n2, window_lo);
        self.copies += (self.nodes.len() - before) as u64;
        melded
    }

    fn meld(&mut self, a: NodeId, b: NodeId, lo: u64) -> NodeId {
        // Expired subtrees are empty under every future window: by (‡)
        // all their descendants are expired too.
        let a = if !a.is_bottom() && self.max_start(a) < lo {
            BOTTOM
        } else {
            a
        };
        let b = if !b.is_bottom() && self.max_start(b) < lo {
            BOTTOM
        } else {
            b
        };
        if a.is_bottom() {
            return b;
        }
        if b.is_bottom() {
            return a;
        }
        // Root = larger max-start (condition ‡).
        let (top, other) = if self.max_start(a) >= self.max_start(b) {
            (a, b)
        } else {
            (b, a)
        };
        let new_right = self.meld(self.nodes[top.index()].uright, other, lo);
        let old_left = self.nodes[top.index()].uleft;
        // Leftist property: rank(left) ≥ rank(right).
        let (uleft, uright) = if self.rank(old_left) >= self.rank(new_right) {
            (old_left, new_right)
        } else {
            (new_right, old_left)
        };
        // The copy shares its original's product list.
        self.push(Node {
            rank: self.rank(uright) + 1,
            uleft,
            uright,
            ..self.nodes[top.index()]
        })
    }

    /// Checkpoint encoding of the whole arena (see [`crate::checkpoint`]).
    /// Node links encode as raw indices with `⊥` as `u32::MAX`; the
    /// arena is append-only and children always precede parents, which
    /// is what [`decode`](Self::decode) validates.
    pub(crate) fn encode(
        &self,
        w: &mut cer_common::wire::WireWriter,
    ) -> Result<(), cer_common::wire::WireError> {
        use cer_common::wire::Wire;
        w.put_len(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            n.labels.encode(w)?;
            w.put_u64(n.pos);
            w.put_u64(n.max_start);
            w.put_u32(n.rank);
            let prod = self.prod(NodeId(i as u32));
            w.put_len(prod.len());
            for c in prod {
                w.put_u32(c.0);
            }
            w.put_u32(n.uleft.0);
            w.put_u32(n.uright.0);
        }
        Ok(())
    }

    /// Decode an arena encoded by [`encode`](Self::encode) for an
    /// automaton over `num_labels` labels whose evaluator reads position
    /// `next_pos` next. Restored bytes are not trusted: every link must
    /// point at an earlier node (or `⊥`), so a corrupt snapshot cannot
    /// build cycles or dangling references; every label set must stay
    /// inside the alphabet, which the enumerator indexes by; every node
    /// must mark a position already read, which `extend` requires of
    /// what it gathers; and every node must keep the rules
    /// [`check_invariants`](Self::check_invariants) states, which `union`
    /// builds on (a forged rank would overflow its `rank + 1`).
    pub(crate) fn decode(
        r: &mut cer_common::wire::WireReader<'_>,
        num_labels: usize,
        next_pos: u64,
    ) -> Result<Self, cer_common::wire::WireError> {
        use cer_automata::valuation::MAX_LABELS;
        use cer_common::wire::{Wire, WireError};
        let n = r.get_len()?;
        if n >= u32::MAX as usize {
            return Err(WireError::Corrupt("arena too large"));
        }
        let mut ds = EnumStructure {
            nodes: Vec::with_capacity(n.min(1 << 16)),
            ..EnumStructure::default()
        };
        for i in 0..n {
            let labels = LabelSet::decode(r)?;
            if num_labels < MAX_LABELS && labels.0 >> num_labels != 0 {
                return Err(WireError::Corrupt("node label outside the alphabet"));
            }
            let pos = r.get_u64()?;
            if pos >= next_pos {
                return Err(WireError::Corrupt("node at a position not yet read"));
            }
            let max_start = r.get_u64()?;
            let rank = r.get_u32()?;
            let link = |raw: u32| -> Result<NodeId, WireError> {
                if raw != u32::MAX && raw as usize >= i {
                    return Err(WireError::Corrupt("node link not strictly earlier"));
                }
                Ok(NodeId(raw))
            };
            let n_prod = r.get_len()?;
            if ds.pool.len().saturating_add(n_prod) >= u32::MAX as usize {
                return Err(WireError::Corrupt("arena too large"));
            }
            let prod_start = ds.pool.len() as u32;
            for _ in 0..n_prod {
                let c = link(r.get_u32()?)?;
                if c.is_bottom() {
                    return Err(WireError::Corrupt("bottom product child"));
                }
                ds.pool.push(c);
            }
            let uleft = link(r.get_u32()?)?;
            let uright = link(r.get_u32()?)?;
            let id = ds.push(Node {
                labels,
                pos,
                max_start,
                rank,
                prod_start,
                prod_len: n_prod as u32,
                uleft,
                uright,
            });
            ds.check_node(id).map_err(WireError::Corrupt)?;
        }
        Ok(ds)
    }

    /// Append every node of `other` to this arena, remapping its
    /// internal links; returns the id offset to add to any external
    /// reference into `other` (`⊥` stays `⊥`). Used when merging the
    /// per-shard replicas of a key-partitioned query at restore time.
    pub(crate) fn absorb(&mut self, other: EnumStructure) -> u32 {
        let (offset, pool_offset) = (index32(self.nodes.len()), index32(self.pool.len()));
        // Every shifted id and range start stays below these sums.
        index32(self.nodes.len() + other.nodes.len());
        index32(self.pool.len() + other.pool.len());
        let shift = |id: NodeId| {
            if id.is_bottom() {
                id
            } else {
                NodeId(id.0 + offset)
            }
        };
        self.pool.extend(other.pool.into_iter().map(shift));
        self.nodes.extend(other.nodes.into_iter().map(|n| Node {
            prod_start: n.prod_start + pool_offset,
            uleft: shift(n.uleft),
            uright: shift(n.uright),
            ..n
        }));
        offset
    }

    /// Check the structural invariants below `root`: heap condition (‡),
    /// leftist ranks, product children strictly earlier and live relative
    /// to their parent's `max-start`. Test support.
    pub fn check_invariants(&self, root: NodeId) -> Result<(), String> {
        if root.is_bottom() {
            return Ok(());
        }
        self.check_node(root)?;
        let n = self.node(root);
        for &c in [n.uleft, n.uright].iter().chain(self.prod(root)) {
            self.check_invariants(c)?;
        }
        Ok(())
    }

    /// The rules of [`check_invariants`](Self::check_invariants) for one
    /// node against its direct children — what every node `extend`,
    /// `union` and `compact` build satisfies.
    fn check_node(&self, id: NodeId) -> Result<(), &'static str> {
        let n = self.node(id);
        if self.max_start(n.uleft) > n.max_start || self.max_start(n.uright) > n.max_start {
            return Err("heap violation: union child max-start above its parent's");
        }
        if self.rank(n.uleft) < self.rank(n.uright) {
            return Err("leftist violation: rank(left) < rank(right)");
        }
        if self.rank(n.uright).checked_add(1) != Some(n.rank) {
            return Err("rank bookkeeping: rank != rank(right) + 1");
        }
        for &c in self.prod(id) {
            if self.node(c).pos >= n.pos {
                return Err("product child not strictly earlier");
            }
            if self.max_start(c) < n.max_start {
                return Err("product child max-start below parent's");
            }
        }
        Ok(())
    }

    /// Rebuild the arena keeping only nodes reachable from `roots` whose
    /// `max-start ≥ window_lo`, remapping ids in place in `roots`.
    ///
    /// Union links to expired subtrees become `⊥` (their bags are empty
    /// in every window at or after the current position); leftist ranks
    /// are recomputed. Product children of a live node are always live
    /// (`max-start(parent) ≤ max-start(child)`), so products never dangle.
    pub fn compact(&mut self, roots: &mut [&mut NodeId], window_lo: u64) {
        // Sized for what the arena held: on a steady stream that is the
        // live set plus one collection cadence of garbage, which is what
        // the fresh arena grows back to before the next collection.
        *self = self.copied(roots, window_lo, (self.nodes.len(), self.pool.len()));
    }

    /// What [`compact`](Self::compact) keeps, as a new arena with room
    /// for `capacity` nodes and pool words; this one is untouched.
    pub(crate) fn copied(
        &self,
        roots: &mut [&mut NodeId],
        window_lo: u64,
        capacity: (usize, usize),
    ) -> EnumStructure {
        let mut fresh = EnumStructure {
            nodes: Vec::with_capacity(capacity.0),
            pool: Vec::with_capacity(capacity.1),
            copies: self.copies,
        };
        // Old id → new id, `⊥` until copied.
        let mut forward = vec![BOTTOM; self.nodes.len()];
        let mut stack = Vec::with_capacity(WALK_STACK);
        for r in roots.iter_mut() {
            **r = self.copy_live(**r, window_lo, &mut fresh, &mut forward, &mut stack);
        }
        fresh
    }

    /// Add to `counts[v]` the nodes reachable from the roots whose mask
    /// has bit `v`, through union links and product lists: for each
    /// variant of a family, the nodes its private arena would hold after
    /// the same collection. Run on a freshly compacted arena, where
    /// every link reaches a live node. One traversal visits each node
    /// once per variant reaching it.
    pub(crate) fn count_reachable(
        &self,
        roots: impl Iterator<Item = (NodeId, u64)>,
        scratch: &mut Reach,
        counts: &mut [usize],
    ) {
        let Reach { reached, stack } = scratch;
        reached.clear();
        reached.resize(self.nodes.len(), 0);
        for root in roots {
            stack.push(root);
            while let Some((id, mask)) = stack.pop() {
                if id.is_bottom() {
                    continue;
                }
                let new = mask & !reached[id.index()];
                if new == 0 {
                    continue;
                }
                reached[id.index()] |= new;
                let n = &self.nodes[id.index()];
                stack.push((n.uleft, new));
                stack.push((n.uright, new));
                stack.extend(self.prod(id).iter().map(|&c| (c, new)));
            }
        }
        for &mask in reached.iter() {
            let mut mask = mask;
            while mask != 0 {
                counts[mask.trailing_zeros() as usize] += 1;
                mask &= mask - 1;
            }
        }
    }

    /// Copy `root`'s live nodes into `fresh` in the order a recursive
    /// post-order walk would — product children, the product list, the
    /// left then the right union subtree, then the node — with an
    /// explicit stack, because a leftist tree's left spine may be as
    /// long as the tree; returns the copy of `root`.
    fn copy_live(
        &self,
        root: NodeId,
        lo: u64,
        fresh: &mut EnumStructure,
        forward: &mut [NodeId],
        stack: &mut Vec<Copying>,
    ) -> NodeId {
        stack.push(Copying::Enter(root));
        while let Some(step) = stack.pop() {
            let id = match step {
                Copying::Enter(id) => {
                    if id.is_bottom() || self.max_start(id) < lo || !forward[id.index()].is_bottom()
                    {
                        continue;
                    }
                    let prod = self.prod(id);
                    if !prod.is_empty() {
                        // Children first (they precede their parent in
                        // the arena), then their new ids as one list.
                        stack.push(Copying::Listed(id));
                        stack.extend(prod.iter().rev().map(|&c| Copying::Enter(c)));
                        continue;
                    }
                    id
                }
                Copying::Listed(id) => id,
                Copying::Linked(id, prod) => {
                    self.copy_node(id, prod, fresh, forward);
                    continue;
                }
            };
            debug_assert!(
                self.prod(id)
                    .iter()
                    .all(|c| !forward[c.index()].is_bottom()),
                "live product child"
            );
            let prod = fresh.push_prod(self.prod(id).iter().map(|c| forward[c.index()]));
            let n = &self.nodes[id.index()];
            if n.uleft.is_bottom() && n.uright.is_bottom() {
                self.copy_node(id, prod, fresh, forward);
                continue;
            }
            stack.push(Copying::Linked(id, prod));
            stack.push(Copying::Enter(n.uright));
            stack.push(Copying::Enter(n.uleft));
        }
        if root.is_bottom() {
            BOTTOM
        } else {
            forward[root.index()]
        }
    }

    /// The last step of [`copy_live`](Self::copy_live) for node `id`,
    /// whose product list is `prod` in `fresh` and whose union subtrees
    /// are walked: copy it with its links forwarded — a node is copied
    /// iff it is live, so an unforwarded link was expired — and ranks
    /// recomputed.
    fn copy_node(
        &self,
        id: NodeId,
        (prod_start, prod_len): (u32, u32),
        fresh: &mut EnumStructure,
        forward: &mut [NodeId],
    ) {
        let n = self.nodes[id.index()];
        let copy_of = |link: NodeId| {
            if link.is_bottom() {
                BOTTOM
            } else {
                forward[link.index()]
            }
        };
        let (mut uleft, mut uright) = (copy_of(n.uleft), copy_of(n.uright));
        if fresh.rank(uleft) < fresh.rank(uright) {
            std::mem::swap(&mut uleft, &mut uright);
        }
        forward[id.index()] = fresh.push(Node {
            rank: fresh.rank(uright) + 1,
            prod_start,
            prod_len,
            uleft,
            uright,
            ..n
        });
    }
}

/// One step of [`EnumStructure::copy_live`]'s walk over a node.
enum Copying {
    /// Copy the node unless it has expired or is copied already.
    Enter(NodeId),
    /// Its product children are copied: list them, then copy its union
    /// subtrees.
    Listed(NodeId),
    /// Everything below it is copied: copy the node, its list at this
    /// pool range.
    Linked(NodeId, (u32, u32)),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::valuation::{Label, LabelSet};

    fn l(i: u32) -> LabelSet {
        LabelSet::singleton(Label(i))
    }

    #[test]
    fn extend_computes_max_start() {
        let mut ds = EnumStructure::new();
        let a = ds.extend(l(0), 3, &[]);
        assert_eq!(ds.max_start(a), 3);
        let b = ds.extend(l(1), 7, &[a]);
        // min(7, max_start(a)) = 3.
        assert_eq!(ds.max_start(b), 3);
        let c = ds.extend(l(1), 9, &[]);
        let d = ds.extend(l(2), 10, &[b, c]);
        assert_eq!(ds.max_start(d), 3);
        ds.check_invariants(d).unwrap();
    }

    #[test]
    fn union_keeps_heap_and_leftist_invariants() {
        let mut ds = EnumStructure::new();
        let mut root = BOTTOM;
        for i in 0..50u64 {
            let n = ds.extend(l(0), i, &[]);
            root = ds.union(root, n, 0);
            ds.check_invariants(root).unwrap();
        }
        // Root must carry the largest max-start.
        assert_eq!(ds.max_start(root), 49);
    }

    #[test]
    fn union_is_persistent() {
        let mut ds = EnumStructure::new();
        let a = ds.extend(l(0), 1, &[]);
        let b = ds.extend(l(0), 2, &[]);
        let u1 = ds.union(a, b, 0);
        let snapshot_a = *ds.node(a);
        let c = ds.extend(l(0), 3, &[]);
        let _u2 = ds.union(u1, c, 0);
        // The original node is untouched by later unions.
        let now_a = ds.node(a);
        assert_eq!(now_a.pos, snapshot_a.pos);
        assert_eq!(now_a.uleft, snapshot_a.uleft);
        assert_eq!(now_a.uright, snapshot_a.uright);
    }

    #[test]
    fn union_drops_expired_subtrees() {
        let mut ds = EnumStructure::new();
        let old = ds.extend(l(0), 1, &[]);
        let new = ds.extend(l(0), 100, &[]);
        // Window low bound 50: the old node's bag is empty forever.
        let u = ds.union(old, new, 50);
        assert_eq!(u, new, "expired side dropped without copying");
    }

    #[test]
    fn meld_of_two_heaps() {
        let mut ds = EnumStructure::new();
        let mut h1 = BOTTOM;
        let mut h2 = BOTTOM;
        for i in 0..10u64 {
            let n = ds.extend(l(0), 2 * i, &[]);
            h1 = ds.union(h1, n, 0);
            let m = ds.extend(l(0), 2 * i + 1, &[]);
            h2 = ds.union(h2, m, 0);
        }
        let h = ds.union(h1, h2, 0);
        ds.check_invariants(h).unwrap();
        assert_eq!(ds.max_start(h), 19);
    }

    #[test]
    fn compact_preserves_live_and_drops_dead() {
        let mut ds = EnumStructure::new();
        let mut root = BOTTOM;
        for i in 0..100u64 {
            let n = ds.extend(l(0), i, &[]);
            root = ds.union(root, n, 0);
        }
        let before = ds.len();
        let mut r = root;
        ds.compact(&mut [&mut r], 90);
        assert!(ds.len() < before / 2, "dead nodes reclaimed");
        ds.check_invariants(r).unwrap();
        assert_eq!(ds.max_start(r), 99);
    }

    #[test]
    fn compact_remaps_shared_subtrees_once() {
        let mut ds = EnumStructure::new();
        let shared = ds.extend(l(0), 5, &[]);
        let a = ds.extend(l(1), 6, &[shared]);
        let b = ds.extend(l(1), 7, &[shared]);
        let mut ra = a;
        let mut rb = b;
        ds.compact(&mut [&mut ra, &mut rb], 0);
        assert_eq!(ds.len(), 3, "shared child copied once");
        assert_eq!(ds.prod(ra)[0], ds.prod(rb)[0]);
    }

    #[test]
    fn arena_roundtrips_and_absorb_remaps() {
        let mut ds = EnumStructure::new();
        let mut root = BOTTOM;
        for i in 0..20u64 {
            let n = ds.extend(l((i % 3) as u32), i, &[]);
            root = ds.union(root, n, 0);
        }
        let mut w = cer_common::wire::WireWriter::new();
        ds.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = cer_common::wire::WireReader::new(&bytes);
        let decoded = EnumStructure::decode(&mut r, 3, 20).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded.len(), ds.len());
        decoded.check_invariants(root).unwrap();
        assert_eq!(decoded.max_start(root), ds.max_start(root));

        // Absorb a second arena: its root keeps its structure at the
        // offset id.
        let mut other = EnumStructure::new();
        let a = other.extend(l(0), 100, &[]);
        let b = other.extend(l(1), 101, &[a]);
        let offset = ds.absorb(other);
        let b2 = NodeId(b.0 + offset);
        ds.check_invariants(b2).unwrap();
        assert_eq!(ds.prod(b2), [NodeId(a.0 + offset)]);
        assert_eq!(ds.max_start(b2), 100);
        // The original root is untouched.
        ds.check_invariants(root).unwrap();
    }

    #[test]
    fn corrupt_arena_links_rejected() {
        // A forward link (node 0 pointing at node 1) must not decode.
        let mut ds = EnumStructure::new();
        let a = ds.extend(l(0), 1, &[]);
        let b = ds.extend(l(0), 2, &[]);
        let _ = ds.union(a, b, 0);
        let mut w = cer_common::wire::WireWriter::new();
        ds.encode(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        // Rewrite node 0's uleft (last 8 bytes of its record) to a
        // forward reference by brute force: flip every u32-aligned
        // window to 2 and require that at least one mutation is caught
        // as a corrupt link while none panics.
        let mut caught = false;
        for k in (0..bytes.len() - 3).step_by(4) {
            let orig = [bytes[k], bytes[k + 1], bytes[k + 2], bytes[k + 3]];
            bytes[k..k + 4].copy_from_slice(&2u32.to_le_bytes());
            let mut r = cer_common::wire::WireReader::new(&bytes);
            if let Err(cer_common::wire::WireError::Corrupt(_)) =
                EnumStructure::decode(&mut r, 1, 3)
            {
                caught = true;
            }
            bytes[k..k + 4].copy_from_slice(&orig);
        }
        assert!(caught, "some mutation must trip the link validator");
    }

    /// Hostile bytes (ROADMAP 1(e)): every mutation of an encoded arena
    /// decodes to an arena that re-encodes to itself, or fails — and the
    /// label and rank checks are both seen to fire.
    #[test]
    fn mutated_arena_bytes_are_rejected_or_reencode() {
        use cer_common::wire::{hostile_mutations, WireError, WireReader, WireWriter};
        let mut ds = EnumStructure::new();
        let leaf = ds.extend(l(0), 0, &[]);
        let mut root = BOTTOM;
        for i in 1..6u64 {
            let n = ds.extend(l((i % 2) as u32), i, &[leaf]);
            root = ds.union(root, n, 0);
        }
        ds.check_invariants(root).unwrap();
        let encode = |ds: &EnumStructure| {
            let mut w = WireWriter::new();
            ds.encode(&mut w).unwrap();
            w.into_bytes()
        };
        let mut seen = std::collections::BTreeSet::new();
        for mutated in hostile_mutations(&encode(&ds)) {
            match EnumStructure::decode(&mut WireReader::new(&mutated), 2, 6) {
                Ok(back) => {
                    let bytes = encode(&back);
                    let again = EnumStructure::decode(&mut WireReader::new(&bytes), 2, 6);
                    assert_eq!(again.map(|a| encode(&a)), Ok(bytes));
                }
                Err(WireError::Corrupt(why)) => {
                    seen.insert(why);
                }
                Err(_) => {}
            }
        }
        for why in [
            "node label outside the alphabet",
            "rank bookkeeping: rank != rank(right) + 1",
        ] {
            assert!(seen.contains(why), "no mutation tripped {why:?}: {seen:?}");
        }
    }

    #[test]
    fn union_copies_nodes_but_no_product_list() {
        let mut ds = EnumStructure::new();
        let leaf = ds.extend(l(0), 0, &[]);
        let mut root = BOTTOM;
        let mut listed = 0;
        for i in 1..40u64 {
            let n = ds.extend(l(1), i, &[leaf, leaf]);
            listed += 2;
            let before = ds.len();
            root = ds.union(root, n, 0);
            assert_eq!(ds.pool.len(), listed, "a union appended to the pool");
            // Every path copy reads its original's list.
            for copy in (before..ds.len()).map(|k| NodeId(k as u32)) {
                assert_eq!(ds.prod(copy), [leaf, leaf]);
            }
        }
        assert!(ds.len() > 2 * 40, "unions did copy nodes");
        ds.check_invariants(root).unwrap();
        // The collector gives every survivor its own list again.
        let mut r = root;
        ds.compact(&mut [&mut r], 0);
        assert_eq!(ds.pool.len(), 2 * (ds.len() - 1));
        ds.check_invariants(r).unwrap();
    }

    #[test]
    #[should_panic(expected = "arena full")]
    fn ids_and_offsets_are_bounded_not_wrapped() {
        // What `push`, `push_prod` and `absorb` (on the summed lengths)
        // ask before handing out a node id or a pool offset, and what
        // the `H` table asks for entry numbers and key-store offsets:
        // the last value below `⊥` is handed out, the next one is not.
        assert_eq!(index32(u32::MAX as usize - 1), u32::MAX - 1);
        index32(u32::MAX as usize);
    }

    #[test]
    fn bottom_handling() {
        let mut ds = EnumStructure::new();
        assert_eq!(ds.union(BOTTOM, BOTTOM, 0), BOTTOM);
        let a = ds.extend(l(0), 1, &[]);
        assert_eq!(ds.union(BOTTOM, a, 0), a);
        assert_eq!(ds.union(a, BOTTOM, 0), a);
        assert_eq!(ds.max_start(BOTTOM), 0);
        ds.check_invariants(BOTTOM).unwrap();
    }
}
