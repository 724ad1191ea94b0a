//! Model-based property tests for the enumeration structure `DS_w`.
//!
//! A shadow model tracks, for every node built by a random program of
//! `extend`/`union` operations, the exact bag of valuations it
//! represents. The real structure must then agree with the model under
//! every window, keep its heap/leftist invariants, stay persistent
//! (old roots never change meaning), and survive compaction.

use pcea::engine::ds::{EnumStructure, NodeId, BOTTOM};
use pcea::engine::enumerate::collect_valuations;
use pcea::prelude::*;
use proptest::prelude::*;

/// One step of the random construction program.
#[derive(Clone, Debug)]
enum Op {
    /// Extend with labels ⊆ {0,1}, gathering up to 2 previous roots.
    Extend { labels: u8, picks: Vec<usize> },
    /// Union two previous roots (re-rooted at the melded node).
    Union { a: usize, b: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..4, proptest::collection::vec(any::<usize>(), 0..3))
            .prop_map(|(labels, picks)| Op::Extend { labels, picks }),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Union { a, b }),
    ]
}

/// The shadow model: every root's bag of valuations, window-unfiltered.
struct Model {
    bags: Vec<Vec<Valuation>>,
    /// Position each root was created at (roots are immutable).
    created: Vec<u64>,
}

/// Run a construction program under the structure's contract (the same
/// one unambiguous PCEA guarantee): union operands are consumed linearly
/// (each root melds at most once, as in Algorithm 1), and products only
/// gather roots with pairwise-disjoint position supports — Theorem 5.2's
/// *simplicity* requirement, without which enumeration of overlapping
/// products is undefined.
fn run_program(ops: &[Op]) -> (EnumStructure, Vec<NodeId>, Model) {
    let num_labels = 2usize;
    let mut ds = EnumStructure::new();
    let mut roots: Vec<NodeId> = Vec::new();
    let mut consumed: Vec<bool> = Vec::new();
    // Position support of each root's bag (for the simplicity rule).
    let mut supports: Vec<std::collections::BTreeSet<u64>> = Vec::new();
    let mut model = Model {
        bags: Vec::new(),
        created: Vec::new(),
    };
    let mut pos = 0u64;
    for op in ops {
        match op {
            Op::Extend { labels, picks } => {
                pos += 1;
                let ls = LabelSet(u64::from(*labels) & 0b11);
                let ls = if ls.is_empty() {
                    LabelSet::singleton(Label(0))
                } else {
                    ls
                };
                // Gather existing roots with pairwise-disjoint supports
                // (strictly earlier by construction since positions
                // increase).
                let mut chosen: Vec<usize> = Vec::new();
                let mut support: std::collections::BTreeSet<u64> = std::iter::once(pos).collect();
                for &p in picks {
                    if roots.is_empty() {
                        break;
                    }
                    let k = p % roots.len();
                    if !chosen.contains(&k) && supports[k].is_disjoint(&support) {
                        support.extend(supports[k].iter().copied());
                        chosen.push(k);
                    }
                }
                chosen.sort_unstable();
                let prod: Vec<NodeId> = chosen.iter().map(|&k| roots[k]).collect();
                let node = ds.extend(ls, pos, &prod);
                roots.push(node);
                consumed.push(false);
                supports.push(support);
                // Model: cross product of chosen bags ⊕ ν_{L,pos}.
                let mut bag = vec![Valuation::singleton(num_labels, ls, pos)];
                for &k in &chosen {
                    let mut next = Vec::new();
                    for base in &bag {
                        for v in &model.bags[k] {
                            next.push(base.product(v));
                        }
                    }
                    bag = next;
                }
                model.bags.push(bag);
                model.created.push(pos);
            }
            Op::Union { a, b } => {
                let free: Vec<usize> = (0..roots.len()).filter(|&k| !consumed[k]).collect();
                if free.len() < 2 {
                    continue;
                }
                let ka = free[a % free.len()];
                let kb = free[b % free.len()];
                if ka == kb {
                    continue;
                }
                let node = ds.union(roots[ka], roots[kb], 0);
                consumed[ka] = true;
                consumed[kb] = true;
                roots.push(node);
                consumed.push(false);
                let merged: std::collections::BTreeSet<u64> =
                    supports[ka].union(&supports[kb]).copied().collect();
                supports.push(merged);
                let mut bag = model.bags[ka].clone();
                bag.extend(model.bags[kb].iter().cloned());
                model.bags.push(bag);
                model.created.push(pos);
            }
        }
    }
    (ds, roots, model)
}

fn windowed(bag: &[Valuation], i: u64, w: u64) -> Vec<Valuation> {
    let mut out: Vec<Valuation> = bag
        .iter()
        .filter(|v| v.min_pos().is_none_or(|m| i.saturating_sub(w) <= m))
        .cloned()
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ds_agrees_with_model_under_all_windows(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let (ds, roots, model) = run_program(&ops);
        let horizon = ops.len() as u64 + 1;
        for (k, &root) in roots.iter().enumerate() {
            ds.check_invariants(root).unwrap();
            for w in [0u64, 1, 2, 5, horizon] {
                let mut got = collect_valuations(&ds, root, horizon, w, 2);
                got.sort();
                let want = windowed(&model.bags[k], horizon, w);
                prop_assert_eq!(&got, &want, "root {} window {}", k, w);
            }
        }
    }

    #[test]
    fn persistence_old_roots_unchanged(
        ops in proptest::collection::vec(op_strategy(), 2..20),
        extra in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let (mut ds, mut roots, model) = run_program(&ops);
        let horizon = (ops.len() + extra.len()) as u64 + 2;
        // Snapshot the meaning of every existing root.
        let before: Vec<Vec<Valuation>> = roots
            .iter()
            .map(|&r| {
                let mut v = collect_valuations(&ds, r, horizon, horizon, 2);
                v.sort();
                v
            })
            .collect();
        // Apply more operations on top. Fresh extends may reference any
        // old root as a product child; melds take one old root and one
        // fresh singleton (the Algorithm 1 pattern), so no heap cells
        // alias.
        let mut pos = ops.len() as u64 + 1;
        for op in &extra {
            if roots.is_empty() {
                break;
            }
            match op {
                Op::Extend { labels, picks } => {
                    pos += 1;
                    let ls = LabelSet((u64::from(*labels) & 0b11).max(1));
                    let mut prod: Vec<NodeId> = Vec::new();
                    for &p in picks {
                        let n = roots[p % roots.len()];
                        if !n.is_bottom() && !prod.contains(&n) {
                            prod.push(n);
                        }
                    }
                    let n = ds.extend(ls, pos, &prod);
                    roots.push(n);
                }
                Op::Union { a, b } => {
                    pos += 1;
                    let ka = a % roots.len();
                    let fresh = ds.extend(
                        LabelSet::singleton(Label((b % 2) as u32)),
                        pos,
                        &[],
                    );
                    let n = ds.union(roots[ka], fresh, 0);
                    roots.push(n);
                }
            }
        }
        // Old roots still mean exactly what they meant.
        for (k, want) in before.iter().enumerate() {
            let mut got = collect_valuations(&ds, roots[k], horizon, horizon, 2);
            got.sort();
            prop_assert_eq!(&got, want, "root {} changed meaning", k);
        }
        let _ = model;
    }

    #[test]
    fn compaction_is_transparent(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        w in 0u64..8,
    ) {
        let (mut ds, mut roots, _model) = run_program(&ops);
        let horizon = ops.len() as u64 + 1;
        let lo = horizon.saturating_sub(w);
        let before: Vec<Vec<Valuation>> = roots
            .iter()
            .map(|&r| {
                let mut v = collect_valuations(&ds, r, horizon, w, 2);
                v.sort();
                v
            })
            .collect();
        {
            let mut refs: Vec<&mut NodeId> = roots.iter_mut().collect();
            ds.compact(&mut refs, lo);
        }
        for (k, want) in before.iter().enumerate() {
            ds.check_invariants(roots[k]).unwrap();
            let mut got = collect_valuations(&ds, roots[k], horizon, w, 2);
            got.sort();
            prop_assert_eq!(&got, want, "root {} after compaction", k);
        }
        prop_assert!(ds.union(BOTTOM, BOTTOM, lo).is_bottom());
    }
}

// ---------------------------------------------------------------------
// The leftist bound on `union`
// ---------------------------------------------------------------------

/// A persistent meldable heap of `DS_w`-shaped nodes, as the union-bound
/// checker drives it: the engine's arena, or [`NeverSwaps`].
trait Meld {
    type Id: Copy + Eq + std::hash::Hash;
    const BOTTOM: Self::Id;
    fn extend(&mut self, labels: LabelSet, pos: u64, prod: &[Self::Id]) -> Self::Id;
    fn union(&mut self, a: Self::Id, b: Self::Id, lo: u64) -> Self::Id;
    fn max_start(&self, n: Self::Id) -> u64;
    /// `(uleft, uright)`.
    fn union_links(&self, n: Self::Id) -> (Self::Id, Self::Id);
    /// Nodes `union` has copied so far.
    fn copies(&self) -> u64;
    /// Run the copying collector around `roots`.
    fn collect(&mut self, roots: &mut [&mut Self::Id], lo: u64);
}

impl Meld for EnumStructure {
    type Id = NodeId;
    const BOTTOM: NodeId = BOTTOM;
    fn extend(&mut self, labels: LabelSet, pos: u64, prod: &[NodeId]) -> NodeId {
        EnumStructure::extend(self, labels, pos, prod)
    }
    fn union(&mut self, a: NodeId, b: NodeId, lo: u64) -> NodeId {
        EnumStructure::union(self, a, b, lo)
    }
    fn max_start(&self, n: NodeId) -> u64 {
        EnumStructure::max_start(self, n)
    }
    fn union_links(&self, n: NodeId) -> (NodeId, NodeId) {
        let node = self.node(n);
        (node.uleft, node.uright)
    }
    fn copies(&self) -> u64 {
        EnumStructure::copies(self)
    }
    fn collect(&mut self, roots: &mut [&mut NodeId], lo: u64) {
        self.compact(roots, lo);
    }
}

/// The flipped expectation: the engine's meld with the leftist swap
/// taken out, so the merged path always stays on the right. Its right
/// spines grow with the tree, and the checker must catch it.
#[derive(Default)]
struct NeverSwaps {
    /// `(max_start, uleft, uright)` per node.
    nodes: Vec<(u64, u32, u32)>,
    copies: u64,
}

impl Meld for NeverSwaps {
    type Id = u32;
    const BOTTOM: u32 = u32::MAX;
    fn extend(&mut self, _: LabelSet, pos: u64, prod: &[u32]) -> u32 {
        let start = prod.iter().map(|&n| self.max_start(n)).fold(pos, u64::min);
        self.nodes.push((start, u32::MAX, u32::MAX));
        self.nodes.len() as u32 - 1
    }
    fn union(&mut self, a: u32, b: u32, lo: u64) -> u32 {
        let live = |n: u32| n != u32::MAX && self.max_start(n) >= lo;
        let (a, b) = (
            if live(a) { a } else { u32::MAX },
            if live(b) { b } else { u32::MAX },
        );
        if a == u32::MAX || b == u32::MAX {
            return a.min(b);
        }
        let (top, other) = if self.max_start(a) >= self.max_start(b) {
            (a, b)
        } else {
            (b, a)
        };
        let (start, left, right) = self.nodes[top as usize];
        let right = self.union(right, other, lo);
        self.copies += 1;
        self.nodes.push((start, left, right));
        self.nodes.len() as u32 - 1
    }
    fn max_start(&self, n: u32) -> u64 {
        if n == u32::MAX {
            0
        } else {
            self.nodes[n as usize].0
        }
    }
    fn union_links(&self, n: u32) -> (u32, u32) {
        let (_, left, right) = self.nodes[n as usize];
        (left, right)
    }
    fn copies(&self) -> u64 {
        self.copies
    }
    fn collect(&mut self, _: &mut [&mut u32], _: u64) {}
}

/// Every `union` through this checker must copy at most
/// `⌊log₂(|a|+1)⌋ + ⌊log₂(|b|+1)⌋` nodes, `|·|` the size of an
/// operand's union tree (its nodes through union links, counted with
/// multiplicity — an upper bound on distinct nodes, and still at least
/// `2^rank − 1` in a leftist tree). Sizes are memoized per node: nodes
/// are immutable until a collection renames them.
struct Checker<H: Meld> {
    heap: H,
    sizes: std::collections::HashMap<H::Id, u64>,
    unions: u64,
}

fn floor_log2_succ(n: u64) -> u64 {
    u64::from(63 - (n + 1).leading_zeros())
}

impl<H: Meld> Checker<H> {
    fn new(heap: H) -> Self {
        Checker {
            heap,
            sizes: std::collections::HashMap::new(),
            unions: 0,
        }
    }

    fn size(&mut self, root: H::Id) -> u64 {
        let mut stack = vec![root];
        while let Some(&n) = stack.last() {
            if n == H::BOTTOM || self.sizes.contains_key(&n) {
                stack.pop();
                continue;
            }
            let (l, r) = self.heap.union_links(n);
            let pending: Vec<H::Id> = [l, r]
                .into_iter()
                .filter(|&c| c != H::BOTTOM && !self.sizes.contains_key(&c))
                .collect();
            if pending.is_empty() {
                let size = |c: H::Id| if c == H::BOTTOM { 0 } else { self.sizes[&c] };
                let total = 1 + size(l) + size(r);
                self.sizes.insert(n, total);
                stack.pop();
            } else {
                stack.extend(pending);
            }
        }
        if root == H::BOTTOM {
            0
        } else {
            self.sizes[&root]
        }
    }

    fn union(&mut self, a: H::Id, b: H::Id, lo: u64) -> Result<H::Id, String> {
        let (size_a, size_b) = (self.size(a), self.size(b));
        let before = self.heap.copies();
        let melded = self.heap.union(a, b, lo);
        let copies = self.heap.copies() - before;
        let bound = floor_log2_succ(size_a) + floor_log2_succ(size_b);
        self.unions += 1;
        if copies > bound {
            return Err(format!(
                "union {} copied {copies} nodes of trees of {size_a} and {size_b}, bound {bound}",
                self.unions
            ));
        }
        Ok(melded)
    }

    fn collect(&mut self, roots: &mut [&mut H::Id], lo: u64) {
        self.heap.collect(roots, lo);
        self.sizes.clear();
    }
}

/// Run a random union program through the checker: each op makes a
/// fresh leaf or melds two unconsumed roots (operands are consumed
/// linearly, as in Algorithm 1); leaves gather an earlier root now and
/// then, so max-starts arrive out of order.
fn checked_program<H: Meld>(heap: H, ops: &[Op]) -> Result<u64, String> {
    let mut checker = Checker::new(heap);
    let mut roots: Vec<(H::Id, bool)> = Vec::new();
    for (pos, op) in ops.iter().enumerate() {
        let pos = pos as u64 + 1;
        match op {
            Op::Extend { labels, picks } => {
                let prod: Vec<H::Id> = picks
                    .first()
                    .filter(|_| !roots.is_empty())
                    .map(|&p| roots[p % roots.len()].0)
                    .into_iter()
                    .collect();
                let ls = LabelSet::singleton(Label(u32::from(*labels) % 2));
                roots.push((checker.heap.extend(ls, pos, &prod), false));
            }
            Op::Union { a, b } => {
                let free: Vec<usize> = (0..roots.len()).filter(|&k| !roots[k].1).collect();
                if free.len() < 2 {
                    continue;
                }
                let (ka, kb) = (free[a % free.len()], free[b % free.len()]);
                if ka == kb {
                    continue;
                }
                let melded = checker.union(roots[ka].0, roots[kb].0, 0)?;
                roots[ka].1 = true;
                roots[kb].1 = true;
                roots.push((melded, false));
            }
        }
    }
    Ok(checker.unions)
}

/// Algorithm 1's update step over `stream` under a count window `w`,
/// with every `union` through the checker: fire each transition whose
/// unary predicate accepts and whose every source slot holds a live run
/// under the tuple's join key, then meld this position's runs into `H`.
/// The copying collector runs every `w` positions. Returns the unions
/// checked.
fn checked_stream<H: Meld>(
    heap: H,
    pcea: &Pcea,
    stream: impl Iterator<Item = Tuple>,
    w: u64,
) -> Result<u64, String> {
    use pcea::automata::predicate::Key;
    let mut checker = Checker::new(heap);
    let mut h: std::collections::HashMap<(usize, usize, Key), H::Id> = Default::default();
    let mut n_state: Vec<Vec<H::Id>> = vec![Vec::new(); pcea.num_states()];
    for (i, t) in stream.enumerate() {
        let (i, lo) = (i as u64, (i as u64).saturating_sub(w));
        n_state.iter_mut().for_each(Vec::clear);
        for (e, tr) in pcea.transitions().iter().enumerate() {
            if !tr.unary.matches(&t) {
                continue;
            }
            let gathered: Option<Vec<H::Id>> = (tr.binary.iter().enumerate())
                .map(|(slot, b)| {
                    let root = *h.get(&(e, slot, b.right.extract(&t)?))?;
                    (checker.heap.max_start(root) >= lo).then_some(root)
                })
                .collect();
            if let Some(gathered) = gathered {
                let node = checker.heap.extend(tr.labels, i, &gathered);
                n_state[tr.target.index()].push(node);
            }
        }
        for (e, tr) in pcea.transitions().iter().enumerate() {
            for (slot, (p, b)) in tr.sources.iter().zip(tr.binary.iter()).enumerate() {
                let created = &n_state[p.index()];
                let Some(key) = b.left.extract(&t).filter(|_| !created.is_empty()) else {
                    continue;
                };
                let root = h.entry((e, slot, key)).or_insert(H::BOTTOM);
                for &node in created {
                    *root = checker.union(*root, node, lo)?;
                }
            }
        }
        if i > 0 && i % w.max(1024) == 0 {
            h.retain(|_, root| checker.heap.max_start(*root) >= lo);
            let mut roots: Vec<&mut H::Id> = h.values_mut().collect();
            checker.collect(&mut roots, lo);
        }
    }
    Ok(checker.unions)
}

/// The σ0 query P0 and the 3-satellite star HCQ, each with its stream
/// of `len` tuples. Small join-key domains make union trees deep.
fn sigma0_and_star(len: usize) -> Vec<(&'static str, Pcea, Vec<Tuple>)> {
    let (_, r, s, t) = Schema::sigma0();
    let mut sigma0 = Sigma0Gen::new(r, s, t, 5).with_domains(8, 4);
    let sigma0_stream = (0..len).map(|_| sigma0.next_tuple().unwrap()).collect();
    let mut schema = Schema::new();
    let mut star = StarGen::build(&mut schema, 3, 7)
        .unwrap()
        .with_domains(8, 4);
    let text = "Q(x, y1, y2, y3) <- A0(x), A1(x, y1), A2(x, y2), A3(x, y3)";
    let query = parse_query(&mut schema, text).unwrap();
    let star_pcea = compile_hcq(&schema, &query).unwrap().pcea;
    let star_stream = (0..len).map(|_| star.next_tuple().unwrap()).collect();
    vec![
        (
            "sigma0",
            pcea::automata::pcea::paper_p0(r, s, t),
            sigma0_stream,
        ),
        ("star", star_pcea, star_stream),
    ]
}

/// The bound on σ0 and star streams under `Count(w)`, each a window and
/// a quarter long, so that the window slides.
fn leftist_bound_holds_on_streams(w: u64) {
    let len = (w + w / 4) as usize;
    for (name, pcea, stream) in sigma0_and_star(len) {
        let unions = checked_stream(EnumStructure::new(), &pcea, stream.into_iter(), w)
            .unwrap_or_else(|e| panic!("{name} at Count({w}): {e}"));
        assert!(
            unions as usize > len / 8,
            "{name} at Count({w}): {unions} unions"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn union_copies_stay_within_the_leftist_bound(
        ops in proptest::collection::vec(op_strategy(), 1..96),
    ) {
        let checked = checked_program(EnumStructure::new(), &ops);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

#[test]
fn union_copies_stay_within_the_leftist_bound_on_streams() {
    for w in [1 << 8, 1 << 12, 1 << 16] {
        leftist_bound_holds_on_streams(w);
    }
}

/// The `2^20` rung: release only (`--include-ignored`).
#[test]
#[ignore = "the 2^20 rung takes minutes in debug; run it with --release -- --include-ignored"]
fn union_copies_stay_within_the_leftist_bound_at_a_million() {
    leftist_bound_holds_on_streams(1 << 20);
}

/// The checker is not vacuous: a union program through a meld that
/// never swaps children breaks the bound the engine's meld keeps.
#[test]
fn a_meld_that_never_swaps_fails_the_leftist_bound() {
    // Leaves in ascending max-start build a right spine as long as the
    // tree; a run gathering the first leaf starts below all of them and
    // walks the whole spine.
    let mut ops: Vec<Op> = (0..32)
        .map(|_| Op::Extend {
            labels: 1,
            picks: Vec::new(),
        })
        .collect();
    ops.extend((1..32).map(|k| Op::Union { a: 0, b: k }));
    ops.push(Op::Extend {
        labels: 1,
        picks: vec![0],
    });
    ops.push(Op::Union { a: 0, b: 1 });
    assert!(checked_program(EnumStructure::new(), &ops).is_ok());
    let flipped = checked_program(NeverSwaps::default(), &ops);
    assert!(flipped.is_err(), "{flipped:?}");
}
