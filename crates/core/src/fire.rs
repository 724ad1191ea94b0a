//! Transition-firing and index-maintenance stages of Algorithm 1.
//!
//! [`FireStage`] owns the per-evaluator mutable state the two update
//! phases share — the look-up table `H`, the per-state node lists `N_p`
//! rebuilt each position, the unary mask and the gather scratch — and
//! exposes them as
//! explicit steps:
//!
//! * [`FireStage::prefilter_slice`] / [`FireStage::prefilter_shared`]
//!   — the unary front half of FireTransitions for a whole slice of
//!   tuples at once: every transition's unary predicate `U` evaluated
//!   (privately, transition-major) or gathered (from the shard's shared
//!   [`PredicateCache`]) into a compact bitmask, one bit per
//!   `(tuple, transition)` pair;
//! * [`FireStage::fire_transitions`] — the one firing loop: for tuple
//!   `j` of the slice, every transition `(P, U, B, L, q)` whose mask bit
//!   is set and whose every source slot has a stored run matching the
//!   tuple's join key `extend`s the gathered runs into a fresh `DS_w`
//!   node at `q`;
//! * [`FireStage::update_indices`] — index every node created this
//!   position in `H` under `(transition, slot, ⃗B_p(t))`, melding with
//!   previous entries via the persistent `union`;
//! * [`FireStage::collect_garbage`] — drop dead `H` entries and compact
//!   the arena around the live roots.
//!
//! Every push into a
//! [`StreamingEvaluator`](crate::evaluator::StreamingEvaluator) — a
//! slice, a shard's selection, or one tuple as a slice of one — fills
//! the mask once and then runs the firing loop per position. The mask is
//! a pure reordering of the predicate evaluations Algorithm 1 performs
//! tuple by tuple (unary predicates are pure), so firing decisions are
//! those of the paper's loop, and the transition-major sweep has much
//! better predicate/branch locality than re-dispatching every predicate
//! at every position.
//!
//! `N_p` bookkeeping is also batch-friendly: instead of clearing every
//! state's node list at every position, the stage records which states
//! were touched and clears only those ([`FireStage::begin_position`] is
//! `O(|touched|)`, not `O(|Q|)`).
//!
//! # Who owns what, and what an update costs
//!
//! The stage owns `H` (`crate::htable`: fixed-size entries, one key
//! store, an open-addressing index — no heap block per key); the
//! evaluator owns the `DS_w` arena beside it ([`crate::ds`]: fixed-size
//! nodes and one pool of product lists). Per transition whose unary
//! predicate accepted, FireTransitions probes `H` once per source slot —
//! hashing and comparing the `O(|key|)` projected values where they lie
//! in the tuple ([`KeyExtractor::project`]) — and `extend` appends one
//! node and `|N|` pool words; UpdateIndices probes once per
//! `(transition, slot)` whose source state received nodes and writes the
//! melded root back into the entry it found, each `union` copying
//! `O(log(k·w))` fixed-size nodes and no product list. Nothing on that
//! path allocates except amortised growth of those vectors and the one
//! copy of a key `H` has not seen. [`FireStage::collect_garbage`]
//! rebuilds all of it together: dead entries leave the table (entries
//! and key store compacted in place, index re-seated), then the arena is
//! copied around the surviving roots.
//!
//! # Families
//!
//! One stage serves every variant of a family (`runtime::worker`'s
//! module docs) — a private evaluator is a family of one. `H` keeps one
//! root per variant in each entry, every `N_p` node carries the mask of
//! variants it was built for, and the prefilter yields per tuple and
//! transition the variants whose predicate accepted. The probes above
//! then happen once per family, an `extend` once per distinct tuple of
//! gathered roots, and a `union` once per distinct `(root, node)` pair
//! at an entry; [`VariantCounts`] keeps what each variant's private
//! evaluator would count. A family of one takes the same loops: one
//! group, one `extend`, one `union` per entry.
//!
//! [`KeyExtractor::project`]: cer_automata::predicate::KeyExtractor::project
//!
//! The [`StreamingEvaluator`](crate::evaluator::StreamingEvaluator)
//! composes these with the ingest/window stage
//! ([`WindowClock`](crate::window::WindowClock)) and the enumeration
//! stage ([`crate::enumerate`]).

use crate::ds::{EnumStructure, NodeId, Reach, BOTTOM};
use crate::htable::HTable;
use crate::shared::PredicateCache;
use cer_automata::pcea::Pcea;
use cer_automata::predicate::{EqPredicate, Key, UnaryPredicate};
use cer_common::Tuple;

/// The most variants one family holds: a variant mask is one `u64`.
pub(crate) const MAX_VARIANTS: usize = 64;

/// `split` marker of a transition every variant prefilters alike.
const SHARED: u32 = u32::MAX;

/// The mask of a family's first `width` variants.
#[inline]
fn all_variants(width: usize) -> u64 {
    u64::MAX >> (MAX_VARIANTS - width)
}

/// The variants in `mask`, lowest first.
#[inline]
fn variants(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            v
        })
    })
}

/// Meld `node` into `root` as a private evaluator's UpdateIndices does,
/// counting into `c`: a `⊥` root becomes the node, any other is
/// `union`ed with it. Returns `(root, melded, copies)` of a `union`.
fn meld(
    root: &mut NodeId,
    node: NodeId,
    ds: &mut EnumStructure,
    lo: u64,
    c: &mut VariantCounts,
) -> Option<(NodeId, NodeId, u64)> {
    if root.is_bottom() {
        *root = node;
        return None;
    }
    let before = ds.copies();
    let melded = ds.union(*root, node, lo);
    let copies = ds.copies() - before;
    let done = (*root, melded, copies);
    *root = melded;
    c.unions += 1;
    c.copies += copies;
    Some(done)
}

/// One variant's counters, as its private evaluator would keep them:
/// every `extend` and `union` the variant's runs went through (shared
/// calls counted once per variant) and the nodes those unions copied.
/// Its arena is the nodes its roots reached at the last collection plus
/// every node its extends and copies added since ([`arena`](Self::arena));
/// its `H` entries are its non-`⊥` roots ([`FireStage::index_entries`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VariantCounts {
    pub extends: u64,
    pub unions: u64,
    pub copies: u64,
    /// The live nodes at the last collection, and `extends` and
    /// `copies` then.
    collected: (usize, u64, u64),
}

impl VariantCounts {
    /// The nodes the variant's private arena holds.
    pub(crate) fn arena(&self) -> usize {
        let (live, extends, copies) = self.collected;
        live + (self.extends - extends + self.copies - copies) as usize
    }

    /// Restart the arena count from `live` nodes.
    pub(crate) fn collected(&mut self, live: usize) {
        self.collected = (live, self.extends, self.copies);
    }
}

/// The mutable state of the firing and indexing stages.
#[derive(Clone, Debug)]
pub(crate) struct FireStage {
    /// The look-up table `H`, one root column per variant.
    h: HTable,
    /// `N_p` per state, rebuilt each position: each node with the
    /// variants it was built for.
    n_state: Vec<Vec<(NodeId, u64)>>,
    /// States whose `N_p` list is currently non-empty; lets
    /// [`begin_position`](Self::begin_position) clear only those.
    touched: Vec<u32>,
    /// Scratch for gathered source nodes.
    gather: Vec<NodeId>,
    /// Scratch: the `H` entry each source slot of a firing transition
    /// probed.
    probed: Vec<usize>,
    /// Scratch: `(root, melded, copies)` of the unions one created node
    /// went through at one entry, reused by variants holding the same
    /// root.
    melds: Vec<(NodeId, NodeId, u64)>,
    /// Per-batch unary pre-filter: bit `e % 64` of word
    /// `j * stride + e / 64` is set iff transition `e`'s unary predicate
    /// accepts tuple `j` of the current slice in some variant. Reused
    /// across batches.
    unary_mask: Vec<u64>,
    /// Per transition of the current batch: [`SHARED`] when every
    /// variant reads the same predicate slot, else its row in
    /// `variant_mask`. Empty after a private prefilter.
    split: Vec<u32>,
    /// The variants whose predicate accepts, per tuple and split
    /// transition: word `j * split_rows + split[e]`.
    variant_mask: Vec<u64>,
    split_rows: usize,
    /// Collection scratch for the per-variant live counts.
    reach: Reach,
}

impl FireStage {
    pub(crate) fn new(num_states: usize) -> Self {
        FireStage {
            h: HTable::default(),
            n_state: vec![Vec::new(); num_states],
            touched: Vec::new(),
            gather: Vec::new(),
            probed: Vec::new(),
            melds: Vec::new(),
            unary_mask: Vec::new(),
            split: Vec::new(),
            variant_mask: Vec::new(),
            split_rows: 0,
            reach: Reach::default(),
        }
    }

    /// Variant `v`'s entries in `H`: its non-`⊥` roots (every entry, in
    /// a family of one).
    pub(crate) fn index_entries(&self, v: usize) -> usize {
        if self.h.width() == 1 {
            return self.h.len();
        }
        let h = &self.h;
        h.iter()
            .filter(|&(.., at)| !h.root(at, v).is_bottom())
            .count()
    }

    /// The keys of `H` as `(transition, slot, join key)` (tests check
    /// that placed replicas partition them).
    #[cfg(test)]
    pub(crate) fn index_keys(&self) -> Vec<(u32, u32, Key)> {
        self.h.iter().map(|(e, s, k, _)| (e, s, k.into())).collect()
    }

    /// Nodes created at the current position targeting state `q`, each
    /// with its variant mask.
    pub(crate) fn nodes_at(&self, q: usize) -> &[(NodeId, u64)] {
        &self.n_state[q]
    }

    /// Forget the previous position's `N_p` lists. Only states actually
    /// touched since the last call are cleared, so a position that fired
    /// nothing costs nothing here.
    pub(crate) fn begin_position(&mut self) {
        for q in self.touched.drain(..) {
            self.n_state[q as usize].clear();
        }
    }

    /// Make room for one more variant: only a stage that has indexed
    /// nothing yet is widened.
    pub(crate) fn add_variant(&mut self) {
        let width = self.h.width() + 1;
        self.h.set_width(width);
    }

    /// Drop variant `v`: its root column leaves `H` and the variants
    /// above it move down one bit.
    pub(crate) fn remove_variant(&mut self, v: usize) {
        self.h.remove_column(v);
        let below = (1u64 << v) - 1;
        for (_, mask) in self.n_state.iter_mut().flatten() {
            *mask = *mask & below | (*mask >> 1) & !below;
        }
    }

    /// Variant `v` alone, as a private stage: its roots and `N_p` nodes,
    /// still ids into the family's arena.
    pub(crate) fn variant(&self, v: usize) -> FireStage {
        let mut stage = FireStage::new(self.n_state.len());
        for (e_idx, slot, key, at) in self.h.iter() {
            let root = self.h.root(at, v);
            if !root.is_bottom() {
                let mine = stage.h.entry(e_idx, slot, key.iter());
                *stage.h.root_mut(mine, 0) = root;
            }
        }
        for (q, nodes) in self.n_state.iter().enumerate() {
            let mine = nodes.iter().filter(|(_, mask)| mask >> v & 1 == 1);
            stage.n_state[q].extend(mine.map(|&(node, _)| (node, 1)));
            if !stage.n_state[q].is_empty() {
                stage.touched.push(q as u32);
            }
        }
        stage
    }

    /// Every root the stage holds — `H`'s and the current `N_p` nodes —
    /// for the collector to remap.
    pub(crate) fn roots_mut(&mut self) -> Vec<&mut NodeId> {
        let pending = self.n_state.iter_mut().flatten().map(|(n, _)| n);
        self.h.roots_mut().chain(pending).collect()
    }

    /// Vectorized front half of FireTransitions: evaluate every
    /// transition's unary predicate across the whole slice into the
    /// reusable [`unary_mask`](Self::unary_mask) bitmask, transition by
    /// transition. Returns the per-tuple stride in 64-bit words. This is
    /// a private evaluator's prefilter: a family of one, no transition
    /// split.
    ///
    /// The iterator must yield exactly `len` tuples — the same tuples,
    /// in the same order, that are later passed to
    /// [`fire_transitions`](Self::fire_transitions) with their slice
    /// index `j`.
    pub(crate) fn prefilter_slice<'t>(
        &mut self,
        pcea: &Pcea,
        tuples: impl Iterator<Item = &'t Tuple> + Clone,
        len: usize,
    ) -> usize {
        debug_assert_eq!(self.h.width(), 1);
        let n_trans = pcea.transitions().len();
        let stride = n_trans.div_ceil(64).max(1);
        self.split.clear();
        self.unary_mask.clear();
        self.unary_mask.resize(len * stride, 0);
        // Is the whole slice one relation? One cheap pass lets relation
        // tests below resolve per-transition instead of per-tuple.
        let batch_rel = {
            let mut it = tuples.clone();
            it.next()
                .map(|t0| t0.relation())
                .filter(|&r0| tuples.clone().all(|t| t.relation() == r0))
        };
        for (e_idx, tr) in pcea.transitions().iter().enumerate() {
            let (word, bit) = (e_idx / 64, 1u64 << (e_idx % 64));
            // `True` accepts everything: fill the column without
            // touching a single tuple.
            if matches!(tr.unary, UnaryPredicate::True) {
                for j in 0..len {
                    self.unary_mask[j * stride + word] |= bit;
                }
                continue;
            }
            if let Some(r) = batch_rel {
                // Relation-constant slice: an exact relation test is
                // all-or-nothing, and any predicate that rejects the
                // relation skips the slice outright.
                if matches!(tr.unary, UnaryPredicate::Relation(x) if x == r) {
                    for j in 0..len {
                        self.unary_mask[j * stride + word] |= bit;
                    }
                    continue;
                }
                if tr.unary.rejects_relation(r) {
                    continue;
                }
            }
            for (j, t) in tuples.clone().enumerate() {
                if tr.unary.matches(t) {
                    self.unary_mask[j * stride + word] |= bit;
                }
            }
        }
        stride
    }

    /// Shared-prefilter variant for the multi-query runtime: instead of
    /// evaluating `tr.unary` per transition, gather each transition's
    /// bits from the shard's [`PredicateCache`] through the family's
    /// indirection tables `slots` (variant `v`'s transition `e` reads
    /// shared predicate slot `slots[v * |∆| + e]`). The cache evaluates
    /// each *distinct* predicate at most once per tuple per batch, no
    /// matter how many queries reference it; this fan-out is pure bit
    /// movement. A transition every variant reads from one slot gathers
    /// once; a split one gathers per variant and also records, per
    /// tuple, the variants whose predicate accepted.
    ///
    /// `sel` holds the family's tuple indices into the stamped batch
    /// `tuples` (increasing). The produced mask is laid out over `sel`
    /// exactly as [`prefilter_slice`](Self::prefilter_slice) lays it
    /// over its slice, so [`fire_transitions`](Self::fire_transitions)
    /// consumes both identically — and the bits themselves are the same
    /// `matches()` outcomes, so firing decisions are bit-identical.
    pub(crate) fn prefilter_shared(
        &mut self,
        pcea: &Pcea,
        cache: &mut PredicateCache,
        slots: &[u32],
        sel: &[u32],
        tuples: &[(u64, Tuple)],
    ) -> usize {
        let n_trans = pcea.transitions().len();
        let width = self.h.width();
        debug_assert_eq!(slots.len(), n_trans * width);
        let stride = n_trans.div_ceil(64).max(1);
        self.split.clear();
        self.split_rows = 0;
        for e_idx in 0..n_trans {
            let first = slots[e_idx];
            if (1..width).all(|v| slots[v * n_trans + e_idx] == first) {
                self.split.push(SHARED);
            } else {
                self.split.push(self.split_rows as u32);
                self.split_rows += 1;
            }
        }
        self.unary_mask.clear();
        self.unary_mask.resize(sel.len() * stride, 0);
        self.variant_mask.clear();
        self.variant_mask.resize(sel.len() * self.split_rows, 0);
        for e_idx in 0..n_trans {
            let (word, bit) = (e_idx / 64, 1u64 << (e_idx % 64));
            let row = self.split[e_idx];
            let readers = if row == SHARED { 1 } else { width };
            for v in 0..readers {
                let pool = cache.ensure(slots[v * n_trans + e_idx], tuples);
                for (jj, &j) in sel.iter().enumerate() {
                    let j = j as usize;
                    if pool[j / 64] >> (j % 64) & 1 == 1 {
                        self.unary_mask[jj * stride + word] |= bit;
                        if row != SHARED {
                            self.variant_mask[jj * self.split_rows + row as usize] |= 1 << v;
                        }
                    }
                }
            }
        }
        stride
    }

    /// FireTransitions for tuple `j` of a pre-filtered slice: for every
    /// transition whose bit is set in the mask filled by
    /// [`prefilter_slice`](Self::prefilter_slice) or
    /// [`prefilter_shared`](Self::prefilter_shared) (non-matching
    /// transitions are skipped a word at a time), probe each source slot
    /// once for the stored runs matching the tuple's join key and
    /// `extend` them with the tuple at position `i` — once per distinct
    /// tuple of gathered roots among the variants whose predicate
    /// accepted and whose every root is live.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fire_transitions(
        &mut self,
        pcea: &Pcea,
        ds: &mut EnumStructure,
        t: &Tuple,
        i: u64,
        lo: u64,
        counts: &mut [VariantCounts],
        j: usize,
        stride: usize,
    ) {
        let all = all_variants(counts.len());
        let trs = pcea.transitions();
        for k in 0..stride {
            let mut word = self.unary_mask[j * stride + k];
            'fire: while word != 0 {
                let e_idx = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let tr = &trs[e_idx];
                let mut alive = match self.split.get(e_idx) {
                    Some(&row) if row != SHARED => {
                        self.variant_mask[j * self.split_rows + row as usize]
                    }
                    _ => all,
                };
                self.probed.clear();
                self.gather.clear();
                // The lowest variant in play, whose roots `gather` holds.
                let mut lead = alive.trailing_zeros() as usize;
                for (slot, b) in tr.binary.iter().enumerate() {
                    let Some(at) = self.probe(e_idx, slot, b, t) else {
                        continue 'fire;
                    };
                    for v in variants(alive) {
                        let root = self.h.root(at, v);
                        if root.is_bottom() || ds.max_start(root) < lo {
                            alive &= !(1 << v);
                        }
                    }
                    if alive == 0 {
                        continue 'fire;
                    }
                    self.probed.push(at);
                    self.gather.push(self.h.root(at, lead));
                }
                // One extend per distinct tuple of gathered roots: the
                // lowest variant left leads a group (re-gathering when
                // the probe's lead has gone), and every other one
                // holding the same roots joins it.
                loop {
                    if alive & 1 << lead == 0 {
                        lead = alive.trailing_zeros() as usize;
                        let h = &self.h;
                        self.gather.clear();
                        self.gather
                            .extend(self.probed.iter().map(|&at| h.root(at, lead)));
                    }
                    let mut group = 1 << lead;
                    for v in variants(alive & !group) {
                        let mut same = self.probed.iter().zip(&self.gather);
                        if same.all(|(&at, &g)| self.h.root(at, v) == g) {
                            group |= 1 << v;
                        }
                    }
                    let node = ds.extend(tr.labels, i, &self.gather);
                    for v in variants(group) {
                        counts[v].extends += 1;
                    }
                    let q = tr.target.index();
                    if self.n_state[q].is_empty() {
                        self.touched.push(q as u32);
                    }
                    self.n_state[q].push((node, group));
                    alive &= !group;
                    if alive == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// The `H` entry of transition `e_idx`'s source slot `slot` under
    /// the tuple's join key for it, if any.
    fn probe(&self, e_idx: usize, slot: usize, b: &EqPredicate, t: &Tuple) -> Option<usize> {
        let key = b.right.project(t)?;
        let key = key.iter().map(|&p| t.get(p));
        self.h.find(e_idx as u32, slot as u32, key)
    }

    /// UpdateIndices: make this position's runs visible to future tuples
    /// under their left join keys. Each `(transition, slot, key)` is
    /// probed once; each variant melds the nodes built for it into its
    /// own root, and a variant holding the root another one just melded
    /// the same node into takes that result.
    pub(crate) fn update_indices(
        &mut self,
        pcea: &Pcea,
        ds: &mut EnumStructure,
        t: &Tuple,
        lo: u64,
        counts: &mut [VariantCounts],
    ) {
        for (e_idx, tr) in pcea.transitions().iter().enumerate() {
            for (slot, (p, b)) in tr.sources.iter().zip(tr.binary.iter()).enumerate() {
                let created = &self.n_state[p.index()];
                if created.is_empty() {
                    continue;
                }
                let Some(key) = b.left.project(t) else {
                    continue;
                };
                let key = key.iter().map(|&p| t.get(p));
                // One probe for the whole list: the melded roots are
                // written back into the entry found (or just interned).
                let at = self.h.entry(e_idx as u32, slot as u32, key);
                for &(node, mask) in created {
                    self.melds.clear();
                    for v in variants(mask) {
                        let root = self.h.root_mut(at, v);
                        // A `⊥` root is never melded: it becomes the node.
                        let done = self.melds.iter().find(|m| m.0 == *root);
                        match done {
                            Some(&(_, melded, copies)) => {
                                *root = melded;
                                counts[v].unions += 1;
                                counts[v].copies += copies;
                            }
                            None => self.melds.extend(meld(root, node, ds, lo, &mut counts[v])),
                        }
                    }
                }
            }
        }
    }

    /// Checkpoint encoding of the look-up table `H` of a family of one
    /// (the only cross-position state this stage owns — the `N_p` lists
    /// and all scratch are per-position and deliberately excluded; see
    /// [`crate::checkpoint`]). Entries are sorted so identical tables
    /// encode to identical bytes.
    pub(crate) fn encode(
        &self,
        w: &mut cer_common::wire::WireWriter,
    ) -> Result<(), cer_common::wire::WireError> {
        use cer_common::wire::Wire;
        debug_assert_eq!(self.h.width(), 1, "a snapshot holds one query");
        let mut entries: Vec<_> = self.h.iter().collect();
        entries.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        w.put_len(entries.len());
        for (e_idx, slot, key, at) in entries {
            w.put_u32(e_idx);
            w.put_u32(slot);
            // As `Key` encodes: a length, then the values.
            w.put_len(key.len());
            for v in key {
                v.encode(w)?;
            }
            w.put_u32(self.h.root(at, 0).0);
        }
        Ok(())
    }

    /// Decode a table encoded by [`encode`](Self::encode) into a fresh
    /// stage for `pcea`, whose arena has `arena_len` nodes. Nothing in
    /// the bytes is trusted: every entry must name a transition of the
    /// automaton, a source slot of that transition and a node of the
    /// arena, and no `(transition, slot, key)` may appear twice.
    pub(crate) fn decode(
        r: &mut cer_common::wire::WireReader<'_>,
        pcea: &Pcea,
        arena_len: usize,
    ) -> Result<Self, cer_common::wire::WireError> {
        use cer_common::wire::{Wire, WireError};
        let mut stage = FireStage::new(pcea.num_states());
        let n = r.get_len()?;
        for _ in 0..n {
            let e_idx = r.get_u32()?;
            let slot = r.get_u32()?;
            let key = Key::decode(r)?;
            let node = r.get_u32()?;
            let Some(tr) = pcea.transitions().get(e_idx as usize) else {
                return Err(WireError::Corrupt("H entry names no transition"));
            };
            if slot as usize >= tr.binary.len() {
                return Err(WireError::Corrupt("H entry names no source slot"));
            }
            if node as usize >= arena_len {
                return Err(WireError::Corrupt("H entry past the arena"));
            }
            let at = stage.h.entry(e_idx, slot, key.iter());
            let stored = stage.h.root_mut(at, 0);
            if !stored.is_bottom() {
                return Err(WireError::Corrupt("duplicate H entry"));
            }
            *stored = NodeId(node);
        }
        Ok(stage)
    }

    /// Merge another replica's `H` entries into this stage (both
    /// families of one), with `offset` the arena id shift returned by
    /// [`EnumStructure::absorb`]. Replicas of a soundly key-partitioned
    /// query hold disjoint key sets (the join key determines the
    /// partition value, which determines the shard), so collisions are
    /// not expected — but a colliding entry is still merged correctly
    /// via the persistent `union` rather than silently dropped.
    pub(crate) fn absorb(
        &mut self,
        other: FireStage,
        offset: u32,
        ds: &mut EnumStructure,
        counts: &mut VariantCounts,
    ) {
        self.h.absorb(&other.h, |mine, theirs| {
            let theirs = NodeId(theirs.0 + offset);
            if mine.is_bottom() {
                return theirs;
            }
            counts.unions += 1;
            // `lo = 0` keeps every subtree: expiry is re-applied
            // lazily at the next position anyway.
            ds.union(mine, theirs, 0)
        });
    }

    /// Drop every `H` entry whose join key belongs to a different shard
    /// of a `(pos, n_shards)` key partition; the caller then compacts
    /// the arena around the survivors.
    ///
    /// Soundness of [`Partition::ByKey`](crate::runtime::Partition)
    /// guarantees ([`Pcea::supports_key_partition`]) that every join
    /// predicate projects the partition attribute at a common key index
    /// on both sides — so for each `(transition, slot)` the owning shard
    /// of an entry is computable from its stored key alone, with exactly
    /// the hash `key_shard` uses for tuple routing. Entries whose owner
    /// cannot be determined (no common
    /// index, short key) are conservatively kept.
    ///
    /// This is what makes replica redistribution *idempotent*: a full
    /// copy of merged state handed to each home of a new layout would
    /// otherwise hold every other home's runs too, and the next
    /// merge-of-replicas would duplicate them (see
    /// [`crate::checkpoint`]).
    pub(crate) fn retain_key_shard(
        &mut self,
        pcea: &Pcea,
        pos: usize,
        shard: usize,
        n_shards: usize,
        hasher: &cer_common::hash::FxBuildHasher,
    ) {
        use std::hash::BuildHasher;
        // Per (transition, slot): the key index carrying the partition
        // attribute, `None` when no common index exists.
        let key_index: Vec<Vec<Option<u32>>> = pcea
            .transitions()
            .iter()
            .map(|tr| {
                tr.binary
                    .iter()
                    .map(|b| {
                        let mask =
                            b.left.projection_index_mask(pos) & b.right.projection_index_mask(pos);
                        (mask != 0).then(|| mask.trailing_zeros())
                    })
                    .collect()
            })
            .collect();
        self.h.retain(|e_idx, slot, key, _| {
            match key_index
                .get(e_idx as usize)
                .and_then(|slots| slots.get(slot as usize))
                .copied()
                .flatten()
            {
                Some(i) => match key.get(i as usize) {
                    Some(v) => (hasher.hash_one(v) % n_shards as u64) as usize == shard,
                    None => true,
                },
                None => true,
            }
        });
    }

    /// Copying garbage collection: keep only nodes reachable from live
    /// `H` roots (and the current position's pending nodes), dropping
    /// expired subtrees. Fully transparent to outputs. A dead root
    /// becomes `⊥`, as a private evaluator's collection drops its entry,
    /// and an entry left with no root leaves `H`; then every variant's
    /// arena count restarts from the nodes its roots reach.
    pub(crate) fn collect_garbage(
        &mut self,
        ds: &mut EnumStructure,
        lo: u64,
        counts: &mut [VariantCounts],
    ) {
        self.h.retain(|_, _, _, mut roots| {
            roots.each(|_, root| {
                if !root.is_bottom() && ds.max_start(*root) < lo {
                    *root = BOTTOM;
                }
            })
        });
        ds.compact(&mut self.roots_mut(), lo);
        if counts.len() == 1 {
            counts[0].collected(ds.len());
            return;
        }
        let mut live = [0usize; MAX_VARIANTS];
        let (h, width) = (&self.h, counts.len());
        let stored = h
            .iter()
            .flat_map(|(_, _, _, at)| (0..width).map(move |v| (h.root(at, v), 1 << v)));
        let pending = self.n_state.iter().flatten().copied();
        ds.count_reachable(stored.chain(pending), &mut self.reach, &mut live);
        for (c, live) in counts.iter_mut().zip(live) {
            c.collected(live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::pcea::paper_p0;
    use cer_common::wire::{Wire, WireError, WireReader, WireWriter};
    use cer_common::{Schema, Value};

    /// Nodes in the arena the tables below are decoded against.
    const ARENA: usize = 4;

    /// `(transition, slot, key, node)` entries in the layout
    /// [`FireStage::encode`] writes.
    fn table_bytes(entries: &[(u32, u32, &[i64], u32)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_len(entries.len());
        for &(e_idx, slot, key, node) in entries {
            w.put_u32(e_idx);
            w.put_u32(slot);
            let key: Key = key.iter().map(|&v| Value::Int(v)).collect();
            key.encode(&mut w).unwrap();
            w.put_u32(node);
        }
        w.into_bytes()
    }

    /// Decode against `P0`: transitions 0 and 1 are initial (no source
    /// slot), transition 2 joins two.
    fn decode(bytes: &[u8]) -> Result<FireStage, WireError> {
        let (_, r, s, t) = Schema::sigma0();
        FireStage::decode(&mut WireReader::new(bytes), &paper_p0(r, s, t), ARENA)
    }

    const GOOD: [(u32, u32, &[i64], u32); 4] = [
        (2, 0, &[1], 0),
        (2, 1, &[1, 2], 3),
        (2, 0, &[2], 1),
        // The same key under another slot is another entry.
        (2, 1, &[1], 2),
    ];

    #[test]
    fn decode_checks_every_entry_against_the_automaton() {
        let stage = decode(&table_bytes(&GOOD)).expect("a well-formed table");
        assert_eq!(stage.index_entries(0), GOOD.len());
        let mut w = WireWriter::new();
        stage.encode(&mut w).unwrap();
        let mut sorted = GOOD;
        sorted.sort();
        assert_eq!(
            w.into_bytes(),
            table_bytes(&sorted),
            "entries encode sorted"
        );

        let bottom = u32::MAX;
        for (bad, why) in [
            ((3, 0, &[1][..], 0), "H entry names no transition"),
            ((bottom, 0, &[1][..], 0), "H entry names no transition"),
            ((0, 0, &[1][..], 0), "H entry names no source slot"),
            ((2, 2, &[1][..], 0), "H entry names no source slot"),
            ((2, bottom, &[1][..], 0), "H entry names no source slot"),
            ((2, 0, &[9][..], ARENA as u32), "H entry past the arena"),
            ((2, 0, &[9][..], bottom), "H entry past the arena"),
            ((2, 0, &[2][..], 1), "duplicate H entry"),
            ((2, 1, &[1, 2][..], 0), "duplicate H entry"),
        ] {
            let mut entries = GOOD.to_vec();
            entries.push(bad);
            let got = decode(&table_bytes(&entries)).map(|stage| stage.index_entries(0));
            assert_eq!(got, Err(WireError::Corrupt(why)), "{bad:?}");
        }
    }

    #[test]
    fn mutated_table_bytes_are_rejected_or_decoded_never_trusted() {
        // Every 4-byte window overwritten with values out of range for
        // every field (`hostile_mutations`). Each outcome must be a
        // table that passes the same checks or an error — never a panic
        // — and the field checks must all be seen to fire.
        let bytes = table_bytes(&GOOD);
        let mut seen = std::collections::BTreeSet::new();
        for mutated in cer_common::wire::hostile_mutations(&bytes) {
            match decode(&mutated) {
                Ok(stage) => assert!(stage.index_entries(0) <= GOOD.len()),
                Err(WireError::Corrupt(why)) => {
                    seen.insert(why);
                }
                Err(_) => {}
            }
        }
        for why in [
            "H entry names no transition",
            "H entry names no source slot",
            "H entry past the arena",
        ] {
            assert!(seen.contains(why), "no mutation tripped {why:?}: {seen:?}");
        }
    }
}
