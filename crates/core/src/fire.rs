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
//! [`KeyExtractor::project`]: cer_automata::predicate::KeyExtractor::project
//!
//! The [`StreamingEvaluator`](crate::evaluator::StreamingEvaluator)
//! composes these with the ingest/window stage
//! ([`WindowClock`](crate::window::WindowClock)) and the enumeration
//! stage ([`crate::enumerate`]).

use crate::ds::{EnumStructure, NodeId};
use crate::evaluator::EngineStats;
use crate::htable::HTable;
use crate::shared::PredicateCache;
use cer_automata::pcea::Pcea;
use cer_automata::predicate::{Key, UnaryPredicate};
use cer_common::Tuple;

/// The mutable state of the firing and indexing stages.
#[derive(Clone, Debug)]
pub(crate) struct FireStage {
    /// The look-up table `H`.
    h: HTable,
    /// `N_p` per state, rebuilt each position.
    n_state: Vec<Vec<NodeId>>,
    /// States whose `N_p` list is currently non-empty; lets
    /// [`begin_position`](Self::begin_position) clear only those.
    touched: Vec<u32>,
    /// Scratch for gathered source nodes.
    gather: Vec<NodeId>,
    /// Per-batch unary pre-filter: bit `e % 64` of word
    /// `j * stride + e / 64` is set iff transition `e`'s unary predicate
    /// accepts tuple `j` of the current slice. Reused across batches.
    unary_mask: Vec<u64>,
}

impl FireStage {
    pub(crate) fn new(num_states: usize) -> Self {
        FireStage {
            h: HTable::default(),
            n_state: vec![Vec::new(); num_states],
            touched: Vec::new(),
            gather: Vec::new(),
            unary_mask: Vec::new(),
        }
    }

    /// Entries currently in `H`.
    pub(crate) fn index_entries(&self) -> usize {
        self.h.len()
    }

    /// The keys of `H` as `(transition, slot, join key)` (tests check
    /// that placed replicas partition them).
    #[cfg(test)]
    pub(crate) fn index_keys(&self) -> Vec<(u32, u32, Key)> {
        self.h.iter().map(|(e, s, k, _)| (e, s, k.into())).collect()
    }

    /// Nodes created at the current position targeting state `q`.
    pub(crate) fn nodes_at(&self, q: usize) -> &[NodeId] {
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

    /// Vectorized front half of FireTransitions: evaluate every
    /// transition's unary predicate across the whole slice into the
    /// reusable [`unary_mask`](Self::unary_mask) bitmask, transition by
    /// transition. Returns the per-tuple stride in 64-bit words.
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
        let n_trans = pcea.transitions().len();
        let stride = n_trans.div_ceil(64).max(1);
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
    /// bits from the shard's [`PredicateCache`] through the query's
    /// indirection table `slots` (transition index → shared predicate
    /// slot). The cache evaluates each *distinct* predicate at most
    /// once per tuple per batch, no matter how many queries reference
    /// it; this fan-out is pure bit movement.
    ///
    /// `sel` holds the query's tuple indices into the stamped batch
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
        debug_assert_eq!(slots.len(), n_trans);
        let stride = n_trans.div_ceil(64).max(1);
        self.unary_mask.clear();
        self.unary_mask.resize(sel.len() * stride, 0);
        for (e_idx, &slot) in slots.iter().enumerate() {
            let (word, bit) = (e_idx / 64, 1u64 << (e_idx % 64));
            let pool = cache.ensure(slot, tuples);
            for (jj, &j) in sel.iter().enumerate() {
                let j = j as usize;
                if pool[j / 64] >> (j % 64) & 1 == 1 {
                    self.unary_mask[jj * stride + word] |= bit;
                }
            }
        }
        stride
    }

    /// FireTransitions for tuple `j` of a pre-filtered slice: for every
    /// transition whose bit is set in the mask filled by
    /// [`prefilter_slice`](Self::prefilter_slice) or
    /// [`prefilter_shared`](Self::prefilter_shared) (non-matching
    /// transitions are skipped a word at a time), gather the stored run
    /// matching the tuple's join key in every source slot and `extend`
    /// them with the tuple at position `i`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fire_transitions(
        &mut self,
        pcea: &Pcea,
        ds: &mut EnumStructure,
        t: &Tuple,
        i: u64,
        lo: u64,
        stats: &mut EngineStats,
        j: usize,
        stride: usize,
    ) {
        let trs = pcea.transitions();
        for k in 0..stride {
            let mut word = self.unary_mask[j * stride + k];
            'fire: while word != 0 {
                let e_idx = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let tr = &trs[e_idx];
                self.gather.clear();
                for (slot, b) in tr.binary.iter().enumerate() {
                    let Some(key) = b.right.project(t) else {
                        continue 'fire;
                    };
                    let key = key.iter().map(|&p| t.get(p));
                    match self.h.get(e_idx as u32, slot as u32, key) {
                        Some(node) if ds.max_start(node) >= lo => self.gather.push(node),
                        _ => continue 'fire,
                    }
                }
                let node = ds.extend(tr.labels, i, &self.gather);
                stats.extends += 1;
                let q = tr.target.index();
                if self.n_state[q].is_empty() {
                    self.touched.push(q as u32);
                }
                self.n_state[q].push(node);
            }
        }
    }

    /// UpdateIndices: make this position's runs visible to future tuples
    /// under their left join keys.
    pub(crate) fn update_indices(
        &mut self,
        pcea: &Pcea,
        ds: &mut EnumStructure,
        t: &Tuple,
        lo: u64,
        stats: &mut EngineStats,
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
                // One probe for the whole list: the melded root is
                // written back into the entry found (or just interned).
                let root = self.h.entry(e_idx as u32, slot as u32, key);
                for &node in created {
                    *root = if root.is_bottom() {
                        node
                    } else {
                        stats.unions += 1;
                        ds.union(*root, node, lo)
                    };
                }
            }
        }
    }

    /// Checkpoint encoding of the look-up table `H` (the only
    /// cross-position state this stage owns — the `N_p` lists and all
    /// scratch are per-position and deliberately excluded; see
    /// [`crate::checkpoint`]). Entries are sorted so identical tables
    /// encode to identical bytes.
    pub(crate) fn encode(
        &self,
        w: &mut cer_common::wire::WireWriter,
    ) -> Result<(), cer_common::wire::WireError> {
        use cer_common::wire::Wire;
        let mut entries: Vec<_> = self.h.iter().collect();
        entries.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        w.put_len(entries.len());
        for (e_idx, slot, key, node) in entries {
            w.put_u32(e_idx);
            w.put_u32(slot);
            // As `Key` encodes: a length, then the values.
            w.put_len(key.len());
            for v in key {
                v.encode(w)?;
            }
            w.put_u32(node.0);
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
            let stored = stage.h.entry(e_idx, slot, key.iter());
            if !stored.is_bottom() {
                return Err(WireError::Corrupt("duplicate H entry"));
            }
            *stored = NodeId(node);
        }
        Ok(stage)
    }

    /// Merge another replica's `H` entries into this stage, with
    /// `offset` the arena id shift returned by
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
        stats: &mut EngineStats,
    ) {
        self.h.absorb(&other.h, |mine, theirs| {
            let theirs = NodeId(theirs.0 + offset);
            if mine.is_bottom() {
                return theirs;
            }
            stats.unions += 1;
            // `lo = 0` keeps every subtree: expiry is re-applied
            // lazily at the next position anyway.
            ds.union(mine, theirs, 0)
        });
    }

    /// Drop every `H` entry whose join key belongs to a different shard
    /// of a `(pos, n_shards)` key partition, then compact the arena
    /// around the survivors.
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
        ds: &mut EnumStructure,
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
        // Compact with `lo = 0`: after a merge, `current_lo` is the max
        // across replicas, which may overshoot a slice that saw older
        // in-window tuples — expiry is re-applied lazily from the
        // merged clock at the next position, exactly as in
        // [`absorb`](Self::absorb).
        self.collect_garbage(ds, 0);
    }

    /// Copying garbage collection: keep only nodes reachable from live
    /// `H` entries (and the current position's pending nodes), dropping
    /// expired subtrees. Fully transparent to outputs.
    pub(crate) fn collect_garbage(&mut self, ds: &mut EnumStructure, lo: u64) {
        // Drop dead index entries first.
        self.h.retain(|_, _, _, node| ds.max_start(node) >= lo);
        let mut roots: Vec<&mut NodeId> = self
            .h
            .nodes_mut()
            .chain(self.n_state.iter_mut().flatten())
            .collect();
        ds.compact(&mut roots, lo);
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
        assert_eq!(stage.index_entries(), GOOD.len());
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
            let got = decode(&table_bytes(&entries)).map(|stage| stage.index_entries());
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
                Ok(stage) => assert!(stage.index_entries() <= GOOD.len()),
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
