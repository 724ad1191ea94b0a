//! The look-up table `H` of Algorithm 1, keyed by
//! `(transition, source slot, join key)`.
//!
//! Theorem 5.1 charges constant time per dictionary operation. This
//! table keeps that honest: a probe hashes and compares the join key
//! where it lies in the tuple (the caller passes the projected values
//! as an iterator of references, see [`KeyExtractor::project`]) and
//! reads `O(|key|)` values; nothing is allocated on a probe or on an
//! update of an existing entry, and a new entry clones its key values
//! once into the table's key store.
//!
//! Three vectors, all owned by the table: `entries` (fixed-size, in
//! insertion order), `keys` (the key values of all entries end to end —
//! entry order *is* key-store order, which is what lets
//! [`HTable::retain`] compact both in place) and `slots`, an
//! open-addressing index of entry numbers under linear probing at load
//! ≤ ½. Entries are only ever removed by `retain`, which re-seats every
//! survivor, so there are no tombstones. Keys hash with the FxHash of
//! [`cer_common::hash`], as in the `FxHashMap` this table replaced: fast
//! and deterministic, not resistant to keys crafted to collide.
//!
//! [`KeyExtractor::project`]: cer_automata::predicate::KeyExtractor::project

use crate::ds::{index32, NodeId, BOTTOM};
use cer_common::hash::FxHasher;
use cer_common::Value;
use std::hash::{Hash, Hasher};

const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Entry {
    hash: u64,
    transition: u32,
    slot: u32,
    /// The key is `keys[key_start..][..key_len]`.
    key_start: u32,
    key_len: u32,
    node: NodeId,
}

/// The look-up table `H`.
#[derive(Clone, Debug, Default)]
pub(crate) struct HTable {
    /// Entry numbers or [`EMPTY`]; empty, or a power of two ≥ twice
    /// `entries.len()`.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    keys: Vec<Value>,
}

impl HTable {
    /// Entries in the table.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn hash<'v>(transition: u32, slot: u32, key: impl Iterator<Item = &'v Value>) -> u64 {
        let mut h = FxHasher::default();
        h.write_u32(transition);
        h.write_u32(slot);
        for v in key {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Where `hash` starts probing: its top bits, the well-mixed end of
    /// a multiplicative hash.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn key(&self, e: &Entry) -> &[Value] {
        &self.keys[e.key_start as usize..][..e.key_len as usize]
    }

    /// The number of the entry holding the key.
    fn find<'v>(
        &self,
        hash: u64,
        transition: u32,
        slot: u32,
        key: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = self.home(hash);
        loop {
            let at = self.slots[s];
            if at == EMPTY {
                return None;
            }
            let e = &self.entries[at as usize];
            if e.hash == hash
                && e.transition == transition
                && e.slot == slot
                && e.key_len as usize == key.len()
                && self.key(e).iter().eq(key.clone())
            {
                return Some(at as usize);
            }
            s = (s + 1) & mask;
        }
    }

    /// Seat entry `at` in the first free slot of its probe sequence.
    fn seat(&mut self, at: usize) {
        let mask = self.slots.len() - 1;
        let mut s = self.home(self.entries[at].hash);
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.slots[s] = at as u32;
    }

    /// Empty the slots, widened if need be to hold `entries` at load
    /// ≤ ½, and re-seat every entry from its stored hash.
    fn reindex(&mut self, entries: usize) {
        let want = (2 * entries).next_power_of_two().max(8);
        if want > self.slots.len() {
            self.slots = vec![EMPTY; want];
        } else {
            self.slots.fill(EMPTY);
        }
        for at in 0..self.entries.len() {
            self.seat(at);
        }
    }

    /// The node stored under the key, if any.
    pub(crate) fn get<'v>(
        &self,
        transition: u32,
        slot: u32,
        key: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> Option<NodeId> {
        let hash = Self::hash(transition, slot, key.clone());
        let at = self.find(hash, transition, slot, key)?;
        Some(self.entries[at].node)
    }

    /// The node stored under the key, for reading and overwriting in one
    /// probe. An absent key is interned first and reads as `⊥`, which
    /// the caller must overwrite: no entry holds `⊥` between calls.
    pub(crate) fn entry<'v>(
        &mut self,
        transition: u32,
        slot: u32,
        key: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> &mut NodeId {
        let hash = Self::hash(transition, slot, key.clone());
        let at = match self.find(hash, transition, slot, key.clone()) {
            Some(at) => at,
            None => {
                // Entry numbers stay below `EMPTY`.
                let at = index32(self.entries.len()) as usize;
                self.entries.push(Entry {
                    hash,
                    transition,
                    slot,
                    key_start: index32(self.keys.len()),
                    key_len: index32(key.len()),
                    node: BOTTOM,
                });
                self.keys.extend(key.cloned());
                if 2 * self.entries.len() > self.slots.len() {
                    self.reindex(2 * self.entries.len());
                } else {
                    self.seat(at);
                }
                at
            }
        };
        &mut self.entries[at].node
    }

    /// Every entry as `(transition, slot, key, node)`, in insertion
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, &[Value], NodeId)> {
        self.entries
            .iter()
            .map(|e| (e.transition, e.slot, self.key(e), e.node))
    }

    /// Every stored node, for the collector to remap.
    pub(crate) fn nodes_mut(&mut self) -> impl Iterator<Item = &mut NodeId> {
        self.entries.iter_mut().map(|e| &mut e.node)
    }

    /// Keep the entries `keep(transition, slot, key, node)` accepts.
    /// Entries and key store are compacted in place — nothing is
    /// allocated and the key values move, they are not cloned — and the
    /// slots, kept at the size they had, are re-seated.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32, u32, &[Value], NodeId) -> bool) {
        let (mut live, mut key_end) = (0, 0);
        for at in 0..self.entries.len() {
            let e = self.entries[at];
            if !keep(e.transition, e.slot, self.key(&e), e.node) {
                continue;
            }
            // Entry order is key-store order, so `key_end ≤ key_start`:
            // moving down never overwrites a key not yet visited.
            let (start, len) = (e.key_start as usize, e.key_len as usize);
            for k in 0..len {
                self.keys.swap(key_end + k, start + k);
            }
            self.entries[live] = Entry {
                key_start: key_end as u32,
                ..e
            };
            live += 1;
            key_end += len;
        }
        self.entries.truncate(live);
        self.keys.truncate(key_end);
        self.reindex(live);
    }

    /// Fold `other` in: for each of its entries, store
    /// `merge(mine, theirs)` under the key, `mine` being `⊥` when this
    /// table does not hold the key yet.
    pub(crate) fn absorb(
        &mut self,
        other: &HTable,
        mut merge: impl FnMut(NodeId, NodeId) -> NodeId,
    ) {
        for (transition, slot, key, theirs) in other.iter() {
            let mine = self.entry(transition, slot, key.iter());
            *mine = merge(*mine, theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    type Model = HashMap<(u32, u32, Vec<Value>), NodeId>;

    /// A small key space with every shape the engine produces: the empty
    /// key (the always-true join), `Int` and `Str` columns, several
    /// columns, and prefixes of one another.
    fn key_strategy() -> impl Strategy<Value = Vec<Value>> {
        let value = prop_oneof![
            (0i64..4).prop_map(Value::Int),
            (0u8..3).prop_map(|s| Value::Str(format!("s{s}").into())),
        ];
        proptest::collection::vec(value, 0..3)
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Insert, or overwrite on a hit, through one `entry` probe.
        Upsert(u32, u32, Vec<Value>, u32),
        Probe(u32, u32, Vec<Value>),
        /// Keep the entries whose node is not a multiple of this.
        Retain(u32),
        /// Fold in a second table built from these upserts; colliding
        /// entries sum.
        Absorb(Vec<(u32, u32, Vec<Value>, u32)>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let upsert = || (0u32..2, 0u32..2, key_strategy(), 0u32..1000);
        // Arms are drawn uniformly: upserts and probes four times as
        // often as the two bulk operations.
        let point = || {
            prop_oneof![
                upsert().prop_map(|(t, s, k, n)| Op::Upsert(t, s, k, n)),
                (0u32..2, 0u32..2, key_strategy()).prop_map(|(t, s, k)| Op::Probe(t, s, k)),
            ]
        };
        let bulk = prop_oneof![
            (2u32..5).prop_map(Op::Retain),
            proptest::collection::vec(upsert(), 0..12).prop_map(Op::Absorb),
        ];
        prop_oneof![point(), point(), point(), point(), bulk]
    }

    fn check(table: &HTable, model: &Model) {
        assert_eq!(table.len(), model.len());
        let mut listed: Model = HashMap::new();
        let mut key_end = 0;
        for (e, (t, s, k, n)) in table.entries.iter().zip(table.iter()) {
            assert_eq!(e.key_start as usize, key_end, "key store has a gap");
            key_end += k.len();
            assert!(listed.insert((t, s, k.to_vec()), n).is_none(), "duplicate");
        }
        assert_eq!(key_end, table.keys.len(), "key store has a tail");
        assert_eq!(&listed, model);
        assert!(table.slots.len() >= 2 * table.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn table_agrees_with_a_hash_map(ops in proptest::collection::vec(op_strategy(), 0..80)) {
            let mut table = HTable::default();
            let mut model = Model::new();
            for op in ops {
                match op {
                    Op::Upsert(t, s, k, n) => {
                        let node = table.entry(t, s, k.iter());
                        let seen = (!node.is_bottom()).then_some(*node);
                        *node = NodeId(n);
                        prop_assert_eq!(seen, model.insert((t, s, k), NodeId(n)));
                    }
                    Op::Probe(t, s, k) => {
                        let want = model.get(&(t, s, k.clone())).copied();
                        prop_assert_eq!(table.get(t, s, k.iter()), want);
                    }
                    Op::Retain(m) => {
                        table.retain(|_, _, _, n| n.0 % m != 0);
                        model.retain(|_, n| n.0 % m != 0);
                    }
                    Op::Absorb(upserts) => {
                        let mut other = HTable::default();
                        for (t, s, k, n) in upserts {
                            *other.entry(t, s, k.iter()) = NodeId(n);
                        }
                        let sum = |a: NodeId, b: NodeId| {
                            if a.is_bottom() { b } else { NodeId(a.0 + b.0) }
                        };
                        table.absorb(&other, sum);
                        for (t, s, k, n) in other.iter() {
                            let mine = model.entry((t, s, k.to_vec())).or_insert(BOTTOM);
                            *mine = sum(*mine, n);
                        }
                    }
                }
                check(&table, &model);
            }
        }
    }

    #[test]
    fn growth_keeps_every_entry_reachable() {
        let mut table = HTable::default();
        assert_eq!(table.get(0, 0, [].iter()), None, "probing an empty table");
        for i in 0..5000i64 {
            let key = [Value::Int(i), Value::Int(i << 32)];
            *table.entry(7, (i % 3) as u32, key.iter()) = NodeId(i as u32);
        }
        assert_eq!(table.len(), 5000);
        for i in 0..5000i64 {
            let key = [Value::Int(i), Value::Int(i << 32)];
            assert_eq!(
                table.get(7, (i % 3) as u32, key.iter()),
                Some(NodeId(i as u32))
            );
            assert_eq!(table.get(7, ((i + 1) % 3) as u32, key.iter()), None);
        }
        // Retaining a tenth keeps the slots: the table was that large
        // once and may be again.
        let slots = table.slots.len();
        table.retain(|_, _, _, n| n.0 % 10 == 0);
        assert_eq!((table.len(), table.slots.len()), (500, slots));
        assert_eq!(table.keys.len(), 1000);
        assert_eq!(
            table.get(7, 1, [Value::Int(10), Value::Int(10 << 32)].iter()),
            Some(NodeId(10))
        );
        assert_eq!(
            table.get(7, 2, [Value::Int(11), Value::Int(11 << 32)].iter()),
            None
        );
    }
}
