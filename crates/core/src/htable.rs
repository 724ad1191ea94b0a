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
//! Four vectors, all owned by the table: `entries` (fixed-size, in
//! insertion order), `keys` (the key values of all entries end to end —
//! entry order *is* key-store order, which is what lets
//! [`HTable::retain`] compact both in place), `more` and `slots`, an
//! open-addressing index of entry numbers under linear probing at load
//! ≤ ½. An entry stores one root per variant of the evaluator's family
//! (a private evaluator is a family of one), `⊥` where a variant holds
//! nothing under the key: the first variant's in the entry itself, in
//! what would otherwise be its padding, and the others in `more`, a
//! root column beside `entries` (`width − 1` roots per entry, in entry
//! order) — so a family of one reads its root from the line its probe
//! already loaded. Entries are only ever removed by `retain`, which
//! re-seats every survivor, so there are no tombstones. Keys hash with
//! the FxHash of [`cer_common::hash`], as in the `FxHashMap` this table
//! replaced: fast and deterministic, not resistant to keys crafted to
//! collide.
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
    /// The first variant's root.
    root: NodeId,
}

/// One entry's roots, for overwriting.
pub(crate) struct RootsMut<'a> {
    first: &'a mut NodeId,
    rest: &'a mut [NodeId],
}

impl RootsMut<'_> {
    /// Call `f(variant, root)` on every variant's root, in variant
    /// order; returns whether any root is left non-`⊥`.
    pub(crate) fn each(&mut self, mut f: impl FnMut(usize, &mut NodeId)) -> bool {
        f(0, self.first);
        let mut held = !self.first.is_bottom();
        for (k, root) in self.rest.iter_mut().enumerate() {
            f(k + 1, root);
            held |= !root.is_bottom();
        }
        held
    }
}

/// The look-up table `H`.
#[derive(Clone, Debug)]
pub(crate) struct HTable {
    /// Entry numbers or [`EMPTY`]; empty, or a power of two ≥ twice
    /// `entries.len()`.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    keys: Vec<Value>,
    /// The roots of every variant but the first, `width − 1` per entry,
    /// in entry order.
    more: Vec<NodeId>,
    width: usize,
}

/// An empty table of one variant.
impl Default for HTable {
    fn default() -> Self {
        HTable {
            slots: Vec::new(),
            entries: Vec::new(),
            keys: Vec::new(),
            more: Vec::new(),
            width: 1,
        }
    }
}

impl HTable {
    /// Entries in the table.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Variants: roots per entry.
    pub(crate) fn width(&self) -> usize {
        self.width
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
    fn find_hashed<'v>(
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

    /// The number of the entry holding the key, if any.
    pub(crate) fn find<'v>(
        &self,
        transition: u32,
        slot: u32,
        key: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> Option<usize> {
        let hash = Self::hash(transition, slot, key.clone());
        self.find_hashed(hash, transition, slot, key)
    }

    /// The number of the entry holding the key, for reading and
    /// overwriting its roots in one probe. An absent key is interned
    /// first with every root `⊥`; the caller stores at least one.
    pub(crate) fn entry<'v>(
        &mut self,
        transition: u32,
        slot: u32,
        key: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> usize {
        let hash = Self::hash(transition, slot, key.clone());
        if let Some(at) = self.find_hashed(hash, transition, slot, key.clone()) {
            return at;
        }
        // Entry numbers stay below `EMPTY`.
        let at = index32(self.entries.len()) as usize;
        self.entries.push(Entry {
            hash,
            transition,
            slot,
            key_start: index32(self.keys.len()),
            key_len: index32(key.len()),
            root: BOTTOM,
        });
        self.keys.extend(key.cloned());
        if self.width > 1 {
            self.more.resize(self.more.len() + self.width - 1, BOTTOM);
        }
        if 2 * self.entries.len() > self.slots.len() {
            self.reindex(2 * self.entries.len());
        } else {
            self.seat(at);
        }
        at
    }

    /// Entry `at`'s root for variant `v`.
    #[inline]
    pub(crate) fn root(&self, at: usize, v: usize) -> NodeId {
        if v == 0 {
            self.entries[at].root
        } else {
            self.more[at * (self.width - 1) + v - 1]
        }
    }

    /// Entry `at`'s root for variant `v`, for overwriting.
    #[inline]
    pub(crate) fn root_mut(&mut self, at: usize, v: usize) -> &mut NodeId {
        if v == 0 {
            &mut self.entries[at].root
        } else {
            &mut self.more[at * (self.width - 1) + v - 1]
        }
    }

    /// Every stored root.
    pub(crate) fn roots_mut(&mut self) -> impl Iterator<Item = &mut NodeId> {
        let first = self.entries.iter_mut().map(|e| &mut e.root);
        first.chain(self.more.iter_mut())
    }

    /// Every entry as `(transition, slot, key, entry number)`, in
    /// insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, &[Value], usize)> {
        let entries = self.entries.iter().enumerate();
        entries.map(|(at, e)| (e.transition, e.slot, self.key(e), at))
    }

    /// Keep the entries `keep(transition, slot, key, roots)` accepts,
    /// after whatever it wrote into their roots. Entries, key store and
    /// roots are compacted in place — nothing is allocated and the key
    /// values move, they are not cloned — and the slots, kept at the
    /// size they had, are re-seated.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32, u32, &[Value], RootsMut) -> bool) {
        let (mut live, mut key_end, more) = (0, 0, self.width - 1);
        for at in 0..self.entries.len() {
            let e = self.entries[at];
            let key = &self.keys[e.key_start as usize..][..e.key_len as usize];
            let roots = RootsMut {
                first: &mut self.entries[at].root,
                rest: &mut self.more[at * more..][..more],
            };
            if !keep(e.transition, e.slot, key, roots) {
                continue;
            }
            // Entry order is key-store order, so `key_end ≤ key_start`:
            // moving down never overwrites a key not yet visited.
            let (start, len) = (e.key_start as usize, e.key_len as usize);
            for k in 0..len {
                self.keys.swap(key_end + k, start + k);
            }
            if more > 0 {
                self.more
                    .copy_within(at * more..(at + 1) * more, live * more);
            }
            self.entries[live] = Entry {
                key_start: key_end as u32,
                root: self.entries[at].root,
                ..e
            };
            live += 1;
            key_end += len;
        }
        self.entries.truncate(live);
        self.keys.truncate(key_end);
        self.more.truncate(live * more);
        self.reindex(live);
    }

    /// Widen an empty table to `width` variants.
    pub(crate) fn set_width(&mut self, width: usize) {
        assert!(self.entries.is_empty(), "only an empty table is widened");
        self.width = width;
    }

    /// Drop variant `v`'s roots (the variants above it move down one),
    /// then every entry left holding no root.
    pub(crate) fn remove_column(&mut self, v: usize) {
        let more = self.width - 1;
        // The column of `more` that leaves it: variant `v`'s, or for
        // `v = 0` variant 1's, which moves into the entries.
        let gone = v.max(1) - 1;
        let mut kept = 0;
        for at in 0..self.entries.len() {
            let row = at * more;
            if v == 0 {
                self.entries[at].root = self.more[row];
            }
            for c in (0..more).filter(|&c| c != gone) {
                self.more[kept] = self.more[row + c];
                kept += 1;
            }
        }
        self.more.truncate(kept);
        self.width -= 1;
        self.retain(|_, _, _, mut roots| roots.each(|_, _| {}));
    }

    /// Fold `other` in (both one column wide): for each of its entries,
    /// store `merge(mine, theirs)` under the key, `mine` being `⊥` when
    /// this table does not hold the key yet.
    pub(crate) fn absorb(
        &mut self,
        other: &HTable,
        mut merge: impl FnMut(NodeId, NodeId) -> NodeId,
    ) {
        debug_assert!(self.width == 1 && other.width == 1);
        for (transition, slot, key, theirs) in other.iter() {
            let at = self.entry(transition, slot, key.iter());
            let mine = self.root_mut(at, 0);
            *mine = merge(*mine, other.root(theirs, 0));
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

    /// The one-column table's node under the key.
    fn get(table: &HTable, t: u32, s: u32, k: &[Value]) -> Option<NodeId> {
        table.find(t, s, k.iter()).map(|at| table.root(at, 0))
    }

    /// Store `node` under the key; returns what it replaced.
    fn put(table: &mut HTable, t: u32, s: u32, k: &[Value], node: NodeId) -> Option<NodeId> {
        let at = table.entry(t, s, k.iter());
        let root = table.root_mut(at, 0);
        let seen = (!root.is_bottom()).then_some(*root);
        *root = node;
        seen
    }

    fn check(table: &HTable, model: &Model) {
        assert_eq!(table.len(), model.len());
        let mut listed: Model = HashMap::new();
        let mut key_end = 0;
        for (e, (t, s, k, n)) in table.entries.iter().zip(table.iter()) {
            assert_eq!(e.key_start as usize, key_end, "key store has a gap");
            key_end += k.len();
            assert!(
                listed
                    .insert((t, s, k.to_vec()), table.root(n, 0))
                    .is_none(),
                "duplicate"
            );
        }
        assert_eq!(key_end, table.keys.len(), "key store has a tail");
        assert!(table.more.is_empty(), "a one-column table keeps no more");
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
                        let seen = put(&mut table, t, s, &k, NodeId(n));
                        prop_assert_eq!(seen, model.insert((t, s, k), NodeId(n)));
                    }
                    Op::Probe(t, s, k) => {
                        let want = model.get(&(t, s, k.clone())).copied();
                        prop_assert_eq!(get(&table, t, s, &k), want);
                    }
                    Op::Retain(m) => {
                        table.retain(|_, _, _, mut n| {
                            let mut keep = true;
                            n.each(|_, n| keep &= n.0 % m != 0);
                            keep
                        });
                        model.retain(|_, n| n.0 % m != 0);
                    }
                    Op::Absorb(upserts) => {
                        let mut other = HTable::default();
                        for (t, s, k, n) in upserts {
                            put(&mut other, t, s, &k, NodeId(n));
                        }
                        let sum = |a: NodeId, b: NodeId| {
                            if a.is_bottom() { b } else { NodeId(a.0 + b.0) }
                        };
                        table.absorb(&other, sum);
                        for (t, s, k, n) in other.iter() {
                            let mine = model.entry((t, s, k.to_vec())).or_insert(BOTTOM);
                            *mine = sum(*mine, other.root(n, 0));
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
        assert_eq!(get(&table, 0, 0, &[]), None, "probing an empty table");
        for i in 0..5000i64 {
            let key = [Value::Int(i), Value::Int(i << 32)];
            put(&mut table, 7, (i % 3) as u32, &key, NodeId(i as u32));
        }
        assert_eq!(table.len(), 5000);
        for i in 0..5000i64 {
            let key = [Value::Int(i), Value::Int(i << 32)];
            assert_eq!(get(&table, 7, (i % 3) as u32, &key), Some(NodeId(i as u32)));
            assert_eq!(get(&table, 7, ((i + 1) % 3) as u32, &key), None);
        }
        // Retaining a tenth keeps the slots: the table was that large
        // once and may be again.
        let slots = table.slots.len();
        table.retain(|_, _, _, mut n| {
            let mut keep = true;
            n.each(|_, n| keep &= n.0 % 10 == 0);
            keep
        });
        assert_eq!((table.len(), table.slots.len()), (500, slots));
        assert_eq!(table.keys.len(), 1000);
        assert_eq!(
            get(&table, 7, 1, &[Value::Int(10), Value::Int(10 << 32)]),
            Some(NodeId(10))
        );
        assert_eq!(
            get(&table, 7, 2, &[Value::Int(11), Value::Int(11 << 32)]),
            None
        );
    }

    #[test]
    fn root_columns_move_with_their_entries() {
        // Three variants; entry k holds root 10k + v for the variants
        // in k's bit pattern and ⊥ for the rest.
        let mut table = HTable::default();
        table.set_width(3);
        for k in 0..8i64 {
            let at = table.entry(0, 0, [Value::Int(k)].iter());
            for v in 0..3 {
                if k >> v & 1 == 1 {
                    *table.root_mut(at, v) = NodeId((10 * k) as u32 + v as u32);
                }
            }
        }
        let roots = |table: &HTable, k: i64| {
            let at = table.find(0, 0, [Value::Int(k)].iter());
            at.map(|at| {
                (0..table.width())
                    .map(|v| table.root(at, v))
                    .collect::<Vec<_>>()
            })
        };
        // Dropping the odd keys keeps every even key's column intact.
        table.retain(|_, _, key, _| key[0] != Value::Int(1) && key[0] != Value::Int(3));
        assert_eq!(table.len(), 6);
        assert_eq!(roots(&table, 6), Some(vec![BOTTOM, NodeId(61), NodeId(62)]));
        assert_eq!(roots(&table, 3), None);
        // Dropping variant 1 keeps the others' roots and drops the keys
        // only variant 1 held (2) and the one no variant held (0).
        table.remove_column(1);
        assert_eq!(table.width(), 2);
        assert_eq!(table.len(), 4);
        assert_eq!(roots(&table, 2), None);
        assert_eq!(roots(&table, 0), None);
        assert_eq!(roots(&table, 6), Some(vec![BOTTOM, NodeId(62)]));
        assert_eq!(roots(&table, 7), Some(vec![NodeId(70), NodeId(72)]));
        assert_eq!(roots(&table, 5), Some(vec![NodeId(50), NodeId(52)]));
        assert_eq!(table.more.len(), table.len());
        // Dropping variant 0 moves variant 2's roots into the entries.
        table.remove_column(0);
        assert_eq!((table.width(), table.len()), (1, 4));
        assert_eq!(roots(&table, 6), Some(vec![NodeId(62)]));
        assert_eq!(roots(&table, 4), Some(vec![NodeId(42)]));
        assert!(table.more.is_empty());
    }
}
