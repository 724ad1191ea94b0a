//! Cross-query shared evaluation: the per-shard predicate cache.
//!
//! Serving thousands of standing queries means most unary predicates are
//! referenced by *many* transitions across *many* queries — often the
//! very same structural predicate (relation tests above all). The naive
//! prefilter re-evaluates `tr.unary.matches(t)` once per referencing
//! transition per tuple, so per-batch cost scales linearly with query
//! count even when the distinct-predicate population is tiny.
//!
//! [`PredicateCache`] breaks that: each shard worker interns every
//! registered transition's unary predicate under its structural
//! [`PredicateKey`] and, once per drained batch, evaluates each
//! *distinct* predicate at most once per tuple into a slot-major shared
//! bitmask pool. Queries fan their per-transition masks out of the pool
//! by bit-gather (`crate::fire::FireStage::prefilter_shared`) — no
//! predicate re-evaluation, no tuple dereference.
//!
//! Evaluation of a slot is **lazy** (only slots some routed group
//! actually references this batch are computed) and **relation-confined**:
//! a per-batch relation index maps each relation to the tuple indices
//! carrying it, so a predicate confined to known relations
//! ([`UnaryPredicate::relations`]) only inspects candidate tuples; exact
//! relation tests and `True` fill their masks without calling
//! `matches()` at all.
//!
//! The outputs are bit-identical to the private prefilter: the pool bit
//! for `(slot, tuple)` is exactly `pred.matches(tuple)` (unary
//! predicates are pure), and the fan-out reads the same bits the
//! private path would have computed.
//!
//! Interning is also how the shard worker shares whole evaluators
//! (`runtime::worker`'s module docs): queries of one skeleton group with
//! equal join predicates, registered before their *family* saw a tuple,
//! share one evaluator, and two of them whose transitions intern to the
//! same slot table have equal unary predicates and are one *variant* of
//! it. A family gathers its masks variant by variant only for the
//! transitions whose slot differs between variants, and its matches fan
//! out per query id. Every member keeps its own slot references, so
//! `referenced_predicates` still counts one reference per transition
//! per hosted query.

use cer_automata::predicate::{PredicateKey, UnaryPredicate};
use cer_common::hash::FxHashMap;
use cer_common::{RelationId, Tuple};

/// One live interned predicate.
struct Slot {
    pred: UnaryPredicate,
    /// Confining relations ([`UnaryPredicate::relations`]), computed at
    /// intern time.
    rels: Option<Vec<RelationId>>,
    /// How many registered transitions reference this slot.
    refs: u32,
    /// Whether the slot's pool words are valid for the current batch.
    computed: bool,
}

/// Per-shard predicate dedup cache. See the module docs.
#[derive(Default)]
pub(crate) struct PredicateCache {
    /// Structural key → slot index, for live slots.
    interned: FxHashMap<PredicateKey, u32>,
    /// Slot table; `None` marks a freed slot awaiting reuse.
    slots: Vec<Option<Slot>>,
    /// Freed slot indices.
    free: Vec<u32>,
    /// Slot-major bitmask pool: slot `s` owns words
    /// `s * stride .. (s + 1) * stride`; bit `j % 64` of word `j / 64`
    /// within that window is set iff the predicate accepts tuple `j` of
    /// the current batch.
    pool: Vec<u64>,
    /// Words per slot for the current batch.
    stride: usize,
    /// Tuples in the current batch.
    batch_len: usize,
    /// Relation → indices of batch tuples carrying it, rebuilt per
    /// batch (vectors are reused across batches).
    rel_index: FxHashMap<RelationId, Vec<u32>>,
    /// Cumulative `(slot, batch)` computations performed.
    distinct_computes: u64,
    /// Cumulative [`ensure`](Self::ensure) calls (one per referencing
    /// transition per batch).
    referenced: u64,
    /// Cumulative `matches()` calls actually performed.
    evals_done: u64,
    /// Cumulative `matches()` calls avoided versus the private
    /// prefilter (which pays one per tuple per referencing transition).
    evals_saved: u64,
}

impl PredicateCache {
    /// Intern a predicate under its structural key, returning its slot.
    /// Reference-counted: structurally identical predicates share one
    /// slot no matter how many transitions/queries reference them.
    pub fn intern(&mut self, pred: &UnaryPredicate) -> u32 {
        let key = pred.canonical_key();
        if let Some(&s) = self.interned.get(&key) {
            self.slots[s as usize]
                .as_mut()
                .expect("interned key points at a live slot")
                .refs += 1;
            return s;
        }
        let slot = Slot {
            pred: pred.clone(),
            rels: pred.relations(),
            refs: 1,
            computed: false,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(slot);
                s
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.interned.insert(key, s);
        s
    }

    /// Drop one reference to a slot (query deregistered/replaced); the
    /// slot is freed for reuse when the last reference goes.
    pub fn release(&mut self, s: u32) {
        let entry = self.slots[s as usize]
            .as_mut()
            .expect("released slot is live");
        entry.refs -= 1;
        if entry.refs == 0 {
            let key = entry.pred.canonical_key();
            self.interned.remove(&key);
            self.slots[s as usize] = None;
            self.free.push(s);
        }
    }

    /// Start a new drained batch: invalidate every slot's pool words and
    /// rebuild the per-relation tuple index. `O(slots + batch)`.
    pub fn begin_batch(&mut self, tuples: &[(u64, Tuple)]) {
        self.batch_len = tuples.len();
        self.stride = tuples.len().div_ceil(64).max(1);
        // Stale words from a previous batch layout are harmless: a slot
        // is read only after `ensure` recomputed it (computed = false).
        self.pool.resize(self.slots.len() * self.stride, 0);
        for entry in self.slots.iter_mut().flatten() {
            entry.computed = false;
        }
        for v in self.rel_index.values_mut() {
            v.clear();
        }
        for (j, (_, t)) in tuples.iter().enumerate() {
            self.rel_index
                .entry(t.relation())
                .or_default()
                .push(j as u32);
        }
    }

    /// The slot's bitmask over the current batch, computing it on first
    /// reference. `tuples` must be the batch passed to
    /// [`begin_batch`](Self::begin_batch).
    pub fn ensure(&mut self, s: u32, tuples: &[(u64, Tuple)]) -> &[u64] {
        debug_assert_eq!(tuples.len(), self.batch_len);
        self.referenced += 1;
        let stride = self.stride;
        let range = s as usize * stride..(s as usize + 1) * stride;
        let entry = self.slots[s as usize]
            .as_mut()
            .expect("ensured slot is live");
        if entry.computed {
            self.evals_saved += self.batch_len as u64;
            return &self.pool[range];
        }
        entry.computed = true;
        self.distinct_computes += 1;
        let words = &mut self.pool[range.clone()];
        words.fill(0);
        // `matches()` calls this computation actually pays; the private
        // prefilter would have paid `batch_len` per referencing
        // transition.
        let mut paid = 0u64;
        match &entry.pred {
            UnaryPredicate::True if self.batch_len > 0 => {
                words.fill(!0);
                let tail = self.batch_len % 64;
                if tail != 0 {
                    words[stride - 1] &= (1u64 << tail) - 1;
                }
            }
            UnaryPredicate::True => {}
            // An exact relation test is the per-batch relation index.
            UnaryPredicate::Relation(r) => {
                if let Some(idx) = self.rel_index.get(r) {
                    for &j in idx {
                        words[j as usize / 64] |= 1 << (j % 64);
                    }
                }
            }
            pred => match &entry.rels {
                // Confined: only candidate tuples of the confining
                // relations can match.
                Some(rs) => {
                    for r in rs {
                        if let Some(idx) = self.rel_index.get(r) {
                            for &j in idx {
                                paid += 1;
                                if pred.matches(&tuples[j as usize].1) {
                                    words[j as usize / 64] |= 1 << (j % 64);
                                }
                            }
                        }
                    }
                }
                // Unconfined (`Cmp`, `Custom`): every tuple is a
                // candidate.
                None => {
                    for (j, (_, t)) in tuples.iter().enumerate() {
                        paid += 1;
                        if pred.matches(t) {
                            words[j / 64] |= 1 << (j % 64);
                        }
                    }
                }
            },
        }
        self.evals_done += paid;
        self.evals_saved += self.batch_len as u64 - paid;
        &self.pool[range]
    }

    /// Live distinct predicates (slots currently interned).
    pub fn distinct_predicates(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Total references held by registered transitions.
    pub fn referenced_predicates(&self) -> usize {
        self.slots.iter().flatten().map(|e| e.refs as usize).sum()
    }

    /// Cumulative `matches()` calls performed.
    pub fn evals_done(&self) -> u64 {
        self.evals_done
    }

    /// Cumulative `matches()` calls avoided versus the private
    /// prefilter.
    pub fn evals_saved(&self) -> u64 {
        self.evals_saved
    }

    /// Cumulative `(slot, batch)` computations.
    #[cfg(test)]
    pub fn distinct_computes(&self) -> u64 {
        self.distinct_computes
    }

    /// Cumulative `ensure` calls.
    #[cfg(test)]
    pub fn references(&self) -> u64 {
        self.referenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::predicate::CmpOp;
    use cer_common::tuple::tup;
    use cer_common::{Schema, Value};

    /// Bits set in a slot mask, as tuple indices.
    fn ones(mask: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    out.push((w * 64 + b) as u32);
                }
            }
        }
        out
    }

    #[test]
    fn hit_counters_match_hand_counted_dedup() {
        let (_, r, s, t) = Schema::sigma0();
        // Batch: 3×T, 3×S, 2×R = 8 tuples.
        let batch: Vec<(u64, Tuple)> = vec![
            (0, tup(t, [1i64])),
            (1, tup(s, [1i64, 10])),
            (2, tup(t, [2i64])),
            (3, tup(s, [2i64, 20])),
            (4, tup(r, [1i64, 10])),
            (5, tup(t, [3i64])),
            (6, tup(s, [3i64, 5])),
            (7, tup(r, [2i64, 20])),
        ];
        let mut cache = PredicateCache::default();
        let rel_t = cache.intern(&UnaryPredicate::Relation(t));
        let rel_t2 = cache.intern(&UnaryPredicate::Relation(t));
        assert_eq!(rel_t, rel_t2, "structural duplicates share a slot");
        let s_ge = cache.intern(&UnaryPredicate::Relation(s).and(UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Ge,
            value: Value::Int(10),
        }));
        let any = cache.intern(&UnaryPredicate::Cmp {
            pos: 0,
            op: CmpOp::Ge,
            value: Value::Int(2),
        });
        assert_eq!(cache.distinct_predicates(), 3);
        assert_eq!(cache.referenced_predicates(), 4);

        cache.begin_batch(&batch);
        // Exact relation test: filled from the relation index, zero
        // matches() calls, 8 saved vs the private prefilter.
        assert_eq!(ones(cache.ensure(rel_t, &batch)), vec![0, 2, 5]);
        assert_eq!((cache.evals_done(), cache.evals_saved()), (0, 8));
        // Second reference to the same slot: pure cache hit.
        assert_eq!(ones(cache.ensure(rel_t, &batch)), vec![0, 2, 5]);
        assert_eq!((cache.evals_done(), cache.evals_saved()), (0, 16));
        // Confined conjunction: only the 3 S tuples are candidates.
        assert_eq!(ones(cache.ensure(s_ge, &batch)), vec![1, 3]);
        assert_eq!((cache.evals_done(), cache.evals_saved()), (3, 21));
        // Unconfined Cmp: all 8 tuples inspected, nothing saved.
        assert_eq!(ones(cache.ensure(any, &batch)), vec![2, 3, 5, 6, 7]);
        assert_eq!((cache.evals_done(), cache.evals_saved()), (11, 21));
        assert_eq!(cache.distinct_computes(), 3);
        assert_eq!(cache.references(), 4);

        // Next batch invalidates: the same slot recomputes once.
        cache.begin_batch(&batch[..2]);
        assert_eq!(ones(cache.ensure(rel_t, &batch[..2])), vec![0]);
        assert_eq!(ones(cache.ensure(rel_t, &batch[..2])), vec![0]);
        assert_eq!(cache.distinct_computes(), 4);
    }

    #[test]
    fn release_frees_and_reuses_slots() {
        let (_, r, s, _) = Schema::sigma0();
        let mut cache = PredicateCache::default();
        let a = cache.intern(&UnaryPredicate::Relation(r));
        let b = cache.intern(&UnaryPredicate::Relation(r));
        assert_eq!(a, b);
        let c = cache.intern(&UnaryPredicate::Relation(s));
        assert_ne!(a, c);
        assert_eq!(cache.distinct_predicates(), 2);
        cache.release(a);
        assert_eq!(cache.distinct_predicates(), 2, "one reference remains");
        cache.release(b);
        assert_eq!(cache.distinct_predicates(), 1);
        // The freed slot is reused; a fresh intern of the same structure
        // is a new, independent entry.
        let d = cache.intern(&UnaryPredicate::Relation(r));
        assert_eq!(d, a, "freed slot reused");
        assert_eq!(cache.distinct_predicates(), 2);
    }

    #[test]
    fn true_predicate_fills_without_tuple_access() {
        let (_, _, _, t) = Schema::sigma0();
        let batch: Vec<(u64, Tuple)> = (0..70).map(|i| (i, tup(t, [i as i64]))).collect();
        let mut cache = PredicateCache::default();
        let slot = cache.intern(&UnaryPredicate::True);
        cache.begin_batch(&batch);
        let mask = cache.ensure(slot, &batch);
        assert_eq!(mask.len(), 2, "70 tuples span two words");
        assert_eq!(ones(mask).len(), 70, "every tuple accepted");
        assert_eq!(mask[1] >> (70 - 64), 0, "tail bits cleared");
        assert_eq!(cache.evals_done(), 0);
        assert_eq!(cache.evals_saved(), 70);
    }
}
