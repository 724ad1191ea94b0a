//! Predicate classes `Ulin` and `Beq` (Section 2 "Predicates").
//!
//! The paper parameterizes its automata by a class of *unary* predicates
//! (local filters on a single tuple) and a class of *binary* predicates
//! (join conditions between two tuples). The algorithmic results need:
//!
//! * `Ulin` — unary predicates decidable in time linear in `|t|`;
//! * `Beq` — *equality predicates*: binary predicates `B` given by two
//!   partial functions `⃗B` (applied to the earlier tuple) and `⃖B` (applied
//!   to the later tuple) such that `(t1, t2) ∈ B` iff both are defined and
//!   `⃗B(t1) = ⃖B(t2)`, each computable in linear time.
//!
//! We take the paper's *semantic* presentation literally: an
//! [`EqPredicate`] is a pair of [`KeyExtractor`]s. The extracted
//! [`Key`] is exactly what Algorithm 1 hashes on in its look-up table `H`,
//! so the representation *is* the index key of the streaming engine.

use cer_common::hash::FxHashMap;
use cer_common::{RelationId, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// A join key: the value vector produced by a [`KeyExtractor`].
///
/// Two tuples satisfy an equality predicate iff their extracted keys are
/// both defined and equal as value sequences.
pub type Key = Box<[Value]>;

cer_common::wire_struct! {
    /// A within-tuple consistency group: all `positions` must carry equal
    /// values, and when `constant` is set, that shared value must equal it.
    ///
    /// Groups implement the "repeated variable" and "constant argument" checks
    /// of atom patterns, and the per-side equivalence-class checks of the
    /// derived atoms `t_A` from Lemma B.3/B.4 (self-join compilation).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub struct PosGroup {
        /// Tuple positions that must all hold the same value (non-empty).
        pub positions: Box<[usize]>,
        /// Optional constant the shared value must equal.
        pub constant: Option<Value>,
    }
}

impl PosGroup {
    /// Whether the group's constraints hold on `t`.
    pub fn holds(&self, t: &Tuple) -> bool {
        let Some(&first) = self.positions.first() else {
            return true;
        };
        if first >= t.arity() {
            return false;
        }
        let v = t.get(first);
        if let Some(c) = &self.constant {
            if v != c {
                return false;
            }
        }
        self.positions[1..]
            .iter()
            .all(|&p| p < t.arity() && t.get(p) == v)
    }
}

cer_common::wire_struct! {
    /// The per-relation piece of a [`KeyExtractor`]: consistency checks plus
    /// the positions to project (in the extractor's canonical key order).
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct ExtractorEntry {
        /// Within-tuple equality/constant groups that must hold for the key to
        /// be defined.
        pub checks: Box<[PosGroup]>,
        /// Positions projected into the key, in canonical order.
        pub key: Box<[usize]>,
    }
}

/// A partial function `Tuples[σ] ⇀ Key` — one side (`⃗B` or `⃖B`) of an
/// equality predicate in `Beq`.
///
/// The function is defined on a tuple `t` iff `t`'s relation has an entry
/// and the entry's consistency checks hold; the key is then the projection
/// of the entry's positions. Both lookup and projection are linear in
/// `|t|`, as `Beq` requires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyExtractor {
    entries: FxHashMap<RelationId, ExtractorEntry>,
}

impl KeyExtractor {
    /// An extractor with no entries (defined nowhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// An extractor defined only on `relation`, projecting `positions`.
    pub fn projection(relation: RelationId, positions: impl Into<Box<[usize]>>) -> Self {
        let mut e = Self::new();
        e.insert(
            relation,
            ExtractorEntry {
                checks: Box::new([]),
                key: positions.into(),
            },
        );
        e
    }

    /// Add (or replace) the entry for one relation.
    pub fn insert(&mut self, relation: RelationId, entry: ExtractorEntry) {
        self.entries.insert(relation, entry);
    }

    /// Number of relations the extractor is defined on.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the extractor is defined nowhere.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The partial function without its result: `Some(positions)` when
    /// defined on `t` (relation known, consistency checks hold, every
    /// position within the tuple's arity), the key being `t`'s values at
    /// those positions in that order. Allocates nothing — the engine
    /// hashes and compares the key where it lies in the tuple.
    pub fn project(&self, t: &Tuple) -> Option<&[usize]> {
        let entry = self.entries.get(&t.relation())?;
        let defined =
            entry.checks.iter().all(|g| g.holds(t)) && entry.key.iter().all(|&p| p < t.arity());
        defined.then_some(&*entry.key)
    }

    /// Apply the partial function: `Some(key)` when defined on `t`.
    pub fn extract(&self, t: &Tuple) -> Option<Key> {
        let positions = self.project(t)?;
        Some(positions.iter().map(|&p| t.get(p).clone()).collect())
    }

    /// Bitmask of *key indices* (up to 64) at which **every** relation
    /// this side is defined on projects tuple position `pos`. Key
    /// equality is positional, so only a common index guarantees that
    /// equal keys carry equal values of the partition attribute; an
    /// extractor defined nowhere returns all-ones (its join can never
    /// be satisfied, hence is vacuously safe).
    pub fn projection_index_mask(&self, pos: usize) -> u64 {
        let mut mask = !0u64;
        for e in self.entries.values() {
            let mut m = 0u64;
            for (i, &p) in e.key.iter().take(64).enumerate() {
                if p == pos {
                    m |= 1 << i;
                }
            }
            mask &= m;
        }
        mask
    }
}

cer_common::wire_struct! {
    /// An equality predicate `B ∈ Beq`, as a pair of partial key functions.
    ///
    /// `(t1, t2) ∈ B` iff `⃗B(t1)` and `⃖B(t2)` are both defined and equal,
    /// where `t1` is the *earlier* tuple (stored run) and `t2` the *current*
    /// tuple. The empty-key predicate (both sides project nothing) is the
    /// always-true join, used for variable pairs with no shared attributes.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct EqPredicate {
        /// `⃗B`, applied to the earlier tuple.
        pub left: KeyExtractor,
        /// `⃖B`, applied to the current tuple.
        pub right: KeyExtractor,
    }
}

impl EqPredicate {
    /// Build from the two key functions.
    pub fn new(left: KeyExtractor, right: KeyExtractor) -> Self {
        EqPredicate { left, right }
    }

    /// The paper's example `(Tx, Sxy)`-style predicate: project `lpos` of
    /// `lrel` on the left and `rpos` of `rrel` on the right.
    pub fn on_positions(
        lrel: RelationId,
        lpos: impl Into<Box<[usize]>>,
        rrel: RelationId,
        rpos: impl Into<Box<[usize]>>,
    ) -> Self {
        EqPredicate {
            left: KeyExtractor::projection(lrel, lpos),
            right: KeyExtractor::projection(rrel, rpos),
        }
    }

    /// Whether satisfying this predicate implies both tuples carry equal
    /// values at tuple position `pos`: the partition attribute must be
    /// projected at a *common key index* by every entry of both sides
    /// (key comparison is positional, so merely containing `pos`
    /// somewhere in each key is not enough).
    pub fn preserves_partition(&self, pos: usize) -> bool {
        self.left.projection_index_mask(pos) & self.right.projection_index_mask(pos) != 0
    }

    /// Decide `(t1, t2) ∈ B`.
    pub fn satisfied(&self, earlier: &Tuple, current: &Tuple) -> bool {
        match (self.left.extract(earlier), self.right.extract(current)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

mod wire_impls {
    //! Checkpoint wire encodings for the predicate classes. Every
    //! closed predicate form round-trips; only
    //! [`UnaryPredicate::Custom`](super::UnaryPredicate::Custom)
    //! refuses to encode (a closure has no portable representation), so
    //! queries built from the HCQ compiler or the pattern language —
    //! which emit closed forms exclusively — always snapshot.

    use super::*;
    use cer_common::wire::{Wire, WireError, WireReader, WireWriter};

    // Not a `wire_struct!` row: the entries are sorted on the way out.
    impl Wire for KeyExtractor {
        fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
            // Hash-map iteration order is arbitrary; sort by relation id
            // so identical extractors encode to identical bytes.
            let mut entries: Vec<(&RelationId, &ExtractorEntry)> = self.entries.iter().collect();
            entries.sort_by_key(|(rel, _)| **rel);
            w.put_len(entries.len());
            for (rel, entry) in entries {
                rel.encode(w)?;
                entry.encode(w)?;
            }
            Ok(())
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            let n = r.get_len()?;
            let mut out = KeyExtractor::new();
            for _ in 0..n {
                let rel = RelationId::decode(r)?;
                out.insert(rel, ExtractorEntry::decode(r)?);
            }
            Ok(out)
        }
    }

    /// Nesting bound for `And` during decode: snapshot bytes come from
    /// disk or the network, and unbounded recursion would let a
    /// crafted ~1 MB blob of nested `And` tags overflow the stack
    /// (an abort, not a `WireError`). Real predicates are flat or a
    /// few levels deep — `UnaryPredicate::and` flattens as it builds.
    const MAX_UNARY_DEPTH: u32 = 64;

    fn decode_unary(r: &mut WireReader<'_>, depth: u32) -> Result<UnaryPredicate, WireError> {
        if depth > MAX_UNARY_DEPTH {
            return Err(WireError::Corrupt("unary predicate nested too deeply"));
        }
        Ok(match r.get_u8()? {
            0 => UnaryPredicate::True,
            1 => UnaryPredicate::Relation(Wire::decode(r)?),
            2 => UnaryPredicate::OneOf(Wire::decode(r)?),
            3 => UnaryPredicate::Atom(Wire::decode(r)?),
            4 => UnaryPredicate::Groups {
                relation: Wire::decode(r)?,
                arity: Wire::decode(r)?,
                groups: Wire::decode(r)?,
            },
            5 => UnaryPredicate::Cmp {
                pos: Wire::decode(r)?,
                op: Wire::decode(r)?,
                value: Wire::decode(r)?,
            },
            6 => {
                let n = r.get_len()?;
                let mut conjuncts = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    conjuncts.push(decode_unary(r, depth + 1)?);
                }
                UnaryPredicate::And(conjuncts.into())
            }
            _ => return Err(WireError::Corrupt("unary predicate tag")),
        })
    }

    // Not a `wire_enum!` table: decoding bounds the `And` recursion
    // (`decode_unary`) and `Custom` has no encoding at all.
    impl Wire for UnaryPredicate {
        fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
            match self {
                UnaryPredicate::True => w.put_u8(0),
                UnaryPredicate::Relation(rel) => {
                    w.put_u8(1);
                    rel.encode(w)?;
                }
                UnaryPredicate::OneOf(rels) => {
                    w.put_u8(2);
                    rels.encode(w)?;
                }
                UnaryPredicate::Atom(p) => {
                    w.put_u8(3);
                    p.encode(w)?;
                }
                UnaryPredicate::Groups {
                    relation,
                    arity,
                    groups,
                } => {
                    w.put_u8(4);
                    relation.encode(w)?;
                    arity.encode(w)?;
                    groups.encode(w)?;
                }
                UnaryPredicate::Cmp { pos, op, value } => {
                    w.put_u8(5);
                    pos.encode(w)?;
                    op.encode(w)?;
                    value.encode(w)?;
                }
                UnaryPredicate::And(ps) => {
                    w.put_u8(6);
                    ps.encode(w)?;
                }
                UnaryPredicate::Custom(_) => {
                    return Err(WireError::Unsupported(
                        "UnaryPredicate::Custom (closure predicates have no portable encoding)",
                    ));
                }
            }
            Ok(())
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            decode_unary(r, 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use cer_common::wire::Wire;

        #[test]
        fn deeply_nested_and_bytes_error_instead_of_overflowing() {
            // ~100k levels of `And([..])`, 9 bytes each: tag 6 + len 1.
            let mut w = WireWriter::new();
            let levels = 100_000u32;
            for _ in 0..levels {
                w.put_u8(6);
                w.put_len(1);
            }
            w.put_u8(0); // innermost: True
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(
                UnaryPredicate::decode(&mut r).unwrap_err(),
                WireError::Corrupt("unary predicate nested too deeply")
            );
            // A realistically nested conjunction still round-trips
            // (UnaryPredicate has no PartialEq — closures — so compare
            // the Debug rendering).
            let nested = UnaryPredicate::And(Box::new([
                UnaryPredicate::True,
                UnaryPredicate::And(Box::new([UnaryPredicate::True, UnaryPredicate::True])),
            ]));
            let mut w = WireWriter::new();
            nested.encode(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = UnaryPredicate::decode(&mut r).unwrap();
            assert_eq!(format!("{back:?}"), format!("{nested:?}"));
        }
    }
}

cer_common::wire_enum! {
    /// A term of an atom pattern: a variable (identified by an arbitrary
    /// per-pattern index) or a constant.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum PatTerm {
        /// Variable occurrence; equal indices must carry equal values.
        0 => Var(u32),
        /// Constant that the tuple must match exactly.
        1 => Const(Value),
    }
}

cer_common::wire_struct! {
    /// A relational atom pattern `R(x, y, 2, x)`: the unary predicate
    /// `U_{R(x̄)} = {R(ā) | ∃h. h(R(x̄)) = R(ā)}` of the Theorem 4.1
    /// construction.
    ///
    /// A tuple matches iff it has the pattern's relation, positions sharing a
    /// variable hold equal values, and constant positions hold the constants —
    /// exactly "`t` is homomorphic to the atom", checked in linear time.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub struct AtomPattern {
        /// The relation the pattern constrains.
        pub relation: RelationId,
        /// One term per attribute position.
        pub terms: Box<[PatTerm]>,
    }
}

impl AtomPattern {
    /// Build a pattern with all-distinct variables (relation test only).
    pub fn any_vars(relation: RelationId, arity: usize) -> Self {
        AtomPattern {
            relation,
            terms: (0..arity as u32).map(PatTerm::Var).collect(),
        }
    }

    /// Whether `t` is homomorphic to the pattern.
    pub fn matches(&self, t: &Tuple) -> bool {
        if t.relation() != self.relation || t.arity() != self.terms.len() {
            return false;
        }
        // First occurrence position of each variable index.
        for (i, term) in self.terms.iter().enumerate() {
            match term {
                PatTerm::Const(c) => {
                    if t.get(i) != c {
                        return false;
                    }
                }
                PatTerm::Var(v) => {
                    // Compare against the first position holding the same var.
                    let first = self
                        .terms
                        .iter()
                        .position(|u| matches!(u, PatTerm::Var(w) if w == v))
                        .expect("variable occurs at least at position i");
                    if first < i && t.get(first) != t.get(i) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

cer_common::wire_enum! {
    /// Comparison operators for the [`UnaryPredicate::Cmp`] filter.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum CmpOp {
        /// `<`
        0 => Lt,
        /// `<=`
        1 => Le,
        /// `==`
        2 => Eq,
        /// `!=`
        3 => Ne,
        /// `>=`
        4 => Ge,
        /// `>`
        5 => Gt,
    }
}

impl CmpOp {
    /// Evaluate the comparison on two values (total order on `Value`).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ge => a >= b,
            CmpOp::Gt => a > b,
        }
    }
}

/// A unary predicate `U ∈ Ulin`: decidable in time linear in `|t|`.
///
/// The closed variants cover everything the paper's constructions need
/// (relation tests, atom homomorphism tests, constant filters); `Custom`
/// opens the class to arbitrary user filters, as `Ulin` itself is open.
#[derive(Clone)]
pub enum UnaryPredicate {
    /// Every tuple (`Tuples[σ]` itself).
    True,
    /// Tuples of one relation, e.g. the paper's `T`, `S`, `R`.
    Relation(RelationId),
    /// Tuples of any of the listed relations (the paper's `?xy`).
    OneOf(Box<[RelationId]>),
    /// Homomorphism test against an atom pattern (`U_{R(x̄)}`).
    Atom(AtomPattern),
    /// Within-tuple consistency groups (the derived-atom test `U_A` of
    /// Lemma B.3), restricted to one relation.
    Groups {
        /// Relation the tuple must have.
        relation: RelationId,
        /// Required arity.
        arity: usize,
        /// Equality/constant classes that must hold.
        groups: Box<[PosGroup]>,
    },
    /// Compare the value at a position against a constant.
    Cmp {
        /// Position compared.
        pos: usize,
        /// Operator.
        op: CmpOp,
        /// Right-hand constant.
        value: Value,
    },
    /// Conjunction of predicates.
    And(Box<[UnaryPredicate]>),
    /// An arbitrary user filter (must run in linear time to stay in
    /// `Ulin`; not enforced).
    Custom(Arc<dyn Fn(&Tuple) -> bool + Send + Sync>),
}

impl UnaryPredicate {
    /// Decide `t ∈ U`.
    pub fn matches(&self, t: &Tuple) -> bool {
        match self {
            UnaryPredicate::True => true,
            UnaryPredicate::Relation(r) => t.relation() == *r,
            UnaryPredicate::OneOf(rs) => rs.contains(&t.relation()),
            UnaryPredicate::Atom(p) => p.matches(t),
            UnaryPredicate::Groups {
                relation,
                arity,
                groups,
            } => {
                t.relation() == *relation
                    && t.arity() == *arity
                    && groups.iter().all(|g| g.holds(t))
            }
            UnaryPredicate::Cmp { pos, op, value } => {
                *pos < t.arity() && op.eval(t.get(*pos), value)
            }
            UnaryPredicate::And(ps) => ps.iter().all(|p| p.matches(t)),
            UnaryPredicate::Custom(f) => f(t),
        }
    }

    /// The relations whose tuples can possibly satisfy the predicate:
    /// `None` when the predicate is not confined to known relations
    /// (`True`, `Cmp`, `Custom`). Used by the multi-query runtime to
    /// route stream tuples only to interested queries.
    pub fn relations(&self) -> Option<Vec<RelationId>> {
        match self {
            UnaryPredicate::True | UnaryPredicate::Cmp { .. } | UnaryPredicate::Custom(_) => None,
            UnaryPredicate::Relation(r) => Some(vec![*r]),
            UnaryPredicate::OneOf(rs) => Some(rs.to_vec()),
            UnaryPredicate::Atom(p) => Some(vec![p.relation]),
            UnaryPredicate::Groups { relation, .. } => Some(vec![*relation]),
            UnaryPredicate::And(ps) => {
                // A conjunction is confined to the intersection of its
                // confined conjuncts (any one suffices as a sound
                // over-approximation; intersect for precision).
                let mut acc: Option<Vec<RelationId>> = None;
                for p in ps.iter() {
                    if let Some(rs) = p.relations() {
                        acc = Some(match acc {
                            None => rs,
                            Some(prev) => prev.into_iter().filter(|r| rs.contains(r)).collect(),
                        });
                    }
                }
                acc
            }
        }
    }

    /// Whether tuples of `r` can never satisfy the predicate. Sound but
    /// incomplete: `false` means "maybe matches". Unconfined forms
    /// (`True`, `Cmp`, `Custom`) never reject.
    pub fn rejects_relation(&self, r: RelationId) -> bool {
        match self {
            UnaryPredicate::True | UnaryPredicate::Cmp { .. } | UnaryPredicate::Custom(_) => false,
            UnaryPredicate::Relation(x) => *x != r,
            UnaryPredicate::OneOf(rs) => !rs.contains(&r),
            UnaryPredicate::Atom(p) => p.relation != r,
            UnaryPredicate::Groups { relation, .. } => *relation != r,
            UnaryPredicate::And(ps) => ps.iter().any(|p| p.rejects_relation(r)),
        }
    }

    /// The structural canonical key of this predicate: two predicates
    /// with equal keys are semantically identical (for `Custom`, only
    /// the *same closure allocation* — `Arc` identity — keys equal).
    /// This is what the runtime's per-shard predicate cache dedups on.
    pub fn canonical_key(&self) -> PredicateKey {
        PredicateKey(self.clone())
    }
}

/// Structural identity wrapper for [`UnaryPredicate`], usable as a hash
/// map key. Closed forms compare structurally; [`UnaryPredicate::Custom`]
/// compares by `Arc` pointer identity (the same closure allocation), the
/// only sound notion of equality for opaque closures.
#[derive(Clone, Debug)]
pub struct PredicateKey(pub UnaryPredicate);

impl PartialEq for PredicateKey {
    fn eq(&self, other: &Self) -> bool {
        fn eq(a: &UnaryPredicate, b: &UnaryPredicate) -> bool {
            use UnaryPredicate as U;
            match (a, b) {
                (U::True, U::True) => true,
                (U::Relation(x), U::Relation(y)) => x == y,
                (U::OneOf(x), U::OneOf(y)) => x == y,
                (U::Atom(x), U::Atom(y)) => x == y,
                (
                    U::Groups {
                        relation: r1,
                        arity: a1,
                        groups: g1,
                    },
                    U::Groups {
                        relation: r2,
                        arity: a2,
                        groups: g2,
                    },
                ) => r1 == r2 && a1 == a2 && g1 == g2,
                (
                    U::Cmp {
                        pos: p1,
                        op: o1,
                        value: v1,
                    },
                    U::Cmp {
                        pos: p2,
                        op: o2,
                        value: v2,
                    },
                ) => p1 == p2 && o1 == o2 && v1 == v2,
                (U::And(xs), U::And(ys)) => {
                    xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| eq(x, y))
                }
                // Compare thin data pointers: `Arc::ptr_eq` on wide
                // `dyn Fn` pointers also compares vtables, which is both
                // stricter than needed and lint-prone.
                (U::Custom(f), U::Custom(g)) => {
                    std::ptr::eq(Arc::as_ptr(f) as *const (), Arc::as_ptr(g) as *const ())
                }
                _ => false,
            }
        }
        eq(&self.0, &other.0)
    }
}

impl Eq for PredicateKey {}

impl std::hash::Hash for PredicateKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        fn hash<H: std::hash::Hasher>(p: &UnaryPredicate, state: &mut H) {
            use UnaryPredicate as U;
            match p {
                U::True => 0u8.hash(state),
                U::Relation(r) => {
                    1u8.hash(state);
                    r.hash(state);
                }
                U::OneOf(rs) => {
                    2u8.hash(state);
                    rs.hash(state);
                }
                U::Atom(a) => {
                    3u8.hash(state);
                    a.hash(state);
                }
                U::Groups {
                    relation,
                    arity,
                    groups,
                } => {
                    4u8.hash(state);
                    relation.hash(state);
                    arity.hash(state);
                    groups.hash(state);
                }
                U::Cmp { pos, op, value } => {
                    5u8.hash(state);
                    pos.hash(state);
                    op.hash(state);
                    value.hash(state);
                }
                U::And(ps) => {
                    6u8.hash(state);
                    ps.len().hash(state);
                    for q in ps.iter() {
                        hash(q, state);
                    }
                }
                U::Custom(f) => {
                    7u8.hash(state);
                    (Arc::as_ptr(f) as *const () as usize).hash(state);
                }
            }
        }
        hash(&self.0, state);
    }
}

impl UnaryPredicate {
    /// Conjunction helper that flattens nested `And`s.
    pub fn and(self, other: UnaryPredicate) -> UnaryPredicate {
        match (self, other) {
            (UnaryPredicate::True, p) | (p, UnaryPredicate::True) => p,
            (UnaryPredicate::And(a), UnaryPredicate::And(b)) => {
                UnaryPredicate::And(a.iter().cloned().chain(b.iter().cloned()).collect())
            }
            (UnaryPredicate::And(a), p) => {
                UnaryPredicate::And(a.iter().cloned().chain([p]).collect())
            }
            (p, UnaryPredicate::And(b)) => {
                UnaryPredicate::And([p].into_iter().chain(b.iter().cloned()).collect())
            }
            (p, q) => UnaryPredicate::And(Box::new([p, q])),
        }
    }
}

impl fmt::Debug for UnaryPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnaryPredicate::True => write!(f, "⊤"),
            UnaryPredicate::Relation(r) => write!(f, "{r:?}"),
            UnaryPredicate::OneOf(rs) => write!(f, "one-of{rs:?}"),
            UnaryPredicate::Atom(p) => write!(f, "atom({:?}, {:?})", p.relation, p.terms),
            UnaryPredicate::Groups {
                relation, groups, ..
            } => write!(f, "groups({relation:?}, {groups:?})"),
            UnaryPredicate::Cmp { pos, op, value } => write!(f, "t[{pos}] {op:?} {value:?}"),
            UnaryPredicate::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p:?}")?;
                }
                write!(f, ")")
            }
            UnaryPredicate::Custom(_) => write!(f, "custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::tuple::tup;
    use cer_common::Schema;

    #[test]
    fn relation_predicate_filters() {
        let (_, r, s, t) = Schema::sigma0();
        let u = UnaryPredicate::Relation(t);
        assert!(u.matches(&tup(t, [2i64])));
        assert!(!u.matches(&tup(s, [2i64, 11])));
        let any = UnaryPredicate::OneOf(Box::new([r, s]));
        assert!(any.matches(&tup(r, [1i64, 2])));
        assert!(any.matches(&tup(s, [1i64, 2])));
        assert!(!any.matches(&tup(t, [1i64])));
    }

    #[test]
    fn atom_pattern_repeated_vars_and_constants() {
        let (_, r, _, _) = Schema::sigma0();
        // Pattern R(x, x): both positions equal.
        let p = AtomPattern {
            relation: r,
            terms: Box::new([PatTerm::Var(0), PatTerm::Var(0)]),
        };
        assert!(p.matches(&tup(r, [5i64, 5])));
        assert!(!p.matches(&tup(r, [5i64, 6])));
        // Pattern R(2, y): constant in first position.
        let q = AtomPattern {
            relation: r,
            terms: Box::new([PatTerm::Const(Value::Int(2)), PatTerm::Var(0)]),
        };
        assert!(q.matches(&tup(r, [2i64, 9])));
        assert!(!q.matches(&tup(r, [3i64, 9])));
    }

    #[test]
    fn atom_pattern_rejects_wrong_relation_or_arity() {
        let (_, r, s, _) = Schema::sigma0();
        let p = AtomPattern::any_vars(r, 2);
        assert!(p.matches(&tup(r, [1i64, 2])));
        assert!(!p.matches(&tup(s, [1i64, 2])));
        let short = AtomPattern::any_vars(r, 1);
        assert!(!short.matches(&tup(r, [1i64, 2])));
    }

    #[test]
    fn eq_predicate_paper_example_tx_sxy() {
        // (Tx, Sxy): ⃗B(T(a)) = a, ⃖B(S(a,b)) = a.
        let (_, _, s, t) = Schema::sigma0();
        let b = EqPredicate::on_positions(t, [0usize], s, [0usize]);
        assert!(b.satisfied(&tup(t, [2i64]), &tup(s, [2i64, 11])));
        assert!(!b.satisfied(&tup(t, [1i64]), &tup(s, [2i64, 11])));
        // Undefined on the wrong relations.
        assert!(!b.satisfied(&tup(s, [2i64, 11]), &tup(t, [2i64])));
    }

    #[test]
    fn eq_predicate_multi_position_key() {
        let (_, r, s, _) = Schema::sigma0();
        let b = EqPredicate::on_positions(s, [0usize, 1], r, [0usize, 1]);
        assert!(b.satisfied(&tup(s, [2i64, 11]), &tup(r, [2i64, 11])));
        assert!(!b.satisfied(&tup(s, [2i64, 11]), &tup(r, [2i64, 12])));
    }

    #[test]
    fn empty_key_predicate_is_always_true_on_domain() {
        let (_, r, s, _) = Schema::sigma0();
        let b = EqPredicate::new(
            KeyExtractor::projection(s, Vec::new()),
            KeyExtractor::projection(r, Vec::new()),
        );
        assert!(b.satisfied(&tup(s, [1i64, 2]), &tup(r, [9i64, 9])));
        // Still partial: undefined outside the entry relations.
        assert!(!b.satisfied(&tup(r, [1i64, 2]), &tup(r, [9i64, 9])));
    }

    #[test]
    fn extractor_checks_gate_definedness() {
        let (_, r, _, _) = Schema::sigma0();
        let mut ex = KeyExtractor::new();
        ex.insert(
            r,
            ExtractorEntry {
                checks: Box::new([PosGroup {
                    positions: Box::new([0, 1]),
                    constant: None,
                }]),
                key: Box::new([0]),
            },
        );
        assert_eq!(
            ex.extract(&tup(r, [4i64, 4])),
            Some(Box::from([Value::Int(4)]))
        );
        assert_eq!(ex.extract(&tup(r, [4i64, 5])), None);
        // The non-allocating form gates on the same checks.
        assert_eq!(ex.project(&tup(r, [4i64, 4])), Some(&[0usize][..]));
        assert_eq!(ex.project(&tup(r, [4i64, 5])), None);
    }

    #[test]
    fn pos_group_constant() {
        let (_, r, _, _) = Schema::sigma0();
        let g = PosGroup {
            positions: Box::new([1]),
            constant: Some(Value::Int(7)),
        };
        assert!(g.holds(&tup(r, [0i64, 7])));
        assert!(!g.holds(&tup(r, [7i64, 0])));
    }

    #[test]
    fn cmp_predicate() {
        let (_, r, _, _) = Schema::sigma0();
        let u = UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Gt,
            value: Value::Int(10),
        };
        assert!(u.matches(&tup(r, [0i64, 11])));
        assert!(!u.matches(&tup(r, [0i64, 10])));
    }

    #[test]
    fn and_flattens_and_custom_runs() {
        let (_, r, _, _) = Schema::sigma0();
        let u = UnaryPredicate::Relation(r)
            .and(UnaryPredicate::Cmp {
                pos: 0,
                op: CmpOp::Ge,
                value: Value::Int(0),
            })
            .and(UnaryPredicate::Custom(Arc::new(|t: &Tuple| t.arity() == 2)));
        assert!(u.matches(&tup(r, [1i64, 2])));
        if let UnaryPredicate::And(ps) = &u {
            assert_eq!(ps.len(), 3, "nested ands flattened");
        } else {
            panic!("expected And");
        }
    }

    #[test]
    fn true_is_identity_for_and() {
        let (_, r, _, _) = Schema::sigma0();
        let u = UnaryPredicate::True.and(UnaryPredicate::Relation(r));
        assert!(matches!(u, UnaryPredicate::Relation(_)));
    }

    #[test]
    fn groups_predicate_checks_relation_arity_groups() {
        let (_, r, s, _) = Schema::sigma0();
        let u = UnaryPredicate::Groups {
            relation: r,
            arity: 2,
            groups: Box::new([PosGroup {
                positions: Box::new([0, 1]),
                constant: None,
            }]),
        };
        assert!(u.matches(&tup(r, [3i64, 3])));
        assert!(!u.matches(&tup(r, [3i64, 4])));
        assert!(!u.matches(&tup(s, [3i64, 3])));
    }

    #[test]
    fn canonical_keys_dedup_structural_forms() {
        use std::collections::HashSet;
        let (_, r, s, t) = Schema::sigma0();
        let cmp = |v: i64| UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Ge,
            value: Value::Int(v),
        };
        // Structurally identical predicates built independently key equal.
        let a = UnaryPredicate::Relation(s).and(cmp(5));
        let b = UnaryPredicate::Relation(s).and(cmp(5));
        assert_eq!(a.canonical_key(), b.canonical_key());
        let mut set = HashSet::new();
        for p in [
            UnaryPredicate::True,
            UnaryPredicate::Relation(r),
            UnaryPredicate::Relation(r), // duplicate
            UnaryPredicate::Relation(t),
            a,
            b, // duplicate
            cmp(5),
            cmp(6),
            UnaryPredicate::OneOf(Box::new([r, s])),
            UnaryPredicate::Atom(AtomPattern::any_vars(r, 2)),
        ] {
            set.insert(p.canonical_key());
        }
        assert_eq!(set.len(), 8, "two structural duplicates collapse");
    }

    #[test]
    fn custom_predicates_key_by_arc_identity() {
        let f: Arc<dyn Fn(&Tuple) -> bool + Send + Sync> = Arc::new(|_| true);
        let g: Arc<dyn Fn(&Tuple) -> bool + Send + Sync> = Arc::new(|_| true);
        let p1 = UnaryPredicate::Custom(f.clone());
        let p2 = UnaryPredicate::Custom(f);
        let p3 = UnaryPredicate::Custom(g);
        assert_eq!(p1.canonical_key(), p2.canonical_key());
        assert_ne!(p1.canonical_key(), p3.canonical_key());
    }

    #[test]
    fn rejects_relation_is_sound() {
        let (_, r, s, t) = Schema::sigma0();
        assert!(!UnaryPredicate::True.rejects_relation(r));
        assert!(UnaryPredicate::Relation(s).rejects_relation(r));
        assert!(!UnaryPredicate::Relation(s).rejects_relation(s));
        assert!(UnaryPredicate::OneOf(Box::new([r, s])).rejects_relation(t));
        assert!(!UnaryPredicate::OneOf(Box::new([r, s])).rejects_relation(s));
        let conj = UnaryPredicate::Relation(s).and(UnaryPredicate::Cmp {
            pos: 0,
            op: CmpOp::Ge,
            value: Value::Int(0),
        });
        assert!(conj.rejects_relation(r));
        assert!(!conj.rejects_relation(s));
        let custom = UnaryPredicate::Custom(Arc::new(|_| false));
        assert!(!custom.rejects_relation(r), "opaque closures never reject");
    }

    #[test]
    fn out_of_range_positions_are_undefined_not_panics() {
        let (_, _, _, t) = Schema::sigma0();
        let ex = KeyExtractor::projection(t, [3usize]);
        assert_eq!(ex.extract(&tup(t, [1i64])), None);
        assert_eq!(ex.project(&tup(t, [1i64])), None);
        let u = UnaryPredicate::Cmp {
            pos: 5,
            op: CmpOp::Eq,
            value: Value::Int(0),
        };
        assert!(!u.matches(&tup(t, [1i64])));
    }
}
