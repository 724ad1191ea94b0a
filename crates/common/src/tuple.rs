//! Tuples `R(a0, …, a_{k-1})` over a schema.

use crate::schema::{RelationId, Schema};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An `R`-tuple of a schema: a relation id plus its data values.
///
/// Values are stored behind an `Arc<[Value]>` so that cloning a tuple while
/// it flows through automata, indexes and baselines is O(1) — the streaming
/// engine clones the current tuple into at most one place per transition.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    relation: RelationId,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from a relation id and values.
    ///
    /// This does not validate arity against a schema; use
    /// [`Tuple::checked`] when the schema is at hand.
    pub fn new(relation: RelationId, values: Vec<Value>) -> Self {
        Tuple {
            relation,
            values: values.into(),
        }
    }

    /// Build a tuple, validating its arity against the schema.
    pub fn checked(
        schema: &Schema,
        relation: RelationId,
        values: Vec<Value>,
    ) -> crate::Result<Self> {
        let expected = schema.arity(relation);
        if values.len() != expected {
            return Err(crate::CommonError::ArityMismatch {
                relation: schema.name(relation).to_string(),
                expected,
                got: values.len(),
            });
        }
        Ok(Self::new(relation, values))
    }

    /// The tuple's relation id.
    #[inline]
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The tuple's values `ā`.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// The tuple's arity `k`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The paper's size measure `|R(ā)| = Σ |ā[i]|`.
    pub fn size(&self) -> usize {
        self.values.iter().map(Value::size).sum()
    }

    /// Render the tuple with its relation name from the schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        DisplayTuple {
            tuple: self,
            schema,
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(", self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

struct DisplayTuple<'a> {
    tuple: &'a Tuple,
    schema: &'a Schema,
}

impl fmt::Display for DisplayTuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.schema.name(self.tuple.relation))?;
        for (i, v) in self.tuple.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience constructor: `tup(rel, [1, 2])`.
pub fn tup<V: Into<Value>>(relation: RelationId, values: impl IntoIterator<Item = V>) -> Tuple {
    Tuple::new(relation, values.into_iter().map(Into::into).collect())
}

// Not a `wire_struct!` row: decoding pre-sizes the value vector and
// builds the shared `Arc<[Value]>` through `Tuple::new`.
impl crate::wire::Wire for Tuple {
    fn encode(&self, w: &mut crate::wire::WireWriter) -> Result<(), crate::wire::WireError> {
        self.relation.encode(w)?;
        w.put_len(self.values.len());
        for v in self.values.iter() {
            v.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        let relation = RelationId::decode(r)?;
        let n = r.get_len()?;
        let mut values = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            values.push(Value::decode(r)?);
        }
        Ok(Tuple::new(relation, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma0() -> (Schema, RelationId, RelationId, RelationId) {
        Schema::sigma0()
    }

    #[test]
    fn construction_and_access() {
        let (_, r, _, _) = sigma0();
        let t = Tuple::new(r, vec![Value::Int(2), Value::Int(11)]);
        assert_eq!(t.relation(), r);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(1), &Value::Int(11));
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn checked_rejects_bad_arity() {
        let (s, r, _, _) = sigma0();
        let err = Tuple::checked(&s, r, vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, crate::CommonError::ArityMismatch { .. }));
        assert!(Tuple::checked(&s, r, vec![Value::Int(1), Value::Int(2)]).is_ok());
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let (_, r, _, _) = sigma0();
        let t = tup(r, [1i64, 2]);
        let u = t.clone();
        assert_eq!(t, u);
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn display_uses_schema_names() {
        let (s, _, _, t_rel) = sigma0();
        let t = tup(t_rel, [2i64]);
        assert_eq!(t.display(&s).to_string(), "T(2)");
    }

    #[test]
    fn equality_distinguishes_relations() {
        let (_, r, s_rel, _) = sigma0();
        let a = tup(r, [1i64, 2]);
        let b = tup(s_rel, [1i64, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn wire_roundtrip_and_truncation() {
        use crate::wire::{Wire, WireReader, WireWriter};
        let (_, r, _, _) = sigma0();
        let t = Tuple::new(r, vec![Value::Int(-3), Value::Str("x".into())]);
        let mut w = WireWriter::new();
        t.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut rd = WireReader::new(&bytes);
        assert_eq!(Tuple::decode(&mut rd).unwrap(), t);
        assert!(rd.is_exhausted());
        for cut in 0..bytes.len() {
            let mut rd = WireReader::new(&bytes[..cut]);
            assert!(Tuple::decode(&mut rd).is_err(), "cut {cut}");
        }
    }
}
