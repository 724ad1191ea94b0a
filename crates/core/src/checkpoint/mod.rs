//! Checkpoint/restore: epoch-consistent snapshots of a live
//! [`Runtime`](crate::runtime::Runtime) and query hot-swap by state
//! handoff.
//!
//! A production runtime accumulates hours of window state; losing it on
//! restart replays nothing (the stream is gone) and forgets every
//! partial match. This module gives the runtime three capabilities:
//!
//! * [`Runtime::snapshot`](crate::runtime::Runtime::snapshot) — capture
//!   every registered query's live evaluator state at one consistent
//!   stream position, **without stopping producers**;
//! * [`Runtime::restore`](crate::runtime::Runtime::restore) — rebuild a
//!   runtime from a snapshot, possibly with a *different* shard count
//!   or layout, and resume ingestion at the captured position;
//! * [`Runtime::replace`](crate::runtime::Runtime::replace) — hand one
//!   query's accumulated state to a recompiled query atomically in the
//!   stream order (hot-swap).
//!
//! # The epoch block, and why the snapshot is consistent
//!
//! The striped ingest sequencer ([`crate::ingest`]) assigns every
//! producer batch a contiguous *position block*, and each shard's
//! reorder stage releases blocks to its worker in block order — which
//! is position order. Control traffic (barriers, registration) rides
//! the same order as zero-width blocks.
//!
//! `snapshot()` is one [control fence](crate::ingest#the-control-fence)
//! (the ordering argument is stated there once, for every structural
//! operation): it reserves one zero-width **epoch block** at position
//! `P = next_pos` and stages a capture job into every shard's reorder
//! buffer under that block id before completing it. Consistency is
//! then inherited from the sequencer's ordering invariants:
//!
//! 1. Every block reserved *before* the epoch block holds positions
//!    `< P`, and the reorder watermark cannot pass a
//!    reserved-but-unstaged block — so each shard worker processes
//!    every tuple stamped `< P` *before* it sees the fence.
//! 2. Every block reserved *after* holds positions `≥ P` and is
//!    released *behind* the fence — so no such tuple is evaluated
//!    before the shard serializes.
//! 3. Each worker serializes its queries the moment it dequeues the
//!    fence (copy-on-fence). Workers hit the fence at different wall
//!    times, but all at the same stream position `P`; shards serialize
//!    concurrently with each other and with producers, which keep
//!    reserving and staging blocks `≥ P` throughout — there is no
//!    stop-the-world, only per-shard stalls bounded by that shard's
//!    serialization time (reported in the snapshot counters of
//!    [`RuntimeStats`](crate::runtime::RuntimeStats)).
//!
//! Hence the snapshot equals the state of a runtime that ingested
//! exactly positions `0..P` and nothing else — the definition of an
//! epoch-consistent cut. Restoring it and replaying the suffix `P..`
//! therefore produces outputs multiset-identical to a run that never
//! stopped (checked differentially, with live producers, in
//! `tests/checkpoint_restore.rs`).
//!
//! # Restoring into a different shard count
//!
//! Per-query state is captured per shard replica. At restore time the
//! replicas of each query are **merged** into one evaluator — arenas
//! concatenate with remapped node ids, `H` tables union (sound key
//! partitioning makes replica key sets disjoint: the join key projects
//! the partition attribute, which determines the shard), window clocks
//! interleave by position — and each home shard of the new layout
//! receives a copy *pruned to the key slice it owns there*
//! (`StreamingEvaluator::retain_key_shard`): every `H` entry's owner is
//! recomputed from its stored join key with the router's hash, entries
//! that hash elsewhere are dropped, and the arena is compacted around
//! the survivors. The dropped state is exactly what the tuple router
//! never sends that shard, so outputs are unaffected — each future
//! tuple is evaluated by exactly one replica, against exactly the runs
//! the pre-snapshot stream accumulated. The pruning is not just a
//! memory optimization: it is what keeps replicas **disjoint**, so the
//! *next* merge — another restore, a live rescale
//! ([`Runtime::rescale`](crate::runtime::Runtime::rescale)) — cannot
//! double-count runs that two homes both held.
//!
//! Time-window streams that violate the non-decreasing-timestamp
//! contract are already shard-count-dependent (see the hazard note in
//! [`crate::window`]); restore inherits that caveat and nothing more.
//!
//! # What a snapshot contains
//!
//! A versioned header, the epoch position, and per query: its
//! definition (name, automaton, window policy, partition, GC cadence —
//! everything [`QuerySpec`] holds, so definitions compiled from the HCQ
//! or pattern-language front-ends round-trip) plus one state blob per
//! hosting shard. Retired query ids are recorded so restored ids line
//! up with pre-snapshot [`QueryId`](crate::runtime::QueryId)s.
//! Relation ids are recorded raw: a snapshot must be restored against
//! the same [`Schema`](cer_common::Schema) registration order that
//! produced it. Queries using `UnaryPredicate::Custom` closures cannot
//! be serialized and fail the snapshot up front
//! ([`WireError::Unsupported`]).
//!
//! # Example
//!
//! ```
//! use cer_core::runtime::{QuerySpec, Runtime};
//! use cer_core::window::WindowPolicy;
//! use cer_automata::pcea::paper_p0;
//! use cer_common::gen::sigma0_prefix;
//! use cer_common::Schema;
//!
//! let (_, r, s, t) = Schema::sigma0();
//! let stream = sigma0_prefix(r, s, t);
//! let mut rt = Runtime::new(2);
//! let q = rt
//!     .register(QuerySpec::new("p0", paper_p0(r, s, t), WindowPolicy::Count(100)))
//!     .unwrap();
//! rt.push_batch(&stream[..4]); // partial matches accumulate
//!
//! // Capture, serialize, restore into a different shard count.
//! let snap = rt.snapshot().unwrap();
//! let bytes = snap.to_bytes().unwrap();
//! let reloaded = cer_core::checkpoint::Snapshot::from_bytes(&bytes).unwrap();
//! let mut rt2 = Runtime::restore(&reloaded, 4).unwrap();
//! assert_eq!(rt2.next_position(), 4);
//!
//! // The suffix completes the matches the prefix started.
//! let events = rt2.push_batch(&stream[4..]);
//! assert_eq!(events.iter().filter(|e| e.query == q).count(), 2);
//! ```

use crate::error::Error;
use crate::runtime::QuerySpec;
use cer_common::wire::{Wire, WireError, WireReader, WireWriter};
use std::fmt;

/// Magic bytes opening every serialized snapshot.
const MAGIC: &[u8; 8] = b"CERSNAP\0";
/// Current snapshot format version.
const VERSION: u32 = 1;

/// One registered query inside a [`Snapshot`]: its id, its definition
/// (absent for retired ids, which are recorded only to keep id
/// numbering aligned) and one opaque state blob per hosting shard.
#[derive(Clone)]
pub(crate) struct QueryRecord {
    pub id: u32,
    pub name: String,
    pub spec: Option<QuerySpec>,
    pub blobs: Vec<Vec<u8>>,
}

/// An epoch-consistent capture of a running
/// [`Runtime`](crate::runtime::Runtime): every registered query's
/// definition and live evaluator state as of one stream position. See
/// the [module docs](self) for the consistency argument and the
/// restore semantics.
#[derive(Clone)]
pub struct Snapshot {
    /// The epoch position `P`: state reflects exactly positions `0..P`.
    pub(crate) position: u64,
    /// Shard count of the captured runtime (informational; restore may
    /// pick any shard count).
    pub(crate) origin_shards: usize,
    /// The WAL sequence high-water at the epoch cut: every logged
    /// operation with `wal_seq` below it is reflected in this state,
    /// everything at or above is not (see [`crate::durability`]).
    /// Carried in memory for the durability layer's manifest; not part
    /// of the V1 byte format, so [`from_bytes`](Self::from_bytes)
    /// yields 0.
    pub(crate) wal_seq: u64,
    /// Per-query records in id order, retired ids included.
    pub(crate) queries: Vec<QueryRecord>,
}

impl Snapshot {
    /// The epoch position: every tuple stamped below it is reflected in
    /// the captured state, every tuple at or above it is not.
    /// [`Runtime::restore`](crate::runtime::Runtime::restore) resumes
    /// stamping here.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Shard count of the runtime that produced the snapshot.
    pub fn origin_shards(&self) -> usize {
        self.origin_shards
    }

    /// Number of live (non-retired) query definitions captured.
    pub fn num_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.spec.is_some()).count()
    }

    /// The captured definitions, `(id, spec)` in id order — this is the
    /// round-trip surface for front-end-compiled queries.
    pub fn query_specs(&self) -> impl Iterator<Item = (crate::runtime::QueryId, &QuerySpec)> {
        self.queries
            .iter()
            .filter_map(|q| Some((crate::runtime::QueryId(q.id), q.spec.as_ref()?)))
    }

    /// Serialize to a self-contained byte vector (magic + version +
    /// body). Fails only when a query definition cannot be encoded
    /// (closure predicates).
    pub fn to_bytes(&self) -> Result<Vec<u8>, Error> {
        let mut w = WireWriter::new();
        for &b in MAGIC {
            w.put_u8(b);
        }
        w.put_u32(VERSION);
        w.put_u64(self.position);
        w.put_len(self.origin_shards);
        w.put_len(self.queries.len());
        for q in &self.queries {
            w.put_u32(q.id);
            w.put_str(&q.name);
            q.spec.encode(&mut w)?;
            w.put_len(q.blobs.len());
            for blob in &q.blobs {
                w.put_bytes(blob);
            }
        }
        Ok(w.into_bytes())
    }

    /// Deserialize a snapshot written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        let mut r = WireReader::new(bytes);
        for &expect in MAGIC {
            if r.get_u8()? != expect {
                return Err(Error::NotASnapshot);
            }
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(Error::UnknownVersion(version));
        }
        let position = r.get_u64()?;
        let origin_shards = usize::decode(&mut r)?;
        let n = r.get_len()?;
        let mut queries = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.get_u32()?;
            let name = r.get_str()?;
            let spec = Option::<QuerySpec>::decode(&mut r)?;
            let n_blobs = r.get_len()?;
            let mut blobs = Vec::with_capacity(n_blobs.min(1 << 10));
            for _ in 0..n_blobs {
                blobs.push(r.get_bytes()?.to_vec());
            }
            queries.push(QueryRecord {
                id,
                name,
                spec,
                blobs,
            });
        }
        if !r.is_exhausted() {
            return Err(Error::Wire(WireError::Corrupt(
                "trailing bytes after snapshot",
            )));
        }
        Ok(Snapshot {
            position,
            origin_shards,
            wal_seq: 0,
            queries,
        })
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("position", &self.position)
            .field("origin_shards", &self.origin_shards)
            .field("queries", &self.num_queries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Partition;
    use crate::window::WindowPolicy;
    use cer_automata::pcea::paper_p0;
    use cer_common::Schema;

    #[test]
    fn snapshot_bytes_roundtrip_and_reject_garbage() {
        let (_, r, s, t) = Schema::sigma0();
        let spec = QuerySpec::new("p0", paper_p0(r, s, t), WindowPolicy::Count(7))
            .with_partition(Partition::ByKey { pos: 0 })
            .with_gc_every(3);
        let snap = Snapshot {
            position: 42,
            origin_shards: 3,
            wal_seq: 0,
            queries: vec![
                QueryRecord {
                    id: 0,
                    name: "retired".into(),
                    spec: None,
                    blobs: Vec::new(),
                },
                QueryRecord {
                    id: 1,
                    name: "p0".into(),
                    spec: Some(spec),
                    blobs: vec![vec![1, 2, 3], vec![]],
                },
            ],
        };
        let bytes = snap.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.position(), 42);
        assert_eq!(back.origin_shards(), 3);
        assert_eq!(back.num_queries(), 1);
        let (id, spec) = back.query_specs().next().unwrap();
        assert_eq!(id, crate::runtime::QueryId(1));
        assert_eq!(spec.name, "p0");
        assert_eq!(spec.window, WindowPolicy::Count(7));
        assert_eq!(spec.partition, Partition::ByKey { pos: 0 });
        assert_eq!(spec.gc_every, 3);
        assert_eq!(back.queries[1].blobs, snap.queries[1].blobs);

        assert_eq!(
            Snapshot::from_bytes(b"not a snapshot..").unwrap_err(),
            Error::NotASnapshot
        );
        // Wrong version.
        let mut versioned = bytes.clone();
        versioned[8] = 99;
        assert_eq!(
            Snapshot::from_bytes(&versioned).unwrap_err(),
            Error::UnknownVersion(99)
        );
        // Truncations never panic.
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn custom_predicates_fail_to_encode() {
        use cer_automata::pcea::PceaBuilder;
        use cer_automata::predicate::UnaryPredicate;
        use cer_automata::valuation::{Label, LabelSet};
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        b.add_initial_transition(
            UnaryPredicate::Custom(std::sync::Arc::new(|_t: &cer_common::Tuple| true)),
            LabelSet::singleton(Label(0)),
            q,
        );
        b.mark_final(q);
        let snap = Snapshot {
            position: 0,
            origin_shards: 1,
            wal_seq: 0,
            queries: vec![QueryRecord {
                id: 0,
                name: "custom".into(),
                spec: Some(QuerySpec::new("custom", b.build(), WindowPolicy::Count(1))),
                blobs: vec![Vec::new()],
            }],
        };
        assert!(matches!(
            snap.to_bytes(),
            Err(Error::Wire(WireError::Unsupported(_)))
        ));
    }
}
