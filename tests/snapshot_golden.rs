//! Snapshot format compatibility across the commit that moved `prod`
//! lists and `H` keys into pools (ISSUE 16).
//!
//! `golden/snapshot_v1_star3.bin` was written by the **parent** of that
//! commit (`write_golden` below, run there) from the fixed stream this
//! file generates: a 2-shard runtime holding the star-3 query once
//! key-partitioned and once pinned, cut after `CUT` tuples. This build
//! must decode it, restore it into 1 and 3 shards, and continue with
//! exactly the matches an uninterrupted run produces. Byte identity with
//! the parent is *not* required — arena numbering after a collection
//! follows the order the collector visits its roots, which is the
//! table's order — but the encoding of a node and of an entry is
//! unchanged, so this build's own snapshot of the same prefix has the
//! same length.

use pcea::engine::checkpoint::Snapshot;
use pcea::prelude::*;

const GOLDEN: &[u8] = include_bytes!("golden/snapshot_v1_star3.bin");
const WINDOW: u64 = 256;
const CUT: usize = 700;
const ORIGIN_SHARDS: usize = 2;

/// The star-3 automaton and 1500 tuples over 29 join keys.
fn star3() -> (Pcea, Vec<Tuple>) {
    let mut schema = Schema::new();
    let text = "Q(x, y1, y2, y3) <- A0(x), A1(x, y1), A2(x, y2), A3(x, y3)";
    let query = parse_query(&mut schema, text).expect("well-formed query");
    let pcea = compile_hcq(&schema, &query)
        .expect("a star is hierarchical")
        .pcea;
    let rels = ["A0", "A1", "A2", "A3"].map(|r| schema.relation(r).expect("declared by the query"));
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let stream = (0..1500)
        .map(|_| {
            let rel = next(4) as usize;
            let x = Value::Int(next(29) as i64);
            if rel == 0 {
                Tuple::new(rels[0], vec![x])
            } else {
                Tuple::new(rels[rel], vec![x, Value::Int(next(1000) as i64)])
            }
        })
        .collect();
    (pcea, stream)
}

fn runtime(pcea: &Pcea, shards: usize) -> Runtime {
    let mut rt = Runtime::new(shards);
    for (name, partition) in [
        ("star_keyed", Partition::ByKey { pos: 0 }),
        ("star_pinned", Partition::ByQuery),
    ] {
        rt.register(
            QuerySpec::new(name, pcea.clone(), WindowPolicy::Count(WINDOW))
                .with_partition(partition),
        )
        .expect("registers");
    }
    rt
}

fn sorted(mut events: Vec<MatchEvent>) -> Vec<MatchEvent> {
    events.sort();
    events
}

#[test]
fn parent_snapshot_restores_and_continues_exactly() {
    let (pcea, stream) = star3();
    let want: Vec<MatchEvent> = sorted(runtime(&pcea, 1).push_batch(&stream))
        .into_iter()
        .filter(|e| e.position >= CUT as u64)
        .collect();
    assert!(
        want.len() > 4 * (stream.len() - CUT),
        "{} matches after the cut: not the fan-out shape",
        want.len()
    );
    let snap = Snapshot::from_bytes(GOLDEN).expect("the parent's bytes decode");
    assert_eq!(snap.position(), CUT as u64);
    assert_eq!(snap.origin_shards(), ORIGIN_SHARDS);
    for shards in [1usize, 3] {
        let mut rt = Runtime::restore(&snap, shards).expect("restore");
        assert_eq!(rt.next_position(), CUT as u64);
        let got = sorted(rt.push_batch(&stream[CUT..]));
        assert_eq!(got, want, "restored into {shards} shard(s)");
    }
}

#[test]
fn own_snapshot_of_the_same_prefix_has_the_parents_length() {
    let (pcea, stream) = star3();
    let mut rt = runtime(&pcea, ORIGIN_SHARDS);
    rt.push_batch(&stream[..CUT]);
    let bytes = rt
        .snapshot()
        .expect("snapshot")
        .to_bytes()
        .expect("to_bytes");
    assert_eq!(bytes.len(), GOLDEN.len());
}

/// Regenerates the fixture. Only meaningful at the commit the module
/// docs name; kept so the fixture's provenance is a command, not a
/// sentence: `cargo test --test snapshot_golden -- --ignored`.
#[test]
#[ignore = "writes tests/golden/snapshot_v1_star3.bin"]
fn write_golden() {
    let (pcea, stream) = star3();
    let mut rt = runtime(&pcea, ORIGIN_SHARDS);
    rt.push_batch(&stream[..CUT]);
    let bytes = rt
        .snapshot()
        .expect("snapshot")
        .to_bytes()
        .expect("to_bytes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot_v1_star3.bin"
    );
    std::fs::write(path, bytes).expect("golden written");
}
