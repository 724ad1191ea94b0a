//! Wire bytes pinned across the commit that made a wire type one
//! declaration (ISSUE 21: the `wire_struct!` / `wire_enum!` tables).
//!
//! `golden/wire_frames.txt` was written by the **parent** of that commit
//! (`write_golden` below, run there): one `kind.name hex` line per
//! sample — every [`Request`] and [`Response`] variant as a frame
//! payload, and the record payload of every WAL operation as a durable
//! runtime logs it (read back out of the segment file, so the bytes are
//! pinned through the public API). This build must encode each sample to
//! the same bytes and decode the bytes back to the sample; for the WAL,
//! a segment assembled from the parent's payloads must recover into the
//! state the logged operations describe. `tests/hostile_bytes.rs` and
//! the in-crate WAL tests read the same file.

use pcea::common::crc::crc32;
use pcea::common::tuple::tup;
use pcea::common::wire::Wire;
use pcea::prelude::*;
use pcea::serve::protocol::{
    decode_message, encode_message, AutoscaleSummary, DurabilitySummary, Request, Response,
    StatsSummary, PROTOCOL_VERSION,
};
use pcea::serve::Frontend;
use std::fmt::Debug;
use std::path::{Path, PathBuf};

#[path = "golden/frames.rs"]
mod frames;
use frames::golden;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_frames.txt");

fn requests() -> Vec<(&'static str, Request)> {
    let rel = pcea::common::RelationId;
    vec![
        (
            "hello",
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
        ),
        (
            "declare_relation",
            Request::DeclareRelation {
                name: "TEMP".into(),
                arity: 2,
            },
        ),
        (
            "submit_query",
            Request::SubmitQuery {
                name: "watchdog".into(),
                frontend: Frontend::Pattern,
                text: "T(x) ; R(x, _)".into(),
                window: WindowPolicy::Time {
                    duration: 60,
                    ts_pos: 1,
                },
                partition: Some(Partition::ByKey { pos: 0 }),
                gc_every: 512,
            },
        ),
        (
            "submit_query_defaults",
            Request::SubmitQuery {
                name: "q0".into(),
                frontend: Frontend::Hcq,
                text: "Q0(x, y) <- T(x), S(x, y), R(x, y)".into(),
                window: WindowPolicy::Count(100),
                partition: None,
                gc_every: 0,
            },
        ),
        (
            "submit_query_pinned",
            Request::SubmitQuery {
                name: "pinned".into(),
                frontend: Frontend::Hcq,
                text: "Q(x) <- T(x)".into(),
                window: WindowPolicy::Count(8),
                partition: Some(Partition::ByQuery),
                gc_every: 4,
            },
        ),
        (
            "ingest_batch",
            Request::IngestBatch {
                tuples: vec![
                    tup(rel(0), [1i64, -2]),
                    Tuple::new(
                        rel(3),
                        vec![
                            Value::Str("AAPL".into()),
                            Value::Bool(true),
                            Value::fixed(10.5),
                            Value::Bool(false),
                        ],
                    ),
                    Tuple::new(rel(1), vec![]),
                ],
            },
        ),
        (
            "ingest_batch_empty",
            Request::IngestBatch { tuples: vec![] },
        ),
        (
            "subscribe_some",
            Request::Subscribe {
                query: Some(QueryId(3)),
                capacity: 128,
                policy: BackpressurePolicy::DropNewest,
            },
        ),
        (
            "subscribe_none",
            Request::Subscribe {
                query: None,
                capacity: 0,
                policy: BackpressurePolicy::Block,
            },
        ),
        ("unsubscribe", Request::Unsubscribe),
        ("deregister", Request::Deregister { id: QueryId(1) }),
        ("stats", Request::Stats),
        ("metrics_text", Request::MetricsText),
        ("snapshot", Request::Snapshot),
        ("drain", Request::Drain),
        ("ping", Request::Ping),
        ("shutdown", Request::Shutdown),
        ("rescale", Request::Rescale { shards: 4 }),
        ("set_autoscale_on", Request::SetAutoscale { enabled: true }),
        (
            "set_autoscale_off",
            Request::SetAutoscale { enabled: false },
        ),
        ("autoscale_status", Request::AutoscaleStatus),
        ("checkpoint", Request::Checkpoint),
        ("durability_status", Request::DurabilityStatus),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    // Two labels, three positions: label 0 marks 4 and 9, label 1 marks 7.
    let mut valuation = Valuation::empty(2);
    valuation.insert(LabelSet::singleton(Label(0)), 4);
    valuation.insert(LabelSet::singleton(Label(1)), 7);
    valuation.insert(LabelSet::singleton(Label(0)), 9);
    vec![
        (
            "hello",
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
        ),
        (
            "relation_declared",
            Response::RelationDeclared {
                id: pcea::common::RelationId(7),
            },
        ),
        ("query_accepted", Response::QueryAccepted { id: QueryId(2) }),
        (
            "ingested",
            Response::Ingested {
                start: 10,
                end: 20,
                dropped: 1,
            },
        ),
        ("subscribed", Response::Subscribed),
        ("unsubscribed", Response::Unsubscribed),
        ("deregistered", Response::Deregistered),
        (
            "stats",
            Response::Stats(StatsSummary {
                shards: 4,
                queries: 2,
                next_position: 99,
                dropped: 5,
                events_overwritten: 3,
            }),
        ),
        (
            "metrics_text",
            Response::MetricsText {
                text: "# HELP x y\nx 1\n".into(),
            },
        ),
        (
            "snapshot",
            Response::Snapshot {
                bytes: vec![0, 1, 2, 253, 254, 255],
            },
        ),
        ("drained", Response::Drained),
        ("pong", Response::Pong),
        ("shutting_down", Response::ShuttingDown),
        (
            "error",
            Response::Error {
                code: ErrorCode::UnknownQuery.as_u16(),
                message: "no such query".into(),
            },
        ),
        (
            "event",
            Response::Event(MatchEvent {
                position: 9,
                query: QueryId(5),
                valuation,
            }),
        ),
        (
            "event_empty",
            Response::Event(MatchEvent {
                position: 0,
                query: QueryId(0),
                valuation: Valuation::empty(1),
            }),
        ),
        (
            "rescaled",
            Response::Rescaled {
                from: 2,
                to: 4,
                nanos: 12_345,
            },
        ),
        (
            "autoscale_status",
            Response::AutoscaleStatus(AutoscaleSummary {
                enabled: true,
                shards: 4,
                rescales: 2,
                hot_streak: 1,
                cold_streak: 0,
                cooldown: 3,
            }),
        ),
        (
            "checkpoint_done_delta",
            Response::CheckpointDone {
                position: 1_000,
                epoch: 3,
                bytes: 4_096,
                full: false,
            },
        ),
        (
            "checkpoint_done_full",
            Response::CheckpointDone {
                position: 2_000,
                epoch: 8,
                bytes: 65_536,
                full: true,
            },
        ),
        (
            "durability",
            Response::Durability(DurabilitySummary {
                healthy: true,
                wal_segments: 2,
                wal_bytes: 1 << 20,
                wal_records: 512,
                last_checkpoint_epoch: Some(3),
                last_checkpoint_position: Some(1_000),
                chain_len: 2,
            }),
        ),
        (
            "durability_fresh",
            Response::Durability(DurabilitySummary::default()),
        ),
    ]
}

/// A scratch data directory, removed on drop unless the test panicked.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("cer-wire-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

const WAL_OPS: [&str; 4] = ["register", "batch", "replace", "deregister"];
const WAL_BATCH: usize = 3;

/// One logged operation of each kind, in the order of [`WAL_OPS`], run
/// against a durable runtime in `dir`; returns the record payloads as
/// they sit in the segment files.
fn logged_payloads(dir: &Path) -> Vec<Vec<u8>> {
    let mut schema = Schema::new();
    let query = parse_query(&mut schema, "Q(x, y) <- A(x), B(x, y)").unwrap();
    let pcea = compile_hcq(&schema, &query).unwrap().pcea;
    let [a, b] = ["A", "B"].map(|r| schema.relation(r).unwrap());
    let spec = |name: &str, window: u64| {
        QuerySpec::new(name, pcea.clone(), WindowPolicy::Count(window))
            .with_partition(Partition::ByKey { pos: 0 })
            .with_gc_every(7)
    };
    let mut rt = Runtime::open_durable(dir, RuntimeConfig::new(1)).expect("fresh data dir");
    let id = rt.register(spec("golden", 16)).unwrap();
    let batch = [
        tup(a, [1i64]),
        Tuple::new(b, vec![Value::Int(1), Value::Str("x".into())]),
        Tuple::new(b, vec![Value::Int(2), Value::fixed(0.5)]),
    ];
    assert_eq!(batch.len(), WAL_BATCH);
    rt.push_batch(&batch);
    rt.replace(id, spec("golden_v2", 32)).unwrap();
    rt.deregister(id).unwrap();
    rt.shutdown();

    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let mut payloads = Vec::new();
    for segment in segments {
        let bytes = std::fs::read(segment).unwrap();
        let mut at = 16; // magic + first wal_seq
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            payloads.push(bytes[at + 8..at + 8 + len].to_vec());
            at += 8 + len;
        }
    }
    payloads
}

/// A data directory holding one WAL segment of exactly `payloads`.
fn write_segment(dir: &Path, payloads: &[&[u8]]) {
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).unwrap();
    let mut bytes = b"CERWAL1\0".to_vec();
    bytes.extend_from_slice(&0u64.to_le_bytes());
    for payload in payloads {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    std::fs::write(wal.join(format!("wal-{:016x}.log", 0)), bytes).unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_pinned<T: Wire + PartialEq + Debug>(kind: &str, samples: Vec<(&'static str, T)>) {
    let golden = golden(kind);
    let in_fixture: Vec<&str> = golden.iter().map(|g| g.0).collect();
    let sampled: Vec<&str> = samples.iter().map(|s| s.0).collect();
    assert_eq!(in_fixture, sampled, "the fixture holds the {kind} samples");
    for ((name, want), (_, sample)) in golden.iter().zip(&samples) {
        let got = encode_message(sample).expect("samples encode");
        assert_eq!(hex(&got), hex(want), "{kind}.{name} encodes as before");
        assert_eq!(
            decode_message::<T>(want).as_ref(),
            Ok(sample),
            "{kind}.{name} decodes back"
        );
    }
}

#[test]
fn every_request_is_the_parents_bytes_both_ways() {
    assert_pinned("request", requests());
}

#[test]
fn every_response_is_the_parents_bytes_both_ways() {
    assert_pinned("response", responses());
}

#[test]
fn every_variant_has_a_sample() {
    // Tags are dense from 0: the highest sampled tag bounds the count.
    let tags = |payloads: Vec<(&str, Vec<u8>)>| {
        let tags: std::collections::BTreeSet<u8> = payloads.iter().map(|p| p.1[0]).collect();
        (tags.len(), *tags.last().unwrap() as usize + 1)
    };
    assert_eq!(tags(golden("request")), (18, 18));
    assert_eq!(tags(golden("response")), (19, 19));
    // A WAL payload is the wal_seq, then the tag.
    let wal = golden("wal");
    let wal_tags: Vec<u8> = wal.iter().map(|p| p.1[8]).collect();
    assert_eq!(
        wal_tags,
        [1, 0, 3, 2],
        "register, batch, replace, deregister"
    );
    assert!(
        decode_message::<Request>(&[18]).is_err(),
        "no request tag 18"
    );
    assert!(
        decode_message::<Response>(&[19]).is_err(),
        "no response tag 19"
    );
}

#[test]
fn logged_wal_records_are_the_parents_bytes() {
    let scratch = Scratch::new("encode");
    let logged = logged_payloads(&scratch.0);
    let golden = golden("wal");
    assert_eq!(golden.iter().map(|g| g.0).collect::<Vec<_>>(), WAL_OPS);
    assert_eq!(logged.len(), golden.len());
    for ((name, want), got) in golden.iter().zip(&logged) {
        assert_eq!(hex(got), hex(want), "wal.{name} is logged as before");
    }
}

#[test]
fn a_segment_of_the_parents_records_recovers() {
    let golden = golden("wal");
    let payloads: Vec<&[u8]> = golden.iter().map(|g| &g.1[..]).collect();
    // Up to the replace: the query is live under its new name.
    let scratch = Scratch::new("decode-live");
    write_segment(&scratch.0, &payloads[..3]);
    let rt = Runtime::recover(&scratch.0, RuntimeConfig::new(2)).expect("parent's records replay");
    assert_eq!(rt.next_position(), WAL_BATCH as u64);
    assert_eq!(rt.query_name(QueryId(0)), Some("golden_v2"));
    assert_eq!(rt.num_queries(), 1);
    rt.shutdown();
    // All four: the deregistration is replayed too.
    let scratch = Scratch::new("decode-all");
    write_segment(&scratch.0, &payloads);
    let rt = Runtime::recover(&scratch.0, RuntimeConfig::new(1)).expect("parent's records replay");
    assert_eq!(rt.next_position(), WAL_BATCH as u64);
    assert_eq!(rt.num_queries(), 0);
    let status = rt.durability_status().expect("recovered durably");
    assert!(status.healthy);
    rt.shutdown();
}

/// Regenerates the fixture: `cargo test --test wire_golden -- --ignored`.
/// Its provenance is this command run at the commit the module docs
/// name. Run later — after adding an op and its sample — the diff must
/// only add lines: a changed line is a changed wire format.
#[test]
#[ignore = "writes tests/golden/wire_frames.txt"]
fn write_golden() {
    let mut out = String::new();
    let mut line = |kind: &str, name: &str, bytes: &[u8]| {
        out.push_str(&format!("{kind}.{name} {}\n", hex(bytes)));
    };
    for (name, request) in requests() {
        line("request", name, &encode_message(&request).unwrap());
    }
    for (name, response) in responses() {
        line("response", name, &encode_message(&response).unwrap());
    }
    let scratch = Scratch::new("write");
    let logged = logged_payloads(&scratch.0);
    assert_eq!(logged.len(), WAL_OPS.len());
    for (name, payload) in WAL_OPS.iter().zip(&logged) {
        line("wal", name, payload);
    }
    std::fs::write(GOLDEN_PATH, out).expect("golden written");
}
