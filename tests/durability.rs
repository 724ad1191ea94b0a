//! Crash-recovery semantics of the durability subsystem
//! (`cer_core::durability`): position-stamped WAL, incremental disk
//! checkpoints, `Runtime::recover`.
//!
//! The core property is differential: run durably, crash (drop the
//! runtime and cut the on-disk WAL at an arbitrary byte offset — torn
//! tails included), recover, and push the rest of the stream. The
//! recovered run's continuation must be multiset-identical to an
//! uninterrupted runtime's events at positions ≥ the recovered
//! position. A cut is a *prefix* of the logged operation sequence, so
//! even a cut landing inside the query-registration records is a valid
//! crash: recovery then yields a runtime knowing only a prefix of the
//! queries, and the oracle is built from that same prefix.
//!
//! A *clean* stop is the other half: `Runtime::shutdown` writes a
//! shutdown checkpoint when the stream moved past the last one, so the
//! next `open_durable` restores it and replays nothing — unless the WAL
//! failed, or the checkpoint itself did, and then the WAL stays the
//! recovery point.

use pcea::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call; removed by `Scratch::drop` on
/// success, left behind for inspection when the test panics first.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cer-durability-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Deterministic dense stream over all relations of `schema` (same
/// shape as `checkpoint_restore.rs`).
fn mixed_stream(schema: &Schema, n: usize) -> Vec<Tuple> {
    let rels: Vec<_> = schema.relations().collect();
    (0..n)
        .map(|i| {
            let rel = rels[(i * 7 + 3) % rels.len()];
            let arity = schema.arity(rel);
            let values = (0..arity)
                .map(|k| Value::Int(((i * 13 + k * 5 + 1) % 3) as i64))
                .collect();
            Tuple::new(rel, values)
        })
        .collect()
}

fn sorted(mut events: Vec<MatchEvent>) -> Vec<MatchEvent> {
    events.sort();
    events
}

/// Front-end-compiled spec set: HCQ compiler and pattern language, both
/// partition modes — the surface every WAL record kind must carry.
fn spec_set(schema: &mut Schema) -> Vec<(String, Pcea, Partition)> {
    let q0 = parse_query(schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let q0_pcea = compile_hcq(schema, &q0).unwrap().pcea;
    let star = parse_query(schema, "QS(x, y1, y2) <- A0(x), A1(x, y1), A2(x, y2)").unwrap();
    let star_pcea = compile_hcq(schema, &star).unwrap().pcea;
    let pat = pattern_to_pcea(schema, "A(x) ; B(x)").unwrap().pcea;
    vec![
        ("q0_pinned".into(), q0_pcea.clone(), Partition::ByQuery),
        ("q0_keyed".into(), q0_pcea, Partition::ByKey { pos: 0 }),
        ("star_pinned".into(), star_pcea, Partition::ByQuery),
        ("pat_keyed".into(), pat, Partition::ByKey { pos: 0 }),
    ]
}

fn register_all(
    rt: &mut Runtime,
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
) -> Vec<QueryId> {
    specs
        .iter()
        .map(|(name, pcea, partition)| {
            rt.register(
                QuerySpec::new(name.clone(), pcea.clone(), window.clone())
                    .with_partition(*partition),
            )
            .unwrap()
        })
        .collect()
}

/// Uninterrupted reference: one in-memory runtime sees the whole stream.
fn uninterrupted(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    shards: usize,
) -> Vec<MatchEvent> {
    let mut rt = Runtime::new(shards);
    register_all(&mut rt, specs, window);
    sorted(rt.push_batch(stream))
}

/// Small segments force frequent rolls; a short full-checkpoint period
/// exercises the delta chain.
fn durable_config(shards: usize, fsync: FsyncPolicy) -> RuntimeConfig {
    RuntimeConfig::new(shards).with_durability(DurabilityConfig {
        fsync,
        segment_bytes: 2 << 10,
        full_checkpoint_every: 2,
    })
}

/// WAL segment files of `dir/wal` in sequence order (the hex-encoded
/// first_seq file name makes lexical order sequence order).
fn wal_files(data_dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(data_dir.join("wal"))
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    files.sort();
    files
}

fn wal_bytes_total(data_dir: &Path) -> u64 {
    wal_files(data_dir)
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment metadata").len())
        .sum()
}

/// Simulate the crash's disk state: keep only the first `keep` bytes of
/// the WAL's global (sequence-ordered) byte stream — truncate the
/// straddling segment, delete everything after it. Any `keep` is a
/// physically reachable crash state because segments are written
/// strictly in order.
fn cut_wal(data_dir: &Path, mut keep: u64) {
    let mut truncated = false;
    for path in wal_files(data_dir) {
        if truncated {
            std::fs::remove_file(&path).expect("remove lost segment");
            continue;
        }
        let len = std::fs::metadata(&path).expect("segment metadata").len();
        if keep >= len {
            keep -= len;
        } else {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("open segment for truncation");
            file.set_len(keep).expect("truncate segment");
            truncated = true;
        }
    }
}

/// The differential core: durable run (optionally checkpointing at
/// `checkpoint_at`), crash, cut the WAL to `keep` of `total` bytes
/// (per-mille), recover, continue. Returns the recovered position.
#[allow(clippy::too_many_arguments)]
fn crash_and_check(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    checkpoint_at: Option<usize>,
    shards: usize,
    fsync: FsyncPolicy,
    keep_per_mille: u64,
    ctx: &str,
) -> u64 {
    let scratch = Scratch::new("diff");
    let config = durable_config(shards, fsync);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open_durable fresh");
    register_all(&mut rt, specs, window);
    let mut fed = 0usize;
    if let Some(at) = checkpoint_at {
        for batch in stream[..at].chunks(17) {
            rt.push_batch(batch);
        }
        fed = at;
        let stats = rt.checkpoint().expect("checkpoint");
        assert_eq!(stats.position, at as u64, "{ctx}: checkpoint at the cut");
    }
    for batch in stream[fed..].chunks(17) {
        rt.push_batch(batch);
    }
    drop(rt); // the crash: nothing graceful survives but the disk

    let total = wal_bytes_total(scratch.path());
    let keep = total * keep_per_mille / 1000;
    cut_wal(scratch.path(), keep);

    let mut rt2 = Runtime::recover(scratch.path(), config).expect("recover");
    let r = rt2.next_position();
    assert!(r as usize <= stream.len(), "{ctx}: position within stream");
    if let Some(at) = checkpoint_at {
        assert!(
            r >= at as u64,
            "{ctx}: checkpointed prefix can never be lost (R={r} < {at})"
        );
    }
    // The cut is an operation-sequence prefix: registrations happen
    // first, so the recovered runtime knows the first `known` specs.
    let known = rt2.num_queries();
    assert!(known <= specs.len(), "{ctx}");
    if r > 0 || checkpoint_at.is_some() {
        assert_eq!(known, specs.len(), "{ctx}: batches imply all registers");
    }
    let want_all = uninterrupted(&specs[..known], window, stream, shards);
    let want: Vec<MatchEvent> = want_all
        .iter()
        .filter(|e| e.position >= r)
        .cloned()
        .collect();
    let got = sorted(rt2.push_batch(&stream[r as usize..]));
    assert_eq!(got, want, "{ctx}: continuation diverged (R={r})");
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// The acceptance property: arbitrary WAL cut point (torn tails
    /// included), shard count, window, fsync policy, with and without
    /// an intervening checkpoint — recovery's continuation is
    /// multiset-identical to never having crashed.
    #[test]
    fn crash_recovery_differential(
        keep_per_mille in 0u64..1001,
        shards in 1usize..5,
        w in prop_oneof![Just(3u64), Just(16), Just(1000)],
        fsync in prop_oneof![
            Just(FsyncPolicy::Always),
            Just(FsyncPolicy::EveryN(4)),
            Just(FsyncPolicy::EveryN(256)),
            Just(FsyncPolicy::IntervalMs(5)),
        ],
        checkpoint_at in prop_oneof![Just(None), Just(Some(40usize)), Just(Some(85usize))],
    ) {
        let mut schema = Schema::new();
        let specs = spec_set(&mut schema);
        let stream = mixed_stream(&schema, 120);
        let window = WindowPolicy::Count(w);
        crash_and_check(
            &specs,
            &window,
            &stream,
            checkpoint_at,
            shards,
            fsync,
            keep_per_mille,
            &format!("keep={keep_per_mille}‰ shards={shards} w={w} ckpt={checkpoint_at:?}"),
        );
    }
}

/// Time windows go through the same machinery: recovery must rebuild
/// the per-shard window clocks exactly.
#[test]
fn crash_recovery_differential_time_windows() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let specs = vec![
        ("timed_pinned".to_string(), pcea.clone(), Partition::ByQuery),
        ("timed_keyed".to_string(), pcea, Partition::ByKey { pos: 1 }),
    ];
    let stream: Vec<Tuple> = (0..200)
        .map(|i| {
            let rel = if (i / 3) % 2 == 0 { a } else { b };
            Tuple::new(
                rel,
                vec![Value::Int(i as i64 / 2), Value::Int((i % 3) as i64)],
            )
        })
        .collect();
    let window = WindowPolicy::Time {
        duration: 25,
        ts_pos: 0,
    };
    for keep_per_mille in [0u64, 313, 700, 999, 1000] {
        crash_and_check(
            &specs,
            &window,
            &stream,
            Some(60),
            3,
            FsyncPolicy::EveryN(8),
            keep_per_mille,
            &format!("time windows, keep={keep_per_mille}‰"),
        );
    }
}

/// Every replayable operation kind in one log: register → ingest →
/// checkpoint → ingest → deregister → replace → rescale (which rolls
/// the segment) → ingest → crash → recover → continue. The chained
/// scenario from the issue, end to end.
#[test]
fn chained_checkpoint_wal_rescale_recover() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 300);
    let window = WindowPolicy::Count(40);
    let scratch = Scratch::new("chained");
    let config = durable_config(2, FsyncPolicy::EveryN(16));

    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open_durable");
    let ids = register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream[..100]);
    let stats = rt.checkpoint().expect("first checkpoint");
    assert_eq!(stats.position, 100);
    assert!(stats.full, "first checkpoint of a chain is full");
    rt.push_batch(&stream[100..160]);
    rt.deregister(ids[2]).unwrap();
    // Recompile the same query from source: the replace must replay too.
    let mut schema2 = Schema::new();
    let fresh = spec_set(&mut schema2);
    rt.replace(
        ids[0],
        QuerySpec::new("q0_v2", fresh[0].1.clone(), window.clone()).with_partition(fresh[0].2),
    )
    .unwrap();
    rt.rescale(4).expect("rescale");
    assert_eq!(rt.num_shards(), 4);
    rt.push_batch(&stream[160..240]);
    let status = rt.durability_status().expect("durable");
    assert!(status.healthy);
    assert_eq!(status.last_checkpoint_position, Some(100));
    drop(rt); // crash

    let mut rt2 = Runtime::recover(scratch.path(), config).expect("recover");
    assert_eq!(rt2.next_position(), 240, "flushed tail fully recovered");
    assert_eq!(rt2.num_queries(), specs.len() - 1);
    assert_eq!(rt2.query_name(ids[0]), Some("q0_v2"), "replace replayed");
    assert_eq!(
        rt2.deregister(ids[2]),
        Err(Error::UnknownQuery { id: ids[2] }),
        "deregister replayed"
    );

    // Oracle: the same op sequence, uninterrupted and in memory.
    let mut oracle = Runtime::new(2);
    let oids = register_all(&mut oracle, &specs, &window);
    let mut want = oracle.push_batch(&stream[..160]);
    oracle.deregister(oids[2]).unwrap();
    let mut schema3 = Schema::new();
    let fresh3 = spec_set(&mut schema3);
    oracle
        .replace(
            oids[0],
            QuerySpec::new("q0_v2", fresh3[0].1.clone(), window.clone())
                .with_partition(fresh3[0].2),
        )
        .unwrap();
    oracle.rescale(4).expect("oracle rescale");
    want.extend(oracle.push_batch(&stream[160..]));
    let want: Vec<MatchEvent> = sorted(want)
        .into_iter()
        .filter(|e| e.position >= 240)
        .collect();
    let got = sorted(rt2.push_batch(&stream[240..]));
    assert_eq!(got, want, "post-recovery continuation");

    // A second checkpoint on the recovered runtime truncates the log.
    let stats2 = rt2.checkpoint().expect("second checkpoint");
    assert_eq!(stats2.position, 300);
    assert!(stats2.wal_segments_removed > 0, "covered segments truncate");
    let status2 = rt2.durability_status().expect("durable");
    assert_eq!(status2.last_checkpoint_position, Some(300));
}

/// `recover` is strict: a directory with neither a manifest nor WAL
/// segments is an operator error, while `open_durable` initializes it.
#[test]
fn recover_refuses_empty_dir_open_durable_initializes() {
    let scratch = Scratch::new("strict");
    let config = durable_config(1, FsyncPolicy::Always);
    assert_eq!(
        Runtime::recover(scratch.path(), config).err(),
        Some(Error::ManifestMissing)
    );
    // open_durable on the same path starts fresh…
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("fresh init");
    register_all(&mut rt, &specs, &WindowPolicy::Count(10));
    rt.push_batch(&mixed_stream(&schema, 30));
    drop(rt);
    // …after which recover() accepts it even without a checkpoint.
    let rt2 = Runtime::recover(scratch.path(), config).expect("wal-only recovery");
    assert_eq!(rt2.next_position(), 30);
    assert_eq!(rt2.num_queries(), specs.len());
}

/// On-disk damage surfaces as stable typed errors, never a panic: a
/// corrupted segment header is `WalCorrupt`; a hole in the record
/// sequence (a lost middle segment) is `RecoverMismatch`.
#[test]
fn recovery_rejects_corruption_with_stable_errors() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 200);
    let build = |tag: &str| {
        let scratch = Scratch::new(tag);
        let config = durable_config(1, FsyncPolicy::EveryN(8));
        let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
        register_all(&mut rt, &specs, &WindowPolicy::Count(20));
        for batch in stream.chunks(13) {
            rt.push_batch(batch);
        }
        drop(rt);
        let files = wal_files(scratch.path());
        assert!(files.len() >= 3, "small segments must have rolled");
        (scratch, config, files)
    };

    // Bad magic in a sealed segment.
    let (scratch, config, files) = build("magic");
    let mut bytes = std::fs::read(&files[0]).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&files[0], &bytes).unwrap();
    assert_eq!(
        Runtime::recover(scratch.path(), config).err(),
        Some(Error::WalCorrupt("bad wal segment magic"))
    );

    // A flipped payload byte mid-chain truncates that segment like a
    // torn tail — and the next segment no longer continues the
    // sequence: a detected hole, not silent data loss.
    let (scratch, config, files) = build("hole");
    let mid = &files[files.len() / 2];
    let len = std::fs::metadata(mid).unwrap().len();
    let mut bytes = std::fs::read(mid).unwrap();
    bytes[(len / 2) as usize] ^= 0xff;
    std::fs::write(mid, &bytes).unwrap();
    match Runtime::recover(scratch.path(), config).err() {
        Some(Error::RecoverMismatch(_)) => {}
        other => panic!("expected RecoverMismatch, got {other:?}"),
    }

    // A whole missing middle segment: same verdict.
    let (scratch, config, files) = build("gap");
    std::fs::remove_file(&files[1]).unwrap();
    match Runtime::recover(scratch.path(), config).err() {
        Some(Error::RecoverMismatch(_)) => {}
        other => panic!("expected RecoverMismatch, got {other:?}"),
    }
}

/// Closure predicates have no wire form, so a durable runtime must
/// refuse them *up front* — before a WAL sequence number is burned —
/// and the log must stay dense and replayable afterwards.
#[test]
fn durable_runtime_rejects_unserializable_queries_without_gaps() {
    let mut schema = Schema::new();
    let a = schema.add_relation("A", 1).unwrap();
    let mut builder = PceaBuilder::new(1);
    let q0 = builder.add_state();
    builder.add_initial_transition(
        UnaryPredicate::Relation(a).and(UnaryPredicate::Custom(std::sync::Arc::new(
            |t: &Tuple| t.values()[0] != Value::Int(13),
        ))),
        LabelSet::singleton(Label(0)),
        q0,
    );
    builder.mark_final(q0);
    let closure_pcea = builder.build();

    let scratch = Scratch::new("unser");
    let config = durable_config(1, FsyncPolicy::Always);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
    assert!(matches!(
        rt.register(QuerySpec::new(
            "closure",
            closure_pcea.clone(),
            WindowPolicy::Count(5)
        )),
        Err(Error::UnserializableQuery { .. })
    ));
    // The stable code is exposed for the serving layer.
    assert_eq!(
        pcea::engine::Error::UnserializableQuery {
            query: "closure".into()
        }
        .code(),
        ErrorCode::UnserializableQuery
    );
    // A wire-clean registration right after still works and replays.
    let specs = spec_set(&mut schema);
    register_all(&mut rt, &specs, &WindowPolicy::Count(10));
    rt.push_batch(&mixed_stream(&schema, 40));
    drop(rt);
    let rt2 = Runtime::recover(scratch.path(), config).expect("dense log replays");
    assert_eq!(rt2.num_queries(), specs.len());
    assert_eq!(rt2.next_position(), 40);
}

/// An in-memory runtime answers durability calls with `NotDurable`,
/// and `durability_status` reports the WAL/checkpoint counters.
#[test]
fn durability_status_and_not_durable() {
    let mut rt = Runtime::new(1);
    assert_eq!(rt.checkpoint().err(), Some(Error::NotDurable));
    assert!(rt.durability_status().is_none());

    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let scratch = Scratch::new("status");
    let config = durable_config(2, FsyncPolicy::EveryN(4));
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
    register_all(&mut rt, &specs, &WindowPolicy::Count(10));
    rt.push_batch(&mixed_stream(&schema, 50));
    let st = rt.durability_status().expect("durable");
    assert!(st.healthy);
    assert!(st.wal_records >= specs.len() as u64, "registers + batches");
    assert!(st.wal_bytes > 0);
    assert_eq!(st.last_checkpoint_epoch, None);
    rt.checkpoint().expect("checkpoint");
    let st = rt.durability_status().expect("durable");
    assert_eq!(st.last_checkpoint_position, Some(50));
    assert_eq!(st.chain_len, 1);
}

/// A WAL that dies under a live runtime fails open: the data directory
/// vanishes after the first batch, the next segment roll cannot open
/// its file, and the failure is journaled once with its stable code.
/// The runtime reports itself unhealthy and keeps serving exact
/// matches; a checkpoint fails with `wal_io`, and ingest carries on
/// past it.
#[test]
fn live_wal_failure_fails_open() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 300);
    let window = WindowPolicy::Count(40);
    let want = uninterrupted(&specs, &window, &stream, 2);
    let scratch = Scratch::new("live-fail");
    let config = durable_config(2, FsyncPolicy::Always);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open_durable");
    register_all(&mut rt, &specs, &window);
    let mut got = rt.push_batch(&stream[..20]);
    assert!(rt.durability_status().expect("durable").healthy);

    std::fs::remove_dir_all(scratch.path()).expect("remove data dir");
    for chunk in stream[20..200].chunks(10) {
        got.extend(rt.push_batch(chunk));
    }
    let failed: Vec<(u64, ErrorCode)> = rt
        .events()
        .into_iter()
        .filter_map(|e| match e.item {
            PipelineEvent::WalFailed { position, code } => Some((position, code)),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 1, "journaled once: {failed:?}");
    let (position, code) = failed[0];
    assert_eq!(code, ErrorCode::WalIo);
    assert!((20..200).contains(&position), "failed at {position}");
    assert!(!rt.durability_status().expect("durable").healthy);

    let err = rt
        .checkpoint()
        .expect_err("checkpoint into a vanished directory");
    assert_eq!(err.code(), ErrorCode::WalIo, "{err}");
    assert_eq!((err.code().as_u16(), err.code().name()), (71, "wal_io"));
    let failed: Vec<(u64, ErrorCode)> = rt
        .events()
        .into_iter()
        .filter_map(|e| match e.item {
            PipelineEvent::CheckpointFailed { position, code } => Some((position, code)),
            _ => None,
        })
        .collect();
    assert_eq!(
        failed,
        [(rt.next_position(), ErrorCode::WalIo)],
        "journaled once"
    );

    got.extend(rt.push_batch(&stream[200..]));
    assert_eq!(sorted(got), want, "matches survive the dead log");
    assert!(!rt.durability_status().expect("durable").healthy);
}

// ---------------------------------------------------------------------
// A clean stop checkpoints: the restart replays nothing
// ---------------------------------------------------------------------

/// What the journal of a freshly opened runtime says about its
/// recovery: `(position, replayed)`.
fn recovered(rt: &Runtime) -> (u64, u64) {
    let found = rt.events().into_iter().find_map(|e| match e.item {
        PipelineEvent::Recovered { position, replayed } => Some((position, replayed)),
        _ => None,
    });
    found.expect("open_durable journals its recovery")
}

/// Continue `stream` from `rt`'s position and compare with the
/// uninterrupted run from that position on.
fn continues_exactly(
    rt: &mut Runtime,
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    shards: usize,
) {
    let from = rt.next_position();
    let want: Vec<MatchEvent> = uninterrupted(specs, window, stream, shards)
        .into_iter()
        .filter(|e| e.position >= from)
        .collect();
    let got = sorted(rt.push_batch(&stream[from as usize..]));
    assert_eq!(got, want, "continuation from {from}");
}

/// `shutdown()`, then `open_durable`: the restart restores the shutdown
/// checkpoint, replays zero WAL records, and goes on exactly as the
/// uninterrupted run — at 1 and 2 shards, with an earlier checkpoint in
/// the chain.
#[test]
fn a_clean_shutdown_checkpoints_and_the_restart_replays_nothing() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 240);
    let window = WindowPolicy::Count(40);
    for shards in [1, 2] {
        let scratch = Scratch::new("clean-stop");
        let config = durable_config(shards, FsyncPolicy::EveryN(4));
        let mut rt = Runtime::open_durable(scratch.path(), config).expect("open fresh");
        register_all(&mut rt, &specs, &window);
        for batch in stream[..60].chunks(17) {
            rt.push_batch(batch);
        }
        rt.checkpoint().expect("mid-stream checkpoint");
        for batch in stream[60..150].chunks(17) {
            rt.push_batch(batch);
        }
        rt.shutdown();

        let mut rt = Runtime::open_durable(scratch.path(), config).expect("reopen");
        assert_eq!(recovered(&rt), (150, 0), "{shards} shards");
        let status = rt.durability_status().expect("durable");
        assert_eq!(status.last_checkpoint_position, Some(150));
        assert_eq!(status.chain_len, 2);
        assert_eq!(rt.num_queries(), specs.len());
        continues_exactly(&mut rt, &specs, &window, &stream, shards);
    }
}

/// Registrations alone do not move the stream: `shutdown()` leaves
/// them to the WAL and adds no checkpoint to the chain — from a fresh
/// directory, and behind an existing checkpoint.
#[test]
fn registrations_alone_add_no_shutdown_checkpoint() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 120);
    let window = WindowPolicy::Count(30);
    let scratch = Scratch::new("register-stop");
    let config = durable_config(2, FsyncPolicy::EveryN(4));
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open fresh");
    register_all(&mut rt, &specs[..3], &window);
    rt.shutdown();

    let mut rt = Runtime::open_durable(scratch.path(), config).expect("reopen");
    assert_eq!(recovered(&rt), (0, 3), "the registrations replay");
    let status = rt.durability_status().expect("durable");
    assert_eq!((status.last_checkpoint_epoch, status.chain_len), (None, 0));
    rt.push_batch(&stream[..50]);
    let ckpt = rt.checkpoint().expect("checkpoint");
    register_all(&mut rt, &specs[3..], &window);
    rt.shutdown();

    let mut rt = Runtime::open_durable(scratch.path(), config).expect("reopen");
    assert_eq!(recovered(&rt), (50, 1), "one registration replays");
    let status = rt.durability_status().expect("durable");
    assert_eq!(status.last_checkpoint_epoch, Some(ckpt.epoch));
    assert_eq!(status.chain_len, 1);
    assert_eq!(rt.num_queries(), specs.len());
    // The last query joined at position 50: the oracle registers it
    // there too.
    let mut oracle = Runtime::new(2);
    register_all(&mut oracle, &specs[..3], &window);
    oracle.push_batch(&stream[..50]);
    register_all(&mut oracle, &specs[3..], &window);
    let want = sorted(oracle.push_batch(&stream[50..]));
    assert_eq!(sorted(rt.push_batch(&stream[50..])), want);
}

/// Five clean stop/open cycles, tuples pushed in the first only, add
/// one checkpoint to the chain in total, and the WAL directory keeps
/// the same files and bytes from the first stop on.
#[test]
fn clean_stop_open_cycles_add_one_checkpoint_and_keep_the_wal_steady() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 200);
    let window = WindowPolicy::Count(30);
    let scratch = Scratch::new("cycles");
    let config = durable_config(2, FsyncPolicy::EveryN(4));
    let wal_state = || (wal_files(scratch.path()), wal_bytes_total(scratch.path()));
    let mut steady = None;
    for cycle in 0..5 {
        let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
        if cycle == 0 {
            register_all(&mut rt, &specs, &window);
            for batch in stream[..90].chunks(17) {
                rt.push_batch(batch);
            }
        } else {
            assert_eq!(recovered(&rt), (90, 0), "cycle {cycle}");
        }
        rt.shutdown();
        let steady = steady.get_or_insert_with(wal_state);
        assert_eq!(
            &wal_state(),
            steady,
            "cycle {cycle}: the WAL directory grew"
        );
    }
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
    let status = rt.durability_status().expect("durable");
    assert_eq!(status.chain_len, 1);
    assert_eq!(status.last_checkpoint_position, Some(90));
    continues_exactly(&mut rt, &specs, &window, &stream, 2);
}

/// Five clean stop/open cycles that each push tuples: every stop
/// writes a shutdown checkpoint, and each deletes the WAL segments its
/// predecessor covers, so a directory that is only ever stopped cleanly
/// keeps a bounded log — the same number of segment files from the
/// second stop on, and the last restart still replays nothing and
/// continues exactly.
#[test]
fn clean_stop_open_cycles_with_tuples_keep_the_wal_bounded() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 260);
    let window = WindowPolicy::Count(30);
    let scratch = Scratch::new("cycles-tuples");
    let config = durable_config(2, FsyncPolicy::EveryN(4));
    let mut files = Vec::new();
    for cycle in 0..5 {
        let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
        if cycle == 0 {
            register_all(&mut rt, &specs, &window);
        } else {
            assert_eq!(recovered(&rt), (cycle * 40, 0), "cycle {cycle}");
        }
        let from = cycle as usize * 40;
        for batch in stream[from..from + 40].chunks(17) {
            rt.push_batch(batch);
        }
        rt.shutdown();
        files.push(wal_files(scratch.path()).len());
    }
    assert!(
        files[1..].iter().all(|&n| n == files[1]),
        "segment files per stop: {files:?}"
    );
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open");
    assert_eq!(recovered(&rt), (200, 0));
    continues_exactly(&mut rt, &specs, &window, &stream, 2);
}

/// A shutdown checkpoint that cannot be written — the `ckpt` directory
/// swapped for a plain file — does not stop `shutdown()` from
/// returning. With the directory put back, the next `open_durable`
/// restores the previous checkpoint, replays the WAL behind it and
/// continues exactly.
#[test]
fn a_failed_shutdown_checkpoint_leaves_the_wal_the_recovery_point() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 240);
    let window = WindowPolicy::Count(40);
    let scratch = Scratch::new("ckpt-fails");
    let config = durable_config(2, FsyncPolicy::Always);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open fresh");
    register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream[..60]);
    rt.checkpoint().expect("checkpoint at 60");
    for batch in stream[60..150].chunks(17) {
        rt.push_batch(batch);
    }
    let ckpt = scratch.path().join("ckpt");
    let aside = scratch.path().join("ckpt-aside");
    std::fs::rename(&ckpt, &aside).unwrap();
    std::fs::write(&ckpt, b"not a directory").unwrap();
    rt.shutdown();
    std::fs::remove_file(&ckpt).unwrap();
    std::fs::rename(&aside, &ckpt).unwrap();

    let mut rt = Runtime::open_durable(scratch.path(), config).expect("reopen");
    let (position, replayed) = recovered(&rt);
    assert_eq!(position, 150);
    assert!(replayed > 0, "the WAL is the recovery point");
    let status = rt.durability_status().expect("durable");
    assert_eq!(status.last_checkpoint_position, Some(60));
    continues_exactly(&mut rt, &specs, &window, &stream, 2);
}

/// After the WAL failed (`WalFailed`), `shutdown()` writes no
/// checkpoint, even into a data directory that could take one again:
/// recovery from that state behaves as after a crash.
#[test]
fn after_a_wal_failure_shutdown_writes_no_checkpoint() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 200);
    let scratch = Scratch::new("failed-stop");
    let config = durable_config(2, FsyncPolicy::Always);
    let mut rt = Runtime::open_durable(scratch.path(), config).expect("open fresh");
    register_all(&mut rt, &specs, &WindowPolicy::Count(40));
    rt.push_batch(&stream[..20]);
    std::fs::remove_dir_all(scratch.path()).expect("remove data dir");
    for chunk in stream[20..].chunks(10) {
        rt.push_batch(chunk);
    }
    let failed = rt
        .events()
        .into_iter()
        .any(|e| matches!(e.item, PipelineEvent::WalFailed { .. }));
    assert!(failed && !rt.durability_status().expect("durable").healthy);
    // Everything a checkpoint writes has a home again.
    std::fs::create_dir_all(scratch.path().join("ckpt")).unwrap();
    std::fs::create_dir_all(scratch.path().join("wal")).unwrap();
    rt.shutdown();
    assert!(!scratch.path().join("MANIFEST").exists(), "no checkpoint");
    let written = std::fs::read_dir(scratch.path().join("ckpt")).unwrap();
    assert_eq!(written.count(), 0, "no checkpoint file");
}
