//! Live elastic resharding (`Runtime::rescale`) and the autoscaling
//! loop (`cer_core::autoscale`).
//!
//! The core property mirrors `checkpoint_restore.rs`, but with *no
//! restart*: `prefix → rescale(n→m) → suffix` on one live runtime must
//! produce output multisets identical to an uninterrupted run — both
//! growing and shrinking, at any cut, across partition modes and count
//! and time windows, and with producers pushing concurrently through
//! the fence. Unlike restore, the move is zero-wire: state crosses
//! worker sets as in-memory values, never through serialization — the
//! snapshot serialization counters stay untouched, and that is asserted
//! on every differential run.

use pcea::engine::checkpoint::Snapshot;
use pcea::prelude::*;
use proptest::prelude::*;

/// Deterministic dense stream over all relations of `schema`, one value
/// domain per attribute position (same shape as `checkpoint_restore.rs`).
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
/// partition modes — the state surface a rescale must move intact.
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

/// Uninterrupted reference: one runtime sees the whole stream.
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

/// Rescaled run: prefix → `rescale(shards_new)` → suffix, all on the
/// *same* runtime. Also asserts the zero-wire acceptance property (the
/// snapshot serialization path never ran) and the rescale counters.
fn rescaled(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    cut: usize,
    shards_old: usize,
    shards_new: usize,
) -> Vec<MatchEvent> {
    let mut rt = Runtime::new(shards_old);
    register_all(&mut rt, specs, window);
    let mut events = rt.push_batch(&stream[..cut]);
    rt.rescale(shards_new).expect("rescale");
    assert_eq!(rt.num_shards(), shards_new);
    events.extend(rt.push_batch(&stream[cut..]));
    let stats = rt.stats();
    // Zero-wire: the move touched no serialization counter.
    assert_eq!(stats.snapshots.snapshots_taken, 0);
    assert!(
        stats.snapshots.shard_serialize_nanos.is_empty(),
        "rescale must not serialize shard state"
    );
    assert_eq!(stats.rescales.rescales, 1);
    assert_eq!(stats.rescales.last_fence_pos, Some(cut as u64));
    assert_eq!(stats.rescales.shard_move_nanos.len(), shards_old);
    sorted(events)
}

#[test]
fn rescale_matches_uninterrupted_count_windows() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 240);
    let mut any = false;
    for w in [3u64, 16, 1000] {
        let window = WindowPolicy::Count(w);
        for (shards_old, shards_new) in [(1usize, 4usize), (4, 1), (2, 3), (3, 2), (2, 2)] {
            let want = uninterrupted(&specs, &window, &stream, shards_old);
            for cut in [0usize, 1, 97, 239, 240] {
                let got = rescaled(&specs, &window, &stream, cut, shards_old, shards_new);
                assert_eq!(
                    got, want,
                    "w={w}, cut={cut}, shards {shards_old}->{shards_new}"
                );
                any |= !want.is_empty();
            }
        }
    }
    assert!(any, "the workload must produce matches somewhere");
}

#[test]
fn rescale_matches_uninterrupted_time_windows() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let specs = vec![
        ("timed_pinned".to_string(), pcea.clone(), Partition::ByQuery),
        ("timed_keyed".to_string(), pcea, Partition::ByKey { pos: 1 }),
    ];
    // Non-decreasing timestamps at attribute 0, join key at attribute 1.
    let stream: Vec<Tuple> = (0..200)
        .map(|i| {
            let rel = if (i / 3) % 2 == 0 { a } else { b };
            Tuple::new(
                rel,
                vec![Value::Int(i as i64 / 2), Value::Int((i % 3) as i64)],
            )
        })
        .collect();
    for duration in [0i64, 4, 25, 10_000] {
        let window = WindowPolicy::Time {
            duration,
            ts_pos: 0,
        };
        for (shards_old, shards_new) in [(1usize, 3usize), (3, 1), (2, 4), (4, 2)] {
            let want = uninterrupted(&specs, &window, &stream, shards_old);
            for cut in [11usize, 100, 137] {
                let got = rescaled(&specs, &window, &stream, cut, shards_old, shards_new);
                assert_eq!(
                    got, want,
                    "duration={duration}, cut={cut}, shards {shards_old}->{shards_new}"
                );
            }
        }
    }
}

/// Chained moves: the runtime survives growing and shrinking repeatedly
/// mid-stream, and the aggregate output is still exact.
#[test]
fn chained_rescales_stay_exact() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 300);
    let window = WindowPolicy::Count(20);
    let want = uninterrupted(&specs, &window, &stream, 1);
    let mut rt = Runtime::new(1);
    register_all(&mut rt, &specs, &window);
    let mut events = Vec::new();
    let plan = [2usize, 4, 2, 3, 1];
    for (step, chunk) in stream.chunks(stream.len() / (plan.len() + 1)).enumerate() {
        events.extend(rt.push_batch(chunk));
        if let Some(&to) = plan.get(step) {
            rt.rescale(to).unwrap();
            assert_eq!(rt.num_shards(), to);
        }
    }
    assert_eq!(sorted(events), want);
    let stats = rt.stats();
    assert_eq!(stats.rescales.rescales, plan.len() as u64);
    assert_eq!(stats.snapshots.snapshots_taken, 0);
    assert!(stats.snapshots.shard_serialize_nanos.is_empty());
    // The journal carries one Rescale event per move, in order.
    let moves: Vec<(usize, usize)> = rt
        .events()
        .into_iter()
        .filter_map(|e| match e.item {
            PipelineEvent::Rescale { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(moves, vec![(1, 2), (2, 4), (4, 2), (2, 3), (3, 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance property as a proptest: random cut, shard counts
    /// on both sides, window size, partition mix — a mid-stream rescale
    /// is multiset-invisible in the output.
    #[test]
    fn rescale_differential(
        cut in 0usize..160,
        shards_old in 1usize..5,
        shards_new in 1usize..5,
        w in prop_oneof![Just(2u64), Just(9), Just(64), Just(1000)],
    ) {
        let mut schema = Schema::new();
        let specs = spec_set(&mut schema);
        let stream = mixed_stream(&schema, 160);
        let window = WindowPolicy::Count(w);
        let want = uninterrupted(&specs, &window, &stream, shards_old);
        let got = rescaled(&specs, &window, &stream, cut, shards_old, shards_new);
        prop_assert_eq!(got, want);
    }
}

/// The no-stop-the-world test: producers ingest concurrently *while*
/// `rescale` runs — several times, in both directions. Because nothing
/// restarts, the subscription sees every match; the receipts reveal the
/// stamped order and the whole run must equal the sync oracle on it.
#[test]
fn rescale_under_live_producers_is_invisible() {
    use std::sync::Mutex;
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 4_000);
    let window = WindowPolicy::Count(24);
    for (shards_start, plan, producers) in [
        (2usize, vec![3usize, 1, 4], 3usize),
        (1, vec![4, 2], 4),
        (4, vec![1], 2),
    ] {
        let mut rt = Runtime::new(RuntimeConfig::new(shards_start).with_ingest(IngestConfig {
            queue_capacity: 256, // small: real backpressure through the fence
            ..IngestConfig::default()
        }));
        register_all(&mut rt, &specs, &window);
        let sub = rt.subscribe_with(
            SubscriptionFilter::All,
            usize::MAX,
            BackpressurePolicy::Block,
        );
        let receipts: Mutex<Vec<(u64, Vec<Tuple>)>> = Mutex::new(Vec::new());
        let chunk = stream.len().div_ceil(producers);
        std::thread::scope(|scope| {
            for slice in stream.chunks(chunk) {
                let handle = rt.ingest_handle();
                let receipts = &receipts;
                scope.spawn(move || {
                    for batch in slice.chunks(23) {
                        let receipt = handle.push_batch(batch).unwrap();
                        assert_eq!(receipt.dropped, 0, "Block never drops");
                        receipts
                            .lock()
                            .unwrap()
                            .push((receipt.positions.start, batch.to_vec()));
                    }
                });
            }
            // Meanwhile, in the middle of the firehose: live moves.
            // Producers are actively reserving/staging blocks right now.
            for &to in &plan {
                rt.rescale(to).expect("rescale under live producers");
                assert_eq!(rt.num_shards(), to);
            }
        });
        rt.drain();
        let events = sorted(sub.drain());
        let stats = rt.stats();
        assert_eq!(stats.rescales.rescales, plan.len() as u64);
        assert_eq!(stats.snapshots.snapshots_taken, 0);
        assert!(stats.snapshots.shard_serialize_nanos.is_empty());

        // Reconstruct the stamped order from the receipts: gap-free.
        let mut stamped: Vec<(u64, Tuple)> = receipts
            .into_inner()
            .unwrap()
            .into_iter()
            .flat_map(|(start, batch)| {
                batch
                    .into_iter()
                    .enumerate()
                    .map(move |(k, t)| (start + k as u64, t))
            })
            .collect();
        stamped.sort_by_key(|(i, _)| *i);
        assert_eq!(stamped.len(), stream.len());
        assert!(stamped.iter().enumerate().all(|(k, (i, _))| *i == k as u64));
        let ordered: Vec<Tuple> = stamped.into_iter().map(|(_, t)| t).collect();

        let want = uninterrupted(&specs, &window, &ordered, 1);
        assert_eq!(
            events, want,
            "start={shards_start}, plan={plan:?}, producers={producers}"
        );
    }
}

/// Ordering guarantee: rescale serializes with every other control-plane
/// op (register / deregister / replace / snapshot) in program order —
/// all of them fence through the sequencer's control-block order and
/// none can deadlock against a live firehose. Output stays exact; the
/// journal records the ops in exactly the order they were issued.
#[test]
fn rescale_interleaves_with_control_plane_ops() {
    use std::sync::Mutex;
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 3_000);
    // Relations declared after the stream was built: the late-registered
    // query can never match, so it cannot disturb the differential.
    let z = parse_query(&mut schema, "QZ(x) <- Z1(x), Z2(x)").unwrap();
    let z_pcea = compile_hcq(&schema, &z).unwrap().pcea;
    let window = WindowPolicy::Count(24);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &window);
    let sub = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    // An identical recompile for the mid-stream replace.
    let mut schema2 = Schema::new();
    let fresh = spec_set(&mut schema2);

    let receipts: Mutex<Vec<(u64, Vec<Tuple>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for slice in stream.chunks(1_000) {
            let handle = rt.ingest_handle();
            let receipts = &receipts;
            scope.spawn(move || {
                for batch in slice.chunks(17) {
                    let receipt = handle.push_batch(batch).unwrap();
                    receipts
                        .lock()
                        .unwrap()
                        .push((receipt.positions.start, batch.to_vec()));
                }
            });
        }
        // The whole control plane, interleaved against the firehose.
        rt.rescale(3).unwrap();
        let snap = rt.snapshot().unwrap();
        assert!(snap.position() <= stream.len() as u64);
        let zid = rt
            .register(
                QuerySpec::new("qz".to_string(), z_pcea.clone(), window.clone())
                    .with_partition(Partition::ByQuery),
            )
            .unwrap();
        rt.rescale(1).unwrap();
        rt.replace(
            ids[0],
            QuerySpec::new(
                "q0_pinned_v2".to_string(),
                fresh[0].1.clone(),
                window.clone(),
            )
            .with_partition(fresh[0].2),
        )
        .unwrap();
        rt.deregister(zid).unwrap();
        rt.rescale(4).unwrap();
    });
    rt.drain();
    let events = sorted(sub.drain());

    // Journal order == program order for the control ops.
    let control: Vec<&'static str> = rt
        .events()
        .into_iter()
        .filter_map(|e| match e.item {
            PipelineEvent::Rescale { .. } => Some("rescale"),
            PipelineEvent::SnapshotTaken { .. } => Some("snapshot"),
            PipelineEvent::QueryRegistered { .. } => Some("register"),
            PipelineEvent::QueryDeregistered { .. } => Some("deregister"),
            PipelineEvent::QueryReplaced { .. } => Some("replace"),
            _ => None,
        })
        .collect();
    // The initial registrations come first, then the interleaved ops.
    let (setup, ops) = control.split_at(specs.len());
    assert!(setup.iter().all(|k| *k == "register"));
    assert_eq!(
        ops,
        [
            "rescale",
            "snapshot",
            "register",
            "rescale",
            "replace",
            "deregister",
            "rescale"
        ]
    );

    // Differential: identical replace + never-matching register are
    // invisible, so the run equals the plain oracle.
    let mut stamped: Vec<(u64, Tuple)> = receipts
        .into_inner()
        .unwrap()
        .into_iter()
        .flat_map(|(start, batch)| {
            batch
                .into_iter()
                .enumerate()
                .map(move |(k, t)| (start + k as u64, t))
        })
        .collect();
    stamped.sort_by_key(|(i, _)| *i);
    let ordered: Vec<Tuple> = stamped.into_iter().map(|(_, t)| t).collect();
    let want = uninterrupted(&specs, &window, &ordered, 1);
    assert_eq!(events, want);
}

/// Out-of-range targets are rejected up front, with the runtime (and
/// its counters) untouched.
#[test]
fn rescale_rejects_invalid_shard_counts() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 60);
    let window = WindowPolicy::Count(10);
    let want = uninterrupted(&specs, &window, &stream, 2);
    let mut rt = Runtime::new(2);
    register_all(&mut rt, &specs, &window);
    let mut events = rt.push_batch(&stream[..30]);
    for bad in [0usize, 65, 1000] {
        assert_eq!(
            rt.rescale(bad),
            Err(Error::InvalidShardCount { shards: bad })
        );
    }
    assert_eq!(rt.num_shards(), 2);
    assert_eq!(rt.stats().rescales, RescaleCounters::default());
    events.extend(rt.push_batch(&stream[30..]));
    assert_eq!(sorted(events), want);
    // The stable error code is wired through the unified table.
    let err = Error::InvalidShardCount { shards: 0 };
    assert_eq!(err.code(), ErrorCode::InvalidShardCount);
}

/// Snapshot compatibility: the extract/encode split behind `snapshot`
/// keeps the byte format at version 1, a rescaled runtime snapshots and
/// restores exactly, and capture is copy-on-fence — two back-to-back
/// snapshots of an untouched runtime are byte-identical (capture never
/// mutates live evaluator state).
#[test]
fn snapshot_stays_compatible_across_rescale() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 200);
    let window = WindowPolicy::Count(30);
    let want = uninterrupted(&specs, &window, &stream, 2);

    let mut rt = Runtime::new(2);
    register_all(&mut rt, &specs, &window);
    let mut events = rt.push_batch(&stream[..80]);
    rt.rescale(3).unwrap();
    events.extend(rt.push_batch(&stream[80..120]));

    let bytes = rt.snapshot().unwrap().to_bytes().unwrap();
    // Header: 8 magic bytes, then the format version as a LE u32 — the
    // wire layout did not change, so the version must still be 1.
    assert_eq!(&bytes[..8], b"CERSNAP\0");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);

    // Copy-on-fence: capturing again without new input re-encodes the
    // same state from fresh clones, bit for bit.
    let again = rt.snapshot().unwrap().to_bytes().unwrap();
    assert_eq!(bytes, again, "capture must not mutate live state");

    // The snapshot of the rescaled runtime restores into yet another
    // shard count and finishes the stream exactly.
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.origin_shards(), 3);
    drop(rt);
    let mut rt2 = Runtime::restore(&snap, 4).unwrap();
    events.extend(rt2.push_batch(&stream[120..]));
    assert_eq!(sorted(events), want);
}

/// Rescale also leaves its mark in the exported metrics — and leaves
/// the snapshot-serialize histogram empty (the zero-wire property, seen
/// from the metrics surface).
#[test]
fn rescale_metrics_export() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 100);
    let window = WindowPolicy::Count(10);
    let mut rt = Runtime::new(1);
    register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream[..50]);
    rt.rescale(2).unwrap();
    rt.rescale(4).unwrap();
    rt.push_batch(&stream[50..]);
    let snap = rt.metrics_snapshot();
    let find = |name: &str| {
        snap.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    match &find("cer_rescales_total").value {
        MetricValue::Counter(v) => assert_eq!(*v, 2),
        other => panic!("counter expected, got {other:?}"),
    }
    match &find("cer_rescale_nanos").value {
        MetricValue::Histogram(h) => assert_eq!(h.count(), 2),
        other => panic!("histogram expected, got {other:?}"),
    }
    match &find("cer_snapshot_serialize_nanos").value {
        MetricValue::Histogram(h) => assert_eq!(h.count(), 0, "zero-wire"),
        other => panic!("histogram expected, got {other:?}"),
    }
    let text = rt.metrics_text();
    validate_prometheus_text(&text).unwrap();
    assert!(text.contains("cer_rescales_total 2"));
}

/// The closed loop: a hysteresis controller driving `autoscale_tick`
/// grows the runtime under (synthetic) pressure, shrinks it back when
/// idle, honors cooldown, and journals every decision before its move.
#[test]
fn autoscale_loop_scales_up_and_down() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 120);
    let window = WindowPolicy::Count(16);
    let want = uninterrupted(&specs, &window, &stream, 2);
    let mut rt = Runtime::new(2);
    register_all(&mut rt, &specs, &window);
    let mut events = rt.push_batch(&stream[..60]);

    // A hair-trigger "hot" policy: occupancy 0.0 always clears the
    // scale-up bar, so one tick doubles the shard count.
    let mut hot = Controller::new(AutoscalePolicy {
        scale_up_occupancy: 0.0,
        up_after: 1,
        cooldown_ticks: 2,
        ..AutoscalePolicy::default()
    });
    assert_eq!(rt.autoscale_tick(&mut hot).unwrap(), Some((2, 4)));
    assert_eq!(rt.num_shards(), 4);
    // Cooldown: the next two ticks must hold even though still "hot".
    assert_eq!(rt.autoscale_tick(&mut hot).unwrap(), None);
    assert_eq!(rt.autoscale_tick(&mut hot).unwrap(), None);
    assert_eq!(rt.autoscale_tick(&mut hot).unwrap(), Some((4, 8)));
    assert_eq!(rt.num_shards(), 8);

    // An always-cold policy halves back down (the runtime is idle, so
    // occupancy 0 is under any positive floor).
    let mut cold = Controller::new(AutoscalePolicy {
        scale_up_occupancy: 2.0, // unreachable: occupancy is ≤ 1
        scale_down_occupancy: 0.5,
        down_after: 1,
        cooldown_ticks: 0,
        ..AutoscalePolicy::default()
    });
    assert_eq!(rt.autoscale_tick(&mut cold).unwrap(), Some((8, 4)));
    assert_eq!(rt.autoscale_tick(&mut cold).unwrap(), Some((4, 2)));
    assert_eq!(rt.num_shards(), 2);

    // Decisions are journaled, each immediately before its Rescale.
    let journal: Vec<(bool, usize, usize)> = rt
        .events()
        .into_iter()
        .filter_map(|e| match e.item {
            PipelineEvent::AutoscaleDecision { from, to, .. } => Some((true, from, to)),
            PipelineEvent::Rescale { from, to, .. } => Some((false, from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        journal,
        vec![
            (true, 2, 4),
            (false, 2, 4),
            (true, 4, 8),
            (false, 4, 8),
            (true, 8, 4),
            (false, 8, 4),
            (true, 4, 2),
            (false, 4, 2),
        ]
    );

    // And the moves were, as ever, invisible in the output.
    events.extend(rt.push_batch(&stream[60..]));
    assert_eq!(sorted(events), want);
}

/// Subscriptions, ingest handles and query ids all survive a rescale —
/// the move swaps workers underneath them without tearing any of the
/// public handles down.
#[test]
fn handles_and_ids_survive_rescale() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 120);
    let window = WindowPolicy::Count(16);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &window);
    let sub = rt.subscribe_with(
        SubscriptionFilter::Query(ids[0]),
        usize::MAX,
        BackpressurePolicy::Block,
    );
    let handle = rt.ingest_handle(); // cloned *before* the move
    let receipt = handle.push_batch(&stream[..40]).unwrap();
    assert_eq!(receipt.positions, (0..40));
    rt.rescale(4).unwrap();
    // The pre-rescale handle keeps stamping into the new worker set.
    let receipt = handle.push_batch(&stream[40..]).unwrap();
    assert_eq!(receipt.positions, (40..120));
    rt.drain();
    for (&id, (name, ..)) in ids.iter().zip(&specs) {
        assert_eq!(rt.query_name(id), Some(name.as_str()), "ids are stable");
    }
    let got: Vec<MatchEvent> = sub.drain();
    let want: Vec<MatchEvent> = uninterrupted(&specs, &window, &stream, 2)
        .into_iter()
        .filter(|e| e.query == ids[0])
        .collect();
    assert_eq!(sorted(got), want, "the filtered subscription saw it all");
}
