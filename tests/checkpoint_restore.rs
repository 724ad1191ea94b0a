//! Crash-recovery and hot-swap semantics of the checkpoint subsystem
//! (`cer_core::checkpoint`).
//!
//! The core property: `snapshot → restore → replay suffix` produces
//! output multisets identical to an uninterrupted run — across shard
//! counts (including restoring into a *different* shard count),
//! partition modes, count and time windows, serialized-bytes
//! round-trips, and with producers live during `snapshot()` (the
//! epoch block fences a consistent cut without stopping them).
//! `replace` is checked differentially too: handing a query's state to
//! a recompiled identical query must be invisible, predicates must
//! swap exactly at the call's position, and incompatible hand-offs
//! must be rejected with the old query untouched.

use pcea::engine::checkpoint::Snapshot;
use pcea::prelude::*;
use proptest::prelude::*;

/// Deterministic dense stream over all relations of `schema`, one value
/// domain per attribute position (same shape as `ingest_async.rs`).
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
/// partition modes — the round-trip surface the snapshot must carry.
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

/// Interrupted run: prefix → snapshot (optionally through bytes) →
/// restore into `shards_new` → suffix. Returns prefix + suffix events.
fn interrupted(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    cut: usize,
    shards_old: usize,
    shards_new: usize,
    through_bytes: bool,
) -> Vec<MatchEvent> {
    let mut rt = Runtime::new(shards_old);
    register_all(&mut rt, specs, window);
    let mut events = rt.push_batch(&stream[..cut]);
    let snap = rt.snapshot().expect("snapshot");
    assert_eq!(snap.position(), cut as u64, "epoch lands at the cut");
    assert_eq!(snap.origin_shards(), shards_old);
    drop(rt); // the "crash"
    let snap = if through_bytes {
        Snapshot::from_bytes(&snap.to_bytes().expect("to_bytes")).expect("from_bytes")
    } else {
        snap
    };
    let mut rt2 = Runtime::restore(&snap, shards_new).expect("restore");
    assert_eq!(rt2.next_position(), cut as u64, "stamping resumes at P");
    events.extend(rt2.push_batch(&stream[cut..]));
    sorted(events)
}

/// Restore into a new shard count, snapshot again *immediately* — no
/// traffic in between, so no run has expired — and restore once more,
/// twice over. Each home's replica is pruned to the key slice it owns
/// at restore time; without that pruning the second merge would see
/// overlapping replicas and double-count every in-window run of the
/// key-partitioned queries.
#[test]
fn chained_restores_without_traffic_stay_exact() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 240);
    let window = WindowPolicy::Count(1000); // nothing expires: worst case
    let cut = 120;
    let want = uninterrupted(&specs, &window, &stream, 2);
    let mut rt = Runtime::new(2);
    register_all(&mut rt, &specs, &window);
    let mut events = rt.push_batch(&stream[..cut]);
    // Bounce through three layouts back to back: 2 -> 4 -> 3 -> 2.
    for shards in [4usize, 3, 2] {
        let snap = rt.snapshot().expect("snapshot");
        drop(rt);
        rt = Runtime::restore(&snap, shards).expect("restore");
        assert_eq!(rt.next_position(), cut as u64);
    }
    events.extend(rt.push_batch(&stream[cut..]));
    assert_eq!(sorted(events), want);
}

#[test]
fn restore_replay_matches_uninterrupted_count_windows() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 240);
    let mut any = false;
    for w in [3u64, 16, 1000] {
        let window = WindowPolicy::Count(w);
        for (shards_old, shards_new) in [(1usize, 1usize), (1, 4), (3, 1), (2, 4), (4, 2)] {
            let want = uninterrupted(&specs, &window, &stream, shards_old);
            for cut in [0usize, 1, 97, 239, 240] {
                let got = interrupted(
                    &specs,
                    &window,
                    &stream,
                    cut,
                    shards_old,
                    shards_new,
                    cut == 97,
                );
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
fn restore_replay_matches_uninterrupted_time_windows() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    assert!(pcea.supports_key_partition(1));
    let specs = vec![
        ("timed_pinned".to_string(), pcea.clone(), Partition::ByQuery),
        ("timed_keyed".to_string(), pcea, Partition::ByKey { pos: 1 }),
    ];
    // Non-decreasing timestamps at attribute 0 (the time-window
    // contract), join key at attribute 1.
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
        for (shards_old, shards_new) in [(1usize, 3usize), (3, 1), (2, 2), (4, 2)] {
            let want = uninterrupted(&specs, &window, &stream, shards_old);
            for cut in [11usize, 100, 137] {
                let got = interrupted(
                    &specs,
                    &window,
                    &stream,
                    cut,
                    shards_old,
                    shards_new,
                    cut == 100,
                );
                assert_eq!(
                    got, want,
                    "duration={duration}, cut={cut}, shards {shards_old}->{shards_new}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance property as a proptest: random cut, shard counts
    /// on both sides, window size, partition mix — restored replay is
    /// multiset-identical to never having stopped.
    #[test]
    fn snapshot_restore_replay_differential(
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
        let got = interrupted(&specs, &window, &stream, cut, shards_old, shards_new, true);
        prop_assert_eq!(got, want);
    }
}

/// The no-stop-the-world acceptance test: producers ingest concurrently
/// *while* `snapshot()` runs; the receipts reveal the stamped order,
/// and the epoch position P splits it consistently — the original run
/// matches the sync oracle on the stamped order, and replaying the
/// suffix `P..` on the restored runtime reproduces exactly the
/// original's events at positions `≥ P`.
#[test]
fn snapshot_with_live_producers_cuts_consistently() {
    use std::sync::Mutex;
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 4_000);
    let window = WindowPolicy::Count(24);
    for (shards_old, shards_new, producers) in [(2usize, 3usize, 3usize), (3, 1, 4), (1, 4, 2)] {
        let mut rt = Runtime::new(RuntimeConfig::new(shards_old).with_ingest(IngestConfig {
            queue_capacity: 256, // small: real backpressure during the snapshot
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
        let snap = std::thread::scope(|scope| {
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
            // Meanwhile, in the middle of the firehose: the snapshot.
            // Producers are actively reserving/staging blocks on other
            // threads right now; nothing stops them.
            rt.snapshot().expect("snapshot under live producers")
        });
        rt.drain();
        let events_orig = sorted(sub.drain());
        let stats = rt.stats();
        assert_eq!(stats.snapshots.snapshots_taken, 1);
        assert_eq!(stats.snapshots.last_snapshot_pos, Some(snap.position()));
        assert_eq!(stats.snapshots.shard_serialize_nanos.len(), shards_old);
        drop(rt);

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

        // Oracle: the sync path over the stamped order.
        let want = uninterrupted(&specs, &window, &ordered, 1);
        assert_eq!(events_orig, want, "original run ≡ sync replay");

        // The epoch cut: replaying the suffix on the restored runtime
        // reproduces exactly the original's events at positions ≥ P.
        let p = snap.position() as usize;
        assert!(p <= ordered.len());
        let mut rt2 = Runtime::restore(&snap, shards_new).expect("restore");
        let replay = sorted(rt2.push_batch(&ordered[p..]));
        let want_suffix: Vec<MatchEvent> = want
            .iter()
            .filter(|e| e.position >= p as u64)
            .cloned()
            .collect();
        assert_eq!(
            replay, want_suffix,
            "shards {shards_old}->{shards_new}, producers={producers}, P={p}"
        );
    }
}

/// Replace with a recompiled *identical* query must be invisible: the
/// differential hot-swap acceptance check, including a partial match
/// opened before the swap and completed after it (state handoff, not
/// deregister+register).
#[test]
fn replace_with_identical_query_is_invisible() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 200);
    let window = WindowPolicy::Count(50);
    for shards in [1usize, 3] {
        let want = uninterrupted(&specs, &window, &stream, shards);
        let mut rt = Runtime::new(shards);
        let ids = register_all(&mut rt, &specs, &window);
        let mut events = rt.push_batch(&stream[..90]);
        // Recompile each query from source and hand over the state.
        let mut schema2 = Schema::new();
        let fresh = spec_set(&mut schema2);
        for (id, (name, pcea, partition)) in ids.iter().zip(&fresh) {
            rt.replace(
                *id,
                QuerySpec::new(format!("{name}_v2"), pcea.clone(), window.clone())
                    .with_partition(*partition),
            )
            .unwrap();
        }
        events.extend(rt.push_batch(&stream[90..]));
        assert_eq!(sorted(events), want, "shards={shards}");
        assert_eq!(rt.query_name(ids[0]), Some("q0_pinned_v2"));
    }
}

/// A predicate-only recompile swaps exactly at the call's position:
/// tuples stamped before it fire under the old threshold, after it
/// under the new one — and a run opened before the swap completes
/// under the new automaton (the handoff carries partial state).
#[test]
fn replace_swaps_predicates_at_the_call_position() {
    let mut schema = Schema::new();
    let a = schema.add_relation("A", 1).unwrap();
    let b = schema.add_relation("B", 1).unwrap();
    let dot = LabelSet::singleton(Label(0));
    // A(x) with x >= threshold, then B(y) with y == x.
    let build = |threshold: i64| {
        let mut builder = PceaBuilder::new(1);
        let q0 = builder.add_state();
        let q1 = builder.add_state();
        builder.add_initial_transition(
            UnaryPredicate::Relation(a).and(UnaryPredicate::Cmp {
                pos: 0,
                op: CmpOp::Ge,
                value: Value::Int(threshold),
            }),
            dot,
            q0,
        );
        builder.add_transition(
            vec![(q0, EqPredicate::on_positions(a, [0usize], b, [0usize]))],
            UnaryPredicate::Relation(b),
            dot,
            q1,
        );
        builder.mark_final(q1);
        builder.build()
    };
    let mut rt = Runtime::new(2);
    let id = rt
        .register(QuerySpec::new("gate5", build(5), WindowPolicy::Count(100)))
        .unwrap();
    let tup_a = |v: i64| Tuple::new(a, vec![Value::Int(v)]);
    let tup_b = |v: i64| Tuple::new(b, vec![Value::Int(v)]);
    // Before the swap: A(5) and A(9) open runs under threshold 5.
    let pre = rt.push_batch(&[tup_a(5), tup_a(9)]);
    assert!(pre.is_empty());
    rt.replace(
        id,
        QuerySpec::new("gate8", build(8), WindowPolicy::Count(100)),
    )
    .unwrap();
    // After the swap: A(6) is rejected by the *new* threshold, but the
    // pre-swap A(5) run was handed over and still completes on B(5).
    let post = rt.push_batch(&[tup_a(6), tup_b(5), tup_b(9), tup_b(6)]);
    let positions: Vec<u64> = post.iter().map(|e| e.position).collect();
    assert_eq!(positions, vec![3, 4], "B(5) and B(9) complete, B(6) not");
    assert_eq!(rt.query_name(id), Some("gate8"));
}

#[test]
fn replace_rejects_incompatible_handoffs_and_leaves_state_intact() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 120);
    let window = WindowPolicy::Count(30);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &window);
    let mut events = rt.push_batch(&stream[..60]);
    let (name0, pcea0, _) = &specs[0];

    // Unknown / retired id.
    assert!(matches!(
        rt.replace(
            QueryId(99),
            QuerySpec::new("x", pcea0.clone(), window.clone())
        ),
        Err(Error::UnknownQuery { .. })
    ));
    // Different skeleton (another query's automaton).
    assert!(matches!(
        rt.replace(
            ids[0],
            QuerySpec::new("skel", specs[2].1.clone(), window.clone())
        ),
        Err(Error::ReplaceIncompatible { .. })
    ));
    // Window kind change.
    assert!(matches!(
        rt.replace(
            ids[0],
            QuerySpec::new(
                "kind",
                pcea0.clone(),
                WindowPolicy::Time {
                    duration: 5,
                    ts_pos: 0
                }
            )
        ),
        Err(Error::ReplaceIncompatible { .. })
    ));
    // Partition change.
    assert!(matches!(
        rt.replace(
            ids[0],
            QuerySpec::new("part", pcea0.clone(), window.clone())
                .with_partition(Partition::ByKey { pos: 0 })
        ),
        Err(Error::ReplaceIncompatible { .. })
    ));
    // The rejected swaps left everything untouched: the run continues
    // exactly like an undisturbed one.
    assert_eq!(rt.query_name(ids[0]), Some(name0.as_str()));
    events.extend(rt.push_batch(&stream[60..]));
    let want = uninterrupted(&specs, &window, &stream, 2);
    assert_eq!(sorted(events), want);
}

/// Window resize within a kind is accepted; widening converges (runs
/// pruned under the old bound stay gone, new spans use the new bound).
#[test]
fn replace_resizes_windows_within_a_kind() {
    let mut schema = Schema::new();
    let pat = pattern_to_pcea(&mut schema, "A(x) ; B(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let tup_a = |v: i64| Tuple::new(a, vec![Value::Int(v)]);
    let tup_b = |v: i64| Tuple::new(b, vec![Value::Int(v)]);
    let mut rt = Runtime::new(2);
    let id = rt
        .register(QuerySpec::new("w2", pat.clone(), WindowPolicy::Count(2)))
        .unwrap();
    assert!(rt.push_batch(&[tup_a(1)]).is_empty());
    rt.replace(id, QuerySpec::new("w50", pat, WindowPolicy::Count(50)))
        .unwrap();
    // Span 0..3 exceeds the old window 2 but fits the widened 50; the
    // pre-swap run survives because position 0 never expired under the
    // old bound before the swap.
    let events = rt.push_batch(&[tup_b(9), tup_b(1)]);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].position, 2);
}

/// Retired ids survive the snapshot: restored id numbering (and
/// `query_name`) lines up, and the retired id stays rejected.
#[test]
fn restore_preserves_ids_across_deregistration() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 80);
    let window = WindowPolicy::Count(20);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream[..40]);
    rt.deregister(ids[1]).unwrap();
    let snap = rt.snapshot().unwrap();
    assert_eq!(snap.num_queries(), specs.len() - 1);
    drop(rt);
    let mut rt2 = Runtime::restore(&snap, 3).unwrap();
    assert_eq!(rt2.num_queries(), specs.len() - 1);
    assert_eq!(rt2.query_name(ids[0]), Some("q0_pinned"));
    assert_eq!(rt2.query_name(ids[1]), Some("q0_keyed"), "name outlives");
    assert_eq!(
        rt2.deregister(ids[1]),
        Err(Error::UnknownQuery { id: ids[1] })
    );
    // The survivors keep evaluating, and a *new* registration gets the
    // next dense id.
    let next = rt2
        .register(QuerySpec::new("late", specs[0].1.clone(), window.clone()))
        .unwrap();
    assert_eq!(next.0 as usize, specs.len());
    let events = rt2.push_batch(&stream[40..]);
    assert!(events.iter().all(|e| e.query != ids[1]));
}

/// Restored per-query counters: positions seen before the crash are
/// preserved (summed across the new layout, not multiplied by it).
#[test]
fn restore_preserves_engine_counters_once() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 100);
    let window = WindowPolicy::Count(25);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream);
    let before = rt.stats();
    let positions_of = |stats: &RuntimeStats, id: QueryId| {
        stats
            .per_query
            .iter()
            .find(|(q, _)| *q == id)
            .map(|(_, st)| st.positions)
            .unwrap()
    };
    let snap = rt.snapshot().unwrap();
    drop(rt);
    // Restore into MORE shards: a naive restore would replicate the
    // counters per shard and overreport by the shard count.
    let rt2 = Runtime::restore(&snap, 4).unwrap();
    let after = rt2.stats();
    for &id in &ids {
        assert_eq!(
            positions_of(&after, id),
            positions_of(&before, id),
            "query {id:?}"
        );
    }
}

/// Closure predicates cannot round-trip: the snapshot fails up front,
/// before any shard is fenced.
#[test]
fn snapshot_rejects_closure_predicates() {
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
    let mut rt = Runtime::new(2);
    rt.register(QuerySpec::new(
        "custom",
        builder.build(),
        WindowPolicy::Count(5),
    ))
    .unwrap();
    rt.push(&Tuple::new(a, vec![Value::Int(1)]));
    assert!(matches!(rt.snapshot(), Err(Error::Wire(_))));
    // The runtime is unharmed by the refused snapshot.
    let events = rt.push(&Tuple::new(a, vec![Value::Int(2)]));
    assert_eq!(events.len(), 1);
    assert_eq!(rt.stats().snapshots.snapshots_taken, 0);
}

/// A runtime restored from a ByKey time-window snapshot whose shard
/// replicas clamped out-of-order timestamps *differently* must itself
/// remain snapshottable: the restore-time clock merge re-clamps the
/// interleaved ring (regression test — raw interleaving produced a
/// ring the decoder rejects, making second-generation snapshots
/// unrestorable).
#[test]
fn restored_runtime_resnapshots_after_out_of_order_timestamps() {
    let mut schema = Schema::new();
    let q = parse_query(&mut schema, "Q(ta, tb, x) <- A(ta, x), B(tb, x)").unwrap();
    let pcea = compile_hcq(&schema, &q).unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let b = schema.relation("B").unwrap();
    let specs = vec![("timed_keyed".to_string(), pcea, Partition::ByKey { pos: 1 })];
    // Deliberate timestamp-contract violations, spread across keys so
    // different shard replicas clamp at different floors.
    let stream: Vec<Tuple> = (0..60)
        .map(|i| {
            let rel = if i % 2 == 0 { a } else { b };
            let ts = if i % 7 == 3 { 0 } else { i as i64 };
            Tuple::new(rel, vec![Value::Int(ts), Value::Int((i % 5) as i64)])
        })
        .collect();
    let window = WindowPolicy::Time {
        duration: 20,
        ts_pos: 0,
    };
    let mut rt = Runtime::new(3);
    register_all(&mut rt, &specs, &window);
    rt.push_batch(&stream);
    assert!(
        rt.stats().ts_regressions() > 0,
        "the stream must violate the timestamp contract"
    );
    let snap = rt.snapshot().unwrap();
    drop(rt);
    let mut rt2 = Runtime::restore(&snap, 2).expect("first restore");
    rt2.push_batch(&stream[..10]);
    let bytes = rt2.snapshot().unwrap().to_bytes().unwrap();
    let rt3 = Runtime::restore(&Snapshot::from_bytes(&bytes).unwrap(), 4)
        .expect("second-generation snapshot restores too");
    assert_eq!(rt3.num_queries(), 1);
}

/// A bit-rotted (or crafted) snapshot must error out of `restore`, not
/// panic: here the epoch-position header is rewound below the captured
/// state, which `Snapshot::from_bytes` cannot see (blobs are opaque)
/// but `Runtime::restore` must reject.
#[test]
fn restore_rejects_position_behind_captured_state() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 50);
    let mut rt = Runtime::new(2);
    register_all(&mut rt, &specs, &WindowPolicy::Count(10));
    rt.push_batch(&stream);
    let mut bytes = rt.snapshot().unwrap().to_bytes().unwrap();
    // Header layout: 8 magic bytes, 4 version bytes, then the epoch
    // position as a little-endian u64 — rewind it to 1.
    bytes[12..20].copy_from_slice(&1u64.to_le_bytes());
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.position(), 1);
    assert!(matches!(Runtime::restore(&snap, 2), Err(Error::Wire(_))));
}

/// Query definitions round-trip through snapshot bytes: the restored
/// runtime re-registers from the decoded specs, and those specs are
/// inspectable via `Snapshot::query_specs`.
#[test]
fn definitions_roundtrip_through_bytes() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let mut rt = Runtime::new(2);
    let ids = register_all(&mut rt, &specs, &WindowPolicy::Count(7));
    let bytes = rt.snapshot().unwrap().to_bytes().unwrap();
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let decoded: Vec<(QueryId, String, Partition, WindowPolicy)> = snap
        .query_specs()
        .map(|(id, spec)| (id, spec.name.clone(), spec.partition, spec.window.clone()))
        .collect();
    let want: Vec<(QueryId, String, Partition, WindowPolicy)> = ids
        .iter()
        .zip(&specs)
        .map(|(&id, (name, _, partition))| (id, name.clone(), *partition, WindowPolicy::Count(7)))
        .collect();
    assert_eq!(decoded, want);
}
