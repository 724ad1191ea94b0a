//! Differential and liveness tests for the asynchronous ingestion
//! pipeline: events delivered through subscriptions after `drain()`
//! must equal the synchronous `push_batch` output on the same stream —
//! for every shard count, both partition modes, and both window kinds —
//! and a stalled subscriber must never block producers under
//! `BackpressurePolicy::DropNewest`.
//!
//! For the striped sequencer, the property generalizes to *concurrent*
//! producers: the stamped global order is nondeterministic, but the
//! producers' receipts reveal it, so the proptest differential
//! reconstructs the stamped stream and replays it through the
//! synchronous path — outputs must agree exactly, across shard counts,
//! producer counts, partition modes and both window kinds. Shutdown
//! liveness (dropping a runtime under a live, undrained `Block`
//! subscription) and `DropNewest` accounting through the reorder stage
//! (including `queue_capacity` 0 and 1) are covered here too.

use pcea::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Deterministic dense stream over all relations of `schema`, one value
/// domain per attribute position.
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

/// The four-query spec set shared with `runtime_differential.rs`.
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

/// Events delivered through subscriptions when the stream is fed by an
/// `IngestHandle` producer thread, collected after `drain()`. Also
/// checks that a per-query subscription receives exactly its slice.
fn async_events(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    shards: usize,
) -> Vec<MatchEvent> {
    let mut rt = Runtime::new(shards);
    let ids = register_all(&mut rt, specs, window);
    // Unbounded lossless collectors: the fence below requires either a
    // concurrent consumer or enough capacity.
    let all = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    let one = rt.subscribe_with(
        SubscriptionFilter::Query(ids[0]),
        usize::MAX,
        BackpressurePolicy::Block,
    );
    let handle = rt.ingest_handle();
    let producer = {
        let stream = stream.to_vec();
        std::thread::spawn(move || {
            for chunk in stream.chunks(17) {
                let receipt = handle.push_batch(chunk).unwrap();
                assert_eq!(receipt.dropped, 0, "Block never drops");
            }
        })
    };
    producer.join().unwrap();
    rt.drain();
    let events = sorted(all.drain());
    let filtered = sorted(one.drain());
    let want_first: Vec<&MatchEvent> = events.iter().filter(|e| e.query == ids[0]).collect();
    assert_eq!(
        filtered.iter().collect::<Vec<_>>(),
        want_first,
        "per-query subscription sees exactly its query's events"
    );
    events
}

/// Synchronous reference on an identical runtime.
fn sync_events(
    specs: &[(String, Pcea, Partition)],
    window: &WindowPolicy,
    stream: &[Tuple],
    shards: usize,
) -> Vec<MatchEvent> {
    let mut rt = Runtime::new(shards);
    register_all(&mut rt, specs, window);
    sorted(rt.push_batch(stream))
}

#[test]
fn subscriptions_match_sync_push_batch_count_windows() {
    let mut schema = Schema::new();
    let specs = spec_set(&mut schema);
    let stream = mixed_stream(&schema, 400);
    let mut any_events = false;
    for w in [0u64, 3, 16, 1000] {
        let window = WindowPolicy::Count(w);
        for shards in [1usize, 2, 4, 8] {
            let want = sync_events(&specs, &window, &stream, shards);
            let got = async_events(&specs, &window, &stream, shards);
            assert_eq!(got, want, "w={w}, shards={shards}");
            any_events |= !want.is_empty();
        }
    }
    assert!(any_events, "the workload must produce matches somewhere");
}

#[test]
fn subscriptions_match_sync_push_batch_time_windows() {
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
    let stream: Vec<Tuple> = (0..300)
        .map(|i| {
            let rel = if (i / 3) % 2 == 0 { a } else { b };
            Tuple::new(rel, vec![Value::Int(i as i64), Value::Int((i % 3) as i64)])
        })
        .collect();
    for duration in [0i64, 4, 25, 10_000] {
        let window = WindowPolicy::Time {
            duration,
            ts_pos: 0,
        };
        for shards in [1usize, 3, 8] {
            let want = sync_events(&specs, &window, &stream, shards);
            let got = async_events(&specs, &window, &stream, shards);
            assert_eq!(got, want, "duration={duration}, shards={shards}");
        }
    }
}

/// Concurrent producers: positions interleave nondeterministically, but
/// the sequencer must stamp a gap-free range and a single-atom query
/// (order-independent) must fire once per matching tuple.
#[test]
fn concurrent_producers_lose_nothing_under_block() {
    let mut schema = Schema::new();
    let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let per_producer = 2_000usize;
    let producers = 4usize;
    let mut rt = Runtime::new(RuntimeConfig::new(3).with_ingest(IngestConfig {
        queue_capacity: 64, // tiny: forces real backpressure
        policy: BackpressurePolicy::Block,
        ..IngestConfig::default()
    }));
    let q = rt
        .register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(8)))
        .unwrap();
    let sub = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    std::thread::scope(|scope| {
        for p in 0..producers {
            let handle = rt.ingest_handle();
            scope.spawn(move || {
                for i in 0..per_producer {
                    let t = Tuple::new(a, vec![Value::Int((p * per_producer + i) as i64)]);
                    handle.push(&t).unwrap();
                }
            });
        }
    });
    rt.drain();
    assert_eq!(rt.next_position(), (producers * per_producer) as u64);
    let events = sub.drain();
    assert_eq!(events.len(), producers * per_producer);
    assert!(events.iter().all(|e| e.query == q));
    // Gap-free stamping: every position fired exactly once.
    let mut positions: Vec<u64> = events.iter().map(|e| e.position).collect();
    positions.sort_unstable();
    assert!(positions.iter().enumerate().all(|(i, &p)| p == i as u64));
    let stats = rt.stats();
    assert!(stats.shard_queues.iter().all(|qs| qs.dropped == 0));
    assert!(stats.shard_queues.iter().any(|qs| qs.high_water > 0));
}

/// The acceptance property: a deliberately stalled subscriber never
/// blocks `IngestHandle` producers under `DropNewest`.
#[test]
fn stalled_subscriber_never_blocks_producers_under_drop_newest() {
    let mut schema = Schema::new();
    let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let mut rt = Runtime::new(RuntimeConfig::new(2).with_ingest(IngestConfig {
        queue_capacity: 1 << 14,
        policy: BackpressurePolicy::DropNewest,
        ..IngestConfig::default()
    }));
    rt.register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(4)))
        .unwrap();
    // The stalled consumer: capacity 4, never drained, DropNewest on
    // its own channel so publishers shed instead of parking.
    let stalled = rt.subscribe_with(SubscriptionFilter::All, 4, BackpressurePolicy::DropNewest);
    let n = 50_000usize;
    let started = Instant::now();
    let handle = rt.ingest_handle();
    let producer = std::thread::spawn(move || {
        let batch: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(a, vec![Value::Int(i as i64)]))
            .collect();
        let mut dropped = 0u64;
        for chunk in batch.chunks(512) {
            dropped += handle.push_batch(chunk).unwrap().dropped;
        }
        dropped
    });
    // The producer must finish promptly even though nobody consumes:
    // DropNewest never parks it on the queues, and the stalled
    // subscriber sheds on its own channel.
    let ingest_dropped = producer.join().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "producer stalled for {elapsed:?}"
    );
    rt.drain();
    // The stalled channel kept its first 4 events and counted the shed.
    assert_eq!(stalled.len(), 4);
    assert!(stalled.dropped() > 0, "the stalled channel must have shed");
    let delivered = stalled.len() as u64 + stalled.dropped();
    let stats = rt.stats();
    let queue_dropped: u64 = stats.shard_queues.iter().map(|qs| qs.dropped).sum();
    assert_eq!(queue_dropped, ingest_dropped);
    // Every tuple was either evaluated (then delivered or shed at the
    // subscriber) or dropped at an ingest queue.
    assert_eq!(delivered + queue_dropped, n as u64);
}

/// Regression (shutdown hang): dropping a `Runtime` while a live, full
/// `Block` subscription is parked on must terminate. Before the striped
/// sequencer PR, the shard worker sat in `SubQueue::offer` forever —
/// `IngestShared::close` closed the shard queues but never the
/// subscriber channels — and `Drop` hung joining the worker.
#[test]
fn dropping_runtime_with_full_block_subscriber_terminates() {
    let mut schema = Schema::new();
    let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let mut rt = Runtime::new(1);
    rt.register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(4)))
        .unwrap();
    // Capacity-1 lossless channel, never drained: the worker delivers
    // one event, then parks in offer() on the second.
    let sub = rt.subscribe_with(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
    let handle = rt.ingest_handle();
    let tuples: Vec<Tuple> = (0..8).map(|i| Tuple::new(a, vec![Value::Int(i)])).collect();
    handle.push_batch(&tuples).unwrap();
    // Give the worker time to wedge on the full subscription.
    while sub.is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(rt);
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
        "Runtime::drop hung on a worker parked in a full Block subscription"
    );
    dropper.join().unwrap();
    // The event queued before the close is still readable; the pipeline
    // is gone for producers.
    assert_eq!(sub.drain().len(), 1);
    assert!(sub.recv_timeout(Duration::from_millis(1)).is_none());
    assert_eq!(
        handle.push(&tuples[0]),
        Err(Error::RuntimeClosed),
        "handles fail fast after the drop"
    );
}

/// Late subscribers only see events published after they subscribe —
/// and handles outliving the runtime fail fast instead of hanging.
#[test]
fn late_subscription_and_closed_runtime() {
    let mut schema = Schema::new();
    let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let tuples: Vec<Tuple> = (0..10)
        .map(|i| Tuple::new(a, vec![Value::Int(i)]))
        .collect();
    let mut rt = Runtime::new(2);
    let q = rt
        .register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(4)))
        .unwrap();
    let handle = rt.ingest_handle();
    handle.push_batch(&tuples[..6]).unwrap();
    rt.drain();
    let late = rt.subscribe(SubscriptionFilter::Query(q));
    handle.push_batch(&tuples[6..]).unwrap();
    rt.drain();
    let events = late.drain();
    assert_eq!(events.len(), 4, "only the post-subscription suffix");
    assert!(events.iter().all(|e| e.position >= 6));
    // recv_timeout drains nothing further and times out cleanly.
    assert!(late.recv_timeout(Duration::from_millis(10)).is_none());
    let stats = rt.shutdown();
    assert_eq!(stats.per_query.len(), 1);
    assert_eq!(stats.per_query[0].1.positions, 10);
    assert_eq!(
        handle.push(&tuples[0]),
        Err(Error::RuntimeClosed),
        "handles outliving the runtime fail fast"
    );
}

/// One producer's record of what it pushed: each receipt's stamped
/// start position plus the chunk it covered, enough to reconstruct the
/// nondeterministic global stamped order after the fact.
type ProducerLog = Vec<(u64, Vec<Tuple>)>;

/// Drive `producers` concurrent `IngestHandle`s over disjoint slices of
/// `stream` (chunked by `chunk`), collect every event after `drain()`,
/// and reconstruct the stamped global order from the receipts.
fn concurrent_ingest(
    rt: &mut Runtime,
    stream: &[Tuple],
    producers: usize,
    chunk: usize,
) -> (Vec<MatchEvent>, Vec<Tuple>) {
    let sub = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    let per = stream.len().div_ceil(producers).max(1);
    let logs: Vec<ProducerLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(per)
            .map(|slice| {
                let handle = rt.ingest_handle();
                scope.spawn(move || {
                    let mut log: ProducerLog = Vec::new();
                    for batch in slice.chunks(chunk.max(1)) {
                        let receipt = handle.push_batch(batch).unwrap();
                        assert_eq!(receipt.dropped, 0, "Block never drops");
                        assert_eq!(
                            receipt.positions.end - receipt.positions.start,
                            batch.len() as u64,
                            "receipts stamp exactly the batch"
                        );
                        log.push((receipt.positions.start, batch.to_vec()));
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    rt.drain();
    // Rebuild the stamped order: every position must be covered exactly
    // once (gap-free striped reservation).
    let mut stamped: Vec<Option<Tuple>> = vec![None; stream.len()];
    for (start, batch) in logs.into_iter().flatten() {
        for (k, t) in batch.into_iter().enumerate() {
            let slot = &mut stamped[start as usize + k];
            assert!(
                slot.is_none(),
                "position {} stamped twice",
                start as usize + k
            );
            *slot = Some(t);
        }
    }
    let stamped: Vec<Tuple> = stamped
        .into_iter()
        .map(|t| t.expect("every position stamped"))
        .collect();
    (sorted(sub.drain()), stamped)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The striped-sequencer differential: events delivered by a
    /// runtime fed from concurrent producers equal the synchronous
    /// `push_batch` output on the *reconstructed stamped order* — same
    /// positions, same valuations — across shard counts, producer
    /// counts, producer batch sizes, partition modes and both window
    /// kinds. This is the multiset-equivalence guarantee of the
    /// `cer_core::ingest` module docs, checked end to end through the
    /// block reservation, out-of-lock routing and reorder stages.
    #[test]
    fn concurrent_producers_match_sync_on_stamped_order(
        shards_idx in 0..4usize,
        producers in 1..5usize,
        chunk_idx in 0..3usize,
        window_idx in 0..4usize,
        stream_len in 60..240usize,
    ) {
        let shards = [1usize, 2, 4, 8][shards_idx];
        let chunk = [1usize, 7, 32][chunk_idx];
        let mut schema = Schema::new();
        let specs = spec_set(&mut schema);
        // Time windows need a timestamp attribute; attribute 0 of every
        // spec-set relation is an integer. Concurrent producers stamp
        // interleavings that break timestamp monotonicity — exactly the
        // clamp-hazard regime — but sync replay on the *same* stamped
        // order sees the same clamps, so outputs still agree.
        let window = [
            WindowPolicy::Count(4),
            WindowPolicy::Count(1_000),
            WindowPolicy::Time { duration: 6, ts_pos: 0 },
            WindowPolicy::Time { duration: 10_000, ts_pos: 0 },
        ][window_idx].clone();
        let stream = mixed_stream(&schema, stream_len);

        let mut rt = Runtime::new(shards);
        register_all(&mut rt, &specs, &window);
        let (got, stamped) = concurrent_ingest(&mut rt, &stream, producers, chunk);
        drop(rt);

        let want = sync_events(&specs, &window, &stamped, shards);
        prop_assert_eq!(
            got, want,
            "shards={}, producers={}, chunk={}, window={:?}",
            shards, producers, chunk, window
        );
    }

    /// `DropNewest` accounting through the reorder stage: every tuple is
    /// either evaluated (and delivered to the lossless collector) or
    /// counted dropped — by both the receipts and the queue stats — for
    /// tiny capacities including the 0 and 1 edge cases.
    #[test]
    fn drop_newest_accounting_with_tiny_capacities(
        capacity in prop_oneof![Just(0usize), Just(1), Just(2), Just(13), Just(1 << 12)],
        shards in 1..4usize,
        producers in 1..4usize,
    ) {
        let mut schema = Schema::new();
        let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
        let a = schema.relation("A").unwrap();
        let mut rt = Runtime::new(RuntimeConfig::new(shards).with_ingest(IngestConfig {
            queue_capacity: capacity,
            policy: BackpressurePolicy::DropNewest,
            ..IngestConfig::default()
        }));
        let q = rt
            .register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(4)))
            .unwrap();
        let sub = rt.subscribe_with(
            SubscriptionFilter::All,
            usize::MAX,
            BackpressurePolicy::Block,
        );
        let n = 600usize;
        let per = n.div_ceil(producers);
        let receipt_dropped: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let handle = rt.ingest_handle();
                    scope.spawn(move || {
                        let mut dropped = 0u64;
                        for i in 0..per {
                            let t = Tuple::new(a, vec![Value::Int((p * per + i) as i64)]);
                            dropped += handle
                                .push_batch(std::slice::from_ref(&t))
                                .unwrap()
                                .dropped;
                        }
                        dropped
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        rt.drain();
        let events = sub.drain();
        prop_assert!(events.iter().all(|e| e.query == q));
        let stats = rt.stats();
        let queue_dropped: u64 = stats.shard_queues.iter().map(|qs| qs.dropped).sum();
        prop_assert_eq!(queue_dropped, receipt_dropped, "receipts agree with queue stats");
        // A single-atom query fires exactly once per surviving tuple.
        prop_assert_eq!(
            events.len() as u64 + queue_dropped,
            (producers * per) as u64,
            "capacity={} shards={} producers={}",
            capacity, shards, producers
        );
        // Positions stay gap-free even when tuples are shed: dropping
        // happens after stamping.
        prop_assert_eq!(rt.next_position(), (producers * per) as u64);
    }
}

/// The reorder stage is observable under concurrent producers: blocks
/// are staged out of order, held, and released in block order — the
/// stats make that visible, and the ordered release keeps per-query
/// event positions strictly increasing per shard.
#[test]
fn reorder_stage_reports_activity_under_concurrent_producers() {
    let mut schema = Schema::new();
    let pcea = pattern_to_pcea(&mut schema, "A(x)").unwrap().pcea;
    let a = schema.relation("A").unwrap();
    let mut rt = Runtime::new(2);
    rt.register(QuerySpec::new("every_a", pcea, WindowPolicy::Count(8)))
        .unwrap();
    let n = 4_000usize;
    std::thread::scope(|scope| {
        for p in 0..4usize {
            let handle = rt.ingest_handle();
            scope.spawn(move || {
                for i in 0..n / 4 {
                    let t = Tuple::new(a, vec![Value::Int((p * n / 4 + i) as i64)]);
                    handle.push(&t).unwrap();
                }
            });
        }
    });
    rt.drain();
    let stats = rt.stats();
    let released: u64 = stats.shard_queues.iter().map(|q| q.reorder_released).sum();
    assert!(released > 0, "tuple blocks flow through the reorder stage");
    assert!(
        stats.shard_queues.iter().all(|q| q.reorder_pending == 0),
        "drained pipeline leaves nothing pending"
    );
    assert!(
        stats.shard_queues.iter().any(|q| q.reorder_high_water >= 1),
        "the reorder buffer held at least one block"
    );
}
