//! Matches leave a shard worker in chunks (`runtime.rs`), cross the
//! subscription channel in chunks (`ingest/subscribe.rs`) and are taken
//! by consumers in chunks (`Subscription::recv_all`). None of that may
//! be visible in *what* a subscriber receives: against the independent
//! per-query evaluator, every subscriber still sees exactly the oracle's
//! matches, in position order within a query —
//!
//! * through `Block` channels smaller than a chunk (capacity 1 and 3:
//!   the publisher parks mid-chunk and resumes as the consumer takes);
//! * through a `DropNewest` channel, which keeps the head that fits and
//!   counts exactly the overflow;
//! * for an `All` and a `Query(id)` subscriber side by side (identical
//!   per-query sequences);
//! * when a subscription is dropped, or the runtime shut down, under a
//!   publisher parked mid-chunk;
//! * and `drain()` returns only once the last, partial chunk is in the
//!   channel.

use pcea::prelude::*;
use std::time::Duration;

const LONG: Duration = Duration::from_secs(60);

/// Two pinned queries over one schema: a three-arm star whose hub
/// tuples complete hundreds of matches each (more than one chunk per
/// drained batch) and the sparser σ0 join.
fn query_set(schema: &mut Schema) -> Vec<(&'static str, Pcea)> {
    let star = parse_query(schema, "QS(x, y1, y2) <- A0(x), A1(x, y1), A2(x, y2)").unwrap();
    let star = compile_hcq(schema, &star).unwrap().pcea;
    let q0 = parse_query(schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
    let q0 = compile_hcq(schema, &q0).unwrap().pcea;
    vec![("star", star), ("q0", q0)]
}

/// Deterministic dense stream over all relations of `schema`, three
/// values per attribute, so joins are frequent.
fn dense_stream(schema: &Schema, n: usize) -> Vec<Tuple> {
    let rels: Vec<_> = schema.relations().collect();
    (0..n as u64)
        .map(|i| {
            // A multiplicative hash decorrelates relation and values.
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
            let rel = rels[h as usize % rels.len()];
            let values = (0..schema.arity(rel))
                .map(|k| Value::Int((h >> (8 + 4 * k) & 0xF) as i64 % 3))
                .collect();
            Tuple::new(rel, values)
        })
        .collect()
}

const WINDOW: WindowPolicy = WindowPolicy::Count(64);

/// The oracle: one independent evaluator per query, tuple at a time.
/// Sorted `(position, valuation)` per query, in registration order.
fn oracle(queries: &[(&str, Pcea)], stream: &[Tuple]) -> Vec<Vec<(u64, Valuation)>> {
    queries
        .iter()
        .map(|(_, pcea)| {
            let mut engine = StreamingEvaluator::with_window(pcea.clone(), WINDOW);
            let mut out = Vec::new();
            for (n, t) in stream.iter().enumerate() {
                out.extend(engine.push_collect(t).into_iter().map(|v| (n as u64, v)));
            }
            out.sort();
            out
        })
        .collect()
}

fn runtime(shards: usize, queries: &[(&str, Pcea)]) -> (Runtime, Vec<QueryId>) {
    let mut rt = Runtime::new(shards);
    let ids = queries
        .iter()
        .map(|(name, pcea)| {
            rt.register(QuerySpec::new(*name, pcea.clone(), WINDOW))
                .unwrap()
        })
        .collect();
    (rt, ids)
}

/// One query's events in the order the subscriber received them, after
/// checking that order is by position.
fn sequence_of(events: &[MatchEvent], q: QueryId) -> Vec<(u64, Valuation)> {
    let seq: Vec<(u64, Valuation)> = events
        .iter()
        .filter(|e| e.query == q)
        .map(|e| (e.position, e.valuation.clone()))
        .collect();
    assert!(
        seq.windows(2).all(|w| w[0].0 <= w[1].0),
        "a query's events arrive in position order"
    );
    seq
}

fn assert_matches_oracle(events: &[MatchEvent], ids: &[QueryId], want: &[Vec<(u64, Valuation)>]) {
    for (id, want) in ids.iter().zip(want) {
        let mut got = sequence_of(events, *id);
        got.sort();
        assert_eq!(&got, want, "query {id:?}");
    }
    assert_eq!(events.len(), want.iter().map(Vec::len).sum::<usize>());
}

/// The queries, a 400-tuple stream and what the oracle says it yields.
struct Fixture {
    queries: Vec<(&'static str, Pcea)>,
    stream: Vec<Tuple>,
    /// Per query, in registration order.
    want: Vec<Vec<(u64, Valuation)>>,
    /// All matches, every query.
    total: usize,
}

fn fixture() -> Fixture {
    let mut schema = Schema::new();
    let queries = query_set(&mut schema);
    let stream = dense_stream(&schema, 400);
    let want = oracle(&queries, &stream);
    let total: usize = want.iter().map(Vec::len).sum();
    assert!(total > 2_000, "the stream must fan out ({total} matches)");
    Fixture {
        queries,
        stream,
        want,
        total,
    }
}

#[test]
fn block_channels_smaller_than_a_chunk_deliver_exactly_the_oracle() {
    let Fixture {
        queries,
        stream,
        want,
        total,
    } = fixture();
    for capacity in [1usize, 3] {
        for shards in [1usize, 2] {
            let (rt, ids) = runtime(shards, &queries);
            let sub =
                rt.subscribe_with(SubscriptionFilter::All, capacity, BackpressurePolicy::Block);
            let handle = rt.ingest_handle();
            let events = std::thread::scope(|s| {
                // The consumer alternates the single-event call and the
                // take-everything call; the channel never holds more
                // than `capacity`, so the publisher parks all the time.
                let consumer = s.spawn(|| {
                    let mut got = Vec::with_capacity(total);
                    while got.len() < total {
                        if got.len() % 2 == 0 {
                            got.extend(sub.recv_timeout(LONG));
                        } else {
                            assert!(sub.recv_all(LONG, &mut got) <= capacity);
                        }
                    }
                    got
                });
                for batch in stream.chunks(97) {
                    assert_eq!(handle.push_batch(batch).unwrap().dropped, 0);
                }
                rt.drain();
                consumer.join().unwrap()
            });
            assert!(sub.is_empty());
            assert_eq!(sub.dropped(), 0);
            assert_matches_oracle(&events, &ids, &want);
        }
    }
}

#[test]
fn drop_newest_keeps_the_head_and_counts_exactly_the_overflow() {
    let Fixture {
        queries,
        stream,
        want,
        total,
    } = fixture();
    for capacity in [1usize, 100, 1000, total, total + 5] {
        let (rt, ids) = runtime(1, &queries);
        let lossy = rt.subscribe_with(
            SubscriptionFilter::All,
            capacity,
            BackpressurePolicy::DropNewest,
        );
        let lossless = rt.subscribe_with(
            SubscriptionFilter::All,
            usize::MAX,
            BackpressurePolicy::Block,
        );
        for batch in stream.chunks(97) {
            rt.ingest_handle().push_batch(batch).unwrap();
        }
        rt.drain();
        let all = lossless.drain();
        assert_matches_oracle(&all, &ids, &want);
        let kept = capacity.min(total);
        assert_eq!(
            lossy.dropped(),
            (total - kept) as u64,
            "capacity {capacity}"
        );
        // One shard publishes the same chunks to both channels, so the
        // lossy one holds exactly the head of the lossless sequence.
        assert_eq!(lossy.drain(), all[..kept], "capacity {capacity}");
    }
}

#[test]
fn all_and_query_subscribers_see_identical_per_query_sequences() {
    let Fixture {
        queries,
        stream,
        want,
        ..
    } = fixture();
    for shards in [1usize, 2, 4] {
        let (rt, ids) = runtime(shards, &queries);
        let unbounded = |filter| rt.subscribe_with(filter, usize::MAX, BackpressurePolicy::Block);
        // The filtered subscriber sits before, and after, an `All` one:
        // it is served once from clones and once from the moved chunk.
        let first_only = unbounded(SubscriptionFilter::Query(ids[0]));
        let all = unbounded(SubscriptionFilter::All);
        let second_only = unbounded(SubscriptionFilter::Query(ids[1]));
        for batch in stream.chunks(61) {
            rt.ingest_handle().push_batch(batch).unwrap();
        }
        rt.drain();
        let all = all.drain();
        assert_matches_oracle(&all, &ids, &want);
        // Pinned queries have one publishing shard each, so the order —
        // not just the multiset — is the same on every channel.
        let first_only = first_only.drain();
        assert!(first_only.iter().all(|e| e.query == ids[0]));
        assert_eq!(sequence_of(&first_only, ids[0]), sequence_of(&all, ids[0]));
        let second_only = second_only.drain();
        assert!(second_only.iter().all(|e| e.query == ids[1]));
        assert_eq!(sequence_of(&second_only, ids[1]), sequence_of(&all, ids[1]));
    }
}

/// Spin until `sub` is full: with far more than `capacity` matches on
/// their way, its publisher is then parked mid-chunk or about to be.
fn wait_full(sub: &Subscription, capacity: usize) {
    while sub.len() < capacity {
        std::thread::yield_now();
    }
}

#[test]
fn dropping_a_subscription_under_a_parked_publisher_releases_it() {
    let Fixture {
        queries,
        stream,
        want,
        ..
    } = fixture();
    let (rt, ids) = runtime(1, &queries);
    let stalled = rt.subscribe_with(SubscriptionFilter::All, 2, BackpressurePolicy::Block);
    let collector = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    rt.ingest_handle().push_batch(&stream).unwrap();
    wait_full(&stalled, 2);
    drop(stalled);
    // The fence would hang if the worker stayed parked; the subscriber
    // behind the dropped one still receives every chunk whole.
    rt.drain();
    assert_matches_oracle(&collector.drain(), &ids, &want);
}

#[test]
fn shutdown_under_a_parked_publisher_keeps_queued_events_readable() {
    let Fixture {
        queries,
        stream,
        want,
        ..
    } = fixture();
    let (rt, ids) = runtime(1, &queries);
    let sub = rt.subscribe_with(SubscriptionFilter::All, 3, BackpressurePolicy::Block);
    rt.ingest_handle().push_batch(&stream).unwrap();
    wait_full(&sub, 3);
    // Closes the channels under the parked worker, then joins it.
    drop(rt);
    let kept = sub.drain();
    assert_eq!(kept.len(), 3);
    for e in &kept {
        let k = ids.iter().position(|id| *id == e.query).unwrap();
        assert!(want[k].contains(&(e.position, e.valuation.clone())));
    }
    assert!(sub.recv_timeout(LONG).is_none(), "closed and empty");
}

#[test]
fn drain_returns_only_after_the_last_chunk_is_in_the_channel() {
    let Fixture {
        queries, stream, ..
    } = fixture();
    let (rt, _) = runtime(2, &queries);
    let sub = rt.subscribe_with(
        SubscriptionFilter::All,
        usize::MAX,
        BackpressurePolicy::Block,
    );
    let mut fed = 0;
    // Fences at uneven cuts: whatever partial chunk a worker holds when
    // its queue runs dry must already be delivered when `drain` returns.
    for step in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 169] {
        rt.ingest_handle()
            .push_batch(&stream[fed..fed + step])
            .unwrap();
        fed += step;
        rt.drain();
        let want: usize = oracle(&queries, &stream[..fed]).iter().map(Vec::len).sum();
        assert_eq!(sub.len(), want, "after {fed} tuples");
    }
    assert_eq!(fed, stream.len());
}
