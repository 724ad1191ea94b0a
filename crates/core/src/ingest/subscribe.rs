//! The subscription registry: per-consumer bounded match-event channels.
//!
//! Shard workers publish the [`MatchEvent`]s they complete to the
//! registry in **chunks** (a single event is a chunk of one); each
//! subscriber owns its *own* bounded queue with its own
//! [`BackpressurePolicy`], so a slow or stalled consumer lags or drops
//! on its private channel without ever stalling ingestion (use
//! [`BackpressurePolicy::DropNewest`] for that guarantee — a `Block`
//! subscriber that never drains *will* eventually park the shard
//! workers, which is the explicit opt-in "lossless but stalling"
//! trade-off).
//!
//! One publish call costs one registry read lock and, per accepting
//! subscriber, one queue lock — whatever the chunk's size. A chunk is
//! delivered in order, and the last live subscriber receives the events
//! themselves; only earlier ones get clones. `capacity` bounds the
//! events *queued* on a channel, never the chunk: a `Block` channel
//! admits the part of a chunk that fits and parks the publisher for the
//! rest (so a capacity of 1 still delivers any chunk, one event per
//! consumer take), and a `DropNewest` channel admits what fits and
//! counts exactly the overflow as dropped.
//!
//! Wakes are paid only when someone sleeps: the queue keeps, under its
//! mutex, how many publishers are parked on a full channel and how many
//! consumers on an empty one, and signals a condvar only when its count
//! is non-zero — at most once per admitted run of events on the
//! publishing side and once per take on the consuming side.
//!
//! Subscriptions filter per query ([`SubscriptionFilter::Query`]) or
//! receive everything ([`SubscriptionFilter::All`]). Dropping a
//! [`Subscription`] closes its queue; publishers skip closed queues and
//! the registry prunes them on the next subscribe. Runtime shutdown
//! closes every channel from the other side
//! ([`SubscriptionRegistry::close_all`]) — waking publishers parked on
//! full `Block` channels so the shard workers can exit — while events
//! already queued stay readable by the consumer.

use super::BackpressurePolicy;
use crate::runtime::{MatchEvent, QueryId};
use cer_obs::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Which match events a subscription receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscriptionFilter {
    /// Every query's events.
    All,
    /// Only one query's events.
    Query(QueryId),
}

impl SubscriptionFilter {
    fn accepts(&self, q: QueryId) -> bool {
        match self {
            SubscriptionFilter::All => true,
            SubscriptionFilter::Query(id) => *id == q,
        }
    }
}

struct SubInner {
    events: VecDeque<MatchEvent>,
    dropped: u64,
    /// Publishers parked on `not_full` and consumers parked on
    /// `not_empty`. The condvars are signalled only when the matching
    /// count is non-zero, so an uncontended push or take never pays a
    /// wake.
    parked_publishers: usize,
    parked_consumers: usize,
}

struct SubQueue {
    inner: Mutex<SubInner>,
    /// Written only with `inner` held (a parked thread re-checks it
    /// under the lock, so it cannot miss the close); read without the
    /// lock by publishers asking whether anyone still listens.
    closed: AtomicBool,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
    filter: SubscriptionFilter,
}

impl SubQueue {
    fn lock(&self) -> MutexGuard<'_, SubInner> {
        self.inner.lock().expect("subscription queue poisoned")
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Close the channel and wake everyone parked on it. Never panics
    /// (it runs in `Drop`): the flag is a plain store, so a poisoned
    /// queue is closed like any other — either variant of the lock
    /// result holds the guard.
    fn close(&self) {
        let _inner = self.inner.lock();
        self.closed.store(true, Ordering::SeqCst);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Publisher side: move `staged` into the queue in order, honouring
    /// the subscriber's capacity and policy. Whatever a closed channel
    /// or `DropNewest` refuses is discarded; `staged` comes back empty.
    fn offer(&self, staged: &mut Vec<MatchEvent>) {
        if staged.is_empty() {
            return;
        }
        let mut rest = staged.drain(..);
        let mut inner = self.lock();
        while rest.len() > 0 && !self.is_closed() {
            let room = self.capacity.saturating_sub(inner.events.len());
            if room == 0 {
                match self.policy {
                    BackpressurePolicy::DropNewest => {
                        inner.dropped += rest.len() as u64;
                        break;
                    }
                    BackpressurePolicy::Block => {
                        inner.parked_publishers += 1;
                        inner = self
                            .not_full
                            .wait(inner)
                            .expect("subscription queue poisoned");
                        inner.parked_publishers -= 1;
                        continue;
                    }
                }
            }
            inner.events.extend(rest.by_ref().take(room));
            if inner.parked_consumers > 0 {
                self.not_empty.notify_all();
            }
        }
    }

    /// Consumer side: lock the queue, first waiting until `deadline`
    /// (none: not at all) for it to hold an event or be closed. A closed
    /// empty channel can never fill again (the runtime shut down), so
    /// the wait ends early instead of sleeping out the deadline.
    fn lock_when_ready(&self, deadline: Option<Instant>) -> MutexGuard<'_, SubInner> {
        let mut inner = self.lock();
        while inner.events.is_empty() && !self.is_closed() {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let Some(left) = left.filter(|l| !l.is_zero()) else {
                break;
            };
            inner.parked_consumers += 1;
            inner = self
                .not_empty
                .wait_timeout(inner, left)
                .expect("subscription queue poisoned")
                .0;
            inner.parked_consumers -= 1;
        }
        inner
    }

    /// Consumer side, after taking events out under `inner`: wake the
    /// publishers parked on the room that made.
    fn made_room(&self, inner: &SubInner) {
        if inner.parked_publishers > 0 {
            self.not_full.notify_all();
        }
    }
}

/// The shared registry of live subscriptions. Publishing takes a read
/// lock, so shard workers publish concurrently; subscribing takes the
/// write lock and prunes queues whose `Subscription` was dropped.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: RwLock<Vec<Arc<SubQueue>>>,
    /// Wall time of each [`publish`](Self::publish) call — one sample
    /// per chunk — including any park on a full `Block` subscriber
    /// channel, so a stalled lossless consumer shows up here as a fat
    /// delivery tail.
    pub delivery: Histogram,
}

impl SubscriptionRegistry {
    /// Open a subscription with the given filter, capacity (in events)
    /// and backpressure policy.
    pub fn subscribe(
        &self,
        filter: SubscriptionFilter,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Subscription {
        let queue = Arc::new(SubQueue {
            inner: Mutex::new(SubInner {
                events: VecDeque::new(),
                dropped: 0,
                parked_publishers: 0,
                parked_consumers: 0,
            }),
            closed: AtomicBool::new(false),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            filter,
        });
        let mut subs = self.subs.write().expect("subscription registry poisoned");
        subs.retain(|s| !s.is_closed());
        subs.push(queue.clone());
        Subscription { queue }
    }

    /// Publish a chunk of completed matches, in order, to every live
    /// matching subscriber, leaving `chunk` empty (its allocation is the
    /// caller's to reuse). The last live subscriber is handed the events
    /// themselves; only subscribers before it receive clones.
    pub fn publish(&self, chunk: &mut Vec<MatchEvent>) {
        if chunk.is_empty() {
            return;
        }
        let at = Instant::now();
        let subs = self.subs.read().expect("subscription registry poisoned");
        let mut live = subs.iter().filter(|s| !s.is_closed()).peekable();
        while let Some(sub) = live.next() {
            let accepts = |e: &MatchEvent| sub.filter.accepts(e.query);
            if live.peek().is_some() {
                sub.offer(&mut chunk.iter().filter(|e| accepts(e)).cloned().collect());
            } else {
                chunk.retain(accepts);
                sub.offer(chunk);
            }
        }
        drop(subs);
        chunk.clear();
        self.delivery.record_duration(at.elapsed());
    }

    /// Close every subscriber channel and wake anyone parked on it:
    /// publishers parked in [`SubQueue::offer`] on a full `Block`
    /// channel return immediately (discarding the rest of their chunk),
    /// and publishers skip closed channels afterwards. Called by the
    /// ingest pipeline's shutdown so a shard worker wedged on an
    /// undrained subscription cannot hang `Runtime::drop`. Events
    /// already queued stay readable; consumers waiting in
    /// `recv_timeout`/`recv_all` return early.
    pub fn close_all(&self) {
        let subs = self.subs.read().expect("subscription registry poisoned");
        for sub in subs.iter() {
            sub.close();
        }
    }

    /// For each query of `ids`, in order, whether any live subscriber
    /// would accept its events — lets shard workers skip enumeration
    /// and valuation cloning entirely on quiet queries. One registry
    /// read lock for the whole pass and no queue lock at all.
    pub fn listening(&self, ids: impl Iterator<Item = QueryId>, out: &mut Vec<bool>) {
        let subs = self.subs.read().expect("subscription registry poisoned");
        out.clear();
        out.extend(ids.map(|q| subs.iter().any(|s| s.filter.accepts(q) && !s.is_closed())));
    }
}

/// The consumer end of one match-event channel. Created by
/// `Runtime::subscribe`; dropping it closes the channel and publishers
/// stop delivering to it.
pub struct Subscription {
    queue: Arc<SubQueue>,
}

impl Subscription {
    /// Take one event if one is queued.
    pub fn try_recv(&self) -> Option<MatchEvent> {
        self.recv_one(None)
    }

    /// Wait up to `timeout` for one event. Returns `None` early on a
    /// closed, empty channel.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<MatchEvent> {
        self.recv_one(Some(Instant::now() + timeout))
    }

    fn recv_one(&self, deadline: Option<Instant>) -> Option<MatchEvent> {
        let mut inner = self.queue.lock_when_ready(deadline);
        let ev = inner.events.pop_front();
        if ev.is_some() {
            self.queue.made_room(&inner);
        }
        ev
    }

    /// Wait up to `timeout` for the channel to hold an event, then move
    /// *everything* queued onto the end of `out`, in order, under one
    /// lock; returns how many events that was. `0` means the timeout
    /// passed or the channel is closed and empty. The consumer's
    /// counterpart of chunked publishing: under load one call takes a
    /// whole backlog, at rest it returns single events as they arrive.
    pub fn recv_all(&self, timeout: Duration, out: &mut Vec<MatchEvent>) -> usize {
        self.take_all(Some(Instant::now() + timeout), out)
    }

    /// Take everything currently queued, without waiting.
    pub fn drain(&self) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        self.take_all(None, &mut out);
        out
    }

    fn take_all(&self, deadline: Option<Instant>, out: &mut Vec<MatchEvent>) -> usize {
        let mut inner = self.queue.lock_when_ready(deadline);
        let n = inner.events.len();
        if n > 0 {
            out.extend(inner.events.drain(..));
            self.queue.made_room(&inner);
        }
        n
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().events.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped on this channel by
    /// [`BackpressurePolicy::DropNewest`].
    pub fn dropped(&self) -> u64 {
        self.queue.lock().dropped
    }

    /// The subscription's filter.
    pub fn filter(&self) -> SubscriptionFilter {
        self.queue.filter
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Wakes a publisher parked on the full queue so it observes the
        // close instead of waiting forever.
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::valuation::Valuation;

    fn ev(q: u32, pos: u64) -> MatchEvent {
        MatchEvent {
            position: pos,
            query: QueryId(q),
            valuation: Valuation::default(),
        }
    }

    fn chunk(q: u32, positions: std::ops::Range<u64>) -> Vec<MatchEvent> {
        positions.map(|pos| ev(q, pos)).collect()
    }

    fn positions(events: &[MatchEvent]) -> Vec<u64> {
        events.iter().map(|e| e.position).collect()
    }

    fn listens(reg: &SubscriptionRegistry, q: u32) -> bool {
        let mut out = Vec::new();
        reg.listening(std::iter::once(QueryId(q)), &mut out);
        out[0]
    }

    /// Spin until a publisher is parked on `sub`'s full channel: the
    /// interleaving the parking tests need, observed rather than slept
    /// for.
    fn wait_parked(sub: &Subscription) {
        while sub.queue.lock().parked_publishers == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn filters_and_exact_drop_counting() {
        let reg = SubscriptionRegistry::default();
        let all = reg.subscribe(SubscriptionFilter::All, 2, BackpressurePolicy::DropNewest);
        let only1 = reg.subscribe(
            SubscriptionFilter::Query(QueryId(1)),
            8,
            BackpressurePolicy::DropNewest,
        );
        let mut events: Vec<MatchEvent> = (0..4).map(|pos| ev((pos % 2) as u32, pos)).collect();
        reg.publish(&mut events);
        assert!(events.is_empty(), "publish hands the chunk back empty");
        // `all` admitted the head of the chunk that fit and counted
        // exactly the overflow; `only1` saw only query 1.
        assert_eq!(all.dropped(), 2);
        assert_eq!(positions(&all.drain()), [0, 1]);
        let got = only1.drain();
        assert_eq!(positions(&got), [1, 3]);
        assert!(got.iter().all(|e| e.query == QueryId(1)));
        assert_eq!(only1.dropped(), 0);
        // A chunk into an already full channel is dropped whole.
        reg.publish(&mut chunk(0, 10..12));
        reg.publish(&mut chunk(0, 12..17));
        assert_eq!(all.dropped(), 2 + 5);
        assert_eq!(positions(&all.drain()), [10, 11]);
    }

    #[test]
    fn every_subscriber_sees_the_chunk_in_order() {
        let reg = SubscriptionRegistry::default();
        let first = reg.subscribe(SubscriptionFilter::All, 64, BackpressurePolicy::Block);
        let only1 = reg.subscribe(
            SubscriptionFilter::Query(QueryId(1)),
            64,
            BackpressurePolicy::Block,
        );
        let last = reg.subscribe(SubscriptionFilter::All, 64, BackpressurePolicy::Block);
        let sent: Vec<MatchEvent> = (0..12).map(|pos| ev((pos % 3) as u32, pos)).collect();
        reg.publish(&mut sent.clone());
        assert_eq!(first.drain(), sent);
        assert_eq!(last.drain(), sent);
        assert_eq!(positions(&only1.drain()), [1, 4, 7, 10]);
    }

    #[test]
    fn dropped_subscription_stops_receiving_and_is_pruned() {
        let reg = SubscriptionRegistry::default();
        let sub = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        assert!(listens(&reg, 0));
        drop(sub);
        assert!(!listens(&reg, 0));
        // Publishing to a closed full queue must not block.
        reg.publish(&mut chunk(0, 0..3));
        let again = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        assert_eq!(reg.subs.read().unwrap().len(), 1, "closed queue pruned");
        drop(again);
    }

    /// `capacity` bounds what is queued, not the chunk: a `Block`
    /// channel smaller than the chunk admits what fits, parks the
    /// publisher mid-chunk and resumes as the consumer takes.
    #[test]
    fn block_channel_smaller_than_the_chunk_delivers_all_of_it() {
        for capacity in [1usize, 3] {
            let reg = Arc::new(SubscriptionRegistry::default());
            let sub = reg.subscribe(SubscriptionFilter::All, capacity, BackpressurePolicy::Block);
            let publisher = {
                let reg = reg.clone();
                std::thread::spawn(move || reg.publish(&mut chunk(0, 0..10)))
            };
            wait_parked(&sub);
            assert_eq!(sub.len(), capacity, "admitted exactly what fits");
            let mut got = Vec::new();
            // Alternate the single-event and the take-everything calls.
            while got.len() < 10 {
                if got.len() % 2 == 0 {
                    got.extend(sub.recv_timeout(Duration::from_secs(30)));
                } else {
                    assert!(sub.recv_all(Duration::from_secs(30), &mut got) <= capacity);
                }
            }
            publisher.join().unwrap();
            assert_eq!(positions(&got), (0..10).collect::<Vec<_>>());
            assert!(sub.is_empty());
            assert_eq!(sub.dropped(), 0);
        }
    }

    #[test]
    fn close_all_wakes_a_publisher_parked_mid_chunk_and_keeps_queued_events() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 2, BackpressurePolicy::Block);
        // A publisher parked on the full Block channel with most of its
        // chunk still in hand (this is the shutdown-hang shape: a shard
        // worker stuck in offer()).
        let publisher = {
            let reg = reg.clone();
            std::thread::spawn(move || reg.publish(&mut chunk(0, 0..6)))
        };
        wait_parked(&sub);
        reg.close_all();
        publisher.join().unwrap();
        // The events admitted before the close stay readable; the ones
        // the parked publisher held are discarded; later publishes are
        // skipped and subscriber checks report no listeners.
        assert_eq!(positions(&sub.drain()), [0, 1]);
        reg.publish(&mut chunk(0, 6..8));
        assert!(sub.is_empty());
        assert!(!listens(&reg, 0));
        // Both waits return early on the closed empty channel.
        let t0 = Instant::now();
        assert!(sub.recv_timeout(Duration::from_secs(30)).is_none());
        assert_eq!(sub.recv_all(Duration::from_secs(30), &mut Vec::new()), 0);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dropping_the_subscription_releases_a_publisher_parked_mid_chunk() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        let other = reg.subscribe(SubscriptionFilter::All, 64, BackpressurePolicy::Block);
        let publisher = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                reg.publish(&mut chunk(0, 0..5));
                reg.publish(&mut chunk(0, 5..7));
            })
        };
        wait_parked(&sub);
        drop(sub);
        publisher.join().unwrap();
        // The subscriber behind the dropped one still got every chunk.
        assert_eq!(positions(&other.drain()), (0..7).collect::<Vec<_>>());
    }

    /// A consumer parked on the empty channel is woken by the chunk and
    /// takes all of it at once.
    #[test]
    fn recv_all_waits_then_takes_the_whole_backlog() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 64, BackpressurePolicy::Block);
        let mut got = vec![ev(9, 99)];
        assert_eq!(sub.recv_all(Duration::ZERO, &mut got), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while sub.queue.lock().parked_consumers == 0 {
                    std::thread::yield_now();
                }
                reg.publish(&mut chunk(0, 0..5));
            });
            assert_eq!(sub.recv_all(Duration::from_secs(30), &mut got), 5);
        });
        // Appended after what `out` already held.
        assert_eq!(positions(&got), [99, 0, 1, 2, 3, 4]);
    }
}
