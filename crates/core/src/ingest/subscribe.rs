//! The subscription registry: per-consumer bounded match-event channels.
//!
//! Shard workers publish the matches they complete to the registry in
//! **chunks** — a [`MatchChunk`]: a header per match (position, query
//! id, a range of words) and one word vector holding every valuation's
//! flat buffer, copied there from the enumerator's scratch, with the
//! queries one output goes to sharing one copy. Each subscriber owns its *own* bounded
//! queue of chunks with its own [`BackpressurePolicy`], so a slow or
//! stalled consumer lags or drops on its private channel without ever
//! stalling ingestion (use [`BackpressurePolicy::DropNewest`] for that
//! guarantee — a `Block` subscriber that never drains *will* eventually
//! park the shard workers, which is the explicit opt-in "lossless but
//! stalling" trade-off).
//!
//! One publish call costs one registry read lock and, per accepting
//! subscriber, one queue lock — whatever the chunk's size. A chunk is
//! delivered in order. The last live subscriber receives the chunk
//! itself when its filter takes all of it; any other subscriber, and a
//! filter that takes part of it, gets a copy of the matches it accepts
//! (two allocations, not one per match). `capacity` bounds the events
//! *queued* on a channel, never the chunk: a `Block` channel admits the
//! part of a chunk that fits (split off as a copy) and parks the
//! publisher for the rest (so a capacity of 1 still delivers any chunk,
//! one event per consumer take), and a `DropNewest` channel admits what
//! fits and counts exactly the overflow as dropped.
//!
//! Consumers choose what they take. [`Subscription::recv_chunks`] moves
//! whole chunks out — the served path encodes `Event` frames straight
//! from their words and never builds a match. `try_recv`,
//! `recv_timeout`, `recv_all` and `drain` build owned [`MatchEvent`]s
//! from the same chunks, one allocation per event, paid by the consumer
//! that asked for ownership.
//!
//! Wakes are paid only when someone sleeps: the queue keeps, under its
//! mutex, how many publishers are parked on a full channel and how many
//! consumers on an empty one, and signals a condvar only when its count
//! is non-zero — at most once per admitted run of events on the
//! publishing side and once per take on the consuming side.
//!
//! Subscriptions filter per query ([`SubscriptionFilter::Query`]) or
//! receive everything ([`SubscriptionFilter::All`]). Dropping a
//! [`Subscription`], or [`Subscription::close`], closes its queue: a
//! consumer's untimed wait (`Duration::MAX`) then returns, publishers
//! skip the queue, and the registry prunes it on the next subscribe.
//! Runtime shutdown closes every channel from the other side
//! ([`SubscriptionRegistry::close_all`]) — waking publishers parked on
//! full `Block` channels so the shard workers can exit — while events
//! already queued stay readable by the consumer.

use super::BackpressurePolicy;
use crate::runtime::{MatchEvent, QueryId};
use cer_automata::valuation::ValuationRef;
use cer_obs::Histogram;
use std::collections::VecDeque;
use std::ops::Range;
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

/// Completed matches in one buffer: a header per match and one word
/// vector holding each match's valuation in [`Valuation`]'s own layout
/// (end offsets, then positions). Matches of one output pushed for
/// several query ids — the members of a family — share one copy of the
/// words. Word
/// ranges never decrease from one match to the next.
///
/// Iterating borrows each valuation as a [`ValuationRef`];
/// [`event`](Self::event) builds an owned [`MatchEvent`].
///
/// [`Valuation`]: cer_automata::valuation::Valuation
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchChunk {
    heads: Vec<MatchHead>,
    words: Vec<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MatchHead {
    position: u64,
    query: QueryId,
    /// `|Ω|` of the valuation at `words`.
    labels: u32,
    words: (usize, usize),
}

impl MatchChunk {
    /// An empty chunk with room for `matches` headers and `words` words.
    fn with_capacity(matches: usize, words: usize) -> Self {
        MatchChunk {
            heads: Vec::with_capacity(matches),
            words: Vec::with_capacity(words),
        }
    }

    /// Append one match per id of `queries`, all at `position` and all
    /// sharing one copy of `valuation`'s words (none when `queries` is
    /// empty).
    pub fn push(
        &mut self,
        position: u64,
        valuation: ValuationRef<'_>,
        queries: impl IntoIterator<Item = QueryId>,
    ) {
        let mut queries = queries.into_iter().peekable();
        if queries.peek().is_none() {
            return;
        }
        let start = self.words.len();
        self.words.extend_from_slice(valuation.words());
        let head = |query| MatchHead {
            position,
            query,
            labels: valuation.num_labels() as u32,
            words: (start, self.words.len()),
        };
        self.heads.extend(queries.map(head));
    }

    /// Matches in the chunk.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the chunk holds no match.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Words held, shared copies counted once.
    pub fn words_len(&self) -> usize {
        self.words.len()
    }

    /// Drop every match, keeping the allocations.
    fn clear(&mut self) {
        self.heads.clear();
        self.words.clear();
    }

    #[inline]
    fn view(&self, h: &MatchHead) -> ValuationRef<'_> {
        ValuationRef::from_words(h.labels as usize, &self.words[h.words.0..h.words.1])
    }

    /// `(position, query, valuation)` of every match, in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, QueryId, ValuationRef<'_>)> + '_ {
        self.heads
            .iter()
            .map(|h| (h.position, h.query, self.view(h)))
    }

    /// The `i`-th match as an owned event: one allocation, for its
    /// valuation.
    ///
    /// # Panics
    ///
    /// When `i >= self.len()`.
    pub fn event(&self, i: usize) -> MatchEvent {
        let h = &self.heads[i];
        MatchEvent {
            position: h.position,
            query: h.query,
            valuation: self.view(h).to_valuation(),
        }
    }

    /// A new chunk holding the matches of `range` that `keep` accepts,
    /// in order, with shared words still shared.
    fn copy_where(&self, range: Range<usize>, keep: impl Fn(QueryId) -> bool) -> MatchChunk {
        let heads = &self.heads[range];
        let mut out = MatchChunk::with_capacity(heads.len(), 0);
        // The last source range copied, and where its copy starts.
        let mut last = ((usize::MAX, 0), 0);
        for h in heads.iter().filter(|h| keep(h.query)) {
            let (from, to) = h.words;
            if last.0 != h.words {
                last = (h.words, out.words.len());
                out.words.extend_from_slice(&self.words[from..to]);
            }
            let start = last.1;
            out.heads.push(MatchHead {
                words: (start, start + (to - from)),
                ..*h
            });
        }
        out
    }

    /// Drop the first `n` matches (their words stay, unreferenced).
    fn skip(&mut self, n: usize) {
        self.heads.drain(..n);
    }

    /// Move the matches out, leaving an empty chunk pre-sized to what
    /// this one held: the shard worker's next chunk grows no further
    /// than its last one did.
    fn take(&mut self) -> MatchChunk {
        let presized = MatchChunk::with_capacity(self.len(), self.words.len());
        std::mem::replace(self, presized)
    }
}

struct SubInner {
    chunks: VecDeque<MatchChunk>,
    /// Matches of the front chunk already taken by single-event
    /// receives.
    taken: usize,
    /// Events queued: the chunks' lengths, less `taken`.
    len: usize,
    dropped: u64,
    /// Publishers parked on `not_full` and consumers parked on
    /// `not_empty`. The condvars are signalled only when the matching
    /// count is non-zero, so an uncontended push or take never pays a
    /// wake.
    parked_publishers: usize,
    parked_consumers: usize,
}

impl SubInner {
    /// Pop every queued chunk, the front one cut at `taken`.
    fn take_chunks(&mut self) -> impl Iterator<Item = MatchChunk> + '_ {
        if let Some(front) = self.chunks.front_mut() {
            front.skip(std::mem::take(&mut self.taken));
        }
        self.len = 0;
        self.chunks.drain(..)
    }
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

    /// Publisher side: queue `chunk` in order, honouring the
    /// subscriber's capacity and policy. A chunk that fits is queued
    /// whole; one that does not is admitted a copied part at a time.
    /// Whatever a closed channel or `DropNewest` refuses is discarded.
    fn offer(&self, mut chunk: MatchChunk) {
        let total = chunk.len();
        let mut at = 0;
        let mut inner = self.lock();
        while at < total && !self.is_closed() {
            let room = self.capacity.saturating_sub(inner.len);
            if room == 0 {
                match self.policy {
                    BackpressurePolicy::DropNewest => {
                        inner.dropped += (total - at) as u64;
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
            let n = room.min(total - at);
            let part = if n == total {
                std::mem::take(&mut chunk)
            } else {
                chunk.copy_where(at..at + n, |_| true)
            };
            at += n;
            inner.len += n;
            inner.chunks.push_back(part);
            if inner.parked_consumers > 0 {
                self.not_empty.notify_all();
            }
        }
    }

    /// Consumer side: lock the queue, first waiting up to `timeout` for
    /// it to hold an event or be closed. A timeout too long to be a
    /// deadline (`Duration::MAX`) waits without one. A closed empty
    /// channel can never fill again, so the wait ends early instead of
    /// sleeping out the timeout.
    fn lock_when_ready(&self, timeout: Duration) -> MutexGuard<'_, SubInner> {
        let mut inner = self.lock();
        if inner.len > 0 || timeout.is_zero() {
            return inner;
        }
        let deadline = Instant::now().checked_add(timeout);
        while inner.len == 0 && !self.is_closed() {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                break;
            }
            inner.parked_consumers += 1;
            let poisoned = "subscription queue poisoned";
            inner = match left {
                Some(left) => self.not_empty.wait_timeout(inner, left).expect(poisoned).0,
                None => self.not_empty.wait(inner).expect(poisoned),
            };
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
                chunks: VecDeque::new(),
                taken: 0,
                len: 0,
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
    /// matching subscriber, leaving `chunk` empty. The last live
    /// subscriber is handed the chunk itself when it accepts every
    /// match, and `chunk` is then left pre-sized for the next one;
    /// otherwise every subscriber gets a copy of what it accepts and
    /// `chunk` keeps its allocations.
    pub fn publish(&self, chunk: &mut MatchChunk) {
        if chunk.is_empty() {
            return;
        }
        let at = Instant::now();
        let subs = self.subs.read().expect("subscription registry poisoned");
        let mut live = subs.iter().filter(|s| !s.is_closed()).peekable();
        while let Some(sub) = live.next() {
            let accepts = |q| sub.filter.accepts(q);
            if live.peek().is_none() && chunk.heads.iter().all(|h| accepts(h.query)) {
                sub.offer(chunk.take());
            } else {
                sub.offer(chunk.copy_where(0..chunk.len(), accepts));
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
    /// and valuation copying entirely on quiet queries. One registry
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
        self.recv_one(Duration::ZERO)
    }

    /// Wait up to `timeout` for one event. Returns `None` early on a
    /// closed, empty channel.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<MatchEvent> {
        self.recv_one(timeout)
    }

    fn recv_one(&self, timeout: Duration) -> Option<MatchEvent> {
        let mut inner = self.queue.lock_when_ready(timeout);
        let front = inner.chunks.front()?;
        let ev = front.event(inner.taken);
        let done = inner.taken + 1 == front.len();
        inner.len -= 1;
        inner.taken += 1;
        if done {
            inner.chunks.pop_front();
            inner.taken = 0;
        }
        self.queue.made_room(&inner);
        Some(ev)
    }

    /// Wait up to `timeout` for the channel to hold an event, then move
    /// *everything* queued onto the end of `out`, in order, under one
    /// lock; returns how many events that was. `0` means the timeout
    /// passed or the channel is closed and empty. The consumer's
    /// counterpart of chunked publishing: under load one call takes a
    /// whole backlog, at rest it returns single events as they arrive.
    pub fn recv_all(&self, timeout: Duration, out: &mut Vec<MatchEvent>) -> usize {
        self.take_events(timeout, out)
    }

    /// [`recv_all`](Self::recv_all) without building a match: moves the
    /// queued chunks themselves onto the end of `out`, in order, and
    /// returns how many events they hold. What a consumer that only
    /// reads the matches — an encoder — takes. `Duration::MAX` waits
    /// with no deadline, until an event arrives or the channel closes.
    pub fn recv_chunks(&self, timeout: Duration, out: &mut Vec<MatchChunk>) -> usize {
        self.take_all(timeout, |chunk| out.push(chunk))
    }

    /// Take everything currently queued, without waiting.
    pub fn drain(&self) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        self.take_events(Duration::ZERO, &mut out);
        out
    }

    fn take_events(&self, timeout: Duration, out: &mut Vec<MatchEvent>) -> usize {
        self.take_all(timeout, |chunk| {
            out.extend((0..chunk.len()).map(|i| chunk.event(i)));
        })
    }

    fn take_all(&self, timeout: Duration, mut each: impl FnMut(MatchChunk)) -> usize {
        let mut inner = self.queue.lock_when_ready(timeout);
        let n = inner.len;
        if n > 0 {
            inner.take_chunks().for_each(&mut each);
            self.queue.made_room(&inner);
        }
        n
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().len
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

    /// Close the channel, as dropping the subscription does, while
    /// keeping the events already queued readable: publishers stop
    /// delivering to it, and a receive waiting on it — another thread's
    /// untimed [`recv_chunks`](Self::recv_chunks) too — returns as soon
    /// as the queue is empty.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Whether the channel was closed: by [`close`](Self::close), or by
    /// the runtime's shutdown.
    pub fn is_closed(&self) -> bool {
        self.queue.is_closed()
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
    use cer_automata::valuation::{Label, LabelSet, Valuation};

    fn ev(q: u32, pos: u64) -> MatchEvent {
        MatchEvent {
            position: pos,
            query: QueryId(q),
            valuation: Valuation::default(),
        }
    }

    fn chunk_of(events: impl IntoIterator<Item = MatchEvent>) -> MatchChunk {
        let mut chunk = MatchChunk::default();
        for e in events {
            chunk.push(e.position, e.valuation.view(), [e.query]);
        }
        chunk
    }

    fn chunk(q: u32, positions: std::ops::Range<u64>) -> MatchChunk {
        chunk_of(positions.map(|pos| ev(q, pos)))
    }

    /// A match of query `q` at `pos` over three labels, one of them
    /// empty and one holding two positions.
    fn rich(q: u32, pos: u64) -> MatchEvent {
        let labels = LabelSet::from_labels([Label(0), Label(2)]);
        let mut valuation = Valuation::singleton(3, labels, pos);
        valuation.insert(LabelSet::singleton(Label(0)), pos + 1000);
        MatchEvent {
            position: pos,
            query: QueryId(q),
            valuation,
        }
    }

    /// Every match of `chunks`, in order, as owned events.
    fn events_of(chunks: &[MatchChunk]) -> Vec<MatchEvent> {
        let each = |c: &MatchChunk| (0..c.len()).map(|i| c.event(i)).collect::<Vec<_>>();
        chunks.iter().flat_map(each).collect()
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
        let mut events = chunk_of((0..4).map(|pos| ev((pos % 2) as u32, pos)));
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
        reg.publish(&mut chunk_of(sent.clone()));
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

    /// An untimed take (`Duration::MAX`, which is no deadline) sleeps
    /// until a chunk arrives, and returns 0 once another thread closes
    /// the channel — the events queued before the close stay readable.
    #[test]
    fn an_untimed_take_ends_on_a_chunk_or_a_close() {
        let reg = SubscriptionRegistry::default();
        let sub = reg.subscribe(SubscriptionFilter::All, 64, BackpressurePolicy::Block);
        let wait_parked_consumer = || {
            while sub.queue.lock().parked_consumers == 0 {
                std::thread::yield_now();
            }
        };
        let mut chunks = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                wait_parked_consumer();
                reg.publish(&mut chunk(0, 0..3));
            });
            assert_eq!(sub.recv_chunks(Duration::MAX, &mut chunks), 3);
        });
        reg.publish(&mut chunk(0, 3..5));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(sub.recv_chunks(Duration::MAX, &mut chunks), 2);
                assert_eq!(sub.recv_chunks(Duration::MAX, &mut chunks), 0);
            });
            while !sub.is_empty() {
                std::thread::yield_now();
            }
            wait_parked_consumer();
            assert!(!sub.is_closed());
            sub.close();
        });
        assert!(sub.is_closed());
        assert_eq!(positions(&events_of(&chunks)), [0, 1, 2, 3, 4]);
        // A closed channel takes no more publishes.
        reg.publish(&mut chunk(0, 5..6));
        assert!(sub.is_empty());
    }

    /// A whole shard chunk into a `Block` channel far smaller than it:
    /// split into parts as room appears, every match arrives once, in
    /// order, whichever take the consumer uses.
    #[test]
    fn block_channel_delivers_a_full_chunk_through_every_kind_of_take() {
        for capacity in [1usize, 3] {
            let reg = Arc::new(SubscriptionRegistry::default());
            let sub = reg.subscribe(SubscriptionFilter::All, capacity, BackpressurePolicy::Block);
            let sent: Vec<MatchEvent> = (0..256).map(|pos| rich(0, pos)).collect();
            let publisher = {
                let (reg, mut chunk) = (reg.clone(), chunk_of(sent.clone()));
                std::thread::spawn(move || reg.publish(&mut chunk))
            };
            wait_parked(&sub);
            assert_eq!(sub.len(), capacity, "admitted exactly what fits");
            let (mut got, mut chunks) = (Vec::new(), Vec::new());
            for take in 0.. {
                if got.len() == sent.len() {
                    break;
                }
                let timeout = Duration::from_secs(30);
                let n = match take % 3 {
                    0 => usize::from(sub.recv_timeout(timeout).map(|e| got.push(e)).is_some()),
                    1 => sub.recv_all(timeout, &mut got),
                    _ => {
                        let n = sub.recv_chunks(timeout, &mut chunks);
                        got.extend(events_of(&chunks));
                        chunks.clear();
                        n
                    }
                };
                assert!((1..=capacity).contains(&n), "take {take} got {n}");
            }
            publisher.join().unwrap();
            assert_eq!(got, sent, "capacity {capacity}");
            assert!(sub.is_empty());
            assert_eq!(sub.dropped(), 0);
        }
    }

    /// `DropNewest` overflowing in the middle of a chunk admits its head
    /// and counts exactly the rest; chunks taken after a single-event
    /// take start behind it.
    #[test]
    fn drop_newest_overflowing_mid_chunk_counts_exactly() {
        let reg = SubscriptionRegistry::default();
        let sub = reg.subscribe(SubscriptionFilter::All, 100, BackpressurePolicy::DropNewest);
        let sent: Vec<MatchEvent> = (0..140).map(|pos| rich(pos as u32 % 2, pos)).collect();
        reg.publish(&mut chunk_of(sent[..60].to_vec()));
        assert_eq!(sub.dropped(), 0);
        reg.publish(&mut chunk_of(sent[60..120].to_vec()));
        assert_eq!(sub.dropped(), 20);
        assert_eq!(sub.len(), 100);
        assert_eq!(sub.try_recv().as_ref(), Some(&sent[0]));
        let mut chunks = Vec::new();
        assert_eq!(sub.recv_chunks(Duration::ZERO, &mut chunks), 99);
        assert_eq!(events_of(&chunks), sent[1..100]);
        assert!(sub.is_empty());
        // Room again: the next chunk is admitted whole.
        reg.publish(&mut chunk_of(sent[120..].to_vec()));
        assert_eq!(sub.dropped(), 20);
        assert_eq!(sub.drain(), sent[120..]);
    }

    /// Twin members share one copy of each output's words, and so does
    /// every subscriber's copy: a `Query` subscriber before or after an
    /// `All` one gets exactly its query's matches, the `All` one every
    /// match, whether it is handed the chunk itself (last) or a copy.
    #[test]
    fn query_subscribers_around_an_all_subscriber_over_twins() {
        use SubscriptionFilter::{All, Query};
        let q1 = Query(QueryId(1));
        for filters in [vec![q1, All, q1], vec![q1, All]] {
            let reg = SubscriptionRegistry::default();
            let subs: Vec<Subscription> = filters
                .iter()
                .map(|&f| reg.subscribe(f, 64, BackpressurePolicy::Block))
                .collect();
            let (mut chunk, mut sent) = (MatchChunk::default(), Vec::new());
            for pos in 0..8 {
                let e = rich(0, pos);
                chunk.push(pos, e.valuation.view(), [QueryId(0), QueryId(1)]);
                let twin = MatchEvent {
                    query: QueryId(1),
                    ..e.clone()
                };
                sent.extend([e, twin]);
            }
            let words = chunk.words_len();
            assert_eq!(words, 8 * sent[0].valuation.view().words().len());
            reg.publish(&mut chunk);
            assert!(chunk.is_empty());
            for (sub, filter) in subs.iter().zip(&filters) {
                let want: Vec<MatchEvent> = sent
                    .iter()
                    .filter(|e| filter.accepts(e.query))
                    .cloned()
                    .collect();
                let mut chunks = Vec::new();
                assert_eq!(sub.recv_chunks(Duration::ZERO, &mut chunks), want.len());
                assert_eq!(events_of(&chunks), want, "{filter:?} of {filters:?}");
                let held: usize = chunks.iter().map(MatchChunk::words_len).sum();
                assert_eq!(
                    held, words,
                    "{filter:?} of {filters:?}: one copy per output"
                );
            }
        }
    }
}
