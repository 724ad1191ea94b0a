//! The shard worker: one thread per shard, hosting that shard's query
//! evaluators behind a [`ShardHost`] and draining its
//! [`ShardQueue`] in released (position) order.
//!
//! # Twin classes
//!
//! Inside a skeleton group the host keeps one evaluator per *twin
//! class*: the hosted query ids whose evaluators are provably identical.
//! The evaluator runs once per batch, and each output becomes one match
//! per member id that has a subscriber, all sharing one copy of the
//! valuation's words in the worker's [`MatchChunk`]. A query without a
//! twin is a class of one and runs through the same loop.
//!
//! A fresh registration joins a class when a cheap sufficient check
//! holds, decided on the worker in position order:
//!
//! * the same group — skeleton, routing interests, partition;
//! * equal predicate-slot tables, which fixes the unary predicates
//!   because the [`PredicateCache`] interns them structurally;
//! * equal join extractors, window policy and GC cadence;
//! * the class's evaluator has seen no position, and both evaluators
//!   report the same next position and the same counters
//!   ([`StreamingEvaluator::is_twin`]).
//!
//! Then the two automata are equal and both evaluators are in their
//! initial state. Evaluation is a deterministic function of automaton,
//! state and routed subsequence, and members of one group share the
//! subsequence by construction, so each member's outputs and counters
//! are exactly those of a private evaluator. A query registered after
//! its twin has seen tuples starts its own class.
//!
//! A class only ever loses members: [`evict`](ShardHost::evict) drops
//! the evaluator with its last member, [`swap`](ShardHost::swap) first
//! splits the id off with a clone, and [`capture`](ShardHost::capture)
//! hands every id its own clone, so snapshot bytes and per-query
//! counters are what private evaluators produce. Restored and rescaled
//! state is adopted as classes of one: exact but unshared, because a
//! restored replica's zeroed counters no longer prove that it is in its
//! initial state.

use super::{Partition, QueryId, SharedEvalStats};
use crate::evaluator::{EngineStats, StreamingEvaluator};
use crate::ingest::{key_shard, IngestShared, MatchChunk, ShardMsg, ShardQueue, TupleBatch};
use crate::metrics::{PipelineEvent, ShardStageMetrics};
use crate::shared::PredicateCache;
use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_common::hash::{FxBuildHasher, FxHashMap};
use cer_common::RelationId;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One evaluator and the hosted query ids it serves (module docs).
struct TwinClass {
    /// Member ids in hosting order; never empty.
    members: Vec<QueryId>,
    eval: StreamingEvaluator,
    /// Indirection table: transition index → shared predicate slot in
    /// the shard's [`PredicateCache`]. Every member holds its own
    /// reference to each slot.
    slots: Vec<u32>,
    /// Index of this class's [`QueryGroup`].
    group: usize,
    /// Where this class's members start in the host's per-member
    /// `listening` scratch.
    first: usize,
    /// Formed by a fresh registration, so later ones may join it;
    /// restored state never is.
    fresh: bool,
    /// `ts_regressions` observed after the previous batch — new clamps
    /// show up as a delta and are journaled per batch and member.
    last_regressions: u64,
}

/// A shard-local bucket of skeleton-compatible queries: same automaton
/// skeleton ([`Pcea::skeleton_compatible`]), same routing interests and
/// same partition mode, so the whole group shares one routed tuple
/// selection per batch and its twin classes differ only in per-query
/// residuals (predicates, join state, windows).
struct QueryGroup {
    /// Routing interests shared by every member (equal by construction).
    listens: Option<Vec<RelationId>>,
    /// Partition mode shared by every member.
    partition: Partition,
    /// Indices into the worker's `classes`.
    classes: Vec<usize>,
    /// Reusable per-batch selection scratch (indices into the drained
    /// slice), computed once per group instead of once per query.
    sel: Vec<u32>,
}

/// One query's ready-to-serve state on its way to a shard: the
/// evaluator carries its own automaton, window clock and GC cadence;
/// routing metadata rides alongside so the worker can rebuild its local
/// tables. A fresh registration is an `Adopt` of an empty evaluator.
pub(crate) struct Adopt {
    pub id: QueryId,
    pub partition: Partition,
    pub listens: Option<Vec<RelationId>>,
    pub eval: StreamingEvaluator,
}

/// One shard's captured engine state ([`ShardHost::capture`]): every
/// hosted query's evaluator at the fence position. This is the
/// in-memory value the checkpoint wire format encodes on the control
/// plane ([`crate::checkpoint`]) and that `Runtime::rescale` moves
/// between worker sets with **zero** encode/decode.
pub(crate) struct ShardState {
    /// `(query, evaluator)` per hosted query, in hosting order; twins
    /// each carry their own copy.
    pub queries: Vec<(QueryId, StreamingEvaluator)>,
    /// How long the capture stalled this shard's worker, in nanoseconds
    /// (surfaced as a `RuntimeStats` counter by both snapshot and
    /// rescale).
    pub capture_nanos: u64,
}

/// How many completed matches a shard worker stages before handing them
/// to the subscription registry in one publish call. Large enough that
/// the registry and queue locks are paid once per hundreds of matches,
/// small enough that a tuple completing millions of matches streams to
/// its consumers while it is still being enumerated. A staged match is a
/// 32-byte header plus, shared with its twins, a copy of the
/// enumerator's `|Ω| + |ν|` words (the flat
/// [`Valuation`](cer_automata::valuation::Valuation)), so a full chunk is
/// two blocks — 8 KiB of headers and a few tens of KiB of words for the
/// valuations queries produce — allocated once here, each next chunk
/// pre-sized to the last, and freed once by whichever thread consumes
/// it.
const MATCH_CHUNK: usize = 256;

/// Everything one shard worker owns: the twin classes and their
/// skeleton groups, the shared predicate cache and the local routing
/// tables. Tuple batches go through [`eval_batch`](Self::eval_batch);
/// every structural change arrives as a control job of a
/// [`Fence`](crate::ingest::Fence) and calls one of
/// [`adopt`](Self::adopt) / [`evict`](Self::evict) /
/// [`swap`](Self::swap) / [`capture`](Self::capture) /
/// [`stats`](Self::stats).
///
/// The stage histograms and shard geometry are spawn-time values: they
/// name the worker's *epoch*, and a rescale replaces the whole worker
/// set rather than mutating a running worker.
pub(crate) struct ShardHost {
    shared: Arc<IngestShared>,
    stage: Arc<ShardStageMetrics>,
    shard_idx: usize,
    n_shards: usize,
    hasher: FxBuildHasher,
    /// One evaluator per twin class (module docs).
    classes: Vec<TwinClass>,
    /// Skeleton-compatible query groups: selection (and, through the
    /// predicate cache, unary prefiltering) is computed once per group
    /// per batch, not once per query.
    groups: Vec<QueryGroup>,
    /// Shared unary-predicate cache: each distinct predicate is
    /// evaluated at most once per tuple per drained batch, no matter how
    /// many hosted queries reference it.
    cache: PredicateCache,
    /// Local routing: relation → indices into `groups`.
    routes: FxHashMap<RelationId, Vec<usize>>,
    wildcards: Vec<usize>,
    /// Reusable per-batch scratch: which members have a subscriber, in
    /// class order ([`TwinClass::first`]).
    listening: Vec<bool>,
    /// Completed matches on their way to the subscriber channels; see
    /// [`MATCH_CHUNK`].
    chunk: MatchChunk,
}

impl ShardHost {
    fn new(
        shared: Arc<IngestShared>,
        stage: Arc<ShardStageMetrics>,
        shard_idx: usize,
        n_shards: usize,
    ) -> Self {
        ShardHost {
            shared,
            stage,
            shard_idx,
            n_shards,
            hasher: FxBuildHasher::default(),
            classes: Vec::new(),
            groups: Vec::new(),
            cache: PredicateCache::default(),
            routes: FxHashMap::default(),
            wildcards: Vec::new(),
            listening: Vec::new(),
            chunk: MatchChunk::default(),
        }
    }

    /// Host `q`: intern its predicate slots, place it in a skeleton
    /// group — same skeleton, listens and partition — creating the group
    /// if none fits, and, when `fresh`, add it to a twin class of that
    /// group if one passes the module docs' check; otherwise it starts a
    /// class of its own. The caller finishes with
    /// [`reindex`](Self::reindex).
    fn host(&mut self, q: Adopt, fresh: bool) {
        let transitions = q.eval.pcea().transitions();
        let slots: Vec<u32> = transitions
            .iter()
            .map(|tr| self.cache.intern(&tr.unary))
            .collect();
        let fits = |g: &QueryGroup| {
            g.partition == q.partition
                && g.listens == q.listens
                && g.classes.first().is_some_and(|&c| {
                    let representative = self.classes[c].eval.pcea();
                    representative.skeleton_compatible(q.eval.pcea())
                })
        };
        let group = self.groups.iter().position(fits).unwrap_or_else(|| {
            self.groups.push(QueryGroup {
                listens: q.listens.clone(),
                partition: q.partition,
                classes: Vec::new(),
                sel: Vec::new(),
            });
            self.groups.len() - 1
        });
        if fresh {
            let twin = self.groups[group].classes.iter().find(|&&c| {
                let class = &self.classes[c];
                class.fresh && class.slots == slots && class.eval.is_twin(&q.eval)
            });
            if let Some(&c) = twin {
                self.classes[c].members.push(q.id);
                return;
            }
        }
        let last_regressions = q.eval.stats().ts_regressions;
        self.classes.push(TwinClass {
            members: vec![q.id],
            eval: q.eval,
            slots,
            group,
            first: 0,
            fresh,
            last_regressions,
        });
        self.groups[group].classes.push(self.classes.len() - 1);
    }

    /// Take `id` out of its twin class, releasing its predicate-slot
    /// references; returns the class's index (the class is left empty
    /// when `id` was its last member).
    fn leave(&mut self, id: QueryId) -> Option<usize> {
        let c = self.classes.iter().position(|c| c.members.contains(&id))?;
        let class = &mut self.classes[c];
        class.members.retain(|&m| m != id);
        for &s in &class.slots {
            self.cache.release(s);
        }
        Some(c)
    }

    /// Recompute every group's classes from the classes' `group` fields
    /// (indices into `classes` shift on removal) and every class's
    /// `first`, drop groups left empty, and rebuild the local routing
    /// tables.
    fn reindex(&mut self) {
        for g in &mut self.groups {
            g.classes.clear();
        }
        let mut first = 0;
        for (c, class) in self.classes.iter_mut().enumerate() {
            self.groups[class.group].classes.push(c);
            class.first = first;
            first += class.members.len();
        }
        let mut remap = vec![usize::MAX; self.groups.len()];
        let mut live = 0usize;
        for (gi, slot) in remap.iter_mut().enumerate() {
            if !self.groups[gi].classes.is_empty() {
                *slot = live;
                self.groups.swap(gi, live);
                live += 1;
            }
        }
        self.groups.truncate(live);
        for class in &mut self.classes {
            class.group = remap[class.group];
        }
        self.routes.clear();
        self.wildcards.clear();
        for (gi, g) in self.groups.iter().enumerate() {
            match &g.listens {
                Some(rels) => {
                    for &rel in rels {
                        self.routes.entry(rel).or_default().push(gi);
                    }
                }
                None => self.wildcards.push(gi),
            }
        }
    }

    /// Start hosting `batch`. `fresh` says it holds fresh registrations,
    /// which may join twin classes; restored state and a rescale
    /// hand-off are adopted as classes of one.
    pub fn adopt(&mut self, batch: Vec<Adopt>, fresh: bool) {
        for q in batch {
            self.host(q, fresh);
        }
        self.reindex();
    }

    /// Drop a hosted query; returns its final engine counters (`None`
    /// if this shard never hosted it). Its evaluator goes with its last
    /// twin.
    pub fn evict(&mut self, id: QueryId) -> Option<EngineStats> {
        let c = self.leave(id)?;
        let stats = self.classes[c].eval.stats();
        if self.classes[c].members.is_empty() {
            self.classes.remove(c);
        }
        self.reindex();
        Some(stats)
    }

    /// Hot-swap a hosted query's automaton (`Runtime::replace`): split
    /// the query off its twin class (with a clone while twins remain),
    /// hand the accumulated state to the recompiled automaton and host
    /// the result as a class of one. Returns whether this shard hosted
    /// (and swapped) the query; compatibility was validated by the
    /// control plane.
    pub fn swap(
        &mut self,
        id: QueryId,
        pcea: Pcea,
        window: WindowPolicy,
        gc_every: u64,
        listens: Option<Vec<RelationId>>,
    ) -> bool {
        let Some(c) = self.leave(id) else {
            return false;
        };
        let partition = self.groups[self.classes[c].group].partition;
        let old = if self.classes[c].members.is_empty() {
            self.classes.remove(c).eval
        } else {
            self.classes[c].eval.clone()
        };
        self.reindex();
        let eval = old
            .replace_automaton(pcea, window, gc_every)
            .expect("replace compatibility validated by the control plane");
        let swapped = Adopt {
            id,
            partition,
            listens,
            eval,
        };
        self.adopt(vec![swapped], false);
        true
    }

    /// Copy-on-fence: capture every hosted query at this exact point of
    /// the released position order, each id with its own evaluator.
    /// Shards hit their fences concurrently; producers keep staging
    /// later blocks meanwhile. No bytes here — a snapshot encodes the
    /// capture on the control plane, a rescale never encodes at all.
    ///
    /// `detach: false` (snapshot) clones the evaluators and keeps
    /// serving; `detach: true` (rescale hand-off) moves them out — to the
    /// last member of each class, clones to its twins — and leaves the
    /// host empty: its queue is retired, and the reply doubles as proof
    /// the entire pre-fence backlog was evaluated.
    pub fn capture(&mut self, detach: bool) -> ShardState {
        let started = Instant::now();
        let mut queries = Vec::new();
        if detach {
            for class in std::mem::take(&mut self.classes) {
                let (&last, twins) = class.members.split_last().expect("a class has a member");
                queries.extend(twins.iter().map(|&id| (id, class.eval.clone())));
                queries.push((last, class.eval));
            }
            self.reindex();
        } else {
            for class in &self.classes {
                queries.extend(class.members.iter().map(|&id| (id, class.eval.clone())));
            }
        }
        ShardState {
            queries,
            capture_nanos: started.elapsed().as_nanos() as u64,
        }
    }

    /// Per-query engine counters plus the shared-evaluation counters of
    /// this shard. Twins report their class's counters, which are
    /// exactly what each one's private evaluator would count.
    pub fn stats(&self) -> (Vec<(QueryId, EngineStats)>, SharedEvalStats) {
        let per_query = self.classes.iter().flat_map(|c| {
            let st = c.eval.stats();
            c.members.iter().map(move |&id| (id, st))
        });
        let group_size = |g: &QueryGroup| {
            let members = g.classes.iter().map(|&c| self.classes[c].members.len());
            members.sum()
        };
        let shared = SharedEvalStats {
            distinct_predicates: self.cache.distinct_predicates(),
            referenced_predicates: self.cache.referenced_predicates(),
            prefilter_evals_done: self.cache.evals_done(),
            prefilter_evals_saved: self.cache.evals_saved(),
            groups: self.groups.len(),
            group_sizes: self.groups.iter().map(group_size).collect(),
            evaluators: self.classes.len(),
        };
        (per_query.collect(), shared)
    }

    /// Evaluate one drained (coalesced) tuple batch: each twin class's
    /// subsequence of the slice goes through the vectorized batch path
    /// once, its outputs fan out to the class's listening members, and
    /// completed matches are published to the subscription registry in
    /// chunks of [`MATCH_CHUNK`] matches (a few more when twins share
    /// the output that fills one), the last one when the batch ends.
    fn eval_batch(&mut self, batch: TupleBatch) {
        let ingest_at = batch.ingest_at;
        let tuples = batch.tuples;
        let eval_at = Instant::now();
        // Enumerating outputs only pays off if someone is listening for
        // the query's events; gate once per batch rather than per tuple
        // (subscriber churn mid-batch is already racy by construction).
        let hosted = self.classes.iter().flat_map(|c| c.members.iter().copied());
        self.shared.subs.listening(hosted, &mut self.listening);
        self.cache.begin_batch(&tuples);
        // Select each *group's* subsequence of the slice (every member
        // shares listens and partition, so the group selection is
        // exactly each member's), then evaluate class-major so the
        // batch path sees the whole run at once. Per-query event order
        // (by position) is unchanged; only the interleaving *across*
        // queries differs from tuple-major, and that was never ordered.
        for g in &mut self.groups {
            g.sel.clear();
        }
        for (j, (_, t)) in tuples.iter().enumerate() {
            let listed = self
                .routes
                .get(&t.relation())
                .map(Vec::as_slice)
                .unwrap_or_default();
            for &gi in listed.iter().chain(&self.wildcards) {
                if let Partition::ByKey { pos } = self.groups[gi].partition {
                    // The batch was routed here for *some* query; this
                    // group only owns its key slice.
                    if key_shard(&self.hasher, t, pos, self.n_shards) != self.shard_idx {
                        continue;
                    }
                }
                self.groups[gi].sel.push(j as u32);
            }
        }
        let last_pos = tuples.last().map(|(i, _)| *i).unwrap_or(0);
        for g in &self.groups {
            if g.sel.is_empty() {
                continue;
            }
            for &c in &g.classes {
                let class = &mut self.classes[c];
                let members = &class.members;
                let listening = &self.listening[class.first..][..members.len()];
                class.eval.push_slice_selected_shared(
                    &tuples,
                    &g.sel,
                    &class.slots,
                    &mut self.cache,
                    listening.contains(&true),
                    Some((&self.stage.prefilter, &self.stage.eval_tail)),
                    |position, v| {
                        // `v` is the enumerator's scratch; keeping the
                        // match is one copy of its words into the chunk,
                        // shared by every listening member.
                        let on = members.iter().zip(listening).filter(|(_, &on)| on);
                        self.chunk.push(position, v.view(), on.map(|(&q, _)| q));
                        if self.chunk.len() >= MATCH_CHUNK {
                            deliver(&self.shared, &mut self.chunk, ingest_at);
                        }
                    },
                );
                // Journal new time-window clamps as a per-batch delta —
                // one cheap counter read per class per batch, an event
                // per member only when the stream actually violated the
                // timestamp contract.
                let regs = class.eval.stats().ts_regressions;
                if regs > class.last_regressions {
                    let count = regs - class.last_regressions;
                    class.last_regressions = regs;
                    let journal = &self.shared.metrics.journal;
                    for &query in &class.members {
                        journal.push(PipelineEvent::TsRegressions {
                            shard: self.shard_idx,
                            query,
                            position: last_pos,
                            count,
                        });
                    }
                }
            }
        }
        // Nothing stays staged across messages: whatever fence follows
        // this batch in the queue finds its matches already in the
        // channels.
        deliver(&self.shared, &mut self.chunk, ingest_at);
        self.stage.eval.record_duration(eval_at.elapsed());
    }
}

/// Publish the staged matches (one chunk) and record, for the e2e
/// samples that fall inside it, the latency since their batch was
/// reserved at `ingest_at`.
fn deliver(shared: &IngestShared, chunk: &mut MatchChunk, ingest_at: Instant) {
    let n = chunk.len() as u64;
    if n == 0 {
        return;
    }
    shared.subs.publish(chunk);
    let sampled = shared.metrics.e2e_samples(n);
    if sampled > 0 {
        let nanos = u64::try_from(ingest_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.e2e.record_n(nanos, sampled);
    }
}

/// Spawn one worker thread per queue. Each drains its bounded ingest
/// queue in FIFO order — coalescing consecutive tuple batches up to
/// [`IngestConfig::max_batch`](crate::ingest::IngestConfig::max_batch)
/// per wakeup — until the queue is closed and drained. The queues and
/// stage metrics are passed in (not read from the shared state) so
/// [`Runtime::rescale`](super::Runtime::rescale) can run old and new
/// worker sets against different queue sets during the hand-off.
pub(super) fn spawn_workers(
    shared: &Arc<IngestShared>,
    queues: &[Arc<ShardQueue>],
    stages: &[Arc<ShardStageMetrics>],
) -> Vec<JoinHandle<()>> {
    let max_batch = shared.config.max_batch.max(1);
    let spawn = |(shard_idx, (queue, stage))| {
        let queue: Arc<ShardQueue> = Arc::clone(queue);
        let mut host = ShardHost::new(shared.clone(), Arc::clone(stage), shard_idx, queues.len());
        std::thread::Builder::new()
            .name(format!("cer-shard-{shard_idx}"))
            .spawn(move || {
                let _dead = AbandonOnUnwind(&queue);
                while let Some(msg) = queue.pop_batch(max_batch) {
                    match msg {
                        ShardMsg::Tuples(batch) => host.eval_batch(batch),
                        ShardMsg::Control(job) => job(&mut host),
                    }
                }
            })
            .expect("spawn shard worker")
    };
    queues.iter().zip(stages).enumerate().map(spawn).collect()
}

/// Abandons the worker's queue if the worker thread unwinds: nothing
/// will ever pop it again, so its staged control jobs — each holding a
/// fence's reply sender — are dropped and the queue closed. A waiting
/// fence then fails with `ShardWorkerDied` instead of parking forever,
/// and producers get `Closed`.
struct AbandonOnUnwind<'a>(&'a ShardQueue);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandon();
        }
    }
}
