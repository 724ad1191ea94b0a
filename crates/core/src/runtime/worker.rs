//! The shard worker: one thread per shard, hosting that shard's query
//! evaluators behind a [`ShardHost`] and draining its
//! [`ShardQueue`] in released (position) order.
//!
//! # Families
//!
//! Inside a skeleton group the host keeps one evaluator per *family*:
//! up to [`MAX_VARIANTS`] *variants*, automata that differ only in
//! their unary predicates, evaluated over one look-up table `H`, one
//! `DS_w` arena and one collection. A variant is a distinct
//! predicate-slot table, and the hosted query ids with that table are
//! its members. The evaluator runs once per batch; each output carries
//! the mask of variants it belongs to and becomes one match per
//! listening member of those variants, all sharing one copy of the
//! valuation's words in the worker's [`MatchChunk`]. A query sharing
//! with no one is a family of one and runs through the same loop.
//!
//! A fresh registration joins a family when a cheap sufficient check
//! holds, decided on the worker in position order:
//!
//! * the same group — skeleton, routing interests, partition;
//! * equal join extractors, window policy and GC cadence;
//! * the family's evaluator has seen no position, and both evaluators
//!   report the same next position and the same counters
//!   ([`StreamingEvaluator::accepts`]).
//!
//! It becomes a member of the variant with its predicate-slot table
//! (equal tables mean equal unary predicates, because the
//! [`PredicateCache`] interns them structurally), or a new variant while
//! the family has fewer than [`MAX_VARIANTS`]; a 65th variant starts a
//! new family, and a query registered after the family has seen tuples
//! starts its own.
//!
//! Sharing is exact. Members of one group see the same routed
//! subsequence, and evaluation is a deterministic function of automaton,
//! state and subsequence. Variants share the window clock and the
//! positions; per (transition, tuple) the prefilter yields the variants
//! whose predicate accepts. Each source slot is probed once (the join
//! extractors are equal, so is the key) and variants gathering the same
//! roots share one `extend`; each `(transition, slot, key)` is probed
//! once and a variant melding the same node into the same root as
//! another takes its `union`'s result. Reuse only happens between
//! variants at one (transition, position) or (entry, position), and
//! `extend` and `union` are deterministic over immutable nodes
//! (Proposition 5.3), so every variant reaches exactly the structure,
//! the outputs and the counters of its private evaluator — Theorem 5.1's
//! update bound is paid once per family where it is shared.
//!
//! A family only ever loses members: [`evict`](ShardHost::evict) drops
//! a variant with its last member (the evaluator with its last variant),
//! and [`swap`](ShardHost::swap) and [`capture`](ShardHost::capture)
//! split a variant into a private evaluator — its `H` column, an arena
//! copied from its roots, its counters — so a snapshot holds one private
//! evaluator per query in the unchanged format, and per-query counters
//! are what private evaluators produce. Restored and
//! rescaled state is adopted as families of one: exact but unshared,
//! because a restored replica's zeroed counters no longer prove that it
//! is in its initial state.

use super::{Partition, QueryId, SharedEvalStats};
use crate::evaluator::{EngineStats, StreamingEvaluator};
use crate::fire::MAX_VARIANTS;
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

/// One evaluator and the hosted query ids its variants serve (module
/// docs).
struct Family {
    /// Hosted ids in hosting order, each with its variant; never empty,
    /// and every variant has a member.
    members: Vec<(QueryId, usize)>,
    eval: StreamingEvaluator,
    /// Indirection tables, variant-major: variant `v`'s transition `e`
    /// reads shared predicate slot `slots[v * |∆| + e]` of the shard's
    /// [`PredicateCache`]. Every member holds its own reference to each
    /// slot of its variant.
    slots: Vec<u32>,
    /// Index of this family's [`QueryGroup`].
    group: usize,
    /// Where this family's members start in the host's per-member
    /// `listening` scratch.
    first: usize,
    /// Formed by a fresh registration, so later ones may join it;
    /// restored state never is.
    fresh: bool,
    /// `ts_regressions` observed after the previous batch — new clamps
    /// show up as a delta and are journaled per batch and member.
    last_regressions: u64,
}

impl Family {
    /// Variant `v`'s predicate-slot table.
    fn slots_of(&self, v: usize) -> &[u32] {
        let n = self.slots.len() / self.eval.variants();
        &self.slots[v * n..][..n]
    }

    /// Drop variant `v` once no member is left in it (the evaluator's
    /// last variant goes with the family, which the caller drops).
    fn forget_if_unused(&mut self, v: usize) {
        if self.members.iter().any(|&(_, m)| m == v) || self.eval.variants() == 1 {
            return;
        }
        let n = self.slots_of(v).len();
        self.slots.drain(v * n..(v + 1) * n);
        self.eval.remove_variant(v);
        for (_, m) in &mut self.members {
            *m -= usize::from(*m > v);
        }
    }
}

/// Hand each member the private evaluator of its variant, `privates[v]`
/// for variant `v`: the variant's last member takes it, the others
/// clones.
fn hand_out(
    members: &[(QueryId, usize)],
    privates: Vec<StreamingEvaluator>,
    out: &mut Vec<(QueryId, StreamingEvaluator)>,
) {
    let mut privates: Vec<Option<StreamingEvaluator>> = privates.into_iter().map(Some).collect();
    for (k, &(id, v)) in members.iter().enumerate() {
        let last = members[k + 1..].iter().all(|&(_, m)| m != v);
        let eval = if last {
            privates[v].take()
        } else {
            privates[v].clone()
        };
        out.push((id, eval.expect("a variant's last member takes it")));
    }
}

/// A shard-local bucket of skeleton-compatible queries: same automaton
/// skeleton ([`Pcea::skeleton_compatible`]), same routing interests and
/// same partition mode, so the whole group shares one routed tuple
/// selection per batch and its families differ only in per-query
/// residuals (predicates, join state, windows).
struct QueryGroup {
    /// Routing interests shared by every member (equal by construction).
    listens: Option<Vec<RelationId>>,
    /// Partition mode shared by every member.
    partition: Partition,
    /// Indices into the worker's `families`.
    families: Vec<usize>,
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
    /// `(query, evaluator)` per hosted query, in hosting order, each a
    /// private evaluator of its own.
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
/// 32-byte header plus, shared by every member it goes to, a copy of the
/// enumerator's `|Ω| + |ν|` words (the flat
/// [`Valuation`](cer_automata::valuation::Valuation)), so a full chunk is
/// two blocks — 8 KiB of headers and a few tens of KiB of words for the
/// valuations queries produce — allocated once here, each next chunk
/// pre-sized to the last, and freed once by whichever thread consumes
/// it.
const MATCH_CHUNK: usize = 256;

/// Everything one shard worker owns: the families and their
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
    /// One evaluator per family (module docs).
    families: Vec<Family>,
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
    /// family order ([`Family::first`]).
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
            families: Vec::new(),
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
    /// if none fits, and, when `fresh`, add it to a family of that group
    /// that passes the module docs' check, as a member of the variant
    /// with its slot table or as a new variant; otherwise it starts a
    /// family of its own. The caller finishes with
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
                && g.families.first().is_some_and(|&f| {
                    let representative = self.families[f].eval.pcea();
                    representative.skeleton_compatible(q.eval.pcea())
                })
        };
        let group = self.groups.iter().position(fits).unwrap_or_else(|| {
            self.groups.push(QueryGroup {
                listens: q.listens.clone(),
                partition: q.partition,
                families: Vec::new(),
                sel: Vec::new(),
            });
            self.groups.len() - 1
        });
        if fresh {
            let open = |f: &&usize| {
                let family = &self.families[**f];
                family.fresh && family.eval.accepts(&q.eval)
            };
            let open: Vec<usize> = self.groups[group]
                .families
                .iter()
                .filter(open)
                .copied()
                .collect();
            // The family holding the variant, else the first with room.
            let variant_in = |f: usize| {
                let family = &self.families[f];
                (0..family.eval.variants()).find(|&v| family.slots_of(v) == slots)
            };
            if let Some((f, v)) = open.iter().find_map(|&f| Some((f, variant_in(f)?))) {
                self.families[f].members.push((q.id, v));
                return;
            }
            let room = |f: &&usize| self.families[**f].eval.variants() < MAX_VARIANTS;
            if let Some(&f) = open.iter().find(room) {
                let family = &mut self.families[f];
                let v = family.eval.add_variant(q.eval);
                family.slots.extend(slots);
                family.members.push((q.id, v));
                return;
            }
        }
        let last_regressions = q.eval.ts_regressions();
        self.families.push(Family {
            members: vec![(q.id, 0)],
            eval: q.eval,
            slots,
            group,
            first: 0,
            fresh,
            last_regressions,
        });
        self.groups[group].families.push(self.families.len() - 1);
    }

    /// Take `id` out of its family, releasing its predicate-slot
    /// references; returns the family's index and the variant `id` was
    /// (the caller decides what happens to a variant or family left
    /// without members).
    fn leave(&mut self, id: QueryId) -> Option<(usize, usize)> {
        let f = self
            .families
            .iter()
            .position(|f| f.members.iter().any(|&(m, _)| m == id))?;
        let family = &mut self.families[f];
        let k = family.members.iter().position(|&(m, _)| m == id)?;
        let (_, v) = family.members.remove(k);
        for &s in family.slots_of(v) {
            self.cache.release(s);
        }
        Some((f, v))
    }

    /// Recompute every group's families from the families' `group`
    /// fields (indices into `families` shift on removal) and every
    /// family's `first`, drop groups left empty, and rebuild the local
    /// routing tables.
    fn reindex(&mut self) {
        for g in &mut self.groups {
            g.families.clear();
        }
        let mut first = 0;
        for (f, family) in self.families.iter_mut().enumerate() {
            self.groups[family.group].families.push(f);
            family.first = first;
            first += family.members.len();
        }
        let mut remap = vec![usize::MAX; self.groups.len()];
        let mut live = 0usize;
        for (gi, slot) in remap.iter_mut().enumerate() {
            if !self.groups[gi].families.is_empty() {
                *slot = live;
                self.groups.swap(gi, live);
                live += 1;
            }
        }
        self.groups.truncate(live);
        for family in &mut self.families {
            family.group = remap[family.group];
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
    /// which may join families; restored state and a rescale hand-off
    /// are adopted as families of one.
    pub fn adopt(&mut self, batch: Vec<Adopt>, fresh: bool) {
        for q in batch {
            self.host(q, fresh);
        }
        self.reindex();
    }

    /// Drop a hosted query; returns its final engine counters (`None`
    /// if this shard never hosted it). Its variant goes with the
    /// variant's last member, the evaluator with its last variant.
    pub fn evict(&mut self, id: QueryId) -> Option<EngineStats> {
        let (f, v) = self.leave(id)?;
        let stats = self.families[f].eval.variant_stat(v);
        if self.families[f].members.is_empty() {
            self.families.remove(f);
        } else {
            self.families[f].forget_if_unused(v);
        }
        self.reindex();
        Some(stats)
    }

    /// Hot-swap a hosted query's automaton (`Runtime::replace`): split
    /// the query's variant off its family (the evaluator itself when
    /// nothing else shares it), hand the accumulated state to the
    /// recompiled automaton and host the result as a family of one.
    /// Returns whether this shard hosted (and swapped) the query;
    /// compatibility was validated by the control plane.
    pub fn swap(
        &mut self,
        id: QueryId,
        pcea: Pcea,
        window: WindowPolicy,
        gc_every: u64,
        listens: Option<Vec<RelationId>>,
    ) -> bool {
        let Some((f, v)) = self.leave(id) else {
            return false;
        };
        let family = &mut self.families[f];
        let partition = self.groups[family.group].partition;
        let old = if family.members.is_empty() {
            self.families.remove(f).eval
        } else {
            let old = family.eval.variant(v);
            family.forget_if_unused(v);
            old
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
    /// the released position order, each id with its own private
    /// evaluator. Shards hit their fences concurrently; producers keep
    /// staging later blocks meanwhile. No bytes here — a snapshot
    /// encodes the capture on the control plane, a rescale never
    /// encodes at all.
    ///
    /// `detach: false` (snapshot) splits each variant off as a copy and
    /// keeps serving; `detach: true` (rescale hand-off) moves the
    /// evaluators out — a family of one to the last member of its
    /// variant, clones to its other members — and leaves the host empty: its
    /// queue is retired, and the reply doubles as proof the entire
    /// pre-fence backlog was evaluated.
    pub fn capture(&mut self, detach: bool) -> ShardState {
        let started = Instant::now();
        let mut queries = Vec::new();
        let split = |eval: &StreamingEvaluator| -> Vec<StreamingEvaluator> {
            (0..eval.variants()).map(|v| eval.variant(v)).collect()
        };
        if detach {
            for family in std::mem::take(&mut self.families) {
                let privates = if family.eval.variants() == 1 {
                    vec![family.eval]
                } else {
                    split(&family.eval)
                };
                hand_out(&family.members, privates, &mut queries);
            }
            self.reindex();
        } else {
            for family in &self.families {
                hand_out(&family.members, split(&family.eval), &mut queries);
            }
        }
        ShardState {
            queries,
            capture_nanos: started.elapsed().as_nanos() as u64,
        }
    }

    /// Per-query engine counters plus the shared-evaluation counters of
    /// this shard. Each member reports its variant's counters, which are
    /// exactly what its private evaluator would count.
    pub fn stats(&self) -> (Vec<(QueryId, EngineStats)>, SharedEvalStats) {
        let per_query = self.families.iter().flat_map(|f| {
            let stats: Vec<_> = (0..f.eval.variants())
                .map(|v| f.eval.variant_stat(v))
                .collect();
            f.members.iter().map(move |&(id, v)| (id, stats[v]))
        });
        let group_size = |g: &QueryGroup| {
            let members = g.families.iter().map(|&f| self.families[f].members.len());
            members.sum()
        };
        let shared = SharedEvalStats {
            distinct_predicates: self.cache.distinct_predicates(),
            referenced_predicates: self.cache.referenced_predicates(),
            prefilter_evals_done: self.cache.evals_done(),
            prefilter_evals_saved: self.cache.evals_saved(),
            groups: self.groups.len(),
            group_sizes: self.groups.iter().map(group_size).collect(),
            evaluators: self.families.len(),
        };
        (per_query.collect(), shared)
    }

    /// Evaluate one drained (coalesced) tuple batch: each family's
    /// subsequence of the slice goes through the vectorized batch path
    /// once, its outputs fan out to the listening members of the
    /// variants they belong to, and completed matches are published to
    /// the subscription registry in chunks of [`MATCH_CHUNK`] matches (a
    /// few more when members share the output that fills one), the last
    /// one when the batch ends.
    fn eval_batch(&mut self, batch: TupleBatch) {
        let ingest_at = batch.ingest_at;
        let tuples = batch.tuples;
        let eval_at = Instant::now();
        // Enumerating outputs only pays off if someone is listening for
        // the query's events; gate once per batch rather than per tuple
        // (subscriber churn mid-batch is already racy by construction).
        let hosted = self.families.iter().flat_map(|f| f.members.iter());
        let hosted = hosted.map(|&(id, _)| id);
        self.shared.subs.listening(hosted, &mut self.listening);
        self.cache.begin_batch(&tuples);
        // Select each *group's* subsequence of the slice (every member
        // shares listens and partition, so the group selection is
        // exactly each member's), then evaluate family-major so the
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
            for &f in &g.families {
                let family = &mut self.families[f];
                let members = &family.members;
                let listening = &self.listening[family.first..][..members.len()];
                let on = members.iter().zip(listening).filter(|(_, &on)| on);
                let listen = on.fold(0, |mask, (&(_, v), _)| mask | 1 << v);
                family.eval.push_slice_selected_shared(
                    &tuples,
                    &g.sel,
                    &family.slots,
                    &mut self.cache,
                    listen,
                    Some((&self.stage.prefilter, &self.stage.eval_tail)),
                    |position, variants, v| {
                        // `v` is the enumerator's scratch; keeping the
                        // match is one copy of its words into the chunk,
                        // shared by every listening member of the
                        // variants it is an output of.
                        let to = members
                            .iter()
                            .zip(listening)
                            .filter(|(&(_, var), &on)| on && variants >> var & 1 == 1);
                        self.chunk
                            .push(position, v.view(), to.map(|(&(q, _), _)| q));
                        if self.chunk.len() >= MATCH_CHUNK {
                            deliver(&self.shared, &mut self.chunk, ingest_at);
                        }
                    },
                );
                // Journal new time-window clamps as a per-batch delta —
                // one cheap counter read per family per batch, an event
                // per member only when the stream actually violated the
                // timestamp contract.
                let regs = family.eval.ts_regressions();
                if regs > family.last_regressions {
                    let count = regs - family.last_regressions;
                    family.last_regressions = regs;
                    let journal = &self.shared.metrics.journal;
                    for &(query, _) in &family.members {
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
