//! The shard worker: one thread per shard, hosting that shard's query
//! evaluators behind a [`ShardHost`] and draining its
//! [`ShardQueue`] in released (position) order.

use super::{MatchEvent, Partition, QueryId, SharedEvalStats};
use crate::evaluator::{EngineStats, StreamingEvaluator};
use crate::ingest::{key_shard, IngestShared, ShardMsg, ShardQueue, TupleBatch};
use crate::metrics::{PipelineEvent, ShardStageMetrics};
use crate::shared::PredicateCache;
use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_common::hash::{FxBuildHasher, FxHashMap};
use cer_common::RelationId;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What a shard worker hosts for one registered query.
struct LocalQuery {
    id: QueryId,
    eval: StreamingEvaluator,
    partition: Partition,
    listens: Option<Vec<RelationId>>,
    /// Indirection table: transition index → shared predicate slot in
    /// the shard's [`PredicateCache`].
    slots: Vec<u32>,
    /// Index of this query's [`QueryGroup`].
    group: usize,
    /// `ts_regressions` observed after the previous batch — new clamps
    /// show up as a delta and are journaled per batch.
    last_regressions: u64,
}

/// A shard-local bucket of skeleton-compatible queries: same automaton
/// skeleton ([`Pcea::skeleton_compatible`]), same routing interests and
/// same partition mode, so the whole group shares one routed tuple
/// selection per batch and its members differ only in per-query
/// residuals (predicates, join state, windows).
struct QueryGroup {
    /// Routing interests shared by every member (equal by construction).
    listens: Option<Vec<RelationId>>,
    /// Partition mode shared by every member.
    partition: Partition,
    /// Indices into the worker's `queries`.
    members: Vec<usize>,
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
    /// `(query, evaluator)` per hosted query, in hosting order.
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
/// 48-byte record owning one buffer of `|Ω| + |ν|` words (the flat
/// [`Valuation`](cer_automata::valuation::Valuation)), so a full chunk is
/// 12 KiB of records plus 256 small blocks — a few tens of KiB for the
/// valuations queries produce — each allocated once here and freed once
/// by whichever thread encodes it.
const MATCH_CHUNK: usize = 256;

/// Everything one shard worker owns: the hosted queries, their skeleton
/// groups, the shared predicate cache and the local routing tables.
/// Tuple batches go through [`eval_batch`](Self::eval_batch); every
/// structural change arrives as a control job of a
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
    queries: Vec<LocalQuery>,
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
    /// Reusable per-batch scratch: which queries have a subscriber.
    listening: Vec<bool>,
    /// Completed matches on their way to the subscriber channels; see
    /// [`MATCH_CHUNK`].
    chunk: Vec<MatchEvent>,
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
            queries: Vec::new(),
            groups: Vec::new(),
            cache: PredicateCache::default(),
            routes: FxHashMap::default(),
            wildcards: Vec::new(),
            listening: Vec::new(),
            chunk: Vec::new(),
        }
    }

    /// Host `q` at index `k` of `queries`: intern its predicate slots
    /// and place it in a skeleton group — same skeleton, listens and
    /// partition — creating the group if none fits. The caller finishes
    /// with [`reindex`](Self::reindex).
    fn host_at(&mut self, k: usize, q: Adopt) {
        let transitions = q.eval.pcea().transitions();
        let slots = transitions
            .iter()
            .map(|tr| self.cache.intern(&tr.unary))
            .collect();
        let last_regressions = q.eval.stats().ts_regressions;
        self.queries.insert(
            k,
            LocalQuery {
                id: q.id,
                eval: q.eval,
                partition: q.partition,
                listens: q.listens,
                slots,
                group: 0,
                last_regressions,
            },
        );
        let q = &self.queries[k];
        let fits = |g: &QueryGroup| {
            g.partition == q.partition
                && g.listens == q.listens
                && g.members.first().is_some_and(|&m| {
                    let representative = self.queries[m].eval.pcea();
                    representative.skeleton_compatible(q.eval.pcea())
                })
        };
        let group = self.groups.iter().position(fits).unwrap_or_else(|| {
            self.groups.push(QueryGroup {
                listens: q.listens.clone(),
                partition: q.partition,
                members: Vec::new(),
                sel: Vec::new(),
            });
            self.groups.len() - 1
        });
        self.groups[group].members.push(k);
        self.queries[k].group = group;
    }

    /// Remove the query at index `k`, releasing its predicate slots.
    fn unhost(&mut self, k: usize) -> LocalQuery {
        let q = self.queries.remove(k);
        for &s in &q.slots {
            self.cache.release(s);
        }
        q
    }

    /// Recompute every group's membership from the queries' `group`
    /// fields (indices into `queries` shift on removal), drop groups
    /// left empty, and rebuild the local routing tables.
    fn reindex(&mut self) {
        for g in &mut self.groups {
            g.members.clear();
        }
        for (k, q) in self.queries.iter().enumerate() {
            self.groups[q.group].members.push(k);
        }
        let mut remap = vec![usize::MAX; self.groups.len()];
        let mut live = 0usize;
        for (gi, slot) in remap.iter_mut().enumerate() {
            if !self.groups[gi].members.is_empty() {
                *slot = live;
                self.groups.swap(gi, live);
                live += 1;
            }
        }
        self.groups.truncate(live);
        for q in &mut self.queries {
            q.group = remap[q.group];
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

    /// Start hosting `batch` — fresh registrations, restored state, or
    /// a rescale hand-off; the worker cannot tell and need not.
    pub fn adopt(&mut self, batch: Vec<Adopt>) {
        for q in batch {
            self.host_at(self.queries.len(), q);
        }
        self.reindex();
    }

    /// Drop a hosted query; returns its final engine counters (`None`
    /// if this shard never hosted it).
    pub fn evict(&mut self, id: QueryId) -> Option<EngineStats> {
        let k = self.queries.iter().position(|q| q.id == id)?;
        let q = self.unhost(k);
        self.reindex();
        Some(q.eval.stats())
    }

    /// Hot-swap a hosted query's automaton in place
    /// (`Runtime::replace`): evict + adopt at the same index, with the
    /// accumulated state handed to the recompiled automaton. Returns
    /// whether this shard hosted (and swapped) the query; compatibility
    /// was validated by the control plane.
    pub fn swap(
        &mut self,
        id: QueryId,
        pcea: Pcea,
        window: WindowPolicy,
        gc_every: u64,
        listens: Option<Vec<RelationId>>,
    ) -> bool {
        let Some(k) = self.queries.iter().position(|q| q.id == id) else {
            return false;
        };
        let old = self.unhost(k);
        let eval = old
            .eval
            .replace_automaton(pcea, window, gc_every)
            .expect("replace compatibility validated by the control plane");
        let partition = old.partition;
        self.host_at(
            k,
            Adopt {
                id,
                partition,
                listens,
                eval,
            },
        );
        self.reindex();
        true
    }

    /// Copy-on-fence: capture every hosted query at this exact point of
    /// the released position order. Shards hit their fences
    /// concurrently; producers keep staging later blocks meanwhile. No
    /// bytes here — a snapshot encodes the capture on the control
    /// plane, a rescale never encodes at all.
    ///
    /// `detach: false` (snapshot) clones the evaluators and keeps
    /// serving; `detach: true` (rescale hand-off) moves them out and
    /// leaves the host empty — its queue is retired, and the reply
    /// doubles as proof the entire pre-fence backlog was evaluated.
    pub fn capture(&mut self, detach: bool) -> ShardState {
        let started = Instant::now();
        let queries = if detach {
            let moved = self.queries.drain(..).map(|q| (q.id, q.eval)).collect();
            self.reindex();
            moved
        } else {
            let cloned = self.queries.iter().map(|q| (q.id, q.eval.clone()));
            cloned.collect()
        };
        ShardState {
            queries,
            capture_nanos: started.elapsed().as_nanos() as u64,
        }
    }

    /// Per-query engine counters plus the shared-evaluation counters of
    /// this shard.
    pub fn stats(&self) -> (Vec<(QueryId, EngineStats)>, SharedEvalStats) {
        let per_query = self.queries.iter().map(|q| (q.id, q.eval.stats()));
        let shared = SharedEvalStats {
            distinct_predicates: self.cache.distinct_predicates(),
            referenced_predicates: self.cache.referenced_predicates(),
            prefilter_evals_done: self.cache.evals_done(),
            prefilter_evals_saved: self.cache.evals_saved(),
            groups: self.groups.len(),
            group_sizes: self.groups.iter().map(|g| g.members.len()).collect(),
        };
        (per_query.collect(), shared)
    }

    /// Evaluate one drained (coalesced) tuple batch: each query's
    /// subsequence of the slice goes through the vectorized batch path,
    /// and completed matches are published to the subscription registry
    /// in chunks of at most [`MATCH_CHUNK`], the last one when the
    /// batch ends.
    fn eval_batch(&mut self, batch: TupleBatch) {
        let ingest_at = batch.ingest_at;
        let tuples = batch.tuples;
        let eval_at = Instant::now();
        // Enumerating outputs only pays off if someone is listening for
        // the query's events; gate once per batch rather than per tuple
        // (subscriber churn mid-batch is already racy by construction).
        let hosted = self.queries.iter().map(|q| q.id);
        self.shared.subs.listening(hosted, &mut self.listening);
        self.cache.begin_batch(&tuples);
        // Select each *group's* subsequence of the slice (every member
        // shares listens and partition, so the group selection is
        // exactly each member's), then evaluate query-major so the
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
            for &k in &g.members {
                let q = &mut self.queries[k];
                let id = q.id;
                q.eval.push_slice_selected_shared(
                    &tuples,
                    &g.sel,
                    &q.slots,
                    &mut self.cache,
                    self.listening[k],
                    Some((&self.stage.prefilter, &self.stage.eval_tail)),
                    |position, v| {
                        // `v` is the enumerator's scratch; keeping the
                        // match is one clone of its one flat buffer —
                        // the only allocation a match costs this thread.
                        self.chunk.push(MatchEvent {
                            position,
                            query: id,
                            valuation: v.clone(),
                        });
                        if self.chunk.len() >= MATCH_CHUNK {
                            deliver(&self.shared, &mut self.chunk, ingest_at);
                        }
                    },
                );
                // Journal new time-window clamps as a per-batch delta —
                // one cheap counter read per query per batch, an event
                // only when the stream actually violated the timestamp
                // contract.
                let regs = q.eval.stats().ts_regressions;
                if regs > q.last_regressions {
                    let count = regs - q.last_regressions;
                    q.last_regressions = regs;
                    let journal = &self.shared.metrics.journal;
                    journal.push(PipelineEvent::TsRegressions {
                        shard: self.shard_idx,
                        query: id,
                        position: last_pos,
                        count,
                    });
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
fn deliver(shared: &IngestShared, chunk: &mut Vec<MatchEvent>, ingest_at: Instant) {
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
