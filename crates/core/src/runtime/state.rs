//! State movement: everything that takes evaluator state off the shard
//! workers or puts it on them — snapshot / restore, live rescale,
//! durable checkpoints and crash recovery.
//!
//! All of it is built from the same three pieces: a
//! [`Fence`](crate::ingest::Fence) whose jobs
//! [`capture`](ShardHost::capture) the workers' evaluators at one point
//! of the position order, [`merge_replicas`] to fold one query's shard
//! replicas into a single evaluator, and [`install`] (through
//! [`place`], the one placement rule) to hand merged evaluators to the
//! workers of a — possibly different — layout.

use super::worker::{spawn_workers, Adopt, ShardHost, ShardState};
use super::{encodable, Partition, QueryId, QueryInfo, Runtime};
use crate::checkpoint::{QueryRecord, Snapshot};
use crate::config::RuntimeConfig;
use crate::durability::{
    replay_dir, CheckpointStats, CheckpointStore, DurabilityHandle, DurabilityStatus, Wal, WalOp,
    WalRecord,
};
use crate::error::{io_err, Error};
use crate::evaluator::StreamingEvaluator;
use crate::ingest::{BackpressurePolicy, Fence, QueryMeta, Replies, ShardQueue, ShardWorkerDied};
use crate::metrics::{PipelineEvent, ShardStageMetrics};
use cer_common::hash::FxHashMap;
use cer_common::wire::WireError;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl Runtime {
    /// Capture an epoch-consistent [`Snapshot`] of every registered
    /// query's definition and live evaluator state, **without stopping
    /// producers**: one [control fence](crate::ingest#the-control-fence)
    /// makes every shard capture (clone) its evaluators at exactly the
    /// same stamped position while ingestion keeps flowing (see
    /// [`crate::checkpoint`] for what that makes the snapshot equal to).
    /// Shards capture concurrently; each worker's copy-on-fence stall is
    /// reported in
    /// [`RuntimeStats::snapshots`](super::RuntimeStats::snapshots).
    ///
    /// Fails up front — before fencing anything — when a registered
    /// definition cannot be serialized (closure predicates).
    pub fn snapshot(&mut self) -> Result<Snapshot, Error> {
        // Every live definition must round-trip, or the snapshot would
        // be unrestorable.
        for info in self.queries.iter().filter(|i| i.alive) {
            encodable(info.spec.as_ref().expect("live query retains its spec"))?;
        }
        let (position, wal_seq, states) = self.shared.fence_all(|host| host.capture(false))?;
        // Encode: the wire layer, snapshot-only. The workers resumed
        // the moment their clone finished; serialization happens here
        // on the control plane against the captured copies. Per-shard
        // `serialize_nanos` keeps its meaning — capture stall plus
        // encode time.
        let n_shards = states.len();
        let mut per_shard_nanos = Vec::with_capacity(n_shards);
        let mut blobs: FxHashMap<QueryId, Vec<Vec<u8>>> = FxHashMap::default();
        for state in states {
            let encode_at = Instant::now();
            for (qid, mut eval) in state.queries {
                blobs.entry(qid).or_default().push(eval.snapshot_bytes()?);
            }
            per_shard_nanos.push(state.capture_nanos + encode_at.elapsed().as_nanos() as u64);
        }
        self.snap_counters.snapshots_taken += 1;
        self.snap_counters.last_snapshot_pos = Some(position);
        for &nanos in &per_shard_nanos {
            self.shared.metrics.snapshot_serialize.record(nanos);
        }
        self.snap_counters.shard_serialize_nanos = per_shard_nanos;
        let journal = &self.shared.metrics.journal;
        journal.push(PipelineEvent::SnapshotTaken { position });
        // A durable runtime rolls the active WAL segment at the fence's
        // `wal_seq`: records below it are exactly the state this
        // snapshot captured, so a checkpoint built from it can truncate
        // whole sealed segments.
        if let Some(wal) = self.shared.wal.get() {
            wal.roll_at(wal_seq);
            journal.push(PipelineEvent::WalRolled { position });
        }
        let record = |(i, info): (usize, &QueryInfo)| QueryRecord {
            id: i as u32,
            name: info.name.clone(),
            spec: info.spec.clone(),
            // Replies arrive in shard order, so each query's blobs are
            // already ascending by shard.
            blobs: blobs.remove(&QueryId(i as u32)).unwrap_or_default(),
        };
        Ok(Snapshot {
            position,
            origin_shards: n_shards,
            queries: self.queries.iter().enumerate().map(record).collect(),
            wal_seq,
        })
    }

    /// Live, in-process resharding: tear the worker set down to
    /// `shards` threads (or up), moving every query's accumulated
    /// state across — no serialize round-trip, producers blocked no
    /// longer than the fence. [`IngestHandle`](super::IngestHandle)s,
    /// subscriptions and [`QueryId`]s all survive; stamping resumes at
    /// the fence position, so outputs are identical to never having
    /// rescaled.
    ///
    /// Mechanically this is one [control
    /// fence](crate::ingest#the-control-fence) of two blocks, reserved
    /// under the lock acquisition that re-homes every query and swaps
    /// the router and the queue set:
    ///
    /// ```text
    ///  old queues ── …tuples… ─ B:capture(detach)        ×closed×
    ///  new queues ──────────── B+1:adopt ─ …tuples (held)…──►
    /// ```
    ///
    /// * block `B` carries a detaching capture to the old workers: each
    ///   drains its entire pre-fence backlog and hands its evaluators
    ///   over;
    /// * block `B+1` is completed only once the merged state has been
    ///   staged to the new queues, so the new workers adopt their state
    ///   *before* the first post-fence tuple, which waited in the
    ///   reorder buffer, not in a parked producer.
    ///
    /// The merge is restore's, minus the wire (arenas concatenate with
    /// remapped ids, `H` tables union, window clocks interleave,
    /// counters sum — all on in-memory values), and the hand-out to the
    /// new workers is restore's too. The snapshot serialization
    /// histogram is untouched by construction.
    ///
    /// All structural operations take `&mut self`, so they are
    /// serialized by construction — a rescale can neither interleave
    /// with nor deadlock against another one. Concurrent producers and
    /// consumers keep running throughout.
    pub fn rescale(&mut self, shards: usize) -> Result<(), Error> {
        if shards == 0 || shards > 64 {
            return Err(Error::InvalidShardCount { shards });
        }
        let old_n = self.num_shards();
        // Everything construction-like happens before the fence.
        let new_queues: Arc<[Arc<ShardQueue>]> = (0..shards)
            .map(|_| Arc::new(ShardQueue::new(self.config.ingest.queue_capacity)))
            .collect();
        let new_stages: Vec<Arc<ShardStageMetrics>> = (0..shards)
            .map(|_| Arc::new(ShardStageMetrics::default()))
            .collect();
        let fence_at = Instant::now();
        let (mut fence, (fence_wal_seq, old_queues, placements)) = self.shared.fence(2, |seq| {
            let old_queues = std::mem::replace(&mut seq.queues, Arc::clone(&new_queues));
            // Watermark broadcasts must keep reaching the retiring
            // queues until their workers hand their state over.
            seq.broadcast = old_queues
                .iter()
                .chain(new_queues.iter())
                .cloned()
                .collect();
            let placements = Arc::make_mut(&mut seq.router).rehome(shards);
            (seq.next_wal_seq, old_queues, placements)
        });
        let fence_pos = fence.position;
        let detach = |host: &mut ShardHost| host.capture(true);
        let moved = fence.stage(old_queues.iter().map(|q| (Arc::clone(q), detach)))?;
        // A durable runtime rolls the active segment at the fence, so a
        // recovery replaying across this rescale re-derives the same
        // fence point from segment boundaries alone (the log carries no
        // explicit rescale records — shard layout is not durable state).
        if let Some(wal) = self.shared.wal.get() {
            wal.roll_at(fence_wal_seq);
            let rolled = PipelineEvent::WalRolled {
                position: fence_pos,
            };
            self.shared.metrics.journal.push(rolled);
        }
        // The new workers start now; their queues hold everything back
        // until the second block completes.
        let new_workers = spawn_workers(&self.shared, &new_queues, &new_stages);
        let old_workers = std::mem::replace(&mut self.workers, new_workers);
        let states: Vec<ShardState> = moved.collect()?;
        let shard_move_nanos = states.iter().map(|s| s.capture_nanos).collect();
        let mut by_query: FxHashMap<QueryId, Vec<StreamingEvaluator>> = FxHashMap::default();
        for (qid, eval) in states.into_iter().flat_map(|s| s.queries) {
            by_query.entry(qid).or_default().push(eval);
        }
        let merged = placements.into_iter().map(|(id, meta)| {
            let replicas = by_query.remove(&id).unwrap_or_default();
            let mut eval =
                merge_replicas(replicas).expect("live query hosted on at least one old shard");
            eval.set_resume_position(fence_pos);
            (id, meta, eval)
        });
        install(&mut fence, &new_queues, merged, false)?.collect()?;
        let nanos = fence_at.elapsed().as_nanos() as u64;
        // Retire the old epoch: fold the retiring queues' drop totals
        // into the monotone carry-over, shrink the broadcast set back
        // to the live queues, and reap the old workers (they idle on
        // their drained queues until closed).
        let retired: u64 = old_queues.iter().map(|q| q.stats().dropped).sum();
        self.shared
            .retired_dropped
            .fetch_add(retired, Ordering::Relaxed);
        {
            let mut seq = self.shared.seq.lock().expect("sequencer poisoned");
            seq.broadcast = Arc::clone(&seq.queues);
        }
        for q in old_queues.iter() {
            q.close();
        }
        for worker in old_workers {
            let _ = worker.join();
        }
        *self.shared.metrics.shards.lock().expect("metrics poisoned") = new_stages;
        self.config.shards = shards;
        self.rescale_counters.rescales += 1;
        self.rescale_counters.last_fence_pos = Some(fence_pos);
        self.rescale_counters.last_rescale_nanos = nanos;
        self.rescale_counters.shard_move_nanos = shard_move_nanos;
        self.shared.metrics.rescale.record(nanos);
        self.shared.metrics.journal.push(PipelineEvent::Rescale {
            from: old_n,
            to: shards,
            fence_pos,
            nanos,
        });
        Ok(())
    }

    /// One autoscaling tick: sample the load signals
    /// ([`crate::autoscale::LoadSignals`]), feed them to the
    /// controller, and when it decides to move, journal the decision
    /// ([`PipelineEvent::AutoscaleDecision`]) and run the
    /// [`rescale`](Self::rescale). Returns the `(from, to)` move when
    /// one happened. Call on any cadence — the controller's hysteresis
    /// is tick-based, not wall-clock-based.
    pub fn autoscale_tick(
        &mut self,
        controller: &mut crate::autoscale::Controller,
    ) -> Result<Option<(usize, usize)>, Error> {
        use crate::autoscale::{LoadSignals, ScaleDecision};
        let stats = self.stats();
        let mut signals =
            LoadSignals::from_stats(self.num_shards(), self.config.ingest.queue_capacity, &stats);
        signals.parks_total = self.shared.metrics.parks.get();
        match controller.observe(&signals) {
            ScaleDecision::Hold => Ok(None),
            ScaleDecision::Scale { to } => {
                let from = self.num_shards();
                let position = self.next_position();
                let journal = &self.shared.metrics.journal;
                journal.push(PipelineEvent::AutoscaleDecision { from, to, position });
                self.rescale(to)?;
                Ok(Some((from, to)))
            }
        }
    }

    /// Rebuild a runtime from a [`Snapshot`] with `shards` worker
    /// threads — the shard count (and hence the partition layout) may
    /// differ from the captured runtime's — and resume stamping at the
    /// snapshot's epoch position. Query ids are preserved, retired ids
    /// included, so pre-snapshot [`QueryId`]s stay valid. Subscriptions
    /// are not part of a snapshot; consumers re-subscribe on the
    /// restored runtime.
    pub fn restore(snapshot: &Snapshot, shards: usize) -> Result<Runtime, Error> {
        Self::restore_with(snapshot, shards)
    }

    /// [`restore`](Self::restore) from a full [`RuntimeConfig`] (or a
    /// bare shard count): the restored runtime takes every
    /// construction-time knob — ingest queues, journal capacity, e2e
    /// sampling — from the config, not from the captured runtime.
    pub fn restore_with(
        snapshot: &Snapshot,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, Error> {
        let restore_at = Instant::now();
        let position = snapshot.position;
        let mut rt = Runtime::build(config.into());
        // Decode the captured shard replicas (the wire half) and merge
        // them through the same in-memory path `rescale` uses — all
        // before anything is fenced, so a corrupt snapshot touches no
        // worker.
        let mut metas = Vec::with_capacity(snapshot.queries.len());
        let mut merged = Vec::new();
        for record in &snapshot.queries {
            if record.id as usize != rt.queries.len() {
                let dense = WireError::Corrupt("snapshot query ids not dense");
                return Err(Error::Wire(dense));
            }
            // A retired id keeps its slot (and its name for
            // `query_name`) without hosting anything.
            rt.queries.push(QueryInfo {
                name: record.name.clone(),
                alive: record.spec.is_some(),
                spec: record.spec.clone(),
            });
            metas.push(QueryMeta {
                alive: record.spec.is_some(),
                partition: record
                    .spec
                    .as_ref()
                    .map_or(Partition::ByQuery, |s| s.partition),
                listens: record.spec.as_ref().and_then(|s| s.pcea.relations()),
                homes: Vec::new(),
            });
            let Some(spec) = &record.spec else { continue };
            if spec.check_partition().is_err() {
                return Err(Error::BadDefinition(spec.name.clone()));
            }
            let replicas = record
                .blobs
                .iter()
                .map(|blob| StreamingEvaluator::from_snapshot_bytes(spec.pcea.clone(), blob))
                .collect::<Result<Vec<_>, _>>()?;
            let mut eval = merge_replicas(replicas).unwrap_or_else(|| spec.fresh_evaluator());
            // A blob whose captured state runs past the snapshot's
            // epoch position is corrupt (e.g. a bit-rotted header):
            // reject it here — decoding must never panic the process.
            if eval.next_position() > position {
                let ahead = WireError::Corrupt("captured state ahead of the snapshot position");
                return Err(Error::Wire(ahead));
            }
            eval.set_resume_position(position);
            merged.push(eval);
        }
        // One fence for all queries: resume the sequencer at the epoch
        // position, install the routing tables for this layout, and
        // hand every query to its homes — rescale's install half.
        let (mut fence, (queues, placements)) = rt.shared.fence(1, |seq| {
            seq.next_pos = position;
            let router = Arc::make_mut(&mut seq.router);
            router.metas = metas;
            (Arc::clone(&seq.queues), router.rehome(seq.queues.len()))
        });
        let journal = &rt.shared.metrics.journal;
        for &(query, _) in &placements {
            journal.push(PipelineEvent::QueryRegistered { query, position });
        }
        let placed = placements.into_iter().zip(merged);
        let placed = placed.map(|((id, meta), eval)| (id, meta, eval));
        install(&mut fence, &queues, placed, false)?.collect()?;
        drop(fence);
        rt.shared
            .metrics
            .restore
            .record_duration(restore_at.elapsed());
        let shards = rt.num_shards();
        journal.push(PipelineEvent::Restored { position, shards });
        Ok(rt)
    }

    /// Open a *durable* runtime on `dir`: recover whatever state the
    /// directory holds (latest checkpoint chain plus the WAL suffix —
    /// exactly [`recover`](Self::recover)), or initialize a fresh
    /// durable runtime when the directory is empty. Either way the
    /// returned runtime logs every replayable operation to the WAL and
    /// accepts [`checkpoint`](Self::checkpoint) calls.
    ///
    /// This is the serving-layer entry point: "point me at a data
    /// directory" works on first boot and after a crash alike.
    pub fn open_durable(
        dir: impl Into<PathBuf>,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, Error> {
        Self::recover_inner(dir.into(), config.into(), true)
    }

    /// Strict crash recovery: rebuild the runtime `dir` was persisting
    /// — restore the latest manifest checkpoint, replay the WAL suffix
    /// (`wal_seq >=` the checkpoint's high-water) in stamp order, and
    /// resume stamping and logging where the crashed process stopped.
    /// A torn tail (a frame cut mid-write by the crash) is truncated
    /// away and journaled ([`PipelineEvent::WalTornTail`]); everything
    /// the crashed process *acknowledged as synced* is reproduced
    /// exactly — see the [module docs](crate::durability) for the
    /// replay-order soundness argument.
    ///
    /// Fails with [`Error::ManifestMissing`] when the
    /// directory holds neither a checkpoint manifest nor any WAL
    /// segment — recovering "nothing" is almost always an operator
    /// error (wrong path), so it is not silently turned into a fresh
    /// runtime; [`open_durable`](Self::open_durable) is the
    /// recover-or-init entry point.
    pub fn recover(
        dir: impl Into<PathBuf>,
        config: impl Into<RuntimeConfig>,
    ) -> Result<Runtime, Error> {
        Self::recover_inner(dir.into(), config.into(), false)
    }

    fn recover_inner(
        dir: PathBuf,
        config: RuntimeConfig,
        allow_fresh: bool,
    ) -> Result<Runtime, Error> {
        let config = config.validated();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", e))?;
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&wal_dir).map_err(|e| io_err("create wal dir", e))?;
        let dcfg = config.durability;
        let (store, snapshot) = CheckpointStore::open(&dir, dcfg.full_checkpoint_every)?;
        let wal_present = std::fs::read_dir(&wal_dir)
            .map_err(|e| io_err("read wal dir", e))?
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            });
        if !allow_fresh && snapshot.is_none() && !wal_present {
            return Err(Error::ManifestMissing);
        }
        // Restore the checkpointed base state (or start empty), then
        // rewind the wal_seq counter to the checkpoint's high-water so
        // the replayed operations re-derive the crashed process's
        // numbering — each replayable op consumes exactly one seq, so
        // matching numbers mean matching order.
        let from_seq = snapshot.as_ref().map(|s| s.wal_seq).unwrap_or(0);
        let mut rt = match &snapshot {
            Some(snap) => Runtime::restore_with(snap, config)?,
            None => Runtime::build(config),
        };
        {
            let mut seq = rt.shared.seq.lock().expect("sequencer poisoned");
            seq.next_wal_seq = from_seq;
        }
        // Replay the suffix. The WAL is *not* attached yet, so replay
        // feeds the normal ingest/register paths without re-logging
        // anything. Every applied record is cross-checked against what
        // the runtime actually did (stamped position, issued id): a
        // divergence means the log and the checkpoint disagree, and
        // continuing would silently fork history.
        let replay = {
            let mut expected = from_seq;
            let mut apply = |rec: WalRecord| -> Result<(), Error> {
                if rec.seq != expected {
                    return Err(Error::RecoverMismatch(format!(
                        "wal replay expected record {expected}, found {}",
                        rec.seq
                    )));
                }
                expected += 1;
                match rec.op {
                    WalOp::Batch { start, tuples } => {
                        let receipt = rt
                            .shared
                            .ingest(&tuples, BackpressurePolicy::Block)
                            .map_err(|_| {
                                Error::RecoverMismatch(
                                    "runtime closed while replaying a batch".into(),
                                )
                            })?;
                        if receipt.positions.start != start {
                            return Err(Error::RecoverMismatch(format!(
                                "replayed batch stamped at {}, logged at {start}",
                                receipt.positions.start
                            )));
                        }
                    }
                    WalOp::Register { position, id, spec } => {
                        check_position("register", rt.next_position(), position)?;
                        let got = rt.register(spec.into_owned()).map_err(|e| {
                            Error::RecoverMismatch(format!("replayed register failed: {e}"))
                        })?;
                        if got != id {
                            return Err(Error::RecoverMismatch(format!(
                                "replayed register yielded id {}, logged id {}",
                                got.0, id.0
                            )));
                        }
                    }
                    WalOp::Deregister { position, id } => {
                        check_position("deregister", rt.next_position(), position)?;
                        rt.deregister(id).map_err(|e| {
                            Error::RecoverMismatch(format!("replayed deregister failed: {e}"))
                        })?;
                    }
                    WalOp::Replace { position, id, spec } => {
                        check_position("replace", rt.next_position(), position)?;
                        rt.replace(id, spec.into_owned()).map_err(|e| {
                            Error::RecoverMismatch(format!("replayed replace failed: {e}"))
                        })?;
                    }
                }
                Ok(())
            };
            replay_dir(&wal_dir, from_seq, &mut apply)?
        };
        // Fence so replayed tuples are fully evaluated before the
        // runtime is handed out, then assert the counter lines up with
        // the log's end — one seq per record, no gaps on either side.
        rt.drain();
        {
            let seq = rt.shared.seq.lock().expect("sequencer poisoned");
            if seq.next_wal_seq != replay.next_seq {
                return Err(Error::RecoverMismatch(format!(
                    "replay consumed wal_seq up to {}, log ends at {}",
                    seq.next_wal_seq, replay.next_seq
                )));
            }
        }
        for torn in &replay.torn {
            rt.shared.metrics.journal.push(PipelineEvent::WalTornTail {
                position: rt.next_position(),
                bytes_dropped: torn.bytes_dropped,
            });
        }
        rt.shared.metrics.journal.push(PipelineEvent::Recovered {
            position: rt.next_position(),
            replayed: replay.replayed,
        });
        // Only now attach the WAL: stamping continues at the recovered
        // position, logging at the recovered seq, into a fresh active
        // segment (`resume` truncate-creates it, so repeated recoveries
        // reach a steady state instead of accreting stubs).
        let wal = Arc::new(Wal::new(wal_dir, &dcfg));
        wal.resume(replay.next_seq, replay.segments)?;
        let _ = rt.shared.wal.set(Arc::clone(&wal));
        rt.durability = Some(DurabilityHandle { dir, wal, store });
        Ok(rt)
    }

    /// Cut an incremental checkpoint to the data directory: one
    /// epoch-consistent [`snapshot`](Self::snapshot) (producers keep
    /// flowing), streamed to disk as a delta against the previous
    /// checkpoint's blobs, committed by the manifest rename — then WAL
    /// segments entirely below the cut are deleted. On return, recovery
    /// cost has been reset: a crash now replays only operations logged
    /// after this call.
    ///
    /// Errors leave the *previous* checkpoint intact — the manifest is
    /// replaced atomically, so a torn checkpoint write is swept as an
    /// orphan on the next open, never half-restored — and each one past
    /// the durability check is journaled as
    /// [`PipelineEvent::CheckpointFailed`] with its code.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, Error> {
        self.write_checkpoint(None)
    }

    /// The checkpoint [`shutdown`](Self::shutdown) writes on a durable
    /// runtime whose WAL is healthy, when the stream moved past the
    /// last checkpoint (past 0 when there is none): after a clean stop,
    /// [`open_durable`](Self::open_durable) restores it and replays
    /// nothing. A suffix of registrations only is left to the WAL — it
    /// replays in microseconds. The WAL segment the checkpoint seals is
    /// kept until the next checkpoint, explicit or shutdown (recovery
    /// skips it unread), so the stopped run's log stays readable: this
    /// one deletes only the segments the *previous* checkpoint covers,
    /// which keeps a directory that is only ever stopped cleanly
    /// bounded. A failure is journaled as in
    /// [`checkpoint`](Self::checkpoint) and the WAL stays the recovery
    /// point.
    pub(super) fn shutdown_checkpoint(&mut self) {
        let Some(handle) = &self.durability else {
            return;
        };
        let last = handle.store.last_entry();
        let (position, wal_seq) = last.map_or((0, 0), |e| (e.position, e.wal_seq));
        if handle.wal.healthy() && self.next_position() > position {
            let _ = self.write_checkpoint(Some(wal_seq));
        }
    }

    /// [`checkpoint`](Self::checkpoint), deleting the sealed WAL
    /// segments wholly below `keep_from` — by default, every one the new
    /// checkpoint covers.
    fn write_checkpoint(&mut self, keep_from: Option<u64>) -> Result<CheckpointStats, Error> {
        if self.durability.is_none() {
            return Err(Error::NotDurable);
        }
        let written = self.snapshot().and_then(|snap| {
            let handle = self.durability.as_mut().expect("durable checked above");
            let mut stats = handle.store.write(&snap)?;
            let below = keep_from.unwrap_or(snap.wal_seq);
            stats.wal_segments_removed = handle.wal.truncate_below(below);
            Ok(stats)
        });
        let stats = written.inspect_err(|e| {
            let position = self.next_position();
            let code = e.code();
            let failed = PipelineEvent::CheckpointFailed { position, code };
            self.shared.metrics.journal.push(failed);
        })?;
        self.shared
            .metrics
            .ckpt_delta_ratio_bp
            .store(stats.delta_ratio_bp, Ordering::Relaxed);
        self.shared
            .metrics
            .journal
            .push(PipelineEvent::CheckpointWritten {
                position: stats.position,
                epoch: stats.epoch,
                bytes: stats.bytes,
                full: stats.full,
            });
        Ok(stats)
    }

    /// A point-in-time [`DurabilityStatus`] — `None` for an in-memory
    /// runtime. `healthy: false` means a WAL append failed and logging
    /// stopped (the runtime keeps serving from memory — fail-open);
    /// operators should alert on it, since a crash from that state
    /// loses everything after the failure point.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        let h = self.durability.as_ref()?;
        let last = h.store.last_entry();
        Some(DurabilityStatus {
            dir: h.dir.clone(),
            healthy: h.wal.healthy(),
            wal_segments: h.wal.segments(),
            wal_bytes: h.wal.bytes_total(),
            wal_records: h.wal.records_total(),
            last_checkpoint_epoch: last.map(|e| e.epoch),
            last_checkpoint_position: last.map(|e| e.position),
            chain_len: h.store.chain_len(),
        })
    }
}

/// Merge one query's shard replicas, in ascending shard order, into a
/// single evaluator: arenas concatenate with remapped node ids, the
/// `H` join indexes union, window clocks interleave, counters sum
/// ([`StreamingEvaluator::absorb_replica`]; [`crate::checkpoint`] for
/// the soundness argument). The shared in-memory half of the merge —
/// restore feeds it decoded blobs, rescale the moved evaluators
/// directly. `None` when the query had no replica.
fn merge_replicas(
    replicas: impl IntoIterator<Item = StreamingEvaluator>,
) -> Option<StreamingEvaluator> {
    replicas.into_iter().reduce(|mut merged, replica| {
        merged.absorb_replica(replica);
        merged
    })
}

/// The one placement rule: split one query's (merged, or fresh and
/// empty) evaluator into one replica per home of a layout with
/// `n_shards` shards, in `homes` order. The first home keeps the
/// counters and every other home gets a clone reporting zero, so
/// per-query stats summed across shards stay exact; under `ByKey` each
/// home's copy is pruned to the key slice it owns in this layout —
/// replicas must stay disjoint or the next merge (rescale, restore)
/// would duplicate in-window runs (see [`crate::checkpoint`]).
fn place(
    merged: StreamingEvaluator,
    partition: Partition,
    homes: &[usize],
    n_shards: usize,
) -> Vec<StreamingEvaluator> {
    let mut replicas = Vec::with_capacity(homes.len());
    for _ in 1..homes.len() {
        let mut clone = merged.clone();
        clone.clear_replica_stats();
        replicas.push(clone);
    }
    replicas.insert(0, merged);
    if let Partition::ByKey { pos } = partition {
        for (replica, &shard) in replicas.iter_mut().zip(homes) {
            replica.retain_key_shard(pos, shard, n_shards);
        }
    }
    replicas
}

/// Put state on shards — the one way: [`place`] each query's evaluator
/// across its homes and stage one [`ShardHost::adopt`] job per shard
/// that received anything, under the next block of `fence`. `queues` is
/// the worker set the placements were computed for. A registration
/// installs one `fresh` evaluator, which may join a family; restore and
/// rescale install every live query at once, each as a family of one.
pub(super) fn install(
    fence: &mut Fence<'_>,
    queues: &[Arc<ShardQueue>],
    queries: impl IntoIterator<Item = (QueryId, QueryMeta, StreamingEvaluator)>,
    fresh: bool,
) -> Result<Replies<()>, ShardWorkerDied> {
    let mut batches: Vec<Vec<Adopt>> = queues.iter().map(|_| Vec::new()).collect();
    for (id, meta, merged) in queries {
        let replicas = place(merged, meta.partition, &meta.homes, queues.len());
        for (&shard, eval) in meta.homes.iter().zip(replicas) {
            batches[shard].push(Adopt {
                id,
                partition: meta.partition,
                listens: meta.listens.clone(),
                eval,
            });
        }
    }
    let jobs = queues.iter().zip(batches).filter(|(_, b)| !b.is_empty());
    fence.stage(jobs.map(|(queue, batch)| {
        let adopt = move |host: &mut ShardHost| host.adopt(batch, fresh);
        (Arc::clone(queue), adopt)
    }))
}

/// Replay cross-check: a logged control operation must re-apply at the
/// stream position it was originally stamped at, or the log and the
/// restored base state disagree.
fn check_position(op: &str, at: u64, logged: u64) -> Result<(), Error> {
    if at != logged {
        return Err(Error::RecoverMismatch(format!(
            "replayed {op} at position {at}, logged at {logged}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowPolicy;
    use crate::Evaluator;
    use cer_automata::pcea::paper_p0;
    use cer_automata::predicate::Key;
    use cer_automata::valuation::Valuation;
    use cer_common::tuple::tup;
    use cer_common::{Schema, Tuple};
    use std::collections::HashSet;

    const KEYS: i64 = 6;

    /// A σ0 evaluator holding in-window partial runs (T and S seen, R
    /// still to come) under `KEYS` distinct values of attribute 0, plus
    /// the R tuples that would complete them.
    fn loaded_evaluator() -> (StreamingEvaluator, Vec<Tuple>) {
        let (_, r, s, t) = Schema::sigma0();
        let mut eval =
            StreamingEvaluator::with_window(paper_p0(r, s, t), WindowPolicy::Count(1000));
        for k in 0..KEYS {
            eval.push(&tup(t, [k]));
            // Two S tuples under the same join key: the second unions.
            eval.push(&tup(s, [k, k + 10]));
            eval.push(&tup(s, [k, k + 10]));
        }
        let stats = eval.stats();
        assert!(stats.extends > 0 && stats.unions > 0 && stats.index_entries > 0);
        let completions = (0..KEYS).map(|k| tup(r, [k, k + 10])).collect();
        (eval, completions)
    }

    fn keys(eval: &StreamingEvaluator) -> HashSet<(u32, u32, Key)> {
        eval.index_keys().into_iter().collect()
    }

    fn outputs(eval: &StreamingEvaluator, next: &Tuple) -> Vec<Valuation> {
        let mut out = eval.clone().push_collect(next);
        out.sort();
        out
    }

    #[test]
    fn keyed_placement_partitions_state_and_keeps_counters_on_the_first_home() {
        let (base, completions) = loaded_evaluator();
        let partition = Partition::ByKey { pos: 0 };
        for n in [1usize, 2, 3, 5] {
            let homes: Vec<usize> = (0..n).collect();
            let replicas = place(base.clone(), partition, &homes, n);
            assert_eq!(replicas.len(), n);
            // Pairwise-disjoint `H` key sets whose union is the input's.
            let mut union = HashSet::new();
            for replica in &replicas {
                for key in keys(replica) {
                    assert!(union.insert(key), "key held by two of {n} homes");
                }
            }
            assert_eq!(union, keys(&base), "{n} homes lost or invented keys");
            if n > 1 {
                let holding = replicas.iter().filter(|r| !keys(r).is_empty()).count();
                assert!(holding > 1, "{KEYS} keys all hashed to one of {n} homes");
            }
            // Only the first home carries the counters.
            let (first, rest) = (replicas[0].stats(), &replicas[1..]);
            let want = base.stats();
            assert_eq!(
                (first.positions, first.extends, first.unions),
                (want.positions, want.extends, want.unions)
            );
            for clone in rest.iter().map(StreamingEvaluator::stats) {
                assert_eq!((clone.positions, clone.extends, clone.unions), (0, 0, 0));
            }
            // Merging the replicas back loses nothing: the next tuple
            // completes the same matches as on the input.
            let merged = merge_replicas(replicas).expect("at least one home");
            for next in &completions {
                let want = outputs(&base, next);
                assert_eq!(want.len(), 2, "both S runs of the key complete");
                assert_eq!(outputs(&merged, next), want, "{n} homes, {next:?}");
            }
        }
    }

    /// A restored arena is not trusted: a node whose label set leaves the
    /// automaton's alphabet, or whose rank breaks the leftist
    /// bookkeeping, is `Corrupt` at restore — not a panic in the first
    /// enumeration (labels) or the first `union` (a rank of `u32::MAX`).
    #[test]
    fn restore_rejects_forged_labels_and_ranks() {
        let (_, r, s, t) = Schema::sigma0();
        let window = WindowPolicy::Count(100);
        let mut rt = Runtime::new(1);
        let spec = crate::runtime::QuerySpec::new("p0", paper_p0(r, s, t), window.clone());
        rt.register(spec).unwrap();
        rt.push_batch(&[tup(t, [1i64]), tup(s, [1i64, 2])]);
        let snap = rt.snapshot().unwrap();
        assert!(Runtime::restore(&snap, 1).is_ok(), "the honest snapshot");
        // A blob is the clock, eight u64 header words, then the arena:
        // its node count and node 0's labels (u64), pos and max-start
        // (u64 each) and rank (u32).
        let mut clock = cer_common::wire::WireWriter::new();
        crate::window::WindowClock::new(window)
            .encode(&mut clock)
            .unwrap();
        let labels_at = clock.len() + 8 * 8 + 8;
        let rank_at = labels_at + 3 * 8;
        for (at, forged) in [
            (labels_at, 0b10u64.to_le_bytes().to_vec()),
            (rank_at, u32::MAX.to_le_bytes().to_vec()),
        ] {
            let mut bad = snap.clone();
            let blob = &mut bad.queries[0].blobs[0];
            blob[at..at + forged.len()].copy_from_slice(&forged);
            assert!(
                matches!(
                    Runtime::restore(&bad, 1),
                    Err(Error::Wire(WireError::Corrupt(_)))
                ),
                "forged bytes at {at} restored"
            );
        }
    }

    #[test]
    fn pinned_placement_returns_the_input_untouched() {
        let (base, completions) = loaded_evaluator();
        let replicas = place(base.clone(), Partition::ByQuery, &[2], 4);
        assert_eq!(replicas.len(), 1);
        assert_eq!(replicas[0].stats(), base.stats());
        assert_eq!(keys(&replicas[0]), keys(&base));
        for next in &completions {
            assert_eq!(outputs(&replicas[0], next), outputs(&base, next));
        }
    }
}
