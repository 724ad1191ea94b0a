//! Durability: a position-stamped write-ahead log, incremental disk
//! checkpoints, and crash recovery.
//!
//! Everything the runtime holds is in-memory state: arenas, `H`
//! tables, window clocks. This module makes that state survive a
//! `SIGKILL` by combining the two classic ingredients of ARIES-style
//! recovery — a redo log of everything ingested since the last
//! checkpoint, and periodic checkpoints that bound how much log must
//! be replayed:
//!
//! * `wal` — a segmented, CRC-framed, group-committed log of every
//!   stamped operation (tuple batches *and* query DDL);
//! * `store` — incremental checkpoints streamed to disk with a
//!   chunk-delta encoding against the previous epoch, chained by a
//!   manifest that also records the WAL truncation point;
//! * [`Runtime::recover`](crate::runtime::Runtime::recover) /
//!   [`Runtime::open_durable`](crate::runtime::Runtime::open_durable) —
//!   restore the latest checkpoint, replay the WAL suffix, resume.
//!
//! # Replay order soundness
//!
//! The striped sequencer ([`crate::ingest`]) already defines a total
//! order on *operations*: blocks are reserved under one lock, and each
//! shard's reorder stage releases them in block-id order. Positions
//! alone do not expose that order — control operations (register,
//! deregister, replace, snapshot fences) ride **zero-width** blocks,
//! so a registration at position `p` and a batch starting at `p` share
//! a stamp, and only the block order says which the shard workers saw
//! first.
//!
//! The WAL therefore orders records by a dedicated dense sequence
//! number, `wal_seq`, assigned *inside the same sequencer critical
//! section that reserves the block*. That gives three invariants:
//!
//! 1. **wal_seq order = block order.** Both are assigned under the one
//!    sequencer lock, so the log's order is exactly the order every
//!    shard worker observed.
//! 2. **Density.** Every logged operation takes exactly one `wal_seq`
//!    (operations that need no replay — barriers, snapshot fences,
//!    rescale fences — take none), so the group-commit stage can
//!    detect completeness by simple `+1` contiguity, and recovery can
//!    detect a gap as corruption rather than silently skipping.
//! 3. **Checkpoint alignment.** A checkpoint's epoch block reads the
//!    current `wal_seq` high-water `W` under its own reserve: every
//!    record with `seq < W` was reserved before the fence and is
//!    therefore *included* in the checkpointed state; every record
//!    with `seq ≥ W` is not. Replaying exactly the suffix `seq ≥ W`
//!    on top of the checkpoint reproduces the uninterrupted run —
//!    no record is applied twice or dropped.
//!
//! Because producers append to the log *after* their positions are
//! stamped, replaying batches through the ordinary ingest path
//! re-derives identical position stamps (checked record-by-record
//! during recovery), so the recovered runtime resumes stamping exactly
//! where the crashed one left off.
//!
//! # What is (and is not) durable
//!
//! A record is durable once its segment has been `fsync`ed — the
//! [`FsyncPolicy`] trades ingest latency against the tail of records
//! a crash may lose. A clean stop checkpoints:
//! [`Runtime::shutdown`](crate::runtime::Runtime::shutdown) writes a
//! *shutdown checkpoint* when the stream moved past the last one and
//! the WAL is healthy, so a restart after it restores that checkpoint
//! and replays no record, whatever the uptime — live state is bounded
//! by the window, not by the log. Registrations after the last moved
//! position are left to the WAL, and dropping the runtime is a crash:
//! recovery from it replays the suffix as always. The WAL segment a
//! shutdown checkpoint seals stays on disk until the next checkpoint —
//! an explicit one, or the next shutdown checkpoint, which deletes the
//! segments its predecessor covers — and recovery skips such covered
//! segments unread. Matches delivered to subscribers are *not*
//! journaled: recovery reproduces the runtime's state (and re-derives
//! any matches the replayed suffix completes), but push deliveries
//! that happened before the crash are gone with their sockets.
//! Queries whose predicates hold `Custom` closures cannot be encoded
//! and are rejected up front on durable runtimes
//! ([`Error::UnserializableQuery`](crate::Error::UnserializableQuery)).
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//! ├── MANIFEST              # checkpoint chain + WAL resume point (atomic rename)
//! ├── ckpt/
//! │   ├── ckpt-00000004.ck  # full checkpoint (chain base)
//! │   └── ckpt-00000005.ck  # chunk-delta vs epoch 4
//! └── wal/
//!     ├── wal-0000000000000000.log   # sealed segment, first wal_seq 0
//!     └── wal-00000000000003e8.log   # active segment, first wal_seq 1000
//! ```

mod store;
mod wal;

pub(crate) use store::CheckpointStore;
pub(crate) use wal::{replay_dir, Wal, WalOp, WalRecord};

use std::path::PathBuf;
use std::sync::Arc;

/// When the WAL calls `fsync` on its active segment.
///
/// Records always reach the kernel (`write(2)`) before the ingest call
/// returns — a process crash (`SIGKILL`) loses nothing under any
/// policy. The policy only governs what a *machine* crash can lose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record. Maximum durability,
    /// maximum latency.
    Always,
    /// `fsync` once every `n` appended records (group commit).
    EveryN(u32),
    /// `fsync` when at least `ms` milliseconds elapsed since the last
    /// sync, checked on each append.
    IntervalMs(u64),
}

/// Tuning knobs for the durability subsystem, carried on
/// [`RuntimeConfig`](crate::config::RuntimeConfig). The data directory
/// is *not* part of the config — it is the argument of
/// [`Runtime::open_durable`](crate::runtime::Runtime::open_durable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Group-commit policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Roll the active WAL segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a full (non-delta) checkpoint every this many epochs;
    /// bounds the chain a recovery must reconstruct.
    pub full_checkpoint_every: u64,
}

impl DurabilityConfig {
    pub fn new() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(256),
            segment_bytes: 64 << 20,
            full_checkpoint_every: 8,
        }
    }

    /// Clamp nonsensical values instead of erroring, mirroring
    /// [`RuntimeConfig::validated`](crate::config::RuntimeConfig::validated).
    pub(crate) fn validated(mut self) -> Self {
        if let FsyncPolicy::EveryN(n) = &mut self.fsync {
            *n = (*n).max(1);
        }
        self.segment_bytes = self.segment_bytes.max(4 << 10);
        self.full_checkpoint_every = self.full_checkpoint_every.max(1);
        self
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`Runtime::checkpoint`](crate::runtime::Runtime::checkpoint)
/// wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Epoch number of the checkpoint (monotonic per directory).
    pub epoch: u64,
    /// Stream position `P` of the epoch cut.
    pub position: u64,
    /// Bytes written to the checkpoint file.
    pub bytes: u64,
    /// Whether this was a full checkpoint (chain base) or a delta.
    pub full: bool,
    /// Delta compression achieved, in basis points: `bytes * 10_000 /
    /// uncompressed state size`. `10_000` means no savings.
    pub delta_ratio_bp: u64,
    /// WAL segments deleted by the post-checkpoint truncation.
    pub wal_segments_removed: u64,
}

/// Health and volume counters for a durable runtime, reported by
/// [`Runtime::durability_status`](crate::runtime::Runtime::durability_status)
/// and over the serve protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Data directory backing this runtime.
    pub dir: PathBuf,
    /// `false` after a WAL append hit an I/O error: the runtime keeps
    /// serving from memory but stopped logging (fail-open).
    pub healthy: bool,
    /// Segments currently on disk (sealed + active).
    pub wal_segments: u64,
    /// Total bytes appended to the WAL over this runtime's lifetime.
    pub wal_bytes: u64,
    /// Total records appended to the WAL over this runtime's lifetime.
    pub wal_records: u64,
    /// Epoch of the newest checkpoint, if any.
    pub last_checkpoint_epoch: Option<u64>,
    /// Position of the newest checkpoint, if any.
    pub last_checkpoint_position: Option<u64>,
    /// Checkpoints in the current chain (since the last full one).
    pub chain_len: u64,
}

/// Everything a durable [`Runtime`](crate::runtime::Runtime) keeps
/// besides its in-memory state.
pub(crate) struct DurabilityHandle {
    pub dir: PathBuf,
    pub wal: Arc<Wal>,
    pub store: CheckpointStore,
}
