//! The engine's one error type, and its failure model.
//!
//! Every public fallible API of `cer_core` returns [`Error`]:
//! [`register`](crate::Runtime::register),
//! [`deregister`](crate::Runtime::deregister),
//! [`replace`](crate::Runtime::replace),
//! [`rescale`](crate::Runtime::rescale),
//! [`snapshot`](crate::Runtime::snapshot),
//! [`restore`](crate::Runtime::restore),
//! [`Snapshot::from_bytes`](crate::Snapshot::from_bytes),
//! [`open_durable`](crate::Runtime::open_durable),
//! [`recover`](crate::Runtime::recover),
//! [`checkpoint`](crate::Runtime::checkpoint) and
//! [`IngestHandle::push`](crate::IngestHandle::push) /
//! [`push_batch`](crate::IngestHandle::push_batch). A failure mode is
//! one row of the `errors!` table in this file: its variant, its stable
//! [`ErrorCode`] (number and snake name) and its message, declared
//! once. The two leaf errors of `cer_common` — [`CommonError`] (schemas
//! and tuples) and [`WireError`] (the byte codec, under every decoder:
//! protocol frames, WAL records, snapshots, checkpoints) — are wrapped
//! whole by [`Error::Data`] and [`Error::Wire`], so a `?` on either
//! lands there with its own code. `Parse`, `Compile` and `Protocol`
//! carry failures raised above this crate (the front-end parsers and
//! the TCP protocol) as messages, so the server answers every failure
//! with one `Response::Error { code, message }`.
//!
//! Codes are append-only: a released code's number and name never
//! change, a new failure mode takes a new code, and every code
//! round-trips through [`ErrorCode::from_u16`].
//!
//! # Failure model
//!
//! One row per fault: where it is detected, the code its caller sees,
//! the [`PipelineEvent`](crate::PipelineEvent) journaled, what keeps
//! serving, and the test that attacks it (`file::test`, under `tests/`
//! unless a source path is given). "—" means none.
//!
//! | Fault | Detected at | Code | Journal | Keeps serving | Attacked by |
//! |---|---|---|---|---|---|
//! | A relation redeclared with another arity | `Schema::add_relation` | `duplicate_relation` (1) | — | everything; the schema is unchanged | `net_serving::protocol_errors_carry_stable_codes_and_spare_the_connection` |
//! | A remote tuple of an unknown relation or the wrong arity | the server's `validate_tuple`, before stamping | `unknown_relation` (3), `arity_mismatch` (2) | — | everything; the batch is refused whole | the same |
//! | Query text a front-end rejects | `cer_cq` / `cer_lang`, in the server | `parse` (50), `compile` (51) | — | everything | the same |
//! | Protocol misuse (a second subscribe, an unsubscribe without one) | the server's request handler | `protocol` (60) | — | the connection | the same |
//! | A subscriber that stops reading while the server stops | `Server::stop`, which shuts the socket of every live connection | — | — | nothing, by design: the pusher's blocked write fails, its exit closes the subscription — freeing a worker parked on the full `Block` channel and the connection's own ingest behind it — and the stop completes | `net_serving::stop_returns_with_a_subscriber_that_never_reads`, `net_serving::stop_returns_with_a_silent_subscriber_parked_in_ingest` |
//! | A `Block` subscriber's peer dies while its pusher is stalled | the pusher's failed write | — | — | everything: the pusher's exit closes the subscription, which frees the parked shard worker and every producer's ingest behind it | `net_serving::a_dead_silent_subscriber_does_not_stall_other_clients` |
//! | Hostile bytes in a protocol frame | `decode_message` | `wire_truncated` (11), `wire_corrupt` (12), `wire_unsupported` (10) | — | the connection; an over-cap length prefix closes it | `net_serving::garbage_frames_get_wire_errors_and_framing_violations_close`, `hostile_bytes::mutated_requests_are_rejected_or_reencode` |
//! | A `ByKey` placement whose joins do not project the key | `register`, `replace`; `restore` | `key_partition_unsound` (20); `bad_definition` (43) | — | everything; nothing is registered | `crates/core/src/runtime/mod.rs::unsound_key_partition_rejected` |
//! | An unknown or retired query id | `deregister`, `replace`, a subscribe over the wire | `unknown_query` (21) | — | everything | `checkpoint_restore::restore_preserves_ids_across_deregistration` |
//! | A hot-swap that cannot take over the old state | `replace` | `replace_incompatible` (22) | — | the old query, untouched | `checkpoint_restore::replace_rejects_incompatible_handoffs_and_leaves_state_intact` |
//! | A shard count outside `1..=64` | `rescale` | `invalid_shard_count` (23) | — | everything, on the old layout | `rescale::rescale_rejects_invalid_shard_counts` |
//! | A query whose closure predicates have no wire form | `snapshot`; `register` / `replace` on a durable runtime | `wire_unsupported` (10); `unserializable_query` (75), before anything is logged | — | everything; the log has no gap | `checkpoint_restore::snapshot_rejects_closure_predicates`, `durability::durable_runtime_rejects_unserializable_queries_without_gaps` |
//! | Snapshot bytes that are not a snapshot, of another version, truncated or forged | `Snapshot::from_bytes`; `restore`, before any worker is fenced | `not_a_snapshot` (40), `unknown_snapshot_version` (41), `wire_*`, `bad_definition` (43) | — | the caller; no runtime is built | `hostile_bytes::mutated_snapshots_are_rejected_or_reencode`, `crates/core/src/runtime/state.rs::restore_rejects_forged_labels_and_ranks` |
//! | A missing, non-integer or regressing time-window timestamp | `WindowClock::observe`, per shard clock | — (clamped and counted) | `TsRegressions` | everything; under `ByKey` the clamp can depend on the shard count ([`crate::window`]) | `net_serving::a_tuple_without_a_timestamp_is_clamped_and_the_server_keeps_serving`, `time_windows::missing_timestamp_is_clamped_and_counted` |
//! | A full shard queue | the producer, after staging its block | — | `ProducerParked` (`Block`), `TuplesDropped` (`DropNewest`) | everything; `DropNewest` sheds and counts | `ingest_async::drop_newest_accounting_with_tiny_capacities` |
//! | A push after the runtime was dropped or shut down | `IngestHandle::push{,_batch}` | `runtime_closed` (30) | — | nothing; the handle fails fast | `ingest_async::late_subscription_and_closed_runtime` |
//! | A shard worker panics | its closed queue, or its dropped fence reply | `shard_worker_died` (42) to fences; `runtime_closed` (30) to producers | — | nothing: `Runtime::{push_batch, drain, stats}` panic in `alive()`; the runtime must be dropped. A `deregister` or `replace` it fails is still committed — stamped, routed, logged and in the registry — so a repeat `deregister` answers `unknown_query` | `crates/core/src/runtime/mod.rs::a_dead_shard_worker_fails_its_callers_instead_of_parking_them`, `crates/core/src/runtime/mod.rs::a_dead_shard_worker_leaves_the_registry_in_step_with_the_log` |
//! | A WAL append fails under a live runtime (directory gone, disk full, I/O error) | `Wal::append`, on the pushing or registering thread | none to the producer: its block is already stamped | `WalFailed { code }`, `wal_io` (71) for the disk | everything, from memory: the log poisons itself, `durability_status().healthy` turns `false`, and nothing after the failure is durable | `durability::live_wal_failure_fails_open` |
//! | A checkpoint write fails | `CheckpointStore::write` | `wal_io` (71) | `SnapshotTaken`, then `CheckpointFailed { code }` | everything; the previous manifest stays the recovery point | `durability::live_wal_failure_fails_open` |
//! | The shutdown checkpoint fails | `CheckpointStore::write`, inside `Runtime::shutdown` | `wal_io` (71), journaled only: `shutdown` returns its stats | `CheckpointFailed { code }` | `shutdown` completes; the WAL stays the recovery point, seen as `replayed > 0` on the next open | `durability::a_failed_shutdown_checkpoint_leaves_the_wal_the_recovery_point` |
//! | A record torn by a crash mid-write | `recover`, by the frame CRC | — (the tail is truncated) | `WalTornTail` | the recovered runtime, up to the last whole record | `durability::crash_recovery_differential`, `crates/core/src/durability/wal.rs::torn_tail_is_truncated_and_survivors_replay` |
//! | A damaged segment header, checkpoint or manifest | `recover`, `open_durable` | `wal_corrupt` (70), or `wire_*` from a checkpoint payload | — | nothing is built | `durability::recovery_rejects_corruption_with_stable_errors`, `crates/core/src/durability/store.rs::mutated_manifests_are_rejected_or_reread` |
//! | A hole in the record sequence, or a replay that diverges from the log | `recover`, `open_durable` | `recover_mismatch` (73) | — | nothing is built | `durability::recovery_rejects_corruption_with_stable_errors` |
//! | `recover` on a directory with no manifest and no WAL | `recover` | `manifest_missing` (72) | — | nothing; `open_durable` initializes the directory instead | `durability::recover_refuses_empty_dir_open_durable_initializes` |
//! | A durability call on an in-memory runtime | `checkpoint` | `not_durable` (74) | — | everything | `durability::durability_status_and_not_durable` |
//!
//! Open gaps, stated as today's behaviour:
//!
//! * A dead shard worker is not contained. Fences report
//!   `shard_worker_died` and producers `runtime_closed`, but the
//!   infallible `push_batch`, `drain` and `stats` panic, and nothing is
//!   journaled. Only the registry is kept in step: a structural
//!   operation the dead worker fails stays committed.
//! * Storage faults are injected only as a vanished data directory.
//!   Failing `fsync`, failing `rename` and short writes on live files
//!   are not attacked yet, so the claim that `FsyncPolicy::Always` loses
//!   no acknowledged operation when `fsync` itself fails is untested.

use crate::runtime::QueryId;
use cer_common::wire::WireError;
use cer_common::CommonError;
use std::fmt;

/// Declares [`Error`] and [`ErrorCode`] from one table, one row per
/// failure mode. A row is the `Error` variant (its fields named, tuple
/// fields too), then `=>` its code, number, snake name and message —
/// a format string over the fields. The leaf errors of `cer_common` are
/// wrapped whole in a leading `wraps { Data(CommonError) { .. } }`,
/// one `Leaf => Code` row per leaf variant, and keep their own message. Emits both enums,
/// [`ErrorCode::ALL`] in row order (which is numeric order), the
/// numeric and name tables, a one-arm-per-code [`Error::code`],
/// `Display` and a `From` per leaf.
macro_rules! errors {
    (
        wraps {$($(#[$wdoc:meta])* $wrap:ident($leaf:ident) {
            $($lvar:ident => $lcode:ident = $lnum:literal, $lname:literal;)*
        })*}
        $($(#[$doc:meta])*
        $var:ident $(($($tf:ident: $tty:ty),*))? $({$($(#[$fdoc:meta])* $sf:ident: $sty:ty,)*})?
            => $code:ident = $num:literal, $name:literal, $msg:literal;)*
    ) => {
        /// The stable numeric discriminant a server serializes for every
        /// error the engine can raise. Explicit values, append-only;
        /// grouped by layer in steps of 10.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum ErrorCode {
            $($(#[doc = concat!("[`", stringify!($leaf), "::", stringify!($lvar), "`].")]
            $lcode = $lnum,)*)*
            $(#[doc = concat!("[`Error::", stringify!($var), "`].")]
            $code = $num,)*
        }

        impl ErrorCode {
            /// Every defined code, in numeric order — the round-trip
            /// surface for protocol tests.
            pub const ALL: &'static [ErrorCode] =
                &[$($(ErrorCode::$lcode,)*)* $(ErrorCode::$code),*];

            /// Decode a wire value; `None` for codes this release does
            /// not know (a newer server, or corrupt bytes).
            pub fn from_u16(v: u16) -> Option<ErrorCode> {
                match v {
                    $($($lnum => Some(ErrorCode::$lcode),)*)*
                    $($num => Some(ErrorCode::$code),)*
                    _ => None,
                }
            }

            /// The stable snake_case name, e.g. for text expositions.
            pub fn name(self) -> &'static str {
                match self {
                    $($(ErrorCode::$lcode => $lname,)*)*
                    $(ErrorCode::$code => $name,)*
                }
            }
        }

        /// Every failure the engine's public API can report; see the
        /// [module docs](self) for the failure model.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum Error {
            $($(#[$wdoc])* $wrap($leaf),)*
            $($(#[$doc])* $var $(($($tty),*))? $({$($(#[$fdoc])* $sf: $sty,)*})?,)*
        }

        impl Error {
            /// The stable code of this failure mode.
            pub fn code(&self) -> ErrorCode {
                match self {
                    $($(Error::$wrap($leaf::$lvar { .. }) => ErrorCode::$lcode,)*)*
                    $(Error::$var { .. } => ErrorCode::$code,)*
                }
            }
        }

        impl fmt::Display for Error {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Error::$wrap(e) => e.fmt(f),)*
                    $(Error::$var $(($($tf),*))? $({$($sf,)*})? => write!(f, $msg),)*
                }
            }
        }

        $(impl From<$leaf> for Error {
            fn from(e: $leaf) -> Self {
                Error::$wrap(e)
            }
        })*
    };
}

errors! {
    wraps {
        /// Data model ([`cer_common`]): schemas and tuples.
        Data(CommonError) {
            DuplicateRelation => DuplicateRelation = 1, "duplicate_relation";
            ArityMismatch => ArityMismatch = 2, "arity_mismatch";
            UnknownRelation => UnknownRelation = 3, "unknown_relation";
        }
        /// The byte codec, wherever it runs: a protocol frame, a WAL
        /// record, a snapshot or a checkpoint.
        Wire(WireError) {
            Unsupported => WireUnsupported = 10, "wire_unsupported";
            Truncated => WireTruncated = 11, "wire_truncated";
            Corrupt => WireCorrupt = 12, "wire_corrupt";
        }
    }
    /// [`Partition::ByKey`](crate::runtime::Partition::ByKey) was
    /// requested but some join of the automaton does not project the
    /// partition attribute on both sides, so runs could cross shard
    /// boundaries and outputs would be lost.
    KeyPartitionUnsound {
        /// The query's name.
        query: String,
        /// The requested partition attribute.
        pos: usize,
    } => KeyPartitionUnsound = 20, "key_partition_unsound",
        "query `{query}`: key partitioning on tuple position {pos} is unsound — \
         every join must project that attribute on both sides";
    /// The query id is not currently registered (never was, or already
    /// deregistered).
    UnknownQuery {
        /// The offending id.
        id: QueryId,
    } => UnknownQuery = 21, "unknown_query", "query {id:?} is not registered";
    /// [`Runtime::replace`](crate::runtime::Runtime::replace) rejected a
    /// hot-swap: the new query cannot take over the old one's
    /// accumulated state. The old query keeps running untouched.
    ReplaceIncompatible {
        /// The replacement query's name.
        query: String,
        /// What failed the compatibility check.
        reason: &'static str,
    } => ReplaceIncompatible = 22, "replace_incompatible",
        "query `{query}` cannot take over the old state: {reason}";
    /// [`Runtime::rescale`](crate::runtime::Runtime::rescale) was asked
    /// for a shard count outside the supported `1..=64` range (the same
    /// bound [`RuntimeConfig`](crate::RuntimeConfig) clamps to at
    /// construction).
    InvalidShardCount {
        /// The rejected count.
        shards: usize,
    } => InvalidShardCount = 23, "invalid_shard_count",
        "shard count {shards} out of range (1..=64)";
    /// The runtime was dropped or shut down, or a shard worker is gone:
    /// an [`IngestHandle`](crate::IngestHandle) push has nowhere to go.
    RuntimeClosed => RuntimeClosed = 30, "runtime_closed", "the runtime has shut down";
    /// The byte stream is not a snapshot (bad magic).
    NotASnapshot => NotASnapshot = 40, "not_a_snapshot", "not a snapshot (bad magic)";
    /// The snapshot was written by an unknown format version.
    UnknownVersion(version: u32) => UnknownSnapshotVersion = 41, "unknown_snapshot_version",
        "unknown snapshot format version {version}";
    /// A shard worker vanished while a structural operation's fence
    /// (register, deregister, replace, snapshot, rescale, checkpoint)
    /// waited on it. The operation was not applied; the runtime should
    /// be dropped.
    ShardWorkerDied => ShardWorkerDied = 42, "shard_worker_died",
        "a shard worker died during the operation";
    /// A restored query definition failed re-registration (e.g. its key
    /// partition no longer validates). The payload names the query.
    BadDefinition(query: String) => BadDefinition = 43, "bad_definition",
        "restored query `{query}` failed re-registration";
    /// A front-end parser (HCQ or pattern language) rejected query
    /// text. Raised above this crate; carried as a message.
    Parse(message: String) => Parse = 50, "parse", "parse error: {message}";
    /// A front-end compiler rejected a parsed query (not hierarchical,
    /// too many atoms, …).
    Compile(message: String) => Compile = 51, "compile", "compile error: {message}";
    /// A serving-layer request was malformed or violated the protocol.
    Protocol(message: String) => Protocol = 60, "protocol", "protocol error: {message}";
    /// An on-disk durability structure failed validation (bad magic,
    /// bad CRC on a checkpoint, undecodable record payload). The
    /// payload names the structure.
    WalCorrupt(what: &'static str) => WalCorrupt = 70, "wal_corrupt",
        "durability file corrupt: {what}";
    /// An I/O operation on a durability file failed. The `io::Error` is
    /// stringified so the error stays `Clone + Eq`.
    WalIo {
        /// What was being attempted (`"append"`, `"open segment"`, …).
        op: &'static str,
        /// The stringified `io::Error`.
        message: String,
    } => WalIo = 71, "wal_io", "durability i/o failed during {op}: {message}";
    /// `recover()` found no manifest and no WAL segments in the
    /// directory.
    ManifestMissing => ManifestMissing = 72, "manifest_missing",
        "no manifest or wal segments found in data directory";
    /// Replay diverged from the log: a position stamp, query id or
    /// sequence number did not reproduce. The payload describes the
    /// divergence.
    RecoverMismatch(why: String) => RecoverMismatch = 73, "recover_mismatch",
        "wal replay diverged from the log: {why}";
    /// A durability operation on a runtime that was not opened through
    /// [`Runtime::open_durable`](crate::runtime::Runtime::open_durable)
    /// or [`Runtime::recover`](crate::runtime::Runtime::recover).
    NotDurable => NotDurable = 74, "not_durable",
        "runtime was not opened with a data directory";
    /// A durable runtime rejected a registration (or hot-swap) whose
    /// definition cannot be written to the WAL — closure predicates
    /// have no wire form, so the query could never be recovered.
    /// Rejected before anything is logged or routed; the runtime is
    /// unchanged.
    UnserializableQuery {
        /// The rejected query's name.
        query: String,
    } => UnserializableQuery = 75, "unserializable_query",
        "query `{query}` cannot be written to the WAL (closure predicates have no \
         wire form) — a durable runtime would lose it on recovery";
}

impl ErrorCode {
    /// The wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_u16())
    }
}

impl std::error::Error for Error {}

/// An I/O failure on a durability file, stringified as
/// [`Error::WalIo`].
pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> Error {
    Error::WalIo {
        op,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_roundtrip_and_are_unique() {
        let mut seen = BTreeSet::new();
        for &code in ErrorCode::ALL {
            assert!(seen.insert(code.as_u16()), "duplicate code {code}");
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert!(ErrorCode::ALL
            .windows(2)
            .all(|w| w[0].as_u16() < w[1].as_u16()));
        assert_eq!(ErrorCode::from_u16(9999), None);
        assert_eq!(ErrorCode::from_u16(0), None);
    }

    #[test]
    fn every_subsystem_error_has_a_code() {
        let cases: Vec<(Error, ErrorCode)> = vec![
            (
                CommonError::DuplicateRelation { name: "X".into() }.into(),
                ErrorCode::DuplicateRelation,
            ),
            (
                CommonError::ArityMismatch {
                    relation: "X".into(),
                    expected: 2,
                    got: 3,
                }
                .into(),
                ErrorCode::ArityMismatch,
            ),
            (
                CommonError::UnknownRelation { name: "X".into() }.into(),
                ErrorCode::UnknownRelation,
            ),
            (
                WireError::Unsupported("closure").into(),
                ErrorCode::WireUnsupported,
            ),
            (WireError::Truncated.into(), ErrorCode::WireTruncated),
            (WireError::Corrupt("x").into(), ErrorCode::WireCorrupt),
            (
                Error::KeyPartitionUnsound {
                    query: "q".into(),
                    pos: 1,
                },
                ErrorCode::KeyPartitionUnsound,
            ),
            (
                Error::UnknownQuery { id: QueryId(3) },
                ErrorCode::UnknownQuery,
            ),
            (
                Error::ReplaceIncompatible {
                    query: "q".into(),
                    reason: "automaton shape differs",
                },
                ErrorCode::ReplaceIncompatible,
            ),
            (
                Error::InvalidShardCount { shards: 0 },
                ErrorCode::InvalidShardCount,
            ),
            (Error::RuntimeClosed, ErrorCode::RuntimeClosed),
            (Error::NotASnapshot, ErrorCode::NotASnapshot),
            (Error::UnknownVersion(9), ErrorCode::UnknownSnapshotVersion),
            (Error::ShardWorkerDied, ErrorCode::ShardWorkerDied),
            (Error::BadDefinition("q".into()), ErrorCode::BadDefinition),
            (Error::Parse("bad".into()), ErrorCode::Parse),
            (Error::Compile("bad".into()), ErrorCode::Compile),
            (Error::Protocol("bad".into()), ErrorCode::Protocol),
            (Error::WalCorrupt("bad magic"), ErrorCode::WalCorrupt),
            (
                io_err("append", std::io::Error::other("disk full")),
                ErrorCode::WalIo,
            ),
            (Error::ManifestMissing, ErrorCode::ManifestMissing),
            (
                Error::RecoverMismatch("seq gap".into()),
                ErrorCode::RecoverMismatch,
            ),
            (Error::NotDurable, ErrorCode::NotDurable),
            (
                Error::UnserializableQuery { query: "q".into() },
                ErrorCode::UnserializableQuery,
            ),
        ];
        let mut covered = BTreeSet::new();
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
            covered.insert(err.code().as_u16());
        }
        let all: BTreeSet<u16> = ErrorCode::ALL.iter().map(|c| c.as_u16()).collect();
        assert_eq!(covered, all, "a code without a case");
    }

    #[test]
    fn display_mentions_the_cause() {
        let text = Error::UnknownQuery { id: QueryId(7) }.to_string();
        assert!(text.contains("not registered"), "{text}");
        let text = Error::UnknownVersion(9).to_string();
        assert!(text.contains("version 9"), "{text}");
    }
}
