//! The unified, layered error type of the engine's public API.
//!
//! Before this module existed the workspace leaked three unrelated
//! error enums to callers — [`RuntimeError`] from the query registry,
//! [`SnapshotError`] from checkpointing, [`CommonError`] from the data
//! model — plus [`WireError`] underneath both and [`IngestError`] from
//! the pipeline. A remote client cannot pattern-match five enums across
//! four crates, so the serving layer forced the redesign: one
//! [`Error`] that *wraps* the per-subsystem enums (they stay the
//! precise, layer-local types returned by the APIs that raise them) and
//! flattens every variant onto a stable numeric [`ErrorCode`] that a
//! server can serialize and a client of any language can dispatch on.
//!
//! The layering rule: subsystem APIs keep returning their own enums
//! (`Runtime::register` returns [`RuntimeError`], `Snapshot::from_bytes`
//! returns [`SnapshotError`], …), every subsystem enum converts into
//! [`Error`] via `From`, and `Error::code()` is total — every error the
//! workspace can raise has exactly one code, and every code round-trips
//! through [`ErrorCode::from_u16`]. Codes are append-only: a released
//! code's meaning never changes, new failure modes take new codes.
//!
//! The `Parse`, `Compile` and `Protocol` variants carry boundary errors
//! that originate *above* this crate (the HCQ/pattern front-end parsers
//! and the TCP protocol layer, which cannot appear in `cer-core`'s
//! dependency graph) as plain messages, so the serving layer can funnel
//! every failure it meets through the same type.

use crate::checkpoint::SnapshotError;
use crate::durability::DurabilityError;
use crate::ingest::IngestError;
use crate::runtime::RuntimeError;
use cer_common::wire::WireError;
use cer_common::CommonError;
use std::fmt;

/// Declares [`ErrorCode`] from one `Name = number, "snake_name";` list:
/// the enum, [`ErrorCode::ALL`] (in list order), the numeric round trip
/// and the name table — a new code is one row.
macro_rules! error_codes {
    ($($(#[$doc:meta])* $code:ident = $num:literal, $name:literal;)*) => {
        /// The stable numeric discriminant a server serializes for every
        /// error the engine can raise. Explicit values, append-only;
        /// grouped by layer in steps of 10.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum ErrorCode {
            $($(#[$doc])* $code = $num,)*
        }

        impl ErrorCode {
            /// Every defined code, in numeric order — the round-trip
            /// surface for protocol tests.
            pub const ALL: &'static [ErrorCode] = &[$(ErrorCode::$code),*];

            /// The wire value.
            pub fn as_u16(self) -> u16 {
                self as u16
            }

            /// Decode a wire value; `None` for codes this release does
            /// not know (a newer server, or corrupt bytes).
            pub fn from_u16(v: u16) -> Option<ErrorCode> {
                match v {
                    $($num => Some(ErrorCode::$code),)*
                    _ => None,
                }
            }

            /// The stable snake_case name, e.g. for text expositions.
            pub fn name(self) -> &'static str {
                match self {
                    $(ErrorCode::$code => $name,)*
                }
            }
        }
    };
}

error_codes! {
    /// [`CommonError::DuplicateRelation`].
    DuplicateRelation = 1, "duplicate_relation";
    /// [`CommonError::ArityMismatch`].
    ArityMismatch = 2, "arity_mismatch";
    /// [`CommonError::UnknownRelation`].
    UnknownRelation = 3, "unknown_relation";
    /// [`WireError::Unsupported`] — a value that cannot serialize.
    WireUnsupported = 10, "wire_unsupported";
    /// [`WireError::Truncated`] — bytes ran out mid-value.
    WireTruncated = 11, "wire_truncated";
    /// [`WireError::Corrupt`] — a tag or length the decoder rejects.
    WireCorrupt = 12, "wire_corrupt";
    /// [`RuntimeError::KeyPartitionUnsound`].
    KeyPartitionUnsound = 20, "key_partition_unsound";
    /// [`RuntimeError::UnknownQuery`].
    UnknownQuery = 21, "unknown_query";
    /// [`RuntimeError::ReplaceIncompatible`].
    ReplaceIncompatible = 22, "replace_incompatible";
    /// [`RuntimeError::InvalidShardCount`].
    InvalidShardCount = 23, "invalid_shard_count";
    /// [`IngestError::RuntimeClosed`].
    RuntimeClosed = 30, "runtime_closed";
    /// [`SnapshotError::NotASnapshot`].
    NotASnapshot = 40, "not_a_snapshot";
    /// [`SnapshotError::UnknownVersion`].
    UnknownSnapshotVersion = 41, "unknown_snapshot_version";
    /// [`SnapshotError::ShardWorkerDied`] / [`RuntimeError::ShardWorkerDied`].
    ShardWorkerDied = 42, "shard_worker_died";
    /// [`SnapshotError::BadDefinition`].
    BadDefinition = 43, "bad_definition";
    /// A front-end (HCQ or pattern language) rejected the query text.
    Parse = 50, "parse";
    /// A front-end compiler rejected the parsed query (not
    /// hierarchical, too many atoms, …).
    Compile = 51, "compile";
    /// A serving-layer request was malformed or violated the protocol.
    Protocol = 60, "protocol";
    /// [`DurabilityError::WalCorrupt`] — an on-disk durability
    /// structure failed validation.
    WalCorrupt = 70, "wal_corrupt";
    /// [`DurabilityError::WalIo`] — an I/O operation on a durability
    /// file failed.
    WalIo = 71, "wal_io";
    /// [`DurabilityError::ManifestMissing`] — `recover()` found no
    /// durable artifacts.
    ManifestMissing = 72, "manifest_missing";
    /// [`DurabilityError::RecoverMismatch`] — WAL replay diverged from
    /// the log.
    RecoverMismatch = 73, "recover_mismatch";
    /// [`DurabilityError::NotDurable`] — a durability operation on a
    /// runtime without a data directory.
    NotDurable = 74, "not_durable";
    /// [`RuntimeError::UnserializableQuery`] — a durable runtime
    /// rejected a query whose predicates cannot be logged.
    UnserializableQuery = 75, "unserializable_query";
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_u16())
    }
}

/// The unified error of the engine's public surface: every subsystem
/// enum wraps into it via `From`, and [`Error::code`] maps every value
/// onto a stable [`ErrorCode`] the serving layer serializes. See the
/// [module docs](self) for the layering rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Data-model layer ([`cer_common`]): schemas and tuples.
    Data(CommonError),
    /// Wire-codec layer: encode/decode failures.
    Wire(WireError),
    /// Query registry and hot-swap layer.
    Runtime(RuntimeError),
    /// Ingestion pipeline layer.
    Ingest(IngestError),
    /// Checkpoint/restore layer.
    Snapshot(SnapshotError),
    /// Durability layer (WAL, disk checkpoints, recovery).
    Durability(DurabilityError),
    /// A front-end parser rejected query text (raised above this crate;
    /// carried as a message).
    Parse(String),
    /// A front-end compiler rejected a parsed query.
    Compile(String),
    /// A serving-layer protocol violation.
    Protocol(String),
}

impl Error {
    /// The stable code for this error. Total: every variant (and every
    /// nested subsystem variant) has exactly one code.
    pub fn code(&self) -> ErrorCode {
        match self {
            Error::Data(e) => match e {
                CommonError::DuplicateRelation { .. } => ErrorCode::DuplicateRelation,
                CommonError::ArityMismatch { .. } => ErrorCode::ArityMismatch,
                CommonError::UnknownRelation { .. } => ErrorCode::UnknownRelation,
            },
            Error::Wire(e) => wire_code(e),
            Error::Runtime(e) => match e {
                RuntimeError::KeyPartitionUnsound { .. } => ErrorCode::KeyPartitionUnsound,
                RuntimeError::UnknownQuery { .. } => ErrorCode::UnknownQuery,
                RuntimeError::ReplaceIncompatible { .. } => ErrorCode::ReplaceIncompatible,
                RuntimeError::InvalidShardCount { .. } => ErrorCode::InvalidShardCount,
                RuntimeError::UnserializableQuery { .. } => ErrorCode::UnserializableQuery,
                RuntimeError::ShardWorkerDied => ErrorCode::ShardWorkerDied,
            },
            Error::Ingest(IngestError::RuntimeClosed) => ErrorCode::RuntimeClosed,
            Error::Snapshot(e) => match e {
                // Layered: a snapshot failure caused by the wire codec
                // reports the codec's code, not a blanket one.
                SnapshotError::Wire(w) => wire_code(w),
                SnapshotError::NotASnapshot => ErrorCode::NotASnapshot,
                SnapshotError::UnknownVersion(_) => ErrorCode::UnknownSnapshotVersion,
                SnapshotError::ShardWorkerDied => ErrorCode::ShardWorkerDied,
                SnapshotError::BadDefinition(_) => ErrorCode::BadDefinition,
            },
            Error::Durability(e) => match e {
                DurabilityError::WalCorrupt(_) => ErrorCode::WalCorrupt,
                DurabilityError::WalIo { .. } => ErrorCode::WalIo,
                DurabilityError::ManifestMissing => ErrorCode::ManifestMissing,
                DurabilityError::RecoverMismatch(_) => ErrorCode::RecoverMismatch,
                DurabilityError::NotDurable => ErrorCode::NotDurable,
                // Layered: a checkpoint failure inside the durability
                // layer keeps the snapshot (or wire) code.
                DurabilityError::Snapshot(s) => Error::Snapshot(s.clone()).code(),
            },
            Error::Parse(_) => ErrorCode::Parse,
            Error::Compile(_) => ErrorCode::Compile,
            Error::Protocol(_) => ErrorCode::Protocol,
        }
    }
}

fn wire_code(e: &WireError) -> ErrorCode {
    match e {
        WireError::Unsupported(_) => ErrorCode::WireUnsupported,
        WireError::Truncated => ErrorCode::WireTruncated,
        WireError::Corrupt(_) => ErrorCode::WireCorrupt,
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Data(e) => write!(f, "data error: {e}"),
            Error::Wire(e) => write!(f, "wire error: {e}"),
            Error::Runtime(e) => write!(f, "runtime error: {e}"),
            Error::Ingest(e) => write!(f, "ingest error: {e}"),
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Durability(e) => write!(f, "durability error: {e}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Compile(msg) => write!(f, "compile error: {msg}"),
            Error::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

/// Every subsystem enum converts into its wrapping variant.
macro_rules! wraps {
    ($($sub:ty => $variant:ident),* $(,)?) => {
        $(impl From<$sub> for Error {
            fn from(e: $sub) -> Self {
                Error::$variant(e)
            }
        })*
    };
}

wraps! {
    CommonError => Data,
    WireError => Wire,
    RuntimeError => Runtime,
    IngestError => Ingest,
    SnapshotError => Snapshot,
    DurabilityError => Durability,
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Data(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::Ingest(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            Error::Durability(e) => Some(e),
            Error::Parse(_) | Error::Compile(_) | Error::Protocol(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &code in ErrorCode::ALL {
            assert!(seen.insert(code.as_u16()), "duplicate code {code}");
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(9999), None);
        assert_eq!(ErrorCode::from_u16(0), None);
    }

    #[test]
    fn every_subsystem_error_has_a_code() {
        let cases: Vec<(Error, ErrorCode)> = vec![
            (
                CommonError::UnknownRelation { name: "X".into() }.into(),
                ErrorCode::UnknownRelation,
            ),
            (WireError::Truncated.into(), ErrorCode::WireTruncated),
            (
                RuntimeError::UnknownQuery {
                    id: crate::runtime::QueryId(3),
                }
                .into(),
                ErrorCode::UnknownQuery,
            ),
            (IngestError::RuntimeClosed.into(), ErrorCode::RuntimeClosed),
            (
                RuntimeError::InvalidShardCount { shards: 0 }.into(),
                ErrorCode::InvalidShardCount,
            ),
            (
                SnapshotError::UnknownVersion(9).into(),
                ErrorCode::UnknownSnapshotVersion,
            ),
            (
                // Layering: a wire error inside a snapshot error keeps
                // the codec's code.
                SnapshotError::Wire(WireError::Corrupt("x")).into(),
                ErrorCode::WireCorrupt,
            ),
            (Error::Parse("bad".into()), ErrorCode::Parse),
            (Error::Compile("bad".into()), ErrorCode::Compile),
            (Error::Protocol("bad".into()), ErrorCode::Protocol),
            (
                DurabilityError::WalCorrupt("bad magic").into(),
                ErrorCode::WalCorrupt,
            ),
            (
                DurabilityError::WalIo {
                    op: "append",
                    message: "disk full".into(),
                }
                .into(),
                ErrorCode::WalIo,
            ),
            (
                DurabilityError::ManifestMissing.into(),
                ErrorCode::ManifestMissing,
            ),
            (
                DurabilityError::RecoverMismatch("seq gap".into()).into(),
                ErrorCode::RecoverMismatch,
            ),
            (DurabilityError::NotDurable.into(), ErrorCode::NotDurable),
            (
                // Layering: a snapshot error inside a durability error
                // keeps the snapshot layer's code.
                DurabilityError::Snapshot(SnapshotError::NotASnapshot).into(),
                ErrorCode::NotASnapshot,
            ),
            (
                RuntimeError::UnserializableQuery { query: "q".into() }.into(),
                ErrorCode::UnserializableQuery,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }

    #[test]
    fn display_mentions_the_cause() {
        let e: Error = RuntimeError::UnknownQuery {
            id: crate::runtime::QueryId(7),
        }
        .into();
        let text = e.to_string();
        assert!(text.contains("not registered"), "{text}");
    }
}
