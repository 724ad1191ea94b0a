//! The length-framed request/response protocol, over [`cer_common::wire`].
//!
//! Every message travels in one frame:
//!
//! ```text
//! ┌─────────────┬───────────────────────────────┐
//! │ len: u32 LE │ payload: len bytes (Wire)     │
//! └─────────────┴───────────────────────────────┘
//! ```
//!
//! `len` counts payload bytes only (not itself), must be ≥ 1 (the
//! payload always starts with a message tag), and must not exceed the
//! receiver's frame cap ([`DEFAULT_MAX_FRAME`] unless configured
//! otherwise) — a cap violation is a protocol error *before* any
//! allocation, so a hostile length prefix cannot balloon memory. The
//! payload is a [`Request`] or [`Response`] encoded with the same
//! bounds-checked [`Wire`] codec the engine uses for snapshots: decoding
//! arbitrary bytes returns [`WireError`]s, never panics, and trailing
//! bytes after a complete message are rejected as corruption.
//!
//! Requests are answered in order with exactly one [`Response`] each —
//! except [`Request::Subscribe`], after which the server *also*
//! interleaves unsolicited [`Response::Event`] frames onto the
//! connection as matches complete (the client side of this protocol
//! buffers them aside; see `Client`). Every failure is reported as
//! [`Response::Error`] carrying a stable
//! [`ErrorCode`](cer_core::ErrorCode) discriminant plus a human-readable
//! message; the connection stays usable afterwards.
//!
//! # The op table
//!
//! [`Request`] and [`Response`] are declared with
//! [`wire_enum!`](cer_common::wire_enum): each variant is one
//! `tag => Variant { fields }` row, and the row *is* the wire form — the
//! tag byte, then the fields in order, each in its type's own
//! [`Wire`] form unless the row names a codec. Tags as they read off the
//! declarations:
//!
//! | tag | request | tag | response |
//! |---|---|---|---|
//! | 0 | `Hello` | 0 | `Hello` |
//! | 1 | `DeclareRelation` | 1 | `RelationDeclared` |
//! | 2 | `SubmitQuery` | 2 | `QueryAccepted` |
//! | 3 | `IngestBatch` | 3 | `Ingested` |
//! | 4 | `Subscribe` | 4 | `Subscribed` |
//! | 5 | `Unsubscribe` | 5 | `Unsubscribed` |
//! | 6 | `Deregister` | 6 | `Deregistered` |
//! | 7 | `Stats` | 7 | `Stats` |
//! | 8 | `MetricsText` | 8 | `MetricsText` |
//! | 9 | `Snapshot` | 9 | `Snapshot` |
//! | 10 | `Drain` | 10 | `Drained` |
//! | 11 | `Ping` | 11 | `Pong` |
//! | 12 | `Shutdown` | 12 | `ShuttingDown` |
//! | 13 | `Rescale` | 13 | `Error` |
//! | 14 | `SetAutoscale` | 14 | `Event` |
//! | 15 | `AutoscaleStatus` | 15 | `Rescaled` |
//! | 16 | `Checkpoint` | 16 | `AutoscaleStatus` |
//! | 17 | `DurabilityStatus` | 17 | `CheckpointDone` |
//! | | | 18 | `Durability` |
//!
//! **Adding an op** costs one row here with the next free tag (plus a
//! reply row if it has one of its own), one arm in
//! `server.rs::handle_request`, one `expect!` line in `client.rs` and
//! one sample in `tests/wire_golden.rs`. Tags are append-only;
//! [`PROTOCOL_VERSION`] moves only if a released row changes.

use cer_automata::valuation::ValuationRef;
use cer_common::wire::{Bytes, Codec, Len, Wire, WireError, WireReader, WireWriter};
use cer_common::{wire_enum, wire_struct, RelationId, Tuple};
use cer_core::runtime::{MatchEvent, Partition, QueryId};
use cer_core::window::WindowPolicy;
use cer_core::BackpressurePolicy;
use std::io::{self, Read, Write};

/// Version tag exchanged in [`Request::Hello`]; bumped on incompatible
/// protocol changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one frame's payload size (16 MiB). A `len` prefix
/// above the cap is rejected before any allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Framing

/// Write one frame: `len` prefix plus `payload`, then flush.
///
/// Prefix and payload are assembled first and leave in a single
/// `write_all`, so on a no-delay socket a small frame is one syscall
/// and one segment, not two.
///
/// The caller is responsible for `payload.len() <= max_frame` on its
/// side; the function only refuses payloads whose length cannot be
/// represented at all.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over 4 GiB"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Append one whole frame — `len` prefix plus the encoded `msg` — to
/// `buf`, with no intermediate payload buffer: the bytes are exactly
/// what [`write_frame`] sends for [`encode_message`]`(msg)`, so frames
/// encoded back to back into one buffer leave in one write. On error
/// `buf` is left as it was.
pub(crate) fn encode_frame_into<T: Wire>(buf: &mut Vec<u8>, msg: &T) -> Result<(), WireError> {
    let start = buf.len();
    let mut w = WireWriter::appending_to(std::mem::take(buf));
    w.put_u32(0);
    let len = msg.encode(&mut w).and_then(|()| {
        u32::try_from(w.len() - start - 4)
            .map_err(|_| WireError::Corrupt("frame payload over 4 GiB"))
    });
    *buf = w.into_bytes();
    match len {
        Ok(len) => buf[start..start + 4].copy_from_slice(&len.to_le_bytes()),
        Err(_) => buf.truncate(start),
    }
    len.map(drop)
}

/// Append one [`Response::Event`] frame for a match borrowed from
/// wherever it lies — a [`MatchChunk`](cer_core::MatchChunk)'s words —
/// with no owned match and no intermediate payload: the bytes
/// [`write_frame`] sends for `encode_message(&Response::Event(ev))`,
/// `ev` the owned match, `4 + 13 + 8 · (1 + |Ω| + |ν|)` of them,
/// reserved in one step. On error `buf` is left as it was.
pub fn encode_event_frame(
    buf: &mut Vec<u8>,
    position: u64,
    query: QueryId,
    valuation: ValuationRef<'_>,
) -> Result<(), WireError> {
    let len = event_payload_len(valuation)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or(WireError::Corrupt("frame payload over 4 GiB"))?;
    let mut w = WireWriter::appending_to(std::mem::take(buf));
    w.reserve(4 + len as usize);
    w.put_u32(len);
    w.put_u8(EVENT_TAG);
    put_event(&mut w, position, query, valuation);
    *buf = w.into_bytes();
    Ok(())
}

/// Read one frame's payload from a stream.
///
/// * `Ok(Some(payload))` — a complete frame;
/// * `Ok(None)` — clean EOF *at a frame boundary* (the peer closed);
/// * `Err(_)` — an I/O error, EOF mid-frame (`UnexpectedEof`), a frame
///   over `max_frame` (`InvalidData`), or an empty frame
///   (`InvalidData`). Read timeouts surface as the platform's
///   `WouldBlock`/`TimedOut` error for the caller to treat as "no frame
///   yet".
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            // A timeout with part of the prefix already read must keep
            // the bytes: retry the read so a slow peer is not corrupted.
            Err(e) if filled > 0 && would_block(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    check_frame_len(len, max_frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            Ok(n) => at += n,
            Err(e) if would_block(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Validate a frame length prefix against the cap. Pure — shared by the
/// stream reader and [`parse_frame`], and the target of the fuzz tests.
pub fn check_frame_len(len: usize, max_frame: usize) -> Result<(), WireError> {
    if len == 0 {
        return Err(WireError::Corrupt("empty frame"));
    }
    if len > max_frame {
        return Err(WireError::Corrupt("frame over the receiver's cap"));
    }
    Ok(())
}

/// Parse one frame out of a byte buffer (the pure, non-blocking twin of
/// [`read_frame`], used by tests and poll-style callers): returns the
/// payload and the unconsumed rest, `None` when the buffer does not yet
/// hold a complete frame, or a [`WireError`] for a frame that can never
/// become valid (zero-length or over the cap).
#[allow(clippy::type_complexity)]
pub fn parse_frame(buf: &[u8], max_frame: usize) -> Result<Option<(&[u8], &[u8])>, WireError> {
    let Some(len_buf) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len_buf.try_into().expect("4-byte slice")) as usize;
    check_frame_len(len, max_frame)?;
    match buf.get(4..4 + len) {
        Some(payload) => Ok(Some((payload, &buf[4 + len..]))),
        None => Ok(None),
    }
}

/// Encode a message into a frame payload.
pub fn encode_message<T: Wire>(msg: &T) -> Result<Vec<u8>, WireError> {
    let mut w = WireWriter::new();
    msg.encode(&mut w)?;
    Ok(w.into_bytes())
}

/// Decode a frame payload into a message, rejecting trailing bytes.
pub fn decode_message<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(payload);
    let msg = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::Corrupt("trailing bytes after message"));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Messages

wire_enum! {
    /// Which query front-end parses a [`Request::SubmitQuery`]'s text.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Frontend {
        /// The HCQ front-end (`Q(x, y) <- T(x), S(x, y)` rule syntax,
        /// compiled via the paper's Theorem 4.1 construction).
        0 => Hcq,
        /// The CER pattern language (`T(x) ; R(x, _)` operator syntax).
        1 => Pattern,
    }
}

wire_enum! {
    /// A client→server message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request {
        /// Open the conversation; the server echoes its own version. Not
        /// mandatory, but lets clients fail fast on a version skew.
        0 => Hello {
            /// The client's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Declare (or look up) a relation in the server's schema.
        /// Idempotent: re-declaring with the same arity returns the
        /// existing id; a different arity is an error.
        1 => DeclareRelation {
            /// Relation name, e.g. `"TEMP"`.
            name: String,
            /// Number of attributes.
            arity: usize as Len,
        },
        /// Parse, compile and register a standing query.
        2 => SubmitQuery {
            /// Name echoed in stats and errors.
            name: String,
            /// Which language `text` is written in.
            frontend: Frontend,
            /// The query text.
            text: String,
            /// Sliding-window policy.
            window: WindowPolicy,
            /// Shard placement; `None` uses the server runtime's
            /// [`default_partition`](cer_core::RuntimeConfig::default_partition).
            partition: Option<Partition>,
            /// GC cadence (0 = automatic).
            gc_every: u64,
        },
        /// Append a batch of tuples to the stream.
        3 => IngestBatch {
            /// The tuples, in stream order.
            tuples: Vec<Tuple>,
        },
        /// Start pushing [`Response::Event`] frames for matching queries
        /// onto this connection. One subscription per connection; the
        /// backpressure policy is the subscription's own.
        4 => Subscribe {
            /// `Some(id)` for one query's events, `None` for all.
            query: Option<QueryId>,
            /// Event channel capacity; 0 means the server default.
            capacity: usize as Len,
            /// What happens when this subscriber lags.
            policy: BackpressurePolicy,
        },
        /// Stop the event stream started by `Subscribe`.
        5 => Unsubscribe,
        /// Remove a standing query.
        6 => Deregister {
            /// The query to remove.
            id: QueryId,
        },
        /// A compact numeric summary ([`StatsSummary`]).
        7 => Stats,
        /// The full Prometheus text exposition of the runtime's metrics.
        8 => MetricsText,
        /// An epoch-consistent snapshot of the runtime, as bytes
        /// (`Snapshot::to_bytes`).
        9 => Snapshot,
        /// Fence the pipeline: returns once everything ingested before the
        /// call has been evaluated and delivered.
        10 => Drain,
        /// Liveness probe.
        11 => Ping,
        /// Gracefully shut the whole server down (every connection, then
        /// the runtime).
        12 => Shutdown,
        /// Live-reshard the runtime to `shards` workers in place
        /// ([`Runtime::rescale`](cer_core::runtime::Runtime::rescale)): an
        /// epoch fence moves every query's state to a new worker set with
        /// no serialize round-trip. Ingest and subscriptions stay live.
        13 => Rescale {
            /// The target worker count (1..=64).
            shards: usize as Len,
        },
        /// Enable or disable the server's autoscale controller (a
        /// background thread polling load signals through
        /// [`Controller`](cer_core::Controller) hysteresis and rescaling
        /// when a streak confirms). Replies with
        /// [`Response::AutoscaleStatus`].
        14 => SetAutoscale {
            /// `true` starts the control loop, `false` pauses it (the
            /// controller's streaks reset on re-enable).
            enabled: bool,
        },
        /// The controller's current status
        /// ([`Response::AutoscaleStatus`]).
        15 => AutoscaleStatus,
        /// Cut an incremental checkpoint to the server's data directory
        /// ([`Runtime::checkpoint`](cer_core::runtime::Runtime::checkpoint));
        /// WAL segments below the cut are truncated. Fails with
        /// [`ErrorCode::NotDurable`](cer_core::ErrorCode) on a server
        /// started without `--data-dir`.
        16 => Checkpoint,
        /// The server's durability status ([`Response::Durability`]):
        /// WAL health and size, last checkpoint, chain length.
        17 => DurabilityStatus,
    }
}

wire_enum! {
    /// A server→client message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Response {
        /// Reply to [`Request::Hello`].
        0 => Hello {
            /// The server's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Reply to [`Request::DeclareRelation`].
        1 => RelationDeclared {
            /// The relation's id, stable for the server's lifetime.
            id: RelationId,
        },
        /// Reply to [`Request::SubmitQuery`].
        2 => QueryAccepted {
            /// The registered query's id.
            id: QueryId,
        },
        /// Reply to [`Request::IngestBatch`].
        3 => Ingested {
            /// First stamped position of the batch.
            start: u64,
            /// One past the last stamped position.
            end: u64,
            /// Tuples shed under `DropNewest` ingest backpressure.
            dropped: u64,
        },
        /// Reply to [`Request::Subscribe`].
        4 => Subscribed,
        /// Reply to [`Request::Unsubscribe`].
        5 => Unsubscribed,
        /// Reply to [`Request::Deregister`].
        6 => Deregistered,
        /// Reply to [`Request::Stats`].
        7 => Stats(StatsSummary),
        /// Reply to [`Request::MetricsText`].
        8 => MetricsText {
            /// The Prometheus text exposition.
            text: String,
        },
        /// Reply to [`Request::Snapshot`].
        9 => Snapshot {
            /// `Snapshot::to_bytes` output.
            bytes: Vec<u8> as Bytes,
        },
        /// Reply to [`Request::Drain`].
        10 => Drained,
        /// Reply to [`Request::Ping`].
        11 => Pong,
        /// Reply to [`Request::Shutdown`]; the server closes every
        /// connection shortly after sending it.
        12 => ShuttingDown,
        /// Any request that failed. The connection stays usable.
        13 => Error {
            /// [`cer_core::ErrorCode`] discriminant
            /// (`ErrorCode::from_u16` recovers the variant).
            code: u16 as CodeAsU32,
            /// Human-readable context.
            message: String,
        },
        /// An unsolicited pushed match (after [`Request::Subscribe`]).
        14 => Event(MatchEvent as PresizedEvent),
        /// Reply to [`Request::Rescale`].
        15 => Rescaled {
            /// Worker count before the move.
            from: u64,
            /// Worker count after the move.
            to: u64,
            /// Fence-to-resume wall time, in nanoseconds.
            nanos: u64,
        },
        /// Reply to [`Request::SetAutoscale`] and
        /// [`Request::AutoscaleStatus`].
        16 => AutoscaleStatus(AutoscaleSummary),
        /// Reply to [`Request::Checkpoint`].
        17 => CheckpointDone {
            /// Epoch position the checkpoint cut at.
            position: u64,
            /// The checkpoint's epoch counter (dense, one per checkpoint).
            epoch: u64,
            /// Bytes written (before the manifest).
            bytes: u64,
            /// `true` for a full checkpoint, `false` for a delta.
            full: bool,
        },
        /// Reply to [`Request::DurabilityStatus`].
        18 => Durability(DurabilitySummary),
    }
}

wire_struct! {
    /// The compact numeric reply to [`Request::DurabilityStatus`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DurabilitySummary {
        /// `false` when a WAL append failed and logging stopped (the server
        /// keeps serving from memory — alert on this).
        pub healthy: bool,
        /// WAL segment files on disk (sealed + active).
        pub wal_segments: u64,
        /// Bytes appended to the WAL since this process attached it.
        pub wal_bytes: u64,
        /// Records appended to the WAL since this process attached it.
        pub wal_records: u64,
        /// Epoch of the latest committed checkpoint (`None` before the
        /// first).
        pub last_checkpoint_epoch: Option<u64>,
        /// Stream position of the latest committed checkpoint.
        pub last_checkpoint_position: Option<u64>,
        /// Checkpoints a recovery would have to chain (1 after a full).
        pub chain_len: u64,
    }
}

wire_struct! {
    /// The compact numeric reply to [`Request::SetAutoscale`] and
    /// [`Request::AutoscaleStatus`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct AutoscaleSummary {
        /// Whether the control loop is running.
        pub enabled: bool,
        /// Current worker shard count.
        pub shards: u64,
        /// Rescales performed since the server started (controller-driven
        /// and explicit [`Request::Rescale`] alike).
        pub rescales: u64,
        /// Consecutive hot observations (scale-up streak).
        pub hot_streak: u64,
        /// Consecutive cold observations (scale-down streak).
        pub cold_streak: u64,
        /// Ticks of post-rescale cooldown remaining.
        pub cooldown: u64,
    }
}

wire_struct! {
    /// The compact numeric reply to [`Request::Stats`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StatsSummary {
        /// Worker shard count.
        pub shards: u64,
        /// Currently registered (live) queries.
        pub queries: u64,
        /// The next global stream position.
        pub next_position: u64,
        /// Tuples shed by ingest backpressure since start.
        pub dropped: u64,
        /// Journal events overwritten before being drained.
        pub events_overwritten: u64,
    }
}

// ---------------------------------------------------------------------
// Codecs: the two fields whose wire form is not their type's own

/// [`Response::Error`]'s `u16` code travels as a `u32`; a value above
/// `u16::MAX` is corrupt.
struct CodeAsU32;

impl Codec<u16> for CodeAsU32 {
    fn put(v: &u16, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u32(u32::from(*v));
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<u16, WireError> {
        u16::try_from(r.get_u32()?).map_err(|_| WireError::Corrupt("error code out of u16 range"))
    }
}

/// [`Response::Event`]'s tag, as its row in the table declares it.
const EVENT_TAG: u8 = 14;

/// The one `Event` encoder: what follows the tag in every
/// [`Response::Event`] payload — position, query, valuation — whether
/// the match is owned ([`PresizedEvent`]) or borrowed from a chunk
/// ([`encode_event_frame`]).
fn put_event(w: &mut WireWriter, position: u64, query: QueryId, valuation: ValuationRef<'_>) {
    w.put_u64(position);
    w.put_u32(query.0);
    valuation.encode(w);
}

/// An `Event` payload's size: tag, position and query (13 bytes), then
/// the valuation's label count, a length per label and a word per
/// position. Checked, since a release build would wrap.
fn event_payload_len(valuation: ValuationRef<'_>) -> Option<usize> {
    let words = valuation.words().len().checked_add(1)?;
    words.checked_mul(8)?.checked_add(13)
}

/// [`Response::Event`]'s payload: position, query, valuation. Written by
/// hand, not as a `wire_struct!` row, because it pre-sizes: the whole
/// payload ([`event_payload_len`]) is reserved in one step.
struct PresizedEvent;

impl Codec<MatchEvent> for PresizedEvent {
    fn put(ev: &MatchEvent, w: &mut WireWriter) -> Result<(), WireError> {
        put_event(w, ev.position, ev.query, ev.valuation.view());
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<MatchEvent, WireError> {
        Ok(MatchEvent {
            position: r.get_u64()?,
            query: QueryId(r.get_u32()?),
            valuation: Wire::decode(r)?,
        })
    }
    fn size_hint(ev: &MatchEvent) -> usize {
        event_payload_len(ev.valuation.view()).unwrap_or(0)
    }
}

/// A sink that records every `write` call it receives.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct RecordingWrite {
    pub writes: Vec<Vec<u8>>,
}

#[cfg(test)]
impl Write for RecordingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::tuple::tup;

    #[test]
    fn frame_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"d").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"abc"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"d"
        );
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn one_frame_is_one_write() {
        let mut sink = RecordingWrite::default();
        write_frame(&mut sink, b"abc").unwrap();
        assert_eq!(sink.writes, [b"\x03\0\0\0abc".to_vec()]);
    }

    #[test]
    fn encode_frame_into_appends_what_write_frame_sends() {
        let msgs = [
            Response::Pong,
            Response::Ingested {
                start: 7,
                end: 9,
                dropped: 0,
            },
            Response::Error {
                code: 3,
                message: "no".into(),
            },
        ];
        let mut appended = b"kept".to_vec();
        let mut written = b"kept".to_vec();
        for msg in &msgs {
            encode_frame_into(&mut appended, msg).unwrap();
            write_frame(&mut written, &encode_message(msg).unwrap()).unwrap();
        }
        assert_eq!(appended, written);
    }

    #[test]
    fn oversized_and_empty_frames_are_rejected() {
        // Oversized: length prefix above the cap.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 100]);
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(parse_frame(&buf, 10), Err(WireError::Corrupt(_))));
        // Empty: zero-length payload.
        let buf = 0u32.to_le_bytes().to_vec();
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame.
        let mut buf = 8u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // parse_frame reports "incomplete", not an error, for the same.
        assert!(parse_frame(&buf, 10).unwrap().is_none());
    }

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::DeclareRelation {
                name: "TEMP".into(),
                arity: 2,
            },
            Request::SubmitQuery {
                name: "q".into(),
                frontend: Frontend::Hcq,
                text: "Q(x) <- T(x)".into(),
                window: WindowPolicy::Count(8),
                partition: Some(Partition::ByKey { pos: 0 }),
                gc_every: 4,
            },
            Request::IngestBatch {
                tuples: vec![tup(RelationId(0), [1i64, 2])],
            },
            Request::Subscribe {
                query: Some(QueryId(3)),
                capacity: 128,
                policy: BackpressurePolicy::DropNewest,
            },
            Request::Unsubscribe,
            Request::Deregister { id: QueryId(1) },
            Request::Stats,
            Request::MetricsText,
            Request::Snapshot,
            Request::Drain,
            Request::Ping,
            Request::Shutdown,
            Request::Rescale { shards: 4 },
            Request::SetAutoscale { enabled: true },
            Request::AutoscaleStatus,
            Request::Checkpoint,
            Request::DurabilityStatus,
        ];
        for req in reqs {
            let bytes = encode_message(&req).unwrap();
            assert_eq!(decode_message::<Request>(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_all_ops() {
        use cer_automata::valuation::Valuation;
        let resps = vec![
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::RelationDeclared { id: RelationId(7) },
            Response::QueryAccepted { id: QueryId(2) },
            Response::Ingested {
                start: 10,
                end: 20,
                dropped: 1,
            },
            Response::Subscribed,
            Response::Unsubscribed,
            Response::Deregistered,
            Response::Stats(StatsSummary {
                shards: 4,
                queries: 2,
                next_position: 99,
                dropped: 0,
                events_overwritten: 3,
            }),
            Response::MetricsText {
                text: "# HELP x\n".into(),
            },
            Response::Snapshot {
                bytes: vec![1, 2, 3],
            },
            Response::Drained,
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                code: 21,
                message: "no such query".into(),
            },
            Response::Event(MatchEvent {
                position: 5,
                query: QueryId(0),
                valuation: Valuation::empty(2),
            }),
            Response::Rescaled {
                from: 2,
                to: 4,
                nanos: 12_345,
            },
            Response::AutoscaleStatus(AutoscaleSummary {
                enabled: true,
                shards: 4,
                rescales: 2,
                hot_streak: 1,
                cold_streak: 0,
                cooldown: 3,
            }),
            Response::CheckpointDone {
                position: 1_000,
                epoch: 3,
                bytes: 4_096,
                full: false,
            },
            Response::Durability(DurabilitySummary {
                healthy: true,
                wal_segments: 2,
                wal_bytes: 1 << 20,
                wal_records: 512,
                last_checkpoint_epoch: Some(3),
                last_checkpoint_position: Some(1_000),
                chain_len: 2,
            }),
            Response::Durability(DurabilitySummary::default()),
        ];
        for resp in resps {
            let bytes = encode_message(&resp).unwrap();
            assert_eq!(
                decode_message::<Response>(&bytes).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut bytes = encode_message(&Request::Ping).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_message::<Request>(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    mod event_frames {
        use super::*;
        use cer_automata::valuation::{Label, LabelSet, Valuation};
        use cer_core::MatchChunk;
        use proptest::prelude::*;

        fn position() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..32, (u64::MAX - 32)..u64::MAX, Just(u64::MAX)]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The pusher's frames, encoded from a chunk's words, are
            /// the owned events' `Response::Event` frames: they decode
            /// to exactly the owned match, byte for byte equal to
            /// `write_frame(encode_message(..))`, `4 + 13 + 8 · (1 +
            /// |Ω| + |ν|)` bytes long — over 0, 1 and 64 labels, empty
            /// label groups, positions up to `u64::MAX` and twin
            /// members sharing one copy of the words.
            #[test]
            fn chunk_frames_are_the_owned_events_frames(
                labels in prop_oneof![Just(0usize), Just(1usize), Just(64usize), 2usize..8],
                first in any::<u32>(),
                outputs in proptest::collection::vec(
                    (
                        position(),
                        1u32..4,
                        proptest::collection::vec((0usize..64, position()), 0..10),
                    ),
                    1..12,
                ),
            ) {
                let (mut chunk, mut owned, mut words) = (MatchChunk::default(), Vec::new(), 0);
                for (position, twins, entries) in &outputs {
                    let mut valuation = Valuation::empty(labels);
                    for &(l, p) in entries.iter().filter(|_| labels > 0) {
                        valuation.insert(LabelSet::singleton(Label((l % labels) as u32)), p);
                    }
                    let ids: Vec<QueryId> =
                        (0..*twins).map(|k| QueryId(first.wrapping_add(k))).collect();
                    chunk.push(*position, valuation.view(), ids.iter().copied());
                    words += labels + valuation.weight();
                    owned.extend(ids.into_iter().map(|query| MatchEvent {
                        position: *position,
                        query,
                        valuation: valuation.clone(),
                    }));
                }
                prop_assert_eq!(chunk.words_len(), words);
                prop_assert_eq!(chunk.len(), owned.len());
                let mut frames = Vec::new();
                for ((position, query, valuation), event) in chunk.iter().zip(&owned) {
                    let at = frames.len();
                    encode_event_frame(&mut frames, position, query, valuation).unwrap();
                    let frame = &frames[at..];
                    let weight = event.valuation.weight();
                    prop_assert_eq!(frame.len(), 4 + 13 + 8 * (1 + labels + weight));
                    let (payload, rest) = parse_frame(frame, DEFAULT_MAX_FRAME).unwrap().unwrap();
                    prop_assert!(rest.is_empty());
                    let decoded = decode_message::<Response>(payload);
                    prop_assert_eq!(decoded, Ok(Response::Event(event.clone())));
                    let mut want = Vec::new();
                    let payload = encode_message(&Response::Event(event.clone())).unwrap();
                    write_frame(&mut want, &payload).unwrap();
                    prop_assert_eq!(frame, &want[..]);
                }
            }
        }
    }
}
