//! The segmented write-ahead log.
//!
//! One append-only file per segment, named `wal-<first_seq>.log` by the
//! `wal_seq` of its first record. Each segment opens with a 16-byte
//! header (magic + first sequence number) followed by CRC-framed
//! records:
//!
//! ```text
//! ┌─────────┬──────────┬──────────────────────────────┐
//! │ u32 len │ u32 crc  │ payload (len bytes, wire fmt) │
//! └─────────┴──────────┴──────────────────────────────┘
//! payload := u64 wal_seq, u8 tag, op fields   (`WalRecord`, `WalOp`)
//! ```
//!
//! Appends arrive keyed by the dense `wal_seq` assigned under the
//! sequencer lock, possibly out of order (producers race between the
//! reserve and the append). A pending map holds early arrivals; the
//! drain loop writes records to the file strictly in `wal_seq` order,
//! so byte order on disk *is* replay order — see the module docs of
//! [`super`] for why that order is the one the shard workers observed.
//!
//! Every drained record reaches the kernel via `write(2)` before the
//! producer's ingest call returns; `fsync` is batched per
//! [`FsyncPolicy`]. On an append I/O error the log **poisons**: the
//! pending map is cleared, later appends become no-ops, and the
//! runtime keeps serving from memory (fail-open) — durability stops at
//! the last record that hit the disk, and
//! [`DurabilityStatus::healthy`](super::DurabilityStatus) reports it.

use super::{DurabilityConfig, FsyncPolicy};
use crate::error::{io_err, Error};
use crate::runtime::{QueryId, QuerySpec};
use cer_common::crc::crc32;
use cer_common::wire::{Wire, WireReader, WireWriter};
use cer_common::Tuple;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL segment (version baked into the tag).
const SEGMENT_MAGIC: &[u8; 8] = b"CERWAL1\0";
/// Segment header: magic + u64 first wal_seq.
const HEADER_LEN: u64 = 16;
/// Upper bound accepted for a single frame payload — anything larger
/// is treated as a torn length field.
const MAX_FRAME: u32 = 256 << 20;

cer_common::wire_struct! {
    /// One log record: the dense `wal_seq`, then the operation.
    #[derive(Clone, Debug)]
    pub(crate) struct WalRecord<'a> {
        pub seq: u64,
        pub op: WalOp<'a>,
    }
}

cer_common::wire_enum! {
    /// The operations that need replay. Barriers, snapshot fences and
    /// rescale fences reserve sequencer blocks but change no durable
    /// state, so they take no `wal_seq` and are never logged. A record
    /// borrows the caller's batch or spec on the append path — nothing is
    /// cloned to be logged — and owns what it decoded during replay.
    #[derive(Clone, Debug)]
    pub(crate) enum WalOp<'a> {
        /// A producer batch stamped at positions `start..start + tuples.len()`.
        0 => Batch { start: u64, tuples: Cow<'a, [Tuple]> },
        /// `register` returned `id` at stream position `position`.
        1 => Register { position: u64, id: QueryId, spec: Cow<'a, QuerySpec> },
        /// `deregister(id)` at stream position `position`.
        2 => Deregister { position: u64, id: QueryId },
        /// `replace(id, spec)` at stream position `position`.
        3 => Replace { position: u64, id: QueryId, spec: Cow<'a, QuerySpec> },
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord<'static>, Error> {
    let mut r = WireReader::new(payload);
    let record = WalRecord::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(Error::WalCorrupt("trailing bytes in wal record payload"));
    }
    Ok(record)
}

/// A sealed (or scanned) segment's record range: records
/// `first_seq..end_seq` live in `path`.
#[derive(Clone, Debug)]
pub(crate) struct SegmentInfo {
    pub first_seq: u64,
    pub end_seq: u64,
    pub path: PathBuf,
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:016x}.log"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

struct ActiveSegment {
    file: File,
    path: PathBuf,
    first_seq: u64,
    /// Bytes written including the header.
    bytes: u64,
}

struct WalCore {
    active: Option<ActiveSegment>,
    /// The next `wal_seq` to be written to disk; records below it are
    /// durable (modulo fsync), records at or above it are pending.
    next_seq: u64,
    /// Early arrivals: encoded payloads keyed by `wal_seq`.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Checkpoint/rescale fences: seal the active segment before
    /// writing the first record with `seq >= mark`.
    roll_marks: BTreeSet<u64>,
    sealed: Vec<SegmentInfo>,
    /// Records written since the last fsync (for `EveryN`).
    unsynced: u32,
    last_sync: Instant,
}

/// What one append call did, for the caller's metrics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AppendReceipt {
    /// Bytes this call wrote to the file (possibly other producers'
    /// drained records).
    pub bytes: u64,
    /// Records this call wrote to the file.
    pub records: u64,
    /// Duration of the fsync this call performed, if its policy fired.
    pub fsync_nanos: Option<u64>,
}

/// The write-ahead log: see the [module docs](self).
pub(crate) struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    poisoned: AtomicBool,
    bytes_total: AtomicU64,
    records_total: AtomicU64,
    core: Mutex<WalCore>,
}

impl Wal {
    /// A log over `dir` with no open segment yet; call
    /// [`resume`](Self::resume) before appending.
    pub fn new(dir: PathBuf, cfg: &DurabilityConfig) -> Wal {
        Wal {
            dir,
            fsync: cfg.fsync,
            segment_bytes: cfg.segment_bytes,
            poisoned: AtomicBool::new(false),
            bytes_total: AtomicU64::new(0),
            records_total: AtomicU64::new(0),
            core: Mutex::new(WalCore {
                active: None,
                next_seq: 0,
                pending: BTreeMap::new(),
                roll_marks: BTreeSet::new(),
                sealed: Vec::new(),
                unsynced: 0,
                last_sync: Instant::now(),
            }),
        }
    }

    /// Open the active segment at `next_seq` and adopt the scanned
    /// `sealed` segments. The active file `wal-<next_seq>.log` is
    /// truncate-created: after a replay the segment with that name (if
    /// any) holds zero records, so overwriting it keeps repeated
    /// recoveries steady-state on disk.
    pub fn resume(&self, next_seq: u64, mut sealed: Vec<SegmentInfo>) -> Result<(), Error> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err("create wal dir", e))?;
        let path = segment_path(&self.dir, next_seq);
        sealed.retain(|s| s.path != path);
        sealed.sort_by_key(|s| s.first_seq);
        let active = open_segment(&path, next_seq)?;
        let mut core = self.core.lock().unwrap();
        core.active = Some(active);
        core.next_seq = next_seq;
        core.sealed = sealed;
        core.pending.clear();
        core.roll_marks.clear();
        core.unsynced = 0;
        core.last_sync = Instant::now();
        Ok(())
    }

    /// `false` after an append I/O error permanently disabled logging.
    pub fn healthy(&self) -> bool {
        !self.poisoned.load(Ordering::Relaxed)
    }

    pub fn bytes_total(&self) -> u64 {
        self.bytes_total.load(Ordering::Relaxed)
    }

    pub fn records_total(&self) -> u64 {
        self.records_total.load(Ordering::Relaxed)
    }

    /// Segments currently on disk (sealed + active).
    pub fn segments(&self) -> u64 {
        let core = self.core.lock().unwrap();
        core.sealed.len() as u64 + core.active.is_some() as u64
    }

    /// Encode `record` and queue it under its `seq`, then drain every
    /// contiguous pending record to the file and apply the fsync
    /// policy. No-op (empty receipt) once poisoned.
    pub fn append(&self, record: &WalRecord<'_>) -> Result<AppendReceipt, Error> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Ok(AppendReceipt::default());
        }
        let mut payload = WireWriter::new();
        let encoded = record.encode(&mut payload).map_err(Error::from);
        let mut core = self.core.lock().unwrap();
        let drained = encoded.and_then(|()| {
            core.pending.insert(record.seq, payload.into_bytes());
            self.drain(&mut core)
        });
        match drained {
            Ok(receipt) => {
                self.bytes_total.fetch_add(receipt.bytes, Ordering::Relaxed);
                self.records_total
                    .fetch_add(receipt.records, Ordering::Relaxed);
                Ok(receipt)
            }
            Err(e) => {
                // Fail open: stop logging, keep serving. The stamped
                // batch is already in flight to the shards and must
                // not be failed retroactively; clearing the pending
                // map keeps later sequences from wedging behind this
                // one (a record that could not even be encoded consumed
                // a `wal_seq` that will never arrive).
                self.poisoned.store(true, Ordering::Relaxed);
                core.pending.clear();
                Err(e)
            }
        }
    }

    /// Write every contiguous pending record in `wal_seq` order.
    fn drain(&self, core: &mut WalCore) -> Result<AppendReceipt, Error> {
        let mut receipt = AppendReceipt::default();
        while core
            .pending
            .first_key_value()
            .is_some_and(|(&s, _)| s == core.next_seq)
        {
            let seq = core.next_seq;
            let payload = core.pending.remove(&seq).unwrap();

            // Fence-aligned roll: seal before the first record at or
            // past a mark. Late marks (records past the fence already
            // drained by racing producers) seal immediately; the
            // straddling segment is kept by the truncation rule.
            let due = core.roll_marks.range(..=seq).copied().collect::<Vec<u64>>();
            let mut must_roll = false;
            for m in due {
                core.roll_marks.remove(&m);
                must_roll = true;
            }
            // Size-based roll, before the write so segments stay under
            // the limit (a single oversized record still fits alone).
            let frame_len = 8 + payload.len() as u64;
            if let Some(active) = &core.active {
                if active.bytes + frame_len > self.segment_bytes && active.bytes > HEADER_LEN {
                    must_roll = true;
                }
            }
            if must_roll {
                self.roll_now(core, seq)?;
            }

            let active = match &mut core.active {
                Some(a) => a,
                None => {
                    return Err(Error::WalIo {
                        op: "append",
                        message: "wal not resumed".into(),
                    })
                }
            };
            let mut frame = Vec::with_capacity(frame_len as usize);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            active
                .file
                .write_all(&frame)
                .map_err(|e| io_err("append", e))?;
            active.bytes += frame_len;
            core.next_seq += 1;
            core.unsynced += 1;
            receipt.bytes += frame_len;
            receipt.records += 1;
        }

        if receipt.records > 0 {
            let fire = match self.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => core.unsynced >= n,
                FsyncPolicy::IntervalMs(ms) => {
                    core.last_sync.elapsed() >= Duration::from_millis(ms)
                }
            };
            if fire {
                receipt.fsync_nanos = Some(self.sync_active(core)?);
            }
        }
        Ok(receipt)
    }

    fn sync_active(&self, core: &mut WalCore) -> Result<u64, Error> {
        let started = Instant::now();
        if let Some(active) = &core.active {
            active.file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        core.unsynced = 0;
        core.last_sync = Instant::now();
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// Force an fsync of the active segment (shutdown, pre-checkpoint).
    pub fn flush_sync(&self) -> Result<(), Error> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut core = self.core.lock().unwrap();
        if core.unsynced > 0 {
            self.sync_active(&mut core)?;
        }
        Ok(())
    }

    /// Seal the active segment and open a new one at `seq`.
    fn roll_now(&self, core: &mut WalCore, seq: u64) -> Result<(), Error> {
        if let Some(active) = core.active.take() {
            if active.bytes > HEADER_LEN {
                active
                    .file
                    .sync_data()
                    .map_err(|e| io_err("fsync on seal", e))?;
                core.sealed.push(SegmentInfo {
                    first_seq: active.first_seq,
                    end_seq: seq,
                    path: active.path,
                });
                core.unsynced = 0;
                core.active = Some(open_segment(&segment_path(&self.dir, seq), seq)?);
                return Ok(());
            }
            // Empty active segment: reuse it (its header already names
            // this sequence — resume truncate-created it there).
            core.active = Some(active);
        }
        Ok(())
    }

    /// Roll the active segment at the checkpoint/rescale fence whose
    /// `wal_seq` high-water is `seq`. If the drain cursor has not
    /// reached `seq` yet, the roll is deferred until it does.
    pub fn roll_at(&self, seq: u64) {
        if self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        let mut core = self.core.lock().unwrap();
        if core.next_seq >= seq {
            let at = core.next_seq;
            let _ = self.roll_now(&mut core, at);
        } else {
            core.roll_marks.insert(seq);
        }
    }

    /// Delete sealed segments fully covered by a checkpoint at
    /// `wal_seq` high-water `seq` (every record durable in the
    /// checkpoint). Returns how many were removed; per-file removal
    /// errors leave the segment in place (retried next checkpoint).
    pub fn truncate_below(&self, seq: u64) -> u64 {
        let mut core = self.core.lock().unwrap();
        let mut removed = 0;
        core.sealed.retain(|s| {
            if s.end_seq <= seq && std::fs::remove_file(&s.path).is_ok() {
                removed += 1;
                false
            } else {
                true
            }
        });
        removed
    }
}

fn open_segment(path: &Path, first_seq: u64) -> Result<ActiveSegment, Error> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err("open segment", e))?;
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&first_seq.to_le_bytes());
    file.write_all(&header)
        .map_err(|e| io_err("write segment header", e))?;
    Ok(ActiveSegment {
        file,
        path: path.to_path_buf(),
        first_seq,
        bytes: HEADER_LEN,
    })
}

/// A torn tail found (and truncated away) during replay.
#[derive(Clone, Debug)]
pub(crate) struct TornTail {
    pub bytes_dropped: u64,
}

/// Outcome of scanning a WAL directory.
pub(crate) struct WalReplay {
    /// Every scanned segment with its record range, in order — feed to
    /// [`Wal::resume`] so truncation keeps working after recovery.
    pub segments: Vec<SegmentInfo>,
    /// First unused `wal_seq`; [`Wal::resume`] continues here.
    pub next_seq: u64,
    /// Torn tails truncated away (journaled by the caller).
    pub torn: Vec<TornTail>,
    /// Records passed to the callback (i.e. with `seq >= from_seq`).
    pub replayed: u64,
}

/// Scan `dir`'s segments in `wal_seq` order, truncating torn tails in
/// place, and feed every intact record with `seq >= from_seq` to `f`.
/// A segment whose successor starts at or below `from_seq` holds only
/// records the checkpoint covers, and is skipped unread — the one a
/// shutdown checkpoint sealed, say.
///
/// Contiguity is enforced: record sequences must increase by exactly 1
/// across frames *and* segment boundaries; a gap means a segment was
/// lost (not merely a tail torn) and fails with
/// [`Error::RecoverMismatch`].
pub(crate) fn replay_dir(
    dir: &Path,
    from_seq: u64,
    f: &mut dyn FnMut(WalRecord) -> Result<(), Error>,
) -> Result<WalReplay, Error> {
    let mut outcome = WalReplay {
        segments: Vec::new(),
        next_seq: from_seq,
        torn: Vec::new(),
        replayed: 0,
    };
    if !dir.exists() {
        return Ok(outcome);
    }
    let mut names: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("read wal dir", e))? {
        let entry = entry.map_err(|e| io_err("read wal dir", e))?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_segment_name) {
            names.push((seq, entry.path()));
        }
    }
    names.sort_by_key(|(seq, _)| *seq);

    let mut cursor: Option<u64> = None;
    let firsts: Vec<u64> = names.iter().map(|(seq, _)| *seq).collect();
    for (i, (name_seq, path)) in names.into_iter().enumerate() {
        if let Some(&end_seq) = firsts.get(i + 1).filter(|&&next| next <= from_seq) {
            outcome.segments.push(SegmentInfo {
                first_seq: name_seq,
                end_seq,
                path,
            });
            continue;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read segment", e))?;

        if bytes.len() < HEADER_LEN as usize {
            // A create torn mid-header (or an empty file): no records
            // can exist past a missing header. Drop the file entirely.
            outcome.torn.push(TornTail {
                bytes_dropped: bytes.len() as u64,
            });
            std::fs::remove_file(&path).map_err(|e| io_err("remove torn segment", e))?;
            continue;
        }
        if &bytes[..8] != SEGMENT_MAGIC {
            return Err(Error::WalCorrupt("bad wal segment magic"));
        }
        let first_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if first_seq != name_seq {
            return Err(Error::WalCorrupt(
                "wal segment header disagrees with its file name",
            ));
        }
        match cursor {
            None => cursor = Some(first_seq),
            Some(c) if c == first_seq => {}
            Some(_) => {
                return Err(Error::RecoverMismatch(format!(
                    "wal segment {} does not continue the sequence",
                    path.display()
                )))
            }
        }

        let mut offset = HEADER_LEN as usize;
        let mut good = offset;
        loop {
            if bytes.len() < offset + 8 {
                break; // clean end or torn frame header
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            if len > MAX_FRAME || bytes.len() < offset + 8 + len as usize {
                break; // torn length field or torn payload
            }
            let payload = &bytes[offset + 8..offset + 8 + len as usize];
            if crc32(payload) != crc {
                break; // torn payload bytes
            }
            // The frame is intact: an undecodable payload now is real
            // corruption, not a torn write.
            let record = decode_record(payload)?;
            let c = cursor.unwrap();
            if record.seq != c {
                return Err(Error::RecoverMismatch(format!(
                    "wal record sequence jumped from {c} to {}",
                    record.seq
                )));
            }
            cursor = Some(c + 1);
            if record.seq >= from_seq {
                f(record)?;
                outcome.replayed += 1;
            }
            offset += 8 + len as usize;
            good = offset;
        }
        if good < bytes.len() {
            file.set_len(good as u64)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data()
                .map_err(|e| io_err("truncate torn tail", e))?;
            outcome.torn.push(TornTail {
                bytes_dropped: (bytes.len() - good) as u64,
            });
        }
        outcome.segments.push(SegmentInfo {
            first_seq,
            end_seq: cursor.unwrap(),
            path,
        });
    }
    if let Some(c) = cursor {
        outcome.next_seq = c.max(from_seq);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::Value;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cer-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(cer_common::RelationId(0), vec![Value::Int(i as i64)]))
            .collect()
    }

    fn batch(seq: u64, start: u64, tuples: &[Tuple]) -> WalRecord<'_> {
        let tuples = Cow::Borrowed(tuples);
        WalRecord {
            seq,
            op: WalOp::Batch { start, tuples },
        }
    }

    fn collect(dir: &Path, from: u64) -> (Vec<u64>, WalReplay) {
        let mut seqs = Vec::new();
        let outcome = replay_dir(dir, from, &mut |rec| {
            seqs.push(rec.seq);
            Ok(())
        })
        .unwrap();
        (seqs, outcome)
    }

    /// One record of every kind, in tag order, numbered from 40.
    fn one_of_each() -> Vec<WalRecord<'static>> {
        let (_, r, s, t) = cer_common::Schema::sigma0();
        let window = crate::window::WindowPolicy::Time {
            duration: 60,
            ts_pos: 0,
        };
        let spec = QuerySpec::new("p0", cer_automata::pcea::paper_p0(r, s, t), window);
        let (position, id) = (3, QueryId(5));
        let ops = [
            WalOp::Batch {
                start: 7,
                tuples: Cow::Owned(tuples(3)),
            },
            WalOp::Register {
                position,
                id,
                spec: Cow::Owned(spec.clone()),
            },
            WalOp::Deregister { position, id },
            WalOp::Replace {
                position,
                id,
                spec: Cow::Owned(spec),
            },
        ];
        let numbered = ops.into_iter().zip(40..);
        numbered.map(|(op, seq)| WalRecord { seq, op }).collect()
    }

    fn payload(record: &WalRecord<'_>) -> Vec<u8> {
        let mut w = WireWriter::new();
        record.encode(&mut w).expect("closed-form specs encode");
        w.into_bytes()
    }

    #[test]
    fn every_record_kind_round_trips_and_rejects_a_trailing_byte() {
        for (tag, record) in one_of_each().iter().enumerate() {
            let mut bytes = payload(record);
            assert_eq!(usize::from(bytes[8]), tag, "the tag follows the wal_seq");
            let back = decode_record(&bytes).expect("its own bytes decode");
            assert_eq!(format!("{back:?}"), format!("{record:?}"));
            bytes.push(0);
            assert_eq!(
                decode_record(&bytes).unwrap_err(),
                Error::WalCorrupt("trailing bytes in wal record payload")
            );
        }
        let unknown_tag = [0, 0, 0, 0, 0, 0, 0, 0, 4];
        assert!(decode_record(&unknown_tag).is_err());
    }

    /// Hostile bytes (ROADMAP 1(e)): whatever a CRC-valid frame holds, a
    /// record payload decodes to a record that re-encodes, or to an
    /// error — never a panic.
    #[test]
    fn mutated_record_payloads_are_rejected_or_reencode() {
        let mut accepted = 0;
        for record in one_of_each() {
            for mutated in cer_common::wire::hostile_mutations(&payload(&record)) {
                let Ok(decoded) = decode_record(&mutated) else {
                    continue;
                };
                let again = decode_record(&payload(&decoded)).expect("re-encoded bytes decode");
                assert_eq!(format!("{again:?}"), format!("{decoded:?}"));
                accepted += 1;
            }
        }
        assert!(accepted > 0, "some mutations are other honest records");
    }

    #[test]
    fn append_out_of_order_drains_in_seq_order() {
        let dir = tmp("order");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        let two = tuples(2);
        // seq 1 arrives first: nothing can drain.
        let r1 = wal.append(&batch(1, 2, &two)).unwrap();
        assert_eq!(r1.records, 0);
        // seq 0 arrives: both drain.
        let r0 = wal.append(&batch(0, 0, &two)).unwrap();
        assert_eq!(r0.records, 2);
        drop(wal);
        let (seqs, outcome) = collect(&dir, 0);
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(outcome.next_seq, 2);
        assert!(outcome.torn.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replay() {
        let dir = tmp("torn");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        for seq in 0..4u64 {
            wal.append(&batch(seq, seq * 3, &tuples(3))).unwrap();
        }
        drop(wal);
        // Corrupt the tail: chop bytes off the last frame.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (seqs, outcome) = collect(&dir, 0);
        assert_eq!(seqs, vec![0, 1, 2], "the torn record is dropped");
        assert_eq!(outcome.next_seq, 3);
        assert_eq!(outcome.torn.len(), 1);
        // A second replay sees a clean log (tail was truncated away).
        let (seqs2, outcome2) = collect(&dir, 0);
        assert_eq!(seqs2, vec![0, 1, 2]);
        assert!(outcome2.torn.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_inside_tail_frame_is_detected_by_crc() {
        let dir = tmp("flip");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        for seq in 0..2u64 {
            wal.append(&batch(seq, seq, &tuples(1))).unwrap();
        }
        drop(wal);
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let (seqs, outcome) = collect(&dir, 0);
        assert_eq!(seqs, vec![0]);
        assert_eq!(outcome.torn.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roll_and_truncate_respect_straddlers() {
        let dir = tmp("roll");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        for seq in 0..3u64 {
            wal.append(&batch(seq, seq, &tuples(1))).unwrap();
        }
        // Fence at seq 3: seals [0,3), opens wal-3.
        wal.roll_at(3);
        assert_eq!(wal.segments(), 2);
        for seq in 3..5u64 {
            wal.append(&batch(seq, seq, &tuples(1))).unwrap();
        }
        // Checkpoint at 3 deletes the fully-covered segment only.
        assert_eq!(wal.truncate_below(3), 1);
        assert_eq!(wal.segments(), 1);
        drop(wal);
        let (seqs, _) = collect(&dir, 3);
        assert_eq!(seqs, vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment the checkpoint covers whole — its successor starts at
    /// or below the checkpoint's high-water — is not read: damage there
    /// cannot fail recovery, and truncation still finds it afterwards.
    #[test]
    fn segments_below_the_checkpoint_are_skipped_unread() {
        let dir = tmp("covered");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        for seq in 0..3u64 {
            wal.append(&batch(seq, seq, &tuples(1))).unwrap();
        }
        wal.roll_at(3);
        wal.append(&batch(3, 3, &tuples(1))).unwrap();
        drop(wal);
        let covered = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&covered).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&covered, &bytes).unwrap();
        let (seqs, outcome) = collect(&dir, 3);
        assert_eq!(seqs, vec![3]);
        assert_eq!(outcome.next_seq, 4);
        assert_eq!(outcome.segments[0].path, covered);
        assert_eq!(outcome.segments[0].end_seq, 3);
        // Below the successor's start, the segment is read as before.
        assert!(matches!(
            replay_dir(&dir, 2, &mut |_| Ok(())),
            Err(Error::WalCorrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_roll_mark_fires_when_cursor_arrives() {
        let dir = tmp("mark");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        wal.append(&batch(0, 0, &tuples(1))).unwrap();
        // Mark at 2 while the cursor sits at 1: deferred.
        wal.roll_at(2);
        assert_eq!(wal.segments(), 1);
        wal.append(&batch(1, 1, &tuples(1))).unwrap();
        wal.append(&batch(2, 2, &tuples(1))).unwrap();
        assert_eq!(wal.segments(), 2, "mark fired before writing seq 2");
        drop(wal);
        let (seqs, outcome) = collect(&dir, 0);
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(outcome.segments.len(), 2);
        assert_eq!(outcome.segments[0].end_seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_replay_is_steady_state() {
        let dir = tmp("resume");
        let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
        wal.resume(0, Vec::new()).unwrap();
        for seq in 0..3u64 {
            wal.append(&batch(seq, seq, &tuples(1))).unwrap();
        }
        drop(wal);
        for _ in 0..3 {
            let (_, outcome) = collect(&dir, 0);
            assert_eq!(outcome.next_seq, 3);
            let wal = Wal::new(dir.clone(), &DurabilityConfig::new());
            wal.resume(outcome.next_seq, outcome.segments).unwrap();
            drop(wal);
            let files = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(files, 2, "one data segment + one empty active");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
