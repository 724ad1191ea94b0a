//! Incremental checkpoints on disk, chained by a manifest.
//!
//! Each [`Runtime::checkpoint`](crate::runtime::Runtime::checkpoint)
//! writes one `ckpt-<epoch>.ck` file through a streaming
//! [`io::Write`] sink — the snapshot is never materialized as one
//! buffer; the largest allocation is a single state blob. Blobs are
//! **chunk-delta encoded** against the previous epoch: the GC-compacted
//! arena encode is stable across epochs for untouched regions, so a
//! mostly-idle query costs a few literal chunks instead of its full
//! state. Every `full_checkpoint_every` epochs a full (self-contained)
//! checkpoint rebases the chain, bounding both recovery work and the
//! chain the manifest must describe.
//!
//! The `MANIFEST` file is the commit point: it lists the current chain
//! (base + deltas) and each entry's stream position and WAL sequence
//! high-water. It is replaced atomically (write tmp → fsync → rename),
//! so a crash mid-checkpoint leaves the previous manifest — and the
//! previous recovery point — intact; orphaned checkpoint files are
//! swept on the next open.

use crate::checkpoint::{QueryRecord, Snapshot};
use crate::error::{io_err, Error};
use crate::runtime::QuerySpec;
use cer_common::crc::{crc32, Crc32};
use cer_common::wire::{Wire, WireReader, WireWriter};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 8] = b"CERMANI\0";
const CKPT_MAGIC: &[u8; 8] = b"CERCKPT\0";
const VERSION: u32 = 1;
/// `base_epoch` sentinel for a full (self-contained) checkpoint.
const NO_BASE: u64 = u64::MAX;
/// Delta granularity: blobs are compared in aligned chunks this large.
const CHUNK: usize = 1024;

const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;
const OP_COPY: u8 = 0;
const OP_LITERAL: u8 = 1;
const OP_END: u8 = 2;

/// One manifest entry: a checkpoint file and the cut it captured.
#[derive(Clone, Debug)]
pub(crate) struct ChainEntry {
    pub epoch: u64,
    pub position: u64,
    pub wal_seq: u64,
    pub full: bool,
    pub file: String,
}

/// Blobs of the last written/loaded epoch, keyed by `(query id, blob
/// index)` — the delta base for the next checkpoint.
type BaseMap = HashMap<(u32, usize), Vec<u8>>;

/// The on-disk checkpoint chain for one data directory.
pub(crate) struct CheckpointStore {
    ckpt_dir: PathBuf,
    manifest: PathBuf,
    full_every: u64,
    next_epoch: u64,
    chain: Vec<ChainEntry>,
    base: BaseMap,
}

/// An [`io::Write`] adapter that counts bytes and folds them into a
/// running CRC-32 on the way through — the checkpoint file's trailer
/// checksum without a second pass or a materialized buffer.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
    bytes: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
            bytes: 0,
        }
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn ckpt_file_name(epoch: u64) -> String {
    format!("ckpt-{epoch:08x}.ck")
}

/// Chunk-delta encode `blob` against `base` into `out` (which is then
/// streamed to the sink). Falls back to a full encoding when there is
/// no base or the delta would not be smaller.
fn encode_blob(out: &mut WireWriter, base: Option<&[u8]>, blob: &[u8]) {
    if let Some(base) = base {
        let mut delta = WireWriter::new();
        delta.put_u8(KIND_DELTA);
        delta.put_u64(blob.len() as u64);
        let mut off = 0usize;
        let mut copy_run = 0u32;
        let mut lit_start: Option<usize> = None;
        while off < blob.len() {
            let clen = CHUNK.min(blob.len() - off);
            let same = base.len() >= off + clen && base[off..off + clen] == blob[off..off + clen];
            if same {
                if let Some(s) = lit_start.take() {
                    delta.put_u8(OP_LITERAL);
                    delta.put_bytes(&blob[s..off]);
                }
                copy_run += 1;
            } else {
                if copy_run > 0 {
                    delta.put_u8(OP_COPY);
                    delta.put_u32(copy_run);
                    copy_run = 0;
                }
                if lit_start.is_none() {
                    lit_start = Some(off);
                }
            }
            off += clen;
        }
        if copy_run > 0 {
            delta.put_u8(OP_COPY);
            delta.put_u32(copy_run);
        }
        if let Some(s) = lit_start {
            delta.put_u8(OP_LITERAL);
            delta.put_bytes(&blob[s..]);
        }
        delta.put_u8(OP_END);
        if delta.len() < blob.len() + 5 {
            out.put_bytes(&delta.into_bytes());
            return;
        }
    }
    let mut full = WireWriter::new();
    full.put_u8(KIND_FULL);
    full.put_bytes(blob);
    out.put_bytes(&full.into_bytes());
}

/// Decode one blob written by [`encode_blob`], reconstructing copy runs
/// from `base`.
fn decode_blob(r: &mut WireReader, base: Option<&[u8]>) -> Result<Vec<u8>, Error> {
    let enc = r.get_bytes()?;
    let mut er = WireReader::new(enc);
    match er.get_u8()? {
        KIND_FULL => {
            let bytes = er.get_bytes()?.to_vec();
            if !er.is_exhausted() {
                return Err(Error::WalCorrupt("trailing bytes in full blob"));
            }
            Ok(bytes)
        }
        KIND_DELTA => {
            let base = base.ok_or(Error::WalCorrupt("delta blob without a base blob"))?;
            let new_len = er.get_u64()? as usize;
            // Sized by what the delta can produce — copies of the base
            // plus its own literals — never by the forgeable length.
            let mut out = Vec::with_capacity(new_len.min(base.len() + enc.len()));
            loop {
                match er.get_u8()? {
                    OP_COPY => {
                        let n = er.get_u32()?;
                        for _ in 0..n {
                            let off = out.len();
                            let clen = CHUNK.min(new_len.saturating_sub(off));
                            if clen == 0 || base.len() < off + clen {
                                return Err(Error::WalCorrupt("delta copy run out of bounds"));
                            }
                            out.extend_from_slice(&base[off..off + clen]);
                        }
                    }
                    OP_LITERAL => {
                        let bytes = er.get_bytes()?;
                        out.extend_from_slice(bytes);
                    }
                    OP_END => break,
                    _ => return Err(Error::WalCorrupt("unknown delta op")),
                }
            }
            if out.len() != new_len || !er.is_exhausted() {
                return Err(Error::WalCorrupt(
                    "delta blob did not reconstruct to its recorded length",
                ));
            }
            Ok(out)
        }
        _ => Err(Error::WalCorrupt("unknown blob encoding kind")),
    }
}

impl CheckpointStore {
    /// Open (or initialize) the checkpoint chain under `root`. Returns
    /// the store and the reconstructed latest [`Snapshot`], if any.
    pub fn open(
        root: &Path,
        full_every: u64,
    ) -> Result<(CheckpointStore, Option<Snapshot>), Error> {
        let ckpt_dir = root.join("ckpt");
        std::fs::create_dir_all(&ckpt_dir).map_err(|e| io_err("create ckpt dir", e))?;
        let manifest = root.join("MANIFEST");
        let mut store = CheckpointStore {
            ckpt_dir,
            manifest,
            full_every: full_every.max(1),
            next_epoch: 0,
            chain: Vec::new(),
            base: HashMap::new(),
        };
        if !store.manifest.exists() {
            return Ok((store, None));
        }
        let chain = read_manifest(&store.manifest)?;
        let mut snap: Option<Snapshot> = None;
        for (i, entry) in chain.iter().enumerate() {
            if (i == 0) != entry.full {
                return Err(Error::WalCorrupt(
                    "manifest chain must start with exactly one full checkpoint",
                ));
            }
            let path = store.ckpt_dir.join(&entry.file);
            let (origin_shards, queries) = read_checkpoint(&path, entry, &store.base)?;
            store.base = blobs_of(&queries);
            snap = Some(Snapshot {
                position: entry.position,
                wal_seq: entry.wal_seq,
                origin_shards,
                queries,
            });
        }
        if let Some(last) = chain.last() {
            store.next_epoch = last.epoch + 1;
        }
        store.chain = chain;
        store.sweep_orphans();
        Ok((store, snap))
    }

    /// Delete checkpoint files the manifest does not reference —
    /// leftovers of a crash between file write and manifest rename.
    fn sweep_orphans(&self) {
        let Ok(entries) = std::fs::read_dir(&self.ckpt_dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("ckpt-") && !self.chain.iter().any(|c| c.file == name) {
                let _ = std::fs::remove_file(entry.path());
            }
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    pub fn last_entry(&self) -> Option<&ChainEntry> {
        self.chain.last()
    }

    pub fn chain_len(&self) -> u64 {
        self.chain.len() as u64
    }

    /// Stream `snap` to disk as the next epoch and commit it to the
    /// manifest. Returns the checkpoint stats with
    /// `wal_segments_removed` left at 0 for the caller to fill in.
    pub fn write(&mut self, snap: &Snapshot) -> Result<super::CheckpointStats, Error> {
        let epoch = self.next_epoch;
        let full = self.chain.is_empty() || self.chain.len() as u64 >= self.full_every;
        let file_name = ckpt_file_name(epoch);
        let path = self.ckpt_dir.join(&file_name);

        let file = File::create(&path).map_err(|e| io_err("create checkpoint", e))?;
        let mut sink = CrcWriter::new(BufWriter::new(file));

        let mut header = WireWriter::new();
        for &b in CKPT_MAGIC {
            header.put_u8(b);
        }
        header.put_u32(VERSION);
        header.put_u64(epoch);
        header.put_u64(if full {
            NO_BASE
        } else {
            self.chain.last().map(|c| c.epoch).unwrap_or(NO_BASE)
        });
        header.put_u64(snap.position);
        header.put_u64(snap.wal_seq);
        header.put_len(snap.origin_shards);
        header.put_len(snap.queries.len());
        sink.write_all(&header.into_bytes())
            .map_err(|e| io_err("write checkpoint", e))?;

        let mut full_bytes = 0u64;
        for q in &snap.queries {
            let mut rec = WireWriter::new();
            rec.put_u32(q.id);
            rec.put_str(&q.name);
            q.spec.encode(&mut rec)?;
            rec.put_len(q.blobs.len());
            sink.write_all(&rec.into_bytes())
                .map_err(|e| io_err("write checkpoint", e))?;
            for (idx, blob) in q.blobs.iter().enumerate() {
                full_bytes += blob.len() as u64;
                let base = if full {
                    None
                } else {
                    self.base.get(&(q.id, idx)).map(Vec::as_slice)
                };
                let mut enc = WireWriter::new();
                encode_blob(&mut enc, base, blob);
                sink.write_all(&enc.into_bytes())
                    .map_err(|e| io_err("write checkpoint", e))?;
            }
        }
        let crc = sink.crc.finish();
        let bytes = sink.bytes + 4;
        let mut buf = sink.inner;
        buf.write_all(&crc.to_le_bytes())
            .map_err(|e| io_err("write checkpoint", e))?;
        let file = buf
            .into_inner()
            .map_err(|e| io_err("write checkpoint", e.into_error()))?;
        file.sync_data()
            .map_err(|e| io_err("fsync checkpoint", e))?;

        let entry = ChainEntry {
            epoch,
            position: snap.position,
            wal_seq: snap.wal_seq,
            full,
            file: file_name,
        };
        let mut chain = if full { Vec::new() } else { self.chain.clone() };
        chain.push(entry);
        write_manifest(&self.manifest, &chain)?;

        // The manifest is the commit point: only now retire the old
        // chain's files (best effort — orphans are swept on open).
        if full {
            for old in &self.chain {
                let _ = std::fs::remove_file(self.ckpt_dir.join(&old.file));
            }
        }
        self.chain = chain;
        self.next_epoch = epoch + 1;
        self.base = blobs_of(&snap.queries);

        Ok(super::CheckpointStats {
            epoch,
            position: snap.position,
            bytes,
            full,
            delta_ratio_bp: bytes.saturating_mul(10_000) / full_bytes.max(1),
            wal_segments_removed: 0,
        })
    }
}

fn blobs_of(queries: &[QueryRecord]) -> BaseMap {
    let mut map = HashMap::new();
    for q in queries {
        for (idx, blob) in q.blobs.iter().enumerate() {
            map.insert((q.id, idx), blob.clone());
        }
    }
    map
}

fn read_manifest(path: &Path) -> Result<Vec<ChainEntry>, Error> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read manifest", e))?;
    if bytes.len() < 4 {
        return Err(Error::WalCorrupt("manifest too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let expect = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(body) != expect {
        return Err(Error::WalCorrupt("manifest checksum mismatch"));
    }
    let mut r = WireReader::new(body);
    for &b in MANIFEST_MAGIC {
        if r.get_u8()? != b {
            return Err(Error::WalCorrupt("bad manifest magic"));
        }
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(Error::WalCorrupt("unknown manifest version"));
    }
    let n = r.get_len()?;
    let mut chain = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        chain.push(ChainEntry {
            epoch: r.get_u64()?,
            position: r.get_u64()?,
            wal_seq: r.get_u64()?,
            full: r.get_u8()? != 0,
            file: r.get_str()?,
        });
    }
    if !r.is_exhausted() {
        return Err(Error::WalCorrupt("trailing bytes in manifest"));
    }
    Ok(chain)
}

fn write_manifest(path: &Path, chain: &[ChainEntry]) -> Result<(), Error> {
    let mut w = WireWriter::new();
    for &b in MANIFEST_MAGIC {
        w.put_u8(b);
    }
    w.put_u32(VERSION);
    w.put_len(chain.len());
    for e in chain {
        w.put_u64(e.epoch);
        w.put_u64(e.position);
        w.put_u64(e.wal_seq);
        w.put_u8(e.full as u8);
        w.put_str(&e.file);
    }
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = path.with_extension("tmp");
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| io_err("write manifest", e))?;
    f.write_all(&bytes)
        .map_err(|e| io_err("write manifest", e))?;
    f.sync_data().map_err(|e| io_err("fsync manifest", e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename manifest", e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read and validate one checkpoint file, reconstructing its blobs
/// against `base` (the previous epoch's blobs; empty for a full file).
fn read_checkpoint(
    path: &Path,
    entry: &ChainEntry,
    base: &BaseMap,
) -> Result<(usize, Vec<QueryRecord>), Error> {
    let mut file = File::open(path).map_err(|e| io_err("open checkpoint", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read checkpoint", e))?;
    if bytes.len() < 4 {
        return Err(Error::WalCorrupt("checkpoint too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let expect = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(body) != expect {
        return Err(Error::WalCorrupt("checkpoint checksum mismatch"));
    }
    let mut r = WireReader::new(body);
    for &b in CKPT_MAGIC {
        if r.get_u8()? != b {
            return Err(Error::WalCorrupt("bad checkpoint magic"));
        }
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(Error::WalCorrupt("unknown checkpoint version"));
    }
    let epoch = r.get_u64()?;
    let base_epoch = r.get_u64()?;
    let position = r.get_u64()?;
    let wal_seq = r.get_u64()?;
    let origin_shards = r.get_len()?;
    if epoch != entry.epoch
        || position != entry.position
        || wal_seq != entry.wal_seq
        || (base_epoch == NO_BASE) != entry.full
    {
        return Err(Error::WalCorrupt(
            "checkpoint header disagrees with the manifest",
        ));
    }
    let n = r.get_len()?;
    let mut queries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.get_u32()?;
        let name = r.get_str()?;
        let spec = Option::<QuerySpec>::decode(&mut r)?;
        let n_blobs = r.get_len()?;
        let mut blobs = Vec::with_capacity(n_blobs.min(1 << 10));
        for idx in 0..n_blobs {
            let blob_base = if entry.full {
                None
            } else {
                base.get(&(id, idx)).map(Vec::as_slice)
            };
            blobs.push(decode_blob(&mut r, blob_base)?);
        }
        queries.push(QueryRecord {
            id,
            name,
            spec,
            blobs,
        });
    }
    if !r.is_exhausted() {
        return Err(Error::WalCorrupt("trailing bytes in checkpoint"));
    }
    Ok((origin_shards, queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile bytes (ROADMAP 1(e)): a mutated MANIFEST — checksum
    /// stale, or recomputed so the body is actually parsed — reads as
    /// an error or as a chain that writes and reads back unchanged.
    #[test]
    fn mutated_manifests_are_rejected_or_reread() {
        let dir = std::env::temp_dir().join(format!("cer-manifest-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        let entry = |epoch: u64, full: bool| ChainEntry {
            epoch,
            position: 1000 * epoch,
            wal_seq: 17 * epoch,
            full,
            file: ckpt_file_name(epoch),
        };
        write_manifest(&path, &[entry(4, true), entry(5, false)]).unwrap();
        let good = std::fs::read(&path).unwrap();
        let body = &good[..good.len() - 4];
        let resealed = cer_common::wire::hostile_mutations(body).map(|mut body| {
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        });
        let mut reread = 0;
        for mutated in cer_common::wire::hostile_mutations(&good).chain(resealed) {
            std::fs::write(&path, &mutated).unwrap();
            let Ok(chain) = read_manifest(&path) else {
                continue;
            };
            write_manifest(&path, &chain).expect("a chain that was read can be written");
            let again = read_manifest(&path).expect("and read again");
            assert_eq!(format!("{again:?}"), format!("{chain:?}"));
            reread += 1;
        }
        assert!(reread > 0, "a resealed body with another epoch is honest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile bytes (ROADMAP 1(e)): a mutated blob, full or delta,
    /// decodes to bytes that encode and decode back to themselves
    /// against the same base, or fails.
    #[test]
    fn mutated_blobs_are_rejected_or_reencode() {
        let base: Vec<u8> = (0..3 * CHUNK as u32).map(|i| (i % 251) as u8).collect();
        let mut blob = base.clone();
        blob[CHUNK + 7] ^= 0xFF;
        blob.extend_from_slice(b"a literal tail");
        let mut decoded = 0;
        for base in [Some(base.as_slice()), None] {
            let mut w = WireWriter::new();
            encode_blob(&mut w, base, &blob);
            for mutated in cer_common::wire::hostile_mutations(&w.into_bytes()) {
                let Ok(bytes) = decode_blob(&mut WireReader::new(&mutated), base) else {
                    continue;
                };
                assert_eq!(roundtrip(base, &bytes), bytes);
                decoded += 1;
            }
        }
        assert!(decoded > 0, "a literal with other contents is honest");
    }

    fn roundtrip(base: Option<&[u8]>, blob: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode_blob(&mut w, base, blob);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let out = decode_blob(&mut r, base).unwrap();
        assert!(r.is_exhausted());
        out
    }

    #[test]
    fn delta_roundtrips_across_shapes() {
        let base: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Identical, point edit, grow, shrink, disjoint, empty.
        let mut edited = base.clone();
        edited[4_321] ^= 0xFF;
        let mut grown = base.clone();
        grown.extend_from_slice(&[7u8; 3_000]);
        let shrunk = base[..2_500].to_vec();
        let disjoint: Vec<u8> = (0..10_000u32).map(|i| (i % 13) as u8).collect();
        for blob in [&base, &edited, &grown, &shrunk, &disjoint, &Vec::new()] {
            assert_eq!(&roundtrip(Some(&base), blob), blob);
            assert_eq!(&roundtrip(None, blob), blob);
        }
    }

    #[test]
    fn near_identical_blob_deltas_small() {
        let base: Vec<u8> = vec![42u8; 100_000];
        let mut blob = base.clone();
        blob[77_777] = 0;
        let mut w = WireWriter::new();
        encode_blob(&mut w, Some(&base), &blob);
        assert!(
            w.len() < 3 * CHUNK,
            "one edited chunk must not cost {} bytes",
            w.len()
        );
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("cer-mani-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        let chain = vec![
            ChainEntry {
                epoch: 4,
                position: 1000,
                wal_seq: 12,
                full: true,
                file: ckpt_file_name(4),
            },
            ChainEntry {
                epoch: 5,
                position: 2000,
                wal_seq: 30,
                full: false,
                file: ckpt_file_name(5),
            },
        ];
        write_manifest(&path, &chain).unwrap();
        let back = read_manifest(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].position, 2000);
        assert_eq!(back[1].wal_seq, 30);
        assert!(!back[1].full);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_manifest(&path).unwrap_err(),
            Error::WalCorrupt("manifest checksum mismatch")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
