//! File-backed write-ahead logging and crash recovery.
//!
//! The paper's opening motivation — "knowledge sharing and knowledge
//! persistence, features found currently in databases" — needs more
//! than the in-memory snapshot and change-batch codecs
//! ([`WorkingMemory::encode_snapshot`], [`apply_changes_atomic`]): it
//! needs the state to survive the process. This module provides the
//! storage-engine pieces:
//!
//! * **WAL segments** — append-only files of CRC-framed records, one
//!   record per sequence-numbered [`Change`] batch (the §4.2 atomic
//!   commit unit the match pipeline publishes). Record framing:
//!   `[len: u32][crc32: u32][payload]` with
//!   `payload = [seq: u64][count: u32][(tag, wme)*]` and the CRC taken
//!   over the payload.
//! * **Group commit** — [`WalWriter::append`] is a memcpy into a
//!   pending buffer (called under the engine's base mutex, so records
//!   are sequence-ordered by construction); [`WalWriter::sync_to`]
//!   makes a batch durable. Concurrent committers piggyback: one
//!   thread becomes the flusher, writes + fsyncs everything pending,
//!   and publishes the new durable horizon; the rest just wait on it.
//! * **Checkpoints** — periodic full snapshots (reusing
//!   [`WorkingMemory::encode_snapshot`]) written atomically
//!   (tmp + fsync + rename), each paired with a fresh log segment so
//!   old segments can be dropped.
//! * **ARIES-lite recovery** — [`recover`] loads the newest valid
//!   checkpoint and redoes the log suffix. Redo is idempotent at the
//!   batch level (each batch applies all-or-nothing via
//!   [`apply_changes_atomic`]) and the **torn-tail
//!   rule** applies: an incomplete or CRC-failing record *at the very
//!   end of the last segment* is a torn write — truncate there and
//!   recover the prefix. A CRC failure with valid data after it is
//!   genuine corruption and recovery refuses
//!   ([`CodecError::Corrupt`]) — that distinction is what the
//!   falsifiability probe in the recovery gate exercises.
//!
//! Kill-point fault injection (`kill_clean` / `kill_torn`) simulates
//! process death at the seams the chaos harness cares about: after a
//! commit publishes but before its fsync, and mid-write on the tail
//! record.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::persist::{
    apply_changes_atomic, decode_batch_body, encode_batch_body, put_u32, put_u64, Reader,
};
use crate::{Change, CodecError, WorkingMemory};

/// Magic bytes opening every WAL segment file.
const SEGMENT_MAGIC: &[u8; 4] = b"DPWL";
/// Magic bytes opening every checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 4] = b"DPCK";
/// Current on-disk format version.
const VERSION: u8 = 1;
/// Segment header: magic + version + base_seq.
const SEGMENT_HEADER_LEN: usize = 4 + 1 + 8;

/// Errors from the durability layer: either the codec rejected the
/// bytes or the filesystem did.
#[derive(Debug)]
pub enum WalError {
    /// Encoding/decoding failure (including [`CodecError::Corrupt`]
    /// for a mid-log CRC failure).
    Codec(CodecError),
    /// Filesystem failure.
    Io(io::Error),
    /// Recovery found no usable checkpoint in the directory.
    NoCheckpoint,
    /// The writer was killed by fault injection; further appends and
    /// syncs are refused (the "process" is dead).
    Dead,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Codec(e) => write!(f, "wal codec error: {e}"),
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::NoCheckpoint => write!(f, "no usable checkpoint found"),
            WalError::Dead => write!(f, "wal writer is dead (kill point fired)"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        WalError::Codec(e)
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, table-driven — the workspace is dependency-free)
// ---------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

/// Encodes one record frame `[len][crc][payload]` into `out`, in
/// place: the payload is written straight after an 8-byte hole and the
/// `len`/`crc` fields are patched afterwards. No scratch allocation —
/// this runs inside the engine's commit critical section, where every
/// copy lengthens the serial fraction. On error `out` is restored.
fn encode_record(out: &mut Vec<u8>, seq: u64, changes: &[Change]) -> Result<(), CodecError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    put_u64(out, seq);
    if let Err(e) = encode_batch_body(out, changes) {
        out.truncate(start);
        return Err(e);
    }
    let payload_len = out.len() - start - 8;
    let Ok(len) = u32::try_from(payload_len) else {
        out.truncate(start);
        return Err(CodecError::TooLarge);
    };
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// One decoded WAL record.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Commit sequence number of the batch.
    pub seq: u64,
    /// The committed change batch.
    pub changes: Vec<Change>,
}

/// Result of scanning one segment's record stream.
#[derive(Debug)]
struct SegmentScan {
    records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole records).
    valid_len: usize,
    /// `true` if bytes after `valid_len` were discarded as a torn tail.
    torn: bool,
}

/// Scans the record stream of a segment body (after the header),
/// applying the torn-tail rule: an incomplete frame or a CRC failure
/// *touching end-of-buffer* is torn (prefix survives); a bad frame
/// with further data after it is [`CodecError::Corrupt`].
fn scan_records(buf: &[u8], header_len: usize) -> Result<SegmentScan, CodecError> {
    let mut records = Vec::new();
    let mut pos = header_len;
    loop {
        if pos == buf.len() {
            return Ok(SegmentScan { records, valid_len: pos, torn: false });
        }
        // Frame header.
        if buf.len() - pos < 8 {
            // Torn frame header at EOF.
            return Ok(SegmentScan { records, valid_len: pos, torn: true });
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let body_start = pos + 8;
        let body_end = match body_start.checked_add(len) {
            Some(e) => e,
            // Length overflows usize: cannot be a valid frame. Nothing
            // can follow it either, so treat as torn tail.
            None => return Ok(SegmentScan { records, valid_len: pos, torn: true }),
        };
        if body_end > buf.len() {
            // Payload runs past EOF: torn write.
            return Ok(SegmentScan { records, valid_len: pos, torn: true });
        }
        let payload = &buf[body_start..body_end];
        if crc32(payload) != crc {
            if body_end == buf.len() {
                // The final frame is damaged — torn write on the tail.
                return Ok(SegmentScan { records, valid_len: pos, torn: true });
            }
            // Damage with valid data after it: genuine corruption.
            return Err(CodecError::Corrupt { at: pos });
        }
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let changes = decode_batch_body(&mut r)?;
        if !r.at_end() {
            return Err(CodecError::TrailingBytes { at: pos + 8 + r.pos() });
        }
        records.push(WalRecord { seq, changes });
        pos = body_end;
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Lifetime counters for one [`WalWriter`]. All monotone; read with
/// [`WalWriter::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (one per committed batch).
    pub appends: u64,
    /// Physical `fsync` calls issued.
    pub fsyncs: u64,
    /// Records made durable across all fsyncs.
    pub synced_records: u64,
    /// `sync_to` calls that found their seq already durable or
    /// piggybacked on another thread's fsync.
    pub piggybacked: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Bytes written to segment files.
    pub bytes_written: u64,
}

#[derive(Default)]
struct StatCells {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    synced_records: AtomicU64,
    piggybacked: AtomicU64,
    checkpoints: AtomicU64,
    bytes_written: AtomicU64,
    /// Gauge mirror of the pending (staged-but-unsynced) buffer length,
    /// maintained at every site that mutates it so telemetry probes can
    /// read the backlog without touching the file lock.
    pending_bytes: AtomicU64,
    /// Cumulative nanoseconds spent inside `write_all` + `sync_all` —
    /// per-tick first differences give the live fsync latency series.
    fsync_nanos: AtomicU64,
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// How a kill point should mangle the tail when the "process dies".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillMode {
    /// Die between publish and fsync: pending records are lost whole.
    Clean,
    /// Die mid-write: the tail record reaches disk torn (a prefix of
    /// its frame), exercising the torn-tail truncation rule.
    Torn,
}

struct WalFile {
    file: Arc<File>,
    /// Encoded-but-unsynced record bytes, in seq order.
    pending: Vec<u8>,
    /// Highest seq appended (durable or pending). 0 = none.
    appended_seq: u64,
    /// Seq of the first pending record (for durable accounting).
    pending_records: u64,
    dead: bool,
}

struct SyncState {
    /// Highest seq known durable on disk.
    durable_seq: u64,
    /// A flusher is currently writing+fsyncing.
    syncing: bool,
    /// Highest seq any committer has asked to be made durable. The
    /// baton flusher drains until `durable_seq` catches this, so a
    /// request made while an fsync is in flight is never stranded.
    requested: u64,
}

/// Group-committing segment writer. `append` stages bytes (call under
/// the engine's base mutex — that is what makes records seq-ordered);
/// `sync_to` makes them durable, sharing one fsync among concurrent
/// committers.
pub struct WalWriter {
    file: Mutex<WalFile>,
    /// Ordering lock for file I/O, held across write+fsync. Every path
    /// that writes segment bytes (flush, rotation, torn-tail kill)
    /// takes `io` before `file`, so bytes reach the segment in capture
    /// order — while `append` needs only the briefly-held `file` lock
    /// and never stalls behind an in-flight fsync.
    io: Mutex<()>,
    sync: Mutex<SyncState>,
    cond: Condvar,
    stats: StatCells,
}

impl WalWriter {
    fn open_segment(dir: &Path, base_seq: u64) -> Result<File, WalError> {
        let path = segment_path(dir, base_seq);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.push(VERSION);
        put_u64(&mut header, base_seq);
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(file)
    }

    /// Appends the batch committed at `seq` to the pending buffer.
    /// Call strictly in commit order (the engine holds its base mutex
    /// across the commit, which guarantees this). Cheap: one encode +
    /// memcpy, no syscall.
    pub fn append(&self, seq: u64, changes: &[Change]) -> Result<(), WalError> {
        let mut f = self.file.lock().expect("wal file lock");
        if f.dead {
            return Err(WalError::Dead);
        }
        debug_assert!(seq > f.appended_seq, "records must be appended in seq order");
        let f = &mut *f;
        encode_record(&mut f.pending, seq, changes)?;
        f.appended_seq = seq;
        f.pending_records += 1;
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .pending_bytes
            .store(f.pending.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks until every record with sequence number ≤ `seq` is
    /// durable. Group commit: whoever arrives while nobody is syncing
    /// becomes the flusher and drains (covering later committers'
    /// records too); everyone else waits for the durable horizon to
    /// pass their seq.
    pub fn sync_to(&self, seq: u64) -> Result<(), WalError> {
        let mut s = self.sync.lock().expect("wal sync lock");
        loop {
            if s.durable_seq >= seq {
                self.stats.piggybacked.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !s.syncing {
                break;
            }
            s = self.cond.wait(s).expect("wal sync wait");
        }
        s.syncing = true;
        s.requested = s.requested.max(seq);
        drop(s);
        match self.drain() {
            Ok(horizon) if horizon >= seq => Ok(()),
            // Dead writer dropped our record; surface it.
            Ok(_) => Err(WalError::Dead),
            Err(e) => Err(e),
        }
    }

    /// Non-blocking group commit: guarantees some flusher will make
    /// `seq` durable (while the writer lives) and returns immediately
    /// when that flusher is someone else. Whoever arrives while nobody
    /// is flushing takes the baton and drains; everyone else just
    /// registers their seq and keeps committing — the durable horizon
    /// trails the published one by at most the in-flight fsync batch,
    /// which is exactly the prefix-loss the recovery gate sweeps.
    /// Returns `Ok(Some(horizon))` when this call did the fsync(s),
    /// `Ok(None)` when it piggybacked.
    pub fn request_sync(&self, seq: u64) -> Result<Option<u64>, WalError> {
        {
            let mut s = self.sync.lock().expect("wal sync lock");
            if s.durable_seq >= seq {
                self.stats.piggybacked.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            s.requested = s.requested.max(seq);
            if s.syncing {
                // The in-flight flusher's drain loop covers us.
                self.stats.piggybacked.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            s.syncing = true;
        }
        self.drain().map(Some)
    }

    /// The baton flusher's loop (caller must have won `syncing`):
    /// write + fsync everything pending, repeating while commits were
    /// requested behind the in-flight fsync. Clears `syncing` and
    /// wakes waiters on the way out; returns the final horizon.
    fn drain(&self) -> Result<u64, WalError> {
        loop {
            let flushed = self.flush_pending();
            let mut s = self.sync.lock().expect("wal sync lock");
            match flushed {
                Ok(horizon) => {
                    if horizon > s.durable_seq {
                        s.durable_seq = horizon;
                    }
                    if s.requested > s.durable_seq {
                        drop(s);
                        continue;
                    }
                    s.syncing = false;
                    let horizon = s.durable_seq;
                    drop(s);
                    self.cond.notify_all();
                    return Ok(horizon);
                }
                Err(e) => {
                    s.syncing = false;
                    drop(s);
                    self.cond.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Writes + fsyncs everything pending; returns the new durable
    /// horizon (highest appended seq covered by this flush). The
    /// syscalls run under the `io` lock only — capturing the pending
    /// bytes is the sole moment the `file` lock is held, so appenders
    /// are never serialized behind the fsync. Seeing an empty pending
    /// buffer here means every earlier capture already hit the disk:
    /// its flusher held `io` until its fsync returned.
    fn flush_pending(&self) -> Result<u64, WalError> {
        let _io = self.io.lock().expect("wal io lock");
        let (file, pending, records, horizon) = {
            let mut f = self.file.lock().expect("wal file lock");
            if f.dead {
                return Err(WalError::Dead);
            }
            let horizon = f.appended_seq;
            if f.pending.is_empty() {
                return Ok(horizon);
            }
            let captured = (
                Arc::clone(&f.file),
                std::mem::take(&mut f.pending),
                std::mem::take(&mut f.pending_records),
                horizon,
            );
            self.stats.pending_bytes.store(0, Ordering::Relaxed);
            captured
        };
        let t0 = std::time::Instant::now();
        (&*file).write_all(&pending)?;
        file.sync_all()?;
        self.stats
            .fsync_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .synced_records
            .fetch_add(records, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
        Ok(horizon)
    }

    /// Flushes and fsyncs everything pending right now (no grouping).
    /// Used at rotation and clean shutdown.
    pub fn flush(&self) -> Result<u64, WalError> {
        let horizon = self.flush_pending()?;
        let mut s = self.sync.lock().expect("wal sync lock");
        if horizon > s.durable_seq {
            s.durable_seq = horizon;
        }
        self.cond.notify_all();
        Ok(horizon)
    }

    /// Bytes staged but not yet fsynced (live telemetry gauge; a
    /// lock-free mirror of the pending buffer length).
    pub fn pending_bytes(&self) -> u64 {
        self.stats.pending_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative nanoseconds spent in fsync (live telemetry counter;
    /// per-tick first differences are the fsync latency series).
    pub fn fsync_nanos(&self) -> u64 {
        self.stats.fsync_nanos.load(Ordering::Relaxed)
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.sync.lock().expect("wal sync lock").durable_seq
    }

    /// Snapshot of lifetime counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.stats.appends.load(Ordering::Relaxed),
            fsyncs: self.stats.fsyncs.load(Ordering::Relaxed),
            synced_records: self.stats.synced_records.load(Ordering::Relaxed),
            piggybacked: self.stats.piggybacked.load(Ordering::Relaxed),
            checkpoints: self.stats.checkpoints.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Simulates process death at a kill point. [`KillMode::Clean`]
    /// drops all pending (published-but-unsynced) records on the
    /// floor; [`KillMode::Torn`] writes the pending bytes but chops
    /// the final record's frame to a prefix — the torn tail recovery
    /// must truncate. Either way the writer is dead afterwards: all
    /// further appends/syncs return [`WalError::Dead`].
    pub fn kill(&self, mode: KillMode) -> Result<(), WalError> {
        let _io = self.io.lock().expect("wal io lock");
        let mut f = self.file.lock().expect("wal file lock");
        if f.dead {
            return Err(WalError::Dead);
        }
        self.kill_locked(&mut f, mode)?;
        drop(f);
        // Wake any piggybacking waiters so they observe Dead.
        self.cond.notify_all();
        Ok(())
    }

    /// Appends the batch committed at `seq` and immediately dies at
    /// the kill point, all under one file-lock acquisition. The fused
    /// form exists for the chaos seam: with the non-blocking group
    /// commit a concurrent baton flusher could otherwise slip between
    /// a separate `append` and `kill` and make the doomed record
    /// durable, turning the kill site's horizon nondeterministic.
    pub fn append_then_kill(
        &self,
        seq: u64,
        changes: &[Change],
        mode: KillMode,
    ) -> Result<(), WalError> {
        // io before file (the lock order): no flusher can be mid-write,
        // and none can capture the doomed record before the kill below.
        let _io = self.io.lock().expect("wal io lock");
        let mut f = self.file.lock().expect("wal file lock");
        if f.dead {
            return Err(WalError::Dead);
        }
        debug_assert!(seq > f.appended_seq, "records must be appended in seq order");
        {
            let f = &mut *f;
            encode_record(&mut f.pending, seq, changes)?;
            f.appended_seq = seq;
            f.pending_records += 1;
        }
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.kill_locked(&mut f, mode)?;
        drop(f);
        self.cond.notify_all();
        Ok(())
    }

    fn kill_locked(&self, f: &mut WalFile, mode: KillMode) -> Result<(), WalError> {
        f.dead = true;
        let pending = std::mem::take(&mut f.pending);
        f.pending_records = 0;
        self.stats.pending_bytes.store(0, Ordering::Relaxed);
        match mode {
            KillMode::Clean => {}
            KillMode::Torn => {
                if !pending.is_empty() {
                    // Find the final frame boundary so exactly the last
                    // record is torn (earlier pending records land whole).
                    let mut pos = 0usize;
                    let mut last_start = 0usize;
                    while pos + 8 <= pending.len() {
                        let len = u32::from_le_bytes(
                            pending[pos..pos + 4].try_into().expect("4 bytes"),
                        ) as usize;
                        last_start = pos;
                        pos += 8 + len;
                    }
                    // Keep everything before the last frame, plus a strict
                    // prefix of the last frame (at least the len field, so
                    // the tear is visible, never the whole frame).
                    let frame_len = pending.len() - last_start;
                    let keep = last_start + (frame_len / 2).clamp(1, frame_len - 1);
                    (&*f.file).write_all(&pending[..keep])?;
                    f.file.sync_all()?;
                    self.stats
                        .bytes_written
                        .fetch_add(keep as u64, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// True once a kill point has fired.
    pub fn is_dead(&self) -> bool {
        self.file.lock().expect("wal file lock").dead
    }
}

// ---------------------------------------------------------------------
// Checkpoints and the durable directory
// ---------------------------------------------------------------------

fn segment_path(dir: &Path, base_seq: u64) -> PathBuf {
    dir.join(format!("wal-{base_seq:020}.log"))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:020}.snap"))
}

/// Writes a checkpoint file atomically: `[magic][version][crc][seq]
/// [snapshot]`, via tmp + fsync + rename so a crash mid-checkpoint
/// leaves the previous checkpoint intact.
fn write_checkpoint(dir: &Path, seq: u64, snapshot: &[u8]) -> Result<(), WalError> {
    let mut body = Vec::with_capacity(8 + snapshot.len());
    put_u64(&mut body, seq);
    body.extend_from_slice(snapshot);
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.push(VERSION);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);

    let tmp = dir.join(format!("checkpoint-{seq:020}.tmp"));
    let final_path = checkpoint_path(dir, seq);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)?;
    file.write_all(&out)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &final_path)?;
    Ok(())
}

/// Reads and validates one checkpoint file; returns `(seq, wm)`.
fn read_checkpoint(path: &Path) -> Result<(u64, WorkingMemory), WalError> {
    let buf = fs::read(path)?;
    let mut r = Reader::new(&buf);
    if r.take(4)? != CHECKPOINT_MAGIC || r.u8()? != VERSION {
        return Err(CodecError::BadHeader.into());
    }
    let crc = r.u32()?;
    let body = &buf[r.pos()..];
    if crc32(body) != crc {
        return Err(CodecError::Corrupt { at: r.pos() }.into());
    }
    let mut br = Reader::new(body);
    let seq = br.u64()?;
    let wm = WorkingMemory::decode_snapshot(&body[br.pos()..])?;
    Ok((seq, wm))
}

/// The write side of a durable working memory: a checkpoint + the
/// current WAL segment, rooted at a directory.
pub struct DurableWm {
    dir: PathBuf,
    writer: WalWriter,
}

impl DurableWm {
    /// Initialises a durability directory: writes a checkpoint of `wm`
    /// at `base_seq` (the last committed sequence number, 0 for a
    /// fresh start) and opens a new segment for subsequent commits.
    /// Also used on resume-after-recovery — rewriting from a fresh
    /// checkpoint means the torn tail of the previous incarnation is
    /// repaired implicitly (old files are removed).
    pub fn create(dir: &Path, wm: &WorkingMemory, base_seq: u64) -> Result<DurableWm, WalError> {
        fs::create_dir_all(dir)?;
        let snapshot = wm.encode_snapshot()?;
        write_checkpoint(dir, base_seq, &snapshot)?;
        // Drop any files from a previous incarnation.
        prune(dir, base_seq)?;
        let file = Arc::new(WalWriter::open_segment(dir, base_seq)?);
        let writer = WalWriter {
            file: Mutex::new(WalFile {
                file,
                pending: Vec::new(),
                appended_seq: base_seq,
                pending_records: 0,
                dead: false,
            }),
            io: Mutex::new(()),
            sync: Mutex::new(SyncState {
                durable_seq: base_seq,
                syncing: false,
                requested: base_seq,
            }),
            cond: Condvar::new(),
            stats: StatCells::default(),
        };
        writer.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(DurableWm { dir: dir.to_path_buf(), writer })
    }

    /// The group-committing writer.
    pub fn writer(&self) -> &WalWriter {
        &self.writer
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rotates the log at checkpoint `seq`: flushes + fsyncs the old
    /// segment (so it is complete and durable), then opens a fresh
    /// segment based at `seq`. Call under the engine's base mutex with
    /// `seq` = the just-committed sequence number; pass the snapshot
    /// encoded under that same mutex to [`DurableWm::install_checkpoint`]
    /// *outside* the mutex (the snapshot write is the slow part).
    pub fn rotate(&self, seq: u64) -> Result<(), WalError> {
        // io before file: wait out any in-flight flush so the old
        // segment is truly complete before we seal and replace it.
        let _io = self.writer.io.lock().expect("wal io lock");
        let mut f = self.writer.file.lock().expect("wal file lock");
        if f.dead {
            return Err(WalError::Dead);
        }
        // Flush everything pending into the old segment.
        if !f.pending.is_empty() {
            let pending = std::mem::take(&mut f.pending);
            let records = std::mem::take(&mut f.pending_records);
            (&*f.file).write_all(&pending)?;
            self.writer.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.writer
                .stats
                .synced_records
                .fetch_add(records, Ordering::Relaxed);
            self.writer
                .stats
                .bytes_written
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }
        f.file.sync_all()?;
        let horizon = f.appended_seq;
        debug_assert!(horizon == seq, "rotate at the just-committed seq");
        f.file = Arc::new(WalWriter::open_segment(&self.dir, seq)?);
        drop(f);
        let mut s = self.writer.sync.lock().expect("wal sync lock");
        if horizon > s.durable_seq {
            s.durable_seq = horizon;
        }
        drop(s);
        self.writer.cond.notify_all();
        Ok(())
    }

    /// Writes the checkpoint snapshot for a rotation done at `seq` and
    /// prunes files it obsoletes. Slow-path work — call outside the
    /// engine's base mutex.
    pub fn install_checkpoint(&self, seq: u64, snapshot: &[u8]) -> Result<(), WalError> {
        write_checkpoint(&self.dir, seq, snapshot)?;
        self.writer.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        prune(&self.dir, seq)?;
        Ok(())
    }
}

/// Removes segments and checkpoints strictly older than the checkpoint
/// at `keep_seq` (their effects are contained in that checkpoint).
fn prune(dir: &Path, keep_seq: u64) -> Result<(), WalError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = if let Some(seq) = parse_numbered(&name, "wal-", ".log") {
            seq < keep_seq
        } else if let Some(seq) = parse_numbered(&name, "checkpoint-", ".snap") {
            seq < keep_seq
        } else {
            name.ends_with(".tmp")
        };
        if stale {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse::<u64>()
        .ok()
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// The result of crash recovery: the reconstructed working memory plus
/// the positions the engine needs to resume cleanly.
#[derive(Debug)]
pub struct Recovered {
    /// Working memory as of the last durable commit.
    pub wm: WorkingMemory,
    /// Sequence number of the last durable commit (`next_seq` for the
    /// resumed engine is this + 1).
    pub last_seq: u64,
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Redo records replayed from the log suffix.
    pub replayed: u64,
    /// `true` if a torn tail was truncated from the last segment.
    pub torn_tail: bool,
}

/// ARIES-lite recovery: load the newest valid checkpoint, redo the log
/// suffix, stop at the torn tail (last segment only). Returns the
/// recovered state and resume positions; refuses on genuine mid-log
/// corruption, a sequence gap, or a torn *non-final* segment.
pub fn recover(dir: &Path) -> Result<Recovered, WalError> {
    // Newest checkpoint that validates wins; older ones are fallback
    // only if the newest fails its CRC (a crash mid-rename can't cause
    // that, but a half-written tmp never got renamed anyway).
    let mut checkpoints: Vec<u64> = Vec::new();
    let mut segments: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(seq) = parse_numbered(&name, "checkpoint-", ".snap") {
            checkpoints.push(seq);
        } else if let Some(seq) = parse_numbered(&name, "wal-", ".log") {
            segments.push(seq);
        }
    }
    checkpoints.sort_unstable();
    segments.sort_unstable();

    let (checkpoint_seq, wm) = {
        let mut found = None;
        for &seq in checkpoints.iter().rev() {
            match read_checkpoint(&checkpoint_path(dir, seq)) {
                Ok(pair) => {
                    found = Some(pair);
                    break;
                }
                Err(WalError::Codec(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        found.ok_or(WalError::NoCheckpoint)?
    };
    let mut wm = wm;
    let mut last_seq = checkpoint_seq;
    let mut replayed = 0u64;
    let mut torn_tail = false;

    // Redo segments based at or after the checkpoint, in order.
    let redo: Vec<u64> = segments
        .iter()
        .copied()
        .filter(|&b| b >= checkpoint_seq)
        .collect();
    for (i, &base) in redo.iter().enumerate() {
        let buf = fs::read(segment_path(dir, base))?;
        let mut r = Reader::new(&buf);
        if buf.len() < SEGMENT_HEADER_LEN || r.take(4)? != SEGMENT_MAGIC || r.u8()? != VERSION {
            return Err(CodecError::BadHeader.into());
        }
        let header_base = r.u64()?;
        if header_base != base {
            return Err(CodecError::Corrupt { at: 5 }.into());
        }
        let scan = scan_records(&buf, SEGMENT_HEADER_LEN)?;
        if scan.torn {
            if i + 1 != redo.len() {
                // A torn non-final segment cannot happen from a single
                // crash (rotation fsyncs the old segment before opening
                // the next); treat as corruption.
                return Err(CodecError::Corrupt { at: scan.valid_len }.into());
            }
            torn_tail = true;
        }
        for rec in scan.records {
            if rec.seq <= last_seq {
                // Already contained in the checkpoint; skip (redo is
                // idempotent at batch granularity).
                continue;
            }
            if rec.seq != last_seq + 1 {
                return Err(CodecError::Corrupt { at: scan.valid_len }.into());
            }
            apply_changes_atomic(&mut wm, &rec.changes)?;
            last_seq = rec.seq;
            replayed += 1;
        }
    }

    Ok(Recovered { wm, last_seq, checkpoint_seq, replayed, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaSet, Value, WmeData};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dps-wal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn commit(wm: &mut WorkingMemory, i: i64) -> Vec<Change> {
        let mut d = DeltaSet::new();
        d.create(WmeData::new("log").with("i", i));
        wm.apply(&d).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_roundtrip_recovers_all_commits() {
        let dir = tmp_dir("roundtrip");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        for seq in 1..=10u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
            durable.writer().sync_to(seq).unwrap();
        }
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 10);
        assert_eq!(rec.checkpoint_seq, 0);
        assert_eq!(rec.replayed, 10);
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.wm.encode_snapshot().unwrap(),
            wm.encode_snapshot().unwrap()
        );
        let stats = durable.writer().stats();
        assert_eq!(stats.appends, 10);
        assert_eq!(stats.synced_records, 10);
        assert!(stats.fsyncs >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_kill_loses_exactly_the_unsynced_suffix() {
        let dir = tmp_dir("clean-kill");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        let mut states = Vec::new();
        for seq in 1..=6u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
            if seq <= 4 {
                durable.writer().sync_to(seq).unwrap();
                states.push(wm.encode_snapshot().unwrap());
            }
        }
        // Commits 5 and 6 were published but never fsynced.
        durable.writer().kill(KillMode::Clean).unwrap();
        assert!(durable.writer().append(7, &[]).is_err());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 4);
        assert!(!rec.torn_tail);
        assert_eq!(rec.wm.encode_snapshot().unwrap(), states[3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_kill_truncates_the_tail_record() {
        let dir = tmp_dir("torn-kill");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        for seq in 1..=5u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
        }
        durable.writer().kill(KillMode::Torn).unwrap();
        let rec = recover(&dir).unwrap();
        // Records 1–4 land whole, record 5 is torn and truncated.
        assert_eq!(rec.last_seq, 4);
        assert!(rec.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_rejected_not_truncated() {
        let dir = tmp_dir("corrupt");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        for seq in 1..=5u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
            durable.writer().sync_to(seq).unwrap();
        }
        // Flip a byte inside the SECOND record (valid data follows).
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(
            bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let second = SEGMENT_HEADER_LEN + 8 + first_len + 12;
        bytes[second] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match recover(&dir) {
            Err(WalError::Codec(CodecError::Corrupt { .. })) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_truncation_of_the_tail_recovers_a_prefix() {
        // The torn-tail rule, exhaustively: cut the (single-segment)
        // WAL at every byte boundary after the header; recovery must
        // yield exactly the commit prefix whose records survived whole.
        let dir = tmp_dir("cutpoints");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        let mut snapshots = vec![wm.encode_snapshot().unwrap()];
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        let path = segment_path(&dir, 0);
        for seq in 1..=4u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
            durable.writer().sync_to(seq).unwrap();
            snapshots.push(wm.encode_snapshot().unwrap());
            boundaries.push(fs::metadata(&path).unwrap().len() as usize);
        }
        let full = fs::read(&path).unwrap();
        for cut in SEGMENT_HEADER_LEN..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let rec = recover(&dir).unwrap();
            // Which commit prefix should survive this cut?
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(rec.last_seq, expect as u64, "cut at {cut}");
            assert_eq!(
                rec.wm.encode_snapshot().unwrap(),
                snapshots[expect],
                "cut at {cut}"
            );
            assert_eq!(rec.torn_tail, cut != boundaries[expect], "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_checkpoints_and_prunes() {
        let dir = tmp_dir("rotate");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        for seq in 1..=3u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
        }
        durable.rotate(3).unwrap();
        let snap = wm.encode_snapshot().unwrap();
        durable.install_checkpoint(3, &snap).unwrap();
        for seq in 4..=5u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
            durable.writer().sync_to(seq).unwrap();
        }
        // Old segment + old checkpoint pruned.
        assert!(!segment_path(&dir, 0).exists());
        assert!(!checkpoint_path(&dir, 0).exists());
        assert!(segment_path(&dir, 3).exists());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 3);
        assert_eq!(rec.last_seq, 5);
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.wm.encode_snapshot().unwrap(), wm.encode_snapshot().unwrap());
        let stats = durable.writer().stats();
        assert_eq!(stats.checkpoints, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn class_emptied_at_a_checkpoint_keeps_its_place_after_redo() {
        let dir = tmp_dir("class-order");
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("a"));
        let x = wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        let mut d = DeltaSet::new();
        d.remove(x);
        durable.writer().append(1, &wm.apply(&d).unwrap()).unwrap();
        // Checkpoint at seq 1, while x is empty.
        durable.rotate(1).unwrap();
        durable
            .install_checkpoint(1, &wm.encode_snapshot().unwrap())
            .unwrap();
        // Refill x in the redo suffix.
        let mut d = DeltaSet::new();
        d.create(WmeData::new("x"));
        durable.writer().append(2, &wm.apply(&d).unwrap()).unwrap();
        durable.writer().sync_to(2).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!((rec.checkpoint_seq, rec.last_seq), (1, 2));
        assert!(rec.wm.iter().eq(wm.iter()));
        assert_eq!(
            rec.wm.encode_snapshot().unwrap(),
            wm.encode_snapshot().unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_shares_fsyncs_across_threads() {
        let dir = tmp_dir("group");
        let mut wm = WorkingMemory::new();
        // Pre-build batches serially (WM itself is not the system under
        // test here — the writer is).
        let batches: Vec<Vec<Change>> = (1..=64i64).map(|i| commit(&mut wm, i)).collect();
        let durable = std::sync::Arc::new(DurableWm::create(&dir, &WorkingMemory::new(), 0).unwrap());
        let next = std::sync::Arc::new(Mutex::new((1u64, batches)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let durable = durable.clone();
            let next = next.clone();
            handles.push(std::thread::spawn(move || loop {
                let seq = {
                    let mut n = next.lock().unwrap();
                    if n.1.is_empty() {
                        return;
                    }
                    let seq = n.0;
                    let batch = n.1.remove(0);
                    // Append under the allocation lock = seq-ordered.
                    durable.writer().append(seq, &batch).unwrap();
                    n.0 += 1;
                    seq
                };
                durable.writer().sync_to(seq).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = durable.writer().stats();
        assert_eq!(stats.appends, 64);
        assert_eq!(stats.synced_records, 64);
        assert!(
            stats.fsyncs <= 64,
            "group commit should not fsync more than once per record"
        );
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_crc_guards_bitrot() {
        let dir = tmp_dir("ckpt-crc");
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x").with("k", Value::Int(1)));
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        drop(durable);
        let path = checkpoint_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(&dir), Err(WalError::NoCheckpoint)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_recovery_continues_the_log() {
        let dir = tmp_dir("resume");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        for seq in 1..=3u64 {
            let changes = commit(&mut wm, seq as i64);
            durable.writer().append(seq, &changes).unwrap();
        }
        durable.writer().sync_to(2).ok();
        durable.writer().kill(KillMode::Clean).unwrap();

        let rec = recover(&dir).unwrap();
        let mut wm2 = rec.wm;
        let base = rec.last_seq;
        // New incarnation: fresh checkpoint at the recovered seq.
        let durable2 = DurableWm::create(&dir, &wm2, base).unwrap();
        for off in 1..=2u64 {
            let changes = commit(&mut wm2, 100 + off as i64);
            durable2.writer().append(base + off, &changes).unwrap();
            durable2.writer().sync_to(base + off).unwrap();
        }
        let rec2 = recover(&dir).unwrap();
        assert_eq!(rec2.last_seq, base + 2);
        assert_eq!(
            rec2.wm.encode_snapshot().unwrap(),
            wm2.encode_snapshot().unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

}
