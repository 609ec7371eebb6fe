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
//!   are sequence-ordered by construction). One log-writer thread,
//!   owned by [`DurableWm`], writes + fsyncs everything pending and
//!   publishes the new durable horizon; committers never fsync.
//!   [`WalWriter::request_sync`] records how far a committer needs the
//!   log durable and returns at once, waking the writer only when it
//!   is parked; [`WalWriter::sync_to`] waits for the horizon.
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

use crate::codec::{checked_len, put_u32, put_u64, Reader};
use crate::persist::{apply_changes_atomic, decode_batch_body, encode_batch_body};
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
    let len = encode_batch_body(out, changes).and_then(|()| checked_len(out.len() - start - 8));
    let len = len.inspect_err(|_| out.truncate(start))?;
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

/// The frame `[len: u32][crc: u32][payload]` at `pos` of `buf`: its
/// CRC, its payload and the offset it ends at, or `None` when its header
/// or its payload runs past the end of `buf`.
fn frame_at(buf: &[u8], pos: usize) -> Option<(u32, &[u8], usize)> {
    let mut r = Reader::new(buf.get(pos..)?);
    let len = r.u32().ok()? as usize;
    let crc = r.u32().ok()?;
    let payload = r.take(len).ok()?;
    Some((crc, payload, pos + 8 + len))
}

/// Scans the record stream of a segment body (after the header),
/// applying the torn-tail rule: an incomplete frame or a CRC failure
/// *touching end-of-buffer* is torn (prefix survives); a bad frame
/// with further data after it is [`CodecError::Corrupt`].
fn scan_records(buf: &[u8], header_len: usize) -> Result<SegmentScan, CodecError> {
    let mut records = Vec::new();
    let mut pos = header_len;
    while pos < buf.len() {
        match frame_at(buf, pos) {
            Some((crc, payload, end)) if crc32(payload) == crc => {
                let mut r = Reader::new(payload);
                let seq = r.u64()?;
                let changes = decode_batch_body(&mut r)?;
                if !r.at_end() {
                    return Err(CodecError::TrailingBytes { at: pos + 8 + r.pos() });
                }
                records.push(WalRecord { seq, changes });
                pos = end;
            }
            // Damage with valid data after it: genuine corruption.
            Some((_, _, end)) if end < buf.len() => return Err(CodecError::Corrupt { at: pos }),
            // A frame running past EOF, or a damaged final frame: a torn
            // write on the tail.
            _ => return Ok(SegmentScan { records, valid_len: pos, torn: true }),
        }
    }
    Ok(SegmentScan { records, valid_len: pos, torn: false })
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
    /// Sync requests (`request_sync`, `sync_to`, `flush`) that did not
    /// wake the log writer: their seq was already durable, or the
    /// writer was already awake and its drain loop covers them. Every
    /// other request wakes a parked writer, which then fsyncs at least
    /// once, so `piggybacked / (piggybacked + fsyncs)` is the share of
    /// requests that rode on an fsync some other request started.
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
    /// Highest seq any committer has asked to be made durable. The
    /// log writer drains until `durable_seq` catches this, so a request
    /// made while an fsync is in flight is never stranded.
    requested: u64,
    /// Highest horizon a [`WalWriter::request_sync`] caller has been
    /// handed: each advance past it is reported once.
    observed: u64,
    /// The log writer is parked on `work` (only then does a request
    /// notify it).
    parked: bool,
    /// Threads blocked in [`WalWriter::sync_to`] on `done`.
    waiters: usize,
    /// A kill point fired or the writer hit a dead file: requests
    /// beyond `durable_seq` will never be met.
    dead: bool,
    /// The first I/O error the log writer hit, surfaced to every later
    /// waiter; the writer stops at it.
    failed: Option<(io::ErrorKind, String)>,
    /// [`DurableWm`] is being dropped: the writer finishes what was
    /// requested and exits.
    shutdown: bool,
}

/// Group-committing segment writer. `append` stages bytes (call under
/// the engine's base mutex — that is what makes records seq-ordered);
/// one log-writer thread, owned by [`DurableWm`], does every group
/// write + fsync. Committers only record how far they need the log
/// durable ([`WalWriter::request_sync`]) or wait for it
/// ([`WalWriter::sync_to`]).
pub struct WalWriter {
    file: Mutex<WalFile>,
    /// Ordering lock for file I/O, held across write+fsync. Every path
    /// that writes segment bytes (the log writer's flush, rotation,
    /// torn-tail kill) takes `io` before `file`, so bytes reach the
    /// segment in capture order — while `append` needs only the
    /// briefly-held `file` lock and never stalls behind an in-flight
    /// fsync.
    io: Mutex<()>,
    sync: Mutex<SyncState>,
    /// The log writer waits here for a request.
    work: Condvar,
    /// [`WalWriter::sync_to`] callers wait here for the horizon.
    done: Condvar,
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
    /// durable: records the request (as [`WalWriter::request_sync`]
    /// does) and waits for the log writer's horizon to pass it.
    pub fn sync_to(&self, seq: u64) -> Result<(), WalError> {
        let mut s = self.sync.lock().expect("wal sync lock");
        self.request(&mut s, seq);
        while s.durable_seq < seq {
            if let Some(e) = Self::stopped(&s) {
                return Err(e);
            }
            s.waiters += 1;
            s = self.done.wait(s).expect("wal sync wait");
            s.waiters -= 1;
        }
        Ok(())
    }

    /// Non-blocking group commit: records that `seq` must become
    /// durable and returns at once; the log writer makes it durable
    /// (while the writer lives), so the durable horizon trails the
    /// published one by at most the writer's in-flight batch — the
    /// prefix loss the recovery gate sweeps. Returns `Ok(Some(horizon))`
    /// when the durable horizon has advanced since any caller was last
    /// handed one, `Ok(None)` otherwise: each advance is reported once.
    pub fn request_sync(&self, seq: u64) -> Result<Option<u64>, WalError> {
        let mut s = self.sync.lock().expect("wal sync lock");
        if let Some(e) = Self::stopped(&s).filter(|_| s.durable_seq < seq) {
            return Err(e);
        }
        self.request(&mut s, seq);
        if s.durable_seq > s.observed {
            s.observed = s.durable_seq;
            return Ok(Some(s.durable_seq));
        }
        Ok(None)
    }

    /// Raises the requested horizon to `seq`, counting the request as
    /// piggybacked (see [`WalStats::piggybacked`]) unless it is the one
    /// that wakes a parked log writer.
    fn request(&self, s: &mut SyncState, seq: u64) {
        if seq > s.durable_seq && seq > s.requested && s.parked {
            s.requested = seq;
            s.parked = false;
            self.work.notify_one();
            return;
        }
        s.requested = s.requested.max(seq);
        self.stats.piggybacked.fetch_add(1, Ordering::Relaxed);
    }

    /// Why a request beyond the durable horizon can never be met, if
    /// it cannot.
    fn stopped(s: &SyncState) -> Option<WalError> {
        if s.dead {
            return Some(WalError::Dead);
        }
        s.failed.as_ref().map(|(kind, msg)| WalError::Io(io::Error::new(*kind, msg.clone())))
    }

    /// The log writer's loop: park until a request passes the durable
    /// horizon, write + fsync everything pending, publish the new
    /// horizon, wake `sync_to` waiters. Exits at shutdown once nothing
    /// requested is outstanding, or at the first failure (a dead file
    /// or an I/O error), which every later waiter then sees.
    fn run_log_writer(&self) {
        let mut s = self.sync.lock().expect("wal sync lock");
        loop {
            if Self::stopped(&s).is_some() || (s.shutdown && s.requested <= s.durable_seq) {
                return;
            }
            if s.requested <= s.durable_seq {
                s.parked = true;
                s = self.work.wait(s).expect("wal writer wait");
                s.parked = false;
                continue;
            }
            drop(s);
            let flushed = self.flush_pending();
            s = self.sync.lock().expect("wal sync lock");
            match flushed {
                Ok(horizon) => s.durable_seq = s.durable_seq.max(horizon),
                Err(WalError::Dead) => s.dead = true,
                Err(e) => {
                    let kind = match &e {
                        WalError::Io(io) => io.kind(),
                        _ => io::ErrorKind::Other,
                    };
                    s.failed = Some((kind, e.to_string()));
                }
            }
            if s.waiters > 0 {
                self.done.notify_all();
            }
        }
    }

    /// Writes + fsyncs everything pending; returns the new durable
    /// horizon (highest appended seq covered by this flush). The
    /// syscalls run under the `io` lock only — capturing the pending
    /// bytes is the sole moment the `file` lock is held, so appenders
    /// are never serialized behind the fsync. Seeing an empty pending
    /// buffer here means every earlier capture already hit the disk:
    /// whoever captured it held `io` until its fsync returned.
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
            let (pending, records) = self.take_pending(&mut f);
            (Arc::clone(&f.file), pending, records, horizon)
        };
        self.write_synced(&file, &pending, records)?;
        Ok(horizon)
    }

    /// Takes the pending bytes and their record count out of `f`.
    fn take_pending(&self, f: &mut WalFile) -> (Vec<u8>, u64) {
        self.stats.pending_bytes.store(0, Ordering::Relaxed);
        (std::mem::take(&mut f.pending), std::mem::take(&mut f.pending_records))
    }

    /// The one write + fsync step, for the log writer's flushes and a
    /// checkpoint's rotation alike: writes `bytes` (`records` records)
    /// to `file`, fsyncs it, and books the fsync, its records, its bytes
    /// and its time together — so `fsync_nanos / fsyncs` is the mean
    /// over every fsync issued.
    fn write_synced(&self, file: &File, bytes: &[u8], records: u64) -> Result<(), WalError> {
        let t0 = std::time::Instant::now();
        (&*file).write_all(bytes)?;
        file.sync_all()?;
        self.stats
            .fsync_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats.synced_records.fetch_add(records, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Makes everything appended so far durable — the log writer does
    /// the write + fsync, the caller waits for it — and returns the
    /// horizon. Used at clean shutdown and by the after-fsync kill
    /// point.
    pub fn flush(&self) -> Result<u64, WalError> {
        let appended = self.file.lock().expect("wal file lock").appended_seq;
        self.sync_to(appended)?;
        Ok(appended)
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
        let killed = self.kill_locked(&mut f, mode);
        drop(f);
        self.mark_dead();
        killed
    }

    /// Appends the batch committed at `seq` and immediately dies at
    /// the kill point, all under one file-lock acquisition. The fused
    /// form exists for the chaos seam: with the non-blocking group
    /// commit the log writer could otherwise slip between
    /// a separate `append` and `kill` and make the doomed record
    /// durable, turning the kill site's horizon nondeterministic.
    pub fn append_then_kill(
        &self,
        seq: u64,
        changes: &[Change],
        mode: KillMode,
    ) -> Result<(), WalError> {
        // io before file (the lock order): the log writer cannot be
        // mid-write, nor capture the doomed record before the kill below.
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
        let killed = self.kill_locked(&mut f, mode);
        drop(f);
        self.mark_dead();
        killed
    }

    /// Publishes a kill to the sync side: `sync_to` waiters wake and
    /// see [`WalError::Dead`], and the log writer exits.
    fn mark_dead(&self) {
        let mut s = self.sync.lock().expect("wal sync lock");
        s.dead = true;
        if s.waiters > 0 {
            self.done.notify_all();
        }
        self.work.notify_one();
    }

    fn kill_locked(&self, f: &mut WalFile, mode: KillMode) -> Result<(), WalError> {
        f.dead = true;
        let (pending, _) = self.take_pending(f);
        match mode {
            KillMode::Clean => {}
            KillMode::Torn => {
                if !pending.is_empty() {
                    // Find the final frame boundary so exactly the last
                    // record is torn (earlier pending records land whole).
                    let (mut pos, mut last_start) = (0, 0);
                    while let Some((_, _, end)) = frame_at(&pending, pos) {
                        last_start = pos;
                        pos = end;
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
/// current WAL segment, rooted at a directory, and the log-writer
/// thread that makes appended records durable. Dropping it lets the
/// writer finish what was requested and joins it.
pub struct DurableWm {
    dir: PathBuf,
    writer: Arc<WalWriter>,
    log_writer: Option<std::thread::JoinHandle<()>>,
    /// Sequence of the newest checkpoint installed. Its lock
    /// serialises installs, so one install's `prune` never deletes
    /// another's `.tmp` mid-write and installs finish in sequence order.
    checkpointed: Mutex<u64>,
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
        let writer = Arc::new(WalWriter {
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
                requested: base_seq,
                observed: base_seq,
                parked: false,
                waiters: 0,
                dead: false,
                failed: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            stats: StatCells::default(),
        });
        writer.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        let log_writer = {
            let writer = Arc::clone(&writer);
            std::thread::Builder::new()
                .name("dps-wal-writer".into())
                .spawn(move || writer.run_log_writer())?
        };
        Ok(DurableWm {
            dir: dir.to_path_buf(),
            writer,
            log_writer: Some(log_writer),
            checkpointed: Mutex::new(base_seq),
        })
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
    /// `seq` = the just-committed sequence number, and clone the working
    /// memory under that same mutex (a clone shares every relation, so
    /// it costs O(classes)); encode the clone and pass the snapshot to
    /// [`DurableWm::install_checkpoint`] *outside* the mutex (encoding
    /// and writing are the slow part).
    pub fn rotate(&self, seq: u64) -> Result<(), WalError> {
        // io before file: wait out any in-flight flush so the old
        // segment is truly complete before we seal and replace it.
        let _io = self.writer.io.lock().expect("wal io lock");
        let mut f = self.writer.file.lock().expect("wal file lock");
        if f.dead {
            return Err(WalError::Dead);
        }
        // Flush everything pending into the old segment.
        let (pending, records) = self.writer.take_pending(&mut f);
        self.writer.write_synced(&f.file, &pending, records)?;
        let horizon = f.appended_seq;
        debug_assert!(horizon == seq, "rotate at the just-committed seq");
        f.file = Arc::new(WalWriter::open_segment(&self.dir, seq)?);
        drop(f);
        let mut s = self.writer.sync.lock().expect("wal sync lock");
        s.durable_seq = s.durable_seq.max(horizon);
        if s.waiters > 0 {
            self.writer.done.notify_all();
        }
        Ok(())
    }

    /// Writes the checkpoint snapshot for a rotation done at `seq`,
    /// prunes files it obsoletes, then runs `installed` (an observer's
    /// `Checkpoint` record). Slow-path work — call outside the engine's
    /// base mutex. Installs are serialised: committers that rotated at
    /// different sequences may arrive out of order, and a snapshot older
    /// than the newest one installed is skipped (`installed` does not
    /// run), so the directory's checkpoint and every `installed` call
    /// only move forward.
    pub fn install_checkpoint(
        &self,
        seq: u64,
        snapshot: &[u8],
        installed: impl FnOnce(),
    ) -> Result<(), WalError> {
        let mut newest = self.checkpointed.lock().expect("checkpoint lock");
        if seq <= *newest {
            return Ok(());
        }
        write_checkpoint(&self.dir, seq, snapshot)?;
        *newest = seq;
        self.writer.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        prune(&self.dir, seq)?;
        installed();
        Ok(())
    }
}

impl Drop for DurableWm {
    fn drop(&mut self) {
        self.writer.sync.lock().expect("wal sync lock").shutdown = true;
        self.writer.work.notify_one();
        if let Some(log_writer) = self.log_writer.take() {
            let _ = log_writer.join();
        }
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
    use crate::{codec, DeltaSet, Value, Wme, WmeData, WmeId};

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
        let (_, _, first_end) = frame_at(&bytes, SEGMENT_HEADER_LEN).unwrap();
        let second = first_end + 12;
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
        durable.install_checkpoint(3, &snap, || ()).unwrap();
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
    fn rotation_books_its_fsync_with_its_time() {
        let dir = tmp_dir("rotate-fsync");
        let mut wm = WorkingMemory::new();
        let durable = DurableWm::create(&dir, &wm, 0).unwrap();
        let changes = commit(&mut wm, 1);
        durable.writer().append(1, &changes).unwrap();
        durable.rotate(1).unwrap();
        let stats = durable.writer().stats();
        assert_eq!((stats.fsyncs, stats.synced_records), (1, 1));
        assert!(stats.bytes_written > 0);
        assert!(durable.writer().fsync_nanos() > 0, "the rotation's fsync is timed");
        assert_eq!(durable.writer().pending_bytes(), 0);
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
            .install_checkpoint(1, &wm.encode_snapshot().unwrap(), || ())
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

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a minute: a lost wake-up of the log writer
    /// leaves `sync_to` blocked for good, and must show as a failure,
    /// not as a hung test run.
    fn watchdog(f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("finished without reporting"),
            },
            Err(RecvTimeoutError::Timeout) => panic!("blocked for 60 s: a wake-up was lost"),
        }
    }

    #[test]
    fn log_writer_loses_no_wakeup() {
        watchdog(|| {
            const N: u64 = 100_000;
            let dir = tmp_dir("wakeup");
            let durable = DurableWm::create(&dir, &WorkingMemory::new(), 0).unwrap();
            let mut wm = WorkingMemory::new();
            let mut horizon = 0;
            for seq in 1..=N {
                let changes = commit(&mut wm, seq as i64);
                durable.writer().append(seq, &changes).unwrap();
                if let Some(h) = durable.writer().request_sync(seq).unwrap() {
                    assert!(h > horizon && h <= seq, "each advance is reported once");
                    horizon = h;
                }
            }
            durable.writer().sync_to(N).unwrap();
            let stats = durable.writer().stats();
            assert_eq!(stats.synced_records, N);
            assert!(stats.fsyncs <= N && stats.piggybacked + stats.fsyncs >= N);
            let rec = recover(&dir).unwrap();
            assert_eq!(rec.last_seq, N);
            assert_eq!(rec.wm.encode_snapshot().unwrap(), wm.encode_snapshot().unwrap());
            drop(durable);
            fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn dropping_a_durable_wm_joins_its_log_writer() {
        watchdog(|| {
            let dir = tmp_dir("join");
            let mut wm = WorkingMemory::new();
            let durable = DurableWm::create(&dir, &wm, 0).unwrap();
            let writer = Arc::downgrade(&durable.writer);
            for seq in 1..=3u64 {
                durable.writer().append(seq, &commit(&mut wm, seq as i64)).unwrap();
            }
            durable.writer().request_sync(3).unwrap();
            drop(durable);
            // The writer thread held the other strong count: it has
            // returned, and what was requested before the drop is on
            // disk.
            assert!(writer.upgrade().is_none(), "the log writer outlived its DurableWm");
            assert_eq!(recover(&dir).unwrap().last_seq, 3);
            fs::remove_dir_all(&dir).unwrap();
        });
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        let digit = |i| u8::from_str_radix(&text[i..i + 2], 16).unwrap();
        (0..text.len()).step_by(2).map(digit).collect()
    }

    /// Two `job` tuples and a `tmp` class emptied by a removal.
    fn pinned_memory() -> WorkingMemory {
        let mut wm = WorkingMemory::new();
        let job = WmeData::new("job").with("id", 1i64).with("cost", 2.5f64);
        wm.insert(job.with("name", String::from("mill")).with("urgent", true));
        let doomed = wm.insert(WmeData::new("tmp"));
        wm.insert(WmeData::new("job").with("id", 2i64).with("note", Value::Nil));
        wm.remove(doomed).unwrap();
        wm
    }

    /// The bytes of every working-memory encoding on disk (the wire
    /// shares the `Value` and tuple layouts): a change here leaves
    /// existing logs and checkpoints unreadable.
    #[test]
    fn golden_bytes_are_unchanged() {
        let values = [
            (Value::Nil, "00"),
            (Value::Bool(true), "0101"),
            (Value::Int(-2), "02feffffffffffffff"),
            (Value::Float(1.5), "03000000000000f83f"),
            (Value::Sym("ok".into()), "04020000006f6b"),
            (Value::Str("é".into()), "0502000000c3a9"),
        ];
        for (value, bytes) in values {
            let mut out = Vec::new();
            codec::put_value(&mut out, &value).unwrap();
            assert_eq!(hex(&out), bytes, "{value:?}");
            assert_eq!(codec::Reader::new(&out).value().unwrap(), value);
        }
        let data = WmeData::new("job").with("id", 1i64).with("tag", Value::Sym("hot".into()));
        let mut out = Vec::new();
        codec::put_data(&mut out, &data).unwrap();
        assert_eq!(
            hex(&out),
            "030000006a6f6202000000020000006964020100000000000000030000007461670403000000686f74"
        );
        let wme = Wme { id: WmeId(7), timestamp: 9, data };
        let mut out = Vec::new();
        crate::persist::put_wme(&mut out, &wme).unwrap();
        assert_eq!(
            hex(&out),
            "07000000000000000900000000000000030000006a6f62020000000200000069640201000000000000000\
            30000007461670403000000686f74"
        );
        let tmp = Wme { id: WmeId(2), timestamp: 4, data: WmeData::new("tmp") };
        let mut out = Vec::new();
        let batch = [Change::Added(wme.into()), Change::Removed(tmp.into())];
        encode_record(&mut out, 3, &batch).unwrap();
        assert_eq!(
            hex(&out),
            "62000000701bf71e0300000000000000020000000007000000000000000900000000000000030000006a6\
            f6202000000020000006964020100000000000000030000007461670403000000686f7401020000000000\
            0000040000000000000003000000746d7000000000"
        );
        assert_eq!(
            hex(&pinned_memory().encode_snapshot().unwrap()),
            "44505357020300000000000000030000000000000002000000030000006a6f6203000000746d700200000\
            00000000000000000000000000100000000000000030000006a6f620400000004000000636f7374030000\
            000000000440020000006964020100000000000000040000006e616d6505040000006d696c6c060000007\
            57267656e74010102000000000000000300000000000000030000006a6f62020000000200000069640202\
            00000000000000040000006e6f746500"
        );
    }

    /// A checkpoint and a log segment in the pinned format recover to
    /// the working memory that wrote them.
    #[test]
    fn golden_wal_directory_recovers_unchanged() {
        let dir = tmp_dir("golden");
        let checkpoint = "4450434b012ed99cd202000000000000004450535702040000000000000005000000000000000300000003000\
        0006a6f6203000000746d70030000006c6f670300000000000000000000000000000005000000000000000300\
        00006a6f620400000004000000636f73740300000000000008400200000069640201000000000000000400000\
        06e616d6505040000006d696c6c06000000757267656e74010102000000000000000300000000000000030000\
        006a6f6202000000020000006964020200000000000000040000006e6f7465000300000000000000040000000\
        0000000030000006c6f67020000000200000061740201000000000000000400000074657874050600000068c3\
        a96c6c6f";
        let segment = "4450574c010200000000000000850000001dd0bc9f03000000000000000200000000040000000000000006000\
        00000000000030000006c6f670200000002000000617402020000000000000003000000746167040400000064\
        6f6e650103000000000000000400000000000000030000006c6f6702000000020000006174020100000000000\
        0000400000074657874050600000068c3a96c6c6f";
        fs::write(checkpoint_path(&dir, 2), unhex(checkpoint)).unwrap();
        fs::write(segment_path(&dir, 2), unhex(segment)).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!((rec.checkpoint_seq, rec.last_seq, rec.replayed), (2, 3, 1));
        assert!(!rec.torn_tail);
        assert_eq!(
            hex(&rec.wm.encode_snapshot().unwrap()),
            "44505357020500000000000000060000000000000003000000030000006a6f6203000000746d700300000\
            06c6f67030000000000000000000000000000000500000000000000030000006a6f620400000004000000\
            636f7374030000000000000840020000006964020100000000000000040000006e616d6505040000006d6\
            96c6c06000000757267656e74010102000000000000000300000000000000030000006a6f620200000002\
            0000006964020200000000000000040000006e6f746500040000000000000006000000000000000300000\
            06c6f6702000000020000006174020200000000000000030000007461670404000000646f6e65"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
