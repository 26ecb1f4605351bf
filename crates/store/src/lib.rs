//! # ngl-store
//!
//! The durable-state substrate of the NER Globalizer: a **segment-based
//! append-only write-ahead log** ([`Wal`]), a **crash-consistent
//! snapshot store** ([`SnapshotStore`]) and a positional **spill file**
//! ([`SpillFile`]) for cold surfaces. Deliberately dependency-free —
//! `std` only — so every byte on disk is laid out by this crate.
//!
//! ## Record framing
//!
//! Every WAL record is framed as
//!
//! ```text
//! len (u32 LE) | tag (u8) | fnv1a64(tag ++ payload) (u64 LE) | payload
//! ```
//!
//! The checksum covers the tag byte and the payload, so neither a torn
//! (truncated) tail nor a bit-flipped final record can be mistaken for
//! valid data: a reader scans records until the first frame that is
//! incomplete or fails its checksum and stops there, yielding exactly
//! the checksum-valid prefix. [`Wal::open`] additionally *repairs* the
//! tail — it truncates the active segment to the valid prefix so that
//! subsequent appends never land behind garbage.
//!
//! ## Segments, rotation, compaction
//!
//! The log is a directory of numbered segment files (`wal-NNNNNNNN.log`).
//! Appends go to the highest-numbered (active) segment and roll over to
//! a fresh segment once [`Wal::segment_bytes`] is exceeded or
//! [`Wal::rotate`] is called explicitly. After a snapshot has captured
//! all state up to a point, [`Wal::compact_below`] deletes the segments
//! that precede it — the delta log stays proportional to the stream
//! since the last snapshot, not to the stream's lifetime.
//!
//! ## Snapshots
//!
//! [`SnapshotStore`] files (`snap-NNNNNNNN.ck`) carry their own
//! `magic | version | seq | len | checksum` header and are written with
//! the tmp-file + fsync + atomic-rename dance, so a crash mid-snapshot
//! leaves the previous snapshot intact. [`SnapshotStore::latest`] walks
//! candidates newest-first and silently skips corrupt ones — recovery
//! always finds the newest snapshot that still verifies.

//!
//! ## Injectable IO and fault handling
//!
//! All three components perform disk IO through the [`io::StoreIo`]
//! layer (shared as a cloneable [`IoHandle`]): production uses the
//! passthrough [`io::RealIo`], chaos tests swap in [`io::ChaosIo`]
//! with a seeded fault plan. Transient errors are retried inside the
//! handle under a bounded [`io::RetryPolicy`]; persistent and
//! disk-full errors surface as typed [`StoreError`]s that the layers
//! above (see `ngl-core::durable`) translate into graceful
//! degradation instead of a panic.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub mod io;

pub use io::{
    classify_io_error, ChaosIo, IoErrorClass, IoHandle, IoStatsSnapshot, RealIo, RetryPolicy,
    Sleeper, StoreIo, STORE_RETRIES_ENV,
};

/// Per-record frame header: `len u32 | tag u8 | checksum u64`.
const FRAME_HEADER: usize = 4 + 1 + 8;
/// Upper bound on a single record payload — a corrupted length field
/// must never trigger a giant allocation.
const MAX_PAYLOAD: usize = 1 << 30;
/// Default segment roll-over size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

const SNAP_MAGIC: &[u8; 4] = b"NGLS";
const SNAP_VERSION: u32 = 1;
/// Snapshot header: magic | version u32 | seq u64 | len u64 | checksum u64.
const SNAP_HEADER: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a 64-bit: the workspace's tiny, dependency-free integrity hash.
/// Guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a over several slices without concatenating them.
fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for &b in *part {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Data on disk is malformed beyond the tolerated torn tail (e.g. a
    /// checksum failure in a non-final segment).
    Corrupt(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Application-level record type.
    pub tag: u8,
    /// Opaque record body.
    pub payload: Vec<u8>,
}

/// Result of scanning one segment's bytes: the valid records, the byte
/// length of the valid prefix, and whether the scan consumed the whole
/// buffer (`false` = a torn or corrupt tail was cut off).
struct SegmentScan {
    records: Vec<Record>,
    valid_len: usize,
    clean: bool,
}

/// Little-endian `u32` at `pos`. Caller has bounds-checked `pos + 4`;
/// the fixed-size copy cannot fail, so no `unwrap` is involved.
fn u32_le_at(data: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[pos..pos + 4]);
    u32::from_le_bytes(b)
}

/// Little-endian `u64` at `pos`. Caller has bounds-checked `pos + 8`.
fn u64_le_at(data: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// Decodes records from `data` until the first incomplete or
/// checksum-invalid frame.
fn scan_segment(data: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if data.len() - pos < FRAME_HEADER {
            return SegmentScan { records, valid_len: pos, clean: pos == data.len() };
        }
        let len = u32_le_at(data, pos) as usize;
        let tag = data[pos + 4];
        let checksum = u64_le_at(data, pos + 5);
        if len > MAX_PAYLOAD || data.len() - pos - FRAME_HEADER < len {
            return SegmentScan { records, valid_len: pos, clean: false };
        }
        let body = pos + FRAME_HEADER;
        let Some(end) = body.checked_add(len) else {
            return SegmentScan { records, valid_len: pos, clean: false };
        };
        let payload = &data[body..end];
        if fnv1a64_parts(&[&[tag], payload]) != checksum {
            return SegmentScan { records, valid_len: pos, clean: false };
        }
        records.push(Record { tag, payload: payload.to_vec() });
        pos = end;
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Lists `(seq, path)` of every WAL segment in `dir`, ascending.
fn list_segments(io: &IoHandle, dir: &Path) -> Result<BTreeMap<u64, PathBuf>, StoreError> {
    let mut out = BTreeMap::new();
    for path in io.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.insert(seq, path);
        }
    }
    Ok(out)
}

/// A segment-based append-only write-ahead log (see the module docs).
pub struct Wal {
    io: IoHandle,
    dir: PathBuf,
    active_seq: u64,
    active_len: u64,
    segment_bytes: u64,
    /// Whether `open` had to cut a torn tail off a segment.
    repaired_tail: bool,
    /// `(seq, valid_len)` of a failed in-process rollback: a commit
    /// left torn bytes on disk and couldn't truncate them. The next
    /// commit (or explicit [`Wal::repair`]) retries the truncation
    /// before writing anything new.
    pending_repair: Option<(u64, u64)>,
}

impl Wal {
    /// Opens (or creates) the log in `dir` with the default segment
    /// roll-over size, repairing a torn tail on the active segment.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        Self::with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Self::open`] with an explicit segment roll-over size.
    pub fn with_segment_bytes<P: AsRef<Path>>(
        dir: P,
        segment_bytes: u64,
    ) -> Result<Self, StoreError> {
        Self::open_with_io(dir, segment_bytes, IoHandle::real())
    }

    /// [`Self::open`] over an explicit IO layer (chaos tests inject
    /// faults here).
    pub fn open_with_io<P: AsRef<Path>>(
        dir: P,
        segment_bytes: u64,
        io: IoHandle,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        let segments = list_segments(&io, &dir)?;
        let active_seq = segments.keys().next_back().copied().unwrap_or(0);
        let mut repaired_tail = false;
        let mut active_len = 0;
        // Repair the tail of the last segment holding data: keep
        // exactly the checksum-valid prefix so future appends continue
        // a readable log. Trailing *empty* segments (leaked by a
        // faulted rotation) are skipped — they hold nothing to repair,
        // and appends resume in the highest-numbered one.
        for (&seq, path) in segments.iter().rev() {
            let data = io.read_file(path)?;
            if data.is_empty() {
                continue;
            }
            let scan = scan_segment(&data);
            if !scan.clean {
                io.set_len(path, scan.valid_len as u64)?;
                io.sync(path)?;
                repaired_tail = true;
            }
            if seq == active_seq {
                active_len = scan.valid_len as u64;
            }
            break;
        }
        if !segments.contains_key(&active_seq) {
            // Fresh log: materialize segment zero so `segments()` and
            // `sync()` see it, matching the pre-IO-layer behaviour.
            io.write_at(&segment_path(&dir, active_seq), 0, &[])?;
        }
        Ok(Self {
            io,
            dir,
            active_seq,
            active_len,
            segment_bytes,
            repaired_tail,
            pending_repair: None,
        })
    }

    /// Whether [`Self::open`] found (and cut off) a torn tail.
    pub fn repaired_tail(&self) -> bool {
        self.repaired_tail
    }

    /// The configured segment roll-over size.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Sequence number of the segment currently receiving appends.
    pub fn active_segment(&self) -> u64 {
        self.active_seq
    }

    /// Retry counters of the underlying IO handle.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.stats()
    }

    /// Sequence numbers of every on-disk segment, ascending.
    pub fn segments(&self) -> Result<Vec<u64>, StoreError> {
        Ok(list_segments(&self.io, &self.dir)?.into_keys().collect())
    }

    /// Total bytes across all on-disk segments.
    pub fn total_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0u64;
        for path in list_segments(&self.io, &self.dir)?.values() {
            total = total.saturating_add(self.io.file_len(path)?);
        }
        Ok(total)
    }

    /// Retries the truncation a failed commit rollback left behind.
    /// Until it succeeds, the segment carries torn bytes past
    /// `active_len` that every new write must land *after* truncating —
    /// otherwise a reader could see garbage spliced between records.
    pub fn repair(&mut self) -> Result<(), StoreError> {
        if let Some((seq, valid_len)) = self.pending_repair {
            let path = segment_path(&self.dir, seq);
            self.io.set_len(&path, valid_len)?;
            self.pending_repair = None;
        }
        Ok(())
    }

    /// Whether a failed rollback is waiting for [`Self::repair`].
    pub fn needs_repair(&self) -> bool {
        self.pending_repair.is_some()
    }

    /// Encodes one record frame. Oversized payloads are a typed error,
    /// not a panic — an ingestion caller sheds the one record and keeps
    /// going (PR 7 degradation ladder).
    fn frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StoreError::Corrupt("record payload over MAX_PAYLOAD"));
        }
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::Corrupt("record payload over MAX_PAYLOAD"))?;
        let mut frame = Vec::with_capacity(FRAME_HEADER.saturating_add(payload.len()));
        frame.extend_from_slice(&len.to_le_bytes());
        frame.push(tag);
        frame.extend_from_slice(&fnv1a64_parts(&[&[tag], payload]).to_le_bytes());
        frame.extend_from_slice(payload);
        Ok(frame)
    }

    /// Appends one record, rolling to a new segment first if the active
    /// one is full. Returns the number of bytes written (frame included).
    ///
    /// The record is **not** durable until [`Self::sync`] succeeds; for
    /// an all-or-nothing durable append use [`Self::commit`].
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<u64, StoreError> {
        self.repair()?;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        let frame = Self::frame(tag, payload)?;
        let path = segment_path(&self.dir, self.active_seq);
        if let Err(e) = self.io.write_at(&path, self.active_len, &frame) {
            self.rollback(self.active_len);
            return Err(e);
        }
        self.active_len = self.active_len.saturating_add(frame.len() as u64);
        Ok(frame.len() as u64)
    }

    /// Durably appends a group of records **all-or-nothing**: every
    /// frame is written and fsynced, or the segment is rolled back to
    /// its pre-commit length and the error returned. After an `Err`,
    /// the log contains no trace of the group (modulo a torn tail that
    /// [`Self::repair`] / the next commit truncates), so a caller may
    /// simply retry the whole group — there is no window in which a
    /// *later* record (e.g. a finalize digest) could become durable
    /// while an *earlier* one (its batch) is not.
    pub fn commit(&mut self, records: &[(u8, &[u8])]) -> Result<u64, StoreError> {
        self.repair()?;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut buf = Vec::new();
        for &(tag, payload) in records {
            buf.extend_from_slice(&Self::frame(tag, payload)?);
        }
        let pre_len = self.active_len;
        let path = segment_path(&self.dir, self.active_seq);
        let result = self.io.write_at(&path, pre_len, &buf).and_then(|()| self.io.sync(&path));
        match result {
            Ok(()) => {
                self.active_len = pre_len.saturating_add(buf.len() as u64);
                Ok(buf.len() as u64)
            }
            Err(e) => {
                self.rollback(pre_len);
                Err(e)
            }
        }
    }

    /// Truncates the active segment back to `pre_len` after a failed
    /// write, arming `pending_repair` if even the truncation fails.
    fn rollback(&mut self, pre_len: u64) {
        let path = segment_path(&self.dir, self.active_seq);
        match self.io.set_len(&path, pre_len) {
            Ok(()) => {
                // Make the truncation itself durable on a best-effort
                // basis; if this sync fails the tail is already gone
                // from the file, and crash recovery would cut any
                // resurrected torn bytes anyway.
                self.io.sync(&path).ok();
            }
            Err(_) => self.pending_repair = Some((self.active_seq, pre_len)),
        }
    }

    /// Flushes appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.io.sync(&segment_path(&self.dir, self.active_seq))
    }

    /// Closes the active segment and starts a fresh one; returns the new
    /// segment's sequence number. Transactional: on failure the log
    /// keeps appending to the current segment and no half-created
    /// segment is left behind.
    pub fn rotate(&mut self) -> Result<u64, StoreError> {
        self.repair()?;
        self.io.sync(&segment_path(&self.dir, self.active_seq))?;
        let next_seq = self.active_seq + 1;
        let next_path = segment_path(&self.dir, next_seq);
        if let Err(e) = self.io.write_at(&next_path, 0, &[]) {
            // A fault may have created the file before failing; remove
            // it so no empty segment leaks ahead of the active one.
            self.io.remove(&next_path).ok();
            return Err(e);
        }
        self.active_seq = next_seq;
        self.active_len = 0;
        Ok(self.active_seq)
    }

    /// Deletes every segment with a sequence number strictly below
    /// `seq` (post-snapshot compaction). Returns how many were removed.
    /// On error some segments may already be gone; retrying is safe
    /// (replaying extra pre-snapshot segments is harmless — recovery
    /// filters records by sequence number).
    pub fn compact_below(&mut self, seq: u64) -> Result<usize, StoreError> {
        let mut removed = 0;
        for (s, path) in list_segments(&self.io, &self.dir)? {
            if s < seq && s != self.active_seq {
                self.io.remove(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Reads every record across all segments in order. A torn or
    /// bit-flipped tail on the **last segment holding data** is
    /// tolerated — the replay stops at the last checksum-valid record
    /// and reports `torn_tail = true`; invalid bytes in any earlier
    /// segment are a hard [`StoreError::Corrupt`]. Trailing empty
    /// segments (leaked by a faulted rotation) are ignored.
    pub fn replay(&self) -> Result<Replay, StoreError> {
        let segments = list_segments(&self.io, &self.dir)?;
        let mut loaded = Vec::with_capacity(segments.len());
        for (seq, path) in &segments {
            loaded.push((*seq, self.io.read_file(path)?));
        }
        let last_nonempty =
            loaded.iter().rev().find(|(_, data)| !data.is_empty()).map(|&(seq, _)| seq);
        let mut records = Vec::new();
        let mut torn_tail = false;
        for (seq, data) in &loaded {
            let scan = scan_segment(data);
            if !scan.clean {
                if Some(*seq) != last_nonempty {
                    return Err(StoreError::Corrupt("invalid record before the final segment"));
                }
                torn_tail = true;
            }
            records.extend(scan.records);
        }
        Ok(Replay { records, torn_tail })
    }
}

/// Everything [`Wal::replay`] recovered.
#[derive(Debug)]
pub struct Replay {
    /// The checksum-valid record prefix, in append order.
    pub records: Vec<Record>,
    /// Whether a torn/corrupt tail was cut off the final segment.
    pub torn_tail: bool,
}

// ---- snapshots --------------------------------------------------------

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:08}.ck"))
}

fn list_snapshots(io: &IoHandle, dir: &Path) -> Result<BTreeMap<u64, PathBuf>, StoreError> {
    let mut out = BTreeMap::new();
    for path in io.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".ck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.insert(seq, path);
        }
    }
    Ok(out)
}

/// Crash-consistent, checksummed full-state snapshots (see module docs).
pub struct SnapshotStore {
    io: IoHandle,
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (or creates) the snapshot directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        Self::open_with_io(dir, IoHandle::real())
    }

    /// [`Self::open`] over an explicit IO layer.
    pub fn open_with_io<P: AsRef<Path>>(dir: P, io: IoHandle) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        Ok(Self { io, dir })
    }

    /// Sequence numbers of every on-disk snapshot, ascending.
    pub fn list(&self) -> Result<Vec<u64>, StoreError> {
        Ok(list_snapshots(&self.io, &self.dir)?.into_keys().collect())
    }

    /// Writes a snapshot atomically: tmp file, fsync, rename. A crash
    /// (or an injected fault) at any point leaves either no
    /// `snap-<seq>` file or a complete one — a failed write removes its
    /// temporary on a best-effort basis and never disturbs previously
    /// published snapshots.
    pub fn write(&self, seq: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let path = snapshot_path(&self.dir, seq);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut bytes = Vec::with_capacity(SNAP_HEADER.saturating_add(payload.len()));
        bytes.extend_from_slice(SNAP_MAGIC);
        bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let write = self
            .io
            .write_file(&tmp, &bytes)
            .and_then(|()| self.io.sync(&tmp))
            .and_then(|()| self.io.rename(&tmp, &path));
        if let Err(e) = write {
            self.io.remove(&tmp).ok();
            return Err(e);
        }
        Ok(bytes.len() as u64)
    }

    /// Parses one snapshot file, verifying magic, version, length and
    /// checksum.
    fn read(&self, path: &Path, expect_seq: u64) -> Result<Vec<u8>, StoreError> {
        let data = self.io.read_file(path)?;
        if data.len() < SNAP_HEADER || &data[0..4] != SNAP_MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic"));
        }
        if u32_le_at(&data, 4) != SNAP_VERSION {
            return Err(StoreError::Corrupt("unsupported snapshot version"));
        }
        if u64_le_at(&data, 8) != expect_seq {
            return Err(StoreError::Corrupt("snapshot seq mismatch"));
        }
        let len = u64_le_at(&data, 16) as usize;
        let checksum = u64_le_at(&data, 24);
        if data.len() - SNAP_HEADER != len {
            return Err(StoreError::Corrupt("snapshot length mismatch"));
        }
        if fnv1a64(&data[SNAP_HEADER..]) != checksum {
            return Err(StoreError::Corrupt("snapshot checksum mismatch"));
        }
        Ok(data[SNAP_HEADER..].to_vec())
    }

    /// The newest snapshot that verifies, as `(seq, payload)` — corrupt
    /// or torn snapshot files are skipped in favour of older ones.
    pub fn latest(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        for (seq, path) in list_snapshots(&self.io, &self.dir)?.into_iter().rev() {
            if let Ok(payload) = self.read(&path, seq) {
                return Ok(Some((seq, payload)));
            }
        }
        Ok(None)
    }

    /// Deletes every snapshot with a sequence number strictly below
    /// `seq`. Callers typically keep the latest two (the newest plus one
    /// fallback). Returns how many were removed; on error some
    /// snapshots may already be gone, and retrying is safe.
    pub fn prune_below(&self, seq: u64) -> Result<usize, StoreError> {
        let mut removed = 0;
        for (s, path) in list_snapshots(&self.io, &self.dir)? {
            if s < seq {
                self.io.remove(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

// ---- spill file -------------------------------------------------------

/// Append-only file with positional, checksummed reads — the backing
/// store for cold-surface spill. Each entry is framed as
/// `len u32 | checksum u64 | payload`; [`SpillFile::read`] verifies the
/// frame before returning the payload, so a bad offset or bit rot
/// surfaces as [`StoreError::Corrupt`] rather than garbage state.
///
/// Spill entries are transient (rebuilt from resident state whenever the
/// process restarts or a snapshot is cut), so the file supports
/// [`SpillFile::reset`] instead of compaction.
///
/// Reads go through a **stamp-LRU page cache** (fixed
/// [`SPILL_PAGE`]-byte pages, byte budget configurable via
/// [`SpillFile::set_page_cache_budget`]): rehydration-heavy workloads
/// re-read neighbouring entries of the same surface working set, and
/// the cache turns those from one `seek` + `read` per CTrie match into
/// memory copies. The cache is a [`SharedPageCache`] — private per
/// file by default, or shared across files (one process-wide byte
/// budget) via [`SpillFile::open_with_cache`]. Append-only writes keep
/// every page below the old EOF immutable; the single partially-filled
/// EOF page is invalidated on [`SpillFile::append`] and all of this
/// file's pages on [`SpillFile::reset`], so a cached read can never be
/// stale. Checksum verification is unchanged — cached bytes still have
/// to match their frame checksum.
pub struct SpillFile {
    io: IoHandle,
    path: PathBuf,
    len: u64,
    cache: SharedPageCache,
    /// This file's key space within `cache` (process-unique).
    file_id: u64,
}

/// Frame header of one spill entry: `len u32 | checksum u64`.
const SPILL_HEADER: usize = 4 + 8;

/// Fixed page size of the [`SpillFile`] read cache.
pub const SPILL_PAGE: usize = 4096;

/// Default [`SpillFile`] page-cache budget in bytes (64 pages).
pub const DEFAULT_SPILL_CACHE_BYTES: usize = 64 * SPILL_PAGE;

/// Env var overriding the byte budget of the process-shared spill
/// page cache ([`SharedPageCache::global`]; `0` disables caching).
/// Read once, at first use of the global cache.
pub const SPILL_CACHE_ENV: &str = "NGL_SPILL_CACHE_BYTES";

/// Uniquely identifies one [`SpillFile`] within every cache it may
/// share pages with — process-wide, never reused.
static NEXT_SPILL_FILE_ID: AtomicU64 = AtomicU64::new(0);

static GLOBAL_PAGE_CACHE: OnceLock<SharedPageCache> = OnceLock::new();

/// LRU page cache shareable between [`SpillFile`]s. Pages are keyed
/// `(file id, page index)` and arbitrate **one** byte budget with a
/// monotone recency stamp per page (stamp-LRU): on overflow the
/// coldest page across *all* participating files is evicted first, so
/// a hot file naturally displaces an idle one. Eviction scans for the
/// minimum stamp — the page count is small (budget / 4 KiB), so the
/// scan is cheap and keeps the structure dependency-free.
///
/// Cloning shares the cache (it is an `Arc` internally). Each
/// [`SpillFile`] defaults to a private cache;
/// [`SpillFile::open_with_cache`] opts into sharing, and
/// [`SharedPageCache::global`] is the process-wide instance whose
/// budget [`SPILL_CACHE_ENV`] configures.
#[derive(Clone)]
pub struct SharedPageCache {
    inner: Arc<Mutex<PageCacheInner>>,
}

struct PageCacheInner {
    budget: usize,
    pages: BTreeMap<(u64, u64), (Vec<u8>, u64)>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SharedPageCache {
    /// A fresh, unshared cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(PageCacheInner {
                budget,
                pages: BTreeMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
            })),
        }
    }

    /// The process-shared cache: one byte budget arbitrated across
    /// every spill file opened against it. The budget comes from
    /// [`SPILL_CACHE_ENV`] (read once, `0` disables caching),
    /// defaulting to [`DEFAULT_SPILL_CACHE_BYTES`].
    pub fn global() -> SharedPageCache {
        GLOBAL_PAGE_CACHE
            .get_or_init(|| {
                let budget = std::env::var(SPILL_CACHE_ENV)
                    .ok()
                    .and_then(|raw| raw.trim().parse::<usize>().ok())
                    .unwrap_or(DEFAULT_SPILL_CACHE_BYTES);
                SharedPageCache::new(budget)
            })
            .clone()
    }

    /// A poisoned mutex only means another thread panicked mid-update;
    /// the cache degrades to possibly-stale *accounting* (never stale
    /// bytes — pages are immutable below EOF), so recover the guard
    /// rather than propagate the panic.
    fn lock(&self) -> MutexGuard<'_, PageCacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Sets the byte budget (shared across all participating files).
    /// `0` disables caching and drops every page; shrinking evicts
    /// down to the new budget immediately.
    pub fn set_budget(&self, bytes: usize) {
        let mut inner = self.lock();
        inner.budget = bytes;
        if bytes == 0 {
            inner.pages.clear();
            inner.bytes = 0;
        } else {
            inner.evict_to_budget(None);
        }
    }

    /// The current byte budget.
    pub fn budget(&self) -> usize {
        self.lock().budget
    }

    /// Cumulative `(hits, misses)` across every participating file.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Bytes currently held by cached pages (all files).
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Copies `take` bytes at `within` from the cached page into
    /// `out`, stamping recency. `Ok(false)` = miss (not yet counted —
    /// [`Self::insert_and_copy`] counts it when the load lands).
    fn copy_span(
        &self,
        file_id: u64,
        page_ix: u64,
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<bool, StoreError> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.pages.get_mut(&(file_id, page_ix)) {
            Some((page, stamp)) => {
                *stamp = clock;
                if within.saturating_add(take) > page.len() {
                    return Err(StoreError::Corrupt("spill read past end of file"));
                }
                out.extend_from_slice(&page[within..within + take]);
                inner.hits += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Caches a freshly loaded page (counting the miss), copies
    /// `take` bytes at `within` out of it, then evicts
    /// least-recently-used pages down to the byte budget (the new page
    /// itself always stays).
    fn insert_and_copy(
        &self,
        file_id: u64,
        page_ix: u64,
        page: Vec<u8>,
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        if within.saturating_add(take) > page.len() {
            return Err(StoreError::Corrupt("spill read past end of file"));
        }
        out.extend_from_slice(&page[within..within + take]);
        let mut inner = self.lock();
        inner.misses += 1;
        inner.clock += 1;
        let clock = inner.clock;
        inner.bytes = inner.bytes.saturating_add(page.len());
        if let Some((old, _)) = inner.pages.insert((file_id, page_ix), (page, clock)) {
            // Another handle raced the same page in; keep accounting
            // exact rather than leaking the replaced copy's bytes.
            inner.bytes = inner.bytes.saturating_sub(old.len());
        }
        inner.evict_to_budget(Some((file_id, page_ix)));
        Ok(())
    }

    /// Drops every page of `file_id` with index ≥ `from_page` — the
    /// append-path invalidation for the partially filled EOF page.
    fn invalidate_from(&self, file_id: u64, from_page: u64) {
        let mut inner = self.lock();
        let stale: Vec<(u64, u64)> = inner
            .pages
            .range((file_id, from_page)..=(file_id, u64::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in stale {
            if let Some((page, _)) = inner.pages.remove(&k) {
                inner.bytes -= page.len();
            }
        }
    }

    /// Drops every page of `file_id` (reset path). Other files' pages
    /// are untouched.
    fn clear_file(&self, file_id: u64) {
        self.invalidate_from(file_id, 0);
    }
}

impl PageCacheInner {
    /// Evicts minimum-stamp pages until `bytes <= budget`, never
    /// evicting `keep` (the page an in-flight read still needs).
    fn evict_to_budget(&mut self, keep: Option<(u64, u64)>) {
        while self.bytes > self.budget && self.pages.len() > 1 {
            // An empty scan is impossible while `len() > 1`, but a
            // bookkeeping bug here must degrade to an over-budget cache
            // rather than abort ingestion.
            let Some(oldest) =
                self.pages.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(&k, _)| k)
            else {
                break;
            };
            if Some(oldest) == keep {
                break;
            }
            if let Some((page, _)) = self.pages.remove(&oldest) {
                self.bytes -= page.len();
            }
        }
    }
}

impl SpillFile {
    /// Opens (or creates) the spill file at `path`, truncating any
    /// previous contents — spilled entries never outlive the process
    /// that wrote them.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::open_with_io(path, IoHandle::real())
    }

    /// [`Self::open`] over an explicit IO layer, with a private cache.
    pub fn open_with_io<P: AsRef<Path>>(path: P, io: IoHandle) -> Result<Self, StoreError> {
        Self::open_with_cache(path, io, SharedPageCache::new(DEFAULT_SPILL_CACHE_BYTES))
    }

    /// [`Self::open_with_io`] reading through an explicit (possibly
    /// shared) page cache — pass [`SharedPageCache::global`] to join
    /// the process-wide budget.
    pub fn open_with_cache<P: AsRef<Path>>(
        path: P,
        io: IoHandle,
        cache: SharedPageCache,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            io.create_dir_all(parent)?;
        }
        io.write_file(&path, &[])?;
        let file_id = NEXT_SPILL_FILE_ID.fetch_add(1, Ordering::Relaxed);
        Ok(Self { io, path, len: 0, cache, file_id })
    }

    /// Sets the page-cache byte budget. A budget of `0` disables the
    /// cache entirely — every read goes straight to the file, exactly
    /// the pre-cache behaviour. Shrinking the budget evicts down to it
    /// immediately. With a shared cache this adjusts the *shared*
    /// budget — every participating file sees the change.
    pub fn set_page_cache_budget(&mut self, bytes: usize) {
        self.cache.set_budget(bytes);
    }

    /// `(hits, misses)` of the page cache — cache-wide totals when the
    /// cache is shared.
    pub fn page_cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Bytes currently held by cached pages — cache-wide when shared.
    pub fn page_cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    /// Bytes currently in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one entry, returning the offset to read it back from.
    /// On error the logical length is unchanged: a retry rewrites the
    /// same offset, overwriting any torn bytes a failed attempt left.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|_| payload.len() <= MAX_PAYLOAD)
            .ok_or(StoreError::Corrupt("spill payload over MAX_PAYLOAD"))?;
        let offset = self.len;
        let mut frame = Vec::with_capacity(SPILL_HEADER.saturating_add(payload.len()));
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let result = self.io.write_at(&self.path, offset, &frame);
        // Every page strictly below the old EOF is immutable in an
        // append-only file; only the partially filled EOF page (if any)
        // now holds different bytes than a cached copy would. Even a
        // *failed* write may have deposited a torn prefix there, so
        // invalidate unconditionally.
        self.cache.invalidate_from(self.file_id, offset / SPILL_PAGE as u64);
        result?;
        self.len = self.len.saturating_add(frame.len() as u64);
        Ok(offset)
    }

    /// Reads back the entry appended at `offset`, verifying its frame.
    pub fn read(&mut self, offset: u64) -> Result<Vec<u8>, StoreError> {
        let head_end = offset.saturating_add(SPILL_HEADER as u64);
        if head_end > self.len {
            return Err(StoreError::Corrupt("spill offset out of range"));
        }
        let header = self.read_span(offset, SPILL_HEADER)?;
        let len = u32_le_at(&header, 0) as usize;
        let checksum = u64_le_at(&header, 4);
        if len > MAX_PAYLOAD || head_end.saturating_add(len as u64) > self.len {
            return Err(StoreError::Corrupt("spill entry length out of range"));
        }
        let payload = self.read_span(head_end, len)?;
        if fnv1a64(&payload) != checksum {
            return Err(StoreError::Corrupt("spill entry checksum mismatch"));
        }
        Ok(payload)
    }

    /// Reads `len` bytes starting at `offset`, assembling the span from
    /// cached pages (loading misses from disk). With a zero budget this
    /// degenerates to a single positional read.
    fn read_span(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        if self.cache.budget() == 0 {
            return self.io.read_at(&self.path, offset, len);
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let Some(end) = offset.checked_add(len as u64) else {
            return Err(StoreError::Corrupt("spill span overflows the offset space"));
        };
        while pos < end {
            let page_ix = pos / SPILL_PAGE as u64;
            let within = (pos % SPILL_PAGE as u64) as usize;
            let take = ((end - pos) as usize).min(SPILL_PAGE - within);
            if !self.cache.copy_span(self.file_id, page_ix, within, take, &mut out)? {
                let page = self.load_page(page_ix)?;
                self.cache.insert_and_copy(self.file_id, page_ix, page, within, take, &mut out)?;
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// Loads one page from disk. The final page of the file is short —
    /// its length is whatever remains before the current EOF.
    fn load_page(&mut self, page_ix: u64) -> Result<Vec<u8>, StoreError> {
        let start = page_ix * SPILL_PAGE as u64;
        if start >= self.len {
            return Err(StoreError::Corrupt("spill page out of range"));
        }
        let len = (SPILL_PAGE as u64).min(self.len - start) as usize;
        self.io.read_at(&self.path, start, len)
    }

    /// Discards all entries (used when every spilled surface has been
    /// rehydrated, e.g. before a snapshot or a CTrie-rebuild). Cached
    /// pages are dropped even when the truncation fails — stale reads
    /// are never served.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.cache.clear_file(self.file_id);
        self.io.set_len(&self.path, 0)?;
        self.len = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ngl-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads() -> Vec<(u8, Vec<u8>)> {
        vec![
            (1, b"first".to_vec()),
            (2, vec![]),
            (1, vec![0xAB; 300]),
            (3, b"tail record".to_vec()),
        ]
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(&dir).unwrap();
        for (tag, p) in payloads() {
            wal.append(tag, &p).unwrap();
        }
        wal.sync().unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.records,
            payloads()
                .into_iter()
                .map(|(tag, payload)| Record { tag, payload })
                .collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_yields_the_valid_prefix() {
        let dir = tmpdir("truncate");
        let mut wal = Wal::open(&dir).unwrap();
        let mut ends = Vec::new(); // byte offset after each record
        let mut total = 0u64;
        for (tag, p) in payloads() {
            total += wal.append(tag, &p).unwrap();
            ends.push(total);
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 0);
        let full = std::fs::read(&seg).unwrap();
        assert_eq!(full.len() as u64, total);
        for cut in 0..=full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            let wal = Wal::open(&dir).unwrap();
            let replay = wal.replay().unwrap();
            assert_eq!(replay.records.len(), expect, "cut at {cut}");
            assert!(!replay.torn_tail, "open() must have repaired the tail (cut {cut})");
            let at_boundary = cut == 0 || ends.contains(&(cut as u64));
            assert_eq!(wal.repaired_tail(), !at_boundary, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_final_record_is_cut_off() {
        let dir = tmpdir("bitflip");
        let mut wal = Wal::open(&dir).unwrap();
        let mut last_start = 0;
        for (tag, p) in payloads() {
            last_start = std::fs::metadata(segment_path(&dir, 0)).map(|m| m.len()).unwrap_or(0);
            wal.append(tag, &p).unwrap();
            wal.sync().unwrap();
        }
        drop(wal);
        let seg = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let flip = last_start as usize + FRAME_HEADER; // first payload byte of last record
        data[flip] ^= 0x01;
        std::fs::write(&seg, &data).unwrap();
        let wal = Wal::open(&dir).unwrap();
        assert!(wal.repaired_tail());
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), payloads().len() - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_tail_repair_stay_readable() {
        let dir = tmpdir("repair-append");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(1, b"keep").unwrap();
        wal.append(2, b"gone").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 0);
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 2]).unwrap(); // tear the tail
        let mut wal = Wal::open(&dir).unwrap();
        assert!(wal.repaired_tail());
        wal.append(3, b"after repair").unwrap();
        wal.sync().unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].payload, b"after repair");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_compaction() {
        let dir = tmpdir("rotate");
        // Tiny segments so appends roll over naturally.
        let mut wal = Wal::with_segment_bytes(&dir, 64).unwrap();
        for i in 0..10u8 {
            wal.append(i, &[i; 40]).unwrap();
        }
        wal.sync().unwrap();
        let segments = wal.segments().unwrap();
        assert!(segments.len() > 1, "tiny segments must have rotated: {segments:?}");
        assert_eq!(wal.replay().unwrap().records.len(), 10);
        // Compact below the active segment: only it survives.
        let active = wal.active_segment();
        let removed = wal.compact_below(active).unwrap();
        assert_eq!(removed, segments.len() - 1);
        assert_eq!(wal.segments().unwrap(), vec![active]);
        // Replay now only sees records in the surviving segment.
        assert!(wal.replay().unwrap().records.len() < 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_rotate_then_corrupt_middle_segment_is_a_hard_error() {
        let dir = tmpdir("corrupt-middle");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(1, b"segment zero").unwrap();
        wal.rotate().unwrap();
        wal.append(2, b"segment one").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip a byte in the *first* segment: not a tolerated torn tail.
        let seg0 = segment_path(&dir, 0);
        let mut data = std::fs::read(&seg0).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&seg0, &data).unwrap();
        let wal = Wal::open(&dir).unwrap();
        assert!(matches!(wal.replay(), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_fall_back_to_the_newest_valid_one() {
        let dir = tmpdir("snap");
        let snaps = SnapshotStore::open(&dir).unwrap();
        assert!(snaps.latest().unwrap().is_none());
        snaps.write(3, b"state at 3").unwrap();
        snaps.write(7, b"state at 7").unwrap();
        assert_eq!(snaps.latest().unwrap(), Some((7, b"state at 7".to_vec())));
        // Corrupt the newest: latest() falls back to seq 3.
        let p7 = snapshot_path(&dir, 7);
        let mut data = std::fs::read(&p7).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x10;
        std::fs::write(&p7, &data).unwrap();
        assert_eq!(snaps.latest().unwrap(), Some((3, b"state at 3".to_vec())));
        // Truncated newest is also skipped.
        std::fs::write(&p7, &data[..10]).unwrap();
        assert_eq!(snaps.latest().unwrap(), Some((3, b"state at 3".to_vec())));
        assert_eq!(snaps.prune_below(7).unwrap(), 1);
        assert_eq!(snaps.list().unwrap(), vec![7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_write_is_atomic_no_tmp_left_behind() {
        let dir = tmpdir("snap-atomic");
        let snaps = SnapshotStore::open(&dir).unwrap();
        snaps.write(1, &[0x55; 1000]).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        assert_eq!(snaps.latest().unwrap().unwrap().1, vec![0x55; 1000]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_round_trips_and_detects_rot() {
        let dir = tmpdir("spill");
        let path = dir.join("spill.dat");
        let mut spill = SpillFile::open(&path).unwrap();
        assert!(spill.is_empty());
        let a = spill.append(b"cold surface A").unwrap();
        let b = spill.append(&[0x77; 500]).unwrap();
        assert_eq!(spill.read(a).unwrap(), b"cold surface A");
        assert_eq!(spill.read(b).unwrap(), vec![0x77; 500]);
        // Reads are positional — order doesn't matter, repeats are fine.
        assert_eq!(spill.read(a).unwrap(), b"cold surface A");
        // A bogus offset is a typed error, not garbage.
        assert!(matches!(spill.read(a + 1), Err(StoreError::Corrupt(_))));
        assert!(matches!(spill.read(1 << 40), Err(StoreError::Corrupt(_))));
        spill.reset().unwrap();
        assert!(spill.is_empty());
        assert!(spill.read(a).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_page_cache_serves_repeat_reads_from_memory() {
        let dir = tmpdir("spill-cache-hits");
        let mut spill = SpillFile::open(dir.join("spill.dat")).unwrap();
        let a = spill.append(&[0x11; 64]).unwrap();
        let b = spill.append(&[0x22; 64]).unwrap();
        assert_eq!(spill.read(a).unwrap(), vec![0x11; 64]);
        let (_, misses_after_first) = spill.page_cache_stats();
        assert!(misses_after_first >= 1, "first read must load the page");
        // Both entries live on the same 4 KiB page: every subsequent
        // read is a pure cache hit.
        for _ in 0..5 {
            assert_eq!(spill.read(b).unwrap(), vec![0x22; 64]);
            assert_eq!(spill.read(a).unwrap(), vec![0x11; 64]);
        }
        let (hits, misses) = spill.page_cache_stats();
        assert_eq!(misses, misses_after_first, "repeat reads must not touch disk");
        assert!(hits >= 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_append_invalidates_the_partial_tail_page() {
        let dir = tmpdir("spill-cache-tail");
        let mut spill = SpillFile::open(dir.join("spill.dat")).unwrap();
        let a = spill.append(&[0xAA; 40]).unwrap();
        // Cache the (short, partial) tail page...
        assert_eq!(spill.read(a).unwrap(), vec![0xAA; 40]);
        // ...then grow the file: the entry landing on that same page
        // must be readable, i.e. the stale cached copy was dropped.
        let b = spill.append(&[0xBB; 40]).unwrap();
        assert_eq!(spill.read(b).unwrap(), vec![0xBB; 40]);
        assert_eq!(spill.read(a).unwrap(), vec![0xAA; 40]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_page_cache_respects_its_byte_budget() {
        let dir = tmpdir("spill-cache-budget");
        let mut spill = SpillFile::open(dir.join("spill.dat")).unwrap();
        spill.set_page_cache_budget(2 * SPILL_PAGE);
        let offsets: Vec<u64> =
            (0..8).map(|i| spill.append(&vec![i as u8; SPILL_PAGE]).unwrap()).collect();
        for &off in &offsets {
            spill.read(off).unwrap();
            assert!(
                spill.page_cache_resident_bytes() <= 2 * SPILL_PAGE + SPILL_PAGE,
                "resident {} exceeded budget + one in-flight page",
                spill.page_cache_resident_bytes()
            );
        }
        // Shrinking the budget evicts immediately; zero disables caching.
        spill.set_page_cache_budget(0);
        assert_eq!(spill.page_cache_resident_bytes(), 0);
        let (_, misses_before) = spill.page_cache_stats();
        for (i, &off) in offsets.iter().enumerate() {
            assert_eq!(spill.read(off).unwrap(), vec![i as u8; SPILL_PAGE]);
        }
        let (_, misses_after) = spill.page_cache_stats();
        assert_eq!(misses_before, misses_after, "budget 0 must bypass the cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_reset_clears_cached_pages() {
        let dir = tmpdir("spill-cache-reset");
        let mut spill = SpillFile::open(dir.join("spill.dat")).unwrap();
        let a = spill.append(&[0xCC; 100]).unwrap();
        assert_eq!(spill.read(a).unwrap(), vec![0xCC; 100]);
        assert!(spill.page_cache_resident_bytes() > 0);
        spill.reset().unwrap();
        assert_eq!(spill.page_cache_resident_bytes(), 0);
        // New contents after reset are served correctly (no stale page).
        let b = spill.append(&[0xDD; 100]).unwrap();
        assert_eq!(spill.read(b).unwrap(), vec![0xDD; 100]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_cache_arbitrates_one_budget_across_files() {
        let dir = tmpdir("spill-cache-shared");
        let cache = SharedPageCache::new(2 * SPILL_PAGE);
        let mut a =
            SpillFile::open_with_cache(dir.join("a.dat"), IoHandle::real(), cache.clone()).unwrap();
        let mut b =
            SpillFile::open_with_cache(dir.join("b.dat"), IoHandle::real(), cache.clone()).unwrap();
        let offs_a: Vec<u64> =
            (0..4).map(|i| a.append(&vec![0x10 + i as u8; SPILL_PAGE]).unwrap()).collect();
        let offs_b: Vec<u64> =
            (0..4).map(|i| b.append(&vec![0x20 + i as u8; SPILL_PAGE]).unwrap()).collect();
        for (&oa, &ob) in offs_a.iter().zip(&offs_b) {
            a.read(oa).unwrap();
            b.read(ob).unwrap();
            // One budget across both files: resident bytes never exceed
            // the shared cap plus one in-flight page.
            assert!(
                cache.resident_bytes() <= 2 * SPILL_PAGE + SPILL_PAGE,
                "shared resident {} exceeded the shared budget",
                cache.resident_bytes()
            );
        }
        // Per-file views report the shared totals.
        assert_eq!(a.page_cache_stats(), cache.stats());
        assert_eq!(b.page_cache_stats(), cache.stats());
        let (_, misses) = cache.stats();
        assert!(misses >= 8, "every page load is a shared-cache miss");

        // Resetting one file must not drop the other file's pages.
        let before = cache.resident_bytes();
        assert!(before > 0);
        a.reset().unwrap();
        let (_, misses_before) = cache.stats();
        assert_eq!(b.read(offs_b[3]).unwrap(), vec![0x23; SPILL_PAGE]);
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_before, misses_after, "b's hot page must survive a's reset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_cache_keeps_the_hot_file_resident() {
        let dir = tmpdir("spill-cache-hot");
        let cache = SharedPageCache::new(2 * SPILL_PAGE);
        let mut hot =
            SpillFile::open_with_cache(dir.join("hot.dat"), IoHandle::real(), cache.clone())
                .unwrap();
        let mut cold =
            SpillFile::open_with_cache(dir.join("cold.dat"), IoHandle::real(), cache.clone())
                .unwrap();
        let h = hot.append(&[0xAB; 64]).unwrap();
        hot.read(h).unwrap();
        // Stream uncached pages through the cold file while touching
        // the hot file's page between loads: stamp-LRU keeps the
        // recently-stamped hot page resident and evicts cold's older
        // pages instead, even though cold is the bigger file.
        for i in 0..6 {
            let off = cold.append(&vec![i as u8; SPILL_PAGE]).unwrap();
            cold.read(off).unwrap();
            hot.read(h).unwrap();
        }
        assert!(
            cache.resident_bytes() <= 2 * SPILL_PAGE + SPILL_PAGE,
            "cold streaming must stay inside the shared budget"
        );
        let (_, misses_before) = cache.stats();
        hot.read(h).unwrap();
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_after, misses_before, "the hot page must still be cached");
        std::fs::remove_dir_all(&dir).ok();
    }
}
