//! # ngl-store
//!
//! The durable-state substrate of the NER Globalizer: a **segment-based
//! append-only write-ahead log** ([`Wal`]) and a **crash-consistent
//! snapshot store** ([`SnapshotStore`]). Deliberately dependency-free —
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
//! The log is a directory of numbered segment files (`wal-NNNNNNNN.log`;
//! other logs share a directory under their own file-name prefix, see
//! [`Wal::resume`]).
//! Appends go to the highest-numbered (active) segment and roll over to
//! a fresh segment once [`Wal::segment_bytes`] is exceeded or
//! [`Wal::rotate`] is called explicitly. After a snapshot has captured
//! all state up to a point, [`Wal::compact_below`] deletes the segments
//! that precede it — the delta log stays proportional to the stream
//! since the last snapshot, not to the stream's lifetime.
//!
//! [`read_log`] hands a caller every valid record borrowed from its
//! segment's buffer, with its position, so a log of large immutable
//! records decodes without a per-record copy and can be cut at any
//! record boundary ([`Wal::resume`]).
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
//! Both components perform disk IO through the [`io::StoreIo`]
//! layer (shared as a cloneable [`IoHandle`]): production uses the
//! passthrough [`io::RealIo`], chaos tests swap in [`io::ChaosIo`]
//! with a seeded fault plan. Transient errors are retried inside the
//! handle under a bounded [`io::RetryPolicy`]; persistent and
//! disk-full errors surface as typed [`StoreError`]s that the layers
//! above (see `ngl-core::durable`) translate into graceful
//! degradation instead of a panic.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

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
/// File-name prefix of write-ahead log segments.
pub const WAL_PREFIX: &str = "wal-";
/// File-name prefix of tweet-log segments (the append-only log of
/// immutable tweet records that snapshots reference).
pub const TWEET_LOG_PREFIX: &str = "tweets-";

const SNAP_MAGIC: &[u8; 4] = b"NGLS";
const SNAP_VERSION: u32 = 1;
/// Snapshot header: magic | version u32 | seq u64 | len u64 | checksum u64.
const SNAP_HEADER: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a 64-bit: the workspace's tiny, dependency-free integrity hash.
/// Guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(data);
    h.finish()
}

/// [`fnv1a64`] fed in pieces: hashing the concatenation of the slices
/// passed to [`Self::update`] without building it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of the empty input.
    #[inline]
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Appends `data` to the hashed input.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything appended so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The frame checksum of a record: FNV-1a over its tag byte and
/// payload (what [`RecordRef::checksum`] reports).
pub fn record_checksum(tag: u8, payload: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&[tag]);
    h.update(payload);
    h.finish()
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

/// A record boundary in a segmented log: a segment and a byte offset
/// in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LogPos {
    /// Segment sequence number.
    pub segment: u64,
    /// Byte offset within the segment.
    pub offset: u64,
}

/// One valid record as [`read_log`] hands it out, borrowed from the
/// segment's buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Application-level record type.
    pub tag: u8,
    /// Record body.
    pub payload: &'a [u8],
    /// The frame checksum, `fnv1a64(tag ++ payload)`.
    pub checksum: u64,
    /// Where the frame starts.
    pub start: LogPos,
}

/// Where [`read_log`] stopped.
#[derive(Debug, Clone, Copy)]
pub struct LogScan {
    /// Just past the last valid record (the start of the lowest segment
    /// when the log holds none).
    pub end: LogPos,
    /// Whether a torn/corrupt tail follows `end`.
    pub torn_tail: bool,
}

/// Result of scanning one segment's bytes: the byte length of the
/// valid prefix, whether the scan consumed the whole buffer (`false` =
/// a torn or corrupt tail was cut off), and whether the visitor stopped
/// it (`valid_len` is then the start of the record it stopped at).
struct SegmentScan {
    valid_len: usize,
    clean: bool,
    stopped: bool,
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

/// Walks the frames of `data` up to the first incomplete or
/// checksum-invalid one, handing each valid frame to `visit` as
/// `(tag, payload, checksum, start offset)`, until `visit` breaks.
fn scan_segment<E>(
    data: &[u8],
    mut visit: impl FnMut(u8, &[u8], u64, usize) -> Result<ControlFlow<()>, E>,
) -> Result<SegmentScan, E> {
    let mut pos = 0usize;
    let torn = |pos| Ok(SegmentScan { valid_len: pos, clean: false, stopped: false });
    loop {
        if data.len() - pos < FRAME_HEADER {
            return Ok(SegmentScan { valid_len: pos, clean: pos == data.len(), stopped: false });
        }
        let len = u32_le_at(data, pos) as usize;
        let tag = data[pos + 4];
        let checksum = u64_le_at(data, pos + 5);
        if len > MAX_PAYLOAD || data.len() - pos - FRAME_HEADER < len {
            return torn(pos);
        }
        let body = pos + FRAME_HEADER;
        let Some(end) = body.checked_add(len) else {
            return torn(pos);
        };
        let payload = &data[body..end];
        if record_checksum(tag, payload) != checksum {
            return torn(pos);
        }
        if visit(tag, payload, checksum, pos)?.is_break() {
            return Ok(SegmentScan { valid_len: pos, clean: true, stopped: true });
        }
        pos = end;
    }
}

fn segment_path(dir: &Path, prefix: &str, seq: u64) -> PathBuf {
    dir.join(format!("{prefix}{seq:08}.log"))
}

/// Lists `(seq, path)` of every segment of the log named `prefix` in
/// `dir`, ascending.
fn list_segments(
    io: &IoHandle,
    dir: &Path,
    prefix: &str,
) -> Result<BTreeMap<u64, PathBuf>, StoreError> {
    let mut out = BTreeMap::new();
    for path in io.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(seq) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.insert(seq, path);
        }
    }
    Ok(out)
}

/// Reads the log named `prefix` in `dir` one segment at a time and
/// hands every checksum-valid record to `visit`, borrowed from the
/// segment's buffer. A torn or bit-flipped tail on the last segment
/// holding data ends the scan (`torn_tail`); invalid bytes in any
/// earlier segment are a hard [`StoreError::Corrupt`]. Empty segments
/// (leaked by a faulted rotation) are skipped. When `visit` breaks, the
/// scan ends before that record: `end` is its start, and no later
/// segment is read or checked. Nothing is modified: pair with
/// [`Wal::resume`] to cut the log at a chosen boundary.
pub fn read_log<E: From<StoreError>>(
    io: &IoHandle,
    dir: &Path,
    prefix: &str,
    mut visit: impl FnMut(RecordRef<'_>) -> Result<ControlFlow<()>, E>,
) -> Result<LogScan, E> {
    let segments = list_segments(io, dir, prefix)?;
    let first = segments.keys().next().copied().unwrap_or(0);
    let mut scan = LogScan { end: LogPos { segment: first, offset: 0 }, torn_tail: false };
    for (&segment, path) in &segments {
        let data = io.read_file(path)?;
        if data.is_empty() {
            continue;
        }
        if scan.torn_tail {
            return Err(StoreError::Corrupt("invalid record before the final segment").into());
        }
        let seg = scan_segment(&data, |tag, payload, checksum, start| {
            let start = LogPos { segment, offset: start as u64 };
            visit(RecordRef { tag, payload, checksum, start })
        })?;
        scan = LogScan {
            end: LogPos { segment, offset: seg.valid_len as u64 },
            torn_tail: !seg.clean,
        };
        if seg.stopped {
            break;
        }
    }
    Ok(scan)
}

/// A group of records framed into one write buffer, for
/// [`Wal::commit_frames`]. Each payload is encoded straight into the
/// buffer and hashed once, and [`Self::push_with`] hands back the frame
/// checksum, so a log that chains each record's checksum into the next
/// record needs no second pass over the payload.
#[derive(Debug, Default)]
pub struct Frames {
    buf: Vec<u8>,
}

impl Frames {
    /// Frames one record whose payload `encode` appends to the buffer it
    /// is given, and returns its frame checksum. An oversized payload is
    /// a typed error, not a panic (an ingestion caller sheds the one
    /// record and keeps going), and leaves the group as it was.
    pub fn push_with(
        &mut self,
        tag: u8,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, StoreError> {
        let start = self.buf.len();
        let body = start.saturating_add(FRAME_HEADER);
        self.buf.resize(body, 0);
        encode(&mut self.buf);
        let payload = &self.buf[body..];
        let size = match u32::try_from(payload.len()) {
            Ok(size) if payload.len() <= MAX_PAYLOAD => size,
            _ => {
                self.buf.truncate(start);
                return Err(StoreError::Corrupt("record payload over MAX_PAYLOAD"));
            }
        };
        let checksum = record_checksum(tag, payload);
        let header = &mut self.buf[start..body];
        header[..4].copy_from_slice(&size.to_le_bytes());
        header[4] = tag;
        header[5..].copy_from_slice(&checksum.to_le_bytes());
        Ok(checksum)
    }

    /// [`Self::push_with`] of a payload encoded beforehand.
    pub fn push(&mut self, tag: u8, payload: &[u8]) -> Result<u64, StoreError> {
        self.push_with(tag, |buf| buf.extend_from_slice(payload))
    }

    /// Whether no record was framed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A segment-based append-only write-ahead log (see the module docs).
pub struct Wal {
    io: IoHandle,
    dir: PathBuf,
    /// Segment file-name prefix ([`WAL_PREFIX`] unless opened by
    /// [`Wal::resume`]).
    prefix: &'static str,
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
        let segments = list_segments(&io, &dir, WAL_PREFIX)?;
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
            let scan =
                scan_segment(&data, |_, _, _, _| Ok::<_, StoreError>(ControlFlow::Continue(())))?;
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
            io.write_at(&segment_path(&dir, WAL_PREFIX, active_seq), 0, &[])?;
        }
        Ok(Self {
            io,
            dir,
            prefix: WAL_PREFIX,
            active_seq,
            active_len,
            segment_bytes,
            repaired_tail,
            pending_repair: None,
        })
    }

    /// Opens the log named `prefix` in `dir` with its end at `end`, a
    /// record boundary a [`read_log`] pass over the same log returned:
    /// segments after `end.segment` are removed, newest first, and
    /// `end.segment` is cut to `end.offset`. Reads nothing, so the
    /// caller's pass is the only one over the data.
    pub fn resume<P: AsRef<Path>>(
        dir: P,
        prefix: &'static str,
        segment_bytes: u64,
        io: IoHandle,
        end: LogPos,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        let segments = list_segments(&io, &dir, prefix)?;
        for path in segments.range(end.segment.saturating_add(1)..).map(|(_, p)| p).rev() {
            io.remove(path)?;
        }
        let path = segment_path(&dir, prefix, end.segment);
        let mut cut = false;
        if !segments.contains_key(&end.segment) {
            io.write_at(&path, 0, &[])?;
        } else if io.file_len(&path)? != end.offset {
            io.set_len(&path, end.offset)?;
            io.sync(&path)?;
            cut = true;
        }
        Ok(Self {
            io,
            dir,
            prefix,
            active_seq: end.segment,
            active_len: end.offset,
            segment_bytes,
            repaired_tail: cut,
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

    /// Bytes in the active segment.
    pub fn active_len(&self) -> u64 {
        self.active_len
    }

    /// Retry counters of the underlying IO handle.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.stats()
    }

    /// Sequence numbers of every on-disk segment, ascending.
    #[cfg(test)]
    pub fn segments(&self) -> Result<Vec<u64>, StoreError> {
        Ok(list_segments(&self.io, &self.dir, self.prefix)?.into_keys().collect())
    }

    /// Retries the truncation a failed commit rollback left behind.
    /// Until it succeeds, the segment carries torn bytes past
    /// `active_len` that every new write must land *after* truncating —
    /// otherwise a reader could see garbage spliced between records.
    pub fn repair(&mut self) -> Result<(), StoreError> {
        if let Some((seq, valid_len)) = self.pending_repair {
            let path = segment_path(&self.dir, self.prefix, seq);
            self.io.set_len(&path, valid_len)?;
            self.pending_repair = None;
        }
        Ok(())
    }

    /// Appends one record, rolling to a new segment first if the active
    /// one is full. Returns the number of bytes written (frame included).
    ///
    /// The record is **not** durable until [`Self::sync`] succeeds; for
    /// an all-or-nothing durable append use [`Self::commit`].
    #[cfg(test)]
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<u64, StoreError> {
        let mut frames = Frames::default();
        frames.push(tag, payload)?;
        let frame = frames.buf;
        self.repair()?;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        let path = segment_path(&self.dir, self.prefix, self.active_seq);
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
        let size = records
            .iter()
            .fold(0usize, |n, (_, p)| n.saturating_add(FRAME_HEADER).saturating_add(p.len()));
        let mut frames = Frames { buf: Vec::with_capacity(size) };
        for &(tag, payload) in records {
            frames.push(tag, payload)?;
        }
        self.commit_frames(&frames)
    }

    /// [`Self::commit`] of records already framed into one buffer: the
    /// buffer is written as is, in one write and one fsync.
    pub fn commit_frames(&mut self, frames: &Frames) -> Result<u64, StoreError> {
        self.repair()?;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        let buf = &frames.buf;
        let pre_len = self.active_len;
        let path = segment_path(&self.dir, self.prefix, self.active_seq);
        let result = self.io.write_at(&path, pre_len, buf).and_then(|()| self.io.sync(&path));
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
        let path = segment_path(&self.dir, self.prefix, self.active_seq);
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
    #[cfg(test)]
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.io.sync(&segment_path(&self.dir, self.prefix, self.active_seq))
    }

    /// Closes the active segment and starts a fresh one; returns the new
    /// segment's sequence number. Transactional: on failure the log
    /// keeps appending to the current segment and no half-created
    /// segment is left behind.
    pub fn rotate(&mut self) -> Result<u64, StoreError> {
        self.rotate_to(self.active_seq + 1)
    }

    /// [`Self::rotate`] to the segment numbered `next_seq`, which must
    /// lie past the active one (a log may number its segments by the
    /// first record each holds).
    pub fn rotate_to(&mut self, next_seq: u64) -> Result<u64, StoreError> {
        if next_seq <= self.active_seq {
            return Err(StoreError::Corrupt("rotation to a segment at or below the active one"));
        }
        self.repair()?;
        self.io.sync(&segment_path(&self.dir, self.prefix, self.active_seq))?;
        let next_path = segment_path(&self.dir, self.prefix, next_seq);
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
        for (s, path) in list_segments(&self.io, &self.dir, self.prefix)? {
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
        let (mut records, mut segments) = (Vec::new(), Vec::new());
        let scan = read_log(&self.io, &self.dir, self.prefix, |r: RecordRef<'_>| {
            records.push(Record { tag: r.tag, payload: r.payload.to_vec() });
            segments.push(r.start.segment);
            Ok::<_, StoreError>(ControlFlow::Continue(()))
        })?;
        Ok(Replay { records, segments, torn_tail: scan.torn_tail })
    }
}

/// Everything [`Wal::replay`] recovered.
#[derive(Debug)]
pub struct Replay {
    /// The checksum-valid record prefix, in append order.
    pub records: Vec<Record>,
    /// The segment each record was read from, in the same order.
    pub segments: Vec<u64>,
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
        self.write_with(seq, payload.len(), |buf| buf.extend_from_slice(payload))
    }

    /// [`Self::write`] of the payload `encode` appends to the buffer it
    /// is given: the payload is encoded straight into the file image,
    /// in one allocation of `SNAP_HEADER + size_hint` bytes when the
    /// hint is large enough, instead of encoded and then copied.
    pub fn write_with(
        &self,
        seq: u64,
        size_hint: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, StoreError> {
        let path = snapshot_path(&self.dir, seq);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut bytes = Vec::with_capacity(SNAP_HEADER.saturating_add(size_hint));
        bytes.resize(SNAP_HEADER, 0);
        encode(&mut bytes);
        let payload = &bytes[SNAP_HEADER..];
        let (len, checksum) = (payload.len() as u64, fnv1a64(payload));
        let header = [
            &SNAP_MAGIC[..],
            &SNAP_VERSION.to_le_bytes(),
            &seq.to_le_bytes(),
            &len.to_le_bytes(),
            &checksum.to_le_bytes(),
        ]
        .concat();
        bytes[..SNAP_HEADER].copy_from_slice(&header);
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
    /// checksum; the header is cut off the file's own buffer in place.
    fn read(&self, path: &Path, expect_seq: u64) -> Result<Vec<u8>, StoreError> {
        let mut data = self.io.read_file(path)?;
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
        data.drain(..SNAP_HEADER);
        Ok(data)
    }

    /// The newest snapshot that verifies, as `(seq, payload)` — corrupt
    /// or torn snapshot files are skipped in favour of older ones. A
    /// read that fails with an IO error is passed up instead: the file
    /// may verify at the next attempt, and the caller must not take an
    /// older snapshot as the newest.
    pub fn latest(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        for (seq, path) in list_snapshots(&self.io, &self.dir)?.into_iter().rev() {
            match self.read(&path, seq) {
                Ok(payload) => return Ok(Some((seq, payload))),
                Err(StoreError::Corrupt(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Deletes every snapshot with a sequence number strictly below
    /// `seq`. Callers typically keep the newest plus one verified
    /// fallback. Returns how many were removed; on error some
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

    /// Frames encoded in place carry the documented layout and the
    /// checksum `push_with` returns, and `commit` and `commit_frames`
    /// write the same segment bytes.
    #[test]
    fn frames_encoded_in_place_keep_the_frame_layout() {
        let records: [(u8, &[u8]); 3] = [(7, b"abc"), (2, b""), (1, &[0xAB; 300])];
        let mut want = Vec::new();
        for (tag, payload) in records {
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.push(tag);
            want.extend_from_slice(&fnv1a64(&[&[tag][..], payload].concat()).to_le_bytes());
            want.extend_from_slice(payload);
        }
        let mut frames = Frames::default();
        assert!(frames.is_empty());
        for (tag, payload) in records {
            let sum = frames.push_with(tag, |buf| buf.extend_from_slice(payload)).unwrap();
            assert_eq!(sum, record_checksum(tag, payload));
        }
        assert_eq!(frames.buf, want);
        let (a, b) = (tmpdir("frames-commit"), tmpdir("frames-in-place"));
        Wal::open(&a).unwrap().commit(&records).unwrap();
        Wal::open(&b).unwrap().commit_frames(&frames).unwrap();
        for dir in [&a, &b] {
            assert_eq!(std::fs::read(segment_path(dir, WAL_PREFIX, 0)).unwrap(), want);
            std::fs::remove_dir_all(dir).ok();
        }
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
        let seg = segment_path(&dir, WAL_PREFIX, 0);
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
            last_start =
                std::fs::metadata(segment_path(&dir, WAL_PREFIX, 0)).map(|m| m.len()).unwrap_or(0);
            wal.append(tag, &p).unwrap();
            wal.sync().unwrap();
        }
        drop(wal);
        let seg = segment_path(&dir, WAL_PREFIX, 0);
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
        let seg = segment_path(&dir, WAL_PREFIX, 0);
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
        let seg0 = segment_path(&dir, WAL_PREFIX, 0);
        let mut data = std::fs::read(&seg0).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&seg0, &data).unwrap();
        let wal = Wal::open(&dir).unwrap();
        assert!(matches!(wal.replay(), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_log_positions_let_resume_cut_at_any_record() {
        let dir = tmpdir("resume");
        let io = IoHandle::real();
        let mut log = Wal::resume(&dir, TWEET_LOG_PREFIX, 64, io.clone(), LogPos::default())
            .expect("fresh log");
        // Segments numbered by their first record: 0, 2, 4.
        for i in 0u8..6 {
            if log.active_len() >= log.segment_bytes() {
                log.rotate_to(u64::from(i)).unwrap();
            }
            log.commit(&[(1, &[i; 40])]).unwrap();
        }
        assert_eq!(log.segments().unwrap(), vec![0, 2, 4]);
        assert!(log.rotate_to(4).is_err(), "rotation must move forward");
        let mut starts = Vec::new();
        let scan = read_log(&io, &dir, TWEET_LOG_PREFIX, |r: RecordRef<'_>| {
            assert_eq!(r.checksum, record_checksum(r.tag, r.payload));
            starts.push((r.start, r.payload[0]));
            Ok::<_, StoreError>(ControlFlow::Continue(()))
        })
        .unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(starts.len(), 6);
        assert_eq!(scan.end, LogPos { segment: 4, offset: 2 * (FRAME_HEADER as u64 + 40) });
        // A visitor that breaks at record 3 ends the scan at its start.
        let stop = read_log(&io, &dir, TWEET_LOG_PREFIX, |r: RecordRef<'_>| {
            Ok::<_, StoreError>(if r.payload[0] == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })
        .unwrap();
        assert_eq!(stop.end, starts[3].0);
        // The WAL of the same directory sees none of it.
        assert!(Wal::open(&dir).unwrap().replay().unwrap().records.is_empty());

        // Cut before record 3 (the second record of segment 2), then
        // keep appending: the log holds 0, 1, 2 and the new record.
        drop(log);
        let (cut, _) = starts[3];
        let mut log = Wal::resume(&dir, TWEET_LOG_PREFIX, 64, io.clone(), cut).unwrap();
        assert!(log.repaired_tail());
        assert_eq!(log.segments().unwrap(), vec![0, 2]);
        log.commit(&[(1, &[9; 40])]).unwrap();
        let mut got = Vec::new();
        read_log(&io, &dir, TWEET_LOG_PREFIX, |r: RecordRef<'_>| {
            got.push(r.payload[0]);
            Ok::<_, StoreError>(ControlFlow::Continue(()))
        })
        .unwrap();
        assert_eq!(got, vec![0, 1, 2, 9]);
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
    fn fnv1a64_fed_in_pieces_hashes_the_concatenation() {
        let data = b"state digest over surfaces and mentions";
        for cut in [0, 1, 7, data.len()] {
            let mut h = Fnv1a64::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), fnv1a64(data));
        }
        assert_eq!(Fnv1a64::new().finish(), fnv1a64(&[]));
    }

    #[test]
    fn snapshot_encoded_in_place_matches_a_copied_payload() {
        let dir = tmpdir("snap-in-place");
        let snaps = SnapshotStore::open(&dir).unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let copied = snaps.write(1, &payload).unwrap();
        let copied_file = std::fs::read(snapshot_path(&dir, 1)).unwrap();
        // A hint too small and one too large both frame the same bytes.
        for hint in [0, 1 << 16] {
            let n = snaps.write_with(1, hint, |buf| buf.extend_from_slice(&payload)).unwrap();
            assert_eq!(n, copied);
            assert_eq!(std::fs::read(snapshot_path(&dir, 1)).unwrap(), copied_file);
        }
        assert_eq!(snaps.latest().unwrap(), Some((1, payload)));
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
}
