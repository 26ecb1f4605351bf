//! Durable stream state on top of `ngl-store`: delta checkpointing
//! via a typed write-ahead log, periodic full snapshots, and the
//! cold-surface spill pool backing [`RetentionPolicy::SpillCold`].
//!
//! ## Delta checkpointing model
//!
//! The WAL records the pipeline's *logical operations* — batch inputs
//! and finalize marks — rather than physical state diffs. Because the
//! pipeline is deterministic for fixed models (the invariant pinned by
//! the `parallel_equivalence` suite), replaying the logged operations
//! from the last snapshot reconstructs state **bitwise identical** to
//! the pre-crash run over the surviving prefix; each finalize mark
//! additionally carries a [`NerGlobalizer::state_digest`] so recovery
//! proves it reconverged instead of assuming it. Per-batch WAL cost is
//! proportional to the *new inputs* of that batch (plus a constant-size
//! finalize mark), while a full snapshot grows with the whole stream —
//! which is what makes delta checkpointing sublinear per batch.
//!
//! Every `checkpoint_every` finalizes, [`DurableGlobalizer`] writes a
//! full snapshot (the canonical checkpoint bytes of
//! [`NerGlobalizer::export_state_bytes`]) and compacts: the WAL rotates
//! and drops segments at or below the snapshot, and older snapshots are
//! pruned (the newest two are kept — the latest plus one fallback in
//! case the latest is found corrupt on open). Snapshots are sequenced
//! by the global **operation counter** (`op_seq`, bumped once per batch
//! and once per finalize); replay skips WAL records with
//! `op_seq <= snapshot.seq`, so a crash *between* snapshot write and
//! WAL compaction never double-applies an operation.
//!
//! ## Recovery
//!
//! [`DurableGlobalizer::open`] = newest valid snapshot + WAL replay.
//! Torn or bit-flipped bytes at the very tail of the final WAL segment
//! are tolerated (the write that was in flight when the process died);
//! the replay stops at the last checksum-valid record, yielding exactly
//! the state of a clean run over the surviving operations. Corruption
//! anywhere earlier is a hard error — silently skipping interior
//! records would violate prefix consistency.
//!
//! ## Cold-surface spill
//!
//! [`SpillPool`] serializes whole surface entries (mentions + their
//! cached span embeddings) into an `ngl_store::SpillFile`. Spilled
//! entries are transient per-process state — the pool is rebuilt by
//! replay/rehydration, never recovered from disk — so the pool resets
//! whenever state is rebuilt or snapshotted and re-spills afterwards,
//! which doubles as spill-file compaction.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ngl_encoder::ContextualTagger;
use ngl_nn::codec::{get_quantized_f32_vec, get_u64, put_quantized_f32_slice, put_u64, CodecError};
use ngl_store::{
    IoHandle, IoStatsSnapshot, SharedPageCache, SnapshotStore, SpillFile, StoreError, Wal,
    DEFAULT_SEGMENT_BYTES,
};

use crate::bases::SurfaceEntry;
use crate::checkpoint::{get_entry, get_str, put_entry, put_str};
use crate::persist::PersistError;
use crate::pipeline::{BatchOutput, BatchReport, NerGlobalizer, RetentionPolicy};
use ngl_runtime::TaskError;
use ngl_text::Span;

/// Spill-file and mention-cache entry: `(tweet, start, end)` ↦ span
/// embedding.
type CacheEntry = ((usize, usize, usize), Vec<f32>);

/// Env var overriding the byte budget of the process-shared spill
/// page cache (`0` disables the cache; read once, at first use).
pub use ngl_store::SPILL_CACHE_ENV;

// ---- spill pool --------------------------------------------------------

/// Where one spilled surface lives inside the spill file.
#[derive(Debug, Clone, Copy)]
struct SpillSlot {
    offset: u64,
    bytes: u64,
}

/// An on-disk index of cold surface entries (see the module docs).
/// Entries are keyed by surface form; the in-memory index maps each to
/// a checksummed extent of the backing [`SpillFile`].
pub struct SpillPool {
    file: SpillFile,
    index: BTreeMap<String, SpillSlot>,
    /// `(surface, payload bytes)` spilled since the last
    /// [`Self::take_spill_log`] drain.
    spill_log: Vec<(String, u64)>,
}

impl SpillPool {
    /// Opens (and truncates) the spill file at `path`. Spilled entries
    /// never outlive the process, so an existing file's contents are
    /// always stale.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::create_with_io(path, IoHandle::real())
    }

    /// [`Self::create`] over an explicit IO layer (chaos tests inject
    /// faults here). Reads go through the **process-shared** page
    /// cache ([`SharedPageCache::global`]): every durable spill pool
    /// in the process — one per shard under a sharded store —
    /// arbitrates one `NGL_SPILL_CACHE_BYTES` budget with stamp-LRU
    /// recency instead of owning a private cache each.
    pub fn create_with_io<P: AsRef<Path>>(path: P, io: IoHandle) -> Result<Self, StoreError> {
        let file = SpillFile::open_with_cache(path, io, SharedPageCache::global())?;
        Ok(Self { file, index: BTreeMap::new(), spill_log: Vec::new() })
    }

    /// `(hits, misses)` of the shared spill page cache —
    /// process-wide totals, not per-file counts.
    pub fn page_cache_stats(&self) -> (u64, u64) {
        self.file.page_cache_stats()
    }

    /// Number of spilled surfaces.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `surface` is currently spilled.
    pub fn contains(&self, surface: &str) -> bool {
        self.index.contains_key(surface)
    }

    /// The spilled surfaces, in lexicographic order.
    pub fn surfaces(&self) -> Vec<String> {
        self.index.keys().cloned().collect()
    }

    /// Bytes held by live spilled entries (excludes dead extents of
    /// already-rehydrated entries; those are reclaimed by the next
    /// [`Self::reset`]).
    pub fn live_bytes(&self) -> u64 {
        self.index.values().map(|s| s.bytes).sum()
    }

    /// Total size of the backing file, dead extents included.
    pub fn file_bytes(&self) -> u64 {
        self.file.len()
    }

    /// Serializes `entry` (with the given slice of its cached span
    /// embeddings) and appends it to the spill file. Returns the
    /// payload size. The caller removes the resident copy *after* this
    /// succeeds — serialize-before-remove.
    pub fn spill(
        &mut self,
        surface: &str,
        entry: &SurfaceEntry,
        cache: &[CacheEntry],
    ) -> Result<u64, StoreError> {
        let mut buf = Vec::new();
        put_str(&mut buf, surface);
        put_entry(&mut buf, entry);
        put_u64(&mut buf, cache.len() as u64);
        for ((t, s, e), emb) in cache {
            put_u64(&mut buf, *t as u64);
            put_u64(&mut buf, *s as u64);
            put_u64(&mut buf, *e as u64);
            // Lossless for pipeline-produced embeddings: they are
            // canonicalized (quantize→dequantize) at ingest.
            put_quantized_f32_slice(&mut buf, emb);
        }
        let bytes = buf.len() as u64;
        let offset = self.file.append(&buf)?;
        self.index.insert(surface.to_string(), SpillSlot { offset, bytes });
        self.spill_log.push((surface.to_string(), bytes));
        Ok(bytes)
    }

    fn decode(
        surface: &str,
        payload: &[u8],
    ) -> Result<(SurfaceEntry, Vec<CacheEntry>), StoreError> {
        let corrupt = |_: CodecError| StoreError::Corrupt("undecodable spill payload");
        let mut buf = payload;
        let stored = get_str(&mut buf).map_err(corrupt)?;
        if stored != surface {
            return Err(StoreError::Corrupt("spill payload names a different surface"));
        }
        let entry = get_entry(&mut buf).map_err(corrupt)?;
        let n = get_u64(&mut buf).map_err(corrupt)? as usize;
        if n > entry.mentions.len() {
            return Err(StoreError::Corrupt("spill cache count exceeds mentions"));
        }
        let mut cache = Vec::with_capacity(n);
        for _ in 0..n {
            let t = get_u64(&mut buf).map_err(corrupt)? as usize;
            let s = get_u64(&mut buf).map_err(corrupt)? as usize;
            let e = get_u64(&mut buf).map_err(corrupt)? as usize;
            let emb = get_quantized_f32_vec(&mut buf).map_err(corrupt)?;
            cache.push(((t, s, e), emb));
        }
        Ok((entry, cache))
    }

    /// Removes `surface` from the pool and returns its entry and cached
    /// embeddings (rehydration). The index slot is dropped even when
    /// the read fails — a rotted extent can never rehydrate, so the
    /// surface restarts empty rather than erroring forever.
    pub fn take(
        &mut self,
        surface: &str,
    ) -> Result<Option<(SurfaceEntry, Vec<CacheEntry>)>, StoreError> {
        let Some(slot) = self.index.remove(surface) else {
            return Ok(None);
        };
        let payload = self.file.read(slot.offset)?;
        Self::decode(surface, &payload).map(Some)
    }

    /// Decodes `surface`'s entry without removing it from the pool
    /// (read-only emit access; no touch-stamp, no rehydration).
    pub fn peek(&mut self, surface: &str) -> Result<Option<SurfaceEntry>, StoreError> {
        let Some(slot) = self.index.get(surface).copied() else {
            return Ok(None);
        };
        let payload = self.file.read(slot.offset)?;
        Self::decode(surface, &payload).map(|(entry, _)| Some(entry))
    }

    /// Drops every spilled entry and truncates the backing file.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.index.clear();
        self.file.reset()?;
        Ok(())
    }

    /// Drains the `(surface, bytes)` log of spills since the last call.
    pub fn take_spill_log(&mut self) -> Vec<(String, u64)> {
        std::mem::take(&mut self.spill_log)
    }
}

// ---- WAL record codec --------------------------------------------------

const TAG_BATCH: u8 = 1;
const TAG_FINALIZE: u8 = 2;
const TAG_EVICT: u8 = 3;
const TAG_SPILL: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;

/// Finalize flag: the digest was computed on a state that diverged
/// from fault-free replay (a spill fault pinned or dropped an entry),
/// so recovery must not verify it. Cleared by the next successful
/// snapshot, which re-baselines replay.
pub(crate) const FINALIZE_FLAG_UNVERIFIED: u64 = 1;

/// A typed WAL record. `Batch` and `Finalize` drive replay; `Evict`,
/// `Spill` and `Snapshot` are audit records — cheap summaries of
/// derived transitions that replay re-derives and (for evictions)
/// cross-checks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// The inputs of one ingested batch.
    Batch { op_seq: u64, ids: Option<Vec<u64>>, tweets: Vec<Vec<String>> },
    /// One finalize ran; carries the post-state summary + digest.
    Finalize {
        op_seq: u64,
        watermark: u64,
        first_retained: u64,
        ctrie_version: u64,
        surfaces: u64,
        mentions: u64,
        digest: u64,
        /// See [`FINALIZE_FLAG_UNVERIFIED`].
        flags: u64,
    },
    /// Retention moved the eviction boundary during the finalize of
    /// `op_seq`.
    Evict { op_seq: u64, first_retained: u64 },
    /// Cold surfaces were spilled during the finalize of `op_seq`.
    Spill { op_seq: u64, count: u64, bytes: u64 },
    /// A full snapshot sequenced at `op_seq` was durably written.
    Snapshot { op_seq: u64, bytes: u64 },
}

/// Encodes a [`WalRecord::Batch`] from borrowed inputs, so a live
/// batch is logged without copying it first.
///
/// # Panics
/// Panics when `ids` is given with a length other than `tweets`'.
fn encode_batch(op_seq: u64, ids: Option<&[u64]>, tweets: &[Vec<String>]) -> (u8, Vec<u8>) {
    if let Some(ids) = ids {
        assert_eq!(ids.len(), tweets.len(), "one id per tweet");
    }
    let mut buf = Vec::new();
    put_u64(&mut buf, op_seq);
    put_u64(&mut buf, ids.is_some() as u64);
    put_u64(&mut buf, tweets.len() as u64);
    for (i, tokens) in tweets.iter().enumerate() {
        if let Some(ids) = ids {
            put_u64(&mut buf, ids[i]);
        }
        put_u64(&mut buf, tokens.len() as u64);
        for t in tokens {
            put_str(&mut buf, t);
        }
    }
    (TAG_BATCH, buf)
}

impl WalRecord {
    pub(crate) fn op_seq(&self) -> u64 {
        match *self {
            WalRecord::Batch { op_seq, .. }
            | WalRecord::Finalize { op_seq, .. }
            | WalRecord::Evict { op_seq, .. }
            | WalRecord::Spill { op_seq, .. }
            | WalRecord::Snapshot { op_seq, .. } => op_seq,
        }
    }

    fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        let tag = match self {
            WalRecord::Batch { op_seq, ids, tweets } => {
                return encode_batch(*op_seq, ids.as_deref(), tweets);
            }
            WalRecord::Finalize {
                op_seq,
                watermark,
                first_retained,
                ctrie_version,
                surfaces,
                mentions,
                digest,
                flags,
            } => {
                for v in [
                    op_seq,
                    watermark,
                    first_retained,
                    ctrie_version,
                    surfaces,
                    mentions,
                    digest,
                    flags,
                ] {
                    put_u64(&mut buf, *v);
                }
                TAG_FINALIZE
            }
            WalRecord::Evict { op_seq, first_retained } => {
                put_u64(&mut buf, *op_seq);
                put_u64(&mut buf, *first_retained);
                TAG_EVICT
            }
            WalRecord::Spill { op_seq, count, bytes } => {
                put_u64(&mut buf, *op_seq);
                put_u64(&mut buf, *count);
                put_u64(&mut buf, *bytes);
                TAG_SPILL
            }
            WalRecord::Snapshot { op_seq, bytes } => {
                put_u64(&mut buf, *op_seq);
                put_u64(&mut buf, *bytes);
                TAG_SNAPSHOT
            }
        };
        (tag, buf)
    }

    fn decode(tag: u8, payload: &[u8]) -> Result<Self, CodecError> {
        let mut buf = payload;
        let record = match tag {
            TAG_BATCH => {
                let op_seq = get_u64(&mut buf)?;
                let has_ids = match get_u64(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::Invalid("batch has_ids flag out of range")),
                };
                let n = get_u64(&mut buf)? as usize;
                // Each tweet costs ≥ 8 bytes (its token count) on the
                // wire; bound allocation against corrupt counts.
                if n.saturating_mul(8) > buf.len() {
                    return Err(CodecError::Invalid("implausible batch size"));
                }
                let mut ids = has_ids.then(Vec::new);
                let mut tweets = Vec::with_capacity(n);
                for _ in 0..n {
                    if let Some(ids) = ids.as_mut() {
                        ids.push(get_u64(&mut buf)?);
                    }
                    let k = get_u64(&mut buf)? as usize;
                    if k.saturating_mul(8) > buf.len() {
                        return Err(CodecError::Invalid("implausible token count"));
                    }
                    let mut tokens = Vec::with_capacity(k);
                    for _ in 0..k {
                        tokens.push(get_str(&mut buf)?);
                    }
                    tweets.push(tokens);
                }
                WalRecord::Batch { op_seq, ids, tweets }
            }
            TAG_FINALIZE => {
                let op_seq = get_u64(&mut buf)?;
                let watermark = get_u64(&mut buf)?;
                let first_retained = get_u64(&mut buf)?;
                let ctrie_version = get_u64(&mut buf)?;
                let surfaces = get_u64(&mut buf)?;
                let mentions = get_u64(&mut buf)?;
                let digest = get_u64(&mut buf)?;
                let flags = get_u64(&mut buf)?;
                WalRecord::Finalize {
                    op_seq,
                    watermark,
                    first_retained,
                    ctrie_version,
                    surfaces,
                    mentions,
                    digest,
                    flags,
                }
            }
            TAG_EVICT => {
                WalRecord::Evict { op_seq: get_u64(&mut buf)?, first_retained: get_u64(&mut buf)? }
            }
            TAG_SPILL => WalRecord::Spill {
                op_seq: get_u64(&mut buf)?,
                count: get_u64(&mut buf)?,
                bytes: get_u64(&mut buf)?,
            },
            TAG_SNAPSHOT => {
                WalRecord::Snapshot { op_seq: get_u64(&mut buf)?, bytes: get_u64(&mut buf)? }
            }
            _ => return Err(CodecError::Invalid("unknown WAL record tag")),
        };
        if !buf.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in WAL record"));
        }
        Ok(record)
    }
}

// ---- errors ------------------------------------------------------------

/// Why a durable operation failed.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying WAL / snapshot / spill store failed.
    Store(StoreError),
    /// A WAL record or snapshot payload did not decode.
    Codec(CodecError),
    /// The snapshot checkpoint failed validation on import.
    Persist(PersistError),
    /// Replay reconverged to a different state than the pre-crash run
    /// recorded — models, config or thread-determinism drifted.
    DigestMismatch { op_seq: u64, logged: u64, replayed: u64 },
    /// The store was written under a different model bundle than the
    /// one now opening it. Raised *before* any snapshot import or
    /// replay work — wrong models would otherwise only surface as a
    /// digest mismatch at the first replayed finalize.
    ModelMismatch { stored: u64, current: u64 },
    /// The store root was written with a different shard count than
    /// the one now opening it. Raised *before* any shard opens —
    /// opening a 4-shard store as 2 shards would otherwise silently
    /// replay a subset of the lineages (wrong ownership everywhere).
    ShardLayoutMismatch { stored: u32, requested: u32 },
    /// The log's structure is inconsistent (e.g. a finalize mark with
    /// no preceding state, an eviction record contradicting replay).
    Corrupt(&'static str),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "store error: {e}"),
            DurableError::Codec(e) => write!(f, "undecodable record: {e}"),
            DurableError::Persist(e) => write!(f, "snapshot rejected: {e}"),
            DurableError::DigestMismatch { op_seq, logged, replayed } => write!(
                f,
                "replay diverged at op {op_seq}: logged digest {logged:#x}, \
                 replayed {replayed:#x}"
            ),
            DurableError::ModelMismatch { stored, current } => write!(
                f,
                "model fingerprint mismatch: store was written with \
                 {stored:#018x}, current bundle is {current:#018x} — \
                 recover with the original models or start a fresh store"
            ),
            DurableError::ShardLayoutMismatch { stored, requested } => write!(
                f,
                "shard layout mismatch: store was written with {stored} \
                 shard(s), reopen requested {requested} — reopen with the \
                 original shard count or start a fresh store"
            ),
            DurableError::Corrupt(what) => write!(f, "corrupt durable log: {what}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Codec(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

// ---- model fingerprint -------------------------------------------------

/// File next to the WAL/snapshots binding the store to a model bundle:
/// `magic "NGLM" | version u32 LE | fingerprint u64 LE`.
pub(crate) const MODEL_META_FILE: &str = "model.meta";
const MODEL_META_MAGIC: &[u8; 4] = b"NGLM";
const MODEL_META_VERSION: u32 = 1;

/// Stable fingerprint of a model bundle's serialized bytes, for
/// [`DurableGlobalizer::open_with_fingerprint`]. Any stable hash
/// works; this one is the store's own FNV-1a so CLI and tests agree
/// on one definition.
pub fn model_fingerprint(bundle_bytes: &[u8]) -> u64 {
    ngl_store::fnv1a64(bundle_bytes)
}

pub(crate) fn read_model_meta(path: &Path) -> Result<Option<u64>, DurableError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e).into()),
    };
    if bytes.len() != 16 || &bytes[0..4] != MODEL_META_MAGIC {
        return Err(DurableError::Corrupt("unreadable model fingerprint file"));
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[4..8]);
    if u32::from_le_bytes(word) != MODEL_META_VERSION {
        return Err(DurableError::Corrupt("unsupported model fingerprint version"));
    }
    let mut fp = [0u8; 8];
    fp.copy_from_slice(&bytes[8..16]);
    Ok(Some(u64::from_le_bytes(fp)))
}

pub(crate) fn write_model_meta(path: &Path, fingerprint: u64) -> Result<(), DurableError> {
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(MODEL_META_MAGIC);
    bytes.extend_from_slice(&MODEL_META_VERSION.to_le_bytes());
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    std::fs::write(path, bytes).map_err(StoreError::Io)?;
    Ok(())
}

// ---- durable wrapper ---------------------------------------------------

/// What [`DurableGlobalizer::open`] reconstructed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery started from (`None` = replay
    /// from genesis).
    pub snapshot_seq: Option<u64>,
    /// Batches re-applied from the WAL.
    pub replayed_batches: usize,
    /// Finalizes re-run (and digest-verified) from the WAL.
    pub replayed_finalizes: usize,
    /// Whether a torn/corrupt tail was cut off the final WAL segment.
    pub torn_tail: bool,
    /// The recovered scan watermark.
    pub watermark: usize,
    /// The recovered CTrie surface count.
    pub surfaces: usize,
    /// Resident candidate surfaces after recovery.
    pub resident_surfaces: usize,
    /// Stored tweets after recovery.
    pub tweets: usize,
    /// The recovered state digest.
    pub digest: u64,
    /// Finalize marks replayed *without* digest verification because
    /// the writing run recorded a spill-fault divergence (see
    /// [`FINALIZE_FLAG_UNVERIFIED`]). Non-zero means the pre-crash
    /// run degraded and never healed with a snapshot; the replayed
    /// state is the fault-free reconstruction of the logged inputs.
    pub unverified_finalizes: usize,
    /// The tweet-id partition of every replayed id-carrying batch, in
    /// log order. This is the exact batch boundary the pre-crash run
    /// committed, so a verifier can re-run the same partition cleanly
    /// and compare states bit for bit (the serving kill-under-load
    /// oracle). Batches without ids contribute empty rows.
    pub batch_ids: Vec<Vec<u64>>,
}

/// Byte accounting for the delta-vs-snapshot comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// WAL bytes appended by the most recent batch+finalize cycle —
    /// the *delta* cost of that cycle.
    pub delta_bytes_last: u64,
    /// Total WAL bytes appended over the process lifetime.
    pub wal_bytes_total: u64,
    /// Size of the most recent full snapshot.
    pub snapshot_bytes_last: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Batches logged.
    pub batches: u64,
    /// Finalizes logged.
    pub finalizes: u64,
}

// ---- degradation -------------------------------------------------------

/// What failed, for one [`DegradationEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationCause {
    /// A WAL commit failed (not out-of-space); the operation was
    /// rejected and can be retried.
    WalCommit,
    /// The disk reported out-of-space; mutations are refused until a
    /// commit succeeds again.
    DiskFull,
    /// A full snapshot could not be written; durability rides on the
    /// WAL alone and the snapshot is retried at the next finalize.
    SnapshotWrite,
    /// Rehydrating spilled surfaces for a snapshot failed; the
    /// affected surface restarts empty (a recorded loss).
    SnapshotRehydrate,
    /// WAL rotation/compaction or snapshot pruning failed after a
    /// successful snapshot. Stale files linger — harmless for
    /// correctness (replay filters records by `op_seq`), costs disk.
    Compaction,
}

impl std::fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DegradationCause::WalCommit => "wal-commit",
            DegradationCause::DiskFull => "disk-full",
            DegradationCause::SnapshotWrite => "snapshot-write",
            DegradationCause::SnapshotRehydrate => "snapshot-rehydrate",
            DegradationCause::Compaction => "compaction",
        };
        f.write_str(name)
    }
}

/// One recorded storage degradation, in occurrence order.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// The operation counter when the failure happened.
    pub op_seq: u64,
    pub cause: DegradationCause,
    /// The underlying error, stringified.
    pub detail: String,
}

/// Overall storage health, derived from a [`DegradationReport`].
/// Ordered by severity (declaration order), so a sharded store's
/// aggregate health is `max` over its shards' modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationMode {
    /// No storage faults observed (absorbed transient retries are
    /// still healthy).
    Healthy,
    /// Faults occurred, but every acknowledged operation is durable
    /// and snapshots are current.
    Degraded,
    /// Snapshots are failing; every acknowledged operation is durable
    /// but recovery must replay the whole WAL.
    WalOnly,
    /// The disk is full: mutations are refused (typed errors, no
    /// panic) until a commit succeeds again.
    ReadOnly,
}

impl std::fmt::Display for DegradationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DegradationMode::Healthy => "healthy",
            DegradationMode::Degraded => "degraded",
            DegradationMode::WalOnly => "wal-only",
            DegradationMode::ReadOnly => "read-only",
        };
        f.write_str(name)
    }
}

/// Typed storage-health report for the degradation ladder: flags for
/// the current operating mode, cumulative failure counters, spill
/// pin/loss totals and IO retry statistics. Obtained from
/// [`DurableGlobalizer::degradation`]; never panics, never lies about
/// acknowledged data.
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// Mutations are currently refused (last commit hit ENOSPC).
    /// Cleared by the next successful commit.
    pub read_only: bool,
    /// The last due snapshot failed; WAL-only operation until one
    /// succeeds.
    pub snapshot_lagging: bool,
    /// Finalize digests are currently written unverifiable (a spill
    /// fault made resident state diverge from fault-free replay).
    /// Healed by the next successful snapshot.
    pub digest_unverified: bool,
    /// WAL commits rejected (each one a typed error to the caller —
    /// the operation did not happen and may be retried).
    pub wal_commit_failures: u64,
    /// Snapshot attempts that failed (write or rehydrate).
    pub snapshot_failures: u64,
    /// Post-snapshot rotate/compact/prune failures (disk-space cost
    /// only).
    pub compaction_failures: u64,
    /// Surfaces lost while rehydrating for a snapshot.
    pub rehydrate_losses: u64,
    /// Surfaces kept resident because their spill write failed
    /// (lossless degradation of the memory budget).
    pub spill_pins: u64,
    /// Surfaces that lost cold state to spill/rehydrate faults
    /// (restart empty; includes `rehydrate_losses`).
    pub spill_losses: u64,
    /// Transient IO errors absorbed by retry (healthy).
    pub io_retries: u64,
    /// Transient IO errors that exhausted the retry budget and
    /// surfaced.
    pub io_retry_exhausted: u64,
    /// The first [`MAX_DEGRADATION_EVENTS`] degradations, in order.
    pub events: Vec<DegradationEvent>,
    /// Degradations beyond the event cap (counters above still count
    /// them).
    pub dropped_events: u64,
}

/// Cap on retained [`DegradationReport::events`].
pub const MAX_DEGRADATION_EVENTS: usize = 64;

impl DegradationReport {
    /// Collapses the flags into the degradation ladder rung.
    pub fn mode(&self) -> DegradationMode {
        if self.read_only {
            DegradationMode::ReadOnly
        } else if self.snapshot_lagging {
            DegradationMode::WalOnly
        } else if self.is_degraded() {
            DegradationMode::Degraded
        } else {
            DegradationMode::Healthy
        }
    }

    /// Whether any fault left a trace (successful transient retries
    /// don't count).
    pub fn is_degraded(&self) -> bool {
        self.read_only
            || self.snapshot_lagging
            || self.digest_unverified
            || self.wal_commit_failures
                + self.snapshot_failures
                + self.compaction_failures
                + self.spill_pins
                + self.spill_losses
                + self.io_retry_exhausted
                > 0
    }
}

/// A finalize whose stages ran but whose WAL commit failed: the
/// already-encoded records and the spans of that finalize. The records
/// are re-committed before any later operation may log (WAL order must
/// keep matching apply order); only a retried
/// [`DurableGlobalizer::finalize`] surfaces the stashed spans.
struct PendingFinalize {
    encoded: Vec<(u8, Vec<u8>)>,
    out: Vec<Vec<Span>>,
}

/// [`NerGlobalizer`] with durable state: every batch and finalize is
/// logged to a WAL before/after it applies, full snapshots land every
/// `checkpoint_every` finalizes, and [`RetentionPolicy::SpillCold`]
/// gets its spill pool managed automatically (see the module docs).
pub struct DurableGlobalizer<T: ContextualTagger> {
    inner: NerGlobalizer<T>,
    wal: Wal,
    snaps: SnapshotStore,
    pool: Option<SpillPool>,
    dir: PathBuf,
    io: IoHandle,
    checkpoint_every: usize,
    op_seq: u64,
    finalizes_since_snapshot: usize,
    stats: StoreStats,
    degradation: DegradationReport,
    pending_finalize: Option<PendingFinalize>,
    /// `spill_pins + spill_losses` of `inner` at the last divergence
    /// check — a change since then means new spill faults.
    spill_faults_marked: u64,
}

impl<T: ContextualTagger + Sync> DurableGlobalizer<T> {
    /// Opens (or creates) the durable store at `dir` and recovers into
    /// `inner`: newest valid snapshot first, then WAL replay with
    /// per-finalize digest verification. `inner` must be a freshly
    /// built pipeline with the *same models and config* as the run
    /// that wrote the store — determinism of replay depends on it.
    /// A snapshot lands every `checkpoint_every` finalizes (min 1).
    pub fn open<P: AsRef<Path>>(
        inner: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        Self::open_with_fingerprint(inner, dir, checkpoint_every, None)
    }

    /// [`Self::open`] with a model-bundle fingerprint (any stable hash
    /// of the bundle bytes). A new store adopts the fingerprint; an
    /// existing store rejects a mismatching one with
    /// [`DurableError::ModelMismatch`] *before* importing snapshots or
    /// replaying the WAL — wrong models fail fast instead of as a
    /// late digest mismatch. Stores written before fingerprints
    /// existed adopt the current fingerprint on first open.
    pub fn open_with_fingerprint<P: AsRef<Path>>(
        inner: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
        fingerprint: Option<u64>,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        Self::open_with_io(inner, dir, checkpoint_every, fingerprint, IoHandle::real())
    }

    /// [`Self::open_with_fingerprint`] over an explicit IO layer: the
    /// WAL, snapshot store and spill pool all share `io`, so a chaos
    /// plan sees every store IO call in one global order and the
    /// retry/degradation machinery is exercised end to end.
    pub fn open_with_io<P: AsRef<Path>>(
        mut inner: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
        fingerprint: Option<u64>,
        io: IoHandle,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)?;
        if let Some(current) = fingerprint {
            let meta = dir.join(MODEL_META_FILE);
            match read_model_meta(&meta)? {
                Some(stored) if stored != current => {
                    return Err(DurableError::ModelMismatch { stored, current });
                }
                Some(_) => {}
                None => write_model_meta(&meta, current)?,
            }
        }
        let snaps = SnapshotStore::open_with_io(&dir, io.clone())?;
        let wal = Wal::open_with_io(&dir, DEFAULT_SEGMENT_BYTES, io.clone())?;

        let mut report = RecoveryReport::default();
        let mut op_seq = 0u64;
        if let Some((seq, payload)) = snaps.latest()? {
            inner.import_state_bytes(&payload)?;
            report.snapshot_seq = Some(seq);
            op_seq = seq;
        }

        // The spill pool must exist before replay: replayed finalizes
        // under SpillCold spill exactly like the original run did.
        let mut pool = match inner.config().retention {
            RetentionPolicy::SpillCold(_) => {
                Some(SpillPool::create_with_io(dir.join("spill.cold"), io.clone())?)
            }
            _ => None,
        };

        let replay = wal.replay()?;
        // `Wal::open` repairs (cuts) a torn active-segment tail before
        // replay sees it — surface either source of tearing.
        report.torn_tail = replay.torn_tail || wal.repaired_tail();
        let mut records = Vec::with_capacity(replay.records.len());
        for raw in &replay.records {
            records.push(WalRecord::decode(raw.tag, &raw.payload)?);
        }

        // Concurrent replay: batches must still *apply* one at a time
        // in log order (barrier semantics, digest verification), but
        // the encoder work inside them is order-free. Group the token
        // vectors of every batch up to each Finalize barrier, so each
        // group's encodes run concurrently on the pool before its
        // batches are applied. Groups are best-effort — a memo miss
        // just encodes inline, exactly as before.
        let snap_seq = op_seq;
        let mut groups: Vec<Vec<Vec<String>>> = vec![Vec::new()];
        for record in &records {
            match record {
                WalRecord::Batch { op_seq, tweets, .. } if *op_seq > snap_seq => {
                    // `groups` starts non-empty and only grows; if that
                    // ever breaks, prewarm is best-effort anyway — skip
                    // the group rather than abort recovery.
                    if let Some(group) = groups.last_mut() {
                        group.extend(tweets.iter().cloned());
                    }
                }
                WalRecord::Finalize { op_seq, .. } if *op_seq > snap_seq => {
                    groups.push(Vec::new());
                }
                _ => {}
            }
        }
        let mut groups = groups.into_iter();
        let mut group: Vec<Vec<String>> = groups.next().unwrap_or_default();
        let mut prewarmed = false;
        // Once a finalize flagged unverified appears, the writing run
        // had diverged from fault-free replay, so every later digest
        // (and eviction cross-check) in this WAL was computed on that
        // diverged state and cannot be verified. A successful snapshot
        // would have compacted the flagged records away — their
        // presence means the degradation was never healed.
        let mut divergent_replay = false;

        for record in records {
            if record.op_seq() <= op_seq {
                continue; // already inside the snapshot
            }
            match record {
                WalRecord::Batch { op_seq: seq, ids, tweets } => {
                    if !prewarmed {
                        inner.prewarm_replay_encodes(std::mem::take(&mut group));
                        prewarmed = true;
                    }
                    report.batch_ids.push(ids.clone().unwrap_or_default());
                    inner.ingest(tweets, ids);
                    op_seq = seq;
                    report.replayed_batches += 1;
                }
                WalRecord::Finalize { op_seq: seq, digest, flags, .. } => {
                    inner.finalize_with_spill(pool.as_mut());
                    if flags & FINALIZE_FLAG_UNVERIFIED != 0 {
                        divergent_replay = true;
                    }
                    if divergent_replay {
                        report.unverified_finalizes += 1;
                    } else {
                        let replayed = inner.state_digest();
                        if replayed != digest {
                            return Err(DurableError::DigestMismatch {
                                op_seq: seq,
                                logged: digest,
                                replayed,
                            });
                        }
                    }
                    op_seq = seq;
                    report.replayed_finalizes += 1;
                    // Barrier crossed: this group's memo is spent.
                    inner.clear_replay_memo();
                    group = groups.next().unwrap_or_default();
                    prewarmed = false;
                }
                WalRecord::Evict { first_retained, .. } => {
                    if !divergent_replay
                        && inner.tweet_base().first_retained() as u64 != first_retained
                    {
                        return Err(DurableError::Corrupt(
                            "eviction record contradicts replayed retention",
                        ));
                    }
                }
                // Audit-only: spills are re-derived by the replayed
                // finalizes, snapshots were consumed above.
                WalRecord::Spill { .. } | WalRecord::Snapshot { .. } => {}
            }
        }

        // Trailing unfinalized batches may have left a live memo.
        inner.clear_replay_memo();

        report.watermark = inner.scan_watermark();
        report.surfaces = inner.n_surfaces();
        report.resident_surfaces = inner.candidate_base().len();
        report.tweets = inner.tweet_base().len();
        report.digest = inner.state_digest();
        let checkpoint_every = checkpoint_every.max(1);
        // An unhealed divergence in the replayed WAL: new finalizes
        // must stay flagged (older flagged digests make them
        // unverifiable on the next replay) and the healing snapshot is
        // pulled forward to the very next finalize.
        let degradation =
            DegradationReport { digest_unverified: divergent_replay, ..Default::default() };
        let spill_faults_marked = inner.spill_pins() + inner.spill_losses();
        Ok((
            Self {
                inner,
                wal,
                snaps,
                pool,
                dir,
                io,
                checkpoint_every,
                op_seq,
                finalizes_since_snapshot: if divergent_replay { checkpoint_every - 1 } else { 0 },
                stats: StoreStats::default(),
                degradation,
                pending_finalize: None,
                spill_faults_marked,
            },
            report,
        ))
    }

    /// Commits pre-encoded records to the WAL as one atomic
    /// append+fsync, maintaining byte accounting and the degradation
    /// flags. On failure nothing of the group is visible to replay:
    /// the caller's operation did not durably happen.
    fn commit_encoded(&mut self, encoded: &[(u8, Vec<u8>)]) -> Result<(), DurableError> {
        let refs: Vec<(u8, &[u8])> = encoded.iter().map(|(t, p)| (*t, p.as_slice())).collect();
        match self.wal.commit(&refs) {
            Ok(bytes) => {
                self.stats.delta_bytes_last += bytes;
                self.stats.wal_bytes_total += bytes;
                // Space came back (or was never the problem): leave
                // read-only mode.
                self.degradation.read_only = false;
                Ok(())
            }
            Err(e) => {
                self.degradation.wal_commit_failures += 1;
                let cause = if e.is_no_space() {
                    self.degradation.read_only = true;
                    DegradationCause::DiskFull
                } else {
                    DegradationCause::WalCommit
                };
                self.push_event(cause, e.to_string());
                Err(e.into())
            }
        }
    }

    fn push_event(&mut self, cause: DegradationCause, detail: String) {
        if self.degradation.events.len() < MAX_DEGRADATION_EVENTS {
            self.degradation.events.push(DegradationEvent { op_seq: self.op_seq, cause, detail });
        } else {
            self.degradation.dropped_events += 1;
        }
    }

    /// Re-commits a stashed finalize, returning its spans. `Ok(None)`
    /// means nothing was pending. Must succeed before any later record
    /// may be logged — WAL order is apply order.
    fn commit_pending(&mut self) -> Result<Option<Vec<Vec<Span>>>, DurableError> {
        let Some(pending) = self.pending_finalize.take() else {
            return Ok(None);
        };
        match self.commit_encoded(&pending.encoded) {
            Ok(()) => {
                self.stats.finalizes += 1;
                self.after_finalize_commit();
                Ok(Some(pending.out))
            }
            Err(e) => {
                self.pending_finalize = Some(pending);
                Err(e)
            }
        }
    }

    /// Durably logs the batch inputs, then ingests them through
    /// [`NerGlobalizer::ingest`] (write-ahead: a crash after the log
    /// entry replays the batch; a crash before it loses the batch
    /// wholesale — never half of it).
    ///
    /// On a WAL commit failure the batch is *rejected with a typed
    /// error* — no state changes, `op_seq` does not advance, and the
    /// same batch may simply be submitted again. An out-of-space
    /// failure additionally flips the store read-only (see
    /// [`Self::degradation`]) until a commit succeeds.
    ///
    /// # Panics
    /// Panics, before anything is logged, when `ids` is given with a
    /// length other than `tweets`'.
    pub fn ingest(
        &mut self,
        tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        self.stats.delta_bytes_last = 0;
        self.commit_pending()?;
        self.commit_encoded(&[encode_batch(self.op_seq + 1, ids.as_deref(), &tweets)])?;
        self.op_seq += 1;
        self.stats.batches += 1;
        Ok(self.inner.ingest(tweets, ids))
    }

    /// [`Self::ingest`] without ids. Kept only because the benchmark
    /// harness under `perfbench/` calls it by this name.
    pub fn process_batch(
        &mut self,
        batch: Vec<Vec<String>>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        self.ingest(batch, None)
    }

    /// [`Self::ingest`] over `(id, tokens)` pairs. Kept only because the
    /// benchmark harness under `perfbench/` calls it by this name.
    pub fn process_batch_with_ids(
        &mut self,
        batch: Vec<(u64, Vec<String>)>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        let (ids, tweets) = batch.into_iter().unzip();
        self.ingest(tweets, Some(ids))
    }

    /// Runs the Global NER stages, then durably marks the finalize
    /// (with its post-state digest) plus any derived eviction/spill
    /// transitions, and snapshots + compacts every `checkpoint_every`
    /// finalizes.
    ///
    /// Failure handling, rung by rung:
    /// - **WAL commit fails**: the stages already ran, so the records
    ///   and spans are stashed and a typed error returned — the spans
    ///   must not be acknowledged. The next successful durable
    ///   operation re-commits the stashed records first (keeping WAL
    ///   order equal to apply order); retrying `finalize` itself
    ///   returns the stashed spans without re-running the stages.
    /// - **Spill fault during the stages**: resident state diverged
    ///   from fault-free replay, so this and subsequent finalize marks
    ///   are flagged digest-unverifiable and the next snapshot is
    ///   pulled forward to heal (a snapshot re-baselines replay).
    /// - **Snapshot fails**: the finalize still succeeds; the store
    ///   degrades to WAL-only and retries the snapshot next finalize.
    pub fn finalize(&mut self) -> Result<Vec<Vec<Span>>, DurableError> {
        if self.pending_finalize.is_some() {
            return match self.commit_pending()? {
                Some(out) => Ok(out),
                // `pending_finalize` was checked just above; disagreement
                // here is state corruption, surfaced as a typed error.
                None => Err(DurableError::Corrupt("pending finalize vanished during retry")),
            };
        }
        let first_retained_before = self.inner.tweet_base().first_retained();
        self.op_seq += 1;
        let out = self.inner.finalize_with_spill(self.pool.as_mut());

        // Spill faults (pins, losses — whether from these stages or
        // the re-spill after the last snapshot) make resident state
        // diverge from what fault-free replay of this WAL rebuilds:
        // flag the digests and pull the healing snapshot forward.
        let spill_faults = self.inner.spill_pins() + self.inner.spill_losses();
        if spill_faults != self.spill_faults_marked {
            self.spill_faults_marked = spill_faults;
            if !self.degradation.digest_unverified {
                self.degradation.digest_unverified = true;
                self.finalizes_since_snapshot = self.checkpoint_every - 1;
            }
        }
        let flags = if self.degradation.digest_unverified { FINALIZE_FLAG_UNVERIFIED } else { 0 };

        let mut records = vec![WalRecord::Finalize {
            op_seq: self.op_seq,
            watermark: self.inner.scan_watermark() as u64,
            first_retained: self.inner.tweet_base().first_retained() as u64,
            ctrie_version: self.inner.trie_version(),
            surfaces: self.inner.candidate_base().len() as u64,
            mentions: self.inner.candidate_base().total_mentions() as u64,
            digest: self.inner.state_digest(),
            flags,
        }];
        let first_retained_after = self.inner.tweet_base().first_retained();
        if first_retained_after != first_retained_before {
            records.push(WalRecord::Evict {
                op_seq: self.op_seq,
                first_retained: first_retained_after as u64,
            });
        }
        if let Some(pool) = self.pool.as_mut() {
            let spills = pool.take_spill_log();
            if !spills.is_empty() {
                records.push(WalRecord::Spill {
                    op_seq: self.op_seq,
                    count: spills.len() as u64,
                    bytes: spills.iter().map(|(_, b)| b).sum(),
                });
            }
        }
        let encoded: Vec<(u8, Vec<u8>)> = records.iter().map(|r| r.encode()).collect();
        if let Err(e) = self.commit_encoded(&encoded) {
            // State advanced (op_seq stays bumped) but the records are
            // not durable; stash them for re-commit.
            self.pending_finalize = Some(PendingFinalize { encoded, out });
            return Err(e);
        }
        self.stats.finalizes += 1;
        self.after_finalize_commit();
        Ok(out)
    }

    /// Bumps the snapshot cadence counter and, when due, attempts the
    /// snapshot — downgrading a failure to WAL-only degradation
    /// instead of failing the (already durable) finalize. The counter
    /// stays at the threshold on failure, so the next finalize
    /// retries.
    fn after_finalize_commit(&mut self) {
        self.finalizes_since_snapshot += 1;
        if self.finalizes_since_snapshot >= self.checkpoint_every {
            let _ = self.snapshot_now();
        }
    }

    /// Writes a full snapshot at the current `op_seq`, then compacts:
    /// WAL segments at or below the snapshot are dropped and all but
    /// the two newest snapshots pruned. With a spill pool, the state
    /// is rehydrated first so the snapshot is complete, and re-spilled
    /// afterwards (which also compacts the spill file).
    ///
    /// A stashed finalize is re-committed first (WAL order is apply
    /// order); its spans are dropped here — only a retried
    /// [`Self::finalize`] surfaces them.
    pub fn snapshot(&mut self) -> Result<u64, DurableError> {
        self.commit_pending()?;
        self.snapshot_now()
    }

    fn snapshot_now(&mut self) -> Result<u64, DurableError> {
        // Rehydrate so the snapshot is complete. A failure loses the
        // affected surface (its index slot is consumed): record the
        // loss, flag digests unverifiable, and degrade to WAL-only —
        // the snapshot is retried at the next finalize.
        let rehydrated = match self.pool.as_mut() {
            Some(pool) => self.inner.rehydrate_all(pool),
            None => Ok(()),
        };
        if let Err(e) = rehydrated {
            self.degradation.snapshot_failures += 1;
            self.degradation.snapshot_lagging = true;
            self.degradation.rehydrate_losses += 1;
            self.degradation.digest_unverified = true;
            self.push_event(DegradationCause::SnapshotRehydrate, e.to_string());
            return Err(e.into());
        }
        let payload = self.inner.export_state_bytes();
        let bytes = match self.snaps.write(self.op_seq, &payload) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.degradation.snapshot_failures += 1;
                self.degradation.snapshot_lagging = true;
                let cause = if e.is_no_space() {
                    DegradationCause::DiskFull
                } else {
                    DegradationCause::SnapshotWrite
                };
                self.push_event(cause, e.to_string());
                return Err(e.into());
            }
        };
        self.stats.snapshot_bytes_last = bytes;
        self.stats.snapshots += 1;
        // The snapshot is durable: recovery no longer needs the WAL
        // prefix, so WAL-only mode ends and any spill-divergence
        // window is healed (replay now starts from this snapshot).
        self.degradation.snapshot_lagging = false;
        self.degradation.digest_unverified = false;
        self.finalizes_since_snapshot = 0;

        // Compaction: everything at or below the snapshot's op_seq is
        // now redundant. Rotate so the active segment starts fresh,
        // then drop the older segments; keep one fallback snapshot.
        // The audit marker goes into the *new* segment so it survives
        // until the next compaction. All of this is best-effort —
        // replay filters stale records by op_seq, so a failure only
        // costs disk space: degrade, don't fail.
        match self.wal.rotate() {
            Ok(active) => {
                if let Err(e) = self.wal.compact_below(active) {
                    self.degradation.compaction_failures += 1;
                    self.push_event(DegradationCause::Compaction, e.to_string());
                }
            }
            Err(e) => {
                self.degradation.compaction_failures += 1;
                self.push_event(DegradationCause::Compaction, e.to_string());
            }
        }
        let marker = WalRecord::Snapshot { op_seq: self.op_seq, bytes }.encode();
        let _ = self.commit_encoded(&[marker]); // audit-only
        match self.snaps.list() {
            Ok(mut snapshots) => {
                snapshots.sort_unstable();
                if snapshots.len() > 2 {
                    if let Err(e) = self.snaps.prune_below(snapshots[snapshots.len() - 2]) {
                        self.degradation.compaction_failures += 1;
                        self.push_event(DegradationCause::Compaction, e.to_string());
                    }
                }
            }
            Err(e) => {
                self.degradation.compaction_failures += 1;
                self.push_event(DegradationCause::Compaction, e.to_string());
            }
        }

        if let Some(pool) = self.pool.as_mut() {
            pool.take_spill_log(); // re-spills below aren't new deltas
            let mut errors: Vec<TaskError> = Vec::new();
            self.inner.enforce_spill(pool, &mut errors);
            pool.take_spill_log();
            self.inner.push_finalize_errors(errors);
        }
        Ok(bytes)
    }

    /// The wrapped pipeline (read-only — mutating it directly would
    /// desynchronize the WAL).
    pub fn inner(&self) -> &NerGlobalizer<T> {
        &self.inner
    }

    /// Drains fault diagnostics from the wrapped pipeline.
    pub fn take_finalize_errors(&mut self) -> Vec<TaskError> {
        self.inner.take_finalize_errors()
    }

    /// The spill pool, when [`RetentionPolicy::SpillCold`] is active.
    pub fn spill_pool(&self) -> Option<&SpillPool> {
        self.pool.as_ref()
    }

    /// Mutable pool access for the cross-shard merge: peeking a
    /// spilled entry reads through the page cache, which needs `&mut`.
    /// The merge only *reads* entries; it never spills or rehydrates.
    pub(crate) fn spill_pool_mut(&mut self) -> Option<&mut SpillPool> {
        self.pool.as_mut()
    }

    /// The store directory.
    pub fn store_dir(&self) -> &Path {
        &self.dir
    }

    /// The global operation counter (one per batch or finalize).
    pub fn op_seq(&self) -> u64 {
        self.op_seq
    }

    /// Byte accounting for the delta-vs-snapshot comparison.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Typed storage-health report: degradation flags, cumulative
    /// failure counters, spill pin/loss totals and IO retry stats
    /// (see the module docs' degradation ladder).
    pub fn degradation(&self) -> DegradationReport {
        let mut report = self.degradation.clone();
        report.spill_pins = self.inner.spill_pins();
        report.spill_losses = self.inner.spill_losses() + report.rehydrate_losses;
        let io = self.io.stats();
        report.io_retries = io.transient_retries;
        report.io_retry_exhausted = io.retry_exhausted;
        report
    }

    /// Raw retry counters of the shared IO layer.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.stats()
    }

    /// Whether a finalize ran whose WAL records are not yet durable.
    /// Its spans are returned by the next successful
    /// [`Self::finalize`]; until then they are unacknowledged.
    pub fn has_pending_finalize(&self) -> bool {
        self.pending_finalize.is_some()
    }

    /// Decodes this store's live WAL records (checksum-valid prefix of
    /// the surviving segments), for shard catch-up replication: a
    /// lagging shard replays a donor shard's `Batch`/`Finalize` ops
    /// beyond its own `op_seq` through its normal durable path.
    pub(crate) fn logged_records(&self) -> Result<Vec<WalRecord>, DurableError> {
        let replay = self.wal.replay()?;
        let mut records = Vec::with_capacity(replay.records.len());
        for raw in &replay.records {
            records.push(WalRecord::decode(raw.tag, &raw.payload)?);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bases::MentionRecord;

    fn entry() -> SurfaceEntry {
        SurfaceEntry {
            mentions: vec![MentionRecord {
                tweet: 3,
                start: 1,
                end: 2,
                local_emb: vec![0.5, -1.5],
                local_type: Some(ngl_text::EntityType::Person),
                trie_version: 4,
            }],
            clusters: Vec::new(),
            clustered: 1,
            classified: 1,
            touched: 9,
        }
    }

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::Batch {
                op_seq: 1,
                ids: None,
                tweets: vec![vec!["a".into(), "b".into()], vec![]],
            },
            WalRecord::Batch {
                op_seq: 2,
                ids: Some(vec![7, 8]),
                tweets: vec![vec!["x".into()], vec!["y".into()]],
            },
            WalRecord::Finalize {
                op_seq: 3,
                watermark: 4,
                first_retained: 1,
                ctrie_version: 5,
                surfaces: 6,
                mentions: 7,
                digest: 0xDEAD_BEEF,
                flags: 0,
            },
            WalRecord::Finalize {
                op_seq: 4,
                watermark: 4,
                first_retained: 1,
                ctrie_version: 5,
                surfaces: 6,
                mentions: 7,
                digest: 0xDEAD_BEEF,
                flags: FINALIZE_FLAG_UNVERIFIED,
            },
            WalRecord::Evict { op_seq: 3, first_retained: 2 },
            WalRecord::Spill { op_seq: 3, count: 2, bytes: 1024 },
            WalRecord::Snapshot { op_seq: 3, bytes: 4096 },
        ];
        for r in &records {
            let (tag, payload) = r.encode();
            let back = WalRecord::decode(tag, &payload).expect("decode");
            assert_eq!(&back, r);
        }
    }

    /// Retired layouts fail with a typed error, never a panic and
    /// never a silent default: bundle versions 1–3 and a future 5, the
    /// 7-word finalize mark written before every mark carried its
    /// `flags` word, and the retired flagged-finalize tag 6.
    #[test]
    fn retired_formats_are_rejected_with_typed_errors() {
        use crate::classifier::{ClassifierConfig, EntityClassifier};
        use crate::persist::GlobalizerBundle;
        use crate::phrase::{PhraseEmbedder, PhraseEmbedderConfig};
        use ngl_encoder::{EncoderConfig, TokenEncoder};

        let dim = 16;
        let v4 = GlobalizerBundle::from_models(
            TokenEncoder::new(EncoderConfig { out_dim: dim, ..Default::default() }),
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
        )
        .to_bytes();
        // A well-formed bundle whose version field says `version`.
        let bundle = |version: u32| {
            let mut bytes = v4.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            format!("{:?}", GlobalizerBundle::from_bytes(&bytes).map(|_| ()))
        };
        let wal = |tag: u8, words: usize| {
            format!("{:?}", WalRecord::decode(tag, &vec![0; 8 * words]).map(|_| ()))
        };
        let unknown_tag = r#"Err(Invalid("unknown WAL record tag"))"#;
        let cases = [
            ("bundle v1", bundle(1), "Err(UnsupportedVersion(1))"),
            ("bundle v2", bundle(2), "Err(UnsupportedVersion(2))"),
            ("bundle v3", bundle(3), "Err(UnsupportedVersion(3))"),
            ("bundle v4", bundle(4), "Ok(())"),
            ("bundle v5", bundle(5), "Err(UnsupportedVersion(5))"),
            ("finalize tag 2, 7 words", wal(TAG_FINALIZE, 7), "Err(UnexpectedEof)"),
            ("finalize tag 2, 8 words", wal(TAG_FINALIZE, 8), "Ok(())"),
            ("tag 6, 7 words", wal(6, 7), unknown_tag),
            ("tag 6, 8 words", wal(6, 8), unknown_tag),
        ];
        for (case, got, want) in cases {
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn wal_record_decode_rejects_junk() {
        assert!(WalRecord::decode(99, &[]).is_err());
        let (tag, payload) = WalRecord::Evict { op_seq: 1, first_retained: 0 }.encode();
        // Truncated payload.
        assert!(WalRecord::decode(tag, &payload[..payload.len() - 1]).is_err());
        // Trailing bytes.
        let mut long = payload.clone();
        long.push(0);
        assert!(WalRecord::decode(tag, &long).is_err());
        // Implausible batch count.
        let (tag, payload) = WalRecord::Batch { op_seq: 1, ids: None, tweets: vec![] }.encode();
        let mut bad = payload.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(WalRecord::decode(tag, &bad).is_err());
    }

    #[test]
    fn spill_pool_round_trips_take_and_peek() {
        let dir = std::env::temp_dir().join(format!("ngl-spillpool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut pool = SpillPool::create(dir.join("spill.cold")).expect("create");
        assert!(pool.is_empty());

        let e = entry();
        let cache = vec![((3usize, 1usize, 2usize), vec![0.5f32, -1.5])];
        pool.spill("beshear", &e, &cache).expect("spill");
        assert!(pool.contains("beshear"));
        assert_eq!(pool.surfaces(), vec!["beshear".to_string()]);
        assert_eq!(pool.take_spill_log().len(), 1);

        let peeked = pool.peek("beshear").expect("peek io").expect("present");
        assert_eq!(peeked.mentions.len(), 1);
        assert_eq!(peeked.touched, 9);
        assert!(pool.contains("beshear"), "peek must not consume");

        let (back, back_cache) = pool.take("beshear").expect("take io").expect("present");
        assert_eq!(back.mentions[0].trie_version, 4);
        assert_eq!(back_cache, cache);
        assert!(!pool.contains("beshear"));
        assert!(pool.take("beshear").expect("missing ok").is_none());

        pool.reset().expect("reset");
        assert_eq!(pool.file_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
