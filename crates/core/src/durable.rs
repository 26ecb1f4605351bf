//! Durable stream state on top of `ngl-store`: delta checkpointing
//! via a typed write-ahead log, an append-only tweet log and periodic
//! snapshots.
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
//! finalize mark), while a snapshot grows with the stream's candidate
//! state — which is what makes delta checkpointing sublinear per batch.
//!
//! Every `checkpoint_every` finalizes, [`DurableGlobalizer`] writes a
//! snapshot and compacts. The tweet records and the mention-cache
//! entries (span embeddings) go to the lineage's append-only tweet log
//! (`tweets-NNNNNNNN.log`, see `crate::tweet_log`), each once, at the
//! first snapshot that covers it; the snapshot (format word
//! `NGLSNAP3`) holds the canonical checkpoint bytes of
//! [`NerGlobalizer::export_state_bytes`] with the tweet section
//! replaced by a reference into that log, the mentions written without
//! their embeddings and no mention-cache section, so its size no longer
//! grows with the stored tweets and it encodes no embedding of a
//! mention. Commit order: the new log records are
//! written and fsynced, then the snapshot is published (tmp file,
//! fsync, rename), then the WAL rotates and drops the segments wholly
//! below the *older* kept snapshot, older snapshots are pruned (kept:
//! the new one and, as the fallback in case it is found corrupt on
//! open, the one this lineage opened from or last wrote, never a newer
//! file the open skipped as corrupt; the WAL still holds every op
//! after the fallback). The tweet log is never compacted: every
//! snapshot references the whole stream. Snapshots are sequenced
//! by the global **operation counter** (`op_seq`, bumped once per batch
//! and once per finalize); replay skips WAL records with
//! `op_seq <= snapshot.seq`, so a crash *between* snapshot write and
//! WAL compaction never double-applies an operation.
//!
//! ## Recovery
//!
//! [`DurableGlobalizer::open`] = newest valid snapshot + the tweet-log
//! records it references + WAL replay. Every mention of the snapshot is
//! linked to the logged embedding of its span, which its cache entry
//! shares. Log records past the snapshot (a crash between the log's
//! fsync and the snapshot's rename) are cut; a referenced record that
//! is missing or fails its checksum, a mention with no logged
//! embedding, and a snapshot of an older layout fail the open with a
//! typed error.
//! Torn or bit-flipped bytes at the very tail of the final WAL segment
//! are tolerated (the write that was in flight when the process died);
//! the replay stops at the last checksum-valid record, yielding exactly
//! the state of a clean run over the surviving operations. Corruption
//! anywhere earlier is a hard error — silently skipping interior
//! records would violate prefix consistency — and so is a gap in the
//! op sequence between the chosen snapshot and the WAL's records
//! ([`DurableError::OpGap`]): recovery never succeeds short of an
//! acknowledged operation it still has a record of.

use std::path::Path;

use ngl_encoder::ContextualTagger;
use ngl_nn::codec::{get_u64, put_u64, CodecError};
use ngl_store::{IoHandle, IoStatsSnapshot, SnapshotStore, StoreError, Wal, DEFAULT_SEGMENT_BYTES};

use crate::bases::{MentionCache, TweetBase};
use crate::checkpoint::{
    get_logged_checkpoint, get_retired_offset, get_str, put_str, PipelineCheckpoint, TweetLogRef,
};
use crate::persist::PersistError;
use crate::pipeline::{BatchOutput, BatchReport, EncodeMemo, NerGlobalizer, Scan};
use crate::tweet_log::TweetLog;
use ngl_runtime::TaskError;
use ngl_text::Span;

// ---- WAL record codec --------------------------------------------------

const TAG_BATCH: u8 = 1;
const TAG_FINALIZE: u8 = 2;
/// The retired eviction record: a store that never evicted has none.
const TAG_EVICT: u8 = 3;
const TAG_SNAPSHOT: u8 = 5;

/// A typed WAL record. `Batch` and `Finalize` drive replay; `Snapshot`
/// is an audit record that replay skips.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// The inputs of one ingested batch.
    Batch { op_seq: u64, ids: Option<Vec<u64>>, tweets: Vec<Vec<String>> },
    /// One finalize ran; carries the post-state summary + digest. On
    /// disk a retired offset word, always 0, follows the watermark.
    Finalize {
        op_seq: u64,
        watermark: u64,
        ctrie_version: u64,
        surfaces: u64,
        mentions: u64,
        digest: u64,
    },
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
                ctrie_version,
                surfaces,
                mentions,
                digest,
            } => {
                for v in [*op_seq, *watermark, 0, *ctrie_version, *surfaces, *mentions, *digest] {
                    put_u64(&mut buf, v);
                }
                TAG_FINALIZE
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
                get_retired_offset(&mut buf)?;
                WalRecord::Finalize {
                    op_seq,
                    watermark,
                    ctrie_version: get_u64(&mut buf)?,
                    surfaces: get_u64(&mut buf)?,
                    mentions: get_u64(&mut buf)?,
                    digest: get_u64(&mut buf)?,
                }
            }
            TAG_EVICT => return Err(CodecError::Invalid("eviction records are retired")),
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

// ---- snapshot payload --------------------------------------------------

/// Tweet-log segment roll-over size; recovery reads one segment at a
/// time.
const TWEET_LOG_SEGMENT_BYTES: u64 = 1 << 20;

/// First word of a snapshot payload. Both older layouts fail to open:
/// `NGLSNAP2` snapshots encode every mention embedding themselves, twice
/// (in the candidates and in a mention-cache section), and snapshots
/// that carry their tweets inline (written before the tweet log
/// existed) begin with the configuration's `max_mention_len`.
const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"NGLSNAP3");
const SNAPSHOT_MAGIC_V2: u64 = u64::from_le_bytes(*b"NGLSNAP2");

/// Decodes a snapshot payload: the checkpoint, whose tweet store and
/// mention embeddings are still to be read from the tweet log, and the
/// reference into it.
fn decode_snapshot(payload: &[u8]) -> Result<(PipelineCheckpoint, TweetLogRef), DurableError> {
    let mut buf = payload;
    match get_u64(&mut buf)? {
        SNAPSHOT_MAGIC => {}
        SNAPSHOT_MAGIC_V2 => {
            return Err(DurableError::Corrupt(
                "snapshot holds its mention embeddings inline (written by an older format)",
            ));
        }
        _ => {
            return Err(DurableError::Corrupt(
                "snapshot has no tweet-log reference (written by an older format)",
            ));
        }
    }
    let decoded = get_logged_checkpoint(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::Invalid("trailing bytes after snapshot").into());
    }
    Ok(decoded)
}

// ---- errors ------------------------------------------------------------

/// Why a durable operation failed.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying WAL / snapshot store failed.
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
    /// The WAL's next record after op `after` (the chosen snapshot's,
    /// or the last one replayed) is op `found`: the operations between
    /// were acknowledged but are in neither the snapshot nor the log,
    /// so the open fails rather than recover short of them.
    OpGap { after: u64, found: u64 },
    /// The log's structure is inconsistent (e.g. a tweet log that
    /// lacks a record its snapshot references).
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
            DurableError::OpGap { after, found } => write!(
                f,
                "operations missing from the durable log: op {found} follows op {after} \
                 — the snapshot that covered them is unreadable"
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
    /// Tweet records decoded from the tweet log: the snapshot's
    /// tweets.
    pub tweets_from_log: usize,
    /// Mention-cache entries decoded from the tweet log: the
    /// snapshot's span embeddings, each shared by the mentions of its
    /// span.
    pub mentions_from_log: usize,
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
    /// Size of the most recent snapshot file.
    pub snapshot_bytes_last: u64,
    /// Total tweet-log bytes appended over the process lifetime (each
    /// tweet record and mention embedding once, at the first snapshot
    /// that covers it).
    pub tweet_log_bytes: u64,
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
    /// A snapshot (or the tweet-log append before it) could not be
    /// written; durability rides on the WAL alone and the snapshot is
    /// retried at the next finalize.
    SnapshotWrite,
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
/// the current operating mode, cumulative failure counters and IO
/// retry statistics. Obtained from [`DurableGlobalizer::degradation`];
/// never panics, never lies about acknowledged data.
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// Mutations are currently refused (last commit hit ENOSPC).
    /// Cleared by the next successful commit.
    pub read_only: bool,
    /// The last due snapshot failed; WAL-only operation until one
    /// succeeds.
    pub snapshot_lagging: bool,
    /// WAL commits rejected (each one a typed error to the caller —
    /// the operation did not happen and may be retried).
    pub wal_commit_failures: u64,
    /// Snapshot writes that failed.
    pub snapshot_failures: u64,
    /// Post-snapshot rotate/compact/prune failures (disk-space cost
    /// only).
    pub compaction_failures: u64,
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
            || self.wal_commit_failures
                + self.snapshot_failures
                + self.compaction_failures
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
/// logged to a WAL before/after it applies, and full snapshots land
/// every `checkpoint_every` finalizes (see the module docs).
pub struct DurableGlobalizer<T: ContextualTagger> {
    inner: NerGlobalizer<T>,
    wal: Wal,
    snaps: SnapshotStore,
    tweet_log: TweetLog,
    /// The snapshot this lineage opened from or last wrote: the one
    /// kept as the fallback when the next snapshot prunes the rest. A
    /// newer file the open skipped as corrupt is no fallback.
    snapshot_seq: Option<u64>,
    /// The first WAL segment holding records after the newest snapshot
    /// on disk (or after the start of the log, without one): the floor
    /// of WAL compaction once a newer snapshot makes that one the
    /// fallback.
    wal_floor: u64,
    io: IoHandle,
    checkpoint_every: usize,
    op_seq: u64,
    finalizes_since_snapshot: usize,
    stats: StoreStats,
    degradation: DegradationReport,
    pending_finalize: Option<PendingFinalize>,
}

impl<T: ContextualTagger + Sync> DurableGlobalizer<T> {
    /// Opens (or creates) the durable store at `dir` and recovers into
    /// `inner`: newest valid snapshot first, then WAL replay with
    /// per-finalize digest verification. `inner` must be a freshly
    /// built pipeline with the *same models and config* as the run
    /// that wrote the store — determinism of replay depends on it.
    /// A snapshot lands every `checkpoint_every` finalizes (min 1),
    /// counted across opens: the finalizes replayed from the WAL count
    /// toward the next one.
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
    /// WAL and snapshot store share `io`, so a chaos plan sees every
    /// store IO call in one global order and the retry/degradation
    /// machinery is exercised end to end.
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
        let tweet_log = match snaps.latest()? {
            Some((seq, payload)) => {
                let (mut ck, log_ref) = decode_snapshot(&payload)?;
                drop(payload);
                let (log, logged) =
                    TweetLog::open(&dir, io.clone(), &log_ref, TWEET_LOG_SEGMENT_BYTES)?;
                report.tweets_from_log = logged.tweets.len();
                report.mentions_from_log = logged.mentions.len();
                ck.tweets = TweetBase::from_records(logged.tweets);
                let cache = MentionCache::from_logged(logged.mentions)
                    .ok_or(DurableError::Corrupt("tweet log holds a mention embedding twice"))?;
                inner.import_logged_state(ck, cache)?;
                report.snapshot_seq = Some(seq);
                op_seq = seq;
                log
            }
            None => {
                let fresh = TweetLogRef::default();
                TweetLog::open(&dir, io.clone(), &fresh, TWEET_LOG_SEGMENT_BYTES)?.0
            }
        };
        // From here on the pipeline lists the cache entries it admits,
        // so each snapshot logs the ones its predecessor did not.
        inner.track_mention_log();

        let replay = wal.replay()?;
        // `Wal::open` repairs (cuts) a torn active-segment tail before
        // replay sees it — surface either source of tearing.
        report.torn_tail = replay.torn_tail || wal.repaired_tail();
        let mut records = Vec::with_capacity(replay.records.len());
        for raw in &replay.records {
            records.push(WalRecord::decode(raw.tag, &raw.payload)?);
        }
        // The ops after the snapshot start here (or, with none logged
        // yet, in the segment that takes the next append).
        let wal_floor = records
            .iter()
            .zip(&replay.segments)
            .find(|(record, _)| record.op_seq() > op_seq)
            .map_or(wal.active_segment(), |(_, &segment)| segment);

        // Concurrent replay: batches must still *apply* one at a time
        // in log order (barrier semantics, digest verification), but
        // the encoder work inside them is order-free. Group the token
        // vectors of every batch up to each Finalize barrier; the first
        // batch of a group encodes the whole group concurrently on the
        // pool into one memo, which every batch of the group borrows.
        // A memo miss just encodes inline, exactly as live ingest does.
        let snap_seq = op_seq;
        let mut groups: Vec<Vec<Vec<String>>> = vec![Vec::new()];
        for record in &records {
            match record {
                WalRecord::Batch { op_seq, tweets, .. } if *op_seq > snap_seq => {
                    // `groups` starts non-empty and only grows; if that
                    // ever breaks, the memo is best-effort anyway — skip
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
        let mut memo = None;

        for record in records {
            let seq = record.op_seq();
            match record {
                // Inside the snapshot, or an audit record of an applied
                // op (snapshot markers were consumed above).
                _ if seq <= op_seq => {}
                WalRecord::Batch { ids, tweets, .. } if seq == op_seq + 1 => {
                    let memo = memo.get_or_insert_with(|| inner.encode_memo(&group));
                    report.batch_ids.push(ids.clone().unwrap_or_default());
                    inner.ingest_with_memo(tweets, ids, Some(memo));
                    op_seq = seq;
                    report.replayed_batches += 1;
                }
                WalRecord::Finalize { digest, .. } if seq == op_seq + 1 => {
                    inner.finalize_scanned(None, false);
                    let replayed = inner.state_digest();
                    if replayed != digest {
                        return Err(DurableError::DigestMismatch {
                            op_seq: seq,
                            logged: digest,
                            replayed,
                        });
                    }
                    op_seq = seq;
                    report.replayed_finalizes += 1;
                    // Barrier crossed: this group's memo is spent.
                    memo = None;
                    group = groups.next().unwrap_or_default();
                }
                // An op past the next one, or an audit record of an op
                // the log no longer holds.
                _ => return Err(DurableError::OpGap { after: op_seq, found: seq }),
            }
        }

        report.watermark = inner.scan_watermark();
        report.surfaces = inner.n_surfaces();
        report.resident_surfaces = inner.candidate_base().len();
        report.tweets = inner.tweet_base().len();
        report.digest = inner.state_digest();
        Ok((
            Self {
                inner,
                wal,
                snaps,
                tweet_log,
                snapshot_seq: report.snapshot_seq,
                wal_floor,
                io,
                checkpoint_every: checkpoint_every.max(1),
                op_seq,
                // The replayed finalizes ran since the snapshot, so a
                // store driven by many short-lived processes (one `ngl
                // tag` run, one finalize each) still snapshots.
                finalizes_since_snapshot: report.replayed_finalizes,
                stats: StoreStats::default(),
                degradation: DegradationReport::default(),
                pending_finalize: None,
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
        self.ingest_with_memo(tweets, ids, None)
    }

    /// [`Self::ingest`] through [`NerGlobalizer::ingest_with_memo`]:
    /// the shards of a sharded batch borrow one memo.
    pub(crate) fn ingest_with_memo(
        &mut self,
        tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
        memo: Option<&EncodeMemo>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        self.stats.delta_bytes_last = 0;
        self.commit_pending()?;
        self.commit_encoded(&[encode_batch(self.op_seq + 1, ids.as_deref(), &tweets)])?;
        self.op_seq += 1;
        self.stats.batches += 1;
        Ok(self.inner.ingest_with_memo(tweets, ids, memo))
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
    /// (with its post-state digest), and snapshots + compacts every
    /// `checkpoint_every` finalizes.
    ///
    /// Failure handling, rung by rung:
    /// - **WAL commit fails**: the stages already ran, so the records
    ///   and spans are stashed and a typed error returned — the spans
    ///   must not be acknowledged. The next successful durable
    ///   operation re-commits the stashed records first (keeping WAL
    ///   order equal to apply order); retrying `finalize` itself
    ///   returns the stashed spans without re-running the stages.
    /// - **Snapshot fails**: the finalize still succeeds; the store
    ///   degrades to WAL-only and retries the snapshot next finalize.
    pub fn finalize(&mut self) -> Result<Vec<Vec<Span>>, DurableError> {
        self.finalize_scanned(None, true)
    }

    /// [`Self::finalize`] over a scan shared by the shards of one
    /// sharded finalize, emitting spans only when `emit` is set (see
    /// [`NerGlobalizer::finalize_scanned`]). A retry of a stashed
    /// finalize runs no stages, ignores both and returns the stashed
    /// spans.
    pub(crate) fn finalize_scanned(
        &mut self,
        scan: Option<&Scan>,
        emit: bool,
    ) -> Result<Vec<Vec<Span>>, DurableError> {
        if self.pending_finalize.is_some() {
            return match self.commit_pending()? {
                Some(out) => Ok(out),
                // `pending_finalize` was checked just above; disagreement
                // here is state corruption, surfaced as a typed error.
                None => Err(DurableError::Corrupt("pending finalize vanished during retry")),
            };
        }
        self.op_seq += 1;
        let out = self.inner.finalize_scanned(scan, emit);

        let mark = WalRecord::Finalize {
            op_seq: self.op_seq,
            watermark: self.inner.scan_watermark() as u64,
            ctrie_version: self.inner.trie_version(),
            surfaces: self.inner.candidate_base().len() as u64,
            mentions: self.inner.candidate_base().total_mentions() as u64,
            digest: self.inner.state_digest(),
        };
        let encoded = vec![mark.encode()];
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

    /// Writes a snapshot at the current `op_seq` — the tweet log takes
    /// the tweet records and mention embeddings added since the
    /// previous one first — then compacts:
    /// WAL segments below the previous snapshot are dropped and
    /// snapshots below the previous one (the one this lineage opened
    /// from or last wrote) pruned.
    ///
    /// A stashed finalize is re-committed first (WAL order is apply
    /// order); its spans are dropped here — only a retried
    /// [`Self::finalize`] surfaces them.
    pub fn snapshot(&mut self) -> Result<u64, DurableError> {
        self.commit_pending()?;
        self.snapshot_now()
    }

    fn snapshot_now(&mut self) -> Result<u64, DurableError> {
        // The tweet records and mention embeddings the snapshot will
        // reference are durable in the log before it is published.
        let appended = self.tweet_log.append(self.inner.tweet_base(), self.inner.mention_cache());
        let (log_ref, appended) = match appended {
            Ok(done) => done,
            Err(e) => return Err(self.snapshot_failed(e)),
        };
        self.inner.mark_mentions_logged();
        self.stats.tweet_log_bytes += appended;
        // The last snapshot's size is the next one's estimate: the state
        // mostly grows between snapshots, so the file image is usually
        // one allocation.
        let hint = self.stats.snapshot_bytes_last as usize;
        let inner = &self.inner;
        let written = self.snaps.write_with(self.op_seq, hint, |buf| {
            put_u64(buf, SNAPSHOT_MAGIC);
            inner.put_state_bytes(buf, Some(&log_ref));
        });
        let bytes = match written {
            Ok(bytes) => bytes,
            Err(e) => return Err(self.snapshot_failed(e)),
        };
        self.stats.snapshot_bytes_last = bytes;
        self.stats.snapshots += 1;
        // The snapshot is durable: recovery no longer needs the WAL
        // prefix, so WAL-only mode ends.
        self.degradation.snapshot_lagging = false;
        self.finalizes_since_snapshot = 0;

        // Compaction: rotate so the records after this snapshot start
        // in a fresh segment, then drop the segments below the one
        // that started after the previous snapshot — the fallback kept
        // below — so the WAL still reaches back to it. The audit marker
        // goes into the *new* segment. All of this is best-effort —
        // replay filters stale records by op_seq, so a failure only
        // costs disk space: degrade, don't fail.
        let rotated = self.wal.rotate();
        let floor = std::mem::replace(&mut self.wal_floor, self.wal.active_segment());
        if let Err(e) = rotated.and_then(|_| self.wal.compact_below(floor)) {
            self.compaction_failed(e);
        }
        let marker = WalRecord::Snapshot { op_seq: self.op_seq, bytes }.encode();
        let _ = self.commit_encoded(&[marker]); // audit-only

        // Prune below the snapshot this lineage opened from or last
        // wrote, not below the second-newest file, which may be one the
        // open skipped as corrupt. A snapshot at an unchanged op keeps
        // the older one.
        let fallback = self.snapshot_seq.replace(self.op_seq).filter(|&seq| seq < self.op_seq);
        if let Err(e) = fallback.map_or(Ok(0), |seq| self.snaps.prune_below(seq)) {
            self.compaction_failed(e);
        }
        Ok(bytes)
    }

    /// Records a failed snapshot (tweet-log append or snapshot write):
    /// WAL-only until one succeeds.
    fn snapshot_failed(&mut self, e: StoreError) -> DurableError {
        self.degradation.snapshot_failures += 1;
        self.degradation.snapshot_lagging = true;
        let cause = if e.is_no_space() {
            DegradationCause::DiskFull
        } else {
            DegradationCause::SnapshotWrite
        };
        self.push_event(cause, e.to_string());
        e.into()
    }

    /// Records a failed post-snapshot compaction step.
    fn compaction_failed(&mut self, e: StoreError) {
        self.degradation.compaction_failures += 1;
        self.push_event(DegradationCause::Compaction, e.to_string());
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

    /// Appends diagnostics for [`Self::take_finalize_errors`] (a shared
    /// scan's errors, reported on the shard that computed it).
    pub(crate) fn push_finalize_errors(&mut self, errors: Vec<TaskError>) {
        self.inner.push_finalize_errors(errors);
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
    /// failure counters and IO retry stats (see the module docs'
    /// degradation ladder).
    pub fn degradation(&self) -> DegradationReport {
        let mut report = self.degradation.clone();
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
                ctrie_version: 5,
                surfaces: 6,
                mentions: 7,
                digest: 0xDEAD_BEEF,
            },
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
    /// 8-word finalize mark whose last word flagged unverifiable
    /// digests, a finalize mark with a non-zero eviction offset, the
    /// eviction tag 3, the retired spill tag 4 and flagged-finalize
    /// tag 6.
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
        // A finalize mark whose third word, the eviction offset, is 1.
        let evicted_finalize = {
            let mut payload = vec![0; 8 * 7];
            payload[16] = 1;
            format!("{:?}", WalRecord::decode(TAG_FINALIZE, &payload).map(|_| ()))
        };
        let unknown_tag = r#"Err(Invalid("unknown WAL record tag"))"#;
        let cases = [
            ("bundle v1", bundle(1), "Err(UnsupportedVersion(1))"),
            ("bundle v2", bundle(2), "Err(UnsupportedVersion(2))"),
            ("bundle v3", bundle(3), "Err(UnsupportedVersion(3))"),
            ("bundle v4", bundle(4), "Ok(())"),
            ("bundle v5", bundle(5), "Err(UnsupportedVersion(5))"),
            ("finalize tag 2, 7 words", wal(TAG_FINALIZE, 7), "Ok(())"),
            (
                "finalize tag 2, 8 words",
                wal(TAG_FINALIZE, 8),
                r#"Err(Invalid("trailing bytes in WAL record"))"#,
            ),
            (
                "finalize tag 2, offset 1",
                evicted_finalize,
                r#"Err(Invalid("tweet eviction offset is retired"))"#,
            ),
            (
                "evict tag 3, 2 words",
                wal(TAG_EVICT, 2),
                r#"Err(Invalid("eviction records are retired"))"#,
            ),
            ("tag 4, 3 words", wal(4, 3), unknown_tag),
            ("tag 6, 7 words", wal(6, 7), unknown_tag),
            ("tag 6, 8 words", wal(6, 8), unknown_tag),
        ];
        for (case, got, want) in cases {
            assert_eq!(got, want, "{case}");
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ngl-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// What one snapshot writes — its file plus the tweet-log records
    /// appended for it — follows the tweets since the previous snapshot,
    /// while the inline encoding of the same state grows with the stream.
    #[test]
    fn snapshot_bytes_follow_the_tweets_since_the_last_snapshot() {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let dir = scratch("snapshot-bytes");
        let (mut durable, _) =
            DurableGlobalizer::open(pipeline(AblationMode::LocalOnly), &dir, 2).expect("open");
        let tweets = ["Beshear spoke today", "thanks beshear again", "Italy won it"];
        let mut written = Vec::new();
        let mut log_bytes = 0;
        for i in 0..40 {
            let batch = (0..3).map(|k| toks(tweets[(i + k) % 3])).collect();
            durable.ingest(batch, None).expect("batch");
            durable.finalize().expect("finalize");
            let stats = durable.stats();
            if stats.snapshots > written.len() as u64 {
                written.push(stats.snapshot_bytes_last + stats.tweet_log_bytes - log_bytes);
                log_bytes = stats.tweet_log_bytes;
            }
        }
        assert_eq!(written.len(), 20);
        let (first, last) = (written[0], written[19]);
        assert!(last <= first + first / 10, "snapshot writes grew: first {first} B, last {last} B");
        let inline = durable.inner().export_state_bytes().len() as u64;
        assert!(inline > 8 * last, "inline state {inline} B vs last snapshot write {last} B");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A process that writes one snapshot per open (as `ngl tag
    /// --store-dir` does) still compacts: the floor set at open is the
    /// segment of the first op after the chosen snapshot, so the WAL
    /// keeps the ops since the older kept snapshot and no more.
    #[test]
    fn reopen_cycles_keep_the_wal_bounded() {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let dir = scratch("reopen-floor");
        for i in 0..12 {
            let (mut durable, report) =
                DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 1).expect("open");
            assert_eq!(report.snapshot_seq, (i > 0).then_some(2 * i as u64));
            durable.ingest(vec![toks("Beshear spoke"), toks("Italy won")], None).expect("batch");
            durable.finalize().expect("finalize");
            let segments: Vec<String> = std::fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("wal-"))
                .collect();
            assert!(segments.len() <= 3, "cycle {i}: WAL segments {segments:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store driven by one finalize per open (as repeated `ngl tag
    /// --store-dir` runs drive it) snapshots on the cadence all the
    /// same: the finalizes each open replays count toward the next
    /// snapshot.
    #[test]
    fn one_finalize_per_open_still_snapshots_on_cadence() {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let dir = scratch("finalize-per-open");
        for i in 0..10u64 {
            let (mut durable, report) =
                DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 3).expect("open");
            assert_eq!(report.snapshot_seq, (i >= 3).then_some(6 * (i / 3)), "open {i}");
            assert_eq!(report.replayed_finalizes as u64, i % 3, "open {i}");
            durable.ingest(vec![toks("Beshear spoke"), toks("Italy won")], None).expect("batch");
            durable.finalize().expect("finalize");
            assert_eq!(durable.stats().snapshots, u64::from(i % 3 == 2), "open {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store whose snapshot carries its tweets inline (the layout
    /// before the tweet log) fails to open with a typed error.
    #[test]
    fn snapshots_with_inline_tweets_are_rejected_with_a_typed_error() {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let dir = scratch("inline-snapshot");
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke today"), toks("thanks beshear")], None);
        p.finalize();
        SnapshotStore::open(&dir).expect("snaps").write(2, &p.export_state_bytes()).expect("write");
        let err = DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 8)
            .err()
            .expect("an inline-tweet snapshot must not open");
        assert!(
            matches!(err, DurableError::Corrupt(what) if what.contains("older format")),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The mention records of the tweet log in `dir`, as `(index, span)`
    /// in log order.
    fn logged_mentions(dir: &Path) -> Vec<(u64, (usize, usize, usize))> {
        use std::ops::ControlFlow;
        let mut out = Vec::new();
        let io = IoHandle::real();
        ngl_store::read_log(&io, dir, ngl_store::TWEET_LOG_PREFIX, |r| {
            if r.tag == 2 {
                let mut buf = r.payload;
                let index = get_u64(&mut buf)?;
                get_u64(&mut buf)?;
                let words = [get_u64(&mut buf)?, get_u64(&mut buf)?, get_u64(&mut buf)?];
                out.push((index, (words[0] as usize, words[1] as usize, words[2] as usize)));
            }
            Ok::<_, DurableError>(ControlFlow::Continue(()))
        })
        .expect("read the tweet log");
        out
    }

    /// A FullGlobal run that snapshots logs exactly `cached_mentions()`
    /// entries, each once, in admission order, including the spans a
    /// CTrie version bump admits from old tweets.
    #[test]
    fn snapshots_log_each_cached_mention_once() {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let dir = scratch("mention-log");
        let (mut durable, _) =
            DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 2).expect("open");
        // "wolves" in tweet 1 becomes a surface only when tweet 5
        // seeds it: the rescan at that version bump admits the old span.
        let tweets = [
            "Beshear spoke today",
            "thanks beshear and wolves",
            "Italy won it",
            "Madrid and italy tonight",
            "beshear in madrid",
            "Wolves beat Madrid",
        ];
        for i in 0..12 {
            let batch = (0..2).map(|k| toks(tweets[(2 * i + k) % tweets.len()])).collect();
            durable.ingest(batch, None).expect("batch");
            durable.finalize().expect("finalize");
            if durable.finalizes_since_snapshot > 0 {
                continue;
            }
            let logged = logged_mentions(&dir);
            let cache = durable.inner().mention_cache();
            assert_eq!(logged.len(), cache.len(), "round {i}");
            assert!(logged.iter().map(|&(index, _)| index).eq(0..logged.len() as u64));
            let spans: std::collections::HashSet<_> = logged.iter().map(|&(_, key)| key).collect();
            assert_eq!(spans.len(), logged.len(), "round {i}: a span logged twice");
            assert!(cache.map().keys().all(|key| spans.contains(key)), "round {i}");
            assert_eq!(cache.unlogged().len(), 0, "round {i}");
        }
        let logged = logged_mentions(&dir);
        let at = |key| logged.iter().position(|&(_, k)| k == key).expect("logged");
        assert!(at((1, 3, 4)) > at((3, 0, 1)), "the old span is admitted at the bump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs a few snapshotted finalizes in `dir` and returns the newest
    /// snapshot's `(seq, payload)`.
    fn snapshotted_store(dir: &Path) -> (u64, Vec<u8>) {
        use crate::pipeline::tests::{pipeline, toks};
        use crate::pipeline::AblationMode;
        let (mut durable, _) =
            DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), dir, 2).expect("open");
        for batch in [["Beshear spoke today", "Italy won it"], ["thanks beshear", "italy again"]] {
            durable.ingest(batch.iter().map(|t| toks(t)).collect(), None).expect("batch");
            durable.finalize().expect("finalize");
        }
        assert_eq!(durable.stats().snapshots, 1);
        SnapshotStore::open(dir).expect("snaps").latest().expect("read").expect("a snapshot")
    }

    /// A snapshot in the previous layout (`NGLSNAP2`, every mention
    /// embedding encoded twice in the snapshot itself) fails to open with
    /// a typed error.
    #[test]
    fn snapshots_with_inline_mention_embeddings_are_rejected_with_a_typed_error() {
        use crate::pipeline::tests::pipeline;
        use crate::pipeline::AblationMode;
        let dir = scratch("snap2");
        let (seq, mut payload) = snapshotted_store(&dir);
        payload[..8].copy_from_slice(b"NGLSNAP2");
        SnapshotStore::open(&dir).expect("snaps").write(seq, &payload).expect("write");
        let err = DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 2)
            .err()
            .expect("an NGLSNAP2 snapshot must not open");
        assert!(
            matches!(err, DurableError::Corrupt(what) if what.contains("older format")),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot that names a mention whose span has no embedding in
    /// the tweet log fails to open with a typed error.
    #[test]
    fn a_mention_without_a_logged_embedding_fails_open_typed() {
        use crate::pipeline::tests::pipeline;
        use crate::pipeline::AblationMode;
        let dir = scratch("unlogged-mention");
        let (seq, payload) = snapshotted_store(&dir);
        let (mut ck, log) = get_logged_checkpoint(&mut &payload[8..]).expect("decode");
        let (_, entry) = ck.candidates.iter_mut().next().expect("an entry");
        entry.mentions[0].end += 40;
        let mut forged = Vec::new();
        put_u64(&mut forged, SNAPSHOT_MAGIC);
        crate::checkpoint::put_checkpoint(&mut forged, ck.state_ref(), Some(&log));
        SnapshotStore::open(&dir).expect("snaps").write(seq, &forged).expect("write");
        let err = DurableGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 2)
            .err()
            .expect("a mention without a logged embedding must not open");
        assert!(
            matches!(
                err,
                DurableError::Persist(PersistError::Inconsistent(what))
                    if what.contains("no logged embedding")
            ),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_record_decode_rejects_junk() {
        assert!(WalRecord::decode(99, &[]).is_err());
        let (tag, payload) = WalRecord::Snapshot { op_seq: 1, bytes: 0 }.encode();
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
}
