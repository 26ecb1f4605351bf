//! Injectable IO layer for the durable store.
//!
//! Every byte [`crate::Wal`] and [`crate::SnapshotStore`] move to or
//! from disk goes through a [`StoreIo`] implementation, shared via a
//! cloneable [`IoHandle`]. Production code uses the passthrough
//! [`RealIo`]; chaos tests wrap it in [`ChaosIo`],
//! which consults a seeded [`IoFaultPlan`] (a pure value from
//! `ngl-runtime::faults` — no globals) to fail specific calls
//! deterministically by **(op, path-class, call-index)**.
//!
//! [`IoHandle`] also owns the [`RetryPolicy`]: transient errors (EINTR,
//! EAGAIN) are retried in place with a bounded, deterministic backoff
//! schedule whose sleep is injectable so tests run instantly. Disk-full
//! and persistent errors are *never* retried here — they surface
//! immediately so the layers above can degrade in a typed way instead
//! of spinning.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ngl_runtime::faults::{IoFaultKind, IoFaultPlan, IoOp, IoPathClass};

use crate::StoreError;

/// Environment variable overriding [`RetryPolicy::max_attempts`].
pub const STORE_RETRIES_ENV: &str = "NGL_STORE_RETRIES";

/// Raw OS error codes the classifier understands. Matching on raw
/// codes (not `io::ErrorKind` variants, several of which are unstable
/// or version-dependent) keeps classification deterministic across
/// toolchains — and lets [`ChaosIo`] fabricate each class exactly.
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const ENOSPC: i32 = 28;
const EDQUOT: i32 = 122;

/// How an `io::Error` should be handled by the retry/degradation
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorClass {
    /// Interrupted/would-block: retrying the same call may succeed.
    Transient,
    /// Device out of space (or quota): retrying is pointless until an
    /// operator intervenes; the store must degrade to read-only.
    NoSpace,
    /// Anything else: treated as a persistent failure of this op.
    Persistent,
}

/// Classifies an IO error for retry and degradation decisions.
pub fn classify_io_error(e: &std::io::Error) -> IoErrorClass {
    match e.raw_os_error() {
        Some(EINTR) | Some(EAGAIN) => IoErrorClass::Transient,
        Some(ENOSPC) | Some(EDQUOT) => IoErrorClass::NoSpace,
        _ => match e.kind() {
            std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock => {
                IoErrorClass::Transient
            }
            _ => IoErrorClass::Persistent,
        },
    }
}

impl StoreError {
    /// Whether this error is a disk-full (ENOSPC/EDQUOT) condition.
    pub fn is_no_space(&self) -> bool {
        matches!(self, StoreError::Io(e) if classify_io_error(e) == IoErrorClass::NoSpace)
    }
}

/// Classifies a store path the way [`ChaosIo`] schedules faults:
/// by file-name shape, so a plan can target "WAL segments" without
/// naming one.
pub fn classify_path(path: &Path) -> IoPathClass {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return IoPathClass::Other;
    };
    if name.starts_with(crate::WAL_PREFIX) && name.ends_with(".log") {
        IoPathClass::Wal
    } else if name.starts_with(crate::TWEET_LOG_PREFIX) && name.ends_with(".log") {
        IoPathClass::TweetLog
    } else if name.starts_with("snap-") {
        // Covers both published snapshots (.ck) and in-flight (.ck.tmp).
        IoPathClass::Snapshot
    } else if name == "model.meta" {
        IoPathClass::Meta
    } else {
        IoPathClass::Other
    }
}

/// The filesystem surface the store needs, expressed path-first so a
/// fault layer can classify every call. All ops are positional or
/// whole-file — implementations may cache open handles, but callers
/// never hold one, which is what makes the layer swappable.
pub trait StoreIo: Send {
    /// Creates `path` and all missing parents.
    fn create_dir_all(&mut self, path: &Path) -> std::io::Result<()>;
    /// Every entry directly inside `path`.
    fn list_dir(&mut self, path: &Path) -> std::io::Result<Vec<PathBuf>>;
    /// Reads the whole file.
    fn read_file(&mut self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Reads exactly `len` bytes starting at `offset`.
    fn read_at(&mut self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>>;
    /// Creates (or truncates) the file and writes `data`.
    fn write_file(&mut self, path: &Path, data: &[u8]) -> std::io::Result<()>;
    /// Writes `data` at `offset`, creating the file if missing. Never
    /// truncates — a short write followed by a retry at the same offset
    /// overwrites the torn bytes.
    fn write_at(&mut self, path: &Path, offset: u64, data: &[u8]) -> std::io::Result<()>;
    /// Truncates (or extends with zeros) the file to `len` bytes.
    fn set_len(&mut self, path: &Path, len: u64) -> std::io::Result<()>;
    /// Current byte length of the file.
    fn file_len(&mut self, path: &Path) -> std::io::Result<u64>;
    /// Flushes file contents and metadata to stable storage.
    fn sync(&mut self, path: &Path) -> std::io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Removes the file.
    fn remove(&mut self, path: &Path) -> std::io::Result<()>;
}

/// Passthrough [`StoreIo`] over `std::fs`, with a handle cache so the
/// positional ops don't pay an `open(2)` per call.
#[derive(Default)]
pub struct RealIo {
    files: HashMap<PathBuf, File>,
}

impl RealIo {
    /// A fresh passthrough IO layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn handle(&mut self, path: &Path, create: bool) -> std::io::Result<&mut File> {
        use std::collections::hash_map::Entry;
        match self.files.entry(path.to_path_buf()) {
            Entry::Occupied(slot) => Ok(slot.into_mut()),
            Entry::Vacant(slot) => {
                let file = OpenOptions::new().read(true).write(true).create(create).open(path)?;
                Ok(slot.insert(file))
            }
        }
    }
}

impl StoreIo for RealIo {
    fn create_dir_all(&mut self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&mut self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn read_file(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_at(&mut self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let file = self.handle(path, false)?;
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn write_file(&mut self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        // A plain create would leave any cached handle pointing at the
        // same inode with a stale cursor; replace it outright.
        self.files.remove(path);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(data)?;
        self.files.insert(path.to_path_buf(), file);
        Ok(())
    }

    fn write_at(&mut self, path: &Path, offset: u64, data: &[u8]) -> std::io::Result<()> {
        let file = self.handle(path, true)?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(data)
    }

    fn set_len(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.handle(path, false)?.set_len(len)
    }

    fn file_len(&mut self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn sync(&mut self, path: &Path) -> std::io::Result<()> {
        self.handle(path, false)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.files.remove(from);
        self.files.remove(to);
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        self.files.remove(path);
        std::fs::remove_file(path)
    }
}

/// A [`StoreIo`] that injects the faults of a seeded [`IoFaultPlan`]
/// into an inner layer. Each fault-eligible call bumps a per-(op,
/// path-class) counter; when the plan schedules a fault at that index
/// the call fails with a fabricated OS error of the right shape:
///
/// - [`IoFaultKind::Transient`] → EINTR, *before* touching the file
///   (so a retry observes untouched state);
/// - [`IoFaultKind::NoSpace`] → ENOSPC for the scheduled span;
/// - [`IoFaultKind::TornWrite`] → the leading `keep_pct`% of the
///   buffer reaches the inner layer, then EIO — the torn bytes stay
///   on disk exactly as a real partial write would leave them;
/// - [`IoFaultKind::SyncFail`] → fsync reports EIO (data may or may
///   not be durable — the caller must not trust it).
///
/// Call counters only advance on fault-eligible ops, and all store IO
/// happens on the caller's thread, so a schedule hits the same calls
/// regardless of `NGL_THREADS`.
pub struct ChaosIo {
    inner: Box<dyn StoreIo>,
    plan: IoFaultPlan,
    counters: HashMap<(IoOp, IoPathClass), u64>,
}

impl ChaosIo {
    /// Wraps `inner`, injecting the faults scheduled by `plan`.
    pub fn new(inner: Box<dyn StoreIo>, plan: IoFaultPlan) -> Self {
        Self { inner, plan, counters: HashMap::new() }
    }

    /// Wraps [`RealIo`] with the faults of `plan`.
    pub fn over_real(plan: IoFaultPlan) -> Self {
        Self::new(Box::new(RealIo::new()), plan)
    }

    /// Advances the (op, class) counter and returns the fault (if any)
    /// scheduled for this call.
    fn tick(&mut self, op: IoOp, path: &Path) -> Option<IoFaultKind> {
        let class = classify_path(path);
        let index = self.counters.entry((op, class)).or_insert(0);
        let at = *index;
        *index += 1;
        self.plan.fault_at(op, class, at)
    }
}

/// Fabricates an injected error carrying `code` as its raw OS error.
/// `raw_os_error` must round-trip (the classifier keys on it), which
/// rules out wrapping in a descriptive message — `io::Error::new`
/// produces a custom error whose raw code is `None`.
fn injected_err(code: i32) -> std::io::Error {
    std::io::Error::from_raw_os_error(code)
}

impl ChaosIo {
    fn fail(kind: IoFaultKind) -> std::io::Error {
        match kind {
            IoFaultKind::Transient => injected_err(EINTR),
            IoFaultKind::NoSpace { .. } => injected_err(ENOSPC),
            // EIO for both: a torn write and a failed fsync surface to
            // the caller as generic persistent IO failures.
            IoFaultKind::TornWrite { .. } | IoFaultKind::SyncFail => injected_err(5),
        }
    }
}

impl StoreIo for ChaosIo {
    fn create_dir_all(&mut self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&mut self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn read_file(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        match self.tick(IoOp::Read, path) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.read_file(path),
        }
    }

    fn read_at(&mut self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        match self.tick(IoOp::Read, path) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.read_at(path, offset, len),
        }
    }

    fn write_file(&mut self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        match self.tick(IoOp::Write, path) {
            Some(IoFaultKind::TornWrite { keep_pct }) => {
                let keep = data.len() * (keep_pct as usize).min(100) / 100;
                self.inner.write_file(path, &data[..keep])?;
                Err(Self::fail(IoFaultKind::TornWrite { keep_pct }))
            }
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.write_file(path, data),
        }
    }

    fn write_at(&mut self, path: &Path, offset: u64, data: &[u8]) -> std::io::Result<()> {
        match self.tick(IoOp::Write, path) {
            Some(IoFaultKind::TornWrite { keep_pct }) => {
                let keep = data.len() * (keep_pct as usize).min(100) / 100;
                self.inner.write_at(path, offset, &data[..keep])?;
                Err(Self::fail(IoFaultKind::TornWrite { keep_pct }))
            }
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.write_at(path, offset, data),
        }
    }

    fn set_len(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        match self.tick(IoOp::Write, path) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.set_len(path, len),
        }
    }

    fn file_len(&mut self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }

    fn sync(&mut self, path: &Path) -> std::io::Result<()> {
        match self.tick(IoOp::Sync, path) {
            // A failed fsync may still have flushed everything — or
            // nothing. Forward to the inner layer *then* report
            // failure, modelling the worst case a caller must assume.
            Some(IoFaultKind::SyncFail) => {
                self.inner.sync(path).ok();
                Err(Self::fail(IoFaultKind::SyncFail))
            }
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.sync(path),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.tick(IoOp::Rename, from) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.rename(from, to),
        }
    }

    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        match self.tick(IoOp::Remove, path) {
            Some(kind) => Err(Self::fail(kind)),
            None => self.inner.remove(path),
        }
    }
}

/// How transient-error backoff sleeps are performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sleeper {
    /// `std::thread::sleep` — production behaviour.
    Thread,
    /// No sleeping at all — chaos tests retry instantly.
    Skip,
}

/// Deterministic bounded retry for transient IO errors.
///
/// An op is attempted up to `max_attempts` times; before retry `k`
/// (1-based) the policy sleeps `backoff_schedule[min(k-1, len-1)]`.
/// Only [`IoErrorClass::Transient`] errors are retried — disk-full and
/// persistent errors always surface on the first attempt.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per op (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before each retry; the last entry repeats.
    pub backoff_schedule: Vec<Duration>,
    /// How backoff sleeps are executed (injectable for tests).
    pub sleeper: Sleeper,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_schedule: vec![
                Duration::from_millis(1),
                Duration::from_millis(5),
                Duration::from_millis(20),
            ],
            sleeper: Sleeper::Thread,
        }
    }
}

impl RetryPolicy {
    /// The default policy with `max_attempts` overridden by
    /// [`STORE_RETRIES_ENV`] when set (clamped to `1..=100`).
    pub fn from_env() -> Self {
        let mut policy = Self::default();
        if let Ok(v) = std::env::var(STORE_RETRIES_ENV) {
            if let Ok(n) = v.trim().parse::<u32>() {
                policy.max_attempts = n.clamp(1, 100);
            }
        }
        policy
    }

    /// A single-attempt policy (no retries at all).
    pub fn none() -> Self {
        Self { max_attempts: 1, backoff_schedule: Vec::new(), sleeper: Sleeper::Skip }
    }

    /// This policy with sleeping disabled — tests run instantly while
    /// keeping the attempt count.
    pub fn no_sleep(mut self) -> Self {
        self.sleeper = Sleeper::Skip;
        self
    }

    fn sleep_before_retry(&self, retry: u32) {
        if self.sleeper == Sleeper::Skip || self.backoff_schedule.is_empty() {
            return;
        }
        let ix = (retry as usize).min(self.backoff_schedule.len() - 1);
        std::thread::sleep(self.backoff_schedule[ix]);
    }
}

/// Counters the retry loop maintains, shared by every clone of an
/// [`IoHandle`] (and therefore visible across the WAL and snapshot
/// store of one `DurableGlobalizer`).
#[derive(Default)]
pub struct IoStats {
    transient_retries: AtomicU64,
    retry_exhausted: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Transient failures that were retried (whether or not the retry
    /// eventually succeeded).
    pub transient_retries: u64,
    /// Ops that failed even after exhausting every retry attempt.
    pub retry_exhausted: u64,
}

/// A cloneable handle bundling the IO layer, the retry policy and the
/// shared retry counters. All store components of one globalizer hold
/// clones of the same handle, so a chaos plan's call counters advance
/// in one global order.
#[derive(Clone)]
pub struct IoHandle {
    io: Arc<Mutex<Box<dyn StoreIo>>>,
    policy: Arc<RetryPolicy>,
    stats: Arc<IoStats>,
}

impl IoHandle {
    /// A handle over [`RealIo`] with the environment-derived policy.
    pub fn real() -> Self {
        Self::new(Box::new(RealIo::new()), RetryPolicy::from_env())
    }

    /// A handle over an arbitrary IO layer and policy.
    pub fn new(io: Box<dyn StoreIo>, policy: RetryPolicy) -> Self {
        Self { io: Arc::new(Mutex::new(io)), policy: Arc::new(policy), stats: Arc::default() }
    }

    /// A handle injecting the faults of `plan` over [`RealIo`], with
    /// sleeping disabled so chaos sweeps run instantly.
    pub fn chaos(plan: IoFaultPlan, policy: RetryPolicy) -> Self {
        Self::new(Box::new(ChaosIo::over_real(plan)), policy.no_sleep())
    }

    /// The retry counters accumulated by every clone of this handle.
    pub fn stats(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            transient_retries: self.stats.transient_retries.load(Ordering::Relaxed),
            retry_exhausted: self.stats.retry_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Runs `op` under the retry policy: transient errors are retried
    /// up to `max_attempts` with backoff, everything else surfaces
    /// immediately.
    fn run<T>(&self, op: impl Fn(&mut dyn StoreIo) -> std::io::Result<T>) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            let result = {
                let mut io = self.io.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                op(&mut **io)
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    let transient = classify_io_error(&e) == IoErrorClass::Transient;
                    if transient && attempt < self.policy.max_attempts {
                        self.stats.transient_retries.fetch_add(1, Ordering::Relaxed);
                        self.policy.sleep_before_retry(attempt - 1);
                        continue;
                    }
                    if transient {
                        self.stats.retry_exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(StoreError::Io(e));
                }
            }
        }
    }

    /// Creates `path` and its ancestors (retry-wrapped). Public so
    /// higher layers (e.g. the durable pipeline) can route their own
    /// directory setup through the same injectable IO.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        self.run(|io| io.create_dir_all(path))
    }

    pub(crate) fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>, StoreError> {
        self.run(|io| io.list_dir(path))
    }

    pub(crate) fn read_file(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.run(|io| io.read_file(path))
    }

    pub(crate) fn write_file(&self, path: &Path, data: &[u8]) -> Result<(), StoreError> {
        self.run(|io| io.write_file(path, data))
    }

    pub(crate) fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.run(|io| io.write_at(path, offset, data))
    }

    pub(crate) fn set_len(&self, path: &Path, len: u64) -> Result<(), StoreError> {
        self.run(|io| io.set_len(path, len))
    }

    pub(crate) fn file_len(&self, path: &Path) -> Result<u64, StoreError> {
        self.run(|io| io.file_len(path))
    }

    pub(crate) fn sync(&self, path: &Path) -> Result<(), StoreError> {
        self.run(|io| io.sync(path))
    }

    pub(crate) fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        self.run(|io| io.rename(from, to))
    }

    pub(crate) fn remove(&self, path: &Path) -> Result<(), StoreError> {
        self.run(|io| io.remove(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_runtime::faults::IoFault;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ngl-io-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn path_classification_matches_store_layout() {
        assert_eq!(classify_path(Path::new("/x/wal-00000003.log")), IoPathClass::Wal);
        assert_eq!(classify_path(Path::new("/x/snap-00000001.ck")), IoPathClass::Snapshot);
        assert_eq!(classify_path(Path::new("/x/snap-00000001.ck.tmp")), IoPathClass::Snapshot);
        assert_eq!(classify_path(Path::new("/x/tweets-00000064.log")), IoPathClass::TweetLog);
        assert_eq!(classify_path(Path::new("/x/model.meta")), IoPathClass::Meta);
        assert_eq!(classify_path(Path::new("/x/whatever.bin")), IoPathClass::Other);
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        let dir = tmpdir("retry");
        let file = dir.join("wal-00000000.log");
        std::fs::write(&file, b"hello").unwrap();
        // Fail the first two reads of WAL files; the third succeeds.
        let plan = IoFaultPlan::new()
            .with_fault(IoFault {
                op: IoOp::Read,
                class: IoPathClass::Wal,
                index: 0,
                kind: IoFaultKind::Transient,
            })
            .with_fault(IoFault {
                op: IoOp::Read,
                class: IoPathClass::Wal,
                index: 1,
                kind: IoFaultKind::Transient,
            });
        let io = IoHandle::chaos(plan, RetryPolicy::default());
        assert_eq!(io.read_file(&file).unwrap(), b"hello");
        let stats = io.stats();
        assert_eq!(stats.transient_retries, 2);
        assert_eq!(stats.retry_exhausted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let dir = tmpdir("exhaust");
        let file = dir.join("wal-00000000.log");
        std::fs::write(&file, b"hello").unwrap();
        let mut plan = IoFaultPlan::new();
        for i in 0..5 {
            plan = plan.with_fault(IoFault {
                op: IoOp::Read,
                class: IoPathClass::Wal,
                index: i,
                kind: IoFaultKind::Transient,
            });
        }
        let io = IoHandle::chaos(plan, RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
        assert!(io.read_file(&file).is_err());
        let stats = io.stats();
        assert_eq!(stats.transient_retries, 2);
        assert_eq!(stats.retry_exhausted, 1);
        // The file is untouched; a later call (indices past the plan)
        // succeeds.
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_space_is_never_retried() {
        let dir = tmpdir("nospace");
        let file = dir.join("wal-00000000.log");
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Write,
            class: IoPathClass::Wal,
            index: 0,
            kind: IoFaultKind::NoSpace { span: 1 },
        });
        let io = IoHandle::chaos(plan, RetryPolicy::default());
        let err = io.write_at(&file, 0, b"data").unwrap_err();
        assert!(err.is_no_space(), "expected ENOSPC, got: {err}");
        assert_eq!(io.stats().transient_retries, 0);
        // The span has passed; the next write succeeds untouched.
        io.write_at(&file, 0, b"data").unwrap();
        assert_eq!(io.read_file(&file).unwrap(), b"data");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_leaves_a_prefix_on_disk() {
        let dir = tmpdir("torn");
        let file = dir.join("wal-00000000.log");
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Write,
            class: IoPathClass::Wal,
            index: 0,
            kind: IoFaultKind::TornWrite { keep_pct: 50 },
        });
        let io = IoHandle::chaos(plan, RetryPolicy::default());
        assert!(io.write_at(&file, 0, &[0xAB; 100]).is_err());
        assert_eq!(std::fs::read(&file).unwrap(), vec![0xAB; 50]);
        // A rewrite at the same offset heals the torn region.
        io.write_at(&file, 0, &[0xCD; 100]).unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), vec![0xCD; 100]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_io_round_trips_through_handle_cache() {
        let dir = tmpdir("realio");
        let file = dir.join("data.bin");
        let mut io = RealIo::new();
        io.write_file(&file, b"").unwrap();
        io.write_at(&file, 0, b"abcdef").unwrap();
        assert_eq!(io.read_at(&file, 2, 3).unwrap(), b"cde");
        assert_eq!(io.file_len(&file).unwrap(), 6);
        io.set_len(&file, 3).unwrap();
        assert_eq!(io.read_file(&file).unwrap(), b"abc");
        let moved = dir.join("data2.bin");
        io.rename(&file, &moved).unwrap();
        io.sync(&moved).unwrap();
        assert_eq!(io.read_file(&moved).unwrap(), b"abc");
        io.remove(&moved).unwrap();
        assert!(io.read_file(&moved).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_policy_env_override() {
        // Serialize with other env-reading tests via a unique var use.
        std::env::set_var(STORE_RETRIES_ENV, "7");
        assert_eq!(RetryPolicy::from_env().max_attempts, 7);
        std::env::set_var(STORE_RETRIES_ENV, "0");
        assert_eq!(RetryPolicy::from_env().max_attempts, 1);
        std::env::remove_var(STORE_RETRIES_ENV);
        assert_eq!(RetryPolicy::from_env().max_attempts, RetryPolicy::default().max_attempts);
    }
}
