//! Sharded globalization: N durable shards over one shared runtime.
//!
//! The sharding model is *replicated state, shared compute,
//! ownership-partitioned globalization*. Every shard holds the full
//! stream state — CTrie, tweet store, seen-ids and watermarks are
//! bitwise identical on every shard — but a shard admits into its
//! candidate base only the surfaces it *owns*:
//!
//! ```text
//! owner(surface) = fnv1a64(surface) % shard_count
//! ```
//!
//! The work that state derives from runs once, not once per shard:
//! a batch is encoded once into a memo every shard stores its records
//! from, and a finalize scans the CTrie once, on the lead shard (the
//! lowest-index non-wedged one), tagging every occurrence with its
//! owner. Each shard then phrase-embeds and admits only its owned
//! occurrences. The models and the tweet records sit behind `Arc`s, so
//! the shards, the merged view and its clones hold one copy of each
//! (records a shard recovered from its own snapshot are its own).
//!
//! Ownership partitions exactly the state that makes the single
//! process a bottleneck: the per-surface mention sets and their
//! clustering (quadratic in mentions-per-surface under a Zipfian
//! stream), which run concurrently across shards on the one shared
//! [`Executor`] pool. Non-owned surfaces still consume their
//! touch-clock tick on every shard, so owned entries carry the same
//! stamps as the unsharded run and the cross-shard merge is bitwise
//! faithful.
//!
//! Each shard is a complete [`DurableGlobalizer`] with its own
//! WAL/snapshot lineage under `store-dir/shard-NN/`; the store root
//! holds the shared `model.meta` fingerprint (checked once, not per
//! shard) and a `shards.meta` layout file so a reopen with the wrong
//! shard count fails fast with
//! [`DurableError::ShardLayoutMismatch`] instead of silently
//! replaying a subset of the lineages.
//!
//! **Merge.** Finalize runs on every shard, then emits straight from
//! the shards: each pushes its owned entries' spans into one list per
//! tweet of the most-advanced shard, sorted per tweet. A span belongs
//! to exactly one surface, hence one owner, so no cross-shard state is
//! needed. The merged view is built only when someone reads it
//! ([`ShardedGlobalizer::merged`]): clone the most-advanced shard's
//! pipeline (shared state; models and tweet records by pointer), drop
//! its ownership filter, and absorb every other shard's candidate
//! entries and mention caches — both disjoint unions by the ownership
//! rule. It is cached until the next operation changes a shard, and it
//! shows the shards' *current* state, as
//! [`DurableGlobalizer::inner`] does for one lineage: after an ingest
//! with no finalize, or after a finalize whose WAL commit failed (its
//! stages are applied), it holds that state. Output, `/export` bytes
//! and the combined `state_digest` are bitwise identical to the
//! 1-shard run at any `NGL_THREADS` / `NGL_KERNEL`.
//!
//! **Failure containment.** A shard whose WAL rejects a batch that
//! other shards committed is *wedged*: it receives no further
//! operations in-process, so its log stays a strict prefix of the
//! most-advanced shard's and its owned surfaces keep serving
//! stale-but-valid merged state. A reopen heals the lag by replaying
//! the missing `Batch`/`Finalize` records from the most-advanced
//! shard's WAL through the lagging shard's normal durable path
//! (catch-up replication). Admission control gates on the *best*
//! shard mode — one read-only shard never blocks the others — while
//! the worst-of aggregate is surfaced for monitoring.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ngl_encoder::ContextualTagger;
use ngl_runtime::{Executor, TaskError};
use ngl_store::{fnv1a64, IoHandle, StoreError};
use ngl_text::Span;

use crate::durable::{
    read_model_meta, write_model_meta, DegradationMode, DegradationReport, DurableError,
    DurableGlobalizer, RecoveryReport, StoreStats, WalRecord, MODEL_META_FILE,
};
use crate::pipeline::{AblationMode, BatchOutput, BatchReport, NerGlobalizer};

/// The shard that owns `surface`: FNV-1a over the surface bytes,
/// reduced modulo the shard count. Stable across processes, platforms
/// and shard reopens — it is the routing rule persisted (implicitly)
/// in every shard's candidate base, which is why `shards.meta` pins
/// the count.
pub fn shard_of_surface(surface: &str, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    (fnv1a64(surface.as_bytes()) % shards as u64) as u32
}

// ---- shard layout file -------------------------------------------------

/// Store-root file pinning the shard count:
/// `magic "NGLH" | version u32 LE | count u32 LE | fnv1a64(header) u64 LE`.
const SHARD_META_FILE: &str = "shards.meta";
const SHARD_META_MAGIC: &[u8; 4] = b"NGLH";
const SHARD_META_VERSION: u32 = 1;
const SHARD_META_LEN: usize = 20;

fn read_shard_meta(path: &Path) -> Result<Option<u32>, DurableError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e).into()),
    };
    if bytes.len() != SHARD_META_LEN || &bytes[0..4] != SHARD_META_MAGIC {
        return Err(DurableError::Corrupt("unreadable shard layout file"));
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[4..8]);
    if u32::from_le_bytes(word) != SHARD_META_VERSION {
        return Err(DurableError::Corrupt("unsupported shard layout version"));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[12..20]);
    if u64::from_le_bytes(sum) != fnv1a64(&bytes[..12]) {
        return Err(DurableError::Corrupt("shard layout checksum mismatch"));
    }
    word.copy_from_slice(&bytes[8..12]);
    Ok(Some(u32::from_le_bytes(word)))
}

fn write_shard_meta(path: &Path, count: u32) -> Result<(), DurableError> {
    let mut bytes = Vec::with_capacity(SHARD_META_LEN);
    bytes.extend_from_slice(SHARD_META_MAGIC);
    bytes.extend_from_slice(&SHARD_META_VERSION.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
    std::fs::write(path, bytes).map_err(StoreError::Io)?;
    Ok(())
}

/// `store-dir/shard-NN` for shard `index`.
fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:02}"))
}

// ---- recovery report ---------------------------------------------------

/// What [`ShardedGlobalizer::open`] reconstructed: one
/// [`RecoveryReport`] per shard, how many operations each lagging
/// shard caught up from the donor WAL, and the merged-state digest.
#[derive(Debug, Clone, Default)]
pub struct ShardedRecoveryReport {
    /// Per-shard recovery, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// `Batch`/`Finalize` ops each shard replayed from the
    /// most-advanced shard's WAL to heal a lag (0 = was current).
    pub caught_up_ops: Vec<usize>,
    /// `state_digest` of the merged view after recovery — equal to
    /// the 1-shard digest.
    pub combined_digest: u64,
}

// ---- sharded globalizer ------------------------------------------------

/// Hash-partitioned [`DurableGlobalizer`] shards with a deterministic
/// cross-shard merge. See the module docs for the model; the public
/// surface mirrors the single-shard store so callers swap between
/// them mechanically.
pub struct ShardedGlobalizer<T: ContextualTagger> {
    shards: Vec<DurableGlobalizer<T>>,
    /// `wedged[i]`: shard `i` rejected an operation that other shards
    /// committed, so it is frozen (no further ops this process) to
    /// keep its log a strict prefix of the most-advanced shard's.
    wedged: Vec<bool>,
    /// The merged view: shared state from the most-advanced shard
    /// plus the union of every shard's owned candidate entries. Built
    /// by the first read after an operation that changed a shard, and
    /// reset by every such operation; serves queries, exports and the
    /// combined digest.
    merged: OnceLock<NerGlobalizer<T>>,
    exec: Executor,
}

impl<T: ContextualTagger + Send + Sync> ShardedGlobalizer<T> {
    /// Opens (or creates) a sharded store at `dir`: `shards` clones of
    /// `base`, each with the ownership filter for its index and its
    /// own WAL/snapshot lineage under `dir/shard-NN/`. All shards
    /// share `base`'s executor, so N shards never oversubscribe the
    /// pool. Recovery opens the shards concurrently, catches lagging
    /// shards up from the most-advanced shard's WAL, and builds the
    /// merged view for the report's digest (kept for the first read).
    pub fn open<P: AsRef<Path>>(
        base: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
        shards: u32,
    ) -> Result<(Self, ShardedRecoveryReport), DurableError> {
        Self::open_with_fingerprint(base, dir, checkpoint_every, shards, None)
    }

    /// [`Self::open`] with a model-bundle fingerprint, checked once
    /// against the store *root*'s `model.meta` (shard directories
    /// carry no fingerprint of their own).
    pub fn open_with_fingerprint<P: AsRef<Path>>(
        base: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
        shards: u32,
        fingerprint: Option<u64>,
    ) -> Result<(Self, ShardedRecoveryReport), DurableError> {
        let ios = (0..shards).map(|_| IoHandle::real()).collect();
        Self::open_with_ios(base, dir, checkpoint_every, shards, fingerprint, ios)
    }

    /// [`Self::open_with_fingerprint`] over one explicit IO layer per
    /// shard, so chaos plans can fault a single shard while the
    /// others run clean.
    pub fn open_with_ios<P: AsRef<Path>>(
        base: NerGlobalizer<T>,
        dir: P,
        checkpoint_every: usize,
        shards: u32,
        fingerprint: Option<u64>,
        ios: Vec<IoHandle>,
    ) -> Result<(Self, ShardedRecoveryReport), DurableError> {
        assert!(shards >= 1, "shard count must be at least 1");
        assert_eq!(ios.len(), shards as usize, "one IoHandle per shard");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(StoreError::Io)?;

        // Root-level metadata first: wrong models or a wrong shard
        // count must fail before any lineage is opened or created.
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
        let layout = dir.join(SHARD_META_FILE);
        match read_shard_meta(&layout)? {
            Some(stored) if stored != shards => {
                return Err(DurableError::ShardLayoutMismatch { stored, requested: shards });
            }
            Some(_) => {}
            None => write_shard_meta(&layout, shards)?,
        }

        let exec = base.executor().clone();
        let items: Vec<(usize, NerGlobalizer<T>, IoHandle)> = ios
            .into_iter()
            .enumerate()
            .map(|(i, io)| {
                let mut inner = base.clone();
                inner.set_shard_ownership(i as u32, shards);
                (i, inner, io)
            })
            .collect();
        let opened = exec.par_map(items, |_, (i, inner, io)| {
            // Shard fingerprints are `None`: the root already checked.
            DurableGlobalizer::open_with_io(inner, shard_dir(&dir, i), checkpoint_every, None, io)
        });
        let mut shard_stores = Vec::with_capacity(shards as usize);
        let mut report = ShardedRecoveryReport::default();
        for result in opened {
            let (store, shard_report) = result?;
            report.shards.push(shard_report);
            shard_stores.push(store);
        }

        report.caught_up_ops = Self::catch_up_lagging(&mut shard_stores)?;
        let merged = Self::rebuild_merged(&shard_stores);
        report.combined_digest = merged.state_digest();
        let wedged = vec![false; shard_stores.len()];
        let merged = OnceLock::from(merged);
        Ok((Self { shards: shard_stores, wedged, merged, exec }, report))
    }

    /// Replays `Batch`/`Finalize` records from the most-advanced
    /// shard's WAL into every lagging shard, through the lagging
    /// shard's normal durable path (so the caught-up ops are
    /// re-committed to its own lineage). Audit records (`Snapshot`)
    /// are skipped — shards re-derive those — and donor
    /// *snapshots* are never applied (they hold the donor's ownership,
    /// not the lagging shard's). Errors if the donor has
    /// compacted past a lagging shard's position.
    fn catch_up_lagging(shards: &mut [DurableGlobalizer<T>]) -> Result<Vec<usize>, DurableError> {
        let mut caught_up = vec![0usize; shards.len()];
        let target = match shards.iter().map(|s| s.op_seq()).max() {
            Some(t) => t,
            None => return Ok(caught_up),
        };
        if shards.iter().all(|s| s.op_seq() == target) {
            return Ok(caught_up);
        }
        let donor_ix = Self::most_advanced(shards);
        let records = shards[donor_ix].logged_records()?;
        for (i, ops) in caught_up.iter_mut().enumerate() {
            if i == donor_ix || shards[i].op_seq() == target {
                continue;
            }
            *ops = Self::catch_up_one(&mut shards[i], &records, target)?;
        }
        Ok(caught_up)
    }

    fn catch_up_one(
        lagging: &mut DurableGlobalizer<T>,
        donor_records: &[WalRecord],
        target: u64,
    ) -> Result<usize, DurableError> {
        let mut expected = lagging.op_seq() + 1;
        let mut applied = 0usize;
        for record in donor_records {
            match record {
                WalRecord::Batch { op_seq, ids, tweets } if *op_seq >= expected => {
                    if *op_seq != expected {
                        return Err(DurableError::Corrupt(
                            "shard lag exceeds the donor's compaction horizon",
                        ));
                    }
                    lagging.ingest(tweets.clone(), ids.clone())?;
                    expected += 1;
                    applied += 1;
                }
                WalRecord::Finalize { op_seq, .. } if *op_seq >= expected => {
                    if *op_seq != expected {
                        return Err(DurableError::Corrupt(
                            "shard lag exceeds the donor's compaction horizon",
                        ));
                    }
                    lagging.finalize_scanned(None, false)?;
                    expected += 1;
                    applied += 1;
                }
                _ => {}
            }
        }
        if lagging.op_seq() != target {
            return Err(DurableError::Corrupt("shard lag exceeds the donor's compaction horizon"));
        }
        Ok(applied)
    }

    /// The index of the shard with the highest `op_seq` (the last of
    /// equals): its shared state is a superset of every wedged
    /// shard's.
    fn most_advanced(shards: &[DurableGlobalizer<T>]) -> usize {
        shards.iter().enumerate().max_by_key(|(_, s)| s.op_seq()).map(|(i, _)| i).unwrap_or(0)
    }

    /// Rebuilds the merged view: clone the most-advanced shard's
    /// pipeline, drop the ownership filter and absorb every other
    /// shard's owned entries.
    fn rebuild_merged(shards: &[DurableGlobalizer<T>]) -> NerGlobalizer<T> {
        let base_ix = Self::most_advanced(shards);
        let mut merged = shards[base_ix].inner().clone();
        merged.clear_shard_ownership();
        for (i, shard) in shards.iter().enumerate() {
            if i != base_ix {
                merged.absorb_owned_state(shard.inner());
            }
        }
        merged
    }

    /// The lowest-index non-wedged shard: its replicated state stands
    /// for every shard's when work is done once for all of them.
    fn lead(&self) -> Option<usize> {
        self.wedged.iter().position(|&w| !w)
    }

    /// Runs `op` on every non-wedged shard concurrently (on the shared
    /// pool; shards nest their own `par_map` inside, which the
    /// atomic-counter pull loop makes deadlock-free) and returns
    /// `(shard index, result)` in shard order.
    fn broadcast<R, F>(&mut self, op: F) -> Vec<(usize, Result<R, DurableError>)>
    where
        R: Send,
        F: Fn(&mut DurableGlobalizer<T>) -> Result<R, DurableError> + Sync,
    {
        let wedged = &self.wedged;
        let items: Vec<(usize, &mut DurableGlobalizer<T>)> =
            self.shards.iter_mut().enumerate().filter(|(i, _)| !wedged[*i]).collect();
        self.exec.par_map(items, |_, (ix, shard)| (ix, op(shard)))
    }

    /// Resolves a broadcast: shards that rejected an operation the
    /// others committed are wedged (frozen until a reopen heals
    /// them); the lowest-index success is returned, or the first
    /// error when every shard rejected (then nothing committed
    /// anywhere and the operation may simply be retried).
    fn settle<R>(
        &mut self,
        results: Vec<(usize, Result<R, DurableError>)>,
        wedge_failures: bool,
    ) -> Result<R, DurableError> {
        let mut first_ok = None;
        let mut first_err = None;
        let any_ok = results.iter().any(|(_, r)| r.is_ok());
        for (ix, result) in results {
            match result {
                Ok(out) => {
                    if first_ok.is_none() {
                        first_ok = Some(out);
                    }
                }
                Err(e) => {
                    if wedge_failures && any_ok {
                        self.wedged[ix] = true;
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match (first_ok, first_err) {
            (Some(out), _) => Ok(out),
            (None, Some(e)) => Err(e),
            (None, None) => Err(DurableError::Corrupt(
                "every shard is wedged — reopen the store to catch up from the most advanced WAL",
            )),
        }
    }

    /// Broadcasts one batch to every non-wedged shard (replicated
    /// ingest; each shard admits only its owned surfaces). The batch
    /// is encoded once, into a memo every shard borrows and stores
    /// records from by pointer. Returns the lowest-index shard's
    /// output — local spans, fault reports and shared-state effects are
    /// identical on every shard.
    ///
    /// # Panics
    /// Panics, before any shard logs the batch, when `ids` is given
    /// with a length other than `tweets`'.
    pub fn ingest(
        &mut self,
        tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        let memo = self.lead().map(|lead| self.shards[lead].inner().encode_memo(&tweets));
        let memo = memo.as_ref();
        let results =
            self.broadcast(|shard| shard.ingest_with_memo(tweets.clone(), ids.clone(), memo));
        self.merged.take();
        self.settle(results, true)
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

    /// Finalizes every non-wedged shard concurrently and emits the
    /// output from the shards' owned entries (wedged shards' included)
    /// — bitwise identical to the 1-shard finalize. The CTrie scan
    /// runs once, on the lead shard, and every shard admits its owned
    /// share of it; the scan's errors are reported once, on the lead
    /// shard. No merged view is built here: the next read of
    /// [`Self::merged`] builds it.
    ///
    /// A shard whose finalize errored has still *applied* the stages
    /// (state and `op_seq` advanced; only the WAL records are stashed
    /// pending), so the logical streams stay aligned and the shard is
    /// not wedged. The error is propagated — the spans are not
    /// acknowledged — and a retry flushes exactly the shards with
    /// stashed records, without re-running anything elsewhere.
    pub fn finalize(&mut self) -> Result<Vec<Vec<Span>>, DurableError> {
        let retry = self.shards.iter().any(|s| s.has_pending_finalize());
        let lead = self.lead().filter(|&lead| {
            !retry && self.shards[lead].inner().config().ablation != AblationMode::LocalOnly
        });
        let scan = lead.map(|lead| self.shards[lead].inner().scan());
        let shared = scan.as_ref();
        let wedged = &self.wedged;
        let items: Vec<(usize, &mut DurableGlobalizer<T>)> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(i, s)| !wedged[*i] && (!retry || s.has_pending_finalize()))
            .collect();
        let results =
            self.exec.par_map(items, |_, (ix, shard)| (ix, shard.finalize_scanned(shared, false)));
        self.merged.take();
        if let (Some(lead), Some(scan)) = (lead, scan) {
            self.shards[lead].push_finalize_errors(scan.into_errors());
        }
        for (_, result) in &results {
            if let Err(e) = result {
                return Err(clone_error(e));
            }
        }
        let base = self.shards[Self::most_advanced(&self.shards)].inner();
        if base.config().ablation == AblationMode::LocalOnly {
            return Ok(base.local_outputs());
        }
        let parts = self.shards.iter().map(DurableGlobalizer::inner);
        Ok(NerGlobalizer::emit_from(parts, base.tweet_base().len()))
    }

    /// The merged view: shared state plus the union of every shard's
    /// owned candidate entries. Queries (`tag_query`,
    /// `surface_summary`), `export_state_bytes` and `state_digest`
    /// on it match the 1-shard pipeline. It shows the shards' current
    /// state, as [`DurableGlobalizer::inner`] does for one lineage:
    /// after an ingest with no finalize, or a finalize whose WAL
    /// commit failed, that is the applied state. The first read after
    /// an operation that changed a shard builds it; later reads reuse
    /// it.
    pub fn merged(&self) -> &NerGlobalizer<T> {
        self.merged.get_or_init(|| Self::rebuild_merged(&self.shards))
    }

    /// [`Self::merged`], moved out: a caller that keeps the view (a
    /// published query snapshot) takes it without a copy. The next
    /// read builds a fresh one.
    pub fn take_merged(&mut self) -> NerGlobalizer<T> {
        self.merged.take().unwrap_or_else(|| Self::rebuild_merged(&self.shards))
    }

    /// `state_digest` of the merged view.
    pub fn combined_digest(&self) -> u64 {
        self.merged().state_digest()
    }

    /// Per-shard storage-health reports, in shard order.
    pub fn degradations(&self) -> Vec<DegradationReport> {
        self.shards.iter().map(|s| s.degradation()).collect()
    }

    /// Per-shard effective ladder rungs: a wedged shard floors at
    /// [`DegradationMode::ReadOnly`] — it refuses mutations by
    /// construction even when its own ladder looks milder.
    pub fn shard_modes(&self) -> Vec<DegradationMode> {
        self.shards
            .iter()
            .zip(&self.wedged)
            .map(|(s, &w)| {
                let mode = s.degradation().mode();
                if w {
                    mode.max(DegradationMode::ReadOnly)
                } else {
                    mode
                }
            })
            .collect()
    }

    /// The *best* shard mode — the admission gate. One read-only
    /// shard must not block the others: its owned surfaces serve
    /// stale merged state while healthy shards keep admitting.
    pub fn admission_mode(&self) -> DegradationMode {
        self.shard_modes().into_iter().min().unwrap_or(DegradationMode::ReadOnly)
    }

    /// The *worst* shard mode — the monitoring aggregate surfaced in
    /// serve health/stats.
    pub fn worst_mode(&self) -> DegradationMode {
        self.shard_modes().into_iter().max().unwrap_or(DegradationMode::Healthy)
    }

    /// Whether shard `index` is frozen this process (see the module
    /// docs' failure-containment section).
    pub fn is_wedged(&self, index: usize) -> bool {
        self.wedged.get(index).copied().unwrap_or(false)
    }

    /// Byte accounting summed across shards. Byte and snapshot
    /// counters add real per-lineage disk cost; `batches`/`finalizes`
    /// are the *logical* op counts (max over shards), since
    /// replicated ingest logs each op once per shard.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            total.delta_bytes_last += s.delta_bytes_last;
            total.wal_bytes_total += s.wal_bytes_total;
            total.snapshot_bytes_last += s.snapshot_bytes_last;
            total.tweet_log_bytes += s.tweet_log_bytes;
            total.snapshots += s.snapshots;
            total.batches = total.batches.max(s.batches);
            total.finalizes = total.finalizes.max(s.finalizes);
        }
        total
    }

    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shards, in index order (read-only; mutating one directly
    /// would desynchronize the replicated streams).
    pub fn shards(&self) -> &[DurableGlobalizer<T>] {
        &self.shards
    }

    /// The most-advanced shard's operation counter.
    pub fn op_seq(&self) -> u64 {
        self.shards.iter().map(|s| s.op_seq()).max().unwrap_or(0)
    }

    /// Whether any shard holds finalize records that are not yet
    /// durable (retry [`Self::finalize`] to flush exactly those).
    pub fn has_pending_finalize(&self) -> bool {
        self.shards.iter().any(|s| s.has_pending_finalize())
    }

    /// Drains fault diagnostics from every shard. The merged view
    /// holds none: a clone starts without them and the view runs no
    /// stage.
    pub fn take_finalize_errors(&mut self) -> Vec<TaskError> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.take_finalize_errors());
        }
        out
    }
}

/// [`DurableError`] carries non-`Clone` payloads (`std::io::Error`),
/// so propagating one error out of a broadcast while keeping the
/// per-shard results reconstructs it through its `Display` form.
fn clone_error(e: &DurableError) -> DurableError {
    match e {
        DurableError::DigestMismatch { op_seq, logged, replayed } => {
            DurableError::DigestMismatch { op_seq: *op_seq, logged: *logged, replayed: *replayed }
        }
        DurableError::ModelMismatch { stored, current } => {
            DurableError::ModelMismatch { stored: *stored, current: *current }
        }
        DurableError::ShardLayoutMismatch { stored, requested } => {
            DurableError::ShardLayoutMismatch { stored: *stored, requested: *requested }
        }
        DurableError::OpGap { after, found } => {
            DurableError::OpGap { after: *after, found: *found }
        }
        DurableError::Corrupt(msg) => DurableError::Corrupt(msg),
        other => DurableError::Store(StoreError::Io(std::io::Error::other(other.to_string()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ngl-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn shard_of_surface_is_stable_and_in_range() {
        for count in [1u32, 2, 3, 4, 7] {
            for surface in ["beshear", "Beshear", "covid test", "", "ünï©ode"] {
                let s = shard_of_surface(surface, count);
                assert!(s < count);
                assert_eq!(s, shard_of_surface(surface, count), "stable");
            }
        }
        assert_eq!(shard_of_surface("anything", 1), 0);
        // The documented rule, verbatim.
        assert_eq!(shard_of_surface("beshear", 4), (fnv1a64(b"beshear") % 4) as u32);
    }

    /// Diagnostics stay with the pipeline that recorded them: the
    /// merged view built from the shards must not report a shard's
    /// undrained errors a second time.
    #[test]
    fn finalize_errors_come_back_exactly_once() {
        use crate::pipeline::tests::{pipeline, toks};
        let dir = tmp("errors-once");
        let (mut sharded, _) =
            ShardedGlobalizer::open(pipeline(AblationMode::FullGlobal), &dir, 10, 3).expect("open");
        sharded.ingest(vec![toks("Beshear spoke today"), toks("Italy won")], None).expect("ingest");
        for (i, shard) in sharded.shards.iter_mut().enumerate() {
            shard.push_finalize_errors(vec![TaskError {
                index: i,
                payload: String::new(),
                message: format!("recorded on shard {i}"),
            }]);
        }
        sharded.finalize().expect("finalize");
        assert_eq!(sharded.merged().tweet_base().len(), 2, "the view is built from the shards");
        let mut messages: Vec<String> =
            sharded.take_finalize_errors().into_iter().map(|e| e.message).collect();
        messages.sort();
        assert_eq!(messages, ["recorded on shard 0", "recorded on shard 1", "recorded on shard 2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wedged shard's owned entries stay in the output, stale, as the
    /// merged view holds them: the finalize emits what the view built
    /// from the same shards emits, and not what the live shards alone
    /// emit.
    #[test]
    fn a_wedged_shards_entries_stay_in_the_output() {
        use crate::pipeline::tests::{pipeline, toks};
        let dir = tmp("wedged-emit");
        let (mut sharded, _) =
            ShardedGlobalizer::open(pipeline(AblationMode::MentionExtraction), &dir, 10, 3)
                .expect("open");
        let names = ["Beshear", "Italy", "Madrid", "Louisville", "Taylor", "Andy"];
        let batch = || names.iter().map(|n| toks(&format!("{n} spoke today"))).collect();
        sharded.ingest(batch(), None).expect("ingest");
        sharded.finalize().expect("finalize");
        sharded.wedged[1] = true;
        sharded.ingest(batch(), None).expect("ingest");
        let got = sharded.finalize().expect("finalize");

        assert!(!sharded.shards[1].inner().candidate_base().is_empty(), "shard 1 owns a surface");
        let view = sharded.merged();
        assert_eq!(got, NerGlobalizer::emit_from([view], view.tweet_base().len()));
        let live = [0, 2].map(|i| sharded.shards[i].inner());
        assert_ne!(got, NerGlobalizer::emit_from(live, view.tweet_base().len()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_meta_roundtrips() {
        let dir = tmp("meta-roundtrip");
        let path = dir.join(SHARD_META_FILE);
        assert!(read_shard_meta(&path).expect("missing file is None").is_none());
        write_shard_meta(&path, 4).expect("write");
        assert_eq!(read_shard_meta(&path).expect("read"), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_meta_rejects_corruption() {
        let dir = tmp("meta-corrupt");
        let path = dir.join(SHARD_META_FILE);
        write_shard_meta(&path, 2).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[8] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(read_shard_meta(&path), Err(DurableError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
