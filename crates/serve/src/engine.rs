//! The batching ingest loop and the state shared between it and the
//! connection handlers.
//!
//! One dedicated engine thread owns the [`DurableGlobalizer`]. Client
//! handlers never touch durable state directly: they enqueue
//! [`IngestItem`]s into a bounded channel and wait on a per-item ack
//! channel. The engine drains the queue into size/time-bounded batches,
//! commits each through [`DurableGlobalizer::ingest`]
//! (WAL commit happens *before* apply, so an ack implies durability),
//! and answers every submitter with a typed [`Ack`].
//!
//! Every `finalize_every` batches — or as soon as the queue goes idle —
//! the engine finalizes and publishes the post-finalize pipeline as the
//! **query snapshot**: a clone of the one lineage's pipeline, or the
//! merged view of a sharded store, built once and moved in (models and
//! tweet records shared by pointer either way). Readers always see the
//! last finalized state and never contend with ingestion beyond one
//! `RwLock` pointer swap.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use ngl_core::IoStatsSnapshot;
use ngl_core::{
    BatchOutput, BatchReport, DegradationMode, DurableError, DurableGlobalizer, NerGlobalizer,
    ShardedGlobalizer,
};
use ngl_encoder::ContextualTagger;

use crate::stats::{add, raise, ServeStats};
use crate::ServeConfig;

/// The durable store behind the engine: one lineage, or N
/// hash-partitioned shards behind the same batching/ack/finalize loop.
/// The sharded variant publishes its *merged* view as the query
/// snapshot (surface ownership partitions storage and clustering, not
/// the query surface), gates admission on the *best* shard's
/// degradation rung — one read-only shard must not block the others —
/// and reports the *worst* rung for monitoring.
pub(crate) enum EngineStore<T: ContextualTagger> {
    Single(Box<DurableGlobalizer<T>>),
    Sharded(Box<ShardedGlobalizer<T>>),
}

impl<T: ContextualTagger + Send + Sync> EngineStore<T> {
    pub(crate) fn ingest(
        &mut self,
        tweets: Vec<Vec<String>>,
        ids: Vec<u64>,
    ) -> Result<(BatchOutput, BatchReport), DurableError> {
        match self {
            EngineStore::Single(s) => s.ingest(tweets, Some(ids)),
            EngineStore::Sharded(s) => s.ingest(tweets, Some(ids)),
        }
    }

    pub(crate) fn finalize(&mut self) -> Result<(), DurableError> {
        match self {
            EngineStore::Single(s) => s.finalize().map(|_| ()),
            EngineStore::Sharded(s) => s.finalize().map(|_| ()),
        }
    }

    /// The pipeline to publish as the query snapshot: a clone of the
    /// inner pipeline (single), or the merged cross-shard view moved
    /// out of the store (sharded): built once, not built and then
    /// cloned.
    pub(crate) fn snapshot_view(&mut self) -> NerGlobalizer<T> {
        match self {
            EngineStore::Single(s) => s.inner().clone(),
            EngineStore::Sharded(s) => s.take_merged(),
        }
    }

    /// The admission rung: the store's own mode (single) or the best
    /// shard's (sharded).
    pub(crate) fn admission_mode(&self) -> DegradationMode {
        match self {
            EngineStore::Single(s) => s.degradation().mode(),
            EngineStore::Sharded(s) => s.admission_mode(),
        }
    }

    /// The monitoring rung: same as admission for a single store, the
    /// worst shard's for a sharded one.
    pub(crate) fn worst_mode(&self) -> DegradationMode {
        match self {
            EngineStore::Single(s) => s.degradation().mode(),
            EngineStore::Sharded(s) => s.worst_mode(),
        }
    }

    /// IO retry counters, summed across shards.
    pub(crate) fn io_stats(&self) -> IoStatsSnapshot {
        match self {
            EngineStore::Single(s) => s.io_stats(),
            EngineStore::Sharded(s) => {
                let mut total = IoStatsSnapshot::default();
                for io in s.shards().iter().map(DurableGlobalizer::io_stats) {
                    total.transient_retries += io.transient_retries;
                    total.retry_exhausted += io.retry_exhausted;
                }
                total
            }
        }
    }

    pub(crate) fn stats(&self) -> ngl_core::StoreStats {
        match self {
            EngineStore::Single(s) => s.stats(),
            EngineStore::Sharded(s) => s.stats(),
        }
    }

    pub(crate) fn shard_count(&self) -> u32 {
        match self {
            EngineStore::Single(_) => 1,
            EngineStore::Sharded(s) => s.shard_count(),
        }
    }
}

/// One queued tweet: payload plus the channel its ack goes back on.
pub(crate) struct IngestItem {
    pub id: u64,
    pub tokens: Vec<String>,
    /// When the handler enqueued the item (ingest-to-ack latency
    /// starts here).
    pub submitted: Instant,
    /// Capacity-1 channel; the engine sends exactly one [`Ack`].
    pub ack: SyncSender<Ack>,
}

/// Terminal status of one submitted tweet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckStatus {
    /// Stored; its batch's WAL record is durable.
    Acked,
    /// Stored after truncation to the configured token cap.
    AckedTruncated,
    /// Dropped by the pipeline (duplicate id, empty tweet under
    /// `reject_empty`, poisoned encode); the batch itself committed.
    Rejected,
    /// The whole batch failed to commit (typed storage error) — the
    /// tweet is not durable and may be resubmitted.
    Failed,
}

/// What the engine tells a submitter about one tweet.
#[derive(Debug, Clone)]
pub struct Ack {
    /// The tweet id the submitter used.
    pub id: u64,
    /// Terminal status.
    pub status: AckStatus,
    /// Rejection or commit-failure detail, when there is one.
    pub detail: Option<String>,
}

/// State shared between the engine thread and connection handlers.
pub(crate) struct Shared<T: ContextualTagger> {
    pub stats: ServeStats,
    /// Last observed *admission* [`DegradationMode`], encoded via
    /// [`mode_to_u8`] — the best shard's rung when sharded, so one
    /// degraded shard never sheds ingest for the rest.
    pub mode: AtomicU8,
    /// Worst-of aggregate across shards (equals `mode` for a single
    /// store); monitoring only, never gates admission.
    pub worst_mode: AtomicU8,
    /// Number of store shards (1 = unsharded).
    pub shard_count: u32,
    /// The query snapshot: the pipeline as of the last finalize.
    pub snapshot: RwLock<Arc<NerGlobalizer<T>>>,
    /// Set once by [`crate::Server::shutdown`]; every loop in the crate
    /// polls it.
    pub shutdown: AtomicBool,
}

pub(crate) fn mode_to_u8(mode: DegradationMode) -> u8 {
    match mode {
        DegradationMode::Healthy => 0,
        DegradationMode::Degraded => 1,
        DegradationMode::WalOnly => 2,
        DegradationMode::ReadOnly => 3,
    }
}

pub(crate) fn mode_name(encoded: u8) -> &'static str {
    match encoded {
        0 => "Healthy",
        1 => "Degraded",
        2 => "WalOnly",
        _ => "ReadOnly",
    }
}

/// Mirrors store-side health and IO counters into the shared
/// stats so `/stats` serves them without touching the engine.
pub(crate) fn refresh_store_view<T: ContextualTagger + Send + Sync>(
    shared: &Shared<T>,
    store: &EngineStore<T>,
) {
    let stats = &shared.stats;
    shared.mode.store(mode_to_u8(store.admission_mode()), Ordering::Relaxed);
    shared.worst_mode.store(mode_to_u8(store.worst_mode()), Ordering::Relaxed);
    let io = store.io_stats();
    stats.io_transient_retries.store(io.transient_retries, Ordering::Relaxed);
    stats.io_retry_exhausted.store(io.retry_exhausted, Ordering::Relaxed);
    let wire = store.stats();
    stats.wal_bytes_total.store(wire.wal_bytes_total, Ordering::Relaxed);
    stats.snapshots.store(wire.snapshots, Ordering::Relaxed);
    stats.tweet_log_bytes.store(wire.tweet_log_bytes, Ordering::Relaxed);
}

/// Finalizes, publishes the post-finalize pipeline as the new query
/// snapshot, and refreshes the mirrored store view.
pub(crate) fn finalize_and_publish<T: ContextualTagger + Send + Sync>(
    shared: &Shared<T>,
    store: &mut EngineStore<T>,
) {
    match store.finalize() {
        Ok(()) => add(&shared.stats.finalizes, 1),
        Err(_) => add(&shared.stats.finalize_failures, 1),
    }
    publish_snapshot(shared, store);
}

/// Publishes the current query view as the query snapshot.
pub(crate) fn publish_snapshot<T: ContextualTagger + Send + Sync>(
    shared: &Shared<T>,
    store: &mut EngineStore<T>,
) {
    let snap = Arc::new(store.snapshot_view());
    *shared.snapshot.write().unwrap_or_else(|e| e.into_inner()) = snap;
    refresh_store_view(shared, store);
}

/// The engine thread body: batch, commit, ack, finalize, publish.
pub(crate) fn run<T: ContextualTagger + Send + Sync>(
    mut durable: EngineStore<T>,
    rx: Receiver<IngestItem>,
    shared: Arc<Shared<T>>,
    cfg: ServeConfig,
) {
    let max_delay = Duration::from_millis(cfg.max_delay_ms.max(1));
    // Idle tick: long enough to avoid spinning, short enough that
    // shutdown and idle-finalize are prompt.
    let idle_tick = max_delay.max(Duration::from_millis(10));
    let mut since_finalize = 0usize;
    loop {
        let first = match rx.recv_timeout(idle_tick) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => {
                // Queue drained: publish whatever the clients were
                // promised, then keep waiting (or leave on shutdown).
                if since_finalize > 0 {
                    finalize_and_publish(&shared, &mut durable);
                    since_finalize = 0;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                if since_finalize > 0 {
                    finalize_and_publish(&shared, &mut durable);
                }
                return;
            }
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + max_delay;
        while batch.len() < cfg.max_batch.max(1) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(item) => batch.push(item),
                Err(_) => break,
            }
        }
        commit_batch(&shared, &mut durable, batch);
        since_finalize += 1;
        if since_finalize >= cfg.finalize_every.max(1) {
            finalize_and_publish(&shared, &mut durable);
            since_finalize = 0;
        } else {
            refresh_store_view(&shared, &durable);
        }
    }
}

fn commit_batch<T: ContextualTagger + Send + Sync>(
    shared: &Shared<T>,
    durable: &mut EngineStore<T>,
    mut batch: Vec<IngestItem>,
) {
    let stats = &shared.stats;
    let n = batch.len() as u64;
    // Acks need only the ids, so the token lists move into the batch.
    let tweets = batch.iter_mut().map(|item| std::mem::take(&mut item.tokens)).collect();
    let ids = batch.iter().map(|item| item.id).collect();
    match durable.ingest(tweets, ids) {
        Ok((_, report)) => {
            add(&stats.batches, 1);
            add(&stats.batch_tweets, n);
            raise(&stats.max_batch, n);
            let mut detail: Vec<Option<String>> = vec![None; batch.len()];
            for (k, &pos) in report.rejected.iter().enumerate() {
                detail[pos] = Some(
                    report
                        .errors
                        .get(k)
                        .map(|e| e.message.clone())
                        .unwrap_or_else(|| "rejected".to_string()),
                );
            }
            for (pos, item) in batch.into_iter().enumerate() {
                let status = if report.rejected.contains(&pos) {
                    add(&stats.rejected, 1);
                    AckStatus::Rejected
                } else if report.truncated.contains(&pos) {
                    add(&stats.accepted, 1);
                    add(&stats.truncated, 1);
                    AckStatus::AckedTruncated
                } else {
                    add(&stats.accepted, 1);
                    AckStatus::Acked
                };
                let us = item.submitted.elapsed().as_micros() as u64;
                stats.record_ack_latency_us(us);
                let ack = Ack { id: item.id, status, detail: detail[pos].take() };
                // A submitter that already timed out dropped its
                // receiver; the ack is simply lost.
                let _ = item.ack.try_send(ack);
            }
        }
        Err(e) => {
            add(&stats.failed, n);
            let msg = e.to_string();
            for item in batch {
                let ack = Ack { id: item.id, status: AckStatus::Failed, detail: Some(msg.clone()) };
                let _ = item.ack.try_send(ack);
            }
        }
    }
}
