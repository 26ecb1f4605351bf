//! Per-endpoint serving counters and the ingest-to-ack latency
//! reservoir. Everything here is monotone and lock-cheap: handlers and
//! the ingest loop bump relaxed atomics, and the only lock is a small
//! fixed-size ring of latency samples taken once per acked tweet.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many of the most recent ack latencies the percentile ring keeps.
/// Percentiles are over a sliding window by design — an SLO readout
/// should reflect current behaviour, not the whole process lifetime.
const LATENCY_RING: usize = 8192;

/// Shared serving counters. One instance per [`crate::Server`],
/// readable at any time through the `/stats` endpoint.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Tweets acked after their batch's WAL commit.
    pub accepted: AtomicU64,
    /// Tweets accepted but truncated to the token cap.
    pub truncated: AtomicU64,
    /// Tweets rejected by the pipeline ([`ngl_core::BatchReport`]).
    pub rejected: AtomicU64,
    /// Tweets whose batch failed to commit (typed storage error).
    pub failed: AtomicU64,
    /// Ingest requests shed because the submission queue was full.
    pub shed_queue_full: AtomicU64,
    /// Ingest requests shed because the degradation ladder reached
    /// WalOnly/ReadOnly.
    pub shed_degraded: AtomicU64,
    /// Acks that did not arrive within the client's wait deadline (the
    /// tweet may still commit; the client must treat it as unknown).
    pub ack_timeouts: AtomicU64,
    /// Batches committed by the ingest loop.
    pub batches: AtomicU64,
    /// Tweets across all committed batches (mean batch size is
    /// `batch_tweets / batches`).
    pub batch_tweets: AtomicU64,
    /// Largest single batch the ingest loop has drained.
    pub max_batch: AtomicU64,
    /// Finalizes run by the ingest loop (each publishes a fresh query
    /// snapshot).
    pub finalizes: AtomicU64,
    /// Finalizes that returned a storage error.
    pub finalize_failures: AtomicU64,
    /// `/tag` queries served.
    pub queries_tag: AtomicU64,
    /// `/surface` queries served.
    pub queries_surface: AtomicU64,
    /// Malformed requests answered with a 4xx.
    pub bad_requests: AtomicU64,
    /// Transient IO faults absorbed by retry, mirrored from
    /// [`ngl_core::DurableGlobalizer::io_stats`].
    pub io_transient_retries: AtomicU64,
    /// IO ops that failed even after exhausting retries.
    pub io_retry_exhausted: AtomicU64,
    /// Total WAL bytes appended, mirrored from the store stats.
    pub wal_bytes_total: AtomicU64,
    /// Snapshots written, mirrored from the store stats.
    pub snapshots: AtomicU64,
    /// Total tweet-log bytes appended, mirrored from the store stats.
    pub tweet_log_bytes: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples_us: Vec<u64>,
    next: usize,
}

impl ServeStats {
    /// Records one ingest-to-ack latency sample.
    pub fn record_ack_latency_us(&self, us: u64) {
        let mut ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        if ring.samples_us.len() < LATENCY_RING {
            ring.samples_us.push(us);
        } else {
            let at = ring.next;
            ring.samples_us[at] = us;
        }
        ring.next = (ring.next + 1) % LATENCY_RING;
    }

    /// `(p50, p99)` ingest-to-ack latency in microseconds over the
    /// sample window, `(0, 0)` before the first ack.
    pub fn ack_latency_percentiles_us(&self) -> (u64, u64) {
        let ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        if ring.samples_us.is_empty() {
            return (0, 0);
        }
        let mut sorted = ring.samples_us.clone();
        sorted.sort_unstable();
        (percentile(&sorted, 50), percentile(&sorted, 99))
    }
}

/// Nearest-rank percentile over an ascending-sorted non-empty slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Relaxed load shorthand for stats readers.
pub(crate) fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Relaxed add shorthand for stats writers.
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Relaxed max-update shorthand (batch-size high-water mark).
pub(crate) fn raise(counter: &AtomicU64, n: u64) {
    counter.fetch_max(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_small_windows() {
        let s = ServeStats::default();
        assert_eq!(s.ack_latency_percentiles_us(), (0, 0));
        s.record_ack_latency_us(10);
        assert_eq!(s.ack_latency_percentiles_us(), (10, 10));
        for us in [20, 30, 40] {
            s.record_ack_latency_us(us);
        }
        let (p50, p99) = s.ack_latency_percentiles_us();
        assert_eq!(p50, 20);
        assert_eq!(p99, 40);
    }

    #[test]
    fn ring_overwrites_oldest_samples() {
        let s = ServeStats::default();
        for _ in 0..LATENCY_RING {
            s.record_ack_latency_us(1_000_000);
        }
        for _ in 0..LATENCY_RING {
            s.record_ack_latency_us(5);
        }
        assert_eq!(s.ack_latency_percentiles_us(), (5, 5));
    }
}
