//! # ngl-serve — the online serving front-end
//!
//! The paper frames the globalizer as a *streaming* system; this crate
//! is the shell that accepts the stream. It is a deliberately thin,
//! dependency-free layer (hand-rolled HTTP/1.1 over
//! `std::net::TcpListener`) over [`DurableGlobalizer`], in three
//! pieces:
//!
//! * **Batching ingest** — concurrent client connections feed a
//!   bounded submission queue; one dedicated engine thread drains it
//!   into size/time-bounded batches (`max_batch`, `max_delay_ms`) and
//!   commits them through
//!   [`DurableGlobalizer::ingest`]. Every tweet is
//!   acked only after its batch's WAL record is durable, and per-tweet
//!   [`ngl_core::BatchReport`] rejections travel back to the
//!   submitting client as typed statuses.
//! * **Query path** — `/tag` tags one message against the global state
//!   without mutating it, `/surface` lists a surface's clusters and
//!   types. Queries run against the **snapshot rule**: the
//!   engine publishes a pipeline clone after every finalize (models
//!   and tweet records shared by pointer, the rest copied), and
//!   readers see exactly that last finalized state — one `RwLock`
//!   pointer swap of contention, no interleaving with ingestion.
//! * **Admission control** — ingest sheds with typed responses instead
//!   of queueing unboundedly or hanging: HTTP 503 when the
//!   [`ngl_core::DegradationMode`] ladder reaches WalOnly/ReadOnly
//!   (e.g. chaos-injected ENOSPC), HTTP 429 when the submission queue
//!   is full.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /ingest` | Lines of `id<TAB>text` (or bare `text`); one typed ack per line |
//! | `GET /tag?q=…` | Read-only tagging against the last finalized state |
//! | `GET /surface?s=…` | Clusters / types for one surface |
//! | `GET /stats` | Counters, batch sizes, p50/p99 ingest-to-ack latency, IO stats |
//! | `GET /health` | Degradation mode and admission verdict |
//! | `GET /digest` | State digest of the query snapshot |
//! | `GET /export` | Full checkpoint bytes of the query snapshot |
//! | `GET /recovery` | What `open()` replayed, including per-batch id partitions |

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use ngl_core::{
    DurableGlobalizer, NerGlobalizer, QueryTag, RecoveryReport, ShardedGlobalizer,
    ShardedRecoveryReport, SurfaceSummary,
};
use ngl_encoder::ContextualTagger;
use ngl_text::tokenize;

pub mod client;
pub mod devstack;
mod engine;
mod http;
mod stats;

pub use engine::{Ack, AckStatus};
pub use stats::ServeStats;

use engine::{mode_name, EngineStore, IngestItem, Shared};
use http::{json_escape, respond, ReadOutcome};
use stats::{add, get};

/// Ids auto-assigned to lines submitted without one start here, far
/// above any realistic client id space, and continue from the stored
/// stream length so restarts don't collide with themselves.
const AUTO_ID_BASE: u64 = 1 << 62;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Largest batch the ingest loop commits at once.
    pub max_batch: usize,
    /// How long the ingest loop waits to fill a batch after its first
    /// tweet arrives.
    pub max_delay_ms: u64,
    /// Bound of the submission queue; beyond it ingest sheds with a
    /// typed `queue_full` status.
    pub queue_cap: usize,
    /// Batches per finalize (each finalize publishes a fresh query
    /// snapshot). The queue going idle also triggers a finalize.
    pub finalize_every: usize,
    /// How long an ingest request waits for its acks before answering
    /// with a typed `ack_timeout` status (the tweet may still commit).
    pub ack_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 64,
            max_delay_ms: 5,
            queue_cap: 1024,
            finalize_every: 8,
            ack_timeout_ms: 10_000,
        }
    }
}

/// What `open()` replayed before serving started: one report for a
/// single-lineage store, per-shard reports plus the combined digest
/// for a sharded one.
#[derive(Debug, Clone)]
pub enum ServeRecovery {
    Single(RecoveryReport),
    Sharded(ShardedRecoveryReport),
}

/// A running serving instance. Dropping it without calling
/// [`Self::shutdown`] leaves the background threads running until the
/// process exits.
pub struct Server<T: ContextualTagger> {
    addr: SocketAddr,
    shared: Arc<Shared<T>>,
    tx: SyncSender<IngestItem>,
    accept_handle: Option<thread::JoinHandle<()>>,
    engine_handle: Option<thread::JoinHandle<()>>,
}

/// Everything a connection handler needs, cloned per connection.
struct HandlerCtx<T: ContextualTagger> {
    shared: Arc<Shared<T>>,
    tx: SyncSender<IngestItem>,
    recovery: Arc<ServeRecovery>,
    auto_id: Arc<AtomicU64>,
    ack_timeout: Duration,
}

impl<T: ContextualTagger> Clone for HandlerCtx<T> {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
            tx: self.tx.clone(),
            recovery: self.recovery.clone(),
            auto_id: self.auto_id.clone(),
            ack_timeout: self.ack_timeout,
        }
    }
}

impl<T: ContextualTagger> HandlerCtx<T> {
    fn snapshot(&self) -> Arc<NerGlobalizer<T>> {
        self.shared.snapshot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl<T: ContextualTagger + Send + Sync + 'static> Server<T> {
    /// Starts serving over an opened durable store. Binds synchronously
    /// — when this returns, the listener accepts connections and the
    /// first query snapshot (the recovered, finalized state) is
    /// published.
    pub fn start(
        durable: DurableGlobalizer<T>,
        recovery: RecoveryReport,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        Self::start_store(
            EngineStore::Single(Box::new(durable)),
            ServeRecovery::Single(recovery),
            cfg,
        )
    }

    /// [`Self::start`] over a hash-partitioned [`ShardedGlobalizer`]:
    /// ingest fans out to every shard (replicated ingest, partitioned
    /// ownership), queries and `/export` serve the merged cross-shard
    /// view, admission gates on the best shard's rung and `/stats` /
    /// `/health` surface the worst-of aggregate.
    pub fn start_sharded(
        sharded: ShardedGlobalizer<T>,
        recovery: ShardedRecoveryReport,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        Self::start_store(
            EngineStore::Sharded(Box::new(sharded)),
            ServeRecovery::Sharded(recovery),
            cfg,
        )
    }

    fn start_store(
        mut store: EngineStore<T>,
        recovery: ServeRecovery,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        // Startup finalize: recovery replays committed batches, but the
        // pre-crash run may have died between a batch commit and its
        // finalize. Folding the tail in now makes the published
        // snapshot (and /digest) a function of the *acked batch
        // partition alone*, which is what the kill-under-load oracle
        // compares against. A no-op finalize doesn't change state.
        let startup_finalize_ok = store.finalize().is_ok();
        let snapshot = Arc::new(store.snapshot_view());
        let auto_id = Arc::new(AtomicU64::new(AUTO_ID_BASE + snapshot.tweet_base().len() as u64));
        let shared = Arc::new(Shared {
            stats: ServeStats::default(),
            mode: AtomicU8::new(0),
            worst_mode: AtomicU8::new(0),
            shard_count: store.shard_count(),
            snapshot: RwLock::new(snapshot),
            shutdown: AtomicBool::new(false),
        });
        if startup_finalize_ok {
            add(&shared.stats.finalizes, 1);
        } else {
            add(&shared.stats.finalize_failures, 1);
        }
        engine::refresh_store_view(&shared, &store);

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel(cfg.queue_cap.max(1));

        let engine_shared = shared.clone();
        let engine_cfg = cfg.clone();
        let engine_handle = thread::Builder::new()
            .name("ngl-serve-engine".to_string())
            .spawn(move || engine::run(store, rx, engine_shared, engine_cfg))?;

        let ctx = HandlerCtx {
            shared: shared.clone(),
            tx: tx.clone(),
            recovery: Arc::new(recovery),
            auto_id,
            ack_timeout: Duration::from_millis(cfg.ack_timeout_ms.max(1)),
        };
        let accept_shared = shared.clone();
        let accept_handle =
            thread::Builder::new().name("ngl-serve-accept".to_string()).spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_ctx = ctx.clone();
                    // Thread-per-connection: clients are expected to
                    // keep connections alive, so the spawn cost is paid
                    // once per client, not per request.
                    let _ = thread::Builder::new()
                        .name("ngl-serve-conn".to_string())
                        .spawn(move || handle_connection(stream, conn_ctx));
                }
            })?;

        Ok(Self {
            addr,
            shared,
            tx,
            accept_handle: Some(accept_handle),
            engine_handle: Some(engine_handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Stops accepting, drains the ingest queue, finalizes, and joins
    /// the background threads. The durable store is dropped cleanly.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.engine_handle.take() {
            let _ = handle.join();
        }
        drop(self.tx);
    }
}

fn handle_connection<T: ContextualTagger>(mut stream: TcpStream, ctx: HandlerCtx<T>) {
    if stream.set_read_timeout(Some(http::READ_TICK)).is_err() || stream.set_nodelay(true).is_err()
    {
        return;
    }
    loop {
        match http::read_request(&mut stream, &ctx.shared.shutdown) {
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(msg) => {
                add(&ctx.shared.stats.bad_requests, 1);
                let _ = respond(&mut stream, 400, "application/json", err_json(msg).as_bytes());
                return;
            }
            ReadOutcome::Ready(req) => {
                if !dispatch(&mut stream, &req, &ctx) {
                    return;
                }
            }
        }
    }
}

/// Routes one request; returns whether the connection stays open.
fn dispatch<T: ContextualTagger>(
    stream: &mut TcpStream,
    req: &http::Request,
    ctx: &HandlerCtx<T>,
) -> bool {
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => ingest(req, ctx),
        ("GET", "/tag") => tag(req, ctx),
        ("GET", "/surface") => surface(req, ctx),
        ("GET", "/stats") => (200, stats_json(ctx)),
        ("GET", "/health") => health_json(ctx),
        ("GET", "/digest") => digest_json(ctx),
        ("GET", "/recovery") => (200, recovery_json(&ctx.recovery)),
        ("GET", "/export") => {
            let bytes = ctx.snapshot().export_state_bytes();
            return respond(stream, 200, "application/octet-stream", &bytes).is_ok();
        }
        _ => {
            add(&ctx.shared.stats.bad_requests, 1);
            (404, err_json("unknown endpoint"))
        }
    };
    respond(stream, status, "application/json", body.as_bytes()).is_ok()
}

fn err_json(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(msg))
}

// ---- ingest ------------------------------------------------------------

fn ingest<T: ContextualTagger>(req: &http::Request, ctx: &HandlerCtx<T>) -> (u16, String) {
    let stats = &ctx.shared.stats;
    let Ok(text) = std::str::from_utf8(&req.body) else {
        add(&stats.bad_requests, 1);
        return (400, err_json("body must be UTF-8"));
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        add(&stats.bad_requests, 1);
        return (400, err_json("no tweets in body"));
    }
    // Admission ladder, checked before anything is enqueued:
    // WalOnly/ReadOnly → the store cannot take (or cannot safely take)
    // writes, shed the whole request; queue full → per-line shed below.
    let mode = ctx.shared.mode.load(Ordering::Relaxed);
    if mode >= engine::mode_to_u8(ngl_core::DegradationMode::WalOnly) {
        add(&stats.shed_degraded, lines.len() as u64);
        return (503, format!("{{\"error\":\"degraded\",\"mode\":\"{}\"}}", mode_name(mode)));
    }

    enum Slot {
        Waiting(u64, mpsc::Receiver<Ack>),
        Done(u64, &'static str),
    }
    let mut slots = Vec::with_capacity(lines.len());
    let mut any_shed = false;
    for line in lines {
        let (id, tweet) = match line.split_once('\t') {
            Some((prefix, rest)) if prefix.trim().parse::<u64>().is_ok() => {
                // The parse was just checked; unwrap-free re-parse.
                (prefix.trim().parse::<u64>().unwrap_or(0), rest)
            }
            _ => (ctx.auto_id.fetch_add(1, Ordering::Relaxed), line),
        };
        let tokens: Vec<String> = tokenize(tweet).into_iter().map(|t| t.text).collect();
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        let item = IngestItem { id, tokens, submitted: Instant::now(), ack: ack_tx };
        match ctx.tx.try_send(item) {
            Ok(()) => slots.push(Slot::Waiting(id, ack_rx)),
            Err(TrySendError::Full(_)) => {
                add(&stats.shed_queue_full, 1);
                any_shed = true;
                slots.push(Slot::Done(id, "shed_queue_full"));
            }
            Err(TrySendError::Disconnected(_)) => {
                slots.push(Slot::Done(id, "failed"));
            }
        }
    }
    let deadline = Instant::now() + ctx.ack_timeout;
    let mut out = String::from("{\"results\":[");
    for (i, slot) in slots.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slot {
            Slot::Done(id, status) => {
                out.push_str(&format!("{{\"id\":{id},\"status\":\"{status}\"}}"));
            }
            Slot::Waiting(id, rx) => {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(ack) => {
                        let status = match ack.status {
                            AckStatus::Acked => "acked",
                            AckStatus::AckedTruncated => "acked_truncated",
                            AckStatus::Rejected => "rejected",
                            AckStatus::Failed => "failed",
                        };
                        match ack.detail {
                            Some(detail) => out.push_str(&format!(
                                "{{\"id\":{id},\"status\":\"{status}\",\"detail\":\"{}\"}}",
                                json_escape(&detail)
                            )),
                            None => {
                                out.push_str(&format!("{{\"id\":{id},\"status\":\"{status}\"}}"))
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                        add(&stats.ack_timeouts, 1);
                        out.push_str(&format!("{{\"id\":{id},\"status\":\"ack_timeout\"}}"));
                    }
                }
            }
        }
    }
    out.push_str("]}");
    (if any_shed { 429 } else { 200 }, out)
}

// ---- queries -----------------------------------------------------------

fn tag<T: ContextualTagger>(req: &http::Request, ctx: &HandlerCtx<T>) -> (u16, String) {
    let Some(q) = req.query.get("q") else {
        add(&ctx.shared.stats.bad_requests, 1);
        return (400, err_json("missing query parameter q"));
    };
    let tokens: Vec<String> = tokenize(q).into_iter().map(|t| t.text).collect();
    let snapshot = ctx.snapshot();
    let tags = snapshot.tag_query(&tokens);
    add(&ctx.shared.stats.queries_tag, 1);
    let mut out = String::from("{\"tokens\":[");
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(t)));
    }
    out.push_str("],\"spans\":[");
    for (i, t) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&query_tag_json(t));
    }
    out.push_str("]}");
    (200, out)
}

fn query_tag_json(t: &QueryTag) -> String {
    let mut out = format!(
        "{{\"start\":{},\"end\":{},\"type\":\"{:?}\",\"global\":{}",
        t.span.start, t.span.end, t.span.ty, t.global
    );
    if let Some(surface) = &t.surface {
        out.push_str(&format!(",\"surface\":\"{}\"", json_escape(surface)));
    }
    if let Some(score) = t.score {
        out.push_str(&format!(",\"score\":{score:.6}"));
    }
    out.push('}');
    out
}

fn surface<T: ContextualTagger>(req: &http::Request, ctx: &HandlerCtx<T>) -> (u16, String) {
    let Some(s) = req.query.get("s") else {
        add(&ctx.shared.stats.bad_requests, 1);
        return (400, err_json("missing query parameter s"));
    };
    let snapshot = ctx.snapshot();
    let summary = snapshot.surface_summary(s);
    add(&ctx.shared.stats.queries_surface, 1);
    (200, surface_summary_json(&summary))
}

fn surface_summary_json(s: &SurfaceSummary) -> String {
    let mut out = format!(
        "{{\"surface\":\"{}\",\"known\":{},\"resident\":{},\"mentions\":{},\"touched\":{},\"clusters\":[",
        json_escape(&s.surface),
        s.known,
        s.resident,
        s.mentions,
        s.touched
    );
    for (i, c) in s.clusters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let label = match c.label {
            None => "\"unclassified\"".to_string(),
            Some(None) => "\"non-entity\"".to_string(),
            Some(Some(ty)) => format!("\"{ty:?}\""),
        };
        out.push_str(&format!("{{\"label\":{label},\"members\":{}}}", c.members));
    }
    out.push_str("]}");
    out
}

// ---- introspection -----------------------------------------------------

fn stats_json<T: ContextualTagger>(ctx: &HandlerCtx<T>) -> String {
    let s = &ctx.shared.stats;
    let (p50, p99) = s.ack_latency_percentiles_us();
    let mode = ctx.shared.mode.load(Ordering::Relaxed);
    format!(
        concat!(
            "{{\"accepted\":{},\"truncated\":{},\"rejected\":{},\"failed\":{},",
            "\"shed_queue_full\":{},\"shed_degraded\":{},",
            "\"ack_timeouts\":{},\"batches\":{},\"batch_tweets\":{},\"max_batch\":{},",
            "\"finalizes\":{},\"finalize_failures\":{},",
            "\"queries_tag\":{},\"queries_surface\":{},\"bad_requests\":{},",
            "\"ack_p50_us\":{},\"ack_p99_us\":{},",
            "\"mode\":\"{}\",\"worst_mode\":\"{}\",\"shard_count\":{},",
            "\"io_transient_retries\":{},\"io_retry_exhausted\":{},",
            "\"wal_bytes_total\":{},\"snapshots\":{},\"tweet_log_bytes\":{}}}"
        ),
        get(&s.accepted),
        get(&s.truncated),
        get(&s.rejected),
        get(&s.failed),
        get(&s.shed_queue_full),
        get(&s.shed_degraded),
        get(&s.ack_timeouts),
        get(&s.batches),
        get(&s.batch_tweets),
        get(&s.max_batch),
        get(&s.finalizes),
        get(&s.finalize_failures),
        get(&s.queries_tag),
        get(&s.queries_surface),
        get(&s.bad_requests),
        p50,
        p99,
        mode_name(mode),
        mode_name(ctx.shared.worst_mode.load(Ordering::Relaxed)),
        ctx.shared.shard_count,
        get(&s.io_transient_retries),
        get(&s.io_retry_exhausted),
        get(&s.wal_bytes_total),
        get(&s.snapshots),
        get(&s.tweet_log_bytes),
    )
}

fn health_json<T: ContextualTagger>(ctx: &HandlerCtx<T>) -> (u16, String) {
    let mode = ctx.shared.mode.load(Ordering::Relaxed);
    let worst = ctx.shared.worst_mode.load(Ordering::Relaxed);
    let admitting = mode < engine::mode_to_u8(ngl_core::DegradationMode::WalOnly);
    (
        200,
        format!(
            "{{\"mode\":\"{}\",\"worst_mode\":\"{}\",\"shard_count\":{},\"admitting\":{}}}",
            mode_name(mode),
            mode_name(worst),
            ctx.shared.shard_count,
            admitting
        ),
    )
}

fn digest_json<T: ContextualTagger>(ctx: &HandlerCtx<T>) -> (u16, String) {
    let snapshot = ctx.snapshot();
    (
        200,
        format!(
            "{{\"digest\":\"{}\",\"tweets\":{},\"surfaces\":{},\"watermark\":{}}}",
            snapshot.state_digest(),
            snapshot.tweet_base().len(),
            snapshot.n_surfaces(),
            snapshot.scan_watermark()
        ),
    )
}

fn recovery_json(r: &ServeRecovery) -> String {
    match r {
        ServeRecovery::Single(report) => recovery_report_json(report),
        ServeRecovery::Sharded(report) => {
            let mut out = String::from("{\"shards\":[");
            for (i, shard) in report.shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&recovery_report_json(shard));
            }
            out.push_str("],\"caught_up_ops\":[");
            for (i, ops) in report.caught_up_ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&ops.to_string());
            }
            out.push_str(&format!(
                "],\"shard_count\":{},\"combined_digest\":\"{}\"}}",
                report.shards.len(),
                report.combined_digest
            ));
            out
        }
    }
}

fn recovery_report_json(r: &RecoveryReport) -> String {
    let mut out = format!(
        concat!(
            "{{\"snapshot_seq\":{},\"replayed_batches\":{},\"replayed_finalizes\":{},",
            "\"torn_tail\":{},\"watermark\":{},\"surfaces\":{},\"resident_surfaces\":{},",
            "\"tweets\":{},\"tweets_from_log\":{},\"mentions_from_log\":{},",
            "\"digest\":\"{}\",\"batch_ids\":["
        ),
        r.snapshot_seq.map_or("null".to_string(), |s| s.to_string()),
        r.replayed_batches,
        r.replayed_finalizes,
        r.torn_tail,
        r.watermark,
        r.surfaces,
        r.resident_surfaces,
        r.tweets,
        r.tweets_from_log,
        r.mentions_from_log,
        r.digest,
    );
    for (i, ids) in r.batch_ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, id) in ids.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}
