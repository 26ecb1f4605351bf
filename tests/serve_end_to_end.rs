//! End-to-end tests for the serving front-end (`ngl-serve`).
//!
//! The serving contract under test:
//!
//! 1. **Batching ingest** — concurrent clients submit tweets; the
//!    engine coalesces them into multi-tweet batches and every tweet
//!    gets exactly one typed ack.
//! 2. **Kill-under-load durability** — SIGKILL the serving process
//!    mid-load, restart on the same store dir, and the recovered state
//!    is bitwise identical to a clean run over the committed batch
//!    partition; every acked tweet survives, and nothing that was never
//!    submitted appears.
//! 3. **Admission control** — storage faults (chaos ENOSPC) and queue
//!    overflow shed with typed responses, within deadlines, without
//!    taking the server down.
//!
//! The kill tests drive the `serve_harness` binary (deterministic
//! devstack models, so a restarted process reconstructs the same
//! pipeline); everything else runs the server in-process.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ner_globalizer::core::{DurableGlobalizer, GlobalizerConfig, PoolPolicy};
use ner_globalizer::runtime::faults::{IoFault, IoFaultKind, IoFaultPlan, IoOp, IoPathClass};
use ner_globalizer::serve::client::{percent_encode, Client};
use ner_globalizer::serve::{devstack, ServeConfig, Server};
use ner_globalizer::store::{IoHandle, RetryPolicy};
use ner_globalizer::text::tokenize;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngl-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shared_cfg() -> GlobalizerConfig {
    GlobalizerConfig { pool: PoolPolicy::Shared, ..Default::default() }
}

/// Deterministic tweet text for an id — the kill-under-load oracle
/// regenerates the exact payload of every replayed id from this.
fn tweet_text(id: u64) -> String {
    let people = ["Alice Fern", "Bob Quill", "Cara Moss", "Dan Reed"];
    let places = ["Paris", "Oslo", "Lima", "Cairo"];
    format!("{} visits {} again t{id}", people[(id % 4) as usize], places[((id / 4) % 4) as usize])
}

fn tweet_tokens(id: u64) -> Vec<String> {
    tokenize(&tweet_text(id)).into_iter().map(|t| t.text).collect()
}

/// Pulls `(id, status)` pairs out of an `/ingest` response body.
fn parse_results(body: &str) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    for part in body.split("{\"id\":").skip(1) {
        let end = part.find([',', '}']).expect("id terminator");
        let id: u64 = part[..end].parse().expect("numeric id");
        let status = part
            .split("\"status\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("status field")
            .to_string();
        out.push((id, status));
    }
    out
}

/// Reads one numeric counter out of a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len()..];
    let rest = rest.trim_start_matches('"');
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("numeric {key} in {body}"))
}

/// Parses the `batch_ids` array-of-arrays out of a `/recovery` body.
fn parse_batch_ids(body: &str) -> Vec<Vec<u64>> {
    let pat = "\"batch_ids\":[";
    let start = body.find(pat).expect("batch_ids field") + pat.len();
    let mut out = Vec::new();
    let mut cur: Option<Vec<u64>> = None;
    let mut num = String::new();
    for c in body[start..].chars() {
        match c {
            '[' => cur = Some(Vec::new()),
            '0'..='9' => num.push(c),
            ',' => {
                if let (Some(v), false) = (cur.as_mut(), num.is_empty()) {
                    v.push(num.parse().expect("batch id"));
                    num.clear();
                }
            }
            ']' => match cur.take() {
                Some(mut v) => {
                    if !num.is_empty() {
                        v.push(num.parse().expect("batch id"));
                        num.clear();
                    }
                    out.push(v);
                }
                None => return out, // outer array closed
            },
            _ => {}
        }
    }
    out
}

/// `GET path` returning the raw body bytes (the keep-alive [`Client`]
/// is text-only; `/export` is binary).
fn get_bytes(addr: &str, path: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head =
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| {
            l.split_once(':').filter(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("content-length");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    body
}

// ---- in-process: batching + query path ---------------------------------

#[test]
fn concurrent_clients_coalesce_into_batches_and_queries_see_finalized_state() {
    const WRITERS: u64 = 4;
    const REQUESTS: u64 = 10;
    const LINES: u64 = 5;
    let dir = scratch("batching");
    let (durable, recovery) =
        DurableGlobalizer::open(devstack::pipeline(shared_cfg()), &dir, 8).expect("open");
    let server = Server::start(
        durable,
        recovery,
        ServeConfig {
            max_batch: 32,
            max_delay_ms: 20,
            finalize_every: 4,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut acked = Vec::new();
                for r in 0..REQUESTS {
                    let body: String = (0..LINES)
                        .map(|l| {
                            let id = w * 1_000_000 + r * LINES + l;
                            format!("{id}\t{}\n", tweet_text(id))
                        })
                        .collect();
                    let (status, body) = client.ingest(&body).expect("ingest");
                    assert_eq!(status, 200, "no shedding expected: {body}");
                    for (id, st) in parse_results(&body) {
                        assert!(
                            st == "acked" || st == "acked_truncated",
                            "tweet {id} not acked: {st}"
                        );
                        acked.push(id);
                    }
                }
                acked
            })
        })
        .collect();
    let mut acked = HashSet::new();
    for handle in handles {
        acked.extend(handle.join().expect("writer"));
    }
    let total = WRITERS * REQUESTS * LINES;
    assert_eq!(acked.len() as u64, total, "every submitted tweet acked exactly once");

    let mut client = Client::new(addr);
    let (status, stats) = client.get("/stats").expect("stats");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&stats, "accepted"), total);
    let batches = json_u64(&stats, "batches");
    assert!(batches >= 1);
    assert!(
        batches < total,
        "concurrent submissions must coalesce: {batches} batches for {total} tweets"
    );
    assert!(json_u64(&stats, "max_batch") >= 2, "at least one multi-tweet batch");
    assert_eq!(json_u64(&stats, "failed"), 0);
    assert_eq!(json_u64(&stats, "shed_queue_full"), 0);

    // The queue has drained, so the idle finalize has published every
    // acked tweet into the query snapshot.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, digest) = client.get("/digest").expect("digest");
        assert_eq!(status, 200);
        if json_u64(&digest, "tweets") == total {
            break;
        }
        assert!(Instant::now() < deadline, "snapshot never caught up: {digest}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, tagged) =
        client.get(&format!("/tag?q={}", percent_encode("Alice Fern visits Paris"))).expect("tag");
    assert_eq!(status, 200);
    assert!(tagged.contains("\"tokens\":[\"Alice\""), "echoes tokens: {tagged}");
    assert!(tagged.contains("\"spans\":["), "has a spans array: {tagged}");
    let (status, surface) =
        client.get(&format!("/surface?s={}", percent_encode("Alice Fern"))).expect("surface");
    assert_eq!(status, 200);
    assert!(surface.contains("\"known\":true"), "an ingested surface is in the trie: {surface}");
    assert!(json_u64(&surface, "mentions") > 0, "mentions counted: {surface}");
    let (status, health) = client.get("/health").expect("health");
    assert_eq!(status, 200);
    assert!(health.contains("\"admitting\":true"), "healthy store admits: {health}");
    let (status, _) = client.get("/nope").expect("404");
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- harness-driven: kill under load -----------------------------------

struct Harness {
    child: Child,
    addr: String,
}

fn spawn_harness(dir: &std::path::Path, extra: &[&str]) -> Harness {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_harness"))
        .arg("--store-dir")
        .arg(dir)
        .args(["--addr", "127.0.0.1:0", "--finalize-every", "1"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve_harness");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected harness banner: {line:?}"))
        .trim()
        .to_string();
    Harness { child, addr }
}

#[test]
fn sigkill_under_load_recovers_bitwise_identical_to_clean_run() {
    const WRITERS: u64 = 4;
    let dir = scratch("kill");
    // Snapshots fold committed batches out of the WAL, and the
    // /recovery partition only covers what *replays*; disabling them
    // keeps `batch_ids` the complete committed history, which is what
    // the clean-run oracle below needs.
    let harness_args: &[&str] =
        &["--max-batch", "8", "--max-delay-ms", "2", "--checkpoint-every", "1000000"];
    let harness = spawn_harness(&dir, harness_args);
    let addr = harness.addr.clone();
    let mut child = harness.child;

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut submitted = Vec::new();
                let mut acked = Vec::new();
                let mut next = w * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let id = next;
                    next += 1;
                    submitted.push(id);
                    let line = format!("{id}\t{}", tweet_text(id));
                    match client.ingest(&line) {
                        Ok((_, body)) => {
                            for (rid, st) in parse_results(&body) {
                                if st == "acked" || st == "acked_truncated" {
                                    acked.push(rid);
                                }
                            }
                        }
                        // The SIGKILL tears the connection down
                        // mid-request; everything after it fails too.
                        Err(_) => break,
                    }
                }
                (submitted, acked)
            })
        })
        .collect();

    // Let load build, then SIGKILL mid-flight — no shutdown path runs.
    std::thread::sleep(Duration::from_millis(400));
    child.kill().expect("kill");
    let _ = child.wait();
    stop.store(true, Ordering::Relaxed);
    let mut submitted = HashSet::new();
    let mut acked = HashSet::new();
    for handle in handles {
        let (s, a) = handle.join().expect("writer");
        submitted.extend(s);
        acked.extend(a);
    }
    assert!(!acked.is_empty(), "the run must ack something before the kill");

    // Restart on the same store. Its recovery report carries the exact
    // committed batch partition; its published snapshot folds in the
    // startup finalize, so /digest is a function of that partition.
    let restarted = spawn_harness(&dir, harness_args);
    let mut client = Client::new(restarted.addr.clone());
    let (status, recovery) = client.get("/recovery").expect("recovery");
    assert_eq!(status, 200);
    let batch_ids = parse_batch_ids(&recovery);
    let replayed: HashSet<u64> = batch_ids.iter().flatten().copied().collect();
    let replayed_total: usize = batch_ids.iter().map(Vec::len).sum();
    assert_eq!(replayed.len(), replayed_total, "no id committed twice");
    for id in &acked {
        assert!(replayed.contains(id), "acked tweet {id} lost by recovery");
    }
    for id in &replayed {
        assert!(
            submitted.contains(id),
            "recovered tweet {id} was never submitted (unacked in-flight ids are \
             allowed — their batch committed before the ack got out — but \
             unknown ids are corruption)"
        );
    }
    let (status, digest_body) = client.get("/digest").expect("digest");
    assert_eq!(status, 200);
    let recovered_digest = json_u64(&digest_body, "digest");
    let export = get_bytes(&restarted.addr, "/export");
    let mut child = restarted.child;
    child.kill().expect("kill restarted");
    let _ = child.wait();

    // Clean-run oracle: same deterministic devstack models, the exact
    // recovered batch partition, finalize after every batch (the
    // harness runs --finalize-every 1).
    let oracle_dir = scratch("kill-oracle");
    let (mut oracle, _) =
        DurableGlobalizer::open(devstack::pipeline(shared_cfg()), &oracle_dir, 4).expect("oracle");
    for ids in &batch_ids {
        let tweets = ids.iter().map(|&id| tweet_tokens(id)).collect();
        oracle.ingest(tweets, Some(ids.clone())).expect("oracle batch");
        oracle.finalize().expect("oracle finalize");
    }
    oracle.finalize().expect("oracle tail finalize");
    assert_eq!(
        oracle.inner().state_digest(),
        recovered_digest,
        "recovered digest must equal a clean run over the committed partition"
    );
    assert_eq!(
        &oracle.inner().export_state_bytes()[..],
        &export[..],
        "recovered state must be bitwise identical to the clean run"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

// ---- admission control -------------------------------------------------

#[test]
fn enospc_degrades_to_typed_sheds_while_queries_stay_up() {
    let dir = scratch("enospc");
    // WAL write #0 creates segment zero at open, #1 is the server's
    // startup finalize mark, #2 is the first batch commit. A wide span
    // keeps the disk "full" for the whole test, so the degradation
    // ladder wedges at ReadOnly.
    let plan = IoFaultPlan::new().with_fault(IoFault {
        op: IoOp::Write,
        class: IoPathClass::Wal,
        index: 2,
        kind: IoFaultKind::NoSpace { span: 10_000 },
    });
    let io = IoHandle::chaos(plan, RetryPolicy::default().no_sleep());
    let (durable, recovery) =
        DurableGlobalizer::open_with_io(devstack::pipeline(shared_cfg()), &dir, 100, None, io)
            .expect("open");
    let server = Server::start(
        durable,
        recovery,
        ServeConfig { max_batch: 4, max_delay_ms: 2, finalize_every: 1, ..ServeConfig::default() },
    )
    .expect("start");
    let mut client = Client::new(server.addr().to_string());

    // The first batch hits the injected ENOSPC: the commit fails, the
    // submitter gets a typed `failed` ack (not a hang, not a panic).
    let (_, body) = client.ingest("1\tAlice Fern visits Paris").expect("ingest");
    let results = parse_results(&body);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1, "failed", "commit failure must surface typed: {body}");

    // The engine refreshes its store view right after the failed
    // commit; within the deadline the server advertises ReadOnly...
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, health) = client.get("/health").expect("health");
        if health.contains("\"mode\":\"ReadOnly\"") {
            assert!(health.contains("\"admitting\":false"), "read-only store admits: {health}");
            break;
        }
        assert!(Instant::now() < deadline, "never reached ReadOnly: {health}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...and sheds new writes up front with a typed 503.
    let (status, body) = client.ingest("2\tBob Quill visits Oslo").expect("ingest while degraded");
    assert_eq!(status, 503, "degraded store sheds: {body}");
    assert!(body.contains("\"error\":\"degraded\""), "typed shed: {body}");
    assert!(body.contains("ReadOnly"), "shed names the mode: {body}");
    let (_, stats) = client.get("/stats").expect("stats");
    assert!(json_u64(&stats, "shed_degraded") >= 1);
    assert_eq!(json_u64(&stats, "failed"), 1);

    // The query path never touches the WAL: still up, still typed.
    let (status, tagged) =
        client.get(&format!("/tag?q={}", percent_encode("Alice Fern visits Paris"))).expect("tag");
    assert_eq!(status, 200);
    assert!(tagged.contains("\"spans\":["));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_sheds_typed_per_tweet() {
    const LINES: u64 = 200;
    let dir = scratch("queuefull");
    let (durable, recovery) =
        DurableGlobalizer::open(devstack::pipeline(shared_cfg()), &dir, 8).expect("open");
    // A one-slot queue behind 64-tweet batches: one oversized request
    // outruns the engine by construction, so the tail of the request
    // must shed rather than block the connection handler.
    let server = Server::start(
        durable,
        recovery,
        ServeConfig {
            max_batch: 64,
            max_delay_ms: 50,
            queue_cap: 1,
            finalize_every: 8,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let mut client = Client::new(server.addr().to_string());
    let body: String = (0..LINES).map(|id| format!("{id}\t{}\n", tweet_text(id))).collect();
    let (status, body) = client.ingest(&body).expect("ingest");
    let results = parse_results(&body);
    assert_eq!(results.len() as u64, LINES, "every line gets a typed status");
    let shed = results.iter().filter(|(_, s)| s == "shed_queue_full").count();
    let acked = results.iter().filter(|(_, s)| s == "acked" || s == "acked_truncated").count();
    assert!(shed >= 1, "a full queue must shed: {body}");
    assert!(acked >= 1, "the enqueued head must still commit");
    assert_eq!(shed + acked, LINES as usize, "typed statuses only: {body}");
    assert_eq!(status, 429, "a shedding response is marked 429");
    let (_, stats) = client.get("/stats").expect("stats");
    assert_eq!(json_u64(&stats, "shed_queue_full"), shed as u64);
    assert_eq!(json_u64(&stats, "accepted"), acked as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
