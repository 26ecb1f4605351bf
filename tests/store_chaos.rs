//! Storage chaos harness: seeded IO-fault schedules injected under the
//! durable pipeline, at 1 and 4 worker threads.
//!
//! The invariant under test (the "chaos contract"):
//!
//! 1. **No panic, typed errors only** — every injected fault surfaces
//!    as a typed `DurableError`/`DegradationReport`, never a panic, on
//!    any path reachable from ingestion.
//! 2. **Bitwise or degraded** — a chaos run either finishes bitwise
//!    identical to the clean run (all faults absorbed losslessly) or
//!    reports typed degradation.
//! 3. **Recovery heals** — after faults clear, reopening the chaos
//!    store replays to a state bitwise identical to reopening the
//!    never-faulted store.
//! 4. **Chaos is deterministic** — the same fault seed produces the
//!    same spans, digest and degradation counters at 1 and 4 threads
//!    (all store IO runs on the caller thread, so the fault schedule
//!    lands identically).
//!
//! Also here: the fsync-ordering regression test (a finalize mark whose
//! commit fsync fails must not be durable — the old append-then-sync
//! split acked records that could replay twice) and the
//! rotation/compaction/prune fault interplay of satellite 3.

use std::path::{Path, PathBuf};

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DegradationCause, DegradationMode, DurableError,
    DurableGlobalizer, EntityClassifier, GlobalizerConfig, NerGlobalizer, PhraseEmbedder,
    PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::faults::{IoFault, IoFaultKind, IoFaultPlan, IoOp, IoPathClass};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
use ner_globalizer::store::{IoHandle, RetryPolicy, SnapshotStore, StoreError, Wal};
use ner_globalizer::text::{BioTag, EntityType, Span};

const DIM: usize = 8;

/// Deterministic stand-in for Local NER: capitalized tokens tag as
/// B-PER, embeddings are a case-folded hash one-hot.
struct HashTagger;

impl SequenceTagger for HashTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        tokens
            .iter()
            .map(|t| {
                if t.chars().next().is_some_and(|c| c.is_uppercase()) {
                    BioTag::B(EntityType::Person)
                } else {
                    BioTag::O
                }
            })
            .collect()
    }
}

impl ContextualTagger for HashTagger {
    fn dim(&self) -> usize {
        DIM
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        let mut emb = Matrix::zeros(tokens.len(), DIM);
        for (i, t) in tokens.iter().enumerate() {
            let h = t.to_lowercase().bytes().map(|b| b as usize).sum::<usize>();
            emb.row_mut(i)[h % DIM] = 1.0;
        }
        let tags = self.tag(tokens);
        SentenceEncoding {
            embeddings: emb,
            tags,
            probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
        }
    }
}

fn pipeline(threads: usize, cfg: GlobalizerConfig) -> NerGlobalizer<HashTagger> {
    NerGlobalizer::new(
        HashTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        cfg,
    )
    .with_executor(Executor::new(threads))
}

fn full_cfg() -> GlobalizerConfig {
    GlobalizerConfig { ablation: AblationMode::FullGlobal, ..Default::default() }
}

fn gen_stream(seed: u64, n: usize) -> Vec<Vec<String>> {
    const VOCAB: [&str; 20] = [
        "Beshear",
        "Italy",
        "Madrid",
        "Wolves",
        "Andy",
        "Breonna",
        "Louisville",
        "Taylor",
        "spoke",
        "won",
        "today",
        "about",
        "stream",
        "covid",
        "rally",
        "again",
        "masks",
        "court",
        "protest",
        "governor",
    ];
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let len = 3 + rng.next_below(6) as usize;
            (0..len)
                .map(|_| VOCAB[rng.next_below(VOCAB.len() as u64) as usize].to_string())
                .collect()
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngl-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const BATCH: usize = 10;
const CKPT: usize = 3;
/// Seeded fault indices are drawn from `0..FAULT_INDEX_BOUND` per
/// (op, class). A fault-free run of the 8-batch stream makes 21 WAL
/// writes and 20 WAL syncs (2 each of snapshot writes, syncs and
/// renames), so most drawn faults land on a call the stream makes
/// instead of past its end.
const FAULT_INDEX_BOUND: u64 = 24;
/// The classes the seeded sweep draws from: without the tweet log, so
/// each seed names the same WAL and snapshot calls it named before the
/// log existed. The randomized smoke draws from every faultable class.
const SWEEP_CLASSES: &[IoPathClass] = &[IoPathClass::Wal, IoPathClass::Snapshot];

/// Opens a durable globalizer, retrying through open-time faults (the
/// fault schedule advances with every attempted IO call, so a bounded
/// number of reopens always gets through).
fn open_retrying(threads: usize, dir: &Path, io: &IoHandle) -> DurableGlobalizer<HashTagger> {
    for _ in 0..100 {
        match DurableGlobalizer::open_with_io(
            pipeline(threads, full_cfg()),
            dir,
            CKPT,
            None,
            io.clone(),
        ) {
            Ok((durable, _)) => return durable,
            Err(DurableError::Store(_)) => continue,
            Err(e) => panic!("open failed with a non-store error: {e}"),
        }
    }
    panic!("store never opened within 100 attempts — fault schedule did not clear");
}

struct ChaosOutcome {
    spans: Vec<Vec<Span>>,
    digest: u64,
    report: ner_globalizer::core::DegradationReport,
}

/// Drives the full stream through a chaos store, retrying every
/// rejected operation until it commits (faults are index-scheduled, so
/// retries eventually pass). Every error must be typed — a panic
/// anywhere fails the test.
fn run_chaos(threads: usize, dir: &Path, plan: IoFaultPlan) -> ChaosOutcome {
    let io = IoHandle::chaos(plan, RetryPolicy::default().no_sleep());
    let mut durable = open_retrying(threads, dir, &io);
    let stream = gen_stream(0xC4A05, 8 * BATCH);
    let mut spans: Vec<Vec<Span>> = Vec::new();
    for chunk in stream.chunks(BATCH) {
        let mut attempts = 0;
        while let Err(e) = durable.ingest(chunk.to_vec(), None) {
            assert!(matches!(e, DurableError::Store(_)), "untyped batch error: {e}");
            attempts += 1;
            assert!(attempts < 100, "batch never committed: {e}");
        }
        let mut attempts = 0;
        spans = loop {
            match durable.finalize() {
                Ok(out) => break out,
                Err(e) => {
                    assert!(matches!(e, DurableError::Store(_)), "untyped finalize error: {e}");
                    attempts += 1;
                    assert!(attempts < 100, "finalize never committed: {e}");
                }
            }
        };
    }
    assert!(!durable.has_pending_finalize(), "retried finalizes must all have committed");
    ChaosOutcome { spans, digest: durable.inner().state_digest(), report: durable.degradation() }
}

/// Reopens `dir` with real IO and a fresh pipeline, returning the
/// recovered digest and full state bytes.
fn recover(threads: usize, dir: &Path) -> (u64, Vec<u8>) {
    let (durable, _) = DurableGlobalizer::open(pipeline(threads, full_cfg()), dir, CKPT)
        .expect("recovery with faults cleared must succeed");
    (durable.inner().state_digest(), durable.inner().export_state_bytes())
}

#[test]
fn seeded_chaos_sweep_is_bitwise_or_degraded_and_recovers() {
    // Reference: the same stream through a never-faulted store.
    let clean_dir = scratch("sweep-clean");
    let clean = run_chaos(1, &clean_dir, IoFaultPlan::new());
    assert!(!clean.report.is_degraded(), "clean run must not degrade");
    assert_eq!(clean.report.mode(), DegradationMode::Healthy);
    let clean_recovered = recover(1, &clean_dir);

    let mut any_fault_landed = false;
    let (mut wal_failure_runs, mut snapshot_failure_runs) = (0, 0);
    for seed in 0..6u64 {
        let mut per_thread: Vec<ChaosOutcome> = Vec::new();
        for threads in [1usize, 4] {
            let plan = IoFaultPlan::seeded(seed, 12, FAULT_INDEX_BOUND, SWEEP_CLASSES);
            assert!(!plan.is_empty(), "seeded plan {seed} is empty");
            let dir = scratch(&format!("sweep-{seed}-{threads}t"));
            let outcome = run_chaos(threads, &dir, plan);

            let touched = outcome.report.is_degraded() || outcome.report.io_retries > 0;
            any_fault_landed |= touched;
            wal_failure_runs += (outcome.report.wal_commit_failures > 0) as usize;
            snapshot_failure_runs += (outcome.report.snapshot_failures > 0) as usize;

            if !outcome.report.is_degraded() {
                // Every fault was absorbed (retries): bitwise clean.
                assert_eq!(
                    outcome.spans, clean.spans,
                    "seed {seed} {threads}t: undegraded run diverged from clean spans"
                );
                assert_eq!(
                    outcome.digest, clean.digest,
                    "seed {seed} {threads}t: undegraded run diverged from clean digest"
                );
            } else {
                // Degradation must be typed and self-describing.
                assert_ne!(
                    outcome.report.mode(),
                    DegradationMode::Healthy,
                    "seed {seed} {threads}t: degraded report claims healthy"
                );
            }

            // Faults cleared: recovery replays the logged operations
            // fault-free, bitwise identical to recovering the
            // never-faulted store.
            let (digest, state) = recover(threads, &dir);
            assert_eq!(
                digest, clean_recovered.0,
                "seed {seed} {threads}t: recovered digest diverged from clean"
            );
            assert_eq!(
                state, clean_recovered.1,
                "seed {seed} {threads}t: recovered state bytes diverged from clean"
            );
            per_thread.push(outcome);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Chaos determinism: identical schedule, identical outcome at
        // both thread counts (store IO runs on the caller thread).
        let (a, b) = (&per_thread[0], &per_thread[1]);
        assert_eq!(a.spans, b.spans, "seed {seed}: spans differ across thread counts");
        assert_eq!(a.digest, b.digest, "seed {seed}: digest differs across thread counts");
        assert_eq!(
            (a.report.wal_commit_failures, a.report.snapshot_failures, a.report.io_retries),
            (b.report.wal_commit_failures, b.report.snapshot_failures, b.report.io_retries),
            "seed {seed}: degradation counters differ across thread counts"
        );
    }
    assert!(any_fault_landed, "sweep injected no faults — schedules too sparse to test anything");
    assert!(wal_failure_runs > 0, "no sweep run failed a WAL commit");
    assert!(snapshot_failure_runs > 0, "no sweep run failed a snapshot");
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// A randomized-seed smoke run for CI: one fresh schedule per
/// invocation, seed printed so a failure is reproducible by pinning it
/// in the sweep above. Uses process entropy (id + time), not wall-clock
/// randomness in the assertions themselves.
#[test]
fn randomized_seed_chaos_smoke() {
    let seed = match std::env::var("NGL_CHAOS_SEED") {
        Ok(raw) => raw.trim().parse::<u64>().expect("NGL_CHAOS_SEED must be a u64"),
        Err(_) => {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos() as u64;
            t ^ (std::process::id() as u64) << 32
        }
    };
    println!("chaos smoke seed: {seed} (rerun with NGL_CHAOS_SEED={seed})");
    let dir = scratch("smoke");
    let plan = IoFaultPlan::seeded(seed, 8, FAULT_INDEX_BOUND, &IoPathClass::FAULTABLE);
    let outcome = run_chaos(1, &dir, plan);
    // The contract subset that holds for *any* seed: typed degradation
    // or none, and fault-free recovery once the schedule is exhausted.
    if outcome.report.is_degraded() {
        assert_ne!(outcome.report.mode(), DegradationMode::Healthy, "seed {seed}");
    }
    let (digest, _) = recover(1, &dir);
    if outcome.report.snapshot_failures == 0 {
        assert_eq!(digest, outcome.digest, "seed {seed}: lossless run must recover its own state");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_degrades_to_read_only_and_clears_when_space_returns() {
    let dir = scratch("enospc");
    // WAL write indices on a fresh store: #0 creates segment zero at
    // open, #1 is the first batch commit. A span of 3 rejects that
    // commit and the rollback/repair writes behind it.
    let plan = IoFaultPlan::new().with_fault(IoFault {
        op: IoOp::Write,
        class: IoPathClass::Wal,
        index: 1,
        kind: IoFaultKind::NoSpace { span: 3 },
    });
    let io = IoHandle::chaos(plan, RetryPolicy::default().no_sleep());
    let (mut durable, _) =
        DurableGlobalizer::open_with_io(pipeline(1, full_cfg()), &dir, 100, None, io)
            .expect("open");
    let batch = gen_stream(0xE105, BATCH);

    let err = durable.ingest(batch.clone(), None).expect_err("disk is full");
    assert!(
        matches!(&err, DurableError::Store(StoreError::Io(e)) if e.raw_os_error() == Some(28)),
        "expected a typed ENOSPC, got: {err}"
    );
    let report = durable.degradation();
    assert!(report.read_only, "ENOSPC must flip the store read-only");
    assert_eq!(report.mode(), DegradationMode::ReadOnly);
    assert!(report.wal_commit_failures >= 1);
    assert!(
        report.events.iter().any(|e| e.cause == DegradationCause::DiskFull),
        "degradation events must name the disk-full cause"
    );
    assert_eq!(durable.inner().tweet_base().len(), 0, "rejected batch must not apply");

    // Space comes back (the fault span ends): the same batch commits,
    // applies exactly once, and read-only mode clears.
    let mut ok = false;
    for _ in 0..10 {
        if durable.ingest(batch.clone(), None).is_ok() {
            ok = true;
            break;
        }
    }
    assert!(ok, "batch never committed after space returned");
    let report = durable.degradation();
    assert!(!report.read_only, "a successful commit must clear read-only mode");
    assert_ne!(report.mode(), DegradationMode::ReadOnly);
    assert_eq!(durable.inner().tweet_base().len(), batch.len(), "batch must apply exactly once");

    durable.finalize().expect("finalize");
    drop(durable);
    let (recovered, report) =
        DurableGlobalizer::open(pipeline(1, full_cfg()), &dir, 100).expect("reopen");
    assert_eq!(report.replayed_batches, 1, "exactly one batch record must be durable");
    assert_eq!(recovered.inner().tweet_base().len(), batch.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (fsync ordering): a finalize group whose fsync fails is
/// rolled back, so no finalize mark can be durable ahead of its sync.
/// The pre-fix code appended then synced separately — the unacked mark
/// stayed in the file, and a caller retry double-applied on replay
/// (surfacing as a digest mismatch).
#[test]
fn fsync_failure_rolls_back_the_finalize_mark() {
    let batch = gen_stream(0xF5C, BATCH);
    // WAL sync indices on a fresh store: #0 lands with the first batch
    // commit, #1 with the finalize commit — fail that one.
    let plan = || {
        IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Sync,
            class: IoPathClass::Wal,
            index: 1,
            kind: IoFaultKind::SyncFail,
        })
    };

    // Crash flavor: the process dies after the failed finalize. On
    // reopen the batch must be durable and the finalize mark must not.
    let dir = scratch("fsync-crash");
    {
        let io = IoHandle::chaos(plan(), RetryPolicy::default().no_sleep());
        let (mut durable, _) =
            DurableGlobalizer::open_with_io(pipeline(1, full_cfg()), &dir, 100, None, io)
                .expect("open");
        durable.ingest(batch.clone(), None).expect("batch commits");
        let err = durable.finalize().expect_err("finalize fsync fails");
        assert!(matches!(err, DurableError::Store(StoreError::Io(_))), "typed error: {err}");
        assert!(durable.has_pending_finalize(), "failed finalize must be stashed, not acked");
    } // dropped mid-degradation: simulated crash
    let (_, report) =
        DurableGlobalizer::open(pipeline(1, full_cfg()), &dir, 100).expect("reopen after crash");
    assert_eq!(report.replayed_batches, 1, "the batch committed before the finalize");
    assert_eq!(
        report.replayed_finalizes, 0,
        "an unsynced finalize mark must never be durable (fsync ordering)"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Retry flavor: the caller retries the finalize instead. The spans
    // surface once, the mark lands exactly once, and replay digest-
    // verifies (the double-apply the old code produced would fail it).
    let want = {
        let dir = scratch("fsync-ref");
        let (mut clean, _) =
            DurableGlobalizer::open(pipeline(1, full_cfg()), &dir, 100).expect("open clean");
        clean.ingest(batch.clone(), None).expect("batch");
        let out = clean.finalize().expect("finalize");
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let dir = scratch("fsync-retry");
    {
        let io = IoHandle::chaos(plan(), RetryPolicy::default().no_sleep());
        let (mut durable, _) =
            DurableGlobalizer::open_with_io(pipeline(1, full_cfg()), &dir, 100, None, io)
                .expect("open");
        durable.ingest(batch.clone(), None).expect("batch commits");
        durable.finalize().expect_err("finalize fsync fails");
        let got = durable.finalize().expect("retry commits the stashed mark");
        assert_eq!(got, want, "retried finalize must surface the stashed spans");
        assert!(!durable.has_pending_finalize());
        assert!(durable.degradation().wal_commit_failures >= 1, "the failure left a trace");
    }
    let (_, report) = DurableGlobalizer::open(pipeline(1, full_cfg()), &dir, 100)
        .expect("reopen after retry — a duplicated mark would digest-mismatch here");
    assert_eq!(report.replayed_finalizes, 1, "the retried mark must be durable exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3, store level: a fault mid-rotation must neither leak a
/// live segment ahead of the log nor let compaction eat unsnapshotted
/// records.
#[test]
fn rotation_fault_interplay_leaks_no_segments_and_compacts_nothing_early() {
    let dir = scratch("rotate");
    let records: Vec<(u8, Vec<u8>)> = (0u8..5).map(|i| (1, vec![i; 64])).collect();

    // Rotation's segment-create write fails (torn to nothing).
    let plan = IoFaultPlan::new().with_fault(IoFault {
        op: IoOp::Write,
        class: IoPathClass::Wal,
        // #0 creates segment zero, #1..=#5 are the five commits below.
        index: 6,
        kind: IoFaultKind::TornWrite { keep_pct: 0 },
    });
    let io = IoHandle::chaos(plan, RetryPolicy::none().no_sleep());
    let mut wal = Wal::open_with_io(&dir, 64 * 1024, io).expect("open");
    for (tag, payload) in &records {
        wal.commit(&[(*tag, payload.as_slice())]).expect("commit");
    }
    wal.rotate().expect_err("rotation hits the injected fault");

    // No leak: appends continue in segment zero, and no wal-00000001
    // exists on disk.
    let seg1 = dir.join("wal-00000001.log");
    assert!(!seg1.exists(), "failed rotation must not leave a segment behind");
    wal.commit(&[(9, &[0xAB; 16])]).expect("log keeps accepting appends");

    // No premature compaction: compact_below(active) after the failed
    // rotation has nothing below the active segment to remove.
    let removed = wal.compact_below(0).expect("compact");
    assert_eq!(removed, 0, "nothing may be compacted before a successful rotation");
    let replay = wal.replay().expect("replay");
    assert_eq!(replay.records.len(), records.len() + 1, "every committed record survives");

    // Faults exhausted: the next rotation succeeds and compaction then
    // removes exactly the sealed segment.
    let active = wal.rotate().expect("clean rotation");
    assert_eq!(active, 1);
    assert!(seg1.exists());
    assert_eq!(wal.compact_below(active).expect("compact"), 1, "exactly segment zero is sealed");
    assert!(!dir.join("wal-00000000.log").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3, snapshot level: a fault in the snapshot tmp-rename
/// keeps the previous snapshot live, and a later prune failure is
/// typed — `latest()` never regresses past a prune.
#[test]
fn snapshot_write_and_prune_faults_keep_the_newest_valid_snapshot() {
    let dir = scratch("snapprune");
    let plan = IoFaultPlan::new()
        // Second snapshot's publish rename fails...
        .with_fault(IoFault {
            op: IoOp::Rename,
            class: IoPathClass::Snapshot,
            index: 1,
            kind: IoFaultKind::Transient,
        })
        // ...and the first prune's remove fails (remove #0 is the
        // failed write's tmp-file cleanup).
        .with_fault(IoFault {
            op: IoOp::Remove,
            class: IoPathClass::Snapshot,
            index: 1,
            kind: IoFaultKind::Transient,
        });
    let io = IoHandle::chaos(plan, RetryPolicy::none().no_sleep());
    let snaps = SnapshotStore::open_with_io(&dir, io).expect("open");

    snaps.write(10, b"ten").expect("first snapshot");
    let err = snaps.write(20, b"twenty").expect_err("publish rename faulted");
    assert!(matches!(err, StoreError::Io(_)), "typed: {err}");
    // The failed write must not have clobbered the previous snapshot,
    // and must not have left its tmp file behind.
    let (seq, payload) = snaps.latest().expect("latest").expect("one snapshot live");
    assert_eq!((seq, payload.as_slice()), (10, b"ten".as_slice()));
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "failed snapshot left tmp files: {leftovers:?}");

    // Retried write (faults exhausted) succeeds; the faulted prune is
    // a typed error and removes nothing it shouldn't.
    snaps.write(20, b"twenty").expect("retry");
    snaps.write(30, b"thirty").expect("third snapshot");
    let err = snaps.prune_below(30).expect_err("prune remove faulted");
    assert!(matches!(err, StoreError::Io(_)), "typed: {err}");
    let (seq, _) = snaps.latest().expect("latest").expect("live");
    assert_eq!(seq, 30, "a failed prune must never regress the newest snapshot");
    // Retrying the prune is safe and finishes the job.
    snaps.prune_below(30).expect("prune retry");
    let mut left = snaps.list().expect("list");
    left.sort_unstable();
    assert_eq!(left, vec![30]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3, durable level: a failed snapshot write degrades to
/// WAL-only (typed, finalize still succeeds) and the next finalize
/// heals by retrying the snapshot.
#[test]
fn snapshot_failure_degrades_to_wal_only_and_heals_on_retry() {
    let dir = scratch("walonly");
    // First snapshot publish (tmp-file write) fails.
    let plan = IoFaultPlan::new().with_fault(IoFault {
        op: IoOp::Write,
        class: IoPathClass::Snapshot,
        index: 0,
        kind: IoFaultKind::NoSpace { span: 1 },
    });
    let io = IoHandle::chaos(plan, RetryPolicy::default().no_sleep());
    let (mut durable, _) = DurableGlobalizer::open_with_io(
        pipeline(1, full_cfg()),
        &dir,
        1, // snapshot every finalize
        None,
        io,
    )
    .expect("open");
    let stream = gen_stream(0x5A10, 2 * BATCH);

    durable.ingest(stream[..BATCH].to_vec(), None).expect("batch");
    durable.finalize().expect("finalize must succeed though its snapshot failed");
    let report = durable.degradation();
    assert!(report.snapshot_lagging, "failed snapshot must flag WAL-only operation");
    assert_eq!(report.mode(), DegradationMode::WalOnly);
    assert!(report.snapshot_failures >= 1);
    assert!(report.events.iter().any(|e| e.cause == DegradationCause::DiskFull));
    assert_eq!(durable.stats().snapshots, 0);

    // The WAL alone still recovers everything acknowledged so far.
    let (probe, recovery) =
        DurableGlobalizer::open(pipeline(1, full_cfg()), &dir, 1).expect("WAL-only store recovers");
    assert_eq!(recovery.snapshot_seq, None, "no snapshot exists yet");
    assert_eq!(probe.inner().state_digest(), durable.inner().state_digest());
    drop(probe);

    // Next finalize retries the snapshot; the fault span has passed.
    durable.ingest(stream[BATCH..].to_vec(), None).expect("batch");
    durable.finalize().expect("finalize");
    let report = durable.degradation();
    assert!(!report.snapshot_lagging, "a successful snapshot must end WAL-only mode");
    assert_eq!(durable.stats().snapshots, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed tweet-log append (torn write, failed fsync, full disk)
/// fails only its snapshot: the finalize still acks, the store degrades
/// to WAL-only, the next finalize retries the snapshot, and the run and
/// its recovery are bitwise identical to the never-faulted store.
#[test]
fn tweet_log_faults_degrade_to_wal_only_and_recover_bitwise() {
    let clean_dir = scratch("logfault-clean");
    let clean = run_chaos(1, &clean_dir, IoFaultPlan::new());
    let clean_recovered = recover(1, &clean_dir);
    let stream = gen_stream(0xC4A05, 8 * BATCH);
    // Tweet-log write #0 creates its first segment at open and #1 is
    // the first snapshot's append; sync #0 is that append's fsync.
    let faults = [
        (IoOp::Write, 1, IoFaultKind::TornWrite { keep_pct: 40 }),
        (IoOp::Sync, 0, IoFaultKind::SyncFail),
        (IoOp::Write, 1, IoFaultKind::NoSpace { span: 1 }),
    ];
    for (op, index, kind) in faults {
        for threads in [1usize, 4] {
            let what = format!("{op:?} {kind:?} {threads}t");
            let plan = IoFaultPlan::new().with_fault(IoFault {
                op,
                class: IoPathClass::TweetLog,
                index,
                kind,
            });
            let io = IoHandle::chaos(plan, RetryPolicy::default().no_sleep());
            let dir = scratch(&format!("logfault-{op:?}-{threads}t"));
            let mut durable = open_retrying(threads, &dir, &io);
            let mut spans = Vec::new();
            for (i, chunk) in stream.chunks(BATCH).enumerate() {
                durable.ingest(chunk.to_vec(), None).expect("batch");
                spans = durable.finalize().unwrap_or_else(|e| panic!("{what}: finalize {i}: {e}"));
                let report = durable.degradation();
                if i + 1 == CKPT {
                    assert_eq!(report.mode(), DegradationMode::WalOnly, "{what}");
                    assert_eq!(report.snapshot_failures, 1, "{what}");
                    assert_eq!(durable.stats().snapshots, 0, "{what}");
                    assert!(
                        report.events.iter().any(|e| matches!(
                            e.cause,
                            DegradationCause::SnapshotWrite | DegradationCause::DiskFull
                        )),
                        "{what}: the failure must be named"
                    );
                }
                if i == CKPT {
                    assert!(!report.snapshot_lagging, "{what}: the retry must publish");
                    assert_eq!(durable.stats().snapshots, 1, "{what}");
                }
            }
            assert_eq!(spans, clean.spans, "{what}: spans");
            assert_eq!(durable.inner().state_digest(), clean.digest, "{what}: digest");
            drop(durable);
            assert_eq!(recover(threads, &dir), clean_recovered, "{what}: recovery");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// A snapshot that cannot be read at open (an IO error, not a corrupt
/// file) fails the open instead of being skipped: falling back to an
/// older snapshot would cut the tweet-log records the newest one still
/// references. The failed open leaves every file as it was, and a
/// fault-free reopen recovers the clean state bitwise.
#[test]
fn snapshot_read_errors_at_open_fail_it_and_cut_nothing() {
    let dir = scratch("snapread");
    let clean = run_chaos(1, &dir, IoFaultPlan::new());
    let clean_recovered = recover(1, &dir);
    let files = |dir: &Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let name = path.file_name().expect("name").to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("read"))
            })
            .collect();
        files.sort();
        files
    };
    let before = files(&dir);
    assert!(before.iter().any(|(n, _)| n.starts_with("tweets-")), "{before:?}");
    for threads in [1usize, 4] {
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Read,
            class: IoPathClass::Snapshot,
            index: 0,
            kind: IoFaultKind::Transient,
        });
        let io = IoHandle::chaos(plan, RetryPolicy::none().no_sleep());
        let err =
            DurableGlobalizer::open_with_io(pipeline(threads, full_cfg()), &dir, CKPT, None, io)
                .err()
                .expect("an unreadable newest snapshot must fail the open");
        assert!(matches!(err, DurableError::Store(StoreError::Io(_))), "{threads}t: {err}");
        assert_eq!(files(&dir), before, "{threads}t: the failed open changed the store");
        assert_eq!(recover(threads, &dir), clean_recovered, "{threads}t: recovery");
        assert_eq!(clean_recovered.0, clean.digest);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
