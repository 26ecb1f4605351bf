//! Kill-at-any-byte recovery: the durable store's central promise is
//! that a crash at *any* write boundary — including mid-record — loses
//! at most the torn suffix of the WAL, and recovery lands on a state
//! bitwise identical to a clean run over the records that survived.
//!
//! The harness records a reference state (canonical checkpoint bytes)
//! after every logged operation of a clean durable run, then replays
//! recovery against a copy of the store truncated at **every byte
//! offset** of its WAL (and with single-byte corruptions of the tail),
//! asserting the recovered state is exactly one of the recorded
//! prefixes — never a blend, never a crash. Verified at 1 and 4
//! worker threads; the recovered bytes must also be identical across
//! thread counts (replay rides on the pipeline's parallel-equivalence
//! guarantee).
//!
//! The tweet log next to the WAL gets the same treatment: a crash
//! between its fsync and the snapshot's rename, at every byte of its
//! last append, recovers exactly, and a damaged record that a live
//! snapshot references is a typed error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DurableError, DurableGlobalizer, EntityClassifier,
    GlobalizerConfig, NerGlobalizer, PhraseEmbedder, PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::faults::{IoFault, IoFaultKind, IoFaultPlan, IoOp, IoPathClass};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
use ner_globalizer::store::{IoHandle, RetryPolicy};
use ner_globalizer::text::{BioTag, EntityType};

const DIM: usize = 8;
const BATCH: usize = 6;

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

fn pipeline(threads: usize) -> NerGlobalizer<HashTagger> {
    NerGlobalizer::new(
        HashTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        GlobalizerConfig { ablation: AblationMode::FullGlobal, ..Default::default() },
    )
    .with_executor(Executor::new(threads))
}

/// A reproducible token stream with recurring entity surfaces.
fn gen_stream(seed: u64, n: usize) -> Vec<Vec<String>> {
    const VOCAB: [&str; 12] = [
        "Beshear", "Italy", "Madrid", "Wolves", "spoke", "won", "today", "about", "stream",
        "covid", "rally", "again",
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

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngl-walrec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the full durable stream cleanly and records the canonical
/// state bytes keyed by `op_seq` after every logged operation (op 0 is
/// the empty pipeline).
fn record_reference(
    threads: usize,
    checkpoint_every: usize,
    dir: &Path,
    stream: &[Vec<String>],
) -> BTreeMap<u64, Vec<u8>> {
    let (mut durable, report) =
        DurableGlobalizer::open(pipeline(threads), dir, checkpoint_every).expect("open");
    assert_eq!(report.replayed_batches, 0, "reference store must start empty");
    let mut states = BTreeMap::new();
    states.insert(0u64, durable.inner().export_state_bytes());
    for chunk in stream.chunks(BATCH) {
        let (_, report) = durable.ingest(chunk.to_vec(), None).expect("batch");
        assert!(report.all_ok(), "reference stream is clean by construction");
        states.insert(durable.op_seq(), durable.inner().export_state_bytes());
        durable.finalize().expect("finalize");
        assert!(durable.take_finalize_errors().is_empty());
        states.insert(durable.op_seq(), durable.inner().export_state_bytes());
    }
    states
}

/// Sorted (seq, path, bytes) of every WAL segment in `dir`.
fn wal_segments(dir: &Path) -> Vec<(u64, PathBuf, Vec<u8>)> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(seq) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".log")) {
            let seq: u64 = seq.parse().expect("segment seq");
            let bytes = std::fs::read(&path).expect("segment bytes");
            segs.push((seq, path, bytes));
        }
    }
    segs.sort();
    segs
}

/// Copies every non-WAL file (snapshots, metadata) of `src` into `dst`.
fn copy_non_wal(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy dst");
    for entry in std::fs::read_dir(src).expect("read src") {
        let path = entry.expect("entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if !name.starts_with("wal-") {
            std::fs::copy(&path, dst.join(&name)).expect("copy file");
        }
    }
}

/// Recovers a (possibly mutilated) store copy and asserts the result
/// is exactly one recorded prefix state; returns the landed op_seq.
fn assert_prefix_recovery(
    dir: &Path,
    threads: usize,
    checkpoint_every: usize,
    reference: &BTreeMap<u64, Vec<u8>>,
    what: &str,
) -> u64 {
    let (durable, report) = DurableGlobalizer::open(pipeline(threads), dir, checkpoint_every)
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let op = durable.op_seq();
    let state =
        reference.get(&op).unwrap_or_else(|| panic!("{what}: landed on unrecorded op {op}"));
    assert_eq!(
        durable.inner().export_state_bytes(),
        &state[..],
        "{what}: recovered state at op {op} is not bitwise identical to the clean run"
    );
    assert_eq!(report.digest, durable.inner().state_digest(), "{what}: report digest");
    op
}

/// The truncation sweep for one snapshot cadence: every byte offset of
/// the surviving WAL (later segments deleted, containing segment cut)
/// must recover to a recorded prefix, at 1 thread exhaustively and at
/// 4 threads on a stride (plus both endpoints).
fn sweep(tag: &str, checkpoint_every: usize) {
    let root = scratch_root(tag);
    let stream = gen_stream(0xD5, 4 * BATCH);

    let ref_dir = root.join("clean-1t");
    let reference = record_reference(1, checkpoint_every, &ref_dir, &stream);
    // Thread count must not leak into the durable state bytes.
    let reference_4t = record_reference(4, checkpoint_every, &root.join("clean-4t"), &stream);
    assert_eq!(reference, reference_4t, "{tag}: reference states differ across thread counts");

    let segments = wal_segments(&ref_dir);
    assert!(!segments.is_empty(), "{tag}: no WAL segments to sweep");
    let total: usize = segments.iter().map(|(_, _, b)| b.len()).sum();
    assert!(total > 0, "{tag}: empty WAL");

    let final_op = *reference.keys().next_back().expect("ops");
    let mut landed = Vec::new();
    for cut in 0..=total {
        let case = root.join("case");
        let _ = std::fs::remove_dir_all(&case);
        copy_non_wal(&ref_dir, &case);
        let mut remaining = cut;
        for (seq, _, bytes) in &segments {
            let keep = remaining.min(bytes.len());
            remaining -= keep;
            if keep > 0 {
                std::fs::write(case.join(format!("wal-{seq:08}.log")), &bytes[..keep])
                    .expect("write cut segment");
            }
            // keep == 0: the tear is before this segment — it (and all
            // later ones) never made it to disk.
        }
        let threads = if cut % 7 == 0 || cut == total { 4 } else { 1 };
        let op = assert_prefix_recovery(
            &case,
            threads,
            checkpoint_every,
            &reference,
            &format!("{tag}: cut at byte {cut}/{total} ({threads}t)"),
        );
        landed.push(op);
    }
    // The sweep must be monotone (more surviving bytes never recover
    // *less*) and span from the snapshot floor to the complete run.
    assert!(landed.windows(2).all(|w| w[0] <= w[1]), "{tag}: recovery not prefix-monotone");
    assert_eq!(*landed.last().expect("cases"), final_op, "{tag}: whole WAL must replay fully");
    assert!(
        landed.iter().any(|&op| op > landed[0]),
        "{tag}: sweep never progressed past the floor — nothing was actually replayed"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_at_any_byte_recovers_a_bitwise_identical_prefix_pure_replay() {
    // Cadence far beyond the stream: no snapshots, the WAL carries
    // every op and the sweep exercises pure replay from empty.
    sweep("replay", 1000);
}

#[test]
fn kill_at_any_byte_recovers_a_bitwise_identical_prefix_with_snapshots() {
    // Snapshot (and compact) every 3 finalizes: recovery = newest
    // surviving snapshot + the WAL suffix, never below the snapshot.
    sweep("snap", 3);
}

/// A long unsnapshotted WAL suffix — several batches per finalize
/// barrier plus trailing unfinalized batches — is the case the
/// concurrent (prewarm-encode) replay path exists for. Recovery must
/// still land bitwise on the clean state at every thread count.
#[test]
fn long_unsnapshotted_suffix_replays_concurrently_to_the_clean_state() {
    let root = scratch_root("suffix");
    let dir = root.join("store");
    let stream = gen_stream(0x5EED, 11 * BATCH);

    // Cadence far beyond the stream: no snapshots, replay carries the
    // whole history. Three batches land between consecutive finalizes;
    // the last two batches are never finalized.
    let (mut durable, _) = DurableGlobalizer::open(pipeline(1), &dir, 1000).expect("open");
    for (i, chunk) in stream.chunks(BATCH).enumerate() {
        let (_, report) = durable.ingest(chunk.to_vec(), None).expect("batch");
        assert!(report.all_ok());
        if i % 3 == 2 && i < 9 {
            durable.finalize().expect("finalize");
        }
    }
    let expected = durable.inner().export_state_bytes();
    let expected_digest = durable.inner().state_digest();
    let batches = stream.chunks(BATCH).count();
    drop(durable);

    for threads in [1, 4] {
        let (recovered, report) =
            DurableGlobalizer::open(pipeline(threads), &dir, 1000).expect("reopen");
        assert_eq!(report.replayed_batches, batches, "{threads}t: all batches replayed");
        assert_eq!(report.replayed_finalizes, 3, "{threads}t: all barriers replayed");
        assert!(report.snapshot_seq.is_none(), "{threads}t: pure replay by construction");
        assert_eq!(report.digest, expected_digest, "{threads}t: digest");
        assert_eq!(
            recovered.inner().export_state_bytes(),
            &expected[..],
            "{threads}t: recovered state must be bitwise identical to the clean run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A store is bound to the model bundle that wrote it: reopening with
/// a different fingerprint is a typed, immediate error — not a digest
/// mismatch deep into replay.
#[test]
fn mismatched_model_fingerprint_fails_fast() {
    let root = scratch_root("fingerprint");
    let dir = root.join("store");
    let stream = gen_stream(0xFA57, 2 * BATCH);

    let (mut durable, _) =
        DurableGlobalizer::open_with_fingerprint(pipeline(1), &dir, 1000, Some(0xAAAA))
            .expect("create");
    for chunk in stream.chunks(BATCH) {
        durable.ingest(chunk.to_vec(), None).expect("batch");
        durable.finalize().expect("finalize");
    }
    drop(durable);

    // Same fingerprint: opens and replays.
    let (same, report) =
        DurableGlobalizer::open_with_fingerprint(pipeline(1), &dir, 1000, Some(0xAAAA))
            .expect("reopen with matching fingerprint");
    assert_eq!(report.replayed_batches, 2);
    drop(same);

    // Different fingerprint: typed rejection carrying both hashes.
    match DurableGlobalizer::open_with_fingerprint(pipeline(1), &dir, 1000, Some(0xBBBB)) {
        Err(DurableError::ModelMismatch { stored, current }) => {
            assert_eq!(stored, 0xAAAA);
            assert_eq!(current, 0xBBBB);
        }
        Err(other) => panic!("expected ModelMismatch, got: {other}"),
        Ok(_) => panic!("mismatched fingerprint must be rejected"),
    }

    // Pre-fingerprint stores (no meta file) adopt the current
    // fingerprint on first open, then enforce it.
    std::fs::remove_file(dir.join("model.meta")).expect("drop meta");
    let (adopted, _) =
        DurableGlobalizer::open_with_fingerprint(pipeline(1), &dir, 1000, Some(0xCCCC))
            .expect("legacy store adopts the fingerprint");
    drop(adopted);
    match DurableGlobalizer::open_with_fingerprint(pipeline(1), &dir, 1000, Some(0xAAAA)) {
        Err(DurableError::ModelMismatch { stored: 0xCCCC, current: 0xAAAA }) => {}
        Err(other) => panic!("expected ModelMismatch after adoption, got: {other}"),
        _ => panic!("adopted fingerprint must be enforced"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_bit_flips_in_the_tail_record_are_cut_not_trusted() {
    let root = scratch_root("flip");
    let stream = gen_stream(0xF11A, 3 * BATCH);
    let reference = record_reference(1, 1000, &root.join("clean"), &stream);
    let segments = wal_segments(&root.join("clean"));
    assert_eq!(segments.len(), 1, "pure-replay run should keep one segment");
    let (seq, _, bytes) = &segments[0];

    // Locate the final frame: len u32 LE | tag u8 | fnv1a64 u64 LE | payload.
    let mut off = 0usize;
    let mut last_start = 0usize;
    while off + 13 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + 13 + len > bytes.len() {
            break;
        }
        last_start = off;
        off += 13 + len;
    }
    assert_eq!(off, bytes.len(), "clean WAL must parse to the end");
    assert!(last_start > 0, "need at least two records");

    let final_op = *reference.keys().next_back().expect("ops");
    for byte in last_start..bytes.len() {
        for bit in [0u8, 3, 7] {
            let case = root.join("case");
            let _ = std::fs::remove_dir_all(&case);
            copy_non_wal(&root.join("clean"), &case);
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            std::fs::write(case.join(format!("wal-{seq:08}.log")), &mutated)
                .expect("write flipped segment");
            let op = assert_prefix_recovery(
                &case,
                1,
                1000,
                &reference,
                &format!("flip byte {byte} bit {bit}"),
            );
            assert!(
                op < final_op,
                "flip byte {byte} bit {bit}: a corrupt tail record must not replay as valid"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every file of `src` (flat) copied into a fresh `dst`.
fn copy_store(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("copy dst");
    for entry in std::fs::read_dir(src).expect("read src") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dst.join(path.file_name().expect("name"))).expect("copy file");
    }
}

/// The tag of a mention-cache record in the tweet log.
const TAG_MENTION: u8 = 2;

/// `(start, end, tag)` of every frame of a log segment, in order. A
/// frame is `len u32 LE | tag u8 | fnv1a64 u64 LE | payload`.
fn frames(bytes: &[u8]) -> Vec<(usize, usize, u8)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 13 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len")) as usize;
        out.push((at, at + 13 + len, bytes[at + 4]));
        at += 13 + len;
    }
    assert_eq!(at, bytes.len(), "the log must parse to its end");
    out
}

/// The byte ranges of the mention records of a log segment that start
/// at or after `from`.
fn mention_records(bytes: &[u8], from: usize) -> Vec<(usize, usize)> {
    frames(bytes)
        .into_iter()
        .filter(|&(start, _, tag)| tag == TAG_MENTION && start >= from)
        .map(|(start, end, _)| (start, end))
        .collect()
}

/// The single tweet-log segment of a store that never rotated it.
fn tweet_log(dir: &Path) -> PathBuf {
    let log = dir.join("tweets-00000000.log");
    assert!(log.exists(), "the store must have a tweet log");
    log
}

/// A crash after the tweet log's fsync and before the snapshot's
/// rename: the second snapshot's publish fails, which leaves the store
/// exactly as such a crash would (its records logged and synced, no new
/// snapshot, the WAL uncompacted). Cutting the log at every byte of
/// that last append, its tweet records and its mention records alike,
/// must recover bitwise to the clean run, each cut at 1 and at 4
/// threads, and the open must cut the unreferenced records.
#[test]
fn kill_between_tweet_log_sync_and_snapshot_rename_recovers_at_every_log_byte() {
    // Small batches keep the sweep short: one case per byte.
    const LOG_BATCH: usize = 2;
    let root = scratch_root("logcut");
    let stream = gen_stream(0x7EE7, 6 * LOG_BATCH);
    let (mut clean, _) = DurableGlobalizer::open(pipeline(1), root.join("clean"), 3).expect("open");
    for chunk in stream.chunks(LOG_BATCH) {
        clean.ingest(chunk.to_vec(), None).expect("batch");
        clean.finalize().expect("finalize");
    }
    let (final_op, want) = (clean.op_seq(), clean.inner().export_state_bytes());
    drop(clean);

    let dir = root.join("crashed");
    // Rename #0 publishes the first snapshot; #1 (the second) fails.
    let plan = IoFaultPlan::new().with_fault(IoFault {
        op: IoOp::Rename,
        class: IoPathClass::Snapshot,
        index: 1,
        kind: IoFaultKind::Transient,
    });
    let io = IoHandle::chaos(plan, RetryPolicy::none());
    let (mut durable, _) =
        DurableGlobalizer::open_with_io(pipeline(1), &dir, 3, None, io).expect("open");
    let (mut logged_by_first_snapshot, mut mentions_by_first_snapshot) = (0, 0);
    for (i, chunk) in stream.chunks(LOG_BATCH).enumerate() {
        durable.ingest(chunk.to_vec(), None).expect("batch");
        durable.finalize().expect("a failed snapshot must not fail the finalize");
        if i == 2 {
            assert_eq!(durable.stats().snapshots, 1);
            logged_by_first_snapshot = std::fs::metadata(tweet_log(&dir)).expect("log").len();
            mentions_by_first_snapshot = durable.inner().cached_mentions();
        }
    }
    assert!(mentions_by_first_snapshot > 0, "the first snapshot must log mention embeddings");
    assert_eq!(durable.stats().snapshots, 1, "the second snapshot was never published");
    assert!(durable.degradation().snapshot_lagging);
    assert_eq!(durable.op_seq(), final_op);
    drop(durable); // the crash

    let full = std::fs::read(tweet_log(&dir)).expect("log bytes");
    let pre = logged_by_first_snapshot as usize;
    assert!(full.len() > pre, "the failed snapshot's records must be in the log");
    let mentions = mention_records(&full, pre);
    let inside_a_mention =
        (pre..=full.len()).filter(|&cut| mentions.iter().any(|&(s, e)| s < cut && cut < e));
    assert!(inside_a_mention.count() > 0, "the sweep must cut inside a mention record");
    let case = root.join("case");
    for cut in pre..=full.len() {
        for threads in [1, 4] {
            copy_store(&dir, &case);
            std::fs::write(tweet_log(&case), &full[..cut]).expect("cut log");
            let what = format!("log cut at byte {cut} of {} ({threads}t)", full.len());
            let (durable, report) = DurableGlobalizer::open(pipeline(threads), &case, 3)
                .unwrap_or_else(|e| {
                    panic!("{what}: recovery failed: {e}");
                });
            assert_eq!(report.snapshot_seq, Some(6), "{what}: recovers from the first snapshot");
            assert_eq!(report.tweets_from_log, 3 * LOG_BATCH, "{what}: the snapshot's tweets");
            assert_eq!(
                report.mentions_from_log, mentions_by_first_snapshot,
                "{what}: the snapshot's mention embeddings"
            );
            assert_eq!(durable.op_seq(), final_op, "{what}: the WAL holds every op");
            assert_eq!(
                durable.inner().export_state_bytes(),
                want,
                "{what}: recovered state is not bitwise identical to the clean run"
            );
            drop(durable);
            let kept = std::fs::metadata(tweet_log(&case)).expect("log").len();
            assert_eq!(kept as usize, pre, "{what}: records past the snapshot must be cut");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A bit flip anywhere in a tweet or mention record that the live
/// snapshot references fails `open` with a typed error and leaves the
/// log as it was — never a panic, never a silent fallback to replay.
#[test]
fn bit_flips_in_referenced_tweet_records_fail_open_with_a_typed_error() {
    let root = scratch_root("logflip");
    let stream = gen_stream(0xF1E7, 4 * BATCH);
    let clean = root.join("clean");
    let reference = record_reference(1, 3, &clean, &stream);
    assert!(reference.contains_key(&6), "a snapshot lands at op 6");
    let full = std::fs::read(tweet_log(&clean)).expect("log bytes");
    assert!(!full.is_empty());
    let mentions = mention_records(&full, 0);
    let flipped_in_a_mention =
        (0..full.len()).filter(|&b| mentions.iter().any(|&(s, e)| s <= b && b < e));
    assert!(flipped_in_a_mention.count() > 0, "the sweep must flip a mention-record byte");
    let case = root.join("case");
    for byte in 0..full.len() {
        copy_store(&clean, &case);
        let mut flipped = full.clone();
        flipped[byte] ^= 1 << (byte % 8);
        std::fs::write(tweet_log(&case), &flipped).expect("flip");
        match DurableGlobalizer::open(pipeline(1), &case, 3) {
            Err(
                DurableError::Corrupt(_)
                | DurableError::Store(_)
                | DurableError::Codec(_)
                | DurableError::Persist(_),
            ) => {}
            Err(other) => panic!("flip at byte {byte}: unexpected error {other}"),
            Ok(_) => panic!("flip at byte {byte}: a damaged referenced record opened"),
        }
        assert_eq!(std::fs::read(tweet_log(&case)).expect("log"), flipped, "byte {byte}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `(seq, path)` of the newest snapshot in `dir`, if any.
fn newest_snapshot(dir: &Path) -> Option<(u64, PathBuf)> {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let seq = name.strip_prefix("snap-")?.strip_suffix(".ck")?.parse().ok()?;
            Some((seq, path))
        })
        .max()
}

/// Flips the last byte of `path`.
fn flip_last_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read");
    let last = bytes.last_mut().expect("non-empty file");
    *last ^= 0x01;
    std::fs::write(path, &bytes).expect("write");
}

/// A newest snapshot found corrupt at open falls back to the older
/// kept one, and the WAL still holds every op since that one: at
/// every cadence point of a store that snapshots every 3 finalizes,
/// the open recovers bitwise to the last acknowledged op, at 1 and at
/// 4 threads.
#[test]
fn a_corrupt_newest_snapshot_falls_back_without_losing_an_acknowledged_op() {
    let root = scratch_root("snapflip");
    let stream = gen_stream(0x5EAF, 9 * BATCH);
    let clean = root.join("clean");
    let case = root.join("case");
    let (mut durable, _) = DurableGlobalizer::open(pipeline(1), &clean, 3).expect("open");
    let mut fallbacks = 0;
    for chunk in stream.chunks(BATCH) {
        durable.ingest(chunk.to_vec(), None).expect("batch");
        durable.finalize().expect("finalize");
        let (op, want) = (durable.op_seq(), durable.inner().export_state_bytes());
        let Some((newest, _)) = newest_snapshot(&clean) else { continue };
        for threads in [1, 4] {
            copy_store(&clean, &case);
            flip_last_byte(&case.join(format!("snap-{newest:08}.ck")));
            let what = format!("op {op}, snap-{newest:08}.ck flipped ({threads}t)");
            let (recovered, report) = DurableGlobalizer::open(pipeline(threads), &case, 3)
                .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
            assert!(report.snapshot_seq < Some(newest), "{what}: the flipped snapshot was used");
            assert_eq!(recovered.op_seq(), op, "{what}: recovered short");
            assert!(recovered.inner().export_state_bytes() == want, "{what}: state differs");
            fallbacks += usize::from(report.snapshot_seq.is_some());
        }
    }
    assert!(fallbacks > 0, "no case fell back to an older snapshot");
    let _ = std::fs::remove_dir_all(&root);
}

/// When the records after the fallback snapshot are gone as well, the
/// op sequence has a gap and the open fails typed instead of
/// recovering short of the acknowledged ops.
#[test]
fn an_op_gap_behind_a_corrupt_snapshot_fails_open_typed() {
    let root = scratch_root("opgap");
    let stream = gen_stream(0x6A9, 9 * BATCH);
    let clean = root.join("clean");
    record_reference(1, 3, &clean, &stream);
    let case = root.join("case");
    copy_store(&clean, &case);
    let (newest, snapshot) = newest_snapshot(&case).expect("a snapshot");
    assert_eq!(newest, 18);
    flip_last_byte(&snapshot);
    // The oldest surviving segment holds the ops after the fallback
    // snapshot (op 12).
    let (_, oldest, _) = wal_segments(&case).into_iter().next().expect("a WAL segment");
    std::fs::remove_file(oldest).expect("drop the segment");
    match DurableGlobalizer::open(pipeline(1), &case, 3) {
        Err(DurableError::OpGap { after: 12, found: 18 }) => {}
        Err(other) => panic!("unexpected error: {other}"),
        Ok((durable, _)) => panic!("opened short at op {}", durable.op_seq()),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A lineage that opened from a fallback snapshot keeps that fallback
/// until a snapshot of its own can take over: the next snapshot prunes
/// below the one the open used, not below the second-newest file, so a
/// corrupt file above it cannot push the verified fallback out. With a
/// snapshot every 3 finalizes: flip snap-18 after 9 batch+finalize
/// pairs, reopen (falls back to 12; the 3 finalizes it replays count
/// toward the cadence), run 3 more pairs (the first one writes
/// snap-20), flip snap-20 as well; the open still recovers op 24
/// bitwise, at 1 and 4 threads.
#[test]
fn a_snapshot_after_a_fallback_open_keeps_the_verified_fallback() {
    let root = scratch_root("fallbackprune");
    let stream = gen_stream(0x12F, 12 * BATCH);
    let run = |durable: &mut DurableGlobalizer<HashTagger>, tweets: &[Vec<String>]| {
        for chunk in tweets.chunks(BATCH) {
            durable.ingest(chunk.to_vec(), None).expect("batch");
            durable.finalize().expect("finalize");
        }
    };
    let (mut clean, _) =
        DurableGlobalizer::open(pipeline(1), root.join("clean"), 3).expect("open clean");
    run(&mut clean, &stream);
    let want = clean.inner().export_state_bytes();
    let (head, tail) = stream.split_at(9 * BATCH);
    for threads in [1, 4] {
        let case = root.join(format!("case-{threads}"));
        let (mut durable, _) = DurableGlobalizer::open(pipeline(threads), &case, 3).expect("open");
        run(&mut durable, head);
        drop(durable);
        flip_last_byte(&case.join("snap-00000018.ck"));
        let (mut durable, report) =
            DurableGlobalizer::open(pipeline(threads), &case, 3).expect("fallback open");
        assert_eq!((report.snapshot_seq, durable.op_seq()), (Some(12), 18), "{threads}t");
        run(&mut durable, tail);
        drop(durable);
        let (newest, snapshot) = newest_snapshot(&case).expect("a snapshot");
        assert_eq!(newest, 20, "{threads}t: the lineage's own snapshot");
        flip_last_byte(&snapshot);
        let (durable, report) = DurableGlobalizer::open(pipeline(threads), &case, 3)
            .unwrap_or_else(|e| panic!("{threads}t: open after flipping snap-20 failed: {e}"));
        assert_eq!((report.snapshot_seq, durable.op_seq()), (Some(12), 24), "{threads}t");
        assert!(durable.inner().export_state_bytes() == want, "{threads}t: state differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}
