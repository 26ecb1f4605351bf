//! End-to-end contracts of the durable-state subsystem that are not
//! about crash recovery (that is `wal_recovery.rs`):
//!
//! * **delta checkpoints are cheap** — per-batch WAL bytes stay flat
//!   while the full-snapshot size grows with the stream, so past ~1k
//!   tweets the delta is a small fraction of a snapshot rewrite;
//! * **resume equals one continuous run** — stopping a durable stream
//!   and reopening the store (fresh pipeline, same models) continues
//!   bitwise identically, at 1 and 4 worker threads;
//! * **an open rebuilds the live state** — from the newest snapshot and
//!   from the fallback, with the tweets and mention embeddings read from
//!   the tweet log.

use std::path::PathBuf;

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DurableGlobalizer, EntityClassifier, GlobalizerConfig,
    NerGlobalizer, PhraseEmbedder, PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
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

/// A reproducible token stream over a wider surface vocabulary (many
/// distinct candidate surfaces).
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
    let dir = std::env::temp_dir().join(format!("ngl-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn delta_bytes_per_batch_stay_sublinear_in_stream_length() {
    const BATCH: usize = 40;
    let stream = gen_stream(0xDE17A, 30 * BATCH); // 1200 tweets
    let dir = scratch("delta");
    // MentionExtraction skips the (quadratic) clustering stages — the
    // byte accounting under test is identical in every ablation mode.
    let cfg = GlobalizerConfig { ablation: AblationMode::MentionExtraction, ..Default::default() };
    let (mut durable, _) = DurableGlobalizer::open(pipeline(1, cfg), &dir, 10).expect("open");
    let mut deltas = Vec::new();
    for chunk in stream.chunks(BATCH) {
        durable.ingest(chunk.to_vec(), None).expect("batch");
        durable.finalize().expect("finalize");
        deltas.push(durable.stats().delta_bytes_last);
    }
    let stats = durable.stats();
    assert_eq!(stats.batches as usize, deltas.len());
    assert!(stats.snapshots >= 2, "cadence of 10 over 30 batches must snapshot");

    // The delta for a batch is the batch inputs plus bounded metadata:
    // it must not grow with the stream. Compare the mean of the last
    // five batches against the first five.
    let head: u64 = deltas[..5].iter().sum();
    let tail: u64 = deltas[deltas.len() - 5..].iter().sum();
    assert!(
        tail < 2 * head,
        "per-batch delta grew with the stream: first five {head} B, last five {tail} B"
    );
    // A full snapshot rewrites the whole state; past 1k tweets a delta
    // checkpoint must be at least 10x cheaper.
    let last = *deltas.last().expect("deltas");
    assert!(
        last * 10 < stats.snapshot_bytes_last,
        "delta {last} B is not sublinear vs snapshot {} B",
        stats.snapshot_bytes_last
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_a_store_continues_bitwise_identically() {
    const BATCH: usize = 10;
    let stream = gen_stream(0x2E09E4, 8 * BATCH);
    for threads in [1usize, 4] {
        let tag = format!("reopen-{threads}t");
        // One continuous durable run.
        let dir_a = scratch(&format!("{tag}-a"));
        let (mut run_a, _) =
            DurableGlobalizer::open(pipeline(threads, full_cfg()), &dir_a, 3).expect("open a");
        let mut want: Vec<Vec<Span>> = Vec::new();
        for chunk in stream.chunks(BATCH) {
            run_a.ingest(chunk.to_vec(), None).expect("batch a");
            want = run_a.finalize().expect("finalize a");
        }

        // The same stream, stopped halfway and resumed from disk
        // with a freshly built pipeline.
        let dir_b = scratch(&format!("{tag}-b"));
        let half = stream.len() / 2;
        {
            let (mut first, _) =
                DurableGlobalizer::open(pipeline(threads, full_cfg()), &dir_b, 3).expect("open b1");
            for chunk in stream[..half].chunks(BATCH) {
                first.ingest(chunk.to_vec(), None).expect("batch b1");
                first.finalize().expect("finalize b1");
            }
        } // dropped: clean shutdown, no explicit flush call
        let (mut second, report) =
            DurableGlobalizer::open(pipeline(threads, full_cfg()), &dir_b, 3).expect("open b2");
        assert!(!report.torn_tail, "clean shutdown must not look torn");
        assert_eq!(report.tweets, half, "recovery must land on the stopped state");
        let mut got: Vec<Vec<Span>> = Vec::new();
        for chunk in stream[half..].chunks(BATCH) {
            second.ingest(chunk.to_vec(), None).expect("batch b2");
            got = second.finalize().expect("finalize b2");
        }

        assert_eq!(got, want, "{tag}: resumed run diverged");
        assert_eq!(
            run_a.inner().state_digest(),
            second.inner().state_digest(),
            "{tag}: state digests diverged"
        );
        assert_eq!(
            run_a.inner().export_state_bytes(),
            second.inner().export_state_bytes(),
            "{tag}: resident state bytes diverged"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// A store's open reproduces the live pipeline's inline state bytes
/// exactly, at 1 and 4 threads: from the newest snapshot (every tweet
/// and mention embedding read from the tweet log, nothing replayed),
/// and, with that snapshot damaged, from the fallback plus the WAL. The
/// lineage that fell back logs the cut entries again at its next
/// snapshot, and an open from that one reads every cached embedding.
#[test]
fn an_open_reproduces_the_live_state_from_the_newest_or_the_fallback_snapshot() {
    const BATCH: usize = 10;
    let stream = gen_stream(0x10660, 10 * BATCH);
    let (head, tail) = stream.split_at(9 * BATCH);
    let mut states = Vec::new();
    for threads in [1usize, 4] {
        let open = |dir: &PathBuf| {
            DurableGlobalizer::open(pipeline(threads, full_cfg()), dir, 3).expect("open")
        };
        let dir = scratch(&format!("logged-open-{threads}t"));
        let (mut live, _) = open(&dir);
        for chunk in head.chunks(BATCH) {
            live.ingest(chunk.to_vec(), None).expect("batch");
            live.finalize().expect("finalize");
        }
        // Nine finalizes at a cadence of 3: snapshots at ops 6, 12, 18.
        let want = live.inner().export_state_bytes();
        let cached = live.inner().cached_mentions();
        drop(live);

        let (newest, report) = open(&dir);
        assert_eq!((report.snapshot_seq, report.replayed_finalizes), (Some(18), 0));
        assert_eq!(report.tweets_from_log, head.len(), "{threads}t");
        assert_eq!(report.mentions_from_log, cached, "{threads}t");
        assert!(newest.inner().export_state_bytes() == want, "{threads}t: newest differs");
        drop(newest);

        let snapshot = dir.join("snap-00000018.ck");
        let mut bytes = std::fs::read(&snapshot).expect("snapshot");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&snapshot, &bytes).expect("damage the newest snapshot");
        let (mut fallback, report) = open(&dir);
        assert_eq!((report.snapshot_seq, report.replayed_finalizes), (Some(12), 3));
        assert!(report.mentions_from_log < cached, "{threads}t: the fallback logged fewer");
        assert!(fallback.inner().export_state_bytes() == want, "{threads}t: fallback differs");

        // The replayed finalizes count toward the cadence: the next
        // finalize snapshots, logging the entries the fallback cut.
        fallback.ingest(tail.to_vec(), None).expect("batch");
        fallback.finalize().expect("finalize");
        assert_eq!(fallback.stats().snapshots, 1, "{threads}t");
        let (want, cached) =
            (fallback.inner().export_state_bytes(), fallback.inner().cached_mentions());
        drop(fallback);
        let (again, report) = open(&dir);
        assert_eq!((report.snapshot_seq, report.replayed_finalizes), (Some(20), 0));
        assert_eq!(report.mentions_from_log, cached, "{threads}t");
        assert!(again.inner().export_state_bytes() == want, "{threads}t: re-logged differs");
        states.push(want);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(states[0] == states[1], "the state bytes depend on the thread count");
}
