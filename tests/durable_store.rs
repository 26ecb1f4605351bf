//! End-to-end contracts of the durable-state subsystem that are not
//! about crash recovery (that is `wal_recovery.rs`):
//!
//! * **delta checkpoints are cheap** — per-batch WAL bytes stay flat
//!   while the full-snapshot size grows with the stream, so past ~1k
//!   tweets the delta is a small fraction of a snapshot rewrite;
//! * **resume equals one continuous run** — stopping a durable stream
//!   and reopening the store (fresh pipeline, same models) continues
//!   bitwise identically, at 1 and 4 worker threads, unbounded and
//!   under `MaxTweets` retention;
//! * **frozen mentions go stale on trie growth** — the persisted
//!   per-mention CTrie version flags mentions of evicted tweets once
//!   the trie outgrows them.

use std::path::PathBuf;

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DurableGlobalizer, EntityClassifier, GlobalizerConfig,
    NerGlobalizer, PhraseEmbedder, PhraseEmbedderConfig, RetentionPolicy,
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

fn full_cfg(retention: RetentionPolicy) -> GlobalizerConfig {
    GlobalizerConfig { ablation: AblationMode::FullGlobal, retention, ..Default::default() }
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
    for retention in [RetentionPolicy::Unbounded, RetentionPolicy::MaxTweets(12)] {
        for threads in [1usize, 4] {
            let tag = format!("reopen-{threads}t-{:?}", std::mem::discriminant(&retention));
            // One continuous durable run.
            let dir_a = scratch(&format!("{tag}-a"));
            let (mut run_a, _) =
                DurableGlobalizer::open(pipeline(threads, full_cfg(retention)), &dir_a, 3)
                    .expect("open a");
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
                    DurableGlobalizer::open(pipeline(threads, full_cfg(retention)), &dir_b, 3)
                        .expect("open b1");
                for chunk in stream[..half].chunks(BATCH) {
                    first.ingest(chunk.to_vec(), None).expect("batch b1");
                    first.finalize().expect("finalize b1");
                }
            } // dropped: clean shutdown, no explicit flush call
            let (mut second, report) =
                DurableGlobalizer::open(pipeline(threads, full_cfg(retention)), &dir_b, 3)
                    .expect("open b2");
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
}

/// Under `MaxTweets` retention the tweet log drops the segments whose
/// records every kept snapshot has evicted, so its disk use stays near
/// one segment while the appended total grows with the stream, and the
/// store still reopens to the live state.
#[test]
fn max_tweets_retention_bounds_the_tweet_log_on_disk() {
    let dir = scratch("log-retention");
    let cfg = GlobalizerConfig {
        ablation: AblationMode::MentionExtraction,
        retention: RetentionPolicy::MaxTweets(40),
        ..Default::default()
    };
    // Every snapshot covers one whole retained batch: each tweet is
    // logged once.
    let (mut durable, _) = DurableGlobalizer::open(pipeline(1, cfg), &dir, 1).expect("open");
    for chunk in gen_stream(0x106, 9000).chunks(40) {
        durable.ingest(chunk.to_vec(), None).expect("batch");
        durable.finalize().expect("finalize");
    }
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry"))
        .filter(|e| e.file_name().to_string_lossy().starts_with("tweets-"))
        .map(|e| e.metadata().expect("meta").len())
        .sum();
    let appended = durable.stats().tweet_log_bytes;
    assert!(appended > 2 * (1 << 20), "the stream must fill several segments: {appended} B");
    assert!(on_disk <= 2 * (1 << 20), "log kept {on_disk} B of {appended} B appended");
    assert!(!dir.join("tweets-00000000.log").exists(), "the first segment is fully evicted");
    let want = durable.inner().export_state_bytes();
    drop(durable);
    let (reopened, report) = DurableGlobalizer::open(pipeline(1, cfg), &dir, 1).expect("reopen");
    assert_eq!(report.tweets_from_log, 40);
    assert_eq!(reopened.inner().export_state_bytes(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frozen_mentions_of_evicted_tweets_go_stale_on_trie_growth() {
    // Keep only the last 4 tweets resident so early mentions freeze.
    let cfg = full_cfg(RetentionPolicy::MaxTweets(4));
    let mut p = pipeline(1, cfg);
    let phase1: Vec<Vec<String>> = vec![
        vec!["Beshear".into(), "spoke".into(), "today".into()],
        vec!["Beshear".into(), "won".into()],
    ];
    p.ingest(phase1, None);
    p.finalize();
    assert!(p.stale_frozen_mentions().is_empty(), "nothing frozen or stale yet");
    let v1 = p.trie_version();

    // Push the early tweets out of retention with filler...
    let filler: Vec<Vec<String>> =
        (0..6).map(|_| vec!["about".into(), "stream".into(), "covid".into()]).collect();
    p.ingest(filler, None);
    p.finalize();
    assert!(p.tweet_base().first_retained() >= 2, "early tweets must be evicted");
    assert!(
        p.stale_frozen_mentions().is_empty(),
        "frozen mentions are not stale while the trie is unchanged"
    );

    // ...then grow the CTrie with a brand-new surface.
    p.ingest(vec![vec!["Madrid".into(), "rally".into()]], None);
    p.finalize();
    assert!(p.trie_version() > v1, "a new surface must bump the trie version");

    let stale = p.stale_frozen_mentions();
    assert!(!stale.is_empty(), "frozen Beshear mentions must now be flagged stale");
    for (surface, tweet, _, _) in &stale {
        assert_eq!(surface, "beshear");
        assert!(*tweet < p.tweet_base().first_retained());
    }
    // Retained mentions were re-stamped by the rebuild: none flagged.
    assert!(stale.iter().all(|(_, t, _, _)| *t < 2), "only evicted tweets can be stale");
}
