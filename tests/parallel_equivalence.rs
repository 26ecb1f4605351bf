//! The executor contract: parallel execution is **bitwise identical**
//! to sequential execution in every ablation mode, and incremental
//! finalization is indistinguishable from an end-of-stream rebuild.
//!
//! Uses a deterministic fake tagger so the properties exercise the
//! pipeline machinery (scan, embed, cluster, classify, caches) rather
//! than model training.

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, EntityClassifier, GlobalizerConfig, NerGlobalizer,
    PhraseEmbedder, PhraseEmbedderConfig, ShardedGlobalizer,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::rng::{for_each_case, SplitMix64};
use ner_globalizer::runtime::Executor;
use ner_globalizer::text::{BioTag, EntityType};

const DIM: usize = 8;

/// Deterministic stand-in for Local NER: capitalized tokens tag as
/// B-PER, embeddings are a case-folded hash one-hot.
#[derive(Clone)]
struct FakeTagger;

impl SequenceTagger for FakeTagger {
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

impl ContextualTagger for FakeTagger {
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

fn pipeline(mode: AblationMode, exec: Executor) -> NerGlobalizer<FakeTagger> {
    NerGlobalizer::new(
        FakeTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        GlobalizerConfig { ablation: mode, ..Default::default() },
    )
    .with_executor(exec)
}

/// Everything a finalize() leaves behind except the wall-clock timings,
/// with every float captured by bit pattern.
fn state_fingerprint(p: &NerGlobalizer<FakeTagger>) -> Vec<(String, Vec<u64>, Vec<u32>)> {
    let mut fp: Vec<(String, Vec<u64>, Vec<u32>)> = p
        .candidate_base()
        .iter()
        .map(|(surface, e)| {
            let mut nums: Vec<u64> = Vec::new();
            let mut bits: Vec<u32> = Vec::new();
            for m in &e.mentions {
                nums.extend([m.tweet as u64, m.start as u64, m.end as u64]);
                nums.push(m.local_type.map_or(u64::MAX, |t| t.index() as u64));
                bits.extend(m.local_emb.iter().map(|x| x.to_bits()));
            }
            for c in &e.clusters {
                nums.push(u64::MAX); // cluster delimiter
                nums.extend(c.members.iter().map(|&m| m as u64));
                nums.push(match c.label {
                    None => 0,
                    Some(None) => 1,
                    Some(Some(ty)) => 2 + ty.index() as u64,
                });
                bits.extend(c.global_emb.iter().map(|x| x.to_bits()));
            }
            (surface.to_string(), nums, bits)
        })
        .collect();
    fp.push((
        "<meta>".to_string(),
        vec![p.n_surfaces() as u64, p.cached_mentions() as u64, p.tweet_base().len() as u64],
        Vec::new(),
    ));
    fp
}

const ALL_MODES: [AblationMode; 4] = [
    AblationMode::LocalOnly,
    AblationMode::MentionExtraction,
    AblationMode::LocalClassifier,
    AblationMode::FullGlobal,
];

/// A small mixed-case vocabulary: capitalized forms seed surfaces, the
/// lowercase twins only surface through the CTrie scan, and the filler
/// words keep tweets realistic (and exercise the stopword filter).
const VOCAB: [&str; 14] = [
    "Beshear",
    "beshear",
    "Italy",
    "italy",
    "Covid",
    "covid",
    "Louisville",
    "louisville",
    "the",
    "a",
    "today",
    "spoke",
    "won",
    "masks",
];

/// 1–4 batches of 0–5 tweets of 1–7 vocab tokens each.
fn random_batches(rng: &mut SplitMix64) -> Vec<Vec<Vec<String>>> {
    (0..rng.gen_range(1..5usize))
        .map(|_| {
            (0..rng.gen_range(0..6usize))
                .map(|_| {
                    (0..rng.gen_range(1..8usize))
                        .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string())
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Seeded cases per property: each runs every ablation mode over a
/// full pipeline, so fewer than the usual 256.
const CASES: u64 = 32;

/// For every ablation mode, a 4-worker run and the exact sequential run
/// produce identical outputs after every incremental finalize, and
/// identical candidate-store state (floats compared by bits).
#[test]
fn parallel_runs_are_bitwise_identical_to_sequential() {
    for_each_case(0x5E9_0001, CASES, |rng| {
        let batches = random_batches(rng);
        for mode in ALL_MODES {
            let mut seq = pipeline(mode, Executor::sequential());
            let mut par = pipeline(mode, Executor::new(4));
            for batch in &batches {
                let (a, _) = seq.ingest(batch.to_vec(), None);
                let (b, _) = par.ingest(batch.to_vec(), None);
                assert_eq!(a.local_spans, b.local_spans, "local spans diverge in {mode:?}");
                // Incremental finalize after every batch — the
                // continuous-execution setup of §III.
                assert_eq!(seq.finalize(), par.finalize(), "outputs diverge in {mode:?}");
            }
            assert_eq!(
                state_fingerprint(&seq),
                state_fingerprint(&par),
                "state diverges in {mode:?}"
            );
        }
    });
}

/// Finalizing after every batch leaves exactly the output and state of
/// one end-of-stream finalize, sequentially and in parallel.
#[test]
fn incremental_finalize_matches_full_rebuild() {
    for_each_case(0x5E9_0002, CASES, |rng| {
        let batches = random_batches(rng);
        for mode in ALL_MODES {
            for threads in [1usize, 4] {
                let mut inc = pipeline(mode, Executor::new(threads));
                let mut full = pipeline(mode, Executor::new(threads));
                let mut inc_out = Vec::new();
                for batch in &batches {
                    inc.ingest(batch.to_vec(), None);
                    inc_out = inc.finalize();
                    full.ingest(batch.to_vec(), None);
                }
                let full_out = full.finalize();
                assert_eq!(inc_out, full_out, "outputs diverge in {mode:?}");
                assert_eq!(
                    state_fingerprint(&inc),
                    state_fingerprint(&full),
                    "state diverges in {mode:?}"
                );
            }
        }
    });
}

/// The pooled-executor contract under sharing and skew: one executor
/// clone (clones share the persistent worker pool) drives pipelines
/// across all ablation modes while a skewed stream pushes two surfaces
/// past the giant-surface threshold — so the intra-surface parallel
/// clustering and classification paths run — and everything stays
/// bitwise identical to the exact sequential execution.
#[test]
fn shared_pool_with_giant_surfaces_is_bitwise_identical_to_sequential() {
    // 10 batches × 16 tweets, every tweet mentioning "Beshear" and
    // "Louisville": both surfaces end far beyond the 128-mention
    // giant threshold while staying under the online-clustering cap.
    let batches: Vec<Vec<Vec<String>>> = (0..10)
        .map(|b| {
            (0..16)
                .map(|i| {
                    vec![
                        "Beshear".to_string(),
                        VOCAB[(b * 16 + i) % VOCAB.len()].to_string(),
                        "Louisville".to_string(),
                        format!("w{}", (b * 16 + i) % 7),
                    ]
                })
                .collect()
        })
        .collect();

    let shared = Executor::new(4);
    for mode in ALL_MODES {
        let mut seq = pipeline(mode, Executor::sequential());
        let mut par = pipeline(mode, shared.clone());
        for batch in &batches {
            let (a, _) = seq.ingest(batch.to_vec(), None);
            let (b, _) = par.ingest(batch.to_vec(), None);
            assert_eq!(a.local_spans, b.local_spans, "local spans diverge in {mode:?}");
            assert_eq!(seq.finalize(), par.finalize(), "outputs diverge in {mode:?}");
        }
        assert_eq!(state_fingerprint(&seq), state_fingerprint(&par), "state diverges in {mode:?}");
    }
    // The skew actually crossed the giant threshold (both pipelines
    // agree, so checking one suffices).
    let mut probe = pipeline(AblationMode::FullGlobal, shared);
    for batch in &batches {
        probe.ingest(batch.to_vec(), None);
    }
    probe.finalize();
    let giant_mentions =
        probe.candidate_base().iter().map(|(_, e)| e.mentions.len()).max().unwrap_or(0);
    assert!(
        giant_mentions >= 128,
        "stream must produce a giant surface (max mentions: {giant_mentions})"
    );
}

/// Deterministic (non-property) regression: a stream where later
/// batches seed surfaces that occur in earlier tweets, so incremental
/// finalize has to survive CTrie version bumps mid-stream.
#[test]
fn repeated_incremental_finalize_equals_single_finalize() {
    let toks = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
    let batches = [
        vec![toks("saw beshear and italy today"), toks("masks won today")],
        vec![toks("Beshear spoke today")],
        vec![toks("Italy won masks"), toks("thanks beshear for italy")],
        vec![toks("covid spoke the a")],
        vec![toks("Covid in Louisville today"), toks("louisville masks covid")],
    ];
    for mode in ALL_MODES {
        let mut inc = pipeline(mode, Executor::from_env());
        let mut full = pipeline(mode, Executor::from_env());
        let mut inc_out = Vec::new();
        for b in &batches {
            inc.ingest(b.to_vec(), None);
            inc_out = inc.finalize();
            full.ingest(b.to_vec(), None);
        }
        let full_out = full.finalize();
        assert_eq!(inc_out, full_out, "outputs diverge in {mode:?}");
        assert_eq!(state_fingerprint(&inc), state_fingerprint(&full), "state diverges in {mode:?}");
    }
}

/// A stream where most batches seed a new surface: batch `b` usually
/// introduces the capitalized name `Zeb{b}`, and every tweet may
/// mention lowercase names of earlier *and* later batches. Each seed
/// bumps the CTrie version, so nearly every finalize rebuilds the
/// candidate store — recovering early mentions of the new name while
/// most other surfaces come back with the same mention list.
fn seeding_stream(rng: &mut SplitMix64, batches: usize) -> Vec<Vec<Vec<String>>> {
    (0..batches)
        .map(|b| {
            (0..rng.gen_range(1..5usize))
                .map(|i| {
                    let mut tweet: Vec<String> = (0..rng.gen_range(1..6usize))
                        .map(|_| match rng.next_below(3) {
                            0 => format!("zeb{}", rng.gen_range(0..batches)),
                            _ => VOCAB[rng.gen_range(0..VOCAB.len())].to_string(),
                        })
                        .collect();
                    if i == 0 && rng.gen_bool(0.8) {
                        tweet.push(format!("Zeb{b}"));
                    }
                    tweet
                })
                .collect()
        })
        .collect()
}

/// Clusters carried across candidate-store rebuilds are exact: after
/// every per-batch finalize the exported state equals that of a clone
/// whose incremental state was dropped and rebuilt from scratch.
#[test]
fn carried_clusters_match_a_from_scratch_finalize() {
    for_each_case(0x5E9_0003, 8, |rng| {
        let batches = seeding_stream(rng, 12);
        for mode in ALL_MODES {
            let mut p = pipeline(mode, Executor::new(2));
            let mut surfaces_finalized = 0u64;
            for batch in &batches {
                p.ingest(batch.to_vec(), None);
                p.finalize();
                surfaces_finalized += p.candidate_base().len() as u64;
                let mut fresh = p.clone();
                fresh.reset_incremental_state();
                fresh.finalize();
                assert_eq!(
                    p.export_state_bytes(),
                    fresh.export_state_bytes(),
                    "carried state diverges in {mode:?}"
                );
            }
            if mode != AblationMode::LocalOnly {
                assert!(
                    p.timings().surfaces_clustered < surfaces_finalized,
                    "no surface was carried in {mode:?}"
                );
            }
        }
    });
}

/// Local NER stand-in that seeds multi-token surfaces: a capitalized
/// token (`#` markers ignored) begins a span and an all-caps one
/// continues it. A token embeds as its folded hash one-hot plus half
/// its left neighbour's, so mentions of one surface differ by context.
#[derive(Clone)]
struct SpanTagger;

impl SequenceTagger for SpanTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        tokens
            .iter()
            .map(|t| {
                let t = t.trim_start_matches('#');
                let caps = t.len() > 1 && t.chars().all(|c| !c.is_lowercase());
                match t.chars().next() {
                    Some(c) if c.is_uppercase() && caps => BioTag::I(EntityType::Person),
                    Some(c) if c.is_uppercase() => BioTag::B(EntityType::Person),
                    _ => BioTag::O,
                }
            })
            .collect()
    }
}

impl ContextualTagger for SpanTagger {
    fn dim(&self) -> usize {
        DIM
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        let hash = |t: &String| {
            t.trim_start_matches('#').to_lowercase().bytes().map(usize::from).sum::<usize>()
        };
        let mut emb = Matrix::zeros(tokens.len(), DIM);
        for (i, t) in tokens.iter().enumerate() {
            emb.row_mut(i)[hash(t) % DIM] += 1.0;
            if i > 0 {
                emb.row_mut(i)[hash(&tokens[i - 1]) % DIM] += 0.5;
            }
        }
        SentenceEncoding {
            embeddings: emb,
            tags: self.tag(tokens),
            probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
        }
    }
}

/// 10–17 batches over a small vocabulary in four spellings (lower,
/// capitalized, all caps, `#`-marked) plus lone `#`s: later surfaces
/// extend, prefix and overlap earlier ones, shifting greedy boundaries
/// inside old tweets, and capitalized runs sometimes outgrow the scan
/// window.
fn boundary_stream(rng: &mut SplitMix64) -> Vec<Vec<Vec<String>>> {
    const WORDS: [&str; 12] = [
        "andy", "beshear", "new", "york", "city", "covid", "italy", "us", "open", "gov",
        "kentucky", "state",
    ];
    let token = |rng: &mut SplitMix64| {
        let w = WORDS[rng.gen_range(0..WORDS.len())];
        match rng.gen_range(0..20u32) {
            0..=10 => w.to_string(),
            11..=14 => w[..1].to_uppercase() + &w[1..],
            15..=17 => w.to_uppercase(),
            18 => format!("#{w}"),
            _ => "#".to_string(),
        }
    };
    (0..rng.gen_range(10..18usize))
        .map(|_| {
            (0..rng.gen_range(1..5usize))
                .map(|_| (0..rng.gen_range(0..11usize)).map(|_| token(rng)).collect())
                .collect()
        })
        .collect()
}

fn span_pipeline() -> NerGlobalizer<SpanTagger> {
    NerGlobalizer::new(
        SpanTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        GlobalizerConfig::default(),
    )
}

/// A version bump rescans only the tweets the scan memo cannot vouch
/// for and patches the candidate store in place. After every finalize
/// that incremental state equals — in `/export` bytes and state digest —
/// a pipeline whose memo was dropped first (a checkpoint round trip),
/// which rescans and re-admits every stored tweet, and a 4-shard
/// store's merged view; at the environment's thread count and kernel.
#[test]
fn memo_rescans_match_full_rescans_at_one_and_four_shards() {
    for_each_case(0x5E9_0005, 6, |rng| {
        let batches = boundary_stream(rng);
        let dir = std::env::temp_dir().join(format!("ngl-par-eq-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut memo = span_pipeline();
        let mut full = span_pipeline();
        let (mut sharded, _) = ShardedGlobalizer::open(span_pipeline(), &dir, 4, 4).expect("open");
        // Old tweets each side rescanned; `full` is a new pipeline at
        // every finalize.
        let mut full_rescanned = 0;
        for (i, batch) in batches.iter().enumerate() {
            memo.ingest(batch.clone(), None);
            sharded.ingest(batch.clone(), None).expect("ingest");
            full.ingest(batch.clone(), None);
            let mut again = span_pipeline();
            again.import_state_bytes(&full.export_state_bytes()).expect("import");
            full = again;
            let spans = memo.finalize();
            assert_eq!(spans, full.finalize(), "finalize {i}");
            assert_eq!(spans, sharded.finalize().expect("finalize"));
            let bytes = memo.export_state_bytes();
            assert!(bytes == full.export_state_bytes(), "finalize {i}");
            assert!(bytes == sharded.merged().export_state_bytes(), "finalize {i}");
            assert_eq!(memo.state_digest(), full.state_digest());
            assert_eq!(memo.state_digest(), sharded.combined_digest());
            full_rescanned += full.timings().tweets_rescanned;
        }
        assert!(memo.timings().tweets_rescanned < full_rescanned, "the memo skipped no tweet");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
