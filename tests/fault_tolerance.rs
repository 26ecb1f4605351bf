//! Deterministic fault-injection harness over the full pipeline.
//!
//! A seeded [`FaultPlan`] decides which stream positions go bad and
//! how ([`FaultKind`]); the harness manifests each fault (sentinel
//! tokens for panics / NaN embeddings, cleared token lists, oversized
//! token lists, re-used tweet ids) and then asserts the two contract
//! halves of fault isolation:
//!
//! 1. every injected fault is *enumerated* — it surfaces in a
//!    [`BatchReport`](ner_globalizer::core::BatchReport) as a typed
//!    rejection or truncation, never as a crash;
//! 2. the faulty run leaves *no trace* — final outputs and candidate
//!    state are bitwise identical to a clean run over the surviving
//!    inputs, at every worker count.

use std::collections::BTreeSet;

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, EntityClassifier, GlobalizerConfig, NerGlobalizer,
    PhraseEmbedder, PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::faults::{FaultKind, FaultPlan, NAN_TOKEN, PANIC_TOKEN};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
use ner_globalizer::text::{BioTag, EntityType};

const DIM: usize = 8;
/// Token cap configured on the pipeline under test (small so the
/// oversize fault actually trips it).
const CAP: usize = 16;
const BATCH: usize = 7;

/// Deterministic stand-in for Local NER: capitalized tokens tag as
/// B-PER, embeddings are a case-folded hash one-hot — plus the fault
/// sentinels: a [`PANIC_TOKEN`] anywhere in the tweet panics the
/// encode task, a [`NAN_TOKEN`] poisons the embeddings with NaN.
struct FaultyTagger;

impl SequenceTagger for FaultyTagger {
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

impl ContextualTagger for FaultyTagger {
    fn dim(&self) -> usize {
        DIM
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        if tokens.iter().any(|t| t == PANIC_TOKEN) {
            panic!("poison tweet");
        }
        let mut emb = Matrix::zeros(tokens.len(), DIM);
        for (i, t) in tokens.iter().enumerate() {
            let h = t.to_lowercase().bytes().map(|b| b as usize).sum::<usize>();
            emb.row_mut(i)[h % DIM] = 1.0;
        }
        if tokens.iter().any(|t| t == NAN_TOKEN) {
            emb.row_mut(0)[0] = f32::NAN;
        }
        let tags = self.tag(tokens);
        SentenceEncoding {
            embeddings: emb,
            tags,
            probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
        }
    }
}

fn pipeline(threads: usize) -> NerGlobalizer<FaultyTagger> {
    NerGlobalizer::new(
        FaultyTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        GlobalizerConfig {
            ablation: AblationMode::FullGlobal,
            max_tweet_tokens: CAP,
            reject_empty: true,
            ..Default::default()
        },
    )
    .with_executor(Executor::new(threads))
}

/// A reproducible id-carrying token stream.
fn gen_stream(seed: u64, n: usize) -> Vec<(u64, Vec<String>)> {
    const VOCAB: [&str; 12] = [
        "Beshear", "Italy", "Madrid", "Wolves", "spoke", "won", "today", "about", "stream",
        "covid", "rally", "again",
    ];
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let len = 3 + rng.next_below(6) as usize;
            let tokens = (0..len)
                .map(|_| VOCAB[rng.next_below(VOCAB.len() as u64) as usize].to_string())
                .collect();
            (1000 + i as u64, tokens)
        })
        .collect()
}

/// The mutated stream plus the ground truth the reports must match.
struct Injected {
    stream: Vec<(u64, Vec<String>)>,
    /// Input indices that must be rejected (panic, NaN, empty,
    /// duplicate id).
    expect_rejected: BTreeSet<usize>,
    /// Input indices that must be reported as truncated.
    expect_truncated: BTreeSet<usize>,
    /// The surviving inputs (tokens post-truncation), with their
    /// original stream indices.
    survivors: Vec<(usize, u64, Vec<String>)>,
}

/// Manifests `plan` on `base` and derives, by simulating the ingress
/// rules, exactly which indices must be rejected or truncated.
fn inject(base: &[(u64, Vec<String>)], plan: &FaultPlan) -> Injected {
    let mut stream = base.to_vec();
    for (i, kind) in plan.iter() {
        let (id, tokens) = &mut stream[i];
        match kind {
            FaultKind::TaskPanic => tokens.insert(0, PANIC_TOKEN.to_string()),
            FaultKind::NanEmbedding => tokens.insert(0, NAN_TOKEN.to_string()),
            FaultKind::EmptyTweet => tokens.clear(),
            FaultKind::OversizeTweet => {
                while tokens.len() <= 2 * CAP {
                    tokens.push("filler".to_string());
                }
            }
            // Re-use a neighbour's id; first sight claims the id, so
            // the *later* holder is the one rejected.
            FaultKind::DuplicateId => *id = if i == 0 { base[1].0 } else { base[i - 1].0 },
        }
    }
    let mut seen = BTreeSet::new();
    let mut expect_rejected = BTreeSet::new();
    let mut expect_truncated = BTreeSet::new();
    let mut survivors = Vec::new();
    for (i, (id, tokens)) in stream.iter().enumerate() {
        let mut toks = tokens.clone();
        if toks.len() > CAP {
            toks.truncate(CAP);
            expect_truncated.insert(i);
        }
        if !seen.insert(*id) {
            expect_rejected.insert(i);
            continue;
        }
        if toks.is_empty() {
            expect_rejected.insert(i);
            continue;
        }
        if toks.iter().any(|t| t == PANIC_TOKEN || t == NAN_TOKEN) {
            expect_rejected.insert(i);
            continue;
        }
        survivors.push((i, *id, toks));
    }
    Injected { stream, expect_rejected, expect_truncated, survivors }
}

/// Flattens the candidate store into an exactly comparable fingerprint
/// (f32s by bit pattern).
fn fingerprint(p: &NerGlobalizer<FaultyTagger>) -> Vec<(String, Vec<u64>, Vec<u32>)> {
    p.candidate_base()
        .iter()
        .map(|(surface, e)| {
            let mut nums: Vec<u64> = Vec::new();
            let mut bits: Vec<u32> = Vec::new();
            for m in &e.mentions {
                nums.extend([m.tweet as u64, m.start as u64, m.end as u64]);
                bits.extend(m.local_emb.iter().map(|x| x.to_bits()));
            }
            for c in &e.clusters {
                nums.push(u64::MAX);
                nums.extend(c.members.iter().map(|&m| m as u64));
                bits.extend(c.global_emb.iter().map(|x| x.to_bits()));
            }
            (surface.to_string(), nums, bits)
        })
        .collect()
}

/// Feeds `stream` in fixed-size batches with a finalize after each,
/// returning the final outputs plus the globally-indexed rejection and
/// truncation sets accumulated from every [`BatchReport`].
fn run_stream(
    p: &mut NerGlobalizer<FaultyTagger>,
    stream: &[(u64, Vec<String>)],
) -> (Vec<Vec<ner_globalizer::text::Span>>, BTreeSet<usize>, BTreeSet<usize>, usize) {
    let mut rejected = BTreeSet::new();
    let mut truncated = BTreeSet::new();
    let mut n_errors = 0;
    let mut out = Vec::new();
    for (b, chunk) in stream.chunks(BATCH).enumerate() {
        let offset = b * BATCH;
        let (ids, tweets) = chunk.iter().cloned().unzip();
        let (_, report) = p.ingest(tweets, Some(ids));
        assert_eq!(report.rejected.len(), report.errors.len(), "one typed error per rejection");
        for (slot, err) in report.rejected.iter().zip(&report.errors) {
            assert_eq!(err.index, *slot, "error indices mirror rejected slots");
            rejected.insert(offset + slot);
        }
        truncated.extend(report.truncated.iter().map(|i| offset + i));
        n_errors += report.errors.len();
        out = p.finalize();
        assert!(p.take_finalize_errors().is_empty(), "clean records never fail the scan");
    }
    (out, rejected, truncated, n_errors)
}

#[test]
fn seeded_fault_plans_are_enumerated_and_leave_no_trace() {
    const N: usize = 24;
    for seed in [11u64, 42, 777] {
        let base = gen_stream(seed, N);
        let plan = FaultPlan::seeded(seed, N, 6);
        let injected = inject(&base, &plan);
        let mut outputs_by_threads = Vec::new();
        for threads in [1usize, 4] {
            let mut faulty = pipeline(threads);
            let (out, rejected, truncated, n_errors) = run_stream(&mut faulty, &injected.stream);
            assert_eq!(rejected, injected.expect_rejected, "seed {seed}, {threads} threads");
            assert_eq!(truncated, injected.expect_truncated, "seed {seed}, {threads} threads");
            assert_eq!(n_errors, injected.expect_rejected.len());
            assert_eq!(out.len(), injected.survivors.len(), "one output row per survivor");

            // A clean pipeline fed only the survivors (same batch
            // boundaries, same worker count) must be indistinguishable.
            let mut clean = pipeline(threads);
            let mut clean_out = Vec::new();
            for (b, chunk) in injected.stream.chunks(BATCH).enumerate() {
                let lo = b * BATCH;
                let hi = lo + chunk.len();
                let (ids, tweets) = injected
                    .survivors
                    .iter()
                    .filter(|(i, _, _)| lo <= *i && *i < hi)
                    .map(|(_, id, toks)| (*id, toks.clone()))
                    .unzip();
                let (_, report) = clean.ingest(tweets, Some(ids));
                assert!(report.all_ok(), "survivors are clean by construction");
                clean_out = clean.finalize();
            }
            assert_eq!(out, clean_out, "faulty run diverged from clean-over-survivors");
            assert_eq!(fingerprint(&faulty), fingerprint(&clean));
            assert_eq!(faulty.tweet_base().len(), clean.tweet_base().len());
            assert_eq!(faulty.cached_mentions(), clean.cached_mentions());
            outputs_by_threads.push(out);
        }
        assert_eq!(
            outputs_by_threads[0], outputs_by_threads[1],
            "worker count must not change faulty-run output (seed {seed})"
        );
    }
}

#[test]
fn one_fault_of_each_kind_is_reported_precisely() {
    let base = gen_stream(9, 8);
    let plan = FaultPlan::new()
        .with_fault(1, FaultKind::TaskPanic)
        .with_fault(2, FaultKind::NanEmbedding)
        .with_fault(3, FaultKind::EmptyTweet)
        .with_fault(4, FaultKind::OversizeTweet)
        .with_fault(5, FaultKind::DuplicateId);
    let injected = inject(&base, &plan);
    let mut p = pipeline(2);
    let (ids, tweets) = injected.stream.iter().cloned().unzip();
    let (_, report) = p.ingest(tweets, Some(ids));
    assert_eq!(report.ok, vec![0, 4, 6, 7]);
    assert_eq!(report.rejected, vec![1, 2, 3, 5]);
    assert_eq!(report.truncated, vec![4]);
    let msg = |i: usize| {
        report.errors.iter().find(|e| e.index == i).expect("error for index").message.as_str()
    };
    assert_eq!(msg(1), "poison tweet");
    assert_eq!(msg(2), "non-finite embeddings rejected");
    assert_eq!(msg(3), "empty tweet rejected");
    assert_eq!(msg(5), format!("duplicate tweet id {}", base[4].0));
    // Payload summaries point back at the offending input.
    let panic_err = report.errors.iter().find(|e| e.index == 1).unwrap();
    assert!(panic_err.payload.contains("input #1"), "payload: {}", panic_err.payload);
    // The stored stream is exactly the four accepted tweets.
    assert_eq!(p.tweet_base().len(), 4);
    p.finalize();
    assert!(p.take_finalize_errors().is_empty());
}

#[test]
fn fault_free_plans_change_nothing() {
    let base = gen_stream(5, 12);
    let injected = inject(&base, &FaultPlan::new());
    assert!(injected.expect_rejected.is_empty());
    assert!(injected.expect_truncated.is_empty());
    let mut a = pipeline(1);
    let mut b = pipeline(4);
    let (out_a, rej, trunc, n) = run_stream(&mut a, &injected.stream);
    assert!(rej.is_empty() && trunc.is_empty() && n == 0);
    let (out_b, ..) = run_stream(&mut b, &injected.stream);
    assert_eq!(out_a, out_b);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
