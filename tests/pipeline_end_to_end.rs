//! End-to-end integration: train the full stack at miniature scale and
//! verify the paper's headline claims hold directionally.

use ner_globalizer::core::{
    train_globalizer, AblationMode, GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer,
};
use ner_globalizer::corpus::namegen::Universe;
use ner_globalizer::corpus::{Dataset, DatasetSpec, KnowledgeBase, Topic};
use ner_globalizer::encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ner_globalizer::eval::{evaluate, evaluate_emd};
use ner_globalizer::text::Span;

struct Stack {
    local: TokenEncoder,
    trained: ner_globalizer::core::train::TrainedGlobalNer,
    stream: Dataset,
}

fn build_stack(seed: u64) -> Stack {
    let train_kb = KnowledgeBase::build_in(seed ^ 1, 150, Universe::Train);
    let d5_kb = KnowledgeBase::build(seed ^ 2, 100);
    let eval_kb = KnowledgeBase::build(seed ^ 3, 100);
    let train_set =
        Dataset::generate(&DatasetSpec::non_streaming("train", 1_200, seed ^ 0xA), &train_kb);
    let d5 = Dataset::generate(
        &DatasetSpec::streaming("d5", 900, Topic::ALL.to_vec(), seed ^ 0xB),
        &d5_kb,
    );
    let stream = Dataset::generate(
        &DatasetSpec::streaming("stream", 500, vec![Topic::Health], seed ^ 0xC),
        &eval_kb,
    );
    let mut local = TokenEncoder::new(EncoderConfig {
        embed_dim: 16,
        hidden_dim: 24,
        out_dim: 16,
        seed,
        ..Default::default()
    });
    train_encoder(&mut local, &train_set, &TrainConfig { epochs: 5, ..Default::default() });
    let mut cfg = GlobalizerTrainingConfig::for_dim(16);
    cfg.max_triplets = 8_000;
    cfg.phrase.max_epochs = 20;
    cfg.classifier.max_epochs = 50;
    let trained = train_globalizer(&local, &d5, &cfg);
    Stack { local, trained, stream }
}

fn run(stack: &Stack, mode: AblationMode) -> (Vec<Vec<Span>>, Vec<Vec<Span>>) {
    let mut p = NerGlobalizer::new(
        stack.local.clone(),
        stack.trained.phrase.clone(),
        stack.trained.classifier.clone(),
        GlobalizerConfig { ablation: mode, ..Default::default() },
    );
    for batch in stack.stream.batches(150) {
        let toks: Vec<Vec<String>> = batch.iter().map(|t| t.tokens.clone()).collect();
        p.ingest(toks, None);
    }
    let out = p.finalize();
    (p.local_outputs(), out)
}

#[test]
fn global_ner_beats_local_ner_on_a_stream() {
    let stack = build_stack(97);
    let gold: Vec<Vec<Span>> = stack.stream.tweets.iter().map(|t| t.gold_spans()).collect();
    let (local, global) = run(&stack, AblationMode::FullGlobal);
    let lf = evaluate(&gold, &local).macro_f1();
    let gf = evaluate(&gold, &global).macro_f1();
    assert!(gf > lf, "Global NER ({gf:.3}) must beat Local NER ({lf:.3}) on a stream");
    // EMD (boundary-only) should improve too (§VI-D).
    let le = evaluate_emd(&gold, &local).f1();
    let ge = evaluate_emd(&gold, &global).f1();
    assert!(ge > le - 0.02, "EMD quality regressed badly: local {le:.3} vs global {ge:.3}");
}

#[test]
fn mention_extraction_increases_detected_mentions() {
    let stack = build_stack(98);
    let (local, extraction) = run(&stack, AblationMode::MentionExtraction);
    let local_mentions: usize = local.iter().map(Vec::len).sum();
    let extracted: usize = extraction.iter().map(Vec::len).sum();
    assert!(
        extracted > local_mentions,
        "extraction ({extracted}) should add mentions over local ({local_mentions})"
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let stack = build_stack(99);
    let (_, a) = run(&stack, AblationMode::FullGlobal);
    let (_, b) = run(&stack, AblationMode::FullGlobal);
    assert_eq!(a, b, "same trained stack + same stream must give same output");
}

#[test]
fn local_only_mode_matches_local_outputs() {
    let stack = build_stack(100);
    let (local, out) = run(&stack, AblationMode::LocalOnly);
    assert_eq!(local, out);
}

#[test]
fn batched_and_single_shot_processing_agree() {
    let stack = build_stack(101);
    let toks: Vec<Vec<String>> = stack.stream.tweets.iter().map(|t| t.tokens.clone()).collect();
    let mut p1 = NerGlobalizer::new(
        stack.local.clone(),
        stack.trained.phrase.clone(),
        stack.trained.classifier.clone(),
        GlobalizerConfig::default(),
    );
    p1.ingest(toks.clone(), None);
    let single = p1.finalize();

    let mut p2 = NerGlobalizer::new(
        stack.local.clone(),
        stack.trained.phrase.clone(),
        stack.trained.classifier.clone(),
        GlobalizerConfig::default(),
    );
    for chunk in toks.chunks(57) {
        p2.ingest(chunk.to_vec(), None);
    }
    let batched = p2.finalize();
    // finalize() re-scans everything with the final CTrie, so batch size
    // must not affect the final output.
    assert_eq!(single, batched);
}
