//! Failure-injection and degenerate-input tests: the pipeline must stay
//! well-defined when its inputs are pathological — empty batches, empty
//! sentences, entity-free streams, punctuation storms, repeated
//! finalize calls.

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, EntityClassifier, GlobalizerConfig, NerGlobalizer,
    PhraseEmbedder, PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{EncoderConfig, TokenEncoder};
use ner_globalizer::text::tokenize;

fn untrained_pipeline(mode: AblationMode) -> NerGlobalizer<TokenEncoder> {
    let dim = 12;
    let enc = TokenEncoder::new(EncoderConfig {
        embed_dim: 8,
        hidden_dim: 12,
        out_dim: dim,
        seed: 77,
        ..Default::default()
    });
    NerGlobalizer::new(
        enc,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
        GlobalizerConfig { ablation: mode, ..Default::default() },
    )
}

fn toks(s: &str) -> Vec<String> {
    tokenize(s).into_iter().map(|t| t.text).collect()
}

#[test]
fn empty_batch_is_a_noop() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    let (out, _) = p.ingest(vec![], None);
    assert!(out.local_spans.is_empty());
    assert!(p.finalize().is_empty());
}

#[test]
fn empty_sentences_flow_through() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    p.ingest(vec![vec![], toks("hello world"), vec![]], None);
    let out = p.finalize();
    assert_eq!(out.len(), 3);
    assert!(out[0].is_empty());
    assert!(out[2].is_empty());
}

#[test]
fn punctuation_storm_does_not_panic() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    let weird = [
        toks("!!! ??? ... ---"),
        toks("###"),
        toks("@ # $ % ^"),
        toks("🦀 🦀 🦀"),
        toks("https://t.co/abc123 https://t.co/def456"),
    ];
    p.ingest(weird.to_vec(), None);
    let out = p.finalize();
    assert_eq!(out.len(), weird.len());
}

#[test]
fn repeated_finalize_is_idempotent() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    p.ingest(vec![toks("Beshear spoke in Italy"), toks("beshear again")], None);
    let a = p.finalize();
    let b = p.finalize();
    let c = p.finalize();
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn finalize_before_any_batch_is_empty() {
    let mut p = untrained_pipeline(AblationMode::MentionExtraction);
    assert!(p.finalize().is_empty());
    assert_eq!(p.n_surfaces(), 0);
}

#[test]
fn single_token_sentences_work_in_all_modes() {
    for mode in [
        AblationMode::LocalOnly,
        AblationMode::MentionExtraction,
        AblationMode::LocalClassifier,
        AblationMode::FullGlobal,
    ] {
        let mut p = untrained_pipeline(mode);
        p.ingest(vec![toks("Coronavirus"), toks("x")], None);
        let out = p.finalize();
        assert_eq!(out.len(), 2, "mode {mode:?}");
        for spans in &out {
            for s in spans {
                assert!(s.end <= 1);
            }
        }
    }
}

#[test]
fn very_long_sentence_is_handled() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    let long: Vec<String> = (0..500).map(|i| format!("tok{i}")).collect();
    p.ingest(vec![long], None);
    let out = p.finalize();
    assert_eq!(out.len(), 1);
}

#[test]
fn duplicate_tweets_accumulate_mentions_not_surfaces() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    let t = toks("Beshear spoke in Italy today");
    p.ingest(vec![t.clone(), t.clone(), t], None);
    p.finalize();
    let surfaces = p.n_surfaces();
    let mentions = p.candidate_base().total_mentions();
    // However many surfaces the untrained tagger seeds, three identical
    // tweets must give exactly 3× the per-tweet mentions and the same
    // surface count as one tweet would.
    assert!(mentions.is_multiple_of(3), "mentions {mentions} not a multiple of 3");
    let mut p1 = untrained_pipeline(AblationMode::FullGlobal);
    p1.ingest(vec![toks("Beshear spoke in Italy today")], None);
    p1.finalize();
    assert_eq!(surfaces, p1.n_surfaces());
}

#[test]
fn stopword_only_detections_never_become_candidates() {
    // The untrained tagger tags arbitrarily; whatever it does, the
    // stopword filter must keep bare function words out of the CTrie.
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    let batch: Vec<Vec<String>> = (0..30).map(|_| toks("the of in and to for this that")).collect();
    p.ingest(batch, None);
    p.finalize();
    for (surface, _) in p.candidate_base().iter() {
        let toks: Vec<&str> = surface.split(' ').collect();
        assert!(
            !ner_globalizer::text::is_stopword_surface(&toks),
            "stopword surface {surface:?} leaked into the candidate base"
        );
    }
}

#[test]
fn unicode_and_mixed_script_tokens_survive_the_full_path() {
    let mut p = untrained_pipeline(AblationMode::FullGlobal);
    p.ingest(
        vec![
            toks("Überwachung in München heute"),
            toks("código nuevo für alle"),
            toks("ΚΟΣΜΟΣ και κόσμος"),
        ],
        None,
    );
    let out = p.finalize();
    assert_eq!(out.len(), 3);
}
