//! Surface-form ambiguity (§V-C): the same string "washington" refers to
//! a person or a state, and "us" is both a country and a pronoun. This
//! example feeds a hand-written stream through a trained pipeline and
//! shows how candidate clustering separates the readings before the
//! Entity Classifier labels them.
//!
//! ```bash
//! cargo run --release --example ambiguity
//! ```

use ner_globalizer::core::{
    train_globalizer, GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer,
};
use ner_globalizer::corpus::{Dataset, DatasetSpec, KnowledgeBase, Topic};
use ner_globalizer::encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ner_globalizer::text::tokenize;

fn main() {
    let seed = 21;

    // Train the stack exactly like quickstart (smaller budgets).
    println!("== training (this takes a few seconds) ==");
    let train_kb =
        KnowledgeBase::build_in(seed ^ 1, 200, ner_globalizer::corpus::namegen::Universe::Train);
    let d5_kb = KnowledgeBase::build(seed ^ 2, 120);
    let train_set =
        Dataset::generate(&DatasetSpec::non_streaming("train", 2_000, seed ^ 0xA), &train_kb);
    let d5 = Dataset::generate(
        &DatasetSpec::streaming("d5", 1_500, Topic::ALL.to_vec(), seed ^ 0xB),
        &d5_kb,
    );
    let mut local = TokenEncoder::new(EncoderConfig { seed, ..Default::default() });
    train_encoder(&mut local, &train_set, &TrainConfig { epochs: 6, ..Default::default() });
    let trained =
        train_globalizer(&local, &d5, &GlobalizerTrainingConfig::for_dim(local.out_dim()));

    // A hand-written ambiguous stream, echoing the paper's examples.
    let tweets = [
        "president Washington signed the bill today",
        "Washington slammed the committee over the leak",
        "we visited washington last summer",
        "protests erupt in Washington tonight",
        "washington said the hearings will continue",
        "voters in washington head to the polls",
        "the US confirmed 500 new cases today",
        "cases rising fast in the US",
        "they told us to stay home again",
        "this affects all of us directly",
        "US officials issued new travel guidance",
        "give us a break already",
    ];
    println!("== processing {} hand-written tweets ==\n", tweets.len());
    let mut pipeline =
        NerGlobalizer::new(local, trained.phrase, trained.classifier, GlobalizerConfig::default());
    let batch: Vec<Vec<String>> =
        tweets.iter().map(|t| tokenize(t).into_iter().map(|tok| tok.text).collect()).collect();
    pipeline.ingest(batch, None);
    let out = pipeline.finalize();

    for (text, spans) in tweets.iter().zip(&out) {
        let toks: Vec<String> = tokenize(text).into_iter().map(|t| t.text).collect();
        let rendered: Vec<String> =
            spans.iter().map(|s| format!("{} [{}]", s.surface(&toks), s.ty)).collect();
        println!(
            "  {:<55} -> {}",
            text,
            if rendered.is_empty() { "(no entities)".to_string() } else { rendered.join(", ") }
        );
    }

    // Show the cluster structure behind each ambiguous surface.
    println!("\n== candidate clusters per ambiguous surface ==");
    for surface in ["washington", "us"] {
        if pipeline.candidate_base().get(surface).is_none() {
            println!(
                "  \"{surface}\": never seeded — Local NER missed every mention, so \
                 Global NER cannot recover it (the paper's error mode 1, §VI-C)"
            );
            continue;
        }
        if let Some(entry) = pipeline.candidate_base().get(surface) {
            println!(
                "  \"{surface}\": {} mention(s) in {} cluster(s)",
                entry.mentions.len(),
                entry.clusters.len()
            );
            for (ci, cluster) in entry.clusters.iter().enumerate() {
                let label = match cluster.label {
                    Some(Some(ty)) => ty.code().to_string(),
                    Some(None) => "non-entity".to_string(),
                    None => "unclassified".to_string(),
                };
                println!("    cluster {ci}: {} mention(s) -> {label}", cluster.members.len());
            }
        }
    }
    println!(
        "\nThe clustering step (cosine agglomerative over contrastive phrase\n\
         embeddings) is what keeps the pronoun \"us\" from polluting the\n\
         global embedding of the country — the issue §V-C is built around."
    );
}
