//! Quickstart: train the full NER Globalizer stack on synthetic streams
//! and run it over a small Covid-like tweet stream.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's execution cycle end-to-end:
//! 1. fine-tune the Local NER encoder on a WNUT17-style training corpus;
//! 2. train the Phrase Embedder + Entity Classifier on a D5-style stream;
//! 3. stream a batch of tweets through the pipeline;
//! 4. compare Local NER output with the final Global NER output.

use ner_globalizer::core::{
    train_globalizer, GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer,
};
use ner_globalizer::corpus::{Dataset, DatasetSpec, KnowledgeBase, Topic};
use ner_globalizer::encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ner_globalizer::eval::evaluate;

fn main() {
    let seed = 7;

    // ---- Data: three worlds with disjoint procedural entities. ----
    println!("== generating synthetic corpora ==");
    let train_kb =
        KnowledgeBase::build_in(seed ^ 1, 200, ner_globalizer::corpus::namegen::Universe::Train);
    let d5_kb = KnowledgeBase::build(seed ^ 2, 120);
    let eval_kb = KnowledgeBase::build(seed ^ 3, 120);
    let train_set =
        Dataset::generate(&DatasetSpec::non_streaming("train", 2_000, seed ^ 0xA), &train_kb);
    let d5 = Dataset::generate(
        &DatasetSpec::streaming("d5", 1_500, Topic::ALL.to_vec(), seed ^ 0xB),
        &d5_kb,
    );
    let stream = Dataset::generate(
        &DatasetSpec::streaming("covid-stream", 600, vec![Topic::Health], seed ^ 0xC),
        &eval_kb,
    );
    println!(
        "   train {} tweets, d5 {} tweets, stream {} tweets",
        train_set.tweets.len(),
        d5.tweets.len(),
        stream.tweets.len()
    );

    // ---- Local NER: the BERTweet stand-in. ----
    println!("== fine-tuning the Local NER encoder ==");
    let mut local = TokenEncoder::new(EncoderConfig { seed, ..Default::default() });
    let stats =
        train_encoder(&mut local, &train_set, &TrainConfig { epochs: 6, ..Default::default() });
    println!(
        "   {} epochs, dev token accuracy {:.1}%",
        stats.epochs_run,
        stats.dev_token_accuracy * 100.0
    );

    // ---- Global NER components: Phrase Embedder + Entity Classifier. ----
    println!("== training Global NER components on D5 ==");
    let cfg = GlobalizerTrainingConfig::for_dim(local.out_dim());
    let trained = train_globalizer(&local, &d5, &cfg);
    println!(
        "   {} with {} records, classifier val macro-F1 {:.1}%",
        trained.report.objective,
        trained.report.dataset_size,
        trained.report.classifier_val_macro_f1 * 100.0
    );

    // ---- Stream processing. ----
    println!("== streaming {} tweets through the pipeline ==", stream.tweets.len());
    let mut pipeline =
        NerGlobalizer::new(local, trained.phrase, trained.classifier, GlobalizerConfig::default());
    for batch in stream.batches(200) {
        let tokens: Vec<Vec<String>> = batch.iter().map(|t| t.tokens.clone()).collect();
        pipeline.ingest(tokens, None);
    }
    let global = pipeline.finalize();
    let local_out = pipeline.local_outputs();

    // ---- Scores. ----
    let gold: Vec<_> = stream.tweets.iter().map(|t| t.gold_spans()).collect();
    let ls = evaluate(&gold, &local_out);
    let gs = evaluate(&gold, &global);
    println!("\n                 macro-F1");
    println!("   Local NER     {:.3}", ls.macro_f1());
    println!("   NER Globalizer {:.3}", gs.macro_f1());
    println!(
        "\n   {} candidate surfaces registered, {} mentions tracked",
        pipeline.n_surfaces(),
        pipeline.candidate_base().total_mentions()
    );
    let t = pipeline.timings();
    println!(
        "   local stage {:.2}s, global stage {:.2}s",
        t.local.as_secs_f64(),
        t.global.as_secs_f64()
    );

    // ---- A concrete recovered mention. ----
    for (i, tweet) in stream.tweets.iter().enumerate() {
        let recovered: Vec<_> = global[i]
            .iter()
            .filter(|g| !local_out[i].iter().any(|l| l.same_boundaries(g)))
            .collect();
        if let Some(span) = recovered.first() {
            println!(
                "\n   example recovery in tweet {i}: {:?} -> {} \"{}\"",
                tweet.text(),
                span.ty,
                span.surface(&tweet.tokens)
            );
            break;
        }
    }
}
