//! Topic drift (§I: "multiple contemporaneous topics ... evolving over
//! time"): the conversation moves Politics → Health → Sports while one
//! pipeline instance keeps processing. Each phase brings a fresh entity
//! pool, yet the collective-processing gain holds within every phase —
//! no re-training, the CandidateBase simply keeps growing.
//!
//! ```bash
//! cargo run --release --example topic_drift
//! ```

use ner_globalizer::core::{
    train_globalizer, GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer,
};
use ner_globalizer::corpus::{
    Dataset, DatasetSpec, KnowledgeBase, StreamPhase, SyntheticStream, Topic, TweetSource,
};
use ner_globalizer::encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ner_globalizer::eval::evaluate;

fn main() {
    let seed = 77;
    println!("== training (a few seconds) ==");
    let train_kb =
        KnowledgeBase::build_in(seed ^ 1, 200, ner_globalizer::corpus::namegen::Universe::Train);
    let d5_kb = KnowledgeBase::build(seed ^ 2, 120);
    let eval_kb = KnowledgeBase::build(seed ^ 3, 120);
    let train_set =
        Dataset::generate(&DatasetSpec::non_streaming("train", 2_500, seed ^ 0xA), &train_kb);
    let d5 = Dataset::generate(
        &DatasetSpec::streaming("d5", 2_000, Topic::ALL.to_vec(), seed ^ 0xB),
        &d5_kb,
    );
    let mut local = TokenEncoder::new(EncoderConfig { seed, ..Default::default() });
    train_encoder(&mut local, &train_set, &TrainConfig { epochs: 6, ..Default::default() });
    let trained =
        train_globalizer(&local, &d5, &GlobalizerTrainingConfig::for_dim(local.out_dim()));

    // A stream that drifts across three conversations.
    let phase_len = 400;
    let mut stream = SyntheticStream::with_phases(
        &eval_kb,
        DatasetSpec::streaming("drift", 0, vec![Topic::Politics], seed ^ 0xC),
        vec![
            StreamPhase { topic: Topic::Politics, length: phase_len },
            StreamPhase { topic: Topic::Health, length: phase_len },
            StreamPhase { topic: Topic::Sports, length: phase_len },
        ],
    );

    let mut pipeline =
        NerGlobalizer::new(local, trained.phrase, trained.classifier, GlobalizerConfig::default());

    println!("== streaming 3 × {phase_len} tweets across drifting topics ==\n");
    let mut all_tweets = Vec::new();
    for phase in 0..3 {
        let tweets = stream.next_batch(phase_len);
        let tokens: Vec<Vec<String>> = tweets.iter().map(|t| t.tokens.clone()).collect();
        pipeline.ingest(tokens, None);
        all_tweets.extend(tweets);
        // Re-run Global NER over everything seen so far, then score just
        // this phase's slice.
        let outputs = pipeline.finalize();
        let lo = phase * phase_len;
        let hi = lo + phase_len;
        let gold: Vec<_> = all_tweets[lo..hi].iter().map(|t| t.gold_spans()).collect();
        let local_spans = pipeline.local_outputs()[lo..hi].to_vec();
        let topic = all_tweets[lo].topic;
        println!(
            "phase {} ({:?}): local {:.3} -> global {:.3} macro-F1 ({} surfaces known)",
            phase + 1,
            topic,
            evaluate(&gold, &local_spans).macro_f1(),
            evaluate(&gold, &outputs[lo..hi]).macro_f1(),
            pipeline.n_surfaces()
        );
    }
    println!(
        "\nThe pipeline never retrains across drifts — candidate surfaces\n\
         accumulate, and each new conversation's entities are aggregated\n\
         and classified from their own stream evidence."
    );
}
