//! Head-to-head comparison of every implemented NER system on one
//! synthetic stream — a miniature of Tables III and V.
//!
//! ```bash
//! cargo run --release --example compare_systems
//! ```

use ner_globalizer::baselines::{
    AguilarConfig, AguilarTagger, AkbikConfig, AkbikTagger, BertNer, DoclNer, DocumentTagger,
    HireConfig, HireNer,
};
use ner_globalizer::core::{
    train_globalizer, GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer,
};
use ner_globalizer::corpus::{Dataset, DatasetSpec, KnowledgeBase, NoiseProfile, Topic};
use ner_globalizer::encoder::{
    train_encoder, EncoderConfig, SequenceTagger, TokenEncoder, TrainConfig,
};
use ner_globalizer::eval::evaluate;
use ner_globalizer::text::{decode_bio, Span};

fn main() {
    let seed = 55;
    println!("== building data and training all systems ==");
    let train_kb =
        KnowledgeBase::build_in(seed ^ 1, 200, ner_globalizer::corpus::namegen::Universe::Train);
    let d5_kb = KnowledgeBase::build(seed ^ 2, 120);
    let eval_kb = KnowledgeBase::build(seed ^ 3, 120);
    let train_set =
        Dataset::generate(&DatasetSpec::non_streaming("train", 3_000, seed ^ 0xA), &train_kb);
    let generic = Dataset::generate(
        &DatasetSpec {
            noise: NoiseProfile::clean(),
            ..DatasetSpec::non_streaming("generic", 2_000, seed ^ 0xD)
        },
        &train_kb,
    );
    let d5 = Dataset::generate(
        &DatasetSpec::streaming("d5", 3_000, Topic::ALL.to_vec(), seed ^ 0xB),
        &d5_kb,
    );
    let stream = Dataset::generate(
        &DatasetSpec::streaming("stream", 800, vec![Topic::Health, Topic::Science], seed ^ 0xC),
        &eval_kb,
    );

    let enc_cfg = EncoderConfig { seed, ..Default::default() };
    let mut local = TokenEncoder::new(enc_cfg);
    train_encoder(&mut local, &train_set, &TrainConfig { epochs: 6, ..Default::default() });
    let trained =
        train_globalizer(&local, &d5, &GlobalizerTrainingConfig::for_dim(local.out_dim()));

    let gold: Vec<Vec<Span>> = stream.tweets.iter().map(|t| t.gold_spans()).collect();
    let sentences: Vec<Vec<String>> = stream.tweets.iter().map(|t| t.tokens.clone()).collect();
    let mut results: Vec<(&str, f64)> = Vec::new();

    // NER Globalizer.
    {
        let mut p = NerGlobalizer::new(
            local.clone(),
            trained.phrase.clone(),
            trained.classifier.clone(),
            GlobalizerConfig::default(),
        );
        p.ingest(sentences.clone(), None);
        let out = p.finalize();
        results.push(("NER Globalizer", evaluate(&gold, &out).macro_f1()));
        results.push((
            "Local NER (BERTweet stand-in)",
            evaluate(&gold, &p.local_outputs()).macro_f1(),
        ));
    }
    // Aguilar-style CRF.
    {
        let crf = AguilarTagger::train(&train_set, AguilarConfig::default());
        let out: Vec<Vec<Span>> = sentences.iter().map(|s| decode_bio(&crf.tag(s))).collect();
        results.push(("Aguilar et al. (CRF)", evaluate(&gold, &out).macro_f1()));
    }
    // Domain-shifted BERT-NER.
    {
        let bert =
            BertNer::train(&generic, enc_cfg, &TrainConfig { epochs: 6, ..Default::default() });
        let out: Vec<Vec<Span>> = sentences.iter().map(|s| decode_bio(&bert.tag(s))).collect();
        results.push(("BERT-NER (domain-shifted)", evaluate(&gold, &out).macro_f1()));
    }
    // Global baselines.
    {
        let akbik = AkbikTagger::train(local.clone(), &train_set, AkbikConfig::default());
        let tags = akbik.tag_document(&sentences);
        let out: Vec<Vec<Span>> = tags.iter().map(|t| decode_bio(t)).collect();
        results.push(("Akbik et al. (pooled)", evaluate(&gold, &out).macro_f1()));
    }
    {
        let hire = HireNer::train(local.clone(), &train_set, HireConfig::default());
        let tags = hire.tag_document(&sentences);
        let out: Vec<Vec<Span>> = tags.iter().map(|t| decode_bio(t)).collect();
        results.push(("HIRE-NER", evaluate(&gold, &out).macro_f1()));
    }
    {
        let docl = DoclNer::new(local.clone());
        let tags = docl.tag_document(&sentences);
        let out: Vec<Vec<Span>> = tags.iter().map(|t| decode_bio(t)).collect();
        results.push(("DocL-NER", evaluate(&gold, &out).macro_f1()));
    }

    results.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("\n== macro-F1 on an {}-tweet stream ==", stream.tweets.len());
    for (name, f1) in results {
        println!("  {name:<32} {f1:.3}");
    }
}
