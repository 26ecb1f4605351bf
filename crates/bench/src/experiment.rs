//! One-time setup shared by every experiment: generate the data
//! universe, fine-tune the Local NER encoder, train the Global NER
//! components on D5, and train the baselines.

use ngl_baselines::{
    AguilarConfig, AguilarTagger, AkbikConfig, AkbikTagger, BertNer, DoclNer, HireConfig, HireNer,
};
use ngl_core::{
    train_globalizer, AblationMode, EntityClassifier, GlobalizerConfig, GlobalizerTrainingConfig,
    GlobalizerTrainingReport, NerGlobalizer, PhraseEmbedder, PhraseLoss, StageTimings,
};
use ngl_corpus::{Dataset, StandardDatasets};
use ngl_encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ngl_text::Span;

/// Experiment scale: full reproduces the paper's dataset sizes; quick is
/// a miniature for tests and smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of each dataset's tweets used.
    pub dataset_fraction: f64,
    /// Embedding dimension of the whole stack.
    pub dim: usize,
    /// Local NER fine-tuning epochs.
    pub encoder_epochs: usize,
    /// Phrase-embedder epoch cap.
    pub phrase_epochs: usize,
    /// Entity-classifier epoch cap.
    pub classifier_epochs: usize,
    /// Triplet-mining cap.
    pub max_triplets: usize,
}

impl Scale {
    /// Paper-scale run.
    pub fn full() -> Self {
        Self {
            dataset_fraction: 1.0,
            dim: 32,
            encoder_epochs: 8,
            phrase_epochs: 40,
            classifier_epochs: 120,
            max_triplets: 40_000,
        }
    }

    /// Miniature run for tests/smoke (~20× faster).
    pub fn quick() -> Self {
        Self {
            dataset_fraction: 0.12,
            dim: 16,
            encoder_epochs: 4,
            phrase_epochs: 15,
            classifier_epochs: 40,
            max_triplets: 4_000,
        }
    }
}

/// Result of running the pipeline over one dataset.
pub struct PipelineRun {
    /// Local NER spans per tweet.
    pub local: Vec<Vec<Span>>,
    /// Final pipeline spans per tweet.
    pub global: Vec<Vec<Span>>,
    /// Per-stage wall clock.
    pub timings: StageTimings,
}

/// Everything trained, ready to answer every table.
pub struct Experiment {
    /// The generated data universe.
    pub data: StandardDatasets,
    /// The fine-tuned Local NER encoder (BERTweet stand-in).
    pub local: TokenEncoder,
    /// The trained Phrase Embedder (triplet variant — production).
    pub phrase: PhraseEmbedder,
    /// The trained Entity Classifier.
    pub classifier: EntityClassifier,
    /// Table II row for the triplet variant.
    pub triplet_report: GlobalizerTrainingReport,
    /// Scale the experiment was built at.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl Experiment {
    /// Builds the experiment: generates data and trains the local
    /// encoder plus the Global NER components.
    pub fn build(seed: u64, scale: Scale) -> Self {
        let mut data = StandardDatasets::generate(seed);
        if scale.dataset_fraction < 1.0 {
            let shrink = |d: &mut Dataset| {
                let keep =
                    ((d.tweets.len() as f64) * scale.dataset_fraction).ceil().max(40.0) as usize;
                d.tweets.truncate(keep.min(d.tweets.len()));
            };
            shrink(&mut data.local_train);
            shrink(&mut data.generic_train);
            shrink(&mut data.d5);
            for d in &mut data.eval {
                shrink(d);
            }
        }

        let enc_cfg = Self::encoder_config(seed, scale);
        let mut local = TokenEncoder::new(enc_cfg);
        train_encoder(
            &mut local,
            &data.local_train,
            &TrainConfig { epochs: scale.encoder_epochs, seed: seed ^ 0xE7C, ..Default::default() },
        );

        let cfg = Self::globalizer_config(seed, scale, PhraseLoss::Triplet { margin: 1.0 });
        let trained = train_globalizer(&local, &data.d5, &cfg);

        Self {
            data,
            local,
            phrase: trained.phrase,
            classifier: trained.classifier,
            triplet_report: trained.report,
            scale,
            seed,
        }
    }

    /// The encoder config this experiment uses.
    pub fn encoder_config(seed: u64, scale: Scale) -> EncoderConfig {
        EncoderConfig {
            embed_dim: (scale.dim * 3 / 4).max(8),
            hidden_dim: scale.dim * 3 / 2,
            out_dim: scale.dim,
            seed: seed ^ 0xE0C0,
            ..EncoderConfig::default()
        }
    }

    /// Global NER training config for a given objective.
    pub fn globalizer_config(
        seed: u64,
        scale: Scale,
        loss: PhraseLoss,
    ) -> GlobalizerTrainingConfig {
        let mut cfg = GlobalizerTrainingConfig::for_dim(scale.dim);
        cfg.phrase.loss = loss;
        cfg.phrase.max_epochs = scale.phrase_epochs;
        cfg.phrase.seed = seed ^ 0xF0A;
        cfg.classifier.max_epochs = scale.classifier_epochs;
        cfg.classifier.seed = seed ^ 0xF0B;
        cfg.max_triplets = scale.max_triplets;
        cfg.seed = seed ^ 0xF0C;
        cfg
    }

    /// Soft-NN variant with its trained components, for pipeline-level
    /// objective comparisons.
    pub fn train_soft_nn_stack(
        &self,
    ) -> (GlobalizerTrainingReport, (PhraseEmbedder, EntityClassifier)) {
        let cfg =
            Self::globalizer_config(self.seed, self.scale, PhraseLoss::SoftNn { temperature: 0.3 });
        let trained = train_globalizer(&self.local, &self.data.d5, &cfg);
        (trained.report, (trained.phrase, trained.classifier))
    }

    /// Runs the NER Globalizer over a dataset in the given ablation
    /// mode, processing the stream in batches of 500 tweets.
    pub fn run_pipeline(&self, dataset: &Dataset, mode: AblationMode) -> PipelineRun {
        let mut pipeline = NerGlobalizer::new(
            self.local.clone(),
            self.phrase.clone(),
            self.classifier.clone(),
            GlobalizerConfig { ablation: mode, ..Default::default() },
        );
        for batch in dataset.batches(500) {
            let tokens: Vec<Vec<String>> = batch.iter().map(|t| t.tokens.clone()).collect();
            pipeline.ingest(tokens, None);
        }
        let global = pipeline.finalize();
        PipelineRun { local: pipeline.local_outputs(), global, timings: pipeline.timings() }
    }

    /// Trains the Aguilar CRF baseline on the tweet training corpus.
    pub fn train_aguilar(&self) -> AguilarTagger {
        AguilarTagger::train(
            &self.data.local_train,
            AguilarConfig { seed: self.seed ^ 0xA6, ..Default::default() },
        )
    }

    /// Trains the domain-shifted BERT-NER baseline.
    pub fn train_bert_ner(&self) -> BertNer {
        BertNer::train(
            &self.data.generic_train,
            Self::encoder_config(self.seed ^ 0xBB, self.scale),
            &TrainConfig {
                epochs: self.scale.encoder_epochs,
                seed: self.seed ^ 0xBE,
                ..Default::default()
            },
        )
    }

    /// Trains the Akbik pooled-embedding baseline (shares the local
    /// encoder, retrains the head).
    pub fn train_akbik(&self) -> AkbikTagger {
        AkbikTagger::train(
            self.local.clone(),
            &self.data.local_train,
            AkbikConfig { seed: self.seed ^ 0xAA, ..Default::default() },
        )
    }

    /// Trains the HIRE-NER baseline.
    pub fn train_hire(&self) -> HireNer {
        HireNer::train(
            self.local.clone(),
            &self.data.local_train,
            HireConfig { seed: self.seed ^ 0x44, ..Default::default() },
        )
    }

    /// Wraps the local encoder with DocL-NER label refinement.
    pub fn make_docl(&self) -> DoclNer<TokenEncoder> {
        DoclNer::new(self.local.clone())
    }

    /// Gold spans per tweet of a dataset.
    pub fn gold_of(dataset: &Dataset) -> Vec<Vec<Span>> {
        dataset.tweets.iter().map(|t| t.gold_spans()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_eval::evaluate;

    /// A quick-scale end-to-end smoke test of the harness: the full
    /// Globalizer must beat its own local stage on a streaming dataset —
    /// the paper's central claim in miniature.
    #[test]
    fn quick_experiment_reproduces_the_headline_direction() {
        let exp = Experiment::build(2024, Scale::quick());
        let d2 = &exp.data.streaming_eval()[1];
        assert_eq!(d2.name, "D2");
        let gold = Experiment::gold_of(d2);
        let run = exp.run_pipeline(d2, AblationMode::FullGlobal);
        let local_f1 = evaluate(&gold, &run.local).macro_f1();
        let global_f1 = evaluate(&gold, &run.global).macro_f1();
        assert!(global_f1 > local_f1, "global ({global_f1:.3}) must beat local ({local_f1:.3})");
        assert!(run.timings.local.as_nanos() > 0);
        assert!(run.timings.global.as_nanos() > 0);
    }
}
