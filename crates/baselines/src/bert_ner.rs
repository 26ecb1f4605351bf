//! The BERT-NER baseline (Devlin et al., fine-tuned for NER).
//!
//! In the paper this is BERT-base — pre-trained on well-edited text —
//! fine-tuned on WNUT17, which leaves it with a domain-shift handicap on
//! noisy tweets relative to the tweet-pretrained BERTweet. We reproduce
//! that relationship by training the *same* encoder architecture on a
//! clean, well-edited corpus profile (`ngl_corpus::profiles::generic_train`)
//! and evaluating it on the noisy streams.

use ngl_corpus::Dataset;
use ngl_encoder::{
    train_encoder, ContextualTagger, EncoderConfig, SentenceEncoding, SequenceTagger, TokenEncoder,
    TrainConfig,
};
use ngl_text::BioTag;

/// The domain-shifted BERT-NER stand-in.
#[derive(Debug, Clone)]
pub struct BertNer {
    inner: TokenEncoder,
}

impl BertNer {
    /// Trains the baseline on a clean generic corpus (not the noisy
    /// tweet training set).
    pub fn train(
        generic_corpus: &Dataset,
        enc_cfg: EncoderConfig,
        train_cfg: &TrainConfig,
    ) -> Self {
        let mut inner = TokenEncoder::new(enc_cfg);
        train_encoder(&mut inner, generic_corpus, train_cfg);
        Self { inner }
    }
}

impl SequenceTagger for BertNer {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        self.inner.tag(tokens)
    }
}

impl ContextualTagger for BertNer {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        self.inner.encode(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, NoiseProfile, Topic};
    use ngl_text::decode_bio;

    fn spans_found(tagger: &dyn SequenceTagger, data: &Dataset) -> usize {
        let mut tp = 0;
        for t in &data.tweets {
            let pred = decode_bio(&tagger.tag(&t.tokens));
            for g in t.gold_spans() {
                if pred.iter().any(|p| p.matches(&g)) {
                    tp += 1;
                }
            }
        }
        tp
    }

    /// The domain-shift experiment in miniature: a clean-trained model
    /// should underperform a noisy-trained model on noisy tweets.
    #[test]
    fn clean_training_is_handicapped_on_noisy_tweets() {
        let kb = KnowledgeBase::build(71, 60);
        let clean_spec = DatasetSpec {
            noise: NoiseProfile::clean(),
            ..DatasetSpec::streaming("clean", 500, vec![Topic::Health], 81)
        };
        let noisy_spec = DatasetSpec::streaming("noisy", 500, vec![Topic::Health], 82);
        let clean = Dataset::generate(&clean_spec, &kb);
        let noisy = Dataset::generate(&noisy_spec, &kb);
        let test =
            Dataset::generate(&DatasetSpec::streaming("test", 150, vec![Topic::Health], 83), &kb);
        let enc_cfg = EncoderConfig {
            embed_dim: 16,
            hidden_dim: 24,
            out_dim: 16,
            seed: 3,
            ..EncoderConfig::default()
        };
        let tc = TrainConfig { epochs: 4, ..Default::default() };
        let bert = BertNer::train(&clean, enc_cfg, &tc);
        let mut tweet_model = TokenEncoder::new(enc_cfg);
        train_encoder(&mut tweet_model, &noisy, &tc);

        let bert_tp = spans_found(&bert, &test);
        let tweet_tp = spans_found(&tweet_model, &test);
        assert!(
            bert_tp < tweet_tp,
            "domain shift not reproduced: clean {bert_tp} vs noisy {tweet_tp}"
        );
        assert!(bert_tp > 0, "clean model should still find something");
    }
}
