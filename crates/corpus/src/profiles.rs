//! The dataset profiles of Table I plus the training corpora.
//!
//! Three knowledge bases with disjoint procedural entities keep the
//! evaluation honest:
//!
//! * the **train KB** backs the WNUT17-style training split the Local
//!   NER encoder is fine-tuned on (entities unseen at eval time, exactly
//!   like fine-tuning BERTweet on WNUT17 and then streaming Covid
//!   tweets);
//! * the **eval KB** backs D1–D4 and the WNUT17/BTC-like test sets;
//! * the **D5 KB** backs the D5 stream used to train the Phrase Embedder
//!   and Entity Classifier (§VI), so the Global NER components never see
//!   eval entities during training either.
//!
//! The anchor entities (trump, italy, coronavirus, …) are shared across
//! KBs, mirroring how famous entities occur in any real corpus.

use crate::dataset::{Dataset, DatasetSpec};
use crate::kb::{KnowledgeBase, Topic};
use crate::namegen::Universe;
use crate::noise::NoiseProfile;

/// Seed offsets so every profile is independent yet reproducible from
/// one master seed.
const TRAIN_KB_SALT: u64 = 0x0001;
const EVAL_KB_SALT: u64 = 0x0002;
const D5_KB_SALT: u64 = 0x0003;

/// D1: 1K tweets, one topic, one hashtag (Table I).
pub fn d1(seed: u64) -> DatasetSpec {
    DatasetSpec {
        pool_per_topic: 180,
        ..DatasetSpec::streaming("D1", 1_000, vec![Topic::Politics], seed ^ 0x11)
    }
}

/// D2: 2K tweets from the Covid stream — the §I case-study dataset.
pub fn d2(seed: u64) -> DatasetSpec {
    DatasetSpec {
        pool_per_topic: 260,
        ..DatasetSpec::streaming("D2", 2_000, vec![Topic::Health], seed ^ 0x22)
    }
}

/// D3: 3K tweets over three topics, six hashtags.
pub fn d3(seed: u64) -> DatasetSpec {
    DatasetSpec {
        hashtags_per_topic: 2,
        pool_per_topic: 150,
        ..DatasetSpec::streaming(
            "D3",
            3_000,
            vec![Topic::Politics, Topic::Sports, Topic::Science],
            seed ^ 0x33,
        )
    }
}

/// D4: 6K tweets over five topics, five hashtags.
pub fn d4(seed: u64) -> DatasetSpec {
    DatasetSpec {
        pool_per_topic: 80,
        ..DatasetSpec::streaming("D4", 6_000, Topic::ALL.to_vec(), seed ^ 0x44)
    }
}

/// D5: the 3430-tweet stream that trains the Phrase Embedder and Entity
/// Classifier (§VI).
///
/// Deviation from Table I (which lists D5 as single-topic): our D5
/// covers all five topics. The paper's BERTweet embeddings carry
/// topic-universal type semantics from 850M pre-training tweets, so a
/// single-topic D5 suffices there; the from-scratch encoder used here
/// has no such pre-training, and a single-topic D5 would leave the
/// Entity Classifier unable to recognize type contexts of unseen topics.
/// Multi-topic D5 restores the property the paper gets from pre-training.
pub fn d5(seed: u64) -> DatasetSpec {
    DatasetSpec {
        pool_per_topic: 70,
        ..DatasetSpec::streaming("D5", 3_430, Topic::ALL.to_vec(), seed ^ 0x55)
    }
}

/// WNUT17-like: 1287 random-sampled tweets, little entity recurrence.
pub fn wnut17_like(seed: u64) -> DatasetSpec {
    DatasetSpec::non_streaming("WNUT17", 1_287, seed ^ 0x66)
}

/// BTC-like: 9553 random-sampled tweets.
pub fn btc_like(seed: u64) -> DatasetSpec {
    DatasetSpec::non_streaming("BTC", 9_553, seed ^ 0x77)
}

/// The WNUT17-style *training* split the Local NER encoder is fine-tuned
/// on (the paper fine-tunes BERTweet on the WNUT17 training set).
pub fn local_train(seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: "local-train".to_string(),
        // A little larger than WNUT17's train split; enough for the
        // from-scratch encoder to learn the context cues.
        n_tweets: 3_400,
        ..DatasetSpec::non_streaming("local-train", 3_400, seed ^ 0x88)
    }
}

/// A clean, well-edited generic corpus for the BERT-NER baseline, which
/// in the paper is pre-trained on newswire-style text and therefore
/// suffers domain shift on noisy tweets.
pub fn generic_train(seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: "generic-train".to_string(),
        n_tweets: 3_400,
        noise: NoiseProfile::clean(),
        p_weak: 0.15,
        ..DatasetSpec::non_streaming("generic-train", 3_400, seed ^ 0x99)
    }
}

/// All Table I evaluation profiles in paper order.
pub fn all_eval_profiles(seed: u64) -> Vec<DatasetSpec> {
    vec![d1(seed), d2(seed), d3(seed), d4(seed), wnut17_like(seed), btc_like(seed)]
}

/// The complete generated data universe for one master seed.
pub struct StandardDatasets {
    /// KB behind the training split.
    pub train_kb: KnowledgeBase,
    /// KB behind the evaluation datasets.
    pub eval_kb: KnowledgeBase,
    /// KB behind D5.
    pub d5_kb: KnowledgeBase,
    /// Local NER training corpus (WNUT17-train analogue).
    pub local_train: Dataset,
    /// Clean generic corpus for the BERT-NER baseline.
    pub generic_train: Dataset,
    /// D5 — Global NER training stream.
    pub d5: Dataset,
    /// The six evaluation datasets: D1–D4, WNUT17, BTC.
    pub eval: Vec<Dataset>,
}

impl StandardDatasets {
    /// Generates everything from one master seed.
    pub fn generate(seed: u64) -> Self {
        let train_kb = KnowledgeBase::build_in(seed ^ TRAIN_KB_SALT, 400, Universe::Train);
        let eval_kb = KnowledgeBase::build_in(seed ^ EVAL_KB_SALT, 400, Universe::Eval);
        let d5_kb = KnowledgeBase::build_in(seed ^ D5_KB_SALT, 200, Universe::Eval);
        let local_train = Dataset::generate(&local_train(seed), &train_kb);
        let generic_train = Dataset::generate(&generic_train(seed), &train_kb);
        let d5 = Dataset::generate(&d5(seed), &d5_kb);
        let eval =
            all_eval_profiles(seed).iter().map(|spec| Dataset::generate(spec, &eval_kb)).collect();
        Self { train_kb, eval_kb, d5_kb, local_train, generic_train, d5, eval }
    }

    /// The streaming subset of the eval datasets (D1–D4).
    pub fn streaming_eval(&self) -> &[Dataset] {
        &self.eval[..4]
    }

    /// The non-streaming subset (WNUT17, BTC).
    pub fn non_streaming_eval(&self) -> &[Dataset] {
        &self.eval[4..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_match_the_paper() {
        let seed = 1234;
        for (spec, expect) in all_eval_profiles(seed).iter().zip([
            ("D1", 1_000),
            ("D2", 2_000),
            ("D3", 3_000),
            ("D4", 6_000),
            ("WNUT17", 1_287),
            ("BTC", 9_553),
        ]) {
            assert_eq!(spec.name, expect.0);
            assert_eq!(spec.n_tweets, expect.1);
        }
        assert_eq!(d5(seed).n_tweets, 3_430);
    }

    #[test]
    fn topic_counts_match_table1() {
        let seed = 9;
        assert_eq!(d1(seed).topics.len(), 1);
        assert_eq!(d2(seed).topics.len(), 1);
        assert_eq!(d3(seed).topics.len(), 3);
        assert_eq!(d4(seed).topics.len(), 5);
        // Hashtags: D3 has 6 (3 topics × 2), D4 has 5 (5 topics × 1).
        assert_eq!(d3(seed).topics.len() * d3(seed).hashtags_per_topic, 6);
        assert_eq!(d4(seed).topics.len() * d4(seed).hashtags_per_topic, 5);
    }

    // The full-universe generation is exercised in the integration tests
    // and the reproduce harness; here a smaller smoke check keeps the
    // unit suite fast.
    #[test]
    fn standard_datasets_smoke() {
        let mut spec = d1(5);
        spec.n_tweets = 120;
        let kb = KnowledgeBase::build(5 ^ EVAL_KB_SALT, 120);
        let d = Dataset::generate(&spec, &kb);
        assert_eq!(d.tweets.len(), 120);
        let s = d.stats();
        assert!(s.unique_entities > 10);
    }
}
