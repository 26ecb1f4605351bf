//! Aguilar et al. (WNUT17 best system) stand-in: a feature-rich
//! linear-chain CRF.
//!
//! The original is a multi-task BiLSTM-CNN-CRF over character, token and
//! lexical features. What matters for the comparison is the model
//! *family*: rich hand-engineered local features plus global
//! label-sequence decoding, without large-scale pre-training. This
//! implementation uses hashed orthographic/lexical features, a
//! structured-perceptron trainer and Viterbi decoding.

use ngl_runtime::rng::SplitMix64;

use ngl_corpus::Dataset;
use ngl_encoder::SequenceTagger;
use ngl_text::shape::shape_string;
use ngl_text::{encode_bio, BioTag};

/// CRF hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AguilarConfig {
    /// Hashed feature buckets.
    pub feature_buckets: usize,
    /// Perceptron epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for AguilarConfig {
    fn default() -> Self {
        Self { feature_buckets: 1 << 17, epochs: 5, seed: 23 }
    }
}

const T: usize = BioTag::COUNT;

/// The linear-chain CRF tagger.
#[derive(Debug, Clone)]
pub struct AguilarTagger {
    cfg: AguilarConfig,
    /// Emission weights, `feature_buckets × T`, flattened.
    emit: Vec<f32>,
    /// Transition weights, `T × T` (from × to).
    trans: Vec<f32>,
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl AguilarTagger {
    /// Untrained tagger (predicts all-O until trained).
    pub fn new(cfg: AguilarConfig) -> Self {
        Self { cfg, emit: vec![0.0; cfg.feature_buckets * T], trans: vec![0.0; T * T] }
    }

    /// Trains on an annotated dataset and returns the trained tagger.
    pub fn train(dataset: &Dataset, cfg: AguilarConfig) -> Self {
        let mut tagger = Self::new(cfg);
        let mut rng = SplitMix64::new(cfg.seed);
        let mut order: Vec<usize> = (0..dataset.tweets.len()).collect();
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let tweet = &dataset.tweets[i];
                if tweet.tokens.is_empty() {
                    continue;
                }
                let gold: Vec<usize> = encode_bio(tweet.tokens.len(), &tweet.gold_spans())
                    .iter()
                    .map(|t| t.index())
                    .collect();
                tagger.perceptron_update(&tweet.tokens, &gold);
            }
        }
        tagger
    }

    /// Hashed feature ids for token `i` of a sentence.
    fn features(&self, tokens: &[String], i: usize) -> Vec<usize> {
        let b = self.cfg.feature_buckets;
        let cur = tokens[i].to_lowercase();
        let prev = if i > 0 { tokens[i - 1].to_lowercase() } else { "<s>".to_string() };
        let shape = shape_string(&tokens[i]);
        let chars: Vec<char> = cur.chars().collect();
        let pre3: String = chars.iter().take(3).collect();
        let suf3: String = chars.iter().rev().take(3).collect();
        // Deliberately local feature set: word identity, orthography and
        // the previous token. The original system sees wider context only
        // through its BiLSTM states — far noisier than explicit n-gram
        // identity features would be — so no next-word/bigram identity
        // features are used here.
        let feats = [
            format!("w={cur}"),
            format!("shape={shape}"),
            format!("pre3={pre3}"),
            format!("suf3={suf3}"),
            format!("prev={prev}"),
            format!("cap={}", tokens[i].chars().next().is_some_and(|c| c.is_uppercase())),
            format!("hash={}", tokens[i].starts_with('#')),
            format!("at={}", tokens[i].starts_with('@')),
        ];
        feats.iter().map(|f| (fnv(f) % b as u64) as usize).collect()
    }

    fn emission_scores(&self, feats: &[usize]) -> [f32; T] {
        let mut s = [0.0f32; T];
        for &f in feats {
            let row = &self.emit[f * T..(f + 1) * T];
            for (o, &w) in s.iter_mut().zip(row) {
                *o += w;
            }
        }
        s
    }

    /// Viterbi decode over emission + transition scores.
    fn viterbi(&self, tokens: &[String]) -> Vec<usize> {
        let n = tokens.len();
        if n == 0 {
            return Vec::new();
        }
        let mut delta = vec![[f32::NEG_INFINITY; T]; n];
        let mut back = vec![[0usize; T]; n];
        let e0 = self.emission_scores(&self.features(tokens, 0));
        delta[0] = e0;
        for i in 1..n {
            let e = self.emission_scores(&self.features(tokens, i));
            for to in 0..T {
                let mut best = (0usize, f32::NEG_INFINITY);
                for from in 0..T {
                    let s = delta[i - 1][from] + self.trans[from * T + to];
                    if s > best.1 {
                        best = (from, s);
                    }
                }
                delta[i][to] = best.1 + e[to];
                back[i][to] = best.0;
            }
        }
        let mut last = (0usize, f32::NEG_INFINITY);
        for t in 0..T {
            if delta[n - 1][t] > last.1 {
                last = (t, delta[n - 1][t]);
            }
        }
        let mut path = vec![0usize; n];
        path[n - 1] = last.0;
        for i in (1..n).rev() {
            path[i - 1] = back[i][path[i]];
        }
        path
    }

    /// Structured-perceptron update toward the gold path.
    fn perceptron_update(&mut self, tokens: &[String], gold: &[usize]) {
        let pred = self.viterbi(tokens);
        if pred == gold {
            return;
        }
        for i in 0..tokens.len() {
            if pred[i] != gold[i] {
                for &f in &self.features(tokens, i) {
                    self.emit[f * T + gold[i]] += 1.0;
                    self.emit[f * T + pred[i]] -= 1.0;
                }
            }
            if i > 0 && (pred[i] != gold[i] || pred[i - 1] != gold[i - 1]) {
                self.trans[gold[i - 1] * T + gold[i]] += 1.0;
                self.trans[pred[i - 1] * T + pred[i]] -= 1.0;
            }
        }
    }
}

impl SequenceTagger for AguilarTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        self.viterbi(tokens).into_iter().map(BioTag::from_index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, Topic};
    use ngl_text::decode_bio;

    fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    #[test]
    fn untrained_tagger_predicts_something_valid() {
        let t =
            AguilarTagger::new(AguilarConfig { feature_buckets: 1 << 10, ..Default::default() });
        let tags = t.tag(&toks("stay home"));
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn empty_sentence_is_safe() {
        let t = AguilarTagger::new(AguilarConfig::default());
        assert!(t.tag(&[]).is_empty());
    }

    #[test]
    fn crf_learns_a_small_stream() {
        let kb = KnowledgeBase::build(51, 40);
        let train =
            Dataset::generate(&DatasetSpec::streaming("t", 400, vec![Topic::Health], 61), &kb);
        let test =
            Dataset::generate(&DatasetSpec::streaming("e", 100, vec![Topic::Health], 62), &kb);
        let tagger = AguilarTagger::train(
            &train,
            AguilarConfig { feature_buckets: 1 << 15, epochs: 4, seed: 1 },
        );
        let mut tp = 0usize;
        let mut gold_n = 0usize;
        for tweet in &test.tweets {
            let pred = decode_bio(&tagger.tag(&tweet.tokens));
            for g in tweet.gold_spans() {
                gold_n += 1;
                if pred.iter().any(|p| p.matches(&g)) {
                    tp += 1;
                }
            }
        }
        let recall = tp as f64 / gold_n.max(1) as f64;
        assert!(recall > 0.2, "CRF learned nothing: recall {recall}");
        assert!(recall < 0.99, "CRF unrealistically perfect");
    }

    #[test]
    fn training_is_deterministic() {
        let kb = KnowledgeBase::build(52, 30);
        let train =
            Dataset::generate(&DatasetSpec::streaming("t", 120, vec![Topic::Sports], 63), &kb);
        let cfg = AguilarConfig { feature_buckets: 1 << 14, epochs: 2, seed: 5 };
        let a = AguilarTagger::train(&train, cfg);
        let b = AguilarTagger::train(&train, cfg);
        let s = toks("what a match from Zara tonight");
        assert_eq!(a.tag(&s), b.tag(&s));
    }
}
