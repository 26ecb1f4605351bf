//! Akbik et al. — pooled contextualized embeddings for NER.
//!
//! The published method keeps a memory of every contextual embedding
//! produced for each unique token, mean-pools that memory, and
//! concatenates the pooled "global" embedding to the local one before
//! the tagging head. We reproduce it on top of the frozen Local NER
//! encoder: the head is retrained on `[local ; pooled]` features, the
//! memory is seeded from the training corpus and extended with the
//! evaluation document before tagging it.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ngl_corpus::Dataset;
use ngl_encoder::{SequenceTagger, TokenEncoder};
use ngl_nn::{Matrix, Mlp, MlpConfig};
use ngl_text::{encode_bio, BioTag};

use crate::DocumentTagger;

/// Hyperparameters for the retrained head.
#[derive(Debug, Clone, Copy)]
pub struct AkbikConfig {
    /// Hidden width of the tagging head.
    pub hidden: usize,
    /// Head training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for AkbikConfig {
    fn default() -> Self {
        Self { hidden: 48, epochs: 8, seed: 29 }
    }
}

type Memory = HashMap<String, (Vec<f32>, usize)>;

/// The pooled-embedding tagger.
pub struct AkbikTagger {
    encoder: TokenEncoder,
    head: Mlp,
    memory: Mutex<Memory>,
}

fn fold(token: &str) -> String {
    token.strip_prefix('#').unwrap_or(token).to_lowercase()
}

fn pooled_of(memory: &Memory, token: &str, dim: usize) -> Vec<f32> {
    match memory.get(&fold(token)) {
        Some((sum, n)) => sum.iter().map(|v| v / *n as f32).collect(),
        None => vec![0.0; dim],
    }
}

fn remember(memory: &mut Memory, token: &str, emb: &[f32]) {
    let e = memory.entry(fold(token)).or_insert_with(|| (vec![0.0; emb.len()], 0));
    for (s, &v) in e.0.iter_mut().zip(emb) {
        *s += v;
    }
    e.1 += 1;
}

impl AkbikTagger {
    /// Trains the pooled-feature head on an annotated corpus, building
    /// the token memory along the way.
    pub fn train(encoder: TokenEncoder, train: &Dataset, cfg: AkbikConfig) -> Self {
        let d = encoder.out_dim();
        let mut memory: Memory = HashMap::new();

        // Pass 1: fill the memory from the training corpus.
        let mut encodings = Vec::with_capacity(train.tweets.len());
        for tweet in &train.tweets {
            let enc = encoder.encode_sentence(&tweet.tokens);
            for (i, tok) in tweet.tokens.iter().enumerate() {
                remember(&mut memory, tok, enc.embeddings.row(i));
            }
            encodings.push(enc.embeddings);
        }

        // Pass 2: build [local ; pooled] features and BIO targets.
        let mut rows: Vec<f32> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        for (tweet, emb) in train.tweets.iter().zip(&encodings) {
            if tweet.tokens.is_empty() {
                continue;
            }
            let tags = encode_bio(tweet.tokens.len(), &tweet.gold_spans());
            for (i, tok) in tweet.tokens.iter().enumerate() {
                rows.extend_from_slice(emb.row(i));
                rows.extend(pooled_of(&memory, tok, d));
                targets.push(tags[i].index());
            }
        }
        let x = Matrix::from_vec(targets.len(), 2 * d, rows);
        let mut head = Mlp::new(MlpConfig {
            layer_sizes: vec![2 * d, cfg.hidden, BioTag::COUNT],
            lr: 2e-3,
            batch_size: 256,
            max_epochs: cfg.epochs,
            patience: 3,
            seed: cfg.seed,
            ..MlpConfig::default()
        });
        head.fit(&x, &targets);

        Self { encoder, head, memory: Mutex::new(memory) }
    }

    /// Locks the memory ignoring poison, as the runtime's pool does: a
    /// panic mid-sentence at worst leaves that sentence partly
    /// remembered, which only shifts pooled means.
    fn memory(&self) -> MutexGuard<'_, Memory> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tag_with_memory(&self, tokens: &[String], memory: &Memory) -> Vec<BioTag> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let d = self.encoder.out_dim();
        let enc = self.encoder.encode_sentence(tokens);
        let mut rows: Vec<f32> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            rows.extend_from_slice(enc.embeddings.row(i));
            rows.extend(pooled_of(memory, tok, d));
        }
        let x = Matrix::from_vec(tokens.len(), 2 * d, rows);
        self.head.predict(&x).into_iter().map(BioTag::from_index).collect()
    }
}

impl SequenceTagger for AkbikTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        // Update the dynamic memory with this sentence, then tag.
        let mut memory = self.memory();
        let enc = self.encoder.encode_sentence(tokens);
        for (i, tok) in tokens.iter().enumerate() {
            remember(&mut memory, tok, enc.embeddings.row(i));
        }
        self.tag_with_memory(tokens, &memory)
    }
}

impl DocumentTagger for AkbikTagger {
    fn tag_document(&self, sentences: &[Vec<String>]) -> Vec<Vec<BioTag>> {
        // Pass 1: extend the memory with the whole document, so pooled
        // embeddings reflect every occurrence (best case for Akbik).
        let mut memory = self.memory().clone();
        for s in sentences {
            let enc = self.encoder.encode_sentence(s);
            for (i, tok) in s.iter().enumerate() {
                remember(&mut memory, tok, enc.embeddings.row(i));
            }
        }
        // Pass 2: tag with the document-aware memory.
        sentences.iter().map(|s| self.tag_with_memory(s, &memory)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, Topic};
    use ngl_encoder::{train_encoder, EncoderConfig, TrainConfig};
    use ngl_text::decode_bio;

    fn setup() -> (AkbikTagger, Dataset) {
        let kb = KnowledgeBase::build(91, 50);
        let train =
            Dataset::generate(&DatasetSpec::streaming("t", 400, vec![Topic::Health], 91), &kb);
        let test =
            Dataset::generate(&DatasetSpec::streaming("e", 80, vec![Topic::Health], 92), &kb);
        let mut enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 12,
            hidden_dim: 20,
            out_dim: 12,
            seed: 2,
            ..EncoderConfig::default()
        });
        train_encoder(&mut enc, &train, &TrainConfig { epochs: 3, ..Default::default() });
        let tagger =
            AkbikTagger::train(enc, &train, AkbikConfig { hidden: 24, epochs: 4, seed: 7 });
        (tagger, test)
    }

    #[test]
    fn trained_akbik_finds_entities() {
        let (tagger, test) = setup();
        let sentences: Vec<Vec<String>> = test.tweets.iter().map(|t| t.tokens.clone()).collect();
        let tags = tagger.tag_document(&sentences);
        let mut tp = 0usize;
        for (tweet, tag) in test.tweets.iter().zip(&tags) {
            let pred = decode_bio(tag);
            for g in tweet.gold_spans() {
                if pred.iter().any(|p| p.matches(&g)) {
                    tp += 1;
                }
            }
        }
        assert!(tp > 5, "akbik found only {tp} correct spans");
    }

    #[test]
    fn memory_grows_with_tagging() {
        let (tagger, _) = setup();
        let before = tagger.memory().len();
        let novel: Vec<String> = vec!["zyxwolia".into(), "qblorton".into()];
        let _ = tagger.tag(&novel);
        assert!(tagger.memory().len() >= before + 2);
    }

    #[test]
    fn empty_sentence_is_safe() {
        let (tagger, _) = setup();
        assert!(tagger.tag(&[]).is_empty());
    }
}
