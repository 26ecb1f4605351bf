//! HIRE-NER-style hierarchical contextualized representation.
//!
//! HIRE-NER distills document-level information for each unique token
//! from the entire scope of the document into a memory, fuses it with
//! the sentence-level representation, and decodes labels from the fused
//! representation. Our reproduction: a per-document token memory (mean
//! contextual embedding of each unique folded token across the
//! document) and a learned fusion — the retrained head consumes
//! `[local ; doc ; local ⊙ doc]`, letting it learn how much document
//! context to trust per dimension.

use std::collections::HashMap;

use ngl_corpus::Dataset;
use ngl_encoder::{SequenceTagger, TokenEncoder};
use ngl_nn::{Matrix, Mlp, MlpConfig};
use ngl_text::{encode_bio, BioTag};

use crate::DocumentTagger;

/// Head hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct HireConfig {
    /// Hidden width of the tagging head.
    pub hidden: usize,
    /// Head training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for HireConfig {
    fn default() -> Self {
        Self { hidden: 48, epochs: 8, seed: 37 }
    }
}

type DocMemory = HashMap<String, (Vec<f32>, usize)>;

/// The document-memory tagger.
pub struct HireNer {
    encoder: TokenEncoder,
    head: Mlp,
}

fn fold(token: &str) -> String {
    token.strip_prefix('#').unwrap_or(token).to_lowercase()
}

fn build_doc_memory(encoder: &TokenEncoder, sentences: &[Vec<String>]) -> (DocMemory, Vec<Matrix>) {
    let mut mem: DocMemory = HashMap::new();
    let mut encs = Vec::with_capacity(sentences.len());
    for s in sentences {
        let enc = encoder.encode_sentence(s);
        for (i, tok) in s.iter().enumerate() {
            let e = mem.entry(fold(tok)).or_insert_with(|| (vec![0.0; enc.embeddings.cols()], 0));
            for (a, &v) in e.0.iter_mut().zip(enc.embeddings.row(i)) {
                *a += v;
            }
            e.1 += 1;
        }
        encs.push(enc.embeddings);
    }
    (mem, encs)
}

fn fused_features(local: &[f32], mem: &DocMemory, token: &str) -> Vec<f32> {
    let d = local.len();
    let doc: Vec<f32> = match mem.get(&fold(token)) {
        Some((sum, n)) => sum.iter().map(|v| v / *n as f32).collect(),
        None => vec![0.0; d],
    };
    let mut out = Vec::with_capacity(3 * d);
    out.extend_from_slice(local);
    out.extend_from_slice(&doc);
    out.extend(local.iter().zip(&doc).map(|(a, b)| a * b));
    out
}

impl HireNer {
    /// Trains the fused-feature head. The training corpus is treated as
    /// one document, mirroring how the system is applied to a stream.
    pub fn train(encoder: TokenEncoder, train: &Dataset, cfg: HireConfig) -> Self {
        let d = encoder.out_dim();
        let sentences: Vec<Vec<String>> = train.tweets.iter().map(|t| t.tokens.clone()).collect();
        let (mem, encs) = build_doc_memory(&encoder, &sentences);
        let mut rows: Vec<f32> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        for (tweet, emb) in train.tweets.iter().zip(&encs) {
            if tweet.tokens.is_empty() {
                continue;
            }
            let tags = encode_bio(tweet.tokens.len(), &tweet.gold_spans());
            for (i, tok) in tweet.tokens.iter().enumerate() {
                rows.extend(fused_features(emb.row(i), &mem, tok));
                targets.push(tags[i].index());
            }
        }
        let x = Matrix::from_vec(targets.len(), 3 * d, rows);
        let mut head = Mlp::new(MlpConfig {
            layer_sizes: vec![3 * d, cfg.hidden, BioTag::COUNT],
            lr: 2e-3,
            batch_size: 256,
            max_epochs: cfg.epochs,
            patience: 3,
            seed: cfg.seed,
            ..MlpConfig::default()
        });
        head.fit(&x, &targets);
        Self { encoder, head }
    }
}

impl SequenceTagger for HireNer {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        // A single sentence is its own (tiny) document.
        self.tag_document(std::slice::from_ref(&tokens.to_vec())).pop().unwrap_or_default()
    }
}

impl DocumentTagger for HireNer {
    fn tag_document(&self, sentences: &[Vec<String>]) -> Vec<Vec<BioTag>> {
        let (mem, encs) = build_doc_memory(&self.encoder, sentences);
        sentences
            .iter()
            .zip(&encs)
            .map(|(s, emb)| {
                if s.is_empty() {
                    return Vec::new();
                }
                let mut rows: Vec<f32> = Vec::new();
                for (i, tok) in s.iter().enumerate() {
                    rows.extend(fused_features(emb.row(i), &mem, tok));
                }
                let x = Matrix::from_vec(s.len(), 3 * self.encoder.out_dim(), rows);
                self.head.predict(&x).into_iter().map(BioTag::from_index).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, Topic};
    use ngl_encoder::{train_encoder, EncoderConfig, TrainConfig};
    use ngl_text::decode_bio;

    #[test]
    fn hire_learns_and_uses_document_context() {
        let kb = KnowledgeBase::build(101, 50);
        let train =
            Dataset::generate(&DatasetSpec::streaming("t", 400, vec![Topic::Politics], 71), &kb);
        let test =
            Dataset::generate(&DatasetSpec::streaming("e", 80, vec![Topic::Politics], 72), &kb);
        let mut enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 12,
            hidden_dim: 20,
            out_dim: 12,
            seed: 4,
            ..EncoderConfig::default()
        });
        train_encoder(&mut enc, &train, &TrainConfig { epochs: 3, ..Default::default() });
        let hire = HireNer::train(enc, &train, HireConfig { hidden: 24, epochs: 4, seed: 9 });
        let sentences: Vec<Vec<String>> = test.tweets.iter().map(|t| t.tokens.clone()).collect();
        let tags = hire.tag_document(&sentences);
        assert_eq!(tags.len(), sentences.len());
        let mut tp = 0usize;
        for (tweet, tag) in test.tweets.iter().zip(&tags) {
            let pred = decode_bio(tag);
            for g in tweet.gold_spans() {
                if pred.iter().any(|p| p.matches(&g)) {
                    tp += 1;
                }
            }
        }
        assert!(tp > 5, "hire found only {tp} correct spans");
    }

    #[test]
    fn sentence_interface_matches_singleton_document() {
        let kb = KnowledgeBase::build(102, 30);
        let train =
            Dataset::generate(&DatasetSpec::streaming("t", 150, vec![Topic::Science], 73), &kb);
        let enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 8,
            hidden_dim: 12,
            out_dim: 8,
            seed: 5,
            ..EncoderConfig::default()
        });
        let hire = HireNer::train(enc, &train, HireConfig { hidden: 16, epochs: 2, seed: 3 });
        let s: Vec<String> = vec!["Apex".into(), "Labs".into(), "launched".into()];
        let a = hire.tag(&s);
        let b = hire.tag_document(&[s])[0].clone();
        assert_eq!(a, b);
    }
}
