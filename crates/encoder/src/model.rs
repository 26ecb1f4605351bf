//! The contextual token encoder and its BIO head.

use ngl_runtime::rng::SplitMix64;

use ngl_nn::layers::{Dense, Init, Relu};
use ngl_nn::loss::softmax_in_place;
use ngl_nn::Matrix;
use ngl_text::shape::{WordShape, SHAPE_DIM};
use ngl_text::{BioTag, TokenKind};

use crate::features::{FeatureConfig, Featurizer};

/// Encoder hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Hash space sizes.
    pub features: FeatureConfig,
    /// Base (word/subword) embedding dimension.
    pub embed_dim: usize,
    /// Trunk hidden width.
    pub hidden_dim: usize,
    /// Contextual ("entity-aware") embedding dimension — the `d` every
    /// downstream Globalizer component works in.
    pub out_dim: usize,
    /// Context half-window: token i sees tokens `i−window ..= i+window`.
    /// Small by design; the locality is the paper's whole point.
    pub window: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            features: FeatureConfig::default(),
            embed_dim: 24,
            hidden_dim: 48,
            out_dim: 32,
            window: 2,
            seed: 0,
        }
    }
}

/// Output of encoding one sentence.
#[derive(Debug, Clone)]
pub struct SentenceEncoding {
    /// `n × out_dim` contextual token embeddings (penultimate layer —
    /// the "entity-aware token embeddings" of §III step 2).
    pub embeddings: Matrix,
    /// Predicted BIO tag per token.
    pub tags: Vec<BioTag>,
    /// `n × (2L+1)` tag probabilities.
    pub probs: Matrix,
}

/// Hashed table rows a sentence's base embeddings read: per token, its
/// word row and its trigram rows in window order.
#[derive(Default)]
pub(crate) struct BucketRows {
    pub(crate) word: Vec<usize>,
    pub(crate) sub: Vec<Vec<usize>>,
}

/// Per-sentence forward cache used by the trainer.
pub(crate) struct ForwardCache {
    pub(crate) rows: BucketRows,
    pub(crate) ctx: Matrix,
    pub(crate) pre1: Matrix,
    pub(crate) h: Matrix,
    pub(crate) emb: Matrix,
    pub(crate) logits: Matrix,
}

/// The trainable Local NER model.
#[derive(Debug, Clone)]
pub struct TokenEncoder {
    cfg: EncoderConfig,
    word_table: Matrix,
    sub_table: Matrix,
    pub(crate) l1: Dense,
    pub(crate) l2: Dense,
    pub(crate) head: Dense,
    /// Log-probabilities of BIO tag transitions estimated from the
    /// training corpus (`(2L+1)² `, row = from, col = to). A per-token
    /// argmax head fragments multi-token mentions into adjacent `B-B`
    /// spans; Viterbi decoding over these transitions restores the
    /// sequence-level consistency that end-to-end fine-tuned taggers
    /// learn implicitly. `None` until trained.
    pub(crate) log_trans: Option<Vec<f32>>,
}

impl TokenEncoder {
    /// Fresh encoder with seeded initialization.
    pub fn new(cfg: EncoderConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let scale = 0.08f32;
        let table = |rows: usize, cols: usize, rng: &mut SplitMix64| {
            let data = (0..rows * cols).map(|_| rng.gen_range(-scale..scale)).collect();
            Matrix::from_vec(rows, cols, data)
        };
        let word_table = table(cfg.features.word_buckets, cfg.embed_dim, &mut rng);
        let sub_table = table(cfg.features.sub_buckets, cfg.embed_dim, &mut rng);
        let ctx_dim = 3 * cfg.embed_dim + SHAPE_DIM;
        let l1 = Dense::new(&mut rng, ctx_dim, cfg.hidden_dim, Init::He);
        let l2 = Dense::new(&mut rng, cfg.hidden_dim, cfg.out_dim, Init::Xavier);
        let head = Dense::new(&mut rng, cfg.out_dim, BioTag::COUNT, Init::Xavier);
        Self { cfg, word_table, sub_table, l1, l2, head, log_trans: None }
    }

    /// Installs the BIO transition model (log-probabilities, row-major
    /// `(2L+1)²`). The trainer estimates these from gold tag bigrams.
    pub fn set_transitions(&mut self, log_trans: Vec<f32>) {
        assert_eq!(log_trans.len(), BioTag::COUNT * BioTag::COUNT, "transition shape");
        self.log_trans = Some(log_trans);
    }

    /// The configuration the encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Contextual embedding dimension.
    pub fn out_dim(&self) -> usize {
        self.cfg.out_dim
    }

    /// Total scalar parameter count (tables + trunk + head).
    pub fn param_count(&self) -> usize {
        self.word_table.rows() * self.word_table.cols()
            + self.sub_table.rows() * self.sub_table.cols()
            + self.l1.param_count()
            + self.l2.param_count()
            + self.head.param_count()
    }

    /// The `n × (3·embed_dim + SHAPE_DIM)` context matrix of a sentence:
    /// per token, the mean base embedding of its left window, its own,
    /// the mean of its right window, and its shape features. A base
    /// embedding is the token's word row plus the mean of its trigram
    /// rows. When `rows` is given (training), the table rows read are
    /// recorded into it for the sparse update.
    fn context(&self, tokens: &[String], mut rows: Option<&mut BucketRows>) -> Matrix {
        let n = tokens.len();
        let d = self.cfg.embed_dim;
        let w = self.cfg.window;

        let mut feats = Featurizer::new(self.cfg.features);
        let mut base = Matrix::zeros(n, d);
        for (i, token) in tokens.iter().enumerate() {
            let word = feats.load(token);
            let v = base.row_mut(i);
            v.copy_from_slice(self.word_table.row(word));
            let k = feats.trigrams().len() as f32;
            for r in feats.trigrams() {
                for (o, &x) in v.iter_mut().zip(self.sub_table.row(r)) {
                    *o += x / k;
                }
            }
            if let Some(rows) = rows.as_deref_mut() {
                rows.word.push(word);
                rows.sub.push(feats.trigrams().collect());
            }
        }

        let ctx_dim = 3 * d + SHAPE_DIM;
        let mut ctx = Matrix::zeros(n, ctx_dim);
        for i in 0..n {
            let row = ctx.row_mut(i);
            // Left-window mean.
            let lo = i.saturating_sub(w);
            if lo < i {
                let cnt = (i - lo) as f32;
                for j in lo..i {
                    for c in 0..d {
                        row[c] += base.get(j, c) / cnt;
                    }
                }
            }
            // Self.
            row[d..2 * d].copy_from_slice(base.row(i));
            // Right-window mean.
            let hi = (i + 1 + w).min(n);
            if i + 1 < hi {
                let cnt = (hi - i - 1) as f32;
                for j in i + 1..hi {
                    for c in 0..d {
                        row[2 * d + c] += base.get(j, c) / cnt;
                    }
                }
            }
            // Shape features.
            let text = tokens[i].as_str();
            row[3 * d..].copy_from_slice(&WordShape::of_text(text, shape_kind(text)).to_features());
        }
        ctx
    }

    /// Full forward pass over a sentence, caching everything the
    /// backward pass needs.
    pub(crate) fn forward(&self, tokens: &[String]) -> ForwardCache {
        let mut rows = BucketRows::default();
        let ctx = self.context(tokens, Some(&mut rows));
        let pre1 = self.l1.forward(&ctx);
        let h = Relu.forward(&pre1);
        let emb = self.l2.forward(&h);
        let logits = self.head.forward(&emb);
        ForwardCache { rows, ctx, pre1, h, emb, logits }
    }

    /// Encodes a sentence: contextual embeddings + BIO predictions. The
    /// same layers as [`Self::forward`], with ReLU and softmax applied
    /// in place and nothing kept for a backward pass.
    pub fn encode_sentence(&self, tokens: &[String]) -> SentenceEncoding {
        if tokens.is_empty() {
            return SentenceEncoding {
                embeddings: Matrix::zeros(0, self.cfg.out_dim),
                tags: Vec::new(),
                probs: Matrix::zeros(0, BioTag::COUNT),
            };
        }
        let mut h = self.l1.forward(&self.context(tokens, None));
        for v in h.as_mut_slice() {
            *v = v.max(0.0);
        }
        let embeddings = self.l2.forward(&h);
        let mut probs = self.head.forward(&embeddings);
        for r in 0..probs.rows() {
            softmax_in_place(probs.row_mut(r));
        }
        let tags = match &self.log_trans {
            Some(trans) => viterbi_decode(&probs, trans),
            None => (0..tokens.len())
                .map(|r| {
                    let row = probs.row(r);
                    let best = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite prob"))
                        .map(|(i, _)| i)
                        .expect("non-empty row");
                    BioTag::from_index(best)
                })
                .collect(),
        };
        SentenceEncoding { embeddings, tags, probs }
    }

    /// Mutable access to the embedding tables for the trainer.
    pub(crate) fn tables_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.word_table, &mut self.sub_table)
    }

    /// Embedding dimension shortcut used by the trainer.
    pub(crate) fn embed_dim(&self) -> usize {
        self.cfg.embed_dim
    }

    /// Context half-window shortcut used by the trainer.
    pub(crate) fn window(&self) -> usize {
        self.cfg.window
    }
}

impl TokenEncoder {
    /// Serializes the trained encoder (config, embedding tables, trunk,
    /// head, transition model) into a compact binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        use ngl_nn::codec::{put_dense, put_f32_slice, put_matrix, put_u64};
        let mut buf = Vec::new();
        put_u64(&mut buf, self.cfg.features.word_buckets as u64);
        put_u64(&mut buf, self.cfg.features.sub_buckets as u64);
        put_u64(&mut buf, self.cfg.embed_dim as u64);
        put_u64(&mut buf, self.cfg.hidden_dim as u64);
        put_u64(&mut buf, self.cfg.out_dim as u64);
        put_u64(&mut buf, self.cfg.window as u64);
        put_u64(&mut buf, self.cfg.seed);
        put_matrix(&mut buf, &self.word_table);
        put_matrix(&mut buf, &self.sub_table);
        put_dense(&mut buf, &self.l1);
        put_dense(&mut buf, &self.l2);
        put_dense(&mut buf, &self.head);
        match &self.log_trans {
            Some(t) => {
                put_u64(&mut buf, 1);
                put_f32_slice(&mut buf, t);
            }
            None => put_u64(&mut buf, 0),
        }
        buf
    }

    /// Deserializes an encoder previously written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &mut &[u8]) -> Result<Self, ngl_nn::CodecError> {
        use ngl_nn::codec::{get_dense, get_f32_vec, get_matrix, get_u64, CodecError};
        let cfg = EncoderConfig {
            features: FeatureConfig {
                word_buckets: get_u64(bytes)? as usize,
                sub_buckets: get_u64(bytes)? as usize,
            },
            embed_dim: get_u64(bytes)? as usize,
            hidden_dim: get_u64(bytes)? as usize,
            out_dim: get_u64(bytes)? as usize,
            window: get_u64(bytes)? as usize,
            seed: get_u64(bytes)?,
        };
        let word_table = get_matrix(bytes)?;
        let sub_table = get_matrix(bytes)?;
        let l1 = get_dense(bytes)?;
        let l2 = get_dense(bytes)?;
        let head = get_dense(bytes)?;
        if word_table.rows() != cfg.features.word_buckets
            || word_table.cols() != cfg.embed_dim
            || sub_table.rows() != cfg.features.sub_buckets
            || head.out_dim() != BioTag::COUNT
        {
            return Err(CodecError::Invalid("encoder shapes"));
        }
        let log_trans = match get_u64(bytes)? {
            0 => None,
            1 => {
                let t = get_f32_vec(bytes)?;
                if t.len() != BioTag::COUNT * BioTag::COUNT {
                    return Err(CodecError::Invalid("transition shape"));
                }
                Some(t)
            }
            _ => return Err(CodecError::Invalid("transition tag")),
        };
        Ok(Self { cfg, word_table, sub_table, l1, l2, head, log_trans })
    }
}

/// Viterbi decode over per-token tag probabilities plus a transition
/// log-probability matrix.
fn viterbi_decode(probs: &Matrix, log_trans: &[f32]) -> Vec<BioTag> {
    let n = probs.rows();
    let t = BioTag::COUNT;
    if n == 0 {
        return Vec::new();
    }
    let logp = |r: usize, c: usize| probs.get(r, c).max(1e-9).ln();
    let mut delta = vec![[f32::NEG_INFINITY; BioTag::COUNT]; n];
    let mut back = vec![[0usize; BioTag::COUNT]; n];
    for c in 0..t {
        delta[0][c] = logp(0, c);
    }
    for i in 1..n {
        for to in 0..t {
            let mut best = (0usize, f32::NEG_INFINITY);
            for from in 0..t {
                let s = delta[i - 1][from] + log_trans[from * t + to];
                if s > best.1 {
                    best = (from, s);
                }
            }
            delta[i][to] = best.1 + logp(i, to);
            back[i][to] = best.0;
        }
    }
    let mut last = (0usize, f32::NEG_INFINITY);
    for c in 0..t {
        if delta[n - 1][c] > last.1 {
            last = (c, delta[n - 1][c]);
        }
    }
    let mut path = vec![0usize; n];
    path[n - 1] = last.0;
    for i in (1..n).rev() {
        path[i - 1] = back[i][path[i]];
    }
    path.into_iter().map(BioTag::from_index).collect()
}

/// The token kind the shape features see, read off the bare token text
/// (the encoder gets strings, not tokenizer output).
fn shape_kind(text: &str) -> TokenKind {
    if text.starts_with('#') && text.len() > 1 {
        TokenKind::Hashtag
    } else if text.starts_with('@') && text.len() > 1 {
        TokenKind::Mention
    } else if text.starts_with("http") || text.starts_with("www.") {
        TokenKind::Url
    } else if text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        TokenKind::Number
    } else if text.chars().any(|c| c.is_alphanumeric()) {
        TokenKind::Word
    } else {
        TokenKind::Punct
    }
}

impl crate::SequenceTagger for TokenEncoder {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        self.encode_sentence(tokens).tags
    }
}

impl crate::ContextualTagger for TokenEncoder {
    fn dim(&self) -> usize {
        self.cfg.out_dim
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        self.encode_sentence(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EncoderConfig {
        EncoderConfig {
            features: FeatureConfig { word_buckets: 512, sub_buckets: 512 },
            embed_dim: 8,
            hidden_dim: 16,
            out_dim: 12,
            window: 2,
            seed: 3,
        }
    }

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn encode_shapes_are_consistent() {
        let enc = TokenEncoder::new(small_cfg());
        let out = enc.encode_sentence(&toks(&["gov", "Beshear", "said", "stay", "home"]));
        assert_eq!(out.embeddings.rows(), 5);
        assert_eq!(out.embeddings.cols(), 12);
        assert_eq!(out.tags.len(), 5);
        assert_eq!(out.probs.cols(), BioTag::COUNT);
    }

    #[test]
    fn empty_sentence_is_safe() {
        let enc = TokenEncoder::new(small_cfg());
        let out = enc.encode_sentence(&[]);
        assert_eq!(out.embeddings.rows(), 0);
        assert!(out.tags.is_empty());
    }

    #[test]
    fn degenerate_tokens_never_panic() {
        let enc = TokenEncoder::new(small_cfg());
        // Empty-string and all-whitespace tokens (a broken upstream
        // tokenizer) must still produce one finite row per token.
        let weird = toks(&["", "   ", "\t", "ok"]);
        let out = enc.encode_sentence(&weird);
        assert_eq!(out.embeddings.rows(), 4);
        assert_eq!(out.tags.len(), 4);
        assert!(out.embeddings.as_slice().iter().all(|v| v.is_finite()));

        // A single absurdly long token (oversized-tweet fault) encodes
        // in bounded shape without panicking.
        let giant = vec!["x".repeat(50_000)];
        let out = enc.encode_sentence(&giant);
        assert_eq!(out.embeddings.rows(), 1);
        assert!(out.embeddings.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn embeddings_depend_on_context() {
        let enc = TokenEncoder::new(small_cfg());
        let a = enc.encode_sentence(&toks(&["in", "washington", "today"]));
        let b = enc.encode_sentence(&toks(&["president", "washington", "said"]));
        // Same token, different contexts ⇒ different contextual embedding.
        let ea = a.embeddings.row(1);
        let eb = b.embeddings.row(1);
        assert_ne!(ea, eb);
    }

    #[test]
    fn embeddings_identical_for_identical_contexts() {
        let enc = TokenEncoder::new(small_cfg());
        let s = toks(&["cases", "in", "Italy", "rising", "fast"]);
        let a = enc.encode_sentence(&s);
        let b = enc.encode_sentence(&s);
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.tags, b.tags);
    }

    #[test]
    fn same_seed_same_model() {
        let a = TokenEncoder::new(small_cfg());
        let b = TokenEncoder::new(small_cfg());
        let s = toks(&["stay", "safe"]);
        assert_eq!(a.encode_sentence(&s).probs, b.encode_sentence(&s).probs);
    }

    /// FNV-1a 64 over `bytes`, continuing from `h`.
    fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Tokens that stress normalization and shape: empty, blank, a bare
    /// `#`, a hashtag, multi-char lowercasing (`İ`), a capital sharp s,
    /// a combining mark, an emoji, an elongation and a 5000-char token.
    fn odd_tokens() -> Vec<String> {
        let long = "x".repeat(5000);
        ["", "   ", "#", "#Coronavirus", "İstanbul", "ẞ", "a\u{301}b", "😷", "sooooo", &long]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn tweet_tokens() -> Vec<String> {
        toks(&[
            "@WHO",
            "says",
            "gov",
            "Beshear",
            "told",
            "#Kentucky",
            "to",
            "stay",
            "home",
            "https://t.co/x1",
            "2020",
            "!",
        ])
    }

    /// Pins the encoder's output bits and its hashed feature ids. The
    /// constants were computed with the pre-blocked-kernel encoder
    /// (per-trigram `String`s, `ikj` matmul), so any change to hashing,
    /// shape features or the arithmetic order of a layer shows here.
    #[test]
    fn encoder_bits_and_bucket_ids_are_pinned() {
        let mut enc = TokenEncoder::new(EncoderConfig { seed: 2024, ..Default::default() });
        let t = BioTag::COUNT;
        enc.set_transitions((0..t * t).map(|i| -0.25 * ((i * 7) % 5) as f32).collect());
        let odd = odd_tokens();
        let mut sentences = vec![odd.clone()];
        sentences.extend(odd.iter().map(|s| vec![s.clone()]));
        sentences.push(tweet_tokens());

        let (mut emb, mut probs) = (FNV_OFFSET, FNV_OFFSET);
        let mut tags = Vec::new();
        for s in &sentences {
            let out = enc.encode_sentence(s);
            for v in out.embeddings.as_slice() {
                emb = fnv1a64(emb, &v.to_bits().to_le_bytes());
            }
            for v in out.probs.as_slice() {
                probs = fnv1a64(probs, &v.to_bits().to_le_bytes());
            }
            tags.push(out.tags.iter().map(|t| t.index()).collect::<Vec<_>>());
        }
        assert_eq!(emb, 0xea0c_36dc_e37c_d784, "embedding bits");
        assert_eq!(probs, 0xbe38_efe7_6061_81ba, "probability bits");
        let want: [&[usize]; 12] = [
            &[5, 5, 5, 5, 5, 5, 5, 5, 5, 0],
            &[3],
            &[5],
            &[3],
            &[5],
            &[5],
            &[5],
            &[5],
            &[3],
            &[5],
            &[3],
            &[0, 0, 0, 5, 5, 5, 5, 0, 0, 0, 0, 5],
        ];
        assert_eq!(tags, want, "tag indices");

        let mut feats = Featurizer::new(FeatureConfig::default());
        let (mut words, mut counts, mut grams) = (Vec::new(), Vec::new(), FNV_OFFSET);
        for token in odd.iter().chain(&tweet_tokens()) {
            words.push(feats.load(token));
            counts.push(feats.trigrams().len());
            for g in feats.trigrams() {
                grams = fnv1a64(grams, &(g as u64).to_le_bytes());
            }
        }
        assert_eq!(
            words,
            [
                4449, 5547, 4449, 6414, 7304, 4795, 1575, 2025, 2055, 961, 5497, 341, 3843, 6149,
                1504, 107, 6208, 6836, 6754, 6440, 5409, 4032
            ],
            "word buckets"
        );
        assert_eq!(
            counts,
            [1, 3, 1, 11, 9, 1, 3, 1, 6, 5000, 4, 4, 3, 7, 4, 8, 2, 4, 4, 15, 4, 1],
            "trigrams per token"
        );
        assert_eq!(grams, 0x251f_a621_3139_b675, "trigram buckets");
    }

    #[test]
    fn param_count_is_plausible() {
        let enc = TokenEncoder::new(small_cfg());
        // Tables dominate: 2 × 512 × 8 = 8192 params plus the trunk.
        assert!(enc.param_count() > 8_000);
    }
}
