//! # ngl-encoder
//!
//! The **Local NER** substrate (§IV). The paper instantiates Local NER
//! with BERTweet fine-tuned on WNUT17; shipping a 130M-parameter
//! transformer is impossible here, so this crate implements a
//! from-scratch trainable contextual token encoder with the same *role*
//! and the same observable behaviour:
//!
//! * it maps each sentence token to a d-dimensional **entity-aware
//!   contextual embedding** (the representation the Phrase Embedder
//!   consumes, §V-B);
//! * a token-classification head emits BIO(2L+1) tags that seed the
//!   candidate surface forms;
//! * because its receptive field is a small context window over a noisy
//!   stream, it exhibits the exact failure modes the paper builds Global
//!   NER to fix — inconsistent detection of the same surface across
//!   contexts, and mistyping of rare types.
//!
//! Architecture: hashed word + character-trigram embeddings with
//! orthographic shape features, a windowed context concatenation, a
//! two-layer MLP trunk producing the contextual embedding, and a dense
//! softmax head. Trained end-to-end with cross-entropy (Adam on the
//! dense trunk, sparse SGD on the embedding tables).

#![allow(clippy::needless_range_loop)] // index loops are idiomatic in the numeric kernels
#![forbid(unsafe_code)]

pub mod features;
pub mod model;
pub mod train;

pub use features::FeatureConfig;
pub use model::{EncoderConfig, SentenceEncoding, TokenEncoder};
pub use train::{train_encoder, TrainConfig, TrainStats};

use ngl_text::BioTag;

/// Anything that can tag a tokenized sentence with BIO labels. All local
/// NER systems (this encoder, the CRF baseline, the domain-shifted
/// BERT-NER stand-in) implement this, which is what lets the Globalizer
/// pipeline treat Local NER as a pluggable component (§III: "Local NER
/// is decoupled from Global NER").
pub trait SequenceTagger {
    /// Tags one sentence.
    fn tag(&self, tokens: &[String]) -> Vec<BioTag>;
}

/// A tagger that can also expose contextual token embeddings — the
/// contract the Global NER stage requires from its local component.
pub trait ContextualTagger: SequenceTagger {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Tags a sentence *and* returns its token embeddings.
    fn encode(&self, tokens: &[String]) -> SentenceEncoding;
}
