//! # ngl-baselines
//!
//! Reimplementations of the systems the paper compares against (§VI):
//!
//! **Local NER baselines**
//! * [`AguilarTagger`] — the WNUT17-winning multi-task
//!   BiLSTM-CNN-CRF of Aguilar et al., reproduced as a feature-rich
//!   linear-chain CRF trained with the structured perceptron and decoded
//!   with Viterbi (same model family: rich orthographic/lexical features
//!   + global label-sequence decoding).
//! * [`BertNer`] — Devlin et al.'s BERT fine-tuned for NER. Our stand-in
//!   is the same contextual-encoder architecture as the BERTweet
//!   substitute, but trained on a *clean, well-edited* corpus, which
//!   reproduces the domain-shift handicap BERT-base suffers on noisy
//!   tweets relative to tweet-pretrained BERTweet.
//!
//! **Global NER baselines**
//! * [`AkbikTagger`] — pooled contextualized embeddings: a dynamic
//!   memory of every token's contextual embeddings, mean-pooled and
//!   concatenated to the local embedding before the tagging head.
//! * [`HireNer`] — HIRE-NER-style document-level memory with a learned
//!   per-dimension gate fusing local and document-pooled token
//!   representations.
//! * [`DoclNer`] — DocL-NER-style document-level label-consistency
//!   refinement over a base tagger's predictions.
//!
//! All of them speak [`ngl_encoder::SequenceTagger`]; the document-level
//! systems additionally implement [`DocumentTagger`] so the harness can
//! give them a whole dataset as one "document", exactly as the paper
//! does ("both systems treat messages in a stream as composite content,
//! much like a document").

#![allow(clippy::needless_range_loop)] // index loops are idiomatic in the numeric kernels
#![forbid(unsafe_code)]

pub mod aguilar;
pub mod akbik;
pub mod bert_ner;
pub mod docl;
pub mod hire;

pub use aguilar::{AguilarConfig, AguilarTagger};
pub use akbik::{AkbikConfig, AkbikTagger};
pub use bert_ner::BertNer;
pub use docl::DoclNer;
pub use hire::{HireConfig, HireNer};

use ngl_text::BioTag;

/// A tagger that consumes a whole document (here: a dataset treated as
/// composite content) at once, so it can exploit cross-sentence
/// information.
pub trait DocumentTagger {
    /// Tags every sentence of the document.
    fn tag_document(&self, sentences: &[Vec<String>]) -> Vec<Vec<BioTag>>;
}
