//! # ngl-text
//!
//! Text primitives for microblog NER:
//!
//! * [`EntityType`] — the paper's four preset entity types (PER, LOC,
//!   ORG, MISC) plus the L+1-th non-entity class used by the Entity
//!   Classifier.
//! * [`BioTag`] — the BIO token-level tagging scheme (Ramshaw & Marcus)
//!   with encode/decode between tag sequences and typed [`Span`]s.
//! * [`tokenize`] — a tweet-aware tokenizer (hashtags, @mentions, URLs,
//!   emoticons survive as single tokens). It walks the text by byte
//!   offset, decodes a char only where a byte is non-ASCII, and
//!   allocates nothing but each token's `String`.
//! * [`shape`] — orthographic word-shape features consumed by the
//!   feature-based baselines.

#![forbid(unsafe_code)]

pub mod bio;
pub mod shape;
pub mod span;
pub mod token;
pub mod types;

pub use bio::{decode_bio, encode_bio, BioTag};
pub use span::Span;
pub use token::{is_stopword_surface, tokenize, Token, TokenKind, MAX_TWEET_CHARS, STOPWORDS};
pub use types::EntityType;
