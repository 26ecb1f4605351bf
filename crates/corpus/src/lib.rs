//! # ngl-corpus
//!
//! The data substrate for the NER Globalizer reproduction. The paper
//! evaluates on tweet streams crawled from the Twitter API plus the
//! WNUT17 and BTC benchmark corpora — none of which can be shipped here
//! — so this crate *simulates* them: a procedural entity knowledge base,
//! a topic-conditioned tweet grammar with surface noise, and dataset
//! profiles that reproduce the statistics of Table I:
//!
//! | Dataset | Size | #Topics | #Hashtags |
//! |---------|------|---------|-----------|
//! | D1      | 1K   | 1       | 1         |
//! | D2      | 2K   | 1 (Covid) | 1     |
//! | D3      | 3K   | 3       | 6         |
//! | D4      | 6K   | 5       | 5         |
//! | D5      | 3430 | 1       | 1         |
//! | WNUT17  | 1287 | —       | —         |
//! | BTC     | 9553 | —       | —         |
//!
//! Streaming profiles (D1–D5) draw entities Zipf-style from a bounded
//! topical pool, so the same entity recurs across many tweets — the
//! property Global NER exploits. Non-streaming profiles (WNUT17/BTC)
//! sample entities near-uniformly from a much larger pool across all
//! topics, so recurrence is rare — which is exactly what distinguishes
//! those corpora in the paper's evaluation.
//!
//! Every generator is deterministic given the profile's seed.

#![forbid(unsafe_code)]

pub mod conll;
pub mod dataset;
pub mod kb;
pub mod namegen;
pub mod noise;
pub mod profiles;
pub mod stream;
pub mod templates;
pub mod tweets;

pub use conll::{from_conll, to_conll, ConllError};
pub use dataset::{Dataset, DatasetSpec, DatasetStats};
pub use kb::{EntityId, EntityRecord, KnowledgeBase, Topic};
pub use noise::NoiseProfile;
pub use profiles::{all_eval_profiles, StandardDatasets};
pub use stream::{StreamPhase, SyntheticStream, TweetSource};
pub use tweets::{AnnotatedTweet, GoldMention};
