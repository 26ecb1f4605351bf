//! # ngl-core
//!
//! The paper's primary contribution: the **NER Globalizer** pipeline.
//!
//! An execution cycle (§III) runs per batch of stream tweets:
//!
//! 1. **Local NER** — a pluggable [`ngl_encoder::ContextualTagger`]
//!    tags each sentence, seeding candidate surface forms into the
//!    [`ngl_ctrie::CTrie`] and producing entity-aware token embeddings.
//! 2. **Mention extraction** (§V-A) — a CTrie scan recovers *all*
//!    mentions of the seeded surfaces, including ones Local NER missed.
//! 3. **Phrase embedding** (§V-B) — the contrastively trained
//!    [`PhraseEmbedder`] turns each mention's token embeddings into one
//!    fixed-size local mention embedding.
//! 4. **Candidate clustering** (§V-C) — mentions of each surface form
//!    are clustered (cosine agglomerative) to split ambiguous surfaces
//!    ("washington" the president vs the state) into distinct candidates.
//! 5. **Entity classification** (§V-D) — a learned attention pooling
//!    aggregates each cluster into a **global candidate embedding**, and
//!    the [`EntityClassifier`] labels it as one of L entity types or
//!    non-entity. Mentions of validated candidates become the final NER
//!    output.
//!
//! [`train::train_globalizer`] reproduces the §VI training procedure
//! (triplet / soft-NN mining on a D5-style stream), and
//! [`pipeline::NerGlobalizer`] runs the whole thing incrementally with
//! per-stage timing and the Figure 3 ablation modes.

#![allow(clippy::needless_range_loop)] // index loops are idiomatic in the numeric kernels
#![forbid(unsafe_code)]

pub mod bases;
pub mod checkpoint;
pub mod classifier;
pub mod durable;
pub mod mining;
pub mod persist;
pub mod phrase;
pub mod pipeline;
pub mod pooling;
pub mod shard;
pub mod train;

pub use bases::{CandidateBase, CandidateCluster, MentionRecord, SurfaceEntry, TweetBase};
pub use checkpoint::PipelineCheckpoint;
pub use classifier::{CandidateExample, ClassifierConfig, EntityClassifier};
pub use durable::{
    model_fingerprint, DegradationCause, DegradationEvent, DegradationMode, DegradationReport,
    DurableError, DurableGlobalizer, RecoveryReport, SpillPool, StoreStats, MAX_DEGRADATION_EVENTS,
    SPILL_CACHE_ENV,
};
pub use ngl_store::{IoStatsSnapshot, SharedPageCache};
pub use persist::{GlobalizerBundle, PersistError};
pub use phrase::{PhraseEmbedder, PhraseEmbedderConfig, PhraseLoss};
pub use pipeline::{
    AblationMode, BatchOutput, BatchReport, ClusterSummary, GlobalizerConfig, NerGlobalizer,
    PoolPolicy, QueryTag, RetentionPolicy, StageTimings, SurfaceSummary,
};
pub use pooling::AttentivePooling;
pub use shard::{shard_of_surface, ShardedGlobalizer, ShardedRecoveryReport};
pub use train::{train_globalizer, GlobalizerTrainingConfig, GlobalizerTrainingReport};
