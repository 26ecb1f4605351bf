//! # NER Globalizer
//!
//! A Rust reproduction of *"Globally Aware Contextual Embeddings for
//! Named Entity Recognition in Social Media Streams"* (ICDE 2023).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`nn`] — the minimal neural-network library (layers, losses, Adam).
//! * [`text`] — tweet tokenization, spans, entity types, BIO tags.
//! * [`corpus`] — the synthetic microblog stream substrate and the
//!   dataset profiles D1–D5 / WNUT17-like / BTC-like of Table I.
//! * [`encoder`] — the Local NER substrate (contextual token encoder +
//!   BIO head), standing in for BERTweet.
//! * [`ctrie`] — the CandidatePrefixTrie and mention extraction (§V-A).
//! * [`cluster`] — cosine agglomerative clustering (§V-C).
//! * [`core`] — the NER Globalizer pipeline itself: Phrase Embedder,
//!   attention pooling, Entity Classifier, CandidateBase/TweetBase.
//! * [`baselines`] — Aguilar, BERT-NER, Akbik, HIRE-NER, DocL-NER.
//! * [`eval`] — span-level NER metrics and error analysis.
//! * [`runtime`] — the scoped-thread parallel executor driving the
//!   pipeline's hot stages (`NGL_THREADS`-configurable, deterministic).
//! * [`store`] — the durable-state substrate: append-only WAL and
//!   crash-consistent snapshots.
//! * [`serve`] — the online serving front-end: batching ingest over the
//!   durable store, read-only queries against finalized snapshots, and
//!   typed admission control under load or storage faults.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use ngl_baselines as baselines;
pub use ngl_cluster as cluster;
pub use ngl_core as core;
pub use ngl_corpus as corpus;
pub use ngl_ctrie as ctrie;
pub use ngl_encoder as encoder;
pub use ngl_eval as eval;
pub use ngl_nn as nn;
pub use ngl_runtime as runtime;
pub use ngl_serve as serve;
pub use ngl_store as store;
pub use ngl_text as text;
