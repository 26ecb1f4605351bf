//! # ngl-nn
//!
//! A minimal, dependency-light neural-network library backing the NER
//! Globalizer reproduction. It provides exactly the pieces the paper's
//! trainable components need, implemented from scratch with manual
//! backpropagation:
//!
//! * [`Matrix`] — a small row-major `f32` matrix with the linear-algebra
//!   kernels used by the layers (GEMM, transposed GEMM variants, axpy).
//! * [`kernels`] — fused dot / norm / cosine / axpy kernels with a fixed
//!   8-lane accumulation order shared by the scalar and SIMD paths
//!   (`NGL_KERNEL=scalar|simd`), the register-blocked matmul behind
//!   every dense layer's forward pass (bitwise equal to the plain `ikj`
//!   loop), plus the i8 symmetric quantization used for stored
//!   embeddings.
//! * [`Dense`], [`Relu`], [`BatchNorm1d`], [`L2Norm`] — layers with
//!   explicit `forward` / `backward` passes.
//! * [`SoftmaxCrossEntropy`] — fused softmax + cross-entropy for the
//!   token-classification and entity-classification heads.
//! * [`triplet`] and [`soft_nn`] — the two contrastive objectives the
//!   paper trains the Phrase Embedder with (§V-B): cosine-distance
//!   triplet loss with margin, and the soft-nearest-neighbour loss.
//! * [`Adam`] / [`Sgd`] — optimizers (the paper trains everything with
//!   Adam at fixed learning rates).
//! * [`Mlp`] — a small sequential network builder used by the Entity
//!   Classifier and the tagging heads.
//! * [`EarlyStopping`] — the patience-based stopping rule of §VI.
//!
//! Everything is deterministic given a seed: weight initialization takes
//! an explicit RNG, and no global state is used.

#![allow(clippy::needless_range_loop)] // index loops are idiomatic in the numeric kernels
#![deny(unsafe_op_in_unsafe_fn)]

pub mod codec;
pub mod cosine;
pub mod early_stopping;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use codec::CodecError;
pub use cosine::{
    cosine_distance, cosine_similarity, cosine_similarity_prenorm, l2_normalize, l2_normalized,
};
pub use early_stopping::EarlyStopping;
pub use kernels::{set_kernel_mode, KernelMode, QuantizedVec};
pub use layers::{BatchNorm1d, Dense, L2Norm, Relu};
pub use linalg::Matrix;
pub use loss::{soft_nn, triplet, SoftmaxCrossEntropy};
pub use mlp::{Mlp, MlpConfig};
pub use optim::{Adam, AdamState, Sgd};
