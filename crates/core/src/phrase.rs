//! The Entity Phrase Embedder (§V-B).
//!
//! Combines the variable number of token-level contextual embeddings of
//! a mention phrase into one fixed-size local mention embedding:
//!
//! ```text
//! pooled  = mean(token_emb[j])                 (Eq. 1)
//! pooled̂  = pooled / |pooled|                  (Eq. 2)
//! local   = W_ff · pooled̂ + b_ff               (Eq. 3)
//! ```
//!
//! Trained with contrastive estimation — cosine triplet loss (margin 1,
//! pushing mentions of different types toward orthogonality) or the
//! soft-nearest-neighbour loss — on mention sets mined from a D5-style
//! training stream. The Local NER weights below stay frozen: gradients
//! stop at the token embeddings, exactly as in the paper's siamese setup.

use ngl_runtime::rng::SplitMix64;

use ngl_nn::layers::{BatchNorm1d, Dense, Init, L2Norm};
use ngl_nn::loss::{soft_nn, triplet};
use ngl_nn::{Adam, AdamState, EarlyStopping, Matrix};
use ngl_text::Span;

/// Which contrastive objective trains the embedder (Table II compares
/// both; the production system uses triplet loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhraseLoss {
    /// Cosine triplet loss with margin (Eq. 4).
    Triplet {
        /// Margin ε; the paper sets 1.0 (orthogonality).
        margin: f32,
    },
    /// Soft-nearest-neighbour loss (Eq. 5).
    SoftNn {
        /// Temperature τ; smaller emphasizes near same-class pairs.
        temperature: f32,
    },
}

/// Embedder hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PhraseEmbedderConfig {
    /// Token-embedding (and output) dimension.
    pub dim: usize,
    /// Training objective.
    pub loss: PhraseLoss,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Mini-batch size (paper: 2048 for triplet, 64 for soft-NN; scaled
    /// down with our dataset sizes).
    pub batch_size: usize,
    /// Epoch cap (paper: 200).
    pub max_epochs: usize,
    /// Early-stopping patience (paper: 8).
    pub patience: usize,
    /// Apply batch normalization to the pooled inputs before the dense
    /// layer during training (§VI: "we also add batch normalization").
    /// Default off: on this 32-dim from-scratch substrate it slightly
    /// degrades end-to-end macro-F1 (see `reproduce ablations`), unlike
    /// over 768-dim BERT features.
    pub use_batch_norm: bool,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for PhraseEmbedderConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            loss: PhraseLoss::Triplet { margin: 1.0 },
            lr: 1e-3,
            batch_size: 256,
            max_epochs: 60,
            patience: 8,
            use_batch_norm: false,
            seed: 0,
        }
    }
}

/// A training triplet over pooled mention inputs.
#[derive(Debug, Clone)]
pub struct TripletExample {
    /// Anchor pooled embedding.
    pub anchor: Vec<f32>,
    /// Positive (same candidate).
    pub positive: Vec<f32>,
    /// Negative (same surface, different type — or augmented).
    pub negative: Vec<f32>,
}

/// A soft-NN training record: one pooled mention plus its candidate
/// class id (candidate identity, not entity type — the manifold is per
/// candidate).
#[derive(Debug, Clone)]
pub struct SoftNnExample {
    /// Pooled mention embedding.
    pub pooled: Vec<f32>,
    /// Candidate-manifold id.
    pub class: usize,
}

/// Result of an embedder training run (feeds Table II).
#[derive(Debug, Clone)]
pub struct PhraseTrainReport {
    /// Records trained on.
    pub dataset_size: usize,
    /// Final training loss.
    pub train_loss: f32,
    /// Best validation loss.
    pub val_loss: f32,
    /// Epochs executed.
    pub epochs_run: usize,
}

/// Optimizer moment buffers for the embedder's tensors.
struct PhraseAdamStates {
    w: AdamState,
    b: AdamState,
    gamma: AdamState,
    beta: AdamState,
}

impl PhraseAdamStates {
    fn new(dim: usize) -> Self {
        Self {
            w: AdamState::new(dim * dim),
            b: AdamState::new(dim),
            gamma: AdamState::new(dim),
            beta: AdamState::new(dim),
        }
    }
}

/// The trained phrase embedder.
#[derive(Debug, Clone)]
pub struct PhraseEmbedder {
    dense: Dense,
    bn: Option<BatchNorm1d>,
    cfg: PhraseEmbedderConfig,
}

impl PhraseEmbedder {
    /// Fresh embedder (identity-ish random init).
    pub fn new(cfg: PhraseEmbedderConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let dense = Dense::new(&mut rng, cfg.dim, cfg.dim, Init::Xavier);
        let bn = cfg.use_batch_norm.then(|| BatchNorm1d::new(cfg.dim));
        Self { dense, bn, cfg }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Mean-pools the token embeddings of a mention span (Eq. 1).
    pub fn pool(token_embeddings: &Matrix, span: &Span) -> Vec<f32> {
        assert!(span.end <= token_embeddings.rows(), "span beyond sentence");
        let d = token_embeddings.cols();
        let mut out = vec![0.0f32; d];
        let n = (span.end - span.start) as f32;
        for r in span.start..span.end {
            for (o, &v) in out.iter_mut().zip(token_embeddings.row(r)) {
                *o += v / n;
            }
        }
        out
    }

    /// Maps a pooled mention input through l2-norm and the dense layer
    /// (Eqs. 2–3). The output is unit-normalized so downstream cosine
    /// geometry (clustering threshold, triplet margin) is well-scaled.
    pub fn embed_pooled(&self, pooled: &[f32]) -> Vec<f32> {
        let x = Matrix::from_rows(&[pooled]);
        let y = self.forward_eval(&x);
        ngl_nn::l2_normalized(y.row(0))
    }

    /// Convenience: pools a span of token embeddings and embeds it.
    pub fn embed(&self, token_embeddings: &Matrix, span: &Span) -> Vec<f32> {
        self.embed_pooled(&Self::pool(token_embeddings, span))
    }

    /// Batch variant of [`Self::embed`]: pools every span and runs one
    /// dense forward over the whole stack instead of one single-row
    /// matmul per mention — the hot shape in the CTrie scan, where one
    /// tweet yields many uncached mentions at once.
    ///
    /// Every kernel on this path (L2 norm, eval-mode batch norm, dense
    /// matmul) is row-independent with a fixed per-row accumulation
    /// order, so the outputs are **bitwise identical** to per-span
    /// [`Self::embed`] calls.
    pub fn embed_spans(&self, token_embeddings: &Matrix, spans: &[Span]) -> Vec<Vec<f32>> {
        if spans.is_empty() {
            return Vec::new();
        }
        let pooled: Vec<Vec<f32>> = spans.iter().map(|s| Self::pool(token_embeddings, s)).collect();
        let rows: Vec<&[f32]> = pooled.iter().map(|p| p.as_slice()).collect();
        let y = self.forward_eval(&Matrix::from_rows(&rows));
        (0..spans.len()).map(|i| ngl_nn::l2_normalized(y.row(i))).collect()
    }

    /// Inference-mode forward (running batch-norm statistics), without
    /// the final normalization.
    fn forward_eval(&self, pooled: &Matrix) -> Matrix {
        let normed = L2Norm.forward(pooled);
        let pre = match &self.bn {
            Some(bn) => bn.forward_eval(&normed),
            None => normed,
        };
        self.dense.forward(&pre)
    }

    /// Training-mode forward: updates batch-norm running statistics and
    /// returns `(dense input, bn cache, output)` for the backward pass.
    fn forward_train(
        &mut self,
        pooled: &Matrix,
    ) -> (Matrix, Option<ngl_nn::layers::BatchNormCache>, Matrix) {
        let normed = L2Norm.forward(pooled);
        let (pre, cache) = match &mut self.bn {
            Some(bn) => {
                let (y, c) = bn.forward_train(&normed);
                (y, Some(c))
            }
            None => (normed, None),
        };
        let out = self.dense.forward(&pre);
        (pre, cache, out)
    }

    /// One optimizer step over accumulated dense (+ batch-norm) grads.
    fn optimizer_step(&mut self, adam: &mut Adam, states: &mut PhraseAdamStates) {
        adam.tick();
        let [(w, gw), (b, gb)] = self.dense.params_and_grads();
        adam.step(w, gw, &mut states.w);
        adam.step(b, gb, &mut states.b);
        if let Some(bn) = &mut self.bn {
            let [(gamma, g_gamma), (beta, g_beta)] = bn.params_and_grads();
            adam.step(gamma, g_gamma, &mut states.gamma);
            adam.step(beta, g_beta, &mut states.beta);
        }
    }

    /// Loss of the configured objective on a batch of examples; no
    /// parameter updates. Used for validation.
    pub fn eval_triplets(&self, examples: &[TripletExample]) -> f32 {
        let margin = match self.cfg.loss {
            PhraseLoss::Triplet { margin } => margin,
            PhraseLoss::SoftNn { .. } => 1.0,
        };
        let mut total = 0.0;
        for ex in examples {
            let rows = [ex.anchor.as_slice(), ex.positive.as_slice(), ex.negative.as_slice()];
            let out = self.forward_eval(&Matrix::from_rows(&rows));
            total += triplet(out.row(0), out.row(1), out.row(2), margin).loss;
        }
        total / examples.len().max(1) as f32
    }

    /// Soft-NN loss over a record set (validation).
    pub fn eval_soft_nn(&self, examples: &[SoftNnExample], temperature: f32) -> f32 {
        if examples.len() < 2 {
            return 0.0;
        }
        let rows: Vec<&[f32]> = examples.iter().map(|e| e.pooled.as_slice()).collect();
        let out = self.forward_eval(&Matrix::from_rows(&rows));
        let labels: Vec<usize> = examples.iter().map(|e| e.class).collect();
        soft_nn(&out, &labels, temperature).loss
    }

    /// Trains with the triplet objective. Keeps the best-validation
    /// weights; returns the Table II-style report.
    pub fn fit_triplets(&mut self, examples: &[TripletExample]) -> PhraseTrainReport {
        let margin = match self.cfg.loss {
            PhraseLoss::Triplet { margin } => margin,
            PhraseLoss::SoftNn { .. } => 1.0,
        };
        assert!(examples.len() >= 4, "need at least a few triplets");
        let mut rng = SplitMix64::new(self.cfg.seed ^ 0xABCD);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        rng.shuffle(&mut order);
        let n_val = (examples.len() / 5).max(1);
        let (val_idx, train_idx) = order.split_at(n_val);
        let val: Vec<TripletExample> = val_idx.iter().map(|&i| examples[i].clone()).collect();

        let mut adam = Adam::new(self.cfg.lr).with_weight_decay(1e-5);
        let mut states = PhraseAdamStates::new(self.cfg.dim);
        let mut es = EarlyStopping::new(self.cfg.patience);
        let mut best = (self.dense.clone(), self.bn.clone());
        let mut train_order: Vec<usize> = train_idx.to_vec();
        let mut final_train = f32::INFINITY;
        let mut epochs_run = 0;

        for _ in 0..self.cfg.max_epochs {
            epochs_run += 1;
            rng.shuffle(&mut train_order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in train_order.chunks(self.cfg.batch_size.max(1)) {
                let batch: Vec<&TripletExample> = chunk.iter().map(|&i| &examples[i]).collect();
                epoch_loss += self.train_triplet_batch(&batch, margin, &mut adam, &mut states);
                batches += 1;
            }
            final_train = epoch_loss / batches.max(1) as f32;
            let val_loss = self.eval_triplets(&val);
            if es.record(val_loss) {
                best = (self.dense.clone(), self.bn.clone());
            }
            if es.should_stop() {
                break;
            }
        }
        self.dense = best.0;
        self.bn = best.1;
        PhraseTrainReport {
            dataset_size: examples.len(),
            train_loss: final_train,
            val_loss: es.best(),
            epochs_run,
        }
    }

    /// One siamese mini-batch: the anchors, positives and negatives of
    /// every triplet share a single batched forward (which is also what
    /// gives batch normalization meaningful statistics).
    fn train_triplet_batch(
        &mut self,
        batch: &[&TripletExample],
        margin: f32,
        adam: &mut Adam,
        states: &mut PhraseAdamStates,
    ) -> f32 {
        let n = batch.len();
        if n == 0 {
            return 0.0;
        }
        let rows: Vec<&[f32]> = batch
            .iter()
            .flat_map(|ex| [ex.anchor.as_slice(), ex.positive.as_slice(), ex.negative.as_slice()])
            .collect();
        let pooled = Matrix::from_rows(&rows);
        let (pre, cache, out) = self.forward_train(&pooled);

        let scale = 1.0 / n as f32;
        let mut total = 0.0f32;
        let mut dy = Matrix::zeros(3 * n, self.cfg.dim);
        for (i, _) in batch.iter().enumerate() {
            let res = triplet(out.row(3 * i), out.row(3 * i + 1), out.row(3 * i + 2), margin);
            total += res.loss;
            if res.loss == 0.0 {
                continue;
            }
            for c in 0..self.cfg.dim {
                dy.row_mut(3 * i)[c] = res.grad_anchor[c] * scale;
                dy.row_mut(3 * i + 1)[c] = res.grad_positive[c] * scale;
                dy.row_mut(3 * i + 2)[c] = res.grad_negative[c] * scale;
            }
        }

        self.dense.zero_grad();
        if let Some(bn) = &mut self.bn {
            bn.zero_grad();
        }
        let d_pre = self.dense.backward(&pre, &dy);
        if let (Some(bn), Some(cache)) = (&mut self.bn, &cache) {
            // Input grads are discarded — the encoder below is frozen.
            let _ = bn.backward(cache, &d_pre);
        }
        self.optimizer_step(adam, states);
        total * scale
    }

    /// Serializes the trained embedder into a compact binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        use ngl_nn::codec::{put_dense, put_f32, put_u64};
        let mut buf = Vec::new();
        put_u64(&mut buf, self.cfg.dim as u64);
        match self.cfg.loss {
            PhraseLoss::Triplet { margin } => {
                put_u64(&mut buf, 0);
                put_f32(&mut buf, margin);
            }
            PhraseLoss::SoftNn { temperature } => {
                put_u64(&mut buf, 1);
                put_f32(&mut buf, temperature);
            }
        }
        put_f32(&mut buf, self.cfg.lr);
        put_u64(&mut buf, self.cfg.batch_size as u64);
        put_u64(&mut buf, self.cfg.max_epochs as u64);
        put_u64(&mut buf, self.cfg.patience as u64);
        put_u64(&mut buf, self.cfg.seed);
        put_dense(&mut buf, &self.dense);
        match &self.bn {
            Some(bn) => {
                put_u64(&mut buf, 1);
                ngl_nn::codec::put_batchnorm(&mut buf, bn);
            }
            None => put_u64(&mut buf, 0),
        }
        buf
    }

    /// Deserializes an embedder written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &mut &[u8]) -> Result<Self, ngl_nn::CodecError> {
        use ngl_nn::codec::{get_dense, get_f32, get_u64, CodecError};
        let dim = get_u64(bytes)? as usize;
        let loss = match get_u64(bytes)? {
            0 => PhraseLoss::Triplet { margin: get_f32(bytes)? },
            1 => PhraseLoss::SoftNn { temperature: get_f32(bytes)? },
            _ => return Err(CodecError::Invalid("phrase loss tag")),
        };
        let mut cfg = PhraseEmbedderConfig {
            dim,
            loss,
            lr: get_f32(bytes)?,
            batch_size: get_u64(bytes)? as usize,
            max_epochs: get_u64(bytes)? as usize,
            patience: get_u64(bytes)? as usize,
            seed: get_u64(bytes)?,
            use_batch_norm: false,
        };
        let dense = get_dense(bytes)?;
        if dense.in_dim() != dim || dense.out_dim() != dim {
            return Err(CodecError::Invalid("phrase dense shape"));
        }
        let bn = match get_u64(bytes)? {
            0 => None,
            1 => {
                let bn = ngl_nn::codec::get_batchnorm(bytes)?;
                if bn.parts().0.len() != dim {
                    return Err(CodecError::Invalid("phrase batch-norm shape"));
                }
                Some(bn)
            }
            _ => return Err(CodecError::Invalid("phrase batch-norm tag")),
        };
        cfg.use_batch_norm = bn.is_some();
        Ok(Self { dense, bn, cfg })
    }

    /// Trains with the soft-nearest-neighbour objective over candidate
    /// manifolds, mini-batched.
    pub fn fit_soft_nn(&mut self, examples: &[SoftNnExample]) -> PhraseTrainReport {
        let temperature = match self.cfg.loss {
            PhraseLoss::SoftNn { temperature } => temperature,
            PhraseLoss::Triplet { .. } => 0.5,
        };
        assert!(examples.len() >= 4, "need at least a few records");
        let mut rng = SplitMix64::new(self.cfg.seed ^ 0xDCBA);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        rng.shuffle(&mut order);
        let n_val = (examples.len() / 5).max(2);
        let (val_idx, train_idx) = order.split_at(n_val);
        let val: Vec<SoftNnExample> = val_idx.iter().map(|&i| examples[i].clone()).collect();

        let mut adam = Adam::new(self.cfg.lr).with_weight_decay(1e-5);
        let mut states = PhraseAdamStates::new(self.cfg.dim);
        let mut es = EarlyStopping::new(self.cfg.patience);
        let mut best = (self.dense.clone(), self.bn.clone());
        let mut train_order: Vec<usize> = train_idx.to_vec();
        let mut final_train = f32::INFINITY;
        let mut epochs_run = 0;

        for _ in 0..self.cfg.max_epochs {
            epochs_run += 1;
            rng.shuffle(&mut train_order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in train_order.chunks(self.cfg.batch_size.max(2)) {
                if chunk.len() < 2 {
                    continue;
                }
                let rows: Vec<&[f32]> =
                    chunk.iter().map(|&i| examples[i].pooled.as_slice()).collect();
                let pooled = Matrix::from_rows(&rows);
                let labels: Vec<usize> = chunk.iter().map(|&i| examples[i].class).collect();
                let (pre, cache, out) = self.forward_train(&pooled);
                let res = soft_nn(&out, &labels, temperature);
                if res.active_anchors == 0 {
                    continue;
                }
                epoch_loss += res.loss;
                batches += 1;
                self.dense.zero_grad();
                if let Some(bn) = &mut self.bn {
                    bn.zero_grad();
                }
                let d_pre = self.dense.backward(&pre, &res.grads);
                if let (Some(bn), Some(cache)) = (&mut self.bn, &cache) {
                    let _ = bn.backward(cache, &d_pre);
                }
                self.optimizer_step(&mut adam, &mut states);
            }
            final_train = epoch_loss / batches.max(1) as f32;
            let val_loss = self.eval_soft_nn(&val, temperature);
            if es.record(val_loss) {
                best = (self.dense.clone(), self.bn.clone());
            }
            if es.should_stop() {
                break;
            }
        }
        self.dense = best.0;
        self.bn = best.1;
        PhraseTrainReport {
            dataset_size: examples.len(),
            train_loss: final_train,
            val_loss: es.best(),
            epochs_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_text::EntityType;

    fn cfg(dim: usize) -> PhraseEmbedderConfig {
        PhraseEmbedderConfig {
            dim,
            batch_size: 32,
            max_epochs: 40,
            patience: 8,
            seed: 1,
            ..PhraseEmbedderConfig::default()
        }
    }

    #[test]
    fn pool_averages_span_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 100.0, 100.0]);
        let p = PhraseEmbedder::pool(&m, &Span::new(0, 2, EntityType::Person));
        assert_eq!(p, vec![2.0, 3.0]);
    }

    #[test]
    fn embed_output_is_unit_norm() {
        let e = PhraseEmbedder::new(cfg(8));
        let m = Matrix::from_vec(2, 8, (0..16).map(|v| v as f32 * 0.1).collect());
        let v = e.embed(&m, &Span::new(0, 2, EntityType::Location));
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    /// Synthetic two-manifold task: mentions of class A near one
    /// direction, class B near another with overlap; the triplet-trained
    /// embedder must increase the margin between classes.
    #[test]
    fn triplet_training_separates_classes() {
        let dim = 8;
        let mut rng = SplitMix64::new(7);
        let mut mk = |base: usize| -> Vec<f32> {
            let mut v = vec![0.0f32; dim];
            v[base] = 1.0;
            v[(base + 1) % dim] = 0.8; // heavy overlap between classes
            for x in v.iter_mut() {
                *x += rng.gen_range(-0.2f32..0.2);
            }
            v
        };
        let a: Vec<Vec<f32>> = (0..40).map(|_| mk(0)).collect();
        let b: Vec<Vec<f32>> = (0..40).map(|_| mk(1)).collect();
        let mut triplets = Vec::new();
        for i in 0..40 {
            triplets.push(TripletExample {
                anchor: a[i].clone(),
                positive: a[(i + 1) % 40].clone(),
                negative: b[i].clone(),
            });
            triplets.push(TripletExample {
                anchor: b[i].clone(),
                positive: b[(i + 1) % 40].clone(),
                negative: a[i].clone(),
            });
        }
        let mut emb = PhraseEmbedder::new(cfg(dim));
        let before = emb.eval_triplets(&triplets);
        let report = emb.fit_triplets(&triplets);
        assert!(
            report.val_loss < before * 0.7,
            "triplet loss did not improve: before {before}, after {}",
            report.val_loss
        );
        // Separation check in the output space.
        let ea = emb.embed_pooled(&a[0]);
        let ea2 = emb.embed_pooled(&a[1]);
        let eb = emb.embed_pooled(&b[0]);
        let d_same = ngl_nn::cosine_distance(&ea, &ea2);
        let d_diff = ngl_nn::cosine_distance(&ea, &eb);
        assert!(d_diff > d_same + 0.2, "classes not separated: same {d_same}, diff {d_diff}");
    }

    #[test]
    fn soft_nn_training_reduces_loss() {
        let dim = 6;
        let mut rng = SplitMix64::new(9);
        let mut examples = Vec::new();
        for class in 0..3usize {
            for _ in 0..20 {
                let mut v = vec![0.0f32; dim];
                v[class] = 1.0;
                v[(class + 1) % dim] = 0.7;
                for x in v.iter_mut() {
                    *x += rng.gen_range(-0.15f32..0.15);
                }
                examples.push(SoftNnExample { pooled: v, class });
            }
        }
        let mut emb = PhraseEmbedder::new(PhraseEmbedderConfig {
            loss: PhraseLoss::SoftNn { temperature: 0.5 },
            ..cfg(dim)
        });
        let before = emb.eval_soft_nn(&examples, 0.5);
        let report = emb.fit_soft_nn(&examples);
        assert!(
            report.val_loss < before,
            "soft-NN did not improve: {before} -> {}",
            report.val_loss
        );
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = PhraseEmbedder::new(cfg(8));
        let m = Matrix::from_vec(1, 8, vec![0.5; 8]);
        let s = Span::new(0, 1, EntityType::Person);
        assert_eq!(e.embed(&m, &s), e.embed(&m, &s));
    }

    #[test]
    #[should_panic(expected = "span beyond sentence")]
    fn pool_rejects_out_of_range_span() {
        let m = Matrix::zeros(2, 4);
        PhraseEmbedder::pool(&m, &Span::new(1, 3, EntityType::Person));
    }
}
