//! The Entity Classifier (§V-D).
//!
//! Takes a candidate cluster's mention embeddings, pools them into a
//! global candidate embedding via [`AttentivePooling`](crate::pooling::AttentivePooling), and classifies
//! the candidate into one of **L+1 classes** — the four entity types or
//! *non-entity*. The pooling and the dense classification head are
//! trained end-to-end on ground-truth candidate clusters from a
//! D5-style stream.

use ngl_runtime::rng::SplitMix64;

use ngl_nn::layers::{Dense, Init, Relu};
use ngl_nn::loss::SoftmaxCrossEntropy;
use ngl_nn::{Adam, AdamState, EarlyStopping, Matrix};
use ngl_text::EntityType;

/// Classifier hyperparameters (paper: Adam lr 0.0015, batch 32, 200
/// epochs, patience 20).
#[derive(Debug, Clone, Copy)]
pub struct ClassifierConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Hidden width of the dense stack.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Candidates per mini-batch.
    pub batch_size: usize,
    /// Epoch cap.
    pub max_epochs: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            hidden: 48,
            lr: 1.5e-3,
            batch_size: 32,
            max_epochs: 120,
            patience: 20,
            seed: 0,
        }
    }
}

/// One training candidate: the cluster's local mention embeddings plus
/// its gold class.
#[derive(Debug, Clone)]
pub struct CandidateExample {
    /// `n × d` mention embeddings.
    pub locals: Matrix,
    /// Gold class in `0..=L` ([`EntityType::class_index`]).
    pub class: usize,
}

/// Training report (feeds Table II's classifier column).
#[derive(Debug, Clone)]
pub struct ClassifierTrainReport {
    /// Candidates trained on.
    pub n_candidates: usize,
    /// Epochs executed.
    pub epochs_run: usize,
    /// Best validation loss.
    pub best_val_loss: f32,
    /// Validation macro-F1 over the L+1 classes at the best checkpoint.
    pub val_macro_f1: f64,
}

/// The attention-pooling entity classifier.
#[derive(Debug, Clone)]
pub struct EntityClassifier {
    pooling: super::pooling::AttentivePooling,
    l1: Dense,
    l2: Dense,
    cfg: ClassifierConfig,
}

impl EntityClassifier {
    /// Fresh classifier.
    pub fn new(cfg: ClassifierConfig) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let l1 = Dense::new(&mut rng, cfg.dim, cfg.hidden, Init::He);
        let l2 = Dense::new(&mut rng, cfg.hidden, EntityType::COUNT + 1, Init::Xavier);
        Self {
            pooling: super::pooling::AttentivePooling::new(cfg.seed ^ 0xA77E, cfg.dim),
            l1,
            l2,
            cfg,
        }
    }

    /// Class probabilities over the L+1 classes for one candidate.
    pub fn predict_proba(&self, locals: &Matrix) -> Vec<f32> {
        let (global, _) = self.pooling.forward(locals);
        let x = Matrix::from_rows(&[global.as_slice()]);
        let h = Relu.forward(&self.l1.forward(&x));
        let logits = self.l2.forward(&h);
        SoftmaxCrossEntropy.probabilities(&logits).row(0).to_vec()
    }

    /// Predicted class: `Some(type)` for an entity, `None` for the
    /// non-entity class.
    pub fn predict(&self, locals: &Matrix) -> Option<EntityType> {
        let p = self.predict_proba(locals);
        let best = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite prob"))
            .map(|(i, _)| i)
            .expect("non-empty probs");
        EntityType::from_class_index(best)
    }

    /// Like [`Self::predict`] but demanding at least `min_confidence`
    /// probability mass on the winning *entity* class; anything less
    /// confident is treated as non-entity. This is the pipeline's
    /// precision guard against mixed or junk clusters.
    pub fn predict_confident(&self, locals: &Matrix, min_confidence: f32) -> Option<EntityType> {
        let p = self.predict_proba(locals);
        let (best, prob) = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite prob"))
            .expect("non-empty probs");
        match EntityType::from_class_index(best) {
            Some(ty) if *prob >= min_confidence => Some(ty),
            _ => None,
        }
    }

    /// Fused scoring for the finalize hot path: the pooled global
    /// embedding (Eq. 8) **and** the confidence-gated prediction from a
    /// single attention pass, instead of one pass for the embedding and
    /// another inside [`Self::predict_confident`]. The pooling is
    /// deterministic, so the label is bitwise the one
    /// [`Self::predict_confident`] gives.
    pub fn score_candidate(
        &self,
        locals: &Matrix,
        min_confidence: f32,
    ) -> (Vec<f32>, Option<EntityType>) {
        let (global, _) = self.pooling.forward(locals);
        let x = Matrix::from_rows(&[global.as_slice()]);
        let h = Relu.forward(&self.l1.forward(&x));
        let logits = self.l2.forward(&h);
        let p = SoftmaxCrossEntropy.probabilities(&logits);
        let p = p.row(0);
        let (best, prob) = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite prob"))
            .expect("non-empty probs");
        let label = match EntityType::from_class_index(best) {
            Some(ty) if *prob >= min_confidence => Some(ty),
            _ => None,
        };
        (global, label)
    }

    /// Mean cross-entropy over a candidate set.
    pub fn loss(&self, examples: &[CandidateExample]) -> f32 {
        let sce = SoftmaxCrossEntropy;
        let mut total = 0.0;
        for ex in examples {
            let (global, _) = self.pooling.forward(&ex.locals);
            let x = Matrix::from_rows(&[global.as_slice()]);
            let h = Relu.forward(&self.l1.forward(&x));
            let logits = self.l2.forward(&h);
            total += sce.forward(&logits, &[ex.class]).0;
        }
        total / examples.len().max(1) as f32
    }

    /// Macro-F1 over the L+1 classes on a candidate set.
    pub fn macro_f1(&self, examples: &[CandidateExample]) -> f64 {
        let k = EntityType::COUNT + 1;
        let mut tp = vec![0usize; k];
        let mut fp = vec![0usize; k];
        let mut fn_ = vec![0usize; k];
        for ex in examples {
            let pred = EntityType::class_index(self.predict(&ex.locals));
            if pred == ex.class {
                tp[pred] += 1;
            } else {
                fp[pred] += 1;
                fn_[ex.class] += 1;
            }
        }
        let mut f1s = Vec::new();
        for c in 0..k {
            if tp[c] + fp[c] + fn_[c] == 0 {
                continue; // class absent from the set
            }
            let p = if tp[c] + fp[c] == 0 { 0.0 } else { tp[c] as f64 / (tp[c] + fp[c]) as f64 };
            let r = if tp[c] + fn_[c] == 0 { 0.0 } else { tp[c] as f64 / (tp[c] + fn_[c]) as f64 };
            f1s.push(if p + r == 0.0 { 0.0 } else { 2.0 * p * r / (p + r) });
        }
        if f1s.is_empty() {
            0.0
        } else {
            f1s.iter().sum::<f64>() / f1s.len() as f64
        }
    }

    /// End-to-end training on ground-truth candidate clusters with an
    /// internal 80/20 split, early stopping and best-checkpoint restore.
    pub fn fit(&mut self, examples: &[CandidateExample]) -> ClassifierTrainReport {
        assert!(examples.len() >= 5, "need at least a handful of candidates");
        let mut rng = SplitMix64::new(self.cfg.seed ^ 0xC1A5);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        rng.shuffle(&mut order);
        let n_val = (examples.len() / 5).max(1);
        let (val_idx, train_idx) = order.split_at(n_val);
        let val: Vec<CandidateExample> = val_idx.iter().map(|&i| examples[i].clone()).collect();

        let mut adam = Adam::new(self.cfg.lr).with_weight_decay(1e-5);
        let mut states = [
            AdamState::new(self.cfg.dim),                              // pooling w_a
            AdamState::new(1),                                         // pooling b_a
            AdamState::new(self.cfg.dim * self.cfg.hidden),            // l1.w
            AdamState::new(self.cfg.hidden),                           // l1.b
            AdamState::new(self.cfg.hidden * (EntityType::COUNT + 1)), // l2.w
            AdamState::new(EntityType::COUNT + 1),                     // l2.b
        ];
        let mut es = EarlyStopping::new(self.cfg.patience);
        let mut best = (self.pooling.clone(), self.l1.clone(), self.l2.clone());
        let mut train_order: Vec<usize> = train_idx.to_vec();
        let mut epochs_run = 0;

        for _ in 0..self.cfg.max_epochs {
            epochs_run += 1;
            rng.shuffle(&mut train_order);
            for chunk in train_order.chunks(self.cfg.batch_size.max(1)) {
                self.train_batch(
                    chunk.iter().map(|&i| &examples[i]),
                    chunk.len(),
                    &mut adam,
                    &mut states,
                );
            }
            let val_loss = self.loss(&val);
            if es.record(val_loss) {
                best = (self.pooling.clone(), self.l1.clone(), self.l2.clone());
            }
            if es.should_stop() {
                break;
            }
        }
        self.pooling = best.0;
        self.l1 = best.1;
        self.l2 = best.2;
        ClassifierTrainReport {
            n_candidates: examples.len(),
            epochs_run,
            best_val_loss: es.best(),
            val_macro_f1: self.macro_f1(&val),
        }
    }

    fn train_batch<'a>(
        &mut self,
        batch: impl Iterator<Item = &'a CandidateExample>,
        batch_len: usize,
        adam: &mut Adam,
        states: &mut [AdamState; 6],
    ) {
        let sce = SoftmaxCrossEntropy;
        self.pooling.zero_grad();
        self.l1.zero_grad();
        self.l2.zero_grad();
        let scale = 1.0 / batch_len.max(1) as f32;
        for ex in batch {
            let (global, cache) = self.pooling.forward(&ex.locals);
            let x = Matrix::from_rows(&[global.as_slice()]);
            let pre = self.l1.forward(&x);
            let h = Relu.forward(&pre);
            let logits = self.l2.forward(&h);
            let (_, probs) = sce.forward(&logits, &[ex.class]);
            let mut dlogits = sce.backward(&probs, &[ex.class]);
            dlogits.scale(scale);
            let dh = self.l2.backward(&h, &dlogits);
            let dpre = Relu.backward(&pre, &dh);
            let dx = self.l1.backward(&x, &dpre);
            self.pooling.backward(&ex.locals, &cache, dx.row(0));
        }
        adam.tick();
        {
            let (w, gw, b, gb) = self.pooling.params_and_grads();
            adam.step(w, gw, &mut states[0]);
            let mut bv = [*b];
            adam.step(&mut bv, &[gb], &mut states[1]);
            *b = bv[0];
        }
        let mut s = 2;
        for layer in [&mut self.l1, &mut self.l2] {
            for (param, grad) in layer.params_and_grads() {
                adam.step(param, grad, &mut states[s]);
                s += 1;
            }
        }
    }

    /// Serializes the trained classifier (pooling + dense stack + config).
    pub fn to_bytes(&self) -> Vec<u8> {
        use ngl_nn::codec::{put_dense, put_f32, put_u64};
        let mut buf = Vec::new();
        put_u64(&mut buf, self.cfg.dim as u64);
        put_u64(&mut buf, self.cfg.hidden as u64);
        put_f32(&mut buf, self.cfg.lr);
        put_u64(&mut buf, self.cfg.batch_size as u64);
        put_u64(&mut buf, self.cfg.max_epochs as u64);
        put_u64(&mut buf, self.cfg.patience as u64);
        put_u64(&mut buf, self.cfg.seed);
        buf.extend_from_slice(&self.pooling.to_bytes());
        put_dense(&mut buf, &self.l1);
        put_dense(&mut buf, &self.l2);
        buf
    }

    /// Deserializes a classifier written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &mut &[u8]) -> Result<Self, ngl_nn::CodecError> {
        use ngl_nn::codec::{get_dense, get_f32, get_u64, CodecError};
        let cfg = ClassifierConfig {
            dim: get_u64(bytes)? as usize,
            hidden: get_u64(bytes)? as usize,
            lr: get_f32(bytes)?,
            batch_size: get_u64(bytes)? as usize,
            max_epochs: get_u64(bytes)? as usize,
            patience: get_u64(bytes)? as usize,
            seed: get_u64(bytes)?,
        };
        let pooling = super::pooling::AttentivePooling::from_bytes(bytes)?;
        let l1 = get_dense(bytes)?;
        let l2 = get_dense(bytes)?;
        if pooling.dim() != cfg.dim
            || l1.in_dim() != cfg.dim
            || l2.out_dim() != EntityType::COUNT + 1
        {
            return Err(CodecError::Invalid("classifier shapes"));
        }
        Ok(Self { pooling, l1, l2, cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds synthetic candidate clusters: class c lives near axis c.
    fn synth_candidates(seed: u64, per_class: usize, dim: usize) -> Vec<CandidateExample> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        for class in 0..=EntityType::COUNT {
            for _ in 0..per_class {
                let n = rng.gen_range(1..6usize);
                let mut data = Vec::new();
                for _ in 0..n {
                    for c in 0..dim {
                        let base = if c == class { 1.0 } else { 0.0 };
                        data.push(base + rng.gen_range(-0.25..0.25f32));
                    }
                }
                out.push(CandidateExample { locals: Matrix::from_vec(n, dim, data), class });
            }
        }
        out
    }

    /// Every one of ten initialization seeds must learn the task, so a
    /// single lucky seed cannot hide a miss.
    #[test]
    fn classifier_learns_separable_candidates() {
        let examples = synth_candidates(3, 30, 8);
        // A fresh candidate of class 0 (Person axis).
        let locals = Matrix::from_vec(2, 8, {
            let mut v = vec![0.0f32; 16];
            v[0] = 1.0;
            v[8] = 0.95;
            v
        });
        for seed in 0..10 {
            let mut clf = EntityClassifier::new(ClassifierConfig {
                dim: 8,
                hidden: 16,
                seed,
                ..ClassifierConfig::default()
            });
            let report = clf.fit(&examples);
            assert!(report.val_macro_f1 > 0.9, "seed {seed}: val macro-F1 {}", report.val_macro_f1);
            assert_eq!(clf.predict(&locals), Some(EntityType::Person), "seed {seed}");
        }
    }

    #[test]
    fn non_entity_class_is_reachable() {
        let examples = synth_candidates(5, 25, 8);
        let mut clf = EntityClassifier::new(ClassifierConfig {
            dim: 8,
            hidden: 16,
            max_epochs: 60,
            patience: 15,
            seed: 4,
            ..ClassifierConfig::default()
        });
        clf.fit(&examples);
        // Class 4 = non-entity axis.
        let locals = Matrix::from_vec(1, 8, {
            let mut v = vec![0.0f32; 8];
            v[4] = 1.0;
            v
        });
        assert_eq!(clf.predict(&locals), None);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let clf = EntityClassifier::new(ClassifierConfig { dim: 6, ..ClassifierConfig::default() });
        let locals = Matrix::from_vec(3, 6, vec![0.1; 18]);
        let p = clf.predict_proba(&locals);
        assert_eq!(p.len(), EntityType::COUNT + 1);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn macro_f1_of_perfect_predictions_is_one_on_trained_model() {
        let examples = synth_candidates(8, 25, 8);
        let mut clf = EntityClassifier::new(ClassifierConfig {
            dim: 8,
            hidden: 16,
            max_epochs: 60,
            patience: 15,
            seed: 6,
            ..ClassifierConfig::default()
        });
        clf.fit(&examples);
        let f1 = clf.macro_f1(&examples);
        assert!(f1 > 0.85, "macro f1 {f1}");
    }
}
