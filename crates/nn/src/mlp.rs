//! A small sequential multi-layer perceptron with a softmax
//! classification head — the building block behind the Entity Classifier
//! (§V-D) and the token-classification heads of the Local NER encoders.

use ngl_runtime::rng::SplitMix64;

use crate::early_stopping::EarlyStopping;
use crate::layers::{Dense, Init, Relu};
use crate::linalg::Matrix;
use crate::loss::SoftmaxCrossEntropy;
use crate::optim::{Adam, AdamState};

/// Hyperparameters for [`Mlp`] construction and training.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Layer widths, input first, class count last, e.g. `[64, 32, 5]`.
    pub layer_sizes: Vec<usize>,
    /// Adam learning rate (paper: 0.0015 for the Entity Classifier).
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hard epoch cap (paper: 200).
    pub max_epochs: usize,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            layer_sizes: vec![],
            lr: 1e-3,
            weight_decay: 1e-4,
            batch_size: 32,
            max_epochs: 200,
            patience: 20,
            seed: 0,
        }
    }
}

/// What a training run did — epochs executed, best validation loss, etc.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run (≤ `max_epochs`).
    pub epochs_run: usize,
    /// Final training loss.
    pub final_train_loss: f32,
    /// Best validation loss seen (∞ when no validation set was used).
    pub best_val_loss: f32,
    /// Epoch (1-based) the best validation loss occurred at.
    pub best_epoch: usize,
}

/// A dense feed-forward classifier: `Dense → ReLU → … → Dense → softmax`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    config: MlpConfig,
    adam_states: Vec<AdamState>,
}

impl Mlp {
    /// Builds the network described by `config.layer_sizes`.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.layer_sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = SplitMix64::new(config.seed);
        let mut layers = Vec::new();
        for w in config.layer_sizes.windows(2) {
            let is_last = w[1] == *config.layer_sizes.last().expect("non-empty")
                && layers.len() == config.layer_sizes.len() - 2;
            let init = if is_last { Init::Xavier } else { Init::He };
            layers.push(Dense::new(&mut rng, w[0], w[1], init));
        }
        let adam_states = Self::fresh_states(&layers);
        Self { layers, config, adam_states }
    }

    fn fresh_states(layers: &[Dense]) -> Vec<AdamState> {
        layers
            .iter()
            .flat_map(|l| [AdamState::new(l.in_dim() * l.out_dim()), AdamState::new(l.out_dim())])
            .collect()
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Forward pass returning logits; `acts` receives the pre-activation
    /// input of every layer for the backward pass.
    fn forward_cached(&self, x: &Matrix, acts: &mut Vec<Matrix>) -> Matrix {
        acts.clear();
        let relu = Relu;
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            acts.push(cur.clone());
            cur = layer.forward(&cur);
            if i + 1 < self.layers.len() {
                acts.push(cur.clone()); // pre-ReLU cache
                cur = relu.forward(&cur);
            }
        }
        cur
    }

    /// Raw logits for a batch.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut acts = Vec::new();
        self.forward_cached(x, &mut acts)
    }

    /// Class probabilities for a batch.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        SoftmaxCrossEntropy.probabilities(&self.logits(x))
    }

    /// Arg-max class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.logits(x);
        (0..p.rows())
            .map(|r| {
                p.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Mean cross-entropy loss of the model on `(x, y)`.
    pub fn loss(&self, x: &Matrix, y: &[usize]) -> f32 {
        SoftmaxCrossEntropy.forward(&self.logits(x), y).0
    }

    /// One gradient step on a mini-batch; returns the batch loss.
    pub fn train_batch(&mut self, x: &Matrix, y: &[usize], adam: &mut Adam) -> f32 {
        let mut acts = Vec::new();
        let logits = self.forward_cached(x, &mut acts);
        let sce = SoftmaxCrossEntropy;
        let (loss, probs) = sce.forward(&logits, y);
        let mut grad = sce.backward(&probs, y);

        for l in &mut self.layers {
            l.zero_grad();
        }
        let relu = Relu;
        // Walk layers in reverse; `acts` holds [in0, pre0, in1, pre1, ..., inLast].
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let input_idx = 2 * i;
            let input = &acts[input_idx];
            grad = layer.backward(input, &grad);
            if i > 0 {
                let pre_relu = &acts[2 * (i - 1) + 1];
                grad = relu.backward(pre_relu, &grad);
            }
        }

        adam.tick();
        let mut s = 0;
        for layer in &mut self.layers {
            for (param, g) in layer.params_and_grads() {
                adam.step(param, g, &mut self.adam_states[s]);
                s += 1;
            }
        }
        loss
    }

    /// Full training loop with an internal 80/20 train/validation split
    /// (§VI), mini-batching, shuffling, and early stopping. Keeps the
    /// parameters from the best validation epoch.
    pub fn fit(&mut self, x: &Matrix, y: &[usize]) -> TrainReport {
        assert_eq!(x.rows(), y.len(), "label count mismatch");
        assert!(x.rows() >= 2, "need at least two samples");
        let mut rng = SplitMix64::new(self.config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        rng.shuffle(&mut order);
        let n_val = (x.rows() / 5).max(1).min(x.rows() - 1);
        let (val_idx, train_idx) = order.split_at(n_val);

        let gather = |idx: &[usize]| -> (Matrix, Vec<usize>) {
            let rows: Vec<&[f32]> = idx.iter().map(|&i| x.row(i)).collect();
            (Matrix::from_rows(&rows), idx.iter().map(|&i| y[i]).collect())
        };
        let (val_x, val_y) = gather(val_idx);
        let mut train_order: Vec<usize> = train_idx.to_vec();

        let mut adam = Adam::new(self.config.lr).with_weight_decay(self.config.weight_decay);
        let mut es = EarlyStopping::new(self.config.patience);
        let mut best_snapshot = self.layers.clone();
        let mut final_train_loss = f32::INFINITY;
        let mut epochs_run = 0;

        for _epoch in 0..self.config.max_epochs {
            epochs_run += 1;
            rng.shuffle(&mut train_order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in train_order.chunks(self.config.batch_size.max(1)) {
                let (bx, by) = gather(chunk);
                epoch_loss += self.train_batch(&bx, &by, &mut adam);
                batches += 1;
            }
            final_train_loss = epoch_loss / batches.max(1) as f32;
            let val_loss = self.loss(&val_x, &val_y);
            if es.record(val_loss) {
                best_snapshot = self.layers.clone();
            }
            if es.should_stop() {
                break;
            }
        }

        self.layers = best_snapshot;
        TrainReport {
            epochs_run,
            final_train_loss,
            best_val_loss: es.best(),
            best_epoch: es.best_epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two Gaussian blobs in 2-D: a 2-layer MLP must separate them.
    #[test]
    fn mlp_learns_two_blobs() {
        let mut rng = SplitMix64::new(42);
        let n = 200;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let (cx, cy) = if c == 0 { (-1.5, -1.5) } else { (1.5, 1.5) };
            data.push(cx + rng.gen_range(-0.5..0.5f32));
            data.push(cy + rng.gen_range(-0.5..0.5f32));
            labels.push(c);
        }
        let x = Matrix::from_vec(n, 2, data);
        let mut mlp = Mlp::new(MlpConfig {
            layer_sizes: vec![2, 8, 2],
            lr: 0.01,
            max_epochs: 60,
            patience: 15,
            batch_size: 16,
            seed: 7,
            ..MlpConfig::default()
        });
        let report = mlp.fit(&x, &labels);
        assert!(report.best_val_loss < 0.2, "val loss {}", report.best_val_loss);
        let preds = mlp.predict(&x);
        let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f32 / n as f32;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    /// XOR requires a hidden layer; a linear model cannot solve it.
    #[test]
    fn mlp_learns_xor() {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..50 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                data.push(a);
                data.push(b);
                labels.push(((a as i32) ^ (b as i32)) as usize);
            }
        }
        let x = Matrix::from_vec(labels.len(), 2, data);
        let mut mlp = Mlp::new(MlpConfig {
            layer_sizes: vec![2, 16, 2],
            lr: 0.02,
            max_epochs: 120,
            patience: 40,
            batch_size: 32,
            seed: 3,
            ..MlpConfig::default()
        });
        mlp.fit(&x, &labels);
        let probe = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        assert_eq!(mlp.predict(&probe), vec![0, 1, 1, 0]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mlp =
            Mlp::new(MlpConfig { layer_sizes: vec![3, 4, 5], seed: 11, ..MlpConfig::default() });
        let x = Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, -0.1, 0.0, 0.4]);
        let p = mlp.predict_proba(&x);
        for r in 0..2 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let cfg = MlpConfig { layer_sizes: vec![4, 6, 3], seed: 5, ..MlpConfig::default() };
        let a = Mlp::new(cfg.clone());
        let b = Mlp::new(cfg);
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.5, 0.25, 1.0]);
        assert_eq!(a.logits(&x), b.logits(&x));
    }

    #[test]
    fn clone_preserves_predictions() {
        let mlp =
            Mlp::new(MlpConfig { layer_sizes: vec![3, 5, 2], seed: 9, ..MlpConfig::default() });
        let back = mlp.clone();
        let x = Matrix::from_vec(1, 3, vec![0.2, 0.4, -0.6]);
        assert_eq!(mlp.logits(&x), back.logits(&x));
    }
}
