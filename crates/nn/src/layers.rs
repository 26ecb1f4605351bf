//! Layers with explicit forward/backward passes.
//!
//! Each layer owns its parameters and gradient buffers; callers drive the
//! backward pass by handing back the inputs they kept from the forward
//! pass. This keeps batching explicit and avoids a tape/autograd
//! machinery the models here do not need.

use ngl_runtime::rng::SplitMix64;

use crate::init::{he_uniform, xavier_uniform};
use crate::linalg::Matrix;

/// Which initialization family a [`Dense`] layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Glorot/Xavier uniform — for linear / softmax-feeding layers.
    Xavier,
    /// He/Kaiming uniform — for ReLU-feeding layers.
    He,
}

/// A fully connected layer `y = x W + b`.
///
/// `W` is stored `in_dim × out_dim` so a batch `x` of shape
/// `batch × in_dim` maps to `batch × out_dim` with one GEMM.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
}

impl Dense {
    /// Creates a layer with the given initialization.
    pub fn new(rng: &mut SplitMix64, in_dim: usize, out_dim: usize, init: Init) -> Self {
        let w = match init {
            Init::Xavier => xavier_uniform(rng, in_dim, out_dim),
            Init::He => he_uniform(rng, in_dim, out_dim),
        };
        Self {
            w,
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        }
    }

    /// Rebuilds a layer from persisted weights and bias (fresh, zeroed
    /// gradient buffers).
    ///
    /// # Panics
    /// Panics when `bias.len() != weights.cols()`.
    pub fn from_parts(weights: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weights.cols(), "bias length mismatch");
        let gw = Matrix::zeros(weights.rows(), weights.cols());
        let gb = vec![0.0; bias.len()];
        Self { w: weights, b: bias, gw, gb }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass for a batch: `x (b×in) -> b×out`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass. `x` is the forward input, `dy` the upstream
    /// gradient. Accumulates parameter gradients internally and returns
    /// `dx`.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        // dW = xᵀ dy ; db = column sums of dy ; dx = dy Wᵀ
        let gw = x.t_matmul(dy);
        self.gw.axpy(1.0, &gw);
        for (g, s) in self.gb.iter_mut().zip(dy.col_sums()) {
            *g += s;
        }
        dy.matmul_t(&self.w)
    }

    /// Zeroes accumulated gradients (call once per optimizer step).
    pub fn zero_grad(&mut self) {
        self.gw.scale(0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Parameter/gradient pairs for the optimizer, weights first.
    pub fn params_and_grads(&mut self) -> [(&mut [f32], &[f32]); 2] {
        // Split borrows: weights+their grads, biases+their grads.
        let Dense { w, b, gw, gb } = self;
        [(w.as_mut_slice(), gw.as_slice()), (b.as_mut_slice(), gb.as_slice())]
    }

    /// Read-only weight matrix (used by tests and diagnostics).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }
}

/// Element-wise rectified linear unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// `max(0, x)` element-wise.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let data = x.as_slice().iter().map(|&v| v.max(0.0)).collect();
        Matrix::from_vec(x.rows(), x.cols(), data)
    }

    /// Masks the upstream gradient by the sign of the forward input.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> Matrix {
        let data = x
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(&xi, &gi)| if xi > 0.0 { gi } else { 0.0 })
            .collect();
        Matrix::from_vec(x.rows(), x.cols(), data)
    }
}

/// Row-wise L2 normalization, `y = x / |x|`.
///
/// This is the normalization step of the Phrase Embedder (Eq. 2): the
/// paper reports better performance when the pooled embedding is scaled
/// to unit norm before the final dense layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Norm;

const NORM_EPS: f32 = 1e-8;

impl L2Norm {
    /// Normalizes each row of `x` to unit norm.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        for r in 0..y.rows() {
            crate::cosine::l2_normalize(y.row_mut(r));
        }
        y
    }

    /// Backward pass: with `y = x/n`, `dx = (dy - y (y·dy)) / n`.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let xr = x.row(r);
            let dyr = dy.row(r);
            let n = crate::linalg::norm(xr).max(NORM_EPS);
            let y: Vec<f32> = xr.iter().map(|v| v / n).collect();
            let proj = crate::linalg::dot(&y, dyr);
            for (c, out) in dx.row_mut(r).iter_mut().enumerate() {
                *out = (dyr[c] - y[c] * proj) / n;
            }
        }
        dx
    }
}

/// Cache produced by a [`BatchNorm1d`] training forward pass; feed it back
/// into [`BatchNorm1d::backward`].
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    x_hat: Matrix,
    inv_std: Vec<f32>,
}

/// 1-D batch normalization over the batch dimension.
///
/// §VI of the paper adds batch normalization when training the Phrase
/// Embedder; this is the standard formulation with running statistics
/// for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// New batch-norm over `dim` features with momentum 0.9.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            g_gamma: vec![0.0; dim],
            g_beta: vec![0.0; dim],
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            eps: 1e-5,
        }
    }

    /// Training-mode forward pass; updates running statistics.
    pub fn forward_train(&mut self, x: &Matrix) -> (Matrix, BatchNormCache) {
        let (b, d) = (x.rows(), x.cols());
        assert!(b > 0, "batch norm needs a non-empty batch");
        let mut mean = vec![0.0f32; d];
        for r in 0..b {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= b as f32);
        let mut var = vec![0.0f32; d];
        for r in 0..b {
            for (c, v) in var.iter_mut().enumerate() {
                let dlt = x.get(r, c) - mean[c];
                *v += dlt * dlt;
            }
        }
        var.iter_mut().for_each(|v| *v /= b as f32);

        for c in 0..d {
            self.running_mean[c] =
                self.momentum * self.running_mean[c] + (1.0 - self.momentum) * mean[c];
            self.running_var[c] =
                self.momentum * self.running_var[c] + (1.0 - self.momentum) * var[c];
        }

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = Matrix::zeros(b, d);
        let mut y = Matrix::zeros(b, d);
        for r in 0..b {
            for c in 0..d {
                let h = (x.get(r, c) - mean[c]) * inv_std[c];
                x_hat.set(r, c, h);
                y.set(r, c, self.gamma[c] * h + self.beta[c]);
            }
        }
        (y, BatchNormCache { x_hat, inv_std })
    }

    /// Inference-mode forward pass using running statistics.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        let (b, d) = (x.rows(), x.cols());
        let mut y = Matrix::zeros(b, d);
        for r in 0..b {
            for c in 0..d {
                let inv = 1.0 / (self.running_var[c] + self.eps).sqrt();
                let h = (x.get(r, c) - self.running_mean[c]) * inv;
                y.set(r, c, self.gamma[c] * h + self.beta[c]);
            }
        }
        y
    }

    /// Backward pass for the training forward. Accumulates γ/β gradients
    /// and returns `dx`.
    pub fn backward(&mut self, cache: &BatchNormCache, dy: &Matrix) -> Matrix {
        let (b, d) = (dy.rows(), dy.cols());
        let bf = b as f32;
        let mut dx = Matrix::zeros(b, d);
        for c in 0..d {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for r in 0..b {
                let g = dy.get(r, c);
                sum_dy += g;
                sum_dy_xhat += g * cache.x_hat.get(r, c);
                self.g_gamma[c] += g * cache.x_hat.get(r, c);
                self.g_beta[c] += g;
            }
            for r in 0..b {
                let g = dy.get(r, c);
                let xh = cache.x_hat.get(r, c);
                let v =
                    self.gamma[c] * cache.inv_std[c] / bf * (bf * g - sum_dy - xh * sum_dy_xhat);
                dx.set(r, c, v);
            }
        }
        dx
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.g_gamma.iter_mut().for_each(|g| *g = 0.0);
        self.g_beta.iter_mut().for_each(|g| *g = 0.0);
    }

    /// The learned/running parameters `(γ, β, running_mean, running_var)`
    /// for persistence.
    pub fn parts(&self) -> (&[f32], &[f32], &[f32], &[f32]) {
        (&self.gamma, &self.beta, &self.running_mean, &self.running_var)
    }

    /// Rebuilds a layer from persisted parameters.
    ///
    /// # Panics
    /// Panics when the four vectors have different lengths.
    pub fn from_parts(
        gamma: Vec<f32>,
        beta: Vec<f32>,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
    ) -> Self {
        let d = gamma.len();
        assert!(
            beta.len() == d && running_mean.len() == d && running_var.len() == d,
            "batch-norm part length mismatch"
        );
        Self {
            gamma,
            beta,
            g_gamma: vec![0.0; d],
            g_beta: vec![0.0; d],
            running_mean,
            running_var,
            momentum: 0.9,
            eps: 1e-5,
        }
    }

    /// Parameter/gradient pairs for the optimizer (γ then β).
    pub fn params_and_grads(&mut self) -> [(&mut [f32], &[f32]); 2] {
        let BatchNorm1d { gamma, beta, g_gamma, g_beta, .. } = self;
        [(gamma.as_mut_slice(), g_gamma.as_slice()), (beta.as_mut_slice(), g_beta.as_slice())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check<F>(f: F, x: &Matrix, dx: &Matrix, tol: f32)
    where
        F: Fn(&Matrix) -> f32,
    {
        let h = 1e-2f32;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = (f(&xp) - f(&xm)) / (2.0 * h);
            let an = dx.as_slice()[i];
            assert!((fd - an).abs() < tol, "element {i}: analytic {an} vs finite-diff {fd}");
        }
    }

    #[test]
    fn dense_forward_shapes_and_bias() {
        let mut rng = SplitMix64::new(1);
        let mut layer = Dense::new(&mut rng, 3, 2, Init::Xavier);
        // Force known weights for a hand check.
        layer.w = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        layer.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = SplitMix64::new(2);
        let layer = Dense::new(&mut rng, 4, 3, Init::Xavier);
        let x = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32 * 0.3 - 1.0).collect());
        // Loss = sum of outputs, so upstream grad is all ones.
        let dy = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let mut l = layer.clone();
        let dx = l.backward(&x, &dy);
        finite_diff_check(|xx| layer.forward(xx).as_slice().iter().sum::<f32>(), &x, &dx, 1e-2);
    }

    #[test]
    fn relu_backward_masks_negative_inputs() {
        let relu = Relu;
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let dy = Matrix::from_vec(1, 4, vec![1.0; 4]);
        let dx = relu.backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn l2norm_forward_produces_unit_rows() {
        let x = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 2.0]);
        let y = L2Norm.forward(&x);
        for r in 0..2 {
            let n = crate::linalg::norm(y.row(r));
            assert!((n - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn l2norm_backward_matches_finite_difference() {
        let x = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        // Loss: dot(y, [1,2,3]).
        let target = [1.0f32, 2.0, 3.0];
        let dy = Matrix::from_vec(1, 3, target.to_vec());
        let dx = L2Norm.backward(&x, &dy);
        finite_diff_check(
            |xx| {
                let y = L2Norm.forward(xx);
                crate::linalg::dot(y.row(0), &target)
            },
            &x,
            &dx,
            1e-2,
        );
    }

    #[test]
    fn batchnorm_train_normalizes_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let (y, _) = bn.forward_train(&x);
        for c in 0..2 {
            let mean: f32 = (0..4).map(|r| y.get(r, c)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "column {c} mean {mean}");
        }
    }

    #[test]
    fn batchnorm_backward_matches_finite_difference() {
        let x = Matrix::from_vec(3, 2, vec![0.1, -0.4, 0.9, 0.3, -0.2, 0.8]);
        let dy = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let mut bn = BatchNorm1d::new(2);
        let (_, cache) = bn.forward_train(&x);
        let dx = bn.backward(&cache, &dy);
        // Fresh instance per evaluation so running stats don't leak.
        finite_diff_check(
            |xx| {
                let mut b = BatchNorm1d::new(2);
                let (y, _) = b.forward_train(xx);
                y.as_slice().iter().sum::<f32>()
            },
            &x,
            &dx,
            5e-2,
        );
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Matrix::from_vec(8, 1, (0..8).map(|v| v as f32).collect());
        for _ in 0..200 {
            let _ = bn.forward_train(&x);
        }
        let y = bn.forward_eval(&x);
        // After many updates the running stats converge to batch stats, so
        // eval output is ~normalized too.
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 8.0;
        assert!(mean.abs() < 0.05, "eval mean {mean}");
    }
}
