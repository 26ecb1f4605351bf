//! Learned attention pooling (Eqs. 6–8).
//!
//! Aggregates the local embeddings of all mentions in a candidate
//! cluster into one **global candidate embedding**:
//!
//! ```text
//! a_j = W_aᵀ local_j + b_a          (Eq. 6)
//! w_j = softmax(a)_j                (Eq. 7)
//! global = Σ_j w_j · local_j        (Eq. 8)
//! ```
//!
//! The weights are trained end-to-end with the Entity Classifier head
//! (§VI "the learned pooling operation and the classification network
//! are trained end-to-end").

use ngl_runtime::rng::SplitMix64;

use ngl_nn::loss::softmax_in_place;
use ngl_nn::Matrix;

/// The pooling module with its trainable scorer.
#[derive(Debug, Clone)]
pub struct AttentivePooling {
    w_a: Vec<f32>,
    b_a: f32,
    g_w: Vec<f32>,
    g_b: f32,
}

/// Cache from a pooling forward pass, needed for backward.
#[derive(Debug, Clone)]
pub struct PoolingCache {
    weights: Vec<f32>,
}

impl AttentivePooling {
    /// Fresh pooling over `dim`-dimensional embeddings.
    pub fn new(seed: u64, dim: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let limit = (3.0f32 / dim as f32).sqrt();
        Self {
            w_a: (0..dim).map(|_| rng.gen_range(-limit..limit)).collect(),
            b_a: 0.0,
            g_w: vec![0.0; dim],
            g_b: 0.0,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.w_a.len()
    }

    /// Pools a non-empty set of local embeddings (`n × d`) into the
    /// global candidate embedding, returning the cache for backward.
    ///
    /// # Panics
    /// Panics on an empty set — a candidate cluster always has at least
    /// one mention.
    pub fn forward(&self, locals: &Matrix) -> (Vec<f32>, PoolingCache) {
        let n = locals.rows();
        assert!(n > 0, "cannot pool an empty cluster");
        assert_eq!(locals.cols(), self.w_a.len(), "dimension mismatch");
        let mut scores: Vec<f32> =
            (0..n).map(|j| ngl_nn::linalg::dot(locals.row(j), &self.w_a) + self.b_a).collect();
        softmax_in_place(&mut scores);
        let mut global = vec![0.0f32; locals.cols()];
        for j in 0..n {
            ngl_nn::kernels::axpy(&mut global, scores[j], locals.row(j));
        }
        (global, PoolingCache { weights: scores })
    }

    /// Backward pass: accumulates gradients for `w_a`/`b_a` given the
    /// upstream gradient on the pooled output. Input gradients are not
    /// produced — the phrase embedder is frozen at this stage.
    pub fn backward(&mut self, locals: &Matrix, cache: &PoolingCache, d_global: &[f32]) {
        let n = locals.rows();
        // g_j = ⟨d_global, local_j⟩ ; softmax backward gives
        // da_j = w_j (g_j − Σ_k w_k g_k).
        let g: Vec<f32> = (0..n).map(|j| ngl_nn::linalg::dot(d_global, locals.row(j))).collect();
        let mean: f32 = ngl_nn::linalg::dot(&cache.weights, &g);
        for j in 0..n {
            let da = cache.weights[j] * (g[j] - mean);
            ngl_nn::kernels::axpy(&mut self.g_w, da, locals.row(j));
            self.g_b += da;
        }
    }

    /// Serializes the pooling parameters.
    pub fn to_bytes(&self) -> Vec<u8> {
        use ngl_nn::codec::{put_f32, put_f32_slice};
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &self.w_a);
        put_f32(&mut buf, self.b_a);
        buf
    }

    /// Deserializes pooling parameters written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &mut &[u8]) -> Result<Self, ngl_nn::CodecError> {
        use ngl_nn::codec::{get_f32, get_f32_vec};
        let w_a = get_f32_vec(bytes)?;
        let b_a = get_f32(bytes)?;
        let dim = w_a.len();
        Ok(Self { w_a, b_a, g_w: vec![0.0; dim], g_b: 0.0 })
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.g_w.iter_mut().for_each(|g| *g = 0.0);
        self.g_b = 0.0;
    }

    /// Parameter/gradient views for the optimizer. The bias is folded in
    /// behind the weights.
    pub fn params_and_grads(&mut self) -> (&mut [f32], &[f32], &mut f32, f32) {
        (&mut self.w_a, &self.g_w, &mut self.b_a, self.g_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_pool_is_convex() {
        let pool = AttentivePooling::new(3, 4);
        let locals = Matrix::from_vec(
            3,
            4,
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        );
        let (global, cache) = pool.forward(&locals);
        let s: f32 = cache.weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        // Convex combination of one-hot rows: components equal weights.
        for (c, &w) in cache.weights.iter().enumerate() {
            assert!((global[c] - w).abs() < 1e-5);
        }
        assert!(global[3].abs() < 1e-6);
    }

    #[test]
    fn singleton_cluster_pools_to_itself() {
        let pool = AttentivePooling::new(1, 3);
        let locals = Matrix::from_vec(1, 3, vec![0.3, -0.7, 0.2]);
        let (global, cache) = pool.forward(&locals);
        assert_eq!(global, vec![0.3, -0.7, 0.2]);
        assert!((cache.weights[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let dim = 3;
        let locals = Matrix::from_vec(2, dim, vec![0.5, -0.2, 0.8, -0.3, 0.9, 0.1]);
        // Loss = ⟨global, t⟩ for a fixed direction t.
        let t = [1.0f32, 2.0, -1.5];
        let mut pool = AttentivePooling::new(5, dim);
        let (_, cache) = pool.forward(&locals);
        pool.zero_grad();
        pool.backward(&locals, &cache, &t);
        let analytic_w = pool.g_w.clone();
        let analytic_b = pool.g_b;

        let loss = |p: &AttentivePooling| -> f32 {
            let (g, _) = p.forward(&locals);
            ngl_nn::linalg::dot(&g, &t)
        };
        let h = 1e-3f32;
        for i in 0..dim {
            let mut pp = pool.clone();
            pp.w_a[i] += h;
            let mut pm = pool.clone();
            pm.w_a[i] -= h;
            let fd = (loss(&pp) - loss(&pm)) / (2.0 * h);
            assert!(
                (fd - analytic_w[i]).abs() < 1e-2,
                "w grad {i}: analytic {} vs fd {fd}",
                analytic_w[i]
            );
        }
        let mut pp = pool.clone();
        pp.b_a += h;
        let mut pm = pool.clone();
        pm.b_a -= h;
        let fd = (loss(&pp) - loss(&pm)) / (2.0 * h);
        // b shifts all scores equally ⇒ softmax unchanged ⇒ gradient ~0.
        assert!(fd.abs() < 1e-2);
        assert!(analytic_b.abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "cannot pool an empty cluster")]
    fn empty_cluster_panics() {
        let pool = AttentivePooling::new(0, 4);
        let locals = Matrix::zeros(0, 4);
        let _ = pool.forward(&locals);
    }
}
