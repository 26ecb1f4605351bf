//! Objective functions.
//!
//! * [`SoftmaxCrossEntropy`] — the classification loss used by the Local
//!   NER token head and the Entity Classifier.
//! * [`triplet`] — cosine-distance triplet loss with margin (Eq. 4). The
//!   paper sets the margin to 1 to push mentions of *different* entity
//!   types towards orthogonality.
//! * [`soft_nn`] — the soft-nearest-neighbour loss (Eq. 5) with a
//!   temperature controlling the relative weight of near pairs.

use crate::cosine::{cosine_distance, cosine_similarity_grad_a_into};
use crate::linalg::Matrix;

/// Fused softmax + cross-entropy head.
///
/// Working on logits directly keeps the backward pass the numerically
/// stable `probs - onehot` form.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Row-wise softmax of `logits`.
    pub fn probabilities(&self, logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        for r in 0..out.rows() {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Mean cross-entropy of `logits` against integer `targets`.
    ///
    /// Returns `(loss, probabilities)`; the probabilities are reused by
    /// [`Self::backward`].
    pub fn forward(&self, logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
        assert_eq!(logits.rows(), targets.len(), "target count mismatch");
        let probs = self.probabilities(logits);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < probs.cols(), "target class {t} out of range");
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        (loss / targets.len() as f32, probs)
    }

    /// Gradient of the mean cross-entropy w.r.t. the logits:
    /// `(probs - onehot) / batch`.
    pub fn backward(&self, probs: &Matrix, targets: &[usize]) -> Matrix {
        let b = targets.len() as f32;
        let mut grad = probs.clone();
        for (r, &t) in targets.iter().enumerate() {
            let row = grad.row_mut(r);
            row[t] -= 1.0;
            for v in row.iter_mut() {
                *v /= b;
            }
        }
        grad
    }
}

/// Numerically stable in-place softmax of one row.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Result of a triplet-loss evaluation.
#[derive(Debug, Clone)]
pub struct TripletResult {
    /// Hinge loss value `max(d(a,p) − d(a,n) + margin, 0)`.
    pub loss: f32,
    /// Gradient w.r.t. the anchor embedding (zero when inactive).
    pub grad_anchor: Vec<f32>,
    /// Gradient w.r.t. the positive embedding.
    pub grad_positive: Vec<f32>,
    /// Gradient w.r.t. the negative embedding.
    pub grad_negative: Vec<f32>,
}

/// Cosine-distance triplet loss (Eq. 4).
///
/// `loss = max(d(a,p) − d(a,n) + margin, 0)` with `d = 1 − cos`.
/// The paper uses `margin = 1.0` so that a negative example is pushed to
/// orthogonality with the anchor.
pub fn triplet(anchor: &[f32], positive: &[f32], negative: &[f32], margin: f32) -> TripletResult {
    let d = anchor.len();
    let d_ap = cosine_distance(anchor, positive);
    let d_an = cosine_distance(anchor, negative);
    let raw = d_ap - d_an + margin;
    if raw <= 0.0 {
        return TripletResult {
            loss: 0.0,
            grad_anchor: vec![0.0; d],
            grad_positive: vec![0.0; d],
            grad_negative: vec![0.0; d],
        };
    }
    // d(a,x) = 1 − cos(a,x) ⇒ ∂d/∂v = −∂cos/∂v. The cosine gradients
    // are written straight into the result vectors (one scratch buffer
    // for the anchor, which combines two of them).
    let mut grad_anchor = vec![0.0f32; d]; // dcos_an_da
    let mut grad_positive = vec![0.0f32; d]; // dcos_ap_dp
    let mut grad_negative = vec![0.0f32; d]; // dcos_an_dn
    let mut scratch = vec![0.0f32; d]; // dcos_ap_da
    cosine_similarity_grad_a_into(anchor, negative, &mut grad_anchor);
    cosine_similarity_grad_a_into(positive, anchor, &mut grad_positive);
    cosine_similarity_grad_a_into(negative, anchor, &mut grad_negative);
    cosine_similarity_grad_a_into(anchor, positive, &mut scratch);
    for (g, &s) in grad_anchor.iter_mut().zip(&scratch) {
        *g -= s;
    }
    for g in grad_positive.iter_mut() {
        *g = -*g;
    }
    TripletResult { loss: raw, grad_anchor, grad_positive, grad_negative }
}

/// Result of a soft-nearest-neighbour batch evaluation.
#[derive(Debug, Clone)]
pub struct SoftNnResult {
    /// Mean loss over anchors that have at least one positive in batch.
    pub loss: f32,
    /// Per-sample gradients, same shape as the input batch.
    pub grads: Matrix,
    /// Number of anchors that contributed (had an in-batch positive).
    pub active_anchors: usize,
}

/// Soft-nearest-neighbour loss (Eq. 5) over a mini-batch.
///
/// `embeddings` is `b × d`, `labels` assigns each row a class, and
/// `temperature` (τ) scales the cosine distances; smaller τ makes near
/// same-class pairs dominate, per Frosst et al. Anchors with no same-class
/// partner in the batch are skipped (their loss is undefined).
pub fn soft_nn(embeddings: &Matrix, labels: &[usize], temperature: f32) -> SoftNnResult {
    let b = embeddings.rows();
    assert_eq!(b, labels.len(), "label count mismatch");
    assert!(temperature > 0.0, "temperature must be positive");
    let mut grads = Matrix::zeros(b, embeddings.cols());
    if b < 2 {
        return SoftNnResult { loss: 0.0, grads, active_anchors: 0 };
    }

    // Pairwise cosine distances and exp(−d/τ) terms.
    let mut dist = vec![0.0f32; b * b];
    let mut e = vec![0.0f32; b * b];
    for i in 0..b {
        for j in 0..b {
            if i == j {
                continue;
            }
            let d = cosine_distance(embeddings.row(i), embeddings.row(j));
            dist[i * b + j] = d;
            e[i * b + j] = (-d / temperature).exp();
        }
    }

    let mut total = 0.0f32;
    let mut active = 0usize;
    // dL/dd_ij accumulated per ordered pair; converted to embedding
    // gradients afterwards.
    let mut dl_dd = vec![0.0f32; b * b];
    for i in 0..b {
        let mut p = 0.0f32; // Σ over positives
        let mut q = 0.0f32; // Σ over all k ≠ i
        for j in 0..b {
            if j == i {
                continue;
            }
            q += e[i * b + j];
            if labels[j] == labels[i] {
                p += e[i * b + j];
            }
        }
        if p <= 0.0 || q <= 0.0 {
            continue;
        }
        active += 1;
        total += -(p.max(1e-30) / q.max(1e-30)).ln().clamp(-50.0, 50.0);
        for j in 0..b {
            if j == i {
                continue;
            }
            // L_i = −log P + log Q ⇒ ∂L_i/∂e_ij = −[pos]/P + 1/Q,
            // ∂e_ij/∂d_ij = −e_ij/τ.
            let de = if labels[j] == labels[i] { -1.0 / p } else { 0.0 } + 1.0 / q;
            dl_dd[i * b + j] += de * (-e[i * b + j] / temperature);
        }
    }

    if active == 0 {
        return SoftNnResult { loss: 0.0, grads, active_anchors: 0 };
    }
    let scale = 1.0 / active as f32;
    total *= scale;

    // Convert ∂L/∂d_ij into embedding gradients: d_ij = 1 − cos(x_i, x_j).
    // The two cosine-gradient buffers are reused across all O(b²) pairs.
    let mut dcos_di = vec![0.0f32; embeddings.cols()];
    let mut dcos_dj = vec![0.0f32; embeddings.cols()];
    for i in 0..b {
        for j in 0..b {
            if i == j || dl_dd[i * b + j] == 0.0 {
                continue;
            }
            let g = dl_dd[i * b + j] * scale;
            cosine_similarity_grad_a_into(embeddings.row(i), embeddings.row(j), &mut dcos_di);
            cosine_similarity_grad_a_into(embeddings.row(j), embeddings.row(i), &mut dcos_dj);
            // ∂d/∂x = −∂cos/∂x; axpy with α = −g is bitwise identical
            // to the elementwise `+= g * (-gi)` form.
            crate::kernels::axpy(grads.row_mut(i), -g, &dcos_di);
            crate::kernels::axpy(grads.row_mut(j), -g, &dcos_dj);
        }
    }

    SoftNnResult { loss: total, grads, active_anchors: active }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let probs = SoftmaxCrossEntropy.probabilities(&logits);
        for r in 0..2 {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = Matrix::from_vec(1, 2, vec![5.0, -5.0]);
        let bad = Matrix::from_vec(1, 2, vec![-5.0, 5.0]);
        let (lg, _) = SoftmaxCrossEntropy.forward(&good, &[0]);
        let (lb, _) = SoftmaxCrossEntropy.forward(&bad, &[0]);
        assert!(lg < 0.01);
        assert!(lb > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.5]);
        let targets = [2usize, 0];
        let sce = SoftmaxCrossEntropy;
        let (_, probs) = sce.forward(&logits, &targets);
        let grad = sce.backward(&probs, &targets);
        let h = 1e-2f32;
        for i in 0..logits.as_slice().len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= h;
            let fd = (sce.forward(&lp, &targets).0 - sce.forward(&lm, &targets).0) / (2.0 * h);
            assert!((fd - grad.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn triplet_is_zero_when_satisfied() {
        // Anchor equals positive, negative orthogonal ⇒ d_ap − d_an + 1 = 0.
        let a = [1.0f32, 0.0];
        let n = [0.0f32, 1.0];
        let res = triplet(&a, &a, &n, 1.0);
        assert_eq!(res.loss, 0.0);
        assert!(res.grad_anchor.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn triplet_penalizes_near_negative() {
        let a = [1.0f32, 0.0];
        let p = [0.0f32, 1.0]; // far positive
        let n = [1.0f32, 0.1]; // near negative
        let res = triplet(&a, &p, &n, 1.0);
        assert!(res.loss > 1.5, "loss {}", res.loss);
    }

    #[test]
    fn triplet_gradients_match_finite_difference() {
        let a = [0.6f32, -0.2, 0.9];
        let p = [0.5f32, 0.1, 0.7];
        let n = [0.4f32, -0.3, 0.8];
        let res = triplet(&a, &p, &n, 1.0);
        assert!(res.loss > 0.0, "test requires an active triplet");
        let h = 1e-3f32;
        for i in 0..3 {
            let mut ap = a;
            ap[i] += h;
            let mut am = a;
            am[i] -= h;
            let fd = (triplet(&ap, &p, &n, 1.0).loss - triplet(&am, &p, &n, 1.0).loss) / (2.0 * h);
            assert!((fd - res.grad_anchor[i]).abs() < 1e-2, "anchor grad {i}");
            let mut pp = p;
            pp[i] += h;
            let mut pm = p;
            pm[i] -= h;
            let fd = (triplet(&a, &pp, &n, 1.0).loss - triplet(&a, &pm, &n, 1.0).loss) / (2.0 * h);
            assert!((fd - res.grad_positive[i]).abs() < 1e-2, "positive grad {i}");
            let mut np = n;
            np[i] += h;
            let mut nm = n;
            nm[i] -= h;
            let fd = (triplet(&a, &p, &np, 1.0).loss - triplet(&a, &p, &nm, 1.0).loss) / (2.0 * h);
            assert!((fd - res.grad_negative[i]).abs() < 1e-2, "negative grad {i}");
        }
    }

    #[test]
    fn soft_nn_lower_when_classes_separated() {
        let tight = Matrix::from_vec(4, 2, vec![1.0, 0.05, 1.0, -0.05, -0.05, 1.0, 0.05, 1.0]);
        let mixed = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let labels = [0usize, 0, 1, 1];
        let l_tight = soft_nn(&tight, &labels, 0.5).loss;
        let l_mixed = soft_nn(&mixed, &labels, 0.5).loss;
        assert!(l_tight < l_mixed, "separated batch should score lower: {l_tight} vs {l_mixed}");
    }

    #[test]
    fn soft_nn_skips_anchor_without_positive() {
        let emb = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
        // Class 1 appears once: that anchor must be skipped.
        let res = soft_nn(&emb, &[0, 0, 1], 0.5);
        assert_eq!(res.active_anchors, 2);
        assert!(res.loss.is_finite());
    }

    #[test]
    fn soft_nn_gradient_matches_finite_difference() {
        let emb = Matrix::from_vec(
            4,
            3,
            vec![
                0.9, 0.1, 0.2, //
                0.8, 0.2, 0.1, //
                0.1, 0.9, -0.3, //
                0.2, 0.7, -0.2,
            ],
        );
        let labels = [0usize, 0, 1, 1];
        let res = soft_nn(&emb, &labels, 0.7);
        let h = 1e-3f32;
        for i in 0..emb.as_slice().len() {
            let mut ep = emb.clone();
            ep.as_mut_slice()[i] += h;
            let mut em = emb.clone();
            em.as_mut_slice()[i] -= h;
            let fd =
                (soft_nn(&ep, &labels, 0.7).loss - soft_nn(&em, &labels, 0.7).loss) / (2.0 * h);
            assert!(
                (fd - res.grads.as_slice()[i]).abs() < 5e-2,
                "grad[{i}]: analytic {} vs fd {fd}",
                res.grads.as_slice()[i]
            );
        }
    }
}
