//! Cosine geometry helpers.
//!
//! The Phrase Embedder (§V-B) and the candidate clustering step (§V-C)
//! both operate under cosine distance, so these functions are used across
//! several crates. A tiny epsilon guards the zero vector: the paper never
//! defines cosine distance at zero, and a zero pooled embedding can only
//! arise from an all-zero token embedding, which we still must not turn
//! into NaN.

use crate::kernels;

const EPS: f32 = 1e-12;

/// Cosine similarity in `[-1, 1]` (0 when either vector is ~zero).
///
/// Backed by the fused single-pass kernel ([`kernels::cosine`]), whose
/// fixed 8-lane accumulation order makes the result independent of the
/// `NGL_KERNEL` dispatch.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    kernels::cosine(a, b)
}

/// Cosine distance `1 - cos(a, b)` in `[0, 2]`.
///
/// A value of `1` means orthogonality — the margin the paper sets for its
/// triplet loss and the natural upper bound for the agglomerative
/// clustering threshold (§V-C).
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// Normalizes `v` to unit L2 norm in place. A ~zero vector is left as is.
pub fn l2_normalize(v: &mut [f32]) {
    let n: f32 = kernels::sq_norm(v).sqrt();
    if n > EPS {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// Returns a unit-norm copy of `v`.
pub fn l2_normalized(v: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    l2_normalize(&mut out);
    out
}

/// [`cosine_similarity_grad_a_into`] into a fresh vector.
#[cfg(test)]
fn cosine_similarity_grad_a(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len()];
    cosine_similarity_grad_a_into(a, b, &mut out);
    out
}

/// Gradient of cosine similarity `cos(a, b)` with respect to `a`,
/// written into `out`, which training loops reuse across pairs.
///
/// `d cos / d a = b / (|a||b|) - cos(a,b) * a / |a|²`
pub fn cosine_similarity_grad_a_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let na: f32 = kernels::sq_norm(a).sqrt().max(EPS);
    let nb: f32 = kernels::sq_norm(b).sqrt().max(EPS);
    let cos = cosine_similarity(a, b);
    for ((o, &ai), &bi) in out.iter_mut().zip(a).zip(b) {
        *o = bi / (na * nb) - cos * ai / (na * na);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_zero_distance() {
        let v = [0.3, -0.2, 0.9];
        assert!((cosine_distance(&v, &v)).abs() < 1e-6);
    }

    #[test]
    fn orthogonal_vectors_have_distance_one() {
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn opposite_vectors_have_distance_two() {
        assert!((cosine_distance(&[1.0, 0.0], &[-2.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_is_safe() {
        let d = cosine_distance(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(d.is_finite());
        assert!((d - 1.0).abs() < 1e-6, "zero vector treated as orthogonal");
    }

    #[test]
    fn normalization_yields_unit_norm() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn similarity_is_scale_invariant() {
        let a = [1.0f32, 2.0, -1.0];
        let b = [0.5f32, -0.25, 2.0];
        let scaled: Vec<f32> = a.iter().map(|x| x * 7.5).collect();
        assert!((cosine_similarity(&a, &b) - cosine_similarity(&scaled, &b)).abs() < 1e-5);
    }

    #[test]
    fn grad_into_matches_allocating_variant() {
        let a = [0.4f32, -0.7, 1.1, 0.2, -0.9];
        let b = [0.9f32, 0.2, -0.3, 1.4, 0.6];
        let alloc = cosine_similarity_grad_a(&a, &b);
        let mut out = [0.0f32; 5];
        cosine_similarity_grad_a_into(&a, &b, &mut out);
        assert_eq!(alloc, out.to_vec());
    }

    #[test]
    fn cosine_grad_matches_finite_difference() {
        let a = [0.4f32, -0.7, 1.1];
        let b = [0.9f32, 0.2, -0.3];
        let grad = cosine_similarity_grad_a(&a, &b);
        let h = 1e-3f32;
        for i in 0..a.len() {
            let mut ap = a;
            ap[i] += h;
            let mut am = a;
            am[i] -= h;
            let fd = (cosine_similarity(&ap, &b) - cosine_similarity(&am, &b)) / (2.0 * h);
            assert!((fd - grad[i]).abs() < 1e-3, "grad[{i}]: analytic {} vs fd {fd}", grad[i]);
        }
    }
}
