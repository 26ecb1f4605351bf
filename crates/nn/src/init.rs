//! Weight initialization.
//!
//! Glorot/Xavier uniform for tanh-free dense stacks and He/Kaiming for
//! ReLU stacks. Both take the RNG explicitly so every model in the
//! workspace is reproducible from a single `u64` seed.

use crate::linalg::Matrix;
use ngl_runtime::rng::SplitMix64;

/// Glorot/Xavier uniform initialization: `U(-l, l)` with
/// `l = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rng: &mut SplitMix64, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.gen_range(-limit..limit)).collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

/// He/Kaiming uniform initialization for ReLU layers: `U(-l, l)` with
/// `l = sqrt(6 / fan_in)`.
pub fn he_uniform(rng: &mut SplitMix64, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0f32 / fan_in as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.gen_range(-limit..limit)).collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_stays_within_limit() {
        let mut rng = SplitMix64::new(7);
        let w = xavier_uniform(&mut rng, 64, 32);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        assert_eq!((w.rows(), w.cols()), (64, 32));
    }

    #[test]
    fn same_seed_same_weights() {
        let a = xavier_uniform(&mut SplitMix64::new(3), 8, 8);
        let b = xavier_uniform(&mut SplitMix64::new(3), 8, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = he_uniform(&mut SplitMix64::new(1), 8, 8);
        let b = he_uniform(&mut SplitMix64::new(2), 8, 8);
        assert_ne!(a, b);
    }
}
