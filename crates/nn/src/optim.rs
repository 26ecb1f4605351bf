//! Optimizers.
//!
//! The paper trains every learnable component with Adam at a fixed
//! learning rate (§VI), with weight decay for regularization; a plain SGD
//! is provided for the structured-perceptron-style baselines and tests.

/// Per-tensor Adam moment buffers.
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamState {
    /// Fresh state for a parameter tensor of `len` scalars.
    pub fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len] }
    }
}

/// Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay coefficient.
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999 and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Sets the weight-decay coefficient (builder style).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Advances the shared timestep; call once per optimization step,
    /// before updating the step's tensors.
    pub fn tick(&mut self) {
        self.t += 1;
    }

    /// Applies one Adam update to `params` given `grads` and that
    /// tensor's moment `state`. [`Self::tick`] must have been called at
    /// least once.
    pub fn step(&self, params: &mut [f32], grads: &[f32], state: &mut AdamState) {
        assert_eq!(params.len(), grads.len(), "grad length mismatch");
        assert_eq!(params.len(), state.m.len(), "state length mismatch");
        assert!(self.t > 0, "call tick() before step()");
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            state.m[i] = self.beta1 * state.m[i] + (1.0 - self.beta1) * g;
            state.v[i] = self.beta2 * state.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = state.m[i] / bc1;
            let v_hat = state.v[i] / bc2;
            params[i] -=
                self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * params[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x − 3)² should converge to 3 quickly.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut x = vec![0.0f32];
        let mut state = AdamState::new(1);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.tick();
            adam.step(&mut x, &g, &mut state);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut x = vec![5.0f32];
        let mut state = AdamState::new(1);
        let mut adam = Adam::new(0.05).with_weight_decay(0.1);
        for _ in 0..2000 {
            adam.tick();
            // Zero task gradient: decay alone should pull x to 0.
            adam.step(&mut x, &[0.0], &mut state);
        }
        assert!(x[0].abs() < 0.5, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "call tick() before step()")]
    fn step_without_tick_panics() {
        let adam = Adam::new(0.1);
        let mut state = AdamState::new(1);
        adam.step(&mut [0.0], &[0.0], &mut state);
    }
}
