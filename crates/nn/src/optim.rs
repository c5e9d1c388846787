//! The first-order optimizer: Adam, behind the [`Optimizer`] trait.
//!
//! Gradients arrive as `Vec<Option<Tensor>>` in parameter-store order
//! (`None` for parameters the loss did not reach — the frozen network in an
//! alternating GAN update keeps its Adam state untouched).

use crate::params::Params;
use gandef_tensor::accum::{accum, Accum};
use gandef_tensor::Tensor;

/// A first-order parameter-update rule.
pub trait Optimizer {
    /// Applies one update step given per-parameter gradients in store order.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from `params.len()`.
    fn step(&mut self, params: &mut Params, grads: &[Option<Tensor>]);
}

/// Adam (Kingma & Ba, 2015) — the optimizer the paper uses for the
/// ZK-GanDef discriminator (lr 0.001, §IV-D-2) and that we use for all
/// classifier training.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical stabilizer `ε`.
    pub eps: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

/// A snapshot of Adam's mutable state — step counter, learning rate and
/// both moment vectors — sufficient to continue the optimizer bit-exactly
/// from where the snapshot was taken. Run-state checkpointing
/// ([`crate::run_state`]) captures one of these per optimizer.
///
/// The hyperparameters `β₁`/`β₂`/`ε` are intentionally *not* part of the
/// state: they come from configuration and restoring must not silently
/// override what the resuming run was configured with. The learning rate
/// *is* captured because the divergence guard mutates it at runtime
/// (backoff on rollback), so its current value is run state, not config.
#[derive(Clone, Debug)]
pub struct AdamState {
    /// Learning rate at snapshot time (may differ from the configured one
    /// after divergence-guard backoff).
    pub lr: f32,
    /// Update steps taken so far.
    pub t: u64,
    /// First-moment estimates in parameter-store order (`None` for
    /// parameters that never received a gradient).
    pub m: Vec<Option<Tensor>>,
    /// Second-moment estimates, same layout as `m`.
    pub v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates Adam with the canonical defaults `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e−8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Snapshots the mutable state (see [`AdamState`]).
    pub fn state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken with [`Adam::state`]. Subsequent steps
    /// continue exactly as they would have from the snapshot point.
    pub fn restore(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params, grads: &[Option<Tensor>]) {
        assert_eq!(grads.len(), params.len(), "gradient count mismatch");
        self.m.resize(params.len(), None);
        self.v.resize(params.len(), None);
        self.t += 1;
        let mode = accum();
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Bias corrections in f64 for the f64 mode — `1 − β₂ᵗ` underflows
        // f32 noticeably for small t.
        let bc1_64 = 1.0 - (self.beta1 as f64).powi(self.t as i32);
        let bc2_64 = 1.0 - (self.beta2 as f64).powi(self.t as i32);
        let (b1, b2, lr) = (self.beta1, self.beta2, self.lr);
        let (eps, eps_64) = (self.eps, self.eps as f64);
        for (i, g) in grads.iter().enumerate() {
            let Some(g) = g else { continue };
            let m = self.m[i].get_or_insert_with(|| Tensor::zeros(g.shape().dims()));
            let v = self.v[i].get_or_insert_with(|| Tensor::zeros(g.shape().dims()));
            let w = params.value_at_mut(i);
            match mode {
                Accum::F32 => adam_pass(w, m, v, g, (b1, b2, lr), |m, v| {
                    (m / bc1) / ((v / bc2).sqrt() + eps)
                }),
                // The rescale/sqrt/divide chain runs in f64 with a single
                // rounding per element.
                Accum::F64 => adam_pass(w, m, v, g, (b1, b2, lr), |m, v| {
                    let (mh, vh) = (m as f64 / bc1_64, v as f64 / bc2_64);
                    (mh / (vh.sqrt() + eps_64)) as f32
                }),
            }
        }
    }
}

/// One in-place Adam pass over a parameter: per element, the moment
/// updates `m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g²`, then
/// `w ← w − lr·update(m, v)`. Keep each expression's f32 operation order:
/// the golden trajectories and the resume oracles pin its bits.
///
/// # Panics
///
/// Panics if the four tensors differ in length.
fn adam_pass(
    w: &mut Tensor,
    m: &mut Tensor,
    v: &mut Tensor,
    g: &Tensor,
    (b1, b2, lr): (f32, f32, f32),
    update: impl Fn(f32, f32) -> f32,
) {
    let (w, m, v, g) = (
        w.as_mut_slice(),
        m.as_mut_slice(),
        v.as_mut_slice(),
        g.as_slice(),
    );
    assert!(
        m.len() == w.len() && v.len() == w.len() && g.len() == w.len(),
        "Adam state and gradient must match the parameter's shape"
    );
    let (c1, c2, step) = (1.0 - b1, 1.0 - b2, -lr);
    for (((w, m), v), &g) in w.iter_mut().zip(m).zip(v).zip(g) {
        *m = *m * b1 + g * c1;
        *v = *v * b2 + g * g * c2;
        *w += step * update(*m, *v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` optimizer iterations on f(w) = ‖w − target‖².
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]);
        let mut params = Params::new();
        params.insert("w", Tensor::zeros(&[3]));
        for _ in 0..steps {
            let g = params.get("w").sub(&target).scale(2.0);
            opt.step(&mut params, &[Some(g)]);
        }
        params.get("w").sub(&target).l2_norm()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        assert!(optimize(&mut opt, 400) < 1e-2);
    }

    #[test]
    fn none_gradients_leave_params_untouched() {
        let mut params = Params::new();
        params.insert("a", Tensor::ones(&[2]));
        params.insert("b", Tensor::ones(&[2]));
        let g = Tensor::full(&[2], 1.0);
        let mut opt = Adam::new(0.1);
        opt.step(&mut params, &[Some(g), None]);
        assert_ne!(params.get("a"), &Tensor::ones(&[2]));
        assert_eq!(params.get("b"), &Tensor::ones(&[2]));
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction the very first Adam step is ≈ lr in magnitude
        // regardless of gradient scale.
        let mut params = Params::new();
        params.insert("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(0.001);
        opt.step(&mut params, &[Some(Tensor::from_vec(vec![1], vec![123.0]))]);
        let w = params.get("w").as_slice()[0];
        assert!((w + 0.001).abs() < 1e-5, "w {w}");
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        // Split run (k steps, snapshot, restore into a fresh optimizer,
        // k more) must match a straight 2k-step run bit-for-bit.
        let target = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]);
        let run = |resume_at: Option<usize>| {
            let mut params = Params::new();
            params.insert("w", Tensor::zeros(&[3]));
            let mut opt = Adam::new(0.05);
            for step in 0..20 {
                if Some(step) == resume_at {
                    let snap = opt.state();
                    opt = Adam::new(0.05);
                    opt.restore(snap);
                }
                let g = params.get("w").sub(&target).scale(2.0);
                opt.step(&mut params, &[Some(g)]);
            }
            params.get("w").clone()
        };
        let straight = run(None);
        let resumed = run(Some(10));
        assert_eq!(straight.as_slice(), resumed.as_slice());
    }
}
