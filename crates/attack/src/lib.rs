//! White-box adversarial example generators — the paper's Attack module
//! (Figure 3, §IV-C), replacing the CleverHans library the authors used.
//!
//! All attacks operate in the white-box threat model: they read the target
//! classifier's logits *and* input gradients through
//! [`gandef_nn::Classifier`]. Implemented generators:
//!
//! | Attack | Kind | Paper reference |
//! |--------|------|-----------------|
//! | [`Fgsm`] | single-step | Goodfellow et al. \[6\] |
//! | [`Bim`]  | iterative | Kurakin et al. \[9\] |
//! | [`Pgd`]  | iterative + random start | Madry et al. \[14\] |
//! | [`DeepFool`] | iterative, minimal perturbation | Moosavi-Dezfooli et al. \[16\] |
//! | [`CarliniWagner`] | optimization-based | Carlini & Wagner \[4\] |
//! | [`Mim`] | iterative + momentum | Dong et al. 2018 (extension: a post-paper "new attack") |
//!
//! Budgets follow §IV-C exactly: `ε∞ = 0.6` for the 28×28 datasets and
//! `0.06` for the 32×32 dataset, BIM per-step `0.1` / `0.016`, PGD `40 ×
//! 0.02` / `20 × 0.016`, and DeepFool / CW share the PGD budget.
//!
//! # Example
//!
//! ```
//! use gandef_attack::{Attack, AttackBudget, Fgsm};
//! use gandef_nn::{zoo, Net};
//! use gandef_tensor::rng::Prng;
//! use gandef_tensor::Tensor;
//!
//! let mut rng = Prng::new(0);
//! let net = Net::new(zoo::mlp(16, 8, 10), &mut rng);
//! let attack = Fgsm::new(AttackBudget::for_28x28().eps);
//! let x = Tensor::zeros(&[2, 16]);
//! let adv = attack.perturb(&net, &x, &[0, 1], &mut rng);
//! // The adversarial batch stays within the ε-ball and the pixel range.
//! assert!(adv.sub(&x).linf_norm() <= 0.6 + 1e-5);
//! ```

#![deny(missing_docs)]

mod bim;
mod cw;
mod deepfool;
mod fgsm;
mod mim;
mod pgd;
pub mod stream;

pub use bim::Bim;
pub use cw::CarliniWagner;
pub use deepfool::DeepFool;
pub use fgsm::Fgsm;
pub use mim::Mim;
pub use pgd::Pgd;

use gandef_nn::Classifier;
use gandef_tensor::pool;
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Lower pixel bound (images live in `R[−1,1]` after preprocessing, §IV-B).
pub const PIXEL_MIN: f32 = -1.0;
/// Upper pixel bound.
pub const PIXEL_MAX: f32 = 1.0;

/// A white-box adversarial example generator.
///
/// `Sync` is required so [`perturb_chunked`] can fan chunks out across the
/// worker pool; generators keep their configuration immutable and thread
/// all randomness through the explicit `rng` argument.
pub trait Attack: Sync {
    /// Short display name ("FGSM", "PGD", ...).
    fn name(&self) -> &str;

    /// Produces an adversarial batch from `(x, labels)` against `model`.
    ///
    /// The output has the shape of `x`, lies within the attack's `l∞`
    /// budget of `x`, and within the valid pixel range.
    fn perturb(
        &self,
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        rng: &mut Prng,
    ) -> Tensor;
}

/// Per-dataset attack hyper-parameters, exactly as §IV-C of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackBudget {
    /// Maximum `l∞` perturbation.
    pub eps: f32,
    /// BIM per-step perturbation.
    pub bim_step: f32,
    /// Number of BIM iterations (enough steps to traverse the ball; the
    /// paper fixes only the per-step size).
    pub bim_iters: usize,
    /// PGD per-step perturbation.
    pub pgd_step: f32,
    /// Number of PGD iterations.
    pub pgd_iters: usize,
}

impl AttackBudget {
    /// Budget for the 28×28 datasets (MNIST / Fashion-MNIST analogs):
    /// `ε = 0.6`, BIM step `0.1`, PGD `40 × 0.02`.
    pub fn for_28x28() -> Self {
        AttackBudget {
            eps: 0.6,
            bim_step: 0.1,
            bim_iters: 8,
            pgd_step: 0.02,
            pgd_iters: 40,
        }
    }

    /// Budget for the 32×32 dataset (CIFAR10 analog): `ε = 0.06`, BIM step
    /// `0.016`, PGD `20 × 0.016`.
    pub fn for_32x32() -> Self {
        AttackBudget {
            eps: 0.06,
            bim_step: 0.016,
            bim_iters: 5,
            pgd_step: 0.016,
            pgd_iters: 20,
        }
    }

    /// A reduced-iteration budget for *training-time* example generation
    /// (PGD-Adv / PGD-GanDef): same ball, `iters` PGD steps sized to cross
    /// it. Evaluation always uses the full budget.
    pub fn training_variant(&self, iters: usize) -> Self {
        let iters = iters.max(1);
        AttackBudget {
            pgd_iters: iters,
            pgd_step: (2.5 * self.eps / iters as f32).min(self.eps),
            ..*self
        }
    }
}

/// Projects `adv` onto the `l∞` ball of radius `eps` around `origin`, then
/// into the valid pixel range — the constraint every generator must
/// satisfy (the paper's `F` plus the norm bound).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn project(adv: &Tensor, origin: &Tensor, eps: f32) -> Tensor {
    assert_eq!(adv.shape(), origin.shape(), "projection shape mismatch");
    adv.broadcast_zip(origin, move |a, o| {
        a.clamp(o - eps, o + eps).clamp(PIXEL_MIN, PIXEL_MAX)
    })
}

/// Runs `attack` over `x` in chunks of `chunk` rows — bounds peak memory
/// when attacking large test sets, and runs the chunks concurrently on the
/// worker pool (each chunk is an independent optimization problem).
///
/// Every chunk draws from its own stream forked off `rng` by chunk index,
/// so the output is deterministic for a given seed regardless of pool
/// size. RNG-free attacks (FGSM, BIM) therefore produce bit-identical
/// results whether chunked or not.
///
/// # Panics
///
/// Panics if `chunk == 0` or sizes disagree.
pub fn perturb_chunked(
    attack: &dyn Attack,
    model: &dyn Classifier,
    x: &Tensor,
    labels: &[usize],
    chunk: usize,
    rng: &mut Prng,
) -> Tensor {
    assert!(chunk > 0, "chunk must be positive");
    assert_eq!(x.dim(0), labels.len(), "image/label count mismatch");
    let n = x.dim(0);
    if n <= chunk {
        return attack.perturb(model, x, labels, rng);
    }
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(n)))
        .collect();
    let rngs: Vec<Prng> = (0..bounds.len()).map(|i| rng.fork(i as u64)).collect();
    let parts = pool::parallel_tasks(bounds.len(), |i| {
        let (start, end) = bounds[i];
        let mut chunk_rng = rngs[i].clone();
        attack.perturb(
            model,
            &x.slice_rows(start, end),
            &labels[start..end],
            &mut chunk_rng,
        )
    });
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat_rows(&refs)
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures: a tiny trained classifier the attack tests can
    //! actually fool.

    use gandef_data::{batches, generate, DatasetKind, GenSpec};
    use gandef_nn::optim::{Adam, Optimizer};
    use gandef_nn::{one_hot, zoo, Mode, Net, Session};
    use gandef_tensor::rng::Prng;
    use gandef_tensor::Tensor;

    /// Trains a small MLP on SynthDigits to decent accuracy and returns it
    /// with a test subset. Deterministic; takes well under a second.
    pub fn trained_digits_net() -> (Net, Tensor, Vec<usize>) {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 600,
                test: 64,
                seed: 11,
            },
        );
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::mlp(28 * 28, 64, 10), &mut rng);
        let mut opt = Adam::new(0.003);
        for _ in 0..12 {
            for (xb, yb) in batches(&ds.train_x, &ds.train_y, 32, &mut rng) {
                let mut sess = Session::new(&net.params, Mode::Train, rng.fork(1));
                let x = sess.input(xb);
                let z = net.model.forward(&mut sess, x);
                let loss = sess.tape.softmax_cross_entropy(z, &one_hot(&yb, 10));
                let grads = sess.backward(loss);
                opt.step(&mut net.params, &grads);
            }
        }
        assert!(
            net.accuracy_on(&ds.test_x, &ds.test_y) > 0.8,
            "fixture net failed to train"
        );
        (net, ds.test_x, ds.test_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_section_4c() {
        let small = AttackBudget::for_28x28();
        assert_eq!(small.eps, 0.6);
        assert_eq!(small.bim_step, 0.1);
        assert_eq!(small.pgd_step, 0.02);
        assert_eq!(small.pgd_iters, 40);
        let big = AttackBudget::for_32x32();
        assert_eq!(big.eps, 0.06);
        assert_eq!(big.bim_step, 0.016);
        assert_eq!(big.pgd_step, 0.016);
        assert_eq!(big.pgd_iters, 20);
    }

    #[test]
    fn training_variant_keeps_ball_but_cuts_iters() {
        let b = AttackBudget::for_28x28().training_variant(7);
        assert_eq!(b.eps, 0.6);
        assert_eq!(b.pgd_iters, 7);
        assert!(b.pgd_step * 7.0 >= b.eps, "steps must span the ball");
    }

    #[test]
    fn project_enforces_both_constraints() {
        let origin = Tensor::from_vec(vec![3], vec![0.0, 0.9, -0.9]);
        let wild = Tensor::from_vec(vec![3], vec![5.0, 2.0, -3.0]);
        let p = project(&wild, &origin, 0.5);
        assert_eq!(p.as_slice(), &[0.5, 1.0, -1.0]);
        // Idempotent.
        assert_eq!(project(&p, &origin, 0.5), p);
    }
}
