//! Momentum Iterative Method (Dong et al., CVPR 2018): BIM with an
//! accumulated, `l1`-normalized gradient direction.
//!
//! The paper argues ZK-GanDef "is adaptable to new types of adversarial
//! examples" because its training never conditions on a specific
//! generator (§V-A). MIM post-dates the defenses the paper trains against,
//! which makes it exactly the kind of "new attack" that adaptivity claim
//! is about — `table3`'s black-box transfer rows (`transfer_attack.csv`)
//! use it.

use crate::{project, Attack};
use gandef_nn::{one_hot, Classifier};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// MIM: iterative sign-gradient ascent on a momentum-accumulated
/// direction.
#[derive(Clone, Copy, Debug)]
pub struct Mim {
    eps: f32,
    step: f32,
    iters: usize,
}

impl Mim {
    /// Creates MIM with ball radius `eps`, per-step size `step`, `iters`
    /// iterations and the canonical momentum decay `μ = 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `eps`, `step` and `iters` are positive.
    pub fn new(eps: f32, step: f32, iters: usize) -> Self {
        assert!(eps > 0.0 && step > 0.0 && iters > 0, "invalid MIM config");
        Mim { eps, step, iters }
    }
}

impl Attack for Mim {
    fn name(&self) -> &str {
        "MIM"
    }

    fn perturb(
        &self,
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        _rng: &mut Prng,
    ) -> Tensor {
        let targets = one_hot(labels, model.num_classes());
        let n = x.dim(0);
        let row = x.numel() / n;
        let mut adv = x.clone();
        let mut momentum = Tensor::zeros(x.shape().dims());
        for _ in 0..self.iters {
            let (_, grad) = model.ce_input_grad(&adv, &targets);
            // Per-sample l1 normalization of the fresh gradient (owned, so
            // normalize in place), then momentum accumulation at μ = 1:
            // g ← g + ∇/‖∇‖₁.
            let mut normed = grad;
            for i in 0..n {
                let slice = &mut normed.as_mut_slice()[i * row..(i + 1) * row];
                let l1: f32 = slice.iter().map(|v| v.abs()).sum::<f32>().max(1e-12);
                for v in slice.iter_mut() {
                    *v /= l1;
                }
            }
            momentum = momentum.add(&normed);
            adv = adv.add(&momentum.signum().scale(self.step));
            adv = project(&adv, x, self.eps);
        }
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::trained_digits_net;
    use crate::Fgsm;
    use gandef_nn::accuracy;

    #[test]
    fn constraints_hold() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 8);
        let adv = Mim::new(0.6, 0.1, 8).perturb(&net, &x, &y[..8], &mut Prng::new(0));
        assert!(adv.sub(&x).linf_norm() <= 0.6 + 1e-5);
        assert!(adv.min_value() >= -1.0 && adv.max_value() <= 1.0);
        assert!(adv.is_finite());
    }

    #[test]
    fn at_least_as_strong_as_fgsm() {
        let (net, x, y) = trained_digits_net();
        let mut rng = Prng::new(0);
        let fgsm_acc = accuracy(
            &net.predict(&Fgsm::new(0.6).perturb(&net, &x, &y, &mut rng)),
            &y,
        );
        let mim_acc = accuracy(
            &net.predict(&Mim::new(0.6, 0.1, 8).perturb(&net, &x, &y, &mut rng)),
            &y,
        );
        assert!(
            mim_acc <= fgsm_acc + 0.05,
            "MIM ({mim_acc}) should not be weaker than FGSM ({fgsm_acc})"
        );
        assert!(
            mim_acc < 0.2,
            "MIM should devastate a Vanilla net, got {mim_acc}"
        );
    }
}
