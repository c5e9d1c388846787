//! Projected Gradient Descent (Madry et al. \[14\]): BIM with a random
//! start inside the `ε`-ball. §II-A: the random restart exploits the
//! "surprisingly tractable structure" of the loss landscape and yields
//! stronger examples than BIM. PGD is also the generator behind the
//! state-of-the-art full-knowledge defense (PGD-Adv).

use crate::{project, Attack};
use gandef_nn::{one_hot, Classifier};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// PGD: random initialization in the ball, then iterative sign-gradient
/// ascent with projection.
#[derive(Clone, Copy, Debug)]
pub struct Pgd {
    eps: f32,
    step: f32,
    iters: usize,
}

impl Pgd {
    /// Creates PGD (§IV-C: `40 × 0.02` on 28×28, `20 × 0.016` on 32×32),
    /// with a single random start.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are positive.
    pub fn new(eps: f32, step: f32, iters: usize) -> Self {
        assert!(eps > 0.0 && step > 0.0 && iters > 0, "invalid PGD config");
        Pgd { eps, step, iters }
    }
}

impl Attack for Pgd {
    fn name(&self) -> &str {
        "PGD"
    }

    fn perturb(
        &self,
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        rng: &mut Prng,
    ) -> Tensor {
        let targets = one_hot(labels, model.num_classes());
        let noise = rng.uniform_tensor(x.shape().dims(), -self.eps, self.eps);
        let mut adv = project(&x.add(&noise), x, self.eps);
        for _ in 0..self.iters {
            let (_, grad) = model.ce_input_grad(&adv, &targets);
            adv = adv.add(&grad.signum().scale(self.step));
            adv = project(&adv, x, self.eps);
        }
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::trained_digits_net;
    use crate::{Bim, Fgsm};
    use gandef_nn::accuracy;

    #[test]
    fn constraints_hold() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 8);
        let adv = Pgd::new(0.6, 0.02, 10).perturb(&net, &x, &y[..8], &mut Prng::new(0));
        assert!(adv.sub(&x).linf_norm() <= 0.6 + 1e-5);
        assert!(adv.min_value() >= -1.0 && adv.max_value() <= 1.0);
    }

    #[test]
    fn at_least_as_strong_as_bim_and_fgsm() {
        // The paper's hierarchy on a Vanilla classifier (Table III row 1):
        // PGD ≤ BIM ≤ FGSM in surviving accuracy.
        let (net, x, y) = trained_digits_net();
        let mut rng = Prng::new(0);
        let fgsm_acc = accuracy(
            &net.predict(&Fgsm::new(0.6).perturb(&net, &x, &y, &mut rng)),
            &y,
        );
        let bim_acc = accuracy(
            &net.predict(&Bim::new(0.6, 0.1, 8).perturb(&net, &x, &y, &mut rng)),
            &y,
        );
        let pgd_acc = accuracy(
            &net.predict(&Pgd::new(0.6, 0.02, 40).perturb(&net, &x, &y, &mut rng)),
            &y,
        );
        assert!(pgd_acc <= bim_acc + 0.05, "PGD {pgd_acc} vs BIM {bim_acc}");
        assert!(
            bim_acc <= fgsm_acc + 0.05,
            "BIM {bim_acc} vs FGSM {fgsm_acc}"
        );
        assert!(
            pgd_acc < 0.15,
            "PGD should devastate a Vanilla net, got {pgd_acc}"
        );
    }

    #[test]
    fn random_start_depends_on_rng() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 4);
        let attack = Pgd::new(0.6, 0.02, 2);
        let a = attack.perturb(&net, &x, &y[..4], &mut Prng::new(0));
        let b = attack.perturb(&net, &x, &y[..4], &mut Prng::new(1));
        assert_ne!(a, b, "different seeds must explore different starts");
        // Same seed reproduces exactly.
        let c = attack.perturb(&net, &x, &y[..4], &mut Prng::new(0));
        assert_eq!(a, c);
    }
}
