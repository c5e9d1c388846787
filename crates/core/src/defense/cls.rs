//! Clean Logit Squeezing (Kannan et al. \[7\]) — Figure 2b.
//!
//! Trains on individually Gaussian-perturbed examples with a penalty on the
//! logit norm itself:
//!
//! ```text
//! L_CLS(C) = L(C(x̂), t̂) + λ · l2(C(x̂))²
//! ```
//!
//! "Squeezing" the logits prevents over-confident predictions. Like CLP the
//! design is simple and inflexible; Figure 5 (right) shows its loss staying
//! flat on the complex dataset under the paper's `(σ = 1, λ = 0.4)`
//! setting.

use super::{train_loop, Batch, Defense, TrainReport};
use crate::TrainConfig;
use gandef_data::{preprocess, Dataset};
use gandef_nn::{one_hot, Mode, Net, Session};
use gandef_tensor::rng::Prng;

/// The CLS zero-knowledge defense.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cls;

impl Defense for Cls {
    fn name(&self) -> &'static str {
        "CLS"
    }

    fn train(&self, net: &mut Net, ds: &Dataset, cfg: &TrainConfig, rng: &mut Prng) -> TrainReport {
        let classes = ds.kind.classes();
        train_loop(self.name(), net, ds, cfg, rng, &mut |b: Batch<'_>| {
            // Only perturbed inputs (Figure 2b).
            let xp = preprocess::gaussian_perturb(&b.x, cfg.sigma, b.rng);
            let mut sess = Session::new(&b.net.params, Mode::Train, b.rng.fork(0xC3));
            let x = sess.input(xp);
            let z = b.net.model.forward(&mut sess, x);
            let ce = sess.tape.softmax_cross_entropy(z, &one_hot(&b.y, classes));
            let squeeze = sess.tape.l2_sq_mean_rows(z);
            let pen = sess.tape.scale(squeeze, cfg.lambda);
            let total = sess.tape.add(ce, pen);
            Some((sess, total))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_data::{generate, DatasetKind, GenSpec};
    use gandef_nn::{zoo, Classifier, Net};
    use gandef_tensor::Tensor;

    fn run(sigma: f32, lambda: f32, epochs: usize) -> (Net, TrainReport, Dataset) {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 300,
                test: 60,
                seed: 3,
            },
        );
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::mlp(28 * 28, 48, 10), &mut rng);
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_sigma_lambda(sigma, lambda);
        cfg.epochs = epochs;
        cfg.lr = 0.003;
        let report = Cls.train(&mut net, &ds, &cfg, &mut rng);
        (net, report, ds)
    }

    #[test]
    fn learns_under_reduced_perturbation_and_penalty() {
        // Figure 5 (right), fourth setting: (σ = 0.1, λ = 0.01) converges.
        let (net, report, ds) = run(0.1, 0.01, 8);
        assert!(!report.failed_to_converge(0.05));
        assert!(
            net.accuracy_on(&ds.test_x, &ds.test_y) > 0.6,
            "CLS at (0.1, 0.01) should behave like Vanilla"
        );
    }

    #[test]
    fn squeezing_shrinks_logit_norms() {
        let (squeezed, _, ds) = run(0.1, 1.0, 8);
        let (free, _, _) = run(0.1, 0.0, 8);
        let probe = ds.test_x.slice_rows(0, 32);
        let norm = |net: &Net, x: &Tensor| net.logits(x).square().mean();
        assert!(
            norm(&squeezed, &probe) < norm(&free, &probe) * 0.5,
            "λ=1 logits not squeezed: {} vs {}",
            norm(&squeezed, &probe),
            norm(&free, &probe)
        );
    }
}
