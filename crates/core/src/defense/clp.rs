//! Clean Logit Pairing (Kannan et al. \[7\]) — Figure 2a.
//!
//! Trains on *pairs* of Gaussian-perturbed examples only (no clean inputs).
//! The loss is
//!
//! ```text
//! L_CLP(C) = L(C(x̂₁), t̂₁) + L(C(x̂₂), t̂₂) + λ · l2(C(x̂₁) − C(x̂₂))²
//! ```
//!
//! pushing the logits of *different* randomly paired examples toward each
//! other. §V-D of the paper shows this design is too rigid: on the complex
//! dataset the training loss diverges to NaN.

use super::{train_loop, Batch, Defense, TrainReport};
use crate::TrainConfig;
use gandef_data::{preprocess, Dataset};
use gandef_nn::{one_hot, Mode, Net, Session};
use gandef_tensor::rng::Prng;

/// The CLP zero-knowledge defense.
#[derive(Clone, Copy, Debug, Default)]
pub struct Clp;

impl Defense for Clp {
    fn name(&self) -> &'static str {
        "CLP"
    }

    fn train(&self, net: &mut Net, ds: &Dataset, cfg: &TrainConfig, rng: &mut Prng) -> TrainReport {
        let classes = ds.kind.classes();
        train_loop(self.name(), net, ds, cfg, rng, &mut |b: Batch<'_>| {
            let n = b.x.dim(0);
            if n < 2 {
                return None; // pairing needs at least two examples
            }
            let half = n / 2;
            // Random pairing: the shuffled batch is split in half, each half
            // perturbed independently (only perturbed examples — CLP never
            // sees clean inputs, Figure 2a).
            let x1 = preprocess::gaussian_perturb(&b.x.slice_rows(0, half), cfg.sigma, b.rng);
            let x2 =
                preprocess::gaussian_perturb(&b.x.slice_rows(half, 2 * half), cfg.sigma, b.rng);
            let t1 = one_hot(&b.y[..half], classes);
            let t2 = one_hot(&b.y[half..2 * half], classes);

            let mut sess = Session::new(&b.net.params, Mode::Train, b.rng.fork(0xC2));
            let x1v = sess.input(x1);
            let x2v = sess.input(x2);
            let z1 = b.net.model.forward(&mut sess, x1v);
            let z2 = b.net.model.forward(&mut sess, x2v);
            let ce1 = sess.tape.softmax_cross_entropy(z1, &t1);
            let ce2 = sess.tape.softmax_cross_entropy(z2, &t2);
            let diff = sess.tape.sub(z1, z2);
            let pair_pen = sess.tape.l2_sq_mean_rows(diff);
            let ce = sess.tape.add(ce1, ce2);
            let pen = sess.tape.scale(pair_pen, cfg.lambda);
            let total = sess.tape.add(ce, pen);
            Some((sess, total))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_data::{generate, DatasetKind, GenSpec};
    use gandef_nn::{zoo, Net};

    fn small_run(sigma: f32, lambda: f32) -> (Net, TrainReport, Dataset) {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 300,
                test: 60,
                seed: 2,
            },
        );
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::mlp(28 * 28, 48, 10), &mut rng);
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_sigma_lambda(sigma, lambda);
        cfg.epochs = 8;
        cfg.lr = 0.003;
        let report = Clp.train(&mut net, &ds, &cfg, &mut rng);
        (net, report, ds)
    }

    #[test]
    fn trains_on_digits_with_mild_hyperparameters() {
        // With σ = 0.3 the perturbed digits stay recognizable and a mild
        // λ = 0.05 does not collapse the logits; CLP learns.
        let (net, report, ds) = small_run(0.3, 0.05);
        assert_eq!(report.epoch_losses.len(), 8);
        assert!(report.final_loss().is_finite());
        assert!(
            net.accuracy_on(&ds.test_x, &ds.test_y) > 0.5,
            "CLP learned nothing at (σ=0.3, λ=0.05): {}",
            net.accuracy_on(&ds.test_x, &ds.test_y)
        );
    }

    #[test]
    fn paper_hyperparameters_collapse_training() {
        // §V-D's core finding in miniature: at the paper's (σ = 1, λ = 0.4)
        // the pairing penalty homogenizes logits across *different* classes
        // and cross-entropy never escapes the uniform plateau.
        let (net, report, ds) = small_run(1.0, 0.4);
        let acc = net.accuracy_on(&ds.test_x, &ds.test_y);
        assert!(
            report.failed_to_converge(0.5) || acc < 0.5,
            "expected the CLP pathology, got acc {acc} and losses {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn pairing_penalty_contributes_to_loss() {
        // λ = 0 vs λ = 5: the penalized run must report higher loss early.
        let (_, with_pen, _) = small_run(0.3, 5.0);
        let (_, without, _) = small_run(0.3, 0.0);
        assert!(
            with_pen.epoch_losses[0] > without.epoch_losses[0],
            "λ had no effect: {} vs {}",
            with_pen.epoch_losses[0],
            without.epoch_losses[0]
        );
    }
}
