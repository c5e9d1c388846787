//! GAN-based adversarial training — the paper's contribution (Figure 2c,
//! Algorithm 1).
//!
//! A classifier `C` and the Table-II discriminator `D` play the minimax
//! game
//!
//! ```text
//! min_C max_D  E_{x,t}[−log q_C(z|x)] − γ·E_{z,s}[−log q_D(s|z = C(x))]
//! ```
//!
//! where `s` indicates whether `C`'s input was an original or a perturbed
//! example. `D` reads only the pre-softmax logits `z`; to beat it, `C` must
//! produce logits that carry no trace of the perturbation — i.e. rely on
//! **perturbation-invariant features** (Proposition 1).
//!
//! Two variants share this trainer, differing only in the perturbation
//! source:
//!
//! * [`GanDef::zero_knowledge`] — **ZK-GanDef**: Gaussian noise (`σ` from
//!   the config). Zero knowledge: training never sees an adversarial
//!   example.
//! * [`GanDef::pgd`] — **PGD-GanDef**: PGD examples generated against the
//!   current classifier each batch. Full knowledge; the paper's strongest
//!   GAN baseline.

use super::{half_perturbed, train_loop, training_pgd, Batch, Defense, Step, TrainReport};
use crate::TrainConfig;
use gandef_attack::Attack;
use gandef_autodiff::VarId;
use gandef_data::{preprocess, Dataset};
use gandef_nn::optim::{Adam, Optimizer};
use gandef_nn::{one_hot, zoo, Mode, Net, Params, Session};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Upper bound on the classifier's adversarial reward `BCE(D(z), s)`, in
/// nats. Chance level is `ln 2 ≈ 0.69`; past ~3 the discriminator is
/// already maximally fooled and further logit inflation only harms the
/// classifier.
const ADV_REWARD_CAP: f32 = 3.0;

/// Perturbation source feeding the minimax game.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// Gaussian noise — zero-knowledge (ZK-GanDef).
    Gaussian,
    /// PGD adversarial examples — full-knowledge (PGD-GanDef).
    Pgd,
}

/// The GAN-based adversarial training defense (ZK-GanDef / PGD-GanDef).
#[derive(Clone, Debug)]
pub struct GanDef {
    source: Source,
}

impl GanDef {
    /// ZK-GanDef: the zero-knowledge variant trained on Gaussian
    /// perturbations (the paper's headline defense).
    pub fn zero_knowledge() -> Self {
        GanDef {
            source: Source::Gaussian,
        }
    }

    /// PGD-GanDef: the full-knowledge variant trained on PGD examples.
    pub fn pgd() -> Self {
        GanDef {
            source: Source::Pgd,
        }
    }
}

impl Defense for GanDef {
    fn name(&self) -> &'static str {
        match self.source {
            Source::Gaussian => "ZK-GanDef",
            Source::Pgd => "PGD-GanDef",
        }
    }

    /// Algorithm 1 of the paper: alternating discriminator / classifier
    /// updates over mixed batches of original and perturbed examples.
    fn train(&self, net: &mut Net, ds: &Dataset, cfg: &TrainConfig, rng: &mut Prng) -> TrainReport {
        let classes = ds.kind.classes();
        // Line 1: initialize weight parameters in both networks.
        let disc = Net::with_classes(zoo::discriminator(classes), 1, &mut rng.fork(0xD0));
        let mut game = Minimax {
            source: self.source,
            cfg,
            classes,
            // γ warm-up: ramp the discriminator term in over the first
            // quarter of training. Starting the minimax at full strength can
            // trap the classifier in the degenerate constant-logits
            // equilibrium (z independent of x fools D perfectly *and*
            // abandons classification); letting CE win first makes that
            // point unattractive. Standard GAN stabilization; see DESIGN.md
            // §7. γ needs no checkpoint: it is derived from the epoch index.
            warmup: (cfg.epochs / 4).max(1),
            disc,
            opt_d: Adam::new(cfg.disc_lr), // §IV-D-2: Adam, lr 0.001
        };
        let mut report = train_loop(self.name(), net, ds, cfg, rng, &mut game);
        report.discriminator = Some(game.disc);
        report
    }
}

/// One GanDef training run's minimax game: the step of Algorithm 1 (line 2:
/// one global iteration per batch), carrying the discriminator and its Adam
/// from batch to batch.
struct Minimax<'a> {
    source: Source,
    cfg: &'a TrainConfig,
    classes: usize,
    warmup: usize,
    disc: Net,
    opt_d: Adam,
}

impl Step for Minimax<'_> {
    fn loss(&mut self, b: Batch<'_>) -> Option<(Session, VarId)> {
        let cfg = self.cfg;
        let gamma = cfg.gamma * ((b.epoch as f32 + 1.0) / self.warmup as f32).min(1.0);
        // Lines 4–5 / 9–10: evenly sampled originals and perturbed examples
        // with their source indicator s (0 = original x̄, 1 = perturbed x̂).
        let mixed = half_perturbed(&b.x, &b.y, |x, y| match self.source {
            Source::Gaussian => preprocess::gaussian_perturb(x, cfg.sigma, b.rng),
            Source::Pgd => training_pgd(cfg).perturb(b.net, x, y, b.rng),
        })?;
        let (n, half) = (mixed.dim(0), mixed.dim(0) / 2);
        let targets = one_hot(&b.y, self.classes);
        let s = Tensor::from_fn(&[n, 1], |i| if i < half { 0.0 } else { 1.0 });
        let (net, disc, opt_d) = (b.net, &mut self.disc, &mut self.opt_d);
        // The rng forks keep Algorithm 1's order: one per discriminator
        // iteration, then the classifier iteration's.
        let disc_rngs: Vec<Prng> = (0..cfg.disc_steps).map(|_| b.rng.fork(0xD1)).collect();
        // The classifier's forward pass is recorded once, on the classifier
        // iteration's tape; the discriminator iterations read its logits.
        let mut sess = Session::new(&net.params, Mode::Train, b.rng.fork(0xD2));
        let x = sess.input(mixed);
        let z = net.model.forward(&mut sess, x);

        // Lines 3–8: discriminator iterations. The classifier is frozen
        // (line 6: "Fix Ω_C"): each iteration trains on a detached copy of
        // z, in a session of its own.
        for rng in disc_rngs {
            let mut d_sess = Session::new(&disc.params, Mode::Train, rng);
            let z_frozen = d_sess.input(sess.tape.value(z).clone());
            let d_out = disc.model.forward(&mut d_sess, z_frozen);
            // Line 7: update Ω_D to maximize log-likelihood of s given z ⇔
            // minimize BCE.
            let d_loss = d_sess.tape.bce_with_logits(d_out, &s);
            opt_d.step(&mut disc.params, &d_sess.backward(d_loss));
        }

        // Lines 9–12: classifier iteration against the updated
        // discriminator, bound after the classifier so the loop's
        // first-store backward leaves it frozen (line 11: "Fix Ω_D"): no
        // discriminator gradient is computed.
        sess.bind(&disc.params);
        let ce = sess.tape.softmax_cross_entropy(z, &targets);
        let d_out = disc.model.forward(&mut sess, z);
        let d_bce = sess.tape.bce_with_logits(d_out, &s);
        // J(C) = CE − γ·BCE(D(z), s): the classifier classifies well while
        // *hiding* s from D. The reward −BCE is unbounded (once D lags, C can
        // inflate its logits without limit and destroy clean accuracy), so we
        // cap the BCE term at ADV_REWARD_CAP: past that point D is thoroughly
        // fooled and no further pressure is applied until D recovers (see
        // DESIGN.md §7). Capping keeps the paper's gradients intact near
        // equilibrium — chance-level BCE is ln 2 ≈ 0.69, well below the cap.
        let d_capped = sess.tape.clamp_max(d_bce, ADV_REWARD_CAP);
        let neg = sess.tape.scale(d_capped, -gamma);
        let total = sess.tape.add(ce, neg);
        Some((sess, total))
    }

    fn co_trained(&mut self) -> Option<(&mut Params, &mut Adam)> {
        Some((&mut self.disc.params, &mut self.opt_d))
    }
}

#[cfg(test)]
mod tests {
    use super::super::cpu_time_ratio;
    use super::*;
    use gandef_data::{generate, DatasetKind, GenSpec};
    use gandef_nn::Classifier;

    fn digits() -> Dataset {
        generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 400,
                test: 80,
                seed: 4,
            },
        )
    }

    fn mlp_net(rng: &mut Prng) -> Net {
        Net::new(zoo::mlp(28 * 28, 48, 10), rng)
    }

    #[test]
    fn zk_gandef_learns_and_returns_discriminator() {
        let ds = digits();
        let mut rng = Prng::new(0);
        let mut net = mlp_net(&mut rng);
        // The default γ = 3 is line-searched for LeNet-scale runs; this
        // 48-unit MLP fixture needs gentler invariance pressure to learn
        // in 8 epochs.
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_gamma(0.5);
        cfg.epochs = 8;
        cfg.lr = 0.003;
        let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
        assert_eq!(report.defense, "ZK-GanDef");
        assert!(report.discriminator.is_some());
        assert!(
            net.accuracy_on(&ds.test_x, &ds.test_y) > 0.6,
            "ZK-GanDef failed to learn clean digits: {}",
            net.accuracy_on(&ds.test_x, &ds.test_y)
        );
    }

    #[test]
    fn classifier_fights_discriminator_when_gamma_positive() {
        // Proposition-1 mechanism at MLP scale: with γ = 0 the classifier
        // never hides the source, so the co-trained discriminator keeps an
        // information advantage over (z, s); with γ > 0 the classifier
        // actively suppresses that signal, so the surviving advantage must
        // be smaller.
        let ds = digits();
        let mut base = TrainConfig::quick(DatasetKind::SynthDigits);
        base.epochs = 12;
        base.lr = 0.003;
        base.disc_steps = 2;

        let advantage_for = |gamma: f32| {
            let cfg = base.clone().with_gamma(gamma);
            let mut rng = Prng::new(0);
            let mut net = mlp_net(&mut rng);
            let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
            let disc = report.discriminator.unwrap();
            crate::analysis::entropy_diagnostics(
                &net,
                &disc,
                &ds.test_x,
                cfg.sigma,
                &mut Prng::new(3),
            )
            .discriminator_advantage()
        };
        let adv_free = advantage_for(0.0);
        let adv_fought = advantage_for(2.0);
        assert!(
            adv_fought < adv_free,
            "discriminator advantage should shrink when the classifier fights: \
             gamma=0 -> {adv_free}, gamma=2 -> {adv_fought}"
        );
    }

    #[test]
    fn gamma_zero_reduces_to_plain_adversarial_training() {
        // §III-D: "When γ = 0, ZK-GanDef is the same as traditional
        // adversarial training" — the discriminator must receive no
        // classifier influence; training still works.
        let ds = digits();
        let mut rng = Prng::new(0);
        let mut net = mlp_net(&mut rng);
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_gamma(0.0);
        cfg.epochs = 6;
        cfg.lr = 0.003;
        let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
        assert!(!report.failed_to_converge(0.05));
        assert!(net.accuracy_on(&ds.test_x, &ds.test_y) > 0.5);
    }

    #[test]
    fn pgd_variant_is_slower_per_epoch() {
        // Figure 5's mechanism: PGD-GanDef pays for iterative example
        // generation inside every batch. With 14 PGD steps the ratio is
        // about 4 in both the dev and the release profile, clear of the
        // bar; with 7 it was within timing noise of it in release.
        let ds = digits();
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
        cfg.epochs = 2;
        cfg.train_pgd_iters = 14;

        let ratio = cpu_time_ratio(
            &GanDef::pgd(),
            &GanDef::zero_knowledge(),
            &ds,
            &cfg,
            mlp_net,
        );
        assert!(
            ratio > 2.0,
            "PGD-GanDef takes {ratio:.2}x ZK-GanDef's CPU time"
        );
    }

    #[test]
    fn discriminator_learns_to_separate_sources_when_classifier_is_frozen() {
        // With γ = 0 the classifier never fights back; D should reach
        // better-than-chance accuracy on (z, s) pairs.
        let ds = digits();
        let mut rng = Prng::new(0);
        let mut net = mlp_net(&mut rng);
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_gamma(0.0);
        cfg.epochs = 8;
        cfg.lr = 0.003;
        cfg.disc_steps = 3;
        let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
        let disc = report.discriminator.unwrap();

        // Build a held-out (z, s) evaluation set.
        let x = ds.test_x.slice_rows(0, 64);
        let mut prng = Prng::new(5);
        let xp = preprocess::gaussian_perturb(&x, cfg.sigma, &mut prng);
        let z_clean = net.logits(&x);
        let z_pert = net.logits(&xp);
        let score = |z: &Tensor| disc.logits(z);
        let clean_scores = score(&z_clean);
        let pert_scores = score(&z_pert);
        // Count correct source decisions at threshold 0.
        let mut correct = 0;
        for i in 0..64 {
            if clean_scores.at(&[i, 0]) < 0.0 {
                correct += 1;
            }
            if pert_scores.at(&[i, 0]) > 0.0 {
                correct += 1;
            }
        }
        let acc = correct as f32 / 128.0;
        assert!(acc > 0.6, "discriminator no better than chance: {acc}");
    }
}
