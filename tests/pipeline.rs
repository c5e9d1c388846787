//! End-to-end pipeline tests: every defense trains on every dataset family
//! without panicking, produces a sane report, and only the GAN defenses
//! return a discriminator artifact.

use zk_gandef_repro::data::{generate, DatasetKind, GenSpec};
use zk_gandef_repro::defense::defense::{AdvTraining, Clp, Cls, Defense, GanDef, Vanilla};
use zk_gandef_repro::defense::{classifier_for, TrainConfig};
use zk_gandef_repro::nn::{zoo, Net};
use zk_gandef_repro::tensor::rng::Prng;

fn all_defenses() -> Vec<Box<dyn Defense>> {
    vec![
        Box::new(Vanilla),
        Box::new(Clp),
        Box::new(Cls),
        Box::new(GanDef::zero_knowledge()),
        Box::new(AdvTraining::fgsm()),
        Box::new(AdvTraining::pgd()),
        Box::new(GanDef::pgd()),
    ]
}

#[test]
fn every_defense_trains_on_mlp_digits() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 120,
            test: 16,
            seed: 2,
        },
    );
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 2;
    cfg.train_pgd_iters = 3;
    for defense in all_defenses() {
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::mlp(28 * 28, 24, 10), &mut rng);
        let before = net.params.get("fc1.w").clone();
        let report = defense.train(&mut net, &ds, &cfg, &mut rng);
        assert_eq!(report.epoch_losses.len(), 2, "{}", defense.name());
        assert_eq!(report.epoch_seconds.len(), 2, "{}", defense.name());
        assert!(
            report.epoch_seconds.iter().all(|&s| s > 0.0),
            "{} epochs must take time",
            defense.name()
        );
        assert_ne!(
            &before,
            net.params.get("fc1.w"),
            "{} did not update parameters",
            defense.name()
        );
        let is_gan = matches!(defense.name(), "ZK-GanDef" | "PGD-GanDef");
        assert_eq!(
            report.discriminator.is_some(),
            is_gan,
            "{} discriminator artifact mismatch",
            defense.name()
        );
    }
}

#[test]
fn every_defense_trains_on_conv_architectures() {
    // One batch-sized split per dataset family exercises LeNet and AllCNN
    // end to end (conv forward/backward, pooling, dropout, GAN wiring).
    for kind in [DatasetKind::SynthDigits, DatasetKind::SynthCifar] {
        let ds = generate(
            kind,
            &GenSpec {
                train: 48,
                test: 8,
                seed: 3,
            },
        );
        let mut cfg = TrainConfig::quick(kind);
        cfg.epochs = 1;
        cfg.train_pgd_iters = 2;
        for defense in all_defenses() {
            let mut rng = Prng::new(0);
            let mut net = classifier_for(kind, &mut rng);
            let report = defense.train(&mut net, &ds, &cfg, &mut rng);
            assert!(
                report.final_loss().is_finite() || matches!(defense.name(), "CLP" | "CLS"),
                "{} diverged on {kind} (only CLP/CLS are allowed to, per §V-D)",
                defense.name()
            );
            // The trained net still produces valid logits.
            let z = zk_gandef_repro::nn::Classifier::logits(&net, &ds.test_x);
            assert_eq!(z.shape().dims(), &[8, 10]);
        }
    }
}

#[test]
fn train_reports_support_figure5_statistics() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 120,
            test: 8,
            seed: 4,
        },
    );
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 3;
    let mut rng = Prng::new(0);
    let mut net = Net::new(zoo::mlp(28 * 28, 24, 10), &mut rng);
    let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);
    let mean = report.mean_epoch_seconds().expect("3 epochs recorded");
    assert!(mean > 0.0);
    assert!(report.total_seconds() >= mean * 2.9);
    // Vanilla on clean digits must actually descend.
    assert!(
        !report.failed_to_converge(0.05),
        "{:?}",
        report.epoch_losses
    );
}
