//! Quickstart: the full pipeline in one file — generate data, train an
//! undefended LeNet, break it with white-box FGSM, then train the same
//! architecture with ZK-GanDef (Algorithm 1) and watch it resist.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Takes a couple of minutes on a laptop CPU. For the complete grid over
//! all seven defenses, four example types and three datasets, run
//! `cargo run --release -p gandef-bench --bin table3`.

use zk_gandef_repro::attack::{Attack, Fgsm};
use zk_gandef_repro::data::{generate, DatasetKind, GenSpec};
use zk_gandef_repro::defense::defense::{Defense, GanDef, Vanilla};
use zk_gandef_repro::defense::{classifier_for, TrainConfig};
use zk_gandef_repro::nn::{accuracy, Classifier};
use zk_gandef_repro::tensor::rng::Prng;

fn main() {
    // 1. Data: the MNIST stand-in, already scaled to [-1, 1].
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 1500,
            test: 100,
            seed: 42,
        },
    );
    println!("dataset: {:?}", ds);

    // 2. A training recipe (paper hyper-parameters, CPU-scaled epochs).
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 24;

    // 3. Train the undefended baseline (the paper's Vanilla classifier).
    let mut rng = Prng::new(0);
    let mut vanilla = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let t = std::time::Instant::now();
    Vanilla.train(&mut vanilla, &ds, &cfg, &mut rng);
    println!("Vanilla trained in {:.0?}", t.elapsed());

    // 4. Train the same architecture with ZK-GanDef (Algorithm 1): a
    //    discriminator reads the logits and the classifier learns to hide
    //    the clean-vs-perturbed signal from it.
    let mut rng = Prng::new(0);
    let mut defended = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let report = GanDef::zero_knowledge().train(&mut defended, &ds, &cfg, &mut rng);
    println!(
        "ZK-GanDef trained {} epochs in {:.1}s ({:.2}s/epoch; discriminator attached: {})",
        report.epoch_losses.len(),
        report.total_seconds(),
        report.mean_epoch_seconds().unwrap_or(f64::NAN),
        report.discriminator.is_some()
    );

    // 5. Attack both with white-box FGSM at the paper's ε = 0.6.
    let attack = Fgsm::new(cfg.budget.eps);
    let mut arng = Prng::new(7);
    println!();
    for (name, net) in [("Vanilla", &vanilla), ("ZK-GanDef", &defended)] {
        let clean_acc = accuracy(&net.predict(&ds.test_x), &ds.test_y);
        let adv = attack.perturb(net, &ds.test_x, &ds.test_y, &mut arng);
        let adv_acc = accuracy(&net.predict(&adv), &ds.test_y);
        println!(
            "{name:<10} clean {:>5.1}%   FGSM(ε=0.6) {:>5.1}%",
            clean_acc * 100.0,
            adv_acc * 100.0
        );
    }
    println!("\nZK-GanDef never saw an adversarial example during training.");
}
