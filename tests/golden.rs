//! Golden training trajectories: each of the seven defenses, trained for
//! two epochs under f64 accumulation, must reproduce pinned values bit for
//! bit — the classifier's weight fingerprint, every epoch loss, the
//! discriminator's fingerprint (GAN defenses) and the training RNG's next
//! draw. The resume tests only compare runs against each other; this file
//! compares them against fixed values, so any change to what a trainer
//! computes, or to the order it draws randomness, shows up here.
//!
//! The 97-row training split leaves a 1-row last batch at batch size 32,
//! which exercises the pairing skip of the half-batch trainers. On a
//! mismatch the test prints the fresh rows in the table's own syntax.

use zk_gandef_repro::data::{generate, Dataset, DatasetKind, GenSpec};
use zk_gandef_repro::defense::defense::{AdvTraining, Clp, Cls, Defense, GanDef, Vanilla};
use zk_gandef_repro::defense::TrainConfig;
use zk_gandef_repro::nn::run_state::params_fingerprint;
use zk_gandef_repro::nn::{zoo, Net};
use zk_gandef_repro::tensor::accum::{with_accum, Accum};
use zk_gandef_repro::tensor::rng::Prng;

/// One defense's pinned trajectory.
#[derive(Debug, PartialEq)]
struct Golden {
    defense: &'static str,
    model: u64,
    /// `f32::to_bits` of each epoch's mean loss.
    losses: [u32; 2],
    disc: Option<u64>,
    next_rng: u64,
}

const GOLDEN: [Golden; 7] = [
    Golden {
        defense: "Vanilla",
        model: 0xedf96262edc05165,
        losses: [0x4031c060, 0x400dbb3a],
        disc: None,
        next_rng: 0x056bf5378c73df10,
    },
    Golden {
        defense: "CLP",
        model: 0x0dd34fb5ceaa8c96,
        losses: [0x40c9e301, 0x40953003],
        disc: None,
        next_rng: 0x32187842ab5f6b76,
    },
    Golden {
        defense: "CLS",
        model: 0xa3ff00e74ba39d5a,
        losses: [0x40551167, 0x4013db6e],
        disc: None,
        next_rng: 0x005ffccb284b3d69,
    },
    Golden {
        defense: "ZK-GanDef",
        model: 0xd46694c16fb87ee2,
        losses: [0x3e22067b, 0xbf22755b],
        disc: Some(0x10f8028d8fcdde0c),
        next_rng: 0x72518b2ad6065335,
    },
    Golden {
        defense: "FGSM-Adv",
        model: 0x42845035a8d52bdc,
        losses: [0x408d947c, 0x40132ef0],
        disc: None,
        next_rng: 0x32b78f809916de13,
    },
    Golden {
        defense: "PGD-Adv",
        model: 0x3745fe5ada57256f,
        losses: [0x40b3542c, 0x4028d3ff],
        disc: None,
        next_rng: 0xbb693df487d2d032,
    },
    Golden {
        defense: "PGD-GanDef",
        model: 0xb38327ec7fb0f700,
        losses: [0x408653e9, 0x3fb87cf4],
        disc: Some(0x2b806b19993434f0),
        next_rng: 0x380aae3b4e9e25da,
    },
];

fn trajectory(defense: &dyn Defense, ds: &Dataset) -> Golden {
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 2;
    cfg.lr = 0.003;
    cfg.train_pgd_iters = 3;
    let mut rng = Prng::new(11);
    let mut net = Net::new(zoo::mlp(28 * 28, 16, 10), &mut rng);
    let report = defense.train(&mut net, ds, &cfg, &mut rng);
    assert!(report.events.is_empty(), "{:?}", report.events);
    let losses: [f32; 2] = report
        .epoch_losses
        .as_slice()
        .try_into()
        .expect("two epochs recorded");
    Golden {
        defense: report.defense,
        model: params_fingerprint(&net.params),
        losses: losses.map(f32::to_bits),
        disc: report.discriminator.map(|d| params_fingerprint(&d.params)),
        next_rng: rng.next_u64(),
    }
}

#[test]
fn every_defense_reproduces_its_pinned_trajectory() {
    with_accum(Accum::F64, || {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 97,
                test: 8,
                seed: 41,
            },
        );
        let defenses: [Box<dyn Defense>; 7] = [
            Box::new(Vanilla),
            Box::new(Clp),
            Box::new(Cls),
            Box::new(GanDef::zero_knowledge()),
            Box::new(AdvTraining::fgsm()),
            Box::new(AdvTraining::pgd()),
            Box::new(GanDef::pgd()),
        ];
        let fresh: Vec<Golden> = defenses
            .iter()
            .map(|d| trajectory(d.as_ref(), &ds))
            .collect();
        if fresh != GOLDEN {
            for g in &fresh {
                let disc = match g.disc {
                    Some(d) => format!("Some({d:#018x})"),
                    None => "None".to_string(),
                };
                println!(
                    "    Golden {{\n        defense: {:?},\n        model: {:#018x},\n        losses: [{:#010x}, {:#010x}],\n        disc: {disc},\n        next_rng: {:#018x},\n    }},",
                    g.defense, g.model, g.losses[0], g.losses[1], g.next_rng
                );
            }
            panic!("training trajectories drifted from the pinned values; fresh rows above");
        }
    });
}
