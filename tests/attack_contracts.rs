//! Cross-crate attack contracts: every generator, against both classifier
//! architectures, must produce examples inside its `l∞` budget and the
//! valid pixel range (the paper's `F` projection) — including on RGB
//! conv inputs where broadcasting bugs would hide.

use zk_gandef_repro::attack::{Attack, AttackBudget, Bim, CarliniWagner, DeepFool, Fgsm, Mim, Pgd};
use zk_gandef_repro::data::{generate, DatasetKind, GenSpec};
use zk_gandef_repro::defense::classifier_for;
use zk_gandef_repro::tensor::rng::Prng;

fn attack_set(b: &AttackBudget) -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(Fgsm::new(b.eps)),
        Box::new(Bim::new(b.eps, b.bim_step, 3)),
        Box::new(Pgd::new(b.eps, b.pgd_step, 3)),
        Box::new(DeepFool::new(b.eps, 3)),
        Box::new(CarliniWagner::new(b.eps, 5)),
        Box::new(Mim::new(b.eps, b.bim_step, 3)),
    ]
}

#[test]
fn all_attacks_respect_constraints_on_all_dataset_families() {
    for kind in DatasetKind::ALL {
        let ds = generate(
            kind,
            &GenSpec {
                train: 10,
                test: 6,
                seed: 5,
            },
        );
        let budget = match kind {
            DatasetKind::SynthCifar => AttackBudget::for_32x32(),
            _ => AttackBudget::for_28x28(),
        };
        let mut rng = Prng::new(0);
        let net = classifier_for(kind, &mut rng);
        for attack in attack_set(&budget) {
            let mut arng = Prng::new(1);
            let adv = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut arng);
            assert_eq!(
                adv.shape(),
                ds.test_x.shape(),
                "{} on {kind}",
                attack.name()
            );
            let delta = adv.sub(&ds.test_x).linf_norm();
            assert!(
                delta <= budget.eps + 1e-4,
                "{} on {kind}: ‖δ‖∞ = {delta} > ε = {}",
                attack.name(),
                budget.eps
            );
            assert!(
                adv.min_value() >= -1.0 - 1e-5 && adv.max_value() <= 1.0 + 1e-5,
                "{} on {kind}: pixels out of range",
                attack.name()
            );
            assert!(
                adv.is_finite(),
                "{} on {kind}: non-finite pixels",
                attack.name()
            );
        }
    }
}

#[test]
fn attacks_are_reproducible_under_a_fixed_seed() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 4,
            seed: 6,
        },
    );
    let mut rng = Prng::new(0);
    let net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let b = AttackBudget::for_28x28();
    for attack in attack_set(&b) {
        let a1 = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(9));
        let a2 = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(9));
        assert_eq!(a1, a2, "{} not reproducible", attack.name());
    }
}

#[test]
fn chunked_attack_equals_whole_batch_for_deterministic_attacks() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 8,
            seed: 7,
        },
    );
    let mut rng = Prng::new(0);
    let net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    // FGSM and BIM are RNG-free, so chunking must be exactly transparent.
    for attack in [
        Box::new(Fgsm::new(0.6)) as Box<dyn Attack>,
        Box::new(Bim::new(0.6, 0.1, 3)),
    ] {
        let whole = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(0));
        let chunked = zk_gandef_repro::attack::perturb_chunked(
            attack.as_ref(),
            &net,
            &ds.test_x,
            &ds.test_y,
            3,
            &mut Prng::new(0),
        );
        assert!(
            whole.allclose(&chunked, 1e-6),
            "{} chunking changed the result",
            attack.name()
        );
    }
}

/// FNV-1a over the `f32` bit patterns of an adversarial batch.
fn fingerprint(t: &zk_gandef_repro::tensor::Tensor) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Each generator's output on a fixed LeNet, batch and seed, pinned bit
/// for bit under f64 accumulation (independent of pool size and FMA). The
/// labels are the net's own predictions, so every row starts on the
/// correct side and DeepFool and CW iterate over the whole batch. A change
/// to how an attack queries the classifier — one recorded forward per
/// DeepFool/CW iteration instead of one per query — must leave these
/// values alone. On a mismatch the test prints the fresh table.
#[test]
fn attack_outputs_reproduce_their_pinned_fingerprints() {
    use zk_gandef_repro::nn::Classifier;
    use zk_gandef_repro::tensor::accum::{with_accum, Accum};
    const PINNED: [(&str, u64); 6] = [
        ("FGSM", 0x314642d45436e466),
        ("BIM", 0x4193a69589c72710),
        ("PGD", 0x5492cebae78fb4ef),
        ("DeepFool", 0x75f5808059c0c6ce),
        ("CW", 0x8d0a2c2ba5e23dd4),
        ("MIM", 0xd297b2ed315bbea6),
    ];
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 12,
            seed: 8,
        },
    );
    let net = classifier_for(DatasetKind::SynthDigits, &mut Prng::new(3));
    let fresh: Vec<(&str, u64)> = with_accum(Accum::F64, || {
        let labels = net.predict(&ds.test_x);
        attack_set(&AttackBudget::for_28x28())
            .iter()
            .zip(PINNED)
            .map(|(attack, (name, _))| {
                assert_eq!(attack.name(), name);
                let adv = attack.perturb(&net, &ds.test_x, &labels, &mut Prng::new(4));
                (name, fingerprint(&adv))
            })
            .collect()
    });
    if fresh != PINNED {
        for (name, h) in &fresh {
            println!("        ({name:?}, {h:#018x}),");
        }
        panic!("attack outputs drifted from the pinned fingerprints; fresh rows above");
    }
}
