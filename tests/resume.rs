//! Integration tests for crash-safe resumable training: the in-process
//! bit-exact resume oracle (the cross-process version lives in
//! `scripts/ci.sh`), GAN-trainer resume, and the divergence guard.

use std::path::PathBuf;
use zk_gandef_repro::data::{generate, Dataset, DatasetKind, GenSpec};
use zk_gandef_repro::defense::defense::{Cls, Defense, GanDef, RunEvent, Vanilla};
use zk_gandef_repro::defense::{CheckpointPolicy, GuardPolicy, TrainConfig};
use zk_gandef_repro::nn::run_state::{params_fingerprint, RunState};
use zk_gandef_repro::nn::{zoo, Net};
use zk_gandef_repro::tensor::accum::{with_accum, Accum};
use zk_gandef_repro::tensor::rng::Prng;

fn digits(seed: u64) -> Dataset {
    generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 200,
            test: 40,
            seed,
        },
    )
}

fn mlp(rng: &mut Prng) -> Net {
    Net::new(zoo::mlp(28 * 28, 24, 10), rng)
}

/// Exact bit patterns of a loss trace, so `assert_eq!` compares NaNs too.
fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gandef-resume-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Config pinned to f64 accumulation via the *config* field so trainers
/// announce the mode; the thread-local `with_accum` wrapper in each test
/// makes kernels honor it without touching the process-global mode (which
/// would leak into concurrently running tests).
fn f64_cfg(epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = epochs;
    cfg.lr = 0.003;
    cfg.pool_threads = 2;
    cfg
}

#[test]
fn vanilla_resume_is_bit_exact_under_f64_accum() {
    with_accum(Accum::F64, || {
        let ds = digits(31);
        let dir = temp_dir("vanilla");

        // Straight run: 6 epochs, no checkpointing.
        let mut rng = Prng::new(7);
        let mut straight = mlp(&mut rng);
        let straight_report = Vanilla.train(&mut straight, &ds, &f64_cfg(6), &mut rng);

        // Split run: 3 epochs with checkpointing (simulating a run that
        // died after epoch 3), then a brand-new process-equivalent —
        // fresh net, fresh RNG, same seeds — resuming to 6.
        let mut rng = Prng::new(7);
        let mut first = mlp(&mut rng);
        let cfg3 = f64_cfg(3).with_checkpoint(&dir);
        let report = Vanilla.train(&mut first, &ds, &cfg3, &mut rng);
        assert!(report.events.is_empty(), "{:?}", report.events);
        let on_disk = RunState::load(&dir).expect("checkpoint written");
        assert_eq!(on_disk.epoch, 3);

        let mut rng = Prng::new(7);
        let mut resumed = mlp(&mut rng);
        let cfg6 = f64_cfg(6).with_checkpoint(&dir);
        let report = Vanilla.train(&mut resumed, &ds, &cfg6, &mut rng);
        assert_eq!(
            report.events,
            vec![RunEvent::Resumed { epoch: 3 }],
            "expected exactly one resume event"
        );
        assert_eq!(
            bits(&report.epoch_losses),
            bits(&straight_report.epoch_losses),
            "the resumed report carries the whole run's loss history"
        );
        assert_eq!(report.epoch_seconds.len(), 6, "and every epoch's time");

        assert_eq!(
            params_fingerprint(&straight.params),
            params_fingerprint(&resumed.params),
            "3+resume+3 must be bit-identical to a straight 6-epoch run"
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn gan_resume_restores_both_networks_bit_exactly() {
    with_accum(Accum::F64, || {
        let ds = digits(32);
        let dir = temp_dir("gan");
        let trainer = || GanDef::zero_knowledge();

        let mut rng = Prng::new(5);
        let mut straight = mlp(&mut rng);
        let full = trainer().train(&mut straight, &ds, &f64_cfg(4).with_gamma(0.5), &mut rng);
        let straight_disc = full.discriminator.expect("gan returns discriminator");

        let mut rng = Prng::new(5);
        let mut first = mlp(&mut rng);
        let cfg2 = f64_cfg(2).with_gamma(0.5).with_checkpoint(&dir);
        trainer().train(&mut first, &ds, &cfg2, &mut rng);

        let mut rng = Prng::new(5);
        let mut resumed = mlp(&mut rng);
        let cfg4 = f64_cfg(4).with_gamma(0.5).with_checkpoint(&dir);
        let report = trainer().train(&mut resumed, &ds, &cfg4, &mut rng);
        assert!(report.events.contains(&RunEvent::Resumed { epoch: 2 }));
        let resumed_disc = report.discriminator.expect("gan returns discriminator");

        assert_eq!(
            params_fingerprint(&straight.params),
            params_fingerprint(&resumed.params),
            "classifier diverged across resume"
        );
        assert_eq!(
            params_fingerprint(&straight_disc.params),
            params_fingerprint(&resumed_disc.params),
            "discriminator diverged across resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn resume_refuses_checkpoint_from_a_different_trainer() {
    with_accum(Accum::F64, || {
        let ds = digits(33);
        let dir = temp_dir("wrong-trainer");
        // A Vanilla checkpoint has one store ("model"); resuming a GAN
        // run (stores "model"+"disc") from it must fail loudly and start
        // fresh rather than silently pair the classifier with a virgin
        // discriminator.
        let mut rng = Prng::new(1);
        let mut net = mlp(&mut rng);
        Vanilla.train(&mut net, &ds, &f64_cfg(2).with_checkpoint(&dir), &mut rng);

        let mut rng = Prng::new(1);
        let mut net2 = mlp(&mut rng);
        let cfg = f64_cfg(3).with_gamma(0.5).with_checkpoint(&dir);
        let report = GanDef::zero_knowledge().train(&mut net2, &ds, &cfg, &mut rng);
        assert!(
            matches!(report.events.first(), Some(RunEvent::ResumeFailed { .. })),
            "{:?}",
            report.events
        );
        assert_eq!(report.epoch_losses.len(), 3, "fresh run covers all epochs");
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn corrupt_run_state_fails_resume_loudly_and_retrains() {
    with_accum(Accum::F64, || {
        let ds = digits(34);
        let dir = temp_dir("corrupt");
        let mut rng = Prng::new(2);
        let mut net = mlp(&mut rng);
        Vanilla.train(&mut net, &ds, &f64_cfg(2).with_checkpoint(&dir), &mut rng);

        // Flip a byte in the stored run state.
        let path = RunState::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let mut rng = Prng::new(2);
        let mut net2 = mlp(&mut rng);
        let report = Vanilla.train(&mut net2, &ds, &f64_cfg(2).with_checkpoint(&dir), &mut rng);
        assert!(
            matches!(report.events.first(), Some(RunEvent::ResumeFailed { error })
                if error.contains("checksum")),
            "{:?}",
            report.events
        );
        assert_eq!(report.epoch_losses.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn version_1_run_state_fails_resume_loudly_and_retrains() {
    with_accum(Accum::F64, || {
        let ds = digits(38);
        let dir = temp_dir("version-1");
        let mut rng = Prng::new(3);
        let mut net = mlp(&mut rng);
        Vanilla.train(&mut net, &ds, &f64_cfg(2).with_checkpoint(&dir), &mut rng);

        // Stamp the stored run state as version 1, which had no per-epoch
        // history (the version field follows the 4-byte magic).
        let path = RunState::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut rng = Prng::new(3);
        let mut net2 = mlp(&mut rng);
        let report = Vanilla.train(&mut net2, &ds, &f64_cfg(3).with_checkpoint(&dir), &mut rng);
        assert!(
            matches!(report.events.as_slice(), [RunEvent::ResumeFailed { error }]
                if error.contains("version 1")),
            "{:?}",
            report.events
        );
        assert_eq!(report.epoch_losses.len(), 3, "trains from epoch 0");
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn resumed_cls_run_keeps_its_loss_trace_and_verdict() {
    // Figure 5 (right) judges convergence from the first epoch's loss; a
    // resumed run must report that loss, not its first resumed epoch's.
    with_accum(Accum::F64, || {
        let ds = digits(39);
        let dir = temp_dir("cls-trace");
        let mut rng = Prng::new(6);
        let mut straight = mlp(&mut rng);
        let full = Cls.train(&mut straight, &ds, &f64_cfg(4), &mut rng);

        let mut rng = Prng::new(6);
        let mut first = mlp(&mut rng);
        Cls.train(&mut first, &ds, &f64_cfg(2).with_checkpoint(&dir), &mut rng);
        let mut rng = Prng::new(6);
        let mut resumed = mlp(&mut rng);
        let report = Cls.train(
            &mut resumed,
            &ds,
            &f64_cfg(4).with_checkpoint(&dir),
            &mut rng,
        );

        assert_eq!(report.events, vec![RunEvent::Resumed { epoch: 2 }]);
        assert_eq!(bits(&report.epoch_losses), bits(&full.epoch_losses));
        assert_eq!(report.epoch_seconds.len(), 4);
        assert_eq!(
            report.failed_to_converge(0.10),
            full.failed_to_converge(0.10)
        );
        assert_eq!(
            params_fingerprint(&straight.params),
            params_fingerprint(&resumed.params)
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn divergence_guard_rolls_back_halves_lr_and_eventually_stops() {
    let ds = digits(35);
    // Adam's normalized updates move each weight by ≈ ±lr per step, so
    // lr = f32::MAX overflows the weights to ±∞ within two steps and the
    // logits to NaN — a deterministic non-finite loss in epoch 0, on every
    // retry, until the guard gives up. (A merely huge-but-finite lr does
    // NOT diverge: the loss blows up in epoch 0 and then *decreases*,
    // which the spike detector rightly leaves alone.)
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 6;
    cfg.lr = f32::MAX;
    cfg.guard = GuardPolicy { max_retries: 2 };
    let mut rng = Prng::new(3);
    let mut net = mlp(&mut rng);
    let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);

    let rollbacks: Vec<_> = report
        .events
        .iter()
        .filter_map(|e| match e {
            RunEvent::Rollback { lrs, .. } => {
                assert_eq!(lrs.len(), 1, "Vanilla has one optimizer: {lrs:?}");
                assert_eq!(lrs[0].0, "opt");
                Some(lrs[0].1)
            }
            _ => None,
        })
        .collect();
    assert!(
        !rollbacks.is_empty(),
        "lr = f32::MAX should have tripped the guard: {:?}",
        report.events
    );
    // Each rollback halves the learning rate of the snapshot.
    for pair in rollbacks.windows(2) {
        assert!(
            pair[1] < pair[0],
            "lr backoff must be monotone: {rollbacks:?}"
        );
    }
    // With only 2 retries and a hopeless lr, the guard gives up…
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::GuardStop { .. })),
        "{:?}",
        report.events
    );
    // …and the model is left at the last good (here: initial) state, so
    // every parameter is finite.
    for (name, t) in net.params.iter() {
        assert!(
            t.is_finite(),
            "{name} contains non-finite values after guard stop"
        );
    }
}

#[test]
fn nan_batch_trips_the_guard_mid_epoch() {
    // Regression test for the epoch-mean dilution bug: a single NaN input
    // poisons exactly one batch. The per-batch check must abort that epoch
    // at the offending batch (a `BatchDivergence` event) and feed the
    // existing rollback path the same epoch — previously the NaN was only
    // visible to the guard through the epoch-mean loss at the boundary,
    // an entire epoch of wasted (and weight-poisoning) steps later.
    let mut ds = digits(38);
    let poisoned = {
        let mut data = ds.train_x.as_slice().to_vec();
        let mid = data.len() / 2;
        data[mid] = f32::NAN;
        zk_gandef_repro::tensor::Tensor::from_vec(ds.train_x.shape().dims().to_vec(), data)
    };
    ds.train_x = poisoned;

    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 4;
    cfg.lr = 0.003;
    cfg.guard = GuardPolicy { max_retries: 2 };
    let mut rng = Prng::new(3);
    // tanh hidden layer: tanh(NaN) = NaN, so the poisoned pixel reaches the
    // loss (ReLU's `max(NaN, 0)` would silently flush it to zero).
    let model = zk_gandef_repro::nn::layer::Sequential::new(vec![
        Box::new(zk_gandef_repro::nn::layer::Flatten) as Box<dyn zk_gandef_repro::nn::layer::Layer>,
        Box::new(zk_gandef_repro::nn::layer::Dense::new(
            "fc1",
            28 * 28,
            24,
            Some(zk_gandef_repro::nn::layer::Act::Tanh),
        )),
        Box::new(zk_gandef_repro::nn::layer::Dense::new("fc2", 24, 10, None)),
    ]);
    let mut net = Net::new(model, &mut rng);
    let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);

    let batch_events: Vec<_> = report
        .events
        .iter()
        .filter_map(|e| match e {
            RunEvent::BatchDivergence { epoch, batch, loss } => Some((*epoch, *batch, *loss)),
            _ => None,
        })
        .collect();
    assert!(
        !batch_events.is_empty(),
        "the NaN batch must be caught at batch granularity: {:?}",
        report.events
    );
    for (_, _, loss) in &batch_events {
        assert!(!loss.is_finite(), "the flagged batch loss is the NaN one");
    }
    // The rollback path fires in the SAME epoch as the batch detection.
    let first_batch_epoch = batch_events[0].0;
    assert!(
        report.events.iter().any(|e| matches!(e,
            RunEvent::Rollback { epoch, .. } if *epoch == first_batch_epoch)),
        "rollback must fire in the epoch of the divergent batch: {:?}",
        report.events
    );
    // The poisoned example survives every retry, so the guard gives up…
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::GuardStop { .. })),
        "{:?}",
        report.events
    );
    // …having never let NaN gradients reach the weights.
    for (name, t) in net.params.iter() {
        assert!(t.is_finite(), "{name} non-finite after NaN-batch guard");
    }
    // Only healthy epochs are recorded, and all of them finitely.
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn rotated_checkpoints_survive_a_damaged_primary() {
    with_accum(Accum::F64, || {
        let ds = digits(39);
        let dir = temp_dir("rotate");

        // Straight 6-epoch oracle.
        let mut rng = Prng::new(8);
        let mut straight = mlp(&mut rng);
        Vanilla.train(&mut straight, &ds, &f64_cfg(6), &mut rng);

        // 4 epochs with keep-last-3 rotation.
        let mut rng = Prng::new(8);
        let mut first = mlp(&mut rng);
        let mut cfg4 = f64_cfg(4);
        cfg4.checkpoint = Some(CheckpointPolicy::new(&dir).keep(3));
        Vanilla.train(&mut first, &ds, &cfg4, &mut rng);
        assert_eq!(
            RunState::read_manifest(&dir).expect("rotation writes a manifest"),
            vec![
                "run_state.e4.gnrs",
                "run_state.e3.gnrs",
                "run_state.e2.gnrs"
            ]
        );
        assert!(!dir.join("run_state.e1.gnrs").exists(), "pruned past keep");

        // Corrupt the primary — the crash-during-overwrite scenario.
        let path = RunState::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        // Resume falls back to the newest stamp (same epoch-4 state), so
        // the run still resumes — and stays bit-exact.
        let mut rng = Prng::new(8);
        let mut resumed = mlp(&mut rng);
        let mut cfg6 = f64_cfg(6);
        cfg6.checkpoint = Some(CheckpointPolicy::new(&dir).keep(3));
        let report = Vanilla.train(&mut resumed, &ds, &cfg6, &mut rng);
        assert!(
            report.events.contains(&RunEvent::Resumed { epoch: 4 }),
            "rotation fallback must still resume: {:?}",
            report.events
        );
        assert_eq!(
            params_fingerprint(&straight.params),
            params_fingerprint(&resumed.params),
            "fallback resume must stay bit-exact"
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn guard_disabled_records_divergence_untouched() {
    let ds = digits(36);
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = 3;
    cfg.lr = f32::MAX;
    cfg.guard = GuardPolicy { max_retries: 0 };
    let mut rng = Prng::new(3);
    let mut net = mlp(&mut rng);
    let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);
    assert!(report.events.is_empty(), "{:?}", report.events);
    assert_eq!(
        report.epoch_losses.len(),
        3,
        "all epochs recorded, even bad ones"
    );
    assert!(
        report.epoch_losses.iter().any(|l| !l.is_finite()),
        "lr = f32::MAX should produce a non-finite loss the disabled guard leaves alone"
    );
}

#[test]
fn final_checkpoint_captures_the_final_weights() {
    with_accum(Accum::F64, || {
        let ds = digits(37);
        let dir = temp_dir("final");
        let mut cfg = f64_cfg(5);
        cfg.checkpoint = Some(CheckpointPolicy::new(&dir));
        let mut rng = Prng::new(4);
        let mut net = mlp(&mut rng);
        Vanilla.train(&mut net, &ds, &cfg, &mut rng);
        // Written after every epoch — the state on disk must be the final
        // one.
        let state = RunState::load(&dir).unwrap();
        assert_eq!(state.epoch, 5);
        assert_eq!(
            params_fingerprint(&state.stores[0].1),
            params_fingerprint(&net.params),
            "final checkpoint must capture the final weights"
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn nan_batch_rolls_back_both_gan_networks() {
    // GanDef's step trains the discriminator on the batch's detached logits
    // before the classifier loss exists, so a NaN pixel reaches the
    // discriminator's weights before the per-batch check sees the NaN
    // classifier loss. Only a rollback that restores the discriminator
    // alongside the classifier leaves it clean. Same fixture as
    // `nan_batch_trips_the_guard_mid_epoch`: one NaN pixel, tanh hidden layer.
    let mut ds = digits(38);
    let mut data = ds.train_x.as_slice().to_vec();
    let mid = data.len() / 2;
    data[mid] = f32::NAN;
    ds.train_x =
        zk_gandef_repro::tensor::Tensor::from_vec(ds.train_x.shape().dims().to_vec(), data);

    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_gamma(0.5);
    cfg.epochs = 4;
    cfg.lr = 0.003;
    cfg.guard = GuardPolicy { max_retries: 2 };
    let mut rng = Prng::new(3);
    use zk_gandef_repro::nn::layer::{Act, Dense, Flatten, Layer, Sequential};
    let model = Sequential::new(vec![
        Box::new(Flatten) as Box<dyn Layer>,
        Box::new(Dense::new("fc1", 28 * 28, 24, Some(Act::Tanh))),
        Box::new(Dense::new("fc2", 24, 10, None)),
    ]);
    let mut net = Net::new(model, &mut rng);
    let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);

    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::GuardStop { .. })),
        "{:?}",
        report.events
    );
    let disc = report.discriminator.expect("gan returns discriminator");
    for (net_name, params) in [("classifier", &net.params), ("discriminator", &disc.params)] {
        for (name, t) in params.iter() {
            assert!(
                t.is_finite(),
                "{net_name} {name} non-finite after NaN-batch guard"
            );
        }
    }
}
