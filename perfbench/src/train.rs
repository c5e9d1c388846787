//! The training workloads: `train-zk` (ZK-GanDef) and `train-pgd` (PGD-Adv)
//! on SynthDigits with the LeNet classifier at batch 32.
//!
//! Untraced, the workload repeats identical rounds of `Defense::train`
//! (fresh model from the seed, `epochs` epochs over `TRAIN_N` digits)
//! until its time is up, and rates each round by the CPU time of the
//! thread that runs it. Traced, it alternates one-epoch `Defense::train`
//! rounds with one epoch of a replay of the trainer's step through the
//! layers' public calls under the span recorder, so both sides see the
//! same machine load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gandef_attack::{Attack, Pgd};
use gandef_data::{batches, generate, preprocess, Dataset, DatasetKind, GenSpec};
use gandef_nn::optim::{Adam, Optimizer};
use gandef_nn::{one_hot, zoo, Classifier, Mode, Net, Session};
use gandef_tensor::accum::Accum;
use gandef_tensor::rng::Prng;
use gandef_tensor::{pool, Tensor};
use zk_gandef::defense::{AdvTraining, Defense, GanDef, RunEvent};
use zk_gandef::{classifier_for, TrainConfig};

use crate::stats::{median, percentile, thread_cpu_s};
use crate::trace::Recorder;
use crate::{probes, trace, Args, Outcome, Workload};

/// Worker-pool size for the training workloads. At one thread every kernel
/// runs inline on the training thread, so that thread's CPU time is the
/// whole cost of a round; a wider pool would also wait on every vCPU the
/// shared host stalls.
const POOL_THREADS: usize = 1;
const TRAIN_N: usize = 1024;
const TEST_N: usize = 512;
const BATCH: usize = 32;
const STEPS_PER_EPOCH: usize = TRAIN_N.div_ceil(BATCH);
const CLASSES: usize = 10;
const PGD_ITERS: usize = 5;
/// ZK-GanDef's discriminator weight. The default 3.0 trips the divergence
/// guard on some seeds at this scale (1.0 still on one seed in fifteen);
/// 0.5 trains without run events and costs the same per step.
const GAMMA: f32 = 0.5;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 15;
/// Clean test accuracy below this means training is broken.
const ACC_FLOOR: f32 = 0.5;
/// Same cap on the adversarial reward as the ZK-GanDef trainer.
const ADV_REWARD_CAP: f32 = 3.0;

fn config(w: Workload) -> TrainConfig {
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits)
        .with_gamma(GAMMA)
        .with_pool_threads(POOL_THREADS)
        .with_accum(Accum::F32);
    cfg.epochs = match w {
        Workload::TrainZk => 4,
        _ => 6,
    };
    cfg.batch = BATCH;
    cfg.train_pgd_iters = PGD_ITERS;
    cfg
}

/// The rng every round's model and trainer start from.
fn round_rng(seed: u64) -> Prng {
    Prng::new(seed ^ 0x7a6b_6764)
}

/// Dataset generation, model init and pool warm-up.
fn setup(seed: u64) -> Dataset {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: TRAIN_N,
            test: TEST_N,
            seed,
        },
    );
    let net = classifier_for(DatasetKind::SynthDigits, &mut round_rng(seed));
    std::hint::black_box(net.logits(&ds.train_x.slice_rows(0, BATCH)));
    ds
}

/// What one `Defense::train` call reports, and the CPU time it took.
struct Round {
    epoch_secs: Vec<f64>,
    losses: Vec<f32>,
    failed: u64,
    /// CPU seconds of the calling thread, which runs all the work at pool 1.
    cpu_secs: f64,
    net: Net,
}

/// One `Defense::train` call on a fresh model from the seed. Checks that
/// it recorded every epoch with a finite loss and no run event.
fn train_round(args: &Args, ds: &Dataset, cfg: &TrainConfig, out: &mut Outcome) -> Round {
    let defense: Box<dyn Defense> = match args.workload {
        Workload::TrainZk => Box::new(GanDef::zero_knowledge()),
        _ => Box::new(AdvTraining::pgd()),
    };
    let mut rng = round_rng(args.seed);
    let mut net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let cpu = thread_cpu_s();
    let report = defense.train(&mut net, ds, cfg, &mut rng);
    let cpu_secs = thread_cpu_s() - cpu;
    let failed = report
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                RunEvent::BatchDivergence { .. } | RunEvent::Rollback { .. }
            )
        })
        .count() as u64;
    out.check(report.epoch_losses.len() == cfg.epochs, || {
        format!(
            "{} recorded {} of {} epochs",
            report.defense,
            report.epoch_losses.len(),
            cfg.epochs
        )
    });
    out.check(report.epoch_losses.iter().all(|l| l.is_finite()), || {
        format!(
            "{} has a non-finite epoch loss: {:?}",
            report.defense, report.epoch_losses
        )
    });
    out.check(report.events.is_empty(), || {
        format!("{} raised run events: {:?}", report.defense, report.events)
    });
    Round {
        epoch_secs: report.epoch_seconds,
        losses: report.epoch_losses,
        failed,
        cpu_secs,
        net,
    }
}

/// A classifier that counts the input-gradient calls made through it.
struct Counted<'a> {
    net: &'a Net,
    grad_calls: AtomicU64,
}

impl Classifier for Counted<'_> {
    fn num_classes(&self) -> usize {
        self.net.num_classes()
    }
    fn logits(&self, x: &Tensor) -> Tensor {
        self.net.logits(x)
    }
    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        self.grad_calls.fetch_add(1, Ordering::Relaxed);
        self.net.ce_input_grad(x, targets)
    }
    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
        self.grad_calls.fetch_add(1, Ordering::Relaxed);
        self.net.weighted_logit_input_grad(x, weights)
    }
}

/// The trainer's per-batch step (the loop bodies of `GanDef::train` and
/// `AdvTraining::train`) rebuilt from public calls, one `step` span per
/// batch with a child span around each layer call.
struct Replayer<'a> {
    ds: &'a Dataset,
    cfg: TrainConfig,
    zk: bool,
    rng: Prng,
    net: Net,
    disc: Net,
    opt_c: Adam,
    opt_d: Adam,
    pgd: Pgd,
    /// Span id of this replayer's first step, so ids stay unique per run.
    first_id: u64,
    steps: u64,
    tape_nodes: u64,
    grad_calls: u64,
}

impl<'a> Replayer<'a> {
    fn new(args: &Args, ds: &'a Dataset, first_id: u64) -> Self {
        let cfg = config(args.workload);
        let mut rng = round_rng(args.seed);
        let net = classifier_for(DatasetKind::SynthDigits, &mut rng);
        let disc = Net::with_classes(zoo::discriminator(CLASSES), 1, &mut rng.fork(0xD0));
        let budget = cfg.budget.training_variant(cfg.train_pgd_iters);
        Replayer {
            ds,
            zk: args.workload == Workload::TrainZk,
            rng,
            net,
            disc,
            opt_c: Adam::new(cfg.lr),
            opt_d: Adam::new(cfg.disc_lr),
            pgd: Pgd::new(budget.eps, budget.pgd_step, budget.pgd_iters),
            cfg,
            first_id,
            steps: 0,
            tape_nodes: 0,
            grad_calls: 0,
        }
    }

    /// Replays the first epoch.
    fn epoch(&mut self, rec: &mut Recorder, out: &mut Outcome) {
        let Replayer {
            ds,
            cfg,
            zk,
            rng,
            net,
            disc,
            opt_c,
            opt_d,
            pgd,
            ..
        } = self;
        let warmup = (cfg.epochs / 4).max(1);
        let gamma = cfg.gamma / warmup as f32;
        let mut it = batches(&ds.train_x, &ds.train_y, cfg.batch, rng);
        loop {
            let mark = rec.len();
            let step = rec.open("step", None, self.first_id + self.steps);
            let Some((xb, yb)) = rec.span("data.batch", step, || it.next()) else {
                rec.truncate(mark);
                break;
            };
            let n = xb.dim(0);
            let half = n / 2;
            let clean = xb.slice_rows(0, half);
            let src = xb.slice_rows(half, n);
            let loss = if *zk {
                let perturbed = rec.span("data.perturb", step, || {
                    preprocess::gaussian_perturb(&src, cfg.sigma, rng)
                });
                let mixed = Tensor::concat_rows(&[&clean, &perturbed]);
                let targets = one_hot(&yb, CLASSES);
                let s = Tensor::from_fn(&[n, 1], |i| if i < half { 0.0 } else { 1.0 });
                for _ in 0..cfg.disc_steps {
                    let mut sess = Session::new_multi(
                        &[&net.params, &disc.params],
                        Mode::Train,
                        rng.fork(0xD1),
                    );
                    let x = sess.input(mixed.clone());
                    let z = rec.span("nn.fwd", step, || net.model.forward(&mut sess, x));
                    let z_frozen = sess.tape.detach(z);
                    let d_out =
                        rec.span("nn.disc", step, || disc.model.forward(&mut sess, z_frozen));
                    let d_loss = sess.tape.bce_with_logits(d_out, &s);
                    self.tape_nodes += sess.tape.len() as u64;
                    let mut grads = rec.span("autodiff.bwd", step, || sess.backward_all(d_loss));
                    let g = grads.pop().expect("backward_all returns one set per store");
                    rec.span("optim.step", step, || opt_d.step(&mut disc.params, &g));
                }
                let mut sess =
                    Session::new_multi(&[&net.params, &disc.params], Mode::Train, rng.fork(0xD2));
                let x = sess.input(mixed);
                let z = rec.span("nn.fwd", step, || net.model.forward(&mut sess, x));
                let ce = sess.tape.softmax_cross_entropy(z, &targets);
                let d_out = rec.span("nn.disc", step, || disc.model.forward(&mut sess, z));
                let d_bce = sess.tape.bce_with_logits(d_out, &s);
                let capped = sess.tape.clamp_max(d_bce, ADV_REWARD_CAP);
                let neg = sess.tape.scale(capped, -gamma);
                let total = sess.tape.add(ce, neg);
                let loss = sess.tape.value(total).item();
                self.tape_nodes += sess.tape.len() as u64;
                let grads = rec.span("autodiff.bwd", step, || sess.backward_all(total));
                rec.span("optim.step", step, || {
                    opt_c.step(&mut net.params, &grads[0])
                });
                loss
            } else {
                let counted = Counted {
                    net,
                    grad_calls: AtomicU64::new(0),
                };
                let adv = rec.span("attack.pgd", step, || {
                    pgd.perturb(&counted, &src, &yb[half..], rng)
                });
                self.grad_calls += counted.grad_calls.load(Ordering::Relaxed);
                let mixed = Tensor::concat_rows(&[&clean, &adv]);
                let targets = one_hot(&yb, CLASSES);
                let mut sess = Session::new(&net.params, Mode::Train, rng.fork(0xA1));
                let x = sess.input(mixed);
                let z = rec.span("nn.fwd", step, || net.model.forward(&mut sess, x));
                let total = sess.tape.softmax_cross_entropy(z, &targets);
                let loss = sess.tape.value(total).item();
                self.tape_nodes += sess.tape.len() as u64;
                let grads = rec.span("autodiff.bwd", step, || sess.backward(total));
                rec.span("optim.step", step, || opt_c.step(&mut net.params, &grads));
                loss
            };
            rec.close(step);
            out.check(loss.is_finite(), || {
                format!("replay step {} loss is {loss}", self.steps)
            });
            self.steps += 1;
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    pool::configure_threads(POOL_THREADS);
    let mut out = Outcome::default();

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut ds = None;
    for _ in 0..SETUPS {
        let cpu = thread_cpu_s();
        ds = Some(setup(args.seed));
        setup_secs.push(thread_cpu_s() - cpu);
    }
    let ds = ds.expect("at least one set-up");
    let setup_s = median(&setup_secs);
    println!(
        "setup: {SETUPS} set-ups, median {setup_s:.4} CPU s ({TRAIN_N} train / {TEST_N} test digits, pool {} threads)",
        pool::stats().threads
    );
    if args.trace {
        traced(args, &ds, &mut out);
        return out;
    }

    // Whole rounds, stopping where the run ends closest to `seconds`.
    let cfg = config(args.workload);
    let examples = (cfg.epochs * TRAIN_N) as f64;
    let start = Instant::now();
    let (mut cpu_rates, mut wall_rates, mut epoch_secs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_secs, mut acc) = (0.0, 0.0);
    let mut first_losses = None;
    while cpu_rates.is_empty() || start.elapsed().as_secs_f64() + round_secs / 2.0 < args.seconds {
        let t = Instant::now();
        let round = train_round(args, &ds, &cfg, &mut out);
        round_secs = t.elapsed().as_secs_f64();
        out.attempted += (cfg.epochs * STEPS_PER_EPOCH) as u64;
        out.failed += round.failed;
        cpu_rates.push(examples / round.cpu_secs);
        wall_rates.push(examples / round.epoch_secs.iter().sum::<f64>());
        epoch_secs.extend(round.epoch_secs);
        acc = round.net.accuracy_on(&ds.test_x, &ds.test_y);
        out.check(acc >= ACC_FLOOR, || {
            format!("test accuracy {acc} is below the floor {ACC_FLOOR}")
        });
        match &first_losses {
            None => {
                println!("epoch losses {:?}", round.losses);
                first_losses = Some(round.losses);
            }
            Some(first) if *first != round.losses => println!(
                "note: round {} loss trace differs from round 1",
                cpu_rates.len()
            ),
            Some(_) => {}
        }
    }
    let round = |v: &[f64]| v.iter().map(|r| r.round()).collect::<Vec<_>>();
    println!(
        "rounds: examples per CPU second {:?}, per wall second {:?}",
        round(&cpu_rates),
        round(&wall_rates)
    );
    let step_ms: Vec<f64> = epoch_secs
        .iter()
        .map(|s| s * 1e3 / STEPS_PER_EPOCH as f64)
        .collect();
    println!(
        "train: {} rounds x {} epochs x {STEPS_PER_EPOCH} steps; attempted {} steps, succeeded {}, failed {}",
        cpu_rates.len(),
        cfg.epochs,
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    println!(
        "train: {:.1} examples per CPU second, {:.1} per wall second, medians over rounds; wall step p50 {:.2} ms p90 {:.2} ms over {} epochs; test accuracy {acc:.4}",
        median(&cpu_rates),
        median(&wall_rates),
        median(&step_ms),
        percentile(&step_ms, 0.9),
        epoch_secs.len(),
    );
    let m = &mut out.metrics;
    m.insert("examples_per_cpu_s", median(&cpu_rates));
    m.insert("accuracy", acc as f64);
    m.insert("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    m.insert("setup_s", setup_s);
    out
}

/// The traced run: one-epoch `Defense::train` rounds alternate with one
/// replayed epoch until `seconds` are up; then the kernel probes.
fn traced(args: &Args, ds: &Dataset, out: &mut Outcome) {
    let mut one_epoch = config(args.workload);
    one_epoch.epochs = 1;
    let mut rec = Recorder::new();
    let (mut untraced_us, mut traced_us, mut traced_wall) = (Vec::new(), Vec::new(), 0.0);
    let (mut steps, mut tape_nodes, mut grad_calls) = (0, 0, 0);
    let start = Instant::now();
    while untraced_us.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Each pair is the same first epoch from the same seed, untraced and
        // replayed; which side goes first alternates.
        for traced_side in [untraced_us.len() % 2 == 1, untraced_us.len() % 2 == 0] {
            if !traced_side {
                let round = train_round(args, ds, &one_epoch, out);
                out.attempted += STEPS_PER_EPOCH as u64;
                out.failed += round.failed;
                untraced_us.push(round.epoch_secs[0] * 1e6 / STEPS_PER_EPOCH as f64);
                continue;
            }
            let mut replayer = Replayer::new(args, ds, steps);
            let t = Instant::now();
            replayer.epoch(&mut rec, out);
            let wall = t.elapsed().as_secs_f64();
            traced_wall += wall;
            traced_us.push(wall * 1e6 / replayer.steps as f64);
            steps += replayer.steps;
            tape_nodes += replayer.tape_nodes;
            grad_calls += replayer.grad_calls;
        }
    }
    let untraced_step_us = median(&untraced_us);
    let traced_step_us = median(&traced_us);
    // Each pair ran back to back, so its ratio is free of slower drift.
    let pair_ratios: Vec<f64> = traced_us
        .iter()
        .zip(&untraced_us)
        .map(|(t, u)| t / u)
        .collect();
    let n = steps as f64;
    let totals = rec.totals();
    let mut layered = 0.0;
    for (span, metric) in [
        ("data.batch", "data.batch_us"),
        ("data.perturb", "data.perturb_us"),
        ("attack.pgd", "attack.pgd_us"),
        ("nn.fwd", "nn.fwd_us"),
        ("nn.disc", "nn.disc_us"),
        ("autodiff.bwd", "autodiff.bwd_us"),
        ("optim.step", "optim.step_us"),
    ] {
        let us = totals
            .get(span)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / n);
        layered += us;
        out.metrics.insert(metric, us);
    }
    let span_ns = trace::span_cost_ns();
    let m = &mut out.metrics;
    m.insert("attack.pgd_grad_calls", grad_calls as f64 / n);
    m.insert("autodiff.tape_nodes", tape_nodes as f64 / n);
    m.insert("defense.step_us", untraced_step_us);
    m.insert("defense.other_us", untraced_step_us - layered);
    m.insert("trace.coverage", median(&pair_ratios));
    m.insert(
        "trace.overhead_pct",
        100.0 * rec.len() as f64 * span_ns * 1e-9 / traced_wall,
    );
    println!(
        "trace: {} epoch pairs, {} replayed steps, {} spans ({span_ns:.0} ns each); step median traced {traced_step_us:.0} us, untraced {untraced_step_us:.0} us",
        untraced_us.len(),
        steps,
        rec.len()
    );
    for (name, t) in &totals {
        println!(
            "span {name}: count {} total {:.1} ms self {:.1} ms ({:.1} us/step)",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e3 / n
        );
    }
    let path = crate::trace_path(args);
    match rec.write_jsonl(&path) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
    let net = classifier_for(DatasetKind::SynthDigits, &mut round_rng(args.seed));
    probes::infer(&net.model, &net.params, &mut out.metrics);
    probes::kernels(&mut out.metrics);
}
