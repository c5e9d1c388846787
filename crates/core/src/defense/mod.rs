//! The Defense module of the paper's evaluation framework (Figure 3):
//! seven trainers sharing one interface.
//!
//! | Implementation | Paper name | Knowledge | Training inputs |
//! |---|---|---|---|
//! | [`Vanilla`] | Vanilla | — | clean |
//! | [`Clp`] | CLP \[7\] | zero | Gaussian-perturbed pairs |
//! | [`Cls`] | CLS \[7\] | zero | Gaussian-perturbed |
//! | [`GanDef::zero_knowledge`] | ZK-GanDef (this paper) | zero | clean + Gaussian-perturbed |
//! | [`AdvTraining::fgsm`] | FGSM-Adv \[6\] | full | clean + FGSM |
//! | [`AdvTraining::pgd`] | PGD-Adv \[14\] | full | clean + PGD |
//! | [`GanDef::pgd`] | PGD-GanDef | full | clean + PGD |
//!
//! All seven run one epoch loop, `train_loop` (resume, batching, the
//! divergence guard, the classifier's Adam step, checkpoints). A defense
//! supplies only its step: one batch's loss (Figure 2a–c), plus, for
//! GanDef, the discriminator update of Algorithm 1 lines 3–8.

mod adv;
mod clp;
mod cls;
mod gan;
mod resume;
mod vanilla;

pub use adv::AdvTraining;
pub use clp::Clp;
pub use cls::Cls;
pub use gan::GanDef;
pub use vanilla::Vanilla;

use crate::TrainConfig;
use gandef_attack::Pgd;
use gandef_autodiff::VarId;
use gandef_data::{batches, Dataset};
use gandef_nn::optim::{Adam, Optimizer};
use gandef_nn::{Net, Params, Session};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use resume::{EpochOutcome, RunDriver, RunParts};
use std::time::Instant;

/// A defense: a training procedure applied to a classifier.
pub trait Defense {
    /// Display name matching the paper ("CLP", "ZK-GanDef", ...).
    fn name(&self) -> &'static str;

    /// Trains `net` in place on the dataset's training split, returning
    /// per-epoch timing and loss traces.
    fn train(&self, net: &mut Net, ds: &Dataset, cfg: &TrainConfig, rng: &mut Prng) -> TrainReport;
}

/// A noteworthy run-control event during training: resume, divergence
/// rollback, guard stop, or a failed (but survivable) checkpoint write.
/// Recorded in [`TrainReport::events`] so harnesses and tests can see
/// exactly how a run reached its final state.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// Training resumed from a checkpoint at this epoch index.
    Resumed {
        /// Epoch the run continued from (completed epochs so far).
        epoch: usize,
    },
    /// A checkpoint existed but could not be used; the run started fresh.
    ResumeFailed {
        /// Why the checkpoint was rejected.
        error: String,
    },
    /// A single batch's loss went non-finite or spiked mid-epoch. The
    /// trainer aborts the epoch immediately and reports the batch loss as
    /// the epoch loss, so the guard's rollback path fires the same epoch
    /// instead of the spike being diluted by the epoch mean.
    BatchDivergence {
        /// Epoch the divergent batch occurred in.
        epoch: usize,
        /// Zero-based batch index within the epoch.
        batch: usize,
        /// The divergent batch loss.
        loss: f32,
    },
    /// The divergence guard rolled the run back to the last good state.
    Rollback {
        /// Epoch whose loss tripped the guard.
        epoch: usize,
        /// The divergent loss value.
        loss: f32,
        /// Epoch the run state was rolled back to.
        to_epoch: usize,
        /// Learning rate after backoff, per optimizer (one entry per
        /// optimizer store — multi-optimizer defenses like GanDef back
        /// off each independently-configured rate).
        lrs: Vec<(String, f32)>,
    },
    /// The guard exhausted its retries; training stopped at the last good
    /// state.
    GuardStop {
        /// Epoch at which the final divergence occurred.
        epoch: usize,
    },
    /// A periodic checkpoint write failed; training continued.
    CheckpointFailed {
        /// Completed-epoch count the write was for.
        epoch: usize,
        /// The underlying error.
        error: String,
    },
}

/// Per-epoch record of a defense-training run: the raw material behind
/// Figure 5 (training time per epoch; loss convergence traces).
#[derive(Debug)]
pub struct TrainReport {
    /// Defense display name.
    pub defense: &'static str,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Mean training loss per epoch (whatever loss the defense minimizes).
    pub epoch_losses: Vec<f32>,
    /// The trained discriminator, for GAN defenses (used by
    /// [`crate::analysis`]).
    pub discriminator: Option<Net>,
    /// Run-control events: resume, rollbacks, guard stops, checkpoint
    /// failures. Empty for an uneventful run.
    pub events: Vec<RunEvent>,
}

impl TrainReport {
    pub(crate) fn new(defense: &'static str) -> Self {
        TrainReport {
            defense,
            epoch_seconds: Vec::new(),
            epoch_losses: Vec::new(),
            discriminator: None,
            events: Vec::new(),
        }
    }

    /// Mean wall-clock seconds per epoch — the Figure-5 metric.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were recorded.
    pub fn mean_epoch_seconds(&self) -> f64 {
        assert!(!self.epoch_seconds.is_empty(), "no epochs recorded");
        self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
    }

    /// Total wall-clock training seconds.
    pub fn total_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum()
    }

    /// Final epoch's mean loss (NaN if training diverged — the CLP failure
    /// mode of §V-D).
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }

    /// Whether the loss failed to converge: it ended NaN (divergence) or
    /// never dropped meaningfully below its starting point (the flat CLS
    /// curves of Figure 5 right). `tolerance` is the required relative
    /// improvement, e.g. `0.05` for 5%.
    pub fn failed_to_converge(&self, tolerance: f32) -> bool {
        let last = self.final_loss();
        if !last.is_finite() {
            return true;
        }
        let first = match self.epoch_losses.first() {
            Some(&f) if f.is_finite() => f,
            _ => return true,
        };
        last > first * (1.0 - tolerance)
    }
}

/// One training batch as a step sees it: examples `x`, labels `y`, the
/// classifier `net`, the training RNG and the zero-based epoch index.
pub(crate) struct Batch<'a> {
    pub x: Tensor,
    pub y: Vec<usize>,
    pub net: &'a Net,
    pub rng: &'a mut Prng,
    pub epoch: usize,
}

/// What sets one defense apart: the loss it builds for a batch. Any
/// `FnMut(Batch) -> Option<(Session, VarId)>` closure is a step.
pub(crate) trait Step {
    /// Builds one batch's loss on a fresh session, or returns `None` to
    /// skip a batch too small to split.
    fn loss(&mut self, batch: Batch<'_>) -> Option<(Session, VarId)>;

    /// A second network the step trains itself, with its optimizer
    /// (GanDef's discriminator). The loop checkpoints it and rolls it
    /// back together with the classifier.
    fn co_trained(&mut self) -> Option<(&mut Params, &mut Adam)> {
        None
    }
}

impl<F: FnMut(Batch<'_>) -> Option<(Session, VarId)>> Step for F {
    fn loss(&mut self, batch: Batch<'_>) -> Option<(Session, VarId)> {
        self(batch)
    }
}

/// The epoch loop every defense shares. Resumes from the configured
/// checkpoint, then per epoch: shuffles the training split into batches,
/// asks `step` for each batch's loss, checks it for divergence, and takes
/// the classifier's Adam step; at the epoch boundary the run driver
/// records, checkpoints or rolls back the run.
pub(crate) fn train_loop(
    name: &'static str,
    net: &mut Net,
    ds: &Dataset,
    cfg: &TrainConfig,
    rng: &mut Prng,
    step: &mut impl Step,
) -> TrainReport {
    // `cfg.pool_threads` governs the run (a no-op once the pool exists);
    // `cfg.accum`, when set, picks the process-wide accumulation precision.
    gandef_tensor::pool::configure_threads(cfg.pool_threads);
    if let Some(mode) = cfg.accum {
        gandef_tensor::accum::set_accum(mode);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut report = TrainReport::new(name);
    let parts = run_parts(&mut net.params, &mut opt, step, rng);
    let (mut driver, mut epoch) = RunDriver::begin(cfg, parts, &mut report);
    while epoch < cfg.epochs {
        // lint:allow(nondet) — telemetry duration: the reading is reported
        // to the caller's log line and never feeds a trained value.
        let start = Instant::now();
        let loss = 'epoch: {
            let (mut loss_sum, mut batches_seen) = (0.0, 0);
            for (x, y) in batches(&ds.train_x, &ds.train_y, cfg.batch, rng) {
                let batch = Batch {
                    x,
                    y,
                    net,
                    rng,
                    epoch,
                };
                let Some((sess, loss)) = step.loss(batch) else {
                    continue;
                };
                let batch_loss = sess.tape.value(loss).item();
                if driver.batch_divergent(epoch, batches_seen, batch_loss, &mut report) {
                    // The divergent batch loss becomes the epoch loss, so the
                    // boundary rolls back now, before the mean dilutes it.
                    break 'epoch batch_loss;
                }
                loss_sum += batch_loss;
                batches_seen += 1;
                opt.step(&mut net.params, &sess.backward(loss));
            }
            loss_sum / batches_seen.max(1) as f32
        };
        let secs = start.elapsed().as_secs_f64();
        let parts = run_parts(&mut net.params, &mut opt, step, rng);
        match driver.after_epoch(epoch, secs, loss, parts, &mut report) {
            EpochOutcome::Next(e) => epoch = e,
            EpochOutcome::Stop => break,
        }
    }
    report
}

/// The run state's named pieces. The names are the checkpoint layout:
/// `model`/`opt`, or `model`/`disc` with `opt_c`/`opt_d` when the step
/// co-trains a discriminator — a resumed minimax game must pick up the
/// co-trained discriminator, or the classifier faces an opponent from the
/// wrong point in the game.
fn run_parts<'a>(
    model: &'a mut Params,
    opt: &'a mut Adam,
    step: &'a mut impl Step,
    rng: &'a mut Prng,
) -> RunParts<'a> {
    let (stores, optims) = match step.co_trained() {
        None => (vec![("model", model)], vec![("opt", opt)]),
        Some((disc, opt_d)) => (
            vec![("model", model), ("disc", disc)],
            vec![("opt_c", opt), ("opt_d", opt_d)],
        ),
    };
    RunParts {
        stores,
        optims,
        rng,
    }
}

/// The mixed batch adversarial training and GanDef learn from: the first
/// half of `x` as is, the second half through `perturb` (given those rows
/// and their labels). `None` when `x` has fewer than two rows to split.
pub(crate) fn half_perturbed(
    x: &Tensor,
    y: &[usize],
    perturb: impl FnOnce(&Tensor, &[usize]) -> Tensor,
) -> Option<Tensor> {
    let n = x.dim(0);
    if n < 2 {
        return None;
    }
    let half = n / 2;
    let perturbed = perturb(&x.slice_rows(half, n), &y[half..]);
    Some(Tensor::concat_rows(&[&x.slice_rows(0, half), &perturbed]))
}

/// The PGD that full-knowledge trainers generate examples with: the
/// config's budget cut to `train_pgd_iters` iterations.
pub(crate) fn training_pgd(cfg: &TrainConfig) -> Pgd {
    let b = cfg.budget.training_variant(cfg.train_pgd_iters);
    Pgd::new(b.eps, b.pgd_step, b.pgd_iters)
}

/// How many times slower training with `slow` is than with `fast`, in CPU
/// seconds of the calling thread: the Figure 5 quantity. Each defense
/// trains a fresh `net(rng)` from `Prng::new(0)` seven times, alternating
/// with the other, under [`gandef_tensor::pool::with_serial`] so every
/// kernel runs on the calling thread; the ratio is of the median runs.
/// Unlike wall time, the thread's CPU time leaves out the time other
/// tests, run in parallel, hold the CPUs; the median drops the runs that
/// a cold heap's page faults or a test on the other core slowed most.
#[cfg(test)]
pub(crate) fn cpu_time_ratio(
    slow: &dyn Defense,
    fast: &dyn Defense,
    ds: &Dataset,
    cfg: &TrainConfig,
    net: impl Fn(&mut Prng) -> Net,
) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let thread_cpu_s = || {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` (64-bit Linux layout)
        // for the whole call, and the thread CPU-time clock always exists.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    };
    let cpu_s = |defense: &dyn Defense| {
        let mut rng = Prng::new(0);
        let mut model = net(&mut rng);
        let start = thread_cpu_s();
        gandef_tensor::pool::with_serial(|| defense.train(&mut model, ds, cfg, &mut rng));
        thread_cpu_s() - start
    };
    let (mut slow_s, mut fast_s) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        slow_s.push(cpu_s(slow));
        fast_s.push(cpu_s(fast));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    median(slow_s) / median(fast_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_statistics() {
        let mut r = TrainReport::new("X");
        r.epoch_seconds = vec![1.0, 3.0];
        r.epoch_losses = vec![2.0, 1.0];
        assert_eq!(r.mean_epoch_seconds(), 2.0);
        assert_eq!(r.total_seconds(), 4.0);
        assert_eq!(r.final_loss(), 1.0);
        assert!(!r.failed_to_converge(0.05));
    }

    #[test]
    fn convergence_detection() {
        let mut flat = TrainReport::new("flat");
        flat.epoch_losses = vec![2.3, 2.31, 2.29, 2.30];
        assert!(flat.failed_to_converge(0.05));

        let mut nan = TrainReport::new("nan");
        nan.epoch_losses = vec![2.3, f32::NAN];
        assert!(nan.failed_to_converge(0.05));

        let mut good = TrainReport::new("good");
        good.epoch_losses = vec![2.3, 1.0, 0.4];
        assert!(!good.failed_to_converge(0.05));
    }
}
