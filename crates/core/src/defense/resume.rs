//! The run driver: crash-safe checkpointing, resume, and the divergence
//! guard behind the one training loop (`train_loop` in the parent module).
//!
//! The loop hands the driver its mutable run pieces — parameter stores,
//! Adam optimizers, the training RNG — when the run begins, where the
//! driver resumes from the configured checkpoint directory (weights,
//! optimizer moments, RNG state, epoch counter) and snapshots the state
//! the guard can roll back to; and after every epoch, where it records the
//! epoch, checks its loss for divergence, rolls back with learning-rate
//! backoff, writes the checkpoint, and names the next epoch.
//!
//! Under [`Accum::F64`](gandef_tensor::accum::Accum) a resumed run is
//! *bit-exact*: training 4 epochs, killing the process and resuming for 4
//! more yields the same weights as training 8 straight. `scripts/ci.sh`
//! proves this across processes (kill via `GANDEF_FAULT=kill:epoch:N`);
//! `tests/resume.rs` proves it in-process for every trainer family.
//!
//! Resume replays nothing: the report's loss/seconds traces cover only
//! the epochs the current process ran. Fingerprint-level equality of the
//! *weights* is the contract, not equality of the report.

use super::{RunEvent, TrainReport};
use crate::config::GuardPolicy;
use crate::TrainConfig;
use gandef_nn::optim::Adam;
use gandef_nn::run_state::RunState;
use gandef_nn::serialize::{restore_params_from, save_params, CheckpointError};
use gandef_nn::{fault, Params};
use gandef_tensor::rng::Prng;
use std::path::PathBuf;

/// Borrowed views of everything a trainer mutates across epochs. Built
/// fresh at each driver call (the borrows last only for the call), with
/// stable names so multi-network trainers (GanDef: classifier +
/// discriminator) checkpoint unambiguously.
pub(super) struct RunParts<'a> {
    /// Named parameter stores, e.g. `[("model", ..)]` or
    /// `[("model", ..), ("disc", ..)]`.
    pub(super) stores: Vec<(&'static str, &'a mut Params)>,
    /// Named optimizers, parallel to the stores they update.
    pub(super) optims: Vec<(&'static str, &'a mut Adam)>,
    /// The training RNG.
    pub(super) rng: &'a mut Prng,
}

impl RunParts<'_> {
    /// Snapshots every piece into an owned [`RunState`] at `epoch`.
    fn capture(&self, epoch: usize) -> RunState {
        RunState {
            epoch: epoch as u64,
            accum: gandef_tensor::accum::accum(),
            rng: self.rng.state(),
            stores: self
                .stores
                .iter()
                .map(|(n, p)| (n.to_string(), (**p).clone()))
                .collect(),
            optims: self
                .optims
                .iter()
                .map(|(n, o)| (n.to_string(), o.state()))
                .collect(),
        }
    }

    /// Restores a snapshot into the live pieces. The state's store and
    /// optimizer names must match this run's exactly (same trainer, same
    /// architecture); shapes are checked per-parameter.
    fn apply(&mut self, state: &RunState) -> Result<(), CheckpointError> {
        let names = |have: Vec<&str>, want: Vec<&str>, what: &str| {
            if have != want {
                return Err(CheckpointError::Mismatch(format!(
                    "{what} names disagree: checkpoint has {have:?}, run has {want:?} \
                     (different trainer?)"
                )));
            }
            Ok(())
        };
        names(
            state.stores.iter().map(|(n, _)| n.as_str()).collect(),
            self.stores.iter().map(|(n, _)| *n).collect(),
            "parameter store",
        )?;
        names(
            state.optims.iter().map(|(n, _)| n.as_str()).collect(),
            self.optims.iter().map(|(n, _)| *n).collect(),
            "optimizer",
        )?;
        for ((_, target), (_, saved)) in self.stores.iter_mut().zip(&state.stores) {
            restore_params_from(target, saved)?;
        }
        for ((_, opt), (_, saved)) in self.optims.iter_mut().zip(&state.optims) {
            opt.restore(saved.clone());
        }
        *self.rng = Prng::from_state(state.rng);
        Ok(())
    }
}

/// What the training loop should do after an epoch boundary.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum EpochOutcome {
    /// Continue with this epoch index (the next epoch, or an earlier one
    /// after a divergence rollback).
    Next(usize),
    /// Stop training: the divergence guard exhausted its retries and has
    /// restored the last good state.
    Stop,
}

/// A finite loss is a spike when it exceeds the previous epoch's loss by
/// more than `SPIKE_FACTOR · (|prev| + 1)`.
const SPIKE_FACTOR: f32 = 4.0;

/// Multiplier applied to every optimizer's learning rate on rollback.
const LR_BACKOFF: f32 = 0.5;

/// Per-run driver state. One per `Defense::train` invocation.
pub(super) struct RunDriver {
    dir: Option<PathBuf>,
    keep: usize,
    guard: GuardPolicy,
    retries_left: usize,
    /// Last known-good snapshot; rollback target. Captured at `begin` and
    /// refreshed after every healthy epoch, so it always exists.
    last_good: RunState,
    /// Loss of the last healthy epoch (spike baseline).
    prev_loss: Option<f32>,
}

impl RunDriver {
    /// Starts (or resumes) a run. Returns the driver and the epoch index
    /// to start training at — 0 for a fresh run, the saved epoch when a
    /// valid checkpoint was resumed.
    ///
    /// A missing run state starts fresh silently; an unreadable,
    /// corrupt or mismatched one starts fresh *loudly* (a
    /// [`RunEvent::ResumeFailed`] in the report and a stderr note) —
    /// silently retraining from scratch over a damaged checkpoint is
    /// exactly the failure mode the checksums exist to surface.
    pub(super) fn begin(
        cfg: &TrainConfig,
        mut parts: RunParts<'_>,
        report: &mut TrainReport,
    ) -> (RunDriver, usize) {
        let policy = cfg.checkpoint.as_ref();
        let mut start_epoch = 0usize;
        if let Some(p) = policy.filter(|p| p.resume) {
            match RunState::load_any(&p.dir) {
                Ok((state, fallback)) => {
                    if let Some(stamp) = fallback {
                        eprintln!(
                            "warning: primary run state in {} is unusable; resuming from \
                             rotated checkpoint {stamp}",
                            p.dir.display()
                        );
                    }
                    match Self::check_resumable(&state, cfg) {
                        Ok(()) => match parts.apply(&state) {
                            Ok(()) => {
                                start_epoch = state.epoch as usize;
                                report.events.push(RunEvent::Resumed { epoch: start_epoch });
                            }
                            Err(e) => Self::resume_failed(report, &p.dir, &e),
                        },
                        Err(e) => Self::resume_failed(report, &p.dir, &e),
                    }
                }
                Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => Self::resume_failed(report, &p.dir, &e),
            }
        }
        let guard = cfg.guard.clone();
        let driver = RunDriver {
            dir: policy.map(|p| p.dir.clone()),
            keep: policy.map_or(1, |p| p.keep),
            retries_left: guard.max_retries,
            guard,
            last_good: parts.capture(start_epoch),
            prev_loss: None,
        };
        (driver, start_epoch)
    }

    fn resume_failed(report: &mut TrainReport, dir: &std::path::Path, e: &CheckpointError) {
        eprintln!(
            "warning: cannot resume from {}: {e}; starting fresh",
            dir.display()
        );
        report.events.push(RunEvent::ResumeFailed {
            error: e.to_string(),
        });
    }

    /// Refuses resumes that would silently change the run's semantics.
    fn check_resumable(state: &RunState, cfg: &TrainConfig) -> Result<(), CheckpointError> {
        let now = gandef_tensor::accum::accum();
        if state.accum != now {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was trained under {:?} accumulation but this run uses \
                 {now:?}; resuming would mix numerics modes",
                state.accum
            )));
        }
        if state.epoch as usize > cfg.epochs {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is at epoch {} but this run only has {} epochs",
                state.epoch, cfg.epochs
            )));
        }
        Ok(())
    }

    /// Processes the epoch that just finished (0-based index `epoch`,
    /// wall-clock `secs`, mean loss `loss`).
    ///
    /// A healthy epoch is recorded in the report, snapshotted as the new
    /// rollback target, and checkpointed if the run has a checkpoint
    /// directory. A divergent loss (non-finite, or a spike beyond
    /// [`SPIKE_FACTOR`]) instead rolls the run back to the last good
    /// snapshot with the learning rate scaled by [`LR_BACKOFF`] — until
    /// the retry budget runs out, at which point the guard restores the
    /// last good state and stops the run.
    pub(super) fn after_epoch(
        &mut self,
        epoch: usize,
        secs: f64,
        loss: f32,
        mut parts: RunParts<'_>,
        report: &mut TrainReport,
    ) -> EpochOutcome {
        if self.guard.max_retries > 0 && self.is_divergent(loss) {
            let restore = |parts: &mut RunParts<'_>, snap: &RunState| {
                // lint:allow(panic) — `apply` restores a snapshot captured
                // from these same parts, so names and shapes cannot disagree.
                parts.apply(snap).expect("rollback snapshot must apply")
            };
            if self.retries_left == 0 {
                restore(&mut parts, &self.last_good);
                report.events.push(RunEvent::GuardStop { epoch });
                eprintln!(
                    "divergence guard: loss {loss} at epoch {epoch}, retries exhausted; \
                     stopping at last good epoch {}",
                    self.last_good.epoch
                );
                return EpochOutcome::Stop;
            }
            self.retries_left -= 1;
            // Back off the learning rate *in the snapshot*, so repeated
            // rollbacks keep shrinking it and the restored optimizer
            // continues at the reduced rate.
            for (_, opt_state) in &mut self.last_good.optims {
                opt_state.lr *= LR_BACKOFF;
            }
            restore(&mut parts, &self.last_good);
            let to_epoch = self.last_good.epoch as usize;
            let new_lrs: Vec<(String, f32)> = self
                .last_good
                .optims
                .iter()
                .map(|(n, s)| (n.clone(), s.lr))
                .collect();
            let lr_note = new_lrs
                .iter()
                .map(|(n, lr)| format!("{n}={lr}"))
                .collect::<Vec<_>>()
                .join(", ");
            report.events.push(RunEvent::Rollback {
                epoch,
                loss,
                to_epoch,
                lrs: new_lrs,
            });
            eprintln!(
                "divergence guard: loss {loss} at epoch {epoch}; rolled back to epoch \
                 {to_epoch}, lr -> {lr_note}"
            );
            return EpochOutcome::Next(to_epoch);
        }

        report.epoch_seconds.push(secs);
        report.epoch_losses.push(loss);
        self.prev_loss = Some(loss);
        let completed = epoch + 1;
        self.last_good = parts.capture(completed);
        if let Some(dir) = &self.dir {
            if let Err(e) = Self::write_checkpoint(dir, &self.last_good, self.keep) {
                eprintln!(
                    "warning: checkpoint at epoch {completed} failed: {e}; training continues"
                );
                report.events.push(RunEvent::CheckpointFailed {
                    epoch: completed,
                    error: e.to_string(),
                });
            }
        }
        // The crash point for `GANDEF_FAULT=kill:epoch:N` — after the
        // checkpoint, so a killed run leaves an N-epoch state on disk.
        fault::epoch_point(completed);
        EpochOutcome::Next(completed)
    }

    /// Checks a single batch's loss mid-epoch. Returns `true` when the
    /// batch is divergent (non-finite, or a spike past [`SPIKE_FACTOR`]
    /// against the last healthy *epoch* loss) and the guard is armed — the
    /// loop then aborts the epoch and reports this batch loss as the epoch
    /// loss, so the epoch boundary rolls back the same epoch. Without this
    /// check a mid-epoch NaN poisons the epoch mean (caught one epoch of
    /// wasted work later) and a finite spike can be diluted below the
    /// threshold entirely.
    ///
    /// Always `false` when the guard is disabled (`max_retries == 0`):
    /// disabled-guard runs record divergence untouched.
    pub(super) fn batch_divergent(
        &self,
        epoch: usize,
        batch: usize,
        loss: f32,
        report: &mut TrainReport,
    ) -> bool {
        if self.guard.max_retries == 0 || !self.is_divergent(loss) {
            return false;
        }
        report
            .events
            .push(RunEvent::BatchDivergence { epoch, batch, loss });
        eprintln!(
            "divergence guard: batch {batch} of epoch {epoch} hit loss {loss}; aborting epoch"
        );
        true
    }

    fn is_divergent(&self, loss: f32) -> bool {
        if !loss.is_finite() {
            return true;
        }
        match self.prev_loss {
            Some(prev) => loss - prev > SPIKE_FACTOR * (prev.abs() + 1.0),
            None => false,
        }
    }

    /// Writes the run state (rotated per the policy's `keep`) plus a
    /// standalone `.gndf` weights file per store (the artifact evaluation
    /// tooling consumes).
    fn write_checkpoint(
        dir: &std::path::Path,
        state: &RunState,
        keep: usize,
    ) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        for (name, params) in &state.stores {
            save_params(params, dir.join(format!("{name}.gndf")))?;
        }
        state.save_rotated(dir, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_data::DatasetKind;

    fn mini_parts(rng: &mut Prng, params: &mut Params, opt: &mut Adam) -> RunState {
        RunParts {
            stores: vec![("model", params)],
            optims: vec![("opt", opt)],
            rng,
        }
        .capture(3)
    }

    #[test]
    fn capture_apply_roundtrip_restores_everything() {
        use gandef_nn::optim::Optimizer;
        use gandef_tensor::Tensor;
        let mut rng = Prng::new(9);
        let mut params = Params::new();
        params.insert("w", rng.uniform_tensor(&[3, 2], -1.0, 1.0));
        let mut opt = Adam::new(0.01);
        let g = Tensor::full(&[3, 2], 0.5);
        opt.step(&mut params, &[Some(g)]);
        let snap = mini_parts(&mut rng, &mut params, &mut opt);

        // Mutate everything, then restore.
        let w_before = params.get("w").clone();
        let rng_before = rng.state();
        params.get_mut("w").map_inplace(|v| v * 2.0);
        rng.next_u64();
        let mut opt2 = Adam::new(0.5);
        let mut parts = RunParts {
            stores: vec![("model", &mut params)],
            optims: vec![("opt", &mut opt2)],
            rng: &mut rng,
        };
        parts.apply(&snap).unwrap();
        assert_eq!(params.get("w"), &w_before);
        assert_eq!(rng.state(), rng_before);
        assert_eq!(opt2.lr, 0.01);
    }

    #[test]
    fn apply_rejects_foreign_store_names() {
        let mut rng = Prng::new(9);
        let mut params = Params::new();
        params.insert("w", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut opt = Adam::new(0.01);
        let snap = mini_parts(&mut rng, &mut params, &mut opt);

        let mut other = Params::new();
        other.insert("w", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut opt2 = Adam::new(0.01);
        let mut rng2 = Prng::new(0);
        let mut parts = RunParts {
            stores: vec![("disc", &mut other)],
            optims: vec![("opt", &mut opt2)],
            rng: &mut rng2,
        };
        let err = parts.apply(&snap).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rollback_reports_every_optimizer_lr() {
        // GAN-style runs carry two optimizers with independent rates; a
        // rollback must report the backed-off rate of each, not just the
        // first (the old `optims.first()` bug).
        let cfg = crate::TrainConfig::quick(DatasetKind::SynthDigits);
        let mut rng = Prng::new(1);
        let mut model = Params::new();
        model.insert("w", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut disc = Params::new();
        disc.insert("d", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut opt_c = Adam::new(0.002);
        let mut opt_d = Adam::new(0.001);
        let mut report = TrainReport::new("test");
        let (mut driver, _) = RunDriver::begin(
            &cfg,
            RunParts {
                stores: vec![("model", &mut model), ("disc", &mut disc)],
                optims: vec![("opt_c", &mut opt_c), ("opt_d", &mut opt_d)],
                rng: &mut rng,
            },
            &mut report,
        );
        let outcome = driver.after_epoch(
            0,
            0.1,
            f32::NAN,
            RunParts {
                stores: vec![("model", &mut model), ("disc", &mut disc)],
                optims: vec![("opt_c", &mut opt_c), ("opt_d", &mut opt_d)],
                rng: &mut rng,
            },
            &mut report,
        );
        assert_eq!(outcome, EpochOutcome::Next(0));
        let Some(RunEvent::Rollback { lrs, .. }) = report.events.first() else {
            panic!("expected a rollback event: {:?}", report.events);
        };
        assert_eq!(
            lrs,
            &vec![
                ("opt_c".to_string(), 0.001f32),
                ("opt_d".to_string(), 0.0005)
            ],
            "each optimizer's backed-off lr must be reported"
        );
    }

    #[test]
    fn batch_divergence_respects_disabled_guard() {
        let mut cfg = crate::TrainConfig::quick(DatasetKind::SynthDigits);
        let mut rng = Prng::new(2);
        let mut params = Params::new();
        params.insert("w", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut opt = Adam::new(0.01);
        let mut report = TrainReport::new("test");
        fn parts<'a>(params: &'a mut Params, opt: &'a mut Adam, rng: &'a mut Prng) -> RunParts<'a> {
            RunParts {
                stores: vec![("model", params)],
                optims: vec![("opt", opt)],
                rng,
            }
        }
        let (armed, _) =
            RunDriver::begin(&cfg, parts(&mut params, &mut opt, &mut rng), &mut report);
        assert!(armed.batch_divergent(0, 3, f32::NAN, &mut report));
        assert!(!armed.batch_divergent(0, 3, 1.0, &mut report));
        assert!(
            matches!(
                report.events.as_slice(),
                [RunEvent::BatchDivergence {
                    epoch: 0,
                    batch: 3,
                    loss,
                }] if loss.is_nan()
            ),
            "only the non-finite batch is flagged: {:?}",
            report.events
        );

        report.events.clear();
        cfg.guard.max_retries = 0;
        let (disabled, _) =
            RunDriver::begin(&cfg, parts(&mut params, &mut opt, &mut rng), &mut report);
        assert!(
            !disabled.batch_divergent(0, 3, f32::NAN, &mut report),
            "a disabled guard must leave divergent batches alone"
        );
        assert!(report.events.is_empty());
    }

    #[test]
    fn guard_trips_on_nan_and_spike_only() {
        let cfg = crate::TrainConfig::quick(DatasetKind::SynthDigits);
        let mut rng = Prng::new(0);
        let mut params = Params::new();
        params.insert("w", rng.uniform_tensor(&[2], -1.0, 1.0));
        let mut opt = Adam::new(0.01);
        let mut report = TrainReport::new("test");
        let (mut driver, start) = RunDriver::begin(
            &cfg,
            RunParts {
                stores: vec![("model", &mut params)],
                optims: vec![("opt", &mut opt)],
                rng: &mut rng,
            },
            &mut report,
        );
        assert_eq!(start, 0);
        assert!(driver.is_divergent(f32::NAN));
        assert!(driver.is_divergent(f32::INFINITY));
        assert!(!driver.is_divergent(2.0), "no baseline yet");
        driver.prev_loss = Some(2.0);
        assert!(!driver.is_divergent(2.1), "mild increase is not a spike");
        assert!(!driver.is_divergent(13.9), "just under 2 + 4·3");
        assert!(driver.is_divergent(14.1), "past the spike factor");
    }
}
