//! Shared harness utilities for the table/figure binaries.
//!
//! Four binaries under `src/bin/` regenerate the paper's evaluation (see
//! DESIGN.md §4 for the experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table3` | Table III + Figure 4 (accuracy grid), Table IV (DeepFool / CW generalizability) and Figure 5 left & middle (training time/epoch), from one training run per cell; from its SynthDigits cells, the §II-A black-box transfer setting and the §III-A logit-magnitude hypothesis (extensions) |
//! | `fig5_convergence` | Figure 5 right (CLS loss traces) |
//! | `gamma_ablation` | §III-D γ trade-off (extension) |
//! | `prop1_entropy` | Proposition-1 diagnostics (extension) |
//!
//! The remaining binaries are tooling rather than paper artifacts:
//!
//! | Binary | Purpose |
//! |---|---|
//! | `bench_kernels` | tensor-kernel micro-benchmarks → `BENCH_tensor.json` |
//! | `bench_diff` | CI throughput gate: fresh `bench_kernels` run vs `BENCH_tensor.json` |
//! | `numerics_audit` | f64-accumulation oracle and training-trajectory divergence |
//! | `crash_harness` | checkpoint crash-consistency sweep and cross-process resume oracle |
//! | `stress_harness` | worker-pool and serve hot-reload contention (sanitizer target) |
//!
//! The paper-artifact binaries accept `--paper-scale` (paper epoch
//! counts), `--train N`, `--test N`, `--seed S` and `--out DIR` (default
//! `results/`), print their tables to stdout, and write machine-readable
//! CSV/markdown under the output directory. The long-running training
//! binaries (`table3`, `fig5_convergence`) additionally accept `--resume
//! DIR`: every training run then checkpoints into its own tagged
//! subdirectory of `DIR` after each epoch and a rerun picks up at the last
//! completed epoch instead of retraining from scratch (see
//! [`HarnessOpts::attach_resume`]). A resumed run's report still holds
//! every epoch's loss and seconds, so its timings and traces cover the
//! whole run.

#![deny(missing_docs)]

pub mod microbench;

use gandef_data::{generate, Dataset, DatasetKind, GenSpec};
use gandef_nn::Net;
use gandef_tensor::rng::Prng;
use std::path::PathBuf;
use zk_gandef::defense::{AdvTraining, Clp, Cls, Defense, GanDef, Vanilla};
use zk_gandef::TrainConfig;

/// Command-line options shared by every harness binary.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Use the paper's epoch counts instead of the CPU-scaled defaults.
    pub paper_scale: bool,
    /// Training images per dataset.
    pub train: usize,
    /// Test images per dataset (attack generation dominates cost).
    pub test: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: PathBuf,
    /// Smoke mode: tiny sizes for CI-style sanity runs.
    pub smoke: bool,
    /// Checkpoint/resume root: when set, every training run checkpoints
    /// into its own tagged subdirectory and picks up where it left off
    /// after a crash (`--resume DIR`).
    pub resume: Option<PathBuf>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            paper_scale: false,
            train: 2000,
            test: 64,
            seed: 7,
            out_dir: PathBuf::from("results"),
            smoke: false,
            resume: None,
        }
    }
}

impl HarnessOpts {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut take = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--paper-scale" => opts.paper_scale = true,
                "--smoke" => {
                    opts.smoke = true;
                    opts.train = 200;
                    opts.test = 24;
                }
                "--train" => opts.train = parse_num(&take("--train"), "--train N"),
                "--test" => opts.test = parse_num(&take("--test"), "--test N"),
                "--seed" => opts.seed = parse_num(&take("--seed"), "--seed S"),
                "--out" => opts.out_dir = PathBuf::from(take("--out")),
                "--resume" => opts.resume = Some(PathBuf::from(take("--resume"))),
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --paper-scale --smoke --train N --test N --seed S --out DIR --resume DIR"
                    );
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Training configuration for `kind` under these options.
    pub fn config(&self, kind: DatasetKind) -> TrainConfig {
        let mut cfg = if self.paper_scale {
            TrainConfig::paper_scale(kind)
        } else {
            let mut cfg = TrainConfig::quick(kind);
            // Harness default: longer than the unit-test quick config so
            // robustness has room to emerge (see DESIGN.md §7), shorter
            // than the paper's GPU-scale epoch counts.
            cfg.epochs = match kind {
                DatasetKind::SynthCifar => 6,
                DatasetKind::SynthFashion => 24,
                DatasetKind::SynthDigits => 36,
            };
            cfg.train_pgd_iters = 5;
            cfg
        };
        if self.smoke {
            cfg.epochs = 2;
        }
        cfg
    }

    /// Generates the dataset for `kind` under these options. The 32×32
    /// dataset is scaled down (it is ~4× the pixel volume and the paper
    /// likewise trains it on fewer, slower epochs).
    pub fn dataset(&self, kind: DatasetKind) -> Dataset {
        let train = match kind {
            DatasetKind::SynthCifar => (self.train / 3).max(1),
            _ => self.train,
        };
        generate(
            kind,
            &GenSpec {
                train,
                test: self.test,
                seed: self.seed,
            },
        )
    }

    /// Attaches the per-run checkpoint directory `<resume>/<tag>` to `cfg`
    /// when `--resume DIR` was given, so the run checkpoints after every
    /// epoch and resumes from the latest checkpoint on the next
    /// invocation. Without `--resume` the config passes through unchanged.
    /// Tags must be unique per training run within a binary (dataset ×
    /// defense × hyper-parameters) or runs would clobber each other's
    /// checkpoints.
    pub fn attach_resume(&self, cfg: TrainConfig, tag: &str) -> TrainConfig {
        match &self.resume {
            Some(dir) => cfg.with_checkpoint(dir.join(tag)),
            None => cfg,
        }
    }

    /// Writes an artifact file under the output directory, creating it if
    /// needed, and logs the path. I/O failures (unwritable directory, disk
    /// full) abort the harness with a message and exit code 1.
    pub fn write_artifact(&self, name: &str, content: &str) {
        let path = self.out_dir.join(name);
        let result =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, content));
        if let Err(e) = result {
            eprintln!("cannot write artifact {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}

/// Parses a numeric CLI value, aborting with a usage message on failure.
fn parse_num<T: std::str::FromStr>(s: &str, usage: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?}; usage: {usage}");
        std::process::exit(2);
    })
}

/// Short display label for a dataset (paper-style, without the analog
/// annotation).
pub fn dataset_label(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::SynthDigits => "SynthDigits",
        DatasetKind::SynthFashion => "SynthFashion",
        DatasetKind::SynthCifar => "SynthCifar",
    }
}

/// The seven classifiers of Table III, in the paper's row order.
pub fn all_defenses() -> Vec<Box<dyn Defense>> {
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

/// Trains one defense on one dataset from a fresh classifier, returning the
/// net and its report. The RNG is re-derived from `(seed, defense,
/// dataset)` so every run is independent and reproducible.
pub fn train_defense(
    defense: &dyn Defense,
    ds: &Dataset,
    cfg: &TrainConfig,
    seed: u64,
) -> (Net, zk_gandef::defense::TrainReport) {
    let tag = defense
        .name()
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
    let mut rng = Prng::new(seed ^ tag ^ (ds.kind as u64).wrapping_mul(0x9E37));
    let mut net = zk_gandef::classifier_for(ds.kind, &mut rng);
    let report = defense.train(&mut net, ds, cfg, &mut rng);
    (net, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn defense_roster_matches_table3_order() {
        let names: Vec<&str> = all_defenses().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "Vanilla",
                "CLP",
                "CLS",
                "ZK-GanDef",
                "FGSM-Adv",
                "PGD-Adv",
                "PGD-GanDef"
            ]
        );
    }

    #[test]
    fn config_scales() {
        let o = HarnessOpts::default();
        assert_eq!(o.config(DatasetKind::SynthDigits).epochs, 36);
        let mut p = HarnessOpts::default();
        p.paper_scale = true;
        assert_eq!(p.config(DatasetKind::SynthDigits).epochs, 80);
        let mut s = HarnessOpts::default();
        s.smoke = true;
        assert_eq!(s.config(DatasetKind::SynthCifar).epochs, 2);
    }

    #[test]
    fn attach_resume_is_a_no_op_without_a_dir_and_tags_with_one() {
        let kind = DatasetKind::SynthDigits;
        let plain = HarnessOpts::default();
        assert!(
            plain
                .attach_resume(plain.config(kind), "table3-x")
                .checkpoint
                .is_none(),
            "no --resume must leave checkpointing off"
        );
        let mut resumable = HarnessOpts::default();
        resumable.resume = Some(PathBuf::from("ckpts"));
        let cfg = resumable.attach_resume(resumable.config(kind), "table3-x");
        let policy = cfg.checkpoint.expect("--resume must attach a policy");
        assert_eq!(policy.dir, Path::new("ckpts").join("table3-x"));
    }

    #[test]
    fn artifact_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gandef-bench-test-{}", std::process::id()));
        let opts = HarnessOpts {
            out_dir: dir.clone(),
            ..HarnessOpts::default()
        };
        opts.write_artifact("probe.txt", "hello");
        assert_eq!(
            std::fs::read_to_string(dir.join("probe.txt")).unwrap(),
            "hello"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
