//! Cross-process crash-consistency and resume-oracle harness.
//!
//! `scripts/ci.sh` drives this binary in three ways:
//!
//! 1. **Point census** — a clean `train` run prints `IO_POINTS <n>`, the
//!    number of fault-injection points the checkpoint writer passed
//!    through, which the crash sweep uses to enumerate kill sites.
//! 2. **Crash sweep** — `train` is re-run under
//!    `GANDEF_FAULT=kill:<site>:<i>` for every ordinal `i`; the child
//!    aborts mid-write and `verify` must then report the on-disk
//!    checkpoint as either the previous complete state or absent —
//!    never corrupt.
//! 3. **Resume oracle** — under `GANDEF_ACCUM=f64`, a straight N-epoch
//!    run and a run killed at epoch N/2 (`GANDEF_FAULT=kill:epoch:K`)
//!    then resumed must print identical `FINGERPRINT` lines.
//!
//! Subcommands:
//!
//! ```text
//! crash_harness train  --dir D [--epochs N] [--seed S] [--train N]
//!                      [--defense vanilla|zk] [--fresh] [--keep N]
//! crash_harness verify --dir D
//! ```
//!
//! `train` prints `EVENT …` lines (one per `RunEvent`), then
//! `FINGERPRINT <hex>` of the final classifier weights and
//! `IO_POINTS <n>`. `--keep N` (default 1) turns on keep-last-N
//! checkpoint rotation, which adds the `save_rotate` and `save_manifest`
//! write sites to the sweep. `verify` prints `STATE_OK epoch=<n>`
//! (suffixed ` via=<stamp>` when only a rotated checkpoint loads),
//! `STATE_ABSENT` (both exit 0) or `STATE_CORRUPT <why>` (exit 1).

use gandef_data::{generate, DatasetKind, GenSpec};
use gandef_nn::run_state::{params_fingerprint, RunState};
use gandef_nn::serialize::{load_params, CheckpointError};
use gandef_nn::{fault, zoo, Net};
use gandef_tensor::rng::Prng;
use std::path::{Path, PathBuf};
use zk_gandef::defense::{Defense, GanDef, Vanilla};
use zk_gandef::{CheckpointPolicy, TrainConfig};

struct Opts {
    dir: PathBuf,
    epochs: usize,
    seed: u64,
    train: usize,
    defense: String,
    fresh: bool,
    keep: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: crash_harness <train|verify> --dir DIR \
         [--epochs N] [--seed S] [--train N] [--defense vanilla|zk] [--fresh] [--keep N]"
    );
    std::process::exit(2);
}

fn parse(mut args: std::env::Args) -> (String, Opts) {
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut opts = Opts {
        dir: PathBuf::new(),
        epochs: 4,
        seed: 7,
        train: 96,
        defense: "vanilla".to_string(),
        fresh: false,
        keep: 1,
    };
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--dir" => opts.dir = PathBuf::from(take("--dir")),
            "--epochs" => opts.epochs = take("--epochs").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--train" => opts.train = take("--train").parse().unwrap_or_else(|_| usage()),
            "--defense" => opts.defense = take("--defense"),
            "--fresh" => opts.fresh = true,
            "--keep" => opts.keep = take("--keep").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.dir.as_os_str().is_empty() {
        usage();
    }
    (cmd, opts)
}

fn train(opts: &Opts) {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: opts.train,
            test: 16,
            seed: opts.seed,
        },
    );
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
    cfg.epochs = opts.epochs;
    cfg.lr = 0.003;
    cfg.pool_threads = 2;
    let mut policy = CheckpointPolicy::new(&opts.dir).keep(opts.keep);
    if opts.fresh {
        policy = policy.fresh();
    }
    cfg.checkpoint = Some(policy);

    let mut rng = Prng::new(opts.seed);
    let mut net = Net::new(zoo::mlp(28 * 28, 24, 10), &mut rng);
    let report = match opts.defense.as_str() {
        "vanilla" => Vanilla.train(&mut net, &ds, &cfg, &mut rng),
        "zk" => GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng),
        other => {
            eprintln!("unknown defense {other:?} (expected vanilla|zk)");
            std::process::exit(2);
        }
    };
    for event in &report.events {
        println!("EVENT {event:?}");
    }
    println!("FINGERPRINT {:016x}", params_fingerprint(&net.params));
    println!("IO_POINTS {}", fault::io_points_seen());
}

/// A checkpoint directory is *consistent* when some run state loads —
/// the primary `run_state.gnrs`, or (under keep-last-N rotation) a
/// manifest-listed rotated stamp — with a valid checksum, and every
/// `*.gndf` weight export does too; or when no state exists at all (the
/// writer was killed before its first rename). Stray temp files
/// (`.{name}.tmp.{pid}`) from a killed writer are expected debris, not
/// corruption.
fn verify(dir: &Path) {
    match RunState::load_any(dir) {
        Ok((state, fallback)) => {
            for (name, _) in &state.stores {
                let path = dir.join(format!("{name}.gndf"));
                // A killed writer may die between the state rename and
                // the weight-export rename only if exports are written
                // first — they are, so a valid state implies valid
                // exports; anything else (a torn file, a version-1 file
                // without checksums) is corruption.
                if let Err(err) = load_params(&path) {
                    println!("STATE_CORRUPT {path:?}: {err}");
                    std::process::exit(1);
                }
            }
            match fallback {
                None => println!("STATE_OK epoch={}", state.epoch),
                Some(stamp) => println!("STATE_OK epoch={} via={stamp}", state.epoch),
            }
        }
        Err(CheckpointError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {
            println!("STATE_ABSENT");
        }
        Err(err) => {
            println!("STATE_CORRUPT {err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args();
    args.next();
    let (cmd, opts) = parse(args);
    match cmd.as_str() {
        "train" => train(&opts),
        "verify" => verify(&opts.dir),
        _ => usage(),
    }
}
