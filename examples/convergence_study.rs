//! Convergence study (a fast, example-sized version of the `fig5_convergence`
//! harness): CLS training-loss traces under the paper's four `(σ, λ)`
//! settings (§V-D / Figure 5 right), printed as sparkline-style rows.
//!
//! ```text
//! cargo run --release --example convergence_study [-- --resume DIR]
//! ```
//!
//! With `--resume DIR` each setting checkpoints into its own
//! subdirectory of `DIR` after every epoch and picks up where it left
//! off if the process died mid-study — kill it halfway and rerun: the
//! loss rows still cover every epoch, the checkpoint carrying the ones
//! trained before the kill.

use std::path::PathBuf;
use zk_gandef_repro::data::{generate, DatasetKind, GenSpec};
use zk_gandef_repro::defense::defense::{Cls, Defense};
use zk_gandef_repro::defense::TrainConfig;
use zk_gandef_repro::nn::{zoo, Net};
use zk_gandef_repro::tensor::rng::Prng;

fn resume_dir_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => match args.next() {
                Some(dir) => return Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--resume requires a directory");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other:?} (supported: --resume DIR)");
                std::process::exit(2);
            }
        }
    }
    None
}

fn spark(trace: &[f32]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f32> = trace.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = finite.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    trace
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '!'
            } else if hi - lo < 1e-6 {
                BARS[3]
            } else {
                BARS[(((v - lo) / (hi - lo)) * 7.0).round() as usize]
            }
        })
        .collect()
}

fn main() {
    // The paper demonstrates the pathology on its complex dataset; the
    // textured 32×32 stand-in reproduces it. Small sample count keeps this
    // example quick — the full study is `cargo run -p gandef-bench --bin
    // fig5_convergence`.
    let ds = generate(
        DatasetKind::SynthCifar,
        &GenSpec {
            train: 300,
            test: 50,
            seed: 2,
        },
    );
    let resume_dir = resume_dir_from_args();
    let settings = [(1.0f32, 0.4f32), (1.0, 0.01), (0.1, 0.4), (0.1, 0.01)];
    println!(
        "CLS on {} — loss per epoch (high→low within each row):\n",
        ds.kind
    );
    for (sigma, lambda) in settings {
        let mut cfg = TrainConfig::quick(DatasetKind::SynthCifar).with_sigma_lambda(sigma, lambda);
        cfg.epochs = 8;
        if let Some(dir) = &resume_dir {
            cfg = cfg.with_checkpoint(dir.join(format!("cls-s{sigma}-l{lambda}")));
        }
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::allcnn(3, 0.2), &mut rng);
        let report = Cls.train(&mut net, &ds, &cfg, &mut rng);
        let verdict = if report.failed_to_converge(0.10) {
            "does NOT converge"
        } else {
            "converges"
        };
        println!(
            "σ={sigma:<4} λ={lambda:<5}  {}  first {:.2} → last {:.2}  ({verdict})",
            spark(&report.epoch_losses),
            report.epoch_losses.first().copied().unwrap_or(f32::NAN),
            report.final_loss()
        );
    }
    println!("\npaper §V-D: only (σ=0.1, λ=0.01) converges — and that setting");
    println!("\"falls back to Vanilla\", defending nothing.");
}
