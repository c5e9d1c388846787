//! Regenerates **Figure 5 (right)**: CLS training-loss traces on the
//! complex (32×32) dataset under the four `(σ, λ)` settings of §V-D:
//!
//! 1. normal CLS            `(σ = 1.0, λ = 0.4)`
//! 2. reduced perturbation  `(σ = 1.0, λ = 0.01)` *(paper's labeling)*
//! 3. reduced penalty       `(σ = 0.1, λ = 0.4)`
//! 4. reduced both          `(σ = 0.1, λ = 0.01)` — the only one that
//!    converges, and it "falls back to Vanilla".
//!
//! Also repeats the experiment for CLP, whose §V-D failure mode is loss →
//! NaN (divergence) rather than a flat curve.
//!
//! ```text
//! cargo run --release -p gandef-bench --bin fig5_convergence [-- --smoke ...]
//! ```

use gandef_bench::{train_defense, HarnessOpts};
use gandef_data::DatasetKind;
use zk_gandef::defense::{Clp, Cls, Defense};
use zk_gandef::report::loss_trace_csv;

const SETTINGS: [(f32, f32); 4] = [(1.0, 0.4), (1.0, 0.01), (0.1, 0.4), (0.1, 0.01)];

fn main() {
    let opts = HarnessOpts::from_args();
    let kind = DatasetKind::SynthCifar;
    let ds = opts.dataset(kind);
    let mut cfg = opts.config(kind);
    if !opts.smoke {
        // The paper records the first 30 epochs; loss shape needs several.
        cfg.epochs = cfg.epochs.max(8);
    }

    let mut traces: Vec<(String, Vec<f32>)> = Vec::new();
    for defense in [Box::new(Cls) as Box<dyn Defense>, Box::new(Clp)] {
        for (sigma, lambda) in SETTINGS {
            let c = opts.attach_resume(
                cfg.clone().with_sigma_lambda(sigma, lambda),
                &format!("fig5conv-{}-s{sigma}-l{lambda}", defense.name()),
            );
            let (net, report) = train_defense(defense.as_ref(), &ds, &c, opts.seed);
            let label = format!("{}(s={sigma},l={lambda})", report.defense);
            let verdict = if report.failed_to_converge(0.10) {
                "FAILED TO CONVERGE"
            } else {
                "converged"
            };
            println!(
                "{label}: first {:.3} last {:.3} -> {verdict} (test acc {:.2}%)",
                report.epoch_losses.first().copied().unwrap_or(f32::NAN),
                report.final_loss(),
                net.accuracy_on(&ds.test_x, &ds.test_y) * 100.0
            );
            traces.push((label, report.epoch_losses.clone()));
        }
    }

    let rows: Vec<(String, &[f32])> = traces
        .iter()
        .map(|(l, t)| (l.clone(), t.as_slice()))
        .collect();
    let csv = loss_trace_csv(&rows);
    opts.write_artifact("fig5_convergence.csv", &csv);
}
