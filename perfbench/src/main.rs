//! One benchmark for the ZK-GanDef reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-zk|train-pgd|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last stdout line is
//! a JSON object with the end-to-end metrics; with `--trace 1` the
//! workload is measured untraced and again through the layers' public
//! calls under the span recorder (alternating epochs for training, two
//! halves for serving), and the JSON carries the per-layer metrics. Every run checks the
//! program's outputs and exits 1 when a check fails. See `README.md` for
//! the workload design and what each metric should move.

mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::os::raw::c_int;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("examples_per_cpu_s", "1/s"),
    ("accuracy", "ratio"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// that does no work in a workload reports 0 there.
const PER_LAYER: [(&str, &str); 29] = [
    ("data.batch_us", "us"),
    ("data.perturb_us", "us"),
    ("attack.pgd_us", "us"),
    ("attack.pgd_grad_calls", "count"),
    ("nn.fwd_us", "us"),
    ("nn.disc_us", "us"),
    ("nn.infer_b1_us", "us"),
    ("nn.infer_b32_us", "us"),
    ("autodiff.bwd_us", "us"),
    ("autodiff.tape_nodes", "count"),
    ("optim.step_us", "us"),
    ("tensor.conv_fwd_gflops", "GFLOP/s"),
    ("tensor.conv_bwd_gflops", "GFLOP/s"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_fwd_b1_gflops", "GFLOP/s"),
    ("defense.step_us", "us"),
    ("defense.other_us", "us"),
    ("serve.p50_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.fill_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.batches", "count"),
    ("serve.expired", "count"),
    ("serve.shed", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainZk,
    TrainPgd,
    ServeMixed,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: operation counts, failed output checks and
/// metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <train-zk|train-pgd|serve-mixed> --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "train-zk" => Workload::TrainZk,
                    "train-pgd" => Workload::TrainPgd,
                    "serve-mixed" => Workload::ServeMixed,
                    other => usage(&format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

/// Where the traced run writes its spans, inside the benchmark directory.
pub fn trace_path(args: &Args) -> PathBuf {
    let name = match args.workload {
        Workload::TrainZk => "train-zk",
        Workload::TrainPgd => "train-pgd",
        Workload::ServeMixed => "serve-mixed",
    };
    PathBuf::from("perfbench/out").join(format!("trace-{name}-seed{}.jsonl", args.seed))
}

extern "C" {
    /// glibc's allocator tuning call; returns 1 on success.
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// `M_ARENA_MAX` of glibc's `malloc.h`.
const M_ARENA_MAX: c_int = -8;

/// Puts the allocations of every thread in one malloc arena. With an arena
/// per thread, whether a serving phase's fresh server threads reused memory
/// freed by earlier threads decided the peak resident set (30.5 or 35 MB on
/// the same seed, in one run of four).
fn one_malloc_arena() -> bool {
    // SAFETY: `mallopt` only changes allocator settings, and it runs before
    // this process has started a second thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

fn main() {
    let one_arena = one_malloc_arena();
    let args = parse_args();
    let mut out = match args.workload {
        Workload::TrainZk | Workload::TrainPgd => train::run(&args),
        Workload::ServeMixed => serve::run(&args),
    };
    if !args.trace {
        match stats::peak_rss_mb() {
            Ok(mb) => {
                out.metrics.insert("peak_rss_mb", mb);
            }
            Err(e) => out.violations.push(e),
        }
    }

    out.check(out.attempted > 0, || "no operation was attempted".into());
    out.check(one_arena, || "mallopt(M_ARENA_MAX, 1) failed".into());
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload does not use did no work.
            None if args.trace => 0.0,
            None => {
                out.violations
                    .push(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.violations
                .push(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name} = {value} {unit}");
        let shown = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\":{{\"value\":{shown},\"unit\":\"{unit}\"}}"
        ));
    }
    for v in &out.violations {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
