//! Benchmark regression gate: compares a fresh `bench_kernels` run against
//! the checked-in `BENCH_tensor.json` and fails on large throughput drops.
//!
//! The fresh run is usually a `--smoke` run, whose problem sizes are
//! *smaller* than the recorded full sizes, so raw `ns_per_iter` values are
//! not comparable. Throughput (GFLOP/s) is roughly size-independent for
//! the kernels measured here, so the gate compares that instead, kernel by
//! kernel (matched by name), and only where both sides report a non-zero
//! FLOP count. The threshold is deliberately generous — it exists to catch
//! order-of-magnitude regressions (a kernel silently falling back to a
//! naive path), not scheduler noise; see DESIGN.md "Benchmark gate".
//!
//! Usage: `bench_diff --baseline BENCH_tensor.json --fresh BENCH_smoke.json
//! [--require a,b,c]` — exits 1 if any matched kernel's fresh throughput
//! falls below `MIN_RATIO` × the baseline throughput, or if a
//! `--require`d kernel was not actually compared (missing from either
//! side, or throughput-less) — so silently dropping a gated kernel from the
//! bench run fails CI instead of weakening the gate. A closed stdout
//! (`bench_diff … | head -1`) ends the table, not the run: the exit code
//! is still the gate's verdict.

use gandef_bench::microbench::{self, Measurement};
use std::io::Write;
use std::process::ExitCode;

/// Fresh/baseline throughput ratio below which the gate fails. 0.3
/// tolerates smoke-size and machine variance while still catching the
/// ~3x slowdown of e.g. reverting to the seed's naive GEMM.
const MIN_RATIO: f64 = 0.3;

fn load(path: &str) -> Vec<Measurement> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: read {path}: {e}");
        std::process::exit(2);
    });
    microbench::from_json(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut baseline_path = String::from("BENCH_tensor.json");
    let mut fresh_path = String::new();
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline requires a path"),
            "--fresh" => fresh_path = args.next().expect("--fresh requires a path"),
            "--require" => {
                let list = args.next().expect("--require needs a comma-separated list");
                required.extend(list.split(',').map(str::to_string));
            }
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --baseline PATH --fresh PATH --require a,b,c"
                );
                return ExitCode::from(2);
            }
        }
    }
    if fresh_path.is_empty() {
        eprintln!("bench_diff: --fresh PATH is required");
        return ExitCode::from(2);
    }

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    let mut table = format!(
        "{:<18} {:>12} {:>12} {:>8}  verdict\n",
        "kernel", "base GF/s", "fresh GF/s", "ratio"
    );
    let mut failed = false;
    let mut compared = 0;
    let mut compared_names: Vec<&str> = Vec::new();
    for f in &fresh {
        let Some(b) = baseline.iter().find(|b| b.name == f.name) else {
            table += &format!(
                "{:<18} {:>12} {:>12} {:>8}  new (no baseline)\n",
                f.name, "-", "-", "-"
            );
            continue;
        };
        if b.gflops <= 0.0 || f.gflops <= 0.0 {
            table += &format!(
                "{:<18} {:>12.2} {:>12.2} {:>8}  skipped (no FLOP count)\n",
                f.name, b.gflops, f.gflops, "-"
            );
            continue;
        }
        compared += 1;
        compared_names.push(&f.name);
        let ratio = f.gflops / b.gflops;
        let ok = ratio >= MIN_RATIO;
        failed |= !ok;
        table += &format!(
            "{:<18} {:>12.2} {:>12.2} {:>8.2}  {}\n",
            f.name,
            b.gflops,
            f.gflops,
            ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
    }
    if let Err(code) = emit(&table) {
        return code;
    }
    if compared == 0 {
        eprintln!("bench_diff: no kernels matched between {baseline_path} and {fresh_path}");
        return ExitCode::from(2);
    }
    for name in &required {
        if !compared_names.iter().any(|c| c == name) {
            eprintln!(
                "bench_diff: required kernel `{name}` was not compared — missing from \
                 baseline or fresh run, or carries no FLOP count"
            );
            failed = true;
        }
    }
    if failed {
        eprintln!(
            "bench_diff: throughput regression beyond {MIN_RATIO}x tolerance (baseline {baseline_path})"
        );
        return ExitCode::FAILURE;
    }
    match emit(&format!(
        "bench_diff: {compared} kernels within {MIN_RATIO}x of {baseline_path}\n"
    )) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Writes `text` to stdout. A reader that closed the pipe early (`| head`)
/// gets EPIPE, which ends the output and leaves the exit code to the
/// gate's verdict; any other write failure is an I/O error (exit 2).
fn emit(text: &str) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("bench_diff: error: writing stdout: {e}");
            Err(ExitCode::from(2))
        }
        _ => Ok(()),
    }
}
