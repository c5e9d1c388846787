//! `gandef-lint` CLI: lints the workspace (or explicit files) and exits
//! nonzero on any violation. See the crate docs for the rule set.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gandef-lint [--timings] [--budget FILE] [FILES...]\n\
  With no FILES, walks every `src/`, `tests/` and `examples/` tree of the\n\
  workspace rooted at the current directory.\n\
  --timings           per-file CPU time (the checking thread's clock) on\n\
                      stderr, slowest first\n\
  --budget FILE       read a baseline total CPU time (milliseconds) from\n\
                      FILE and fail (exit 1) if this run's total lint time\n\
                      exceeds 3x the baseline — the CI perf regression gate\n\
  Exit codes: 0 clean, 1 rule violations or a blown budget, 2 parse or\n\
  usage/I-O error. A closed stdout ends the output, not the run: the\n\
  exit code is still the verdict.";

fn main() -> ExitCode {
    let mut cfg = gandef_lint::Config::workspace(".");
    let mut timings = false;
    let mut budget: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timings" => timings = true,
            "--budget" => match args.next() {
                Some(file) => budget = Some(PathBuf::from(file)),
                None => return usage_error("--budget requires a baseline file"),
            },
            "-h" => {
                return match emit(&format!("{USAGE}\n")) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(code) => code,
                };
            }
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            file => cfg.files.push(PathBuf::from(file)),
        }
    }

    // The budget gate needs the baseline before linting, so a missing
    // baseline file is a usage error, not a silently passed gate.
    let baseline_ms = match &budget {
        None => None,
        Some(path) => match read_budget(path) {
            Ok(ms) => Some(ms),
            Err(msg) => return usage_error(&msg),
        },
    };

    match gandef_lint::run(&cfg) {
        Ok(outcome) => {
            let total_ms: f64 = outcome.timings.iter().map(|(_, ms)| ms).sum();
            if timings {
                let mut by_cost = outcome.timings.clone();
                by_cost.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (file, ms) in &by_cost {
                    eprintln!("{ms:9.3} ms  {file}");
                }
                eprintln!("{total_ms:9.3} ms  total ({} files)", by_cost.len());
            }
            let blown = baseline_ms.is_some_and(|base| {
                let limit = base * 3.0;
                // An unreadable CPU clock (NaN) fails the gate too.
                let over = total_ms.is_nan() || total_ms > limit;
                if over {
                    eprintln!(
                        "gandef-lint: BUDGET EXCEEDED — total lint CPU time {total_ms:.1} ms \
                         > 3x baseline {base:.1} ms ({limit:.1} ms); investigate the \
                         regression or re-baseline the budget file"
                    );
                } else {
                    eprintln!(
                        "gandef-lint: budget OK — total {total_ms:.1} ms within 3x \
                         baseline {base:.1} ms"
                    );
                }
                over
            });
            if outcome.violations.is_empty() && outcome.parse_errors.is_empty() {
                if let Err(code) = emit(&format!(
                    "gandef-lint: OK — {} files, 0 violations\n",
                    outcome.files_checked
                )) {
                    return code;
                }
            } else {
                for e in &outcome.parse_errors {
                    eprintln!("{e}");
                }
                for v in &outcome.violations {
                    eprintln!("{v}");
                }
                eprintln!(
                    "gandef-lint: {} violation(s), {} parse error(s) in {} file(s) checked",
                    outcome.violations.len(),
                    outcome.parse_errors.len(),
                    outcome.files_checked
                );
            }
            // Parse errors take precedence: a structurally broken file
            // means every rule verdict for it is suspect.
            if !outcome.parse_errors.is_empty() {
                ExitCode::from(2)
            } else if outcome.violations.is_empty() && !blown {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gandef-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses the budget baseline: first non-comment line holds the total
/// lint CPU time in milliseconds (fractions allowed).
fn read_budget(path: &std::path::Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("--budget {}: {e}", path.display()))?;
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .and_then(|l| l.parse::<f64>().ok())
        .filter(|ms| ms.is_finite() && *ms > 0.0)
        .ok_or_else(|| {
            format!(
                "--budget {}: expected a positive milliseconds number on the \
                 first non-comment line",
                path.display()
            )
        })
}

/// Writes `text` to stdout. A reader that closed the pipe early (`| head`)
/// gets EPIPE, which ends the output and leaves the exit code to the
/// run's verdict; any other write failure is an I/O error (exit 2).
fn emit(text: &str) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("gandef-lint: error: writing stdout: {e}");
            Err(ExitCode::from(2))
        }
        _ => Ok(()),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("gandef-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
