//! `gandef-lint` — std-only static analysis for the ZK-GanDef workspace.
//!
//! The workspace has a zero-external-dependency policy (see the root
//! `Cargo.toml`), which rules out clippy lints-with-config, Miri-in-CI and
//! third-party lint frameworks as enforcement mechanisms for our own
//! invariants. This crate is the in-repo replacement: a small hand-rolled
//! Rust tokenizer ([`lexer`]) and eleven named rules over its tokens
//! ([`rules`]) that encode the repo's unsafe-surface, robustness,
//! hot-path, concurrency and determinism policy:
//!
//! 1. **safety** — every `unsafe` site carries a `// SAFETY:` comment;
//! 2. **panic** — no `unwrap()/expect(/panic!` in library code;
//! 3. **bounds** — raw-pointer kernels state contracts via `debug_assert!`;
//! 4. **knob** — `GANDEF_*` env reads match the `docs/KNOBS.md` registry;
//! 5. **spawn** — all parallelism goes through `gandef_tensor::pool`;
//! 6. **alloc** — no heap allocation inside hot-path loop bodies;
//! 7. **shared** — no `static mut`; shared-state slots carry comments;
//! 8. **atomics** — `Relaxed` is annotated, `Acquire`/`Release` name
//!    their partner site;
//! 9. **sync** — `unsafe impl Send/Sync` cites the fields it covers;
//! 10. **nondet** — no nondeterminism sources (hash containers, wall
//!     clock, non-`Prng` RNG) in numeric paths;
//! 11. **errprop** — no silently dropped `Result` in library code.
//!
//! Run as `gandef-lint` (no arguments) from the workspace root;
//! see `docs/LINT.md` for the rule reference and `tests/selftest.rs` for
//! the seeded-fixture self-test that proves the lint still detects every
//! rule.

pub mod lexer;
pub mod rules;

use rules::{check_file, KnobRead, ParseError, Rule, Violation};
use std::collections::BTreeMap;
use std::io;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};

/// What to lint.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root. Source discovery and the knob registry
    /// (`<root>/docs/KNOBS.md`) are relative to this.
    pub root: PathBuf,
    /// Explicit files to lint instead of walking the workspace. In this
    /// mode the stale-registry-entry direction of the `knob` rule is
    /// skipped (a file subset never reads every knob).
    pub files: Vec<PathBuf>,
}

impl Config {
    /// Config for linting the workspace rooted at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        Config {
            root: root.into(),
            files: Vec::new(),
        }
    }
}

/// Outcome of a lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Number of files checked.
    pub files_checked: usize,
    /// All violations, in path/line/column order.
    pub violations: Vec<Violation>,
    /// Delimiter-balance failures, one per broken file. Non-empty means
    /// the structural analysis (and thus every rule verdict) is suspect
    /// for those files; the CLI exits 2 instead of 1.
    pub parse_errors: Vec<ParseError>,
    /// Per-file CPU time of the thread that checked the file, in
    /// milliseconds, in file order (for `--timings` and `--budget`).
    pub timings: Vec<(String, f64)>,
}

/// Runs the lint per `cfg`. I/O errors (unreadable root, missing explicit
/// file) are returned as `Err`; rule violations are data, not errors.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    let explicit = !cfg.files.is_empty();
    let files = if explicit {
        cfg.files.clone()
    } else {
        workspace_sources(&cfg.root)?
    };
    let knobs_path = cfg.root.join("docs/KNOBS.md");
    let registry = read_registry(&knobs_path);

    let mut violations = Vec::new();
    let mut parse_errors = Vec::new();
    let mut reads: Vec<KnobRead> = Vec::new();
    let mut timings = Vec::with_capacity(files.len());
    for path in &files {
        let started = thread_cpu_ms();
        let display = display_path(path, &cfg.root);
        let src = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let report = check_file(&display, &src, is_lib_code(&display));
        timings.push((display, thread_cpu_ms() - started));
        violations.extend(report.violations);
        parse_errors.extend(report.parse_error);
        reads.extend(report.knob_reads);
    }

    // Rule `knob`, read direction: every GANDEF_* env read must be a
    // registry row.
    for read in &reads {
        if read.suppressed || registry.contains_key(&read.name) {
            continue;
        }
        violations.push(Violation {
            file: read.file.clone(),
            line: read.line,
            col: read.col,
            rule: Rule::Knob,
            message: format!(
                "env knob `{}` is not declared in {}",
                read.name,
                knobs_path.display()
            ),
        });
    }
    // Rule `knob`, registry direction (workspace mode only): every row
    // must correspond to at least one read, so docs cannot go stale.
    if !explicit {
        for (name, line) in &registry {
            if !reads.iter().any(|r| &r.name == name) {
                violations.push(Violation {
                    file: knobs_path.display().to_string(),
                    line: *line,
                    col: 1,
                    rule: Rule::Knob,
                    message: format!(
                        "registry row `{name}` has no `std::env::var` read in the workspace \
                         — stale documentation"
                    ),
                });
            }
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    parse_errors.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Outcome {
        files_checked: files.len(),
        violations,
        parse_errors,
        timings,
    })
}

/// `struct timespec` of 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Milliseconds of CPU the calling thread has run. Unlike wall time it
/// leaves out the time the thread waited for a CPU, so a busy neighbour
/// on the host does not inflate a file's cost. NaN if the clock cannot be
/// read, which the budget gate counts as a failure.
fn thread_cpu_ms() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the thread CPU-time clock always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
    } else {
        f64::NAN
    }
}

/// True if `path` is library code for the `panic` rule: not under
/// `tests/`, not a `src/bin/` binary, not an example.
fn is_lib_code(display: &str) -> bool {
    let p = display.replace('\\', "/");
    !(p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/bin/")
        || p.contains("/examples/")
        || p.starts_with("examples/"))
}

/// Path as reported in diagnostics: relative to the workspace root where
/// possible, with forward slashes.
fn display_path(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.display().to_string().replace('\\', "/")
}

/// Every `.rs` file the lint covers: the `src/`, `tests/` and `examples/`
/// trees of the root package and of each `crates/*` member (which also
/// picks up `crates/bench/src/bin/`), sorted for deterministic reports.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    const TREES: [&str; 3] = ["src", "tests", "examples"];
    let mut out = Vec::new();
    let mut packages = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        packages.extend(members);
    }
    for package in packages {
        for tree in TREES {
            let dir = package.join(tree);
            if dir.is_dir() {
                collect_rs(&dir, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses the knob registry: every `GANDEF_*` name mentioned in a markdown
/// table row (a line starting with `|`) of `docs/KNOBS.md`, mapped to its
/// 1-based line. A missing registry file is an empty registry — reads then
/// report as undeclared, which is the correct failure mode.
fn read_registry(path: &Path) -> BTreeMap<String, usize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    parse_registry(&text)
}

/// Extracts registered knob names (with line numbers) from markdown table
/// rows.
pub fn parse_registry(md: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in md.lines().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("GANDEF_") {
            let tail = &rest[pos..];
            let end = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            let name = &tail[..end];
            if name.len() > "GANDEF_".len() {
                out.entry(name.to_string()).or_insert(idx + 1);
            }
            rest = &tail[end.max(1)..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_parses_table_rows_only() {
        let md = "# Knobs\n\nGANDEF_PROSE_MENTION is ignored.\n\n| Knob | Effect |\n|---|---|\n| `GANDEF_THREADS` | pool size |\n| `GANDEF_NO_FMA` | disable fma |\n";
        let reg = parse_registry(md);
        let names: Vec<&str> = reg.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["GANDEF_NO_FMA", "GANDEF_THREADS"]);
        assert_eq!(reg.get("GANDEF_THREADS"), Some(&7));
    }

    #[test]
    fn lib_code_classification() {
        assert!(is_lib_code("crates/tensor/src/pool.rs"));
        assert!(is_lib_code("src/lib.rs"));
        assert!(!is_lib_code("crates/bench/src/bin/table3.rs"));
        assert!(!is_lib_code("crates/nn/tests/proptests.rs"));
        assert!(!is_lib_code("examples/quickstart.rs"));
    }

    #[test]
    fn bare_gandef_prefix_is_not_a_knob() {
        let reg = parse_registry("| `GANDEF_` | broken row |\n");
        assert!(reg.is_empty());
    }
}
