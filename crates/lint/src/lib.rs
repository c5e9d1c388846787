//! `gandef-lint` — std-only static analysis for the ZK-GanDef workspace.
//!
//! The workspace has a zero-external-dependency policy (see the root
//! `Cargo.toml`), which rules out clippy lints-with-config, Miri-in-CI and
//! third-party lint frameworks as enforcement mechanisms for our own
//! invariants. This crate is the in-repo replacement: a small hand-rolled
//! Rust tokenizer ([`lexer`]), a structural item/call parser ([`parser`])
//! and thirteen named rules ([`rules`]) that encode the repo's
//! unsafe-surface, robustness, hot-path, concurrency and determinism
//! policy:
//!
//! 1. **safety** — every `unsafe` site carries a `// SAFETY:` comment;
//! 2. **panic** — no `unwrap()/expect(/panic!` in library code;
//! 3. **bounds** — raw-pointer kernels state contracts via `debug_assert!`;
//! 4. **knob** — `GANDEF_*` env reads match the `docs/KNOBS.md` registry;
//! 5. **spawn** — all parallelism goes through `gandef_tensor::pool`;
//! 6. **alloc** — no heap allocation inside hot-path loop bodies;
//! 7. **cast** — lossy numeric casts in kernels are guarded or annotated;
//! 8. **shape** — public tensor fns assert shapes before indexing;
//! 9. **shared** — no `static mut`; shared-state slots carry comments;
//! 10. **atomics** — `Relaxed` is annotated, `Acquire`/`Release` name
//!     their partner site;
//! 11. **sync** — `unsafe impl Send/Sync` cites the fields it covers;
//! 12. **nondet** — no nondeterminism sources (map iteration, wall
//!     clock, non-`Prng` RNG) in numeric paths;
//! 13. **errprop** — no silently dropped `Result` in library code.
//!
//! Run as `gandef-lint` (no arguments) from the workspace root;
//! see `docs/LINT.md` for the rule reference and `tests/selftest.rs` for
//! the seeded-fixture self-test that proves the lint still detects every
//! rule.

pub mod lexer;
pub mod parser;
pub mod rules;

use rules::{check_file, FileReport, KnobRead, ParseError, Rule, Violation};
use std::collections::BTreeMap;
use std::io;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What to lint and against which knob registry.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (defaults to `.`). Source discovery and the default
    /// registry path are relative to this.
    pub root: PathBuf,
    /// Knob registry path; `None` means `<root>/docs/KNOBS.md`.
    pub knobs: Option<PathBuf>,
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
            knobs: None,
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
    /// Per-file CPU time of the worker thread that checked the file, in
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
    let knobs_path = cfg
        .knobs
        .clone()
        .unwrap_or_else(|| cfg.root.join("docs/KNOBS.md"));
    let registry = read_registry(&knobs_path);

    let mut violations = Vec::new();
    let mut parse_errors = Vec::new();
    let mut reads: Vec<KnobRead> = Vec::new();
    let mut timings = Vec::with_capacity(files.len());
    for (display, report, ms) in check_files_parallel(&files, &cfg.root)? {
        violations.extend(report.violations);
        parse_errors.extend(report.parse_error);
        reads.extend(report.knob_reads);
        timings.push((display, ms));
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

/// Lints `files` across a bounded scoped worker team, returning per-file
/// reports **in input order** (parallelism must not perturb diagnostics).
/// Workers claim files from a shared atomic cursor, so one pathological
/// file cannot serialize the rest of its chunk.
fn check_files_parallel(
    files: &[PathBuf],
    root: &Path,
) -> io::Result<Vec<(String, FileReport, f64)>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(files.len())
        .max(1);
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, io::Result<(String, FileReport, f64)>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    // lint:allow(spawn) — the lint binary cannot depend on
                    // gandef-tensor's pool (it lints that crate); this is
                    // a bounded, scoped, joined-on-exit worker team.
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            // lint:allow(atomics) — work-stealing ticket
                            // counter; each worker only needs a unique
                            // index, not ordering against other memory.
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= files.len() {
                                break;
                            }
                            let started = thread_cpu_ms();
                            let display = display_path(&files[i], root);
                            let result = std::fs::read_to_string(&files[i]).map(|src| {
                                let report = check_file(&display, &src, is_lib_code(&display));
                                let ms = thread_cpu_ms() - started;
                                (display.clone(), report, ms)
                            });
                            local.push((i, result));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
    let mut slots: Vec<Option<io::Result<(String, FileReport, f64)>>> = Vec::new();
    slots.resize_with(files.len(), || None);
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    let mut out = Vec::with_capacity(files.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(item)) => out.push(item),
            Some(Err(e)) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{}: {e}", files[i].display()),
                ))
            }
            // Only a panicking worker leaves a hole — surface it as an
            // I/O error instead of reporting a silently partial lint.
            None => {
                return Err(io::Error::other(format!(
                    "lint worker died before checking {}",
                    files[i].display()
                )))
            }
        }
    }
    Ok(out)
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

/// Renders an [`Outcome`] as machine-readable JSON (for `--format=json`):
/// one object with `files_checked`, a `parse_errors` array (`file`,
/// `line`, `col`, `message`) and a `violations` array carrying `file`,
/// `line`, `col`, `rule`, `message` and an `allow_hint` showing the
/// suppression comment that would silence the site.
pub fn render_json(outcome: &Outcome) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_checked\": {},\n  \"parse_errors\": [",
        outcome.files_checked
    ));
    for (i, e) in outcome.parse_errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            json_escape(&e.file),
            e.line,
            e.col,
            json_escape(&e.message)
        ));
    }
    if !outcome.parse_errors.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"violations\": [");
    for (i, v) in outcome.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\", \"allow_hint\": \"// lint:allow({}) — <reason>\"}}",
            json_escape(&v.file),
            v.line,
            v.col,
            v.rule.name(),
            json_escape(&v.message),
            v.rule.name()
        ));
    }
    if !outcome.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string for inclusion in a JSON double-quoted literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

    #[test]
    fn json_escapes_quotes_and_backslashes_per_rfc8259() {
        // A Windows-style path and a message quoting source text are the
        // realistic carriers of `\` and `"` into the JSON report.
        let outcome = Outcome {
            files_checked: 1,
            violations: vec![rules::Violation {
                file: r"crates\lint\src\lib.rs".to_string(),
                line: 3,
                col: 7,
                rule: rules::Rule::Nondet,
                message: "`==` on `\"x\"` operand\twith\ntab and newline".to_string(),
            }],
            parse_errors: vec![rules::ParseError {
                file: r"bad\file.rs".to_string(),
                line: 1,
                col: 1,
                message: "mismatched `\"` delimiter".to_string(),
            }],
            timings: vec![],
        };
        let json = render_json(&outcome);
        assert!(
            json.contains(r#""file": "crates\\lint\\src\\lib.rs""#),
            "{json}"
        );
        assert!(
            json.contains(r#"`==` on `\"x\"` operand\twith\ntab and newline"#),
            "{json}"
        );
        assert!(json.contains(r#"mismatched `\"` delimiter"#), "{json}");
        // Nothing raw survives: inside every string literal a `"` is
        // always preceded by a backslash and real control chars are gone.
        assert!(!json.contains('\t'), "raw tab leaked into JSON");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
