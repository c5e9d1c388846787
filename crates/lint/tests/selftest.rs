//! Lint self-tests: the seeded fixtures must trip every rule, the real
//! workspace must be clean, and the `gandef-lint` binary must keep its
//! exit-code contract. Keeping these checks in `cargo test` means the tier-1 test
//! run enforces them; `scripts/ci.sh` adds only the lint's time budget.

use gandef_lint::rules::Rule;
use gandef_lint::{run, Config};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The three seeded fixtures, which together trip every rule once.
const SEEDED: [&str; 3] = [
    "crates/lint/fixtures/seeded.rs",
    "crates/lint/fixtures/seeded_concurrency.rs",
    "crates/lint/fixtures/seeded_determinism.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn seeded_fixtures_trip_every_rule_exactly_once() {
    let root = workspace_root();
    let mut cfg = Config::workspace(&root);
    cfg.files = SEEDED.iter().map(|f| root.join(f)).collect();
    let outcome = run(&cfg).expect("lint run");
    for rule in Rule::ALL {
        let count = outcome.violations.iter().filter(|v| v.rule == rule).count();
        assert_eq!(
            count,
            1,
            "rule `{}` fired {count} times on the seeded fixtures (want exactly 1):\n{}",
            rule.name(),
            render(&outcome.violations)
        );
    }
    assert_eq!(outcome.violations.len(), Rule::ALL.len());
}

#[test]
fn cli_exit_codes_follow_the_contract() {
    let root = workspace_root();
    let lint_in = |dir: &Path, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_gandef-lint"))
            .current_dir(dir)
            .args(args)
            .output()
            .expect("run gandef-lint")
    };
    let lint = |args: &[&str]| lint_in(&root, args);

    let seeded = lint(&SEEDED);
    let stderr = String::from_utf8_lossy(&seeded.stderr);
    assert_eq!(
        seeded.status.code(),
        Some(1),
        "violations exit 1:\n{stderr}"
    );
    for rule in Rule::ALL {
        assert!(
            stderr.contains(&format!("[{}]", rule.name())),
            "the seeded run does not name rule `{}`:\n{stderr}",
            rule.name()
        );
    }

    let broken = lint(&["crates/lint/fixtures/broken.rs"]);
    assert_eq!(
        broken.status.code(),
        Some(2),
        "a parse error exits 2:\n{}",
        String::from_utf8_lossy(&broken.stderr)
    );

    let clean = lint(&["crates/lint/src/lexer.rs"]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "a clean file exits 0:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // A closed stdout (`gandef-lint ... | head -0`) ends the output, not
    // the verdict: the pipe's read end is closed before the binary
    // starts, so every stdout write meets EPIPE. The clean file's `OK`
    // line and `-h`'s usage go to stdout; the seeded report goes to
    // stderr and must still exit 1.
    for (args, want) in [
        (&SEEDED[..], 1),
        (&["crates/lint/src/lexer.rs"][..], 0),
        (&["-h"][..], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_gandef-lint"))
            .current_dir(&root)
            .args(args)
            .stdout(writer)
            .output()
            .expect("run gandef-lint");
        assert_eq!(
            run.status.code(),
            Some(want),
            "{args:?} with stdout closed:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }

    // Retired options are not options: a script that still passes one
    // fails loudly and writes nothing.
    let scratch = std::env::temp_dir().join(format!("gandef-lint-flags-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for flag in [
        "--panics",
        "--concurrency",
        "--determinism",
        "--format",
        "--root",
        "--knobs",
    ] {
        let out = scratch.join("x");
        let run = lint_in(&scratch, &[flag, "x"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flag} x exits 2:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{flag} is not reported as unknown:\n{stderr}"
        );
        assert!(!out.exists(), "{flag} x wrote {}", out.display());
    }
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let outcome = run(&Config::workspace(&root)).expect("lint run");
    assert!(
        outcome.files_checked > 50,
        "workspace walk found only {} files — walker broken?",
        outcome.files_checked
    );
    assert!(
        outcome.violations.is_empty(),
        "workspace has lint violations:\n{}",
        render(&outcome.violations)
    );
    // The walker covers the integration-test and example trees too
    // (the hot-path rules apply there as well).
    assert_eq!(outcome.timings.len(), outcome.files_checked);
}

#[test]
fn walker_covers_tests_and_examples() {
    let root = workspace_root();
    let files = gandef_lint::workspace_sources(&root).expect("walk");
    let has = |needle: &str| {
        files
            .iter()
            .any(|p| p.display().to_string().replace('\\', "/").contains(needle))
    };
    assert!(has("/tests/"), "workspace walk misses tests/");
    assert!(has("/examples/"), "workspace walk misses examples/");
    assert!(
        has("/src/bin/"),
        "workspace walk misses crates/bench/src/bin/"
    );
}

#[test]
fn unbalanced_file_is_a_parse_error_not_a_verdict() {
    let root = workspace_root();
    let mut cfg = Config::workspace(&root);
    cfg.files = vec![root.join("crates/lint/fixtures/broken.rs")];
    let outcome = run(&cfg).expect("lint run");
    assert_eq!(outcome.parse_errors.len(), 1, "{:?}", outcome.parse_errors);
    let e = &outcome.parse_errors[0];
    assert!(
        e.message.contains("mismatched"),
        "unexpected diagnosis: {e}"
    );
    assert!(
        e.line > 0 && e.col > 0,
        "parse errors carry a location: {e}"
    );
}

#[test]
fn violations_carry_columns() {
    let root = workspace_root();
    let mut cfg = Config::workspace(&root);
    cfg.files = vec![root.join("crates/lint/fixtures/seeded.rs")];
    let outcome = run(&cfg).expect("lint run");
    assert!(!outcome.violations.is_empty());
    for v in &outcome.violations {
        assert!(v.col >= 1, "column must be 1-based: {v}");
        let rendered = format!("{v}");
        assert!(
            rendered.contains(&format!(":{}:{}: ", v.line, v.col)),
            "text diagnostics must render file:line:col — got {rendered}"
        );
    }
}

#[test]
fn missing_registry_makes_knob_reads_violations() {
    // The registry is `<root>/docs/KNOBS.md`; this root has none.
    let root = workspace_root();
    let mut cfg = Config::workspace(root.join("crates/lint"));
    assert!(!cfg.root.join("docs/KNOBS.md").exists());
    cfg.files = vec![root.join("crates/lint/fixtures/seeded.rs")];
    let outcome = run(&cfg).expect("lint run");
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.rule == Rule::Knob && v.message.contains("GANDEF_FIXTURE_ONLY")),
        "{}",
        render(&outcome.violations)
    );
}

fn render(violations: &[gandef_lint::rules::Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  {v}\n"))
        .collect::<String>()
}
