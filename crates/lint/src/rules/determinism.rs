//! Determinism rules: `nondet` and `errprop`.
//!
//! The training loop's reproducibility contract (DESIGN.md "Determinism")
//! breaks on one `HashMap` iteration feeding parameter updates or one
//! silently dropped checkpoint-write error. These rules make every such
//! site either provably ordered or annotated with a reviewed
//! justification. Float accumulation order is checked at run time
//! instead, by the f64 bitwise pool-invariance tests and the
//! `numerics_audit --oracle` diff.
//!
//! * `nondet` — nondeterminism sources in numeric-path crates
//!   (`tensor`, `autodiff`, `attack`, `defense`): any `HashMap`/`HashSet`
//!   (its iteration order is seeded per process, and a token rule cannot
//!   tell iteration from lookup), `SystemTime::now`/`Instant::now`
//!   wall-clock reads,
//!   thread-id arithmetic, and any RNG that is not a seeded `Prng`
//!   stream. Telemetry/bench code escapes with `lint:allow(nondet)`.
//! * `errprop` — a `Result` discarded via `let _ = …;` or a
//!   statement-position `.ok();` in library code. Checkpoint rotation
//!   and serve hot-reload I/O must propagate, count, or justify.

use super::{is_fixture, FileCtx, FileReport, Rule, Violation};
use crate::lexer::{is_keyword, TokKind, Token};

/// Runs the determinism rules. Library code and the seeded fixtures
/// only; `#[cfg(test)]` spans are exempt.
pub(super) fn check(ctx: &FileCtx<'_>, report: &mut FileReport) {
    if !(ctx.is_lib || is_fixture(ctx.file)) {
        return;
    }
    let d = Det { ctx };
    d.rule_nondet(report);
    d.rule_errprop(report);
}

struct Det<'a, 'b> {
    ctx: &'a FileCtx<'b>,
}

impl Det<'_, '_> {
    fn ct(&self, p: usize) -> &Token {
        self.ctx.ct(p)
    }

    fn n_code(&self) -> usize {
        self.ctx.code.len()
    }

    fn violation(&self, report: &mut FileReport, t: &Token, rule: Rule, message: String) {
        report.violations.push(Violation {
            file: self.ctx.file.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message,
        });
    }

    // ------------------------------------------------------------------
    // Rule: nondet
    // ------------------------------------------------------------------

    /// True if this file is in the rule's numeric-path scope.
    fn nondet_in_scope(&self) -> bool {
        let f = self.ctx.file;
        f.contains("tensor/src/")
            || f.contains("autodiff/src/")
            || f.contains("attack")
            || f.contains("defense")
            || is_fixture(f)
    }

    fn rule_nondet(&self, report: &mut FileReport) {
        if !self.nondet_in_scope() {
            return;
        }
        for p in 0..self.n_code() {
            if self.ctx.in_test_span(p) {
                continue;
            }
            let Some(what) = self.nondet_source(p) else {
                continue;
            };
            if self.ctx.stmt_suppressed(p, Rule::Nondet) {
                continue;
            }
            let t = self.ct(p);
            self.violation(
                report,
                t,
                Rule::Nondet,
                format!(
                    "{what} in a numeric path — replay cannot reproduce this value; \
                     derive it from the seeded `Prng` stream or a stable order, or \
                     annotate `// lint:allow(nondet) — <telemetry/bench reason>`"
                ),
            );
        }
    }

    /// Classifies the code token at `p` as a nondeterminism source.
    fn nondet_source(&self, p: usize) -> Option<String> {
        let n = self.n_code();
        let t = self.ct(p);
        if t.kind != TokKind::Ident {
            return None;
        }
        let path_call = |head: &str, tail: &str| {
            t.is_ident(head)
                && p + 3 < n
                && self.ct(p + 1).is_punct(':')
                && self.ct(p + 2).is_punct(':')
                && self.ct(p + 3).is_ident(tail)
        };
        if path_call("SystemTime", "now") || path_call("Instant", "now") {
            return Some(format!("`{}::now()` wall-clock read", t.text));
        }
        if path_call("thread", "current") {
            return Some("`thread::current()` identity read".to_string());
        }
        if t.is_ident("ThreadId") {
            return Some("`ThreadId` in value position".to_string());
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "RandomState" | "getrandom"
        ) {
            return Some(format!(
                "`{}` — RNG outside the seeded `Prng` stream",
                t.text
            ));
        }
        if matches!(t.text.as_str(), "HashMap" | "HashSet") {
            return Some(format!(
                "`{}` — hash-container iteration order is seeded per process",
                t.text
            ));
        }
        None
    }

    // ------------------------------------------------------------------
    // Rule: errprop
    // ------------------------------------------------------------------

    fn rule_errprop(&self, report: &mut FileReport) {
        for p in 0..self.n_code() {
            if self.ctx.in_test_span(p) {
                continue;
            }
            // `let _ = <expr containing a call>;` — a discarded value
            // with computation behind it, the classic dropped Result.
            if self.ct(p).is_ident("let")
                && p + 2 < self.n_code()
                && self.ct(p + 1).is_ident("_")
                && self.ct(p + 2).is_punct('=')
            {
                // `let _ = unsafe { … }` is the read-for-effect idiom
                // (materializing a place), not a Result drop.
                let head_unsafe = p + 3 < self.n_code() && self.ct(p + 3).is_ident("unsafe");
                if !head_unsafe
                    && self.stmt_has_call(p + 3)
                    && !self.ctx.stmt_suppressed(p, Rule::Errprop)
                {
                    let t = self.ct(p);
                    self.violation(
                        report,
                        t,
                        Rule::Errprop,
                        "`let _ = …;` discards a call result — propagate the error, \
                         record it (telemetry counter / log), or annotate \
                         `// lint:allow(errprop) — <reason>`"
                            .to_string(),
                    );
                }
                continue;
            }
            // Statement-position `.ok();` — converts the error to `None`
            // and immediately drops it. A chained `.ok().…` or `.ok()?`
            // consumes the Option and is fine.
            if self.ct(p).is_punct('.')
                && p + 4 < self.n_code()
                && self.ct(p + 1).is_ident("ok")
                && self.ct(p + 2).is_punct('(')
                && self.ct(p + 3).is_punct(')')
                && self.ct(p + 4).is_punct(';')
                && !self.ctx.stmt_suppressed(p + 1, Rule::Errprop)
            {
                let t = self.ct(p + 1);
                self.violation(
                    report,
                    t,
                    Rule::Errprop,
                    "statement-position `.ok();` swallows the error — propagate it, \
                     record it, or annotate `// lint:allow(errprop) — <reason>`"
                        .to_string(),
                );
            }
        }
    }

    /// True if the statement starting at code-index `p` contains a call
    /// (`ident (` or `ident !` macro) before its terminating `;`.
    fn stmt_has_call(&self, p: usize) -> bool {
        let mut depth = 0i32;
        let mut q = p;
        while q < self.n_code() {
            let t = self.ct(q);
            match t.kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => return false,
                TokKind::Ident => {
                    if q + 1 < self.n_code()
                        && (self.ct(q + 1).is_punct('(') || self.ct(q + 1).is_punct('!'))
                        && !is_keyword(&t.text)
                    {
                        return true;
                    }
                }
                _ => {}
            }
            q += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_file, Rule, Violation};

    fn violations(file: &str, src: &str) -> Vec<Violation> {
        check_file(file, src, true).violations
    }

    fn fired(file: &str, src: &str, rule: Rule) -> Vec<Violation> {
        violations(file, src)
            .into_iter()
            .filter(|v| v.rule == rule)
            .collect()
    }

    // ---- nondet ----

    #[test]
    fn instant_now_fires_in_numeric_path() {
        let src = "fn f() -> u64 { let t = std::time::Instant::now(); 0 }";
        let v = fired("crates/defense/src/x.rs", src, Rule::Nondet);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn nondet_source_is_cited_with_position() {
        let src = "pub fn stamp() -> u64 {\n    let t = Instant::now();\n    0\n}";
        let v = fired("crates/tensor/src/x.rs", src, Rule::Nondet);
        assert_eq!((v.len(), v[0].line, v[0].col), (1, 2, 13), "{v:?}");
        assert!(
            v[0].message.starts_with("`Instant::now()` wall-clock read"),
            "{v:?}"
        );
    }

    #[test]
    fn instant_now_outside_scope_passes() {
        let src = "fn f() -> u64 { let t = std::time::Instant::now(); 0 }";
        assert!(fired("crates/serve/src/lib.rs", src, Rule::Nondet).is_empty());
    }

    #[test]
    fn annotated_telemetry_clock_passes() {
        let src = "fn f() -> u64 {\n    // lint:allow(nondet) — telemetry duration, never feeds values.\n    let t = std::time::Instant::now();\n    0\n}";
        assert!(fired("crates/defense/src/x.rs", src, Rule::Nondet).is_empty());
    }

    #[test]
    fn hashmap_iteration_fires() {
        // Every `HashMap` token fires, the import included: the rule
        // cannot see which binding is iterated.
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<String, f32>) -> f32 {\n    let mut s = 0.0;\n    for v in m.values() { s += v; }\n    s\n}";
        let v = fired("crates/attack/src/x.rs", src, Rule::Nondet);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2], "{v:?}");
        assert!(v[0].message.starts_with("`HashMap`"), "{v:?}");
        // A keyed lookup outside `#[cfg(test)]` fires too.
        let src = "fn f(m: &std::collections::HashMap<u32, f32>) -> f32 {\n    m[&0]\n}";
        let v = fired("crates/attack/src/x.rs", src, Rule::Nondet);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn vec_iteration_passes() {
        let src = "fn f(m: Vec<f32>) -> f32 {\n    let mut s = 0.0;\n    for v in m.iter() { s += v; }\n    s\n}";
        assert!(fired("crates/attack/src/x.rs", src, Rule::Nondet).is_empty());
    }

    #[test]
    fn for_in_hashset_fires() {
        let src = "use std::collections::HashSet;\nfn f(m: HashSet<u32>) -> u32 {\n    let mut s = 0;\n    for v in &m { s += v; }\n    s\n}";
        let v = fired("crates/attack/src/x.rs", src, Rule::Nondet);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2], "{v:?}");
    }

    #[test]
    fn foreign_rng_fires() {
        let src = "fn f() -> f32 { thread_rng() }";
        let v = fired("crates/autodiff/src/x.rs", src, Rule::Nondet);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn prng_stream_passes() {
        let src = "fn f(rng: &mut Prng) -> f32 { rng.next_f32() }";
        assert!(fired("crates/autodiff/src/x.rs", src, Rule::Nondet).is_empty());
    }

    #[test]
    fn nondet_in_test_span_passes() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn bench() { let t = std::time::Instant::now(); }\n}";
        assert!(fired("crates/tensor/src/x.rs", src, Rule::Nondet).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t(m: &HashMap<u32, f32>) -> f32 { m[&0] }\n}";
        assert!(fired("crates/attack/src/x.rs", src, Rule::Nondet).is_empty());
    }

    // ---- errprop ----

    #[test]
    fn let_underscore_call_fires() {
        let src = "fn f(path: &str) { let _ = std::fs::remove_file(path); }";
        let v = fired("crates/nn/src/x.rs", src, Rule::Errprop);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn let_underscore_plain_value_passes() {
        let src = "fn f(x: u32) { let _ = x; }";
        assert!(fired("crates/nn/src/x.rs", src, Rule::Errprop).is_empty());
    }

    #[test]
    fn let_underscore_unsafe_place_passes() {
        let src = "fn f(p: *const f32, n: usize) {\n    debug_assert!(n < 1);\n    // SAFETY: caller contract.\n    let _ = unsafe { std::slice::from_raw_parts(p, n) };\n}";
        assert!(fired("crates/nn/src/x.rs", src, Rule::Errprop).is_empty());
    }

    #[test]
    fn statement_ok_fires() {
        let src = "fn f(path: &str) { std::fs::remove_file(path).ok(); }";
        let v = fired("crates/nn/src/x.rs", src, Rule::Errprop);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn chained_ok_passes() {
        let src = "fn f(s: &str) -> Option<u32> { s.parse::<u32>().ok().map(|v| v + 1) }";
        assert!(fired("crates/nn/src/x.rs", src, Rule::Errprop).is_empty());
    }

    #[test]
    fn annotated_drop_passes() {
        let src = "fn f(path: &str) {\n    // lint:allow(errprop) — best-effort tmp cleanup on the error path.\n    let _ = std::fs::remove_file(path);\n}";
        assert!(fired("crates/nn/src/x.rs", src, Rule::Errprop).is_empty());
    }

    #[test]
    fn errprop_in_test_span_passes() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::remove_file(\"x\").ok(); }\n}";
        assert!(fired("crates/nn/src/x.rs", src, Rule::Errprop).is_empty());
    }
}
