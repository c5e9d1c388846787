//! Parse-tree rules: `alloc`, `cast`, `shape`.
//!
//! Unlike the token-stream rules, these need structure — loop nesting,
//! function signatures, call arguments — which [`crate::parser`]
//! recovers. All three are scoped to the modules where the invariant
//! actually buys something:
//!
//! * `alloc` and `cast` guard the **hot path** (`tensor::linalg`,
//!   `tensor::conv`, `tensor::pool`, `autodiff::ops`, `attack::*`) —
//!   the code whose per-epoch wall time is the paper's headline number
//!   (Table IV), where a stray per-iteration allocation or a silent
//!   f64→f32 rounding erodes exactly what we measure;
//! * `shape` guards `gandef-tensor`'s public surface: a public
//!   `Tensor`-returning fn that indexes before asserting its shape
//!   contract panics with a bare out-of-bounds message instead of the
//!   shape mismatch that caused it.
//!
//! The lint's own seeded fixtures (`crates/lint/fixtures/`) are treated
//! as in-scope for every rule so the CI self-test can prove each rule
//! still fires.

use super::{suppressed_at, FileReport, Rule, Violation};
use crate::lexer::{TokKind, Token};
use crate::parser::{CastSrc, FnDef, Parsed, Site, SiteKind};

/// Runs every semantic rule that is in scope for `file`. The caller
/// parses once and shares the tree with the concurrency rules.
pub(crate) fn check(file: &str, toks: &[Token], parsed: &Parsed, report: &mut FileReport) {
    let alloc = in_hot_path(file);
    let cast = in_hot_path(file);
    let shape = in_shape_scope(file);
    if !(alloc || cast || shape) {
        return;
    }
    let comments: Vec<(usize, &str)> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment)
        .map(|t| (t.line, t.text.as_str()))
        .collect();
    let ctx = Ctx {
        file,
        comments,
        parsed,
    };
    if alloc {
        ctx.rule_alloc(report);
    }
    if cast {
        ctx.rule_cast(report);
    }
    if shape {
        ctx.rule_shape(report);
    }
}

/// Hot-path modules for the `alloc` and `cast` rules.
fn in_hot_path(file: &str) -> bool {
    let p = file.replace('\\', "/");
    p.ends_with("tensor/src/linalg.rs")
        || p.ends_with("tensor/src/conv.rs")
        || p.ends_with("tensor/src/pool.rs")
        || p.ends_with("autodiff/src/ops.rs")
        || p.contains("attack/src/")
        || is_fixture(&p)
}

/// `shape` applies to the tensor crate's public surface.
fn in_shape_scope(file: &str) -> bool {
    let p = file.replace('\\', "/");
    p.contains("tensor/src/") || is_fixture(&p)
}

/// The lint's own seeded fixtures are in-scope for every rule.
pub(crate) fn is_fixture(p: &str) -> bool {
    p.contains("lint/fixtures/")
}

struct Ctx<'a> {
    file: &'a str,
    comments: Vec<(usize, &'a str)>,
    parsed: &'a Parsed,
}

impl Ctx<'_> {
    fn violation(
        &self,
        report: &mut FileReport,
        line: usize,
        col: usize,
        rule: Rule,
        message: String,
    ) {
        report.violations.push(Violation {
            file: self.file.to_string(),
            line,
            col,
            rule,
            message,
        });
    }

    fn suppressed(&self, line: usize, rule: Rule) -> bool {
        suppressed_at(&self.comments, line, rule)
    }

    /// Site suppression honors an annotation at the site's own line *or*
    /// at the start of its statement — rustfmt wraps long statements, and
    /// the comment stays above the wrap point.
    fn site_suppressed(&self, s: &Site, rule: Rule) -> bool {
        self.suppressed(s.line, rule) || self.suppressed(s.stmt_line, rule)
    }

    // ------------------------------------------------------------------
    // Rule: alloc
    // ------------------------------------------------------------------

    /// No `Vec::new()`, `vec![…]`, `.to_vec()`, `.collect()` or
    /// `.clone()` inside a loop body. Allocation per *call* is fine;
    /// allocation per *iteration* is O(iterations) heap traffic on the
    /// path whose wall time the paper's Table IV compares.
    fn rule_alloc(&self, report: &mut FileReport) {
        for f in self.parsed.fns.iter().filter(|f| !f.in_test) {
            for s in &f.sites {
                if s.loop_depth == 0 {
                    continue;
                }
                let what = match &s.kind {
                    SiteKind::Call {
                        name, method: true, ..
                    } if matches!(name.as_str(), "to_vec" | "collect" | "clone") => {
                        format!(".{name}()")
                    }
                    SiteKind::Call {
                        name,
                        method: false,
                        recv: Some(recv),
                        ..
                    } if name == "new" && recv == "Vec" => "Vec::new()".to_string(),
                    SiteKind::Macro { name } if name == "vec" => "vec![…]".to_string(),
                    _ => continue,
                };
                if self.site_suppressed(s, Rule::Alloc) {
                    continue;
                }
                self.violation(
                    report,
                    s.line,
                    s.col,
                    Rule::Alloc,
                    format!(
                        "heap allocation `{what}` inside a loop on the hot path — hoist \
                         it out of the loop or annotate `// lint:allow(alloc) — <reason>`"
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Rule: cast
    // ------------------------------------------------------------------

    /// Lossy `as` casts (f64→f32, u64/i64→usize/i32) in kernel fns need
    /// a visible guard (`debug_assert!`/`assert!` family or
    /// `try_from`/`try_into` anywhere in the fn) or an annotation. The
    /// source side is typed shallowly: literal suffixes, `let`/param
    /// types, `as f64` inside a parenthesized group, indexing into a
    /// known f64 container.
    fn rule_cast(&self, report: &mut FileReport) {
        for f in self.parsed.fns.iter().filter(|f| !f.in_test) {
            let guarded = f.sites.iter().any(|s| match &s.kind {
                SiteKind::Macro { name } => {
                    name.starts_with("assert") || name.starts_with("debug_assert")
                }
                SiteKind::Call { name, .. } => name == "try_from" || name == "try_into",
                _ => false,
            });
            if guarded {
                continue;
            }
            for s in &f.sites {
                let SiteKind::Cast { to, src } = &s.kind else {
                    continue;
                };
                let lossy = match to.as_str() {
                    "f32" => self.src_has_type(f, src, &["f64"]),
                    "usize" | "i32" => self.src_has_type(f, src, &["u64", "i64"]),
                    _ => false,
                };
                if !lossy || self.site_suppressed(s, Rule::Cast) {
                    continue;
                }
                self.violation(
                    report,
                    s.line,
                    s.col,
                    Rule::Cast,
                    format!(
                        "lossy `as {to}` cast in a kernel fn with no `debug_assert!`/\
                         `try_from` guard — add a guard or annotate \
                         `// lint:allow(cast) — <reason>`"
                    ),
                );
            }
        }
    }

    /// True if the cast source is (or contains) a value of one of the
    /// wide `types`.
    fn src_has_type(&self, f: &FnDef, src: &CastSrc, types: &[&str]) -> bool {
        let ident_is = |name: &str| {
            self.lookup(f, name)
                .is_some_and(|ty| types.iter().any(|t| ty.trim() == *t))
        };
        match src {
            CastSrc::Num(text) => types.iter().any(|t| text.ends_with(t)),
            CastSrc::Ident(name) => ident_is(name),
            CastSrc::Group(texts) => texts
                .iter()
                .any(|t| types.contains(&t.as_str()) || ident_is(t)),
            CastSrc::IndexOf(name) => self.lookup(f, name).is_some_and(|ty| {
                types.iter().any(|t| ty.contains(t)) && (ty.contains('[') || ty.contains("Vec"))
            }),
            CastSrc::Other => false,
        }
    }

    /// The declared type of `name` in `f`'s params or lets, if any.
    fn lookup<'b>(&self, f: &'b FnDef, name: &str) -> Option<&'b str> {
        f.lets
            .iter()
            .chain(f.params.iter())
            .find(|(n, _)| n == name)
            .map(|(_, ty)| ty.as_str())
    }

    // ------------------------------------------------------------------
    // Rule: shape
    // ------------------------------------------------------------------

    /// A public `Tensor`-returning fn that contains an index expression
    /// must run a shape `assert!`/`debug_assert!` before its first
    /// index, so shape bugs surface as contract failures rather than
    /// out-of-bounds panics deep in a kernel.
    fn rule_shape(&self, report: &mut FileReport) {
        for f in self.parsed.fns.iter().filter(|f| !f.in_test) {
            if !f.is_pub || !f.ret.contains("Tensor") {
                continue;
            }
            let Some(first_index) = f.sites.iter().find(|s| matches!(s.kind, SiteKind::Index))
            else {
                continue;
            };
            let asserted_before = f.sites.iter().any(|s| {
                s.idx < first_index.idx
                    && matches!(&s.kind, SiteKind::Macro { name }
                        if name.starts_with("assert") || name.starts_with("debug_assert"))
            });
            if asserted_before
                || self.suppressed(f.line, Rule::Shape)
                || self.site_suppressed(first_index, Rule::Shape)
            {
                continue;
            }
            self.violation(
                report,
                f.line,
                f.col,
                Rule::Shape,
                format!(
                    "public Tensor-returning fn `{}` indexes (line {}) before any shape \
                     `assert!`/`debug_assert!` — state the shape contract first or \
                     annotate `// lint:allow(shape) — <reason>`",
                    f.qual, first_index.line
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_file, Rule, Violation};

    const HOT: &str = "crates/tensor/src/linalg.rs";
    const TENSOR: &str = "crates/tensor/src/tensor.rs";
    const COLD: &str = "crates/nn/src/layers.rs";

    fn rules_at(file: &str, src: &str) -> Vec<Rule> {
        check_file(file, src, true)
            .violations
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    // ---- alloc ----

    #[test]
    fn allocation_in_loop_fires_on_hot_path() {
        let src = "fn k(n: usize) {\n    for i in 0..n {\n        let v = Vec::new();\n    }\n}";
        assert_eq!(rules_at(HOT, src), vec![Rule::Alloc]);
    }

    #[test]
    fn all_alloc_forms_fire() {
        let src = "fn k(n: usize, s: &[f32]) {\n    for i in 0..n {\n        let a = vec![0.0; 4];\n        let b = s.to_vec();\n        let c = b.clone();\n        let d = s.iter().collect::<Vec<_>>();\n    }\n}";
        assert_eq!(rules_at(HOT, src), vec![Rule::Alloc; 4]);
    }

    #[test]
    fn allocation_outside_loop_is_fine() {
        let src = "fn k(n: usize) {\n    let mut v = Vec::new();\n    for i in 0..n {\n        v.push(i);\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn alloc_is_scoped_to_hot_path_modules() {
        let src = "fn k(n: usize) {\n    for i in 0..n {\n        let v = Vec::new();\n    }\n}";
        assert!(rules_at(COLD, src).is_empty());
    }

    #[test]
    fn alloc_annotation_is_honored() {
        let src = "fn k(n: usize) {\n    for i in 0..n {\n        // lint:allow(alloc) — O(restarts) outer loop, not per-element\n        let v = Vec::new();\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn annotation_above_wrapped_statement_is_honored() {
        // The `.collect()` sits two lines below the statement start; the
        // annotation above the statement must still cover it.
        let src = "fn k(n: usize, s: &[f32]) {\n    for i in 0..n {\n        // lint:allow(alloc) — once per outer iteration by design\n        let v: Vec<f32> = s\n            .iter()\n            .copied()\n            .collect();\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn arc_clone_is_not_method_clone() {
        let src = "fn k(n: usize, x: &Arc<u8>) {\n    for i in 0..n {\n        let y = Arc::clone(x);\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    // ---- cast ----

    #[test]
    fn f64_to_f32_without_guard_fires() {
        let src = "fn k(x: f64) -> f32 { x as f32 }";
        assert_eq!(rules_at(HOT, src), vec![Rule::Cast]);
    }

    #[test]
    fn suffixed_literal_and_group_casts_fire() {
        let src = "fn k(n: usize) -> f32 { (1.0f64 / n as f64) as f32 }";
        assert_eq!(rules_at(HOT, src), vec![Rule::Cast]);
    }

    #[test]
    fn guarded_cast_passes() {
        let src = "fn k(x: f64) -> f32 {\n    debug_assert!(x.abs() < 1e30);\n    x as f32\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn annotated_cast_passes() {
        let src = "fn k(x: f64) -> f32 {\n    // lint:allow(cast) — single final rounding, by design\n    x as f32\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn widening_and_unknown_casts_pass() {
        let src = "fn k(n: usize, x: f32) -> f64 { let a = n as f64; let b = x as f64; a + b }";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn i64_to_usize_fires_and_u32_does_not() {
        let src = "fn k(a: i64, b: u32) -> usize { (a as usize) + (b as usize) }";
        assert_eq!(rules_at(HOT, src), vec![Rule::Cast]);
    }

    #[test]
    fn f64_slice_index_cast_fires() {
        let src = "fn k(row: &[f64]) -> f32 { row[0] as f32 }";
        assert_eq!(rules_at(HOT, src), vec![Rule::Cast]);
    }

    // ---- shape ----

    #[test]
    fn pub_tensor_fn_indexing_without_assert_fires() {
        let src =
            "pub fn row(t: &Tensor, i: usize) -> Tensor {\n    let x = t.data[i];\n    make(x)\n}";
        assert_eq!(rules_at(TENSOR, src), vec![Rule::Shape]);
    }

    #[test]
    fn assert_before_index_passes() {
        let src = "pub fn row(t: &Tensor, i: usize) -> Tensor {\n    assert!(i < t.dim(0), \"row out of range\");\n    let x = t.data[i];\n    make(x)\n}";
        assert!(rules_at(TENSOR, src).is_empty());
    }

    #[test]
    fn private_and_non_tensor_fns_are_exempt() {
        let src = "fn row(t: &Tensor, i: usize) -> Tensor { make(t.data[i]) }\npub fn get(t: &Tensor, i: usize) -> f32 { t.data[i] }";
        assert!(rules_at(TENSOR, src).is_empty());
    }

    #[test]
    fn pub_tensor_fn_without_indexing_is_exempt() {
        let src = "pub fn zeros(dims: &[usize]) -> Tensor { alloc(dims) }";
        assert!(rules_at(TENSOR, src).is_empty());
    }

    #[test]
    fn shape_annotation_is_honored() {
        let src = "// lint:allow(shape) — index is over params, not tensor data\npub fn row(t: &Tensor, i: usize) -> Tensor {\n    make(t.data[i])\n}";
        assert!(rules_at(TENSOR, src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_semantic_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(n: usize) {\n        for i in 0..n { let v = Vec::new(); }\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn messages_carry_allow_hints() {
        let src = "fn k(n: usize) {\n    for i in 0..n {\n        let v = Vec::new();\n    }\n}";
        let v: Vec<Violation> = check_file(HOT, src, true).violations;
        assert!(
            v[0].message.contains("lint:allow(alloc)"),
            "{}",
            v[0].message
        );
    }
}
