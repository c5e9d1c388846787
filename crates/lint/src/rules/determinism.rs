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
//!   (`tensor`, `autodiff`, `attack`, `defense`): `HashMap`/`HashSet`
//!   iteration, `SystemTime::now`/`Instant::now` wall-clock reads,
//!   thread-id arithmetic, and any RNG that is not a seeded `Prng`
//!   stream. Telemetry/bench code escapes with `lint:allow(nondet)`.
//! * `errprop` — a `Result` discarded via `let _ = …;` or a
//!   statement-position `.ok();` in library code. Checkpoint rotation
//!   and serve hot-reload I/O must propagate, count, or justify.

use super::{FileCtx, FileReport, Rule, Violation};
use crate::lexer::{TokKind, Token};
use crate::parser::{FnDef, Parsed};

/// Runs the determinism rules. Library code and the seeded fixtures
/// only; `#[cfg(test)]` spans are exempt.
pub(super) fn check(ctx: &FileCtx<'_>, parsed: &Parsed, report: &mut FileReport) {
    if !(ctx.is_lib || super::semantic::is_fixture(ctx.file)) {
        return;
    }
    let d = Det { ctx, parsed };
    d.rule_nondet(report);
    d.rule_errprop(report);
}

struct Det<'a, 'b> {
    ctx: &'a FileCtx<'b>,
    parsed: &'a Parsed,
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

    /// The innermost parsed fn whose body span contains code-index `p`.
    fn enclosing_fn_def(&self, p: usize) -> Option<&FnDef> {
        self.parsed
            .fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= p && p <= e))
            .min_by_key(|f| {
                let (s, e) = f.body.unwrap_or((0, usize::MAX));
                e - s
            })
    }

    /// Flattened type of `name` in the fn enclosing code-index `p`:
    /// `let` bindings first (inner shadows param), then parameters.
    fn ty_of(&self, p: usize, name: &str) -> Option<String> {
        let f = self.enclosing_fn_def(p)?;
        f.lets
            .iter()
            .rev()
            .chain(f.params.iter())
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
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
            || super::semantic::is_fixture(f)
    }

    fn rule_nondet(&self, report: &mut FileReport) {
        if !self.nondet_in_scope() {
            return;
        }
        for p in 0..self.n_code() {
            if self.ctx.in_test_span(p) {
                continue;
            }
            let Some(what) = self.nondet_source_at(p) else {
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
    fn nondet_source_at(&self, p: usize) -> Option<String> {
        nondet_source(self.ctx.toks, &self.ctx.code, p, &|at, name| {
            self.ty_of(at, name)
        })
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
                        && !crate::parser::is_keyword(&t.text)
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

/// Classifies the code token at `p` (an index into `code`, which indexes
/// `toks`) as a nondeterminism source. `ty` resolves an identifier to its
/// flattened type at a given code index (from the enclosing fn's `let`s
/// and params). Shared between the `nondet` rule and the
/// `docs/DETERMINISM.md` classification so the two can never disagree.
pub(crate) fn nondet_source(
    toks: &[Token],
    code: &[usize],
    p: usize,
    ty: &dyn Fn(usize, &str) -> Option<String>,
) -> Option<String> {
    let ct = |q: usize| &toks[code[q]];
    let n = code.len();
    let t = ct(p);
    if t.kind != TokKind::Ident {
        return None;
    }
    let path_call = |head: &str, tail: &str| {
        t.is_ident(head)
            && p + 3 < n
            && ct(p + 1).is_punct(':')
            && ct(p + 2).is_punct(':')
            && ct(p + 3).is_ident(tail)
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
    // Iteration over a hash container: `map.iter()`-style method calls,
    // and `for k in &map` loops, where the receiver's type (from `let`s
    // and params of the enclosing fn) names HashMap/HashSet.
    let hash_typed = |name: &str, at: usize| {
        ty(at, name).is_some_and(|t| t.contains("HashMap") || t.contains("HashSet"))
    };
    let iter_method = matches!(
        t.text.as_str(),
        "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain"
    );
    if iter_method
        && p >= 2
        && ct(p - 1).is_punct('.')
        && ct(p - 2).kind == TokKind::Ident
        && p + 1 < n
        && ct(p + 1).is_punct('(')
        && hash_typed(&ct(p - 2).text, p)
    {
        return Some(format!(
            "`{}.{}()` — hash-container iteration order is seed-dependent",
            ct(p - 2).text,
            t.text
        ));
    }
    if t.is_ident("in") && p + 1 < n {
        let mut q = p + 1;
        while q < n && (ct(q).is_punct('&') || ct(q).is_ident("mut")) {
            q += 1;
        }
        // Only the bare `for x in map {` / `for x in &map {` form —
        // `map.iter()`-style receivers are the method check's job.
        if q < n
            && ct(q).kind == TokKind::Ident
            && (q + 1 >= n || ct(q + 1).is_punct('{'))
            && hash_typed(&ct(q).text, q)
        {
            return Some(format!(
                "`for … in {}` — hash-container iteration order is seed-dependent",
                ct(q).text
            ));
        }
    }
    None
}

// ----------------------------------------------------------------------
// docs/DETERMINISM.md — per-public-API classification
// ----------------------------------------------------------------------

/// One function node for the determinism classification graph. Same
/// name-based resolution as the panic call graph ([`crate::callgraph`]).
struct DetNode {
    file: String,
    name: String,
    qual: String,
    is_pub: bool,
    has_self: bool,
    /// First unsuppressed nondeterminism source in the body:
    /// `(line, col, description)`.
    nondet: Option<(usize, usize, String)>,
    /// True if the body samples the accumulation mode (`accum()` /
    /// `with_accum(...)` call): its float reductions are mode-dependent —
    /// bit-exact per mode, order-sensitive across f32 chunkings only in
    /// the sense that the f32 chain order is pinned by the mode contract.
    samples_accum: bool,
    /// Unresolved outgoing calls: `(name, is_method, recv)`.
    calls: Vec<(String, bool, Option<String>)>,
}

/// Builds the classification over `(display_path, source)` pairs —
/// pre-filtered to library code — and renders `docs/DETERMINISM.md`.
/// Deterministic for a fixed input order.
///
/// Classification, most severe first:
///
/// 1. **nondeterministic** — the fn transitively reaches an unsuppressed
///    nondeterminism source; the witness source is cited `file:line:col`.
/// 2. **order-sensitive under f32** — the fn transitively samples the
///    `Accum` mode: its result is bit-exact for a fixed mode, but the
///    default-f32 chained accumulation differs from the f64 mode.
/// 3. **bit-exact under f64** — everything else: the same inputs produce
///    the same bits in every accumulation mode and pool size.
pub fn render_report(files: &[(String, String)]) -> String {
    use std::collections::BTreeMap;
    let mut nodes: Vec<DetNode> = Vec::new();
    for (file, src) in files {
        let toks = crate::lexer::lex(src);
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let comments: Vec<(usize, &str)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        let parsed = crate::parser::parse(&toks);
        for f in parsed.fns.iter().filter(|f| !f.in_test) {
            nodes.push(det_node(file, f, &toks, &code, &comments));
        }
    }

    // Name → node indices; resolution mirrors callgraph::panic_report.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
    }
    let resolve = |name: &str, method: bool, recv: &Option<String>| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        if method {
            if crate::callgraph::STD_METHODS.contains(&name) {
                return Vec::new();
            }
            return cands
                .iter()
                .copied()
                .filter(|&i| nodes[i].has_self)
                .collect();
        }
        if let Some(recv) = recv {
            let qual: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| nodes[i].qual == format!("{recv}::{name}"))
                .collect();
            if !qual.is_empty() {
                return qual;
            }
        }
        cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].qual == nodes[i].name)
            .collect()
    };

    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            let mut out: Vec<usize> = n
                .calls
                .iter()
                .flat_map(|(name, method, recv)| resolve(name, *method, recv))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, outs) in adj.iter().enumerate() {
        for &j in outs {
            rev[j].push(i);
        }
    }
    let fixpoint = |seed: Vec<bool>| -> Vec<bool> {
        let mut reaches = seed;
        let mut work: Vec<usize> = (0..nodes.len()).filter(|&i| reaches[i]).collect();
        while let Some(j) = work.pop() {
            for &i in &rev[j] {
                if !reaches[i] {
                    reaches[i] = true;
                    work.push(i);
                }
            }
        }
        reaches
    };
    let nondet = fixpoint(nodes.iter().map(|n| n.nondet.is_some()).collect());
    let ordered = fixpoint(nodes.iter().map(|n| n.samples_accum).collect());

    // One row per public fn of the classified crates.
    let in_scope = |file: &str| {
        file.starts_with("crates/tensor/")
            || file.starts_with("crates/nn/")
            || file.starts_with("crates/serve/")
    };
    let mut rows: Vec<String> = Vec::new();
    let mut counts = [0usize; 3];
    let mut seen = std::collections::BTreeSet::new();
    for (i, n) in nodes.iter().enumerate() {
        if !n.is_pub || !in_scope(&n.file) {
            continue;
        }
        if !seen.insert((n.file.clone(), n.qual.clone())) {
            continue;
        }
        let (class, source) = if nondet[i] {
            let (file, line, col, what) = nondet_witness(i, &nodes, &adj);
            (
                "nondeterministic",
                format!("{what} at `{file}:{line}:{col}`"),
            )
        } else if ordered[i] {
            (
                "order-sensitive under f32",
                "samples the `Accum` mode".to_string(),
            )
        } else {
            ("bit-exact under f64", "—".to_string())
        };
        counts[if nondet[i] {
            2
        } else if ordered[i] {
            1
        } else {
            0
        }] += 1;
        rows.push(format!(
            "| `{}` | `{}` | {} | {} |",
            n.qual, n.file, class, source
        ));
    }
    rows.sort();

    let mut out = String::new();
    out.push_str("# Determinism classification\n\n");
    out.push_str(
        "**Generated file — do not edit by hand.** Regenerate with\n\
         `./target/release/gandef-lint --determinism docs/DETERMINISM.md`\n\
         after any change that adds, removes or reroutes a reduction or a\n\
         nondeterminism source; the lint self-test diffs this file against\n\
         a fresh run and fails on drift, so every reclassification is\n\
         reviewed in the PR that introduces it.\n\n\
         Every public function of `gandef-tensor`, `gandef-nn` and\n\
         `gandef-serve` is classified, most severe class first:\n\n\
         * **nondeterministic** — transitively reaches an unsuppressed\n\
           nondeterminism source (wall clock, hash-order iteration,\n\
           thread identity, foreign RNG); the witness source is cited\n\
           `file:line:col`.\n\
         * **order-sensitive under f32** — transitively samples the\n\
           `Accum` accumulation mode: bit-exact for any fixed mode (the\n\
           per-mode combine order is pinned), but the default-f32 chain\n\
           differs numerically from the `f64` mode.\n\
         * **bit-exact under f64** — same inputs, same bits, in every\n\
           accumulation mode and pool size.\n\n\
         Call edges resolve by name — deterministic, no type inference;\n\
         method names shared with ubiquitous std methods carry no edges\n\
         (see `STD_METHODS` in `crates/lint/src/callgraph.rs`).\n\n",
    );
    out.push_str(&format!(
        "{} public functions: {} bit-exact under f64, {} order-sensitive \
         under f32, {} nondeterministic.\n\n",
        rows.len(),
        counts[0],
        counts[1],
        counts[2]
    ));
    out.push_str("| public fn | file | class | source |\n");
    out.push_str("|---|---|---|---|\n");
    for r in &rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// Builds the classification node for one parsed fn.
fn det_node(
    file: &str,
    f: &FnDef,
    toks: &[Token],
    code: &[usize],
    comments: &[(usize, &str)],
) -> DetNode {
    let mut nondet = None;
    if let Some((s, e)) = f.body {
        for p in s..=e.min(code.len().saturating_sub(1)) {
            let ty = |_at: usize, name: &str| -> Option<String> {
                f.lets
                    .iter()
                    .rev()
                    .chain(f.params.iter())
                    .find(|(n, _)| n == name)
                    .map(|(_, t)| t.clone())
            };
            if let Some(what) = nondet_source(toks, code, p, &ty) {
                let t = &toks[code[p]];
                if !super::suppressed_at(comments, t.line, Rule::Nondet) {
                    nondet = Some((t.line, t.col, what));
                    break;
                }
            }
        }
    }
    let mut samples_accum = false;
    let mut calls = Vec::new();
    for s in &f.sites {
        if let crate::parser::SiteKind::Call {
            name, method, recv, ..
        } = &s.kind
        {
            if name == "accum" || name == "with_accum" {
                samples_accum = true;
            } else {
                calls.push((name.clone(), *method, recv.clone()));
            }
        }
    }
    DetNode {
        file: file.to_string(),
        name: f.name.clone(),
        qual: f.qual.clone(),
        is_pub: f.is_pub,
        has_self: f.has_self,
        nondet,
        samples_accum,
        calls,
    }
}

/// BFS from `start` to the nearest node with a direct nondeterminism
/// source; returns `(file, line, col, description)` of that source.
fn nondet_witness(
    start: usize,
    nodes: &[DetNode],
    adj: &[Vec<usize>],
) -> (String, usize, usize, String) {
    let mut visited = vec![false; nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(i) = queue.pop_front() {
        if let Some((line, col, what)) = &nodes[i].nondet {
            return (nodes[i].file.clone(), *line, *col, what.clone());
        }
        for &j in &adj[i] {
            if !visited[j] {
                visited[j] = true;
                queue.push_back(j);
            }
        }
    }
    // Reachability said yes but BFS found nothing — cannot happen on a
    // consistent graph; render a placeholder rather than panicking.
    ("?".to_string(), 0, 0, "?".to_string())
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
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<String, f32>) -> f32 {\n    let mut s = 0.0;\n    for v in m.values() { s += v; }\n    s\n}";
        let v = fired("crates/attack/src/x.rs", src, Rule::Nondet);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("values"), "{v:?}");
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
        assert_eq!(v.len(), 1, "{v:?}");
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

    // ---- docs/DETERMINISM.md classification ----

    fn report(files: &[(&str, &str)]) -> String {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(f, s)| (f.to_string(), s.to_string()))
            .collect();
        super::render_report(&owned)
    }

    #[test]
    fn clean_fn_is_bit_exact() {
        let out = report(&[(
            "crates/tensor/src/x.rs",
            "pub fn add(a: f32, b: f32) -> f32 { a + b }",
        )]);
        assert!(
            out.contains("| `add` | `crates/tensor/src/x.rs` | bit-exact under f64 | — |"),
            "{out}"
        );
    }

    #[test]
    fn accum_sampling_is_order_sensitive() {
        let src =
            "pub fn total(xs: &[f32]) -> f32 {\n    match accum() { _ => xs.iter().sum() }\n}";
        let out = report(&[("crates/tensor/src/x.rs", src)]);
        assert!(out.contains("| `total` | `crates/tensor/src/x.rs` | order-sensitive under f32 | samples the `Accum` mode |"), "{out}");
    }

    #[test]
    fn order_sensitivity_propagates_through_calls() {
        let src = "pub fn api(xs: &[f32]) -> f32 { total(xs) }\n\
                   fn total(xs: &[f32]) -> f32 { with_accum(Accum::F64, || 0.0) }";
        let out = report(&[("crates/tensor/src/x.rs", src)]);
        assert!(
            out.contains("| `api` | `crates/tensor/src/x.rs` | order-sensitive under f32 |"),
            "{out}"
        );
    }

    #[test]
    fn nondet_source_is_cited_with_position() {
        let src = "pub fn stamp() -> u64 {\n    let t = Instant::now();\n    0\n}";
        let out = report(&[("crates/serve/src/lib.rs", src)]);
        assert!(
            out.contains("| `stamp` | `crates/serve/src/lib.rs` | nondeterministic |"),
            "{out}"
        );
        assert!(out.contains("`crates/serve/src/lib.rs:2:13`"), "{out}");
    }

    #[test]
    fn nondet_beats_order_sensitivity() {
        let src = "pub fn both() -> f32 {\n    let t = Instant::now();\n    with_accum(Accum::F64, || 0.0)\n}";
        let out = report(&[("crates/nn/src/x.rs", src)]);
        assert!(
            out.contains("| `both` | `crates/nn/src/x.rs` | nondeterministic |"),
            "{out}"
        );
    }

    #[test]
    fn suppressed_sources_do_not_taint() {
        let src = "pub fn timed() -> f64 {\n    // lint:allow(nondet) — telemetry duration only.\n    let t = Instant::now();\n    0.0\n}";
        let out = report(&[("crates/nn/src/x.rs", src)]);
        assert!(
            out.contains("| `timed` | `crates/nn/src/x.rs` | bit-exact under f64 |"),
            "{out}"
        );
    }

    #[test]
    fn nondet_taint_crosses_files() {
        let clock = "pub fn tick() -> u64 { let t = Instant::now(); 0 }";
        let user = "pub fn poll() -> u64 { tick() }";
        let out = report(&[
            ("crates/serve/src/clock.rs", clock),
            ("crates/serve/src/lib.rs", user),
        ]);
        assert!(
            out.contains("| `poll` | `crates/serve/src/lib.rs` | nondeterministic |"),
            "{out}"
        );
        assert!(out.contains("`crates/serve/src/clock.rs:1:32`"), "{out}");
    }

    #[test]
    fn out_of_scope_crates_get_no_rows() {
        let out = report(&[("crates/core/src/eval.rs", "pub fn stray() -> u8 { 0 }")]);
        assert!(!out.contains("| `stray` |"), "{out}");
    }

    #[test]
    fn report_is_deterministic_and_sorted() {
        let files = [
            ("crates/nn/src/b.rs", "pub fn zz() -> u8 { 0 }"),
            ("crates/nn/src/a.rs", "pub fn aa() -> u8 { 0 }"),
        ];
        assert_eq!(report(&files), report(&files));
        let out = report(&files);
        let aa = out.find("| `aa` |").expect("aa row");
        let zz = out.find("| `zz` |").expect("zz row");
        assert!(aa < zz);
        assert!(
            out.contains("2 public functions: 2 bit-exact under f64"),
            "{out}"
        );
    }
}
