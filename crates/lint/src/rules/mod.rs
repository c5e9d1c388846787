//! The lint rules.
//!
//! Every rule is named, and every rule can be suppressed at a single site
//! with an annotation comment on the offending line or anywhere in the
//! contiguous comment block directly above it:
//!
//! ```text
//! // lint:allow(<rule>) — <reason>
//! ```
//!
//! A suppression **must** carry a reason; a bare `lint:allow(panic)` is
//! itself rejected. The rules (see `docs/KNOBS.md` and DESIGN.md "Static
//! analysis & unsafe audit" for the policy rationale):
//!
//! Every rule reads the lexer's token stream; none needs a parse tree.
//! The rules over single files (`safety`, `panic`, `bounds`, `knob`,
//! `spawn`, `alloc`) live in this module; the concurrency rules
//! (`shared`, `atomics`, `sync`) live in [`concurrency`]; the determinism
//! rules (`nondet`, `errprop`) live in [`determinism`]. See
//! `docs/LINT.md` for the full reference.
//!
//! | rule        | invariant |
//! |-------------|-----------|
//! | `safety`    | every `unsafe` block/fn/impl is directly preceded by a `// SAFETY:` comment (or a `# Safety` doc section) within its own statement/item |
//! | `panic`     | no `.unwrap()`, `.expect(` or `panic!` in library code (outside `tests/`, `/bin/`, `/examples/` and `#[cfg(test)]` modules) |
//! | `bounds`    | raw-pointer kernel entry points (`from_raw_parts*`, `get_unchecked*`, `_mm*` loads/stores) live in functions that state a bounds contract via `debug_assert!` |
//! | `knob`      | every `std::env::var("GANDEF_*")` read is declared in the `docs/KNOBS.md` registry (and every registry row is read somewhere) |
//! | `spawn`     | no `thread::spawn` / `Builder::spawn` outside `pool.rs` — all parallelism goes through the worker pool |
//! | `alloc`     | no `Vec::new` / `vec!` / `.to_vec()` / `.collect()` / `.clone()` inside loop bodies of hot-path modules |
//! | `shared`    | no `static mut`; every sync-typed `static` / `thread_local!` slot carries a describing comment |
//! | `atomics`   | `Ordering::Relaxed`/`SeqCst` need a `lint:allow(atomics)` reason; Acquire/Release/AcqRel sites name their partner via a `pairs with` comment |
//! | `sync`      | each `unsafe impl Send/Sync` cites the field(s) of the parsed struct that make it sound |
//! | `nondet`    | no nondeterminism sources (`HashMap`/`HashSet`, wall-clock values, thread-id arithmetic, non-`Prng` RNG) in `tensor`/`autodiff`/`attack`/`defense` numeric paths |
//! | `errprop`   | no `Result` silently discarded (`let _ =`, statement-position `.ok()`) in library code without a justification |

pub mod concurrency;
pub mod determinism;

use crate::lexer::{lex, TokKind, Token};

/// Identifier of one lint rule, used in reports and `lint:allow(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` without a preceding SAFETY comment.
    Safety,
    /// `unwrap()` / `expect(` / `panic!` in library code.
    Panic,
    /// Raw-pointer kernel without a `debug_assert!` bounds contract.
    Bounds,
    /// Undeclared (or stale) `GANDEF_*` environment knob.
    Knob,
    /// Thread spawn outside the worker pool.
    Spawn,
    /// Heap allocation inside a hot-path loop body.
    Alloc,
    /// `static mut`, or an undocumented shared-state slot.
    Shared,
    /// Atomic memory ordering without its required justification.
    Atomics,
    /// `unsafe impl Send/Sync` that does not cite the sound fields.
    Sync,
    /// Nondeterminism source in a numeric-path module.
    Nondet,
    /// `Result` silently discarded in library code.
    Errprop,
}

impl Rule {
    /// The rule's name as written in reports and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Safety => "safety",
            Rule::Panic => "panic",
            Rule::Bounds => "bounds",
            Rule::Knob => "knob",
            Rule::Spawn => "spawn",
            Rule::Alloc => "alloc",
            Rule::Shared => "shared",
            Rule::Atomics => "atomics",
            Rule::Sync => "sync",
            Rule::Nondet => "nondet",
            Rule::Errprop => "errprop",
        }
    }

    /// All rules, for self-tests and reporting.
    pub const ALL: [Rule; 11] = [
        Rule::Safety,
        Rule::Panic,
        Rule::Bounds,
        Rule::Knob,
        Rule::Spawn,
        Rule::Alloc,
        Rule::Shared,
        Rule::Atomics,
        Rule::Sync,
        Rule::Nondet,
        Rule::Errprop,
    ];
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Display path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// A file whose delimiters do not balance, so no rule verdict on it can
/// be trusted. Distinct from a rule [`Violation`]: the CLI exits 2 for
/// these, 1 for violations.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Display path of the broken file.
    pub file: String,
    /// 1-based line of the offending delimiter.
    pub line: usize,
    /// 1-based column of the offending delimiter.
    pub col: usize,
    /// What is unbalanced.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [parse] {}",
            self.file, self.line, self.col, self.message
        )
    }
}

/// A `std::env::var("GANDEF_*")` read site, collected for the registry
/// cross-check in [`crate::run`].
#[derive(Debug, Clone)]
pub struct KnobRead {
    /// Knob name, e.g. `GANDEF_THREADS`.
    pub name: String,
    /// Display path of the reading file.
    pub file: String,
    /// 1-based line of the read.
    pub line: usize,
    /// 1-based column of the read.
    pub col: usize,
    /// True if the site carries a `lint:allow(knob)` suppression.
    pub suppressed: bool,
}

/// Result of linting a single file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations found in this file.
    pub violations: Vec<Violation>,
    /// `GANDEF_*` env reads found in this file (registry checking is the
    /// caller's job — it needs the registry and the full read set).
    pub knob_reads: Vec<KnobRead>,
    /// Unbalanced-delimiter diagnosis, if the file failed to parse.
    pub parse_error: Option<ParseError>,
}

/// Lints one source file. `file` is the display path; `is_lib` should be
/// false for `tests/`, `src/bin/` and `examples/` code, where the `panic`
/// rule does not apply. The `knob` rule is *not* resolved here — reads are
/// collected into the report for the caller to check against the registry.
pub fn check_file(file: &str, src: &str, is_lib: bool) -> FileReport {
    let toks = lex(src);
    let ctx = FileCtx::new(file, &toks, is_lib);
    let mut report = FileReport::default();
    report.parse_error = ctx.parse_error();
    ctx.rule_safety(&mut report);
    ctx.rule_panic(&mut report);
    ctx.rule_bounds(&mut report);
    ctx.collect_knob_reads(&mut report);
    ctx.rule_spawn(&mut report);
    ctx.rule_alloc(&mut report);
    concurrency::check(&ctx, &mut report);
    determinism::check(&ctx, &mut report);
    report
}

/// The lint's own seeded fixtures, which are in scope for every rule so
/// the self-test can prove each rule still fires.
fn is_fixture(file: &str) -> bool {
    file.contains("lint/fixtures/")
}

/// Per-file analysis context: the raw token stream, an index of code
/// (non-comment) tokens, comment lines for suppression lookup, and the
/// spans of `#[cfg(test)]` items, `fn` bodies and loop bodies.
struct FileCtx<'a> {
    file: &'a str,
    toks: &'a [Token],
    /// Indices into `toks` of non-comment tokens, in order.
    code: Vec<usize>,
    /// `(line, text)` of every comment token.
    comments: Vec<(usize, &'a str)>,
    /// Code-index ranges `(start, end)` covering `#[cfg(test)]` items
    /// (brace-delimited body, inclusive of the braces).
    test_spans: Vec<(usize, usize)>,
    /// Code-index ranges of `fn` bodies (inclusive of the braces), in
    /// source order; nested fns produce nested ranges.
    fn_spans: Vec<(usize, usize)>,
    /// Code-index ranges of `for`/`while`/`loop` bodies (inclusive of
    /// the braces), in source order.
    loop_spans: Vec<(usize, usize)>,
    is_lib: bool,
}

impl<'a> FileCtx<'a> {
    fn new(file: &'a str, toks: &'a [Token], is_lib: bool) -> Self {
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let comments: Vec<(usize, &str)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        let mut ctx = FileCtx {
            file,
            toks,
            code,
            comments,
            test_spans: Vec::new(),
            fn_spans: Vec::new(),
            loop_spans: Vec::new(),
            is_lib,
        };
        ctx.test_spans = ctx.find_test_spans();
        ctx.fn_spans = ctx.find_fn_spans();
        ctx.loop_spans = ctx.find_loop_spans();
        ctx
    }

    /// The code token at code-index `p`.
    fn ct(&self, p: usize) -> &Token {
        &self.toks[self.code[p]]
    }

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

    /// Diagnoses unbalanced `()`/`[]`/`{}` over the code tokens: the
    /// structural property every rule depends on. Lexing itself never
    /// fails, so this is the lint's whole notion of "parse error".
    fn parse_error(&self) -> Option<ParseError> {
        let pair = |c: char| match c {
            ')' => '(',
            ']' => '[',
            '}' => '{',
            _ => c,
        };
        let mut stack: Vec<(char, usize, usize)> = Vec::new();
        for p in 0..self.code.len() {
            let t = self.ct(p);
            match t.kind {
                TokKind::Punct(c @ ('(' | '[' | '{')) => stack.push((c, t.line, t.col)),
                TokKind::Punct(c @ (')' | ']' | '}')) => match stack.last() {
                    Some(&(open, ..)) if open == pair(c) => {
                        stack.pop();
                    }
                    Some(&(open, line, col)) => {
                        return Some(ParseError {
                            file: self.file.to_string(),
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "mismatched `{c}` — nearest open delimiter is `{open}` at \
                                 {line}:{col}"
                            ),
                        })
                    }
                    None => {
                        return Some(ParseError {
                            file: self.file.to_string(),
                            line: t.line,
                            col: t.col,
                            message: format!("unmatched `{c}` with no open delimiter"),
                        })
                    }
                },
                _ => {}
            }
        }
        stack.first().map(|&(open, line, col)| ParseError {
            file: self.file.to_string(),
            line,
            col,
            message: format!("unclosed `{open}` at end of file"),
        })
    }

    /// True if a `lint:allow(<rule>)` comment with a non-empty reason sits
    /// on `line` or in the contiguous comment block directly above it (so
    /// a multi-line justification can wrap freely).
    fn suppressed(&self, line: usize, rule: Rule) -> bool {
        let pat = format!("lint:allow({})", rule.name());
        let allow_on = |l: usize| {
            self.comments
                .iter()
                .any(|&(cl, text)| cl == l && allow_has_reason(text, &pat))
        };
        if allow_on(line) {
            return true;
        }
        let is_comment_line = |l: usize| self.comments.iter().any(|&(cl, _)| cl == l);
        let mut l = line;
        while l > 1 && is_comment_line(l - 1) {
            l -= 1;
            if allow_on(l) {
                return true;
            }
        }
        false
    }

    /// Candidate "statement start" lines for code-index `p`: the token
    /// after the nearest preceding `;`/`{`/`}`, plus — when that boundary
    /// is a `{` — the brace's own line. The latter is what lets one
    /// annotation above a multi-line struct-literal statement
    /// (`Stats { a: x.load(Relaxed), … }`) cover every field line.
    fn stmt_lines(&self, p: usize) -> Vec<usize> {
        let mut q = p;
        while q > 0 {
            let t = self.ct(q - 1);
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            q -= 1;
        }
        let mut lines = vec![self.ct(q).line];
        if q > 0 && self.ct(q - 1).is_punct('{') {
            lines.push(self.ct(q - 1).line);
        }
        lines
    }

    /// Suppression honoring code-index `p`'s own line and its statement
    /// start(s), as the concurrency and determinism rules annotate.
    fn stmt_suppressed(&self, p: usize, rule: Rule) -> bool {
        self.suppressed(self.ct(p).line, rule)
            || self.stmt_lines(p).iter().any(|&l| self.suppressed(l, rule))
    }

    fn in_test_span(&self, p: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= p && p <= e)
    }

    /// Code-index of the matching `}` for the `{` at code-index `open`.
    /// Unbalanced input yields the last token (lint keeps going).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for p in open..self.code.len() {
            match self.ct(p).kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return p;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Spans of items annotated `#[cfg(test)]` (or `#[cfg(all(test, …))]`):
    /// from the attribute, skip any further attributes, then take the
    /// item's brace-delimited body (a `;` first means no body — no span).
    fn find_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut p = 0usize;
        while p < self.code.len() {
            if let Some(after) = self.match_cfg_test_attr(p) {
                let mut q = after;
                // Skip trailing attributes on the same item.
                while q < self.code.len() && self.ct(q).is_punct('#') {
                    q = self.skip_attr(q);
                }
                while q < self.code.len() {
                    match self.ct(q).kind {
                        TokKind::Punct('{') => {
                            let end = self.matching_brace(q);
                            spans.push((q, end));
                            q = end;
                            break;
                        }
                        TokKind::Punct(';') => break,
                        _ => q += 1,
                    }
                }
                p = q.max(after);
            }
            p += 1;
        }
        spans
    }

    /// If code-index `p` starts a `#[cfg(… test …)]` attribute, returns the
    /// code-index just past its closing `]`.
    fn match_cfg_test_attr(&self, p: usize) -> Option<usize> {
        if !self.ct(p).is_punct('#') {
            return None;
        }
        let mut q = p + 1;
        if q < self.code.len() && self.ct(q).is_punct('!') {
            q += 1;
        }
        if q >= self.code.len() || !self.ct(q).is_punct('[') {
            return None;
        }
        let close = self.matching_bracket(q);
        let is_cfg = q + 1 < self.code.len() && self.ct(q + 1).is_ident("cfg");
        if !is_cfg {
            return None;
        }
        let has_test = (q + 2..close).any(|r| self.ct(r).is_ident("test"));
        if has_test {
            Some(close + 1)
        } else {
            None
        }
    }

    /// Code-index of the matching `]` for the `[` at code-index `open`.
    fn matching_bracket(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for p in open..self.code.len() {
            match self.ct(p).kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return p;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Code-index just past the attribute starting at `p` (at its `#`).
    fn skip_attr(&self, p: usize) -> usize {
        let mut q = p + 1;
        if q < self.code.len() && self.ct(q).is_punct('!') {
            q += 1;
        }
        if q < self.code.len() && self.ct(q).is_punct('[') {
            self.matching_bracket(q) + 1
        } else {
            q
        }
    }

    /// Brace spans of every `fn` body (closures are attributed to their
    /// enclosing `fn`, which is the right granularity for rule `bounds`).
    fn find_fn_spans(&self) -> Vec<(usize, usize)> {
        (0..self.code.len())
            .filter(|&p| self.ct(p).is_ident("fn"))
            .filter_map(|p| self.body_after(p))
            .collect()
    }

    /// Brace spans of every `for`/`while`/`loop` body. A loop's `for`
    /// starts a statement or follows a label's `:`; the `for` of
    /// `impl Trait for Type` never does, and a `for<'a>` bound is
    /// followed by `<`.
    fn find_loop_spans(&self) -> Vec<(usize, usize)> {
        let loop_for = |p: usize| {
            let starts_stmt =
                p == 0 || matches!(self.ct(p - 1).kind, TokKind::Punct('{' | '}' | ';' | ':'));
            starts_stmt && !(p + 1 < self.code.len() && self.ct(p + 1).is_punct('<'))
        };
        (0..self.code.len())
            .filter(|&p| {
                let t = self.ct(p);
                t.is_ident("while") || t.is_ident("loop") || (t.is_ident("for") && loop_for(p))
            })
            .filter_map(|p| self.body_after(p))
            .collect()
    }

    /// Brace span of the body that follows the keyword at code-index `p`:
    /// the first `{` at paren/bracket depth 0. A `;` or `}` first means
    /// there is no body (a bodyless `fn` declaration).
    fn body_after(&self, p: usize) -> Option<(usize, usize)> {
        let mut depth = 0i32;
        for q in p + 1..self.code.len() {
            match self.ct(q).kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => return Some((q, self.matching_brace(q))),
                TokKind::Punct(';' | '}') if depth == 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// The innermost `fn` body span containing code-index `p`.
    fn enclosing_fn(&self, p: usize) -> Option<(usize, usize)> {
        self.fn_spans
            .iter()
            .filter(|&&(s, e)| s <= p && p <= e)
            .min_by_key(|&&(s, e)| e - s)
            .copied()
    }

    // ------------------------------------------------------------------
    // Rule: safety
    // ------------------------------------------------------------------

    /// Every `unsafe` token must have a comment containing `SAFETY` (or a
    /// `# Safety` doc section) between it and the nearest preceding `;`,
    /// `{` or `}` — i.e. directly above its own statement or item header
    /// (doc comments and attributes on an `unsafe fn`/`unsafe impl` are
    /// part of that window).
    fn rule_safety(&self, report: &mut FileReport) {
        for (raw_idx, tok) in self.toks.iter().enumerate() {
            if !tok.is_ident("unsafe") {
                continue;
            }
            if self.suppressed(tok.line, Rule::Safety) {
                continue;
            }
            let mut ok = false;
            for prev in self.toks[..raw_idx].iter().rev() {
                match prev.kind {
                    TokKind::Comment => {
                        if prev.text.contains("SAFETY") || prev.text.contains("# Safety") {
                            ok = true;
                            break;
                        }
                    }
                    TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                    _ => {}
                }
            }
            if !ok {
                self.violation(
                    report,
                    tok.line,
                    tok.col,
                    Rule::Safety,
                    "`unsafe` site without a `// SAFETY:` comment directly above its \
                     statement or item"
                        .to_string(),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Rule: panic
    // ------------------------------------------------------------------

    fn rule_panic(&self, report: &mut FileReport) {
        if !self.is_lib {
            return;
        }
        for p in 0..self.code.len() {
            let t = self.ct(p);
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |c| p + 1 < self.code.len() && self.ct(p + 1).is_punct(c);
            let prev_is = |c| p > 0 && self.ct(p - 1).is_punct(c);
            let what = match t.text.as_str() {
                "unwrap" | "expect" if prev_is('.') && next_is('(') => {
                    format!(".{}(…)", t.text)
                }
                "panic" if next_is('!') => "panic!".to_string(),
                _ => continue,
            };
            if self.in_test_span(p) || self.suppressed(t.line, Rule::Panic) {
                continue;
            }
            self.violation(
                report,
                t.line,
                t.col,
                Rule::Panic,
                format!(
                    "{what} in library code — return a typed error, or annotate \
                     `// lint:allow(panic) — <reason>` if genuinely unreachable"
                ),
            );
        }
    }

    // ------------------------------------------------------------------
    // Rule: bounds
    // ------------------------------------------------------------------

    fn rule_bounds(&self, report: &mut FileReport) {
        // One violation per offending function, at its first trigger.
        let mut flagged: Vec<(usize, usize)> = Vec::new();
        for p in 0..self.code.len() {
            let t = self.ct(p);
            if t.kind != TokKind::Ident || !is_raw_pointer_entry(&t.text) {
                continue;
            }
            if self.suppressed(t.line, Rule::Bounds) {
                continue;
            }
            let Some(span) = self.enclosing_fn(p) else {
                self.violation(
                    report,
                    t.line,
                    t.col,
                    Rule::Bounds,
                    format!("raw-pointer op `{}` outside any function", t.text),
                );
                continue;
            };
            if flagged.contains(&span) {
                continue;
            }
            let has_contract = (span.0..=span.1).any(|q| {
                let u = self.ct(q);
                u.kind == TokKind::Ident && u.text.starts_with("debug_assert")
            });
            if !has_contract {
                flagged.push(span);
                self.violation(
                    report,
                    t.line,
                    t.col,
                    Rule::Bounds,
                    format!(
                        "raw-pointer op `{}` in a function without a `debug_assert!` \
                         bounds contract",
                        t.text
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Rule: knob (collection half; the registry check lives in lib.rs)
    // ------------------------------------------------------------------

    fn collect_knob_reads(&self, report: &mut FileReport) {
        for p in 0..self.code.len() {
            let t = self.ct(p);
            let is_env_read = t.kind == TokKind::Ident && (t.text == "var" || t.text == "var_os");
            if !is_env_read || p + 2 >= self.code.len() || !self.ct(p + 1).is_punct('(') {
                continue;
            }
            let arg = self.ct(p + 2);
            if arg.kind != TokKind::Str {
                continue;
            }
            let name = string_content(&arg.text);
            if !name.starts_with("GANDEF_") {
                continue;
            }
            report.knob_reads.push(KnobRead {
                name: name.to_string(),
                file: self.file.to_string(),
                line: t.line,
                col: t.col,
                suppressed: self.suppressed(t.line, Rule::Knob),
            });
        }
    }

    // ------------------------------------------------------------------
    // Rule: spawn
    // ------------------------------------------------------------------

    fn rule_spawn(&self, report: &mut FileReport) {
        let file_name = self.file.rsplit('/').next().unwrap_or(self.file);
        if file_name == "pool.rs" {
            return;
        }
        for p in 1..self.code.len() {
            let t = self.ct(p);
            let called = p + 1 < self.code.len() && self.ct(p + 1).is_punct('(');
            let qualified = self.ct(p - 1).is_punct('.') || self.ct(p - 1).is_punct(':');
            if !(t.is_ident("spawn") && called && qualified) {
                continue;
            }
            if self.suppressed(t.line, Rule::Spawn) {
                continue;
            }
            self.violation(
                report,
                t.line,
                t.col,
                Rule::Spawn,
                "thread spawn outside `pool.rs` — route parallelism through \
                 `gandef_tensor::pool`"
                    .to_string(),
            );
        }
    }

    // ------------------------------------------------------------------
    // Rule: alloc
    // ------------------------------------------------------------------

    /// No `Vec::new()`, `vec![…]`, `.to_vec()`, `.collect()` or
    /// `.clone()` inside a loop body of a hot-path module. Allocation per
    /// *call* is fine; allocation per *iteration* is O(iterations) heap
    /// traffic on the path whose wall time the paper's Table IV compares.
    fn rule_alloc(&self, report: &mut FileReport) {
        if !in_hot_path(self.file) {
            return;
        }
        for p in 0..self.code.len() {
            let Some(what) = self.alloc_at(p) else {
                continue;
            };
            if !self.in_loop(p) || self.in_test_span(p) || self.stmt_suppressed(p, Rule::Alloc) {
                continue;
            }
            let t = self.ct(p);
            self.violation(
                report,
                t.line,
                t.col,
                Rule::Alloc,
                format!(
                    "heap allocation `{what}` inside a loop on the hot path — hoist \
                     it out of the loop or annotate `// lint:allow(alloc) — <reason>`"
                ),
            );
        }
    }

    /// The allocating call that starts at code-index `p`, if any: a
    /// `.to_vec(`, `.collect(` or `.clone(` method call (a `::<…>`
    /// turbofish included), `Vec::new(`, or a `vec!` macro.
    fn alloc_at(&self, p: usize) -> Option<String> {
        let t = self.ct(p);
        let next_is = |o: usize, c| p + o < self.code.len() && self.ct(p + o).is_punct(c);
        let name = t.text.as_str();
        if t.kind != TokKind::Ident || p == 0 {
            return None;
        }
        let method = self.ct(p - 1).is_punct('.') && (next_is(1, '(') || next_is(1, ':'));
        let vec_new = name == "new"
            && p >= 3
            && self.ct(p - 1).is_punct(':')
            && self.ct(p - 2).is_punct(':')
            && self.ct(p - 3).is_ident("Vec")
            && next_is(1, '(');
        match name {
            "to_vec" | "collect" | "clone" if method => Some(format!(".{name}()")),
            "new" if vec_new => Some("Vec::new()".to_string()),
            "vec" if next_is(1, '!') && (next_is(2, '(') || next_is(2, '[') || next_is(2, '{')) => {
                Some("vec![…]".to_string())
            }
            _ => None,
        }
    }

    /// True if code-index `p` sits in a loop body of its innermost `fn`:
    /// a fn nested in a loop runs once per call, not once per iteration.
    fn in_loop(&self, p: usize) -> bool {
        let Some((fn_start, _)) = self.enclosing_fn(p) else {
            return false;
        };
        self.loop_spans
            .iter()
            .any(|&(s, e)| fn_start < s && s < p && p <= e)
    }
}

/// Hot-path modules for the `alloc` rule: the code whose per-epoch wall
/// time is the paper's headline number (Table IV).
fn in_hot_path(file: &str) -> bool {
    file.ends_with("tensor/src/linalg.rs")
        || file.ends_with("tensor/src/conv.rs")
        || file.ends_with("tensor/src/pool.rs")
        || file.ends_with("autodiff/src/ops.rs")
        || file.contains("attack/src/")
        || is_fixture(file)
}

/// True if `name` is a raw-pointer kernel entry point the `bounds` rule
/// tracks: slice-from-raw constructors, unchecked indexing, and SIMD
/// loads/stores.
fn is_raw_pointer_entry(name: &str) -> bool {
    matches!(
        name,
        "from_raw_parts" | "from_raw_parts_mut" | "get_unchecked" | "get_unchecked_mut"
    ) || (name.starts_with("_mm") && (name.contains("load") || name.contains("store")))
}

/// Extracts the content of a string-literal token (strips prefix, hashes
/// and quotes).
fn string_content(text: &str) -> &str {
    let Some(open) = text.find('"') else {
        return "";
    };
    let inner = &text[open + 1..];
    match inner.find('"') {
        Some(close) => &inner[..close],
        None => inner,
    }
}

/// True if `text` contains `pat` (a `lint:allow(<rule>)` marker) followed
/// by a non-empty reason.
fn allow_has_reason(text: &str, pat: &str) -> bool {
    let Some(pos) = text.find(pat) else {
        return false;
    };
    let rest = text[pos + pat.len()..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'));
    rest.trim().len() >= 3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<Violation> {
        check_file("lib/sample.rs", src, true).violations
    }

    fn rules_fired(src: &str) -> Vec<Rule> {
        violations(src).into_iter().map(|v| v.rule).collect()
    }

    // ---- safety ----

    #[test]
    fn unsafe_without_comment_fires() {
        let src = "fn f(p: *const u8) { let _ = unsafe { *p }; }";
        assert_eq!(rules_fired(src), vec![Rule::Safety]);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: p is valid by contract.\n    let _ = unsafe { *p };\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn safety_comment_beyond_statement_boundary_does_not_count() {
        let src =
            "// SAFETY: stale comment.\nfn g() {}\nfn f(p: *const u8) { let _ = unsafe { *p }; }";
        assert_eq!(rules_fired(src), vec![Rule::Safety]);
    }

    #[test]
    fn unsafe_fn_with_safety_doc_section_passes() {
        let src = "/// Does things.\n///\n/// # Safety\n///\n/// Caller checks cpu features.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn each_unsafe_impl_needs_its_own_comment() {
        // The sync rule also fires here (no fields cited); this test is
        // about the safety rule's per-impl comment requirement only.
        let v: Vec<_> = violations(src_each_impl())
            .into_iter()
            .filter(|v| v.rule == Rule::Safety)
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    fn src_each_impl() -> &'static str {
        "// SAFETY: reason one.\nunsafe impl Send for X {}\nunsafe impl Sync for X {}"
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() { let _ = \"unsafe { }\"; }\n// just mentioning unsafe here\n";
        assert!(rules_fired(src).is_empty());
    }

    // ---- panic ----

    #[test]
    fn unwrap_expect_panic_fire_in_lib_code() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }\nfn h() { panic!(\"boom\"); }";
        assert_eq!(rules_fired(src), vec![Rule::Panic; 3]);
    }

    #[test]
    fn panic_rule_skips_non_lib_files() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(check_file("crates/x/src/bin/tool.rs", src, false)
            .violations
            .is_empty());
    }

    #[test]
    fn panic_rule_skips_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn unwrap_like_names_do_not_fire() {
        // h()'s statement-position `.ok()` is rule `errprop`'s territory;
        // this test pins down only that the panic rule stays quiet.
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 1) }\nfn h() { std::panic::catch_unwind(|| {}).ok(); }";
        assert!(!rules_fired(src).contains(&Rule::Panic));
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic) — x is Some by construction\n    x.unwrap()\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn suppression_on_same_line_is_honored() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(panic) — always Some";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn suppression_in_multi_line_comment_block_is_honored() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic) — x is Some by\n    // construction; see the constructor\n    // invariant three lines up.\n    x.unwrap()\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn suppression_beyond_comment_block_is_rejected() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic) — stale annotation\n    let y = x;\n    y.unwrap()\n}";
        assert_eq!(rules_fired(src), vec![Rule::Panic]);
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic)\n    x.unwrap()\n}";
        assert_eq!(rules_fired(src), vec![Rule::Panic]);
    }

    #[test]
    fn suppression_for_wrong_rule_is_rejected() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(spawn) — wrong rule\n    x.unwrap()\n}";
        assert_eq!(rules_fired(src), vec![Rule::Panic]);
    }

    // ---- bounds ----

    #[test]
    fn raw_parts_without_debug_assert_fires() {
        let src = "fn f(p: *const f32, n: usize) {\n    // SAFETY: caller contract.\n    let _ = unsafe { std::slice::from_raw_parts(p, n) };\n}";
        assert_eq!(rules_fired(src), vec![Rule::Bounds]);
    }

    #[test]
    fn raw_parts_with_debug_assert_passes() {
        let src = "fn f(p: *const f32, n: usize) {\n    debug_assert!(n < 10);\n    // SAFETY: caller contract.\n    let _ = unsafe { std::slice::from_raw_parts(p, n) };\n}";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn simd_loads_need_contract_once_per_fn() {
        let src = "unsafe fn k(p: *const f32) {\n    let a = _mm256_loadu_ps(p);\n    let b = _mm256_loadu_ps(p);\n}\n// lint:allow(safety) — not the point of this test\nfn unused() {}";
        let v: Vec<Violation> = violations(src)
            .into_iter()
            .filter(|v| v.rule == Rule::Bounds)
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn closure_inherits_enclosing_fn_contract() {
        let src = "fn f(p: *mut f32, n: usize) {\n    debug_assert!(n > 0);\n    let c = || {\n        // SAFETY: disjoint.\n        let _ = unsafe { std::slice::from_raw_parts_mut(p, n) };\n    };\n    c();\n}";
        assert!(rules_fired(src).is_empty());
    }

    // ---- knob ----

    #[test]
    fn knob_reads_are_collected() {
        let src = "fn f() -> bool { std::env::var(\"GANDEF_X\").is_ok() || std::env::var_os(\"GANDEF_Y\").is_some() }";
        let r = check_file("x.rs", src, true);
        let names: Vec<&str> = r.knob_reads.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["GANDEF_X", "GANDEF_Y"]);
    }

    #[test]
    fn non_gandef_env_reads_are_ignored() {
        let src = "fn f() { let _ = std::env::var(\"PATH\"); }";
        assert!(check_file("x.rs", src, true).knob_reads.is_empty());
    }

    // ---- spawn ----

    #[test]
    fn thread_spawn_fires_outside_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_fired(src), vec![Rule::Spawn]);
    }

    #[test]
    fn builder_spawn_fires_outside_pool() {
        let src = "fn f() { std::thread::Builder::new().spawn(|| {}).ok(); }";
        assert_eq!(
            rules_fired(src)
                .into_iter()
                .filter(|r| *r == Rule::Spawn)
                .count(),
            1
        );
    }

    #[test]
    fn spawn_in_pool_rs_is_allowed() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(check_file("crates/tensor/src/pool.rs", src, true)
            .violations
            .is_empty());
    }

    #[test]
    fn spawn_as_plain_word_is_ignored() {
        let src = "fn spawn_rate() -> f32 { 1.0 }\nfn f() { let spawn = 3; let _ = spawn; }";
        assert!(rules_fired(src).is_empty());
    }

    // ---- alloc ----

    const HOT: &str = "crates/tensor/src/linalg.rs";
    const COLD: &str = "crates/nn/src/layers.rs";

    fn alloc_lines(file: &str, src: &str) -> Vec<usize> {
        check_file(file, src, true)
            .violations
            .into_iter()
            .filter(|v| v.rule == Rule::Alloc)
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn allocation_in_loop_fires_on_hot_path() {
        let src = "fn k(n: usize) {\n    for i in 0..n {\n        let v = Vec::new();\n    }\n}";
        assert_eq!(rules_at(HOT, src), vec![Rule::Alloc]);
    }

    #[test]
    fn alloc_sees_every_loop_depth() {
        // Every enclosing loop kind counts, nested or not, and a labelled
        // loop is still a loop; the allocation before the loops is fine.
        let src = "fn k(n: usize) {\n\
                   let a = Vec::new();\n\
                   for i in 0..n {\n\
                   let b = Vec::new();\n\
                   while i < n { let c = Vec::new(); }\n\
                   }\n\
                   'outer: loop { let d = Vec::new(); }\n}";
        assert_eq!(alloc_lines(HOT, src), vec![4, 5, 7]);
    }

    #[test]
    fn all_alloc_forms_fire() {
        let src = "fn k(n: usize, s: &[f32]) {\n    for i in 0..n {\n        let a = vec![0.0; 4];\n        let b = s.to_vec();\n        let c = b.clone();\n        let d = s.iter().collect::<Vec<_>>();\n    }\n}";
        assert_eq!(alloc_lines(HOT, src), vec![3, 4, 5, 6]);
    }

    #[test]
    fn alloc_sees_calls_macros_and_turbofish() {
        // A typed `Vec::new()`, `.collect()` with and without a turbofish,
        // and `vec!` as a call argument all fire; `assert!` and `.push(`
        // do not allocate.
        let src = "fn k(n: usize, s: &[f32], v: Vec<u8>) {\n\
                   for i in 0..n {\n\
                   let a: Vec<f32> = Vec::new();\n\
                   let b: Vec<u8> = v.iter().copied().collect::<Vec<u8>>();\n\
                   let e: Vec<f32> = s.iter().copied().collect();\n\
                   assert!(a.len() == 0);\n\
                   tape.push(x, vec![p], None);\n\
                   }\n}";
        assert_eq!(alloc_lines(HOT, src), vec![3, 4, 5, 7]);
    }

    #[test]
    fn allocation_outside_loop_is_fine() {
        let src = "fn k(n: usize) {\n    let mut v = Vec::new();\n    for i in 0..n {\n        v.push(i);\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn impl_trait_for_and_for_bounds_are_not_loops() {
        let src = "impl Attack for Pgd {\n    fn name(&self) -> Vec<u8> { self.tag.clone() }\n}";
        assert!(rules_at(HOT, src).is_empty());
        let src = "fn k() {\n    let f: for<'a> fn(&'a [f32]) -> Vec<f32> = |s| { s.to_vec() };\n}";
        assert!(rules_at(HOT, src).is_empty());
    }

    #[test]
    fn alloc_in_nested_fn_is_not_per_iteration() {
        // A fn nested in a loop body runs once per call of it, not once
        // per iteration of the loop around its definition; a loop inside
        // the nested fn still counts.
        let src = "fn outer(n: usize) {\n    for i in 0..n {\n        fn inner() -> Vec<u8> { Vec::new() }\n    }\n}";
        assert!(rules_at(HOT, src).is_empty());
        let src = "fn outer(n: usize) {\n    for i in 0..n {\n        fn inner() {\n            loop { let v = Vec::new(); }\n        }\n    }\n}";
        assert_eq!(alloc_lines(HOT, src), vec![4]);
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

    #[test]
    fn test_modules_are_exempt_from_alloc() {
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

    fn rules_at(file: &str, src: &str) -> Vec<Rule> {
        check_file(file, src, true)
            .violations
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }
}
