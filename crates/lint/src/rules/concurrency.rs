//! Concurrency-soundness rules.
//!
//! Three rules, all scoped to library code (plus the seeded fixtures):
//!
//! * `shared` — no `static mut`, ever; every other shared-state slot (a
//!   `static` of a sync type — `Atomic*`, `Mutex`, `RwLock`, `OnceLock`,
//!   `Once`, `Condvar` — or any `thread_local!` slot) must carry a
//!   comment directly above it describing what it holds.
//! * `atomics` — every `Ordering::Relaxed` (or `SeqCst`) use needs a
//!   `lint:allow(atomics) — <why a stale read is safe>` annotation, and
//!   every `Ordering::Acquire`/`Release`/`AcqRel` use needs a comment in
//!   its statement window containing `pairs with`, naming the partner
//!   site of the synchronizes-with edge it creates.
//! * `sync` — each `unsafe impl Send/Sync for T` must cite, in the
//!   comment block directly above it, at least one field of `T` as
//!   parsed from the same file (or `T` itself when `T` has no named
//!   fields), so the soundness argument names the state it covers.

use super::{is_fixture, FileCtx, FileReport, Rule, Violation};
use crate::lexer::{TokKind, Token};
use std::collections::HashMap;

/// Sync-primitive type names whose `static`s count as shared state.
const SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "OnceLock",
    "Once",
    "Condvar",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicBool",
    "AtomicPtr",
];

/// Runs the per-file concurrency rules. Library code and the seeded
/// fixtures only; `#[cfg(test)]` spans are exempt.
pub(super) fn check(ctx: &FileCtx<'_>, report: &mut FileReport) {
    if !(ctx.is_lib || is_fixture(ctx.file)) {
        return;
    }
    let c = Conc { ctx };
    c.rule_shared(report);
    c.rule_atomics(report);
    c.rule_sync(report);
}

struct Conc<'a, 'b> {
    ctx: &'a FileCtx<'b>,
}

impl Conc<'_, '_> {
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

    /// Comments in the statement window of code-index `p`: every comment
    /// between `p`'s raw position and the nearest preceding code `;`,
    /// `{` or `}` — the same window the `safety` rule uses.
    fn window_comments(&self, p: usize) -> Vec<&str> {
        let raw = self.ctx.code[p];
        let mut out = Vec::new();
        for t in self.ctx.toks[..raw].iter().rev() {
            match t.kind {
                TokKind::Comment => out.push(t.text.as_str()),
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                _ => {}
            }
        }
        out.reverse();
        out
    }

    /// True if `p`'s statement window holds a comment line with text
    /// beyond its `//`/`///` markers.
    fn has_describing_comment(&self, p: usize) -> bool {
        self.window_comments(p)
            .iter()
            .flat_map(|c| c.lines())
            .any(|l| !strip_comment_markers(l).is_empty())
    }

    // ------------------------------------------------------------------
    // Rule: shared
    // ------------------------------------------------------------------

    /// `static mut` is always a violation; sync-typed `static`s and
    /// `thread_local!` slots must carry a describing comment.
    fn rule_shared(&self, report: &mut FileReport) {
        let tl_spans = self.thread_local_spans();
        for p in 0..self.n_code() {
            let t = self.ct(p);
            if !t.is_ident("static") || self.ctx.in_test_span(p) {
                continue;
            }
            // `static` as an item keyword: next code token is `mut` or
            // the slot name (`&'static` lifetimes lex as Lifetime).
            let mut q = p + 1;
            let is_mut = q < self.n_code() && self.ct(q).is_ident("mut");
            if is_mut {
                q += 1;
            }
            if q >= self.n_code() || self.ct(q).kind != TokKind::Ident {
                continue;
            }
            let name = self.ct(q).text.clone();
            // Flattened type: tokens between `:` and the `=`/`;`.
            let ty = self.static_type_text(q + 1);
            let in_tl = tl_spans.iter().any(|&(s, e)| s <= p && p <= e);
            let sync_typed = SYNC_TYPES.iter().any(|s| {
                ty.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|w| w == *s)
            });
            if !(is_mut || in_tl || sync_typed) {
                continue; // plain const-like static: not shared state
            }
            if self.ctx.stmt_suppressed(p, Rule::Shared) {
                continue;
            }
            if is_mut {
                self.violation(
                    report,
                    t,
                    Rule::Shared,
                    format!(
                        "`static mut {name}` — use an atomic or a lock; \
                         `lint:allow(shared) — <reason>` if truly unavoidable"
                    ),
                );
            } else if !self.has_describing_comment(p) {
                self.violation(
                    report,
                    t,
                    Rule::Shared,
                    format!(
                        "shared-state slot `{name}: {ty}` has no describing comment — \
                         say above the slot what it holds and who touches it"
                    ),
                );
            }
        }
    }

    /// Brace spans of `thread_local! { … }` invocations.
    fn thread_local_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for p in 0..self.n_code() {
            if self.ct(p).is_ident("thread_local")
                && p + 2 < self.n_code()
                && self.ct(p + 1).is_punct('!')
                && self.ct(p + 2).is_punct('{')
            {
                out.push((p + 2, self.ctx.matching_brace(p + 2)));
            }
        }
        out
    }

    /// Flattened type text for a static whose `:` is expected at code
    /// index `colon`; empty if the declaration is not `name : TYPE`.
    fn static_type_text(&self, colon: usize) -> String {
        if colon >= self.n_code() || !self.ct(colon).is_punct(':') {
            return String::new();
        }
        let mut ty = String::new();
        let mut depth = 0i32;
        for q in colon + 1..self.n_code() {
            let t = self.ct(q);
            match t.kind {
                TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            if !ty.is_empty() {
                ty.push(' ');
            }
            ty.push_str(&t.text);
        }
        ty
    }

    /// Struct definitions in this file with their named fields. Tuple and
    /// unit structs yield an empty field list.
    fn struct_defs(&self) -> Vec<(String, Vec<String>)> {
        let mut out = Vec::new();
        let mut p = 0usize;
        while p < self.n_code() {
            if !self.ct(p).is_ident("struct") || self.ctx.in_test_span(p) {
                p += 1;
                continue;
            }
            let Some(name_tok) = (p + 1 < self.n_code()).then(|| self.ct(p + 1)) else {
                break;
            };
            if name_tok.kind != TokKind::Ident {
                p += 1;
                continue;
            }
            let name = name_tok.text.clone();
            // Skip generics, find `{` (named fields) or `(`/`;` (tuple or
            // unit struct).
            let mut q = p + 2;
            let mut angle = 0i32;
            let mut fields = Vec::new();
            while q < self.n_code() {
                let t = self.ct(q);
                match t.kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct('{') if angle <= 0 => {
                        let close = self.ctx.matching_brace(q);
                        fields = self.named_fields(q + 1, close);
                        q = close;
                        break;
                    }
                    TokKind::Punct('(') | TokKind::Punct(';') if angle <= 0 => break,
                    _ => {}
                }
                q += 1;
            }
            out.push((name, fields));
            p = q.max(p + 1);
        }
        out
    }

    /// Names of the `name: Type` fields at brace depth 0 between code
    /// indices `from..to` (a struct body).
    fn named_fields(&self, from: usize, to: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut q = from;
        while q < to {
            let t = self.ct(q);
            match t.kind {
                TokKind::Punct('{')
                | TokKind::Punct('(')
                | TokKind::Punct('[')
                | TokKind::Punct('<') => depth += 1,
                TokKind::Punct('}')
                | TokKind::Punct(')')
                | TokKind::Punct(']')
                | TokKind::Punct('>') => depth -= 1,
                TokKind::Ident
                    if depth == 0
                        && t.text != "pub"
                        && q + 1 < to
                        && self.ct(q + 1).is_punct(':')
                        // `pub(crate)` parens already skip via depth; a
                        // field name is followed by a single `:`.
                        && !(q + 2 < to && self.ct(q + 2).is_punct(':')) =>
                {
                    // Type runs to the next top-level comma.
                    let mut d = 0i32;
                    let mut r = q + 2;
                    while r < to {
                        let u = self.ct(r);
                        match u.kind {
                            TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => {
                                d += 1
                            }
                            TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => {
                                d -= 1
                            }
                            TokKind::Punct(',') if d <= 0 => break,
                            _ => {}
                        }
                        r += 1;
                    }
                    out.push(t.text.clone());
                    q = r;
                    continue;
                }
                _ => {}
            }
            q += 1;
        }
        out
    }

    // ------------------------------------------------------------------
    // Rule: atomics
    // ------------------------------------------------------------------

    /// `Ordering::X` uses. Relaxed and SeqCst need a `lint:allow(atomics)`
    /// reason (why is a stale/expensive ordering right here); Acquire,
    /// Release and AcqRel need a `pairs with` comment naming the partner
    /// site of the synchronizes-with edge.
    fn rule_atomics(&self, report: &mut FileReport) {
        for p in 0..self.n_code() {
            let t = self.ct(p);
            if !t.is_ident("Ordering") || self.ctx.in_test_span(p) {
                continue;
            }
            let path = p + 3 < self.n_code()
                && self.ct(p + 1).is_punct(':')
                && self.ct(p + 2).is_punct(':')
                && self.ct(p + 3).kind == TokKind::Ident;
            if !path {
                continue;
            }
            let ord = self.ct(p + 3).text.as_str();
            let needs_pair = matches!(ord, "Acquire" | "Release" | "AcqRel");
            let needs_reason = matches!(ord, "Relaxed" | "SeqCst");
            if !(needs_pair || needs_reason) {
                continue; // cmp::Ordering::Less and friends
            }
            let paired = self
                .window_comments(p)
                .iter()
                .any(|c| c.contains("pairs with"));
            let allowed = self.ctx.stmt_suppressed(p, Rule::Atomics);
            if needs_reason && !allowed {
                self.violation(
                    report,
                    t,
                    Rule::Atomics,
                    format!(
                        "`Ordering::{ord}` without a `lint:allow(atomics) — <why this \
                         ordering is safe here>` annotation"
                    ),
                );
            } else if needs_pair && !paired && !allowed {
                self.violation(
                    report,
                    t,
                    Rule::Atomics,
                    format!(
                        "`Ordering::{ord}` without a `pairs with …` comment naming the \
                         partner site of its synchronizes-with edge"
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Rule: sync
    // ------------------------------------------------------------------

    /// `unsafe impl Send/Sync for T` must cite ≥ 1 named field of `T`
    /// (or `T` itself when no named fields are parsed) in its comment
    /// window, so the soundness argument is tied to the actual state.
    fn rule_sync(&self, report: &mut FileReport) {
        let structs: HashMap<String, Vec<String>> = self.struct_defs().into_iter().collect();
        for p in 0..self.n_code() {
            let t = self.ct(p);
            if !t.is_ident("unsafe")
                || p + 1 >= self.n_code()
                || !self.ct(p + 1).is_ident("impl")
                || self.ctx.in_test_span(p)
            {
                continue;
            }
            // Skip generics after `impl`, expect Send|Sync, then `for`,
            // then the type name.
            let mut q = p + 2;
            if q < self.n_code() && self.ct(q).is_punct('<') {
                let mut depth = 0i32;
                while q < self.n_code() {
                    if self.ct(q).is_punct('<') {
                        depth += 1;
                    } else if self.ct(q).is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            q += 1;
                            break;
                        }
                    }
                    q += 1;
                }
            }
            let Some(trait_tok) = (q < self.n_code()).then(|| self.ct(q)) else {
                continue;
            };
            let which = trait_tok.text.as_str();
            if !matches!(which, "Send" | "Sync") {
                continue;
            }
            let mut r = q + 1;
            if r < self.n_code() && !self.ct(r).is_ident("for") {
                continue;
            }
            r += 1;
            let Some(ty_tok) = (r < self.n_code()).then(|| self.ct(r)) else {
                continue;
            };
            if ty_tok.kind != TokKind::Ident {
                continue;
            }
            let ty = ty_tok.text.clone();
            let window = self.window_comments(p);
            let fields = structs.get(&ty).filter(|f| !f.is_empty());
            let cited = match fields {
                Some(fields) => fields
                    .iter()
                    .any(|f| window.iter().any(|c| mentions_word(c, f))),
                None => window.iter().any(|c| mentions_word(c, &ty)),
            };
            if !cited && !self.ctx.stmt_suppressed(p, Rule::Sync) {
                let expectation = match fields {
                    Some(fields) => format!("one of: {}", fields.join(", ")),
                    None => format!("the type name `{ty}`"),
                };
                self.violation(
                    report,
                    t,
                    Rule::Sync,
                    format!(
                        "`unsafe impl {which} for {ty}` whose comment cites none of the \
                         state it covers — name {expectation} in the SAFETY comment"
                    ),
                );
            }
        }
    }
}

/// Strips `//`/`///`/`//!`/`/*`/`*/` markers and trims.
fn strip_comment_markers(line: &str) -> String {
    line.trim()
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim_end_matches('/')
        .trim_end_matches('*')
        .trim()
        .to_string()
}

/// True if `text` contains `word` delimited by non-identifier chars
/// (so `func` does not match `function_table`, but `` `func` `` does).
fn mentions_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_ident_byte(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{check_file, Rule};

    fn check(src: &str) -> crate::rules::FileReport {
        check_file("crates/demo/src/lib.rs", src, true)
    }

    fn fired(src: &str, rule: Rule) -> Vec<usize> {
        check(src)
            .violations
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    }

    // ---- shared ----

    #[test]
    fn static_mut_always_fires() {
        let src = "/// Documented, still banned.\nstatic mut COUNT: usize = 0;";
        assert_eq!(fired(src, Rule::Shared), vec![2]);
    }

    #[test]
    fn sync_static_without_comment_fires() {
        let src = "static FLAG: AtomicBool = AtomicBool::new(false);";
        assert_eq!(fired(src, Rule::Shared), vec![1]);
    }

    #[test]
    fn sync_static_with_comment_passes() {
        let src = "/// Global ready flag, set once at init.\nstatic FLAG: AtomicBool = AtomicBool::new(false);";
        assert!(fired(src, Rule::Shared).is_empty());
        // A comment of bare markers describes nothing.
        let empty = "///\nstatic FLAG: AtomicBool = AtomicBool::new(false);";
        assert_eq!(fired(empty, Rule::Shared), vec![2]);
    }

    #[test]
    fn thread_local_slot_needs_comment() {
        let src = "thread_local! {\n    static DEPTH: Cell<usize> = Cell::new(0);\n}";
        assert_eq!(fired(src, Rule::Shared), vec![2]);
        let with = "thread_local! {\n    /// Recursion depth of the current worker.\n    static DEPTH: Cell<usize> = Cell::new(0);\n}";
        assert!(fired(with, Rule::Shared).is_empty());
    }

    #[test]
    fn plain_static_is_not_shared_state() {
        let src = "static NAMES: [&str; 2] = [\"a\", \"b\"];";
        assert!(fired(src, Rule::Shared).is_empty());
    }

    #[test]
    fn sync_typed_fields_need_no_comment() {
        let src = "pub struct Shared {\n    queue: Mutex<Vec<u8>>,\n    len: usize,\n}";
        assert!(fired(src, Rule::Shared).is_empty());
    }

    // ---- atomics ----

    #[test]
    fn relaxed_without_annotation_fires() {
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(fired(src, Rule::Atomics), vec![1]);
    }

    #[test]
    fn relaxed_with_allow_reason_passes() {
        let src = "fn f(c: &AtomicUsize) {\n    // lint:allow(atomics) — monotonic stats counter, readers tolerate staleness.\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(fired(src, Rule::Atomics).is_empty());
    }

    #[test]
    fn acquire_without_pairs_with_fires() {
        let src = "fn f(c: &AtomicBool) { c.load(Ordering::Acquire); }";
        assert_eq!(fired(src, Rule::Atomics), vec![1]);
    }

    #[test]
    fn acquire_release_pair_comments_pass() {
        let src = "fn f(c: &AtomicBool) {\n    // pairs with the Release store in publish().\n    c.load(Ordering::Acquire);\n}\nfn publish(c: &AtomicBool) {\n    // pairs with the Acquire load in f().\n    c.store(true, Ordering::Release);\n}";
        assert!(fired(src, Rule::Atomics).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic() {
        let src = "fn f(a: i32, b: i32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }";
        assert!(fired(src, Rule::Atomics).is_empty());
    }

    #[test]
    fn stmt_line_annotation_covers_multiline_statement() {
        let src = "fn f(s: &S) -> T {\n    // lint:allow(atomics) — snapshot of monotonic counters; skew is fine.\n    T {\n        a: s.a.load(Ordering::Relaxed),\n        b: s.b.load(Ordering::Relaxed),\n    }\n}";
        assert!(fired(src, Rule::Atomics).is_empty());
    }

    // ---- sync ----

    #[test]
    fn unsafe_impl_must_cite_a_field() {
        let src = "struct Handle {\n    ptr: *mut u8,\n}\n// SAFETY: it is probably fine.\nunsafe impl Send for Handle {}";
        assert_eq!(fired(src, Rule::Sync), vec![5]);
        let cited = "struct Handle {\n    ptr: *mut u8,\n}\n// SAFETY: `ptr` is owned exclusively by this handle.\nunsafe impl Send for Handle {}";
        assert!(fired(cited, Rule::Sync).is_empty());
    }

    #[test]
    fn unsafe_impl_on_unknown_type_cites_type_name() {
        let src = "// SAFETY: this impl is sound because reasons.\nunsafe impl Sync for Remote {}";
        assert_eq!(fired(src, Rule::Sync), vec![2]);
        let named =
            "// SAFETY: Remote owns no interior mutability.\nunsafe impl Sync for Remote {}";
        assert!(fired(named, Rule::Sync).is_empty());
    }

    #[test]
    fn field_citation_requires_word_boundary() {
        assert!(mentions_word("the `func` pointer is Send", "func"));
        assert!(!mentions_word("the function_table is Send", "func"));
    }

    #[test]
    fn parse_error_is_reported_with_location() {
        let report = check("fn f() { let x = (1; }");
        let e = report
            .parse_error
            .expect("unbalanced paren must be diagnosed");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("mismatched"));
    }
}
