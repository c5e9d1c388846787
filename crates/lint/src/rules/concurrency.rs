//! Concurrency-soundness rules and the shared-state inventory.
//!
//! Three rules, all scoped to library code (plus the seeded fixtures):
//!
//! * `shared` — no `static mut`, ever; every other shared-state slot (a
//!   `static` of a sync type — `Atomic*`, `Mutex`, `RwLock`, `OnceLock`,
//!   `Once`, `Condvar` — or any `thread_local!` slot) must carry a
//!   comment directly above it describing what it holds. The comment is
//!   quoted verbatim in the `docs/CONCURRENCY.md` inventory, so an
//!   undocumented slot is both a rule violation and a hole in the
//!   checked-in audit.
//! * `atomics` — every `Ordering::Relaxed` (or `SeqCst`) use needs a
//!   `lint:allow(atomics) — <why a stale read is safe>` annotation, and
//!   every `Ordering::Acquire`/`Release`/`AcqRel` use needs a comment in
//!   its statement window containing `pairs with`, naming the partner
//!   site of the synchronizes-with edge it creates.
//! * `sync` — each `unsafe impl Send/Sync for T` must cite, in the
//!   comment block directly above it, at least one field of `T` as
//!   parsed from the same file (or `T` itself when `T` has no named
//!   fields), so the soundness argument names the state it covers.

use super::{FileCtx, FileReport, Rule, Violation};
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

/// One row of the shared-state inventory.
#[derive(Debug, Clone)]
pub struct InvEntry {
    /// Row class: `static`, `static mut`, `thread-local`, `field`,
    /// `unsafe impl`, or `ordering`.
    pub kind: &'static str,
    /// Site name (`POOL`, `Shared.queue`, `Send for SendPtr`,
    /// `Ordering::Relaxed`).
    pub name: String,
    /// Flattened type text, where one applies.
    pub ty: String,
    /// 1-based line of the site.
    pub line: usize,
    /// Justification the rule verified: the describing comment, the
    /// `lint:allow(atomics)` reason, the `pairs with` sentence, or the
    /// fields an `unsafe impl` cites.
    pub note: String,
}

/// Runs the per-file concurrency rules and collects the inventory.
/// Library code and the seeded fixtures only; `#[cfg(test)]` spans are
/// exempt.
pub(super) fn check(ctx: &FileCtx<'_>, report: &mut FileReport) {
    if !(ctx.is_lib || super::semantic::is_fixture(ctx.file)) {
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

    /// First non-empty comment line in `p`'s statement window, stripped
    /// of its `//`/`///` markers — what the inventory quotes.
    fn window_excerpt(&self, p: usize) -> Option<String> {
        self.window_comments(p)
            .iter()
            .flat_map(|c| c.lines())
            .map(strip_comment_markers)
            .find(|l| !l.is_empty())
    }

    // ------------------------------------------------------------------
    // Rule: shared
    // ------------------------------------------------------------------

    /// `static mut` is always a violation; sync-typed `static`s and
    /// `thread_local!` slots must carry a describing comment. Both are
    /// collected as inventory rows, as are sync-typed struct fields
    /// (which need no comment of their own).
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
            let kind = if is_mut {
                "static mut"
            } else if in_tl {
                "thread-local"
            } else {
                "static"
            };
            let sync_typed = SYNC_TYPES.iter().any(|s| {
                ty.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|w| w == *s)
            });
            if !(is_mut || in_tl || sync_typed) {
                continue; // plain const-like static: not shared state
            }
            let excerpt = self.window_excerpt(p);
            report.inventory.push(InvEntry {
                kind,
                name: name.clone(),
                ty: ty.clone(),
                line: t.line,
                note: excerpt.clone().unwrap_or_default(),
            });
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
            } else if excerpt.is_none() {
                self.violation(
                    report,
                    t,
                    Rule::Shared,
                    format!(
                        "shared-state slot `{name}: {ty}` has no describing comment — \
                         the docs/CONCURRENCY.md inventory quotes the comment above \
                         each slot"
                    ),
                );
            }
        }
        self.collect_sync_fields(report);
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

    /// Inventory rows for sync-typed fields of struct definitions:
    /// `Struct.field: Mutex<…>` — the "guarded fields" half of the
    /// shared-state inventory.
    fn collect_sync_fields(&self, report: &mut FileReport) {
        for (struct_name, fields, line) in self.struct_defs() {
            for (fname, fty, fline) in fields {
                let sync_typed = SYNC_TYPES.iter().any(|s| {
                    fty.split(|c: char| !c.is_alphanumeric() && c != '_')
                        .any(|w| w == *s)
                });
                if sync_typed {
                    report.inventory.push(InvEntry {
                        kind: "field",
                        name: format!("{struct_name}.{fname}"),
                        ty: fty,
                        line: fline,
                        note: String::new(),
                    });
                }
            }
            let _ = line;
        }
    }

    /// Struct definitions in this file: `(name, [(field, type, line)],
    /// line)`. Tuple and unit structs yield an empty field list.
    fn struct_defs(&self) -> Vec<(String, Vec<(String, String, usize)>, usize)> {
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
            let line = self.ct(p).line;
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
            out.push((name, fields, line));
            p = q.max(p + 1);
        }
        out
    }

    /// `name: Type` pairs at brace depth 0 between code indices
    /// `from..to` (a struct body).
    fn named_fields(&self, from: usize, to: usize) -> Vec<(String, String, usize)> {
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
                    let mut ty = String::new();
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
                        if !ty.is_empty() {
                            ty.push(' ');
                        }
                        ty.push_str(&u.text);
                        r += 1;
                    }
                    out.push((t.text.clone(), ty, t.line));
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
            let window = self.window_comments(p);
            let pair_comment = window.iter().find(|c| c.contains("pairs with"));
            let allowed = self.ctx.stmt_suppressed(p, Rule::Atomics);
            let note = if let Some(c) = pair_comment {
                excerpt_around(c, "pairs with")
            } else if allowed {
                self.allow_reason(p)
            } else {
                String::new()
            };
            report.inventory.push(InvEntry {
                kind: "ordering",
                name: format!("Ordering::{ord}"),
                ty: String::new(),
                line: t.line,
                note,
            });
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
            } else if needs_pair && pair_comment.is_none() && !allowed {
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

    /// The reason text of the `lint:allow(atomics)` annotation covering
    /// code-index `p`, for the inventory.
    fn allow_reason(&self, p: usize) -> String {
        let mut lines = vec![self.ct(p).line];
        lines.extend(self.ctx.stmt_lines(p));
        for &l in &lines {
            // Same block-walk as suppressed_at: the line itself, then the
            // contiguous comment block above.
            let mut cand = l;
            loop {
                for &(cl, text) in &self.ctx.comments {
                    if cl == cand {
                        if let Some(pos) = text.find("lint:allow(atomics)") {
                            return strip_comment_markers(
                                text[pos + "lint:allow(atomics)".len()..].trim_start_matches(
                                    |c: char| {
                                        c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':')
                                    },
                                ),
                            );
                        }
                    }
                }
                let above_is_comment = self.ctx.comments.iter().any(|&(cl, _)| cl == cand - 1);
                if cand > 1 && above_is_comment {
                    cand -= 1;
                } else {
                    break;
                }
            }
        }
        String::new()
    }

    // ------------------------------------------------------------------
    // Rule: sync
    // ------------------------------------------------------------------

    /// `unsafe impl Send/Sync for T` must cite ≥ 1 named field of `T`
    /// (or `T` itself when no named fields are parsed) in its comment
    /// window, so the soundness argument is tied to the actual state.
    fn rule_sync(&self, report: &mut FileReport) {
        let structs: HashMap<String, Vec<String>> = self
            .struct_defs()
            .into_iter()
            .map(|(n, fields, _)| (n, fields.into_iter().map(|(f, ..)| f).collect()))
            .collect();
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
            let (cited, expectation): (Vec<&str>, String) = match fields {
                Some(fields) => (
                    fields
                        .iter()
                        .map(String::as_str)
                        .filter(|f| window.iter().any(|c| mentions_word(c, f)))
                        .collect(),
                    format!("one of: {}", fields.join(", ")),
                ),
                None => (
                    window
                        .iter()
                        .any(|c| mentions_word(c, &ty))
                        .then_some(ty.as_str())
                        .into_iter()
                        .collect(),
                    format!("the type name `{ty}`"),
                ),
            };
            report.inventory.push(InvEntry {
                kind: "unsafe impl",
                name: format!("{which} for {ty}"),
                ty: String::new(),
                line: t.line,
                note: cited.join(", "),
            });
            if cited.is_empty() && !self.ctx.stmt_suppressed(p, Rule::Sync) {
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

/// The sentence around `needle` in a comment, for inventory quoting.
fn excerpt_around(comment: &str, needle: &str) -> String {
    comment
        .lines()
        .map(strip_comment_markers)
        .find(|l| l.contains(needle))
        .unwrap_or_default()
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

// ----------------------------------------------------------------------
// The docs/CONCURRENCY.md report
// ----------------------------------------------------------------------

/// Renders the checked-in concurrency report from per-file inventories.
/// Deterministic: rows follow file walk order.
pub fn render_report(files: &[(String, Vec<InvEntry>)]) -> String {
    let mut out = String::new();
    out.push_str(
        "# Concurrency inventory\n\n\
         **Generated file — do not edit.** Regenerate with\n\
         `cargo run --release -p gandef-lint -- --concurrency docs/CONCURRENCY.md`\n\
         after any change to shared state, atomics or `unsafe impl Send/Sync`;\n\
         the `concurrency_report_is_in_sync` test diffs this file against a\n\
         fresh run.\n\n\
         Produced by the `shared`/`atomics`/`sync` rules in\n\
         `crates/lint/src/rules/concurrency.rs`; see `docs/LINT.md` for rule\n\
         semantics. Every row below passed its rule — the notes column quotes\n\
         the justification each rule verified.\n\n",
    );

    let section = |out: &mut String, title: &str, kinds: &[&str], header: &str, empty: &str| {
        out.push_str(title);
        let mut any = false;
        for (file, inventory) in files {
            for e in inventory.iter().filter(|e| kinds.contains(&e.kind)) {
                if !any {
                    out.push_str(header);
                    any = true;
                }
                let ty = if e.ty.is_empty() {
                    String::new()
                } else {
                    format!("`{}`", e.ty)
                };
                let note = e.note.replace('|', "\\|");
                out.push_str(&format!(
                    "| `{}` | {} | {} | {}:{} | {} |\n",
                    e.name, e.kind, ty, file, e.line, note
                ));
            }
        }
        if !any {
            out.push_str(empty);
        }
        out.push('\n');
    };

    section(
        &mut out,
        "## Shared state\n\nEvery `static`, `thread_local!` slot and sync-typed struct \
         field in library code. The notes column quotes the describing comment the \
         `shared` rule requires above each slot.\n\n",
        &["static", "static mut", "thread-local", "field"],
        "| site | kind | type | where | notes |\n|---|---|---|---|---|\n",
        "No shared-state slots found.\n",
    );
    section(
        &mut out,
        "## `unsafe impl Send`/`Sync` audit\n\nThe notes column lists the fields each \
         impl's SAFETY comment cites (the `sync` rule requires at least one).\n\n",
        &["unsafe impl"],
        "| impl | kind | type | where | cited state |\n|---|---|---|---|---|\n",
        "No `unsafe impl Send/Sync` in library code.\n",
    );
    section(
        &mut out,
        "## Atomic orderings\n\nEvery `Ordering::…` use outside tests. Relaxed/SeqCst \
         sites quote their `lint:allow(atomics)` reason; Acquire/Release/AcqRel sites \
         quote their `pairs with` partner comment (the `atomics` rule enforces both).\n\n",
        &["ordering"],
        "| ordering | kind | type | where | justification |\n|---|---|---|---|---|\n",
        "No atomic-ordering uses in library code.\n",
    );
    // Every section ends with a blank line; the file ends with one newline.
    out.pop();
    out
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
    fn sync_static_with_comment_passes_and_is_inventoried() {
        let src = "/// Global ready flag, set once at init.\nstatic FLAG: AtomicBool = AtomicBool::new(false);";
        let report = check(src);
        assert!(report.violations.iter().all(|v| v.rule != Rule::Shared));
        let inv: Vec<_> = report
            .inventory
            .iter()
            .filter(|e| e.kind == "static")
            .collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].name, "FLAG");
        assert!(inv[0].note.contains("ready flag"));
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
        assert!(check(src).inventory.is_empty());
    }

    #[test]
    fn sync_typed_fields_are_inventoried() {
        let src =
            "/// Queue guard.\npub struct Shared {\n    queue: Mutex<Vec<u8>>,\n    len: usize,\n}";
        let report = check(src);
        let inv: Vec<_> = report
            .inventory
            .iter()
            .filter(|e| e.kind == "field")
            .collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].name, "Shared.queue");
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
        let inv = check(src);
        let row = inv.inventory.iter().find(|e| e.kind == "ordering");
        assert!(row.is_some_and(|r| r.note.contains("monotonic stats")));
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

    // ---- report ----

    #[test]
    fn report_renders_all_sections() {
        let src = "/// Ready flag.\nstatic READY: AtomicBool = AtomicBool::new(false);\nfn f() -> bool {\n    // lint:allow(atomics) — a stale read only delays the next poll.\n    READY.load(Ordering::Relaxed)\n}";
        let report = check(src);
        let md = render_report(&[("crates/demo/src/lib.rs".to_string(), report.inventory)]);
        assert!(md.contains("# Concurrency inventory"));
        assert!(md.contains("## Shared state"));
        assert!(md.contains("`READY`"));
        assert!(md.contains("Ready flag."));
        assert!(md.contains("No `unsafe impl Send/Sync` in library code."));
        assert!(md.contains("## Atomic orderings"));
        assert!(md.contains("a stale read only delays the next poll."));
        assert!(md.ends_with(" |\n"), "{md}");
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
