//! A recursive-descent item/structure parser over the lexer's tokens.
//!
//! The token-stream rules in [`crate::rules`] match local patterns; the
//! semantic rules (`alloc`, `cast`, `shape`) and the `nondet` rule need
//! *structure*: which function a token belongs to, whether it sits inside
//! a loop body, what a call's receiver is, what a `let` binds. This
//! module recovers exactly that much — an item skeleton (impl blocks,
//! `fn` signatures with parameter types and return type, `#[cfg(test)]`
//! spans) plus a flat list of interesting
//! [`Site`]s per function (calls, macro uses, `as` casts, index
//! expressions), each tagged with its loop nesting depth.
//!
//! It is deliberately **not** a full expression grammar: precedence,
//! patterns and type resolution are out of scope. Everything here is
//! driven by brace/bracket/paren matching over the code-token stream
//! (comments excluded), which is robust to any expression the grammar
//! does not model — unknown constructs simply produce no sites.

use crate::lexer::{TokKind, Token};

/// Parse result for one file: every `fn` found, in source order.
#[derive(Debug, Default)]
pub struct Parsed {
    /// All functions, including nested fns and fns in `#[cfg(test)]`
    /// items (the latter are flagged `in_test`).
    pub fns: Vec<FnDef>,
}

/// One parsed function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Name qualified by the enclosing `impl` type (`Tensor::matmul`),
    /// or the bare name at module level.
    pub qual: String,
    /// True for plain `pub` (restricted `pub(crate)`/`pub(super)` do not
    /// count — they are not public API).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// `(name, flattened type)` for simple `name: Type` parameters.
    pub params: Vec<(String, String)>,
    /// Flattened return type text (`Tensor`, `Result < Tensor , E >`),
    /// empty for `()`-returning functions.
    pub ret: String,
    /// Code-index span of the body braces, `None` for bodyless
    /// declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// True if the function is inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Interesting sites in the body, in source order. Sites inside a
    /// *nested* fn belong to that fn, not this one; sites inside
    /// closures belong to the enclosing fn.
    pub sites: Vec<Site>,
    /// `(name, flattened type)` for typeable `let` bindings in the body.
    pub lets: Vec<(String, String)>,
}

/// One structurally interesting place in a function body.
#[derive(Debug)]
pub struct Site {
    /// What kind of site.
    pub kind: SiteKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// 1-based line where the enclosing statement starts. Differs from
    /// `line` when rustfmt wraps the statement; suppression comments sit
    /// above the statement, so rules should honor both.
    pub stmt_line: usize,
    /// Code-token index (for "before/after" ordering within a fn).
    pub idx: usize,
    /// Number of `for`/`while`/`loop` bodies enclosing this site.
    pub loop_depth: usize,
}

/// Site classification.
#[derive(Debug)]
pub enum SiteKind {
    /// A call: `name(...)`, `recv::name(...)` or `.name(...)`
    /// (turbofish `.name::<T>(...)` included).
    Call {
        /// Called name (`collect`, `push`, `new`).
        name: String,
        /// True for method syntax (`.name(...)`).
        method: bool,
        /// For path calls `Recv::name(...)`, the path segment before the
        /// final `::`.
        recv: Option<String>,
    },
    /// A macro use `name!(...)` / `name![...]` / `name!{...}`.
    Macro {
        /// Macro name (`vec`, `assert`, `panic`).
        name: String,
    },
    /// An `as` cast with the target type and a classification of the
    /// source expression.
    Cast {
        /// Target type token (`f32`, `usize`).
        to: String,
        /// What is being cast.
        src: CastSrc,
    },
    /// An index expression `expr[...]`.
    Index,
}

/// Shallow classification of the expression to the left of `as`.
#[derive(Debug)]
pub enum CastSrc {
    /// A numeric literal (text retained, e.g. `1.5f64`).
    Num(String),
    /// A bare identifier.
    Ident(String),
    /// A parenthesized group — all ident/num token texts inside it.
    Group(Vec<String>),
    /// An index expression `name[...]` — the indexed identifier.
    IndexOf(String),
    /// Anything else (field access, call result, …).
    Other,
}

/// Parses one file's token stream.
pub fn parse(toks: &[Token]) -> Parsed {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let p = P { toks, code };
    p.parse()
}

/// Rust keywords the parser must not mistake for call/index receivers.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

struct P<'a> {
    toks: &'a [Token],
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
}

impl P<'_> {
    fn len(&self) -> usize {
        self.code.len()
    }

    /// The code token at code-index `q`.
    fn ct(&self, q: usize) -> &Token {
        &self.toks[self.code[q]]
    }

    /// Code-index of the matching closer for the opener at `open`.
    /// Unbalanced input yields the last token (the parser keeps going).
    fn matching(&self, open: usize, oc: char, cc: char) -> usize {
        let mut depth = 0usize;
        for q in open..self.len() {
            if self.ct(q).is_punct(oc) {
                depth += 1;
            } else if self.ct(q).is_punct(cc) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return q;
                }
            }
        }
        self.len().saturating_sub(1)
    }

    /// Matching `>` for the `<` at `open`, treating `->`'s `>` as plain
    /// punctuation. Bracket/paren groups are skipped whole, so array
    /// types like `[usize; N]` cannot trip the top-level bail at `{`/`;`
    /// (which means it was not a generic group after all).
    fn matching_angle(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut q = open;
        while q < self.len() {
            let t = self.ct(q);
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(q > 0 && self.ct(q - 1).is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    return q;
                }
            } else if t.is_punct('[') {
                q = self.matching(q, '[', ']');
            } else if t.is_punct('(') {
                q = self.matching(q, '(', ')');
            } else if t.is_punct('{') || t.is_punct(';') {
                return q.saturating_sub(1);
            }
            q += 1;
        }
        self.len().saturating_sub(1)
    }

    /// Code-index of the matching opener scanning *backwards* from the
    /// closer at `close`.
    fn matching_back(&self, close: usize, oc: char, cc: char) -> usize {
        let mut depth = 0usize;
        for q in (0..=close).rev() {
            if self.ct(q).is_punct(cc) {
                depth += 1;
            } else if self.ct(q).is_punct(oc) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return q;
                }
            }
        }
        0
    }

    fn parse(&self) -> Parsed {
        let test_spans = self.find_test_spans();
        let impls = self.find_impls();
        let loop_spans = self.find_loop_spans();
        let mut fns = Vec::new();
        for q in 0..self.len() {
            if self.ct(q).is_ident("fn") {
                if let Some(f) = self.parse_fn(q, &test_spans, &impls) {
                    fns.push(f);
                }
            }
        }
        // Body spans, innermost-wins site attribution: a nested fn's
        // sites must not also count against its parent.
        let bodies: Vec<Option<(usize, usize)>> = fns.iter().map(|f| f.body).collect();
        let innermost = |idx: usize| -> Option<usize> {
            let mut best: Option<(usize, usize)> = None; // (fn index, span size)
            for (i, b) in bodies.iter().enumerate() {
                if let Some((s, e)) = *b {
                    if s <= idx && idx <= e && best.is_none_or(|(_, sz)| e - s < sz) {
                        best = Some((i, e - s));
                    }
                }
            }
            best.map(|(i, _)| i)
        };
        for (idx, line, kind) in self.find_sites() {
            if let Some(i) = innermost(idx) {
                let loop_depth = loop_spans
                    .iter()
                    .filter(|&&(s, e)| s < idx && idx <= e)
                    .count();
                fns[i].sites.push(Site {
                    kind,
                    line,
                    col: self.ct(idx).col,
                    stmt_line: self.stmt_line(idx),
                    idx,
                    loop_depth,
                });
            }
        }
        for (idx, name, ty) in self.find_lets() {
            if let Some(i) = innermost(idx) {
                fns[i].lets.push((name, ty));
            }
        }
        Parsed { fns }
    }

    /// Line of the first token of the statement containing code-index
    /// `idx`: the token after the nearest preceding `;`, `{` or `}`.
    fn stmt_line(&self, idx: usize) -> usize {
        let mut q = idx;
        while q > 0 {
            let t = self.ct(q - 1);
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            q -= 1;
        }
        self.ct(q).line
    }

    /// Parses the `fn` whose keyword sits at code-index `q`.
    fn parse_fn(
        &self,
        q: usize,
        test_spans: &[(usize, usize)],
        impls: &[(usize, usize, String)],
    ) -> Option<FnDef> {
        let name_tok = self.ct(q + 1);
        if name_tok.kind != TokKind::Ident {
            return None; // `fn` in `Fn(A) -> B` never parses here: that is `Fn`, capital.
        }
        let name = &name_tok.text;
        let line = self.ct(q).line;
        let col = self.ct(q).col;

        // Visibility: walk back over modifiers to a possible `pub`.
        let mut j = q;
        while j > 0 {
            let t = self.ct(j - 1);
            let modifier = (t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"))
                || t.kind == TokKind::Str; // `extern "C"`
            if modifier {
                j -= 1;
            } else {
                break;
            }
        }
        let is_pub = j > 0 && self.ct(j - 1).is_ident("pub") && !self.ct(j).is_punct('(');

        // Signature: optional generics, then the parameter list.
        let mut r = q + 2;
        if r < self.len() && self.ct(r).is_punct('<') {
            r = self.matching_angle(r) + 1;
        }
        if r >= self.len() || !self.ct(r).is_punct('(') {
            return None; // trait `fn` declarations without params cannot occur
        }
        let pl_close = self.matching(r, '(', ')');
        let params = self.parse_params(r + 1, pl_close);

        // Return type: `-> …` until the body `{`, a `;`, or `where`.
        let mut ret = String::new();
        let mut s = pl_close + 1;
        if s + 1 < self.len() && self.ct(s).is_punct('-') && self.ct(s + 1).is_punct('>') {
            s += 2;
            while s < self.len() {
                let t = self.ct(s);
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if !ret.is_empty() {
                    ret.push(' ');
                }
                ret.push_str(&t.text);
                s += 1;
            }
        }
        // Body: first `{` before a `;` (where clauses contain neither).
        let mut body = None;
        while s < self.len() {
            let t = self.ct(s);
            if t.is_punct('{') {
                body = Some((s, self.matching(s, '{', '}')));
                break;
            }
            if t.is_punct(';') {
                break;
            }
            s += 1;
        }

        let in_test = test_spans.iter().any(|&(ts, te)| ts <= q && q <= te);
        let qual = impls
            .iter()
            .filter(|&&(is, ie, _)| is <= q && q <= ie)
            .min_by_key(|&&(is, ie, _)| ie - is)
            .map(|(_, _, ty)| format!("{ty}::{name}"))
            .unwrap_or_else(|| name.clone());

        Some(FnDef {
            qual,
            is_pub,
            line,
            col,
            params,
            ret,
            in_test,
            sites: Vec::new(),
            lets: Vec::new(),
            body,
        })
    }

    /// Splits the parameter list between code-indices `from..to` at
    /// top-level commas and extracts `name: Type` pairs. A `self`
    /// receiver and pattern parameters (`(a, b): T`) are skipped — the
    /// symbol table only needs simple bindings.
    fn parse_params(&self, from: usize, to: usize) -> Vec<(String, String)> {
        let mut params = Vec::new();
        for seg in self.split_commas(from, to) {
            let toks: Vec<&Token> = seg.clone().map(|q| self.ct(q)).collect();
            if toks.iter().take(3).any(|t| t.is_ident("self")) {
                continue;
            }
            // `[mut] name : TYPE` with the name a single ident.
            let mut k = 0usize;
            if k < toks.len() && toks[k].is_ident("mut") {
                k += 1;
            }
            let simple =
                k + 1 < toks.len() && toks[k].kind == TokKind::Ident && toks[k + 1].is_punct(':');
            if !simple {
                continue;
            }
            let ty = toks[k + 2..]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            params.push((toks[k].text.clone(), ty));
        }
        params
    }

    /// Ranges between top-level commas in `from..to` (depth counts
    /// parens, brackets, braces and generic angles).
    fn split_commas(&self, from: usize, to: usize) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut start = from;
        let mut q = from;
        while q < to {
            let t = self.ct(q);
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    // `->`'s `>` is not a generic closer.
                    if !(q > 0 && self.ct(q - 1).is_punct('-')) {
                        depth -= 1;
                    }
                }
                TokKind::Punct(',') if depth == 0 => {
                    out.push(start..q);
                    start = q + 1;
                }
                _ => {}
            }
            q += 1;
        }
        if start < to {
            out.push(start..to);
        }
        out
    }

    /// `#[cfg(test)]` item spans — same contract as the token rules'
    /// version: attribute, optional further attributes, then the item's
    /// brace-delimited body.
    fn find_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut q = 0usize;
        while q < self.len() {
            if let Some(after) = self.match_cfg_test_attr(q) {
                let mut r = after;
                while r < self.len() && self.ct(r).is_punct('#') {
                    r = self.skip_attr(r);
                }
                while r < self.len() {
                    match self.ct(r).kind {
                        TokKind::Punct('{') => {
                            spans.push((r, self.matching(r, '{', '}')));
                            break;
                        }
                        TokKind::Punct(';') => break,
                        _ => r += 1,
                    }
                }
                q = r.max(after);
            }
            q += 1;
        }
        spans
    }

    fn match_cfg_test_attr(&self, q: usize) -> Option<usize> {
        if !self.ct(q).is_punct('#') {
            return None;
        }
        let mut r = q + 1;
        if r < self.len() && self.ct(r).is_punct('!') {
            r += 1;
        }
        if r >= self.len() || !self.ct(r).is_punct('[') {
            return None;
        }
        let close = self.matching(r, '[', ']');
        if !(r + 1 < self.len() && self.ct(r + 1).is_ident("cfg")) {
            return None;
        }
        (r + 2..close)
            .any(|s| self.ct(s).is_ident("test"))
            .then_some(close + 1)
    }

    fn skip_attr(&self, q: usize) -> usize {
        let mut r = q + 1;
        if r < self.len() && self.ct(r).is_punct('!') {
            r += 1;
        }
        if r < self.len() && self.ct(r).is_punct('[') {
            self.matching(r, '[', ']') + 1
        } else {
            r
        }
    }

    /// `(body span, type name)` of every `impl` block. The type is the
    /// last plain ident before the body brace (stopping at `where`),
    /// which resolves both `impl Foo` and `impl Trait for Foo`.
    fn find_impls(&self) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        let mut q = 0usize;
        while q < self.len() {
            if !self.ct(q).is_ident("impl") {
                q += 1;
                continue;
            }
            let mut name = String::new();
            let mut r = q + 1;
            while r < self.len() {
                let t = self.ct(r);
                match t.kind {
                    TokKind::Punct('{') | TokKind::Punct(';') => break,
                    TokKind::Punct('<') => r = self.matching_angle(r),
                    TokKind::Ident if t.text == "where" => {
                        while r < self.len() && !self.ct(r).is_punct('{') {
                            r += 1;
                        }
                        break;
                    }
                    TokKind::Ident if !is_keyword(&t.text) => name = t.text.clone(),
                    _ => {}
                }
                r += 1;
            }
            if r < self.len() && self.ct(r).is_punct('{') {
                out.push((r, self.matching(r, '{', '}'), name));
            }
            q = r + 1;
        }
        out
    }

    /// Body spans of every `for`/`while`/`loop`. The body is the first
    /// `{` after the keyword at paren/bracket depth 0 (struct literals
    /// cannot appear unparenthesized in loop headers).
    fn find_loop_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for q in 0..self.len() {
            let t = self.ct(q);
            if !(t.is_ident("for") || t.is_ident("while") || t.is_ident("loop")) {
                continue;
            }
            // A loop's `for` starts a statement (or follows a label);
            // `impl Trait for Type` and `for<'a>` bounds never do.
            if t.is_ident("for") {
                let statement_start = q == 0
                    || matches!(
                        self.ct(q - 1).kind,
                        TokKind::Punct('{')
                            | TokKind::Punct('}')
                            | TokKind::Punct(';')
                            | TokKind::Punct(':')
                    );
                if !statement_start {
                    continue;
                }
            }
            let mut depth = 0i32;
            let mut r = q + 1;
            while r < self.len() {
                let u = self.ct(r);
                match u.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => {
                        out.push((r, self.matching(r, '{', '}')));
                        break;
                    }
                    TokKind::Punct(';') | TokKind::Punct('}') if depth == 0 => break,
                    _ => {}
                }
                r += 1;
            }
        }
        out
    }

    /// All interesting sites in the file, in code-index order.
    fn find_sites(&self) -> Vec<(usize, usize, SiteKind)> {
        let mut out = Vec::new();
        for q in 0..self.len() {
            let t = self.ct(q);
            match t.kind {
                TokKind::Ident if t.text == "as" => {
                    if q + 1 < self.len() && self.ct(q + 1).kind == TokKind::Ident {
                        out.push((
                            q,
                            t.line,
                            SiteKind::Cast {
                                to: self.ct(q + 1).text.clone(),
                                src: self.classify_cast_src(q),
                            },
                        ));
                    }
                }
                TokKind::Ident if !is_keyword(&t.text) => {
                    if let Some(site) = self.call_or_macro_at(q) {
                        out.push((q, t.line, site));
                    }
                }
                TokKind::Punct('[') => {
                    if q > 0 {
                        let prev = self.ct(q - 1);
                        let indexable = matches!(prev.kind, TokKind::Ident if !is_keyword(&prev.text))
                            || prev.is_punct(')')
                            || prev.is_punct(']');
                        // `name![…]` is a macro, not an index.
                        let after_bang = q > 1 && self.ct(q - 1).is_punct('!');
                        if indexable && !after_bang {
                            out.push((q, t.line, SiteKind::Index));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Classifies the ident at `q` as a call or macro site, if it is one.
    fn call_or_macro_at(&self, q: usize) -> Option<SiteKind> {
        let next = |o: usize| (q + o < self.len()).then(|| self.ct(q + o));
        // Macro use: `name!` followed by a delimiter.
        if next(1).is_some_and(|t| t.is_punct('!'))
            && next(2).is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
        {
            return Some(SiteKind::Macro {
                name: self.ct(q).text.clone(),
            });
        }
        // Call: `name(` or turbofish `name::<T>(`.
        let turbofish_call = || {
            let close = self.matching_angle(q + 3);
            close + 1 < self.len() && self.ct(close + 1).is_punct('(')
        };
        let call = next(1).is_some_and(|t| t.is_punct('('))
            || (next(1).is_some_and(|t| t.is_punct(':'))
                && next(2).is_some_and(|t| t.is_punct(':'))
                && next(3).is_some_and(|t| t.is_punct('<'))
                && turbofish_call());
        if !call {
            return None;
        }
        // Definitions (`fn name(`) are not calls.
        if q > 0 && self.ct(q - 1).is_ident("fn") {
            return None;
        }
        let method = q > 0 && self.ct(q - 1).is_punct('.');
        let recv = (!method
            && q >= 3
            && self.ct(q - 1).is_punct(':')
            && self.ct(q - 2).is_punct(':')
            && self.ct(q - 3).kind == TokKind::Ident)
            .then(|| self.ct(q - 3).text.clone());
        Some(SiteKind::Call {
            name: self.ct(q).text.clone(),
            method,
            recv,
        })
    }

    /// Looks left of the `as` at code-index `q` to classify the cast
    /// source expression.
    fn classify_cast_src(&self, q: usize) -> CastSrc {
        if q == 0 {
            return CastSrc::Other;
        }
        let prev = self.ct(q - 1);
        match prev.kind {
            TokKind::Num => CastSrc::Num(prev.text.clone()),
            TokKind::Ident if !is_keyword(&prev.text) => CastSrc::Ident(prev.text.clone()),
            TokKind::Punct(')') => {
                let open = self.matching_back(q - 1, '(', ')');
                let texts = (open + 1..q - 1)
                    .map(|r| self.ct(r))
                    .filter(|t| matches!(t.kind, TokKind::Ident | TokKind::Num))
                    .map(|t| t.text.clone())
                    .collect();
                CastSrc::Group(texts)
            }
            TokKind::Punct(']') => {
                let open = self.matching_back(q - 1, '[', ']');
                if open > 0 && self.ct(open - 1).kind == TokKind::Ident {
                    CastSrc::IndexOf(self.ct(open - 1).text.clone())
                } else {
                    CastSrc::Other
                }
            }
            _ => CastSrc::Other,
        }
    }

    /// Typeable `let` bindings: explicit `let name: Type = …`, or an
    /// initializer whose leading literal carries an f64/u64/i64 suffix
    /// (`let x = 0.0f64`, `let v = vec![0.0f64; n]`).
    fn find_lets(&self) -> Vec<(usize, String, String)> {
        let mut out = Vec::new();
        for q in 0..self.len() {
            if !self.ct(q).is_ident("let") {
                continue;
            }
            let mut r = q + 1;
            if r < self.len() && self.ct(r).is_ident("mut") {
                r += 1;
            }
            if r >= self.len() || self.ct(r).kind != TokKind::Ident || is_keyword(&self.ct(r).text)
            {
                continue; // pattern binding (`let Some(x) = …`, `let (a, b) = …`)
            }
            let name = self.ct(r).text.clone();
            let mut ty = String::new();
            let mut s = r + 1;
            if s < self.len() && self.ct(s).is_punct(':') {
                s += 1;
                let mut depth = 0i32;
                while s < self.len() {
                    let t = self.ct(s);
                    match t.kind {
                        TokKind::Punct('<') => depth += 1,
                        TokKind::Punct('>') => depth -= 1,
                        TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                        _ => {}
                    }
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&t.text);
                    s += 1;
                }
            } else if s < self.len() && self.ct(s).is_punct('=') {
                // Infer from a suffixed leading literal.
                let head = (s + 1 < self.len()).then(|| self.ct(s + 1));
                if let Some(h) = head {
                    if h.kind == TokKind::Num {
                        for suffix in ["f64", "u64", "i64", "f32", "usize", "i32", "u32"] {
                            if h.text.ends_with(suffix) {
                                ty = suffix.to_string();
                                break;
                            }
                        }
                        // An unsuffixed float literal (`let s = 0.0;`)
                        // is some float type; tag it `f32` so the symbol
                        // table records a float binding.
                        if ty.is_empty() && h.text.contains('.') {
                            ty = "f32".to_string();
                        }
                    } else if h.is_ident("vec")
                        && s + 4 < self.len()
                        && self.ct(s + 2).is_punct('!')
                        && self.ct(s + 3).is_punct('[')
                        && self.ct(s + 4).kind == TokKind::Num
                        && self.ct(s + 4).text.ends_with("f64")
                    {
                        ty = "Vec < f64 >".to_string();
                    }
                }
            }
            if !ty.is_empty() {
                out.push((r, name, ty));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Parsed {
        parse(&lex(src))
    }

    #[test]
    fn fn_signature_is_parsed() {
        let p = parsed("pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor { body() }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.qual, "matmul");
        assert!(f.is_pub);
        assert_eq!(f.ret, "Tensor");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0], ("a".to_string(), "& Tensor".to_string()));
    }

    #[test]
    fn pub_crate_is_not_public() {
        let p = parsed("pub(crate) fn f() {}\npub const unsafe fn g() {}\nfn h() {}");
        let vis: Vec<bool> = p.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(vis, vec![false, true, false]);
    }

    #[test]
    fn impl_context_qualifies_names() {
        let p = parsed(
            "impl Tensor { pub fn add(&self, o: &Tensor) -> Tensor { x() } }\n\
             impl std::fmt::Display for Violation { fn fmt(&self) {} }\n\
             fn free() {}",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Tensor::add", "Violation::fmt", "free"]);
        // The `&self` receiver is not a parameter binding.
        assert_eq!(
            p.fns[0].params,
            vec![("o".to_string(), "& Tensor".to_string())]
        );
    }

    #[test]
    fn generic_fn_and_where_clause() {
        let p =
            parsed("pub fn apply<F: Fn(f32) -> f32>(x: f32, f: F) -> f32 where F: Copy { f(x) }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].qual, "apply");
        assert_eq!(p.fns[0].ret, "f32");
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn loop_depth_is_tracked() {
        let p = parsed(
            "fn f(n: usize) {\n\
             let a = g();\n\
             for i in 0..n {\n\
                 let b = g();\n\
                 while i < n { let c = g(); }\n\
             }\n}",
        );
        let depths: Vec<usize> = p.fns[0]
            .sites
            .iter()
            .filter_map(|s| match &s.kind {
                SiteKind::Call { name, .. } if name == "g" => Some(s.loop_depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![0, 1, 2]);
    }

    #[test]
    fn const_generic_array_impl_still_qualifies() {
        let src = "impl<const N: usize> From<[usize; N]> for Shape {\n    fn from(d: [usize; N]) -> Self { Shape::new(d.len()) }\n}";
        let p = parse(&lex(src));
        assert_eq!(p.fns[0].qual, "Shape::from");
    }

    #[test]
    fn impl_trait_for_is_not_a_loop() {
        let p = parsed("impl Attack for Pgd { fn name(&self) -> &str { f() } }");
        let f = &p.fns[0];
        assert_eq!(f.qual, "Pgd::name");
        assert!(f.sites.iter().all(|s| s.loop_depth == 0));
    }

    #[test]
    fn calls_macros_and_turbofish() {
        let p = parsed(
            "fn f(v: Vec<u8>) {\n\
             let a = Vec::new();\n\
             let b: Vec<u8> = v.iter().collect::<Vec<u8>>();\n\
             assert!(a.len() == 0);\n\
             tape.push(x, vec![p], None);\n}",
        );
        let f = &p.fns[0];
        let has = |pred: &dyn Fn(&SiteKind) -> bool| f.sites.iter().any(|s| pred(&s.kind));
        assert!(has(
            &|k| matches!(k, SiteKind::Call { name, recv: Some(r), .. }
            if name == "new" && r == "Vec")
        ));
        assert!(has(
            &|k| matches!(k, SiteKind::Call { name, method: true, .. } if name == "collect")
        ));
        assert!(has(
            &|k| matches!(k, SiteKind::Macro { name } if name == "assert")
        ));
        assert!(has(
            &|k| matches!(k, SiteKind::Macro { name } if name == "vec")
        ));
        assert!(has(
            &|k| matches!(k, SiteKind::Call { name, method: true, .. } if name == "push")
        ));
    }

    #[test]
    fn cast_sources_are_classified() {
        let p = parsed(
            "fn f(x: f64, row: &[f64], n: usize) {\n\
             let a = x as f32;\n\
             let b = 1.5f64 as f32;\n\
             let c = (total / n as f64) as f32;\n\
             let d = row[0] as f32;\n\
             let e = n as f64;\n}",
        );
        let casts: Vec<(&str, &CastSrc)> = p.fns[0]
            .sites
            .iter()
            .filter_map(|s| match &s.kind {
                SiteKind::Cast { to, src } => Some((to.as_str(), src)),
                _ => None,
            })
            .collect();
        assert_eq!(casts.len(), 6); // incl. the inner `n as f64`
        assert!(matches!(casts[0], ("f32", CastSrc::Ident(i)) if i == "x"));
        assert!(matches!(casts[1], ("f32", CastSrc::Num(n)) if n == "1.5f64"));
        assert!(matches!(&casts[3], ("f32", CastSrc::Group(g)) if g.iter().any(|t| t == "f64")));
        assert!(matches!(casts[4], ("f32", CastSrc::IndexOf(i)) if i == "row"));
        assert_eq!(p.fns[0].params[1].1, "& [ f64 ]");
    }

    #[test]
    fn index_sites_exclude_macros_and_array_literals() {
        let p = parsed("fn f(a: &[u8]) { let x = a[0]; let v = vec![1, 2]; let w = [0; 4]; }");
        let indexes = p.fns[0]
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::Index))
            .count();
        assert_eq!(indexes, 1);
    }

    #[test]
    fn nested_fn_sites_attribute_to_innermost() {
        let p = parsed("fn outer() { fn inner() { g(); } h(); }");
        let by_name = |n: &str| {
            p.fns
                .iter()
                .find(|f| f.qual == n)
                .map(|f| f.sites.len())
                .unwrap_or(99)
        };
        assert_eq!(by_name("inner"), 1);
        assert_eq!(by_name("outer"), 1);
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let p =
            parsed("fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f(); }\n}");
        let t = p.fns.iter().find(|f| f.qual == "t").expect("t");
        assert!(t.in_test);
        assert!(!p.fns.iter().find(|f| f.qual == "lib").expect("lib").in_test);
    }

    #[test]
    fn lets_build_a_symbol_table() {
        let p = parsed(
            "fn f() {\n\
             let x: f64 = 0.0;\n\
             let mut acc = 0.0f64;\n\
             let v = vec![0.0f64; 8];\n\
             let untyped = g();\n\
             if let Some(y) = h() { y; }\n}",
        );
        let lets = &p.fns[0].lets;
        assert_eq!(lets.len(), 3, "{lets:?}");
        assert_eq!(lets[0], ("x".to_string(), "f64".to_string()));
        assert_eq!(lets[1], ("acc".to_string(), "f64".to_string()));
        assert_eq!(lets[2], ("v".to_string(), "Vec < f64 >".to_string()));
    }

    #[test]
    fn unsuffixed_float_literal_infers_a_float_type() {
        let p = parsed("fn f() { let s = 0.0; let n = 3; let x = 1.5e3; }");
        let lets = &p.fns[0].lets;
        // `let n = 3` stays untyped (integers carry no reduction-order
        // hazard) and so records no entry at all.
        assert_eq!(lets.len(), 2, "{lets:?}");
        assert_eq!(lets[0], ("s".to_string(), "f32".to_string()));
        assert_eq!(lets[1], ("x".to_string(), "f32".to_string()));
    }

    #[test]
    fn ok_chained_through_call_sites_is_still_a_call_chain() {
        // Regression for the `errprop` scoping: `.ok()` feeding a further
        // call (`?`-free chaining) lexes as a continuing chain — the `.`
        // after `)` must be visible so statement-position detection can
        // tell `x.ok();` from `x.ok().map(f);`.
        let toks = lex("fn f() { g(p).ok().map(use_it); h(p).ok(); }");
        let code: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let ok_sites: Vec<usize> = code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("ok"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ok_sites.len(), 2);
        // First `.ok()` is chained: the token after its `( )` pair is `.`.
        assert!(
            code[ok_sites[0] + 3].is_punct('.'),
            "chained .ok() must continue"
        );
        // Second `.ok()` is statement-position: after its `( )` comes `;`.
        assert!(
            code[ok_sites[1] + 3].is_punct(';'),
            "terminal .ok() must end the stmt"
        );
    }
}
