//! A minimal hand-rolled Rust lexer.
//!
//! The lint rules in [`crate::rules`] need exactly one property from the
//! tokenizer: that occurrences of `unsafe`, `unwrap`, `panic`, … inside
//! string literals, char literals and comments are *not* confused with
//! occurrences in code (a naive regex over source text gets all of these
//! wrong). The lexer therefore delimits:
//!
//! * line comments (`//`, `///`, `//!`) and (nested) block comments,
//!   which are **kept** as tokens — the SAFETY-comment rule and the
//!   `lint:allow(...)` suppression mechanism read them;
//! * string literals: plain, byte (`b"…"`), and raw (`r"…"`, `r#"…"#`,
//!   `br#"…"#`) with any number of hashes;
//! * char and byte-char literals (`'a'`, `b'\n'`, `'\u{1F600}'`),
//!   disambiguated from lifetimes (`'a`, `'_`);
//! * identifiers (including raw `r#ident` forms), numbers, and single
//!   punctuation characters.
//!
//! It does not attempt full fidelity (multi-character operators come out
//! as adjacent single-character punctuation tokens); the rules only match
//! on identifier/punctuation sequences, so this is sufficient and keeps
//! the lexer small enough to audit by eye.

/// Token classification. `text` on [`Token`] carries the exact source
/// slice for every kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `fn`, `unwrap`, …).
    Ident,
    /// Line or block comment, text includes the delimiters.
    Comment,
    /// String literal of any flavor, text includes quotes/prefix/hashes.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Numeric literal (lexed loosely; never inspected by rules).
    Num,
    /// A single punctuation character.
    Punct(char),
}

/// One lexed token with its 1-based source line and column.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: usize,
    /// 1-based byte column at which the token starts on its line.
    pub col: usize,
}

impl Token {
    /// True for identifier tokens whose text equals `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for punctuation tokens equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Rust keywords that look like a call or a receiver when followed by
/// `(` (`if (…)`, `match (…)`), so a rule must not count them as calls.
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

/// Lexes `src` into a token stream, comments included.
///
/// The lexer never fails: unrecognized bytes become punctuation tokens,
/// and unterminated literals extend to end of input. That keeps the lint
/// usable on any input (including deliberately broken fixtures).
pub fn lex(src: &str) -> Vec<Token> {
    // Byte offset at which each 1-based line starts; lets push_span derive
    // a column for any (start, line) pair, including tokens that begin on
    // an earlier line than the lexer's current position (multi-line
    // strings and block comments record their *start* line).
    let mut line_starts = vec![0usize];
    line_starts.extend(
        src.bytes()
            .enumerate()
            .filter(|(_, b)| *b == b'\n')
            .map(|(i, _)| i + 1),
    );
    Lexer {
        src,
        b: src.as_bytes(),
        i: 0,
        line: 1,
        line_starts,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
    line: usize,
    line_starts: Vec<usize>,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.i),
                b'\'' => self.char_or_lifetime(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_prefixed(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    // Multi-byte UTF-8 sequences land here byte-by-byte;
                    // rules never match on them, so lossy punctuation is
                    // fine (and no string slicing happens).
                    self.push_span(TokKind::Punct(c as char), self.i, self.i + 1, self.line);
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push_span(&mut self, kind: TokKind, start: usize, end: usize, line: usize) {
        let col = start - self.line_starts[line - 1] + 1;
        self.out.push(Token {
            kind,
            text: self.src[start..end].to_string(),
            line,
            col,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.push_span(TokKind::Comment, start, self.i, self.line);
    }

    fn block_comment(&mut self) {
        let (start, start_line) = (self.i, self.line);
        let mut depth = 1usize;
        self.i += 2;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
        self.push_span(TokKind::Comment, start, self.i, start_line);
    }

    /// Lexes a plain or byte string whose opening quote is at `self.i`;
    /// `start` points at the literal's first byte (the prefix, if any).
    fn string(&mut self, start: usize) {
        let start_line = self.line;
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let end = self.i.min(self.b.len());
        self.push_span(TokKind::Str, start, end, start_line);
    }

    /// Lexes a raw string `r##"…"##` whose hashes begin at `self.i`;
    /// `start` points at the literal's first byte.
    fn raw_string(&mut self, start: usize) {
        let start_line = self.line;
        let mut hashes = 0usize;
        while self.peek(hashes) == Some(b'#') {
            hashes += 1;
        }
        self.i += hashes + 1; // hashes plus opening quote
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
                continue;
            }
            if self.b[self.i] == b'"' && (0..hashes).all(|h| self.peek(1 + h) == Some(b'#')) {
                self.i += 1 + hashes;
                break;
            }
            self.i += 1;
        }
        let end = self.i.min(self.b.len());
        self.push_span(TokKind::Str, start, end, start_line);
    }

    fn char_or_lifetime(&mut self) {
        // `'a` followed by anything but a closing quote is a lifetime;
        // `'a'`, `'\n'`, `'\u{…}'` are char literals.
        let start = self.i;
        let next_is_name = matches!(self.peek(1), Some(c) if c == b'_' || c.is_ascii_alphabetic());
        let is_lifetime = next_is_name && self.peek(2) != Some(b'\'');
        if is_lifetime {
            self.i += 1;
            while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
                self.i += 1;
            }
            self.push_span(TokKind::Lifetime, start, self.i, self.line);
            return;
        }
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let end = self.i.min(self.b.len());
        self.push_span(TokKind::Char, start, end, self.line);
    }

    fn ident_or_prefixed(&mut self) {
        let start = self.i;
        while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.i += 1;
        }
        let ident = &self.src[start..self.i];
        match (ident, self.peek(0)) {
            // Raw / byte string literals: r"…", b"…", br#"…"#, r#"…"#.
            ("r" | "br" | "rb", Some(b'"')) => self.raw_string(start),
            ("b", Some(b'"')) => self.string(start),
            ("r" | "br" | "rb", Some(b'#')) => {
                // `r#"…"#` is a raw string; `r#ident` is a raw identifier.
                let mut h = 0usize;
                while self.peek(h) == Some(b'#') {
                    h += 1;
                }
                if self.peek(h) == Some(b'"') {
                    self.raw_string(start);
                } else {
                    // Raw identifier: consume `#` and the name.
                    self.i += 1;
                    while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric())
                    {
                        self.i += 1;
                    }
                    self.push_span(TokKind::Ident, start, self.i, self.line);
                }
            }
            // Byte char literal b'x'.
            ("b", Some(b'\'')) => {
                let start_line = self.line;
                self.i += 1;
                while self.i < self.b.len() {
                    match self.b[self.i] {
                        b'\\' => self.i += 2,
                        b'\'' => {
                            self.i += 1;
                            break;
                        }
                        b'\n' => {
                            self.line += 1;
                            self.i += 1;
                        }
                        _ => self.i += 1,
                    }
                }
                let end = self.i.min(self.b.len());
                self.push_span(TokKind::Char, start, end, start_line);
            }
            _ => self.push_span(TokKind::Ident, start, self.i, self.line),
        }
    }

    fn number(&mut self) {
        let start = self.i;
        self.digits_and_exponent(start);
        // `1.5`, `1.5e3`: a dot followed by a digit continues the number;
        // `0..n` does not (the dots stay punctuation).
        if self.peek(0) == Some(b'.') && matches!(self.peek(1), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
            self.digits_and_exponent(start);
        }
        self.push_span(TokKind::Num, start, self.i, self.line);
    }

    /// Consumes digits/suffix characters plus a signed exponent: `1e-3`
    /// and `1.5E+10` are single numbers, while `0xE-1` stays three tokens
    /// (in radix literals an `e` is a digit, not an exponent marker).
    fn digits_and_exponent(&mut self, start: usize) {
        loop {
            while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
                self.i += 1;
            }
            let radix_prefix = matches!(self.b.get(start..start + 2), Some(b"0x" | b"0b" | b"0o"));
            let after_exponent = self.i > start && matches!(self.b[self.i - 1], b'e' | b'E');
            let signed_digit = matches!(self.peek(0), Some(b'+' | b'-'))
                && matches!(self.peek(1), Some(c) if c.is_ascii_digit());
            if !radix_prefix && after_exponent && signed_digit {
                self.i += 1; // the sign; the digit loop continues
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn keywords_in_strings_and_comments_are_not_idents() {
        let src = r#"
            // unsafe unwrap panic
            /* unsafe { } */
            let s = "unsafe { unwrap() }";
            let c = 'u';
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn code_idents_are_found() {
        let ids = idents("unsafe { p.unwrap() }");
        assert_eq!(ids, vec!["unsafe", "p", "unwrap"]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ fn");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[1].is_ident("fn"));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let toks = lex(r###"let x = r#"contains " quote and unsafe"#; y"###);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        let ids = idents(r###"let x = r#"contains " quote and unsafe"#; y"###);
        assert_eq!(ids, vec!["let", "x", "y"]);
    }

    #[test]
    fn raw_identifiers() {
        let ids = idents("let r#type = 1;");
        assert_eq!(ids, vec!["let", "r#type"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let e = '\\n'; let u = '_'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn anonymous_lifetime() {
        let toks = lex("fn f(x: &'_ u8) {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'_"));
    }

    #[test]
    fn byte_literals() {
        let toks = lex(r#"let a = b"bytes"; let c = b'\n';"#);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<_> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let k = kinds("0..n");
        assert_eq!(
            k,
            vec![
                TokKind::Num,
                TokKind::Punct('.'),
                TokKind::Punct('.'),
                TokKind::Ident
            ]
        );
        let k = kinds("1.5e-3");
        assert_eq!(k[0], TokKind::Num);
    }

    #[test]
    fn signed_exponents_are_one_number() {
        for src in ["1.5e-3", "1e-3", "2E+10", "1.5e3", "7e300"] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].kind, TokKind::Num, "{src}");
            assert_eq!(toks[0].text, src, "{src}");
        }
        // Subtraction after a number must stay subtraction…
        let k = kinds("x1e - 3");
        assert!(k.contains(&TokKind::Punct('-')), "{k:?}");
        let toks = lex("1.0e0-3");
        assert_eq!(toks[0].text, "1.0e0");
        // …and hex digits named `e`/`E` are not exponent markers.
        let toks = lex("0xE-1");
        assert_eq!(toks[0].text, "0xE");
        assert_eq!(toks.len(), 3, "{toks:?}");
    }

    #[test]
    fn shifted_generic_closers_stay_single_puncts() {
        // `Vec<Vec<f32>>` must not fuse `>>` — the rules match
        // single-character closers.
        let toks = lex("let v: Vec<Vec<f32>> = Vec::new();");
        let closers = toks.iter().filter(|t| t.is_punct('>')).count();
        assert_eq!(closers, 2, "{toks:?}");
        let openers = toks.iter().filter(|t| t.is_punct('<')).count();
        assert_eq!(openers, 2);
    }

    #[test]
    fn static_lifetime_vs_char_literal() {
        let toks = lex("fn f(s: &'static str) { let c: char = 's'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'static"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["'s'"]);
    }

    #[test]
    fn raw_byte_strings_with_hashes() {
        let src = r###"let a = br#"raw " unsafe bytes"#; tail"###;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "tail"]);
        let strs = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .count();
        assert_eq!(strs, 1);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = lex("fn r#type() {} r#match");
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["fn", "r#type", "r#match"]);
    }

    #[test]
    fn byte_char_with_newline_tracks_lines() {
        // Invalid Rust, but the lexer must never lose line sync on it.
        let toks = lex("let a = b'\n'; x");
        let x = toks.iter().find(|t| t.is_ident("x")).expect("x");
        assert_eq!(x.line, 2, "{toks:?}");
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let ids = idents(r#"let s = "escaped \" unsafe"; tail"#);
        assert_eq!(ids, vec!["let", "s", "tail"]);
    }

    #[test]
    fn unterminated_literals_do_not_loop() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("let c = '");
        let _ = lex("/* unterminated");
        let _ = lex("let r = r#\"unterminated");
    }

    #[test]
    fn columns_are_tracked() {
        let toks = lex("ab cd\n  ef\nlet s = \"multi\nline\"; g");
        let at = |name: &str| {
            let t = toks.iter().find(|t| t.is_ident(name)).expect(name);
            (t.line, t.col)
        };
        assert_eq!(at("ab"), (1, 1));
        assert_eq!(at("cd"), (1, 4));
        assert_eq!(at("ef"), (2, 3));
        // A multi-line string anchors at its opening quote…
        let s = toks.iter().find(|t| t.kind == TokKind::Str).expect("str");
        assert_eq!((s.line, s.col), (3, 9));
        // …and the token after it lands on the closing line's column.
        assert_eq!(at("g"), (4, 8));
    }

    #[test]
    fn non_ascii_source_survives() {
        let toks = lex("// em—dash and ünïcode\nlet x = \"héllo\";");
        assert!(toks[0].kind == TokKind::Comment);
        assert!(toks.iter().any(|t| t.is_ident("let")));
    }
}
