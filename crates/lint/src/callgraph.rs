//! Call-graph construction and panic reachability.
//!
//! Built on [`crate::parser`]: every library function in the workspace
//! becomes a node; call sites resolve to nodes **by name**, without type
//! inference. The resolution policy trades a little recall for a lot of
//! precision, and is *deterministic*, so the report can be checked in
//! and diffed:
//!
//! * `Type::name(...)` paths resolve to fns inside `impl Type`, or to a
//!   free fn `name` (module paths like `pool::parallel_for_mut`). They
//!   never fall back to other types' associated fns — otherwise every
//!   `Vec::new()` would "reach" every workspace constructor.
//! * `.name(...)` method calls resolve to every `self`-taking fn named
//!   `name`, **except** names on the [`STD_METHODS`] list (`map`,
//!   `push`, `get`, …): those are overwhelmingly std calls on options,
//!   iterators and containers, and edges through them would flag nearly
//!   the whole API. A workspace method sharing such a name still gets
//!   its own row; only method-syntax edges *into* it are not tracked.
//! * Bare `name(...)` calls resolve to free fns named `name`.
//!
//! A **panic site** is an `assert!`/`assert_eq!`/`assert_ne!`/`panic!`/
//! `unreachable!`/`todo!`/`unimplemented!` macro use or an `.unwrap()`/
//! `.expect()` call that does not carry a `lint:allow(panic)` annotation.
//! `debug_assert!` is excluded (compiled out of release builds, which is
//! what the paper's timing harness runs). The report lists every public
//! fn from which some panic site is transitively reachable, with one
//! shortest witness path; the `panics_report_is_in_sync` test diffs it
//! against the checked-in `docs/PANICS.md`, so any *new* public panic
//! path fails the build until it is reviewed and committed.

use crate::lexer::{lex, TokKind};
use crate::parser::{parse, FnDef, SiteKind};
use crate::rules::{suppressed_at, Rule};
use std::collections::BTreeMap;

/// One function node in the workspace call graph.
struct Node {
    file: String,
    name: String,
    qual: String,
    is_pub: bool,
    has_self: bool,
    doc_has_panics: bool,
    /// Description of the first unannotated panic site in the body
    /// (`"assert!"`, `".unwrap()"`), if any.
    direct: Option<String>,
    /// Unresolved outgoing calls: `(name, is_method, recv)`.
    calls: Vec<(String, bool, Option<String>)>,
}

/// Macro names whose expansion can panic at runtime in release builds.
fn is_panic_macro(name: &str) -> bool {
    matches!(
        name,
        "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo" | "unimplemented"
    )
}

/// Method names so common on std types (Option/Result, iterators, Vec,
/// slices, floats) that resolving them to same-named workspace methods
/// would drown the report in false edges. Method-syntax calls with these
/// names create no call-graph edge.
pub(crate) const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_mut",
    "as_ref",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "lines",
    "ln",
    "map",
    "max",
    "max_by",
    "min",
    "min_by",
    "next",
    "parse",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "signum",
    "skip",
    "sort",
    "sort_by",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "sum",
    "take",
    "tanh",
    "to_owned",
    "to_string",
    "total_cmp",
    "trim",
    "truncate",
    "windows",
    "zip",
];

/// Builds the graph over `(display_path, source)` pairs — pre-filtered to
/// library code by the caller — and renders the panic-reachability report
/// as markdown. Deterministic for a fixed input order.
pub fn panic_report(files: &[(String, String)]) -> String {
    let mut nodes: Vec<Node> = Vec::new();
    for (file, src) in files {
        let toks = lex(src);
        let comments: Vec<(usize, &str)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        let parsed = parse(&toks);
        for f in parsed.fns.iter().filter(|f| !f.in_test) {
            nodes.push(node_for(file, f, &comments));
        }
    }

    // Name → node indices, for call resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
    }
    let resolve = |name: &str, method: bool, recv: &Option<String>| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        if method {
            if STD_METHODS.contains(&name) {
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
            // Module-qualified free-fn call (`pool::parallel_for_mut`);
            // never fall back to other types' associated fns.
        }
        cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].qual == nodes[i].name)
            .collect()
    };

    // Forward adjacency, deduplicated and order-stable.
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

    // Reverse reachability to a fixpoint: `reaches[i]` ⇔ node i can
    // transitively hit a panic site.
    let mut reaches: Vec<bool> = nodes.iter().map(|n| n.direct.is_some()).collect();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, outs) in adj.iter().enumerate() {
        for &j in outs {
            rev[j].push(i);
        }
    }
    let mut work: Vec<usize> = (0..nodes.len()).filter(|&i| reaches[i]).collect();
    while let Some(j) = work.pop() {
        for &i in &rev[j] {
            if !reaches[i] {
                reaches[i] = true;
                work.push(i);
            }
        }
    }

    // Render: one row per public reaching fn, with a BFS witness path.
    let mut rows: Vec<String> = Vec::new();
    let mut pub_total = 0usize;
    let mut seen = std::collections::BTreeSet::new();
    for (i, n) in nodes.iter().enumerate() {
        if !n.is_pub {
            continue;
        }
        pub_total += 1;
        if !reaches[i] {
            continue;
        }
        let (path, site) = witness(i, &nodes, &adj);
        let key = (n.file.clone(), n.qual.clone(), site.clone());
        if !seen.insert(key) {
            continue; // e.g. re-exported duplicate signatures
        }
        let documented = if n.doc_has_panics { "yes" } else { "no" };
        rows.push(format!(
            "| `{}` | `{}` | {} | {} | {} |",
            n.qual, n.file, site, path, documented
        ));
    }
    rows.sort();

    let mut out = String::new();
    out.push_str("# Panic reachability\n\n");
    out.push_str(
        "**Generated file — do not edit by hand.** Regenerate with\n\
         `./target/release/gandef-lint --panics docs/PANICS.md` after any\n\
         change that adds or removes a panic path; the lint self-test\n\
         diffs this file against a fresh run and fails on drift, so every\n\
         new public panic path is reviewed in the PR that introduces it.\n\n\
         A *panic site* is an unannotated `assert!`-family, `panic!`,\n\
         `unreachable!`, `todo!` or `unimplemented!` macro, or an\n\
         `.unwrap()`/`.expect()` call (`debug_assert!` is compiled out of\n\
         release builds and excluded). Call edges resolve by name —\n\
         deterministic, no type inference; method names shared with\n\
         ubiquitous std methods carry no edges (see `STD_METHODS` in\n\
         `crates/lint/src/callgraph.rs`). The `via` column shows one\n\
         shortest witness path.\n\n",
    );
    out.push_str(&format!(
        "{} of {} public library functions can reach a panic site.\n\n",
        rows.len(),
        pub_total
    ));
    out.push_str("| public fn | file | panic site | via | `# Panics` doc |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in &rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// Builds the node for one parsed fn, classifying its direct panic sites.
fn node_for(file: &str, f: &FnDef, comments: &[(usize, &str)]) -> Node {
    let mut direct = None;
    let mut calls = Vec::new();
    for s in &f.sites {
        match &s.kind {
            SiteKind::Macro { name } if is_panic_macro(name) => {
                if direct.is_none() && !suppressed_at(comments, s.line, Rule::Panic) {
                    direct = Some(format!("`{name}!`"));
                }
            }
            SiteKind::Call {
                name, method, recv, ..
            } => {
                if (name == "unwrap" || name == "expect") && *method {
                    if direct.is_none() && !suppressed_at(comments, s.line, Rule::Panic) {
                        direct = Some(format!("`.{name}()`"));
                    }
                } else {
                    calls.push((name.clone(), *method, recv.clone()));
                }
            }
            _ => {}
        }
    }
    Node {
        file: file.to_string(),
        name: f.name.clone(),
        qual: f.qual.clone(),
        is_pub: f.is_pub,
        has_self: f.has_self,
        doc_has_panics: f.doc_has_panics,
        direct,
        calls,
    }
}

/// Shortest witness: BFS from `start` to the nearest node with a direct
/// panic site; returns the rendered `a → b → c` path and the site text.
fn witness(start: usize, nodes: &[Node], adj: &[Vec<usize>]) -> (String, String) {
    let mut prev: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut visited = vec![false; nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    let mut hit = None;
    while let Some(i) = queue.pop_front() {
        if nodes[i].direct.is_some() {
            hit = Some(i);
            break;
        }
        for &j in &adj[i] {
            if !visited[j] {
                visited[j] = true;
                prev[j] = Some(i);
                queue.push_back(j);
            }
        }
    }
    let Some(mut i) = hit else {
        // Reachability said yes but BFS found nothing — cannot happen on
        // a consistent graph; render a self row rather than panicking.
        return ("?".to_string(), "?".to_string());
    };
    let site = format!(
        "{} in `{}`",
        nodes[i].direct.clone().unwrap_or_default(),
        nodes[i].file
    );
    let mut path = vec![nodes[i].qual.clone()];
    while let Some(p) = prev[i] {
        path.push(nodes[p].qual.clone());
        i = p;
    }
    path.reverse();
    (format!("`{}`", path.join(" → ")), site)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(files: &[(&str, &str)]) -> String {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(f, s)| (f.to_string(), s.to_string()))
            .collect();
        panic_report(&owned)
    }

    #[test]
    fn direct_panic_in_public_fn_is_reported() {
        let out = report(&[(
            "crates/x/src/lib.rs",
            "pub fn f(n: usize) -> usize { assert!(n > 0); n }",
        )]);
        assert!(out.contains("| `f` |"), "{out}");
        assert!(out.contains("`assert!`"), "{out}");
        assert!(out.contains("1 of 1 public library functions"), "{out}");
    }

    #[test]
    fn transitive_reachability_with_witness_path() {
        let src = "pub fn api() -> u8 { helper() }\n\
                   fn helper() -> u8 { inner() }\n\
                   fn inner() -> u8 { panic!(\"boom\") }";
        let out = report(&[("crates/x/src/lib.rs", src)]);
        assert!(out.contains("`api → helper → inner`"), "{out}");
        assert!(out.contains("`panic!`"), "{out}");
    }

    #[test]
    fn annotated_and_debug_sites_do_not_count() {
        let src = "pub fn f(v: Option<u8>) -> u8 {\n\
                   debug_assert!(v.is_some());\n\
                   // lint:allow(panic) — checked by caller\n\
                   v.unwrap()\n}";
        let out = report(&[("crates/x/src/lib.rs", src)]);
        assert!(out.contains("0 of 1 public library functions"), "{out}");
    }

    #[test]
    fn private_fns_are_edges_not_rows() {
        let src = "fn quiet() -> u8 { 0 }\npub fn calm() -> u8 { quiet() }";
        let out = report(&[("crates/x/src/lib.rs", src)]);
        assert!(out.contains("0 of 1 public library functions"), "{out}");
    }

    #[test]
    fn method_calls_resolve_across_files() {
        let a =
            "impl Tensor { pub fn at(&self, i: usize) -> f32 { assert!(i < self.n); self.d[i] } }";
        let b = "pub fn peek(t: &Tensor) -> f32 { t.at(0) }";
        let out = report(&[
            ("crates/tensor/src/tensor.rs", a),
            ("crates/nn/src/lib.rs", b),
        ]);
        assert!(out.contains("`peek → Tensor::at`"), "{out}");
    }

    #[test]
    fn assoc_fn_paths_do_not_cross_types() {
        // `Vec::new()` must not resolve to `Thing::new` — that fallback
        // would mark every constructor caller as panic-reaching.
        let src = "impl Thing { pub fn new() -> Thing { assert!(CAP > 0); Thing } }\n\
                   pub fn fresh() -> Vec<u8> { Vec::new() }";
        let out = report(&[("crates/x/src/lib.rs", src)]);
        assert!(!out.contains("`fresh → Thing::new`"), "{out}");
        assert!(out.contains("| `Thing::new` |"), "{out}");
    }

    #[test]
    fn module_qualified_free_fn_calls_resolve() {
        let a = "pub fn parallel_for_mut(n: usize) { assert!(n > 0); }";
        let b = "pub fn map_all(n: usize) { pool::parallel_for_mut(n) }";
        let out = report(&[
            ("crates/tensor/src/pool.rs", a),
            ("crates/tensor/src/tensor.rs", b),
        ]);
        assert!(out.contains("`map_all → parallel_for_mut`"), "{out}");
    }

    #[test]
    fn std_method_names_carry_no_edges() {
        // `.push()` on a Vec must not resolve to `Tape::push`.
        let a = "impl Tape { pub fn push(&mut self, v: u8) { assert!(v > 0); } }";
        let b = "pub fn collect_ids(out: &mut Vec<u8>) { out.push(1) }";
        let out = report(&[
            ("crates/autodiff/src/tape.rs", a),
            ("crates/core/src/eval.rs", b),
        ]);
        assert!(!out.contains("| `collect_ids` |"), "{out}");
        assert!(out.contains("| `Tape::push` |"), "{out}");
    }

    #[test]
    fn doc_panics_column_is_filled() {
        let src = "/// Thing.\n///\n/// # Panics\n///\n/// If n is 0.\npub fn f(n: usize) { assert!(n > 0); }";
        let out = report(&[("crates/x/src/lib.rs", src)]);
        assert!(out.contains("| yes |"), "{out}");
    }

    #[test]
    fn report_is_deterministic() {
        let files = [
            ("crates/b/src/lib.rs", "pub fn zz() { panic!(\"x\") }"),
            ("crates/a/src/lib.rs", "pub fn aa() { panic!(\"y\") }"),
        ];
        assert_eq!(report(&files), report(&files));
        // Rows are sorted, not input-ordered.
        let out = report(&files);
        let aa = out.find("| `aa` |").expect("aa row");
        let zz = out.find("| `zz` |").expect("zz row");
        assert!(aa < zz);
    }
}
