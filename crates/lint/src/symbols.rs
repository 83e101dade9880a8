//! The symbol layer: items extracted from token streams.
//!
//! The file-local rules (D1–D4) work on tokens; the workspace rule D7
//! needs *structure*: which functions call which, and where the panic
//! sites are. This module parses just enough of that structure from
//! the [`crate::lexer`] token stream — no `syn`, no type checking, and
//! the same totality guarantee as the lexer:
//!
//! * **Never panics** on any byte sequence (enforced by a proptest
//!   over arbitrary and adversarial inputs). All access is
//!   bounds-checked; all loops are bounded by the token count.
//! * Malformed input degrades to *fewer* symbols, never an error: a
//!   truncated item is simply skipped.
//!
//! What is extracted:
//!
//! * `fn` items — name, heuristic callee names (the call graph's
//!   edges), and panic sites (D7's subjects).
//! * `struct`/`enum` items — name and location only (the graph
//!   statistics count them).
//!
//! Items under `#[cfg(test)]`/`#[test]` are skipped entirely: test
//! code does not join the event-loop call graph.

use crate::lexer::{tokenize, Tok, TokKind};
use crate::rules::test_mask;

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "for", "while", "loop", "match", "return", "break", "continue", "fn", "let",
    "move", "in", "as", "where", "impl", "dyn", "ref", "mut", "pub", "use", "crate", "super",
    "self", "Self", "unsafe", "async", "await", "box", "yield",
];

/// One potential panic site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based line of the site.
    pub line: u32,
    /// What it is: `".unwrap()"`, `".expect()"`, `"panic!"`, `"todo!"`,
    /// `"unimplemented!"`.
    pub what: &'static str,
}

/// A `struct` or `enum` definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructSym {
    pub name: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the item name.
    pub line: u32,
}

/// A `fn` item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnSym {
    pub name: String,
    pub file: String,
    pub line: u32,
    /// Heuristic callee names: every `name(`, `.name(` and `X::name(`
    /// in the body, deduplicated and sorted.
    pub calls: Vec<String>,
    /// Panic sites in the body.
    pub panic_sites: Vec<PanicSite>,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    pub structs: Vec<StructSym>,
    pub fns: Vec<FnSym>,
}

/// Extracts the symbols of one source file. Total on arbitrary bytes.
pub fn scan_file(file: &str, src: &[u8]) -> FileSymbols {
    let toks = tokenize(src);
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mask = test_mask(&code);
    let mut out = FileSymbols::default();
    parse_items(file, &code, &mask, 0, code.len(), &mut out, 0);
    out
}

/// Index of the token after the bracket group opened at `open`
/// (which must hold the opening delimiter), or `end` if unterminated.
fn skip_group(code: &[&Tok<'_>], open: usize, end: usize, opener: u8, closer: u8) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < end {
        let Some(t) = code.get(i) else { break };
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Skips a generics list `<...>` starting at `i` if one opens there.
/// Angle brackets don't nest against parens cleanly in full Rust, but
/// item headers (the only place this runs) never contain `<` as
/// less-than.
fn skip_generics(code: &[&Tok<'_>], i: usize, end: usize) -> usize {
    if !code.get(i).is_some_and(|t| t.is_punct(b'<')) {
        return i;
    }
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        let Some(t) = code.get(j) else { break };
        if t.is_punct(b'<') {
            depth += 1;
        } else if t.is_punct(b'>') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Parses the token range `[start, end)` as a sequence of items.
/// `depth` bounds recursion (nested modules/impls).
fn parse_items(
    file: &str,
    code: &[&Tok<'_>],
    mask: &[bool],
    start: usize,
    end: usize,
    out: &mut FileSymbols,
    depth: u32,
) {
    if depth > 16 {
        return; // adversarial nesting: stop descending, stay total
    }
    let mut i = start;
    while i < end {
        if mask.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let Some(t) = code.get(i) else { break };
        // Attributes: skip.
        if t.is_punct(b'#') && code.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            i = skip_group(code, i + 1, end, b'[', b']');
            continue;
        }
        if t.kind != TokKind::Ident {
            // A stray `{` here is a block we should step over rather
            // than re-parse as items (e.g. a const's value block).
            if t.is_punct(b'{') {
                i = skip_group(code, i, end, b'{', b'}');
            } else {
                i += 1;
            }
            continue;
        }
        match t.text {
            b"struct" | b"enum" => {
                i = parse_struct_or_enum(file, code, i, end, out);
            }
            b"fn" => {
                i = parse_fn(file, code, i, end, out);
            }
            b"impl" => {
                i = parse_impl(file, code, mask, i, end, out, depth);
            }
            b"trait" => {
                // `trait Name { ...default bodies... }`: parse the body
                // as items so default methods join the graph.
                let mut j = skip_generics(code, i + 2, end).max(i + 1);
                while j < end
                    && !code
                        .get(j)
                        .is_some_and(|t| t.is_punct(b'{') || t.is_punct(b';'))
                {
                    j += 1;
                }
                if code.get(j).is_some_and(|t| t.is_punct(b'{')) {
                    let close = skip_group(code, j, end, b'{', b'}');
                    parse_items(
                        file,
                        code,
                        mask,
                        j + 1,
                        close.saturating_sub(1),
                        out,
                        depth + 1,
                    );
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            b"mod" => {
                // `mod name { ... }` inline module; `mod name;` skip.
                let mut j = i + 1;
                while j < end
                    && !code
                        .get(j)
                        .is_some_and(|t| t.is_punct(b'{') || t.is_punct(b';'))
                {
                    j += 1;
                }
                if code.get(j).is_some_and(|t| t.is_punct(b'{')) {
                    let close = skip_group(code, j, end, b'{', b'}');
                    parse_items(
                        file,
                        code,
                        mask,
                        j + 1,
                        close.saturating_sub(1),
                        out,
                        depth + 1,
                    );
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            b"const" | b"static" => {
                i = skip_const(code, i, end);
            }
            b"macro_rules" => {
                // `macro_rules! name { ... }`
                let mut j = i + 1;
                while j < end && !code.get(j).is_some_and(|t| t.is_punct(b'{')) {
                    j += 1;
                }
                i = skip_group(code, j, end, b'{', b'}');
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// Parses `struct`/`enum` starting at the keyword index; returns the
/// index after the item.
fn parse_struct_or_enum(
    file: &str,
    code: &[&Tok<'_>],
    kw: usize,
    end: usize,
    out: &mut FileSymbols,
) -> usize {
    let Some(name_tok) = code.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return kw + 1;
    };
    out.structs.push(StructSym {
        name: String::from_utf8_lossy(name_tok.text).into_owned(),
        file: file.to_string(),
        line: name_tok.line,
    });
    let mut i = skip_generics(code, kw + 2, end);
    // `where` clauses before the body.
    while i < end
        && !code
            .get(i)
            .is_some_and(|t| t.is_punct(b'{') || t.is_punct(b'(') || t.is_punct(b';'))
    {
        i += 1;
    }
    match code.get(i).and_then(|t| t.punct()) {
        Some(b'{') => skip_group(code, i, end, b'{', b'}'),
        Some(b'(') => {
            // Tuple struct: trailing `;` (or where clause) — consume
            // to the `;`.
            let mut j = skip_group(code, i, end, b'(', b')');
            while j < end && !code.get(j).is_some_and(|t| t.is_punct(b';')) {
                j += 1;
            }
            (j + 1).min(end)
        }
        _ => i + 1,
    }
}

/// Parses an `impl` block at the keyword index, recursing into the
/// body for its fns.
fn parse_impl(
    file: &str,
    code: &[&Tok<'_>],
    mask: &[bool],
    kw: usize,
    end: usize,
    out: &mut FileSymbols,
    depth: u32,
) -> usize {
    // Step over the header's paths (skipping generics) up to `{` or
    // `where`, then fast-forward over any `where` clause to the body.
    let mut i = skip_generics(code, kw + 1, end);
    while i < end {
        let Some(t) = code.get(i) else { break };
        if t.is_punct(b'{') || t.is_ident("where") {
            break;
        }
        i = if t.is_punct(b'<') {
            skip_generics(code, i, end)
        } else {
            i + 1
        };
    }
    while i < end && !code.get(i).is_some_and(|t| t.is_punct(b'{')) {
        i += 1;
    }
    if code.get(i).is_some_and(|t| t.is_punct(b'{')) {
        let close = skip_group(code, i, end, b'{', b'}');
        parse_items(
            file,
            code,
            mask,
            i + 1,
            close.saturating_sub(1),
            out,
            depth + 1,
        );
        close
    } else {
        i + 1
    }
}

/// Steps over a `const`/`static` item at the keyword index: to the
/// `;` at depth 0, skipping bracketed groups in the value.
fn skip_const(code: &[&Tok<'_>], kw: usize, end: usize) -> usize {
    let mut j = kw + 1;
    while j < end {
        let Some(t) = code.get(j) else { break };
        match t.punct() {
            Some(b';') => break,
            Some(b'{') => {
                j = skip_group(code, j, end, b'{', b'}');
                continue;
            }
            Some(b'(') => {
                j = skip_group(code, j, end, b'(', b')');
                continue;
            }
            Some(b'[') => {
                j = skip_group(code, j, end, b'[', b']');
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    (j + 1).min(end)
}

/// Parses a `fn` item at the keyword index; extracts body facts.
fn parse_fn(file: &str, code: &[&Tok<'_>], kw: usize, end: usize, out: &mut FileSymbols) -> usize {
    let Some(name_tok) = code.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return kw + 1;
    };
    let name = String::from_utf8_lossy(name_tok.text).into_owned();
    let line = name_tok.line;
    let mut i = skip_generics(code, kw + 2, end);
    // Parameters.
    while i < end
        && !code
            .get(i)
            .is_some_and(|t| t.is_punct(b'(') || t.is_punct(b'{') || t.is_punct(b';'))
    {
        i += 1;
    }
    if code.get(i).is_some_and(|t| t.is_punct(b'(')) {
        i = skip_group(code, i, end, b'(', b')');
    }
    // Return type / where clause up to the body or `;`.
    while i < end
        && !code
            .get(i)
            .is_some_and(|t| t.is_punct(b'{') || t.is_punct(b';'))
    {
        i += 1;
    }
    if !code.get(i).is_some_and(|t| t.is_punct(b'{')) {
        // Trait method signature without a body.
        out.fns.push(FnSym {
            name,
            file: file.to_string(),
            line,
            calls: Vec::new(),
            panic_sites: Vec::new(),
        });
        return i + 1;
    }
    let close = skip_group(code, i, end, b'{', b'}');
    let (calls, panic_sites) = scan_body(code, i + 1, close.saturating_sub(1));
    out.fns.push(FnSym {
        name,
        file: file.to_string(),
        line,
        calls,
        panic_sites,
    });
    close
}

/// Extracts callee names and panic sites from a body token range.
pub fn scan_body(code: &[&Tok<'_>], start: usize, end: usize) -> (Vec<String>, Vec<PanicSite>) {
    let mut calls: Vec<String> = Vec::new();
    let mut sites: Vec<PanicSite> = Vec::new();
    let end = end.min(code.len());
    for j in start..end {
        let Some(t) = code.get(j) else { break };
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = code.get(j + 1).filter(|_| j + 1 < end);
        // Panic-family macros.
        if next.is_some_and(|n| n.is_punct(b'!')) {
            let what = match t.text {
                b"panic" => Some("panic!"),
                b"todo" => Some("todo!"),
                b"unimplemented" => Some("unimplemented!"),
                _ => None,
            };
            if let Some(what) = what {
                sites.push(PanicSite { line: t.line, what });
            }
            continue;
        }
        // Calls: `name(` — keyword-filtered; `.unwrap(`/`.expect(` are
        // panic sites as well.
        if next.is_some_and(|n| n.is_punct(b'(')) {
            let after_dot = j > start && code.get(j - 1).is_some_and(|p| p.is_punct(b'.'));
            if after_dot && (t.is_ident("unwrap") || t.is_ident("expect")) {
                let what = if t.is_ident("unwrap") {
                    ".unwrap()"
                } else {
                    ".expect()"
                };
                sites.push(PanicSite { line: t.line, what });
            }
            let name = String::from_utf8_lossy(t.text);
            if !CALL_KEYWORDS.contains(&name.as_ref()) {
                calls.push(name.into_owned());
            }
        }
    }
    calls.sort();
    calls.dedup();
    (calls, sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structs_and_enums_are_counted() {
        let src = br#"
            /// Doc.
            #[derive(Clone, Copy, Debug)]
            pub struct Config {
                pub disks: u32,
                pub fail_slow: Option<FailSlowConfig>,
            }
            pub struct Unit;
            pub struct Wrap(u64, SimTime);
            pub enum Policy { AlwaysRaid5, MttdlTarget { target_hours: f64 } }
            fn after() {}
        "#;
        let s = scan_file("t.rs", src);
        let names: Vec<&str> = s.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Config", "Unit", "Wrap", "Policy"]);
        assert_eq!(s.structs[0].line, 4);
        // Item bodies are stepped over, not re-parsed as items.
        let fns: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, ["after"]);
    }

    #[test]
    fn fns_calls_and_panic_sites() {
        let src = br#"
            impl fmt::Debug for SimTime {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    write!(f, "SimTime({})", self.0)
                }
            }
            impl Controller {
                pub fn on_event(&mut self, e: Event) {
                    self.dispatch(e);
                    let x = self.queue.pop().unwrap();
                    helper(x);
                }
            }
            const NAME: &str = "fn fake() {}";
            fn helper(x: u64) { panic!("boom {}", x) }
        "#;
        let s = scan_file("t.rs", src);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["fmt", "on_event", "helper"]);
        let on_event = &s.fns[1];
        assert!(on_event.calls.contains(&"dispatch".to_string()));
        assert!(on_event.calls.contains(&"helper".to_string()));
        assert!(on_event.calls.contains(&"pop".to_string()));
        assert_eq!(on_event.panic_sites.len(), 1);
        assert_eq!(on_event.panic_sites[0].what, ".unwrap()");
        assert_eq!(s.fns[2].panic_sites[0].what, "panic!");
    }

    #[test]
    fn test_items_are_invisible() {
        let src = br#"
            #[cfg(test)]
            mod tests {
                pub struct Hidden { x: u32 }
                fn hidden() { panic!("fine in tests") }
            }
            #[test]
            fn also_hidden() { helper().unwrap(); }
            fn visible() {}
        "#;
        let s = scan_file("t.rs", src);
        assert!(s.structs.is_empty());
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["visible"]);
    }

    #[test]
    fn malformed_input_degrades_quietly() {
        for src in [
            &b"struct"[..],
            b"struct {",
            b"fn",
            b"impl for {",
            b"enum E { A(",
            b"const X: &str = ;",
            b"trait T",
            b"mod m {",
        ] {
            let _ = scan_file("t.rs", src);
        }
    }
}
