//! The rule engine: D1–D4 over token streams.
//!
//! Every rule is deny-by-default. A finding can be carried past the
//! gate only by an inline annotation on the offending line (or the
//! line above it):
//!
//! ```text
//! // lint:allow(d3) slot is bounds-checked by the admission limit
//! ```
//!
//! The reason text is mandatory; annotations that suppress nothing are
//! themselves findings, so stale allows cannot accumulate. Used allows
//! are counted per `(rule, file)` and ratcheted by the committed
//! baseline (see [`crate::baseline`]).

use crate::lexer::{tokenize, Tok, TokKind};

/// A single lint finding, addressable as `file:line`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `d1`..`d4`, or `meta` for annotation hygiene.
    pub rule: String,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, rule: &str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

/// How a source file participates in the rules.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// In the deterministic set: D1, D2 and the `cfg!(test)` half of
    /// D4 apply.
    pub deterministic: bool,
    /// Allowlisted for timing APIs (the bench harness): D1 off.
    pub d1_exempt: bool,
    /// The sanctioned hash-wrapper module: D2 off.
    pub d2_exempt: bool,
    /// Event-loop hot path: D3 applies.
    pub hot_path: bool,
    /// Spawns worker threads (the `exp` crate): D8 concurrency
    /// hygiene applies.
    pub concurrency: bool,
}

/// Rule ids that inline annotations may name.
pub const RULES: &[&str] = &["d1", "d2", "d3", "d4", "d7", "d8"];

/// Rules evaluated over the workspace symbol graph rather than per
/// file. Their `lint:allow` annotations are matched *after* the graph
/// rules run (see [`crate::run_workspace`]); `lint_source` exports
/// them instead of flagging them unused.
pub const GRAPH_RULES: &[&str] = &["d7"];

/// D1: ambient wall-clock / OS-entropy identifiers. Any of these in a
/// result-affecting path makes a cell's outcome depend on when or
/// where it ran instead of on its coordinates.
const D1_IDENTS: &[&str] = &[
    "SystemTime",
    "UNIX_EPOCH",
    "Instant",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "RandomState",
    "random_state",
    "available_parallelism",
    "num_cpus",
];

/// D1: `std::env` readers (ambient configuration). `env::args` is
/// fine — explicit program input, not ambient state.
const D1_ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

/// One parsed `lint:allow` annotation.
#[derive(Clone, Debug)]
struct Allow {
    rule: String,
    /// Line the annotation text sits on.
    line: u32,
    /// End line of the comment token (block comments may span lines);
    /// the allow covers its own line span plus the next line.
    last_line: u32,
    has_reason: bool,
    used: bool,
}

/// Per-file lint result.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// Used allow annotations per rule, for the baseline ratchet.
    pub allows_used: Vec<(String, u32)>,
    /// Annotations naming a graph rule (`d7`), exported as
    /// `(rule, line, last_line)` for post-graph matching: whether they
    /// suppress anything is only known once the workspace rules ran.
    pub graph_allows: Vec<(String, u32, u32)>,
}

/// Lints one source file given its class. `file` is the repo-relative
/// path used in findings.
pub fn lint_source(file: &str, src: &[u8], class: FileClass) -> FileReport {
    let toks = tokenize(src);
    let mut allows = collect_allows(file, &toks);

    // Code view: comments stripped, with a parallel in-test mask.
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let in_test = test_mask(&code);

    let mut raw: Vec<Finding> = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if class.deterministic && !class.d1_exempt {
            check_d1(file, &code, i, tok, &mut raw);
        }
        if class.deterministic && !class.d2_exempt {
            check_d2(file, tok, &mut raw);
        }
        if class.hot_path {
            check_d3(file, &code, i, tok, &mut raw);
        }
        if class.deterministic {
            check_d4_cfg_test(file, &code, i, tok, &mut raw);
        }
        if class.concurrency {
            check_d8(file, &code, i, tok, &mut raw);
        }
    }

    // Apply annotations: a finding on line L is carried by an allow
    // for its rule whose comment covers L or L-1.
    let mut findings: Vec<Finding> = Vec::new();
    'finding: for f in raw {
        for a in allows.iter_mut() {
            if a.rule == f.rule
                && a.has_reason
                && a.last_line.saturating_add(1) >= f.line
                && a.line <= f.line
            {
                a.used = true;
                continue 'finding;
            }
        }
        findings.push(f);
    }

    let mut allows_used: Vec<(String, u32)> = Vec::new();
    let mut graph_allows: Vec<(String, u32, u32)> = Vec::new();
    for a in &allows {
        if a.used {
            allows_used.push((a.rule.clone(), a.line));
        } else if a.has_reason && GRAPH_RULES.contains(&a.rule.as_str()) {
            // Graph-rule allows can only be judged used/unused after
            // the workspace rules ran — export, don't flag.
            graph_allows.push((a.rule.clone(), a.line, a.last_line));
        } else if a.has_reason && RULES.contains(&a.rule.as_str()) {
            findings.push(Finding::new(
                file,
                a.line,
                "meta",
                format!(
                    "unused lint:allow({}) — remove it (the ratchet counts only live allows)",
                    a.rule
                ),
            ));
        }
    }

    findings.sort();
    FileReport {
        findings,
        allows_used,
        graph_allows,
    }
}

/// Extracts `lint:allow(<rule>) <reason>` annotations from comment
/// tokens. Malformed annotations (unknown rule, missing reason) become
/// `meta` findings immediately via a sentinel allow with
/// `has_reason: false` handled by the caller — except unknown rules,
/// which are reported here through a panic-free scan.
fn collect_allows(file: &str, toks: &[Tok<'_>]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = String::from_utf8_lossy(t.text);
        // An annotation must be the comment's entire payload: strip the
        // `//`/`/*`/`!` sigils and require `lint:allow(` immediately
        // after, so docs *mentioning* the syntax don't register.
        let body = text.trim_start_matches(['/', '*', '!']).trim_start();
        let at = text.len() - body.len();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', ':', '-'])
            .trim();
        // Count the lines preceding the annotation inside the comment
        // so multi-line block comments anchor correctly.
        let offset = text[..at].bytes().filter(|&b| b == b'\n').count() as u32;
        let line = t.line.saturating_add(offset);
        let last_line = t
            .line
            .saturating_add(text.bytes().filter(|&b| b == b'\n').count() as u32);
        allows.push(Allow {
            rule,
            line,
            last_line,
            has_reason: !reason.is_empty(),
            used: false,
        });
    }
    // Validate up front; invalid annotations are reported by
    // lint_source through the unused/has_reason paths.
    let _ = file;
    allows
}

/// Annotation-hygiene findings that do not depend on rule execution:
/// unknown rule names and missing reasons.
pub fn annotation_hygiene(file: &str, src: &[u8]) -> Vec<Finding> {
    let toks = tokenize(src);
    let mut out = Vec::new();
    for a in collect_allows(file, &toks) {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(Finding::new(
                file,
                a.line,
                "meta",
                format!(
                    "lint:allow names unknown rule {:?} (expected one of {:?})",
                    a.rule, RULES
                ),
            ));
        } else if !a.has_reason {
            out.push(Finding::new(
                file,
                a.line,
                "meta",
                format!(
                    "lint:allow({}) carries no reason — say why the exception is sound",
                    a.rule
                ),
            ));
        }
    }
    out
}

/// Marks tokens under `#[cfg(test)]` / `#[test]` items (attribute
/// through the end of the attached item). `cfg(not(test))` and
/// `cfg(any/all(..not..))` are conservatively treated as *non*-test.
pub(crate) fn test_mask(code: &[&Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct(b'#') && code.get(i + 1).is_some_and(|t| t.is_punct(b'['))) {
            i += 1;
            continue;
        }
        // Scan the attribute body.
        let mut j = i + 2;
        let mut depth = 1u32;
        let mut idents: Vec<&[u8]> = Vec::new();
        while j < code.len() && depth > 0 {
            let t = code[j];
            if t.is_punct(b'[') {
                depth += 1;
            } else if t.is_punct(b']') {
                depth -= 1;
            } else if t.kind == TokKind::Ident {
                idents.push(t.text);
            }
            j += 1;
        }
        let is_test = idents.first() == Some(&b"test".as_slice()) && idents.len() == 1
            || (idents.first() == Some(&b"cfg".as_slice())
                && idents.iter().any(|s| *s == b"test")
                && !idents.iter().any(|s| *s == b"not"));
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further attributes, then mask through the item.
        let mut k = j;
        while k < code.len()
            && code[k].is_punct(b'#')
            && code.get(k + 1).is_some_and(|t| t.is_punct(b'['))
        {
            let mut d = 1u32;
            k += 2;
            while k < code.len() && d > 0 {
                if code[k].is_punct(b'[') {
                    d += 1;
                } else if code[k].is_punct(b']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        let mut brace_depth = 0i64;
        let mut saw_brace = false;
        let end = loop {
            let Some(t) = code.get(k) else {
                break code.len();
            };
            if t.is_punct(b'{') {
                brace_depth += 1;
                saw_brace = true;
            } else if t.is_punct(b'}') {
                brace_depth -= 1;
                if saw_brace && brace_depth <= 0 {
                    break k + 1;
                }
            } else if t.is_punct(b';') && !saw_brace {
                break k + 1;
            }
            k += 1;
        };
        for m in mask.iter_mut().take(end).skip(i) {
            *m = true;
        }
        i = end.max(i + 1);
    }
    mask
}

fn check_d1(file: &str, code: &[&Tok<'_>], i: usize, tok: &Tok<'_>, out: &mut Vec<Finding>) {
    if tok.kind != TokKind::Ident {
        return;
    }
    for name in D1_IDENTS {
        if tok.is_ident(name) {
            out.push(Finding::new(
                file,
                tok.line,
                "d1",
                format!(
                    "`{name}` in a deterministic crate: wall-clock/OS-entropy makes results depend on when/where the run happened (use SimTime / seeded SplitMix64)"
                ),
            ));
            return;
        }
    }
    // env :: var-like reads.
    if tok.is_ident("env")
        && code.get(i + 1).is_some_and(|t| t.is_punct(b':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(b':'))
    {
        if let Some(next) = code.get(i + 3) {
            for read in D1_ENV_READS {
                if next.is_ident(read) {
                    out.push(Finding::new(
                        file,
                        next.line,
                        "d1",
                        format!(
                            "`env::{read}` in a deterministic crate: ambient environment reads are invisible inputs (plumb the value through config instead)"
                        ),
                    ));
                    return;
                }
            }
        }
    }
    // fs :: anything — file-system access. Flagged at both use-sites
    // (`fs::read_to_string`) and imports (`use std::fs::File`): the
    // file system is ambient mutable state, so any read that can feed
    // back into results needs an annotated soundness argument.
    if tok.is_ident("fs")
        && code.get(i + 1).is_some_and(|t| t.is_punct(b':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(b':'))
    {
        if let Some(next) = code.get(i + 3) {
            if next.kind == TokKind::Ident {
                let op = String::from_utf8_lossy(next.text);
                out.push(Finding::new(
                    file,
                    next.line,
                    "d1",
                    format!(
                        "`fs::{op}` in a deterministic crate: file-system state is an ambient input (results must be pure functions of cell coordinates; annotate sound cache/persistence exceptions)"
                    ),
                ));
            }
        }
    }
}

fn check_d2(file: &str, tok: &Tok<'_>, out: &mut Vec<Finding>) {
    for name in ["HashMap", "HashSet"] {
        if tok.is_ident(name) {
            out.push(Finding::new(
                file,
                tok.line,
                "d2",
                format!(
                    "`{name}` in a serialized/result-affecting module: RandomState iteration order is nondeterministic across runs (use BTreeMap/BTreeSet, or afraid_sim::hash::{{FxHashMap, U64Set}} for integer keys)"
                ),
            ));
            return;
        }
    }
}

fn check_d3(file: &str, code: &[&Tok<'_>], i: usize, tok: &Tok<'_>, out: &mut Vec<Finding>) {
    // .unwrap( / .expect(
    if (tok.is_ident("unwrap") || tok.is_ident("expect"))
        && i > 0
        && code.get(i - 1).is_some_and(|t| t.is_punct(b'.'))
        && code.get(i + 1).is_some_and(|t| t.is_punct(b'('))
    {
        let what = String::from_utf8_lossy(tok.text);
        out.push(Finding::new(
            file,
            tok.line,
            "d3",
            format!(
                "`.{what}()` in the event-loop hot path: a panic here kills the whole experiment matrix (return a typed error, restructure, or annotate the invariant)"
            ),
        ));
        return;
    }
    // panic!-family macros. `unreachable!`, `assert!` and
    // `debug_assert!` are the sanctioned invariant statements and stay
    // legal.
    for mac in ["panic", "todo", "unimplemented"] {
        if tok.is_ident(mac) && code.get(i + 1).is_some_and(|t| t.is_punct(b'!')) {
            out.push(Finding::new(
                file,
                tok.line,
                "d3",
                format!("`{mac}!` in the event-loop hot path (state the invariant with `unreachable!`/`debug_assert!` or handle the case)"),
            ));
            return;
        }
    }
    // Postfix indexing: `[` right after an expression-ending token.
    if tok.is_punct(b'[') && i > 0 {
        let panics = code.get(i - 1).is_some_and(|p| {
            matches!(p.kind, TokKind::Ident | TokKind::Number)
                || p.is_punct(b')')
                || p.is_punct(b']')
        });
        // `#[attr]` is preceded by `#` (Punct) — excluded; `vec![` by
        // `!` — excluded.
        if panics {
            out.push(Finding::new(
                file,
                tok.line,
                "d3",
                "slice/array indexing in the event-loop hot path can panic (use get/get_mut, a checked helper, or annotate the bound)".to_string(),
            ));
        }
    }
}

/// D8: concurrency hygiene in thread-spawning crates. The parallel
/// engine's bit-identity promise survives only if the worker pool's
/// shared state synchronizes properly: mutable statics and
/// `Ordering::Relaxed` on result-affecting atomics are races waiting
/// for a reordering, and non-scoped spawns detach from the pool's
/// join discipline.
fn check_d8(file: &str, code: &[&Tok<'_>], i: usize, tok: &Tok<'_>, out: &mut Vec<Finding>) {
    // `static mut` — shared mutable state with no synchronization.
    if tok.is_ident("static") && code.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
        out.push(Finding::new(
            file,
            tok.line,
            "d8",
            "`static mut` in a thread-spawning crate: unsynchronized shared state is a data race (use an atomic, a Mutex, or thread-local state)".to_string(),
        ));
        return;
    }
    // `Ordering::Relaxed` — no happens-before edge. Fine for a free
    // counter nobody reads back into results; wrong for anything that
    // feeds printed stats or assertions.
    if tok.is_ident("Relaxed") {
        out.push(Finding::new(
            file,
            tok.line,
            "d8",
            "`Ordering::Relaxed` in a thread-spawning crate: no happens-before edge, so cross-thread reads may see stale values (use Acquire/Release/AcqRel for anything result-affecting, or annotate why relaxed is sound)".to_string(),
        ));
        return;
    }
    // `thread::spawn` — detached from scoped-join discipline.
    // `scope.spawn(..)` / `s.spawn(..)` are method calls (preceded by
    // `.`) and don't match this path pattern.
    if tok.is_ident("thread")
        && code.get(i + 1).is_some_and(|t| t.is_punct(b':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(b':'))
        && code.get(i + 3).is_some_and(|t| t.is_ident("spawn"))
    {
        out.push(Finding::new(
            file,
            tok.line,
            "d8",
            "`thread::spawn` in a thread-spawning crate: non-scoped threads outlive the spawner and break the pool's join/propagate-panic discipline (use std::thread::scope)".to_string(),
        ));
    }
}

fn check_d4_cfg_test(
    file: &str,
    code: &[&Tok<'_>],
    i: usize,
    tok: &Tok<'_>,
    out: &mut Vec<Finding>,
) {
    if !(tok.is_ident("cfg")
        && code.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(b'(')))
    {
        return;
    }
    let mut depth = 0i64;
    let mut j = i + 2;
    while let Some(t) = code.get(j) {
        if t.is_punct(b'(') {
            depth += 1;
        } else if t.is_punct(b')') {
            depth -= 1;
            if depth <= 0 {
                break;
            }
        } else if t.is_ident("test") {
            out.push(Finding::new(
                file,
                tok.line,
                "d4",
                "`cfg!(test)` runtime branch in library code: behaviour would differ between test and production builds".to_string(),
            ));
            return;
        }
        j += 1;
    }
}
