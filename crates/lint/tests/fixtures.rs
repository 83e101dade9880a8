//! Fixture-driven rule tests. Each fixture file marks every line that
//! must fire with a trailing `// POSITIVE: ...` comment; the test
//! asserts the linter's findings land on exactly those lines — no
//! misses, no false positives — and that the fixture's annotated-allow
//! examples are counted as used.

use afraid_lint::graph::Graph;
use afraid_lint::rules::Finding;
use afraid_lint::symbols::scan_file;
use afraid_lint::{lint_source, wsrules, FileClass};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => panic!("cannot read fixture {path}: {e}"),
    }
}

/// Lines (1-based) carrying a POSITIVE marker.
fn positive_lines(src: &[u8]) -> Vec<u32> {
    String::from_utf8_lossy(src)
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("POSITIVE:"))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

fn check_fixture(name: &str, rule: &str, class: FileClass, expect_allows: usize) {
    let src = fixture(name);
    let expected = positive_lines(&src);
    assert!(
        !expected.is_empty(),
        "{name}: fixture must contain at least one POSITIVE marker"
    );
    let report = lint_source(name, &src, class);

    let meta: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "meta")
        .collect();
    assert!(
        meta.is_empty(),
        "{name}: unexpected meta findings: {meta:?}"
    );

    let mut got: Vec<u32> = report
        .findings
        .iter()
        .inspect(|f| assert_eq!(f.rule, rule, "{name}: off-rule finding {f:?}"))
        .map(|f| f.line)
        .collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(
        got, expected,
        "{name}: findings (left) must land exactly on the POSITIVE lines (right)"
    );

    assert_eq!(
        report.allows_used.len(),
        expect_allows,
        "{name}: annotated-allow examples must be counted as used: {:?}",
        report.allows_used
    );
    for (r, _) in &report.allows_used {
        assert_eq!(r, rule, "{name}: allow counted under the wrong rule");
    }
}

fn det() -> FileClass {
    FileClass {
        deterministic: true,
        ..FileClass::default()
    }
}

#[test]
fn d1_fires_on_clock_entropy_and_env() {
    check_fixture("d1_violations.rs", "d1", det(), 2);
}

#[test]
fn d2_fires_on_randomstate_collections() {
    check_fixture("d2_violations.rs", "d2", det(), 1);
}

#[test]
fn d3_fires_on_panic_risks_in_hot_path() {
    let class = FileClass {
        hot_path: true,
        ..FileClass::default()
    };
    check_fixture("d3_violations.rs", "d3", class, 1);
}

#[test]
fn d4_fires_on_cfg_test_runtime_branches() {
    check_fixture("d4_violations.rs", "d4", det(), 1);
}

#[test]
fn d8_fires_on_static_mut_relaxed_and_detached_spawn() {
    let class = FileClass {
        deterministic: true,
        concurrency: true,
        ..FileClass::default()
    };
    check_fixture("d8_violations.rs", "d8", class, 1);
}

/// Runs a workspace (graph) rule over one fixture file, then applies
/// its `lint:allow` annotations exactly the way `run_workspace` does:
/// a graph finding is suppressed when an annotation of the same rule
/// sits on the finding's line or the line directly above it. Asserts
/// the surviving findings land exactly on the POSITIVE lines and that
/// every annotation suppressed something.
fn check_graph_fixture(name: &str, rule: &str, run: &dyn Fn(&Graph) -> Vec<Finding>) {
    let src = fixture(name);
    let expected = positive_lines(&src);
    assert!(
        !expected.is_empty(),
        "{name}: fixture must contain at least one POSITIVE marker"
    );

    // The file-local pass must stay silent (no off-rule noise, no
    // meta findings) and export the fixture's graph-rule allows.
    let report = lint_source(name, &src, det());
    assert!(
        report.findings.is_empty(),
        "{name}: file-local pass should be clean: {:?}",
        report.findings
    );
    let allows: Vec<_> = report
        .graph_allows
        .iter()
        .filter(|(r, _, _)| r == rule)
        .collect();

    let g = Graph::build(&[scan_file(name, &src)]);
    let mut findings = run(&g);
    for f in &findings {
        assert_eq!(f.rule, rule, "{name}: off-rule finding {f:?}");
    }
    let before = findings.len();
    findings.retain(|f| {
        !allows
            .iter()
            .any(|(_, line, last)| *line <= f.line && f.line <= last + 1)
    });
    assert_eq!(
        before - findings.len(),
        allows.len(),
        "{name}: every lint:allow({rule}) must suppress exactly one finding"
    );

    let mut got: Vec<u32> = findings.iter().map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(
        got, expected,
        "{name}: findings (left) must land exactly on the POSITIVE lines (right)"
    );
}

#[test]
fn d7_fires_on_reachable_panic_sites_only() {
    check_graph_fixture("d7_violations.rs", "d7", &|g| {
        wsrules::check_panic_reachability(g, &["entry"], &|_| true)
    });
}

/// The exemption bits really do switch rules off: the D1 fixture is
/// clean for an allowlisted (bench) file, the D2 fixture for the hash
/// wrapper, the D3 fixture off the hot path.
#[test]
fn exemptions_silence_the_rules() {
    let d1 = lint_source(
        "d1_violations.rs",
        &fixture("d1_violations.rs"),
        FileClass {
            deterministic: true,
            d1_exempt: true,
            ..FileClass::default()
        },
    );
    assert!(
        d1.findings.iter().all(|f| f.rule != "d1"),
        "d1_exempt must silence d1: {:?}",
        d1.findings
    );

    let d2 = lint_source(
        "d2_violations.rs",
        &fixture("d2_violations.rs"),
        FileClass {
            deterministic: true,
            d2_exempt: true,
            ..FileClass::default()
        },
    );
    assert!(
        d2.findings.iter().all(|f| f.rule != "d2"),
        "d2_exempt must silence d2: {:?}",
        d2.findings
    );

    let d3 = lint_source(
        "d3_violations.rs",
        &fixture("d3_violations.rs"),
        FileClass::default(),
    );
    assert!(
        d3.findings.iter().all(|f| f.rule != "d3"),
        "off the hot path d3 must not fire: {:?}",
        d3.findings
    );

    let d8 = lint_source("d8_violations.rs", &fixture("d8_violations.rs"), det());
    assert!(
        d8.findings.iter().all(|f| f.rule != "d8"),
        "outside a concurrency crate d8 must not fire: {:?}",
        d8.findings
    );
}

/// A stale allow (suppressing nothing) is itself a finding, and an
/// unknown rule name is caught by annotation hygiene.
#[test]
fn annotation_hygiene_catches_stale_and_unknown() {
    let src = b"// lint:allow(d3) nothing here needs it\nfn f() {}\n";
    let report = lint_source(
        "stale.rs",
        src,
        FileClass {
            hot_path: true,
            ..FileClass::default()
        },
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "meta" && f.message.contains("unused")),
        "stale allow must be flagged: {:?}",
        report.findings
    );

    let bad = b"// lint:allow(d9) no such rule\nfn f() {}\n";
    let hygiene = afraid_lint::rules::annotation_hygiene("bad.rs", bad);
    assert!(
        hygiene.iter().any(|f| f.message.contains("unknown rule")),
        "unknown rule must be flagged: {hygiene:?}"
    );

    let bare = b"// lint:allow(d3)\nfn f() {}\n";
    let hygiene = afraid_lint::rules::annotation_hygiene("bare.rs", bare);
    assert!(
        hygiene.iter().any(|f| f.message.contains("no reason")),
        "reasonless allow must be flagged: {hygiene:?}"
    );
}
