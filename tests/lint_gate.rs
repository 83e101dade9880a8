//! Tier-1 self-check: the workspace must pass its own determinism
//! linter under the committed baseline. This is the same gate CI runs
//! via `cargo run -p afraid-lint -- --deny --baseline lint-baseline.toml`,
//! folded into `cargo test` so a violation fails fast locally.

use std::path::Path;

#[test]
fn workspace_is_lint_clean_under_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = match afraid_lint::run_workspace(root) {
        Ok(r) => r,
        Err(e) => panic!("lint scan failed: {e}"),
    };
    assert!(
        report.files_scanned > 40,
        "scan looks truncated: only {} files visited",
        report.files_scanned
    );
    afraid_lint::apply_baseline(&mut report, root, "lint-baseline.toml");

    if !report.findings.is_empty() {
        let mut msg = String::from(
            "workspace violates its determinism invariants (fix the code, \
             annotate with `// lint:allow(<rule>) <reason>`, or — for a \
             deliberate ratchet change — regenerate lint-baseline.toml \
             with --write-baseline):\n",
        );
        for f in &report.findings {
            msg.push_str(&format!(
                "  {}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        panic!("{msg}");
    }
}

#[test]
fn baseline_matches_live_allow_counts() {
    // The committed baseline must be exactly the current allow census:
    // growth is caught above; this direction catches a stale baseline
    // left behind after violations were fixed (silent slack in the
    // ratchet).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = match afraid_lint::run_workspace(root) {
        Ok(r) => r,
        Err(e) => panic!("lint scan failed: {e}"),
    };
    let committed = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap_or_default();
    let live = afraid_lint::baseline::render(&report.allows);
    assert_eq!(
        committed, live,
        "lint-baseline.toml is out of date — regenerate with \
         `cargo run -p afraid-lint -- --baseline lint-baseline.toml --write-baseline`"
    );
}
