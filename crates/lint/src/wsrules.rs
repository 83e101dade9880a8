//! Workspace rule D7: a check over the symbol graph.
//!
//! Unlike D1–D4 (file-local token rules), it needs the whole workspace
//! in view:
//!
//! * **d7 — call-graph panic reachability.** D3's panic budget covers
//!   a hand-listed hot-path set; D7 extends it to *everything
//!   reachable* from the event-loop entry points (`run_trace`,
//!   `run_to_cut`) by walking the call graph. Over-approximate by
//!   design: a flagged-but-unreachable site costs one annotation, a
//!   missed reachable site costs a wedged experiment matrix.

use crate::graph::Graph;
use crate::rules::Finding;

/// D7's entry points: the event loop and the chaos cut driver.
pub const D7_ENTRIES: &[&str] = &["run_trace", "run_to_cut"];

/// D7: panic sites in fns reachable from `entries`, restricted to
/// files `covered` says yes to (deterministic, non-bench, and not
/// already under D3's hot-path budget).
pub fn check_panic_reachability(
    g: &Graph,
    entries: &[&str],
    covered: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    let parent = g.reachable(entries);
    let mut out = Vec::new();
    for &id in parent.keys() {
        let Some(f) = g.fns.get(id) else { continue };
        if !covered(&f.file) {
            continue;
        }
        for site in &f.panic_sites {
            out.push(Finding::new(
                &f.file,
                site.line,
                "d7",
                format!(
                    "`{}` is reachable from the event loop via {} — a panic here kills the whole experiment matrix (return a typed error, restructure, or annotate the invariant)",
                    site.what,
                    g.path_to(&parent, id)
                ),
            ));
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::scan_file;

    fn graph_of(srcs: &[(&str, &[u8])]) -> Graph {
        let files: Vec<_> = srcs.iter().map(|(f, s)| scan_file(f, s)).collect();
        Graph::build(&files)
    }

    #[test]
    fn d7_reports_reachable_sites_with_path() {
        let g = graph_of(&[
            ("core.rs", br#"pub fn run_trace() { step(); }"#),
            ("deep.rs", br#"pub fn step() { x.expect("oops"); }"#),
            (
                "island.rs",
                br#"pub fn lonely() { panic!("never reached") }"#,
            ),
        ]);
        let f = check_panic_reachability(&g, &["run_trace"], &|_| true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "deep.rs");
        assert!(f[0].message.contains("run_trace -> step"));
        // The coverage predicate gates reporting.
        let f = check_panic_reachability(&g, &["run_trace"], &|file| file != "deep.rs");
        assert!(f.is_empty());
    }
}
