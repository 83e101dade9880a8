//! The allow-annotation baseline ratchet.
//!
//! `lint-baseline.toml` records, per rule and file, how many inline
//! `lint:allow` annotations the tree currently carries. With
//! `--baseline` the gate fails when a count **grows** (new exceptions
//! need review, not an annotation) *and* when a count **shrinks**
//! without the file being updated (so the committed number always
//! reflects reality and can only ratchet down over time).
//!
//! The format is a deliberate TOML subset this crate can read and
//! write without a TOML dependency:
//!
//! ```text
//! [d3]
//! "crates/core/src/controller.rs" = 12
//! ```

use std::collections::BTreeMap;

use crate::rules::Finding;

/// Allow counts keyed `(rule, file)`, deterministically ordered.
pub type AllowCounts = BTreeMap<(String, String), u32>;

/// Parses baseline text. Unparseable lines are reported as findings
/// against the baseline file itself rather than ignored.
pub fn parse(file: &str, src: &str) -> (AllowCounts, Vec<Finding>) {
    let mut counts = AllowCounts::new();
    let mut findings = Vec::new();
    let mut rule = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = (idx + 1) as u32;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            rule = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let parsed = (|| {
            let rest = line.strip_prefix('"')?;
            let (path, rest) = rest.split_once('"')?;
            let count = rest.trim().strip_prefix('=')?.trim().parse::<u32>().ok()?;
            Some((path.to_string(), count))
        })();
        match parsed {
            Some((path, count)) if !rule.is_empty() => {
                counts.insert((rule.clone(), path), count);
            }
            _ => findings.push(Finding::new(
                file,
                lineno,
                "meta",
                format!("unparseable baseline line: {line:?}"),
            )),
        }
    }
    (counts, findings)
}

/// Serializes counts in the canonical (sorted, stable) form.
pub fn render(counts: &AllowCounts) -> String {
    let mut out = String::from(
        "# afraid-lint allow baseline — counts of inline `lint:allow` annotations\n\
         # per rule and file. Regenerate with `afraid-lint --write-baseline`; CI\n\
         # fails when a count grows (new exception) or silently shrinks (stale\n\
         # baseline), so the numbers only ratchet down.\n",
    );
    let mut current_rule = "";
    for ((rule, file), count) in counts {
        if rule != current_rule {
            out.push_str(&format!("\n[{rule}]\n"));
            current_rule = rule;
        }
        out.push_str(&format!("\"{file}\" = {count}\n"));
    }
    out
}

/// Compares measured allow counts against the committed baseline.
pub fn diff(baseline_file: &str, actual: &AllowCounts, committed: &AllowCounts) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ((rule, file), &have) in actual {
        let want = committed
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if have > want {
            findings.push(Finding::new(
                file,
                0,
                rule,
                format!(
                    "allow count for rule {rule} grew: {have} annotations vs {want} in the baseline — fix the code or review + re-run with --write-baseline"
                ),
            ));
        }
    }
    for ((rule, file), &want) in committed {
        let have = actual
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if have < want {
            findings.push(Finding::new(
                baseline_file,
                0,
                "meta",
                format!(
                    "stale baseline: {file} carries {have} lint:allow({rule}) annotations but the baseline says {want} — ratchet it down with --write-baseline"
                ),
            ));
        }
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, u32)]) -> AllowCounts {
        entries
            .iter()
            .map(|&(r, f, n)| ((r.to_string(), f.to_string()), n))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let c = counts(&[("d1", "a.rs", 2), ("d3", "b.rs", 5), ("d3", "a.rs", 1)]);
        let (parsed, errs) = parse("lint-baseline.toml", &render(&c));
        assert!(errs.is_empty());
        assert_eq!(parsed, c);
    }

    #[test]
    fn growth_is_flagged_against_the_file() {
        let f = diff(
            "bl.toml",
            &counts(&[("d3", "a.rs", 3)]),
            &counts(&[("d3", "a.rs", 2)]),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "a.rs");
        assert!(f[0].message.contains("grew"));
    }

    #[test]
    fn shrink_is_flagged_against_the_baseline() {
        let f = diff(
            "bl.toml",
            &counts(&[("d3", "a.rs", 1)]),
            &counts(&[("d3", "a.rs", 2)]),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "bl.toml");
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn equal_counts_are_clean() {
        let c = counts(&[("d1", "a.rs", 2)]);
        assert!(diff("bl.toml", &c, &c).is_empty());
    }

    #[test]
    fn garbage_lines_are_findings() {
        let (_, errs) = parse("bl.toml", "[d3]\nwhat even is this\n");
        assert_eq!(errs.len(), 1);
    }
}
