//! Cut-point sweeps: fan thousands of crash experiments across cores.
//!
//! The cut index is an ordinary cell coordinate: each cut replays the
//! simulation deterministically from event 0, so verdicts are pure
//! functions of `(scenario, seed, duration, cut)` — bit-identical at
//! any `--jobs` count.

use afraid_exp::map_parallel;
use afraid_trace::record::Trace;
use serde::{Deserialize, Serialize};

use crate::scenario::ChaosSpec;
use crate::verdict::CutVerdict;

/// `n` cut points spread evenly over `[1, total_events]`, deduplicated
/// and sorted. Cut 0 (crash before any event) is always included: the
/// degenerate bound belongs in every sweep.
pub fn cut_points(total_events: u64, n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0);
    if n == 1 || total_events == 0 {
        cuts.push(total_events);
    } else {
        let span = total_events - 1;
        for i in 0..n {
            cuts.push(1 + span * i as u64 / (n as u64 - 1));
        }
    }
    cuts.dedup();
    cuts
}

/// Runs the verdicts for every cut, in input order, `jobs`-parallel.
pub fn sweep(spec: &ChaosSpec, trace: &Trace, cuts: &[u64], jobs: usize) -> Vec<CutVerdict> {
    map_parallel(jobs, cuts, |_, &cut| spec.run_cut(trace, cut))
}

/// Aggregate of one scenario's sweep, for reports and CI gates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Scenario name.
    pub scenario: String,
    /// Cut points judged.
    pub cuts: u64,
    /// Cuts where all five invariants held.
    pub passed: u64,
    /// Cuts with a violated invariant (first failure quoted).
    pub failed: u64,
    /// First failure message, if any cut failed.
    pub first_failure: Option<String>,
    /// Cuts that declared at least one unit lost.
    pub cuts_with_declared_loss: u64,
    /// Cuts with at least one truly unrecoverable unit.
    pub cuts_with_true_loss: u64,
    /// Total units declared lost across all cuts.
    pub declared_lost_units: u64,
    /// Total truly lost units across all cuts.
    pub truly_lost_units: u64,
    /// Total stale-parity stripes rebuilt across all cuts.
    pub scrubbed: u64,
    /// Total spurious marks (crash between mark and write).
    pub spurious_marks: u64,
    /// Total dead-disk units reconstructed from survivors.
    pub reconstructed: u64,
    /// Cuts caught with at least one undispositioned corruption live
    /// in the registry.
    pub cuts_with_live_corruption: u64,
    /// Total corruptions repaired byte-exactly by the power-on
    /// cross-check, across all cuts.
    pub corrupt_repaired: u64,
    /// Total corruptions the power-on cross-check declared lost.
    pub corrupt_declared: u64,
    /// Total silent reads (corrupt data served without detection)
    /// before the cut. Zero whenever verify-on-read is enabled.
    pub silent_reads: u64,
}

/// Folds a sweep's verdicts into a summary row.
pub fn summarize(scenario: &str, verdicts: &[CutVerdict]) -> SweepSummary {
    let mut s = SweepSummary {
        scenario: scenario.to_string(),
        cuts: verdicts.len() as u64,
        passed: 0,
        failed: 0,
        first_failure: None,
        cuts_with_declared_loss: 0,
        cuts_with_true_loss: 0,
        declared_lost_units: 0,
        truly_lost_units: 0,
        scrubbed: 0,
        spurious_marks: 0,
        reconstructed: 0,
        cuts_with_live_corruption: 0,
        corrupt_repaired: 0,
        corrupt_declared: 0,
        silent_reads: 0,
    };
    for v in verdicts {
        if v.pass {
            s.passed += 1;
        } else {
            s.failed += 1;
            if s.first_failure.is_none() {
                s.first_failure = v.failure.clone();
            }
        }
        if v.declared_lost > 0 {
            s.cuts_with_declared_loss += 1;
        }
        if v.truly_lost > 0 {
            s.cuts_with_true_loss += 1;
        }
        s.declared_lost_units += v.declared_lost;
        s.truly_lost_units += v.truly_lost;
        s.scrubbed += v.scrubbed;
        s.spurious_marks += v.spurious_marks;
        s.reconstructed += v.reconstructed;
        if v.corrupt_live_at_cut > 0 {
            s.cuts_with_live_corruption += 1;
        }
        s.corrupt_repaired += v.corrupt_repaired;
        s.corrupt_declared += v.corrupt_declared;
        s.silent_reads += v.silent_reads;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_points_cover_both_ends() {
        let cuts = cut_points(1000, 10);
        assert_eq!(cuts[0], 0);
        assert_eq!(cuts[1], 1);
        assert_eq!(*cuts.last().unwrap(), 1000);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
    }

    #[test]
    fn cut_points_degenerate() {
        assert!(cut_points(1000, 0).is_empty());
        assert_eq!(cut_points(0, 4), vec![0]);
        assert_eq!(cut_points(5, 1), vec![0, 5]);
        // More requested cuts than events: dedup keeps each once.
        let cuts = cut_points(3, 100);
        assert!(cuts.len() <= 5, "{cuts:?}");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }
}
