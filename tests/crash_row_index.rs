//! Tier-1 oracle for the changed-row index of crash cuts.
//!
//! The shadow array and the checksum map store only the rows an
//! operation touched, and recovery and the chaos judge visit only
//! those rows plus the marked ones, settling every other row in bulk.
//! This test does not take that index on trust: at every cut of a 1 s
//! sweep of each scenario it also recovers and judges a copy of the
//! crash image with every row materialised — the index then covers the
//! whole array, so every pass is a full scan — and requires the same
//! verdict, the same recovery ledgers and the same recovered contents.

use afraid::recovery::replay;
use afraid_chaos::{cut_points, judge, Scenario};
use afraid_sim::time::SimDuration;

const SEED: u64 = 42;
/// Cuts per scenario: the chaos sweep's default, which at 1 s covers
/// every event boundary of the baseline, scrub and nvram runs.
const CUTS: usize = 256;

#[test]
fn changed_row_passes_match_full_scans_at_every_cut() {
    for sc in Scenario::ALL {
        let spec = sc.spec(SimDuration::from_secs(1), SEED);
        let trace = spec.trace();
        let cuts = cut_points(spec.total_events(&trace), CUTS);
        let mut skipped_rows = 0;
        for &cut in &cuts {
            let run = spec.crash(&trace, cut);
            let out = replay(&run.image);
            let verdict = judge(cut, &run.image, &out, run.loss.as_ref());

            let mut full = run.image.clone();
            full.shadow.materialize_all();
            if let Some(int) = &mut full.integrity {
                int.materialize_all();
            }
            let full_out = replay(&full);
            let reference = judge(cut, &full, &full_out, run.loss.as_ref());

            let at = format!("{}@{cut}", sc.name());
            assert_eq!(verdict, reference, "{at}: verdicts differ");
            assert_eq!(out.declared_lost, full_out.declared_lost, "{at}");
            assert_eq!(out.corrupt_declared, full_out.corrupt_declared, "{at}");
            assert_eq!(
                out.marks.marked_count(),
                full_out.marks.marked_count(),
                "{at}"
            );
            let layout = *out.shadow.layout();
            for stripe in 0..layout.stripes() {
                for disk in 0..layout.disks() {
                    assert_eq!(
                        out.shadow.word(stripe, disk),
                        full_out.shadow.word(stripe, disk),
                        "{at}: recovered stripe {stripe} disk {disk}"
                    );
                }
            }
            match (&out.integrity, &full_out.integrity) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.counters, b.counters, "{at}");
                    assert_eq!(a.live_corrupt(), b.live_corrupt(), "{at}");
                    assert_eq!(a.declared_units(), b.declared_units(), "{at}");
                    for stripe in 0..layout.stripes() {
                        for unit in 0..layout.data_units() {
                            let w = out.shadow.data_word(stripe, unit);
                            assert_eq!(
                                a.verify(stripe, unit, w),
                                b.verify(stripe, unit, w),
                                "{at}"
                            );
                        }
                    }
                }
                (None, None) => {}
                _ => panic!("{at}: integrity state present on one side only"),
            }
            skipped_rows += layout.stripes() - run.image.touched_rows().len();
        }
        // The index must actually spare work, or this test compares a
        // full scan with itself.
        if sc != Scenario::NvramLoss {
            assert!(
                skipped_rows > 0,
                "{}: no cut left a row untouched",
                sc.name()
            );
        }
    }
}
