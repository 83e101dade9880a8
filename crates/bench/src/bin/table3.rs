//! Table 3 — parity lag, unprotected time, and the resulting MDLR for
//! the baseline AFRAID and the `MTTDL_x` policies.
//!
//! The paper's claims: "the AFRAID contribution to MDLR from
//! unprotected data is extremely low: with the exception of the heavy
//! load from the ATT trace, MDLR_unprotected contributes less than one
//! byte per hour"; "MDLR_unprotected drops to less than 0.1 bytes/hour
//! if any of the MTTDL_x policies are used"; "AFRAID and RAID 5 have
//! essentially identical MDLRs" (both dominated by support
//! components).

use afraid::policy::ParityPolicy;
use afraid_bench::harness::{self, bytes, rule};
use afraid_trace::workloads::WorkloadKind;

fn main() {
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    println!(
        "Table 3: parity lag and mean data loss rate; {}s traces, seed {}",
        args.duration.as_secs_f64(),
        harness::seed()
    );
    println!();
    let header = format!(
        "{:<11} {:<12} {:>12} {:>9} {:>14} {:>13} {:>13}",
        "workload",
        "policy",
        "mean lag",
        "unprot%",
        "MDLRunprot B/h",
        "MDLRdisk B/h",
        "MDLRall B/h"
    );
    println!("{header}");
    rule(header.len());

    let policies = [
        ("afraid".to_string(), ParityPolicy::IdleOnly),
        (
            "mttdl_1e9".to_string(),
            ParityPolicy::MttdlTarget {
                target_hours: 1.0e9,
            },
        ),
        (
            "mttdl_1e7".to_string(),
            ParityPolicy::MttdlTarget {
                target_hours: 1.0e7,
            },
        ),
        ("raid5".to_string(), ParityPolicy::AlwaysRaid5),
    ];
    let kinds = WorkloadKind::all();
    let traces = harness::traces_for(&kinds, args.duration, args.jobs);
    let rows = harness::run_cells(args.jobs, &traces, &policies);
    for (kind, row) in kinds.iter().zip(&rows) {
        for ((name, _), cell) in policies.iter().zip(row) {
            let m = &cell.result.metrics;
            let a = &cell.avail;
            println!(
                "{:<11} {:<12} {:>12} {:>8.1}% {:>14.3} {:>13.3} {:>13.0}",
                kind.name(),
                name,
                bytes(m.mean_parity_lag_bytes),
                m.frac_unprotected * 100.0,
                a.mdlr_unprotected,
                a.mdlr_disk,
                a.mdlr_overall,
            );
        }
        rule(header.len());
    }
    println!();
    println!("Paper: MDLR_unprotected < 1 B/h except ATT; < 0.1 B/h under MTTDL_x;");
    println!("overall MDLR ~4 KB/h everywhere (support-component dominated).");
}
