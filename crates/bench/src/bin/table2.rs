//! Table 2 / Figure 2 — relative performance of RAID 0, AFRAID and
//! RAID 5 across the nine workloads.
//!
//! The paper's claims this regenerates: "pure AFRAID performance is
//! very close to that of RAID 0"; "the performance of the baseline
//! AFRAID was a geometric mean of 4.1 times that of RAID 5 across our
//! test workloads. By comparison, RAID 0 performance was 4.2 times
//! that of RAID 5."

use afraid_bench::harness::{self, rule};
use afraid_sim::stats::geometric_mean;
use afraid_trace::workloads::WorkloadKind;

fn main() {
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    println!(
        "Table 2 / Figure 2: mean I/O time (ms) per design; {}s traces, seed {}",
        args.duration.as_secs_f64(),
        harness::seed()
    );
    println!();
    let header = format!(
        "{:<11} {:>8} {:>10} {:>10} {:>10} {:>14} {:>14}",
        "workload", "requests", "raid0", "afraid", "raid5", "afraid-speedup", "raid0-speedup"
    );
    println!("{header}");
    rule(header.len());

    let kinds = WorkloadKind::all();
    let traces = harness::traces_for(&kinds, args.duration, args.jobs);
    let rows = harness::run_cells(args.jobs, &traces, &harness::headline_designs());

    let mut afraid_speedups = Vec::new();
    let mut raid0_speedups = Vec::new();
    for ((kind, trace), row) in kinds.iter().zip(&traces).zip(&rows) {
        let means: Vec<f64> = row.iter().map(|c| c.result.metrics.mean_io_ms).collect();
        let (raid0, afraid, raid5) = (means[0], means[1], means[2]);
        afraid_speedups.push(raid5 / afraid);
        raid0_speedups.push(raid5 / raid0);
        println!(
            "{:<11} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>13.2}x {:>13.2}x",
            kind.name(),
            trace.len(),
            raid0,
            afraid,
            raid5,
            raid5 / afraid,
            raid5 / raid0,
        );
    }
    rule(header.len());
    println!(
        "{:<11} {:>8} {:>10} {:>10} {:>10} {:>13.2}x {:>13.2}x",
        "geom. mean",
        "",
        "",
        "",
        "",
        geometric_mean(&afraid_speedups),
        geometric_mean(&raid0_speedups),
    );
    println!();
    println!("Paper: AFRAID 4.1x RAID 5 (geometric mean); RAID 0 4.2x RAID 5.");
}
