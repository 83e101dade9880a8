//! Figure 3 — how little availability buys how much performance.
//!
//! The paper's Figure 3 plots relative performance (x) against
//! relative availability (y), both normalised to RAID 5, as the
//! `MTTDL_x` target sweeps from RAID 5 (top left) to pure AFRAID
//! (bottom right), using geometric means across all workloads. The
//! quoted points: "AFRAID offers 42% better performance for only 10%
//! less availability, and 97% better for 23% less. By the time pure
//! AFRAID is reached ... performance is 4.1 times better than RAID 5,
//! at a cost of less than half its availability."

use afraid_bench::harness::{self, rule};
use afraid_sim::stats::geometric_mean;
use afraid_trace::workloads::WorkloadKind;

fn main() {
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    println!(
        "Figure 3: performance vs availability (geometric means over all workloads, \
         normalised to RAID 5); {}s traces, seed {}",
        args.duration.as_secs_f64(),
        harness::seed()
    );
    println!();

    let kinds = WorkloadKind::all();
    let traces = harness::traces_for(&kinds, args.duration, args.jobs);

    // One matrix over the whole sweep; the sweep's first column is
    // RAID 5 and doubles as the per-workload reference.
    let sweep = harness::policy_sweep();
    let rows = harness::run_cells(args.jobs, &traces, &sweep);

    let raid5_io: Vec<f64> = rows
        .iter()
        .map(|row| row[0].result.metrics.mean_io_ms)
        .collect();
    let raid5_overall = rows
        .last()
        .map(|row| row[0].avail.mttdl_overall)
        .expect("at least one workload");

    let header = format!(
        "{:<12} {:>12} {:>14} {:>13} {:>15}",
        "policy", "rel. perf", "perf gain", "rel. avail", "avail given up"
    );
    println!("{header}");
    rule(header.len());

    for (p, (name, _)) in sweep.iter().enumerate() {
        let mut perf_ratio = Vec::new();
        let mut avail_ratio = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let cell = &row[p];
            perf_ratio.push(raid5_io[i] / cell.result.metrics.mean_io_ms);
            avail_ratio.push(cell.avail.mttdl_overall / raid5_overall);
        }
        let perf = geometric_mean(&perf_ratio);
        let avail = geometric_mean(&avail_ratio);
        println!(
            "{:<12} {:>11.2}x {:>+13.0}% {:>12.2}x {:>+14.0}%",
            name,
            perf,
            (perf - 1.0) * 100.0,
            avail,
            (avail - 1.0) * 100.0,
        );
    }
    println!();
    println!("Paper: +42% perf for -10% availability; +97% for -23%;");
    println!("pure AFRAID 4.1x perf for less than half RAID 5's availability.");
}
