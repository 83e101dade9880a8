//! Figure 4 — mean I/O time per trace as the parity-update policy
//! sweeps from RAID 5 to pure AFRAID.
//!
//! The paper's reading of the figure: "the highly bursty workloads
//! such as snake, hplajw, and cello-usr show relatively little change
//! in mean I/O time as availability is increased ... In workloads with
//! fewer idle periods and more write traffic, such as AS400-1 and ATT,
//! there is a smooth decline in mean I/O time as MTTDL is increased
//! across the entire range between RAID 5 and pure AFRAID."

use afraid_bench::harness::{self, rule};
use afraid_trace::workloads::WorkloadKind;

fn main() {
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    println!(
        "Figure 4: mean I/O time (ms) per trace vs parity-update policy; {}s traces, seed {}",
        args.duration.as_secs_f64(),
        harness::seed()
    );
    println!();

    let sweep = harness::policy_sweep();
    let mut header = format!("{:<11}", "workload");
    for (name, _) in &sweep {
        header.push_str(&format!(" {name:>10}"));
    }
    println!("{header}");
    rule(header.len());

    let kinds = WorkloadKind::all();
    let traces = harness::traces_for(&kinds, args.duration, args.jobs);
    let rows = harness::run_cells(args.jobs, &traces, &sweep);
    for (kind, cells) in kinds.iter().zip(&rows) {
        let mut row = format!("{:<11}", kind.name());
        for cell in cells {
            row.push_str(&format!(" {:>10.2}", cell.result.metrics.mean_io_ms));
        }
        println!("{row}");
    }
    println!();
    println!("Reading guide: columns run from RAID 5 (left) through MTTDL_x targets to");
    println!("pure AFRAID and RAID 0 (right). Bursty traces are nearly flat once any");
    println!("deferral is allowed; busy traces decline smoothly across the whole range.");
}
