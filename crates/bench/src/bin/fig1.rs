//! Figure 1 — the small-update problem.
//!
//! The paper's Figure 1 illustrates why RAID 5 small writes are slow:
//! four disk I/Os in the critical path (read old data, read old
//! parity, write data, write parity) against AFRAID's single data
//! write. This binary performs one 8 KB write against each design and
//! reports the foreground I/O count and response time, plus the
//! deferred work AFRAID does later.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid_bench::harness;
use afraid_sim::time::SimTime;
use afraid_trace::record::{IoRecord, ReqKind, Trace};

fn main() {
    println!("Figure 1: the small-update problem (one 8 KB write, 5-disk HP C3325 array)");
    println!();
    let header = format!(
        "{:<8} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "design", "fg I/Os", "pre-reads", "writes", "latency(ms)", "deferred I/Os"
    );
    println!("{header}");
    harness::rule(header.len());

    let cap = harness::TRACE_CAPACITY;
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    let designs = harness::headline_designs();
    let results = harness::run_variants(args.jobs, &designs, |(_, policy)| {
        let mut trace = Trace::new("small-write", cap);
        trace.push(IoRecord {
            time: SimTime::ZERO,
            offset: 0,
            bytes: 8 * 1024,
            kind: ReqKind::Write,
        });
        let cfg = ArrayConfig::paper_default(*policy);
        run_trace(&cfg, &trace, &RunOptions::default())
    });
    for ((name, _), r) in designs.iter().zip(&results) {
        let io = r.metrics.io;
        println!(
            "{:<8} {:>9} {:>10} {:>10} {:>12.2} {:>12}",
            name,
            io.foreground_write_ios(),
            io.rmw_pre_read,
            io.client_write + io.parity_write,
            r.metrics.mean_io_ms,
            io.scrub_read + io.scrub_write,
        );
    }
    println!();
    println!("Paper: RAID 5 needs 3-4 I/Os in the critical path; AFRAID needs 1.");
    println!("AFRAID's 5 deferred I/Os (4 stripe reads + 1 parity write) run in idle time.");
}
