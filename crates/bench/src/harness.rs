//! Shared experiment plumbing: configurations, runs, parallel fan-out,
//! and table formatting.
//!
//! Every bench binary takes the same CLI shape: an optional positional
//! duration in simulated seconds, plus `--jobs N` to fan independent
//! experiment cells over N worker threads (default: all cores, or
//! `AFRAID_JOBS`). Anything else is a usage error. Results are merged
//! in matrix order, so the printed tables are byte-identical at any
//! job count.

use std::sync::Arc;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_avail::report::AvailabilityReport;
use afraid_exp::{jobs_from_args, map_parallel, run_matrix};
use afraid_sim::time::SimDuration;
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Logical capacity the synthetic traces address: 7 GB, comfortably
/// inside the 5 x 2 GB array's ~7.8 GB usable space.
pub const TRACE_CAPACITY: u64 = 7 * 1024 * 1024 * 1024;

/// Default simulated duration per run, seconds.
pub const DEFAULT_DURATION_SECS: u64 = 600;

/// Parsed common bench arguments.
pub struct BenchArgs {
    /// Simulated duration per run.
    pub duration: SimDuration,
    /// Worker threads for cell fan-out.
    pub jobs: usize,
}

/// Parses `[duration_secs] [--jobs N]`. The duration is whole simulated
/// seconds and defaults to `default_secs`.
///
/// # Errors
///
/// A one-line reason for an unknown flag, a malformed `--jobs`, a
/// duration that is not a whole number, or a second positional
/// argument.
pub fn parse_bench_args(args: &[String], default_secs: u64) -> Result<BenchArgs, String> {
    let (jobs, rest) = jobs_from_args(args)?;
    let mut secs = None;
    for a in rest {
        if a.starts_with('-') {
            return Err(format!("unknown flag {a:?}"));
        }
        if secs.is_some() {
            return Err(format!("unexpected argument {a:?}"));
        }
        let n = a
            .parse::<u64>()
            .map_err(|_| format!("duration must be whole simulated seconds, got {a:?}"))?;
        secs = Some(n);
    }
    Ok(BenchArgs {
        duration: SimDuration::from_secs(secs.unwrap_or(default_secs)),
        jobs,
    })
}

/// Parses the process arguments with [`parse_bench_args`]; on error
/// prints the reason and a usage line, then exits with status 2.
pub fn bench_args(default_secs: u64) -> BenchArgs {
    let mut raw = std::env::args();
    let bin = raw.next().unwrap_or_default();
    let bin = bin
        .rsplit(['/', '\\'])
        .next()
        .unwrap_or("bench")
        .to_string();
    let raw: Vec<String> = raw.collect();
    parse_bench_args(&raw, default_secs).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        eprintln!("usage: {bin} [duration_secs] [--jobs N]");
        std::process::exit(2);
    })
}

/// Workload seed: `AFRAID_SEED` or 42.
pub fn seed() -> u64 {
    std::env::var("AFRAID_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The policy sweep of the paper's Figures 3 and 4: RAID 5 at one end,
/// pure AFRAID at the other, `MTTDL_x` targets in between (hours),
/// with RAID 0 as the unprotected reference.
pub fn policy_sweep() -> Vec<(String, ParityPolicy)> {
    let mut v = vec![("raid5".to_string(), ParityPolicy::AlwaysRaid5)];
    for target in [3.0e9, 1.0e9, 1.0e8, 3.0e7, 1.0e7, 3.0e6, 1.0e6] {
        v.push((
            format!("mttdl_{target:.0e}"),
            ParityPolicy::MttdlTarget {
                target_hours: target,
            },
        ));
    }
    v.push(("afraid".to_string(), ParityPolicy::IdleOnly));
    v.push(("raid0".to_string(), ParityPolicy::NeverRebuild));
    v
}

/// The three headline designs of Table 2.
pub fn headline_designs() -> Vec<(String, ParityPolicy)> {
    vec![
        ("raid0".to_string(), ParityPolicy::NeverRebuild),
        ("afraid".to_string(), ParityPolicy::IdleOnly),
        ("raid5".to_string(), ParityPolicy::AlwaysRaid5),
    ]
}

/// Generates the synthetic trace for a workload.
pub fn trace_for(kind: WorkloadKind, duration: SimDuration) -> Trace {
    WorkloadSpec::preset(kind).generate(TRACE_CAPACITY, duration, seed())
}

/// Generates one shared trace per workload, fanning generation over
/// `jobs` workers. Each `Arc<Trace>` is then shared by every policy
/// cell of its row instead of being regenerated per cell.
pub fn traces_for(kinds: &[WorkloadKind], duration: SimDuration, jobs: usize) -> Vec<Arc<Trace>> {
    afraid_exp::generate_traces(jobs, kinds, TRACE_CAPACITY, duration, seed())
}

/// One finished experiment cell.
pub struct Cell {
    /// Run measurements.
    pub result: RunResult,
    /// Derived availability numbers.
    pub avail: AvailabilityReport,
}

/// Runs one (workload trace, policy) cell on the paper's array.
pub fn run_cell(trace: &Trace, policy: ParityPolicy) -> Cell {
    let cfg = ArrayConfig::paper_default(policy);
    let result = run_trace(&cfg, trace, &RunOptions::default());
    let avail = availability(&cfg, &result.metrics);
    Cell { result, avail }
}

/// Runs the full (trace × policy) matrix over `jobs` workers and
/// returns rows in trace order, columns in policy order — the same
/// shape and values a sequential double loop would produce.
pub fn run_cells(
    jobs: usize,
    traces: &[Arc<Trace>],
    policies: &[(String, ParityPolicy)],
) -> Vec<Vec<Cell>> {
    run_matrix(jobs, traces, policies, |trace, (_, policy), _| {
        run_cell(trace, *policy)
    })
}

/// Fans heterogeneous per-cell configurations (ablation studies) over
/// `jobs` workers, preserving input order.
pub fn run_variants<T, R, F>(jobs: usize, variants: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_parallel(jobs, variants, |_, v| f(v))
}

/// Formats hours compactly (e.g. `4.2e9 h`).
pub fn hours(h: f64) -> String {
    if h.is_infinite() {
        "inf".to_string()
    } else {
        format!("{h:.2e}")
    }
}

/// Formats a byte count at a human scale.
pub fn bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1}MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KB", b / 1024.0)
    } else {
        format!("{b:.1}B")
    }
}

/// Prints a rule line matching a header's width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_both_ends() {
        let sweep = policy_sweep();
        assert_eq!(sweep.first().unwrap().1, ParityPolicy::AlwaysRaid5);
        assert_eq!(sweep.last().unwrap().1, ParityPolicy::NeverRebuild);
        assert!(sweep.len() >= 8);
    }

    #[test]
    fn sweep_names_are_wellformed() {
        for (name, _) in policy_sweep() {
            assert!(!name.is_empty());
            assert!(!name.contains(' '), "bad sweep name {name:?}");
        }
        assert_eq!(policy_sweep()[1].0, "mttdl_3e9");
    }

    #[test]
    fn cell_runs_quickly_on_short_trace() {
        let trace = trace_for(WorkloadKind::Hplajw, SimDuration::from_secs(20));
        let cell = run_cell(&trace, ParityPolicy::IdleOnly);
        assert_eq!(cell.result.metrics.requests as usize, trace.len());
        assert!(cell.avail.mttdl_overall > 0.0);
    }

    #[test]
    fn matrix_matches_individual_cells() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let duration = SimDuration::from_secs(10);
        let traces = traces_for(&kinds, duration, 2);
        let policies = headline_designs();
        let rows = run_cells(4, &traces, &policies);
        assert_eq!(rows.len(), 2);
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 3);
            for (p, cell) in row.iter().enumerate() {
                let solo = run_cell(&traces[t], policies[p].1);
                assert_eq!(
                    cell.result.metrics.mean_io_ms,
                    solo.result.metrics.mean_io_ms
                );
                assert_eq!(
                    cell.result.metrics.events_processed,
                    solo.result.metrics.events_processed
                );
            }
        }
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_bench_args(&args, DEFAULT_DURATION_SECS)
    }

    #[test]
    fn bench_args_accept_duration_and_jobs() {
        let a = parse(&["60", "--jobs", "3"]).unwrap();
        assert_eq!(a.duration, SimDuration::from_secs(60));
        assert_eq!(a.jobs, 3);
        let a = parse(&["--jobs=2"]).unwrap();
        assert_eq!(a.duration, SimDuration::from_secs(DEFAULT_DURATION_SECS));
        assert_eq!(a.jobs, 2);
    }

    #[test]
    fn bench_args_reject_bad_input_without_panicking() {
        for bad in [
            &["--cache"][..],
            &["6O"],
            &["--jobs", "0"],
            &["60", "--jobs"],
            &["--bogus"],
            &["60", "60"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(hours(f64::INFINITY), "inf");
        assert_eq!(bytes(512.0), "512.0B");
        assert_eq!(bytes(2048.0), "2.0KB");
        assert_eq!(bytes(3.0 * 1024.0 * 1024.0), "3.0MB");
    }
}
