//! Chaos sweep — crash the array at many event boundaries and verify
//! recovery at every one.
//!
//! For each scenario this runs the full cut-point sweep (replay to the
//! cut, power off, recover from NVRAM + survivors, byte-check against
//! the shadow model) and prints one summary row. Any failed cut —
//! silent loss, corruption, a write hole, or residual inconsistency —
//! makes the process exit nonzero, so CI can use this binary as a hard
//! gate.
//!
//! Usage: `chaos [secs] [--cuts N] [--scenario NAME|all] [--jobs N]`
//!
//! `secs` scales the simulated traces (default 5 s); `--cuts N` sets
//! the cuts per scenario (default 256, spread evenly over the run plus
//! the cut-0 bound). Cut verdicts are ordinary cells: `--jobs` fans
//! them over workers with bit-identical output. Writes
//! `BENCH_chaos_sweep.json` at the repository root.

use std::process::ExitCode;
use std::time::Instant;

use afraid_bench::harness;
use afraid_chaos::{cut_points, summarize, sweep, Scenario, SweepSummary};
use afraid_exp::jobs_from_args;
use afraid_sim::time::SimDuration;
use serde::Serialize;

/// Chaos traces are short by design: every cut replays the simulation
/// from event 0, so sweep cost is O(cuts × events).
const DEFAULT_SECS: u64 = 5;

/// Default cuts per scenario.
const DEFAULT_CUTS: usize = 256;

#[derive(Serialize)]
struct ScenarioRun {
    summary: SweepSummary,
    total_events: u64,
    wall_secs: f64,
}

#[derive(Serialize)]
struct Report {
    duration_secs: f64,
    seed: u64,
    cuts_requested: usize,
    jobs: usize,
    scenarios: Vec<ScenarioRun>,
    all_passed: bool,
    wall_secs: f64,
    note: String,
}

fn usage() -> ! {
    eprintln!("usage: chaos [secs] [--cuts N] [--scenario NAME|all] [--jobs N]");
    eprintln!(
        "scenarios: all {}",
        Scenario::ALL.map(|s| s.name()).join(" ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, rest) = jobs_from_args(&raw).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        usage()
    });
    let mut cuts_n = DEFAULT_CUTS;
    let mut scenarios: Vec<Scenario> = Scenario::ALL.to_vec();
    let mut secs = DEFAULT_SECS;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cuts" => {
                cuts_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--scenario" => {
                let name = it.next().unwrap_or_else(|| usage());
                if name == "all" {
                    scenarios = Scenario::ALL.to_vec();
                } else {
                    scenarios = vec![Scenario::parse(name).unwrap_or_else(|| usage())];
                }
            }
            s if !s.starts_with("--") => secs = s.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let duration = SimDuration::from_secs(secs);
    let seed = harness::seed();

    println!(
        "Chaos sweep: {} scenario(s), {cuts_n} cuts each, {secs}s traces, seed {seed}, jobs {jobs}",
        scenarios.len(),
    );
    println!();
    let header = format!(
        "{:<9} {:>7} {:>6} {:>6} {:>8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "scenario",
        "events",
        "cuts",
        "failed",
        "scrubbed",
        "spurious",
        "reconst",
        "declared",
        "true-lost",
        "crpt-rep",
        "crpt-dec",
        "wall s"
    );
    println!("{header}");
    harness::rule(header.len());

    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut all_passed = true;
    for sc in &scenarios {
        let spec = sc.spec(duration, seed);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let cuts = cut_points(total, cuts_n);
        let t1 = Instant::now();
        let verdicts = sweep(&spec, &trace, &cuts, jobs);
        let wall = t1.elapsed().as_secs_f64();
        let s = summarize(sc.name(), &verdicts);
        println!(
            "{:<9} {:>7} {:>6} {:>6} {:>8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8.2}",
            s.scenario,
            total,
            s.cuts,
            s.failed,
            s.scrubbed,
            s.spurious_marks,
            s.reconstructed,
            s.declared_lost_units,
            s.truly_lost_units,
            s.corrupt_repaired,
            s.corrupt_declared,
            wall,
        );
        if s.failed > 0 {
            all_passed = false;
            println!(
                "  FIRST FAILURE: {}",
                s.first_failure.as_deref().unwrap_or("?")
            );
        }
        runs.push(ScenarioRun {
            summary: s,
            total_events: total,
            wall_secs: wall,
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    println!();
    println!(
        "{} cut verdicts in {:.2}s; all passed: {}",
        runs.iter().map(|r| r.summary.cuts).sum::<u64>(),
        wall,
        all_passed
    );

    let report = Report {
        duration_secs: duration.as_secs_f64(),
        seed,
        cuts_requested: cuts_n,
        jobs,
        scenarios: runs,
        all_passed,
        wall_secs: wall,
        note: "cut verdicts are pure functions of (scenario, seed, duration, cut): \
               bit-identical at any --jobs. wall_secs is machine-dependent; everything \
               else is not."
            .to_string(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos_sweep.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_chaos_sweep.json");
    println!("wrote {path}");

    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
