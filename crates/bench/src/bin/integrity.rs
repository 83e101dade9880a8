//! Integrity sweep — silent-corruption exposure with and without
//! end-to-end verification.
//!
//! For each (policy × verification mode) cell this replays the same
//! write-heavy trace against disks that lie — torn, lost, and
//! misdirected writes plus read bit-flips — and reports the fate of
//! every injected fault: detected, repaired byte-exactly, declared
//! unrepairable, erased by overwrite, or (the failure mode the
//! subsystem exists to kill) silently served to a client. The `off`
//! mode is the clean control: it must find nothing and trip nothing.
//!
//! Usage: `integrity [secs] [--jobs N]`
//!
//! Cells are ordinary matrix cells: `--jobs` fans them over workers
//! with bit-identical output.
//! Writes `BENCH_integrity_sweep.json` at the repository root.

use std::time::Instant;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::integrity::IntegrityCounters;
use afraid::policy::ParityPolicy;
use afraid_bench::harness;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use serde::Serialize;

/// Corruption is per-I/O, so short traces suffice: the default 60 s
/// Att trace lands a few hundred injected faults per cell.
const DEFAULT_SECS: u64 = 60;

/// Verification modes swept per policy.
const MODES: [&str; 3] = ["off", "blind", "verify"];

/// Silent-fault rates for the injecting modes, high enough that every
/// disposition shows up in every cell.
fn apply_mode(cfg: &mut ArrayConfig, mode: &str) {
    if mode == "off" {
        // Clean control: verification on, nothing to find.
        cfg.integrity.verify_reads = true;
        cfg.integrity.verify_scrub = true;
        return;
    }
    cfg.integrity.bit_flip_per_read = 5e-3;
    cfg.integrity.torn_write_per_io = 3e-2;
    cfg.integrity.lost_write_per_io = 3e-2;
    cfg.integrity.misdirected_write_per_io = 2e-2;
    if mode == "verify" {
        cfg.integrity.verify_reads = true;
        cfg.integrity.verify_scrub = true;
    }
}

#[derive(Serialize)]
struct Row {
    policy: String,
    mode: String,
    integrity: IntegrityCounters,
    injected_total: u64,
    resolved_total: u64,
    mean_io_ms: f64,
    repair_ios: u64,
}

#[derive(Serialize)]
struct Report {
    duration_secs: f64,
    seed: u64,
    jobs: usize,
    rows: Vec<Row>,
    note: String,
}

fn main() {
    let args = harness::bench_args(DEFAULT_SECS);
    let duration = args.duration;
    let seed = harness::seed();

    // Shadow + integrity bookkeeping scale with stripes: use the small
    // test array so the sweep stays interactive.
    let capacity = {
        let probe = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        2500 * u64::from(probe.n_data()) * probe.stripe_unit_bytes
    };
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(capacity, duration, seed);

    let policies = [
        ("afraid", ParityPolicy::IdleOnly),
        ("raid5", ParityPolicy::AlwaysRaid5),
    ];
    let mut cells: Vec<(String, String, ArrayConfig)> = Vec::new();
    for (pname, policy) in policies {
        for mode in MODES {
            let mut cfg = ArrayConfig::small_test(policy);
            cfg.scrub.enabled = true;
            apply_mode(&mut cfg, mode);
            cells.push((pname.to_string(), mode.to_string(), cfg));
        }
    }

    println!(
        "Integrity sweep: {} cells, {:.0}s Att trace, seed {seed}, jobs {}",
        cells.len(),
        duration.as_secs_f64(),
        args.jobs,
    );
    println!();
    let header = format!(
        "{:<7} {:<7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "policy",
        "mode",
        "injected",
        "detected",
        "repaired",
        "declared",
        "healed",
        "silent",
        "falsepos",
        "io ms"
    );
    println!("{header}");
    harness::rule(header.len());

    let t0 = Instant::now();
    let results = harness::run_variants(args.jobs, &cells, |(_, _, cfg)| {
        run_trace(cfg, &trace, &RunOptions::default())
    });

    let mut rows = Vec::new();
    let mut leaked = false;
    for ((pname, mode, _), result) in cells.iter().zip(results) {
        let i = result.metrics.integrity;
        // The sweep doubles as a gate: any verified cell serving a
        // corrupt word silently, or any cell crying wolf, fails it.
        if *mode != "blind" && i.silent_reads > 0 {
            eprintln!(
                "FAIL {pname}/{mode}: {} silent reads under verification",
                i.silent_reads
            );
            leaked = true;
        }
        if i.false_positives > 0 {
            eprintln!(
                "FAIL {pname}/{mode}: {} checksum false positives",
                i.false_positives
            );
            leaked = true;
        }
        println!(
            "{:<7} {:<7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8.2}",
            pname,
            mode,
            i.injected_total(),
            i.detected,
            i.repaired,
            i.declared,
            i.self_healed,
            i.silent_reads,
            i.false_positives,
            result.metrics.mean_io_ms,
        );
        rows.push(Row {
            policy: pname.clone(),
            mode: mode.clone(),
            integrity: i,
            injected_total: i.injected_total(),
            resolved_total: i.resolved_total(),
            mean_io_ms: result.metrics.mean_io_ms,
            repair_ios: result.metrics.io.corrupt_repair_write,
        });
    }
    println!();
    println!("{} cells in {:.2}s", rows.len(), t0.elapsed().as_secs_f64());

    let report = Report {
        duration_secs: duration.as_secs_f64(),
        seed,
        jobs: args.jobs,
        rows,
        note: "silent_reads counts corrupt words served undetected: zero in every \
               verify cell is the subsystem's acceptance bar, nonzero in the blind \
               cells is the priced exposure. Cells are pure functions of \
               (config, trace, seed): bit-identical at any --jobs."
            .to_string(),
    };
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_integrity_sweep.json"
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_integrity_sweep.json");
    println!("wrote {path}");
    if leaked {
        std::process::exit(1);
    }
}
