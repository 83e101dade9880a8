//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-grid|crash-cuts|fault-rebuild --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up (input generation) repeats for about a second and reports
//! its median. The timed phase then repeats whole passes over the
//! workload's ops, as many as fill about `--seconds` at the workload's
//! nominal pass cost; the count never depends on the clock, so the ops
//! attempted and failed repeat exactly for the same arguments.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half
//! the passes untraced and half traced, prints the per-layer metrics
//! and the tracing overhead, and writes the spans as Chrome trace-event
//! JSON under `e2ebench/out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use afraid_e2ebench::measure::{
    self, check_pass, digest, end_to_end, err_pct, mttdl_ratio, per_layer, table2_ratio, Metric,
    PAPER_TABLE2_SPEEDUP, PAPER_TABLE4_MTTDL_RATIO, TEXT_ONLY, UNVALIDATED,
};
use afraid_e2ebench::spans::{chrome_trace_json, self_times, Recorder};
use afraid_e2ebench::workloads::{repro, run_pass, setup, Pass, Prepared, Scale, Workload};

/// Set-up repeats at least this many times and for at least
/// [`SETUP_BUDGET_S`]; the median is `setup_s`.
const MIN_SETUP_REPS: usize = 5;
/// See [`MIN_SETUP_REPS`].
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn same_inputs(a: &Prepared, b: &Prepared) -> bool {
    a.traces.len() == b.traces.len()
        && a.traces
            .iter()
            .zip(&b.traces)
            .all(|(x, y)| x.records == y.records)
}

/// Runs `count` passes. Each pass is digested and checked as it ends;
/// every pass but the first then drops its outputs. `peak_rss` is read
/// once, after the first pass of the run: set-up and one pass hold
/// everything the workload needs, while the kept pass timings grow
/// with the pass count.
fn timed_passes(
    prep: &Prepared,
    jobs: usize,
    rec: &Recorder,
    count: usize,
    digests: &mut Vec<u64>,
    problems: &mut Vec<String>,
    peak_rss: &mut Option<f64>,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    for _ in 0..count {
        let mut pass = run_pass(prep, jobs, rec);
        digests.push(digest(&pass.ops));
        for p in check_pass(prep, &pass) {
            if !problems.contains(&p) {
                problems.push(p);
            }
        }
        if peak_rss.is_none() {
            *peak_rss = measure::peak_rss_mb();
        }
        if !passes.is_empty() {
            pass.strip();
        }
        passes.push(pass);
    }
    passes
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload paper-grid|crash-cuts|fault-rebuild --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = Scale::FULL;
    let mut problems: Vec<String> = Vec::new();

    // Set-up, several times; every repetition must rebuild the same
    // inputs from the seed. A traced run sets up once more, traced.
    let untraced = Recorder::new(false);
    let traced = Recorder::new(args.trace);
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut prep: Option<Prepared> = None;
    let budget = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS || budget.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        let p = setup(args.workload, scale, args.seed, jobs, &untraced);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(p.trace_gen_s);
        match &prep {
            None => prep = Some(p),
            Some(first) if !same_inputs(first, &p) => {
                problems.push(format!(
                    "set-up {} generated different traces",
                    setup_s.len()
                ));
            }
            Some(_) => {}
        }
    }
    if let (true, Some(first)) = (args.trace, &prep) {
        if !same_inputs(
            first,
            &setup(args.workload, scale, args.seed, jobs, &traced),
        ) {
            problems.push("traced set-up generated different traces".into());
        }
    }
    let Some(prep) = prep else {
        eprintln!("e2ebench: no set-up ran");
        return ExitCode::FAILURE;
    };

    // Timed phase. A traced run measures untraced passes first, for
    // the overhead and the digest comparison.
    let mut digests = Vec::new();
    let mut rss = None;
    let (untraced_passes, traced_passes) = if args.trace {
        let half = args.workload.passes_for(args.seconds / 2.0);
        let u = timed_passes(
            &prep,
            jobs,
            &untraced,
            half,
            &mut digests,
            &mut problems,
            &mut rss,
        );
        let t = timed_passes(
            &prep,
            jobs,
            &traced,
            half,
            &mut digests,
            &mut problems,
            &mut rss,
        );
        (u, t)
    } else {
        let u = timed_passes(
            &prep,
            jobs,
            &untraced,
            args.workload.passes_for(args.seconds),
            &mut digests,
            &mut problems,
            &mut rss,
        );
        (u, Vec::new())
    };

    // In a traced run this also compares traced with untraced passes.
    let reference = digests[0];
    if let Some(i) = digests.iter().position(|&d| d != reference) {
        problems.push(format!("pass {i} output digest differs from pass 0"));
    }
    let all: Vec<&Pass> = untraced_passes.iter().chain(&traced_passes).collect();
    let attempted: usize = all.iter().map(|p| p.ops.len()).sum();
    let failed: usize = all
        .iter()
        .map(|p| p.ops.iter().filter(|o| o.failure.is_some()).count())
        .sum();

    let w = prep.workload.name();
    println!(
        "workload {w}: seed {}, {} ops per pass, {} passes ({} untraced, {} traced), {} workers \
         of {jobs} cores; output digest {reference:016x}",
        args.seed,
        prep.ops(),
        all.len(),
        untraced_passes.len(),
        traced_passes.len(),
        prep.workers(jobs)
    );
    println!("ops attempted {attempted}, failed {failed}");
    let walls: Vec<String> = all.iter().map(|p| format!("{:.4}", p.wall_s())).collect();
    println!(
        "set-up: {} runs, median {:.4} s; pass wall s: {}",
        setup_s.len(),
        measure::median(&setup_s),
        walls.join(" ")
    );
    for op in all[0].ops.iter().filter(|o| o.failure.is_some()) {
        if let Some(f) = &op.failure {
            println!(
                "FAILED {} defect {}: {} at {}\n  repro: {}",
                op.label,
                f.known_defect().unwrap_or("unknown"),
                f.message,
                f.location,
                repro(&prep, op)
            );
        }
    }

    let first = &all[0];
    for (label, ratio, paper) in [
        (
            "table2_err_pct",
            table2_ratio(&prep, first),
            PAPER_TABLE2_SPEEDUP,
        ),
        (
            "mttdl_err_pct",
            mttdl_ratio(&prep, first),
            PAPER_TABLE4_MTTDL_RATIO,
        ),
    ] {
        match (prep.workload, ratio) {
            (Workload::PaperGrid, Some(r)) => println!(
                "{label} = {} % (simulated {r:.3}x vs paper {paper}x; {UNVALIDATED})",
                err_pct(r, paper)
            ),
            _ => println!("{label}: n/a on {w} (reported on paper-grid only)"),
        }
    }

    let metrics: Vec<Metric> = if args.trace {
        let med = |ps: &[Pass]| measure::median(&ps.iter().map(Pass::wall_s).collect::<Vec<_>>());
        let overhead = med(&traced_passes) - med(&untraced_passes);
        let spans = traced.spans();
        // The timed phase follows set-up on the same clock.
        let phase_start = traced_passes[0].start_ns;
        let pass_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.start_ns >= phase_start)
            .cloned()
            .collect();
        println!("self time per traced pass (layer.function: calls, total s, self s):");
        for (name, t) in self_times(&pass_spans) {
            let n = traced_passes.len() as f64;
            println!(
                "  {name:<22} {:>8.1} {:>10.4} {:>10.4}",
                t.calls as f64 / n,
                t.total_s / n,
                t.self_s / n
            );
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{w}-seed{}.trace.json", args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(&spans)))
        {
            Ok(()) => println!("spans: {} written to {path}", spans.len()),
            Err(e) => problems.push(format!("writing {path}: {e}")),
        }
        per_layer(&prep, &gen_s, &traced_passes, &pass_spans, overhead)
    } else {
        let rss = rss.unwrap_or_else(|| {
            problems.push("peak RSS unavailable (no /proc/self/status)".into());
            0.0
        });
        end_to_end(&prep, measure::median(&setup_s), &untraced_passes, rss)
    };

    for m in &metrics {
        let text_only = TEXT_ONLY.contains(&m.name.as_str());
        let note = if text_only { " (text only)" } else { "" };
        println!("{w} {} = {} {}{note}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !TEXT_ONLY.contains(&m.name.as_str()))
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
