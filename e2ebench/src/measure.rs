//! Turning passes into metrics, correctness checks and a digest.

use std::collections::BTreeMap;

use afraid::driver::RunResult;
use afraid_avail::mttdl::{combine, mttdl_raid5_catastrophic};
use afraid_avail::params::ModelParams;
use afraid_avail::report::AvailabilityReport;
use afraid_bench::harness::policy_sweep;
use afraid_sim::stats::geometric_mean;
use afraid_sim::time::SimTime;

use crate::spans::{self_times, Span};
use crate::workloads::{fault_options, OpOut, Pass, Plan, Prepared, Workload};

/// Paper, Table 2: AFRAID's mean I/O time is 4.1× better than RAID 5's
/// (geometric mean over the workloads).
pub const PAPER_TABLE2_SPEEDUP: f64 = 4.1;
/// Paper, Table 4: AFRAID's overall MTTDL is 1.8× worse than RAID 5's
/// (geometric mean over the workloads).
pub const PAPER_TABLE4_MTTDL_RATIO: f64 = 1.8;

/// The caveat printed next to every `*_err_pct`.
pub const UNVALIDATED: &str = "the simulator is checked only against the paper's published \
     numbers, never against real disks";

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over the serialized outputs of every op, in op order: each
/// `RunResult`, `AvailabilityReport`, `CutVerdict` and failure message.
pub fn digest(ops: &[OpOut]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for op in ops {
        feed(op.label.as_bytes());
        if let Some(r) = op.run.as_deref() {
            feed(serde_json::to_string(r).unwrap_or_default().as_bytes());
        }
        if let Some(a) = op.avail.as_deref() {
            feed(serde_json::to_string(a).unwrap_or_default().as_bytes());
        }
        if let Some(v) = op.verdict.as_deref() {
            feed(serde_json::to_string(v).unwrap_or_default().as_bytes());
        }
        if let Some(f) = &op.failure {
            feed(f.message.as_bytes());
            feed(f.location.as_bytes());
        }
    }
    h
}

/// A simulated run this workload produced, with its coordinates.
struct RunRef<'a> {
    row: usize,
    policy: &'a str,
    run: &'a RunResult,
    avail: Option<&'a AvailabilityReport>,
}

impl RunRef<'_> {
    /// Parity-deferring designs: AFRAID and the MTTDL_x family.
    fn deferring(&self) -> bool {
        self.policy != "raid5" && self.policy != "raid0"
    }
}

/// The runs behind the `sim_*` and controller metrics: the timed
/// cells for the grid and fault workloads, the uncut scenario runs for
/// crash-cuts.
fn runs<'a>(prep: &'a Prepared, pass: &'a Pass) -> Vec<RunRef<'a>> {
    match &prep.plan {
        Plan::Crash { full, .. } => full
            .iter()
            .enumerate()
            .map(|(row, run)| RunRef {
                row,
                policy: "afraid",
                run,
                avail: None,
            })
            .collect(),
        _ => pass
            .ops
            .iter()
            .filter_map(|op| {
                Some(RunRef {
                    row: op.row,
                    policy: op.policy.as_deref()?,
                    run: op.run.as_deref()?,
                    avail: op.avail.as_deref(),
                })
            })
            .collect(),
    }
}

/// The runs the `sim_*` metrics aggregate: every cell of the grid,
/// every uncut scenario run, and fault-rebuild's AFRAID cells.
fn sim_runs<'a>(prep: &'a Prepared, pass: &'a Pass) -> Vec<RunRef<'a>> {
    let mut v = runs(prep, pass);
    if prep.workload == Workload::FaultRebuild {
        v.retain(|r| r.policy == "afraid");
    }
    v
}

/// Simulated events per host second in one pass. Crash-cuts counts
/// replayed prefix events over the pass wall; fault-rebuild counts only
/// the runs whose `run_trace` returned, over their own time.
fn events_per_s(prep: &Prepared, pass: &Pass) -> f64 {
    let events: u64 = pass.ops.iter().map(|o| o.events).sum();
    let secs = match prep.workload {
        Workload::FaultRebuild => pass
            .ops
            .iter()
            .filter(|o| o.events > 0)
            .map(|o| o.secs.run_trace)
            .sum(),
        _ => pass.wall_s(),
    };
    ratio(events as f64, secs)
}

/// The simulated Table 2 ratio: geomean over traces of RAID 5 mean
/// I/O time / AFRAID mean I/O time. `None` unless both cells of some
/// trace returned.
pub fn table2_ratio(prep: &Prepared, pass: &Pass) -> Option<f64> {
    let rs = runs(prep, pass);
    let mut ratios = Vec::new();
    for row in 0..prep.traces.len() {
        let mean = |p: &str| {
            rs.iter()
                .find(|r| r.row == row && r.policy == p)
                .map(|r| r.run.metrics.mean_io_ms)
        };
        if let (Some(r5), Some(af)) = (mean("raid5"), mean("afraid")) {
            ratios.push(r5 / af);
        }
    }
    (!ratios.is_empty()).then(|| geometric_mean(&ratios))
}

/// The simulated Table 4 ratio, computed as the `table4` binary does:
/// modelled RAID 5 overall MTTDL / geomean of AFRAID's overall MTTDL.
pub fn mttdl_ratio(prep: &Prepared, pass: &Pass) -> Option<f64> {
    let overall: Vec<f64> = runs(prep, pass)
        .iter()
        .filter(|r| r.policy == "afraid")
        .filter_map(|r| r.avail.map(|a| a.mttdl_overall))
        .collect();
    if overall.is_empty() {
        return None;
    }
    let p = ModelParams::default();
    let raid5 = combine(&[mttdl_raid5_catastrophic(&p, 4), p.mttdl_support]);
    Some(raid5 / geometric_mean(&overall))
}

/// |simulated − paper| / paper, in percent.
pub fn err_pct(sim: f64, paper: f64) -> f64 {
    (sim - paper).abs() / paper * 100.0
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_io_ms", "ms"),
    ("sim_p99_io_ms", "ms"),
    ("sim_frac_unprotected", "fraction"),
];

/// End-to-end metrics from the untraced passes.
pub fn end_to_end(prep: &Prepared, setup_s: f64, passes: &[Pass], rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let eps: Vec<f64> = passes.iter().map(|p| events_per_s(prep, p)).collect();
    let first = &passes[0];
    let sim = sim_runs(prep, first);
    let mean_io: Vec<f64> = sim.iter().map(|r| r.run.metrics.mean_io_ms).collect();
    let p99: Vec<f64> = sim.iter().map(|r| r.run.metrics.p99_io_ms).collect();
    let unprot: Vec<f64> = sim
        .iter()
        .filter(|r| r.deferring())
        .map(|r| r.run.metrics.frac_unprotected)
        .collect();
    let values = [
        setup_s,
        median(&walls),
        median(&eps),
        rss_mb,
        geometric_mean(&mean_io),
        geometric_mean(&p99),
        unprot.iter().sum::<f64>() / unprot.len().max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect()
}

/// Per-layer times that read 0 wherever their layer is idle (recovery
/// and verdict off crash-cuts, rebuild and retries off fault-rebuild).
/// They are printed as text but left out of the JSON result, whose
/// times must vary from run to run.
pub const TEXT_ONLY: [&str; 8] = [
    "cut.prefix_s",
    "recovery.replay_s",
    "verdict.judge_s",
    "rebuild.sim_s",
    "retry.p99_ms",
    "self.report_s",
    "self.recovery_s",
    "self.verdict_s",
];

/// The per-layer metrics of the JSON result, in `BENCHMARK.json`
/// order, with units.
pub fn json_per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = per_layer_names();
    v.retain(|(n, _)| !TEXT_ONLY.contains(&n.as_str()));
    v
}

/// Every per-layer metric, with units.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("trace.gen_s", "s"),
        ("trace.records", "count"),
        ("pool.util", "fraction"),
        ("pool.tail_s", "s"),
        ("driver.busy_s", "s"),
        ("driver.ns_per_event", "ns"),
        ("driver.events", "count"),
        ("driver.queue_peak", "count"),
        ("op.p50_ms", "ms"),
        ("op.p90_ms", "ms"),
        ("op.p99_ms", "ms"),
        ("ctrl.ios_per_request", "ios/request"),
        ("ctrl.read_cache_hit_frac", "fraction"),
        ("ctrl.host_queue_peak", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (policy, _) in policy_sweep() {
        v.push((format!("ctrl.fg_write_ios_per_write.{policy}"), "ios/write"));
    }
    v.extend(
        [
            ("scrub.stripes_per_batch", "stripes/batch"),
            ("scrub.ios", "count"),
            ("scrub.mean_lag_kb", "KB"),
            ("tour.sectors_read", "count"),
            ("rebuild.ios", "count"),
            ("rebuild.sim_s", "s"),
            ("retry.retries", "count"),
            ("retry.p99_ms", "ms"),
            ("integrity.units_verified", "count"),
            ("integrity.detected", "count"),
            ("integrity.declared", "count"),
            ("integrity.silent_reads", "count"),
            ("cut.prefix_s", "s"),
            ("cut.prefix_events", "count"),
            ("recovery.replay_s", "s"),
            ("recovery.reconstructed", "count"),
            ("recovery.scrubbed", "count"),
            ("recovery.spurious_marks", "count"),
            ("verdict.judge_s", "s"),
            ("self.driver_s", "s"),
            ("self.report_s", "s"),
            ("self.recovery_s", "s"),
            ("self.verdict_s", "s"),
            ("self.bench_s", "s"),
            ("trace.overhead_s", "s"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// When the spare for `row`'s injected failure was installed, if the
/// run had one.
fn spare_installed_at(prep: &Prepared, row: usize) -> Option<SimTime> {
    let opts = match &prep.plan {
        Plan::Crash { specs, .. } => specs[row].opts.clone(),
        Plan::Fault => fault_options(prep.scale.fault_secs),
        Plan::Grid { .. } => return None,
    };
    let (_, at) = opts.fail_disk?;
    Some(at + opts.spare_delay?)
}

/// Per-layer metrics from the traced passes. `gen_s` holds each
/// set-up's trace-generation time; `overhead_s` is traced minus
/// untraced median pass wall.
pub fn per_layer(
    prep: &Prepared,
    gen_s: &[f64],
    passes: &[Pass],
    spans: &[Span],
    overhead_s: f64,
) -> Vec<Metric> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let first = &passes[0];
    let rs = runs(prep, first);
    let sum_u = |f: &dyn Fn(&RunRef) -> u64| rs.iter().map(f).sum::<u64>() as f64;

    m.insert("trace.gen_s".into(), median(gen_s));
    m.insert(
        "trace.records".into(),
        prep.traces.iter().map(|t| t.len()).sum::<usize>() as f64,
    );

    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    m.insert(
        "pool.util".into(),
        med(&|p| {
            let busy: u64 = p.ops.iter().map(|o| o.end_ns - o.start_ns).sum();
            busy as f64 * 1e-9 / (p.wall_s() * p.workers as f64)
        }),
    );
    m.insert(
        "pool.tail_s".into(),
        med(&|p| {
            let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
            for o in &p.ops {
                let e = last_end.entry(o.worker).or_insert(0);
                *e = (*e).max(o.end_ns);
            }
            let first_idle = last_end.values().copied().min().unwrap_or(p.end_ns);
            p.end_ns.saturating_sub(first_idle) as f64 * 1e-9
        }),
    );

    // The driver layer is `run_trace` on the cell workloads and
    // `run_to_cut` on crash-cuts; `events` counts what it simulated.
    let busy = med(&|p| {
        p.ops
            .iter()
            .map(|o| o.secs.run_trace + o.secs.run_to_cut)
            .sum()
    });
    let events: u64 = first.ops.iter().map(|o| o.events).sum();
    m.insert("driver.busy_s".into(), busy);
    m.insert(
        "driver.ns_per_event".into(),
        ratio(busy * 1e9, events as f64),
    );
    m.insert("driver.events".into(), events as f64);
    m.insert(
        "driver.queue_peak".into(),
        first
            .ops
            .iter()
            .filter_map(|o| o.run.as_deref())
            .map(|r| r.metrics.event_queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );

    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| (o.end_ns - o.start_ns) as f64 * 1e-6))
        .collect();
    m.insert("op.p50_ms".into(), percentile(&op_ms, 0.50));
    m.insert("op.p90_ms".into(), percentile(&op_ms, 0.90));
    m.insert("op.p99_ms".into(), percentile(&op_ms, 0.99));

    let requests = sum_u(&|r| r.run.metrics.requests);
    let reads = sum_u(&|r| prep.traces[r.row].len() as u64 - prep.writes[r.row]);
    m.insert(
        "ctrl.ios_per_request".into(),
        ratio(sum_u(&|r| r.run.metrics.io.total()), requests),
    );
    m.insert(
        "ctrl.read_cache_hit_frac".into(),
        ratio(sum_u(&|r| r.run.metrics.read_cache_hits), reads),
    );
    m.insert(
        "ctrl.host_queue_peak".into(),
        rs.iter()
            .map(|r| r.run.metrics.host_queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    for (policy, _) in policy_sweep() {
        let of = |r: &&RunRef| r.policy == policy;
        let fg: u64 = rs
            .iter()
            .filter(of)
            .map(|r| r.run.metrics.io.foreground_write_ios())
            .sum();
        let writes: u64 = rs.iter().filter(of).map(|r| prep.unit_writes[r.row]).sum();
        m.insert(
            format!("ctrl.fg_write_ios_per_write.{policy}"),
            ratio(fg as f64, writes as f64),
        );
    }

    m.insert(
        "scrub.stripes_per_batch".into(),
        ratio(
            sum_u(&|r| r.run.metrics.stripes_scrubbed),
            sum_u(&|r| r.run.metrics.scrub_batches),
        ),
    );
    m.insert(
        "scrub.ios".into(),
        sum_u(&|r| r.run.metrics.io.scrub_read + r.run.metrics.io.scrub_write),
    );
    let lags: Vec<f64> = rs
        .iter()
        .filter(|r| r.deferring())
        .map(|r| r.run.metrics.mean_parity_lag_bytes / 1024.0)
        .collect();
    m.insert(
        "scrub.mean_lag_kb".into(),
        ratio(lags.iter().sum(), lags.len() as f64),
    );

    m.insert(
        "tour.sectors_read".into(),
        sum_u(&|r| r.run.metrics.tour_sectors_read),
    );
    m.insert(
        "rebuild.ios".into(),
        sum_u(&|r| r.run.metrics.io.rebuild_read + r.run.metrics.io.rebuild_write),
    );
    let rebuilds: Vec<f64> = rs
        .iter()
        .filter_map(|r| {
            let done = r.run.rebuilt_at?;
            let installed = spare_installed_at(prep, r.row)?;
            Some(done.saturating_since(installed).as_secs_f64())
        })
        .collect();
    m.insert(
        "rebuild.sim_s".into(),
        ratio(rebuilds.iter().sum(), rebuilds.len() as f64),
    );
    m.insert("retry.retries".into(), sum_u(&|r| r.run.metrics.retries));
    m.insert(
        "retry.p99_ms".into(),
        rs.iter()
            .map(|r| r.run.metrics.retry_p99_ms)
            .fold(0.0, f64::max),
    );
    m.insert(
        "integrity.units_verified".into(),
        sum_u(&|r| r.run.metrics.integrity.verified_units),
    );
    m.insert(
        "integrity.detected".into(),
        sum_u(&|r| r.run.metrics.integrity.detected),
    );
    m.insert(
        "integrity.declared".into(),
        sum_u(&|r| r.run.metrics.integrity.declared),
    );
    m.insert(
        "integrity.silent_reads".into(),
        sum_u(&|r| r.run.metrics.integrity.silent_reads),
    );

    let verdicts: Vec<_> = first
        .ops
        .iter()
        .filter_map(|o| o.verdict.as_deref())
        .collect();
    let sum_v = |f: &dyn Fn(&afraid_chaos::CutVerdict) -> u64| {
        verdicts.iter().map(|v| f(v)).sum::<u64>() as f64
    };
    m.insert(
        "cut.prefix_s".into(),
        med(&|p| p.ops.iter().map(|o| o.secs.run_to_cut).sum()),
    );
    m.insert("cut.prefix_events".into(), sum_v(&|v| v.events_at_cut));
    m.insert(
        "recovery.replay_s".into(),
        med(&|p| p.ops.iter().map(|o| o.secs.replay).sum()),
    );
    m.insert("recovery.reconstructed".into(), sum_v(&|v| v.reconstructed));
    m.insert("recovery.scrubbed".into(), sum_v(&|v| v.scrubbed));
    m.insert(
        "recovery.spurious_marks".into(),
        sum_v(&|v| v.spurious_marks),
    );
    m.insert(
        "verdict.judge_s".into(),
        med(&|p| p.ops.iter().map(|o| o.secs.judge).sum()),
    );

    // Self time per layer, per traced pass, from the spans of the
    // timed phase.
    let per_pass = passes.len().max(1) as f64;
    let selfs = self_times(spans);
    let layer_self = |layer: &str| {
        selfs
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_s)
            .sum::<f64>()
            / per_pass
            + 0.0
    };
    for layer in ["driver", "report", "recovery", "verdict", "bench"] {
        m.insert(format!("self.{layer}_s"), layer_self(layer));
    }
    m.insert("trace.overhead_s".into(), overhead_s);

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = m.get(&name).copied().unwrap_or(f64::NAN);
            Metric { name, unit, value }
        })
        .collect()
}

/// `num / den`, or 0 when nothing was counted. Adding 0.0 turns the
/// `-0.0` an empty float sum yields into `0`.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den + 0.0
    } else {
        0.0
    }
}

/// Correctness problems in one pass, one line each; empty when the
/// outputs are right. Failures that are known defects are counted as
/// failed ops, not as problems, on fault-rebuild only.
pub fn check_pass(prep: &Prepared, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    for op in &pass.ops {
        if let Some(f) = &op.failure {
            let known = prep.workload == Workload::FaultRebuild && f.known_defect().is_some();
            if !known {
                problems.push(format!(
                    "{}: unexpected failure at {}: {}",
                    op.label, f.location, f.message
                ));
            }
        }
        if let Some(r) = op.run.as_deref() {
            if r.metrics.requests != prep.traces[op.row].len() as u64 {
                problems.push(format!(
                    "{}: {} of {} requests completed",
                    op.label,
                    r.metrics.requests,
                    prep.traces[op.row].len()
                ));
            }
            let i = &r.metrics.integrity;
            if i.silent_reads != 0 || i.false_positives != 0 {
                problems.push(format!(
                    "{}: {} silent reads, {} checksum false positives under verify-on-read",
                    op.label, i.silent_reads, i.false_positives
                ));
            }
        }
        if let Some(v) = op.verdict.as_deref() {
            if !v.pass {
                problems.push(format!(
                    "{}: recovery verdict failed: {}",
                    op.label,
                    v.failure.as_deref().unwrap_or("?")
                ));
            }
        }
    }
    if prep.workload == Workload::PaperGrid {
        // Fig. 1 / Thomasian: a RAID 5 small write costs four disk
        // accesses in the foreground (read old data and parity, write
        // both); AFRAID writes only the data. Full-stripe and degraded
        // writes pull both averages, so the check is on the gap.
        let per_layer_fg = |policy: &str| {
            let rs = runs(prep, pass);
            let fg: u64 = rs
                .iter()
                .filter(|r| r.policy == policy)
                .map(|r| r.run.metrics.io.foreground_write_ios())
                .sum();
            let w: u64 = rs
                .iter()
                .filter(|r| r.policy == policy)
                .map(|r| prep.unit_writes[r.row])
                .sum();
            ratio(fg as f64, w as f64)
        };
        let (af, r5) = (per_layer_fg("afraid"), per_layer_fg("raid5"));
        if r5 < 2.0 * af {
            problems.push(format!(
                "foreground write I/Os per write: RAID 5 {r5:.3} is not well above AFRAID {af:.3}"
            ));
        }
        match table2_ratio(prep, pass) {
            Some(r) if r > 1.0 => {}
            other => problems.push(format!("AFRAID not faster than RAID 5: ratio {other:?}")),
        }
    }
    problems
}
