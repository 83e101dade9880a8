//! The benchmark's three workloads: what each sets up from the seed,
//! and how one op of each calls into the library.
//!
//! An op is one simulation cell (trace × policy) or one chaos cut. Each
//! op runs under [`guarded`], so a panic fails that op alone and is
//! reported with a repro instead of aborting the run.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

use afraid::config::ArrayConfig;
use afraid::driver::{run_to_cut, run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::recovery::replay;
use afraid::report::availability;
use afraid_avail::report::AvailabilityReport;
use afraid_bench::harness::{policy_sweep, TRACE_CAPACITY};
use afraid_chaos::{judge, ChaosSpec, CutVerdict, Scenario};
use afraid_exp::{cell_rng, cell_seed, map_parallel, run_matrix};
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{ReqKind, Trace};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use crate::spans::{worker_id, Recorder};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All ten trace presets × the ten-policy sweep: the Fig. 3 /
    /// Table 2 grid, on the pool.
    PaperGrid,
    /// All six chaos scenarios × many cuts, on the pool.
    CrashCuts,
    /// Busy write-heavy traces × {AFRAID, RAID 5} with every fault
    /// class live, on one worker.
    FaultRebuild,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::CrashCuts,
        Workload::FaultRebuild,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::CrashCuts => "crash-cuts",
            Workload::FaultRebuild => "fault-rebuild",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one pass is taken to cost, in wall seconds: a little over
    /// the median pass measured on a 2-vCPU VM.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::PaperGrid => 1.1,
            Workload::CrashCuts => 0.45,
            Workload::FaultRebuild => 2.2,
        }
    }

    /// The passes that fill about `seconds` at [`Self::nominal_pass_s`],
    /// at least one. The count depends on the arguments alone, never on
    /// the clock, so two runs with the same arguments attempt (and fail)
    /// exactly the same ops.
    pub fn passes_for(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures; tests
/// use smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Simulated seconds per paper-grid trace.
    pub grid_secs: u64,
    /// How many of the ten trace presets the grid uses.
    pub grid_traces: usize,
    /// Simulated seconds per chaos scenario trace.
    pub chaos_secs: u64,
    /// Cuts per chaos scenario.
    pub cuts_per_scenario: usize,
    /// Simulated seconds per fault-rebuild trace. The disk fails and
    /// the tour period ends at half of it.
    pub fault_secs: u64,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        grid_secs: 600,
        grid_traces: 10,
        chaos_secs: 5,
        cuts_per_scenario: 171,
        fault_secs: 1800,
    };
}

/// The workload seed of the six chaos scenario traces: the chaos
/// sweep's default. Crash-cuts replays those traces at a seeded
/// [`phase`], and the benchmark seed also picks where they are cut.
/// Seeding the 5 s traces instead swung each pass's work by tens of
/// percent, and left some scenarios with no requests at all.
pub const CHAOS_TRACE_SEED: u64 = 42;

/// How far the seed delays a fixed trace: up to 20 ms, about two disk
/// revolutions. Every request then meets the platters at another
/// rotational position, so simulated response times vary from seed to
/// seed while the work (requests, events) stays nearly the same.
pub fn phase(seed: u64) -> SimDuration {
    SimDuration::from_secs_f64((cell_seed(seed, 0, 3) % 20_000) as f64 * 1e-6)
}

/// `trace` with every arrival delayed by `by`.
pub fn delayed(mut trace: Trace, by: SimDuration) -> Trace {
    for r in &mut trace.records {
        r.time = r.time.saturating_add(by);
    }
    trace
}

/// `n` cuts in `[0, total)`, one drawn uniformly from each of `n` equal
/// strata, so every seed spreads its cuts over the whole run and
/// replays about the same number of prefix events.
pub fn stratified_cuts(total: u64, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let n = n as u64;
    let mut cuts: Vec<u64> = (0..n)
        .map(|i| {
            let (lo, hi) = (total * i / n, total * (i + 1) / n);
            lo + rng.next_u64() % (hi - lo).max(1)
        })
        .collect();
    cuts.dedup();
    cuts
}

/// The trace seed of fault-rebuild: `afraid-cli`'s default, so each
/// cell runs its CLI command's trace, delayed by the seeded [`phase`].
/// Seeding the traces or the fault draws instead changed which cells
/// hit the known defects, and swung the AFRAID p99 by up to a fifth.
pub const FAULT_TRACE_SEED: u64 = 42;

/// The fault-rebuild traces: the busiest write-heavy presets, where
/// background sweeps compete hardest with foreground I/O.
pub const FAULT_TRACES: [WorkloadKind; 4] = [
    WorkloadKind::Att,
    WorkloadKind::Netware,
    WorkloadKind::CelloNews,
    WorkloadKind::As400_1,
];

/// The fault-rebuild policies, with their `afraid-cli --policy` names.
pub const FAULT_POLICIES: [(&str, ParityPolicy); 2] = [
    ("afraid", ParityPolicy::IdleOnly),
    ("raid5", ParityPolicy::AlwaysRaid5),
];

/// Transient media-error and timeout rates per I/O attempt.
const FAULT_TRANSIENT: (f64, f64) = (0.001, 0.0005);
/// Per-I/O rate of each silent-corruption class.
const FAULT_CORRUPT: f64 = 0.0005;
/// Latent sector errors per disk-hour.
const FAULT_LATENT: f64 = 0.01;
/// Tour-scrub I/O budget, I/Os per second.
const FAULT_SCRUB_IOPS: f64 = 400.0;
/// The disk that fails mid-run.
const FAULT_DISK: u32 = 2;
/// Spare install delay after the failure, seconds.
const FAULT_SPARE_SECS: u64 = 60;

/// The fault-rebuild array: the paper's array with transient faults,
/// silent corruption under verify-on-read, latent errors and a tour
/// scrub — what `afraid-cli run --transient .. --corrupt ..
/// --verify-reads --latent .. --scrub .. --tour ..` builds.
pub fn fault_config(policy: ParityPolicy, secs: u64) -> ArrayConfig {
    let mut cfg = ArrayConfig::paper_default(policy);
    cfg.faults.media_error_per_io = FAULT_TRANSIENT.0;
    cfg.faults.timeout_per_io = FAULT_TRANSIENT.1;
    let i = &mut cfg.integrity;
    i.bit_flip_per_read = FAULT_CORRUPT;
    i.torn_write_per_io = FAULT_CORRUPT;
    i.lost_write_per_io = FAULT_CORRUPT;
    i.misdirected_write_per_io = FAULT_CORRUPT;
    i.verify_reads = true;
    i.verify_scrub = true;
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = FAULT_SCRUB_IOPS;
    cfg.scrub.latent_rate_per_disk_hour = FAULT_LATENT;
    cfg.scrub.tour_period = SimDuration::from_secs(secs / 2);
    // Checksums are kept against the intended contents.
    cfg.shadow = true;
    cfg
}

/// The fault-rebuild run options: disk 2 fails at mid-run, the array
/// keeps serving degraded, and a spare arrives a minute later.
pub fn fault_options(secs: u64) -> RunOptions {
    RunOptions {
        fail_disk: Some((FAULT_DISK, SimTime::from_secs_f64((secs / 2) as f64))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(FAULT_SPARE_SECS)),
        ..RunOptions::default()
    }
}

/// The trace capacity `afraid-cli run` uses for `cfg` (90% of the
/// usable space), so a fault-rebuild cell is exactly its CLI repro.
pub fn cli_capacity(cfg: &ArrayConfig) -> u64 {
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10
}

/// The `afraid-cli` command that runs one fault-rebuild cell at phase
/// 0.
pub fn fault_cli(kind: WorkloadKind, policy: &str, secs: u64) -> String {
    format!(
        "afraid-cli run --workload {} --secs {secs} --seed {FAULT_TRACE_SEED} --policy {policy} \
         --transient {}:{} --corrupt {FAULT_CORRUPT} --verify-reads --latent {FAULT_LATENT} \
         --scrub {FAULT_SCRUB_IOPS} --tour {} --fail-disk {FAULT_DISK}@{} --degraded \
         --spare {FAULT_SPARE_SECS}",
        kind.name(),
        FAULT_TRANSIENT.0,
        FAULT_TRANSIENT.1,
        secs / 2,
        secs / 2,
    )
}

/// What a workload's ops run against, built from the seed.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed every input was generated from.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// One trace per row (grid, fault) or per scenario (crash).
    pub traces: Vec<Arc<Trace>>,
    /// Write requests in each trace.
    pub writes: Vec<u64>,
    /// Stripe units the writes of each trace touch (the Fig. 1 unit
    /// of a small write).
    pub unit_writes: Vec<u64>,
    /// Summed trace-generation time, seconds.
    pub trace_gen_s: f64,
    /// The ops.
    pub plan: Plan,
}

/// The op list of one workload.
pub enum Plan {
    /// Every (trace, policy) cell, through `afraid_exp::run_matrix`.
    Grid {
        /// The ten-policy sweep.
        policies: Vec<(String, ParityPolicy)>,
    },
    /// Every (scenario, cut), through `afraid_exp::map_parallel`.
    Crash {
        /// One spec per scenario, aligned with `traces`.
        specs: Vec<ChaosSpec>,
        /// Each scenario's uncut run, which fixed its cut range.
        full: Vec<RunResult>,
        /// (scenario index, cut).
        cuts: Vec<(usize, u64)>,
    },
    /// Every (trace, policy) cell, one after another.
    Fault,
}

impl Prepared {
    /// Number of ops in one pass.
    pub fn ops(&self) -> usize {
        match &self.plan {
            Plan::Grid { policies } => self.traces.len() * policies.len(),
            Plan::Crash { cuts, .. } => cuts.len(),
            Plan::Fault => self.traces.len() * FAULT_POLICIES.len(),
        }
    }

    /// Workers the timed phase uses.
    pub fn workers(&self, jobs: usize) -> usize {
        match self.plan {
            Plan::Fault => 1,
            _ => jobs.max(1).min(self.ops().max(1)),
        }
    }
}

fn count_writes(trace: &Trace) -> u64 {
    trace
        .records
        .iter()
        .filter(|r| r.kind == ReqKind::Write)
        .count() as u64
}

/// Stripe units of `unit` bytes that the trace's writes touch.
fn count_unit_writes(trace: &Trace, unit: u64) -> u64 {
    trace
        .records
        .iter()
        .filter(|r| r.kind == ReqKind::Write && r.bytes > 0)
        .map(|r| (r.offset + r.bytes - 1) / unit - r.offset / unit + 1)
        .sum()
}

/// Generates the workload's inputs from `seed`: its traces and, for
/// crash-cuts, each scenario's cut range (one uncut run per scenario).
pub fn setup(workload: Workload, scale: Scale, seed: u64, jobs: usize, rec: &Recorder) -> Prepared {
    let (prep, _) = rec.span("bench.setup", None, None, |parent| {
        let gen = |kind: WorkloadKind, cap: u64, secs: u64, trace_seed: u64| {
            rec.span("trace.generate", parent, None, |_| {
                WorkloadSpec::preset(kind).generate(cap, SimDuration::from_secs(secs), trace_seed)
            })
        };
        let (traces, plan, gen_s, unit): (Vec<Trace>, Plan, f64, u64) = match workload {
            Workload::PaperGrid => {
                let kinds = &WorkloadKind::all()[..scale.grid_traces];
                let made = map_parallel(jobs, kinds, |_, &k| {
                    gen(k, TRACE_CAPACITY, scale.grid_secs, seed)
                });
                let gen_s = made.iter().map(|(_, t)| t.secs()).sum();
                let traces = made.into_iter().map(|(t, _)| t).collect();
                let plan = Plan::Grid {
                    policies: policy_sweep(),
                };
                let unit = ArrayConfig::paper_default(ParityPolicy::IdleOnly).stripe_unit_bytes;
                (traces, plan, gen_s, unit)
            }
            Workload::CrashCuts => {
                let duration = SimDuration::from_secs(scale.chaos_secs);
                let specs: Vec<ChaosSpec> = Scenario::ALL
                    .iter()
                    .map(|sc| sc.spec(duration, CHAOS_TRACE_SEED))
                    .collect();
                let made = map_parallel(jobs, &specs, |_, spec| {
                    let (trace, t) = rec.span("trace.generate", parent, None, |_| {
                        delayed(spec.trace(), phase(seed))
                    });
                    let (full, _) = rec.span("driver.run_trace", parent, None, |_| {
                        run_trace(&spec.cfg, &trace, &spec.opts)
                    });
                    (trace, t.secs(), full)
                });
                let gen_s = made.iter().map(|(_, s, _)| s).sum();
                let mut cuts = Vec::new();
                for (i, (_, _, full)) in made.iter().enumerate() {
                    let total = full.metrics.events_processed;
                    let mut rng = cell_rng(seed, i, 0);
                    cuts.extend(
                        stratified_cuts(total, scale.cuts_per_scenario, &mut rng)
                            .into_iter()
                            .map(|c| (i, c)),
                    );
                }
                let mut traces = Vec::new();
                let mut fulls = Vec::new();
                for (t, _, f) in made {
                    traces.push(t);
                    fulls.push(f);
                }
                let unit = specs[0].cfg.stripe_unit_bytes;
                let plan = Plan::Crash {
                    specs,
                    full: fulls,
                    cuts,
                };
                (traces, plan, gen_s, unit)
            }
            Workload::FaultRebuild => {
                let cfg = fault_config(ParityPolicy::IdleOnly, scale.fault_secs);
                let cap = cli_capacity(&cfg);
                let made: Vec<_> = FAULT_TRACES
                    .iter()
                    .map(|&k| {
                        let (t, secs) = gen(k, cap, scale.fault_secs, FAULT_TRACE_SEED);
                        (delayed(t, phase(seed)), secs)
                    })
                    .collect();
                let gen_s = made.iter().map(|(_, t)| t.secs()).sum();
                let traces = made.into_iter().map(|(t, _)| t).collect();
                (traces, Plan::Fault, gen_s, cfg.stripe_unit_bytes)
            }
        };
        Prepared {
            workload,
            seed,
            scale,
            writes: traces.iter().map(count_writes).collect(),
            unit_writes: traces.iter().map(|t| count_unit_writes(t, unit)).collect(),
            traces: traces.into_iter().map(Arc::new).collect(),
            trace_gen_s: gen_s,
            plan,
        }
    });
    prep
}

/// A panic caught inside one op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The panic message.
    pub message: String,
    /// `file:line` of the panic, when known.
    pub location: String,
}

impl Failure {
    /// Which known defect this is, if any.
    pub fn known_defect(&self) -> Option<&'static str> {
        if self.message.contains("clean but unit unrecoverable") {
            Some("(a) assess_loss: stripe clean but unit unrecoverable")
        } else if self
            .message
            .contains("unrepairable probability out of range")
        {
            Some("(b) corruption_exposure: declared/detected > 1 reaches mttdl_corrupt")
        } else {
            None
        }
    }
}

thread_local! {
    static IN_OP: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<Failure>> = const { RefCell::new(None) };
}

/// Installs the process panic hook that lets [`guarded`] capture an
/// op's panic message and location quietly. Panics outside an op still
/// reach the default hook.
fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_OP.with(Cell::get) {
                default(info);
                return;
            }
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            // Path dependencies compile with absolute file names; keep
            // the repository-relative part so repros read the same in
            // any checkout.
            let location = info
                .location()
                .map(|l| {
                    let file = l.file();
                    let rel = file.find("crates/").map_or(file, |i| &file[i..]);
                    format!("{rel}:{}", l.line())
                })
                .unwrap_or_default();
            LAST_PANIC.with(|p| *p.borrow_mut() = Some(Failure { message, location }));
        }));
    });
}

/// Runs `f`, turning a panic into a [`Failure`] for this op alone.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, Failure> {
    install_panic_hook();
    IN_OP.with(|c| c.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    IN_OP.with(|c| c.set(false));
    r.map_err(|_| {
        LAST_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or_else(|| Failure {
                message: "panic without a message".to_string(),
                location: String::new(),
            })
    })
}

/// Wall seconds one op spent in each layer it called.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSecs {
    /// `driver::run_trace`, when it returned.
    pub run_trace: f64,
    /// `report::availability`, when it returned.
    pub report: f64,
    /// `driver::run_to_cut`.
    pub run_to_cut: f64,
    /// `recovery::replay`.
    pub replay: f64,
    /// `verdict::judge`.
    pub judge: f64,
}

/// The outcome of one op.
#[derive(Clone, Debug)]
pub struct OpOut {
    /// Position in the pass's op list.
    pub op: usize,
    /// `trace/policy` or `scenario@cut`.
    pub label: String,
    /// Row (trace or scenario) index.
    pub row: usize,
    /// Policy name for cells.
    pub policy: Option<String>,
    /// The thread that ran it.
    pub worker: u32,
    /// Start and end, recorder nanoseconds.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// `run_trace`'s result, when it returned.
    pub run: Option<Box<RunResult>>,
    /// The availability report, when it returned.
    pub avail: Option<Box<AvailabilityReport>>,
    /// The crash verdict, for cuts.
    pub verdict: Option<Box<CutVerdict>>,
    /// The panic that failed this op.
    pub failure: Option<Failure>,
    /// Per-layer wall time.
    pub secs: LayerSecs,
    /// Simulated events: the run's, when `run_trace` returned, or the
    /// replayed prefix, for a cut.
    pub events: u64,
}

impl OpOut {
    fn new(op: usize, label: String, row: usize, policy: Option<String>) -> OpOut {
        OpOut {
            op,
            label,
            row,
            policy,
            worker: worker_id(),
            start_ns: 0,
            end_ns: 0,
            run: None,
            avail: None,
            verdict: None,
            failure: None,
            secs: LayerSecs::default(),
            events: 0,
        }
    }
}

/// One cell: `run_trace`, then `report::availability` on its metrics.
fn cell_op(
    rec: &Recorder,
    pass: Option<u64>,
    mut out: OpOut,
    cfg: &ArrayConfig,
    trace: &Trace,
    opts: &RunOptions,
) -> OpOut {
    let op = Some(out.op as u64);
    let ((), t) = rec.span("bench.op", pass, op, |parent| {
        // The span wraps the guard so a run that panics is still
        // timed under the driver, not the benchmark.
        let (run, t) = rec.span("driver.run_trace", parent, op, |_| {
            guarded(|| run_trace(cfg, trace, opts))
        });
        match run {
            Ok(run) => {
                out.secs.run_trace = t.secs();
                let (avail, t) = rec.span("report.availability", parent, op, |_| {
                    guarded(|| availability(cfg, &run.metrics))
                });
                out.secs.report = t.secs();
                match avail {
                    Ok(avail) => out.avail = Some(Box::new(avail)),
                    Err(f) => out.failure = Some(f),
                }
                out.events = run.metrics.events_processed;
                out.run = Some(Box::new(run));
            }
            Err(f) => out.failure = Some(f),
        }
    });
    out.start_ns = t.start_ns;
    out.end_ns = t.end_ns;
    out
}

/// Composes one crash cut the way `ChaosSpec::run_cut` does — run to
/// the cut, apply the crash-time kills, recover, judge — timing each
/// layer on the way.
pub fn cut_verdict(
    rec: &Recorder,
    parent: Option<u64>,
    op: Option<u64>,
    spec: &ChaosSpec,
    trace: &Trace,
    cut: u64,
    secs: &mut LayerSecs,
) -> CutVerdict {
    let (mut run, t) = rec.span("driver.run_to_cut", parent, op, |_| {
        run_to_cut(&spec.cfg, trace, &spec.opts, cut)
    });
    secs.run_to_cut = t.secs();
    if let Some(disk) = spec.kill_disk_at_cut {
        // A disk that already died in-run makes a second kill an
        // array loss, outside the recovery model (as in run_cut).
        if run.image.failed_disk.is_none() {
            run.image.kill_disk(disk);
        }
    }
    if spec.kill_nvram_at_cut {
        run.image.kill_nvram();
    }
    let (outcome, t) = rec.span("recovery.replay", parent, op, |_| replay(&run.image));
    secs.replay = t.secs();
    let (verdict, t) = rec.span("verdict.judge", parent, op, |_| {
        judge(cut, &run.image, &outcome, run.loss.as_ref())
    });
    secs.judge = t.secs();
    verdict
}

/// One timed pass over every op of a workload.
pub struct Pass {
    /// Pass start and end, recorder nanoseconds.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Workers the pass ran on.
    pub workers: usize,
    /// Every op's outcome, in op order.
    pub ops: Vec<OpOut>,
}

impl Pass {
    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Drops every op's outputs, keeping timings, event counts and
    /// failures, so memory grows little with the number of passes.
    pub fn strip(&mut self) {
        for op in &mut self.ops {
            op.run = None;
            op.avail = None;
            op.verdict = None;
        }
    }
}

/// Runs every op of `prep` once.
pub fn run_pass(prep: &Prepared, jobs: usize, rec: &Recorder) -> Pass {
    let workers = prep.workers(jobs);
    let (ops, t) = rec.span("pool.pass", None, None, |pass| match &prep.plan {
        Plan::Grid { policies } => run_matrix(
            workers,
            &prep.traces,
            policies,
            |trace, (name, policy), key| {
                let op = key.trace * policies.len() + key.policy;
                let label = format!("{}/{name}", trace.name);
                let out = OpOut::new(op, label, key.trace, Some(name.clone()));
                let cfg = ArrayConfig::paper_default(*policy);
                cell_op(rec, pass, out, &cfg, trace, &RunOptions::default())
            },
        )
        .into_iter()
        .flatten()
        .collect(),
        Plan::Crash { specs, cuts, .. } => map_parallel(workers, cuts, |op, &(row, cut)| {
            let spec = &specs[row];
            let mut out = OpOut::new(op, format!("{}@{cut}", spec.scenario.name()), row, None);
            let ((), t) = rec.span("bench.op", pass, Some(op as u64), |parent| {
                let mut secs = LayerSecs::default();
                let r = guarded(|| {
                    cut_verdict(
                        rec,
                        parent,
                        Some(op as u64),
                        spec,
                        &prep.traces[row],
                        cut,
                        &mut secs,
                    )
                });
                out.secs = secs;
                match r {
                    Ok(v) => {
                        out.events = v.events_at_cut;
                        out.verdict = Some(Box::new(v));
                    }
                    Err(f) => out.failure = Some(f),
                }
            });
            out.start_ns = t.start_ns;
            out.end_ns = t.end_ns;
            out
        }),
        Plan::Fault => {
            let mut ops = Vec::new();
            for (row, trace) in prep.traces.iter().enumerate() {
                for (name, policy) in FAULT_POLICIES {
                    let label = format!("{}/{name}", trace.name);
                    let out = OpOut::new(ops.len(), label, row, Some(name.to_string()));
                    let cfg = fault_config(policy, prep.scale.fault_secs);
                    let opts = fault_options(prep.scale.fault_secs);
                    ops.push(cell_op(rec, pass, out, &cfg, trace, &opts));
                }
            }
            ops
        }
    });
    Pass {
        start_ns: t.start_ns,
        end_ns: t.end_ns,
        workers,
        ops,
    }
}

/// A one-line repro for a failed op: the benchmark command that reruns
/// it exactly, plus the nearest library or CLI call for the op alone.
pub fn repro(prep: &Prepared, op: &OpOut) -> String {
    let base = format!(
        "e2ebench --workload {} --seed {} --seconds 1 --trace 0 (op {})",
        prep.workload.name(),
        prep.seed,
        op.label
    );
    let policy = op.policy.as_deref().unwrap_or("");
    match prep.workload {
        Workload::FaultRebuild => format!(
            "{base}; the same cell at phase 0: {}",
            fault_cli(FAULT_TRACES[op.row], policy, prep.scale.fault_secs)
        ),
        Workload::CrashCuts => {
            let (scenario, cut) = op.label.split_once('@').unwrap_or((&op.label, "?"));
            format!(
                "{base}; Scenario::parse({scenario:?}).spec({} s, seed {CHAOS_TRACE_SEED}), \
                 trace delayed by {} s, .run_cut(trace, {cut})",
                prep.scale.chaos_secs,
                phase(prep.seed).as_secs_f64(),
            )
        }
        Workload::PaperGrid => format!(
            "{base}; harness::run_cell(trace {} at {} s seed {}, {policy})",
            prep.traces[op.row].name, prep.scale.grid_secs, prep.seed
        ),
    }
}
