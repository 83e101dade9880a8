//! Byte-identity oracle for the background sweeps.
//!
//! Every cell below drives one background path of the controller —
//! the idle and the policy-forced parity scrub, parity points (some
//! landing on an in-flight tour batch), the post-NVRAM-failure full
//! sweep, the latent-error tour with repairs and its abandonment at a
//! disk failure, the degraded rebuild under transient faults (so
//! rebuild batches are redone and scrub stripes fail) and behind hot
//! stripes (so it stalls), the health-eviction drain, a disk failure
//! while the evicted disk's rebuild is in flight, and the
//! checksum-verifying scrub under silent corruption (which also
//! condemns a disk) — and pins a 64-bit FNV-1a digest of
//! its serialized [`RunResult`]. A second table pins the serialized
//! chaos verdicts of a few cuts per crash scenario.
//!
//! A refactor of the sweep machinery must leave every digest
//! unchanged. On a mismatch the test prints the full table of actual
//! digests next to the pinned ones.

use afraid::config::{ArrayConfig, FailSlowConfig};
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::nvram::MarkGranularity;
use afraid::policy::ParityPolicy;
use afraid_chaos::{cut_points, sweep, Scenario};
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind, Trace};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Capacity of the `small_test` array (2500 stripes x 4 x 8 KB).
const CAP: u64 = 2500 * 4 * 8192;

const SEED: u64 = 42;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn trace(kind: WorkloadKind, secs: u64) -> Trace {
    WorkloadSpec::preset(kind).generate(CAP, SimDuration::from_secs(secs), SEED)
}

fn idle_scrub() -> RunResult {
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 30), &RunOptions::default());
    assert!(r.metrics.scrub_batches > 0, "idle scrub never ran");
    r
}

/// Sub-stripe marks: scrub extents cover only the dirty row range.
fn row_marks_forced_scrub() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::MttdlTarget { target_hours: 3e6 });
    cfg.mark_granularity = MarkGranularity::rows(4);
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 30), &RunOptions::default());
    assert!(r.metrics.scrub_batches > 0, "forced scrub never ran");
    r
}

/// Whole-array parity points every 13 ms while the latent-error tour
/// runs: priority batches jump the sweep, and some start while a tour
/// batch is still in flight (the scrub/tour overlap).
fn parity_points_over_tour() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 400.0;
    cfg.scrub.latent_rate_per_disk_hour = 500.0;
    let opts = RunOptions {
        parity_points: (1..1500)
            .map(|i| (SimTime::from_millis(13 * i), 0, CAP))
            .collect(),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 30), &opts);
    assert!(r.metrics.parity_points > 0, "no parity point fired");
    assert!(r.metrics.latent_repaired > 0, "no latent repair exercised");
    r
}

fn nvram_sweep() -> RunResult {
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let opts = RunOptions {
        fail_nvram: Some(SimTime::from_secs(5)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 20), &opts);
    assert!(r.reprotected_at.is_some(), "full sweep never finished");
    r
}

fn latent_tour() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 400.0;
    cfg.scrub.tour_period = SimDuration::from_secs(300);
    cfg.scrub.latent_rate_per_disk_hour = 2000.0;
    let r = run_trace(
        &cfg,
        &trace(WorkloadKind::Hplajw, 120),
        &RunOptions::default(),
    );
    let m = &r.metrics;
    assert!(m.scrub_tours > 0, "no tour completed");
    assert!(m.latent_repaired > 0, "no latent repair exercised");
    r
}

/// A disk fails while a tour batch is in flight: the tour is
/// abandoned and its late completions are dropped.
fn tour_abandoned_at_failure() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::MttdlTarget { target_hours: 3e6 });
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 400.0;
    cfg.scrub.latent_rate_per_disk_hour = 500.0;
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_secs(40))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(3)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace(WorkloadKind::CelloNews, 60), &opts);
    assert!(r.rebuilt_at.is_some(), "spare rebuild never finished");
    r
}

/// Degraded operation and a spare rebuild with a tight retry budget:
/// exhausted rebuild I/Os redo their batch, exhausted scrub I/Os leave
/// their stripes marked.
fn degraded_rebuild_transient() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.media_error_per_io = 0.05;
    cfg.faults.timeout_per_io = 0.01;
    cfg.faults.max_retries = 1;
    cfg.faults.seed = 7;
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(15))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(2)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 30), &opts);
    assert!(r.rebuilt_at.is_some(), "spare rebuild never finished");
    assert!(r.metrics.io_exhausted > 0, "no retry budget exhausted");
    r
}

/// Writes hammer seven stripes while a spare is rebuilt: the rebuild
/// sweep stalls at each of them until the writes drain.
fn rebuild_stall() -> RunResult {
    let mut trace = Trace::new("hot", CAP);
    for i in 0..3000u64 {
        trace.push(IoRecord {
            time: SimTime::from_millis(i * 2),
            offset: ((i % 7) * 331 + 5) * 4 * 8192,
            bytes: 8192,
            kind: ReqKind::Write,
        });
    }
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let opts = RunOptions {
        fail_disk: Some((3, SimTime::from_millis(500))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_millis(200)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    assert!(r.rebuilt_at.is_some(), "spare rebuild never finished");
    r
}

/// A workload over a disk that turns fail-slow at 2 s; the health
/// scoreboard condemns it and drains the array towards its eviction.
fn fail_slow_cell() -> (ArrayConfig, Trace) {
    let mut trace = Trace::new("failslow", CAP);
    for i in 0..400u64 {
        trace.push(IoRecord {
            time: SimTime::from_millis(i * 75),
            offset: (i * 16 % 9_000) * 8192,
            bytes: 2 * 8192,
            kind: if i % 3 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            },
        });
    }
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.fail_slow = Some(FailSlowConfig {
        disk: 2,
        start: SimTime::from_secs(2),
        duration: SimDuration::from_secs(600),
        factor: 40.0,
    });
    cfg.faults.io_timeout = SimDuration::from_millis(100);
    cfg.faults.evict_threshold = 0.5;
    cfg.faults.health_alpha = 0.4;
    cfg.faults.evict_spare_delay = SimDuration::from_secs(2);
    (cfg, trace)
}

fn eviction_drain() -> RunResult {
    let (cfg, trace) = fail_slow_cell();
    let r = run_trace(&cfg, &trace, &RunOptions::default());
    assert!(r.evicted_at.is_some(), "no eviction");
    assert!(r.rebuilt_at.is_some(), "no post-eviction rebuild");
    r
}

/// A disk fails outright while the spare rebuild of an evicted disk
/// is in flight: the array goes degraded on the new disk, the rebuild
/// batch in flight is abandoned and its late completions are dropped,
/// and the next spare rebuilds the new disk from stripe 0.
fn eviction_then_failure() -> RunResult {
    let (cfg, trace) = fail_slow_cell();
    let fail_at = SimTime::from_secs(123);
    let opts = RunOptions {
        fail_disk: Some((0, fail_at)),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(2)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    assert!(
        r.evicted_at
            .is_some_and(|e| e + SimDuration::from_secs(2) < fail_at),
        "the eviction's rebuild had not started at the failure"
    );
    assert!(
        r.rebuilt_at.is_some_and(|t| t > fail_at),
        "the failed disk was never rebuilt"
    );
    r
}

fn verify_scrub_corrupt() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.bit_flip_per_read = 5e-3;
    cfg.integrity.torn_write_per_io = 3e-2;
    cfg.integrity.lost_write_per_io = 3e-2;
    cfg.integrity.misdirected_write_per_io = 2e-2;
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.scrub.enabled = true;
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 10), &RunOptions::default());
    let i = &r.metrics.integrity;
    assert!(i.detected > 0, "no corruption detected: {i:?}");
    assert!(i.declared > 0, "no declaration exercised: {i:?}");
    r
}

/// Scrub-time checksum mismatches trip the health scoreboard: the
/// settling scrub condemns a disk and starts the eviction drain.
fn scrub_verify_condemns_disk() -> RunResult {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.torn_write_per_io = 3e-2;
    cfg.integrity.lost_write_per_io = 3e-2;
    cfg.integrity.verify_scrub = true;
    cfg.faults.evict_threshold = 0.5;
    cfg.faults.health_alpha = 0.4;
    let r = run_trace(&cfg, &trace(WorkloadKind::Att, 10), &RunOptions::default());
    assert!(r.evicted_at.is_some(), "no eviction");
    r
}

/// A named run cell and its pinned digest.
type Cell = (&'static str, fn() -> RunResult, u64);

/// Pinned `RunResult` digests.
const RUN_DIGESTS: &[Cell] = &[
    ("idle_scrub", idle_scrub, 0xf3f2_b6c6_dc74_23f7),
    (
        "row_marks_forced_scrub",
        row_marks_forced_scrub,
        0x9dbb_2236_c5ac_8686,
    ),
    (
        "parity_points_over_tour",
        parity_points_over_tour,
        0x756a_4a73_bf59_07a2,
    ),
    ("nvram_sweep", nvram_sweep, 0xe285_5e11_03b4_e7fd),
    ("latent_tour", latent_tour, 0x5364_8d1a_4c10_4c8a),
    (
        "tour_abandoned_at_failure",
        tour_abandoned_at_failure,
        0x4d32_42db_0986_7afc,
    ),
    (
        "degraded_rebuild_transient",
        degraded_rebuild_transient,
        0x47e5_41d5_f06b_9cbc,
    ),
    ("rebuild_stall", rebuild_stall, 0x1a60_fe2b_68b3_7589),
    ("eviction_drain", eviction_drain, 0xc1ce_d21a_b88c_3419),
    (
        "eviction_then_failure",
        eviction_then_failure,
        0x4d56_2749_356a_3539,
    ),
    (
        "verify_scrub_corrupt",
        verify_scrub_corrupt,
        0xf9ff_4104_a290_0351,
    ),
    (
        "scrub_verify_condemns_disk",
        scrub_verify_condemns_disk,
        0x97ee_688e_ce1f_905c,
    ),
];

/// Pinned chaos-verdict digests, one per scenario (8 cuts of a 1 s
/// trace each).
const CHAOS_DIGESTS: &[(&str, u64)] = &[
    ("baseline", 0xa8d5_8fa7_3115_c3c9),
    ("scrub", 0xbbbf_f05d_5191_11cf),
    ("rebuild", 0x9c26_e319_16be_7b73),
    ("evict", 0xb205_da45_d1a6_3625),
    ("nvram", 0xf77f_aabb_d173_272e),
    ("corrupt", 0xed8b_cb84_aad7_1502),
];

fn check(table: &[(String, u64, u64)]) {
    let bad: Vec<_> = table.iter().filter(|(_, want, got)| want != got).collect();
    let listing: String = table
        .iter()
        .map(|(name, want, got)| format!("  {name}: pinned {want:#018x}, actual {got:#018x}\n"))
        .collect();
    assert!(bad.is_empty(), "digest mismatch:\n{listing}");
}

#[test]
fn run_results_match_pinned_digests() {
    let table: Vec<(String, u64, u64)> = RUN_DIGESTS
        .iter()
        .map(|&(name, cell, want)| {
            let json = serde_json::to_string(&cell()).expect("result serializes");
            (name.to_string(), want, fnv1a(json.as_bytes()))
        })
        .collect();
    check(&table);
}

#[test]
fn chaos_verdicts_match_pinned_digests() {
    let table: Vec<(String, u64, u64)> = CHAOS_DIGESTS
        .iter()
        .map(|&(name, want)| {
            let scenario = Scenario::parse(name).expect("known scenario");
            let spec = scenario.spec(SimDuration::from_secs(1), SEED);
            let trace = spec.trace();
            let cuts = cut_points(spec.total_events(&trace), 8);
            let verdicts = sweep(&spec, &trace, &cuts, 1);
            assert!(verdicts.iter().all(|v| v.pass), "{name}: a cut failed");
            let json = serde_json::to_string(&verdicts).expect("verdicts serialize");
            (name.to_string(), want, fnv1a(json.as_bytes()))
        })
        .collect();
    check(&table);
}
