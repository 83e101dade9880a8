//! Tier-1 integrity gate: disks that lie never get away with it.
//!
//! These tests drive full trace replays with every silent-fault class
//! active — torn, lost, and misdirected writes plus read bit-flips —
//! and assert the end-to-end integrity contract:
//!
//! * **100% detection** under verify-on-read: zero silent reads, and
//!   every injected fault's fate is accounted for (caught by a
//!   checksum, or erased by a client overwrite before any read).
//! * **Byte-exact repair** when redundancy is fresh, **honest
//!   declaration** when the deferral window left parity stale.
//! * **Zero false positives**: a clean run never trips a checksum.
//! * **Bit-identical results** at any `--jobs`.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Full logical capacity of the `small_test` array.
const CAPACITY: u64 = 2500 * 4 * 8192;

const SEED: u64 = 42;

/// The lying-disk configuration: every silent class active at rates
/// that land a healthy handful of faults per run, verify-on-read and
/// checksum scrubs on, eager tours.
fn corrupt_cfg() -> ArrayConfig {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.bit_flip_per_read = 5e-3;
    cfg.integrity.torn_write_per_io = 3e-2;
    cfg.integrity.lost_write_per_io = 3e-2;
    cfg.integrity.misdirected_write_per_io = 2e-2;
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.scrub.enabled = true;
    cfg
}

fn att_run(cfg: &ArrayConfig, secs: u64) -> afraid::metrics::RunMetrics {
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        CAPACITY,
        afraid_sim::time::SimDuration::from_secs(secs),
        SEED,
    );
    run_trace(cfg, &trace, &RunOptions::default()).metrics
}

/// Under verify-on-read, no read ever returns wrong bytes silently,
/// no clean unit ever trips a checksum, and every injected fault is
/// dispositioned — detected (then repaired or declared) or erased by
/// a client overwrite before anything read it.
#[test]
fn verify_on_read_catches_every_lie() {
    let m = att_run(&corrupt_cfg(), 10);
    let i = m.integrity;
    assert!(
        i.injected_total() >= 10,
        "trace too quiet to prove anything: {i:?}"
    );
    assert_eq!(i.silent_reads, 0, "silent read under verify-on-read: {i:?}");
    assert_eq!(i.false_positives, 0, "checksum cried wolf: {i:?}");
    assert_eq!(
        i.resolved_total(),
        i.injected_total(),
        "faults never dispositioned — the drain tour missed them: {i:?}"
    );
    assert!(i.verified_units > 0, "verification never ran: {i:?}");
    assert_eq!(i.detected, i.repaired + i.declared, "{i:?}");
}

/// With parity kept fresh (AlwaysRaid5 never defers), byte-exact
/// repair is the dominant disposition. The residue of declarations
/// comes from laundering, not deferral: a full-stripe write pre-reads
/// a still-corrupt neighbour as-is, folding the rot into the new
/// parity, after which no redundancy describes the intent.
#[test]
fn fresh_redundancy_repairs_byte_exactly() {
    let mut cfg = corrupt_cfg();
    cfg.policy = ParityPolicy::AlwaysRaid5;
    let m = att_run(&cfg, 10);
    let i = m.integrity;
    assert!(i.injected_total() >= 10, "{i:?}");
    assert_eq!(i.silent_reads, 0, "{i:?}");
    assert!(i.repaired > 0, "no repair ever exercised: {i:?}");
    assert!(
        i.repaired > i.declared,
        "fresh parity should make repair the common case: {i:?}"
    );
}

/// Under deferred parity, corruptions that surface inside the
/// deferral window are declared — honestly reported, never silently
/// passed — while those caught with parity consistent still repair.
#[test]
fn deferral_window_corruptions_are_declared() {
    let m = att_run(&corrupt_cfg(), 10);
    let i = m.integrity;
    assert!(i.repaired > 0, "no fresh-window repair: {i:?}");
    assert!(i.declared > 0, "no deferred-window declaration: {i:?}");
}

/// With injection off, a fully verified run finds nothing: no
/// detections, no declarations, no false positives.
#[test]
fn clean_run_is_false_positive_free() {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.scrub.enabled = true;
    let m = att_run(&cfg, 5);
    let i = m.integrity;
    assert_eq!(i.injected_total(), 0, "{i:?}");
    assert_eq!(i.detected, 0, "{i:?}");
    assert_eq!(i.false_positives, 0, "{i:?}");
    assert_eq!(i.silent_reads, 0, "{i:?}");
    assert!(i.verified_units > 0, "verification never ran: {i:?}");
}

/// With injection on but verification OFF, corrupt words reach
/// clients: the silent-read counter is the exposure this subsystem
/// exists to eliminate, so the control must show it nonzero.
#[test]
fn without_verification_lies_reach_clients() {
    let mut cfg = corrupt_cfg();
    cfg.integrity.verify_reads = false;
    cfg.integrity.verify_scrub = false;
    let m = att_run(&cfg, 10);
    let i = m.integrity;
    assert!(i.injected_total() >= 10, "{i:?}");
    assert!(
        i.silent_reads > 0,
        "control failed: nothing corrupt was ever read: {i:?}"
    );
}

/// The whole integrity pipeline is deterministic: two identical runs
/// produce identical counters.
#[test]
fn integrity_counters_are_deterministic() {
    let a = att_run(&corrupt_cfg(), 5).integrity;
    let b = att_run(&corrupt_cfg(), 5).integrity;
    assert_eq!(a, b);
}
