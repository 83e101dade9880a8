//! Perfbench — per-layer micro-benchmarks of the simulator, each
//! timing one layer in isolation:
//!
//! * **xor micro**: the chunked vs scalar parity-fold delta in
//!   `afraid::shadow`;
//! * **disk micro**: ns per `Disk::submit` (the service-time model) on
//!   a fixed seeded request stream against an HP C3325;
//! * **queue micro**: ns per event through the event queue
//!   (`schedule_batch` + `pop`) at array-like depth;
//! * **cut micro**: ns per crash cut at cut 0 for each chaos scenario —
//!   array construction, crash capture, recovery replay and verdict,
//!   with no simulated event in between: the fixed cost every cut
//!   pays before its prefix replay.
//!
//! Usage: `perfbench` (no arguments). Writes `BENCH_parallel_sweep.json`
//! at the repository root. That the experiment matrix is bit-identical
//! at any `--jobs` count is checked by `tests/parallel_determinism.rs`.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use afraid::layout::Layout;
use afraid::shadow::ShadowArray;
use afraid_chaos::Scenario;
use afraid_disk::disk::{Disk, DiskRequest, OpKind};
use afraid_disk::model::DiskModel;
use afraid_sim::queue::EventQueue;
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct XorMicro {
    stripes: u64,
    disks: u32,
    iters: u32,
    scalar_secs: f64,
    chunked_secs: f64,
    /// scalar time / chunked time (>1 = chunked faster).
    speedup: f64,
}

#[derive(Serialize)]
struct DiskMicro {
    model: String,
    requests: u64,
    secs: f64,
    ns_per_submit: f64,
}

#[derive(Serialize)]
struct QueueMicro {
    /// Live events held in the queue while it is timed.
    depth: usize,
    /// Events scheduled (in bursts) and popped.
    events: u64,
    secs: f64,
    /// ns per event: its share of a `schedule_batch` plus one `pop`.
    ns_per_event: f64,
}

#[derive(Serialize)]
struct CutMicro {
    scenario: String,
    /// Cuts judged.
    cuts: u64,
    secs: f64,
    /// ns per cut at cut 0: construct, capture, replay and judge.
    ns_per_cut: f64,
}

#[derive(Serialize)]
struct Report {
    /// Chunked vs scalar parity folds in the shadow model.
    xor_micro: XorMicro,
    /// The disk service-time model alone.
    disk_micro: DiskMicro,
    /// The event queue alone.
    queue_micro: QueueMicro,
    /// A crash cut's fixed cost, per chaos scenario.
    cut_micro: Vec<CutMicro>,
}

/// Chunked vs scalar parity folds over a dirtied shadow array.
fn run_xor_micro() -> XorMicro {
    // 5 disks x 64 Ki stripes of 8 KB units — paper geometry, scaled
    // so both legs finish well under a second.
    const STRIPES: u64 = 64 * 1024;
    const ITERS: u32 = 8;
    let layout = Layout::new(5, 8192, STRIPES * 16);
    let mut shadow = ShadowArray::new(layout);
    for stripe in 0..STRIPES {
        shadow.write_data(
            stripe,
            (stripe % 4) as u32,
            stripe.wrapping_mul(0x9e37_79b9),
        );
    }

    let t = Instant::now();
    let mut scalar_acc = 0u64;
    for _ in 0..ITERS {
        for stripe in 0..STRIPES {
            scalar_acc ^= shadow.compute_parity_scalar(stripe)
                ^ shadow.xor_survivors_scalar(stripe, (stripe % 5) as u32);
        }
    }
    let scalar_secs = t.elapsed().as_secs_f64();
    black_box(scalar_acc);

    let t = Instant::now();
    let mut chunked_acc = 0u64;
    for _ in 0..ITERS {
        for stripe in 0..STRIPES {
            chunked_acc ^=
                shadow.compute_parity(stripe) ^ shadow.xor_survivors(stripe, (stripe % 5) as u32);
        }
    }
    let chunked_secs = t.elapsed().as_secs_f64();
    black_box(chunked_acc);
    assert_eq!(
        scalar_acc, chunked_acc,
        "chunked folds diverged from scalar"
    );

    XorMicro {
        stripes: STRIPES,
        disks: layout.disks(),
        iters: ITERS,
        scalar_secs,
        chunked_secs,
        speedup: if chunked_secs > 0.0 {
            scalar_secs / chunked_secs
        } else {
            0.0
        },
    }
}

/// ns per `Disk::submit` on a fixed seeded stream: a mix of random
/// and sequential reads and writes of 1-64 KB, each arriving 0-20 ms
/// after the previous one completes.
fn run_disk_micro() -> DiskMicro {
    const REQUESTS: u64 = 2_000_000;
    let model = DiskModel::hp_c3325();
    let name = model.name.clone();
    let mut disk = Disk::new(model, SimDuration::ZERO);
    let cap = disk.capacity_sectors();
    let mut rng = SplitMix64::new(0xD15C_0015);
    let reqs: Vec<(u64, DiskRequest)> = (0..REQUESTS)
        .scan(0u64, |next_lba, _| {
            let sectors = 2 << rng.next_below(7);
            let lba = if rng.chance(0.3) {
                *next_lba
            } else {
                rng.next_below(cap - 128)
            }
            .min(cap - sectors);
            *next_lba = (lba + sectors) % (cap - 128);
            let op = if rng.chance(0.4) {
                OpKind::Write
            } else {
                OpKind::Read
            };
            let gap = rng.next_below(20_000_000);
            Some((gap, DiskRequest { lba, sectors, op }))
        })
        .collect();

    let t = Instant::now();
    let mut now = SimTime::ZERO;
    for (gap, req) in &reqs {
        now = disk
            .submit(now + SimDuration::from_nanos(*gap), req)
            .expect_ok();
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(now);
    DiskMicro {
        model: name,
        requests: REQUESTS,
        secs,
        ns_per_submit: secs * 1e9 / REQUESTS as f64,
    }
}

/// ns per event through the queue at a steady depth of 64 live events
/// (the busiest benchmark cells peak near 60): each round admits a
/// five-disk burst with `schedule_batch` and pops five events.
fn run_queue_micro() -> QueueMicro {
    const DEPTH: usize = 64;
    const BURST: u64 = 5;
    const ROUNDS: u64 = 1_000_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::new(0x0E0E_0015);
    for i in 0..DEPTH as u64 {
        q.schedule(SimTime::from_nanos(rng.next_below(30_000_000)), i);
    }
    let offsets: Vec<u64> = (0..ROUNDS * BURST)
        .map(|_| rng.next_below(30_000_000))
        .collect();

    let t = Instant::now();
    let mut now = SimTime::ZERO;
    let mut acc = 0u64;
    for burst in offsets.chunks_exact(BURST as usize) {
        q.schedule_batch(
            burst
                .iter()
                .map(|&dt| (now + SimDuration::from_nanos(dt), dt)),
        );
        for _ in 0..BURST {
            if let Some((at, e)) = q.pop() {
                now = at;
                acc ^= e;
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(acc);
    assert_eq!(q.len(), DEPTH, "queue depth drifted");
    let events = ROUNDS * BURST;
    QueueMicro {
        depth: DEPTH,
        events,
        secs,
        ns_per_event: secs * 1e9 / events as f64,
    }
}

/// ns per crash cut at cut 0, per scenario, on the 1 s chaos traces
/// (seed 42). Every verdict must pass.
fn run_cut_micro() -> Vec<CutMicro> {
    const CUTS: u64 = 2000;
    Scenario::ALL
        .into_iter()
        .map(|sc| {
            let spec = sc.spec(SimDuration::from_secs(1), 42);
            let trace = spec.trace();
            let t = Instant::now();
            for _ in 0..CUTS {
                let v = spec.run_cut(black_box(&trace), 0);
                assert!(v.pass, "{}: cut 0 failed: {:?}", sc.name(), v.failure);
                black_box(v);
            }
            let secs = t.elapsed().as_secs_f64();
            CutMicro {
                scenario: sc.name().to_string(),
                cuts: CUTS,
                secs,
                ns_per_cut: secs * 1e9 / CUTS as f64,
            }
        })
        .collect()
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("perfbench: unexpected argument '{arg}'");
        eprintln!("usage: perfbench");
        return ExitCode::from(2);
    }
    let xor = run_xor_micro();
    println!(
        "xor micro ({} stripes x {} disks x {} iters): scalar {:.3}s, chunked {:.3}s, {:.2}x",
        xor.stripes, xor.disks, xor.iters, xor.scalar_secs, xor.chunked_secs, xor.speedup
    );
    let disk_micro = run_disk_micro();
    println!(
        "disk micro ({} requests, {}): {:.1} ns per submit",
        disk_micro.requests, disk_micro.model, disk_micro.ns_per_submit
    );
    let queue_micro = run_queue_micro();
    println!(
        "queue micro ({} events at depth {}): {:.1} ns per event",
        queue_micro.events, queue_micro.depth, queue_micro.ns_per_event
    );

    let cut_micro = run_cut_micro();
    for c in &cut_micro {
        println!(
            "cut micro ({}, {} cuts at cut 0): {:.0} ns per cut",
            c.scenario, c.cuts, c.ns_per_cut
        );
    }

    let report = Report {
        xor_micro: xor,
        disk_micro,
        queue_micro,
        cut_micro,
    };
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_sweep.json"
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_parallel_sweep.json");
    println!("wrote {path}");
    ExitCode::SUCCESS
}
