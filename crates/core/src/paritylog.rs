//! Parity logging \[Stodolsky93\]: the closest prior solution to the
//! small-update problem, implemented as a comparator.
//!
//! A parity-logging array performs the read-modify-write on the *data*
//! block (read old data, write new data), but instead of updating the
//! parity block in place it appends the XOR of old and new data to a
//! log. The log is buffered in NVRAM and flushed to a dedicated log
//! region in large sequential writes; when the log region fills, it is
//! replayed against the in-place parity — a bulk operation that
//! interferes with foreground traffic.
//!
//! Relative to AFRAID (paper §2):
//!
//! * full redundancy is preserved at all times (log + data suffice to
//!   reconstruct), so there is no parity lag;
//! * but the **old-data pre-read stays in the write critical path**,
//!   costing a disk revolution that AFRAID avoids;
//! * and a full log forces replay work at times the workload chooses,
//!   not in idle periods.
//!
//! The model here reuses the calibrated disks and runs the same traces
//! through a simplified (single-phase-per-request) event loop: enough
//! to reproduce the comparative shape — slower small writes than
//! AFRAID, no exposure window, occasional replay stalls — for the
//! ablation bench.

use std::sync::Arc;

use afraid_disk::disk::{Disk, DiskRequest, OpKind, ServiceTables};
use afraid_sim::stats::OnlineStats;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{ReqKind, Trace};
use serde::{Deserialize, Serialize};

use crate::config::ArrayConfig;
use crate::layout::Layout;

/// Parity-logging configuration knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ParityLogConfig {
    /// NVRAM log buffer; a flush is issued when it fills.
    pub buffer_bytes: u64,
    /// On-disk log region per parity disk; a replay is forced when it
    /// fills.
    pub log_region_bytes: u64,
}

impl Default for ParityLogConfig {
    fn default() -> Self {
        // Stodolsky's evaluation used megabyte-class log regions.
        ParityLogConfig {
            buffer_bytes: 64 * 1024,
            log_region_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Results of a parity-logging run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParityLogMetrics {
    /// Mean client I/O time, ms.
    pub mean_io_ms: f64,
    /// Completed requests.
    pub requests: u64,
    /// Log-buffer flushes to the log region.
    pub log_flushes: u64,
    /// Full log replays (parity made current in place).
    pub replays: u64,
    /// Total time the array was stalled replaying.
    pub replay_time: SimDuration,
}

/// Runs `trace` through a parity-logging array with the same disks
/// and layout as `cfg` describes.
///
/// The model is deliberately simpler than the AFRAID controller: each
/// request's phases run back-to-back on the computed disks, and a
/// replay blocks the array (the worst case the paper alludes to:
/// "either the pending parity updates must be applied immediately,
/// interrupting foreground processing").
///
/// # Panics
///
/// Panics if the configuration is invalid or the trace outruns the
/// array capacity.
pub fn run_parity_logging(
    cfg: &ArrayConfig,
    plcfg: &ParityLogConfig,
    trace: &Trace,
) -> ParityLogMetrics {
    if let Err(e) = cfg.validate() {
        panic!("invalid array config: {e}");
    }
    let disk_sectors = cfg.disk_model.geometry.capacity_sectors();
    let layout = Layout::new(cfg.disks, cfg.stripe_unit_bytes, disk_sectors);
    assert!(
        trace.capacity <= layout.logical_capacity(),
        "trace too large"
    );

    let tables = Arc::new(ServiceTables::new(cfg.disk_model.clone()));
    let mut disks: Vec<Disk> = (0..cfg.disks)
        .map(|_| Disk::from_tables(Arc::clone(&tables), SimDuration::ZERO))
        .collect();

    // The log region lives on the last sectors of every disk's space
    // (we approximate one shared region; only its fill level matters).
    let mut buffered: u64 = 0;
    let mut logged: u64 = 0;
    let mut log_flushes = 0u64;
    let mut replays = 0u64;
    let mut replay_time = SimDuration::ZERO;
    // The array is unavailable until this instant (replay stall).
    let mut stalled_until = SimTime::ZERO;
    let mut response = OnlineStats::new();

    // Sequential log writes go to a cursor near the disk's end.
    let log_base = disk_sectors - plcfg.log_region_bytes / 512;
    let mut log_cursor: u64 = 0;

    for rec in &trace.records {
        let start = rec.time.max(stalled_until);
        let done = match rec.kind {
            ReqKind::Read => {
                let mut t = start;
                for s in layout.map_range(rec.offset, rec.bytes) {
                    let d = &mut disks[s.disk as usize];
                    t = t.max(
                        d.submit(
                            start,
                            &DiskRequest {
                                lba: s.disk_lba,
                                sectors: s.sectors,
                                op: OpKind::Read,
                            },
                        )
                        .expect_ok(),
                    );
                }
                t
            }
            ReqKind::Write => {
                // Phase 1: read old data (the pre-read AFRAID avoids).
                let slices = layout.map_range(rec.offset, rec.bytes);
                let mut t1 = start;
                for s in &slices {
                    let d = &mut disks[s.disk as usize];
                    t1 = t1.max(
                        d.submit(
                            start,
                            &DiskRequest {
                                lba: s.disk_lba,
                                sectors: s.sectors,
                                op: OpKind::Read,
                            },
                        )
                        .expect_ok(),
                    );
                }
                // Phase 2: write new data.
                let mut t2 = t1;
                for s in &slices {
                    let d = &mut disks[s.disk as usize];
                    t2 = t2.max(
                        d.submit(
                            t1,
                            &DiskRequest {
                                lba: s.disk_lba,
                                sectors: s.sectors,
                                op: OpKind::Write,
                            },
                        )
                        .expect_ok(),
                    );
                }
                // The XOR record lands in the NVRAM buffer at no disk
                // cost; flushes and replays happen below.
                buffered += rec.bytes;
                t2
            }
        };
        response.record(done.since(rec.time).as_millis_f64());

        // Background log maintenance (charged outside the critical
        // path unless a replay stalls the array).
        if buffered >= plcfg.buffer_bytes {
            // One sequential write of the buffer to the log region.
            let sectors = (buffered / 512).max(1);
            let lba = log_base + (log_cursor % (plcfg.log_region_bytes / 512 / 2));
            let d = &mut disks[(log_flushes % u64::from(cfg.disks)) as usize];
            let _ = d
                .submit(
                    done,
                    &DiskRequest {
                        lba,
                        sectors,
                        op: OpKind::Write,
                    },
                )
                .expect_ok();
            log_cursor += sectors;
            logged += buffered;
            buffered = 0;
            log_flushes += 1;
        }
        if logged >= plcfg.log_region_bytes {
            // Replay: read the log region and the parity regions,
            // apply, write parity back. Bandwidth-limited bulk work
            // that blocks the array.
            let bulk_bytes = 3.0 * logged as f64;
            let secs = bulk_bytes / cfg.disk_model.sustained_rate();
            let stall = SimDuration::from_secs_f64(secs);
            stalled_until = done + stall;
            replay_time += stall;
            replays += 1;
            logged = 0;
            log_cursor = 0;
        }
    }

    ParityLogMetrics {
        mean_io_ms: response.mean(),
        requests: response.count(),
        log_flushes,
        replays,
        replay_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ParityPolicy;
    use afraid_trace::record::IoRecord;

    fn cfg() -> ArrayConfig {
        ArrayConfig::small_test(ParityPolicy::IdleOnly)
    }

    fn write_trace(n: u64, gap_ms: u64, bytes: u64) -> Trace {
        let cap = 100 * 4 * 8192; // well within the small_test layout
        let mut t = Trace::new("w", cap as u64);
        for i in 0..n {
            t.push(IoRecord {
                time: SimTime::from_millis(i * gap_ms),
                offset: (i * bytes) % (cap as u64 - bytes),
                bytes,
                kind: ReqKind::Write,
            });
        }
        t
    }

    #[test]
    fn runs_and_counts() {
        let t = write_trace(100, 50, 8192);
        let m = run_parity_logging(&cfg(), &ParityLogConfig::default(), &t);
        assert_eq!(m.requests, 100);
        assert!(m.mean_io_ms > 0.0);
        // 100 * 8 KB = 800 KB through a 64 KB buffer: ~12 flushes.
        assert!(
            (10..=13).contains(&m.log_flushes),
            "flushes {}",
            m.log_flushes
        );
    }

    #[test]
    fn small_log_region_forces_replays() {
        let t = write_trace(200, 20, 8192);
        let pl = ParityLogConfig {
            buffer_bytes: 32 * 1024,
            log_region_bytes: 256 * 1024,
        };
        let m = run_parity_logging(&cfg(), &pl, &t);
        assert!(m.replays >= 4, "replays {}", m.replays);
        assert!(m.replay_time > SimDuration::ZERO);
    }

    #[test]
    fn replays_hurt_mean_io() {
        let t = write_trace(200, 5, 8192);
        let small = ParityLogConfig {
            buffer_bytes: 16 * 1024,
            log_region_bytes: 128 * 1024,
        };
        let big = ParityLogConfig::default();
        let m_small = run_parity_logging(&cfg(), &small, &t);
        let m_big = run_parity_logging(&cfg(), &big, &t);
        assert!(
            m_small.mean_io_ms > m_big.mean_io_ms,
            "small-log {} <= big-log {}",
            m_small.mean_io_ms,
            m_big.mean_io_ms
        );
    }

    #[test]
    fn reads_are_single_phase() {
        let c = cfg();
        let cap = 100 * 4 * 8192u64;
        let mut t = Trace::new("r", cap);
        t.push(IoRecord {
            time: SimTime::ZERO,
            offset: 0,
            bytes: 8192,
            kind: ReqKind::Read,
        });
        let m = run_parity_logging(&c, &ParityLogConfig::default(), &t);
        assert_eq!(m.requests, 1);
        assert_eq!(m.log_flushes, 0);
    }
}
