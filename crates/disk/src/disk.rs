//! The disk service-time state machine.
//!
//! A [`Disk`] is a sequential server: requests are serviced one at a
//! time in submission order (the AFRAID paper runs FCFS at the array
//! back end). Service time is computed mechanistically:
//!
//! ```text
//! service = command overhead
//!         + seek (two-regime curve over cylinder distance)
//!         + rotational latency (exact, from the angular position of
//!           the spindle at the moment the seek completes)
//!         + media transfer (sector times, plus head/cylinder switch
//!           costs for runs crossing track boundaries)
//! ```
//!
//! The spindle's angular position is a pure function of simulated time
//! and the disk's spin phase; giving all disks the same phase yields
//! the spin-synchronised array the paper assumes.

use std::sync::Arc;

use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::cache::SegmentedCache;
use crate::fault::{Fault, FaultInjector, IoOutcome};
use crate::geometry::Chs;
use crate::model::DiskModel;
use crate::SECTOR_BYTES;

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Transfer from media to host.
    Read,
    /// Transfer from host to media (write-through; no immediate report).
    Write,
}

/// A request addressed to one disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskRequest {
    /// Starting logical block address (sector number).
    pub lba: u64,
    /// Number of sectors to transfer (must be non-zero).
    pub sectors: u64,
    /// Transfer direction.
    pub op: OpKind,
}

/// Aggregate per-disk statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Total sectors transferred.
    pub sectors: u64,
    /// Total time spent seeking.
    pub seek_time: SimDuration,
    /// Total rotational latency.
    pub rotation_time: SimDuration,
    /// Total media transfer time.
    pub transfer_time: SimDuration,
    /// Total busy time (all service components).
    pub busy_time: SimDuration,
    /// Reads served from the on-drive cache.
    pub cache_hits: u64,
    /// Commands that reported a transient media error.
    pub media_errors: u64,
    /// Commands that exceeded the command timeout.
    pub timeouts: u64,
}

/// Service-time tables derived once from a [`DiskModel`].
///
/// Every mechanical I/O needs the zone and physical address of its
/// first sector, a seek time, a rotational offset and the sector time
/// of each track it crosses. The closed forms behind them
/// ([`Geometry::locate`](crate::geometry::Geometry::locate),
/// [`SeekProfile::time`](crate::seek::SeekProfile::time),
/// [`DiskModel::revolution`]) search the zone table and work in `f64`
/// with rounding; here they are evaluated once and read back as
/// integers. Every entry is the closed form's own value, so service
/// times are bit-identical to evaluating the model directly.
///
/// The tables are immutable: an array builds one set and shares it
/// among its disks (see [`Disk::from_tables`]).
#[derive(Debug)]
pub struct ServiceTables {
    model: DiskModel,
    /// One revolution in ns.
    rev_ns: u64,
    /// Addressing and timing of each zone, in cylinder order.
    zones: Vec<ZoneRow>,
    /// Seek time in ns for every distance `0..cylinders`.
    seek_ns: Vec<u64>,
    /// Start of every rotational slot, in ns past angle 0: zone `z`'s
    /// slots occupy `slot_ns[z.first_slot..][..z.spt]`.
    slot_ns: Vec<u64>,
    /// Cylinder skew of each cylinder in slots, reduced modulo its
    /// sectors per track.
    cyl_skew: Vec<u32>,
    /// Track skew of each head of each zone in slots, reduced modulo
    /// the zone's sectors per track: zone `z`, head `h` is at
    /// `z * heads + h`.
    head_skew: Vec<u32>,
    /// Single-cylinder seek in ns, paid when a transfer crosses a
    /// cylinder boundary.
    track_to_track_ns: u64,
}

/// One zone of [`ServiceTables`].
#[derive(Clone, Copy, Debug)]
struct ZoneRow {
    first_lba: u64,
    first_cyl: u32,
    /// One past the zone's last cylinder.
    end_cyl: u32,
    spt: u32,
    /// Sectors per cylinder (`spt * heads`).
    per_cyl: u64,
    /// Time for one sector to pass under the head, in ns.
    sector_ns: u64,
    /// Index of the zone's slot 0 in `ServiceTables::slot_ns`.
    first_slot: usize,
}

impl ServiceTables {
    /// Derives the tables of `model`.
    pub fn new(model: DiskModel) -> ServiceTables {
        let geom = &model.geometry;
        let heads = geom.heads();
        let rev_ns = model.revolution().as_nanos();
        let mut zones = Vec::with_capacity(geom.zones().len());
        let mut slot_ns = Vec::new();
        let mut cyl_skew = Vec::with_capacity(geom.cylinders() as usize);
        let mut head_skew = Vec::new();
        let mut first_lba = 0u64;
        let mut first_cyl = 0u32;
        for z in geom.zones() {
            let spt = u64::from(z.sectors_per_track);
            let per_cyl = spt * u64::from(heads);
            zones.push(ZoneRow {
                first_lba,
                first_cyl,
                end_cyl: first_cyl + z.cylinders,
                spt: z.sectors_per_track,
                per_cyl,
                sector_ns: model.sector_time(z.sectors_per_track).as_nanos(),
                first_slot: slot_ns.len(),
            });
            slot_ns.extend(
                (0..spt).map(|s| (u128::from(s) * u128::from(rev_ns) / u128::from(spt)) as u64),
            );
            cyl_skew.extend(
                (first_cyl..first_cyl + z.cylinders)
                    .map(|c| (u64::from(c) * u64::from(model.cylinder_skew) % spt) as u32),
            );
            head_skew.extend(
                (0..heads).map(|h| (u64::from(h) * u64::from(model.track_skew) % spt) as u32),
            );
            first_lba += u64::from(z.cylinders) * per_cyl;
            first_cyl += z.cylinders;
        }
        let seek_ns = (0..geom.cylinders())
            .map(|d| model.seek.time(d).as_nanos())
            .collect();
        ServiceTables {
            rev_ns,
            zones,
            seek_ns,
            slot_ns,
            cyl_skew,
            head_skew,
            track_to_track_ns: model.seek.track_to_track().as_nanos(),
            model,
        }
    }

    /// The model the tables were derived from.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// The zone index and physical address of `lba`, which must lie
    /// within the disk.
    fn locate(&self, lba: u64) -> (usize, Chs) {
        // Zones are few and sorted: counting the later zones that start
        // at or before `lba` finds its zone without a branchy search.
        let zi = self
            .zones
            .iter()
            .skip(1)
            .filter(|z| z.first_lba <= lba)
            .count();
        let zone = &self.zones[zi];
        let off = lba - zone.first_lba;
        let within = off % zone.per_cyl;
        let spt = u64::from(zone.spt);
        let chs = Chs {
            cyl: zone.first_cyl + (off / zone.per_cyl) as u32,
            head: (within / spt) as u32,
            sector: (within % spt) as u32,
        };
        (zi, chs)
    }

    /// Time until the first sector at `chs` (in zone `zi`) is under
    /// the head, given the spindle clock `spin_ns` (absolute time plus
    /// the disk's phase). Track and cylinder skew rotate each track's
    /// sector 0 away from angle 0.
    fn rotation_ns(&self, spin_ns: u64, zi: usize, chs: Chs) -> u64 {
        let zone = &self.zones[zi];
        let spt = u64::from(zone.spt);
        let heads = self.model.geometry.heads() as usize;
        // Each term is below `spt`, so two subtractions reduce the sum.
        let mut slot = u64::from(chs.sector)
            + u64::from(self.head_skew[zi * heads + chs.head as usize])
            + u64::from(self.cyl_skew[chs.cyl as usize]);
        if slot >= spt {
            slot -= spt;
        }
        if slot >= spt {
            slot -= spt;
        }
        let slot_ns = self.slot_ns[zone.first_slot + slot as usize];
        let angle = spin_ns % self.rev_ns;
        if slot_ns >= angle {
            slot_ns - angle
        } else {
            self.rev_ns - (angle - slot_ns)
        }
    }

    /// Media transfer time in ns for `sectors` starting at `chs` (in
    /// zone `zi`), including head and cylinder switch costs at track
    /// boundaries, and the cylinder holding the last sector. Track and
    /// cylinder skew are assumed to exactly hide switch realignment,
    /// so each boundary costs the switch time and transfer continues.
    fn transfer(&self, mut zi: usize, mut chs: Chs, mut sectors: u64) -> (u64, u32) {
        let mut zone = self.zones[zi];
        let mut total = 0u64;
        loop {
            let on_track = u64::from(zone.spt - chs.sector).min(sectors);
            total += zone.sector_ns * on_track;
            sectors -= on_track;
            if sectors == 0 {
                return (total, chs.cyl);
            }
            chs.sector = 0;
            if chs.head + 1 < self.model.geometry.heads() {
                chs.head += 1;
                total += self.model.head_switch.as_nanos();
            } else {
                chs.head = 0;
                chs.cyl += 1;
                total += self.track_to_track_ns;
                if chs.cyl == zone.end_cyl {
                    zi += 1;
                    zone = self.zones[zi];
                }
            }
        }
    }
}

/// One disk drive.
pub struct Disk {
    /// The drive's model and its service-time tables, shared by every
    /// disk of an array.
    tables: Arc<ServiceTables>,
    cache: SegmentedCache,
    /// Spindle phase offset; equal phases = spin-synchronised.
    phase: SimDuration,
    /// Arm position after the last serviced request.
    cur_cyl: u32,
    /// The disk is busy until this instant.
    free_at: SimTime,
    failed: bool,
    stats: DiskStats,
    /// Transient-fault process, if fault injection is configured.
    faults: Option<FaultInjector>,
}

impl Disk {
    /// Creates a disk with the given model and spin phase, with the
    /// on-drive cache disabled (the paper's configuration).
    pub fn new(model: DiskModel, phase: SimDuration) -> Self {
        Disk::from_tables(Arc::new(ServiceTables::new(model)), phase)
    }

    /// Like [`Disk::new`], over tables shared with the other disks of
    /// an array.
    pub fn from_tables(tables: Arc<ServiceTables>, phase: SimDuration) -> Self {
        Disk {
            tables,
            cache: SegmentedCache::disabled(),
            phase,
            cur_cyl: 0,
            free_at: SimTime::ZERO,
            failed: false,
            stats: DiskStats::default(),
            faults: None,
        }
    }

    /// Enables the on-drive segmented cache.
    pub fn with_cache(mut self, cache: SegmentedCache) -> Self {
        self.cache = cache;
        self
    }

    /// Installs a transient-fault process. Without one the disk never
    /// faults and [`Disk::submit`] always returns [`IoOutcome::Ok`]
    /// (or [`IoOutcome::Failed`] once [`Disk::fail`] is called).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Mutable access to the installed fault process, if any. The
    /// array layer uses this to draw the *silent* fates of its
    /// commands — the disk itself only models the reported faults.
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// Switches patient mode: the fault process stops drawing faults
    /// and timeouts are not enforced, so commands always succeed —
    /// merely slowly, if a fail-slow window is active. Used while a
    /// condemned disk's stripes are drained before eviction. No-op
    /// without an injector.
    pub fn set_patient(&mut self, patient: bool) {
        if let Some(inj) = &mut self.faults {
            inj.set_patient(patient);
        }
    }

    /// The disk's parameter set.
    pub fn model(&self) -> &DiskModel {
        self.tables.model()
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.tables.model.geometry.capacity_sectors()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The instant the disk next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// True if the disk is still working at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.free_at > now
    }

    /// Marks the disk failed; subsequent submissions return
    /// [`IoOutcome::Failed`] without any physical I/O.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Swaps in a spare: the fresh drive starts idle at cylinder 0
    /// with no history — statistics, the busy horizon, the cache and
    /// any fail-slow limp all belong to the unit that was pulled.
    pub fn replace(&mut self) {
        self.failed = false;
        self.cur_cyl = 0;
        self.cache.clear();
        self.free_at = SimTime::ZERO;
        self.stats = DiskStats::default();
        if let Some(inj) = &mut self.faults {
            inj.on_replace();
        }
    }

    /// True once [`Disk::fail`] has been called.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Submits a request at `now`. The disk starts it when it becomes
    /// free; the returned [`IoOutcome`] carries the instant the result
    /// is reported to the controller.
    ///
    /// A failed disk returns [`IoOutcome::Failed`] with no physical
    /// I/O. A media error consumes the full service time before it is
    /// reported. A timed-out command occupies the drive until the
    /// command timeout (a hang ends with the drive's internal reset),
    /// or — for a fail-slow overrun — until its inflated service
    /// completes, while the controller hears the timeout at the
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or runs past the end of the disk.
    pub fn submit(&mut self, now: SimTime, req: &DiskRequest) -> IoOutcome {
        if self.failed {
            return IoOutcome::Failed;
        }
        assert!(req.sectors > 0, "empty request");
        let cap = self.capacity_sectors();
        assert!(
            req.lba
                .checked_add(req.sectors)
                .is_some_and(|end| end <= cap),
            "request of {} sectors at LBA {} beyond capacity {cap}",
            req.sectors,
            req.lba
        );
        let start = now.max(self.free_at);
        let mut service = self.service_time(start, req);
        if let Some(inj) = &mut self.faults {
            let factor = inj.slow_factor(start);
            if factor > 1.0 {
                service = service.mul_f64(factor);
            }
            match inj.draw() {
                Fault::MediaError => {
                    self.free_at = start + service;
                    self.stats.busy_time += service;
                    self.stats.media_errors += 1;
                    return IoOutcome::MediaError(self.free_at);
                }
                Fault::Timeout => {
                    let hang = inj.command_timeout();
                    self.free_at = start + hang;
                    self.stats.busy_time += hang;
                    self.stats.timeouts += 1;
                    return IoOutcome::Timeout(self.free_at);
                }
                Fault::None => {
                    if !inj.is_patient() && service > inj.command_timeout() {
                        let report = start + inj.command_timeout();
                        self.free_at = start + service;
                        self.stats.busy_time += service;
                        self.stats.timeouts += 1;
                        return IoOutcome::Timeout(report);
                    }
                }
            }
        }
        self.free_at = start + service;
        self.stats.busy_time += service;
        self.stats.sectors += req.sectors;
        match req.op {
            OpKind::Read => self.stats.reads += 1,
            OpKind::Write => self.stats.writes += 1,
        }
        IoOutcome::Ok(self.free_at)
    }

    /// Computes the service time of `req` starting at `start`, updating
    /// arm position and cache state.
    fn service_time(&mut self, start: SimTime, req: &DiskRequest) -> SimDuration {
        let model = &self.tables.model;
        match req.op {
            OpKind::Read => {
                if self.cache.hit(req.lba, req.sectors) {
                    self.stats.cache_hits += 1;
                    return self.bus_time(req.sectors) + model.read_overhead;
                }
            }
            OpKind::Write => {
                self.cache.invalidate(req.lba, req.sectors);
            }
        }

        let overhead = match req.op {
            OpKind::Read => model.read_overhead,
            OpKind::Write => model.write_overhead,
        };
        let tables = &*self.tables;
        let (zi, target) = tables.locate(req.lba);

        // Seek.
        let distance = self.cur_cyl.abs_diff(target.cyl);
        let seek = SimDuration::from_nanos(tables.seek_ns[distance as usize]);
        self.stats.seek_time += seek;

        // Rotational latency: wait for the first target sector's
        // physical slot to rotate under the head.
        let at = start + overhead + seek;
        let spin_ns = at.as_nanos() + self.phase.as_nanos();
        let rot = SimDuration::from_nanos(tables.rotation_ns(spin_ns, zi, target));
        self.stats.rotation_time += rot;

        // Media transfer; the arm finishes at the last cylinder touched.
        let (transfer_ns, end_cyl) = tables.transfer(zi, target, req.sectors);
        let transfer = SimDuration::from_nanos(transfer_ns);
        self.stats.transfer_time += transfer;
        self.cur_cyl = end_cyl;

        if req.op == OpKind::Read {
            self.cache.insert(req.lba, req.sectors);
        }

        overhead + seek + rot + transfer
    }

    /// Bus transfer time for a cache hit.
    fn bus_time(&self, sectors: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            sectors as f64 * SECTOR_BYTES as f64 / self.tables.model.bus_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_disk() -> Disk {
        Disk::new(DiskModel::test_disk(), SimDuration::ZERO)
    }

    fn read(lba: u64, sectors: u64) -> DiskRequest {
        DiskRequest {
            lba,
            sectors,
            op: OpKind::Read,
        }
    }

    fn write(lba: u64, sectors: u64) -> DiskRequest {
        DiskRequest {
            lba,
            sectors,
            op: OpKind::Write,
        }
    }

    #[test]
    fn first_sector_at_time_zero_is_free_of_seek_and_rotation() {
        // Head starts at cylinder 0; LBA 0's slot is 0; at t=0 the
        // spindle is at angle 0. Only the transfer remains.
        let mut d = test_disk();
        let done = d.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(100));
        assert_eq!(d.stats().seek_time, SimDuration::ZERO);
        assert_eq!(d.stats().rotation_time, SimDuration::ZERO);
    }

    #[test]
    fn rotational_latency_waits_for_slot() {
        // Sector 50 of track 0 sits half a revolution away: 5 ms wait
        // plus 100 us transfer.
        let mut d = test_disk();
        let done = d.submit(SimTime::ZERO, &read(50, 1)).expect_ok();
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_millis(5) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn rotation_wraps_around() {
        // At t = 6 ms the spindle is at slot 60; targeting slot 50
        // requires waiting 9 ms (90 slots).
        let mut d = test_disk();
        let t0 = SimTime::from_millis(6);
        let done = d.submit(t0, &read(50, 1)).expect_ok();
        assert_eq!(
            done,
            t0 + SimDuration::from_millis(9) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn seek_adds_curve_time() {
        let mut d = test_disk();
        // Cylinder 10 = LBA 4000. Seek from 0 to 10 = 2.0 ms (the
        // calibration point), landing at spindle angle 2.0 ms = slot 20;
        // target slot 0 needs an 8 ms wait, then 100 us transfer.
        let done = d.submit(SimTime::ZERO, &read(4000, 1)).expect_ok();
        let expect = SimDuration::from_millis(2)
            + SimDuration::from_millis(8)
            + SimDuration::from_micros(100);
        assert_eq!(done, SimTime::ZERO + expect);
        assert_eq!(d.stats().seek_time, SimDuration::from_millis(2));
    }

    #[test]
    fn sequential_submission_is_fcfs() {
        let mut d = test_disk();
        let first = d.submit(SimTime::ZERO, &read(0, 10)).expect_ok();
        let second = d.submit(SimTime::ZERO, &read(10, 10)).expect_ok();
        assert!(second > first);
        assert!(d.is_busy(SimTime::ZERO));
        assert!(!d.is_busy(second));
        assert_eq!(d.free_at(), second);
    }

    #[test]
    fn back_to_back_sequential_reads_stream() {
        // Reading the next sectors right where the head sits should
        // cost pure transfer time: no seek, no rotation gap.
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(0, 10)).expect_ok();
        let rot_before = d.stats().rotation_time;
        let t2 = d.submit(t1, &read(10, 10)).expect_ok();
        assert_eq!(t2 - t1, SimDuration::from_micros(1000));
        assert_eq!(d.stats().rotation_time, rot_before);
    }

    #[test]
    fn track_crossing_adds_head_switch() {
        let mut d = test_disk();
        // 150 sectors from LBA 0: 100 on head 0, head switch (500 us),
        // 50 on head 1. Skew is zero on the test disk, so the switch is
        // a pure cost.
        let done = d.submit(SimTime::ZERO, &read(0, 150)).expect_ok();
        let expect = SimDuration::from_micros(100) * 150 + SimDuration::from_micros(500);
        assert_eq!(done, SimTime::ZERO + expect);
    }

    #[test]
    fn cylinder_crossing_adds_track_to_track_seek() {
        let mut d = test_disk();
        // A full cylinder is 400 sectors; read 410 starting at 0:
        // 3 head switches within cylinder 0 plus one cylinder switch.
        let done = d.submit(SimTime::ZERO, &read(0, 410)).expect_ok();
        let expect = SimDuration::from_micros(100) * 410
            + SimDuration::from_micros(500) * 3
            + SimDuration::from_millis(1); // track-to-track = 1 ms calibration
        assert_eq!(done, SimTime::ZERO + expect);
    }

    #[test]
    fn writes_cost_at_least_as_much_as_reads() {
        let m = DiskModel::hp_c3325();
        let mut dr = Disk::new(m.clone(), SimDuration::ZERO);
        let mut dw = Disk::new(m, SimDuration::ZERO);
        let tr = dr.submit(SimTime::ZERO, &read(5000, 16)).expect_ok();
        let tw = dw.submit(SimTime::ZERO, &write(5000, 16)).expect_ok();
        assert!(tw >= tr, "write {tw} < read {tr}");
    }

    #[test]
    fn arm_position_persists_between_requests() {
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(4000, 1)).expect_ok(); // cylinder 10
        d.submit(t1, &read(4000, 1)).expect_ok(); // same cylinder: no seek
        assert_eq!(d.stats().seek_time, SimDuration::from_millis(2));
    }

    #[test]
    fn cache_hit_skips_mechanics() {
        let mut d = Disk::new(DiskModel::test_disk(), SimDuration::ZERO)
            .with_cache(SegmentedCache::new(4, 256));
        let t1 = d.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let t2 = d.submit(t1, &read(50, 8)).expect_ok();
        // Bus time for 8 sectors at 10 MB/s = 409.6 us, well under the
        // mechanical time.
        assert!(t2 - t1 < SimDuration::from_millis(1));
        assert_eq!(d.stats().cache_hits, 1);
    }

    #[test]
    fn write_invalidates_cache() {
        let mut d = Disk::new(DiskModel::test_disk(), SimDuration::ZERO)
            .with_cache(SegmentedCache::new(4, 256));
        let t1 = d.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let t2 = d.submit(t1, &write(52, 2)).expect_ok();
        let t3 = d.submit(t2, &read(50, 8)).expect_ok();
        assert_eq!(d.stats().cache_hits, 0);
        assert!(t3 - t2 > SimDuration::from_millis(1));
    }

    #[test]
    fn spin_phase_shifts_rotation() {
        let mut a = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let mut b = Disk::new(DiskModel::test_disk(), SimDuration::from_millis(5));
        let ta = a.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        let tb = b.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
        assert_ne!(ta, tb);
    }

    #[test]
    fn spin_synchronised_disks_agree() {
        let mut a = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let mut b = Disk::new(DiskModel::test_disk(), SimDuration::ZERO);
        let ta = a.submit(SimTime::from_millis(3), &read(70, 4)).expect_ok();
        let tb = b.submit(SimTime::from_millis(3), &read(70, 4)).expect_ok();
        assert_eq!(ta, tb);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = test_disk();
        let t1 = d.submit(SimTime::ZERO, &read(0, 4)).expect_ok();
        d.submit(t1, &write(4000, 4)).expect_ok();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors, 8);
        assert!(s.busy_time > SimDuration::ZERO);
    }

    #[test]
    fn failed_disk_reports_failed_outcome() {
        let mut d = test_disk();
        d.fail();
        assert_eq!(d.submit(SimTime::ZERO, &read(0, 1)), IoOutcome::Failed);
    }

    #[test]
    fn replace_restores_service_with_a_fresh_history() {
        let mut d = test_disk();
        let t = d.submit(SimTime::ZERO, &read(0, 4)).expect_ok();
        assert!(t > SimTime::ZERO);
        d.fail();
        assert!(d.is_failed());
        d.replace();
        assert!(!d.is_failed());
        // The spare carries none of the pulled unit's state.
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().busy_time, SimDuration::ZERO);
        assert_eq!(d.free_at(), SimTime::ZERO);
        let _ = d.submit(SimTime::ZERO, &read(0, 1)).expect_ok();
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_request_rejected() {
        let mut d = test_disk();
        let cap = d.capacity_sectors();
        let _ = d.submit(SimTime::ZERO, &read(cap - 1, 2)).expect_ok();
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn overflowing_request_rejected() {
        // `lba + sectors` wraps past u64::MAX; the check must still
        // refuse it rather than overflow (debug) or wrap past (release).
        let mut d = test_disk();
        let _ = d.submit(SimTime::ZERO, &read(u64::MAX - 1, 4));
    }

    #[test]
    fn c3325_small_read_service_time_plausible() {
        // A random 8 KB read on the C3325 should land in the 10-30 ms
        // band (overhead + avg seek ~10ms + avg rotation ~5.5ms +
        // ~1.5ms transfer).
        let mut d = Disk::new(DiskModel::hp_c3325(), SimDuration::ZERO);
        let mut total = SimDuration::ZERO;
        let mut t = SimTime::ZERO;
        let mut rng = afraid_sim::rng::SplitMix64::new(42);
        let cap = d.capacity_sectors();
        for _ in 0..200 {
            let lba = rng.next_below(cap - 16);
            let begin = t + SimDuration::from_millis(50); // idle gaps
            let done = d.submit(begin, &read(lba, 16)).expect_ok();
            total += done - begin;
            t = done;
        }
        let mean_ms = total.as_millis_f64() / 200.0;
        assert!((10.0..30.0).contains(&mean_ms), "mean service {mean_ms} ms");
    }

    use crate::fault::{FailSlowWindow, FaultProfile};
    use afraid_sim::rng::SplitMix64;
    use proptest::prelude::*;

    fn profile(media: f64, timeout: f64) -> FaultProfile {
        FaultProfile {
            media_error_per_io: media,
            timeout_per_io: timeout,
            command_timeout: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn media_error_consumes_full_service() {
        let mut faulty = test_disk();
        faulty.set_fault_injector(FaultInjector::new(profile(1.0, 0.0), SplitMix64::new(1)));
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        match faulty.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::MediaError(at) => assert_eq!(at, ok),
            other => panic!("expected media error, got {other:?}"),
        }
        assert_eq!(faulty.stats().media_errors, 1);
        assert_eq!(faulty.stats().reads, 0);
        assert_eq!(faulty.free_at(), ok);
    }

    #[test]
    fn timeout_occupies_the_drive_for_the_command_timeout() {
        let mut d = test_disk();
        d.set_fault_injector(FaultInjector::new(profile(0.0, 1.0), SplitMix64::new(1)));
        match d.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::Timeout(at) => {
                assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(500));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(d.stats().timeouts, 1);
        assert_eq!(d.free_at(), SimTime::from_millis(500));
    }

    #[test]
    fn fail_slow_inflates_service_and_overruns_the_timeout() {
        // Inside the window every mechanical service is multiplied;
        // once the inflated service exceeds the command timeout the
        // controller hears a timeout at the deadline while the drive
        // keeps grinding until the inflated completion.
        let mut d = test_disk();
        d.set_fault_injector(
            FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1)).with_fail_slow(
                FailSlowWindow {
                    start: SimTime::ZERO,
                    until: SimTime::from_secs(100),
                    factor: 200.0,
                },
            ),
        );
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let service = ok.since(SimTime::ZERO);
        match d.submit(SimTime::ZERO, &read(50, 8)) {
            IoOutcome::Timeout(at) => {
                assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(500));
            }
            other => panic!("expected overrun timeout, got {other:?}"),
        }
        assert_eq!(d.free_at(), SimTime::ZERO + service.mul_f64(200.0));
    }

    #[test]
    fn patient_mode_serves_slow_commands_without_timeouts() {
        let mut d = test_disk();
        d.set_fault_injector(
            FaultInjector::new(profile(1.0, 0.0), SplitMix64::new(1)).with_fail_slow(
                FailSlowWindow {
                    start: SimTime::ZERO,
                    until: SimTime::from_secs(100),
                    factor: 200.0,
                },
            ),
        );
        d.set_patient(true);
        let mut clean = test_disk();
        let ok = clean.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        let done = d.submit(SimTime::ZERO, &read(50, 8)).expect_ok();
        assert_eq!(done, SimTime::ZERO + ok.since(SimTime::ZERO).mul_f64(200.0));
        assert_eq!(d.stats().media_errors, 0);
        assert_eq!(d.stats().timeouts, 0);
    }

    #[test]
    fn inert_injector_leaves_completions_bit_identical() {
        let mut with = test_disk();
        with.set_fault_injector(FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(9)));
        let mut without = test_disk();
        let mut t_with = SimTime::ZERO;
        let mut t_without = SimTime::ZERO;
        for lba in [0u64, 4000, 50, 123, 9000] {
            t_with = with.submit(t_with, &read(lba, 8)).expect_ok();
            t_without = without.submit(t_without, &read(lba, 8)).expect_ok();
            assert_eq!(t_with, t_without);
        }
    }

    /// The closed-form service model the tables must reproduce:
    /// `Geometry::locate`, `sectors_per_track`, `SeekProfile::time` and
    /// `DiskModel::revolution` evaluated per request, wrapped in
    /// `submit`'s fault handling (no on-drive cache).
    struct ClosedForm {
        model: DiskModel,
        phase: SimDuration,
        cur_cyl: u32,
        free_at: SimTime,
        stats: DiskStats,
        faults: Option<FaultInjector>,
    }

    impl ClosedForm {
        fn new(model: DiskModel, phase: SimDuration) -> Self {
            ClosedForm {
                model,
                phase,
                cur_cyl: 0,
                free_at: SimTime::ZERO,
                stats: DiskStats::default(),
                faults: None,
            }
        }

        fn service_time(&mut self, start: SimTime, req: &DiskRequest) -> SimDuration {
            let m = &self.model;
            let g = &m.geometry;
            let overhead = match req.op {
                OpKind::Read => m.read_overhead,
                OpKind::Write => m.write_overhead,
            };
            let target = g.locate(req.lba);
            let seek = m.seek.time(self.cur_cyl.abs_diff(target.cyl));

            let at = start + overhead + seek;
            let spt = g.sectors_per_track(target.cyl);
            let skew = u64::from(target.head) * u64::from(m.track_skew)
                + u64::from(target.cyl) * u64::from(m.cylinder_skew);
            let slot = (u64::from(target.sector) + skew) % u64::from(spt);
            let rev_ns = m.revolution().as_nanos();
            let angle = (at.as_nanos() + self.phase.as_nanos()) % rev_ns;
            let slot_ns = (u128::from(slot) * u128::from(rev_ns) / u128::from(spt)) as u64;
            let rot = SimDuration::from_nanos(if slot_ns >= angle {
                slot_ns - angle
            } else {
                rev_ns - (angle - slot_ns)
            });

            let mut chs = target;
            let mut left = req.sectors;
            let mut transfer = SimDuration::ZERO;
            loop {
                let spt = g.sectors_per_track(chs.cyl);
                let on_track = u64::from(spt - chs.sector).min(left);
                transfer += m.sector_time(spt) * on_track;
                left -= on_track;
                if left == 0 {
                    break;
                }
                chs.sector = 0;
                if chs.head + 1 < g.heads() {
                    chs.head += 1;
                    transfer += m.head_switch;
                } else {
                    chs.head = 0;
                    chs.cyl += 1;
                    transfer += m.seek.track_to_track();
                }
            }
            self.cur_cyl = g.locate(req.lba + req.sectors - 1).cyl;

            self.stats.seek_time += seek;
            self.stats.rotation_time += rot;
            self.stats.transfer_time += transfer;
            overhead + seek + rot + transfer
        }

        fn submit(&mut self, now: SimTime, req: &DiskRequest) -> IoOutcome {
            let start = now.max(self.free_at);
            let mut service = self.service_time(start, req);
            if let Some(inj) = &mut self.faults {
                let factor = inj.slow_factor(start);
                if factor > 1.0 {
                    service = service.mul_f64(factor);
                }
                match inj.draw() {
                    Fault::MediaError => {
                        self.free_at = start + service;
                        self.stats.busy_time += service;
                        self.stats.media_errors += 1;
                        return IoOutcome::MediaError(self.free_at);
                    }
                    Fault::Timeout => {
                        let hang = inj.command_timeout();
                        self.free_at = start + hang;
                        self.stats.busy_time += hang;
                        self.stats.timeouts += 1;
                        return IoOutcome::Timeout(self.free_at);
                    }
                    Fault::None => {
                        if !inj.is_patient() && service > inj.command_timeout() {
                            let report = start + inj.command_timeout();
                            self.free_at = start + service;
                            self.stats.busy_time += service;
                            self.stats.timeouts += 1;
                            return IoOutcome::Timeout(report);
                        }
                    }
                }
            }
            self.free_at = start + service;
            self.stats.busy_time += service;
            self.stats.sectors += req.sectors;
            match req.op {
                OpKind::Read => self.stats.reads += 1,
                OpKind::Write => self.stats.writes += 1,
            }
            IoOutcome::Ok(self.free_at)
        }
    }

    fn presets() -> impl Strategy<Value = DiskModel> {
        prop_oneof![
            Just(DiskModel::hp_c3325()),
            Just(DiskModel::hp_c2247()),
            Just(DiskModel::barracuda_7200()),
            Just(DiskModel::test_disk()),
        ]
    }

    /// Picks a request's first sector. Besides uniform draws, `kind`
    /// aims runs across the boundaries the transfer walk handles: a
    /// zone change, a track (head) switch, a cylinder switch, the
    /// disk's last sector, and a sequential continuation.
    fn aim(g: &crate::geometry::Geometry, kind: u8, raw: u64, sectors: u64, prev_end: u64) -> u64 {
        let cap = g.capacity_sectors();
        let before = (raw >> 32) % sectors.max(2);
        let lba = match kind {
            0 => raw % (cap - sectors + 1),
            1 => {
                // End of a zone: the last cylinder of zone `k`.
                let zones = g.zones();
                let k = raw as usize % zones.len();
                let end_cyl: u32 = zones.iter().take(k + 1).map(|z| z.cylinders).sum();
                let first_next = if end_cyl == g.cylinders() {
                    cap
                } else {
                    g.lba_of(Chs {
                        cyl: end_cyl,
                        head: 0,
                        sector: 0,
                    })
                };
                first_next.saturating_sub(1 + before)
            }
            2 | 3 => {
                // End of a track; on the last head, of a cylinder.
                let cyl = (raw % u64::from(g.cylinders())) as u32;
                let head = if kind == 3 {
                    g.heads() - 1
                } else {
                    ((raw >> 16) % u64::from(g.heads())) as u32
                };
                let spt = g.sectors_per_track(cyl);
                let sector = spt - 1 - (before % u64::from(spt)) as u32;
                g.lba_of(Chs { cyl, head, sector })
            }
            4 => cap - sectors,
            _ => prev_end,
        };
        lba.min(cap - sectors)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The table-driven `Disk::submit` matches the closed form
        /// outcome by outcome, with identical statistics and arm
        /// position, for both spin phases (synchronised and offset),
        /// with and without a fault process, at times past 2^32 ns.
        #[test]
        fn tables_match_closed_form(
            model in presets(),
            (phase_k, clock, faulty) in (0u64..4, 0u64..3, any::<bool>()),
            reqs in prop::collection::vec(
                (0u8..6, any::<u64>(), 1u64..900, any::<bool>(), 0u64..40_000_000),
                1..60,
            ),
        ) {
            // Phase 0 is the spin-synchronised array; k/4 of a
            // revolution is an offset spindle.
            let phase = model.revolution() * phase_k / 4;
            let mut disk = Disk::new(model.clone(), phase);
            let mut oracle = ClosedForm::new(model.clone(), phase);
            if faulty {
                let inj = FaultInjector::new(profile(0.05, 0.02), SplitMix64::new(phase_k))
                    .with_fail_slow(FailSlowWindow {
                        start: SimTime::ZERO,
                        until: SimTime::from_secs(1 << 20),
                        factor: 3.0,
                    });
                disk.set_fault_injector(inj.clone());
                oracle.faults = Some(inj);
            }
            // Start at zero, just below 2^32 ns, or far above it.
            let mut now = SimTime::from_nanos([0, (1 << 32) - 1_000_000, 1 << 44][clock as usize]);
            let cap = disk.capacity_sectors();
            let mut prev_end = 0;
            for (kind, raw, sectors, is_write, gap) in reqs {
                let sectors = sectors.min(cap);
                let lba = aim(&model.geometry, kind, raw, sectors, prev_end);
                let op = if is_write { OpKind::Write } else { OpKind::Read };
                let req = DiskRequest { lba, sectors, op };
                let got = disk.submit(now, &req);
                let want = oracle.submit(now, &req);
                prop_assert_eq!(got, want, "request {:?} at {}", req, now);
                prop_assert_eq!(disk.cur_cyl, oracle.cur_cyl);
                prop_assert_eq!(disk.free_at(), oracle.free_at);
                prop_assert_eq!(format!("{:?}", disk.stats()), format!("{:?}", oracle.stats));
                prev_end = (lba + sectors) % cap;
                now += SimDuration::from_nanos(gap);
            }
        }
    }

    /// The boundary cases of the oracle test, pinned: each crosses the
    /// boundary it names on every preset.
    #[test]
    fn tables_match_closed_form_at_boundaries() {
        for model in [
            DiskModel::hp_c3325(),
            DiskModel::hp_c2247(),
            DiskModel::barracuda_7200(),
            DiskModel::test_disk(),
        ] {
            let g = &model.geometry;
            let cap = g.capacity_sectors();
            let zone0_end = g.lba_of(Chs {
                cyl: g.zones()[0].cylinders - 1,
                head: g.heads() - 1,
                sector: g.zones()[0].sectors_per_track - 1,
            });
            let spt0 = u64::from(g.sectors_per_track(0));
            let per_cyl0 = spt0 * u64::from(g.heads());
            let cases = [
                (zone0_end - 3, 600), // zone (and cylinder) crossing
                (spt0 - 2, 5),        // track crossing
                (per_cyl0 - 2, 5),    // cylinder crossing
                (cap - 1, 1),         // the last sector alone
                (cap - 700, 700),     // a run ending on the last sector
                (0, 1),
            ];
            for phase in [SimDuration::ZERO, model.revolution() / 3] {
                let mut disk = Disk::new(model.clone(), phase);
                let mut oracle = ClosedForm::new(model.clone(), phase);
                let mut now = SimTime::from_nanos((1 << 32) + 12_345);
                for (lba, sectors) in cases {
                    let lba = lba.min(cap - sectors);
                    for op in [OpKind::Read, OpKind::Write] {
                        let req = DiskRequest { lba, sectors, op };
                        assert_eq!(disk.submit(now, &req), oracle.submit(now, &req));
                        assert_eq!(disk.cur_cyl, oracle.cur_cyl);
                        now += SimDuration::from_millis(7);
                    }
                }
                assert_eq!(format!("{:?}", disk.stats()), format!("{:?}", oracle.stats));
            }
        }
    }
}
