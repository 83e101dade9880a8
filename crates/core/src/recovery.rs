//! Post-failure recovery: the crash-replay state machine and the
//! paper's analytic recovery-time models.
//!
//! # Crash recovery ([`CrashImage`] / [`replay`])
//!
//! AFRAID's availability argument rests on one mechanism: after a
//! crash or power loss, the NVRAM dirty-stripe bitmap plus the
//! surviving disks are *sufficient* to reconstruct a fully redundant
//! array without losing any byte the design did not already price in.
//! [`CrashImage`] captures exactly the state that survives a power
//! cut — the marking memory, the durable content words, and which
//! disk (if any) is dead — and [`replay`] runs the recovery state
//! machine a real controller would run at power-on:
//!
//! 1. **No dead disk**: every marked stripe gets its parity rebuilt
//!    from the (intact) data units; unmarked stripes are trusted
//!    as-is. Spuriously dirty stripes — marked, but consistent,
//!    because the crash landed between the mark and the deferred
//!    write — cost one wasted scrub and nothing else.
//! 2. **Dead disk, stripe's parity on it**: all data survives;
//!    recovery recomputes parity onto the spare.
//! 3. **Dead disk, stripe's data on it, unmarked**: parity is
//!    current, so the unit is reconstructed as the XOR of the
//!    survivors.
//! 4. **Dead disk, stripe's data on it, marked**: the parity may be
//!    stale, so the reconstruction value is *undefined*; recovery
//!    declares the unit lost (the paper's bounded exposure) and
//!    absorbs the XOR value as its defined content so the array
//!    leaves recovery consistent.
//! 5. **NVRAM also lost**: every stripe is suspect (the marking
//!    memory reports [`MarkingMemory::has_failed`] and marks
//!    everything), so case 4 applies to every stripe whose data sits
//!    on the dead disk — a conservative superset of the true loss,
//!    never a silent pass.
//!
//! The chaos harness (`afraid-chaos`) byte-checks the outcome against
//! the shadow model's ground truth at thousands of cut points per
//! trace.
//!
//! # Analytic time models
//!
//! Two sweeps matter in the paper's §3:
//!
//! * After a **disk replacement**, every stripe's lost unit is
//!   reconstructed onto the spare: a whole-disk read of each survivor
//!   plus a whole-disk write, bandwidth-limited by one spindle's
//!   sustained rate, slowed by whatever fraction of disk time client
//!   traffic keeps taking. Its duration is the MTTR window during
//!   which a second failure is catastrophic.
//! * After a **marking-memory failure**, parity must be rebuilt for
//!   the whole array ("about ten minutes for an array using 2 GB
//!   disks that can read at a sustained rate of 5 MB/s"); a disk
//!   failure inside that window has unbounded-but-small exposure.

use afraid_disk::model::DiskModel;
use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::controller::Controller;
use crate::integrity::IntegrityState;
use crate::nvram::MarkingMemory;
use crate::shadow::ShadowArray;
use crate::stripeset::StripeSet;

/// The state that survives a power cut, captured at an event
/// boundary.
///
/// Everything else the controller holds — the event queue, in-flight
/// requests, scrub and rebuild batches, retry state, health scores —
/// is volatile and deliberately absent: a crash erases it, and
/// recovery must succeed without it.
#[derive(Clone, Debug)]
pub struct CrashImage {
    /// NVRAM contents: the only controller metadata that survives.
    pub marks: MarkingMemory,
    /// Ground-truth durable content words of every unit, as of the
    /// cut. Writes are durable at issue in the shadow model, so this
    /// is "what the platters hold" at the event boundary.
    pub shadow: ShadowArray,
    /// The dead disk, if the array was degraded at the cut (or the
    /// crash itself took a disk — see [`CrashImage::kill_disk`]).
    pub failed_disk: Option<u32>,
    /// `(stripe, unit)` pairs already declared lost *before* the
    /// crash: scarred units whose reconstruction garbage was absorbed
    /// as defined content when the disk failed mid-run.
    pub scarred: Vec<(u64, u32)>,
    /// The integrity subsystem's state at the cut, when enabled. The
    /// checksum map models NVRAM/on-platter block-integrity metadata
    /// (written with the data it covers), so it survives a power cut
    /// and anchors the power-on write-intent cross-check.
    pub integrity: Option<IntegrityState>,
    /// True once the marking memory's contents are untrusted.
    pub nvram_failed: bool,
    /// Simulated instant of the cut.
    pub at: SimTime,
    /// Events processed before the power was cut.
    pub events_processed: u64,
    /// The rebuild sweep's cursor at the cut, if one was running.
    /// Informational: recovery restarts the sweep from scratch.
    pub rebuild_cursor: Option<u64>,
    /// Disk draining toward a health eviction at the cut, if any.
    /// Informational: the drain is volatile and dies with the crash.
    pub evicting: Option<u32>,
}

impl CrashImage {
    /// Captures the crash-durable state of a halted controller.
    /// Returns `None` when the configuration has no shadow model —
    /// recovery verification is meaningless without ground truth.
    pub fn capture(c: &Controller, events_processed: u64) -> Option<CrashImage> {
        let shadow = c.shadow()?.clone();
        Some(CrashImage {
            marks: c.marks().clone(),
            shadow,
            failed_disk: c.dead_disk(),
            scarred: c.scarred_units(),
            integrity: c.integrity_state().cloned(),
            nvram_failed: c.marks().has_failed(),
            at: c.now(),
            events_processed,
            rebuild_cursor: c.rebuild_cursor(),
            evicting: c.evicting_disk(),
        })
    }

    /// The rows recovery has to look at: the marked rows and every row
    /// the shadow array or the integrity map has changed. Every other
    /// row is unmarked, holds its seed content and verifies against its
    /// seed intents.
    pub fn touched_rows(&self) -> StripeSet {
        let mut rows = self.shadow.changed_rows().clone();
        for stripe in self.marks.marked_from(0, usize::MAX) {
            rows.insert(stripe);
        }
        if let Some(int) = &self.integrity {
            rows.union_with(int.changed_rows());
        }
        rows
    }

    /// The crash takes disk `disk` with it: its platters are
    /// unreadable at power-on. The shadow words are left intact (they
    /// are the harness's ground truth); [`replay`] scrambles the dead
    /// disk's words before reconstructing them.
    ///
    /// # Panics
    ///
    /// Panics if a disk is already dead — a double failure loses the
    /// array outright, which is outside the recovery model.
    pub fn kill_disk(&mut self, disk: u32) {
        assert!(
            self.failed_disk.is_none(),
            "disk {} already dead: a second failure is array loss",
            self.failed_disk.unwrap_or(u32::MAX)
        );
        assert!(disk < self.shadow.layout().disks(), "no such disk {disk}");
        self.failed_disk = Some(disk);
    }

    /// The crash takes the NVRAM with it: the marking memory reports
    /// failed and every stripe becomes suspect, exactly as
    /// [`MarkingMemory::fail`] models.
    pub fn kill_nvram(&mut self) {
        self.marks.fail();
        self.nvram_failed = true;
    }
}

/// One data unit recovery declares unrecoverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LostUnit {
    /// Stripe index.
    pub stripe: u64,
    /// Data unit index within the stripe.
    pub unit: u32,
    /// Disk the unit lived on (the dead disk).
    pub disk: u32,
}

/// What the power-on replay did, plus the recovered array state.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// The recovered durable contents: every stripe parity-consistent.
    pub shadow: ShadowArray,
    /// The marking memory after recovery: no stripe marked.
    pub marks: MarkingMemory,
    /// Marked stripes whose parity was actually stale and rebuilt.
    pub scrubbed: u64,
    /// Marked stripes that were already consistent (the crash landed
    /// between the mark and the deferred data write).
    pub spurious_marks: u64,
    /// Dead-disk units reconstructed from the survivors.
    pub reconstructed: u64,
    /// Data units declared lost, in stripe order. Conservative: with
    /// a failed NVRAM this covers every dead-disk data unit.
    pub declared_lost: Vec<LostUnit>,
    /// Silent corruptions the power-on cross-check repaired
    /// byte-exactly from surviving redundancy.
    pub corrupt_repaired: u64,
    /// Silent corruptions the cross-check detected but could not
    /// repair (stale or dead redundancy), in stripe order. Their
    /// platter content is absorbed as defined, never silently passed.
    pub corrupt_declared: Vec<LostUnit>,
    /// The integrity state after recovery, when the image carried one:
    /// checksums re-anchored on every declare, registry drained of
    /// everything the cross-check resolved.
    pub integrity: Option<IntegrityState>,
}

/// Word pattern written over the dead disk before reconstruction, so
/// the byte-check can only pass if the survivors truly reproduce the
/// contents.
const SCRAMBLE: u64 = 0xdead_dead_dead_dead;

/// Runs the power-on recovery state machine over a crash image. See
/// the module docs for the five cases.
///
/// The replay uses only information a real controller has at
/// power-on: the marking memory and the surviving disks' contents.
/// The dead disk's word in each stored row is scrambled before that
/// row is reconstructed, so nothing can leak through. One pass
/// walks the [touched rows](CrashImage::touched_rows) in order; each
/// stripe's work touches only its own row. An untouched row is a
/// consistent, unmarked seed row whose units all verify: without a
/// dead disk recovery has nothing to do there, and with one the dead
/// unit reconstructs to exactly its seed content. Those rows are
/// counted as reconstructed in bulk and left as they are.
pub fn replay(image: &CrashImage) -> RecoveryOutcome {
    let mut shadow = image.shadow.clone();
    let mut marks = image.marks.clone();
    let mut integrity = image.integrity.clone();
    let layout = *shadow.layout();
    let rows = image.touched_rows();

    let mut scrubbed = 0u64;
    let mut spurious_marks = 0u64;
    // Every untouched row's dead unit, if a disk is dead.
    let mut reconstructed = match image.failed_disk {
        Some(_) => layout.stripes() - rows.len(),
        None => 0,
    };
    let mut declared_lost: Vec<LostUnit> = Vec::new();
    let mut corrupt_repaired = 0u64;
    let mut corrupt_declared: Vec<LostUnit> = Vec::new();

    for stripe in rows.iter() {
        let marked = marks.is_marked(stripe);
        let pd = layout.parity_disk(stripe);
        // The disk of each data unit, in unit order: the inverse of
        // `Layout::data_disk` without a division per unit.
        let data_disks = (0u32..).zip((pd + 1..layout.disks()).chain(0..pd));
        // A seed row reconstructs every unit to itself, so scrambling
        // its dead unit and storing the reconstruction back would
        // change nothing: it stays unstored.
        let seed_row = !shadow.changed_rows().contains(stripe);
        if let Some(f) = image.failed_disk.filter(|_| !seed_row) {
            shadow.set_word(stripe, f, SCRAMBLE ^ stripe);
        }
        match image
            .failed_disk
            .map(|f| (f, layout.unit_on_disk(stripe, f)))
        {
            None => {
                // Power-on write-intent cross-check: every surviving
                // data unit is verified against its checksum *before*
                // any parity rebuild could launder a torn or lost
                // write into a consistent-looking stripe. Mismatches
                // on a marked stripe have no repair candidate (the
                // mark means stale parity) and are declared; on an
                // unmarked stripe the XOR candidate is tried first.
                if let Some(int) = &mut integrity {
                    for (unit, disk) in data_disks {
                        let w = shadow.word(stripe, disk);
                        if int.verify(stripe, unit, w) {
                            continue;
                        }
                        if marked {
                            int.record_declare(stripe, unit, w);
                            corrupt_declared.push(LostUnit { stripe, unit, disk });
                            continue;
                        }
                        let candidate = shadow.xor_survivors(stripe, disk);
                        if int.verify(stripe, unit, candidate) {
                            // Parity still encodes the client's
                            // intent: byte-exact repair.
                            shadow.set_word(stripe, disk, candidate);
                            int.record_repair(stripe, unit);
                            corrupt_repaired += 1;
                        } else {
                            int.record_declare(stripe, unit, w);
                            corrupt_declared.push(LostUnit { stripe, unit, disk });
                            // Re-anchor parity on the absorbed content
                            // so the stripe leaves recovery consistent.
                            shadow.rebuild_parity(stripe);
                        }
                    }
                }
                // Pure power loss: data is all present; only parity
                // may be stale, and only on marked stripes.
                if marked {
                    if shadow.parity_consistent(stripe) {
                        spurious_marks += 1;
                    } else {
                        shadow.rebuild_parity(stripe);
                        scrubbed += 1;
                    }
                    marks.clear(stripe);
                }
            }
            Some((_, None)) => {
                // The dead disk held this stripe's parity: all data
                // survives; recompute parity onto the spare. A mark
                // here meant "parity stale", which is now moot. Rot on
                // a data unit has no redundancy left to repair from —
                // declared, never laundered by the rebuild.
                if let Some(int) = &mut integrity {
                    for (unit, disk) in data_disks {
                        let w = shadow.word(stripe, disk);
                        if int.verify(stripe, unit, w) {
                            continue;
                        }
                        int.record_declare(stripe, unit, w);
                        corrupt_declared.push(LostUnit { stripe, unit, disk });
                    }
                }
                shadow.rebuild_parity(stripe);
                reconstructed += 1;
                if marked {
                    marks.clear(stripe);
                }
            }
            Some((f, Some(unit))) => {
                // Survivor rot first: a degraded array has no spare
                // redundancy, so mismatching survivors are declared
                // as-is (and poison the reconstruction below, which
                // the candidate checksum then catches).
                if let Some(int) = &mut integrity {
                    for (u, disk) in data_disks.filter(|&(u, _)| u != unit) {
                        let w = shadow.word(stripe, disk);
                        if int.verify(stripe, u, w) {
                            continue;
                        }
                        int.record_declare(stripe, u, w);
                        corrupt_declared.push(LostUnit {
                            stripe,
                            unit: u,
                            disk,
                        });
                    }
                }
                let xor = shadow.xor_survivors(stripe, f);
                if marked {
                    // Parity may be stale: the XOR value is undefined
                    // garbage. Declare the unit lost, absorb the
                    // garbage as its defined content (the array must
                    // leave recovery consistent), and report.
                    declared_lost.push(LostUnit {
                        stripe,
                        unit,
                        disk: f,
                    });
                    marks.clear(stripe);
                    if let Some(int) = &mut integrity {
                        int.absorb(stripe, unit, xor);
                    }
                } else {
                    match &mut integrity {
                        Some(int) if !int.verify(stripe, unit, xor) => {
                            // The reconstruction candidate fails its
                            // checksum — a survivor lied. Without the
                            // cross-check this garbage would have been
                            // counted a successful reconstruction.
                            int.record_declare(stripe, unit, xor);
                            corrupt_declared.push(LostUnit {
                                stripe,
                                unit,
                                disk: f,
                            });
                        }
                        Some(int) => {
                            if int.kind_of(stripe, unit).is_some() {
                                // The rot was on the dead unit itself;
                                // parity still encoded the intent and
                                // the failure healed the lie.
                                int.record_repair(stripe, unit);
                                corrupt_repaired += 1;
                            }
                            reconstructed += 1;
                        }
                        None => reconstructed += 1,
                    }
                }
                if !seed_row {
                    shadow.set_word(stripe, f, xor);
                }
            }
        }
    }

    RecoveryOutcome {
        shadow,
        marks,
        scrubbed,
        spurious_marks,
        reconstructed,
        declared_lost,
        corrupt_repaired,
        corrupt_declared,
        integrity,
    }
}

/// Time to rebuild a replaced disk, reading the survivors and writing
/// the spare at the disk's sustained rate, with `client_load` of the
/// disk time consumed by foreground traffic.
///
/// # Panics
///
/// Panics if `client_load` is not in `[0, 1)`.
pub fn disk_rebuild_time(model: &DiskModel, client_load: f64) -> SimDuration {
    assert!(
        (0.0..1.0).contains(&client_load),
        "client load must be in [0,1): {client_load}"
    );
    let bytes = model.geometry.capacity_bytes() as f64;
    let rate = model.sustained_rate() * (1.0 - client_load);
    SimDuration::from_secs_f64(bytes / rate)
}

/// Time for the conservative whole-array parity sweep after an NVRAM
/// failure: one full pass over every disk in parallel, i.e. one
/// whole-disk read at the sustained rate (parity writes overlap the
/// reads of the next stripes).
pub fn nvram_rescan_time(model: &DiskModel, client_load: f64) -> SimDuration {
    // Same sweep shape as a rebuild: bounded by one spindle pass.
    disk_rebuild_time(model, client_load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::nvram::MarkGranularity;
    use std::collections::BTreeSet;

    /// A hand-built crash image over a 5-disk, 20-stripe array.
    fn image() -> CrashImage {
        // 8 KB units are 16 sectors; 320 sectors per disk = 20 stripes.
        let layout = Layout::new(5, 8192, 320);
        CrashImage {
            marks: MarkingMemory::new(layout.stripes(), MarkGranularity::STRIPE),
            shadow: ShadowArray::new(layout),
            failed_disk: None,
            scarred: Vec::new(),
            integrity: None,
            nvram_failed: false,
            at: SimTime::ZERO,
            events_processed: 0,
            rebuild_cursor: None,
            evicting: None,
        }
    }

    #[test]
    fn power_loss_rebuilds_marked_parity_only() {
        let mut img = image();
        // Stripe 3: deferred write — data updated, parity stale, mark
        // set. Stripe 7: spurious mark (crash before the data write).
        img.shadow.write_data(3, 1, 0xabcd);
        img.marks.mark(3, 0, 1);
        img.marks.mark(7, 0, 1);
        let out = replay(&img);
        assert_eq!(out.scrubbed, 1);
        assert_eq!(out.spurious_marks, 1);
        assert_eq!(out.reconstructed, 0);
        assert!(out.declared_lost.is_empty());
        assert_eq!(out.marks.marked_count(), 0);
        for s in 0..img.shadow.layout().stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
        assert_eq!(
            out.shadow.data_divergence(&img.shadow, &BTreeSet::new()),
            None
        );
    }

    #[test]
    fn dead_disk_reconstructs_clean_and_declares_marked() {
        let mut img = image();
        // Stripe 2 is dirty with its data on the dead disk — lost.
        let f = 2u32;
        let layout = *img.shadow.layout();
        let stripe_with_data_on_f = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let uf = (0..layout.data_units())
            .find(|&u| layout.data_disk(stripe_with_data_on_f, u) == f)
            .unwrap();
        img.shadow.write_data(stripe_with_data_on_f, uf, 0x5555);
        img.marks.mark(stripe_with_data_on_f, 0, 1);
        img.kill_disk(f);
        let out = replay(&img);
        assert_eq!(
            out.declared_lost,
            vec![LostUnit {
                stripe: stripe_with_data_on_f,
                unit: uf,
                disk: f
            }]
        );
        // Everything else reconstructs byte-identically.
        let skip: BTreeSet<(u64, u32)> = out
            .declared_lost
            .iter()
            .map(|l| (l.stripe, l.unit))
            .collect();
        assert_eq!(out.shadow.data_divergence(&img.shadow, &skip), None);
        for s in 0..layout.stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
        assert!(out.reconstructed > 0);
    }

    #[test]
    fn nvram_loss_is_conservative_superset() {
        let mut img = image();
        let f = 1u32;
        let layout = *img.shadow.layout();
        // One truly-stale stripe with data on f.
        let victim = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let uf = (0..layout.data_units())
            .find(|&u| layout.data_disk(victim, u) == f)
            .unwrap();
        img.shadow.write_data(victim, uf, 0x9999);
        img.kill_nvram();
        img.kill_disk(f);
        let out = replay(&img);
        // Conservative: every data unit on f is declared, including
        // the one truly lost.
        let data_on_f = (0..layout.stripes())
            .filter(|&s| layout.parity_disk(s) != f)
            .count();
        assert_eq!(out.declared_lost.len(), data_on_f);
        assert!(out
            .declared_lost
            .iter()
            .any(|l| l.stripe == victim && l.unit == uf));
        assert_eq!(out.marks.marked_count(), 0);
        for s in 0..layout.stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
    }

    #[test]
    fn power_on_cross_check_repairs_unmarked_rot() {
        use crate::integrity::{CorruptKind, IntegrityState};
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(img.shadow.layout());
        // Lost write on an unmarked stripe: the RMW parity update went
        // through, the data write itself never hit the platter.
        let (s, u) = (4u64, 1u32);
        let old = img.shadow.data_word(s, u);
        let intent = 0xaaaa_u64;
        int.record_write(s, u, intent);
        int.record_injection(s, u, CorruptKind::Lost);
        img.shadow.write_data(s, u, intent);
        img.shadow.rebuild_parity(s); // parity encodes the intent
        img.shadow.set_word(s, l.data_disk(s, u), old); // data write lost
        img.integrity = Some(int);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 1);
        assert!(out.corrupt_declared.is_empty());
        assert_eq!(out.shadow.data_word(s, u), intent, "byte-exact repair");
        for stripe in 0..l.stripes() {
            assert!(out.shadow.parity_consistent(stripe), "stripe {stripe}");
        }
        let int = out.integrity.expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(int.divergence(&out.shadow, &BTreeSet::new()), None);
        assert_eq!(int.counters.repaired, 1);
    }

    #[test]
    fn power_on_cross_check_declares_marked_rot() {
        use crate::integrity::{CorruptKind, IntegrityState};
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(img.shadow.layout());
        // Lost write on a *marked* stripe (AFRAID deferred the parity):
        // the platter keeps the old word and no redundancy encodes the
        // intent — the cross-check must declare, not invent data.
        let (s, u) = (6u64, 0u32);
        int.record_write(s, u, 0xbbbb);
        int.record_injection(s, u, CorruptKind::Lost);
        img.marks.mark(s, 0, 1);
        img.integrity = Some(int);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 0);
        assert_eq!(out.corrupt_declared.len(), 1);
        assert_eq!(out.corrupt_declared[0].stripe, s);
        assert_eq!(out.corrupt_declared[0].unit, u);
        assert_eq!(out.corrupt_declared[0].disk, l.data_disk(s, u));
        assert_eq!(out.marks.marked_count(), 0);
        for stripe in 0..l.stripes() {
            assert!(out.shadow.parity_consistent(stripe), "stripe {stripe}");
        }
        // The declared unit's platter content was absorbed as defined:
        // recovery leaves no *silent* divergence behind.
        let int = out.integrity.expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(int.divergence(&out.shadow, &BTreeSet::new()), None);
        assert_eq!(int.counters.declared, 1);
        assert_eq!(int.counters.detected, 1);
    }

    #[test]
    fn power_on_cross_check_visits_rows_only_the_checksum_map_changed() {
        use crate::integrity::{CorruptKind, IntegrityState};
        let mut img = image();
        let mut int = IntegrityState::new(img.shadow.layout());
        // The whole write was lost, parity update included: the shadow
        // row is still a seed row and the stripe is unmarked, so only
        // the checksum map knows the row changed.
        let (s, u) = (8u64, 2u32);
        int.record_write(s, u, 0xcccc);
        int.record_injection(s, u, CorruptKind::Lost);
        img.integrity = Some(int);
        assert!(img.shadow.changed_rows().is_empty());

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 0);
        assert_eq!(out.corrupt_declared.len(), 1);
        assert_eq!(
            (out.corrupt_declared[0].stripe, out.corrupt_declared[0].unit),
            (s, u)
        );
        let int = out.integrity.expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(int.divergence(&out.shadow, &BTreeSet::new()), None);
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_disk_kill_rejected() {
        let mut img = image();
        img.kill_disk(0);
        img.kill_disk(1);
    }

    #[test]
    fn paper_ten_minute_rescan() {
        // "about ten minutes for an array using 2GB disks that can
        // read at a sustained rate of 5MB/s".
        let m = DiskModel::hp_c3325();
        let t = nvram_rescan_time(&m, 0.0);
        let minutes = t.as_secs_f64() / 60.0;
        assert!((5.0..12.0).contains(&minutes), "rescan {minutes} min");
    }

    #[test]
    fn client_load_stretches_rebuild() {
        let m = DiskModel::hp_c3325();
        let free = disk_rebuild_time(&m, 0.0);
        let busy = disk_rebuild_time(&m, 0.5);
        assert!((busy.as_secs_f64() / free.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rebuild_well_inside_mttr_budget() {
        // Table 1 assumes a 48 h MTTR; the mechanical rebuild itself is
        // minutes, so the repair window is dominated by humans and
        // spares logistics, not the sweep.
        let m = DiskModel::hp_c3325();
        let t = disk_rebuild_time(&m, 0.9);
        assert!(t.as_secs_f64() < 48.0 * 3600.0 / 10.0);
    }

    #[test]
    #[should_panic(expected = "client load")]
    fn rejects_full_load() {
        let _ = disk_rebuild_time(&DiskModel::hp_c3325(), 1.0);
    }
}
