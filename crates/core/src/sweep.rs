//! The background sweep batch: one lifecycle shared by the parity
//! scrub, the latent-error tour and the spare rebuild.
//!
//! Each sweep works in batches of stripes. A batch is planned by the
//! controller, issues a *read* phase of disk I/Os, then a *write*
//! phase, then settles (clears marks, repairs, advances a cursor) and
//! decides whether to continue. Every I/O of a phase completes into
//! the same [`SweepKind`]-tagged event carrying the batch id; this
//! module owns the bookkeeping that is identical across the three
//! sweeps:
//!
//! * batch ids, drawn from one counter shared by every kind, so a
//!   completion of an abandoned batch is recognised as stale;
//! * the pending-I/O count and phase of the batch in flight;
//! * the stripes a batch holds against client writes;
//! * the stripes whose I/O exhausted its retries.
//!
//! What a phase *does* — planning extents, clearing marks, repairing
//! latent errors, writing the spare — stays in the controller, which
//! owns the marking memory, shadow model and integrity state.
//!
//! Each kind has its own batch slot because the kinds may overlap: a
//! parity point, a policy-forced scrub or an eviction drain can start a
//! scrub batch while a tour batch is in flight (the tour locks nothing,
//! so the two never contend for a stripe). Idle-time scrubs and tours
//! never overlap: a tour batch is planned only while no scrub batch is
//! active.

/// Which background sweep a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    /// Parity scrub: rebuild the parity of dirty stripes.
    Scrub,
    /// Latent-error tour: read every sector, repair what fails.
    Tour,
    /// Spare rebuild: reconstruct the dead disk onto the spare.
    Rebuild,
}

/// Which half of its lifecycle a batch is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SweepPhase {
    /// Reading the batch's extents.
    Read,
    /// Writing parity, repairs or the spare's copy.
    Write,
}

/// One in-flight sweep batch.
#[derive(Debug)]
pub(crate) struct SweepBatch {
    id: u64,
    phase: SweepPhase,
    pending: u32,
    stripes: Vec<u64>,
    /// Stripes whose I/O exhausted its retries, in discovery order.
    failed: Vec<u64>,
}

impl SweepBatch {
    /// The batch id its completion events carry.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The batch's stripes, in planning order.
    pub(crate) fn stripes(&self) -> &[u64] {
        &self.stripes
    }

    /// First stripe and stripe count of a contiguous batch (tour and
    /// rebuild batches are runs of adjacent stripes).
    pub(crate) fn span(&self) -> (u64, u64) {
        let first = self.stripes.first().copied().unwrap_or(0);
        (first, self.stripes.len() as u64)
    }

    /// Starts `phase` with `pending` I/Os outstanding.
    pub(crate) fn enter(&mut self, phase: SweepPhase, pending: u32) {
        self.phase = phase;
        self.pending = pending;
    }

    /// True if an I/O covering `stripe` exhausted its retries.
    pub(crate) fn failed(&self, stripe: u64) -> bool {
        self.failed.contains(&stripe)
    }

    /// True if any I/O of the batch exhausted its retries.
    pub(crate) fn any_failed(&self) -> bool {
        !self.failed.is_empty()
    }
}

/// The batch slots of the three sweeps plus the shared id counter.
#[derive(Debug, Default)]
pub(crate) struct Sweeps {
    scrub: Option<SweepBatch>,
    tour: Option<SweepBatch>,
    rebuild: Option<SweepBatch>,
    next_id: u64,
}

impl Sweeps {
    fn slot_mut(&mut self, kind: SweepKind) -> &mut Option<SweepBatch> {
        match kind {
            SweepKind::Scrub => &mut self.scrub,
            SweepKind::Tour => &mut self.tour,
            SweepKind::Rebuild => &mut self.rebuild,
        }
    }

    /// Draws the id for a new batch. Ids are never reused, so events
    /// of an abandoned batch can never match a later one.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Installs the batch `id` of `kind` in its read phase with
    /// `pending` I/Os issued.
    pub(crate) fn begin(&mut self, kind: SweepKind, id: u64, stripes: Vec<u64>, pending: u32) {
        *self.slot_mut(kind) = Some(SweepBatch {
            id,
            phase: SweepPhase::Read,
            pending,
            stripes,
            failed: Vec::new(),
        });
    }

    /// The batch of `kind` in flight, if any.
    pub(crate) fn get(&self, kind: SweepKind) -> Option<&SweepBatch> {
        match kind {
            SweepKind::Scrub => self.scrub.as_ref(),
            SweepKind::Tour => self.tour.as_ref(),
            SweepKind::Rebuild => self.rebuild.as_ref(),
        }
    }

    /// Mutable [`Self::get`].
    pub(crate) fn get_mut(&mut self, kind: SweepKind) -> Option<&mut SweepBatch> {
        self.slot_mut(kind).as_mut()
    }

    /// True while a batch of `kind` is in flight.
    pub(crate) fn active(&self, kind: SweepKind) -> bool {
        self.get(kind).is_some()
    }

    /// Removes the batch of `kind`: it finished, or it is abandoned
    /// and its remaining completions become stale.
    pub(crate) fn take(&mut self, kind: SweepKind) -> Option<SweepBatch> {
        self.slot_mut(kind).take()
    }

    /// True if an in-flight batch holds `stripe` against client
    /// writes. Tour batches hold nothing: tour reads only sample sector
    /// readability, so racing client writes are harmless to them.
    pub(crate) fn locks(&self, stripe: u64) -> bool {
        [&self.scrub, &self.rebuild]
            .into_iter()
            .flatten()
            .any(|b| b.stripes.contains(&stripe))
    }

    /// Counts one completed I/O of batch `id` of `kind`. Returns the
    /// phase that just finished when it was the phase's last I/O;
    /// `None` while I/Os are outstanding or when the event is stale
    /// (the batch was abandoned or replaced).
    pub(crate) fn complete_io(&mut self, kind: SweepKind, id: u64) -> Option<SweepPhase> {
        let b = self.get_mut(kind).filter(|b| b.id == id)?;
        b.pending -= 1;
        (b.pending == 0).then_some(b.phase)
    }

    /// Records that an I/O of batch `id` of `kind`, covering stripes
    /// `first..=last`, exhausted its retries. Ignored when the batch
    /// is no longer in flight.
    pub(crate) fn record_failure(&mut self, kind: SweepKind, id: u64, first: u64, last: u64) {
        let Some(b) = self.get_mut(kind).filter(|b| b.id == id) else {
            return;
        };
        for s in first..=last {
            if b.stripes.contains(&s) && !b.failed.contains(&s) {
                b.failed.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_finish_phases_and_stale_ids_are_dropped() {
        let mut sw = Sweeps::default();
        let old = sw.next_id();
        let id = sw.next_id();
        sw.begin(SweepKind::Scrub, id, vec![4, 5], 2);
        assert_eq!(sw.complete_io(SweepKind::Scrub, old), None, "stale id");
        assert_eq!(sw.complete_io(SweepKind::Tour, id), None, "other kind");
        assert_eq!(sw.complete_io(SweepKind::Scrub, id), None);
        assert_eq!(sw.complete_io(SweepKind::Scrub, id), Some(SweepPhase::Read));
        if let Some(b) = sw.get_mut(SweepKind::Scrub) {
            b.enter(SweepPhase::Write, 1);
        }
        assert_eq!(
            sw.complete_io(SweepKind::Scrub, id),
            Some(SweepPhase::Write)
        );
        assert!(sw.take(SweepKind::Scrub).is_some());
        assert!(!sw.active(SweepKind::Scrub));
    }

    #[test]
    fn tour_batches_lock_nothing() {
        let mut sw = Sweeps::default();
        let tour = sw.next_id();
        sw.begin(SweepKind::Tour, tour, vec![1, 2, 3], 5);
        assert!(!sw.locks(2));
        let rebuild = sw.next_id();
        sw.begin(SweepKind::Rebuild, rebuild, vec![2, 3], 4);
        assert!(sw.locks(2) && !sw.locks(1));
    }

    #[test]
    fn failures_record_only_the_batch_stripes_once() {
        let mut sw = Sweeps::default();
        let id = sw.next_id();
        sw.begin(SweepKind::Scrub, id, vec![7, 9], 2);
        sw.record_failure(SweepKind::Scrub, id + 1, 7, 9);
        assert!(sw.get(SweepKind::Scrub).is_some_and(|b| !b.any_failed()));
        sw.record_failure(SweepKind::Scrub, id, 6, 9);
        sw.record_failure(SweepKind::Scrub, id, 9, 9);
        let b = sw.get(SweepKind::Scrub);
        assert!(b.is_some_and(|b| b.failed(7) && !b.failed(8) && b.failed(9)));
        assert_eq!(b.map(|b| b.failed.len()), Some(2));
    }
}
