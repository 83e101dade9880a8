//! Deterministic event queue with cancellation.
//!
//! The queue orders events by `(time, insertion sequence)`: events
//! scheduled for the same instant are delivered in the order they were
//! scheduled. This tie-break is what makes whole-simulation runs
//! reproducible — a plain priority structure over time alone would
//! deliver same-time events in an unspecified order. Storage is a
//! `BinaryHeap`, O(log n) per schedule/pop.
//!
//! Cancellation is lazy and `O(1)`, through a slot table. The heap
//! orders small `(time, seq, slot)` keys; each key owns a slot that
//! holds its event while the event is *pending* (scheduled, not yet
//! delivered or cancelled). An [`EventId`] names the slot and the
//! slot's generation when the event was scheduled.
//! [`EventQueue::cancel`] empties a pending slot of the right
//! generation, leaving its key behind as a tombstone.
//! [`EventQueue::pop`] and [`EventQueue::peek_time`] discard tombstones
//! as they surface at the front, so each cancelled entry is swept
//! exactly once over its lifetime (counted by [`EventQueue::scan_ops`]).
//! A slot is freed, and its generation bumped, only when its entry
//! leaves the heap; a stale id whose slot has since been reused
//! therefore never matches. Timers that are re-armed frequently (the
//! idle detector) rely on this being cheap.
//!
//! [`EventQueue::schedule_batch`] admits a burst of events with one
//! heap maintenance pass (std's tail sift-up or rebuild, whichever is
//! cheaper); the controller uses it for multi-disk I/O bursts.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, used to cancel it: the
/// slot tracking the event and the slot's generation at scheduling.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    generation: u64,
}

/// Stored heap key: ordered by time, then by insertion sequence. The
/// event waits in the key's slot, so sifts move only the key.
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// `(time, seq)` as one integer, so a sift compares once, without
    /// a branch on equal times.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

struct Slot<E> {
    /// Bumped each time the slot is freed, so ids issued for earlier
    /// occupants stop matching.
    generation: u64,
    /// The event while it is pending; `None` once it is cancelled
    /// (its key is a tombstone) or while the slot is free.
    event: Option<E>,
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use afraid_sim::queue::EventQueue;
/// use afraid_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let id = q.schedule(SimTime::from_millis(5), "timer");
/// q.schedule(SimTime::from_millis(1), "io");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "io")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Reusable staging buffer for `schedule_batch`, so a burst costs
    /// one heap maintenance pass and no allocation at steady state.
    staged: Vec<Reverse<Entry>>,
    /// One slot per stored key, plus the free ones.
    /// Invariant: `slots.len() == heap.len() + free.len()`.
    slots: Vec<Slot<E>>,
    /// Free slot indices, reused last-in first-out.
    free: Vec<u32>,
    /// Slots holding a pending event. The live tombstone count is
    /// `heap.len() - live`.
    live: usize,
    next_seq: u64,
    /// Tombstoned entries swept so far. Every cancelled event is
    /// counted exactly once, when its entry is discarded from the
    /// front — there is no per-`cancel` linear scan. Exposed so tests
    /// can assert the cost model rather than wall-clock time.
    scan_ops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            staged: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            scan_ops: 0,
        }
    }

    /// Asserts the slot-table/heap consistency invariants (debug
    /// builds only): every stored entry owns exactly one slot and
    /// every other slot is free, and the live count never exceeds the
    /// stored entries. Checked at every mutation; a violation would
    /// mean a live event can never fire.
    fn check_invariant(&self) {
        debug_assert!(
            self.slots.len() == self.heap.len() + self.free.len() && self.live <= self.heap.len(),
            "event queue invariant broken: {} slots, {} stored entries, {} free, {} live",
            self.slots.len(),
            self.heap.len(),
            self.free.len(),
            self.live
        );
    }

    /// Parks `event` in a free slot (or grows the table).
    fn claim_slot(&mut self, event: E) -> EventId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            // Free-list indices always name existing slots; the table
            // never shrinks.
            if let Some(s) = self.slots.get_mut(slot as usize) {
                s.event = Some(event);
                return EventId {
                    slot,
                    generation: s.generation,
                };
            }
        }
        // A slot per stored key: `u32` outlasts any heap that fits in
        // memory.
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: 0,
            event: Some(event),
        });
        EventId {
            slot,
            generation: 0,
        }
    }

    /// Frees `slot` after its key left the heap, returning its event
    /// if it was pending; `None` means the key was a tombstone.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = self.slots.get_mut(slot as usize)?;
        let event = s.event.take();
        s.generation += 1;
        self.free.push(slot);
        if event.is_some() {
            self.live -= 1;
        }
        event
    }

    /// Schedules `event` to fire at `time` and returns a handle that can
    /// cancel it. Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.claim_slot(event);
        self.heap.push(Reverse(Entry {
            time,
            seq,
            slot: id.slot,
        }));
        self.check_invariant();
        id
    }

    /// Schedules a burst of events in one maintenance pass.
    ///
    /// Sequence numbers are assigned in iteration order, so the
    /// delivered order is exactly what a loop of [`EventQueue::schedule`]
    /// calls would produce — batching is a cost optimisation, never a
    /// semantic change. The heap is maintained once for the whole
    /// burst: it sifts the new keys up or rebuilds, whichever is
    /// cheaper.
    pub fn schedule_batch<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        for (time, event) in items {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = self.claim_slot(event).slot;
            self.staged.push(Reverse(Entry { time, seq, slot }));
        }
        // std's `extend` appends the keys, then picks sift-up or rebuild.
        self.heap.extend(self.staged.drain(..));
        self.check_invariant();
    }

    /// Cancels a previously scheduled event in `O(1)`.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered, already-cancelled, or unknown id
    /// is a no-op returning `false`. The stored entry stays behind as a
    /// tombstone and is discarded when it reaches the front.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // A delivered or swept event's slot has a newer generation; a
        // cancelled one is empty.
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.generation == id.generation && s.event.is_some() => {
                s.event = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest live event, skipping tombstones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let Some(Reverse(entry)) = self.heap.pop() else {
                self.check_invariant();
                return None;
            };
            if let Some(event) = self.release(entry.slot) {
                self.check_invariant();
                return Some((entry.time, event));
            }
            // Tombstone: cancelled earlier, swept now, exactly once.
            self.scan_ops += 1;
        }
    }

    /// The time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Fast path: no tombstones anywhere in the heap, nothing to
        // drain. This is the common case — cancels are rare relative to
        // schedules in every workload we model.
        if self.heap.len() != self.live {
            self.drain_tombstones();
        }
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of live (not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total tombstoned entries discarded so far; a measure of the work
    /// cancellation has cost this queue. Bounded above by the number of
    /// successful [`EventQueue::cancel`] calls.
    pub fn scan_ops(&self) -> u64 {
        self.scan_ops
    }

    /// Discards tombstoned entries off the front so `peek` sees a live
    /// entry.
    fn drain_tombstones(&mut self) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            let slot = entry.slot;
            let pending = self
                .slots
                .get(slot as usize)
                .is_some_and(|s| s.event.is_some());
            if pending {
                break;
            }
            self.heap.pop();
            self.release(slot);
            self.scan_ops += 1;
        }
        self.check_invariant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q: EventQueue<i64> = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_fifo() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_matches_loop_order() {
        let mut q: EventQueue<i64> = EventQueue::new();
        q.schedule(SimTime::from_millis(5), -1);
        q.schedule_batch([
            (SimTime::from_millis(2), 2),
            (SimTime::from_millis(1), 1),
            (SimTime::from_millis(2), 3),
            (SimTime::from_millis(9), 4),
        ]);
        q.schedule(SimTime::from_millis(2), 5);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Same-instant ties resolve in submission order across the
        // batch boundary: 2 and 3 (batched) before 5 (scheduled).
        assert_eq!(order, vec![1, 2, 3, 5, -1, 4]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        q.schedule_batch(std::iter::empty());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 42,
            generation: 0
        }));
    }

    #[test]
    fn peek_skips_tombstones() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn peek_empty() {
        let mut q: EventQueue<i64> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_millis(i as u64), i))
            .collect();
        assert_eq!(q.len(), 10);
        q.cancel(ids[4]);
        q.cancel(ids[7]);
        assert_eq!(q.len(), 8);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 8);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let step = SimDuration::from_millis(1);
        q.schedule(now + step, 0);
        let mut delivered = Vec::new();
        while let Some((t, e)) = q.pop() {
            now = t;
            delivered.push(e);
            if e < 5 {
                // Each event schedules its successor, like a timer
                // chain.
                q.schedule(now + step, e + 1);
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(now, SimTime::from_millis(6));
    }

    /// The cost-model regression test: 100k schedule/cancel pairs
    /// against a deep queue must not trigger any linear scanning. The
    /// only work is sweeping each tombstone once, so the operation
    /// counter is bounded by the number of cancels. Asserted via the
    /// counter, not wall clock, so the test is robust on slow CI
    /// machines.
    #[test]
    fn cancel_heavy_workload_stays_cheap() {
        const PAIRS: u64 = 100_000;
        let mut q: EventQueue<i64> = EventQueue::new();
        // A deep base of long-lived events.
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_millis(10_000_000 + i), -1);
        }
        for i in 0..PAIRS {
            // Re-armed timer pattern: schedule near the front, then
            // cancel before it fires.
            let id = q.schedule(SimTime::from_millis(i), i as i64);
            assert!(q.cancel(id));
            if i % 16 == 0 {
                // Interleave peeks so tombstone draining participates.
                assert_eq!(q.peek_time(), Some(SimTime::from_millis(10_000_000)));
            }
        }
        assert_eq!(q.len(), 1_000);
        // Each cancelled entry is swept at most once, ever.
        assert!(
            q.scan_ops() <= PAIRS,
            "cancel-heavy workload did linear work: {} scan ops for {} cancels",
            q.scan_ops(),
            PAIRS
        );
        // Delivery is unaffected: all base events still pop, in order.
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 1_000);
        assert_eq!(q.scan_ops(), PAIRS);
    }

    /// Naive reference model of the queue contract: a flat `Vec` kept
    /// sorted by descending `(time, seq)`, so the last entry is the
    /// minimum; cancel is a linear remove. Slow, but obviously correct.
    #[derive(Default)]
    struct Reference {
        entries: Vec<(u64, u64, i64)>,
        next_seq: u64,
    }

    impl Reference {
        fn schedule(&mut self, time: u64, payload: i64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let at = self.entries.partition_point(|e| (e.0, e.1) > (time, seq));
            self.entries.insert(at, (time, seq, payload));
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            let found = self.entries.iter().position(|e| e.1 == seq);
            found.map(|i| self.entries.remove(i)).is_some()
        }

        fn pop(&mut self) -> Option<(SimTime, i64)> {
            let (time, _, payload) = self.entries.pop()?;
            Some((SimTime::from_nanos(time), payload))
        }
    }

    /// Deterministic churn: the heap delivers exactly the reference
    /// model's event sequence on a 100k-op interleaved
    /// schedule/cancel/pop program with clustered (same-instant) times.
    #[test]
    fn heap_matches_reference_on_churn_program() {
        use crate::rng::SplitMix64;

        let mut q: EventQueue<i64> = EventQueue::new();
        let mut model = Reference::default();
        let mut rng = SplitMix64::new(0xAF1D_0009);
        let mut now = 0u64;
        let mut live_ids: Vec<(EventId, u64)> = Vec::new();
        for i in 0..100_000u64 {
            match rng.next_u64() % 10 {
                // Schedule (60%): clustered times so ties are common.
                0..=5 => {
                    let t = now + (rng.next_u64() % 8) * 250;
                    let id = q.schedule(SimTime::from_nanos(t), i as i64);
                    live_ids.push((id, model.schedule(t, i as i64)));
                }
                // Cancel (20%).
                6 | 7 => {
                    if !live_ids.is_empty() {
                        let k = (rng.next_u64() as usize) % live_ids.len();
                        let (id, seq) = live_ids.swap_remove(k);
                        assert_eq!(q.cancel(id), model.cancel(seq));
                    }
                }
                // Pop (20%).
                _ => {
                    let got = q.pop();
                    assert_eq!(got, model.pop(), "divergence at op {i}");
                    if let Some((t, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            assert_eq!(q.len(), model.entries.len());
        }
        loop {
            let got = q.pop();
            assert_eq!(got, model.pop(), "divergence in final drain");
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn stale_id_after_slot_reuse_is_rejected() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let old = q.schedule(SimTime::from_millis(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        let new = q.schedule(SimTime::from_millis(2), 2);
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert_ne!(new.generation, old.generation);
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));

        // Likewise once a cancelled occupant's tombstone is swept.
        let gone = q.schedule(SimTime::from_millis(3), 3);
        assert!(q.cancel(gone));
        assert_eq!(q.pop(), None);
        let next = q.schedule(SimTime::from_millis(4), 4);
        assert_eq!(next.slot, gone.slot);
        assert!(!q.cancel(gone));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert!(q.cancel(next));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_delivery_and_double_cancel_return_false() {
        let mut q: EventQueue<i64> = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        let b = q.schedule(SimTime::from_millis(2), 2);
        assert!(q.cancel(b));
        // Double cancel while the tombstone is still stored.
        assert!(!q.cancel(b));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        // Cancel after delivery.
        assert!(!q.cancel(a));
        // `a`'s slot goes to `c`; neither old id touches it.
        let c = q.schedule(SimTime::from_millis(3), 3);
        assert_eq!(c.slot, a.slot);
        assert!(!q.cancel(a));
        assert!(!q.cancel(b));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 3)));
        assert!(!q.cancel(c));
        assert!(!q.cancel(b));
        assert_eq!(q.scan_ops(), 1);
        assert_eq!(q.pop(), None);
    }

    /// Reference for the cost model: cancelled entries stay stored as
    /// tombstones until they reach the front, so it predicts
    /// `scan_ops` as well as the delivered sequence and `len`.
    #[derive(Default)]
    struct SweepReference {
        /// `(time, seq, payload, cancelled)`, sorted descending.
        entries: Vec<(u64, u64, i64, bool)>,
        next_seq: u64,
        swept: u64,
    }

    impl SweepReference {
        fn schedule(&mut self, time: u64, payload: i64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let at = self.entries.partition_point(|e| (e.0, e.1) > (time, seq));
            self.entries.insert(at, (time, seq, payload, false));
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.entries.iter_mut().find(|e| e.1 == seq && !e.3) {
                Some(e) => {
                    e.3 = true;
                    true
                }
                None => false,
            }
        }

        fn sweep(&mut self) {
            while self.entries.last().is_some_and(|e| e.3) {
                self.entries.pop();
                self.swept += 1;
            }
        }

        fn pop(&mut self) -> Option<(SimTime, i64)> {
            self.sweep();
            let (time, _, payload, _) = self.entries.pop()?;
            Some((SimTime::from_nanos(time), payload))
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.sweep();
            self.entries.last().map(|e| SimTime::from_nanos(e.0))
        }

        fn len(&self) -> usize {
            self.entries.iter().filter(|e| !e.3).count()
        }
    }

    /// A small live set recycles slots constantly; `len` and
    /// `scan_ops` must match the sweep model after every operation,
    /// while live and stale ids are cancelled.
    #[test]
    fn len_and_scan_ops_match_reference_under_slot_reuse() {
        use crate::rng::SplitMix64;

        let mut q: EventQueue<i64> = EventQueue::new();
        let mut model = SweepReference::default();
        let mut rng = SplitMix64::new(0xAF1D_0015);
        let mut now = 0u64;
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut retired: Vec<(EventId, u64)> = Vec::new();
        // Payload (= op index) -> id, to retire delivered events.
        let mut by_payload: Vec<Option<(EventId, u64)>> = Vec::new();
        for i in 0..50_000u64 {
            by_payload.push(None);
            match rng.next_u64() % 10 {
                0..=3 => {
                    let t = now + (rng.next_u64() % 4) * 500;
                    let id = q.schedule(SimTime::from_nanos(t), i as i64);
                    let seq = model.schedule(t, i as i64);
                    live.push((id, seq));
                    by_payload[i as usize] = Some((id, seq));
                }
                4 | 5 => {
                    if !live.is_empty() {
                        let k = (rng.next_u64() as usize) % live.len();
                        let (id, seq) = live.swap_remove(k);
                        assert_eq!(q.cancel(id), model.cancel(seq), "op {i}");
                        retired.push((id, seq));
                    }
                }
                6 => {
                    if !retired.is_empty() {
                        let k = (rng.next_u64() as usize) % retired.len();
                        let (id, seq) = retired[k];
                        assert!(!model.cancel(seq));
                        assert!(!q.cancel(id), "stale id cancelled at op {i}");
                    }
                }
                7 => assert_eq!(q.peek_time(), model.peek_time(), "op {i}"),
                _ => {
                    let got = q.pop();
                    assert_eq!(got, model.pop(), "divergence at op {i}");
                    if let Some((t, payload)) = got {
                        now = t.as_nanos();
                        let done = by_payload[payload as usize].take();
                        let done = done.expect("delivered events were scheduled singly");
                        live.retain(|&(_, seq)| seq != done.1);
                        retired.push(done);
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "len diverged at op {i}");
            assert_eq!(q.scan_ops(), model.swept, "scan_ops diverged at op {i}");
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), model.pop());
        }
        assert_eq!(model.pop(), None);
        assert_eq!(q.scan_ops(), model.swept);
        assert!(
            q.slots.len() < 1_000,
            "slots were not reused: {}",
            q.slots.len()
        );
    }
}
