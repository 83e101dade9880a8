//! Property test: the event queue is observationally identical to a
//! naive reference model on arbitrary interleaved
//! schedule/cancel/pop/peek programs — including same-instant ties,
//! batched bursts, cancel-heavy churn, and stale ids cancelled after
//! their slot has been reused. The reference is a flat
//! list popped by minimum `(time, seq)` with linear-remove cancel, so
//! it states the `(time, seq)` total-order contract every simulation
//! result rests on with no data-structure cleverness to get wrong.

use std::collections::BTreeMap;

use afraid_sim::queue::{EventId, EventQueue};
use afraid_sim::time::SimTime;
use proptest::prelude::*;
use proptest::TestCaseError;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule one event `dt` ns after the last popped time.
    Schedule(u64),
    /// Schedule a burst of events in one `schedule_batch` call.
    Batch(Vec<u64>),
    /// Cancel the id at `index % live` (no-op when none are live).
    Cancel(usize),
    /// Cancel again the retired (delivered or cancelled) id at
    /// `index % retired`: by now its slot has usually been reused.
    CancelStale(usize),
    Pop,
    Peek,
}

/// The reference model: entries kept sorted by descending
/// `(time, seq)` so the last one is the minimum; cancel is a linear
/// remove.
#[derive(Default)]
struct Reference {
    entries: Vec<(u64, u64, u64)>,
    next_seq: u64,
}

impl Reference {
    fn schedule(&mut self, time: u64, payload: u64) -> u64 {
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

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (time, _, payload) = self.entries.pop()?;
        Some((SimTime::from_nanos(time), payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| SimTime::from_nanos(e.0))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

fn programs() -> impl Strategy<Value = Vec<Op>> {
    // Offsets are drawn from a tiny grid (multiples of 250 ns) so
    // same-instant collisions — the case where tie-breaking matters —
    // are common rather than vanishingly rare.
    let dt = (0u64..8).prop_map(|k| k * 250);
    prop::collection::vec(
        prop_oneof![
            dt.clone().prop_map(Op::Schedule),
            prop::collection::vec(dt, 0..12).prop_map(Op::Batch),
            (0usize..1 << 16).prop_map(Op::Cancel),
            (0usize..1 << 16).prop_map(Op::CancelStale),
            Just(Op::Pop),
            Just(Op::Peek),
        ],
        1..300,
    )
}

/// Runs `program` against the queue and the reference in lockstep,
/// comparing every observable: pop results, peek times, live counts,
/// cancel outcomes.
fn run_lockstep(program: &[Op]) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Reference::default();
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    let mut retired: Vec<(EventId, u64)> = Vec::new();
    // Payload -> id of events scheduled singly, to retire them on
    // delivery.
    let mut by_payload: BTreeMap<u64, (EventId, u64)> = BTreeMap::new();
    let mut now = 0u64;
    let mut payload = 0u64;
    for (step, op) in program.iter().enumerate() {
        match op {
            Op::Schedule(dt) => {
                let id = q.schedule(SimTime::from_nanos(now + dt), payload);
                let handle = (id, model.schedule(now + dt, payload));
                ids.push(handle);
                by_payload.insert(payload, handle);
                payload += 1;
            }
            Op::Batch(dts) => {
                let base = payload;
                q.schedule_batch(
                    dts.iter()
                        .enumerate()
                        .map(|(i, dt)| (SimTime::from_nanos(now + dt), base + i as u64)),
                );
                for dt in dts {
                    model.schedule(now + dt, payload);
                    payload += 1;
                }
            }
            Op::Cancel(index) => {
                if !ids.is_empty() {
                    let (id, seq) = ids.swap_remove(index % ids.len());
                    prop_assert_eq!(
                        q.cancel(id),
                        model.cancel(seq),
                        "cancel outcome diverged at step {}",
                        step
                    );
                    retired.push((id, seq));
                }
            }
            Op::CancelStale(index) => {
                if !retired.is_empty() {
                    let (id, seq) = retired[index % retired.len()];
                    prop_assert!(!model.cancel(seq));
                    prop_assert!(!q.cancel(id), "stale id cancelled at step {}", step);
                }
            }
            Op::Pop => {
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(
                    got,
                    want,
                    "pop diverged at step {}: {:?} vs {:?}",
                    step,
                    got,
                    want
                );
                if let Some((t, p)) = got {
                    now = t.as_nanos();
                    if let Some(handle) = by_payload.remove(&p) {
                        retired.push(handle);
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(
                    q.peek_time(),
                    model.peek_time(),
                    "peek diverged at step {}",
                    step
                );
            }
        }
        prop_assert_eq!(q.len(), model.len(), "len diverged at step {}", step);
    }
    // Final drain: every remaining event comes out identically.
    loop {
        let got = q.pop();
        let want = model.pop();
        prop_assert_eq!(got, want, "final drain diverged: {:?} vs {:?}", got, want);
        if got.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary interleaved programs deliver the reference sequence.
    #[test]
    fn queue_matches_reference_model(program in programs()) {
        run_lockstep(&program)?;
    }
}

/// 100k-scale churn, beyond what the random programs reach: a sustained
/// schedule/cancel/pop mix with bimodal spacing, driving many tombstone
/// sweeps through the heap.
#[test]
fn queue_matches_reference_at_100k_churn() {
    use afraid_sim::rng::SplitMix64;

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Reference::default();
    let mut rng = SplitMix64::new(0xAF1D_0900);
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    // Ids of delivered or cancelled events.
    let mut retired: Vec<(EventId, u64)> = Vec::new();
    let mut by_payload: BTreeMap<u64, (EventId, u64)> = BTreeMap::new();
    let mut now = 0u64;
    let mut cancelled = 0u64;
    for i in 0..100_000u64 {
        match rng.next_u64() % 8 {
            0..=3 => {
                // Bimodal spacing: dense completions plus occasional
                // far-out timers, the shape the simulator produces.
                let dt = if rng.next_u64().is_multiple_of(16) {
                    1_000_000_000 + rng.next_u64() % 1_000_000
                } else {
                    (rng.next_u64() % 64) * 100
                };
                let id = q.schedule(SimTime::from_nanos(now + dt), i);
                let handle = (id, model.schedule(now + dt, i));
                ids.push(handle);
                by_payload.insert(i, handle);
            }
            4 | 5 => {
                if !ids.is_empty() {
                    let k = (rng.next_u64() as usize) % ids.len();
                    let (id, seq) = ids.swap_remove(k);
                    let live = model.cancel(seq);
                    assert_eq!(q.cancel(id), live);
                    cancelled += u64::from(live);
                    retired.push((id, seq));
                }
                // Re-cancel a retired id: its slot has usually been
                // reused by a later event, which must stay live.
                if !retired.is_empty() {
                    let (id, seq) = retired[i as usize % retired.len()];
                    assert!(!model.cancel(seq));
                    assert!(!q.cancel(id), "stale id cancelled at op {i}");
                }
            }
            _ => {
                let got = q.pop();
                assert_eq!(got, model.pop(), "divergence at op {i}");
                if let Some((t, p)) = got {
                    now = t.as_nanos();
                    if let Some(handle) = by_payload.remove(&p) {
                        retired.push(handle);
                    }
                }
            }
        }
        assert_eq!(q.len(), model.len(), "len diverged at op {i}");
    }
    loop {
        let got = q.pop();
        assert_eq!(got, model.pop(), "divergence in final drain");
        if got.is_none() {
            break;
        }
    }
    // Once drained, every cancelled entry has been swept exactly once.
    assert_eq!(q.scan_ops(), cancelled, "tombstone accounting diverged");
}
