//! The non-volatile marking memory.
//!
//! AFRAID's only hardware addition over a plain RAID 5: one bit per
//! stripe in NVRAM, set when a write makes the stripe's parity stale
//! and cleared when the scrubber has rebuilt it. "Attempting to
//! re-mark an already-marked stripe does nothing."
//!
//! Paper §5 refinement: with `M` bits per stripe the marking can be
//! kept per *sub-row* — horizontal slices of the stripe 1/M of a
//! stripe unit tall — so the scrubber only reads the dirty fraction of
//! each unit when a small write touched a small part of the stripe.
//! [`MarkingMemory`] implements general `M >= 1`
//! ([`MarkGranularity`]); the baseline design is `M = 1`.

use serde::{Deserialize, Serialize};

/// Number of marking bits per stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkGranularity(u32);

impl MarkGranularity {
    /// The baseline: one bit per stripe.
    pub const STRIPE: MarkGranularity = MarkGranularity(1);

    /// `m` bits per stripe, each covering a horizontal 1/m slice of
    /// every unit in the stripe.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= 64` (rows are stored as a u64 mask).
    pub fn rows(m: u32) -> MarkGranularity {
        assert!((1..=64).contains(&m), "granularity must be 1..=64, got {m}");
        MarkGranularity(m)
    }

    /// Bits per stripe.
    pub fn bits(self) -> u32 {
        self.0
    }
}

/// The dirty-stripe bitmap.
///
/// # Examples
///
/// ```
/// use afraid::nvram::{MarkGranularity, MarkingMemory};
///
/// let mut m = MarkingMemory::new(100, MarkGranularity::STRIPE);
/// m.mark(7, 0, 1);
/// assert!(m.is_marked(7));
/// assert_eq!(m.marked_count(), 1);
/// m.clear(7);
/// assert!(!m.is_marked(7));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MarkingMemory {
    /// Per-stripe row masks; non-zero = stripe unredundant.
    rows: Vec<u64>,
    granularity: MarkGranularity,
    /// Count of stripes with a non-zero mask.
    dirty: u64,
    /// Dirty-stripe index, one bit per stripe (bit `s % 64` of word
    /// `s / 64`), so the scrubber's sweep skips clean stretches a word
    /// at a time (an implementation index, not part of the modelled
    /// NVRAM cost).
    dirty_bits: Vec<u64>,
    /// One bit per `dirty_bits` word, set while that word is non-zero.
    summary: Vec<u64>,
    /// True after a simulated NVRAM failure: contents untrusted.
    failed: bool,
}

/// `bits` zero bits, packed into words.
fn zero_bits(bits: usize) -> Vec<u64> {
    vec![0; bits.div_ceil(64)]
}

/// `bits` one bits, packed into words: the tail past `bits` stays zero.
fn full_bits(bits: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; bits.div_ceil(64)];
    if let Some(last) = words.last_mut() {
        if !bits.is_multiple_of(64) {
            *last = (1u64 << (bits % 64)) - 1;
        }
    }
    words
}

impl MarkingMemory {
    /// Creates a clean marking memory for `stripes` stripes.
    pub fn new(stripes: u64, granularity: MarkGranularity) -> MarkingMemory {
        let dirty_bits = zero_bits(stripes as usize);
        MarkingMemory {
            rows: vec![0; stripes as usize],
            granularity,
            dirty: 0,
            summary: zero_bits(dirty_bits.len()),
            dirty_bits,
            failed: false,
        }
    }

    /// Marking granularity.
    pub fn granularity(&self) -> MarkGranularity {
        self.granularity
    }

    /// Number of stripes tracked.
    pub fn stripes(&self) -> u64 {
        self.rows.len() as u64
    }

    /// NVRAM cost in bytes: `stripes * M` bits, rounded up. The paper's
    /// example — 5 disks, 8 KB units, 2 GB disks — costs ~32 KB per
    /// array at `M = 1`.
    pub fn memory_bytes(&self) -> u64 {
        (self.stripes() * u64::from(self.granularity.bits())).div_ceil(8)
    }

    /// Marks the sub-rows of `stripe` covered by the byte range
    /// `[row_from_byte, row_to_byte)` *within a stripe unit* of
    /// `unit_bytes`. For `M = 1` any write marks the single bit.
    /// An out-of-range `stripe` marks nothing.
    ///
    /// Re-marking is a no-op, as the paper specifies.
    ///
    /// # Panics
    ///
    /// Panics if the byte range is empty or reversed.
    pub fn mark_rows(
        &mut self,
        stripe: u64,
        unit_bytes: u64,
        row_from_byte: u64,
        row_to_byte: u64,
    ) {
        assert!(row_from_byte < row_to_byte, "empty mark range");
        assert!(row_to_byte <= unit_bytes, "mark range beyond unit");
        let m = u64::from(self.granularity.bits());
        let row_h = unit_bytes.div_ceil(m);
        let first = row_from_byte / row_h;
        let last = (row_to_byte - 1) / row_h;
        let mut mask = 0u64;
        for r in first..=last {
            mask |= 1 << r;
        }
        self.mark_mask(stripe, mask);
    }

    /// Marks `stripe` entirely (all rows). `_unit_from`/`_unit_to` are
    /// accepted for symmetry with sub-row marking.
    pub fn mark(&mut self, stripe: u64, _unit_from: u32, _unit_to: u32) {
        self.mark_mask(stripe, self.full_mask());
    }

    /// The row mask with every sub-row dirty.
    fn full_mask(&self) -> u64 {
        let m = self.granularity.bits();
        if m == 64 {
            u64::MAX
        } else {
            (1u64 << m) - 1
        }
    }

    fn mark_mask(&mut self, stripe: u64, mask: u64) {
        let Some(slot) = self.rows.get_mut(stripe as usize) else {
            return;
        };
        let newly_dirty = *slot == 0 && mask != 0;
        *slot |= mask;
        if newly_dirty {
            self.dirty += 1;
            self.set_bit(stripe);
        }
    }

    /// Sets `stripe`'s index bit and its word's summary bit.
    fn set_bit(&mut self, stripe: u64) {
        let w = (stripe / 64) as usize;
        if let Some(word) = self.dirty_bits.get_mut(w) {
            *word |= 1 << (stripe % 64);
        }
        if let Some(sum) = self.summary.get_mut(w / 64) {
            *sum |= 1 << (w % 64);
        }
    }

    /// Clears `stripe`'s index bit, and its word's summary bit when the
    /// word empties.
    fn clear_bit(&mut self, stripe: u64) {
        let w = (stripe / 64) as usize;
        let Some(word) = self.dirty_bits.get_mut(w) else {
            return;
        };
        *word &= !(1 << (stripe % 64));
        if *word == 0 {
            if let Some(sum) = self.summary.get_mut(w / 64) {
                *sum &= !(1 << (w % 64));
            }
        }
    }

    /// The dirty row mask of a stripe (0 = fully redundant, and for
    /// an out-of-range stripe).
    pub fn row_mask(&self, stripe: u64) -> u64 {
        self.rows.get(stripe as usize).copied().unwrap_or(0)
    }

    /// Fraction of the stripe's height that is dirty, in `(0, 1]`, or
    /// 0 for a clean stripe. This is the fraction of each unit the
    /// scrubber must read.
    pub fn dirty_fraction(&self, stripe: u64) -> f64 {
        let mask = self.row_mask(stripe);
        if mask == 0 {
            return 0.0;
        }
        mask.count_ones() as f64 / f64::from(self.granularity.bits())
    }

    /// True if the stripe has stale parity.
    pub fn is_marked(&self, stripe: u64) -> bool {
        self.row_mask(stripe) != 0
    }

    /// Clears a stripe after its parity has been rebuilt.
    pub fn clear(&mut self, stripe: u64) {
        let Some(slot) = self.rows.get_mut(stripe as usize) else {
            return;
        };
        if *slot != 0 {
            *slot = 0;
            self.dirty -= 1;
            self.clear_bit(stripe);
        }
    }

    /// Number of unredundant stripes.
    pub fn marked_count(&self) -> u64 {
        self.dirty
    }

    /// The lowest marked stripe at or after `from`, without wrapping:
    /// a masked probe of `from`'s index word, then the summary finds
    /// the next non-empty word.
    fn next_set(&self, from: u64) -> Option<u64> {
        let w = (from / 64) as usize;
        let here = self.dirty_bits.get(w)? & (u64::MAX << (from % 64));
        if here != 0 {
            return Some(w as u64 * 64 + u64::from(here.trailing_zeros()));
        }
        let next = w + 1;
        let mut s = next / 64;
        let mut sum = self.summary.get(s)? & (u64::MAX << (next % 64));
        while sum == 0 {
            s += 1;
            sum = *self.summary.get(s)?;
        }
        let w = s * 64 + sum.trailing_zeros() as usize;
        let word = self.dirty_bits.get(w)?;
        Some(w as u64 * 64 + u64::from(word.trailing_zeros()))
    }

    /// The lowest marked stripe at or after `from`, wrapping around.
    /// Returns `None` when everything is clean. The scrubber uses this
    /// to sweep in disk order, which is what makes coalescing adjacent
    /// stripes effective.
    pub fn next_marked(&self, from: u64) -> Option<u64> {
        if self.dirty == 0 {
            return None;
        }
        let start = from % self.stripes();
        self.next_set(start).or_else(|| self.next_set(0))
    }

    /// Up to `limit` marked stripes in cyclic order starting at
    /// `from`. The scrubber uses this to assemble a batch in one
    /// pass that skips clean stretches a word at a time.
    pub fn marked_from(&self, from: u64, limit: usize) -> Vec<u64> {
        if self.dirty == 0 || limit == 0 {
            return Vec::new();
        }
        let start = from % self.stripes();
        let upper = std::iter::successors(self.next_set(start), |&s| self.next_set(s + 1));
        let lower = std::iter::successors(self.next_set(0), |&s| self.next_set(s + 1))
            .take_while(|&s| s < start);
        upper.chain(lower).take(limit).collect()
    }

    /// The length of the run of consecutive marked stripes starting at
    /// `stripe`, capped at `max`.
    pub fn marked_run(&self, stripe: u64, max: u64) -> u64 {
        let mut len = 0;
        while len < max && self.is_marked(stripe + len) {
            len += 1;
        }
        len
    }

    /// Simulates an NVRAM failure: contents are lost and every stripe
    /// must be treated as potentially unredundant until a full-array
    /// sweep completes. Marks everything dirty (the conservative
    /// recovery the paper describes).
    pub fn fail(&mut self) {
        self.failed = true;
        let mask = self.full_mask();
        self.rows.fill(mask);
        self.dirty = self.stripes();
        self.dirty_bits = full_bits(self.rows.len());
        self.summary = full_bits(self.dirty_bits.len());
    }

    /// True once [`MarkingMemory::fail`] has been invoked.
    pub fn has_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_clear_cycle() {
        let mut m = MarkingMemory::new(16, MarkGranularity::STRIPE);
        assert_eq!(m.marked_count(), 0);
        m.mark(3, 0, 1);
        m.mark(7, 0, 1);
        assert!(m.is_marked(3));
        assert!(!m.is_marked(4));
        assert_eq!(m.marked_count(), 2);
        m.clear(3);
        assert_eq!(m.marked_count(), 1);
        assert!(!m.is_marked(3));
    }

    #[test]
    fn remark_is_noop() {
        let mut m = MarkingMemory::new(16, MarkGranularity::STRIPE);
        m.mark(3, 0, 1);
        m.mark(3, 0, 1);
        assert_eq!(m.marked_count(), 1);
        m.clear(3);
        m.clear(3);
        assert_eq!(m.marked_count(), 0);
    }

    #[test]
    fn paper_memory_cost() {
        // "With an array that is 5 disks wide and has a stripe unit
        // size of 8KB, this is ... 3 KB of memory per 1GB of stored
        // data." 1 GB of stored data = 1 GB / (4 * 8 KB) stripes
        // = 32768 stripes = 4 KB of bits -- the paper rounds per
        // 100 KB; we just check the order of magnitude.
        let stripes_per_gb = (1u64 << 30) / (4 * 8192);
        let m = MarkingMemory::new(stripes_per_gb, MarkGranularity::STRIPE);
        let kb = m.memory_bytes() as f64 / 1024.0;
        assert!((2.0..6.0).contains(&kb), "marking memory {kb} KB/GB");
    }

    #[test]
    fn next_marked_scans_in_order() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        m.mark(2, 0, 1);
        m.mark(5, 0, 1);
        m.mark(9, 0, 1);
        assert_eq!(m.next_marked(0), Some(2));
        assert_eq!(m.next_marked(3), Some(5));
        assert_eq!(m.next_marked(6), Some(9));
        // Wraps.
        assert_eq!(m.next_marked(10), Some(2));
        m.clear(2);
        m.clear(5);
        m.clear(9);
        assert_eq!(m.next_marked(0), None);
    }

    #[test]
    fn marked_run_counts_adjacent() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        for s in [3, 4, 5, 7] {
            m.mark(s, 0, 1);
        }
        assert_eq!(m.marked_run(3, 8), 3);
        assert_eq!(m.marked_run(3, 2), 2);
        assert_eq!(m.marked_run(7, 8), 1);
        assert_eq!(m.marked_run(0, 8), 0);
    }

    #[test]
    fn sub_row_marking() {
        let mut m = MarkingMemory::new(4, MarkGranularity::rows(8));
        // An 8 KB unit split into 8 rows of 1 KB. Writing bytes
        // [0, 1024) dirties only row 0.
        m.mark_rows(1, 8192, 0, 1024);
        assert_eq!(m.row_mask(1), 0b1);
        assert!((m.dirty_fraction(1) - 0.125).abs() < 1e-12);
        // Bytes [1024, 3072) dirty rows 1-2.
        m.mark_rows(1, 8192, 1024, 3072);
        assert_eq!(m.row_mask(1), 0b111);
        // A full-unit write dirties everything.
        m.mark_rows(1, 8192, 0, 8192);
        assert_eq!(m.row_mask(1), 0xff);
        assert_eq!(m.dirty_fraction(1), 1.0);
        assert_eq!(m.marked_count(), 1);
    }

    #[test]
    fn sub_row_boundary_bytes() {
        let mut m = MarkingMemory::new(4, MarkGranularity::rows(4));
        // Rows of 2 KB; a write ending exactly at a row boundary must
        // not dirty the next row.
        m.mark_rows(0, 8192, 0, 2048);
        assert_eq!(m.row_mask(0), 0b1);
        m.mark_rows(0, 8192, 2048, 2049);
        assert_eq!(m.row_mask(0), 0b11);
    }

    #[test]
    fn granularity_one_marks_whole_stripe() {
        let mut m = MarkingMemory::new(4, MarkGranularity::STRIPE);
        m.mark_rows(2, 8192, 100, 101);
        assert!(m.is_marked(2));
        assert_eq!(m.dirty_fraction(2), 1.0);
    }

    #[test]
    fn memory_cost_scales_with_granularity() {
        let base = MarkingMemory::new(1000, MarkGranularity::STRIPE).memory_bytes();
        let fine = MarkingMemory::new(1000, MarkGranularity::rows(8)).memory_bytes();
        assert_eq!(fine, base * 8);
    }

    #[test]
    fn nvram_failure_marks_everything() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        m.mark(3, 0, 1);
        m.fail();
        assert!(m.has_failed());
        assert_eq!(m.marked_count(), 10);
        for s in 0..10 {
            assert!(m.is_marked(s));
        }
    }

    #[test]
    fn full_granularity_64() {
        let mut m = MarkingMemory::new(2, MarkGranularity::rows(64));
        m.mark(0, 0, 1);
        assert_eq!(m.row_mask(0), u64::MAX);
        m.fail();
        assert_eq!(m.row_mask(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "granularity must be")]
    fn rejects_zero_granularity() {
        let _ = MarkGranularity::rows(0);
    }

    #[test]
    fn out_of_range_stripes_are_clean_no_ops() {
        let mut m = MarkingMemory::new(65, MarkGranularity::STRIPE);
        m.mark(65, 0, 1);
        m.mark_rows(1000, 8192, 0, 512);
        m.clear(200);
        assert_eq!(m.marked_count(), 0);
        assert!(!m.is_marked(65));
        assert_eq!(m.next_marked(0), None);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// The ordered-set index the bitmap replaced: the reference
        /// for `next_marked` and `marked_from`, wrap order included.
        fn model_from(set: &BTreeSet<u64>, n: u64, from: u64, limit: usize) -> Vec<u64> {
            let start = from % n;
            set.range(start..)
                .chain(set.range(..start))
                .take(limit)
                .copied()
                .collect()
        }

        /// Stripe for a drawn `raw`: half the draws land on the word
        /// and summary boundaries, where off-by-one bit errors live.
        fn stripe_for(n: u64, raw: u64) -> u64 {
            const EDGES: [u64; 10] = [0, 1, 62, 63, 64, 65, 127, 128, 4095, 4096];
            if raw.is_multiple_of(2) {
                let e = EDGES[(raw / 2 % EDGES.len() as u64) as usize];
                e.min(n - 1)
            } else {
                raw / 2 % n
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// Random mark / mark_rows / clear / fail sequences agree
            /// with a `BTreeSet` model on every query.
            #[test]
            fn bitmap_matches_ordered_set_model(
                n in prop_oneof![Just(1u64), Just(63), Just(64), Just(65), Just(2500), Just(4097)],
                bits in prop_oneof![Just(1u32), Just(8), Just(64)],
                ops in prop::collection::vec(
                    (0u32..20, any::<u64>(), any::<u64>(), 0usize..80),
                    1..160,
                ),
            ) {
                let mut m = MarkingMemory::new(n, MarkGranularity::rows(bits));
                let mut model: BTreeSet<u64> = BTreeSet::new();
                for (op, raw, from, limit) in ops {
                    let s = stripe_for(n, raw);
                    match op {
                        0..=7 => {
                            m.mark(s, 0, 1);
                            model.insert(s);
                        }
                        8..=10 => {
                            let lo = raw % 8192;
                            m.mark_rows(s, 8192, lo, 8192);
                            model.insert(s);
                        }
                        11..=18 => {
                            m.clear(s);
                            model.remove(&s);
                        }
                        _ => {
                            m.fail();
                            model = (0..n).collect();
                        }
                    }
                    prop_assert_eq!(m.marked_count(), model.len() as u64);
                    prop_assert_eq!(m.is_marked(s), model.contains(&s));
                    let probe = stripe_for(n, from);
                    prop_assert_eq!(m.is_marked(probe), model.contains(&probe));
                    let want = model_from(&model, n, from, 1).first().copied();
                    prop_assert_eq!(m.next_marked(from), want);
                    prop_assert_eq!(m.marked_from(from, limit), model_from(&model, n, from, limit));
                }
                // Whole-array agreement, and a full cyclic listing from
                // a mid-array start so the wrap is exercised.
                for s in 0..n {
                    prop_assert_eq!(m.is_marked(s), model.contains(&s));
                }
                let mid = n / 2 + 1;
                prop_assert_eq!(
                    m.marked_from(mid, usize::MAX),
                    model_from(&model, n, mid, usize::MAX)
                );
            }
        }
    }
}
