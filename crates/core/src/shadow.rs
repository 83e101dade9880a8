//! Shadow content model: checks, rather than assumes, redundancy.
//!
//! The simulator does not move real bytes, but correctness of the
//! AFRAID design — "exactly the blocks on unredundant stripes are
//! exposed, nothing else" — deserves verification, not assertion. The
//! shadow model gives every stripe unit a 64-bit content word. Parity
//! is the XOR of the stripe's data words, exactly mirroring a real
//! RAID 5's arithmetic:
//!
//! * a data write replaces the unit's word;
//! * a RAID 5 read-modify-write updates parity incrementally as
//!   `P' = P ⊕ old ⊕ new`;
//! * a scrub recomputes parity from scratch;
//! * reconstruction after a disk failure XORs the surviving words.
//!
//! A unit survives a disk failure iff reconstruction reproduces its
//! word — which is true exactly when the stripe's parity is
//! consistent. Property tests in `faults` rely on this model.

use std::collections::BTreeSet;

use crate::layout::Layout;
use crate::stripeset::StripeSet;

/// Per-unit content words for the whole array.
///
/// A fresh array holds its *seed image*: every data unit holds
/// [`seed_word`] and every parity unit the XOR of its stripe's data
/// words. Only the rows some mutation touched are stored; `changed`
/// indexes them. An unchanged row reads as its seed content, so a
/// fresh array costs one zeroed allocation, and a whole-array check
/// need only visit the changed rows: a seed row XORs to zero and
/// reconstructs every unit to itself.
#[derive(Debug)]
pub struct ShadowArray {
    layout: Layout,
    /// `words[stripe * disks + disk]`: the content of the stripe unit
    /// stored on `disk` in `stripe` (data or parity alike), for the
    /// rows in `changed`. Every other row's storage stays zero.
    words: Vec<u64>,
    /// The rows a mutation has touched. Each was filled with its seed
    /// content before its first change, so every row outside this set
    /// holds exactly its seed content.
    changed: StripeSet,
}

impl Clone for ShadowArray {
    /// Copies the changed rows only — every other row's storage is
    /// zero in both arrays — so a crash capture costs one zeroed
    /// allocation plus the changed rows.
    fn clone(&self) -> ShadowArray {
        let mut words = vec![0u64; self.words.len()];
        for stripe in self.changed.iter() {
            let span = self.span(stripe);
            words[span.clone()].copy_from_slice(&self.words[span]);
        }
        ShadowArray {
            layout: self.layout,
            words,
            changed: self.changed.clone(),
        }
    }
}

/// Outcome of attempting to reconstruct one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reconstruction {
    /// The XOR of the survivors equals the lost word.
    Recovered,
    /// Reconstruction would return garbage (stale parity).
    Lost,
}

impl ShadowArray {
    /// Creates a shadow array holding its seed image: deterministic
    /// initial contents and consistent parity everywhere (a freshly
    /// initialised array). No row is stored until it changes.
    pub fn new(layout: Layout) -> ShadowArray {
        let disks = layout.disks() as usize;
        ShadowArray {
            layout,
            words: vec![0u64; layout.stripes() as usize * disks],
            changed: StripeSet::new(layout.stripes()),
        }
    }

    /// Where `stripe`'s row sits in `words`.
    fn span(&self, stripe: u64) -> std::ops::Range<usize> {
        let disks = self.layout.disks() as usize;
        let start = stripe as usize * disks;
        start..start + disks
    }

    /// The stripe's stored row of unit words, one per disk (data and
    /// parity alike), or `None` for a row that still holds its seed
    /// content. The hot XOR folds run over this slice.
    fn row(&self, stripe: u64) -> Option<&[u64]> {
        if !self.changed.contains(stripe) {
            return None;
        }
        Some(&self.words[self.span(stripe)])
    }

    /// The stripe's stored row for a mutation: a seed row is first
    /// filled with its seed content and joins the changed set.
    fn row_mut(&mut self, stripe: u64) -> &mut [u64] {
        let span = self.span(stripe);
        let row = &mut self.words[span];
        if !self.changed.contains(stripe) {
            let pd = self.layout.parity_disk(stripe) as usize;
            let mut parity = 0u64;
            for (unit, w) in (0u32..).zip(unit_order_mut(row, pd)) {
                *w = seed_word(stripe, unit);
                parity ^= *w;
            }
            row[pd] = parity;
            self.changed.insert(stripe);
        }
        row
    }

    /// XOR of *every* unit in the stripe — data and parity. Zero iff
    /// the stripe's XOR identity holds, and always zero for a seed
    /// row. One chunked fold over the contiguous row; per-unit results
    /// derive from it by XORing the excluded word back out.
    fn row_xor(&self, stripe: u64) -> u64 {
        self.row(stripe).map_or(0, xor_fold)
    }

    /// The rows a mutation has touched, a superset of the rows that
    /// differ from the seed image. Every other row is parity-consistent
    /// and holds its seed content.
    pub fn changed_rows(&self) -> &StripeSet {
        &self.changed
    }

    /// The stripes whose XOR identity fails, ascending. Only changed
    /// rows can fail it, so only they are visited.
    pub fn unbalanced_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.changed.iter().filter(|&s| self.row_xor(s) != 0)
    }

    /// Stores every row, as a dense array would: the changed set then
    /// covers the whole array, so every pass over it is a full scan.
    /// The reference the crash checker's row index is tested against.
    pub fn materialize_all(&mut self) {
        for stripe in 0..self.layout.stripes() {
            self.row_mut(stripe);
        }
    }

    /// The content word of the unit on `disk` in `stripe`.
    pub fn word(&self, stripe: u64, disk: u32) -> u64 {
        match self.row(stripe) {
            Some(row) => row[disk as usize],
            None => match self.layout.unit_on_disk(stripe, disk) {
                Some(unit) => seed_word(stripe, unit),
                None => (0..self.layout.data_units()).fold(0, |p, u| p ^ seed_word(stripe, u)),
            },
        }
    }

    /// The content word of data unit `unit` of `stripe`.
    pub fn data_word(&self, stripe: u64, unit: u32) -> u64 {
        match self.row(stripe) {
            Some(row) => row[self.layout.data_disk(stripe, unit) as usize],
            None => seed_word(stripe, unit),
        }
    }

    /// Overwrites data unit `unit` of `stripe`, returning the old word
    /// (needed by the RAID 5 incremental parity update).
    pub fn write_data(&mut self, stripe: u64, unit: u32, word: u64) -> u64 {
        let disk = self.layout.data_disk(stripe, unit) as usize;
        std::mem::replace(&mut self.row_mut(stripe)[disk], word)
    }

    /// Applies the RAID 5 incremental parity update:
    /// `P' = P ⊕ old ⊕ new`.
    pub fn update_parity_incremental(&mut self, stripe: u64, old: u64, new: u64) {
        let pd = self.layout.parity_disk(stripe) as usize;
        self.row_mut(stripe)[pd] ^= old ^ new;
    }

    /// Recomputes parity from the data units (the scrub operation). A
    /// seed row's parity already is the XOR of its data: it stays a
    /// seed row.
    pub fn rebuild_parity(&mut self, stripe: u64) {
        if !self.changed.contains(stripe) {
            return;
        }
        let parity = self.compute_parity(stripe);
        let pd = self.layout.parity_disk(stripe) as usize;
        self.row_mut(stripe)[pd] = parity;
    }

    /// XOR of the stripe's data words.
    ///
    /// Computed as one chunked fold over the stripe's contiguous row
    /// with the parity word XORed back out — algebraically identical
    /// to folding the data units through the rotation indirection, but
    /// without the per-unit `data_disk` lookups.
    pub fn compute_parity(&self, stripe: u64) -> u64 {
        self.row_xor(stripe) ^ self.word(stripe, self.layout.parity_disk(stripe))
    }

    /// Reference implementation of [`ShadowArray::compute_parity`]:
    /// the scalar per-data-unit fold. Kept for the perfbench micro-axis
    /// and the equivalence test; not used on the hot path.
    pub fn compute_parity_scalar(&self, stripe: u64) -> u64 {
        (0..self.layout.data_units())
            .map(|u| self.data_word(stripe, u))
            .fold(0, |a, w| a ^ w)
    }

    /// True if the stored parity equals the XOR of the data words,
    /// i.e. the whole row XORs to zero.
    pub fn parity_consistent(&self, stripe: u64) -> bool {
        self.row_xor(stripe) == 0
    }

    /// Attempts to reconstruct the unit on `failed_disk` in `stripe`
    /// from the survivors. The survivors XOR to the missing word
    /// exactly when the whole row XORs to zero, so the answer is the
    /// same for every disk of the stripe.
    pub fn reconstruct(&self, stripe: u64, failed_disk: u32) -> Reconstruction {
        debug_assert!(
            failed_disk < self.layout.disks(),
            "no such disk {failed_disk}"
        );
        if self.row_xor(stripe) == 0 {
            Reconstruction::Recovered
        } else {
            Reconstruction::Lost
        }
    }

    /// XOR of every unit in the stripe except the one on
    /// `failed_disk` — the value a reconstruction would produce.
    /// Chunked row fold with the failed disk's word XORed back out.
    pub fn xor_survivors(&self, stripe: u64, failed_disk: u32) -> u64 {
        self.row_xor(stripe) ^ self.word(stripe, failed_disk)
    }

    /// Reference implementation of [`ShadowArray::xor_survivors`]: the
    /// scalar filter-fold. Kept for the perfbench micro-axis and the
    /// equivalence test; not used on the hot path.
    pub fn xor_survivors_scalar(&self, stripe: u64, failed_disk: u32) -> u64 {
        (0..self.layout.disks())
            .filter(|&d| d != failed_disk)
            .fold(0, |acc, d| acc ^ self.word(stripe, d))
    }

    /// The array layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Overwrites the raw unit word on `disk` in `stripe` — data or
    /// parity alike, bypassing all parity maintenance. Crash recovery
    /// uses this to scramble a dead disk's words before reconstructing
    /// them (so the byte-check proves the rebuilt contents came from
    /// the survivors, not from a stale copy) and to store the
    /// reconstructed words back.
    pub fn set_word(&mut self, stripe: u64, disk: u32, word: u64) {
        self.row_mut(stripe)[disk as usize] = word;
    }

    /// Byte-check for crash recovery: the first *data* unit whose word
    /// differs from `other`'s, as `(stripe, unit)`, skipping the units
    /// in `skip` (the ones recovery declared lost). `None` means every
    /// data unit outside `skip` is byte-identical — parity words are
    /// deliberately not compared, because a recovery sweep rewrites
    /// stale parity; [`ShadowArray::parity_consistent`] judges those.
    ///
    /// Rows unchanged in both arrays hold the same seed content, so
    /// only rows changed in either are compared; two equal stored rows
    /// are skipped whole, anything else is scanned in unit order.
    ///
    /// # Panics
    ///
    /// Panics if the two arrays have different layouts.
    pub fn data_divergence(
        &self,
        other: &ShadowArray,
        skip: &BTreeSet<(u64, u32)>,
    ) -> Option<(u64, u32)> {
        assert_eq!(self.layout, other.layout, "shadow layout mismatch");
        let mut rows = self.changed.clone();
        rows.union_with(&other.changed);
        for stripe in rows.iter() {
            if let (Some(a), Some(b)) = (self.row(stripe), other.row(stripe)) {
                if a == b {
                    continue;
                }
            }
            for unit in 0..self.layout.data_units() {
                if self.data_word(stripe, unit) != other.data_word(stripe, unit)
                    && !skip.contains(&(stripe, unit))
                {
                    return Some((stripe, unit));
                }
            }
        }
        None
    }

    /// Verifies that a latent-error repair of `disk`'s unit in
    /// `stripe` would regenerate real content: the stripe's XOR
    /// identity must hold, i.e. reconstruction from the survivors
    /// yields exactly what the disk holds.
    ///
    /// # Panics
    ///
    /// Panics if the stripe is inconsistent — repairing from stale
    /// parity would overwrite client data with garbage, so a scrubber
    /// that gets here has violated its clean-stripes-only rule.
    pub fn check_scrub_repair(&self, stripe: u64, disk: u32) {
        assert!(
            self.reconstruct(stripe, disk) == Reconstruction::Recovered,
            "scrub repair on inconsistent stripe {stripe} (disk {disk}): \
             parity is stale, reconstruction would write garbage"
        );
    }
}

/// A stripe row's data words in unit order. Data unit `u` sits on
/// disk `(pd + 1 + u) % disks`, so unit order is the row after the
/// parity word followed by the row before it.
fn unit_order_mut(row: &mut [u64], pd: usize) -> impl Iterator<Item = &mut u64> {
    let (before, from_parity) = row.split_at_mut(pd);
    from_parity[1..].iter_mut().chain(before)
}

/// Chunked XOR fold: four independent `u64` accumulator lanes over
/// exact 4-word chunks (`u64x4`-style — the compiler vectorises the
/// independent lanes), a scalar tail for the remainder. XOR is
/// associative and commutative, so the result equals a plain
/// left-to-right fold for any slice.
fn xor_fold(words: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        lanes[0] ^= c[0];
        lanes[1] ^= c[1];
        lanes[2] ^= c[2];
        lanes[3] ^= c[3];
    }
    let mut acc = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
    for &w in chunks.remainder() {
        acc ^= w;
    }
    acc
}

/// Deterministic initial content for a data unit: the seed image.
pub(crate) fn seed_word(stripe: u64, unit: u32) -> u64 {
    let mut z = stripe
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(unit) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// A fresh content word for the `version`-th write to a unit.
pub fn version_word(stripe: u64, unit: u32, version: u64) -> u64 {
    seed_word(stripe ^ version.wrapping_mul(0x2545_f491_4f6c_dd1d), unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(5, 8192, 160)
    }

    #[test]
    fn fresh_array_is_consistent() {
        let s = ShadowArray::new(layout());
        for stripe in 0..s.layout().stripes() {
            assert!(s.parity_consistent(stripe), "stripe {stripe}");
        }
    }

    #[test]
    fn chunked_folds_match_scalar_reference() {
        // Dirty the array with an irregular write pattern, then check
        // the chunked row folds against the scalar per-unit references
        // on every stripe and every failed-disk choice.
        let mut s = ShadowArray::new(layout());
        for stripe in 0..s.layout().stripes() {
            if stripe % 3 == 0 {
                s.write_data(stripe, (stripe % 4) as u32, stripe.wrapping_mul(0x9e37));
            }
        }
        for stripe in 0..s.layout().stripes() {
            assert_eq!(
                s.compute_parity(stripe),
                s.compute_parity_scalar(stripe),
                "parity fold diverged on stripe {stripe}"
            );
            for disk in 0..s.layout().disks() {
                assert_eq!(
                    s.xor_survivors(stripe, disk),
                    s.xor_survivors_scalar(stripe, disk),
                    "survivor fold diverged on stripe {stripe}, disk {disk}"
                );
            }
        }
    }

    #[test]
    fn xor_fold_matches_linear_fold_at_all_lengths() {
        let mut words = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for len in 0..32 {
            assert_eq!(
                words.iter().fold(0, |a: u64, w| a ^ w),
                xor_fold(&words),
                "len {len}"
            );
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            words.push(x);
        }
    }

    #[test]
    fn fresh_array_reconstructs_everywhere() {
        let s = ShadowArray::new(layout());
        for stripe in 0..s.layout().stripes() {
            for disk in 0..5 {
                assert_eq!(s.reconstruct(stripe, disk), Reconstruction::Recovered);
            }
        }
    }

    #[test]
    fn write_without_parity_update_breaks_consistency() {
        let mut s = ShadowArray::new(layout());
        s.write_data(3, 1, 0xdead_beef);
        assert!(!s.parity_consistent(3));
        // Data on a *surviving* disk is unaffected; reconstruction of
        // the written unit's disk fails.
        let written_disk = s.layout().data_disk(3, 1);
        assert_eq!(s.reconstruct(3, written_disk), Reconstruction::Lost);
        // Other stripes untouched.
        assert!(s.parity_consistent(2));
    }

    #[test]
    fn incremental_update_restores_consistency() {
        let mut s = ShadowArray::new(layout());
        let old = s.write_data(3, 1, 0x1234);
        s.update_parity_incremental(3, old, 0x1234);
        assert!(s.parity_consistent(3));
        assert_eq!(s.reconstruct(3, 0), Reconstruction::Recovered);
    }

    #[test]
    fn scrub_rebuild_restores_consistency() {
        let mut s = ShadowArray::new(layout());
        s.write_data(4, 0, 1);
        s.write_data(4, 2, 2);
        s.write_data(4, 3, 3);
        assert!(!s.parity_consistent(4));
        s.rebuild_parity(4);
        assert!(s.parity_consistent(4));
        for disk in 0..5 {
            assert_eq!(s.reconstruct(4, disk), Reconstruction::Recovered);
        }
    }

    #[test]
    fn multiple_incremental_updates_compose() {
        let mut s = ShadowArray::new(layout());
        for (unit, word) in [(0u32, 10u64), (1, 20), (0, 30), (3, 40)] {
            let old = s.write_data(7, unit, word);
            s.update_parity_incremental(7, old, word);
        }
        assert!(s.parity_consistent(7));
    }

    #[test]
    fn failed_parity_disk_loses_nothing() {
        // If the failed disk holds the stripe's parity, stale parity
        // loses no data: all data units survive on other disks. The
        // reconstruction check is about the failed disk's unit only.
        let mut s = ShadowArray::new(layout());
        s.write_data(3, 1, 99);
        let pd = s.layout().parity_disk(3);
        // Reconstructing the (stale) parity unit fails, but that's
        // parity, not data; the caller (faults module) distinguishes.
        assert_eq!(s.reconstruct(3, pd), Reconstruction::Lost);
        for unit in 0..4 {
            let d = s.layout().data_disk(3, unit);
            assert_ne!(d, pd);
        }
    }

    #[test]
    fn data_divergence_finds_and_skips() {
        let a = ShadowArray::new(layout());
        let mut b = a.clone();
        assert_eq!(a.data_divergence(&b, &BTreeSet::new()), None);
        b.write_data(5, 2, 0xbad);
        assert_eq!(a.data_divergence(&b, &BTreeSet::new()), Some((5, 2)));
        let skip: BTreeSet<(u64, u32)> = [(5u64, 2u32)].into_iter().collect();
        assert_eq!(a.data_divergence(&b, &skip), None);
        // Parity divergence alone is not a data divergence.
        let mut c = a.clone();
        let pd = c.layout().parity_disk(9);
        c.set_word(9, pd, 0xfeed);
        assert_eq!(a.data_divergence(&c, &BTreeSet::new()), None);
        assert!(!c.parity_consistent(9));
    }

    #[test]
    fn set_word_bypasses_parity() {
        let mut s = ShadowArray::new(layout());
        let d = s.layout().data_disk(2, 0);
        s.set_word(2, d, 0x1111);
        assert_eq!(s.word(2, d), 0x1111);
        assert!(!s.parity_consistent(2));
        s.rebuild_parity(2);
        assert!(s.parity_consistent(2));
    }

    #[test]
    fn data_divergence_reports_unit_order_not_disk_order() {
        // Stripe 1 has parity on disk 3: unit 0 sits on disk 4 and
        // unit 1 on disk 0. With both diverging, the first in unit
        // order is unit 0, though disk 0 comes first in the row.
        let a = ShadowArray::new(layout());
        let mut b = a.clone();
        assert_eq!(
            (a.layout().data_disk(1, 0), a.layout().data_disk(1, 1)),
            (4, 0)
        );
        b.write_data(1, 1, 0x11);
        b.write_data(1, 0, 0x22);
        assert_eq!(a.data_divergence(&b, &BTreeSet::new()), Some((1, 0)));
        let skip: BTreeSet<(u64, u32)> = [(1u64, 0u32)].into_iter().collect();
        assert_eq!(a.data_divergence(&b, &skip), Some((1, 1)));
    }

    #[test]
    #[should_panic(expected = "shadow layout mismatch")]
    fn data_divergence_rejects_a_different_layout_of_equal_size() {
        // 4 disks x 20 stripes and 5 disks x 16 stripes both hold 80
        // words; comparing them unit by unit would be meaningless.
        let four = ShadowArray::new(Layout::new(4, 8192, 16 * 20));
        let five = ShadowArray::new(Layout::new(5, 8192, 16 * 16));
        assert_eq!(four.words.len(), five.words.len());
        let _ = four.data_divergence(&five, &BTreeSet::new());
    }

    mod row_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Random shadow edits: client writes, incremental parity
        /// updates, raw word overwrites and scrubs, in any mix.
        fn dirty(s: &mut ShadowArray, edits: &[(u8, u64, u32, u64)]) {
            let l = *s.layout();
            for &(kind, stripe, unit, word) in edits {
                let stripe = stripe % l.stripes();
                match kind % 4 {
                    0 => {
                        s.write_data(stripe, unit % l.data_units(), word);
                    }
                    1 => {
                        let old = s.write_data(stripe, unit % l.data_units(), word);
                        s.update_parity_incremental(stripe, old, word);
                    }
                    2 => s.set_word(stripe, unit % l.disks(), word),
                    _ => s.rebuild_parity(stripe),
                }
            }
        }

        /// The per-unit reference for `data_divergence`.
        fn divergence_per_unit(
            a: &ShadowArray,
            b: &ShadowArray,
            skip: &BTreeSet<(u64, u32)>,
        ) -> Option<(u64, u32)> {
            let l = a.layout();
            for stripe in 0..l.stripes() {
                for unit in 0..l.data_units() {
                    if !skip.contains(&(stripe, unit))
                        && a.data_word(stripe, unit) != b.data_word(stripe, unit)
                    {
                        return Some((stripe, unit));
                    }
                }
            }
            None
        }

        fn edits() -> impl Strategy<Value = Vec<(u8, u64, u32, u64)>> {
            prop::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u32>(), any::<u64>()),
                0..40,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            /// Seed rows read, and materialise, as the per-unit
            /// construction of a fresh array.
            #[test]
            fn seed_rows_match_per_unit_construction(disks in 3u32..9, stripes in 1u64..40) {
                let l = Layout::new(disks, 8192, 16 * stripes);
                let mut words = vec![0u64; (stripes * u64::from(disks)) as usize];
                for stripe in 0..stripes {
                    let mut parity = 0;
                    for unit in 0..l.data_units() {
                        let w = seed_word(stripe, unit);
                        words[(stripe * u64::from(disks) + u64::from(l.data_disk(stripe, unit))) as usize] = w;
                        parity ^= w;
                    }
                    words[(stripe * u64::from(disks) + u64::from(l.parity_disk(stripe))) as usize] = parity;
                }
                let fresh = ShadowArray::new(l);
                prop_assert!(fresh.changed_rows().is_empty());
                let read: Vec<u64> = (0..stripes)
                    .flat_map(|s| (0..disks).map(move |d| (s, d)))
                    .map(|(s, d)| fresh.word(s, d))
                    .collect();
                prop_assert_eq!(&read, &words);
                let mut dense = fresh.clone();
                dense.materialize_all();
                prop_assert_eq!(dense.changed_rows().len(), stripes);
                prop_assert_eq!(dense.words, words);
            }

            /// Row-XOR consistency and reconstruction agree with the
            /// scalar references on every stripe and every disk.
            #[test]
            fn row_xor_checks_match_scalar_references(
                disks in 3u32..9,
                stripes in 1u64..40,
                edits in edits(),
            ) {
                let mut s = ShadowArray::new(Layout::new(disks, 8192, 16 * stripes));
                dirty(&mut s, &edits);
                let l = *s.layout();
                for stripe in 0..l.stripes() {
                    let stored = s.word(stripe, l.parity_disk(stripe));
                    prop_assert_eq!(
                        s.parity_consistent(stripe),
                        s.compute_parity_scalar(stripe) == stored
                    );
                    for disk in 0..l.disks() {
                        let want = if s.xor_survivors_scalar(stripe, disk) == s.word(stripe, disk) {
                            Reconstruction::Recovered
                        } else {
                            Reconstruction::Lost
                        };
                        prop_assert_eq!(s.reconstruct(stripe, disk), want);
                    }
                    let by_disk: Vec<u64> = (0..l.data_units())
                        .map(|u| s.word(stripe, l.data_disk(stripe, u)))
                        .collect();
                    let by_unit: Vec<u64> = (0..l.data_units()).map(|u| s.data_word(stripe, u)).collect();
                    prop_assert_eq!(by_disk, by_unit);
                }
            }

            /// The row comparison finds the same first divergent
            /// `(stripe, unit)` as the per-unit scan, under random
            /// skip sets.
            #[test]
            fn data_divergence_matches_per_unit_scan(
                disks in 3u32..9,
                stripes in 1u64..40,
                edits in edits(),
                skips in prop::collection::vec((any::<u64>(), any::<u32>()), 0..12),
            ) {
                let a = ShadowArray::new(Layout::new(disks, 8192, 16 * stripes));
                let mut b = a.clone();
                dirty(&mut b, &edits);
                let l = *a.layout();
                // Skip the first real divergence too, so the scan must
                // look past it to the next one.
                let mut skip: BTreeSet<(u64, u32)> = BTreeSet::new();
                for (stripe, unit) in skips {
                    skip.insert((stripe % l.stripes(), unit % l.data_units()));
                }
                if let Some(first) = divergence_per_unit(&a, &b, &BTreeSet::new()) {
                    skip.insert(first);
                }
                for set in [&BTreeSet::new(), &skip] {
                    prop_assert_eq!(a.data_divergence(&b, set), divergence_per_unit(&a, &b, set));
                    prop_assert_eq!(b.data_divergence(&a, set), divergence_per_unit(&b, &a, set));
                }
            }
        }
    }

    #[test]
    fn version_words_differ() {
        let a = version_word(5, 2, 1);
        let b = version_word(5, 2, 2);
        let c = version_word(5, 3, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
