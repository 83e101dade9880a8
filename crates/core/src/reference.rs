//! Dense reference models of the shadow array and the checksum map.
//!
//! [`ShadowArray`] and [`IntegrityState`] start as a seed image and
//! store only the rows an operation touched; the whole-array checks of
//! a crash cut visit only those rows. The models here are the dense
//! originals they replaced — every row stored from construction, every
//! checksum a coordinate-mixing hash of the intended word — and the
//! property test below runs random operation programs against both and
//! compares every accessor.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use afraid_sim::hash::FxU64Hasher;

use crate::integrity::{CorruptKind, IntegrityCounters, IntegrityState};
use crate::layout::Layout;
use crate::shadow::{seed_word, Reconstruction, ShadowArray};

/// Every unit's content word, stored densely.
#[derive(Clone)]
struct DenseShadow {
    layout: Layout,
    /// `words[stripe * disks + disk]`.
    words: Vec<u64>,
}

impl DenseShadow {
    fn new(layout: Layout) -> DenseShadow {
        let disks = u64::from(layout.disks());
        let mut words = vec![0u64; (layout.stripes() * disks) as usize];
        for stripe in 0..layout.stripes() {
            let mut parity = 0;
            for unit in 0..layout.data_units() {
                let w = seed_word(stripe, unit);
                words[(stripe * disks + u64::from(layout.data_disk(stripe, unit))) as usize] = w;
                parity ^= w;
            }
            words[(stripe * disks + u64::from(layout.parity_disk(stripe))) as usize] = parity;
        }
        DenseShadow { layout, words }
    }

    fn idx(&self, stripe: u64, disk: u32) -> usize {
        (stripe * u64::from(self.layout.disks()) + u64::from(disk)) as usize
    }

    fn word(&self, stripe: u64, disk: u32) -> u64 {
        self.words[self.idx(stripe, disk)]
    }

    fn data_word(&self, stripe: u64, unit: u32) -> u64 {
        self.word(stripe, self.layout.data_disk(stripe, unit))
    }

    fn set_word(&mut self, stripe: u64, disk: u32, word: u64) {
        let i = self.idx(stripe, disk);
        self.words[i] = word;
    }

    fn write_data(&mut self, stripe: u64, unit: u32, word: u64) -> u64 {
        let i = self.idx(stripe, self.layout.data_disk(stripe, unit));
        std::mem::replace(&mut self.words[i], word)
    }

    fn update_parity_incremental(&mut self, stripe: u64, old: u64, new: u64) {
        let i = self.idx(stripe, self.layout.parity_disk(stripe));
        self.words[i] ^= old ^ new;
    }

    fn compute_parity(&self, stripe: u64) -> u64 {
        (0..self.layout.data_units()).fold(0, |p, u| p ^ self.data_word(stripe, u))
    }

    fn rebuild_parity(&mut self, stripe: u64) {
        let p = self.compute_parity(stripe);
        self.set_word(stripe, self.layout.parity_disk(stripe), p);
    }

    fn xor_survivors(&self, stripe: u64, failed: u32) -> u64 {
        (0..self.layout.disks())
            .filter(|&d| d != failed)
            .fold(0, |x, d| x ^ self.word(stripe, d))
    }

    fn parity_consistent(&self, stripe: u64) -> bool {
        self.compute_parity(stripe) == self.word(stripe, self.layout.parity_disk(stripe))
    }

    fn data_divergence(
        &self,
        other: &DenseShadow,
        skip: &BTreeSet<(u64, u32)>,
    ) -> Option<(u64, u32)> {
        (0..self.layout.stripes())
            .flat_map(|s| (0..self.layout.data_units()).map(move |u| (s, u)))
            .find(|&(s, u)| {
                self.data_word(s, u) != other.data_word(s, u) && !skip.contains(&(s, u))
            })
    }
}

/// The coordinate-mixing checksum the dense map stored. For fixed
/// `(stripe, unit)` it is a bijection of `word` (see [`unhash`]).
fn unit_checksum(stripe: u64, unit: u32, word: u64) -> u64 {
    let mut h = FxU64Hasher::default();
    h.write_u64(stripe);
    h.write_u32(unit);
    h.write_u64(word);
    h.finish()
}

/// Inverts [`unit_checksum`] for fixed coordinates — the constructive
/// proof that storing the word instead of its checksum loses nothing.
/// The last hasher round is `z = (h ^ word) * PHI; z ^= z >> 29`: undo
/// the xorshift, multiply by `PHI`'s inverse mod 2^64, xor `h` out.
fn unhash(stripe: u64, unit: u32, checksum: u64) -> u64 {
    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = FxU64Hasher::default();
    h.write_u64(stripe);
    h.write_u32(unit);
    let z = checksum ^ (checksum >> 29) ^ (checksum >> 58);
    // Newton's iteration for the inverse of an odd number mod 2^64:
    // each step doubles the correct low bits (3 -> 6 -> ... -> 96).
    let mut inv = PHI;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(PHI.wrapping_mul(inv)));
    }
    z.wrapping_mul(inv) ^ h.finish()
}

/// The dense checksum map with its registry and ledgers.
#[derive(Clone)]
struct DenseIntegrity {
    data_units: u32,
    checksums: Vec<u64>,
    registry: BTreeMap<(u64, u32), CorruptKind>,
    counters: IntegrityCounters,
    declared: Vec<(u64, u32)>,
}

impl DenseIntegrity {
    fn new(shadow: &DenseShadow) -> DenseIntegrity {
        let l = shadow.layout;
        let checksums = (0..l.stripes())
            .flat_map(|s| (0..l.data_units()).map(move |u| (s, u)))
            .map(|(s, u)| unit_checksum(s, u, shadow.data_word(s, u)))
            .collect();
        DenseIntegrity {
            data_units: l.data_units(),
            checksums,
            registry: BTreeMap::new(),
            counters: IntegrityCounters::default(),
            declared: Vec::new(),
        }
    }

    fn idx(&self, stripe: u64, unit: u32) -> usize {
        (stripe * u64::from(self.data_units) + u64::from(unit)) as usize
    }

    fn verify(&self, stripe: u64, unit: u32, word: u64) -> bool {
        unit_checksum(stripe, unit, word) == self.checksums[self.idx(stripe, unit)]
    }

    fn anchor(&mut self, stripe: u64, unit: u32, word: u64) {
        let i = self.idx(stripe, unit);
        self.checksums[i] = unit_checksum(stripe, unit, word);
    }

    fn record_write(&mut self, stripe: u64, unit: u32, word: u64) {
        self.anchor(stripe, unit, word);
        if self.registry.remove(&(stripe, unit)).is_some() {
            self.counters.self_healed += 1;
        }
    }

    fn record_injection(&mut self, stripe: u64, unit: u32, kind: CorruptKind) {
        match kind {
            CorruptKind::Torn => self.counters.injected_torn += 1,
            CorruptKind::Lost => self.counters.injected_lost += 1,
            CorruptKind::Misdirected => self.counters.injected_misdirected += 1,
            CorruptKind::MisdirectedVictim => self.counters.injected_victim += 1,
        }
        self.registry.insert((stripe, unit), kind);
    }

    fn record_repair(&mut self, stripe: u64, unit: u32) {
        if self.registry.remove(&(stripe, unit)).is_some() {
            self.counters.detected += 1;
            self.counters.repaired += 1;
        }
    }

    fn record_declare(&mut self, stripe: u64, unit: u32, word: u64) {
        self.anchor(stripe, unit, word);
        if self.registry.remove(&(stripe, unit)).is_some() {
            self.counters.detected += 1;
        }
        self.counters.declared += 1;
        self.declared.push((stripe, unit));
    }

    fn absorb(&mut self, stripe: u64, unit: u32, word: u64) {
        self.anchor(stripe, unit, word);
        self.registry.remove(&(stripe, unit));
    }

    fn stripe_corrupt(&self, stripe: u64) -> bool {
        self.registry
            .range((stripe, 0)..=(stripe, u32::MAX))
            .next()
            .is_some()
    }

    fn live_corrupt(&self) -> Vec<(u64, u32, CorruptKind)> {
        self.registry
            .iter()
            .map(|(&(s, u), &k)| (s, u, k))
            .collect()
    }

    fn divergence(&self, shadow: &DenseShadow, skip: &BTreeSet<(u64, u32)>) -> Option<(u64, u32)> {
        let l = shadow.layout;
        (0..l.stripes())
            .flat_map(|s| (0..l.data_units()).map(move |u| (s, u)))
            .find(|&(s, u)| !skip.contains(&(s, u)) && !self.verify(s, u, shadow.data_word(s, u)))
    }
}

/// One model under test paired with its dense reference.
#[derive(Clone)]
struct Pair {
    shadow: ShadowArray,
    dense: DenseShadow,
    int: IntegrityState,
    dense_int: DenseIntegrity,
}

/// One random operation: `(kind, stripe, unit, word)`, reduced onto
/// the layout.
type Op = (u8, u64, u32, u64);

impl Pair {
    fn new(layout: Layout) -> Pair {
        let dense = DenseShadow::new(layout);
        Pair {
            shadow: ShadowArray::new(layout),
            int: IntegrityState::new(&layout),
            dense_int: DenseIntegrity::new(&dense),
            dense,
        }
    }

    /// Applies `op` to both sides, checking the returned old word.
    fn apply(&mut self, (kind, stripe, unit, word): Op) {
        let l = *self.shadow.layout();
        let stripe = stripe % l.stripes();
        let unit = unit % l.data_units();
        let kinds = [
            CorruptKind::Torn,
            CorruptKind::Lost,
            CorruptKind::Misdirected,
            CorruptKind::MisdirectedVictim,
        ];
        match kind % 10 {
            0 => {
                let old = self.shadow.write_data(stripe, unit, word);
                assert_eq!(old, self.dense.write_data(stripe, unit, word));
            }
            1 => {
                let old = self.shadow.write_data(stripe, unit, word);
                assert_eq!(old, self.dense.write_data(stripe, unit, word));
                self.shadow.update_parity_incremental(stripe, old, word);
                self.dense.update_parity_incremental(stripe, old, word);
            }
            2 => {
                self.shadow.rebuild_parity(stripe);
                self.dense.rebuild_parity(stripe);
            }
            3 => {
                let disk = (word % u64::from(l.disks())) as u32;
                self.shadow.set_word(stripe, disk, word);
                self.dense.set_word(stripe, disk, word);
            }
            4 => {
                self.int.record_write(stripe, unit, word);
                self.dense_int.record_write(stripe, unit, word);
            }
            5 => {
                let k = kinds[(word % 4) as usize];
                self.int.record_injection(stripe, unit, k);
                self.dense_int.record_injection(stripe, unit, k);
            }
            6 => {
                self.int.record_repair(stripe, unit);
                self.dense_int.record_repair(stripe, unit);
            }
            7 => {
                self.int.record_declare(stripe, unit, word);
                self.dense_int.record_declare(stripe, unit, word);
            }
            8 => {
                self.int.absorb(stripe, unit, word);
                self.dense_int.absorb(stripe, unit, word);
            }
            _ => {
                // A client write as the controller issues it: data,
                // parity and intent together.
                let old = self.shadow.write_data(stripe, unit, word);
                assert_eq!(old, self.dense.write_data(stripe, unit, word));
                self.shadow.update_parity_incremental(stripe, old, word);
                self.dense.update_parity_incremental(stripe, old, word);
                self.int.record_write(stripe, unit, word);
                self.dense_int.record_write(stripe, unit, word);
            }
        }
    }

    /// Every per-stripe accessor agrees with the dense reference, and
    /// every row outside the changed index is a seed row.
    fn assert_accessors_match(&self, probes: &[u64]) {
        let l = *self.shadow.layout();
        let (s, d) = (&self.shadow, &self.dense);
        for stripe in 0..l.stripes() {
            assert_eq!(
                s.parity_consistent(stripe),
                d.parity_consistent(stripe),
                "stripe {stripe}"
            );
            assert_eq!(s.compute_parity(stripe), d.compute_parity(stripe));
            assert_eq!(s.compute_parity_scalar(stripe), d.compute_parity(stripe));
            for disk in 0..l.disks() {
                assert_eq!(
                    s.word(stripe, disk),
                    d.word(stripe, disk),
                    "stripe {stripe} disk {disk}"
                );
                assert_eq!(s.xor_survivors(stripe, disk), d.xor_survivors(stripe, disk));
                assert_eq!(
                    s.xor_survivors_scalar(stripe, disk),
                    d.xor_survivors(stripe, disk)
                );
                let want = if d.xor_survivors(stripe, disk) == d.word(stripe, disk) {
                    Reconstruction::Recovered
                } else {
                    Reconstruction::Lost
                };
                assert_eq!(s.reconstruct(stripe, disk), want);
            }
            for unit in 0..l.data_units() {
                let w = d.data_word(stripe, unit);
                assert_eq!(s.data_word(stripe, unit), w);
                assert_eq!(
                    self.int.verify(stripe, unit, w),
                    self.dense_int.verify(stripe, unit, w)
                );
                for &p in probes {
                    assert_eq!(
                        self.int.verify(stripe, unit, p),
                        self.dense_int.verify(stripe, unit, p)
                    );
                }
                assert_eq!(
                    self.int.is_corrupt(stripe, unit),
                    self.dense_int.registry.contains_key(&(stripe, unit))
                );
                assert_eq!(
                    self.int.kind_of(stripe, unit),
                    self.dense_int.registry.get(&(stripe, unit)).copied()
                );
            }
            assert_eq!(
                self.int.stripe_corrupt(stripe),
                self.dense_int.stripe_corrupt(stripe)
            );
            if !s.changed_rows().contains(stripe) {
                assert!(
                    d.parity_consistent(stripe),
                    "unchanged row {stripe} is unbalanced"
                );
            }
        }
        let unbalanced: Vec<u64> = (0..l.stripes())
            .filter(|&st| !d.parity_consistent(st))
            .collect();
        assert_eq!(s.unbalanced_rows().collect::<Vec<_>>(), unbalanced);
        assert_eq!(self.int.live(), self.dense_int.registry.len());
        assert_eq!(self.int.live_corrupt(), self.dense_int.live_corrupt());
        assert_eq!(self.int.declared_units(), &self.dense_int.declared[..]);
        assert_eq!(self.int.counters, self.dense_int.counters);
    }
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u32>(), any::<u64>()),
            0..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// `unit_checksum` is a bijection of the word for fixed
        /// coordinates.
        #[test]
        fn checksum_inverts(stripe in any::<u64>(), unit in any::<u32>(), word in any::<u64>()) {
            prop_assert_eq!(unhash(stripe, unit, unit_checksum(stripe, unit, word)), word);
        }

        /// Random programs of shadow and integrity operations leave
        /// both models answering every accessor, the divergence scans
        /// and the registry snapshots exactly as the dense references
        /// do — before and after a full materialisation, and between
        /// two arrays that share a prefix.
        #[test]
        fn seed_image_models_match_dense_references(
            disks in 3u32..8,
            stripes in 1u64..70,
            prefix in ops(60),
            left in ops(30),
            right in ops(30),
            skips in prop::collection::vec((any::<u64>(), any::<u32>()), 0..6),
        ) {
            let l = Layout::new(disks, 8192, 16 * stripes);
            let mut a = Pair::new(l);
            for &op in &prefix {
                a.apply(op);
            }
            let mut b = a.clone();
            for &op in &left {
                a.apply(op);
            }
            for &op in &right {
                b.apply(op);
            }
            let probes: Vec<u64> = prefix.iter().chain(&left).chain(&right).map(|op| op.3).collect();
            a.assert_accessors_match(&probes);
            b.assert_accessors_match(&probes);

            let mut skip: BTreeSet<(u64, u32)> = skips
                .into_iter()
                .map(|(s, u)| (s % l.stripes(), u % l.data_units()))
                .collect();
            if let Some(first) = a.dense.data_divergence(&b.dense, &BTreeSet::new()) {
                skip.insert(first);
            }
            if let Some(first) = a.dense_int.divergence(&b.dense, &BTreeSet::new()) {
                skip.insert(first);
            }
            for set in [&BTreeSet::new(), &skip] {
                prop_assert_eq!(a.shadow.data_divergence(&b.shadow, set), a.dense.data_divergence(&b.dense, set));
                prop_assert_eq!(b.shadow.data_divergence(&a.shadow, set), b.dense.data_divergence(&a.dense, set));
                for (x, y) in [(&a, &a), (&a, &b), (&b, &a), (&b, &b)] {
                    prop_assert_eq!(x.int.divergence(&y.shadow, set), x.dense_int.divergence(&y.dense, set));
                }
            }

            // Materialising every row changes no answer.
            let mut full = a.clone();
            full.shadow.materialize_all();
            full.int.materialize_all();
            prop_assert_eq!(full.shadow.changed_rows().len(), l.stripes());
            prop_assert_eq!(full.int.changed_rows().len(), l.stripes());
            full.assert_accessors_match(&probes);
            prop_assert_eq!(full.shadow.data_divergence(&b.shadow, &skip), a.dense.data_divergence(&b.dense, &skip));
            prop_assert_eq!(full.int.divergence(&b.shadow, &skip), a.dense_int.divergence(&b.dense, &skip));
        }
    }
}
