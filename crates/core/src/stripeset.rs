//! A set of stripe indices as a bitmap: one bit per stripe (bit
//! `s % 64` of word `s / 64`). The shadow array and the checksum map
//! index their changed rows with it — the only rows a crash cut has to
//! look at — and recovery unions those indexes with the marked rows.

/// A set of stripe indices below a fixed bound.
#[derive(Clone, Debug)]
pub struct StripeSet {
    bits: Vec<u64>,
}

impl StripeSet {
    /// The empty set over stripes `0..stripes`.
    pub fn new(stripes: u64) -> StripeSet {
        StripeSet {
            bits: vec![0; (stripes as usize).div_ceil(64)],
        }
    }

    /// True if `stripe` is in the set.
    pub fn contains(&self, stripe: u64) -> bool {
        self.bits
            .get((stripe / 64) as usize)
            .is_some_and(|w| w >> (stripe % 64) & 1 == 1)
    }

    /// Adds `stripe`, which callers keep below the bound; one past the
    /// bitmap's last word is ignored rather than indexed.
    pub fn insert(&mut self, stripe: u64) {
        if let Some(word) = self.bits.get_mut((stripe / 64) as usize) {
            *word |= 1 << (stripe % 64);
        }
    }

    /// The set's stripes in ascending order, skipping empty words
    /// whole.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..).zip(&self.bits).flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w * 64 + u64::from(bit)
                })
            })
        })
    }

    /// Number of stripes in the set.
    pub fn len(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True if the set holds no stripe.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Adds every stripe of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn union_with(&mut self, other: &StripeSet) {
        assert_eq!(
            self.bits.len(),
            other.bits.len(),
            "stripe set bound mismatch"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Inserts and unions agree with an ordered set, and nothing
        /// beyond the bound gets in.
        #[test]
        fn matches_an_ordered_set(
            n in 1u64..9000,
            ours in prop::collection::vec(any::<u64>(), 0..200),
            theirs in prop::collection::vec(any::<u64>(), 0..50),
        ) {
            let mut set = StripeSet::new(n);
            let mut more = StripeSet::new(n);
            let mut model = BTreeSet::new();
            for s in ours {
                set.insert(s % n);
                model.insert(s % n);
            }
            for s in theirs {
                more.insert(s % n);
                model.insert(s % n);
            }
            set.union_with(&more);
            set.insert(n.next_multiple_of(64));
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), model.len() as u64);
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for s in 0..n.next_multiple_of(64) + 1 {
                prop_assert_eq!(set.contains(s), model.contains(&s));
            }
        }
    }
}
