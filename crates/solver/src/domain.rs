//! Per-byte value domains (256-bit sets).

use std::fmt;

/// The set of values a single input byte may still take.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteDomain {
    bits: [u64; 4],
}

impl ByteDomain {
    /// The full domain `0..=255`.
    pub fn full() -> ByteDomain {
        ByteDomain {
            bits: [u64::MAX; 4],
        }
    }

    /// The empty domain (contradiction).
    pub fn empty() -> ByteDomain {
        ByteDomain { bits: [0; 4] }
    }

    /// A singleton domain.
    pub fn singleton(v: u8) -> ByteDomain {
        let mut d = ByteDomain::empty();
        d.insert(v);
        d
    }

    /// Whether `v` is in the domain.
    pub fn contains(&self, v: u8) -> bool {
        self.bits[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }

    /// Adds `v`.
    pub fn insert(&mut self, v: u8) {
        self.bits[(v >> 6) as usize] |= 1u64 << (v & 63);
    }

    /// Removes `v`. Returns whether it was present.
    pub fn remove(&mut self, v: u8) -> bool {
        let word = &mut self.bits[(v >> 6) as usize];
        let mask = 1u64 << (v & 63);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Intersects with `other` in place. Returns whether anything changed.
    pub fn intersect(&mut self, other: &ByteDomain) -> bool {
        let mut changed = false;
        for (w, o) in self.bits.iter_mut().zip(other.bits.iter()) {
            let next = *w & o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// Number of values remaining.
    pub fn len(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the domain is empty (contradiction).
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The single remaining value, if exactly one remains.
    pub fn as_singleton(&self) -> Option<u8> {
        if self.len() == 1 {
            self.min()
        } else {
            None
        }
    }

    /// The smallest remaining value.
    pub fn min(&self) -> Option<u8> {
        let i = self.bits.iter().position(|&w| w != 0)?;
        Some((i as u32 * 64 + self.bits[i].trailing_zeros()) as u8)
    }

    /// The largest remaining value.
    pub fn max(&self) -> Option<u8> {
        let i = self.bits.iter().rposition(|&w| w != 0)?;
        Some((i as u32 * 64 + 63 - self.bits[i].leading_zeros()) as u8)
    }

    /// Iterates remaining values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((i as u32 * 64 + bit) as u8)
            })
        })
    }
}

impl Default for ByteDomain {
    fn default() -> ByteDomain {
        ByteDomain::full()
    }
}

impl fmt::Debug for ByteDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.len();
        if n == 256 {
            return write!(f, "ByteDomain(full)");
        }
        if n <= 8 {
            let vals: Vec<u8> = self.iter().collect();
            return write!(f, "ByteDomain({vals:?})");
        }
        write!(f, "ByteDomain({n} values)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random set of byte values: dense, sparse (0–3 values, so
    /// singletons and the empty set are common) or one contiguous range.
    fn arb_model() -> impl Strategy<Value = [bool; 256]> {
        fn model(keep: impl Fn(u8) -> bool) -> [bool; 256] {
            std::array::from_fn(|v| keep(v as u8))
        }
        prop_oneof![
            prop::collection::vec(any::<bool>(), 256).prop_map(|bits| model(|v| bits[v as usize])),
            prop::collection::vec(any::<u8>(), 0..4).prop_map(|vs| model(|v| vs.contains(&v))),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| model(|v| a.min(b) <= v && v <= a.max(b))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every query agrees with a plain `[bool; 256]` model of the set.
        #[test]
        fn queries_agree_with_a_bool_array_model(model in arb_model()) {
            let mut d = ByteDomain::empty();
            for v in (0..=255u8).filter(|&v| model[v as usize]) {
                d.insert(v);
            }
            let vals: Vec<u8> = (0..=255u8).filter(|&v| model[v as usize]).collect();
            prop_assert_eq!(d.len() as usize, vals.len());
            prop_assert_eq!(d.is_empty(), vals.is_empty());
            prop_assert_eq!(d.min(), vals.first().copied());
            prop_assert_eq!(d.max(), vals.last().copied());
            prop_assert_eq!(d.as_singleton(), (vals.len() == 1).then(|| vals[0]));
            prop_assert_eq!(d.iter().collect::<Vec<u8>>(), vals);
            for v in 0..=255u8 {
                prop_assert_eq!(d.contains(v), model[v as usize]);
            }
        }
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(ByteDomain::full().len(), 256);
        assert!(ByteDomain::empty().is_empty());
        assert!(!ByteDomain::full().is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut d = ByteDomain::empty();
        d.insert(0);
        d.insert(255);
        d.insert(100);
        assert!(d.contains(0) && d.contains(255) && d.contains(100));
        assert!(!d.contains(1));
        assert!(d.remove(100));
        assert!(!d.remove(100));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn singleton_extraction() {
        let d = ByteDomain::singleton(42);
        assert_eq!(d.as_singleton(), Some(42));
        assert_eq!(ByteDomain::full().as_singleton(), None);
        assert_eq!(d.min(), Some(42));
        assert_eq!(d.max(), Some(42));
        assert_eq!(ByteDomain::full().max(), Some(255));
        assert_eq!(ByteDomain::empty().max(), None);
    }

    #[test]
    fn intersect_reports_change() {
        let mut a = ByteDomain::full();
        let b = ByteDomain::singleton(7);
        assert!(a.intersect(&b));
        assert_eq!(a.as_singleton(), Some(7));
        assert!(!a.intersect(&b)); // second time: no change
    }

    #[test]
    fn iter_is_sorted() {
        let mut d = ByteDomain::empty();
        for v in [9u8, 3, 200, 64] {
            d.insert(v);
        }
        let vals: Vec<u8> = d.iter().collect();
        assert_eq!(vals, vec![3, 9, 64, 200]);
    }
}
