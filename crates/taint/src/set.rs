//! Small sorted sets of file offsets.

use std::rc::Rc;

/// An immutable, shareable set of PoC file offsets.
///
/// Taint sets are copied along every data-flow edge, so copying one must
/// be cheap. The empty set and a one-offset set (one per `getc`, the
/// common case) are held inline and never allocate; only sets of two or
/// more offsets share a reference-counted slice. A one-offset set always
/// takes the inline form, so the derived equality is structural: equal
/// sets compare equal however they were built.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintSet(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Repr {
    #[default]
    Empty,
    One(u32),
    /// Two or more offsets, sorted and deduplicated.
    Many(Rc<[u32]>),
}

impl TaintSet {
    /// The empty (untainted) set.
    pub fn empty() -> TaintSet {
        TaintSet::default()
    }

    /// A single-offset set.
    pub fn single(off: u32) -> TaintSet {
        TaintSet(Repr::One(off))
    }

    /// Builds from a sorted, deduplicated vector.
    fn from_sorted(v: Vec<u32>) -> TaintSet {
        match v.len() {
            0 => TaintSet::empty(),
            1 => TaintSet::single(v[0]),
            _ => TaintSet(Repr::Many(v.into())),
        }
    }

    /// The offsets as a sorted slice.
    fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(off) => std::slice::from_ref(off),
            Repr::Many(offs) => offs,
        }
    }

    /// Whether the set is empty (no taint).
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Number of offsets.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// The offsets in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.as_slice().iter().copied()
    }

    /// Set union. Allocates nothing when either side is empty, when both
    /// sides are the same set, or when one side is a single offset the
    /// other already holds: the result then shares that side's storage.
    pub fn union(&self, other: &TaintSet) -> TaintSet {
        match (&self.0, &other.0) {
            (_, Repr::Empty) => self.clone(),
            (Repr::Empty, _) => other.clone(),
            (_, Repr::One(off)) if self.contains(*off) => self.clone(),
            (Repr::One(off), _) if other.contains(*off) => other.clone(),
            (Repr::Many(a), Repr::Many(b)) if a == b => self.clone(),
            _ => TaintSet::from_sorted(merge(self.as_slice(), other.as_slice())),
        }
    }

    /// Whether `off` is in the set.
    pub fn contains(&self, off: u32) -> bool {
        match &self.0 {
            Repr::Empty => false,
            Repr::One(o) => *o == off,
            Repr::Many(offs) => offs.binary_search(&off).is_ok(),
        }
    }
}

/// The sorted, deduplicated union of two sorted, deduplicated slices.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl FromIterator<u32> for TaintSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> TaintSet {
        let mut v: Vec<u32> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        TaintSet::from_sorted(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `a` and `b` are the same shared allocation.
    fn same_storage(a: &TaintSet, b: &TaintSet) -> bool {
        match (&a.0, &b.0) {
            (Repr::Many(x), Repr::Many(y)) => Rc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn empty_properties() {
        let e = TaintSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(0));
    }

    #[test]
    fn union_merges_sorted() {
        let a = TaintSet::from_iter([5, 1, 3]);
        let b = TaintSet::from_iter([2, 3, 9]);
        let u = a.union(&b);
        let offs: Vec<u32> = u.iter().collect();
        assert_eq!(offs, vec![1, 2, 3, 5, 9]);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = TaintSet::from_iter([4, 7]);
        assert_eq!(a.union(&TaintSet::empty()), a);
        assert_eq!(TaintSet::empty().union(&a), a);
    }

    #[test]
    fn one_offset_sets_are_inline() {
        assert_eq!(TaintSet::from_iter([3, 3]), TaintSet::single(3));
        assert_eq!(
            TaintSet::single(3).union(&TaintSet::single(3)),
            TaintSet::single(3)
        );
        assert!(matches!(TaintSet::from_iter([3]).0, Repr::One(3)));
    }

    #[test]
    fn union_that_adds_nothing_returns_the_receivers_storage() {
        let a = TaintSet::from_iter([2, 4, 8]);
        let twin = TaintSet::from_iter([8, 4, 2]);
        assert!(!same_storage(&a, &twin));
        for other in [TaintSet::empty(), a.clone(), twin, TaintSet::single(4)] {
            let u = a.union(&other);
            assert!(same_storage(&u, &a), "{a:?} ∪ {other:?} allocated");
        }
        // The single offset or the empty set may sit on either side.
        assert!(same_storage(&TaintSet::single(8).union(&a), &a));
        assert!(same_storage(&TaintSet::empty().union(&a), &a));
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = TaintSet::from_iter(0..100);
        assert!(a.contains(42));
        assert!(!a.contains(100));
    }
}
