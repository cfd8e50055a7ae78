//! Taint labels: 4-byte names for sets of PoC file offsets, over one
//! table per run.

use std::collections::HashMap;

/// A set of PoC file offsets, named within one [`LabelTable`].
///
/// A label is a `u32`, so copying taint along a data-flow edge copies
/// four bytes. `0` is the empty set, `off + 1` is the single offset
/// `off`, and a label with the top bit set indexes the table's sorted
/// offset slices. The empty set and single offsets (one per `getc`, the
/// common case) never touch the table; an offset too large for the
/// inline form (a file of 2 GiB or more) gets a table slice of one.
///
/// Equal labels name equal sets. Two table labels may also name equal
/// sets, so set equality is [`LabelTable::offsets`] equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Label(u32);

/// The tag of table labels; the other 31 bits are the slice's index.
const TABLE: u32 = 1 << 31;

impl Label {
    /// The empty (untainted) set.
    pub const EMPTY: Label = Label(0);

    /// Whether the set is empty (no taint).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the label indexes the table (the collection tests).
    #[cfg(test)]
    pub(crate) fn in_table(self) -> bool {
        self.index().is_some()
    }

    /// The table slice this label indexes, if it is not inline.
    fn index(self) -> Option<usize> {
        (self.0 & TABLE != 0).then_some((self.0 & !TABLE) as usize)
    }
}

/// How far the table may grow past what a collection found live: the
/// bound is `HEADROOM * (live offsets + roots) + MIN_BOUND` entries.
/// A collection costs time in proportion to the live offsets plus roots,
/// so a constant headroom amortises it over the garbage made since the
/// last one. On the fold of the bounded-memory test at n = 60,000 (a
/// 2-vCPU host), 2 took twice as long as 4, and 8 raised peak RSS above
/// that of the `Rc`-set engine this replaced; 4 was faster than that
/// engine at a lower peak.
pub(crate) const HEADROOM: usize = 4;

/// The least bound, so that a run with little taint never collects.
pub(crate) const MIN_BOUND: usize = 1 << 12;

/// The sets of one run: sorted offset slices back to back, and a memo of
/// the unions already taken.
///
/// Labels it hands out stay valid until a collection, which the taint
/// engine runs at a block boundary once the offsets plus memo entries
/// reach the table's bound. A collection keeps the sets its roots name,
/// compacts them to the front in index order, renames the roots' labels
/// and empties the memo.
#[derive(Debug)]
pub struct LabelTable {
    /// The offsets of every table set, back to back.
    offs: Vec<u32>,
    /// Where each table set starts in `offs`; it ends where the next one
    /// starts, or at the end of `offs`.
    starts: Vec<u32>,
    /// The union of two distinct non-empty labels, keyed smaller first.
    memo: HashMap<(Label, Label), Label>,
    /// `offs` plus `memo` entries past which the next block boundary
    /// collects.
    bound: usize,
    /// During a collection, each table set's new index, or `DEAD`.
    renames: Vec<u32>,
    /// Collect at every block boundary (the differential oracle).
    #[cfg(test)]
    forced: bool,
    /// The largest `used()` a collection found, and the largest bound.
    #[cfg(test)]
    pub(crate) peak: (usize, usize),
}

/// A table set no root names.
const DEAD: u32 = u32::MAX;

impl Default for LabelTable {
    fn default() -> LabelTable {
        LabelTable::new()
    }
}

impl LabelTable {
    /// An empty table.
    pub fn new() -> LabelTable {
        LabelTable {
            offs: Vec::new(),
            starts: Vec::new(),
            memo: HashMap::new(),
            bound: MIN_BOUND,
            renames: Vec::new(),
            #[cfg(test)]
            forced: false,
            #[cfg(test)]
            peak: (0, 0),
        }
    }

    /// The set `{off}`.
    pub fn single(&mut self, off: u32) -> Label {
        if off < TABLE - 1 {
            Label(off + 1)
        } else {
            self.intern(&[off])
        }
    }

    /// The set of `offs`, in any order and with repeats.
    pub fn from_offsets(&mut self, offs: impl IntoIterator<Item = u32>) -> Label {
        let mut v: Vec<u32> = offs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        match v[..] {
            [] => Label::EMPTY,
            [off] => self.single(off),
            _ => self.intern(&v),
        }
    }

    /// The offsets of `l` in ascending order.
    pub fn offsets(&self, l: Label) -> impl Iterator<Item = u32> + '_ {
        let (one, many) = match l.index() {
            Some(i) => (None, self.slice(i)),
            None => ((!l.is_empty()).then(|| l.0 - 1), &[][..]),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// The union of `a` and `b`. Equal or empty operands return at once;
    /// otherwise the memo answers, or a sorted merge whose result is an
    /// operand's label when the merge adds nothing to that operand.
    #[inline]
    pub fn union(&mut self, a: Label, b: Label) -> Label {
        if a == b || b.is_empty() {
            a
        } else if a.is_empty() {
            b
        } else {
            self.union_distinct(a, b)
        }
    }

    fn union_distinct(&mut self, a: Label, b: Label) -> Label {
        let key = if a.0 < b.0 { (a, b) } else { (b, a) };
        if let Some(&u) = self.memo.get(&key) {
            return u;
        }
        let u = self.merge(a, b);
        self.memo.insert(key, u);
        u
    }

    /// Merges `a` and `b` into the end of `offs`, which becomes a new set
    /// unless it equals one of them.
    fn merge(&mut self, a: Label, b: Label) -> Label {
        let base = self.offs.len();
        let (ra, rb) = (self.range(a), self.range(b));
        let (na, nb) = (ra.1 - ra.0, rb.1 - rb.0);
        self.offs.resize(base + na + nb, 0);
        let (old, out) = self.offs.split_at_mut(base);
        let (mut one_a, mut one_b) = ([0], [0]);
        let sa = operand(old, a, ra, &mut one_a);
        let sb = operand(old, b, rb, &mut one_b);
        let n = merge_into(sa, sb, out);
        if n == na || n == nb {
            self.offs.truncate(base);
            return if n == na { a } else { b };
        }
        self.offs.truncate(base + n);
        self.push_start(base)
    }

    /// Appends `offs`, sorted and deduplicated, as a new set.
    fn intern(&mut self, offs: &[u32]) -> Label {
        let base = self.offs.len();
        self.offs.extend_from_slice(offs);
        self.push_start(base)
    }

    fn push_start(&mut self, base: usize) -> Label {
        let i = self.starts.len();
        assert!(i < TABLE as usize, "taint label table index overflow");
        let base = u32::try_from(base).expect("taint label table holds under 2^32 offsets");
        self.starts.push(base);
        Label(TABLE | i as u32)
    }

    /// The bounds of table set `i` in `offs`.
    fn span(&self, i: usize) -> (usize, usize) {
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.offs.len(), |&e| e as usize);
        (self.starts[i] as usize, end)
    }

    fn slice(&self, i: usize) -> &[u32] {
        let (s, e) = self.span(i);
        &self.offs[s..e]
    }

    /// The bounds of `l`'s slice in `offs`. For an inline label only the
    /// length means anything: `(0, 0)` or `(0, 1)`.
    fn range(&self, l: Label) -> (usize, usize) {
        match l.index() {
            Some(i) => self.span(i),
            None => (0, usize::from(!l.is_empty())),
        }
    }

    /// Table entries in use: offsets plus memo entries.
    #[inline(always)]
    pub(crate) fn used(&self) -> usize {
        self.offs.len() + self.memo.len()
    }

    /// Whether the table has outgrown its bound, so that the next
    /// collection is due. One compare, made at every block boundary.
    #[inline(always)]
    pub(crate) fn over_bound(&self) -> bool {
        self.used() >= self.bound
    }

    /// Starts a collection: every table set is dead until a root marks it.
    pub(crate) fn begin_collection(&mut self) {
        #[cfg(test)]
        {
            self.peak = (self.peak.0.max(self.used()), self.peak.1.max(self.bound));
        }
        self.renames.clear();
        self.renames.resize(self.starts.len(), DEAD);
    }

    /// Marks the set a root names as live.
    pub(crate) fn mark(&mut self, l: Label) {
        if let Some(i) = l.index() {
            self.renames[i] = 0;
        }
    }

    /// Slides the live sets to the front in index order, numbering them
    /// afresh, empties the memo and sets the next bound from the live
    /// offsets and the number of roots.
    pub(crate) fn compact(&mut self, roots: usize) {
        let mut write = 0;
        let mut live = 0;
        for i in 0..self.starts.len() {
            if self.renames[i] == DEAD {
                continue;
            }
            let (s, e) = self.span(i);
            self.offs.copy_within(s..e, write);
            self.starts[live] = write as u32;
            self.renames[i] = live as u32;
            write += e - s;
            live += 1;
        }
        self.offs.truncate(write);
        self.starts.truncate(live);
        self.memo.clear();
        self.bound = HEADROOM * (write + roots) + MIN_BOUND;
        #[cfg(test)]
        if self.forced {
            self.bound = 0;
        }
    }

    /// The label a root names after [`LabelTable::compact`].
    pub(crate) fn renamed(&self, l: Label) -> Label {
        match l.index() {
            Some(i) => Label(TABLE | self.renames[i]),
            None => l,
        }
    }

    /// Makes every block boundary collect.
    #[cfg(test)]
    pub(crate) fn force_collection(&mut self) {
        self.forced = true;
        self.bound = 0;
    }

    /// Table sets and offsets now held (the collection tests).
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        (self.starts.len(), self.offs.len())
    }
}

/// The slice of operand `l`: its table range of `old`, or `one` holding
/// its inline offset.
fn operand<'a>(old: &'a [u32], l: Label, r: (usize, usize), one: &'a mut [u32; 1]) -> &'a [u32] {
    match l.index() {
        Some(_) => &old[r.0..r.1],
        None => {
            one[0] = l.0 - 1;
            &one[..]
        }
    }
}

/// Writes the sorted, deduplicated union of two non-empty sorted,
/// deduplicated slices into `out` and returns its length. Slices that do
/// not overlap are copied whole, as when a fold adds a higher offset.
fn merge_into(a: &[u32], b: &[u32], out: &mut [u32]) -> usize {
    let (a, b) = if a[0] <= b[0] { (a, b) } else { (b, a) };
    if a[a.len() - 1] < b[0] {
        out[..a.len()].copy_from_slice(a);
        out[a.len()..a.len() + b.len()].copy_from_slice(b);
        return a.len() + b.len();
    }
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x.min(y);
        if x <= y {
            i += 1;
        }
        if y <= x {
            j += 1;
        }
        n += 1;
    }
    for &x in a[i..].iter().chain(&b[j..]) {
        out[n] = x;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offs(t: &LabelTable, l: Label) -> Vec<u32> {
        t.offsets(l).collect()
    }

    #[test]
    fn empty_and_single_offsets_stay_inline() {
        let mut t = LabelTable::new();
        assert!(Label::EMPTY.is_empty());
        assert_eq!(offs(&t, Label::EMPTY), Vec::<u32>::new());
        assert_eq!(t.single(0), Label(1));
        assert_eq!(t.from_offsets([3, 3]), t.single(3));
        assert_eq!(t.from_offsets([]), Label::EMPTY);
        assert_eq!(t.held(), (0, 0));
        let big = t.single(u32::MAX);
        assert_eq!(offs(&t, big), vec![u32::MAX]);
        let last_inline = t.single(TABLE - 2);
        assert_eq!(offs(&t, last_inline), vec![TABLE - 2]);
        assert_eq!(t.held(), (1, 1), "only the offset past the inline form");
    }

    #[test]
    fn union_merges_sorted_and_reuses_an_operand_that_holds_the_result() {
        let mut t = LabelTable::new();
        let a = t.from_offsets([5, 1, 3]);
        let b = t.from_offsets([2, 3, 9]);
        let u = t.union(a, b);
        assert_eq!(offs(&t, u), vec![1, 2, 3, 5, 9]);
        assert_eq!(t.union(b, a), u, "the memo is keyed on the unordered pair");
        let three = t.single(3);
        assert_eq!(t.union(a, three), a);
        assert_eq!(t.union(three, a), a);
        assert_eq!(t.union(a, Label::EMPTY), a);
        assert_eq!(t.union(Label::EMPTY, a), a);
        let twin = t.from_offsets([1, 3, 5]);
        assert_eq!(t.union(a, twin), a, "equal sets: the left operand");
        assert_eq!(t.held(), (4, 14), "a, b, a ∪ b and twin");
    }

    #[test]
    fn collection_keeps_and_renames_what_the_roots_name() {
        let mut t = LabelTable::new();
        let dead = t.from_offsets([7, 8]);
        let live = t.from_offsets([1, 2, 4]);
        let also_dead = t.union(dead, live);
        assert_ne!(also_dead, live);
        let mut roots = [live, t.single(6), Label::EMPTY];
        t.begin_collection();
        roots.iter().for_each(|&l| t.mark(l));
        t.compact(roots.len());
        for r in &mut roots {
            *r = t.renamed(*r);
        }
        assert_eq!(t.held(), (1, 3));
        assert_eq!(offs(&t, roots[0]), vec![1, 2, 4]);
        assert_eq!(offs(&t, roots[1]), vec![6]);
        assert!(roots[2].is_empty());
        assert_eq!(t.bound, HEADROOM * (3 + 3) + MIN_BOUND);
        assert!(t.memo.is_empty());
        // The memo is gone, so a union is merged again.
        let u = t.union(roots[0], roots[1]);
        assert_eq!(offs(&t, u), vec![1, 2, 4, 6]);
    }
}
