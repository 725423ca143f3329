//! Copy-on-write relation storage and the derived column image.
//!
//! A stored relation's tuples live in a [`TupleSet`]: a sorted set cut
//! into `Arc`-shared *leaves* of at most [`LEAF_CAP`] tuples, under one
//! vector of leaf pointers. Cloning a set copies only the pointer
//! vector, and a single-row insert or delete then copies the one leaf
//! it lands in — so a database snapshot that differs from its parent by
//! one row shares every other leaf with it, and retiring the parent
//! frees one leaf. Iteration order is the tuples' total order, the same
//! order a `BTreeSet<Tuple>` gives.
//!
//! A [`ColumnImage`] is the column-major transposition the batch
//! executor scans. Stored relations build theirs lazily, once per
//! relation version ([`Relation::column_image`](crate::Relation::column_image)),
//! and every build is counted ([`scan_image_builds`]).

use crate::database::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum tuples per leaf. A write copies at most one leaf of this
/// size (plus the pointer vector, one word per leaf); a leaf that grows
/// past it splits in two.
pub const LEAF_CAP: usize = 128;

/// A leaf that shrinks below this many tuples merges with a neighbour
/// when the two fit in one leaf, so deletes cannot leave the pointer
/// vector full of near-empty leaves.
const LEAF_MIN: usize = LEAF_CAP / 4;

/// A sorted set of tuples in copy-on-write leaves (see the module docs).
///
/// Invariants: every leaf is non-empty, sorted, and holds at most
/// [`LEAF_CAP`] tuples; the leaves concatenated are strictly increasing.
#[derive(Clone, Default)]
pub struct TupleSet {
    leaves: Vec<Arc<Vec<Tuple>>>,
    len: usize,
}

impl TupleSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from tuples that are already sorted and free of
    /// duplicates, packing them into full leaves.
    fn from_sorted(rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let len = rows.len();
        let mut leaves = Vec::with_capacity(len.div_ceil(LEAF_CAP));
        let mut rows = rows.into_iter();
        loop {
            let leaf: Vec<Tuple> = rows.by_ref().take(LEAF_CAP).collect();
            if leaf.is_empty() {
                break;
            }
            leaves.push(Arc::new(leaf));
        }
        TupleSet { leaves, len }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the tuples in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            leaves: self.leaves.iter(),
            leaf: [].iter(),
            remaining: self.len,
        }
    }

    /// The leaves, in order. Two snapshots that share a leaf hold the
    /// same `Arc` (`Arc::ptr_eq`) — the observable form of structural
    /// sharing.
    pub fn leaves(&self) -> &[Arc<Vec<Tuple>>] {
        &self.leaves
    }

    /// The index of the only leaf that can hold `t`: the first leaf
    /// whose last tuple is `>= t` (`leaves.len()` when `t` is above
    /// every tuple).
    fn leaf_for(&self, t: &Tuple) -> usize {
        self.leaves
            .partition_point(|leaf| leaf.last().expect("leaves are non-empty") < t)
    }

    /// `true` if `t` is in the set.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.leaves
            .get(self.leaf_for(t))
            .is_some_and(|leaf| leaf.binary_search(t).is_ok())
    }

    /// Mutable access to leaf `i`, copying it first when another
    /// snapshot shares it (with room for one more tuple, so the insert
    /// that usually follows does not reallocate).
    fn leaf_mut(&mut self, i: usize) -> &mut Vec<Tuple> {
        let slot = &mut self.leaves[i];
        if Arc::get_mut(slot).is_none() {
            let mut copy = Vec::with_capacity(slot.len() + 1);
            copy.extend_from_slice(slot);
            *slot = Arc::new(copy);
        }
        Arc::get_mut(slot).expect("just made unique")
    }

    /// Inserts `t`; returns `true` if it was new.
    pub(crate) fn insert(&mut self, t: Tuple) -> bool {
        if self.leaves.is_empty() {
            self.leaves.push(Arc::new(vec![t]));
            self.len = 1;
            return true;
        }
        // Above every tuple: append to the last leaf.
        let i = self.leaf_for(&t).min(self.leaves.len() - 1);
        let pos = match self.leaves[i].binary_search(&t) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let leaf = self.leaf_mut(i);
        leaf.insert(pos, t);
        if leaf.len() > LEAF_CAP {
            let upper = leaf.split_off(leaf.len() / 2);
            self.leaves.insert(i + 1, Arc::new(upper));
        }
        self.len += 1;
        true
    }

    /// Removes `t`; returns `true` if it was present.
    pub(crate) fn remove(&mut self, t: &Tuple) -> bool {
        let i = self.leaf_for(t);
        let pos = match self.leaves.get(i).map(|leaf| leaf.binary_search(t)) {
            Some(Ok(pos)) => pos,
            _ => return false,
        };
        let leaf = self.leaf_mut(i);
        leaf.remove(pos);
        let left = leaf.len();
        self.len -= 1;
        if left == 0 {
            self.leaves.remove(i);
        } else if left < LEAF_MIN {
            self.merge_small(i);
        }
        true
    }

    /// Folds the underfull leaf `i` into a neighbour when both fit in
    /// one leaf.
    fn merge_small(&mut self, i: usize) {
        let fits = |a: usize, b: usize| self.leaves[a].len() + self.leaves[b].len() <= LEAF_CAP;
        let (into, from) = if i + 1 < self.leaves.len() && fits(i, i + 1) {
            (i, i + 1)
        } else if i > 0 && fits(i - 1, i) {
            (i - 1, i)
        } else {
            return;
        };
        let moved = self.leaves.remove(from);
        self.leaf_mut(into).extend_from_slice(&moved);
    }

    /// Adds every tuple of `rows` (in any order, duplicates allowed)
    /// with one sort and one merge pass instead of a leaf search per
    /// row — the build path for query results and whole-set rebuilds.
    /// Returns how many were new.
    pub(crate) fn extend_batch(&mut self, mut rows: Vec<Tuple>) -> usize {
        rows.sort_unstable();
        rows.dedup();
        let before = self.len;
        if self.is_empty() {
            *self = TupleSet::from_sorted(rows);
        } else if rows.len() <= LEAF_CAP {
            for t in rows {
                self.insert(t);
            }
        } else {
            let old = std::mem::take(self);
            let mut merged = Vec::with_capacity(old.len + rows.len());
            let mut rows = rows.into_iter().peekable();
            for x in old.iter() {
                while let Some(y) = rows.next_if(|y| y < x) {
                    merged.push(y);
                }
                rows.next_if(|y| y == x);
                merged.push(x.clone());
            }
            merged.extend(rows);
            *self = TupleSet::from_sorted(merged);
        }
        self.len - before
    }
}

impl FromIterator<Tuple> for TupleSet {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut set = TupleSet::new();
        set.extend_batch(iter.into_iter().collect());
        set
    }
}

/// Set equality: the same tuples (leaf boundaries are not content).
impl PartialEq for TupleSet {
    fn eq(&self, other: &TupleSet) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for TupleSet {}

impl fmt::Debug for TupleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over a [`TupleSet`].
pub struct Iter<'a> {
    leaves: std::slice::Iter<'a, Arc<Vec<Tuple>>>,
    leaf: std::slice::Iter<'a, Tuple>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(t) = self.leaf.next() {
                self.remaining -= 1;
                return Some(t);
            }
            self.leaf = self.leaves.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

static SCAN_IMAGE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// How many stored-relation column images this process has built. A
/// repeated query over unchanged data builds none.
pub fn scan_image_builds() -> u64 {
    SCAN_IMAGE_BUILDS.load(Ordering::Relaxed)
}

/// A relation transposed column-major: `column(c)[r]` is row `r`'s value
/// in column `c`, rows in set order. Immutable once built and shared by
/// `Arc` between the relation that caches it and every execution
/// scanning it.
#[derive(Debug, PartialEq, Eq)]
pub struct ColumnImage {
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl ColumnImage {
    /// Transposes `tuples` (each of `arity` values) in one pass.
    pub fn of<'a>(arity: usize, tuples: impl ExactSizeIterator<Item = &'a Tuple>) -> ColumnImage {
        let len = tuples.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(len)).collect();
        for t in tuples {
            for (col, v) in cols.iter_mut().zip(t.iter()) {
                col.push(v.clone());
            }
        }
        ColumnImage { cols, len }
    }

    /// [`ColumnImage::of`] for a stored relation's version, counted in
    /// [`scan_image_builds`].
    pub(crate) fn build_counted(arity: usize, set: &TupleSet) -> ColumnImage {
        SCAN_IMAGE_BUILDS.fetch_add(1, Ordering::Relaxed);
        ColumnImage::of(arity, set.iter())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the image has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values of column `c`, in row order.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Row `row`'s value in column `col`.
    #[inline]
    pub(crate) fn value(&self, col: usize, row: u32) -> &Value {
        &self.cols[col][row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(i: i64) -> Tuple {
        Tuple::new([i])
    }

    fn check(set: &TupleSet, model: &BTreeSet<Tuple>) {
        assert_eq!(set.len(), model.len());
        assert!(set.iter().eq(model.iter()));
        assert_eq!(set.iter().len(), model.len());
        for leaf in set.leaves() {
            assert!(!leaf.is_empty() && leaf.len() <= LEAF_CAP);
        }
    }

    #[test]
    fn matches_a_btreeset_under_random_inserts_and_removes() {
        let mut set = TupleSet::new();
        let mut model = BTreeSet::new();
        let mut x: u64 = 7;
        for step in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 2_000) as i64;
            // Grow for the first half, then mostly shrink.
            let insert = (x >> 20) % 10 < if step < 10_000 { 7 } else { 3 };
            if insert {
                assert_eq!(set.insert(t(v)), model.insert(t(v)));
            } else {
                assert_eq!(set.remove(&t(v)), model.remove(&t(v)));
            }
            assert_eq!(set.contains(&t(v)), model.contains(&t(v)));
        }
        check(&set, &model);
        assert!(!set.contains(&t(-1)) && !set.contains(&t(5_000)));
    }

    #[test]
    fn single_row_writes_copy_one_leaf() {
        let base: TupleSet = (0..10_000).map(t).collect();
        assert_eq!(base.leaves().len(), 10_000usize.div_ceil(LEAF_CAP));
        let mut next = base.clone();
        assert!(next.insert(t(5_000_000)));
        assert!(next.remove(&t(42)));
        let shared = base
            .leaves()
            .iter()
            .filter(|a| next.leaves().iter().any(|b| Arc::ptr_eq(a, b)))
            .count();
        assert_eq!(shared, base.leaves().len() - 2);
        assert_eq!(base.len(), 10_000);
        assert_eq!(next.len(), 10_000);
    }

    #[test]
    fn extend_batch_merges_and_dedups() {
        let mut set: TupleSet = (0..500).map(|i| t(i * 2)).collect();
        let added = set.extend_batch((0..600).map(t).chain((0..600).map(t)).collect());
        assert_eq!(added, 300, "the odd numbers below 600");
        let model: BTreeSet<Tuple> = (0..600).map(t).chain((0..500).map(|i| t(i * 2))).collect();
        check(&set, &model);
        // Small batches take the per-row path.
        assert_eq!(set.extend_batch(vec![t(-5), t(-5), t(0)]), 1);
        assert!(set.contains(&t(-5)));
    }

    #[test]
    fn deletes_merge_underfull_leaves() {
        let mut set: TupleSet = (0..1_000).map(t).collect();
        for i in 0..1_000 {
            if i % 10 != 0 {
                set.remove(&t(i));
            }
        }
        assert_eq!(set.len(), 100);
        assert!(set.leaves().len() <= 100usize.div_ceil(LEAF_MIN));
        let model: BTreeSet<Tuple> = (0..100).map(|i| t(i * 10)).collect();
        check(&set, &model);
    }

    #[test]
    fn column_image_transposes_in_set_order() {
        let set: TupleSet = [Tuple::new([2i64, 20]), Tuple::new([1i64, 10])]
            .into_iter()
            .collect();
        let img = ColumnImage::of(2, set.iter());
        assert_eq!(img.len(), 2);
        assert_eq!(img.column(0), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(img.column(1), &[Value::Int(10), Value::Int(20)]);
        assert_eq!(img.value(1, 1), &Value::Int(20));
    }
}
