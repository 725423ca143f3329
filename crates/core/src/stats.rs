//! Per-column statistics: KMV distinct-value sketches and `Int` min/max
//! ranges, maintained per stored relation.
//!
//! Each [`Relation`](crate::Relation) lazily materializes a
//! [`TableStats`] over its tuples on first request and then keeps it
//! current *incrementally*: inserting a fresh tuple observes its values
//! into the sketches. A sketch cannot unobserve, so a delete only
//! decrements the exact row count: the sketches and `Int` ranges stay
//! valid *upper bounds* (distinct counts are clamped to the row count)
//! until the deletes since the last build pass
//! [`STATS_REBUILD_FRACTION`] of the rows, when the relation drops the
//! stats and the next reader rebuilds them in one scan. The cost-based
//! planner ([`crate::plan`]) reads these through
//! [`DbStats`](crate::plan::DbStats) to estimate predicate
//! selectivities and join cardinalities.
//!
//! The distinct counter is a K-Minimum-Values sketch (Bar-Yossef et al.):
//! keep the `K` smallest 64-bit hashes ever observed; with `k` distinct
//! hashes seen and the `K`-th smallest at height `h`, the distinct count
//! is estimated as `(K-1) · 2⁶⁴ / h`. Below `K` distinct values the
//! sketch is exact (modulo hash collisions).

use crate::database::Tuple;
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Stats are rebuilt once the deletes since their last build exceed
/// `1 / STATS_REBUILD_FRACTION` of the live rows. Below that the
/// deleted values' share of any distinct estimate is small.
pub const STATS_REBUILD_FRACTION: u64 = 8;

/// Sketch size: the number of minimum hash values retained. 256 keeps
/// the relative error around `1/√(K-2)` ≈ 6% at a few KiB per column.
pub const KMV_K: usize = 256;

fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A K-Minimum-Values distinct-count sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KmvSketch {
    /// The at-most-[`KMV_K`] smallest distinct hashes observed.
    mins: BTreeSet<u64>,
}

impl KmvSketch {
    /// Observes one value. Duplicates are absorbed by hash identity.
    pub fn observe(&mut self, v: &Value) {
        let h = hash_value(v);
        if self.mins.len() >= KMV_K {
            let max = *self.mins.iter().next_back().expect("non-empty at K");
            if h >= max {
                return;
            }
            if self.mins.insert(h) {
                self.mins.remove(&max);
            }
        } else {
            self.mins.insert(h);
        }
    }

    /// The estimated number of distinct values observed.
    pub fn distinct(&self) -> u64 {
        let k = self.mins.len();
        if k < KMV_K {
            k as u64
        } else {
            let kth = *self.mins.iter().next_back().expect("non-empty at K");
            (((KMV_K - 1) as f64) * (u64::MAX as f64) / (kth as f64).max(1.0)) as u64
        }
    }
}

/// Statistics for one column: a distinct sketch plus the observed
/// `Int` range (when the column holds integers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStats {
    sketch: KmvSketch,
    min_int: Option<i64>,
    max_int: Option<i64>,
}

impl ColumnStats {
    /// Observes one value into the sketch and the `Int` range.
    pub fn observe(&mut self, v: &Value) {
        self.sketch.observe(v);
        if let Value::Int(i) = v {
            self.min_int = Some(self.min_int.map_or(*i, |m| m.min(*i)));
            self.max_int = Some(self.max_int.map_or(*i, |m| m.max(*i)));
        }
    }

    /// Estimated distinct values in this column.
    pub fn distinct(&self) -> u64 {
        self.sketch.distinct()
    }

    /// The observed `Int` min/max, if any integer was seen. The range
    /// only grows: after deletes it is an upper bound on the live range.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        match (self.min_int, self.max_int) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
    }
}

/// Statistics for one relation: row count plus per-column
/// [`ColumnStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    rows: u64,
    cols: Vec<ColumnStats>,
    /// Deletes applied since these stats were built.
    deleted: u64,
}

impl TableStats {
    /// Empty statistics for a relation of the given arity.
    pub fn new(arity: usize) -> Self {
        TableStats {
            rows: 0,
            cols: (0..arity).map(|_| ColumnStats::default()).collect(),
            deleted: 0,
        }
    }

    /// Builds statistics by scanning `tuples` once.
    pub fn of<'a>(arity: usize, tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut st = TableStats::new(arity);
        for t in tuples {
            st.observe(t);
        }
        st
    }

    /// Observes one (fresh — the caller dedups) tuple incrementally.
    pub fn observe(&mut self, t: &Tuple) {
        self.rows += 1;
        for (c, v) in t.iter().enumerate() {
            if let Some(col) = self.cols.get_mut(c) {
                col.observe(v);
            }
        }
    }

    /// Records that one (present — the caller checks) row was deleted:
    /// the row count stays exact, the sketches and ranges keep the
    /// deleted values as upper bounds. Returns `true` once the deletes
    /// since the build exceed `1 / STATS_REBUILD_FRACTION` of the live
    /// rows — the caller should then drop these stats and rebuild.
    pub fn observe_delete(&mut self) -> bool {
        self.rows = self.rows.saturating_sub(1);
        self.deleted += 1;
        self.deleted * STATS_REBUILD_FRACTION > self.rows
    }

    /// Number of live rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The column statistics (one entry per attribute).
    pub fn columns(&self) -> &[ColumnStats] {
        &self.cols
    }

    /// Estimated distinct values in column `col`, clamped to the row
    /// count (deletes shrink rows but not sketches) and to at least 1 on
    /// non-empty relations, falling back to the row count for
    /// out-of-range columns.
    pub fn distinct(&self, col: usize) -> u64 {
        match self.cols.get(col) {
            Some(c) => c.distinct().min(self.rows).max(u64::from(self.rows > 0)),
            None => self.rows,
        }
    }

    /// The observed `Int` range of column `col`, if known.
    pub fn int_range(&self, col: usize) -> Option<(i64, i64)> {
        self.cols.get(col).and_then(ColumnStats::int_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmv_exact_below_k() {
        let mut s = KmvSketch::default();
        for i in 0..100i64 {
            s.observe(&Value::Int(i));
            s.observe(&Value::Int(i)); // duplicates absorbed
        }
        assert_eq!(s.distinct(), 100);
    }

    #[test]
    fn kmv_estimates_above_k() {
        let mut s = KmvSketch::default();
        for i in 0..10_000i64 {
            s.observe(&Value::Int(i));
        }
        let est = s.distinct() as f64;
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.25,
            "estimate {est} too far from 10000"
        );
    }

    #[test]
    fn column_tracks_int_range() {
        let mut c = ColumnStats::default();
        c.observe(&Value::Int(5));
        c.observe(&Value::Int(-3));
        c.observe(&Value::Str("x".into()));
        assert_eq!(c.int_range(), Some((-3, 5)));
        let mut s = ColumnStats::default();
        s.observe(&Value::Str("y".into()));
        assert_eq!(s.int_range(), None);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let rows: Vec<Tuple> = (0..500i64).map(|i| Tuple::new([i % 7, i])).collect();
        let scanned = TableStats::of(2, rows.iter());
        let mut inc = TableStats::new(2);
        for t in &rows {
            inc.observe(t);
        }
        assert_eq!(scanned, inc);
        assert_eq!(scanned.rows(), 500);
        assert_eq!(scanned.distinct(0), 7);
        assert_eq!(scanned.int_range(1), Some((0, 499)));
    }
}
