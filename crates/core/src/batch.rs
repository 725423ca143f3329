//! The executor: every compiled plan runs here, whichever of the four
//! languages it came from.
//!
//! Relations are scanned as column vectors ([`ColumnImage`]) — a
//! relation's image is built once per relation version and cached in
//! the relation itself, a program view's once per execution. Pipelines
//! run over batches of row ids ([`Batch`]) seeded in fixed-size chunks
//! of [`CHUNK_ROWS`] rows; every scan binds one tuple slot, so a batch
//! row is a vector of row ids, one per bound scan. Filters and
//! comparisons evaluate over whole batches with selection vectors;
//! joins probe a [`JoinTable`] — a direct-indexed dense array when
//! every key column is interned symbols (or integers) with a small live
//! range, a hash map otherwise.
//!
//! [`exec`](crate::exec) dispatches each plan shape to one of two entry
//! points: [`run_query`] for a query branch (a program runs its views'
//! branches the same way) and [`run_sentence`] for a Boolean sentence.
//! A sentence is a formula over the unit batch (one row binding
//! nothing), evaluated by the same [`eval_mask`] that filters pipeline
//! rows. A query's deferred head-validation conjuncts become ordinary
//! batch filters: head-column references are rewritten to the head's
//! defining terms.
//!
//! Quantifiers are *loop-inverted and grouped*: an `Exists` block first
//! groups the outer rows by the few outer columns its subtree actually
//! reads (rows agreeing there share one verdict), then runs its scans
//! once over the batch of group representatives, each in-flight row
//! carrying the group it is proving; as soon as some full assignment
//! satisfies a group, it is marked and its remaining work is pruned at
//! the next step/chunk boundary.

use crate::database::{Database, Relation, Tuple};
use crate::error::CoreResult;
use crate::exec::{
    bump_n, record, record_build, Block, Formula, Pred, QueryPlan, Scan, SentencePlan, TallyMap,
    Term,
};
use crate::storage::ColumnImage;
use crate::symbol::SymbolTable;
use crate::value::Value;
use crate::CmpOp;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Rows per seed chunk: unkeyed scans feed the pipeline in column
/// chunks of this many rows, bounding working-set size independently of
/// relation cardinality.
pub const CHUNK_ROWS: usize = 1024;

/// Hard ceiling on a dense join table's slot count.
const DENSE_MAX_CAPACITY: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Join tables: dense direct-index or hash
// ---------------------------------------------------------------------

/// A build-side join table mapping key-column values to matching row
/// ids.
///
/// When every key column holds a single scalar kind (all `Int` or all
/// `Sym`) whose live range is small — the common case for interned
/// symbol columns, whose `u32` ids are allocated densely — the table is
/// a direct-indexed CSR array: probing is subtraction, multiplication,
/// and one slice lookup, no hashing. Otherwise it falls back to a
/// `HashMap` keyed by the value vector.
enum JoinTable {
    Dense {
        /// Per key column: the dense-kind tag ([`Value::as_dense_key`]).
        kinds: Vec<u8>,
        /// Per key column: the smallest encoded key.
        mins: Vec<i64>,
        /// Per key column: `max - min + 1`.
        spans: Vec<u64>,
        /// CSR offsets: slot `i`'s rows live at `rows[starts[i]..starts[i+1]]`.
        starts: Vec<u32>,
        /// Row ids, grouped by slot.
        rows: Vec<u32>,
    },
    Hash(HashMap<Vec<Value>, Vec<u32>>),
}

static NO_ROWS: [u32; 0] = [];

impl JoinTable {
    /// Builds a table over `len` rows with `ncols` key columns, reading
    /// key values through `at(row, keycol)`.
    fn build<'a, F>(len: usize, ncols: usize, at: F) -> JoinTable
    where
        F: Fn(usize, usize) -> &'a Value,
    {
        // Pass 1: per-column kind uniformity and live range.
        let mut kinds = vec![0u8; ncols];
        let mut mins = vec![0i64; ncols];
        let mut maxs = vec![0i64; ncols];
        let mut dense_ok = len > 0 && ncols > 0;
        'scan: for c in 0..ncols {
            for r in 0..len {
                match at(r, c).as_dense_key() {
                    Some((kind, code)) => {
                        if r == 0 {
                            kinds[c] = kind;
                            mins[c] = code;
                            maxs[c] = code;
                        } else if kind != kinds[c] {
                            dense_ok = false;
                            break 'scan;
                        } else {
                            mins[c] = mins[c].min(code);
                            maxs[c] = maxs[c].max(code);
                        }
                    }
                    None => {
                        dense_ok = false;
                        break 'scan;
                    }
                }
            }
        }
        if dense_ok {
            let mut capacity = 1u128;
            let mut spans = vec![0u64; ncols];
            for c in 0..ncols {
                let span = (maxs[c] - mins[c]) as u128 + 1;
                spans[c] = span as u64;
                capacity = capacity.saturating_mul(span);
            }
            // Dense pays capacity slots of memory; keep it proportional
            // to the data (sparse id ranges fall back to hashing).
            if capacity <= DENSE_MAX_CAPACITY as u128 && capacity <= 8 * len as u128 + 1024 {
                let capacity = capacity as usize;
                let slot = |r: usize| {
                    let mut idx = 0usize;
                    for c in 0..ncols {
                        let (_, code) = at(r, c).as_dense_key().expect("pass 1 checked");
                        idx = idx * spans[c] as usize + (code - mins[c]) as usize;
                    }
                    idx
                };
                // Pass 2: counting sort into CSR layout.
                let mut starts = vec![0u32; capacity + 1];
                for r in 0..len {
                    starts[slot(r) + 1] += 1;
                }
                for i in 1..starts.len() {
                    starts[i] += starts[i - 1];
                }
                let mut rows = vec![0u32; len];
                let mut cursor = starts.clone();
                for r in 0..len {
                    let s = slot(r);
                    rows[cursor[s] as usize] = r as u32;
                    cursor[s] += 1;
                }
                return JoinTable::Dense {
                    kinds,
                    mins,
                    spans,
                    starts,
                    rows,
                };
            }
        }
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for r in 0..len {
            let key: Vec<Value> = (0..ncols).map(|c| at(r, c).clone()).collect();
            map.entry(key).or_default().push(r as u32);
        }
        JoinTable::Hash(map)
    }

    /// The row ids matching the key `at(0..ncols)` (empty for misses,
    /// including keys of the wrong kind or outside the dense range —
    /// such values cannot equal any stored key). The dense path never
    /// clones a value; the hash path fills `scratch` (reused across
    /// calls, so a probe allocates only when the key outgrows the
    /// buffer).
    fn probe_with<'v>(
        &self,
        ncols: usize,
        at: impl Fn(usize) -> &'v Value,
        scratch: &mut Vec<Value>,
    ) -> &[u32] {
        match self {
            JoinTable::Dense {
                kinds,
                mins,
                spans,
                starts,
                rows,
            } => {
                let mut idx = 0usize;
                for c in 0..ncols {
                    match at(c).as_dense_key() {
                        Some((kind, code)) if kind == kinds[c] => {
                            let off = code.wrapping_sub(mins[c]);
                            if off < 0 || off as u64 >= spans[c] {
                                return &NO_ROWS;
                            }
                            idx = idx * spans[c] as usize + off as usize;
                        }
                        _ => return &NO_ROWS,
                    }
                }
                &rows[starts[idx] as usize..starts[idx + 1] as usize]
            }
            JoinTable::Hash(map) => {
                scratch.clear();
                scratch.extend((0..ncols).map(|c| at(c).clone()));
                map.get(scratch.as_slice())
                    .map(|v| v.as_slice())
                    .unwrap_or(&NO_ROWS)
            }
        }
    }

    /// The strategy label `explain analyze` reports.
    fn kind(&self) -> &'static str {
        match self {
            JoinTable::Dense { .. } => "dense-key",
            JoinTable::Hash(_) => "hash",
        }
    }
}

// ---------------------------------------------------------------------
// Quantifier grouping
// ---------------------------------------------------------------------

/// FNV-1a — a cheap non-cryptographic hasher for quantifier grouping,
/// where SipHash's per-call cost would rival the work being deduped.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }
    // Word-sized inputs fold in one multiply — the derived `Hash` for
    // `Value` emits a discriminant word plus a payload word, so hashing
    // a `Sym` or `Int` costs two multiplies instead of sixteen.
    fn write_u8(&mut self, n: u8) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::PRIME);
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_i64(&mut self, n: i64) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
}

/// Open-addressed interner mapping each row's dependency-value
/// combination to a dense group id — no per-row allocation: values hash
/// in place and equality is verified against the group's representative
/// row.
struct Groups {
    mask: usize,
    slots: Vec<u32>,
    hashes: Vec<u64>,
}

impl Groups {
    fn new(n: usize) -> Groups {
        let cap = (2 * n).next_power_of_two().max(8);
        Groups {
            mask: cap - 1,
            slots: vec![u32::MAX; cap],
            hashes: Vec::new(),
        }
    }

    /// The group id of `row`, allocating a new group (with `row` as its
    /// representative) on first sight of its dep values.
    fn intern(
        &mut self,
        batch: &Batch,
        deps: &[(usize, usize)],
        row: usize,
        reps: &mut Vec<usize>,
    ) -> u32 {
        use std::hash::Hash;
        use std::hash::Hasher as _;
        let mut f = Fnv::default();
        for &(s, c) in deps {
            batch.value(s, c, row).hash(&mut f);
        }
        let h = f.finish();
        let mut i = h as usize & self.mask;
        loop {
            match self.slots[i] {
                u32::MAX => {
                    let g = reps.len() as u32;
                    self.slots[i] = g;
                    self.hashes.push(h);
                    reps.push(row);
                    return g;
                }
                g if self.hashes[g as usize] == h
                    && deps.iter().all(|&(s, c)| {
                        batch.value(s, c, row) == batch.value(s, c, reps[g as usize])
                    }) =>
                {
                    return g;
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batches and slot resolution
// ---------------------------------------------------------------------

/// A batch of in-flight pipeline rows in columnar form: one row-id
/// column per bound scan step, all the same length, plus the origin id
/// each row is proving (used by quantifier pruning; all zero at the top
/// level).
struct Batch {
    steps: Vec<StepRows>,
    origins: Vec<u32>,
}

/// One bound scan step of a batch: the scanned relation and, per batch
/// row, which of its rows is bound.
struct StepRows {
    rel: Arc<ColumnImage>,
    rows: Vec<u32>,
}

impl Batch {
    /// The seed batch: one virtual row binding nothing (the unit of the
    /// cross product the pipeline builds up).
    fn unit() -> Batch {
        Batch {
            steps: Vec::new(),
            origins: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.origins.len()
    }

    /// The batch restricted to row indices in `keep`.
    fn select(&self, keep: &[usize]) -> Batch {
        Batch {
            steps: self
                .steps
                .iter()
                .map(|s| StepRows {
                    rel: s.rel.clone(),
                    rows: keep.iter().map(|&i| s.rows[i]).collect(),
                })
                .collect(),
            origins: keep.iter().map(|&i| self.origins[i]).collect(),
        }
    }

    /// The value bound at `(step, col)` for batch row `i`.
    #[inline]
    fn value(&self, step: usize, col: usize, i: usize) -> &Value {
        let s = &self.steps[step];
        s.rel.value(col, s.rows[i])
    }
}

/// Where each tuple slot is bound in a batch: the step that scanned
/// it. It holds coordinates instead of values — the values stay in the
/// shared columns.
struct SlotMap {
    tuple: Vec<usize>,
}

const UNBOUND: usize = usize::MAX;

impl SlotMap {
    fn new(tuple_slots: usize) -> SlotMap {
        SlotMap {
            tuple: vec![UNBOUND; tuple_slots],
        }
    }

    fn bind_scan(&mut self, scan: &Scan, step: usize) {
        self.tuple[scan.tuple_slot] = step;
    }

    fn unbind_scan(&mut self, scan: &Scan) {
        self.tuple[scan.tuple_slot] = UNBOUND;
    }
}

/// A term resolved against a [`SlotMap`]: either a constant or a batch
/// coordinate.
enum TermRef<'t> {
    Const(&'t Value),
    Col { step: usize, col: usize },
}

fn term_ref<'t>(t: &'t Term, sm: &SlotMap) -> TermRef<'t> {
    match t {
        Term::Const(v) => TermRef::Const(v),
        Term::Col { slot, col } => {
            let step = sm.tuple[*slot];
            debug_assert_ne!(step, UNBOUND, "terms attach only after their slot binds");
            TermRef::Col { step, col: *col }
        }
    }
}

impl TermRef<'_> {
    #[inline]
    fn value<'b>(&'b self, batch: &'b Batch, i: usize) -> &'b Value {
        match self {
            TermRef::Const(v) => v,
            TermRef::Col { step, col } => batch.value(*step, *col, i),
        }
    }
}

// ---------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------

/// Per-execution state of a pipeline run: lazily-built join tables (one
/// slot per keyed scan) and the optional analyze tally.
struct BatchCtx<'d> {
    db: &'d Database,
    symbols: &'d SymbolTable,
    tables: Vec<Option<Rc<JoinTable>>>,
    tally: Option<TallyMap>,
}

impl<'d> BatchCtx<'d> {
    fn new(db: &'d Database, n_indexes: usize, tally: Option<TallyMap>) -> Self {
        BatchCtx {
            db,
            symbols: db.symbols(),
            tables: vec![None; n_indexes],
            tally,
        }
    }

    /// The columnar image of `rel` (a program's view shadows a
    /// same-named stored table), cached in the relation.
    fn rel_data(&self, rel: &str) -> CoreResult<Arc<ColumnImage>> {
        Ok(self.db.require(rel)?.column_image())
    }

    /// The join table in slot `id` over `rel`'s `cols`, built on first
    /// probe.
    fn table_for(&mut self, rel: &ColumnImage, cols: &[usize], id: usize) -> Rc<JoinTable> {
        if let Some(t) = &self.tables[id] {
            return t.clone();
        }
        let table = Rc::new(JoinTable::build(rel.len(), cols.len(), |r, c| {
            rel.value(cols[c], r as u32)
        }));
        self.tables[id] = Some(table.clone());
        table
    }
}

// ---------------------------------------------------------------------
// The pipeline driver
// ---------------------------------------------------------------------

/// Where finished assignments go: collected by the caller at the top
/// level, or marking origins satisfied inside a quantifier (which also
/// prunes that origin's remaining work at the next step boundary).
enum Sink<'s> {
    Collect(&'s mut dyn FnMut(&Batch, &mut SlotMap, &mut BatchCtx) -> CoreResult<()>),
    Exists { satisfied: &'s mut [bool] },
}

impl Sink<'_> {
    #[inline]
    fn alive(&self, origin: u32) -> bool {
        match self {
            Sink::Collect(_) => true,
            Sink::Exists { satisfied } => !satisfied[origin as usize],
        }
    }

    fn emit(&mut self, batch: &Batch, sm: &mut SlotMap, ctx: &mut BatchCtx) -> CoreResult<()> {
        match self {
            Sink::Collect(f) => f(batch, sm, ctx),
            Sink::Exists { satisfied } => {
                for &o in &batch.origins {
                    satisfied[o as usize] = true;
                }
                Ok(())
            }
        }
    }
}

/// Drops rows whose origin is already satisfied (no-op batches pass
/// through untouched).
fn retain_alive(batch: Batch, sink: &Sink<'_>) -> Batch {
    if batch.origins.iter().all(|&o| sink.alive(o)) {
        return batch;
    }
    let keep: Vec<usize> = (0..batch.len())
        .filter(|&i| sink.alive(batch.origins[i]))
        .collect();
    batch.select(&keep)
}

/// Runs scans `si..` of a pipeline over `batch`, sending every full
/// assignment to `sink`.
fn run_scans(
    scans: &[Scan],
    si: usize,
    batch: Batch,
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
    sink: &mut Sink<'_>,
) -> CoreResult<()> {
    let batch = retain_alive(batch, sink);
    if batch.len() == 0 {
        return Ok(());
    }
    if si == scans.len() {
        return sink.emit(&batch, sm, ctx);
    }
    let scan = &scans[si];
    let rel = ctx.rel_data(&scan.rel)?;
    let step = batch.steps.len();
    if scan.is_keyed() {
        // Resolve key terms against the *outer* bindings, then bind this
        // scan's slots for the checks/filters below.
        let key_refs: Vec<TermRef> = scan.key_terms.iter().map(|t| term_ref(t, sm)).collect();
        let table = ctx.table_for(&rel, &scan.key_cols, scan.index_id);
        record_build(&mut ctx.tally, scan, table.kind());
        let mut nb = expand_empty(&batch, &rel);
        let mut key: Vec<Value> = Vec::with_capacity(key_refs.len());
        for i in 0..batch.len() {
            let rows = table.probe_with(key_refs.len(), |c| key_refs[c].value(&batch, i), &mut key);
            for &r in rows {
                push_expanded(&mut nb, &batch, i, r);
            }
        }
        sm.bind_scan(scan, step);
        descend(scans, si, nb, sm, ctx, sink)?;
    } else {
        sm.bind_scan(scan, step);
        // Full scan: cross the batch with the relation one chunk at a
        // time, re-checking origin liveness between chunks so satisfied
        // quantifier rows stop generating work. Existence checks start
        // with tiny chunks (rows decided by the relation's first few
        // tuples never touch the rest) and grow geometrically so a
        // scan-everything workload still amortizes to CHUNK_ROWS.
        let mut chunk = match sink {
            Sink::Exists { .. } => 4,
            Sink::Collect(_) => CHUNK_ROWS,
        };
        let mut start = 0usize;
        while start < rel.len() {
            let end = (start + chunk).min(rel.len());
            chunk = (chunk * 2).min(CHUNK_ROWS);
            let alive: Vec<usize> = (0..batch.len())
                .filter(|&i| sink.alive(batch.origins[i]))
                .collect();
            if alive.is_empty() {
                break;
            }
            let mut nb = expand_empty(&batch, &rel);
            for &i in &alive {
                for r in start..end {
                    push_expanded(&mut nb, &batch, i, r as u32);
                }
            }
            descend(scans, si, nb, sm, ctx, sink)?;
            start = end;
        }
    }
    sm.unbind_scan(scan);
    Ok(())
}

/// An empty batch shaped like `base` plus one new step scanning `rel`.
fn expand_empty(base: &Batch, rel: &Arc<ColumnImage>) -> Batch {
    let mut steps: Vec<StepRows> = base
        .steps
        .iter()
        .map(|s| StepRows {
            rel: s.rel.clone(),
            rows: Vec::new(),
        })
        .collect();
    steps.push(StepRows {
        rel: rel.clone(),
        rows: Vec::new(),
    });
    Batch {
        steps,
        origins: Vec::new(),
    }
}

/// Appends base row `i` extended with new-step row `r` to `nb`.
#[inline]
fn push_expanded(nb: &mut Batch, base: &Batch, i: usize, r: u32) {
    let last = nb.steps.len() - 1;
    for (s, col) in nb.steps[..last].iter_mut().enumerate() {
        col.rows.push(base.steps[s].rows[i]);
    }
    nb.steps[last].rows.push(r);
    nb.origins.push(base.origins[i]);
}

/// Applies scan `si`'s filters to the expanded batch, tallies the
/// survivors, and recurses into the next scan.
fn descend(
    scans: &[Scan],
    si: usize,
    nb: Batch,
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
    sink: &mut Sink<'_>,
) -> CoreResult<()> {
    let scan = &scans[si];
    if scan.filters.is_empty() {
        // Nothing to verify: every expanded row survives.
        bump_n(&mut ctx.tally, scan, nb.len());
        return run_scans(scans, si + 1, nb, sm, ctx, sink);
    }
    let mut sel: Vec<usize> = (0..nb.len()).collect();
    for f in &scan.filters {
        if sel.is_empty() {
            break;
        }
        let fm = eval_mask(f, &nb, &sel, sm, ctx)?;
        sel = sel
            .into_iter()
            .zip(&fm)
            .filter_map(|(i, &ok)| ok.then_some(i))
            .collect();
    }
    if sel.is_empty() {
        return Ok(());
    }
    bump_n(&mut ctx.tally, scan, sel.len());
    let survivors = if sel.len() == nb.len() {
        nb
    } else {
        nb.select(&sel)
    };
    run_scans(scans, si + 1, survivors, sm, ctx, sink)
}

// ---------------------------------------------------------------------
// Vectorized formula evaluation
// ---------------------------------------------------------------------

/// Evaluates `f` for the batch rows in `sel`, returning one truth value
/// per selected row. Conjunctions and disjunctions refine the selection
/// as they go (a row decided by an earlier operand is never evaluated by
/// a later one) — a per-row short-circuit, applied batch-wide.
fn eval_mask(
    f: &Formula,
    batch: &Batch,
    sel: &[usize],
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
) -> CoreResult<Vec<bool>> {
    match f {
        Formula::And(fs) => {
            let mut mask = vec![true; sel.len()];
            for sub in fs {
                let live: Vec<usize> = sel
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&i, &m)| m.then_some(i))
                    .collect();
                if live.is_empty() {
                    break;
                }
                let sub_mask = eval_mask(sub, batch, &live, sm, ctx)?;
                let mut it = sub_mask.iter();
                for m in mask.iter_mut().filter(|m| **m) {
                    *m = *it.next().expect("one verdict per live row");
                }
            }
            Ok(mask)
        }
        Formula::Or(fs) => {
            let mut mask = vec![false; sel.len()];
            for sub in fs {
                let live: Vec<usize> = sel
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&i, &m)| (!m).then_some(i))
                    .collect();
                if live.is_empty() {
                    break;
                }
                let sub_mask = eval_mask(sub, batch, &live, sm, ctx)?;
                let mut it = sub_mask.iter();
                for m in mask.iter_mut().filter(|m| !**m) {
                    *m = *it.next().expect("one verdict per live row");
                }
            }
            Ok(mask)
        }
        Formula::Not(sub) => {
            let mut mask = eval_mask(sub, batch, sel, sm, ctx)?;
            for m in &mut mask {
                *m = !*m;
            }
            Ok(mask)
        }
        Formula::Pred(p) => {
            let l = term_ref(&p.left, sm);
            let r = term_ref(&p.right, sm);
            Ok(sel
                .iter()
                .map(|&i| {
                    p.op.eval_resolved(l.value(batch, i), r.value(batch, i), ctx.symbols)
                })
                .collect())
        }
        Formula::Exists(block) => {
            let mut satisfied = vec![false; sel.len()];
            // Pre-scan conjuncts of the block constrain the outer rows.
            let mut live: Vec<usize> = (0..sel.len()).collect();
            for pre in &block.pre {
                if live.is_empty() {
                    break;
                }
                let live_rows: Vec<usize> = live.iter().map(|&p| sel[p]).collect();
                let pm = eval_mask(pre, batch, &live_rows, sm, ctx)?;
                live = live
                    .into_iter()
                    .zip(&pm)
                    .filter_map(|(p, &ok)| ok.then_some(p))
                    .collect();
            }
            if block.scans.is_empty() {
                for &p in &live {
                    satisfied[p] = true;
                }
                return Ok(satisfied);
            }
            if !live.is_empty() {
                // A single keyed probe with no residual checks answers
                // existence in O(1) per row — probe the join table
                // directly instead of seeding the scan machinery (no
                // batch clone, no match materialization, no grouping).
                let cheap = block.scans.len() == 1
                    && block.scans[0].is_keyed()
                    && block.scans[0].filters.is_empty();
                if cheap {
                    let scan = &block.scans[0];
                    let rel = ctx.rel_data(&scan.rel)?;
                    let key_refs: Vec<TermRef> =
                        scan.key_terms.iter().map(|t| term_ref(t, sm)).collect();
                    let table = ctx.table_for(&rel, &scan.key_cols, scan.index_id);
                    record_build(&mut ctx.tally, scan, table.kind());
                    let mut key: Vec<Value> = Vec::with_capacity(key_refs.len());
                    let mut hits = 0usize;
                    for &p in &live {
                        let i = sel[p];
                        let rows = table.probe_with(
                            key_refs.len(),
                            |c| key_refs[c].value(batch, i),
                            &mut key,
                        );
                        hits += rows.len();
                        satisfied[p] = !rows.is_empty();
                    }
                    bump_n(&mut ctx.tally, scan, hits);
                    return Ok(satisfied);
                }
                // Loop inversion, with one twist: the quantified subtree
                // reads only a handful of outer columns (`deps`), so
                // rows agreeing on them share one verdict. Grouping the
                // live rows by their dep values and running the scans
                // once per *group* turns O(rows × inner) quantifier work
                // into O(distinct bindings × inner).
                let mut deps: Vec<(usize, usize)> = Vec::new();
                block_deps(block, sm, &mut deps);
                deps.sort_unstable();
                deps.dedup();
                let mut groups = Groups::new(live.len());
                let mut group_of: Vec<u32> = Vec::with_capacity(live.len());
                let mut reps: Vec<usize> = Vec::new();
                for &p in &live {
                    group_of.push(groups.intern(batch, &deps, sel[p], &mut reps));
                }
                let mut sat_groups = vec![false; reps.len()];
                let mut seed = batch.select(&reps);
                seed.origins = (0..reps.len() as u32).collect();
                let mut sink = Sink::Exists {
                    satisfied: &mut sat_groups,
                };
                run_scans(&block.scans, 0, seed, sm, ctx, &mut sink)?;
                for (k, &p) in live.iter().enumerate() {
                    satisfied[p] = sat_groups[group_of[k] as usize];
                }
            }
            Ok(satisfied)
        }
    }
}

// ---------------------------------------------------------------------
// Quantifier dependency analysis
// ---------------------------------------------------------------------

/// Records the batch coordinate `t` resolves to, if its slot is already
/// bound — i.e. bound *outside* the subtree under analysis. Slots the
/// subtree's own scans bind are still [`UNBOUND`] when this runs, so
/// they are correctly skipped.
fn term_deps(t: &Term, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    match t {
        Term::Col { slot, col } => {
            let step = sm.tuple[*slot];
            if step != UNBOUND {
                out.push((step, *col));
            }
        }
        Term::Const(_) => {}
    }
}

/// Collects every outer-bound batch coordinate `f` can read.
fn formula_deps(f: &Formula, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                formula_deps(sub, sm, out);
            }
        }
        Formula::Not(sub) => formula_deps(sub, sm, out),
        Formula::Pred(p) => {
            term_deps(&p.left, sm, out);
            term_deps(&p.right, sm, out);
        }
        Formula::Exists(block) => block_deps(block, sm, out),
    }
}

/// Collects every outer-bound batch coordinate the block's subtree can
/// read: pre conjuncts, scan keys, and filters.
fn block_deps(block: &Block, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    for pre in &block.pre {
        formula_deps(pre, sm, out);
    }
    for scan in &block.scans {
        for t in &scan.key_terms {
            term_deps(t, sm, out);
        }
        for f in &scan.filters {
            formula_deps(f, sm, out);
        }
    }
}

// ---------------------------------------------------------------------
// Entry points: pipelines
// ---------------------------------------------------------------------

/// Runs a pipeline block end to end, handing every surviving batch of
/// full assignments to `emit`.
fn run_pipeline(
    block: &Block,
    tuple_slots: usize,
    ctx: &mut BatchCtx,
    emit: &mut dyn FnMut(&Batch, &mut SlotMap, &mut BatchCtx) -> CoreResult<()>,
) -> CoreResult<()> {
    let mut sm = SlotMap::new(tuple_slots);
    let seed = Batch::unit();
    for pre in &block.pre {
        let mask = eval_mask(pre, &seed, &[0], &mut sm, ctx)?;
        if !mask[0] {
            return Ok(());
        }
    }
    let mut sink = Sink::Collect(emit);
    run_scans(&block.scans, 0, seed, &mut sm, ctx, &mut sink)
}

/// `t` with references to the output head's columns replaced by the
/// head's defining terms: column `c` of the head tuple *is* `defs[c]`
/// evaluated on the same assignment, so the substitution is exact.
fn subst_term(t: &Term, head_slot: usize, defs: &[Term]) -> Term {
    match t {
        Term::Col { slot, col } if *slot == head_slot => defs[*col].clone(),
        _ => t.clone(),
    }
}

fn subst_formula(f: &Formula, head_slot: usize, defs: &[Term]) -> Formula {
    let sub = |f: &Formula| subst_formula(f, head_slot, defs);
    let term = |t: &Term| subst_term(t, head_slot, defs);
    match f {
        Formula::And(fs) => Formula::And(fs.iter().map(sub).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(sub).collect()),
        Formula::Not(f) => Formula::Not(Box::new(sub(f))),
        Formula::Pred(p) => Formula::Pred(Pred {
            left: term(&p.left),
            op: p.op,
            right: term(&p.right),
        }),
        Formula::Exists(b) => Formula::Exists(Block {
            pre: b.pre.iter().map(sub).collect(),
            scans: b
                .scans
                .iter()
                .map(|s| Scan {
                    key_terms: s.key_terms.iter().map(term).collect(),
                    filters: s.filters.iter().map(sub).collect(),
                    ..s.clone()
                })
                .collect(),
        }),
    }
}

/// A conjunct the head substitution made vacuous: `x = x` holds for
/// every row (values are `Int`/`Sym`/`Str`, so equality is reflexive),
/// which is what the common `q.A = r.A` head-defining pattern becomes
/// once head columns are rewritten to their defining terms.
fn trivially_true(f: &Formula) -> bool {
    match f {
        Formula::Pred(p) => p.op == CmpOp::Eq && p.left == p.right,
        Formula::And(fs) => fs.iter().all(trivially_true),
        _ => false,
    }
}

/// Executes one query branch over column chunks
/// ([`exec::run_query`](crate::exec::run_query)).
pub(crate) fn run_query(
    q: &QueryPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<Relation> {
    let mut ctx = BatchCtx::new(db, q.shape.indexes, tally.take());
    let mut rows: Vec<Tuple> = Vec::new();
    // Deferred head validation, vectorized: instead of binding each
    // candidate tuple to the head slot, rewrite head-column references
    // to the head's defining terms once and run the deferred conjuncts
    // as ordinary selection-refining filters over the whole batch.
    let deferred: Vec<Formula> = q
        .deferred
        .iter()
        .map(|f| subst_formula(f, q.head_slot, &q.defs))
        .filter(|f| !trivially_true(f))
        .collect();
    // A hash set dedups candidates as they stream out: duplicate-heavy
    // projections pay one (FNV) hash lookup per row instead of an
    // allocation, and the ordered output set is built once at the end.
    let mut seen: HashSet<Vec<Value>, std::hash::BuildHasherDefault<Fnv>> = HashSet::default();
    let mut scratch: Vec<Value> = Vec::with_capacity(q.defs.len());
    let result = run_pipeline(
        &q.root,
        q.shape.tuple_slots,
        &mut ctx,
        &mut |batch, sm, ctx| {
            let defs: Vec<TermRef> = q.defs.iter().map(|t| term_ref(t, sm)).collect();
            let mut project = |batch: &Batch, i: usize| -> CoreResult<()> {
                scratch.clear();
                scratch.extend(defs.iter().map(|d| d.value(batch, i).clone()));
                if !seen.contains(&scratch) {
                    seen.insert(scratch.clone());
                    rows.push(Tuple(scratch.clone()));
                }
                Ok(())
            };
            if deferred.is_empty() {
                for i in 0..batch.len() {
                    project(batch, i)?;
                }
                return Ok(());
            }
            let mut sel: Vec<usize> = (0..batch.len()).collect();
            for f in &deferred {
                if sel.is_empty() {
                    break;
                }
                let fm = eval_mask(f, batch, &sel, sm, ctx)?;
                sel = sel
                    .into_iter()
                    .zip(&fm)
                    .filter_map(|(i, &ok)| ok.then_some(i))
                    .collect();
            }
            for i in sel {
                project(batch, i)?;
            }
            Ok(())
        },
    );
    *tally = ctx.tally.take();
    result?;
    let mut out = db.fresh_relation(q.out.clone());
    out.extend(rows)?;
    record(tally, q, out.len());
    Ok(out)
}

/// Evaluates a Boolean sentence
/// ([`exec::run_sentence`](crate::exec::run_sentence)): its formula
/// over the unit batch, exactly as [`run_pipeline`] evaluates a block's
/// pre-scan conjuncts. A top-level `exists` seeds its scans from that
/// one row and stops at the first satisfying assignment.
pub(crate) fn run_sentence(
    s: &SentencePlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<bool> {
    let mut ctx = BatchCtx::new(db, s.shape.indexes, tally.take());
    let mut sm = SlotMap::new(s.shape.tuple_slots);
    let result = eval_mask(&s.formula, &Batch::unit(), &[0], &mut sm, &mut ctx);
    *tally = ctx.tally.take();
    Ok(result?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    /// The number of rows `table` holds for `key`.
    fn hits(table: &JoinTable, key: &[Value]) -> usize {
        table
            .probe_with(key.len(), |c| &key[c], &mut Vec::new())
            .len()
    }

    fn rel_data_of(rows: &[[i64; 2]]) -> ColumnImage {
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::new(r.to_vec())).collect();
        ColumnImage::of(2, tuples.iter())
    }

    #[test]
    fn dense_table_builds_for_small_int_ranges() {
        let data = rel_data_of(&[[1, 10], [2, 10], [1, 20], [3, 30]]);
        let table = JoinTable::build(data.len(), 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "dense-key");
        assert_eq!(hits(&table, &[Value::int(1)]), 2);
        assert_eq!(hits(&table, &[Value::int(3)]), 1);
        assert_eq!(hits(&table, &[Value::int(99)]), 0);
        assert_eq!(hits(&table, &[Value::str("x")]), 0);
    }

    #[test]
    fn composite_dense_key_indexes_both_columns() {
        let data = rel_data_of(&[[1, 10], [2, 10], [1, 20]]);
        let table = JoinTable::build(data.len(), 2, |r, c| data.value(c, r as u32));
        assert_eq!(table.kind(), "dense-key");
        assert_eq!(hits(&table, &[Value::int(1), Value::int(10)]), 1);
        assert_eq!(hits(&table, &[Value::int(2), Value::int(20)]), 0);
    }

    #[test]
    fn sparse_ranges_fall_back_to_hash() {
        let data = rel_data_of(&[[1, 0], [1_000_000_000, 0]]);
        let table = JoinTable::build(data.len(), 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(hits(&table, &[Value::int(1)]), 1);
        assert_eq!(hits(&table, &[Value::int(1_000_000_000)]), 1);
        assert_eq!(hits(&table, &[Value::int(2)]), 0);
    }

    #[test]
    fn mixed_kind_columns_fall_back_to_hash() {
        let tuples = [
            Tuple(vec![Value::int(1)]),
            Tuple(vec![Value::Sym(0)]),
            Tuple(vec![Value::int(2)]),
        ];
        let data = ColumnImage::of(1, tuples.iter());
        let table = JoinTable::build(data.len(), 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(hits(&table, &[Value::Sym(0)]), 1);
    }

    #[test]
    fn sym_columns_use_dense_tables() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["green"], ["blue"]])
                .unwrap(),
        );
        let data = db.require("T").unwrap().column_image();
        let table = JoinTable::build(data.len(), 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "dense-key");
        let red = db.lookup_value(&Value::str("red"));
        assert_eq!(hits(&table, &[red]), 1);
        // An un-interned probe string can't match any stored symbol.
        assert_eq!(hits(&table, &[Value::str("red")]), 0);
    }

    #[test]
    fn empty_relations_build_hash_tables() {
        let data = ColumnImage::of(2, std::iter::empty());
        let table = JoinTable::build(data.len(), 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(hits(&table, &[Value::int(1)]), 0);
    }
}
