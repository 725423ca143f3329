//! Tuples, relation instances, and databases.
//!
//! Stored tuples are *interned*: string values entering a [`Database`]
//! (or a [`Relation`] attached to one) are swapped for `u32` symbols in
//! the database's [`SymbolTable`], so joins, projections, and set inserts
//! compare and copy machine words instead of heap strings. Resolution
//! back to [`Value::Str`] happens only at the edges — see
//! [`Database::resolve_relation`] and [`Relation::resolved`].

use crate::error::{CoreError, CoreResult};
use crate::schema::{Catalog, TableSchema};
use crate::stats::TableStats;
use crate::storage::{ColumnImage, TupleSet};
use crate::symbol::SymbolTable;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A tuple: an ordered list of values. Attribute names live in the schema
/// (the "set-of-mappings" view of §3.1 is recovered by pairing a tuple with
/// its [`TableSchema`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Builds a tuple from anything convertible to values.
    pub fn new<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple(values.into_iter().map(Into::into).collect())
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Iterates over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// Concatenates two tuples (used by products/joins). With interned
    /// values this is a flat word copy — no heap strings are cloned.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }

    /// Projects the tuple onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Approximate in-memory size (enum slots plus string payloads).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>()
            + self.0.len() * std::mem::size_of::<Value>()
            + self.0.iter().map(Value::heap_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A relation instance: a schema plus a *set* of tuples.
///
/// The tuples live in a copy-on-write [`TupleSet`]: cloning a relation
/// shares its leaves, and a single-row insert or delete on the clone
/// copies one leaf of at most [`LEAF_CAP`](crate::storage::LEAF_CAP)
/// tuples. Iteration is in the tuples' total order, which keeps query
/// evaluation, printing, and counterexample search reproducible.
///
/// A relation stored in a [`Database`] carries a handle to the database's
/// symbol table: string values are interned on insert, and
/// [`Relation::resolved`] maps them back. Free-standing relations (query
/// results, literals under construction) have no handle and keep their
/// values as given.
///
/// Three derived values are cached per relation version, each built on
/// first read and carried along by clones: the planner's
/// [`TableStats`] ([`Relation::stats`]), the batch executor's
/// [`ColumnImage`] ([`Relation::column_image`]), and the content digest
/// behind [`Database::fingerprint`] ([`Relation::content_digest`]).
/// Inserts and deletes keep the stats and the digest current in O(1)
/// per row; the column image is dropped and rebuilt by the next scan.
#[derive(Debug)]
pub struct Relation {
    schema: TableSchema,
    tuples: TupleSet,
    symbols: Option<Arc<SymbolTable>>,
    /// `true` for relations *stored in* a database (inserting a new
    /// string interns it — the data write path); `false` for result
    /// relations built via [`Database::fresh_relation`], whose inserts
    /// only map strings already interned (an unknown query literal in an
    /// output head must not grow the shared table).
    intern_on_insert: bool,
    /// Per-column statistics ([`Relation::stats`]).
    stats: OnceLock<Arc<TableStats>>,
    /// Column-major scan image ([`Relation::column_image`]).
    image: OnceLock<Arc<ColumnImage>>,
    /// Order-independent content digest ([`Relation::content_digest`]).
    digest: OnceLock<u64>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            symbols: self.symbols.clone(),
            intern_on_insert: self.intern_on_insert,
            stats: self.stats.clone(),
            image: self.image.clone(),
            digest: self.digest.clone(),
        }
    }
}

impl Relation {
    /// An empty instance of `schema`.
    pub fn empty(schema: TableSchema) -> Self {
        Relation::with_tuples(schema, TupleSet::new(), None)
    }

    /// A free-standing or result relation over `tuples`, with no derived
    /// value cached yet.
    fn with_tuples(
        schema: TableSchema,
        tuples: TupleSet,
        symbols: Option<Arc<SymbolTable>>,
    ) -> Self {
        Relation {
            schema,
            tuples,
            symbols,
            intern_on_insert: false,
            stats: OnceLock::new(),
            image: OnceLock::new(),
            digest: OnceLock::new(),
        }
    }

    /// Builds a relation from rows, checking arity.
    pub fn from_rows<V, R, I>(schema: TableSchema, rows: I) -> CoreResult<Self>
    where
        V: Into<Value>,
        R: IntoIterator<Item = V>,
        I: IntoIterator<Item = R>,
    {
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.insert(Tuple::new(row))?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The relation's name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The symbol table this relation interns into, if attached.
    pub fn symbols(&self) -> Option<&Arc<SymbolTable>> {
        self.symbols.as_ref()
    }

    /// Replaces the stored tuples with `f` applied to each one (a change
    /// of representation, not of content: the digest stays valid, the
    /// representation-dependent caches are dropped).
    fn remap(&mut self, f: impl Fn(&Tuple) -> Tuple) {
        self.tuples = self.tuples.iter().map(f).collect();
        self.stats.take();
        self.image.take();
    }

    /// `true` if some stored value is a raw (uninterned) string.
    fn has_raw_strings(&self) -> bool {
        self.tuples
            .iter()
            .any(|t| t.iter().any(|v| matches!(v, Value::Str(_))))
    }

    /// Attaches `symbols` and re-interns the stored tuples against it.
    /// Called by [`Database::add_relation`]; a relation moving between
    /// databases is resolved out of its old table first, so ids never
    /// leak across tables.
    pub(crate) fn attach_symbols(&mut self, symbols: Arc<SymbolTable>) {
        if let Some(old) = self.symbols.clone() {
            if Arc::ptr_eq(&old, &symbols) {
                // Same table (e.g. a result materialized back into its
                // own database): from now on it stores data, so new
                // strings intern again. Any raw Str literals it carries
                // are interned by the pass below.
                self.intern_on_insert = true;
                if self.has_raw_strings() {
                    self.remap(|t| intern_tuple_with(t, &old));
                }
                return;
            }
            // Re-home: resolve through the old table before re-interning.
            self.remap(|t| resolve_tuple_with(t, &old));
        }
        if self.has_raw_strings() {
            self.remap(|t| intern_tuple_with(t, &symbols));
        }
        self.symbols = Some(symbols);
        self.intern_on_insert = true;
    }

    /// Resolves the stored tuples out of the attached table (if any) and
    /// detaches it, leaving raw `Str` values — the representation of
    /// [`Database::uninterned`].
    pub(crate) fn detach_resolved(&mut self) {
        if let Some(symbols) = self.symbols.take() {
            self.remap(|t| resolve_tuple_with(t, &symbols));
        }
        self.intern_on_insert = false;
    }

    /// Maps a tuple's `Str` values to the stored representation: interned
    /// for stored relations, looked up (never growing the table) for
    /// result relations and probes.
    fn to_stored(&self, tuple: Tuple, intern: bool) -> Tuple {
        match &self.symbols {
            Some(symbols) if tuple.iter().any(|v| matches!(v, Value::Str(_))) => {
                if intern {
                    intern_tuple_with(&tuple, symbols)
                } else {
                    lookup_tuple_with(&tuple, symbols)
                }
            }
            _ => tuple,
        }
    }

    /// Inserts a tuple, checking arity and interning string values when a
    /// symbol table is attached. Returns `Ok(true)` if it was new.
    ///
    /// **Contract:** any [`Value::Sym`] in `tuple` must have been handed
    /// out by *this* relation's attached table (true for everything built
    /// from this database's tuples — evaluator results, projections).
    /// When copying tuples from another database, resolve them first
    /// ([`Database::resolve_tuple`]) so their strings re-intern here;
    /// whole relations re-home automatically via
    /// [`Database::add_relation`].
    pub fn insert(&mut self, tuple: Tuple) -> CoreResult<bool> {
        self.check_arity(&tuple)?;
        let tuple = self.to_stored(tuple, self.intern_on_insert);
        // Keep live caches current: stats and digest observe the fresh
        // tuple in O(1); when none is materialized (bulk load, result
        // relations) this costs one `None` check each.
        let hash = self.digest.get().map(|_| self.row_hash(&tuple));
        let stats = self.stats.get().map(|_| tuple.clone());
        if !self.tuples.insert(tuple) {
            return Ok(false);
        }
        if let (Some(d), Some(h)) = (self.digest.get_mut(), hash) {
            *d = d.wrapping_add(h);
        }
        if let (Some(st), Some(t)) = (self.stats.get_mut(), stats) {
            Arc::make_mut(st).observe(&t);
        }
        self.image.take();
        Ok(true)
    }

    /// Inserts a batch of tuples with one sort and merge (see
    /// [`TupleSet::extend_batch`]) — the build path for query results.
    /// Arity is checked for the whole batch first. Drops the cached
    /// stats, image and digest when anything was new. Returns how many
    /// tuples were new.
    pub(crate) fn extend(&mut self, rows: Vec<Tuple>) -> CoreResult<usize> {
        for t in &rows {
            self.check_arity(t)?;
        }
        let intern = self.intern_on_insert;
        let rows = rows
            .into_iter()
            .map(|t| self.to_stored(t, intern))
            .collect();
        let added = self.tuples.extend_batch(rows);
        if added > 0 {
            self.stats.take();
            self.image.take();
            self.digest.take();
        }
        Ok(added)
    }

    fn check_arity(&self, tuple: &Tuple) -> CoreResult<()> {
        if tuple.arity() == self.schema.arity() {
            return Ok(());
        }
        Err(CoreError::ArityMismatch {
            table: self.schema.name().to_string(),
            expected: self.schema.arity(),
            actual: tuple.arity(),
        })
    }

    /// Convenience: insert a row of values.
    pub fn insert_values<V: Into<Value>, I: IntoIterator<Item = V>>(
        &mut self,
        row: I,
    ) -> CoreResult<bool> {
        self.insert(Tuple::new(row))
    }

    /// `true` if the tuple is present. `Str` probes are mapped through
    /// the attached table so the edge representation matches — via
    /// *lookup only*: an unknown string cannot be stored, so the probe
    /// answers `false` without growing the shared table.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        match &self.symbols {
            Some(symbols) if tuple.iter().any(|v| matches!(v, Value::Str(_))) => {
                self.tuples.contains(&lookup_tuple_with(tuple, symbols))
            }
            _ => self.tuples.contains(tuple),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over tuples in deterministic order.
    pub fn iter(&self) -> crate::storage::Iter<'_> {
        self.tuples.iter()
    }

    /// The underlying tuple set.
    pub fn tuples(&self) -> &TupleSet {
        &self.tuples
    }

    /// This relation with interned symbols resolved back to strings
    /// (through the attached table), re-sorted under the plain string
    /// order. Free-standing relations are returned as-is.
    pub fn resolved(&self) -> Relation {
        match &self.symbols {
            None => self.clone(),
            Some(symbols) => Relation::with_tuples(
                self.schema.clone(),
                self.tuples
                    .iter()
                    .map(|t| resolve_tuple_with(t, symbols))
                    .collect(),
                None,
            ),
        }
    }

    /// Removes a tuple; like [`Relation::contains`], `Str` probes are
    /// mapped through the attached table via *lookup only*, so deleting
    /// an unknown string answers `false` without growing the shared
    /// table. Returns `true` if the tuple was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let tuple = self.to_stored(tuple.clone(), false);
        if !self.tuples.remove(&tuple) {
            return false;
        }
        let hash = self.digest.get().map(|_| self.row_hash(&tuple));
        if let (Some(d), Some(h)) = (self.digest.get_mut(), hash) {
            *d = d.wrapping_sub(h);
        }
        // Sketches and ranges cannot unobserve: they stay as upper
        // bounds with an exact row count, until enough deletes pile up
        // that the next planner read should rebuild them.
        if let Some(st) = self.stats.get_mut() {
            if Arc::make_mut(st).observe_delete() {
                self.stats.take();
            }
        }
        self.image.take();
        true
    }

    /// Per-column statistics over the current tuple set: row count,
    /// distinct-value sketches, and `Int` min/max per attribute.
    ///
    /// Built lazily on first call (one scan) and cached. Inserts through
    /// [`Relation::insert`] keep the cache current incrementally.
    /// Deletes keep the row count exact and leave the sketches and
    /// ranges as upper bounds (see [`TableStats::observe_delete`]) until
    /// deletes since the last build pass
    /// [`STATS_REBUILD_FRACTION`](crate::stats::STATS_REBUILD_FRACTION)
    /// of the rows; the next call then rebuilds. Symbol re-attachment
    /// drops the cache. The returned `Arc` is a consistent snapshot —
    /// later mutations don't alter it.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats
            .get_or_init(|| Arc::new(TableStats::of(self.schema.arity(), self.tuples.iter())))
            .clone()
    }

    /// The column-major image of the current tuples, in set order — the
    /// batch executor's scan feed. Built on first call for each relation
    /// version and shared by `Arc` with every execution scanning it
    /// (counted in [`scan_image_builds`](crate::storage::scan_image_builds)).
    pub fn column_image(&self) -> Arc<ColumnImage> {
        self.image
            .get_or_init(|| {
                Arc::new(ColumnImage::build_counted(
                    self.schema.arity(),
                    &self.tuples,
                ))
            })
            .clone()
    }

    /// An order-independent digest of the relation's *content*: the
    /// wrapping sum of every tuple's hash in resolved (string) form, so
    /// it is the same however the strings were interned. Built on first
    /// call with one scan; inserts and deletes then add or subtract one
    /// tuple hash each.
    pub fn content_digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            self.tuples
                .iter()
                .fold(0u64, |acc, t| acc.wrapping_add(self.row_hash(t)))
        })
    }

    /// One tuple's hash in resolved form: a `Sym` hashes as the string
    /// it stands for, exactly like the equal `Str`.
    fn row_hash(&self, t: &Tuple) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for v in t.iter() {
            match v {
                Value::Int(i) => {
                    h.write_u8(0);
                    i.hash(&mut h);
                }
                Value::Str(s) => {
                    h.write_u8(1);
                    s.as_str().hash(&mut h);
                }
                Value::Sym(id) => match self.symbols.as_ref().and_then(|s| s.try_resolve(*id)) {
                    Some(s) => {
                        h.write_u8(1);
                        (*s).hash(&mut h);
                    }
                    // A symbol with no table to resolve it: only its id
                    // is known.
                    None => {
                        h.write_u8(2);
                        id.hash(&mut h);
                    }
                },
            }
        }
        h.finish()
    }

    /// Approximate in-memory size of the tuple set — the weight used by
    /// size-aware cache admission.
    pub fn approx_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::approx_bytes).sum()
    }

    /// Returns this relation under a new schema name (arity must match).
    pub fn renamed(&self, new_schema: TableSchema) -> CoreResult<Relation> {
        if new_schema.arity() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                table: new_schema.name().to_string(),
                expected: new_schema.arity(),
                actual: self.schema.arity(),
            });
        }
        // Same tuple set, so every cached derived value stays valid.
        Ok(Relation {
            schema: new_schema,
            ..self.clone()
        })
    }
}

/// Equality is *content* equality: schemas match and the tuple sets hold
/// the same values once symbols are resolved. Relations attached to the
/// same table (or to none) compare raw — ids are content there.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.tuples.len() != other.tuples.len() {
            return false;
        }
        let same_table = match (&self.symbols, &other.symbols) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if same_table {
            self.tuples == other.tuples
        } else {
            self.resolved().tuples == other.resolved().tuples
        }
    }
}

impl Eq for Relation {}

/// Rejects a mutation batch whose rows don't all match the schema arity
/// — checked up front so a failed batch leaves the relation untouched.
fn check_batch_arity(table: &str, expected: usize, rows: &[Tuple]) -> CoreResult<()> {
    match rows.iter().find(|row| row.arity() != expected) {
        Some(bad) => Err(CoreError::ArityMismatch {
            table: table.to_string(),
            expected,
            actual: bad.arity(),
        }),
        None => Ok(()),
    }
}

fn intern_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Str(s) => Value::Sym(symbols.intern(s)),
                other => other.clone(),
            })
            .collect(),
    )
}

/// Maps `Str` values to their symbol when one exists; unknown strings
/// stay `Str` (the result-relation insert path — see
/// [`Relation::insert`]).
fn lookup_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Str(s) => match symbols.lookup(s) {
                    Some(id) => Value::Sym(id),
                    None => v.clone(),
                },
                other => other.clone(),
            })
            .collect(),
    )
}

fn resolve_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Sym(id) => Value::Str(symbols.resolve(*id).to_string()),
                other => other.clone(),
            })
            .collect(),
    )
}

/// A database: a set of relation instances, keyed by table name, plus the
/// symbol table their string values are interned into.
///
/// Relations are held behind `Arc`s, so cloning a database is cheap —
/// one pointer copy per relation — and the single-relation mutation
/// methods ([`Database::insert_rows`], [`Database::delete_rows`],
/// [`Database::create_table`]) are copy-on-write at two levels: every
/// other relation stays shared with the source snapshot, and inside the
/// touched relation only the leaf pointer vector and the leaves the
/// rows land in are copied ([`TupleSet`]). A single-row mutation
/// therefore costs O(batch) plus one pointer per leaf, not O(relation),
/// and the touched relation's stats and content digest move forward
/// incrementally. This is what makes per-mutation epochs affordable
/// for a service.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
    symbols: Arc<SymbolTable>,
    interning: bool,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            relations: BTreeMap::new(),
            symbols: Arc::new(SymbolTable::new()),
            interning: true,
        }
    }
}

impl Database {
    /// An empty database (interning enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database with interning *disabled*: string values are
    /// stored as raw `Value::Str`. This is the reference representation
    /// used by differential tests — slower, but with no id indirection.
    pub fn uninterned() -> Self {
        Database {
            interning: false,
            ..Database::default()
        }
    }

    /// A database with an empty instance for every table in `catalog`.
    pub fn empty_for(catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for schema in catalog.iter() {
            db.add_relation(Relation::empty(schema.clone()));
        }
        db
    }

    /// The database's symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// `true` unless this database was built with [`Database::uninterned`].
    pub fn interning_enabled(&self) -> bool {
        self.interning
    }

    /// Adds (or replaces) a relation. With interning enabled the
    /// relation's string values are interned into this database's symbol
    /// table and further inserts through it intern too.
    pub fn add_relation(&mut self, mut relation: Relation) {
        if self.interning {
            relation.attach_symbols(self.symbols.clone());
        } else {
            // The reference representation stores raw strings only; a
            // relation arriving from an interned database is resolved
            // out of its old table (its ids mean nothing here).
            relation.detach_resolved();
        }
        self.relations
            .insert(relation.name().to_string(), Arc::new(relation));
    }

    /// Adds a computed view — a result relation of this database — under
    /// its schema name, shadowing any same-named table. Unlike
    /// [`Database::add_relation`] it stores the relation as it stands:
    /// its ids already belong to this database's symbol table, and a raw
    /// string it carries is a query literal the table does not know,
    /// which must not grow it.
    pub(crate) fn put_view(&mut self, view: Relation) {
        self.relations
            .insert(view.name().to_string(), Arc::new(view));
    }

    /// Creates an empty table; errors if the name is already taken (a
    /// durable mutation must not silently drop existing data).
    pub fn create_table(&mut self, schema: TableSchema) -> CoreResult<()> {
        if self.relations.contains_key(schema.name()) {
            return Err(CoreError::DuplicateTable(schema.name().to_string()));
        }
        self.add_relation(Relation::empty(schema));
        Ok(())
    }

    /// Inserts `rows` (edge `Int`/`Str` representation) into `table` by
    /// copy-on-write: if the relation is shared with another database
    /// snapshot, its leaf pointers are cloned once and each leaf a row
    /// lands in is copied; all other relations and leaves stay shared.
    /// Arity is validated for the whole batch before anything is
    /// touched. Returns how many rows were actually new (set
    /// semantics: duplicates don't count).
    pub fn insert_rows(&mut self, table: &str, rows: &[Tuple]) -> CoreResult<usize> {
        let rel = self
            .relations
            .get_mut(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        check_batch_arity(table, rel.schema().arity(), rows)?;
        let rel = Arc::make_mut(rel);
        let mut applied = 0;
        for row in rows {
            if rel.insert(row.clone())? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Removes `rows` from `table` by copy-on-write (see
    /// [`Database::insert_rows`]). Returns how many rows were actually
    /// present and removed; deleting an absent row is a no-op, not an
    /// error.
    pub fn delete_rows(&mut self, table: &str, rows: &[Tuple]) -> CoreResult<usize> {
        let rel = self
            .relations
            .get_mut(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        check_batch_arity(table, rel.schema().arity(), rows)?;
        let rel = Arc::make_mut(rel);
        Ok(rows.iter().filter(|row| rel.remove(row)).count())
    }

    /// An empty relation attached to this database's symbol table — the
    /// constructor for *result* relations. Evaluators build their output
    /// through this so a result's interned values stay interpretable on
    /// their own: rendering resolves, content equality resolves, and
    /// adding the result to another database re-homes the ids instead of
    /// silently reinterpreting them against the wrong table.
    pub fn fresh_relation(&self, schema: TableSchema) -> Relation {
        Relation::with_tuples(
            schema,
            TupleSet::new(),
            self.interning.then(|| self.symbols.clone()),
        )
    }

    /// Interns a single edge value against this database: `Str` becomes
    /// `Sym` (identity for everything else, and on uninterned databases).
    /// This *appends* to the symbol table — it is the write path for data
    /// entering the database; query constants go through
    /// [`Database::lookup_value`] instead.
    pub fn intern_value(&self, v: &Value) -> Value {
        match v {
            Value::Str(s) if self.interning => Value::Sym(self.symbols.intern(s)),
            other => other.clone(),
        }
    }

    /// Maps a query constant to the stored representation *without*
    /// growing the symbol table: a string already interned becomes its
    /// `Sym`; an unknown string stays `Str` — no stored tuple of this
    /// snapshot can hold a symbol for it, so equality against stored
    /// values is correctly always-false and order comparisons resolve
    /// by text ([`CmpOp::eval_resolved`](crate::CmpOp::eval_resolved)).
    /// Evaluators call this once per constant at compile time; routing
    /// them through `intern_value` instead would let clients grow the
    /// shared table without bound (one entry per distinct literal ever
    /// queried).
    pub fn lookup_value(&self, v: &Value) -> Value {
        match v {
            Value::Str(s) if self.interning => match self.symbols.lookup(s) {
                Some(id) => Value::Sym(id),
                None => v.clone(),
            },
            other => other.clone(),
        }
    }

    /// Resolves one value: `Sym` back to `Str` (identity otherwise).
    pub fn resolve_value(&self, v: &Value) -> Value {
        match v {
            Value::Sym(id) => Value::Str(self.symbols.resolve(*id).to_string()),
            other => other.clone(),
        }
    }

    /// Resolves every value of a tuple.
    pub fn resolve_tuple(&self, t: &Tuple) -> Tuple {
        resolve_tuple_with(t, &self.symbols)
    }

    /// Resolves a relation (typically a query result over this database)
    /// back to the string representation, re-sorted under the plain
    /// `Int < Str` order — the edge format for printing and the wire.
    pub fn resolve_relation(&self, rel: &Relation) -> Relation {
        Relation::with_tuples(
            rel.schema.clone(),
            rel.tuples.iter().map(|t| self.resolve_tuple(t)).collect(),
            None,
        )
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|r| r.as_ref())
    }

    /// Looks up a relation or returns an error.
    pub fn require(&self, name: &str) -> CoreResult<&Relation> {
        self.relation(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup (copy-on-write: a relation shared with another
    /// database snapshot is cloned first). The relation keeps its
    /// symbol-table attachment, so inserts through it still intern.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Iterates over relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(|r| r.as_ref())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` if the database stores no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The catalog implied by this database's schemas.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for r in self.relations.values() {
            // Names are unique by construction of the BTreeMap.
            c.add(r.schema().clone()).expect("unique by map key");
        }
        c
    }

    /// The active domain: every value appearing in any relation, in the
    /// stored (interned) representation and order. Extend with query
    /// constants before using it for domain-closure arguments (the
    /// classic safety construction, Ullman \[77\]).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                dom.extend(t.iter().cloned());
            }
        }
        dom
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// A 64-bit content fingerprint: two databases with the same schemas
    /// and (resolved) tuple sets hash equal — regardless of interning
    /// order or of the insert/delete history that produced them, because
    /// each relation contributes its order-independent
    /// [`Relation::content_digest`]. The digests are cached per relation
    /// and kept current by every insert and delete, so after the first
    /// call on a load this costs O(relations), not O(rows): a service
    /// can recompute it on every mutation. It keys in-memory result
    /// caches and lets a service tell reloads apart; it is not a
    /// persistent checksum.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.relations.len().hash(&mut h);
        for rel in self.relations.values() {
            rel.schema().hash(&mut h);
            rel.len().hash(&mut h);
            rel.content_digest().hash(&mut h);
        }
        h.finish()
    }
}

/// Content equality over the relation map (delegates to the resolving
/// [`Relation`] equality); the symbol table itself is representation, not
/// content.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.relations == other.relations
    }
}

impl Eq for Database {}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            writeln!(f, "{}", crate::pretty::render_relation(rel))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            [[1i64, 2], [1, 3], [2, 2]],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_dedups() {
        let mut r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.insert_values([1i64, 2]).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn arity_checked() {
        let mut r = sample();
        assert!(matches!(
            r.insert_values([1i64]),
            Err(CoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn tuple_ops() {
        let t = Tuple::new([1i64, 2, 3]);
        let u = Tuple::new([4i64]);
        assert_eq!(t.concat(&u), Tuple::new([1i64, 2, 3, 4]));
        assert_eq!(t.project(&[2, 0]), Tuple::new([3i64, 1]));
        assert_eq!(t.to_string(), "(1, 2, 3)");
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut db = Database::new();
        db.add_relation(sample());
        db.add_relation(Relation::from_rows(TableSchema::new("S", ["B"]), [[9i64]]).unwrap());
        let dom: Vec<Value> = db.active_domain().into_iter().collect();
        assert_eq!(
            dom,
            vec![Value::int(1), Value::int(2), Value::int(3), Value::int(9)]
        );
    }

    #[test]
    fn database_catalog_roundtrip() {
        let mut db = Database::new();
        db.add_relation(sample());
        let cat = db.catalog();
        assert_eq!(cat.require("R").unwrap().attrs(), ["A", "B"]);
    }

    #[test]
    fn empty_for_catalog() {
        let cat =
            Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["B"])])
                .unwrap();
        let db = Database::empty_for(&cat);
        assert_eq!(db.len(), 2);
        assert!(db.require("R").unwrap().is_empty());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = Database::new();
        a.add_relation(sample());
        let mut b = Database::new();
        b.add_relation(sample());
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.relation_mut("R")
            .unwrap()
            .insert_values([9i64, 9])
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Schema-only differences also show up.
        let mut c = Database::new();
        c.add_relation(Relation::empty(TableSchema::new("R", ["A", "B"])));
        let mut d = Database::new();
        d.add_relation(Relation::empty(TableSchema::new("R", ["A", "C"])));
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_interning_order() {
        // Same content, interned in different id orders ('red' gets id 0
        // in a, id 1 in c), must fingerprint and compare equal.
        let mut a = Database::new();
        a.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["green"]]).unwrap(),
        );
        let mut c = Database::new();
        c.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["green"], ["red"]]).unwrap(),
        );
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(a, c);
    }

    #[test]
    fn lookup_value_never_grows_the_table() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        assert_eq!(db.symbols().len(), 1);
        // Known strings map to their symbol; unknown ones stay Str and
        // do NOT get interned (query literals must not leak memory).
        assert!(db.lookup_value(&Value::str("red")).is_sym());
        assert_eq!(db.lookup_value(&Value::str("nope")), Value::str("nope"));
        assert_eq!(db.symbols().len(), 1);
    }

    #[test]
    fn result_relations_never_intern_unknown_literals() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        assert_eq!(db.symbols().len(), 1);
        // A result relation (what evaluators build): inserting a tuple
        // with an unknown head literal must NOT grow the shared table.
        let mut result = db.fresh_relation(TableSchema::new("q", ["x", "tag"]));
        result
            .insert(Tuple::new(vec![Value::str("red"), Value::str("tag-1")]))
            .unwrap();
        assert_eq!(db.symbols().len(), 1, "unknown literal must stay Str");
        let t = result.iter().next().unwrap();
        assert!(t.get(0).is_sym(), "known string maps to its symbol");
        assert_eq!(t.get(1), &Value::str("tag-1"));
        // Resolution still restores the full string view.
        let resolved = result.resolved();
        let t = resolved.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("red"));
        // Materializing the result as a table upgrades it to the data
        // path: the raw literal is interned at attach.
        db.add_relation(result.renamed(TableSchema::new("Q", ["x", "tag"])).unwrap());
        assert_eq!(db.symbols().len(), 2);
        let t = db.require("Q").unwrap().iter().next().unwrap();
        assert!(t.iter().all(|v| !matches!(v, Value::Str(_))));
    }

    #[test]
    fn uninterned_add_relation_resolves_foreign_syms() {
        let mut interned = Database::new();
        interned
            .add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        let mut raw = Database::uninterned();
        raw.add_relation(interned.require("T").unwrap().clone());
        let t = raw.require("T").unwrap().iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("red"));
        // fingerprint/resolve must not panic on foreign ids.
        assert_eq!(raw.fingerprint(), interned.fingerprint());
        assert_eq!(raw, interned);
    }

    #[test]
    fn interning_swaps_strings_for_syms_and_resolves_back() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(101), Value::str("red")],
                    vec![Value::int(102), Value::str("green")],
                ],
            )
            .unwrap(),
        );
        let rel = db.require("Boat").unwrap();
        // Stored values are ints and symbols, never raw strings.
        for t in rel.iter() {
            assert!(t.iter().all(|v| !matches!(v, Value::Str(_))));
        }
        // Inserts through relation_mut keep interning.
        db.relation_mut("Boat")
            .unwrap()
            .insert_values(vec![Value::int(103), Value::str("red")])
            .unwrap();
        assert_eq!(db.symbols().len(), 2, "'red' interned once");
        // Resolution restores the string view.
        let resolved = db.require("Boat").unwrap().resolved();
        assert!(resolved
            .iter()
            .any(|t| t.get(1) == &Value::str("green") && t.get(0) == &Value::int(102)));
        assert_eq!(resolved.len(), 3);
        // contains() accepts the edge (Str) representation, and probing
        // with unknown strings answers false without growing the table.
        assert!(db
            .require("Boat")
            .unwrap()
            .contains(&Tuple::new(vec![Value::int(101), Value::str("red")])));
        let before = db.symbols().len();
        assert!(!db.require("Boat").unwrap().contains(&Tuple::new(vec![
            Value::int(101),
            Value::str("never-stored")
        ])));
        assert_eq!(db.symbols().len(), before);
    }

    #[test]
    fn uninterned_database_keeps_raw_strings() {
        let mut db = Database::uninterned();
        db.add_relation(
            Relation::from_rows(TableSchema::new("T", ["a"]), [[Value::str("x")]]).unwrap(),
        );
        let t = db.require("T").unwrap().iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("x"));
        assert_eq!(db.symbols().len(), 0);
        assert_eq!(db.intern_value(&Value::str("x")), Value::str("x"));
    }

    #[test]
    fn content_equality_across_interning_orders() {
        // An interned and an uninterned database with the same content
        // compare equal (resolving comparison).
        let rows = || {
            Relation::from_rows(
                TableSchema::new("T", ["a"]),
                [[Value::str("b")], [Value::str("a")]],
            )
            .unwrap()
        };
        let mut interned = Database::new();
        interned.add_relation(rows());
        let mut raw = Database::uninterned();
        raw.add_relation(rows());
        assert_eq!(interned, raw);
        raw.relation_mut("T")
            .unwrap()
            .insert_values([Value::str("c")])
            .unwrap();
        assert_ne!(interned, raw);
    }

    #[test]
    fn renamed_relation_keeps_tuples() {
        let r = sample();
        let r2 = r.renamed(TableSchema::new("R_1", ["A", "B"])).unwrap();
        assert_eq!(r2.name(), "R_1");
        assert_eq!(r2.len(), 3);
        assert!(r.renamed(TableSchema::new("X", ["A"])).is_err());
    }

    #[test]
    fn insert_and_delete_rows_apply_copy_on_write() {
        let mut base = Database::new();
        base.add_relation(sample());
        base.add_relation(Relation::from_rows(TableSchema::new("S", ["B"]), [[9i64]]).unwrap());
        let mut next = base.clone();
        assert_eq!(
            next.insert_rows("R", &[Tuple::new([7i64, 7]), Tuple::new([1i64, 2])])
                .unwrap(),
            1,
            "duplicate row doesn't count"
        );
        assert_eq!(next.delete_rows("R", &[Tuple::new([2i64, 2])]).unwrap(), 1);
        assert_eq!(
            next.delete_rows("R", &[Tuple::new([5i64, 5])]).unwrap(),
            0,
            "absent row is a no-op"
        );
        // The source snapshot is untouched; the shared relation stays
        // literally shared (copy-on-write touched only R).
        assert_eq!(base.require("R").unwrap().len(), 3);
        assert_eq!(next.require("R").unwrap().len(), 3);
        assert!(next.require("R").unwrap().contains(&Tuple::new([7i64, 7])));
        assert!(Arc::ptr_eq(
            base.relations.get("S").unwrap(),
            next.relations.get("S").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            base.relations.get("R").unwrap(),
            next.relations.get("R").unwrap()
        ));
    }

    #[test]
    fn batch_arity_is_checked_before_any_row_lands() {
        let mut db = Database::new();
        db.add_relation(sample());
        let err = db.insert_rows("R", &[Tuple::new([8i64, 8]), Tuple::new([9i64])]);
        assert!(matches!(err, Err(CoreError::ArityMismatch { .. })));
        assert_eq!(db.require("R").unwrap().len(), 3, "failed batch is atomic");
        assert!(matches!(
            db.insert_rows("Nope", &[Tuple::new([1i64])]),
            Err(CoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn delete_accepts_edge_strings_and_create_table_rejects_duplicates() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        // Deleting by the edge (Str) representation maps through the
        // table; an unknown string can't match and mustn't intern.
        let before = db.symbols().len();
        assert_eq!(
            db.delete_rows("T", &[Tuple::new([Value::str("nope")])])
                .unwrap(),
            0
        );
        assert_eq!(db.symbols().len(), before);
        assert_eq!(
            db.delete_rows("T", &[Tuple::new([Value::str("red")])])
                .unwrap(),
            1
        );
        assert!(db.require("T").unwrap().is_empty());
        db.create_table(TableSchema::new("U", ["y"])).unwrap();
        assert!(db.require("U").unwrap().is_empty());
        assert!(matches!(
            db.create_table(TableSchema::new("T", ["z"])),
            Err(CoreError::DuplicateTable(_))
        ));
    }

    #[test]
    fn relation_rehomes_across_databases() {
        let mut a = Database::new();
        a.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["blue"]]).unwrap(),
        );
        let mut b = Database::new();
        // Force a different id order in b's table.
        b.add_relation(Relation::from_rows(TableSchema::new("U", ["y"]), [["blue"]]).unwrap());
        // Moving T from a to b re-interns against b's table.
        b.add_relation(a.require("T").unwrap().clone());
        let t = b.require("T").unwrap().resolved();
        assert!(t.iter().any(|r| r.get(0) == &Value::str("red")));
        assert!(t.iter().any(|r| r.get(0) == &Value::str("blue")));
        assert_eq!(a.require("T").unwrap(), b.require("T").unwrap());
    }

    #[test]
    fn stats_survive_deletes_until_the_rebuild_threshold() {
        use crate::stats::STATS_REBUILD_FRACTION;
        // 100 rows, every `a` distinct, `b` one of ten strings.
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["a", "b"]),
                (0..100i64).map(|i| vec![Value::int(i), Value::str(format!("s{}", i % 10))]),
            )
            .unwrap(),
        );
        let built = db.require("R").unwrap().stats();
        assert_eq!((built.rows(), built.distinct(0)), (100, 100));
        let row = |i: i64| Tuple::new(vec![Value::int(i), Value::str(format!("s{}", i % 10))]);

        // Below the threshold the stats are carried forward: the row
        // count is exact, the sketches still count deleted values, and
        // distinct estimates are clamped to the live rows.
        let mut deleted = 0;
        while (deleted + 1) * STATS_REBUILD_FRACTION <= 100 - (deleted + 1) {
            db.delete_rows("R", &[row(deleted as i64)]).unwrap();
            deleted += 1;
        }
        let rel = db.require("R").unwrap();
        let st = rel.stats();
        assert_eq!(st.rows(), rel.len() as u64);
        assert_eq!(st.rows(), 100 - deleted);
        for c in 0..2 {
            assert!(st.distinct(c) <= st.rows(), "column {c}: {st:?}");
        }
        assert_eq!(st.distinct(0), st.rows(), "sketch still holds 100, clamped");
        assert_eq!(st.int_range(0), Some((0, 99)), "range stays an upper bound");
        assert_ne!(*st, TableStats::of(2, rel.iter()), "not rebuilt yet");
        // Inserts keep observing into the carried stats.
        db.insert_rows("R", &[row(500)]).unwrap();
        let st = db.require("R").unwrap().stats();
        assert_eq!(st.rows(), 100 - deleted + 1);
        assert_eq!(st.int_range(0), Some((0, 500)));

        // One more delete crosses the threshold: the next read rebuilds,
        // giving exactly the stats of a fresh scan of the live tuples.
        db.delete_rows("R", &[row(deleted as i64), row(deleted as i64 + 1)])
            .unwrap();
        let rel = db.require("R").unwrap();
        assert_eq!(*rel.stats(), TableStats::of(2, rel.iter()));
        assert_eq!(rel.stats().int_range(0), Some((deleted as i64 + 2, 500)));
    }

    #[test]
    fn derived_values_are_cached_per_version() {
        let mut db = Database::new();
        db.add_relation(sample());
        let rel = db.require("R").unwrap();
        assert!(Arc::ptr_eq(&rel.column_image(), &rel.column_image()));
        assert_eq!(
            *rel.column_image(),
            ColumnImage::of(2, rel.iter()),
            "image is the relation transposed"
        );
        let before = db.clone();
        db.insert_rows("R", &[Tuple::new([0i64, 0])]).unwrap();
        let (old, new) = (before.require("R").unwrap(), db.require("R").unwrap());
        assert!(!Arc::ptr_eq(&old.column_image(), &new.column_image()));
        assert_eq!(*new.column_image(), ColumnImage::of(2, new.iter()));
        assert_eq!(old.column_image().len(), 3, "old version keeps its image");
        // A digest moved by the delta equals one computed from scratch.
        let fresh = Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            [[1i64, 2], [1, 3], [2, 2], [0, 0]],
        )
        .unwrap();
        assert_eq!(new.content_digest(), fresh.content_digest());
    }
}
