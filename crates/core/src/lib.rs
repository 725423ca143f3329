//! # rd-core — an in-memory, set-semantics relational engine
//!
//! This crate provides the substrate shared by every language front-end in
//! the workspace: values, schemas, tuples, relation instances, databases,
//! comparison operators, and (random as well as exhaustive) database
//! generation used by the bounded model-checking machinery in `rd-pattern`.
//!
//! The engine deliberately follows the assumptions of the paper
//! (Gatterbauer & Dunne, SIGMOD 2024, §2.4):
//!
//! * **set semantics** — relations are sets of tuples; duplicates never
//!   exist (tuples live in a sorted copy-on-write [`TupleSet`], which also
//!   gives deterministic iteration order);
//! * **binary logic** — there is no `NULL` value; every predicate evaluates
//!   to `true` or `false`;
//! * **ordered active domain** — a linear order over all values, so the
//!   built-in predicates `<, <=, >, >=` are meaningful in addition to
//!   `=` and `!=` (§2, first paragraph).
//!
//! # Quick example
//!
//! ```
//! use rd_core::{Database, Relation, TableSchema, Value};
//!
//! let schema = TableSchema::new("R", ["A", "B"]);
//! let mut r = Relation::empty(schema);
//! r.insert_values([Value::int(1), Value::int(2)]).unwrap();
//! r.insert_values([Value::int(1), Value::int(2)]).unwrap(); // set semantics: no-op
//! assert_eq!(r.len(), 1);
//!
//! let mut db = Database::new();
//! db.add_relation(r);
//! assert_eq!(db.relation("R").unwrap().len(), 1);
//! ```

pub(crate) mod batch;
pub mod cmp;
pub mod database;
pub mod error;
pub mod exec;
pub mod generate;
pub mod plan;
pub mod pretty;
pub mod schema;
pub mod stats;
pub mod storage;
pub mod symbol;
pub mod trace;
pub mod value;

pub use cmp::CmpOp;
pub use database::{Database, Relation, Tuple};
pub use error::{CoreError, CoreResult};
pub use generate::{enumerate_databases, DbGenerator, ExhaustiveDbIter};
pub use plan::{scan_cost, DbStats, OrderStrategy, PlanHints, PlannerOpts};
pub use schema::{Catalog, TableSchema};
pub use stats::{ColumnStats, KmvSketch, TableStats};
pub use storage::{scan_image_builds, ColumnImage, TupleSet};
pub use symbol::SymbolTable;
pub use trace::{Histogram, Span};
pub use value::Value;

/// How deeply a query may nest: parenthesized and quantified
/// subexpressions in the TRC, SQL and RA parsers, operator depth in RA,
/// and the longest IDB dependency chain of a Datalog program. Every pass
/// after parsing (canonicalization, translation, lowering, execution,
/// explain, rendering) recurses over that structure, so bounding it at
/// the front door keeps the whole pipeline inside a thread's stack.
/// Deeper inputs fail with [`CoreError::NestingTooDeep`].
pub const MAX_NESTING: usize = 128;
