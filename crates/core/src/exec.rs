//! The unified logical/physical plan IR and its single executor.
//!
//! The paper's Theorem 6 shows TRC\*, RA\*, Datalog\*, and SQL\* express
//! the same query patterns; this module is that claim turned into
//! runtime architecture. Every language front-end *lowers* its checked
//! AST into one [`Plan`] — scans with interned bound-key probes,
//! selectivity-ordered hash joins, negation/quantifier attachment,
//! projection with set-semantics dedup, and union — and one executor
//! (the chunked, columnar `batch` module) runs it. The per-language
//! `eval` modules shrink to lowerings; the engine caches compiled
//! [`Plan`]s (they are `Send + Sync` and carry no borrows), so a hot
//! serving path compiles a query shape once per database epoch and
//! executes it many times.
//!
//! The IR has two execution styles, both handled here:
//!
//! * **Pipelines** ([`Block`]): an ordered list of [`Scan`] steps, each
//!   binding either a whole tuple slot (TRC-style) or individual value
//!   slots (Datalog-style), probing a lazily-built join table when key
//!   columns are bound, with filters (predicates, negated subplans,
//!   quantified blocks, negated-atom probes) attached to the earliest
//!   step after which their inputs are bound. TRC and SQL queries, RA\*⊲
//!   expressions and Datalog\* programs (the last two through the TRC
//!   hub) lower to one pipeline per union branch. For a Datalog program
//!   outside Datalog\*, each rule lowers to one pipeline, and a
//!   [`ProgramPlan`] sequences them by stratum.
//! * **Bulk operators** ([`OpNode`]): the RA operator tree for
//!   expressions outside RA\*⊲ (projection, selection, product,
//!   theta/natural join, difference, union, antijoin) with conditions
//!   compiled to column indices and interned constants, equi-join keys
//!   hashed, residual conditions checked per bucket.
//!
//! [`explain`] renders any plan as a tree of scan order, join strategy,
//! and bound keys — the diagnosability hook the service's `explain` op
//! serves.

pub use crate::batch::CHUNK_ROWS;
use crate::database::{Database, Relation, Tuple};
use crate::error::{CoreError, CoreResult};
use crate::schema::TableSchema;
use crate::symbol::SymbolTable;
use crate::value::Value;
use crate::CmpOp;
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------
// IR: terms, formulas, scans, blocks
// ---------------------------------------------------------------------

/// A compiled term: where a value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// An interned constant.
    Const(Value),
    /// A column of a bound tuple slot (TRC-style environments).
    Col {
        /// The tuple slot.
        slot: usize,
        /// The column within the bound tuple.
        col: usize,
    },
    /// A bound value slot (Datalog-style environments).
    Var(usize),
}

/// A compiled comparison between two terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    /// Left operand.
    pub left: Term,
    /// Comparison operator (order comparisons resolve interned strings
    /// lexicographically).
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

/// A compiled formula: the filter language attached to scans.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// An existentially quantified block (nested pipeline; succeeds on
    /// the first satisfying assignment).
    Exists(Block),
    /// A comparison.
    Pred(Pred),
    /// A negated-atom probe (Datalog `not P(…)`): succeeds iff no tuple
    /// of `rel` matches the key columns. With no key columns, succeeds
    /// iff `rel` is empty.
    NegProbe {
        /// Relation probed (EDB table or computed IDB).
        rel: String,
        /// Constrained columns.
        cols: Vec<usize>,
        /// The values the columns must equal (parallel to `cols`).
        terms: Vec<Term>,
        /// Join-table slot for the probe.
        index_id: usize,
    },
}

/// Index id marking a full (unkeyed) scan.
pub const FULL_SCAN: usize = usize::MAX;

/// One scheduled scan of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Relation scanned (EDB table or computed IDB).
    pub rel: String,
    /// Tuple slot bound to each scanned tuple (TRC-style), if any.
    pub tuple_slot: Option<usize>,
    /// Columns constrained by equality to bound terms; empty for a full
    /// scan.
    pub key_cols: Vec<usize>,
    /// The bound terms the key columns must equal (parallel to
    /// `key_cols`).
    pub key_terms: Vec<Term>,
    /// Value slots bound from scanned columns (Datalog-style):
    /// `(column, slot)` pairs.
    pub bind_cols: Vec<(usize, usize)>,
    /// Intra-tuple equality checks — `(column, slot)` where the slot
    /// was bound earlier in this same scan (repeated variables).
    pub check_cols: Vec<(usize, usize)>,
    /// Join-table slot ([`FULL_SCAN`] for unkeyed scans).
    pub index_id: usize,
    /// Conjuncts whose inputs are all bound once this scan binds.
    pub filters: Vec<Formula>,
}

impl Scan {
    /// `true` if this scan probes a join table rather than iterating.
    pub fn is_keyed(&self) -> bool {
        !self.key_cols.is_empty()
    }
}

/// A planned pipeline: conjuncts evaluable before any scan, then the
/// ordered scans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Filters with no scan dependencies.
    pub pre: Vec<Formula>,
    /// The scans, in chosen execution order.
    pub scans: Vec<Scan>,
}

/// The runtime environment a plan needs: slot counts and join-table
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvShape {
    /// Tuple slots (TRC-style whole-tuple bindings).
    pub tuple_slots: usize,
    /// Value slots (Datalog-style per-column bindings).
    pub value_slots: usize,
    /// Join-table slots handed out during lowering.
    pub indexes: usize,
}

// ---------------------------------------------------------------------
// IR: top-level plans
// ---------------------------------------------------------------------

/// A compiled non-Boolean query: enumerate the root block, project the
/// output head from its defining terms, validate deferred conjuncts
/// with the head bound, dedup into a set-semantics relation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Output schema.
    pub out: TableSchema,
    /// The tuple slot the output head occupies during deferred
    /// validation.
    pub head_slot: usize,
    /// The root pipeline.
    pub root: Block,
    /// One defining term per output attribute.
    pub defs: Vec<Term>,
    /// Conjuncts mentioning the head — validated per candidate tuple.
    pub deferred: Vec<Formula>,
    /// Environment requirements.
    pub shape: EnvShape,
    /// The planner's output-cardinality estimate (pre-projection upper
    /// bound), recorded at compile time under the cost-based strategy.
    /// Execution feedback compares it against the actual row count to
    /// decide whether re-planning is worthwhile.
    pub est_rows: Option<u64>,
}

/// A compiled Boolean sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct SentencePlan {
    /// The sentence body.
    pub formula: Formula,
    /// Environment requirements.
    pub shape: EnvShape,
}

/// One compiled Datalog rule: a pipeline plus the head projection.
#[derive(Debug, Clone, PartialEq)]
pub struct RulePlan {
    /// Head terms (projection).
    pub head: Vec<Term>,
    /// The rule body pipeline.
    pub block: Block,
    /// Environment requirements.
    pub shape: EnvShape,
}

/// One stratum of a compiled Datalog program: every rule of one IDB.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    /// The IDB predicate this stratum computes.
    pub pred: String,
    /// Its rules (results union under set semantics).
    pub rules: Vec<RulePlan>,
    /// The planner's estimate of this IDB's size — EDB-derived bounds
    /// on first compile, refined from observed actuals on re-plans.
    pub est_rows: Option<u64>,
}

/// A compiled non-recursive Datalog¬ program: strata in topological
/// order plus the query predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPlan {
    /// Strata in evaluation order.
    pub strata: Vec<Stratum>,
    /// The query predicate.
    pub query: String,
    /// Output schema (positional attributes `x1`, `x2`, …).
    pub out: TableSchema,
}

/// A compiled RA\* operator (bulk execution over tuple sets). Attribute
/// names are resolved to column indices at lowering time; `Rename` is
/// compiled away entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum OpNode {
    /// A base-table scan.
    Table(String),
    /// Projection onto the given columns (dedups under set semantics).
    Project {
        /// Kept columns, in output order.
        cols: Vec<usize>,
        /// Input operator.
        input: Box<OpNode>,
    },
    /// Selection by a compiled condition.
    Select {
        /// The compiled condition.
        cond: Cond,
        /// Input operator.
        input: Box<OpNode>,
    },
    /// Cartesian product.
    Product(Box<OpNode>, Box<OpNode>),
    /// Theta join: equality checks key a hash probe, the residual is
    /// verified per matching pair.
    Join {
        /// `(left column, op, right column)` checks.
        checks: Vec<(usize, CmpOp, usize)>,
        /// Left operand.
        left: Box<OpNode>,
        /// Right operand.
        right: Box<OpNode>,
    },
    /// Natural join on shared attribute names (resolved at lowering).
    NaturalJoin {
        /// Equality checks over the shared columns.
        checks: Vec<(usize, CmpOp, usize)>,
        /// Right columns not shared with the left (kept in output).
        keep_right: Vec<usize>,
        /// Left operand.
        left: Box<OpNode>,
        /// Right operand.
        right: Box<OpNode>,
    },
    /// Set difference.
    Diff(Box<OpNode>, Box<OpNode>),
    /// Set union.
    Union(Box<OpNode>, Box<OpNode>),
    /// Antijoin: left tuples with no qualifying right partner.
    Antijoin {
        /// `(left column, op, right column)` checks.
        checks: Vec<(usize, CmpOp, usize)>,
        /// Left operand.
        left: Box<OpNode>,
        /// Right operand.
        right: Box<OpNode>,
    },
}

/// A selection condition compiled against a fixed column layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// A comparison.
    Cmp(CTerm, CmpOp, CTerm),
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
}

/// A term of a compiled selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CTerm {
    /// An interned constant.
    Const(Value),
    /// A column of the input tuple.
    Col(usize),
}

/// A compiled, executable query plan — the unit the engine's plan cache
/// stores. Contains only owned data (strings, interned values, column
/// indices), so it is `Send + Sync` and valid for the lifetime of the
/// database epoch it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A union of non-Boolean query branches (TRC\*/SQL\*; one branch
    /// for a plain query).
    Union(Vec<QueryPlan>),
    /// A Boolean sentence (evaluates to the 0-ary relation encoding).
    Sentence(SentencePlan),
    /// A Datalog¬ program outside Datalog\* (an IDB with several rules
    /// or several uses). Datalog\* programs compile through the TRC hub
    /// into [`Plan::Union`] instead.
    Program(ProgramPlan),
    /// An RA operator tree for an expression outside RA\*⊲ (union, a
    /// disjunctive selection, a non-equality antijoin). RA\*⊲
    /// expressions compile through the TRC hub into [`Plan::Union`]
    /// instead.
    Ops {
        /// The root operator.
        root: OpNode,
        /// Output schema.
        out: TableSchema,
    },
}

fn _assert_plan_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Plan>();
}

// ---------------------------------------------------------------------
// Scan-set extraction
// ---------------------------------------------------------------------

/// The *scan set* of a compiled plan: every stored relation the executor
/// can read while running it. This is the dependency footprint that
/// delta-aware caches stamp onto their entries — a mutation to a
/// relation outside a plan's scan set provably cannot change its result.
///
/// All stored reads go through [`Scan::rel`], [`Formula::NegProbe`], and
/// [`OpNode::Table`]; for Datalog programs, IDB predicates are computed
/// per execution (and shadow same-named tables), so stratum names are
/// excluded.
pub fn scan_set(plan: &Plan) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    match plan {
        Plan::Union(branches) => {
            for q in branches {
                scans_in_block(&q.root, &mut set);
                for f in &q.deferred {
                    scans_in_formula(f, &mut set);
                }
            }
        }
        Plan::Sentence(s) => scans_in_formula(&s.formula, &mut set),
        Plan::Program(p) => {
            for stratum in &p.strata {
                for rule in &stratum.rules {
                    scans_in_block(&rule.block, &mut set);
                }
            }
            for stratum in &p.strata {
                set.remove(&stratum.pred);
            }
        }
        Plan::Ops { root, .. } => scans_in_ops(root, &mut set),
    }
    set
}

fn scans_in_block(block: &Block, set: &mut BTreeSet<String>) {
    for f in &block.pre {
        scans_in_formula(f, set);
    }
    for scan in &block.scans {
        set.insert(scan.rel.clone());
        for f in &scan.filters {
            scans_in_formula(f, set);
        }
    }
}

fn scans_in_formula(f: &Formula, set: &mut BTreeSet<String>) {
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                scans_in_formula(sub, set);
            }
        }
        Formula::Not(sub) => scans_in_formula(sub, set),
        Formula::Exists(block) => scans_in_block(block, set),
        Formula::Pred(_) => {}
        Formula::NegProbe { rel, .. } => {
            set.insert(rel.clone());
        }
    }
}

fn scans_in_ops(op: &OpNode, set: &mut BTreeSet<String>) {
    match op {
        OpNode::Table(name) => {
            set.insert(name.clone());
        }
        OpNode::Project { input, .. } | OpNode::Select { input, .. } => scans_in_ops(input, set),
        OpNode::Product(l, r) | OpNode::Diff(l, r) | OpNode::Union(l, r) => {
            scans_in_ops(l, set);
            scans_in_ops(r, set);
        }
        OpNode::Join { left, right, .. }
        | OpNode::NaturalJoin { left, right, .. }
        | OpNode::Antijoin { left, right, .. } => {
            scans_in_ops(left, set);
            scans_in_ops(right, set);
        }
    }
}

// ---------------------------------------------------------------------
// Execution: analyze tallies
// ---------------------------------------------------------------------

/// Computed IDB relations (empty for languages without them).
pub(crate) type IdbMap = BTreeMap<String, BTreeSet<Tuple>>;

/// What an analyzing execution observed at one plan node: the rows it
/// produced and — for keyed probes and join builds — which build
/// strategy the executor actually chose.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTally {
    /// Rows the node produced.
    pub(crate) rows: u64,
    /// Join/probe build strategy (`"dense-key"` or `"hash"`).
    pub(crate) build: Option<&'static str>,
}

/// Per-node observations collected by an analyzing execution.
///
/// Keys are node *addresses* (`&Scan`, `&OpNode`, `&QueryPlan`,
/// `&RulePlan`, `&Stratum`, `&Formula` cast to `usize`): every keyed
/// node is alive inside the same [`Plan`] for the whole execution *and*
/// the subsequent annotation pass, so addresses are unique — which lets
/// the executor count rows without adding id fields to the IR (and
/// therefore without touching any of the four language lowerings).
pub(crate) type TallyMap = HashMap<usize, NodeTally>;

/// Records `rows` for `node` if an analyze tally is active.
pub(crate) fn record<T>(tally: &mut Option<TallyMap>, node: &T, rows: usize) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().rows = rows as u64;
    }
}

/// Adds `rows` to `node`'s count if an analyze tally is active (the
/// executor counts chunk by chunk).
pub(crate) fn bump_n<T>(tally: &mut Option<TallyMap>, node: &T, rows: usize) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().rows += rows as u64;
    }
}

/// Records the join/probe build strategy chosen for `node` if an
/// analyze tally is active.
pub(crate) fn record_build<T>(tally: &mut Option<TallyMap>, node: &T, kind: &'static str) {
    if let Some(t) = tally.as_mut() {
        t.entry(node as *const T as usize).or_default().build = Some(kind);
    }
}

// ---------------------------------------------------------------------
// Execution: top-level plans
// ---------------------------------------------------------------------

/// Executes a compiled query branch, returning its output relation.
pub fn run_query(q: &QueryPlan, db: &Database) -> CoreResult<Relation> {
    crate::batch::run_query(q, db, &mut None)
}

/// Executes a compiled Boolean sentence.
pub fn run_sentence(s: &SentencePlan, db: &Database) -> CoreResult<bool> {
    crate::batch::run_sentence(s, db, &mut None)
}

/// Executes a compiled Datalog program: strata in order, rules of one
/// IDB unioned under set semantics.
pub fn run_program(p: &ProgramPlan, db: &Database) -> CoreResult<Relation> {
    run_program_collect(p, db, &mut None, None)
}

/// [`run_program`] with an optional analyze tally, additionally
/// reporting each computed IDB's actual size into `sizes` — the raw
/// material of planner feedback (re-plans replace the EDB-derived
/// stratum bounds with these).
fn run_program_collect(
    p: &ProgramPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    mut sizes: Option<&mut Vec<(String, u64)>>,
) -> CoreResult<Relation> {
    let mut computed = IdbMap::new();
    // Columnar IDB materializations shared across the program's rules
    // (sound because a computed IDB never changes once its stratum
    // completes, and no rule reads its own stratum); stored relations
    // bring their own cached column images.
    let mut cache = crate::batch::RelCache::default();
    for stratum in &p.strata {
        let mut tuples: BTreeSet<Tuple> = BTreeSet::new();
        for rule in &stratum.rules {
            tuples.extend(crate::batch::run_rule(
                rule, db, &computed, tally, &mut cache,
            )?);
        }
        record(tally, stratum, tuples.len());
        if let Some(sizes) = sizes.as_deref_mut() {
            sizes.push((stratum.pred.clone(), tuples.len() as u64));
        }
        computed.insert(stratum.pred.clone(), tuples);
    }
    let rows = computed
        .remove(&p.query)
        .ok_or_else(|| CoreError::Invalid(format!("query predicate '{}' not computed", p.query)))?;
    let mut rel = db.fresh_relation(p.out.clone());
    rel.extend(rows.into_iter().collect())?;
    Ok(rel)
}

pub(crate) fn eval_cond(cond: &Cond, tuple: &Tuple, symbols: &SymbolTable) -> bool {
    match cond {
        Cond::Cmp(l, op, r) => {
            let lv = match l {
                CTerm::Const(v) => v,
                CTerm::Col(i) => tuple.get(*i),
            };
            let rv = match r {
                CTerm::Const(v) => v,
                CTerm::Col(i) => tuple.get(*i),
            };
            op.eval_resolved(lv, rv, symbols)
        }
        Cond::And(cs) => cs.iter().all(|c| eval_cond(c, tuple, symbols)),
        Cond::Or(cs) => cs.iter().any(|c| eval_cond(c, tuple, symbols)),
    }
}

/// Executes a compiled RA operator tree to its tuple set.
pub fn run_ops(op: &OpNode, db: &Database) -> CoreResult<BTreeSet<Tuple>> {
    crate::batch::run_ops(op, db, &mut None)
}

/// The 0-ary encoding of a Boolean result: `{()}` for true, `{}` for
/// false (the classic degenerate-relation convention).
pub fn boolean_relation(value: bool) -> Relation {
    let mut rel = Relation::empty(TableSchema::new("q", Vec::<String>::new()));
    if value {
        rel.insert(Tuple(Vec::new()))
            .expect("0-ary tuple fits 0-ary schema");
    }
    rel
}

/// Executes any compiled plan over `db`, normalizing the output to a
/// [`Relation`] (Boolean sentences become the 0-ary encoding).
pub fn execute(plan: &Plan, db: &Database) -> CoreResult<Relation> {
    execute_inner(plan, db, &mut None)
}

/// What one execution observed, for the planner's feedback loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecFeedback {
    /// Rows in the final result.
    pub out_rows: u64,
    /// Actual size of each computed Datalog IDB, in stratum order
    /// (empty for non-program plans). Re-plans feed these back as
    /// [`PlanHints`](crate::plan::PlanHints), replacing the EDB-derived bounds.
    pub idb_rows: Vec<(String, u64)>,
}

/// The planner's recorded estimate for the plan's final output, if the
/// plan was compiled under the cost-based strategy: per-branch sums for
/// unions, the query stratum's bound for programs.
pub fn plan_est(plan: &Plan) -> Option<u64> {
    match plan {
        Plan::Union(branches) => branches
            .iter()
            .map(|q| q.est_rows)
            .try_fold(0u64, |acc, e| e.map(|e| acc.saturating_add(e))),
        Plan::Program(p) => p
            .strata
            .iter()
            .find(|s| s.pred == p.query)
            .and_then(|s| s.est_rows),
        Plan::Sentence(_) | Plan::Ops { .. } => None,
    }
}

/// [`execute`], additionally harvesting the actual row counts the
/// planner's feedback loop consumes. Costs nothing beyond normal
/// execution: program IDB sizes are observed as each stratum completes,
/// and the output count reads the result relation's length.
pub fn execute_feedback(plan: &Plan, db: &Database) -> CoreResult<(Relation, ExecFeedback)> {
    let mut idb_rows = Vec::new();
    let relation = match plan {
        Plan::Program(p) => run_program_collect(p, db, &mut None, Some(&mut idb_rows))?,
        other => execute_inner(other, db, &mut None)?,
    };
    let feedback = ExecFeedback {
        out_rows: relation.len() as u64,
        idb_rows,
    };
    Ok((relation, feedback))
}

fn execute_inner(plan: &Plan, db: &Database, tally: &mut Option<TallyMap>) -> CoreResult<Relation> {
    match plan {
        Plan::Union(branches) => {
            let mut iter = branches.iter();
            let first = iter
                .next()
                .ok_or_else(|| CoreError::Invalid("empty union".into()))?;
            let mut result = crate::batch::run_query(first, db, tally)?;
            for branch in iter {
                let r = crate::batch::run_query(branch, db, tally)?;
                result.extend(r.iter().cloned().collect())?;
            }
            Ok(result)
        }
        Plan::Sentence(s) => Ok(boolean_relation(crate::batch::run_sentence(s, db, tally)?)),
        Plan::Program(p) => run_program_collect(p, db, tally, None),
        Plan::Ops { root, out } => {
            let tuples = crate::batch::run_ops(root, db, tally)?;
            let mut rel = db.fresh_relation(out.clone());
            rel.extend(tuples.into_iter().collect())?;
            Ok(rel)
        }
    }
}

/// Executes `plan` while counting per-operator actual rows, then renders
/// the explain tree annotated with planner estimates and the observed
/// counts — the engine of the `explain analyze` wire form. Returns the
/// result relation too, so callers can cross-check the root count.
pub fn explain_analyze(plan: &Plan, db: &Database) -> CoreResult<(Relation, ExplainNode)> {
    let mut tally = Some(TallyMap::new());
    let relation = execute_inner(plan, db, &mut tally)?;
    let tally = tally.unwrap_or_default();
    let annot = Annot {
        db: Some(db),
        tally: Some(&tally),
    };
    let mut node = explain_plan(plan, &annot);
    node.actual_rows = Some(relation.len() as u64);
    if let Some(est) = node.est_rows {
        node.q_error = Some(q_error(est, relation.len() as u64));
    }
    Ok((relation, node))
}

// ---------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------

/// One node of an explain tree: plan structure rendered for diagnosis
/// (scan order, join strategy, bound keys), optionally annotated with
/// row counts by `explain analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Node kind (`scan`, `exists`, `join`, `union`, …).
    pub kind: String,
    /// Human-readable detail (table, key columns, strategy).
    pub detail: String,
    /// Planner cardinality estimate (sketch-backed statistics where the
    /// node maps to stored relations; present only under
    /// `explain analyze`, and absent for nodes with no meaningful
    /// estimate).
    pub est_rows: Option<u64>,
    /// Rows this node actually produced (present only under
    /// `explain analyze`).
    pub actual_rows: Option<u64>,
    /// Estimation quality: `max(est/actual, actual/est)` with +1
    /// smoothing so empty results stay finite. `1.0` is a perfect
    /// estimate; present only when both row fields are.
    pub q_error: Option<f64>,
    /// Join-build strategy actually used (`"dense-key"` or `"hash"`),
    /// recorded during `explain analyze` on keyed scans, joins, and
    /// negation probes. `None` outside analyze and in legacy frames.
    pub build: Option<String>,
    /// Child nodes in execution order.
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    fn new(kind: &str, detail: impl Into<String>) -> ExplainNode {
        ExplainNode {
            kind: kind.to_string(),
            detail: detail.into(),
            est_rows: None,
            actual_rows: None,
            q_error: None,
            build: None,
            children: Vec::new(),
        }
    }

    fn with(mut self, children: Vec<ExplainNode>) -> ExplainNode {
        self.children = children;
        self
    }

    fn rows(mut self, est: Option<u64>, actual: Option<u64>) -> ExplainNode {
        self.est_rows = est;
        self.actual_rows = actual;
        self.q_error = match (est, actual) {
            (Some(e), Some(a)) => Some(q_error(e, a)),
            _ => None,
        };
        self
    }
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`
/// with +1 smoothing on both sides so zero rows stay finite. `1.0` means
/// a perfect estimate; the engine re-plans queries whose root q-error
/// crosses its threshold.
pub fn q_error(est: u64, actual: u64) -> f64 {
    let (e, a) = (est as f64 + 1.0, actual as f64 + 1.0);
    (e / a).max(a / e)
}

/// Annotation context for explain rendering: empty for plain `explain`
/// (every row field stays `None`, keeping legacy output byte-identical),
/// populated by [`explain_analyze`].
struct Annot<'a> {
    /// Database to draw cardinality estimates from.
    db: Option<&'a Database>,
    /// Actual row counts from the analyzing execution.
    tally: Option<&'a TallyMap>,
}

impl Annot<'_> {
    const NONE: Annot<'static> = Annot {
        db: None,
        tally: None,
    };

    /// The tallied actual row count for `node` — `Some(0)` for nodes the
    /// execution never reached (short-circuits), `None` outside analyze.
    fn actual<T>(&self, node: &T) -> Option<u64> {
        self.tally.map(|t| {
            t.get(&(node as *const T as usize))
                .map(|nt| nt.rows)
                .unwrap_or(0)
        })
    }

    /// The join-build strategy recorded for `node` during the analyzing
    /// execution (`"dense-key"` or `"hash"`), if any.
    fn build<T>(&self, node: &T) -> Option<String> {
        self.tally
            .and_then(|t| t.get(&(node as *const T as usize)))
            .and_then(|nt| nt.build)
            .map(str::to_string)
    }

    /// Cardinality estimate for one pipeline scan: the stored relation's
    /// size, divided by the sketch-estimated distinct count of each
    /// bound key column (each equality key retains `1/V` of the rows —
    /// the System R uniform assumption, now over real statistics). IDB
    /// scans have no stored relation and get no estimate.
    fn est_scan(&self, scan: &Scan) -> Option<u64> {
        let rel = self.db?.relation(&scan.rel)?;
        let n = rel.len() as f64;
        if !scan.is_keyed() {
            return Some(n as u64);
        }
        let stats = rel.stats();
        let mut est = n;
        for &c in &scan.key_cols {
            est /= (stats.distinct(c) as f64).max(1.0);
        }
        Some((est.round() as u64).max(1))
    }

    /// Estimate for a whole pipeline: the product of its scans'
    /// estimates (`None` if any scan is unestimable).
    fn est_block(&self, block: &Block) -> Option<u64> {
        self.db?;
        let mut total = 1u64;
        for scan in &block.scans {
            total = total.saturating_mul(self.est_scan(scan)?);
        }
        Some(total)
    }

    /// Estimate for a bulk operator node, bottom-up.
    fn est_ops(&self, op: &OpNode) -> Option<u64> {
        let db = self.db?;
        Some(match op {
            OpNode::Table(name) => db.relation(name)?.len() as u64,
            OpNode::Project { input, .. } => self.est_ops(input)?,
            // A selection with no statistics: assume 1-in-3 qualify.
            OpNode::Select { input, .. } => (self.est_ops(input)? / 3).max(1),
            OpNode::Product(l, r) => self.est_ops(l)?.saturating_mul(self.est_ops(r)?),
            OpNode::Join {
                checks,
                left,
                right,
            }
            | OpNode::NaturalJoin {
                checks,
                left,
                right,
                ..
            } => {
                let cross = self.est_ops(left)?.saturating_mul(self.est_ops(right)?);
                let eq = checks.iter().filter(|(_, op, _)| *op == CmpOp::Eq).count();
                let shift = (2 * eq as u32).min(63);
                (cross >> shift).max(1)
            }
            // Difference and antijoin are bounded by the left input.
            OpNode::Diff(l, _) | OpNode::Antijoin { left: l, .. } => self.est_ops(l)?,
            OpNode::Union(l, r) => self.est_ops(l)?.saturating_add(self.est_ops(r)?),
        })
    }
}

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Const(v) => v.to_string(),
        Term::Col { slot, col } => format!("t{slot}.c{col}"),
        Term::Var(s) => format!("v{s}"),
    }
}

fn fmt_cols(cols: &[usize]) -> String {
    let parts: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn explain_formula(f: &Formula, annot: &Annot<'_>) -> ExplainNode {
    match f {
        Formula::And(fs) => {
            ExplainNode::new("and", "").with(fs.iter().map(|f| explain_formula(f, annot)).collect())
        }
        Formula::Or(fs) => {
            ExplainNode::new("or", "").with(fs.iter().map(|f| explain_formula(f, annot)).collect())
        }
        Formula::Not(sub) => ExplainNode::new("not", "").with(vec![explain_formula(sub, annot)]),
        Formula::Exists(block) => ExplainNode::new("exists", "").with(explain_block(block, annot)),
        Formula::Pred(p) => ExplainNode::new(
            "filter",
            format!("{} {} {}", fmt_term(&p.left), p.op, fmt_term(&p.right)),
        ),
        Formula::NegProbe { rel, cols, .. } => {
            let mut node = if cols.is_empty() {
                ExplainNode::new("neg-probe", format!("{rel} empty?"))
            } else {
                ExplainNode::new("neg-probe", format!("{rel} on cols {}", fmt_cols(cols)))
            };
            node.build = annot.build(f);
            node
        }
    }
}

fn explain_scan(scan: &Scan, annot: &Annot<'_>) -> ExplainNode {
    let detail = if scan.is_keyed() {
        let keys: Vec<String> = scan
            .key_cols
            .iter()
            .zip(&scan.key_terms)
            .map(|(c, t)| format!("c{c} = {}", fmt_term(t)))
            .collect();
        format!("{} hash probe on {}", scan.rel, keys.join(" and "))
    } else {
        format!("{} full scan", scan.rel)
    };
    let mut node = ExplainNode::new("scan", detail)
        .with(
            scan.filters
                .iter()
                .map(|f| explain_formula(f, annot))
                .collect(),
        )
        .rows(annot.est_scan(scan), annot.actual(scan));
    node.build = annot.build(scan);
    node
}

fn explain_block(block: &Block, annot: &Annot<'_>) -> Vec<ExplainNode> {
    let mut nodes: Vec<ExplainNode> = block
        .pre
        .iter()
        .map(|f| explain_formula(f, annot))
        .collect();
    nodes.extend(block.scans.iter().map(|s| explain_scan(s, annot)));
    nodes
}

fn explain_query(q: &QueryPlan, annot: &Annot<'_>) -> ExplainNode {
    let mut children = explain_block(&q.root, annot);
    if !q.deferred.is_empty() {
        children.push(
            ExplainNode::new("deferred", "validated with the output head bound").with(
                q.deferred
                    .iter()
                    .map(|f| explain_formula(f, annot))
                    .collect(),
            ),
        );
    }
    ExplainNode::new(
        "query",
        format!("{}({})", q.out.name(), q.out.attrs().join(", ")),
    )
    .with(children)
    // Prefer the cost-based planner's recorded estimate; fall back to
    // the per-scan product for plans compiled under the legacy strategy.
    .rows(
        q.est_rows.or_else(|| annot.est_block(&q.root)),
        annot.actual(q),
    )
}

fn explain_ops(op: &OpNode, annot: &Annot<'_>) -> ExplainNode {
    let join_detail = |checks: &[(usize, CmpOp, usize)]| {
        let eq = checks.iter().filter(|(_, op, _)| *op == CmpOp::Eq).count();
        let residual = checks.len() - eq;
        if eq == 0 {
            format!("nested loop ({residual} residual check(s))")
        } else {
            format!("hash join on {eq} key(s), {residual} residual check(s)")
        }
    };
    let node =
        match op {
            OpNode::Table(name) => ExplainNode::new("table", name.clone()),
            OpNode::Project { cols, input } => {
                ExplainNode::new("project", format!("cols {}", fmt_cols(cols)))
                    .with(vec![explain_ops(input, annot)])
            }
            OpNode::Select { input, .. } => ExplainNode::new("select", "compiled condition")
                .with(vec![explain_ops(input, annot)]),
            OpNode::Product(l, r) => ExplainNode::new("product", "")
                .with(vec![explain_ops(l, annot), explain_ops(r, annot)]),
            OpNode::Join {
                checks,
                left,
                right,
            } => ExplainNode::new("join", join_detail(checks))
                .with(vec![explain_ops(left, annot), explain_ops(right, annot)]),
            OpNode::NaturalJoin {
                checks,
                left,
                right,
                ..
            } => ExplainNode::new("natural-join", join_detail(checks))
                .with(vec![explain_ops(left, annot), explain_ops(right, annot)]),
            OpNode::Diff(l, r) => ExplainNode::new("diff", "")
                .with(vec![explain_ops(l, annot), explain_ops(r, annot)]),
            OpNode::Union(l, r) => ExplainNode::new("union", "")
                .with(vec![explain_ops(l, annot), explain_ops(r, annot)]),
            OpNode::Antijoin {
                checks,
                left,
                right,
            } => ExplainNode::new("antijoin", join_detail(checks))
                .with(vec![explain_ops(left, annot), explain_ops(right, annot)]),
        };
    let mut node = node.rows(annot.est_ops(op), annot.actual(op));
    node.build = annot.build(op);
    node
}

/// Renders a compiled plan as an explain tree (no row counts — see
/// [`explain_analyze`]).
pub fn explain(plan: &Plan) -> ExplainNode {
    explain_plan(plan, &Annot::NONE)
}

fn explain_plan(plan: &Plan, annot: &Annot<'_>) -> ExplainNode {
    match plan {
        Plan::Union(branches) => {
            if let [q] = branches.as_slice() {
                explain_query(q, annot)
            } else {
                let est = branches
                    .iter()
                    .map(|q| q.est_rows.or_else(|| annot.est_block(&q.root)))
                    .try_fold(0u64, |acc, e| e.map(|e| acc.saturating_add(e)));
                ExplainNode::new("union", format!("{} branches", branches.len()))
                    .with(branches.iter().map(|q| explain_query(q, annot)).collect())
                    .rows(est, None)
            }
        }
        Plan::Sentence(s) => {
            ExplainNode::new("sentence", "boolean").with(vec![explain_formula(&s.formula, annot)])
        }
        Plan::Program(p) => ExplainNode::new("program", format!("query {}", p.query)).with(
            p.strata
                .iter()
                .map(|stratum| {
                    ExplainNode::new("stratum", stratum.pred.clone())
                        .with(
                            stratum
                                .rules
                                .iter()
                                .map(|rule| {
                                    ExplainNode::new(
                                        "rule",
                                        format!("{} head term(s)", rule.head.len()),
                                    )
                                    .with(explain_block(&rule.block, annot))
                                    .rows(annot.est_block(&rule.block), annot.actual(rule))
                                })
                                .collect(),
                        )
                        .rows(stratum.est_rows, annot.actual(stratum))
                })
                .collect(),
        ),
        Plan::Ops { root, out } => {
            ExplainNode::new("ops", format!("{}({})", out.name(), out.attrs().join(", ")))
                .with(vec![explain_ops(root, annot)])
                .rows(annot.est_ops(root), annot.actual(root))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Relation;

    fn rs_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["A", "B"]),
                [[1i64, 10], [1, 20], [2, 10], [3, 30]],
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(TableSchema::new("S", ["B"]), [[10i64], [20]]).unwrap(),
        );
        db
    }

    /// A hand-built pipeline: q(A) ← R(A, B), S(B) as a tuple-slot plan
    /// with a hash probe into S.
    fn join_plan() -> QueryPlan {
        QueryPlan {
            out: TableSchema::new("q", ["A"]),
            head_slot: 0,
            root: Block {
                pre: Vec::new(),
                scans: vec![
                    Scan {
                        rel: "R".into(),
                        tuple_slot: Some(1),
                        key_cols: Vec::new(),
                        key_terms: Vec::new(),
                        bind_cols: Vec::new(),
                        check_cols: Vec::new(),
                        index_id: FULL_SCAN,
                        filters: Vec::new(),
                    },
                    Scan {
                        rel: "S".into(),
                        tuple_slot: Some(2),
                        key_cols: vec![0],
                        key_terms: vec![Term::Col { slot: 1, col: 1 }],
                        bind_cols: Vec::new(),
                        check_cols: Vec::new(),
                        index_id: 0,
                        filters: Vec::new(),
                    },
                ],
            },
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: EnvShape {
                tuple_slots: 3,
                value_slots: 0,
                indexes: 1,
            },
            est_rows: None,
        }
    }

    #[test]
    fn pipeline_join_emits_matching_tuples() {
        let db = rs_db();
        let out = run_query(&join_plan(), &db).unwrap();
        let vals: Vec<&Value> = out.iter().map(|t| t.get(0)).collect();
        assert_eq!(vals, vec![&Value::int(1), &Value::int(2)]);
    }

    #[test]
    fn value_slot_pipeline_with_neg_probe() {
        // Q(x) ← R(x, y), ¬S(y): Datalog-style value slots.
        let db = rs_db();
        let rule = RulePlan {
            head: vec![Term::Var(0)],
            block: Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "R".into(),
                    tuple_slot: None,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    bind_cols: vec![(0, 0), (1, 1)],
                    check_cols: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: vec![Formula::NegProbe {
                        rel: "S".into(),
                        cols: vec![0],
                        terms: vec![Term::Var(1)],
                        index_id: 0,
                    }],
                }],
            },
            shape: EnvShape {
                tuple_slots: 0,
                value_slots: 2,
                indexes: 1,
            },
        };
        let idbs = IdbMap::new();
        let mut cache = crate::batch::RelCache::default();
        let out = crate::batch::run_rule(&rule, &db, &idbs, &mut None, &mut cache).unwrap();
        assert_eq!(out, vec![Tuple::new([3i64])]);
    }

    #[test]
    fn sentence_short_circuits() {
        let db = rs_db();
        let s = SentencePlan {
            formula: Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "R".into(),
                    tuple_slot: Some(0),
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    bind_cols: Vec::new(),
                    check_cols: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: vec![Formula::Pred(Pred {
                        left: Term::Col { slot: 0, col: 0 },
                        op: CmpOp::Eq,
                        right: Term::Const(Value::int(3)),
                    })],
                }],
            }),
            shape: EnvShape {
                tuple_slots: 1,
                value_slots: 0,
                indexes: 0,
            },
        };
        assert!(run_sentence(&s, &db).unwrap());
        assert_eq!(
            execute(&Plan::Sentence(s), &db).unwrap().len(),
            1,
            "true sentence is the 0-ary singleton"
        );
    }

    #[test]
    fn ops_tree_executes_join_and_diff() {
        let db = rs_db();
        // π_A(R ⋈_{B=B} S): the A values whose B appears in S.
        let join = OpNode::Join {
            checks: vec![(1, CmpOp::Eq, 0)],
            left: Box::new(OpNode::Table("R".into())),
            right: Box::new(OpNode::Table("S".into())),
        };
        let root = OpNode::Project {
            cols: vec![0],
            input: Box::new(join),
        };
        let tuples = run_ops(&root, &db).unwrap();
        assert_eq!(tuples.len(), 2);
    }

    #[test]
    fn empty_union_errors() {
        let db = rs_db();
        assert!(execute(&Plan::Union(Vec::new()), &db).is_err());
    }

    #[test]
    fn scan_set_walks_every_read_site() {
        // Pipeline branch: scans plus a NegProbe filter and an Exists
        // block inside a deferred conjunct.
        let mut q = join_plan();
        q.root.scans[0].filters.push(Formula::NegProbe {
            rel: "N".into(),
            cols: vec![0],
            terms: vec![Term::Const(Value::int(1))],
            index_id: 1,
        });
        q.deferred
            .push(Formula::Not(Box::new(Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "D".into(),
                    tuple_slot: None,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    bind_cols: Vec::new(),
                    check_cols: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: Vec::new(),
                }],
            }))));
        let set = scan_set(&Plan::Union(vec![q]));
        let names: Vec<&str> = set.iter().map(String::as_str).collect();
        assert_eq!(names, ["D", "N", "R", "S"]);

        // Ops tree: every table leaf.
        let ops = Plan::Ops {
            root: OpNode::Diff(
                Box::new(OpNode::Table("A".into())),
                Box::new(OpNode::Project {
                    cols: vec![0],
                    input: Box::new(OpNode::Table("B".into())),
                }),
            ),
            out: TableSchema::new("q", ["x"]),
        };
        let names: Vec<String> = scan_set(&ops).into_iter().collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn scan_set_excludes_computed_idbs() {
        // P(x) ← R(x, y); Q(x) ← P(x), ¬S(x): the program reads R and S
        // from storage, while P is computed per execution.
        let rule_p = RulePlan {
            head: vec![Term::Var(0)],
            block: Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "R".into(),
                    tuple_slot: None,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    bind_cols: vec![(0, 0)],
                    check_cols: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: Vec::new(),
                }],
            },
            shape: EnvShape::default(),
        };
        let rule_q = RulePlan {
            head: vec![Term::Var(0)],
            block: Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    rel: "P".into(),
                    tuple_slot: None,
                    key_cols: Vec::new(),
                    key_terms: Vec::new(),
                    bind_cols: vec![(0, 0)],
                    check_cols: Vec::new(),
                    index_id: FULL_SCAN,
                    filters: vec![Formula::NegProbe {
                        rel: "S".into(),
                        cols: vec![0],
                        terms: vec![Term::Var(0)],
                        index_id: 0,
                    }],
                }],
            },
            shape: EnvShape::default(),
        };
        let plan = Plan::Program(ProgramPlan {
            strata: vec![
                Stratum {
                    pred: "P".into(),
                    rules: vec![rule_p],
                    est_rows: None,
                },
                Stratum {
                    pred: "Q".into(),
                    rules: vec![rule_q],
                    est_rows: None,
                },
            ],
            query: "Q".into(),
            out: TableSchema::new("Q", ["x1"]),
        });
        let names: Vec<String> = scan_set(&plan).into_iter().collect();
        assert_eq!(names, ["R", "S"]);
    }

    #[test]
    fn explain_names_scan_strategy() {
        let plan = Plan::Union(vec![join_plan()]);
        let node = explain(&plan);
        assert_eq!(node.kind, "query");
        let scans: Vec<&ExplainNode> = node.children.iter().filter(|n| n.kind == "scan").collect();
        assert_eq!(scans.len(), 2);
        assert!(scans[0].detail.contains("full scan"), "{}", scans[0].detail);
        assert!(
            scans[1].detail.contains("hash probe"),
            "{}",
            scans[1].detail
        );
    }

    #[test]
    fn plain_explain_has_no_row_counts() {
        let node = explain(&Plan::Union(vec![join_plan()]));
        fn assert_unannotated(n: &ExplainNode) {
            assert_eq!((n.est_rows, n.actual_rows), (None, None), "{}", n.kind);
            n.children.iter().for_each(assert_unannotated);
        }
        assert_unannotated(&node);
    }

    #[test]
    fn explain_analyze_counts_pipeline_rows() {
        let db = rs_db();
        let plan = Plan::Union(vec![join_plan()]);
        let (rel, node) = explain_analyze(&plan, &db).unwrap();
        // Root: actual rows == the returned relation's cardinality.
        assert_eq!(node.actual_rows, Some(rel.len() as u64));
        assert_eq!(rel.len(), 2);
        // R full scan emits all 4 tuples; the S probe matches B ∈
        // {10, 20, 10} of the four R rows, i.e. 3 rows survive.
        let scans: Vec<&ExplainNode> = node.children.iter().filter(|n| n.kind == "scan").collect();
        assert_eq!(scans[0].rows_pair(), (Some(4), Some(4)));
        assert_eq!(scans[1].actual_rows, Some(3));
        assert!(scans[1].est_rows.is_some());
    }

    #[test]
    fn explain_analyze_counts_ops_rows() {
        let db = rs_db();
        // π_A(R ⋈_{B=B} S): join produces 3 pairs, projection dedups to 2.
        let plan = Plan::Ops {
            root: OpNode::Project {
                cols: vec![0],
                input: Box::new(OpNode::Join {
                    checks: vec![(1, CmpOp::Eq, 0)],
                    left: Box::new(OpNode::Table("R".into())),
                    right: Box::new(OpNode::Table("S".into())),
                }),
            },
            out: TableSchema::new("q", ["A"]),
        };
        let (rel, node) = explain_analyze(&plan, &db).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(node.actual_rows, Some(2));
        let project = &node.children[0];
        assert_eq!(project.kind, "project");
        assert_eq!(project.actual_rows, Some(2));
        let join = &project.children[0];
        assert_eq!(join.actual_rows, Some(3));
        // est: |R|·|S| = 8, one equality key → 8 >> 2 = 2.
        assert_eq!(join.est_rows, Some(2));
        let tables: Vec<(Option<u64>, Option<u64>)> =
            join.children.iter().map(|n| n.rows_pair()).collect();
        assert_eq!(tables, vec![(Some(4), Some(4)), (Some(2), Some(2))]);
    }

    impl ExplainNode {
        fn rows_pair(&self) -> (Option<u64>, Option<u64>) {
            (self.est_rows, self.actual_rows)
        }
    }
}
