//! The unified logical/physical plan IR and its single executor.
//!
//! The paper's Theorem 6 shows TRC\*, RA\*, Datalog\*, and SQL\* express
//! the same query patterns; this module is that claim turned into
//! runtime architecture. Every language front-end *lowers* its checked
//! AST into one [`Plan`] — scans with interned bound-key probes,
//! selectivity-ordered hash joins, negation/quantifier attachment,
//! projection with set-semantics dedup, and union — and one executor
//! runs it. The per-language `eval` modules shrink to lowerings; the
//! engine caches compiled [`Plan`]s (they are `Send + Sync` and carry
//! no borrows), so a hot serving path compiles a query shape once per
//! database epoch and executes it many times.
//!
//! The IR has two execution styles, both handled here:
//!
//! * **Pipelines** ([`Block`]): an ordered list of [`Scan`] steps, each
//!   binding either a whole tuple slot (TRC-style) or individual value
//!   slots (Datalog-style), probing a lazily-built hash index when key
//!   columns are bound, with filters (predicates, negated subplans,
//!   quantified blocks, negated-atom probes) attached to the earliest
//!   step after which their inputs are bound. TRC and SQL queries lower
//!   to one pipeline per union branch; each Datalog rule lowers to one
//!   pipeline, and a [`ProgramPlan`] sequences them by stratum.
//! * **Bulk operators** ([`OpNode`]): the RA\* operator tree
//!   (projection, selection, product, theta/natural join, difference,
//!   union, antijoin) with conditions compiled to column indices and
//!   interned constants, equi-join keys hashed, residual conditions
//!   checked per bucket.
//!
//! [`explain`] renders any plan as a tree of scan order, join strategy,
//! and bound keys — the diagnosability hook the service's `explain` op
//! serves.

pub use crate::batch::CHUNK_ROWS;
use crate::database::{Database, Relation, Tuple};
use crate::error::{CoreError, CoreResult};
use crate::plan::{self, IndexCache, KeyBuf};
use crate::schema::TableSchema;
use crate::symbol::SymbolTable;
use crate::value::Value;
use crate::CmpOp;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

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
    /// A variable no scan binds — surfaces as an "unbound variable"
    /// error only when a full assignment forces its evaluation
    /// (matching the lazy failure contract of unsafe Datalog rules).
    Unbound(String),
    /// A wildcard in value position — lazy error, like [`Term::Unbound`].
    Wildcard,
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
        /// Index-cache slot for the probe.
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
    /// Index-cache slot ([`FULL_SCAN`] for unkeyed scans).
    pub index_id: usize,
    /// Conjuncts whose inputs are all bound once this scan binds.
    pub filters: Vec<Formula>,
}

impl Scan {
    /// `true` if this scan probes a hash index rather than iterating.
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

/// The runtime environment a plan needs: slot counts and index-cache
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvShape {
    /// Tuple slots (TRC-style whole-tuple bindings).
    pub tuple_slots: usize,
    /// Value slots (Datalog-style per-column bindings).
    pub value_slots: usize,
    /// Hash-index cache slots handed out during lowering.
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
    /// Head terms (projection; may contain lazy-error terms).
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
    /// A Datalog¬ program.
    Program(ProgramPlan),
    /// An RA\* operator tree.
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
/// per execution (and shadow same-named tables in [`tuples_of`]), so
/// stratum names are excluded.
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
// Execution: environment and context
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Execution options and the batch/tuple decision
// ---------------------------------------------------------------------

/// Knobs for [`execute_with`] and friends. The default enables the
/// vectorized batch path wherever the plan shape supports it; `batch:
/// false` forces the original tuple-at-a-time executor everywhere (the
/// differential-testing and benchmarking baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Use the batched (columnar, chunk-at-a-time) path for plan shapes
    /// that support it.
    pub batch: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { batch: true }
    }
}

/// `true` if `t` can appear on the batched path. `Unbound`/`Wildcard`
/// carry lazy, data-dependent error semantics (they fail only when a
/// full assignment forces them), which the row-at-a-time executor pins
/// exactly — plans containing them fall back wholesale.
fn term_batchable(t: &Term) -> bool {
    !matches!(t, Term::Unbound(_) | Term::Wildcard)
}

fn formula_batchable(f: &Formula) -> bool {
    match f {
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(formula_batchable),
        Formula::Not(sub) => formula_batchable(sub),
        Formula::Exists(block) => block_batchable(block),
        Formula::Pred(p) => term_batchable(&p.left) && term_batchable(&p.right),
        Formula::NegProbe { terms, .. } => terms.iter().all(term_batchable),
    }
}

fn block_batchable(block: &Block) -> bool {
    block.pre.iter().all(formula_batchable)
        && block.scans.iter().all(|s| {
            s.key_terms.iter().all(term_batchable) && s.filters.iter().all(formula_batchable)
        })
}

/// `true` if this query branch runs on the batched path: no lazy-error
/// terms anywhere. Deferred head-validation conjuncts batch too — the
/// chunked driver binds the head slot to a synthetic step of candidate
/// tuples and filters the whole batch at once.
pub(crate) fn query_batchable(q: &QueryPlan) -> bool {
    q.deferred.iter().all(formula_batchable)
        && q.defs.iter().all(term_batchable)
        && block_batchable(&q.root)
}

/// `true` if this Datalog rule runs on the batched path.
pub(crate) fn rule_batchable(r: &RulePlan) -> bool {
    r.head.iter().all(term_batchable) && block_batchable(&r.block)
}

/// `true` if [`execute`] runs `plan` entirely on the batched path —
/// every union branch / every rule batchable, or a bulk operator tree
/// (always batchable). Boolean sentences are quantifier-heavy by
/// construction and stay tuple-at-a-time. This is the decision
/// `explain` renders per operator and the engine counts per execution.
pub fn plan_batched(plan: &Plan) -> bool {
    match plan {
        Plan::Union(branches) => branches.iter().all(query_batchable),
        Plan::Sentence(_) => false,
        Plan::Program(p) => p.strata.iter().all(|s| s.rules.iter().all(rule_batchable)),
        Plan::Ops { .. } => true,
    }
}

/// The flat runtime environment: tuple slots (borrowed bindings) and
/// value slots (owned bindings).
#[derive(Debug, Clone)]
struct Env<'b> {
    tuples: Vec<Option<&'b Tuple>>,
    values: Vec<Option<Value>>,
}

impl<'b> Env<'b> {
    fn new(shape: &EnvShape) -> Self {
        Env {
            tuples: vec![None; shape.tuple_slots],
            values: vec![None; shape.value_slots],
        }
    }
}

/// Computed IDB relations (empty for languages without them).
pub(crate) type IdbMap = BTreeMap<String, BTreeSet<Tuple>>;

/// What an analyzing execution observed at one plan node: the rows it
/// produced and — for keyed probes and join builds on the batched path —
/// which build strategy the executor actually chose.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTally {
    /// Rows the node produced.
    pub(crate) rows: u64,
    /// Join/probe build strategy (`"dense-key"` or `"hash"`), recorded
    /// only by the batched executor.
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
/// batched executor's chunk-at-a-time analogue of [`ExecCtx::bump`]).
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

/// Per-execution state: the database snapshot, the computed IDBs, and
/// the lazily-built hash indexes (one cache slot per keyed scan, built
/// on first probe, reused across the execution).
struct ExecCtx<'d> {
    db: &'d Database,
    symbols: &'d SymbolTable,
    idbs: &'d IdbMap,
    indexes: IndexCache<'d>,
    key_buf: KeyBuf,
    /// Per-node row counters, present only during an analyzing
    /// execution — the normal path pays one `is_some` branch per
    /// emitted scan row and nothing else.
    tally: Option<TallyMap>,
}

impl<'d> ExecCtx<'d> {
    fn new(db: &'d Database, idbs: &'d IdbMap, n_indexes: usize) -> Self {
        ExecCtx {
            db,
            symbols: db.symbols(),
            idbs,
            indexes: IndexCache::new(n_indexes),
            key_buf: KeyBuf::default(),
            tally: None,
        }
    }

    /// Counts one row produced by `node` when analyzing.
    #[inline]
    fn bump<T>(&mut self, node: &T) {
        if let Some(t) = self.tally.as_mut() {
            t.entry(node as *const T as usize).or_default().rows += 1;
        }
    }

    /// The hash index for `(rel, cols)` in slot `id`, built on first
    /// use from the IDB map or the database.
    fn index_for(
        &mut self,
        rel: &str,
        cols: &[usize],
        id: usize,
    ) -> CoreResult<Rc<plan::Index<'d>>> {
        let (db, idbs) = (self.db, self.idbs);
        self.indexes
            .get_or_build(id, cols, || tuples_of(db, idbs, rel))
    }
}

/// The tuples of `rel`: a computed IDB if one exists, else the EDB
/// table (unknown tables error).
pub(crate) fn tuples_of<'d>(
    db: &'d Database,
    idbs: &'d IdbMap,
    rel: &str,
) -> CoreResult<Vec<&'d Tuple>> {
    if let Some(rows) = idbs.get(rel) {
        return Ok(rows.iter().collect());
    }
    Ok(db.require(rel)?.iter().collect())
}

/// Resolves a term against the environment. `Unbound`/`Wildcard` terms
/// fail here — lazily, exactly when a full assignment forces them.
fn term_value<'v>(t: &'v Term, env: &'v Env<'_>) -> CoreResult<&'v Value> {
    match t {
        Term::Const(v) => Ok(v),
        Term::Col { slot, col } => Ok(env.tuples[*slot]
            .expect("lowering attaches terms only after their slot is bound")
            .get(*col)),
        Term::Var(s) => Ok(env.values[*s]
            .as_ref()
            .expect("lowering only emits Var for bound slots")),
        Term::Unbound(v) => Err(CoreError::Invalid(format!("unbound variable '{v}'"))),
        Term::Wildcard => Err(CoreError::Invalid(
            "wildcard cannot be resolved to a value".into(),
        )),
    }
}

/// Resolves a probe-key term (lowerings never emit lazy-error terms in
/// key position).
fn key_value(t: &Term, env: &Env<'_>) -> Value {
    match t {
        Term::Const(v) => v.clone(),
        Term::Col { slot, col } => env.tuples[*slot]
            .expect("key slots bound earlier")
            .get(*col)
            .clone(),
        Term::Var(s) => env.values[*s].clone().expect("key slots bound earlier"),
        Term::Unbound(_) | Term::Wildcard => {
            unreachable!("lowerings never emit lazy terms as probe keys")
        }
    }
}

// ---------------------------------------------------------------------
// Execution: formulas and pipelines
// ---------------------------------------------------------------------

fn eval_formula<'b, 'd: 'b>(
    f: &Formula,
    env: &mut Env<'b>,
    ctx: &mut ExecCtx<'d>,
) -> CoreResult<bool> {
    match f {
        Formula::And(fs) => {
            for sub in fs {
                if !eval_formula(sub, env, ctx)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for sub in fs {
                if eval_formula(sub, env, ctx)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Not(sub) => Ok(!eval_formula(sub, env, ctx)?),
        Formula::Exists(block) => {
            for pre in &block.pre {
                if !eval_formula(pre, env, ctx)? {
                    return Ok(false);
                }
            }
            run_block(block, 0, env, ctx, &mut |_, _| Ok(true))
        }
        Formula::Pred(p) => {
            let l = term_value(&p.left, env)?;
            let r = term_value(&p.right, env)?;
            Ok(p.op.eval_resolved(l, r, ctx.symbols))
        }
        Formula::NegProbe {
            rel,
            cols,
            terms,
            index_id,
        } => {
            if cols.is_empty() {
                // `not P(_ …)`: succeeds iff P is empty — O(1).
                let empty = match ctx.idbs.get(rel) {
                    Some(rows) => rows.is_empty(),
                    None => ctx.db.require(rel)?.is_empty(),
                };
                Ok(empty)
            } else {
                let index = ctx.index_for(rel, cols, *index_id)?;
                let hit =
                    index.contains_key(ctx.key_buf.fill(terms.iter().map(|t| key_value(t, env))));
                Ok(!hit)
            }
        }
    }
}

/// The emit callback invoked on every full pipeline assignment.
/// Returning `Ok(true)` stops the enumeration (existential
/// short-circuit); the stop propagates outward.
type Emit<'e, 'b, 'd> = &'e mut dyn FnMut(&mut Env<'b>, &mut ExecCtx<'d>) -> CoreResult<bool>;

/// Runs the scans of `block` from step `i`, invoking `emit` on every
/// full assignment.
fn run_block<'b, 'd: 'b>(
    block: &Block,
    i: usize,
    env: &mut Env<'b>,
    ctx: &mut ExecCtx<'d>,
    emit: Emit<'_, 'b, 'd>,
) -> CoreResult<bool> {
    if i == block.scans.len() {
        return emit(env, ctx);
    }
    let scan = &block.scans[i];
    let stopped = if scan.key_cols.is_empty() {
        let mut stopped = false;
        let (db, idbs) = (ctx.db, ctx.idbs);
        if let Some(rows) = idbs.get(&scan.rel) {
            for t in rows {
                if scan_tuple(block, i, t, env, ctx, emit)? {
                    stopped = true;
                    break;
                }
            }
        } else {
            for t in db.require(&scan.rel)?.iter() {
                if scan_tuple(block, i, t, env, ctx, emit)? {
                    stopped = true;
                    break;
                }
            }
        }
        stopped
    } else {
        // Hash probe: resolve the key from bound slots/constants into
        // the reusable buffer and look up the matching bucket.
        let index = ctx.index_for(&scan.rel, &scan.key_cols, scan.index_id)?;
        let bucket = index.get(
            ctx.key_buf
                .fill(scan.key_terms.iter().map(|t| key_value(t, env))),
        );
        let mut stopped = false;
        if let Some(bucket) = bucket {
            for &t in bucket {
                if scan_tuple(block, i, t, env, ctx, emit)? {
                    stopped = true;
                    break;
                }
            }
        }
        stopped
    };
    if let Some(slot) = scan.tuple_slot {
        env.tuples[slot] = None;
    }
    for &(_, s) in &scan.bind_cols {
        env.values[s] = None;
    }
    Ok(stopped)
}

/// Binds one scanned tuple, verifies intra-tuple checks and filters,
/// then recurses into step `i + 1`.
fn scan_tuple<'b, 'd: 'b>(
    block: &Block,
    i: usize,
    t: &'b Tuple,
    env: &mut Env<'b>,
    ctx: &mut ExecCtx<'d>,
    emit: Emit<'_, 'b, 'd>,
) -> CoreResult<bool> {
    let scan = &block.scans[i];
    if let Some(slot) = scan.tuple_slot {
        env.tuples[slot] = Some(t);
    }
    for &(col, s) in &scan.bind_cols {
        env.values[s] = Some(t.get(col).clone());
    }
    for &(col, s) in &scan.check_cols {
        if env.values[s].as_ref() != Some(t.get(col)) {
            return Ok(false);
        }
    }
    for f in &scan.filters {
        if !eval_formula(f, env, ctx)? {
            return Ok(false);
        }
    }
    ctx.bump(scan);
    run_block(block, i + 1, env, ctx, emit)
}

// ---------------------------------------------------------------------
// Execution: top-level plans
// ---------------------------------------------------------------------

/// Executes a compiled query branch, returning its output relation
/// (batched where the shape allows, per [`ExecOptions::default`]).
pub fn run_query(q: &QueryPlan, db: &Database) -> CoreResult<Relation> {
    run_query_with(q, db, ExecOptions::default())
}

/// [`run_query`] with explicit execution options.
pub fn run_query_with(q: &QueryPlan, db: &Database, opts: ExecOptions) -> CoreResult<Relation> {
    run_query_inner(q, db, &mut None, opts)
}

/// [`run_query`] with an optional analyze tally threaded through the
/// execution context (and handed back when done).
fn run_query_inner(
    q: &QueryPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    opts: ExecOptions,
) -> CoreResult<Relation> {
    if opts.batch && query_batchable(q) {
        return crate::batch::run_query(q, db, tally);
    }
    let idbs = IdbMap::new();
    let mut out = db.fresh_relation(q.out.clone());
    let mut ctx = ExecCtx::new(db, &idbs, q.shape.indexes);
    ctx.tally = tally.take();
    let mut env = Env::new(&q.shape);
    let mut pre_ok = true;
    for pre in &q.root.pre {
        if !eval_formula(pre, &mut env, &mut ctx)? {
            pre_ok = false;
            break;
        }
    }
    if pre_ok {
        run_block(&q.root, 0, &mut env, &mut ctx, &mut |env, ctx| {
            let mut row = Vec::with_capacity(q.defs.len());
            for t in &q.defs {
                row.push(term_value(t, env)?.clone());
            }
            let tuple = Tuple(row);
            // Validate the deferred conjuncts with the head bound. The
            // narrower lifetime of `tuple` forces a (cheap, word-copy)
            // clone of the environment.
            let mut venv: Env = env.clone();
            venv.tuples[q.head_slot] = Some(&tuple);
            let mut ok = true;
            for f in &q.deferred {
                if !eval_formula(f, &mut venv, ctx)? {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.insert(tuple)?;
            }
            Ok(false)
        })?;
    }
    *tally = ctx.tally.take();
    record(tally, q, out.len());
    Ok(out)
}

/// Executes a compiled Boolean sentence.
pub fn run_sentence(s: &SentencePlan, db: &Database) -> CoreResult<bool> {
    run_sentence_inner(s, db, &mut None)
}

fn run_sentence_inner(
    s: &SentencePlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<bool> {
    let idbs = IdbMap::new();
    let mut ctx = ExecCtx::new(db, &idbs, s.shape.indexes);
    ctx.tally = tally.take();
    let mut env = Env::new(&s.shape);
    let value = eval_formula(&s.formula, &mut env, &mut ctx)?;
    *tally = ctx.tally.take();
    Ok(value)
}

/// Executes one compiled rule against the database plus the IDBs
/// computed so far.
fn run_rule(
    rule: &RulePlan,
    db: &Database,
    idbs: &IdbMap,
    tally: &mut Option<TallyMap>,
) -> CoreResult<Vec<Tuple>> {
    let mut ctx = ExecCtx::new(db, idbs, rule.shape.indexes);
    ctx.tally = tally.take();
    let mut env = Env::new(&rule.shape);
    let mut pre_ok = true;
    for pre in &rule.block.pre {
        if !eval_formula(pre, &mut env, &mut ctx)? {
            pre_ok = false;
            break;
        }
    }
    let mut out = Vec::new();
    if pre_ok {
        run_block(&rule.block, 0, &mut env, &mut ctx, &mut |env, _ctx| {
            let mut row = Vec::with_capacity(rule.head.len());
            for t in &rule.head {
                row.push(term_value(t, env)?.clone());
            }
            out.push(Tuple(row));
            Ok(false)
        })?;
    }
    *tally = ctx.tally.take();
    record(tally, rule, out.len());
    Ok(out)
}

/// Executes a compiled Datalog program: strata in order, rules of one
/// IDB unioned under set semantics (batched rules where the shape
/// allows, per [`ExecOptions::default`]).
pub fn run_program(p: &ProgramPlan, db: &Database) -> CoreResult<Relation> {
    run_program_with(p, db, ExecOptions::default())
}

/// [`run_program`] with explicit execution options.
pub fn run_program_with(p: &ProgramPlan, db: &Database, opts: ExecOptions) -> CoreResult<Relation> {
    run_program_inner(p, db, &mut None, opts)
}

fn run_program_inner(
    p: &ProgramPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    opts: ExecOptions,
) -> CoreResult<Relation> {
    run_program_collect(p, db, tally, opts, None)
}

/// [`run_program_inner`] that additionally reports each computed IDB's
/// actual size into `sizes` — the raw material of planner feedback
/// (re-plans replace the EDB-derived stratum bounds with these).
fn run_program_collect(
    p: &ProgramPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    opts: ExecOptions,
    mut sizes: Option<&mut Vec<(String, u64)>>,
) -> CoreResult<Relation> {
    let mut computed = IdbMap::new();
    // Columnar IDB materializations shared across the program's batched
    // rules (sound because a computed IDB never changes once its
    // stratum completes, and no rule reads its own stratum); stored
    // relations bring their own cached column images.
    let mut cache = crate::batch::RelCache::default();
    for stratum in &p.strata {
        let mut tuples: BTreeSet<Tuple> = BTreeSet::new();
        for rule in &stratum.rules {
            if opts.batch && rule_batchable(rule) {
                tuples.extend(crate::batch::run_rule(
                    rule, db, &computed, tally, &mut cache,
                )?);
            } else {
                tuples.extend(run_rule(rule, db, &computed, tally)?);
            }
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

/// Splits theta-join checks into hashable equalities and a residual,
/// then probes the right side per left tuple. `joiner` receives each
/// matching pair.
pub fn hash_join_pairs<'t>(
    left: &'t BTreeSet<Tuple>,
    right: &'t BTreeSet<Tuple>,
    checks: &[(usize, CmpOp, usize)],
    symbols: &SymbolTable,
    mut joiner: impl FnMut(&'t Tuple, &'t Tuple),
) {
    let eq: Vec<&(usize, CmpOp, usize)> = checks
        .iter()
        .filter(|(_, op, _)| *op == CmpOp::Eq)
        .collect();
    let residual: Vec<&(usize, CmpOp, usize)> = checks
        .iter()
        .filter(|(_, op, _)| *op != CmpOp::Eq)
        .collect();
    if eq.is_empty() {
        // No equality to key on: nested loop.
        for lt in left {
            for rt in right {
                if checks
                    .iter()
                    .all(|(li, op, ri)| op.eval_resolved(lt.get(*li), rt.get(*ri), symbols))
                {
                    joiner(lt, rt);
                }
            }
        }
        return;
    }
    let right_cols: Vec<usize> = eq.iter().map(|(_, _, ri)| *ri).collect();
    let left_cols: Vec<usize> = eq.iter().map(|(li, _, _)| *li).collect();
    let index = plan::build_index(right.iter(), &right_cols);
    let mut key: Vec<Value> = Vec::with_capacity(left_cols.len());
    for lt in left {
        key.clear();
        key.extend(left_cols.iter().map(|&c| lt.get(c).clone()));
        if let Some(bucket) = index.get(key.as_slice()) {
            for &rt in bucket {
                if residual
                    .iter()
                    .all(|(li, op, ri)| op.eval_resolved(lt.get(*li), rt.get(*ri), symbols))
                {
                    joiner(lt, rt);
                }
            }
        }
    }
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

/// Executes a compiled RA operator tree to its tuple set (batched per
/// [`ExecOptions::default`]).
pub fn run_ops(op: &OpNode, db: &Database) -> CoreResult<BTreeSet<Tuple>> {
    run_ops_with(op, db, ExecOptions::default())
}

/// [`run_ops`] with explicit execution options.
pub fn run_ops_with(op: &OpNode, db: &Database, opts: ExecOptions) -> CoreResult<BTreeSet<Tuple>> {
    if opts.batch {
        crate::batch::run_ops(op, db, &mut None)
    } else {
        run_ops_inner(op, db, &mut None)
    }
}

/// [`run_ops`] with an optional analyze tally: every node records its
/// result cardinality on the way back up.
fn run_ops_inner(
    op: &OpNode,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<BTreeSet<Tuple>> {
    let symbols = db.symbols();
    let tuples = match op {
        OpNode::Table(name) => db.require(name)?.iter().cloned().collect(),
        OpNode::Project { cols, input } => {
            let inner = run_ops_inner(input, db, tally)?;
            inner.iter().map(|t| t.project(cols)).collect()
        }
        OpNode::Select { cond, input } => {
            let inner = run_ops_inner(input, db, tally)?;
            inner
                .into_iter()
                .filter(|t| eval_cond(cond, t, symbols))
                .collect()
        }
        OpNode::Product(l, r) => {
            let lv = run_ops_inner(l, db, tally)?;
            let rv = run_ops_inner(r, db, tally)?;
            let mut tuples = BTreeSet::new();
            for lt in &lv {
                for rt in &rv {
                    tuples.insert(lt.concat(rt));
                }
            }
            tuples
        }
        OpNode::Join {
            checks,
            left,
            right,
        } => {
            let lv = run_ops_inner(left, db, tally)?;
            let rv = run_ops_inner(right, db, tally)?;
            let mut tuples = BTreeSet::new();
            hash_join_pairs(&lv, &rv, checks, symbols, |lt, rt| {
                tuples.insert(lt.concat(rt));
            });
            tuples
        }
        OpNode::NaturalJoin {
            checks,
            keep_right,
            left,
            right,
        } => {
            let lv = run_ops_inner(left, db, tally)?;
            let rv = run_ops_inner(right, db, tally)?;
            let mut tuples = BTreeSet::new();
            hash_join_pairs(&lv, &rv, checks, symbols, |lt, rt| {
                let mut row = lt.0.clone();
                row.extend(keep_right.iter().map(|&ri| rt.get(ri).clone()));
                tuples.insert(Tuple(row));
            });
            tuples
        }
        OpNode::Diff(l, r) => {
            let lv = run_ops_inner(l, db, tally)?;
            let rv = run_ops_inner(r, db, tally)?;
            lv.difference(&rv).cloned().collect()
        }
        OpNode::Union(l, r) => {
            let lv = run_ops_inner(l, db, tally)?;
            let rv = run_ops_inner(r, db, tally)?;
            lv.union(&rv).cloned().collect()
        }
        OpNode::Antijoin {
            checks,
            left,
            right,
        } => {
            let lv = run_ops_inner(left, db, tally)?;
            let rv = run_ops_inner(right, db, tally)?;
            // The antijoin is the join's complement: collect the left
            // tuples with at least one qualifying pair, keep the rest.
            let mut matched: HashSet<&Tuple> = HashSet::new();
            hash_join_pairs(&lv, &rv, checks, symbols, |lt, _| {
                matched.insert(lt);
            });
            lv.iter()
                .filter(|lt| !matched.contains(*lt))
                .cloned()
                .collect()
        }
    };
    record(tally, op, tuples.len());
    Ok(tuples)
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
/// [`Relation`] (Boolean sentences become the 0-ary encoding). Uses the
/// batched path where the plan shape supports it; see [`execute_with`]
/// to force tuple-at-a-time execution.
pub fn execute(plan: &Plan, db: &Database) -> CoreResult<Relation> {
    execute_with(plan, db, ExecOptions::default())
}

/// [`execute`] with explicit execution options.
pub fn execute_with(plan: &Plan, db: &Database, opts: ExecOptions) -> CoreResult<Relation> {
    execute_inner(plan, db, &mut None, opts)
}

/// What one execution observed, for the planner's feedback loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecFeedback {
    /// Rows in the final result.
    pub out_rows: u64,
    /// Actual size of each computed Datalog IDB, in stratum order
    /// (empty for non-program plans). Re-plans feed these back as
    /// [`plan::PlanHints`], replacing the EDB-derived bounds.
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

/// [`execute_with`], additionally harvesting the actual row counts the
/// planner's feedback loop consumes. Costs nothing beyond normal
/// execution: program IDB sizes are observed as each stratum completes,
/// and the output count reads the result relation's length.
pub fn execute_feedback(
    plan: &Plan,
    db: &Database,
    opts: ExecOptions,
) -> CoreResult<(Relation, ExecFeedback)> {
    let mut idb_rows = Vec::new();
    let relation = match plan {
        Plan::Program(p) => run_program_collect(p, db, &mut None, opts, Some(&mut idb_rows))?,
        other => execute_inner(other, db, &mut None, opts)?,
    };
    let feedback = ExecFeedback {
        out_rows: relation.len() as u64,
        idb_rows,
    };
    Ok((relation, feedback))
}

fn execute_inner(
    plan: &Plan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    opts: ExecOptions,
) -> CoreResult<Relation> {
    match plan {
        Plan::Union(branches) => {
            let mut iter = branches.iter();
            let first = iter
                .next()
                .ok_or_else(|| CoreError::Invalid("empty union".into()))?;
            let mut result = run_query_inner(first, db, tally, opts)?;
            for branch in iter {
                let r = run_query_inner(branch, db, tally, opts)?;
                result.extend(r.iter().cloned().collect())?;
            }
            Ok(result)
        }
        Plan::Sentence(s) => Ok(boolean_relation(run_sentence_inner(s, db, tally)?)),
        Plan::Program(p) => run_program_inner(p, db, tally, opts),
        Plan::Ops { root, out } => {
            let tuples = if opts.batch {
                crate::batch::run_ops(root, db, tally)?
            } else {
                run_ops_inner(root, db, tally)?
            };
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
    explain_analyze_with(plan, db, ExecOptions::default())
}

/// [`explain_analyze`] with explicit execution options.
pub fn explain_analyze_with(
    plan: &Plan,
    db: &Database,
    opts: ExecOptions,
) -> CoreResult<(Relation, ExplainNode)> {
    let mut tally = Some(TallyMap::new());
    let relation = execute_inner(plan, db, &mut tally, opts)?;
    let tally = tally.unwrap_or_default();
    let annot = Annot {
        db: Some(db),
        tally: Some(&tally),
    };
    let mut node = explain_with_opts(plan, &annot, opts);
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
    /// Execution mode this subtree runs under: `"batched"` for the
    /// chunked columnar path, `"tuple"` for the row-at-a-time fallback.
    /// Set on executable roots (query branches, rules, sentences, ops
    /// roots); `None` on purely structural nodes and in legacy frames.
    pub mode: Option<String>,
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
            mode: None,
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

    fn mode(mut self, batched: bool) -> ExplainNode {
        self.mode = Some(if batched { "batched" } else { "tuple" }.to_string());
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
        Term::Unbound(v) => format!("?{v}"),
        Term::Wildcard => "_".into(),
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

fn explain_query(q: &QueryPlan, annot: &Annot<'_>, opts: ExecOptions) -> ExplainNode {
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
    .mode(opts.batch && query_batchable(q))
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
/// [`explain_analyze`]). Executable roots carry the execution `mode`
/// the default options would pick (`batched` / `tuple`).
pub fn explain(plan: &Plan) -> ExplainNode {
    explain_with_opts(plan, &Annot::NONE, ExecOptions::default())
}

fn explain_with_opts(plan: &Plan, annot: &Annot<'_>, opts: ExecOptions) -> ExplainNode {
    match plan {
        Plan::Union(branches) => {
            if let [q] = branches.as_slice() {
                explain_query(q, annot, opts)
            } else {
                let est = branches
                    .iter()
                    .map(|q| q.est_rows.or_else(|| annot.est_block(&q.root)))
                    .try_fold(0u64, |acc, e| e.map(|e| acc.saturating_add(e)));
                ExplainNode::new("union", format!("{} branches", branches.len()))
                    .with(
                        branches
                            .iter()
                            .map(|q| explain_query(q, annot, opts))
                            .collect(),
                    )
                    .rows(est, None)
            }
        }
        Plan::Sentence(s) => ExplainNode::new("sentence", "boolean")
            .with(vec![explain_formula(&s.formula, annot)])
            .mode(false),
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
                                    .mode(opts.batch && rule_batchable(rule))
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
                .mode(opts.batch)
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
        let out = run_rule(&rule, &db, &idbs, &mut None).unwrap();
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
