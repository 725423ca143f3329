//! The unified logical/physical plan IR and its single executor.
//!
//! The paper's Theorem 6 shows TRC\*, RA\*, Datalog\*, and SQL\* express
//! the same query patterns; this module is that claim turned into
//! runtime architecture. Every language front-end compiles through the
//! TRC hub into one [`Plan`] — scans with interned bound-key probes,
//! selectivity-ordered hash joins, negation/quantifier attachment,
//! projection with set-semantics dedup, and union — and one executor
//! (the chunked, columnar `batch` module) runs it. The engine caches
//! compiled [`Plan`]s (they are `Send + Sync` and carry no borrows), so
//! a hot serving path compiles a query shape once per database epoch
//! and executes it many times.
//!
//! There is one execution style, the **pipeline** ([`Block`]): an
//! ordered list of [`Scan`] steps, each binding a whole tuple slot,
//! probing a lazily-built join table when key columns are bound, with
//! filters (predicates, negated and quantified blocks) attached to the
//! earliest step after which their inputs are bound. A query lowers to
//! one pipeline per union branch. A Datalog program whose IDBs are
//! shared (several rules, or several uses) becomes a [`ProgramPlan`]:
//! each shared IDB is a *view*, a union of such branches materialized
//! once per execution and then scanned like any table.
//!
//! [`explain`] renders any plan as a tree of scan order, join strategy,
//! and bound keys — the diagnosability hook the service's `explain` op
//! serves.

pub use crate::batch::CHUNK_ROWS;
use crate::database::{Database, Relation, Tuple};
use crate::error::{CoreError, CoreResult};
use crate::schema::TableSchema;
use crate::value::Value;
use crate::CmpOp;
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// IR: terms, formulas, scans, blocks
// ---------------------------------------------------------------------

/// A compiled term: where a value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// An interned constant.
    Const(Value),
    /// A column of a bound tuple slot.
    Col {
        /// The tuple slot.
        slot: usize,
        /// The column within the bound tuple.
        col: usize,
    },
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
}

/// Index id marking a full (unkeyed) scan.
pub const FULL_SCAN: usize = usize::MAX;

/// One scheduled scan of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Relation scanned (a stored table, or a view of a program).
    pub rel: String,
    /// Tuple slot bound to each scanned tuple.
    pub tuple_slot: usize,
    /// Columns constrained by equality to bound terms; empty for a full
    /// scan.
    pub key_cols: Vec<usize>,
    /// The bound terms the key columns must equal (parallel to
    /// `key_cols`).
    pub key_terms: Vec<Term>,
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
    /// Tuple slots (whole-tuple bindings).
    pub tuple_slots: usize,
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

/// One view of a compiled Datalog program: the union of one TRC
/// branch per rule of a shared IDB (or of the query predicate).
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    /// The IDB predicate this stratum computes; later strata scan it
    /// under this name.
    pub pred: String,
    /// One branch per rule (results union under set semantics), each
    /// with output schema `pred(x1, …, xn)`, or the program's answer
    /// schema for the query stratum.
    pub branches: Vec<QueryPlan>,
    /// The planner's estimate of this IDB's size — the sum of its
    /// branch estimates on first compile, an observed actual on
    /// re-plans.
    pub est_rows: Option<u64>,
}

/// A compiled non-recursive Datalog¬ program with shared IDBs: views in
/// dependency order, the query predicate's stratum last. Each finished
/// view is scanned by later strata like a stored table (shadowing a
/// same-named one).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPlan {
    /// Strata in evaluation order; the last computes the answer.
    pub strata: Vec<Stratum>,
}

/// A compiled, executable query plan — the unit the engine's plan cache
/// stores. Contains only owned data (strings, interned values, column
/// indices), so it is `Send + Sync` and valid for the lifetime of the
/// database epoch it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A union of non-Boolean query branches (one branch for a plain
    /// query).
    Union(Vec<QueryPlan>),
    /// A Boolean sentence (evaluates to the 0-ary relation encoding).
    Sentence(SentencePlan),
    /// A program with views: RA and Datalog inputs whose intermediate
    /// results are shared (an IDB with several rules or several uses).
    Program(ProgramPlan),
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
/// All reads go through [`Scan::rel`]; the views of a program are
/// computed per execution (and shadow same-named tables), so stratum
/// names are excluded.
pub fn scan_set(plan: &Plan) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    let mut add_branches = |branches: &[QueryPlan]| {
        for q in branches {
            scans_in_block(&q.root, &mut set);
            for f in &q.deferred {
                scans_in_formula(f, &mut set);
            }
        }
    };
    match plan {
        Plan::Union(branches) => add_branches(branches),
        Plan::Sentence(s) => scans_in_formula(&s.formula, &mut set),
        Plan::Program(p) => {
            for stratum in &p.strata {
                add_branches(&stratum.branches);
            }
            for stratum in &p.strata {
                set.remove(&stratum.pred);
            }
        }
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
    }
}

// ---------------------------------------------------------------------
// Execution: analyze tallies
// ---------------------------------------------------------------------

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
/// Keys are node *addresses* (`&Scan`, `&QueryPlan`, `&Stratum` cast
/// to `usize`): every keyed
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

/// Executes a compiled program: each view is materialized once, in
/// stratum order, into a copy of `db` (relations are `Arc`-shared, so
/// the copy costs one pointer per table), where later strata scan it
/// like any table; the last stratum's union is the answer.
pub fn run_program(p: &ProgramPlan, db: &Database) -> CoreResult<Relation> {
    run_program_collect(p, db, &mut None, None)
}

/// [`run_program`] with an optional analyze tally, additionally
/// reporting each stratum's actual size into `sizes` — the raw material
/// of planner feedback (re-plans replace the derived stratum estimates
/// with these).
fn run_program_collect(
    p: &ProgramPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
    mut sizes: Option<&mut Vec<(String, u64)>>,
) -> CoreResult<Relation> {
    let (answer, views) = p
        .strata
        .split_last()
        .ok_or_else(|| CoreError::Invalid("program without strata".into()))?;
    let mut scope = db.clone();
    let mut run = |stratum: &Stratum, scope: &Database| -> CoreResult<Relation> {
        let rel = run_union(&stratum.branches, scope, tally)?;
        record(tally, stratum, rel.len());
        if let Some(sizes) = sizes.as_deref_mut() {
            sizes.push((stratum.pred.clone(), rel.len() as u64));
        }
        Ok(rel)
    };
    for stratum in views {
        let view = run(stratum, &scope)?;
        scope.put_view(view);
    }
    run(answer, &scope)
}

/// Executes query branches and unions their answers.
fn run_union(
    branches: &[QueryPlan],
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<Relation> {
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
    /// Actual size of each stratum of a program, in stratum order
    /// (empty for other plans). Re-plans feed these back as
    /// [`PlanHints`](crate::plan::PlanHints), replacing the EDB-derived bounds.
    pub idb_rows: Vec<(String, u64)>,
}

/// The planner's recorded estimate for the plan's final output, if the
/// plan was compiled under the cost-based strategy: per-branch sums for
/// unions, the last stratum's estimate for programs.
pub fn plan_est(plan: &Plan) -> Option<u64> {
    match plan {
        Plan::Union(branches) => union_est(branches),
        Plan::Program(p) => p.strata.last().and_then(|s| s.est_rows),
        Plan::Sentence(_) => None,
    }
}

/// The sum of the branches' recorded estimates (`None` if any is
/// missing).
pub fn union_est(branches: &[QueryPlan]) -> Option<u64> {
    branches
        .iter()
        .map(|q| q.est_rows)
        .try_fold(0u64, |acc, e| e.map(|e| acc.saturating_add(e)))
}

/// [`execute`], additionally harvesting the actual row counts the
/// planner's feedback loop consumes. Costs nothing beyond normal
/// execution: program view sizes are observed as each stratum completes,
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
        Plan::Union(branches) => run_union(branches, db, tally),
        Plan::Sentence(s) => Ok(boolean_relation(crate::batch::run_sentence(s, db, tally)?)),
        Plan::Program(p) => run_program_collect(p, db, tally, None),
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
}

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Const(v) => v.to_string(),
        Term::Col { slot, col } => format!("t{slot}.c{col}"),
    }
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
        Plan::Program(p) => {
            let query = p.strata.last().map_or("", |s| s.pred.as_str());
            ExplainNode::new("program", format!("query {query}")).with(
                p.strata
                    .iter()
                    .map(|stratum| {
                        ExplainNode::new("stratum", stratum.pred.clone())
                            .with(
                                stratum
                                    .branches
                                    .iter()
                                    .map(|q| explain_query(q, annot))
                                    .collect(),
                            )
                            .rows(stratum.est_rows, annot.actual(stratum))
                    })
                    .collect(),
            )
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

    fn scan(rel: &str, tuple_slot: usize) -> Scan {
        Scan {
            rel: rel.into(),
            tuple_slot,
            key_cols: Vec::new(),
            key_terms: Vec::new(),
            index_id: FULL_SCAN,
            filters: Vec::new(),
        }
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
                    scan("R", 1),
                    Scan {
                        key_cols: vec![0],
                        key_terms: vec![Term::Col { slot: 1, col: 1 }],
                        index_id: 0,
                        ..scan("S", 2)
                    },
                ],
            },
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: EnvShape {
                tuple_slots: 3,
                indexes: 1,
            },
            est_rows: None,
        }
    }

    /// `name(x1) ← rel(x1, …)`: the first column of every `rel` tuple.
    fn first_col(name: &str, rel: &str) -> QueryPlan {
        QueryPlan {
            out: TableSchema::new(name, ["x1"]),
            head_slot: 0,
            root: Block {
                pre: Vec::new(),
                scans: vec![scan(rel, 1)],
            },
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: EnvShape {
                tuple_slots: 2,
                indexes: 0,
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
    fn sentence_short_circuits() {
        let db = rs_db();
        let s = SentencePlan {
            formula: Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![Scan {
                    filters: vec![Formula::Pred(Pred {
                        left: Term::Col { slot: 0, col: 0 },
                        op: CmpOp::Eq,
                        right: Term::Const(Value::int(3)),
                    })],
                    ..scan("R", 0)
                }],
            }),
            shape: EnvShape {
                tuple_slots: 1,
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
    fn empty_union_errors() {
        let db = rs_db();
        assert!(execute(&Plan::Union(Vec::new()), &db).is_err());
    }

    #[test]
    fn scan_set_walks_every_read_site() {
        // Pipeline branch: scans plus an Exists block inside a deferred
        // conjunct.
        let mut q = join_plan();
        q.deferred
            .push(Formula::Not(Box::new(Formula::Exists(Block {
                pre: Vec::new(),
                scans: vec![scan("D", 2)],
            }))));
        let set = scan_set(&Plan::Union(vec![q]));
        let names: Vec<&str> = set.iter().map(String::as_str).collect();
        assert_eq!(names, ["D", "R", "S"]);
    }

    /// `P(x) ← R(x, _)` as a view, then `Q(x) ← P(x)`, with a stored
    /// table also named `P` that the view shadows.
    fn view_program() -> (Database, Plan) {
        let mut db = rs_db();
        db.add_relation(Relation::from_rows(TableSchema::new("P", ["C"]), [[99i64]]).unwrap());
        let plan = Plan::Program(ProgramPlan {
            strata: vec![
                Stratum {
                    pred: "P".into(),
                    branches: vec![first_col("P", "R"), first_col("P", "S")],
                    est_rows: Some(5),
                },
                Stratum {
                    pred: "Q".into(),
                    branches: vec![first_col("Q", "P")],
                    est_rows: Some(5),
                },
            ],
        });
        (db, plan)
    }

    #[test]
    fn scan_set_excludes_computed_idbs() {
        // The program reads R and S from storage; P is computed per
        // execution, so the stored P is not a dependency.
        let (_, plan) = view_program();
        let names: Vec<String> = scan_set(&plan).into_iter().collect();
        assert_eq!(names, ["R", "S"]);
    }

    #[test]
    fn program_views_shadow_tables_and_feed_back_their_sizes() {
        let (db, plan) = view_program();
        let (out, feedback) = execute_feedback(&plan, &db).unwrap();
        // P = {1, 2, 3} ∪ {10, 20}; the stored P(99) is shadowed.
        let vals: Vec<i64> = out
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(vals, [1, 2, 3, 10, 20]);
        assert_eq!(out.schema().name(), "Q");
        assert_eq!(
            feedback.idb_rows,
            [("P".to_string(), 5), ("Q".to_string(), 5)]
        );
        assert_eq!(
            db.relation("P").unwrap().len(),
            1,
            "the database is untouched"
        );
        assert_eq!(plan_est(&plan), Some(5));
        let (_, node) = explain_analyze(&plan, &db).unwrap();
        assert_eq!(
            (node.kind.as_str(), node.detail.as_str()),
            ("program", "query Q")
        );
        let strata: Vec<(&str, Option<u64>, usize)> = node
            .children
            .iter()
            .map(|n| (n.detail.as_str(), n.actual_rows, n.children.len()))
            .collect();
        assert_eq!(strata, [("P", Some(5), 2), ("Q", Some(5), 1)]);
        assert!(node.children[0].children.iter().all(|n| n.kind == "query"));
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

    impl ExplainNode {
        fn rows_pair(&self) -> (Option<u64>, Option<u64>) {
            (self.est_rows, self.actual_rows)
        }
    }
}
