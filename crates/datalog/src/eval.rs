//! Datalog evaluation as a *lowering* onto the shared plan IR
//! ([`rd_core::exec`]).
//!
//! A program lowers once into a [`ProgramPlan`]: IDBs become strata in
//! topological order, and each rule compiles to a pipeline — variables
//! get *slots* (the runtime environment is a flat slot vector, not a
//! string-keyed map), constants are interned against the database,
//! positive atoms are greedily reordered by estimated scan cost
//! ([`rd_core::plan::scan_cost`] — bound equality keys first, then
//! relation size), and every atom whose columns are constrained by
//! constants or already-bound variables probes a lazily-built hash
//! index instead of scanning. Built-ins and negated atoms apply as soon
//! as their variables are bound (guaranteed by safety); negated atoms
//! become [`NegProbe`](rd_core::exec::Formula::NegProbe) nodes over
//! their non-wildcard columns. Multiple rules for the same IDB union
//! their results (this is how Datalog expresses disjunction, §2.1).
//!
//! The shared executor ([`rd_core::exec::run_program`]) runs the plan;
//! the compiled form carries no borrows, so the engine caches it per
//! database epoch.

use crate::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use crate::check::topo_order;
use rd_core::exec::{self, Block, EnvShape, ProgramPlan, RulePlan, Scan, Stratum};
use rd_core::plan::{OrderStrategy, PlanHints, PlannerOpts, ScanCand};
use rd_core::{plan, CmpOp, CoreError, CoreResult, Database, Relation};
use std::collections::{BTreeSet, HashMap};

/// Evaluates the program's query predicate over `db`, returning a relation
/// whose attribute names are positional (`x1`, `x2`, …).
pub fn eval_program(p: &DlProgram, db: &Database) -> CoreResult<Relation> {
    exec::run_program(&lower_program(p, db)?, db)
}

/// Lowers a program to a compiled plan under the default planner
/// configuration: interned constants, strata in topological order, one
/// pipeline per rule.
pub fn lower_program(p: &DlProgram, db: &Database) -> CoreResult<ProgramPlan> {
    lower_program_with(p, db, &PlannerOpts::default(), &PlanHints::default())
}

/// [`lower_program`] with explicit planner configuration and
/// execution-feedback hints.
///
/// IDB sizes are unknown at compile time (they exist only during
/// execution), so each stratum's cardinality is *estimated from its
/// rule bodies* as it is lowered — EDB statistics propagate bottom-up
/// through the topological order, so later strata plan against derived
/// bounds instead of a flat "total rows in the database" guess. When
/// `hints` carry a predicate's actual size from a prior execution, the
/// actual outranks the derived bound. The legacy greedy strategy keeps
/// its historical "IDBs could be as large as the database" assumption —
/// it is the differential baseline.
pub fn lower_program_with(
    p: &DlProgram,
    db: &Database,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<ProgramPlan> {
    let p = intern_program(p, db);
    let mut stats = plan::DbStats::of(db);
    let order = topo_order(&p);
    if opts.strategy == OrderStrategy::Greedy {
        let total = db.total_tuples();
        for idb in &order {
            if db.relation(idb).is_none() {
                stats.set_override(idb, total as u64);
            }
        }
    }
    stats.apply_hints(hints);
    let mut strata = Vec::new();
    for idb in order {
        let mut rules = Vec::new();
        let mut est_sum: Option<f64> = None;
        for rule in p.rules.iter().filter(|r| r.head.pred == idb) {
            let (compiled, est) = compile_rule(rule, &stats, opts)?;
            rules.push(compiled);
            if let Some(e) = est {
                est_sum = Some(est_sum.unwrap_or(0.0) + e);
            }
        }
        // A feedback actual outranks the derived bound — both for later
        // strata (already applied to `stats`) and as this stratum's
        // recorded estimate.
        let est_rows = match hints.rel_rows.get(&idb) {
            Some(&actual) => Some(actual),
            None => {
                let est = est_sum.map(|e| e.round().clamp(0.0, u64::MAX as f64) as u64);
                if let Some(est) = est {
                    // Propagate: later strata plan against this bound.
                    stats.set_override(&idb, est);
                }
                est
            }
        };
        strata.push(Stratum {
            pred: idb,
            rules,
            est_rows,
        });
    }
    Ok(ProgramPlan {
        strata,
        query: p.query.clone(),
        out: p.output_schema(),
    })
}

/// Returns `p` with every string constant mapped to its symbol (where
/// one exists — unknown literals stay `Str` and simply never match), so
/// the executor's per-tuple loops only ever compare ids.
fn intern_program(p: &DlProgram, db: &Database) -> DlProgram {
    let mut p = p.clone();
    let fix = |t: &mut DlTerm| {
        if let DlTerm::Const(v) = t {
            *v = db.lookup_value(v);
        }
    };
    for rule in &mut p.rules {
        rule.head.terms.iter_mut().for_each(fix);
        for lit in &mut rule.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => a.terms.iter_mut().for_each(fix),
                Literal::Cmp(b) => {
                    fix(&mut b.left);
                    fix(&mut b.right);
                }
            }
        }
    }
    p
}

// ---------------------------------------------------------------------
// Rule lowering
// ---------------------------------------------------------------------

/// Reduces a rule's positive atoms to the numeric [`ScanCand`]s the
/// cost-based orderer consumes: constants and built-in comparisons
/// shrink each atom's row estimate, repeated variables inside one atom
/// self-filter, and variables shared across atoms form join classes.
fn scan_cands(rule: &Rule, positives: &[&Atom], stats: &plan::DbStats) -> Vec<ScanCand> {
    // Class per variable name; a variable's distinct estimate comes
    // from each column it binds.
    let mut class_of: HashMap<&str, usize> = HashMap::new();
    let mut uses: Vec<usize> = Vec::new(); // class → number of atoms using it
    let mut cands = Vec::with_capacity(positives.len());
    for atom in positives {
        let mut rows = stats.size(&atom.pred) as f64;
        let mut join_cols: Vec<(usize, f64)> = Vec::new();
        let mut first_col: HashMap<&str, usize> = HashMap::new();
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                DlTerm::Wildcard => {}
                DlTerm::Const(c) => {
                    rows *= stats.cmp_selectivity(&atom.pred, i, CmpOp::Eq, c);
                }
                DlTerm::Var(v) => match first_col.get(v.as_str()) {
                    Some(&c0) => {
                        // Repeated in this atom: self-join filter.
                        let v1 = stats.distinct(&atom.pred, c0);
                        let v2 = stats.distinct(&atom.pred, i);
                        rows /= v1.max(v2).max(1.0);
                    }
                    None => {
                        first_col.insert(v, i);
                        let next = class_of.len();
                        let class = *class_of.entry(v).or_insert(next);
                        if class == uses.len() {
                            uses.push(0);
                        }
                        uses[class] += 1;
                        join_cols.push((class, stats.distinct(&atom.pred, i)));
                    }
                },
            }
        }
        cands.push(ScanCand { rows, join_cols });
    }
    // Built-ins against a constant filter the atoms binding their
    // variable; apply to the first binder.
    for lit in &rule.body {
        if let Literal::Cmp(b) = lit {
            let (var, op, c) = match (&b.left, &b.right) {
                (DlTerm::Var(v), DlTerm::Const(c)) => (v, b.op, c),
                (DlTerm::Const(c), DlTerm::Var(v)) => (v, b.op.flipped(), c),
                _ => continue,
            };
            for (cand, atom) in cands.iter_mut().zip(positives) {
                if let Some(col) = atom
                    .terms
                    .iter()
                    .position(|t| matches!(t, DlTerm::Var(v2) if v2 == var))
                {
                    cand.rows *= stats.cmp_selectivity(&atom.pred, col, op, c);
                    break;
                }
            }
        }
    }
    // Variables used by a single atom don't join anything.
    for cand in &mut cands {
        cand.join_cols.retain(|&(class, _)| uses[class] >= 2);
    }
    cands
}

/// The error for a variable no positive atom binds, in value position.
fn unbound_variable(v: &str) -> CoreError {
    CoreError::Invalid(format!("unbound variable '{v}'"))
}

/// The error for a wildcard in value position (a head or a built-in).
fn wildcard_value() -> CoreError {
    CoreError::Invalid("wildcard cannot be resolved to a value".into())
}

fn compile_rule(
    rule: &Rule,
    stats: &plan::DbStats,
    opts: &PlannerOpts,
) -> CoreResult<(RulePlan, Option<f64>)> {
    let mut n_slots = 0usize;
    let mut slots_by_name: HashMap<String, usize> = HashMap::new();
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut n_indexes = 0usize;

    let positives: Vec<&Atom> = rule.positive().collect();
    let mut remaining: Vec<usize> = (0..positives.len()).collect();
    let mut scans: Vec<Scan> = Vec::new();

    // Pending filters: built-ins and negations, in body order.
    struct Pending<'r> {
        lit: &'r Literal,
        vars: BTreeSet<String>,
    }
    let mut pending: Vec<Option<Pending>> = rule
        .body
        .iter()
        .filter(|l| !matches!(l, Literal::Pos(_)))
        .map(|lit| {
            let vars: BTreeSet<String> = match lit {
                Literal::Neg(a) => a.vars().map(str::to_string).collect(),
                Literal::Cmp(b) => b.vars().map(str::to_string).collect(),
                Literal::Pos(_) => unreachable!("filtered above"),
            };
            Some(Pending { lit, vars })
        })
        .collect();

    let mut get_slot = |name: &str, slots_by_name: &mut HashMap<String, usize>| -> usize {
        if let Some(&s) = slots_by_name.get(name) {
            return s;
        }
        let s = n_slots;
        n_slots += 1;
        slots_by_name.insert(name.to_string(), s);
        s
    };

    // Compiles a negated atom / built-in against the current bound set.
    // Returns None for negations that can never match (some variable
    // unbound: no tuple equals an unbound variable, so the negation is
    // vacuously true — the pre-planner evaluator behaved the same way).
    // A built-in over a variable no positive atom binds (an unsafe rule
    // that bypassed `check_program`) has no value to compare: an error.
    let compile_test = |lit: &Literal,
                        bound: &BTreeSet<String>,
                        slots_by_name: &HashMap<String, usize>,
                        n_indexes: &mut usize|
     -> CoreResult<Option<exec::Formula>> {
        match lit {
            Literal::Cmp(b) => {
                let term = |t: &DlTerm| match t {
                    DlTerm::Const(c) => Ok(exec::Term::Const(c.clone())),
                    DlTerm::Wildcard => Err(wildcard_value()),
                    DlTerm::Var(v) => match slots_by_name.get(v.as_str()) {
                        Some(&s) if bound.contains(v) => Ok(exec::Term::Var(s)),
                        _ => Err(unbound_variable(v)),
                    },
                };
                Ok(Some(exec::Formula::Pred(exec::Pred {
                    left: term(&b.left)?,
                    op: b.op,
                    right: term(&b.right)?,
                })))
            }
            Literal::Neg(a) => {
                let mut cols = Vec::new();
                let mut terms = Vec::new();
                for (i, t) in a.terms.iter().enumerate() {
                    match t {
                        DlTerm::Wildcard => {}
                        DlTerm::Const(c) => {
                            cols.push(i);
                            terms.push(exec::Term::Const(c.clone()));
                        }
                        DlTerm::Var(v) => {
                            if !bound.contains(v) {
                                return Ok(None); // vacuously true
                            }
                            terms.push(exec::Term::Var(slots_by_name[v.as_str()]));
                            cols.push(i);
                        }
                    }
                }
                let index_id = if cols.is_empty() {
                    exec::FULL_SCAN
                } else {
                    *n_indexes += 1;
                    *n_indexes - 1
                };
                Ok(Some(exec::Formula::NegProbe {
                    rel: a.pred.clone(),
                    cols,
                    terms,
                    index_id,
                }))
            }
            Literal::Pos(_) => unreachable!("positives are scans"),
        }
    };

    // Filters whose variables are bound with *no* scans at all.
    let mut pre = Vec::new();
    for entry in pending.iter_mut() {
        if entry.as_ref().is_some_and(|p| p.vars.is_empty()) {
            let p = entry.take().expect("checked above");
            if let Some(t) = compile_test(p.lit, &bound, &slots_by_name, &mut n_indexes)? {
                pre.push(t);
            }
        }
    }

    // Under the cost-based strategy the atom order is decided up front
    // by the dynamic program; the legacy greedy re-ranks at every step.
    let (forced, rule_est): (Vec<usize>, Option<f64>) = match opts.strategy {
        OrderStrategy::CostDp => {
            let cands = scan_cands(rule, &positives, stats);
            let (order, est) = plan::order_scans(&cands, opts);
            (order, Some(est))
        }
        OrderStrategy::Greedy => (Vec::new(), None),
    };
    let mut forced = forced.into_iter();
    while !remaining.is_empty() {
        let ai = match opts.strategy {
            OrderStrategy::CostDp => {
                let next = forced.next().expect("order covers every atom");
                remaining.retain(|&x| x != next);
                next
            }
            OrderStrategy::Greedy => {
                // Greedy: cheapest atom next (bound key columns, then
                // size).
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                for (k, &ai) in remaining.iter().enumerate() {
                    let atom = positives[ai];
                    let keys = atom
                        .terms
                        .iter()
                        .filter(|t| match t {
                            DlTerm::Const(_) => true,
                            DlTerm::Var(v) => bound.contains(v),
                            DlTerm::Wildcard => false,
                        })
                        .count();
                    let cost = plan::scan_cost(stats.size(&atom.pred), keys);
                    if cost < best_cost {
                        best_cost = cost;
                        best = k;
                    }
                }
                remaining.remove(best)
            }
        };
        let atom = positives[ai];
        let mut key_cols = Vec::new();
        let mut key_terms = Vec::new();
        let mut bind_cols = Vec::new();
        let mut check_cols = Vec::new();
        let mut seen_here: HashMap<&str, usize> = HashMap::new();
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                DlTerm::Wildcard => {}
                DlTerm::Const(c) => {
                    key_cols.push(i);
                    key_terms.push(exec::Term::Const(c.clone()));
                }
                DlTerm::Var(v) => {
                    if bound.contains(v) {
                        key_cols.push(i);
                        key_terms.push(exec::Term::Var(slots_by_name[v.as_str()]));
                    } else if let Some(&s) = seen_here.get(v.as_str()) {
                        // Repeated inside this atom: first occurrence
                        // binds, later ones verify.
                        check_cols.push((i, s));
                    } else {
                        let s = get_slot(v, &mut slots_by_name);
                        seen_here.insert(v, s);
                        bind_cols.push((i, s));
                    }
                }
            }
        }
        for v in atom.vars() {
            bound.insert(v.to_string());
        }
        let index_id = if key_cols.is_empty() {
            exec::FULL_SCAN
        } else {
            n_indexes += 1;
            n_indexes - 1
        };
        let mut filters = Vec::new();
        for entry in pending.iter_mut() {
            if entry
                .as_ref()
                .is_some_and(|p| p.vars.iter().all(|v| bound.contains(v)))
            {
                let p = entry.take().expect("checked above");
                if let Some(t) = compile_test(p.lit, &bound, &slots_by_name, &mut n_indexes)? {
                    filters.push(t);
                }
            }
        }
        scans.push(Scan {
            rel: atom.pred.clone(),
            tuple_slot: None,
            key_cols,
            key_terms,
            bind_cols,
            check_cols,
            index_id,
            filters,
        });
    }

    // Filters with variables no positive atom binds: a negation is
    // vacuously true, a built-in is an unbound-variable error.
    for p in pending.into_iter().flatten() {
        let test = compile_test(p.lit, &bound, &slots_by_name, &mut n_indexes)?;
        debug_assert!(
            test.is_none(),
            "tests with every variable bound are placed above"
        );
    }

    let head = rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            DlTerm::Const(c) => Ok(exec::Term::Const(c.clone())),
            DlTerm::Wildcard => Err(wildcard_value()),
            DlTerm::Var(v) => match slots_by_name.get(v.as_str()) {
                Some(&s) => Ok(exec::Term::Var(s)),
                None => Err(unbound_variable(v)),
            },
        })
        .collect::<CoreResult<Vec<_>>>()?;

    Ok((
        RulePlan {
            head,
            block: Block { pre, scans },
            shape: EnvShape {
                tuple_slots: 0,
                value_slots: n_slots,
                indexes: n_indexes,
            },
        },
        rule_est,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use rd_core::{Catalog, TableSchema, Tuple, Value};

    fn db() -> Database {
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

    fn catalog() -> Catalog {
        db().catalog()
    }

    fn ints(r: &Relation) -> Vec<i64> {
        r.iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn single_rule_join() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn negation_not_in() {
        let p = parse_program("Q(x, y) :- R(x, y), not S(y).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap(), &Tuple::new([3i64, 30]));
    }

    #[test]
    fn division_two_rules() {
        let p = parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn builtins_filter() {
        let p = parse_program("Q(x) :- R(x, y), y > 15.", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 3]);
    }

    #[test]
    fn constants_in_atoms() {
        let p = parse_program("Q(x) :- R(x, 10).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2]);
    }

    #[test]
    fn union_via_multiple_rules() {
        // Values in R.A with B=10, union values with B=30.
        let p = parse_program("Q(x) :- R(x, 10).\nQ(x) :- R(x, 30).", &catalog()).unwrap();
        let out = eval_program(&p, &db()).unwrap();
        assert_eq!(ints(&out), vec![1, 2, 3]);
    }

    #[test]
    fn repeated_variable_joins_within_atom() {
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let p = parse_program("Q(x) :- R(x, x).", &catalog()).unwrap();
        let out = eval_program(&p, &d).unwrap();
        assert_eq!(ints(&out), vec![7]);
    }

    #[test]
    fn empty_result_when_edb_empty() {
        let p = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let empty = Database::empty_for(&catalog());
        let out = eval_program(&p, &empty).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn three_level_idb_chain() {
        let p = parse_program(
            "I1(x) :- R(x, _).\nI2(x) :- I1(x), not S(x).\nQ(x) :- I2(x).",
            &catalog(),
        )
        .unwrap();
        let out = eval_program(&p, &db()).unwrap();
        // A values 1,2,3; none of them appear in S (10, 20).
        assert_eq!(ints(&out), vec![1, 2, 3]);
    }

    #[test]
    fn atom_order_does_not_change_results() {
        // The planner reorders positive atoms; both phrasings agree.
        let a = parse_program("Q(x) :- R(x, y), S(y).", &catalog()).unwrap();
        let b = parse_program("Q(x) :- S(y), R(x, y).", &catalog()).unwrap();
        let ra = eval_program(&a, &db()).unwrap();
        let rb = eval_program(&b, &db()).unwrap();
        assert_eq!(ra.tuples(), rb.tuples());
    }

    #[test]
    fn string_constants_are_interned_and_match() {
        let mut d = Database::new();
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(101), Value::str("red")],
                    vec![Value::int(102), Value::str("green")],
                ],
            )
            .unwrap(),
        );
        let p = parse_program("Q(b) :- Boat(b, 'red').", &d.catalog()).unwrap();
        let out = eval_program(&p, &d).unwrap();
        assert_eq!(ints(&out), vec![101]);
    }

    #[test]
    fn lowered_program_is_reusable() {
        let d = db();
        let p = parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog(),
        )
        .unwrap();
        let plan = lower_program(&p, &d).unwrap();
        let a = exec::run_program(&plan, &d).unwrap();
        let b = exec::run_program(&plan, &d).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(ints(&a), vec![1]);
        assert_eq!(plan.strata.len(), 2, "I then Q");
    }

    /// Unsafe rules that bypass `check_program` fail when lowered, on
    /// every database — an empty one included — instead of on the first
    /// assignment that reaches the unbound term.
    #[test]
    fn unsafe_rules_fail_at_lowering() {
        let empty = Database::empty_for(&catalog());
        for (text, var) in [
            ("Q(x, z) :- R(x, y).", "z"),
            ("Q(x) :- R(x, _), y > 5.", "y"),
        ] {
            let p = crate::parser::parse_program_unchecked(text).unwrap();
            for d in [db(), empty.clone()] {
                match lower_program(&p, &d) {
                    Err(CoreError::Invalid(msg)) => {
                        assert_eq!(msg, format!("unbound variable '{var}'"), "{text}")
                    }
                    other => panic!("{text}: expected an unbound-variable error, got {other:?}"),
                }
            }
        }
        let p = crate::parser::parse_program_unchecked("Q(x) :- R(x, _), x > _.").unwrap();
        assert!(lower_program(&p, &empty).is_err(), "wildcard in a built-in");
    }
}
