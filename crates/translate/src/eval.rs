//! RA and Datalog evaluation as a *lowering through the TRC hub*
//! ([`rd_core::exec`]).
//!
//! There is one lowering. Every RA expression becomes a Datalog¬
//! program ([`ra_to_datalog`], total over RA), and every program
//! compiles to TRC plans through [`datalog_to_trc_as`] and the TRC
//! planner ([`rd_trc::eval::lower_union_with`]):
//!
//! * An IDB with one rule and one use is *inlined* where it is used, as
//!   in Datalog\* (Theorem 6, proof part 3).
//! * An IDB with several rules (a union) or several uses (a shared
//!   subresult) becomes a *view*. Each of its rules, with the callees
//!   inlined into it, is a Datalog\* program over the tables and the
//!   earlier views; the view is the union of their TRC plans,
//!   materialized once per execution ([`ProgramPlan`]) and scanned by
//!   later strata like a table, under the positional schema
//!   `pred(x1, …, xn)`.
//!
//! Inlining a shared IDB would copy it once per use, and
//! `I_k(x) :- I_{k-1}(x), S(x, y), I_{k-1}(y)` doubles with every level;
//! so would expanding unions into disjunctive normal form. Views keep
//! every step linear in its input.
//!
//! A Datalog\* program (and so every RA\*⊲ expression) has no views and
//! compiles to one TRC branch, exactly as the TRC translation of
//! Theorem 6 reads it; a program whose only view is its query predicate
//! compiles to a multi-branch [`Plan::Union`]; anything else to a
//! [`Plan::Program`]. The answer keeps its source language's schema:
//! `q(<RA attributes>)` for RA ([`RaExpr::output_schema`]), the query
//! predicate over `x1, …, xn` for Datalog ([`DlProgram::output_schema`]).

use crate::datalog_to_trc::datalog_to_trc_as;
use crate::ra_to_datalog::ra_to_datalog;
use rd_core::exec::{self, Plan, ProgramPlan, Stratum};
use rd_core::{
    Catalog, CoreError, CoreResult, Database, PlanHints, PlannerOpts, Relation, TableSchema,
};
use rd_datalog::ast::{DlProgram, Literal, Rule};
use rd_datalog::check::{check_program, topo_order};
use rd_ra::RaExpr;
use rd_trc::{OutputSpec, TrcUnion};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Lowers an RA expression: [`ra_to_datalog`], then the program's
/// views and query as TRC plans, answering under `q(<attributes>)`.
pub fn lower_ra(
    e: &RaExpr,
    db: &Database,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<Plan> {
    let catalog = db.catalog();
    let answer = e.output_schema(&catalog)?;
    let program = ra_to_datalog(e, &catalog)?;
    lower_views(&program, &answer, db, &catalog, opts, hints)
}

/// Checks a Datalog¬ program ([`check_program`]) and lowers its views
/// and query as TRC plans, answering under [`DlProgram::output_schema`].
/// With a view, each stratum's estimate is the sum of its branch
/// estimates, or the actual in `hints` when a prior execution observed
/// one; later strata plan against it.
pub fn lower_program(
    p: &DlProgram,
    db: &Database,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<Plan> {
    let catalog = db.catalog();
    check_program(p, &catalog)?;
    lower_views(p, &p.output_schema(), db, &catalog, opts, hints)
}

/// Evaluates an RA expression over `db` ([`lower_ra`] under the default
/// planner, then the shared executor).
pub fn eval_ra(e: &RaExpr, db: &Database) -> CoreResult<Relation> {
    let plan = lower_ra(e, db, &PlannerOpts::default(), &PlanHints::default())?;
    exec::execute(&plan, db)
}

/// Evaluates a program's query predicate over `db` ([`lower_program`]
/// under the default planner, then the shared executor).
pub fn eval_program(p: &DlProgram, db: &Database) -> CoreResult<Relation> {
    let plan = lower_program(p, db, &PlannerOpts::default(), &PlanHints::default())?;
    exec::execute(&plan, db)
}

/// The shared back half of [`lower_ra`] and [`lower_program`]: splits
/// `p` into views and the query, translates each rule (with its callees
/// inlined) to TRC, and plans every stratum against the tables plus the
/// views before it.
fn lower_views(
    p: &DlProgram,
    answer: &TableSchema,
    db: &Database,
    catalog: &Catalog,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<Plan> {
    let mut rules_of: BTreeMap<&str, Vec<&Rule>> = BTreeMap::new();
    for rule in &p.rules {
        rules_of.entry(&rule.head.pred).or_default().push(rule);
    }
    // Uses of every IDB the query reaches; unreachable rules are dead.
    let mut uses: BTreeMap<&str, usize> = BTreeMap::from([(p.query.as_str(), 0)]);
    let mut stack = vec![p.query.as_str()];
    while let Some(idb) = stack.pop() {
        for rule in rules_of.get(idb).into_iter().flatten() {
            for atom in called(rule) {
                if let Some((&callee, _)) = rules_of.get_key_value(atom) {
                    let n = uses.entry(callee).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        stack.push(callee);
                    }
                }
            }
        }
    }
    let views: Vec<String> = topo_order(p)
        .into_iter()
        .filter(|idb| {
            *idb != p.query
                && uses
                    .get(idb.as_str())
                    .is_some_and(|&n| n > 1 || rules_of[idb.as_str()].len() > 1)
        })
        .collect();
    let view_set: BTreeSet<&str> = views.iter().map(String::as_str).collect();

    // Views plan as empty placeholder tables (shadowing same-named
    // ones) whose sizes come in through the hints.
    let (scope, catalog) = match views.is_empty() {
        true => (Cow::Borrowed(db), Cow::Borrowed(catalog)),
        false => {
            let mut scope = db.clone();
            for view in &views {
                scope.add_relation(Relation::empty(p.idb_schema(view)));
            }
            let catalog = scope.catalog();
            (Cow::Owned(scope), Cow::Owned(catalog))
        }
    };
    let mut hints = hints.clone();
    let mut strata = Vec::with_capacity(views.len() + 1);
    for idb in views.iter().map(String::as_str).chain([p.query.as_str()]) {
        let head = match idb == p.query {
            true => answer.clone(),
            false => p.idb_schema(idb),
        };
        let spec = OutputSpec::new(head.name(), head.attrs().to_vec());
        let branches = rules_of
            .get(idb)
            .ok_or_else(|| CoreError::Invalid(format!("IDB '{idb}' has no rule")))?
            .iter()
            .map(|rule| {
                datalog_to_trc_as(&inlined(rule, &rules_of, &view_set), &catalog, spec.clone())
            })
            .collect::<CoreResult<Vec<_>>>()?;
        let union = TrcUnion::new(branches)?;
        let Plan::Union(branches) = rd_trc::eval::lower_union_with(&union, &scope, opts, &hints)?
        else {
            return Err(CoreError::Invalid(format!(
                "IDB '{idb}' lowered to a sentence"
            )));
        };
        let est_rows = match hints.rel_rows.get(idb) {
            Some(&actual) => Some(actual),
            None => {
                let est = exec::union_est(&branches);
                // Later strata plan against this bound (the greedy
                // baseline, which records none, against the database).
                hints.set(idb, est.unwrap_or(db.total_tuples() as u64));
                est
            }
        };
        strata.push(Stratum {
            pred: idb.to_string(),
            branches,
            est_rows,
        });
    }
    Ok(match strata.len() {
        1 => Plan::Union(strata.pop().expect("one stratum").branches),
        _ => Plan::Program(ProgramPlan { strata }),
    })
}

/// The predicates a rule's body reads, positively or negated.
fn called(rule: &Rule) -> impl Iterator<Item = &str> {
    rule.body.iter().filter_map(|lit| match lit {
        Literal::Pos(a) | Literal::Neg(a) => Some(a.pred.as_str()),
        Literal::Cmp(_) => None,
    })
}

/// The Datalog\* program computing one rule: the rules of every callee
/// it reaches without passing through a view (each has one rule and one
/// use), then the rule itself as the query.
fn inlined(
    rule: &Rule,
    rules_of: &BTreeMap<&str, Vec<&Rule>>,
    views: &BTreeSet<&str>,
) -> DlProgram {
    let mut rules = Vec::new();
    let mut stack = vec![rule];
    while let Some(r) = stack.pop() {
        for pred in called(r) {
            if views.contains(pred) {
                continue;
            }
            if let Some(&[callee]) = rules_of.get(pred).map(Vec::as_slice) {
                rules.push(callee.clone());
                stack.push(callee);
            }
        }
    }
    rules.push(rule.clone());
    DlProgram::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::plan::OrderStrategy;
    use rd_core::{CmpOp, Tuple, Value};
    use rd_datalog::parser::{parse_program, parse_program_unchecked};
    use rd_ra::ast::{Condition, JoinCond, RaTerm};

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
                other => panic!("expected int, got {other:?}"),
            })
            .collect()
    }

    fn eval(e: &RaExpr, db: &Database) -> CoreResult<Relation> {
        eval_ra(e, db)
    }

    /// The relation names of a one-branch plan's root scans, in order,
    /// and the one probed on a join key.
    fn scans(plan: &Plan) -> (Vec<String>, Vec<String>) {
        let Plan::Union(branches) = plan else {
            panic!("expected a union plan, got {plan:?}")
        };
        let scans = &branches[0].root.scans;
        (
            scans.iter().map(|s| s.rel.clone()).collect(),
            scans
                .iter()
                .filter(|s| s.is_keyed())
                .map(|s| s.rel.clone())
                .collect(),
        )
    }

    #[test]
    fn division_via_basic_operators() {
        // π_A R − π_A((π_A R × S) − R): A values paired with ALL S.B values.
        let e = RaExpr::diff(
            RaExpr::project(["A"], RaExpr::table("R")),
            RaExpr::project(
                ["A"],
                RaExpr::diff(
                    RaExpr::product(
                        RaExpr::project(["A"], RaExpr::table("R")),
                        RaExpr::table("S"),
                    ),
                    RaExpr::table("R"),
                ),
            ),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn division_via_antijoins() {
        // π_A R ⊲ π_A((π_A R × S) ⊲ R)   (Example 17)
        let inner = RaExpr::project(
            ["A"],
            RaExpr::antijoin(
                JoinCond(vec![]),
                RaExpr::product(
                    RaExpr::project(["A"], RaExpr::table("R")),
                    RaExpr::table("S"),
                ),
                RaExpr::table("R"),
            ),
        );
        let e = RaExpr::antijoin(
            JoinCond(vec![]),
            RaExpr::project(["A"], RaExpr::table("R")),
            inner,
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![1]);
    }

    #[test]
    fn simple_antijoin_matches_not_exists() {
        // R ⊲_{B=B} S = tuples of R whose B is not in S.
        let e = RaExpr::antijoin(
            JoinCond::eq("B", "B"),
            RaExpr::table("R"),
            RaExpr::table("S"),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.iter().next().unwrap(), &Tuple::new([3i64, 30]));
    }

    #[test]
    fn select_with_disjunction() {
        let e = RaExpr::select(
            Condition::Or(vec![
                Condition::Cmp(RaTerm::attr("B"), CmpOp::Eq, RaTerm::value(30)),
                Condition::Cmp(RaTerm::attr("A"), CmpOp::Eq, RaTerm::value(2)),
            ]),
            RaExpr::table("R"),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![2, 3]);
        assert_eq!(out.schema().attrs(), ["A", "B"]);
    }

    #[test]
    fn natural_join_and_theta_join_agree_on_equality() {
        let nj = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S"));
        let tj = RaExpr::project(
            ["A", "B"],
            RaExpr::join(
                JoinCond::eq("B", "B2"),
                RaExpr::table("R"),
                RaExpr::rename([("B", "B2")], RaExpr::table("S")),
            ),
        );
        let a = eval(&nj, &db()).unwrap();
        let b = eval(&tj, &db()).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn union_dedups() {
        let e = RaExpr::union(
            RaExpr::project(["B"], RaExpr::table("R")),
            RaExpr::table("S"),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(ints(&out), vec![10, 20, 30]);
    }

    #[test]
    fn projection_dedups_under_set_semantics() {
        let e = RaExpr::project(["B"], RaExpr::table("R"));
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 3); // 10, 20, 30
    }

    #[test]
    fn theta_join_with_inequality() {
        // Pairs (A, B2) with R.B > S.B2.
        let e = RaExpr::join(
            JoinCond(vec![("B".into(), CmpOp::Gt, "B2".into())]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval(&e, &db()).unwrap();
        // R.B values 10,10,20,30 vs S 10,20: pairs: 20>10, 30>10, 30>20.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn mixed_eq_and_inequality_join_uses_residual() {
        // B = B2 && A > B2 — the equality keys the probe, the inequality
        // filters the match. Over our data: (B, B2) matches on 10, 10 and
        // 20, 20; A > B2 never holds (A ∈ 1..3), so the join is empty.
        let e = RaExpr::join(
            JoinCond(vec![
                ("B".into(), CmpOp::Eq, "B2".into()),
                ("A".into(), CmpOp::Gt, "B2".into()),
            ]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval(&e, &db()).unwrap();
        assert!(out.is_empty());
        // Flip the inequality: every key match qualifies (A < B2).
        let e = RaExpr::join(
            JoinCond(vec![
                ("B".into(), CmpOp::Eq, "B2".into()),
                ("A".into(), CmpOp::Lt, "B2".into()),
            ]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn string_selection_and_order_comparison() {
        let mut d = Database::new();
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(1), Value::str("zebra")],
                    vec![Value::int(2), Value::str("apple")],
                    vec![Value::int(3), Value::str("red")],
                ],
            )
            .unwrap(),
        );
        let eq = RaExpr::select(
            Condition::Cmp(RaTerm::attr("color"), CmpOp::Eq, RaTerm::value("red")),
            RaExpr::table("Boat"),
        );
        assert_eq!(ints(&eval(&eq, &d).unwrap()), vec![3]);
        // Lexicographic, not id, order: only 'apple' < 'red'.
        let lt = RaExpr::select(
            Condition::Cmp(RaTerm::attr("color"), CmpOp::Lt, RaTerm::value("red")),
            RaExpr::table("Boat"),
        );
        assert_eq!(ints(&eval(&lt, &d).unwrap()), vec![2]);
    }

    #[test]
    fn eval_missing_table_errors() {
        let e = RaExpr::table("Nope");
        assert!(eval(&e, &db()).is_err());
    }

    #[test]
    fn natural_join_swap_preserves_layout_and_rows() {
        // A 30-row R against a 4-row BigS(B, E) sharing B: the planner
        // drives the join from the small right operand and probes R, yet
        // the answer keeps the written layout R.A, B, BigS.E.
        let mut d = db();
        let r = d.relation_mut("R").unwrap();
        for i in 4..30i64 {
            r.insert_values([i, 40 + i]).unwrap();
        }
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("BigS", ["B", "E"]),
                [[10i64, 1], [20, 2], [30, 3], [45, 4]],
            )
            .unwrap(),
        );
        let e = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("BigS"));
        let plan = lower_ra(&e, &d, &PlannerOpts::default(), &PlanHints::default()).unwrap();
        assert_eq!(scans(&plan).0, ["BigS", "R"], "the right operand leads");
        let out = exec::execute(&plan, &d).unwrap();
        assert_eq!(out.schema().attrs(), ["A", "B", "E"]);
        let rows: Vec<Tuple> = out.iter().cloned().collect();
        assert_eq!(
            rows,
            [
                Tuple::new([1i64, 10, 1]),
                Tuple::new([1, 20, 2]),
                Tuple::new([2, 10, 1]),
                Tuple::new([3, 30, 3]),
                Tuple::new([5, 45, 4]),
            ]
        );
    }

    #[test]
    fn hints_steer_build_side_selection() {
        // The join table is built over the probed (keyed) scan. Feedback
        // hints that make one side huge move the build onto it: driving
        // the pipeline from the smaller side.
        let d = db();
        let e = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S"));
        let keyed = |table: &str| {
            let mut hints = PlanHints::default();
            hints.set(table, 1000);
            let plan = lower_ra(&e, &d, &PlannerOpts::default(), &hints).unwrap();
            assert_eq!(exec::execute(&plan, &d).unwrap().len(), 3);
            scans(&plan).1
        };
        assert_eq!(keyed("S"), ["S"]);
        assert_eq!(keyed("R"), ["R"]);
    }

    #[test]
    fn lowered_plan_executes_like_eval() {
        let d = db();
        let e = RaExpr::project(
            ["A"],
            RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S")),
        );
        let plan = lower_ra(&e, &d, &PlannerOpts::default(), &PlanHints::default()).unwrap();
        let rel = exec::execute(&plan, &d).unwrap();
        assert_eq!(ints(&rel), [1, 2]);
        assert_eq!(rel.schema().attrs(), ["A"]);
        assert!(rel.iter().eq(eval(&e, &d).unwrap().iter()));
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
        assert_eq!(ints(&ra), vec![1, 2]);
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
            "I(x) :- R(x, 10).\nI(x) :- R(x, 30).\nQ(x) :- I(x), not S(x).",
            &catalog(),
        )
        .unwrap();
        let plan = lower_program(&p, &d, &PlannerOpts::default(), &PlanHints::default()).unwrap();
        let a = exec::execute(&plan, &d).unwrap();
        let b = exec::execute(&plan, &d).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(ints(&a), vec![1, 2, 3]);
        let Plan::Program(program) = &plan else {
            panic!("a two-rule IDB is a view: {plan:?}")
        };
        let strata: Vec<(&str, usize)> = program
            .strata
            .iter()
            .map(|s| (s.pred.as_str(), s.branches.len()))
            .collect();
        assert_eq!(strata, [("I", 2), ("Q", 1)], "I then Q");
    }

    /// Unsafe rules that bypass the parser's checks fail when lowered,
    /// on every database — an empty one included — instead of on the
    /// first assignment that reaches the unbound term.
    #[test]
    fn unsafe_rules_fail_at_lowering() {
        let empty = Database::empty_for(&catalog());
        let lower = |p: &DlProgram, d: &Database| {
            lower_program(p, d, &PlannerOpts::default(), &PlanHints::default())
        };
        for (text, var) in [
            ("Q(x, z) :- R(x, y).", "z"),
            ("Q(x) :- R(x, _), y > 5.", "y"),
        ] {
            let p = parse_program_unchecked(text).unwrap();
            for d in [db(), empty.clone()] {
                match lower(&p, &d) {
                    Err(CoreError::Invalid(msg)) => assert!(
                        msg.starts_with("unsafe rule") && msg.contains(&format!("'{var}'")),
                        "{text}: {msg}"
                    ),
                    other => panic!("{text}: expected an unsafe-rule error, got {other:?}"),
                }
            }
        }
        let p = parse_program_unchecked("Q(x) :- R(x, _), x > _.").unwrap();
        assert!(lower(&p, &empty).is_err(), "wildcard in a built-in");
    }

    #[test]
    fn views_plan_against_their_estimates_and_greedy_still_answers() {
        // I is used twice, so it is materialized once; the query's plan
        // scans it like a table.
        let p = parse_program(
            "I(x) :- R(x, 10).\nQ(x, y) :- I(x), I(y), R(x, z), R(y, z).",
            &catalog(),
        )
        .unwrap();
        let d = db();
        for strategy in [OrderStrategy::CostDp, OrderStrategy::Greedy] {
            let opts = PlannerOpts {
                strategy,
                ..PlannerOpts::default()
            };
            let plan = lower_program(&p, &d, &opts, &PlanHints::default()).unwrap();
            let Plan::Program(program) = &plan else {
                panic!("a twice-used IDB is a view: {plan:?}")
            };
            assert_eq!(program.strata[0].pred, "I");
            assert_eq!(
                program.strata[0].est_rows.is_some(),
                strategy == OrderStrategy::CostDp
            );
            let rows: Vec<Tuple> = exec::execute(&plan, &d).unwrap().iter().cloned().collect();
            // I = {1, 2}; pairs sharing a B: (1,1), (1,2), (2,1), (2,2).
            assert_eq!(
                rows,
                [[1i64, 1], [1, 2], [2, 1], [2, 2]].map(Tuple::new),
                "{strategy:?}"
            );
        }
    }
}
