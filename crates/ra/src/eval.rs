//! RA evaluation as a *lowering* onto the shared plan IR
//! ([`rd_core::exec`]).
//!
//! The expression tree compiles once into an [`exec::OpNode`] operator
//! tree: attribute names are resolved to column indices against the
//! statically inferred per-node layout, string constants are interned
//! against the database, and `Rename` disappears entirely (it only
//! renames the compile-time layout). The shared executor then runs the
//! tree with set semantics — `Join`, `NaturalJoin`, and `Antijoin` hash
//! the right operand on their equality columns and probe it per left
//! tuple, checking any residual (non-equality) conditions on the
//! matching bucket only; selections compare interned ids, never heap
//! strings.

use crate::ast::{Condition, RaExpr, RaTerm};
use rd_core::exec::{self, OpNode, Plan};
use rd_core::plan::{DbStats, OrderStrategy, PlanHints, PlannerOpts};
use rd_core::{CmpOp, CoreError, CoreResult, Database, Tuple};
use std::collections::BTreeSet;

/// An intermediate (or final) evaluation result: attribute names plus the
/// tuple set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaResult {
    /// Ordered attribute names of the result.
    pub attrs: Vec<String>,
    /// The tuples.
    pub tuples: BTreeSet<Tuple>,
}

fn attr_index(attrs: &[String], name: &str) -> CoreResult<usize> {
    attrs
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| CoreError::Invalid(format!("attribute '{name}' not in {attrs:?}")))
}

fn compile_cond(cond: &Condition, attrs: &[String], db: &Database) -> exec::Cond {
    match cond {
        Condition::Cmp(l, op, r) => {
            exec::Cond::Cmp(compile_term(l, attrs, db), *op, compile_term(r, attrs, db))
        }
        Condition::And(cs) => {
            exec::Cond::And(cs.iter().map(|c| compile_cond(c, attrs, db)).collect())
        }
        Condition::Or(cs) => {
            exec::Cond::Or(cs.iter().map(|c| compile_cond(c, attrs, db)).collect())
        }
    }
}

fn compile_term(term: &RaTerm, attrs: &[String], db: &Database) -> exec::CTerm {
    match term {
        RaTerm::Const(v) => exec::CTerm::Const(db.lookup_value(v)),
        RaTerm::Attr(a) => exec::CTerm::Col(
            attrs
                .iter()
                .position(|x| x == a)
                .expect("validated by schema inference"),
        ),
    }
}

/// Evaluates `expr` over `db`. The catalog is taken from the database
/// itself, so every referenced table must exist in `db`.
pub fn eval(expr: &RaExpr, db: &Database) -> CoreResult<RaResult> {
    let (node, attrs) = compile(expr, db)?;
    let tuples = exec::run_ops(&node, db)?;
    Ok(RaResult { attrs, tuples })
}

/// Lowers `expr` to a complete compiled [`Plan`] whose output schema is
/// the conventional `q(attrs…)`.
pub fn lower(expr: &RaExpr, db: &Database) -> CoreResult<Plan> {
    lower_with(expr, db, &PlannerOpts::default(), &PlanHints::default())
}

/// Like [`lower`], but with explicit planner options and cardinality
/// hints (actual row counts fed back from prior executions).
pub fn lower_with(
    expr: &RaExpr,
    db: &Database,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<Plan> {
    let (root, _) = compile_with(expr, db, opts, hints)?;
    Ok(Plan::Ops {
        root,
        out: expr.output_schema(&db.catalog())?,
    })
}

/// Compiles the expression tree: validates schemas up front (for clear
/// error messages), then resolves every attribute reference to a column
/// index against the statically known per-node layout.
fn compile(expr: &RaExpr, db: &Database) -> CoreResult<(OpNode, Vec<String>)> {
    compile_with(expr, db, &PlannerOpts::default(), &PlanHints::default())
}

fn compile_with(
    expr: &RaExpr,
    db: &Database,
    opts: &PlannerOpts,
    hints: &PlanHints,
) -> CoreResult<(OpNode, Vec<String>)> {
    let catalog = db.catalog();
    expr.schema(&catalog)?;
    let mut stats = DbStats::of(db);
    stats.apply_hints(hints);
    let cx = Cx {
        db,
        stats,
        cost: opts.strategy == OrderStrategy::CostDp,
    };
    compile_inner(expr, &cx)
}

/// Compile context: the database (for interning and schema lookup) plus
/// the statistics snapshot driving build-side selection.
struct Cx<'a> {
    db: &'a Database,
    stats: DbStats,
    /// `false` under [`OrderStrategy::Greedy`]: joins keep their written
    /// operand order, preserving the legacy baseline for differential
    /// tests.
    cost: bool,
}

/// Resolves `attr` in `expr`'s output down to a base-table column, seeing
/// through projections, selections, and renames. `None` when the attr
/// sits above a join/product/union (its provenance is ambiguous there for
/// our purposes — the per-table sketches stop applying cleanly).
fn resolve_col(expr: &RaExpr, attr: &str, db: &Database) -> Option<(String, usize)> {
    match expr {
        RaExpr::Table(t) => {
            let rel = db.require(t).ok()?;
            let col = rel.schema().attrs().iter().position(|a| a == attr)?;
            Some((t.clone(), col))
        }
        RaExpr::Select(_, e) | RaExpr::Project(_, e) => resolve_col(e, attr, db),
        RaExpr::Rename(renames, e) => {
            // Map the post-rename name back to the pre-rename one.
            let orig = renames
                .iter()
                .find(|(_, to)| to == attr)
                .map(|(from, _)| from.as_str())
                .unwrap_or(attr);
            resolve_col(e, orig, db)
        }
        _ => None,
    }
}

/// Estimated selectivity of a compiled-form condition against `input`.
fn cond_selectivity(cond: &Condition, input: &RaExpr, cx: &Cx) -> f64 {
    match cond {
        Condition::Cmp(l, op, r) => {
            // Attr-vs-const comparisons consult the column statistics of
            // the underlying base table when the attr resolves to one.
            let resolved = match (l, r) {
                (RaTerm::Attr(a), RaTerm::Const(v)) => Some((a, *op, v)),
                (RaTerm::Const(v), RaTerm::Attr(a)) => Some((a, op.flipped(), v)),
                _ => None,
            };
            match resolved {
                Some((a, op, v)) => match resolve_col(input, a, cx.db) {
                    Some((table, col)) => cx.stats.cmp_selectivity(&table, col, op, v),
                    None => match op {
                        CmpOp::Eq => 0.1,
                        CmpOp::Ne => 0.9,
                        _ => 1.0 / 3.0,
                    },
                },
                // Attr-vs-attr (or const-vs-const) within one row.
                None => match op {
                    CmpOp::Eq => 0.1,
                    CmpOp::Ne => 0.9,
                    _ => 1.0 / 3.0,
                },
            }
        }
        Condition::And(cs) => cs.iter().map(|c| cond_selectivity(c, input, cx)).product(),
        Condition::Or(cs) => cs
            .iter()
            .map(|c| cond_selectivity(c, input, cx))
            .sum::<f64>()
            .min(1.0),
    }
}

/// Estimated output cardinality of `expr`. Base tables read real sizes
/// (respecting hint overrides); joins use the System-R style
/// `|L|·|R| / max(V(L.a), V(R.b))` over the first equality pair when the
/// columns resolve to base tables, else the containment bound `min(L, R)`.
fn est_rows(expr: &RaExpr, cx: &Cx) -> f64 {
    match expr {
        RaExpr::Table(t) => cx.stats.size(t) as f64,
        RaExpr::Project(_, e) | RaExpr::Rename(_, e) => est_rows(e, cx),
        RaExpr::Select(cond, e) => est_rows(e, cx) * cond_selectivity(cond, e, cx),
        RaExpr::Product(l, r) => est_rows(l, cx) * est_rows(r, cx),
        RaExpr::Join(cond, l, r) => {
            let (el, er) = (est_rows(l, cx), est_rows(r, cx));
            let eq = cond
                .0
                .iter()
                .find(|(_, op, _)| *op == CmpOp::Eq)
                .map(|(la, _, ra)| (la, ra));
            match eq {
                Some((la, ra)) => {
                    let v = join_key_distinct(l, la, el, cx).max(join_key_distinct(r, ra, er, cx));
                    el * er / v.max(1.0)
                }
                None if cond.0.is_empty() => el * er,
                None => el * er / 3.0,
            }
        }
        RaExpr::NaturalJoin(l, r) => {
            let (el, er) = (est_rows(l, cx), est_rows(r, cx));
            // Equality on shared attrs: containment bound without having
            // to enumerate them here.
            (el * er / el.max(er).max(1.0)).max(el.min(er).min(1.0))
        }
        RaExpr::Diff(l, _) => est_rows(l, cx),
        RaExpr::Union(l, r) => est_rows(l, cx) + est_rows(r, cx),
        RaExpr::Antijoin(_, l, _) => est_rows(l, cx) * 0.5,
    }
}

/// Distinct count of a join-key attribute, falling back to the child's
/// own cardinality (every row distinct) when the column doesn't resolve
/// to a base table.
fn join_key_distinct(child: &RaExpr, attr: &str, child_rows: f64, cx: &Cx) -> f64 {
    match resolve_col(child, attr, cx.db) {
        Some((table, col)) => cx.stats.distinct(&table, col),
        None => child_rows,
    }
}

fn compile_inner(expr: &RaExpr, cx: &Cx) -> CoreResult<(OpNode, Vec<String>)> {
    let db = cx.db;
    match expr {
        RaExpr::Table(t) => {
            let rel = db.require(t)?;
            Ok((OpNode::Table(t.clone()), rel.schema().attrs().to_vec()))
        }
        RaExpr::Project(attrs, e) => {
            let (input, inner) = compile_inner(e, cx)?;
            let cols: Vec<usize> = attrs
                .iter()
                .map(|a| attr_index(&inner, a))
                .collect::<CoreResult<_>>()?;
            Ok((
                OpNode::Project {
                    cols,
                    input: Box::new(input),
                },
                attrs.clone(),
            ))
        }
        RaExpr::Select(cond, e) => {
            let (input, inner) = compile_inner(e, cx)?;
            let compiled = compile_cond(cond, &inner, db);
            Ok((
                OpNode::Select {
                    cond: compiled,
                    input: Box::new(input),
                },
                inner,
            ))
        }
        RaExpr::Product(l, r) => {
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, rs) = compile_inner(r, cx)?;
            let mut attrs = ls;
            attrs.extend(rs);
            Ok((OpNode::Product(Box::new(lo), Box::new(ro)), attrs))
        }
        RaExpr::Join(cond, l, r) => {
            // The executor hashes the RIGHT operand and probes per left
            // tuple; build the hash on the estimated-smaller side. A
            // swapped join emits columns in (rs, ls) order, so wrap it in
            // a permuting Project restoring the written (ls, rs) layout.
            let swap = cx.cost && est_rows(r, cx) > est_rows(l, cx);
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, rs) = compile_inner(r, cx)?;
            let mut attrs = ls.clone();
            attrs.extend(rs.clone());
            if swap {
                let checks: Vec<(usize, CmpOp, usize)> = cond
                    .0
                    .iter()
                    .map(|(la, op, ra)| {
                        Ok((attr_index(&rs, ra)?, op.flipped(), attr_index(&ls, la)?))
                    })
                    .collect::<CoreResult<_>>()?;
                let cols: Vec<usize> = (rs.len()..rs.len() + ls.len()).chain(0..rs.len()).collect();
                Ok((
                    OpNode::Project {
                        cols,
                        input: Box::new(OpNode::Join {
                            checks,
                            left: Box::new(ro),
                            right: Box::new(lo),
                        }),
                    },
                    attrs,
                ))
            } else {
                let checks: Vec<(usize, CmpOp, usize)> = cond
                    .0
                    .iter()
                    .map(|(la, op, ra)| Ok((attr_index(&ls, la)?, *op, attr_index(&rs, ra)?)))
                    .collect::<CoreResult<_>>()?;
                Ok((
                    OpNode::Join {
                        checks,
                        left: Box::new(lo),
                        right: Box::new(ro),
                    },
                    attrs,
                ))
            }
        }
        RaExpr::NaturalJoin(l, r) => {
            // Same build-side selection as Join. A swapped node keeps the
            // shared attrs from the written-left side (equal values by
            // definition of the join, but sitting in probe-side columns),
            // so projecting by name restores the conventional layout.
            let swap = cx.cost && est_rows(r, cx) > est_rows(l, cx);
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, rs) = compile_inner(r, cx)?;
            // `po/ps` is the probe (node-left) operand, `bo/bs` the
            // hash-build (node-right) operand.
            let (po, ps, bo, bs) = if swap {
                (ro, rs, lo, ls.clone())
            } else {
                (lo, ls.clone(), ro, rs)
            };
            let shared: Vec<(usize, usize)> = bs
                .iter()
                .enumerate()
                .filter_map(|(bi, a)| ps.iter().position(|x| x == a).map(|pi| (pi, bi)))
                .collect();
            let keep_right: Vec<usize> = (0..bs.len())
                .filter(|bi| !shared.iter().any(|(_, b2)| b2 == bi))
                .collect();
            let mut node_attrs = ps.clone();
            node_attrs.extend(keep_right.iter().map(|&bi| bs[bi].clone()));
            let checks: Vec<(usize, CmpOp, usize)> =
                shared.iter().map(|&(pi, bi)| (pi, CmpOp::Eq, bi)).collect();
            let node = OpNode::NaturalJoin {
                checks,
                keep_right,
                left: Box::new(po),
                right: Box::new(bo),
            };
            if swap {
                // Conventional layout: written-left attrs, then the
                // written-right attrs absent from the left. Every name
                // occurs exactly once in `node_attrs` (it's the same
                // attr union), so by-name projection is well-defined.
                let mut attrs = ls.clone();
                attrs.extend(ps.iter().filter(|a| !ls.contains(a)).cloned());
                let cols: Vec<usize> = attrs
                    .iter()
                    .map(|a| attr_index(&node_attrs, a))
                    .collect::<CoreResult<_>>()?;
                Ok((
                    OpNode::Project {
                        cols,
                        input: Box::new(node),
                    },
                    attrs,
                ))
            } else {
                Ok((node, node_attrs))
            }
        }
        RaExpr::Rename(renames, e) => {
            // Pure compile-time: renames touch the layout, not the data.
            let (input, mut attrs) = compile_inner(e, cx)?;
            for (from, to) in renames {
                let idx = attr_index(&attrs, from)?;
                attrs[idx] = to.clone();
            }
            Ok((input, attrs))
        }
        RaExpr::Diff(l, r) => {
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, _) = compile_inner(r, cx)?;
            Ok((OpNode::Diff(Box::new(lo), Box::new(ro)), ls))
        }
        RaExpr::Union(l, r) => {
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, _) = compile_inner(r, cx)?;
            Ok((OpNode::Union(Box::new(lo), Box::new(ro)), ls))
        }
        RaExpr::Antijoin(cond, l, r) => {
            let (lo, ls) = compile_inner(l, cx)?;
            let (ro, rs) = compile_inner(r, cx)?;
            let checks: Vec<(usize, CmpOp, usize)> = if cond.0.is_empty() {
                // Natural antijoin: equality on all shared attribute names.
                rs.iter()
                    .enumerate()
                    .filter_map(|(ri, a)| {
                        ls.iter().position(|x| x == a).map(|li| (li, CmpOp::Eq, ri))
                    })
                    .collect()
            } else {
                cond.0
                    .iter()
                    .map(|(la, op, ra)| Ok((attr_index(&ls, la)?, *op, attr_index(&rs, ra)?)))
                    .collect::<CoreResult<_>>()?
            };
            Ok((
                OpNode::Antijoin {
                    checks,
                    left: Box::new(lo),
                    right: Box::new(ro),
                },
                ls,
            ))
        }
    }
}

/// Convenience: evaluates an antijoin-free division query used in tests.
pub use self::eval as eval_expr;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::JoinCond;
    use rd_core::{Relation, TableSchema, Value};

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

    fn ints(r: &RaResult) -> Vec<i64> {
        r.tuples
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                _ => panic!("expected int"),
            })
            .collect()
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
        assert_eq!(out.tuples.len(), 1);
        assert_eq!(out.tuples.iter().next().unwrap(), &Tuple::new([3i64, 30]));
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
        assert_eq!(out.tuples.len(), 2);
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
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.tuples.len(), 3);
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
        assert_eq!(out.tuples.len(), 3); // 10, 20, 30
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
        assert_eq!(out.tuples.len(), 3);
    }

    #[test]
    fn mixed_eq_and_inequality_join_uses_residual() {
        // B = B2 && A > B2 — the equality keys the hash, the inequality
        // filters the bucket. Over our data: (B, B2) matches on 10, 10 and
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
        assert!(out.tuples.is_empty());
        // Flip the inequality: every hash match qualifies (A < B2).
        let e = RaExpr::join(
            JoinCond(vec![
                ("B".into(), CmpOp::Eq, "B2".into()),
                ("A".into(), CmpOp::Lt, "B2".into()),
            ]),
            RaExpr::table("R"),
            RaExpr::rename([("B", "B2")], RaExpr::table("S")),
        );
        let out = eval(&e, &db()).unwrap();
        assert_eq!(out.tuples.len(), 3);
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
    fn join_builds_hash_on_smaller_side() {
        // R has 4 rows, Big has 40: the executor hashes its RIGHT child,
        // so `R ⋈ Big` should compile with Big probed and R built — i.e.
        // the children swapped and a permuting Project on top.
        let mut d = db();
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("Big", ["C", "D"]),
                (0..40i64).map(|i| [i, i % 7]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let e = RaExpr::join(
            JoinCond(vec![("A".into(), CmpOp::Lt, "C".into())]),
            RaExpr::table("R"),
            RaExpr::table("Big"),
        );
        let plan = lower(&e, &d).unwrap();
        let Plan::Ops { root, out } = &plan else {
            panic!("expected ops plan")
        };
        match root {
            OpNode::Project { cols, input } => {
                // Big contributes 2 cols, R 2: restored order [2, 3, 0, 1].
                assert_eq!(cols, &[2, 3, 0, 1]);
                match input.as_ref() {
                    OpNode::Join {
                        checks,
                        left,
                        right,
                    } => {
                        assert_eq!(**left, OpNode::Table("Big".into()));
                        assert_eq!(**right, OpNode::Table("R".into()));
                        // A < C flips to C > A with Big's cols on the left.
                        assert_eq!(checks, &[(0, CmpOp::Gt, 0)]);
                    }
                    other => panic!("expected join under project, got {other:?}"),
                }
            }
            other => panic!("expected swapped join wrapped in project, got {other:?}"),
        }
        assert_eq!(out.attrs(), ["A", "B", "C", "D"]);
        // Semantics unchanged: matches the greedy (unswapped) lowering.
        let swapped = exec::run_ops(root, &d).unwrap();
        let baseline = lower_with(
            &e,
            &d,
            &PlannerOpts {
                strategy: OrderStrategy::Greedy,
                ..PlannerOpts::default()
            },
            &PlanHints::default(),
        )
        .unwrap();
        let Plan::Ops {
            root: base_root, ..
        } = &baseline
        else {
            panic!("expected ops plan")
        };
        assert!(matches!(base_root, OpNode::Join { .. }));
        assert_eq!(swapped, exec::run_ops(base_root, &d).unwrap());
    }

    #[test]
    fn natural_join_swap_preserves_layout_and_rows() {
        let mut d = db();
        // BigS(B, E): 30 rows sharing attr B with R.
        d.add_relation(
            Relation::from_rows(
                TableSchema::new("BigS", ["B", "E"]),
                (0..30i64).map(|i| [10 * (i % 4), i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let e = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("BigS"));
        let plan = lower(&e, &d).unwrap();
        let Plan::Ops { root, out } = &plan else {
            panic!("expected ops plan")
        };
        assert!(
            matches!(root, OpNode::Project { .. }),
            "larger right child should swap and re-project, got {root:?}"
        );
        assert_eq!(out.attrs(), ["A", "B", "E"]);
        let cost = exec::run_ops(root, &d).unwrap();
        let greedy = lower_with(
            &e,
            &d,
            &PlannerOpts {
                strategy: OrderStrategy::Greedy,
                ..PlannerOpts::default()
            },
            &PlanHints::default(),
        )
        .unwrap();
        let Plan::Ops {
            root: base_root,
            out: base_out,
        } = &greedy
        else {
            panic!("expected ops plan")
        };
        assert_eq!(base_out.attrs(), ["A", "B", "E"]);
        assert_eq!(cost, exec::run_ops(base_root, &d).unwrap());
        assert!(!cost.is_empty());
    }

    #[test]
    fn hints_steer_build_side_selection() {
        // Claim R is huge via feedback hints: now the written order is
        // already optimal (build on right S) and no swap happens... but
        // S is smaller than R anyway. Instead override S upward so the
        // swap triggers where real sizes would not.
        let d = db();
        let e = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S"));
        // Real sizes: R=4, S=2 — right already smaller, no swap.
        let plain = lower(&e, &d).unwrap();
        let Plan::Ops { root, .. } = &plain else {
            panic!()
        };
        assert!(matches!(root, OpNode::NaturalJoin { .. }));
        // Hint S up to 1000 rows: swap kicks in.
        let mut hints = PlanHints::default();
        hints.set("S", 1000);
        let hinted = lower_with(&e, &d, &PlannerOpts::default(), &hints).unwrap();
        let Plan::Ops { root, .. } = &hinted else {
            panic!()
        };
        assert!(matches!(root, OpNode::Project { .. }));
    }

    #[test]
    fn lowered_plan_executes_like_eval() {
        let d = db();
        let e = RaExpr::project(
            ["A"],
            RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S")),
        );
        let plan = lower(&e, &d).unwrap();
        let rel = exec::execute(&plan, &d).unwrap();
        let direct = eval(&e, &d).unwrap();
        assert!(rel.iter().eq(direct.tuples.iter()));
        assert_eq!(rel.schema().attrs(), ["A"]);
    }
}
