//! Datalog\* → RA (Appendix C, proof part 2) in two modes:
//!
//! * **basic** ([`datalog_to_ra`]): only the RA\* operators, using the
//!   eq. (5) construction for negated atoms — when the negated atom binds
//!   only a strict subset `y` of the positive variables, the complement
//!   set `z` is supplied by a cartesian product with a projection of the
//!   positive side. This *duplicates table references* and is therefore
//!   not pattern-preserving (the content of Lemma 19).
//! * **antijoin** ([`datalog_to_ra_antijoin`]): the RA\*⊲ construction of
//!   Theorem 21 part 2, eq. (10) — each negated atom becomes one antijoin,
//!   preserving the signature.
//!
//! IDB atoms are inlined (each IDB is used at most once in Datalog\*), so
//! the output is a single expression.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_ra::ast::{Condition, JoinCond, RaExpr, RaTerm};
use std::collections::BTreeMap;

/// Translation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Basic,
    Antijoin,
}

/// Translates a Datalog\* program to basic RA\* (union-free, conjunctive
/// selections). Logic-preserving; may duplicate table references (eq. 5).
pub fn datalog_to_ra(p: &DlProgram, catalog: &Catalog) -> CoreResult<RaExpr> {
    translate(p, catalog, Mode::Basic)
}

/// Translates a Datalog\* program to RA\*⊲ (with antijoins), preserving
/// the signature (Theorem 21).
pub fn datalog_to_ra_antijoin(p: &DlProgram, catalog: &Catalog) -> CoreResult<RaExpr> {
    translate(p, catalog, Mode::Antijoin)
}

fn translate(p: &DlProgram, catalog: &Catalog, mode: Mode) -> CoreResult<RaExpr> {
    rd_datalog::check::check_program(p, catalog)?;
    if !rd_datalog::check::is_datalog_star(p) {
        return Err(CoreError::Invalid(
            "program is outside Datalog* (Definition 1); RA* cannot express its disjunction".into(),
        ));
    }
    // Translate IDBs in dependency order; store normalized expressions
    // with canonical attribute names c1..ck.
    let mut idb_exprs: BTreeMap<String, RaExpr> = BTreeMap::new();
    for idb in rd_datalog::check::topo_order(p) {
        let rule = p
            .rules
            .iter()
            .find(|r| r.head.pred == idb)
            .expect("topo order lists defined IDBs");
        let expr = rule_to_ra(rule, catalog, &idb_exprs, mode)?;
        idb_exprs.insert(idb, expr);
    }
    idb_exprs
        .remove(&p.query)
        .ok_or_else(|| CoreError::Invalid(format!("query IDB '{}' missing", p.query)))
}

/// Canonical attribute name for position `i` (0-based).
fn canon_attr(i: usize) -> String {
    format!("c{}", i + 1)
}

/// Builds the RA expression for one atom occurrence: attributes renamed to
/// the atom's variable names, constants and repeated variables folded into
/// selections, wildcards dropped via projection.
fn atom_expr(
    atom: &Atom,
    catalog: &Catalog,
    idb_exprs: &BTreeMap<String, RaExpr>,
    uniq: &mut usize,
) -> CoreResult<RaExpr> {
    let (mut expr, attrs): (RaExpr, Vec<String>) = match idb_exprs.get(&atom.pred) {
        Some(e) => {
            let arity = atom.terms.len();
            (e.clone(), (0..arity).map(canon_attr).collect())
        }
        None => {
            let schema = catalog.require(&atom.pred)?;
            (RaExpr::table(&atom.pred), schema.attrs().to_vec())
        }
    };
    // Step 1: rename every position to a unique placeholder.
    let placeholders: Vec<String> = (0..atom.terms.len())
        .map(|_| {
            *uniq += 1;
            format!("p{uniq}")
        })
        .collect();
    expr = RaExpr::rename(
        attrs.iter().cloned().zip(placeholders.iter().cloned()),
        expr,
    );
    // Step 2: selections for constants and repeated variables.
    let mut first_pos: BTreeMap<&str, usize> = BTreeMap::new();
    let mut conds = Vec::new();
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            DlTerm::Const(c) => conds.push(Condition::Cmp(
                RaTerm::attr(placeholders[i].clone()),
                CmpOp::Eq,
                RaTerm::Const(c.clone()),
            )),
            DlTerm::Var(v) => match first_pos.get(v.as_str()) {
                Some(&j) => conds.push(Condition::Cmp(
                    RaTerm::attr(placeholders[i].clone()),
                    CmpOp::Eq,
                    RaTerm::attr(placeholders[j].clone()),
                )),
                None => {
                    first_pos.insert(v, i);
                }
            },
            DlTerm::Wildcard => {}
        }
    }
    if !conds.is_empty() {
        expr = RaExpr::select(Condition::And(conds), expr);
    }
    // Step 3: project the first occurrence of each variable and rename to
    // the variable names.
    let mut keep: Vec<(String, String)> = Vec::new(); // (placeholder, var)
    for (i, term) in atom.terms.iter().enumerate() {
        if let DlTerm::Var(v) = term {
            if first_pos.get(v.as_str()) == Some(&i) {
                keep.push((placeholders[i].clone(), v.clone()));
            }
        }
    }
    if keep.is_empty() {
        // All-wildcard atom (e.g. `T(_)` in eq. 3): keep one column under a
        // synthetic name; the cross join acts as the non-emptiness check
        // and the head projection removes the column again.
        *uniq += 1;
        keep.push((placeholders[0].clone(), format!("w{uniq}")));
    }
    expr = RaExpr::project(keep.iter().map(|(p, _)| p.clone()), expr);
    expr = RaExpr::rename(keep, expr);
    Ok(expr)
}

fn rule_to_ra(
    rule: &Rule,
    catalog: &Catalog,
    idb_exprs: &BTreeMap<String, RaExpr>,
    mode: Mode,
) -> CoreResult<RaExpr> {
    let mut uniq = 0usize;
    // Join positive atoms naturally (shared variable names join).
    let mut positive: Option<RaExpr> = None;
    for lit in &rule.body {
        if let Literal::Pos(atom) = lit {
            let e = atom_expr(atom, catalog, idb_exprs, &mut uniq)?;
            positive = Some(match positive {
                Some(acc) => RaExpr::natural_join(acc, e),
                None => e,
            });
        }
    }
    let positive =
        positive.ok_or_else(|| CoreError::Invalid("rule without positive atoms".into()))?;
    let pos_schema = positive.schema(catalog)?;

    let mut expr = positive.clone();
    for lit in &rule.body {
        if let Literal::Neg(atom) = lit {
            let natom = atom_expr(atom, catalog, idb_exprs, &mut uniq)?;
            let neg_vars = natom.schema(catalog)?;
            match mode {
                Mode::Antijoin => {
                    // eq. (10): one antijoin per negated atom on the
                    // shared variables.
                    let cond = JoinCond(
                        neg_vars
                            .iter()
                            .map(|v| (v.clone(), CmpOp::Eq, v.clone()))
                            .collect(),
                    );
                    expr = RaExpr::antijoin(cond, expr, natom);
                }
                Mode::Basic => {
                    // eq. (5): complement-pad the negated side with z (the
                    // positive variables it misses), then subtract.
                    let z: Vec<String> = pos_schema
                        .iter()
                        .filter(|a| !neg_vars.contains(a))
                        .cloned()
                        .collect();
                    let padded = if z.is_empty() {
                        natom
                    } else {
                        RaExpr::product(natom, RaExpr::project(z, positive.clone()))
                    };
                    // Align attribute order with the current expression.
                    let cur_schema = expr.schema(catalog)?;
                    let aligned = RaExpr::project(cur_schema.clone(), padded);
                    expr = RaExpr::diff(expr, aligned);
                }
            }
        }
    }
    // Built-ins become selections.
    let mut conds = Vec::new();
    for b in rule.builtins() {
        let term = |t: &DlTerm| -> CoreResult<RaTerm> {
            Ok(match t {
                DlTerm::Var(v) => RaTerm::attr(v.clone()),
                DlTerm::Const(c) => RaTerm::Const(c.clone()),
                DlTerm::Wildcard => return Err(CoreError::Invalid("wildcard in built-in".into())),
            })
        };
        conds.push(Condition::Cmp(term(&b.left)?, b.op, term(&b.right)?));
    }
    if !conds.is_empty() {
        expr = RaExpr::select(Condition::And(conds), expr);
    }
    // Project the head variables (in head order) and normalize names.
    let head_vars: Vec<String> = rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            DlTerm::Var(v) => Ok(v.clone()),
            other => Err(CoreError::Invalid(format!(
                "head term {other} is not a variable (constants in heads unsupported)"
            ))),
        })
        .collect::<CoreResult<_>>()?;
    // Reject duplicate head variables (q(x,x)): RA projection would need
    // a copy operator.
    for (i, v) in head_vars.iter().enumerate() {
        if head_vars[..i].contains(v) {
            return Err(CoreError::Invalid(format!(
                "duplicate head variable '{v}' unsupported in RA translation"
            )));
        }
    }
    expr = RaExpr::project(head_vars.clone(), expr);
    expr = RaExpr::rename(
        head_vars
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, canon_attr(i))),
        expr,
    );
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_ra;
    use rd_core::{Database, Relation, TableSchema, Tuple};
    use rd_datalog::parser::parse_program;
    use rd_ra::check::{is_ra_star, is_ra_star_antijoin};

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
        ])
        .unwrap()
    }

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
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["A"]), [[1i64], [9]]).unwrap());
        db
    }

    /// Translates `program` both ways and checks each RA expression
    /// answers `expected` (computed by hand over [`db`]).
    fn agree_both_modes<const N: usize>(program: &str, expected: &[[i64; N]]) {
        let p = parse_program(program, &catalog()).unwrap();
        let expected: Vec<Tuple> = expected.iter().map(|r| Tuple::new(*r)).collect();
        for (name, expr) in [
            ("basic", datalog_to_ra(&p, &catalog()).unwrap()),
            ("antijoin", datalog_to_ra_antijoin(&p, &catalog()).unwrap()),
        ] {
            let got: Vec<Tuple> = eval_ra(&expr, &db()).unwrap().iter().cloned().collect();
            assert_eq!(
                got, expected,
                "{name} mode mismatch for program:\n{program}\nexpr: {expr}"
            );
        }
    }

    #[test]
    fn conjunctive_rules_agree() {
        agree_both_modes("Q(x) :- R(x, y), S(y).", &[[1], [2]]);
        agree_both_modes("Q(x, y) :- R(x, y), y > 15.", &[[1, 20], [3, 30]]);
        agree_both_modes("Q(x) :- R(x, 10).", &[[1], [2]]);
        agree_both_modes("Q(x) :- R(x, _), T(x).", &[[1]]);
    }

    #[test]
    fn fig13g_negation_needs_padding_in_basic_mode() {
        // Q(x,y) :- R(x,y), ¬S(y)  (eq. 8, Lemma 19's witness)
        let p = parse_program("Q(x, y) :- R(x, y), not S(y).", &catalog()).unwrap();
        let basic = datalog_to_ra(&p, &catalog()).unwrap();
        assert!(is_ra_star(&basic));
        // Basic mode duplicates R (the paper's point):
        assert!(basic.signature().len() > p.signature().len());
        // Antijoin mode preserves the signature (Theorem 21):
        let anti = datalog_to_ra_antijoin(&p, &catalog()).unwrap();
        assert!(is_ra_star_antijoin(&anti));
        assert_eq!(anti.signature(), vec!["R", "S"]);
        agree_both_modes("Q(x, y) :- R(x, y), not S(y).", &[[3, 30]]);
    }

    #[test]
    fn division_agrees() {
        agree_both_modes(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &[[1]],
        );
    }

    #[test]
    fn equal_schema_negation_stays_pattern_preserving_in_basic_mode() {
        // ¬ atom binds ALL positive variables: z = ∅, no duplication.
        let p = parse_program("Q(y) :- S(y), not R(1, y).", &catalog()).unwrap();
        let basic = datalog_to_ra(&p, &catalog()).unwrap();
        assert_eq!(basic.signature(), vec!["S", "R"]);
        // R(1, 10) and R(1, 20) both exist: nothing survives.
        agree_both_modes::<1>("Q(y) :- S(y), not R(1, y).", &[]);
        agree_both_modes("Q(y) :- S(y), not R(2, y).", &[[20]]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let p = parse_program("Q(x) :- R(x, x).", &catalog()).unwrap();
        let e = datalog_to_ra(&p, &catalog()).unwrap();
        let out = eval_ra(&e, &d).unwrap();
        assert_eq!(
            out.iter().cloned().collect::<Vec<_>>(),
            [Tuple::new([7i64])]
        );
    }

    #[test]
    fn disjunctive_program_rejected() {
        let p =
            rd_datalog::parser::parse_program_unchecked("Q(x) :- R(x, _).\nQ(x) :- T(x).").unwrap();
        assert!(datalog_to_ra(&p, &catalog()).is_err());
    }

    #[test]
    fn builtin_only_connection_example12() {
        // Q1(x) :- R(x), S(y), x > y  over unary R — use T(A) as unary here.
        // No T value (1, 9) exceeds an S value (10, 20); every one is
        // below 20.
        agree_both_modes::<1>("Q(x) :- T(x), S(y), x > y.", &[]);
        agree_both_modes("Q(x) :- T(x), S(y), x < y.", &[[1], [9]]);
    }
}
