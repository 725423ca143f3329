//! A textbook evaluator for relational algebra, used as a test oracle
//! for the engine.
//!
//! It reads the RA AST ([`rd_ra::ast`]) under the named perspective and
//! set semantics of the paper (§2.2), with none of the engine's
//! machinery: no plan IR, no translation, no interned symbols, no hash
//! tables. Tables are read once as plain `Int`/`Str` tuples
//! ([`Relation::resolved`]); every operator builds its whole result,
//! and joins and antijoins are nested loops over both operands.

use rd_core::{CmpOp, Database, Relation, Tuple, Value};
use rd_ra::ast::{Condition, RaExpr, RaTerm};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// An intermediate result: attribute names and a set of tuples.
#[derive(Clone)]
struct Table {
    attrs: Vec<String>,
    tuples: BTreeSet<Tuple>,
}

impl Table {
    fn col(&self, attr: &str) -> usize {
        self.attrs
            .iter()
            .position(|a| a == attr)
            .unwrap_or_else(|| panic!("oracle: no attribute '{attr}' in {:?}", self.attrs))
    }
}

/// The answer to `e` over `db`: its attribute names and its tuples.
pub fn answer(e: &RaExpr, db: &Database) -> (Vec<String>, BTreeSet<Tuple>) {
    let tables: BTreeMap<String, Table> = db
        .iter()
        .map(|rel: &Relation| {
            let table = Table {
                attrs: rel.schema().attrs().to_vec(),
                tuples: rel.resolved().iter().cloned().collect(),
            };
            (rel.name().to_string(), table)
        })
        .collect();
    let out = eval(e, &tables);
    (out.attrs, out.tuples)
}

/// The domain order: integers numerically, before all strings; strings
/// lexicographically.
fn order(l: &Value, r: &Value) -> Ordering {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Int(_), Value::Str(_)) => Ordering::Less,
        (Value::Str(_), Value::Int(_)) => Ordering::Greater,
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => panic!("oracle: interned value {l:?} / {r:?} in a resolved instance"),
    }
}

fn holds(op: CmpOp, l: &Value, r: &Value) -> bool {
    let o = order(l, r);
    match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    }
}

fn satisfies(cond: &Condition, table: &Table, t: &Tuple) -> bool {
    let value = |term: &RaTerm| -> Value {
        match term {
            RaTerm::Attr(a) => t.get(table.col(a)).clone(),
            RaTerm::Const(v) => v.clone(),
        }
    };
    match cond {
        Condition::Cmp(l, op, r) => holds(*op, &value(l), &value(r)),
        Condition::And(cs) => cs.iter().all(|c| satisfies(c, table, t)),
        Condition::Or(cs) => cs.iter().any(|c| satisfies(c, table, t)),
    }
}

/// `true` if `l` and `r` pass every `(left attribute, op, right
/// attribute)` check.
fn joined(checks: &[(usize, CmpOp, usize)], l: &Tuple, r: &Tuple) -> bool {
    checks
        .iter()
        .all(|&(lc, op, rc)| holds(op, l.get(lc), r.get(rc)))
}

/// Checks resolving `(left attribute, op, right attribute)` triples to
/// columns; the natural ones equate every shared attribute name.
fn checks(pairs: &[(String, CmpOp, String)], l: &Table, r: &Table) -> Vec<(usize, CmpOp, usize)> {
    pairs
        .iter()
        .map(|(la, op, ra)| (l.col(la), *op, r.col(ra)))
        .collect()
}

fn natural(l: &Table, r: &Table) -> Vec<(usize, CmpOp, usize)> {
    l.attrs
        .iter()
        .enumerate()
        .filter(|(_, a)| r.attrs.contains(a))
        .map(|(lc, a)| (lc, CmpOp::Eq, r.col(a)))
        .collect()
}

fn eval(e: &RaExpr, tables: &BTreeMap<String, Table>) -> Table {
    match e {
        RaExpr::Table(name) => tables
            .get(name)
            .unwrap_or_else(|| panic!("oracle: no table '{name}'"))
            .clone(),
        RaExpr::Project(attrs, inner) => {
            let input = eval(inner, tables);
            let cols: Vec<usize> = attrs.iter().map(|a| input.col(a)).collect();
            Table {
                attrs: attrs.clone(),
                tuples: input
                    .tuples
                    .iter()
                    .map(|t| Tuple(cols.iter().map(|&c| t.get(c).clone()).collect()))
                    .collect(),
            }
        }
        RaExpr::Select(cond, inner) => {
            let input = eval(inner, tables);
            let tuples = input
                .tuples
                .iter()
                .filter(|t| satisfies(cond, &input, t))
                .cloned()
                .collect();
            Table { tuples, ..input }
        }
        RaExpr::Rename(renames, inner) => {
            let mut out = eval(inner, tables);
            for (from, to) in renames {
                let c = out.col(from);
                out.attrs[c] = to.clone();
            }
            out
        }
        RaExpr::Product(l, r) => product(&eval(l, tables), &eval(r, tables), &[]),
        RaExpr::Join(cond, l, r) => {
            let (l, r) = (eval(l, tables), eval(r, tables));
            product(&l, &r, &checks(&cond.0, &l, &r))
        }
        RaExpr::NaturalJoin(l, r) => {
            let (l, r) = (eval(l, tables), eval(r, tables));
            let on = natural(&l, &r);
            let kept: Vec<usize> = (0..r.attrs.len())
                .filter(|&c| !l.attrs.contains(&r.attrs[c]))
                .collect();
            let mut attrs = l.attrs.clone();
            attrs.extend(kept.iter().map(|&c| r.attrs[c].clone()));
            let mut tuples = BTreeSet::new();
            for lt in &l.tuples {
                for rt in &r.tuples {
                    if joined(&on, lt, rt) {
                        let mut row = lt.0.clone();
                        row.extend(kept.iter().map(|&c| rt.get(c).clone()));
                        tuples.insert(Tuple(row));
                    }
                }
            }
            Table { attrs, tuples }
        }
        RaExpr::Diff(l, r) => {
            let (l, r) = (eval(l, tables), eval(r, tables));
            let tuples = l.tuples.difference(&r.tuples).cloned().collect();
            Table { tuples, ..l }
        }
        RaExpr::Union(l, r) => {
            let (l, r) = (eval(l, tables), eval(r, tables));
            let tuples = l.tuples.union(&r.tuples).cloned().collect();
            Table { tuples, ..l }
        }
        RaExpr::Antijoin(cond, l, r) => {
            let (l, r) = (eval(l, tables), eval(r, tables));
            let on = match cond.0.is_empty() {
                true => natural(&l, &r),
                false => checks(&cond.0, &l, &r),
            };
            let tuples = l
                .tuples
                .iter()
                .filter(|lt| !r.tuples.iter().any(|rt| joined(&on, lt, rt)))
                .cloned()
                .collect();
            Table { tuples, ..l }
        }
    }
}

/// `l × r`, keeping the pairs that pass `on`.
fn product(l: &Table, r: &Table, on: &[(usize, CmpOp, usize)]) -> Table {
    let mut attrs = l.attrs.clone();
    attrs.extend(r.attrs.iter().cloned());
    let mut tuples = BTreeSet::new();
    for lt in &l.tuples {
        for rt in &r.tuples {
            if joined(on, lt, rt) {
                tuples.insert(Tuple(lt.0.iter().chain(&rt.0).cloned().collect()));
            }
        }
    }
    Table { attrs, tuples }
}
