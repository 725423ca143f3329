//! A textbook evaluator for non-recursive Datalog¬, used as a test
//! oracle for the engine.
//!
//! It reads the Datalog AST ([`rd_datalog::ast`]) with the set
//! semantics of the paper (§2.1) and none of the engine's machinery: no
//! plan IR, no translation, no interned symbols, no indexes. Tables are
//! read once as plain `Int`/`Str` tuples ([`Relation::resolved`]); an
//! IDB is the union of its rules' answers, computed once on first use;
//! a rule is a nested loop over its positive atoms in body order,
//! binding variables by name, after which its built-ins and negated
//! atoms are tested and its head projected.

use rd_core::{CmpOp, Database, Relation, Tuple, Value};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// The answer to `p`'s query predicate over `db`.
pub fn answer(p: &DlProgram, db: &Database) -> BTreeSet<Tuple> {
    let mut known: BTreeMap<String, BTreeSet<Tuple>> = db
        .iter()
        .map(|rel: &Relation| {
            let tuples = rel.resolved().iter().cloned().collect();
            (rel.name().to_string(), tuples)
        })
        .collect();
    // An IDB shadows a same-named table.
    for rule in &p.rules {
        known.remove(&rule.head.pred);
    }
    relation(&p.query, p, &mut known).clone()
}

/// The tuples of `pred`: a table, or an IDB computed from its rules.
fn relation<'k>(
    pred: &str,
    p: &DlProgram,
    known: &'k mut BTreeMap<String, BTreeSet<Tuple>>,
) -> &'k BTreeSet<Tuple> {
    if !known.contains_key(pred) {
        let mut tuples = BTreeSet::new();
        for rule in p.rules.iter().filter(|r| r.head.pred == pred) {
            for atom in rule.body.iter().filter_map(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => Some(a),
                Literal::Cmp(_) => None,
            }) {
                relation(&atom.pred, p, known);
            }
            tuples.extend(rule_answers(rule, known));
        }
        known.insert(pred.to_string(), tuples);
    }
    &known[pred]
}

type Env = BTreeMap<String, Value>;

/// The head tuples of every assignment satisfying `rule`'s body.
fn rule_answers(rule: &Rule, known: &BTreeMap<String, BTreeSet<Tuple>>) -> Vec<Tuple> {
    let positives: Vec<&Atom> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    assign(&positives, rule, known, &mut Env::new(), &mut out);
    out
}

fn assign(
    atoms: &[&Atom],
    rule: &Rule,
    known: &BTreeMap<String, BTreeSet<Tuple>>,
    env: &mut Env,
    out: &mut Vec<Tuple>,
) {
    let Some((atom, rest)) = atoms.split_first() else {
        if rule.body.iter().all(|l| literal_holds(l, known, env)) {
            out.push(Tuple(
                rule.head.terms.iter().map(|t| value(t, env)).collect(),
            ));
        }
        return;
    };
    for t in &known[&atom.pred] {
        let mut bound = Vec::new();
        if matches(atom, t, env, &mut bound) {
            assign(rest, rule, known, env, out);
        }
        for v in bound {
            env.remove(&v);
        }
    }
}

/// `true` if `t` matches `atom` under `env`, binding the atom's
/// still-free variables (recorded in `bound`, to undo).
fn matches(atom: &Atom, t: &Tuple, env: &mut Env, bound: &mut Vec<String>) -> bool {
    for (term, v) in atom.terms.iter().zip(t.iter()) {
        match term {
            DlTerm::Wildcard => {}
            DlTerm::Const(c) => {
                if order(c, v) != Ordering::Equal {
                    return false;
                }
            }
            DlTerm::Var(x) => match env.get(x) {
                Some(prev) if order(prev, v) != Ordering::Equal => return false,
                Some(_) => {}
                None => {
                    env.insert(x.clone(), v.clone());
                    bound.push(x.clone());
                }
            },
        }
    }
    true
}

fn literal_holds(l: &Literal, known: &BTreeMap<String, BTreeSet<Tuple>>, env: &Env) -> bool {
    match l {
        Literal::Pos(_) => true,
        Literal::Neg(atom) => !known[&atom.pred]
            .iter()
            .any(|t| matches(atom, t, &mut env.clone(), &mut Vec::new())),
        Literal::Cmp(b) => holds(b.op, &value(&b.left, env), &value(&b.right, env)),
    }
}

fn value(t: &DlTerm, env: &Env) -> Value {
    match t {
        DlTerm::Var(x) => env
            .get(x)
            .unwrap_or_else(|| panic!("oracle: unbound variable '{x}'"))
            .clone(),
        DlTerm::Const(c) => c.clone(),
        DlTerm::Wildcard => panic!("oracle: wildcard in value position"),
    }
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
