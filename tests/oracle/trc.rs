//! A textbook evaluator for tuple relational calculus, used as the test
//! oracle for the engine.
//!
//! It reads the TRC AST ([`rd_trc::ast`]) and applies the semantics the
//! paper and its companion (Gatterbauer et al., *Relational Diagrams*,
//! arXiv 2203.07284) give safe TRC, with none of the engine's machinery:
//! no plan IR, no interned symbols, no hash tables or indexes. Relations
//! are read once as plain `Int`/`Str` tuples ([`Relation::resolved`]);
//! an existential block is a nested loop over its tables; the output
//! tuple variable ranges over the active domain (every database value
//! plus every constant of the query) raised to the head's arity; and a
//! Boolean sentence is the 0-ary relation — `{()}` when true, `{}` when
//! false.
//!
//! The one liberty taken is the textbook one for nested loops: inside a
//! block, a comparison whose variables are all bound is tested as soon
//! as they are, before the loops over the block's later tables. That
//! prunes work without changing any answer.

use rd_core::{CmpOp, Database, Relation, Tuple, Value};
use rd_trc::ast::{Binding, Formula, Predicate, Term, TrcQuery};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A database as the oracle sees it: each table's attribute names and
/// its tuples in the resolved (string) representation.
struct Instance {
    tables: BTreeMap<String, (Vec<String>, Vec<Tuple>)>,
}

impl Instance {
    /// Reads every relation of `db` into plain `Int`/`Str` tuples.
    fn of(db: &Database) -> Instance {
        let tables = db
            .iter()
            .map(|rel: &Relation| {
                let attrs = rel.schema().attrs().to_vec();
                let tuples = rel.resolved().iter().cloned().collect();
                (rel.name().to_string(), (attrs, tuples))
            })
            .collect();
        Instance { tables }
    }

    /// Every value stored in the database.
    fn values(&self) -> BTreeSet<Value> {
        self.tables
            .values()
            .flat_map(|(_, tuples)| tuples.iter().flat_map(|t| t.iter().cloned()))
            .collect()
    }

    fn table(&self, name: &str) -> &(Vec<String>, Vec<Tuple>) {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("oracle: no table '{name}'"))
    }
}

/// The answer to one TRC query (or sentence) over `db`.
pub fn answer(q: &TrcQuery, db: &Database) -> BTreeSet<Tuple> {
    let inst = &Instance::of(db);
    let Some(head) = &q.output else {
        // A sentence: the 0-ary relation, {()} or {}.
        let holds = satisfied(&q.formula, &mut Vec::new(), inst);
        return if holds {
            BTreeSet::from([Tuple(Vec::new())])
        } else {
            BTreeSet::new()
        };
    };
    let mut domain = inst.values();
    collect_constants(&q.formula, &mut domain);
    let domain: Vec<Value> = domain.into_iter().collect();
    let mut out = BTreeSet::new();
    // Every candidate head tuple in domain^arity, in odometer order.
    let arity = head.attrs.len();
    let mut digits = vec![0usize; arity];
    if arity > 0 && domain.is_empty() {
        return out;
    }
    loop {
        let candidate = Tuple(digits.iter().map(|&d| domain[d].clone()).collect());
        let mut env = vec![Bound {
            var: &head.name,
            attrs: &head.attrs,
            tuple: &candidate,
        }];
        if satisfied(&q.formula, &mut env, inst) {
            out.insert(candidate.clone());
        }
        // Advance the odometer; done once every digit wraps.
        let mut i = arity;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            digits[i] += 1;
            if digits[i] < domain.len() {
                break;
            }
            digits[i] = 0;
        }
    }
}

/// One tuple variable in scope: its name, the attribute names of its
/// table, and the tuple it is bound to.
struct Bound<'a> {
    var: &'a str,
    attrs: &'a [String],
    tuple: &'a Tuple,
}

/// The value of `t` under `env` (the innermost binding of a name wins).
fn value_of<'a>(t: &'a Term, env: &'a [Bound<'a>]) -> &'a Value {
    match t {
        Term::Const(v) => v,
        Term::Attr(a) => {
            let b = env
                .iter()
                .rev()
                .find(|b| b.var == a.var)
                .unwrap_or_else(|| panic!("oracle: unbound variable '{}'", a.var));
            let col = b
                .attrs
                .iter()
                .position(|x| *x == a.attr)
                .unwrap_or_else(|| panic!("oracle: '{}' has no attribute '{}'", a.var, a.attr));
            b.tuple.get(col)
        }
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

fn compare(p: &Predicate, env: &[Bound<'_>]) -> bool {
    let o = order(value_of(&p.left, env), value_of(&p.right, env));
    match p.op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    }
}

/// `true` if `f` holds under `env`.
fn satisfied<'a>(f: &'a Formula, env: &mut Vec<Bound<'a>>, inst: &'a Instance) -> bool {
    match f {
        Formula::And(fs) => fs.iter().all(|g| satisfied(g, env, inst)),
        Formula::Or(fs) => fs.iter().any(|g| satisfied(g, env, inst)),
        Formula::Not(g) => !satisfied(g, env, inst),
        Formula::Pred(p) => compare(p, env),
        Formula::Exists(bindings, body) => {
            let names: Vec<&str> = bindings.iter().map(|b| b.var.as_str()).collect();
            let conjuncts: Vec<&Formula> = match body.as_ref() {
                Formula::And(fs) => fs.iter().collect(),
                other => vec![other],
            };
            // Comparisons of the body, each with the index of the last
            // table of this block it reads: it can be tested as soon as
            // that table's variable is bound.
            let early: Vec<(usize, &Predicate)> = conjuncts
                .iter()
                .filter_map(|c| match c {
                    Formula::Pred(p) => {
                        let level = p
                            .vars()
                            .filter_map(|v| names.iter().rposition(|n| n == v))
                            .max();
                        Some((level.unwrap_or(0), p))
                    }
                    _ => None,
                })
                .collect();
            exists_from(0, bindings, &early, body, env, inst)
        }
    }
}

/// The nested loop of an existential block from table `i` on: `true` as
/// soon as one assignment of the remaining variables satisfies `body`.
fn exists_from<'a>(
    i: usize,
    bindings: &'a [Binding],
    early: &[(usize, &'a Predicate)],
    body: &'a Formula,
    env: &mut Vec<Bound<'a>>,
    inst: &'a Instance,
) -> bool {
    if i == bindings.len() {
        return satisfied(body, env, inst);
    }
    let (attrs, tuples) = inst.table(&bindings[i].table);
    for t in tuples {
        env.push(Bound {
            var: &bindings[i].var,
            attrs,
            tuple: t,
        });
        let found = early
            .iter()
            .filter(|(level, _)| *level == i)
            .all(|(_, p)| compare(p, env))
            && exists_from(i + 1, bindings, early, body, env, inst);
        env.pop();
        if found {
            return true;
        }
    }
    false
}

fn collect_constants(f: &Formula, out: &mut BTreeSet<Value>) {
    f.visit_predicates(&mut |p| {
        for t in [&p.left, &p.right] {
            if let Term::Const(v) = t {
                out.insert(v.clone());
            }
        }
    });
}
