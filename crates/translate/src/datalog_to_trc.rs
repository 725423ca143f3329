//! Datalog\* → TRC\* (Appendix C, proof part 3).
//!
//! Each rule translates into an existential block: positive EDB atoms
//! become quantified tuple variables with equality predicates wiring up
//! shared Datalog variables; negated EDB atoms become `¬(∃…)` blocks; IDB
//! atoms are *inlined* (legal because Datalog\* uses every IDB at most
//! once), which keeps the translation pattern-preserving — the TRC query
//! has exactly one table reference per EDB atom of the program.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_trc::ast::{Binding, Formula, OutputSpec, Predicate, Term, TrcQuery};
use std::collections::BTreeMap;

struct Ctx<'a> {
    program: &'a DlProgram,
    catalog: &'a Catalog,
    idbs: std::collections::BTreeSet<String>,
    fresh: usize,
    /// The output head's name, which no tuple variable may take.
    head: &'a str,
}

/// Binds Datalog variable `var` to `rep`, or, when an earlier position
/// already bound it (a call `I(v, v)` of a rule headed `I(y, z)`),
/// records that the two terms must be equal.
fn bind(env: &mut BTreeMap<String, Term>, parts: &mut Vec<Formula>, var: String, rep: Term) {
    match env.get(&var) {
        Some(prev) => parts.push(Formula::Pred(Predicate::new(prev.clone(), CmpOp::Eq, rep))),
        None => {
            env.insert(var, rep);
        }
    }
}

impl<'a> Ctx<'a> {
    fn fresh_var(&mut self) -> String {
        loop {
            self.fresh += 1;
            let v = format!("t{}", self.fresh);
            if v != self.head {
                return v;
            }
        }
    }

    fn rule_for(&self, idb: &str) -> CoreResult<&'a Rule> {
        self.program
            .rules
            .iter()
            .find(|r| r.head.pred == idb)
            .ok_or_else(|| CoreError::Invalid(format!("IDB '{idb}' has no rule")))
    }

    /// Expands a rule body into (bindings, conjunct parts) under `env`
    /// (Datalog variable → TRC term). `env` is extended with
    /// representatives for variables first bound here.
    fn expand_body(
        &mut self,
        rule: &'a Rule,
        env: &mut BTreeMap<String, Term>,
    ) -> CoreResult<(Vec<Binding>, Vec<Formula>)> {
        let mut bindings = Vec::new();
        let mut parts = Vec::new();

        // Pass 1: positive EDB atoms bind tuple variables and establish
        // representatives.
        for lit in &rule.body {
            if let Literal::Pos(atom) = lit {
                if self.idbs.contains(&atom.pred) {
                    continue;
                }
                let schema = self.catalog.require(&atom.pred)?;
                let tv = self.fresh_var();
                bindings.push(Binding::new(tv.clone(), atom.pred.clone()));
                for (i, term) in atom.terms.iter().enumerate() {
                    let attr = schema.attrs()[i].clone();
                    let local = Term::attr(tv.clone(), attr);
                    match term {
                        DlTerm::Wildcard => {}
                        DlTerm::Const(c) => parts.push(Formula::Pred(Predicate::new(
                            local,
                            CmpOp::Eq,
                            Term::Const(c.clone()),
                        ))),
                        DlTerm::Var(v) => match env.get(v) {
                            Some(rep) => parts.push(Formula::Pred(Predicate::new(
                                local,
                                CmpOp::Eq,
                                rep.clone(),
                            ))),
                            None => {
                                env.insert(v.clone(), local);
                            }
                        },
                    }
                }
            }
        }

        // Pass 2: positive IDB atoms are inlined into this scope.
        for lit in &rule.body {
            if let Literal::Pos(atom) = lit {
                if !self.idbs.contains(&atom.pred) {
                    continue;
                }
                let inner_rule = self.rule_for(&atom.pred)?;
                let mut inner_env: BTreeMap<String, Term> = BTreeMap::new();
                // Seed bound arguments; remember positions of unbound ones.
                let mut exports: Vec<(usize, String)> = Vec::new();
                for (i, (callee, caller)) in
                    inner_rule.head.terms.iter().zip(&atom.terms).enumerate()
                {
                    let hv = match callee {
                        DlTerm::Var(v) => v.clone(),
                        DlTerm::Const(c) => {
                            // A constant in the callee's head fixes the
                            // caller's argument to it.
                            let value = Term::Const(c.clone());
                            match caller {
                                DlTerm::Const(d) => parts.push(Formula::Pred(Predicate::new(
                                    value,
                                    CmpOp::Eq,
                                    Term::Const(d.clone()),
                                ))),
                                DlTerm::Var(v) => bind(env, &mut parts, v.clone(), value),
                                DlTerm::Wildcard => {}
                            }
                            continue;
                        }
                        DlTerm::Wildcard => {
                            return Err(CoreError::Invalid("wildcard in IDB head".into()))
                        }
                    };
                    // The callee head var may repeat (`I(y, y)`); `bind`
                    // then adds an equality.
                    match caller {
                        DlTerm::Const(c) => {
                            bind(&mut inner_env, &mut parts, hv, Term::Const(c.clone()))
                        }
                        DlTerm::Var(v) => match env.get(v) {
                            Some(rep) => bind(&mut inner_env, &mut parts, hv, rep.clone()),
                            None => exports.push((i, v.clone())),
                        },
                        DlTerm::Wildcard => {}
                    }
                }
                let (inner_bindings, inner_parts) = self.expand_body(inner_rule, &mut inner_env)?;
                bindings.extend(inner_bindings);
                parts.extend(inner_parts);
                // Export representatives for caller variables first bound
                // by this IDB atom.
                for (i, caller_var) in exports {
                    let hv = inner_rule.head.terms[i]
                        .as_var()
                        .expect("checked above")
                        .to_string();
                    let rep = inner_env.get(&hv).cloned().ok_or_else(|| {
                        CoreError::Invalid(format!(
                            "head variable '{hv}' of IDB '{}' unbound after expansion",
                            atom.pred
                        ))
                    })?;
                    bind(env, &mut parts, caller_var, rep);
                }
            }
        }

        // Pass 3: built-ins and negated atoms (all variables now bound).
        for lit in &rule.body {
            match lit {
                Literal::Pos(_) => {}
                Literal::Cmp(b) => {
                    let term = |t: &DlTerm, env: &BTreeMap<String, Term>| -> CoreResult<Term> {
                        Ok(match t {
                            DlTerm::Var(v) => env.get(v).cloned().ok_or_else(|| {
                                CoreError::Invalid(format!("unbound variable '{v}'"))
                            })?,
                            DlTerm::Const(c) => Term::Const(c.clone()),
                            DlTerm::Wildcard => {
                                return Err(CoreError::Invalid("wildcard in built-in".into()))
                            }
                        })
                    };
                    parts.push(Formula::Pred(Predicate::new(
                        term(&b.left, env)?,
                        b.op,
                        term(&b.right, env)?,
                    )));
                }
                Literal::Neg(atom) => {
                    parts.push(self.negated_atom(atom, env)?);
                }
            }
        }
        Ok((bindings, parts))
    }

    fn negated_atom(&mut self, atom: &Atom, env: &BTreeMap<String, Term>) -> CoreResult<Formula> {
        if self.idbs.contains(&atom.pred) {
            // Inline the IDB rule under the negation.
            let inner_rule = self.rule_for(&atom.pred)?;
            let mut inner_env: BTreeMap<String, Term> = BTreeMap::new();
            let mut extra_eq: Vec<Formula> = Vec::new();
            for (callee, caller) in inner_rule.head.terms.iter().zip(&atom.terms) {
                let arg = match caller {
                    DlTerm::Const(c) => Term::Const(c.clone()),
                    DlTerm::Var(v) => env
                        .get(v)
                        .cloned()
                        .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'")))?,
                    // `_` leaves the position free: the inlined body
                    // quantifies it under the negation.
                    DlTerm::Wildcard => continue,
                };
                let hv = match callee {
                    DlTerm::Var(v) => v.clone(),
                    DlTerm::Const(c) => {
                        extra_eq.push(Formula::Pred(Predicate::new(
                            Term::Const(c.clone()),
                            CmpOp::Eq,
                            arg,
                        )));
                        continue;
                    }
                    DlTerm::Wildcard => {
                        return Err(CoreError::Invalid("wildcard in IDB head".into()))
                    }
                };
                bind(&mut inner_env, &mut extra_eq, hv, arg);
            }
            let (bindings, mut parts) = self.expand_body(inner_rule, &mut inner_env)?;
            parts.extend(extra_eq);
            let body = Formula::and(parts);
            Ok(Formula::not(if bindings.is_empty() {
                body
            } else {
                Formula::exists(bindings, body)
            }))
        } else {
            // Negated EDB atom: ¬(∃t ∈ R [t.Aᵢ = repᵢ ∧ …]).
            let schema = self.catalog.require(&atom.pred)?;
            let tv = self.fresh_var();
            let mut parts = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                let local = Term::attr(tv.clone(), schema.attrs()[i].clone());
                match term {
                    DlTerm::Wildcard => {}
                    DlTerm::Const(c) => parts.push(Formula::Pred(Predicate::new(
                        local,
                        CmpOp::Eq,
                        Term::Const(c.clone()),
                    ))),
                    DlTerm::Var(v) => {
                        let rep = env
                            .get(v)
                            .cloned()
                            .ok_or_else(|| CoreError::Invalid(format!("unbound variable '{v}'")))?;
                        parts.push(Formula::Pred(Predicate::new(local, CmpOp::Eq, rep)));
                    }
                }
            }
            Ok(Formula::not(Formula::exists(
                vec![Binding::new(tv, atom.pred.clone())],
                Formula::and(parts),
            )))
        }
    }
}

/// Translates a Datalog\* program into a pattern-isomorphic TRC\* query
/// whose output head `q` names each attribute after the query rule's
/// head variable.
pub fn datalog_to_trc(p: &DlProgram, catalog: &Catalog) -> CoreResult<TrcQuery> {
    let vars = query_rule(p)?
        .head
        .terms
        .iter()
        .map(|t| match t {
            DlTerm::Var(v) => Ok(v.clone()),
            other => Err(CoreError::Invalid(format!(
                "query head term {other} is not a variable"
            ))),
        })
        .collect::<CoreResult<Vec<String>>>()?;
    datalog_to_trc_as(p, catalog, OutputSpec::new("q", vars))
}

/// [`datalog_to_trc`] with a given output head: attribute `i` of `head`
/// is defined by the query rule's `i`-th head term, a variable or a
/// constant. This is how a program is answered under its own schema
/// ([`DlProgram::output_schema`]) when it compiles through TRC.
pub fn datalog_to_trc_as(
    p: &DlProgram,
    catalog: &Catalog,
    head: OutputSpec,
) -> CoreResult<TrcQuery> {
    rd_datalog::check::check_program(p, catalog)?;
    if !rd_datalog::check::is_datalog_star(p) {
        return Err(CoreError::Invalid(
            "program is outside Datalog* (Definition 1)".into(),
        ));
    }
    let query_rule = query_rule(p)?;
    if query_rule.head.terms.len() != head.attrs.len() {
        return Err(CoreError::Invalid(format!(
            "output head {}({}) does not match the arity of {}",
            head.name,
            head.attrs.join(", "),
            query_rule.head
        )));
    }
    let mut ctx = Ctx {
        program: p,
        catalog,
        idbs: p.idbs(),
        fresh: 0,
        head: &head.name,
    };
    let mut env = BTreeMap::new();
    let (bindings, mut parts) = ctx.expand_body(query_rule, &mut env)?;
    let mut defining = Vec::with_capacity(head.attrs.len());
    for (attr, term) in head.attrs.iter().zip(&query_rule.head.terms) {
        let rep = match term {
            DlTerm::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| CoreError::Invalid(format!("head variable '{v}' unbound")))?,
            DlTerm::Const(c) => Term::Const(c.clone()),
            DlTerm::Wildcard => return Err(CoreError::Invalid("wildcard in query head".into())),
        };
        defining.push(Formula::Pred(Predicate::new(
            Term::attr(head.name.clone(), attr.clone()),
            CmpOp::Eq,
            rep,
        )));
    }
    defining.append(&mut parts);
    let q = TrcQuery::query(head, Formula::exists(bindings, Formula::and(defining)));
    q.check(catalog)?;
    Ok(q)
}

/// The rule defining the program's query predicate.
fn query_rule(p: &DlProgram) -> CoreResult<&Rule> {
    p.rules
        .iter()
        .find(|r| r.head.pred == p.query)
        .ok_or_else(|| CoreError::Invalid(format!("IDB '{}' has no rule", p.query)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Database, Relation, TableSchema, Tuple};
    use rd_datalog::parser::parse_program;
    use rd_trc::check::is_nondisjunctive;
    use rd_trc::eval::eval_query;

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

    /// `rows` as a tuple set, for comparing with hand-computed answers.
    fn tuples<const N: usize>(rows: &[[i64; N]]) -> Vec<Tuple> {
        rows.iter().map(|r| Tuple::new(*r)).collect()
    }

    /// Translates `program`, checks the pattern is preserved, and checks
    /// the TRC query answers `expected` (computed by hand over [`db`]).
    fn agree_and_preserve<const N: usize>(program: &str, expected: &[[i64; N]]) {
        let p = parse_program(program, &catalog()).unwrap();
        let q = datalog_to_trc(&p, &catalog()).unwrap();
        assert!(is_nondisjunctive(&q), "not TRC*: {q}");
        // Pattern isomorphism is defined up to permutation (Def. 12), so
        // compare signatures as multisets.
        let mut a = q.signature();
        let mut b = p.signature();
        a.sort();
        b.sort();
        assert_eq!(a, b, "signature not preserved for:\n{program}\ntrc: {q}");
        let trc_out = eval_query(&q, &db()).unwrap();
        let got: Vec<Tuple> = trc_out.iter().cloned().collect();
        assert_eq!(got, tuples(expected), "mismatch for:\n{program}\ntrc: {q}");
    }

    #[test]
    fn conjunctive_rules() {
        agree_and_preserve("Q(x) :- R(x, y), S(y).", &[[1], [2]]);
        agree_and_preserve("Q(x, y) :- R(x, y), y > 15.", &[[1, 20], [3, 30]]);
        agree_and_preserve("Q(x) :- R(x, 10).", &[[1], [2]]);
        agree_and_preserve("Q(x) :- R(x, _), T(x).", &[[1]]);
    }

    #[test]
    fn single_negation() {
        agree_and_preserve("Q(x, y) :- R(x, y), not S(y).", &[[3, 30]]);
    }

    #[test]
    fn division_with_idb_inlining() {
        agree_and_preserve(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &[[1]],
        );
    }

    #[test]
    fn positive_idb_inlines_into_same_scope() {
        agree_and_preserve(
            "I(y) :- R(_, y), not S(y).\nQ(x, y) :- R(x, y), I(y).",
            &[[3, 30]],
        );
    }

    #[test]
    fn positive_idb_binding_a_fresh_variable() {
        // x is first bound inside the positive IDB atom.
        agree_and_preserve("I(x) :- T(x).\nQ(x) :- I(x).", &[[1], [9]]);
    }

    #[test]
    fn three_level_negation_chain() {
        // I1 is empty (R(1, 10) and R(1, 20) exist), so I2 is all of R.
        agree_and_preserve(
            "I1(y) :- S(y), not R(1, y).\nI2(x, y) :- R(x, y), not I1(y).\nQ(x) :- T(x), I2(x, _).",
            &[[1]],
        );
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        let p = parse_program("Q(x) :- R(x, x).", &catalog()).unwrap();
        let q = datalog_to_trc(&p, &catalog()).unwrap();
        let out = eval_query(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn repeated_variable_across_an_idb_call() {
        // The caller's `I(x, x)` equates the callee's two head variables;
        // the callee's `I(y, y)` equates the caller's two arguments.
        let mut d = db();
        d.relation_mut("R")
            .unwrap()
            .insert_values([7i64, 7])
            .unwrap();
        for (program, expected) in [
            ("I(y, z) :- R(y, z).\nQ(x) :- I(x, x).", tuples(&[[7]])),
            // I = {(y, 10)}: no R.A is 10.
            ("I(y, 10) :- R(y, _).\nQ(x) :- I(x, x).", Vec::new()),
            ("I(y, 7) :- R(y, _).\nQ(x) :- I(x, x).", tuples(&[[7]])),
            // I(y, 10) holds for y = 10 only.
            (
                "I(y, y) :- S(y).\nQ(x) :- R(x, y), I(y, 10).",
                tuples(&[[1], [2]]),
            ),
        ] {
            let p = parse_program(program, &catalog()).unwrap();
            let q = datalog_to_trc(&p, &catalog()).unwrap();
            let got: Vec<Tuple> = eval_query(&q, &d).unwrap().iter().cloned().collect();
            assert_eq!(got, expected, "mismatch for:\n{program}\ntrc: {q}");
        }
    }

    #[test]
    fn rejects_disjunctive_programs() {
        let p =
            rd_datalog::parser::parse_program_unchecked("Q(x) :- T(x).\nQ(x) :- R(x, _).").unwrap();
        assert!(datalog_to_trc(&p, &catalog()).is_err());
    }
}
