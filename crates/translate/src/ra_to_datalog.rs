//! RA\* → Datalog\* (Appendix C, proof part 1) plus the antijoin case of
//! Theorem 21 (part 1), extended to all of RA.
//!
//! SPJR (select/project/join/rename) sub-expressions compile into a single
//! rule body; each difference or antijoin introduces one fresh IDB for its
//! right operand, exactly mirroring the paper's case analysis. On RA\*⊲
//! the translation is pattern-preserving: every base-table leaf of the RA
//! expression becomes exactly one EDB atom, and the program is Datalog\*.
//!
//! The operators outside RA\*⊲ are unions of non-disjunctive patterns
//! (§5), and Datalog states a union by repeating a head:
//!
//! * `l ∪ r` becomes one IDB with a rule per operand (nested unions
//!   flatten into the same IDB; a union at the root gives the query
//!   predicate several rules);
//! * `σ[c₁ ∨ c₂](e)` becomes one IDB with a rule per disjunct, each over
//!   `e` — materialized once as its own IDB unless it is a single atom;
//!   a disjunct that is itself disjunctive nests another such IDB;
//! * an antijoin `l ⊲θ r` with a non-equality in `θ` becomes
//!   `J(l̄) :- l, r, θ` and `l, not J(l̄)`, with `l` likewise materialized
//!   once unless it is a single atom.
//!
//! Each IDB so introduced is used once or has several rules, so every
//! step stays linear in the expression.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, BuiltIn, DlProgram, DlTerm, Literal, Rule};
use rd_ra::ast::{Condition, RaExpr, RaTerm};

/// State threaded through the compilation.
struct Compiler<'a> {
    catalog: &'a Catalog,
    rules: Vec<Rule>,
    next_idb: usize,
    next_var: usize,
}

/// A compiled sub-expression: body literals plus the mapping from the
/// expression's schema attributes to Datalog variables.
#[derive(Clone)]
struct Body {
    literals: Vec<Literal>,
    /// (attribute name, variable) in schema order.
    attr_vars: Vec<(String, String)>,
}

impl Body {
    fn var_of(&self, attr: &str) -> CoreResult<&str> {
        self.attr_vars
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CoreError::Invalid(format!("attribute '{attr}' missing in body")))
    }
}

impl<'a> Compiler<'a> {
    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("v{}", self.next_var)
    }

    /// A fresh IDB name, never one of the catalog's tables (an IDB
    /// would shadow it).
    fn fresh_idb(&mut self) -> String {
        loop {
            self.next_idb += 1;
            let name = format!("I{}", self.next_idb);
            if self.catalog.table(&name).is_none() {
                return name;
            }
        }
    }

    /// The head variables of `body`'s attributes, in schema order.
    fn head(body: &Body) -> Vec<DlTerm> {
        body.attr_vars
            .iter()
            .map(|(_, v)| DlTerm::var(v.clone()))
            .collect()
    }

    /// `body` as a single atom: itself if it is one, else a fresh IDB
    /// holding it (used where the operand is read twice).
    fn shareable(&mut self, body: Body) -> Body {
        if let [Literal::Pos(_)] = body.literals.as_slice() {
            return body;
        }
        let idb = self.fresh_idb();
        let head = Atom::new(idb, Self::head(&body));
        self.rules.push(Rule::new(head.clone(), body.literals));
        Body {
            literals: vec![Literal::Pos(head)],
            attr_vars: body.attr_vars,
        }
    }

    /// Emits one rule headed `idb` per operand of the union tree `e`
    /// (nested unions flatten); returns the union's attributes.
    fn union_rules(&mut self, idb: &str, e: &RaExpr) -> CoreResult<Vec<String>> {
        if let RaExpr::Union(l, r) = e {
            let attrs = self.union_rules(idb, l)?;
            self.union_rules(idb, r)?;
            return Ok(attrs);
        }
        let body = self.compile(e)?;
        let head = Atom::new(idb, Self::head(&body));
        self.rules.push(Rule::new(head, body.literals));
        Ok(body.attr_vars.into_iter().map(|(a, _)| a).collect())
    }

    /// Compiles `e` into a conjunctive body (emitting auxiliary rules for
    /// difference / antijoin right-hand sides).
    fn compile(&mut self, e: &RaExpr) -> CoreResult<Body> {
        match e {
            RaExpr::Table(t) => {
                let schema = self.catalog.require(t)?;
                let attr_vars: Vec<(String, String)> = schema
                    .attrs()
                    .iter()
                    .map(|a| (a.clone(), self.fresh_var()))
                    .collect();
                let terms: Vec<DlTerm> = attr_vars
                    .iter()
                    .map(|(_, v)| DlTerm::var(v.clone()))
                    .collect();
                Ok(Body {
                    literals: vec![Literal::Pos(Atom::new(t.clone(), terms))],
                    attr_vars,
                })
            }
            RaExpr::Project(attrs, inner) => {
                let body = self.compile(inner)?;
                let attr_vars = attrs
                    .iter()
                    .map(|a| Ok((a.clone(), body.var_of(a)?.to_string())))
                    .collect::<CoreResult<_>>()?;
                Ok(Body {
                    literals: body.literals,
                    attr_vars,
                })
            }
            RaExpr::Select(cond, inner) => {
                let body = self.compile(inner)?;
                self.select(cond, body)
            }
            RaExpr::Rename(renames, inner) => {
                let mut body = self.compile(inner)?;
                for (from, to) in renames {
                    let slot = body
                        .attr_vars
                        .iter_mut()
                        .find(|(a, _)| a == from)
                        .ok_or_else(|| {
                            CoreError::Invalid(format!("rename source '{from}' missing"))
                        })?;
                    slot.0 = to.clone();
                }
                Ok(body)
            }
            RaExpr::Product(l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                let mut literals = lb.literals;
                literals.extend(rb.literals);
                let mut attr_vars = lb.attr_vars;
                attr_vars.extend(rb.attr_vars);
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::Join(cond, l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                let mut builtins = Vec::new();
                for (la, op, ra) in &cond.0 {
                    builtins.push(BuiltIn::new(
                        DlTerm::var(lb.var_of(la)?),
                        *op,
                        DlTerm::var(rb.var_of(ra)?),
                    ));
                }
                let mut literals = lb.literals;
                literals.extend(rb.literals);
                literals.extend(builtins.into_iter().map(Literal::Cmp));
                let mut attr_vars = lb.attr_vars;
                attr_vars.extend(rb.attr_vars);
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::NaturalJoin(l, r) => {
                let lb = self.compile(l)?;
                let rb = self.compile(r)?;
                // Unify shared attribute variables via equality built-ins.
                let mut literals = lb.literals;
                literals.extend(rb.literals.clone());
                let mut attr_vars = lb.attr_vars.clone();
                for (a, rv) in &rb.attr_vars {
                    match lb.attr_vars.iter().find(|(la, _)| la == a) {
                        Some((_, lv)) => literals.push(Literal::Cmp(BuiltIn::new(
                            DlTerm::var(lv.clone()),
                            rd_core::CmpOp::Eq,
                            DlTerm::var(rv.clone()),
                        ))),
                        None => attr_vars.push((a.clone(), rv.clone())),
                    }
                }
                Ok(Body {
                    literals,
                    attr_vars,
                })
            }
            RaExpr::Diff(l, r) => {
                let lb = self.compile(l)?;
                // Right side becomes its own IDB (paper case 5) unless it
                // is a plain table, which is negated in place.
                let neg = self.negatable(r, &lb, None)?;
                let mut literals = lb.literals;
                literals.push(neg);
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Antijoin(cond, l, r) if cond.0.iter().any(|(_, op, _)| *op != CmpOp::Eq) => {
                // J(l̄) :- l, r, θ  and  l, not J(l̄).
                let lb = self.compile(l)?;
                let lb = self.shareable(lb);
                let rb = self.compile(r)?;
                let mut literals = lb.literals.clone();
                literals.extend(rb.literals.iter().cloned());
                for (la, op, ra) in &cond.0 {
                    literals.push(Literal::Cmp(BuiltIn::new(
                        DlTerm::var(lb.var_of(la)?),
                        *op,
                        DlTerm::var(rb.var_of(ra)?),
                    )));
                }
                let j = Atom::new(self.fresh_idb(), Self::head(&lb));
                self.rules.push(Rule::new(j.clone(), literals));
                let mut literals = lb.literals;
                literals.push(Literal::Neg(j));
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Antijoin(cond, l, r) => {
                // Theorem 21, case 6.
                let lb = self.compile(l)?;
                let pairs: Vec<(String, String)> = if cond.0.is_empty() {
                    // Natural antijoin: shared attribute names.
                    let rs = r.schema(self.catalog)?;
                    lb.attr_vars
                        .iter()
                        .filter(|(a, _)| rs.contains(a))
                        .map(|(a, _)| (a.clone(), a.clone()))
                        .collect()
                } else {
                    cond.0
                        .iter()
                        .map(|(la, _, ra)| (la.clone(), ra.clone()))
                        .collect()
                };
                let neg = self.negatable(r, &lb, Some(&pairs))?;
                let mut literals = lb.literals;
                literals.push(neg);
                Ok(Body {
                    literals,
                    attr_vars: lb.attr_vars,
                })
            }
            RaExpr::Union(..) => {
                let idb = self.fresh_idb();
                let attrs = self.union_rules(&idb, e)?;
                let attr_vars: Vec<(String, String)> =
                    attrs.into_iter().map(|a| (a, self.fresh_var())).collect();
                let terms = attr_vars.iter().map(|(_, v)| DlTerm::var(v.clone()));
                Ok(Body {
                    literals: vec![Literal::Pos(Atom::new(idb, terms))],
                    attr_vars,
                })
            }
        }
    }

    /// `σ[cond]` over `body`: comparisons become built-ins; a
    /// disjunction becomes one IDB with a rule per disjunct over the
    /// input, materialized once if it is more than one atom.
    fn select(&mut self, cond: &Condition, mut body: Body) -> CoreResult<Body> {
        match cond {
            Condition::Cmp(l, op, r) => {
                let builtin = BuiltIn::new(self.term(l, &body)?, *op, self.term(r, &body)?);
                body.literals.push(Literal::Cmp(builtin));
                Ok(body)
            }
            Condition::And(cs) => cs.iter().try_fold(body, |body, c| self.select(c, body)),
            Condition::Or(cs) => {
                let input = self.shareable(body);
                let head = Atom::new(self.fresh_idb(), Self::head(&input));
                for c in cs {
                    let disjunct = self.select(c, input.clone())?;
                    self.rules.push(Rule::new(head.clone(), disjunct.literals));
                }
                Ok(Body {
                    literals: vec![Literal::Pos(head)],
                    attr_vars: input.attr_vars,
                })
            }
        }
    }

    /// Builds the negated literal for a difference/antijoin right operand.
    /// `pairs` maps left attribute → right attribute for antijoins (`None`
    /// means full-schema equality, i.e. set difference).
    fn negatable(
        &mut self,
        r: &RaExpr,
        left: &Body,
        pairs: Option<&[(String, String)]>,
    ) -> CoreResult<Literal> {
        let rb = self.compile(r)?;
        let join_pairs: Vec<(String, String)> = match pairs {
            Some(ps) => ps.to_vec(),
            None => rb
                .attr_vars
                .iter()
                .map(|(a, _)| (a.clone(), a.clone()))
                .collect(),
        };
        // Fast path: the right side is a single positive EDB atom with no
        // extra conditions — negate it in place (paper's inline form, as
        // in eq. 16). The atom's joined positions take the left's
        // variables; remaining positions become wildcards. A right
        // attribute joined twice (`[A = B and B = B]`) equates two left
        // attributes under the negation, which one atom cannot say.
        let repeated_right = join_pairs
            .iter()
            .enumerate()
            .any(|(i, (_, ra))| join_pairs[..i].iter().any(|(_, prev)| prev == ra));
        if rb.literals.len() == 1 && !repeated_right {
            if let Literal::Pos(atom) = &rb.literals[0] {
                let mut terms = Vec::with_capacity(atom.terms.len());
                for (i, t) in atom.terms.iter().enumerate() {
                    let attr = &rb
                        .attr_vars
                        .iter()
                        .find(|(_, v)| matches!(t, DlTerm::Var(tv) if tv == v));
                    let joined = attr.as_ref().and_then(|(a, _)| {
                        join_pairs
                            .iter()
                            .find(|(_, ra)| ra == a)
                            .map(|(la, _)| la.clone())
                    });
                    match joined {
                        Some(la) => terms.push(DlTerm::var(left.var_of(&la)?)),
                        None => {
                            let _ = i;
                            terms.push(DlTerm::Wildcard);
                        }
                    }
                }
                return Ok(Literal::Neg(Atom::new(atom.pred.clone(), terms)));
            }
        }
        // General path: fresh IDB for the right side, negated with the
        // left's variables at the joined positions.
        let idb = self.fresh_idb();
        let head_terms: Vec<DlTerm> = join_pairs
            .iter()
            .map(|(_, ra)| Ok(DlTerm::var(rb.var_of(ra)?)))
            .collect::<CoreResult<_>>()?;
        self.rules
            .push(Rule::new(Atom::new(idb.clone(), head_terms), rb.literals));
        let call_terms: Vec<DlTerm> = join_pairs
            .iter()
            .map(|(la, _)| Ok(DlTerm::var(left.var_of(la)?)))
            .collect::<CoreResult<_>>()?;
        Ok(Literal::Neg(Atom::new(idb, call_terms)))
    }

    fn term(&self, t: &RaTerm, body: &Body) -> CoreResult<DlTerm> {
        Ok(match t {
            RaTerm::Attr(a) => DlTerm::var(body.var_of(a)?),
            RaTerm::Const(v) => DlTerm::Const(v.clone()),
        })
    }
}

/// Translates an RA expression into a Datalog¬ program with query
/// predicate `Q` (or the first of `Q1`, `Q2`, … that names no table): a
/// Datalog\* program for RA\* and RA\*⊲ expressions, one whose IDBs may
/// have several rules or uses otherwise (see the module docs).
pub fn ra_to_datalog(e: &RaExpr, catalog: &Catalog) -> CoreResult<DlProgram> {
    e.schema(catalog)?;
    let mut c = Compiler {
        catalog,
        rules: Vec::new(),
        next_idb: 0,
        next_var: 0,
    };
    let query = std::iter::once("Q".to_string())
        .chain((1..).map(|i| format!("Q{i}")))
        .find(|q| catalog.table(q).is_none())
        .expect("some name is free");
    c.union_rules(&query, e)?;
    Ok(DlProgram::new(c.rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_program, eval_ra};
    use rd_core::{Database, Relation, TableSchema, Tuple};
    use rd_datalog::check::is_datalog_star;
    use rd_ra::parser::parse as ra_parse;

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

    fn tuples<const N: usize>(rows: &[[i64; N]]) -> Vec<Tuple> {
        rows.iter().map(|r| Tuple::new(*r)).collect()
    }

    /// Translates `ra_text` and checks that the expression and its
    /// program both answer `expected` (computed by hand) over `d`;
    /// returns the program.
    fn answers_on<const N: usize>(ra_text: &str, d: &Database, expected: &[[i64; N]]) -> DlProgram {
        let e = ra_parse(ra_text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        let ra_out: Vec<Tuple> = eval_ra(&e, d).unwrap().iter().cloned().collect();
        assert_eq!(ra_out, tuples(expected), "RA answer for {ra_text}");
        let dl_out: Vec<Tuple> = eval_program(&p, d).unwrap().iter().cloned().collect();
        assert_eq!(
            dl_out,
            tuples(expected),
            "Datalog answer for {ra_text}\nprogram:\n{p}"
        );
        p
    }

    /// [`answers_on`] the fixed instance, for an RA\*⊲ expression: the
    /// program must be Datalog\*.
    fn agree<const N: usize>(ra_text: &str, expected: &[[i64; N]]) {
        let p = answers_on(ra_text, &db(), expected);
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
    }

    #[test]
    fn spj_expressions_agree() {
        agree("pi[A](R)", &[[1], [2], [3]]);
        agree("sigma[B>15](R)", &[[1, 20], [3, 30]]);
        agree("pi[A](sigma[B=10](R))", &[[1], [2]]);
        agree(
            "R join[B=B2] rho[B->B2](S)",
            &[[1, 10, 10], [1, 20, 20], [2, 10, 10]],
        );
        agree(
            "pi[A](R) x rho[B->C](S)",
            &[[1, 10], [1, 20], [2, 10], [2, 20], [3, 10], [3, 20]],
        );
        agree("R join S", &[[1, 10], [1, 20], [2, 10]]);
    }

    #[test]
    fn difference_against_table_inlines_negation() {
        let e = ra_parse("pi[B](R) - S", &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        // The S reference must appear as a single negated EDB atom.
        assert_eq!(p.signature(), vec!["R", "S"]);
        agree("pi[B](R) - S", &[[30]]);
    }

    #[test]
    fn division_agrees_and_preserves_signature() {
        let text = "pi[A](R) - pi[A]((pi[A](R) x S) - R)";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        let (mut a, mut b) = (p.signature(), e.signature());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        agree(text, &[[1]]);
    }

    #[test]
    fn antijoin_translates_per_theorem21() {
        let text = "R antijoin[B=B] S";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p));
        assert_eq!(p.signature(), vec!["R", "S"]);
        agree(text, &[[3, 30]]);
    }

    #[test]
    fn antijoin_joining_one_right_attribute_twice_keeps_both_equalities() {
        // `A = B and B = B` removes an R row only when A = B and B is in
        // S; negating `S(A)` alone would also remove (10, 20).
        let text = "R antijoin[A=B and B=B] S";
        let mut d = db();
        let r = d.relation_mut("R").unwrap();
        r.insert_values([10i64, 20]).unwrap();
        r.insert_values([10i64, 10]).unwrap();
        let p = answers_on(text, &d, &[[1, 10], [1, 20], [2, 10], [3, 30], [10, 20]]);
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
    }

    #[test]
    fn nested_antijoin_division_example17() {
        let text = "pi[A](R) antijoin pi[A]((pi[A](R) x S) antijoin R)";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        let (mut a, mut b) = (p.signature(), e.signature());
        a.sort();
        b.sort();
        assert_eq!(a, b);
        agree(text, &[[1]]);
    }

    /// The number of rules per IDB of `p`, by name.
    fn rule_counts(p: &DlProgram) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for rule in &p.rules {
            match counts.iter_mut().find(|(name, _)| *name == rule.head.pred) {
                Some((_, n)) => *n += 1,
                None => counts.push((rule.head.pred.clone(), 1)),
            }
        }
        counts
    }

    #[test]
    fn union_becomes_one_idb_with_a_rule_per_operand() {
        // At the root, the query predicate itself gets both rules.
        let p = answers_on("pi[B](R) union S", &db(), &[[10], [20], [30]]);
        assert_eq!(rule_counts(&p), [("Q".to_string(), 2)], "{p}");
        // Nested unions flatten into one IDB, here under a difference.
        let p = answers_on(
            "pi[B](R) - (S union (pi[B](sigma[A=2](R)) union pi[B](sigma[A=9](R))))",
            &db(),
            &[[30]],
        );
        assert_eq!(
            rule_counts(&p),
            [("I1".to_string(), 3), ("Q".to_string(), 1)],
            "{p}"
        );
    }

    #[test]
    fn disjunctive_selection_becomes_one_rule_per_disjunct() {
        // Over a single atom, each disjunct reads it directly.
        let p = answers_on("sigma[A=1 or B=30](R)", &db(), &[[1, 10], [1, 20], [3, 30]]);
        assert_eq!(
            rule_counts(&p),
            [("I1".to_string(), 2), ("Q".to_string(), 1)],
            "{p}"
        );
        // A conjunction of disjunctions is a chain; the input of the
        // second is the first's IDB, a single atom again.
        let p = answers_on(
            "sigma[(A=1 or A=2) and (B=10 or B=30)](R)",
            &db(),
            &[[1, 10], [2, 10]],
        );
        assert_eq!(
            rule_counts(&p),
            [
                ("I1".to_string(), 2),
                ("I2".to_string(), 2),
                ("Q".to_string(), 1)
            ],
            "{p}"
        );
        // A compound input is materialized once for both disjuncts.
        let p = answers_on("sigma[A=1 or B=30](R join S)", &db(), &[[1, 10], [1, 20]]);
        assert_eq!(
            rule_counts(&p),
            [
                ("I1".to_string(), 1),
                ("I2".to_string(), 2),
                ("Q".to_string(), 1)
            ],
            "{p}"
        );
    }

    #[test]
    fn non_equality_antijoin_negates_a_join_of_both_operands() {
        // (1, 10) and (2, 10) have a larger S.B (20); (1, 20), (3, 30)
        // do not.
        let p = answers_on("R antijoin[B<B] S", &db(), &[[1, 20], [3, 30]]);
        assert!(
            is_datalog_star(&p),
            "a single-atom left is read twice:\n{p}"
        );
        // A compound left is materialized once, for J and for the body.
        let p = answers_on("sigma[A>1](R) antijoin[B<B] S", &db(), &[[3, 30]]);
        assert_eq!(
            rule_counts(&p),
            [
                ("I1".to_string(), 1),
                ("I2".to_string(), 1),
                ("Q".to_string(), 1)
            ],
            "{p}"
        );
        assert!(!is_datalog_star(&p), "the materialized left is used twice");
    }

    #[test]
    fn fresh_names_avoid_tables() {
        let catalog =
            Catalog::from_schemas([TableSchema::new("Q", ["A"]), TableSchema::new("I1", ["A"])])
                .unwrap();
        let e = ra_parse("Q union (I1 - Q)", &catalog).unwrap();
        let p = ra_to_datalog(&e, &catalog).unwrap();
        assert_eq!(p.query, "Q1");
        assert!(p.idbs().iter().all(|i| catalog.table(i).is_none()), "{p}");
    }
}
