//! RA\* → Datalog\* (Appendix C, proof part 1) plus the antijoin case of
//! Theorem 21 (part 1).
//!
//! SPJR (select/project/join/rename) sub-expressions compile into a single
//! rule body; each difference or antijoin introduces one fresh IDB for its
//! right operand, exactly mirroring the paper's case analysis. The
//! translation is pattern-preserving: every base-table leaf of the RA
//! expression becomes exactly one EDB atom.

use rd_core::{Catalog, CoreError, CoreResult};
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

    fn fresh_idb(&mut self) -> String {
        self.next_idb += 1;
        format!("I{}", self.next_idb)
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
                let mut body = self.compile(inner)?;
                let mut builtins = Vec::new();
                self.condition(cond, &body, &mut builtins)?;
                body.literals.extend(builtins.into_iter().map(Literal::Cmp));
                Ok(body)
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
            RaExpr::Union(..) => Err(CoreError::Invalid(
                "union is outside RA*; translate branches separately (Datalog expresses \
                 disjunction by repeating the head IDB)"
                    .into(),
            )),
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

    fn condition(
        &mut self,
        cond: &Condition,
        body: &Body,
        out: &mut Vec<BuiltIn>,
    ) -> CoreResult<()> {
        match cond {
            Condition::Cmp(l, op, r) => {
                let lt = self.term(l, body)?;
                let rt = self.term(r, body)?;
                out.push(BuiltIn::new(lt, *op, rt));
                Ok(())
            }
            Condition::And(cs) => {
                for c in cs {
                    self.condition(c, body, out)?;
                }
                Ok(())
            }
            Condition::Or(_) => Err(CoreError::Invalid(
                "disjunctive selection is outside RA* (Definition 2)".into(),
            )),
        }
    }

    fn term(&self, t: &RaTerm, body: &Body) -> CoreResult<DlTerm> {
        Ok(match t {
            RaTerm::Attr(a) => DlTerm::var(body.var_of(a)?),
            RaTerm::Const(v) => DlTerm::Const(v.clone()),
        })
    }
}

/// Translates an RA\* (or RA\*⊲) expression into a Datalog\* program with
/// query predicate `Q`.
pub fn ra_to_datalog(e: &RaExpr, catalog: &Catalog) -> CoreResult<DlProgram> {
    let mut c = Compiler {
        catalog,
        rules: Vec::new(),
        next_idb: 0,
        next_var: 0,
    };
    let body = c.compile(e)?;
    let head_terms: Vec<DlTerm> = body
        .attr_vars
        .iter()
        .map(|(_, v)| DlTerm::var(v.clone()))
        .collect();
    let mut rules = c.rules;
    rules.push(Rule::new(Atom::new("Q", head_terms), body.literals));
    let program = DlProgram::new(rules);
    rd_datalog::check::check_program(&program, catalog)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{Database, Relation, TableSchema};
    use rd_datalog::check::is_datalog_star;
    use rd_datalog::eval::eval_program;
    use rd_ra::eval::eval as ra_eval;
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

    fn agree(ra_text: &str) {
        let e = ra_parse(ra_text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
        let ra_out = ra_eval(&e, &db()).unwrap();
        let dl_out = eval_program(&p, &db()).unwrap();
        assert_eq!(
            &ra_out.tuples,
            &dl_out
                .iter()
                .cloned()
                .collect::<std::collections::BTreeSet<_>>(),
            "mismatch for {ra_text}\nprogram:\n{p}"
        );
    }

    #[test]
    fn spj_expressions_agree() {
        agree("pi[A](R)");
        agree("sigma[B>15](R)");
        agree("pi[A](sigma[B=10](R))");
        agree("R join[B=B2] rho[B->B2](S)");
        agree("pi[A](R) x rho[B->C](S)");
        agree("R join S");
    }

    #[test]
    fn difference_against_table_inlines_negation() {
        let e = ra_parse("pi[B](R) - S", &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        // The S reference must appear as a single negated EDB atom.
        assert_eq!(p.signature(), vec!["R", "S"]);
        agree("pi[B](R) - S");
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
        agree(text);
    }

    #[test]
    fn antijoin_translates_per_theorem21() {
        let text = "R antijoin[B=B] S";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p));
        assert_eq!(p.signature(), vec!["R", "S"]);
        let ra_out = ra_eval(&e, &db()).unwrap();
        let dl_out = eval_program(&p, &db()).unwrap();
        assert_eq!(
            &ra_out.tuples,
            &dl_out
                .iter()
                .cloned()
                .collect::<std::collections::BTreeSet<_>>()
        );
    }

    #[test]
    fn antijoin_joining_one_right_attribute_twice_keeps_both_equalities() {
        // `A = B and B = B` removes an R row only when A = B and B is in
        // S; negating `S(A)` alone would also remove (10, 20).
        let text = "R antijoin[A=B and B=B] S";
        let e = ra_parse(text, &catalog()).unwrap();
        let p = ra_to_datalog(&e, &catalog()).unwrap();
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
        let mut d = db();
        let r = d.relation_mut("R").unwrap();
        r.insert_values([10i64, 20]).unwrap();
        r.insert_values([10i64, 10]).unwrap();
        let ra_out = ra_eval(&e, &d).unwrap();
        let dl_out = eval_program(&p, &d).unwrap();
        assert_eq!(ra_out.tuples.len(), 5, "only (10, 10) goes");
        assert_eq!(
            &ra_out.tuples,
            &dl_out
                .iter()
                .cloned()
                .collect::<std::collections::BTreeSet<_>>(),
            "program:\n{p}"
        );
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
        agree(text);
    }

    #[test]
    fn union_rejected() {
        let e = ra_parse("pi[B](R) union S", &catalog()).unwrap();
        assert!(ra_to_datalog(&e, &catalog()).is_err());
    }

    #[test]
    fn disjunctive_selection_rejected() {
        let e = ra_parse("sigma[A=1 or B=2](R)", &catalog()).unwrap();
        assert!(ra_to_datalog(&e, &catalog()).is_err());
    }
}
