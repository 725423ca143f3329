//! TRC\* → Datalog\* (Appendix C, proof part 4).
//!
//! The canonical TRC\* query decomposes into *query components*, one per
//! negation scope. Each component becomes one rule whose head carries the
//! outer attribute references the component (or its descendants) uses.
//! Two repairs make components safe exactly as in the paper:
//!
//! * **case (i)** — a parameter passed *through* a component to a deeper
//!   one, without being used locally, gets an additional positive atom of
//!   its source table ("r3 ∈ R" in Example 11);
//! * **case (ii)** — a parameter connected to local tables only through a
//!   built-in (non-equality) predicate likewise gets a source-table atom
//!   ("r2 ∈ R" in Example 12).
//!
//! These repairs add table references, which is unavoidable: Datalog\*
//! cannot pattern-represent all of TRC\* (Lemma 20). When no repair fires
//! the translation is pattern-preserving.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult};
use rd_datalog::ast::{Atom, BuiltIn, DlProgram, DlTerm, Literal, Rule};
use rd_trc::ast::{AttrRef, Binding, Formula, Term, TrcQuery};
use std::collections::{BTreeMap, BTreeSet};

/// Global translation state.
struct Ctx<'a> {
    catalog: &'a Catalog,
    /// Maps every tuple variable to its table (for repair atoms).
    var_tables: BTreeMap<String, String>,
    rules: Vec<Rule>,
    next_idb: usize,
}

/// Result of compiling one negation scope.
struct ScopeOut {
    idb: String,
    /// Ordered outer references the component takes as parameters.
    params: Vec<AttrRef>,
}

/// Datalog variable for an attribute reference.
fn dl_name(r: &AttrRef) -> String {
    format!("{}_{}", r.var, r.attr)
}

/// Union-find over equality classes of local positions / parameters.
#[derive(Default)]
struct Unify {
    parent: BTreeMap<String, String>,
}

impl Unify {
    fn find(&mut self, x: &str) -> String {
        let p = match self.parent.get(x) {
            Some(p) if p != x => p.clone(),
            _ => return x.to_string(),
        };
        let root = self.find(&p);
        self.parent.insert(x.to_string(), root.clone());
        root
    }

    /// Unions two names; the *second* becomes the representative (used to
    /// prefer parameter names so head variables appear in atoms).
    fn union_prefer(&mut self, a: &str, rep: &str) {
        let ra = self.find(a);
        let rb = self.find(rep);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

impl<'a> Ctx<'a> {
    fn fresh_idb(&mut self) -> String {
        self.next_idb += 1;
        format!("Q{}", self.next_idb)
    }

    /// Splits a canonical scope formula into bindings and conjuncts.
    fn split(f: &Formula) -> (Vec<Binding>, Vec<Formula>) {
        match f {
            Formula::Exists(b, body) => {
                let parts = match body.as_ref() {
                    Formula::And(fs) => fs.clone(),
                    other => vec![other.clone()],
                };
                (b.clone(), parts)
            }
            Formula::And(fs) => (Vec::new(), fs.clone()),
            other => (Vec::new(), vec![other.clone()]),
        }
    }

    /// Compiles a negation scope into a rule. `head_override` is used for
    /// the root component (output attributes instead of parameters).
    fn compile_scope(
        &mut self,
        bindings: &[Binding],
        parts: &[Formula],
        output: Option<&rd_trc::ast::OutputSpec>,
    ) -> CoreResult<ScopeOut> {
        let local: BTreeMap<String, String> = bindings
            .iter()
            .map(|b| (b.var.clone(), b.table.clone()))
            .collect();
        let is_local = |r: &AttrRef| local.contains_key(&r.var);
        let head_name = output.map(|o| o.name.clone());

        let mut unify = Unify::default();
        let mut params: Vec<AttrRef> = Vec::new();
        let mut bound_params: Vec<AttrRef> = Vec::new();
        let mut builtins: Vec<BuiltIn> = Vec::new();
        let mut neg_calls: Vec<(String, Vec<AttrRef>)> = Vec::new();
        let mut head_defs: BTreeMap<String, String> = BTreeMap::new(); // output attr -> class key

        let add_param = |params: &mut Vec<AttrRef>, r: &AttrRef| {
            if !params.contains(r) {
                params.push(r.clone());
            }
        };

        // Classify predicates.
        for part in parts {
            match part {
                Formula::Pred(p) => {
                    let head_side = |t: &Term| -> Option<AttrRef> {
                        match t {
                            Term::Attr(a) if Some(&a.var) == head_name.as_ref() => Some(a.clone()),
                            _ => None,
                        }
                    };
                    // Output-defining predicate (root scope only).
                    if let Some(h) = head_side(&p.left).or_else(|| head_side(&p.right)) {
                        let other = if head_side(&p.left).is_some() {
                            &p.right
                        } else {
                            &p.left
                        };
                        let key = match other {
                            Term::Attr(a) if is_local(a) => dl_name(a),
                            _ => {
                                return Err(CoreError::Invalid(
                                    "output attribute must be defined from a root table".into(),
                                ))
                            }
                        };
                        head_defs.insert(h.attr.clone(), key);
                        continue;
                    }
                    let loc_l = matches!(&p.left, Term::Attr(a) if is_local(a));
                    let loc_r = matches!(&p.right, Term::Attr(a) if is_local(a));
                    if !loc_l && !loc_r {
                        return Err(CoreError::Invalid(format!(
                            "unguarded predicate '{p}' — query is outside TRC* (Definition 4)"
                        )));
                    }
                    if p.op == CmpOp::Eq {
                        match (&p.left, &p.right) {
                            (Term::Attr(a), Term::Attr(b)) if loc_l && loc_r => {
                                unify.union_prefer(&dl_name(b), &dl_name(a));
                            }
                            (Term::Attr(a), Term::Attr(b)) => {
                                // One side outer: prefer the outer (param)
                                // name so the head variable is bound at the
                                // local position.
                                let (inner, outer) = if loc_l { (a, b) } else { (b, a) };
                                add_param(&mut params, outer);
                                bound_params.push(outer.clone());
                                unify.union_prefer(&dl_name(inner), &dl_name(outer));
                            }
                            (Term::Attr(a), Term::Const(c)) | (Term::Const(c), Term::Attr(a)) => {
                                builtins.push(BuiltIn::new(
                                    DlTerm::var(dl_name(a)),
                                    CmpOp::Eq,
                                    DlTerm::Const(c.clone()),
                                ));
                            }
                            _ => {
                                return Err(CoreError::Invalid(format!(
                                    "unsupported predicate shape '{p}'"
                                )))
                            }
                        }
                    } else {
                        // Non-equality built-in; outer sides become params
                        // needing a case (ii) repair if not bound elsewhere.
                        let mut term = |t: &Term| -> DlTerm {
                            match t {
                                Term::Const(c) => DlTerm::Const(c.clone()),
                                Term::Attr(a) => {
                                    if !is_local(a) {
                                        add_param(&mut params, a);
                                    }
                                    DlTerm::var(dl_name(a))
                                }
                            }
                        };
                        let l = term(&p.left);
                        let r = term(&p.right);
                        builtins.push(BuiltIn::new(l, p.op, r));
                    }
                }
                Formula::Not(inner) => {
                    let (b2, p2) = Self::split(inner);
                    let child = self.compile_scope(&b2, &p2, None)?;
                    // Child params referencing *our* locals are supplied
                    // locally; others pass through and become our params.
                    for r in &child.params {
                        if !is_local(r) {
                            add_param(&mut params, r);
                        }
                    }
                    neg_calls.push((child.idb, child.params));
                }
                Formula::Or(_) => {
                    return Err(CoreError::Invalid(
                        "disjunction is outside TRC* (Definition 4)".into(),
                    ))
                }
                other => {
                    return Err(CoreError::Invalid(format!(
                        "unexpected canonical part: {other:?}"
                    )))
                }
            }
        }

        let _ = bound_params; // superseded by the class analysis below

        // Resolution: decide one Datalog variable per parameter.
        //
        // A parameter is *bound* if its equality class contains a local
        // atom position (the class representative then appears inside a
        // positive atom). Two parameters sharing a class would produce a
        // repeated head variable; the later one keeps its own name, gets a
        // source-table repair atom (case i/ii) plus an explicit equality
        // built-in to the class representative. Parameters with no local
        // equality at all (pass-through / built-in-only) are repaired the
        // same way.
        let local_reps: BTreeSet<String> = bindings
            .iter()
            .flat_map(|b| {
                let schema = self.catalog.table(&b.table);
                let attrs: Vec<String> = schema.map(|s| s.attrs().to_vec()).unwrap_or_default();
                attrs
                    .into_iter()
                    .map(|a| dl_name(&AttrRef::new(b.var.clone(), a)))
                    .collect::<Vec<_>>()
            })
            .map(|key| unify.find(&key))
            .collect();
        let param_names: BTreeSet<String> = params.iter().map(dl_name).collect();
        let mut param_term: BTreeMap<AttrRef, String> = BTreeMap::new();
        let mut taken: BTreeSet<String> = BTreeSet::new();
        let mut repairs: Vec<&AttrRef> = Vec::new();
        let mut extra_eqs: Vec<BuiltIn> = Vec::new();
        // Pass A: a parameter whose own name is its class representative
        // (and the class touches a local position) owns that name.
        for p in &params {
            let n = dl_name(p);
            if unify.find(&n) == n && local_reps.contains(&n) {
                param_term.insert(p.clone(), n.clone());
                taken.insert(n);
            }
        }
        // Pass B: remaining parameters take their representative if free
        // and not another parameter's name; otherwise they are repaired.
        for p in &params {
            if param_term.contains_key(p) {
                continue;
            }
            let n = dl_name(p);
            let rep = unify.find(&n);
            if local_reps.contains(&rep) && !taken.contains(&rep) && !param_names.contains(&rep) {
                param_term.insert(p.clone(), rep.clone());
                taken.insert(rep);
            } else {
                // Repair atom binds the parameter's own name (cases i/ii).
                param_term.insert(p.clone(), n.clone());
                repairs.push(p);
                if rep != n && local_reps.contains(&rep) {
                    extra_eqs.push(BuiltIn::new(DlTerm::var(n), CmpOp::Eq, DlTerm::var(rep)));
                }
            }
        }
        let mut repair_atoms: Vec<Atom> = Vec::new();
        for p in repairs {
            let table = self.var_tables.get(&p.var).ok_or_else(|| {
                CoreError::Invalid(format!("unknown source table for parameter {p}"))
            })?;
            let schema = self.catalog.require(table)?;
            let idx = schema
                .attr_index(&p.attr)
                .ok_or_else(|| CoreError::UnknownAttribute {
                    table: table.clone(),
                    attribute: p.attr.clone(),
                })?;
            let terms: Vec<DlTerm> = (0..schema.arity())
                .map(|i| {
                    if i == idx {
                        DlTerm::var(dl_name(p))
                    } else {
                        DlTerm::Wildcard
                    }
                })
                .collect();
            repair_atoms.push(Atom::new(table.clone(), terms));
        }

        // Resolver for raw variable names: parameters map to their chosen
        // term, everything else goes through the union-find.
        let param_by_name: BTreeMap<String, String> = params
            .iter()
            .map(|p| (dl_name(p), param_term[p].clone()))
            .collect();

        // Assemble local atoms with unified variable names.
        let mut body: Vec<Literal> = Vec::new();
        for b in bindings {
            let schema = self.catalog.require(&b.table)?;
            let terms: Vec<DlTerm> = schema
                .attrs()
                .iter()
                .map(|a| {
                    let key = dl_name(&AttrRef::new(b.var.clone(), a.clone()));
                    DlTerm::var(unify.find(&key))
                })
                .collect();
            body.push(Literal::Pos(Atom::new(b.table.clone(), terms)));
        }
        body.extend(repair_atoms.into_iter().map(Literal::Pos));
        for bi in builtins {
            let mut fix = |t: DlTerm| match t {
                DlTerm::Var(v) => DlTerm::Var(match param_by_name.get(&v) {
                    Some(t) => t.clone(),
                    None => unify.find(&v),
                }),
                other => other,
            };
            let left = fix(bi.left);
            let right = fix(bi.right);
            body.push(Literal::Cmp(BuiltIn::new(left, bi.op, right)));
        }
        body.extend(extra_eqs.into_iter().map(Literal::Cmp));
        for (idb, child_params) in &neg_calls {
            let args: Vec<DlTerm> = child_params
                .iter()
                .map(|r| {
                    if is_local(r) {
                        DlTerm::Var(unify.find(&dl_name(r)))
                    } else {
                        DlTerm::Var(param_term[r].clone())
                    }
                })
                .collect();
            body.push(Literal::Neg(Atom::new(idb.clone(), args)));
        }

        // Head.
        let (idb, head_terms) = match output {
            Some(o) => {
                let mut terms = Vec::with_capacity(o.attrs.len());
                for attr in &o.attrs {
                    let key = head_defs.get(attr).ok_or_else(|| {
                        CoreError::Invalid(format!(
                            "output attribute '{attr}' has no defining equality"
                        ))
                    })?;
                    terms.push(DlTerm::Var(unify.find(key)));
                }
                ("Q".to_string(), terms)
            }
            None => {
                let idb = self.fresh_idb();
                let terms: Vec<DlTerm> = params
                    .iter()
                    .map(|r| DlTerm::Var(param_term[r].clone()))
                    .collect();
                (idb, terms)
            }
        };
        self.rules
            .push(Rule::new(Atom::new(idb.clone(), head_terms), body));
        Ok(ScopeOut { idb, params })
    }
}

/// Translates a TRC\* query (or Boolean sentence) into a Datalog\*
/// program. The query predicate is `Q` (zero-ary for sentences).
pub fn trc_to_datalog(q: &TrcQuery, catalog: &Catalog) -> CoreResult<DlProgram> {
    if !rd_trc::check::is_nondisjunctive(q) {
        return Err(CoreError::Invalid(
            "query is outside TRC* (Definition 4): disjunctive or unguarded".into(),
        ));
    }
    let canon = rd_trc::canon::canonicalize(q);
    let mut ctx = Ctx {
        catalog,
        var_tables: rd_trc::check::var_tables(&canon)?,
        rules: Vec::new(),
        next_idb: 0,
    };
    let (bindings, parts) = Ctx::split(&canon.formula);
    match &canon.output {
        Some(head) => {
            ctx.compile_scope(&bindings, &parts, Some(head))?;
        }
        None => {
            // Sentence: a zero-ary root component named Q.
            let out = ctx.compile_scope(&bindings, &parts, None)?;
            if !out.params.is_empty() {
                return Err(CoreError::Invalid(
                    "sentence root scope cannot reference outer variables".into(),
                ));
            }
            // Rename the root component to Q.
            let idb = out.idb.clone();
            for rule in &mut ctx.rules {
                if rule.head.pred == idb {
                    rule.head.pred = "Q".to_string();
                }
            }
        }
    }
    // Children were emitted before parents; the query rule is last.
    let mut rules = ctx.rules;
    for rule in &mut rules {
        wildcardize(rule);
    }
    let mut program = DlProgram::new(rules);
    program.query = "Q".to_string();
    rd_datalog::check::check_program(&program, catalog)?;
    Ok(program)
}

/// Replaces variables that occur exactly once in a rule (necessarily in a
/// positive atom) with the anonymous `_`. This matches the paper's
/// convention (`R(x, _)`) and matters downstream: the eq. (5) complement
/// set `z` in the Datalog→RA translation only counts *named* variables.
fn wildcardize(rule: &mut Rule) {
    use std::collections::HashMap;
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut bump = |t: &DlTerm| {
        if let DlTerm::Var(v) = t {
            *counts.entry(v.clone()).or_default() += 1;
        }
    };
    for t in &rule.head.terms {
        bump(t);
    }
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.terms.iter().for_each(&mut bump),
            Literal::Cmp(b) => {
                bump(&b.left);
                bump(&b.right);
            }
        }
    }
    for lit in &mut rule.body {
        if let Literal::Pos(a) = lit {
            for t in &mut a.terms {
                if let DlTerm::Var(v) = t {
                    if counts.get(v) == Some(&1) {
                        *t = DlTerm::Wildcard;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use rd_core::{Database, Relation, TableSchema, Tuple};
    use rd_datalog::check::is_datalog_star;
    use rd_trc::eval::{eval_query, eval_sentence};
    use rd_trc::parser::parse_query;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
            TableSchema::new("U", ["A"]),
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
        db.add_relation(Relation::from_rows(TableSchema::new("U", ["A"]), [[2i64]]).unwrap());
        db
    }

    /// Translates `trc_text` and checks that the query and its program
    /// both answer `expected` (computed by hand over [`db`]).
    fn agree(trc_text: &str, expected: &[i64]) -> DlProgram {
        let q = parse_query(trc_text, &catalog()).unwrap();
        let p = trc_to_datalog(&q, &catalog()).unwrap();
        assert!(is_datalog_star(&p), "not Datalog*:\n{p}");
        let expected: Vec<Tuple> = expected.iter().map(|&a| Tuple::new([a])).collect();
        let trc_out: Vec<Tuple> = eval_query(&q, &db()).unwrap().iter().cloned().collect();
        assert_eq!(trc_out, expected, "TRC answer for {trc_text}");
        let dl_out: Vec<Tuple> = eval_program(&p, &db()).unwrap().iter().cloned().collect();
        assert_eq!(
            dl_out, expected,
            "Datalog answer for {trc_text}\nprogram:\n{p}"
        );
        p
    }

    #[test]
    fn conjunctive_query() {
        let p = agree(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            &[1, 2],
        );
        assert_eq!(p.signature(), vec!["R", "S"]);
    }

    #[test]
    fn single_negation_pattern_preserved() {
        let p = agree(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ s.B = r.B ]) ] }",
            &[3],
        );
        let mut sig = p.signature();
        sig.sort();
        assert_eq!(sig, vec!["R", "S"]);
    }

    #[test]
    fn division_triggers_case_i_repair() {
        // Eq. (14): the join r2.A = r.A crosses two negations; Datalog*
        // needs an extra R reference (Example 11 / Lemma 20).
        let p = agree(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
             not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
            &[1],
        );
        assert_eq!(p.signature().len(), 4); // R, S, R + one repair R
        assert_eq!(
            p.signature().iter().filter(|t| *t == "R").count(),
            3,
            "expected 3 R references as in eq. (16):\n{p}"
        );
    }

    #[test]
    fn builtin_crossing_triggers_case_ii_repair() {
        // Example 12: values of T with no smaller value in S.
        let p = agree(
            "{ q(A) | exists t in T [ q.A = t.A and not (exists s in S [ s.B < t.A ]) ] }",
            &[1, 9],
        );
        // T, S plus one repair T (the paper's Q1(x) :- R(x), S(y), x > y).
        assert_eq!(p.signature().iter().filter(|t| *t == "T").count(), 2);
    }

    #[test]
    fn selection_constants_and_theta_joins() {
        agree(
            "{ q(A) | exists r in R [ q.A = r.A and r.B = 10 ] }",
            &[1, 2],
        );
        agree(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B > s.B ] }",
            &[1, 3],
        );
        agree(
            "{ q(A) | exists r in R [ q.A = r.A and r.B != 10 and r.B < 25 ] }",
            &[1],
        );
    }

    #[test]
    fn sentences_translate_to_boolean_programs() {
        let cat = catalog();
        for (text, expected) in [
            ("exists r in R [ r.A = 3 ]", true),
            ("exists r in R [ r.A = 99 ]", false),
            (
                "not (exists r in R [ not (exists s in S [ s.B = r.B ]) ])",
                false,
            ),
        ] {
            let q = parse_query(text, &cat).unwrap();
            let p = trc_to_datalog(&q, &cat).unwrap();
            let out = eval_program(&p, &db()).unwrap();
            assert_eq!(!out.is_empty(), expected, "sentence: {text}\n{p}");
            assert_eq!(
                eval_sentence(&q, &db()).unwrap(),
                expected,
                "TRC eval disagrees for {text}"
            );
        }
    }

    #[test]
    fn double_negation_empty_partition() {
        // ∃r∈R[q.A=r.A ∧ ¬(¬(∃t∈T[t.A = r.A]))] — Fig. 5's q1-style empty
        // partition.
        let p = agree(
            "{ q(A) | exists r in R [ q.A = r.A and not (not (exists t in T [ t.A = r.A ])) ] }",
            &[1],
        );
        assert!(p.rules.len() >= 3);
    }

    #[test]
    fn multiple_children_and_shared_params() {
        agree(
            "{ q(A) | exists r in R [ q.A = r.A and \
             not (exists s in S [ s.B = r.B ]) and \
             not (exists t in T [ t.A = r.A ]) ] }",
            &[3],
        );
    }

    #[test]
    fn local_equality_chains_unify() {
        let mut d = db();
        let r = d.relation_mut("R").unwrap();
        r.insert_values([5i64, 5]).unwrap();
        r.insert_values([10i64, 10]).unwrap();
        let q = parse_query(
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.A = r.B and r.B = s.B ] }",
            &catalog(),
        )
        .unwrap();
        let p = trc_to_datalog(&q, &catalog()).unwrap();
        // Only (10, 10) has A = B with B in S.
        for out in [eval_query(&q, &d).unwrap(), eval_program(&p, &d).unwrap()] {
            assert_eq!(
                out.iter().cloned().collect::<Vec<_>>(),
                [Tuple::new([10i64])]
            );
        }
    }

    #[test]
    fn rejects_disjunctive_or_unguarded() {
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and (r.B = 1 or r.B = 2) ] }",
            &catalog(),
        )
        .unwrap();
        assert!(trc_to_datalog(&q, &catalog()).is_err());
        let q = rd_trc::parser::parse_query_unchecked(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ r.A = 0 and s.B = r.B ]) ] }",
        )
        .unwrap();
        assert!(trc_to_datalog(&q, &catalog()).is_err());
    }
}
