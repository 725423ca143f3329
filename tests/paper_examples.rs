//! Integration tests spanning all crates: the paper's worked examples,
//! end to end.

#[path = "oracle/datalog.rs"]
mod datalog_oracle;

use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Value};
use rd_pattern::{pattern_isomorphic, AnyQuery, EquivOptions};

fn rs_catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
    ])
    .unwrap()
}

/// Example 1 / Fig. 2a: the "reserved all boats" query goes from TRC
/// through SQL, Datalog, RA and the diagram, agreeing everywhere.
#[test]
fn example1_reserved_all_boats_end_to_end() {
    let catalog = Catalog::from_schemas([
        TableSchema::new("Sailor", ["sid", "sname"]),
        TableSchema::new("Reserves", ["sid", "bid"]),
        TableSchema::new("Boat", ["bid"]),
    ])
    .unwrap();
    let q = rd_trc::parse_query(
        "{ q(sname) | exists s in Sailor [ q.sname = s.sname and not (exists b in Boat [ \
         not (exists r in Reserves [ r.sid = s.sid and r.bid = b.bid ]) ]) ] }",
        &catalog,
    )
    .unwrap();
    // Like Kiyana's observation: the RA translation needs extra Sailor
    // references (Fig. 1), while the diagram preserves all three tables.
    let dl = rd_translate::trc_to_datalog(&q, &catalog).unwrap();
    assert!(dl.signature().len() > q.signature().len());
    let d = rd_diagram::from_trc(&q, &catalog).unwrap();
    assert_eq!(d.signature().len(), 3);
    // Differential evaluation.
    let dbs = DbGenerator::with_int_domain(catalog.clone(), 3, 4, 11);
    let n = rd_translate::check_equivalent_results(&q, &catalog, dbs.take(40))
        .map_err(|e| e.1)
        .unwrap();
    assert_eq!(n, 40);
}

/// Example 3 / Fig. 6: the sentence "all sailors reserve some red boat"
/// as SQL, TRC and a diagram without an output table.
#[test]
fn example3_boolean_sentence() {
    let catalog = Catalog::from_schemas([
        TableSchema::new("Sailor", ["sid"]),
        TableSchema::new("Reserves", ["sid", "bid"]),
        TableSchema::new("Boat", ["bid", "color"]),
    ])
    .unwrap();
    let sql = rd_sql::parse_sql(
        "SELECT NOT EXISTS (SELECT * FROM Sailor s WHERE NOT EXISTS \
         (SELECT b.bid FROM Boat b, Reserves r WHERE b.color = 'red' \
          AND r.bid = b.bid AND r.sid = s.sid))",
        &catalog,
    )
    .unwrap();
    let trc = rd_sql::sql_to_trc(&sql, &catalog).unwrap();
    let sentence = &trc.branches[0];
    assert!(sentence.is_sentence());
    let d = rd_diagram::from_trc(sentence, &catalog).unwrap();
    assert!(d.cells[0].output.is_none());
    // Instance where it holds…
    let mut db = Database::new();
    db.add_relation(Relation::from_rows(TableSchema::new("Sailor", ["sid"]), [[1i64]]).unwrap());
    db.add_relation(
        Relation::from_rows(TableSchema::new("Reserves", ["sid", "bid"]), [[1i64, 7]]).unwrap(),
    );
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("Boat", ["bid", "color"]),
            vec![vec![Value::int(7), Value::str("red")]],
        )
        .unwrap(),
    );
    assert!(rd_trc::eval_sentence(sentence, &db).unwrap());
    // …and where it fails (sailor 2 reserves nothing).
    db.relation_mut("Sailor")
        .unwrap()
        .insert_values([2i64])
        .unwrap();
    assert!(!rd_trc::eval_sentence(sentence, &db).unwrap());
}

/// Example 8 / Fig. 9a-c: eliminating an inner disjunction by De Morgan
/// preserves logic but not the pattern.
#[test]
fn example8_demorgan_rewrite_changes_pattern() {
    let catalog = Catalog::from_schemas([
        TableSchema::new("R", ["A", "B", "C"]),
        TableSchema::new("S", ["B", "C"]),
    ])
    .unwrap();
    let disjunctive = rd_sql::parse_sql(
        "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE NOT EXISTS \
         (SELECT * FROM R AS R2 WHERE (R2.B = S.B OR R2.C = S.C) AND R2.A = R.A))",
        &catalog,
    )
    .unwrap();
    let rewritten = rd_sql::parse_sql(
        "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE \
         NOT EXISTS (SELECT * FROM R AS R2 WHERE R2.B = S.B AND R2.A = R.A) AND \
         NOT EXISTS (SELECT * FROM R AS R3 WHERE R3.C = S.C AND R3.A = R.A))",
        &catalog,
    )
    .unwrap();
    // Logically equivalent…
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 3, 4, 77);
    for _ in 0..40 {
        let db = gen.next_db();
        let a = rd_sql::translate::eval_sql(&disjunctive, &db).unwrap();
        let b = rd_sql::translate::eval_sql(&rewritten, &db).unwrap();
        assert_eq!(a.tuples(), b.tuples());
    }
    // …but with different signatures (3 vs 4 references), hence not
    // pattern-isomorphic.
    assert_eq!(disjunctive.signature().len(), 3);
    assert_eq!(rewritten.signature().len(), 4);
    let v = pattern_isomorphic(
        &AnyQuery::Sql(disjunctive),
        &AnyQuery::Sql(rewritten.clone()),
        &catalog,
        &EquivOptions::default(),
    );
    assert!(!v.is_isomorphic());
    // The rewritten SQL* query is in the fragment and has a diagram
    // (Fig. 9c).
    assert!(rd_sql::is_sql_star(&rewritten, &catalog));
    let trc = rd_sql::sql_to_trc(&rewritten, &catalog).unwrap();
    rd_diagram::from_trc(&trc.branches[0], &catalog).unwrap();
}

/// Example 15 / Fig. 18: a disjunctive sentence expressed with double
/// negation in the non-disjunctive fragment.
#[test]
fn example15_disjunction_via_double_negation() {
    let catalog = Catalog::from_schemas([TableSchema::new("R", ["A"])]).unwrap();
    let or_version = rd_trc::parse_query("exists r in R [ r.A = 1 or r.A = 2 ]", &catalog).unwrap();
    let demorgan = rd_trc::parse_query(
        "not (not (exists r in R [ r.A = 1 ]) and not (exists r2 in R [ r2.A = 2 ]))",
        &catalog,
    )
    .unwrap();
    assert!(!rd_trc::check::is_nondisjunctive(&or_version));
    assert!(rd_trc::check::is_nondisjunctive(&demorgan));
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 4, 3, 5);
    for _ in 0..50 {
        let db = gen.next_db();
        assert_eq!(
            rd_trc::eval_sentence(&or_version, &db).unwrap(),
            rd_trc::eval_sentence(&demorgan, &db).unwrap()
        );
    }
    // Fig. 18b: the diagram has two sibling negation boxes inside one box.
    let d = rd_diagram::from_trc(&demorgan, &catalog).unwrap();
    assert_eq!(d.cells[0].root.children.len(), 1);
    assert_eq!(d.cells[0].root.children[0].children.len(), 2);
}

/// Example 9 / Fig. 9d-e: a union of queries evaluates as the union of
/// its cells, and cannot be expressed without union (it is checked to be
/// outside every single-branch fragment).
#[test]
fn example9_union_cells() {
    let catalog =
        Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["A"])])
            .unwrap();
    let u = rd_trc::parse_union(
        "{ q(A) | exists r in R [ q.A = r.A ] } union { q(A) | exists s in S [ q.A = s.A ] }",
        &catalog,
    )
    .unwrap();
    let d = rd_diagram::from_trc_union(&u, &catalog).unwrap();
    assert_eq!(d.cells.len(), 2);
    let back = rd_diagram::to_trc(&d, &catalog).unwrap();
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 3, 3, 13);
    for _ in 0..30 {
        let db = gen.next_db();
        let a = rd_trc::eval_union(&u, &db).unwrap();
        let b = rd_trc::eval_union(&back, &db).unwrap();
        assert_eq!(a.tuples(), b.tuples());
    }
}

/// Example 21 / Fig. 26: Q3 ("values of R with no smaller value in S")
/// has no pattern-isomorphic RA*/Datalog* form; the repaired 4th-column
/// variant does.
#[test]
fn example21_builtin_negation_boundary() {
    let catalog =
        Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["A"])])
            .unwrap();
    let q3 = rd_trc::parse_query(
        "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ s.A < r.A ]) ] }",
        &catalog,
    )
    .unwrap();
    let dl = rd_translate::trc_to_datalog(&q3, &catalog).unwrap();
    // The repair added one R reference (Fig. 26p).
    assert_eq!(dl.signature().len(), 3);
    assert_eq!(dl.signature().iter().filter(|t| *t == "R").count(), 2);
    // Still logically equivalent.
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 4, 3, 21);
    for _ in 0..40 {
        let db = gen.next_db();
        let a = rd_trc::eval_query(&q3, &db).unwrap();
        let a: std::collections::BTreeSet<_> = a.iter().cloned().collect();
        assert_eq!(a, datalog_oracle::answer(&dl, &db));
    }
}

/// The full SQL syntactic-variant family of Fig. 15 collapses to one
/// canonical form with identical semantics.
#[test]
fn fig15_sql_variants_collapse() {
    let catalog = rs_catalog();
    let groups: [&[&str]; 2] = [
        &[
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
            "SELECT DISTINCT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE R.B = S.B)",
            "SELECT DISTINCT R.A FROM R WHERE R.B IN (SELECT S.B FROM S)",
            "SELECT DISTINCT R.A FROM R WHERE R.B = ANY (SELECT S.B FROM S)",
        ],
        &[
            "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE R.B = S.B)",
            "SELECT DISTINCT R.A FROM R WHERE R.B NOT IN (SELECT S.B FROM S)",
            "SELECT DISTINCT R.A FROM R WHERE R.B <> ALL (SELECT S.B FROM S)",
        ],
    ];
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 3, 4, 15);
    let dbs: Vec<Database> = (&mut gen).take(25).collect();
    for group in groups {
        let canonical: Vec<_> = group
            .iter()
            .map(|text| rd_sql::parse_sql(text, &catalog).unwrap())
            .collect();
        for db in &dbs {
            let first = rd_sql::translate::eval_sql(&canonical[0], db).unwrap();
            for q in &canonical[1..] {
                let out = rd_sql::translate::eval_sql(q, db).unwrap();
                assert_eq!(out.tuples(), first.tuples());
            }
        }
    }
}

/// Example 6 / Fig. 7: logically equivalent, same signature, different
/// patterns — the motivating case for dissociation.
#[test]
fn example6_dissociation_separates_patterns() {
    let catalog = Catalog::from_schemas([TableSchema::new("R", ["A", "B"])]).unwrap();
    let q1 = rd_sql::parse_sql(
        "SELECT DISTINCT R1.A FROM R R1, R R2 WHERE R1.A = R2.A",
        &catalog,
    )
    .unwrap();
    let q2 = rd_sql::parse_sql(
        "SELECT DISTINCT R1.A FROM R R1, R R2 WHERE R1.B = R2.B",
        &catalog,
    )
    .unwrap();
    // Logically equivalent on every database…
    let mut gen = DbGenerator::with_int_domain(catalog.clone(), 3, 4, 6);
    for _ in 0..40 {
        let db = gen.next_db();
        let a = rd_sql::translate::eval_sql(&q1, &db).unwrap();
        let b = rd_sql::translate::eval_sql(&q2, &db).unwrap();
        assert_eq!(a.tuples(), b.tuples());
    }
    // …but not pattern-isomorphic.
    let v = pattern_isomorphic(
        &AnyQuery::Sql(q1),
        &AnyQuery::Sql(q2),
        &catalog,
        &EquivOptions::default(),
    );
    assert!(!v.is_isomorphic());
}
