//! The engine against an independent oracle: random TRC\* queries and
//! Boolean sentences are carried into every representation of Theorem 6
//! ([`FourWay`]: TRC, Datalog, RA, RA with antijoins, SQL), each is
//! lowered and executed over an interned database and over its
//! string-resolved copy, and every result must equal the textbook
//! evaluation of the source TRC in `oracle/trc.rs` — which shares no
//! code with the plan IR or the executor.

#[path = "oracle/trc.rs"]
mod trc_oracle;

use proptest::prelude::*;
use rd_core::exec::{execute, Plan};
use rd_core::{Catalog, Database, DbGenerator, TableSchema, Tuple, Value};
use rd_translate::differential::FourWay;
use rd_trc::random::{GenConfig, QueryGenerator};
use rd_trc::{TrcQuery, TrcUnion};
use std::collections::BTreeSet;

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

/// A mixed int/string domain: strings exercise interning, and the
/// generator's integer constants land inside it.
fn mixed_domain() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(1),
        Value::int(2),
        Value::str("apple"),
        Value::str("red"),
        Value::str("zebra"),
    ]
}

/// The string-resolved copy of `db`: same content, interning disabled.
fn uninterned_copy(db: &Database) -> Database {
    let mut raw = Database::uninterned();
    for rel in db.iter() {
        raw.add_relation(rel.resolved());
    }
    raw
}

const REPRESENTATIONS: [&str; 5] = ["TRC", "Datalog", "RA", "RA-antijoin", "SQL"];

/// Lowers each of the five representations against `db`.
fn plans(four: &FourWay, db: &Database) -> [Plan; 5] {
    [
        rd_trc::lower_union(&TrcUnion::single(four.trc.clone()), db).unwrap(),
        Plan::Program(rd_datalog::lower_program(&four.datalog, db).unwrap()),
        rd_ra::lower(&four.ra, db).unwrap(),
        rd_ra::lower(&four.ra_antijoin, db).unwrap(),
        rd_sql::lower_sql(&four.sql, db).unwrap(),
    ]
}

/// Runs all five representations of `q` over `db` and its uninterned
/// copy, and checks each result against the oracle.
fn assert_all_match_oracle(q: &TrcQuery, db: &Database, label: &str) {
    let expected = trc_oracle::answer(q, db);
    let four = FourWay::from_trc(q, &catalog()).unwrap();
    let raw = uninterned_copy(db);
    for (copy, instance) in [("interned", db), ("uninterned", &raw)] {
        for (lang, plan) in REPRESENTATIONS.iter().zip(plans(&four, instance)) {
            let got = execute(&plan, instance).unwrap();
            let got: BTreeSet<Tuple> = instance.resolve_relation(&got).iter().cloned().collect();
            assert_eq!(got, expected, "{label}: {lang} ({copy}) vs oracle for {q}");
        }
    }
}

#[test]
fn oracle_answers_textbook_examples() {
    let cat = catalog();
    let db = rd_engine::parse_fixture(
        "R(A, B):\n  (1, 10)\n  (1, 20)\n  (2, 10)\nS(B):\n  (10)\n  (20)\nT(A):\n",
    )
    .unwrap();
    let division = rd_trc::parse_query(
        "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
         not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
        &cat,
    )
    .unwrap();
    assert_eq!(
        trc_oracle::answer(&division, &db),
        BTreeSet::from([Tuple::new([1i64])])
    );
    let some_divides = rd_trc::parse_query(
        "exists r in R [ not (exists s in S [ \
         not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ]",
        &cat,
    )
    .unwrap();
    assert_eq!(
        trc_oracle::answer(&some_divides, &db),
        BTreeSet::from([Tuple(Vec::new())])
    );
    let t_nonempty = rd_trc::parse_query("exists t in T [ t.A = t.A ]", &cat).unwrap();
    assert!(trc_oracle::answer(&t_nonempty, &db).is_empty());
    assert_all_match_oracle(&division, &db, "division");
    assert_all_match_oracle(&some_divides, &db, "division sentence");
    assert_all_match_oracle(&t_nonempty, &db, "empty T");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random TRC* queries agree with the oracle in every representation.
    #[test]
    fn queries_match_oracle_in_every_representation(seed in 0u64..20_000) {
        let q = QueryGenerator::new(catalog(), GenConfig::default(), seed).next_query();
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 4, seed ^ 0x0AC1);
        for round in 0..3 {
            assert_all_match_oracle(&q, &gen.next_db(), &format!("seed={seed} db={round}"));
        }
    }

    /// Random Boolean TRC* sentences agree with the oracle in every
    /// representation (the 0-ary relation: `{()}` or `{}`).
    #[test]
    fn sentences_match_oracle_in_every_representation(seed in 0u64..20_000) {
        let q = QueryGenerator::new(catalog(), GenConfig::default(), seed).next_sentence();
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 4, seed ^ 0x5E17);
        for round in 0..3 {
            assert_all_match_oracle(&q, &gen.next_db(), &format!("seed={seed} db={round}"));
        }
    }
}
