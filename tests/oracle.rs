//! The engine against an independent oracle: random TRC\* queries and
//! Boolean sentences are carried into every representation of Theorem 6
//! ([`FourWay`]: TRC, Datalog, RA, RA with antijoins, SQL), each is
//! lowered and executed over an interned database and over its
//! string-resolved copy, and every result must equal the textbook
//! evaluation of the source TRC in `oracle/trc.rs` — which shares no
//! code with the plan IR or the executor.
//!
//! The Datalog and RA representations run through [`Artifact::compile`],
//! the engine's route, which compiles every RA expression and Datalog
//! program through the TRC hub: RA\*⊲ and Datalog\* inputs to one TRC
//! branch, others (union, disjunction, non-equality antijoins, IDBs with
//! two rules or two uses) with views. Hand-written inputs check both
//! routes the same way.

#[path = "oracle/trc.rs"]
mod trc_oracle;

use proptest::prelude::*;
use rd_core::exec::{execute, Plan};
use rd_core::{Catalog, Database, DbGenerator, TableSchema, Tuple, Value};
use rd_engine::{Artifact, Language};
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

const REPRESENTATIONS: [&str; 5] = ["TRC", "SQL", "Datalog", "RA", "RA-antijoin"];

/// Lowers each of the five representations against `db`, the Datalog
/// and RA ones through the engine's route.
fn plans(four: &FourWay, db: &Database) -> [Plan; 5] {
    [
        rd_trc::lower_union(&TrcUnion::single(four.trc.clone()), db).unwrap(),
        rd_sql::lower_sql(&four.sql, db).unwrap(),
        Artifact::Datalog(four.datalog.clone()).compile(db).unwrap(),
        Artifact::Ra(four.ra.clone()).compile(db).unwrap(),
        Artifact::Ra(four.ra_antijoin.clone()).compile(db).unwrap(),
    ]
}

/// `true` if `plan` is one TRC branch or a sentence — the route of a
/// fragment input.
fn one_branch(plan: &Plan) -> bool {
    matches!(plan, Plan::Union(b) if b.len() == 1) || matches!(plan, Plan::Sentence(_))
}

/// Runs all five representations of `q` over `db` and its uninterned
/// copy, and checks each result against the oracle.
fn assert_all_match_oracle(q: &TrcQuery, db: &Database, label: &str) {
    let expected = trc_oracle::answer(q, db);
    let four = FourWay::from_trc(q, &catalog()).unwrap();
    let raw = uninterned_copy(db);
    for (copy, instance) in [("interned", db), ("uninterned", &raw)] {
        for (lang, plan) in REPRESENTATIONS.iter().zip(plans(&four, instance)) {
            assert!(
                one_branch(&plan),
                "{label}: {lang} compiles to one TRC branch"
            );
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

/// On random databases and their uninterned copies, the engine's answer
/// to `text` must equal the union of the oracle's answers to `branches`
/// — TRC queries that together say what `text` says. The plan must be
/// one TRC branch when `text` is in RA\*⊲ or Datalog\*, and carry views
/// (a program, or a union of branches) otherwise.
fn assert_engine_matches_branches(language: Language, text: &str, branches: &[&str]) {
    let cat = catalog();
    let artifact = Artifact::prepare(language, text, &cat).unwrap();
    let in_fragment = match &artifact {
        Artifact::Ra(e) => rd_ra::is_ra_star_antijoin(e),
        Artifact::Datalog(p) => rd_datalog::is_datalog_star(p),
        _ => unreachable!("RA and Datalog only"),
    };
    let branches: Vec<TrcQuery> = branches
        .iter()
        .map(|b| rd_trc::parse_query(b, &cat).unwrap())
        .collect();
    let mut gen = DbGenerator::new(cat.clone(), mixed_domain(), 4, 0xFA11);
    for round in 0..24 {
        let db = gen.next_db();
        let expected: BTreeSet<Tuple> = branches
            .iter()
            .flat_map(|q| trc_oracle::answer(q, &db))
            .collect();
        let raw = uninterned_copy(&db);
        for (copy, instance) in [("interned", &db), ("uninterned", &raw)] {
            let plan = artifact.compile(instance).unwrap();
            assert_eq!(
                one_branch(&plan),
                in_fragment,
                "{text} is one TRC branch exactly when it is in a hub fragment"
            );
            let got = execute(&plan, instance).unwrap();
            let got: BTreeSet<Tuple> = instance.resolve_relation(&got).iter().cloned().collect();
            assert_eq!(got, expected, "{text} ({copy}, db {round})");
        }
    }
}

/// Outside RA\*⊲ and Datalog\* the engine falls back on views: unions
/// and shared IDBs are materialized once and scanned by later strata.
#[test]
fn engine_fallback_outside_the_fragments_matches_oracle() {
    assert_engine_matches_branches(
        Language::Ra,
        "pi[A](R) union T",
        &[
            "{ q(A) | exists r in R [ q.A = r.A ] }",
            "{ q(A) | exists t in T [ q.A = t.A ] }",
        ],
    );
    assert_engine_matches_branches(
        Language::Ra,
        "pi[A](sigma[B = 1 or A = 2](R))",
        &[
            "{ q(A) | exists r in R [ q.A = r.A and r.B = 1 ] }",
            "{ q(A) | exists r in R [ q.A = r.A and r.A = 2 ] }",
        ],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(x) :- R(x, y), S(y). I(x) :- T(x). Q(x) :- I(x).",
        &[
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
            "{ q(A) | exists t in T [ q.A = t.A ] }",
        ],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(x) :- S(x). I(x) :- T(x). Q(x) :- R(x, _), not I(x).",
        &[
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ s.B = r.A ]) \
           and not (exists t in T [ t.A = r.A ]) ] }",
        ],
    );
    assert_engine_matches_branches(
        Language::Ra,
        "sigma[B > 0](R) antijoin[A < A] T",
        &[
            "{ q(A, B) | exists r in R [ q.A = r.A and q.B = r.B and r.B > 0 \
           and not (exists t in T [ r.A < t.A ]) ] }",
        ],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(x) :- T(x). Q(x, y) :- I(x), I(y), R(x, y).",
        &[
            "{ q(A, B) | exists r in R, t1 in T, t2 in T [ q.A = r.A and q.B = r.B \
           and t1.A = r.A and t2.A = r.B ] }",
        ],
    );
}

/// Inputs a user writes but no translator emits: a right attribute
/// joined twice in an antijoin, a variable passed twice to an IDB, and a
/// constant meeting a repeated head variable.
#[test]
fn engine_hub_on_hand_written_fragment_inputs_matches_oracle() {
    assert_engine_matches_branches(
        Language::Ra,
        "R antijoin[A = B and B = B] S",
        &["{ q(A, B) | exists r in R [ q.A = r.A and q.B = r.B \
           and not (exists s in S [ s.B = r.A and s.B = r.B ]) ] }"],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(y, z) :- R(y, z). Q(v) :- I(v, v).",
        &["{ q(A) | exists r in R [ q.A = r.A and r.B = r.A ] }"],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(y, 1) :- T(y). Q(v) :- I(v, v).",
        &["{ q(A) | exists t in T [ q.A = t.A and t.A = 1 ] }"],
    );
    assert_engine_matches_branches(
        Language::Datalog,
        "I(y, y) :- S(y). Q(x) :- R(x, y), I(y, 1).",
        &["{ q(A) | exists r in R, s in S [ q.A = r.A and s.B = r.B and r.B = 1 ] }"],
    );
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
