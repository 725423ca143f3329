//! Property-based tests for the interned-value representation: random
//! databases (with string *and* integer values) and random queries must
//! evaluate identically through the interned path and through a
//! string-resolved reference database ([`Database::uninterned`]), and the
//! four languages must still agree with each other post-refactor. The
//! Datalog and RA translations are checked against the textbook oracles
//! of their own languages (`oracle/datalog.rs`, `oracle/ra.rs`), and the
//! larger cases against the textbook TRC oracle in `oracle/trc.rs`.

#[path = "oracle/datalog.rs"]
mod datalog_oracle;
#[path = "oracle/ra.rs"]
mod ra_oracle;
#[path = "oracle/trc.rs"]
mod trc_oracle;

use proptest::prelude::*;
use rd_core::exec::execute;
use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Tuple, Value};
use rd_trc::random::{GenConfig, QueryGenerator};
use std::collections::BTreeSet;

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

fn random_query(seed: u64) -> rd_trc::TrcQuery {
    QueryGenerator::new(catalog(), GenConfig::default(), seed).next_query()
}

/// A mixed int/string domain: string values exercise interning (equality
/// on symbol ids) and the resolved lexicographic order comparisons.
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

/// The string-resolved reference copy of `db`: same content, interning
/// disabled, every stored value a raw `Int`/`Str`.
fn uninterned_copy(db: &Database) -> Database {
    let mut raw = Database::uninterned();
    for rel in db.iter() {
        raw.add_relation(rel.resolved());
    }
    raw
}

/// A wider mixed domain for the at-scale runs: enough distinct values
/// that generated relations actually reach hundreds of distinct rows
/// (set semantics collapses duplicates on the 6-value domain above).
fn wide_domain() -> Vec<Value> {
    let mut d: Vec<Value> = (0..48).map(Value::int).collect();
    d.extend((0..16).map(|i| Value::str(format!("w{i:02}"))));
    d
}

/// Lowers the same TRC* query into all four languages against `db`.
fn four_plans(q: &rd_trc::TrcQuery, cat: &Catalog, db: &Database) -> [rd_core::exec::Plan; 4] {
    let p = rd_translate::trc_to_datalog(q, cat).unwrap();
    let e = rd_translate::datalog_to_ra(&p, cat).unwrap();
    let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(q).unwrap());
    let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
    [
        rd_trc::lower_union(&trc_u, db).unwrap(),
        lower_program(&p, db),
        lower_ra(&e, db),
        rd_sql::lower_sql(&sql, db).unwrap(),
    ]
}

/// The engine's plan for a Datalog program, under the default planner.
fn lower_program(p: &rd_datalog::DlProgram, db: &Database) -> rd_core::exec::Plan {
    rd_translate::lower_program(p, db, &Default::default(), &Default::default()).unwrap()
}

/// The engine's plan for an RA expression, under the default planner.
fn lower_ra(e: &rd_ra::RaExpr, db: &Database) -> rd_core::exec::Plan {
    rd_translate::lower_ra(e, db, &Default::default(), &Default::default()).unwrap()
}

/// Runs `plan` over `db` and `reference_plan` over the string-resolved
/// reference, asserting both agree with the oracle's answer `expected`.
fn assert_oracle_reference_agree(
    plan: &rd_core::exec::Plan,
    reference_plan: &rd_core::exec::Plan,
    db: &Database,
    raw: &Database,
    expected: &BTreeSet<Tuple>,
    label: &str,
) {
    let fast = execute(plan, db).unwrap();
    let resolved: BTreeSet<Tuple> = db.resolve_relation(&fast).iter().cloned().collect();
    assert_eq!(&resolved, expected, "{label}: engine vs oracle");
    let reference = execute(reference_plan, raw).unwrap();
    assert_eq!(
        db.resolve_relation(&fast).tuples(),
        raw.resolve_relation(&reference).tuples(),
        "{label}: interned vs uninterned"
    );
}

/// Relation sizes straddling the batch chunk size
/// ([`rd_core::exec::CHUNK_ROWS`] = 1024): the last chunk of a scan is
/// short (1023), exactly full (1024), or forces one extra chunk (1025).
/// Results must equal the textbook oracle's, in every language, interned
/// or not.
#[test]
fn chunk_boundary_sizes_agree_across_languages() {
    assert_eq!(
        rd_core::exec::CHUNK_ROWS,
        1024,
        "test sizes track the chunk size"
    );
    let cat = catalog();
    let q = rd_trc::parse_query(
        "{ q(A) | exists r in R [ q.A = r.A and \
           (exists s in S [ s.B = r.B ]) and not (exists t in T [ t.A = r.A ]) ] }",
        &cat,
    )
    .unwrap();
    for n in [1023usize, 1024, 1025] {
        let mut db = Database::new();
        let mut r = Relation::empty(TableSchema::new("R", ["A", "B"]));
        for i in 0..n {
            // (A, B) pairs are distinct by construction (i = 41*(i/41) +
            // i%41), so the relation holds exactly `n` rows.
            let a = if i % 7 == 0 {
                Value::str(format!("a{}", i % 41))
            } else {
                Value::int((i % 41) as i64)
            };
            r.insert(Tuple(vec![a, Value::int((i / 41) as i64)]))
                .unwrap();
        }
        assert_eq!(r.len(), n, "row count must land exactly on the boundary");
        db.add_relation(r);
        let mut s = Relation::empty(TableSchema::new("S", ["B"]));
        for j in 0..26 {
            s.insert(Tuple(vec![Value::int(j)])).unwrap();
        }
        db.add_relation(s);
        let mut t = Relation::empty(TableSchema::new("T", ["A"]));
        for k in 0..12 {
            t.insert(Tuple(vec![Value::int(k)])).unwrap();
        }
        for k in [0usize, 7, 14, 21, 28, 35] {
            t.insert(Tuple(vec![Value::str(format!("a{k}"))])).unwrap();
        }
        db.add_relation(t);

        let raw = uninterned_copy(&db);
        let expected = trc_oracle::answer(&q, &db);
        let plans = four_plans(&q, &cat, &db);
        let reference_plans = four_plans(&q, &cat, &raw);
        for (lang, (plan, reference)) in plans.iter().zip(&reference_plans).enumerate() {
            assert_oracle_reference_agree(
                plan,
                reference,
                &db,
                &raw,
                &expected,
                &format!("n={n} lang={lang}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Interned evaluation agrees with the string-resolved reference
    /// path on random databases and random TRC* queries.
    #[test]
    fn interned_matches_string_reference(seed in 0u64..20_000) {
        let q = random_query(seed);
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 4, seed ^ 0x1237);
        for _ in 0..3 {
            let db = gen.next_db();
            let raw = uninterned_copy(&db);
            prop_assert_eq!(&db, &raw, "copies must hold the same content");
            prop_assert_eq!(db.fingerprint(), raw.fingerprint());
            let interned = rd_trc::eval_query(&q, &db).unwrap();
            let reference = rd_trc::eval_query(&q, &raw).unwrap();
            // Compare in the resolved edge representation (the reference
            // result already is; resolve_relation is the identity there).
            prop_assert_eq!(
                db.resolve_relation(&interned).tuples(),
                raw.resolve_relation(&reference).tuples()
            );
        }
    }

    /// All four languages agree on interned databases: TRC (source),
    /// Datalog and RA (Theorem 6 translations, each also checked against
    /// its own language's oracle), and SQL (evaluated via its own
    /// front-end path).
    #[test]
    fn four_languages_agree_post_refactor(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
        let e = rd_translate::datalog_to_ra(&p, &cat).unwrap();
        let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(&q).unwrap());
        let mut gen = DbGenerator::new(cat, mixed_domain(), 4, seed ^ 0x51AB);
        for _ in 0..2 {
            let db = gen.next_db();
            let trc_out = rd_trc::eval_query(&q, &db).unwrap();
            let dl_out = rd_translate::eval_program(&p, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), dl_out.tuples(), "trc vs datalog");
            let dl_resolved: BTreeSet<Tuple> = db.resolve_relation(&dl_out).iter().cloned().collect();
            prop_assert_eq!(dl_resolved, datalog_oracle::answer(&p, &db), "datalog vs oracle");
            let ra_out = rd_translate::eval_ra(&e, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), ra_out.tuples(), "trc vs ra");
            let ra_resolved: BTreeSet<Tuple> = db.resolve_relation(&ra_out).iter().cloned().collect();
            prop_assert_eq!(ra_resolved, ra_oracle::answer(&e, &db).1, "ra vs oracle");
            let sql_out = rd_sql::translate::eval_sql(&sql, &db).unwrap();
            prop_assert_eq!(trc_out.tuples(), sql_out.tuples(), "trc vs sql");
        }
    }

    /// The unified executor agrees with the `Database::uninterned()`
    /// reference path across *all four languages*: random TRC* queries
    /// are carried into Datalog*, RA*, and SQL* (Theorem 6), each is
    /// lowered onto the shared plan IR and executed over the interned
    /// database and the string-resolved copy, and every pair of results
    /// must match in the resolved edge representation. This pins the
    /// one-executor refactor to the per-language semantics.
    #[test]
    fn unified_executor_matches_uninterned_reference_all_languages(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let p = rd_translate::trc_to_datalog(&q, &cat).unwrap();
        let e = rd_translate::datalog_to_ra(&p, &cat).unwrap();
        let sql = rd_sql::ast::SqlUnion::single(rd_sql::trc_to_sql(&q).unwrap());
        let trc_u = rd_trc::TrcUnion::new(vec![q.clone()]).unwrap();
        let mut gen = DbGenerator::new(cat, mixed_domain(), 4, seed ^ 0x9E3A);
        for _ in 0..2 {
            let db = gen.next_db();
            let raw = uninterned_copy(&db);
            // Lower once per database (plans bake in interned ids and
            // size-driven scan orders) and run the shared executor.
            let pairs: [(rd_core::exec::Plan, rd_core::exec::Plan); 4] = [
                (rd_trc::lower_union(&trc_u, &db).unwrap(),
                 rd_trc::lower_union(&trc_u, &raw).unwrap()),
                (lower_program(&p, &db), lower_program(&p, &raw)),
                (lower_ra(&e, &db), lower_ra(&e, &raw)),
                (rd_sql::lower_sql(&sql, &db).unwrap(), rd_sql::lower_sql(&sql, &raw).unwrap()),
            ];
            let mut resolved_first: Option<rd_core::TupleSet> = None;
            for (interned_plan, reference_plan) in &pairs {
                let interned = rd_core::exec::execute(interned_plan, &db).unwrap();
                let reference = rd_core::exec::execute(reference_plan, &raw).unwrap();
                let resolved = db.resolve_relation(&interned).tuples().clone();
                prop_assert_eq!(&resolved, raw.resolve_relation(&reference).tuples(),
                                "interned vs uninterned");
                // And all four languages agree with each other.
                match &resolved_first {
                    None => resolved_first = Some(resolved),
                    Some(first) => prop_assert_eq!(first, &resolved, "cross-language"),
                }
            }
        }
    }

    /// The executor agrees with the textbook oracle (the scalar,
    /// tuple-at-a-time reference) and with the `Database::uninterned()`
    /// reference on databases of at least 256 rows — enough volume that
    /// keyed probes, dense-key tables, and quantifier pruning all do
    /// real work — across all four languages.
    #[test]
    fn batched_matches_scalar_and_uninterned_at_scale(seed in 0u64..20_000) {
        let q = random_query(seed);
        let cat = catalog();
        let mut gen = DbGenerator::new(cat.clone(), wide_domain(), 300, seed ^ 0xBA7C);
        let mut db = gen.next_db();
        while db.iter().map(|r| r.len()).sum::<usize>() < 256 {
            db = gen.next_db();
        }
        let raw = uninterned_copy(&db);
        let expected = trc_oracle::answer(&q, &db);
        let plans = four_plans(&q, &cat, &db);
        let reference_plans = four_plans(&q, &cat, &raw);
        for (lang, (plan, reference)) in plans.iter().zip(&reference_plans).enumerate() {
            assert_oracle_reference_agree(plan, reference, &db, &raw, &expected,
                                          &format!("seed={seed} lang={lang}"));
        }
    }

    /// The planner must not change results: evaluating with bindings
    /// and conjuncts in reversed source order agrees with the original.
    #[test]
    fn join_reorder_preserves_semantics(seed in 0u64..20_000) {
        let q = random_query(seed);
        // Build a structurally reversed twin by round-tripping through
        // the printer with reversed binding lists where possible; at
        // minimum, canonicalization + evaluation must be stable.
        let c = rd_trc::canonicalize(&q);
        let mut gen = DbGenerator::new(catalog(), mixed_domain(), 3, seed ^ 0x77);
        for _ in 0..2 {
            let db = gen.next_db();
            let a = rd_trc::eval_query(&q, &db).unwrap();
            let b = rd_trc::eval_query(&c, &db).unwrap();
            prop_assert_eq!(a.tuples(), b.tuples());
        }
    }
}
