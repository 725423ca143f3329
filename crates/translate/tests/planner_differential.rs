//! Differential check for the cost-based join orderer: DP-ordered
//! plans, greedy-ordered plans, and plans compiled against an
//! uninterned copy of the database must all produce the answer of the
//! textbook TRC oracle (`tests/oracle/trc.rs` at the workspace root) in
//! all four languages (plus RA\*⊲) — the optimizer may only change
//! *how* a query runs, never *what* it returns. Also pins the DP
//! orderer's choice on a skewed three-relation fixture where the
//! syntactic scan order is catastrophically bad.

#[path = "../../../tests/oracle/trc.rs"]
mod trc_oracle;

use rd_core::exec::{self, Plan};
use rd_core::plan::{OrderStrategy, PlanHints, PlannerOpts};
use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Tuple};
use rd_translate::FourWay;
use rd_trc::ast::TrcUnion;
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

fn greedy() -> PlannerOpts {
    PlannerOpts {
        strategy: OrderStrategy::Greedy,
        ..PlannerOpts::default()
    }
}

/// Rebuilds `db` without a symbol table: raw string storage, same
/// content. Lowering consults per-relation statistics and interned
/// constants, so plans compiled against this copy must still agree.
fn uninterned_copy(db: &Database) -> Database {
    let mut raw = Database::uninterned();
    for schema in db.catalog().iter() {
        let rel = db.require(schema.name()).unwrap();
        raw.add_relation(db.resolve_relation(rel));
    }
    raw
}

/// Lowers every representation of `four` with `opts`, executes on
/// `db`, and returns the symbol-resolved result sets, labeled.
fn eval_all(
    four: &FourWay,
    db: &Database,
    opts: &PlannerOpts,
) -> Vec<(&'static str, BTreeSet<Tuple>)> {
    let hints = PlanHints::default();
    let plans: Vec<(&'static str, Plan)> = vec![
        (
            "trc",
            rd_trc::eval::lower_union_with(&TrcUnion::single(four.trc.clone()), db, opts, &hints)
                .expect("trc lowering"),
        ),
        (
            "datalog",
            rd_translate::lower_program(&four.datalog, db, opts, &hints).expect("datalog lowering"),
        ),
        (
            "ra",
            rd_translate::lower_ra(&four.ra, db, opts, &hints).expect("ra lowering"),
        ),
        (
            "ra-antijoin",
            rd_translate::lower_ra(&four.ra_antijoin, db, opts, &hints)
                .expect("ra-antijoin lowering"),
        ),
        (
            "sql",
            rd_sql::translate::lower_sql_with(&four.sql, db, opts, &hints).expect("sql lowering"),
        ),
    ];
    plans
        .into_iter()
        .map(|(lang, plan)| {
            let rel = exec::execute(&plan, db).expect("execution");
            let tuples = rel.tuples().iter().map(|t| db.resolve_tuple(t)).collect();
            (lang, tuples)
        })
        .collect()
}

/// The property: over random TRC\* queries and random databases, every
/// (language × strategy × interning) combination returns the oracle's
/// rows.
#[test]
fn dp_greedy_and_uninterned_agree_across_languages() {
    let mut qgen = QueryGenerator::new(catalog(), GenConfig::default(), 4242);
    for i in 0..15u64 {
        let q = qgen.next_query();
        let four = FourWay::from_trc(&q, &catalog())
            .unwrap_or_else(|e| panic!("query {i} ({q}) failed to translate: {e}"));
        let mut dbs = DbGenerator::with_int_domain(catalog(), 3, 4, 9000 + i);
        for round in 0..8 {
            let db = dbs.next_db();
            let raw = uninterned_copy(&db);
            let expected = &trc_oracle::answer(&q, &db);
            for (variant, results) in [
                ("dp", &eval_all(&four, &db, &PlannerOpts::default())),
                ("greedy", &eval_all(&four, &db, &greedy())),
                (
                    "dp+uninterned",
                    &eval_all(&four, &raw, &PlannerOpts::default()),
                ),
                ("greedy+uninterned", &eval_all(&four, &raw, &greedy())),
            ] {
                for (lang, tuples) in results {
                    assert_eq!(
                        tuples, expected,
                        "query {i} ({q}), db round {round}, {variant}/{lang} \
                         disagrees with the oracle on\n{db}"
                    );
                }
            }
        }
    }
}

/// A skewed three-relation instance: R is large with a near-constant
/// join column B, S is tiny, T is small and highly selective against
/// R.A. The syntactic order (R first) enumerates all of R before any
/// filtering.
fn skewed_db() -> Database {
    let mut db = Database::new();
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            (0..10_000i64).map(|i| [i, i % 2]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("S", ["B"]),
            (0..5i64).map(|i| [i]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db.add_relation(
        Relation::from_rows(
            TableSchema::new("T", ["A"]),
            (0..100i64).map(|i| [i * 3]).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    db
}

/// Scan order (relation names) of the single conjunctive block in a
/// lowered TRC query plan.
fn scan_order(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Union(branches) => {
            assert_eq!(branches.len(), 1, "fixture query has one branch");
            branches[0]
                .root
                .scans
                .iter()
                .map(|s| s.rel.clone())
                .collect()
        }
        other => panic!("expected a union plan, got {other:?}"),
    }
}

/// Pins the DP orderer's decision on the skewed fixture: the written
/// order leads with the 10k-row R, but T⋈R keeps only ~100 rows while
/// S⋈R keeps all 10k, so the cheapest left-deep order starts at T,
/// probes R keyed on A, then probes S keyed on B. Greedy (size-ordered
/// seed) starts from tiny S instead — the estimator-blind choice this
/// PR replaces.
#[test]
fn dp_picks_the_selective_order_on_the_skewed_fixture() {
    let db = skewed_db();
    let q = rd_trc::parser::parse_query(
        "{ q(A) | exists r in R, s in S, t in T [ \
           q.A = r.A and r.B = s.B and r.A = t.A ] }",
        &db.catalog(),
    )
    .unwrap();
    let union = TrcUnion::single(q);
    let dp =
        rd_trc::eval::lower_union_with(&union, &db, &PlannerOpts::default(), &PlanHints::default())
            .unwrap();
    assert_eq!(
        scan_order(&dp),
        ["T", "R", "S"],
        "DP must start from the selective T⋈R edge"
    );
    let greedy_plan =
        rd_trc::eval::lower_union_with(&union, &db, &greedy(), &PlanHints::default()).unwrap();
    assert_ne!(
        scan_order(&greedy_plan)[0],
        "R",
        "even greedy must not lead with the 10k-row scan"
    );
    // Both orders agree on the result, and the estimate is sane: the
    // true join has 100 rows (every T.A hits R, every R.B hits S).
    let a = exec::execute(&dp, &db).unwrap();
    let b = exec::execute(&greedy_plan, &db).unwrap();
    assert_eq!(a.tuples(), b.tuples());
    assert_eq!(a.len(), 100);
}
