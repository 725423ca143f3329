//! Property-based tests (proptest) over randomly generated TRC* queries
//! and databases: the workspace's core invariants.

use proptest::prelude::*;
use rd_core::{Catalog, DbGenerator, TableSchema};
use rd_trc::random::{GenConfig, QueryGenerator};

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Generated queries are valid TRC*.
    #[test]
    fn generated_queries_are_valid(seed in 0u64..20_000) {
        let q = random_query(seed);
        prop_assert!(q.check(&catalog()).is_ok());
        prop_assert!(rd_trc::check::is_nondisjunctive(&q));
    }

    /// Canonicalization is idempotent and preserves signature + semantics.
    #[test]
    fn canonicalization_invariants(seed in 0u64..20_000) {
        let q = random_query(seed);
        let c = rd_trc::canonicalize(&q);
        prop_assert_eq!(rd_trc::canonicalize(&c), c.clone());
        prop_assert_eq!(c.signature(), q.signature());
        let mut gen = DbGenerator::with_int_domain(catalog(), 3, 3, seed);
        for _ in 0..5 {
            let db = gen.next_db();
            let a = rd_trc::eval_query(&q, &db).unwrap();
            let b = rd_trc::eval_query(&c, &db).unwrap();
            prop_assert_eq!(a.tuples(), b.tuples());
        }
    }

    /// The TRC printer round-trips through the parser.
    #[test]
    fn printer_parser_roundtrip(seed in 0u64..20_000) {
        let q = random_query(seed);
        let text = rd_trc::to_ascii(&q);
        let back = rd_trc::parser::parse_query_unchecked(&text).unwrap();
        prop_assert_eq!(back, q);
    }

    /// Theorem 8: TRC* -> diagram -> TRC* preserves validity, signature,
    /// and semantics.
    #[test]
    fn diagram_roundtrip(seed in 0u64..20_000) {
        let q = random_query(seed);
        let d = rd_diagram::from_trc(&q, &catalog()).unwrap();
        d.validate().unwrap();
        prop_assert_eq!(d.signature(), q.signature());
        let back = rd_diagram::to_trc(&d, &catalog()).unwrap();
        let mut gen = DbGenerator::with_int_domain(catalog(), 3, 3, seed ^ 0xD1A);
        for _ in 0..4 {
            let db = gen.next_db();
            let a = rd_trc::eval_query(&q, &db).unwrap();
            let b = rd_trc::eval_query(&back.branches[0], &db).unwrap();
            prop_assert_eq!(a.tuples(), b.tuples());
        }
    }

    /// Theorem 6 part 5: TRC* -> SQL* -> TRC* preserves signature and
    /// semantics.
    #[test]
    fn sql_roundtrip(seed in 0u64..20_000) {
        let q = random_query(seed);
        let sql = rd_sql::trc_to_sql(&q).unwrap();
        let u = rd_sql::ast::SqlUnion::single(sql);
        prop_assert_eq!(u.signature(), q.signature());
        let back = rd_sql::sql_to_trc(&u, &catalog()).unwrap();
        let mut gen = DbGenerator::with_int_domain(catalog(), 3, 3, seed ^ 0x501);
        for _ in 0..4 {
            let db = gen.next_db();
            let a = rd_trc::eval_query(&q, &db).unwrap();
            let b = rd_trc::eval_query(&back.branches[0], &db).unwrap();
            prop_assert_eq!(a.tuples(), b.tuples());
        }
    }

    /// Dissociation invariants (Def. 10): length-preserving, schema-
    /// preserving, fresh names.
    #[test]
    fn dissociation_invariants(seed in 0u64..20_000) {
        let q = random_query(seed);
        let d = rd_pattern::dissociate::dissociate(
            &rd_pattern::AnyQuery::Trc(q.clone()),
            &catalog(),
            "p",
        )
        .unwrap();
        prop_assert_eq!(d.mapping.len(), q.signature().len());
        let fresh: std::collections::BTreeSet<&String> =
            d.mapping.iter().map(|(_, f)| f).collect();
        prop_assert_eq!(fresh.len(), d.mapping.len());
        let base = catalog();
        for (orig, f) in &d.mapping {
            prop_assert_eq!(
                d.catalog.require(f).unwrap().attrs(),
                base.require(orig).unwrap().attrs()
            );
        }
        // A query is always pattern-isomorphic to itself.
        let v = rd_pattern::pattern_isomorphic(
            &rd_pattern::AnyQuery::Trc(q.clone()),
            &rd_pattern::AnyQuery::Trc(q),
            &catalog(),
            &rd_pattern::EquivOptions { random_rounds: 20, ..Default::default() },
        );
        prop_assert!(v.is_isomorphic());
    }

    /// RA evaluation respects schema inference: evaluating any generated
    /// query's RA translation yields tuples of the inferred arity.
    #[test]
    fn ra_translation_schema_consistency(seed in 0u64..20_000) {
        let q = random_query(seed);
        let p = rd_translate::trc_to_datalog(&q, &catalog()).unwrap();
        let e = rd_translate::datalog_to_ra(&p, &catalog()).unwrap();
        let schema = e.schema(&catalog()).unwrap();
        let mut gen = DbGenerator::with_int_domain(catalog(), 3, 3, seed ^ 0xA11);
        let db = gen.next_db();
        let out = rd_translate::eval_ra(&e, &db).unwrap();
        prop_assert_eq!(out.schema().attrs(), schema.as_slice());
        for t in out.iter() {
            prop_assert_eq!(t.arity(), schema.len());
        }
    }
}
