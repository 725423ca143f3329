//! Theorem 6 as an executable check: translate a TRC\* query into all four
//! languages and compare the evaluations over databases.

use rd_core::{Catalog, CoreResult, Database, Tuple};
use rd_datalog::ast::DlProgram;
use rd_ra::ast::RaExpr;
use rd_sql::ast::SqlUnion;
use rd_trc::ast::{TrcQuery, TrcUnion};
use std::collections::BTreeSet;

/// A TRC\* query carried into all four languages (plus RA\*⊲).
#[derive(Debug, Clone)]
pub struct FourWay {
    /// The source TRC\* query.
    pub trc: TrcQuery,
    /// Datalog\* program (via the Appendix C part-4 translation).
    pub datalog: DlProgram,
    /// Basic RA\* expression (via Datalog, eq. 5).
    pub ra: RaExpr,
    /// RA\*⊲ expression (antijoins, Theorem 21).
    pub ra_antijoin: RaExpr,
    /// Canonical SQL\*.
    pub sql: SqlUnion,
}

impl FourWay {
    /// Builds all translations from a TRC\* query.
    pub fn from_trc(q: &TrcQuery, catalog: &Catalog) -> CoreResult<FourWay> {
        let datalog = crate::trc_to_datalog::trc_to_datalog(q, catalog)?;
        let ra = crate::datalog_to_ra::datalog_to_ra(&datalog, catalog)?;
        let ra_antijoin = crate::datalog_to_ra::datalog_to_ra_antijoin(&datalog, catalog)?;
        let sql = SqlUnion::single(rd_sql::translate::trc_to_sql(q)?);
        Ok(FourWay {
            trc: q.clone(),
            datalog,
            ra,
            ra_antijoin,
            sql,
        })
    }

    /// Evaluates all five representations on `db` and returns the five
    /// result tuple-sets (TRC, Datalog, RA, RA⊲, SQL).
    pub fn eval_all(&self, db: &Database) -> CoreResult<Vec<BTreeSet<Tuple>>> {
        let trc = rd_trc::eval::eval_query(&self.trc, db)?
            .iter()
            .cloned()
            .collect();
        let dl = crate::eval::eval_program(&self.datalog, db)?
            .iter()
            .cloned()
            .collect();
        let ra = crate::eval::eval_ra(&self.ra, db)?
            .iter()
            .cloned()
            .collect();
        let raa = crate::eval::eval_ra(&self.ra_antijoin, db)?
            .iter()
            .cloned()
            .collect();
        let sql = rd_sql::translate::eval_sql(&self.sql, db)?
            .iter()
            .cloned()
            .collect();
        Ok(vec![trc, dl, ra, raa, sql])
    }
}

/// Evaluates all translations of `q` on every database produced by `dbs`
/// and returns `Ok(count)` when all agree, or the offending database.
pub fn check_equivalent_results<I: IntoIterator<Item = Database>>(
    q: &TrcQuery,
    catalog: &Catalog,
    dbs: I,
) -> Result<usize, Box<(Database, String)>> {
    let four = match FourWay::from_trc(q, catalog) {
        Ok(f) => f,
        Err(e) => {
            return Err(Box::new((
                Database::new(),
                format!("translation failed: {e}"),
            )))
        }
    };
    let mut count = 0usize;
    for db in dbs {
        let results = match four.eval_all(&db) {
            Ok(r) => r,
            Err(e) => return Err(Box::new((db, format!("evaluation failed: {e}")))),
        };
        let first = &results[0];
        for (i, r) in results.iter().enumerate().skip(1) {
            if r != first {
                let lang = ["TRC", "Datalog", "RA", "RA-antijoin", "SQL"][i];
                return Err(Box::new((
                    db,
                    format!("{lang} disagrees with TRC: {r:?} vs {first:?}"),
                )));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Translates a TRC union into a SQL union (re-export convenience used by
/// benches; unions are outside the Datalog\*/RA\* fragments).
pub fn trc_union_to_sql(u: &TrcUnion) -> CoreResult<SqlUnion> {
    rd_sql::translate::trc_union_to_sql(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::{DbGenerator, TableSchema};
    use rd_trc::parser::parse_query;
    use rd_trc::random::{GenConfig, QueryGenerator};

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
        ])
        .unwrap()
    }

    #[test]
    fn division_agrees_everywhere_on_random_dbs() {
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
             not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
            &catalog(),
        )
        .unwrap();
        let gen = DbGenerator::with_int_domain(catalog(), 3, 4, 99);
        let n = check_equivalent_results(&q, &catalog(), gen.take(60))
            .unwrap_or_else(|e| panic!("counterexample: {}\n{}", e.1, e.0));
        assert_eq!(n, 60);
    }

    #[test]
    fn random_trc_star_queries_agree_across_languages() {
        // The Theorem 6 differential test, seeded and bounded.
        let mut qgen = QueryGenerator::new(catalog(), GenConfig::default(), 2024);
        for i in 0..25 {
            let q = qgen.next_query();
            let dbs = DbGenerator::with_int_domain(catalog(), 3, 3, 1000 + i);
            check_equivalent_results(&q, &catalog(), dbs.take(15))
                .unwrap_or_else(|e| panic!("query {i} ({q}) disagrees: {}\non db\n{}", e.1, e.0));
        }
    }

    #[test]
    fn theta_join_queries_agree() {
        let q = parse_query(
            "{ q(A) | exists t in T [ q.A = t.A and not (exists s in S [ s.B < t.A ]) ] }",
            &catalog(),
        )
        .unwrap();
        let gen = DbGenerator::with_int_domain(catalog(), 4, 3, 7);
        assert_eq!(
            check_equivalent_results(&q, &catalog(), gen.take(40))
                .map_err(|e| e.1)
                .unwrap(),
            40
        );
    }
}
