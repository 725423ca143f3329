//! Compilation through the TRC hub stays linear in the input. Inlining a
//! shared IDB copies it once per use, and expanding unions or
//! disjunctions into normal form multiplies branches; on each input
//! below, n = 24 levels of sharing would make either blow up as 2^24.
//! Views keep the plan's branch and view count, and its scan count, a
//! small multiple of n, and the answer must still equal the textbook
//! oracle's.

#[path = "oracle/datalog.rs"]
mod datalog_oracle;
#[path = "oracle/ra.rs"]
mod ra_oracle;

use rd_core::exec::{execute, Block, Formula, Plan, QueryPlan};
use rd_core::{Catalog, Database, DbGenerator, TableSchema, Tuple, Value};
use rd_engine::{Artifact, Language};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const N: usize = 24;

fn catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

fn dbs() -> impl Iterator<Item = Database> {
    let domain = vec![Value::int(0), Value::int(1), Value::int(2), Value::int(3)];
    let mut gen = DbGenerator::new(catalog(), domain, 6, 0x11EA);
    (0..4).map(move |_| gen.next_db())
}

fn scans_in_block(b: &Block) -> usize {
    b.pre.iter().map(scans_in_formula).sum::<usize>()
        + b.scans
            .iter()
            .map(|s| 1 + s.filters.iter().map(scans_in_formula).sum::<usize>())
            .sum::<usize>()
}

fn scans_in_formula(f: &Formula) -> usize {
    match f {
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(scans_in_formula).sum(),
        Formula::Not(g) => scans_in_formula(g),
        Formula::Exists(b) => scans_in_block(b),
        Formula::Pred(_) => 0,
    }
}

fn scans_in_branch(q: &QueryPlan) -> usize {
    scans_in_block(&q.root) + q.deferred.iter().map(scans_in_formula).sum::<usize>()
}

/// Branches plus views, and scans, of a compiled plan.
fn size(plan: &Plan) -> (usize, usize) {
    match plan {
        Plan::Union(branches) => (branches.len(), branches.iter().map(scans_in_branch).sum()),
        Plan::Program(p) => p.strata.iter().fold((0, 0), |(units, scans), s| {
            (
                units + 1 + s.branches.len(),
                scans + s.branches.iter().map(scans_in_branch).sum::<usize>(),
            )
        }),
        Plan::Sentence(_) => (1, 0),
    }
}

/// Compiles and runs `text` on several instances: small, quick, and
/// right.
fn assert_linear(language: Language, text: &str) {
    let artifact = Artifact::prepare(language, text, &catalog()).unwrap();
    for db in dbs() {
        let start = Instant::now();
        let plan = artifact.compile(&db).unwrap();
        let got = execute(&plan, &db).unwrap();
        let elapsed = start.elapsed();
        let (units, scans) = size(&plan);
        assert!(units <= 8 * N, "{units} branches and views:\n{text}");
        assert!(scans <= 8 * N, "{scans} scans:\n{text}");
        assert!(elapsed < Duration::from_secs(1), "{elapsed:?}:\n{text}");
        let expected = match &artifact {
            Artifact::Ra(e) => ra_oracle::answer(e, &db).1,
            Artifact::Datalog(p) => datalog_oracle::answer(p, &db),
            _ => unreachable!("RA and Datalog only"),
        };
        let got: BTreeSet<Tuple> = db.resolve_relation(&got).iter().cloned().collect();
        assert_eq!(got, expected, "{text}");
    }
}

#[test]
fn conjoined_disjunctions_stay_linear() {
    let cond: Vec<String> = (0..N)
        .map(|k| format!("(A <> {} or B <> {})", k % 4, (k + 1) % 4))
        .collect();
    assert_linear(Language::Ra, &format!("sigma[{}](R)", cond.join(" and ")));
}

#[test]
fn nested_unions_under_joins_and_differences_stay_linear() {
    let mut e = String::from("R");
    for k in 0..N {
        e = format!(
            "((({e}) union R) - sigma[A = {} and B = {}](R)) join T",
            k % 4,
            (k + 1) % 4
        );
    }
    assert_linear(Language::Ra, &e);
}

#[test]
fn nested_non_equality_antijoins_stay_linear() {
    let mut e = String::from("R");
    for k in 0..N {
        // Drops A = 3 when 2 is in S, or A = 0 when 1 is; the selection
        // keeps every left operand compound, so each is materialized.
        let (op, c) = [(">", 2), ("<", 1)][k % 2];
        e = format!("sigma[B <> 9]({e}) antijoin[A {op} B] sigma[B = {c}](S)");
    }
    assert_linear(Language::Ra, &e);
}

#[test]
fn a_two_rule_idb_used_many_times_stays_linear() {
    let mut text = String::from("I(x) :- R(x, _).\nI(x) :- T(x).\nJ0(x) :- I(x), S(x).\n");
    for k in 1..N {
        text.push_str(&format!("J{k}(x) :- J{}(x), I(x).\n", k - 1));
    }
    text.push_str(&format!("Q(x) :- J{}(x), I(x), not T(x).", N - 1));
    assert_linear(Language::Datalog, &text);
    let uses = text.matches("I(x)").count() - 2;
    assert_eq!(uses, N + 1, "I is used once per J and once in Q");
}

#[test]
fn the_doubling_chain_stays_linear() {
    let mut text = String::from("I0(x) :- S(x).\n");
    for k in 1..=N {
        text.push_str(&format!(
            "I{k}(x) :- I{p}(x), R(x, y), I{p}(y).\n",
            p = k - 1
        ));
    }
    text.push_str(&format!("Q(x) :- I{N}(x)."));
    assert_linear(Language::Datalog, &text);
}
