//! The observability surface at the engine level: per-stage spans on
//! responses, the shared histogram registry, the metrics on/off knob,
//! and `explain_analyze` row counts agreeing with evaluation across all
//! four languages.

use rd_engine::{
    demo_database, parse_fixture, EngineShared, Language, QueryRequest, Session, SharedConfig,
    STAGE_NAMES,
};
use std::sync::Arc;

/// R(A,B) ⋈ S(B) fixture shared by the cross-language checks.
fn rs_session() -> Session {
    let db = parse_fixture(
        "R(A, B):\n  (1, 10)\n  (1, 20)\n  (2, 10)\n  (3, 30)\nS(B):\n  (10)\n  (20)\n",
    )
    .unwrap();
    Session::new(db)
}

#[test]
fn run_records_spans_and_registry() {
    let mut session = Session::new(demo_database());
    let resp = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    // A cold run passes through parse, plan, and execute.
    let stages: Vec<&str> = resp.spans.iter().map(|s| s.stage).collect();
    assert!(stages.contains(&"parse"), "{stages:?}");
    assert!(stages.contains(&"plan"), "{stages:?}");
    assert!(stages.contains(&"execute"), "{stages:?}");
    assert!(stages.iter().all(|s| STAGE_NAMES.contains(s)));
    let metrics = session.shared().metrics();
    assert_eq!(metrics.requests(), 1);
    assert_eq!(metrics.language(Language::Sql).count(), 1);
    assert_eq!(metrics.stage("parse").unwrap().count(), 1);
    assert_eq!(metrics.stage("serialize").unwrap().count(), 0);

    // A warm repeat skips evaluation: no plan stage, but the request
    // still lands in the language histogram.
    let warm = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    assert!(warm.eval_cache_hit);
    assert!(!warm.spans.iter().any(|s| s.stage == "plan"));
    assert_eq!(session.shared().metrics().requests(), 2);
}

#[test]
fn metrics_off_skips_tracing_entirely() {
    let mut session = Session::attach(Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            metrics: false,
            shards: 1,
            ..SharedConfig::default()
        },
    )));
    assert!(!session.shared().metrics_enabled());
    let resp = session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT Boat.color FROM Boat",
        ))
        .unwrap();
    assert!(resp.spans.is_empty());
    assert_eq!(resp.micros, 0);
    assert_eq!(session.shared().metrics().requests(), 0);
}

#[test]
fn explain_analyze_root_matches_evaluation_in_all_languages() {
    let mut session = rs_session();
    // The same join pattern in each of the four languages.
    let queries = [
        (
            Language::Trc,
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
        ),
        (
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        ),
        (Language::Datalog, "Q(x) :- R(x, y), S(y)."),
        (Language::Ra, "pi[A](R join S)"),
    ];
    for (language, text) in queries {
        let resp = session.run(&QueryRequest::new(language, text)).unwrap();
        let analyzed = session.explain_analyze(language, text).unwrap();
        assert_eq!(
            analyzed.plan.actual_rows,
            Some(resp.relation.len() as u64),
            "{language}: analyze root row count must match evaluation"
        );
        assert_eq!(resp.relation.len(), 2, "{language}");
        // At least one node carries an estimate, and some scan was
        // actually counted.
        fn any_node(
            n: &rd_core::exec::ExplainNode,
            f: &dyn Fn(&rd_core::exec::ExplainNode) -> bool,
        ) -> bool {
            f(n) || n.children.iter().any(|c| any_node(c, f))
        }
        assert!(
            any_node(&analyzed.plan, &|n| n.est_rows.is_some()),
            "{language}: no estimates anywhere"
        );
        assert!(
            any_node(&analyzed.plan, &|n| n.actual_rows.unwrap_or(0) > 0),
            "{language}: no actual counts anywhere"
        );
    }
}

/// Plain `explain` now carries the cost-based planner's estimate on the
/// query root (it's recorded at compile time, no execution needed) but
/// must NOT claim actual counts or q-errors — those exist only under
/// `explain analyze`.
#[test]
fn plain_explain_estimates_but_never_actuals() {
    let mut session = rs_session();
    let resp = session
        .explain(
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        )
        .unwrap();
    fn no_actuals(n: &rd_core::exec::ExplainNode) -> bool {
        n.actual_rows.is_none() && n.q_error.is_none() && n.children.iter().all(no_actuals)
    }
    assert!(no_actuals(&resp.plan));
    assert!(
        resp.plan.est_rows.is_some(),
        "cost-based plans record their estimate at compile time"
    );
}

fn any_node(
    n: &rd_core::exec::ExplainNode,
    f: &dyn Fn(&rd_core::exec::ExplainNode) -> bool,
) -> bool {
    f(n) || n.children.iter().any(|c| any_node(c, f))
}

/// Every span stage a request reports must also land in the shared
/// histogram registry — a span that never records is invisible to
/// `stats`/`metrics`, which is exactly how the `render` stage shipped
/// with `count: 0` for a whole release.
#[test]
fn every_reported_span_stage_lands_in_the_registry() {
    let mut session = Session::new(demo_database());
    // Translations + diagram force the render stage to do real work.
    let req = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat")
        .with_translations();
    let resp = session.run(&req).unwrap();
    let stages: Vec<&str> = resp.spans.iter().map(|s| s.stage).collect();
    assert!(
        stages.contains(&"render"),
        "translations request must pass through render: {stages:?}"
    );
    let metrics = session.shared().metrics();
    for stage in &stages {
        let hist = metrics
            .stage(stage)
            .unwrap_or_else(|| panic!("span stage {stage:?} missing from registry"));
        assert!(
            hist.count() > 0,
            "stage {stage:?} reported a span but recorded nothing"
        );
    }
}

/// Static explain yields a plan tree in every language — scans (or an
/// RA table leaf) for each of R and S — and a sentence explains as a
/// `sentence` root over its quantifier.
#[test]
fn explain_yields_a_tree_in_all_languages() {
    let mut session = rs_session();
    let queries = [
        (
            Language::Trc,
            "{ q(A) | exists r in R, s in S [ q.A = r.A and r.B = s.B ] }",
        ),
        (
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        ),
        (Language::Datalog, "Q(x) :- R(x, y), S(y)."),
        (Language::Ra, "pi[A](R join S)"),
    ];
    for (language, text) in queries {
        let resp = session.explain(language, text).unwrap();
        for table in ["R", "S"] {
            assert!(
                any_node(&resp.plan, &|n| (n.kind == "scan"
                    && n.detail.starts_with(&format!("{table} ")))
                    || (n.kind == "table" && n.detail == table)),
                "{language}: no read of {table}: {resp:?}"
            );
        }
    }
    let sentence = session
        .explain(Language::Trc, "exists r in R [ r.A = 1 ]")
        .unwrap();
    assert_eq!(sentence.plan.kind, "sentence", "{sentence:?}");
    assert!(
        any_node(&sentence.plan, &|n| n.kind == "exists"),
        "{sentence:?}"
    );
}

/// `explain analyze` additionally reports which join-table build the
/// batched executor picked. The S(B) probe keys are small dense ints,
/// so this fixture must show a `dense-key` build somewhere.
#[test]
fn explain_analyze_reports_join_build_kind() {
    let mut session = rs_session();
    let analyzed = session
        .explain_analyze(
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        )
        .unwrap();
    assert!(
        any_node(&analyzed.plan, &|n| n.build.as_deref() == Some("dense-key")),
        "dense int keys must build a dense-key table: {analyzed:?}"
    );
    assert!(
        any_node(&analyzed.plan, &|n| {
            n.build
                .as_deref()
                .is_none_or(|b| b == "dense-key" || b == "hash")
        }),
        "build kinds are only dense-key or hash: {analyzed:?}"
    );
}

/// One executor runs every plan, Boolean sentences included, so the
/// `tuple_fallbacks` counter stays 0 — and the sentence still answers.
#[test]
fn session_stats_report_no_tuple_fallbacks() {
    let mut session = rs_session();
    session
        .run(&QueryRequest::new(
            Language::Sql,
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.B",
        ))
        .unwrap();
    let resp = session
        .run(&QueryRequest::new(
            Language::Trc,
            "exists r in R [ r.A = 1 ]",
        ))
        .unwrap();
    assert_eq!(
        resp.relation.len(),
        1,
        "true sentence is the 0-ary singleton"
    );
    assert_eq!(session.stats().tuple_fallbacks, 0);
}
