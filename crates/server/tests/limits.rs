//! Nesting limits over the wire. Every pass after parsing recurses over
//! a query's nesting, on a compute-pool worker's stack; inputs deeper
//! than [`MAX_NESTING`] must get a typed error frame, not abort the
//! process, and the connection must keep serving. Inputs exactly at the
//! limit answer in all four languages — RA and Datalog both inside their
//! fragments (one TRC branch) and outside them (views).

use rd_core::{Value, MAX_NESTING};
use rd_engine::{demo_database, Language};
use rd_server::{Client, Response, Server, ServerConfig};
use std::collections::BTreeSet;

/// The Datalog chain `I0 … I(n-2), Q` of `n` IDBs over the demo
/// `Sailor(sid, sname)`: `I0` holds sid 2, each next IDB the sailors
/// not in the previous one. With `views`, `I0` gets a second (empty)
/// rule, which makes it a view.
fn datalog_chain(n: usize, views: bool) -> String {
    let mut text = String::from("I0(x) :- Sailor(x, _), x > 1.\n");
    if views {
        text.push_str("I0(x) :- Sailor(x, _), x > 5.\n");
    }
    for k in 1..n - 1 {
        text.push_str(&format!("I{k}(x) :- Sailor(x, _), not I{}(x).\n", k - 1));
    }
    text.push_str(&format!("Q(x) :- Sailor(x, _), not I{}(x).", n - 2));
    text
}

/// `depth` projections around `inner`.
fn ra_nest(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "pi[sid](".repeat(depth), ")".repeat(depth))
}

/// A TRC query alternating `not` and `exists` over Sailor, `pairs` deep
/// below the root `exists`, with `parens` parenthesized groups around
/// the innermost comparison: `1 + 2·pairs + parens` levels.
fn trc_nest(pairs: usize, parens: usize) -> String {
    let mut text = String::from("{ q(sid) | exists s0 in Sailor [ q.sid = s0.sid");
    for k in 1..=pairs {
        text.push_str(&format!(
            " and not (exists s{k} in Sailor [ s{k}.sid = s{}.sid",
            k - 1
        ));
    }
    text.push_str(&format!(
        " and {}s0.sid = s0.sid{}",
        "(".repeat(parens),
        ")".repeat(parens)
    ));
    text.push_str(&" ])".repeat(pairs));
    text.push_str(" ] }");
    text
}

/// `depth` nested `NOT EXISTS` subqueries correlated on `sid`.
fn sql_nest(depth: usize) -> String {
    let mut text = String::from("SELECT DISTINCT s0.sid FROM Sailor AS s0 WHERE s0.sid = s0.sid");
    for k in 1..=depth {
        text.push_str(&format!(
            " AND NOT EXISTS (SELECT * FROM Sailor AS s{k} WHERE s{k}.sid = s{}.sid",
            k - 1
        ));
    }
    text.push_str(&")".repeat(depth));
    text
}

fn sids(resp: &Response) -> BTreeSet<i64> {
    match resp {
        Response::Query(q) => q
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(i) => *i,
                other => panic!("expected an int sid, got {other:?}"),
            })
            .collect(),
        other => panic!("expected a query response, got {other:?}"),
    }
}

fn serve() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        demo_database(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.serve()))
}

fn stop(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn inputs_deeper_than_the_limit_get_an_error_frame_and_the_connection_serves_on() {
    let (addr, handle) = serve();
    let mut client = Client::connect(addr).unwrap();
    let too_deep = format!("query nests deeper than the limit of {MAX_NESTING} levels");
    for (language, text) in [
        (Language::Datalog, datalog_chain(2_000, false)),
        (Language::Datalog, datalog_chain(3_000, true)),
        (Language::Ra, ra_nest(2_000, "Sailor")),
        (Language::Trc, trc_nest(1_000, 0)),
        (Language::Sql, sql_nest(1_000)),
    ] {
        match client.query(Some(language), &text).unwrap() {
            Response::Error(msg) => assert_eq!(msg, too_deep, "{language:?}"),
            other => panic!("{language:?}: expected an error frame, got {other:?}"),
        }
        let ok = client.query(Some(Language::Ra), "pi[sid](Sailor)").unwrap();
        assert_eq!(sids(&ok), BTreeSet::from([1, 2]), "after {language:?}");
    }
    // One level past the limit is already refused.
    for (language, text) in [
        (Language::Datalog, datalog_chain(MAX_NESTING + 1, false)),
        (Language::Ra, ra_nest(MAX_NESTING + 1, "Sailor")),
        (Language::Trc, trc_nest(63, 2)),
        (Language::Sql, sql_nest(MAX_NESTING + 1)),
    ] {
        let resp = client.query(Some(language), &text).unwrap();
        assert!(
            matches!(&resp, Response::Error(m) if *m == too_deep),
            "{language:?}: {resp:?}"
        );
    }
    stop(addr, handle);
}

#[test]
fn inputs_at_the_limit_answer_in_all_four_languages() {
    let (addr, handle) = serve();
    let mut client = Client::connect(addr).unwrap();
    let union = "pi[sid](Sailor) union pi[sid](Reserves)";
    for (language, text, expected) in [
        // I(126) holds sid 2, so Q is sid 1 — as a chain of inlined
        // negations, and with I0 a two-rule view.
        (
            Language::Datalog,
            datalog_chain(MAX_NESTING, false),
            vec![1],
        ),
        (Language::Datalog, datalog_chain(MAX_NESTING, true), vec![1]),
        (Language::Ra, ra_nest(MAX_NESTING, "Sailor"), vec![1, 2]),
        // 126 projections over a union of depth 2.
        (Language::Ra, ra_nest(MAX_NESTING - 2, union), vec![1, 2]),
        // 1 + 2·62 + 3 levels; the innermost exists holds, so the
        // negations alternate and the root's holds.
        (Language::Trc, trc_nest(62, 3), vec![1, 2]),
        (Language::Sql, sql_nest(MAX_NESTING), vec![1, 2]),
    ] {
        let resp = client.query(Some(language), &text).unwrap();
        assert!(matches!(resp, Response::Query(_)), "{language:?}: {resp:?}");
        assert_eq!(
            sids(&resp),
            expected.into_iter().collect(),
            "{language:?} at the limit"
        );
    }
    stop(addr, handle);
}
