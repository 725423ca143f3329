//! Every RA expression and Datalog program compiles through the TRC hub
//! (`Artifact::compile_with`, by way of `rd_translate::eval`); its
//! answer must keep the shape the language gives it — the schema name,
//! the `attrs`, the rows — since that is what the wire protocol reports.
//! The reference ("native") answer is the language's own textbook
//! semantics: the set-semantics evaluators in `oracle/ra.rs` and
//! `oracle/datalog.rs`, which share no code with the plan IR, the
//! translations or the executor. The inputs are the textbook forms,
//! hand-picked corner cases, and random programs and expressions written
//! directly in the two languages rather than by a translator — inside
//! the RA\*⊲ and Datalog\* fragments (one TRC branch each) and outside
//! them (unions, disjunctive selections, non-equality antijoins, IDBs
//! with several rules or several uses).

#[path = "oracle/datalog.rs"]
mod datalog_oracle;
#[path = "oracle/ra.rs"]
mod ra_oracle;

use proptest::prelude::*;
use rd_core::exec::{execute, Plan};
use rd_core::{Catalog, Database, DbGenerator, Relation, TableSchema, Tuple, Value};
use rd_engine::{Artifact, Language, QueryRequest, Session};
use rd_translate::differential::FourWay;
use std::collections::BTreeSet;

/// A hand-made sailors instance on which most of q01–q22 answer
/// something, then random instances over every constant they use.
fn sailors_dbs(catalog: &Catalog) -> impl Iterator<Item = Database> {
    let fixture = rd_engine::parse_fixture(
        "Sailors(sid, sname, rating, age):\n\
           (1, 'Bob', 7, 25)\n  (2, 'Lubber', 8, 40)\n  (3, 'Ann', 10, 20)\n  (4, 'Cy', 10, 35)\n\
         Boats(bid, bname, color):\n\
           (101, 'Interlake', 'red')\n  (102, 'Clipper', 'green')\n  (103, 'Marine', 'red')\n\
         Reserves(sid, bid, day):\n\
           (1, 101, 8)\n  (1, 102, 8)\n  (1, 103, 9)\n  (2, 103, 8)\n  (3, 101, 5)\n\
           (3, 102, 5)\n  (3, 103, 5)\n  (4, 103, 7)\n",
    )
    .unwrap();
    let domain = [
        Value::int(1),
        Value::int(7),
        Value::int(8),
        Value::int(10),
        Value::int(30),
        Value::int(103),
        Value::str("red"),
        Value::str("Bob"),
        Value::str("Lubber"),
        Value::str("Interlake"),
    ];
    let mut gen = DbGenerator::new(catalog.clone(), domain.to_vec(), 8, 0x5A11);
    std::iter::once(fixture).chain((0..3).map(move |_| gen.next_db()))
}

/// The name, attributes and resolved rows of an answer.
type Shape = (String, Vec<String>, BTreeSet<Tuple>);

fn shape(rel: &Relation, db: &Database) -> Shape {
    (
        rel.schema().name().to_string(),
        rel.schema().attrs().to_vec(),
        db.resolve_relation(rel).iter().cloned().collect(),
    )
}

/// The native answer to an RA or Datalog artifact, from the oracles: an
/// RA answer is `q` over the expression's attributes, a Datalog answer
/// the query predicate over `x1, …, xn`.
fn native(artifact: &Artifact, db: &Database) -> Shape {
    match artifact {
        Artifact::Ra(e) => {
            let (attrs, rows) = ra_oracle::answer(e, db);
            ("q".to_string(), attrs, rows)
        }
        Artifact::Datalog(p) => {
            let arity = p
                .rules
                .iter()
                .find(|r| r.head.pred == p.query)
                .map_or(0, |r| r.head.terms.len());
            let attrs = (1..=arity).map(|i| format!("x{i}")).collect();
            (p.query.clone(), attrs, datalog_oracle::answer(p, db))
        }
        _ => unreachable!("RA and Datalog only"),
    }
}

/// `true` for RA\*⊲ expressions and Datalog\* programs.
fn in_fragment(artifact: &Artifact) -> bool {
    match artifact {
        Artifact::Ra(e) => rd_ra::is_ra_star_antijoin(e),
        Artifact::Datalog(p) => rd_datalog::is_datalog_star(p),
        _ => unreachable!("RA and Datalog only"),
    }
}

/// Fragment inputs compile to a single TRC branch, as at the Theorem 6
/// translation; the others may carry views.
fn assert_route(artifact: &Artifact, plan: &Plan, text: &str) {
    if in_fragment(artifact) {
        assert!(
            matches!(plan, Plan::Union(b) if b.len() == 1),
            "{text} compiles to one TRC branch"
        );
    }
}

/// Runs `text` through a fresh [`Session`] and checks its answer and its
/// route against the native answer; returns the row count.
fn assert_session_matches_native(language: Language, text: &str, db: &Database) -> usize {
    let artifact = Artifact::prepare(language, text, &db.catalog()).unwrap();
    assert_route(&artifact, &artifact.compile(db).unwrap(), text);
    let mut session = Session::new(db.clone());
    let response = session
        .run(&QueryRequest::new(language, text))
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let expected = native(&artifact, db);
    assert_eq!(
        shape(&response.relation, db),
        expected,
        "{language:?} {text}"
    );
    expected.2.len()
}

#[test]
fn textbook_forms_answer_with_their_native_shape() {
    let catalog = rd_textbook::schemas::sailors();
    let dbs: Vec<Database> = sailors_dbs(&catalog).collect();
    let (mut checked, mut nonempty) = (0, 0);
    for entry in rd_textbook::corpus().iter().take(22) {
        let union = entry.parse();
        let [q] = union.branches.as_slice() else {
            panic!("{} is a one-branch query", entry.id);
        };
        let four = FourWay::from_trc(q, &catalog).unwrap();
        for db in &dbs {
            for ra in [&four.ra, &four.ra_antijoin] {
                assert!(rd_ra::is_ra_star_antijoin(ra), "{}", entry.id);
                let text = rd_ra::to_ascii(ra);
                nonempty += usize::from(assert_session_matches_native(Language::Ra, &text, db) > 0);
            }
            assert!(rd_datalog::is_datalog_star(&four.datalog), "{}", entry.id);
            let text = four.datalog.to_string();
            nonempty +=
                usize::from(assert_session_matches_native(Language::Datalog, &text, db) > 0);
            checked += 1;
        }
    }
    assert_eq!(checked, 22 * dbs.len());
    // Three forms per query and instance; most must say something.
    assert!(
        nonempty * 2 > checked * 3,
        "only {nonempty} non-empty answers"
    );
}

/// Datalog\* programs whose heads carry constants, repeat a variable, or
/// pass `_` to a negated IDB, and calls that pass one variable twice: the
/// hub translation covers them, with the native answer, and so do their
/// variants with an IDB used twice or defined by two rules.
#[test]
fn datalog_star_corner_cases_match_native() {
    let catalog = rd_textbook::schemas::sailors();
    let programs = [
        "Q(x, 1) :- Sailors(x, _, _, _).",
        "Q(x, x) :- Sailors(x, _, r, _), r > 7.",
        "I(s, 103) :- Reserves(s, _, _). Q(n) :- Sailors(s, n, _, _), I(s, 103).",
        "I(s, 1) :- Reserves(s, _, _). Q(n) :- Sailors(s, n, _, _), I(s, 103).",
        "I(s, b) :- Reserves(s, b, _). Q(n) :- Sailors(s, n, _, _), not I(s, _).",
        "I(s, 103) :- Reserves(s, _, _). Q(s) :- Sailors(s, _, _, _), not I(s, 103).",
        "I(s) :- Reserves(s, 103, _). Q(t1) :- Sailors(t1, _, _, _), not I(t1).",
        "I(s, r) :- Sailors(s, _, r, _). Q(v) :- I(v, v).",
        "I(s, 7) :- Sailors(s, _, _, _). Q(v) :- I(v, v).",
        "I(s, s) :- Reserves(_, s, _). Q(n) :- Sailors(_, n, r, _), I(r, 103).",
    ];
    let with_views = [
        "I(s, 103) :- Reserves(s, _, _). Q(n) :- Sailors(s, n, _, _), I(s, 103), not I(s, 1).",
        "I(s, b) :- Reserves(s, b, _). I(s, s) :- Sailors(s, _, 10, _). \
         Q(n) :- Sailors(s, n, _, _), not I(s, _).",
        "I(s, r) :- Sailors(s, _, r, _). I(b, b) :- Boats(b, _, 'red'). Q(v) :- I(v, v), I(v, _).",
        "Q(x, 1) :- Sailors(x, _, _, _). Q(x, x) :- Reserves(x, _, _).",
    ];
    for db in sailors_dbs(&catalog) {
        for text in programs {
            let artifact = Artifact::prepare(Language::Datalog, text, &catalog).unwrap();
            assert!(in_fragment(&artifact), "{text}");
            assert_session_matches_native(Language::Datalog, text, &db);
        }
        for text in with_views {
            let artifact = Artifact::prepare(Language::Datalog, text, &catalog).unwrap();
            assert!(!in_fragment(&artifact), "{text}");
            assert_session_matches_native(Language::Datalog, text, &db);
        }
    }
}

/// A query predicate named like one of the hub's tuple variables (`t1`)
/// must not capture it.
#[test]
fn query_predicate_named_like_a_tuple_variable() {
    let catalog = rd_textbook::schemas::sailors();
    let text = "t1(n) :- Sailors(s, n, _, _), Reserves(s, 103, _).";
    for db in sailors_dbs(&catalog) {
        assert_session_matches_native(Language::Datalog, text, &db);
    }
}

/// R(A, B), S(B), T(A): small enough that random instances over a
/// four-value domain make joins, repeated values and empty tables common.
fn rst_catalog() -> Catalog {
    Catalog::from_schemas([
        TableSchema::new("R", ["A", "B"]),
        TableSchema::new("S", ["B"]),
        TableSchema::new("T", ["A"]),
    ])
    .unwrap()
}

const TABLES: [(&str, &[&str]); 3] = [("R", &["A", "B"]), ("S", &["B"]), ("T", &["A"])];
const CONSTANTS: [&str; 3] = ["0", "1", "'a'"];
const OPS: [&str; 4] = ["=", "<>", "<", ">="];

/// A splitmix64 stream, so each generated input is a function of its seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// Random Datalog programs written the way a user might: callers
/// repeat a variable (`I(x, x)`), pass constants and `_`, and heads carry
/// constants and repeated variables. Without `views` every IDB has one
/// rule and one use (Datalog\*); with them, an IDB (the query too) may
/// get a second rule, and a finished IDB may be used again.
struct ProgramGen {
    draw: Draw,
    rules: Vec<String>,
    idbs: usize,
    views: bool,
    /// IDBs whose rules are all written, with their arities.
    done: Vec<(String, usize)>,
}

impl ProgramGen {
    fn program(seed: u64, views: bool) -> String {
        let mut gen = ProgramGen {
            draw: Draw(seed),
            rules: Vec::new(),
            idbs: 0,
            views,
            done: Vec::new(),
        };
        let arity = 1 + gen.draw.below(2);
        gen.rule("Q", arity, 0);
        if views && gen.draw.chance(30) {
            gen.rule("Q", arity, 0);
        }
        gen.rules.join("\n")
    }

    /// A term of a call: a constant, `_`, or a variable drawn from
    /// `fresh` (binding it), or from `bound` when `fresh` is empty.
    fn term(&mut self, bound: &mut Vec<&'static str>, fresh: &[&'static str]) -> String {
        match self.draw.below(10) {
            0 => self.draw.pick(&CONSTANTS).to_string(),
            1 => "_".to_string(),
            _ if fresh.is_empty() => match bound.is_empty() {
                true => "_".to_string(),
                false => self.draw.pick(bound).to_string(),
            },
            _ => {
                let v = self.draw.pick(fresh);
                bound.push(v);
                v.to_string()
            }
        }
    }

    /// An IDB whose rules are written before its caller's — a fresh one
    /// of random arity, or with views an already finished one; returns
    /// its name and arity.
    fn callee(&mut self, depth: usize) -> (String, usize) {
        if self.views && !self.done.is_empty() && self.draw.chance(40) {
            return self.draw.pick(&self.done);
        }
        self.idbs += 1;
        let name = format!("I{}", self.idbs);
        let arity = 1 + self.draw.below(2);
        self.rule(&name, arity, depth + 1);
        if self.views && self.draw.chance(40) {
            self.rule(&name, arity, depth + 1);
        }
        self.done.push((name.clone(), arity));
        (name, arity)
    }

    fn rule(&mut self, pred: &str, arity: usize, depth: usize) {
        let mut bound = Vec::new();
        let mut body = Vec::new();
        for _ in 0..1 + self.draw.below(2) {
            let (table, attrs) = self.draw.pick(&TABLES);
            let terms: Vec<String> = attrs
                .iter()
                .map(|_| self.term(&mut bound, &["x", "y", "z"]))
                .collect();
            body.push(format!("{table}({})", terms.join(", ")));
        }
        if depth < 2 && self.draw.chance(50) {
            // `w` is only ever bound by a call, and a call may pass one
            // variable twice.
            let (idb, n) = self.callee(depth);
            let terms: Vec<String> = match n == 2 && self.draw.chance(40) {
                true => {
                    let v = self.draw.pick(&["x", "w"]);
                    bound.push(v);
                    vec![v.to_string(); 2]
                }
                false => (0..n)
                    .map(|_| self.term(&mut bound, &["x", "y", "w"]))
                    .collect(),
            };
            body.push(format!("{idb}({})", terms.join(", ")));
        }
        if bound.is_empty() {
            body.push("T(x)".to_string());
            bound.push("x");
        }
        if self.draw.chance(60) {
            let (pred, n) = if depth < 2 && self.draw.chance(50) {
                self.callee(depth)
            } else {
                let (table, attrs) = self.draw.pick(&TABLES);
                (table.to_string(), attrs.len())
            };
            let terms: Vec<String> = (0..n).map(|_| self.term(&mut bound, &[])).collect();
            body.push(format!("not {pred}({})", terms.join(", ")));
        }
        if self.draw.chance(30) {
            let left = self.draw.pick(&bound);
            let right = match self.draw.chance(50) {
                true => self.draw.pick(&bound).to_string(),
                false => self.draw.pick(&CONSTANTS).to_string(),
            };
            body.push(format!("{left} {} {right}", self.draw.pick(&OPS)));
        }
        // Mostly distinct head variables, so that a caller repeating a
        // variable equates two different ones.
        bound.sort_unstable();
        bound.dedup();
        let first = self.draw.below(bound.len());
        let head: Vec<String> = (0..arity)
            .map(|i| match self.draw.below(10) {
                0 | 1 => self.draw.pick(&CONSTANTS).to_string(),
                2 => self.draw.pick(&bound).to_string(),
                _ => bound[(first + i) % bound.len()].to_string(),
            })
            .collect();
        self.rules.push(format!(
            "{pred}({}) :- {}.",
            head.join(", "),
            body.join(", ")
        ));
    }
}

/// Random RA\*⊲ expressions: selections, projections, renames, products,
/// θ- and natural joins, differences, and equality antijoins whose
/// conditions may name one attribute on either side twice. With `full`,
/// also unions, disjunctive selections and antijoins on any comparison.
struct ExprGen {
    draw: Draw,
    fresh: usize,
    full: bool,
}

impl ExprGen {
    fn expr(seed: u64, full: bool) -> String {
        let mut gen = ExprGen {
            draw: Draw(seed),
            fresh: 0,
            full,
        };
        gen.sub(3).0
    }

    /// A subexpression cut down and renamed to `attrs`, or a selection
    /// over `text` (whose schema is `attrs`) when it is too narrow.
    fn same_schema(&mut self, depth: usize, text: &str, attrs: &[String]) -> String {
        let (rtext, rattrs) = self.sub(depth);
        match rattrs.len() >= attrs.len() {
            true => self.renamed_to(&rtext, &rattrs[..attrs.len()], attrs),
            false => format!("sigma[{}]({text})", self.condition(attrs)),
        }
    }

    fn fresh(&mut self) -> String {
        self.fresh += 1;
        format!("C{}", self.fresh)
    }

    /// `e` with every attribute that `taken` also has renamed apart.
    fn rename_apart(
        &mut self,
        (text, attrs): (String, Vec<String>),
        taken: &[String],
    ) -> (String, Vec<String>) {
        let clashes: Vec<String> = attrs
            .iter()
            .filter(|a| taken.contains(a))
            .cloned()
            .collect();
        if clashes.is_empty() {
            return (text, attrs);
        }
        let renames: Vec<(String, String)> =
            clashes.into_iter().map(|a| (a, self.fresh())).collect();
        let attrs = attrs
            .iter()
            .map(|a| {
                renames
                    .iter()
                    .find(|(from, _)| from == a)
                    .map_or(a, |(_, to)| to)
                    .clone()
            })
            .collect();
        let list: Vec<String> = renames.iter().map(|(f, t)| format!("{f}->{t}")).collect();
        (format!("rho[{}]({text})", list.join(", ")), attrs)
    }

    /// `pi[from](text)` with `from[i]` renamed to `to[i]`, through fresh
    /// names so that no rename clashes with an attribute still present.
    fn renamed_to(&mut self, text: &str, from: &[String], to: &[String]) -> String {
        let via: Vec<String> = from.iter().map(|_| self.fresh()).collect();
        let list = |a: &[String], b: &[String]| -> String {
            let pairs: Vec<String> = a.iter().zip(b).map(|(x, y)| format!("{x}->{y}")).collect();
            pairs.join(", ")
        };
        format!(
            "rho[{}](rho[{}](pi[{}]({text})))",
            list(&via, to),
            list(from, &via),
            from.join(", ")
        )
    }

    fn condition(&mut self, attrs: &[String]) -> String {
        let cmps: Vec<String> = (0..1 + self.draw.below(2))
            .map(|_| {
                let left = self.draw.pick(attrs);
                let right = match self.draw.chance(50) {
                    true => self.draw.pick(attrs),
                    false => self.draw.pick(&CONSTANTS).to_string(),
                };
                format!("{left} {} {right}", self.draw.pick(&OPS))
            })
            .collect();
        cmps.join(" and ")
    }

    /// Pairs of a left and a right attribute, drawn with replacement.
    fn pairs(&mut self, left: &[String], right: &[String], ops: &[&str]) -> String {
        let pairs: Vec<String> = (0..1 + self.draw.below(3))
            .map(|_| {
                let (l, r) = (self.draw.pick(left), self.draw.pick(right));
                format!("{l} {} {r}", self.draw.pick(ops))
            })
            .collect();
        pairs.join(" and ")
    }

    fn sub(&mut self, depth: usize) -> (String, Vec<String>) {
        if depth == 0 || self.draw.chance(20) {
            let (table, attrs) = self.draw.pick(&TABLES);
            return (
                table.to_string(),
                attrs.iter().map(|a| a.to_string()).collect(),
            );
        }
        let (text, attrs) = self.sub(depth - 1);
        match self.draw.below(if self.full { 10 } else { 7 }) {
            0 => (format!("sigma[{}]({text})", self.condition(&attrs)), attrs),
            1 => {
                let kept: Vec<String> = attrs
                    .iter()
                    .filter(|_| self.draw.chance(60))
                    .cloned()
                    .collect();
                let kept = if kept.is_empty() {
                    vec![attrs[0].clone()]
                } else {
                    kept
                };
                (format!("pi[{}]({text})", kept.join(", ")), kept)
            }
            2 => {
                let (rtext, rattrs) = self.sub(depth - 1);
                if self.draw.chance(30) {
                    let mut out = attrs.clone();
                    out.extend(rattrs.iter().filter(|a| !attrs.contains(a)).cloned());
                    return (format!("({text}) join ({rtext})"), out);
                }
                let (rtext, rattrs) = self.rename_apart((rtext, rattrs), &attrs);
                let op = match self.draw.chance(40) {
                    true => "x".to_string(),
                    false => format!("join[{}]", self.pairs(&attrs, &rattrs, &OPS)),
                };
                let mut out = attrs;
                out.extend(rattrs);
                (format!("({text}) {op} ({rtext})"), out)
            }
            3 => {
                let right = self.same_schema(depth - 1, &text, &attrs);
                (format!("({text}) - ({right})"), attrs)
            }
            4 | 5 => {
                let (rtext, rattrs) = self.sub(depth - 1);
                let shared = rattrs.iter().any(|a| attrs.contains(a));
                let cond = match shared && self.draw.chance(25) {
                    true => String::new(),
                    false => format!("[{}]", self.pairs(&attrs, &rattrs, &["="])),
                };
                (format!("({text}) antijoin{cond} ({rtext})"), attrs)
            }
            6 => {
                let from = self.draw.pick(&attrs);
                let to = self.fresh();
                let out = attrs
                    .iter()
                    .map(|a| if *a == from { to.clone() } else { a.clone() })
                    .collect();
                (format!("rho[{from}->{to}]({text})"), out)
            }
            7 => {
                let right = self.same_schema(depth - 1, &text, &attrs);
                (format!("({text}) union ({right})"), attrs)
            }
            8 => {
                let (a, b) = (self.condition(&attrs), self.condition(&attrs));
                let cond = match self.draw.chance(50) {
                    true => format!("{a} or {b}"),
                    false => format!("({a} or {b}) and ({} or {a})", self.condition(&attrs)),
                };
                (format!("sigma[{cond}]({text})"), attrs)
            }
            _ => {
                let (rtext, rattrs) = self.sub(depth - 1);
                let cond = self.pairs(&attrs, &rattrs, &OPS);
                (format!("({text}) antijoin[{cond}] ({rtext})"), attrs)
            }
        }
    }
}

/// Compiles `text` the engine's way, checks its route, and compares its
/// answer with the native one over `dbs` and their uninterned copies.
/// `fragment` says the generator stayed inside RA\*⊲ or Datalog\*.
fn assert_hub_matches_native(
    language: Language,
    text: &str,
    fragment: bool,
    dbs: &mut DbGenerator,
) {
    let artifact = Artifact::prepare(language, text, &rst_catalog())
        .unwrap_or_else(|e| panic!("generated input must be valid: {e}\n{text}"));
    if fragment {
        assert!(
            in_fragment(&artifact),
            "generated outside the fragment:\n{text}"
        );
    }
    for round in 0..3 {
        let db = dbs.next_db();
        let mut raw = Database::uninterned();
        for rel in db.iter() {
            raw.add_relation(rel.resolved());
        }
        for instance in [&db, &raw] {
            let plan = artifact
                .compile(instance)
                .unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_route(&artifact, &plan, text);
            let got = execute(&plan, instance).unwrap();
            assert_eq!(
                shape(&got, instance),
                native(&artifact, instance),
                "db {round}:\n{text}"
            );
        }
    }
}

fn rst_dbs(seed: u64) -> DbGenerator {
    let domain = vec![Value::int(0), Value::int(1), Value::int(2), Value::str("a")];
    DbGenerator::new(rst_catalog(), domain, 5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Datalog\* programs written directly, not by a translator, answer
    /// through the hub as they do natively.
    #[test]
    fn random_datalog_star_programs_match_native(seed in 0u64..1_000_000) {
        let text = ProgramGen::program(seed, false);
        assert_hub_matches_native(Language::Datalog, &text, true, &mut rst_dbs(seed));
    }

    /// RA\*⊲ expressions written directly answer through the hub as they
    /// do natively.
    #[test]
    fn random_ra_star_antijoin_expressions_match_native(seed in 0u64..1_000_000) {
        let text = ExprGen::expr(seed, false);
        assert_hub_matches_native(Language::Ra, &text, true, &mut rst_dbs(seed));
    }

    /// Datalog programs with IDBs of two rules or two uses answer through
    /// their views as they do natively.
    #[test]
    fn random_datalog_programs_with_views_match_native(seed in 0u64..1_000_000) {
        let text = ProgramGen::program(seed, true);
        assert_hub_matches_native(Language::Datalog, &text, false, &mut rst_dbs(seed));
    }

    /// RA expressions with unions, disjunctive selections and antijoins
    /// on any comparison answer through the hub as they do natively.
    #[test]
    fn random_ra_expressions_match_native(seed in 0u64..1_000_000) {
        let text = ExprGen::expr(seed, true);
        assert_hub_matches_native(Language::Ra, &text, false, &mut rst_dbs(seed));
    }
}

/// The RA and Datalog forms the service benchmark sends (its frozen
/// `forms.txt`, constants filled in) are all inside the fragments, so
/// each compiles to a single TRC branch.
#[test]
fn benchmark_forms_compile_to_one_trc_branch() {
    let catalog = rd_textbook::schemas::sailors();
    let db = sailors_dbs(&catalog).next().unwrap();
    let mut forms = 0;
    for line in include_str!("../servicebench/forms.txt").lines() {
        let (language, text) = match line.split('\t').collect::<Vec<_>>().as_slice() {
            [_, "ra", text] => (Language::Ra, *text),
            [_, "datalog", text] => (Language::Datalog, *text),
            _ => continue,
        };
        let mut text = text.to_string();
        for (placeholder, value) in [
            ("{age}", "30"),
            ("{bid}", "103"),
            ("{day}", "8"),
            ("{rating}", "7"),
            ("{bname}", "'Interlake'"),
            ("{color}", "'red'"),
            ("{sname}", "'Bob'"),
        ] {
            text = text.replace(placeholder, value);
        }
        let artifact = Artifact::prepare(language, &text, &catalog).unwrap();
        let plan = artifact.compile(&db).unwrap();
        assert!(
            matches!(&plan, Plan::Union(b) if b.len() == 1),
            "{text}: {plan:?}"
        );
        assert_session_matches_native(language, &text, &db);
        forms += 1;
    }
    assert_eq!(forms, 44);
}
