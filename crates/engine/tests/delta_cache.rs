//! Delta-aware cache invalidation: a mutation to one relation must
//! evict exactly the cached entries whose scan set touches it — entries
//! over disjoint relations keep serving from cache — and a session with
//! caching enabled must agree answer-for-answer with an uncached one
//! under interleaved queries and mutations.

use proptest::prelude::*;
use rd_core::{ColumnImage, Database, Relation, TableSchema, Tuple, Value};
use rd_engine::{
    demo_database, EngineShared, Language, QueryRequest, Session, SessionStats, SharedConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn row(vals: &[Value]) -> Tuple {
    Tuple(vals.to_vec())
}

/// Sorted row texts — a stable, comparable rendering of a result.
fn rows_of(resp: &rd_engine::QueryResponse) -> Vec<String> {
    let mut rows: Vec<String> = resp.relation.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

/// After caching queries over Boat and Sailor, an insert into Sailor
/// must (a) leave the Boat entry serving from cache — counted as a
/// delta survival — and (b) force the Sailor query to re-evaluate —
/// counted as a delta invalidation — and reflect the new row.
#[test]
fn mutation_invalidates_touched_relations_and_spares_the_rest() {
    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let boat_q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    let sailor_q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Sailor.sname FROM Sailor");

    // Prime both cache entries.
    assert_eq!(session.run(&boat_q).unwrap().relation.len(), 2);
    assert_eq!(session.run(&sailor_q).unwrap().relation.len(), 2);
    assert_eq!(session.stats().eval_misses, 2);

    // Mutate Sailor only.
    let outcome = shared
        .insert_rows("Sailor", &[row(&[Value::int(3), Value::str("Horatio")])])
        .unwrap();
    assert_eq!(outcome.applied, 1);

    // Boat's entry survives the delta: a cache hit, no re-evaluation.
    let boat_resp = session.run(&boat_q).unwrap();
    assert!(boat_resp.eval_cache_hit, "Boat does not read Sailor");
    let stats = session.stats().clone();
    assert_eq!(stats.delta_survivals, 1, "{stats:?}");
    assert_eq!(stats.eval_misses, 2, "{stats:?}");

    // Sailor's entry is stale: re-evaluated, and the new row shows up.
    let sailor_resp = session.run(&sailor_q).unwrap();
    assert!(!sailor_resp.eval_cache_hit);
    assert_eq!(sailor_resp.relation.len(), 3, "sees the inserted sailor");
    let stats = session.stats().clone();
    assert!(stats.delta_invalidations >= 1, "{stats:?}");
    assert_eq!(stats.eval_misses, 3, "{stats:?}");

    // The refreshed entry is good again: next lookup is a plain hit.
    assert!(session.run(&sailor_q).unwrap().eval_cache_hit);
}

/// A delete is just as much a delta as an insert: cached entries over
/// the touched relation must not serve the removed row.
#[test]
fn delete_invalidates_cached_results_over_the_touched_relation() {
    let shared = Arc::new(EngineShared::new(demo_database()));
    let mut session = Session::attach(shared.clone());
    let q = QueryRequest::new(Language::Sql, "SELECT DISTINCT Boat.color FROM Boat");
    assert_eq!(session.run(&q).unwrap().relation.len(), 2);

    let outcome = shared
        .delete_rows("Boat", &[row(&[Value::int(102), Value::str("green")])])
        .unwrap();
    assert_eq!(outcome.applied, 1);

    let resp = session.run(&q).unwrap();
    assert!(!resp.eval_cache_hit);
    assert_eq!(resp.relation.len(), 1, "green boat is gone");
}

/// Differential check: run the same interleaved query/mutation script
/// against a cached session and an uncached one; every answer must
/// agree. This is the end-to-end soundness guard for base-keyed cache
/// entries validated by scan-set generations.
#[test]
fn cached_and_uncached_sessions_agree_under_interleaved_mutations() {
    let cached = Arc::new(EngineShared::new(demo_database()));
    let uncached = Arc::new(EngineShared::with_config(
        demo_database(),
        SharedConfig {
            eval_cache_capacity: 0,
            plan_cache_capacity: 0,
            ..SharedConfig::default()
        },
    ));
    let mut cached_session = Session::attach(cached.clone());
    let mut uncached_session = Session::attach(uncached.clone());

    let queries = [
        "SELECT DISTINCT Boat.color FROM Boat",
        "SELECT DISTINCT Sailor.sname FROM Sailor, Reserves \
         WHERE Sailor.sid = Reserves.sid",
        "SELECT DISTINCT Reserves.bid FROM Reserves",
    ];
    // (table, row, is_insert) — interleaved between full query sweeps.
    let script: Vec<(&str, Tuple, bool)> = vec![
        ("Sailor", row(&[Value::int(3), Value::str("Horatio")]), true),
        ("Reserves", row(&[Value::int(3), Value::int(102)]), true),
        ("Boat", row(&[Value::int(103), Value::str("blue")]), true),
        ("Reserves", row(&[Value::int(1), Value::int(101)]), false),
        ("Sailor", row(&[Value::int(2), Value::str("Lubber")]), false),
    ];

    let sweep = |cached_session: &mut Session, uncached_session: &mut Session| {
        for q in &queries {
            let req = QueryRequest::new(Language::Sql, *q);
            let a = cached_session.run(&req).unwrap();
            let b = uncached_session.run(&req).unwrap();
            assert_eq!(rows_of(&a), rows_of(&b), "query {q:?} diverged");
        }
    };

    sweep(&mut cached_session, &mut uncached_session);
    for (table, tuple, is_insert) in script {
        for shared in [&cached, &uncached] {
            let rows = std::slice::from_ref(&tuple);
            if is_insert {
                shared.insert_rows(table, rows).unwrap();
            } else {
                shared.delete_rows(table, rows).unwrap();
            }
        }
        sweep(&mut cached_session, &mut uncached_session);
    }

    // The cached session actually exercised the delta paths.
    let stats: &SessionStats = cached_session.stats();
    assert!(stats.delta_invalidations > 0, "{stats:?}");
    assert!(stats.delta_survivals > 0, "{stats:?}");
    assert!(stats.eval_hits > 0, "{stats:?}");
}

/// The epoch fingerprint is maintained incrementally across deltas
/// (each applied row moves its relation's digest); it must nevertheless
/// equal
/// exactly what a fresh load of the same content computes — and the
/// delta path must also skip rebuilding the catalog when no table was
/// added.
#[test]
fn incremental_fingerprint_matches_a_fresh_load() {
    let mutated = Arc::new(EngineShared::new(demo_database()));
    let horatio = [row(&[Value::int(3), Value::str("Horatio")])];
    let green = [row(&[Value::int(102), Value::str("green")])];
    mutated.insert_rows("Sailor", &horatio).unwrap();
    mutated.delete_rows("Boat", &green).unwrap();

    // The same end state, built directly and loaded fresh.
    let mut db = demo_database();
    db.insert_rows("Sailor", &horatio).unwrap();
    db.delete_rows("Boat", &green).unwrap();
    let fresh = Arc::new(EngineShared::new(db));

    let a = mutated.epoch();
    let b = fresh.epoch();
    assert_eq!(a.fingerprint, b.fingerprint, "delta fingerprint drifted");
    assert_eq!(a.generation, 2);
    assert_eq!(b.generation, 0);
    // Insert/delete deltas reuse the previous epoch's catalog Arc.
    assert_eq!(a.catalog.len(), 3);
}

/// A splitmix64 stream: the property below draws its whole script from
/// one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// String values at the edges: empty, quotes, spaces, non-ASCII, a
/// digit string, and a long one.
const EDGE_STRS: [&str; 8] = [
    "",
    "'",
    "a b",
    "x\"y",
    "\u{fc}n\u{ef}",
    "0",
    "red",
    "long-long-long-long-long-long",
];

/// The delta-mutated relations: `R(a, s, b)` starts with 600 rows (so it
/// spans several storage leaves), `U(s)` starts empty; `S(x)` is never
/// written.
const TABLES: [(&str, &[&str]); 3] = [("R", &["a", "s", "b"]), ("S", &["x"]), ("U", &["s"])];

fn random_row(rng: &mut Rng, table: &str) -> Tuple {
    let s = Value::str(EDGE_STRS[rng.below(EDGE_STRS.len())]);
    match table {
        "R" => Tuple(vec![
            Value::int(rng.below(400) as i64 - 200),
            s,
            Value::int(rng.below(3) as i64),
        ]),
        _ => Tuple(vec![s]),
    }
}

/// A database holding exactly `model` (edge representation), loaded the
/// way a fresh boot would load it.
fn fresh_load(model: &BTreeMap<&str, BTreeSet<Tuple>>, interned: bool) -> Database {
    let mut db = if interned {
        Database::new()
    } else {
        Database::uninterned()
    };
    for (name, attrs) in TABLES {
        let rows = model[name].iter().map(|t| t.0.clone());
        db.add_relation(Relation::from_rows(TableSchema::new(name, attrs.to_vec()), rows).unwrap());
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random insert/delete batches — duplicate inserts, absent deletes,
    /// edge strings — applied as deltas on an interned and an
    /// uninterned engine. After every step each relation must match a
    /// fresh build of the same content in its rows, fingerprint, stats
    /// row count and column image; the untouched relations must be the
    /// previous snapshot's, and the touched one must share every leaf
    /// the batch did not land in.
    #[test]
    fn delta_batches_match_a_fresh_build(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let mut model: BTreeMap<&str, BTreeSet<Tuple>> =
            TABLES.iter().map(|(name, _)| (*name, BTreeSet::new())).collect();
        while model["R"].len() < 600 {
            let t = random_row(&mut rng, "R");
            model.get_mut("R").unwrap().insert(t);
        }
        model.get_mut("S").unwrap().extend((0..40).map(|i| Tuple::new([i as i64])));
        let engines: Vec<EngineShared> = [true, false]
            .into_iter()
            .map(|interned| EngineShared::new(fresh_load(&model, interned)))
            .collect();
        for _ in 0..12 {
            let table = if rng.below(4) == 0 { "U" } else { "R" };
            let insert = rng.below(2) == 0;
            // Half the rows are drawn from the live content (duplicate
            // inserts, present deletes), half at random (mostly new
            // inserts, absent deletes); a row may repeat in a batch.
            let live: Vec<Tuple> = model[table].iter().cloned().collect();
            let batch: Vec<Tuple> = (0..1 + rng.below(5))
                .map(|_| {
                    if !live.is_empty() && rng.below(2) == 0 {
                        live[rng.below(live.len())].clone()
                    } else {
                        random_row(&mut rng, table)
                    }
                })
                .collect();
            let rows = model.get_mut(table).unwrap();
            let expected = if insert {
                batch.iter().filter(|t| rows.insert((*t).clone())).count()
            } else {
                batch.iter().filter(|t| rows.remove(*t)).count()
            };
            let mut prints = Vec::new();
            for (engine, interned) in engines.iter().zip([true, false]) {
                let prev = engine.epoch();
                let outcome = if insert {
                    engine.insert_rows(table, &batch)
                } else {
                    engine.delete_rows(table, &batch)
                }
                .unwrap();
                prop_assert_eq!(outcome.applied as usize, expected);
                let epoch = engine.epoch();
                let fresh = fresh_load(&model, interned);
                prop_assert_eq!(epoch.fingerprint, fresh.fingerprint());
                prop_assert_eq!(epoch.fingerprint, epoch.db.fingerprint());
                prints.push(epoch.fingerprint);
                for (name, _) in TABLES {
                    let rel = epoch.db.require(name).unwrap();
                    let want = fresh.require(name).unwrap();
                    prop_assert_eq!(rel, want, "{} content", name);
                    let resolved: BTreeSet<Tuple> = rel.resolved().iter().cloned().collect();
                    prop_assert_eq!(&resolved, &model[name]);
                    prop_assert_eq!(rel.stats().rows(), model[name].len() as u64);
                    prop_assert_eq!(rel.content_digest(), want.content_digest());
                    prop_assert_eq!(
                        &*rel.column_image(),
                        &ColumnImage::of(rel.schema().arity(), rel.iter())
                    );
                    let old = prev.db.require(name).unwrap();
                    if name != table {
                        prop_assert!(std::ptr::eq(old, rel), "{} was copied", name);
                        continue;
                    }
                    // Each applied row rewrites at most two leaves (its
                    // own, plus a split-off or merged neighbour).
                    let rewritten = rel
                        .tuples()
                        .leaves()
                        .iter()
                        .filter(|leaf| !old.tuples().leaves().iter().any(|o| Arc::ptr_eq(o, leaf)))
                        .count();
                    prop_assert!(rewritten <= 2 * expected, "{} leaves rewritten for {} rows", rewritten, expected);
                }
            }
            prop_assert_eq!(prints[0], prints[1], "interning must not change the fingerprint");
        }
    }
}
