//! The wire protocol: JSON lines over TCP, with pipelining and chunked
//! result streaming.
//!
//! Every message is one JSON object on one line. Requests carry an
//! `"op"` discriminator; responses carry `"ok"` (and `"kind"` on
//! success). The full surface:
//!
//! ```text
//! → {"op":"query","text":"pi[color](Boat)"}                  # lang auto-detected
//! → {"op":"query","lang":"sql","text":"SELECT ...",
//!    "translations":true,"diagram":"dot"}
//! ← {"ok":true,"kind":"query","language":"sql","canonical":"...",
//!    "attrs":["color"],"rows":[["red"],["green"]],"row_count":2,
//!    "cache_hit":false,"eval_cache_hit":false,"notes":[]}
//!
//! → {"op":"load","fixture":"R(a):\n (1)\n"}                  # replace database
//! → {"op":"load","csv":"a,b\n1,x\n","table":"R"}             # bulk-import one table
//! ← {"ok":true,"kind":"load","tables":1,"tuples":1,
//!    "generation":1,"fingerprint":"4f9a..."}
//!
//! → {"op":"insert","table":"Boat","rows":[[103,"blue"]]}     # batched tuples
//! ← {"ok":true,"kind":"mutation","op":"insert","table":"Boat",
//!    "applied":1,"generation":2,"fingerprint":"91c0..."}
//! → {"op":"delete","table":"Boat","rows":[[103,"blue"]]}     # absent rows are no-ops
//! ← {"ok":true,"kind":"mutation","op":"delete","table":"Boat",
//!    "applied":1,"generation":3,"fingerprint":"4f9a..."}
//! → {"op":"checkpoint"}                  # snapshot now, start a fresh WAL segment
//! ← {"ok":true,"kind":"checkpoint","seq":2,"generation":3,
//!    "fingerprint":"4f9a..."}
//!
//! Mutations are durable before they are acknowledged: a server running
//! with `--data-dir` appends each insert/delete to the write-ahead log
//! (and fsyncs) before the `"kind":"mutation"` frame is sent, so an
//! acked mutation survives a crash. `applied` counts the rows that
//! actually changed the table (inserting a duplicate or deleting an
//! absent row applies 0). Without `--data-dir` the ops still work —
//! they mutate the in-memory epoch — there is just nothing to recover.
//! `checkpoint` forces a point-in-time snapshot and answers with the
//! new snapshot's sequence number (without a data dir it degrades to a
//! generation/fingerprint probe with `"seq":0`).
//!
//! → {"op":"explain","lang":"trc","text":"{ q(A) | ... }"}    # compiled plan, no eval
//! ← {"ok":true,"kind":"explain","language":"trc","canonical":"...",
//!    "plan":{"kind":"query","detail":"q(A)","children":[...]},
//!    "cache_hit":false}
//!
//! → {"op":"translate","to":"sql","text":"{ q(A) | ... }"}    # Theorem 6 over the wire
//! ← {"ok":true,"kind":"translate","to":"sql","text":"SELECT DISTINCT ..."}
//!
//! → {"op":"stats"}                                           # aggregated counters
//! → {"op":"ping"}          ← {"ok":true,"kind":"pong"}
//! → {"op":"shutdown"}      ← {"ok":true,"kind":"bye"}        # drains, then stops
//!
//! ← {"ok":false,"error":"unknown table 'Boats'"}             # any failure
//! ```
//!
//! **Pipelining.** A request may carry an `"id"` (string or integer);
//! every frame answering it echoes that id verbatim. Clients may keep
//! any number of requests in flight on one connection; the server
//! answers each request's frames in a contiguous run, but runs for
//! different requests may interleave with other traffic, so a
//! pipelining client must match responses by id, not by position:
//!
//! ```text
//! → {"op":"ping","id":1}
//! → {"op":"query","text":"pi[color](Boat)","id":"q-2"}
//! ← {"ok":true,"kind":"pong","id":1}
//! ← {"ok":true,"kind":"query",...,"id":"q-2"}
//! ```
//!
//! **Streaming.** A query result larger than the server's
//! `--stream-threshold` (in rows) is not sent as one `"kind":"query"`
//! line; it arrives as a sequence of `"kind":"rows-chunk"` frames
//! closed by one `"kind":"rows-end"` frame. The first chunk (`"seq":0`)
//! carries the result header (`language` / `canonical` / `attrs`); the
//! end frame carries everything else (`row_count`, cache flags,
//! translations, diagram, notes). [`Reassembler`] folds the frames back
//! into an ordinary query response:
//!
//! ```text
//! ← {"ok":true,"kind":"rows-chunk","seq":0,"language":"ra",
//!    "canonical":"pi[x](R)","attrs":["x"],"rows":[[1],[2]]}
//! ← {"ok":true,"kind":"rows-chunk","seq":1,"rows":[[3],[4]]}
//! ← {"ok":true,"kind":"rows-end","seq":2,"row_count":4,
//!    "cache_hit":false,"eval_cache_hit":false,"notes":[]}
//! ```
//!
//! Clients that send neither an `"id"` nor queries above the stream
//! threshold see exactly the PR-2/PR-3 wire format, byte for byte.
//!
//! Serialization is hand-rolled onto the vendored `serde` JSON value
//! model rather than derived: the wire format is a public contract
//! (`op`/`kind` tags, stable field names), and deriving would tie it to
//! the shim's externally-tagged enum encoding.

use rd_core::exec::ExplainNode;
use rd_core::Value;
use rd_engine::{CacheStats, DiagramFormat, Language, SessionStats};
use serde::json::Value as Json;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one query.
    Query {
        /// Query language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// Also produce the cross-language translations.
        translations: bool,
        /// Also render the Relational Diagram.
        diagram: DiagramFormat,
    },
    /// Compile (or fetch from the plan cache) one query's executable
    /// plan and return it as an explain tree — no evaluation.
    Explain {
        /// Query language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// `true` actually executes the plan (bypassing the eval cache)
        /// and annotates every node with estimated vs actual row counts.
        analyze: bool,
    },
    /// Translate one query into another language through the TRC hub
    /// (Theorem 6).
    Translate {
        /// Source language; `None` auto-detects from the text.
        language: Option<Language>,
        /// Query source text.
        text: String,
        /// Target language.
        to: Language,
    },
    /// Replace or extend the database (bumps the epoch generation and
    /// invalidates the shared caches).
    Load(LoadSource),
    /// Insert a batch of tuples into one table (a delta: caches over
    /// other relations survive; the WAL records it before the ack).
    Insert {
        /// Target table.
        table: String,
        /// Tuples to add (wire form: arrays of int/string cells).
        rows: Vec<Vec<Value>>,
    },
    /// Delete a batch of tuples from one table (same delta/durability
    /// contract as `Insert`; absent rows are no-ops).
    Delete {
        /// Target table.
        table: String,
        /// Tuples to remove.
        rows: Vec<Vec<Value>>,
    },
    /// Force a point-in-time snapshot and start a fresh WAL segment.
    Checkpoint,
    /// Fetch aggregated server/session/cache statistics.
    Stats {
        /// `true` additionally zeroes the interval window: the response
        /// reports counters since the last reset, then starts a fresh
        /// window. Cumulative gauges (active connections, cache entries,
        /// generation, …) are unaffected.
        reset: bool,
    },
    /// Fetch the latency-histogram registry rendered as Prometheus-style
    /// exposition text.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop the server (drains in-flight connections).
    Shutdown,
}

/// What a `load` request carries.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// A complete database in the fixture format — replaces the current
    /// database.
    Fixture(String),
    /// One table as CSV (header = attribute names) — merged into the
    /// current database, replacing a same-named table.
    Csv {
        /// Table name for the imported relation.
        table: String,
        /// CSV text.
        text: String,
    },
}

/// A client-chosen request id for pipelining: echoed verbatim in every
/// frame answering that request. Strings and integers are accepted;
/// anything else is rejected as malformed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A numeric id, e.g. `"id":17`.
    Int(i64),
    /// A string id, e.g. `"id":"q-17"`.
    Str(String),
}

impl RequestId {
    fn to_json(&self) -> Json {
        match self {
            RequestId::Int(i) => Json::Int(*i),
            RequestId::Str(s) => Json::String(s.clone()),
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestId::Int(i) => write!(f, "{i}"),
            RequestId::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Extracts the optional `"id"` field of a frame. Absent/null is `None`;
/// any non-string, non-integer id is an error.
fn request_id_from(v: &Json) -> Result<Option<RequestId>, String> {
    match v.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) => Ok(Some(RequestId::Int(*i))),
        Some(Json::String(s)) => Ok(Some(RequestId::Str(s.clone()))),
        Some(other) => Err(format!(
            "field 'id' must be a string or integer, found {other}"
        )),
    }
}

/// A server→client message.
///
/// Variants are sized by their payloads (`Stats` grew two cache-counter
/// blocks with the plan cache); responses are built once, encoded, and
/// dropped, so boxing the large variant would buy nothing on this path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful query.
    Query(QueryResult),
    /// A successful explain.
    Explain(ExplainResult),
    /// A successful translation.
    Translate(TranslateResult),
    /// One chunk of a streamed query result (see [`Reassembler`]).
    RowsChunk(RowsChunk),
    /// The closing frame of a streamed query result.
    RowsEnd(RowsEnd),
    /// A successful load.
    Load(LoadResult),
    /// A successful insert or delete.
    Mutation(MutationResult),
    /// A successful checkpoint.
    Checkpoint(CheckpointResult),
    /// A statistics snapshot.
    Stats(StatsResult),
    /// The latency-histogram registry as Prometheus-style text.
    Metrics(MetricsResult),
    /// Reply to `ping`.
    Pong,
    /// Reply to `shutdown`.
    Bye,
    /// Any failure (the connection stays usable).
    Error(String),
}

/// The result header carried by the first (`seq == 0`) chunk of a
/// streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkHead {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// Output attribute names.
    pub attrs: Vec<String>,
}

/// One `"kind":"rows-chunk"` frame of a streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsChunk {
    /// Position in the stream (0-based, contiguous).
    pub seq: u64,
    /// The result header; present exactly on `seq == 0`.
    pub head: Option<ChunkHead>,
    /// This chunk's tuples.
    pub rows: Vec<Vec<Value>>,
}

/// The `"kind":"rows-end"` frame closing a streamed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsEnd {
    /// Position in the stream (one past the last chunk's `seq`).
    pub seq: u64,
    /// Total rows across all chunks (a checksum for the client).
    pub row_count: u64,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
    /// `true` if the result came from the shared eval cache.
    pub eval_cache_hit: bool,
    /// Cross-language translations, if requested.
    pub translations: Option<Vec<(String, String)>>,
    /// The rendered diagram, if requested.
    pub diagram: Option<String>,
    /// Why a requested optional artifact is missing.
    pub notes: Vec<String>,
}

/// The payload of a successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// Output attribute names.
    pub attrs: Vec<String>,
    /// Result tuples (deterministic order).
    pub rows: Vec<Vec<Value>>,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
    /// `true` if the result came from the shared eval cache.
    pub eval_cache_hit: bool,
    /// Cross-language translations, if requested: `(language, text)`
    /// pairs plus explanatory notes.
    pub translations: Option<Vec<(String, String)>>,
    /// The rendered diagram, if requested.
    pub diagram: Option<String>,
    /// Why a requested optional artifact is missing.
    pub notes: Vec<String>,
}

/// The payload of a successful explain response.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResult {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// The explain tree: scan order, join strategy, bound keys.
    pub plan: ExplainNode,
    /// `true` if the artifact came from the shared parse cache.
    pub cache_hit: bool,
}

/// The payload of a successful translate response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateResult {
    /// The target language.
    pub to: Language,
    /// The query rendered in the target language.
    pub text: String,
}

/// The payload of a successful load response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadResult {
    /// Tables now in the database.
    pub tables: usize,
    /// Total tuples now in the database.
    pub tuples: usize,
    /// The new epoch generation.
    pub generation: u64,
    /// The new database's content fingerprint (hex).
    pub fingerprint: String,
}

/// The payload of a successful insert/delete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationResult {
    /// `true` for an insert, `false` for a delete.
    pub insert: bool,
    /// The table that was mutated.
    pub table: String,
    /// Rows that actually changed the table (duplicates on insert and
    /// absent rows on delete apply 0).
    pub applied: u64,
    /// The epoch generation after the mutation.
    pub generation: u64,
    /// The database's content fingerprint after the mutation (hex).
    pub fingerprint: String,
}

/// The payload of a successful checkpoint response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointResult {
    /// The new snapshot's sequence number (0 when the server runs
    /// without a data dir — nothing was written).
    pub seq: u64,
    /// The epoch generation the snapshot captured.
    pub generation: u64,
    /// The snapshotted database's content fingerprint (hex).
    pub fingerprint: String,
}

/// The payload of a statistics response: server counters, session
/// counters aggregated across all workers, and both shared caches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsResult {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Requests handled (all ops).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Connections closed by idle-timeout eviction.
    pub evicted: u64,
    /// Worker threads in the compute pool.
    pub workers: u64,
    /// Session counters summed across every worker session (live and
    /// closed).
    pub sessions: SessionStats,
    /// Shared parse-cache counters.
    pub parse_cache: CacheStats,
    /// Shared eval-cache counters.
    pub eval_cache: CacheStats,
    /// `false` if the server runs with the result cache disabled.
    pub eval_cache_enabled: bool,
    /// Shared compiled-plan-cache counters.
    pub plan_cache: CacheStats,
    /// `false` if the server runs with the plan cache disabled.
    pub plan_cache_enabled: bool,
    /// Current epoch generation.
    pub generation: u64,
    /// Current database fingerprint (hex).
    pub fingerprint: String,
    /// Tables in the current database.
    pub tables: u64,
    /// Total tuples in the current database.
    pub tuples: u64,
    /// Per-stage latency summaries (appended in PR 7; absent in older
    /// frames — decodes to empty).
    pub stages: Vec<StageLatency>,
    /// Per-shard connection breakdown (appended in PR 9; absent in
    /// older frames — decodes to empty). Counters here are cumulative
    /// since boot even in `reset` frames: the breakdown identifies
    /// shards, it is not a windowed rate.
    pub shards: Vec<ShardBreakdown>,
    /// Cost-based-planner summary (appended in PR 10; absent in older
    /// frames — decodes to all-zero).
    pub planner: PlannerStats,
}

/// One pipeline stage's latency summary inside a stats frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Stage name (`parse`, `plan`, `execute`, `render`, `serialize`).
    pub stage: String,
    /// Requests that passed through this stage.
    pub count: u64,
    /// Median latency in microseconds.
    pub p50: u64,
    /// 95th-percentile latency in microseconds.
    pub p95: u64,
    /// 99th-percentile latency in microseconds.
    pub p99: u64,
}

/// The cost-based planner's summary inside a stats frame: the feedback
/// loop's counters plus the estimation-error distribution. Quantiles
/// are centi-q (q-error × 100, so `100` is a perfect estimate and
/// `400` is the re-plan threshold) — integers survive the wire's
/// counter-shaped fields without float rounding drama.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Plans recompiled because observed row counts contradicted the
    /// estimate past the q-error threshold.
    pub replans: u64,
    /// Compiles that consumed stored execution feedback as hints.
    pub feedback_hits: u64,
    /// Executions that recorded a root-estimate q-error.
    pub q_count: u64,
    /// Median q-error, centi (100 = perfect).
    pub q_p50: u64,
    /// 95th-percentile q-error, centi.
    pub q_p95: u64,
    /// 99th-percentile q-error, centi.
    pub q_p99: u64,
}

/// One event-loop shard's connection counters inside a stats frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardBreakdown {
    /// Shard index (`0..shards`).
    pub shard: u64,
    /// Connections routed to this shard since boot.
    pub connections: u64,
    /// Connections currently open on this shard.
    pub active: u64,
    /// Connections this shard closed by idle-timeout eviction.
    pub evicted: u64,
}

/// The payload of a metrics response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsResult {
    /// Prometheus-style exposition text (`# TYPE` comments, `_bucket`
    /// cumulative counters with `le` labels, `_sum`, `_count`).
    pub text: String,
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(v: impl Into<String>) -> Json {
    Json::String(v.into())
}

fn u(v: u64) -> Json {
    Json::Int(v as i64)
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Str(t) => Json::String(t.clone()),
        // Rows are resolved (Sym → Str) at the session edge before they
        // reach the protocol; a stray symbol would be a server bug, but
        // the wire must never panic.
        Value::Sym(id) => Json::String(format!("sym#{id}")),
    }
}

fn rows_to_json(rows: &[Vec<Value>]) -> Json {
    Json::Array(
        rows.iter()
            .map(|row| Json::Array(row.iter().map(value_to_json).collect()))
            .collect(),
    )
}

fn value_from_json(v: &Json) -> Result<Value, String> {
    match v {
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::String(t) => Ok(Value::Str(t.clone())),
        other => Err(format!("expected int or string cell, found {other}")),
    }
}

fn diagram_name(d: DiagramFormat) -> &'static str {
    match d {
        DiagramFormat::None => "none",
        DiagramFormat::Dot => "dot",
        DiagramFormat::Svg => "svg",
    }
}

fn diagram_from_name(name: &str) -> Result<DiagramFormat, String> {
    match name {
        "none" => Ok(DiagramFormat::None),
        "dot" => Ok(DiagramFormat::Dot),
        "svg" => Ok(DiagramFormat::Svg),
        other => Err(format!("unknown diagram format '{other}'")),
    }
}

fn get_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// Missing fields default to 0 (forward compatibility for counters
/// added after PR 2).
fn opt_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(0),
        Some(other) => other
            .as_u64()
            .ok_or_else(|| format!("field '{key}' must be an integer, found {other}")),
    }
}

/// A genuinely optional integer: absent/null stays `None` (unlike
/// [`opt_u64`], whose 0 default suits counters but would fabricate a
/// row count of 0 on frames that never carried one).
fn opt_u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(other) => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be an integer, found {other}")),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("field '{key}' must be a bool, found {other}")),
    }
}

fn session_stats_to_json(st: &SessionStats) -> Json {
    obj(vec![
        ("queries", u(st.queries)),
        ("batches", u(st.batches)),
        ("cache_hits", u(st.cache_hits)),
        ("cache_misses", u(st.cache_misses)),
        ("cache_evictions", u(st.cache_evictions)),
        ("eval_hits", u(st.eval_hits)),
        ("eval_misses", u(st.eval_misses)),
        ("eval_evictions", u(st.eval_evictions)),
        ("eval_skipped", u(st.eval_skipped)),
        ("rows_returned", u(st.rows_returned)),
        // Appended after the PR-2 fields so the object's byte prefix is
        // stable for older readers.
        ("rows_streamed", u(st.rows_streamed)),
        ("plan_hits", u(st.plan_hits)),
        ("plan_misses", u(st.plan_misses)),
        ("plan_evictions", u(st.plan_evictions)),
        ("delta_invalidations", u(st.delta_invalidations)),
        ("delta_survivals", u(st.delta_survivals)),
        ("tuple_fallbacks", u(st.tuple_fallbacks)),
        // Appended after the PR-8 fields (same compat contract).
        ("planner_replans", u(st.planner_replans)),
        ("planner_feedback_hits", u(st.planner_feedback_hits)),
    ])
}

fn session_stats_from_json(v: &Json) -> Result<SessionStats, String> {
    Ok(SessionStats {
        queries: get_u64(v, "queries")?,
        batches: get_u64(v, "batches")?,
        cache_hits: get_u64(v, "cache_hits")?,
        cache_misses: get_u64(v, "cache_misses")?,
        cache_evictions: get_u64(v, "cache_evictions")?,
        eval_hits: get_u64(v, "eval_hits")?,
        eval_misses: get_u64(v, "eval_misses")?,
        eval_evictions: get_u64(v, "eval_evictions")?,
        eval_skipped: opt_u64(v, "eval_skipped")?,
        plan_hits: opt_u64(v, "plan_hits")?,
        plan_misses: opt_u64(v, "plan_misses")?,
        plan_evictions: opt_u64(v, "plan_evictions")?,
        delta_invalidations: opt_u64(v, "delta_invalidations")?,
        delta_survivals: opt_u64(v, "delta_survivals")?,
        rows_returned: get_u64(v, "rows_returned")?,
        rows_streamed: opt_u64(v, "rows_streamed")?,
        tuple_fallbacks: opt_u64(v, "tuple_fallbacks")?,
        planner_replans: opt_u64(v, "planner_replans")?,
        planner_feedback_hits: opt_u64(v, "planner_feedback_hits")?,
    })
}

fn explain_node_to_json(n: &ExplainNode) -> Json {
    let mut pairs = vec![
        ("kind", s(&n.kind)),
        ("detail", s(&n.detail)),
        (
            "children",
            Json::Array(n.children.iter().map(explain_node_to_json).collect()),
        ),
    ];
    // Appended after the PR-2 fields (and omitted entirely on plain
    // explain) so pre-analyze frames stay byte-identical.
    if let Some(est) = n.est_rows {
        pairs.push(("est_rows", u(est)));
    }
    if let Some(actual) = n.actual_rows {
        pairs.push(("actual_rows", u(actual)));
    }
    // PR-10 planner field: the estimation q-error, present only under
    // `explain analyze` (both est and actual rows are needed).
    if let Some(q) = n.q_error {
        pairs.push(("q_error", Json::Float(q)));
    }
    // The join-build field, same append-only discipline: absent on
    // structural nodes and on legacy frames.
    if let Some(build) = &n.build {
        pairs.push(("build", s(build)));
    }
    obj(pairs)
}

/// A genuinely optional float field: absent/null stays `None` (plain
/// explain frames carry no `q_error`). Integers are accepted too —
/// a writer may normalize `2.0` to `2`.
fn opt_f64_field(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(other) => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a number, found {other}")),
    }
}

/// A genuinely optional string field: absent/null stays `None` (legacy
/// explain frames carry no `build`).
fn opt_str_field(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::String(t)) => Ok(Some(t.clone())),
        Some(other) => Err(format!("field '{key}' must be a string, found {other}")),
    }
}

fn explain_node_from_json(v: &Json) -> Result<ExplainNode, String> {
    let children = match v.get("children") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Array(items)) => items
            .iter()
            .map(explain_node_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(other) => return Err(format!("'children' must be an array, found {other}")),
    };
    Ok(ExplainNode {
        kind: get_str(v, "kind")?,
        detail: v
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        children,
        est_rows: opt_u64_field(v, "est_rows")?,
        actual_rows: opt_u64_field(v, "actual_rows")?,
        q_error: opt_f64_field(v, "q_error")?,
        build: opt_str_field(v, "build")?,
    })
}

fn stage_latency_to_json(st: &StageLatency) -> Json {
    obj(vec![
        ("stage", s(&st.stage)),
        ("count", u(st.count)),
        ("p50", u(st.p50)),
        ("p95", u(st.p95)),
        ("p99", u(st.p99)),
    ])
}

fn stage_latencies_from_json(v: &Json) -> Result<Vec<StageLatency>, String> {
    match v.get("stages") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|item| {
                Ok(StageLatency {
                    stage: get_str(item, "stage")?,
                    count: get_u64(item, "count")?,
                    p50: get_u64(item, "p50")?,
                    p95: get_u64(item, "p95")?,
                    p99: get_u64(item, "p99")?,
                })
            })
            .collect(),
        Some(other) => Err(format!("'stages' must be an array, found {other}")),
    }
}

fn planner_stats_to_json(p: &PlannerStats) -> Json {
    obj(vec![
        ("replans", u(p.replans)),
        ("feedback_hits", u(p.feedback_hits)),
        ("q_count", u(p.q_count)),
        ("q_p50", u(p.q_p50)),
        ("q_p95", u(p.q_p95)),
        ("q_p99", u(p.q_p99)),
    ])
}

fn planner_stats_from_json(v: &Json) -> Result<PlannerStats, String> {
    match v.get("planner") {
        // Pre-PR-10 frames carry no planner block: all-zero summary.
        None | Some(Json::Null) => Ok(PlannerStats::default()),
        Some(p) => Ok(PlannerStats {
            replans: opt_u64(p, "replans")?,
            feedback_hits: opt_u64(p, "feedback_hits")?,
            q_count: opt_u64(p, "q_count")?,
            q_p50: opt_u64(p, "q_p50")?,
            q_p95: opt_u64(p, "q_p95")?,
            q_p99: opt_u64(p, "q_p99")?,
        }),
    }
}

fn shard_breakdown_to_json(sb: &ShardBreakdown) -> Json {
    obj(vec![
        ("shard", u(sb.shard)),
        ("connections", u(sb.connections)),
        ("active", u(sb.active)),
        ("evicted", u(sb.evicted)),
    ])
}

fn shard_breakdowns_from_json(v: &Json) -> Result<Vec<ShardBreakdown>, String> {
    match v.get("shards") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|item| {
                Ok(ShardBreakdown {
                    shard: get_u64(item, "shard")?,
                    connections: get_u64(item, "connections")?,
                    active: get_u64(item, "active")?,
                    evicted: get_u64(item, "evicted")?,
                })
            })
            .collect(),
        Some(other) => Err(format!("'shards' must be an array, found {other}")),
    }
}

fn cache_stats_to_json(st: &CacheStats) -> Json {
    obj(vec![
        ("hits", u(st.hits)),
        ("misses", u(st.misses)),
        ("evictions", u(st.evictions)),
        ("entries", u(st.entries as u64)),
        ("capacity", u(st.capacity as u64)),
        ("cached_bytes", u(st.bytes)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
        evictions: get_u64(v, "evictions")?,
        entries: get_u64(v, "entries")? as usize,
        capacity: get_u64(v, "capacity")? as usize,
        bytes: opt_u64(v, "cached_bytes")?,
    })
}

/// The shared tail of query-shaped frames: optional translations and
/// diagram, then the (always-present) notes array.
fn push_optional_meta(
    pairs: &mut Vec<(&str, Json)>,
    translations: &Option<Vec<(String, String)>>,
    diagram: &Option<String>,
    notes: &[String],
) {
    if let Some(t) = translations {
        pairs.push((
            "translations",
            Json::Object(t.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
        ));
    }
    if let Some(d) = diagram {
        pairs.push(("diagram", s(d)));
    }
    pairs.push(("notes", Json::Array(notes.iter().map(s).collect())));
}

impl serde::Serialize for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Query {
                language,
                text,
                translations,
                diagram,
            } => {
                let mut pairs = vec![("op", s("query"))];
                if let Some(lang) = language {
                    pairs.push(("lang", s(lang.name())));
                }
                pairs.push(("text", s(text)));
                if *translations {
                    pairs.push(("translations", Json::Bool(true)));
                }
                if *diagram != DiagramFormat::None {
                    pairs.push(("diagram", s(diagram_name(*diagram))));
                }
                obj(pairs)
            }
            Request::Explain {
                language,
                text,
                analyze,
            } => {
                let mut pairs = vec![("op", s("explain"))];
                if let Some(lang) = language {
                    pairs.push(("lang", s(lang.name())));
                }
                pairs.push(("text", s(text)));
                if *analyze {
                    pairs.push(("analyze", Json::Bool(true)));
                }
                obj(pairs)
            }
            Request::Translate { language, text, to } => {
                let mut pairs = vec![("op", s("translate")), ("to", s(to.name()))];
                if let Some(lang) = language {
                    pairs.push(("lang", s(lang.name())));
                }
                pairs.push(("text", s(text)));
                obj(pairs)
            }
            Request::Load(LoadSource::Fixture(text)) => {
                obj(vec![("op", s("load")), ("fixture", s(text))])
            }
            Request::Load(LoadSource::Csv { table, text }) => obj(vec![
                ("op", s("load")),
                ("csv", s(text)),
                ("table", s(table)),
            ]),
            Request::Insert { table, rows } => obj(vec![
                ("op", s("insert")),
                ("table", s(table)),
                ("rows", rows_to_json(rows)),
            ]),
            Request::Delete { table, rows } => obj(vec![
                ("op", s("delete")),
                ("table", s(table)),
                ("rows", rows_to_json(rows)),
            ]),
            Request::Checkpoint => obj(vec![("op", s("checkpoint"))]),
            Request::Stats { reset } => {
                let mut pairs = vec![("op", s("stats"))];
                if *reset {
                    pairs.push(("reset", Json::Bool(true)));
                }
                obj(pairs)
            }
            Request::Metrics => obj(vec![("op", s("metrics"))]),
            Request::Ping => obj(vec![("op", s("ping"))]),
            Request::Shutdown => obj(vec![("op", s("shutdown"))]),
        }
    }
}

/// Parses the optional `"lang"` field (`"auto"`, absent, and null all
/// mean detect-from-text).
fn opt_language(v: &Json) -> Result<Option<Language>, String> {
    match v.get("lang") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::String(name)) if name == "auto" => Ok(None),
        Some(Json::String(name)) => Ok(Some(name.parse::<Language>()?)),
        Some(other) => Err(format!("field 'lang' must be a string, found {other}")),
    }
}

impl serde::Deserialize for Request {
    fn from_json(v: &Json) -> Result<Self, String> {
        let op = get_str(v, "op")?;
        match op.as_str() {
            "query" => {
                let language = opt_language(v)?;
                let diagram = match v.get("diagram") {
                    None | Some(Json::Null) => DiagramFormat::None,
                    Some(Json::String(name)) => diagram_from_name(name)?,
                    Some(other) => {
                        return Err(format!("field 'diagram' must be a string, found {other}"))
                    }
                };
                Ok(Request::Query {
                    language,
                    text: get_str(v, "text")?,
                    translations: opt_bool(v, "translations")?,
                    diagram,
                })
            }
            "explain" => Ok(Request::Explain {
                language: opt_language(v)?,
                text: get_str(v, "text")?,
                analyze: opt_bool(v, "analyze")?,
            }),
            "translate" => Ok(Request::Translate {
                language: opt_language(v)?,
                text: get_str(v, "text")?,
                to: get_str(v, "to")?.parse::<Language>()?,
            }),
            "load" => {
                if let Some(fixture) = v.get("fixture") {
                    let text = fixture.as_str().ok_or("field 'fixture' must be a string")?;
                    Ok(Request::Load(LoadSource::Fixture(text.to_string())))
                } else if v.get("csv").is_some() {
                    Ok(Request::Load(LoadSource::Csv {
                        table: get_str(v, "table")?,
                        text: get_str(v, "csv")?,
                    }))
                } else {
                    Err("load requires a 'fixture' or 'csv' field".into())
                }
            }
            "insert" => Ok(Request::Insert {
                table: get_str(v, "table")?,
                rows: parse_rows(v)?,
            }),
            "delete" => Ok(Request::Delete {
                table: get_str(v, "table")?,
                rows: parse_rows(v)?,
            }),
            "checkpoint" => Ok(Request::Checkpoint),
            "stats" => Ok(Request::Stats {
                reset: opt_bool(v, "reset")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op '{other}' (expected query, explain, translate, load, insert, \
                 delete, checkpoint, stats, metrics, ping, or shutdown)"
            )),
        }
    }
}

impl serde::Serialize for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Query(q) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("kind", s("query")),
                    ("language", s(q.language.name())),
                    ("canonical", s(&q.canonical)),
                    ("attrs", Json::Array(q.attrs.iter().map(s).collect())),
                    (
                        "rows",
                        Json::Array(
                            q.rows
                                .iter()
                                .map(|row| Json::Array(row.iter().map(value_to_json).collect()))
                                .collect(),
                        ),
                    ),
                    ("row_count", u(q.rows.len() as u64)),
                    ("cache_hit", Json::Bool(q.cache_hit)),
                    ("eval_cache_hit", Json::Bool(q.eval_cache_hit)),
                ];
                push_optional_meta(&mut pairs, &q.translations, &q.diagram, &q.notes);
                obj(pairs)
            }
            Response::Explain(e) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("explain")),
                ("language", s(e.language.name())),
                ("canonical", s(&e.canonical)),
                ("plan", explain_node_to_json(&e.plan)),
                ("cache_hit", Json::Bool(e.cache_hit)),
            ]),
            Response::Translate(t) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("translate")),
                ("to", s(t.to.name())),
                ("text", s(&t.text)),
            ]),
            Response::RowsChunk(c) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("kind", s("rows-chunk")),
                    ("seq", u(c.seq)),
                ];
                if let Some(head) = &c.head {
                    pairs.push(("language", s(head.language.name())));
                    pairs.push(("canonical", s(&head.canonical)));
                    pairs.push(("attrs", Json::Array(head.attrs.iter().map(s).collect())));
                }
                pairs.push((
                    "rows",
                    Json::Array(
                        c.rows
                            .iter()
                            .map(|row| Json::Array(row.iter().map(value_to_json).collect()))
                            .collect(),
                    ),
                ));
                obj(pairs)
            }
            Response::RowsEnd(e) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("kind", s("rows-end")),
                    ("seq", u(e.seq)),
                    ("row_count", u(e.row_count)),
                    ("cache_hit", Json::Bool(e.cache_hit)),
                    ("eval_cache_hit", Json::Bool(e.eval_cache_hit)),
                ];
                push_optional_meta(&mut pairs, &e.translations, &e.diagram, &e.notes);
                obj(pairs)
            }
            Response::Load(l) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("load")),
                ("tables", u(l.tables as u64)),
                ("tuples", u(l.tuples as u64)),
                ("generation", u(l.generation)),
                ("fingerprint", s(&l.fingerprint)),
            ]),
            Response::Mutation(m) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("mutation")),
                ("op", s(if m.insert { "insert" } else { "delete" })),
                ("table", s(&m.table)),
                ("applied", u(m.applied)),
                ("generation", u(m.generation)),
                ("fingerprint", s(&m.fingerprint)),
            ]),
            Response::Checkpoint(c) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("checkpoint")),
                ("seq", u(c.seq)),
                ("generation", u(c.generation)),
                ("fingerprint", s(&c.fingerprint)),
            ]),
            Response::Stats(st) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("stats")),
                ("connections", u(st.connections)),
                ("active_connections", u(st.active_connections)),
                ("requests", u(st.requests)),
                ("errors", u(st.errors)),
                ("workers", u(st.workers)),
                ("sessions", session_stats_to_json(&st.sessions)),
                ("parse_cache", cache_stats_to_json(&st.parse_cache)),
                ("eval_cache", cache_stats_to_json(&st.eval_cache)),
                ("eval_cache_enabled", Json::Bool(st.eval_cache_enabled)),
                ("generation", u(st.generation)),
                ("fingerprint", s(&st.fingerprint)),
                ("tables", u(st.tables)),
                ("tuples", u(st.tuples)),
                // Appended after the PR-2 fields so the object's byte
                // prefix is stable for older readers.
                ("evicted", u(st.evicted)),
                ("plan_cache", cache_stats_to_json(&st.plan_cache)),
                ("plan_cache_enabled", Json::Bool(st.plan_cache_enabled)),
                // Appended after the PR-5 fields (same compat contract).
                (
                    "stages",
                    Json::Array(st.stages.iter().map(stage_latency_to_json).collect()),
                ),
                // Appended after the PR-7 fields (same compat contract).
                (
                    "shards",
                    Json::Array(st.shards.iter().map(shard_breakdown_to_json).collect()),
                ),
                // Appended after the PR-9 fields (same compat contract).
                ("planner", planner_stats_to_json(&st.planner)),
            ]),
            Response::Metrics(m) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("metrics")),
                ("text", s(&m.text)),
            ]),
            Response::Pong => obj(vec![("ok", Json::Bool(true)), ("kind", s("pong"))]),
            Response::Bye => obj(vec![("ok", Json::Bool(true)), ("kind", s("bye"))]),
            Response::Error(message) => obj(vec![("ok", Json::Bool(false)), ("error", s(message))]),
        }
    }
}

fn parse_attrs(v: &Json) -> Result<Vec<String>, String> {
    v.get("attrs")
        .and_then(Json::as_array)
        .ok_or("missing 'attrs' array")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_string)
                .ok_or_else(|| "non-string attr".to_string())
        })
        .collect()
}

fn parse_rows(v: &Json) -> Result<Vec<Vec<Value>>, String> {
    v.get("rows")
        .and_then(Json::as_array)
        .ok_or("missing 'rows' array")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| "non-array row".to_string())?
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect()
}

fn parse_translations(v: &Json) -> Result<Option<Vec<(String, String)>>, String> {
    match v.get("translations") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Object(pairs)) => Ok(Some(
            pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|t| (k.clone(), t.to_string()))
                        .ok_or_else(|| format!("non-string translation '{k}'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Some(other) => Err(format!("'translations' must be an object, found {other}")),
    }
}

fn parse_notes(v: &Json) -> Result<Vec<String>, String> {
    match v.get("notes") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string note".to_string())
            })
            .collect(),
        Some(other) => Err(format!("'notes' must be an array, found {other}")),
    }
}

impl serde::Deserialize for Response {
    fn from_json(v: &Json) -> Result<Self, String> {
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing or non-bool field 'ok'")?;
        if !ok {
            return Ok(Response::Error(get_str(v, "error")?));
        }
        let kind = get_str(v, "kind")?;
        match kind.as_str() {
            "query" => Ok(Response::Query(QueryResult {
                language: get_str(v, "language")?.parse::<Language>()?,
                canonical: get_str(v, "canonical")?,
                attrs: parse_attrs(v)?,
                rows: parse_rows(v)?,
                cache_hit: opt_bool(v, "cache_hit")?,
                eval_cache_hit: opt_bool(v, "eval_cache_hit")?,
                translations: parse_translations(v)?,
                diagram: v.get("diagram").and_then(Json::as_str).map(str::to_string),
                notes: parse_notes(v)?,
            })),
            "explain" => Ok(Response::Explain(ExplainResult {
                language: get_str(v, "language")?.parse::<Language>()?,
                canonical: get_str(v, "canonical")?,
                plan: explain_node_from_json(v.get("plan").ok_or("missing 'plan' object")?)?,
                cache_hit: opt_bool(v, "cache_hit")?,
            })),
            "translate" => Ok(Response::Translate(TranslateResult {
                to: get_str(v, "to")?.parse::<Language>()?,
                text: get_str(v, "text")?,
            })),
            "rows-chunk" => {
                let seq = get_u64(v, "seq")?;
                // The header fields travel exactly on the first chunk.
                let head = if v.get("language").is_some() {
                    Some(ChunkHead {
                        language: get_str(v, "language")?.parse::<Language>()?,
                        canonical: get_str(v, "canonical")?,
                        attrs: parse_attrs(v)?,
                    })
                } else {
                    None
                };
                Ok(Response::RowsChunk(RowsChunk {
                    seq,
                    head,
                    rows: parse_rows(v)?,
                }))
            }
            "rows-end" => Ok(Response::RowsEnd(RowsEnd {
                seq: get_u64(v, "seq")?,
                row_count: get_u64(v, "row_count")?,
                cache_hit: opt_bool(v, "cache_hit")?,
                eval_cache_hit: opt_bool(v, "eval_cache_hit")?,
                translations: parse_translations(v)?,
                diagram: v.get("diagram").and_then(Json::as_str).map(str::to_string),
                notes: parse_notes(v)?,
            })),
            "load" => Ok(Response::Load(LoadResult {
                tables: get_u64(v, "tables")? as usize,
                tuples: get_u64(v, "tuples")? as usize,
                generation: get_u64(v, "generation")?,
                fingerprint: get_str(v, "fingerprint")?,
            })),
            "mutation" => Ok(Response::Mutation(MutationResult {
                insert: match get_str(v, "op")?.as_str() {
                    "insert" => true,
                    "delete" => false,
                    other => return Err(format!("unknown mutation op '{other}'")),
                },
                table: get_str(v, "table")?,
                applied: get_u64(v, "applied")?,
                generation: get_u64(v, "generation")?,
                fingerprint: get_str(v, "fingerprint")?,
            })),
            "checkpoint" => Ok(Response::Checkpoint(CheckpointResult {
                seq: get_u64(v, "seq")?,
                generation: get_u64(v, "generation")?,
                fingerprint: get_str(v, "fingerprint")?,
            })),
            "stats" => Ok(Response::Stats(StatsResult {
                connections: get_u64(v, "connections")?,
                active_connections: get_u64(v, "active_connections")?,
                requests: get_u64(v, "requests")?,
                errors: get_u64(v, "errors")?,
                evicted: opt_u64(v, "evicted")?,
                workers: get_u64(v, "workers")?,
                sessions: session_stats_from_json(
                    v.get("sessions").ok_or("missing 'sessions' object")?,
                )?,
                parse_cache: cache_stats_from_json(
                    v.get("parse_cache").ok_or("missing 'parse_cache' object")?,
                )?,
                eval_cache: cache_stats_from_json(
                    v.get("eval_cache").ok_or("missing 'eval_cache' object")?,
                )?,
                eval_cache_enabled: opt_bool(v, "eval_cache_enabled")?,
                // Absent in pre-plan-cache frames: default counters.
                plan_cache: match v.get("plan_cache") {
                    None | Some(Json::Null) => CacheStats::default(),
                    Some(o) => cache_stats_from_json(o)?,
                },
                plan_cache_enabled: opt_bool(v, "plan_cache_enabled")?,
                generation: get_u64(v, "generation")?,
                fingerprint: get_str(v, "fingerprint")?,
                tables: get_u64(v, "tables")?,
                tuples: get_u64(v, "tuples")?,
                stages: stage_latencies_from_json(v)?,
                shards: shard_breakdowns_from_json(v)?,
                planner: planner_stats_from_json(v)?,
            })),
            "metrics" => Ok(Response::Metrics(MetricsResult {
                text: get_str(v, "text")?,
            })),
            "pong" => Ok(Response::Pong),
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown response kind '{other}'")),
        }
    }
}

/// Encodes a message as its one-line wire form (no trailing newline).
pub fn encode<T: serde::Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol messages always serialize")
}

/// Decodes one wire line into a message.
pub fn decode<T: serde::Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("malformed message: {e}"))
}

/// Encodes one frame: the message's wire form with the request id (if
/// any) appended as a trailing `"id"` member. With no id the output is
/// byte-identical to [`encode`].
pub fn encode_frame<T: serde::Serialize>(msg: &T, id: Option<&RequestId>) -> String {
    let mut json = msg.to_json();
    if let (Some(id), Json::Object(pairs)) = (id, &mut json) {
        pairs.push(("id".to_string(), id.to_json()));
    }
    json.to_compact()
}

/// Decodes one response frame into its id (if any) and the message.
pub fn decode_frame(line: &str) -> Result<(Option<RequestId>, Response), String> {
    let v = serde::json::parse(line).map_err(|e| format!("malformed message: {e}"))?;
    let id = request_id_from(&v)?;
    let resp = <Response as serde::Deserialize>::from_json(&v)
        .map_err(|e| format!("malformed message: {e}"))?;
    Ok((id, resp))
}

/// Decodes one request line into its id (if any) and the request. On
/// failure the error carries the id when it could still be extracted,
/// so the server can echo it in the error frame; the error strings for
/// id-less requests match PR 2's [`decode`] byte for byte.
#[allow(clippy::type_complexity)]
pub fn decode_request_line(
    line: &str,
) -> Result<(Option<RequestId>, Request), (Option<RequestId>, String)> {
    let v = serde::json::parse(line).map_err(|e| (None, format!("malformed message: {e}")))?;
    let id = request_id_from(&v).map_err(|e| (None, e))?;
    match <Request as serde::Deserialize>::from_json(&v) {
        Ok(req) => Ok((id, req)),
        Err(e) => Err((id, format!("malformed message: {e}"))),
    }
}

// ---------------------------------------------------------------------
// Chunked result streaming
// ---------------------------------------------------------------------

/// Builds the streamed-frame sequence for a query result: `meta`
/// supplies everything except the rows (its own `rows` field is
/// ignored), `chunks` supplies the tuples in wire order. Returns the
/// `rows-chunk` frames (the first carrying the header) followed by the
/// closing `rows-end` frame.
pub fn stream_frames(
    meta: &QueryResult,
    chunks: impl Iterator<Item = Vec<Vec<Value>>>,
) -> Vec<Response> {
    let mut frames = Vec::new();
    let mut row_count = 0u64;
    for rows in chunks {
        row_count += rows.len() as u64;
        let head = if frames.is_empty() {
            Some(ChunkHead {
                language: meta.language,
                canonical: meta.canonical.clone(),
                attrs: meta.attrs.clone(),
            })
        } else {
            None
        };
        frames.push(Response::RowsChunk(RowsChunk {
            seq: frames.len() as u64,
            head,
            rows,
        }));
    }
    if frames.is_empty() {
        // Degenerate: an empty result still needs its header frame.
        frames.push(Response::RowsChunk(RowsChunk {
            seq: 0,
            head: Some(ChunkHead {
                language: meta.language,
                canonical: meta.canonical.clone(),
                attrs: meta.attrs.clone(),
            }),
            rows: Vec::new(),
        }));
    }
    frames.push(Response::RowsEnd(RowsEnd {
        seq: frames.len() as u64,
        row_count,
        cache_hit: meta.cache_hit,
        eval_cache_hit: meta.eval_cache_hit,
        translations: meta.translations.clone(),
        diagram: meta.diagram.clone(),
        notes: meta.notes.clone(),
    }));
    frames
}

/// Splits a complete query result into its streamed-frame form with at
/// most `chunk_rows` tuples per chunk (the inverse of [`Reassembler`]).
pub fn split_query(q: &QueryResult, chunk_rows: usize) -> Vec<Response> {
    let chunk_rows = chunk_rows.max(1);
    stream_frames(q, q.rows.chunks(chunk_rows).map(<[Vec<Value>]>::to_vec))
}

/// Folds streamed `rows-chunk` / `rows-end` frames back into complete
/// [`Response::Query`] messages, tracking any number of interleaved
/// streams keyed by request id.
///
/// Feed every received frame through [`Reassembler::accept`]: non-chunk
/// frames pass straight through, chunk frames accumulate and return
/// `None` until their `rows-end` arrives.
#[derive(Default)]
pub struct Reassembler {
    partials: Vec<(Option<RequestId>, Partial)>,
}

struct Partial {
    head: ChunkHead,
    rows: Vec<Vec<Value>>,
    next_seq: u64,
}

impl Reassembler {
    /// A reassembler with no streams in progress.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Number of streams currently being assembled.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    fn position(&self, id: &Option<RequestId>) -> Option<usize> {
        self.partials.iter().position(|(k, _)| k == id)
    }

    /// Accepts one frame. Returns `Ok(None)` while a stream is mid-
    /// flight, `Ok(Some(..))` for complete responses (pass-through or
    /// finished stream), and `Err` on protocol violations (out-of-order
    /// or duplicate chunks, row-count mismatch, a headerless stream).
    #[allow(clippy::type_complexity)]
    pub fn accept(
        &mut self,
        id: Option<RequestId>,
        response: Response,
    ) -> Result<Option<(Option<RequestId>, Response)>, String> {
        match response {
            Response::RowsChunk(chunk) => {
                match (self.position(&id), chunk.seq, chunk.head) {
                    (None, 0, Some(head)) => self.partials.push((
                        id,
                        Partial {
                            head,
                            rows: chunk.rows,
                            next_seq: 1,
                        },
                    )),
                    (None, seq, _) => {
                        return Err(format!(
                            "rows-chunk seq {seq} for a stream that never started"
                        ))
                    }
                    (Some(_), 0, _) => {
                        return Err("duplicate rows-chunk seq 0 for an open stream".into())
                    }
                    (Some(at), seq, _) => {
                        let partial = &mut self.partials[at].1;
                        if seq != partial.next_seq {
                            return Err(format!(
                                "out-of-order rows-chunk: expected seq {}, got {seq}",
                                partial.next_seq
                            ));
                        }
                        partial.next_seq += 1;
                        partial.rows.extend(chunk.rows);
                    }
                }
                Ok(None)
            }
            Response::RowsEnd(end) => {
                let at = self
                    .position(&id)
                    .ok_or("rows-end for a stream that never started")?;
                let (id, partial) = self.partials.swap_remove(at);
                if end.seq != partial.next_seq {
                    return Err(format!(
                        "out-of-order rows-end: expected seq {}, got {}",
                        partial.next_seq, end.seq
                    ));
                }
                if end.row_count != partial.rows.len() as u64 {
                    return Err(format!(
                        "rows-end claims {} rows but {} arrived",
                        end.row_count,
                        partial.rows.len()
                    ));
                }
                Ok(Some((
                    id,
                    Response::Query(QueryResult {
                        language: partial.head.language,
                        canonical: partial.head.canonical,
                        attrs: partial.head.attrs,
                        rows: partial.rows,
                        cache_hit: end.cache_hit,
                        eval_cache_hit: end.eval_cache_hit,
                        translations: end.translations,
                        diagram: end.diagram,
                        notes: end.notes,
                    }),
                )))
            }
            other => Ok(Some((id, other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let line = encode(&req);
        assert!(!line.contains('\n'), "wire form must be one line: {line}");
        let back: Request = decode(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query {
            language: Some(Language::Sql),
            text: "SELECT DISTINCT Boat.color FROM Boat".into(),
            translations: true,
            diagram: DiagramFormat::Dot,
        });
        roundtrip_request(Request::Query {
            language: None,
            text: "pi[color](Boat)".into(),
            translations: false,
            diagram: DiagramFormat::None,
        });
        roundtrip_request(Request::Explain {
            language: Some(Language::Trc),
            text: "{ q(A) | exists r in R [ q.A = r.A ] }".into(),
            analyze: false,
        });
        roundtrip_request(Request::Explain {
            language: None,
            text: "pi[color](Boat)".into(),
            analyze: true,
        });
        roundtrip_request(Request::Translate {
            language: Some(Language::Trc),
            text: "{ q(A) | exists r in R [ q.A = r.A ] }".into(),
            to: Language::Sql,
        });
        roundtrip_request(Request::Load(LoadSource::Fixture("R(a):\n (1)\n".into())));
        roundtrip_request(Request::Load(LoadSource::Csv {
            table: "R".into(),
            text: "a,b\n1,x\n".into(),
        }));
        roundtrip_request(Request::Insert {
            table: "Boat".into(),
            rows: vec![
                vec![Value::int(103), Value::str("blue")],
                vec![Value::int(104), Value::str("red")],
            ],
        });
        roundtrip_request(Request::Delete {
            table: "Boat".into(),
            rows: vec![vec![Value::int(103), Value::str("blue")]],
        });
        roundtrip_request(Request::Checkpoint);
        roundtrip_request(Request::Stats { reset: false });
        roundtrip_request(Request::Stats { reset: true });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn explain_analyze_flag_is_omitted_when_false() {
        let plain = encode(&Request::Explain {
            language: None,
            text: "pi[x](R)".into(),
            analyze: false,
        });
        assert!(!plain.contains("analyze"), "{plain}");
        // A PR-2 client frame (no analyze field) decodes to analyze=false.
        let req: Request = decode(r#"{"op":"explain","text":"pi[x](R)"}"#).unwrap();
        assert_eq!(
            req,
            Request::Explain {
                language: None,
                text: "pi[x](R)".into(),
                analyze: false,
            }
        );
    }

    #[test]
    fn stats_reset_flag_is_omitted_when_false() {
        assert_eq!(
            encode(&Request::Stats { reset: false }),
            r#"{"op":"stats"}"#
        );
        let req: Request = decode(r#"{"op":"stats","reset":true}"#).unwrap();
        assert_eq!(req, Request::Stats { reset: true });
    }

    #[test]
    fn metrics_roundtrip() {
        roundtrip_request(Request::Metrics);
        let resp = Response::Metrics(MetricsResult {
            text: "# TYPE rd_stage_latency_micros histogram\n\
                   rd_stage_latency_micros_bucket{stage=\"parse\",le=\"4\"} 1\n"
                .into(),
        });
        let line = encode(&resp);
        assert!(line.contains(r#""kind":"metrics""#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn mutation_and_checkpoint_responses_roundtrip() {
        for insert in [true, false] {
            let resp = Response::Mutation(MutationResult {
                insert,
                table: "Boat".into(),
                applied: 2,
                generation: 7,
                fingerprint: "ab12".into(),
            });
            let line = encode(&resp);
            let expected_op = if insert { "insert" } else { "delete" };
            assert!(line.contains(&format!(r#""op":"{expected_op}""#)), "{line}");
            let back: Response = decode(&line).unwrap();
            assert_eq!(back, resp);
        }
        let cp = Response::Checkpoint(CheckpointResult {
            seq: 3,
            generation: 7,
            fingerprint: "ab12".into(),
        });
        let back: Response = decode(&encode(&cp)).unwrap();
        assert_eq!(back, cp);
        // Malformed mutation requests are rejected with the field name.
        assert!(decode::<Request>(r#"{"op":"insert","table":"R"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"insert","rows":[[1]]}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"delete","table":"R","rows":[[{}]]}"#).is_err());
    }

    #[test]
    fn stats_with_delta_counters_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                delta_invalidations: 3,
                delta_survivals: 9,
                ..SessionStats::default()
            },
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""delta_survivals":9"#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-durability frames (no delta fields) still parse to zeros.
        let legacy = line.replace(r#","delta_invalidations":3,"delta_survivals":9"#, "");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.sessions.delta_invalidations, 0);
                assert_eq!(st.sessions.delta_survivals, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_planner_summary_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                planner_replans: 2,
                planner_feedback_hits: 5,
                ..SessionStats::default()
            },
            planner: PlannerStats {
                replans: 2,
                feedback_hits: 5,
                q_count: 40,
                q_p50: 110,
                q_p95: 480,
                q_p99: 5000,
            },
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""planner_replans":2"#), "{line}");
        assert!(line.contains(r#""q_p95":480"#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-planner frames carry neither the session counters nor the
        // summary block: both decode to zeros.
        let legacy = line
            .replace(r#","planner_replans":2,"planner_feedback_hits":5"#, "")
            .replace(
                r#","planner":{"replans":2,"feedback_hits":5,"q_count":40,"q_p50":110,"q_p95":480,"q_p99":5000}"#,
                "",
            );
        assert_ne!(legacy, line, "replacements must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.sessions.planner_replans, 0);
                assert_eq!(st.sessions.planner_feedback_hits, 0);
                assert_eq!(st.planner, PlannerStats::default());
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resp = Response::Query(QueryResult {
            language: Language::Ra,
            canonical: "pi[color](Boat)".into(),
            attrs: vec!["color".into()],
            rows: vec![vec![Value::str("red")], vec![Value::int(7)]],
            cache_hit: true,
            eval_cache_hit: false,
            translations: Some(vec![("trc".into(), "{ q(color) | ... }".into())]),
            diagram: Some("digraph {}".into()),
            notes: vec!["note".into()],
        });
        let back: Response = decode(&encode(&resp)).unwrap();
        assert_eq!(back, resp);

        let stats = Response::Stats(StatsResult {
            connections: 3,
            requests: 10,
            sessions: SessionStats {
                queries: 10,
                eval_hits: 4,
                ..SessionStats::default()
            },
            parse_cache: CacheStats {
                hits: 6,
                misses: 4,
                evictions: 0,
                entries: 4,
                capacity: 256,
                bytes: 0,
            },
            fingerprint: "abc123".into(),
            ..StatsResult::default()
        });
        let back: Response = decode(&encode(&stats)).unwrap();
        assert_eq!(back, stats);

        for r in [
            Response::Pong,
            Response::Bye,
            Response::Error("boom".into()),
            Response::Load(LoadResult {
                tables: 2,
                tuples: 5,
                generation: 1,
                fingerprint: "ff".into(),
            }),
        ] {
            let back: Response = decode(&encode(&r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn explain_and_translate_responses_roundtrip() {
        let explain = Response::Explain(ExplainResult {
            language: Language::Trc,
            canonical: "{ q(A) | ... }".into(),
            plan: ExplainNode {
                kind: "query".into(),
                detail: "q(A)".into(),
                children: vec![ExplainNode {
                    kind: "scan".into(),
                    detail: "R hash probe on c0 = t1.c0".into(),
                    children: Vec::new(),
                    est_rows: None,
                    actual_rows: None,
                    q_error: None,
                    build: None,
                }],
                est_rows: None,
                actual_rows: None,
                q_error: None,
                build: None,
            },
            cache_hit: true,
        });
        let line = encode(&explain);
        assert!(line.contains(r#""kind":"explain""#), "{line}");
        assert!(line.contains("hash probe"), "{line}");
        // Plain explain stays byte-compatible: no row-count fields.
        assert!(!line.contains("est_rows"), "{line}");
        assert!(!line.contains("actual_rows"), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, explain);

        let translate = Response::Translate(TranslateResult {
            to: Language::Sql,
            text: "SELECT DISTINCT R.A\nFROM R".into(),
        });
        let back: Response = decode(&encode(&translate)).unwrap();
        assert_eq!(back, translate);
    }

    #[test]
    fn analyzed_explain_responses_roundtrip() {
        let analyzed = Response::Explain(ExplainResult {
            language: Language::Ra,
            canonical: "pi[A](R join S)".into(),
            plan: ExplainNode {
                kind: "project".into(),
                detail: "A".into(),
                children: vec![ExplainNode {
                    kind: "join".into(),
                    detail: "natural on B".into(),
                    children: Vec::new(),
                    est_rows: Some(2),
                    actual_rows: Some(3),
                    q_error: Some(1.5),
                    build: Some("hash".into()),
                }],
                est_rows: Some(2),
                actual_rows: Some(2),
                q_error: Some(1.0),
                build: None,
            },
            cache_hit: false,
        });
        let line = encode(&analyzed);
        assert!(line.contains(r#""est_rows":2"#), "{line}");
        assert!(line.contains(r#""actual_rows":3"#), "{line}");
        assert!(line.contains(r#""q_error":1.5"#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, analyzed);
    }

    #[test]
    fn legacy_explain_frames_still_parse() {
        // A pre-analyze server frame: no est_rows/actual_rows anywhere.
        let legacy = r#"{"ok":true,"kind":"explain","language":"trc","canonical":"{ q(A) | ... }","plan":{"kind":"query","detail":"q(A)","children":[{"kind":"scan","detail":"R full scan","children":[]}]},"cache_hit":false}"#;
        match decode::<Response>(legacy).unwrap() {
            Response::Explain(e) => {
                assert_eq!(e.plan.est_rows, None);
                assert_eq!(e.plan.actual_rows, None);
                assert_eq!(e.plan.children[0].actual_rows, None);
            }
            other => panic!("expected explain, got {other:?}"),
        }
        // A frame from a server that still reported the executor: a
        // `mode` on explain nodes and `batched_execs` in `stats`. Both
        // keys are ignored on decode.
        let moded = r#"{"ok":true,"kind":"explain","language":"trc","canonical":"{ q(A) | ... }","plan":{"kind":"query","detail":"q(A)","children":[{"kind":"scan","detail":"R full scan","children":[]}],"mode":"tuple"},"cache_hit":false}"#;
        match decode::<Response>(moded).unwrap() {
            Response::Explain(e) => {
                assert_eq!(e.plan.kind, "query");
                assert_eq!(e.plan.children[0].detail, "R full scan");
            }
            other => panic!("expected explain, got {other:?}"),
        }
        let mut stats = StatsResult::default();
        stats.sessions.tuple_fallbacks = 4;
        let line = encode(&Response::Stats(stats));
        let older = line.replace(
            r#""tuple_fallbacks":4"#,
            r#""batched_execs":3,"tuple_fallbacks":4"#,
        );
        assert_ne!(older, line, "replacement must hit");
        match decode::<Response>(&older).unwrap() {
            Response::Stats(st) => assert_eq!(st.sessions.tuple_fallbacks, 4),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_stage_latencies_roundtrip() {
        let stats = Response::Stats(StatsResult {
            requests: 12,
            stages: vec![
                StageLatency {
                    stage: "parse".into(),
                    count: 12,
                    p50: 40,
                    p95: 90,
                    p99: 120,
                },
                StageLatency {
                    stage: "execute".into(),
                    count: 12,
                    p50: 200,
                    p95: 900,
                    p99: 1600,
                },
            ],
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""stages":["#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-observability frames (no stages array) decode to empty.
        let legacy = line.replace(
            r#","stages":[{"stage":"parse","count":12,"p50":40,"p95":90,"p99":120},{"stage":"execute","count":12,"p50":200,"p95":900,"p99":1600}]"#,
            "",
        );
        assert_ne!(legacy, line, "replacement must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => assert!(st.stages.is_empty()),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_shard_breakdown_roundtrip() {
        let stats = Response::Stats(StatsResult {
            connections: 9,
            active_connections: 3,
            evicted: 1,
            shards: vec![
                ShardBreakdown {
                    shard: 0,
                    connections: 5,
                    active: 2,
                    evicted: 0,
                },
                ShardBreakdown {
                    shard: 1,
                    connections: 4,
                    active: 1,
                    evicted: 1,
                },
            ],
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""shards":["#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-sharding frames (no shards array) decode to empty.
        let legacy = line.replace(
            r#","shards":[{"shard":0,"connections":5,"active":2,"evicted":0},{"shard":1,"connections":4,"active":1,"evicted":1}]"#,
            "",
        );
        assert_ne!(legacy, line, "replacement must hit");
        match decode::<Response>(&legacy).unwrap() {
            Response::Stats(st) => {
                assert!(st.shards.is_empty());
                assert_eq!(st.connections, 9, "totals survive without the breakdown");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_with_plan_cache_counters_roundtrip() {
        let stats = Response::Stats(StatsResult {
            sessions: SessionStats {
                plan_hits: 7,
                plan_misses: 2,
                plan_evictions: 1,
                ..SessionStats::default()
            },
            plan_cache: CacheStats {
                hits: 7,
                misses: 2,
                evictions: 1,
                entries: 2,
                capacity: 256,
                bytes: 0,
            },
            plan_cache_enabled: true,
            fingerprint: "abc".into(),
            ..StatsResult::default()
        });
        let line = encode(&stats);
        assert!(line.contains(r#""plan_cache""#), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, stats);
        // Pre-plan-cache frames (no plan fields) still parse, with
        // defaulted counters — forward compatibility both ways.
        let legacy = line
            .replace(",\"plan_hits\":7,\"plan_misses\":2,\"plan_evictions\":1", "")
            .replace(r#","plan_cache":{"hits":7,"misses":2,"evictions":1,"entries":2,"capacity":256,"cached_bytes":0},"plan_cache_enabled":true"#, "");
        let back: Response = decode(&legacy).unwrap();
        match back {
            Response::Stats(st) => {
                assert_eq!(st.sessions.plan_hits, 0);
                assert_eq!(st.plan_cache, CacheStats::default());
                assert!(!st.plan_cache_enabled);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn lang_auto_and_malformed_inputs() {
        let req: Request = decode(r#"{"op":"query","lang":"auto","text":"Boat"}"#).unwrap();
        assert!(matches!(req, Request::Query { language: None, .. }));
        assert!(decode::<Request>(r#"{"op":"nope"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"query"}"#).is_err());
        assert!(decode::<Request>(r#"{"op":"load"}"#).is_err());
        assert!(decode::<Request>("not json").is_err());
        assert!(
            decode::<Response>(r#"{"kind":"pong"}"#).is_err(),
            "missing ok"
        );
    }

    #[test]
    fn request_ids_are_extracted_and_echoed() {
        let (id, req) = decode_request_line(r#"{"op":"ping","id":7}"#).unwrap();
        assert_eq!(id, Some(RequestId::Int(7)));
        assert_eq!(req, Request::Ping);
        let (id, _) = decode_request_line(r#"{"op":"ping","id":"q-7"}"#).unwrap();
        assert_eq!(id, Some(RequestId::Str("q-7".into())));
        let (id, _) = decode_request_line(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(id, None);
        // Echo: the id lands as a trailing member; without one the
        // frame is byte-identical to the plain encoding.
        let pong = Response::Pong;
        assert_eq!(
            encode_frame(&pong, Some(&RequestId::Int(7))),
            r#"{"ok":true,"kind":"pong","id":7}"#
        );
        assert_eq!(encode_frame(&pong, None), encode(&pong));
        let (id, resp) = decode_frame(r#"{"ok":true,"kind":"pong","id":"x"}"#).unwrap();
        assert_eq!(id, Some(RequestId::Str("x".into())));
        assert_eq!(resp, Response::Pong);
    }

    #[test]
    fn malformed_ids_are_rejected() {
        for line in [
            r#"{"op":"ping","id":{"a":1}}"#,
            r#"{"op":"ping","id":[1]}"#,
            r#"{"op":"ping","id":1.5}"#,
            r#"{"op":"ping","id":true}"#,
        ] {
            let (id, err) = decode_request_line(line).unwrap_err();
            assert_eq!(id, None, "a malformed id cannot be echoed");
            assert!(err.contains("'id'"), "{err}");
        }
        // A good id on a bad request is still echoed in the error.
        let (id, err) = decode_request_line(r#"{"op":"nope","id":3}"#).unwrap_err();
        assert_eq!(id, Some(RequestId::Int(3)));
        assert!(err.starts_with("malformed message:"), "{err}");
    }

    fn big_result(rows: usize) -> QueryResult {
        QueryResult {
            language: Language::Ra,
            canonical: "pi[x](R)".into(),
            attrs: vec!["x".into()],
            rows: (0..rows).map(|i| vec![Value::int(i as i64)]).collect(),
            cache_hit: false,
            eval_cache_hit: true,
            translations: None,
            diagram: None,
            notes: vec!["n".into()],
        }
    }

    #[test]
    fn split_and_reassemble_roundtrip() {
        let q = big_result(10);
        for chunk_rows in [1, 3, 10, 100] {
            let frames = split_query(&q, chunk_rows);
            assert!(
                matches!(frames.last(), Some(Response::RowsEnd(_))),
                "stream ends with rows-end"
            );
            let mut reasm = Reassembler::new();
            let mut complete = None;
            for frame in frames {
                // Through the wire: every frame must survive encoding.
                let line = encode_frame(&frame, Some(&RequestId::Int(1)));
                let (id, frame) = decode_frame(&line).unwrap();
                assert_eq!(id, Some(RequestId::Int(1)));
                if let Some(done) = reasm.accept(id, frame).unwrap() {
                    assert!(complete.is_none(), "exactly one completion");
                    complete = Some(done);
                }
            }
            let (id, resp) = complete.expect("stream completed");
            assert_eq!(id, Some(RequestId::Int(1)));
            assert_eq!(resp, Response::Query(q.clone()));
            assert_eq!(reasm.in_progress(), 0);
        }
    }

    #[test]
    fn interleaved_streams_reassemble_independently() {
        let a = big_result(5);
        let mut b = big_result(4);
        b.canonical = "pi[y](S)".into();
        let a_frames = split_query(&a, 2);
        let b_frames = split_query(&b, 2);
        let a_id = Some(RequestId::Str("a".into()));
        let b_id = Some(RequestId::Int(2));
        // Interleave the two streams frame by frame, with an unrelated
        // pong passing through the middle.
        let mut reasm = Reassembler::new();
        let mut done = Vec::new();
        let mut feed = |reasm: &mut Reassembler, id: &Option<RequestId>, f: &Response| {
            if let Some(c) = reasm.accept(id.clone(), f.clone()).unwrap() {
                done.push(c);
            }
        };
        for i in 0..a_frames.len().max(b_frames.len()) {
            if let Some(f) = a_frames.get(i) {
                feed(&mut reasm, &a_id, f);
            }
            if i == 1 {
                feed(&mut reasm, &None, &Response::Pong);
            }
            if let Some(f) = b_frames.get(i) {
                feed(&mut reasm, &b_id, f);
            }
        }
        assert_eq!(done.len(), 3);
        assert_eq!(done[0], (None, Response::Pong), "pass-through mid-stream");
        assert!(done.contains(&(a_id, Response::Query(a))));
        assert!(done.contains(&(b_id, Response::Query(b))));
    }

    #[test]
    fn reassembler_rejects_protocol_violations() {
        let q = big_result(6);
        let frames = split_query(&q, 2);
        // Chunk for a stream that never started.
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[1].clone()).is_err());
        // Out-of-order chunk (seq skips).
        let mut reasm = Reassembler::new();
        reasm.accept(None, frames[0].clone()).unwrap();
        assert!(reasm.accept(None, frames[2].clone()).is_err());
        // rows-end with a wrong row count.
        let mut reasm = Reassembler::new();
        reasm.accept(None, frames[0].clone()).unwrap();
        reasm.accept(None, frames[1].clone()).unwrap();
        reasm.accept(None, frames[2].clone()).unwrap();
        if let Response::RowsEnd(mut end) = frames[3].clone() {
            end.row_count += 1;
            assert!(reasm.accept(None, Response::RowsEnd(end)).is_err());
        } else {
            panic!("expected rows-end");
        }
        // rows-end without any chunks.
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[3].clone()).is_err());
    }

    #[test]
    fn empty_streamed_result_still_has_a_header_frame() {
        let q = QueryResult {
            rows: Vec::new(),
            ..big_result(0)
        };
        let frames = split_query(&q, 4);
        assert_eq!(frames.len(), 2, "one header chunk + rows-end");
        let mut reasm = Reassembler::new();
        assert!(reasm.accept(None, frames[0].clone()).unwrap().is_none());
        let (_, resp) = reasm.accept(None, frames[1].clone()).unwrap().unwrap();
        assert_eq!(resp, Response::Query(q));
    }

    #[test]
    fn chunk_frames_roundtrip_standalone() {
        let chunk = Response::RowsChunk(RowsChunk {
            seq: 0,
            head: Some(ChunkHead {
                language: Language::Sql,
                canonical: "SELECT ...".into(),
                attrs: vec!["a".into(), "b".into()],
            }),
            rows: vec![vec![Value::int(1), Value::str("x")]],
        });
        let back: Response = decode(&encode(&chunk)).unwrap();
        assert_eq!(back, chunk);
        let tail = Response::RowsChunk(RowsChunk {
            seq: 3,
            head: None,
            rows: vec![],
        });
        let back: Response = decode(&encode(&tail)).unwrap();
        assert_eq!(back, tail);
        let end = Response::RowsEnd(RowsEnd {
            seq: 4,
            row_count: 9,
            cache_hit: true,
            eval_cache_hit: false,
            translations: Some(vec![("trc".into(), "{...}".into())]),
            diagram: Some("digraph {}".into()),
            notes: vec![],
        });
        let back: Response = decode(&encode(&end)).unwrap();
        assert_eq!(back, end);
    }
}
