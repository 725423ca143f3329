//! One benchmark run: set-up, the closed-loop timed window, the answer
//! checks, and the crash-recovery drill.

use crate::gen::{self, Data, Op, Pool, Stream, Workload};
use crate::wire::{self, Conn, Launch, Outcome, Reply, Server};
use rd_core::{Database, Tuple, Value};
use rd_engine::{Language, QueryRequest, Session};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client connections; each runs one closed loop on its own thread.
pub const CONNS: usize = 2;
/// Set-ups per run (`setup_s` is the median of the calmer half).
pub const SETUPS: usize = 11;
/// Kill-and-restart cycles per run (`recovery_s` is their median).
pub const RECOVERIES: usize = 7;
/// Distinct read texts re-checked against the final state of
/// `durable_mixed` after its window.
pub const FINAL_READ_CHECKS: usize = 64;

/// Everything a run needs, generated from the seed before the clock
/// starts.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub run_dir: PathBuf,
    pub data_dir: Option<PathBuf>,
    pub launch: Launch,
    pub flags: Vec<String>,
    pub data: Data,
    pub pool: Pool,
    pub base_db: Database,
    /// Expected answer digest per answer index, over the base database
    /// (filled for every index the run checks against the base state).
    pub expected: HashMap<usize, u64>,
}

/// Expected answer of a TRC text, computed in-process.
pub fn trc_digest(session: &mut Session, text: &str) -> Result<u64, String> {
    let resp = session
        .run(&QueryRequest::new(Language::Trc, text))
        .map_err(|e| format!("in-process TRC evaluation of {text}: {e}"))?;
    let db = session.database();
    let rows: Vec<Vec<Value>> = resp
        .relation
        .iter()
        .map(|t| db.resolve_tuple(t).0)
        .collect();
    Ok(wire::wire_digest(&rows))
}

/// The forms the warm-up pass sends: the first variant of every TRC and
/// SQL form (the other languages' forms are the slow ones at scale).
pub fn warmup_texts(pool: &Pool) -> Vec<usize> {
    pool.by_form
        .iter()
        .map(|v| v[0])
        .filter(|&i| matches!(pool.texts[i].lang, Language::Trc | Language::Sql))
        .collect()
}

impl Ctx {
    pub fn new(
        workload: Workload,
        seed: u64,
        rd: PathBuf,
        run_dir: PathBuf,
    ) -> Result<Ctx, String> {
        std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
        let data = gen::database(workload.sizes(), seed);
        let pool = gen::pool(workload, seed);
        let db_file = run_dir.join("db.fix");
        std::fs::write(&db_file, &data.fixture).map_err(|e| e.to_string())?;
        let base_db = rd_engine::parse_fixture(&data.fixture).map_err(|e| e.to_string())?;
        let mut flags = workload.server_flags();
        let data_dir = workload.durable().then(|| run_dir.join("data"));
        if let Some(d) = &data_dir {
            flags.push("--data-dir".into());
            flags.push(d.display().to_string());
        }
        let launch = Launch::new(&rd, &run_dir, &db_file, &flags);
        let mut ctx = Ctx {
            workload,
            seed,
            run_dir,
            data_dir,
            launch,
            flags,
            data,
            pool,
            base_db,
            expected: HashMap::new(),
        };
        // Interactive and analytic runs check every answer against the
        // base state; the durable run checks its warm-up there and its
        // reads against the final state.
        let needed: Vec<usize> = if workload.durable() {
            warmup_texts(&ctx.pool)
                .into_iter()
                .map(|i| ctx.pool.texts[i].answer)
                .collect()
        } else {
            (0..ctx.pool.answer_trc.len()).collect()
        };
        let mut session = Session::new(ctx.base_db.clone());
        for a in needed {
            let d = trc_digest(&mut session, &ctx.pool.answer_trc[a])?;
            ctx.expected.insert(a, d);
        }
        Ok(ctx)
    }

    pub fn recorded_flags(&self) -> Vec<String> {
        self.launch.flags_for_record(&self.flags)
    }
}

/// A live server with one connection per closed loop.
pub struct Live {
    pub server: Server,
    pub conns: Vec<Conn>,
}

/// Starts the server from scratch (a fresh data dir), connects, and
/// runs the warm-up pass. Returns the live server and the set-up time.
pub fn setup(ctx: &Ctx) -> Result<(Live, f64), String> {
    if let Some(d) = &ctx.data_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let start = Instant::now();
    let server = ctx.launch.start().map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(Conn::connect(&server.addr).map_err(|e| e.to_string())?);
    }
    for i in warmup_texts(&ctx.pool) {
        let t = &ctx.pool.texts[i];
        let reply = conns[0].call(&t.line).map_err(|e| e.to_string())?;
        match wire::decode_reply(&reply) {
            Outcome::Rows(rows)
                if Some(&wire::wire_digest(&rows)) == ctx.expected.get(&t.answer) => {}
            other => {
                return Err(format!(
                    "warm-up {} {}: wrong answer {other:?}",
                    t.qid,
                    t.lang.name()
                ))
            }
        }
    }
    Ok((Live { server, conns }, start.elapsed().as_secs_f64()))
}

/// One completed operation as the traced run keeps it.
#[derive(Debug, Clone)]
pub struct Record {
    pub op: Op,
    pub line: String,
    pub reply: Reply,
    /// Wire round trip, as offsets from the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one connection saw in one window.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// (completion time in seconds from the window's start, latency in
    /// microseconds) per query and per write.
    pub query_us: Vec<(f64, f64)>,
    pub write_us: Vec<(f64, f64)>,
    /// Completion times of every operation.
    pub done_at: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Acknowledged writes, in order.
    pub acked: Vec<Op>,
    /// Bytes of row JSON in acknowledged writes.
    pub user_bytes: u64,
    pub response_bytes: u64,
    pub records: Vec<Record>,
}

impl ConnLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// How long a window runs and what it keeps.
#[derive(Debug, Clone, Copy)]
pub struct WindowOpts {
    pub seconds: f64,
    /// Keep up to this many records per connection (traced runs).
    pub keep: usize,
}

/// (steal, total) ticks of all CPUs from `/proc/stat`; zeros if absent.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Runs every connection's closed loop for `opts.seconds`. Returns the
/// logs and, per whole second of the window, the share of CPU time the
/// hypervisor gave to other guests (the calling thread samples it while
/// the loops run).
pub fn window(
    ctx: &Ctx,
    live: &mut Live,
    streams: &mut [Stream],
    epoch: Instant,
    opts: WindowOpts,
) -> (Vec<ConnLog>, Vec<f64>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| {
                s.spawn(move || run_loop(ctx, conn, stream, epoch, start, deadline, opts))
            })
            .collect();
        let mut steal = Vec::new();
        let mut prev = cpu_ticks();
        for second in 1..=opts.seconds as u64 {
            std::thread::sleep(
                (start + Duration::from_secs(second)).saturating_duration_since(Instant::now()),
            );
            let now = cpu_ticks();
            steal.push((now.0 - prev.0) as f64 / (now.1 - prev.1).max(1) as f64);
            prev = now;
        }
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client loop panicked"))
            .collect();
        (logs, steal)
    })
}

fn run_loop(
    ctx: &Ctx,
    conn: &mut Conn,
    stream: &mut Stream,
    epoch: Instant,
    start: Instant,
    deadline: Instant,
    opts: WindowOpts,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut verified = std::collections::HashSet::new();
    // Reads of the durable workload race with writes; they are checked
    // against the final state after the window instead.
    let check_rows = !ctx.workload.durable();
    let pool = &ctx.pool;
    while Instant::now() < deadline {
        let op = stream.next_op(pool);
        let line = op.line(pool);
        let t0 = Instant::now();
        let reply = conn.call(&line);
        let t1 = Instant::now();
        log.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.fail(format!("connection failed: {e}"));
                break;
            }
        };
        let us = (t1 - t0).as_secs_f64() * 1e6;
        let at = (t1 - start).as_secs_f64();
        log.done_at.push(at);
        // A reply byte-identical to one already checked for the same
        // text is correct too; skipping its decode keeps the client's
        // share of the two cores small and steady.
        let seen = match &op {
            Op::Query { text, .. } if check_rows => Some((*text, reply.hash())),
            _ => None,
        };
        if seen.is_some_and(|k| verified.contains(&k)) {
            log.query_us.push((at, us));
            log.response_bytes += reply.bytes() as u64;
            keep(&mut log, opts, op, line, reply, t0, t1, epoch);
            continue;
        }
        match (&op, wire::decode_reply(&reply)) {
            (Op::Query { text, .. }, Outcome::Rows(rows)) => {
                log.query_us.push((at, us));
                log.response_bytes += reply.bytes() as u64;
                if check_rows {
                    let t = &pool.texts[*text];
                    if ctx.expected.get(&t.answer) == Some(&wire::wire_digest(&rows)) {
                        verified.extend(seen);
                    } else {
                        log.fail(format!(
                            "wrong answer: {} {} {}",
                            t.qid,
                            t.lang.name(),
                            t.text
                        ));
                    }
                }
            }
            (Op::Insert(r) | Op::Delete(r), Outcome::Mutation(1)) => {
                log.write_us.push((at, us));
                log.user_bytes += format!("[{},{},{}]", r[0], r[1], r[2]).len() as u64;
                log.acked.push(op.clone());
            }
            (Op::Checkpoint, Outcome::Done) => {}
            (_, other) => log.fail(format!("{op:?}: unexpected reply {other:?}")),
        }
        keep(&mut log, opts, op, line, reply, t0, t1, epoch);
    }
    log
}

#[allow(clippy::too_many_arguments)]
fn keep(
    log: &mut ConnLog,
    opts: WindowOpts,
    op: Op,
    line: String,
    reply: Reply,
    t0: Instant,
    t1: Instant,
    epoch: Instant,
) {
    if log.records.len() < opts.keep {
        log.records.push(Record {
            op,
            line,
            reply,
            start_ns: (t0 - epoch).as_nanos() as u64,
            end_ns: (t1 - epoch).as_nanos() as u64,
        });
    }
}

/// The database after every acknowledged write.
pub fn final_state(base: &Database, logs: &[&ConnLog]) -> Result<Database, String> {
    let mut db = base.clone();
    for log in logs {
        for op in &log.acked {
            let (r, insert) = match op {
                Op::Insert(r) => (r, true),
                Op::Delete(r) => (r, false),
                _ => continue,
            };
            let row = [Tuple(gen::row_values(r))];
            let applied = if insert {
                db.insert_rows("Reserves", &row)
            } else {
                db.delete_rows("Reserves", &row)
            }
            .map_err(|e| e.to_string())?;
            if applied != 1 {
                return Err(format!("acknowledged {op:?} does not apply in-process"));
            }
        }
    }
    Ok(db)
}

/// Re-checks a seeded sample of read texts against the final state.
/// Returns (checked, failures).
pub fn check_final_reads(
    ctx: &Ctx,
    conn: &mut Conn,
    final_db: &Database,
) -> Result<(u64, Vec<String>), String> {
    let mut rng = gen::Rng::fork(ctx.seed, 7);
    let mut session = Session::new(final_db.clone());
    let mut failures = Vec::new();
    let n = FINAL_READ_CHECKS.min(ctx.pool.texts.len());
    for _ in 0..n {
        let t = &ctx.pool.texts[rng.below(ctx.pool.texts.len())];
        let want = trc_digest(&mut session, &ctx.pool.answer_trc[t.answer])?;
        let reply = conn.call(&t.line).map_err(|e| e.to_string())?;
        match wire::decode_reply(&reply) {
            Outcome::Rows(rows) if wire::wire_digest(&rows) == want => {}
            other => failures.push(format!(
                "final-state read {} {}: {other:?}",
                t.qid,
                t.lang.name()
            )),
        }
    }
    Ok((n as u64, failures))
}

/// A query whose answer shows that the server is back with its data:
/// for the durable workload, every live inserted reservation (the WAL
/// tail), otherwise the pool's first text.
pub fn probe(ctx: &Ctx, final_db: &Database) -> Result<(String, u64), String> {
    if ctx.workload.durable() {
        let text = "{ q(sid, bid, day) | exists r in Reserves [ q.sid = r.sid and q.bid = r.bid \
                    and q.day = r.day and r.day > 30 ] }";
        let mut session = Session::new(final_db.clone());
        let d = trc_digest(&mut session, text)?;
        Ok((gen::encode_query(Language::Trc, text, false), d))
    } else {
        let t = &ctx.pool.texts[0];
        Ok((t.line.clone(), ctx.expected[&t.answer]))
    }
}

/// SIGKILLs the server and restarts it with the same flags (the same
/// data dir) until the probe answers correctly; returns the new server
/// and the seconds from kill to the first correct answer.
pub fn crash_and_recover(
    ctx: &Ctx,
    server: Server,
    probe: &(String, u64),
) -> Result<(Server, f64), String> {
    let start = Instant::now();
    server.kill();
    let server = ctx.launch.start().map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    loop {
        let reply = conn.call(&probe.0).map_err(|e| e.to_string())?;
        if let Outcome::Rows(rows) = wire::decode_reply(&reply) {
            if wire::wire_digest(&rows) == probe.1 {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
        }
        if start.elapsed() > Duration::from_secs(60) {
            return Err("recovered server never gave the correct answer".into());
        }
    }
}

/// After recovery: the fingerprint must match the in-process final
/// state, and every acknowledged write must be there. Returns the
/// failures (one per missing write).
pub fn check_recovered(
    server: &Server,
    final_db: &Database,
    logs: &[&ConnLog],
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut client = rd_server::Client::connect(server.addr.as_str()).map_err(|e| e.to_string())?;
    let fp = match client.checkpoint().map_err(|e| e.to_string())? {
        rd_server::Response::Checkpoint(c) => c.fingerprint,
        other => return Err(format!("checkpoint probe: {other:?}")),
    };
    let want = format!("{:016x}", final_db.fingerprint());
    if fp != want {
        failures.push(format!("recovered fingerprint {fp} != expected {want}"));
    }
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let all = "{ q(sid, bid, day) | exists r in Reserves [ q.sid = r.sid and q.bid = r.bid and q.day = r.day ] }";
    let rows = match wire::decode_reply(
        &conn
            .call(&gen::encode_query(Language::Trc, all, false))
            .map_err(|e| e.to_string())?,
    ) {
        Outcome::Rows(rows) => rows,
        other => return Err(format!("reading back Reserves: {other:?}")),
    };
    let present: std::collections::HashSet<[i64; 3]> = rows
        .iter()
        .filter_map(|r| match r.as_slice() {
            [Value::Int(a), Value::Int(b), Value::Int(c)] => Some([*a, *b, *c]),
            _ => None,
        })
        .collect();
    // The last acknowledged op on a row decides whether it must be
    // present (`logs` keeps each connection's ops in order).
    let mut last: HashMap<[i64; 3], bool> = HashMap::new();
    for op in logs.iter().flat_map(|l| &l.acked) {
        match op {
            Op::Insert(r) => last.insert(*r, true),
            Op::Delete(r) => last.insert(*r, false),
            _ => None,
        };
    }
    for (r, live) in last {
        if present.contains(&r) != live {
            failures.push(format!("acknowledged write on {r:?} lost after recovery"));
        }
    }
    Ok(failures)
}

/// Bytes of every file in a directory.
pub fn dir_bytes(dir: &std::path::Path) -> io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        total += e?.metadata()?.len();
    }
    Ok(total)
}
