//! `rd-servicebench`: drives `rd serve` with one of three seeded
//! workloads, checks every answer, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of an in-process replay of
//! the same requests (`--trace 1`). See README.md.
//!
//! ```text
//! rd-servicebench --rd PATH --workload NAME --seed N --seconds S --trace 0|1
//! rd-servicebench --dump-forms        # regenerate forms.txt
//! ```

mod gen;
mod runner;
mod stats;
mod trace;
mod wire;

use gen::{Stream, Workload};
use runner::{ConnLog, Ctx, Live, WindowOpts, CONNS, RECOVERIES, SETUPS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Records each connection of a traced run keeps for the replay.
const KEEP_RECORDS: usize = 4_000;
/// Samples per slice for a latency percentile: ten beyond the p99.
const MIN_SLICE_SAMPLES: usize = 1_000;
/// Query samples the calm part of a window holds (see `Calm`).
const CALM_SAMPLES: usize = 10_000;

struct Args {
    rd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--dump-forms") {
        print!("{}", gen::dump_forms()?);
        return Ok(None);
    }
    let mut rd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--rd" => rd = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed takes an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Some(Args {
        rd: rd.ok_or("--rd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Spread of the value across a run's sub-windows or repeats
    /// (interquartile range over median).
    spread: f64,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: usize,
    spread: f64,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
        spread,
    }
}

/// What a run produced.
#[derive(Default)]
struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Figures printed in the run record but not in the result line.
    extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servicebench: {e}");
            return ExitCode::from(2);
        }
    };
    for why in gen::EXCLUDED {
        println!("# excluded: {why}");
    }
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    let outcome =
        Ctx::new(args.workload, args.seed, args.rd.clone(), run_dir.clone()).and_then(|ctx| {
            let out = if args.trace {
                traced(&ctx, args.seconds)
            } else {
                untraced(&ctx, args.seconds)
            }?;
            Ok((ctx, out))
        });
    let (ctx, out) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("servicebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("servicebench: failure: {f}");
    }
    let record = run_record(&ctx, &args, &out);
    let _ = std::fs::write(run_dir.join("record.json"), &record);
    for path in ["db.fix", "data", "replay-store"] {
        let p = run_dir.join(path);
        let _ = std::fs::remove_dir_all(&p).or_else(|_| std::fs::remove_file(&p));
    }
    for m in out.metrics.iter().chain(&out.extra) {
        println!(
            "{:<36} {:>14.4} {:<8} (n={}, spread={:.3})",
            m.name, m.value, m.unit, m.samples, m.spread
        );
    }
    println!("{record}");
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    serde::json::Value::String(s.to_string()).to_compact()
}

/// The run record: what ran, where, and how steady each figure was.
fn run_record(ctx: &Ctx, args: &Args, out: &RunResult) -> String {
    // Only this directory's own repository names the commit; git would
    // otherwise report an enclosing repository's.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags: Vec<String> = ctx.recorded_flags().iter().map(|f| json_str(f)).collect();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .chain(&out.extra)
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":\"{}\",\"samples\":{},\"spread\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                m.unit,
                m.samples,
                json_num(m.spread)
            )
        })
        .collect();
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    format!(
        "{{\"run_record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"run_seconds\":{},\
         \"commit\":\"{}\",\"source_digest\":\"{:016x}\",\"nproc\":{},\"connections\":{},\
         \"rd_serve_flags\":[{}],\"failed_ratio\":{},\"metrics\":{{{}}}}}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        json_num(args.seconds),
        commit,
        source_digest(),
        nproc,
        CONNS,
        flags.join(","),
        json_num(failed_ratio),
        metrics.join(",")
    )
}

/// A digest of the sources the server is built from, standing in for
/// the commit where the checkout is not a git repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["crates", "src", "vendor"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    wire::fnv(files.iter().flat_map(|f| {
        let bytes = std::fs::read(f).unwrap_or_default();
        f.to_string_lossy()
            .into_owned()
            .into_bytes()
            .into_iter()
            .chain(bytes)
    }))
}

fn streams(ctx: &Ctx) -> Vec<Stream> {
    (0..CONNS)
        .map(|c| Stream::new(ctx.workload, ctx.seed, c, CONNS, &ctx.data))
        .collect()
}

fn opts(seconds: f64, keep: usize) -> WindowOpts {
    WindowOpts { seconds, keep }
}

fn stop(live: Live) {
    let Live { server, conns } = live;
    drop(conns);
    server.shutdown();
}

/// The seconds of a window its figures are taken over: the calmest
/// ones (least CPU taken by the hypervisor for other guests), calmest
/// first, until they hold `CALM_SAMPLES` query samples, and every other
/// second as calm as the last one taken; every second when the window
/// holds fewer samples. On a shared machine other guests take
/// 1-25% of the CPU in bursts, and microsecond requests feel it most;
/// figures over the calmest seconds move with the program more than
/// with its neighbours.
struct Calm {
    keep: Vec<bool>,
    steal: f64,
}

impl Calm {
    fn new(steal: &[f64], queries: &[(f64, f64)]) -> Calm {
        let n = steal.len();
        let mut per_second = vec![0usize; n];
        for &(t, _) in queries {
            if n > 0 {
                per_second[(t as usize).min(n - 1)] += 1;
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        // The steal level at which the pool is full; every second at or
        // below it counts, so ties (often many seconds with none) all do.
        let (mut pooled, mut cut) = (0, f64::INFINITY);
        for i in order {
            pooled += per_second[i];
            if pooled >= CALM_SAMPLES {
                cut = steal[i];
                break;
            }
        }
        let keep: Vec<bool> = steal.iter().map(|s| *s <= cut).collect();
        let kept: Vec<f64> = steal.iter().copied().filter(|s| *s <= cut).collect();
        Calm {
            keep,
            steal: stats::mean(&kept),
        }
    }

    /// Whether an operation completed at `t` seconds into the window
    /// counts (every one does when the window is under a second).
    fn holds(&self, t: f64) -> bool {
        self.keep.is_empty() || self.keep[(t as usize).min(self.keep.len() - 1)]
    }

    fn seconds(&self) -> usize {
        self.keep.iter().filter(|k| **k).count()
    }
}

/// The window cut into equal slices of at least `min` samples each (at
/// most one per second), with `f` applied to each slice's values: the
/// run record's measure of how steady a figure was within the run.
fn per_slice(
    samples: &[(f64, f64)],
    seconds: f64,
    min: usize,
    f: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let k = (samples.len() / min.max(1)).clamp(1, (seconds as usize).max(1));
    (0..k)
        .map(|i| {
            let (lo, hi) = (
                i as f64 * seconds / k as f64,
                (i + 1) as f64 * seconds / k as f64,
            );
            let xs: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && (*t < hi || i + 1 == k))
                .map(|p| p.1)
                .collect();
            f(&xs)
        })
        .collect()
}

/// Operations completed per second over the calm seconds of the window,
/// and each calm second's rate.
fn throughput(logs: &[ConnLog], seconds: f64, calm: &Calm) -> (f64, Vec<f64>) {
    let whole = (seconds as usize).max(1);
    let mut counts = vec![0.0; whole];
    for &t in logs.iter().flat_map(|l| &l.done_at) {
        if t < whole as f64 {
            counts[t as usize] += 1.0;
        }
    }
    let rates: Vec<f64> = counts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| calm.holds(*i as f64))
        .map(|(_, c)| c)
        .collect();
    (stats::mean(&rates), rates)
}

/// `<prefix>_p50_us` and `<prefix>_p99_us` over the samples completed
/// in calm seconds.
fn latency_metrics(prefix: &str, samples: &[(f64, f64)], seconds: f64, calm: &Calm) -> [Metric; 2] {
    let pool: Vec<(f64, f64)> = samples
        .iter()
        .copied()
        .filter(|(t, _)| calm.holds(*t))
        .collect();
    let xs: Vec<f64> = pool.iter().map(|p| p.1).collect();
    [(0.5, "p50"), (0.99, "p99")].map(|(p, label)| {
        let slices = per_slice(&pool, seconds, MIN_SLICE_SAMPLES, |s| {
            stats::percentile(s, p)
        });
        metric(
            format!("{prefix}_{label}_us"),
            stats::percentile(&xs, p),
            "us",
            xs.len(),
            stats::spread(&slices),
        )
    })
}

fn gather(logs: &[ConnLog], f: impl Fn(&ConnLog) -> &Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// Runs the closed loops untimed for a tenth of the window (at most
/// 3 s), so the plan cache, planner feedback and allocator reach their
/// steady state before the clock starts. Answers are still checked.
fn settle(
    ctx: &Ctx,
    live: &mut Live,
    streams: &mut [Stream],
    seconds: f64,
    out: &mut RunResult,
) -> Vec<ConnLog> {
    let (logs, _) = runner::window(
        ctx,
        live,
        streams,
        Instant::now(),
        opts((seconds / 10.0).min(3.0), 0),
    );
    tally(out, &logs);
    logs
}

fn tally(out: &mut RunResult, logs: &[ConnLog]) {
    for l in logs {
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.failures.extend(l.failures.iter().cloned());
    }
}

/// Durable only: final-state read checks and the WAL-to-user-bytes ratio.
fn durable_checks(
    ctx: &Ctx,
    live: &mut Live,
    logs: &[&ConnLog],
    out: &mut RunResult,
) -> Result<rd_core::Database, String> {
    let final_db = runner::final_state(&ctx.base_db, logs)?;
    let (checked, fails) = runner::check_final_reads(ctx, &mut live.conns[0], &final_db)?;
    out.attempted += checked;
    out.failed += fails.len() as u64;
    out.failures.extend(fails);
    let user: u64 = logs.iter().map(|l| l.user_bytes).sum();
    let dir = ctx.data_dir.as_ref().expect("durable runs have a data dir");
    let bytes = runner::dir_bytes(dir).map_err(|e| e.to_string())?;
    out.extra.push(metric(
        "wal_bytes_per_user_byte",
        bytes as f64 / user.max(1) as f64,
        "ratio",
        logs.iter().map(|l| l.acked.len()).sum(),
        0.0,
    ));
    Ok(final_db)
}

fn untraced(ctx: &Ctx, seconds: f64) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    // (set-up time, CPU share the hypervisor took meanwhile) per set-up.
    let mut setups = Vec::new();
    let (mut live, first) = timed_setup(ctx)?;
    setups.push(first);
    let mut streams = streams(ctx);
    let settled = settle(ctx, &mut live, &mut streams, seconds, &mut out);
    let (logs, steal) = runner::window(
        ctx,
        &mut live,
        &mut streams,
        Instant::now(),
        opts(seconds, 0),
    );
    tally(&mut out, &logs);
    let rss = live.server.peak_rss_mib().map_err(|e| e.to_string())?;
    let queries = gather(&logs, |l| &l.query_us);
    let writes = gather(&logs, |l| &l.write_us);
    let calm = Calm::new(&steal, &queries);
    let (rate, rates) = throughput(&logs, seconds, &calm);
    out.metrics.push(metric(
        "throughput_ops_s",
        rate,
        "ops/s",
        rates.len(),
        stats::spread(&rates),
    ));
    let [p50, p99] = latency_metrics("query", &queries, seconds, &calm);
    out.metrics.push(p50);
    out.metrics
        .push(metric("server_peak_rss_mib", rss, "MiB", 1, 0.0));
    out.extra.push(p99);
    out.extra.push(metric(
        "cpu_steal_share",
        stats::mean(&steal),
        "fraction",
        steal.len(),
        0.0,
    ));
    out.extra.push(metric(
        "cpu_steal_share_calm",
        calm.steal,
        "fraction",
        calm.seconds(),
        0.0,
    ));
    let log_refs: Vec<&ConnLog> = settled.iter().chain(&logs).collect();
    let final_db = if ctx.workload.durable() {
        out.extra
            .extend(latency_metrics("write", &writes, seconds, &calm));
        durable_checks(ctx, &mut live, &log_refs, &mut out)?
    } else {
        ctx.base_db.clone()
    };
    let probe = runner::probe(ctx, &final_db)?;
    let Live { mut server, conns } = live;
    drop(conns);
    let mut recoveries = Vec::new();
    for _ in 0..RECOVERIES {
        let (s, t) = runner::crash_and_recover(ctx, server, &probe)?;
        server = s;
        recoveries.push(t);
    }
    out.extra.push(metric(
        "recovery_s",
        stats::median(&recoveries),
        "s",
        recoveries.len(),
        stats::spread(&recoveries),
    ));
    if ctx.workload.durable() {
        let fails = runner::check_recovered(&server, &final_db, &log_refs)?;
        out.attempted += 1;
        out.failed += fails.len() as u64;
        out.failures.extend(fails);
    }
    server.shutdown();
    // The other set-ups run last, when the checks no longer need the
    // data dir and the machine is warm; `setup_s` is the median of the
    // calmer half.
    for _ in 1..SETUPS {
        let (live, s) = timed_setup(ctx)?;
        stop(live);
        setups.push(s);
    }
    setups.sort_by(|a, b| a.1.total_cmp(&b.1));
    let calm_setups: Vec<f64> = setups[..SETUPS.div_ceil(2)].iter().map(|p| p.0).collect();
    out.metrics.push(metric(
        "setup_s",
        stats::median(&calm_setups),
        "s",
        calm_setups.len(),
        stats::spread(&calm_setups),
    ));
    Ok(out)
}

/// A set-up and the share of CPU time the hypervisor took during it.
fn timed_setup(ctx: &Ctx) -> Result<(Live, (f64, f64)), String> {
    let before = runner::cpu_ticks();
    let (live, s) = runner::setup(ctx)?;
    let after = runner::cpu_ticks();
    Ok((
        live,
        (
            s,
            (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64,
        ),
    ))
}

/// Sum and count of the server's pool-wait histogram across shards.
fn pool_wait(metrics: &str) -> (f64, f64) {
    let field = |suffix: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(&format!("rd_pool_wait_micros_{suffix}")))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    (field("sum"), field("count"))
}

fn traced(ctx: &Ctx, seconds: f64) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let epoch = Instant::now();
    let (mut live, _) = runner::setup(ctx)?;
    let mut streams = streams(ctx);
    let settled = settle(ctx, &mut live, &mut streams, seconds, &mut out);
    let half = seconds / 2.0;
    let (plain, _) = runner::window(ctx, &mut live, &mut streams, epoch, opts(half, 0));
    let mut control =
        rd_server::Client::connect(live.server.addr.as_str()).map_err(|e| e.to_string())?;
    control.stats_reset().map_err(|e| e.to_string())?;
    let wait0 = pool_wait(&control.metrics().map_err(|e| e.to_string())?);
    let (traced, _) = runner::window(
        ctx,
        &mut live,
        &mut streams,
        epoch,
        opts(half, KEEP_RECORDS),
    );
    let st = control.stats_reset().map_err(|e| e.to_string())?;
    let wait1 = pool_wait(&control.metrics().map_err(|e| e.to_string())?);
    drop(control);
    tally(&mut out, &plain);
    tally(&mut out, &traced);
    let all: Vec<&ConnLog> = settled.iter().chain(&plain).chain(&traced).collect();
    let timed = || plain.iter().chain(&traced);
    let query_us: Vec<f64> = timed()
        .flat_map(|l| l.query_us.iter().map(|p| p.1))
        .collect();
    let writes: Vec<f64> = timed()
        .flat_map(|l| l.write_us.iter().map(|p| p.1))
        .collect();
    let final_db = if ctx.workload.durable() {
        durable_checks(ctx, &mut live, &all, &mut out)?
    } else {
        ctx.base_db.clone()
    };
    // One crash-recovery cycle, then a clean stop before `Store::open`
    // is timed on the same data dir.
    let Live { server, conns } = live;
    drop(conns);
    let (server, recovery_s) =
        runner::crash_and_recover(ctx, server, &runner::probe(ctx, &final_db)?)?;
    server.shutdown();
    let open_s = match &ctx.data_dir {
        Some(d) => {
            let t = Instant::now();
            rd_store::Store::open(d).map_err(|e| e.to_string())?;
            t.elapsed().as_secs_f64()
        }
        None => 0.0,
    };
    let mut records: Vec<&runner::Record> = traced.iter().flat_map(|l| &l.records).collect();
    records.sort_by_key(|r| r.start_ns);
    let before: Vec<&ConnLog> = settled.iter().chain(&plain).collect();
    let replay_db = runner::final_state(&ctx.base_db, &before)?;
    let mut tracer = trace::Tracer::new(epoch);
    let replay = trace::replay(&mut tracer, &records, ctx, replay_db, half)?;
    tracer
        .write(&ctx.run_dir.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    out.attempted += replay.replayed;
    out.failed += replay.mismatches.len() as u64;
    out.failures.extend(
        replay
            .mismatches
            .iter()
            .map(|m| format!("replay answer differs from wire: {m}")),
    );

    // Self time per span name (and language).
    let selfs = tracer.self_ns();
    let mut by: BTreeMap<(&str, Option<&str>), Vec<f64>> = BTreeMap::new();
    for (s, ns) in tracer.spans.iter().zip(&selfs) {
        let us = *ns as f64 / 1e3;
        by.entry((s.name, None)).or_default().push(us);
        if let Some(l) = s.lang {
            by.entry((s.name, Some(l.name()))).or_default().push(us);
        }
    }
    let get = |name: &str, lang: Option<&str>| by.get(&(name, lang)).cloned().unwrap_or_default();
    let m = &mut out.metrics;
    let pct = |xs: &[f64], p: f64| stats::percentile(xs, p);
    m.push(metric(
        "server.unaccounted_us.p50",
        stats::median(&replay.unaccounted_us),
        "us",
        replay.unaccounted_us.len(),
        0.0,
    ));
    let waits = wait1.1 - wait0.1;
    m.push(metric(
        "server.pool_wait_us.mean",
        (wait1.0 - wait0.0) / waits.max(1.0),
        "us",
        waits as usize,
        0.0,
    ));
    for (name, span) in [
        ("protocol.decode_us.p50", "protocol.decode"),
        ("protocol.encode_us.p50", "protocol.encode"),
    ] {
        let xs = get(span, None);
        m.push(metric(name, pct(&xs, 0.5), "us", xs.len(), 0.0));
    }
    let queries: usize = traced.iter().map(|l| l.query_us.len()).sum();
    let bytes: u64 = traced.iter().map(|l| l.response_bytes).sum();
    m.push(metric(
        "protocol.response_bytes.mean",
        bytes as f64 / queries.max(1) as f64,
        "bytes",
        queries,
        0.0,
    ));
    let run = get("engine.run", None);
    m.push(metric(
        "engine.run_us.p50",
        pct(&run, 0.5),
        "us",
        run.len(),
        0.0,
    ));
    m.push(metric(
        "engine.run_us.p99",
        pct(&run, 0.99),
        "us",
        run.len(),
        0.0,
    ));
    let s = &st.sessions;
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    let lookups = (s.cache_hits + s.cache_misses) as usize;
    m.push(metric(
        "engine.parse_hit_ratio",
        ratio(s.cache_hits, s.cache_misses),
        "ratio",
        lookups,
        0.0,
    ));
    m.push(metric(
        "engine.plan_hit_ratio",
        ratio(s.plan_hits, s.plan_misses),
        "ratio",
        (s.plan_hits + s.plan_misses) as usize,
        0.0,
    ));
    m.push(metric(
        "engine.eval_hit_ratio",
        ratio(s.eval_hits, s.eval_misses),
        "ratio",
        (s.eval_hits + s.eval_misses) as usize,
        0.0,
    ));
    for (name, v) in [
        ("engine.eval_evictions", s.eval_evictions),
        ("engine.delta_invalidations", s.delta_invalidations),
        ("engine.delta_survivals", s.delta_survivals),
        ("engine.planner_replans", s.planner_replans),
        ("engine.tuple_fallbacks", s.tuple_fallbacks),
    ] {
        m.push(metric(name, v as f64, "count", lookups, 0.0));
    }
    const LANGS: [&str; 4] = ["trc", "sql", "datalog", "ra"];
    for (prefix, span) in [
        ("frontend.prepare_us.p50", "frontend.prepare"),
        ("plan.compile_us.p50", "plan.compile"),
    ] {
        for l in LANGS {
            let xs = get(span, Some(l));
            m.push(metric(
                format!("{prefix}.{l}"),
                pct(&xs, 0.5),
                "us",
                xs.len(),
                0.0,
            ));
        }
    }
    m.push(metric(
        "plan.q_error.p50",
        pct(&replay.q_error, 0.5),
        "ratio",
        replay.q_error.len(),
        0.0,
    ));
    m.push(metric(
        "plan.q_error.p99",
        pct(&replay.q_error, 0.99),
        "ratio",
        replay.q_error.len(),
        0.0,
    ));
    for (p, label) in [(0.5, "p50"), (0.99, "p99")] {
        for l in LANGS {
            let xs = get("exec.execute", Some(l));
            m.push(metric(
                format!("exec.execute_us.{label}.{l}"),
                pct(&xs, p),
                "us",
                xs.len(),
                0.0,
            ));
        }
    }
    for l in LANGS {
        let xs: Vec<f64> = replay
            .examined
            .iter()
            .filter(|(lang, _)| lang.name() == l)
            .map(|p| p.1)
            .collect();
        m.push(metric(
            format!("exec.rows_examined_per_row.{l}"),
            stats::mean(&xs),
            "ratio",
            xs.len(),
            0.0,
        ));
    }
    for (name, span) in [
        ("translate.us.p50", "translate"),
        ("diagram.svg_us.p50", "diagram.svg"),
    ] {
        let xs = get(span, None);
        m.push(metric(name, pct(&xs, 0.5), "us", xs.len(), 0.0));
    }
    let log = get("store.log", None);
    m.push(metric(
        "store.log_us.p50",
        pct(&log, 0.5),
        "us",
        log.len(),
        0.0,
    ));
    m.push(metric(
        "store.log_us.p99",
        pct(&log, 0.99),
        "us",
        log.len(),
        0.0,
    ));
    let ckpt = get("store.checkpoint", None);
    m.push(metric(
        "store.checkpoint_ms",
        stats::median(&ckpt) / 1e3,
        "ms",
        ckpt.len(),
        0.0,
    ));
    m.push(metric(
        "store.bytes_per_record",
        stats::mean(&replay.wal_frame_bytes),
        "bytes",
        replay.wal_frame_bytes.len(),
        0.0,
    ));
    m.push(metric(
        "store.open_s",
        open_s,
        "s",
        ctx.data_dir.is_some() as usize,
        0.0,
    ));
    let apply = get("db.apply", None);
    m.push(metric(
        "db.apply_us.p50",
        pct(&apply, 0.5),
        "us",
        apply.len(),
        0.0,
    ));
    let whole = Calm::new(&[], &[]);
    let (tp, tt) = (
        throughput(&plain, half, &whole).0,
        throughput(&traced, half, &whole).0,
    );
    m.push(metric("trace_overhead", tt / tp.max(1e-9), "ratio", 2, 0.0));
    m.push(metric(
        "query_p99_us",
        pct(&query_us, 0.99),
        "us",
        query_us.len(),
        0.0,
    ));
    m.push(metric(
        "write_p50_us",
        pct(&writes, 0.5),
        "us",
        writes.len(),
        0.0,
    ));
    m.push(metric(
        "write_p99_us",
        pct(&writes, 0.99),
        "us",
        writes.len(),
        0.0,
    ));
    m.push(metric("recovery_s", recovery_s, "s", 1, 0.0));
    let wal_ratio = out
        .extra
        .iter()
        .find(|x| x.name == "wal_bytes_per_user_byte")
        .map_or(0.0, |x| x.value);
    out.metrics.push(metric(
        "wal_bytes_per_user_byte",
        wal_ratio,
        "ratio",
        writes.len(),
        0.0,
    ));
    out.metrics.push(metric(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
        out.attempted as usize,
        0.0,
    ));
    out.extra.clear();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `rd` binary the wire test drives: `RD_BIN`, else the release
    /// build under `CARGO_TARGET_DIR` or the repository's default dirs.
    fn rd_bin() -> PathBuf {
        let candidates = [
            std::env::var("RD_BIN").ok().map(PathBuf::from),
            std::env::var("CARGO_TARGET_DIR")
                .ok()
                .map(|d| PathBuf::from(d).join("release/rd")),
            Some(PathBuf::from("../.bench_build/release/rd")),
            Some(PathBuf::from("../target/release/rd")),
        ];
        candidates
            .into_iter()
            .flatten()
            .find(|p| p.exists())
            .expect("build rd first: cargo build --release --offline --bin rd (or set RD_BIN)")
    }

    #[test]
    fn traced_replay_gives_the_wire_answers() {
        let run_dir = PathBuf::from(format!("../.bench_run/test-{}", std::process::id()));
        let ctx =
            Ctx::new(Workload::InteractiveEdit, 3, rd_bin(), run_dir.clone()).expect("context");
        let epoch = Instant::now();
        let (mut live, _) = runner::setup(&ctx).expect("set-up");
        let mut streams = streams(&ctx);
        let (logs, _) = runner::window(&ctx, &mut live, &mut streams, epoch, opts(1.0, 300));
        stop(live);
        assert!(
            logs.iter().all(|l| l.failed == 0),
            "wire answers are checked and correct"
        );
        let mut records: Vec<&runner::Record> = logs.iter().flat_map(|l| &l.records).collect();
        records.sort_by_key(|r| r.start_ns);
        let mut tracer = trace::Tracer::new(epoch);
        let replay =
            trace::replay(&mut tracer, &records, &ctx, ctx.base_db.clone(), 60.0).expect("replay");
        let _ = std::fs::remove_dir_all(&run_dir);
        assert_eq!(replay.replayed as usize, records.len());
        assert!(replay.mismatches.is_empty(), "{:?}", replay.mismatches);
        // One wire span per request plus its in-process children.
        let roots = tracer.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, records.len());
        assert!(tracer.spans.iter().any(|s| s.name == "engine.run"));
    }
}
