//! The traced run's in-process replay: the same requests the wire run
//! sent, timed through each layer's public functions.
//!
//! Spans are kept in memory and written out when the run ends. Each
//! request has one wire-round-trip span (its root) and one child span
//! per in-process layer call on the same input.

use crate::gen::Op;
use crate::runner::{Ctx, Record};
use crate::wire::{self, Outcome};
use rd_core::exec::{self, ExplainNode};
use rd_core::{Database, Tuple};
use rd_engine::{
    Artifact, DiagramFormat, EngineShared, Language, QueryRequest, Session, SharedConfig,
};
use rd_server::protocol::{decode_frame, decode_request_line, encode_frame};
use rd_store::{Store, WalRecord};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub lang: Option<Language>,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span log.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        lang: Option<Language>,
        request: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            lang,
            request,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        lang: Option<Language>,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.push(name, lang, request, Some(parent), start, end);
        out
    }

    /// Self time of every span: its duration minus the part of its
    /// interval its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, ks)| {
                ks.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in ks.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"lang\":{},\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.lang.map_or("null".to_string(), |l| format!("\"{}\"", l.name())),
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts the replay gathers besides span times.
#[derive(Debug, Default)]
pub struct Replay {
    pub replayed: u64,
    /// Queries whose in-process answer differs from the wire answer.
    pub mismatches: Vec<String>,
    /// Wire round trip minus `Session::run`, per query (µs).
    pub unaccounted_us: Vec<f64>,
    pub q_error: Vec<f64>,
    /// (language, rows examined per result row) per query.
    pub examined: Vec<(Language, f64)>,
    pub wal_frame_bytes: Vec<f64>,
}

fn examined_rows(n: &ExplainNode) -> u64 {
    n.actual_rows.unwrap_or(0) + n.children.iter().map(examined_rows).sum::<u64>()
}

/// Replays `records` (in wire start order) from database `db` through an
/// in-process engine configured like the server, until `budget_s` runs
/// out. Answers are compared with the wire's except on the durable
/// workload, where other connections' writes interleave.
pub fn replay(
    tracer: &mut Tracer,
    records: &[&Record],
    ctx: &Ctx,
    db: Database,
    budget_s: f64,
) -> Result<Replay, String> {
    let pool = &ctx.pool;
    let compare_answers = !ctx.workload.durable();
    let eval_cache = !ctx
        .workload
        .server_flags()
        .iter()
        .any(|f| f == "--no-eval-cache");
    let shared = Arc::new(EngineShared::with_config(
        db,
        SharedConfig {
            eval_cache,
            ..SharedConfig::default()
        },
    ));
    let mut session = Session::attach(shared.clone());
    let store_dir = ctx.run_dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let (_, mut store) = Store::open(&store_dir).map_err(|e| e.to_string())?;
    let mut out = Replay::default();
    let started = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        if started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        out.replayed += 1;
        let req = i as u32;
        let lang = match &rec.op {
            Op::Query { text, .. } => Some(pool.texts[*text].lang),
            _ => None,
        };
        let root = tracer.push("request", lang, req, None, rec.start_ns, rec.end_ns);
        tracer
            .time("protocol.decode", lang, req, root, || {
                decode_request_line(&rec.line)
            })
            .map_err(|e| format!("decoding a request the server accepted: {e:?}"))?;
        match &rec.op {
            Op::Query { text, extras } => {
                let t = &pool.texts[*text];
                let lang = Some(t.lang);
                let request = QueryRequest {
                    language: t.lang,
                    text: t.text.clone(),
                    translations: *extras,
                    diagram: if *extras {
                        DiagramFormat::Svg
                    } else {
                        DiagramFormat::None
                    },
                };
                let run_start = Instant::now();
                let resp = tracer.time("engine.run", lang, req, root, || session.run(&request));
                let run_us = run_start.elapsed().as_secs_f64() * 1e6;
                let resp =
                    resp.map_err(|e| format!("in-process {} {}: {e}", t.qid, t.lang.name()))?;
                let wire_us = (rec.end_ns - rec.start_ns) as f64 / 1e3;
                out.unaccounted_us.push(wire_us - run_us);
                if compare_answers {
                    let epoch_db = session.database();
                    let rows: Vec<Vec<_>> = resp
                        .relation
                        .iter()
                        .map(|r| epoch_db.resolve_tuple(r).0)
                        .collect();
                    let mine = wire::wire_digest(&rows);
                    match wire::decode_reply(&rec.reply) {
                        Outcome::Rows(w) if wire::wire_digest(&w) == mine => {}
                        _ => out
                            .mismatches
                            .push(format!("{} {} {}", t.qid, t.lang.name(), t.text)),
                    }
                }
                let epoch = shared.epoch();
                let artifact = tracer
                    .time("frontend.prepare", lang, req, root, || {
                        Artifact::prepare(t.lang, &t.text, &epoch.catalog)
                    })
                    .map_err(|e| e.to_string())?;
                let plan = tracer
                    .time("plan.compile", lang, req, root, || {
                        artifact.compile(&epoch.db)
                    })
                    .map_err(|e| e.to_string())?;
                tracer
                    .time("exec.execute", lang, req, root, || {
                        exec::execute(&plan, &epoch.db)
                    })
                    .map_err(|e| e.to_string())?;
                let (rel, node) = tracer
                    .time("exec.analyze", lang, req, root, || {
                        exec::explain_analyze(&plan, &epoch.db)
                    })
                    .map_err(|e| e.to_string())?;
                if let Some(q) = node.q_error {
                    out.q_error.push(q);
                }
                out.examined.push((
                    t.lang,
                    examined_rows(&node) as f64 / (rel.len() as f64 + 1.0),
                ));
                for target in Language::ALL {
                    if target != t.lang {
                        // Targets outside the fragment (a union into RA)
                        // error; their cost is still the layer's.
                        let _ = tracer.time("translate", lang, req, root, || {
                            session.translate(t.lang, &t.text, target)
                        });
                    }
                }
                let _ = tracer.time("diagram.svg", lang, req, root, || {
                    session.to_hub_trc(&artifact).and_then(|hub| {
                        let d = rd_diagram::from_trc_union(&hub, &epoch.catalog)?;
                        d.validate()?;
                        Ok(rd_diagram::to_svg(&d))
                    })
                });
                let frames: Vec<_> = rec
                    .reply
                    .frames
                    .iter()
                    .filter_map(|f| decode_frame(f).ok())
                    .collect();
                tracer.time("protocol.encode", lang, req, root, || {
                    frames
                        .iter()
                        .map(|(id, r)| encode_frame(r, id.as_ref()).len())
                        .sum::<usize>()
                });
            }
            Op::Insert(r) | Op::Delete(r) => {
                let rows = vec![Tuple(crate::gen::row_values(r))];
                let insert = matches!(rec.op, Op::Insert(_));
                tracer
                    .time("db.apply", None, req, root, || {
                        if insert {
                            shared.insert_rows("Reserves", &rows)
                        } else {
                            shared.delete_rows("Reserves", &rows)
                        }
                    })
                    .map_err(|e| e.to_string())?;
                let wal = if insert {
                    WalRecord::Insert {
                        table: "Reserves".into(),
                        rows,
                    }
                } else {
                    WalRecord::Delete {
                        table: "Reserves".into(),
                        rows,
                    }
                };
                out.wal_frame_bytes
                    .push(wal.encode_frame().map_err(|e| e.to_string())?.len() as f64);
                tracer
                    .time("store.log", None, req, root, || store.log(&wal))
                    .map_err(|e| e.to_string())?;
            }
            Op::Checkpoint => {
                let db = shared.epoch().db.clone();
                tracer
                    .time("store.checkpoint", None, req, root, || {
                        store.checkpoint(&db)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    // The budget may end the replay before a checkpoint request; close
    // a replay that logged writes with one so the layer is measured.
    if !out.wal_frame_bytes.is_empty() && !tracer.spans.iter().any(|s| s.name == "store.checkpoint")
    {
        let db = shared.epoch().db.clone();
        let end = tracer.epoch.elapsed().as_nanos() as u64;
        let root = tracer.push("replay.close", None, records.len() as u32, None, end, end);
        tracer
            .time("store.checkpoint", None, records.len() as u32, root, || {
                store.checkpoint(&db)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}
