//! The service workload `serve-mix`: an open-loop generator against an
//! in-process `hls_serve::Server` with the default configuration.
//!
//! One sender thread sends a seeded script at a fixed offered rate over
//! one connection; one receiver thread collects the answers. Per block
//! of 20 requests the script holds 9 cold graphs (50–250 operations), 7
//! exact resubmissions and 4 ECO deltas of 1–5 operations naming a base
//! sent at least 0.25 s earlier. Each request is timed from when it was
//! due. After the nominal phase, a fixed geometric rate ladder
//! finds the highest rate whose p99 meets the latency limit.

use crate::corpus::{self, Class, Req};
use crate::layers::{self, DesignCounts, ServeLayer};
use crate::replica::{replica, Scheduling};
use crate::stats::{median, peak_mem_mb, percentile, tail, windowed};
use crate::trace::Tracer;
use crate::Outcome;
use hls_flow::{eco_flow, run_flow, FlowConfig, FlowReport};
use hls_ir::{canon, textfmt, Budget};
use hls_serve::cache::CachedAnswer;
use hls_serve::protocol::{self, CacheStatus, RejectKind, Request, Response};
use hls_serve::{BindAddr, Client, RequestOpts, ScheduleCache, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of the nominal phase (requests per second). Fixed here,
/// never derived from a warm-up, so runs on two commits offer the same
/// load.
const NOMINAL_RPS: f64 = 100.0;
/// Latency limit on the p99, counted from when a request was due.
const LIMIT_MS: f64 = 250.0;
/// The rate ladder: rung `j` offers `NOMINAL_RPS · 2^(j/8)`, up to 16×
/// nominal at the top rung.
const LADDER_TOP: u32 = 32;
/// Every `COARSE`-th rung is tried first; the rungs between the last
/// passing and the first failing coarse rung are tried after.
const COARSE: u32 = 8;
const RUNG_REQUESTS: usize = 300;
/// A failed rung is tried again on fresh requests before the ladder
/// stops, so a stall of the host does not end it.
const RUNG_ATTEMPTS: u32 = 3;
const WARMUP_REQUESTS: usize = 8;
const SETUP_REPEATS: usize = 5;
/// Sub-windows of the nominal phase; medians and p90s are the median of
/// the per-window values.
const WINDOWS: usize = 5;
/// Requests of the nominal script replayed by the traced run.
const REPLAY_REQUESTS: usize = 200;
/// Distinct cold graphs of the nominal script recomputed by the oracle.
const ORACLE_COLD: usize = 300;
/// Client-side read timeout; a stalled server fails the run instead
/// of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One request's fate.
struct Record {
    lag_ms: f64,
    /// The ECO went out without its base: the base was not answered.
    fallback: bool,
    /// Latency from due time and the answer, if one came.
    answer: Option<(f64, Response)>,
}

fn accepted(r: &Record) -> Option<(f64, &protocol::Accepted)> {
    match &r.answer {
        Some((lat, Response::Accepted(a))) => Some((*lat, a)),
        _ => None,
    }
}

/// Sends `script` at `rate` and collects every answer.
fn open_loop(addr: &Path, script: &[Req], rate: f64, id_base: u64) -> Result<Vec<Record>, String> {
    let n = script.len();
    let stream = UnixStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let answered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);

    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut r = BufReader::new(reader);
            let mut got: Vec<Option<(Instant, Response)>> = (0..n).map(|_| None).collect();
            let mut left = n;
            let mut line = String::new();
            while left > 0 {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = Instant::now();
                let Ok(resp) = protocol::parse_response(&line) else {
                    continue;
                };
                let Some(k) = resp.id().checked_sub(id_base).map(|k| k as usize) else {
                    continue;
                };
                if k < n && got[k].is_none() {
                    if matches!(resp, Response::Accepted(_)) {
                        answered[k].store(true, Ordering::Release);
                    }
                    got[k] = Some((now, resp));
                    left -= 1;
                }
            }
            got
        });

        let mut w = stream;
        let mut sent: Vec<(f64, bool)> = Vec::with_capacity(n);
        for (i, req) in script.iter().enumerate() {
            let due_i = due(i);
            let now = Instant::now();
            if due_i > now {
                std::thread::sleep(due_i - now);
            }
            let lag = Instant::now().saturating_duration_since(due_i);
            let (base, fallback) = match req.class {
                Class::Eco(j) if answered[j].load(Ordering::Acquire) => {
                    (Some(script[j].hash), false)
                }
                Class::Eco(_) => (None, true),
                _ => (None, false),
            };
            let header = protocol::format_request_header(&Request {
                id: id_base + i as u64,
                bytes: req.text.len(),
                deadline_ms: None,
                steps: None,
                base,
                nocache: false,
            });
            let mut buf = header.into_bytes();
            buf.extend_from_slice(req.text.as_bytes());
            if w.write_all(&buf).is_err() {
                break;
            }
            sent.push((lag.as_secs_f64() * 1e3, fallback));
        }
        let got = receiver.join().expect("the receiver thread does not panic");
        Ok(sent
            .into_iter()
            .zip(got)
            .enumerate()
            .map(|(i, ((lag_ms, fallback), ans))| Record {
                lag_ms,
                fallback,
                answer: ans.map(|(at, resp)| {
                    (
                        at.saturating_duration_since(due(i)).as_secs_f64() * 1e3,
                        resp,
                    )
                }),
            })
            .collect())
    })
}

/// Client-side tallies, compared with the server's own counters.
#[derive(Default, Debug, PartialEq, Eq)]
struct Tally {
    ok: u64,
    shed: u64,
    hits: u64,
    eco: u64,
}

/// Consistency state of the answer oracle across phases.
#[derive(Default)]
struct Oracle {
    /// States of each graph's first full-flow (miss) answer.
    miss_states: HashMap<u128, u64>,
    tally: Tally,
}

impl Oracle {
    /// Checks every answer of a phase: states at or above the bound, a
    /// hit returning its graph's earlier miss, misses of one graph
    /// agreeing with each other.
    fn check(&mut self, script: &[Req], recs: &[Record], o: &mut Outcome) {
        for (req, rec) in script.iter().zip(recs) {
            match &rec.answer {
                Some((_, Response::Accepted(a))) => {
                    self.tally.ok += 1;
                    match a.states {
                        Some(s) if s < a.lower_bound => o.fail(format!(
                            "request {}: {s} states below the bound {}",
                            a.id, a.lower_bound
                        )),
                        None if a.rung != "bound-only" => {
                            o.fail(format!("request {}: no states on rung {}", a.id, a.rung))
                        }
                        _ => {}
                    }
                    match (a.cache, a.states) {
                        (CacheStatus::Hit, s) => {
                            self.tally.hits += 1;
                            if self.miss_states.get(&req.hash).copied() != s {
                                o.fail(format!(
                                    "request {}: hit returned {s:?}, its miss {:?}",
                                    a.id,
                                    self.miss_states.get(&req.hash)
                                ));
                            }
                        }
                        (CacheStatus::Eco, _) => self.tally.eco += 1,
                        (_, Some(s)) if a.rung == "portfolio" => {
                            let first = *self.miss_states.entry(req.hash).or_insert(s);
                            if first != s {
                                o.fail(format!(
                                    "request {}: {s} states, earlier miss {first}",
                                    a.id
                                ));
                            }
                        }
                        _ => {}
                    }
                }
                Some((_, Response::Rejected(r))) if r.kind == RejectKind::Overloaded => {
                    self.tally.shed += 1;
                }
                _ => {}
            }
        }
    }
}

/// Figures of one open-loop phase.
struct Phase {
    /// Latency from due time; failed or refused requests are infinite.
    lat: Vec<f64>,
    ok: usize,
    ok_within: usize,
    ops_within: usize,
    window_s: f64,
}

fn phase(script: &[Req], recs: &[Record], rate: f64) -> Phase {
    let lat: Vec<f64> = recs
        .iter()
        .map(|r| accepted(r).map_or(f64::INFINITY, |(l, _)| l))
        .collect();
    let within: Vec<usize> = (0..recs.len()).filter(|&i| lat[i] <= LIMIT_MS).collect();
    Phase {
        ok: recs.iter().filter(|r| accepted(r).is_some()).count(),
        ok_within: within.len(),
        ops_within: within.iter().map(|&i| script[i].ops).sum(),
        lat,
        window_s: script.len() as f64 / rate,
    }
}

/// A backlog grows when the last quarter of a phase waits far longer
/// than the first.
fn backlog_grows(lat: &[f64]) -> bool {
    let q = lat.len() / 4;
    q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 10.0
}

fn flow_config() -> FlowConfig {
    ServeConfig::default().flow
}

/// The configuration of the service's first ladder rung.
fn portfolio_config() -> hls_search::PortfolioConfig {
    flow_config().portfolio.unwrap_or_default()
}

struct Setup {
    server: Server,
    addr: PathBuf,
    script: Vec<Req>,
    oracle: Oracle,
    setup_s: f64,
}

/// Generates the nominal script, starts the daemon and warms it up,
/// `SETUP_REPEATS` times; keeps the last daemon.
///
/// The daemon listens on a Unix socket: over TCP its unset `TCP_NODELAY`
/// holds each answer until the client's next request acknowledges the
/// previous one, which would make every latency read as the request
/// spacing instead of the service's work.
fn setup(seed: u64, seconds: f64, out_dir: &Path, o: &mut Outcome) -> Result<Setup, String> {
    let n = (NOMINAL_RPS * seconds).round().max(1.0) as usize;
    // Relative, so the path stays within the socket address limit.
    let addr = out_dir.join(format!("serve-{}.sock", std::process::id()));
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(Setup { server, .. }) = last.take() {
            server.shutdown(Duration::from_secs(5));
        }
        let t = Instant::now();
        let script = corpus::script(seed, 0, n, NOMINAL_RPS);
        let server = Server::start(&BindAddr::Unix(addr.clone()), ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let mut oracle = Oracle::default();
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for req in corpus::script(seed, 999, WARMUP_REQUESTS, NOMINAL_RPS) {
            let a = client
                .schedule(&req.text, &RequestOpts::default())
                .map_err(|e| format!("warm-up request failed: {e}"))?;
            oracle.tally.ok += 1;
            if let Some(s) = a.states {
                oracle.miss_states.entry(req.hash).or_insert(s);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some(Setup {
            server,
            addr: addr.clone(),
            script,
            oracle,
            setup_s: 0.0,
        });
    }
    let mut s = last.expect("at least one set-up");
    s.setup_s = median(&times);
    o.corpus_hash = corpus::script_hash(&s.script);
    Ok(s)
}

/// Stops the daemon and compares its counters with the client's.
fn finish(server: Server, oracle: &Oracle, o: &mut Outcome) {
    let st = server.shutdown(Duration::from_secs(10));
    let theirs = Tally {
        ok: st.completed,
        shed: st.shed,
        hits: st.cache_hits,
        eco: st.eco_hits,
    };
    if theirs != oracle.tally {
        o.fail(format!(
            "server counters {theirs:?} differ from the client's {:?}",
            oracle.tally
        ));
    }
}

/// One ladder rung: `Some(goodput)` when an attempt's p99 meets the
/// limit without a growing backlog.
fn rung(s: &mut Setup, seed: u64, j: u32, o: &mut Outcome) -> Result<Option<f64>, String> {
    let rate = NOMINAL_RPS * 2f64.powf(f64::from(j) / 8.0);
    for attempt in 0..RUNG_ATTEMPTS {
        let stream = u64::from(j * RUNG_ATTEMPTS + attempt) + 1;
        let script = corpus::script(seed, stream, RUNG_REQUESTS, rate);
        let recs = open_loop(&s.addr, &script, rate, stream * 1_000_000)?;
        s.oracle.check(&script, &recs, o);
        let r = phase(&script, &recs, rate);
        let p99 = percentile(&r.lat, 99.0);
        let grows = backlog_grows(&r.lat);
        o.notes.push(format!(
            "ladder rung {j}: {rate:.1} req/s offered, p99 {p99:.1} ms, {} of {} within {LIMIT_MS} ms{}",
            r.ok_within,
            script.len(),
            if grows { ", backlog growing" } else { "" },
        ));
        if p99 <= LIMIT_MS && !grows {
            return Ok(Some(r.ok_within as f64 / r.window_s));
        }
    }
    Ok(None)
}

/// `max_ok_rps`: the goodput at the highest passing rung of the ladder
/// (`nominal` when none above nominal passes). Coarse rungs first, then
/// the fine rungs below the first failing coarse one.
fn ladder(s: &mut Setup, seed: u64, nominal: f64, o: &mut Outcome) -> Result<f64, String> {
    let (mut best, mut passed) = (nominal, 0);
    let mut failed = LADDER_TOP + 1;
    for j in (COARSE..=LADDER_TOP).step_by(COARSE as usize) {
        match rung(s, seed, j, o)? {
            Some(g) => (best, passed) = (g, j),
            None => {
                failed = j;
                break;
            }
        }
    }
    for j in passed + 1..failed.min(LADDER_TOP + 1) {
        match rung(s, seed, j, o)? {
            Some(g) => best = g,
            None => break,
        }
    }
    Ok(best)
}

/// Recomputes the first `ORACLE_COLD` distinct cold graphs answered on
/// the portfolio rung with the library flow: the service's states must
/// match, and each design's datapath must compute its behavior.
/// Returns the summed states and registers.
fn recompute(script: &[Req], recs: &[Record], o: &mut Outcome) -> (u64, usize) {
    let cfg = FlowConfig {
        portfolio: Some(portfolio_config()),
        ..flow_config()
    };
    let (mut states, mut registers, mut seen) = (0u64, 0usize, 0usize);
    for (i, (req, rec)) in script.iter().zip(recs).enumerate() {
        if seen == ORACLE_COLD {
            break;
        }
        let Some((_, a)) = accepted(rec) else {
            continue;
        };
        if req.class != Class::Cold || a.rung != "portfolio" || a.cache != CacheStatus::Miss {
            continue;
        }
        seen += 1;
        let graph = match textfmt::from_text(&req.text) {
            Ok(g) => g,
            Err(e) => {
                o.fail(format!("request {i}: script graph does not parse: {e}"));
                continue;
            }
        };
        let behavior = graph.clone();
        match run_flow(graph, &cfg) {
            Ok(out) => {
                if Some(out.report.final_states) != a.states {
                    o.fail(format!(
                        "request {i}: service answered {:?} states, the flow computes {}",
                        a.states, out.report.final_states
                    ));
                }
                if let Err(e) = crate::flows::check_datapath(i as u64, &behavior, &out) {
                    o.fail(e);
                }
                states += out.report.final_states;
                registers += out.report.registers;
            }
            Err(e) => o.fail(format!("request {i}: flow failed: {e}")),
        }
    }
    (states, registers)
}

fn serve_layer(script: &[Req], recs: &[Record], p: &Phase) -> ServeLayer {
    let workers = ServeConfig::default().workers as f64;
    let service = |status: CacheStatus| -> Vec<f64> {
        recs.iter()
            .filter_map(accepted)
            .filter(|(_, a)| a.cache == status)
            .map(|(_, a)| a.micros as f64 / 1e3)
            .collect()
    };
    let ok: Vec<(f64, &protocol::Accepted)> = recs.iter().filter_map(accepted).collect();
    let wait: Vec<f64> = ok.iter().map(|(l, a)| l - a.micros as f64 / 1e3).collect();
    let busy: f64 = ok.iter().map(|(_, a)| a.micros as f64 / 1e6).sum();
    let rejected = |kind: RejectKind| {
        recs.iter()
            .filter(|r| matches!(&r.answer, Some((_, Response::Rejected(x))) if x.kind == kind))
            .count() as f64
    };
    let fallbacks = script
        .iter()
        .zip(recs)
        .filter(|(req, rec)| {
            matches!(req.class, Class::Eco(_))
                && (rec.fallback || accepted(rec).is_some_and(|(_, a)| a.cache != CacheStatus::Eco))
        })
        .count();
    let degraded = ok
        .iter()
        .filter(|(_, a)| a.degraded > 0 || !(a.rung == "portfolio" || a.rung == "eco"))
        .count();
    let lag: Vec<f64> = recs.iter().map(|r| r.lag_ms).collect();
    let eco_lat: Vec<f64> = ok
        .iter()
        .filter(|(_, a)| a.cache == CacheStatus::Eco)
        .map(|(l, _)| *l)
        .collect();
    let okn = ok.len().max(1) as f64;
    ServeLayer {
        latency_ms_p90: windowed(&p.lat, WINDOWS, |w| tail(w, 90.0).0),
        latency_ms_p99: tail(&p.lat, 99.0).0,
        eco_ms_p50: windowed(&eco_lat, WINDOWS, median),
        cold_service_ms_p50: median(&service(CacheStatus::Miss)),
        hit_service_ms_p50: median(&service(CacheStatus::Hit)),
        eco_service_ms_p50: median(&service(CacheStatus::Eco)),
        wait_ms_p50: median(&wait),
        wait_ms_p99: percentile(&wait, 99.0),
        busy_frac: busy / (workers * p.window_s),
        hit_ratio: service(CacheStatus::Hit).len() as f64 / okn,
        eco_fallbacks: fallbacks as f64,
        shed: rejected(RejectKind::Overloaded),
        timeouts: rejected(RejectKind::Timeout),
        degraded_frac: degraded as f64 / okn,
        lag_ms_p99: percentile(&lag, 99.0),
    }
}

/// The nominal phase, shared by the timed and the traced run.
fn nominal(s: &mut Setup, o: &mut Outcome) -> Result<(Vec<Record>, Phase), String> {
    let recs = open_loop(&s.addr, &s.script, NOMINAL_RPS, 1_000_000)?;
    s.oracle.check(&s.script, &recs, o);
    let p = phase(&s.script, &recs, NOMINAL_RPS);
    o.attempted += s.script.len() as u64;
    o.failed += (s.script.len() - p.ok) as u64;
    o.samples = p.lat.clone();
    Ok((recs, p))
}

pub fn timed(seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::new(0);
    let mut s = setup(seed, seconds, out_dir, &mut o)?;
    let (recs, p) = nominal(&mut s, &mut o)?;

    let max_ok = ladder(&mut s, seed, p.ok_within as f64 / p.window_s, &mut o)?;
    finish(s.server, &s.oracle, &mut o);
    let (states_total, registers_total) = recompute(&s.script, &recs, &mut o);

    let class_p50 = |status: CacheStatus| -> f64 {
        let lat: Vec<f64> = recs
            .iter()
            .filter_map(accepted)
            .filter(|(_, a)| a.cache == status)
            .map(|(l, _)| l)
            .collect();
        windowed(&lat, WINDOWS, median)
    };
    let full = recs
        .iter()
        .filter_map(accepted)
        .filter(|(_, a)| a.rung == "portfolio" || a.rung == "eco")
        .count();
    let m = &mut o.metrics;
    m.push("setup_s", s.setup_s, "s");
    m.push("ops_per_s", p.ops_within as f64 / p.window_s, "1/s");
    m.push("requests_per_s", p.ok_within as f64 / p.window_s, "1/s");
    m.push("max_ok_rps", max_ok, "1/s");
    m.push("ok_frac", p.ok as f64 / s.script.len() as f64, "ratio");
    m.push("full_rung_frac", full as f64 / p.ok.max(1) as f64, "ratio");
    m.push("states_total", states_total as f64, "count");
    m.push("registers_total", registers_total as f64, "count");
    m.push("peak_mem_mb", peak_mem_mb(), "MiB");
    let info = &mut o.info;
    // Per design compiled from scratch, as on the flow workloads; hits
    // and ECOs have their own per-class figures.
    info.push("latency_ms_p50", class_p50(CacheStatus::Miss), "ms");
    info.push("request_ms_p50", windowed(&p.lat, WINDOWS, median), "ms");
    info.push(
        "latency_ms_p90",
        windowed(&p.lat, WINDOWS, |w| tail(w, 90.0).0),
        "ms",
    );
    info.push("latency_ms_p99", tail(&p.lat, 99.0).0, "ms");
    info.push("hit_ms_p50", class_p50(CacheStatus::Hit), "ms");
    info.push("eco_ms_p50", class_p50(CacheStatus::Eco), "ms");
    Ok(o)
}

/// Replays the first `REPLAY_REQUESTS` requests in process through a
/// copy of the service's request path: parse, hash, cache lookup, then
/// the ECO graft or the flow copy with portfolio scheduling, then the
/// cache insert. Returns the replay's wall and the flow copies' wall.
fn replay(
    script: &[Req],
    reports: &HashMap<usize, FlowReport>,
    tr: &mut Tracer,
    counts: &mut Vec<DesignCounts>,
    o: &mut Outcome,
) -> (f64, f64) {
    let cfg = flow_config();
    let pcfg = portfolio_config();
    let limits = hls_ir::textfmt::Limits {
        max_bytes: ServeConfig::default().max_request_bytes,
        ..hls_ir::textfmt::Limits::serving()
    };
    let mut cache = ScheduleCache::new(ServeConfig::default().cache_capacity, limits.max_ops);
    let (mut cold_s, t0) = (0.0, Instant::now());
    for (i, req) in script.iter().enumerate().take(REPLAY_REQUESTS) {
        let id = i as u64;
        let root = tr.begin("serve.request", id);
        let g = match tr.span("ir.parse", id, || {
            textfmt::from_text_limited(&req.text, &limits)
        }) {
            Ok(g) => g,
            Err(e) => {
                o.fail(format!("request {i}: does not parse: {e}"));
                tr.end(root);
                continue;
            }
        };
        let h = tr.span("ir.hash", id, || canon::graph_hash(&g));
        if tr.span("serve.cache", id, || cache.lookup(h, &g)).is_some() {
            tr.end(root);
            continue;
        }
        if let Class::Eco(j) = req.class {
            if let Some(base) =
                tr.span("serve.cache", id, || cache.base_for_eco(script[j].hash, &g))
            {
                match tr.span("flow.eco", id, || eco_flow(base, &g, &cfg, &Budget::NONE)) {
                    Ok((out, next)) => {
                        let answer = CachedAnswer {
                            rung: "eco".into(),
                            states: out.report.final_states,
                            lower_bound: out.scheduler.schedule_lower_bound(),
                        };
                        tr.span("serve.cache", id, || cache.insert(h, g, next, answer));
                        tr.end(root);
                        continue;
                    }
                    Err(e) => o.fail(format!("request {i}: ECO failed: {e}")),
                }
            }
        }
        let t = Instant::now();
        let rep = replica(g.clone(), &cfg, Scheduling::Portfolio(&pcfg), tr, id);
        cold_s += t.elapsed().as_secs_f64();
        match rep {
            Ok(rep) => {
                if let Some(Err(e)) = reports.get(&i).map(|r| rep.matches(r)) {
                    o.fail(format!("request {i}: {e}"));
                }
                counts.push(DesignCounts::of(id, req.ops, &rep));
                let answer = CachedAnswer {
                    rung: "portfolio".into(),
                    states: rep.final_states,
                    lower_bound: rep.lower_bound,
                };
                tr.span("serve.cache", id, || {
                    cache.insert(h, g, rep.eco_base, answer)
                });
            }
            Err(e) => o.fail(format!("request {i}: replica failed: {e}")),
        }
        tr.end(root);
    }
    (t0.elapsed().as_secs_f64(), cold_s)
}

pub fn traced(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let mut o = Outcome::new(0);
    let mut s = setup(seed, seconds, out_dir, &mut o)?;
    let (recs, p) = nominal(&mut s, &mut o)?;
    let layer = serve_layer(&s.script, &recs, &p);
    finish(s.server, &s.oracle, &mut o);

    // Untraced replay, run_flow on every graph the replay schedules
    // cold (for the replica check and its wall ratio), traced replay,
    // untraced replay again: the two untraced walls bracket the others.
    let (plain1_s, plain1_cold_s) = replay(
        &s.script,
        &HashMap::new(),
        &mut Tracer::new(false),
        &mut Vec::new(),
        &mut o,
    );
    let cfg = FlowConfig {
        portfolio: Some(portfolio_config()),
        ..flow_config()
    };
    let mut reports = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    let mut flow_s = 0.0;
    for (i, req) in s.script.iter().enumerate().take(REPLAY_REQUESTS) {
        if req.class != Class::Cold || !seen.insert(req.hash) {
            continue;
        }
        let Ok(g) = textfmt::from_text(&req.text) else {
            continue;
        };
        let t = Instant::now();
        let out = run_flow(g, &cfg);
        flow_s += t.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                reports.insert(i, out.report);
            }
            Err(e) => o.fail(format!("request {i}: flow failed: {e}")),
        }
    }
    let mut tr = Tracer::new(true);
    let mut counts = Vec::new();
    let (traced_s, _) = replay(&s.script, &reports, &mut tr, &mut counts, &mut o);
    let (plain2_s, plain2_cold_s) = replay(
        &s.script,
        &reports,
        &mut Tracer::new(false),
        &mut Vec::new(),
        &mut o,
    );
    let plain_s = (plain1_s + plain2_s) / 2.0;
    let plain_cold_s = (plain1_cold_s + plain2_cold_s) / 2.0;

    let m = &mut o.metrics;
    layers::span_metrics(m, &tr, &counts, "serve.request");
    layer.push(m);
    m.push("trace.overhead_ratio", traced_s / plain_s, "ratio");
    m.push("flow.replica_ratio", plain_cold_s / flow_s, "ratio");
    o.write_trace(&tr, trace_path);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_backlog_is_detected() {
        let flat: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i % 3)).collect();
        let growing: Vec<f64> = (0..100).map(|i| 10.0 + 5.0 * f64::from(i)).collect();
        assert!(!backlog_grows(&flat));
        assert!(backlog_grows(&growing));
    }
}
