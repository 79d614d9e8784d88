//! The flow workloads: one client compiling designs back to back
//! (closed loop) through `hls_flow::run_flow_dfg`.
//!
//! * `flow-cold` — 200 stress DAGs of 100–500 operations under the
//!   default flow configuration; every other one with a 16-register
//!   budget. Wire-delay absorption dominates.
//! * `flow-large` — five stress DAGs of 20k operations with a wire
//!   model whose reach covers the whole default grid, so nothing is
//!   absorbed and the rest of the flow shows.

use crate::corpus::{self, Design};
use crate::layers::{self, DesignCounts, ServeLayer};
use crate::replica::{replica, Scheduling};
use crate::stats::{median, peak_mem_mb, tail};
use crate::trace::Tracer;
use crate::Outcome;
use hls_flow::{eco_flow, run_flow_dfg, EcoBase, FlowConfig, FlowOutcome};
use hls_ir::{canon, textfmt, Budget, PrecedenceGraph};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Size of the warm-up design compiled during set-up.
const WARMUP_OPS: usize = 200;

fn config(large: bool, d: &Design) -> FlowConfig {
    FlowConfig {
        register_budget: d.register_budget,
        wire_model: if large {
            hls_phys::WireModel::new(3)
        } else {
            FlowConfig::default().wire_model
        },
        ..FlowConfig::default()
    }
}

/// Generates the corpus and warms the flow up, `SETUP_REPEATS` times.
fn setup(seed: u64, large: bool) -> Result<(Vec<Design>, f64), String> {
    let mut times = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        corpus = corpus::flow_corpus(seed, large);
        let warm = corpus::behavior(corpus::mix(seed, 2), WARMUP_OPS);
        run_flow_dfg(&textfmt::to_text(&warm), &FlowConfig::default())
            .map_err(|e| format!("warm-up flow failed: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((corpus, median(&times)))
}

/// Output oracle, independent of the compiler: the scheduled,
/// register-allocated datapath of design `id` must compute what the
/// submitted `behavior` computes, value for value.
pub fn check_datapath(
    id: u64,
    behavior: &PrecedenceGraph,
    out: &FlowOutcome,
) -> Result<(), String> {
    let inputs = hls_flow::synth_inputs(behavior, id as i64 + 1);
    let want = hls_flow::eval_dfg(behavior, &inputs).map_err(|e| e.to_string())?;
    let got = hls_flow::simulate_datapath(
        out.scheduler.graph(),
        &out.schedule,
        &out.registers,
        &inputs,
    )
    .map_err(|e| format!("design {id}: datapath simulation failed: {e}"))?;
    for (op, v) in &want {
        if got.get(op) != Some(v) {
            return Err(format!(
                "design {id}: op {op} computes {:?}, behavior says {v}",
                got.get(op)
            ));
        }
    }
    if out.fsmd.states != out.report.final_states {
        return Err(format!("design {id}: FSMD states differ from the report"));
    }
    Ok(())
}

/// What a repeated compile of the same design must reproduce.
fn fingerprint(out: &FlowOutcome) -> (hls_flow::FlowReport, u64) {
    let mut h = crate::stats::Fnv::new();
    for v in out.scheduler.graph().op_ids() {
        h.write(&out.schedule.start(v).unwrap_or(u64::MAX).to_le_bytes());
        h.write(&(out.schedule.unit(v).map_or(u64::MAX, |u| u as u64)).to_le_bytes());
    }
    (out.report.clone(), h.finish())
}

/// The in-process cost of answering an exact resubmission the way the
/// service does: parse, hash, confirm equality with the stored graph.
fn resubmit(d: &Design) -> Result<(), String> {
    let g = textfmt::from_text(&d.text).map_err(|e| e.to_string())?;
    if canon::graph_hash(&g) != d.hash || !canon::canon_eq(&g, &d.graph) {
        return Err(format!("design {}: resubmission does not match", d.id));
    }
    Ok(())
}

/// The ECO of a design onto its compiled outcome; its states must stay
/// at or above the certified bound.
fn eco(d: &Design, out: &FlowOutcome, cfg: &FlowConfig) -> Result<(), String> {
    let base = EcoBase::of_outcome(d.ops, out);
    let (eco_out, _) =
        eco_flow(base, &d.eco_graph, cfg, &Budget::NONE).map_err(|e| e.to_string())?;
    let lb = eco_out.scheduler.schedule_lower_bound();
    if eco_out.report.final_states < lb {
        return Err(format!("design {}: ECO states below the bound", d.id));
    }
    Ok(())
}

/// The timed run: whole passes over the corpus until `seconds` of
/// compile time are measured.
pub fn timed(seed: u64, seconds: f64, large: bool) -> Result<Outcome, String> {
    let (corpus, setup_s) = setup(seed, large)?;
    let mut o = Outcome::new(corpus::corpus_hash(&corpus));
    let mut lat = Vec::new();
    let mut hit_ms = Vec::new();
    let mut eco_ms = Vec::new();
    let mut busy = 0.0;
    let mut ops_done = 0usize;
    let mut first: Vec<Option<(hls_flow::FlowReport, u64)>> = vec![None; corpus.len()];
    let (mut states_total, mut registers_total) = (0u64, 0usize);
    while busy < seconds {
        for (i, d) in corpus.iter().enumerate() {
            let cfg = config(large, d);
            o.attempted += 1;
            let t = Instant::now();
            let res = run_flow_dfg(&d.text, &cfg);
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    o.fail(format!("design {}: flow failed: {e}", d.id));
                    continue;
                }
            };
            lat.push(dt * 1e3);
            ops_done += d.ops;

            // Checks, outside the measured compile time.
            let fp = fingerprint(&out);
            match &first[i] {
                None => {
                    if let Err(e) = check_datapath(d.id, &d.graph, &out) {
                        o.fail(e);
                    }
                    states_total += out.report.final_states;
                    registers_total += out.report.registers;
                    first[i] = Some(fp);
                }
                Some(f) if *f != fp => {
                    o.fail(format!("design {}: recompile gave another design", d.id));
                }
                Some(_) => {}
            }
            let t = Instant::now();
            let r = resubmit(d);
            hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = r {
                o.fail(e);
            }
            let t = Instant::now();
            let r = eco(d, &out, &cfg);
            eco_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = r {
                o.fail(e);
            }
        }
    }

    let ok = lat.len() as f64;
    let m = &mut o.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("ops_per_s", ops_done as f64 / busy, "1/s");
    m.push("requests_per_s", ok / busy, "1/s");
    // A closed loop offers exactly what it sustains.
    m.push("max_ok_rps", ok / busy, "1/s");
    m.push("ok_frac", ok / o.attempted as f64, "ratio");
    // Every design ran the full flow; there is no ladder to descend.
    m.push("full_rung_frac", if ok > 0.0 { 1.0 } else { 0.0 }, "ratio");
    m.push("states_total", states_total as f64, "count");
    m.push("registers_total", registers_total as f64, "count");
    m.push("peak_mem_mb", peak_mem_mb(), "MiB");
    o.info.push("latency_ms_p50", median(&lat), "ms");
    o.info.push("latency_ms_p90", tail(&lat, 90.0).0, "ms");
    o.info.push("latency_ms_p99", tail(&lat, 99.0).0, "ms");
    o.info.push("hit_ms_p50", median(&hit_ms), "ms");
    o.info.push("eco_ms_p50", median(&eco_ms), "ms");
    o.samples = lat;
    Ok(o)
}

/// The traced run: designs through `run_flow_dfg`, then through the
/// phase-by-phase copy untraced and traced. The cold corpus is halved
/// (pairs of neighbouring sizes, so budgeted and unbudgeted designs stay
/// balanced) to keep the three compiles per design within a run's time.
pub fn traced(seed: u64, large: bool, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let (corpus, _) = setup(seed, large)?;
    let mut o = Outcome::new(corpus::corpus_hash(&corpus));
    let mut tr = Tracer::new(true);
    let mut counts = Vec::new();
    let (mut flow_s, mut plain_s, mut traced_s) = (0.0, 0.0, 0.0);
    let mut sorted: Vec<&Design> = corpus
        .iter()
        .filter(|d| large || (d.id / 2) % 2 == 0)
        .collect();
    sorted.sort_by_key(|d| d.id);
    for (i, d) in sorted.into_iter().enumerate() {
        let cfg = config(large, d);
        o.attempted += 1;
        // The three compiles of a design alternate their order, so
        // warm caches favour none of the walls compared below.
        let (mut out, mut plain, mut rep) = (None, None, None);
        let order = if i % 2 == 0 { [0, 1, 2] } else { [2, 1, 0] };
        for step in order {
            let t = Instant::now();
            match step {
                0 => {
                    out = Some(run_flow_dfg(&d.text, &cfg));
                    flow_s += t.elapsed().as_secs_f64();
                }
                1 => {
                    plain = Some(
                        textfmt::from_text(&d.text)
                            .map_err(|e| e.to_string())
                            .and_then(|g| {
                                replica(g, &cfg, Scheduling::Meta, &mut Tracer::new(false), d.id)
                            }),
                    );
                    plain_s += t.elapsed().as_secs_f64();
                }
                _ => {
                    let root = tr.begin("flow.replica", d.id);
                    rep = Some(
                        tr.span("ir.parse", d.id, || textfmt::from_text(&d.text))
                            .map_err(|e| e.to_string())
                            .and_then(|g| replica(g, &cfg, Scheduling::Meta, &mut tr, d.id)),
                    );
                    tr.end(root);
                    traced_s += t.elapsed().as_secs_f64();
                }
            }
        }
        let (Some(out), Some(plain), Some(rep)) = (out, plain, rep) else {
            unreachable!("every step ran");
        };
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                o.fail(format!("design {}: flow failed: {e}", d.id));
                continue;
            }
        };
        if let Err(e) = check_datapath(d.id, &d.graph, &out) {
            o.fail(e);
        }

        match (plain, rep) {
            (Ok(plain), Ok(rep)) => {
                for r in [&plain, &rep] {
                    if let Err(e) = r.matches(&out.report) {
                        o.fail(format!("design {}: {e}", d.id));
                    }
                }
                tr.span("ir.hash", d.id, || canon::graph_hash(&d.graph));
                let eco = tr.span("flow.eco", d.id, || {
                    eco_flow(rep.eco_base.clone(), &d.eco_graph, &cfg, &Budget::NONE)
                });
                if let Err(e) = eco {
                    o.fail(format!("design {}: ECO failed: {e}", d.id));
                }
                counts.push(DesignCounts::of(d.id, d.ops, &rep));
            }
            (Err(e), _) | (_, Err(e)) => o.fail(format!("design {}: replica failed: {e}", d.id)),
        }
    }

    let m = &mut o.metrics;
    layers::span_metrics(m, &tr, &counts, "flow.replica");
    ServeLayer::NONE.push(m);
    m.push("trace.overhead_ratio", traced_s / plain_s, "ratio");
    m.push("flow.replica_ratio", plain_s / flow_s, "ratio");
    o.write_trace(&tr, trace_path);
    Ok(o)
}
