//! A phase-by-phase copy of `hls_flow::run_flow`, built only from the
//! library crates' public calls, with a span around each call.
//!
//! The copy must keep computing what `run_flow` computes: every traced
//! design is checked against `run_flow`'s `FlowReport` (final states,
//! wire delays, spills, registers) and the ratio of the two walls is
//! reported, so a later change to the flow that this copy misses shows
//! up as a mismatch or a drifting ratio.

use crate::trace::Tracer;
use hls_alloc::{left_edge, lifetimes, spill};
use hls_flow::{EcoBase, FlowConfig, FlowReport, Fsmd};
use hls_ir::{schedule as sched_check, OpId, OpKind, PrecedenceGraph};
use hls_phys::{annotate, place, Floorplan};
use threaded_sched::{refine, ThreadedScheduler};

/// How the copy schedules: the flow's single meta order, or the
/// portfolio race the service's first ladder rung runs.
pub enum Scheduling<'a> {
    Meta,
    Portfolio(&'a hls_search::PortfolioConfig),
}

/// What the copy produced, plus the structural counts the spans alone
/// do not carry.
pub struct Replica {
    pub final_states: u64,
    pub wire_delays: usize,
    pub spills: usize,
    pub registers: usize,
    pub spill_iters: usize,
    pub chains_built: usize,
    pub chains_final: usize,
    /// Portfolio runs, runs that aborted against the incumbent, and
    /// refinement rounds (zeros under [`Scheduling::Meta`]).
    pub race: (usize, usize, usize),
    /// Certified lower bound (portfolio scheduling only, else 0).
    pub lower_bound: u64,
    /// The finished design as the service caches it for ECOs.
    pub eco_base: EcoBase,
}

impl Replica {
    /// `Ok` when the copy agrees with `run_flow`'s report.
    pub fn matches(&self, report: &FlowReport) -> Result<(), String> {
        let mine = (
            self.final_states,
            self.wire_delays,
            self.spills,
            self.registers,
        );
        let theirs = (
            report.final_states,
            report.wire_delays,
            report.spills,
            report.registers,
        );
        if mine == theirs {
            Ok(())
        } else {
            Err(format!(
                "replica (states, wire delays, spills, registers) {mine:?} != run_flow {theirs:?}"
            ))
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the flow on an already parsed behavior; `id` tags the spans.
pub fn replica(
    graph: PrecedenceGraph,
    cfg: &FlowConfig,
    how: Scheduling<'_>,
    tr: &mut Tracer,
    id: u64,
) -> Result<Replica, String> {
    if graph.has_loop_edges() {
        return Err("behavior has loop edges".into());
    }
    let n = graph.len();
    let portfolio = matches!(how, Scheduling::Portfolio(_));

    // 1. Soft scheduling.
    let (mut ts, race) = match how {
        Scheduling::Meta => {
            let order = tr
                .span("hard.order", id, || cfg.meta.order(&graph, &cfg.resources))
                .map_err(err)?;
            let mut ts = tr
                .span("core.build", id, || {
                    ThreadedScheduler::new(graph, cfg.resources.clone())
                })
                .map_err(err)?;
            tr.span("core.schedule", id, || ts.schedule_all(order))
                .map_err(err)?;
            (ts, (0, 0, 0))
        }
        Scheduling::Portfolio(pcfg) => {
            let out = tr
                .span("search.race", id, || {
                    hls_search::run_portfolio(&graph, &cfg.resources, pcfg)
                })
                .map_err(err)?;
            let aborted = out
                .runs
                .iter()
                .filter(|r| r.diameter.is_none() && r.poisoned.is_none() && !r.timed_out)
                .count();
            (out.winner, (out.runs.len(), aborted, out.refine_rounds))
        }
    };
    let chains_built = ts.reach_index().chain_count();

    // 2. Register allocation with spilling, absorbed softly.
    let spill_span = tr.begin("alloc.spill", id);
    let mut spills = 0usize;
    let mut spill_iters = 0usize;
    if let Some(budget) = cfg.register_budget {
        let max_spills = ts.graph().len();
        let mut best_pressure = usize::MAX;
        let mut stalled = 0usize;
        while spills < max_spills {
            spill_iters += 1;
            let hard = tr.span("core.extract", id, || ts.extract_hard());
            let ls = tr
                .span("alloc.regalloc", id, || {
                    lifetimes::lifetimes(ts.graph(), &hard)
                })
                .map_err(err)?;
            let pressure = tr
                .span("alloc.regalloc", id, || left_edge::allocate(&ls))
                .register_count();
            if pressure <= budget {
                break;
            }
            if pressure < best_pressure {
                best_pressure = pressure;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 3 {
                    break;
                }
            }
            let Some(decision) = tr.span("alloc.pick", id, || spill::pick_spill(ts.graph(), &ls))
            else {
                break;
            };
            tr.span("core.splice", id, || {
                refine::insert_spill(&mut ts, decision.producer, decision.consumer)
            })
            .map_err(err)?;
            spills += 1;
        }
    }
    tr.end(spill_span);

    // 3. φ resolution: same-register sources vanish, others become moves.
    let phi_span = tr.begin("flow.phi", id);
    let hard = tr.span("core.extract", id, || ts.extract_hard());
    let ls = tr
        .span("alloc.regalloc", id, || {
            lifetimes::lifetimes(ts.graph(), &hard)
        })
        .map_err(err)?;
    let regs = tr.span("alloc.regalloc", id, || left_edge::allocate(&ls));
    let phi_ops: Vec<OpId> = ts
        .graph()
        .op_ids()
        .filter(|&v| ts.graph().kind(v) == OpKind::Phi)
        .collect();
    for phi in phi_ops {
        let regs_of: Vec<Option<usize>> = ts
            .graph()
            .preds(phi)
            .iter()
            .map(|&p| regs.register_of(p))
            .collect();
        let all_same = regs_of.len() >= 2
            && regs_of.iter().skip(1).all(|r| *r == regs_of[1])
            && regs_of[1].is_some();
        if all_same {
            ts.retype_op(phi, OpKind::Nop, 0);
        } else {
            ts.retype_op(phi, OpKind::Move, cfg.delays.delay_of(OpKind::Move));
        }
    }
    tr.end(phi_span);

    // 4–5. Place, annotate, absorb wire delays.
    let place_span = tr.begin("phys.place", id);
    let hard = tr.span("core.extract", id, || ts.extract_hard());
    let start_fp = Floorplan::row_major(cfg.resources.k(), cfg.grid.0, cfg.grid.1);
    let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &cfg.resources);
    let floorplan = place(&start_fp, &matrix, &cfg.place);
    std::hint::black_box(floorplan.wirelength(&matrix));
    tr.end(place_span);
    let transfers = tr.span("phys.annotate", id, || {
        annotate(ts.graph(), &hard, &floorplan, cfg.wire_model)
    });
    let wire_delays = transfers.len();
    let absorb_span = tr.begin("flow.absorb", id);
    for t in transfers {
        tr.span("core.splice", id, || {
            refine::insert_wire_delay(&mut ts, t.from, t.to, t.cycles)
        })
        .map_err(err)?;
    }
    tr.end(absorb_span);
    let chains_final = ts.reach_index().chain_count();

    // 6. Extract, validate, build the FSMD.
    let schedule = tr.span("core.extract", id, || ts.extract_hard());
    tr.span("ir.validate", id, || {
        sched_check::validate(ts.graph(), &cfg.resources, &schedule)
    })
    .map_err(err)?;
    let final_states = ts.diameter();
    let ls = tr
        .span("alloc.regalloc", id, || {
            lifetimes::lifetimes(ts.graph(), &schedule)
        })
        .map_err(err)?;
    let registers = tr.span("alloc.regalloc", id, || left_edge::allocate(&ls));
    let fsmd = tr.span("flow.fsmd", id, || {
        Fsmd::build(ts.graph(), &schedule, &registers, &cfg.resources)
    });
    if fsmd.states != final_states {
        return Err(format!(
            "FSMD has {} states, schedule {final_states}",
            fsmd.states
        ));
    }
    // The service's ladder answers with the certified bound next to
    // the states; the plain flow does not compute it.
    let lower_bound = if portfolio {
        tr.span("core.bound", id, || ts.schedule_lower_bound())
    } else {
        0
    };

    Ok(Replica {
        final_states,
        wire_delays,
        spills,
        registers: registers.register_count(),
        spill_iters,
        chains_built,
        chains_final,
        race,
        lower_bound,
        eco_base: EcoBase {
            scheduler: ts,
            map: (0..n).map(OpId::from_index).collect(),
            floorplan,
        },
    })
}
