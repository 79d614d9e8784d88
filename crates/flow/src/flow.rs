//! The flow driver.

use hls_alloc::{left_edge, lifetimes, spill, RegAllocation};
use hls_ir::{
    schedule as sched_check, DelayModel, HardSchedule, OpKind, PrecedenceGraph, ResourceClass,
    ResourceSet,
};
use hls_phys::{annotate, place, Floorplan, PlaceConfig, WireModel};
use threaded_sched::{meta::MetaSchedule, refine, SchedError, ThreadedScheduler};

use std::error::Error;
use std::fmt;

/// Configuration of the end-to-end flow.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Functional-unit allocation. A memory port is required if spilling
    /// can occur (register budget set).
    pub resources: ResourceSet,
    /// Register-file size; `None` disables spilling.
    pub register_budget: Option<usize>,
    /// Operation feed order for the soft scheduler. Ignored when
    /// [`FlowConfig::portfolio`] is set.
    pub meta: MetaSchedule,
    /// When set, scheduling runs the parallel portfolio + feedback
    /// refinement ([`hls_search::run_portfolio`]) instead of the
    /// single `meta` order, and the flow proceeds from the portfolio
    /// winner's state. The result is deterministic for a fixed
    /// configuration regardless of the portfolio's thread count.
    pub portfolio: Option<hls_search::PortfolioConfig>,
    /// When set, the behavior is treated as a *loop kernel*: the
    /// modulo portfolio ([`hls_search::run_modulo_portfolio`]) derives
    /// a loop-pipelined schedule first — achieved II, certified MII
    /// and fill latency land in [`FlowReport::pipeline`], the winning
    /// [`hls_ir::ModuloSchedule`] in [`FlowOutcome::modulo`] — and the
    /// rest of the flow (registers, placement, FSMD) proceeds on the
    /// one-iteration [`kernel DAG`](PrecedenceGraph::kernel_dag).
    /// Behaviors without loop-carried edges are legal too (the kernel
    /// DAG is then the behavior itself and the II is purely
    /// resource-bound). `None` keeps the acyclic-only flow: a graph
    /// carrying loop edges is rejected with
    /// [`FlowError::NeedsPipeline`] (the acyclic scheduler would
    /// silently misread inter-iteration dependencies as
    /// same-iteration ones).
    pub pipeline: Option<hls_search::PipelineConfig>,
    /// When set, the initial soft schedule of a *large* behavior is
    /// built by the partition-parallel engine
    /// ([`threaded_sched::ParallelScheduler`]): balanced min-cut
    /// partition, per-block scheduling on worker threads, seam stitch,
    /// then materialisation back into a live [`ThreadedScheduler`] so
    /// every downstream phase (spilling, φ resolution, wire-delay
    /// absorption, ECO) works unchanged. The seat adopts
    /// [`FlowConfig::meta`] as its block meta order, and behaviors at
    /// or below the config's `sequential_cutoff` take the flow's
    /// ordinary sequential branch (budget included) — small flows are
    /// bit-identical with or without this seat. Ignored when
    /// [`FlowConfig::portfolio`] or [`FlowConfig::pipeline`] is set
    /// (those seats own scheduling), and not threaded through the
    /// degradation ladder. The flow budget is not enforced inside the
    /// partitioned run — this seat *is* the fast path for graphs big
    /// enough to need a budget.
    pub parallel: Option<threaded_sched::parallel::ParallelConfig>,
    /// Floorplan grid (width, height); must fit `resources.k()` cells.
    pub grid: (usize, usize),
    /// Interconnect delay model.
    pub wire_model: WireModel,
    /// Placement annealing parameters.
    pub place: PlaceConfig,
    /// Delay model (for φ-resolution move delay).
    pub delays: DelayModel,
    /// Budget of the scheduling phases (the portfolio race, the modulo
    /// portfolio, or the single-meta run). Combined pointwise
    /// ([`hls_ir::Budget::tighter`]) with any budget already carried
    /// by the portfolio/pipeline seats. An expired budget surfaces as
    /// [`FlowError::Timeout`]; [`crate::run_flow_degraded`] instead
    /// walks the degradation ladder. The default is unlimited.
    pub budget: hls_ir::Budget,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            resources: ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1),
            register_budget: None,
            meta: MetaSchedule::ListBased,
            portfolio: None,
            pipeline: None,
            parallel: None,
            grid: (2, 2),
            wire_model: WireModel::default(),
            place: PlaceConfig::default(),
            delays: DelayModel::classic(),
            budget: hls_ir::Budget::NONE,
        }
    }
}

/// Loop-pipelining quantities reported when [`FlowConfig::pipeline`]
/// is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineReport {
    /// Achieved initiation interval (steady-state steps per
    /// iteration).
    pub ii: u64,
    /// The certified lower bound `max(ResMII, RecMII)`; `ii == mii`
    /// is provably throughput-optimal.
    pub mii: u64,
    /// Single-iteration latency (pipeline fill depth).
    pub latency: u64,
}

/// Quantities reported by the flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowReport {
    /// Loop-pipelining results, when the pipeline seat was configured.
    pub pipeline: Option<PipelineReport>,
    /// Diameter right after soft scheduling.
    pub initial_states: u64,
    /// Spills absorbed.
    pub spills: usize,
    /// φ operations resolved to moves.
    pub phis_to_moves: usize,
    /// φ operations resolved to nothing (same register both sides).
    pub phis_voided: usize,
    /// Wire-delay vertices absorbed after placement.
    pub wire_delays: usize,
    /// Final schedule length (control states).
    pub final_states: u64,
    /// Registers used by the final allocation.
    pub registers: usize,
    /// Total traffic-weighted wirelength of the placement.
    pub wirelength: u64,
    /// The degradation-ladder rung that produced this answer
    /// ([`crate::DegradeRung::name`]), or `None` when the flow ran
    /// directly (no ladder involved). Clients use this to see *why*
    /// they got a degraded answer.
    pub rung: Option<&'static str>,
}

/// Everything the flow produces.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// The winning loop-pipelined schedule of the original kernel,
    /// when [`FlowConfig::pipeline`] was set (it validates under
    /// `hls_ir::schedule::check_modulo` against the input behavior).
    pub modulo: Option<hls_ir::ModuloSchedule>,
    /// The soft scheduler holding the final refined state (and the
    /// refined behavior graph). [`eco_flow`] extends this state
    /// directly when the design is resubmitted with a delta.
    pub scheduler: ThreadedScheduler,
    /// The extracted, validated hard schedule.
    pub schedule: HardSchedule,
    /// Final register allocation.
    pub registers: RegAllocation,
    /// The annealed floorplan.
    pub floorplan: Floorplan,
    /// The controller/datapath model.
    pub fsmd: crate::Fsmd,
    /// Headline numbers.
    pub report: FlowReport,
}

/// Errors of the end-to-end flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlowError {
    /// The behavior carries loop-carried (positive-distance) edges
    /// but [`FlowConfig::pipeline`] is not set — the acyclic flow
    /// would drop the inter-iteration semantics.
    NeedsPipeline,
    /// The front end rejected the source.
    Lang(hls_lang::LangError),
    /// The scheduler failed.
    Sched(SchedError),
    /// The extracted schedule failed validation (internal bug guard).
    Invalid(String),
    /// Lifetime extraction failed (internal bug guard).
    Lifetime(String),
    /// The [`FlowConfig::budget`] expired before a schedule was
    /// produced. [`crate::run_flow_degraded`] turns this into a
    /// descent down the degradation ladder instead.
    Timeout,
    /// A scheduling phase panicked; the panic was contained at the
    /// flow boundary and the message preserved. No panic crosses the
    /// public API.
    Poisoned(String),
    /// The textual DFG input did not parse ([`crate::run_flow_dfg`]).
    Malformed(String),
    /// An input exceeded a structural capacity limit (e.g. the
    /// reachability index's vertex budget).
    ResourceExhausted(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NeedsPipeline => write!(
                f,
                "behavior has loop-carried edges; set FlowConfig::pipeline to schedule it"
            ),
            FlowError::Lang(e) => write!(f, "front end: {e}"),
            FlowError::Sched(e) => write!(f, "scheduler: {e}"),
            FlowError::Invalid(msg) => write!(f, "invalid extracted schedule: {msg}"),
            FlowError::Lifetime(msg) => write!(f, "lifetime extraction: {msg}"),
            FlowError::Timeout => write!(f, "flow budget expired before a schedule was produced"),
            FlowError::Poisoned(msg) => write!(f, "scheduling phase panicked: {msg}"),
            FlowError::Malformed(msg) => write!(f, "malformed DFG input: {msg}"),
            FlowError::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
        }
    }
}

impl Error for FlowError {}

impl From<hls_lang::LangError> for FlowError {
    fn from(e: hls_lang::LangError) -> Self {
        FlowError::Lang(e)
    }
}

impl From<SchedError> for FlowError {
    fn from(e: SchedError) -> Self {
        match e {
            SchedError::Timeout => FlowError::Timeout,
            SchedError::Poisoned(msg) => FlowError::Poisoned(msg),
            SchedError::ResourceExhausted(msg) => FlowError::ResourceExhausted(msg),
            other => FlowError::Sched(other),
        }
    }
}

/// Compiles behavioral source and runs the full flow.
///
/// # Errors
///
/// Any [`FlowError`].
pub fn run_flow_source(source: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let compiled = hls_lang::compile(source, &config.delays)?;
    run_flow(compiled.graph, config)
}

/// Parses a textual DFG ([`hls_ir::textfmt`]) and runs the full flow.
///
/// # Errors
///
/// [`FlowError::Malformed`] when the text does not parse (carrying
/// the parser's line/column diagnostic); otherwise any [`FlowError`].
pub fn run_flow_dfg(text: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let graph =
        hls_ir::textfmt::from_text(text).map_err(|e| FlowError::Malformed(e.to_string()))?;
    run_flow(graph, config)
}

/// Runs the full flow on an already-built behavior graph.
///
/// No panic crosses this boundary: anything unwinding out of a flow
/// phase is caught and returned as [`FlowError::Poisoned`].
///
/// # Errors
///
/// Any [`FlowError`].
pub fn run_flow(graph: PrecedenceGraph, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_flow_inner(graph, config)))
        .unwrap_or_else(|payload| {
            Err(FlowError::Poisoned(hls_ir::panic_message(
                payload.as_ref(),
            )))
        })
}

/// A finished design an ECO resubmission can extend incrementally:
/// the post-flow scheduler state, the id map from the graph *as
/// submitted* to that state, and the placement to reuse. The serve
/// layer's schedule cache stores one of these per entry.
#[derive(Clone, Debug)]
pub struct EcoBase {
    /// The post-flow scheduler (spills, φ rewrites and wire delays
    /// already absorbed).
    pub scheduler: ThreadedScheduler,
    /// Submitted-graph op index → op id in `scheduler`'s behavior.
    /// For a cold outcome this is the identity over the submitted
    /// graph; each [`eco_flow`] extends it with the delta ids.
    pub map: Vec<hls_ir::OpId>,
    /// The annealed floorplan of the base design. The delta rides on
    /// it — placement does not rerun.
    pub floorplan: Floorplan,
}

impl EcoBase {
    /// The base for a cold outcome of `submitted`: identity map onto
    /// the outcome's scheduler and floorplan.
    pub fn of_outcome(submitted_ops: usize, out: &FlowOutcome) -> EcoBase {
        EcoBase {
            scheduler: out.scheduler.clone(),
            map: (0..submitted_ops).map(hls_ir::OpId::from_index).collect(),
            floorplan: out.floorplan.clone(),
        }
    }
}

/// Absorbs an ECO delta into a finished design: `target` (the graph
/// as resubmitted) must extend the base graph behind `base` — the
/// caller checks [`PrecedenceGraph::extends`]; this function trusts
/// `base.map`. The delta cone is scheduled incrementally onto the
/// cached post-flow state
/// ([`ThreadedScheduler::refine_graft`](threaded_sched::ThreadedScheduler::refine_graft)),
/// wire delays are annotated for the *new* edges only against the
/// cached floorplan, and the design is re-extracted, re-validated and
/// re-built. Nothing already absorbed — spills, φ rewrites, the
/// existing wire delays, the placement — is recomputed; that is what
/// makes resubmission fast.
///
/// Returns the new outcome plus the extended [`EcoBase`] for
/// re-caching under the resubmitted graph's hash. Like [`run_flow`],
/// no panic crosses this boundary.
///
/// # Errors
///
/// [`FlowError::Sched`] with
/// [`SchedError::NotAnExtension`] when the delta cannot ride the
/// cached state (loop edges, or delta ops of kind `Phi`, which need
/// the flow's register-aware resolution); [`FlowError::Timeout`] on
/// budget expiry; otherwise the errors of the finishing phases.
/// Callers fall back to the cold flow on non-timeout errors.
pub fn eco_flow(
    base: EcoBase,
    target: &PrecedenceGraph,
    config: &FlowConfig,
    budget: &hls_ir::Budget,
) -> Result<(FlowOutcome, EcoBase), FlowError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eco_flow_inner(base, target, config, budget)
    }))
    .unwrap_or_else(|payload| {
        Err(FlowError::Poisoned(hls_ir::panic_message(
            payload.as_ref(),
        )))
    })
}

fn eco_flow_inner(
    mut base: EcoBase,
    target: &PrecedenceGraph,
    config: &FlowConfig,
    budget: &hls_ir::Budget,
) -> Result<(FlowOutcome, EcoBase), FlowError> {
    let _span = hls_obs::obs_span!(EcoGraft, "", target.len() as u64);
    hls_obs::obs_count!(EcoGrafts);
    // Delta φs would need register allocation to resolve; that is the
    // cold flow's job, not the delta path's.
    for i in base.map.len()..target.len() {
        if target.kind(hls_ir::OpId::from_index(i)) == OpKind::Phi {
            return Err(FlowError::Sched(SchedError::NotAnExtension));
        }
    }

    let mut ts = base.scheduler;
    let initial_states = ts.diameter();
    let before_len = ts.graph().len();
    let added = ts
        .refine_graft(target, &mut base.map, budget)
        .map_err(|e| match e {
            SchedError::Timeout => FlowError::Timeout,
            other => FlowError::Sched(other),
        })?;

    // Wire delays for the delta only: edges between pre-existing ops
    // already carry theirs (as absorbed delay vertices), so only
    // transfers touching a grafted op are new.
    let hard = ts.extract_hard();
    let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &config.resources);
    let transfers = annotate(ts.graph(), &hard, &base.floorplan, config.wire_model);
    let mut wire_delays = 0usize;
    for t in transfers {
        if t.from.index() < before_len && t.to.index() < before_len {
            continue;
        }
        if budget.expired((added.len() + wire_delays) as u64) {
            return Err(FlowError::Timeout);
        }
        refine::insert_wire_delay(&mut ts, t.from, t.to, t.cycles)?;
        wire_delays += 1;
    }
    let wirelength = base.floorplan.wirelength(&matrix);

    // Extract, validate, build — identical to the cold flow's step 6.
    let schedule = ts.extract_hard();
    sched_check::validate(ts.graph(), &config.resources, &schedule)
        .map_err(|e| FlowError::Invalid(e.to_string()))?;
    let final_states = ts.diameter();
    let ls = lifetimes::lifetimes(ts.graph(), &schedule)
        .map_err(|e| FlowError::Lifetime(e.to_string()))?;
    let registers = left_edge::allocate(&ls);
    let fsmd = crate::Fsmd::build(ts.graph(), &schedule, &registers, &config.resources);

    let report = FlowReport {
        pipeline: None,
        initial_states,
        spills: 0,
        phis_to_moves: 0,
        phis_voided: 0,
        wire_delays,
        final_states,
        registers: registers.register_count(),
        wirelength,
        rung: None,
    };
    let next_base = EcoBase {
        scheduler: ts.clone(),
        map: base.map,
        floorplan: base.floorplan.clone(),
    };
    let outcome = FlowOutcome {
        modulo: None,
        scheduler: ts,
        schedule,
        registers,
        floorplan: base.floorplan,
        fsmd,
        report,
    };
    Ok((outcome, next_base))
}

fn run_flow_inner(graph: PrecedenceGraph, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    // 0. Loop pipelining: modulo-schedule the kernel (acyclic
    // behaviors are kernels without recurrences), then hand the
    // one-iteration kernel DAG to the rest of the flow. Without the
    // pipeline seat, a graph with loop edges fails scheduling
    // validation below, exactly as before.
    let mut pipeline = None;
    let mut modulo = None;
    let graph = match &config.pipeline {
        Some(pcfg) => {
            let pcfg = hls_search::PipelineConfig {
                budget: pcfg.budget.tighter(&config.budget),
                ..pcfg.clone()
            };
            let out = hls_search::run_modulo_portfolio(&graph, &config.resources, &pcfg)?;
            pipeline = Some(PipelineReport {
                ii: out.ii,
                mii: out.mii,
                latency: out.latency,
            });
            modulo = Some(out.schedule);
            graph.kernel_dag()
        }
        None => {
            if graph.has_loop_edges() {
                return Err(FlowError::NeedsPipeline);
            }
            graph
        }
    };

    // 1. Soft scheduling — a single meta order, the parallel
    // portfolio + feedback refinement, or (for large behaviors) the
    // partition-parallel engine materialised back into a live state.
    // The meta/portfolio paths honour the flow budget and stop within
    // one commit of expiry; the partitioned path is the fast path and
    // runs unbudgeted (see [`FlowConfig::parallel`]).
    let _sched_span = hls_obs::obs_span!(FlowSchedule, "", graph.len() as u64);
    let ts = match (&config.portfolio, &config.parallel) {
        (Some(pcfg), _) => {
            let pcfg = hls_search::PortfolioConfig {
                budget: pcfg.budget.tighter(&config.budget),
                ..pcfg.clone()
            };
            hls_search::run_portfolio(&graph, &config.resources, &pcfg)?.winner
        }
        (None, Some(par)) if pipeline.is_none() && graph.len() > par.sequential_cutoff => {
            // The seat adopts the flow's meta order so the
            // below-cutoff path is bit-identical to the plain flow.
            let par = threaded_sched::ParallelConfig { meta: config.meta, ..par.clone() };
            let ps =
                threaded_sched::ParallelScheduler::new(graph, config.resources.clone(), par)?;
            let run = ps.run()?;
            ps.materialize(&run)?
        }
        _ => {
            let order = config.meta.order(&graph, &config.resources)?;
            let mut ts = ThreadedScheduler::new(graph, config.resources.clone())?;
            match ts.schedule_all_budgeted(order, &config.budget, |_| false)? {
                threaded_sched::RunOutcome::DeadlineExpired { .. } => {
                    return Err(FlowError::Timeout)
                }
                _ => ts,
            }
        }
    };
    drop(_sched_span);
    finish_flow(ts, pipeline, modulo, config)
}

/// The post-scheduling phases (spilling, φ resolution, placement,
/// extraction, FSMD) — shared by [`run_flow`] and the degradation
/// ladder, which swaps only the scheduling rung.
pub(crate) fn finish_flow(
    mut ts: ThreadedScheduler,
    pipeline: Option<PipelineReport>,
    modulo: Option<hls_ir::ModuloSchedule>,
    config: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    let initial_states = ts.diameter();

    // 2. Register allocation with spilling, absorbed softly. Spilling
    // stops at the budget, on stall (pressure no longer dropping — the
    // remaining pressure is inherent), or at a hard bound.
    let spill_span = hls_obs::obs_span!(FlowSpill);
    let mut spills = 0usize;
    if let Some(budget) = config.register_budget {
        let max_spills = ts.graph().len();
        let mut best_pressure = usize::MAX;
        let mut stalled = 0usize;
        while spills < max_spills {
            let hard = ts.extract_hard();
            let ls = lifetimes::lifetimes(ts.graph(), &hard)
                .map_err(|e| FlowError::Lifetime(e.to_string()))?;
            let pressure = left_edge::allocate(&ls).register_count();
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
            let Some(decision) = spill::pick_spill(ts.graph(), &ls) else {
                break;
            };
            refine::insert_spill(&mut ts, decision.producer, decision.consumer)?;
            spills += 1;
        }
    }

    drop(spill_span);

    // 3. φ resolution: same-register sources vanish, others become moves.
    let phi_span = hls_obs::obs_span!(FlowPhi);
    let hard = ts.extract_hard();
    let ls = lifetimes::lifetimes(ts.graph(), &hard)
        .map_err(|e| FlowError::Lifetime(e.to_string()))?;
    let regs = left_edge::allocate(&ls);
    let mut phis_to_moves = 0usize;
    let mut phis_voided = 0usize;
    let phi_ops: Vec<_> = ts
        .graph()
        .op_ids()
        .filter(|&v| ts.graph().kind(v) == OpKind::Phi)
        .collect();
    for phi in phi_ops {
        // Data sources are every predecessor that produces a value
        // (the condition also feeds the φ; it selects, it is not data —
        // but for register comparison only value sources matter).
        let srcs: Vec<_> = ts.graph().preds(phi).to_vec();
        let regs_of: Vec<Option<usize>> = srcs.iter().map(|&p| regs.register_of(p)).collect();
        let all_same = regs_of.len() >= 2
            && regs_of.iter().skip(1).all(|r| *r == regs_of[1])
            && regs_of[1].is_some();
        if all_same {
            ts.retype_op(phi, OpKind::Nop, 0);
            phis_voided += 1;
        } else {
            ts.retype_op(phi, OpKind::Move, config.delays.delay_of(OpKind::Move));
            phis_to_moves += 1;
        }
    }

    drop(phi_span);

    // 4–5. Binding is the thread assignment; place and absorb wire
    // delays.
    let place_span = hls_obs::obs_span!(FlowPlace);
    let hard = ts.extract_hard();
    let start_fp =
        Floorplan::row_major(config.resources.k(), config.grid.0, config.grid.1);
    let matrix = hls_phys::traffic_matrix(ts.graph(), &hard, &config.resources);
    let floorplan = place(&start_fp, &matrix, &config.place);
    let wirelength = floorplan.wirelength(&matrix);
    let transfers = annotate(ts.graph(), &hard, &floorplan, config.wire_model);
    let wire_delays = transfers.len();
    for t in transfers {
        refine::insert_wire_delay(&mut ts, t.from, t.to, t.cycles)?;
    }

    drop(place_span);

    // 6. Extract, validate, build the FSMD.
    let _extract_span = hls_obs::obs_span!(FlowExtract);
    let schedule = ts.extract_hard();
    sched_check::validate(ts.graph(), &config.resources, &schedule)
        .map_err(|e| FlowError::Invalid(e.to_string()))?;
    let final_states = ts.diameter();
    let ls = lifetimes::lifetimes(ts.graph(), &schedule)
        .map_err(|e| FlowError::Lifetime(e.to_string()))?;
    let registers = left_edge::allocate(&ls);
    let fsmd = crate::Fsmd::build(ts.graph(), &schedule, &registers, &config.resources);

    let report = FlowReport {
        pipeline,
        initial_states,
        spills,
        phis_to_moves,
        phis_voided,
        wire_delays,
        final_states,
        registers: registers.register_count(),
        wirelength,
        rung: None,
    };
    Ok(FlowOutcome {
        modulo,
        scheduler: ts,
        schedule,
        registers,
        floorplan,
        fsmd,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::bench_graphs;

    const HAL_SRC: &str = "
        input x, dx, u, y, a;
        output x1, y1, u1, c;
        t1 = 3 * x;  t2 = u * dx;  t3 = 3 * y;
        t4 = t1 * t2;
        t5 = t3 * dx;
        s1 = u - t4;
        u1 = s1 - t5;
        y1 = y + u * dx;
        x1 = x + dx;
        c = x1 < a;
    ";

    #[test]
    fn full_flow_from_source_produces_valid_hardware() {
        let out = run_flow_source(HAL_SRC, &FlowConfig::default()).unwrap();
        assert!(out.report.final_states >= out.report.initial_states);
        assert!(out.report.registers > 0);
        assert_eq!(out.fsmd.states, out.report.final_states);
        out.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn register_budget_triggers_spills() {
        let cfg = FlowConfig {
            register_budget: Some(1),
            ..FlowConfig::default()
        };
        let out = run_flow_source(HAL_SRC, &cfg).unwrap();
        assert!(out.report.spills > 0, "budget 1 must force spilling");
        // The spilled design still validates and fits the budget.
        assert!(out.report.registers <= 3, "pressure must drop near budget");
    }

    #[test]
    fn parallel_seat_is_identical_below_cutoff_and_valid_when_forced() {
        // Below the cutoff the parallel seat takes the sequential path
        // inside the parallel engine: the flow is bit-identical.
        let seq = run_flow(bench_graphs::ewf(), &FlowConfig::default()).unwrap();
        let cfg = FlowConfig {
            parallel: Some(threaded_sched::ParallelConfig::default()),
            ..FlowConfig::default()
        };
        let par = run_flow(bench_graphs::ewf(), &cfg).unwrap();
        assert_eq!(par.report, seq.report);

        // Forcing the partition path still yields a flow-worthy state:
        // every downstream phase ran and the outcome validates.
        let forced = FlowConfig {
            parallel: Some(threaded_sched::ParallelConfig {
                parts: 4,
                sequential_cutoff: 0,
                ..threaded_sched::ParallelConfig::default()
            }),
            ..FlowConfig::default()
        };
        let out = run_flow(bench_graphs::ewf(), &forced).unwrap();
        out.scheduler.check_invariants().unwrap();
        sched_check::validate(out.scheduler.graph(), &forced.resources, &out.schedule).unwrap();
        assert!(out.report.final_states >= out.report.initial_states);
    }

    /// The parallel-seat dispatch at *exactly* `sequential_cutoff`
    /// (ISSUE 9 satellite): the seat engages only for `len > cutoff`,
    /// so behaviors of `cutoff - 1` and exactly `cutoff` ops must be
    /// bit-identical to the plain flow — full report and hard
    /// schedule — while `cutoff + 1` partitions and still validates.
    /// (The 8191/8192/8193 sizes against the default 8192 cutoff are
    /// pinned engine-level in `threaded-sched`'s `parallel_golden`
    /// suite; the flow-level dispatch is cutoff-relative, tested here
    /// at a CI-sized cutoff.)
    #[test]
    fn parallel_seat_dispatch_at_exact_cutoff() {
        let cutoff = 60usize;
        for ops in [cutoff - 1, cutoff, cutoff + 1] {
            let g = hls_ir::generate::layered_dag(
                0x8192 ^ ops as u64,
                &hls_ir::generate::LayeredConfig { ops, ..Default::default() },
            );
            let seq = run_flow(g.clone(), &FlowConfig::default()).unwrap();
            let cfg = FlowConfig {
                parallel: Some(threaded_sched::ParallelConfig {
                    sequential_cutoff: cutoff,
                    ..threaded_sched::ParallelConfig::default()
                }),
                ..FlowConfig::default()
            };
            let par = run_flow(g, &cfg).unwrap();
            par.scheduler.check_invariants().unwrap();
            sched_check::validate(par.scheduler.graph(), &cfg.resources, &par.schedule)
                .unwrap();
            if ops <= cutoff {
                assert_eq!(par.report, seq.report, "{ops} ops: report diverged at the cutoff");
                for v in par.scheduler.graph().op_ids() {
                    assert_eq!(
                        par.schedule.start(v),
                        seq.schedule.start(v),
                        "{ops} ops: start of {v}"
                    );
                    assert_eq!(par.schedule.unit(v), seq.schedule.unit(v), "{ops} ops: unit of {v}");
                }
            } else {
                assert!(
                    par.report.final_states >= par.report.initial_states,
                    "{ops} ops: partitioned flow must still complete"
                );
            }
        }
    }

    #[test]
    fn tight_wire_model_inserts_wire_delays() {
        let cfg = FlowConfig {
            wire_model: WireModel::new(1),
            grid: (4, 1), // a strip stretches distances
            ..FlowConfig::default()
        };
        let out = run_flow(bench_graphs::ewf(), &cfg).unwrap();
        assert!(out.report.wire_delays > 0);
        assert!(out.report.final_states >= out.report.initial_states);
    }

    #[test]
    fn pipeline_seat_runs_the_cyclic_kernel_through_the_flow() {
        use hls_ir::schedule::check_modulo;
        let g = bench_graphs::mac_loop();
        let cfg = FlowConfig {
            resources: ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1),
            pipeline: Some(hls_search::PipelineConfig::default()),
            ..FlowConfig::default()
        };
        // Without the pipeline seat a loop-carrying behavior is
        // rejected — even an *acyclic* one like the FIR delay line,
        // whose inter-iteration edges the acyclic scheduler would
        // silently misread as same-iteration.
        let acyclic_only = FlowConfig {
            pipeline: None,
            ..cfg.clone()
        };
        assert_eq!(
            run_flow(g.clone(), &acyclic_only).unwrap_err(),
            FlowError::NeedsPipeline
        );
        assert_eq!(
            run_flow(bench_graphs::fir_loop(4), &acyclic_only).unwrap_err(),
            FlowError::NeedsPipeline
        );
        let out = run_flow(g.clone(), &cfg).unwrap();
        let p = out.report.pipeline.expect("pipeline seat reports");
        assert_eq!(p.ii, p.mii, "MAC pipelines at the certified bound");
        let ms = out.modulo.expect("modulo schedule kept");
        assert_eq!(check_modulo(&g, &cfg.resources, &ms), Ok(()));
        // Downstream hardware came from the one-iteration kernel DAG.
        assert_eq!(out.fsmd.microops.len(), out.scheduler.graph().len());
        out.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn pipeline_seat_accepts_acyclic_behaviors() {
        let cfg = FlowConfig {
            pipeline: Some(hls_search::PipelineConfig::default()),
            ..FlowConfig::default()
        };
        let out = run_flow_source(HAL_SRC, &cfg).unwrap();
        let p = out.report.pipeline.expect("reported");
        assert_eq!(p.mii, p.ii);
        assert!(p.latency >= p.ii || p.ii == 1);
    }

    #[test]
    fn phis_are_resolved_one_way_or_another() {
        let src = "
            input a, b; output o;
            if (a < b) { s = a + 1; } else { s = b + 2; }
            o = s * 3;
        ";
        let out = run_flow_source(src, &FlowConfig::default()).unwrap();
        assert_eq!(out.report.phis_to_moves + out.report.phis_voided, 1);
        // No Phi survives in the final behavior.
        assert!(out
            .scheduler
            .graph()
            .op_ids()
            .all(|v| out.scheduler.graph().kind(v) != OpKind::Phi));
    }

    #[test]
    fn portfolio_flow_matches_or_beats_the_single_meta_flow() {
        let single = run_flow(bench_graphs::ewf(), &FlowConfig::default()).unwrap();
        let cfg = FlowConfig {
            portfolio: Some(hls_search::PortfolioConfig {
                threads: 2,
                ..hls_search::PortfolioConfig::default()
            }),
            ..FlowConfig::default()
        };
        let port = run_flow(bench_graphs::ewf(), &cfg).unwrap();
        // The portfolio contains the single meta, so its soft schedule
        // cannot be longer; the rest of the flow still validates.
        assert!(port.report.initial_states <= single.report.initial_states);
        assert!(port.report.final_states >= port.report.initial_states);
        port.scheduler.check_invariants().unwrap();
    }

    #[test]
    fn front_end_errors_propagate() {
        let err = run_flow_source("output o;", &FlowConfig::default()).unwrap_err();
        assert!(matches!(err, FlowError::Lang(_)));
    }

    #[test]
    fn missing_units_propagate_as_sched_errors() {
        let cfg = FlowConfig {
            resources: ResourceSet::classic(2, 0), // no multiplier
            ..FlowConfig::default()
        };
        let err = run_flow(bench_graphs::hal(), &cfg).unwrap_err();
        assert!(matches!(err, FlowError::Sched(_)));
    }
}
