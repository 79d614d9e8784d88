//! The ECO delta path (`DESIGN.md` §10): [`eco_flow`] grafts a delta
//! onto a finished design and finishes it through the cold flow's own
//! tail.
//!
//! This file is its own integration-test binary on purpose: the
//! poisoned-graft case arms a process-global fault plan.

use hls_flow::{eco_flow, run_flow, EcoBase, FlowConfig, FlowError, FlowOutcome};
use hls_ir::faultinject::{arm, FaultPlan, RunScope};
use hls_ir::{bench_graphs, Budget, OpKind, PrecedenceGraph};
use hls_phys::WireModel;
use threaded_sched::SchedError;

/// A config that absorbs wire delays into the base design, so the
/// post-flow state's ids diverge from the graph as submitted.
fn config() -> FlowConfig {
    FlowConfig {
        wire_model: WireModel::new(1),
        grid: (4, 1),
        ..FlowConfig::default()
    }
}

/// The cold design of `ewf` under [`config`] and its ECO base.
fn cold() -> (PrecedenceGraph, FlowOutcome, EcoBase) {
    let g = bench_graphs::ewf();
    let out = run_flow(g.clone(), &config()).expect("the cold flow succeeds");
    assert!(out.report.wire_delays > 0, "the base state has diverged ids");
    let base = EcoBase::of_outcome(g.len(), &out);
    (g, out, base)
}

/// `g` plus one new op of `kind` fed by the first sink.
fn with_one_op(g: &PrecedenceGraph, kind: OpKind) -> PrecedenceGraph {
    let mut target = g.clone();
    let sink = target.sinks()[0];
    let v = target.add_op(kind, 1, "eco");
    target.add_edge(sink, v).unwrap();
    target
}

#[test]
fn an_empty_delta_reproduces_the_cold_design() {
    let (g, cold, base) = cold();
    let (out, next) = eco_flow(base, &g, &config(), &Budget::NONE).unwrap();
    assert_eq!(out.report.final_states, cold.report.final_states);
    assert_eq!(out.report.registers, cold.report.registers);
    assert_eq!(out.report.wire_delays, 0);
    assert_eq!(out.schedule, cold.schedule);
    assert_eq!(next.map.len(), g.len());
}

#[test]
fn a_one_op_delta_finishes_into_a_valid_design() {
    let (g, _cold, base) = cold();
    let target = with_one_op(&g, OpKind::Add);
    let (out, next) = eco_flow(base, &target, &config(), &Budget::NONE).unwrap();
    out.scheduler.check_invariants().unwrap();
    hls_ir::schedule::validate(out.scheduler.graph(), &config().resources, &out.schedule)
        .unwrap();
    assert_eq!(next.map.len(), g.len() + 1);
    assert_eq!(out.fsmd.states, out.report.final_states);
}

#[test]
fn a_phi_delta_is_not_an_extension() {
    let (g, _cold, base) = cold();
    let target = with_one_op(&g, OpKind::Phi);
    let err = eco_flow(base, &target, &config(), &Budget::NONE).unwrap_err();
    assert_eq!(err, FlowError::Sched(SchedError::NotAnExtension));
}

#[test]
fn a_poisoned_graft_is_a_typed_poisoned_error() {
    let (g, _cold, base) = cold();
    let target = with_one_op(&g, OpKind::Add);
    // Scoped to this test's run so the other tests of this binary,
    // running alongside, are never hit.
    let _armed = arm(FaultPlan::panic_at(1).in_run("eco-poison"));
    let _scope = RunScope::enter("eco-poison");
    let err = eco_flow(base, &target, &config(), &Budget::NONE).unwrap_err();
    let FlowError::Poisoned(msg) = err else {
        panic!("expected Poisoned, got {err:?}");
    };
    assert!(msg.contains("injected panic"), "message preserved: {msg}");
}
