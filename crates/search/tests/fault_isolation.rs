//! Panic isolation in the modulo portfolio, driven by the
//! fault-injection harness.
//!
//! This lives in its own integration-test binary (= its own process):
//! the armed fault plan targets the run scope `ii=<MII>/height`, a tag
//! the library's other tests also enter — process isolation keeps the
//! plan from leaking into them.

use hls_ir::schedule::check_modulo;
use hls_ir::{bench_graphs, ResourceClass, ResourceSet};
use hls_search::{run_modulo_portfolio, PipelineConfig};
use threaded_sched::ModuloScheduler;

#[test]
fn poisoned_modulo_candidate_is_excluded_and_a_survivor_wins() {
    // Target the height-priority run at the first II; every other
    // candidate is unaffected and the race still completes.
    let g = bench_graphs::mac_loop();
    let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
    let mii = ModuloScheduler::new(g.clone(), r.clone()).unwrap().mii();
    hls_obs::flight::clear_last_flight();
    let _armed = hls_ir::faultinject::arm(
        hls_ir::faultinject::FaultPlan::panic_at(1).in_run(format!("ii={mii}/height")),
    );
    let out = run_modulo_portfolio(&g, &r, &PipelineConfig::default()).unwrap();
    assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    let dead = out
        .runs
        .iter()
        .find(|rep| rep.poisoned.is_some())
        .expect("the targeted candidate is reported poisoned");
    assert_eq!(dead.name, format!("ii={mii}/height"));
    assert_ne!(out.winner_name, dead.name);
    // The swallowed panic still leaves a post-mortem naming the tag.
    let flight = hls_obs::flight::last_flight().expect("a poisoned candidate dumps");
    assert!(flight.contains(&format!("'ii={mii}/height' poisoned")), "{flight}");
}
