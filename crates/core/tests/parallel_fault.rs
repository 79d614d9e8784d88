//! Panic isolation of partition-parallel block scheduling, driven by
//! the fault-injection harness.
//!
//! This lives in its own integration-test binary (= its own process):
//! the armed fault plan and the process-wide last flight dump would
//! otherwise leak between unrelated tests.

use hls_ir::faultinject::{arm, FaultPlan};
use hls_ir::{generate, ResourceSet};
use threaded_sched::parallel::ParallelConfig;
use threaded_sched::{ParallelScheduler, SchedError};

#[test]
fn a_poisoned_block_fails_the_run_and_leaves_a_flight_dump() {
    let g = generate::stress_dag(7, 600);
    let cfg = ParallelConfig {
        workers: 2,
        parts: 4,
        sequential_cutoff: 0,
        ..ParallelConfig::default()
    };
    let ps = ParallelScheduler::new(g, ResourceSet::classic(2, 2), cfg).unwrap();
    assert!(ps.run().is_ok(), "the unarmed run succeeds");

    hls_obs::flight::clear_last_flight();
    let armed = arm(FaultPlan::panic_at(3).in_run("block 1"));
    match ps.run() {
        Err(SchedError::Poisoned(msg)) => {
            assert!(msg.contains("injected panic"), "{msg}");
        }
        other => panic!("expected SchedError::Poisoned, got {other:?}"),
    }
    drop(armed);
    let flight = hls_obs::flight::last_flight().expect("a poisoned block dumps");
    assert!(flight.contains("'block 1' poisoned"), "{flight}");

    // The fault plan targets one block only: disarmed, the same
    // scheduler runs clean again.
    assert!(ps.run().is_ok());
}
