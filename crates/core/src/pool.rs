//! The one worker pool every race in the workspace runs on.
//!
//! The portfolio race, the modulo II × order race and the
//! partition-parallel block scheduler share one shape: a fixed list of
//! independent jobs, a few OS threads pulling job indices, and a
//! calling thread that gathers each job's result. This module is that
//! loop, written once. It owns:
//!
//! * **claiming** — one atomic counter, so every index runs exactly once;
//! * **per-worker state** — built once per worker by the caller's
//!   `init` (a scheduler template clone plus run arena, a scratch id
//!   map) and lent to each job that worker runs;
//! * **the panic boundary** — each job runs under one `catch_unwind`,
//!   inside a fault-injection [`RunScope`](hls_ir::faultinject::RunScope)
//!   named by the job's tag, so the harness can target one job;
//! * **the post-mortem** — a caught panic and a returned
//!   [`SchedError::Poisoned`] alike bump the `StrategyPoisoned`
//!   counter, drop a ring instant and capture a
//!   [`flight::dump`](hls_obs::flight::dump) naming the tag;
//! * **delivery** — every result reaches the caller's `sink` on the
//!   calling thread, with its job index;
//! * **the inline case** — one worker runs the jobs on the calling
//!   thread without spawning.
//!
//! What differs between races stays with the caller: the incumbent a
//! job probes, the argmin over the results and the report shape.
//! Results arrive in completion order; callers slot them by index,
//! which keeps their output independent of the worker count
//! (`DESIGN.md` §7).
//!
//! Workspace-internal: the search crate's races call it; it is not
//! part of the public API.

use crate::SchedError;
use hls_obs::Phase;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A job pool: its worker count and the trace phase its post-mortems
/// are filed under.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    /// Worker threads. Never more than the job count are spawned;
    /// `≤ 1` runs every job inline on the calling thread.
    pub workers: usize,
    /// Ring phase of the post-mortem instant: the race's per-job phase.
    pub phase: Phase,
}

impl Pool {
    /// Runs one job per entry of `tags` and hands each result to
    /// `sink` on the calling thread as `(index, result)`, in completion
    /// order.
    ///
    /// `init` builds one worker's state; it runs on the calling thread
    /// once per worker and the state moves into that worker. A job that
    /// panics is reported as [`SchedError::Poisoned`] with the panic
    /// message; the other jobs are unaffected, so a job must leave its
    /// worker state reusable even when it unwinds.
    pub fn run<S: Send, T: Send>(
        &self,
        tags: &[impl AsRef<str> + Sync],
        mut init: impl FnMut() -> S,
        job: impl Fn(&mut S, usize) -> Result<T, SchedError> + Sync,
        mut sink: impl FnMut(usize, Result<T, SchedError>),
    ) {
        if tags.is_empty() {
            return;
        }
        let next = AtomicUsize::new(0);
        // One worker's loop; `deliver` returns `false` once nobody is
        // listening any more.
        let work = |mut state: S, deliver: &mut dyn FnMut(usize, Result<T, SchedError>) -> bool| loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(tag) = tags.get(idx).map(AsRef::as_ref) else {
                break;
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _scope = hls_ir::faultinject::RunScope::enter(tag);
                job(&mut state, idx)
            }))
            .unwrap_or_else(|payload| {
                Err(SchedError::Poisoned(hls_ir::panic_message(
                    payload.as_ref(),
                )))
            });
            if let Err(SchedError::Poisoned(msg)) = &result {
                self.post_mortem(tag, msg);
            }
            if !deliver(idx, result) {
                break;
            }
        };
        let workers = self.workers.min(tags.len());
        if workers <= 1 {
            work(init(), &mut |idx, result| {
                sink(idx, result);
                true
            });
            return;
        }
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                let state = init();
                let work = &work;
                s.spawn(move || work(state, &mut |idx, result| tx.send((idx, result)).is_ok()));
            }
            drop(tx);
            for (idx, result) in rx {
                sink(idx, result);
            }
        });
    }

    /// Records a poisoned job: lifecycle counter, ring marker, and a
    /// flight-recorder dump, so the panic leaves a trace even though
    /// the race swallows it and continues.
    fn post_mortem(&self, tag: &str, msg: &str) {
        hls_obs::obs_count!(StrategyPoisoned);
        if hls_obs::recording() {
            hls_obs::recorder::instant(self.phase, tag, 1);
        }
        hls_obs::flight::dump(&format!("{} '{tag}' poisoned: {msg}", self.phase.name()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn tags(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("pool-test job {i}")).collect()
    }

    fn pool(workers: usize) -> Pool {
        Pool {
            workers,
            phase: Phase::PortfolioRun,
        }
    }

    #[test]
    fn every_job_index_is_reported_exactly_once() {
        for workers in [1usize, 2, 8] {
            let mut seen = vec![0usize; 37];
            pool(workers).run(
                &tags(37),
                || (),
                |_, i| Ok(i * 3),
                |i, r| {
                    assert_eq!(r, Ok(i * 3));
                    seen[i] += 1;
                },
            );
            assert!(seen.iter().all(|&c| c == 1), "{workers} workers: {seen:?}");
        }
    }

    #[test]
    fn a_panicking_job_poisons_only_its_own_index() {
        for workers in [1usize, 2, 8] {
            let mut results = vec![None; 12];
            pool(workers).run(
                &tags(12),
                || (),
                |_, i| {
                    if i == 5 {
                        panic!("job five exploded");
                    }
                    Ok(i)
                },
                |i, r| results[i] = Some(r),
            );
            for (i, r) in results.into_iter().enumerate() {
                match r.expect("every job reports") {
                    Err(SchedError::Poisoned(msg)) => {
                        assert_eq!(i, 5);
                        assert!(msg.contains("job five exploded"), "{msg}");
                        let flight = hls_obs::flight::last_flight().expect("a panic dumps");
                        assert!(flight.contains("'pool-test job 5' poisoned"), "{flight}");
                    }
                    Ok(v) => assert_eq!(v, i),
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        for workers in [1usize, 2, 8] {
            let mut built = 0usize;
            // Each job records the state it saw: (worker id, jobs that
            // worker has run so far, this one included).
            let seen = Mutex::new(Vec::new());
            pool(workers).run(
                &tags(40),
                || {
                    built += 1;
                    (built, 0usize)
                },
                |state, _| {
                    state.1 += 1;
                    seen.lock().unwrap().push(*state);
                    Ok(())
                },
                |_, r| r.unwrap(),
            );
            assert_eq!(built, workers, "one state per worker");
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 40);
            for w in 1..=workers {
                let mut counts: Vec<usize> =
                    seen.iter().filter(|s| s.0 == w).map(|s| s.1).collect();
                counts.sort_unstable();
                assert!(
                    counts.iter().enumerate().all(|(k, &c)| c == k + 1),
                    "worker {w}'s state carried across its jobs: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn an_empty_job_list_builds_no_state() {
        let mut built = 0;
        pool(4).run(
            &Vec::<String>::new(),
            || built += 1,
            |_, _| Ok(()),
            |_, _| panic!("no job ran"),
        );
        assert_eq!(built, 0);
    }
}
