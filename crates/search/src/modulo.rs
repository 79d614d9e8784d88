//! The modulo portfolio: meta schedules race per candidate II.
//!
//! Loop pipelining adds a second axis to the portfolio. For an acyclic
//! behavior the only thing a candidate chooses is a feed order; for a
//! loop kernel each candidate is an *(II, order)* pair — an initiation
//! interval from the window above the certified bound
//! `MII = max(ResMII, RecMII)`, and a placement priority (the
//! scheduler's default height priority, a paper meta schedule computed
//! over the kernel DAG, or a seeded random-topological tie-break).
//!
//! All runs share one packed atomic incumbent, ordered
//! lexicographically as `(II, latency, slot)`: II dominates because
//! the II *is* the steady-state throughput; latency (pipeline fill
//! depth) breaks ties; the slot makes the order total. A worker
//! checks the incumbent before starting a candidate and skips it when
//! even a latency-0 completion could not win — once some run completes
//! at `II*`, every candidate at a higher II is pruned. Candidates at
//! the incumbent's own II (or below) always run to completion or
//! failure, so the winner — `argmin (II, latency, slot)` over
//! completions — is deterministic for a fixed candidate list
//! regardless of thread count or timing, by the same argument as the
//! acyclic race (`DESIGN.md` §7, §8).

use hls_ir::schedule::ModuloSchedule;
use hls_ir::{OpId, PrecedenceGraph, ResourceSet};
use std::sync::atomic::{AtomicU64, Ordering};
use threaded_sched::meta::MetaSchedule;
use threaded_sched::pool::Pool;
use threaded_sched::{ModuloScheduler, SchedError};

/// Bits of the packed incumbent for the candidate slot.
const SLOT_BITS: u32 = 16;
/// Bits for the single-iteration latency.
const LAT_BITS: u32 = 32;

/// Largest raceable candidate count (the slot field must not bleed
/// into the latency bits).
const MAX_CANDIDATES: usize = (1 << SLOT_BITS) - 1;

/// Packs `(ii, latency, slot)` so `u64` ordering is lexicographic.
fn pack(ii: u64, latency: u64, slot: u64) -> u64 {
    debug_assert!(ii < 1 << (64 - LAT_BITS - SLOT_BITS), "II overflows the packing");
    debug_assert!(latency < 1 << LAT_BITS, "latency overflows the packing");
    debug_assert!(slot < 1 << SLOT_BITS, "slot overflows the packing");
    (ii << (LAT_BITS + SLOT_BITS)) | (latency << SLOT_BITS) | slot
}

/// Configuration of [`run_modulo_portfolio`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// OS threads the race may use. Affects wall time only — the
    /// result is deterministic for a fixed configuration.
    pub threads: usize,
    /// Width of the II window: candidate IIs are
    /// `MII ..= MII + ii_span`. If the whole window fails, the driver
    /// falls back to a sequential search strictly *above* the window
    /// (up to `ModuloScheduler::max_ii`) so a schedule is always
    /// produced for well-formed kernels.
    pub ii_span: u64,
    /// Seeds for extra [`MetaSchedule::RandomTopo`] placement orders
    /// per candidate II (on top of the height priority and the four
    /// paper metas).
    pub topo_seeds: Vec<u64>,
    /// Budget applied to every candidate run independently (each run
    /// draws its own step quota; a wall deadline is a shared absolute
    /// instant). [`hls_ir::Budget::NONE`] (the default) runs
    /// unconstrained.
    pub budget: hls_ir::Budget,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            ii_span: 2,
            topo_seeds: vec![0xF1B0_0001, 0xF1B0_0002],
            budget: hls_ir::Budget::NONE,
        }
    }
}

/// What happened to one `(II, order)` candidate.
#[derive(Clone, Debug)]
pub struct ModuloRunReport {
    /// Candidate tag: `"ii=N/<order>"`.
    pub name: String,
    /// The candidate's II.
    pub ii: u64,
    /// `Some(latency)` if the candidate found a schedule; `None` if it
    /// was infeasible at that II or pruned by the incumbent.
    pub latency: Option<u64>,
    /// `true` if the incumbent pruned the candidate before it ran.
    pub pruned: bool,
    /// Set when the run panicked mid-placement (the panic message):
    /// the candidate was excluded while the race continued. Panics
    /// never escape the race.
    pub poisoned: Option<String>,
    /// `true` when the run's [`hls_ir::Budget`] expired before the
    /// placement finished.
    pub timed_out: bool,
}

/// Everything [`run_modulo_portfolio`] produces.
#[derive(Clone, Debug)]
pub struct ModuloPortfolioOutcome {
    /// The winning modulo schedule (passes `check_modulo`).
    pub schedule: ModuloSchedule,
    /// Achieved initiation interval.
    pub ii: u64,
    /// The certified bound the window started from; `ii == mii` is
    /// provably throughput-optimal.
    pub mii: u64,
    /// Resource component of the bound.
    pub res_mii: u64,
    /// Recurrence component of the bound.
    pub rec_mii: u64,
    /// Single-iteration latency of the winner.
    pub latency: u64,
    /// Tag of the winning candidate.
    pub winner_name: String,
    /// Per-candidate reports, in candidate order.
    pub runs: Vec<ModuloRunReport>,
}

/// One placement-order recipe raced at every candidate II.
#[derive(Clone, Debug)]
enum OrderRecipe {
    /// The scheduler's default height priority.
    Height,
    /// A meta schedule resolved over the kernel DAG.
    Meta(MetaSchedule),
}

impl OrderRecipe {
    fn name(&self) -> String {
        match self {
            OrderRecipe::Height => "height".to_string(),
            OrderRecipe::Meta(MetaSchedule::RandomTopo(seed)) => {
                format!("random-topo({seed:#x})")
            }
            OrderRecipe::Meta(m) => m.name().to_string(),
        }
    }
}

/// The order recipes a [`PipelineConfig`] races at each II.
fn recipes(cfg: &PipelineConfig) -> Vec<OrderRecipe> {
    let mut out = vec![OrderRecipe::Height];
    for m in MetaSchedule::PAPER {
        out.push(OrderRecipe::Meta(m));
    }
    for &seed in &cfg.topo_seeds {
        out.push(OrderRecipe::Meta(MetaSchedule::RandomTopo(seed)));
    }
    out
}

/// Races meta placement orders per candidate II over the loop kernel
/// `g` and returns the best `(II, latency)` schedule.
///
/// Candidates are ordered II-major (all orders at `MII`, then
/// `MII+1`, ...) and share a packed `(II, latency, slot)` atomic
/// incumbent: a worker skips a candidate whose II can no longer win.
/// The winner is `argmin (II, latency, slot)` over completions —
/// deterministic for a fixed configuration regardless of
/// `cfg.threads`. If every candidate in the window fails, the driver
/// falls back to the sequential II search so an outcome is always
/// produced for well-formed kernels.
///
/// # Errors
///
/// Propagates [`SchedError`] from kernel validation (distance-0
/// cycle), missing unit classes, or meta-order construction. When no
/// candidate completes, returns [`SchedError::Timeout`] if any run hit
/// `cfg.budget`, or [`SchedError::Poisoned`] naming the dead
/// candidates when every non-pruned run panicked — budget exhaustion
/// and panics don't prove the window infeasible, so the sequential
/// fallback only runs when the window genuinely failed.
///
/// # Panics
///
/// Panics if the II window × order recipes exceed 65535 candidates
/// (the packed-slot budget).
pub fn run_modulo_portfolio(
    g: &PrecedenceGraph,
    resources: &ResourceSet,
    cfg: &PipelineConfig,
) -> Result<ModuloPortfolioOutcome, SchedError> {
    let sched = ModuloScheduler::new(g.clone(), resources.clone())?;
    let mii = sched.mii();
    let kernel = g.kernel_dag();
    // Resolve orders once: the same order is reused at every II.
    let recipes = recipes(cfg);
    let mut orders: Vec<(String, Option<Vec<OpId>>)> = Vec::with_capacity(recipes.len());
    for r in &recipes {
        let order = match r {
            OrderRecipe::Height => None,
            OrderRecipe::Meta(m) => Some(m.order(&kernel, resources)?),
        };
        orders.push((r.name(), order));
    }
    // II-major candidate list: low IIs first so early completions
    // prune the rest of the window.
    let candidates: Vec<(u64, usize)> = (mii..=mii + cfg.ii_span)
        .flat_map(|ii| (0..orders.len()).map(move |o| (ii, o)))
        .collect();
    assert!(
        candidates.len() <= MAX_CANDIDATES,
        "II window × orders exceeds the packed-slot budget"
    );

    let _race_span = hls_obs::obs_span!(ModuloRace, "", candidates.len() as u64);
    let incumbent = AtomicU64::new(u64::MAX);
    let pool = Pool {
        workers: crate::race_workers(cfg.threads, candidates.len()),
        phase: hls_obs::Phase::ModuloCandidate,
    };
    let tags: Vec<String> = candidates
        .iter()
        .map(|&(ii, oi)| format!("ii={ii}/{}", orders[oi].0))
        .collect();

    let mut runs: Vec<ModuloRunReport> = candidates
        .iter()
        .zip(&tags)
        .map(|(&(ii, _), tag)| ModuloRunReport {
            name: tag.clone(),
            ii,
            latency: None,
            pruned: false,
            poisoned: None,
            timed_out: false,
        })
        .collect();
    let mut best: Option<(u64, u64, usize, ModuloSchedule)> = None;
    pool.run(
        &tags,
        || (),
        // `Ok(None)`: pruned — even a latency-0 completion at this II
        // loses to the incumbent.
        |_, idx| {
            let (ii, oi) = candidates[idx];
            let slot = idx as u64;
            if pack(ii, 0, slot) > incumbent.load(Ordering::Relaxed) {
                return Ok(None);
            }
            hls_obs::obs_count!(ModuloCandidates);
            let _span = hls_obs::obs_span!(ModuloCandidate, &tags[idx], ii);
            let ms = match &orders[oi].1 {
                None => sched.schedule_at_budgeted(ii, &cfg.budget),
                Some(order) => sched.schedule_at_ordered_budgeted(ii, order, &cfg.budget),
            }?;
            let latency = ms.latency(g);
            incumbent.fetch_min(pack(ii, latency, slot), Ordering::Relaxed);
            Ok(Some((latency, ms)))
        },
        |idx, done| {
            let report = &mut runs[idx];
            match done {
                Ok(Some((latency, ms))) => {
                    report.latency = Some(latency);
                    let ii = report.ii;
                    let better = best
                        .as_ref()
                        .is_none_or(|b| (ii, latency, idx) < (b.0, b.1, b.2));
                    if better {
                        best = Some((ii, latency, idx, ms));
                    }
                }
                Ok(None) => report.pruned = true,
                Err(SchedError::Timeout) => report.timed_out = true,
                Err(SchedError::Poisoned(msg)) => report.poisoned = Some(msg),
                // Infeasible at that II (or any other placement failure
                // that only rules out this candidate).
                Err(_) => {}
            }
        },
    );

    match best {
        Some((ii, latency, idx, ms)) => Ok(ModuloPortfolioOutcome {
            schedule: ms,
            ii,
            mii,
            res_mii: sched.res_mii(),
            rec_mii: sched.rec_mii(),
            latency,
            winner_name: runs[idx].name.clone(),
            runs,
        }),
        // Budget exhaustion and panics don't prove the window
        // infeasible, so the fallback (which would re-run the same
        // work) is pointless there — surface the typed error instead.
        None if runs.iter().any(|r| r.timed_out) => Err(SchedError::Timeout),
        None if runs.iter().all(|r| r.poisoned.is_some() || r.pruned) => {
            let dead: Vec<&str> = runs
                .iter()
                .filter(|r| r.poisoned.is_some())
                .map(|r| r.name.as_str())
                .collect();
            Err(SchedError::Poisoned(format!(
                "every modulo candidate panicked: {}",
                dead.join(", ")
            )))
        }
        None => {
            // The whole window failed — every recipe (including the
            // height priority) is proven infeasible there, so the
            // sequential fallback starts strictly *above* the window.
            let mut fallback = None;
            for ii in (mii + cfg.ii_span + 1)..=sched.max_ii() {
                match sched.schedule_at_budgeted(ii, &cfg.budget) {
                    Ok(ms) => {
                        fallback = Some((ii, ms));
                        break;
                    }
                    Err(SchedError::IiInfeasible(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            let (ii, ms) =
                fallback.ok_or(SchedError::IiInfeasible(sched.max_ii()))?;
            Ok(ModuloPortfolioOutcome {
                latency: ms.latency(g),
                winner_name: format!("ii={ii}/height (fallback)"),
                ii,
                mii,
                res_mii: sched.res_mii(),
                rec_mii: sched.rec_mii(),
                schedule: ms,
                runs,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::schedule::check_modulo;
    use hls_ir::{bench_graphs, ResourceClass};

    fn mem_classic(alus: usize, muls: usize) -> ResourceSet {
        ResourceSet::classic(alus, muls).with(ResourceClass::MemPort, 1)
    }

    #[test]
    fn portfolio_matches_mii_on_the_mac_loop() {
        let g = bench_graphs::mac_loop();
        let r = mem_classic(1, 1);
        let out = run_modulo_portfolio(&g, &r, &PipelineConfig::default()).unwrap();
        assert_eq!(out.ii, out.mii);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
        assert!(out.runs.iter().any(|r| r.latency.is_some()));
    }

    #[test]
    fn exhausted_modulo_budget_is_a_typed_timeout() {
        let g = bench_graphs::mac_loop();
        let r = mem_classic(1, 1);
        let cfg = PipelineConfig {
            threads: 2,
            budget: hls_ir::Budget::steps(1),
            ..PipelineConfig::default()
        };
        match run_modulo_portfolio(&g, &r, &cfg) {
            Err(SchedError::Timeout) => {}
            other => panic!("expected SchedError::Timeout, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_thread_counts() {
        for (name, g) in bench_graphs::loops() {
            let r = mem_classic(2, 2);
            let mut results = Vec::new();
            for threads in [1usize, 2, 8] {
                let cfg = PipelineConfig {
                    threads,
                    ..PipelineConfig::default()
                };
                let out = run_modulo_portfolio(&g, &r, &cfg).unwrap();
                results.push(out);
            }
            for w in results.windows(2) {
                assert_eq!(w[0].ii, w[1].ii, "{name}");
                assert_eq!(w[0].latency, w[1].latency, "{name}");
                assert_eq!(w[0].winner_name, w[1].winner_name, "{name}");
                assert_eq!(w[0].schedule, w[1].schedule, "{name}");
            }
        }
    }

    #[test]
    fn portfolio_never_loses_to_the_sequential_search() {
        for (name, g) in bench_graphs::loops() {
            for r in [mem_classic(1, 1), mem_classic(2, 2), mem_classic(2, 1)] {
                let single = ModuloScheduler::new(g.clone(), r.clone())
                    .unwrap()
                    .schedule()
                    .unwrap();
                let out = run_modulo_portfolio(&g, &r, &PipelineConfig::default()).unwrap();
                assert!(
                    (out.ii, out.latency) <= (single.ii, single.latency),
                    "{name} {r:?}: portfolio ({}, {}) vs sequential ({}, {})",
                    out.ii,
                    out.latency,
                    single.ii,
                    single.latency
                );
                assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
            }
        }
    }
}
