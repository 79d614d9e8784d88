//! Modulo soft scheduling for loop pipelining.
//!
//! The paper's soft-scheduling model extends naturally to cyclic
//! behaviors once precedence edges carry an inter-iteration *distance*
//! and time is read modulo an *initiation interval* (II): threads are
//! still functional units, but a unit's occupancy wraps around — an
//! operation issued at step `t` reserves its unit at slots
//! `(t + 0..delay) mod II`, because iteration `i+1` issues the same
//! pattern `II` steps later. Precedence becomes recurrence-aware:
//! an edge `(a, b)` at distance `d` demands
//! `t(b) + II·d ≥ t(a) + D(a)` — the consumer may read the value the
//! producer computed `d` iterations earlier.
//!
//! [`ModuloScheduler`] drives the search from the certified lower bound
//! `MII = max(ResMII, RecMII)` upward:
//!
//! * **ResMII** — for every group of operations sharing a
//!   compatible-unit set, `⌈Σ delay / #units⌉` (each II window must
//!   fit the group's work), folded with the largest single delay
//!   (a non-pipelined unit cannot outlast its own next issue);
//! * **RecMII** — the smallest II at which no dependence cycle has
//!   positive weight under `w(a→b) = D(a) − II·dist(a→b)` (cycle
//!   weights are strictly decreasing in II because every cycle of a
//!   valid kernel carries positive total distance, so a binary search
//!   certifies the bound).
//!
//! Placement at a candidate II is iterative modulo scheduling in the
//! style of Rau: operations are placed highest-height first into the
//! wrap-around reservation table, a blocked operation is *forced* at
//! its earliest feasible step, and the operations it displaces
//! (resource conflicts and broken successors) re-enter the worklist —
//! bounded by an eviction budget, after which the II search moves on.
//! The feed order can also come from the paper's meta schedules over
//! the kernel DAG ([`ModuloScheduler::schedule_at_ordered`]); that is
//! what `hls_search`'s modulo portfolio races per candidate II.
//!
//! Results are validated cycle-accurately by
//! [`hls_ir::schedule::check_modulo`], which is itself cross-checked
//! against an unrolled-simulation oracle under fuzzing
//! (`crates/core/tests/modulo_differential.rs`).

use crate::SchedError;
use hls_ir::schedule::ModuloSchedule;
use hls_ir::{OpId, PrecedenceGraph, ResourceClass, ResourceSet};

/// Multiplier on `|V|` for the eviction budget of one II attempt.
const BUDGET_FACTOR: usize = 12;

/// The result of a successful [`ModuloScheduler::schedule`] run.
#[derive(Clone, Debug)]
pub struct ModuloOutcome {
    /// The legal modulo schedule (passes `check_modulo`).
    pub schedule: ModuloSchedule,
    /// The achieved initiation interval.
    pub ii: u64,
    /// The certified lower bound `max(ResMII, RecMII)` the search
    /// started from; `ii == mii` is provably throughput-optimal.
    pub mii: u64,
    /// The resource component of the bound.
    pub res_mii: u64,
    /// The recurrence component of the bound.
    pub rec_mii: u64,
    /// Single-iteration latency of the schedule (pipeline fill depth).
    pub latency: u64,
}

/// A modulo scheduler over one loop kernel and resource allocation.
///
/// Construction certifies the kernel (distance-0 subgraph acyclic,
/// every operation executable) and computes the MII components once;
/// [`ModuloScheduler::schedule`] then searches candidate IIs upward
/// from the bound.
#[derive(Clone, Debug)]
pub struct ModuloScheduler {
    g: PrecedenceGraph,
    resources: ResourceSet,
    res_mii: u64,
    rec_mii: u64,
    /// Default priority: height under the kernel's dependence
    /// structure (computed at the MII, reused for every candidate II —
    /// the relative order is what matters).
    height: Vec<u64>,
}

impl ModuloScheduler {
    /// Creates a scheduler over the loop kernel `g`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if the distance-0 subgraph of `g` is
    /// cyclic (not a schedulable kernel) and
    /// [`SchedError::NoCompatibleUnit`] if some operation has no unit
    /// able to execute it (including the empty resource set).
    pub fn new(g: PrecedenceGraph, resources: ResourceSet) -> Result<Self, SchedError> {
        g.validate_kernel()?;
        for v in g.op_ids() {
            let kind = g.kind(v);
            if kind.resource_class() != ResourceClass::Wire
                && !(0..resources.k()).any(|u| resources.compatible(u, kind))
            {
                return Err(SchedError::NoCompatibleUnit(v, kind));
            }
        }
        let res_mii = res_mii(&g, &resources);
        let rec_mii = rec_mii(&g);
        let mii = res_mii.max(rec_mii).max(1);
        let height = heights(&g, mii);
        Ok(ModuloScheduler {
            g,
            resources,
            res_mii,
            rec_mii,
            height,
        })
    }

    /// The loop kernel.
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.g
    }

    /// The functional-unit allocation.
    pub fn resources(&self) -> &ResourceSet {
        &self.resources
    }

    /// The resource-minimum initiation interval.
    pub fn res_mii(&self) -> u64 {
        self.res_mii
    }

    /// The recurrence-minimum initiation interval.
    pub fn rec_mii(&self) -> u64 {
        self.rec_mii
    }

    /// The certified lower bound `max(ResMII, RecMII, 1)`: no legal
    /// modulo schedule of this kernel under these resources has a
    /// smaller II.
    pub fn mii(&self) -> u64 {
        self.res_mii.max(self.rec_mii).max(1)
    }

    /// The largest II the search loop will try before giving up:
    /// at `MII + Σ delay` every operation fits in its own II window,
    /// so a greedy placement always succeeds earlier.
    pub fn max_ii(&self) -> u64 {
        self.mii() + self.g.total_delay() + 1
    }

    /// Attempts one candidate `ii` with the default height-first
    /// priority.
    ///
    /// # Errors
    ///
    /// [`SchedError::IiInfeasible`] if the eviction budget runs out at
    /// this II (the caller's search loop moves on).
    pub fn schedule_at(&self, ii: u64) -> Result<ModuloSchedule, SchedError> {
        self.schedule_at_budgeted(ii, &hls_ir::Budget::NONE)
    }

    /// [`ModuloScheduler::schedule_at`] under a cooperative
    /// [`hls_ir::Budget`]: the budget is checked before every placement
    /// (the modulo analogue of a commit), so the attempt stops within
    /// one placement of its deadline.
    ///
    /// # Errors
    ///
    /// [`SchedError::Timeout`] when the budget expires mid-attempt,
    /// [`SchedError::Poisoned`] if a placement panicked (caught here),
    /// otherwise as [`ModuloScheduler::schedule_at`].
    pub fn schedule_at_budgeted(
        &self,
        ii: u64,
        budget: &hls_ir::Budget,
    ) -> Result<ModuloSchedule, SchedError> {
        let mut steps = 0u64;
        self.ims_isolated(ii, &self.height, budget, &mut steps)
    }

    /// Attempts one candidate `ii` feeding operations in the priority
    /// of an explicit `order` (earlier = higher priority) — the hook
    /// for racing the paper's meta schedules (computed over
    /// [`PrecedenceGraph::kernel_dag`]) per candidate II.
    ///
    /// # Errors
    ///
    /// [`SchedError::IiInfeasible`] as for
    /// [`ModuloScheduler::schedule_at`]; [`SchedError::UnknownOp`] if
    /// the order mentions an out-of-range id.
    pub fn schedule_at_ordered(
        &self,
        ii: u64,
        order: &[OpId],
    ) -> Result<ModuloSchedule, SchedError> {
        self.schedule_at_ordered_budgeted(ii, order, &hls_ir::Budget::NONE)
    }

    /// [`ModuloScheduler::schedule_at_ordered`] under a cooperative
    /// [`hls_ir::Budget`] — see
    /// [`ModuloScheduler::schedule_at_budgeted`] for the budget and
    /// panic-isolation contract.
    ///
    /// # Errors
    ///
    /// As [`ModuloScheduler::schedule_at_ordered`], plus
    /// [`SchedError::Timeout`] and [`SchedError::Poisoned`].
    pub fn schedule_at_ordered_budgeted(
        &self,
        ii: u64,
        order: &[OpId],
        budget: &hls_ir::Budget,
    ) -> Result<ModuloSchedule, SchedError> {
        let n = self.g.len();
        let mut prio = vec![0u64; n];
        for (i, &v) in order.iter().enumerate() {
            if v.index() >= n {
                return Err(SchedError::UnknownOp(v));
            }
            prio[v.index()] = (order.len() - i) as u64;
        }
        let mut steps = 0u64;
        self.ims_isolated(ii, &prio, budget, &mut steps)
    }

    /// Searches candidate IIs upward from [`ModuloScheduler::mii`]
    /// with the default priority and returns the first success.
    ///
    /// # Errors
    ///
    /// [`SchedError::IiInfeasible`] carrying the last II tried if the
    /// whole range up to [`ModuloScheduler::max_ii`] fails (does not
    /// happen for well-formed kernels; the bound is a backstop).
    pub fn schedule(&self) -> Result<ModuloOutcome, SchedError> {
        self.schedule_budgeted(&hls_ir::Budget::NONE)
    }

    /// [`ModuloScheduler::schedule`] under a cooperative
    /// [`hls_ir::Budget`] spanning the *whole* II search: placements
    /// across all attempted IIs draw from one step quota, and the wall
    /// deadline is checked before every placement.
    ///
    /// # Errors
    ///
    /// As [`ModuloScheduler::schedule`], plus [`SchedError::Timeout`]
    /// when the budget expires and [`SchedError::Poisoned`] if a
    /// placement panicked (caught here, never unwound to the caller).
    pub fn schedule_budgeted(
        &self,
        budget: &hls_ir::Budget,
    ) -> Result<ModuloOutcome, SchedError> {
        let mii = self.mii();
        let mut steps = 0u64;
        for ii in mii..=self.max_ii() {
            match self.ims_isolated(ii, &self.height, budget, &mut steps) {
                Ok(ms) => {
                    let latency = ms.latency(&self.g);
                    return Ok(ModuloOutcome {
                        schedule: ms,
                        ii,
                        mii,
                        res_mii: self.res_mii,
                        rec_mii: self.rec_mii,
                        latency,
                    });
                }
                Err(SchedError::IiInfeasible(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(SchedError::IiInfeasible(self.max_ii()))
    }

    /// [`ModuloScheduler::ims`] under `catch_unwind`: the modulo
    /// scheduler keeps no cross-attempt state (`&self`, fresh tables
    /// per call), so a caught panic needs no poisoned flag — it just
    /// surfaces as [`SchedError::Poisoned`] and the next attempt is
    /// clean.
    fn ims_isolated(
        &self,
        ii: u64,
        prio: &[u64],
        budget: &hls_ir::Budget,
        steps: &mut u64,
    ) -> Result<ModuloSchedule, SchedError> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.ims(ii, prio, budget, steps)
        }));
        match attempt {
            Ok(result) => result,
            Err(payload) => Err(SchedError::Poisoned(hls_ir::panic_message(payload.as_ref()))),
        }
    }

    /// Iterative modulo scheduling at one II with the given priority
    /// vector (higher value = placed earlier; ties break on the lower
    /// op index). Deterministic. `steps` accumulates placements across
    /// calls so a multi-II search shares one budget.
    fn ims(
        &self,
        ii: u64,
        prio: &[u64],
        run_budget: &hls_ir::Budget,
        steps: &mut u64,
    ) -> Result<ModuloSchedule, SchedError> {
        if ii == 0 {
            return Err(SchedError::IiInfeasible(0));
        }
        let g = &self.g;
        let n = g.len();
        // Fail fast: a resource op outlasting the II can never be
        // placed (wrap-around self conflict), and a self recurrence
        // needs `delay ≤ II·dist` (callers probing below RecMII).
        for v in g.op_ids() {
            if g.kind(v).resource_class() != ResourceClass::Wire && g.delay(v) > ii {
                return Err(SchedError::IiInfeasible(ii));
            }
            if let Some(d) = g.dist(v, v) {
                if g.delay(v) > ii.saturating_mul(u64::from(d)) {
                    return Err(SchedError::IiInfeasible(ii));
                }
            }
        }
        let mut ms = ModuloSchedule::new(n, ii);
        // Wrap-around reservation table: `mrt[u][slot]` is the op
        // occupying unit `u` at `slot ∈ 0..ii`.
        let mut mrt: Vec<Vec<Option<OpId>>> =
            vec![vec![None; ii as usize]; self.resources.k()];
        // Last start each op was tried at — forced placements must
        // strictly advance past it so eviction cycles terminate.
        let mut prev_start: Vec<Option<u64>> = vec![None; n];
        let mut unplaced: Vec<bool> = vec![true; n];
        let mut remaining = n;
        let mut budget = n.saturating_mul(BUDGET_FACTOR).max(64);

        while remaining > 0 {
            if budget == 0 {
                return Err(SchedError::IiInfeasible(ii));
            }
            budget -= 1;
            // Cooperative cancellation + fault-injection hook: one
            // check per placement, the modulo analogue of a commit.
            hls_ir::faultinject::tick_commit();
            if run_budget.expired(*steps) {
                return Err(SchedError::Timeout);
            }
            *steps += 1;
            // Highest priority unscheduled op; ties to the lowest id.
            let v = (0..n)
                .filter(|&i| unplaced[i])
                .max_by_key(|&i| (prio[i], std::cmp::Reverse(i)))
                .map(OpId::from_index)
                .expect("remaining > 0");
            let estart = self.early_start(&ms, v, ii);
            let kind = g.kind(v);
            if kind.resource_class() == ResourceClass::Wire {
                // Zero-resource ops never conflict; place at the
                // earliest legal step.
                self.place(&mut ms, &mut mrt, &mut unplaced, &mut remaining, v, estart, None);
                prev_start[v.index()] = Some(estart);
                continue;
            }
            // Scan the II window for a conflict-free (step, unit).
            let delay = g.delay(v);
            let mut choice: Option<(u64, usize)> = None;
            'scan: for t in estart..estart + ii {
                for (u, row) in mrt.iter().enumerate() {
                    if !self.resources.compatible(u, kind) {
                        continue;
                    }
                    if delay == 0 || Self::slots_free(row, t, delay, ii) {
                        choice = Some((t, u));
                        break 'scan;
                    }
                }
            }
            let (t, u) = match choice {
                Some(c) => c,
                None => {
                    // Forced placement: earliest step strictly past the
                    // previous attempt, on the first compatible unit;
                    // whatever occupies it is displaced.
                    let t = match prev_start[v.index()] {
                        Some(p) => estart.max(p + 1),
                        None => estart,
                    };
                    let u = (0..self.resources.k())
                        .find(|&u| self.resources.compatible(u, kind))
                        .expect("checked at construction");
                    (t, u)
                }
            };
            self.place(&mut ms, &mut mrt, &mut unplaced, &mut remaining, v, t, Some(u));
            prev_start[v.index()] = Some(t);
        }
        debug_assert_eq!(
            hls_ir::schedule::check_modulo(g, &self.resources, &ms),
            Ok(())
        );
        Ok(ms)
    }

    /// Earliest start of `v` honouring every *placed* predecessor:
    /// `max(0, t(p) + D(p) − II·dist)` over edges `(p, v)`.
    fn early_start(&self, ms: &ModuloSchedule, v: OpId, ii: u64) -> u64 {
        let g = &self.g;
        let mut e = 0u64;
        for &p in g.preds(v) {
            if p == v {
                continue; // self recurrence constrains nothing at ≥ RecMII
            }
            let Some(ps) = ms.start(p) else { continue };
            let d = g.dist(p, v).expect("pred implies edge");
            let need = (ps + g.delay(p)).saturating_sub(ii * u64::from(d));
            e = e.max(need);
        }
        e
    }

    /// `true` if unit slots `(t + 0..delay) mod ii` are all free.
    fn slots_free(row: &[Option<OpId>], t: u64, delay: u64, ii: u64) -> bool {
        (0..delay).all(|off| row[((t + off) % ii) as usize].is_none())
    }

    /// Places `v` at `(t, unit)`, displacing resource conflicts and any
    /// scheduled dependent whose recurrence constraint the placement
    /// breaks (they re-enter the worklist).
    #[allow(clippy::too_many_arguments)]
    fn place(
        &self,
        ms: &mut ModuloSchedule,
        mrt: &mut [Vec<Option<OpId>>],
        unplaced: &mut [bool],
        remaining: &mut usize,
        v: OpId,
        t: u64,
        unit: Option<usize>,
    ) {
        let g = &self.g;
        let ii = ms.ii();
        let delay = g.delay(v);
        // Displace resource conflicts on the chosen unit.
        if let Some(u) = unit {
            if delay > 0 {
                for off in 0..delay {
                    let slot = ((t + off) % ii) as usize;
                    if let Some(w) = mrt[u][slot] {
                        if w != v {
                            self.evict(ms, mrt, unplaced, remaining, w);
                        }
                    }
                }
                for off in 0..delay {
                    mrt[u][((t + off) % ii) as usize] = Some(v);
                }
            }
        }
        ms.assign(v, t, unit);
        if unplaced[v.index()] {
            unplaced[v.index()] = false;
            *remaining -= 1;
        }
        // Displace scheduled successors whose constraint now breaks.
        let succs: Vec<OpId> = g.succs(v).to_vec();
        for q in succs {
            if q == v {
                continue;
            }
            let Some(qs) = ms.start(q) else { continue };
            let d = g.dist(v, q).expect("succ implies edge");
            if qs + ii * u64::from(d) < t + delay {
                self.evict(ms, mrt, unplaced, remaining, q);
            }
        }
    }

    /// Removes `w` from the schedule and reservation table.
    fn evict(
        &self,
        ms: &mut ModuloSchedule,
        mrt: &mut [Vec<Option<OpId>>],
        unplaced: &mut [bool],
        remaining: &mut usize,
        w: OpId,
    ) {
        if let Some(u) = ms.unit(w) {
            for slot in mrt[u].iter_mut() {
                if *slot == Some(w) {
                    *slot = None;
                }
            }
        }
        ms.unassign(w);
        if !unplaced[w.index()] {
            unplaced[w.index()] = true;
            *remaining += 1;
        }
    }
}

/// The resource-minimum II: for every distinct compatible-unit set,
/// `⌈Σ delay / #units⌉`, folded with the largest single resource-op
/// delay (a non-pipelined unit is busy `delay` slots out of every II).
pub fn res_mii(g: &PrecedenceGraph, resources: &ResourceSet) -> u64 {
    let mut groups: Vec<(Vec<usize>, u64)> = Vec::new();
    let mut floor = 0u64;
    for v in g.op_ids() {
        let kind = g.kind(v);
        if kind.resource_class() == ResourceClass::Wire {
            continue;
        }
        let units = resources.compatible_units(kind);
        if units.is_empty() {
            continue; // construction rejects this; keep the bound sane
        }
        floor = floor.max(g.delay(v));
        match groups.iter_mut().find(|(u, _)| *u == units) {
            Some((_, w)) => *w += g.delay(v),
            None => groups.push((units, g.delay(v))),
        }
    }
    for (units, work) in groups {
        floor = floor.max(work.div_ceil(units.len() as u64));
    }
    floor
}

/// The recurrence-minimum II: the smallest `II ≥ 1` under which no
/// dependence cycle has positive weight `Σ D(a) − II·Σ dist` —
/// certified by binary search (cycle weights strictly decrease in II
/// on valid kernels, whose every cycle carries positive distance).
/// Returns 1 for plain DAGs.
pub fn rec_mii(g: &PrecedenceGraph) -> u64 {
    if !g.has_loop_edges() {
        return 1;
    }
    // At II = Σ delay any cycle weight is ≤ Σ_cycle delay − II < 0.
    let mut lo = 1u64;
    let mut hi = g.total_delay().max(1);
    if has_positive_cycle(g, hi) {
        // Degenerate kernels (all-zero delays never trip this).
        return hi;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(g, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Bellman-Ford positive-cycle probe on weights `D(a) − II·dist`.
fn has_positive_cycle(g: &PrecedenceGraph, ii: u64) -> bool {
    let n = g.len();
    let mut label = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for (a, b, d) in g.edges_dist() {
            let w = g.delay(a) as i64 - (ii as i64) * i64::from(d);
            let cand = label[a.index()].saturating_add(w);
            if cand > label[b.index()] {
                label[b.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

/// Height priority at interval `ii` — Rau's `HeightR`:
/// `H(v) = D(v) + max(0, max_{(v,q,d)} H(q) − ii·d)`, the delay-sum of
/// the longest dependence chain out of `v` discounted by `ii` per
/// iteration crossed. Ops feeding long chains place first. Fixpoint
/// iteration (converges at `ii ≥ RecMII`, where no positive cycles
/// remain).
fn heights(g: &PrecedenceGraph, ii: u64) -> Vec<u64> {
    let n = g.len();
    let mut h: Vec<i64> = g.op_ids().map(|v| g.delay(v) as i64).collect();
    for _ in 0..=n {
        let mut changed = false;
        for (a, b, d) in g.edges_dist() {
            let tail = h[b.index()].saturating_sub((ii as i64) * i64::from(d)).max(0);
            let cand = (g.delay(a) as i64).saturating_add(tail);
            if cand > h[a.index()] {
                h[a.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    h.into_iter().map(|x| x.max(0) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::schedule::check_modulo;
    use hls_ir::{bench_graphs, OpKind};

    #[test]
    fn modulo_budget_times_out_as_a_typed_error() {
        let g = bench_graphs::mac_loop();
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g, r).unwrap();
        // Zero placements allowed: the very first placement check fails.
        let err = sched.schedule_budgeted(&hls_ir::Budget::steps(0)).unwrap_err();
        assert!(matches!(err, SchedError::Timeout), "{err}");
        // A generous quota completes normally.
        let out = sched.schedule_budgeted(&hls_ir::Budget::steps(100_000)).unwrap();
        assert_eq!(out.ii, 2);
    }

    #[test]
    fn modulo_placement_panic_is_caught_as_poisoned() {
        let _armed = hls_ir::faultinject::arm(
            hls_ir::faultinject::FaultPlan::panic_at(2).in_run("modulo-victim"),
        );
        let _scope = hls_ir::faultinject::RunScope::enter("modulo-victim");
        let g = bench_graphs::mac_loop();
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g, r).unwrap();
        let err = sched.schedule().unwrap_err();
        assert!(matches!(err, SchedError::Poisoned(_)), "{err}");
    }

    #[test]
    fn mac_loop_pipelines_at_the_memory_bound() {
        let g = bench_graphs::mac_loop();
        // 1 ALU, 1 MUL, 1 memory port: two loads per iteration on one
        // port force II = 2.
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        assert_eq!(sched.res_mii(), 2);
        assert_eq!(sched.rec_mii(), 1);
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, 2, "achieves the certified MII");
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
        // Two ports halve the II.
        let r2 = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 2);
        let out2 = ModuloScheduler::new(g.clone(), r2.clone())
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(out2.ii, 2, "mul delay 2 holds the floor");
        assert_eq!(check_modulo(&g, &r2, &out2.schedule), Ok(()));
    }

    #[test]
    fn biquad_is_recurrence_bound() {
        let g = bench_graphs::iir_biquad();
        // 3 multipliers: the 5 two-cycle products pack 2+2+1 into the
        // 5-slot wrap-around windows, so the recurrence bound is met.
        let r = ResourceSet::classic(2, 3).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        // y → y1(move 1) → a1y1(mul 2) → fb1(sub 1) → y(sub 1): Σ = 5,
        // distance 1.
        assert_eq!(sched.rec_mii(), 5);
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, 5);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    }

    #[test]
    fn biquad_at_two_multipliers_shows_the_fragmentation_gap() {
        // ResMII = ⌈10/2⌉ = 5 ties RecMII = 5, but five 2-cycle
        // multiplies cannot tile 2 units × 5 wrap-around slots (each
        // unit fits at most two whole delay-2 intervals mod 5), so the
        // true optimum is II = 6: MII is a lower bound, not a promise.
        let g = bench_graphs::iir_biquad();
        let r = ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        assert_eq!(sched.mii(), 5);
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, 6);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    }

    #[test]
    fn gcd_recurrence_sets_ii_two() {
        let g = bench_graphs::gcd_loop();
        let r = ResourceSet::classic(1, 0);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        assert_eq!(sched.rec_mii(), 2, "a' = a − b through the move");
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, 2);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    }

    #[test]
    fn fir_loop_is_resource_bound() {
        let g = bench_graphs::fir_loop(8);
        let r = ResourceSet::classic(1, 2).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        // 8 muls of delay 2 on 2 multipliers: ResMII 8.
        assert_eq!(sched.res_mii(), 8);
        assert_eq!(sched.rec_mii(), 1);
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, 8);
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    }

    #[test]
    fn acyclic_graphs_pipeline_too() {
        // A plain DAG is a kernel with no recurrences: II is purely
        // resource-bound.
        let g = bench_graphs::hal();
        let r = ResourceSet::classic(2, 2);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        assert_eq!(sched.rec_mii(), 1);
        let out = sched.schedule().unwrap();
        assert_eq!(out.ii, sched.mii());
        assert_eq!(check_modulo(&g, &r, &out.schedule), Ok(()));
    }

    #[test]
    fn ordered_scheduling_honours_the_meta_order_hook() {
        let g = bench_graphs::mac_loop();
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g.clone(), r.clone()).unwrap();
        let order: Vec<OpId> = g.op_ids().collect();
        let ms = sched.schedule_at_ordered(sched.mii(), &order).unwrap();
        assert_eq!(check_modulo(&g, &r, &ms), Ok(()));
        let bogus = [OpId::from_index(99)];
        assert!(matches!(
            sched.schedule_at_ordered(2, &bogus),
            Err(SchedError::UnknownOp(_))
        ));
    }

    #[test]
    fn infeasible_ii_reports_not_panics() {
        let g = bench_graphs::mac_loop();
        let r = ResourceSet::classic(1, 1).with(ResourceClass::MemPort, 1);
        let sched = ModuloScheduler::new(g, r).unwrap();
        // II below the memory bound cannot fit two loads.
        assert!(matches!(
            sched.schedule_at(1),
            Err(SchedError::IiInfeasible(1))
        ));
    }

    #[test]
    fn construction_rejects_bad_kernels_and_allocations() {
        // Distance-0 cycle: not a kernel.
        let mut g = PrecedenceGraph::new();
        let a = g.add_op(OpKind::Add, 1, "a");
        let b = g.add_op(OpKind::Add, 1, "b");
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert!(matches!(
            ModuloScheduler::new(g, ResourceSet::uniform(1)),
            Err(SchedError::Ir(hls_ir::IrError::Cycle(_)))
        ));
        // Missing unit class.
        let g2 = bench_graphs::mac_loop();
        assert!(matches!(
            ModuloScheduler::new(g2.clone(), ResourceSet::classic(1, 1)),
            Err(SchedError::NoCompatibleUnit(_, OpKind::Load))
        ));
        // Empty resource set.
        assert!(matches!(
            ModuloScheduler::new(g2, ResourceSet::new()),
            Err(SchedError::NoCompatibleUnit(_, _))
        ));
    }

    #[test]
    fn schedule_is_deterministic() {
        for (name, g) in bench_graphs::loops() {
            let r = ResourceSet::classic(2, 1).with(ResourceClass::MemPort, 1);
            let s1 = ModuloScheduler::new(g.clone(), r.clone()).unwrap().schedule().unwrap();
            let s2 = ModuloScheduler::new(g, r).unwrap().schedule().unwrap();
            assert_eq!(s1.ii, s2.ii, "{name}");
            assert_eq!(s1.schedule, s2.schedule, "{name}");
        }
    }
}
