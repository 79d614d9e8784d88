//! Partition-parallel scheduling: block-decomposed soft scheduling for
//! million-op behaviors.
//!
//! The sequential engine's cost at scale is dominated by whole-graph
//! terms: the chain-cover reachability index build is superlinear in
//! `|V|`, and at 10⁶ ops the flat per-node tables fall out of cache.
//! [`ParallelScheduler`] removes both by decomposition:
//!
//! 1. **Partition.** [`hls_ir::partition`] splits the behavior into
//!    balanced blocks whose quotient is acyclic and topologically
//!    numbered (every edge goes to an equal-or-higher block).
//! 2. **Block scheduling.** Each block is one job of the workspace
//!    worker pool ([`crate::pool`]), which runs the ordinary
//!    [`ThreadedScheduler`] on the block's induced subgraph with the
//!    *full* resource set — each block time-slices the same
//!    functional units, so per-unit chains concatenate across blocks.
//!    A job runs inside a fault-injection run scope `block <b>`, and a
//!    poisoned block leaves the pool's post-mortem. As blocks commit,
//!    each deposits its delay-sums into a per-unit-set reservation
//!    ledger and folds the implied work floor `⌈ΣW_U / |U|⌉` into a
//!    certified lower bound on any complete schedule.
//! 3. **Stitch.** Per-unit chains are concatenated in block (quotient
//!    topological) order, and the cut edges are spliced back: one
//!    linear longest-path pass over the combined threaded graph
//!    (behavior edges ∪ chain edges) assigns every operation its start
//!    time. The combination is acyclic *by construction* — behavior
//!    edges never cross blocks backwards, chain edges are intra-block
//!    or seam-forward — so the stitched schedule is always valid.
//!
//! Below [`ParallelConfig::sequential_cutoff`] the partition overhead
//! cannot pay for itself, so `run` uses the sequential engine directly
//! — the small-graph semantics of the parallel scheduler are
//! *bit-identical* to [`ThreadedScheduler`], which is what the golden
//! equivalence suite pins. Above the cutoff, the stitched result is
//! valid by construction and its quality is pinned differentially
//! (see `crates/core/tests/parallel_golden.rs`).
//!
//! Results are deterministic in (graph, resources, config): block
//! schedules depend only on their subgraph, never on which worker ran
//! them or in what order — so 1, 2 and 8 workers produce bit-identical
//! schedules.
//!
//! A stitched run can be materialised back into a live
//! [`ThreadedScheduler`] with [`ParallelScheduler::materialize`]: the
//! stitched placement is replayed through the engine's own `commit`
//! (tail inserts in combined topological order), which rebuilds the
//! full incremental state — reach vectors, lazy labels, extrema — so
//! ECO refinement (`refine_splice`, `refine_graft`) continues to work
//! on partition-parallel results exactly as on sequential ones.

use std::collections::HashMap;

use hls_ir::partition::{self, Partition, PartitionConfig};
use hls_ir::{HardSchedule, OpId, PrecedenceGraph, ResourceClass, ResourceSet};

use crate::meta::MetaSchedule;
use crate::pool::Pool;
use crate::threaded::{Placement, ThreadedScheduler};
use crate::SchedError;

/// Configuration for [`ParallelScheduler`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Worker threads scheduling blocks. Results never depend on this
    /// (workers only change wall time), so any value is safe.
    pub workers: usize,
    /// Number of partition blocks; `0` picks
    /// [`hls_ir::partition::auto_parts`] from the graph size and
    /// worker count.
    pub parts: usize,
    /// Meta order used inside every block.
    pub meta: MetaSchedule,
    /// Partition balance tolerance (see [`PartitionConfig`]).
    pub tolerance: f64,
    /// Graphs with at most this many ops are scheduled by the plain
    /// sequential engine (identical results, no partition overhead).
    /// Set to `0` to force the partition-parallel path everywhere —
    /// the differential tests do, to exercise the stitch on small
    /// graphs.
    pub sequential_cutoff: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 8,
            parts: 0,
            meta: MetaSchedule::Topological,
            tolerance: 0.10,
            sequential_cutoff: 8192,
        }
    }
}

/// The result of one partition-parallel run.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// The stitched hard schedule: start time for every op, unit for
    /// every non-wire op.
    pub schedule: HardSchedule,
    /// Stitched state diameter (`max` finish time).
    pub diameter: u64,
    /// Certified lower bound on any complete schedule of this graph:
    /// `max` of the reservation ledger's per-unit-set work
    /// floors and the behavior critical path. Always `<= diameter`.
    pub lower_bound: u64,
    /// Per-unit chains of the stitched state, in execution order.
    pub unit_threads: Vec<Vec<OpId>>,
    /// A topological order of the *combined* threaded graph (behavior
    /// edges plus chain edges) — the replay order used by
    /// [`ParallelScheduler::materialize`].
    pub meta_order: Vec<OpId>,
    /// Cut edges of the partition (0 when the sequential path ran).
    pub cut_edges: usize,
    /// Diameter of each block's local schedule (empty when the
    /// sequential path ran).
    pub block_diameters: Vec<u64>,
}

/// Per-block output produced by a worker.
struct BlockOut {
    /// Per-unit chains in global op ids.
    unit_chains: Vec<Vec<OpId>>,
    diameter: u64,
}

/// The partition-parallel scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct ParallelScheduler {
    g: PrecedenceGraph,
    resources: ResourceSet,
    cfg: ParallelConfig,
    partition: Partition,
}

impl ParallelScheduler {
    /// Partitions `g` and prepares a parallel run.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Ir`] if `g` is cyclic (loop kernels go
    /// through the modulo scheduler, not this one).
    pub fn new(
        g: PrecedenceGraph,
        resources: ResourceSet,
        cfg: ParallelConfig,
    ) -> Result<Self, SchedError> {
        g.validate()?;
        let parts = if cfg.parts == 0 {
            partition::auto_parts(g.len(), cfg.workers.max(1))
        } else {
            cfg.parts
        };
        let pcfg = PartitionConfig {
            parts,
            tolerance: cfg.tolerance,
            ..PartitionConfig::default()
        };
        let partition = {
            let _span = hls_obs::obs_span!(ParallelPartition, "", g.len() as u64);
            partition::partition(&g, &pcfg)?
        };
        Ok(ParallelScheduler { g, resources, cfg, partition })
    }

    /// The behavior graph.
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.g
    }

    /// The block assignment this scheduler will run with.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Schedules the whole behavior: block scheduling on worker
    /// threads, then the stitch pass. Deterministic in
    /// (graph, resources, config); independent of `workers`.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-numbered failing block's [`SchedError`]; a
    /// panicking block surfaces as [`SchedError::Poisoned`] (the panic
    /// does not cross this boundary).
    pub fn run(&self) -> Result<ParallelRun, SchedError> {
        if self.g.len() <= self.cfg.sequential_cutoff {
            return self.run_sequential();
        }
        let blocks = self.partition.blocks();
        let (outs, ledger_floor) = {
            let _span = hls_obs::obs_span!(ParallelBlocks, "", blocks.len() as u64);
            self.schedule_blocks(&blocks)?
        };
        let _span = hls_obs::obs_span!(ParallelStitch, "", blocks.len() as u64);
        self.stitch(&blocks, &outs, ledger_floor)
    }

    /// The small-graph path: the plain sequential engine, bit-identical
    /// to `ThreadedScheduler` with the same meta order.
    fn run_sequential(&self) -> Result<ParallelRun, SchedError> {
        let order = self.cfg.meta.order(&self.g, &self.resources)?;
        let mut ts = ThreadedScheduler::new(self.g.clone(), self.resources.clone())?;
        ts.schedule_all(order.iter().copied())?;
        let schedule = ts.extract_hard();
        let unit_threads = (0..self.resources.k()).map(|k| ts.chain(k)).collect();
        Ok(ParallelRun {
            diameter: ts.diameter(),
            lower_bound: ts.final_lower_bound(),
            schedule,
            unit_threads,
            meta_order: order,
            cut_edges: 0,
            block_diameters: Vec::new(),
        })
    }

    /// Schedules every block on the worker pool (`cfg.workers` workers)
    /// and feeds the reservation ledger as blocks commit. Returns the
    /// block outputs plus the ledger's folded work floor.
    fn schedule_blocks(
        &self,
        blocks: &[Vec<OpId>],
    ) -> Result<(Vec<BlockOut>, u64), SchedError> {
        // Per-unit-set reservation groups: ops sharing the same
        // compatible-unit set serialise on those units, so each group's
        // delay-sum over unit-count floors the final diameter.
        let mut groups: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut group_units: Vec<u64> = Vec::new();
        let mut group_of_kind: Vec<(hls_ir::OpKind, Option<usize>)> = Vec::new();
        let mut group_of = |kind: hls_ir::OpKind, resources: &ResourceSet| -> Option<usize> {
            if let Some(&(_, gid)) = group_of_kind.iter().find(|(k, _)| *k == kind) {
                return gid;
            }
            let units = resources.compatible_units(kind);
            let gid = if units.is_empty() || kind.resource_class() == ResourceClass::Wire {
                None
            } else {
                Some(*groups.entry(units.clone()).or_insert_with(|| {
                    group_units.push(units.len() as u64);
                    group_units.len() - 1
                }))
            };
            group_of_kind.push((kind, gid));
            gid
        };
        let mut op_group: Vec<u32> = Vec::with_capacity(self.g.len());
        for v in self.g.op_ids() {
            op_group
                .push(group_of(self.g.kind(v), &self.resources).map_or(u32::MAX, |g| g as u32));
        }

        // The reservation ledger: delay-sums per group, deposited as
        // blocks commit. The floor it folds is order-independent, so it
        // is deterministic across worker counts.
        let mut ledger: Vec<u64> = vec![0; group_units.len()];
        let mut floor = 0u64;
        let mut outs: Vec<Option<BlockOut>> = (0..blocks.len()).map(|_| None).collect();
        let mut errs: Vec<Option<SchedError>> = vec![None; blocks.len()];
        let tags: Vec<String> = (0..blocks.len()).map(|b| format!("block {b}")).collect();
        let pool = Pool {
            workers: self.cfg.workers.clamp(1, blocks.len().max(1)),
            phase: hls_obs::Phase::ParallelBlocks,
        };
        pool.run(
            &tags,
            // Reusable global → local id map, clean between blocks.
            || vec![u32::MAX; self.g.len()],
            |local_of, b| self.schedule_block(&blocks[b], local_of),
            |b, result| match result {
                Ok(out) => {
                    for &v in &blocks[b] {
                        let gid = op_group[v.index()];
                        if gid == u32::MAX {
                            continue;
                        }
                        let total = &mut ledger[gid as usize];
                        *total += self.g.delay(v);
                        floor = floor.max(total.div_ceil(group_units[gid as usize]));
                    }
                    outs[b] = Some(out);
                }
                Err(e) => errs[b] = Some(e),
            },
        );

        // The lowest-index failure: deterministic across worker counts.
        if let Some(e) = errs.into_iter().flatten().next() {
            return Err(e);
        }
        let done = outs
            .into_iter()
            .map(|o| o.expect("every block reports exactly once"))
            .collect();
        Ok((done, floor))
    }

    /// Schedules one block's induced subgraph with the ordinary
    /// sequential engine and returns its chains in global ids.
    fn schedule_block(&self, ops: &[OpId], local_of: &mut [u32]) -> Result<BlockOut, SchedError> {
        let mut sub = PrecedenceGraph::with_capacity(ops.len());
        for (i, &v) in ops.iter().enumerate() {
            local_of[v.index()] = i as u32;
            sub.add_op(self.g.kind(v), self.g.delay(v), self.g.label(v));
        }
        let edges = ops.iter().try_for_each(|&v| {
            self.g.succs(v).iter().try_for_each(|&s| match local_of[s.index()] {
                u32::MAX => Ok(()),
                t => sub.add_edge(
                    OpId::from_index(local_of[v.index()] as usize),
                    OpId::from_index(t as usize),
                ),
            })
        });
        // Clear the map before anything can fail: the worker reuses it.
        for &v in ops {
            local_of[v.index()] = u32::MAX;
        }
        edges?;
        let order = self.cfg.meta.order(&sub, &self.resources)?;
        let mut ts = ThreadedScheduler::new(sub, self.resources.clone())?;
        ts.schedule_all(order)?;
        let unit_chains = (0..self.resources.k())
            .map(|k| ts.chain(k).into_iter().map(|l| ops[l.index()]).collect())
            .collect();
        Ok(BlockOut { unit_chains, diameter: ts.diameter() })
    }

    /// The stitch pass: concatenates per-unit chains in block order and
    /// computes start times by one longest-path sweep over the combined
    /// threaded graph — behavior edges (cut edges included) plus chain
    /// edges. See the module docs for the acyclicity argument.
    fn stitch(
        &self,
        blocks: &[Vec<OpId>],
        outs: &[BlockOut],
        ledger_floor: u64,
    ) -> Result<ParallelRun, SchedError> {
        let n = self.g.len();
        let k = self.resources.k();
        let mut schedule = HardSchedule::new(n);
        let mut finish: Vec<u64> = vec![0; n];
        let mut placed: Vec<bool> = vec![false; n];
        let mut unit_threads: Vec<Vec<OpId>> = vec![Vec::new(); k];
        let mut meta_order: Vec<OpId> = Vec::with_capacity(n);
        // Available time of each unit chain after the blocks stitched
        // so far.
        let mut chain_avail: Vec<u64> = vec![0; k];
        let mut diameter = 0u64;

        // Per-block scratch, reused.
        let mut local_of: Vec<u32> = vec![u32::MAX; n];
        let mut unit_of: Vec<(u32, u32)> = Vec::new(); // (chain, index on segment)
        let mut indeg: Vec<u32> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();

        for (b, ops) in blocks.iter().enumerate() {
            let out = &outs[b];
            for (i, &v) in ops.iter().enumerate() {
                local_of[v.index()] = i as u32;
            }
            unit_of.clear();
            unit_of.resize(ops.len(), (u32::MAX, 0));
            for (c, chain) in out.unit_chains.iter().enumerate() {
                for (i, &v) in chain.iter().enumerate() {
                    unit_of[local_of[v.index()] as usize] = (c as u32, i as u32);
                }
            }
            // Kahn over the block's combined subgraph: intra-block
            // behavior edges + chain-successor edges.
            indeg.clear();
            indeg.resize(ops.len(), 0);
            for (i, &v) in ops.iter().enumerate() {
                let mut d = 0u32;
                for &p in self.g.preds(v) {
                    if local_of[p.index()] != u32::MAX {
                        d += 1;
                    }
                }
                let (c, ci) = unit_of[i];
                if c != u32::MAX && ci > 0 {
                    d += 1;
                }
                indeg[i] = d;
            }
            queue.clear();
            for (i, &d) in indeg.iter().enumerate() {
                if d == 0 {
                    queue.push(i as u32);
                }
            }
            let mut popped = 0usize;
            let mut head = 0usize;
            while head < queue.len() {
                let i = queue[head] as usize;
                head += 1;
                popped += 1;
                let v = ops[i];
                let mut start = 0u64;
                for &p in self.g.preds(v) {
                    // Cross-block predecessors are already placed
                    // (blocks are quotient-topologically numbered);
                    // intra-block ones were popped before us.
                    debug_assert!(placed[p.index()] || local_of[p.index()] != u32::MAX);
                    start = start.max(finish[p.index()]);
                }
                let (c, ci) = unit_of[i];
                if c != u32::MAX {
                    let chain = &outs[b].unit_chains[c as usize];
                    if ci == 0 {
                        start = start.max(chain_avail[c as usize]);
                    } else {
                        start = start.max(finish[chain[ci as usize - 1].index()]);
                    }
                }
                let f = start + self.g.delay(v);
                finish[v.index()] = f;
                placed[v.index()] = true;
                diameter = diameter.max(f);
                let unit = (c != u32::MAX).then_some(c as usize);
                schedule.assign(v, start, unit);
                meta_order.push(v);
                // Release intra-block behavior successors and the
                // chain successor.
                for &s in self.g.succs(v) {
                    let t = local_of[s.index()];
                    if t != u32::MAX {
                        indeg[t as usize] -= 1;
                        if indeg[t as usize] == 0 {
                            queue.push(t);
                        }
                    }
                }
                if c != u32::MAX {
                    let chain = &outs[b].unit_chains[c as usize];
                    if (ci as usize) + 1 < chain.len() {
                        let t = local_of[chain[ci as usize + 1].index()];
                        indeg[t as usize] -= 1;
                        if indeg[t as usize] == 0 {
                            queue.push(t);
                        }
                    }
                }
            }
            assert_eq!(popped, ops.len(), "block {b}: combined subgraph has a cycle");
            for (c, chain) in out.unit_chains.iter().enumerate() {
                if let Some(&last) = chain.last() {
                    chain_avail[c] = finish[last.index()];
                }
                unit_threads[c].extend_from_slice(chain);
            }
            for &v in ops {
                local_of[v.index()] = u32::MAX;
            }
        }

        let cp = hls_ir::algo::sink_distances(&self.g).into_iter().max().unwrap_or(0);
        let lower_bound = cp.max(ledger_floor);
        Ok(ParallelRun {
            schedule,
            diameter,
            lower_bound,
            unit_threads,
            meta_order,
            cut_edges: self.partition.cut_size(&self.g),
            block_diameters: outs.iter().map(|o| o.diameter).collect(),
        })
    }

    /// Materialises a stitched run back into a live
    /// [`ThreadedScheduler`]: replays the stitched placement through
    /// the engine's own `commit` (tail inserts, combined topological
    /// order), rebuilding the full incremental state so ECO refinement
    /// continues to work. The materialised state's diameter equals
    /// `run.diameter` (same threaded graph, same longest path).
    ///
    /// This rebuilds the whole-graph reachability index, so it costs
    /// what `ThreadedScheduler::new` costs — intended for moderate
    /// sizes and for the invariant/differential test layer, not for
    /// the million-op fast path.
    ///
    /// # Errors
    ///
    /// The errors of [`ThreadedScheduler::new`] and
    /// [`ThreadedScheduler::schedule`].
    pub fn materialize(&self, run: &ParallelRun) -> Result<ThreadedScheduler, SchedError> {
        let _span = hls_obs::obs_span!(ParallelMaterialize, "", self.g.len() as u64);
        let mut ts = ThreadedScheduler::new(self.g.clone(), self.resources.clone())?;
        let mut tails: Vec<Option<OpId>> = vec![None; self.resources.k()];
        for &v in &run.meta_order {
            match run.schedule.unit(v) {
                None => {
                    // Wire-class ops get their own singleton threads,
                    // exactly as in sequential scheduling.
                    ts.schedule(v)?;
                }
                Some(k) => {
                    ts.commit(Placement { thread: k, after: tails[k], cost: 0 }, v);
                    tails[k] = Some(v);
                }
            }
        }
        Ok(ts)
    }
}
