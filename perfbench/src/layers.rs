//! Per-layer metrics of a traced run, computed from the spans and the
//! replica's structural counts.

use crate::replica::Replica;
use crate::stats::loglog_slope;
use crate::trace::{Tracer, LAYERS};
use crate::Metrics;
use std::collections::BTreeMap;

/// The structural counts of one replayed design.
pub struct DesignCounts {
    pub id: u64,
    pub ops: usize,
    pub transfers: usize,
    pub spills: usize,
    pub spill_iters: usize,
    pub chains_built: usize,
    pub chains_final: usize,
    pub race: (usize, usize, usize),
}

impl DesignCounts {
    pub fn of(id: u64, ops: usize, r: &Replica) -> DesignCounts {
        DesignCounts {
            id,
            ops,
            transfers: r.wire_delays,
            spills: r.spills,
            spill_iters: r.spill_iters,
            chains_built: r.chains_built,
            chains_final: r.chains_final,
            race: r.race,
        }
    }
}

/// Phases whose growth with design size is fitted.
const GROWTH: [&str; 15] = [
    "flow.replica",
    "ir.parse",
    "ir.hash",
    "hard.order",
    "core.build",
    "core.schedule",
    "search.race",
    "alloc.spill",
    "alloc.regalloc",
    "phys.place",
    "phys.annotate",
    "core.splice",
    "core.extract",
    "ir.validate",
    "flow.fsmd",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Appends the span-derived per-layer metrics. `designs` are the
/// replayed designs (cold requests on the service workload); `root`
/// names the root span of the path whose layer shares are reported.
pub fn span_metrics(m: &mut Metrics, tr: &Tracer, designs: &[DesignCounts], root: &str) {
    let nd = designs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&DesignCounts) -> usize| designs.iter().map(f).sum::<usize>() as f64;
    let ms_per_design = |name: &str| tr.total_and_max(name).0 as f64 / 1e6 / nd;
    let ms_per_call = |name: &str| {
        let calls = tr.spans.iter().filter(|s| s.name == name).count();
        ratio(tr.total_and_max(name).0 as f64 / 1e6, calls as f64)
    };

    let transfers = sum(&|d| d.transfers);
    let spills = sum(&|d| d.spills);
    let iters = sum(&|d| d.spill_iters);
    let built = sum(&|d| d.chains_built);
    let fin = sum(&|d| d.chains_final);
    let runs = sum(&|d| d.race.0);
    let aborted = sum(&|d| d.race.1);
    let rounds = sum(&|d| d.race.2);
    let meta_ops: f64 = tr
        .total_by_id("core.schedule")
        .keys()
        .filter_map(|id| designs.iter().find(|d| d.id == *id))
        .map(|d| d.ops as f64)
        .sum();

    m.push("phys.transfers", transfers / nd, "count");
    m.push("core.splices", (transfers + spills) / nd, "count");
    m.push("core.splice_ms", ms_per_design("core.splice"), "ms");
    m.push(
        "core.splice_ms_max",
        tr.total_and_max("core.splice").1 as f64 / 1e6,
        "ms",
    );
    m.push("core.chains_built", built / nd, "count");
    m.push("core.chains_final", fin / nd, "count");
    m.push("core.chain_growth", ratio(fin, built), "ratio");
    m.push("hard.order_ms", ms_per_design("hard.order"), "ms");
    m.push("flow.fsmd_ms", ms_per_design("flow.fsmd"), "ms");
    m.push("core.build_ms", ms_per_design("core.build"), "ms");
    m.push("core.schedule_ms", ms_per_design("core.schedule"), "ms");
    m.push(
        "core.commit_ns_per_op",
        ratio(tr.total_and_max("core.schedule").0 as f64, meta_ops),
        "ns",
    );
    m.push("core.extract_ms", ms_per_design("core.extract"), "ms");
    m.push("ir.validate_ms", ms_per_design("ir.validate"), "ms");
    m.push("search.race_ms", ms_per_design("search.race"), "ms");
    m.push("search.runs", runs / nd, "count");
    m.push("search.aborted_share", ratio(aborted, runs), "ratio");
    m.push("search.refine_rounds", rounds / nd, "count");
    m.push("alloc.spill_iters", iters / nd, "count");
    m.push("alloc.spills", spills / nd, "count");
    m.push("alloc.spill_yield", ratio(spills, iters), "ratio");
    m.push("alloc.spill_ms", ms_per_design("alloc.spill"), "ms");
    m.push("alloc.regalloc_ms", ms_per_design("alloc.regalloc"), "ms");
    m.push("phys.place_ms", ms_per_design("phys.place"), "ms");
    m.push("phys.annotate_ms", ms_per_design("phys.annotate"), "ms");
    m.push("ir.parse_ms", ms_per_call("ir.parse"), "ms");
    m.push("ir.hash_ms", ms_per_call("ir.hash"), "ms");
    m.push("flow.eco_ms", ms_per_call("flow.eco"), "ms");

    let ops_of: BTreeMap<u64, f64> = designs.iter().map(|d| (d.id, d.ops as f64)).collect();
    for phase in GROWTH {
        let pts: Vec<(f64, f64)> = tr
            .total_by_id(phase)
            .into_iter()
            .filter_map(|(id, ns)| ops_of.get(&id).map(|&ops| (ops, ns as f64)))
            .collect();
        m.push_owned(
            format!("{phase}.growth_exp"),
            loglog_slope(&pts),
            "exponent",
        );
    }

    let by_layer = tr.self_ns_by_layer(root);
    let total: u64 = by_layer.values().sum();
    for layer in LAYERS {
        let share = ratio(by_layer[layer] as f64, total as f64);
        m.push_owned(format!("{layer}.self_share"), share, "ratio");
    }
}

/// The service-side per-layer metrics; zeros on the flow workloads,
/// which run no service. The request latency tail and the ECO latency
/// are recorded here because they are not among the bounded end-to-end
/// metrics (perfbench/README.md says why).
pub struct ServeLayer {
    pub latency_ms_p90: f64,
    pub latency_ms_p99: f64,
    pub eco_ms_p50: f64,
    pub cold_service_ms_p50: f64,
    pub hit_service_ms_p50: f64,
    pub eco_service_ms_p50: f64,
    pub wait_ms_p50: f64,
    pub wait_ms_p99: f64,
    pub busy_frac: f64,
    pub hit_ratio: f64,
    pub eco_fallbacks: f64,
    pub shed: f64,
    pub timeouts: f64,
    pub degraded_frac: f64,
    pub lag_ms_p99: f64,
}

impl ServeLayer {
    pub const NONE: ServeLayer = ServeLayer {
        latency_ms_p90: 0.0,
        latency_ms_p99: 0.0,
        eco_ms_p50: 0.0,
        cold_service_ms_p50: 0.0,
        hit_service_ms_p50: 0.0,
        eco_service_ms_p50: 0.0,
        wait_ms_p50: 0.0,
        wait_ms_p99: 0.0,
        busy_frac: 0.0,
        hit_ratio: 0.0,
        eco_fallbacks: 0.0,
        shed: 0.0,
        timeouts: 0.0,
        degraded_frac: 0.0,
        lag_ms_p99: 0.0,
    };

    pub fn push(&self, m: &mut Metrics) {
        m.push("serve.latency_ms_p90", self.latency_ms_p90, "ms");
        m.push("serve.latency_ms_p99", self.latency_ms_p99, "ms");
        m.push("serve.eco_ms_p50", self.eco_ms_p50, "ms");
        m.push("serve.cold_service_ms_p50", self.cold_service_ms_p50, "ms");
        m.push("serve.hit_service_ms_p50", self.hit_service_ms_p50, "ms");
        m.push("serve.eco_service_ms_p50", self.eco_service_ms_p50, "ms");
        m.push("serve.wait_ms_p50", self.wait_ms_p50, "ms");
        m.push("serve.wait_ms_p99", self.wait_ms_p99, "ms");
        m.push("serve.busy_frac", self.busy_frac, "ratio");
        m.push("serve.hit_ratio", self.hit_ratio, "ratio");
        m.push("serve.eco_fallbacks", self.eco_fallbacks, "count");
        m.push("serve.shed", self.shed, "count");
        m.push("serve.timeouts", self.timeouts, "count");
        m.push("serve.degraded_frac", self.degraded_frac, "ratio");
        m.push("gen.lag_ms_p99", self.lag_ms_p99, "ms");
    }
}
