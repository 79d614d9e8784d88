//! Seeded inputs: the flow workloads' design corpora and the service
//! workload's request scripts. The program only ever sees these
//! generated graphs, as `textfmt` text.

use crate::stats::{Fnv, SplitMix};
use hls_ir::{canon, generate, sim_operands, textfmt, DelayModel, OpId, OpKind, PrecedenceGraph};

/// Mixes a run seed with a stream tag, so each input family draws from
/// its own stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// A stress DAG with simulatable operands.
pub fn behavior(shape: u64, ops: usize) -> PrecedenceGraph {
    let mut g = generate::stress_dag(shape, ops);
    sim_operands::infer(&mut g);
    g
}

/// `base` extended by an engineering change of 1–5 new operations, each
/// reading one or two existing values: the shape the service's ECO path
/// grafts onto a cached design.
pub fn with_delta(base: &PrecedenceGraph, rng: &mut SplitMix) -> PrecedenceGraph {
    let mut g = base.clone();
    let delays = DelayModel::classic();
    for j in 0..rng.range(1, 5) {
        let kind = [OpKind::Add, OpKind::Sub, OpKind::Mul][rng.range(0, 2) as usize];
        let v = g.add_op(kind, delays.delay_of(kind), format!("eco{j}"));
        for _ in 0..rng.range(1, 2) {
            let p = OpId::from_index(rng.range(0, v.index() as u64 - 1) as usize);
            // A repeated pick is a duplicate edge; skipping it is fine.
            let _ = g.add_edge(p, v);
        }
    }
    sim_operands::infer(&mut g);
    g
}

/// One design of a flow corpus.
pub struct Design {
    pub id: u64,
    pub ops: usize,
    pub graph: PrecedenceGraph,
    pub text: String,
    pub hash: u128,
    /// The design plus a small delta, for the ECO measurement.
    pub eco_graph: PrecedenceGraph,
    pub register_budget: Option<usize>,
}

/// The sizes of a flow corpus: the same for every seed, so seeds vary
/// the shapes and not the size mix. The cold corpus is large because
/// compile time grows steeply with size and varies with shape, so its
/// percentiles rest on the few designs near each rank.
pub fn corpus_sizes(large: bool) -> Vec<usize> {
    if large {
        vec![20_000; 5]
    } else {
        (0..200).map(|i| 100 + (400 * i + 99) / 199).collect()
    }
}

/// The flow corpus of a seed, in its seeded compile order. In the cold
/// corpus every other size (by rank) carries a 16-register budget.
pub fn flow_corpus(seed: u64, large: bool) -> Vec<Design> {
    let mut rng = SplitMix::new(mix(seed, 1));
    let mut designs: Vec<Design> = corpus_sizes(large)
        .into_iter()
        .enumerate()
        .map(|(i, ops)| {
            let graph = behavior(mix(seed, 100 + i as u64), ops);
            let text = textfmt::to_text(&graph);
            let hash = canon::graph_hash(&graph);
            let eco_graph = with_delta(&graph, &mut rng);
            Design {
                id: i as u64,
                ops,
                graph,
                text,
                hash,
                eco_graph,
                register_budget: (!large && i % 2 == 1).then_some(16),
            }
        })
        .collect();
    rng.shuffle(&mut designs);
    designs
}

/// Fingerprint of a flow corpus: every design's text and delta.
pub fn corpus_hash(designs: &[Design]) -> u64 {
    let mut h = Fnv::new();
    for d in designs {
        h.write(d.text.as_bytes());
        h.write(textfmt::to_text(&d.eco_graph).as_bytes());
    }
    h.finish()
}

/// The class of a scripted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A graph not submitted before.
    Cold,
    /// An exact resubmission of the cold request at this index.
    Hit(usize),
    /// A delta on the cold request at this index, naming it as base.
    Eco(usize),
}

/// One scripted request.
pub struct Req {
    pub class: Class,
    pub text: String,
    pub ops: usize,
    /// Content hash of this request's graph (the base hash an ECO
    /// names is the hash of the cold request it extends).
    pub hash: u128,
}

/// The mix, per block of 20 requests in seeded order: 9 cold graphs,
/// 7 exact resubmissions, 4 ECO deltas. Fixed counts per block keep
/// the class shares, and so the latency percentiles, from drifting with
/// the seed.
const BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2];
/// Cold graph sizes in tens of operations (50, 60, …, 250), drawn as
/// seeded permutations of this ladder.
const COLD_SIZES: std::ops::RangeInclusive<usize> = 5..=25;
/// A resubmission or ECO names a cold request due at least this long
/// before it, so its base has normally been answered.
const BASE_LAG_S: f64 = 0.25;
/// ... and one of the most recent this many cold requests, well
/// inside the service's cache.
const BASE_WINDOW: usize = 64;

/// The request script of one open-loop phase: `n` requests at `rate`
/// per second, drawn from `stream` of `seed`. Before any base is old
/// enough, every request is cold.
pub fn script(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<Req> {
    let mut rng = SplitMix::new(mix(seed, 1000 + stream));
    let lag = (BASE_LAG_S * rate).ceil() as usize;
    let mut cold: Vec<(usize, PrecedenceGraph)> = Vec::new();
    let mut classes: Vec<u8> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if classes.is_empty() {
            classes = BLOCK.to_vec();
            rng.shuffle(&mut classes);
        }
        let class = classes.pop().expect("refilled above");
        let eligible: Vec<usize> = cold
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, (at, _))| at + lag <= i)
            .take(BASE_WINDOW)
            .map(|(k, _)| k)
            .collect();
        let pick = |rng: &mut SplitMix| eligible[rng.range(0, eligible.len() as u64 - 1) as usize];
        let req = if eligible.is_empty() || class == 0 {
            if sizes.is_empty() {
                sizes = COLD_SIZES.map(|s| 10 * s).collect();
                rng.shuffle(&mut sizes);
            }
            let ops = sizes.pop().expect("refilled above");
            let g = behavior(rng.next_u64(), ops);
            let text = textfmt::to_text(&g);
            let hash = canon::graph_hash(&g);
            cold.push((i, g));
            Req {
                class: Class::Cold,
                text,
                ops,
                hash,
            }
        } else if class == 1 {
            let k = pick(&mut rng);
            let (at, g) = &cold[k];
            Req {
                class: Class::Hit(*at),
                text: textfmt::to_text(g),
                ops: g.len(),
                hash: canon::graph_hash(g),
            }
        } else {
            let k = pick(&mut rng);
            let (at, base) = &cold[k];
            let g = with_delta(base, &mut rng);
            Req {
                class: Class::Eco(*at),
                text: textfmt::to_text(&g),
                ops: g.len(),
                hash: canon::graph_hash(&g),
            }
        };
        out.push(req);
    }
    out
}

/// Fingerprint of a script: classes, referenced indices and bytes.
pub fn script_hash(reqs: &[Req]) -> u64 {
    let mut h = Fnv::new();
    for r in reqs {
        let (tag, at) = match r.class {
            Class::Cold => (0u8, 0usize),
            Class::Hit(k) => (1, k),
            Class::Eco(k) => (2, k),
        };
        h.write(&[tag]);
        h.write(&(at as u64).to_le_bytes());
        h.write(r.text.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = script(7, 0, 60, 80.0);
        let b = script(7, 0, 60, 80.0);
        let c = script(8, 0, 60, 80.0);
        assert_eq!(script_hash(&a), script_hash(&b));
        assert_ne!(script_hash(&a), script_hash(&c));
        assert!(a.iter().any(|r| matches!(r.class, Class::Hit(_))));
        assert!(a.iter().any(|r| matches!(r.class, Class::Eco(_))));
    }

    #[test]
    fn deltas_extend_their_base() {
        let base = behavior(3, 60);
        let g = with_delta(&base, &mut SplitMix::new(1));
        assert!(g.len() > base.len() && g.len() <= base.len() + 5);
        assert!(g.extends(&base));
    }

    #[test]
    fn cold_sizes_span_100_to_500() {
        let s = corpus_sizes(false);
        assert_eq!((s[0], s[s.len() - 1], s.len()), (100, 500, 200));
    }
}
