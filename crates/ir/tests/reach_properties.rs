//! Property tests for the chain-cover reachability index: on random
//! DAGs mutated by random refinement sequences (`splice_on_edge` chains
//! and ECO-style added ops — the exact growth patterns the schedulers
//! produce), the incrementally grown [`ReachIndex`] must answer every
//! query exactly like the dense [`BitMatrix`] closure oracle.

use hls_ir::{algo, generate, reach::ReachIndex, DelayModel, PrecedenceGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts that `idx` agrees with the dense closures of `g` — both the
/// structural `check()` (chains, down/up rows) and an explicit
/// all-pairs `reaches` sweep against [`algo::closures`].
fn assert_matches_dense(
    idx: &ReachIndex,
    g: &PrecedenceGraph,
    tag: &str,
) -> Result<(), TestCaseError> {
    if let Err(e) = idx.check(g) {
        return Err(TestCaseError::fail(format!("[{tag}] index check: {e}")));
    }
    let (anc, desc) = algo::closures(g);
    for u in 0..g.len() {
        for v in 0..g.len() {
            prop_assert_eq!(
                idx.reaches(u, v),
                desc.get(u, v),
                "[{}] reaches({}, {})",
                tag,
                u,
                v
            );
        }
    }
    // Set-level probes (ChainExtrema) against the same oracle, over a
    // few deterministic stride-subsets of the vertices.
    for stride in [2usize, 3, 7] {
        let set: Vec<usize> = (0..g.len()).step_by(stride).collect();
        let ex = idx.extrema(set.iter().copied());
        for v in 0..g.len() {
            let want_reach = set.iter().any(|&u| desc.get(u, v));
            let want_by = set.iter().any(|&u| anc.get(u, v));
            prop_assert_eq!(
                idx.set_reaches(&ex, v),
                want_reach,
                "[{}] set_reaches stride {} at {}",
                tag,
                stride,
                v
            );
            prop_assert_eq!(
                idx.set_reached_by(&ex, v),
                want_by,
                "[{}] set_reached_by stride {} at {}",
                tag,
                stride,
                v
            );
        }
        // Convex closure: exactly the seeds plus the strictly-between
        // vertices.
        let cone = idx.convex_closure(&set);
        for v in 0..g.len() {
            let between = set.iter().any(|&u| desc.get(u, v))
                && set.iter().any(|&u| anc.get(u, v));
            let want = set.contains(&v) || between;
            prop_assert_eq!(
                cone.binary_search(&v).is_ok(),
                want,
                "[{}] convex_closure stride {} at {}",
                tag,
                stride,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered DAG, then a random sequence of refinement
    /// mutations; the grown index must stay exactly equivalent to a
    /// dense closure recomputed from scratch after every step.
    #[test]
    fn grown_index_matches_dense_closure(
        seed in 0u64..100_000,
        ops in 2usize..48,
        width in 2usize..10,
        mutations in 1usize..7,
    ) {
        let cfg = generate::LayeredConfig {
            ops,
            width,
            edge_prob: 0.3,
            ..generate::LayeredConfig::default()
        };
        let mut g = generate::layered_dag(seed, &cfg);
        let mut idx = ReachIndex::build(&g);
        assert_matches_dense(&idx, &g, "initial")?;
        // The refinement mutation shapes live in `hls_ir::generate`,
        // shared with the scheduler invariant fuzz suites.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        for m in 0..mutations {
            if rng.random_range(0..2u32) == 0 {
                generate::random_splice(&mut g, &mut rng, m);
            } else {
                generate::random_eco_op(&mut g, &mut rng, m);
            }
            idx.grow(&g);
            assert_matches_dense(&idx, &g, &format!("after mutation {m}"))?;
        }
        // A fresh build over the final graph picks a different chain
        // cover but must give identical answers.
        let fresh = ReachIndex::build(&g);
        for u in 0..g.len() {
            for v in 0..g.len() {
                prop_assert_eq!(idx.reaches(u, v), fresh.reaches(u, v), "grown vs fresh at ({}, {})", u, v);
            }
        }
    }

    /// Unstructured (non-layered) random DAGs exercise covers far from
    /// the generator's layer structure.
    #[test]
    fn index_matches_dense_closure_on_unstructured_dags(
        seed in 0u64..100_000,
        n in 1usize..40,
    ) {
        let g = generate::random_dag(seed, n, 0.2, &DelayModel::classic());
        let idx = ReachIndex::build(&g);
        assert_matches_dense(&idx, &g, "unstructured")?;
    }
}

/// One lane value, biased toward the extremum-row edge cases: the
/// sentinels 0 and `u16::MAX` (`NO_UP`-style saturation), the
/// off-by-one neighbours, and uniform noise.
fn lane(rng: &mut StdRng) -> u16 {
    match rng.random_range(0..16u32) {
        0..=2 => 0,
        3..=4 => 1,
        5..=6 => u16::MAX - 1,
        7..=9 => u16::MAX,
        _ => rng.random_range(0..65536u32) as u16,
    }
}

/// A row sized `4·blocks + tail` so every ragged-tail length 0–9
/// beyond the packed 4-lane words is drawn, including the all-tail
/// (< 4 lanes) and empty rows.
fn row(rng: &mut StdRng, blocks: usize, tail: usize) -> Vec<u16> {
    (0..4 * blocks + tail).map(|_| lane(rng)).collect()
}

/// Runs one differential round: the word-parallel `any_le` against
/// its scalar oracle on the same inputs, in both argument orders.
fn assert_kernels_match(dst: &[u16], src: &[u16], tag: &str) -> Result<(), TestCaseError> {
    use hls_ir::reach::kernels;
    prop_assert_eq!(
        kernels::any_le(dst, src),
        kernels::any_le_scalar(dst, src),
        "[{}] any_le",
        tag
    );
    // The probe relation is asymmetric — cover both argument orders.
    prop_assert_eq!(
        kernels::any_le(src, dst),
        kernels::any_le_scalar(src, dst),
        "[{}] any_le swapped",
        tag
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential fuzz of the word-parallel `any_le` probe against
    /// its scalar oracle: random rows across every ragged-tail
    /// length 0–9, lane values biased toward 0 / saturation, and
    /// mismatched row lengths (the kernels clamp to the shorter row).
    #[test]
    fn word_kernels_match_scalar_oracles(
        seed in 0u64..1_000_000,
        dst_blocks in 0usize..6,
        dst_tail in 0usize..10,
        src_blocks in 0usize..6,
        src_tail in 0usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
        let dst = row(&mut rng, dst_blocks, dst_tail);
        let src = row(&mut rng, src_blocks, src_tail);
        assert_kernels_match(&dst, &src, "fuzzed")?;
    }
}

/// The deterministic edge rows the fuzz bias can only make likely:
/// all-equal and all-saturated rows at every ragged-tail length 0–9 —
/// the carry/borrow extremes of the packed-guard-bit comparison, where
/// a SWAR off-by-one would hide.
#[test]
fn word_kernels_match_scalar_oracles_on_edge_rows() {
    for tail in 0usize..10 {
        for blocks in [0usize, 1, 3] {
            let n = 4 * blocks + tail;
            for v in [0u16, 1, u16::MAX - 1, u16::MAX] {
                let equal = vec![v; n];
                assert_kernels_match(&equal, &equal, &format!("all-{v} len {n}"))
                    .unwrap_or_else(|e| panic!("{e:?}"));
                // Saturated against its off-by-one neighbour: the
                // lane-subtract borrow straddles the guard bit.
                let below = vec![v.saturating_sub(1); n];
                assert_kernels_match(&equal, &below, &format!("{v} vs -1 len {n}"))
                    .unwrap_or_else(|e| panic!("{e:?}"));
                assert_kernels_match(&below, &equal, &format!("-1 vs {v} len {n}"))
                    .unwrap_or_else(|e| panic!("{e:?}"));
            }
            // Alternating saturated / zero lanes: adjacent-lane
            // isolation (a borrow must never cross a lane boundary).
            let alt: Vec<u16> = (0..n).map(|i| if i % 2 == 0 { u16::MAX } else { 0 }).collect();
            let rev: Vec<u16> = (0..n).map(|i| if i % 2 == 0 { 0 } else { u16::MAX }).collect();
            assert_kernels_match(&alt, &rev, &format!("alternating len {n}"))
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}
