//! Property-based tests over the core invariants of the suite.
//!
//! Strategy: generate random lower-triangular systems (structure and
//! values), then assert the cross-cutting invariants — every solver agrees
//! with the serial reference, format conversions round-trip, level order is
//! topological, permutations are involutive, blocked storage conserves
//! nonzeros and traffic accounting matches the closed forms.

use proptest::prelude::*;
use recblock::adaptive::Selector;
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule};
use recblock::column::ColumnBlockSolver;
use recblock::recursive::RecursiveBlockSolver;
use recblock::reorder::recursive_levelset_reorder;
use recblock::row::RowBlockSolver;
use recblock_kernels::sptrsv::{serial_csr, CusparseLikeSolver, LevelSetSolver, SyncFreeSolver};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::permute::Permutation;
use recblock_matrix::vector::max_rel_diff;
use recblock_matrix::{generate, Csr};

/// Strategy: a random solvable lower-triangular matrix.
fn arb_lower() -> impl Strategy<Value = Csr<f64>> {
    (20usize..300, 0u64..1000, 1u32..60)
        .prop_map(|(n, seed, deg10)| generate::random_lower::<f64>(n, deg10 as f64 / 10.0, seed))
}

/// Strategy: a structured matrix from one of the generator families.
fn arb_structured() -> impl Strategy<Value = Csr<f64>> {
    (0usize..5, 30usize..200, 0u64..500).prop_map(|(family, n, seed)| match family {
        0 => generate::chain::<f64>(n, seed),
        1 => generate::banded::<f64>(n, 4, 0.6, seed),
        2 => generate::kkt_like::<f64>(n.max(40), n.max(40) / 2, 3, seed),
        3 => generate::layered::<f64>(n, (n / 10).max(2), 1.5, generate::LayerShape::Uniform, seed),
        _ => generate::hub_power_law::<f64>(n.max(50), 4, 2, n / 10, seed),
    })
}

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| (((i as u64).wrapping_mul(seed + 7) % 97) as f64) / 48.5 - 1.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_kernels_agree(l in arb_lower(), rhs_seed in 0u64..100) {
        let b = rhs_for(l.nrows(), rhs_seed);
        let reference = serial_csr(&l, &b).unwrap();
        let x1 = LevelSetSolver::new(l.clone()).unwrap().solve(&b).unwrap();
        let x2 = SyncFreeSolver::with_threads(&l, 3).unwrap().solve(&b).unwrap();
        let x3 = CusparseLikeSolver::analyse(l.clone()).unwrap().solve(&b).unwrap();
        prop_assert!(max_rel_diff(&x1, &reference) < 1e-9);
        prop_assert!(max_rel_diff(&x2, &reference) < 1e-9);
        prop_assert!(max_rel_diff(&x3, &reference) < 1e-9);
    }

    #[test]
    fn all_block_algorithms_agree(l in arb_structured(), nseg in 1usize..8, depth in 0usize..4) {
        let b = rhs_for(l.nrows(), 3);
        let reference = serial_csr(&l, &b).unwrap();
        let sel = Selector::default();
        let xc = ColumnBlockSolver::new(&l, nseg, &sel).unwrap().solve(&b).unwrap();
        let xr = RowBlockSolver::new(&l, nseg, &sel).unwrap().solve(&b).unwrap();
        let xq = RecursiveBlockSolver::new(&l, depth, &sel).unwrap().solve(&b).unwrap();
        let opts = BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() };
        let xb = BlockedTri::build(&l, &opts).unwrap().solve(&b).unwrap();
        prop_assert!(max_rel_diff(&xc, &reference) < 1e-9, "column");
        prop_assert!(max_rel_diff(&xr, &reference) < 1e-9, "row");
        prop_assert!(max_rel_diff(&xq, &reference) < 1e-9, "recursive");
        prop_assert!(max_rel_diff(&xb, &reference) < 1e-9, "blocked");
    }

    #[test]
    fn format_conversions_roundtrip(l in arb_lower()) {
        prop_assert_eq!(&l.to_csc().to_csr(), &l);
        prop_assert_eq!(&l.to_dcsr().to_csr(), &l);
        prop_assert_eq!(&l.transpose().transpose(), &l);
    }

    #[test]
    fn level_order_is_topological(l in arb_structured()) {
        let ls = LevelSets::analyse(&l).unwrap();
        for (i, j, _) in l.iter() {
            if j < i {
                prop_assert!(ls.level_of(j) < ls.level_of(i));
            }
        }
        // Levels partition all components.
        let total: usize = (0..ls.nlevels()).map(|lv| ls.level_size(lv)).sum();
        prop_assert_eq!(total, l.nrows());
    }

    #[test]
    fn reorder_preserves_solution(l in arb_structured(), depth in 0usize..4) {
        let b = rhs_for(l.nrows(), 5);
        let (r, p) = recursive_levelset_reorder(&l, depth).unwrap();
        prop_assert!(r.is_solvable_lower());
        prop_assert_eq!(r.nnz(), l.nnz());
        let y = serial_csr(&r, &p.gather(&b)).unwrap();
        let x = p.scatter(&y);
        let reference = serial_csr(&l, &b).unwrap();
        prop_assert!(max_rel_diff(&x, &reference) < 1e-9);
    }

    #[test]
    fn permutation_gather_scatter_involutive(fwd in proptest::collection::vec(0usize..1000, 1..64)) {
        // Build a valid permutation from the raw vector by ranking.
        let n = fwd.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (fwd[i], i));
        let p = Permutation::from_forward(idx).unwrap();
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
        prop_assert_eq!(p.scatter(&p.gather(&x)), x.clone());
        prop_assert_eq!(p.gather(&p.scatter(&x)), x);
    }

    #[test]
    fn blocked_storage_conserves_nnz(l in arb_structured(), depth in 0usize..4) {
        let opts = BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() };
        let blocked = BlockedTri::build(&l, &opts).unwrap();
        prop_assert_eq!(blocked.nnz(), l.nnz());
        prop_assert_eq!(blocked.nblocks(), (1usize << (depth + 1)) - 1);
        // Traffic accounting matches the closed forms on any matrix (the
        // counters are structure-independent); odd splits round each square
        // by at most one row/column, so allow one unit of slack per square.
        let parts = 1usize << depth;
        let t = blocked.traffic();
        let slack = parts as f64;
        let b_formula = recblock::traffic::recursive_b_updates(l.nrows(), parts);
        let x_formula = recblock::traffic::recursive_x_loads(l.nrows(), parts);
        prop_assert!((t.b_updates as f64 - b_formula).abs() <= slack);
        prop_assert!((t.x_loads as f64 - x_formula).abs() <= slack);
    }

    #[test]
    fn tuner_candidates_solve_bit_identically(l in arb_structured(), depth in 0usize..3, rhs_seed in 0u64..100) {
        // Every tuning the autotuner's candidate grid may pick must solve
        // bit-identically to the incumbent plan — retuning re-plans the
        // schedule, never the arithmetic — and stay within tolerance of the
        // serial reference.
        let b = rhs_for(l.nrows(), rhs_seed);
        let reference = serial_csr(&l, &b).unwrap();
        let opts = BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() };
        let plan = BlockedTri::build(&l, &opts).unwrap();
        let incumbent = plan.solve(&b).unwrap();
        prop_assert!(max_rel_diff(&incumbent, &reference) < 1e-9);
        for c in recblock::tune::candidate_grid(plan.tune()) {
            let cand = plan.retuned(c.tune).unwrap();
            prop_assert_eq!(cand.tune(), c.tune, "{}", c.name);
            let x = cand.solve(&b).unwrap();
            for (a, r) in x.iter().zip(&incumbent) {
                prop_assert_eq!(a.to_bits(), r.to_bits(), "candidate {} diverged", c.name);
            }
        }
    }

    #[test]
    fn syncfree_thread_count_invariance(l in arb_lower()) {
        let b = rhs_for(l.nrows(), 11);
        let x1 = SyncFreeSolver::with_threads(&l, 1).unwrap().solve(&b).unwrap();
        let x8 = SyncFreeSolver::with_threads(&l, 8).unwrap().solve(&b).unwrap();
        prop_assert!(max_rel_diff(&x1, &x8) < 1e-9);
    }
}
