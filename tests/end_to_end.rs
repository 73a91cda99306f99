//! Cross-crate integration tests: every solver in the suite, run end to end
//! over a common set of structures, must agree with the serial reference.

use recblock::adaptive::Selector;
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule};
use recblock::column::ColumnBlockSolver;
use recblock::recursive::RecursiveBlockSolver;
use recblock::row::RowBlockSolver;
use recblock::solver::{RecBlockSolver, SolverOptions};
use recblock_kernels::sptrsv::{serial_csr, CusparseLikeSolver, LevelSetSolver, SyncFreeSolver};
use recblock_matrix::vector::{max_rel_diff, residual_inf};
use recblock_matrix::{generate, Csr};

/// The structure zoo every solver is exercised on.
fn structures() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("diagonal", generate::diagonal::<f64>(400, 1)),
        ("chain", generate::chain::<f64>(400, 2)),
        ("banded", generate::banded::<f64>(500, 6, 0.5, 3)),
        ("grid", generate::grid2d::<f64>(22, 21, 4)),
        ("random", generate::random_lower::<f64>(600, 4.0, 5)),
        ("kkt", generate::kkt_like::<f64>(800, 300, 4, 6)),
        ("hub", generate::hub_power_law::<f64>(700, 6, 2, 40, 7)),
        ("layered", generate::layered::<f64>(650, 13, 2.0, generate::LayerShape::Uniform, 8)),
        (
            "heavy-rows",
            generate::with_heavy_rows(
                &generate::layered::<f64>(600, 9, 2.0, generate::LayerShape::Uniform, 9),
                2,
                150,
                9,
            ),
        ),
        ("dense", generate::dense_lower::<f64>(150, 10)),
    ]
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 31 % 101) as f64) / 50.0 - 1.0).collect()
}

#[test]
fn every_kernel_matches_serial_on_every_structure() {
    for (name, l) in structures() {
        let b = rhs(l.nrows());
        let reference = serial_csr(&l, &b).unwrap();
        let check = |x: Vec<f64>, solver: &str| {
            let d = max_rel_diff(&x, &reference);
            assert!(d < 1e-9, "{solver} on {name}: diff {d}");
        };

        check(LevelSetSolver::new(l.clone()).unwrap().solve(&b).unwrap(), "levelset");
        check(SyncFreeSolver::with_threads(&l, 4).unwrap().solve(&b).unwrap(), "syncfree");
        check(CusparseLikeSolver::analyse(l.clone()).unwrap().solve(&b).unwrap(), "cusparse-like");
    }
}

#[test]
fn every_block_algorithm_matches_serial_on_every_structure() {
    let sel = Selector::default();
    for (name, l) in structures() {
        let b = rhs(l.nrows());
        let reference = serial_csr(&l, &b).unwrap();
        let check = |x: Vec<f64>, solver: &str| {
            let d = max_rel_diff(&x, &reference);
            assert!(d < 1e-9, "{solver} on {name}: diff {d}");
        };

        check(ColumnBlockSolver::new(&l, 6, &sel).unwrap().solve(&b).unwrap(), "column");
        check(RowBlockSolver::new(&l, 6, &sel).unwrap().solve(&b).unwrap(), "row");
        check(RecursiveBlockSolver::new(&l, 3, &sel).unwrap().solve(&b).unwrap(), "recursive");
        let opts = BlockedOptions { depth: DepthRule::Fixed(3), ..BlockedOptions::default() };
        check(BlockedTri::build(&l, &opts).unwrap().solve(&b).unwrap(), "blocked");
    }
}

#[test]
fn high_level_solver_residuals_are_tiny() {
    for (name, l) in structures() {
        let b = rhs(l.nrows());
        let opts = SolverOptions { depth: DepthRule::Fixed(2), ..SolverOptions::default() };
        let solver = RecBlockSolver::new(&l, opts).unwrap();
        let x = solver.solve(&b).unwrap();
        let r = residual_inf(&l, &x, &b).unwrap();
        assert!(r < 1e-10, "{name}: residual {r}");
    }
}

#[test]
fn f32_pipeline_end_to_end() {
    let l = generate::layered::<f32>(500, 10, 2.0, generate::LayerShape::Uniform, 20);
    let b: Vec<f32> = (0..500).map(|i| (i % 9) as f32 - 4.0).collect();
    let opts = SolverOptions { depth: DepthRule::Fixed(3), ..SolverOptions::default() };
    let solver = RecBlockSolver::new(&l, opts).unwrap();
    let x = solver.solve(&b).unwrap();
    let r = residual_inf(&l, &x, &b).unwrap();
    assert!(r < 1e-4, "f32 residual {r}");
}

#[test]
fn matrix_market_roundtrip_through_solver() {
    // Write a generated matrix to Matrix Market, read it back, solve.
    let l = generate::grid2d::<f64>(18, 18, 21);
    let mut buf = Vec::new();
    recblock_matrix::mm::write_matrix_market(&l, &mut buf).unwrap();
    let l2: Csr<f64> = recblock_matrix::mm::read_matrix_market(buf.as_slice()).unwrap();
    let b = rhs(l2.nrows());
    let x1 = serial_csr(&l, &b).unwrap();
    let x2 = serial_csr(&l2, &b).unwrap();
    assert!(max_rel_diff(&x1, &x2) < 1e-12);
}

#[test]
fn solver_census_reflects_structure() {
    // A two-level KKT matrix after reorder should produce diagonal leaves.
    let l = generate::kkt_like::<f64>(2000, 800, 3, 22);
    let opts = SolverOptions { depth: DepthRule::Fixed(3), ..SolverOptions::default() };
    let solver = RecBlockSolver::new(&l, opts).unwrap();
    let census = solver.census();
    let diag = census
        .tri
        .iter()
        .find(|(k, _)| *k == recblock::adaptive::TriKernel::CompletelyParallel)
        .map(|(_, c)| *c)
        .unwrap_or(0);
    assert!(diag >= 4, "expected several diagonal leaves, census {census:?}");
}

#[test]
fn traffic_hierarchy_matches_paper_tables() {
    // Full pipeline check of the Tables 1–2 ordering on a dense matrix.
    let n = 128;
    let l = generate::dense_lower::<f64>(n, 23);
    let sel = Selector::default();
    let parts = 16usize;
    let col = ColumnBlockSolver::new(&l, parts, &sel).unwrap().traffic();
    let row = RowBlockSolver::new(&l, parts, &sel).unwrap().traffic();
    let rec = RecursiveBlockSolver::new(&l, 4, &sel).unwrap().traffic();
    assert!(col.b_updates > rec.b_updates && rec.b_updates > row.b_updates);
    assert!(row.x_loads > rec.x_loads && rec.x_loads > col.x_loads);
}
