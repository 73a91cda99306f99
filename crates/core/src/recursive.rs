//! Recursive block SpTRSV (the paper's Algorithm 6, Figure 2(c)) — the
//! direct recursive formulation.
//!
//! A triangular matrix splits into a top triangular block, a square (or
//! near-square) block, and a bottom triangular block; the triangular halves
//! recurse. Solving is an in-order traversal: solve(top) → SpMV(square) →
//! solve(bottom). This is the formulation the paper's Section 3.3 then
//! replaces with a loop over execution-order blocks ([`crate::blocked`]);
//! both are kept so the suite can measure exactly what the improved layout
//! buys (an ablation bench compares them).

use crate::adaptive::Selector;
use crate::report::{SimBreakdown, SolveBreakdown};
use crate::sqsolver::SqSolver;
use crate::traffic::TrafficCounts;
use crate::trisolver::TriBlock;
use recblock_gpu_sim::{CostParams, DeviceSpec};
use recblock_kernels::exec::TuneParams;
use recblock_matrix::{Csr, MatrixError, Scalar};
use std::ops::Range;
use std::time::Instant;

/// One node of the recursion tree.
#[derive(Debug, Clone)]
enum Node<S> {
    Leaf {
        rows: Range<usize>,
        tri: Box<TriBlock<S>>,
    },
    Internal {
        top: Box<Node<S>>,
        square: Box<SqSolver<S>>,
        sq_rows: Range<usize>,
        sq_cols: Range<usize>,
        bottom: Box<Node<S>>,
    },
}

/// A preprocessed recursive-block solver (Algorithm 6).
#[derive(Debug, Clone)]
pub struct RecursiveBlockSolver<S> {
    n: usize,
    depth: usize,
    root: Node<S>,
    traffic: TrafficCounts,
}

impl<S: Scalar> RecursiveBlockSolver<S> {
    /// Recursively bisect `l` to the given depth and preprocess every block.
    pub fn new(l: &Csr<S>, depth: usize, selector: &Selector) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(l)?;
        let n = l.nrows();
        let mut traffic = TrafficCounts::default();
        let root = build(l, 0..n, depth, selector, &mut traffic)?;
        Ok(RecursiveBlockSolver { n, depth, root, traffic })
    }

    /// Recursion depth used (`2^depth` triangular leaves).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Dense-counted traffic of one solve (Tables 1–2 accounting).
    pub fn traffic(&self) -> TrafficCounts {
        self.traffic
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        Ok(self.solve_instrumented(b)?.0)
    }

    /// Solve and report the wall-clock tri/SpMV split.
    pub fn solve_instrumented(&self, b: &[S]) -> Result<(Vec<S>, SolveBreakdown), MatrixError> {
        if b.len() != self.n {
            return Err(MatrixError::DimensionMismatch {
                what: "recursive block rhs",
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut work = b.to_vec();
        let mut x = vec![S::ZERO; self.n];
        let mut br = SolveBreakdown::default();
        solve_node(&self.root, &mut work, &mut x, &mut br)?;
        Ok((x, br))
    }

    /// Predicted GPU time per part under the cost model.
    pub fn simulated_breakdown(&self, dev: &DeviceSpec, params: &CostParams) -> SimBreakdown {
        let mut sim = SimBreakdown::default();
        sim_node::<S>(&self.root, dev, params, &mut sim);
        sim
    }
}

fn build<S: Scalar>(
    l: &Csr<S>,
    range: Range<usize>,
    depth: usize,
    selector: &Selector,
    traffic: &mut TrafficCounts,
) -> Result<Node<S>, MatrixError> {
    if depth == 0 || range.len() < 2 {
        let tri = l.submatrix(range.clone(), range.clone());
        traffic.tri(range.len());
        let tri = TriBlock::build(tri, selector, TuneParams::default())?;
        return Ok(Node::Leaf { rows: range, tri: Box::new(tri) });
    }
    let mid = range.start + range.len() / 2;
    let top = build(l, range.start..mid, depth - 1, selector, traffic)?;
    let sq_rows = mid..range.end;
    let sq_cols = range.start..mid;
    let square = l.submatrix(sq_rows.clone(), sq_cols.clone());
    traffic.spmv(square.nrows(), square.ncols());
    let square = Box::new(SqSolver::build(square, selector, true));
    let bottom = build(l, mid..range.end, depth - 1, selector, traffic)?;
    Ok(Node::Internal { top: Box::new(top), square, sq_rows, sq_cols, bottom: Box::new(bottom) })
}

fn solve_node<S: Scalar>(
    node: &Node<S>,
    work: &mut [S],
    x: &mut [S],
    br: &mut SolveBreakdown,
) -> Result<(), MatrixError> {
    match node {
        Node::Leaf { rows, tri, .. } => {
            let t0 = Instant::now();
            let xs = tri.solver.solve(&work[rows.clone()])?;
            br.tri_s += t0.elapsed().as_secs_f64();
            x[rows.clone()].copy_from_slice(&xs);
            Ok(())
        }
        Node::Internal { top, square, sq_rows, sq_cols, bottom } => {
            solve_node(top, work, x, br)?;
            let t1 = Instant::now();
            square.apply(&x[sq_cols.clone()], &mut work[sq_rows.clone()])?;
            br.spmv_s += t1.elapsed().as_secs_f64();
            solve_node(bottom, work, x, br)
        }
    }
}

fn sim_node<S: Scalar>(
    node: &Node<S>,
    dev: &DeviceSpec,
    params: &CostParams,
    sim: &mut SimBreakdown,
) {
    match node {
        Node::Leaf { rows, tri } => {
            let ws = rows.len() * 3 * S::BYTES;
            sim.tri = sim.tri.seq(tri.simulated_time(ws, dev, params));
        }
        Node::Internal { top, square, sq_rows, sq_cols, bottom } => {
            sim_node::<S>(top, dev, params, sim);
            let ws = (sq_rows.len() + sq_cols.len()) * 2 * S::BYTES;
            sim.spmv = sim.spmv.seq(square.simulated_time(ws, dev, params));
            sim_node::<S>(bottom, dev, params, sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check(l: Csr<f64>, depth: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let s = RecursiveBlockSolver::new(&l, depth, &Selector::default()).unwrap();
        let x = s.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10, "depth={depth}");
    }

    #[test]
    fn matches_serial_various_depths() {
        let l = generate::random_lower::<f64>(600, 4.0, 31);
        for depth in 0..6usize {
            check(l.clone(), depth);
        }
    }

    #[test]
    fn matches_serial_on_structures() {
        check(generate::grid2d::<f64>(25, 24, 32), 3);
        check(generate::chain::<f64>(300, 33), 4);
        check(generate::kkt_like::<f64>(1000, 400, 3, 34), 2);
        check(generate::hub_power_law::<f64>(800, 6, 2, 30, 35), 3);
    }

    #[test]
    fn traffic_matches_dense_formula() {
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 36);
        for depth in [2usize, 4] {
            let parts = 1usize << depth;
            let s = RecursiveBlockSolver::new(&l, depth, &Selector::default()).unwrap();
            let t = s.traffic();
            assert_eq!(t.b_updates as f64, crate::traffic::recursive_b_updates(n, parts));
            assert_eq!(t.x_loads as f64, crate::traffic::recursive_x_loads(n, parts));
        }
    }

    #[test]
    fn recursive_traffic_beats_both_at_scale() {
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 37);
        let sel = Selector::default();
        let rec = RecursiveBlockSolver::new(&l, 4, &sel).unwrap().traffic();
        let col = crate::column::ColumnBlockSolver::new(&l, 16, &sel).unwrap().traffic();
        let row = crate::row::RowBlockSolver::new(&l, 16, &sel).unwrap().traffic();
        let sum = |t: crate::traffic::TrafficCounts| t.b_updates + t.x_loads;
        assert!(sum(rec) < sum(col));
        assert!(sum(rec) < sum(row));
    }

    #[test]
    fn depth_zero_is_single_solve() {
        let l = generate::random_lower::<f64>(150, 3.0, 38);
        let s = RecursiveBlockSolver::new(&l, 0, &Selector::default()).unwrap();
        let b = vec![2.0; 150];
        assert!(max_rel_diff(&s.solve(&b).unwrap(), &serial_csr(&l, &b).unwrap()) < 1e-10);
    }

    #[test]
    fn simulated_breakdown_positive() {
        let l = generate::random_lower::<f64>(500, 4.0, 39);
        let s = RecursiveBlockSolver::new(&l, 3, &Selector::default()).unwrap();
        let sim = s.simulated_breakdown(&DeviceSpec::titan_rtx_turing(), &CostParams::default());
        assert!(sim.tri.total_s > 0.0);
        assert!(sim.spmv.total_s > 0.0);
    }
}
