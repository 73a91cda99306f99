//! Column block SpTRSV (the paper's Algorithm 4, Figure 2(a)).
//!
//! The matrix is cut into `nseg` vertical strips. Strip `si` holds a
//! triangular block on the diagonal and a tall rectangular block covering
//! *all* remaining rows below it. The solve alternates: solve the strip's
//! triangular system, then one SpMV pushes its contribution into the whole
//! remaining right-hand side. This front-loads `b` updates — the traffic
//! disadvantage quantified in Table 1.

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

/// A preprocessed column-block solver.
#[derive(Debug, Clone)]
pub struct ColumnBlockSolver<S> {
    n: usize,
    segments: Vec<Range<usize>>,
    tris: Vec<TriBlock<S>>,
    /// `rects[si]`: rows `segments[si].end..n` × cols `segments[si]`
    /// (absent for the last strip).
    rects: Vec<SqSolver<S>>,
    traffic: TrafficCounts,
}

impl<S: Scalar> ColumnBlockSolver<S> {
    /// Partition `l` into `nseg` column blocks and preprocess every block.
    pub fn new(l: &Csr<S>, nseg: usize, selector: &Selector) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(l)?;
        let n = l.nrows();
        let segments = crate::partition::equal_segments(n, nseg);
        let mut tris = Vec::with_capacity(segments.len());
        let mut rects = Vec::new();
        let mut traffic = TrafficCounts::default();
        for (si, seg) in segments.iter().enumerate() {
            let tri = l.submatrix(seg.clone(), seg.clone());
            traffic.tri(seg.len());
            tris.push(TriBlock::build(tri, selector, TuneParams::default())?);
            if si + 1 < segments.len() {
                let rect = l.submatrix(seg.end..n, seg.clone());
                traffic.spmv(rect.nrows(), rect.ncols());
                rects.push(SqSolver::build(rect, selector, true));
            }
        }
        Ok(ColumnBlockSolver { n, segments, tris, rects, traffic })
    }

    /// Number of strips.
    pub fn nseg(&self) -> usize {
        self.segments.len()
    }

    /// Dense-counted traffic of one solve (Tables 1–2 accounting).
    pub fn traffic(&self) -> TrafficCounts {
        self.traffic
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        Ok(self.solve_instrumented(b)?.0)
    }

    /// Solve and report the wall-clock tri/SpMV split (Figure 4's metric).
    pub fn solve_instrumented(&self, b: &[S]) -> Result<(Vec<S>, SolveBreakdown), MatrixError> {
        if b.len() != self.n {
            return Err(MatrixError::DimensionMismatch {
                what: "column block rhs",
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut work = b.to_vec();
        let mut x = vec![S::ZERO; self.n];
        let mut br = SolveBreakdown::default();
        for (si, seg) in self.segments.iter().enumerate() {
            let t0 = Instant::now();
            let xs = self.tris[si].solver.solve(&work[seg.clone()])?;
            br.tri_s += t0.elapsed().as_secs_f64();
            x[seg.clone()].copy_from_slice(&xs);
            if si < self.rects.len() {
                let t1 = Instant::now();
                self.rects[si].apply(&x[seg.clone()], &mut work[seg.end..])?;
                br.spmv_s += t1.elapsed().as_secs_f64();
            }
        }
        Ok((x, br))
    }

    /// Predicted GPU time per part under the cost model.
    pub fn simulated_breakdown(&self, dev: &DeviceSpec, params: &CostParams) -> SimBreakdown {
        let mut sim = SimBreakdown::default();
        for (si, tri) in self.tris.iter().enumerate() {
            let seg = &self.segments[si];
            let ws = seg.len() * 3 * S::BYTES;
            sim.tri = sim.tri.seq(tri.simulated_time(ws, dev, params));
        }
        for (si, rect) in self.rects.iter().enumerate() {
            let seg = &self.segments[si];
            // The rectangular SpMV touches x over the strip plus b over all
            // remaining rows — the column method's huge working set.
            let ws = (seg.len() + rect.nrows()) * 2 * S::BYTES;
            sim.spmv = sim.spmv.seq(rect.simulated_time(ws, dev, params));
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check(l: Csr<f64>, nseg: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let s = ColumnBlockSolver::new(&l, nseg, &Selector::default()).unwrap();
        let x = s.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10, "nseg={nseg}");
    }

    #[test]
    fn matches_serial_various_segments() {
        let l = generate::random_lower::<f64>(600, 4.0, 11);
        for nseg in [1usize, 2, 3, 4, 8, 16] {
            check(l.clone(), nseg);
        }
    }

    #[test]
    fn matches_serial_on_structures() {
        check(generate::grid2d::<f64>(25, 24, 12), 4);
        check(generate::chain::<f64>(300, 13), 8);
        check(generate::kkt_like::<f64>(1000, 400, 3, 14), 4);
        check(generate::hub_power_law::<f64>(800, 6, 2, 30, 15), 4);
    }

    #[test]
    fn one_segment_is_plain_sptrsv() {
        let l = generate::random_lower::<f64>(200, 3.0, 16);
        let s = ColumnBlockSolver::new(&l, 1, &Selector::default()).unwrap();
        assert_eq!(s.nseg(), 1);
        let b = vec![1.0; 200];
        let x = s.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &serial_csr(&l, &b).unwrap()) < 1e-10);
    }

    #[test]
    fn traffic_matches_dense_formula() {
        // On a dense lower triangle the counters reproduce Table 1/2 exactly.
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 17);
        for parts in [4usize, 16] {
            let s = ColumnBlockSolver::new(&l, parts, &Selector::default()).unwrap();
            let t = s.traffic();
            assert_eq!(t.b_updates as f64, crate::traffic::column_b_updates(n, parts));
            assert_eq!(t.x_loads as f64, crate::traffic::column_x_loads(n, parts));
        }
    }

    #[test]
    fn instrumented_breakdown_sums() {
        let l = generate::random_lower::<f64>(400, 4.0, 18);
        let s = ColumnBlockSolver::new(&l, 4, &Selector::default()).unwrap();
        let (_, br) = s.solve_instrumented(&vec![1.0; 400]).unwrap();
        assert!(br.tri_s >= 0.0 && br.spmv_s >= 0.0);
        assert!(br.total_s() > 0.0);
    }

    #[test]
    fn simulated_breakdown_positive() {
        let l = generate::random_lower::<f64>(500, 4.0, 19);
        let s = ColumnBlockSolver::new(&l, 4, &Selector::default()).unwrap();
        let sim = s.simulated_breakdown(&DeviceSpec::titan_rtx_turing(), &CostParams::default());
        assert!(sim.tri.total_s > 0.0);
        assert!(sim.spmv.total_s > 0.0);
    }

    #[test]
    fn rejects_wrong_rhs() {
        let l = generate::random_lower::<f64>(100, 3.0, 20);
        let s = ColumnBlockSolver::new(&l, 4, &Selector::default()).unwrap();
        assert!(s.solve(&[1.0]).is_err());
    }
}
