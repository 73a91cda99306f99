//! Per-block triangular solver: one preprocessed kernel instance per
//! triangular block, built according to the adaptive selection.
//!
//! Every variant runs on the deterministic execution engine. Algorithm 7's
//! sync-free pick is built as the engine's [`LevelSetSolver`] (its
//! `ScheduleMode::Auto` chooses the point-to-point task graph or coarsened
//! level-sync per block), so a plan's triangular solves are bit-identical to
//! `serial_csr` on the block. `TriBlock` keeps the pick itself, which the
//! cost model and `explain` still report.

use crate::adaptive::{Selector, TriKernel};
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime, TriProfile};
use recblock_kernels::exec::{ExecPool, TuneParams};
use recblock_kernels::sptrsv::{
    parallel_diag, parallel_diag_into, CusparseLikeSolver, LevelSetSolver,
};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, MatrixError, Scalar};

/// A triangular block bound to the engine schedule that executes it.
#[derive(Debug, Clone)]
pub enum TriSolver<S> {
    /// Diagonal-only block (`SPTRSV-COMPLETELYPARALLEL`).
    Diag(Csr<S>),
    /// Level-set schedule (also runs Algorithm 7's sync-free pick).
    LevelSet(LevelSetSolver<S>),
    /// cuSPARSE-like merged-launch schedule.
    Cusparse(CusparseLikeSolver<S>),
}

/// A triangular block as a plan holds it: the solver that executes it, the
/// structural profile the selection read, and the kernel Algorithm 7
/// picked. The pick differs from [`TriSolver::kernel`] only for a sync-free
/// pick, which executes on the engine's level-set solver while the cost
/// model still prices it as sync-free.
#[derive(Debug, Clone)]
pub(crate) struct TriBlock<S> {
    /// The solver that executes the block.
    pub(crate) solver: TriSolver<S>,
    /// The block's structural profile.
    pub(crate) profile: TriProfile,
    /// The kernel Algorithm 7 picked.
    pub(crate) pick: TriKernel,
}

impl<S: Scalar> TriBlock<S> {
    /// Analyse a triangular block, run the adaptive selection, and build the
    /// picked kernel's solver under `tune`.
    pub(crate) fn build(
        l: Csr<S>,
        selector: &Selector,
        tune: TuneParams,
    ) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(&l)?;
        let levels = LevelSets::analyse_unchecked(&l);
        let profile = TriProfile::analyse(&l, &levels);
        let pick = selector.tri_shaped(profile.nnz_per_row(), profile.nlevels(), l.nrows());
        let solver = TriSolver::build(pick, l, levels, tune)?;
        Ok(TriBlock { solver, profile, pick })
    }

    /// Build `l` in its given row order if Algorithm 7 picks sync-free and
    /// the engine then sweeps it on one thread, which needs no level
    /// reorder. `None` otherwise. `levels` is the analysis of `l`.
    pub(crate) fn in_given_order(
        l: &Csr<S>,
        levels: &LevelSets,
        selector: &Selector,
        tune: TuneParams,
    ) -> Result<Option<Self>, MatrixError> {
        let n = l.nrows();
        let nnz_per_row = if n == 0 { 0.0 } else { l.nnz() as f64 / n as f64 };
        let pick = selector.tri_shaped(nnz_per_row, levels.nlevels(), n);
        if pick != TriKernel::SyncFree {
            return Ok(None);
        }
        let solver = TriSolver::build(pick, l.clone(), levels.clone(), tune)?;
        let profile = TriProfile::analyse(l, levels);
        Ok(solver.runs_serially().then_some(TriBlock { solver, profile, pick }))
    }

    /// Re-attach the pick to a block loaded from persisted parts, which
    /// store only the executing solver. A sync-free pick is the one that
    /// executes as another kernel (level-set), so it is re-derived from the
    /// profile with the default selector, as the selection report is.
    pub(crate) fn reloaded(solver: TriSolver<S>, profile: TriProfile) -> Self {
        let derived =
            Selector::default().tri_shaped(profile.nnz_per_row(), profile.nlevels(), profile.n);
        let pick = match solver.kernel() {
            TriKernel::LevelSet if derived == TriKernel::SyncFree => TriKernel::SyncFree,
            k => k,
        };
        TriBlock { solver, profile, pick }
    }

    /// Predicted GPU time of this block's solve under the cost model,
    /// priced as the picked kernel.
    pub(crate) fn simulated_time(
        &self,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        self.simulated_time_bytes(S::BYTES, working_set, dev, params)
    }

    /// As [`TriBlock::simulated_time`] but with an explicit element width,
    /// so one built structure can be priced at both precisions (Figure 7).
    pub(crate) fn simulated_time_bytes(
        &self,
        scalar_bytes: usize,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        use recblock_gpu_sim::cost;
        let p = &self.profile;
        match self.pick {
            TriKernel::CompletelyParallel => {
                cost::sptrsv_diag(p.n, scalar_bytes, working_set, dev, params)
            }
            TriKernel::LevelSet => cost::sptrsv_levelset(p, scalar_bytes, working_set, dev, params),
            TriKernel::SyncFree => cost::sptrsv_syncfree(p, scalar_bytes, working_set, dev, params),
            TriKernel::CusparseLike => {
                cost::sptrsv_cusparse(p, scalar_bytes, working_set, dev, params)
            }
        }
    }
}

impl<S: Scalar> TriSolver<S> {
    /// Build the solver for the kernel the selection picked, planning its
    /// schedule under `tune` (the plan-wide thresholds). `levels` must be
    /// the decomposition of `l` (the caller has it from block profiling). A
    /// sync-free pick becomes the level-set solver.
    pub fn build(
        kernel: TriKernel,
        l: Csr<S>,
        levels: LevelSets,
        tune: TuneParams,
    ) -> Result<Self, MatrixError> {
        Ok(match kernel {
            TriKernel::CompletelyParallel => TriSolver::Diag(l),
            TriKernel::LevelSet | TriKernel::SyncFree => {
                TriSolver::LevelSet(LevelSetSolver::with_tune(l, levels, tune))
            }
            TriKernel::CusparseLike => {
                TriSolver::Cusparse(CusparseLikeSolver::with_levels_tuned(l, levels, tune)?)
            }
        })
    }

    /// Rebuild this block's schedule under different engine tuning, keeping
    /// the kernel the selection chose. The schedule-based variants
    /// (level-set, cuSPARSE-like) re-plan from their already-analysed level
    /// decomposition — no reorder, no selection, no profiling. The diagonal
    /// variant has no tune-dependent schedule and is cloned as-is.
    pub fn retuned(&self, tune: TuneParams) -> Result<Self, MatrixError> {
        Ok(match self {
            TriSolver::Diag(l) => TriSolver::Diag(l.clone()),
            TriSolver::LevelSet(s) => TriSolver::LevelSet(LevelSetSolver::with_tune(
                s.matrix().clone(),
                s.levels().clone(),
                tune,
            )),
            TriSolver::Cusparse(s) => TriSolver::Cusparse(CusparseLikeSolver::with_levels_tuned(
                s.matrix().clone(),
                s.levels().clone(),
                tune,
            )?),
        })
    }

    /// Rows (= columns) of the block this solver was built for.
    pub fn n(&self) -> usize {
        match self {
            TriSolver::Diag(l) => l.nrows(),
            TriSolver::LevelSet(s) => s.matrix().nrows(),
            TriSolver::Cusparse(s) => s.matrix().nrows(),
        }
    }

    /// Stored nonzeros of the block.
    pub fn nnz(&self) -> usize {
        match self {
            TriSolver::Diag(l) => l.nnz(),
            TriSolver::LevelSet(s) => s.matrix().nnz(),
            TriSolver::Cusparse(s) => s.matrix().nnz(),
        }
    }

    /// Which kernel this solver executes (never [`TriKernel::SyncFree`]:
    /// that pick runs as [`TriKernel::LevelSet`]).
    pub fn kernel(&self) -> TriKernel {
        match self {
            TriSolver::Diag(_) => TriKernel::CompletelyParallel,
            TriSolver::LevelSet(_) => TriKernel::LevelSet,
            TriSolver::Cusparse(_) => TriKernel::CusparseLike,
        }
    }

    /// `(runs, parallel launches)` of the preplanned engine schedule, for
    /// the schedule-based variants (level-set, cuSPARSE-like). `None` for
    /// the diagonal variant, which has no level schedule.
    pub fn schedule_stats(&self) -> Option<(usize, usize)> {
        match self {
            TriSolver::LevelSet(s) => Some((s.schedule().nruns(), s.schedule().nparallel())),
            TriSolver::Cusparse(s) => Some((s.schedule().nruns(), s.schedule().nparallel())),
            TriSolver::Diag(_) => None,
        }
    }

    /// `true` when every solve runs on the calling thread alone.
    pub(crate) fn runs_serially(&self) -> bool {
        matches!(self, TriSolver::LevelSet(s) if s.task_stats().is_none() && s.schedule().nparallel() == 0)
    }

    /// How the block synchronises at solve time: `"p2p"` or `"level-sync"`
    /// for the schedule-based variants, `None` for diagonal blocks (no level
    /// schedule at all).
    pub fn schedule_mode(&self) -> Option<&'static str> {
        match self {
            TriSolver::LevelSet(s) => Some(s.schedule_mode()),
            TriSolver::Cusparse(_) => Some("level-sync"),
            TriSolver::Diag(_) => None,
        }
    }

    /// Shape of the compiled point-to-point task graph, when this block
    /// runs in p2p mode.
    pub fn task_stats(&self) -> Option<recblock_kernels::TaskGraphStats> {
        match self {
            TriSolver::LevelSet(s) => s.task_stats(),
            _ => None,
        }
    }

    /// Solve `L x = b` for this block.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        match self {
            TriSolver::Diag(l) => parallel_diag(l, b),
            TriSolver::LevelSet(s) => s.solve(b),
            TriSolver::Cusparse(s) => s.solve(b),
        }
    }

    /// Solve `L x = b` into a caller-provided buffer — the steady-state hot
    /// path. Every variant executes a preplanned schedule with zero heap
    /// allocations.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        match self {
            TriSolver::Diag(l) => parallel_diag_into(l, b, x, ExecPool::global()),
            TriSolver::LevelSet(s) => s.solve_into(b, x),
            TriSolver::Cusparse(s) => s.solve_into(b, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_gpu_sim::cost::SpmvKind;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check_kernel(kernel: TriKernel, l: Csr<f64>) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let levels = LevelSets::analyse(&l).unwrap();
        let s = TriSolver::build(kernel, l, levels, TuneParams::default()).unwrap();
        let x = s.solve(&b).unwrap();
        if kernel == TriKernel::SyncFree {
            // The sync-free pick runs on the deterministic engine: same
            // per-row arithmetic as the serial loop, so the same bits.
            assert_eq!(s.kernel(), TriKernel::LevelSet);
            assert_eq!(x, reference);
        } else {
            assert_eq!(s.kernel(), kernel);
            assert!(max_rel_diff(&x, &reference) < 1e-10, "{:?}", kernel);
        }
    }

    #[test]
    fn all_variants_solve_correctly() {
        check_kernel(TriKernel::CompletelyParallel, generate::diagonal::<f64>(300, 1));
        check_kernel(TriKernel::LevelSet, generate::grid2d::<f64>(20, 20, 2));
        check_kernel(TriKernel::SyncFree, generate::random_lower::<f64>(500, 4.0, 3));
        check_kernel(TriKernel::CusparseLike, generate::chain::<f64>(300, 4));
    }

    #[test]
    fn simulated_time_positive() {
        let l = generate::grid2d::<f64>(15, 15, 5);
        let selector = Selector::Fixed(TriKernel::LevelSet, SpmvKind::ScalarCsr);
        let t = TriBlock::build(l, &selector, TuneParams::default()).unwrap();
        let s = t.simulated_time(1 << 20, &DeviceSpec::titan_rtx_turing(), &CostParams::default());
        assert!(s.total_s > 0.0);
        assert_eq!(s.launches, t.profile.nlevels());
    }
}
