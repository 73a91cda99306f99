//! Selector explainability: why Algorithm 7 chose each block's kernel.
//!
//! Every [`crate::blocked::BlockedTri`] plan carries a [`SelectionReport`]:
//! per block, the Algorithm 7 input statistics (`nnz/row`, `nlevels`,
//! `emptyratio`), the kernel chosen, the candidates rejected, the threshold
//! whose comparison decided it, and the level-set shape of triangular
//! blocks (level count, rows-per-level histogram). Plan-wide it records the
//! recursion depth and the wall-clock cost of the recursive level-set
//! reorder. The report is assembled at preprocessing time — the solve hot
//! path never touches it.
//!
//! Surfaced through [`crate::solver::RecBlockSolver::explain`] and the
//! `planctl explain` subcommand; the per-block statistics are exactly the
//! axes of the paper's Figure 5 selector heatmap, so a report can be read
//! against it directly.

use crate::adaptive::{Selector, SpmvDecision, TriDecision, TriKernel};
use recblock_gpu_sim::cost::SpmvKind;
use recblock_gpu_sim::{SpmvProfile, TriProfile};
use recblock_kernels::exec::{ScheduleMode, TuneParams};
use recblock_kernels::TaskGraphStats;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// One-line rendering of the fields where `tune` differs from the process
/// defaults (empty string when it doesn't). Reconciliation messages use it
/// to name a *persisted* tuning instead of misattributing the plan to
/// default thresholds; `planctl explain` prints it as the plan's tune line.
pub fn tune_drift(tune: &TuneParams) -> String {
    let base = TuneParams::default();
    let mut parts = Vec::new();
    if tune.schedule_mode != base.schedule_mode {
        let mode = match tune.schedule_mode {
            ScheduleMode::Auto => "auto",
            ScheduleMode::LevelSync => "level-sync",
            ScheduleMode::PointToPoint => "p2p",
        };
        parts.push(format!("schedule_mode={mode}"));
    }
    if tune.par_rows != base.par_rows {
        parts.push(format!("par_rows={}", tune.par_rows));
    }
    if tune.fuse_nnz != base.fuse_nnz {
        parts.push(format!("fuse_nnz={}", tune.fuse_nnz));
    }
    if tune.chunk_nnz != base.chunk_nnz {
        parts.push(format!("chunk_nnz={}", tune.chunk_nnz));
    }
    if tune.lanes != base.lanes {
        parts.push(format!("lanes={}", tune.lanes));
    }
    if tune.p2p_min_parallel != base.p2p_min_parallel {
        parts.push(format!("p2p_min_parallel={}", tune.p2p_min_parallel));
    }
    if tune.p2p_chunk_nnz != base.p2p_chunk_nnz {
        parts.push(format!("p2p_chunk_nnz={}", tune.p2p_chunk_nnz));
    }
    parts.join(" ")
}

/// Rows-per-level shape of a triangular block after reordering — the
/// structure that decides how well a level-scheduled kernel can do.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelShape {
    /// Number of levels.
    pub nlevels: usize,
    /// Rows of the widest level.
    pub max_level_rows: usize,
    /// Mean rows per level.
    pub mean_level_rows: f64,
    /// Log₂ histogram: `(upper bound on rows-per-level, levels in bucket)`,
    /// ascending; bucket `(u, c)` counts levels with `u/2 < rows ≤ u`.
    pub hist: Vec<(usize, usize)>,
}

impl LevelShape {
    /// Summarise a rows-per-level profile (`level_rows[l]` = rows of level
    /// `l`, as in [`TriProfile::level_rows`]).
    pub fn from_level_rows(level_rows: &[usize]) -> Self {
        let nlevels = level_rows.len();
        // Saturate rather than trust the input: a plan decoded from a
        // corrupt file can claim absurd per-level row counts, and a summary
        // must never panic where the decoder chose to be lenient.
        let total: usize = level_rows.iter().fold(0usize, |a, &r| a.saturating_add(r));
        let max_level_rows = level_rows.iter().copied().max().unwrap_or(0);
        let mut hist: Vec<(usize, usize)> = Vec::new();
        for &r in level_rows {
            let ub = r.max(1).checked_next_power_of_two().unwrap_or(usize::MAX);
            match hist.binary_search_by_key(&ub, |&(u, _)| u) {
                Ok(i) => hist[i].1 += 1,
                Err(i) => hist.insert(i, (ub, 1)),
            }
        }
        LevelShape {
            nlevels,
            max_level_rows,
            mean_level_rows: if nlevels == 0 { 0.0 } else { total as f64 / nlevels as f64 },
            hist,
        }
    }
}

/// Shape-specific half of a [`BlockDecision`].
#[derive(Debug, Clone, PartialEq)]
pub enum BlockDecisionKind {
    /// Triangular diagonal block (SpTRSV kernel selection).
    Tri {
        /// The explained Algorithm 7 decision.
        decision: TriDecision,
        /// Observed `nnz/row` (selection input).
        nnz_per_row: f64,
        /// Observed level count (selection input).
        nlevels: usize,
        /// Rows-per-level shape after reordering.
        shape: LevelShape,
        /// `(runs, parallel launches)` of the preplanned engine schedule,
        /// for the schedule-based kernels (level-set, cuSPARSE-like).
        schedule: Option<(usize, usize)>,
        /// Synchronisation scheme of the engine schedule (`"p2p"` or
        /// `"level-sync"`); `None` for the diagonal kernel, which runs no
        /// engine schedule.
        schedule_mode: Option<&'static str>,
        /// Shape of the compiled point-to-point task graph, when the block
        /// runs barrier-free.
        tasks: Option<TaskGraphStats>,
    },
    /// Square update block (SpMV kernel selection).
    Square {
        /// The explained Algorithm 7 decision (including any build-time
        /// overrides, stated in its rule text).
        decision: SpmvDecision,
        /// Observed `nnz/row` (selection input).
        nnz_per_row: f64,
        /// Observed empty-row ratio (selection input).
        empty_ratio: f64,
        /// Parallel chunks of the preplanned SpMV schedule.
        nchunks: usize,
    },
}

/// One block's explained kernel selection, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecision {
    /// Position in the execution-order block list.
    pub index: usize,
    /// Row range in the reordered matrix.
    pub rows: Range<usize>,
    /// Column range in the reordered matrix.
    pub cols: Range<usize>,
    /// Stored nonzeros of the block.
    pub nnz: usize,
    /// The decision itself.
    pub kind: BlockDecisionKind,
}

impl BlockDecision {
    /// The chosen kernel's display name.
    pub fn kernel_name(&self) -> &'static str {
        match &self.kind {
            BlockDecisionKind::Tri { decision, .. } => decision.chosen.name(),
            BlockDecisionKind::Square { decision, .. } => decision.chosen.name(),
        }
    }

    /// Name of the threshold whose comparison decided the kernel.
    pub fn threshold(&self) -> &'static str {
        match &self.kind {
            BlockDecisionKind::Tri { decision, .. } => decision.threshold,
            BlockDecisionKind::Square { decision, .. } => decision.threshold,
        }
    }
}

/// The plan-wide explainability report attached to every
/// [`crate::blocked::BlockedTri`].
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionReport {
    /// Rows of the system.
    pub n: usize,
    /// Nonzeros of the system.
    pub nnz: usize,
    /// Recursion depth of the block plan.
    pub depth: usize,
    /// Wall-clock cost of the recursive level-set reorder; `None` when
    /// reordering was disabled or the plan was loaded from a store (the
    /// original timing was not persisted).
    pub reorder_time: Option<Duration>,
    /// `true` when the report was re-derived from a persisted plan rather
    /// than recorded at build time — the chosen kernels are authoritative
    /// but the rule text was reconstructed with default thresholds.
    pub derived: bool,
    /// Per-block decisions in execution order.
    pub blocks: Vec<BlockDecision>,
}

impl SelectionReport {
    /// Decisions for the triangular blocks only.
    pub fn tri_blocks(&self) -> impl Iterator<Item = &BlockDecision> {
        self.blocks.iter().filter(|b| matches!(b.kind, BlockDecisionKind::Tri { .. }))
    }

    /// Decisions for the square blocks only.
    pub fn square_blocks(&self) -> impl Iterator<Item = &BlockDecision> {
        self.blocks.iter().filter(|b| matches!(b.kind, BlockDecisionKind::Square { .. }))
    }

    /// Full multi-line rendering: the summary plus, per block, the decision
    /// rule, the rejected candidates, and (for triangular blocks) the
    /// rows-per-level histogram. `planctl explain --kernels` prints this.
    pub fn detail(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{self}");
        for b in &self.blocks {
            let _ = writeln!(out, "\nblock {:>3}  rows {:?}  cols {:?}", b.index, b.rows, b.cols);
            match &b.kind {
                BlockDecisionKind::Tri {
                    decision,
                    nnz_per_row,
                    nlevels,
                    shape,
                    schedule,
                    schedule_mode,
                    tasks,
                } => {
                    let _ = writeln!(
                        out,
                        "  tri    -> {}  (deciding threshold: {})",
                        tri_pick_label(decision, *schedule_mode),
                        decision.threshold
                    );
                    let _ = writeln!(out, "  rule     {}", decision.rule);
                    let _ = writeln!(
                        out,
                        "  rejected {}",
                        decision.rejected.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
                    );
                    let _ = writeln!(
                        out,
                        "  stats    nnz/row={nnz_per_row:.2} nlevels={nlevels} \
                         max_level_rows={} mean_level_rows={:.1}",
                        shape.max_level_rows, shape.mean_level_rows
                    );
                    if let Some((runs, par)) = schedule {
                        let _ = writeln!(
                            out,
                            "  schedule {runs} runs, {par} parallel launches \
                             ({} levels coarsened away){}",
                            nlevels.saturating_sub(*runs),
                            match schedule_mode {
                                Some(m) => format!(", mode {m}"),
                                None => String::new(),
                            }
                        );
                    }
                    if let Some(ts) = tasks {
                        let _ = writeln!(
                            out,
                            "  taskgraph {} tasks on {} threads, {} cross-thread edges, \
                             critical path {}",
                            ts.ntasks, ts.nthreads, ts.cross_edges, ts.critical_path
                        );
                    }
                    let hist = shape
                        .hist
                        .iter()
                        .map(|(u, c)| format!("<={u}:{c}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let _ = writeln!(out, "  rows/level histogram  {hist}");
                }
                BlockDecisionKind::Square { decision, nnz_per_row, empty_ratio, nchunks } => {
                    let _ = writeln!(
                        out,
                        "  square -> {}  (deciding threshold: {})",
                        decision.chosen.name(),
                        decision.threshold
                    );
                    let _ = writeln!(out, "  rule     {}", decision.rule);
                    let _ = writeln!(
                        out,
                        "  rejected {}",
                        decision.rejected.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
                    );
                    let _ = writeln!(
                        out,
                        "  stats    nnz/row={nnz_per_row:.2} emptyratio={empty_ratio:.2} \
                         spmv chunks={nchunks}"
                    );
                }
            }
        }
        out
    }
}

impl fmt::Display for SelectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: n={} nnz={} depth={} blocks={}{}",
            self.n,
            self.nnz,
            self.depth,
            self.blocks.len(),
            if self.derived { "  (re-derived from persisted plan)" } else { "" }
        )?;
        match self.reorder_time {
            Some(t) => writeln!(f, "reorder: {t:?}")?,
            None => writeln!(f, "reorder: skipped or not recorded")?,
        }
        for b in &self.blocks {
            match &b.kind {
                BlockDecisionKind::Tri {
                    decision, nnz_per_row, nlevels, schedule_mode, ..
                } => writeln!(
                    f,
                    "block {:>3}  tri    {:>7} rows -> {:<19} deciding: {:<21} \
                     [nnz/row={:.2} nlevels={}]",
                    b.index,
                    b.rows.len(),
                    tri_pick_label(decision, *schedule_mode),
                    decision.threshold,
                    nnz_per_row,
                    nlevels
                )?,
                BlockDecisionKind::Square { decision, nnz_per_row, empty_ratio, .. } => writeln!(
                    f,
                    "block {:>3}  square {:>7} rows -> {:<19} deciding: {:<21} \
                     [nnz/row={:.2} emptyratio={:.2}]",
                    b.index,
                    b.rows.len(),
                    decision.chosen.name(),
                    decision.threshold,
                    nnz_per_row,
                    empty_ratio
                )?,
            }
        }
        Ok(())
    }
}

/// Display name of a triangular block's Algorithm 7 pick. A sync-free pick
/// runs on the engine, so its label names the schedule too, e.g.
/// `sync-free → engine p2p`.
fn tri_pick_label(decision: &TriDecision, schedule_mode: Option<&str>) -> String {
    match (decision.chosen, schedule_mode) {
        (TriKernel::SyncFree, Some(mode)) => format!("sync-free → engine {mode}"),
        (k, _) => k.name().to_string(),
    }
}

/// Explain a triangular block's selection, reconciled against the kernel
/// the block actually carries (they differ only for persisted plans whose
/// original selector is unknown).
pub(crate) fn tri_decision(
    selector: &Selector,
    profile: &TriProfile,
    actual: TriKernel,
    tune: &TuneParams,
) -> TriDecision {
    let mut d = selector.explain_tri_shaped(profile.nnz_per_row(), profile.nlevels(), profile.n);
    if d.chosen != actual {
        let drift = tune_drift(tune);
        if drift.is_empty() {
            d.rule.push_str(&format!(
                "; persisted plan stores {}: original selector not recorded, rule re-derived \
                 from default thresholds",
                actual.name()
            ));
        } else {
            d.rule.push_str(&format!(
                "; persisted plan stores {} under tuned params [{drift}]: original selector \
                 not recorded, rule re-derived from the persisted tuning",
                actual.name()
            ));
        }
        d.rejected.retain(|k| *k != actual);
        d.rejected.push(d.chosen);
        d.chosen = actual;
        d.threshold = "persisted";
    }
    d
}

/// Explain a square block's selection, replaying the build-time overrides
/// ([`crate::sqsolver::SqSolver::build_tuned`]'s load-imbalance guard and
/// DCSR downgrade) so the rule text states why the stored kernel differs
/// from the raw Algorithm 7 pick. `allow_dcsr = None` means unknown (a
/// persisted plan).
pub(crate) fn spmv_decision(
    selector: &Selector,
    profile: &SpmvProfile,
    actual: SpmvKind,
    allow_dcsr: Option<bool>,
    tune: &TuneParams,
) -> SpmvDecision {
    let mut d = selector.explain_spmv(profile.nnz_per_row(), profile.empty_ratio());
    let avg = profile.nnz_per_row().max(1.0);
    if profile.max_row as f64 > 32.0 * avg {
        let upgraded = match d.chosen {
            SpmvKind::ScalarCsr => SpmvKind::VectorCsr,
            SpmvKind::ScalarDcsr => SpmvKind::VectorDcsr,
            k => k,
        };
        if upgraded != d.chosen {
            d.rule.push_str(&format!(
                "; load-imbalance guard: max_row={} > 32 x nnz/row, scalar upgraded to {}",
                profile.max_row,
                upgraded.name()
            ));
            d.rejected.retain(|k| *k != upgraded);
            d.rejected.push(d.chosen);
            d.chosen = upgraded;
        }
    }
    if allow_dcsr == Some(false) {
        let down = match d.chosen {
            SpmvKind::ScalarDcsr => SpmvKind::ScalarCsr,
            SpmvKind::VectorDcsr => SpmvKind::VectorCsr,
            k => k,
        };
        if down != d.chosen {
            d.rule.push_str("; DCSR disabled (ablation): downgraded to CSR storage");
            d.rejected.retain(|k| *k != down);
            d.rejected.push(d.chosen);
            d.chosen = down;
        }
    }
    if d.chosen != actual {
        let drift = tune_drift(tune);
        if drift.is_empty() {
            d.rule.push_str(&format!(
                "; persisted plan stores {}: original selector/options not recorded, rule \
                 re-derived from defaults",
                actual.name()
            ));
        } else {
            d.rule.push_str(&format!(
                "; persisted plan stores {} under tuned params [{drift}]: original \
                 selector/options not recorded, rule re-derived from the persisted tuning",
                actual.name()
            ));
        }
        d.rejected.retain(|k| *k != actual);
        d.rejected.push(d.chosen);
        d.chosen = actual;
        d.threshold = "persisted";
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_shape_histogram_buckets_by_power_of_two() {
        let shape = LevelShape::from_level_rows(&[1, 1, 2, 3, 4, 9, 1000]);
        assert_eq!(shape.nlevels, 7);
        assert_eq!(shape.max_level_rows, 1000);
        assert!((shape.mean_level_rows - 1020.0 / 7.0).abs() < 1e-9);
        // 1→≤1 (x2), 2→≤2, 3,4→≤4, 9→≤16, 1000→≤1024.
        assert_eq!(shape.hist, vec![(1, 2), (2, 1), (4, 2), (16, 1), (1024, 1)]);
    }

    #[test]
    fn level_shape_handles_empty() {
        let shape = LevelShape::from_level_rows(&[]);
        assert_eq!(shape.nlevels, 0);
        assert_eq!(shape.mean_level_rows, 0.0);
        assert!(shape.hist.is_empty());
    }

    #[test]
    fn tri_decision_reconciles_persisted_mismatch() {
        let profile = TriProfile::from_levels(
            vec![10, 10], // level_rows
            vec![10, 20], // level_nnz
            vec![1, 2],   // level_max_row
            vec![1, 2],   // level_max_col
        );
        // Default thresholds pick level-set here; pretend the stored plan
        // carries sync-free.
        let d = tri_decision(
            &Selector::default(),
            &profile,
            TriKernel::SyncFree,
            &TuneParams::default(),
        );
        assert_eq!(d.chosen, TriKernel::SyncFree);
        assert_eq!(d.threshold, "persisted");
        assert!(d.rule.contains("persisted plan"));
        assert!(d.rule.contains("default thresholds"), "{}", d.rule);
        assert!(!d.rejected.contains(&TriKernel::SyncFree));
    }

    #[test]
    fn tri_decision_names_persisted_tune_on_mismatch() {
        let profile = TriProfile::from_levels(
            vec![10, 10], // level_rows
            vec![10, 20], // level_nnz
            vec![1, 2],   // level_max_row
            vec![1, 2],   // level_max_col
        );
        let tuned = TuneParams {
            schedule_mode: ScheduleMode::PointToPoint,
            p2p_chunk_nnz: 384,
            ..TuneParams::default()
        };
        let d = tri_decision(&Selector::default(), &profile, TriKernel::SyncFree, &tuned);
        assert_eq!(d.chosen, TriKernel::SyncFree);
        assert_eq!(d.threshold, "persisted");
        // The drift message must name the plan's persisted tuning, not
        // claim the process defaults were in force.
        assert!(d.rule.contains("schedule_mode=p2p"), "{}", d.rule);
        assert!(d.rule.contains("p2p_chunk_nnz=384"), "{}", d.rule);
        assert!(!d.rule.contains("default thresholds"), "{}", d.rule);
    }

    #[test]
    fn tune_drift_renders_only_non_default_fields() {
        assert_eq!(tune_drift(&TuneParams::default()), "");
        let tuned = TuneParams {
            schedule_mode: ScheduleMode::LevelSync,
            chunk_nnz: 8192,
            ..TuneParams::default()
        };
        assert_eq!(tune_drift(&tuned), "schedule_mode=level-sync chunk_nnz=8192");
    }

    #[test]
    fn spmv_decision_states_imbalance_guard() {
        // Short rows on average but one huge row: the guard upgrades
        // scalar→vector and the rule says so.
        let profile = SpmvProfile { nrows: 1000, ncols: 1000, nnz: 2000, lanes: 900, max_row: 500 };
        let d = spmv_decision(
            &Selector::default(),
            &profile,
            SpmvKind::VectorCsr,
            Some(true),
            &TuneParams::default(),
        );
        assert_eq!(d.chosen, SpmvKind::VectorCsr);
        assert!(d.rule.contains("load-imbalance guard"), "{}", d.rule);
    }

    #[test]
    fn spmv_decision_states_dcsr_downgrade() {
        // Hyper-sparse: raw pick is scalar-DCSR; with DCSR disabled the
        // stored kernel is scalar-CSR and the rule explains why.
        let profile = SpmvProfile { nrows: 1000, ncols: 1000, nnz: 400, lanes: 150, max_row: 4 };
        let d = spmv_decision(
            &Selector::default(),
            &profile,
            SpmvKind::ScalarCsr,
            Some(false),
            &TuneParams::default(),
        );
        assert_eq!(d.chosen, SpmvKind::ScalarCsr);
        assert!(d.rule.contains("DCSR disabled"), "{}", d.rule);
        assert!(d.rejected.contains(&SpmvKind::ScalarDcsr));
    }
}
