//! Shared harness utilities: scaled devices, method evaluation, table
//! printing.

use crate::corpus::SCALE;
use recblock::adaptive::Selector;
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule};
use recblock::partition::depth_for;
use recblock_gpu_sim::cost;
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime, TriProfile};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, Scalar};

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Cost-model constants.
    pub params: CostParams,
    /// The two evaluation devices, L2-scaled to match the corpus scale.
    pub devices: Vec<DeviceSpec>,
    /// Row/nnz scale factor of the corpus relative to the paper's dataset.
    pub scale: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            params: CostParams { data_scale: SCALE as f64, ..CostParams::default() },
            devices: vec![
                scale_device(&DeviceSpec::titan_x_pascal(), SCALE),
                scale_device(&DeviceSpec::titan_rtx_turing(), SCALE),
            ],
            scale: SCALE,
        }
    }
}

/// Shrink a device's cache to match a corpus scaled down by `factor`,
/// preserving the working-set/L2 boundary that drives the locality effects.
/// Compute resources stay untouched — the corpus keeps its matrices large
/// enough to saturate them.
pub fn scale_device(dev: &DeviceSpec, factor: usize) -> DeviceSpec {
    DeviceSpec { l2_cache_bytes: (dev.l2_cache_bytes / factor.max(1)).max(16 << 10), ..dev.clone() }
}

/// The recursion-stop rule scaled with the corpus: the paper's
/// `20 × cores` rows divided by the corpus scale.
pub fn scaled_min_block_rows(dev: &DeviceSpec, scale: usize) -> usize {
    (dev.min_block_rows() / scale.max(1)).max(512)
}

/// Depth rule the harness uses for a matrix of `n` rows on `dev`.
pub fn harness_depth(n: usize, dev: &DeviceSpec, scale: usize) -> usize {
    depth_for(n, scaled_min_block_rows(dev, scale))
}

/// Predicted timings of the three compared methods on one matrix/device.
#[derive(Debug, Clone)]
pub struct MethodEval {
    /// cuSPARSE-v2-like solve.
    pub cusparse: KernelTime,
    /// Sync-free solve.
    pub syncfree: KernelTime,
    /// Recursive block solve.
    pub block: KernelTime,
    /// cuSPARSE analysis time (s).
    pub cusparse_prep: f64,
    /// Sync-free preprocessing (s).
    pub syncfree_prep: f64,
    /// Block-algorithm preprocessing (s).
    pub block_prep: f64,
    /// Nonzeros (for GFlops conversion).
    pub nnz: usize,
}

impl MethodEval {
    /// GFlops of the three methods `(cusparse, syncfree, block)`.
    pub fn gflops(&self) -> (f64, f64, f64) {
        (
            cost::gflops(self.nnz, self.cusparse.total_s),
            cost::gflops(self.nnz, self.syncfree.total_s),
            cost::gflops(self.nnz, self.block.total_s),
        )
    }

    /// Speedups of the block algorithm `(vs cusparse, vs syncfree)`.
    pub fn speedups(&self) -> (f64, f64) {
        (self.cusparse.total_s / self.block.total_s, self.syncfree.total_s / self.block.total_s)
    }
}

/// Evaluate the three methods on `l` with the cost model (builds the
/// blocked structure internally; use [`evaluate_methods_with`] to reuse
/// one build across devices/precisions).
pub fn evaluate_methods<S: Scalar>(
    l: &Csr<S>,
    dev: &DeviceSpec,
    cfg: &HarnessConfig,
) -> MethodEval {
    let levels = LevelSets::analyse_unchecked(l);
    let profile = TriProfile::analyse(l, &levels);
    let blocked = build_blocked(l, dev, cfg);
    evaluate_methods_with(&profile, &blocked, l.nrows(), S::BYTES, dev, cfg)
}

/// Evaluate the three methods from a precomputed profile and blocked
/// structure, at an explicit element width.
pub fn evaluate_methods_with<S: Scalar>(
    profile: &TriProfile,
    blocked: &BlockedTri<S>,
    n: usize,
    scalar_bytes: usize,
    dev: &DeviceSpec,
    cfg: &HarnessConfig,
) -> MethodEval {
    // Whole-matrix solvers touch x and b across the full index range.
    let ws = n * 2 * scalar_bytes;
    let cusparse = cost::sptrsv_cusparse(profile, scalar_bytes, ws, dev, &cfg.params);
    let syncfree = cost::sptrsv_syncfree(profile, scalar_bytes, ws, dev, &cfg.params);
    let block = blocked.simulated_breakdown_bytes(scalar_bytes, dev, &cfg.params).total();
    MethodEval {
        cusparse,
        syncfree,
        block,
        cusparse_prep: cost::cusparse_analysis_time(profile, &cfg.params),
        syncfree_prep: cost::syncfree_prep_time(profile, &cfg.params),
        block_prep: blocked.simulated_prep_time(&cfg.params),
        // GFlops are reported for the full-scale structure the model priced.
        nnz: (profile.nnz as f64 * cfg.params.data_scale) as usize,
    }
}

/// Build the blocked structure the way the harness evaluates it.
pub fn build_blocked<S: Scalar>(
    l: &Csr<S>,
    dev: &DeviceSpec,
    cfg: &HarnessConfig,
) -> BlockedTri<S> {
    // Level counts of chain-like matrices scale with n, so the corpus scale
    // divides the paper's 20000-level cuSPARSE threshold the same way it
    // divides the recursion-stop row count.
    let thresholds = recblock::adaptive::Thresholds {
        cusparse_levels: (20_000 / cfg.scale.max(1)).max(100),
        ..recblock::adaptive::Thresholds::default()
    };
    let opts = BlockedOptions {
        depth: DepthRule::Fixed(harness_depth(l.nrows(), dev, cfg.scale)),
        reorder: true,
        selector: Selector::Adaptive(thresholds),
        allow_dcsr: true,
        tune: recblock_kernels::exec::TuneParams::default(),
    };
    BlockedTri::build(l, &opts).expect("corpus matrices are solvable")
}

/// Minimal fixed-width table printer for harness output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<I: IntoIterator<Item = T>, T: Into<String>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row<I: IntoIterator<Item = T>, T: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                let pad = widths[c] - cells[c].len();
                line.push_str(&" ".repeat(pad));
                line.push_str(&cells[c]);
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format seconds as milliseconds with sensible precision.
pub fn fmt_ms(s: f64) -> String {
    if s >= 1.0 {
        format!("{:.1}", s * 1e3)
    } else if s >= 1e-3 {
        format!("{:.2}", s * 1e3)
    } else {
        format!("{:.4}", s * 1e3)
    }
}

/// Format a GFlops value.
pub fn fmt_gf(g: f64) -> String {
    if g >= 10.0 {
        format!("{g:.1}")
    } else if g >= 0.1 {
        format!("{g:.2}")
    } else {
        format!("{g:.4}")
    }
}

/// Format a speedup factor.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Quartile summary used by the Figure 7 box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute box-plot statistics of a sample (panics on empty input).
pub fn box_stats(values: &[f64]) -> BoxStats {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
        }
    };
    BoxStats { min: v[0], q1: q(0.25), median: q(0.5), q3: q(0.75), max: *v.last().unwrap() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_matrix::generate;

    #[test]
    fn scaled_device_shrinks_l2_only() {
        let base = DeviceSpec::titan_rtx_turing();
        let s = scale_device(&base, 50);
        assert_eq!(s.cuda_cores, base.cuda_cores);
        assert!(s.l2_cache_bytes < base.l2_cache_bytes);
        assert!(s.l2_cache_bytes >= 16 << 10);
    }

    #[test]
    fn harness_depth_splits_large_matrices() {
        let dev = DeviceSpec::titan_rtx_turing();
        assert!(harness_depth(100_000, &dev, SCALE) >= 4);
        assert_eq!(harness_depth(1_000, &dev, SCALE), 0);
    }

    #[test]
    fn evaluate_methods_produces_ordering_on_kkt() {
        // High-parallelism matrix: the block algorithm should win.
        let l = generate::kkt_like::<f64>(60_000, 30_000, 8, 1);
        let cfg = HarnessConfig::default();
        let eval = evaluate_methods(&l, &cfg.devices[1], &cfg);
        let (s_cu, s_sf) = eval.speedups();
        assert!(s_cu > 1.0, "block should beat cusparse, got {s_cu}");
        assert!(s_sf > 1.0, "block should beat syncfree, got {s_sf}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn box_stats_quartiles() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(0.0123), "12.30");
        assert_eq!(fmt_x(2.0), "2.00x");
        assert_eq!(fmt_gf(45.75), "45.8");
    }
}
