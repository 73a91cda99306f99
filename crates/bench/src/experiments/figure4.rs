//! Figure 4: execution time of the **SpMV part** of the three block
//! algorithms versus the number of triangular parts, on the `kkt_power` and
//! `FullChip` analogues (the third and fourth matrices of Table 4), Titan
//! RTX.

use crate::harness::{fmt_ms, scale_device, HarnessConfig, Table};
use crate::representatives::representatives;
use recblock::adaptive::Selector;
use recblock::column::ColumnBlockSolver;
use recblock::recursive::RecursiveBlockSolver;
use recblock::row::RowBlockSolver;
use recblock_gpu_sim::DeviceSpec;
use recblock_matrix::{Csr, Scalar};

/// Part counts swept (powers of two, as in the figure).
pub const PART_COUNTS: [usize; 8] = [4, 8, 16, 32, 64, 128, 256, 512];

/// Run at full harness scale.
pub fn run(cfg: &HarnessConfig) -> String {
    run_shrunk(cfg, 1, &PART_COUNTS)
}

/// Run with an extra shrink factor and custom part counts (tests).
pub fn run_shrunk(cfg: &HarnessConfig, extra: usize, parts: &[usize]) -> String {
    let reps = representatives();
    let mut out = String::new();
    out.push_str(
        "== Figure 4: simulated SpMV-part time (ms) of the three block algorithms, Titan RTX ==\n",
    );
    let dev = scale_device(&DeviceSpec::titan_rtx_turing(), cfg.scale);
    for rep in [&reps[2], &reps[3]] {
        let l = rep.build_shrunk::<f64>(extra);
        out.push_str(&format!(
            "\n-- {} (analogue of {}): n = {}, nnz = {} --\n",
            rep.name,
            rep.original,
            l.nrows(),
            l.nnz()
        ));
        out.push_str(&sweep(&l, parts, &dev, cfg).render());
    }
    out.push_str("\nExpected shape: the recursive block SpMV time grows logarithmically with\n");
    out.push_str("the part count while column/row grow linearly, so recursive is lowest at\n");
    out.push_str("every nontrivial part count (paper Fig. 4).\n");
    out
}

fn sweep<S: Scalar>(l: &Csr<S>, parts: &[usize], dev: &DeviceSpec, cfg: &HarnessConfig) -> Table {
    let sel = Selector::default();
    let mut t = Table::new(["parts", "col (ms)", "row (ms)", "rec (ms)"]);
    for &p in parts {
        let depth = p.trailing_zeros() as usize;
        let col = ColumnBlockSolver::new(l, p, &sel).expect("solvable");
        let row = RowBlockSolver::new(l, p, &sel).expect("solvable");
        let rec = RecursiveBlockSolver::new(l, depth, &sel).expect("solvable");
        let c = col.simulated_breakdown(dev, &cfg.params).spmv.total_s;
        let r = row.simulated_breakdown(dev, &cfg.params).spmv.total_s;
        let q = rec.simulated_breakdown(dev, &cfg.params).spmv.total_s;
        t.row([p.to_string(), fmt_ms(c), fmt_ms(r), fmt_ms(q)]);
    }
    t
}

/// The machine-checkable claim of Figure 4: at larger part counts the
/// recursive SpMV time is the smallest of the three. Returns `(col, row,
/// rec)` simulated SpMV seconds at the given part count.
pub fn spmv_times_at<S: Scalar>(l: &Csr<S>, parts: usize, cfg: &HarnessConfig) -> (f64, f64, f64) {
    let dev = scale_device(&DeviceSpec::titan_rtx_turing(), cfg.scale);
    let sel = Selector::default();
    let depth = parts.trailing_zeros() as usize;
    let col = ColumnBlockSolver::new(l, parts, &sel).expect("solvable");
    let row = RowBlockSolver::new(l, parts, &sel).expect("solvable");
    let rec = RecursiveBlockSolver::new(l, depth, &sel).expect("solvable");
    (
        col.simulated_breakdown(&dev, &cfg.params).spmv.total_s,
        row.simulated_breakdown(&dev, &cfg.params).spmv.total_s,
        rec.simulated_breakdown(&dev, &cfg.params).spmv.total_s,
    )
}

/// CPU-measured variant: wall-clock SpMV-part times of the three block
/// algorithms on this machine (the paper's Figure 4 methodology, CPU
/// substrate). Each cell averages `repeats` instrumented solves.
pub fn run_measured(extra: usize, parts: &[usize], repeats: usize) -> String {
    let reps = representatives();
    let mut out = String::new();
    out.push_str("== Figure 4 (CPU-measured): wall-clock SpMV-part time (ms) ==\n");
    let sel = Selector::default();
    for rep in [&reps[2], &reps[3]] {
        let l = rep.build_shrunk::<f64>(extra);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        out.push_str(&format!("\n-- {} (n = {}, nnz = {}) --\n", rep.name, n, l.nnz()));
        let mut t = Table::new(["parts", "col (ms)", "row (ms)", "rec (ms)"]);
        for &p in parts {
            let depth = p.trailing_zeros() as usize;
            let col = ColumnBlockSolver::new(&l, p, &sel).expect("solvable");
            let row = RowBlockSolver::new(&l, p, &sel).expect("solvable");
            let rec = RecursiveBlockSolver::new(&l, depth, &sel).expect("solvable");
            let avg = |f: &dyn Fn() -> f64| -> f64 {
                (0..repeats).map(|_| f()).sum::<f64>() / repeats as f64
            };
            let c = avg(&|| col.solve_instrumented(&b).expect("solve").1.spmv_s);
            let r = avg(&|| row.solve_instrumented(&b).expect("solve").1.spmv_s);
            let q = avg(&|| rec.solve_instrumented(&b).expect("solve").1.spmv_s);
            t.row([p.to_string(), fmt_ms(c), fmt_ms(r), fmt_ms(q)]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_spmv_wins_at_scale() {
        let cfg = HarnessConfig::default();
        let rep = &representatives()[2]; // kkt_power analogue
        let l = rep.build_shrunk::<f64>(2);
        let (col, row, rec) = spmv_times_at(&l, 256, &cfg);
        assert!(rec <= col, "rec {rec} vs col {col}");
        assert!(rec <= row, "rec {rec} vs row {row}");
    }

    #[test]
    fn measured_mode_runs() {
        let r = run_measured(16, &[4, 8], 1);
        assert!(r.contains("CPU-measured"));
        assert!(r.contains("kkt_power-s"));
    }

    #[test]
    fn report_renders() {
        let cfg = HarnessConfig::default();
        let r = run_shrunk(&cfg, 16, &[4, 16]);
        assert!(r.contains("kkt_power-s"));
        assert!(r.contains("FullChip-s"));
    }
}
