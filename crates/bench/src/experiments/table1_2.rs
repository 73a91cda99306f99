//! Tables 1–2: `b`-update and `x`-load traffic of the three block
//! algorithms — closed-form values plus instrumented counters measured on a
//! dense lower triangle (the setting the paper derives the formulas for).

use crate::harness::Table;
use recblock::adaptive::Selector;
use recblock::column::ColumnBlockSolver;
use recblock::recursive::RecursiveBlockSolver;
use recblock::row::RowBlockSolver;
use recblock::traffic;
use recblock_matrix::generate;

/// Run with the default measured matrix size (`n = 256`).
pub fn run() -> String {
    run_sized(256)
}

/// Run with an explicit dense-matrix size for the measured columns.
pub fn run_sized(n: usize) -> String {
    let mut out = String::new();
    out.push_str("== Table 1: items updated to right-hand side b (formula, coefficient of n) ==\n");
    let parts = [4usize, 16, 256, 65536];
    let mut t = Table::new(["method", "4", "16", "256", "65536"]);
    let coeff = |v: f64| format!("{:.4}n", v / n as f64);
    t.row([
        "col. block".to_string(),
        coeff(traffic::column_b_updates(n, parts[0])),
        coeff(traffic::column_b_updates(n, parts[1])),
        coeff(traffic::column_b_updates(n, parts[2])),
        coeff(traffic::column_b_updates(n, parts[3])),
    ]);
    t.row([
        "row block".to_string(),
        coeff(traffic::row_b_updates(n, parts[0])),
        coeff(traffic::row_b_updates(n, parts[1])),
        coeff(traffic::row_b_updates(n, parts[2])),
        coeff(traffic::row_b_updates(n, parts[3])),
    ]);
    t.row([
        "rec. block".to_string(),
        coeff(traffic::recursive_b_updates(n, parts[0])),
        coeff(traffic::recursive_b_updates(n, parts[1])),
        coeff(traffic::recursive_b_updates(n, parts[2])),
        coeff(traffic::recursive_b_updates(n, parts[3])),
    ]);
    out.push_str(&t.render());

    out.push_str(
        "\n== Table 2: items loaded from solution vector x (formula, coefficient of n) ==\n",
    );
    let mut t = Table::new(["method", "4", "16", "256", "65536"]);
    t.row([
        "col. block".to_string(),
        coeff(traffic::column_x_loads(n, parts[0])),
        coeff(traffic::column_x_loads(n, parts[1])),
        coeff(traffic::column_x_loads(n, parts[2])),
        coeff(traffic::column_x_loads(n, parts[3])),
    ]);
    t.row([
        "row block".to_string(),
        coeff(traffic::row_x_loads(n, parts[0])),
        coeff(traffic::row_x_loads(n, parts[1])),
        coeff(traffic::row_x_loads(n, parts[2])),
        coeff(traffic::row_x_loads(n, parts[3])),
    ]);
    t.row([
        "rec. block".to_string(),
        coeff(traffic::recursive_x_loads(n, parts[0])),
        coeff(traffic::recursive_x_loads(n, parts[1])),
        coeff(traffic::recursive_x_loads(n, parts[2])),
        coeff(traffic::recursive_x_loads(n, parts[3])),
    ]);
    out.push_str(&t.render());

    out.push_str(&format!(
        "\n== Instrumented counters on a dense {n}x{n} lower triangle (must equal formulas) ==\n"
    ));
    let l = generate::dense_lower::<f64>(n, 1234);
    let sel = Selector::default();
    let mut t = Table::new(["parts", "method", "b-updates", "formula", "x-loads", "formula"]);
    for &parts in &[4usize, 16, 64] {
        let depth = parts.trailing_zeros() as usize;
        let col = ColumnBlockSolver::new(&l, parts, &sel).expect("dense is solvable");
        let row = RowBlockSolver::new(&l, parts, &sel).expect("dense is solvable");
        let rec = RecursiveBlockSolver::new(&l, depth, &sel).expect("dense is solvable");
        t.row([
            parts.to_string(),
            "col. block".into(),
            col.traffic().b_updates.to_string(),
            format!("{:.0}", traffic::column_b_updates(n, parts)),
            col.traffic().x_loads.to_string(),
            format!("{:.0}", traffic::column_x_loads(n, parts)),
        ]);
        t.row([
            parts.to_string(),
            "row block".into(),
            row.traffic().b_updates.to_string(),
            format!("{:.0}", traffic::row_b_updates(n, parts)),
            row.traffic().x_loads.to_string(),
            format!("{:.0}", traffic::row_x_loads(n, parts)),
        ]);
        t.row([
            parts.to_string(),
            "rec. block".into(),
            rec.traffic().b_updates.to_string(),
            format!("{:.0}", traffic::recursive_b_updates(n, parts)),
            rec.traffic().x_loads.to_string(),
            format!("{:.0}", traffic::recursive_x_loads(n, parts)),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_paper_coefficients() {
        let report = super::run_sized(64);
        // Table 1 signature values.
        assert!(report.contains("2.5000n"));
        assert!(report.contains("32768.5000n"));
        // Table 2 signature values.
        assert!(report.contains("0.7500n"));
        assert!(report.contains("32767.5000n"));
    }

    #[test]
    fn measured_equals_formula() {
        let report = super::run_sized(64);
        // Every measured row prints count then formula; spot-check one:
        // col block at 4 parts on n=64: 2.5 * 64 = 160.
        assert!(report.contains("160"));
    }
}
