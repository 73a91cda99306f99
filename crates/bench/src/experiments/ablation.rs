//! Simulated ablation study of the design choices DESIGN.md calls out:
//! what each ingredient of the improved recursive block algorithm buys,
//! under the GPU cost model, on a structure where all of them matter
//! (power-law hubs + a serial tail + heavy rows).
//!
//! Complements the Criterion `ablations` bench, which measures the same
//! variants as CPU wall clock.

use crate::harness::{fmt_ms, fmt_x, scale_device, HarnessConfig, Table};
use recblock::adaptive::{Selector, TriKernel};
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule};
use recblock_gpu_sim::cost::SpmvKind;
use recblock_gpu_sim::DeviceSpec;
use recblock_matrix::{generate, Csr};

/// One ablation variant's simulated solve time.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub name: String,
    /// Simulated solve seconds.
    pub seconds: f64,
    /// Slowdown vs the full configuration.
    pub vs_full: f64,
}

fn subject(extra_shrink: usize) -> Csr<f64> {
    let n = (100_000 / extra_shrink).max(512);
    let base = generate::hub_power_law::<f64>(n, 32, 3, n / 150, 21);
    generate::with_heavy_rows(&base, 3, n / 8, 21)
}

/// Evaluate all ablation variants.
pub fn evaluate(cfg: &HarnessConfig, extra_shrink: usize) -> Vec<AblationRow> {
    let dev = scale_device(&DeviceSpec::titan_rtx_turing(), cfg.scale);
    let l = subject(extra_shrink);
    let depth = crate::harness::harness_depth(l.nrows(), &dev, cfg.scale);
    let base = BlockedOptions {
        depth: DepthRule::Fixed(depth),
        reorder: true,
        selector: Selector::default(),
        allow_dcsr: true,
        tune: recblock_kernels::exec::TuneParams::default(),
    };
    let time = |opts: &BlockedOptions| -> f64 {
        BlockedTri::build(&l, opts).expect("solvable").simulated_time(&dev, &cfg.params).total_s
    };
    let full = time(&base);
    let variants: Vec<(String, BlockedOptions)> = vec![
        ("full (reorder + adaptive + DCSR)".into(), base.clone()),
        ("no level-set reorder".into(), BlockedOptions { reorder: false, ..base.clone() }),
        ("no DCSR storage".into(), BlockedOptions { allow_dcsr: false, ..base.clone() }),
        (
            "fixed sync-free kernels".into(),
            BlockedOptions {
                selector: Selector::Fixed(TriKernel::SyncFree, SpmvKind::ScalarCsr),
                ..base.clone()
            },
        ),
        (
            "fixed level-set kernels".into(),
            BlockedOptions {
                selector: Selector::Fixed(TriKernel::LevelSet, SpmvKind::VectorCsr),
                ..base.clone()
            },
        ),
        (
            "depth 0 (no blocking)".into(),
            BlockedOptions { depth: DepthRule::Fixed(0), ..base.clone() },
        ),
        (
            format!("depth {} (over-divided)", depth + 3),
            BlockedOptions { depth: DepthRule::Fixed(depth + 3), ..base },
        ),
    ];
    variants
        .into_iter()
        .map(|(name, opts)| {
            let seconds = time(&opts);
            AblationRow { name, seconds, vs_full: seconds / full }
        })
        .collect()
}

/// Render the ablation report.
pub fn run(cfg: &HarnessConfig) -> String {
    render(&evaluate(cfg, 1))
}

/// Render precomputed rows.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("== Ablation: simulated solve time of the blocked algorithm variants ==\n");
    out.push_str("   (power-law subject with hubs, serial tail and heavy rows; Titan RTX)\n");
    let mut t = Table::new(["variant", "solve (ms)", "vs full"]);
    for r in rows {
        t.row([r.name.clone(), fmt_ms(r.seconds), fmt_x(r.vs_full)]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ingredient_pays_its_way() {
        let cfg = HarnessConfig::default();
        let rows = evaluate(&cfg, 4);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.name.starts_with(name))
                .unwrap_or_else(|| panic!("missing variant {name}"))
                .vs_full
        };
        assert!((by("full") - 1.0).abs() < 1e-9);
        // Removing any ingredient must not make the solver faster by more
        // than noise, and no-blocking must be clearly worse.
        assert!(by("no level-set reorder") > 0.95);
        assert!(by("no DCSR") > 0.95);
        assert!(by("fixed level-set") > 1.0, "adaptive should beat fixed level-set");
        assert!(by("depth 0") > 1.1, "blocking should pay off on this subject");
    }

    #[test]
    fn report_renders() {
        let cfg = HarnessConfig::default();
        let rows = evaluate(&cfg, 8);
        let report = render(&rows);
        assert!(report.contains("Ablation"));
        assert!(report.contains("vs full"));
    }
}
