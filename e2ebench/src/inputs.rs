//! Workload inputs, all generated from the run's seed. The seed changes the
//! values and the random dependencies; the size, depth and (so) the plan
//! shape stay the same, which keeps runs with different seeds comparable.

use crate::stats::json_str;
use recblock_matrix::generate::{self, LayerShape};
use recblock_matrix::{Csr, LevelSets};
use recblock_store::PlanKey;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveLayered,
    SolveFem,
    PlanChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SolveLayered, Workload::SolveFem, Workload::PlanChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLayered => "solve_layered",
            Workload::SolveFem => "solve_fem",
            Workload::PlanChurn => "plan_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Distinct plans `plan_churn` cycles through (more than its cache holds).
pub const CHURN_PLANS: usize = 12;

/// Generator seed for matrix `idx` of a run seeded `seed`.
fn matrix_seed(seed: u64, idx: u64) -> u64 {
    let mut z = seed.wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's matrices: one for every workload but `plan_churn`,
/// which gets [`CHURN_PLANS`] of the same size.
pub fn matrices(w: Workload, seed: u64) -> Vec<Csr<f64>> {
    match w {
        // Deep and wide: ~400k rows in 800 levels of 500 rows.
        Workload::SolveLayered => vec![generate::layered::<f64>(
            400_000,
            800,
            2.5,
            LayerShape::Uniform,
            matrix_seed(seed, 0),
        )],
        // 2-D 5-point stencil, 316 × 316 ≈ 10⁵ rows: the ICCG wavefront case.
        Workload::SolveFem => vec![generate::grid2d::<f64>(316, 316, matrix_seed(seed, 0))],
        Workload::PlanChurn => (0..CHURN_PLANS as u64)
            .map(|i| {
                generate::layered::<f64>(
                    60_000,
                    150,
                    2.5,
                    LayerShape::Uniform,
                    matrix_seed(seed, i),
                )
            })
            .collect(),
    }
}

/// The fixed matrix behind `kernels.nondeterministic_solves`, the same in
/// every run: 20k rows in 100 levels of 200 rows. Alg. 7 gives it
/// `SyncFree` blocks whose rows have three or more dependencies, so the
/// order of the atomic updates shows in the answer's bits.
pub fn nondeterminism_probe() -> Csr<f64> {
    generate::layered::<f64>(20_000, 100, 2.5, LayerShape::Uniform, matrix_seed(0, 0))
}

/// `n`, `nnz`, level count and plan-key fingerprint of each matrix, as a
/// JSON array for the run record.
pub fn describe(mats: &[Csr<f64>]) -> String {
    let shapes: Vec<String> = mats
        .iter()
        .map(|l| {
            let levels = LevelSets::analyse(l).map(|s| s.nlevels()).unwrap_or(0);
            format!(
                "{{\"n\": {}, \"nnz\": {}, \"nlevels\": {levels}, \"fingerprint\": {}}}",
                l.nrows(),
                l.nnz(),
                json_str(&PlanKey::of(l).to_string())
            )
        })
        .collect();
    format!("[{}]", shapes.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(w: Workload, seed: u64) -> Vec<PlanKey> {
        matrices(w, seed).iter().map(PlanKey::of).collect()
    }

    #[test]
    fn same_seed_same_fingerprints() {
        for w in Workload::ALL {
            assert_eq!(keys(w, 11), keys(w, 11), "{}", w.name());
        }
    }

    #[test]
    fn other_seed_other_values() {
        for w in Workload::ALL {
            let (a, b) = (keys(w, 1), keys(w, 2));
            assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{}", w.name());
        }
    }

    #[test]
    fn churn_plans_are_distinct_and_same_size() {
        let ms = matrices(Workload::PlanChurn, 5);
        let mut k: Vec<_> = ms.iter().map(PlanKey::of).map(|k| k.to_string()).collect();
        k.sort();
        k.dedup();
        assert_eq!(k.len(), CHURN_PLANS);
        assert!(ms.iter().all(|m| m.nrows() == ms[0].nrows()));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
