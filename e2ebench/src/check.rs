//! Answer checking: the benchmark's own SpMV on the original matrix, so a
//! wrong answer is caught whichever layer produced it.

use recblock_matrix::Csr;

/// Largest accepted relative residual `‖Lx − b‖∞ / ‖b‖∞`. The generated
/// systems are diagonally dominant, so a correct solve lands near 1e-15.
pub const RESIDUAL_TOL: f64 = 1e-9;

/// Why an answer was not accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The residual check failed (the value is the relative residual).
    Residual(f64),
    /// The call returned a typed error or refusal.
    Error(String),
}

/// Rows above which the residual is computed on two threads.
const SPLIT_ROWS: usize = 1 << 16;

/// `(max |(Lx − b)ᵢ|, max |bᵢ|)` over `rows`; a NaN residual wins.
fn residual_rows(l: &Csr<f64>, x: &[f64], b: &[f64], rows: std::ops::Range<usize>) -> (f64, f64) {
    let (ptr, cols, vals) = (l.row_ptr(), l.col_idx(), l.vals());
    let mut r_max = 0.0f64;
    let mut b_max = 0.0f64;
    for i in rows {
        let mut acc = 0.0;
        for k in ptr[i]..ptr[i + 1] {
            acc += vals[k] * x[cols[k]];
        }
        let r = (acc - b[i]).abs();
        r_max = if r.is_nan() || r > r_max { r } else { r_max };
        b_max = b_max.max(b[i].abs());
    }
    (r_max, b_max)
}

/// `‖Lx − b‖∞ / ‖b‖∞`, computed row by row on `l` as given (on two
/// threads for large systems, which keeps checking cheap next to a solve).
pub fn relative_residual(l: &Csr<f64>, x: &[f64], b: &[f64]) -> f64 {
    let n = l.nrows();
    if x.len() != n || b.len() != n {
        return f64::INFINITY;
    }
    let ((r0, b0), (r1, b1)) = if n >= SPLIT_ROWS {
        std::thread::scope(|s| {
            let upper = s.spawn(|| residual_rows(l, x, b, n / 2..n));
            let lower = residual_rows(l, x, b, 0..n / 2);
            (lower, upper.join().expect("residual thread does not panic"))
        })
    } else {
        (residual_rows(l, x, b, 0..n), (0.0, 0.0))
    };
    let r_max = if r0.is_nan() || r1.is_nan() { f64::NAN } else { r0.max(r1) };
    let b_max = b0.max(b1);
    if b_max == 0.0 {
        r_max
    } else {
        r_max / b_max
    }
}

/// Accept `x` if its relative residual is within [`RESIDUAL_TOL`].
pub fn verify(l: &Csr<f64>, x: &[f64], b: &[f64]) -> Result<(), Fault> {
    let r = relative_residual(l, x, b);
    // A NaN residual fails this comparison, so it is rejected.
    if r <= RESIDUAL_TOL {
        Ok(())
    } else {
        Err(Fault::Residual(r))
    }
}

pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic right-hand side number `k` for seed `seed`: entries in
/// `[-1, 1)` from a SplitMix64 stream.
pub fn rhs(n: usize, seed: u64, k: u64) -> Vec<f64> {
    let mut s = seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x6A09_E667_F3BC_C909;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// Run-time guard on the checker itself: a corrupted copy of an accepted
/// answer must be rejected. Returns `false` if it was let through.
pub fn checker_rejects_corruption(l: &Csr<f64>, x: &[f64], b: &[f64]) -> bool {
    if x.is_empty() {
        return false;
    }
    let mut bad = x.to_vec();
    bad[x.len() / 2] += 1.0;
    verify(l, &bad, b).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;

    fn system() -> (Csr<f64>, Vec<f64>, Vec<f64>) {
        let l = generate::grid2d::<f64>(30, 30, 3);
        let b = rhs(l.nrows(), 3, 0);
        let x = serial_csr(&l, &b).unwrap();
        (l, x, b)
    }

    #[test]
    fn correct_answer_passes() {
        let (l, x, b) = system();
        assert!(verify(&l, &x, &b).is_ok());
    }

    #[test]
    fn corrupted_answer_counts_as_failed() {
        let (l, x, b) = system();
        let mut bad = x.clone();
        bad[17] *= 1.5;
        assert!(matches!(verify(&l, &bad, &b), Err(Fault::Residual(_))));
        let mut nan = x.clone();
        nan[0] = f64::NAN;
        assert!(verify(&l, &nan, &b).is_err());
        let mut ulp = x.clone();
        ulp[5] = f64::from_bits(ulp[5].to_bits() + 1);
        assert!(!bit_equal(&ulp, &x) && bit_equal(&x, &x.clone()));
        assert!(verify(&l, &x[1..], &b).is_err());
        assert!(checker_rejects_corruption(&l, &x, &b));
    }

    #[test]
    fn large_systems_check_on_two_threads_alike() {
        let l = generate::grid2d::<f64>(300, 300, 4);
        assert!(l.nrows() >= SPLIT_ROWS);
        let b = rhs(l.nrows(), 4, 0);
        let mut x = serial_csr(&l, &b).unwrap();
        assert!(verify(&l, &x, &b).is_ok());
        let last = x.len() - 1;
        x[last] = f64::NAN;
        assert!(verify(&l, &x, &b).is_err());
    }

    #[test]
    fn rhs_is_seeded() {
        assert_eq!(rhs(64, 9, 2), rhs(64, 9, 2));
        assert_ne!(rhs(64, 9, 2), rhs(64, 9, 3));
        assert_ne!(rhs(64, 9, 2), rhs(64, 10, 2));
        assert!(rhs(1000, 1, 1).iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
