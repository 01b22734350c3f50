//! Dense Cholesky factorization for symmetric positive-definite systems.

use std::error::Error;
use std::fmt;

use crate::SymMatrix;

/// Error returned when a matrix is not positive definite (within
/// tolerance), so no Cholesky factor exists.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CholeskyError {
    /// Pivot index at which factorization broke down.
    pub pivot: usize,
    /// The offending (non-positive) pivot value.
    pub value: f64,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} = {:.3e}",
            self.pivot, self.value
        )
    }
}

impl Error for CholeskyError {}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, with forward/backward substitution solves.
///
/// The ADMM SDP solver factorizes its constraint Gram matrix once and
/// reuses the factor every iteration, so factor and solve are separate
/// operations.
#[derive(Clone, PartialEq, Debug)]
pub struct Cholesky {
    n: usize,
    /// Lower-triangular factor, row-major dense.
    l: Vec<f64>,
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] if a pivot is non-positive, i.e. the
    /// matrix is not positive definite.
    pub fn factor(a: &SymMatrix) -> Result<Cholesky, CholeskyError> {
        let n = a.dim();
        let mut l = vec![0.0f64; n * n];
        factor_into(a.as_slice(), n, &mut l)?;
        Ok(Cholesky { n, l })
    }

    /// Solves `A x = b` using the stored factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut y, &mut x);
        x
    }

    /// [`Cholesky::solve`] into caller-provided buffers: `y` receives
    /// the forward-substitution intermediate and `x` the solution (both
    /// resized to the factored dimension). Bit-identical to `solve`,
    /// which wraps it; reusing the buffers keeps repeated solves — the
    /// ADMM inner loop does one per iteration — off the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_into(&self, b: &[f64], y: &mut Vec<f64>, x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward: L y = b.
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * n + k] * y[k];
            }
            y[i] = sum / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[k * n + i] * x[k];
            }
            x[i] = sum / self.l[i * n + i];
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// Factorizes the flat row-major `n × n` matrix `a` into the
/// lower-triangular factor written to `l` (which must be zero-filled,
/// length `n·n`); the flat-storage kernel behind [`Cholesky::factor`].
///
/// # Errors
///
/// Returns [`CholeskyError`] if a pivot is non-positive.
pub(crate) fn factor_into(a: &[f64], n: usize, l: &mut [f64]) -> Result<(), CholeskyError> {
    assert_eq!(a.len(), n * n);
    assert_eq!(l.len(), n * n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CholeskyError {
                        pivot: i,
                        value: sum,
                    });
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let f = Cholesky::factor(&SymMatrix::identity(3)).unwrap();
        let x = f.solve(&[1.0, -2.0, 3.0]);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn known_spd_system() {
        // A = [[4, 2], [2, 3]], b = [2, 1] -> x = [0.5, 0].
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(0, 1, 2.0);
        a.set(1, 1, 3.0);
        let f = Cholesky::factor(&a).unwrap();
        let x = f.solve(&[2.0, 1.0]);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let m = SymMatrix::from_diagonal(&[1.0, -1.0]);
        let err = Cholesky::factor(&m).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    /// Deterministic seed × size sweep; the off-by-default `proptest`
    /// feature widens the seed range.
    #[test]
    fn solve_inverts_multiply() {
        let seeds = if cfg!(feature = "proptest") { 100 } else { 25 };
        for seed in 0u64..seeds {
            for n in 1usize..10 {
                check_solve_inverts_multiply(seed, n);
            }
        }
    }

    fn check_solve_inverts_multiply(seed: u64, n: usize) {
        // Build SPD matrix A = B Bᵀ + I.
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 250.0 - 2.0
        };
        let b_raw: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = SymMatrix::identity(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|k| b_raw[i * n + k] * b_raw[j * n + k]).sum();
                a.add_to(i, j, dot);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
        let rhs = a.mul_vec(&x_true);
        let f = Cholesky::factor(&a).unwrap();
        let x = f.solve(&rhs);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7 * (1.0 + want.abs()));
        }
    }
}
