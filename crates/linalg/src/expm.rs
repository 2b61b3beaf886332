//! Matrix exponential via scaling-and-squaring with a truncated Taylor series.
//!
//! This dense exponential is the reference that the structure-aware exact
//! evolution in `marqsim-sim` is tested against. For an exponent `iHt`
//! (skew-Hermitian), the exponential is unitary and the
//! scaling-and-squaring approach is numerically benign: we scale the exponent
//! by `2^{-s}` until its norm is below a threshold, evaluate a Taylor series
//! to machine precision, and square the result `s` times.

use crate::{Complex, Matrix};

/// Number of Taylor terms used after scaling. With `‖A‖ ≤ 0.5` this reaches
/// machine precision comfortably (0.5^20 / 20! ≈ 4e-25).
const TAYLOR_TERMS: usize = 20;

/// Target norm after scaling.
const SCALE_TARGET: f64 = 0.5;

/// Computes the matrix exponential `exp(A)` of a square complex matrix.
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Example
///
/// ```
/// use marqsim_linalg::{expm, Complex, Matrix};
///
/// // exp(i theta Z) = diag(e^{i theta}, e^{-i theta})
/// let theta = 0.3_f64;
/// let a = Matrix::diagonal(&[Complex::new(0.0, theta), Complex::new(0.0, -theta)]);
/// let u = expm::expm(&a);
/// assert!((u[(0, 0)].re - theta.cos()).abs() < 1e-12);
/// assert!((u[(0, 0)].im - theta.sin()).abs() < 1e-12);
/// ```
pub fn expm(a: &Matrix) -> Matrix {
    assert!(a.is_square(), "matrix exponential requires a square matrix");
    let n = a.rows();
    let norm = a.one_norm();
    // Choose s so that ‖A / 2^s‖ <= SCALE_TARGET.
    let s = if norm <= SCALE_TARGET {
        0
    } else {
        (norm / SCALE_TARGET).log2().ceil() as u32
    };
    let scaled = a.scale_real(1.0 / (2f64.powi(s as i32)));

    // Taylor series: exp(B) = Σ B^k / k!
    let mut result = Matrix::identity(n);
    let mut term = Matrix::identity(n);
    for k in 1..=TAYLOR_TERMS {
        term = term.matmul(&scaled).scale_real(1.0 / k as f64);
        result = &result + &term;
        if term.max_abs() < 1e-18 {
            break;
        }
    }

    // Undo the scaling by repeated squaring.
    for _ in 0..s {
        result = result.matmul(&result);
    }
    result
}

/// Computes `exp(i * t * H)` for a Hermitian matrix `H`.
///
/// This is the exact target unitary of quantum Hamiltonian simulation.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn expm_i_hermitian(h: &Matrix, t: f64) -> Matrix {
    assert!(h.is_square(), "expected a square Hamiltonian matrix");
    let exponent = h.scale(Complex::new(0.0, t));
    expm(&exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_real_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]])
    }

    fn pauli_y() -> Matrix {
        Matrix::from_rows(&[
            vec![Complex::ZERO, Complex::new(0.0, -1.0)],
            vec![Complex::new(0.0, 1.0), Complex::ZERO],
        ])
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Matrix::zeros(4, 4);
        assert!(expm(&z).approx_eq(&Matrix::identity(4), 1e-14));
    }

    #[test]
    fn exp_of_diagonal_is_entrywise_exp() {
        let d = Matrix::diagonal(&[
            Complex::new(0.2, 0.0),
            Complex::new(-1.0, 0.5),
            Complex::new(0.0, 2.0),
        ]);
        let e = expm(&d);
        for i in 0..3 {
            assert!(e[(i, i)].approx_eq(d[(i, i)].exp(), 1e-12));
        }
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn exp_i_theta_pauli_matches_euler_formula() {
        // exp(i theta P) = cos(theta) I + i sin(theta) P for P^2 = I
        for theta in [0.1, 0.7, 1.9, 3.5] {
            for p in [pauli_x(), pauli_y()] {
                let u = expm_i_hermitian(&p, theta);
                let expected = &Matrix::identity(2).scale_real(theta.cos())
                    + &p.scale(Complex::new(0.0, theta.sin()));
                assert!(u.approx_eq(&expected, 1e-10), "theta={theta}");
            }
        }
    }

    #[test]
    fn exponential_of_skew_hermitian_is_unitary() {
        // Random-ish Hermitian matrix.
        let h = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                Complex::real((i as f64) - 1.5)
            } else if i < j {
                Complex::new(0.3 * (i + j) as f64, 0.1 * (j as f64 - i as f64))
            } else {
                Complex::new(0.3 * (i + j) as f64, -0.1 * (i as f64 - j as f64))
            }
        });
        assert!(h.is_hermitian(1e-12));
        let u = expm_i_hermitian(&h, 0.9);
        assert!(u.is_unitary(1e-9));
    }

    #[test]
    fn additivity_for_commuting_exponents() {
        // exp(A) exp(B) = exp(A + B) when [A, B] = 0 (both diagonal here).
        let a = Matrix::diagonal(&[Complex::new(0.0, 0.4), Complex::new(0.0, -0.2)]);
        let b = Matrix::diagonal(&[Complex::new(0.0, 1.1), Complex::new(0.0, 0.3)]);
        let lhs = expm(&a).matmul(&expm(&b));
        let rhs = expm(&(&a + &b));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn large_norm_exponent_is_handled_by_scaling() {
        let h = pauli_x().scale_real(25.0);
        let u = expm_i_hermitian(&h, 1.0);
        assert!(u.is_unitary(1e-8));
        // exp(25 i X) = cos(25) I + i sin(25) X
        assert!((u[(0, 0)].re - 25f64.cos()).abs() < 1e-8);
        assert!((u[(0, 1)].im - 25f64.sin()).abs() < 1e-8);
    }

    #[test]
    fn inverse_is_exponential_of_negation() {
        let h = pauli_y().scale_real(1.3);
        let u = expm_i_hermitian(&h, 1.0);
        let uinv = expm_i_hermitian(&h, -1.0);
        assert!(u.matmul(&uinv).approx_eq(&Matrix::identity(2), 1e-10));
    }
}
