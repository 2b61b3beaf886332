//! The unitary fidelity metric of §6.1.
//!
//! The paper scores compiled circuits by `tr(U_app · U†) / 2^n` where
//! `U = exp(iHt)` is the exact evolution. We report the magnitude of that
//! (complex) trace ratio, which is `1` exactly when `U_app` equals `U` up to
//! a global phase and strictly smaller otherwise.

use marqsim_linalg::{Complex, Matrix};

use crate::UnitaryAccumulator;

/// Normalized trace fidelity `|tr(A · B†)| / dim` between two unitaries given
/// as dense matrices.
///
/// # Panics
///
/// Panics if the matrices are not square with identical dimensions.
pub fn fidelity(a: &Matrix, b: &Matrix) -> f64 {
    assert!(
        a.is_square() && b.is_square(),
        "fidelity requires square matrices"
    );
    assert_eq!(a.rows(), b.rows(), "fidelity requires equal dimensions");
    let dim = a.rows();
    let mut tr = Complex::ZERO;
    for i in 0..dim {
        for k in 0..dim {
            tr += a[(i, k)] * b[(i, k)].conj();
        }
    }
    tr.abs() / dim as f64
}

/// Fidelity between an accumulated circuit unitary and a dense reference,
/// computed directly from the accumulator's row-major planes (no dense
/// conversion of the accumulated unitary).
///
/// # Panics
///
/// Panics if the dimensions disagree.
pub fn fidelity_with_matrix(acc: &UnitaryAccumulator, reference: &Matrix) -> f64 {
    let dim = 1usize << acc.num_qubits();
    assert_eq!(reference.rows(), dim, "reference dimension mismatch");
    assert!(reference.is_square(), "reference must be square");
    // tr(A B†) = Σ_{i,k} A[i][k] · conj(B[i][k]), walked row by row.
    let (mut tr_re, mut tr_im) = (0.0, 0.0);
    for i in 0..dim {
        let (re, im) = acc.row(i);
        for ((&ar, &ai), b) in re.iter().zip(im).zip(reference.row(i)) {
            tr_re += ar * b.re + ai * b.im;
            tr_im += ai * b.re - ar * b.im;
        }
    }
    Complex::new(tr_re, tr_im).abs() / dim as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_unitary;
    use marqsim_pauli::{Hamiltonian, PauliString};

    #[test]
    fn identical_unitaries_have_fidelity_one() {
        let ham = Hamiltonian::parse("0.4 XZ + 0.2 ZY").unwrap();
        let u = exact_unitary(&ham, 0.7);
        assert!((fidelity(&u, &u) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn global_phase_does_not_reduce_fidelity() {
        let ham = Hamiltonian::parse("0.4 XZ + 0.2 ZY").unwrap();
        let u = exact_unitary(&ham, 0.7);
        let phased = u.scale(Complex::cis(1.234));
        assert!((fidelity(&u, &phased) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn orthogonal_unitaries_have_low_fidelity() {
        let x: PauliString = "X".parse().unwrap();
        let z: PauliString = "Z".parse().unwrap();
        assert!(fidelity(&x.to_matrix(), &z.to_matrix()) < 1e-10);
    }

    #[test]
    fn accumulator_fidelity_matches_dense_fidelity() {
        let ham = Hamiltonian::parse("0.5 XI + 0.3 ZZ + 0.2 YX").unwrap();
        let t = 0.5;
        let exact = exact_unitary(&ham, t);
        let mut acc = UnitaryAccumulator::new(2);
        // Crude single Trotter step.
        for term in ham.terms() {
            acc.apply_pauli_rotation(&term.string, term.coefficient * t);
        }
        let via_rows = fidelity_with_matrix(&acc, &exact);
        let via_dense = fidelity(&acc.to_matrix(), &exact);
        assert!((via_rows - via_dense).abs() < 1e-12);
        assert!(via_rows > 0.95 && via_rows < 1.0 + 1e-12);
    }

    #[test]
    fn finer_trotterization_improves_fidelity() {
        let ham = Hamiltonian::parse("0.8 XX + 0.6 ZI + 0.4 YZ").unwrap();
        let t = 1.0;
        let exact = exact_unitary(&ham, t);
        let mut coarse = UnitaryAccumulator::new(2);
        for term in ham.terms() {
            coarse.apply_pauli_rotation(&term.string, term.coefficient * t);
        }
        let mut fine = UnitaryAccumulator::new(2);
        let steps = 20;
        for _ in 0..steps {
            for term in ham.terms() {
                fine.apply_pauli_rotation(&term.string, term.coefficient * t / steps as f64);
            }
        }
        let f_coarse = fidelity_with_matrix(&coarse, &exact);
        let f_fine = fidelity_with_matrix(&fine, &exact);
        assert!(f_fine > f_coarse);
        assert!(f_fine > 0.999);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_dimensions_panic() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(4);
        let _ = fidelity(&a, &b);
    }
}
