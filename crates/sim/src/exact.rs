//! Exact reference evolution `exp(iHt)`, computed from the Pauli terms.
//!
//! Grouping the terms by x-mask writes the Hamiltonian as
//! `H = Σ_x D_x · X^x`, one diagonal `D_x` per distinct x-mask (the terms'
//! coefficients times their `i^{#Y} · (-1)^{popcount(m & z)}` phases). Row
//! `r` of `H · M` is then `Σ_x D_x[r] · M[r ^ x]`: one signed row
//! permutation per group, over the flat row-major planes the
//! [`UnitaryAccumulator`](crate::UnitaryAccumulator) uses. No dense `H` is
//! formed. `exp(iHt)` follows by scaling and squaring: a Taylor series of
//! `exp(iHt / 2^s)` in Horner form, then `s` squarings.
//!
//! # Cost
//!
//! With `G` x-groups and `K ≤ 18` Taylor terms, the series costs
//! `K · G · 4^n` complex multiply-adds, and each squaring `8^n` less the
//! exact zeros of the left factor (number-conserving Hamiltonians give
//! block-diagonal unitaries). The squaring count `s` is the smallest with
//! `λ · |t| / 2^s ≤ 1`, where `λ = Σ_j |c_j|` bounds `‖H‖₂`. [`cost`]
//! reports `G` and `s` without doing the work.

use std::collections::{BTreeMap, BTreeSet};

use marqsim_linalg::{Complex, Matrix};
use marqsim_pauli::Hamiltonian;

use crate::planes::{axpy, Planes};
use crate::rotation::PauliAction;

/// The remainder bound `θ^{K+1} / (K+1)!` at which the Taylor series stops.
const TAYLOR_TOLERANCE: f64 = 1e-17;

/// The structure [`exact_unitary`] works from for one `(H, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCost {
    /// Qubit count `n`: the planes are `2^n × 2^n`.
    pub qubits: usize,
    /// Distinct x-masks among the terms: signed row permutations per
    /// product `H · M`.
    pub x_groups: usize,
    /// Squarings after the Taylor series.
    pub squarings: u32,
}

/// The Hamiltonian as `Σ_x D_x · X^x`.
struct XGroups {
    dim: usize,
    /// `(x, D_x)` with `D_x[r] = ⟨r| H_x |r ^ x⟩`, in x-mask order.
    groups: Vec<(usize, Vec<Complex>)>,
}

impl XGroups {
    fn new(ham: &Hamiltonian) -> Self {
        let dim = 1usize << ham.num_qubits();
        let mut groups: BTreeMap<usize, Vec<Complex>> = BTreeMap::new();
        for term in ham.terms() {
            let action = PauliAction::new(&term.string);
            let x = action.x_mask;
            let diag = groups.entry(x).or_insert_with(|| vec![Complex::ZERO; dim]);
            for (r, d) in diag.iter_mut().enumerate() {
                *d += action.amplitude(r ^ x) * term.coefficient;
            }
        }
        XGroups {
            dim,
            groups: groups.into_iter().collect(),
        }
    }

    /// Writes `I + scale · H · src` into `dst`.
    fn identity_plus(&self, scale: Complex, src: &Planes, dst: &mut Planes) {
        for r in 0..self.dim {
            let (re, im) = dst.row_mut(r);
            re.fill(0.0);
            im.fill(0.0);
            for (x, diag) in &self.groups {
                let c = diag[r] * scale;
                if c != Complex::ZERO {
                    axpy((&mut *re, &mut *im), c, src.row(r ^ x));
                }
            }
            dst.add_at(r, r, Complex::ONE);
        }
    }
}

/// The squaring count for time `t`: the smallest `s` with
/// `λ · |t| / 2^s ≤ 1`, where `λ = Σ_j |c_j|` bounds `‖H‖₂`.
fn squarings(ham: &Hamiltonian, t: f64) -> u32 {
    let theta = ham.lambda() * t.abs();
    if theta > 1.0 {
        // No finite θ needs more than f64's exponent range.
        theta.log2().ceil().min(f64::MAX_EXP as f64) as u32
    } else {
        0
    }
}

/// What [`exact_unitary`] does for `(ham, t)`: the inputs of its cost
/// model (see the module docs).
pub fn cost(ham: &Hamiltonian, t: f64) -> ExactCost {
    let x_masks: BTreeSet<u64> = ham.terms().iter().map(|t| t.string.x_mask()).collect();
    ExactCost {
        qubits: ham.num_qubits(),
        x_groups: x_masks.len(),
        squarings: squarings(ham, t),
    }
}

/// Computes the exact simulation unitary `U = exp(iHt)` for a Hamiltonian
/// given as a sum of Pauli strings.
///
/// The cost is exponential in the qubit count (see the module docs); this
/// is the reference against which compiled circuits are scored, mirroring
/// the paper's exact-unitary comparison.
///
/// # Example
///
/// ```
/// use marqsim_pauli::Hamiltonian;
/// use marqsim_sim::exact::exact_unitary;
///
/// # fn main() -> Result<(), marqsim_pauli::ParseError> {
/// let ham = Hamiltonian::parse("0.5 Z")?;
/// let u = exact_unitary(&ham, 1.0);
/// assert!(u.is_unitary(1e-10));
/// # Ok(())
/// # }
/// ```
pub fn exact_unitary(ham: &Hamiltonian, t: f64) -> Matrix {
    let groups = XGroups::new(ham);
    let squarings = squarings(ham, t);
    let step = t / 2f64.powi(squarings as i32);
    let theta = ham.lambda() * step.abs();
    // Taylor degree K: the first whose remainder bound θ^{K+1}/(K+1)! is
    // below tolerance.
    let (mut degree, mut remainder) = (0, theta);
    while remainder > TAYLOR_TOLERANCE {
        degree += 1;
        remainder *= theta / (degree + 1) as f64;
    }
    // Horner: exp(A) ≈ I + A(I + A/2(I + … (I + A/K))), A = i·step·H.
    let mut u = Planes::identity(groups.dim);
    let mut scratch = Planes::zeros(groups.dim);
    for k in (1..=degree).rev() {
        groups.identity_plus(Complex::new(0.0, step / k as f64), &u, &mut scratch);
        std::mem::swap(&mut u, &mut scratch);
    }
    for _ in 0..squarings {
        u.square_into(&mut scratch);
        std::mem::swap(&mut u, &mut scratch);
    }
    u.to_dense()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_z_term_closed_form() {
        let ham = Hamiltonian::parse("0.7 Z").unwrap();
        let t = 1.3;
        let u = exact_unitary(&ham, t);
        // exp(i t 0.7 Z) = diag(e^{i 0.7 t}, e^{-i 0.7 t})
        assert!(u[(0, 0)].approx_eq(Complex::cis(0.7 * t), 1e-10));
        assert!(u[(1, 1)].approx_eq(Complex::cis(-0.7 * t), 1e-10));
        assert!(u[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn evolution_is_unitary_and_composes_in_time() {
        let ham = Hamiltonian::parse("0.5 XX + 0.25 ZI + 0.1 YZ").unwrap();
        let u1 = exact_unitary(&ham, 0.4);
        let u2 = exact_unitary(&ham, 0.6);
        let u_total = exact_unitary(&ham, 1.0);
        assert!(u1.is_unitary(1e-9));
        assert!(u2.matmul(&u1).approx_eq(&u_total, 1e-9));
    }

    #[test]
    fn zero_time_gives_identity() {
        let ham = Hamiltonian::parse("1.0 XY + 0.3 ZZ").unwrap();
        let u = exact_unitary(&ham, 0.0);
        assert!(u.approx_eq(&Matrix::identity(4), 1e-12));
    }

    #[test]
    fn commuting_terms_factorize() {
        // ZI and IZ commute, so exp(i t (a ZI + b IZ)) = exp(i t a ZI) exp(i t b IZ).
        let ham = Hamiltonian::parse("0.8 ZI + 0.3 IZ").unwrap();
        let a = Hamiltonian::parse("0.8 ZI").unwrap();
        let b = Hamiltonian::parse("0.3 IZ").unwrap();
        let t = 0.9;
        let lhs = exact_unitary(&ham, t);
        let rhs = exact_unitary(&a, t).matmul(&exact_unitary(&b, t));
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }
}
