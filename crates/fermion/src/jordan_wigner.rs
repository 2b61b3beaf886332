//! The Jordan–Wigner fermion-to-qubit transform.
//!
//! Mode `p` maps to qubit `p`:
//!
//! ```text
//! a_p  = (X_p + iY_p)/2 · Z_{p-1} ⊗ … ⊗ Z_0
//! a†_p = (X_p − iY_p)/2 · Z_{p-1} ⊗ … ⊗ Z_0
//! ```
//!
//! Products of ladder operators expand into sums of Pauli strings with
//! complex coefficients; a Hermitian fermionic operator always collapses to a
//! real-coefficient [`Hamiltonian`]. This is the same mapping the paper's
//! benchmark pipeline uses (Jordan & Wigner [30], via Qiskit Nature).

use std::collections::HashMap;

use marqsim_linalg::Complex;
use marqsim_pauli::{Hamiltonian, ParseError, PauliOp, PauliString, Term};

use crate::{FermionOperator, LadderOp};

/// A sum of Pauli strings with complex coefficients — the intermediate
/// representation of the transform before Hermiticity collapses it to real
/// coefficients.
///
/// Strings are held in symplectic form, as `(x_mask, z_mask)` pairs (see
/// [`PauliString::x_mask`]), so a product of two strings is two XORs and a
/// phase count. A [`PauliString`] is built only when the sum is read.
#[derive(Debug, Clone)]
pub struct PauliSum {
    num_qubits: usize,
    terms: HashMap<(u64, u64), Complex>,
}

impl PauliSum {
    /// The empty (zero) sum on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 64`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= 64, "Pauli sums support up to 64 qubits");
        PauliSum {
            num_qubits,
            terms: HashMap::new(),
        }
    }

    /// Adds `coefficient` to the string with the given masks.
    fn add_masks(&mut self, masks: (u64, u64), coefficient: Complex) {
        let entry = self.terms.entry(masks).or_insert(Complex::ZERO);
        *entry += coefficient;
    }

    /// Adds another sum, scaled by `scale`.
    pub fn add_scaled(&mut self, other: &PauliSum, scale: Complex) {
        for (&masks, c) in &other.terms {
            self.add_masks(masks, *c * scale);
        }
    }

    /// Product of two sums (distributing and multiplying the Pauli strings).
    ///
    /// # Panics
    ///
    /// Panics if the sums act on different numbers of qubits.
    pub fn multiply(&self, other: &PauliSum) -> PauliSum {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        let mut out = PauliSum::new(self.num_qubits);
        for (&a, ca) in &self.terms {
            for (&b, cb) in &other.terms {
                let (phase, product) = mul_masks(a, b);
                out.add_masks(product, *ca * *cb * phase);
            }
        }
        out
    }

    /// Number of distinct strings currently held (including near-zero ones).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the sum holds no strings.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterator over `(string, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PauliString, Complex)> + '_ {
        self.terms
            .iter()
            .map(|(&(x, z), &c)| (string_from_masks(self.num_qubits, x, z), c))
    }
}

/// `a · b = phase · product` for strings in symplectic form: the same phase
/// value [`PauliString::mul`] accumulates qubit by qubit, `+i` for each
/// `XY`, `YZ`, `ZX` position and `-i` for each reversed one.
fn mul_masks((xa, za): (u64, u64), (xb, zb): (u64, u64)) -> (Complex, (u64, u64)) {
    let (pa_x, pa_y, pa_z) = (xa & !za, xa & za, !xa & za);
    let (pb_x, pb_y, pb_z) = (xb & !zb, xb & zb, !xb & zb);
    let cyclic = (pa_x & pb_y) | (pa_y & pb_z) | (pa_z & pb_x);
    let reversed = (pa_y & pb_x) | (pa_z & pb_y) | (pa_x & pb_z);
    let phase = match (cyclic.count_ones() + 3 * reversed.count_ones()) % 4 {
        0 => Complex::ONE,
        1 => Complex::I,
        2 => -Complex::ONE,
        _ => -Complex::I,
    };
    (phase, (xa ^ xb, za ^ zb))
}

fn string_from_masks(num_qubits: usize, x: u64, z: u64) -> PauliString {
    PauliString::from_ops(
        (0..num_qubits)
            .map(|q| PauliOp::from_bits((x >> q) & 1 == 1, (z >> q) & 1 == 1))
            .collect(),
    )
}

/// A key that orders equal-length strings as their text does: two bits per
/// qubit, highest qubit first, ranking `I < X < Y < Z` like the characters.
fn text_key(num_qubits: usize, x: u64, z: u64) -> u128 {
    (0..num_qubits).rev().fold(0u128, |key, q| {
        let (x, z) = ((x >> q) & 1, (z >> q) & 1);
        key << 2 | u128::from(2 * z + (x ^ z))
    })
}

/// Errors produced by [`transform`].
#[derive(Debug, Clone, PartialEq)]
pub enum JwError {
    /// A coefficient retained a significant imaginary part, meaning the input
    /// fermionic operator was not Hermitian.
    NonHermitian {
        /// The offending Pauli string (textual form).
        string: String,
        /// The imaginary part found.
        imaginary: f64,
    },
    /// The transform produced no terms (all coefficients cancelled), or the
    /// result could not form a valid Hamiltonian.
    Empty(ParseError),
}

impl std::fmt::Display for JwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JwError::NonHermitian { string, imaginary } => write!(
                f,
                "non-hermitian input: term {string} has imaginary coefficient {imaginary}"
            ),
            JwError::Empty(e) => write!(f, "transform produced no usable terms: {e}"),
        }
    }
}

impl std::error::Error for JwError {}

/// Threshold below which coefficients are considered numerically zero.
const COEFF_TOL: f64 = 1e-10;

/// The Jordan–Wigner image of a single ladder operator as a [`PauliSum`].
///
/// # Panics
///
/// Panics if `op.mode >= num_modes` or `num_modes > 64`.
pub fn ladder_to_pauli(op: LadderOp, num_modes: usize) -> PauliSum {
    assert!(op.mode < num_modes, "mode {} out of range", op.mode);
    // Z string on qubits 0..mode, X or Y on `mode`, identity above.
    let bit = 1u64 << op.mode;
    let chain = bit - 1;
    let mut sum = PauliSum::new(num_modes);
    sum.add_masks((bit, chain), Complex::real(0.5));
    let y_coeff = if op.creation {
        Complex::new(0.0, -0.5)
    } else {
        Complex::new(0.0, 0.5)
    };
    sum.add_masks((bit, chain | bit), y_coeff);
    sum
}

/// Transforms a fermionic operator into a qubit [`Hamiltonian`], dropping the
/// identity string (which only contributes a global phase to the simulation).
///
/// # Errors
///
/// Returns [`JwError::NonHermitian`] if the input operator is not Hermitian
/// (a Pauli coefficient keeps an imaginary part), or [`JwError::Empty`] if no
/// non-identity term survives.
///
/// # Panics
///
/// Panics if the operator has more than 64 modes.
pub fn transform(op: &FermionOperator) -> Result<Hamiltonian, JwError> {
    transform_with_options(op, true)
}

/// Like [`transform`], but keeping the identity string if
/// `drop_identity` is `false`.
///
/// # Errors
///
/// See [`transform`].
///
/// # Panics
///
/// Panics if the operator has more than 64 modes.
pub fn transform_with_options(
    op: &FermionOperator,
    drop_identity: bool,
) -> Result<Hamiltonian, JwError> {
    let n = op.num_modes();
    let mut total = PauliSum::new(n);
    for term in op.terms() {
        let mut product = PauliSum::new(n);
        product.add_masks((0, 0), Complex::ONE);
        for ladder in &term.operators {
            product = product.multiply(&ladder_to_pauli(*ladder, n));
        }
        total.add_scaled(&product, Complex::real(term.coefficient));
    }

    let mut keyed: Vec<(u128, Term)> = Vec::new();
    for (&(x, z), coeff) in &total.terms {
        if coeff.abs() < COEFF_TOL {
            continue;
        }
        if coeff.im.abs() > 1e-7 {
            return Err(JwError::NonHermitian {
                string: string_from_masks(n, x, z).to_string(),
                imaginary: coeff.im,
            });
        }
        if drop_identity && x == 0 && z == 0 {
            continue;
        }
        keyed.push((
            text_key(n, x, z),
            Term::new(coeff.re, string_from_masks(n, x, z)),
        ));
    }
    // Deterministic ordering: sort by descending magnitude then string text.
    keyed.sort_by(|(key_a, a), (key_b, b)| {
        b.coefficient
            .abs()
            .partial_cmp(&a.coefficient.abs())
            .expect("coefficients are finite")
            .then_with(|| key_a.cmp(key_b))
    });
    Hamiltonian::new(keyed.into_iter().map(|(_, term)| term).collect()).map_err(JwError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_linalg::Matrix;

    fn every_string(n: usize) -> Vec<PauliString> {
        let ops = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
        (0..4usize.pow(n as u32))
            .map(|code| PauliString::from_ops((0..n).map(|q| ops[(code >> (2 * q)) & 3]).collect()))
            .collect()
    }

    #[test]
    fn mask_products_match_string_products() {
        let strings = every_string(3);
        for a in &strings {
            for b in &strings {
                let (phase, product) = a.mul(b);
                let (mask_phase, (x, z)) =
                    mul_masks((a.x_mask(), a.z_mask()), (b.x_mask(), b.z_mask()));
                assert_eq!(mask_phase, phase, "{a} * {b}");
                assert_eq!(string_from_masks(3, x, z), product, "{a} * {b}");
            }
        }
    }

    #[test]
    fn text_keys_order_strings_like_their_text() {
        let mut strings = every_string(3);
        strings.sort_by_key(|p| text_key(3, p.x_mask(), p.z_mask()));
        let text: Vec<String> = strings.iter().map(|p| p.to_string()).collect();
        let mut sorted = text.clone();
        sorted.sort();
        assert_eq!(text, sorted);
        // The derived order on operators (I < Z < X < Y) is not the text
        // order, so the key cannot come from `PauliString`'s `Ord`.
        assert!("Z".parse::<PauliString>().unwrap() < "X".parse::<PauliString>().unwrap());
    }

    #[test]
    fn number_operator_maps_to_identity_minus_z() {
        // a†_0 a_0 = (I - Z)/2
        let mut op = FermionOperator::new(1);
        op.add_number(0, 1.0);
        let ham = transform_with_options(&op, false).unwrap();
        let m = ham.to_matrix();
        let expected = Matrix::from_real_rows(&[vec![0.0, 0.0], vec![0.0, 1.0]]);
        assert!(m.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn hopping_term_maps_to_xx_plus_yy() {
        // (a†_0 a_1 + a†_1 a_0)/1 -> (X_0 X_1 + Y_0 Y_1)/2
        let mut op = FermionOperator::new(2);
        op.add_hopping(0, 1, 1.0);
        let ham = transform(&op).unwrap();
        assert_eq!(ham.num_terms(), 2);
        for term in ham.terms() {
            assert!((term.coefficient - 0.5).abs() < 1e-10);
            let s = term.string.to_string();
            assert!(s == "XX" || s == "YY", "unexpected string {s}");
        }
    }

    #[test]
    fn jw_strings_carry_z_chains() {
        // Hopping between non-adjacent modes keeps the Z string in between.
        let mut op = FermionOperator::new(4);
        op.add_hopping(0, 3, 1.0);
        let ham = transform(&op).unwrap();
        for term in ham.terms() {
            let s = term.string.to_string();
            // Qubits 1 and 2 must carry Z.
            assert_eq!(&s[1..3], "ZZ", "missing JW chain in {s}");
        }
    }

    #[test]
    fn anticommutation_is_respected_in_matrices() {
        // {a_0, a†_0} = 1: check via dense matrices of the JW images.
        let n = 2;
        let a0 = ladder_to_pauli(LadderOp::annihilate(0), n);
        let a0dag = ladder_to_pauli(LadderOp::create(0), n);
        let dense = |s: &PauliSum| {
            let dim = 1 << n;
            let mut m = Matrix::zeros(dim, dim);
            for (p, c) in s.iter() {
                m = &m + &p.to_matrix().scale(c);
            }
            m
        };
        let ma = dense(&a0);
        let mad = dense(&a0dag);
        let anticommutator = &ma.matmul(&mad) + &mad.matmul(&ma);
        assert!(anticommutator.approx_eq(&Matrix::identity(4), 1e-10));
        // a_0 a_0 = 0.
        assert!(ma.matmul(&ma).frobenius_norm() < 1e-10);
    }

    #[test]
    fn distinct_mode_operators_anticommute() {
        let n = 3;
        let dense = |s: &PauliSum| {
            let dim = 1 << n;
            let mut m = Matrix::zeros(dim, dim);
            for (p, c) in s.iter() {
                m = &m + &p.to_matrix().scale(c);
            }
            m
        };
        let a0 = dense(&ladder_to_pauli(LadderOp::annihilate(0), n));
        let a2dag = dense(&ladder_to_pauli(LadderOp::create(2), n));
        let anti = &a0.matmul(&a2dag) + &a2dag.matmul(&a0);
        assert!(anti.frobenius_norm() < 1e-10);
    }

    #[test]
    fn hermitian_operator_transforms_without_error() {
        let mut op = FermionOperator::new(4);
        op.add_number(0, 0.5);
        op.add_number(1, -0.25);
        op.add_hopping(0, 2, 0.3);
        op.add_hopping(1, 3, -0.2);
        // Hermitian two-body pair.
        op.add_two_body(0, 1, 1, 0, 0.7);
        let ham = transform(&op).unwrap();
        assert!(ham.num_terms() > 0);
        assert!(ham.to_matrix().is_hermitian(1e-9));
    }

    #[test]
    fn non_hermitian_operator_is_rejected() {
        let mut op = FermionOperator::new(2);
        // a†_0 a_1 alone is not Hermitian.
        op.add_one_body(0, 1, 1.0);
        assert!(matches!(
            transform(&op).unwrap_err(),
            JwError::NonHermitian { .. }
        ));
    }

    #[test]
    fn identity_only_operator_yields_empty_error() {
        // a†_0 a_0 + a_0 a†_0 = identity; with drop_identity = true nothing is left.
        let mut op = FermionOperator::new(1);
        op.add_term(1.0, vec![LadderOp::create(0), LadderOp::annihilate(0)]);
        op.add_term(1.0, vec![LadderOp::annihilate(0), LadderOp::create(0)]);
        assert!(matches!(transform(&op).unwrap_err(), JwError::Empty(_)));
        // Keeping the identity succeeds.
        let ham = transform_with_options(&op, false).unwrap();
        assert_eq!(ham.num_terms(), 1);
    }

    #[test]
    fn dense_matrix_matches_direct_fock_space_construction() {
        // Two-mode Hamiltonian: e0 n_0 + e1 n_1 + t (a†_0 a_1 + h.c.)
        let (e0, e1, t) = (0.7, -0.4, 0.3);
        let mut op = FermionOperator::new(2);
        op.add_number(0, e0);
        op.add_number(1, e1);
        op.add_hopping(0, 1, t);
        let ham = transform_with_options(&op, false).unwrap();
        let m = ham.to_matrix();
        // Fock basis |n1 n0⟩ ordered 00, 01, 10, 11 (qubit 0 = LSB).
        let expected = Matrix::from_real_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, e0, t, 0.0],
            vec![0.0, t, e1, 0.0],
            vec![0.0, 0.0, 0.0, e0 + e1],
        ]);
        assert!(m.approx_eq(&expected, 1e-9), "{m:?}");
    }
}
