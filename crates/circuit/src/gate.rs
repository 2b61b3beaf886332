//! The gate set.

use std::fmt;
use std::ops::Deref;

use marqsim_linalg::{Complex, Matrix};

/// A quantum gate acting on one or two qubits (or a global phase).
///
/// Angles follow the standard convention `Rz(θ) = exp(-i θ Z / 2)`,
/// `Rx(θ) = exp(-i θ X / 2)`, `Ry(θ) = exp(-i θ Y / 2)`.
///
/// # Example
///
/// ```
/// use marqsim_circuit::Gate;
///
/// let g = Gate::Cnot { control: 0, target: 2 };
/// assert!(g.is_two_qubit());
/// assert_eq!(g.qubits()[..], [0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard gate.
    H(usize),
    /// Pauli-X gate.
    X(usize),
    /// Pauli-Y gate.
    Y(usize),
    /// Pauli-Z gate.
    Z(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg(usize),
    /// Rotation about X: `exp(-i θ X / 2)`.
    Rx(usize, f64),
    /// Rotation about Y: `exp(-i θ Y / 2)`.
    Ry(usize, f64),
    /// Rotation about Z: `exp(-i θ Z / 2)`.
    Rz(usize, f64),
    /// Controlled-NOT with the given control and target qubits.
    Cnot {
        /// Control qubit index.
        control: usize,
        /// Target qubit index.
        target: usize,
    },
    /// A global phase `exp(i φ)`. Emitted when simulating identity Pauli
    /// terms so that the circuit unitary matches `exp(iHt)` exactly (the
    /// fidelity metric is phase sensitive).
    GlobalPhase(f64),
}

impl Gate {
    /// The qubits this gate acts on: one for single-qubit gates, control
    /// then target for CNOT, none for a global phase. Returned inline, so
    /// asking allocates nothing.
    pub fn qubits(&self) -> Qubits {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _) => Qubits {
                qubits: [q, 0],
                len: 1,
            },
            Gate::Cnot { control, target } => Qubits {
                qubits: [control, target],
                len: 2,
            },
            Gate::GlobalPhase(_) => Qubits {
                qubits: [0, 0],
                len: 0,
            },
        }
    }

    /// Returns `true` for the CNOT gate.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot { .. })
    }

    /// Returns `true` for single-qubit gates (global phases excluded).
    pub fn is_single_qubit(&self) -> bool {
        !self.is_two_qubit() && !matches!(self, Gate::GlobalPhase(_))
    }

    /// Returns `true` if this gate is its own inverse.
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::H(_) | Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::Cnot { .. }
        )
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::Rx(q, theta) => Gate::Rx(q, -theta),
            Gate::Ry(q, theta) => Gate::Ry(q, -theta),
            Gate::Rz(q, theta) => Gate::Rz(q, -theta),
            Gate::GlobalPhase(phi) => Gate::GlobalPhase(-phi),
            ref g => g.clone(),
        }
    }

    /// Returns `true` if `other` is the inverse of `self` (exactly, including
    /// rotation angles).
    pub fn cancels_with(&self, other: &Gate) -> bool {
        if self.is_self_inverse() {
            self == other
        } else {
            &self.inverse() == other
        }
    }

    /// The local unitary matrix of the gate: 2×2 for single-qubit gates,
    /// 4×4 for CNOT (qubit ordering `|control, target⟩` with the control as
    /// the most-significant bit), and 1×1 for a global phase.
    pub fn local_matrix(&self) -> Matrix {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        match *self {
            Gate::H(_) => {
                Matrix::from_real_rows(&[vec![inv_sqrt2, inv_sqrt2], vec![inv_sqrt2, -inv_sqrt2]])
            }
            Gate::X(_) => Matrix::from_real_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]),
            Gate::Y(_) => Matrix::from_rows(&[
                vec![Complex::ZERO, Complex::new(0.0, -1.0)],
                vec![Complex::new(0.0, 1.0), Complex::ZERO],
            ]),
            Gate::Z(_) => Matrix::from_real_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]),
            Gate::S(_) => Matrix::diagonal(&[Complex::ONE, Complex::I]),
            Gate::Sdg(_) => Matrix::diagonal(&[Complex::ONE, -Complex::I]),
            Gate::Rx(_, theta) => {
                let c = Complex::real((theta / 2.0).cos());
                let s = Complex::new(0.0, -(theta / 2.0).sin());
                Matrix::from_rows(&[vec![c, s], vec![s, c]])
            }
            Gate::Ry(_, theta) => {
                let c = (theta / 2.0).cos();
                let s = (theta / 2.0).sin();
                Matrix::from_real_rows(&[vec![c, -s], vec![s, c]])
            }
            Gate::Rz(_, theta) => {
                Matrix::diagonal(&[Complex::cis(-theta / 2.0), Complex::cis(theta / 2.0)])
            }
            Gate::Cnot { .. } => Matrix::from_real_rows(&[
                vec![1.0, 0.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 1.0],
                vec![0.0, 0.0, 1.0, 0.0],
            ]),
            Gate::GlobalPhase(phi) => Matrix::diagonal(&[Complex::cis(phi)]),
        }
    }
}

/// The qubits of one [`Gate`] (at most two), stored inline. Reads as a
/// `&[usize]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qubits {
    qubits: [usize; 2],
    len: usize,
}

impl Deref for Qubits {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.qubits[..self.len]
    }
}

impl IntoIterator for Qubits {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(self.len)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "h q[{q}]"),
            Gate::X(q) => write!(f, "x q[{q}]"),
            Gate::Y(q) => write!(f, "y q[{q}]"),
            Gate::Z(q) => write!(f, "z q[{q}]"),
            Gate::S(q) => write!(f, "s q[{q}]"),
            Gate::Sdg(q) => write!(f, "sdg q[{q}]"),
            Gate::Rx(q, theta) => write!(f, "rx({theta}) q[{q}]"),
            Gate::Ry(q, theta) => write!(f, "ry({theta}) q[{q}]"),
            Gate::Rz(q, theta) => write!(f, "rz({theta}) q[{q}]"),
            Gate::Cnot { control, target } => write!(f, "cx q[{control}],q[{target}]"),
            Gate::GlobalPhase(phi) => write!(f, "// global phase {phi}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits()[..], [3]);
        assert_eq!(
            Gate::Cnot {
                control: 1,
                target: 4
            }
            .qubits()[..],
            [1, 4]
        );
        assert!(Gate::Cnot {
            control: 0,
            target: 1
        }
        .is_two_qubit());
        assert!(Gate::Rz(0, 0.5).is_single_qubit());
        assert!(!Gate::GlobalPhase(0.1).is_single_qubit());
        assert!(Gate::GlobalPhase(0.1).qubits().is_empty());
    }

    #[test]
    fn local_matrices_are_unitary() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::Rx(0, 0.7),
            Gate::Ry(0, -1.3),
            Gate::Rz(0, 2.2),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
        ];
        for g in gates {
            assert!(g.local_matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn inverses_multiply_to_identity() {
        let gates = [
            Gate::H(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::Rx(0, 0.9),
            Gate::Ry(0, 0.4),
            Gate::Rz(0, -1.1),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
        ];
        for g in gates {
            let m = g.local_matrix();
            let minv = g.inverse().local_matrix();
            let dim = m.rows();
            assert!(
                m.matmul(&minv).approx_eq(&Matrix::identity(dim), 1e-12),
                "{g}"
            );
        }
    }

    #[test]
    fn cancellation_relation() {
        assert!(Gate::H(2).cancels_with(&Gate::H(2)));
        assert!(!Gate::H(2).cancels_with(&Gate::H(3)));
        assert!(Gate::S(1).cancels_with(&Gate::Sdg(1)));
        assert!(Gate::Rz(0, 0.4).cancels_with(&Gate::Rz(0, -0.4)));
        assert!(!Gate::Rz(0, 0.4).cancels_with(&Gate::Rz(0, 0.4)));
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        assert!(cx.cancels_with(&cx.clone()));
        assert!(!cx.cancels_with(&Gate::Cnot {
            control: 1,
            target: 0
        }));
    }

    #[test]
    fn s_conjugation_maps_x_to_y() {
        // S X S† = Y, the identity used by the Y-basis change in synthesis.
        let s = Gate::S(0).local_matrix();
        let sdg = Gate::Sdg(0).local_matrix();
        let x = Gate::X(0).local_matrix();
        let y = Gate::Y(0).local_matrix();
        assert!(s.matmul(&x).matmul(&sdg).approx_eq(&y, 1e-12));
    }

    #[test]
    fn rz_matrix_matches_exponential_convention() {
        let theta = 0.83;
        let rz = Gate::Rz(0, theta).local_matrix();
        assert!(rz[(0, 0)].approx_eq(Complex::cis(-theta / 2.0), 1e-12));
        assert!(rz[(1, 1)].approx_eq(Complex::cis(theta / 2.0), 1e-12));
    }

    #[test]
    fn display_is_qasm_like() {
        assert_eq!(
            Gate::Cnot {
                control: 2,
                target: 0
            }
            .to_string(),
            "cx q[2],q[0]"
        );
        assert_eq!(Gate::H(1).to_string(), "h q[1]");
    }
}
