//! Quantum state-vector and unitary simulation.
//!
//! The paper evaluates compiled circuits by their *algorithmic accuracy*: the
//! unitary fidelity `tr(U_app · U†) / 2^n` between the circuit unitary and
//! the exact evolution `U = exp(iHt)` (§6.1). The authors accelerate this on
//! an A100 GPU with PyTorch; this crate is the CPU substrate that replaces
//! that stack:
//!
//! * [`StateVector`] — a dense `2^n` state vector with gate application and
//!   an `O(2^n)` fast path for Pauli-rotation application
//!   (`exp(iθP)|ψ⟩ = cos θ |ψ⟩ + i sin θ P|ψ⟩`).
//! * [`UnitaryAccumulator`] — accumulates the full circuit unitary in flat
//!   row-major planes, updating rows in place, either gate-by-gate or
//!   Pauli-rotation-by-rotation (the latter is what the experiment drivers
//!   use: it avoids synthesizing millions of gates when only the unitary
//!   matters). A sequence costs one `O(4^n)` pass per maximal run of
//!   consecutive rotations with equal x-mask. Both types share one
//!   implementation of the Pauli phase convention and rotation math.
//! * [`exact`] — the exact reference evolution `exp(iHt)`, by scaling and
//!   squaring over the Hamiltonian's x-mask groups: no dense `H` is formed,
//!   and one product `H · M` costs `O(groups · 4^n)`.
//! * [`fidelity`] — the unitary fidelity metric.
//!
//! # Example
//!
//! ```
//! use marqsim_pauli::Hamiltonian;
//! use marqsim_sim::{exact, fidelity, UnitaryAccumulator};
//!
//! # fn main() -> Result<(), marqsim_pauli::ParseError> {
//! let ham = Hamiltonian::parse("0.5 XI + 0.3 ZZ")?;
//! let t = 0.4;
//! // One first-order Trotter step.
//! let mut acc = UnitaryAccumulator::new(2);
//! for term in ham.terms() {
//!     acc.apply_pauli_rotation(&term.string, term.coefficient * t);
//! }
//! let exact_u = exact::exact_unitary(&ham, t);
//! let f = fidelity::fidelity_with_matrix(&acc, &exact_u);
//! assert!(f > 0.99);
//! # Ok(())
//! # }
//! ```

mod planes;
mod rotation;
mod state;
mod unitary;

pub mod exact;
pub mod fidelity;

pub use state::StateVector;
pub use unitary::UnitaryAccumulator;
