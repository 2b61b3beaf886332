//! Dense state-vector simulation.

use marqsim_circuit::{Circuit, Gate};
use marqsim_linalg::{Complex, Matrix};
use marqsim_pauli::PauliString;

use crate::rotation::PauliRotation;

/// A dense `2^n` quantum state vector.
///
/// Amplitude `k` corresponds to the computational-basis state whose qubit `q`
/// has value `(k >> q) & 1` (qubit 0 is the least-significant bit), matching
/// the conventions of `marqsim-pauli` and `marqsim-circuit`.
///
/// # Example
///
/// ```
/// use marqsim_circuit::Gate;
/// use marqsim_sim::StateVector;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&Gate::H(0));
/// psi.apply_gate(&Gate::Cnot { control: 0, target: 1 });
/// let probs = psi.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12);
/// assert!((probs[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
        amplitudes[0] = Complex::ONE;
        StateVector {
            num_qubits,
            amplitudes,
        }
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(
            index < dim,
            "basis index {index} out of range for {num_qubits} qubits"
        );
        let mut amplitudes = vec![Complex::ZERO; dim];
        amplitudes[index] = Complex::ONE;
        StateVector {
            num_qubits,
            amplitudes,
        }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        StateVector {
            num_qubits: dim.trailing_zeros() as usize,
            amplitudes,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrow of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// The squared magnitude of each amplitude.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// L2 norm of the state (1 for a normalized state).
    pub fn norm(&self) -> f64 {
        self.probabilities().iter().sum::<f64>().sqrt()
    }

    /// Hermitian inner product `⟨self | other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different qubit counts.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.amplitudes
            .iter()
            .zip(other.amplitudes.iter())
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Applies a single gate in place.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match gate {
            Gate::Cnot { control, target } => self.apply_cnot(*control, *target),
            Gate::GlobalPhase(phi) => {
                let phase = Complex::cis(*phi);
                for a in self.amplitudes.iter_mut() {
                    *a *= phase;
                }
            }
            single => {
                let q = single.qubits()[0];
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                let m = single.local_matrix();
                self.apply_single_qubit(q, &m);
            }
        }
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit has more qubits than the state"
        );
        for gate in circuit.gates() {
            self.apply_gate(gate);
        }
    }

    fn apply_single_qubit(&mut self, q: usize, m: &Matrix) {
        let stride = 1usize << q;
        let dim = self.amplitudes.len();
        let m00 = m[(0, 0)];
        let m01 = m[(0, 1)];
        let m10 = m[(1, 0)];
        let m11 = m[(1, 1)];
        let mut base = 0usize;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let a0 = self.amplitudes[i0];
                let a1 = self.amplitudes[i1];
                self.amplitudes[i0] = m00 * a0 + m01 * a1;
                self.amplitudes[i1] = m10 * a0 + m11 * a1;
            }
            base += 2 * stride;
        }
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(
            control < self.num_qubits && target < self.num_qubits && control != target,
            "invalid CNOT qubits ({control}, {target})"
        );
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        for k in 0..self.amplitudes.len() {
            if k & cmask != 0 && k & tmask == 0 {
                let partner = k | tmask;
                self.amplitudes.swap(k, partner);
            }
        }
    }

    /// Applies `exp(i · angle · P)` directly (without synthesizing gates),
    /// using `exp(iθP) = cos θ · I + i sin θ · P` and the `O(2^n)` sparse
    /// action of a Pauli string on the computational basis.
    ///
    /// # Panics
    ///
    /// Panics if `P` acts on a different number of qubits than the state.
    pub fn apply_pauli_rotation(&mut self, pauli: &PauliString, angle: f64) {
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits,
            "Pauli string qubit count mismatch"
        );
        let rotation = PauliRotation::new(pauli, angle);
        let x_mask = rotation.action.x_mask;
        if x_mask == 0 {
            // Diagonal Pauli string: each amplitude picks up a phase.
            for (k, amp) in self.amplitudes.iter_mut().enumerate() {
                *amp = rotation.phase(k) * *amp;
            }
        } else {
            // Amplitudes pair up as (k, k ^ x_mask); update each pair once.
            for k in 0..self.amplitudes.len() {
                let p = k ^ x_mask;
                if k < p {
                    let [[ckk, ckp], [cpk, cpp]] = rotation.pair(k);
                    let (a, b) = (self.amplitudes[k], self.amplitudes[p]);
                    self.amplitudes[k] = ckk * a + ckp * b;
                    self.amplitudes[p] = cpk * a + cpp * b;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_circuit::synthesis;
    use marqsim_linalg::expm;

    fn state_close(a: &StateVector, b: &[Complex], tol: f64) -> bool {
        a.amplitudes
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.approx_eq(*y, tol))
    }

    #[test]
    fn zero_state_is_normalized() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.amplitudes().len(), 8);
        assert!((psi.norm() - 1.0).abs() < 1e-12);
        assert!((psi.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::H(0));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(state_close(
            &psi,
            &[Complex::real(s), Complex::real(s)],
            1e-12
        ));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        let p = psi.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1]).abs() < 1e-12);
        assert!((p[2]).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn x_gate_flips_the_right_qubit() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::X(1));
        assert!((psi.probabilities()[0b010] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate_application_matches_dense_matrices() {
        // Apply a sequence of gates and compare against the dense unitary
        // built from local matrices.
        let gates = vec![
            Gate::H(0),
            Gate::Rz(1, 0.7),
            Gate::Cnot {
                control: 0,
                target: 2,
            },
            Gate::Ry(2, -0.4),
            Gate::S(1),
            Gate::Cnot {
                control: 2,
                target: 1,
            },
        ];
        let n = 3;
        let dim = 1 << n;
        let mut psi = StateVector::zero_state(n);
        // Start from a non-trivial state.
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::H(1));
        psi.apply_gate(&Gate::H(2));
        let initial = psi.clone();

        let mut u = Matrix::identity(dim);
        for g in &gates {
            psi.apply_gate(g);
            let full = match g {
                Gate::Cnot { control, target } => Matrix::from_fn(dim, dim, |i, j| {
                    let flipped = if (j >> control) & 1 == 1 {
                        j ^ (1 << target)
                    } else {
                        j
                    };
                    if i == flipped {
                        Complex::ONE
                    } else {
                        Complex::ZERO
                    }
                }),
                single => {
                    let q = single.qubits()[0];
                    let local = single.local_matrix();
                    Matrix::from_fn(dim, dim, |i, j| {
                        if (i ^ j) & !(1usize << q) != 0 {
                            Complex::ZERO
                        } else {
                            local[((i >> q) & 1, (j >> q) & 1)]
                        }
                    })
                }
            };
            u = full.matmul(&u);
        }
        let expected = u.mul_vec(initial.amplitudes());
        assert!(state_close(&psi, &expected, 1e-10));
    }

    #[test]
    fn pauli_rotation_fast_path_matches_synthesized_circuit() {
        for s in ["Z", "X", "Y", "ZZ", "XY", "XYZ", "IZXI", "YXIZ"] {
            let p: PauliString = s.parse().unwrap();
            let n = p.num_qubits();
            let angle = 0.613;
            // Prepare an arbitrary product state.
            let mut fast = StateVector::zero_state(n);
            for q in 0..n {
                fast.apply_gate(&Gate::Ry(q, 0.3 + 0.2 * q as f64));
            }
            let mut slow = fast.clone();

            fast.apply_pauli_rotation(&p, angle);
            let circuit = synthesis::pauli_rotation_circuit(&p, angle);
            slow.apply_circuit(&circuit);

            assert!(
                state_close(&fast, slow.amplitudes(), 1e-10),
                "mismatch for {s}"
            );
        }
    }

    #[test]
    fn pauli_rotation_matches_matrix_exponential() {
        let p: PauliString = "XZY".parse().unwrap();
        let angle = -0.91;
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Ry(1, 0.5));
        let before = psi.clone();
        psi.apply_pauli_rotation(&p, angle);

        let u = expm::expm(&p.to_matrix().scale(Complex::new(0.0, angle)));
        let expected = u.mul_vec(before.amplitudes());
        assert!(state_close(&psi, &expected, 1e-10));
    }

    #[test]
    fn rotations_preserve_the_norm() {
        let p: PauliString = "XXYYZ".parse().unwrap();
        let mut psi = StateVector::zero_state(5);
        for q in 0..5 {
            psi.apply_gate(&Gate::Ry(q, 0.1 * (q + 1) as f64));
        }
        for step in 0..50 {
            psi.apply_pauli_rotation(&p, 0.05 * step as f64);
        }
        assert!((psi.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inner_product_of_orthogonal_basis_states() {
        let a = StateVector::basis_state(3, 1);
        let b = StateVector::basis_state(3, 6);
        assert!(a.inner_product(&b).abs() < 1e-15);
        assert!((a.inner_product(&a).re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn global_phase_gate_multiplies_all_amplitudes() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H(0));
        let before = psi.clone();
        psi.apply_gate(&Gate::GlobalPhase(0.5));
        for (a, b) in psi.amplitudes().iter().zip(before.amplitudes()) {
            assert!(a.approx_eq(*b * Complex::cis(0.5), 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_rejects_bad_index() {
        let _ = StateVector::basis_state(2, 4);
    }
}
