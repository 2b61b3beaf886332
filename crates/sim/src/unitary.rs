//! Row-major accumulation of a circuit's full unitary.

use marqsim_circuit::{Circuit, Gate};
use marqsim_linalg::{Complex, Matrix};
use marqsim_pauli::PauliString;

use crate::planes::{Planes, Row};
use crate::rotation::PauliRotation;

/// Accumulates the full `2^n × 2^n` unitary of a gate/rotation sequence.
///
/// The unitary is stored row-major as two flat `f64` planes (real and
/// imaginary parts). Every gate this crate applies acts on basis-state
/// indices, so `U ← G · U` is a row operation: a Pauli rotation mixes the
/// row pairs `(k, k ^ x_mask)` (or scales each row by one phase when the
/// string is diagonal), a CNOT swaps rows, and a single-qubit gate mixes
/// the rows that differ in its qubit. Each update runs in place over
/// contiguous rows, with the coefficients computed once per row pair.
///
/// Rotations that share an `x_mask` act on the same row pairs, so
/// [`apply_sequence`](Self::apply_sequence) fuses each maximal run of
/// consecutive rotations with equal `x_mask` into one `O(4^n)` pass: the
/// product of the run's `2 × 2` pair matrices (one phase per row for a
/// diagonal run) costs `O(run · 2^n)` to form. Molecular Hamiltonians are
/// mostly diagonal strings, so a sampled sequence collapses into far fewer
/// passes than rotations. This is the workhorse of the
/// algorithmic-accuracy evaluation: it avoids synthesizing and multiplying
/// dense gate matrices for thousands of sampled terms.
///
/// # Example
///
/// ```
/// use marqsim_pauli::PauliString;
/// use marqsim_sim::UnitaryAccumulator;
///
/// let p: PauliString = "ZZ".parse().unwrap();
/// let mut acc = UnitaryAccumulator::new(2);
/// acc.apply_pauli_rotation(&p, 0.3);
/// let u = acc.to_matrix();
/// assert!(u.is_unitary(1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct UnitaryAccumulator {
    num_qubits: usize,
    planes: Planes,
}

impl UnitaryAccumulator {
    /// Starts from the identity on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        UnitaryAccumulator {
            num_qubits,
            planes: Planes::identity(1usize << num_qubits),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Row `i` of the accumulated unitary as `(real, imaginary)` slices.
    pub(crate) fn row(&self, i: usize) -> Row<'_> {
        self.planes.row(i)
    }

    /// Applies a single gate to the accumulated unitary (`U ← G · U`).
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let dim = self.planes.dim();
        match gate {
            Gate::Cnot { control, target } => {
                let (control, target) = (*control, *target);
                assert!(
                    control < self.num_qubits && target < self.num_qubits && control != target,
                    "invalid CNOT qubits ({control}, {target})"
                );
                let (cmask, tmask) = (1usize << control, 1usize << target);
                for k in (0..dim).filter(|k| k & cmask != 0 && k & tmask == 0) {
                    let ((ar, ai), (br, bi)) = self.planes.row_pair_mut(k, k | tmask);
                    ar.swap_with_slice(br);
                    ai.swap_with_slice(bi);
                }
            }
            Gate::GlobalPhase(phi) => {
                let phase = Complex::cis(*phi);
                for i in 0..dim {
                    self.planes.scale_row(i, phase);
                }
            }
            single => {
                let q = single.qubits()[0];
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                let m = single.local_matrix();
                let stride = 1usize << q;
                for k in (0..dim).filter(|k| k & stride == 0) {
                    self.planes.mix_rows(
                        k,
                        k + stride,
                        [m[(0, 0)], m[(0, 1)]],
                        [m[(1, 0)], m[(1, 1)]],
                    );
                }
            }
        }
    }

    /// Applies a whole circuit (`U ← U_circuit · U`).
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        for gate in circuit.gates() {
            self.apply_gate(gate);
        }
    }

    /// Applies `exp(i · angle · P)` to the accumulated unitary.
    ///
    /// # Panics
    ///
    /// Panics if `P` acts on a different number of qubits than the
    /// accumulator.
    pub fn apply_pauli_rotation(&mut self, pauli: &PauliString, angle: f64) {
        let rotation = self.rotation(pauli, angle);
        self.apply_run(&[rotation]);
    }

    /// Applies a sequence of Pauli rotations in order, one pass per maximal
    /// run of consecutive rotations with equal `x_mask`.
    ///
    /// # Panics
    ///
    /// Panics if a string acts on a different number of qubits than the
    /// accumulator.
    pub fn apply_sequence(&mut self, sequence: &[(PauliString, f64)]) {
        let rotations: Vec<PauliRotation> = sequence
            .iter()
            .map(|(pauli, angle)| self.rotation(pauli, *angle))
            .collect();
        for run in rotations.chunk_by(|a, b| a.action.x_mask == b.action.x_mask) {
            self.apply_run(run);
        }
    }

    fn rotation(&self, pauli: &PauliString, angle: f64) -> PauliRotation {
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits,
            "Pauli string qubit count mismatch"
        );
        PauliRotation::new(pauli, angle)
    }

    /// Applies `exp(iθ_L P_L) ··· exp(iθ_1 P_1)` for a non-empty run of
    /// rotations that share one `x_mask`, in one pass over the rows.
    fn apply_run(&mut self, run: &[PauliRotation]) {
        let x_mask = run[0].action.x_mask;
        debug_assert!(run.iter().all(|r| r.action.x_mask == x_mask));
        let dim = self.planes.dim();
        if x_mask == 0 {
            for k in 0..dim {
                let phase = run.iter().fold(Complex::ONE, |acc, r| r.phase(k) * acc);
                self.planes.scale_row(k, phase);
            }
            return;
        }
        for k in (0..dim).filter(|&k| k < k ^ x_mask) {
            let [top, bottom] = run[1..].iter().fold(run[0].pair(k), |acc, r| {
                let [[a, b], [c, d]] = r.pair(k);
                let [[e, f], [g, h]] = acc;
                [
                    [a * e + b * g, a * f + b * h],
                    [c * e + d * g, c * f + d * h],
                ]
            });
            self.planes.mix_rows(k, k ^ x_mask, top, bottom);
        }
    }

    /// Exports the accumulated unitary as a dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        self.planes.to_dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use marqsim_circuit::synthesis;
    use marqsim_linalg::expm;

    #[test]
    fn identity_on_construction() {
        let acc = UnitaryAccumulator::new(3);
        assert!(acc.to_matrix().approx_eq(&Matrix::identity(8), 1e-15));
    }

    #[test]
    fn single_rotation_matches_exponential() {
        let p: PauliString = "XY".parse().unwrap();
        let angle = 0.37;
        let mut acc = UnitaryAccumulator::new(2);
        acc.apply_pauli_rotation(&p, angle);
        let expected = expm::expm(&p.to_matrix().scale(Complex::new(0.0, angle)));
        assert!(acc.to_matrix().approx_eq(&expected, 1e-10));
    }

    #[test]
    fn gate_accumulation_matches_circuit_synthesis() {
        let p: PauliString = "XZY".parse().unwrap();
        let circuit = synthesis::pauli_rotation_circuit(&p, -0.62);
        let mut via_gates = UnitaryAccumulator::new(3);
        via_gates.apply_circuit(&circuit);
        let mut via_rotation = UnitaryAccumulator::new(3);
        via_rotation.apply_pauli_rotation(&p, -0.62);
        assert!(via_gates
            .to_matrix()
            .approx_eq(&via_rotation.to_matrix(), 1e-10));
    }

    #[test]
    fn sequence_order_is_left_to_right_in_time() {
        let a: PauliString = "XI".parse().unwrap();
        let b: PauliString = "ZZ".parse().unwrap();
        let mut acc = UnitaryAccumulator::new(2);
        acc.apply_sequence(&[(a.clone(), 0.5), (b.clone(), 0.25)]);
        let ua = expm::expm(&a.to_matrix().scale(Complex::new(0.0, 0.5)));
        let ub = expm::expm(&b.to_matrix().scale(Complex::new(0.0, 0.25)));
        // Later rotations multiply from the left.
        let expected = ub.matmul(&ua);
        assert!(acc.to_matrix().approx_eq(&expected, 1e-10));
    }

    /// SplitMix64: a dependency-free deterministic stream for the
    /// property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn angle(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        }
    }

    /// A random Pauli string; `y_heavy` draws `Y` on most qubits.
    fn random_string(rng: &mut Rng, n: usize, y_heavy: bool) -> PauliString {
        let ops: String = (0..n)
            .map(|_| {
                if y_heavy && rng.below(4) != 0 {
                    'Y'
                } else {
                    ['I', 'X', 'Y', 'Z'][rng.below(4)]
                }
            })
            .collect();
        ops.parse().unwrap()
    }

    #[test]
    fn flat_kernel_matches_dense_rotation_products_on_random_sequences() {
        let mut rng = Rng(0x5eed);
        for case in 0..40 {
            let n = 1 + case % 5;
            let identity: PauliString = "I".repeat(n).parse().unwrap();
            let mut acc = UnitaryAccumulator::new(n);
            let mut expected = Matrix::identity(1 << n);
            for step in 0..12 {
                let p = match step % 4 {
                    0 if case % 3 == 0 => identity.clone(),
                    1 => random_string(&mut rng, n, true),
                    _ => random_string(&mut rng, n, false),
                };
                let angle = rng.angle();
                acc.apply_pauli_rotation(&p, angle);
                let rotation = expm::expm(&p.to_matrix().scale(Complex::new(0.0, angle)));
                expected = rotation.matmul(&expected);
            }
            assert!(
                acc.to_matrix().approx_eq(&expected, 1e-10),
                "case {case} on {n} qubits"
            );
        }
    }

    #[test]
    fn every_gate_variant_matches_the_state_vector() {
        let gates = [
            Gate::H(1),
            Gate::X(0),
            Gate::Y(2),
            Gate::Z(1),
            Gate::S(0),
            Gate::Sdg(2),
            Gate::Rx(1, 0.41),
            Gate::Ry(0, -1.3),
            Gate::Rz(2, 2.2),
            Gate::Cnot {
                control: 2,
                target: 0,
            },
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::GlobalPhase(0.77),
        ];
        let n = 3;
        // A dense, non-symmetric starting unitary, so row and column
        // mix-ups cannot cancel out.
        let prefix: Vec<(PauliString, f64)> = [("XYZ", 0.3), ("YIX", -0.8), ("ZZY", 1.1)]
            .iter()
            .map(|&(s, a)| (s.parse().unwrap(), a))
            .collect();
        for gate in &gates {
            let mut acc = UnitaryAccumulator::new(n);
            acc.apply_sequence(&prefix);
            acc.apply_gate(gate);
            let u = acc.to_matrix();
            for j in 0..1 << n {
                let mut column = StateVector::basis_state(n, j);
                for (p, angle) in &prefix {
                    column.apply_pauli_rotation(p, *angle);
                }
                column.apply_gate(gate);
                for (i, amp) in column.amplitudes().iter().enumerate() {
                    assert!(u[(i, j)].approx_eq(*amp, 1e-12), "{gate:?} at ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn accumulated_unitary_stays_unitary_over_many_rotations() {
        let strings = ["XXI", "IZZ", "YIY", "ZXZ"];
        let mut acc = UnitaryAccumulator::new(3);
        for step in 0..40 {
            let p: PauliString = strings[step % strings.len()].parse().unwrap();
            acc.apply_pauli_rotation(&p, 0.05 + 0.01 * step as f64);
        }
        assert!(acc.to_matrix().is_unitary(1e-8));
    }
}
