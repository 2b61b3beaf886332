//! Row-major accumulation of a circuit's full unitary.

use marqsim_circuit::{Circuit, Gate};
use marqsim_linalg::{Complex, Matrix};
use marqsim_pauli::PauliString;

use crate::rotation::PauliRotation;

/// One row as mutable `(real, imaginary)` slices.
type RowMut<'a> = (&'a mut [f64], &'a mut [f64]);

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
/// This is the workhorse of the algorithmic-accuracy evaluation: the cost of
/// applying one Pauli rotation is `O(4^n)`, which is what makes sweeping
/// thousands of sampled terms feasible without synthesizing and multiplying
/// dense gate matrices.
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
    /// `re[i * dim + j] = Re U[i][j]`.
    re: Vec<f64>,
    /// `im[i * dim + j] = Im U[i][j]`.
    im: Vec<f64>,
}

impl UnitaryAccumulator {
    /// Starts from the identity on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mut re = vec![0.0; dim * dim];
        for k in 0..dim {
            re[k * dim + k] = 1.0;
        }
        UnitaryAccumulator {
            num_qubits,
            re,
            im: vec![0.0; dim * dim],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Row `i` of the accumulated unitary as `(real, imaginary)` slices.
    pub(crate) fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let dim = self.dim();
        let range = i * dim..(i + 1) * dim;
        (&self.re[range.clone()], &self.im[range])
    }

    /// Rows `a < b` as mutable `((re_a, im_a), (re_b, im_b))` slices.
    fn row_pair_mut(&mut self, a: usize, b: usize) -> (RowMut<'_>, RowMut<'_>) {
        debug_assert!(a < b);
        let dim = self.dim();
        let (re_lo, re_hi) = self.re.split_at_mut(b * dim);
        let (im_lo, im_hi) = self.im.split_at_mut(b * dim);
        (
            (
                &mut re_lo[a * dim..(a + 1) * dim],
                &mut im_lo[a * dim..(a + 1) * dim],
            ),
            (&mut re_hi[..dim], &mut im_hi[..dim]),
        )
    }

    /// Replaces rows `a < b` with `(ca · row_a + cb · row_b,
    /// da · row_a + db · row_b)`.
    fn mix_rows(&mut self, a: usize, b: usize, [ca, cb]: [Complex; 2], [da, db]: [Complex; 2]) {
        let ((ar, ai), (br, bi)) = self.row_pair_mut(a, b);
        for (((ar, ai), br), bi) in ar.iter_mut().zip(ai).zip(br).zip(bi) {
            let (xr, xi, yr, yi) = (*ar, *ai, *br, *bi);
            *ar = ca.re * xr - ca.im * xi + cb.re * yr - cb.im * yi;
            *ai = ca.re * xi + ca.im * xr + cb.re * yi + cb.im * yr;
            *br = da.re * xr - da.im * xi + db.re * yr - db.im * yi;
            *bi = da.re * xi + da.im * xr + db.re * yi + db.im * yr;
        }
    }

    /// Multiplies row `i` by `phase`.
    fn scale_row(&mut self, i: usize, phase: Complex) {
        let dim = self.dim();
        let range = i * dim..(i + 1) * dim;
        for (r, m) in self.re[range.clone()].iter_mut().zip(&mut self.im[range]) {
            let (xr, xi) = (*r, *m);
            *r = phase.re * xr - phase.im * xi;
            *m = phase.re * xi + phase.im * xr;
        }
    }

    /// Applies a single gate to the accumulated unitary (`U ← G · U`).
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let dim = self.dim();
        match gate {
            Gate::Cnot { control, target } => {
                let (control, target) = (*control, *target);
                assert!(
                    control < self.num_qubits && target < self.num_qubits && control != target,
                    "invalid CNOT qubits ({control}, {target})"
                );
                let (cmask, tmask) = (1usize << control, 1usize << target);
                for k in (0..dim).filter(|k| k & cmask != 0 && k & tmask == 0) {
                    let ((ar, ai), (br, bi)) = self.row_pair_mut(k, k | tmask);
                    ar.swap_with_slice(br);
                    ai.swap_with_slice(bi);
                }
            }
            Gate::GlobalPhase(phi) => {
                let phase = Complex::cis(*phi);
                for i in 0..dim {
                    self.scale_row(i, phase);
                }
            }
            single => {
                let q = single.qubits()[0];
                assert!(q < self.num_qubits, "gate qubit {q} out of range");
                let m = single.local_matrix();
                let stride = 1usize << q;
                for k in (0..dim).filter(|k| k & stride == 0) {
                    self.mix_rows(
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
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits,
            "Pauli string qubit count mismatch"
        );
        let rotation = PauliRotation::new(pauli, angle);
        if rotation.x_mask == 0 {
            for k in 0..self.dim() {
                self.scale_row(k, rotation.phase(k));
            }
            return;
        }
        for k in 0..self.dim() {
            let p = k ^ rotation.x_mask;
            if k < p {
                let (ck, cp) = rotation.pair(k);
                let cos = Complex::real(rotation.cos);
                self.mix_rows(k, p, [cos, ck], [cp, cos]);
            }
        }
    }

    /// Applies a sequence of Pauli rotations in order.
    pub fn apply_sequence(&mut self, sequence: &[(PauliString, f64)]) {
        for (p, angle) in sequence {
            self.apply_pauli_rotation(p, *angle);
        }
    }

    /// Exports the accumulated unitary as a dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let dim = self.dim();
        Matrix::from_fn(dim, dim, |i, j| {
            Complex::new(self.re[i * dim + j], self.im[i * dim + j])
        })
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
