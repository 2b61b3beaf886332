//! The action of a Pauli string, and of one Pauli rotation `exp(iθP)`, on
//! the computational basis. Shared by [`StateVector`](crate::StateVector)
//! (amplitudes), [`UnitaryAccumulator`](crate::UnitaryAccumulator) (rows)
//! and [`exact`](crate::exact) (the Hamiltonian's row action).

use marqsim_linalg::Complex;
use marqsim_pauli::PauliString;

/// The phase convention of this crate, in one place:
/// `P|m⟩ = i^{#Y} · s(m) · |m ^ x⟩` where `s(m) = (-1)^{popcount(m & z)}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PauliAction {
    /// `x` — the basis-flip mask; `0` for a diagonal string.
    pub x_mask: usize,
    z_mask: usize,
    /// `i^{#Y}`.
    y_phase: Complex,
}

impl PauliAction {
    /// The masks and `Y` phase of `pauli`.
    pub fn new(pauli: &PauliString) -> Self {
        let y_count = pauli
            .support()
            .filter(|(_, op)| op.x_bit() && op.z_bit())
            .count();
        let y_phase = match y_count % 4 {
            0 => Complex::ONE,
            1 => Complex::I,
            2 => -Complex::ONE,
            _ => -Complex::I,
        };
        PauliAction {
            x_mask: pauli.x_mask() as usize,
            z_mask: pauli.z_mask() as usize,
            y_phase,
        }
    }

    /// `⟨m ^ x| P |m⟩ = i^{#Y} · s(m)`.
    pub fn amplitude(&self, m: usize) -> Complex {
        if (m & self.z_mask).count_ones().is_multiple_of(2) {
            self.y_phase
        } else {
            -self.y_phase
        }
    }
}

/// `exp(iθP) = cos θ · I + i sin θ · P`. Applied to any vector `v` indexed
/// by basis state (an amplitude list, or a matrix's rows):
///
/// * diagonal strings (`x = 0`) scale entry `k` by [`phase`](Self::phase);
/// * otherwise entries pair up as `(k, k ^ x)` and mix with the
///   coefficients of [`pair`](Self::pair).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PauliRotation {
    pub action: PauliAction,
    /// `cos θ`, the identity component.
    pub cos: f64,
    /// `i sin θ`, the coefficient of `P`.
    coupling: Complex,
}

impl PauliRotation {
    /// Precomputes the masks and coefficients of `exp(i · angle · P)`.
    pub fn new(pauli: &PauliString, angle: f64) -> Self {
        PauliRotation {
            action: PauliAction::new(pauli),
            cos: angle.cos(),
            coupling: Complex::new(0.0, angle.sin()),
        }
    }

    /// `i sin θ · ⟨k ^ x| P |k⟩`.
    fn signed_coupling(&self, k: usize) -> Complex {
        self.coupling * self.action.amplitude(k)
    }

    /// The factor entry `k` picks up under a diagonal string.
    pub fn phase(&self, k: usize) -> Complex {
        Complex::real(self.cos) + self.signed_coupling(k)
    }

    /// For the pair `(k, p = k ^ x)`, the matrix `[[c, c_k], [c_p, c]]` of
    /// `v'[k] = c · v[k] + c_k · v[p]` and `v'[p] = c_p · v[k] + c · v[p]`,
    /// with `c = cos θ`.
    pub fn pair(&self, k: usize) -> [[Complex; 2]; 2] {
        let p = k ^ self.action.x_mask;
        let cos = Complex::real(self.cos);
        [
            [cos, self.signed_coupling(p)],
            [self.signed_coupling(k), cos],
        ]
    }
}
