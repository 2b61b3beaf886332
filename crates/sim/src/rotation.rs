//! The action of one Pauli rotation `exp(iθP)` on the computational basis,
//! shared by [`StateVector`](crate::StateVector) (amplitudes) and
//! [`UnitaryAccumulator`](crate::UnitaryAccumulator) (rows).

use marqsim_linalg::Complex;
use marqsim_pauli::PauliString;

/// `exp(iθP) = cos θ · I + i sin θ · P`, with `P|m⟩ = i^{#Y} · s(m) · |m ^ x⟩`
/// where `s(m) = (-1)^{popcount(m & z)}`. Applied to any vector `v` indexed
/// by basis state (an amplitude list, or a matrix's rows):
///
/// * diagonal strings (`x = 0`) scale entry `k` by [`phase`](Self::phase);
/// * otherwise entries pair up as `(k, k ^ x)` and mix with the
///   coefficients of [`pair`](Self::pair).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PauliRotation {
    /// `x` — the basis-flip mask; `0` for a diagonal string.
    pub x_mask: usize,
    z_mask: usize,
    /// `cos θ`, the identity component.
    pub cos: f64,
    /// `i sin θ · i^{#Y}`: the coefficient of `s(src) · v[src]`.
    coupling: Complex,
}

impl PauliRotation {
    /// Precomputes the masks and coefficients of `exp(i · angle · P)`.
    pub fn new(pauli: &PauliString, angle: f64) -> Self {
        let y_count = pauli
            .support()
            .filter(|(_, op)| op.x_bit() && op.z_bit())
            .count();
        // i^{y_count}
        let y_phase = match y_count % 4 {
            0 => Complex::ONE,
            1 => Complex::I,
            2 => -Complex::ONE,
            _ => -Complex::I,
        };
        PauliRotation {
            x_mask: pauli.x_mask() as usize,
            z_mask: pauli.z_mask() as usize,
            cos: angle.cos(),
            coupling: Complex::new(0.0, angle.sin()) * y_phase,
        }
    }

    /// `coupling · s(k)`.
    fn signed_coupling(&self, k: usize) -> Complex {
        if (k & self.z_mask).count_ones().is_multiple_of(2) {
            self.coupling
        } else {
            -self.coupling
        }
    }

    /// The factor entry `k` picks up under a diagonal string.
    pub fn phase(&self, k: usize) -> Complex {
        Complex::real(self.cos) + self.signed_coupling(k)
    }

    /// For the pair `(k, p = k ^ x)`, the coefficients `(c_k, c_p)` of
    /// `v'[k] = cos · v[k] + c_k · v[p]` and `v'[p] = cos · v[p] + c_p · v[k]`.
    pub fn pair(&self, k: usize) -> (Complex, Complex) {
        let p = k ^ self.x_mask;
        (self.signed_coupling(p), self.signed_coupling(k))
    }
}
