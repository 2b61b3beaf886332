//! Output checks that do not trust the code under test: a dense `expm`
//! reference for fidelities, an independent recount of circuit gate lists,
//! and the committed golden gate counts.

use std::collections::BTreeMap;

use marqsim_circuit::{Circuit, Gate, GateStats};
use marqsim_core::metrics::SequenceStats;
use marqsim_linalg::{expm::expm, Complex, Matrix};
use marqsim_pauli::{Hamiltonian, PauliString};
use marqsim_sim::exact::exact_unitary;

/// Committed golden gate counts for the tiny benchmarks under the engine's
/// default (`auto`) flow backend, in the checkout the benchmark was built
/// from.
pub const GOLDEN_TABLE2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/golden/table2.auto.txt"
);

/// Fidelity of `Π_k expm(i·θ_k·P_k)` (dense matrices, applied in sequence
/// order) against `exact_unitary(ham, t)`: `|tr(U · E†)| / 2^n`.
pub fn reference_fidelity(ham: &Hamiltonian, t: f64, rotations: &[(PauliString, f64)]) -> f64 {
    let dim = 1usize << ham.num_qubits();
    let mut unitary = Matrix::identity(dim);
    for (pauli, angle) in rotations {
        let rotation = expm(&pauli.to_matrix().scale(Complex::new(0.0, *angle)));
        unitary = rotation.matmul(&unitary);
    }
    let exact = exact_unitary(ham, t);
    let mut trace = Complex::ZERO;
    for i in 0..dim {
        for k in 0..dim {
            trace += unitary[(i, k)] * exact[(i, k)].conj();
        }
    }
    trace.abs() / dim as f64
}

/// Gate statistics recounted from the gate list alone.
pub fn recount(circuit: &Circuit) -> GateStats {
    let mut stats = GateStats::default();
    let mut level = vec![0usize; circuit.num_qubits()];
    for gate in circuit.gates() {
        let qubits: &[usize] = match gate {
            Gate::GlobalPhase(_) => continue,
            Gate::Cnot { control, target } => {
                stats.cnot += 1;
                &[*control, *target]
            }
            Gate::H(q) | Gate::X(q) | Gate::Y(q) | Gate::Z(q) | Gate::S(q) | Gate::Sdg(q) => {
                stats.single_qubit += 1;
                std::slice::from_ref(q)
            }
            Gate::Rx(q, _) | Gate::Ry(q, _) => {
                stats.single_qubit += 1;
                std::slice::from_ref(q)
            }
            Gate::Rz(q, _) => {
                stats.single_qubit += 1;
                stats.rz += 1;
                std::slice::from_ref(q)
            }
        };
        let next = qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
        for &q in qubits {
            level[q] = next;
        }
    }
    stats.total = stats.cnot + stats.single_qubit;
    stats.depth = level.into_iter().max().unwrap_or(0);
    stats
}

/// One golden row: `(samples, sequence stats)`.
pub type GoldenRow = (usize, SequenceStats);

/// Parses the golden table: `benchmark strategy samples cnot single_qubit
/// rz total segments`, keyed by `(benchmark, strategy tag)`.
///
/// # Errors
///
/// Fails when the file is missing or a row is malformed.
pub fn golden_table2() -> Result<BTreeMap<(String, String), GoldenRow>, String> {
    let text = std::fs::read_to_string(GOLDEN_TABLE2)
        .map_err(|e| format!("cannot read {GOLDEN_TABLE2}: {e}"))?;
    let mut rows = BTreeMap::new();
    for line in text.lines().skip(1).filter(|line| !line.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let numbers: Vec<usize> = fields
            .iter()
            .skip(2)
            .map(|field| field.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{GOLDEN_TABLE2}: bad row {line:?}: {e}"))?;
        let [samples, cnot, single_qubit, rz, total, segments] = numbers[..] else {
            return Err(format!("{GOLDEN_TABLE2}: bad row {line:?}"));
        };
        rows.insert(
            (fields[0].to_string(), fields[1].to_string()),
            (
                samples,
                SequenceStats {
                    cnot,
                    single_qubit,
                    rz,
                    total,
                    segments,
                },
            ),
        );
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_circuit::synthesis::sequence_circuit;
    use marqsim_core::metrics::evaluate_fidelity;
    use marqsim_core::{Compiler, CompilerConfig, TransitionStrategy};

    #[test]
    fn recount_matches_circuit_stats() {
        let ham = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap();
        let result = Compiler::new(
            CompilerConfig::new(0.5, 0.1).with_strategy(TransitionStrategy::marqsim_gc()),
        )
        .compile(&ham)
        .unwrap();
        assert_eq!(recount(&result.circuit), result.circuit_stats);
        let raw = sequence_circuit(4, &result.rotation_sequence());
        assert_eq!(recount(&raw), raw.stats());
    }

    #[test]
    fn dense_reference_agrees_with_the_accumulator() {
        let ham = Hamiltonian::parse("1.0 ZZI + 0.8 IZZ + 0.5 XII + 0.5 IXI + 0.5 IIX").unwrap();
        let result = Compiler::new(CompilerConfig::new(0.5, 0.05).without_circuit())
            .compile(&ham)
            .unwrap();
        let fidelity = evaluate_fidelity(&result.hamiltonian, 0.5, &result.sequence);
        let reference = reference_fidelity(&result.hamiltonian, 0.5, &result.rotation_sequence());
        assert!(
            (fidelity - reference).abs() < 1e-9,
            "{fidelity} vs {reference}"
        );
        assert!(fidelity > 0.9 && fidelity <= 1.0 + 1e-9);
    }
}
