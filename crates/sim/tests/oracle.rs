//! Oracle properties for the structure-aware kernels: the exact evolution
//! built from the Pauli terms against the dense matrix exponential, and
//! the fused rotation runs against rotation-by-rotation application.
//!
//! `QUICKPROP_CASES=500 cargo test --release -p marqsim-sim` is the soak
//! run.

use marqsim_hamlib::suite::{benchmark_by_name, SuiteScale};
use marqsim_linalg::{expm::expm_i_hermitian, Matrix};
use marqsim_pauli::{Hamiltonian, PauliOp, PauliString, Term};
use marqsim_sim::exact::{cost, exact_unitary};
use marqsim_sim::UnitaryAccumulator;
use quickprop::{check, Config, Gen};

const TOLERANCE: f64 = 1e-12;

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// A string with flip mask `x`: each flipped qubit is `X` or `Y` (mostly
/// `Y` when `y_heavy`), each other qubit `I` or `Z`.
fn string_with_mask(g: &mut Gen, n: usize, x: usize, y_heavy: bool) -> PauliString {
    let ops = (0..n)
        .map(
            |q| match (x >> q & 1 == 1, g.bool(if y_heavy { 0.8 } else { 0.5 })) {
                (true, true) => PauliOp::Y,
                (true, false) => PauliOp::X,
                (false, true) => PauliOp::Z,
                (false, false) => PauliOp::I,
            },
        )
        .collect();
    PauliString::from_ops(ops)
}

/// A 1–6-qubit Hamiltonian with several strings per x-mask (sometimes the
/// identity string), and a time with `λ·|t|` in `[0, 40)` of either sign.
fn hamiltonian_and_time(g: &mut Gen) -> (Hamiltonian, f64) {
    let n = g.usize_in(1..7);
    let y_heavy = g.bool(0.5);
    let mut terms = Vec::new();
    if g.bool(0.3) {
        terms.push(Term::new(g.f64_in(-1.0, 1.0), PauliString::identity(n)));
    }
    for _ in 0..g.usize_in(1..5) {
        let x = g.usize_in(0..1 << n);
        for _ in 0..g.usize_in(1..4) {
            let string = string_with_mask(g, n, x, y_heavy);
            terms.push(Term::new(g.f64_in(-1.0, 1.0), string));
        }
    }
    let ham = Hamiltonian::new(terms).unwrap_or_else(|_| {
        Hamiltonian::new(vec![Term::new(0.5, PauliString::identity(n))]).expect("one term")
    });
    let sign = if g.bool(0.5) { -1.0 } else { 1.0 };
    let t = sign * g.f64_in(0.0, 40.0) / ham.lambda();
    (ham, t)
}

#[test]
fn exact_unitary_matches_the_dense_exponential() {
    check(
        "exact_unitary == expm_i_hermitian(H.to_matrix(), t)",
        Config::default().with_seed(0xe4ac7),
        hamiltonian_and_time,
        |(ham, t)| {
            let diff = max_abs_diff(
                &exact_unitary(ham, *t),
                &expm_i_hermitian(&ham.to_matrix(), *t),
            );
            if diff <= TOLERANCE {
                Ok(())
            } else {
                Err(format!("max-abs difference {diff:e} ({:?})", cost(ham, *t)))
            }
        },
    );
}

#[test]
fn exact_unitary_matches_the_dense_exponential_on_reduced_na_plus() {
    let benchmark = benchmark_by_name("Na+", SuiteScale::Reduced).expect("a Table 1 name");
    let (ham, t) = (benchmark.hamiltonian, benchmark.time);
    assert_eq!(ham.num_qubits(), 8);
    let diff = max_abs_diff(
        &exact_unitary(&ham, t),
        &expm_i_hermitian(&ham.to_matrix(), t),
    );
    assert!(diff <= TOLERANCE, "max-abs difference {diff:e}");
}

#[test]
fn cost_counts_x_groups_and_squarings() {
    // x-masks: 0 (ZI, IZ), 0b01 (IX, ZY), 0b11 (XX); λ = 2.
    let ham = Hamiltonian::parse("0.5 ZI + 0.5 IZ + 0.25 IX + 0.25 ZY + 0.5 XX").unwrap();
    assert_eq!(cost(&ham, 0.1).qubits, 2);
    assert_eq!(cost(&ham, 0.1).x_groups, 3);
    assert_eq!(cost(&ham, 0.1).squarings, 0);
    assert_eq!(cost(&ham, -10.0).squarings, cost(&ham, 10.0).squarings);
    assert!(cost(&ham, 10.0).squarings <= 5);
}

/// A rotation sequence of long same-mask runs: diagonal runs, and runs
/// whose strings share one flip mask but need not commute (`X`/`Y` on the
/// same qubit).
fn run_heavy_sequence(g: &mut Gen) -> (usize, Vec<(PauliString, f64)>) {
    let n = g.usize_in(1..6);
    let mut sequence = Vec::new();
    for _ in 0..g.usize_in(1..8) {
        let x = if g.bool(0.5) {
            0
        } else {
            g.usize_in(0..1 << n)
        };
        let y_heavy = g.bool(0.5);
        for _ in 0..g.usize_in(1..10) {
            let string = string_with_mask(g, n, x, y_heavy);
            sequence.push((string, g.f64_in(-2.0, 2.0)));
        }
    }
    (n, sequence)
}

#[test]
fn fused_runs_match_rotation_by_rotation_application() {
    check(
        "apply_sequence == apply_pauli_rotation per rotation",
        Config::default().with_seed(0xf05ed),
        run_heavy_sequence,
        |(n, sequence)| {
            let mut fused = UnitaryAccumulator::new(*n);
            fused.apply_sequence(sequence);
            let mut single = UnitaryAccumulator::new(*n);
            for (pauli, angle) in sequence {
                single.apply_pauli_rotation(pauli, *angle);
            }
            let diff = max_abs_diff(&fused.to_matrix(), &single.to_matrix());
            if diff <= TOLERANCE {
                Ok(())
            } else {
                Err(format!("max-abs difference {diff:e}"))
            }
        },
    );
}
