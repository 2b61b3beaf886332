//! Peephole gate cancellation.
//!
//! The paper's baseline is "qDRIFT followed by applying gate cancellation
//! [22] on the randomized sequence" (§6.1). This module implements that
//! post-pass at the gate level:
//!
//! * adjacent self-inverse pairs (`H·H`, `X·X`, `CNOT·CNOT`, …) are removed,
//! * adjacent `S·S†` / `Rz(θ)·Rz(-θ)` pairs are removed,
//! * adjacent `Rz` rotations on the same qubit are merged,
//! * global phases are folded together.
//!
//! "Adjacent" is understood up to commutation: when searching backwards for a
//! cancellation partner, the pass slides over gates that provably commute
//! with the current gate (diagonal gates past CNOT controls, CNOTs sharing a
//! target, disjoint gates, …). This is what lets the facing CNOT ladders of
//! consecutive Pauli rotations cancel even when unrelated basis-change gates
//! sit between them — the mechanism MarQSim's term ordering exploits.
//!
//! # The wire walk
//!
//! Each pass scans the gates once, front to back. It keeps one list per
//! qubit wire of the live gates already scanned on that wire, newest first,
//! threaded through the gate slots: every slot holds one "previous live gate
//! on this wire" link per operand. A removed gate is unlinked from its
//! wires. The backward search from a gate walks only its own wires' lists;
//! for a CNOT it merges the control and target lists in descending slot
//! order and visits a gate on both wires once. An `Rz` merge rewrites the
//! current slot in place and unlinks its partner. Global phases sit on no
//! wire and fold into the first phase of the pass, as before.
//!
//! This makes exactly the removals and merges, in the same order, that a
//! search over every earlier slot makes. That search skips tombstones,
//! which never match. It also slides over gates that share no qubit with
//! the current gate, because `commutes` holds for disjoint gates, while
//! an `Rz` merge or a [`Gate::cancels_with`] partner always shares a
//! qubit. So the gates it stops at, matches and removes are all on the
//! current gate's wires, and they come in the same order in both searches.
//! The unindexed search survives as the test oracle, and a property test
//! compares the two gate for gate on random circuits and full-scale
//! compiles. Nam et al., "Automated optimization of large quantum circuits
//! with continuous parameters" (arXiv:1710.07345), run this kind of
//! cancellation over a circuit DAG; the wire lists are that DAG's edges,
//! kept up to date as gates are removed.

use crate::{Circuit, Gate};

/// Result of a cancellation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CancellationReport {
    /// Number of gates removed by the pass.
    pub removed: usize,
    /// Number of `Rz` pairs merged into a single rotation.
    pub merged_rotations: usize,
    /// Number of fixed-point iterations performed.
    pub iterations: usize,
}

/// Runs the peephole cancellation pass until no more gates can be removed and
/// returns the optimized circuit together with a report.
pub fn cancel_gates(circuit: &Circuit) -> (Circuit, CancellationReport) {
    let mut gates: Vec<Gate> = circuit.gates().to_vec();
    let mut report = CancellationReport::default();

    loop {
        report.iterations += 1;
        let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
        let (removed, merged) = single_pass(&mut slots, circuit.num_qubits());
        report.removed += removed;
        report.merged_rotations += merged;
        gates = slots.into_iter().flatten().collect();
        if removed == 0 && merged == 0 {
            break;
        }
    }

    let optimized = Circuit::from_gates(circuit.num_qubits(), gates);
    (optimized, report)
}

/// Returns `true` when the two gates are known to commute. Conservative: a
/// `false` answer only means the pass will not slide one past the other.
fn commutes(a: &Gate, b: &Gate) -> bool {
    use Gate::*;
    let is_diagonal = |g: &Gate| matches!(g, Z(_) | S(_) | Sdg(_) | Rz(_, _));
    let is_x_type = |g: &Gate| matches!(g, X(_) | Rx(_, _));
    match (a, b) {
        (GlobalPhase(_), _) | (_, GlobalPhase(_)) => true,
        (
            Cnot {
                control: c1,
                target: t1,
            },
            Cnot {
                control: c2,
                target: t2,
            },
        ) => {
            // Disjoint, equal, or sharing only a control or only a target;
            // a control-target overlap does not commute.
            a == b || (c1 != t2 && c2 != t1)
        }
        (Cnot { control, target }, single) | (single, Cnot { control, target }) => {
            let q = single.qubits()[0];
            (q != *control && q != *target)
                || (q == *control && is_diagonal(single))
                || (q == *target && is_x_type(single))
        }
        (x, y) => {
            x.qubits()[0] != y.qubits()[0]
                || x == y
                || (is_diagonal(x) && is_diagonal(y))
                || (is_x_type(x) && is_x_type(y))
        }
    }
}

/// "No slot" in the per-wire lists.
const NONE: usize = usize::MAX;

/// Where slot `slot`'s link on `wire` lives in the `below` array: operand 0
/// is a single-qubit gate's qubit or a CNOT's control, operand 1 a CNOT's
/// target.
fn link(gates: &[Option<Gate>], slot: usize, wire: usize) -> usize {
    let on_target = matches!(gates[slot], Some(Gate::Cnot { control, .. }) if control != wire);
    2 * slot + usize::from(on_target)
}

/// One walk down one wire of the current gate: `next` is the next live slot
/// to visit and `above` the slot visited before it (whose link points at
/// `next`), or [`NONE`] while `next` is still the wire's head.
#[derive(Clone, Copy)]
struct Cursor {
    wire: usize,
    next: usize,
    above: usize,
}

/// One linear scan: for each gate, walk backwards over the live gates that
/// share a wire with it, looking for a cancellation/merge partner; stop at
/// the first blocking gate.
///
/// `head[w]` is the latest live slot on wire `w` before the current gate,
/// and `below[link(s, w)]` the live slot before `s` on `w`. A slot joins its
/// wires' lists once the scan has passed it and leaves them when it is
/// tombstoned, so the lists never hold a tombstone.
fn single_pass(gates: &mut [Option<Gate>], num_qubits: usize) -> (usize, usize) {
    let len = gates.len();
    let mut removed = 0usize;
    let mut merged = 0usize;
    let mut phase_slot: Option<usize> = None;
    let mut head = vec![NONE; num_qubits];
    let mut below = vec![NONE; 2 * len];

    for idx in 0..len {
        let Some(current) = gates[idx].clone() else {
            continue;
        };
        if let Gate::GlobalPhase(phi) = current {
            match phase_slot {
                None => phase_slot = Some(idx),
                Some(slot) => {
                    if let Some(Gate::GlobalPhase(prev)) = gates[slot].clone() {
                        gates[slot] = Some(Gate::GlobalPhase(prev + phi));
                        gates[idx] = None;
                        removed += 1;
                    }
                }
            }
            continue;
        }

        let qubits = current.qubits();
        // A CNOT whose control is its own target sits on one wire.
        let wires = match *qubits {
            [control, target] if control == target => &qubits[..1],
            _ => &qubits[..],
        };
        let mut cursors = [Cursor {
            wire: 0,
            next: NONE,
            above: NONE,
        }; 2];
        for (cursor, &wire) in cursors.iter_mut().zip(wires) {
            cursor.wire = wire;
            cursor.next = head[wire];
        }
        let cursors = &mut cursors[..wires.len()];

        // Visit the wires' slots in descending order, a slot on both wires
        // once. Every gate the unindexed scan would see in between shares
        // no wire with `current`, so it commutes and cannot match.
        while let Some(j) = cursors.iter().map(|c| c.next).filter(|&j| j != NONE).max() {
            let Some(prev) = &gates[j] else {
                unreachable!("wire lists hold live slots only");
            };
            // Merge adjacent Rz rotations on the same qubit.
            let partner = match (prev, &current) {
                (Gate::Rz(q, a), Gate::Rz(_, b)) => {
                    let sum = a + b;
                    if sum.abs() < 1e-15 {
                        gates[idx] = None;
                        removed += 2;
                    } else {
                        gates[idx] = Some(Gate::Rz(*q, sum));
                        removed += 1;
                        merged += 1;
                    }
                    true
                }
                _ if prev.cancels_with(&current) => {
                    gates[idx] = None;
                    removed += 2;
                    true
                }
                _ if !commutes(prev, &current) => break,
                _ => false,
            };
            if partner {
                // The partner sits on the current gate's wires only, so every
                // list it is in is being walked: unlink it through the
                // cursors, which know the link that points at it.
                for cursor in cursors.iter().filter(|c| c.next == j) {
                    let rest = below[link(gates, j, cursor.wire)];
                    if cursor.above == NONE {
                        head[cursor.wire] = rest;
                    } else {
                        below[link(gates, cursor.above, cursor.wire)] = rest;
                    }
                }
                gates[j] = None;
                break;
            }
            for cursor in cursors.iter_mut().filter(|c| c.next == j) {
                cursor.above = j;
                cursor.next = below[link(gates, j, cursor.wire)];
            }
        }

        if gates[idx].is_some() {
            for &wire in wires {
                below[link(gates, idx, wire)] = head[wire];
                head[wire] = idx;
            }
        }
    }
    (removed, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis;
    use marqsim_linalg::{Complex, Matrix};
    use marqsim_pauli::{PauliOp, PauliString};
    use quickprop::{check, Config, Gen};

    /// The commutation rule as first written: disjointness from the qubit
    /// lists, then the per-kind rules. The oracle for [`commutes`].
    fn reference_commutes(a: &Gate, b: &Gate) -> bool {
        use Gate::*;
        if matches!(a, GlobalPhase(_)) || matches!(b, GlobalPhase(_)) {
            return true;
        }
        let qa = a.qubits();
        let qb = b.qubits();
        if qa.iter().all(|q| !qb.contains(q)) {
            return true;
        }
        let is_diagonal = |g: &Gate| matches!(g, Z(_) | S(_) | Sdg(_) | Rz(_, _));
        let is_x_type = |g: &Gate| matches!(g, X(_) | Rx(_, _));
        match (a, b) {
            (
                Cnot {
                    control: c1,
                    target: t1,
                },
                Cnot {
                    control: c2,
                    target: t2,
                },
            ) => a == b || ((c1 == c2 || t1 == t2) && c1 != t2 && c2 != t1),
            (Cnot { control, target }, single) | (single, Cnot { control, target }) => {
                let q = single.qubits()[0];
                (q == *control && is_diagonal(single)) || (q == *target && is_x_type(single))
            }
            (x, y) => {
                x == y || (is_diagonal(x) && is_diagonal(y)) || (is_x_type(x) && is_x_type(y))
            }
        }
    }

    /// The unindexed pass the wire walk replaced: from every gate, walk
    /// back over every earlier slot, tombstones and disjoint gates
    /// included, with [`reference_commutes`]. The oracle for
    /// [`single_pass`].
    fn reference_pass(gates: &mut [Option<Gate>]) -> (usize, usize) {
        let len = gates.len();
        let mut removed = 0usize;
        let mut merged = 0usize;
        let mut phase_slot: Option<usize> = None;

        for idx in 0..len {
            let Some(current) = gates[idx].clone() else {
                continue;
            };
            if let Gate::GlobalPhase(phi) = current {
                match phase_slot {
                    None => phase_slot = Some(idx),
                    Some(slot) => {
                        if let Some(Gate::GlobalPhase(prev)) = gates[slot].clone() {
                            gates[slot] = Some(Gate::GlobalPhase(prev + phi));
                            gates[idx] = None;
                            removed += 1;
                        }
                    }
                }
                continue;
            }

            for j in (0..idx).rev() {
                let Some(prev) = gates[j].clone() else {
                    continue;
                };
                if let (Gate::Rz(q1, a), Gate::Rz(q2, b)) = (&prev, &current) {
                    if q1 == q2 {
                        let sum = a + b;
                        if sum.abs() < 1e-15 {
                            gates[j] = None;
                            gates[idx] = None;
                            removed += 2;
                        } else {
                            gates[j] = None;
                            gates[idx] = Some(Gate::Rz(*q1, sum));
                            removed += 1;
                            merged += 1;
                        }
                        break;
                    }
                }
                if prev.cancels_with(&current) {
                    gates[j] = None;
                    gates[idx] = None;
                    removed += 2;
                    break;
                }
                if !reference_commutes(&prev, &current) {
                    break;
                }
            }
        }
        (removed, merged)
    }

    /// [`cancel_gates`]' fixed-point loop around [`reference_pass`].
    fn reference_cancel_gates(circuit: &Circuit) -> (Circuit, CancellationReport) {
        let mut gates: Vec<Gate> = circuit.gates().to_vec();
        let mut report = CancellationReport::default();
        loop {
            report.iterations += 1;
            let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
            let (removed, merged) = reference_pass(&mut slots);
            report.removed += removed;
            report.merged_rotations += merged;
            gates = slots.into_iter().flatten().collect();
            if removed == 0 && merged == 0 {
                break;
            }
        }
        (Circuit::from_gates(circuit.num_qubits(), gates), report)
    }

    /// Checks the wire-indexed pass against the oracle, gate for gate (angles
    /// bit for bit) and report for report.
    fn matches_reference(circuit: &Circuit) -> Result<(), String> {
        let (fast, fast_report) = cancel_gates(circuit);
        let (slow, slow_report) = reference_cancel_gates(circuit);
        if fast_report != slow_report {
            return Err(format!("report {fast_report:?} != oracle {slow_report:?}"));
        }
        if fast.len() != slow.len() {
            return Err(format!("{} gates != oracle {}", fast.len(), slow.len()));
        }
        for (i, (a, b)) in fast.gates().iter().zip(slow.gates()).enumerate() {
            let same = match (a, b) {
                (Gate::Rz(qa, x), Gate::Rz(qb, y)) => qa == qb && x.to_bits() == y.to_bits(),
                (Gate::GlobalPhase(x), Gate::GlobalPhase(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            };
            if !same {
                return Err(format!("gate {i}: {a} != oracle {b}"));
            }
        }
        Ok(())
    }

    /// A random circuit built to exercise every rule of the pass: CNOTs on a
    /// few wires (so they share controls and targets, and now and then sit
    /// on one wire), diagonal and X-type gates on CNOT wires, `Rz` pairs
    /// with exactly opposite angles, global phases, synthesized Pauli
    /// rotations whose ladders face each other, and inverses of recent
    /// gates, so partners often sit a few commuting gates back.
    fn random_circuit(g: &mut Gen) -> Circuit {
        const ANGLES: [f64; 4] = [0.25, -0.25, 0.5, 1.0];
        let n = g.usize_in(1..6);
        let mut c = Circuit::new(n);
        for _ in 0..g.usize_in(0..100) {
            let q = g.usize_in(0..n);
            let angle = *g.choose(&ANGLES);
            match g.usize_in(0..14) {
                0 => c.push(Gate::H(q)),
                1 => c.push(Gate::X(q)),
                2 => c.push(Gate::Y(q)),
                3 => c.push(Gate::Z(q)),
                4 => c.push(if g.bool(0.5) {
                    Gate::S(q)
                } else {
                    Gate::Sdg(q)
                }),
                5 => c.push(if g.bool(0.5) {
                    Gate::Rx(q, angle)
                } else {
                    Gate::Ry(q, angle)
                }),
                6 => c.push(Gate::Rz(q, angle)),
                7 => c.push(Gate::GlobalPhase(angle)),
                8 => {
                    let ops = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
                    let p = PauliString::from_ops((0..n).map(|_| *g.choose(&ops)).collect());
                    synthesis::append_pauli_rotation(&mut c, &p, angle);
                }
                9 | 10 => {
                    // The inverse of one of the last few gates: an exactly
                    // opposite Rz, a repeated CNOT, S after S†, ...
                    if !c.is_empty() {
                        let back = g.usize_in(1..c.len().min(8) + 1);
                        let inverse = c.gates()[c.len() - back].inverse();
                        c.push(inverse);
                    }
                }
                _ => {
                    let control = g.usize_in(0..n);
                    let target = if n > 1 && g.bool(0.95) {
                        (control + g.usize_in(1..n)) % n
                    } else {
                        control
                    };
                    c.push(Gate::Cnot { control, target });
                }
            }
        }
        c
    }

    #[test]
    fn wire_walk_matches_the_unindexed_pass_on_random_circuits() {
        check(
            "cancel_gates == reference_cancel_gates",
            Config::default().with_seed(0xCA7C),
            random_circuit,
            matches_reference,
        );
    }

    #[test]
    fn wire_walk_matches_the_unindexed_pass_on_full_scale_compiles() {
        use marqsim_core::{Compiler, CompilerConfig, TransitionStrategy};
        use marqsim_hamlib::suite::{benchmark_by_name, SuiteScale};

        for name in ["Na+", "OH-"] {
            let bench = benchmark_by_name(name, SuiteScale::Full).unwrap();
            for strategy in [TransitionStrategy::QDrift, TransitionStrategy::marqsim_gc()] {
                let config = CompilerConfig::new(bench.time, 0.05)
                    .with_strategy(strategy.clone())
                    .with_seed(1)
                    .without_circuit();
                let result = Compiler::new(config).compile(&bench.hamiltonian).unwrap();
                let circuit = synthesis::sequence_circuit(
                    bench.hamiltonian.num_qubits(),
                    &result.rotation_sequence(),
                );
                assert!(circuit.len() > 1000, "{name}: {} gates", circuit.len());
                if let Err(reason) = matches_reference(&circuit) {
                    panic!("{name} under {strategy:?}: {reason}");
                }
            }
        }
    }

    fn unitary(circ: &Circuit) -> Matrix {
        let n = circ.num_qubits();
        let dim = 1usize << n;
        let mut u = Matrix::identity(dim);
        for gate in circ.gates() {
            let full = match gate {
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
                Gate::GlobalPhase(phi) => Matrix::identity(dim).scale(Complex::cis(*phi)),
                g => {
                    let qb = g.qubits()[0];
                    let local = g.local_matrix();
                    Matrix::from_fn(dim, dim, |i, j| {
                        if (i ^ j) & !(1usize << qb) != 0 {
                            Complex::ZERO
                        } else {
                            local[((i >> qb) & 1, (j >> qb) & 1)]
                        }
                    })
                }
            };
            u = full.matmul(&u);
        }
        u
    }

    #[test]
    fn adjacent_hadamards_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        c.push(Gate::H(0));
        let (opt, report) = cancel_gates(&c);
        assert!(opt.is_empty());
        assert_eq!(report.removed, 2);
    }

    #[test]
    fn blocked_gates_do_not_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::H(0));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 3);
    }

    #[test]
    fn gates_on_other_qubits_do_not_block() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::X(1));
        c.push(Gate::H(0));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.gates()[0], Gate::X(1));
    }

    #[test]
    fn cnot_pairs_cancel_when_nothing_blocks() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn cnot_pairs_blocked_by_rotation_on_target_do_not_cancel() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(Gate::Rz(1, 0.3));
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 2);
    }

    #[test]
    fn cnot_slides_past_diagonal_gate_on_control() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(Gate::Rz(0, 0.3));
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert_eq!(opt.len(), 1);
        // The optimized circuit must implement the same unitary.
        assert!(unitary(&opt).approx_eq(
            &unitary(&{
                let mut orig = Circuit::new(2);
                orig.push(cx.clone());
                orig.push(Gate::Rz(0, 0.3));
                orig.push(cx);
                orig
            }),
            1e-10
        ));
    }

    #[test]
    fn cnots_sharing_a_target_commute_and_cancel() {
        let a = Gate::Cnot {
            control: 1,
            target: 0,
        };
        let b = Gate::Cnot {
            control: 2,
            target: 0,
        };
        let mut c = Circuit::new(3);
        c.push(a.clone());
        c.push(b.clone());
        c.push(a.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 1);
        assert_eq!(opt.gates()[0], b);
    }

    #[test]
    fn rz_rotations_merge() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Rz(0, 0.5));
        let (opt, report) = cancel_gates(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(report.merged_rotations, 1);
        assert_eq!(opt.gates()[0], Gate::Rz(0, 0.75));
    }

    #[test]
    fn opposite_rz_rotations_cancel_entirely() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Rz(0, -0.25));
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn s_and_sdg_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn global_phases_fold_together() {
        let mut c = Circuit::new(1);
        c.push(Gate::GlobalPhase(0.25));
        c.push(Gate::H(0));
        c.push(Gate::GlobalPhase(0.5));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 2);
        assert!(matches!(opt.gates()[0], Gate::GlobalPhase(p) if (p - 0.75).abs() < 1e-12));
    }

    #[test]
    fn consecutive_identical_pauli_rotations_share_their_ladders() {
        // Two back-to-back exp(i θ ZZZZ) rotations: the facing CNOT ladders and
        // the Rz merge, leaving a single rotation worth of gates.
        let p: PauliString = "ZZZZ".parse().unwrap();
        let mut c = Circuit::new(4);
        synthesis::append_pauli_rotation(&mut c, &p, 0.3);
        synthesis::append_pauli_rotation(&mut c, &p, 0.3);
        assert_eq!(c.cnot_count(), 12);
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 6);
        assert_eq!(opt.rz_count(), 1);
        assert!(unitary(&opt).approx_eq(&unitary(&c), 1e-10));
    }

    #[test]
    fn matched_operators_between_different_strings_cancel_cnots() {
        // ZZZZ followed by XZXZ (Fig. 6 of the paper): the CNOTs of the shared
        // Z qubit cancel at the junction even though the strings differ.
        let a: PauliString = "ZZZZ".parse().unwrap();
        let b: PauliString = "XZXZ".parse().unwrap();
        let mut c = Circuit::new(4);
        synthesis::append_pauli_rotation(&mut c, &a, 0.3);
        synthesis::append_pauli_rotation(&mut c, &b, 0.3);
        let before = c.cnot_count();
        let (opt, _) = cancel_gates(&c);
        assert!(
            opt.cnot_count() < before,
            "expected junction CNOT cancellation ({} -> {})",
            before,
            opt.cnot_count()
        );
        assert!(unitary(&opt).approx_eq(&unitary(&c), 1e-10));
    }

    #[test]
    fn optimized_circuit_preserves_the_unitary() {
        let p: PauliString = "XY".parse().unwrap();
        let mut c = Circuit::new(2);
        synthesis::append_pauli_rotation(&mut c, &p, 0.4);
        synthesis::append_pauli_rotation(&mut c, &p, -0.1);
        let (opt, _) = cancel_gates(&c);
        assert!(unitary(&c).approx_eq(&unitary(&opt), 1e-10));
        assert!(opt.gate_count() < c.gate_count());
    }

    /// Every gate kind at every placement on 3 qubits: each single-qubit
    /// gate on each qubit (rotations at angles that include an exactly
    /// opposite pair), global phases, and a CNOT on every ordered pair.
    fn every_placement() -> Vec<Gate> {
        let mut gates = Vec::new();
        for q in 0..3 {
            gates.extend([Gate::H(q), Gate::X(q), Gate::Y(q), Gate::Z(q)]);
            gates.extend([Gate::S(q), Gate::Sdg(q)]);
            for angle in [0.3, -0.3, 1.1] {
                gates.extend([Gate::Rx(q, angle), Gate::Ry(q, angle), Gate::Rz(q, angle)]);
            }
        }
        gates.extend([Gate::GlobalPhase(0.2), Gate::GlobalPhase(-0.2)]);
        for control in 0..3 {
            for target in (0..3).filter(|&t| t != control) {
                gates.push(Gate::Cnot { control, target });
            }
        }
        gates
    }

    #[test]
    fn commutation_rule_matches_its_first_form() {
        // Every pair, CNOTs whose control is their target included.
        let mut gates = every_placement();
        gates.extend((0..3).map(|q| Gate::Cnot {
            control: q,
            target: q,
        }));
        for a in &gates {
            for b in &gates {
                assert_eq!(commutes(a, b), reference_commutes(a, b), "{a} vs {b}");
            }
        }
    }

    fn product(first: &Gate, second: &Gate) -> Matrix {
        let mut c = Circuit::new(3);
        c.push(first.clone());
        c.push(second.clone());
        unitary(&c)
    }

    #[test]
    fn commutation_relation_is_sound() {
        // Every pair the pass considers commuting must actually commute as
        // matrices on a 3-qubit register.
        let gates = every_placement();
        let mut commuting = 0;
        for a in &gates {
            for b in &gates {
                if commutes(a, b) {
                    commuting += 1;
                    assert!(
                        product(a, b).approx_eq(&product(b, a), 1e-10),
                        "{a} and {b} flagged as commuting but do not commute"
                    );
                }
            }
        }
        assert!(commuting > gates.len() * gates.len() / 2, "{commuting}");
    }

    #[test]
    fn cancelling_pairs_multiply_to_the_identity() {
        let gates = every_placement();
        let mut cancelling = 0;
        for a in &gates {
            for b in &gates {
                if a.cancels_with(b) {
                    cancelling += 1;
                    assert!(
                        product(a, b).approx_eq(&Matrix::identity(8), 1e-10),
                        "{a} and {b} flagged as cancelling but their product is not the identity"
                    );
                }
            }
        }
        // H, X, Y, Z, S·S†, S†·S and the two opposite-angle pairs of each
        // rotation per qubit, the two phases, and the six CNOTs.
        assert_eq!(cancelling, 3 * (4 + 2 + 3 * 2) + 2 + 6);
    }
}
