//! The Table 1 benchmark suite.

use std::f64::consts::PI;

use marqsim_fermion::molecular::{molecular_hamiltonian, MolecularParams};
use marqsim_fermion::syk::{syk_hamiltonian, SykParams};
use marqsim_pauli::Hamiltonian;

/// How large the generated benchmarks should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteScale {
    /// The paper's sizes (qubit counts 8–14, hundreds of Pauli strings).
    /// Gate-count experiments run at this scale; exact-unitary fidelity at 12
    /// or more qubits is expensive on a CPU.
    Full,
    /// A scaled-down suite (at most 8 qubits, tens of Pauli strings) with the
    /// same relative structure, used by tests and quick fidelity sweeps.
    Reduced,
}

/// Which generator family a benchmark comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkKind {
    /// Synthetic electronic-structure system (PySCF substitution).
    Molecular,
    /// Sachdev–Ye–Kitaev instance.
    Syk,
}

/// One benchmark of the evaluation suite.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The paper's benchmark name (e.g. `"Na+"`, `"SYK model 1"`).
    pub name: &'static str,
    /// Which generator produced it.
    pub kind: BenchmarkKind,
    /// Number of qubits.
    pub qubits: usize,
    /// Number of Pauli strings (matches Table 1 at full scale).
    pub pauli_strings: usize,
    /// Evolution time `t` used in the evaluation.
    pub time: f64,
    /// The Hamiltonian itself.
    pub hamiltonian: Hamiltonian,
}

/// Specification of one Table 1 row.
struct Spec {
    name: &'static str,
    kind: BenchmarkKind,
    qubits: usize,
    strings: usize,
    time: f64,
    seed: u64,
}

fn table1_specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "Na+",
            kind: BenchmarkKind::Molecular,
            qubits: 8,
            strings: 60,
            time: PI / 4.0,
            seed: 101,
        },
        Spec {
            name: "Cl-",
            kind: BenchmarkKind::Molecular,
            qubits: 8,
            strings: 60,
            time: PI / 4.0,
            seed: 102,
        },
        Spec {
            name: "Ar",
            kind: BenchmarkKind::Molecular,
            qubits: 8,
            strings: 60,
            time: PI / 4.0,
            seed: 103,
        },
        Spec {
            name: "OH-",
            kind: BenchmarkKind::Molecular,
            qubits: 10,
            strings: 275,
            time: PI / 4.0,
            seed: 104,
        },
        Spec {
            name: "HF",
            kind: BenchmarkKind::Molecular,
            qubits: 10,
            strings: 275,
            time: PI / 4.0,
            seed: 105,
        },
        Spec {
            name: "LiH (froze)",
            kind: BenchmarkKind::Molecular,
            qubits: 10,
            strings: 275,
            time: PI / 4.0,
            seed: 106,
        },
        Spec {
            name: "BeH2 (froze)",
            kind: BenchmarkKind::Molecular,
            qubits: 12,
            strings: 661,
            time: PI / 4.0,
            seed: 107,
        },
        Spec {
            name: "LiH",
            kind: BenchmarkKind::Molecular,
            qubits: 12,
            strings: 614,
            time: PI / 4.0,
            seed: 108,
        },
        Spec {
            name: "H2O",
            kind: BenchmarkKind::Molecular,
            qubits: 12,
            strings: 550,
            time: PI / 4.0,
            seed: 109,
        },
        Spec {
            name: "SYK model 1",
            kind: BenchmarkKind::Syk,
            qubits: 8,
            strings: 210,
            time: 0.15,
            seed: 110,
        },
        Spec {
            name: "SYK model 2",
            kind: BenchmarkKind::Syk,
            qubits: 10,
            strings: 210,
            time: 0.15,
            seed: 111,
        },
        Spec {
            name: "BeH2",
            kind: BenchmarkKind::Syk,
            qubits: 14,
            strings: 661,
            time: 0.15,
            seed: 112,
        },
    ]
}

/// Generates one benchmark from its spec at the requested scale.
fn build(spec: &Spec, scale: SuiteScale) -> Benchmark {
    let (qubits, strings) = match scale {
        SuiteScale::Full => (spec.qubits, spec.strings),
        SuiteScale::Reduced => (spec.qubits.min(8), (spec.strings / 6).clamp(12, 60)),
    };
    let hamiltonian = match spec.kind {
        BenchmarkKind::Molecular => {
            // Increase two-body density until the generator produces at least
            // the requested number of strings, then trim to the exact count.
            let mut density = 0.3;
            loop {
                let params = MolecularParams {
                    spin_orbitals: qubits,
                    seed: spec.seed,
                    one_body_scale: 1.0,
                    two_body_scale: 0.35,
                    two_body_density: density,
                };
                let ham = molecular_hamiltonian(&params, Some(strings))
                    .expect("molecular generator always yields terms");
                if ham.num_terms() >= strings || density >= 1.0 {
                    break ham;
                }
                density = (density + 0.2).min(1.0);
            }
        }
        BenchmarkKind::Syk => {
            // Pick the number of Majoranas that fits the qubit count, then
            // trim to the requested coupling count.
            let params = SykParams {
                majoranas: 2 * qubits,
                coupling: 1.0,
                seed: spec.seed,
            };
            syk_hamiltonian(&params, Some(strings))
        }
    };
    Benchmark {
        name: spec.name,
        kind: spec.kind,
        qubits,
        pauli_strings: hamiltonian.num_terms(),
        time: spec.time,
        hamiltonian,
    }
}

/// Generates the full Table 1 suite at the requested scale.
pub fn table1_suite(scale: SuiteScale) -> Vec<Benchmark> {
    table1_specs().iter().map(|s| build(s, scale)).collect()
}

/// The benchmark names of Table 1, in table order. Useful for constructing
/// the suite benchmark-by-benchmark (e.g. in parallel with
/// [`benchmark_by_name`]) without building every Hamiltonian up front.
pub fn table1_names() -> Vec<&'static str> {
    table1_specs().iter().map(|s| s.name).collect()
}

/// Generates a single named benchmark from the Table 1 suite.
///
/// Returns `None` if the name is not in the suite. Names match Table 1
/// (e.g. `"Na+"`, `"LiH (froze)"`, `"SYK model 1"`).
pub fn benchmark_by_name(name: &str, scale: SuiteScale) -> Option<Benchmark> {
    table1_specs()
        .iter()
        .find(|s| s.name == name)
        .map(|s| build(s, scale))
}

/// The tiny fixed `(name, hamiltonian, time)` set the golden regression
/// files (`tests/golden/`) are rendered on. **One** definition, shared by
/// the golden tests and the serve smoke's over-TCP replay — editing it
/// means re-blessing the goldens (`MARQSIM_GOLDEN_REGEN=1`), and keeping a
/// single source prevents the two consumers from silently diverging.
pub fn golden_tiny_benchmarks() -> Vec<(&'static str, Hamiltonian, f64)> {
    vec![
        (
            "example-4.1",
            Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").expect("fixed input"),
            std::f64::consts::FRAC_PI_4,
        ),
        (
            "tiny-ising",
            Hamiltonian::parse("1.0 ZZI + 0.8 IZZ + 0.5 XII + 0.5 IXI + 0.5 IIX")
                .expect("fixed input"),
            0.5,
        ),
        (
            "tiny-heisenberg",
            Hamiltonian::parse("0.6 XXII + 0.6 YYII + 0.6 ZZII + 0.4 IXXI + 0.4 IYYI + 0.4 IZZI")
                .expect("fixed input"),
            0.4,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_suite_has_twelve_benchmarks() {
        let suite = table1_suite(SuiteScale::Reduced);
        assert_eq!(suite.len(), 12);
        for b in &suite {
            assert!(b.qubits <= 8);
            assert!(b.hamiltonian.num_terms() >= 10);
            assert_eq!(b.hamiltonian.num_qubits(), b.qubits);
            assert_eq!(b.hamiltonian.num_terms(), b.pauli_strings);
        }
    }

    #[test]
    fn benchmark_lookup_by_name() {
        let b = benchmark_by_name("Na+", SuiteScale::Reduced).unwrap();
        assert_eq!(b.name, "Na+");
        assert!(benchmark_by_name("Unobtainium", SuiteScale::Reduced).is_none());
    }

    #[test]
    fn full_scale_matches_table_1_metadata() {
        // Spot-check two entries at full scale without building the whole
        // (more expensive) suite.
        let na = benchmark_by_name("Na+", SuiteScale::Full).unwrap();
        assert_eq!(na.qubits, 8);
        assert_eq!(na.pauli_strings, 60);
        assert!((na.time - PI / 4.0).abs() < 1e-12);

        let syk = benchmark_by_name("SYK model 1", SuiteScale::Full).unwrap();
        assert_eq!(syk.qubits, 8);
        assert_eq!(syk.pauli_strings, 210);
        assert!((syk.time - 0.15).abs() < 1e-12);
    }

    #[test]
    fn benchmarks_are_reproducible() {
        let a = benchmark_by_name("HF", SuiteScale::Reduced).unwrap();
        let b = benchmark_by_name("HF", SuiteScale::Reduced).unwrap();
        assert_eq!(a.hamiltonian, b.hamiltonian);
    }

    #[test]
    fn distinct_benchmarks_have_distinct_hamiltonians() {
        let a = benchmark_by_name("Na+", SuiteScale::Reduced).unwrap();
        let b = benchmark_by_name("Cl-", SuiteScale::Reduced).unwrap();
        assert_ne!(a.hamiltonian, b.hamiltonian);
    }

    /// FNV-1a 64 over each term's text and coefficient bits, Hamiltonian by
    /// Hamiltonian.
    fn fingerprint<'a>(hams: impl IntoIterator<Item = &'a Hamiltonian>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ham in hams {
            feed(&(ham.num_terms() as u64).to_le_bytes());
            for term in ham.terms() {
                feed(term.string.to_string().as_bytes());
                feed(&term.coefficient.to_bits().to_le_bytes());
            }
        }
        hash
    }

    #[test]
    fn generated_hamiltonians_match_their_pinned_fingerprint() {
        // Every suite Hamiltonian at both scales plus every Table 2 random
        // instance, term by term and bit for bit. Any change to the
        // generators, the Jordan-Wigner transform or duplicate merging that
        // moves a single coefficient bit fails here.
        let mut hams: Vec<Hamiltonian> = Vec::new();
        for scale in [SuiteScale::Reduced, SuiteScale::Full] {
            hams.extend(table1_suite(scale).into_iter().map(|b| b.hamiltonian));
        }
        for qubits in [10, 20, 30] {
            for terms in [100, 500, 1000] {
                hams.push(crate::random::random_hamiltonian(
                    &crate::random::RandomHamiltonianParams {
                        qubits,
                        terms,
                        identity_bias: 0.6,
                        seed: 1234 + terms as u64,
                    },
                ));
            }
        }
        assert_eq!(hams.len(), 33);
        // Pinned on the quadratic duplicate merge and the string-based
        // Jordan-Wigner products that preceded the linear-time ones.
        let hash = fingerprint(&hams);
        assert_eq!(
            hash, 0x2e22_01fc_9fbb_1cf0,
            "fingerprint moved to {hash:#018x}"
        );
    }
}
