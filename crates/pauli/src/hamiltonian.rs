//! Hamiltonians as weighted sums of Pauli strings.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use marqsim_linalg::{Complex, Matrix};

use crate::parse::ParseError;
use crate::PauliString;

/// One weighted term `h_j · P_j` of a Hamiltonian decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The real coefficient `h_j`.
    pub coefficient: f64,
    /// The Pauli string `P_j`.
    pub string: PauliString,
}

impl Term {
    /// Creates a new term.
    pub fn new(coefficient: f64, string: PauliString) -> Self {
        Term {
            coefficient,
            string,
        }
    }
}

/// A Hamiltonian `H = Σ_j h_j P_j` decomposed into Pauli strings.
///
/// This is the input language of the MarQSim compiler (§2.3). The type keeps
/// terms in insertion order, exposes the quantities Algorithm 1 needs
/// (`λ = Σ_j |h_j|`, the normalized distribution `π_j = |h_j| / λ`), and can
/// round-trip through a simple text format.
///
/// # Text format
///
/// ```text
/// 1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY
/// ```
///
/// Terms are separated by `+`; negative coefficients are written as part of
/// the coefficient (`+ -0.25 XY`). Lines starting with `#` are ignored when
/// parsing multi-line input.
///
/// # Example
///
/// ```
/// use marqsim_pauli::Hamiltonian;
///
/// # fn main() -> Result<(), marqsim_pauli::ParseError> {
/// let ham = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY")?;
/// let pi = ham.stationary_distribution();
/// assert!((pi[0] - 0.5).abs() < 1e-12);
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hamiltonian {
    num_qubits: usize,
    terms: Vec<Term>,
}

impl Hamiltonian {
    /// Creates a Hamiltonian from a list of terms.
    ///
    /// Terms with zero coefficient are dropped; duplicate Pauli strings are
    /// merged by summing their coefficients in input order, at the position
    /// of their first occurrence. Merging goes through a hash index, so
    /// construction is linear in the number of terms.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::EmptyHamiltonian`] if no non-zero term remains,
    /// or [`ParseError::InconsistentQubitCount`] if the terms act on
    /// different numbers of qubits.
    pub fn new(terms: Vec<Term>) -> Result<Self, ParseError> {
        let mut merged: Vec<Term> = Vec::with_capacity(terms.len());
        // The slot in `merged` of each distinct string.
        let mut slots: HashMap<PauliString, usize> = HashMap::with_capacity(terms.len());
        let mut num_qubits = None;
        for term in terms {
            let n = term.string.num_qubits();
            match num_qubits {
                None => num_qubits = Some(n),
                Some(expected) if expected != n => {
                    return Err(ParseError::InconsistentQubitCount { expected, found: n })
                }
                _ => {}
            }
            if term.coefficient == 0.0 {
                continue;
            }
            if let Some(&slot) = slots.get(&term.string) {
                merged[slot].coefficient += term.coefficient;
            } else {
                slots.insert(term.string.clone(), merged.len());
                merged.push(term);
            }
        }
        merged.retain(|t| t.coefficient.abs() > 0.0);
        let num_qubits = num_qubits.ok_or(ParseError::EmptyHamiltonian)?;
        if merged.is_empty() {
            return Err(ParseError::EmptyHamiltonian);
        }
        Ok(Hamiltonian {
            num_qubits,
            terms: merged,
        })
    }

    /// Parses a Hamiltonian from the textual format described in the type
    /// documentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed term.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let cleaned: String = text
            .lines()
            .filter(|line| !line.trim_start().starts_with('#'))
            .collect::<Vec<_>>()
            .join(" ");
        let mut terms = Vec::new();
        for raw in cleaned.split('+') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let mut parts = raw.split_whitespace();
            let coeff_text = parts.next().ok_or_else(|| ParseError::MalformedTerm {
                term: raw.to_string(),
            })?;
            let string_text = parts.next().ok_or_else(|| ParseError::MalformedTerm {
                term: raw.to_string(),
            })?;
            if parts.next().is_some() {
                return Err(ParseError::MalformedTerm {
                    term: raw.to_string(),
                });
            }
            let coefficient: f64 =
                coeff_text
                    .parse()
                    .map_err(|_| ParseError::InvalidCoefficient {
                        text: coeff_text.to_string(),
                    })?;
            let string = PauliString::from_str(string_text)?;
            terms.push(Term::new(coefficient, string));
        }
        Hamiltonian::new(terms)
    }

    /// Number of qubits the Hamiltonian acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of Pauli-string terms.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The terms in insertion order.
    #[inline]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// A single term by index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_terms()`.
    #[inline]
    pub fn term(&self, index: usize) -> &Term {
        &self.terms[index]
    }

    /// `λ = Σ_j |h_j|`, the 1-norm of the coefficients. This determines the
    /// qDRIFT sampling count `N = ⌈2 λ² t² / ε⌉` in Algorithm 1.
    pub fn lambda(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient.abs()).sum()
    }

    /// The distribution `π_j = |h_j| / λ` used as both the initial
    /// distribution and the stationary distribution in Theorem 4.1.
    pub fn stationary_distribution(&self) -> Vec<f64> {
        let lambda = self.lambda();
        self.terms
            .iter()
            .map(|t| t.coefficient.abs() / lambda)
            .collect()
    }

    /// Splits any term whose stationary probability exceeds `0.5` into two
    /// identical terms with half the coefficient, as prescribed in the proof
    /// of Theorem 5.1 (Appendix A.3). Without this, the min-cost-flow model
    /// with self-loops removed has no feasible solution.
    pub fn split_dominant_terms(&self) -> Hamiltonian {
        let lambda = self.lambda();
        let mut terms = Vec::with_capacity(self.terms.len() + 2);
        for t in &self.terms {
            if t.coefficient.abs() / lambda > 0.5 {
                terms.push(Term::new(t.coefficient / 2.0, t.string.clone()));
                terms.push(Term::new(t.coefficient / 2.0, t.string.clone()));
            } else {
                terms.push(t.clone());
            }
        }
        // Bypass `new` so the two half terms are not re-merged.
        Hamiltonian {
            num_qubits: self.num_qubits,
            terms,
        }
    }

    /// [`Self::split_dominant_terms`] when a dominant term exists, a plain
    /// clone otherwise — the canonical pre-compilation normalization every
    /// transition-matrix construction path applies.
    pub fn split_if_dominant(&self) -> Hamiltonian {
        if self.has_dominant_term() {
            self.split_dominant_terms()
        } else {
            self.clone()
        }
    }

    /// Returns `true` if any term carries more than half of the total weight
    /// (the special case handled by [`Self::split_dominant_terms`]).
    pub fn has_dominant_term(&self) -> bool {
        let lambda = self.lambda();
        self.terms
            .iter()
            .any(|t| t.coefficient.abs() / lambda > 0.5)
    }

    /// Dense `2^n × 2^n` matrix representation `Σ_j h_j P_j`.
    ///
    /// Exponential in the qubit count; intended for exact references on small
    /// systems.
    pub fn to_matrix(&self) -> Matrix {
        let dim = 1usize << self.num_qubits;
        let mut m = Matrix::zeros(dim, dim);
        for term in &self.terms {
            m = &m
                + &term
                    .string
                    .to_matrix()
                    .scale(Complex::real(term.coefficient));
        }
        m
    }

    /// Returns a new Hamiltonian with terms sorted by a caller-provided
    /// permutation (used by the deterministic-ordering baselines).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_terms()`.
    pub fn reordered(&self, order: &[usize]) -> Hamiltonian {
        assert_eq!(order.len(), self.terms.len(), "order must cover every term");
        let mut seen = vec![false; self.terms.len()];
        let terms = order
            .iter()
            .map(|&i| {
                assert!(!seen[i], "order must be a permutation (duplicate {i})");
                seen[i] = true;
                self.terms[i].clone()
            })
            .collect();
        Hamiltonian {
            num_qubits: self.num_qubits,
            terms,
        }
    }
}

impl fmt::Display for Hamiltonian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{} {}", t.coefficient, t.string)?;
        }
        Ok(())
    }
}

impl FromStr for Hamiltonian {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Hamiltonian::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PauliOp;
    use quickprop::{check, Config, Gen};

    /// The quadratic merge [`Hamiltonian::new`] replaced: a linear search
    /// of the merged terms for every input term.
    fn reference_new(terms: Vec<Term>) -> Result<Hamiltonian, ParseError> {
        let mut merged: Vec<Term> = Vec::with_capacity(terms.len());
        let mut num_qubits = None;
        for term in terms {
            let n = term.string.num_qubits();
            match num_qubits {
                None => num_qubits = Some(n),
                Some(expected) if expected != n => {
                    return Err(ParseError::InconsistentQubitCount { expected, found: n })
                }
                _ => {}
            }
            if term.coefficient == 0.0 {
                continue;
            }
            if let Some(existing) = merged.iter_mut().find(|t| t.string == term.string) {
                existing.coefficient += term.coefficient;
            } else {
                merged.push(term);
            }
        }
        merged.retain(|t| t.coefficient.abs() > 0.0);
        let num_qubits = num_qubits.ok_or(ParseError::EmptyHamiltonian)?;
        if merged.is_empty() {
            return Err(ParseError::EmptyHamiltonian);
        }
        Ok(Hamiltonian {
            num_qubits,
            terms: merged,
        })
    }

    /// Terms on 1-2 qubits (so strings repeat often) with signed zeros,
    /// repeated coefficients, exactly cancelling pairs, and now and then a
    /// term on a different qubit count.
    fn terms_with_duplicates(g: &mut Gen) -> Vec<Term> {
        const COEFFICIENTS: [f64; 6] = [0.0, -0.0, 0.5, -0.5, 0.1, 0.3];
        let ops = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
        let n = g.usize_in(1..3);
        let mut terms: Vec<Term> = Vec::new();
        for _ in 0..g.usize_in(0..24) {
            let qubits = if g.bool(0.02) { n + 1 } else { n };
            let string = PauliString::from_ops((0..qubits).map(|_| *g.choose(&ops)).collect());
            let coefficient = if g.bool(0.5) {
                *g.choose(&COEFFICIENTS)
            } else {
                g.f64_in(-1.0, 1.0)
            };
            if g.bool(0.2) {
                terms.push(Term::new(-coefficient, string.clone()));
            }
            terms.push(Term::new(coefficient, string));
        }
        terms
    }

    #[test]
    fn hash_merge_matches_the_quadratic_merge() {
        check(
            "Hamiltonian::new == reference_new",
            Config::default().with_seed(0x4A3E),
            terms_with_duplicates,
            |terms| {
                // Terms as text and coefficient bits, so a signed zero or a
                // last-bit difference counts.
                let bits = |h: Result<Hamiltonian, ParseError>| {
                    h.map(|h| {
                        let terms: Vec<_> = h
                            .terms
                            .into_iter()
                            .map(|t| (t.string.to_string(), t.coefficient.to_bits()))
                            .collect();
                        (h.num_qubits, terms)
                    })
                };
                let fast = bits(Hamiltonian::new(terms.clone()));
                let slow = bits(reference_new(terms.clone()));
                if fast == slow {
                    Ok(())
                } else {
                    Err(format!("{fast:?} != oracle {slow:?}"))
                }
            },
        );
    }

    fn example_4_1() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    #[test]
    fn parse_example_4_1() {
        let h = example_4_1();
        assert_eq!(h.num_qubits(), 4);
        assert_eq!(h.num_terms(), 4);
        assert!((h.lambda() - 2.0).abs() < 1e-12);
        let pi = h.stationary_distribution();
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 0.25).abs() < 1e-12);
        assert!((pi[2] - 0.2).abs() < 1e-12);
        assert!((pi[3] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn display_round_trip() {
        let h = example_4_1();
        let reparsed = Hamiltonian::parse(&h.to_string()).unwrap();
        assert_eq!(h, reparsed);
    }

    #[test]
    fn parse_with_comments_and_negative_coefficients() {
        let text = "# a comment line\n0.5 XX + -0.25 ZZ\n# another\n+ 0.125 XY";
        let h = Hamiltonian::parse(text).unwrap();
        assert_eq!(h.num_terms(), 3);
        assert!((h.term(1).coefficient + 0.25).abs() < 1e-12);
        assert!((h.lambda() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let h = Hamiltonian::parse("0.5 XX + 0.25 XX + 1.0 ZZ").unwrap();
        assert_eq!(h.num_terms(), 2);
        assert!((h.term(0).coefficient - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_terms_are_dropped() {
        let h = Hamiltonian::parse("0.0 XX + 1.0 ZZ").unwrap();
        assert_eq!(h.num_terms(), 1);
        assert_eq!(h.term(0).string.to_string(), "ZZ");
    }

    #[test]
    fn cancelling_terms_yield_error() {
        let err = Hamiltonian::parse("0.5 XX + -0.5 XX").unwrap_err();
        assert_eq!(err, ParseError::EmptyHamiltonian);
    }

    #[test]
    fn inconsistent_qubit_counts_rejected() {
        let err = Hamiltonian::parse("0.5 XX + 0.5 XXX").unwrap_err();
        assert!(matches!(err, ParseError::InconsistentQubitCount { .. }));
    }

    #[test]
    fn malformed_terms_rejected() {
        assert!(matches!(
            Hamiltonian::parse("0.5").unwrap_err(),
            ParseError::MalformedTerm { .. }
        ));
        assert!(matches!(
            Hamiltonian::parse("abc XX").unwrap_err(),
            ParseError::InvalidCoefficient { .. }
        ));
        assert!(matches!(
            Hamiltonian::parse("0.5 XX extra").unwrap_err(),
            ParseError::MalformedTerm { .. }
        ));
    }

    #[test]
    fn to_matrix_is_hermitian_and_matches_manual_sum() {
        let h = Hamiltonian::parse("0.7 XZ + -0.3 ZY").unwrap();
        let m = h.to_matrix();
        assert!(m.is_hermitian(1e-12));
        let manual = &"XZ"
            .parse::<PauliString>()
            .unwrap()
            .to_matrix()
            .scale_real(0.7)
            + &"ZY"
                .parse::<PauliString>()
                .unwrap()
                .to_matrix()
                .scale_real(-0.3);
        assert!(m.approx_eq(&manual, 1e-12));
    }

    #[test]
    fn dominant_term_splitting() {
        let h = Hamiltonian::parse("3.0 XX + 0.5 ZZ + 0.5 XY").unwrap();
        assert!(h.has_dominant_term());
        let split = h.split_dominant_terms();
        assert_eq!(split.num_terms(), 4);
        assert!(!split.has_dominant_term());
        assert!((split.lambda() - h.lambda()).abs() < 1e-12);
        // The split Hamiltonian represents the same operator.
        assert!(split.to_matrix().approx_eq(&h.to_matrix(), 1e-12));
    }

    #[test]
    fn reordered_permutes_terms() {
        let h = example_4_1();
        let r = h.reordered(&[3, 2, 1, 0]);
        assert_eq!(r.term(0).string.to_string(), "ZXZY");
        assert_eq!(r.term(3).string.to_string(), "IIIZ");
        assert!((r.lambda() - h.lambda()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reordered_rejects_duplicates() {
        let h = example_4_1();
        let _ = h.reordered(&[0, 0, 1, 2]);
    }
}
