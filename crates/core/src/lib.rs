//! The MarQSim compiler.
//!
//! This crate implements the paper's primary contribution: compiling a
//! quantum Hamiltonian simulation `exp(iHt)` by sampling the term sequence
//! from a Markov chain over the Hamiltonian terms, with the transition matrix
//! tuned by a min-cost-flow model so that consecutive terms cancel CNOT gates
//! while the qDRIFT error bound is preserved.
//!
//! The pipeline mirrors the paper section by section:
//!
//! * [`HttGraph`] (§4.1) — the Hamiltonian Term Transition Graph IR: a
//!   Hamiltonian paired with a validated transition matrix satisfying the
//!   Theorem 4.1 conditions.
//! * [`qdrift`] (§4.2, Corollary 4.1) — the rank-one qDRIFT transition
//!   matrix `P_qd`.
//! * [`gate_cancel`] (§5.1–5.2, Algorithm 2) — the CNOT-cancellation matrix
//!   `P_gc` obtained from the min-cost-flow model.
//! * [`perturb`] (§5.5) — the random-perturbation matrix `P_rp`.
//! * [`TransitionStrategy`] / [`transition`] (§5.3, Theorem 5.2) — convex
//!   combination of the above into the matrix the compiler samples from.
//! * [`Compiler`] (§4.2, Algorithm 1) — compilation as sampling: produces the
//!   term sequence, the synthesized circuit, and analytic gate statistics.
//! * [`baselines`] (§3) — first-order Trotter (deterministic and
//!   random-order) comparators.
//! * [`metrics`] — sequence-level gate accounting (the quantity the MCFP
//!   optimizes, Proposition 5.1) and unitary-fidelity evaluation.
//! * [`spectra`](markov_spectra) re-export — §5.4 convergence analysis.
//! * [`experiment`] / [`fitting`] (§6.1, Fig. 12) — sweep drivers and the
//!   data processing used to produce every figure of the evaluation.
//!
//! # Example
//!
//! ```
//! use marqsim_core::{Compiler, CompilerConfig, TransitionStrategy};
//! use marqsim_pauli::Hamiltonian;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ham = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY")?;
//! let config = CompilerConfig::new(std::f64::consts::FRAC_PI_4, 0.05)
//!     .with_strategy(TransitionStrategy::GateCancellation { qdrift_weight: 0.4 })
//!     .with_seed(7);
//! let result = Compiler::new(config).compile(&ham)?;
//! assert!(result.circuit.cnot_count() > 0);
//! assert_eq!(result.sequence.len(), result.num_samples);
//! # Ok(())
//! # }
//! ```

mod compiler;
mod error;
mod htt;
mod strategy;

pub mod baselines;
pub mod experiment;
pub mod fitting;
pub mod gate_cancel;
pub mod metrics;
pub mod perturb;
pub mod qdrift;
pub mod transition;

pub use compiler::{CompileResult, Compiler, CompilerConfig};
pub use error::CompileError;
pub use htt::HttGraph;
pub use strategy::TransitionStrategy;

/// Re-export of the min-cost-flow types the engine uses without depending
/// on `marqsim-flow` directly: the backend's name type and the warm-start
/// basis its transition cache persists.
pub use marqsim_flow::{NetworkSimplex, SpanningBasis};

/// Re-export of the spectra analysis used for §5.4 (Fig. 11 / Fig. 15).
pub use marqsim_markov::spectra as markov_spectra;
