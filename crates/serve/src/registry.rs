//! The workload registry: the string-keyed open end of the serve protocol.
//!
//! A `submit` request names a workload **kind** and carries an opaque
//! `params` object; the registry maps each kind to a decoder (params →
//! [`Workload`]) and an encoder ([`WorkloadOutput`] → outcome JSON). New
//! workloads therefore need **no protocol surgery**: implement the trait,
//! register a kind, and the daemon serves it — submission, progress
//! streaming, cancellation, admission control and all.
//!
//! [`WorkloadRegistry::builtin`] registers the four built-in kinds:
//!
//! | kind              | workload                                            |
//! |-------------------|-----------------------------------------------------|
//! | `sweep`           | [`SweepWorkload`]                                   |
//! | `compile`         | [`CompileWorkload`]                                 |
//! | `perturb_average` | [`PerturbAverageWorkload`]                          |
//! | `benchmark_suite` | [`BenchmarkSuiteWorkload`]                          |
//!
//! Register custom kinds before spawning the server:
//!
//! ```
//! use marqsim_serve::{Json, WorkloadRegistry};
//! use marqsim_engine::{EngineError, Workload, WorkloadCtx, WorkloadOutput};
//!
//! struct Nop(String);
//! impl Workload for Nop {
//!     fn label(&self) -> &str { &self.0 }
//!     fn total_units(&self) -> usize { 1 }
//!     fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
//!         ctx.report(1, 1);
//!         Ok(WorkloadOutput::new(()))
//!     }
//! }
//!
//! let mut registry = WorkloadRegistry::builtin();
//! registry.register(
//!     "nop",
//!     |label, _params| Ok(Box::new(Nop(label.to_string())) as Box<dyn Workload>),
//!     |_output| Ok(Json::obj([("kind", "nop".into())])),
//! );
//! assert!(registry.kinds().contains(&"nop".to_string()));
//! ```

use std::collections::BTreeMap;

use marqsim_engine::{
    BenchmarkSuiteResult, BenchmarkSuiteWorkload, CompileOutcome, CompileRequest, CompileWorkload,
    PerturbAverageResult, PerturbAverageWorkload, SweepRequest, SweepWorkload, Workload,
    WorkloadOutput,
};
use marqsim_pauli::Hamiltonian;

use crate::protocol::{
    bool_field, compile_summary_to_json, f64_field, field, perturb_result_to_json,
    perturbation_from_json, str_field, strategy_from_json, suite_result_to_json,
    sweep_config_from_json, sweep_result_to_json, u64_field, CompileSummary,
};
use crate::wire::Json;

/// Decodes a submit request's `params` object into a runnable workload.
/// The first argument is the client-chosen job label.
pub type DecodeFn = dyn Fn(&str, &Json) -> Result<Box<dyn Workload>, String> + Send + Sync;

/// Encodes a finished workload's output as the `outcome` object of the
/// `done` event. The returned object should carry a `"kind"` field so
/// clients can dispatch on it.
pub type EncodeFn = dyn Fn(&WorkloadOutput) -> Result<Json, String> + Send + Sync;

struct RegistryEntry {
    decode: Box<DecodeFn>,
    encode: Box<EncodeFn>,
}

/// Maps workload kinds to their wire codecs. See the [module docs](self).
pub struct WorkloadRegistry {
    entries: BTreeMap<String, RegistryEntry>,
}

impl Default for WorkloadRegistry {
    fn default() -> Self {
        WorkloadRegistry::builtin()
    }
}

impl WorkloadRegistry {
    /// A registry with no kinds at all (servers built on it reject every
    /// submit — useful for dedicated daemons that only serve custom kinds).
    pub fn empty() -> Self {
        WorkloadRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// The four built-in kinds: `sweep`, `compile`, `perturb_average`,
    /// `benchmark_suite`.
    pub fn builtin() -> Self {
        let mut registry = WorkloadRegistry::empty();
        registry.register("sweep", decode_sweep, encode_sweep);
        registry.register("compile", decode_compile, encode_compile);
        registry.register("perturb_average", decode_perturb, encode_perturb);
        registry.register("benchmark_suite", decode_suite, encode_suite);
        registry
    }

    /// Registers (or replaces) a kind.
    pub fn register<D, E>(&mut self, kind: impl Into<String>, decode: D, encode: E)
    where
        D: Fn(&str, &Json) -> Result<Box<dyn Workload>, String> + Send + Sync + 'static,
        E: Fn(&WorkloadOutput) -> Result<Json, String> + Send + Sync + 'static,
    {
        self.entries.insert(
            kind.into(),
            RegistryEntry {
                decode: Box::new(decode),
                encode: Box::new(encode),
            },
        );
    }

    /// The registered kinds, sorted (advertised in the `hello` event).
    pub fn kinds(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Decodes a submit request.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown kind (and the known ones) or
    /// describing the malformed params.
    pub fn decode(
        &self,
        kind: &str,
        label: &str,
        params: &Json,
    ) -> Result<Box<dyn Workload>, String> {
        match self.entries.get(kind) {
            Some(entry) => (entry.decode)(label, params),
            None => Err(format!(
                "unknown workload kind '{kind}' (this server serves: {})",
                self.kinds().join(", ")
            )),
        }
    }

    /// Encodes a finished job's output for its kind.
    ///
    /// # Errors
    ///
    /// Returns a message when the output's type does not match the kind's
    /// encoder.
    pub fn encode(&self, kind: &str, output: &WorkloadOutput) -> Result<Json, String> {
        match self.entries.get(kind) {
            Some(entry) => (entry.encode)(output),
            None => Err(format!("unknown workload kind '{kind}'")),
        }
    }
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Built-in codecs
// ---------------------------------------------------------------------------

fn parse_hamiltonian(json: &Json) -> Result<Hamiltonian, String> {
    let text = str_field(json, "hamiltonian").map_err(|e| e.message)?;
    Hamiltonian::parse(&text).map_err(|e| format!("invalid hamiltonian: {e}"))
}

fn decode_sweep(label: &str, params: &Json) -> Result<Box<dyn Workload>, String> {
    let ham = parse_hamiltonian(params)?;
    let strategy = strategy_from_json(field(params, "strategy").map_err(|e| e.message)?)
        .map_err(|e| e.message)?;
    let config = sweep_config_from_json(field(params, "config").map_err(|e| e.message)?)
        .map_err(|e| e.message)?;
    Ok(Box::new(SweepWorkload::new(SweepRequest::new(
        label, ham, strategy, config,
    ))))
}

fn encode_sweep(output: &WorkloadOutput) -> Result<Json, String> {
    output
        .downcast_ref::<marqsim_core::experiment::SweepResult>()
        .map(sweep_result_to_json)
        .ok_or_else(|| "sweep jobs produce SweepResult outputs".to_string())
}

fn decode_compile(label: &str, params: &Json) -> Result<Box<dyn Workload>, String> {
    let ham = parse_hamiltonian(params)?;
    let strategy = strategy_from_json(field(params, "strategy").map_err(|e| e.message)?)
        .map_err(|e| e.message)?;
    let time = f64_field(params, "time").map_err(|e| e.message)?;
    let epsilon = f64_field(params, "epsilon").map_err(|e| e.message)?;
    let seed = u64_field(params, "seed").map_err(|e| e.message)?;
    let evaluate_fidelity = bool_field(params, "evaluate_fidelity").map_err(|e| e.message)?;
    let config = marqsim_core::CompilerConfig::new(time, epsilon)
        .with_strategy(strategy)
        .with_seed(seed)
        .without_circuit();
    let mut request = CompileRequest::new(label, ham, config);
    if evaluate_fidelity {
        request = request.with_fidelity();
    }
    Ok(Box::new(CompileWorkload::new(request)))
}

fn encode_compile(output: &WorkloadOutput) -> Result<Json, String> {
    output
        .downcast_ref::<CompileOutcome>()
        .map(|compiled| {
            compile_summary_to_json(&CompileSummary {
                num_samples: compiled.result.num_samples,
                lambda: compiled.result.lambda,
                stats: compiled.result.stats,
                fidelity: compiled.fidelity,
            })
        })
        .ok_or_else(|| "compile jobs produce CompileOutcome outputs".to_string())
}

fn decode_perturb(label: &str, params: &Json) -> Result<Box<dyn Workload>, String> {
    let ham = parse_hamiltonian(params)?;
    let config = perturbation_from_json(params).map_err(|e| e.message)?;
    Ok(Box::new(PerturbAverageWorkload::new(label, ham, config)))
}

fn encode_perturb(output: &WorkloadOutput) -> Result<Json, String> {
    output
        .downcast_ref::<PerturbAverageResult>()
        .map(perturb_result_to_json)
        .ok_or_else(|| "perturb_average jobs produce PerturbAverageResult outputs".to_string())
}

fn decode_suite(label: &str, params: &Json) -> Result<Box<dyn Workload>, String> {
    let cases = field(params, "cases")
        .map_err(|e| e.message)?
        .as_arr()
        .ok_or_else(|| "field 'cases' must be an array".to_string())?;
    let mut suite = BenchmarkSuiteWorkload::new(label);
    for case in cases {
        let benchmark = str_field(case, "benchmark").map_err(|e| e.message)?;
        let ham = parse_hamiltonian(case)?;
        let strategy = strategy_from_json(field(case, "strategy").map_err(|e| e.message)?)
            .map_err(|e| e.message)?;
        let config = sweep_config_from_json(field(case, "config").map_err(|e| e.message)?)
            .map_err(|e| e.message)?;
        suite = suite.case(benchmark, ham, strategy, config);
    }
    if suite.is_empty() {
        return Err("a benchmark_suite submit needs at least one case".to_string());
    }
    Ok(Box::new(suite))
}

fn encode_suite(output: &WorkloadOutput) -> Result<Json, String> {
    output
        .downcast_ref::<BenchmarkSuiteResult>()
        .map(suite_result_to_json)
        .ok_or_else(|| "benchmark_suite jobs produce BenchmarkSuiteResult outputs".to_string())
}
