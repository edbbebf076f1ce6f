//! One request, untraced: two OpenQASM texts in, one verdict out, through
//! the same public entry points a user calls. Every parse error, flow
//! error and panic is caught and returned as a failure; nothing aborts the
//! run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qcec::{Config, EquivalenceCheckingManager, Outcome};
use qcirc::Circuit;

use crate::corpus::Pair;

/// A verdict, or the reason the request failed.
pub type Reply = Result<Verdict, String>;

#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub outcome: Outcome,
    /// Simulations the flow ran before deciding.
    pub sims: usize,
}

impl Verdict {
    pub fn is_decided(&self) -> bool {
        !matches!(self.outcome, Outcome::ProbablyEquivalent { .. })
    }

    /// Short class label for tables.
    pub fn class(&self) -> &'static str {
        match self.outcome {
            Outcome::Equivalent | Outcome::EquivalentUpToGlobalPhase { .. } => "equivalent",
            Outcome::NotEquivalent { .. } => "not_equivalent",
            Outcome::ProbablyEquivalent { .. } => "probably_equivalent",
        }
    }
}

/// Parses one side the way `check_qasm` does (lenient: final measurements
/// are stripped).
pub fn parse(source: &str) -> Result<Circuit, String> {
    qcirc::qasm::parse_lenient(source)
        .map(|p| p.circuit)
        .map_err(|e| format!("parse: {e}"))
}

/// Widens the smaller register: trailing idle qubits are ancillas.
pub fn widen(g: Circuit, g_prime: Circuit) -> (Circuit, Circuit) {
    let n = g.n_qubits().max(g_prime.n_qubits());
    (g.widened(n), g_prime.widened(n))
}

/// Runs `body`, turning a panic into a failure message.
pub fn guarded(body: impl FnOnce() -> Reply) -> Reply {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        Err(format!("panic: {message}"))
    })
}

/// The `check_qasm` path: parse both, widen, `check_equivalence`.
pub fn check_flow(pair: &Pair, config: &Config) -> Reply {
    guarded(|| {
        let (g, g_prime) = widen(parse(&pair.golden)?, parse(&pair.candidate)?);
        let result =
            qcec::check_equivalence(&g, &g_prime, config).map_err(|e| format!("flow: {e}"))?;
        Ok(Verdict {
            outcome: result.outcome,
            sims: result.stats.simulations_run,
        })
    })
}

/// The `serve` path: parse both, `submit`, `run` one job on a long-lived
/// manager.
pub fn check_service(pair: &Pair, manager: &mut EquivalenceCheckingManager) -> Reply {
    guarded(|| {
        let (g, g_prime) = widen(parse(&pair.golden)?, parse(&pair.candidate)?);
        manager.submit(pair.name.clone(), g, g_prime);
        let results = manager.run().map_err(|e| format!("service: {e}"))?;
        let job = results.last().ok_or("service: run returned no result")?;
        Ok(Verdict {
            outcome: job.verdict.outcome.clone(),
            sims: job.verdict.simulations_run,
        })
    })
}

/// The service as the `resubmit` workload runs it: default cache, one
/// worker, no stream file.
pub fn new_manager() -> EquivalenceCheckingManager {
    EquivalenceCheckingManager::new(Config::default()).with_workers(1)
}
