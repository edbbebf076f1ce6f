//! The correctness oracle, run outside the timed phase.
//!
//! * An unmutated pair is equivalent by construction.
//! * A `NotEquivalent` counterexample is replayed on a second engine.
//! * Any other verdict on a mutated pair is settled by the complete DD
//!   guard (`qfault::guard::classify`) with no wall-clock deadline, so a
//!   label never depends on timing.

use qcec::{BackendKind, Config, DdBackend, Mismatch, MpsBackend, Outcome, SimBackend};
use qcec::{StatevectorBackend, Stimulus};
use qcirc::Circuit;
use qfault::guard::{classify, GuardOptions, GuardVerdict};

use crate::corpus::{Label, Pair};
use crate::request::{parse, widen, Verdict};

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Judgement {
    /// The oracle confirms the verdict.
    Confirmed,
    /// The verdict contradicts the oracle.
    Wrong(String),
    /// Neither: an unproven verdict on a real fault, or a guard that
    /// could not finish.
    Unconfirmed(String),
}

/// Judges one verdict. `primary` is the engine the flow simulated on.
pub fn judge(pair: &Pair, verdict: &Verdict, primary: BackendKind) -> Judgement {
    let (g, g_prime) = match (parse(&pair.golden), parse(&pair.candidate)) {
        (Ok(a), Ok(b)) => widen(a, b),
        _ => return Judgement::Wrong("a verdict for inputs that do not parse".into()),
    };
    let truly_equivalent = || -> Result<bool, String> {
        match pair.label {
            Label::Equivalent => Ok(true),
            Label::Mutated(_) => match classify(&g, &g_prime, &guard_options()) {
                GuardVerdict::Fault => Ok(false),
                GuardVerdict::Benign { .. } => Ok(true),
                GuardVerdict::Unchecked { reason } => Err(reason),
            },
        }
    };
    match &verdict.outcome {
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } if ce.mismatch == Mismatch::Output => {
            if pair.label == Label::Equivalent {
                return Judgement::Wrong("counterexample on an equivalent pair".into());
            }
            match replay_differs(&g, &g_prime, &ce.stimulus, primary) {
                Ok(true) => Judgement::Confirmed,
                Ok(false) => Judgement::Wrong(format!(
                    "second engine finds no difference on stimulus {}",
                    ce.stimulus
                )),
                Err(e) => Judgement::Unconfirmed(format!("replay failed: {e}")),
            }
        }
        Outcome::NotEquivalent { .. } => match truly_equivalent() {
            Ok(false) => Judgement::Confirmed,
            Ok(true) => Judgement::Wrong("not equivalent, but the pair is".into()),
            Err(reason) => Judgement::Unconfirmed(reason),
        },
        Outcome::Equivalent
        | Outcome::EquivalentUpToGlobalPhase { .. }
        | Outcome::ProbablyEquivalent { .. } => match truly_equivalent() {
            Ok(true) => Judgement::Confirmed,
            Ok(false) if verdict.is_decided() => {
                Judgement::Wrong("equivalent, but the guard finds a fault".into())
            }
            Ok(false) => Judgement::Unconfirmed("probably equivalent on a real fault".into()),
            Err(reason) => Judgement::Unconfirmed(reason),
        },
    }
}

fn guard_options() -> GuardOptions {
    GuardOptions {
        max_qubits: usize::MAX,
        deadline: None,
        node_limit: qdd::Package::DEFAULT_NODE_LIMIT,
    }
}

/// Node budget of a DD replay. Some pairs (Clifford adders past ~24
/// qubits) need far more; their counterexamples stay unconfirmed rather
/// than stall the run.
const REPLAY_NODE_LIMIT: usize = 250_000;

/// Replays one stimulus on an engine other than `primary` and reports
/// whether the two outputs differ (the fidelity test of the flow's judge,
/// widened by the engine's truncation slack).
fn replay_differs(
    g: &Circuit,
    g_prime: &Circuit,
    stimulus: &Stimulus,
    primary: BackendKind,
) -> Result<bool, String> {
    let n = g.n_qubits();
    let tolerance = Config::default().fidelity_tolerance;
    let second = match primary {
        _ if primary != BackendKind::Statevector && n <= 16 => BackendKind::Statevector,
        BackendKind::DecisionDiagram => BackendKind::Mps,
        _ => BackendKind::DecisionDiagram,
    };
    let (fidelity, truncation) = match second {
        BackendKind::Statevector => probe(&StatevectorBackend::new(), g, g_prime, stimulus)?,
        BackendKind::Mps => probe(
            &MpsBackend::new(Config::default().chi_max),
            g,
            g_prime,
            stimulus,
        )?,
        _ => probe(
            &DdBackend::with_node_limit(REPLAY_NODE_LIMIT),
            g,
            g_prime,
            stimulus,
        )?,
    };
    Ok((fidelity - 1.0).abs() > tolerance + 8.0 * truncation)
}

fn probe<B: SimBackend>(
    backend: &B,
    g: &Circuit,
    g_prime: &Circuit,
    stimulus: &Stimulus,
) -> Result<(f64, f64), String> {
    let mut workspace = backend.workspace(g.n_qubits());
    let outcome = backend
        .probe(g, g_prime, stimulus, &mut workspace)
        .map_err(|e| format!("node limit {}", e.node_limit))?;
    Ok((outcome.overlap.norm_sqr(), outcome.metrics.truncation_error))
}
