//! The traced pass: the same requests as the timed phase, with each layer
//! timed from outside by wrapping the calls into its public functions.
//!
//! For the flow workloads the sequential `qcec::check_equivalence` order
//! (`threads == 1`, no peeling) is rebuilt from public calls: parse,
//! `auto_backend` (when the backend is `Auto`), `run_simulations`, then
//! `run_functional_check` when every simulation agreed. Spans stay in
//! memory and are written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use qcec::service::Provenance;
use qcec::{
    AbortReason, BackendKind, Config, EquivalenceCheckingManager, FunctionalVerdict, Outcome,
    SimVerdict,
};

use crate::corpus::Pair;
use crate::request::{guarded, parse, widen, Reply, Verdict};

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Work counts recorded at the same boundaries as the spans.
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Closes every span still open down to and including `root`. A
    /// panic caught inside a request unwinds past its inner spans; this
    /// keeps the tree whole.
    fn close_through(&mut self, root: usize) {
        while let Some(&top) = self.open.last() {
            self.close(top);
            if top == root {
                break;
            }
        }
    }

    /// Renames a span once its outcome is known (a service `run` is a
    /// cache hit or a computed miss only after it returns).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn span<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn add(&mut self, key: &'static str, amount: f64) {
        *self.counts.entry(key).or_insert(0.0) += amount;
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Total self time of every span with this name, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .sum()
    }

    pub fn count_spans(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_ns) in self.spans.iter().enumerate().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn sim_span(kind: BackendKind) -> (&'static str, &'static str) {
    match kind {
        BackendKind::Statevector => ("sim.sv", "sim.sv.probes"),
        BackendKind::DecisionDiagram => ("sim.dd", "sim.dd.probes"),
        BackendKind::Stab => ("sim.stab", "sim.stab.probes"),
        BackendKind::Mps => ("sim.mps", "sim.mps.probes"),
        BackendKind::Auto => unreachable!("auto is resolved before the simulations"),
    }
}

fn parse_traced(t: &mut Tracer, req: usize, source: &str) -> Result<qcirc::Circuit, String> {
    t.add("parse.bytes", source.len() as f64);
    t.span("parse", req, || parse(source))
}

/// The flow of `check_equivalence` at `threads == 1`, one public call per
/// layer. Returns the same verdict the untraced call returns.
pub fn check_flow_traced(t: &mut Tracer, req: usize, pair: &Pair, config: &Config) -> Reply {
    let root = t.open("request", req);
    let reply = guarded(|| flow_body(t, req, pair, config));
    t.close_through(root);
    reply
}

fn flow_body(t: &mut Tracer, req: usize, pair: &Pair, config: &Config) -> Reply {
    let g = parse_traced(t, req, &pair.golden)?;
    let g_prime = parse_traced(t, req, &pair.candidate)?;
    let (g, g_prime) = widen(g, g_prime);
    let mut config = config.clone();
    if config.backend == BackendKind::Auto {
        let resolved = t.span("auto", req, || qcec::auto_backend(&g, &g_prime));
        t.add(
            match resolved {
                BackendKind::Statevector => "auto.pairs.sv",
                BackendKind::DecisionDiagram => "auto.pairs.dd",
                BackendKind::Stab => "auto.pairs.stab",
                _ => "auto.pairs.mps",
            },
            1.0,
        );
        config = config.with_backend(resolved);
    }
    let (sim_name, probes_key) = sim_span(config.backend);
    let sim = t
        .span(sim_name, req, || {
            qcec::run_simulations(&g, &g_prime, &config)
        })
        .map_err(|e| {
            format!(
                "flow: {}",
                qcec::FlowError::SimulationOverflow {
                    node_limit: e.node_limit
                }
            )
        })?;
    let n = g.n_qubits();
    let gates = (g.len() + g_prime.len()) as f64;
    let count_probes = |t: &mut Tracer, probes: usize| {
        t.add(probes_key, probes as f64);
        if config.backend == BackendKind::Statevector {
            t.add("sim.sv.gate_apps", probes as f64 * gates);
            // One read and one write of every 16-byte amplitude per gate.
            t.add(
                "sim.sv.computed_bytes",
                probes as f64 * gates * 2f64.powi(n as i32) * 32.0,
            );
        }
    };
    match sim {
        SimVerdict::CounterexampleFound(ce) => {
            count_probes(t, ce.run);
            t.add("sim.caught", 1.0);
            if ce.run == 1 {
                t.add("sim.caught_first", 1.0);
            }
            let sims = ce.run;
            Ok(Verdict {
                outcome: Outcome::NotEquivalent {
                    counterexample: Some(ce),
                },
                sims,
            })
        }
        SimVerdict::AllAgreed {
            runs,
            truncation_error,
        } => {
            count_probes(t, runs);
            t.add("functional.calls", 1.0);
            let name = if config.backend == BackendKind::Mps {
                "functional.mps"
            } else {
                "functional.dd"
            };
            let verdict = t.span(name, req, || {
                qcec::run_functional_check(&g, &g_prime, &config)
            });
            // The outcome mapping of `check_equivalence`.
            let outcome = match verdict {
                FunctionalVerdict::Equivalent => Outcome::Equivalent,
                FunctionalVerdict::EquivalentUpToGlobalPhase { phase } => {
                    Outcome::EquivalentUpToGlobalPhase { phase }
                }
                FunctionalVerdict::NotEquivalent => Outcome::NotEquivalent {
                    counterexample: None,
                },
                FunctionalVerdict::Aborted(kind) => {
                    let abort = AbortReason::from(kind);
                    let abort = if abort == AbortReason::FallbackDisabled && truncation_error > 0.0
                    {
                        AbortReason::Truncation {
                            error: truncation_error,
                        }
                    } else {
                        abort
                    };
                    Outcome::ProbablyEquivalent {
                        passed_simulations: runs,
                        abort,
                    }
                }
            };
            Ok(Verdict {
                outcome,
                sims: runs,
            })
        }
    }
}

/// The `serve` path with its layers split: parse, `submit` (canonical
/// fingerprints and config digest), `run` (a cache hit, or a computed
/// miss that writes the cache).
pub fn check_service_traced(
    t: &mut Tracer,
    req: usize,
    pair: &Pair,
    manager: &mut EquivalenceCheckingManager,
) -> Reply {
    let root = t.open("request", req);
    let reply = guarded(|| {
        let g = parse_traced(t, req, &pair.golden)?;
        let g_prime = parse_traced(t, req, &pair.candidate)?;
        let (g, g_prime) = widen(g, g_prime);
        t.span("canon", req, || {
            manager.submit(pair.name.clone(), g, g_prime)
        });
        let id = t.open("service.run", req);
        let job = manager
            .run()
            .map_err(|e| format!("service: {e}"))
            .and_then(|r| r.last().cloned().ok_or("service: no result".to_string()));
        t.close(id);
        let job = job?;
        if job.provenance == Provenance::Computed {
            t.rename(id, "service.miss");
        } else {
            t.rename(id, "cache.hit");
        }
        Ok(Verdict {
            outcome: job.verdict.outcome,
            sims: job.verdict.simulations_run,
        })
    });
    t.close_through(root);
    reply
}
