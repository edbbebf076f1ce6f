//! `ecbench` — the repository's benchmark. One process, one client thread
//! in a closed loop: the next request is sent only after the previous
//! verdict. A request is two OpenQASM texts in and one verdict out.
//!
//! ```text
//! ecbench --workload detect|prove|wide|resubmit --seed N --seconds S --trace 0|1
//! ecbench --selftest --seed N
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer split of a separate traced pass with
//! `--trace 1`. See README.md for the metrics and the workloads.

mod corpus;
mod oracle;
mod request;
mod trace;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qcec::{BackendKind, Config};

use corpus::{Corpus, Pair, Workload};
use oracle::Judgement;
use request::Reply;
use trace::Tracer;

/// Requests run once per set-up round.
const WARM_UP: usize = 6;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut selftest = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--selftest" => selftest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if selftest {
        workload = workload.or(Some(Workload::Detect));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        selftest,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ecbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Panics are caught per request and counted as failures; keep the
    // default hook from printing one backtrace note per caught panic.
    std::panic::set_hook(Box::new(|_| {}));
    if args.selftest {
        return selftest(args.seed);
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ecbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flow configuration of a workload: `check_qasm`'s defaults with one
/// flow thread, and the `Auto` backend for `wide`.
fn flow_config(workload: Workload) -> Config {
    let config = Config::default().with_threads(1);
    if workload == Workload::Wide {
        config.with_backend(BackendKind::Auto)
    } else {
        config
    }
}

/// Sends one request down the workload's path.
fn send(
    workload: Workload,
    pair: &Pair,
    config: &Config,
    manager: &mut qcec::EquivalenceCheckingManager,
) -> Reply {
    if workload == Workload::Resubmit {
        request::check_service(pair, manager)
    } else {
        request::check_flow(pair, config)
    }
}

/// One untraced pass over the request stream; returns each reply and its
/// latency.
fn pass(workload: Workload, corpus: &Corpus, requests: usize) -> Vec<(Reply, Duration)> {
    let config = flow_config(workload);
    let mut manager = request::new_manager();
    corpus.stream[..requests]
        .iter()
        .map(|&i| {
            let start = Instant::now();
            let reply = send(workload, &corpus.pairs[i], &config, &mut manager);
            (std::hint::black_box(reply), start.elapsed())
        })
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;

    let (corpus, first_setup_s) = set_up(workload, args.seed);
    let mut setup_s = vec![first_setup_s];
    let mut problems: Vec<String> = Vec::new();

    // Timed phase: a fixed number of passes over the fixed stream.
    let passes = workload.passes(args.seconds);
    let requests = corpus.stream.len();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); requests];
    let mut replies: Vec<Reply> = Vec::new();
    let mut pass_rates = Vec::with_capacity(passes);
    for p in 0..passes {
        let start = Instant::now();
        let results = pass(workload, &corpus, requests);
        pass_rates.push(requests as f64 / start.elapsed().as_secs_f64());
        for (i, (reply, latency)) in results.into_iter().enumerate() {
            latencies[i].push(latency.as_secs_f64() * 1e3);
            if p == 0 {
                replies.push(reply);
            } else if replies[i] != reply {
                problems.push(format!(
                    "request {i} ({}) changed its verdict between passes",
                    corpus.pairs[corpus.stream[i]].name
                ));
            }
        }
        // One more set-up round after every pass, outside the pass's
        // timing, so that `setup_s` can take the fastest round of the
        // whole run; it must rebuild the byte-identical corpus.
        let (again, seconds) = set_up(workload, args.seed);
        setup_s.push(seconds);
        if again.digest() != corpus.digest() {
            problems.push("the same seed built two different corpora".into());
        }
    }
    let setup_s = fastest(&setup_s);
    let peak_rss_mb = peak_rss_mb()?;
    // Each request's fastest repeat. The shared host's speed swings by up
    // to half for a minute at a time, and contention only ever adds time:
    // a request's median over the passes follows those swings, its minimum
    // much less (see README.md, "Steadiness rules").
    let per_request: Vec<f64> = latencies.iter().map(|l| fastest(l)).collect();
    let p50 = percentile(&per_request, 0.5);
    let p90 = percentile(&per_request, 0.9);
    let beyond_p90 = per_request.iter().filter(|&&v| v > p90).count();

    // Oracle, outside the timed phase, once per distinct pair.
    let judgements = judge_all(workload, &corpus, &replies);
    let mut confirmed = 0;
    let mut decided = 0;
    let mut failed = 0;
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            Ok(v) => {
                decided += usize::from(v.is_decided());
                confirmed += usize::from(judgements[i] == Judgement::Confirmed);
            }
            Err(_) => failed += 1,
        }
    }
    // Repeated requests share a judgement; report each pair once.
    let mut wrong = BTreeSet::new();
    let mut unconfirmed = BTreeSet::new();
    for (pos, j) in judgements.iter().enumerate() {
        let name = &corpus.pairs[corpus.stream[pos]].name;
        match j {
            Judgement::Wrong(why) => wrong.insert(format!("{name}: {why}")),
            Judgement::Unconfirmed(why) => unconfirmed.insert(format!("{name}: {why}")),
            Judgement::Confirmed => false,
        };
    }
    for u in &unconfirmed {
        eprintln!("unconfirmed: {u}");
    }
    for w in &wrong {
        eprintln!("WRONG VERDICT: {w}");
    }
    for (i, reply) in replies.iter().enumerate() {
        if let Err(e) = reply {
            eprintln!("failed: {}: {e}", corpus.pairs[corpus.stream[i]].name);
        }
    }

    let out_dir =
        PathBuf::from("ecbench")
            .join("out")
            .join(format!("{}-s{}", workload.name(), args.seed));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    }
    write_pair_table(&out_dir, &corpus, &replies, &latencies);

    let attempted = requests * passes;
    // Requests per second of timed work with every request at its fastest
    // repeat, for the reason given above. The plain rate of the median
    // pass follows the host's speed; the traced run reports it as
    // `pass.pairs_per_s`.
    let pairs_per_s = requests as f64 / (per_request.iter().sum::<f64>() / 1e3);
    let median_pass_rate = median(&pass_rates);
    println!(
        "{} seed {}: {} requests ({} distinct pairs) x {passes} passes; verdict_ms samples={requests} beyond_p90={beyond_p90} p50={p50:.3} p90={p90:.3}; median pass {median_pass_rate:.1}/s; wrong={}",
        workload.name(),
        args.seed,
        requests,
        corpus.pairs.len(),
        wrong.len()
    );

    let metrics = if args.trace {
        let layers = traced(
            workload,
            &corpus,
            &replies,
            median_pass_rate,
            &out_dir,
            &mut problems,
        );
        let mut m = layers;
        m.push(("pass.pairs_per_s", median_pass_rate, "1/s"));
        m.push(("verdict_ms.samples", requests as f64, "count"));
        m.push(("verdict_ms.beyond_p90", beyond_p90 as f64, "count"));
        m
    } else {
        let frac = |k: usize| k as f64 / requests as f64;
        vec![
            ("setup_s", setup_s, "s"),
            ("pairs_per_s", pairs_per_s, "1/s"),
            ("verdict_ms.p50", p50, "ms"),
            ("verdict_ms.p90", p90, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("correct_frac", frac(confirmed), "frac"),
            ("decided_frac", frac(decided), "frac"),
        ]
    };
    for p in &problems {
        eprintln!("SELF-CHECK FAILED: {p}");
    }
    let correct = wrong.is_empty() && problems.is_empty();
    Ok(result_line(correct, attempted, failed * passes, &metrics))
}

/// One set-up round: corpus generation (generators, decompose, route,
/// optimize, qfault, qasm::write) and a short warm-up. Returns the corpus
/// and the round's time in seconds.
fn set_up(workload: Workload, seed: u64) -> (Corpus, f64) {
    let start = Instant::now();
    let corpus = Corpus::build(workload, seed);
    pass(workload, &corpus, WARM_UP.min(corpus.stream.len()));
    (corpus, start.elapsed().as_secs_f64())
}

/// Judges every request's verdict; pairs repeated in the stream are
/// judged once.
fn judge_all(workload: Workload, corpus: &Corpus, replies: &[Reply]) -> Vec<Judgement> {
    let mut by_pair: Vec<Option<Judgement>> = vec![None; corpus.pairs.len()];
    replies
        .iter()
        .zip(&corpus.stream)
        .map(|(reply, &i)| match reply {
            Err(e) => Judgement::Unconfirmed(format!("failed: {e}")),
            Ok(verdict) => by_pair[i]
                .get_or_insert_with(|| {
                    let pair = &corpus.pairs[i];
                    oracle::judge(pair, verdict, primary_engine(workload, pair))
                })
                .clone(),
        })
        .collect()
}

fn primary_engine(workload: Workload, pair: &Pair) -> BackendKind {
    if workload != Workload::Wide {
        return BackendKind::Statevector;
    }
    match (
        request::parse(&pair.golden),
        request::parse(&pair.candidate),
    ) {
        (Ok(g), Ok(g_prime)) => {
            let (g, g_prime) = request::widen(g, g_prime);
            qcec::auto_backend(&g, &g_prime)
        }
        _ => BackendKind::Statevector,
    }
}

/// The traced pass: the stream once more with per-layer spans, then the
/// known-defect inputs (untraced and traced). Returns the per-layer
/// metrics.
fn traced(
    workload: Workload,
    corpus: &Corpus,
    replies: &[Reply],
    untraced_pass_rate: f64,
    out_dir: &std::path::Path,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let config = flow_config(workload);
    let mut t = Tracer::new();
    let mut manager = request::new_manager();
    let send_traced = |t: &mut Tracer, req: usize, pair: &Pair, manager: &mut _| {
        if workload == Workload::Resubmit {
            trace::check_service_traced(t, req, pair, manager)
        } else {
            trace::check_flow_traced(t, req, pair, &config)
        }
    };
    let start = Instant::now();
    let mut failed = 0;
    for (req, &i) in corpus.stream.iter().enumerate() {
        let reply = send_traced(&mut t, req, &corpus.pairs[i], &mut manager);
        failed += usize::from(reply.is_err());
        if reply != replies[req] {
            problems.push(format!(
                "traced request {req} ({}) disagrees with the untraced pass",
                corpus.pairs[i].name
            ));
        }
    }
    let traced_rate = corpus.stream.len() as f64 / start.elapsed().as_secs_f64();
    // Layer totals cover the stream only; the defect inputs come after.
    let layer_ms = |name: &str| t.self_ms(name);
    let request_ms = t.total_ms("request");
    let parse_ms = layer_ms("parse");
    let sim_sv_ms = layer_ms("sim.sv");
    let functional_ms = layer_ms("functional.dd") + layer_ms("functional.mps");
    let hits = t.count_spans("cache.hit");
    let misses = t.count_spans("service.miss");
    let probes: f64 = [
        "sim.sv.probes",
        "sim.dd.probes",
        "sim.stab.probes",
        "sim.mps.probes",
    ]
    .iter()
    .map(|k| t.count(k))
    .sum();
    let sim_calls = ["sim.sv", "sim.dd", "sim.stab", "sim.mps"]
        .iter()
        .map(|k| t.count_spans(k))
        .sum::<usize>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = vec![
        ("parse.ms", parse_ms, "ms"),
        (
            "parse.mb_per_s",
            ratio(t.count("parse.bytes") / 1e6, parse_ms / 1e3),
            "MB/s",
        ),
        ("canon.ms", layer_ms("canon"), "ms"),
        (
            "cache.hit_us",
            ratio(t.total_ms("cache.hit") * 1e3, hits as f64),
            "us",
        ),
        (
            "cache.hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
            "frac",
        ),
        ("service.miss_ms", t.total_ms("service.miss"), "ms"),
        ("sim.sv.ms", sim_sv_ms, "ms"),
        ("sim.sv.probes", t.count("sim.sv.probes"), "count"),
        ("sim.sv.gate_apps", t.count("sim.sv.gate_apps"), "count"),
        (
            "sim.sv.computed_gb_per_s",
            ratio(t.count("sim.sv.computed_bytes") / 1e9, sim_sv_ms / 1e3),
            "GB/s",
        ),
        (
            "sim.probes_per_verdict",
            ratio(probes, sim_calls as f64),
            "count",
        ),
        (
            "sim.first_probe_frac",
            ratio(t.count("sim.caught_first"), t.count("sim.caught")),
            "frac",
        ),
        ("functional.dd.ms", layer_ms("functional.dd"), "ms"),
        ("functional.calls", t.count("functional.calls"), "count"),
        ("functional.share", ratio(functional_ms, request_ms), "frac"),
        ("auto.pairs.sv", t.count("auto.pairs.sv"), "count"),
        ("auto.pairs.dd", t.count("auto.pairs.dd"), "count"),
        ("auto.pairs.stab", t.count("auto.pairs.stab"), "count"),
        ("auto.pairs.mps", t.count("auto.pairs.mps"), "count"),
        ("sim.dd.ms", layer_ms("sim.dd"), "ms"),
        ("sim.stab.ms", layer_ms("sim.stab"), "ms"),
        ("sim.mps.ms", layer_ms("sim.mps"), "ms"),
        ("sim.dd.probes", t.count("sim.dd.probes"), "count"),
        ("sim.stab.probes", t.count("sim.stab.probes"), "count"),
        ("sim.mps.probes", t.count("sim.mps.probes"), "count"),
        ("functional.mps.ms", layer_ms("functional.mps"), "ms"),
        ("other.ms", layer_ms("request"), "ms"),
        (
            "trace.overhead_ratio",
            ratio(traced_rate, untraced_pass_rate),
            "ratio",
        ),
    ];

    // Known-defect inputs: untraced once, traced once, request for
    // request; their failures count here, never in the timed workload.
    let mut defect_failures = 0;
    let mut defect_manager = request::new_manager();
    for (k, pair) in corpus.defects.iter().enumerate() {
        let req = corpus.stream.len() + k;
        let plain = send(workload, pair, &config, &mut defect_manager);
        let traced = send_traced(&mut t, req, pair, &mut manager);
        if plain != traced {
            problems.push(format!(
                "traced defect input {} disagrees with the untraced run",
                pair.name
            ));
        }
        if let Err(e) = &traced {
            eprintln!("known defect: {}: {e}", pair.name);
            defect_failures += 1;
        }
    }
    let total = corpus.stream.len() + corpus.defects.len();
    m.push((
        "failed_frac",
        (failed + defect_failures) as f64 / total as f64,
        "frac",
    ));
    m.push(("defects.failed", defect_failures as f64, "count"));
    if let Err(e) = t.write_jsonl(&out_dir.join("spans.jsonl")) {
        eprintln!("warning: cannot write spans: {e}");
    }
    m
}

fn write_pair_table(dir: &std::path::Path, corpus: &Corpus, replies: &[Reply], lat: &[Vec<f64>]) {
    let mut s = String::from("request\tname\tn\tgates\tverdict\tsims\tmedian_ms\tmin_ms\tmax_ms\n");
    for (req, (&i, reply)) in corpus.stream.iter().zip(replies).enumerate() {
        let p = &corpus.pairs[i];
        let (class, sims) = match reply {
            Ok(v) => (v.class(), v.sims.to_string()),
            Err(_) => ("failed", "-".into()),
        };
        let l = &lat[req];
        let min = fastest(l);
        let max = l.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            s,
            "{req}\t{}\t{}\t{}\t{class}\t{sims}\t{:.4}\t{min:.4}\t{max:.4}",
            p.name,
            p.n,
            p.gates,
            median(l)
        );
    }
    if let Err(e) = std::fs::write(dir.join("pairs.tsv"), s) {
        eprintln!("warning: cannot write the pair table: {e}");
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns an empty sum's -0 into 0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear interpolation between the closest ranks.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Determinism self-test: the same seed builds the byte-identical corpus
/// and the same verdicts, another seed builds a different corpus, and the
/// traced pass agrees with the untraced one request for request.
fn selftest(seed: u64) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let a = Corpus::build(workload, seed);
        let b = Corpus::build(workload, seed);
        let c = Corpus::build(workload, seed.wrapping_add(1));
        let same = a.digest() == b.digest();
        let differs = a.digest() != c.digest();
        let n = a.stream.len();
        let first: Vec<Reply> = pass(workload, &a, n).into_iter().map(|r| r.0).collect();
        let second: Vec<Reply> = pass(workload, &b, n).into_iter().map(|r| r.0).collect();
        let mut problems = Vec::new();
        let out = PathBuf::from("ecbench/out/selftest");
        let _ = std::fs::create_dir_all(&out);
        let _ = traced(workload, &a, &first, 1.0, &out, &mut problems);
        let verdicts_equal = first == second;
        println!(
            "{}: same-seed corpus identical={same} other-seed corpus differs={differs} verdicts identical={verdicts_equal} traced matches={}",
            workload.name(),
            problems.is_empty()
        );
        for p in &problems {
            println!("  {p}");
        }
        ok &= same && differs && verdicts_equal && problems.is_empty();
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
