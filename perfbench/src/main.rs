//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc-closed|matrix-small|pressure-large> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --selfcheck BENCH_pr10.json --seed <n>
//! ```
//!
//! `--trace 0` draws the seed's inputs, times the program's set-up on
//! them several times (median `setup_s`), measures the workload
//! untraced for `--seconds`, gates every emitted function (reparse +
//! differential execution against the interpreter on the pre-SSA
//! source) and prints every end-to-end metric. `--trace 1` alternates
//! untraced and traced phases (spans around every layer call), checks
//! that both paths emit byte-identical code, writes the spans to
//! `perfbench/out/`, and prints every per-layer metric.
//! The last stdout line is one JSON object; the exit code is nonzero
//! when the gate fails. See `perfbench/README.md`.

mod closed;
mod corpus;
mod gate;
mod spans;
mod stages;
mod stats;
mod svc;

use corpus::{Corpus, Workload};
use spans::{Layer, Spans, Trace};
use stages::{Facts, Probe};
use stats::{quantile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tossa_core::Experiment;
use tossa_server::ServiceAlloc;
use tossa_trace::service::JobCounter;
use tossa_trace::Counter;

// The service binary meters per-job allocation through this allocator;
// the benchmark installs it too so the service runs as deployed.
#[global_allocator]
static ALLOC: ServiceAlloc = ServiceAlloc;

/// An untraced run times its set-up in two bouts, one before and one
/// after the measured phase, so that host speed changes during the run
/// reach `setup_s` as they reach the other timings. Each bout repeats
/// the set-up at least this many times and for at least
/// [`SETUP_BOUT_S`] seconds; `setup_s` is the median over both bouts.
const SETUP_MIN_REPS: usize = 5;
/// Least duration of one set-up bout, in seconds.
const SETUP_BOUT_S: f64 = 1.0;
/// Untraced/traced phase pairs of a traced run.
const TRACE_PAIRS: usize = 4;
/// SPECint scale of the trajectory files `--selfcheck` reproduces.
const TRAJECTORY_SPEC: usize = 40;

const USAGE: &str = "usage: perfbench --workload <svc-closed|matrix-small|pressure-large> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --selfcheck <BENCH.json> --seed <n>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--selfcheck" => a.selfcheck = Some(val()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && a.selfcheck.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(path) = &args.selfcheck {
        std::process::exit(selfcheck(path, args.seed));
    }
    let w = args.workload.expect("checked by parse_args");
    let result = if args.trace {
        traced(w, &args)
    } else {
        untraced(w, &args)
    };
    match result {
        Ok(r) => std::process::exit(r.print(w)),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            std::process::exit(1);
        }
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One run's result line.
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    samples: usize,
    metrics: Vec<Metric>,
}

impl Report {
    /// Prints the metrics and the JSON result line; returns the exit code.
    fn print(&self, w: Workload) -> i32 {
        for f in self.failures.iter().take(20) {
            eprintln!("perfbench: gate: {f}");
        }
        println!(
            "# {} threads={} latency_samples={}",
            w.name(),
            threads(),
            self.samples
        );
        let mut json = String::new();
        for (k, mt) in self.metrics.iter().enumerate() {
            println!("{:<34} {:>16} {}", mt.name, mt.value, mt.unit);
            if k > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name, mt.value, mt.unit
            );
        }
        let correct = self.failed == 0 && self.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        i32::from(!correct)
    }
}

/// What the measured phase of a run produced, workload-independent.
struct Measured {
    throughput: f64,
    latencies_ns: Vec<u64>,
    attempted: u64,
    /// Jobs the program itself reported as not completed or unverified.
    not_ok: u64,
    verdict: gate::Verdict,
}

/// Exact `q`-quantile of `lat` (ns) in ms.
fn p_ms(lat: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = lat.iter().map(|&n| n as f64 / 1e6).collect();
    quantile(&mut v, q)
}

/// [`stats::chunked_quantile`] of `lat` (ns, time order, passes of
/// `pass` samples) in ms.
fn tail_ms(lat: &[u64], q: f64, pass: usize) -> f64 {
    let v: Vec<f64> = lat.iter().map(|&n| n as f64 / 1e6).collect();
    stats::chunked_quantile(&v, q, pass)
}

fn gate_closed(corpus: &Corpus, outputs: &[String]) -> gate::Verdict {
    gate::gate(
        &corpus.items,
        outputs
            .iter()
            .enumerate()
            .map(|(j, code)| (corpus.jobs[j].item, code.as_str())),
    )
}

/// Gates every distinct (item, code) pair the service returned; the
/// second value counts jobs that never came back completed and verified.
fn gate_svc(corpus: &Corpus, o: &svc::Svc) -> (gate::Verdict, u64) {
    let verdict = gate::gate(&corpus.items, o.codes.iter().map(|(k, c)| (*k, c.as_str())));
    (verdict, o.sent - o.ok)
}

fn measure(w: Workload, corpus: &Corpus, seconds: f64) -> Result<Measured, String> {
    Ok(match w {
        Workload::SvcClosed => {
            let o = svc::run(corpus, seconds, threads(), None)?;
            let (verdict, not_ok) = gate_svc(corpus, &o);
            Measured {
                throughput: o.throughput(),
                attempted: o.sent,
                not_ok,
                verdict,
                latencies_ns: o.latencies_ns,
            }
        }
        _ => {
            let r = closed::run(corpus, w, threads(), seconds, false, Instant::now());
            Measured {
                throughput: r.throughput(),
                attempted: r.latencies_ns.len() as u64,
                not_ok: 0,
                verdict: gate_closed(corpus, &r.outputs),
                latencies_ns: r.latencies_ns,
            }
        }
    })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One set-up bout (see [`SETUP_MIN_REPS`]): appends each set-up's
/// seconds to `times` and returns the last corpus.
fn setup_bout(w: Workload, srcs: &[corpus::Source], times: &mut Vec<f64>) -> Corpus {
    let start = Instant::now();
    let mut corpus = None;
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_BOUT_S {
        // Free the previous corpus first so every repetition starts
        // from the same heap.
        drop(corpus.take());
        let t = Instant::now();
        let c = corpus::set_up(w, srcs, None);
        times.push(t.elapsed().as_secs_f64());
        corpus = Some(c);
        reps += 1;
    }
    corpus.expect("at least one set-up")
}

fn untraced(w: Workload, args: &Args) -> Result<Report, String> {
    let srcs = corpus::draw(w, args.seed);
    let mut setup_s = Vec::new();
    let mut corpus = setup_bout(w, &srcs, &mut setup_s);
    corpus::add_frames(w, &mut corpus);
    let ms = measure(w, &corpus, args.seconds)?;
    let peak_rss_mb = peak_rss_mb()?;
    let pass_len = corpus.pass_len();
    drop(corpus);
    setup_bout(w, &srcs, &mut setup_s);
    let c = ms.verdict.counts;
    let failed = ms.not_ok + ms.verdict.failures.len() as u64;
    let metrics = vec![
        m("setup_s", "s", stats::median(&mut setup_s)),
        m("throughput_fns_per_s", "1/s", ms.throughput),
        m("latency_p50_ms", "ms", p_ms(&ms.latencies_ns, 0.50)),
        m(
            "latency_p99_ms",
            "ms",
            tail_ms(&ms.latencies_ns, 0.99, pass_len),
        ),
        m(
            "verified_ratio",
            "ratio",
            ratio(
                (ms.attempted - failed.min(ms.attempted)) as f64,
                ms.attempted as f64,
            ),
        ),
        m("moves_after_alloc", "count", c.moves_after_alloc as f64),
        m("spill_move_total", "count", c.spill_move_total() as f64),
        m("weighted_moves", "count", c.weighted_moves as f64),
        m("code_insts", "count", c.code_insts as f64),
        m("exec_steps", "count", c.exec_steps as f64),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    Ok(Report {
        attempted: ms.attempted,
        failed,
        failures: ms.verdict.failures,
        samples: ms.latencies_ns.len(),
        metrics,
    })
}

/// Per-workload extras of the traced run that do not come from spans.
#[derive(Default)]
struct Extras {
    queue_wait_p50_ms: f64,
    queue_wait_p99_ms: f64,
    queue_depth_max: f64,
    service_attempts: f64,
    service_retries: f64,
    service_self_us: f64,
    report_bytes: f64,
    interp_calls: f64,
    interp_steps: f64,
    fallback_ratio: f64,
}

fn traced(w: Workload, args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let n = threads();
    // The set-up thread's buffer gets an id distinct from the clients'.
    let mut setup_probe = Probe {
        spans: Spans::new(epoch, n),
        facts: Facts::default(),
    };
    let mut corpus = corpus::set_up(w, &corpus::draw(w, args.seed), Some(&mut setup_probe));
    corpus::add_frames(w, &mut corpus);
    let phase = args.seconds / (2 * TRACE_PAIRS) as f64;
    let mut trace = Trace::default();
    let mut facts = Facts::default();
    let mut extras = Extras::default();
    let mut failures = Vec::new();
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let (attempted, not_ok, latencies_ns, verdict);
    match w {
        Workload::SvcClosed => {
            let mut b: Option<svc::Svc> = None;
            for _ in 0..TRACE_PAIRS {
                plain_rate.push(svc::run(&corpus, phase, n, None)?.throughput());
                let mut t = svc::run(&corpus, phase, n, Some(epoch))?;
                traced_rate.push(t.throughput());
                trace.absorb(t.spans.take().expect("traced phase records spans"));
                match &mut b {
                    Some(acc) => acc.absorb(t),
                    None => b = Some(t),
                }
            }
            let b = b.expect("TRACE_PAIRS > 0");
            let pass = svc::layer_pass(&corpus, &mut setup_probe);
            failures.extend(pass.mismatches);
            let (v, bad) = gate_svc(&corpus, &b);
            verdict = v;
            not_ok = bad;
            attempted = b.sent;
            let jobs = b.received as f64;
            extras = Extras {
                queue_wait_p50_ms: b.queue_wait.quantile(0.5).unwrap_or(0) as f64 / 1e6,
                queue_wait_p99_ms: b.queue_wait.quantile(0.99).unwrap_or(0) as f64 / 1e6,
                queue_depth_max: b.depth_max as f64,
                service_attempts: ratio(b.attempts as f64, jobs),
                service_retries: b.counters.get(JobCounter::JobsRetried) as f64,
                service_self_us: ratio(b.wall_ns as f64 / 1e3, jobs),
                report_bytes: ratio(b.report_bytes as f64, jobs),
                interp_calls: ratio(pass.interp_calls as f64, corpus.items.len() as f64),
                interp_steps: ratio(b.interp_steps as f64, jobs),
                fallback_ratio: ratio(b.fallbacks() as f64, b.sent as f64),
            };
            latencies_ns = b.latencies_ns;
        }
        _ => {
            let mut reference: Option<Vec<String>> = None;
            let mut lat = Vec::new();
            for _ in 0..TRACE_PAIRS {
                let a = closed::run(&corpus, w, n, phase, false, epoch);
                let b = closed::run(&corpus, w, n, phase, true, epoch);
                plain_rate.push(a.throughput());
                traced_rate.push(b.throughput());
                let want = reference.get_or_insert_with(|| a.outputs.clone());
                for (j, (x, y)) in want.iter().zip(&b.outputs).enumerate() {
                    if x != y {
                        let job = corpus.jobs[j];
                        failures.push(format!(
                            "{} under {:?}: traced composition differs from the untraced path",
                            corpus.items[job.item].bf.func.name, job.exp
                        ));
                    }
                }
                facts.merge(&b.facts());
                lat.extend(b.latencies_ns);
                for p in b.probes {
                    trace.absorb(p.spans);
                }
            }
            verdict = gate_closed(&corpus, &reference.expect("TRACE_PAIRS > 0"));
            not_ok = 0;
            attempted = lat.len() as u64;
            latencies_ns = lat;
        }
    }
    // Phases alternate, so host drift during the run lands on both
    // sides of the ratio.
    let overhead = ratio(
        stats::median(&mut plain_rate),
        stats::median(&mut traced_rate),
    );
    facts.merge(&setup_probe.facts);
    trace.absorb(setup_probe.spans);
    let out_dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    std::fs::write(&path, trace.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());

    failures.extend(verdict.failures);
    let failed = not_ok + failures.len() as u64;
    let layers = trace.layers();
    let mut metrics = layer_metrics(&layers, &facts, &extras, &corpus);
    metrics.push(m("spill_ops", "count", verdict.counts.spill_ops as f64));
    metrics.push(m(
        "failed_ratio",
        "ratio",
        ratio(failed as f64, attempted as f64),
    ));
    metrics.push(m("fallback_ratio", "ratio", extras.fallback_ratio));
    metrics.push(m("latency_samples", "count", latencies_ns.len() as f64));
    metrics.push(m("trace.overhead_ratio", "ratio", overhead));
    Ok(Report {
        attempted,
        failed,
        failures,
        samples: latencies_ns.len(),
        metrics,
    })
}

fn layer_metrics(
    layers: &BTreeMap<&'static str, Layer>,
    f: &Facts,
    x: &Extras,
    corpus: &Corpus,
) -> Vec<Metric> {
    let none = Layer::default();
    let us = |name: &str| layers.get(name).unwrap_or(&none).self_us_per_request();
    let per = |v: u64| ratio(v as f64, f.compiles as f64);
    let parse = layers.get("ir.parse").unwrap_or(&none);
    let parsed_insts: usize = corpus
        .items
        .iter()
        .map(|it| it.bf.func.all_insts().count())
        .sum();
    // Every item is parsed once per pass that records `ir.parse`.
    let parse_passes = ratio(parse.calls as f64, corpus.items.len() as f64);
    let checked = layers.get("bench.checked").unwrap_or(&none);
    let unchecked = layers.get("compile").unwrap_or(&none);
    let c = &f.counters;
    let cache_calls = c.get(Counter::AnalysisCacheHits) + c.get(Counter::AnalysisCacheMisses);
    let a = &f.alloc;
    vec![
        m("server.proto.self_us", "us", us("server.proto")),
        m("server.queue.wait_p50_ms", "ms", x.queue_wait_p50_ms),
        m("server.queue.wait_p99_ms", "ms", x.queue_wait_p99_ms),
        m("server.queue.depth_max", "count", x.queue_depth_max),
        m("server.service.attempts", "count", x.service_attempts),
        m("server.service.retries", "count", x.service_retries),
        m("server.service.self_us", "us", x.service_self_us),
        m("server.report.self_us", "us", us("server.report")),
        m("server.report.bytes", "bytes", x.report_bytes),
        m("bench.checked.self_us", "us", us("bench.checked")),
        m(
            "bench.checked.guard_share",
            "ratio",
            if checked.total_ns == 0 {
                0.0
            } else {
                1.0 - ratio(unchecked.total_ns as f64, checked.total_ns as f64)
            },
        ),
        m("ir.interp.calls", "count", x.interp_calls),
        m("ir.interp.steps", "count", x.interp_steps),
        m("ir.parse.self_us", "us", us("ir.parse")),
        m(
            "ir.parse.insts_per_s",
            "1/s",
            ratio(
                parsed_insts as f64 * parse_passes,
                parse.self_ns as f64 / 1e9,
            ),
        ),
        m("ssa.to_ssa.self_us", "us", us("ssa.to_ssa")),
        m("ssa.ifconv.self_us", "us", us("ssa.ifconv")),
        m("ssa.psi.self_us", "us", us("ssa.psi")),
        m("ssa.opt.self_us", "us", us("ssa.opt")),
        m(
            "ssa.insts_out",
            "count",
            ratio(f.ssa_insts_out as f64, f.front_ends as f64),
        ),
        m("baselines.cssa.self_us", "us", us("baselines.cssa")),
        m("baselines.cleanup.self_us", "us", us("baselines.cleanup")),
        m(
            "baselines.cleanup.moves_coalesced",
            "count",
            per(f.moves_coalesced),
        ),
        m("core.pinning.self_us", "us", us("core.pinning")),
        m("core.pinning.pins", "count", per(f.pins)),
        m("core.coalesce.self_us", "us", us("core.coalesce")),
        m(
            "core.coalesce.affinity_edges",
            "count",
            per(f.affinity_edges),
        ),
        m(
            "core.coalesce.merge_ratio",
            "ratio",
            ratio(
                f.affinity_edges.saturating_sub(f.affinity_pruned) as f64,
                f.affinity_edges as f64,
            ),
        ),
        m(
            "core.coalesce.oracle_queries",
            "count",
            per(f.coalesce_counters.get(Counter::OracleQueries)),
        ),
        m(
            "core.coalesce.oracle_hit_ratio",
            "ratio",
            ratio(
                f.coalesce_counters.get(Counter::OracleCacheHits) as f64,
                f.coalesce_counters.get(Counter::OracleQueries) as f64,
            ),
        ),
        m("core.reconstruct.self_us", "us", us("core.reconstruct")),
        m("core.reconstruct.copies", "count", per(f.recon_copies)),
        m("core.reconstruct.edges_split", "count", per(f.edges_split)),
        m(
            "analysis.cache_hit_ratio",
            "ratio",
            ratio(c.get(Counter::AnalysisCacheHits) as f64, cache_calls as f64),
        ),
        m(
            "analysis.liveness_iterations",
            "count",
            per(c.get(Counter::LivenessIterations)),
        ),
        m("regalloc.self_us", "us", us("regalloc")),
        m("regalloc.spilled_vars", "count", per(a.spilled_vars as u64)),
        m("regalloc.splits", "count", per(a.splits as u64)),
        m("regalloc.remats", "count", per(a.remats as u64)),
        m(
            "regalloc.second_chance_ratio",
            "ratio",
            ratio(
                a.second_chances as f64,
                (a.second_chances + a.splits) as f64,
            ),
        ),
        m("regalloc.rounds_max", "count", a.rounds as f64),
        m(
            "regalloc.graph_fallbacks",
            "count",
            f.graph_fallbacks as f64,
        ),
    ]
}

/// Determinism and trajectory self-check; returns the exit code.
fn selfcheck(path: &str, seed: u64) -> i32 {
    let mut ok = true;
    for w in [
        Workload::SvcClosed,
        Workload::MatrixSmall,
        Workload::PressureLarge,
    ] {
        let once = |s: u64| -> Result<gate::Counts, String> {
            let mut corpus = corpus::set_up(w, &corpus::draw(w, s), None);
            corpus::add_frames(w, &mut corpus);
            let ms = measure(w, &corpus, 0.0)?;
            if let Some(f) = ms.verdict.failures.first() {
                return Err(f.clone());
            }
            Ok(ms.verdict.counts)
        };
        match (once(seed), once(seed), once(seed + 1)) {
            (Ok(a), Ok(b), Ok(c)) => {
                let repeats = a == b;
                let moves = a != c;
                println!(
                    "{:<15} seed {seed}: {a:?}\n{:<15} repeats exactly: {repeats}; seed {}: {c:?}",
                    w.name(),
                    "",
                    seed + 1
                );
                ok &= repeats && moves;
            }
            (a, b, c) => {
                for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                    println!("{}: {e}", w.name());
                }
                ok = false;
            }
        }
    }
    match reproduce(path) {
        Ok((matched, total)) => {
            println!("{path}: {matched}/{total} moves/weighted/spill_move_total cells reproduced");
            ok &= matched == total;
        }
        Err(e) => {
            println!("{path}: {e}");
            ok = false;
        }
    }
    i32::from(!ok)
}

/// Recomputes a trajectory file's deterministic cells through the
/// benchmark's own ingest path; returns (matching cells, cells).
fn reproduce(path: &str) -> Result<(usize, usize), String> {
    use tossa_bench::runner::{apply_alloc, front_end, run_experiment_prepared};
    use tossa_core::coalesce::CoalesceOptions;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = tossa_trace::json::parse_json(&text)?;
    let suites = doc
        .get("suites")
        .and_then(|s| s.as_arr())
        .ok_or("no suites")?;
    let (mut matched, mut total) = (0, 0);
    for (suite, cell_suite) in tossa_bench::suites::all_suites(TRAJECTORY_SPEC)
        .into_iter()
        .zip(suites)
    {
        let items: Vec<corpus::Item> = suite
            .functions
            .into_iter()
            .map(|bf| corpus::parse(&corpus::render(bf), None, 0))
            .collect();
        let prepared: Vec<_> = items.iter().map(|it| front_end(&it.bf.func)).collect();
        let cells = cell_suite
            .get("experiments")
            .and_then(|e| e.as_arr())
            .ok_or("no experiments")?;
        for (&exp, cell) in Experiment::all().iter().zip(cells) {
            let (mut moves, mut weighted, mut smt) = (0u64, 0u64, 0u64);
            for ssa in &prepared {
                let mut r = run_experiment_prepared(ssa, exp, &CoalesceOptions::default());
                apply_alloc(&mut r);
                moves += r.moves as u64;
                weighted += r.weighted;
                smt += r.alloc.map_or(0, |a| a.spill_move_total()) as u64;
            }
            let want = |k: &str| cell.get(k).and_then(|v| v.as_u64());
            let want_smt = cell
                .get("alloc")
                .and_then(|a| a.get("spill_move_total"))
                .and_then(|v| v.as_u64());
            let key_ok =
                cell.get("experiment").and_then(|v| v.as_str()) == Some(&format!("{exp:?}"));
            for (got, want) in [
                (moves, want("moves")),
                (weighted, want("weighted")),
                (smt, want_smt),
            ] {
                total += 1;
                if key_ok && Some(got) == want {
                    matched += 1;
                } else {
                    println!("{} {exp:?}: got {got}, file has {want:?}", suite.name);
                }
            }
        }
    }
    Ok((matched, total))
}
