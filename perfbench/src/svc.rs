//! Service runner (`svc-closed`): one client thread keeps
//! [`Svc::INFLIGHT_PER_WORKER`] request frames per worker outstanding
//! against an in-process `CompileService`, sending the next frame
//! through `submit_frame` as soon as a report comes back (no separate
//! collector thread). With more frames in flight than workers the
//! admission queue always holds work, so the run measures the service's
//! capacity and the latency a request sees at that load, queue wait
//! included.

use crate::corpus::Corpus;
use crate::spans::Spans;
use crate::stages::Probe;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};
use tossa_bench::checked::{run_checked, CheckedOptions};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::Experiment;
use tossa_ir::interp;
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_server::report::{JobOutcome, JobReport};
use tossa_server::service::{CompileService, ServiceConfig};
use tossa_server::Budget;
use tossa_trace::json::{parse_json, Json};
use tossa_trace::metrics::HistogramSnapshot;
use tossa_trace::service::{JobCounter, JobCounterSet};
use tossa_trace::Counter;

/// How long the client waits for a report before declaring it lost.
const REPORT_TIMEOUT: Duration = Duration::from_secs(60);

/// Request ids of the layer pass (set-up parses use the item index).
const LAYER_REQ_BASE: u64 = 1 << 41;

/// What one service phase measured.
pub struct Svc {
    /// Submit-to-report latency of every report, in nanoseconds, in
    /// receipt order.
    pub latencies_ns: Vec<u64>,
    /// Seconds from the start to the last report.
    pub elapsed_s: f64,
    /// Frames sent.
    pub sent: u64,
    /// Reports received.
    pub received: u64,
    /// Reports of jobs that completed with verified code.
    pub ok: u64,
    /// Distinct (corpus item, emitted code) pairs of those reports.
    pub codes: BTreeSet<(usize, String)>,
    /// Σ attempts over all reports.
    pub attempts: u64,
    /// Σ `JobReport::wall_ns` over all reports.
    pub wall_ns: u64,
    /// Σ interpreter steps in the reports' counters (traced phases
    /// only; parsed after the run, off the receive path).
    pub interp_steps: u64,
    /// The reports' raw `counters_json` (traced phases only).
    counters_json: Vec<String>,
    /// Σ bytes of the serialized reports.
    pub report_bytes: u64,
    /// Deepest admission queue seen at a send.
    pub depth_max: i64,
    /// Service histogram of admission-to-dequeue waits.
    pub queue_wait: HistogramSnapshot,
    /// Service job counters at shutdown.
    pub counters: JobCounterSet,
    /// Client spans (traced phases only).
    pub spans: Option<Spans>,
}

impl Svc {
    /// Frames kept outstanding per service worker.
    pub const INFLIGHT_PER_WORKER: usize = 2;

    /// Verified completions per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        crate::stats::ratio(self.ok as f64, self.elapsed_s)
    }

    /// Jobs that completed on the naive-fallback rung.
    pub fn fallbacks(&self) -> u64 {
        self.counters.get(JobCounter::JobsCompletedFallback)
    }

    /// Adds a later phase's results (its spans excepted) into `self`.
    pub fn absorb(&mut self, o: Svc) {
        self.latencies_ns.extend(o.latencies_ns);
        self.elapsed_s += o.elapsed_s;
        self.sent += o.sent;
        self.received += o.received;
        self.ok += o.ok;
        self.codes.extend(o.codes);
        self.attempts += o.attempts;
        self.wall_ns += o.wall_ns;
        self.interp_steps += o.interp_steps;
        self.report_bytes += o.report_bytes;
        self.depth_max = self.depth_max.max(o.depth_max);
        self.queue_wait.merge(&o.queue_wait);
        self.counters.merge(&o.counters);
    }
}

/// Runs the client for `seconds` (and at least one frame per corpus
/// item) against a service with `workers` workers.
pub fn run(
    corpus: &Corpus,
    seconds: f64,
    workers: usize,
    traced: Option<Instant>,
) -> Result<Svc, String> {
    let (service, rx) = CompileService::start(ServiceConfig {
        workers,
        default_experiment: Experiment::LphiAbiC,
        chaos: None,
        ..ServiceConfig::default()
    });
    let metrics = service.metrics();
    let mut out = Svc {
        latencies_ns: Vec::new(),
        elapsed_s: 0.0,
        sent: 0,
        received: 0,
        ok: 0,
        codes: BTreeSet::new(),
        attempts: 0,
        wall_ns: 0,
        interp_steps: 0,
        counters_json: Vec::new(),
        report_bytes: 0,
        depth_max: 0,
        queue_wait: HistogramSnapshot::empty(),
        counters: JobCounterSet::new(),
        spans: traced.map(|epoch| Spans::new(epoch, 0)),
    };
    let inflight = workers * Svc::INFLIGHT_PER_WORKER;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Admission id → (corpus item, submit time, request id).
    let mut pending: HashMap<u64, (usize, Instant, u64)> = HashMap::new();
    let mut k = 0usize;
    loop {
        let sending = k < corpus.items.len() || start.elapsed() < budget;
        if sending && pending.len() < inflight {
            out.depth_max = out.depth_max.max(metrics.queue_depth.get());
            let item = k % corpus.items.len();
            let req = k as u64;
            let frame = &corpus.frames[item];
            let at = Instant::now();
            let admitted = match &mut out.spans {
                Some(s) => s.time("server.proto", req, || service.submit_frame(frame)),
                None => service.submit_frame(frame),
            };
            let id = admitted.map_err(|e| format!("frame {k} refused: {e}"))?;
            pending.insert(id, (item, at, req));
            out.sent += 1;
            k += 1;
        } else if pending.is_empty() {
            break;
        } else {
            let rep = rx
                .recv_timeout(REPORT_TIMEOUT)
                .map_err(|_| format!("{} reports never arrived", pending.len()))?;
            receive(rep, &mut pending, &mut out);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.interp_steps = std::mem::take(&mut out.counters_json)
        .iter()
        .filter_map(|cj| parse_json(cj).ok())
        .filter_map(|j| j.get(Counter::InterpSteps.name()).and_then(Json::as_u64))
        .sum();
    out.queue_wait = metrics.queue_latency_ns.snapshot();
    out.counters = service.shutdown();
    Ok(out)
}

/// Records one report: its latency from submission and its
/// serialization (what a front end writes back to the client).
fn receive(mut rep: JobReport, pending: &mut HashMap<u64, (usize, Instant, u64)>, out: &mut Svc) {
    let at = Instant::now();
    let Some((item, sent, req)) = pending.remove(&rep.id) else {
        return;
    };
    out.latencies_ns.push((at - sent).as_nanos() as u64);
    let json = match &mut out.spans {
        Some(s) => {
            let json = s.time("server.report", req, || rep.to_json());
            out.counters_json.extend(rep.counters_json.take());
            json
        }
        None => rep.to_json(),
    };
    out.report_bytes += json.len() as u64;
    out.received += 1;
    out.attempts += u64::from(rep.attempts);
    out.wall_ns += rep.wall_ns;
    match rep.code {
        Some(code) if rep.outcome == JobOutcome::Completed && rep.verified => {
            out.ok += 1;
            out.codes.insert((item, code));
        }
        _ => {}
    }
}

/// Facts of the traced layer pass over the service corpus.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// `interp::run` calls made on emitted code.
    pub interp_calls: u64,
    /// Items whose traced composition differed from the untraced path.
    pub mismatches: Vec<String>,
}

/// Calls, for every corpus item, the layers the service composes on
/// its blocking path — frame parsing, the checked pipeline, the
/// unchecked stages it guards, and the interpreter — each in its own
/// span, and checks the traced composition against the untraced path.
pub fn layer_pass(corpus: &Corpus, probe: &mut Probe) -> LayerPass {
    let mut pass = LayerPass::default();
    let copts = CheckedOptions {
        fuel: Budget::default().fuel,
        alloc: true,
        ..CheckedOptions::default()
    };
    for (k, item) in corpus.items.iter().enumerate() {
        let req = LAYER_REQ_BASE + k as u64;
        let parsed = probe.spans.time("ir.parse", req, || {
            parse_function(&item.text, &Machine::dsp32())
        });
        if parsed.is_err() {
            pass.mismatches
                .push(format!("{}: text does not reparse", item.bf.func.name));
        }
        // A plain span: the checked run's own counters would otherwise
        // be counted twice in the per-compile stage counts.
        probe.spans.time("bench.checked", req, || {
            run_checked(
                &item.bf,
                Experiment::LphiAbiC,
                &CoalesceOptions::default(),
                &copts,
            )
        });
        let traced = probe.compile(&item.bf.func, Experiment::LphiAbiC, req);
        if traced.to_string()
            != crate::stages::compile(&item.bf.func, Experiment::LphiAbiC).to_string()
        {
            pass.mismatches
                .push(format!("{}: traced composition differs", item.bf.func.name));
        }
        for ins in &item.bf.inputs {
            let _ = probe.spans.time("ir.interp", req, || {
                interp::run(&traced, ins, crate::gate::FUEL)
            });
            pass.interp_calls += 1;
        }
    }
    pass
}
