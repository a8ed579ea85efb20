//! Closed-loop runner (`matrix-small`, `pressure-large`): each client
//! thread starts its next compile as soon as the previous one returns,
//! walking the job list round-robin from a shared cursor.

use crate::corpus::{Corpus, Workload};
use crate::spans::Spans;
use crate::stages::{self, Facts, Probe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tossa_ir::Function;

/// Request ids of closed-loop compiles start here (set-up parses use
/// the item index).
const REQ_BASE: u64 = 1 << 40;

/// What one closed-loop phase measured.
pub struct Closed {
    /// Wall time of every compile, in nanoseconds, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Seconds from the start to the last completion.
    pub elapsed_s: f64,
    /// Emitted code of every job's first-pass compile, by job index.
    pub outputs: Vec<String>,
    /// Per-thread traced state (traced phases only).
    pub probes: Vec<Probe>,
}

impl Closed {
    /// Completed compiles per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        crate::stats::ratio(self.latencies_ns.len() as f64, self.elapsed_s)
    }

    /// Facts of every thread, summed.
    pub fn facts(&self) -> Facts {
        let mut f = Facts::default();
        for p in &self.probes {
            f.merge(&p.facts);
        }
        f
    }
}

/// Runs the closed loop for `seconds` (and at least one full pass over
/// the jobs) with `clients` threads.
pub fn run(
    corpus: &Corpus,
    w: Workload,
    clients: usize,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Closed {
    let n = corpus.jobs.len();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    type PerThread = (
        Vec<u64>,
        Vec<u64>,
        Vec<(usize, Function)>,
        Option<Probe>,
        Instant,
    );
    let per_thread: Vec<PerThread> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut done = Vec::new();
                    let mut outs = Vec::new();
                    let mut probe = traced.then(|| Probe {
                        spans: Spans::new(epoch, t),
                        facts: Facts::default(),
                    });
                    let mut last = start;
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= n && start.elapsed() >= budget {
                            break;
                        }
                        let job = corpus.jobs[k % n];
                        let t0 = Instant::now();
                        let out = match (&mut probe, w) {
                            (None, Workload::MatrixSmall) => {
                                stages::compile_prepared(&corpus.prepared[job.item], job.exp)
                            }
                            (None, _) => stages::compile(&corpus.items[job.item].bf.func, job.exp),
                            (Some(p), Workload::MatrixSmall) => p.compile_prepared(
                                &corpus.prepared[job.item],
                                job.exp,
                                REQ_BASE + k as u64,
                            ),
                            (Some(p), _) => p.compile(
                                &corpus.items[job.item].bf.func,
                                job.exp,
                                REQ_BASE + k as u64,
                            ),
                        };
                        last = Instant::now();
                        lat.push((last - t0).as_nanos() as u64);
                        done.push((last - start).as_nanos() as u64);
                        // The gate checks the first pass; later
                        // passes repeat the same jobs.
                        if k < n {
                            outs.push((k, out));
                        }
                    }
                    (lat, done, outs, probe, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut latencies_ns = Vec::new();
    let mut done_ns = Vec::new();
    let mut outputs: Vec<Option<Function>> = (0..n).map(|_| None).collect();
    let mut probes = Vec::new();
    let mut end = start;
    for (lat, done, outs, probe, last) in per_thread {
        latencies_ns.extend(lat);
        done_ns.extend(done);
        for (k, f) in outs {
            outputs[k] = Some(f);
        }
        probes.extend(probe);
        end = end.max(last);
    }
    let mut order: Vec<usize> = (0..done_ns.len()).collect();
    order.sort_by_key(|&k| done_ns[k]);
    Closed {
        latencies_ns: order.iter().map(|&k| latencies_ns[k]).collect(),
        elapsed_s: (end - start).as_secs_f64(),
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every job ran at least once").to_string())
            .collect(),
        probes,
    }
}
