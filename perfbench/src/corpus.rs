//! The three workloads' inputs, drawn from the workload seed.
//!
//! The program only ever sees generated inputs: every function is
//! rendered to LAI text here and handed to the compiler through
//! `parse_function` (for `svc-closed`, inside a JSON frame), exactly as a
//! client would send it.

use crate::spans::Spans;
use crate::stages::Probe;
use tossa_bench::checked::fuzz_suite;
use tossa_bench::suites::{kernels, paper_examples, synth, vocoder, BenchFunction};
use tossa_core::Experiment;
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::rng::SplitMix64;
use tossa_ir::Function;

/// Which workload a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop into an in-process `CompileService` (checked + alloc).
    SvcClosed,
    /// Table-1 matrix: every suite function × all ten experiments.
    MatrixSmall,
    /// Large high-pressure synthetic functions, `LphiAbiC` + alloc.
    PressureLarge,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        match s {
            "svc-closed" => Some(Workload::SvcClosed),
            "matrix-small" => Some(Workload::MatrixSmall),
            "pressure-large" => Some(Workload::PressureLarge),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcClosed => "svc-closed",
            Workload::MatrixSmall => "matrix-small",
            Workload::PressureLarge => "pressure-large",
        }
    }
}

// Each workload draws its functions from a fixed pool. The pool is
// sorted by size and cut into strata of five; the seed drops one
// function from every stratum. Each seed thus runs its own fifth-new
// set of inputs, while the size distribution -- which sets compile
// cost, tail latency and the code counts -- stays the pool's, so runs
// on different seeds are comparable.

/// SPECint-like pool added to the four hand-written suites on
/// `matrix-small` (generator seeds 1..=200; the trajectory's SPECint
/// scale-40 population is its first 40).
pub const MATRIX_SPEC_POOL: usize = 200;
/// `pressure-large` pool size.
pub const PRESSURE_POOL: usize = 100;
/// Generator seeds of `pressure-large` candidates start here.
const PRESSURE_SEED_BASE: u64 = 1_000_001;
/// Shape of `pressure-large` candidates: 16 pool variables against the
/// DSP32's general registers, three nesting levels, eight statements
/// per body. Spills survive hole-precise allocation at this pressure.
pub const PRESSURE_SHAPE: synth::SynthConfig = synth::SynthConfig {
    functions: PRESSURE_POOL,
    pool: 16,
    max_depth: 3,
    body_len: 8,
};
/// Instruction-count band of the `pressure-large` pool: candidates
/// outside it are skipped, so the pool is large functions only and no
/// single outlier sets the tail.
pub const PRESSURE_INSTS: std::ops::RangeInclusive<usize> = 700..=1100;
/// Fuzz-shaped pool of `svc-closed` (the hand-written suites always run
/// too, as on `matrix-small`).
pub const SVC_FUZZ_POOL: usize = 400;
/// Generator seeds of the `svc-closed` fuzz pool start here.
const SVC_SEED_BASE: u64 = 2_000_001;
/// Functions per stratum; the seed drops one of each.
const STRATUM: usize = 5;

/// The seed's draw from `pool`: sorted by instruction count, cut into
/// strata of [`STRATUM`], one function dropped per stratum. The rest
/// keep their pool order.
fn pick(pool: Vec<BenchFunction>, seed: u64) -> Vec<BenchFunction> {
    let mut by_size: Vec<usize> = (0..pool.len()).collect();
    by_size.sort_by_key(|&k| (pool[k].func.all_insts().count(), k));
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EC0_0BE1);
    let mut keep = vec![true; pool.len()];
    for stratum in by_size.chunks(STRATUM) {
        keep[stratum[rng.random_range(0..stratum.len())]] = false;
    }
    pool.into_iter()
        .zip(keep)
        .filter_map(|(bf, k)| k.then_some(bf))
        .collect()
}

/// One distinct input function.
pub struct Item {
    /// The function as parsed from `text`, with its input vectors.
    pub bf: BenchFunction,
    /// Its LAI text (what the compiler is sent).
    pub text: String,
}

/// One unit of work: a function under an experiment.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into [`Corpus::items`].
    pub item: usize,
    /// Pipeline to run.
    pub exp: Experiment,
}

/// A workload's inputs after set-up.
pub struct Corpus {
    /// Distinct functions.
    pub items: Vec<Item>,
    /// Work units, in order (closed loops; `svc-closed` cycles
    /// through [`Corpus::frames`]).
    pub jobs: Vec<Job>,
    /// Front-end (SSA) form of every item (`matrix-small` only: the
    /// matrix shares one front end across its ten experiments).
    pub prepared: Vec<Function>,
    /// JSON request frame of every item (`svc-closed` only).
    pub frames: Vec<String>,
}

impl Corpus {
    /// Requests in one round over the workload's work units (frames on
    /// `svc-closed`, jobs otherwise).
    pub fn pass_len(&self) -> usize {
        self.jobs.len().max(self.frames.len())
    }
}

/// One input as a client holds it: LAI text plus input vectors.
pub struct Source {
    /// The function's LAI text.
    pub text: String,
    /// Input vectors the function is exercised on.
    pub inputs: Vec<Vec<i64>>,
}

/// Renders a generated function to the text a client sends.
pub fn render(bf: BenchFunction) -> Source {
    Source {
        text: bf.func.to_string(),
        inputs: bf.inputs,
    }
}

/// The seed's inputs of a workload, rendered. Generation is the
/// benchmark's own work, so it happens once per run, outside `setup_s`.
pub fn draw(w: Workload, seed: u64) -> Vec<Source> {
    generate(w, seed).into_iter().map(render).collect()
}

/// The generated functions of a workload, before they are rendered.
fn generate(w: Workload, seed: u64) -> Vec<BenchFunction> {
    match w {
        Workload::MatrixSmall => {
            let spec = (1..=MATRIX_SPEC_POOL as u64)
                .map(|k| synth::generate_function(k, &synth::SynthConfig::default()))
                .collect();
            let mut fns = hand_written();
            fns.extend(pick(spec, seed));
            fns
        }
        Workload::PressureLarge => {
            let pool = (PRESSURE_SEED_BASE..)
                .map(|k| synth::generate_function(k, &PRESSURE_SHAPE))
                .filter(|bf| PRESSURE_INSTS.contains(&bf.func.all_insts().count()))
                .take(PRESSURE_POOL)
                .collect();
            pick(pool, seed)
        }
        Workload::SvcClosed => {
            // Frames are sent in this order, so the heavy hand-written
            // functions are spread evenly among the fuzz-shaped ones
            // rather than arriving back to back.
            let hand = hand_written();
            let fuzz = pick(fuzz_suite(SVC_FUZZ_POOL, SVC_SEED_BASE).functions, seed);
            let (h, f) = (hand.len(), fuzz.len());
            let mut keyed: Vec<(f64, BenchFunction)> = hand
                .into_iter()
                .enumerate()
                .map(|(i, bf)| ((i as f64 + 0.5) / h as f64, bf))
                .chain(
                    fuzz.into_iter()
                        .enumerate()
                        .map(|(j, bf)| ((j as f64 + 0.5) / f as f64, bf)),
                )
                .collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            keyed.into_iter().map(|(_, bf)| bf).collect()
        }
    }
}

/// The four hand-written suites (VALcc1, VALcc2, example1-8, LAI Large).
pub fn hand_written() -> Vec<BenchFunction> {
    let mut fns = kernels::valcc1();
    fns.extend(kernels::valcc2());
    fns.extend(paper_examples::examples());
    fns.extend(vocoder::lai_large());
    fns
}

/// Parses `src` (span `ir.parse` when traced); the parsed function is
/// what the workload compiles.
pub fn parse(src: &Source, spans: Option<&mut Spans>, req: u64) -> Item {
    let parse = || parse_function(&src.text, &Machine::dsp32());
    let parsed = match spans {
        Some(s) => s.time("ir.parse", req, parse),
        None => parse(),
    };
    let func =
        parsed.unwrap_or_else(|e| panic!("generated function does not parse: {e}\n{}", src.text));
    Item {
        bf: BenchFunction {
            func,
            inputs: src.inputs.clone(),
        },
        text: src.text.clone(),
    }
}

/// Builds a workload's corpus from `srcs`: the program's work on the
/// rendered text -- parsing every function, plus the matrix's front
/// ends -- which is what `setup_s` times. Service frames are the
/// client's encoding and are added afterwards by [`add_frames`].
pub fn set_up(w: Workload, srcs: &[Source], mut probe: Option<&mut Probe>) -> Corpus {
    let items: Vec<Item> = srcs
        .iter()
        .enumerate()
        .map(|(k, src)| parse(src, probe.as_deref_mut().map(|p| &mut p.spans), k as u64))
        .collect();
    let mut corpus = Corpus {
        jobs: Vec::new(),
        prepared: Vec::new(),
        frames: Vec::new(),
        items,
    };
    match w {
        Workload::MatrixSmall => {
            corpus.prepared = corpus
                .items
                .iter()
                .enumerate()
                .map(|(k, it)| match probe.as_deref_mut() {
                    Some(p) => p.front_end(&it.bf.func, k as u64),
                    None => tossa_bench::runner::front_end(&it.bf.func),
                })
                .collect();
            for &exp in Experiment::all() {
                for item in 0..corpus.items.len() {
                    corpus.jobs.push(Job { item, exp });
                }
            }
        }
        Workload::PressureLarge => {
            corpus.jobs = (0..corpus.items.len())
                .map(|item| Job {
                    item,
                    exp: Experiment::LphiAbiC,
                })
                .collect();
        }
        Workload::SvcClosed => {}
    }
    corpus
}

/// Adds the `svc-closed` request frames (no-op on other workloads).
pub fn add_frames(w: Workload, corpus: &mut Corpus) {
    if w == Workload::SvcClosed {
        corpus.frames = corpus.items.iter().map(frame).collect();
    }
}

/// One `svc-closed` request frame: the function text plus its input
/// vectors (no id: the service assigns admission ids in send order).
fn frame(it: &Item) -> String {
    let inputs: Vec<String> = it
        .bf
        .inputs
        .iter()
        .map(|v| {
            let vals: Vec<String> = v.iter().map(i64::to_string).collect();
            format!("[{}]", vals.join(", "))
        })
        .collect();
    format!(
        "{{\"func\": \"{}\", \"inputs\": [{}]}}",
        tossa_trace::escape_json(&it.text),
        inputs.join(", ")
    )
}
