//! The compile paths a run times.
//!
//! Untraced runs call the runner's compound entry points
//! (`run_experiment[_prepared]` + `apply_alloc`). The traced run
//! composes the same public stage calls as `runner::run_pipeline`, in
//! the same order and with the same analysis-cache invalidations, and
//! wraps each call in a span plus a counters-only capture. The run's
//! gate checks that both paths emit byte-identical code.

use crate::spans::Spans;
use tossa_analysis::AnalysisCache;
use tossa_baselines::{aggressive_coalesce_cached, dead_code_elim_cached, to_cssa_cached};
use tossa_bench::metrics;
use tossa_bench::runner::{apply_alloc, run_experiment, run_experiment_prepared};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::collect::{naive_abi, pinning_abi, pinning_cssa, pinning_sp};
use tossa_core::reconstruct::out_of_pinned_ssa;
use tossa_core::{program_pinning_cached, Experiment};
use tossa_ir::Function;
use tossa_regalloc::{allocate, AllocOptions, AllocStats};
use tossa_ssa::{ifconv, opt, psi, to_ssa};
use tossa_trace::{capture_counters, CounterSet};

/// Untraced compile from pre-SSA source (front end included).
pub fn compile(src: &Function, exp: Experiment) -> Function {
    let mut r = run_experiment(src, exp, &CoalesceOptions::default());
    apply_alloc(&mut r);
    r.func
}

/// Untraced compile from a front-end output.
pub fn compile_prepared(ssa: &Function, exp: Experiment) -> Function {
    let mut r = run_experiment_prepared(ssa, exp, &CoalesceOptions::default());
    apply_alloc(&mut r);
    r.func
}

/// What the traced stage calls returned, summed over a thread's work.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Traced compiles (root `compile` spans).
    pub compiles: u64,
    /// Traced front ends.
    pub front_ends: u64,
    /// Instructions leaving the front end.
    pub ssa_insts_out: u64,
    /// Pins placed by `pinning_cssa` / `pinning_sp` / `pinning_abi`.
    pub pins: u64,
    /// Affinity edges the coalescer saw.
    pub affinity_edges: u64,
    /// Affinity edges pruned (initial + bipartite).
    pub affinity_pruned: u64,
    /// Copies inserted by reconstruction.
    pub recon_copies: u64,
    /// Edges split by reconstruction.
    pub edges_split: u64,
    /// Moves removed by the Chaitin cleanup.
    pub moves_coalesced: u64,
    /// Allocation statistics (summed; `rounds` is the maximum).
    pub alloc: AllocStats,
    /// Allocations that needed the graph-coloring fallback.
    pub graph_fallbacks: u64,
    /// Counters recorded inside the coalescer span.
    pub coalesce_counters: CounterSet,
    /// Counters recorded inside every stage span.
    pub counters: CounterSet,
}

impl Facts {
    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &Facts) {
        self.compiles += o.compiles;
        self.front_ends += o.front_ends;
        self.ssa_insts_out += o.ssa_insts_out;
        self.pins += o.pins;
        self.affinity_edges += o.affinity_edges;
        self.affinity_pruned += o.affinity_pruned;
        self.recon_copies += o.recon_copies;
        self.edges_split += o.edges_split;
        self.moves_coalesced += o.moves_coalesced;
        self.alloc.add_assign(&o.alloc);
        self.graph_fallbacks += o.graph_fallbacks;
        self.coalesce_counters.merge(&o.coalesce_counters);
        self.counters.merge(&o.counters);
    }
}

/// One thread's traced state: its span buffer and stage facts.
pub struct Probe {
    /// Span buffer.
    pub spans: Spans,
    /// Stage facts.
    pub facts: Facts,
}

impl Probe {
    /// Runs `f` as stage `name`: a span around it and a counters-only
    /// capture whose counters land in [`Facts::counters`].
    fn stage<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, CounterSet) {
        let id = self.spans.enter(name, req);
        let (out, set) = capture_counters(f);
        self.spans.exit(id);
        self.facts.counters.merge(&set);
        (out, set)
    }

    /// `runner::front_end`, stage by stage.
    pub fn front_end(&mut self, src: &Function, req: u64) -> Function {
        let mut f = src.clone();
        self.stage("ssa.to_ssa", req, || to_ssa(&mut f));
        self.stage("ssa.ifconv", req, || {
            ifconv::if_convert(&mut f, &ifconv::IfConvOptions::default())
        });
        self.stage("ssa.psi", req, || psi::lower_psis(&mut f));
        self.stage("ssa.opt", req, || {
            opt::copy_propagate(&mut f);
            opt::gvn(&mut f);
            opt::dce(&mut f);
        });
        self.facts.front_ends += 1;
        self.facts.ssa_insts_out += f.all_insts().count() as u64;
        f
    }

    /// `runner::run_pipeline` followed by `apply_alloc`, stage by stage.
    pub fn pipeline(&mut self, mut f: Function, exp: Experiment, req: u64) -> Function {
        let opts = CoalesceOptions::default();
        let passes = exp.passes();
        let mut cache = AnalysisCache::new();
        if passes.sreedhar {
            self.stage("baselines.cssa", req, || to_cssa_cached(&mut f, &mut cache));
        }
        let (pins, _) = self.stage("core.pinning", req, || {
            let mut pins = 0;
            if passes.pinning_cssa {
                pins += pinning_cssa(&mut f);
            }
            if passes.pinning_sp {
                pins += pinning_sp(&mut f);
            }
            if passes.pinning_abi {
                pins += pinning_abi(&mut f);
                cache.invalidate_instructions();
            }
            pins
        });
        self.facts.pins += pins as u64;
        if passes.pinning_phi {
            let (co, set) = self.stage("core.coalesce", req, || {
                program_pinning_cached(&mut f, &opts, &mut cache)
            });
            self.facts.affinity_edges += co.initial_edges as u64;
            self.facts.affinity_pruned += (co.pruned_initial + co.pruned_bipartite) as u64;
            self.facts.coalesce_counters.merge(&set);
        }
        let (recon, _) = self.stage("core.reconstruct", req, || {
            let recon = out_of_pinned_ssa(&mut f);
            if recon.edges_split == 0 {
                cache.invalidate_instructions();
            } else {
                cache.invalidate();
            }
            if passes.naive_abi {
                naive_abi(&mut f);
                cache.invalidate_instructions();
            }
            recon
        });
        self.facts.recon_copies += recon.total_copies() as u64;
        self.facts.edges_split += recon.edges_split as u64;
        let (coalesced, _) = self.stage("baselines.cleanup", req, || {
            dead_code_elim_cached(&mut f, &mut cache);
            let mut coalesced = 0;
            if passes.coalescing {
                coalesced = aggressive_coalesce_cached(&mut f, &mut cache).coalesced;
                dead_code_elim_cached(&mut f, &mut cache);
            }
            coalesced
        });
        self.facts.moves_coalesced += coalesced as u64;
        self.stage("bench.metrics", req, || {
            (
                metrics::move_count(&f),
                metrics::weighted_move_count_cached(&f, &mut cache),
            )
        });
        let (stats, _) = self.stage("regalloc", req, || {
            allocate(&mut f, &AllocOptions::default())
                .unwrap_or_else(|e| panic!("allocation failed on {}: {e}", f.name))
        });
        self.facts.graph_fallbacks += u64::from(stats.fallback);
        self.facts.alloc.add_assign(&stats);
        f
    }

    /// Traced twin of [`compile`] under a root `compile` span.
    pub fn compile(&mut self, src: &Function, exp: Experiment, req: u64) -> Function {
        let root = self.spans.enter("compile", req);
        let ssa = self.front_end(src, req);
        let out = self.pipeline(ssa, exp, req);
        self.spans.exit(root);
        self.facts.compiles += 1;
        out
    }

    /// Traced twin of [`compile_prepared`] under a root `compile` span.
    pub fn compile_prepared(&mut self, ssa: &Function, exp: Experiment, req: u64) -> Function {
        let root = self.spans.enter("compile", req);
        let out = self.pipeline(ssa.clone(), exp, req);
        self.spans.exit(root);
        self.facts.compiles += 1;
        out
    }
}
