//! # tossa-core — pinning-based coalescing for out-of-SSA translation
//!
//! The primary contribution of *Optimizing Translation Out of SSA Using
//! Renaming Constraints* (Rastello, de Ferrière, Guillon — CGO 2004):
//!
//! * [`interfere`] — the interference model (`Variable_kills` Classes
//!   1–2, `stronglyInterfere` Classes 3–4, `Resource_interfere`), with
//!   the optimistic/pessimistic variants of Algorithm 4;
//! * [`pinning`] — pinning bookkeeping and the Fig. 4 correctness
//!   checker;
//! * [`collect`] — the collect phase split as in §5 (`pinningSP`,
//!   `pinningABI`, `pinningCSSA`) plus the `NaiveABI` fallback;
//! * [`affinity`] — the per-block affinity graph and its initial +
//!   weighted bipartite pruning (Algorithm 2);
//! * [`coalesce`] — `Program_pinning` (Algorithm 1), inner-to-outer loop
//!   traversal, component merging, and the Algorithm 3 depth variant;
//! * [`reconstruct`] — Leung & George's mark/reconstruct phases
//!   (out-of-pinned-SSA) with repair copies, redundant-move avoidance and
//!   per-edge parallel copies;
//! * [`pipeline`] — the paper's Table 1 experiment matrix;
//! * [`error`] / [`checked`] / [`chaos`] — the checked-mode safety net:
//!   the structured error taxonomy, per-pass invariant + differential
//!   verification ([`PassGuard`]), and the fault-injection classes that
//!   validate the verifiers;
//! * [`exhaustive`] — a brute-force optimal-pinning oracle for small
//!   functions (the problem is NP-complete, \[LIM3\]), used to bound the
//!   heuristic's suboptimality in tests.
//!
//! ## Example
//!
//! ```
//! use tossa_ir::{machine::Machine, parse::parse_function, interp};
//! use tossa_core::{coalesce, reconstruct};
//!
//! let text = "
//! func @max {
//! entry:
//!   %a, %b = input
//!   %c = cmplt %a, %b
//!   br %c, l, r
//! l:
//!   jump m
//! r:
//!   jump m
//! m:
//!   %m = phi [l: %b], [r: %a]
//!   ret %m
//! }";
//! let mut f = parse_function(text, &Machine::dsp32())?;
//! coalesce::program_pinning(&mut f, &Default::default());
//! let stats = reconstruct::out_of_pinned_ssa(&mut f);
//! // a and b are defined by one instruction, so they strongly interfere:
//! // one argument coalesces with the φ, the other needs a single copy
//! // (a naive replacement would emit two).
//! assert_eq!(stats.phi_copies, 1);
//! assert_eq!(f.count_moves(), 1);
//! assert_eq!(interp::run(&f, &[3, 7], 100)?.outputs, vec![7]);
//! assert_eq!(interp::run(&f, &[7, 3], 100)?.outputs, vec![7]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod chaos;
pub mod checked;
pub mod coalesce;
pub mod collect;
pub mod error;
pub mod exhaustive;
pub mod interfere;
pub mod pinning;
pub mod pipeline;
pub mod reconstruct;

pub use checked::{check_form, IrForm, PassGuard};
pub use coalesce::{
    program_pinning, program_pinning_cached, program_pinning_observed, CoalesceOptions,
    CoalesceStats,
};
pub use error::{CoalesceError, ReconstructError, TossaError, VerifyError};
pub use interfere::InterferenceMode;
pub use pipeline::Experiment;
pub use reconstruct::{out_of_pinned_ssa, out_of_pinned_ssa_checked, ReconstructStats};
