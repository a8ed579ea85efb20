//! Byte-identity goldens for the register allocator.
//!
//! Each golden is an FNV-1a digest of the function after spill insertion
//! (still in virtual-register form, so every spill temporary prints with
//! its variable number), of the allocated physical text, and of the
//! [`AllocStats`]. Any change to the emitted code — a reload in a
//! different place, a temporary created in a different order, a
//! different register — moves a digest. Two populations are pinned:
//!
//! - six `pressure-large`-shaped functions (pool 16, depth 3, body 8)
//!   through `LphiAbiC`, under every spill policy × interval precision
//!   (rematerialization, splitting and spill-everywhere all fire here),
//!   plus four wider-pool specimens under the default options whose
//!   split sub-webs get second-chance rescues;
//! - the SPECint-like suite at a small scale through all ten
//!   experiments, under the default options and under hull precision
//!   with both spill policies (per-range intervals dissolve every spill
//!   on this suite, so hull precision is what exercises spill code).
//!
//! Performance work on the allocator must leave every digest unchanged.
//! A deliberate change in allocation decisions re-records the tables:
//! the failure message prints the full replacement table.

use tossa::bench::runner::{run_experiment, RunResult};
use tossa::bench::suites::synth::{generate_function, specint_like, SynthConfig};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::Function;
use tossa::regalloc::{
    finish, prepare, verify_allocation, AllocOptions, AllocStats, IntervalPrecision, SpillPolicy,
};

/// The `pressure-large` candidate shape.
const PRESSURE: SynthConfig = SynthConfig {
    functions: 1,
    pool: 16,
    max_depth: 3,
    body_len: 8,
};

/// SPECint-like population size for the experiment matrix.
const SPEC_SCALE: usize = 4;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Allocates a copy of `func` step by step (what `allocate` runs),
/// folding the spill-rewritten text, the physical text and the
/// statistics into `h`.
fn fold_alloc(h: &mut u64, func: &Function, opts: &AllocOptions) -> AllocStats {
    let mut f = func.clone();
    let prep = prepare(&mut f, opts).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    fnv1a(h, f.to_string().as_bytes());
    verify_allocation(&f, &prep.assignment).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    let stats = finish(&mut f, prep);
    fnv1a(h, f.to_string().as_bytes());
    fnv1a(h, format!("{stats:?}").as_bytes());
    stats
}

fn options(policy: SpillPolicy, precision: IntervalPrecision) -> AllocOptions {
    AllocOptions {
        spill_policy: policy,
        precision,
        ..Default::default()
    }
}

const POLICIES: [(&str, SpillPolicy, IntervalPrecision); 4] = [
    (
        "cost/ranges",
        SpillPolicy::CostDriven,
        IntervalPrecision::Ranges,
    ),
    (
        "cost/hull",
        SpillPolicy::CostDriven,
        IntervalPrecision::Hull,
    ),
    (
        "everywhere/ranges",
        SpillPolicy::Everywhere,
        IntervalPrecision::Ranges,
    ),
    (
        "everywhere/hull",
        SpillPolicy::Everywhere,
        IntervalPrecision::Hull,
    ),
];

/// Compares `got` against `want`; on any mismatch, fails with the full
/// replacement table.
fn check(table: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gk, gv), (wk, wv))| gk == wk && gv == wv);
    if !same {
        let mut msg = format!("{table}: allocated output moved; replacement table:\n");
        for (k, v) in got {
            msg.push_str(&format!("    (\"{k}\", 0x{v:016x}),\n"));
        }
        panic!("{msg}");
    }
}

const PRESSURE_GOLDEN: &[(&str, u64)] = &[
    ("cost/ranges/seed1", 0x5d48cd3d23de3751),
    ("cost/ranges/seed2", 0x18388183e081a81a),
    ("cost/ranges/seed3", 0xac0b437e75621542),
    ("cost/ranges/seed4", 0x71659c350a12995f),
    ("cost/ranges/seed5", 0x4f066db691fe195e),
    ("cost/ranges/seed6", 0x808cf051fed59292),
    ("cost/hull/seed1", 0xdeda2217b29dca94),
    ("cost/hull/seed2", 0x60e7fbd237f8c0cc),
    ("cost/hull/seed3", 0x6c51489d40aa7ea4),
    ("cost/hull/seed4", 0xa0ca6bdded636f70),
    ("cost/hull/seed5", 0x5e01e0cce9c13966),
    ("cost/hull/seed6", 0x684c7a87d59f6c23),
    ("everywhere/ranges/seed1", 0x42cece2a8f04a52d),
    ("everywhere/ranges/seed2", 0xfd18deddc2d05dbe),
    ("everywhere/ranges/seed3", 0xe7d8ec679a460761),
    ("everywhere/ranges/seed4", 0xf0b81b3cefce0d5d),
    ("everywhere/ranges/seed5", 0xcbd6eca82eb7b0cf),
    ("everywhere/ranges/seed6", 0x9e145d430ba71234),
    ("everywhere/hull/seed1", 0xc6abe8fa2a62c4c0),
    ("everywhere/hull/seed2", 0xff33aba016f0de65),
    ("everywhere/hull/seed3", 0x12adfb39d64cea7e),
    ("everywhere/hull/seed4", 0x63490edb41b7e887),
    ("everywhere/hull/seed5", 0x4acc2ecc27d812cc),
    ("everywhere/hull/seed6", 0xd673f3a8c531b989),
    ("rescue/seed187", 0x03d40bda437ae97c),
    ("rescue/seed2377", 0x7d4dee4e1421b7dd),
    ("rescue/seed2516", 0x1eb94764b6866c41),
    ("rescue/seed3114", 0x28e078e154489ff8),
];

const SPECINT_GOLDEN: &[(&str, u64)] = &[
    ("LphiC/cost/ranges", 0x8f36deb82136e26a),
    ("LphiC/cost/hull", 0x2ffa521b97ca29aa),
    ("LphiC/everywhere/hull", 0x24fe3ea0afabb278),
    ("CNoAbi/cost/ranges", 0x1c42d6d1a9516436),
    ("CNoAbi/cost/hull", 0x5f1b838aac904d85),
    ("CNoAbi/everywhere/hull", 0xa3f2d7379f5d60b8),
    ("SphiC/cost/ranges", 0x28aba984f5d6e3da),
    ("SphiC/cost/hull", 0x838a34f96b22d9a3),
    ("SphiC/everywhere/hull", 0x428b78583e599faa),
    ("LphiAbiC/cost/ranges", 0x66efb6714aa1f218),
    ("LphiAbiC/cost/hull", 0x64f391255ffe4306),
    ("LphiAbiC/everywhere/hull", 0x4573b86333031a0e),
    ("SphiLabiC/cost/ranges", 0x59ffb0df0237a240),
    ("SphiLabiC/cost/hull", 0xf328e7206ff4627d),
    ("SphiLabiC/everywhere/hull", 0xbcb934e7391427ae),
    ("LabiC/cost/ranges", 0x275728a726d1892d),
    ("LabiC/cost/hull", 0xc844c648227dffa6),
    ("LabiC/everywhere/hull", 0x1b30d9ecd1bd5344),
    ("CAbi/cost/ranges", 0x5b6b5c820e920031),
    ("CAbi/cost/hull", 0x9d6a42e254819544),
    ("CAbi/everywhere/hull", 0x89eb35f9ac127bd2),
    ("LphiAbi/cost/ranges", 0x00bfa3173ca63461),
    ("LphiAbi/cost/hull", 0x3038ead3b4383f7f),
    ("LphiAbi/everywhere/hull", 0x6f0da7b6c316bc19),
    ("Sphi/cost/ranges", 0x655eecc9eb53a7c9),
    ("Sphi/cost/hull", 0xc946f03882fe1b23),
    ("Sphi/everywhere/hull", 0x426fc206959304f7),
    ("Labi/cost/ranges", 0x01459eb9d0c25510),
    ("Labi/cost/hull", 0xf32f09cd1bbb6584),
    ("Labi/everywhere/hull", 0x41022827f0752cea),
];

#[test]
fn pressure_functions_allocate_to_the_pinned_text() {
    let co = CoalesceOptions::default();
    let pipelined: Vec<RunResult> = (1..=6u64)
        .map(|seed| {
            run_experiment(
                &generate_function(seed, &PRESSURE).func,
                Experiment::LphiAbiC,
                &co,
            )
        })
        .collect();
    let mut got = Vec::new();
    let (mut spill_work, mut rescues) = (0usize, 0usize);
    for (label, policy, precision) in POLICIES {
        for (k, base) in pipelined.iter().enumerate() {
            let mut h = FNV_OFFSET;
            let stats = fold_alloc(&mut h, &base.func, &options(policy, precision));
            spill_work += stats.spilled_vars + stats.remats;
            got.push((format!("{label}/seed{}", k + 1), h));
        }
    }
    // The second-chance specimens of `alloc_differential.rs`: the only
    // population whose split sub-webs get rescued into a register.
    let rescue = SynthConfig {
        functions: 1,
        pool: 48,
        max_depth: 2,
        body_len: 16,
    };
    for seed in [187u64, 2377, 2516, 3114] {
        let r = run_experiment(
            &generate_function(seed, &rescue).func,
            Experiment::LphiAbiC,
            &co,
        );
        let mut h = FNV_OFFSET;
        rescues += fold_alloc(&mut h, &r.func, &AllocOptions::default()).second_chances;
        got.push((format!("rescue/seed{seed}"), h));
    }
    assert!(
        spill_work > 0,
        "the pressure population never spilled — vacuous"
    );
    assert!(rescues > 0, "no second-chance rescue fired — vacuous");
    check("pressure", &got, PRESSURE_GOLDEN);
}

#[test]
fn specint_matrix_allocates_to_the_pinned_text() {
    let co = CoalesceOptions::default();
    let suite = specint_like(&SynthConfig {
        functions: SPEC_SCALE,
        ..Default::default()
    });
    let mut got = Vec::new();
    for &exp in Experiment::all() {
        let pipelined: Vec<RunResult> = suite
            .iter()
            .map(|bf| run_experiment(&bf.func, exp, &co))
            .collect();
        for (label, policy, precision) in POLICIES.iter().filter(|p| p.0 != "everywhere/ranges") {
            let mut h = FNV_OFFSET;
            for base in &pipelined {
                fold_alloc(&mut h, &base.func, &options(*policy, *precision));
            }
            got.push((format!("{exp:?}/{label}"), h));
        }
    }
    check("specint", &got, SPECINT_GOLDEN);
}
