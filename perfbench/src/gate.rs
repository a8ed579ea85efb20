//! The untimed correctness gate and the deterministic code counts.
//!
//! Every emitted function must reparse with `parse_function`, and the
//! reparsed code must produce the same outputs as the interpreter on the
//! pre-SSA source over the function's input vectors. The counts are
//! taken from the reparsed code, once per distinct job, so they depend
//! only on the seed.

use crate::corpus::Item;
use tossa_bench::metrics;
use tossa_ir::interp;
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::Opcode;

/// Interpreter step budget for one execution.
pub const FUEL: u64 = 5_000_000;

/// The deterministic per-seed code counts (sums over distinct jobs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `mov`s surviving allocation.
    pub moves_after_alloc: u64,
    /// Spill reloads plus spill stores.
    pub spill_ops: u64,
    /// Surviving `mov`s weighted `5^loop depth` (the Table 5 weighting).
    pub weighted_moves: u64,
    /// Instructions of the allocated code.
    pub code_insts: u64,
    /// Interpreter steps of the allocated code over the input vectors.
    pub exec_steps: u64,
}

impl Counts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.moves_after_alloc += o.moves_after_alloc;
        self.spill_ops += o.spill_ops;
        self.weighted_moves += o.weighted_moves;
        self.code_insts += o.code_insts;
        self.exec_steps += o.exec_steps;
    }

    /// Moves plus spill code: the Table 6 post-allocation total.
    pub fn spill_move_total(&self) -> u64 {
        self.moves_after_alloc + self.spill_ops
    }
}

/// Outputs of the pre-SSA source on each input vector (the reference:
/// the interpreter, never the compiler under test).
pub fn reference(item: &Item) -> Result<Vec<Vec<i64>>, String> {
    item.bf
        .inputs
        .iter()
        .map(|ins| {
            interp::run(&item.bf.func, ins, FUEL)
                .map(|r| r.outputs)
                .map_err(|e| format!("{}: source traps on {ins:?}: {e}", item.bf.func.name))
        })
        .collect()
}

/// Checks one emitted function's text against `item`'s reference
/// outputs and returns its counts.
pub fn check(item: &Item, want: &[Vec<i64>], code: &str) -> Result<Counts, String> {
    let name = &item.bf.func.name;
    let f = parse_function(code, &Machine::dsp32())
        .map_err(|e| format!("{name}: emitted code does not reparse: {e}"))?;
    let mut c = Counts::default();
    for (ins, want) in item.bf.inputs.iter().zip(want) {
        let got = interp::run(&f, ins, FUEL)
            .map_err(|e| format!("{name}: emitted code traps on {ins:?}: {e}"))?;
        if &got.outputs != want {
            return Err(format!(
                "{name}: outputs {:?} != reference {want:?} on {ins:?}",
                got.outputs
            ));
        }
        c.exec_steps += got.steps;
    }
    c.moves_after_alloc = f.count_moves() as u64;
    c.spill_ops = f
        .all_insts()
        .filter(|&(_, i)| matches!(f.inst(i).opcode, Opcode::SpillLoad | Opcode::SpillStore))
        .count() as u64;
    c.weighted_moves = metrics::weighted_move_count(&f);
    c.code_insts = metrics::inst_count(&f) as u64;
    Ok(c)
}

/// Gate verdict over a set of emitted functions.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Summed counts of the functions that passed.
    pub counts: Counts,
    /// One line per failed function.
    pub failures: Vec<String>,
}

/// Gates `outputs` (item index, emitted code text) pairs.
pub fn gate<'a>(items: &[Item], outputs: impl Iterator<Item = (usize, &'a str)>) -> Verdict {
    let mut refs: Vec<Option<Result<Vec<Vec<i64>>, String>>> =
        (0..items.len()).map(|_| None).collect();
    let mut v = Verdict::default();
    for (k, code) in outputs {
        let want = refs[k].get_or_insert_with(|| reference(&items[k]));
        match want
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|w| check(&items[k], w, code))
        {
            Ok(c) => v.counts.add(&c),
            Err(e) => v.failures.push(e),
        }
    }
    v
}
