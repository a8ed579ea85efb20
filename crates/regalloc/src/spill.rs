//! Spill rewriting through the stack-slot model.
//!
//! Two rewrites live here, both driven by the spill loop in
//! [`crate::prepare`] and both confined to the blocks the round's
//! [`OccIndex`] lists for their victims:
//!
//! - **Spill-everywhere** ([`rewrite_spills`]): each evicted variable
//!   gets one stack slot for the whole function. Every instruction
//!   that reads it gets a fresh reload temporary
//!   (`tmp = spillld slot`) inserted just before it; every instruction
//!   that writes it gets a fresh store temporary followed by
//!   `spillst tmp, slot`. Temporaries live for exactly one instruction,
//!   are recorded as unspillable, and shrink register pressure at every
//!   original program point — which is what makes the spill-and-rescan
//!   loop terminate. The live-range-splitting layer ([`crate::split`])
//!   runs the same rewrite over the victim's occurrence blocks outside
//!   its region for the cold side of a split web.
//! - **Rematerialization** ([`rematerialize`]): a web whose single def is
//!   a pure `make` is re-issued before each use instead of reloaded, and
//!   its original def deleted — no slot, no memory traffic.
//!
//! Blocks are visited in block-index order, the order a whole-function
//! walk would take, and a block without an occurrence of a victim would
//! come out of the rewrite unchanged; so the fresh temporaries are
//! created in the same order, and the code is the same, as if every
//! block had been walked.

use std::collections::HashSet;
use tossa_ir::ids::{Block, Var};
use tossa_ir::instr::{InstData, Operand};
use tossa_ir::{Function, Opcode};

use crate::occ::OccIndex;

/// Rewrites every victim of `pairs` through its slot at every
/// occurrence, visiting the union of the victims' occurrence blocks.
/// Returns `(stores, reloads)` inserted; the fresh temporaries are added
/// to `temps`.
pub fn rewrite_spills(
    f: &mut Function,
    occ: &OccIndex,
    pairs: &[(Var, i64)],
    temps: &mut HashSet<Var>,
) -> (usize, usize) {
    let blocks = occ.union(pairs.iter().map(|&(v, _)| v));
    rewrite_in_blocks(f, pairs, &blocks, temps)
}

/// The spill rewrite of `pairs`, restricted to `blocks` (which must be
/// in block-index order). Occurrences in other blocks are left alone:
/// the split's cold side passes the victim's occurrence blocks outside
/// its region.
pub(crate) fn rewrite_in_blocks(
    f: &mut Function,
    pairs: &[(Var, i64)],
    blocks: &[Block],
    temps: &mut HashSet<Var>,
) -> (usize, usize) {
    let mut slot_of: Vec<Option<i64>> = vec![None; f.num_vars()];
    for &(v, slot) in pairs {
        slot_of[v.index()] = Some(slot);
    }
    let slot = |v: Var| slot_of.get(v.index()).copied().flatten();
    let mut stores = 0usize;
    let mut reloads = 0usize;

    for &b in blocks {
        let old: Vec<_> = f.block_insts(b).collect();
        let mut new_list = Vec::with_capacity(old.len());
        for i in old {
            if !f.inst(i).operands().any(|o| slot(o.var).is_some()) {
                new_list.push(i);
                continue;
            }
            // One reload temp per distinct spilled variable used here,
            // in order of first use.
            let mut reload_tmp: Vec<(Var, Var)> = Vec::new();
            for k in 0..f.inst(i).uses.len() {
                let v = f.inst(i).uses[k].var;
                let Some(s) = slot(v) else { continue };
                if reload_tmp.iter().any(|&(w, _)| w == v) {
                    continue;
                }
                let tmp = f.new_var(format!("{}.r", f.var(v).name));
                temps.insert(tmp);
                let ld = InstData::new(Opcode::SpillLoad)
                    .with_defs(vec![Operand::new(tmp)])
                    .with_imm(s);
                new_list.push(f.alloc_inst(ld));
                reload_tmp.push((v, tmp));
                reloads += 1;
            }
            // Fresh store temp per spilled def (defs are distinct vars
            // within one instruction after validation).
            let mut store_tmp: Vec<(Var, Var, i64)> = Vec::new();
            for k in 0..f.inst(i).defs.len() {
                let v = f.inst(i).defs[k].var;
                let Some(s) = slot(v) else { continue };
                let tmp = f.new_var(format!("{}.w", f.var(v).name));
                temps.insert(tmp);
                store_tmp.push((v, tmp, s));
            }
            let inst = f.inst_mut(i);
            for o in inst.uses.iter_mut() {
                if let Some(&(_, tmp)) = reload_tmp.iter().find(|&&(v, _)| v == o.var) {
                    o.var = tmp;
                }
            }
            for o in inst.defs.iter_mut() {
                if let Some(&(_, tmp, _)) = store_tmp.iter().find(|&&(v, _, _)| v == o.var) {
                    o.var = tmp;
                }
            }
            new_list.push(i);
            for (_, tmp, s) in store_tmp {
                let st = InstData::new(Opcode::SpillStore)
                    .with_uses(vec![Operand::new(tmp)])
                    .with_imm(s);
                new_list.push(f.alloc_inst(st));
                stores += 1;
            }
        }
        f.block_mut(b).insts = new_list;
    }
    (stores, reloads)
}

/// Rematerializes `v` (single def `make imm`): re-issues the `make` into
/// a fresh one-instruction temporary before every use and deletes the
/// original def, eliminating `v` without a stack slot. Visits only `v`'s
/// occurrence blocks. Returns the number of re-issued defs. The
/// temporaries join `temps` (unspillable, like reload temps).
pub fn rematerialize(
    f: &mut Function,
    occ: &OccIndex,
    v: Var,
    imm: i64,
    temps: &mut HashSet<Var>,
) -> usize {
    let mut remats = 0usize;
    for &b in occ.blocks(v) {
        let old: Vec<_> = f.block_insts(b).collect();
        let mut new_list = Vec::with_capacity(old.len());
        for i in old {
            // Drop the original def: after the rewrite the web has no
            // uses left, and `make` is pure.
            let inst_ref = f.inst(i);
            if inst_ref.opcode == Opcode::Make && inst_ref.defs.iter().any(|o| o.var == v) {
                continue;
            }
            if inst_ref.uses.iter().any(|o| o.var == v) {
                let name = format!("{}.m", f.var(v).name);
                let tmp = f.new_var(name);
                temps.insert(tmp);
                let mk = InstData::new(Opcode::Make)
                    .with_defs(vec![Operand::new(tmp)])
                    .with_imm(imm);
                new_list.push(f.alloc_inst(mk));
                let inst = f.inst_mut(i);
                for o in inst.uses.iter_mut() {
                    if o.var == v {
                        o.var = tmp;
                    }
                }
                remats += 1;
            }
            new_list.push(i);
        }
        f.block_mut(b).insts = new_list;
    }
    remats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn spilling_a_loop_var_preserves_semantics() {
        let text = "
func @s {
entry:
  %n = input
  %z = make 0
  jump head
head:
  %c = cmplt %z, %n
  br %c, body, exit
body:
  %z = addi %z, 1
  jump head
exit:
  ret %z
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[6], 10_000).unwrap().outputs;
        let z = f.vars().find(|&v| f.var(v).name == "z").unwrap();
        let occ = OccIndex::build(&f);
        let mut temps = HashSet::new();
        let (st, rl) = rewrite_spills(&mut f, &occ, &[(z, 0)], &mut temps);
        f.validate().unwrap();
        assert!(st >= 2 && rl >= 2, "stores={st} reloads={rl}\n{f}");
        assert!(!temps.is_empty());
        assert_eq!(
            interp::run(&f, &[6], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
        // The spilled variable no longer appears as an operand.
        for (_, i) in f.all_insts() {
            for o in f.inst(i).operands() {
                assert_ne!(o.var, z, "{f}");
            }
        }
    }

    #[test]
    fn remat_reissues_the_make_and_drops_the_def() {
        let text = "
func @rm {
entry:
  %k = make 9
  %a = input
  %x = add %a, %k
  %y = mul %x, %k
  ret %y
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[3], 100).unwrap().outputs;
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let mut temps = HashSet::new();
        let occ = OccIndex::build(&f);
        let n = rematerialize(&mut f, &occ, k, 9, &mut temps);
        f.validate().unwrap();
        assert_eq!(n, 2, "{f}");
        assert_eq!(temps.len(), 2);
        // The web is gone entirely — no operand, no def, and no spill
        // opcode was introduced.
        for (_, i) in f.all_insts() {
            let inst = f.inst(i);
            assert!(
                !matches!(inst.opcode, Opcode::SpillLoad | Opcode::SpillStore),
                "{f}"
            );
            for o in inst.operands() {
                assert_ne!(o.var, k, "{f}");
            }
        }
        assert_eq!(interp::run(&f, &[3], 100).unwrap().outputs, before, "{f}");
    }
}
