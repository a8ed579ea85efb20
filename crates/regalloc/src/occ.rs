//! The per-round occurrence index.
//!
//! For every variable, the blocks holding at least one of its operands
//! (uses or defs), in block-index order — the order every whole-function
//! walk visits blocks in. The spill loop builds one index per failed
//! round, before any rewrite, and drives every rewrite of that round
//! from it: spill-everywhere, rematerialization, the split's region
//! choice, hot-side renaming, must-written pre-check and cold side. Each
//! of them therefore visits only the victim's occurrence blocks instead
//! of every block of the function.
//!
//! The index stays exact for a victim through the whole round. A
//! rewrite of one victim only renames *that* victim's operands to fresh
//! variables and inserts instructions over fresh variables and slots; it
//! never adds or removes an operand of another variable (rematerializing
//! deletes the victim's own `make`, nothing else). Blocks are never
//! created or removed by spilling. Variables created during the round
//! (temporaries, hot sub-webs) have empty entries: they are never
//! victims of the round that created them.

use tossa_ir::ids::{Block, Var};
use tossa_ir::Function;

/// Occurrence blocks per variable, in compressed-row form.
#[derive(Clone, Debug, Default)]
pub struct OccIndex {
    /// `blocks[start[v]..start[v + 1]]` are the occurrence blocks of `v`.
    start: Vec<u32>,
    blocks: Vec<Block>,
}

impl OccIndex {
    /// Indexes the current body of `f`: one pass over its operands.
    pub fn build(f: &Function) -> OccIndex {
        let n = f.num_vars();
        // (var, block) pairs, each pair once, in block order.
        let mut pairs: Vec<(u32, Block)> = Vec::new();
        let mut last: Vec<u32> = vec![u32::MAX; n];
        let mut start = vec![0u32; n + 1];
        for b in f.blocks() {
            let bi = b.index() as u32;
            for i in f.block_insts(b) {
                for o in f.inst(i).operands() {
                    let v = o.var.index();
                    if last[v] != bi {
                        last[v] = bi;
                        start[v + 1] += 1;
                        pairs.push((v as u32, b));
                    }
                }
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        // Counting sort by variable; stable, so each row keeps block
        // order.
        let mut fill = start.clone();
        let mut blocks = vec![Block::new(0); pairs.len()];
        for (v, b) in pairs {
            let at = &mut fill[v as usize];
            blocks[*at as usize] = b;
            *at += 1;
        }
        OccIndex { start, blocks }
    }

    /// The blocks holding an occurrence of `v`, in block-index order
    /// (empty for variables created after the index was built).
    pub fn blocks(&self, v: Var) -> &[Block] {
        match (self.start.get(v.index()), self.start.get(v.index() + 1)) {
            (Some(&s), Some(&e)) => &self.blocks[s as usize..e as usize],
            _ => &[],
        }
    }

    /// The blocks holding an occurrence of any of `vars`, in block-index
    /// order, each once.
    pub fn union(&self, vars: impl IntoIterator<Item = Var>) -> Vec<Block> {
        let mut out: Vec<Block> = vars
            .into_iter()
            .flat_map(|v| self.blocks(v).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn rows_list_occurrence_blocks_in_block_order() {
        let f = parse_function(
            "func @o {
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
}",
            &Machine::dsp32(),
        )
        .unwrap();
        let occ = OccIndex::build(&f);
        let var = |n: &str| f.vars().find(|&v| f.var(v).name == n).unwrap();
        let names =
            |bs: &[Block]| -> Vec<String> { bs.iter().map(|&b| f.block(b).name.clone()).collect() };
        assert_eq!(
            names(occ.blocks(var("z"))),
            ["entry", "head", "body", "exit"]
        );
        assert_eq!(names(occ.blocks(var("n"))), ["entry", "head"]);
        assert_eq!(names(occ.blocks(var("c"))), ["head"]);
        assert_eq!(
            names(&occ.union([var("c"), var("n")])),
            ["entry", "head"],
            "union is sorted and deduplicated"
        );
        assert!(occ.blocks(Var::new(f.num_vars() + 3)).is_empty());
    }
}
