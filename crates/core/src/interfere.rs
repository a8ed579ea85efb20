//! The paper's interference model (§3.2–§3.3): `Variable_kills`,
//! `stronglyInterfere`, `Resource_killed`, `Resource_interfere`, plus the
//! optimistic/pessimistic variants of Algorithm 4 (Table 5's `opt` and
//! `pess` rows).

use crate::affinity::RVertex;
use crate::pinning::resource_members;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use tossa_analysis::{AnalysisCache, BitSet, DefMap, DomTree, LiveAtDefs, Liveness};
use tossa_ir::ids::{Resource, Var};
use tossa_ir::Function;

/// How Class 1 kills (overlapping live ranges under dominance) are
/// decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InterferenceMode {
    /// Exact: uses the live-after-def oracle (the paper's base
    /// implementation).
    #[default]
    Exact,
    /// Algorithm 4 `Variable_kills_optimistic`: block-level live-out
    /// only — cheaper, may miss kills (repairs fix the difference).
    Optimistic,
    /// Algorithm 4 `Variable_kills_pessimistic`: block-level live-in or
    /// same-block — may over-report, blocking profitable merges.
    Pessimistic,
}

/// Which interference rule fired. `Class1`–`Class4` are the paper's §4
/// classes; `SameInst` and `Phys` are the implementation's extra
/// structural rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterfereClass {
    /// Dominance with overlapping live ranges (`Variable_kills` Case 1).
    Class1,
    /// φ parallel-copy kill (`Variable_kills` Case 2).
    Class2,
    /// φ arguments disagree in a shared predecessor.
    Class3,
    /// φ definitions in the same block.
    Class4,
    /// Both variables defined by the same instruction.
    SameInst,
    /// Two distinct physical resources.
    Phys,
}

impl InterfereClass {
    /// The provenance-layer tag for this class.
    pub fn provenance(self) -> tossa_trace::provenance::Class {
        use tossa_trace::provenance::Class;
        match self {
            InterfereClass::Class1 => Class::Class1,
            InterfereClass::Class2 => Class::Class2,
            InterfereClass::Class3 => Class::Class3,
            InterfereClass::Class4 => Class::Class4,
            InterfereClass::SameInst => Class::SameInst,
            InterfereClass::Phys => Class::Phys,
        }
    }
}

/// Why two resources interfere: the class that fired plus the concrete
/// variable pair witnessing it. For kill classes (1 and 2) the witness
/// is `(killer, killed)`; for the structural classes it is the
/// offending definition pair. `Phys` carries no witness (the resources
/// themselves are the proof).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterfereReason {
    /// The rule that fired.
    pub class: InterfereClass,
    /// The variable pair proving it, when one exists.
    pub witness: Option<(Var, Var)>,
}

/// Read-only bundle of the analyses the interference procedures need.
pub struct InterferenceEnv<'a> {
    /// The SSA function under translation.
    pub f: &'a Function,
    /// Dominator tree.
    pub dt: &'a DomTree,
    /// Liveness with the paper's φ conventions.
    pub live: &'a Liveness,
    /// Unique definition sites.
    pub defs: &'a DefMap,
    /// Exact live-after-def oracle (used by [`InterferenceMode::Exact`]).
    pub lad: &'a LiveAtDefs,
    /// Which Class 1 rule to apply.
    pub mode: InterferenceMode,
}

impl<'a> InterferenceEnv<'a> {
    /// Whether `def(a)` dominates `def(b)` at instruction granularity.
    /// Two φ definitions of the same block execute in parallel and do not
    /// dominate one another.
    pub fn def_dominates(&self, a: Var, b: Var) -> bool {
        let (Some(sa), Some(sb)) = (self.defs.site(a), self.defs.site(b)) else {
            return false;
        };
        if sa.block == sb.block {
            if sa.is_phi && sb.is_phi {
                return false;
            }
            sa.pos < sb.pos
        } else {
            self.dt.strictly_dominates(sa.block, sb.block)
        }
    }

    /// The paper's `Variable_kills(a, b)` — true when **`a` kills `b`**:
    ///
    /// * Case 1: `def(b)` dominates `def(a)` and the two live ranges
    ///   overlap, so writing the shared resource at `def(a)` clobbers the
    ///   still-live `b`;
    /// * Case 2: `a = φ(a1:B1, …, an:Bn)` and `b` is live out of some
    ///   `Bi` with `b ≠ ai` — the parallel copy at the end of `Bi`
    ///   clobbers `b`. (`a` may equal `b`: the lost-copy self-kill.)
    pub fn variable_kills(&self, a: Var, b: Var) -> bool {
        self.variable_kills_class(a, b).is_some()
    }

    /// [`Self::variable_kills`], reporting *which* case fired
    /// ([`InterfereClass::Class1`] or [`InterfereClass::Class2`]) for
    /// the provenance layer.
    pub fn variable_kills_class(&self, a: Var, b: Var) -> Option<InterfereClass> {
        // Case 1.
        if a != b && self.def_dominates(b, a) {
            let killed = match self.mode {
                InterferenceMode::Exact => self.lad.after_def(a).is_some_and(|set| set.contains(b)),
                InterferenceMode::Optimistic => {
                    let na = self.defs.site(a).expect("def").block;
                    self.live.live_out(na).contains(b)
                }
                InterferenceMode::Pessimistic => {
                    let na = self.defs.site(a).expect("def").block;
                    let nb = self.defs.site(b).expect("def").block;
                    na == nb || self.live.live_in(na).contains(b)
                }
            };
            if killed {
                tossa_trace::count(tossa_trace::Counter::InterfereClass1, 1);
                return Some(InterfereClass::Class1);
            }
        }
        // Case 2.
        if let Some(site) = self.defs.site(a) {
            if site.is_phi {
                let inst = self.f.inst(site.inst);
                for (k, op) in inst.uses.iter().enumerate() {
                    let bi = inst.phi_preds[k];
                    if b != op.var && self.live.live_out(bi).contains(b) {
                        tossa_trace::count(tossa_trace::Counter::InterfereClass2, 1);
                        return Some(InterfereClass::Class2);
                    }
                }
            }
        }
        None
    }

    /// The paper's `stronglyInterfere(a, b)`: pinning the definitions of
    /// `a` and `b` to one resource would be *incorrect* (not merely
    /// repair-worthy):
    ///
    /// * Classes 3 & 4: both φ-defined in the same block, or their φ
    ///   arguments disagree in a common predecessor;
    /// * two variables defined by the same instruction (Fig. 4 Case 1).
    pub fn strongly_interfere(&self, a: Var, b: Var) -> bool {
        self.strongly_interfere_class(a, b).is_some()
    }

    /// [`Self::strongly_interfere`], reporting *which* rule fired
    /// ([`InterfereClass::Class3`], [`InterfereClass::Class4`], or
    /// [`InterfereClass::SameInst`]) for the provenance layer.
    pub fn strongly_interfere_class(&self, a: Var, b: Var) -> Option<InterfereClass> {
        if a == b {
            return None;
        }
        let (Some(sa), Some(sb)) = (self.defs.site(a), self.defs.site(b)) else {
            return None;
        };
        if sa.inst == sb.inst {
            tossa_trace::count(tossa_trace::Counter::InterfereSameInst, 1);
            return Some(InterfereClass::SameInst); // same instruction
        }
        if sa.is_phi && sb.is_phi {
            if sa.block == sb.block {
                tossa_trace::count(tossa_trace::Counter::InterfereClass4, 1);
                // Class 4 (and same-block φ parallelism).
                return Some(InterfereClass::Class4);
            }
            // Class 3: arguments disagree in a shared predecessor.
            let ia = self.f.inst(sa.inst);
            let ib = self.f.inst(sb.inst);
            for (k, &ba) in ia.phi_preds.iter().enumerate() {
                for (j, &bb) in ib.phi_preds.iter().enumerate() {
                    if ba == bb && ia.uses[k].var != ib.uses[j].var {
                        tossa_trace::count(tossa_trace::Counter::InterfereClass3, 1);
                        return Some(InterfereClass::Class3);
                    }
                }
            }
        }
        None
    }
}

/// Owning bundle of analysis handles from which an [`InterferenceEnv`]
/// borrows. Keeps the `Rc` handles from an [`AnalysisCache`] alive so
/// the env's plain references stay valid while the cache serves other
/// passes.
pub struct EnvHandles {
    pub(crate) dt: Rc<DomTree>,
    pub(crate) live: Rc<Liveness>,
    pub(crate) defs: Rc<DefMap>,
    pub(crate) lad: Rc<LiveAtDefs>,
}

impl EnvHandles {
    /// Pulls (and memoizes) everything the interference procedures need.
    pub fn from_cache(f: &Function, cache: &mut AnalysisCache) -> EnvHandles {
        EnvHandles {
            dt: cache.domtree(f),
            live: cache.liveness(f),
            defs: cache.defs(f),
            lad: cache.live_at_defs(f),
        }
    }

    /// Builds a borrowing [`InterferenceEnv`] over these handles.
    pub fn env<'a>(&'a self, f: &'a Function, mode: InterferenceMode) -> InterferenceEnv<'a> {
        InterferenceEnv {
            f,
            dt: &self.dt,
            live: &self.live,
            defs: &self.defs,
            lad: &self.lad,
            mode,
        }
    }
}

/// A resource viewed as the set of variables pinned to it
/// (§3.3: "we identify the notion of resource with the set of variables
/// pinned to it").
#[derive(Clone, Debug, Default)]
pub struct ResourceSet {
    /// Member variables (definition-pinned).
    pub members: Vec<Var>,
    /// Whether the set denotes a physical register.
    pub is_phys: bool,
}

impl ResourceSet {
    /// A borrowed view of the set.
    pub fn view(&self) -> ResourceRef<'_> {
        ResourceRef {
            members: &self.members,
            is_phys: self.is_phys,
        }
    }

    /// The paper's `Resource_killed`: members already killed by another
    /// member (including self-kills), recomputed from scratch in
    /// O(members²) `Variable_kills` calls. The coalescer maintains these
    /// sets incrementally ([`InterferenceState`]); this is the reference
    /// definition.
    pub fn killed_within(&self, env: &InterferenceEnv<'_>) -> Vec<Var> {
        self.members
            .iter()
            .copied()
            .filter(|&ai| self.members.iter().any(|&aj| env.variable_kills(aj, ai)))
            .collect()
    }
}

/// A borrowed resource: its member slice and whether it is physical.
#[derive(Clone, Copy, Debug)]
pub struct ResourceRef<'a> {
    /// Member variables (definition-pinned).
    pub members: &'a [Var],
    /// Whether the set denotes a physical register.
    pub is_phys: bool,
}

/// The paper's `Resource_interfere(A, B)`: merging the two variable sets
/// would create a *new* simple interference (a kill of a not-yet-killed
/// variable) or any strong interference. Two distinct physical resources
/// always interfere.
pub fn resource_interfere(env: &InterferenceEnv<'_>, a: &ResourceSet, b: &ResourceSet) -> bool {
    let mut killed = BitSet::new(env.f.num_vars());
    for x in a.killed_within(env).into_iter().chain(b.killed_within(env)) {
        killed.insert(x);
    }
    resource_interfere_reason(env, a.view(), b.view(), &killed).is_some()
}

/// [`resource_interfere`] over borrowed sets, reporting the first rule
/// that fired and its witness pair — the provenance the coalescer
/// attaches to every pruned affinity edge.
///
/// `killed` holds `Resource_killed` of both sides at once: bit `x` is
/// set when member `x` is already killed within its own set. The two
/// member sets are disjoint (a definition is pinned to one resource), so
/// one bit per variable suffices.
pub fn resource_interfere_reason(
    env: &InterferenceEnv<'_>,
    a: ResourceRef<'_>,
    b: ResourceRef<'_>,
    killed: &BitSet<Var>,
) -> Option<InterfereReason> {
    if a.is_phys && b.is_phys {
        // Distinct physical registers (callers never ask about A == A).
        return Some(InterfereReason {
            class: InterfereClass::Phys,
            witness: None,
        });
    }
    for &x in a.members {
        let x_killed = killed.contains(x);
        for &y in b.members {
            if !x_killed {
                if let Some(class) = env.variable_kills_class(y, x) {
                    return Some(InterfereReason {
                        class,
                        witness: Some((y, x)),
                    });
                }
            }
            if !killed.contains(y) {
                if let Some(class) = env.variable_kills_class(x, y) {
                    return Some(InterfereReason {
                        class,
                        witness: Some((x, y)),
                    });
                }
            }
            if let Some(class) = env.strongly_interfere_class(x, y) {
                return Some(InterfereReason {
                    class,
                    witness: Some((x, y)),
                });
            }
        }
    }
    None
}

/// Definition-pinned members of one resource, and whether their
/// `killed` bits in [`InterferenceState`] are known.
#[derive(Debug)]
struct ResourceEntry {
    members: Vec<Var>,
    killed_known: bool,
}

/// The coalescer's function-lifetime interference state: every
/// resource's definition-pinned members plus its `Resource_killed` set,
/// kept across confluence points (DESIGN.md §2.3).
///
/// A killed set is computed once, lazily, when a block's affinity graph
/// first touches the resource (or the unpinned variable), and from then
/// on is only updated when components merge, by union:
/// `killed(ref) = ∪ killed(absorbed)` — a bare vertex contributes
/// itself when it self-kills. This is exact because pinning never
/// changes liveness, dominance or definition sites, and a component
/// merges only when no pair of its vertices passes `Resource_interfere`,
/// so every kill between two merged vertices hits a member that its own
/// vertex had already killed.
///
/// A variable belongs to at most one resource (its definition pin), so
/// all killed sets share one bit per variable; an unpinned variable's
/// bit is its self-kill.
pub struct InterferenceState {
    resources: HashMap<Resource, ResourceEntry>,
    /// Bit `x`: `x` is killed within its resource (unpinned: self-kill).
    killed: BitSet<Var>,
    /// Unpinned variables whose self-kill bit is known.
    bare_known: BitSet<Var>,
}

impl InterferenceState {
    /// The membership of `f`'s current pinning; no killed set is
    /// computed yet.
    pub fn new(f: &Function) -> InterferenceState {
        let entry = |members| ResourceEntry {
            members,
            killed_known: false,
        };
        InterferenceState {
            resources: resource_members(f)
                .into_iter()
                .map(|(r, members)| (r, entry(members)))
                .collect(),
            killed: BitSet::new(f.num_vars()),
            bare_known: BitSet::new(f.num_vars()),
        }
    }

    /// The resources with definition-pinned members, in arbitrary order.
    pub fn resources(&self) -> impl Iterator<Item = Resource> + '_ {
        self.resources.keys().copied()
    }

    /// The definition-pinned members of `r`, in pinning order.
    pub fn members(&self, r: Resource) -> &[Var] {
        self.resources.get(&r).map_or(&[], |e| &e.members)
    }

    /// Total number of definition-pinned variables.
    pub fn num_pinned(&self) -> usize {
        self.resources.values().map(|e| e.members.len()).sum()
    }

    /// The maintained `Resource_killed(r)` in member order, or `None`
    /// while no block has touched `r` yet.
    pub fn killed(&self, r: Resource) -> Option<Vec<Var>> {
        let e = self.resources.get(&r)?;
        e.killed_known.then(|| {
            e.members
                .iter()
                .copied()
                .filter(|&x| self.killed.contains(x))
                .collect()
        })
    }

    /// Whether `x` is killed within its own resource (for an unpinned
    /// variable: whether it kills itself). Only meaningful once `x`'s
    /// vertex is [ensured](Self::ensure).
    pub fn is_killed(&self, x: Var) -> bool {
        self.killed.contains(x)
    }

    /// Makes the killed bits of vertex `v`'s members known.
    pub fn ensure(&mut self, env: &InterferenceEnv<'_>, v: RVertex) {
        match v {
            RVertex::Res(r) => self.ensure_res(env, r),
            RVertex::Bare(x) => self.ensure_bare(env, x),
        }
    }

    /// `Resource_interfere` between two vertices, with its reason: makes
    /// both killed sets known, then scans the borrowed member slices.
    pub fn interfere_reason(
        &mut self,
        env: &InterferenceEnv<'_>,
        a: RVertex,
        b: RVertex,
    ) -> Option<InterfereReason> {
        self.ensure(env, a);
        self.ensure(env, b);
        resource_interfere_reason(
            env,
            self.view(env.f, &a),
            self.view(env.f, &b),
            &self.killed,
        )
    }

    /// Merges a component onto `reference` (`reference` itself may be
    /// one of its vertices): the absorbed resources' members and the bare
    /// variables are appended to the reference's member list, in
    /// component order, and keep their killed bits — the union rule.
    /// Returns the index range of the appended members.
    pub(crate) fn merge(&mut self, reference: Resource, comp: &[RVertex]) -> Range<usize> {
        // The reference's entry is moved, not cloned; a resource without
        // def-pinned members has a trivially known (empty) killed set.
        let mut merged = self.resources.remove(&reference).unwrap_or(ResourceEntry {
            members: Vec::new(),
            killed_known: true,
        });
        let start = merged.members.len();
        for &v in comp {
            match v {
                RVertex::Res(r) if r != reference => {
                    if let Some(entry) = self.resources.remove(&r) {
                        merged.killed_known &= entry.killed_known;
                        merged.members.extend(entry.members);
                    }
                }
                RVertex::Bare(x) => {
                    merged.killed_known &= self.bare_known.contains(x);
                    merged.members.push(x);
                }
                RVertex::Res(_) => {}
            }
        }
        debug_assert!(
            merged.killed_known,
            "every vertex of a merged component was queried while pruning"
        );
        let added = start..merged.members.len();
        self.resources.insert(reference, merged);
        added
    }

    /// The variable set denoted by a vertex, borrowed.
    fn view<'s>(&'s self, f: &Function, v: &'s RVertex) -> ResourceRef<'s> {
        match v {
            RVertex::Res(r) => ResourceRef {
                members: self.members(*r),
                is_phys: f.resources.as_phys(*r).is_some(),
            },
            RVertex::Bare(x) => ResourceRef {
                members: std::slice::from_ref(x),
                is_phys: false,
            },
        }
    }

    /// Computes `Resource_killed(r)` from scratch unless it is known.
    fn ensure_res(&mut self, env: &InterferenceEnv<'_>, r: Resource) {
        let Some(e) = self.resources.get_mut(&r) else {
            return;
        };
        if e.killed_known {
            return;
        }
        for &ai in &e.members {
            if e.members.iter().any(|&aj| env.variable_kills(aj, ai)) {
                self.killed.insert(ai);
            } else {
                self.killed.remove(ai);
            }
        }
        e.killed_known = true;
    }

    /// Computes the self-kill of unpinned `x` unless it is known.
    fn ensure_bare(&mut self, env: &InterferenceEnv<'_>, x: Var) {
        if self.bare_known.insert(x) && env.variable_kills(x, x) {
            self.killed.insert(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    struct Setup {
        f: Function,
        handles: EnvHandles,
    }

    fn setup(text: &str) -> Setup {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let handles = EnvHandles::from_cache(&f, &mut AnalysisCache::new());
        Setup { f, handles }
    }

    impl Setup {
        fn env(&self, mode: InterferenceMode) -> InterferenceEnv<'_> {
            InterferenceEnv {
                f: &self.f,
                dt: &self.handles.dt,
                live: &self.handles.live,
                defs: &self.handles.defs,
                lad: &self.handles.lad,
                mode,
            }
        }
        fn var(&self, name: &str) -> Var {
            self.f
                .vars()
                .find(|&v| self.f.var(v).name == name)
                .unwrap_or_else(|| panic!("no var {name}"))
        }
    }

    #[test]
    fn class1_kill_detected() {
        // y defined while x live (x used after): pinning x,y together
        // would clobber x at y's def => y kills x.
        let s = setup(
            "func @c1 {
entry:
  %x = make 1
  %y = make 2
  %s = add %x, %y
  ret %s
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let (x, y) = (s.var("x"), s.var("y"));
        assert!(env.variable_kills(y, x), "y kills x");
        assert!(
            !env.variable_kills(x, y),
            "x defined before y: x cannot kill y"
        );
    }

    #[test]
    fn class1_no_kill_when_dead() {
        let s = setup(
            "func @c1b {
entry:
  %x = make 1
  %u = addi %x, 1
  %y = make 2
  %s = add %y, %u
  ret %s
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let (x, y) = (s.var("x"), s.var("y"));
        // x dead before y's def: no kill either way.
        assert!(!env.variable_kills(y, x));
        assert!(!env.variable_kills(x, y));
    }

    #[test]
    fn class2_phi_parallel_copy_kill() {
        // Paper Fig. 6 middle: y = φ(., z), x live out of z's block,
        // x != z => y kills x.
        let s = setup(
            "func @c2 {
entry:
  %x = make 1
  %z = make 2
  jump m
m:
  %y = phi [entry: %z]
  %s = add %y, %x
  ret %s
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let (x, y, z) = (s.var("x"), s.var("y"), s.var("z"));
        assert!(
            env.variable_kills(y, x),
            "parallel copy at end of entry kills x"
        );
        assert!(!env.variable_kills(y, z), "z is the argument itself");
    }

    #[test]
    fn lost_copy_self_kill() {
        // x = φ(...) with x live out of a predecessor on an unsplit
        // critical edge: x kills itself.
        let s = setup(
            "func @lost {
entry:
  %a = make 0
  jump head
head:
  %x = phi [entry: %a], [head: %x2]
  %x2 = addi %x, 1
  %c = cmplt %x2, %x
  br %c, head, exit
exit:
  ret %x
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let x = s.var("x");
        assert!(env.variable_kills(x, x), "lost-copy self-kill");
    }

    #[test]
    fn class3_phi_args_disagree() {
        let s = setup(
            "func @c3 {
entry:
  %a = make 1
  %b = make 2
  jump m
m:
  %x = phi [entry: %a]
  %y = phi [entry: %b]
  %s = add %x, %y
  ret %s
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let (x, y) = (s.var("x"), s.var("y"));
        // Same block: Classes 3&4 say all φ defs of a block strongly
        // interfere (here also args disagree).
        assert!(env.strongly_interfere(x, y));
        assert!(env.strongly_interfere(y, x));
    }

    #[test]
    fn same_instruction_defs_strongly_interfere() {
        let s = setup(
            "func @si {
entry:
  %a, %b = input
  ret %a
}",
        );
        let env = s.env(InterferenceMode::Exact);
        assert!(env.strongly_interfere(s.var("a"), s.var("b")));
    }

    #[test]
    fn resource_interfere_phys_pair() {
        let s = setup("func @p {\nentry:\n  ret\n}");
        let env = s.env(InterferenceMode::Exact);
        let a = ResourceSet {
            members: vec![],
            is_phys: true,
        };
        let b = ResourceSet {
            members: vec![],
            is_phys: true,
        };
        assert!(resource_interfere(&env, &a, &b));
    }

    #[test]
    fn resource_interfere_respects_already_killed() {
        // x killed within A already; adding another killer of x to the
        // resource is NOT a new interference.
        let s = setup(
            "func @rk {
entry:
  %x = make 1
  %y = make 2
  %s = add %x, %y
  %z = make 3
  %t = add %s, %z
  %u = add %t, %x
  ret %u
}",
        );
        let env = s.env(InterferenceMode::Exact);
        let (x, y, z) = (s.var("x"), s.var("y"), s.var("z"));
        // y kills x; z kills x (x live to the end).
        assert!(env.variable_kills(y, x));
        assert!(env.variable_kills(z, x));
        let a = ResourceSet {
            members: vec![x, y],
            is_phys: false,
        };
        let b = ResourceSet {
            members: vec![z],
            is_phys: false,
        };
        // x is already killed within {x, y}; z also kills x but that is
        // not NEW (and y is live across z's def? y's last use is at s,
        // before z's def, so no y/z kill either).
        let killed_a = a.killed_within(&env);
        assert!(killed_a.contains(&x));
        assert!(!killed_a.contains(&y));
        assert!(!resource_interfere(&env, &a, &b));
    }

    #[test]
    fn optimistic_misses_in_block_kill() {
        // b's range ends within the block: exact sees the kill of b by a,
        // optimistic (live-out only) does not.
        let s = setup(
            "func @opt {
entry:
  %b = make 1
  %a = make 2
  %s = add %a, %b
  ret %s
}",
        );
        let exact = s.env(InterferenceMode::Exact);
        let opt = s.env(InterferenceMode::Optimistic);
        let (a, b) = (s.var("a"), s.var("b"));
        assert!(exact.variable_kills(a, b));
        assert!(
            !opt.variable_kills(a, b),
            "b not live-out: optimistic misses it"
        );
    }

    #[test]
    fn pessimistic_over_reports_same_block() {
        // b dead before a's def, same block: pessimistic still reports.
        let s = setup(
            "func @pess {
entry:
  %b = make 1
  %u = addi %b, 1
  %a = make 2
  %s = add %a, %u
  ret %s
}",
        );
        let exact = s.env(InterferenceMode::Exact);
        let pess = s.env(InterferenceMode::Pessimistic);
        let (a, b) = (s.var("a"), s.var("b"));
        assert!(!exact.variable_kills(a, b));
        assert!(
            pess.variable_kills(a, b),
            "same-block rule over-approximates"
        );
    }
}
