//! Static dataflow analyses over a kernel's flat [`DecodedProgram`]
//! (`crate::decoded`), run once per kernel when the compiled tier is built
//! — at *promotion*, never at decode, so a kernel that launches once or
//! twice pays for none of it.
//!
//! * **Forward** ([`AbsVal`]): per register row, is lane `l`'s value
//!   `base + l·stride`, and is it a compile-time constant? Recorded per
//!   pc as the address-row shape of every global-memory instruction
//!   ([`Facts::forms`], a hint the executor re-verifies) and the operand
//!   constants the codec-run fusion builds on ([`Facts::consts`], trusted
//!   unverified, hence sound by construction).
//! * **Backward** ([`Facts::live_at`]): per-*thread* register-row
//!   liveness over the control-flow graph of the flat program. Registers
//!   are thread-private, and whatever the masks and the divergence stack
//!   do, each thread executes the instructions of one path through that
//!   graph; a row no path reads before writing it is dead for every
//!   thread, so the fused codec steps never materialise it and the
//!   per-warp reset never zeroes it. The one cross-lane read,
//!   `shfl.idx`'s source row, may observe a lane parked at any other pc:
//!   those rows are pinned live everywhere.
//! * One [`defs_uses`] table over [`Inst`] serves both directions.
//!
//! Both work in register numbers; the lowering in `crate::compiled`
//! turns them into SoA row offsets when it builds its steps.
//!
//! [`DecodedProgram`]: crate::decoded::DecodedProgram

use crate::decoded::{loop_markers, Op};
use crate::ptx::{AddrForm, Inst, Reg, Special};

/// `n` consecutive registers starting at `reg`; `n == 0` is an unused
/// slot.
type Rows = (Reg, u8);
const NO: Rows = (0, 0);

/// The registers `inst` writes and the registers it reads. Predicates and
/// the carry row live outside the register file and are never pruned.
fn defs_uses(inst: &Inst) -> ([Rows; 2], [Rows; 4]) {
    match *inst {
        Inst::MovImm { d, .. }
        | Inst::MovSpecial { d, .. }
        | Inst::LdParam { d, .. }
        | Inst::Ballot { d, .. } => ([(d, 1), NO], [NO; 4]),
        Inst::Mov { d, a } | Inst::Bfind { d, a } => ([(d, 1), NO], [(a, 1), NO, NO, NO]),
        Inst::Add { d, a, b }
        | Inst::AddCC { d, a, b }
        | Inst::AddC { d, a, b }
        | Inst::Sub { d, a, b }
        | Inst::SubCC { d, a, b }
        | Inst::SubC { d, a, b }
        | Inst::MulLo { d, a, b }
        | Inst::MulHi { d, a, b }
        | Inst::Div { d, a, b }
        | Inst::Rem { d, a, b }
        | Inst::Shl { d, a, b }
        | Inst::Shr { d, a, b }
        | Inst::And { d, a, b }
        | Inst::Or { d, a, b }
        | Inst::Xor { d, a, b }
        | Inst::Selp { d, a, b, .. }
        | Inst::ShflIdx { d, a, lane: b } => ([(d, 1), NO], [(a, 1), (b, 1), NO, NO]),
        Inst::MadLoCC { d, a, b, c } | Inst::MadHiC { d, a, b, c } => {
            ([(d, 1), NO], [(a, 1), (b, 1), (c, 1), NO])
        }
        Inst::Div64 { dlo, dhi, alo, ahi, blo, bhi } | Inst::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => {
            ([(dlo, 1), (dhi, 1)], [(alo, 1), (ahi, 1), (blo, 1), (bhi, 1)])
        }
        Inst::DivBig { d, dn, a, an, b, bn } | Inst::RemBig { d, dn, a, an, b, bn } => {
            ([(d, dn), NO], [(a, an), (b, bn), NO, NO])
        }
        Inst::SetP { a, b, .. } => ([NO; 2], [(a, 1), (b, 1), NO, NO]),
        Inst::SetPImm { a, .. } => ([NO; 2], [(a, 1), NO, NO, NO]),
        Inst::LdGlobal { d, addr, .. } | Inst::LdGlobalU8 { d, addr, .. } | Inst::LdShared { d, addr } => {
            ([(d, 1), NO], [(addr, 1), NO, NO, NO])
        }
        Inst::StGlobal { addr, src, .. }
        | Inst::StGlobalU8 { addr, src, .. }
        | Inst::StShared { addr, src } => ([NO; 2], [(addr, 1), (src, 1), NO, NO]),
        Inst::PAnd { .. } | Inst::PNot { .. } | Inst::BarSync => ([NO; 2], [NO; 4]),
    }
}

/// Calls `f` with every register in `rows`.
#[inline(always)]
fn each_row(rows: &[Rows], mut f: impl FnMut(usize)) {
    for &(reg, n) in rows {
        for r in reg as usize..reg as usize + n as usize {
            f(r);
        }
    }
}

// ---------------------------------------------------------------------------
// Forward: lane shape and constants.
// ---------------------------------------------------------------------------

/// Abstract lane shape of one register row: what value lane `l` of the
/// row holds, as a function of the lane index.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Never assigned on any path seen so far; reads observe the zeroed
    /// register file, i.e. the constant 0.
    Bottom,
    /// Lane `l` holds `base + l·stride` for some warp-uniform `base`
    /// (`stride == 0` means warp-uniform). `konst` is additionally the
    /// compile-time value when the row is a known immediate, so
    /// multiplies and shifts can scale strides.
    Affine { stride: u32, konst: Option<u32> },
    /// Anything: data-dependent, memory-loaded, or merged incompatibly.
    Top,
}

impl AbsVal {
    /// Reading a `Bottom` row observes the zero-initialized register
    /// file.
    fn read(self) -> AbsVal {
        match self {
            AbsVal::Bottom => AbsVal::Affine { stride: 0, konst: Some(0) },
            v => v,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            // Lanes that skipped the assignment still hold the zeroed
            // file's 0: the stride stays a (run-time verified) hint, but
            // `konst` is relied on unverified by the codec-run fusion.
            (AbsVal::Bottom, v) | (v, AbsVal::Bottom) => match v {
                AbsVal::Affine { stride, konst } => {
                    AbsVal::Affine { stride, konst: konst.filter(|&k| k == 0) }
                }
                v => v,
            },
            (AbsVal::Affine { stride: s1, konst: k1 }, AbsVal::Affine { stride: s2, konst: k2 })
                if s1 == s2 =>
            {
                AbsVal::Affine { stride: s1, konst: if k1 == k2 { k1 } else { None } }
            }
            _ => AbsVal::Top,
        }
    }

    fn uniform() -> AbsVal {
        AbsVal::Affine { stride: 0, konst: None }
    }

    fn is_uniform(self) -> bool {
        matches!(self, AbsVal::Affine { stride: 0, .. })
    }
}

/// `a ± b` lane-wise (wrapping, like the simulated ALU): `op` combines
/// the strides and the constants alike.
fn abs_linear(a: AbsVal, b: AbsVal, op: fn(u32, u32) -> u32) -> AbsVal {
    match (a, b) {
        (AbsVal::Affine { stride: s1, konst: k1 }, AbsVal::Affine { stride: s2, konst: k2 }) => {
            AbsVal::Affine { stride: op(s1, s2), konst: k1.zip(k2).map(|(x, y)| op(x, y)) }
        }
        _ => AbsVal::Top,
    }
}

/// `a * b` lane-wise: a known-constant factor scales the other side's
/// stride (the codec kernels' `addr = i·limb_bytes` shape); the product
/// of two warp-uniform rows stays warp-uniform.
fn abs_mul(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Affine { stride: sa, konst: ka }, AbsVal::Affine { stride: sb, konst: kb }) => {
            if let Some(k) = kb {
                AbsVal::Affine { stride: sa.wrapping_mul(k), konst: ka.map(|x| x.wrapping_mul(k)) }
            } else if let Some(k) = ka {
                AbsVal::Affine { stride: sb.wrapping_mul(k), konst: None }
            } else if sa == 0 && sb == 0 {
                AbsVal::uniform()
            } else {
                AbsVal::Top
            }
        }
        _ => AbsVal::Top,
    }
}

/// `a << b` lane-wise for a known shift amount; uniform-by-uniform stays
/// uniform.
fn abs_shl(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Affine { stride: sa, konst: ka }, AbsVal::Affine { stride: 0, konst: Some(k) }) => {
            AbsVal::Affine { stride: sa << (k & 31), konst: ka.map(|x| x << (k & 31)) }
        }
        (va, vb) if va.is_uniform() && vb.is_uniform() => AbsVal::uniform(),
        _ => AbsVal::Top,
    }
}

/// State of the forward analysis: one [`AbsVal`] per register row.
#[derive(Clone)]
struct AbsState {
    rows: Vec<AbsVal>,
}

impl AbsState {
    fn get(&self, r: Reg) -> AbsVal {
        self.rows[r as usize].read()
    }

    /// Joins `other` into `self` row-wise; true if anything widened.
    fn join_from(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (s, o) in self.rows.iter_mut().zip(other.rows.iter()) {
            let j = s.join(*o);
            changed |= *s != j;
            *s = j;
        }
        changed
    }
}

/// Transfer function for one instruction.
fn abs_transfer(inst: &Inst, st: &mut AbsState) {
    let opaque = |uniform: bool| if uniform { AbsVal::uniform() } else { AbsVal::Top };
    let (d, v) = match *inst {
        Inst::MovImm { d, imm } => (d, AbsVal::Affine { stride: 0, konst: Some(imm) }),
        Inst::Mov { d, a } => (d, st.get(a)),
        // tid.x is the canonical lane-affine row: lane l holds
        // `tid_base + l`. Block/grid geometry is warp-uniform.
        Inst::MovSpecial { d, s: Special::TidX } => (d, AbsVal::Affine { stride: 1, konst: None }),
        // Parameters are launch constants, identical across lanes; a
        // ballot broadcasts one value to every lane.
        Inst::MovSpecial { d, .. } | Inst::LdParam { d, .. } | Inst::Ballot { d, .. } => {
            (d, AbsVal::uniform())
        }
        Inst::Add { d, a, b } => (d, abs_linear(st.get(a), st.get(b), u32::wrapping_add)),
        Inst::Sub { d, a, b } => (d, abs_linear(st.get(a), st.get(b), u32::wrapping_sub)),
        Inst::MulLo { d, a, b } => (d, abs_mul(st.get(a), st.get(b))),
        Inst::Shl { d, a, b } => (d, abs_shl(st.get(a), st.get(b))),
        // Any other pure lane-wise ALU op: uniform inputs give a uniform
        // result, everything else is unknown.
        Inst::MulHi { d, a, b }
        | Inst::Div { d, a, b }
        | Inst::Rem { d, a, b }
        | Inst::Shr { d, a, b }
        | Inst::And { d, a, b }
        | Inst::Or { d, a, b }
        | Inst::Xor { d, a, b } => (d, opaque(st.get(a).is_uniform() && st.get(b).is_uniform())),
        Inst::Bfind { d, a } => (d, opaque(st.get(a).is_uniform())),
        // Everything else — carry results (per-lane flags), selects and
        // shuffles (per-lane predicates/indices), loads, wide and big
        // divides — is unknown in every row it writes.
        _ => return each_row(&defs_uses(inst).0, |r| st.rows[r] = AbsVal::Top),
    };
    st.rows[d as usize] = v;
}

/// The two source registers whose constants [`Facts::consts`] records.
fn const_operands(inst: &Inst) -> Option<(Reg, Reg)> {
    match *inst {
        Inst::Mov { a, .. } => Some((a, a)),
        Inst::StGlobalU8 { src, .. } => Some((src, src)),
        Inst::Add { a, b, .. }
        | Inst::Shl { a, b, .. }
        | Inst::Shr { a, b, .. }
        | Inst::And { a, b, .. }
        | Inst::Or { a, b, .. } => Some((a, b)),
        _ => None,
    }
}

/// What the analyses record for the compiled tier's lowering.
pub(crate) struct Facts {
    /// Address-row shape of each global-memory pc (joined over visits).
    /// A *hint*: the executor re-verifies every stride against the live
    /// registers, so imprecision costs only the bulk fast path.
    pub(crate) forms: Vec<Option<AddrForm>>,
    /// Compile-time values of the two source registers of each `mov`/`add`/
    /// `shl`/`shr`/`and`/`or`/`st.global.u8` pc, where every visit of the
    /// pc saw the same constant. Unlike `forms` these are **not**
    /// re-verified at run time, so they rest on the analysis being sound
    /// for `konst`: joins keep a constant only when both sides agree
    /// (an unassigned row agreeing only with 0), and loops iterate to a
    /// true fixpoint of the head state.
    pub(crate) consts: Vec<Option<[Option<u32>; 2]>>,
    live: Liveness,
}

impl Facts {
    /// The registers some thread may read at or after `pc` before writing
    /// them (`pc == ops.len()` is the program's end).
    pub(crate) fn live_at(&self, ops: &[Op], pc: usize) -> RowSet {
        self.live.at(ops, pc)
    }

    /// The registers live on entry to the program — the ones a thread may
    /// read before writing, i.e. the only ones whose zero-initialisation
    /// is observable — plus the pinned ones.
    pub(crate) fn entry_live_regs(&self, ops: &[Op], num_regs: usize) -> Vec<Reg> {
        let live = self.live_at(ops, 0);
        (0..num_regs as Reg).filter(|&r| live.has(r)).collect()
    }
}

/// A set of registers.
pub(crate) struct RowSet(Vec<u64>);

impl RowSet {
    /// Whether register `r` is in the set.
    pub(crate) fn has(&self, r: Reg) -> bool {
        let r = r as usize;
        self.0[r / 64] >> (r % 64) & 1 == 1
    }
}

/// Flow-sensitive forward analysis over the structured flat program:
/// branch arms analyze from a snapshot and join at the reconvergence
/// point; loops iterate condition+body to a fixpoint of the loop-head
/// state (the lattice has height 4 per row, so this converges in a few
/// rounds — a safety cap widens leftovers to `Top`) and leave with the
/// state after the condition block. Each visit of a pc joins what it sees
/// into `facts`, so a pc reached with incompatible shapes degrades to
/// `Unknown` / no constant.
fn abs_exec_range(ops: &[Op], facts: &mut Facts, st: &mut AbsState, start: usize, end: usize) {
    let mut pc = start;
    while pc < end {
        match &ops[pc] {
            Op::I { inst, .. } => {
                if let Some(mr) = inst.mem_ref() {
                    let form = match st.get(mr.addr) {
                        AbsVal::Affine { stride, .. } => AddrForm::LaneAffine { stride },
                        _ => AddrForm::Unknown,
                    };
                    facts.forms[pc] = Some(match facts.forms[pc] {
                        Some(prev) if prev != form => AddrForm::Unknown,
                        _ => form,
                    });
                }
                if let Some((a, b)) = const_operands(inst) {
                    let konst = |r| match st.get(r) {
                        AbsVal::Affine { konst, .. } => konst,
                        _ => None,
                    };
                    let now = [konst(a), konst(b)];
                    facts.consts[pc] = Some(match facts.consts[pc] {
                        None => now,
                        Some(prev) => [0, 1].map(|i| prev[i].filter(|k| Some(*k) == now[i])),
                    });
                }
                abs_transfer(inst, st);
                pc += 1;
            }
            Op::If { else_pc, .. } => {
                let else_pc = *else_pc as usize;
                let Op::Else { end_pc } = ops[else_pc] else {
                    unreachable!("If.else_pc targets Else")
                };
                let endif_pc = end_pc as usize;
                let mut then_st = st.clone();
                abs_exec_range(ops, facts, &mut then_st, pc + 1, else_pc);
                abs_exec_range(ops, facts, st, else_pc + 1, endif_pc);
                st.join_from(&then_st);
                pc = endif_pc + 1;
            }
            Op::WhileBegin => {
                let (test_pc, end_pc) = loop_markers(ops, pc);
                // `st` is the loop-head state: the entry state joined with
                // every body-end state. Each round runs the condition
                // block (executed on every trip, the exiting one
                // included) and the body from it; lanes leave the loop
                // after a condition block, so that state continues.
                for round in 0.. {
                    if round == 8 {
                        // Shouldn't happen (finite lattice), but cap
                        // defensively: widen everything assigned so far.
                        for r in st.rows.iter_mut().filter(|r| **r != AbsVal::Bottom) {
                            *r = AbsVal::Top;
                        }
                    }
                    let mut cond_st = st.clone();
                    abs_exec_range(ops, facts, &mut cond_st, pc + 1, test_pc);
                    let mut body_st = cond_st.clone();
                    abs_exec_range(ops, facts, &mut body_st, test_pc + 1, end_pc);
                    if !st.join_from(&body_st) {
                        *st = cond_st;
                        break;
                    }
                }
                pc = end_pc + 1;
            }
            // Handled by the enclosing If/While dispatch.
            Op::Else { .. } | Op::EndIf | Op::WhileTest { .. } | Op::WhileEnd { .. } => pc += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Backward: per-thread row liveness.
// ---------------------------------------------------------------------------

/// Longest stretch of instructions the liveness solver treats as one
/// node — and so the most it replays to answer [`Liveness::at`].
const CHUNK: usize = 32;

/// `set = uses ∪ (set − defs)`: one instruction's liveness transfer
/// (pinned rows are never removed). Returns the instruction's defs.
#[inline(always)]
fn step_back(inst: &Inst, set: &mut [u64], pinned: &[u64]) -> [Rows; 2] {
    let (defs, uses) = defs_uses(inst);
    each_row(&defs, |r| set[r / 64] &= !(1u64 << (r % 64)) | pinned[r / 64]);
    each_row(&uses, |r| set[r / 64] |= 1u64 << (r % 64));
    defs
}

/// Solved row liveness. The flat program is cut into nodes — each
/// control op, and each stretch of at most `CHUNK` instructions between
/// them — and a live-in bitset is kept per node, from which the set at
/// any pc is a replay of fewer than `CHUNK` instructions.
struct Liveness {
    /// First pc of every node, ascending; the last entry is `ops.len()`.
    nodes: Vec<u32>,
    /// `live[i · words..]`: the live-in set of node `i`, `words` being
    /// `pinned.len()`.
    live: Vec<u64>,
    /// `shfl.idx` source rows: in every set.
    pinned: Vec<u64>,
}

impl Liveness {
    fn at(&self, ops: &[Op], pc: usize) -> RowSet {
        let i = self.nodes.partition_point(|&start| (start as usize) < pc);
        let mut set = self.live[i * self.pinned.len()..][..self.pinned.len()].to_vec();
        for op in ops[pc..self.nodes[i] as usize].iter().rev() {
            let Op::I { inst, .. } = op else { unreachable!("control ops are nodes") };
            step_back(inst, &mut set, &self.pinned);
        }
        RowSet(set)
    }
}

/// The backward solver. The graph a thread walks through the flat
/// program: an instruction falls through; `If` goes to either arm's first
/// op, the `Else` marker (the then-arm's end) to `EndIf`; `WhileTest`
/// enters the body or leaves past `WhileEnd`, which goes back to the
/// condition block. An instruction node is summarised once as
/// `gen ∪ (x − kill)`, so each instruction is visited once however often
/// the walk below passes over it.
struct LiveSolver<'a> {
    ops: &'a [Op],
    out: Liveness,
    /// `gen` then `kill` of every node (`2 · words` u64s each; unused for
    /// control ops).
    sums: Vec<u64>,
}

impl LiveSolver<'_> {
    /// Solves nodes `lo..hi` given the sets from `hi` up. Every edge but
    /// `WhileEnd → cond_pc` points forward, so one backward walk solves
    /// everything outside loops. A loop is walked twice: the transfer of
    /// any path is `gen ∪ (x − kill)`, so a first walk with an empty back
    /// edge already yields the loop head's fixpoint (`h(h(∅)) = h(∅)`),
    /// and a second walk with that set on the back edge brings the
    /// loop's interior up to it.
    fn solve(&mut self, lo: usize, hi: usize) {
        let w = self.out.pinned.len();
        let node_at = |nodes: &[u32], pc: u32| nodes.binary_search(&pc).expect("jump targets are nodes");
        let mut i = hi;
        while i > lo {
            i -= 1;
            // Successor nodes: `live[i] = live[to] ∪ live[and]`.
            let (to, and) = match &self.ops[self.out.nodes[i] as usize] {
                Op::I { .. } => {
                    let (gen, kill) = self.sums[2 * i * w..][..2 * w].split_at(w);
                    let (set, after) = self.out.live[i * w..][..2 * w].split_at_mut(w);
                    for k in 0..w {
                        set[k] = gen[k] | after[k] & !kill[k];
                    }
                    continue;
                }
                Op::If { else_pc, .. } => (i + 1, Some(node_at(&self.out.nodes, else_pc + 1))),
                Op::Else { end_pc } => (node_at(&self.out.nodes, *end_pc), None),
                Op::WhileTest { end_pc, .. } => (i + 1, Some(node_at(&self.out.nodes, *end_pc))),
                Op::EndIf | Op::WhileBegin => (i + 1, None),
                Op::WhileEnd { cond_pc, .. } => {
                    let head = node_at(&self.out.nodes, *cond_pc);
                    self.out.live[i * w..][..w].copy_from_slice(&self.out.pinned);
                    self.solve(head, i);
                    #[cfg(test)]
                    if seeded_bug::is(seeded_bug::Bug::LivenessDropsBackEdge) {
                        i = head;
                        continue;
                    }
                    self.out.live.copy_within(head * w..(head + 1) * w, i * w);
                    self.solve(head, i);
                    i = head;
                    continue;
                }
            };
            self.out.live.copy_within(to * w..(to + 1) * w, i * w);
            if let Some(and) = and {
                let (set, ahead) = self.out.live[i * w..].split_at_mut(w);
                for (s, o) in set.iter_mut().zip(&ahead[(and - i - 1) * w..]) {
                    *s |= *o;
                }
            }
        }
    }
}

/// Solves per-thread row liveness for a flat program over `num_regs`
/// registers.
fn liveness(ops: &[Op], num_regs: usize) -> Liveness {
    let w = num_regs.div_ceil(64).max(1);
    let inst = |pc: usize| matches!(ops[pc], Op::I { .. });
    let mut nodes: Vec<u32> = (0..ops.len())
        .filter(|&pc| pc % CHUNK == 0 || !inst(pc) || !inst(pc - 1))
        .map(|pc| pc as u32)
        .collect();
    nodes.push(ops.len() as u32);
    let mut pinned = vec![0u64; w];
    for op in ops {
        if let Op::I { inst: Inst::ShflIdx { a, .. }, .. } = op {
            pinned[*a as usize / 64] |= 1u64 << (*a as usize % 64);
        }
    }
    let mut sums = vec![0u64; nodes.len() * 2 * w];
    for (node, sum) in nodes.windows(2).zip(sums.chunks_exact_mut(2 * w)) {
        let (gen, kill) = sum.split_at_mut(w);
        for op in ops[node[0] as usize..node[1] as usize].iter().rev() {
            let Op::I { inst, .. } = op else { break };
            let defs = step_back(inst, gen, &pinned);
            each_row(&defs, |r| kill[r / 64] |= 1u64 << (r % 64) & !pinned[r / 64]);
        }
    }
    let mut live = vec![0u64; nodes.len() * w];
    live[(nodes.len() - 1) * w..].copy_from_slice(&pinned);
    let last = nodes.len() - 1;
    let mut solver = LiveSolver { ops, out: Liveness { nodes, live, pinned }, sums };
    solver.solve(0, last);
    solver.out
}

/// Runs the analyses over a kernel's flat decoded program.
pub(crate) fn analyze(ops: &[Op], num_regs: usize) -> Facts {
    let mut facts = Facts {
        forms: vec![None; ops.len()],
        consts: vec![None; ops.len()],
        live: liveness(ops, num_regs),
    };
    let mut st = AbsState { rows: vec![AbsVal::Bottom; num_regs] };
    abs_exec_range(ops, &mut facts, &mut st, 0, ops.len());
    facts
}

/// Seeded bugs the differential suites must catch: a test switches one on
/// for its own thread (promotion-time analysis and lowering run on the
/// launching thread), builds a fresh kernel and expects a mismatch.
#[cfg(test)]
pub(crate) mod seeded_bug {
    use std::cell::Cell;

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Bug {
        /// Liveness without the `WhileEnd → cond_pc` edge: a row read by
        /// the next trip is pruned as dead.
        LivenessDropsBackEdge,
        /// Word planes whose window is not pulled back inside the run's
        /// span: the last lane reads past the verified bytes.
        WordWindowIgnoresSpan,
    }

    thread_local! {
        static ACTIVE: Cell<Option<Bug>> = const { Cell::new(None) };
    }

    pub(crate) fn is(bug: Bug) -> bool {
        ACTIVE.get() == Some(bug)
    }

    /// Runs `f` with `bug` switched on for this thread.
    pub(crate) fn with<R>(bug: Bug, f: impl FnOnce() -> R) -> R {
        ACTIVE.set(Some(bug));
        let r = f();
        ACTIVE.set(None);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptx::{CmpOp, Inst as I, Kernel, KernelBuilder};

    fn facts_of(kernel: &Kernel) -> Facts {
        analyze(kernel.decoded_program().ops(), kernel.num_regs as usize)
    }

    /// The pc of the `k`-th op matching `pred`.
    fn pc_of(kernel: &Kernel, k: usize, pred: impl Fn(&Op) -> bool) -> usize {
        let ops = kernel.decoded_program().ops();
        (0..ops.len()).filter(|&pc| pred(&ops[pc])).nth(k).expect("op present")
    }

    fn live_in(f: &Facts, k: &Kernel, pc: usize, r: Reg) -> bool {
        f.live_at(k.decoded_program().ops(), pc).has(r)
    }

    fn rows_of(rows: &[Rows]) -> Vec<usize> {
        let mut out = Vec::new();
        each_row(rows, |r| out.push(r));
        out
    }

    #[test]
    fn defs_and_uses_cover_multi_row_operands() {
        for div in [
            Inst::DivBig { d: 2, dn: 2, a: 4, an: 3, b: 10, bn: 1 },
            Inst::RemBig { d: 2, dn: 2, a: 4, an: 3, b: 10, bn: 1 },
        ] {
            let (defs, uses) = defs_uses(&div);
            assert_eq!(rows_of(&defs), [2, 3]);
            assert_eq!(rows_of(&uses), [4, 5, 6, 10]);
        }
        let (defs, uses) = defs_uses(&Inst::StGlobalU8 { buf: 0, addr: 1, src: 3 });
        assert_eq!(rows_of(&defs), [0usize; 0]);
        assert_eq!(rows_of(&uses), [1, 3]);
    }

    /// Straight-line, branch and loop liveness, plus the pinned shuffle
    /// source: `x` is dead between its two writes, `e` is live into the
    /// else arm only, `acc` is live around the back edge, `src` is pinned.
    #[test]
    fn liveness_follows_branches_back_edges_and_pins_shuffle_sources() {
        let mut kb = KernelBuilder::new();
        let (x, e, acc, src, lane, out, trips) =
            (kb.reg(), kb.reg(), kb.reg(), kb.reg(), kb.reg(), kb.reg(), kb.reg());
        let p = kb.pred();
        kb.push(I::MovImm { d: x, imm: 1 }); // dead: rewritten below
        kb.push(I::MovImm { d: e, imm: 2 });
        kb.push(I::MovImm { d: x, imm: 3 });
        kb.push(I::SetPImm { p, op: CmpOp::Eq, a: x, imm: 3 });
        let then_ = kb.block(|b| b.push(I::MovImm { d: out, imm: 0 }));
        let else_ = kb.block(|b| b.push(I::Mov { d: out, a: e }));
        kb.if_(p, then_, else_);
        let cond = kb.block(|b| b.push(I::SetPImm { p, op: CmpOp::Lt, a: trips, imm: 2 }));
        let body = kb.block(|b| {
            b.push(I::Add { d: out, a: out, b: acc }); // reads last trip's acc
            b.push(I::MovImm { d: acc, imm: 9 });
            b.push(I::Add { d: trips, a: trips, b: x });
        });
        kb.while_(p, cond, body, 4);
        kb.push(I::ShflIdx { d: out, a: src, lane });
        kb.push(I::StGlobal { buf: 0, addr: lane, src: out });
        let k = kb.finish("live", 8);
        let f = facts_of(&k);
        let imm = |k: &Kernel, n| pc_of(k, n, |op| matches!(op, Op::I { inst: I::MovImm { .. }, .. }));
        assert!(!live_in(&f, &k, imm(&k, 1), x), "x is rewritten before any read");
        assert!(live_in(&f, &k, imm(&k, 2) + 1, x));
        let if_pc = pc_of(&k, 0, |op| matches!(op, Op::If { .. }));
        assert!(live_in(&f, &k, if_pc, e), "the else arm reads e");
        assert!(!live_in(&f, &k, if_pc + 1, e), "the then arm does not");
        let acc_write = imm(&k, 4);
        assert!(live_in(&f, &k, acc_write + 1, acc), "the next trip reads acc");
        assert!(!live_in(&f, &k, acc_write, acc), "but not between the read and the write");
        assert!(live_in(&f, &k, 0, acc), "the first trip reads the zeroed file");
        assert!(live_in(&f, &k, 0, trips) && !live_in(&f, &k, 0, out) && !live_in(&f, &k, 0, x));
        let ops = k.decoded_program().ops();
        assert!((0..=ops.len()).all(|pc| live_in(&f, &k, pc, src)), "shuffle sources are pinned");
        assert!(!live_in(&f, &k, ops.len(), out), "nothing else outlives the program");
        assert_eq!(f.entry_live_regs(ops, k.num_regs as usize), [acc, src, lane, trips]);
        let broken = seeded_bug::with(seeded_bug::Bug::LivenessDropsBackEdge, || facts_of(&k));
        assert!(!live_in(&broken, &k, acc_write + 1, acc), "the seeded bug loses the back edge");
    }
}
