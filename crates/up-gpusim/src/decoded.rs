//! Tier-2 executor: pre-decoded kernel programs and a warp-batched
//! superblock interpreter.
//!
//! The reference tree-walker in [`crate::exec`] re-traverses the `Stmt`
//! tree for every warp and re-matches the `Inst` enum once *per lane*
//! (the match sits inside the per-lane closure). This module flattens a
//! [`Kernel`] once into a flat array of decoded ops with explicit branch
//! targets, memoized per-op issue cycles, and a static straight-line
//! "superblock" analysis (`run_end`), then interprets that array with an
//! instruction-outer/lane-inner loop over a structure-of-arrays register
//! file. Inside full-mask superblocks no divergence stack or mask test
//! runs at all.
//!
//! `DivBig` is the one data-dependent arithmetic op: its arm hands the
//! warp's register rows to module `divbig`, which divides every lane
//! whose divisor has the warp's widest limb count with one lane-parallel
//! Algorithm D (on the AVX-512 set) and the rest one lane at a time.
//!
//! The decoded program is built once per kernel and cached on the kernel
//! itself (see [`DecodedCache`]); since `up-jit` keeps compiled kernels in
//! its shared cache behind an `Arc`, JIT cache hits amortize decode the
//! same way they amortize compiles.
//!
//! **Bit-exactness contract**: for every kernel, the decoded interpreter
//! produces byte-identical [`crate::GlobalMem`] contents, a
//! field-identical [`crate::ExecStats`] (including the f64
//! `warp_issue_cycles` sum, which is accumulated in the exact same
//! per-instruction order), and the same error value on the same failing
//! launch as the tree-walker. The differential fuzz tests below enforce
//! this across divergence, `While` loops, shared memory, byte stores,
//! carry chains, and all three error classes.

use crate::exec::{
    full_mask, note_transactions, shared_store, shared_word, ExecStats, Geometry, GlobalMem,
    LaunchConfig, SectorSeen, SimError,
};
use crate::divbig::{div_big, DivBufs, DivShape};
use crate::ptx::{issue_cycles, CmpOp, Inst, Kernel, Special, Stmt, TreeShape};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which functional interpreter executes launches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// The reference `Stmt`-tree walker (slow, kept as the oracle the
    /// decoded interpreter is differentially tested against).
    Tree,
    /// The pre-decoded flat-program interpreter (fast path).
    Decoded,
    /// The closure-compiled tier (see [`crate::compiled`]), forced from
    /// the first launch: full-mask superblocks run compiled closures,
    /// divergent regions fall back to the decoded interpreter.
    Compiled,
    /// Tiered promotion: launches start on the decoded interpreter and
    /// promote to the compiled tier once the kernel's launch count
    /// exceeds [`crate::compiled::TIER_THRESHOLD`] (so cold kernels never
    /// pay closure-compile cost).
    #[default]
    Auto,
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Tree => write!(f, "tree"),
            ExecBackend::Decoded => write!(f, "decoded"),
            ExecBackend::Compiled => write!(f, "compiled"),
            ExecBackend::Auto => write!(f, "auto"),
        }
    }
}

/// Lane stride of the structure-of-arrays register file: register `r` of
/// lane `l` lives at `r * LANES + l`. Fixed at the warp width so decode
/// is independent of launch geometry (partial warps just use a prefix).
pub(crate) const LANES: usize = 32;

/// A decoded instruction: the [`Inst`] operands resolved to
/// structure-of-arrays offsets (`reg * 32`) so the interpreter indexes the
/// flat register file directly, with no per-lane enum match.
#[derive(Clone, Debug)]
pub(crate) enum DOp {
    MovImm { d: u32, imm: u32 },
    Mov { d: u32, a: u32 },
    MovSpecial { d: u32, s: Special },
    Add { d: u32, a: u32, b: u32 },
    AddCC { d: u32, a: u32, b: u32 },
    AddC { d: u32, a: u32, b: u32 },
    Sub { d: u32, a: u32, b: u32 },
    SubCC { d: u32, a: u32, b: u32 },
    SubC { d: u32, a: u32, b: u32 },
    MulLo { d: u32, a: u32, b: u32 },
    MulHi { d: u32, a: u32, b: u32 },
    MadLoCC { d: u32, a: u32, b: u32, c: u32 },
    MadHiC { d: u32, a: u32, b: u32, c: u32 },
    Div { d: u32, a: u32, b: u32 },
    Rem { d: u32, a: u32, b: u32 },
    Div64 { dlo: u32, dhi: u32, alo: u32, ahi: u32, blo: u32, bhi: u32 },
    Rem64 { dlo: u32, dhi: u32, alo: u32, ahi: u32, blo: u32, bhi: u32 },
    Bfind { d: u32, a: u32 },
    DivBig { d: u32, dn: u8, a: u32, an: u8, b: u32, bn: u8, rem: bool },
    Shl { d: u32, a: u32, b: u32 },
    Shr { d: u32, a: u32, b: u32 },
    And { d: u32, a: u32, b: u32 },
    Or { d: u32, a: u32, b: u32 },
    Xor { d: u32, a: u32, b: u32 },
    SetP { p: u8, op: CmpOp, a: u32, b: u32 },
    SetPImm { p: u8, op: CmpOp, a: u32, imm: u32 },
    PAnd { p: u8, a: u8, b: u8 },
    PNot { p: u8, a: u8 },
    Selp { d: u32, a: u32, b: u32, p: u8 },
    LdGlobal { d: u32, buf: u8, addr: u32 },
    LdGlobalU8 { d: u32, buf: u8, addr: u32 },
    StGlobal { buf: u8, addr: u32, src: u32 },
    StGlobalU8 { buf: u8, addr: u32, src: u32 },
    LdShared { d: u32, addr: u32 },
    StShared { addr: u32, src: u32 },
    LdParam { d: u32, idx: u8 },
    BarSync,
    ShflIdx { d: u32, a: u32, lane: u32 },
    Ballot { d: u32, p: u8 },
}

/// Access class of a global-memory [`DOp`] (see [`DOp::mem_ref`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemOpKind {
    /// `ld.global` — 4-byte load into a register row.
    LdWord,
    /// `ld.global.u8` — byte load zero-extended into a register row.
    LdByte,
    /// `st.global` — 4-byte store from a register row.
    StWord,
    /// `st.global.u8` — byte store (low byte of the source row).
    StByte,
}

impl MemOpKind {
    /// Access width in bytes (the coalescing model's `width` argument).
    pub(crate) fn width(self) -> u32 {
        match self {
            MemOpKind::LdWord | MemOpKind::StWord => 4,
            MemOpKind::LdByte | MemOpKind::StByte => 1,
        }
    }
}

/// Per-op address metadata of a global-memory access: which rows of the
/// SoA register file hold the address and the data, and the access
/// class. This is the decoded program's contribution to the compiled
/// tier's mem-thunk lowering and affine-address analysis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemRef {
    pub(crate) kind: MemOpKind,
    /// Device buffer index.
    pub(crate) buf: u8,
    /// SoA row offset (pre-scaled ×32) of the address operand.
    pub(crate) addr: u32,
    /// SoA row offset of the destination (loads) or source (stores).
    pub(crate) data: u32,
}

impl DOp {
    /// The global-memory access this op performs, if any. Shared and
    /// per-block memory (`LdShared`/`StShared`) and parameters stay
    /// outside the coalescing/lowering machinery.
    pub(crate) fn mem_ref(&self) -> Option<MemRef> {
        Some(match *self {
            DOp::LdGlobal { d, buf, addr } => {
                MemRef { kind: MemOpKind::LdWord, buf, addr, data: d }
            }
            DOp::LdGlobalU8 { d, buf, addr } => {
                MemRef { kind: MemOpKind::LdByte, buf, addr, data: d }
            }
            DOp::StGlobal { buf, addr, src } => {
                MemRef { kind: MemOpKind::StWord, buf, addr, data: src }
            }
            DOp::StGlobalU8 { buf, addr, src } => {
                MemRef { kind: MemOpKind::StByte, buf, addr, data: src }
            }
            _ => return None,
        })
    }
}

/// One op of the flat program. Control ops carry explicit targets; the
/// interpreter *jumps over* zero-mask regions instead of masking through
/// them, which is exactly how the tree-walker's `if mask == 0 {{ return }}`
/// early-outs behave (no stats, no effects).
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// A plain instruction: the decoded op, its memoized issue cycles,
    /// and the end (exclusive) of the maximal straight-line run of `I`
    /// ops it belongs to — the static superblock bound.
    I { dop: DOp, cycles: f64, run_end: u32 },
    /// Branch head: computes taken/not-taken, pays the 1-cycle branch
    /// issue, pushes a frame, and either falls through into `then` or
    /// jumps to `else_pc` (the matching [`Op::Else`]).
    If { p: u8, else_pc: u32 },
    /// Then/else seam: switches the mask to the frame's not-taken set,
    /// jumping to `end_pc` (the matching [`Op::EndIf`]) when it is empty.
    Else { end_pc: u32 },
    /// Branch reconvergence: restores the outer mask and pops the frame.
    EndIf,
    /// Loop head: pushes a loop frame capturing the outer mask.
    WhileBegin,
    /// Loop test (placed after the condition block): drops lanes whose
    /// predicate cleared, counts divergence, and exits to `end_pc` when
    /// no lane remains.
    WhileTest { p: u8, end_pc: u32 },
    /// Loop backedge: bumps the iteration count, enforces `max_iter`, and
    /// jumps back to `cond_pc`.
    WhileEnd { cond_pc: u32, max_iter: u32 },
}

/// A kernel pre-decoded for the warp-batched interpreter: flat ops with
/// branch targets, memoized issue cycles, and superblock run bounds.
/// Built once per kernel (see [`Kernel::decoded_program`]) and shared by
/// every launch and every clone of the kernel.
#[derive(Debug)]
pub struct DecodedProgram {
    /// Allocated once at its exact length (counted from the tree before
    /// flattening): a cached kernel keeps this for its whole life.
    ops: Box<[Op]>,
    /// Static instruction count (loop bodies once) — memoized here so
    /// `Kernel::static_inst_count` and the compile-time model stop
    /// re-walking the tree.
    static_insts: usize,
    /// Number of maximal straight-line `I` runs (superblocks).
    superblocks: usize,
}

impl DecodedProgram {
    /// Static instructions (same count as the tree walk: each `I`, `If`,
    /// and `While` is one).
    pub fn static_inst_count(&self) -> usize {
        self.static_insts
    }

    /// Flat ops in the program (instructions plus control markers).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Maximal straight-line instruction runs — the regions the
    /// interpreter executes with no control or mask checks when the warp
    /// is converged.
    pub fn superblock_count(&self) -> usize {
        self.superblocks
    }

    /// The flat op array — the closure compiler's input.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Heap bytes of the program, with the two counts of its `Arc`.
    pub(crate) fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<DecodedProgram>()
            + std::mem::size_of_val(&*self.ops)
    }
}

static DECODE_BUILDS: AtomicU64 = AtomicU64::new(0);
static DECODE_HITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide decode counters: `(programs_built, cache_hits)`. A hit is
/// any [`Kernel::decoded_program`] call answered by the kernel's cache —
/// JIT-cached kernels hit once per launch after the first.
pub fn decode_counters() -> (u64, u64) {
    (DECODE_BUILDS.load(Ordering::Relaxed), DECODE_HITS.load(Ordering::Relaxed))
}

/// Per-kernel decode cache. Cloning a kernel after its program is built
/// shares the `Arc`; the JIT cache holds kernels behind `Arc` anyway, so
/// every cache hit reuses the same decoded program.
#[derive(Clone, Default)]
pub struct DecodedCache(OnceLock<Arc<DecodedProgram>>);

impl DecodedCache {
    /// The program, if it has been built.
    pub(crate) fn built(&self) -> Option<&Arc<DecodedProgram>> {
        self.0.get()
    }

    pub(crate) fn get_or_decode(&self, kernel: &Kernel) -> &Arc<DecodedProgram> {
        if let Some(p) = self.0.get() {
            DECODE_HITS.fetch_add(1, Ordering::Relaxed);
            return p;
        }
        self.0.get_or_init(|| {
            DECODE_BUILDS.fetch_add(1, Ordering::Relaxed);
            Arc::new(decode(kernel))
        })
    }
}

impl std::fmt::Debug for DecodedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(p) => write!(f, "DecodedCache({} ops)", p.op_count()),
            None => write!(f, "DecodedCache(empty)"),
        }
    }
}

/// Flattens a kernel's statement tree into a [`DecodedProgram`].
fn decode(kernel: &Kernel) -> DecodedProgram {
    let shape = TreeShape::of(&kernel.body);
    let mut ops = Vec::with_capacity(shape.flat_ops());
    flatten(&kernel.body, &mut ops);
    debug_assert_eq!(ops.len(), shape.flat_ops(), "the op count is exact");
    // Superblock analysis: run_end[i] = end (exclusive) of the maximal
    // consecutive run of `I` ops containing i.
    let mut superblocks = 0usize;
    let mut end = 0u32;
    for i in (0..ops.len()).rev() {
        if let Op::I { run_end, .. } = &mut ops[i] {
            if end as usize <= i {
                end = i as u32 + 1;
                superblocks += 1;
            }
            *run_end = end;
        } else {
            end = 0;
        }
    }
    DecodedProgram { ops: ops.into_boxed_slice(), static_insts: shape.stmts, superblocks }
}

fn flatten(stmts: &[Stmt], ops: &mut Vec<Op>) {
    for stmt in stmts {
        match stmt {
            Stmt::I(inst) => {
                ops.push(Op::I { dop: decode_inst(inst), cycles: issue_cycles(inst), run_end: 0 });
            }
            Stmt::If(s) => {
                let if_at = ops.len();
                ops.push(Op::If { p: s.p, else_pc: 0 });
                flatten(&s.then_, ops);
                let else_at = ops.len();
                ops.push(Op::Else { end_pc: 0 });
                flatten(&s.else_, ops);
                let end_at = ops.len();
                ops.push(Op::EndIf);
                let Op::If { else_pc, .. } = &mut ops[if_at] else { unreachable!() };
                *else_pc = else_at as u32;
                let Op::Else { end_pc } = &mut ops[else_at] else { unreachable!() };
                *end_pc = end_at as u32;
            }
            Stmt::While(s) => {
                ops.push(Op::WhileBegin);
                let cond_pc = ops.len() as u32;
                flatten(&s.cond, ops);
                let test_at = ops.len();
                ops.push(Op::WhileTest { p: s.p, end_pc: 0 });
                flatten(&s.body, ops);
                let end_at = ops.len();
                ops.push(Op::WhileEnd { cond_pc, max_iter: s.max_iter });
                let Op::WhileTest { end_pc, .. } = &mut ops[test_at] else { unreachable!() };
                *end_pc = end_at as u32 + 1;
            }
        }
    }
}

fn decode_inst(inst: &Inst) -> DOp {
    // Pre-scale register operands by the SoA lane stride.
    let r = |x: &u16| *x as u32 * LANES as u32;
    match inst {
        Inst::MovImm { d, imm } => DOp::MovImm { d: r(d), imm: *imm },
        Inst::Mov { d, a } => DOp::Mov { d: r(d), a: r(a) },
        Inst::MovSpecial { d, s } => DOp::MovSpecial { d: r(d), s: *s },
        Inst::Add { d, a, b } => DOp::Add { d: r(d), a: r(a), b: r(b) },
        Inst::AddCC { d, a, b } => DOp::AddCC { d: r(d), a: r(a), b: r(b) },
        Inst::AddC { d, a, b } => DOp::AddC { d: r(d), a: r(a), b: r(b) },
        Inst::Sub { d, a, b } => DOp::Sub { d: r(d), a: r(a), b: r(b) },
        Inst::SubCC { d, a, b } => DOp::SubCC { d: r(d), a: r(a), b: r(b) },
        Inst::SubC { d, a, b } => DOp::SubC { d: r(d), a: r(a), b: r(b) },
        Inst::MulLo { d, a, b } => DOp::MulLo { d: r(d), a: r(a), b: r(b) },
        Inst::MulHi { d, a, b } => DOp::MulHi { d: r(d), a: r(a), b: r(b) },
        Inst::MadLoCC { d, a, b, c } => DOp::MadLoCC { d: r(d), a: r(a), b: r(b), c: r(c) },
        Inst::MadHiC { d, a, b, c } => DOp::MadHiC { d: r(d), a: r(a), b: r(b), c: r(c) },
        Inst::Div { d, a, b } => DOp::Div { d: r(d), a: r(a), b: r(b) },
        Inst::Rem { d, a, b } => DOp::Rem { d: r(d), a: r(a), b: r(b) },
        Inst::Div64 { dlo, dhi, alo, ahi, blo, bhi } => DOp::Div64 {
            dlo: r(dlo),
            dhi: r(dhi),
            alo: r(alo),
            ahi: r(ahi),
            blo: r(blo),
            bhi: r(bhi),
        },
        Inst::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => DOp::Rem64 {
            dlo: r(dlo),
            dhi: r(dhi),
            alo: r(alo),
            ahi: r(ahi),
            blo: r(blo),
            bhi: r(bhi),
        },
        Inst::Bfind { d, a } => DOp::Bfind { d: r(d), a: r(a) },
        Inst::DivBig { d, dn, a, an, b, bn } => {
            DOp::DivBig { d: r(d), dn: *dn, a: r(a), an: *an, b: r(b), bn: *bn, rem: false }
        }
        Inst::RemBig { d, dn, a, an, b, bn } => {
            DOp::DivBig { d: r(d), dn: *dn, a: r(a), an: *an, b: r(b), bn: *bn, rem: true }
        }
        Inst::Shl { d, a, b } => DOp::Shl { d: r(d), a: r(a), b: r(b) },
        Inst::Shr { d, a, b } => DOp::Shr { d: r(d), a: r(a), b: r(b) },
        Inst::And { d, a, b } => DOp::And { d: r(d), a: r(a), b: r(b) },
        Inst::Or { d, a, b } => DOp::Or { d: r(d), a: r(a), b: r(b) },
        Inst::Xor { d, a, b } => DOp::Xor { d: r(d), a: r(a), b: r(b) },
        Inst::SetP { p, op, a, b } => DOp::SetP { p: *p, op: *op, a: r(a), b: r(b) },
        Inst::SetPImm { p, op, a, imm } => DOp::SetPImm { p: *p, op: *op, a: r(a), imm: *imm },
        Inst::PAnd { p, a, b } => DOp::PAnd { p: *p, a: *a, b: *b },
        Inst::PNot { p, a } => DOp::PNot { p: *p, a: *a },
        Inst::Selp { d, a, b, p } => DOp::Selp { d: r(d), a: r(a), b: r(b), p: *p },
        Inst::LdGlobal { d, buf, addr } => DOp::LdGlobal { d: r(d), buf: *buf, addr: r(addr) },
        Inst::LdGlobalU8 { d, buf, addr } => DOp::LdGlobalU8 { d: r(d), buf: *buf, addr: r(addr) },
        Inst::StGlobal { buf, addr, src } => DOp::StGlobal { buf: *buf, addr: r(addr), src: r(src) },
        Inst::StGlobalU8 { buf, addr, src } => {
            DOp::StGlobalU8 { buf: *buf, addr: r(addr), src: r(src) }
        }
        Inst::LdShared { d, addr } => DOp::LdShared { d: r(d), addr: r(addr) },
        Inst::StShared { addr, src } => DOp::StShared { addr: r(addr), src: r(src) },
        Inst::LdParam { d, idx } => DOp::LdParam { d: r(d), idx: *idx },
        Inst::BarSync => DOp::BarSync,
        Inst::ShflIdx { d, a, lane } => DOp::ShflIdx { d: r(d), a: r(a), lane: r(lane) },
        Inst::Ballot { d, p } => DOp::Ballot { d: r(d), p: *p },
    }
}

/// Divergence frames of the flat interpreter — the explicit equivalent of
/// the tree-walker's recursion.
enum Frame {
    If { outer: u32, not_taken: u32 },
    While { outer: u32, iters: u32 },
}

/// Warp state in structure-of-arrays layout: contiguous lane rows per
/// register (`regs[r*32 + l]`), predicate registers as 32-bit lane masks,
/// and the carry flags as one more 0/1 lane row. Built once per launch
/// ([`DCtx::new`]) and reset per block and per warp by
/// [`run_block_decoded`].
pub(crate) struct DCtx<'a> {
    pub(crate) regs: Vec<u32>,
    pub(crate) preds: Vec<u32>,
    pub(crate) carry: [u32; LANES],
    pub(crate) smem: Vec<u8>,
    pub(crate) mem: &'a mut GlobalMem,
    pub(crate) params: &'a [u32],
    pub(crate) stats: ExecStats,
    /// Warp-lifetime seen-sector set: cleared once per warp (in
    /// [`run_block_decoded`]) and shared by every memory instruction the
    /// warp executes — interpreter steps and the compiled tier's lowered
    /// mem thunks alike — so sector dedup spans the whole warp.
    pub(crate) seen: SectorSeen,
    pub(crate) kernel_name: &'a str,
    /// `DivBig` working storage and lane counts, kept for the launch.
    pub(crate) div: DivBufs,
    /// The divergence stack (empty between warps).
    frames: Vec<Frame>,
}

impl<'a> DCtx<'a> {
    pub(crate) fn new(kernel: &'a Kernel, mem: &'a mut GlobalMem, params: &'a [u32]) -> Self {
        DCtx {
            regs: vec![0u32; kernel.num_regs as usize * LANES],
            preds: vec![0u32; kernel.num_preds as usize],
            carry: [0; LANES],
            smem: vec![0u8; kernel.smem_bytes as usize],
            mem,
            params,
            stats: ExecStats::default(),
            seen: SectorSeen::new(),
            kernel_name: &kernel.name,
            div: DivBufs::default(),
            frames: Vec::with_capacity(8),
        }
    }
}

/// Runs the active lanes in ascending order: a plain prefix loop when the
/// compiler knows the warp is converged (`FULL`), a set-bit walk otherwise.
#[inline(always)]
fn lanes_apply<const FULL: bool>(mask: u32, lanes_n: usize, mut f: impl FnMut(usize)) {
    if FULL {
        for l in 0..lanes_n {
            f(l);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l);
        }
    }
}

/// Runs one block's warps through the decoded program. Mirrors
/// `exec::run_block` exactly: warps sequential, shared memory per block,
/// sector set cleared per warp, stats accumulated per instruction in
/// program order. With `compiled` set (the tier-3 path), full-mask
/// superblocks execute the closure-compiled steps instead of the
/// per-instruction fast path — bit-identical either way — and the
/// per-warp register reset zeroes only the rows some thread may read
/// before writing (the program's entry-live rows); the decoded tier has
/// no liveness facts and zeroes the whole file.
pub(crate) fn run_block_decoded(
    prog: &DecodedProgram,
    compiled: Option<&crate::compiled::CompiledProgram>,
    c: &mut DCtx<'_>,
    cfg: LaunchConfig,
    block: u32,
    warp: usize,
) -> Result<ExecStats, SimError> {
    c.stats = ExecStats::default();
    c.smem.fill(0);
    let threads = cfg.block_threads as usize;
    let mut frames = std::mem::take(&mut c.frames);
    for warp_start in (0..threads).step_by(warp) {
        let lanes_n = warp.min(threads - warp_start);
        match compiled {
            Some(cp) => {
                for &r in cp.entry_live_rows() {
                    c.regs[r as usize..r as usize + LANES].fill(0);
                }
            }
            None => c.regs.fill(0),
        }
        c.preds.fill(0);
        c.carry = [0; LANES];
        c.seen.clear();
        frames.clear();
        let geom = Geometry {
            tid_base: warp_start as u32,
            ctaid: block,
            ntid: cfg.block_threads,
            nctaid: cfg.grid_blocks,
        };
        run_warp(prog, compiled, c, &mut frames, &geom, lanes_n)?;
        c.stats.warps += 1;
    }
    c.frames = frames;
    c.stats.blocks += 1;
    Ok(c.stats)
}

/// The flat-program interpreter loop. Invariant: `mask != 0` whenever an
/// `I` op executes — control ops jump over empty regions, reproducing the
/// tree-walker's zero-mask early-outs (which contribute no stats at all).
fn run_warp(
    prog: &DecodedProgram,
    compiled: Option<&crate::compiled::CompiledProgram>,
    c: &mut DCtx<'_>,
    frames: &mut Vec<Frame>,
    geom: &Geometry,
    lanes_n: usize,
) -> Result<(), SimError> {
    let ops = &prog.ops[..];
    let full = full_mask(lanes_n);
    let mut mask = full;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::I { dop, cycles, run_end } => {
                if mask == full {
                    // A full mask at an `I` op is always a run *start*
                    // (masks only change at control ops, and the fast
                    // paths below consume whole runs), so the compiled
                    // tier can take over the entire superblock here.
                    if let Some(cp) = compiled {
                        if let Some(sb) = cp.block_at(pc) {
                            crate::compiled::run_superblock(sb, c, geom, lanes_n, full)?;
                            pc = sb.end as usize;
                            continue;
                        }
                    }
                    // Superblock fast path: the whole straight-line run
                    // executes converged, with no mask or control tests.
                    let end = *run_end as usize;
                    let (mut dop, mut cycles) = (dop, cycles);
                    loop {
                        c.stats.warp_issues += 1;
                        c.stats.warp_issue_cycles += *cycles;
                        c.stats.thread_insts += lanes_n as u64;
                        exec_dop::<true>(c, dop, geom, full, lanes_n)?;
                        pc += 1;
                        if pc >= end {
                            break;
                        }
                        let Op::I { dop: d, cycles: cy, .. } = &ops[pc] else { unreachable!() };
                        (dop, cycles) = (d, cy);
                    }
                } else {
                    c.stats.warp_issues += 1;
                    c.stats.warp_issue_cycles += *cycles;
                    c.stats.thread_insts += mask.count_ones() as u64;
                    exec_dop::<false>(c, dop, geom, mask, lanes_n)?;
                    pc += 1;
                }
            }
            Op::If { p, else_pc } => {
                let taken = c.preds[*p as usize] & mask;
                let not_taken = mask & !taken;
                if taken != 0 && not_taken != 0 {
                    c.stats.divergent_branches += 1;
                }
                // Branch issue cost — paid whenever the branch is reached
                // with a live mask, exactly like the tree-walker.
                c.stats.warp_issues += 1;
                c.stats.warp_issue_cycles += 1.0;
                frames.push(Frame::If { outer: mask, not_taken });
                if taken != 0 {
                    mask = taken;
                    pc += 1;
                } else {
                    pc = *else_pc as usize;
                }
            }
            Op::Else { end_pc } => {
                let Some(Frame::If { not_taken, .. }) = frames.last() else { unreachable!() };
                mask = *not_taken;
                if mask == 0 {
                    pc = *end_pc as usize;
                } else {
                    pc += 1;
                }
            }
            Op::EndIf => {
                let Some(Frame::If { outer, .. }) = frames.pop() else { unreachable!() };
                mask = outer;
                pc += 1;
            }
            Op::WhileBegin => {
                frames.push(Frame::While { outer: mask, iters: 0 });
                pc += 1;
            }
            Op::WhileTest { p, end_pc } => {
                let still = c.preds[*p as usize] & mask;
                if still != mask && still != 0 {
                    c.stats.divergent_branches += 1;
                }
                if still == 0 {
                    let Some(Frame::While { outer, .. }) = frames.pop() else { unreachable!() };
                    mask = outer;
                    pc = *end_pc as usize;
                } else {
                    mask = still;
                    pc += 1;
                }
            }
            Op::WhileEnd { cond_pc, max_iter } => {
                let Some(Frame::While { iters, .. }) = frames.last_mut() else { unreachable!() };
                *iters += 1;
                if *iters > *max_iter {
                    return Err(SimError::MaxIterExceeded {
                        kernel: c.kernel_name.to_string(),
                        bound: *max_iter,
                    });
                }
                pc = *cond_pc as usize;
            }
        }
    }
    Ok(())
}

/// Executes one decoded op over the active lanes. Instruction-outer,
/// lane-inner: the opcode dispatch happens once per warp, and each arm
/// runs a tight lane loop over contiguous SoA rows.
#[allow(clippy::needless_range_loop)]
pub(crate) fn exec_dop<const FULL: bool>(
    c: &mut DCtx<'_>,
    dop: &DOp,
    geom: &Geometry,
    mask: u32,
    n: usize,
) -> Result<(), SimError> {
    let DCtx { regs, preds, carry, smem, mem, params, stats, seen, kernel_name, div, .. } = c;
    let regs = &mut regs[..];
    match dop {
        DOp::MovImm { d, imm } => {
            let d = *d as usize;
            let imm = *imm;
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = imm);
        }
        DOp::Mov { d, a } => {
            let (d, a) = (*d as usize, *a as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l]);
        }
        DOp::MovSpecial { d, s } => {
            let d = *d as usize;
            match s {
                Special::TidX => {
                    let base = geom.tid_base;
                    lanes_apply::<FULL>(mask, n, |l| regs[d + l] = base + l as u32);
                }
                Special::CtaIdX => {
                    let v = geom.ctaid;
                    lanes_apply::<FULL>(mask, n, |l| regs[d + l] = v);
                }
                Special::NTidX => {
                    let v = geom.ntid;
                    lanes_apply::<FULL>(mask, n, |l| regs[d + l] = v);
                }
                Special::NCtaIdX => {
                    let v = geom.nctaid;
                    lanes_apply::<FULL>(mask, n, |l| regs[d + l] = v);
                }
            }
        }
        DOp::Add { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l].wrapping_add(regs[b + l]));
        }
        DOp::AddCC { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let (s, co) = regs[a + l].overflowing_add(regs[b + l]);
                regs[d + l] = s;
                carry[l] = co as u32;
            });
        }
        DOp::AddC { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let (s1, c1) = regs[a + l].overflowing_add(regs[b + l]);
                let (s2, c2) = s1.overflowing_add(carry[l]);
                regs[d + l] = s2;
                carry[l] = (c1 | c2) as u32;
            });
        }
        DOp::Sub { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l].wrapping_sub(regs[b + l]));
        }
        DOp::SubCC { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let (s, co) = regs[a + l].overflowing_sub(regs[b + l]);
                regs[d + l] = s;
                carry[l] = co as u32;
            });
        }
        DOp::SubC { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let (s1, c1) = regs[a + l].overflowing_sub(regs[b + l]);
                let (s2, c2) = s1.overflowing_sub(carry[l]);
                regs[d + l] = s2;
                carry[l] = (c1 | c2) as u32;
            });
        }
        DOp::MulLo { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l].wrapping_mul(regs[b + l]));
        }
        DOp::MulHi { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                regs[d + l] = ((regs[a + l] as u64 * regs[b + l] as u64) >> 32) as u32;
            });
        }
        DOp::MadLoCC { d, a, b, c: cc } => {
            let (d, a, b, cc) = (*d as usize, *a as usize, *b as usize, *cc as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let (s, co) = regs[a + l].wrapping_mul(regs[b + l]).overflowing_add(regs[cc + l]);
                regs[d + l] = s;
                carry[l] = co as u32;
            });
        }
        DOp::MadHiC { d, a, b, c: cc } => {
            let (d, a, b, cc) = (*d as usize, *a as usize, *b as usize, *cc as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let hi = ((regs[a + l] as u64 * regs[b + l] as u64) >> 32) as u32;
                let (s1, c1) = hi.overflowing_add(regs[cc + l]);
                let (s2, c2) = s1.overflowing_add(carry[l]);
                regs[d + l] = s2;
                carry[l] = (c1 | c2) as u32;
            });
        }
        DOp::Div { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                regs[d + l] = regs[a + l].checked_div(regs[b + l]).unwrap_or(u32::MAX);
            });
        }
        DOp::Rem { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let bv = regs[b + l];
                regs[d + l] = if bv == 0 { regs[a + l] } else { regs[a + l] % bv };
            });
        }
        DOp::Div64 { dlo, dhi, alo, ahi, blo, bhi } => {
            let (dlo, dhi) = (*dlo as usize, *dhi as usize);
            let (alo, ahi, blo, bhi) = (*alo as usize, *ahi as usize, *blo as usize, *bhi as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let a64 = regs[alo + l] as u64 | (regs[ahi + l] as u64) << 32;
                let b64 = regs[blo + l] as u64 | (regs[bhi + l] as u64) << 32;
                let q = a64.checked_div(b64).unwrap_or(u64::MAX);
                regs[dlo + l] = q as u32;
                regs[dhi + l] = (q >> 32) as u32;
            });
        }
        DOp::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => {
            let (dlo, dhi) = (*dlo as usize, *dhi as usize);
            let (alo, ahi, blo, bhi) = (*alo as usize, *ahi as usize, *blo as usize, *bhi as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let a64 = regs[alo + l] as u64 | (regs[ahi + l] as u64) << 32;
                let b64 = regs[blo + l] as u64 | (regs[bhi + l] as u64) << 32;
                let q = if b64 == 0 { a64 } else { a64 % b64 };
                regs[dlo + l] = q as u32;
                regs[dhi + l] = (q >> 32) as u32;
            });
        }
        DOp::Bfind { d, a } => {
            let (d, a) = (*d as usize, *a as usize);
            lanes_apply::<FULL>(mask, n, |l| {
                let v = regs[a + l];
                regs[d + l] = if v == 0 { u32::MAX } else { 31 - v.leading_zeros() };
            });
        }
        DOp::DivBig { d, dn, a, an, b, bn, rem } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            let (dn, an, bn) = (*dn as usize, *an as usize, *bn as usize);
            let s = DivShape { d, dn, a, an, b, bn, rem: *rem };
            let zero = || SimError::DivisionByZero { kernel: kernel_name.to_string() };
            stats.warp_issue_cycles += div_big(regs, s, mask, div).ok_or_else(zero)?;
        }
        DOp::Shl { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l] << (regs[b + l] & 31));
        }
        DOp::Shr { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l] >> (regs[b + l] & 31));
        }
        DOp::And { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l] & regs[b + l]);
        }
        DOp::Or { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l] | regs[b + l]);
        }
        DOp::Xor { d, a, b } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = regs[a + l] ^ regs[b + l]);
        }
        DOp::SetP { p, op, a, b } => {
            let (a, b) = (*a as usize, *b as usize);
            let mut bits = 0u32;
            lanes_apply::<FULL>(mask, n, |l| {
                if op.eval(regs[a + l], regs[b + l]) {
                    bits |= 1 << l;
                }
            });
            let p = *p as usize;
            preds[p] = (preds[p] & !mask) | bits;
        }
        DOp::SetPImm { p, op, a, imm } => {
            let a = *a as usize;
            let imm = *imm;
            let mut bits = 0u32;
            lanes_apply::<FULL>(mask, n, |l| {
                if op.eval(regs[a + l], imm) {
                    bits |= 1 << l;
                }
            });
            let p = *p as usize;
            preds[p] = (preds[p] & !mask) | bits;
        }
        DOp::PAnd { p, a, b } => {
            let computed = preds[*a as usize] & preds[*b as usize];
            let p = *p as usize;
            preds[p] = (preds[p] & !mask) | (computed & mask);
        }
        DOp::PNot { p, a } => {
            let computed = !preds[*a as usize];
            let p = *p as usize;
            preds[p] = (preds[p] & !mask) | (computed & mask);
        }
        DOp::Selp { d, a, b, p } => {
            let (d, a, b) = (*d as usize, *a as usize, *b as usize);
            let pbits = preds[*p as usize];
            lanes_apply::<FULL>(mask, n, |l| {
                regs[d + l] = if pbits >> l & 1 == 1 { regs[a + l] } else { regs[b + l] };
            });
        }
        DOp::LdGlobal { d, buf, addr } => {
            let (d, a) = (*d as usize, *addr as usize);
            if FULL {
                note_transactions(stats, seen, *buf, &regs[a..a + n], 4);
                for l in 0..n {
                    regs[d + l] = mem.load_word(*buf, regs[a + l])?;
                }
            } else {
                let (abuf, cnt) = gather(regs, a, mask, n);
                note_transactions(stats, seen, *buf, &abuf[..cnt], 4);
                let mut i = 0;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    regs[d + l] = mem.load_word(*buf, abuf[i])?;
                    i += 1;
                }
            }
        }
        DOp::LdGlobalU8 { d, buf, addr } => {
            let (d, a) = (*d as usize, *addr as usize);
            if FULL {
                note_transactions(stats, seen, *buf, &regs[a..a + n], 1);
                for l in 0..n {
                    regs[d + l] = mem.load_byte(*buf, regs[a + l])? as u32;
                }
            } else {
                let (abuf, cnt) = gather(regs, a, mask, n);
                note_transactions(stats, seen, *buf, &abuf[..cnt], 1);
                let mut i = 0;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    regs[d + l] = mem.load_byte(*buf, abuf[i])? as u32;
                    i += 1;
                }
            }
        }
        DOp::StGlobal { buf, addr, src } => {
            let (a, s) = (*addr as usize, *src as usize);
            if FULL {
                note_transactions(stats, seen, *buf, &regs[a..a + n], 4);
                for l in 0..n {
                    mem.store_word(*buf, regs[a + l], regs[s + l])?;
                }
            } else {
                let (abuf, cnt) = gather(regs, a, mask, n);
                note_transactions(stats, seen, *buf, &abuf[..cnt], 4);
                let mut i = 0;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    mem.store_word(*buf, abuf[i], regs[s + l])?;
                    i += 1;
                }
            }
        }
        DOp::StGlobalU8 { buf, addr, src } => {
            let (a, s) = (*addr as usize, *src as usize);
            if FULL {
                note_transactions(stats, seen, *buf, &regs[a..a + n], 1);
                for l in 0..n {
                    mem.store_byte(*buf, regs[a + l], regs[s + l] as u8)?;
                }
            } else {
                let (abuf, cnt) = gather(regs, a, mask, n);
                note_transactions(stats, seen, *buf, &abuf[..cnt], 1);
                let mut i = 0;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    mem.store_byte(*buf, abuf[i], regs[s + l] as u8)?;
                    i += 1;
                }
            }
        }
        DOp::LdShared { d, addr } => {
            let (d, a) = (*d as usize, *addr as usize);
            let mut m = mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                regs[d + l] = shared_word(smem, regs[a + l])?;
            }
        }
        DOp::StShared { addr, src } => {
            let (a, s) = (*addr as usize, *src as usize);
            let mut m = mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                shared_store(smem, regs[a + l], regs[s + l])?;
            }
        }
        DOp::LdParam { d, idx } => {
            let v = *params.get(*idx as usize).ok_or(SimError::BadParam(*idx))?;
            let d = *d as usize;
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = v);
        }
        DOp::BarSync => {} // cost only; warps run sequentially
        DOp::ShflIdx { d, a, lane } => {
            // Gather before scattering so all reads see pre-shuffle values.
            let (d, a, lane) = (*d as usize, *a as usize, *lane as usize);
            let mut vals = [0u32; 32];
            let mut cnt = 0;
            lanes_apply::<FULL>(mask, n, |l| {
                let src_lane = regs[lane + l] as usize % n;
                vals[cnt] = regs[a + src_lane];
                cnt += 1;
            });
            let mut i = 0;
            lanes_apply::<FULL>(mask, n, |l| {
                regs[d + l] = vals[i];
                i += 1;
            });
        }
        DOp::Ballot { d, p } => {
            let ballot = preds[*p as usize] & mask;
            let d = *d as usize;
            lanes_apply::<FULL>(mask, n, |l| regs[d + l] = ballot);
        }
    }
    Ok(())
}

/// Collects the active lanes' values of SoA row `row` (ascending lane
/// order) — the partial-mask analogue of passing the row slice directly.
#[inline]
fn gather(regs: &[u32], row: usize, mask: u32, _lanes_n: usize) -> ([u32; 32], usize) {
    let mut buf = [0u32; 32];
    let mut cnt = 0;
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        buf[cnt] = regs[row + l];
        cnt += 1;
    }
    (buf, cnt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::forced_isa;
    use crate::compiled::ThunkIsa;
    use crate::device::DeviceConfig;
    use crate::exec::{launch_opts, LaunchOpts};
    use crate::ptx::{Inst as I, KernelBuilder, PReg, Reg};

    /// Deterministic 64-bit LCG so fuzz failures reproduce exactly.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u32 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }
        fn below(&mut self, n: u32) -> u32 {
            self.next() % n
        }
        fn chance(&mut self, one_in: u32) -> bool {
            self.below(one_in) == 0
        }
    }

    const GRID: LaunchConfig = LaunchConfig { grid_blocks: 4, block_threads: 64 };
    const N_THREADS: usize = 256;

    /// A random kernel over a fixed shape: three word buffers of
    /// `N_THREADS` words (two inputs, one output), 256 B of shared memory,
    /// a register pool seeded from the inputs, and a random sequence of
    /// gadgets covering ALU ops, carry chains, divergent `If`s, `While`
    /// loops, shared memory, byte stores, warp ops, and big-int division.
    /// When `with_errors` is set, one gadget may provoke `OutOfBounds`,
    /// `MaxIterExceeded`, or `DivisionByZero` on a data-dependent lane.
    fn random_kernel(rng: &mut Rng, idx: usize, with_errors: bool) -> Kernel {
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        let gid = kb.reg();
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let four = kb.imm(4);
        let addr4 = kb.reg();
        kb.push(I::MulLo { d: addr4, a: gid, b: four });
        let smem_base = kb.smem(256);
        assert_eq!(smem_base, 0);

        // Register pool, seeded with input data and thread-varying values.
        let pool: Vec<Reg> = (0..8).map(|_| kb.reg()).collect();
        kb.push(I::LdGlobal { d: pool[0], buf: 0, addr: addr4 });
        kb.push(I::LdGlobal { d: pool[1], buf: 1, addr: addr4 });
        kb.push(I::Mov { d: pool[2], a: gid });
        kb.push(I::MovImm { d: pool[3], imm: 0x9e3779b9 });
        kb.push(I::Mov { d: pool[4], a: tid });
        kb.push(I::MovImm { d: pool[5], imm: 7 });
        kb.push(I::Xor { d: pool[6], a: pool[0], b: pool[1] });
        kb.push(I::MovImm { d: pool[7], imm: 1 });
        let preds: Vec<PReg> = (0..3).map(|_| kb.pred()).collect();
        kb.push(I::SetP { p: preds[0], op: CmpOp::Lt, a: pool[0], b: pool[1] });
        let one = kb.imm(1);
        let n_gadgets = 8 + rng.below(10);
        let error_gadget = if with_errors { Some(rng.below(n_gadgets)) } else { None };

        for g in 0..n_gadgets {
            if error_gadget == Some(g) {
                match rng.below(3) {
                    0 => {
                        // Out-of-bounds word store on one specific thread.
                        let k = rng.below(N_THREADS as u32 + 32);
                        let p = preds[rng.below(3) as usize];
                        kb.push(I::SetPImm { p, op: CmpOp::Eq, a: gid, imm: k });
                        let bad = kb.imm(1 << 20);
                        let body = kb.block(|b| b.push(I::StGlobal { buf: 2, addr: bad, src: gid }));
                        kb.if_(p, body, vec![]);
                    }
                    1 => {
                        // Runaway loop: predicate never clears, max_iter 3.
                        let p = preds[0];
                        let cond =
                            kb.block(|b| b.push(I::SetPImm { p, op: CmpOp::Ge, a: gid, imm: 0 }));
                        let body = kb.block(|b| {
                            b.push(I::Add { d: pool[3], a: pool[3], b: one });
                        });
                        kb.while_(p, cond, body, 3);
                    }
                    _ => {
                        // Zero divisor on lanes where gid % 4 == 0.
                        let big = kb.regs(5);
                        kb.push(I::Mov { d: big[0], a: pool[0] });
                        kb.push(I::Mov { d: big[1], a: pool[6] });
                        let three = kb.imm(3);
                        kb.push(I::And { d: big[2], a: gid, b: three });
                        kb.push(I::DivBig { d: big[3], dn: 2, a: big[0], an: 2, b: big[2], bn: 1 });
                    }
                }
                continue;
            }
            match rng.below(9) {
                0 => {
                    // Random ALU op over pool registers.
                    let d = pool[rng.below(8) as usize];
                    let a = pool[rng.below(8) as usize];
                    let b = pool[rng.below(8) as usize];
                    kb.push(match rng.below(10) {
                        0 => I::Add { d, a, b },
                        1 => I::Sub { d, a, b },
                        2 => I::MulLo { d, a, b },
                        3 => I::MulHi { d, a, b },
                        4 => I::And { d, a, b },
                        5 => I::Or { d, a, b },
                        6 => I::Xor { d, a, b },
                        7 => I::Shl { d, a, b },
                        8 => I::Div { d, a, b },
                        _ => I::Rem { d, a, b },
                    });
                }
                1 => {
                    // Carry chain: add-with-carry across two limbs.
                    let d0 = pool[rng.below(4) as usize];
                    let d1 = pool[4 + rng.below(4) as usize];
                    let a = pool[rng.below(8) as usize];
                    let b = pool[rng.below(8) as usize];
                    kb.push(I::AddCC { d: d0, a, b });
                    kb.push(I::AddC { d: d1, a: d1, b });
                    kb.push(I::MadLoCC { d: d0, a: d0, b, c: a });
                    kb.push(I::MadHiC { d: d1, a: d0, b, c: d1 });
                    kb.push(I::SubCC { d: d0, a: d0, b: a });
                    kb.push(I::SubC { d: d1, a: d1, b: a });
                }
                2 => {
                    // In-bounds word store to the output buffer.
                    kb.push(I::StGlobal { buf: 2, addr: addr4, src: pool[rng.below(8) as usize] });
                }
                3 => {
                    // Byte load + byte store at a per-thread byte address.
                    let d = pool[rng.below(8) as usize];
                    kb.push(I::LdGlobalU8 { d, buf: rng.below(2) as u8, addr: gid });
                    kb.push(I::StGlobalU8 { buf: 2, addr: gid, src: pool[rng.below(8) as usize] });
                }
                4 => {
                    // Shared memory round trip at (tid & 63) * 4.
                    let m63 = kb.imm(63);
                    let saddr = kb.reg();
                    kb.push(I::And { d: saddr, a: tid, b: m63 });
                    kb.push(I::MulLo { d: saddr, a: saddr, b: four });
                    kb.push(I::StShared { addr: saddr, src: pool[rng.below(8) as usize] });
                    kb.push(I::LdShared { d: pool[rng.below(8) as usize], addr: saddr });
                }
                5 => {
                    // Divergent If with nested work in both arms.
                    let p = preds[rng.below(3) as usize];
                    let a = pool[rng.below(8) as usize];
                    let b = pool[rng.below(8) as usize];
                    let op = [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][rng.below(4) as usize];
                    kb.push(I::SetP { p, op, a, b });
                    let d = pool[rng.below(8) as usize];
                    let then_ = kb.block(|bb| {
                        bb.push(I::Add { d, a: d, b: a });
                        bb.push(I::StGlobal { buf: 2, addr: addr4, src: d });
                    });
                    let else_ = if rng.chance(2) {
                        kb.block(|bb| bb.push(I::Xor { d, a: d, b }))
                    } else {
                        vec![]
                    };
                    kb.if_(p, then_, else_);
                }
                6 => {
                    // Bounded divergent loop: count down tid & 7.
                    let m7 = kb.imm(7);
                    let ctr = kb.reg();
                    kb.push(I::And { d: ctr, a: tid, b: m7 });
                    let p = preds[rng.below(3) as usize];
                    let cond = kb.block(|b| b.push(I::SetPImm { p, op: CmpOp::Ne, a: ctr, imm: 0 }));
                    let d = pool[rng.below(8) as usize];
                    let body = kb.block(|b| {
                        b.push(I::Sub { d: ctr, a: ctr, b: one });
                        b.push(I::Add { d, a: d, b: ctr });
                    });
                    kb.while_(p, cond, body, 16);
                }
                7 => {
                    // Warp ops: ballot and shuffle.
                    let p = preds[rng.below(3) as usize];
                    let d = pool[rng.below(8) as usize];
                    kb.push(I::Ballot { d, p });
                    let lane = pool[rng.below(8) as usize];
                    let a = pool[rng.below(8) as usize];
                    kb.push(I::ShflIdx { d: pool[rng.below(8) as usize], a, lane });
                }
                _ => {
                    // Big-int division with a forced-nonzero divisor.
                    let big = kb.regs(6);
                    kb.push(I::Mov { d: big[0], a: pool[rng.below(8) as usize] });
                    kb.push(I::Mov { d: big[1], a: pool[rng.below(8) as usize] });
                    kb.push(I::Or { d: big[2], a: pool[rng.below(8) as usize], b: one });
                    let inst = if rng.chance(2) {
                        I::DivBig { d: big[3], dn: 2, a: big[0], an: 2, b: big[2], bn: 1 }
                    } else {
                        I::RemBig { d: big[3], dn: 1, a: big[0], an: 2, b: big[2], bn: 1 }
                    };
                    kb.push(inst);
                }
            }
        }
        // Make every pool register observable.
        for (i, &r) in pool.iter().enumerate() {
            if i % 2 == 0 {
                kb.push(I::StGlobal { buf: 2, addr: addr4, src: r });
            }
        }
        kb.finish(format!("fuzz_{idx}"), 24)
    }

    fn fuzz_mem(rng: &mut Rng) -> GlobalMem {
        let mut mem = GlobalMem::new();
        for _ in 0..2 {
            let bytes: Vec<u8> = (0..4 * N_THREADS).map(|_| rng.next() as u8).collect();
            mem.add_buffer(bytes);
        }
        mem.alloc(4 * N_THREADS);
        mem
    }

    fn run_mode(
        kernel: &Kernel,
        base: &GlobalMem,
        backend: ExecBackend,
    ) -> (Result<ExecStats, SimError>, GlobalMem) {
        run_cfg(kernel, base, backend, GRID)
    }

    /// The tentpole differential guarantee: for random kernels covering
    /// divergence, loops, shared memory, byte stores, carry chains, and
    /// warp ops, the decoded interpreter *and* the closure-compiled tier
    /// are bit-identical to the tree walker — memory, stats, and errors.
    #[test]
    fn fuzz_decoded_matches_tree_bit_exact() {
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let mut errors_seen = 0usize;
        for idx in 0..48 {
            let with_errors = idx % 7 == 3;
            let kernel = random_kernel(&mut rng, idx, with_errors);
            let base = fuzz_mem(&mut rng);
            let (oracle_res, oracle_mem) = run_mode(&kernel, &base, ExecBackend::Tree);
            if oracle_res.is_err() {
                errors_seen += 1;
            }
            for (backend, isa) in forced_isa::tiers() {
                let (res, mem) = forced_isa::with(isa, || run_mode(&kernel, &base, backend));
                assert_eq!(res, oracle_res, "kernel {idx}: result diverged under {backend}/{isa}");
                if oracle_res.is_ok() {
                    for b in 0..3 {
                        assert_eq!(
                            mem.buffer(b),
                            oracle_mem.buffer(b),
                            "kernel {idx}: buffer {b} diverged under {backend}/{isa}"
                        );
                    }
                }
            }
        }
        // The error-injecting kernels must actually exercise error paths.
        assert!(errors_seen >= 2, "fuzz generated only {errors_seen} failing kernels");
    }

    /// A byte-store-dense kernel in the shape of the §III-D codec
    /// kernels: a lane-affine base address (`gid · lb`) walked byte by
    /// byte through load/store runs, salted with the compiled tier's
    /// hard cases — interpreter-fallback steps (shared memory) inside
    /// otherwise-lowered superblocks, data-dependent (non-affine)
    /// scatter addresses, and divergent byte stores that keep the warp
    /// off the full-mask path entirely.
    fn byte_dense_kernel(rng: &mut Rng, idx: usize) -> Kernel {
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        let gid = kb.reg();
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let lb = 1 + rng.below(4); // limb width in bytes: 1..=4
        let lbr = kb.imm(lb);
        let one = kb.imm(1);
        let addr = kb.reg();
        kb.push(I::MulLo { d: addr, a: gid, b: lbr });
        let smem_base = kb.smem(256);
        assert_eq!(smem_base, 0);
        let acc = kb.reg();
        kb.push(I::MovImm { d: acc, imm: 0 });
        let v = kb.reg();
        let p = kb.pred();

        let n_runs = 2 + rng.below(4);
        for _ in 0..n_runs {
            // One codec-style byte run: lb loads + stores, bumping the
            // affine address between bytes.
            kb.push(I::MulLo { d: addr, a: gid, b: lbr });
            for _ in 0..lb {
                kb.push(I::LdGlobalU8 { d: v, buf: rng.below(2) as u8, addr });
                kb.push(I::Add { d: acc, a: acc, b: v });
                kb.push(I::StGlobalU8 { buf: 2, addr, src: acc });
                kb.push(I::Add { d: addr, a: addr, b: one });
            }
            match rng.below(4) {
                0 => {
                    // Interpreter fallback mid-superblock: a shared-memory
                    // round trip between byte runs (mixed lowered/fallback
                    // superblock).
                    let m63 = kb.imm(63);
                    let four = kb.imm(4);
                    let saddr = kb.reg();
                    kb.push(I::And { d: saddr, a: tid, b: m63 });
                    kb.push(I::MulLo { d: saddr, a: saddr, b: four });
                    kb.push(I::StShared { addr: saddr, src: acc });
                    kb.push(I::LdShared { d: acc, addr: saddr });
                }
                1 => {
                    // Non-affine scatter: a data-dependent byte store the
                    // runtime verification must reject into the per-lane
                    // path (masked in-bounds).
                    let m = kb.imm(4 * N_THREADS as u32 - 1);
                    let sc = kb.reg();
                    kb.push(I::And { d: sc, a: acc, b: m });
                    kb.push(I::StGlobalU8 { buf: 2, addr: sc, src: v });
                }
                2 => {
                    // Divergent byte store: the warp leaves the full-mask
                    // path, so these frames interpret per-lane.
                    let thr = rng.below(N_THREADS as u32);
                    kb.push(I::SetPImm { p, op: CmpOp::Lt, a: gid, imm: thr });
                    let body = kb.block(|b| {
                        b.push(I::StGlobalU8 { buf: 2, addr: gid, src: acc });
                    });
                    kb.if_(p, body, vec![]);
                }
                _ => {}
            }
        }
        // Word-granular epilogue over the same data.
        let four = kb.imm(4);
        let addr4 = kb.reg();
        kb.push(I::MulLo { d: addr4, a: gid, b: four });
        kb.push(I::StGlobal { buf: 2, addr: addr4, src: acc });
        kb.finish(format!("byte_dense_{idx}"), 24)
    }

    fn run_cfg(
        kernel: &Kernel,
        base: &GlobalMem,
        backend: ExecBackend,
        cfg: LaunchConfig,
    ) -> (Result<ExecStats, SimError>, GlobalMem) {
        run_tuples(kernel, base, backend, cfg, N_THREADS as u32)
    }

    /// Satellite of the mem-thunk lowering: the byte-store-dense class
    /// across every backend, including a tail
    /// warp geometry (`block_threads` not a multiple of 32) so the bulk
    /// paths run with `lanes_n < 32`. `assert_eq!` on `res` covers the
    /// whole `ExecStats` — coalescing counts and the f64 cycle stream —
    /// so a lowered thunk that dedups or prices differently from the
    /// tree walker fails here.
    #[test]
    fn fuzz_byte_dense_matches_tree_bit_exact() {
        let mut rng = Rng(0x5eed_beef_c0de_c0de);
        for idx in 0..32 {
            let kernel = byte_dense_kernel(&mut rng, idx);
            let base = fuzz_mem(&mut rng);
            for cfg in [GRID, LaunchConfig { grid_blocks: 4, block_threads: 48 }] {
                let (oracle_res, oracle_mem) = run_cfg(&kernel, &base, ExecBackend::Tree, cfg);
                for (backend, isa) in forced_isa::tiers() {
                    let (res, mem) = forced_isa::with(isa, || run_cfg(&kernel, &base, backend, cfg));
                    assert_eq!(
                        res, oracle_res,
                        "kernel {idx}: stats diverged under {backend}/{isa} ({} threads/block)",
                        cfg.block_threads
                    );
                    for b in 0..3 {
                        assert_eq!(
                            mem.buffer(b),
                            oracle_mem.buffer(b),
                            "kernel {idx}: buffer {b} diverged under {backend}/{isa} ({} threads/block)",
                            cfg.block_threads
                        );
                    }
                }
            }
        }
    }

    /// Tuples a codec-shaped kernel covers (its buffers are sized for it).
    const CODEC_TUPLES: u32 = 200;

    /// A random kernel in the shape of the §III-B2 compact codec, the
    /// input of the compiled tier's codec-run fusion: a grid-stride loop
    /// whose body expands 1–3 compact columns (`Lb` 1..=128 byte loads
    /// through a bumped lane-affine address, shifted and OR-ed into
    /// words, sign bit split off the top byte), mixes the words, and
    /// writes a compact result back byte by byte (`mov`/`shr`, sign tail,
    /// `st.global.u8`). Salted with what the fusion must get right or
    /// refuse: shifts ≥ 24 that push bits out of the word, random
    /// `shl`/`shr`/`and` chains on a byte, words that are *not* zeroed
    /// first (run-entry rows) and are copied after being OR-ed into, a
    /// loaded byte kept across the next load into the same row, repeated
    /// offsets, bumps of 64+ bytes (offsets that no longer tile the
    /// span, reading into the 256 bytes of slack each buffer carries),
    /// the bump placed before or after the combine, non-codec
    /// instructions in mid-run, and in-place runs (load, then store, on
    /// the output buffer). Every
    /// temporary is folded into a word store per tuple, so a dead row
    /// with a wrong final value shows. Returns the kernel and its four
    /// buffer lengths.
    fn codec_kernel(rng: &mut Rng, idx: usize) -> (Kernel, [usize; 4]) {
        let pick_lb = |rng: &mut Rng| {
            if rng.chance(3) { 1 + rng.below(128) } else { 1 + rng.below(12) }
        };
        let lbs = [pick_lb(rng), pick_lb(rng), pick_lb(rng)];
        let mut kb = KernelBuilder::new();
        let (tid, ctaid, ntid, nctaid) = (kb.reg(), kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        kb.push(I::MovSpecial { d: nctaid, s: Special::NCtaIdX });
        let (i, step, n) = (kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MulLo { d: i, a: ctaid, b: ntid });
        kb.push(I::Add { d: i, a: i, b: tid });
        kb.push(I::MulLo { d: step, a: ntid, b: nctaid });
        kb.push(I::LdParam { d: n, idx: 0 });
        let one = kb.imm(1);
        let p = kb.pred();
        let cond = kb.block(|b| b.push(I::SetP { p, op: CmpOp::Lt, a: i, b: n }));
        let body = kb.block(|b| {
            let seven = b.imm(7);
            let mask7f = b.imm(0x7f);
            let (sign, tmp, keep, save, acc) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
            let lw_out = (lbs[2] as usize).div_ceil(4);
            let out_words = b.regs(lw_out);
            for &w in &out_words {
                b.push(I::Mov { d: w, a: i });
            }
            // Load runs.
            for _ in 0..1 + rng.below(3) {
                let buf = rng.below(3) as u8;
                let lb = lbs[buf as usize];
                let words = b.regs((lb as usize).div_ceil(4));
                if !rng.chance(4) {
                    for &w in &words {
                        b.push(I::MovImm { d: w, imm: 0 });
                    }
                }
                let addr = b.reg();
                let lbr = b.imm(lb);
                b.push(I::MulLo { d: addr, a: i, b: lbr });
                let shared_byte = b.reg();
                let mut kept = false;
                // Jumps read other tuples' bytes: inputs only, or blocks
                // would race on the output buffer.
                let mut jumps = if buf == 2 { 0 } else { 2 };
                for bi in 0..lb {
                    let byte = if rng.chance(4) { b.reg() } else { shared_byte };
                    b.push(I::LdGlobalU8 { d: byte, buf, addr });
                    let bump_first = rng.chance(2);
                    // One time in ten the bump is skipped: the next load
                    // repeats this offset.
                    let bump = bi + 1 < lb && !rng.chance(10);
                    let by = if jumps > 0 && rng.chance(16) {
                        jumps -= 1;
                        b.imm(64 + rng.below(27))
                    } else {
                        one
                    };
                    if bump && bump_first {
                        b.push(I::Add { d: addr, a: addr, b: by });
                    }
                    let mut src = byte;
                    if bi == lb - 1 {
                        b.push(I::Shr { d: sign, a: byte, b: seven });
                        b.push(I::And { d: tmp, a: byte, b: mask7f });
                        src = tmp;
                    }
                    let w = words[bi as usize / 4];
                    if kept {
                        // The byte kept from the previous load, whose row
                        // has been loaded over since.
                        b.push(I::Or { d: w, a: w, b: keep });
                        kept = false;
                    }
                    if rng.chance(8) {
                        // A random walk through the term algebra.
                        for _ in 0..1 + rng.below(3) {
                            let (k, t) = (b.imm(rng.next() >> rng.below(28)), b.reg());
                            b.push(match rng.below(3) {
                                0 => I::Shl { d: t, a: src, b: k },
                                1 => I::Shr { d: t, a: src, b: k },
                                _ => I::And { d: t, a: k, b: src },
                            });
                            src = t;
                        }
                    }
                    let shift = if rng.chance(8) { 24 + rng.below(8) } else { bi % 4 * 8 };
                    if shift == 0 {
                        b.push(I::Or { d: w, a: w, b: src });
                    } else {
                        let sh = b.imm(shift);
                        let shifted = b.reg();
                        b.push(I::Shl { d: shifted, a: src, b: sh });
                        b.push(I::Or { d: w, a: w, b: shifted });
                    }
                    if rng.chance(6) {
                        b.push(I::Mov { d: keep, a: byte });
                        kept = true;
                    }
                    if rng.chance(12) {
                        b.push(I::Mov { d: save, a: w });
                    }
                    if rng.chance(24) {
                        // Outside the fusable algebra: splits the run.
                        b.push(I::Xor { d: acc, a: acc, b: byte });
                    }
                    if bump && !bump_first {
                        b.push(I::Add { d: addr, a: addr, b: by });
                    }
                }
                b.push(I::Xor { d: acc, a: acc, b: shared_byte });
                for (k, &w) in words.iter().enumerate() {
                    let o = out_words[k % lw_out];
                    b.push(I::Add { d: o, a: o, b: w });
                }
            }
            // Store run.
            let lb = lbs[2];
            let addr = b.reg();
            let lbr = b.imm(lb);
            b.push(I::MulLo { d: addr, a: i, b: lbr });
            let byte = b.reg();
            let sbit = b.reg();
            for bi in 0..lb {
                let w = out_words[bi as usize / 4];
                let shift = bi % 4 * 8;
                if shift == 0 {
                    b.push(I::Mov { d: byte, a: w });
                } else {
                    let sh = b.imm(shift);
                    b.push(I::Shr { d: byte, a: w, b: sh });
                }
                if bi == lb - 1 {
                    b.push(I::And { d: byte, a: byte, b: mask7f });
                    b.push(I::Shl { d: sbit, a: sign, b: seven });
                    b.push(I::Or { d: byte, a: byte, b: sbit });
                }
                b.push(I::StGlobalU8 { buf: 2, addr, src: byte });
                if rng.chance(30) {
                    b.push(I::Xor { d: acc, a: acc, b: byte });
                }
                if bi + 1 < lb {
                    b.push(I::Add { d: addr, a: addr, b: one });
                }
            }
            // Fold the temporaries into one word per tuple.
            for r in [sign, tmp, keep, save, byte, sbit] {
                b.push(I::Add { d: acc, a: acc, b: r });
            }
            let (four, addr4) = (b.imm(4), b.reg());
            b.push(I::MulLo { d: addr4, a: i, b: four });
            b.push(I::StGlobal { buf: 3, addr: addr4, src: acc });
            b.push(I::Add { d: i, a: i, b: step });
        });
        kb.while_(p, cond, body, 64);
        let t = CODEC_TUPLES as usize;
        let lens = [0, 1, 2].map(|k| t * lbs[k] as usize + 256);
        let lens = [lens[0], lens[1], lens[2], t * 4];
        (kb.finish(format!("codec_{idx}"), 24), lens)
    }

    fn random_mem(rng: &mut Rng, lens: &[usize]) -> GlobalMem {
        let mut mem = GlobalMem::new();
        for &len in lens {
            mem.add_buffer((0..len).map(|_| rng.next() as u8).collect());
        }
        mem
    }

    fn run_tuples(
        kernel: &Kernel,
        base: &GlobalMem,
        backend: ExecBackend,
        cfg: LaunchConfig,
        tuples: u32,
    ) -> (Result<ExecStats, SimError>, GlobalMem) {
        let mut mem = base.clone();
        let opts = LaunchOpts { backend };
        // Not yet promoted, so a compiled launch builds with the thunk set
        // forced for this thread.
        let kernel = Kernel { tier: Default::default(), ..kernel.clone() };
        let res = launch_opts(&kernel, cfg, &DeviceConfig::tiny(), &mut mem, &[tuples], opts);
        (res, mem)
    }

    /// Asserts every tier agrees with the tree walker on the result (full `ExecStats` incl. the f64 cycle sum, or
    /// the exact error) and, on success, on every buffer.
    fn assert_tiers_agree(
        kernel: &Kernel,
        (base, n_bufs): (&GlobalMem, u8),
        cfg: LaunchConfig,
        tuples: u32,
        what: &str,
    ) {
        let (oracle_res, oracle_mem) = run_tuples(kernel, base, ExecBackend::Tree, cfg, tuples);
        for (backend, isa) in forced_isa::tiers() {
            let (res, mem) = forced_isa::with(isa, || run_tuples(kernel, base, backend, cfg, tuples));
            let at = format!("{what}: {backend}/{isa}, {} threads/block", cfg.block_threads);
            assert_eq!(
                res.as_ref().map(|s| s.warp_issue_cycles.to_bits()),
                oracle_res.as_ref().map(|s| s.warp_issue_cycles.to_bits()),
                "{at}"
            );
            assert_eq!(res, oracle_res, "{at}");
            if oracle_res.is_ok() {
                for b in 0..n_bufs {
                    assert_eq!(mem.buffer(b), oracle_mem.buffer(b), "{at}: buffer {b}");
                }
            }
        }
    }

    /// The codec-run fusion's differential class: codec-shaped kernels ×
    /// full and tail warps × one-trip and grid-stride launches × all three
    /// tiers.
    #[test]
    fn fuzz_codec_runs_match_tree_bit_exact() {
        let mut rng = Rng(0xc0de_c0de_5eed_0016);
        let (mut fused_runs, mut mem_insts, mut fused_mem_insts) = (0, 0, 0);
        for idx in 0..40 {
            let (kernel, lens) = codec_kernel(&mut rng, idx);
            let base = random_mem(&mut rng, &lens);
            for cfg in [
                LaunchConfig { grid_blocks: 4, block_threads: 64 },
                LaunchConfig { grid_blocks: 2, block_threads: 48 },
            ] {
                assert_tiers_agree(&kernel, (&base, 4), cfg, CODEC_TUPLES, &format!("kernel {idx}"));
            }
            let cp = kernel.compiled_program();
            fused_runs += cp.fused_codec_run_count();
            mem_insts += cp.mem_inst_count();
            fused_mem_insts += cp.fused_codec_mem_inst_count();
        }
        assert!(fused_runs >= 80, "only {fused_runs} fused runs: the class misses the fusion");
        assert!(
            fused_mem_insts * 10 >= mem_insts * 8,
            "{fused_mem_insts} of {mem_insts} memory instructions fused"
        );
    }

    /// A one-trip kernel around `body(builder, gid, one)` for the fused
    /// run's refusal cases below; 256 threads as [`GRID`].
    fn gid_kernel(name: &str, body: impl FnOnce(&mut KernelBuilder, Reg, Reg)) -> Kernel {
        let mut kb = KernelBuilder::new();
        let (tid, ctaid, ntid, gid) = (kb.reg(), kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let one = kb.imm(1);
        body(&mut kb, gid, one);
        kb.finish(name, 16)
    }

    /// `lb` byte loads from buffer 0 through `addr` (bumped by one),
    /// assembled little-endian into a word stored to buffer 1 at `gid·4`.
    fn load_run_to_word(kb: &mut KernelBuilder, addr: Reg, lb: u32, gid: Reg, one: Reg) {
        let (word, byte, shifted) = (kb.imm(0), kb.reg(), kb.reg());
        for bi in 0..lb {
            kb.push(I::LdGlobalU8 { d: byte, buf: 0, addr });
            kb.push(I::Add { d: addr, a: addr, b: one });
            let sh = kb.imm(bi * 8);
            kb.push(I::Shl { d: shifted, a: byte, b: sh });
            kb.push(I::Or { d: word, a: word, b: shifted });
        }
        let (four, addr4) = (kb.imm(4), kb.reg());
        kb.push(I::MulLo { d: addr4, a: gid, b: four });
        kb.push(I::StGlobal { buf: 1, addr: addr4, src: word });
    }

    /// A fused run whose span leaves the buffer at one lane's third byte
    /// must fail its bounds precondition as a whole and re-run unfused,
    /// surfacing the tree walker's error: same buffer, same address.
    #[test]
    fn fused_run_out_of_bounds_at_one_lane_takes_the_fallback() {
        let kernel = gid_kernel("codec_oob", |kb, gid, one| {
            let (four, addr) = (kb.imm(4), kb.reg());
            kb.push(I::MulLo { d: addr, a: gid, b: four });
            load_run_to_word(kb, addr, 4, gid, one);
        });
        assert_eq!(kernel.compiled_program().fused_codec_run_count(), 1);
        let mut rng = Rng(0x00b0_00b0_00b0_00b0);
        // Thread 255 reads 1020..1024: its third byte is the first miss.
        let base = random_mem(&mut rng, &[4 * N_THREADS - 2, 4 * N_THREADS]);
        let (res, _) = run_mode(&kernel, &base, ExecBackend::Tree);
        assert_eq!(res, Err(SimError::OutOfBounds { buf: 0, addr: 1022, len: 1022 }));
        assert_tiers_agree(&kernel, (&base, 2), GRID, 0, "span out of bounds");
    }

    /// The analysis joins two same-stride assignments of the address row
    /// into one lane-affine hint; when the branch diverges inside a warp
    /// the live row is not affine, the fused run's first precondition
    /// fails, and the per-lane fallback must reproduce the tree walker.
    #[test]
    fn fused_run_with_a_non_affine_address_row_takes_the_fallback() {
        let kernel = gid_kernel("codec_non_affine", |kb, gid, one| {
            let (three, far, odd, addr) = (kb.imm(3), kb.imm(2048), kb.reg(), kb.reg());
            kb.push(I::And { d: odd, a: gid, b: one });
            let p = kb.pred();
            kb.push(I::SetPImm { p, op: CmpOp::Eq, a: odd, imm: 0 });
            let even_ = kb.block(|b| b.push(I::MulLo { d: addr, a: gid, b: three }));
            let odd_ = kb.block(|b| {
                b.push(I::MulLo { d: addr, a: gid, b: three });
                b.push(I::Add { d: addr, a: addr, b: far });
            });
            kb.if_(p, even_, odd_);
            load_run_to_word(kb, addr, 3, gid, one);
        });
        let cp = kernel.compiled_program();
        assert_eq!(cp.fused_codec_run_count(), 1, "the hint is lane-affine, so the run fuses");
        let mut rng = Rng(0x0dd0_0dd0_0dd0_0dd0);
        let base = random_mem(&mut rng, &[3 * N_THREADS + 2048, 4 * N_THREADS]);
        assert_tiers_agree(&kernel, (&base, 2), GRID, 0, "non-affine address row");
    }

    /// Store runs the fusion must split: a repeated offset (the later
    /// store wins) and a lane stride below the bytes stored per lane
    /// (neighbouring lanes overlap, so byte-plane order is observable).
    /// Each legal piece still fuses.
    #[test]
    fn store_runs_with_repeated_or_overlapping_offsets_are_split() {
        // (name, lane stride, whether store k is followed by a bump,
        // expected fused runs, expected fused stores)
        for (name, stride, bumps, runs, fused_stores) in [
            ("dup_offset", 4, [false, true, true], 1, 3),
            ("lanes_overlap", 2, [true, true, true], 2, 4),
        ] {
            let kernel = gid_kernel(name, |kb, gid, one| {
                let (k, addr, byte) = (kb.imm(stride), kb.reg(), kb.reg());
                kb.push(I::MulLo { d: addr, a: gid, b: k });
                for bi in 0..4u32 {
                    let (sh, salt) = (kb.imm(bi * 2), kb.imm(0x11 * (bi + 1)));
                    kb.push(I::Shr { d: byte, a: gid, b: sh });
                    kb.push(I::Or { d: byte, a: byte, b: salt });
                    kb.push(I::StGlobalU8 { buf: 0, addr, src: byte });
                    if bumps.get(bi as usize) == Some(&true) {
                        kb.push(I::Add { d: addr, a: addr, b: one });
                    }
                }
            });
            let cp = kernel.compiled_program();
            assert_eq!(cp.mem_inst_count(), 4, "{name}");
            assert_eq!(
                (cp.fused_codec_run_count(), cp.fused_codec_mem_inst_count()),
                (runs, fused_stores),
                "{name}"
            );
            let base = random_mem(&mut Rng(0x0057_07e5), &[4 * N_THREADS + 8]);
            assert_tiers_agree(&kernel, (&base, 1), GRID, 0, name);
        }
    }

    /// The fusion takes operand constants from the static analysis
    /// without re-checking them, so the analysis must not claim one where
    /// lanes or loop trips differ: a shift amount assigned on one side of
    /// a divergent branch only (the other lanes keep the zeroed file's
    /// 0), and one a loop's *condition* block increments every trip.
    #[test]
    fn fusion_does_not_trust_constants_that_vary_by_lane_or_by_trip() {
        let by_lane = gid_kernel("const_by_lane", |kb, gid, one| {
            let (three, odd, addr, sh) = (kb.imm(3), kb.reg(), kb.reg(), kb.reg());
            kb.push(I::And { d: odd, a: gid, b: one });
            let p = kb.pred();
            kb.push(I::SetPImm { p, op: CmpOp::Eq, a: odd, imm: 1 });
            let then_ = kb.block(|b| b.push(I::MovImm { d: sh, imm: 8 }));
            kb.if_(p, then_, vec![]);
            kb.push(I::MulLo { d: addr, a: gid, b: three });
            let (word, byte) = (kb.imm(0), kb.reg());
            for _ in 0..3 {
                kb.push(I::LdGlobalU8 { d: byte, buf: 0, addr });
                kb.push(I::Add { d: addr, a: addr, b: one });
                kb.push(I::Shl { d: word, a: word, b: sh });
                kb.push(I::Or { d: word, a: word, b: byte });
            }
            let (four, addr4) = (kb.imm(4), kb.reg());
            kb.push(I::MulLo { d: addr4, a: gid, b: four });
            kb.push(I::StGlobal { buf: 1, addr: addr4, src: word });
        });
        let by_trip = gid_kernel("const_by_trip", |kb, gid, one| {
            let (three, k, trips, addr) = (kb.imm(3), kb.reg(), kb.reg(), kb.reg());
            let (word, byte) = (kb.imm(0), kb.reg());
            let (four, addr4) = (kb.imm(4), kb.reg());
            kb.push(I::MulLo { d: addr4, a: gid, b: four });
            let p = kb.pred();
            let cond = kb.block(|b| {
                b.push(I::Add { d: k, a: k, b: one });
                b.push(I::SetPImm { p, op: CmpOp::Lt, a: trips, imm: 3 });
            });
            let body = kb.block(|b| {
                b.push(I::MulLo { d: addr, a: gid, b: three });
                for _ in 0..3 {
                    b.push(I::LdGlobalU8 { d: byte, buf: 0, addr });
                    b.push(I::Add { d: addr, a: addr, b: one });
                    b.push(I::Shl { d: word, a: word, b: k });
                    b.push(I::Or { d: word, a: word, b: byte });
                }
                b.push(I::StGlobal { buf: 1, addr: addr4, src: word });
                b.push(I::Add { d: trips, a: trips, b: one });
            });
            kb.while_(p, cond, body, 8);
        });
        let base = random_mem(&mut Rng(0xc0_75), &[3 * N_THREADS, 4 * N_THREADS]);
        for kernel in [by_lane, by_trip] {
            assert_tiers_agree(&kernel, (&base, 2), GRID, 0, &kernel.name);
        }
    }

    /// A codec-shaped load run: `lb` byte loads from buffer 0 through
    /// `addr` (bumped by one between bytes), assembled little-endian into
    /// `⌈lb/4⌉` consecutive zeroed word registers. Returns the words and
    /// the shift temporary, which ends up holding the last shifted byte.
    fn load_run(kb: &mut KernelBuilder, addr: Reg, lb: u32, one: Reg) -> (Vec<Reg>, Reg) {
        let words = kb.regs((lb as usize).div_ceil(4));
        for &w in &words {
            kb.push(I::MovImm { d: w, imm: 0 });
        }
        let (byte, shifted) = (kb.reg(), kb.reg());
        for bi in 0..lb {
            kb.push(I::LdGlobalU8 { d: byte, buf: 0, addr });
            if bi + 1 < lb {
                kb.push(I::Add { d: addr, a: addr, b: one });
            }
            let sh = kb.imm(bi % 4 * 8);
            kb.push(I::Shl { d: shifted, a: byte, b: sh });
            let w = words[bi as usize / 4];
            kb.push(I::Or { d: w, a: w, b: shifted });
        }
        (words, shifted)
    }

    /// `buf1[gid·4] = src`.
    fn store_word(kb: &mut KernelBuilder, gid: Reg, src: Reg) {
        let (four, addr4) = (kb.imm(4), kb.reg());
        kb.push(I::MulLo { d: addr4, a: gid, b: four });
        kb.push(I::StGlobal { buf: 1, addr: addr4, src });
    }

    /// Reads the fused run's shift temporary at the top of the *next*
    /// loop trip: live only around the `WhileEnd → cond_pc` edge.
    fn next_trip_kernel() -> Kernel {
        gid_kernel("live_next_trip", |kb, gid, one| {
            let (three, trips, addr, acc) = (kb.imm(3), kb.reg(), kb.reg(), kb.reg());
            let p = kb.pred();
            let cond = kb.block(|b| b.push(I::SetPImm { p, op: CmpOp::Lt, a: trips, imm: 3 }));
            let shifted = kb.reg();
            let body = kb.block(|b| {
                b.push(I::Xor { d: acc, a: acc, b: shifted });
                b.push(I::MulLo { d: addr, a: gid, b: three });
                let (words, tmp) = load_run(b, addr, 3, one);
                b.push(I::Mov { d: shifted, a: tmp });
                b.push(I::Add { d: acc, a: acc, b: words[0] });
                store_word(b, gid, acc);
                b.push(I::Add { d: trips, a: trips, b: one });
            });
            kb.while_(p, cond, body, 8);
        })
    }

    /// An exactly-sized buffer under a 7-byte run: the second word window
    /// must be pulled back to offset 3, or the last lane reads past it.
    fn tight_span_kernel() -> Kernel {
        gid_kernel("tight_span", |kb, gid, one| {
            let (seven, addr) = (kb.imm(7), kb.reg());
            kb.push(I::MulLo { d: addr, a: gid, b: seven });
            let (words, _) = load_run(kb, addr, 7, one);
            kb.push(I::Xor { d: words[0], a: words[0], b: words[1] });
            store_word(kb, gid, words[0]);
        })
    }

    /// The poison differential mode's directed cases. In test builds every
    /// fused step overwrites the rows it pruned as dead with `0xDEADBEEF`
    /// (the three fuzz classes above run that way too), so a row the
    /// liveness pass wrongly prunes reaches an output. Each kernel reads a
    /// row a fused run wrote somewhere a sloppy analysis would miss: on the
    /// next loop trip, in an `else` arm only, as the second row of a
    /// `DivBig` operand, through a shuffle — where the lanes a branch left
    /// out must still read the zeroed file, not the previous warp's row —
    /// and all of it under a 5-lane tail warp as well.
    #[test]
    fn poisoned_dead_rows_are_never_observed() {
        let else_arm = gid_kernel("live_in_else_arm", |kb, gid, one| {
            let (three, addr, odd, acc) = (kb.imm(3), kb.reg(), kb.reg(), kb.reg());
            kb.push(I::MulLo { d: addr, a: gid, b: three });
            let (words, shifted) = load_run(kb, addr, 3, one);
            kb.push(I::And { d: odd, a: gid, b: one });
            let p = kb.pred();
            kb.push(I::SetPImm { p, op: CmpOp::Eq, a: odd, imm: 1 });
            let then_ = kb.block(|b| b.push(I::Mov { d: acc, a: words[0] }));
            let else_ = kb.block(|b| b.push(I::Add { d: acc, a: words[0], b: shifted }));
            kb.if_(p, then_, else_);
            store_word(kb, gid, acc);
        });
        let div_big = gid_kernel("live_div_big_rows", |kb, gid, one| {
            let (eight, addr, b) = (kb.imm(8), kb.reg(), kb.reg());
            kb.push(I::MulLo { d: addr, a: gid, b: eight });
            let (words, _) = load_run(kb, addr, 8, one);
            kb.push(I::Or { d: b, a: gid, b: one });
            let q = kb.regs(2);
            kb.push(I::DivBig { d: q[0], dn: 2, a: words[0], an: 2, b, bn: 1 });
            kb.push(I::Xor { d: q[0], a: q[0], b: q[1] });
            store_word(kb, gid, q[0]);
        });
        let shuffle = gid_kernel("live_shuffle_source", |kb, gid, one| {
            let (three, addr, lane, x, got) = (kb.imm(3), kb.reg(), kb.reg(), kb.reg(), kb.reg());
            kb.push(I::MulLo { d: addr, a: gid, b: three });
            let (words, _) = load_run(kb, addr, 3, one);
            kb.push(I::Add { d: lane, a: gid, b: one });
            kb.push(I::ShflIdx { d: got, a: words[0], lane });
            let p = kb.pred();
            kb.push(I::SetPImm { p, op: CmpOp::Lt, a: words[0], imm: 1 << 23 });
            // `x` is written and shuffled inside the arm only: the lanes
            // outside it never write theirs, yet are read.
            let then_ = kb.block(|b| {
                b.push(I::Mov { d: x, a: words[0] });
                b.push(I::ShflIdx { d: x, a: x, lane });
                b.push(I::Add { d: got, a: got, b: x });
            });
            kb.if_(p, then_, vec![]);
            store_word(kb, gid, got);
        });
        let base = random_mem(&mut Rng(0xdead_beef), &[8 * N_THREADS, 4 * N_THREADS]);
        for kernel in [next_trip_kernel(), tight_span_kernel(), else_arm, div_big, shuffle] {
            assert_eq!(kernel.compiled_program().fused_codec_run_count(), 1, "{}", kernel.name);
            for cfg in [GRID, LaunchConfig { grid_blocks: 3, block_threads: 37 }] {
                assert_tiers_agree(&kernel, (&base, 2), cfg, 0, &kernel.name);
            }
        }
        // The pulled-back window, against a buffer with no byte to spare.
        let tight = random_mem(&mut Rng(0x7197), &[7 * N_THREADS, 4 * N_THREADS]);
        assert_tiers_agree(&tight_span_kernel(), (&tight, 2), GRID, 0, "tight span, tight buffer");
        let shape = tight_span_kernel().compiled_program().fused_runs()[0].clone();
        assert_eq!((shape.word_planes, shape.byte_planes), (2, 0), "{shape:?}");
        // Two words survive; the byte, the shift temporary and the seven
        // shift-amount immediates do not.
        assert_eq!((shape.rows_written, shape.rows_live), (11, 2), "{shape:?}");
    }

    /// The suite catches the two seeded bugs [`crate::analysis::seeded_bug`]
    /// can plant in a promotion: a liveness pass without the loop back edge
    /// (the pruned row's poison reaches the output), and a word window that
    /// ignores `off + 4 > span` (the last lane reads past the buffer).
    #[test]
    fn seeded_liveness_and_word_window_bugs_are_caught() {
        use crate::analysis::seeded_bug::{with, Bug};
        let base = random_mem(&mut Rng(0x005e_eded), &[7 * N_THREADS, 4 * N_THREADS]);
        let caught = [
            (Bug::LivenessDropsBackEdge, next_trip_kernel as fn() -> Kernel),
            (Bug::WordWindowIgnoresSpan, tight_span_kernel),
        ]
        .map(|(bug, kernel)| {
            // Promotion (analysis and lowering) runs on this thread.
            with(bug, || {
                let kernel = kernel();
                let check = || assert_tiers_agree(&kernel, (&base, 2), GRID, 0, "seeded");
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_err()
            })
        });
        assert_eq!(caught, [true, true], "a seeded bug went unnoticed");
        for kernel in [next_trip_kernel(), tight_span_kernel()] {
            assert_tiers_agree(&kernel, (&base, 2), GRID, 0, "unseeded");
        }
    }

    /// A one-trip kernel over `x`, `y` (buffers 0 and 2 at `gid·4`): the
    /// row `body` returns, with the final carry flag folded into its top
    /// bit, is stored to buffer 1 — so every lane's carry row is observed.
    fn carry_kernel(
        name: &str,
        body: impl FnOnce(&mut KernelBuilder, Reg, Reg, Reg, Reg) -> Reg,
    ) -> Kernel {
        gid_kernel(name, |kb, gid, one| {
            let (four, addr4, x, y) = (kb.imm(4), kb.reg(), kb.reg(), kb.reg());
            kb.push(I::MulLo { d: addr4, a: gid, b: four });
            kb.push(I::LdGlobal { d: x, buf: 0, addr: addr4 });
            kb.push(I::LdGlobal { d: y, buf: 2, addr: addr4 });
            let out = body(kb, gid, one, x, y);
            let (zero, flag, top) = (kb.imm(0), kb.reg(), kb.imm(31));
            kb.push(I::AddC { d: flag, a: zero, b: zero });
            kb.push(I::Shl { d: flag, a: flag, b: top });
            kb.push(I::Xor { d: out, a: out, b: flag });
            store_word(kb, gid, out);
        })
    }

    /// The carry row across every seam between the tiers: a chain whose
    /// first op is `addc`, consuming a carry some lanes set inside a
    /// divergent `if` (the masked interpreter) and the rest before it; two
    /// chains split by a `DivBig` interpreter step (a three-word divisor,
    /// so the 64-bit division runs); `sub.cc`/`mad.lo.cc`/`madc.hi`/`subc`
    /// mixed in one chain; and a carry live across a divergent `while`
    /// back edge. Full warps and a 5-lane tail warp, all three tiers,
    /// poison mode included.
    #[test]
    fn carry_row_crosses_tier_boundaries() {
        let after_if = carry_kernel("addc_after_divergent_if", |kb, _, _, x, y| {
            let (s, t) = (kb.reg(), kb.reg());
            kb.push(I::Mov { d: t, a: x });
            kb.push(I::AddCC { d: s, a: y, b: x });
            let p = kb.pred();
            kb.push(I::SetP { p, op: CmpOp::Lt, a: x, b: y });
            let then_ = kb.block(|b| {
                b.push(I::AddCC { d: t, a: x, b: x });
                b.push(I::AddC { d: s, a: s, b: y });
                b.push(I::AddCC { d: t, a: t, b: y });
            });
            kb.if_(p, then_, vec![]);
            kb.push(I::AddC { d: s, a: s, b: x });
            kb.push(I::AddC { d: t, a: t, b: y });
            kb.push(I::Xor { d: s, a: s, b: t });
            s
        });
        let split = carry_kernel("chain_split_by_div_big", |kb, gid, one, x, y| {
            let (a, b, q) = (kb.regs(4), kb.regs(3), kb.regs(2));
            kb.push(I::Or { d: b[2], a: gid, b: one });
            kb.push(I::Mov { d: b[0], a: y });
            kb.push(I::Mov { d: b[1], a: x });
            kb.push(I::Mov { d: a[0], a: x });
            kb.push(I::Mov { d: a[1], a: y });
            kb.push(I::AddCC { d: a[2], a: x, b: y });
            kb.push(I::AddC { d: a[3], a: y, b: x });
            kb.push(I::DivBig { d: q[0], dn: 2, a: a[0], an: 4, b: b[0], bn: 3 });
            kb.push(I::AddC { d: q[0], a: q[0], b: x });
            kb.push(I::MadHiC { d: q[1], a: q[1], b: y, c: x });
            kb.push(I::Xor { d: q[0], a: q[0], b: q[1] });
            q[0]
        });
        let mixed = carry_kernel("mixed_chain", |kb, _, _, x, y| {
            let (d0, d1, d2) = (kb.reg(), kb.reg(), kb.reg());
            kb.push(I::SubCC { d: d0, a: x, b: y });
            kb.push(I::MadLoCC { d: d1, a: x, b: y, c: d0 });
            kb.push(I::SubC { d: d2, a: y, b: d1 });
            kb.push(I::MadHiC { d: d0, a: d1, b: x, c: d2 });
            kb.push(I::AddC { d: d1, a: d1, b: d0 });
            kb.push(I::SubC { d: d2, a: d2, b: x });
            kb.push(I::Xor { d: d0, a: d0, b: d1 });
            kb.push(I::Xor { d: d0, a: d0, b: d2 });
            d0
        });
        let back_edge = carry_kernel("carry_live_across_back_edge", |kb, gid, one, x, y| {
            let (acc, trips, lim, three) = (kb.reg(), kb.reg(), kb.reg(), kb.imm(3));
            kb.push(I::AddCC { d: acc, a: x, b: y });
            kb.push(I::And { d: lim, a: gid, b: three });
            kb.push(I::Add { d: lim, a: lim, b: one });
            kb.push(I::Add { d: lim, a: lim, b: one });
            let p = kb.pred();
            let cond = kb.block(|b| b.push(I::SetP { p, op: CmpOp::Lt, a: trips, b: lim }));
            let body = kb.block(|b| {
                b.push(I::Add { d: trips, a: trips, b: one });
                b.push(I::AddC { d: acc, a: acc, b: x });
                b.push(I::AddCC { d: acc, a: acc, b: y });
            });
            kb.while_(p, cond, body, 8);
            acc
        });
        let base = random_mem(&mut Rng(0xca_4421), &[4 * N_THREADS; 3]);
        for kernel in [after_if, split, mixed, back_edge] {
            assert!(kernel.compiled_program().fused_chain_count() >= 1, "{}", kernel.name);
            for cfg in [GRID, LaunchConfig { grid_blocks: 3, block_threads: 37 }] {
                assert_tiers_agree(&kernel, (&base, 3), cfg, 0, &kernel.name);
            }
        }
    }

    /// `DivBig`'s data-dependent probe cost is an integer whatever the
    /// operands' lengths — with the static costs (`ptx` tests) that makes
    /// every addend of `warp_issue_cycles` integral, which the compiled
    /// tier's batched sums rely on.
    #[test]
    fn div_big_probe_cost_is_integral() {
        let mut rng = Rng(0xd1_b16);
        for _ in 0..24 {
            let (an, bn) = (1 + rng.below(4) as u8, 1 + rng.below(3) as u8);
            let rem = rng.chance(2);
            let kernel = gid_kernel("div_big_cost", |kb, gid, one| {
                let (a, b, d) = (kb.regs(an as usize), kb.regs(bn as usize), kb.regs(4));
                let (four, addr4) = (kb.imm(4), kb.reg());
                kb.push(I::MulLo { d: addr4, a: gid, b: four });
                for (k, &r) in a.iter().chain(&b).enumerate() {
                    kb.push(I::LdGlobal { d: r, buf: (k % 2) as u8, addr: addr4 });
                    let sh = kb.imm(rng.below(32));
                    kb.push(I::Shr { d: r, a: r, b: sh });
                }
                kb.push(I::Or { d: b[0], a: b[0], b: one });
                kb.push(match rem {
                    false => I::DivBig { d: d[0], dn: 4, a: a[0], an, b: b[0], bn },
                    true => I::RemBig { d: d[0], dn: bn, a: a[0], an, b: b[0], bn },
                });
            });
            let base = fuzz_mem(&mut rng);
            let (res, _) = run_mode(&kernel, &base, ExecBackend::Tree);
            let cycles = res.expect("non-zero divisors").warp_issue_cycles;
            assert!(cycles > 0.0 && cycles.fract() == 0.0, "{cycles} for {an}/{bn} words");
            assert_tiers_agree(&kernel, (&base, 2), GRID, 0, "div_big cost");
        }
    }

    /// A zero divisor on one thread — lane `k` of block 0's second warp —
    /// under a full mask, a partial one (`gid` even) and a tail warp (40
    /// threads per block, so lanes ≥ 8 do not exist): every tier at both
    /// thunk sets returns the tree walker's `SimError` where that lane is
    /// active, and its quotients or remainders where it is not. The other
    /// divisors all have three limbs, so the warp-wide path runs beside it.
    #[test]
    fn div_big_zero_divisor_at_lane_k_errors_alike_on_every_tier() {
        const AN: u8 = 6;
        const BN: u8 = 3;
        let (an, bn) = (AN as usize, BN as usize);
        let tail = LaunchConfig { grid_blocks: 2, block_threads: 40 };
        for (k, rem) in [(0u32, false), (5, true), (31, false)] {
            for (partial, cfg) in [(false, GRID), (true, GRID), (false, tail)] {
                let kernel = gid_kernel("div_big_zero_lane", |kb, gid, one| {
                    let (a, b, d) = (kb.regs(an), kb.regs(bn), kb.regs(4));
                    let (addr, four) = (kb.reg(), kb.imm(4));
                    for (buf, rows) in [(0, &a), (1, &b)] {
                        let stride = kb.imm(4 * rows.len() as u32);
                        kb.push(I::MulLo { d: addr, a: gid, b: stride });
                        for &r in rows.iter() {
                            kb.push(I::LdGlobal { d: r, buf, addr });
                            kb.push(I::Add { d: addr, a: addr, b: four });
                        }
                    }
                    let (d, a, b) = (d[0], a[0], b[0]);
                    let div = match rem {
                        false => I::DivBig { d, dn: 4, a, an: AN, b, bn: BN },
                        true => I::RemBig { d, dn: 4, a, an: AN, b, bn: BN },
                    };
                    if partial {
                        let (p, odd) = (kb.pred(), kb.reg());
                        kb.push(I::And { d: odd, a: gid, b: one });
                        kb.push(I::SetPImm { p, op: CmpOp::Eq, a: odd, imm: 0 });
                        let body = kb.block(|b| b.push(div));
                        kb.if_(p, body, vec![]);
                    } else {
                        kb.push(div);
                    }
                    let stride = kb.imm(16);
                    kb.push(I::MulLo { d: addr, a: gid, b: stride });
                    for r in d..d + 4 {
                        kb.push(I::StGlobal { buf: 2, addr, src: r });
                        kb.push(I::Add { d: addr, a: addr, b: four });
                    }
                });
                let mut base = random_mem(&mut Rng(0xd100 + k as u64), &[4 * an * N_THREADS]);
                let divisors = random_mem(&mut Rng(0xd110 + k as u64), &[4 * bn * N_THREADS]);
                let mut divisors = divisors.buffer(0).to_vec();
                for top in divisors.chunks_mut(4 * bn) {
                    top[4 * bn - 1] |= 0x10;
                }
                let zero = 32 + k;
                let exists = zero < cfg.block_threads;
                if exists {
                    divisors[4 * bn * zero as usize..][..4 * bn].fill(0);
                }
                base.add_buffer(divisors);
                base.alloc(16 * N_THREADS);
                let (tree, _) = run_cfg(&kernel, &base, ExecBackend::Tree, cfg);
                let active = exists && (!partial || zero % 2 == 0);
                assert_eq!(tree.is_err(), active, "k={k} partial={partial} {cfg:?}: {tree:?}");
                let what = format!("zero divisor at lane {k}");
                assert_tiers_agree(&kernel, (&base, 3), cfg, 0, &what);
                // A completed launch reports the lanes each path divided.
                for isa in forced_isa::available().into_iter().filter(|_| !active) {
                    let run = || run_cfg(&kernel, &base, ExecBackend::Decoded, cfg);
                    assert!(forced_isa::with(isa, run).0.is_ok());
                    let t = crate::compiled::last_launch_tiers();
                    let warp_wide = isa == ThunkIsa::Avx512;
                    assert_eq!(t.divbig_warp_lanes > 0, warp_wide, "{isa}: {t:?}");
                    assert_eq!(t.divbig_loop_lanes > 0, !warp_wide, "{isa}: {t:?}");
                }
            }
        }
    }

    /// Regression: a wild word load at `u32::MAX - 1` reaches the typed
    /// bounds error on every tier — the coalescing pass that runs ahead
    /// of the bounds check used to overflow `addr + width - 1` in u32.
    #[test]
    fn wild_address_is_out_of_bounds_not_an_overflow_on_every_tier() {
        let kernel = gid_kernel("wild_load", |kb, _, _| {
            let (addr, v) = (kb.imm(u32::MAX - 1), kb.reg());
            kb.push(I::LdGlobal { d: v, buf: 0, addr });
        });
        let base = random_mem(&mut Rng(1), &[64]);
        let (res, _) = run_mode(&kernel, &base, ExecBackend::Tree);
        assert_eq!(res, Err(SimError::OutOfBounds { buf: 0, addr: u32::MAX - 1, len: 64 }));
        assert_tiers_agree(&kernel, (&base, 1), GRID, 0, "wild address");
    }

    /// Regression for the `SectorSeen` epoch window: consecutive lowered
    /// mem thunks within a warp must share the warp's seen-sector state
    /// (dedup across ops), not re-initialize per op — the dedup counts
    /// must match the tree walker exactly, and revisiting the same
    /// sectors must actually dedup.
    #[test]
    fn lowered_mem_thunks_share_sector_window_with_tree_dedup_counts() {
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        let gid = kb.reg();
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let v = kb.reg();
        // Eight straight-line byte ops over the same warp-wide sector:
        // only the first load and first store may open transactions; the
        // rest must hit the warp's seen-sector window.
        for _ in 0..4 {
            kb.push(I::LdGlobalU8 { d: v, buf: 0, addr: gid });
            kb.push(I::StGlobalU8 { buf: 2, addr: gid, src: v });
        }
        let kernel = kb.finish("sector_reuse", 8);
        let mut rng = Rng(0x0420_5ec7_0e5e_0001);
        let base = fuzz_mem(&mut rng);
        let (tree_res, _) = run_mode(&kernel, &base, ExecBackend::Tree);
        let tree_stats = tree_res.expect("in-bounds kernel");
        let (comp_res, _) = run_mode(&kernel, &base, ExecBackend::Compiled);
        let comp_stats = comp_res.expect("in-bounds kernel");
        assert_eq!(comp_stats, tree_stats, "lowered thunks must replay coalescing exactly");
        // 8 warps × 8 byte ops = 64 op-warps, but each warp touches one
        // 32 B sector per buffer: 2 transactions per warp, not 8.
        let warps = (N_THREADS / 32) as u64;
        assert_eq!(
            comp_stats.mem_transactions, 2 * warps,
            "repeat accesses within the warp's epoch window must dedup"
        );
    }

    /// A kernel with no memory ops at all compiles to pure ALU thunks:
    /// the per-launch tier report must show zero fallback superblocks
    /// and zero fallback instructions.
    #[test]
    fn pure_alu_kernel_reports_zero_fallbacks() {
        let mut kb = KernelBuilder::new();
        let t = kb.reg();
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        let r = kb.regs(2);
        kb.push(I::MovImm { d: r[0], imm: 5 });
        kb.push(I::MulLo { d: r[1], a: t, b: r[0] });
        kb.push(I::AddCC { d: r[0], a: r[1], b: t });
        kb.push(I::AddC { d: r[1], a: r[0], b: t });
        let kernel = kb.finish("pure_alu", 8);
        let cp = kernel.compiled_program();
        assert_eq!(cp.interp_inst_count(), 0);
        assert_eq!(cp.mem_inst_count(), 0);
        assert_eq!(cp.fallback_superblock_count(), 0);
        let mut rng = Rng(0x0a10_0a10_0a10_0a10);
        let base = fuzz_mem(&mut rng);
        let (res, _) = run_mode(&kernel, &base, ExecBackend::Compiled);
        res.expect("pure ALU kernel runs clean");
        let t = crate::compiled::last_launch_tiers();
        assert_eq!(t.compiled, 1);
        assert_eq!(t.fallback_superblocks, 0, "pure-ALU kernel must report zero fallbacks");
        assert_eq!(t.fallback_insts, 0);
        assert!(t.lowered_superblocks >= 1);
        assert_eq!(t.lowered_mem_thunks, 0);
    }

    /// Error variants surface identically (not just "both failed"): drive
    /// each injected class (OOB / MaxIter / DivByZero, raised
    /// mid-superblock) explicitly through the decoded and compiled tiers.
    #[test]
    fn fuzz_error_surfaces_match_by_class() {
        let mut rng = Rng(0xdead_beef_0bad_cafe);
        let mut classes = std::collections::HashSet::new();
        for idx in 0..60 {
            let kernel = random_kernel(&mut rng, 1000 + idx, true);
            let base = fuzz_mem(&mut rng);
            let (oracle_res, _) = run_mode(&kernel, &base, ExecBackend::Tree);
            let Err(oracle_err) = oracle_res else { continue };
            classes.insert(std::mem::discriminant(&oracle_err));
            for backend in [ExecBackend::Decoded, ExecBackend::Compiled] {
                let (res, _) = run_mode(&kernel, &base, backend);
                assert_eq!(res, Err(oracle_err.clone()), "kernel {idx} under {backend}");
            }
        }
        assert!(
            classes.len() >= 2,
            "error fuzz hit only {} error classes — generator too tame",
            classes.len()
        );
    }

    #[test]
    fn backend_display_names() {
        assert_eq!(ExecBackend::Decoded.to_string(), "decoded");
        assert_eq!(ExecBackend::Compiled.to_string(), "compiled");
    }

    #[test]
    fn decode_flattens_structure_and_counts_superblocks() {
        let mut kb = KernelBuilder::new();
        let a = kb.reg();
        let b = kb.reg();
        kb.push(I::MovImm { d: a, imm: 1 });
        kb.push(I::MovImm { d: b, imm: 2 });
        kb.push(I::Add { d: a, a, b });
        let p = kb.pred();
        kb.push(I::SetPImm { p, op: CmpOp::Lt, a, imm: 10 });
        let then_ = kb.block(|bb| bb.push(I::Add { d: a, a, b }));
        let else_ = kb.block(|bb| bb.push(I::Sub { d: a, a, b }));
        kb.if_(p, then_, else_);
        kb.push(I::Mov { d: b, a });
        let kernel = kb.finish("structured", 8);

        let prog = kernel.decoded_program();
        // 4 leading + If(3 markers) + 1 then + 1 else + 1 trailing.
        assert_eq!(prog.op_count(), 4 + 3 + 1 + 1 + 1);
        // Straight-line runs: [4 leading], [then], [else], [trailing].
        assert_eq!(prog.superblock_count(), 4);
        // Static count matches the tree walk: 4 + If + then + else + 1.
        assert_eq!(prog.static_inst_count(), 8);
        assert_eq!(kernel.static_inst_count(), 8);
    }

    /// Clones made after the program is built share it; repeated access
    /// is counted as cache hits.
    #[test]
    fn decoded_program_is_cached_and_shared_across_clones() {
        let mut kb = KernelBuilder::new();
        let r = kb.reg();
        kb.push(I::MovImm { d: r, imm: 42 });
        let kernel = kb.finish("cached", 4);

        // Counters are process-global (other tests build programs
        // concurrently), so assert only monotonic movement plus pointer
        // identity — ptr_eq alone proves this kernel was not re-decoded.
        let (builds0, _) = decode_counters();
        let p1 = Arc::clone(kernel.decoded_program());
        let (builds1, hits1) = decode_counters();
        assert!(builds1 > builds0, "first access must build");
        let p2 = Arc::clone(kernel.decoded_program());
        let (_, hits2) = decode_counters();
        assert!(hits2 > hits1, "second access must count as a hit");
        assert!(Arc::ptr_eq(&p1, &p2));

        let clone = kernel.clone();
        let p3 = Arc::clone(clone.decoded_program());
        assert!(Arc::ptr_eq(&p1, &p3), "clones share the built program");
    }
}
