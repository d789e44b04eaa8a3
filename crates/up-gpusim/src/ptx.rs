//! The PTX-like instruction set the JIT targets.
//!
//! UltraPrecise embeds PTX assembly in generated kernels to get hardware
//! carry chains (`add.cc.u32`/`addc.cc.u32`, Listing 2), MSB location
//! (`bfind`, §III-C2) and 64-bit division fast paths (`div`, §III-C2).
//! This module defines a register-based ISA with exactly those
//! capabilities, plus structured control flow (`If`/`While`) so the
//! functional executor can model warp divergence with a simple active-mask
//! discipline instead of a reconvergence stack.
//!
//! Loops with trip counts known at JIT time (they almost all are — `Lw` is
//! a compile-time constant, §III-B) are unrolled by the code generator,
//! mirroring the `#pragma unroll` in the paper's Listing 2.

/// A virtual 32-bit register index (per thread).
pub type Reg = u16;

/// A predicate (boolean) register index (per thread).
pub type PReg = u8;

/// Comparison operators for `setp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Applies the comparison to unsigned operands.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Special (read-only) per-thread registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Special {
    /// `threadIdx.x`
    TidX,
    /// `blockIdx.x`
    CtaIdX,
    /// `blockDim.x`
    NTidX,
    /// `gridDim.x`
    NCtaIdX,
}

/// One straight-line instruction. `CC`-suffixed arithmetic reads/writes the
/// per-thread carry flag the way the PTX condition code does.
///
/// Operand fields follow PTX conventions throughout: `d` destination
/// register, `a`/`b`/`c` sources, `p` predicate, `buf` device buffer
/// index, `addr` byte-address register, `lo`/`hi` 64-bit register pairs,
/// `dn`/`an`/`bn` limb counts of multi-word register ranges.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `mov.u32 d, imm`
    MovImm { d: Reg, imm: u32 },
    /// `mov.u32 d, a`
    Mov { d: Reg, a: Reg },
    /// `mov.u32 d, %special`
    MovSpecial { d: Reg, s: Special },
    /// `add.u32 d, a, b` (no flags)
    Add { d: Reg, a: Reg, b: Reg },
    /// `add.cc.u32 d, a, b` — sets the carry flag (Listing 2).
    AddCC { d: Reg, a: Reg, b: Reg },
    /// `addc.cc.u32 d, a, b` — adds carry-in, sets carry-out (Listing 2).
    AddC { d: Reg, a: Reg, b: Reg },
    /// `sub.u32 d, a, b`
    Sub { d: Reg, a: Reg, b: Reg },
    /// `sub.cc.u32 d, a, b` — sets the borrow flag.
    SubCC { d: Reg, a: Reg, b: Reg },
    /// `subc.cc.u32 d, a, b` — subtracts borrow-in, sets borrow-out.
    SubC { d: Reg, a: Reg, b: Reg },
    /// `mul.lo.u32 d, a, b`
    MulLo { d: Reg, a: Reg, b: Reg },
    /// `mul.hi.u32 d, a, b`
    MulHi { d: Reg, a: Reg, b: Reg },
    /// `mad.lo.cc.u32 d, a, b, c` — multiply-add setting carry.
    MadLoCC { d: Reg, a: Reg, b: Reg, c: Reg },
    /// `madc.hi.u32`-style multiply-add-high with carry-in (the paper
    /// tested `madc` and found plain CUDA faster for multiplications, but
    /// the instruction exists in the ISA).
    MadHiC { d: Reg, a: Reg, b: Reg, c: Reg },
    /// `div.u32 d, a, b` (b must be nonzero; zero yields all-ones as on HW)
    Div { d: Reg, a: Reg, b: Reg },
    /// `rem.u32 d, a, b`
    Rem { d: Reg, a: Reg, b: Reg },
    /// 64-bit unsigned division on register pairs — the §III-C2 fast path
    /// "if the dividend and divisor could be contained in a 64-bit word".
    Div64 { dlo: Reg, dhi: Reg, alo: Reg, ahi: Reg, blo: Reg, bhi: Reg },
    /// 64-bit unsigned remainder on register pairs.
    Rem64 { dlo: Reg, dhi: Reg, alo: Reg, ahi: Reg, blo: Reg, bhi: Reg },
    /// `bfind.u32 d, a` — bit position of the most significant 1, or
    /// `0xffffffff` when `a` is zero (§III-C2).
    Bfind { d: Reg, a: Reg },
    /// Multi-word unsigned division macro-op: registers `[d..d+dn)` =
    /// `[a..a+an) / [b..b+bn)` (little-endian limbs). This stands for the
    /// §III-C2 generated division routine — `bfind` range bracketing plus
    /// binary-search probing — executed as one instruction for simulation
    /// speed and priced dynamically by the executor from the operands'
    /// actual bit lengths (probe count × multiply cost). A zero divisor
    /// aborts the launch, matching SQL division-by-zero semantics.
    DivBig { d: Reg, dn: u8, a: Reg, an: u8, b: Reg, bn: u8 },
    /// Multi-word unsigned remainder macro-op (see [`Inst::DivBig`]).
    RemBig { d: Reg, dn: u8, a: Reg, an: u8, b: Reg, bn: u8 },
    /// `shl.b32 d, a, b` (shift count taken modulo 32 silently, like HW).
    Shl { d: Reg, a: Reg, b: Reg },
    /// `shr.u32 d, a, b`
    Shr { d: Reg, a: Reg, b: Reg },
    /// `and.b32 d, a, b`
    And { d: Reg, a: Reg, b: Reg },
    /// `or.b32 d, a, b`
    Or { d: Reg, a: Reg, b: Reg },
    /// `xor.b32 d, a, b`
    Xor { d: Reg, a: Reg, b: Reg },
    /// `setp.<op>.u32 p, a, b`
    SetP { p: PReg, op: CmpOp, a: Reg, b: Reg },
    /// `setp.<op>.u32 p, a, imm`
    SetPImm { p: PReg, op: CmpOp, a: Reg, imm: u32 },
    /// Logical and of two predicates.
    PAnd { p: PReg, a: PReg, b: PReg },
    /// Logical negation of a predicate.
    PNot { p: PReg, a: PReg },
    /// `selp.b32 d, a, b, p` — d = p ? a : b.
    Selp { d: Reg, a: Reg, b: Reg, p: PReg },
    /// Load a 32-bit word from global buffer `buf` at byte address `addr`
    /// (register) — `ld.global.u32`.
    LdGlobal { d: Reg, buf: u8, addr: Reg },
    /// Load one byte (zero-extended) — compact representations are
    /// byte-aligned (§III-B), so expansion reads bytes.
    LdGlobalU8 { d: Reg, buf: u8, addr: Reg },
    /// Store a 32-bit word — `st.global.u32`.
    StGlobal { buf: u8, addr: Reg, src: Reg },
    /// Store one byte — writing back the compact result (§III-B2 step 3).
    StGlobalU8 { buf: u8, addr: Reg, src: Reg },
    /// Load a word from block-shared memory at byte address `addr`.
    LdShared { d: Reg, addr: Reg },
    /// Store a word to block-shared memory.
    StShared { addr: Reg, src: Reg },
    /// Read a 32-bit scalar kernel parameter.
    LdParam { d: Reg, idx: u8 },
    /// Block-wide barrier (`bar.sync`). Only meaningful at top level.
    BarSync,
    /// Warp shuffle: read `a` from lane `lane_imm` of the warp (models the
    /// CGBN inter-thread communication, §III-E1).
    ShflIdx { d: Reg, a: Reg, lane: Reg },
    /// Warp ballot: set `d` to a mask of lanes whose predicate `p` is true.
    Ballot { d: Reg, p: PReg },
}

/// Structured statements. The executor models divergence by running both
/// branches with complementary active masks whenever a warp disagrees.
///
/// 16 bytes a node: the control statements live behind a `Box` (the
/// pointer fits in the bytes an [`Inst`] uses, and `Inst`'s tag has room
/// for two more variants), and every statement list is an exact-size
/// `Box<[Stmt]>`. Every cached kernel keeps its tree — it is what the
/// reference walker executes — so the node size multiplies into every
/// resident kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// A single instruction.
    I(Inst),
    /// `if (p) { then } else { else }` on the per-thread predicate.
    If(Box<IfStmt>),
    /// `do { cond } while-test p { body }` — see [`WhileStmt`].
    While(Box<WhileStmt>),
}

/// The operands of [`Stmt::If`].
#[derive(Clone, Debug, PartialEq)]
pub struct IfStmt {
    /// Predicate register controlling the branch.
    pub p: PReg,
    /// Taken when `p` is true.
    pub then_: Box<[Stmt]>,
    /// Taken when `p` is false (often empty).
    pub else_: Box<[Stmt]>,
}

/// The operands of [`Stmt::While`]: executes `cond`, tests `p` per
/// thread, and runs `body` for threads whose predicate held; repeats
/// until the whole (active part of the) warp drops out.
#[derive(Clone, Debug, PartialEq)]
pub struct WhileStmt {
    /// Predicate computed by `cond` each iteration.
    pub p: PReg,
    /// Statements recomputing the predicate.
    pub cond: Box<[Stmt]>,
    /// Loop body for threads whose predicate holds.
    pub body: Box<[Stmt]>,
    /// Safety bound on iterations: a launch whose loop runs more fails
    /// with [`crate::SimError::MaxIterExceeded`] (JIT bugs, not data, are
    /// the only way to exceed it).
    pub max_iter: u32,
}

/// Node counts of a statement tree, at every nesting level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TreeShape {
    /// Statements of every kind (each `If`/`While` is one).
    pub(crate) stmts: usize,
    /// `If` statements.
    pub(crate) ifs: usize,
    /// `While` statements.
    pub(crate) whiles: usize,
}

impl TreeShape {
    pub(crate) fn of(stmts: &[Stmt]) -> TreeShape {
        let mut shape = TreeShape::default();
        shape.add(stmts);
        shape
    }

    fn add(&mut self, stmts: &[Stmt]) {
        self.stmts += stmts.len();
        for s in stmts {
            match s {
                Stmt::I(_) => {}
                Stmt::If(s) => {
                    self.ifs += 1;
                    self.add(&s.then_);
                    self.add(&s.else_);
                }
                Stmt::While(s) => {
                    self.whiles += 1;
                    self.add(&s.cond);
                    self.add(&s.body);
                }
            }
        }
    }

    /// Ops of the decoded program: one per instruction, and three
    /// control markers per `If` (`If`, `Else`, `EndIf`) or `While`
    /// (`WhileBegin`, `WhileTest`, `WhileEnd`).
    pub(crate) fn flat_ops(&self) -> usize {
        self.stmts + 2 * (self.ifs + self.whiles)
    }

    /// Heap bytes the tree's statement lists and control boxes hold.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stmts * size_of::<Stmt>()
            + self.ifs * size_of::<IfStmt>()
            + self.whiles * size_of::<WhileStmt>()
    }
}

/// A compiled kernel: the statement list plus resource metadata.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Name for reports (e.g. `calc_expr_1` as in Listing 1).
    pub name: String,
    /// Kernel body.
    pub body: Box<[Stmt]>,
    /// Virtual 32-bit registers per thread.
    pub num_regs: u16,
    /// Predicate registers per thread.
    pub num_preds: u8,
    /// Static shared memory per block (bytes).
    pub smem_bytes: u32,
    /// Estimated *hardware* registers per thread after register allocation
    /// — drives the occupancy model. Codegen sets this from the operand
    /// widths (see `up-jit::codegen::estimate_hw_regs`).
    pub hw_regs_per_thread: u32,
    /// Heap bytes of `body`'s tree, counted once by
    /// [`KernelBuilder::finish`].
    pub(crate) tree_bytes: usize,
    /// Lazily-built decoded program for the flat interpreter (clones share
    /// the built program; see [`crate::decoded::DecodedProgram`]).
    pub(crate) decoded: crate::decoded::DecodedCache,
    /// Compiled-tier state: the per-kernel launch counter driving tier
    /// promotion and the lazily-built closure-compiled program (clones
    /// share a built artifact; see [`crate::compiled`]).
    pub(crate) tier: crate::compiled::TierCache,
}

impl Kernel {
    /// Counts static instructions (loop bodies counted once) — a proxy for
    /// generated-code size used by the compile-time model. Memoized on the
    /// decoded program, so repeated launches and compile-time estimates
    /// don't re-walk the statement tree.
    pub fn static_inst_count(&self) -> usize {
        self.decoded_program().static_inst_count()
    }

    /// The kernel's pre-decoded flat program, built on first use and cached
    /// on the kernel. Clones made after the first build (e.g. kernels held
    /// in the JIT cache behind `Arc`) share the same program.
    pub fn decoded_program(&self) -> &std::sync::Arc<crate::decoded::DecodedProgram> {
        self.decoded.get_or_decode(self)
    }

    /// The kernel's closure-compiled program (tier 3), built on first use
    /// and cached on the kernel. Under `ExecBackend::Auto` this is only
    /// called once the launch count crosses the promotion threshold, so
    /// cold kernels never pay compile cost; `ExecBackend::Compiled`
    /// forces it on the first launch.
    pub fn compiled_program(&self) -> &std::sync::Arc<crate::compiled::CompiledProgram> {
        self.tier.get_or_compile(self).0
    }

    /// Whether this kernel has paid closure-compile cost yet (i.e. its
    /// compiled-tier artifact exists).
    pub fn compiled_tier_built(&self) -> bool {
        self.tier.built()
    }

    /// Heap bytes this kernel holds: its name, its statement tree and,
    /// once built, its decoded program. The closure-compiled tier (built
    /// only for promoted kernels) is not counted. O(1): the tree's size
    /// is recorded when the kernel is finished.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity() + self.tree_bytes + self.decoded.built().map_or(0, |p| p.heap_bytes())
    }
}

/// Issue cost (cycles per warp) of each instruction class, loosely modeled
/// on Ampere throughput tables. Memory instructions carry an extra cost in
/// the executor's transaction model; these are the pipeline issue costs.
pub fn issue_cycles(inst: &Inst) -> f64 {
    match inst {
        Inst::Div { .. } | Inst::Rem { .. } => 16.0, // emulated on ALU
        Inst::Div64 { .. } | Inst::Rem64 { .. } => 36.0,
        // Base cost only — the executor adds the dynamic binary-search
        // probe cost from the operands' actual bit lengths.
        Inst::DivBig { .. } | Inst::RemBig { .. } => 24.0,
        Inst::MulLo { .. } | Inst::MulHi { .. } | Inst::MadLoCC { .. } | Inst::MadHiC { .. } => 2.0,
        Inst::LdGlobal { .. } | Inst::LdGlobalU8 { .. } => 2.0,
        Inst::StGlobal { .. } | Inst::StGlobalU8 { .. } => 2.0,
        Inst::LdShared { .. } | Inst::StShared { .. } => 2.0,
        Inst::BarSync => 4.0,
        Inst::ShflIdx { .. } | Inst::Ballot { .. } => 2.0,
        _ => 1.0,
    }
}

/// Statically recognized shape of a global-memory address operand, per
/// warp: how consecutive lanes' addresses relate. Produced by the
/// compiled tier's affine-address analysis (see `crate::compiled`) and
/// rendered by [`crate::disasm::disassemble_with_addr_forms`].
///
/// The analysis is a *hint*: the compiled tier re-verifies the claimed
/// shape against the actual register values before taking any bulk
/// memory path, so a wrong or imprecise form can cost speed but never
/// correctness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AddrForm {
    /// Address shape not statically recognized (per-lane access path).
    #[default]
    Unknown,
    /// Lane-affine: lane `l`'s address is `base + l * stride` for a
    /// warp-uniform `base` — the shape every codec kernel emits
    /// (`tuple * lb` plus a per-byte increment). `stride` is the byte
    /// distance between adjacent lanes.
    LaneAffine {
        /// Byte distance between adjacent lanes' addresses.
        stride: u32,
    },
}

impl std::fmt::Display for AddrForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddrForm::Unknown => write!(f, "unknown"),
            AddrForm::LaneAffine { stride } => write!(f, "base+gid*{stride}"),
        }
    }
}

/// A tiny builder making code generation readable: allocates registers and
/// predicates, and appends statements.
#[derive(Default)]
pub struct KernelBuilder {
    stmts: Vec<Stmt>,
    next_reg: u16,
    next_pred: u8,
    smem_bytes: u32,
}

impl KernelBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg = self.next_reg.checked_add(1).expect("register file exhausted");
        r
    }

    /// Allocates `n` consecutive registers and returns their indices.
    pub fn regs(&mut self, n: usize) -> Vec<Reg> {
        (0..n).map(|_| self.reg()).collect()
    }

    /// Allocates a fresh predicate register.
    pub fn pred(&mut self) -> PReg {
        let p = self.next_pred;
        self.next_pred = self.next_pred.checked_add(1).expect("predicate file exhausted");
        p
    }

    /// Reserves static shared memory, returning its byte offset.
    pub fn smem(&mut self, bytes: u32) -> u32 {
        let off = self.smem_bytes;
        self.smem_bytes += bytes;
        off
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Inst) {
        self.stmts.push(Stmt::I(i));
    }

    /// Appends a register preloaded with an immediate and returns it.
    pub fn imm(&mut self, v: u32) -> Reg {
        let r = self.reg();
        self.push(Inst::MovImm { d: r, imm: v });
        r
    }

    /// Appends an `If` statement built from sub-builders.
    pub fn if_(&mut self, p: PReg, then_: Vec<Stmt>, else_: Vec<Stmt>) {
        let (then_, else_) = (then_.into_boxed_slice(), else_.into_boxed_slice());
        self.stmts.push(Stmt::If(Box::new(IfStmt { p, then_, else_ })));
    }

    /// Appends a `While` statement.
    pub fn while_(&mut self, p: PReg, cond: Vec<Stmt>, body: Vec<Stmt>, max_iter: u32) {
        let (cond, body) = (cond.into_boxed_slice(), body.into_boxed_slice());
        self.stmts.push(Stmt::While(Box::new(WhileStmt { p, cond, body, max_iter })));
    }

    /// Statements appended so far (used with [`KernelBuilder::drain_stmts`]
    /// to carve out branch bodies).
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Removes and returns every statement appended at or after `from` —
    /// the code-generation idiom for building `If`/`While` bodies inline.
    pub fn drain_stmts(&mut self, from: usize) -> Vec<Stmt> {
        self.stmts.split_off(from)
    }

    /// Runs `f` against a scratch builder sharing this builder's register
    /// allocator, returning the statements it produced. Used to build
    /// branch bodies.
    pub fn block(&mut self, f: impl FnOnce(&mut KernelBuilder)) -> Vec<Stmt> {
        let mut inner = KernelBuilder {
            stmts: Vec::new(),
            next_reg: self.next_reg,
            next_pred: self.next_pred,
            smem_bytes: self.smem_bytes,
        };
        f(&mut inner);
        self.next_reg = inner.next_reg;
        self.next_pred = inner.next_pred;
        self.smem_bytes = inner.smem_bytes;
        inner.stmts
    }

    /// Finishes the kernel.
    pub fn finish(self, name: impl Into<String>, hw_regs_per_thread: u32) -> Kernel {
        let body = self.stmts.into_boxed_slice();
        Kernel {
            name: name.into(),
            tree_bytes: TreeShape::of(&body).heap_bytes(),
            body,
            num_regs: self.next_reg.max(1),
            num_preds: self.next_pred.max(1),
            smem_bytes: self.smem_bytes,
            hw_regs_per_thread,
            decoded: Default::default(),
            tier: Default::default(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instruction of every [`Inst`] variant.
    pub(crate) fn every_inst() -> Vec<Inst> {
        vec![
            Inst::MovImm { d: 0, imm: 7 },
            Inst::Mov { d: 0, a: 1 },
            Inst::MovSpecial { d: 0, s: Special::TidX },
            Inst::Add { d: 0, a: 1, b: 2 },
            Inst::AddCC { d: 0, a: 1, b: 2 },
            Inst::AddC { d: 0, a: 1, b: 2 },
            Inst::Sub { d: 0, a: 1, b: 2 },
            Inst::SubCC { d: 0, a: 1, b: 2 },
            Inst::SubC { d: 0, a: 1, b: 2 },
            Inst::MulLo { d: 0, a: 1, b: 2 },
            Inst::MulHi { d: 0, a: 1, b: 2 },
            Inst::MadLoCC { d: 0, a: 1, b: 2, c: 3 },
            Inst::MadHiC { d: 0, a: 1, b: 2, c: 3 },
            Inst::Div { d: 0, a: 1, b: 2 },
            Inst::Rem { d: 0, a: 1, b: 2 },
            Inst::Div64 { dlo: 0, dhi: 1, alo: 2, ahi: 3, blo: 4, bhi: 5 },
            Inst::Rem64 { dlo: 0, dhi: 1, alo: 2, ahi: 3, blo: 4, bhi: 5 },
            Inst::DivBig { d: 0, dn: 2, a: 2, an: 2, b: 4, bn: 2 },
            Inst::RemBig { d: 0, dn: 2, a: 2, an: 2, b: 4, bn: 2 },
            Inst::Bfind { d: 0, a: 1 },
            Inst::Shl { d: 0, a: 1, b: 2 },
            Inst::Shr { d: 0, a: 1, b: 2 },
            Inst::And { d: 0, a: 1, b: 2 },
            Inst::Or { d: 0, a: 1, b: 2 },
            Inst::Xor { d: 0, a: 1, b: 2 },
            Inst::SetP { p: 0, op: CmpOp::Ge, a: 1, b: 2 },
            Inst::SetPImm { p: 0, op: CmpOp::Eq, a: 1, imm: 3 },
            Inst::PAnd { p: 0, a: 0, b: 0 },
            Inst::PNot { p: 0, a: 0 },
            Inst::Selp { d: 0, a: 1, b: 2, p: 0 },
            Inst::LdGlobal { d: 0, buf: 1, addr: 2 },
            Inst::LdGlobalU8 { d: 0, buf: 1, addr: 2 },
            Inst::StGlobal { buf: 1, addr: 2, src: 0 },
            Inst::StGlobalU8 { buf: 1, addr: 2, src: 0 },
            Inst::LdShared { d: 0, addr: 1 },
            Inst::StShared { addr: 1, src: 0 },
            Inst::LdParam { d: 0, idx: 0 },
            Inst::BarSync,
            Inst::ShflIdx { d: 0, a: 1, lane: 2 },
            Inst::Ballot { d: 0, p: 0 },
        ]
    }

    /// The exactness precondition of the compiled tier's batched cycle
    /// sums: every static issue cost is a non-negative integer, so f64
    /// additions of them never round and may be regrouped freely.
    #[test]
    fn issue_costs_are_non_negative_integers() {
        for i in every_inst() {
            let cy = issue_cycles(&i);
            assert!(cy >= 0.0 && cy.fract() == 0.0, "{i:?} costs {cy}");
        }
    }

    #[test]
    fn cmp_ops_unsigned_semantics() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(u32::MAX, 2)); // unsigned, not signed
        assert!(CmpOp::Ge.eval(5, 5));
        assert!(CmpOp::Ne.eval(0, 1));
    }

    #[test]
    fn builder_allocates_and_counts() {
        let mut b = KernelBuilder::new();
        let r0 = b.reg();
        let r1 = b.reg();
        assert_eq!((r0, r1), (0, 1));
        b.push(Inst::Add { d: r1, a: r0, b: r0 });
        let p = b.pred();
        let then_ = b.block(|ib| {
            let t = ib.reg();
            ib.push(Inst::MovImm { d: t, imm: 7 });
        });
        b.if_(p, then_, vec![]);
        let k = b.finish("k", 32);
        assert_eq!(k.num_regs, 3);
        assert_eq!(k.static_inst_count(), 3); // add + if + mov
    }

    /// Every cached kernel keeps its tree, so a fat new variant would
    /// inflate every resident kernel: `Stmt` stays one `Inst` wide.
    #[test]
    fn statement_nodes_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Inst>(), 16);
        assert_eq!(std::mem::size_of::<Stmt>(), 16);
    }

    #[test]
    fn heap_bytes_count_the_tree_then_the_decoded_program() {
        let mut b = KernelBuilder::new();
        let (r, p) = (b.reg(), b.pred());
        b.push(Inst::MovImm { d: r, imm: 1 });
        let then_ = b.block(|ib| ib.push(Inst::Add { d: r, a: r, b: r }));
        b.if_(p, then_, vec![]);
        let cond = b.block(|ib| ib.push(Inst::SetPImm { p, op: CmpOp::Lt, a: r, imm: 9 }));
        let body = b.block(|ib| {
            ib.push(Inst::Add { d: r, a: r, b: r });
            ib.push(Inst::Mov { d: r, a: r });
        });
        b.while_(p, cond, body, 4);
        let k = b.finish("k", 32);
        let shape = TreeShape::of(&k.body);
        assert_eq!(shape, TreeShape { stmts: 7, ifs: 1, whiles: 1 });
        let tree = 7 * 16 + std::mem::size_of::<IfStmt>() + std::mem::size_of::<WhileStmt>();
        assert_eq!(k.heap_bytes(), k.name.capacity() + tree);
        let prog = k.decoded_program();
        assert_eq!(prog.op_count(), shape.flat_ops());
        assert_eq!(prog.static_inst_count(), shape.stmts);
        assert_eq!(k.heap_bytes(), k.name.capacity() + tree + prog.heap_bytes());
        let ops = prog.op_count() * std::mem::size_of::<crate::decoded::Op>();
        assert!(prog.heap_bytes() > ops, "{} B for {ops} B of ops", prog.heap_bytes());
    }

    #[test]
    fn issue_costs_rank_sensibly() {
        let add = Inst::Add { d: 0, a: 0, b: 0 };
        let div = Inst::Div64 { dlo: 0, dhi: 0, alo: 0, ahi: 0, blo: 0, bhi: 0 };
        assert!(issue_cycles(&div) > 10.0 * issue_cycles(&add));
    }
}
