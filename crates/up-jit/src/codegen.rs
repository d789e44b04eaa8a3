//! Expression → GPU-kernel code generation (single thread per tuple).
//!
//! Generated kernels follow Listing 1's three steps exactly: read the
//! compact byte-aligned decimals and expand them to word-aligned register
//! arrays, evaluate the expression with PTX carry chains, and write the
//! result back in compact form. All per-word loops are unrolled — `Lw` of
//! every intermediate is a JIT-time constant (§III-B3), which is the whole
//! point of generating code per expression.
//!
//! Sign-magnitude addition is branch-predicated exactly as §II-B
//! describes: "the signs of operands determine whether two numbers are
//! added or one number is subtracted from the other. Numbers are compared
//! before the subtraction to decide the minuend and the subtrahend."
//! Division pre-multiplies the dividend by `10^(s₂+4)` (§III-B3) and
//! invokes the §III-C2 binary-search routine (the `DivBig` macro-op).

use crate::expr::Expr;
use up_gpusim::ptx::{CmpOp, Inst as I, Kernel, KernelBuilder, Reg, Special, Stmt};
use up_gpusim::{DeviceConfig, LaunchConfig};
use up_num::dtype::DecimalType;
use up_num::pow10;
use up_num::DIV_EXTRA_SCALE;

/// A decimal value materialized in registers: `Lw` contiguous word
/// registers plus a sign register (0 = non-negative, 1 = negative).
#[derive(Clone, Debug)]
struct ValueRegs {
    sign: Reg,
    words: Vec<Reg>,
    ty: DecimalType,
}

/// A compiled expression kernel.
#[derive(Clone, Debug)]
pub struct CompiledExpr {
    /// The kernel. Input column `k` of the expression reads device buffer
    /// `k`; the compact result is written to buffer `n_cols` with stride
    /// `out_ty.lb()`. Scalar param 0 is the tuple count.
    pub kernel: Kernel,
    /// Result type (inferred bottom-up, §III-B3).
    pub out_ty: DecimalType,
    /// Number of input column buffers the kernel expects.
    pub n_inputs: usize,
    /// Memoized launch geometry (see [`CompiledExpr::launch_config`]).
    pub launch: LaunchMemo,
}

/// One-slot memo of the derived [`LaunchConfig`], stored next to the
/// compiled kernel so cache hits skip re-deriving the launch geometry.
/// Repeated queries hit the kernel cache with the same tuple count, so a
/// single slot keyed on the launch inputs covers the steady state.
#[derive(Debug, Default)]
pub struct LaunchMemo {
    slot: std::sync::Mutex<Option<MemoKey>>,
}

#[derive(Clone, Copy, Debug)]
struct MemoKey {
    tuples: u64,
    block_threads: u32,
    sm_count: u32,
    max_threads_per_block: u32,
    cfg: LaunchConfig,
}

impl Clone for LaunchMemo {
    fn clone(&self) -> LaunchMemo {
        LaunchMemo { slot: std::sync::Mutex::new(*self.slot.lock().expect("launch memo poisoned")) }
    }
}

impl CompiledExpr {
    /// The launch geometry for `tuples` tuples at `block_threads` threads
    /// per block, memoized per kernel. Keyed on every input
    /// [`LaunchConfig::for_tuples`] reads (tuple count, requested block
    /// size, and the device's SM count / block-size cap), so a hit is
    /// exactly the config a fresh derivation would produce.
    pub fn launch_config(
        &self,
        tuples: u64,
        block_threads: u32,
        device: &DeviceConfig,
    ) -> LaunchConfig {
        let mut slot = self.launch.slot.lock().expect("launch memo poisoned");
        if let Some(k) = *slot {
            if k.tuples == tuples
                && k.block_threads == block_threads
                && k.sm_count == device.sm_count
                && k.max_threads_per_block == device.max_threads_per_block
            {
                return k.cfg;
            }
        }
        let cfg = LaunchConfig::for_tuples(tuples, block_threads, device);
        *slot = Some(MemoKey {
            tuples,
            block_threads,
            sm_count: device.sm_count,
            max_threads_per_block: device.max_threads_per_block,
            cfg,
        });
        cfg
    }
}

/// Estimated post-allocation hardware registers per thread. Calibrated to
/// the paper's Nsight profile (§IV-A): the LEN=32 addition kernel runs at
/// 50% occupancy (≈ 85 regs on GA102) and the LEN=32 multiplication kernel
/// at 33% (≈ 128 regs); LEN=8 kernels keep 100%.
pub fn estimate_hw_regs(out_lw: usize, has_mul: bool, has_div: bool) -> u32 {
    let per_word = if has_div {
        4.2
    } else if has_mul {
        3.5
    } else {
        2.2
    };
    (16.0 + per_word * out_lw as f64).ceil() as u32
}

/// Code-generation switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOptions {
    /// Convert constants to DECIMAL *at runtime*, per tuple, at the
    /// expression's `Decimal<N>` width — what happens without the
    /// §III-D2 compile-time constant construction. The generated code is
    /// still functionally exact (it rebuilds the same words digit by
    /// digit); what changes is the per-tuple work Fig. 11 measures.
    pub runtime_const_conversion: bool,
}

/// Compiles an (already optimized) expression into a kernel named `name`
/// with default codegen options.
pub fn compile_expr(expr: &Expr, name: &str) -> CompiledExpr {
    compile_expr_with(expr, name, CodegenOptions::default())
}

/// Compiles with explicit codegen options.
///
/// # Panics
/// Panics if the expression references more than 250 distinct columns
/// (device buffer indices are bytes; the output buffer takes one slot).
pub fn compile_expr_with(expr: &Expr, name: &str, copts: CodegenOptions) -> CompiledExpr {
    let n_inputs = expr
        .columns()
        .iter()
        .copied()
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    assert!(n_inputs <= 250, "too many input columns");
    let (kb, hw_regs) = generate(expr, n_inputs, copts);
    let kernel = kb.finish(name, hw_regs);
    CompiledExpr { kernel, out_ty: expr.dtype(), n_inputs, launch: LaunchMemo::default() }
}

/// The statements of `expr`'s kernel — Listing 1's grid-stride loop
/// around the expression, its output in buffer `n_inputs` — and the
/// kernel's estimated hardware registers per thread.
fn generate(expr: &Expr, n_inputs: usize, copts: CodegenOptions) -> (KernelBuilder, u32) {
    let out_ty = expr.dtype();
    let mut g = Gen::new();
    g.result_lw = out_ty.lw();
    g.result_scale = out_ty.scale;
    g.runtime_const_conv = copts.runtime_const_conversion;
    // Listing 1 skeleton: grid-stride loop over tuples.
    let tid = g.kb.reg();
    let ctaid = g.kb.reg();
    let ntid = g.kb.reg();
    let nctaid = g.kb.reg();
    g.kb.push(I::MovSpecial { d: tid, s: Special::TidX });
    g.kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
    g.kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
    g.kb.push(I::MovSpecial { d: nctaid, s: Special::NCtaIdX });
    let i = g.kb.reg();
    let stride = g.kb.reg();
    g.kb.push(I::MulLo { d: i, a: ctaid, b: ntid });
    g.kb.push(I::Add { d: i, a: i, b: tid });
    g.kb.push(I::MulLo { d: stride, a: ntid, b: nctaid });
    let n = g.kb.reg();
    g.kb.push(I::LdParam { d: n, idx: 0 });

    g.zero = g.kb.imm(0);
    g.one = g.kb.imm(1);

    let p = g.kb.pred();
    let cond = g.block(|g| {
        g.kb.push(I::SetP { p, op: CmpOp::Lt, a: i, b: n });
    });
    let out_buf = n_inputs as u8;
    let body = g.block(|g| {
        // Step 1+2: load/expand operands and evaluate.
        let v = g.gen_value(expr, i, None);
        // Step 3: write back compact.
        g.gen_store_compact(&v, out_buf, i);
        g.kb.push(I::Add { d: i, a: i, b: stride });
    });
    g.kb.while_(p, cond, body, u32::MAX);

    let (has_mul, has_div) = op_classes(expr);
    (g.kb, estimate_hw_regs(out_ty.lw(), has_mul, has_div))
}

fn op_classes(e: &Expr) -> (bool, bool) {
    match e {
        Expr::Col { .. } | Expr::Const(_) => (false, false),
        Expr::Neg(x) => op_classes(x),
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            let (m1, d1) = op_classes(a);
            let (m2, d2) = op_classes(b);
            // Alignment introduces a multiplication.
            (m1 || m2 || a.dtype().scale != b.dtype().scale, d1 || d2)
        }
        Expr::Mul(a, b) => {
            let (_, d1) = op_classes(a);
            let (_, d2) = op_classes(b);
            (true, d1 || d2)
        }
        Expr::Div(a, b) | Expr::Mod(a, b) => {
            let _ = (op_classes(a), op_classes(b));
            (true, true)
        }
    }
}

/// Code-generation context: wraps the builder with cached immediates.
struct Gen {
    kb: KernelBuilder,
    zero: Reg,
    one: Reg,
    result_lw: usize,
    result_scale: u32,
    runtime_const_conv: bool,
}

impl Gen {
    fn new() -> Gen {
        Gen {
            kb: KernelBuilder::new(),
            zero: 0,
            one: 0,
            result_lw: 1,
            result_scale: 0,
            runtime_const_conv: false,
        }
    }

    /// Builds a branch/loop body: statements appended by `f` are carved
    /// off the main stream (register allocation stays shared).
    fn block(&mut self, f: impl FnOnce(&mut Gen)) -> Vec<Stmt> {
        let mark = self.kb.stmt_count();
        f(self);
        self.kb.drain_stmts(mark)
    }

    /// Materializes an expression's value in registers for tuple `i`.
    /// `ctx_scale` is the scale of the nearest enclosing addition (the
    /// scale a runtime-converted constant will be aligned to).
    fn gen_value(&mut self, e: &Expr, tuple: Reg, ctx_scale: Option<u32>) -> ValueRegs {
        match e {
            Expr::Col { index, ty, .. } => self.gen_load_compact(*index as u8, *ty, tuple),
            Expr::Const(c) => {
                if self.runtime_const_conv {
                    return self.gen_const_runtime(c, ctx_scale);
                }
                // Compile-time constant conversion (§III-D2): the words are
                // immediates — no runtime conversion at all.
                let ty = c.dtype();
                let lw = ty.lw();
                let words = self.kb.regs(lw);
                let mag = c.unscaled().mag();
                for (k, &w) in words.iter().enumerate() {
                    let imm = mag.get(k).copied().unwrap_or(0);
                    self.kb.push(I::MovImm { d: w, imm });
                }
                let sign = self.kb.imm(u32::from(c.unscaled().is_negative()));
                ValueRegs { sign, words, ty }
            }
            Expr::Neg(x) => {
                let v = self.gen_value(x, tuple, ctx_scale);
                let sign = self.kb.reg();
                self.kb.push(I::Xor { d: sign, a: v.sign, b: self.one });
                ValueRegs { sign, words: v.words, ty: v.ty }
            }
            Expr::Add(a, b) => {
                let ctx = Some(e.dtype().scale);
                let va = self.gen_value(a, tuple, ctx);
                let vb = self.gen_value(b, tuple, ctx);
                self.gen_add_signed(va, vb, e.dtype())
            }
            Expr::Sub(a, b) => {
                let ctx = Some(e.dtype().scale);
                let va = self.gen_value(a, tuple, ctx);
                let vb = self.gen_value(b, tuple, ctx);
                let nsign = self.kb.reg();
                self.kb.push(I::Xor { d: nsign, a: vb.sign, b: self.one });
                let vb = ValueRegs { sign: nsign, ..vb };
                self.gen_add_signed(va, vb, e.dtype())
            }
            Expr::Mul(a, b) => {
                let va = self.gen_value(a, tuple, None);
                let vb = self.gen_value(b, tuple, None);
                self.gen_mul_signed(va, vb, e.dtype())
            }
            Expr::Div(a, b) => {
                let va = self.gen_value(a, tuple, None);
                let vb = self.gen_value(b, tuple, None);
                self.gen_div_signed(va, vb, e.dtype())
            }
            Expr::Mod(a, b) => {
                let va = self.gen_value(a, tuple, None);
                let vb = self.gen_value(b, tuple, None);
                self.gen_mod_signed(va, vb, e.dtype())
            }
        }
    }

    /// Loads and expands a compact decimal (§III-B2 step 1): `Lb` byte
    /// loads assembled into `Lw` words, sign split out of the top bit.
    fn gen_load_compact(&mut self, buf: u8, ty: DecimalType, tuple: Reg) -> ValueRegs {
        let lb = ty.lb();
        let lw = ty.lw();
        let words = self.kb.regs(lw);
        for &w in &words {
            self.kb.push(I::MovImm { d: w, imm: 0 });
        }
        let sign = self.kb.reg();
        let addr = self.kb.reg();
        let lb_reg = self.kb.imm(lb as u32);
        self.kb.push(I::MulLo { d: addr, a: tuple, b: lb_reg });
        let byte = self.kb.reg();
        let tmp = self.kb.reg();
        let seven = self.kb.imm(7);
        let mask7f = self.kb.imm(0x7f);
        for bi in 0..lb {
            self.kb.push(I::LdGlobalU8 { d: byte, buf, addr });
            if bi + 1 < lb {
                self.kb.push(I::Add { d: addr, a: addr, b: self.one });
            }
            let mut src = byte;
            if bi == lb - 1 {
                // Top bit is the sign (Fig. 4).
                self.kb.push(I::Shr { d: sign, a: byte, b: seven });
                self.kb.push(I::And { d: tmp, a: byte, b: mask7f });
                src = tmp;
            }
            let widx = bi / 4;
            if widx < lw {
                let shift = (bi % 4) as u32 * 8;
                if shift == 0 {
                    self.kb.push(I::Or { d: words[widx], a: words[widx], b: src });
                } else {
                    let sh = self.kb.imm(shift);
                    let shifted = self.kb.reg();
                    self.kb.push(I::Shl { d: shifted, a: src, b: sh });
                    self.kb.push(I::Or { d: words[widx], a: words[widx], b: shifted });
                }
            }
        }
        ValueRegs { sign, words, ty }
    }

    /// Runtime constant conversion (the unoptimized path Fig. 11
    /// measures): builds the constant's unscaled digits — pre-aligned to
    /// the expression's result scale, the way the interpreter would
    /// materialize the literal for this operand — digit by digit at the
    /// expression's `Decimal<N>` width: `w = w·10 + d` per decimal digit,
    /// every tuple.
    fn gen_const_runtime(&mut self, c: &up_num::UpDecimal, ctx_scale: Option<u32>) -> ValueRegs {
        let target_scale = ctx_scale.unwrap_or(c.dtype().scale).max(c.dtype().scale);
        let aligned_int = c.align_up(target_scale);
        let digits = aligned_int.mag_to_dec_string();
        let ty = DecimalType::new_unchecked(
            (digits.len() as u32).max(target_scale + 1),
            target_scale,
        );
        let width = self.result_lw.max(ty.lw());
        let words = self.kb.regs(width);
        for &w in &words {
            self.kb.push(I::MovImm { d: w, imm: 0 });
        }
        let ten = self.kb.imm(10);
        let lo = self.kb.reg();
        let hi = self.kb.reg();
        let carry = self.kb.reg();
        for ch in digits.bytes() {
            // words = words × 10 (single-limb schoolbook over the full
            // template width) …
            self.kb.push(I::MovImm { d: carry, imm: 0 });
            for &w in &words {
                self.kb.push(I::MulLo { d: lo, a: w, b: ten });
                self.kb.push(I::MulHi { d: hi, a: w, b: ten });
                self.kb.push(I::AddCC { d: w, a: lo, b: carry });
                self.kb.push(I::AddC { d: carry, a: hi, b: self.zero });
            }
            // … + digit, rippling the carry.
            let d = self.kb.imm((ch - b'0') as u32);
            self.kb.push(I::AddCC { d: words[0], a: words[0], b: d });
            for &w in &words[1..] {
                self.kb.push(I::AddC { d: w, a: w, b: self.zero });
            }
        }
        let sign = self.kb.imm(u32::from(c.unscaled().is_negative()));
        ValueRegs { sign, words, ty }
    }

    /// Writes a value back in compact form (§III-B2 step 3).
    fn gen_store_compact(&mut self, v: &ValueRegs, buf: u8, tuple: Reg) {
        let lb = v.ty.lb();
        let addr = self.kb.reg();
        let lb_reg = self.kb.imm(lb as u32);
        self.kb.push(I::MulLo { d: addr, a: tuple, b: lb_reg });
        let byte = self.kb.reg();
        let mask7f = self.kb.imm(0x7f);
        let seven = self.kb.imm(7);
        for bi in 0..lb {
            let widx = bi / 4;
            let shift = (bi % 4) as u32 * 8;
            if widx < v.words.len() {
                if shift == 0 {
                    self.kb.push(I::Mov { d: byte, a: v.words[widx] });
                } else {
                    let sh = self.kb.imm(shift);
                    self.kb.push(I::Shr { d: byte, a: v.words[widx], b: sh });
                }
            } else {
                self.kb.push(I::MovImm { d: byte, imm: 0 });
            }
            if bi == lb - 1 {
                let sbit = self.kb.reg();
                self.kb.push(I::And { d: byte, a: byte, b: mask7f });
                self.kb.push(I::Shl { d: sbit, a: v.sign, b: seven });
                self.kb.push(I::Or { d: byte, a: byte, b: sbit });
            }
            self.kb.push(I::StGlobalU8 { buf, addr, src: byte });
            if bi + 1 < lb {
                self.kb.push(I::Add { d: addr, a: addr, b: self.one });
            }
        }
    }

    /// Scale alignment: multiplies a magnitude by `10^k` (§II-B), the
    /// power-of-ten limbs baked in as immediates. The aligned value's
    /// precision grows by `k` digits, which sizes its register array.
    fn gen_align(&mut self, v: ValueRegs, target_scale: u32) -> ValueRegs {
        debug_assert!(target_scale >= v.ty.scale);
        let k = target_scale - v.ty.scale;
        if k == 0 {
            return v;
        }
        let ty = DecimalType::new_unchecked(
            (v.ty.precision + k).max(target_scale + 1),
            target_scale,
        );
        // The paper's `<<n` operator is the generic decimal multiply of
        // the code template (§III-D1 calls alignment "a multiplication
        // operation"), so the power-of-ten operand occupies the aligned
        // width — this is what makes alignment scheduling worth 16–34%
        // (Fig. 10), and what the §III-D2 compile-time constant alignment
        // removes.
        let p10 = pow10::pow10_limbs(k);
        let c_width = ty.lw().min(v.words.len().max(p10.len()));
        let c_regs = self.kb.regs(c_width.max(p10.len()));
        for (i, &r) in c_regs.iter().enumerate() {
            let imm = p10.get(i).copied().unwrap_or(0);
            self.kb.push(I::MovImm { d: r, imm });
        }
        let words = self.gen_mag_mul(&v.words, &c_regs, ty.lw());
        ValueRegs { sign: v.sign, words, ty }
    }

    /// Magnitude addition chain (`add.cc` + `addc.cc`, Listing 2), writing
    /// to `out` (length ≥ both inputs; missing input words read zero).
    fn gen_mag_add_into(&mut self, out: &[Reg], a: &[Reg], b: &[Reg]) {
        for (k, &d) in out.iter().enumerate() {
            let ra = a.get(k).copied().unwrap_or(self.zero);
            let rb = b.get(k).copied().unwrap_or(self.zero);
            if k == 0 {
                self.kb.push(I::AddCC { d, a: ra, b: rb });
            } else {
                self.kb.push(I::AddC { d, a: ra, b: rb });
            }
        }
    }

    /// Magnitude subtraction chain; returns the borrow-out register
    /// (1 iff `b > a`).
    fn gen_mag_sub_into(&mut self, out: &[Reg], a: &[Reg], b: &[Reg]) -> Reg {
        for (k, &d) in out.iter().enumerate() {
            let ra = a.get(k).copied().unwrap_or(self.zero);
            let rb = b.get(k).copied().unwrap_or(self.zero);
            if k == 0 {
                self.kb.push(I::SubCC { d, a: ra, b: rb });
            } else {
                self.kb.push(I::SubC { d, a: ra, b: rb });
            }
        }
        // Capture the final borrow: subc wrote the flag; 0+0+flag = flag.
        let borrow = self.kb.reg();
        self.kb.push(I::AddC { d: borrow, a: self.zero, b: self.zero });
        borrow
    }

    /// Schoolbook magnitude multiplication into `out_lw` fresh registers:
    /// the k-th word accumulates `a[i]·b[j]` for `i + j = k` with the
    /// carry-out pushed upward (§II-B). The carry sequence is the
    /// overflow-safe `mul.lo`/`mul.hi` + `add.cc` pattern.
    fn gen_mag_mul(&mut self, a: &[Reg], b: &[Reg], out_lw: usize) -> Vec<Reg> {
        let out = self.kb.regs(out_lw);
        for &d in &out {
            self.kb.push(I::MovImm { d, imm: 0 });
        }
        let lo = self.kb.reg();
        let hi = self.kb.reg();
        let carry = self.kb.reg();
        for (j, &bj) in b.iter().enumerate() {
            if j >= out_lw {
                break;
            }
            self.kb.push(I::MovImm { d: carry, imm: 0 });
            for (i, &ai) in a.iter().enumerate() {
                let k = i + j;
                if k >= out_lw {
                    break;
                }
                self.kb.push(I::MulLo { d: lo, a: ai, b: bj });
                self.kb.push(I::MulHi { d: hi, a: ai, b: bj });
                // out[k] += carry; hi += c1 (cannot overflow)
                self.kb.push(I::AddCC { d: out[k], a: out[k], b: carry });
                self.kb.push(I::AddC { d: hi, a: hi, b: self.zero });
                // out[k] += lo; carry = hi + c2 (cannot overflow)
                self.kb.push(I::AddCC { d: out[k], a: out[k], b: lo });
                self.kb.push(I::AddC { d: carry, a: hi, b: self.zero });
            }
            // Deposit the row's trailing carry and ripple it upward.
            let k = j + a.len();
            if k < out_lw {
                self.kb.push(I::AddCC { d: out[k], a: out[k], b: carry });
                for &d in &out[k + 1..] {
                    self.kb.push(I::AddC { d, a: d, b: self.zero });
                }
            }
        }
        out
    }

    /// Sign-magnitude addition (§II-B): same signs add magnitudes; mixed
    /// signs subtract with the larger magnitude as minuend, selected
    /// branch-free via the borrow flag.
    fn gen_add_signed(&mut self, a: ValueRegs, b: ValueRegs, out_ty: DecimalType) -> ValueRegs {
        let out_lw = out_ty.lw();
        // Alignment first (the smaller scale is always raised, §II-B).
        let a = self.gen_align(a, out_ty.scale);
        let b = self.gen_align(b, out_ty.scale);

        let out = self.kb.regs(out_lw);
        let out_sign = self.kb.reg();
        let same = self.kb.pred();
        self.kb.push(I::SetP { p: same, op: CmpOp::Eq, a: a.sign, b: b.sign });

        let (a2, b2) = (a.clone(), b.clone());
        let then_ = self.block(|g| {
            g.gen_mag_add_into(&out, &a2.words, &b2.words);
            g.kb.push(I::Mov { d: out_sign, a: a2.sign });
        });
        let else_ = self.block(|g| {
            // d1 = |a| − |b|, d2 = |b| − |a|; pick by the borrow.
            let d1 = g.kb.regs(out_lw);
            let borrow = g.gen_mag_sub_into(&d1, &a.words, &b.words);
            let d2 = g.kb.regs(out_lw);
            let _ = g.gen_mag_sub_into(&d2, &b.words, &a.words);
            let p_lt = g.kb.pred();
            g.kb.push(I::SetPImm { p: p_lt, op: CmpOp::Eq, a: borrow, imm: 1 });
            for k in 0..out_lw {
                g.kb.push(I::Selp { d: out[k], a: d2[k], b: d1[k], p: p_lt });
            }
            g.kb.push(I::Selp { d: out_sign, a: b.sign, b: a.sign, p: p_lt });
        });
        self.kb.if_(same, then_, else_);
        ValueRegs { sign: out_sign, words: out, ty: out_ty }
    }

    /// Signed multiplication: magnitude schoolbook + XOR of signs.
    fn gen_mul_signed(&mut self, a: ValueRegs, b: ValueRegs, out_ty: DecimalType) -> ValueRegs {
        let words = self.gen_mag_mul(&a.words, &b.words, out_ty.lw());
        let sign = self.kb.reg();
        self.kb.push(I::Xor { d: sign, a: a.sign, b: b.sign });
        ValueRegs { sign, words, ty: out_ty }
    }

    /// Signed division (§III-B3 + §III-C2): boost the dividend by
    /// `10^(s₂+4)`, divide magnitudes, XOR the signs (truncation toward
    /// zero falls out of magnitude division).
    fn gen_div_signed(&mut self, a: ValueRegs, b: ValueRegs, out_ty: DecimalType) -> ValueRegs {
        let boost = b.ty.scale + DIV_EXTRA_SCALE;
        let boosted_lw = a.ty.lw() + pow10_lw(boost);
        let a_boosted = {
            let p10 = pow10::pow10_limbs(boost);
            let c_regs = self.kb.regs(p10.len());
            for (r, &limb) in c_regs.iter().zip(&p10) {
                self.kb.push(I::MovImm { d: *r, imm: limb });
            }
            self.gen_mag_mul(&a.words, &c_regs, boosted_lw)
        };
        let out = self.kb.regs(out_ty.lw());
        self.kb.push(I::DivBig {
            d: out[0],
            dn: out.len() as u8,
            a: a_boosted[0],
            an: a_boosted.len() as u8,
            b: b.words[0],
            bn: b.words.len() as u8,
        });
        let sign = self.kb.reg();
        self.kb.push(I::Xor { d: sign, a: a.sign, b: b.sign });
        ValueRegs { sign, words: out, ty: out_ty }
    }

    /// Signed modulo (§III-B3: integer modulo only — fractional digits are
    /// truncated first); the remainder takes the dividend's sign.
    fn gen_mod_signed(&mut self, a: ValueRegs, b: ValueRegs, out_ty: DecimalType) -> ValueRegs {
        let a_int = self.gen_truncate_scale(a);
        let b_int = self.gen_truncate_scale(b);
        let out = self.kb.regs(out_ty.lw());
        self.kb.push(I::RemBig {
            d: out[0],
            dn: out.len() as u8,
            a: a_int.words[0],
            an: a_int.words.len() as u8,
            b: b_int.words[0],
            bn: b_int.words.len() as u8,
        });
        ValueRegs { sign: a_int.sign, words: out, ty: out_ty }
    }

    /// Drops fractional digits: divide the magnitude by `10^s`.
    fn gen_truncate_scale(&mut self, v: ValueRegs) -> ValueRegs {
        if v.ty.scale == 0 {
            return v;
        }
        let p10 = pow10::pow10_limbs(v.ty.scale);
        let c_regs = self.kb.regs(p10.len());
        for (r, &limb) in c_regs.iter().zip(&p10) {
            self.kb.push(I::MovImm { d: *r, imm: limb });
        }
        let ty = DecimalType::new_unchecked(v.ty.int_digits().max(1), 0);
        let out = self.kb.regs(ty.lw().min(v.words.len()).max(1));
        self.kb.push(I::DivBig {
            d: out[0],
            dn: out.len() as u8,
            a: v.words[0],
            an: v.words.len() as u8,
            b: c_regs[0],
            bn: c_regs.len() as u8,
        });
        ValueRegs { sign: v.sign, words: out, ty }
    }
}

/// Word length of `10^k` — how much an alignment multiply can widen a
/// value.
fn pow10_lw(k: u32) -> usize {
    if k == 0 {
        0
    } else {
        up_num::lw_for_precision(k + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up_gpusim::{launch, DeviceConfig, GlobalMem, LaunchConfig};
    use up_num::{decode_compact, encode_compact, UpDecimal};

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    /// Runs a compiled expression over column data and checks every output
    /// tuple against `eval_row`.
    fn check_kernel(expr: &Expr, col_tys: &[DecimalType], rows: Vec<Vec<UpDecimal>>) {
        let compiled = compile_expr(expr, "test_expr");
        let n = rows.len();
        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        for (c, t) in col_tys.iter().enumerate() {
            let mut bytes = Vec::with_capacity(n * t.lb());
            for row in &rows {
                bytes.extend(encode_compact(&row[c], *t).unwrap());
            }
            mem.add_buffer(bytes);
        }
        let out_lb = compiled.out_ty.lb();
        mem.alloc(n * out_lb);
        let cfg = LaunchConfig { grid_blocks: 2, block_threads: 64 };
        launch(&compiled.kernel, cfg, &device, &mut mem, &[n as u32]).unwrap();
        let out = mem.buffer(compiled.n_inputs as u8);
        for (i, row) in rows.iter().enumerate() {
            let got = decode_compact(&out[i * out_lb..(i + 1) * out_lb], compiled.out_ty);
            let want = expr.eval_row(row).unwrap();
            assert_eq!(
                got.cmp_value(&want),
                core::cmp::Ordering::Equal,
                "tuple {i}: kernel {got:?} vs reference {want:?}"
            );
        }
    }

    fn rows_from(vals: &[&[&str]], tys: &[DecimalType]) -> Vec<Vec<UpDecimal>> {
        vals.iter()
            .map(|r| {
                r.iter()
                    .zip(tys)
                    .map(|(s, t)| UpDecimal::parse(s, *t).unwrap())
                    .collect()
            })
            .collect()
    }

    /// A finished kernel keeps only its flat program; the tree the
    /// reference walker runs is rebuilt from it, and for one statement
    /// shape of each benchmark workload it is exactly the tree code
    /// generation built.
    #[test]
    fn kernels_rebuild_the_generated_tree() {
        let c = |i: usize, p: u32, s: u32| Expr::col(i, ty(p, s), "c");
        let lit = |s: &str| Expr::lit(s).unwrap();
        let cube_mod = |m: &str| {
            let x = || c(0, 143, 0);
            x().mul(x()).rem(lit(m)).mul(x()).rem(lit(m))
        };
        let shapes = [
            // wire_point: LEN 2.
            c(0, 16, 2).mul(c(1, 16, 2)).add(c(2, 16, 2)),
            // wire_scan: LEN 8, with an alignment.
            c(0, 74, 2).add(c(1, 74, 2)).add(c(3, 75, 6)),
            // wire_bignum: RSA's cube mod, Q1's charge at LEN 32, a / b.
            cube_mod("1000000007"),
            c(0, 150, 2).mul(lit("1").sub(c(1, 150, 2))).mul(lit("1").add(c(2, 150, 2))),
            c(0, 70, 2).div(c(1, 70, 2)),
            // wire_cold: a signed sum of products with literals.
            c(0, 16, 2).mul(c(1, 30, 4)).sub(c(2, 60, 6).mul(lit("3.75"))).add(c(3, 12, 0)),
            // wire_ingest: a product of mixed scales.
            c(0, 16, 2).mul(c(1, 8, 4)),
        ];
        for e in shapes {
            let k = compile_expr(&e, "k");
            let (mut kb, hw_regs) = generate(&e, k.n_inputs, CodegenOptions::default());
            assert_eq!(hw_regs, k.kernel.hw_regs_per_thread);
            assert_eq!(k.kernel.decoded_program().to_stmts(), kb.drain_stmts(0), "{e:?}");
        }
    }

    #[test]
    fn listing1_add_with_alignment() {
        // DECIMAL(4,2) + DECIMAL(4,1) — the paper's generated example.
        let tys = [ty(4, 2), ty(4, 1)];
        let e = Expr::col(0, tys[0], "c1").add(Expr::col(1, tys[1], "c2"));
        let rows = rows_from(
            &[
                &["1.23", "1.1"],
                &["-1.23", "1.1"],
                &["99.99", "99.9"],
                &["-99.99", "-99.9"],
                &["0.00", "0.0"],
                &["0.01", "-0.1"],
            ],
            &tys,
        );
        check_kernel(&e, &tys, rows);
    }

    #[test]
    fn subtraction_picks_minuend() {
        let tys = [ty(6, 2), ty(6, 2)];
        let e = Expr::col(0, tys[0], "a").sub(Expr::col(1, tys[1], "b"));
        let rows = rows_from(
            &[
                &["1.00", "2.50"],
                &["2.50", "1.00"],
                &["-3.00", "4.00"],
                &["-3.00", "-4.00"],
                &["5.55", "5.55"],
            ],
            &tys,
        );
        check_kernel(&e, &tys, rows);
    }

    #[test]
    fn multiplication_and_signs() {
        let tys = [ty(8, 3), ty(8, 2)];
        let e = Expr::col(0, tys[0], "a").mul(Expr::col(1, tys[1], "b"));
        let rows = rows_from(
            &[
                &["12345.678", "-999.99"],
                &["-0.001", "-0.01"],
                &["99999.999", "999999.99"],
                &["0.000", "123.45"],
            ],
            &tys,
        );
        check_kernel(&e, &tys, rows);
    }

    #[test]
    fn division_scale_rule() {
        let tys = [ty(9, 4), ty(5, 2)];
        let e = Expr::col(0, tys[0], "a").div(Expr::col(1, tys[1], "b"));
        let rows = rows_from(
            &[
                &["12345.6789", "3.00"],
                &["-1.0000", "3.00"],
                &["2.0000", "-7.77"],
                &["0.0001", "999.99"],
            ],
            &tys,
        );
        check_kernel(&e, &tys, rows);
    }

    #[test]
    fn modulo_integer_semantics() {
        let tys = [ty(9, 0), ty(9, 0)];
        let e = Expr::col(0, tys[0], "a").rem(Expr::col(1, tys[1], "b"));
        let rows = rows_from(
            &[
                &["17", "5"],
                &["-17", "5"],
                &["123456789", "1000"],
                &["4", "5"],
            ],
            &tys,
        );
        check_kernel(&e, &tys, rows);
    }

    #[test]
    fn constants_are_baked_in() {
        let t = ty(6, 2);
        let e = Expr::lit("1.5").unwrap().add(Expr::col(0, t, "a")).mul(Expr::lit("-2").unwrap());
        let rows = rows_from(&[&["10.00"], &["-0.25"], &["9999.99"]], &[t]);
        check_kernel(&e, &[t], rows);
    }

    #[test]
    fn high_precision_len8_roundtrip() {
        // 76-digit result precision (LEN 8).
        let t = ty(70, 10);
        let e = Expr::col(0, t, "a").add(Expr::col(1, t, "b"));
        let big = "9".repeat(55);
        let rows = rows_from(
            &[
                &[&format!("{big}.0000000001"), "0.0000000001"],
                &["-1.0000000000", "1.0000000000"],
            ],
            &[t, t],
        );
        check_kernel(&e, &[t, t], rows);
    }

    #[test]
    fn rsa_shape_square_mod() {
        // c1*c1 % N — the Query 4 building block.
        let t = ty(17, 0);
        let n_ty = ty(18, 0);
        let e = Expr::col(0, t, "c1")
            .mul(Expr::col(0, t, "c1"))
            .rem(Expr::Const(UpDecimal::parse("999999999999999989", n_ty).unwrap()));
        let rows = rows_from(&[&["12345678901234567"], &["98765432109876543"]], &[t]);
        check_kernel(&e, &[t], rows);
    }

    #[test]
    fn estimated_regs_match_profiling_calibration() {
        let d = DeviceConfig::a6000();
        // LEN 32 addition → ~50% occupancy; multiplication → ~33%.
        let add32 = estimate_hw_regs(32, false, false);
        let mul32 = estimate_hw_regs(32, true, false);
        assert!((0.4..=0.55).contains(&d.occupancy(add32)));
        assert!((0.28..=0.4).contains(&d.occupancy(mul32)));
        // LEN 8 stays at full occupancy.
        assert!(d.occupancy(estimate_hw_regs(8, false, false)) > 0.95);
        assert!(d.occupancy(estimate_hw_regs(8, true, false)) > 0.95);
    }

    #[test]
    fn launch_config_memo_hit_equals_fresh_derivation() {
        let d = DeviceConfig::a6000();
        let t = ty(8, 2);
        let e = Expr::col(0, t, "a").add(Expr::col(1, t, "b"));
        let k = compile_expr(&e, "memo_test");
        // Miss populates, hit returns the identical config.
        let first = k.launch_config(100_000, 256, &d);
        let hit = k.launch_config(100_000, 256, &d);
        assert_eq!(first, hit);
        assert_eq!(hit, LaunchConfig::for_tuples(100_000, 256, &d));
        // A different tuple count re-derives rather than serving stale
        // geometry.
        let other = k.launch_config(7, 256, &d);
        assert_eq!(other, LaunchConfig::for_tuples(7, 256, &d));
        assert_ne!(other, first);
        // A different device geometry invalidates too.
        let mut small = DeviceConfig::a6000();
        small.sm_count = 2;
        let scaled = k.launch_config(7, 256, &small);
        assert_eq!(scaled, LaunchConfig::for_tuples(7, 256, &small));
    }
}
