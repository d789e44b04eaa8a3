//! Golden tests on generated-kernel *structure*: the instruction mix must
//! reflect the paper's code shapes — carry chains sized by Lw (Listing 2),
//! compact byte I/O (Listing 1's three steps), alignment multiplies
//! appearing exactly when scales differ, and `div_big` only for ÷/%.

use up_gpusim::{disasm, Inst, KernelBuilder, Stmt};
use up_jit::cache::{Compiled, JitEngine, JitOptions};
use up_jit::Expr;
use up_num::DecimalType;

fn ty(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

fn kernel_of(e: &Expr, opts: JitOptions) -> up_jit::CompiledExpr {
    let jit = JitEngine::new(opts);
    let (c, _) = jit.compile(e);
    match c {
        Compiled::Kernel(k) => (*k).clone(),
        other => panic!("expected kernel, got {other:?}"),
    }
}

#[test]
fn same_scale_add_has_carry_chain_but_no_multiply() {
    // Two (17,2) columns: LEN 2 result, no alignment → add.cc + addc.cc,
    // zero mul instructions.
    let e = Expr::col(0, ty(17, 2), "a").add(Expr::col(1, ty(17, 2), "b"));
    let k = kernel_of(&e, JitOptions::none());
    let h = disasm::histogram(&k.kernel);
    assert!(h.get("add.cc").copied().unwrap_or(0) >= 1, "{h:?}");
    assert!(h.get("addc.cc").copied().unwrap_or(0) >= 1, "{h:?}");
    assert_eq!(h.get("mul.hi"), None, "no alignment ⇒ no wide multiply: {h:?}");
    assert_eq!(h.get("div_big"), None);
    // Listing 1's three steps: byte loads (expand) and byte stores
    // (compact write-back) both present.
    assert!(h.get("ld.global").copied().unwrap_or(0) >= 2 * ty(17, 2).lb());
    assert!(h.get("st.global").copied().unwrap_or(0) >= k.out_ty.lb());
}

#[test]
fn carry_chain_length_tracks_lw() {
    // The addc chain grows with the result word count, exactly like the
    // #pragma-unrolled loop of Listing 2.
    let count_addc = |p: u32| {
        let e = Expr::col(0, ty(p, 2), "a").add(Expr::col(1, ty(p, 2), "b"));
        let k = kernel_of(&e, JitOptions::none());
        disasm::histogram(&k.kernel).get("addc.cc").copied().unwrap_or(0)
    };
    let small = count_addc(17); // LEN 2 (chain of 2 words)
    let large = count_addc(150); // LEN 16 (chain of 16 words)
    assert!(large > 4 * small, "addc count must scale with Lw: {small} vs {large}");
}

#[test]
fn mixed_scales_introduce_alignment_multiplies() {
    let same = Expr::col(0, ty(17, 2), "a").add(Expr::col(1, ty(17, 2), "b"));
    let mixed = Expr::col(0, ty(17, 2), "a").add(Expr::col(1, ty(17, 9), "b"));
    let h_same = disasm::histogram(&kernel_of(&same, JitOptions::none()).kernel);
    let h_mixed = disasm::histogram(&kernel_of(&mixed, JitOptions::none()).kernel);
    assert_eq!(h_same.get("mul.hi"), None);
    assert!(
        h_mixed.get("mul.hi").copied().unwrap_or(0) > 0,
        "alignment is a multiplication (§III-D1): {h_mixed:?}"
    );
}

#[test]
fn division_uses_the_macro_op_and_modulo_truncates() {
    let div = Expr::col(0, ty(12, 4), "a").div(Expr::col(1, ty(12, 2), "b"));
    let h = disasm::histogram(&kernel_of(&div, JitOptions::none()).kernel);
    assert_eq!(h.get("div_big").copied().unwrap_or(0), 1, "{h:?}");
    let rem = Expr::col(0, ty(12, 4), "a").rem(Expr::col(1, ty(12, 2), "b"));
    let h = disasm::histogram(&kernel_of(&rem, JitOptions::none()).kernel);
    assert_eq!(h.get("rem_big").copied().unwrap_or(0), 1);
    // Truncating the scale-4 and scale-2 operands needs two div_big calls.
    assert_eq!(h.get("div_big").copied().unwrap_or(0), 2, "{h:?}");
}

#[test]
fn disassembly_of_listing1_kernel_is_stable() {
    let e = Expr::col(0, ty(4, 2), "c1_4_2").add(Expr::col(1, ty(4, 1), "c2_4_1"));
    let k = kernel_of(&e, JitOptions::default());
    let text = disasm::disassemble(&k.kernel);
    for needle in [
        ".visible .entry calc_expr_1()",
        "mov.u32         %r0, %tid.x;",
        "ld.param.u32",
        "while %p0",
        "ld.global.u8",
        "st.global.u8",
        "add.cc.u32",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn optimized_kernels_never_grow() {
    // Across a set of expressions, turning the §III-D pipeline on must
    // never increase the static instruction count.
    let a = || Expr::col(0, ty(20, 1), "a");
    let b = || Expr::col(1, ty(20, 9), "b");
    let exprs = vec![
        a().add(b()).add(a()).add(a()),
        Expr::lit("1").unwrap().add(a()).add(Expr::lit("2").unwrap()),
        Expr::lit("0.25").unwrap().mul(a().add(b())).mul(Expr::lit("4").unwrap()),
        a().mul(b()).sub(a()),
    ];
    for e in exprs {
        let raw = kernel_of(&e, JitOptions::none()).kernel.static_inst_count();
        let opt = kernel_of(&e, JitOptions::default()).kernel.static_inst_count();
        assert!(opt <= raw, "{opt} > {raw} for {e:?}");
    }
}

fn byte_mem_insts(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::I(Inst::LdGlobalU8 { .. } | Inst::StGlobalU8 { .. }) => 1,
            Stmt::I(_) => 0,
            Stmt::If(s) => byte_mem_insts(&s.then_) + byte_mem_insts(&s.else_),
            Stmt::While(s) => byte_mem_insts(&s.cond) + byte_mem_insts(&s.body),
        })
        .sum()
}

/// Swaps every codec address bump (`add addr, addr, one` right after a
/// byte access through `addr`) with the instruction that follows it when
/// that is a codec ALU instruction not mentioning `addr`, and returns the
/// number of swaps.
fn swap_bumps(stmts: &mut [Stmt]) -> usize {
    let free_of = |i: &Inst, addr: u16| match *i {
        Inst::MovImm { d, .. } => d != addr,
        Inst::Mov { d, a } => d != addr && a != addr,
        Inst::Or { d, a, b } | Inst::Shl { d, a, b } | Inst::Shr { d, a, b } | Inst::And { d, a, b } => {
            ![d, a, b].contains(&addr)
        }
        _ => false,
    };
    let mut swaps = 0;
    let mut j = 1;
    while j + 1 < stmts.len() {
        if let (
            Stmt::I(Inst::LdGlobalU8 { addr, .. } | Inst::StGlobalU8 { addr, .. }),
            Stmt::I(Inst::Add { d, a, .. }),
            Stmt::I(next),
        ) = (&stmts[j - 1], &stmts[j], &stmts[j + 1])
        {
            if d == addr && a == addr && free_of(next, *addr) {
                stmts.swap(j, j + 1);
                swaps += 1;
                j += 1;
            }
        }
        j += 1;
    }
    swaps
}

/// The two warm benchmark kernel shapes (`wire_scan`'s three-column add
/// at LEN 8, `wire_ingest`'s product): promotion must fuse every
/// column's byte-load run and the result's byte-store run — at least one
/// fused run per column plus one for the store, and no byte memory
/// instruction left to a one-at-a-time thunk. The fusion reads what the
/// instructions compute, not the order `gen_load_compact`/
/// `gen_store_compact` emit them in: the same kernel with every address
/// bump moved behind the independent instruction that follows it must
/// fuse identically.
#[test]
fn promotion_fuses_every_column_load_and_the_result_store() {
    let c = |i: usize, p: u32, s: u32| Expr::col(i, ty(p, s), "c");
    for (e, columns) in [
        (c(0, 74, 2).add(c(1, 74, 2)).add(c(2, 74, 2)), 3),
        (c(0, 16, 2).mul(c(1, 8, 4)), 2),
    ] {
        let k = kernel_of(&e, JitOptions::default()).kernel;
        let mut kb = KernelBuilder::new();
        for _ in 0..k.num_regs {
            kb.reg();
        }
        for _ in 0..k.num_preds {
            kb.pred();
        }
        kb.smem(k.smem_bytes);
        let mut swaps = 0;
        for s in &k.body {
            match s.clone() {
                Stmt::I(i) => kb.push(i),
                Stmt::If(s) => kb.if_(s.p, s.then_.into_vec(), s.else_.into_vec()),
                Stmt::While(s) => {
                    let mut body = s.body.into_vec();
                    swaps += swap_bumps(&mut body);
                    kb.while_(s.p, s.cond.into_vec(), body, s.max_iter);
                }
            }
        }
        let swapped = kb.finish("swapped", k.hw_regs_per_thread);
        let bytes = byte_mem_insts(&k.body);
        assert!(swaps * 2 > bytes, "only {swaps} bumps swapped for {bytes} byte accesses");
        assert_eq!(byte_mem_insts(&swapped.body), bytes);
        let shape = |k: &up_gpusim::Kernel| {
            let cp = k.compiled_program();
            (cp.fused_codec_run_count(), cp.fused_codec_mem_inst_count())
        };
        let (runs, fused_bytes) = shape(&k);
        assert!(runs > columns, "{runs} fused runs for {columns} columns and a store");
        assert_eq!(fused_bytes, bytes, "every byte access belongs to a fused run");
        assert_eq!(shape(&swapped), (runs, fused_bytes), "fusion depends on instruction order");
    }
}

/// What the fused steps of `wire_scan`'s kernel do at run time: a load
/// run computes the column's `Lw` words and its sign and nothing else it
/// wrote — the byte and shift temporaries are dead at the run's end — and
/// gathers words, not bytes; the store run scatters words. (Constant rows
/// a run absorbed from the `mov` immediates that follow it are plain
/// fills, counted apart.)
#[test]
fn fused_runs_keep_live_rows_only_and_move_words() {
    let c = |i: usize| Expr::col(i, ty(74, 2), "c");
    let k = kernel_of(&c(0).add(c(1)).add(c(2)), JitOptions::default());
    let (len, lb) = (ty(74, 2).lw(), ty(74, 2).lb());
    let cp = k.kernel.compiled_program();
    let (loads, stores): (Vec<_>, Vec<_>) = cp.fused_runs().iter().partition(|r| !r.is_store);
    assert_eq!((loads.len(), stores.len()), (3, 1), "{:?}", cp.fused_runs());
    for r in &loads {
        assert!(r.rows_written > lb / 2, "a load run writes a temporary for most bytes: {r:?}");
        assert!(r.rows_live - r.rows_const <= len + 2, "{r:?}");
        assert!(r.word_planes >= len - 1 && r.word_planes + r.byte_planes <= len, "{r:?}");
    }
    let st = stores[0];
    assert!(st.word_planes >= k.out_ty.lw() - 1, "{st:?}");
    assert!(st.word_planes + st.byte_planes <= k.out_ty.lw() + 3, "{st:?}");
    let listing = disasm::disassemble_with_addr_forms(&k.kernel);
    assert!(listing.contains(&format!("rows live, {} word + ", loads[0].word_planes)), "{listing}");
}

/// The compiled simulator tier adds a straight-line segment's issue cost
/// in one step where the interpreters add it instruction by instruction.
/// That is bit-identical because f64 addition of small non-negative
/// integers is exact: summing the per-instruction costs of the longest
/// benchmark kernel (`wire_bignum`'s LEN-32 product) in any order gives
/// the same bits as program order.
#[test]
fn issue_cost_sums_do_not_depend_on_the_order_of_addition() {
    let c = |i: usize| Expr::col(i, ty(150, 2), "c");
    let k = kernel_of(&c(0).mul(c(1)), JitOptions::default()).kernel;
    fn costs(stmts: &[Stmt], out: &mut Vec<f64>) {
        for s in stmts {
            match s {
                Stmt::I(i) => out.push(up_gpusim::ptx::issue_cycles(i)),
                Stmt::If(s) => {
                    out.push(1.0); // the branch issue
                    costs(&s.then_, out);
                    costs(&s.else_, out);
                }
                Stmt::While(s) => {
                    costs(&s.cond, out);
                    costs(&s.body, out);
                }
            }
        }
    }
    let mut cy = Vec::new();
    costs(&k.body, &mut cy);
    assert!(cy.len() > 2000, "{} instructions", cy.len());
    let in_order: f64 = cy.iter().sum();
    let mut seed = 0x5eed_u64;
    for _ in 0..16 {
        for i in (1..cy.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cy.swap(i, (seed >> 33) as usize % (i + 1));
        }
        let pairwise: f64 = cy.chunks(7).map(|c| c.iter().sum::<f64>()).sum();
        assert_eq!(cy.iter().sum::<f64>().to_bits(), in_order.to_bits());
        assert_eq!(pairwise.to_bits(), in_order.to_bits(), "regrouped");
    }
}

/// What a cached kernel holds: a `wire_cold`-shaped kernel (a signed sum
/// of products over the workload's four column types plus a decimal
/// literal) keeps its statement tree and its decoded program in at most
/// 64 B per decoded op. (With 56-B tree nodes, `Vec` slack in every
/// statement list and a decoded program grown by doubling it was near
/// 180 B per op.)
#[test]
fn a_cold_kernel_holds_at_most_64_bytes_per_decoded_op() {
    let c = |i: usize| {
        let (p, s) = [(16, 2), (30, 4), (60, 6), (12, 0)][i];
        Expr::col(i, ty(p, s), "c")
    };
    let lit = |s: &str| Expr::lit(s).unwrap();
    let shapes = [
        c(0).mul(c(1)).sub(c(2).mul(lit("3.75"))).add(c(3)).add(lit("41.207")),
        c(2).mul(c(3)).mul(lit("7.1")).add(c(0).mul(c(1))).sub(c(2)).sub(c(1)).add(lit("5.3")),
        c(1).mul(c(0)).add(c(3).mul(c(2))).sub(c(0).mul(lit("62"))).add(lit("9.44")),
    ];
    for e in shapes {
        let k = kernel_of(&e, JitOptions::default()).kernel;
        let ops = k.decoded_program().op_count();
        let bytes = k.heap_bytes();
        assert!(ops > 300, "{ops} ops: not a wire_cold-sized kernel");
        assert!(bytes <= 64 * ops, "{bytes} B for {ops} decoded ops ({} B/op)", bytes / ops);
    }
}
