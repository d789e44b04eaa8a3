//! Kernel disassembly: renders the IR as PTX-flavoured assembly text.
//!
//! The paper's framework emits CUDA C++ with inline PTX (`asm volatile
//! ("add.cc.u32 %0, %1, %2;" …)`, Listing 2). Our JIT emits the IR of
//! [`crate::ptx`] directly; this module pretty-prints that IR in PTX
//! syntax so generated kernels can be inspected, diffed, and golden-
//! tested the way a real code generator's output would be.

use crate::ptx::{CmpOp, Inst, Kernel, Special, Stmt};
use core::fmt::Write as _;

/// Renders a kernel as PTX-flavoured text.
pub fn disassemble(kernel: &Kernel) -> String {
    render_kernel(kernel, &mut |_| None)
}

/// Renders a kernel like [`disassemble`], annotated with what the
/// compiled tier makes of it: every global-memory access carries the
/// affine-address analysis result — `; addr base+gid*3` when the address
/// row is proven lane-affine, `; addr unknown` otherwise (the metadata
/// that picks the warp-wide bulk fast path) — and every compact-codec
/// byte run that promotion fuses into one step is bracketed
/// `; ┌ fused codec run (34 insts, 5/17 rows live, 2 word + 1 byte planes)`
/// … `; └`: how many of the rows the run writes the fused step keeps, and
/// the bulk gathers (or, for a store run, scatters) it performs. The
/// header names the ALU thunk set promotion compiles on this host.
pub fn disassemble_with_addr_forms(kernel: &Kernel) -> String {
    let (forms, runs) = crate::compiled::listing_facts(kernel);
    // The decoded program flattens the tree in statement order (If arms
    // then-before-else, While condition-before-body), so its `I` ops line
    // up one to one with the instructions of the tree walk below.
    let mut notes = Vec::new();
    for (pc, op) in kernel.decoded_program().ops().iter().enumerate() {
        let crate::decoded::Op::I { dop, .. } = op else { continue };
        let mut note = String::new();
        if dop.mem_ref().is_some() {
            let _ = write!(note, "  ; addr {}", forms[pc]);
        }
        if let Some(run) = runs.iter().find(|r| r.pcs.contains(&pc)) {
            if pc == run.pcs.start {
                let _ = write!(
                    note,
                    "  ; ┌ fused codec run ({} insts, {}/{} rows live, {} word + {} byte planes)",
                    run.pcs.len(),
                    run.rows_live,
                    run.rows_written,
                    run.word_planes,
                    run.byte_planes
                );
            } else if pc + 1 == run.pcs.end {
                note.push_str("  ; └");
            } else {
                note.push_str("  ; │");
            }
        }
        notes.push(note);
    }
    let mut notes = notes.into_iter();
    let listing = render_kernel(kernel, &mut |_| notes.next().filter(|n| !n.is_empty()));
    format!("// alu thunks: {}\n{listing}", crate::thunk_isa())
}

fn render_kernel(kernel: &Kernel, ann: &mut dyn FnMut(&Inst) -> Option<String>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// kernel {}  (regs/thread est. {}, {} virtual regs, {} preds, {} B smem, {} B resident)",
        kernel.name,
        kernel.hw_regs_per_thread,
        kernel.num_regs,
        kernel.num_preds,
        kernel.smem_bytes,
        kernel.heap_bytes()
    );
    let _ = writeln!(out, ".visible .entry {}()", kernel.name);
    let _ = writeln!(out, "{{");
    render_stmts(&kernel.body, 1, &mut out, ann);
    let _ = writeln!(out, "}}");
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn render_stmts(
    stmts: &[Stmt],
    depth: usize,
    out: &mut String,
    ann: &mut dyn FnMut(&Inst) -> Option<String>,
) {
    for s in stmts {
        match s {
            Stmt::I(i) => {
                indent(depth, out);
                out.push_str(&render_inst(i));
                if let Some(note) = ann(i) {
                    out.push_str(&note);
                }
                out.push('\n');
            }
            Stmt::If(s) => {
                indent(depth, out);
                let _ = writeln!(out, "@%p{} {{", s.p);
                render_stmts(&s.then_, depth + 1, out, ann);
                if s.else_.is_empty() {
                    indent(depth, out);
                    out.push_str("}\n");
                } else {
                    indent(depth, out);
                    out.push_str("} @!%p ");
                    let _ = writeln!(out, "{{");
                    render_stmts(&s.else_, depth + 1, out, ann);
                    indent(depth, out);
                    out.push_str("}\n");
                }
            }
            Stmt::While(s) => {
                indent(depth, out);
                let _ = writeln!(out, "while %p{} (max_iter {}) {{", s.p, s.max_iter);
                indent(depth + 1, out);
                out.push_str("// condition:\n");
                render_stmts(&s.cond, depth + 1, out, ann);
                indent(depth + 1, out);
                out.push_str("// body:\n");
                render_stmts(&s.body, depth + 1, out, ann);
                indent(depth, out);
                out.push_str("}\n");
            }
        }
    }
}

fn cmp_suffix(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn special_name(s: Special) -> &'static str {
    match s {
        Special::TidX => "%tid.x",
        Special::CtaIdX => "%ctaid.x",
        Special::NTidX => "%ntid.x",
        Special::NCtaIdX => "%nctaid.x",
    }
}

/// Renders one instruction in PTX syntax.
pub fn render_inst(i: &Inst) -> String {
    match i {
        Inst::MovImm { d, imm } => format!("mov.u32         %r{d}, {imm};"),
        Inst::Mov { d, a } => format!("mov.u32         %r{d}, %r{a};"),
        Inst::MovSpecial { d, s } => format!("mov.u32         %r{d}, {};", special_name(*s)),
        Inst::Add { d, a, b } => format!("add.u32         %r{d}, %r{a}, %r{b};"),
        Inst::AddCC { d, a, b } => format!("add.cc.u32      %r{d}, %r{a}, %r{b};"),
        Inst::AddC { d, a, b } => format!("addc.cc.u32     %r{d}, %r{a}, %r{b};"),
        Inst::Sub { d, a, b } => format!("sub.u32         %r{d}, %r{a}, %r{b};"),
        Inst::SubCC { d, a, b } => format!("sub.cc.u32      %r{d}, %r{a}, %r{b};"),
        Inst::SubC { d, a, b } => format!("subc.cc.u32     %r{d}, %r{a}, %r{b};"),
        Inst::MulLo { d, a, b } => format!("mul.lo.u32      %r{d}, %r{a}, %r{b};"),
        Inst::MulHi { d, a, b } => format!("mul.hi.u32      %r{d}, %r{a}, %r{b};"),
        Inst::MadLoCC { d, a, b, c } => {
            format!("mad.lo.cc.u32   %r{d}, %r{a}, %r{b}, %r{c};")
        }
        Inst::MadHiC { d, a, b, c } => {
            format!("madc.hi.u32     %r{d}, %r{a}, %r{b}, %r{c};")
        }
        Inst::Div { d, a, b } => format!("div.u32         %r{d}, %r{a}, %r{b};"),
        Inst::Rem { d, a, b } => format!("rem.u32         %r{d}, %r{a}, %r{b};"),
        Inst::Div64 { dlo, dhi, alo, ahi, blo, bhi } => format!(
            "div.u64         {{%r{dlo},%r{dhi}}}, {{%r{alo},%r{ahi}}}, {{%r{blo},%r{bhi}}};"
        ),
        Inst::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => format!(
            "rem.u64         {{%r{dlo},%r{dhi}}}, {{%r{alo},%r{ahi}}}, {{%r{blo},%r{bhi}}};"
        ),
        Inst::DivBig { d, dn, a, an, b, bn } => format!(
            "call div_big    %r{d}..{}, %r{a}..{}, %r{b}..{}; // §III-C2 binary search",
            *d as u32 + *dn as u32 - 1,
            *a as u32 + *an as u32 - 1,
            *b as u32 + *bn as u32 - 1
        ),
        Inst::RemBig { d, dn, a, an, b, bn } => format!(
            "call rem_big    %r{d}..{}, %r{a}..{}, %r{b}..{};",
            *d as u32 + *dn as u32 - 1,
            *a as u32 + *an as u32 - 1,
            *b as u32 + *bn as u32 - 1
        ),
        Inst::Bfind { d, a } => format!("bfind.u32       %r{d}, %r{a};"),
        Inst::Shl { d, a, b } => format!("shl.b32         %r{d}, %r{a}, %r{b};"),
        Inst::Shr { d, a, b } => format!("shr.u32         %r{d}, %r{a}, %r{b};"),
        Inst::And { d, a, b } => format!("and.b32         %r{d}, %r{a}, %r{b};"),
        Inst::Or { d, a, b } => format!("or.b32          %r{d}, %r{a}, %r{b};"),
        Inst::Xor { d, a, b } => format!("xor.b32         %r{d}, %r{a}, %r{b};"),
        Inst::SetP { p, op, a, b } => {
            format!("setp.{}.u32     %p{p}, %r{a}, %r{b};", cmp_suffix(*op))
        }
        Inst::SetPImm { p, op, a, imm } => {
            format!("setp.{}.u32     %p{p}, %r{a}, {imm};", cmp_suffix(*op))
        }
        Inst::PAnd { p, a, b } => format!("and.pred        %p{p}, %p{a}, %p{b};"),
        Inst::PNot { p, a } => format!("not.pred        %p{p}, %p{a};"),
        Inst::Selp { d, a, b, p } => format!("selp.b32        %r{d}, %r{a}, %r{b}, %p{p};"),
        Inst::LdGlobal { d, buf, addr } => {
            format!("ld.global.u32   %r{d}, [buf{buf} + %r{addr}];")
        }
        Inst::LdGlobalU8 { d, buf, addr } => {
            format!("ld.global.u8    %r{d}, [buf{buf} + %r{addr}];")
        }
        Inst::StGlobal { buf, addr, src } => {
            format!("st.global.u32   [buf{buf} + %r{addr}], %r{src};")
        }
        Inst::StGlobalU8 { buf, addr, src } => {
            format!("st.global.u8    [buf{buf} + %r{addr}], %r{src};")
        }
        Inst::LdShared { d, addr } => format!("ld.shared.u32   %r{d}, [%r{addr}];"),
        Inst::StShared { addr, src } => format!("st.shared.u32   [%r{addr}], %r{src};"),
        Inst::LdParam { d, idx } => format!("ld.param.u32    %r{d}, [param{idx}];"),
        Inst::BarSync => "bar.sync        0;".to_string(),
        Inst::ShflIdx { d, a, lane } => {
            format!("shfl.sync.idx   %r{d}, %r{a}, %r{lane};")
        }
        Inst::Ballot { d, p } => format!("vote.sync.ballot %r{d}, %p{p};"),
    }
}

/// Static instruction histogram of a kernel — handy for asserting that an
/// optimization removed what it promised to remove.
pub fn histogram(kernel: &Kernel) -> std::collections::BTreeMap<&'static str, usize> {
    let mut h = std::collections::BTreeMap::new();
    fn walk(stmts: &[Stmt], h: &mut std::collections::BTreeMap<&'static str, usize>) {
        for s in stmts {
            match s {
                Stmt::I(i) => {
                    *h.entry(mnemonic(i)).or_insert(0) += 1;
                }
                Stmt::If(s) => {
                    *h.entry("branch").or_insert(0) += 1;
                    walk(&s.then_, h);
                    walk(&s.else_, h);
                }
                Stmt::While(s) => {
                    *h.entry("loop").or_insert(0) += 1;
                    walk(&s.cond, h);
                    walk(&s.body, h);
                }
            }
        }
    }
    walk(&kernel.body, &mut h);
    h
}

fn mnemonic(i: &Inst) -> &'static str {
    match i {
        Inst::MovImm { .. } | Inst::Mov { .. } | Inst::MovSpecial { .. } => "mov",
        Inst::Add { .. } => "add",
        Inst::AddCC { .. } => "add.cc",
        Inst::AddC { .. } => "addc.cc",
        Inst::Sub { .. } => "sub",
        Inst::SubCC { .. } => "sub.cc",
        Inst::SubC { .. } => "subc.cc",
        Inst::MulLo { .. } => "mul.lo",
        Inst::MulHi { .. } => "mul.hi",
        Inst::MadLoCC { .. } => "mad.lo.cc",
        Inst::MadHiC { .. } => "madc.hi",
        Inst::Div { .. } | Inst::Div64 { .. } => "div",
        Inst::Rem { .. } | Inst::Rem64 { .. } => "rem",
        Inst::DivBig { .. } => "div_big",
        Inst::RemBig { .. } => "rem_big",
        Inst::Bfind { .. } => "bfind",
        Inst::Shl { .. } | Inst::Shr { .. } => "shift",
        Inst::And { .. } | Inst::Or { .. } | Inst::Xor { .. } => "logic",
        Inst::SetP { .. } | Inst::SetPImm { .. } | Inst::PAnd { .. } | Inst::PNot { .. } => "setp",
        Inst::Selp { .. } => "selp",
        Inst::LdGlobal { .. } | Inst::LdGlobalU8 { .. } => "ld.global",
        Inst::StGlobal { .. } | Inst::StGlobalU8 { .. } => "st.global",
        Inst::LdShared { .. } | Inst::StShared { .. } => "shared",
        Inst::LdParam { .. } => "ld.param",
        Inst::BarSync => "bar.sync",
        Inst::ShflIdx { .. } => "shfl",
        Inst::Ballot { .. } => "vote",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptx::{Inst as I, KernelBuilder};

    #[test]
    fn renders_listing2_style_carry_chain() {
        let mut kb = KernelBuilder::new();
        let a = kb.reg();
        let b = kb.reg();
        let d = kb.reg();
        kb.push(I::AddCC { d, a, b });
        kb.push(I::AddC { d, a, b });
        let k = kb.finish("add_chain", 16);
        let text = disassemble(&k);
        assert!(text.contains("add.cc.u32      %r2, %r0, %r1;"), "{text}");
        assert!(text.contains("addc.cc.u32     %r2, %r0, %r1;"), "{text}");
        assert!(text.contains(".visible .entry add_chain()"));
    }

    #[test]
    fn renders_control_flow() {
        let mut kb = KernelBuilder::new();
        let p = kb.pred();
        let r = kb.reg();
        kb.push(I::SetPImm { p, op: CmpOp::Lt, a: r, imm: 10 });
        let then_ = kb.block(|b| b.push(I::MovImm { d: r, imm: 1 }));
        let else_ = kb.block(|b| b.push(I::MovImm { d: r, imm: 2 }));
        kb.if_(p, then_, else_);
        let k = kb.finish("branchy", 16);
        let text = disassemble(&k);
        assert!(text.contains("setp.lt.u32"));
        assert!(text.contains("@%p0 {"));
    }

    #[test]
    fn histogram_counts() {
        let mut kb = KernelBuilder::new();
        let r = kb.reg();
        kb.push(I::MovImm { d: r, imm: 0 });
        kb.push(I::AddCC { d: r, a: r, b: r });
        kb.push(I::AddC { d: r, a: r, b: r });
        kb.push(I::AddC { d: r, a: r, b: r });
        let k = kb.finish("h", 16);
        let h = histogram(&k);
        assert_eq!(h.get("mov"), Some(&1));
        assert_eq!(h.get("add.cc"), Some(&1));
        assert_eq!(h.get("addc.cc"), Some(&2));
    }

    #[test]
    fn annotated_listing_marks_affine_addresses() {
        let mut kb = KernelBuilder::new();
        let t = kb.reg();
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        let lb = kb.reg();
        kb.push(I::MovImm { d: lb, imm: 3 });
        let addr = kb.reg();
        kb.push(I::MulLo { d: addr, a: t, b: lb });
        let v = kb.reg();
        kb.push(I::LdGlobalU8 { d: v, buf: 0, addr });
        kb.push(I::StGlobalU8 { buf: 1, addr, src: v });
        let scr = kb.reg();
        kb.push(I::LdGlobal { d: scr, buf: 0, addr: t });
        kb.push(I::LdGlobalU8 { d: v, buf: 1, addr: scr });
        let k = kb.finish("annotated", 8);
        let text = disassemble_with_addr_forms(&k);
        assert!(text.starts_with(&format!("// alu thunks: {}", crate::thunk_isa())), "{text}");
        assert!(text.contains("; addr base+gid*3"), "{text}");
        assert!(text.contains("; addr base+gid*1"), "{text}");
        assert!(text.contains("; addr unknown"), "{text}");
        // The plain listing stays annotation-free.
        assert!(!disassemble(&k).contains("; addr"), "plain listing must not change");
        assert!(!text.contains("fused"), "a load then a store is no codec run: {text}");
        assert!(!k.compiled_tier_built(), "a listing never builds the compiled artifact");
    }

    #[test]
    fn annotated_listing_brackets_fused_codec_runs() {
        let mut kb = KernelBuilder::new();
        let (t, lb, one, addr, v, w) = (kb.reg(), kb.imm(2), kb.imm(1), kb.reg(), kb.reg(), kb.imm(0));
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        kb.push(I::MulLo { d: addr, a: t, b: lb });
        kb.push(I::LdGlobalU8 { d: v, buf: 0, addr });
        kb.push(I::Add { d: addr, a: addr, b: one });
        kb.push(I::Or { d: w, a: w, b: v });
        kb.push(I::LdGlobalU8 { d: v, buf: 0, addr });
        kb.push(I::Xor { d: w, a: w, b: v });
        let k = kb.finish("bracketed", 8);
        let lines: Vec<String> =
            disassemble_with_addr_forms(&k).lines().map(|l| l.trim().to_string()).collect();
        let at = |needle: &str| lines.iter().position(|l| l.contains(needle)).expect(needle);
        // The `xor` after the run reads both rows it wrote, `v` and `w`; a
        // two-byte span is too short for a word plane.
        let (head, tail) =
            (at("┌ fused codec run (4 insts, 2/2 rows live, 0 word + 2 byte planes)"), at("└"));
        assert!(lines[head].starts_with("ld.global.u8") && lines[head].contains("; addr base+gid*2"));
        assert_eq!(tail, head + 3, "{lines:?}");
        assert!(lines[tail].starts_with("ld.global.u8"));
        assert!(lines[head + 1].ends_with("│") && lines[head + 2].ends_with("│"));
        assert!(!lines[tail + 1].contains('│') && lines[tail + 1].starts_with("xor"));
        assert_eq!(k.compiled_program().fused_codec_run_count(), 1, "listing and compile agree");
    }

    #[test]
    fn every_instruction_renders() {
        // Exercise each variant once so the renderer can't panic on any.
        for i in crate::ptx::tests::every_inst() {
            let text = render_inst(&i);
            assert!(text.ends_with(';') || text.contains("//"), "{text}");
            assert!(!mnemonic(&i).is_empty());
        }
    }
}
