//! Inspect what the JIT actually generates: compile the paper's Listing 1
//! expression (`DECIMAL(4,2) + DECIMAL(4,1)`), print the PTX-flavoured
//! disassembly, and show how the §III-D optimizations change the
//! instruction mix.
//!
//! ```sh
//! cargo run --release --example inspect_kernel
//! ```

use ultraprecise::up_gpusim::disasm;
use ultraprecise::up_jit::cache::{Compiled, JitEngine, JitOptions};
use ultraprecise::up_jit::Expr;
use ultraprecise::up_num::DecimalType;

fn main() {
    // Listing 1's expression: c1 DECIMAL(4,2) + c2 DECIMAL(4,1).
    let c1 = Expr::col(0, DecimalType::new(4, 2).unwrap(), "c1_4_2");
    let c2 = Expr::col(1, DecimalType::new(4, 1).unwrap(), "c2_4_1");
    let expr = c1.add(c2);

    let jit = JitEngine::with_defaults();
    let (compiled, info) = jit.compile(&expr);
    let Compiled::Kernel(k) = compiled else { panic!("expected a kernel") };

    println!("expression : DECIMAL(4,2) + DECIMAL(4,1)");
    println!("result type: {}  (the Listing 1 expansion to precision 6)", k.out_ty);
    println!(
        "kernel     : {} static instructions, modeled NVCC latency {:.0} ms",
        k.kernel.static_inst_count(),
        info.modeled_compile_s * 1e3
    );
    println!(
        "resident   : {} B (statement tree + decoded program of {} ops)\n",
        k.kernel.heap_bytes(),
        k.kernel.decoded_program().op_count()
    );

    let text = disasm::disassemble(&k.kernel);
    // The full kernel is long; print the head plus the carry-chain region.
    for line in text.lines().take(40) {
        println!("{line}");
    }
    println!("    ... ({} more lines)\n", text.lines().count().saturating_sub(40));

    println!("instruction histogram:");
    for (mnemonic, count) in disasm::histogram(&k.kernel) {
        println!("  {mnemonic:<12} {count}");
    }

    // Now the ablation: a constant-heavy expression with and without the
    // §III-D2 optimization.
    let a = Expr::col(0, DecimalType::new(12, 10).unwrap(), "a");
    let e = Expr::lit("1").unwrap().add(a).add(Expr::lit("2").unwrap()).add(Expr::lit("11").unwrap());
    let on = JitEngine::with_defaults();
    let off = JitEngine::new(JitOptions::none());
    let (Compiled::Kernel(k_on), _) = on.compile(&e) else { panic!() };
    let (Compiled::Kernel(k_off), _) = off.compile(&e) else { panic!() };
    println!("\n1 + a + 2 + 11:");
    println!(
        "  unoptimized kernel: {} static instructions",
        k_off.kernel.static_inst_count()
    );
    println!(
        "  optimized kernel  : {} static instructions  (folds to 14 + a, the constant pre-aligned)",
        k_on.kernel.static_inst_count()
    );
}
