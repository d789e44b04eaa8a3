//! Ablation: the representation decision of §III-B1.
//!
//! UltraPrecise evaluated three layouts for a decimal column and kept the
//! compact one:
//!
//! * **compact** (chosen): `Lb = ⌈(1+p·log₂10)/8⌉` bytes, sign folded into
//!   one bit; additions between different scales pay an alignment multiply;
//! * **word-aligned**: `4·Lw + 1` bytes, same arithmetic, more traffic;
//! * **alternative** (PostgreSQL/RateupDB style, discarded): decimal point
//!   between array elements, `alt_words·4 + 1` bytes — **no alignment
//!   multiply ever**, but up to double the storage at low precision.
//!
//! The paper's verdict: "compared to the align operations, reading data
//! from the memory dominates the execution time of additions and
//! subtractions. A compact representation benefits the calculation."
//! This harness prices `a + b` (different scales, so compact/word pay the
//! alignment) under all three layouts and reports storage and time.

use up_baselines::AltDecimal;
use up_bench::{fmt_time, precision_for_len, print_header, print_row, HarnessOpts, LEN_SERIES};
use up_gpusim::cost::kernel_time;
use up_gpusim::{DeviceConfig, ExecStats};
use up_num::DecimalType;

/// Modeled launch statistics for an `a + b` pass over `n` tuples where
/// each operand/result occupies `bytes` and the kernel additionally runs
/// `align_cycles` of alignment work per warp-tuple.
fn stats_for(n: u64, bytes_per_tuple: u64, add_cycles: f64, align_cycles: f64, device: &DeviceConfig) -> ExecStats {
    let warps = n.div_ceil(device.warp_size as u64).max(1);
    let per_warp = add_cycles + align_cycles + 40.0; // loads/stores/addressing
    ExecStats {
        thread_insts: (per_warp * n as f64) as u64,
        warp_issue_cycles: per_warp * warps as f64,
        warp_issues: (per_warp * warps as f64) as u64,
        mem_transactions: n * bytes_per_tuple / 32 + 1,
        dram_bytes: n * bytes_per_tuple,
        divergent_branches: 0,
        warps,
        blocks: warps.div_ceil(8),
    }
}

fn main() {
    let opts = HarnessOpts::from_args(10_000);
    let device = DeviceConfig::a6000();
    let n = opts.report_tuples;
    println!(
        "§III-B1 ablation: a + b (scales 2 vs 9) at {} tuples under three layouts\n",
        n
    );

    let widths = [7usize, 10, 10, 10, 12, 12, 12];
    print_header(
        &["LEN", "compact B", "word B", "alt B", "t compact", "t word", "t alt"],
        &widths,
    );
    // Low-precision rows first — where §III-B1's "double space is
    // required" bites (1.23 in a word-aligned split layout needs two
    // words where compact needs one).
    let mut cases: Vec<(String, u32, u32)> = vec![
        ("p=4".into(), 4, 2),
        ("p=9".into(), 9, 4),
    ];
    for &len in &LEN_SERIES {
        cases.push((format!("{len}"), precision_for_len(len) - 1, 9));
    }
    for (label, p, s2) in cases {
        let t1 = DecimalType::new_unchecked(p, 2.min(p - 1));
        let t2 = DecimalType::new_unchecked(p, s2.min(p - 1));
        let out = t1.add_result(&t2);
        let lw = out.lw() as f64;

        // Bytes per tuple: two operands + result.
        let compact_b = (t1.lb() + t2.lb() + out.lb()) as u64;
        let word_b = (4 * t1.lw() + 1 + 4 * t2.lw() + 1 + 4 * out.lw() + 1) as u64;
        let alt_b = (AltDecimal::bytes_for(t1) + AltDecimal::bytes_for(t2) + AltDecimal::bytes_for(out)) as u64;

        // Compute: the addc chain costs ~2·Lw; the alignment multiply is a
        // generic Lw×Lw schoolbook (§III-D1) for compact/word layouts; the
        // alternative layout never aligns (Fig. 5) but adds a base-10⁹
        // carry normalization per fraction word.
        let add_cycles = 2.0 * lw;
        let align = 6.0 * lw * lw;
        let alt_extra = 4.0 * (out.scale as f64 / 9.0).ceil();

        let time = |bytes: u64, align_cycles: f64| {
            let s = stats_for(n, bytes, add_cycles, align_cycles, &device);
            kernel_time(16 + (2.2 * lw) as u32, &s, &device).total_s
        };
        let t_compact = time(compact_b, align);
        let t_word = time(word_b, align);
        let t_alt = time(alt_b, alt_extra);

        print_row(
            &[
                label,
                format!("{compact_b}"),
                format!("{word_b}"),
                format!("{alt_b}"),
                fmt_time(t_compact),
                fmt_time(t_word),
                fmt_time(t_alt),
            ],
            &widths,
        );
    }
    println!(
        "\nReading the table: at low LEN the alternative layout moves up to 2× the \
         bytes (its whole premise — skipping the alignment multiply — buys little \
         because the kernel is memory-bound), so compact wins; at high LEN the \
         alignment multiply grows as Lw² and the gap narrows, which is why the \
         paper pairs the compact layout with alignment *scheduling* (Fig. 10) \
         instead of switching representations."
    );
}
