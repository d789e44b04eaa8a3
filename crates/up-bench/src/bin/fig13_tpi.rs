//! Figure 13 — multi-threading arithmetic: kernel time of `a + b`,
//! `a × b`, and `a ÷ b` at TPI ∈ {1, 4, 8, 16, 32} across the LEN
//! series (§IV-C1).
//!
//! Expected shape: at low LEN single- and multi-threading are comparable;
//! at LEN 32 the 8-thread groups roughly halve the single-thread time
//! (49.67 ms → 23.67 ms for additions in the paper) thanks to coalesced
//! accesses and split work. Division uses Newton–Raphson in the groups
//! and the §III-C2 binary search single-threaded; the CGBN restriction
//! `LEN/TPI ≤ TPI` leaves the (TPI=4, LEN=32) cell empty, exactly as the
//! paper's plot.

use up_bench::{fmt_time, precision_for_len, print_header, print_row, HarnessOpts, LEN_SERIES};
use up_gpusim::cgbn::{self, GroupOp, Tpi, TPI_VALUES};
use up_gpusim::cost::kernel_time;
use up_gpusim::DeviceConfig;
use up_num::{DecimalType, UpDecimal};
use up_workloads::datagen;

fn main() {
    let opts = HarnessOpts::from_args(2_000);
    let device = DeviceConfig::a6000();
    println!(
        "Figure 13: TPI sweep over single arithmetic operators at {} instances\n",
        opts.report_tuples
    );

    for (op, label) in [
        (GroupOp::Add, "a + b"),
        (GroupOp::Mul, "a × b"),
        (GroupOp::Div, "a ÷ b"),
    ] {
        println!("operator: {label}");
        let widths = [7usize, 12, 12, 12, 12, 12];
        print_header(&["LEN", "TPI=1", "TPI=4", "TPI=8", "TPI=16", "TPI=32"], &widths);
        for &len in &LEN_SERIES {
            let result_p = precision_for_len(len);
            let col_p = match op {
                GroupOp::Mul => (result_p / 2).max(5),
                _ => result_p - 1,
            };
            let ty = DecimalType::new_unchecked(col_p, 2);
            // One representative operand pair drives the analytic model;
            // functional equivalence across TPI is covered by tests.
            let a = datagen::random_decimal_column(4, ty, 2, true, 70 + len as u64);
            let b = datagen::random_decimal_column(4, ty, 2, false, 80 + len as u64);

            let mut cells = vec![format!("{len}")];
            for &tpi in &TPI_VALUES {
                let tpi = Tpi(tpi);
                let cell = if op == GroupOp::Div && tpi.0 == 1 {
                    // Single-threaded division is the §III-C2 binary
                    // search, not CGBN.
                    let cost = cgbn::single_thread_div_cost(ty, ty);
                    let stats = cgbn::op_stats(&cost, opts.report_tuples, tpi, &device);
                    fmt_time(kernel_time(cgbn::group_hw_regs(len, tpi), &stats, &device).total_s)
                } else {
                    match run_op(op, &a[0], &b[0], tpi, opts.report_tuples, &device, len) {
                        Some(t) => fmt_time(t),
                        None => "—".to_string(),
                    }
                };
                cells.push(cell);
            }
            print_row(&cells, &widths);
        }
        println!();
    }
    println!(
        "— : the CGBN Newton–Raphson restriction LEN/TPI ≤ TPI (no data presented, \
         matching the paper). Shapes to check: flat rows at low LEN; ~2× gains from \
         8-thread groups at LEN 32; division orders of magnitude above add/mul."
    );
}

fn run_op(
    op: GroupOp,
    a: &UpDecimal,
    b: &UpDecimal,
    tpi: Tpi,
    n: u64,
    device: &DeviceConfig,
    len: usize,
) -> Option<f64> {
    let (_, cost) = cgbn::group_eval(op, a, b, tpi).ok()?;
    let stats = cgbn::op_stats(&cost, n, tpi, device);
    Some(kernel_time(cgbn::group_hw_regs(len, tpi), &stats, device).total_s)
}
