//! Shared infrastructure for the figure/table harnesses.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section: it runs the workload at a simulation-friendly
//! tuple count, scales the linear components of the modeled time to the
//! paper's 10-million-tuple relations, and prints the same rows/series
//! the paper reports (absolute numbers differ — the substrate is a
//! simulator — but the winners, factors, and crossovers should hold; see
//! EXPERIMENTS.md).

use up_engine::ModeledTime;

/// Tuples in the paper's relations ("10 million tuples unless otherwise
/// specified", §IV).
pub const PAPER_TUPLES: u64 = 10_000_000;

/// Harness options parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOpts {
    /// Tuples to actually simulate.
    pub sim_tuples: usize,
    /// Tuples to report at (modeled scaling target).
    pub report_tuples: u64,
    /// Quick mode (CI-friendly sizes).
    pub quick: bool,
}

impl HarnessOpts {
    /// Parses `--quick` and `--tuples N` from `std::env::args`.
    pub fn from_args(default_sim: usize) -> HarnessOpts {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let mut sim = if quick { default_sim / 10 } else { default_sim };
        if let Some(i) = args.iter().position(|a| a == "--tuples") {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                sim = v;
            }
        }
        HarnessOpts {
            sim_tuples: sim.max(64),
            report_tuples: PAPER_TUPLES,
            quick,
        }
    }

    /// Linear scaling factor from simulated to reported size.
    pub fn scale(&self) -> f64 {
        self.report_tuples as f64 / self.sim_tuples as f64
    }
}

/// Scales the tuple-linear components of a modeled time (scan, PCIe,
/// kernel, CPU) while keeping compile time constant — compilation does
/// not depend on the data volume (§IV-D1).
pub fn scale_modeled(m: &ModeledTime, factor: f64) -> ModeledTime {
    ModeledTime {
        scan_s: m.scan_s * factor,
        pcie_s: m.pcie_s * factor,
        compile_s: m.compile_s,
        kernel_s: m.kernel_s * factor,
        cpu_s: m.cpu_s * factor,
    }
}

/// Formats seconds the way the paper mixes units (ms below 10 s).
pub fn fmt_time(s: f64) -> String {
    if !s.is_finite() {
        "-".to_string()
    } else if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 10.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} s", s)
    }
}

/// Formats a "failed/unsupported" cell.
pub fn fmt_fail(reason: &str) -> String {
    format!("✗ ({reason})")
}

/// Prints a row of fixed-width cells.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a left-aligned header row plus a rule.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    let line = line.trim_end().to_string();
    println!("{line}");
    println!("{}", "-".repeat(line.chars().count()));
}

/// The evaluation's LEN series and the result precisions they stand for
/// (§IV "Workloads": 18/38/76/153/307 ↔ 2/4/8/16/32 words).
pub const LEN_SERIES: [usize; 5] = [2, 4, 8, 16, 32];

/// Result precision for a LEN.
pub fn precision_for_len(len: usize) -> u32 {
    up_num::max_precision_for_lw(len)
}

/// Helpers for system-sweep harnesses.
pub mod runner {
    use super::scale_modeled;
    use up_engine::{ColumnType, Database, ModeledTime, Profile, Schema, Value};
    use up_num::{DecimalType, UpDecimal};
    use up_workloads::datagen;

    /// Builds a database holding one table of decimal columns filled with
    /// seeded random data (`headroom` digits held back per column).
    pub fn decimal_db(
        profile: Profile,
        table: &str,
        cols: &[(&str, DecimalType)],
        n: usize,
        headroom: u32,
        seed: u64,
    ) -> Database {
        let mut db = Database::new(profile);
        db.create_table(
            table,
            Schema::new(cols.iter().map(|(nm, ty)| (*nm, ColumnType::Decimal(*ty))).collect()),
        );
        let data: Vec<Vec<UpDecimal>> = cols
            .iter()
            .enumerate()
            .map(|(c, (_, ty))| {
                datagen::random_decimal_column(n, *ty, headroom, true, seed + c as u64)
            })
            .collect();
        for i in 0..n {
            let row = data.iter().map(|col| Value::Decimal(col[i].clone())).collect();
            db.insert(table, row).unwrap();
        }
        db
    }

    /// One system's outcome in a sweep: a scaled modeled time, or the
    /// failure reason (capability errors are results, not bugs — the
    /// paper plots the missing bars the same way).
    #[derive(Clone, Debug)]
    pub struct Outcome {
        /// System name.
        pub system: String,
        /// Modeled time (scaled), or the failure string.
        pub result: Result<ModeledTime, String>,
    }

    impl Outcome {
        /// Renders the total (or the failure).
        pub fn cell(&self) -> String {
            match &self.result {
                Ok(m) => super::fmt_time(m.total()),
                Err(e) => super::fmt_fail(e),
            }
        }
    }

    /// Runs `sql` on a freshly-built database for each profile, scaling
    /// the modeled time by `scale`. `warm` re-runs the query once so the
    /// kernel cache absorbs compilation (Table I methodology).
    pub fn sweep(
        profiles: &[Profile],
        mut build: impl FnMut(Profile) -> Database,
        sql: &str,
        scale: f64,
        warm: bool,
    ) -> Vec<Outcome> {
        profiles
            .iter()
            .map(|&p| {
                let db = build(p);
                let run = || -> Result<ModeledTime, String> {
                    let r = db.query(sql).map_err(|e| e.to_string())?;
                    Ok(r.modeled)
                };
                let mut result = run();
                if warm && result.is_ok() {
                    result = run();
                }
                Outcome {
                    system: p.name().to_string(),
                    result: result.map(|m| scale_modeled(&m, scale)),
                }
            })
            .collect()
    }
}

/// Direct kernel-level measurement (the Fig. 10–12 GPU-kernel figures
/// report kernel execution time, not end-to-end queries).
pub mod kernels {
    use up_gpusim::cost::{kernel_time, KernelTime};
    use up_gpusim::{launch, DeviceConfig, ExecStats, GlobalMem, LaunchConfig};
    use up_jit::cache::{Compiled, JitEngine, JitOptions};
    use up_jit::Expr;
    use up_num::{encode_compact, UpDecimal};

    /// One priced kernel execution, extrapolated to `n_report` tuples.
    #[derive(Clone, Debug)]
    pub struct KernelRun {
        /// Priced time at the reported tuple count.
        pub time: KernelTime,
        /// Raw (scaled) statistics.
        pub stats: ExecStats,
        /// Static instructions of the generated kernel.
        pub static_insts: usize,
        /// Estimated hardware registers per thread.
        pub hw_regs: u32,
        /// Result word length.
        pub out_lw: usize,
    }

    /// Compiles `expr` under `opts`, runs it functionally over `cols`
    /// (expression slot `i` reads `cols[i]`), linearly extrapolates the
    /// statistics to `n_report` tuples, and prices them on the A6000
    /// profile. Returns `None` for expressions folded to a passthrough
    /// ("no GPU kernel is generated").
    pub fn run_expr(
        expr: &Expr,
        cols: &[Vec<UpDecimal>],
        opts: JitOptions,
        n_report: u64,
    ) -> Option<KernelRun> {
        let n = cols.first().map(|c| c.len()).unwrap_or(0).max(1);
        let jit = JitEngine::new(opts);
        let (compiled, _) = jit.compile(expr);
        let Compiled::Kernel(k) = compiled else {
            return None;
        };
        let device = DeviceConfig::a6000();
        let mut mem = GlobalMem::new();
        for col in cols.iter().take(k.n_inputs) {
            let ty = col[0].dtype();
            let mut bytes = Vec::with_capacity(n * ty.lb());
            for v in col {
                bytes.extend(encode_compact(v, ty).expect("fits declared type"));
            }
            mem.add_buffer(bytes);
        }
        mem.alloc(n * k.out_ty.lb());
        let cfg = LaunchConfig::for_tuples(n as u64, 256, &device);
        let mut stats =
            launch(&k.kernel, cfg, &device, &mut mem, &[n as u32]).expect("kernel launch");
        let factor = n_report as f64 / n as f64;
        stats = scale_stats(stats, factor);
        let time = kernel_time(k.kernel.hw_regs_per_thread, &stats, &device);
        Some(KernelRun {
            time,
            stats,
            static_insts: k.kernel.static_inst_count(),
            hw_regs: k.kernel.hw_regs_per_thread,
            out_lw: k.out_ty.lw(),
        })
    }

    fn scale_stats(s: ExecStats, f: f64) -> ExecStats {
        ExecStats {
            thread_insts: (s.thread_insts as f64 * f) as u64,
            warp_issue_cycles: s.warp_issue_cycles * f,
            warp_issues: (s.warp_issues as f64 * f) as u64,
            mem_transactions: (s.mem_transactions as f64 * f) as u64,
            dram_bytes: (s.dram_bytes as f64 * f) as u64,
            divergent_branches: (s.divergent_branches as f64 * f) as u64,
            warps: (s.warps as f64 * f) as u64,
            blocks: (s.blocks as f64 * f) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_keeps_compile_constant() {
        let m = ModeledTime {
            scan_s: 1.0,
            pcie_s: 2.0,
            compile_s: 3.0,
            kernel_s: 4.0,
            cpu_s: 5.0,
        };
        let s = scale_modeled(&m, 10.0);
        assert_eq!(s.compile_s, 3.0);
        assert_eq!(s.kernel_s, 40.0);
        assert_eq!(s.total(), 10.0 + 20.0 + 3.0 + 40.0 + 50.0);
    }

    #[test]
    fn len_series_matches_paper() {
        let ps: Vec<u32> = LEN_SERIES.iter().map(|&l| precision_for_len(l)).collect();
        assert_eq!(ps, vec![18, 38, 76, 153, 307]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.0000005), "0.5 µs");
        assert_eq!(fmt_time(0.123), "123.00 ms");
        assert_eq!(fmt_time(42.0), "42.00 s");
    }
}
