//! Nsight-Compute-style profiling report.
//!
//! §IV-A profiles `a + b` and `a × b` kernels and reports SM utilization
//! and warp occupancy ("for additions, the SM utilization is 4.14% if LEN
//! is 8 even though the warp occupancy is 100% already… As LEN increases
//! to 32, the SM utilization decreases to 2.31%… the warp occupancy
//! becomes 50%"). This module packages the same two headline metrics from
//! a priced launch so the `prof_sm_util` harness can print the paper-style
//! table.

use crate::cost::KernelTime;
use crate::compiled::ThunkIsa;
use crate::exec::ExecStats;
use crate::ptx::Kernel;

/// A per-kernel profile row, mirroring the Nsight metrics quoted in §IV-A.
#[derive(Clone, Debug)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Achieved warp occupancy (0..=1).
    pub occupancy: f64,
    /// SM (compute-pipe) utilization (0..=1).
    pub sm_utilization: f64,
    /// Dynamic warp-level instruction issues.
    pub warp_issues: u64,
    /// Global-memory transactions.
    pub mem_transactions: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Divergent branches observed.
    pub divergent_branches: u64,
    /// Estimated registers per thread.
    pub regs_per_thread: u32,
    /// Compiled-tier superblocks fully lowered to closures and mem
    /// thunks (0 when the kernel has not been closure-compiled).
    pub lowered_superblocks: usize,
    /// Compiled-tier superblocks still containing interpreter fallback
    /// steps.
    pub fallback_superblocks: usize,
    /// Global-memory instructions lowered to first-class mem thunks.
    pub lowered_mem_thunks: usize,
    /// Instructions kept as interpreter fallback frames.
    pub fallback_interp_insts: usize,
    /// Compact-codec byte runs fused into single steps.
    pub fused_codec_runs: usize,
    /// Instructions those fused runs cover.
    pub fused_codec_insts: usize,
    /// The thunk set the compiled program's ALU closures were built from
    /// (`None` when the kernel has not been closure-compiled).
    pub thunk_isa: Option<ThunkIsa>,
}

impl KernelProfile {
    /// Assembles a profile from a launch's statistics and priced time.
    /// The lowered/fallback shape is read from the kernel's compiled
    /// artifact when one exists; profiling never forces a compile.
    pub fn collect(kernel: &Kernel, stats: &ExecStats, time: &KernelTime) -> KernelProfile {
        let cp = kernel.compiled_tier_built().then(|| kernel.compiled_program());
        let [lowered_sb, fallback_sb, mem_thunks, interp, codec_runs, codec_insts] =
            if let Some(cp) = cp {
                [
                    cp.lowered_superblock_count(),
                    cp.fallback_superblock_count(),
                    cp.mem_inst_count(),
                    cp.interp_inst_count(),
                    cp.fused_codec_run_count(),
                    cp.fused_codec_inst_count(),
                ]
            } else {
                [0; 6]
            };
        KernelProfile {
            name: kernel.name.clone(),
            occupancy: time.occupancy,
            sm_utilization: time.sm_utilization,
            warp_issues: stats.warp_issues,
            mem_transactions: stats.mem_transactions,
            dram_bytes: stats.dram_bytes,
            divergent_branches: stats.divergent_branches,
            regs_per_thread: kernel.hw_regs_per_thread,
            lowered_superblocks: lowered_sb,
            fallback_superblocks: fallback_sb,
            lowered_mem_thunks: mem_thunks,
            fallback_interp_insts: interp,
            fused_codec_runs: codec_runs,
            fused_codec_insts: codec_insts,
            thunk_isa: cp.map(|cp| cp.isa()),
        }
    }

    /// One-line report, percentage formatted like the paper's quotes.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{}: occupancy {:.0}%, SM util {:.2}%, {} warp issues, {} mem txns, {} B DRAM",
            self.name,
            self.occupancy * 100.0,
            self.sm_utilization * 100.0,
            self.warp_issues,
            self.mem_transactions,
            self.dram_bytes,
        );
        if self.lowered_superblocks + self.fallback_superblocks > 0 {
            line.push_str(&format!(
                ", {}/{} superblocks lowered ({} mem thunks, {} fallback insts, {} codec runs over {} insts), {} ALU thunks",
                self.lowered_superblocks,
                self.lowered_superblocks + self.fallback_superblocks,
                self.lowered_mem_thunks,
                self.fallback_interp_insts,
                self.fused_codec_runs,
                self.fused_codec_insts,
                self.thunk_isa.map_or("no", ThunkIsa::name),
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kernel_time;
    use crate::device::DeviceConfig;
    use crate::ptx::KernelBuilder;

    #[test]
    fn profile_carries_through_metrics() {
        let d = DeviceConfig::a6000();
        let k = KernelBuilder::new().finish("add_len8", 34);
        let stats = ExecStats {
            warp_issue_cycles: 1e7,
            warp_issues: 9_000_000,
            dram_bytes: 500_000_000,
            mem_transactions: 15_000_000,
            warps: 312_500,
            sample_scale: 1.0,
            ..Default::default()
        };
        let t = kernel_time(&k, &stats, &d);
        let p = KernelProfile::collect(&k, &stats, &t);
        assert_eq!(p.name, "add_len8");
        assert!(p.summary().contains("occupancy"));
        assert!(p.occupancy > 0.9); // 34 regs → full occupancy
        assert!(p.sm_utilization < 0.2); // memory-bound
        // Never compiled → no lowering shape (and no forced compile).
        assert_eq!(p.lowered_superblocks, 0);
        assert_eq!(p.fallback_superblocks, 0);
        assert_eq!(p.thunk_isa, None);
        assert!(!p.summary().contains("superblocks lowered"));
    }

    #[test]
    fn profile_reports_lowering_shape_once_compiled() {
        use crate::ptx::{Inst as I, Special};
        let d = DeviceConfig::a6000();
        let mut kb = KernelBuilder::new();
        let t = kb.reg();
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        let v = kb.reg();
        kb.push(I::LdGlobalU8 { d: v, buf: 0, addr: t });
        kb.push(I::StGlobalU8 { buf: 1, addr: t, src: v });
        let k = kb.finish("codec_row", 8);
        let _ = k.compiled_program(); // force the build, as a hot launch would
        let stats = ExecStats { warps: 1, sample_scale: 1.0, ..Default::default() };
        let t = kernel_time(&k, &stats, &d);
        let p = KernelProfile::collect(&k, &stats, &t);
        assert_eq!(p.lowered_superblocks, 1);
        assert_eq!(p.fallback_superblocks, 0);
        assert_eq!(p.lowered_mem_thunks, 2);
        assert_eq!(p.fallback_interp_insts, 0);
        assert_eq!((p.fused_codec_runs, p.fused_codec_insts), (0, 0), "one load, one store");
        assert_eq!(p.thunk_isa, Some(crate::thunk_isa()));
        assert!(p.summary().contains(&format!(
            "1/1 superblocks lowered (2 mem thunks, 0 fallback insts, 0 codec runs over 0 insts), {} ALU thunks",
            crate::thunk_isa()
        )));
    }
}
