//! Analytic kernel-time estimator.
//!
//! The functional executor yields per-launch statistics; this module prices
//! them against a [`DeviceConfig`] with a roofline-style model:
//!
//! ```text
//! t_compute = warp_issue_cycles / (SMs · schedulers · clock)
//! t_memory  = dram_bytes / bandwidth
//! t_latency = transactions · mem_latency / (resident warps · clock)
//! t_kernel  = max(t_compute / occupancy_feed, t_memory, t_latency) + launch overhead
//! ```
//!
//! where `occupancy_feed` saturates at 1 once enough warps are resident to
//! keep the schedulers fed. The model is deliberately simple; its purpose
//! is reproducing the evaluation's *shapes* — memory-bound low-LEN
//! kernels (§IV-A's 4% SM utilization), occupancy cliffs at high LEN, and
//! the PCIe term of end-to-end queries — not absolute nanoseconds.

use crate::device::DeviceConfig;
use crate::exec::ExecStats;

/// A priced kernel execution.
#[derive(Clone, Copy, Debug)]
pub struct KernelTime {
    /// Seconds the kernel occupies the GPU.
    pub total_s: f64,
    /// Compute-pipeline component (seconds), after occupancy throttling.
    pub compute_s: f64,
    /// DRAM-bandwidth component (seconds).
    pub memory_s: f64,
    /// Latency-bound component (seconds).
    pub latency_s: f64,
    /// Fixed launch overhead (seconds).
    pub overhead_s: f64,
    /// Occupancy the register model allows (0..=1).
    pub occupancy: f64,
    /// Fraction of kernel time the compute pipes are busy — the "SM
    /// utilization" Nsight Compute reports in §IV-A.
    pub sm_utilization: f64,
}

/// Prices a launch on a device, for a kernel using `hw_regs_per_thread`
/// hardware registers per thread ([`crate::Kernel::hw_regs_per_thread`]).
pub fn kernel_time(hw_regs_per_thread: u32, stats: &ExecStats, device: &DeviceConfig) -> KernelTime {
    let clock_hz = device.clock_ghz * 1e9;
    let issue_rate = device.sm_count as f64 * device.schedulers_per_sm as f64 * clock_hz;
    let occupancy = device.occupancy(hw_regs_per_thread);

    let compute_s = stats.warp_issue_cycles / issue_rate;
    let memory_s = stats.dram_bytes as f64 / (device.mem_bandwidth_gbps * 1e9);

    // Latency-bound term: each memory transaction stalls its warp for the
    // DRAM latency; resident warps across the device hide stalls in
    // parallel, and every warp keeps several transactions in flight
    // (memory-level parallelism — decimal kernels issue word/byte loads
    // back-to-back before consuming them).
    const MLP: f64 = 8.0;
    let resident_warps =
        (occupancy * device.max_warps_per_sm() as f64 * device.sm_count as f64).max(1.0);
    let resident_warps = resident_warps.min(stats.warps.max(1) as f64);
    let latency_s = stats.mem_transactions as f64 * device.mem_latency_cycles
        / (resident_warps * MLP * clock_hz);

    // Low occupancy also throttles the issue pipes: with fewer than ~8
    // resident warps per scheduler the pipes cannot stay fed.
    let feed = (occupancy * device.max_warps_per_sm() as f64
        / (device.schedulers_per_sm as f64 * 4.0))
        .min(1.0);
    let compute_eff = compute_s / feed.max(0.05);

    let overhead_s = device.launch_overhead_us * 1e-6;
    let busy = compute_eff.max(memory_s).max(latency_s);
    let total_s = busy + overhead_s;
    KernelTime {
        total_s,
        compute_s: compute_eff,
        memory_s,
        latency_s,
        overhead_s,
        occupancy,
        sm_utilization: if busy > 0.0 { (compute_s / busy).min(1.0) } else { 0.0 },
    }
}

/// Models the NVCC/JIT compilation latency of a generated kernel: a fixed
/// front-end cost plus a per-instruction back-end cost. Calibrated against
/// the paper's TPC-H Q1 observation that compile time grows from 320 ms
/// (LEN=2) to 423 ms (LEN=32) "due to the longer code generated"
/// (§IV-D1). Our IR construction itself takes microseconds; this constant
/// models the real toolchain a deployment would invoke.
pub fn modeled_compile_time_s(static_insts: usize) -> f64 {
    0.300 + static_insts as f64 * 6.0e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(warp_issue_cycles: f64, dram_bytes: u64, transactions: u64, warps: u64) -> ExecStats {
        ExecStats {
            warp_issue_cycles,
            dram_bytes,
            mem_transactions: transactions,
            warps,
            ..Default::default()
        }
    }

    #[test]
    fn memory_bound_kernel_has_low_sm_utilization() {
        // Mirror §IV-A: simple additions — lots of bytes, few cycles.
        let d = DeviceConfig::a6000();
        // 10M tuples × 3 × 8 bytes ≈ 240 MB moved, ~40 issue cycles/warp.
        let s = stats(40.0 * 312_500.0, 240_000_000, 7_500_000, 312_500);
        let t = kernel_time(34, &s, &d);
        assert!(t.memory_s > t.compute_s, "{t:?}");
        assert!(t.sm_utilization < 0.15, "{t:?}");
    }

    #[test]
    fn compute_bound_kernel_has_high_utilization() {
        let d = DeviceConfig::a6000();
        // Division-heavy: enormous cycle counts, modest memory.
        let s = stats(5_000.0 * 312_500.0, 240_000_000, 7_500_000, 312_500);
        let t = kernel_time(40, &s, &d);
        assert!(t.compute_s > t.memory_s);
        assert!(t.sm_utilization > 0.9);
    }

    #[test]
    fn register_pressure_slows_compute_bound_kernels() {
        let d = DeviceConfig::a6000();
        let s = stats(5_000.0 * 312_500.0, 1_000_000, 31_250, 312_500);
        let light = kernel_time(40, &s, &d);
        let heavy = kernel_time(200, &s, &d);
        assert!(heavy.total_s > light.total_s, "{heavy:?} vs {light:?}");
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let d = DeviceConfig::a6000();
        let t = kernel_time(32, &stats(10.0, 64, 2, 1), &d);
        assert!(t.total_s >= d.launch_overhead_us * 1e-6);
    }

    #[test]
    fn compile_time_model_matches_paper_range() {
        // LEN=2 kernels are a few thousand instructions; LEN=32 tens of
        // thousands — the paper reports 320 ms → 423 ms (§IV-D1).
        let small = modeled_compile_time_s(3_000);
        let large = modeled_compile_time_s(20_000);
        assert!((0.30..=0.35).contains(&small), "{small}");
        assert!((0.40..=0.50).contains(&large), "{large}");
    }
}
