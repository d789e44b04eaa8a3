//! Device model: the simulated GPU's resources and cost constants.
//!
//! The evaluation machine is an NVIDIA Quadro RTX A6000 (48 GB GDDR6, PCIe
//! 4.0) driven by CUDA 11.6 (§IV). [`DeviceConfig::a6000`] reproduces that
//! profile; all cost-model constants are collected here so the analytic
//! estimator in [`crate::cost`] has a single calibration surface.

/// Static resources and throughput constants of a simulated device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Streaming multiprocessor count.
    pub sm_count: u32,
    /// Threads per warp (fixed at 32 on all NVIDIA hardware).
    pub warp_size: u32,
    /// Warp schedulers per SM (instruction issue slots per cycle).
    pub schedulers_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers addressable by one thread.
    pub max_registers_per_thread: u32,
    /// Shared memory per block (bytes) — the `S` of §III-E2.
    pub shared_mem_per_block: u32,
    /// Core clock (GHz).
    pub clock_ghz: f64,
    /// Device-memory bandwidth (GB/s).
    pub mem_bandwidth_gbps: f64,
    /// Effective host↔device PCIe bandwidth (GB/s).
    pub pcie_bandwidth_gbps: f64,
    /// Fixed kernel-launch overhead (µs).
    pub launch_overhead_us: f64,
    /// Average DRAM access latency (cycles) — used when occupancy is too
    /// low to hide it.
    pub mem_latency_cycles: f64,
}

impl DeviceConfig {
    /// The paper's evaluation GPU: NVIDIA Quadro RTX A6000 (GA102: 84 SMs,
    /// 1.80 GHz boost, 768 GB/s GDDR6) on PCIe 4.0 ×16 (~25 GB/s effective).
    pub fn a6000() -> Self {
        DeviceConfig {
            name: "Quadro RTX A6000 (simulated)",
            sm_count: 84,
            warp_size: 32,
            schedulers_per_sm: 4,
            max_threads_per_sm: 1536,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            max_registers_per_thread: 255,
            shared_mem_per_block: 48 * 1024,
            clock_ghz: 1.80,
            mem_bandwidth_gbps: 768.0,
            pcie_bandwidth_gbps: 25.0,
            launch_overhead_us: 5.0,
            mem_latency_cycles: 450.0,
        }
    }

    /// A deliberately small device for fast functional tests (same ISA,
    /// tiny resources — more blocks per launch exercise the scheduler).
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "tiny-test-device",
            sm_count: 2,
            warp_size: 32,
            schedulers_per_sm: 1,
            max_threads_per_sm: 256,
            max_threads_per_block: 128,
            registers_per_sm: 8192,
            max_registers_per_thread: 255,
            shared_mem_per_block: 4 * 1024,
            clock_ghz: 1.0,
            mem_bandwidth_gbps: 10.0,
            pcie_bandwidth_gbps: 2.0,
            launch_overhead_us: 1.0,
            mem_latency_cycles: 200.0,
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Occupancy (0..=1] achievable by a kernel using `regs_per_thread`
    /// registers: the register file bounds resident warps, exactly the
    /// effect the paper profiles ("more registers are required by a thread
    /// and the warp occupancy becomes 50%", §IV-A).
    pub fn occupancy(&self, regs_per_thread: u32) -> f64 {
        let regs = regs_per_thread.clamp(16, self.max_registers_per_thread);
        let warps_by_regs = self.registers_per_sm / (regs * self.warp_size);
        let warps = warps_by_regs.min(self.max_warps_per_sm()).max(1);
        warps as f64 / self.max_warps_per_sm() as f64
    }

    /// Time to move `bytes` across PCIe, in seconds.
    pub fn pcie_time(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.pcie_bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a6000_profile_sanity() {
        let d = DeviceConfig::a6000();
        assert_eq!(d.max_warps_per_sm(), 48);
        assert!(d.occupancy(32) > 0.95); // light kernels reach full occupancy
    }

    #[test]
    fn occupancy_halves_with_register_pressure() {
        let d = DeviceConfig::a6000();
        // ~42 regs/thread is the last full-occupancy point on GA102.
        assert!((d.occupancy(42) - 1.0).abs() < 1e-9);
        // The paper's LEN=32 addition kernel drops to 50% occupancy.
        let half = d.occupancy(85);
        assert!((0.4..=0.55).contains(&half), "occupancy {half}");
        // And the LEN=32 multiplication kernel to 33%.
        let third = d.occupancy(128);
        assert!((0.30..=0.36).contains(&third), "occupancy {third}");
    }

    #[test]
    fn occupancy_is_monotonic_in_registers() {
        let d = DeviceConfig::a6000();
        let mut prev = 2.0;
        for regs in (16..=255).step_by(8) {
            let o = d.occupancy(regs);
            assert!(o <= prev + 1e-12, "regs={regs}");
            assert!(o > 0.0);
            prev = o;
        }
    }

    #[test]
    fn pcie_time_scales_linearly() {
        let d = DeviceConfig::a6000();
        let t1 = d.pcie_time(1 << 30);
        assert!((t1 - (1u64 << 30) as f64 / 25e9).abs() < 1e-12);
        assert!((d.pcie_time(2 << 30) / t1 - 2.0).abs() < 1e-9);
    }
}
