#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! # up-gpusim — the simulated GPU substrate
//!
//! A SIMT GPU simulator standing in for the NVIDIA A6000 + CUDA stack the
//! paper evaluates on: a PTX-like ISA ([`ptx`]), a functional lockstep-warp
//! executor with coalescing-aware memory statistics ([`exec`]), an analytic
//! cost model turning those statistics into kernel times ([`cost`]),
//! CGBN-style thread-group big-number arithmetic ([`cgbn`], §III-E1),
//! multi-pass aggregation (§III-E2, [`reduce`]), and an Nsight-like
//! profiler view ([`profiler`]).

mod analysis;
pub mod cgbn;
pub mod compiled;
pub mod decoded;
pub mod disasm;
mod divbig;
pub mod cost;
pub mod device;
pub mod exec;
pub mod profiler;
pub mod ptx;
pub mod reduce;

pub use compiled::{
    compile_counters, last_launch_tiers, thunk_isa, tier_counters, CompiledProgram, ExecTier,
    FusedRunInfo, ThunkIsa, TierCounters, TIER_THRESHOLD,
};
pub use decoded::{decode_counters, DecodedProgram, ExecBackend};
pub use device::DeviceConfig;
pub use exec::{
    launch, launch_opts, ExecStats, GlobalMem, LaunchConfig, LaunchOpts, SimError,
};
pub use ptx::{
    AddrForm, CmpOp, IfStmt, Inst, Kernel, KernelBuilder, PReg, Reg, Special, Stmt, WhileStmt,
};

/// log₂(10) — bit-per-decimal-digit conversion used by cost formulas.
pub const LOG2_10_APPROX: f64 = core::f64::consts::LOG2_10;
