//! Multi-pass, multi-threading aggregation — §III-E2.
//!
//! DECIMAL values are aggregated "in rounds for exploiting massive
//! parallelism": each pass arranges values into thread blocks, every block
//! reduces its slice in shared memory (first inner-thread, then
//! inter-thread), and the per-block results feed the next pass until one
//! block can process everything. The shared-memory sizing follows the
//! paper's formulas verbatim:
//!
//! ```text
//! Ng = Tmax / TPI                  thread groups per block
//! nt = ⌊S / (Ng·(4·Lw + 1))⌋       values per thread
//! nT = nt · Ng                     values per block
//! blocks = ⌈N / nT⌉
//! ```

use crate::cgbn::Tpi;
use crate::cost::{kernel_time, KernelTime};
use crate::device::DeviceConfig;
use crate::exec::ExecStats;
use crate::ptx::KernelBuilder;
use up_num::dtype::DecimalType;
use up_num::{SumAcc, UpDecimal};

/// Aggregation operators with DECIMAL inputs (§III-B3 lists their result
/// types; AVG is SUM followed by a division at the engine level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum with widened precision `p + ceil(log10 N)`.
    Sum,
    /// Minimum (type unchanged).
    Min,
    /// Maximum (type unchanged).
    Max,
}

/// Geometry of one aggregation pass.
#[derive(Clone, Copy, Debug)]
pub struct PassPlan {
    /// Values entering this pass.
    pub n_in: u64,
    /// Values leaving (one per block).
    pub n_out: u64,
    /// Values per thread (`nt`).
    pub nt: u64,
    /// Thread groups per block (`Ng`).
    pub ng: u64,
    /// Values per block (`nT`).
    pub n_per_block: u64,
    /// Blocks launched.
    pub blocks: u64,
}

/// The full multi-pass plan.
#[derive(Clone, Debug)]
pub struct AggPlan {
    /// TPI used.
    pub tpi: u32,
    /// Word length of the values being reduced.
    pub lw: usize,
    /// Per-pass geometry, first to last.
    pub passes: Vec<PassPlan>,
}

/// Plans the passes for aggregating `n` values of `lw` words at `tpi`.
pub fn plan_aggregation(n: u64, lw: usize, tpi: Tpi, device: &DeviceConfig) -> AggPlan {
    let t_max = device.max_threads_per_block as u64;
    let s = device.shared_mem_per_block as u64;
    let ng = (t_max / tpi.0 as u64).max(1);
    let nt = (s / (ng * (4 * lw as u64 + 1))).max(1);
    let n_per_block = nt * ng;

    let mut passes = Vec::new();
    let mut remaining = n.max(1);
    loop {
        let blocks = remaining.div_ceil(n_per_block);
        passes.push(PassPlan {
            n_in: remaining,
            n_out: blocks,
            nt,
            ng,
            n_per_block,
            blocks,
        });
        if blocks == 1 {
            break;
        }
        remaining = blocks;
    }
    AggPlan { tpi: tpi.0, lw, passes }
}

/// Result of a priced aggregation run.
#[derive(Clone, Debug)]
pub struct AggRun {
    /// The aggregate value (exact).
    pub result: UpDecimal,
    /// The plan executed.
    pub plan: AggPlan,
    /// Priced time of each pass.
    pub pass_times: Vec<KernelTime>,
    /// Sum of pass times (seconds).
    pub total_s: f64,
}

/// Prices the multi-pass aggregation of `n` values of width `lw` without
/// running it — used when the functional reduction happens elsewhere
/// (e.g. per group, while the device reduces all groups in one launch).
pub fn priced(n: u64, lw: usize, tpi: Tpi, device: &DeviceConfig) -> (AggPlan, Vec<KernelTime>, f64) {
    let plan = plan_aggregation(n, lw, tpi, device);
    let mut times = Vec::with_capacity(plan.passes.len());
    let mut total_s = 0.0;
    for pass in &plan.passes {
        let stats = pass_stats(pass, lw, tpi, device);
        let hw_regs = crate::cgbn::group_hw_regs(lw, tpi);
        let mut kb = KernelBuilder::new();
        let smem = (pass.ng * pass.nt * (4 * lw as u64 + 1)) as u32;
        kb.smem(smem.min(device.shared_mem_per_block));
        let k = kb.finish(format!("agg_pass_n{}", pass.n_in), hw_regs);
        let t = kernel_time(&k, &stats, device);
        total_s += t.total_s;
        times.push(t);
    }
    (plan, times, total_s)
}

/// Aggregates a column functionally while pricing the multi-pass GPU
/// execution. `out_ty` must be the §III-B3 result type (SUM widens; the
/// caller computes it via [`DecimalType::sum_result`]).
pub fn aggregate(
    op: AggOp,
    values: &[UpDecimal],
    out_ty: DecimalType,
    tpi: Tpi,
    device: &DeviceConfig,
) -> AggRun {
    let (plan, pass_times, total_s) = priced(values.len() as u64, out_ty.lw(), tpi, device);

    // Functional reduction, pass by pass: each block's slice reduces to
    // one value, so MIN/MAX tie-breaking follows the device's block
    // order. Within a block SUM is not a running signed sum: positive and
    // negative addends accumulate apart as fixed-width word arrays and
    // subtract once (exact either way).
    let mut current: Vec<UpDecimal> = Vec::new();
    for (i, pass) in plan.passes.iter().enumerate() {
        let src = if i == 0 { values } else { &current };
        current = src
            .chunks(pass.n_per_block.max(1) as usize)
            .map(|chunk| reduce_chunk(op, chunk, out_ty))
            .collect();
    }
    debug_assert_eq!(current.len(), 1);
    let result = current.pop().expect("aggregation of non-empty plan");
    AggRun { result, plan, pass_times, total_s }
}

fn reduce_chunk(op: AggOp, chunk: &[UpDecimal], out_ty: DecimalType) -> UpDecimal {
    let extremum = match op {
        AggOp::Sum => {
            let mut acc = SumAcc::new(out_ty.lw());
            for v in chunk {
                acc.add_decimal(v, out_ty.scale);
            }
            return UpDecimal::from_parts_unchecked(acc.finish(), out_ty);
        }
        // The first of equal values wins, as on the device.
        AggOp::Min => chunk.iter().min_by(|a, b| a.cmp_value(b)),
        AggOp::Max => chunk.iter().rev().max_by(|a, b| a.cmp_value(b)),
    }
    .expect("non-empty chunk");
    // A value that does not fit `out_ty` is still the extremum.
    extremum.cast(out_ty).unwrap_or_else(|_| extremum.clone())
}

/// Launch statistics of one pass: every value is read once into shared
/// memory ("the DECIMAL values are first read into the shared memory and
/// then aggregated"), reduced inner-thread then inter-thread.
fn pass_stats(pass: &PassPlan, lw: usize, tpi: Tpi, device: &DeviceConfig) -> ExecStats {
    let bytes_per_value = (4 * lw + 1) as u64;
    let bytes = pass.n_in * bytes_per_value;
    let threads = pass.blocks * pass.ng * tpi.0 as u64;
    let warps = threads.div_ceil(device.warp_size as u64).max(1);
    let lt = lw.div_ceil(tpi.0 as usize) as f64;
    // Inner-thread: nt−1 additions of lt words each; inter-thread:
    // log2(Ng·TPI) rounds through shared memory.
    let inner = (pass.nt.max(1) - 1) as f64 * (2.0 * lt + 2.0);
    let inter = ((pass.ng * tpi.0 as u64) as f64).log2().ceil() * (2.0 * lt + 6.0);
    let per_thread = inner + inter + 3.0 * lt + 8.0;
    ExecStats {
        thread_insts: (per_thread * threads as f64) as u64,
        warp_issue_cycles: per_thread * warps as f64,
        warp_issues: (per_thread * warps as f64) as u64,
        mem_transactions: bytes / 32 + 1,
        dram_bytes: bytes + pass.n_out * bytes_per_value,
        divergent_branches: 0,
        warps,
        blocks: pass.blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn plan_follows_paper_formulas() {
        let d = DeviceConfig::a6000();
        let tpi = Tpi(8);
        let lw = 4;
        let plan = plan_aggregation(10_000_000, lw, tpi, &d);
        let ng = 1024 / 8;
        assert_eq!(plan.passes[0].ng, ng);
        let nt = (48 * 1024) as u64 / (ng * (4 * 4 + 1));
        assert_eq!(plan.passes[0].nt, nt);
        assert_eq!(plan.passes[0].n_per_block, nt * ng);
        // Passes shrink geometrically and end at one block.
        assert!(plan.passes.len() >= 2);
        assert_eq!(plan.passes.last().unwrap().blocks, 1);
        for w in plan.passes.windows(2) {
            assert_eq!(w[0].n_out, w[1].n_in);
            assert!(w[1].n_in < w[0].n_in);
        }
    }

    #[test]
    fn sum_is_exact_and_widened() {
        let d = DeviceConfig::tiny();
        let t = ty(11, 7);
        let n = 5000i64;
        let values: Vec<_> = (1..=n)
            .map(|i| UpDecimal::from_scaled_i64(i, t).unwrap())
            .collect();
        let out_ty = t.sum_result(n as u64);
        let run = aggregate(AggOp::Sum, &values, out_ty, Tpi(8), &d);
        // Σ 1..5000 scaled by 10^-7.
        let expect = UpDecimal::from_scaled_i64(n * (n + 1) / 2, ty(out_ty.precision, 7)).unwrap();
        assert_eq!(run.result.cmp_value(&expect), core::cmp::Ordering::Equal);
        assert_eq!(run.result.dtype(), out_ty);
        assert!(run.total_s > 0.0);
    }

    #[test]
    fn min_max_pick_extremes() {
        let d = DeviceConfig::tiny();
        let t = ty(8, 2);
        let values: Vec<_> = [-50i64, 320, 7, -9999, 9998]
            .iter()
            .map(|&i| UpDecimal::from_scaled_i64(i, t).unwrap())
            .collect();
        let min = aggregate(AggOp::Min, &values, t, Tpi(4), &d).result;
        let max = aggregate(AggOp::Max, &values, t, Tpi(4), &d).result;
        assert_eq!(min.to_string(), "-99.99");
        assert_eq!(max.to_string(), "99.98");
    }

    #[test]
    fn min_max_keep_the_extremum_when_it_does_not_fit_the_result_type() {
        // Regression: a failed cast used to return the chunk's *first*
        // value. 999.99 does not fit DECIMAL(3,2); neither does -999.99.
        let d = DeviceConfig::tiny();
        let t = ty(5, 2);
        let values: Vec<_> = [100i64, 99_999, 500, -99_999, 7]
            .iter()
            .map(|&i| UpDecimal::from_scaled_i64(i, t).unwrap())
            .collect();
        let max = aggregate(AggOp::Max, &values, ty(3, 2), Tpi(4), &d).result;
        let min = aggregate(AggOp::Min, &values, ty(3, 2), Tpi(4), &d).result;
        assert_eq!(max.to_string(), "999.99");
        assert_eq!(min.to_string(), "-999.99");
    }

    #[test]
    fn sum_of_mixed_signs_cancels_exactly() {
        let d = DeviceConfig::tiny();
        let t = ty(18, 4);
        let values: Vec<_> = (1..=3000i64)
            .flat_map(|i| [i * 1_000_003, -i * 1_000_003])
            .map(|i| UpDecimal::from_scaled_i64(i, t).unwrap())
            .collect();
        let out_ty = t.sum_result(values.len() as u64);
        let run = aggregate(AggOp::Sum, &values, out_ty, Tpi(8), &d);
        assert!(run.plan.passes.len() >= 2, "several blocks, then a merge pass");
        assert!(run.result.is_zero());
        assert_eq!(run.result.dtype(), out_ty);
    }

    #[test]
    fn sum_matches_across_tpi() {
        let d = DeviceConfig::tiny();
        let t = ty(29, 11);
        let values: Vec<_> = (0..1000)
            .map(|i| UpDecimal::from_scaled_i64((i * 7919) % 100_000 - 50_000, t).unwrap())
            .collect();
        let out_ty = t.sum_result(1000);
        let r1 = aggregate(AggOp::Sum, &values, out_ty, Tpi(1), &d).result;
        for tpi in [4, 8, 16, 32] {
            let r = aggregate(AggOp::Sum, &values, out_ty, Tpi(tpi), &d).result;
            assert_eq!(r, r1, "tpi={tpi}");
        }
    }

    #[test]
    fn bigger_lw_means_fewer_values_per_block() {
        let d = DeviceConfig::a6000();
        let small = plan_aggregation(1_000_000, 2, Tpi(8), &d);
        let big = plan_aggregation(1_000_000, 32, Tpi(8), &d);
        assert!(big.passes[0].n_per_block < small.passes[0].n_per_block);
    }

    #[test]
    fn single_value_aggregation() {
        let d = DeviceConfig::tiny();
        let t = ty(5, 1);
        let v = vec![UpDecimal::parse("7.5", t).unwrap()];
        let run = aggregate(AggOp::Sum, &v, t.sum_result(1), Tpi(8), &d);
        assert_eq!(run.result.to_string(), "7.5");
        assert_eq!(run.plan.passes.len(), 1);
    }
}
