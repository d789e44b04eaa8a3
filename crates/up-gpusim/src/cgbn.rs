//! CGBN-style thread-group (multi-threading) arithmetic — §III-E1.
//!
//! UltraPrecise extends NVIDIA's Cooperative Groups Big Numbers library so
//! a *group* of `TPI` (threads-per-instance ∈ {1, 4, 8, 16, 32}) threads
//! evaluates one expression instance: operands are loaded cooperatively
//! (Listing 3), carries cross threads through ballots/shuffles, products
//! are assembled from broadcast partial products, and division uses
//! Newton–Raphson with the library's restriction `LEN/TPI ≤ TPI`.
//!
//! Functionally the group computes exactly what the single-thread kernels
//! compute (we reuse `up-num` and validate against it); what changes is
//! the *work partitioning*, which this module models explicitly: per-thread
//! instruction counts, inter-thread communication, and the coalescing
//! benefit ("the memory accesses to a value array are coalesced in a
//! thread group"). Those counts feed the same roofline model as the
//! functional executor, producing Fig. 13's shape.

use crate::device::DeviceConfig;
use crate::exec::ExecStats;
use up_num::dtype::DecimalType;
use up_num::UpDecimal;

/// Threads cooperating on one arithmetic instance (§III-E1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tpi(pub u32);

/// The TPI values the evaluation sweeps (Fig. 13).
pub const TPI_VALUES: [u32; 5] = [1, 4, 8, 16, 32];

impl Tpi {
    /// Words each thread reads in the cooperative load (Listing 3):
    /// `lt = ceil(Lb / (4·TPI))`.
    pub fn words_per_thread(&self, lb: usize) -> usize {
        lb.div_ceil(4 * self.0 as usize)
    }
}

/// The arithmetic operators Fig. 13 sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupOp {
    /// `a + b` (subtraction is "almost the same", §IV-C1).
    Add,
    /// `a × b`.
    Mul,
    /// `a ÷ b` (Newton–Raphson; restricted).
    Div,
}

/// Why a group operation cannot run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupError {
    /// The CGBN Newton–Raphson division requires `LEN/TPI ≤ TPI`; the
    /// paper presents no data for the violating configurations ("no data
    /// is presented when executing the 4-threading kernel and LEN is 32").
    DivRestriction {
        /// Operand word length.
        len: usize,
        /// Configured TPI.
        tpi: u32,
    },
    /// Division by zero.
    DivisionByZero,
}

impl core::fmt::Display for GroupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GroupError::DivRestriction { len, tpi } => write!(
                f,
                "CGBN division restriction violated: LEN/TPI = {}/{} > TPI",
                len, tpi
            ),
            GroupError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for GroupError {}

/// Cost of one group-operation instance, in per-thread dynamic instructions
/// and warp-level communication events.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupCost {
    /// Dynamic instructions executed by each thread of the group (lockstep
    /// maximum over lanes).
    pub insts_per_thread: f64,
    /// Warp shuffle reads (inter-thread word movement).
    pub shuffles: f64,
    /// Warp ballots (carry/sign resolution rounds).
    pub ballots: f64,
    /// Compact bytes read from global memory.
    pub bytes_read: u64,
    /// Compact bytes written to global memory.
    pub bytes_written: u64,
}

impl GroupCost {
    fn merge(&mut self, o: GroupCost) {
        self.insts_per_thread += o.insts_per_thread;
        self.shuffles += o.shuffles;
        self.ballots += o.ballots;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
    }
}

/// Executes one group arithmetic instance functionally (bit-exact result)
/// and returns the cost model's view of the work.
///
/// `a` and `b` are full operand values; `tpi` controls the modeled
/// partitioning only — results are independent of it, which the tests
/// assert (lockstep semantics).
pub fn group_eval(
    op: GroupOp,
    a: &UpDecimal,
    b: &UpDecimal,
    tpi: Tpi,
) -> Result<(UpDecimal, GroupCost), GroupError> {
    let mut cost = GroupCost::default();
    cost.merge(load_cost(a.dtype(), tpi));
    cost.merge(load_cost(b.dtype(), tpi));

    // Signs are shared among group threads (§III-E1): one ballot each.
    cost.ballots += 2.0;
    cost.insts_per_thread += 4.0;

    let result = match op {
        GroupOp::Add => {
            let r = a.add(b);
            cost.merge(add_cost(a.dtype(), b.dtype(), tpi));
            r
        }
        GroupOp::Mul => {
            let r = a.mul(b);
            cost.merge(mul_cost(a.dtype(), b.dtype(), tpi));
            r
        }
        GroupOp::Div => {
            let len = a.dtype().lw().max(b.dtype().lw());
            if len as u32 > tpi.0 * tpi.0 {
                return Err(GroupError::DivRestriction { len, tpi: tpi.0 });
            }
            let r = a.div(b).map_err(|_| GroupError::DivisionByZero)?;
            cost.merge(div_cost(a.dtype(), b.dtype(), tpi));
            r
        }
    };
    cost.merge(store_cost(result.dtype(), tpi));
    Ok((result, cost))
}

/// Cooperative-load cost (Listing 3): each thread reads `lt` words of the
/// compact array; neighboring data goes to one thread to minimize carry
/// communication.
fn load_cost(ty: DecimalType, tpi: Tpi) -> GroupCost {
    let lb = ty.lb();
    let lt = tpi.words_per_thread(lb);
    GroupCost {
        // address computation + lt word loads + expansion masking
        insts_per_thread: 4.0 + 2.0 * lt as f64,
        shuffles: 0.0,
        ballots: 0.0,
        bytes_read: lb as u64,
        bytes_written: 0,
    }
}

fn store_cost(ty: DecimalType, tpi: Tpi) -> GroupCost {
    let lb = ty.lb();
    let lt = tpi.words_per_thread(lb);
    GroupCost {
        insts_per_thread: 3.0 + 2.0 * lt as f64,
        shuffles: 0.0,
        ballots: 0.0,
        bytes_read: 0,
        bytes_written: lb as u64,
    }
}

/// Group addition: per-thread `addc` chains over `lt` words plus one
/// ballot-based carry-resolution round (CGBN's scheme), plus the alignment
/// multiply when scales differ.
fn add_cost(t1: DecimalType, t2: DecimalType, tpi: Tpi) -> GroupCost {
    let out = t1.add_result(&t2);
    let lw = out.lw();
    let lt = lw.div_ceil(tpi.0 as usize);
    let mut c = GroupCost {
        insts_per_thread: 2.0 * lt as f64 + 6.0,
        shuffles: if tpi.0 > 1 { 1.0 } else { 0.0 },
        ballots: if tpi.0 > 1 { 1.0 } else { 0.0 },
        bytes_read: 0,
        bytes_written: 0,
    };
    if t1.scale != t2.scale {
        // Alignment = multiply by a power of ten (§II-B).
        let align = mul_cost(t1, t2, tpi);
        c.insts_per_thread += align.insts_per_thread * 0.5; // one operand only
        c.shuffles += align.shuffles * 0.5;
    }
    c
}

/// Group multiplication: every thread broadcasts its words to the group
/// (shuffles) while each thread accumulates the partial products of its
/// output columns — O(Lw²/TPI) multiply-adds per thread.
fn mul_cost(t1: DecimalType, t2: DecimalType, tpi: Tpi) -> GroupCost {
    let (l1, l2) = (t1.lw() as f64, t2.lw() as f64);
    let tpi_f = tpi.0 as f64;
    GroupCost {
        insts_per_thread: (l1 * l2 * 2.0) / tpi_f + 8.0,
        shuffles: if tpi.0 > 1 { l1.max(l2) * tpi_f.log2() } else { 0.0 },
        ballots: if tpi.0 > 1 { 2.0 } else { 0.0 },
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// Group Newton–Raphson division (§IV-C1): ~log₂(32·Lw) reciprocal
/// iterations, each one group multiplication.
fn div_cost(t1: DecimalType, t2: DecimalType, tpi: Tpi) -> GroupCost {
    let iters = (32.0 * t1.lw().max(t2.lw()) as f64).log2().ceil() + 2.0;
    let per_mul = mul_cost(t1, t2, tpi);
    GroupCost {
        insts_per_thread: per_mul.insts_per_thread * iters + 24.0,
        shuffles: per_mul.shuffles * iters,
        ballots: per_mul.ballots * iters + 2.0,
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// Cost of the *single-thread* (TPI = 1) binary-search division the paper
/// uses outside CGBN (§III-C2): the `bfind` range bracketing bounds the
/// search to the quotient's bit length, and every probe is a full
/// multiply-and-compare at the dividend's width.
pub fn single_thread_div_cost(t1: DecimalType, t2: DecimalType) -> GroupCost {
    // §III-B3: quotient digits ≈ (p1−s1)−(p2−s2)+1 integer + s1+4 fraction.
    let int_digits = (t1.int_digits() as i64 - t2.int_digits() as i64 + 1).max(1) as f64;
    let q_digits = int_digits + t1.scale as f64 + 4.0;
    let probes = q_digits * crate::LOG2_10_APPROX + 2.0;
    // Boosted dividend width: t1 plus 10^(s2+4).
    let wide = t1.lw() as f64 + (t2.scale + 4) as f64 / 9.0;
    let mul_and_cmp = 6.0 * wide * t2.lw() as f64 + 2.0 * wide;
    GroupCost {
        insts_per_thread: probes * mul_and_cmp + 48.0,
        shuffles: 0.0,
        ballots: 0.0,
        bytes_read: 0,
        bytes_written: 0,
    }
}

/// Converts `n` instances of a group operation into launch statistics for
/// the roofline pricer: `n·TPI` threads, coalesced bytes, communication
/// events priced as shuffle/ballot issues.
pub fn op_stats(cost: &GroupCost, n: u64, tpi: Tpi, device: &DeviceConfig) -> ExecStats {
    let threads = n * tpi.0 as u64;
    let warps = threads.div_ceil(device.warp_size as u64).max(1);
    let warp_issue_cycles =
        (cost.insts_per_thread + 2.0 * (cost.shuffles + cost.ballots)) * warps as f64;
    // Coalescing: a thread group reads contiguous bytes, so sectors are
    // bytes/32 when TPI > 1. The single-thread kernel strides by Lb per
    // lane and re-touches sectors once per word pass; model that as an
    // uncoalesced penalty capped by the L2's ability to merge (×4).
    let bytes = (cost.bytes_read + cost.bytes_written) * n;
    let penalty = if tpi.0 == 1 { 2.0 } else { 1.0 };
    let dram_bytes = (bytes as f64 * penalty) as u64;
    ExecStats {
        thread_insts: (cost.insts_per_thread * threads as f64) as u64,
        warp_issue_cycles,
        warp_issues: warp_issue_cycles as u64,
        mem_transactions: dram_bytes / 32,
        dram_bytes,
        divergent_branches: 0,
        warps,
        blocks: warps.div_ceil(8),
    }
}

/// Estimated hardware registers per thread for a group kernel: each thread
/// holds `lt` words of up to three operands plus bookkeeping. Feeds the
/// occupancy model exactly like the single-thread kernels.
pub fn group_hw_regs(lw: usize, tpi: Tpi) -> u32 {
    let lt = lw.div_ceil(tpi.0 as usize) as u32;
    (16 + 7 * lt).min(255)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn listing3_load_partitioning() {
        // DECIMAL(64, 32): Lb = 27 bytes; TPI = 4 → lt = 2 words per
        // thread.
        let t = ty(64, 32);
        assert_eq!(t.lb(), 27);
        assert_eq!(Tpi(4).words_per_thread(27), 2);
    }

    #[test]
    fn results_are_independent_of_tpi() {
        let ta = ty(38, 10);
        let tb = ty(38, 4);
        let a = UpDecimal::parse("-1234567890.0123456789", ta).unwrap();
        let b = UpDecimal::parse("987654321.4321", tb).unwrap();
        for op in [GroupOp::Add, GroupOp::Mul, GroupOp::Div] {
            let baseline = group_eval(op, &a, &b, Tpi(1)).map(|(r, _)| r);
            for tpi in [4, 8, 16, 32] {
                let r = group_eval(op, &a, &b, Tpi(tpi)).map(|(r, _)| r);
                match (&baseline, &r) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "op {op:?} tpi {tpi}"),
                    (Err(_), _) | (_, Err(_)) => {} // restriction may differ per TPI
                }
            }
        }
    }

    #[test]
    fn group_add_matches_scalar_reference() {
        let t = ty(18, 2);
        let a = UpDecimal::parse("123456.78", t).unwrap();
        let b = UpDecimal::parse("-99999999.99", t).unwrap();
        let (r, _) = group_eval(GroupOp::Add, &a, &b, Tpi(8)).unwrap();
        assert_eq!(r, a.add(&b));
    }

    #[test]
    fn div_restriction_matches_paper() {
        // LEN 32 with TPI 4: 32/4 = 8 > 4 → rejected (Fig. 13's gap).
        let t = ty(307, 10);
        assert_eq!(t.lw(), 32);
        let a = UpDecimal::parse("5", t).unwrap();
        let b = UpDecimal::parse("3", t).unwrap();
        let err = group_eval(GroupOp::Div, &a, &b, Tpi(4)).unwrap_err();
        assert!(matches!(err, GroupError::DivRestriction { len: 32, tpi: 4 }));
        // TPI 8: 32/8 = 4 ≤ 8 → allowed.
        assert!(group_eval(GroupOp::Div, &a, &b, Tpi(8)).is_ok());
        // TPI 1 is definitionally the non-CGBN path; LEN 2 fits 1·1? No:
        // 2 > 1, so group div at TPI 1 only supports LEN 1 — the harness
        // uses the binary-search cost for TPI 1 instead.
    }

    #[test]
    fn work_per_thread_shrinks_with_tpi() {
        let t = ty(307, 10); // LEN 32
        let c1 = mul_cost(t, t, Tpi(1));
        let c8 = mul_cost(t, t, Tpi(8));
        assert!(c8.insts_per_thread < c1.insts_per_thread / 4.0);
        // but communication appears
        assert_eq!(c1.shuffles, 0.0);
        assert!(c8.shuffles > 0.0);
    }

    #[test]
    fn fig13_shape_addition() {
        // At LEN 32, 8-threading beats single-threading; at LEN 4 they are
        // comparable (§IV-C1).
        let device = DeviceConfig::a6000();
        let n = 10_000_000u64;
        let time = |lw: usize, tpi: u32| {
            let p = up_num::max_precision_for_lw(lw);
            let t = ty(p, 10);
            let a = UpDecimal::parse("1.0000000001", ty(12, 10)).unwrap().cast(t).unwrap();
            let (_, cost) = group_eval(GroupOp::Add, &a, &a, Tpi(tpi)).unwrap();
            let stats = op_stats(&cost, n, Tpi(tpi), &device);
            crate::cost::kernel_time(group_hw_regs(lw, Tpi(tpi)), &stats, &device).total_s
        };
        let t1_len32 = time(32, 1);
        let t8_len32 = time(32, 8);
        assert!(
            t8_len32 < t1_len32 * 0.8,
            "8-threading should win at LEN 32: {t8_len32} vs {t1_len32}"
        );
        let t1_len4 = time(4, 1);
        let t4_len4 = time(4, 4);
        assert!(
            (0.4..=2.5).contains(&(t4_len4 / t1_len4)),
            "comparable at LEN 4: {t4_len4} vs {t1_len4}"
        );
    }
}
