//! Multi-threaded (TPI) expression kernels — §III-E1, Listing 3.
//!
//! When operands get wide, one thread per tuple wastes registers and
//! serializes memory traffic; UltraPrecise instead assigns a *thread
//! group* of `TPI` threads to each expression instance, building on the
//! extended CGBN library. Compilation here produces:
//!
//! * a [`LoadPlan`] per input column — the Listing 3 cooperative load:
//!   each thread reads `lt = ceil(Lb/(4·TPI))` words, with a tail branch
//!   only when the compact array is not TPI-aligned;
//! * an [`MtKernel`] that evaluates rows through the thread-group
//!   arithmetic of [`up_gpusim::cgbn`] (bit-exact) while accumulating the
//!   partition-aware cost model those group operations define.

use crate::expr::Expr;
use up_gpusim::cgbn::{self, GroupCost, GroupError, GroupOp, Tpi};
use up_num::{DecimalType, NumError, UpDecimal};

/// The cooperative load of one compact column into a thread group
/// (Listing 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadPlan {
    /// Compact bytes per value (`Lb`).
    pub lb: usize,
    /// Words per thread (`lt`).
    pub lt: usize,
    /// Threads performing a full `lt`-word copy.
    pub full_threads: usize,
    /// Bytes the trailing thread copies (0 = no tail).
    pub tail_bytes: usize,
    /// Whether the generated code needs the tail branch ("the branch code
    /// is not generated if the compact representation is aligned to TPI").
    pub needs_branch: bool,
}

impl LoadPlan {
    /// Plans the load of a `ty` column at `tpi`.
    pub fn new(ty: DecimalType, tpi: Tpi) -> LoadPlan {
        let lb = ty.lb();
        let lt = tpi.words_per_thread(lb);
        let (full_threads, tail_bytes) = tpi.full_load_threads(lb);
        LoadPlan {
            lb,
            lt,
            full_threads,
            tail_bytes,
            needs_branch: tail_bytes != 0 || full_threads < tpi.0 as usize,
        }
    }
}

/// A compiled multi-threaded expression kernel.
#[derive(Clone, Debug)]
pub struct MtKernel {
    /// Threads per instance.
    pub tpi: Tpi,
    /// The (already optimized) expression.
    pub expr: Expr,
    /// Result type.
    pub out_ty: DecimalType,
    /// Cooperative load plan per distinct input column (by column index).
    pub load_plans: Vec<(usize, LoadPlan)>,
    /// Estimated hardware registers per thread (drives occupancy).
    pub hw_regs: u32,
}

/// Errors from multi-threaded evaluation.
#[derive(Debug)]
pub enum MtError {
    /// A group-arithmetic restriction or runtime failure.
    Group(GroupError),
    /// A scalar evaluation failure (e.g. division by zero in a constant).
    Num(NumError),
}

impl From<GroupError> for MtError {
    fn from(e: GroupError) -> Self {
        MtError::Group(e)
    }
}

impl From<NumError> for MtError {
    fn from(e: NumError) -> Self {
        MtError::Num(e)
    }
}

impl core::fmt::Display for MtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MtError::Group(e) => write!(f, "group arithmetic: {e}"),
            MtError::Num(e) => write!(f, "numeric: {e}"),
        }
    }
}

impl std::error::Error for MtError {}

/// Compiles an expression for TPI-group evaluation.
pub fn compile_expr_mt(expr: &Expr, tpi: Tpi) -> MtKernel {
    let out_ty = expr.dtype();
    let load_plans = collect_col_types(expr)
        .into_iter()
        .map(|(idx, ty)| (idx, LoadPlan::new(ty, tpi)))
        .collect();
    MtKernel {
        tpi,
        expr: expr.clone(),
        out_ty,
        load_plans,
        hw_regs: cgbn::group_hw_regs(out_ty.lw(), tpi),
    }
}

fn collect_col_types(e: &Expr) -> Vec<(usize, DecimalType)> {
    let mut out: Vec<(usize, DecimalType)> = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<(usize, DecimalType)>) {
        match e {
            Expr::Col { index, ty, .. } => {
                if !out.iter().any(|(i, _)| i == index) {
                    out.push((*index, *ty));
                }
            }
            Expr::Const(_) => {}
            Expr::Neg(x) => walk(x, out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                walk(a, out);
                walk(b, out);
            }
        }
    }
    walk(e, &mut out);
    out.sort_by_key(|(i, _)| *i);
    out
}

impl MtKernel {
    /// Evaluates the expression over rows with thread-group arithmetic,
    /// returning results plus the aggregate group cost. Results are
    /// bit-identical to [`Expr::eval_row`]; the cost reflects the TPI
    /// work partitioning.
    pub fn eval_rows(&self, rows: &[Vec<UpDecimal>]) -> Result<(Vec<UpDecimal>, GroupCost), MtError> {
        let mut cost = GroupCost::default();
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let (v, c) = self.eval_node(&self.expr, row)?;
            merge(&mut cost, c);
            out.push(v);
        }
        Ok((out, cost))
    }

    fn eval_node(&self, e: &Expr, row: &[UpDecimal]) -> Result<(UpDecimal, GroupCost), MtError> {
        Ok(match e {
            Expr::Col { index, .. } => (row[*index].clone(), GroupCost::default()),
            Expr::Const(c) => (c.clone(), GroupCost::default()),
            Expr::Neg(x) => {
                let (v, c) = self.eval_node(x, row)?;
                (v.neg(), c)
            }
            Expr::Add(a, b) => self.binop(GroupOp::Add, a, b, row, false)?,
            Expr::Sub(a, b) => self.binop(GroupOp::Add, a, b, row, true)?,
            Expr::Mul(a, b) => self.binop(GroupOp::Mul, a, b, row, false)?,
            Expr::Div(a, b) => self.binop(GroupOp::Div, a, b, row, false)?,
            Expr::Mod(a, b) => {
                // CGBN has no modulo; UltraPrecise composes it from the
                // Newton–Raphson division (q = a/b; r = a − q·b).
                let (va, ca) = self.eval_node(a, row)?;
                let (vb, cb) = self.eval_node(b, row)?;
                let (_, cd) = cgbn::group_eval(GroupOp::Div, &va, &vb, self.tpi)?;
                let (_, cm) = cgbn::group_eval(GroupOp::Mul, &va, &vb, self.tpi)?;
                let r = va.rem(&vb)?;
                let mut c = ca;
                merge(&mut c, cb);
                merge(&mut c, cd);
                merge(&mut c, cm);
                (r, c)
            }
        })
    }

    fn binop(
        &self,
        op: GroupOp,
        a: &Expr,
        b: &Expr,
        row: &[UpDecimal],
        negate_b: bool,
    ) -> Result<(UpDecimal, GroupCost), MtError> {
        let (va, ca) = self.eval_node(a, row)?;
        let (vb, cb) = self.eval_node(b, row)?;
        let vb = if negate_b { vb.neg() } else { vb };
        let (r, c) = cgbn::group_eval(op, &va, &vb, self.tpi)?;
        let mut total = ca;
        merge(&mut total, cb);
        merge(&mut total, c);
        Ok((r, total))
    }
}

fn merge(into: &mut GroupCost, from: GroupCost) {
    into.insts_per_thread += from.insts_per_thread;
    into.shuffles += from.shuffles;
    into.ballots += from.ballots;
    into.bytes_read += from.bytes_read;
    into.bytes_written += from.bytes_written;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn listing3_load_plan_matches_paper_example() {
        // DECIMAL(64, 32), TPI 4 → Lb 27, lt 2, 3 full threads + 3-byte
        // tail.
        let plan = LoadPlan::new(ty(64, 32), Tpi(4));
        assert_eq!(plan.lb, 27);
        assert_eq!(plan.lt, 2);
        assert_eq!(plan.full_threads, 3);
        assert_eq!(plan.tail_bytes, 3);
        assert!(plan.needs_branch);
    }

    #[test]
    fn aligned_load_needs_no_branch() {
        // Pick a type whose Lb is a multiple of 4·lt·… : Lb = 16 at TPI 4
        // → lt = 1, 4 full threads, no tail.
        let t = ty(38, 10);
        assert_eq!(t.lb(), 16);
        let plan = LoadPlan::new(t, Tpi(4));
        assert_eq!((plan.lt, plan.full_threads, plan.tail_bytes), (1, 4, 0));
        assert!(!plan.needs_branch);
    }

    #[test]
    fn mt_evaluation_matches_scalar_reference() {
        let t = ty(38, 10);
        let e = Expr::col(0, t, "a")
            .mul(Expr::col(1, t, "b"))
            .add(Expr::col(0, t, "a"))
            .sub(Expr::lit("0.5").unwrap());
        let k = compile_expr_mt(&e, Tpi(8));
        let rows: Vec<Vec<UpDecimal>> = (0..20)
            .map(|i| {
                vec![
                    UpDecimal::from_scaled_i64((i as i64 - 10) * 1_000_003, t).unwrap(),
                    UpDecimal::from_scaled_i64(i as i64 * 7_777_777 + 1, t).unwrap(),
                ]
            })
            .collect();
        let (got, cost) = k.eval_rows(&rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let want = e.eval_row(row).unwrap();
            assert_eq!(got[i].cmp_value(&want), core::cmp::Ordering::Equal, "row {i}");
        }
        assert!(cost.insts_per_thread > 0.0);
        assert!(cost.bytes_read > 0);
    }

    #[test]
    fn load_plans_cover_all_columns_once() {
        let t = ty(20, 2);
        let e = Expr::col(1, t, "b").add(Expr::col(0, t, "a")).add(Expr::col(1, t, "b"));
        let k = compile_expr_mt(&e, Tpi(4));
        let idxs: Vec<usize> = k.load_plans.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 1]);
    }
}
