//! The query executor.
//!
//! Runs a bound [`QueryPlan`] under an execution [`Profile`]: scans and
//! hash joins materialize a selection over the join chain, predicates
//! filter it, decimal expressions evaluate through the profile's
//! arithmetic backend (JIT+GPU kernels for UltraPrecise, operator-at-a-
//! time GPU for the RateupDB/HEAVY.AI models, base-10⁴ CPU numeric for
//! the PostgreSQL/H2/CockroachDB models, capped i128 for MonetDB,
//! doubles for the DOUBLE baseline), and aggregation runs per group —
//! through the §III-E2 multi-pass reducer on the UltraPrecise path.
//!
//! On that path a decimal column is one [`DecimalType`] plus compact
//! bytes from storage through kernel I/O to the aggregate fold and on
//! into [`QueryResult::rows`]; HAVING, ORDER BY and LIMIT only narrow and
//! permute that result's row order (DESIGN.md §16).
//!
//! Every query returns both the real wall time and a [`ModeledTime`]
//! breakdown (scan, PCIe, compile, kernel, CPU) assembled exactly the way
//! §IV measures each system.

use crate::plan::{BoundOperand, BoundPred, ComboExpr, CpuExpr, HavingPred, OutputKind, QueryPlan, Scalar, WideCol};
use crate::profiles::Profile;
use crate::rows::{compact_cell, Column, Rows};
use crate::sql::{AggFunc, BinOp, CmpOp};
use crate::storage::{Catalog, ColumnData, Table, Value};
use core::cmp::Ordering;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use up_baselines::limited::{CapError, LimitedDecimal, LimitedEngine};
use up_baselines::soft_decimal::SoftDecimal;
use up_baselines::AltDecimal;
use up_gpusim::cgbn::Tpi;
use up_gpusim::cost::kernel_time;
use up_gpusim::{DeviceConfig, GlobalMem};
use up_jit::cache::{Compiled, JitEngine};
use up_jit::Expr;
use up_num::{cmp_compact, decode_compact, BigInt, DecimalType, NumError, SumAcc, UpDecimal};

/// Execution failures.
#[derive(Debug)]
pub enum QueryError {
    /// SQL syntax.
    Parse(crate::sql::ParseError),
    /// Name resolution / typing.
    Plan(crate::plan::PlanError),
    /// A capability envelope was exceeded (limited-precision systems).
    Capability(CapError),
    /// Numeric failure (division by zero, overflow).
    Num(NumError),
    /// Simulator fault.
    Sim(String),
    /// Feature outside the engine's subset.
    Unsupported(String),
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Plan(e) => write!(f, "{e}"),
            QueryError::Capability(e) => write!(f, "{e}"),
            QueryError::Num(e) => write!(f, "{e}"),
            QueryError::Sim(e) => write!(f, "simulator: {e}"),
            QueryError::Unsupported(e) => write!(f, "unsupported: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CapError> for QueryError {
    fn from(e: CapError) -> Self {
        QueryError::Capability(e)
    }
}

impl From<NumError> for QueryError {
    fn from(e: NumError) -> Self {
        QueryError::Num(e)
    }
}

/// TPI of the multi-threaded aggregation (§IV-C2 uses 8).
const AGG_TPI: Tpi = Tpi(8);

/// Prices one aggregate item's reduction over the full selection.
fn price_aggregation(
    ctx: &ExecCtx<'_>,
    f: AggFunc,
    scalar: &Scalar,
    col: &Column<'_>,
    n: usize,
) -> ModeledTime {
    let mut m = ModeledTime::default();
    if n == 0 || f == AggFunc::Count {
        return m;
    }
    if f == AggFunc::CountDistinct {
        // Sort-based distinct on the device: ~n log n comparator steps.
        let cost = ctx.profile.system_cost();
        m.cpu_s += n as f64 * (n as f64).log2().max(1.0) * 2.0e-9 / cost.parallelism;
        return m;
    }
    let dec_ty = match col {
        Column::Decimal { ty, .. } => Some(*ty),
        Column::Values(vals) => match vals.first() {
            Some(Value::Decimal(d)) => Some(d.dtype()),
            _ => crate::plan::scalar_decimal_type(scalar),
        },
    };
    match (ctx.profile, dec_ty) {
        (Profile::UltraPrecise, Some(ty)) => {
            let out_ty = match f {
                AggFunc::Sum | AggFunc::Avg => ty.sum_result(n as u64),
                _ => ty,
            };
            let (_, _, t) = up_gpusim::reduce::priced(
                n as u64,
                out_ty.lw(),
                AGG_TPI,
                ctx.device,
            );
            m.kernel_s += t;
        }
        (p, Some(ty)) if p.is_gpu() => {
            // Operator-at-a-time device reduction: one pass over the data.
            let bytes = n as u64 * baseline_value_bytes(p, ty);
            m.kernel_s += bytes as f64 / (ctx.device.mem_bandwidth_gbps * 1e9)
                + ctx.device.launch_overhead_us * 1e-6;
        }
        (p, Some(ty)) => {
            let cost = p.system_cost();
            m.cpu_s += n as f64 * cost.per_op_ns * width_factor(ty.precision) * 1e-9
                / cost.parallelism;
        }
        (p, None) => {
            let cost = p.system_cost();
            m.cpu_s += n as f64 * 4.0e-9 / cost.parallelism;
        }
    }
    m
}

/// Modeled end-to-end time, assembled per §IV's methodology.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeledTime {
    /// Disk scan of the inputs (0 for in-memory systems like MonetDB).
    pub scan_s: f64,
    /// Host↔device transfers (GPU systems only).
    pub pcie_s: f64,
    /// JIT/NVCC compilation.
    pub compile_s: f64,
    /// GPU kernel execution.
    pub kernel_s: f64,
    /// CPU executor + arithmetic.
    pub cpu_s: f64,
}

impl ModeledTime {
    /// Total modeled execution time.
    pub fn total(&self) -> f64 {
        self.scan_s + self.pcie_s + self.compile_s + self.kernel_s + self.cpu_s
    }

    fn add(&mut self, o: &ModeledTime) {
        self.scan_s += o.scan_s;
        self.pcie_s += o.pcie_s;
        self.compile_s += o.compile_s;
        self.kernel_s += o.kernel_s;
        self.cpu_s += o.cpu_s;
    }
}

/// A query's output.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows: columns plus a row order, `[Vec<Value>]` on `Deref`.
    pub rows: Rows,
    /// Real wall time of this process.
    pub wall_s: f64,
    /// Modeled time breakdown.
    pub modeled: ModeledTime,
    /// GPU kernels launched.
    pub kernels: usize,
    /// Which simulator tier each launch executed on (tree / decoded /
    /// closure-compiled), plus decoded→compiled promotion events and,
    /// for compiled launches, the lowered/fallback superblock and
    /// mem-thunk shape of the programs that ran. Purely observational:
    /// rows, `modeled`, and stats are bit-identical across tiers, so
    /// this never feeds back into results.
    pub tiers: up_gpusim::TierCounters,
}

/// Execution context.
pub struct ExecCtx<'a> {
    /// Table catalog.
    pub catalog: &'a Catalog,
    /// System under test.
    pub profile: Profile,
    /// Simulated device.
    pub device: &'a DeviceConfig,
    /// JIT engine (kernel cache persists across queries and may be shared
    /// with other engines; all compilation goes through `&self`).
    pub jit: &'a JitEngine,
    /// TPI for multi-threaded *expression* evaluation (§III-E1); 1 =
    /// the single-thread-per-tuple kernels of Listing 1.
    pub expr_tpi: u32,
    /// Functional-interpreter backend (tree walker, decoded flat
    /// programs, closure-compiled superblocks, or `Auto` count-based
    /// tier promotion). Bit-identical results, stats, and modeled times;
    /// only host wall-clock and the observational [`QueryResult::tiers`]
    /// change.
    pub exec_backend: up_gpusim::ExecBackend,
}

/// Runs a plan.
pub fn execute(plan: &QueryPlan, ctx: &ExecCtx<'_>) -> Result<QueryResult, QueryError> {
    let t0 = Instant::now();
    // The catalog is lock-striped per table: read-lock every scanned
    // table once, in sorted name order (the global lock order shared with
    // `plan::plan`; the plan's names are already lowercase), then
    // reference the guards in plan order.
    let mut lock_names: Vec<&str> = plan.tables.iter().map(String::as_str).collect();
    lock_names.sort_unstable();
    lock_names.dedup();
    let guards: Vec<_> = lock_names
        .iter()
        .map(|n| {
            ctx.catalog
                .read(n)
                .ok_or_else(|| QueryError::Plan(crate::plan::PlanError(format!("missing table {n}"))))
        })
        .collect::<Result<_, _>>()?;
    let tables: Vec<&Table> = plan
        .tables
        .iter()
        .map(|n| &*guards[lock_names.binary_search(&n.as_str()).expect("locked above")])
        .collect();

    let mut modeled = ModeledTime::default();
    let cost = ctx.profile.system_cost();

    // Scan model: referenced bytes from disk, when the system includes it.
    if cost.includes_disk_scan {
        let bytes: u64 = tables.iter().map(|t| t.byte_size()).sum();
        modeled.scan_s = bytes as f64 / (cost.scan_gbps * 1e9);
    }

    // GPU systems pay their host-side per-tuple cost once per query
    // (result handling, launch orchestration); CPU row engines pay it in
    // every operator below.
    let tuple_ns = if ctx.profile.is_gpu() {
        modeled.cpu_s +=
            tables[0].rows as f64 * cost.per_tuple_ns * 1e-9 / cost.parallelism;
        0.0
    } else {
        cost.per_tuple_ns
    };

    // 1. Join chain → the row each tuple reads, per table.
    let mut sel = Sel::All(tables[0].rows);
    for (k, edges) in plan.joins.iter().enumerate() {
        let build = tables[k + 1];
        // Build side: key → rows.
        let mut index: HashMap<Vec<String>, Vec<u32>> = HashMap::new();
        for row in 0..build.rows {
            let key = edges.iter().map(|e| cell_key(build, e.right_column, row)).collect();
            index.entry(key).or_default().push(row as u32);
        }
        // Probe side: every current tuple.
        let n = sel.len();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); k + 2];
        for i in 0..n {
            let key: Vec<String> = edges
                .iter()
                .map(|e| cell_key(tables[e.left.table], e.left.column, sel.row(e.left.table, i)))
                .collect();
            for &m in index.get(&key).into_iter().flatten() {
                for (t, probe) in rows[..=k].iter_mut().enumerate() {
                    probe.push(sel.row(t, i) as u32);
                }
                rows[k + 1].push(m);
            }
        }
        modeled.cpu_s +=
            (n as u64 + build.rows as u64) as f64 * tuple_ns * 1e-9 / cost.parallelism;
        sel = Sel::Rows(rows);
    }

    // 2. Filter.
    if let Some(pred) = &plan.filter {
        let n = sel.len();
        let mut keep = Vec::with_capacity(n);
        for i in 0..n {
            if eval_pred(pred, &tables, &sel, i)? {
                keep.push(i);
            }
        }
        modeled.cpu_s += n as f64 * tuple_ns * 1e-9 / cost.parallelism;
        sel = Sel::Rows(
            (0..tables.len())
                .map(|t| keep.iter().map(|&i| sel.row(t, i) as u32).collect())
                .collect(),
        );
    }
    let n = sel.len();

    // 3a. Group: every tuple, or one member list per key in key order.
    let groups: Vec<Members> = if !plan.has_aggregates {
        Vec::new()
    } else if plan.group_by.is_empty() {
        vec![Members::All(n)]
    } else {
        let mut keyed: Vec<(Vec<String>, Vec<usize>)> = Vec::new();
        let mut map: HashMap<Vec<String>, usize> = HashMap::new();
        for i in 0..n {
            let key: Vec<String> = plan
                .group_by
                .iter()
                .map(|w| cell_key(tables[w.table], w.column, sel.row(w.table, i)))
                .collect();
            let gid = *map.entry(key.clone()).or_insert_with(|| {
                keyed.push((key, Vec::new()));
                keyed.len() - 1
            });
            keyed[gid].1.push(i);
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        modeled.cpu_s += n as f64 * tuple_ns * 1e-9 / cost.parallelism;
        keyed.into_iter().map(|(_, members)| Members::List(members)).collect()
    };

    let mut kernels = 0usize;
    let mut tiers = up_gpusim::TierCounters::default();
    // All of a query's kernels compile in one translation unit (the
    // paper's Q1 reports one 320–423 ms compile covering every kernel),
    // so compile time is the front-end cost once plus the marginal
    // back-end cost of the additional kernels.
    let mut compile_parts: Vec<f64> = Vec::new();

    // The next slot's column, in plan order, folded into the query
    // accumulators in a fixed order: compile part, evaluation, kernel
    // count, then the reduction price (zero for plain projections).
    let mut next_column = |scalar: &Scalar, agg: Option<AggFunc>| {
        let (col, mut m, k, t) = eval_scalar_column(ctx, scalar, &tables, &sel, n)?;
        let price = match agg {
            Some(f) => price_aggregation(ctx, f, scalar, &col, n),
            None => ModeledTime::default(),
        };
        if m.compile_s > 0.0 {
            compile_parts.push(m.compile_s);
        }
        m.compile_s = 0.0;
        modeled.add(&m);
        kernels += k;
        tiers += t;
        modeled.add(&price);
        Ok::<_, QueryError>(col)
    };
    let columns: Vec<String> = plan.items.iter().map(|i| i.name.clone()).collect();
    // The result, column-wise: `rows_n` cells per column.
    let (cols, rows_n): (Vec<Column<'static>>, usize) = if plan.has_aggregates {
        // 3b. Evaluate aggregate inputs once over all tuples, and price
        // each item's reduction ONCE over the whole selection — the
        // device reduces every group in the same multi-pass launch
        // (§III-E2); only the functional fold below is per group.
        // One entry per item; per aggregate slot: the evaluated input
        // column (None = COUNT(*), needs no input).
        let mut agg_inputs: Vec<Vec<Option<Column<'_>>>> = Vec::new();
        for item in &plan.items {
            agg_inputs.push(match &item.kind {
                OutputKind::Agg(f, scalar) => vec![Some(next_column(scalar, Some(*f))?)],
                OutputKind::AggCombo { aggs, .. } => aggs
                    .iter()
                    .map(|(f, scalar)| scalar.as_ref().map(|sc| next_column(sc, Some(*f))).transpose())
                    .collect::<Result<_, _>>()?,
                _ => Vec::new(),
            });
        }

        // 3c. Reduce per group: one cell per group in every item's column.
        let mut cols = Vec::with_capacity(plan.items.len());
        for (item, inputs) in plan.items.iter().zip(&agg_inputs) {
            let mut cells = Vec::with_capacity(groups.len());
            for members in &groups {
                cells.push(match &item.kind {
                    OutputKind::Key(w) => tuple_value(&tables, &sel, members.get(0), *w),
                    OutputKind::CountStar => Value::Int64(members.len() as i64),
                    OutputKind::Agg(f, _) => {
                        let col = inputs[0].as_ref().expect("inputs computed");
                        aggregate_group(ctx, *f, col, members)?
                    }
                    OutputKind::AggCombo { aggs, combo } => {
                        let mut agg_vals = Vec::with_capacity(aggs.len());
                        for ((f, _), input) in aggs.iter().zip(inputs) {
                            agg_vals.push(match input {
                                Some(col) => aggregate_group(ctx, *f, col, members)?,
                                None => Value::Int64(members.len() as i64),
                            });
                        }
                        eval_combo(combo, &agg_vals)?
                    }
                    OutputKind::Scalar(_) => unreachable!("validated at plan time"),
                });
            }
            cols.push(Column::Values(cells));
        }
        (cols, groups.len())
    } else {
        // 3. Plain projection: the evaluated columns are the result — a
        // kernel's output buffer moves into it as it is.
        let mut cols = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            cols.push(match &item.kind {
                OutputKind::Scalar(s) => next_column(s, None)?.into_owned(),
                OutputKind::Key(w) => {
                    Column::Values((0..n).map(|i| tuple_value(&tables, &sel, i, *w)).collect())
                }
                _ => unreachable!("aggregates handled above"),
            });
        }
        (cols, n)
    };

    // Fold the per-kernel compile estimates into one NVCC invocation:
    // the fixed front end is paid once, the back ends add up.
    if !compile_parts.is_empty() {
        let front = 0.300f64;
        let max = compile_parts.iter().cloned().fold(0.0, f64::max);
        let back_sum: f64 = compile_parts.iter().map(|c| (c - front).max(0.0)).sum();
        modeled.compile_s += (front + back_sum).max(max);
    }

    // 4. HAVING, ORDER BY and LIMIT choose and order cell indexes; no cell
    // moves or decodes.
    let mut order: Option<Vec<u32>> = None;
    if let Some(h) = &plan.having {
        let mut kept = Vec::new();
        for i in 0..rows_n {
            if eval_having(h, &cols, i)? {
                kept.push(i as u32);
            }
        }
        order = Some(kept);
    }
    if !plan.order_by.is_empty() {
        let ids = order.get_or_insert_with(|| (0..rows_n as u32).collect());
        // The sort is stable, so ties keep the order above; a comparison
        // that fails reads as a tie and fails the query afterwards.
        let mut failed = None;
        ids.sort_by(|&a, &b| {
            for &(idx, desc) in &plan.order_by {
                let o = cmp_cells(&cols[idx], a as usize, b as usize).unwrap_or_else(|e| {
                    failed = Some(e);
                    Ordering::Equal
                });
                if o != Ordering::Equal {
                    return if desc { o.reverse() } else { o };
                }
            }
            Ordering::Equal
        });
        if let Some(e) = failed {
            return Err(e);
        }
    }
    match (plan.limit.map(|l| l as usize), &mut order) {
        (Some(l), Some(ids)) => ids.truncate(l),
        (Some(l), None) if l < rows_n => order = Some((0..l as u32).collect()),
        _ => {}
    }
    let rows = Rows::new(cols, rows_n, order);

    Ok(QueryResult {
        columns,
        rows,
        wall_s: t0.elapsed().as_secs_f64(),
        modeled,
        kernels,
        tiers,
    })
}

/// The join/filter result: for every output tuple, the row it reads in
/// each table. An unfiltered single-table scan stays the identity range —
/// no index vector to build, and kernel inputs borrow the stored column.
enum Sel {
    /// Tuple `i` is row `i` of the only table.
    All(usize),
    /// One row-index vector per table, all of one length.
    Rows(Vec<Vec<u32>>),
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::Rows(rows) => rows[0].len(),
        }
    }

    fn row(&self, table: usize, i: usize) -> usize {
        match self {
            Sel::All(_) => i,
            Sel::Rows(rows) => rows[table][i] as usize,
        }
    }
}

/// One group's tuples: every tuple (no GROUP BY) or an explicit list.
enum Members {
    All(usize),
    List(Vec<usize>),
}

impl Members {
    fn len(&self) -> usize {
        match self {
            Members::All(n) => *n,
            Members::List(v) => v.len(),
        }
    }

    /// The `k`-th member's tuple index.
    fn get(&self, k: usize) -> usize {
        match self {
            Members::All(_) => k,
            Members::List(v) => v[k],
        }
    }
}

/// A stored cell's canonical text — the join and GROUP BY key.
fn cell_key(table: &Table, col: usize, row: usize) -> String {
    match &table.columns[col] {
        ColumnData::Decimal { ty, bytes } => {
            let mut s = String::new();
            up_num::write_compact(&mut s, compact_cell(bytes, *ty, row), ty.scale)
                .expect("writing to a String cannot fail");
            s
        }
        ColumnData::Str(v) => v[row].clone(),
        _ => column_value(table, col, row).render(),
    }
}

/// Reads a table cell.
fn column_value(table: &Table, col: usize, row: usize) -> Value {
    match &table.columns[col] {
        c @ ColumnData::Decimal { .. } => Value::Decimal(c.get_decimal(row)),
        ColumnData::Int64(v) => Value::Int64(v[row]),
        ColumnData::Float64(v) => Value::Float64(v[row]),
        ColumnData::Str(v) => Value::Str(v[row].clone()),
    }
}

/// Reads a wide-row cell for tuple `i`.
fn tuple_value(tables: &[&Table], sel: &Sel, i: usize, w: WideCol) -> Value {
    column_value(tables[w.table], w.column, sel.row(w.table, i))
}

fn operand_value(
    op: &BoundOperand,
    tables: &[&Table],
    sel: &Sel,
    i: usize,
) -> Value {
    match op {
        BoundOperand::Col(w) => tuple_value(tables, sel, i, *w),
        BoundOperand::Dec(d) => Value::Decimal(d.clone()),
        BoundOperand::I64(v) => Value::Int64(*v),
        BoundOperand::F64(v) => Value::Float64(*v),
        BoundOperand::Str(s) => Value::Str(s.clone()),
    }
}

/// Total order across comparable values (coercing numerics). The planner
/// rejects the mismatches it can type; what is only known per row (a CASE
/// mixing kinds) fails the query here.
pub(crate) fn cmp_values(a: &Value, b: &Value) -> Result<Ordering, QueryError> {
    let floats = |x: f64, y: f64| x.partial_cmp(&y).unwrap_or(Ordering::Equal);
    Ok(match (a, b) {
        (Value::Decimal(x), Value::Decimal(y)) => x.cmp_value(y),
        (Value::Decimal(x), Value::Int64(y)) => x.cmp_value(&UpDecimal::from_i64(*y)),
        (Value::Int64(x), Value::Decimal(y)) => UpDecimal::from_i64(*x).cmp_value(y),
        (Value::Int64(x), Value::Int64(y)) => x.cmp(y),
        (Value::Float64(x), Value::Float64(y)) => floats(*x, *y),
        (Value::Float64(x), Value::Int64(y)) => floats(*x, *y as f64),
        (Value::Int64(x), Value::Float64(y)) => floats(*x as f64, *y),
        (Value::Decimal(x), Value::Float64(y)) => floats(x.to_f64(), *y),
        (Value::Float64(x), Value::Decimal(y)) => floats(*x, y.to_f64()),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (x, y) => return Err(QueryError::Unsupported(format!("comparison of {x:?} with {y:?}"))),
    })
}

/// Orders cells `a` and `b` of one result column: compact cells by their
/// bytes, no value in between.
fn cmp_cells(col: &Column<'_>, a: usize, b: usize) -> Result<Ordering, QueryError> {
    match col {
        Column::Decimal { ty, bytes } => {
            Ok(cmp_compact(compact_cell(bytes, *ty, a), compact_cell(bytes, *ty, b)))
        }
        Column::Values(vals) => cmp_values(&vals[a], &vals[b]),
    }
}

/// Whether `o` satisfies comparison `op`.
fn cmp_holds(op: CmpOp, o: Ordering) -> bool {
    match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    }
}

fn eval_pred(
    p: &BoundPred,
    tables: &[&Table],
    sel: &Sel,
    i: usize,
) -> Result<bool, QueryError> {
    Ok(match p {
        BoundPred::Cmp(op, a, b) => {
            let (va, vb) = (operand_value(a, tables, sel, i), operand_value(b, tables, sel, i));
            cmp_holds(*op, cmp_values(&va, &vb)?)
        }
        BoundPred::And(a, b) => eval_pred(a, tables, sel, i)? && eval_pred(b, tables, sel, i)?,
        BoundPred::Or(a, b) => eval_pred(a, tables, sel, i)? || eval_pred(b, tables, sel, i)?,
        BoundPred::Not(a) => !eval_pred(a, tables, sel, i)?,
        BoundPred::Between(x, lo, hi) => {
            let v = operand_value(x, tables, sel, i);
            let l = operand_value(lo, tables, sel, i);
            let h = operand_value(hi, tables, sel, i);
            cmp_values(&v, &l)? != Ordering::Less && cmp_values(&v, &h)? != Ordering::Greater
        }
        BoundPred::Like(x, pat) => {
            let Value::Str(s) = operand_value(x, tables, sel, i) else {
                return Err(QueryError::Unsupported("LIKE on non-string".into()));
            };
            like_match(&s, pat)
        }
    })
}

/// Evaluates a HAVING predicate against row `i` of the result columns.
fn eval_having(h: &HavingPred, cols: &[Column<'_>], i: usize) -> Result<bool, QueryError> {
    Ok(match h {
        HavingPred::Cmp(op, item, lit) => {
            cmp_holds(*op, cmp_values(&cols[*item].value(i), lit)?)
        }
        HavingPred::And(a, b) => eval_having(a, cols, i)? && eval_having(b, cols, i)?,
        HavingPred::Or(a, b) => eval_having(a, cols, i)? || eval_having(b, cols, i)?,
        HavingPred::Not(a) => !eval_having(a, cols, i)?,
    })
}

/// `%`-wildcard matching (ends and middle), enough for TPC-H patterns.
fn like_match(s: &str, pat: &str) -> bool {
    let parts: Vec<&str> = pat.split('%').collect();
    match parts.as_slice() {
        [exact] => s == *exact,
        _ => {
            let mut pos = 0;
            for (k, part) in parts.iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                if k == 0 {
                    if !s.starts_with(part) {
                        return false;
                    }
                    pos = part.len();
                } else if k == parts.len() - 1 && !pat.ends_with('%') {
                    return s.len() >= pos && s[pos..].ends_with(part);
                } else {
                    match s[pos..].find(part) {
                        Some(p) => pos += p + part.len(),
                        None => return false,
                    }
                }
            }
            true
        }
    }
}

// ---------------------------------------------------------------------
// Scalar column evaluation per profile
// ---------------------------------------------------------------------

type ScalarOut<'a> = (Column<'a>, ModeledTime, usize, up_gpusim::TierCounters);

/// CPU arithmetic cost grows with the digit count, but sublinearly in
/// measured systems (dispatch and allocation amortize the digit loops —
/// PostgreSQL's TPC-H Q1 only grows ~1.7× from LEN 2 to LEN 32 in
/// §IV-D1); modeled as √(p/18), normalized to 1.0 at the LEN-2 precision.
fn width_factor(p: u32) -> f64 {
    (p as f64 / 18.0).sqrt().max(1.0)
}

fn eval_scalar_column<'a>(
    ctx: &ExecCtx<'_>,
    scalar: &Scalar,
    tables: &[&'a Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'a>, QueryError> {
    match scalar {
        Scalar::Cpu(e) => {
            let cost = ctx.profile.system_cost();
            let tuple_ns = if ctx.profile.is_gpu() { 0.0 } else { cost.per_tuple_ns };
            let mut vals = Vec::with_capacity(n);
            for i in 0..n {
                vals.push(eval_cpu(e, tables, sel, i)?);
            }
            let m = ModeledTime {
                cpu_s: n as f64 * (tuple_ns + cost.per_op_ns) * 1e-9 / cost.parallelism,
                ..Default::default()
            };
            Ok((Column::Values(vals), m, 0, Default::default()))
        }
        Scalar::Decimal { expr, inputs } => match ctx.profile {
            Profile::UltraPrecise if ctx.expr_tpi > 1 => {
                eval_decimal_gpu_mt(ctx, expr, inputs, tables, sel, n)
            }
            Profile::UltraPrecise => {
                eval_decimal_gpu_jit(ctx, expr, inputs, tables, sel, n)
            }
            Profile::RateupLike | Profile::HeavyAiLike | Profile::MonetLike => {
                eval_decimal_limited(ctx, expr, inputs, tables, sel, n)
            }
            Profile::PostgresLike | Profile::H2Like | Profile::CockroachLike => {
                eval_decimal_soft(ctx, expr, inputs, tables, sel, n)
            }
            Profile::DoubleF64 => eval_decimal_as_double(ctx, expr, inputs, tables, sel, n),
        },
        Scalar::Case { branches, else_, unified } => {
            // Predicated execution: every branch evaluates column-wise
            // (what a SIMT machine does anyway), then a per-row select —
            // the GPU `selp` pattern of the generated kernels.
            let mut modeled = ModeledTime::default();
            let mut kernels = 0usize;
            let mut tiers = up_gpusim::TierCounters::default();
            let mut eval = |scalar: &Scalar| {
                let (col, m, k, t) = eval_scalar_column(ctx, scalar, tables, sel, n)?;
                modeled.add(&m);
                kernels += k;
                tiers += t;
                Ok::<_, QueryError>(col)
            };
            let mut branch_cols: Vec<(Vec<bool>, Column<'_>)> = Vec::new();
            for (pred, scalar) in branches {
                let mut mask = Vec::with_capacity(n);
                for i in 0..n {
                    mask.push(eval_pred(pred, tables, sel, i)?);
                }
                branch_cols.push((mask, eval(scalar)?));
            }
            let else_col = else_.as_deref().map(&mut eval).transpose()?;
            let zero = match unified {
                Some(ty) => Value::Decimal(UpDecimal::zero(*ty)),
                None => Value::Int64(0),
            };
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let v = branch_cols
                    .iter()
                    .find(|(mask, _)| mask[i])
                    .map(|(_, col)| col)
                    .or(else_col.as_ref())
                    .map_or_else(|| zero.clone(), |col| col.value(i));
                out.push(coerce_unified(v, *unified)?);
            }
            Ok((Column::Values(out), modeled, kernels, tiers))
        }
        Scalar::Cast { inner, ty } => {
            let (col, modeled, kernels, tiers) = eval_scalar_column(ctx, inner, tables, sel, n)?;
            let out = col
                .into_values()
                .into_iter()
                .map(|v| cast_value(v, *ty))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((Column::Values(out), modeled, kernels, tiers))
        }
    }
}

/// Casts values into a CASE's unified decimal type (no-op when the CASE
/// is non-decimal).
fn coerce_unified(v: Value, unified: Option<DecimalType>) -> Result<Value, QueryError> {
    match unified {
        None => Ok(v),
        Some(ty) => cast_value(v, ty),
    }
}

/// SQL CAST semantics into a decimal target.
fn cast_value(v: Value, ty: DecimalType) -> Result<Value, QueryError> {
    Ok(match v {
        Value::Decimal(d) => Value::Decimal(d.cast(ty).map_err(QueryError::Num)?),
        Value::Int64(i) => {
            Value::Decimal(UpDecimal::from_i64(i).cast(ty).map_err(QueryError::Num)?)
        }
        Value::Float64(f) => {
            Value::Decimal(UpDecimal::from_f64(f, ty).map_err(QueryError::Num)?)
        }
        Value::Null => Value::Null,
        other => return Err(QueryError::Unsupported(format!("CAST of {other:?}"))),
    })
}

/// Evaluates a combo expression over one group's aggregate results.
fn eval_combo(combo: &ComboExpr, agg_vals: &[Value]) -> Result<Value, QueryError> {
    Ok(match combo {
        ComboExpr::Agg(i) => agg_vals[*i].clone(),
        ComboExpr::Dec(d) => Value::Decimal(d.clone()),
        ComboExpr::I64(v) => Value::Int64(*v),
        ComboExpr::Neg(x) => match eval_combo(x, agg_vals)? {
            Value::Decimal(d) => Value::Decimal(d.neg()),
            Value::Int64(v) => Value::Int64(-v),
            Value::Float64(v) => Value::Float64(-v),
            Value::Null => Value::Null,
            other => return Err(QueryError::Unsupported(format!("negate {other:?}"))),
        },
        ComboExpr::Bin(op, a, b) => {
            let (va, vb) = (eval_combo(a, agg_vals)?, eval_combo(b, agg_vals)?);
            value_arith(*op, va, vb)?
        }
    })
}

/// Exact arithmetic between result values (decimal semantics when either
/// side is decimal; NULL propagates).
fn value_arith(op: BinOp, a: Value, b: Value) -> Result<Value, QueryError> {
    use Value::*;
    let to_dec = |v: &Value| -> Option<UpDecimal> {
        match v {
            Decimal(d) => Some(d.clone()),
            Int64(i) => Some(UpDecimal::from_i64(*i)),
            _ => None,
        }
    };
    match (&a, &b) {
        (Null, _) | (_, Null) => Ok(Null),
        (Int64(x), Int64(y)) => Ok(match op {
            BinOp::Add => Int64(x + y),
            BinOp::Sub => Int64(x - y),
            BinOp::Mul => Int64(x * y),
            BinOp::Div => {
                if *y == 0 {
                    return Err(QueryError::Num(NumError::DivisionByZero));
                }
                Int64(x / y)
            }
            BinOp::Mod => {
                if *y == 0 {
                    return Err(QueryError::Num(NumError::DivisionByZero));
                }
                Int64(x % y)
            }
        }),
        (Float64(_), _) | (_, Float64(_)) => {
            let fx = match &a {
                Float64(v) => *v,
                Int64(v) => *v as f64,
                Decimal(d) => d.to_f64(),
                _ => unreachable!(),
            };
            let fy = match &b {
                Float64(v) => *v,
                Int64(v) => *v as f64,
                Decimal(d) => d.to_f64(),
                _ => unreachable!(),
            };
            Ok(Float64(match op {
                BinOp::Add => fx + fy,
                BinOp::Sub => fx - fy,
                BinOp::Mul => fx * fy,
                BinOp::Div => fx / fy,
                BinOp::Mod => fx % fy,
            }))
        }
        _ => {
            let (da, db) = (
                to_dec(&a).ok_or_else(|| QueryError::Unsupported(format!("arith on {a:?}")))?,
                to_dec(&b).ok_or_else(|| QueryError::Unsupported(format!("arith on {b:?}")))?,
            );
            Ok(Decimal(match op {
                BinOp::Add => da.add(&db),
                BinOp::Sub => da.sub(&db),
                BinOp::Mul => da.mul(&db),
                BinOp::Div => da.div(&db)?,
                BinOp::Mod => da.rem(&db)?,
            }))
        }
    }
}

fn eval_cpu(
    e: &CpuExpr,
    tables: &[&Table],
    sel: &Sel,
    i: usize,
) -> Result<Value, QueryError> {
    Ok(match e {
        CpuExpr::Col(w) => tuple_value(tables, sel, i, *w),
        CpuExpr::I64(v) => Value::Int64(*v),
        CpuExpr::F64(v) => Value::Float64(*v),
        CpuExpr::Str(s) => Value::Str(s.clone()),
        CpuExpr::Neg(x) => match eval_cpu(x, tables, sel, i)? {
            Value::Int64(v) => Value::Int64(-v),
            Value::Float64(v) => Value::Float64(-v),
            Value::Decimal(v) => Value::Decimal(v.neg()),
            other => return Err(QueryError::Unsupported(format!("negate {other:?}"))),
        },
        CpuExpr::Bin(op, a, b) => {
            let (va, vb) = (eval_cpu(a, tables, sel, i)?, eval_cpu(b, tables, sel, i)?);
            let (x, y) = match (&va, &vb) {
                (Value::Int64(x), Value::Int64(y)) => {
                    return Ok(Value::Int64(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => {
                            if *y == 0 {
                                return Err(QueryError::Num(NumError::DivisionByZero));
                            }
                            x / y
                        }
                        BinOp::Mod => {
                            if *y == 0 {
                                return Err(QueryError::Num(NumError::DivisionByZero));
                            }
                            x % y
                        }
                    }));
                }
                (Value::Float64(x), Value::Float64(y)) => (*x, *y),
                (Value::Float64(x), Value::Int64(y)) => (*x, *y as f64),
                (Value::Int64(x), Value::Float64(y)) => (*x as f64, *y),
                (Value::Decimal(x), Value::Float64(y)) => (x.to_f64(), *y),
                (Value::Float64(x), Value::Decimal(y)) => (*x, y.to_f64()),
                (Value::Decimal(x), Value::Int64(y)) => (x.to_f64(), *y as f64),
                (Value::Int64(x), Value::Decimal(y)) => (*x as f64, y.to_f64()),
                (Value::Decimal(x), Value::Decimal(y)) => (x.to_f64(), y.to_f64()),
                other => return Err(QueryError::Unsupported(format!("arith on {other:?}"))),
            };
            Value::Float64(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
            })
        }
    })
}

// ---------------------------------------------------------------------
// JIT kernel references
// ---------------------------------------------------------------------

/// Collects every JIT-compilable decimal expression reachable from a
/// scalar, in the exact order evaluation compiles them (CASE
/// branches in order, then ELSE; CAST descends).
fn collect_decimal_exprs<'a>(s: &'a Scalar, out: &mut Vec<&'a Expr>) {
    match s {
        Scalar::Decimal { expr, .. } => out.push(expr),
        Scalar::Case { branches, else_, .. } => {
            for (_, sc) in branches {
                collect_decimal_exprs(sc, out);
            }
            if let Some(e) = else_ {
                collect_decimal_exprs(e, out);
            }
        }
        Scalar::Cast { inner, .. } => collect_decimal_exprs(inner, out),
        Scalar::Cpu(_) => {}
    }
}

/// The JIT kernel references a plan will compile, in the exact order
/// `execute` reaches them: `(signature, expression)` per
/// reachable decimal expression, duplicates included, passthroughs
/// skipped. Empty when the profile doesn't JIT or multi-threaded
/// expression kernels are in use.
pub(crate) fn plan_kernel_refs(
    plan: &QueryPlan,
    jit: &JitEngine,
    profile: Profile,
    expr_tpi: u32,
) -> Vec<(String, Expr)> {
    if profile != Profile::UltraPrecise || expr_tpi != 1 {
        return Vec::new();
    }
    // The slots `execute` evaluates, in its order: each item's scalar or
    // aggregate input, an `AggCombo`'s inputs in order.
    let mut exprs = Vec::new();
    for item in &plan.items {
        match &item.kind {
            OutputKind::Scalar(s) | OutputKind::Agg(_, s) => collect_decimal_exprs(s, &mut exprs),
            OutputKind::AggCombo { aggs, .. } => {
                for s in aggs.iter().filter_map(|(_, s)| s.as_ref()) {
                    collect_decimal_exprs(s, &mut exprs);
                }
            }
            OutputKind::CountStar | OutputKind::Key(_) => {}
        }
    }
    exprs
        .into_iter()
        .filter_map(|expr| Some((jit.signature(expr)?, expr.clone())))
        .collect()
}

/// A decimal input column over the selection, as compact bytes: the
/// stored buffer itself for an identity scan, gathered otherwise.
fn decimal_input<'a>(
    tables: &[&'a Table],
    sel: &Sel,
    w: WideCol,
) -> Result<(DecimalType, Cow<'a, [u8]>), QueryError> {
    let ColumnData::Decimal { ty, bytes } = &tables[w.table].columns[w.column] else {
        return Err(QueryError::Unsupported(format!(
            "decimal input, got column {} of {}",
            w.column, tables[w.table].name
        )));
    };
    Ok((
        *ty,
        match sel {
            Sel::All(_) => Cow::Borrowed(bytes),
            Sel::Rows(rows) => {
                let lb = ty.lb();
                let mut g = Vec::with_capacity(rows[w.table].len() * lb);
                for &r in &rows[w.table] {
                    g.extend_from_slice(&bytes[r as usize * lb..(r as usize + 1) * lb]);
                }
                Cow::Owned(g)
            }
        },
    ))
}

fn eval_decimal_gpu_jit<'a>(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    inputs: &[WideCol],
    tables: &[&'a Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'a>, QueryError> {
    let mut modeled = ModeledTime::default();
    let (compiled, info) = ctx.jit.compile(expr);
    modeled.compile_s += info.modeled_compile_s;

    match compiled {
        Compiled::Passthrough(Expr::Const(c)) => {
            Ok((Column::Values(vec![Value::Decimal(c); n]), modeled, 0, Default::default()))
        }
        Compiled::Passthrough(Expr::Col { index, .. }) => {
            let (ty, bytes) = decimal_input(tables, sel, inputs[index])?;
            Ok((Column::Decimal { ty, bytes }, modeled, 0, Default::default()))
        }
        Compiled::Passthrough(other) => Err(QueryError::Unsupported(format!(
            "unexpected passthrough {other:?}"
        ))),
        Compiled::Kernel(k) => {
            // Assemble device buffers: expression slot s reads buffer s.
            let mut mem = GlobalMem::new();
            let mut pcie_bytes: u64 = 0;
            for w in inputs {
                let buf = decimal_input(tables, sel, *w)?.1.into_owned();
                pcie_bytes += buf.len() as u64;
                mem.add_buffer(buf);
            }
            let out_lb = k.out_ty.lb();
            let out_buf = mem.alloc(n.max(1) * out_lb);
            pcie_bytes += (n * out_lb) as u64;

            // Memoized next to the kernel: a cache hit reuses the
            // geometry derived on the first launch (same inputs → same
            // config by construction, asserted in up-jit's tests).
            let cfg = k.launch_config(n as u64, 256, ctx.device);
            let stats = up_gpusim::launch_opts(
                &k.kernel,
                cfg,
                ctx.device,
                &mut mem,
                &[n as u32],
                up_gpusim::LaunchOpts { backend: ctx.exec_backend },
            )
                .map_err(|e| match e {
                    up_gpusim::SimError::DivisionByZero { .. } => {
                        QueryError::Num(NumError::DivisionByZero)
                    }
                    other => QueryError::Sim(other.to_string()),
                })?;
            // `launch_opts` is synchronous and the attribution is
            // thread-local, so this delta belongs to exactly the launch
            // above.
            let tiers = up_gpusim::last_launch_tiers();
            let kt = kernel_time(&k.kernel, &stats, ctx.device);
            modeled.kernel_s += kt.total_s;
            modeled.pcie_s += ctx.device.pcie_time(pcie_bytes);

            // The output buffer *is* the result column.
            let mut bytes = std::mem::take(mem.buffer_mut(out_buf));
            bytes.truncate(n * out_lb);
            let col = Column::Decimal { ty: k.out_ty, bytes: Cow::Owned(bytes) };
            Ok((col, modeled, 1, tiers))
        }
    }
}

/// Multi-threaded (TPI thread-group) expression evaluation — §III-E1:
/// operands load cooperatively (Listing 3) and every arithmetic instance
/// is computed by a group of `expr_tpi` threads through the extended-CGBN
/// routines. Functionally bit-exact with the single-thread kernels; the
/// cost model reflects the group work partitioning.
fn eval_decimal_gpu_mt<'a>(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    inputs: &[WideCol],
    tables: &[&'a Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'a>, QueryError> {
    let tpi = Tpi::new(ctx.expr_tpi).map_err(QueryError::Unsupported)?;
    let optimized = ctx.jit.optimize(expr);
    let kernel = up_jit::codegen_mt::compile_expr_mt(&optimized, tpi);

    let cols: Vec<_> =
        inputs.iter().map(|w| decimal_input(tables, sel, *w)).collect::<Result<_, _>>()?;
    let rows: Vec<Vec<UpDecimal>> = (0..n)
        .map(|i| {
            cols.iter().map(|(ty, b)| decode_compact(compact_cell(b, *ty, i), *ty)).collect()
        })
        .collect();
    let (vals, total_cost) = kernel
        .eval_rows(&rows)
        .map_err(|e| match e {
            up_jit::codegen_mt::MtError::Group(g) => QueryError::Unsupported(g.to_string()),
            up_jit::codegen_mt::MtError::Num(e) => QueryError::Num(e),
        })?;

    let mut modeled = ModeledTime::default();
    if n > 0 {
        // Per-instance average cost drives the analytic launch model.
        let nf = n as f64;
        let per = up_gpusim::cgbn::GroupCost {
            insts_per_thread: total_cost.insts_per_thread / nf,
            shuffles: total_cost.shuffles / nf,
            ballots: total_cost.ballots / nf,
            bytes_read: total_cost.bytes_read / n as u64,
            bytes_written: total_cost.bytes_written / n as u64,
        };
        let stats = up_gpusim::cgbn::op_stats(&per, n as u64, tpi, ctx.device);
        let k = up_gpusim::KernelBuilder::new().finish("mt_expr", kernel.hw_regs);
        modeled.kernel_s += kernel_time(&k, &stats, ctx.device).total_s;
        modeled.pcie_s +=
            ctx.device.pcie_time(total_cost.bytes_read + total_cost.bytes_written);
        // TPI kernels compile through the same JIT TU.
        modeled.compile_s += up_gpusim::cost::modeled_compile_time_s(
            64 * kernel.out_ty.lw() * optimized.op_count().max(1),
        );
    }
    // TPI kernels run through the analytic CGBN model, not the
    // instruction simulator — no tier to attribute.
    Ok((Column::Values(vals.into_iter().map(Value::Decimal).collect()), modeled, 1, Default::default()))
}

/// Bytes per value in a GPU baseline's representation.
fn baseline_value_bytes(profile: Profile, ty: DecimalType) -> u64 {
    match profile {
        // RateupDB uses the §III-B1 alternative representation.
        Profile::RateupLike => AltDecimal::bytes_for(ty) as u64,
        // HEAVY.AI stores every decimal in one 64-bit word.
        Profile::HeavyAiLike => 8,
        _ => ty.lb() as u64,
    }
}

/// Operator-at-a-time execution model for the non-JIT GPU baselines: one
/// kernel per operator node, materializing every intermediate column.
fn modeled_op_at_a_time(
    profile: Profile,
    expr: &Expr,
    n: u64,
    device: &DeviceConfig,
) -> ModeledTime {
    fn walk(profile: Profile, e: &Expr, n: u64, device: &DeviceConfig, m: &mut ModeledTime) -> DecimalType {
        match e {
            Expr::Col { ty, .. } => *ty,
            Expr::Const(c) => c.dtype(),
            Expr::Neg(x) => walk(profile, x, n, device, m),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
                let ta = walk(profile, a, n, device, m);
                let tb = walk(profile, b, n, device, m);
                let out = e.dtype();
                let bytes = n * (baseline_value_bytes(profile, ta)
                    + baseline_value_bytes(profile, tb)
                    + baseline_value_bytes(profile, out));
                m.kernel_s += bytes as f64 / (device.mem_bandwidth_gbps * 1e9)
                    + device.launch_overhead_us * 1e-6;
                out
            }
        }
    }
    let mut m = ModeledTime::default();
    let out = walk(profile, expr, n, device, &mut m);
    // Inputs and final output cross PCIe once.
    let io: u64 = expr
        .columns()
        .len()
        .max(1) as u64
        * n
        * baseline_value_bytes(profile, out);
    m.pcie_s = device.pcie_time(io);
    m
}

fn eval_decimal_limited(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    inputs: &[WideCol],
    tables: &[&Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'static>, QueryError> {
    let kind = ctx.profile.limited_kind().expect("limited profile");
    let engine = LimitedEngine::new(kind);
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<LimitedDecimal> = inputs
            .iter()
            .map(|w| {
                let Value::Decimal(d) = tuple_value(tables, sel, i, *w) else {
                    unreachable!("decimal input");
                };
                engine.import(&d)
            })
            .collect::<Result<_, _>>()?;
        let v = eval_limited_expr(&engine, expr, &row)?;
        vals.push(Value::Decimal(engine.export(v)));
    }
    let mut modeled = if ctx.profile.is_gpu() {
        modeled_op_at_a_time(ctx.profile, expr, n as u64, ctx.device)
    } else {
        ModeledTime::default()
    };
    let cost = ctx.profile.system_cost();
    let tuple_ns = if ctx.profile.is_gpu() { 0.0 } else { cost.per_tuple_ns };
    let wf = width_factor(expr.dtype().precision);
    modeled.cpu_s += n as f64
        * (tuple_ns + expr.op_count() as f64 * cost.per_op_ns * wf)
        * 1e-9
        / cost.parallelism;
    Ok((Column::Values(vals), modeled, 0, Default::default()))
}

fn eval_limited_expr(
    engine: &LimitedEngine,
    e: &Expr,
    row: &[LimitedDecimal],
) -> Result<LimitedDecimal, QueryError> {
    Ok(match e {
        Expr::Col { index, .. } => row[*index],
        Expr::Const(c) => engine.import(c)?,
        Expr::Neg(x) => {
            let v = eval_limited_expr(engine, x, row)?;
            LimitedDecimal { unscaled: -v.unscaled, ty: v.ty }
        }
        Expr::Add(a, b) => {
            engine.add(eval_limited_expr(engine, a, row)?, eval_limited_expr(engine, b, row)?)?
        }
        Expr::Sub(a, b) => {
            let vb = eval_limited_expr(engine, b, row)?;
            engine.add(
                eval_limited_expr(engine, a, row)?,
                LimitedDecimal { unscaled: -vb.unscaled, ty: vb.ty },
            )?
        }
        Expr::Mul(a, b) => {
            engine.mul(eval_limited_expr(engine, a, row)?, eval_limited_expr(engine, b, row)?)?
        }
        Expr::Div(a, b) => {
            engine.div(eval_limited_expr(engine, a, row)?, eval_limited_expr(engine, b, row)?)?
        }
        Expr::Mod(a, b) => {
            engine.rem(eval_limited_expr(engine, a, row)?, eval_limited_expr(engine, b, row)?)?
        }
    })
}

fn eval_decimal_soft(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    inputs: &[WideCol],
    tables: &[&Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'static>, QueryError> {
    let div_profile = ctx.profile.div_profile().expect("soft profile");
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<SoftDecimal> = inputs
            .iter()
            .map(|w| {
                let Value::Decimal(d) = tuple_value(tables, sel, i, *w) else {
                    unreachable!("decimal input");
                };
                SoftDecimal::parse(&d.to_string()).expect("decimal renders as literal")
            })
            .collect();
        let v = eval_soft_expr(expr, &row, div_profile)?;
        let d = UpDecimal::parse_literal(&v.to_string())
            .map_err(QueryError::Num)?;
        vals.push(Value::Decimal(d));
    }
    let cost = ctx.profile.system_cost();
    let wf = width_factor(expr.dtype().precision);
    let modeled = ModeledTime {
        cpu_s: n as f64
            * (cost.per_tuple_ns + expr.op_count() as f64 * cost.per_op_ns * wf)
            * 1e-9
            / cost.parallelism,
        ..Default::default()
    };
    Ok((Column::Values(vals), modeled, 0, Default::default()))
}

fn eval_soft_expr(
    e: &Expr,
    row: &[SoftDecimal],
    div: up_baselines::DivProfile,
) -> Result<SoftDecimal, QueryError> {
    Ok(match e {
        Expr::Col { index, .. } => row[*index].clone(),
        Expr::Const(c) => SoftDecimal::parse(&c.to_string()).expect("const literal"),
        Expr::Neg(x) => eval_soft_expr(x, row, div)?.neg(),
        Expr::Add(a, b) => eval_soft_expr(a, row, div)?.add(&eval_soft_expr(b, row, div)?),
        Expr::Sub(a, b) => eval_soft_expr(a, row, div)?.sub(&eval_soft_expr(b, row, div)?),
        Expr::Mul(a, b) => eval_soft_expr(a, row, div)?.mul(&eval_soft_expr(b, row, div)?),
        Expr::Div(a, b) => eval_soft_expr(a, row, div)?
            .div(&eval_soft_expr(b, row, div)?, div)
            .map_err(|_| QueryError::Num(NumError::DivisionByZero))?,
        Expr::Mod(a, b) => {
            // Integer modulo via truncated division.
            let x = eval_soft_expr(a, row, div)?.round_dscale(0);
            let y = eval_soft_expr(b, row, div)?.round_dscale(0);
            if y.is_zero() {
                return Err(QueryError::Num(NumError::DivisionByZero));
            }
            let q = x.div(&y, up_baselines::DivProfile::PaperRule)
                .map_err(|_| QueryError::Num(NumError::DivisionByZero))?
                .round_dscale(4);
            // r = x − floor-ish(q)·y, re-truncated.
            let qi = trunc_soft(&q);
            x.sub(&qi.mul(&y)).round_dscale(0)
        }
    })
}

/// Truncates a SoftDecimal toward zero to scale 0.
fn trunc_soft(v: &SoftDecimal) -> SoftDecimal {
    // round_dscale rounds half away; emulate truncation by subtracting
    // 0.5 ulp on the integer boundary via string surgery instead.
    let s = v.to_string();
    let int_part = match s.split_once('.') {
        Some((i, _)) => i.to_string(),
        None => s,
    };
    SoftDecimal::parse(&int_part).expect("integer literal")
}

fn eval_decimal_as_double(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    inputs: &[WideCol],
    tables: &[&Table],
    sel: &Sel,
    n: usize,
) -> Result<ScalarOut<'static>, QueryError> {
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = inputs
            .iter()
            .map(|w| match tuple_value(tables, sel, i, *w) {
                Value::Decimal(d) => d.to_f64(),
                Value::Float64(f) => f,
                Value::Int64(v) => v as f64,
                other => panic!("non-numeric input {other:?}"),
            })
            .collect();
        vals.push(Value::Float64(eval_f64_expr(expr, &row)));
    }
    let cost = ctx.profile.system_cost();
    let modeled = ModeledTime {
        cpu_s: n as f64 * (cost.per_tuple_ns + expr.op_count() as f64 * 2.0) * 1e-9
            / cost.parallelism,
        ..Default::default()
    };
    Ok((Column::Values(vals), modeled, 0, Default::default()))
}

fn eval_f64_expr(e: &Expr, row: &[f64]) -> f64 {
    match e {
        Expr::Col { index, .. } => row[*index],
        Expr::Const(c) => c.to_f64(),
        Expr::Neg(x) => -eval_f64_expr(x, row),
        Expr::Add(a, b) => eval_f64_expr(a, row) + eval_f64_expr(b, row),
        Expr::Sub(a, b) => eval_f64_expr(a, row) - eval_f64_expr(b, row),
        Expr::Mul(a, b) => eval_f64_expr(a, row) * eval_f64_expr(b, row),
        Expr::Div(a, b) => eval_f64_expr(a, row) / eval_f64_expr(b, row),
        Expr::Mod(a, b) => {
            (eval_f64_expr(a, row).trunc()) % (eval_f64_expr(b, row).trunc())
        }
    }
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// Folds one group of an aggregate's input column, in member order.
/// A decimal group's cells fold in one carry-save pass over their bytes
/// ([`SumAcc::add_cells`]).
fn aggregate_group(
    ctx: &ExecCtx<'_>,
    f: AggFunc,
    col: &Column<'_>,
    members: &Members,
) -> Result<Value, QueryError> {
    let n = members.len();
    match f {
        AggFunc::Count => return Ok(Value::Int64(n as i64)),
        AggFunc::CountDistinct => {
            // Keyed by each cell's canonical text.
            let mut seen: HashSet<Vec<u8>> = HashSet::new();
            for k in 0..n {
                let mut key = Vec::new();
                col.append_cell(members.get(k), &mut key);
                seen.insert(key);
            }
            return Ok(Value::Int64(seen.len() as i64));
        }
        _ if n == 0 => return Ok(Value::Null),
        _ => {}
    }
    let sum = matches!(f, AggFunc::Sum | AggFunc::Avg);
    match col {
        Column::Decimal { ty, bytes } => {
            let lb = ty.lb();
            let cell = |k: usize| &bytes[members.get(k) * lb..][..lb];
            if sum {
                // `sum_result` keeps the scale, so the column's unscaled
                // integers add as they are: no per-row alignment.
                let out_ty = ty.sum_result(n as u64);
                let mut acc = SumAcc::new(out_ty.lw());
                match members {
                    Members::All(_) => acc.add_cells(bytes, lb, 0..n),
                    Members::List(rows) => acc.add_cells(bytes, lb, rows.iter().copied()),
                }
                sum_value(f, acc.finish(), out_ty, n as u64)
            } else {
                let k = extremum(f, n, |a, b| cmp_compact(cell(a), cell(b)));
                Ok(Value::Decimal(decode_compact(cell(k), *ty)))
            }
        }
        Column::Values(vals) => match &vals[members.get(0)] {
            Value::Decimal(first) => {
                let group = gather(vals, members, |v| match v {
                    Value::Decimal(d) => Some(d),
                    _ => None,
                })?;
                if sum {
                    let out_ty = first.dtype().sum_result(n as u64);
                    if let Some(kind) = ctx.profile.limited_kind() {
                        // Value-based capability: the running accumulator
                        // must fit the engine's word width (the *type* may
                        // exceed the declared cap — real sums often fit).
                        checked_limited_sum(kind, &group, out_ty)?;
                    }
                    let mut acc = SumAcc::new(out_ty.lw());
                    for v in &group {
                        acc.add_decimal(v, out_ty.scale);
                    }
                    sum_value(f, acc.finish(), out_ty, n as u64)
                } else {
                    let k = extremum(f, n, |a, b| group[a].cmp_value(group[b]));
                    Ok(Value::Decimal(group[k].clone()))
                }
            }
            Value::Int64(_) => {
                let nums = gather(vals, members, |v| match v {
                    Value::Int64(i) => Some(*i),
                    _ => None,
                })?;
                let total = || nums.iter().sum::<i64>();
                Ok(match f {
                    AggFunc::Sum => Value::Int64(total()),
                    AggFunc::Avg => Value::Float64(total() as f64 / n as f64),
                    _ => Value::Int64(nums[extremum(f, n, |a, b| nums[a].cmp(&nums[b]))]),
                })
            }
            Value::Float64(_) => {
                let nums = gather(vals, members, |v| match v {
                    Value::Float64(x) => Some(*x),
                    _ => None,
                })?;
                Ok(Value::Float64(match f {
                    AggFunc::Sum => nums.iter().sum(),
                    AggFunc::Avg => nums.iter().sum::<f64>() / n as f64,
                    AggFunc::Min => nums.iter().copied().fold(f64::INFINITY, f64::min),
                    _ => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                }))
            }
            other => Err(QueryError::Unsupported(format!("aggregate over {other:?}"))),
        },
    }
}

/// One group's cells of a per-value column, all of the kind `pick`
/// accepts (a column holds one kind; CAST and CASE can smuggle in a NULL).
fn gather<'v, T>(
    vals: &'v [Value],
    members: &Members,
    pick: impl Fn(&'v Value) -> Option<T>,
) -> Result<Vec<T>, QueryError> {
    (0..members.len())
        .map(|k| {
            let v = &vals[members.get(k)];
            pick(v).ok_or_else(|| QueryError::Unsupported(format!("mixed aggregate input {v:?}")))
        })
        .collect()
}

/// The member of `0..n` (n ≥ 1) holding MIN or MAX. `min_by` keeps the
/// first of equal elements and `max_by` the last.
fn extremum(f: AggFunc, n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> usize {
    let best = if f == AggFunc::Min {
        (0..n).min_by(|&a, &b| cmp(a, b))
    } else {
        (0..n).max_by(|&a, &b| cmp(a, b))
    };
    best.expect("non-empty group")
}

/// SUM's total as a value of the §III-B3 result type; AVG divides it by
/// the count.
fn sum_value(f: AggFunc, total: BigInt, out_ty: DecimalType, n: u64) -> Result<Value, QueryError> {
    let mut r = UpDecimal::from_parts_unchecked(total, out_ty);
    if f == AggFunc::Avg {
        let divisor =
            UpDecimal::from_parts_unchecked(BigInt::from(n), DecimalType::avg_divisor(n));
        r = r.div(&divisor)?;
    }
    Ok(Value::Decimal(r))
}

/// Verifies a limited engine can hold the running sum: every aligned
/// addend and the accumulator must fit the engine's magnitude limit.
fn checked_limited_sum(
    kind: up_baselines::LimitedKind,
    group: &[&UpDecimal],
    out_ty: DecimalType,
) -> Result<(), QueryError> {
    let engine = LimitedEngine::new(kind);
    let mut acc: i128 = 0;
    for v in group {
        let aligned = UpDecimal::from_parts_unchecked(v.align_up(out_ty.scale), out_ty);
        let imported = engine
            .import_unchecked_type(&aligned)
            .map_err(QueryError::Capability)?;
        acc = acc
            .checked_add(imported.unscaled)
            .ok_or(QueryError::Capability(CapError::Overflow { engine: kind.name() }))?;
        engine
            .check_value(acc)
            .map_err(QueryError::Capability)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching_covers_tpch_patterns() {
        assert!(like_match("PROMO PLATED STEEL", "PROMO%"));
        assert!(!like_match("ECONOMY ANODIZED STEEL", "PROMO%"));
        assert!(like_match("forest green part7", "forest%"));
        assert!(like_match("dark green metallic", "%green%"));
        assert!(!like_match("dark blue metallic", "%green%"));
        assert!(like_match("MED BOX", "MED BOX")); // exact
        assert!(like_match("abcxyzdef", "abc%def"));
        assert!(!like_match("abcxyzde", "abc%def"));
        assert!(like_match("xx-mid-yy", "%mid%"));
        assert!(like_match("a", "%"));
    }

    #[test]
    fn mixed_aggregate_input_is_an_error_and_ties_follow_min_by_max_by() {
        let vals = [Value::Int64(3), Value::Null, Value::Int64(3)];
        let ints = |v: &Value| match v {
            Value::Int64(i) => Some(*i),
            _ => None,
        };
        let err = gather(&vals, &Members::All(3), ints).unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(m) if m.contains("mixed aggregate input")));
        assert_eq!(gather(&vals, &Members::List(vec![2, 0]), ints).unwrap(), vec![3, 3]);
        // Equal everywhere: MIN keeps the first member, MAX the last.
        assert_eq!(extremum(AggFunc::Min, 6, |_, _| Ordering::Equal), 0);
        assert_eq!(extremum(AggFunc::Max, 6, |_, _| Ordering::Equal), 5);
    }

    #[test]
    fn value_comparison_coerces_numerics() {
        use core::cmp::Ordering::*;
        let d = |s: &str| {
            Value::Decimal(UpDecimal::parse(s, DecimalType::new_unchecked(10, 2)).unwrap())
        };
        assert_eq!(cmp_values(&d("1.50"), &Value::Int64(2)).unwrap(), Less);
        assert_eq!(cmp_values(&Value::Int64(2), &d("1.50")).unwrap(), Greater);
        assert_eq!(cmp_values(&d("2.00"), &Value::Int64(2)).unwrap(), Equal);
        assert_eq!(cmp_values(&Value::Float64(1.5), &Value::Int64(1)).unwrap(), Greater);
        assert_eq!(cmp_values(&d("0.25"), &Value::Float64(0.25)).unwrap(), Equal);
        assert_eq!(cmp_values(&Value::Str("1994-01-01".into()), &Value::Str("1995-01-01".into())).unwrap(), Less);
        // NULL sorts first and equals itself.
        assert_eq!(cmp_values(&Value::Null, &Value::Null).unwrap(), Equal);
        assert_eq!(cmp_values(&Value::Null, &d("0.00")).unwrap(), Less);
    }

    #[test]
    fn value_arithmetic_keeps_decimal_exactness() {
        let d = |s: &str| {
            Value::Decimal(UpDecimal::parse(s, DecimalType::new_unchecked(12, 2)).unwrap())
        };
        let r = value_arith(BinOp::Mul, d("0.10"), d("0.10")).unwrap();
        let Value::Decimal(v) = r else { panic!() };
        assert_eq!(v.to_string(), "0.0100"); // exact, scale 4
        // Decimal ÷ int literal keeps decimal semantics (the Q17 shape).
        let r = value_arith(BinOp::Div, d("10.00"), Value::Int64(7)).unwrap();
        let Value::Decimal(v) = r else { panic!() };
        assert_eq!(v.to_string(), "1.428571"); // scale 2+4, truncated
        // NULL propagates; zero divisors error.
        assert!(matches!(value_arith(BinOp::Add, Value::Null, d("1.00")), Ok(Value::Null)));
        assert!(value_arith(BinOp::Div, d("1.00"), Value::Int64(0)).is_err());
        // Int % int.
        assert!(matches!(
            value_arith(BinOp::Mod, Value::Int64(17), Value::Int64(5)),
            Ok(Value::Int64(2))
        ));
    }

    #[test]
    fn cast_value_handles_every_source_kind() {
        let ty = DecimalType::new_unchecked(8, 3);
        let Value::Decimal(v) = cast_value(Value::Int64(42), ty).unwrap() else { panic!() };
        assert_eq!(v.to_string(), "42.000");
        let Value::Decimal(v) = cast_value(Value::Float64(1.25), ty).unwrap() else { panic!() };
        assert_eq!(v.to_string(), "1.250");
        let src = UpDecimal::parse("7.7777", DecimalType::new_unchecked(8, 4)).unwrap();
        let Value::Decimal(v) = cast_value(Value::Decimal(src), ty).unwrap() else { panic!() };
        assert_eq!(v.to_string(), "7.778"); // half away from zero
        assert!(matches!(cast_value(Value::Null, ty), Ok(Value::Null)));
        assert!(cast_value(Value::Str("x".into()), ty).is_err());
        // Overflow rejected.
        assert!(cast_value(Value::Int64(999_999), ty).is_err());
    }

    #[test]
    fn modeled_time_totals_and_adds() {
        let mut a = ModeledTime {
            scan_s: 1.0,
            pcie_s: 2.0,
            compile_s: 3.0,
            kernel_s: 4.0,
            cpu_s: 5.0,
        };
        assert_eq!(a.total(), 15.0);
        let b = ModeledTime { scan_s: 0.5, ..Default::default() };
        a.add(&b);
        assert_eq!(a.scan_s, 1.5);
        assert_eq!(a.total(), 15.5);
    }

    #[test]
    fn width_factor_is_sublinear_and_normalized() {
        assert_eq!(width_factor(18), 1.0);
        assert_eq!(width_factor(9), 1.0); // clamped at 1 below LEN 2
        let w76 = width_factor(76);
        let w307 = width_factor(307);
        assert!(w76 > 1.5 && w76 < 76.0 / 18.0, "{w76}");
        assert!(w307 > w76);
        assert!(w307 < 307.0 / 18.0, "sublinear: {w307}");
    }
}
