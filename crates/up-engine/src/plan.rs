//! Query planning: name resolution and expression binding.
//!
//! A parsed [`Select`] is resolved against the catalog into a
//! [`QueryPlan`] over a *wide row* — the base table's columns followed by
//! each joined table's columns. Decimal arithmetic binds to
//! [`up_jit::Expr`] trees (typed bottom-up per §III-B3, with literals
//! converted to `DECIMAL` at plan time per §III-D2); non-decimal
//! arithmetic binds to a small CPU-interpreted form.

use crate::sql::{AggFunc, BinOp, CmpOp, Join, Pred, Select, SqlExpr};
use crate::storage::{Catalog, ColumnType, Table, Value};
use up_jit::Expr;
use up_num::{DecimalType, UpDecimal};

/// A planning failure.
#[derive(Clone, Debug)]
pub struct PlanError(pub String);

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "planning error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A column of the wide row: which table of the join chain, which column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WideCol {
    /// Table position (0 = base, 1.. = joins in order).
    pub table: usize,
    /// Column index within that table.
    pub column: usize,
    /// The column's type.
    pub ty: ColumnType,
}

/// A bound scalar expression.
#[derive(Clone, Debug)]
pub enum Scalar {
    /// Pure-decimal arithmetic compiled to a JIT expression. `inputs[k]`
    /// is the wide column feeding the expression's column slot `k`.
    Decimal {
        /// The typed expression (slot indices refer to `inputs`).
        expr: Expr,
        /// Wide columns backing each expression slot.
        inputs: Vec<WideCol>,
    },
    /// Non-decimal (int/float/string) expression, CPU-interpreted.
    Cpu(CpuExpr),
    /// `CASE WHEN … THEN … END` — on a GPU this is predicated execution:
    /// every branch evaluates column-wise and a select picks per row.
    Case {
        /// (condition, value) branches in order.
        branches: Vec<(BoundPred, Scalar)>,
        /// `ELSE` value; `None` defaults to zero.
        else_: Option<Box<Scalar>>,
        /// When all branch values are decimal: the union type results are
        /// cast to (so mixed-scale branches aggregate consistently).
        unified: Option<DecimalType>,
    },
    /// `CAST(inner AS DECIMAL(p, s))`.
    Cast {
        /// The casted scalar.
        inner: Box<Scalar>,
        /// Target type.
        ty: DecimalType,
    },
}

/// CPU-interpreted scalar expressions over non-decimal columns.
#[derive(Clone, Debug)]
pub enum CpuExpr {
    /// Wide column reference.
    Col(WideCol),
    /// Integer literal.
    I64(i64),
    /// Float literal.
    F64(f64),
    /// String literal.
    Str(String),
    /// Negation.
    Neg(Box<CpuExpr>),
    /// Arithmetic.
    Bin(BinOp, Box<CpuExpr>, Box<CpuExpr>),
}

/// A bound predicate.
#[derive(Clone, Debug)]
pub enum BoundPred {
    /// Comparison of two scalars.
    Cmp(CmpOp, BoundOperand, BoundOperand),
    /// Conjunction.
    And(Box<BoundPred>, Box<BoundPred>),
    /// Disjunction.
    Or(Box<BoundPred>, Box<BoundPred>),
    /// Negation.
    Not(Box<BoundPred>),
    /// Range test.
    Between(BoundOperand, BoundOperand, BoundOperand),
    /// Pattern match on a string column.
    Like(BoundOperand, String),
}

/// One side of a comparison: a column, a literal, or a bound scalar.
#[derive(Clone, Debug)]
pub enum BoundOperand {
    /// Wide column.
    Col(WideCol),
    /// Decimal literal (typed minimally).
    Dec(UpDecimal),
    /// Integer literal.
    I64(i64),
    /// Float literal.
    F64(f64),
    /// String literal.
    Str(String),
}

/// One projected output.
#[derive(Clone, Debug)]
pub struct OutputItem {
    /// Display name.
    pub name: String,
    /// The computation.
    pub kind: OutputKind,
}

/// What an output item computes.
#[derive(Clone, Debug)]
pub enum OutputKind {
    /// Per-row scalar.
    Scalar(Scalar),
    /// Aggregate over a scalar.
    Agg(AggFunc, Scalar),
    /// `COUNT(*)`.
    CountStar,
    /// A plain group-by key column.
    Key(WideCol),
    /// Arithmetic over aggregates — TPC-H Q14's
    /// `100 * SUM(promo)/SUM(all)` shape. `aggs` lists the aggregate
    /// inputs (`None` scalar = `COUNT(*)`); `combo` combines their
    /// per-group results.
    AggCombo {
        /// The aggregates feeding the combination.
        aggs: Vec<(AggFunc, Option<Scalar>)>,
        /// The combining expression over `aggs` slots.
        combo: ComboExpr,
    },
}

/// Scalar arithmetic over per-group aggregate results.
#[derive(Clone, Debug)]
pub enum ComboExpr {
    /// Slot index into the item's `aggs`.
    Agg(usize),
    /// Decimal literal.
    Dec(UpDecimal),
    /// Integer literal.
    I64(i64),
    /// Negation.
    Neg(Box<ComboExpr>),
    /// Arithmetic.
    Bin(BinOp, Box<ComboExpr>, Box<ComboExpr>),
}

/// HAVING predicate over the output row.
#[derive(Clone, Debug)]
pub enum HavingPred {
    /// Compare output item `item` against a literal.
    Cmp(CmpOp, usize, Value),
    /// Conjunction.
    And(Box<HavingPred>, Box<HavingPred>),
    /// Disjunction.
    Or(Box<HavingPred>, Box<HavingPred>),
    /// Negation.
    Not(Box<HavingPred>),
}

/// A resolved join edge: equality of two wide columns.
#[derive(Clone, Copy, Debug)]
pub struct BoundJoin {
    /// Probe-side wide column (from tables 0..k).
    pub left: WideCol,
    /// Build-side column within the joined table (local index).
    pub right_column: usize,
}

/// The fully-bound plan.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Tables in join order (base first), by lowercase catalog name.
    pub tables: Vec<String>,
    /// Join edges: `joins[i]` connects table `i+1` into the chain.
    pub joins: Vec<Vec<BoundJoin>>,
    /// Filter.
    pub filter: Option<BoundPred>,
    /// Group-by keys (wide columns).
    pub group_by: Vec<WideCol>,
    /// Projected items.
    pub items: Vec<OutputItem>,
    /// HAVING: comparisons over output items (item index vs literal),
    /// pre-resolved conjunctions/disjunctions.
    pub having: Option<HavingPred>,
    /// ORDER BY: (output item index, descending).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// Whether any item aggregates.
    pub has_aggregates: bool,
}

struct Binder<'a> {
    /// (alias, table name, table ref, table position).
    tables: Vec<(Option<String>, String, &'a Table)>,
}

impl<'a> Binder<'a> {
    fn resolve_ident(&self, parts: &[String]) -> Result<WideCol, PlanError> {
        match parts {
            [col] => {
                let mut found = None;
                for (ti, (_, _, t)) in self.tables.iter().enumerate() {
                    if let Some(ci) = t.schema.index_of(col) {
                        if found.is_some() {
                            return Err(PlanError(format!("ambiguous column {col}")));
                        }
                        found = Some(WideCol { table: ti, column: ci, ty: t.schema.columns[ci].ty });
                    }
                }
                found.ok_or_else(|| PlanError(format!("unknown column {col}")))
            }
            [qual, col] => {
                for (ti, (alias, name, t)) in self.tables.iter().enumerate() {
                    let matches = alias.as_deref() == Some(qual.as_str()) || name == qual;
                    if matches {
                        let ci = t
                            .schema
                            .index_of(col)
                            .ok_or_else(|| PlanError(format!("unknown column {qual}.{col}")))?;
                        return Ok(WideCol { table: ti, column: ci, ty: t.schema.columns[ci].ty });
                    }
                }
                Err(PlanError(format!("unknown table or alias {qual}")))
            }
            _ => Err(PlanError("over-qualified identifier".into())),
        }
    }

    /// Does the expression touch only decimal columns and numeric
    /// literals? Then it binds to the JIT path.
    fn is_decimal_expr(&self, e: &SqlExpr) -> bool {
        match e {
            SqlExpr::Num(_) => true,
            SqlExpr::Str(_) => false,
            SqlExpr::Ident(parts) => matches!(
                self.resolve_ident(parts).map(|w| w.ty),
                Ok(ColumnType::Decimal(_))
            ),
            SqlExpr::Neg(x) => self.is_decimal_expr(x),
            SqlExpr::Bin(_, a, b) => self.is_decimal_expr(a) && self.is_decimal_expr(b),
            SqlExpr::Agg(..) | SqlExpr::CountStar => false,
            SqlExpr::Case { .. } | SqlExpr::Cast(..) => false, // bound separately
        }
    }

    fn bind_scalar(&self, e: &SqlExpr) -> Result<Scalar, PlanError> {
        match e {
            SqlExpr::Case { branches, else_ } => {
                let bound: Vec<(BoundPred, Scalar)> = branches
                    .iter()
                    .map(|(p, v)| Ok((self.bind_pred(p)?, self.bind_scalar(v)?)))
                    .collect::<Result<_, PlanError>>()?;
                let else_bound = else_
                    .as_ref()
                    .map(|v| self.bind_scalar(v))
                    .transpose()?
                    .map(Box::new);
                // Unify decimal branch types so per-row selection yields a
                // homogeneous column.
                let mut unified: Option<DecimalType> = None;
                let mut all_decimal = true;
                let mut consider = |s: &Scalar| match scalar_decimal_type(s) {
                    Some(t) => {
                        unified = Some(match unified {
                            None => t,
                            Some(u) => u.union_type(&t),
                        })
                    }
                    None => all_decimal = false,
                };
                for (_, v) in &bound {
                    consider(v);
                }
                if let Some(v) = &else_bound {
                    consider(v);
                }
                Ok(Scalar::Case {
                    branches: bound,
                    else_: else_bound,
                    unified: if all_decimal { unified } else { None },
                })
            }
            SqlExpr::Cast(inner, p, sc) => {
                let ty = DecimalType::new(*p, *sc)
                    .map_err(|e| PlanError(format!("bad CAST target: {e}")))?;
                Ok(Scalar::Cast { inner: Box::new(self.bind_scalar(inner)?), ty })
            }
            _ if self.is_decimal_expr(e) => {
                let mut inputs: Vec<WideCol> = Vec::new();
                let expr = self.bind_decimal(e, &mut inputs)?;
                Ok(Scalar::Decimal { expr, inputs })
            }
            _ => Ok(Scalar::Cpu(self.bind_cpu(e)?)),
        }
    }

    /// Does the expression contain an aggregate anywhere?
    fn has_agg(e: &SqlExpr) -> bool {
        match e {
            SqlExpr::Agg(..) | SqlExpr::CountStar => true,
            SqlExpr::Num(_) | SqlExpr::Str(_) | SqlExpr::Ident(_) => false,
            SqlExpr::Neg(x) => Self::has_agg(x),
            SqlExpr::Bin(_, a, b) => Self::has_agg(a) || Self::has_agg(b),
            SqlExpr::Case { branches, else_ } => {
                branches.iter().any(|(_, v)| Self::has_agg(v))
                    || else_.as_ref().is_some_and(|v| Self::has_agg(v))
            }
            SqlExpr::Cast(x, _, _) => Self::has_agg(x),
        }
    }

    /// Binds arithmetic over aggregates into a combo expression.
    fn bind_combo(
        &self,
        e: &SqlExpr,
        aggs: &mut Vec<(AggFunc, Option<Scalar>)>,
    ) -> Result<ComboExpr, PlanError> {
        match e {
            SqlExpr::Agg(f, inner) => {
                aggs.push((*f, Some(self.bind_scalar(inner)?)));
                Ok(ComboExpr::Agg(aggs.len() - 1))
            }
            SqlExpr::CountStar => {
                aggs.push((AggFunc::Count, None));
                Ok(ComboExpr::Agg(aggs.len() - 1))
            }
            SqlExpr::Num(text) => {
                if text.contains('.') {
                    Ok(ComboExpr::Dec(
                        UpDecimal::parse_literal(text)
                            .map_err(|e| PlanError(format!("bad literal: {e}")))?,
                    ))
                } else {
                    Ok(ComboExpr::I64(
                        text.parse().map_err(|_| PlanError(format!("bad int {text}")))?,
                    ))
                }
            }
            SqlExpr::Neg(x) => Ok(ComboExpr::Neg(Box::new(self.bind_combo(x, aggs)?))),
            SqlExpr::Bin(op, a, b) => Ok(ComboExpr::Bin(
                *op,
                Box::new(self.bind_combo(a, aggs)?),
                Box::new(self.bind_combo(b, aggs)?),
            )),
            other => Err(PlanError(format!(
                "aggregate arithmetic supports aggregates and literals, got {other:?}"
            ))),
        }
    }

    fn bind_decimal(&self, e: &SqlExpr, inputs: &mut Vec<WideCol>) -> Result<Expr, PlanError> {
        match e {
            SqlExpr::Num(text) => {
                // §III-D2: constants convert to DECIMAL at compile time.
                let c = UpDecimal::parse_literal(text)
                    .map_err(|err| PlanError(format!("bad literal {text}: {err}")))?;
                Ok(Expr::Const(c))
            }
            SqlExpr::Ident(parts) => {
                let w = self.resolve_ident(parts)?;
                let ColumnType::Decimal(ty) = w.ty else {
                    return Err(PlanError(format!("{parts:?} is not a decimal column")));
                };
                let slot = match inputs.iter().position(|x| x == &w) {
                    Some(i) => i,
                    None => {
                        inputs.push(w);
                        inputs.len() - 1
                    }
                };
                Ok(Expr::col(slot, ty, parts.join(".")))
            }
            SqlExpr::Neg(x) => Ok(self.bind_decimal(x, inputs)?.neg()),
            SqlExpr::Bin(op, a, b) => {
                let (a, b) = (self.bind_decimal(a, inputs)?, self.bind_decimal(b, inputs)?);
                Ok(match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(b),
                    BinOp::Mod => a.rem(b),
                })
            }
            other => Err(PlanError(format!("not a decimal scalar: {other:?}"))),
        }
    }

    fn bind_cpu(&self, e: &SqlExpr) -> Result<CpuExpr, PlanError> {
        match e {
            SqlExpr::Num(text) => {
                if text.contains('.') {
                    text.parse::<f64>()
                        .map(CpuExpr::F64)
                        .map_err(|_| PlanError(format!("bad float {text}")))
                } else {
                    text.parse::<i64>()
                        .map(CpuExpr::I64)
                        .map_err(|_| PlanError(format!("bad integer {text}")))
                }
            }
            SqlExpr::Str(s) => Ok(CpuExpr::Str(s.clone())),
            SqlExpr::Ident(parts) => Ok(CpuExpr::Col(self.resolve_ident(parts)?)),
            SqlExpr::Neg(x) => Ok(CpuExpr::Neg(Box::new(self.bind_cpu(x)?))),
            SqlExpr::Bin(op, a, b) => Ok(CpuExpr::Bin(
                *op,
                Box::new(self.bind_cpu(a)?),
                Box::new(self.bind_cpu(b)?),
            )),
            other => Err(PlanError(format!("not a scalar: {other:?}"))),
        }
    }

    fn bind_operand(&self, e: &SqlExpr) -> Result<BoundOperand, PlanError> {
        match e {
            SqlExpr::Ident(parts) => Ok(BoundOperand::Col(self.resolve_ident(parts)?)),
            SqlExpr::Num(text) => {
                if text.contains('.') {
                    Ok(BoundOperand::Dec(
                        UpDecimal::parse_literal(text)
                            .map_err(|err| PlanError(format!("bad literal: {err}")))?,
                    ))
                } else {
                    Ok(BoundOperand::I64(
                        text.parse().map_err(|_| PlanError(format!("bad int {text}")))?,
                    ))
                }
            }
            SqlExpr::Str(s) => Ok(BoundOperand::Str(s.clone())),
            SqlExpr::Neg(inner) => match self.bind_operand(inner)? {
                BoundOperand::I64(v) => Ok(BoundOperand::I64(-v)),
                BoundOperand::F64(v) => Ok(BoundOperand::F64(-v)),
                BoundOperand::Dec(v) => Ok(BoundOperand::Dec(v.neg())),
                _ => Err(PlanError("cannot negate".into())),
            },
            other => Err(PlanError(format!(
                "predicates compare columns and literals only, got {other:?}"
            ))),
        }
    }

    fn bind_pred(&self, p: &Pred) -> Result<BoundPred, PlanError> {
        Ok(match p {
            Pred::Cmp(op, a, b) => BoundPred::Cmp(*op, self.bind_operand(a)?, self.bind_operand(b)?),
            Pred::And(a, b) => BoundPred::And(Box::new(self.bind_pred(a)?), Box::new(self.bind_pred(b)?)),
            Pred::Or(a, b) => BoundPred::Or(Box::new(self.bind_pred(a)?), Box::new(self.bind_pred(b)?)),
            Pred::Not(a) => BoundPred::Not(Box::new(self.bind_pred(a)?)),
            Pred::Between(x, lo, hi) => BoundPred::Between(
                self.bind_operand(x)?,
                self.bind_operand(lo)?,
                self.bind_operand(hi)?,
            ),
            Pred::Like(x, pat) => BoundPred::Like(self.bind_operand(x)?, pat.clone()),
        })
    }
}

/// Plans a parsed select against the catalog.
pub fn plan(select: &Select, catalog: &Catalog) -> Result<QueryPlan, PlanError> {
    // Read-lock every referenced table in sorted lowercase-name order —
    // the same global lock order `exec::execute` uses, so concurrent
    // multi-table queries cannot deadlock (the catalog is lock-striped
    // per table).
    let mut lock_names: Vec<String> = std::iter::once(select.from.to_lowercase())
        .chain(select.joins.iter().map(|j| j.table.to_lowercase()))
        .collect();
    lock_names.sort();
    lock_names.dedup();
    let guards: Vec<_> = lock_names
        .iter()
        .map(|n| {
            catalog
                .read(n)
                .ok_or_else(|| PlanError(format!("unknown table {n}")))
        })
        .collect::<Result<_, _>>()?;
    let table_ref = |name: &str| -> &Table {
        let i = lock_names
            .binary_search(&name.to_lowercase())
            .expect("locked above");
        &guards[i]
    };

    let base = table_ref(&select.from);
    let mut binder = Binder {
        tables: vec![(select.from_alias.clone(), select.from.clone(), base)],
    };
    let mut tables = vec![select.from.to_lowercase()];
    let mut joins = Vec::new();
    for Join { table, alias, on } in &select.joins {
        let t = table_ref(table);
        binder.tables.push((alias.clone(), table.clone(), t));
        tables.push(table.to_lowercase());
        let this_ti = binder.tables.len() - 1;
        let mut edges = Vec::new();
        for (l, r) in on {
            let (SqlExpr::Ident(lp), SqlExpr::Ident(rp)) = (l, r) else {
                return Err(PlanError("JOIN ON requires column = column".into()));
            };
            let lw = binder.resolve_ident(lp)?;
            let rw = binder.resolve_ident(rp)?;
            // Exactly one side must come from the newly joined table.
            let (probe, build) = if rw.table == this_ti && lw.table < this_ti {
                (lw, rw)
            } else if lw.table == this_ti && rw.table < this_ti {
                (rw, lw)
            } else {
                return Err(PlanError("JOIN ON must link the new table to earlier ones".into()));
            };
            edges.push(BoundJoin { left: probe, right_column: build.column });
        }
        if edges.is_empty() {
            return Err(PlanError("JOIN needs at least one equality".into()));
        }
        joins.push(edges);
    }

    let filter = select.where_.as_ref().map(|p| binder.bind_pred(p)).transpose()?;

    let mut group_by = Vec::new();
    for g in &select.group_by {
        let SqlExpr::Ident(parts) = g else {
            return Err(PlanError("GROUP BY supports plain columns".into()));
        };
        group_by.push(binder.resolve_ident(parts)?);
    }

    let mut has_aggregates = false;
    let mut items = Vec::new();
    for (i, (e, alias)) in select.items.iter().enumerate() {
        let name = alias.clone().unwrap_or_else(|| render_name(e, i));
        let kind = match e {
            SqlExpr::CountStar => {
                has_aggregates = true;
                OutputKind::CountStar
            }
            SqlExpr::Agg(f, inner) => {
                has_aggregates = true;
                OutputKind::Agg(*f, binder.bind_scalar(inner)?)
            }
            other if Binder::has_agg(other) => {
                has_aggregates = true;
                let mut aggs = Vec::new();
                let combo = binder.bind_combo(other, &mut aggs)?;
                OutputKind::AggCombo { aggs, combo }
            }
            SqlExpr::Ident(parts) if !group_by.is_empty() => {
                // In a grouped query a bare ident must be a key.
                let w = binder.resolve_ident(parts)?;
                if !group_by.contains(&w) {
                    return Err(PlanError(format!(
                        "{} must appear in GROUP BY or an aggregate",
                        parts.join(".")
                    )));
                }
                OutputKind::Key(w)
            }
            other => OutputKind::Scalar(binder.bind_scalar(other)?),
        };
        items.push(OutputItem { name, kind });
    }
    if has_aggregates {
        for item in &items {
            if matches!(item.kind, OutputKind::Scalar(_)) {
                return Err(PlanError(format!(
                    "{} must appear in GROUP BY or an aggregate",
                    item.name
                )));
            }
        }
    }

    let having = select
        .having
        .as_ref()
        .map(|p| bind_having(p, &items, &binder))
        .transpose()?;

    // ORDER BY: resolve to output positions by alias or by matching a
    // group key name.
    let mut order_by = Vec::new();
    for (e, desc) in &select.order_by {
        let idx = match e {
            SqlExpr::Num(n) => {
                let i: usize = n
                    .parse()
                    .map_err(|_| PlanError(format!("bad ORDER BY position {n}")))?;
                i.checked_sub(1)
                    .filter(|i| *i < items.len())
                    .ok_or_else(|| PlanError(format!("ORDER BY position {i} out of range")))?
            }
            SqlExpr::Ident(parts) => {
                let name = parts.join(".");
                let short = parts.last().expect("ident has parts").clone();
                items
                    .iter()
                    .position(|it| it.name == name || it.name == short)
                    .ok_or_else(|| {
                        PlanError(format!("ORDER BY {name} does not match an output column"))
                    })?
            }
            other => return Err(PlanError(format!("unsupported ORDER BY expression {other:?}"))),
        };
        order_by.push((idx, *desc));
    }

    Ok(QueryPlan {
        tables,
        joins,
        filter,
        group_by,
        items,
        having,
        order_by,
        limit: select.limit,
        has_aggregates,
    })
}

/// Binds a HAVING predicate: the left side must name an output item (by
/// alias or key name); the right side is a literal.
fn bind_having(
    p: &Pred,
    items: &[OutputItem],
    binder: &Binder<'_>,
) -> Result<HavingPred, PlanError> {
    let item_index = |e: &SqlExpr| -> Result<usize, PlanError> {
        let SqlExpr::Ident(parts) = e else {
            return Err(PlanError(format!("HAVING compares an output column, got {e:?}")));
        };
        let name = parts.join(".");
        let short = parts.last().expect("ident has parts").clone();
        items
            .iter()
            .position(|it| it.name == name || it.name == short)
            .ok_or_else(|| PlanError(format!("HAVING column {name} is not an output")))
    };
    Ok(match p {
        Pred::Cmp(op, l, r) => {
            let item = item_index(l)?;
            let lit = match binder.bind_operand(r)? {
                BoundOperand::Dec(d) => Value::Decimal(d),
                BoundOperand::I64(v) => Value::Int64(v),
                BoundOperand::F64(v) => Value::Float64(v),
                BoundOperand::Str(s) => Value::Str(s),
                BoundOperand::Col(_) => {
                    return Err(PlanError("HAVING compares outputs to literals".into()))
                }
            };
            // A string never compares with a number: say so here, not
            // per row in the executor.
            if item_is_str(&items[item].kind).is_some_and(|s| s != matches!(lit, Value::Str(_))) {
                return Err(PlanError(format!(
                    "HAVING compares {} with a literal of another kind: {r:?}",
                    items[item].name
                )));
            }
            HavingPred::Cmp(*op, item, lit)
        }
        Pred::And(a, b) => HavingPred::And(
            Box::new(bind_having(a, items, binder)?),
            Box::new(bind_having(b, items, binder)?),
        ),
        Pred::Or(a, b) => HavingPred::Or(
            Box::new(bind_having(a, items, binder)?),
            Box::new(bind_having(b, items, binder)?),
        ),
        Pred::Not(a) => HavingPred::Not(Box::new(bind_having(a, items, binder)?)),
        other => return Err(PlanError(format!("unsupported HAVING form {other:?}"))),
    })
}

/// Whether an output item is string-valued (`Some(false)`: numeric);
/// `None` when the planner does not type it (CPU scalars, a mixed CASE).
fn item_is_str(kind: &OutputKind) -> Option<bool> {
    match kind {
        OutputKind::Key(w) => Some(w.ty == ColumnType::Str),
        OutputKind::Scalar(s) | OutputKind::Agg(AggFunc::Min | AggFunc::Max, s) => {
            scalar_decimal_type(s).map(|_| false)
        }
        _ => Some(false),
    }
}

fn render_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Ident(parts) => parts.join("."),
        SqlExpr::Agg(f, _) => format!("{f:?}").to_lowercase(),
        SqlExpr::CountStar => "count".to_string(),
        _ => format!("col{i}"),
    }
}

/// Decimal type of an output item when it is decimal-valued; used by the
/// executor to size result buffers.
pub fn scalar_decimal_type(s: &Scalar) -> Option<DecimalType> {
    match s {
        Scalar::Decimal { expr, .. } => Some(expr.dtype()),
        Scalar::Cpu(_) => None,
        Scalar::Case { unified, .. } => *unified,
        Scalar::Cast { ty, .. } => Some(*ty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_select;
    use crate::storage::Schema;

    fn dt(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut r = Table::new(
            "r",
            Schema::new(vec![
                ("c1", ColumnType::Decimal(dt(4, 2))),
                ("c2", ColumnType::Decimal(dt(4, 1))),
                ("k", ColumnType::Int64),
                ("tag", ColumnType::Str),
            ]),
        );
        r.push_row(vec![
            Value::Decimal(UpDecimal::parse("1.23", dt(4, 2)).unwrap()),
            Value::Decimal(UpDecimal::parse("1.1", dt(4, 1)).unwrap()),
            Value::Int64(1),
            Value::Str("x".into()),
        ])
        .unwrap();
        c.put(r);
        let s = Table::new(
            "s",
            Schema::new(vec![("k", ColumnType::Int64), ("v", ColumnType::Decimal(dt(6, 2)))]),
        );
        c.put(s);
        c
    }

    #[test]
    fn binds_decimal_expression_with_types() {
        let cat = catalog();
        let sel = parse_select("SELECT c1 + c2 FROM r").unwrap();
        let p = plan(&sel, &cat).unwrap();
        let OutputKind::Scalar(Scalar::Decimal { expr, inputs }) = &p.items[0].kind else {
            panic!("expected decimal scalar");
        };
        assert_eq!(inputs.len(), 2);
        assert_eq!(expr.dtype(), dt(6, 2)); // Listing 1's inferred type
    }

    #[test]
    fn repeated_column_shares_a_slot() {
        let cat = catalog();
        let sel = parse_select("SELECT c1 * c1 % 97 FROM r").unwrap();
        let p = plan(&sel, &cat).unwrap();
        let OutputKind::Scalar(Scalar::Decimal { inputs, .. }) = &p.items[0].kind else {
            panic!()
        };
        assert_eq!(inputs.len(), 1);
    }

    #[test]
    fn literals_become_decimal_constants() {
        let cat = catalog();
        let sel = parse_select("SELECT 0.25 * c1 FROM r").unwrap();
        let p = plan(&sel, &cat).unwrap();
        let OutputKind::Scalar(Scalar::Decimal { expr, .. }) = &p.items[0].kind else { panic!() };
        assert!(matches!(expr, Expr::Mul(a, _) if matches!(**a, Expr::Const(_))));
    }

    #[test]
    fn group_by_validation() {
        let cat = catalog();
        let sel = parse_select("SELECT k, SUM(c1) FROM r GROUP BY k").unwrap();
        let p = plan(&sel, &cat).unwrap();
        assert!(p.has_aggregates);
        assert!(matches!(p.items[0].kind, OutputKind::Key(_)));
        // Non-key bare column is rejected.
        let bad = parse_select("SELECT tag, SUM(c1) FROM r GROUP BY k").unwrap();
        assert!(plan(&bad, &cat).is_err());
        // Aggregate mixed with a bare scalar (no GROUP BY) is rejected.
        let bad2 = parse_select("SELECT c1, SUM(c1) FROM r").unwrap();
        assert!(plan(&bad2, &cat).is_err());
    }

    #[test]
    fn join_resolution() {
        let cat = catalog();
        let sel = parse_select("SELECT r.c1 FROM r JOIN s ON r.k = s.k").unwrap();
        let p = plan(&sel, &cat).unwrap();
        assert_eq!(p.tables, vec!["r", "s"]);
        assert_eq!(p.joins.len(), 1);
        assert_eq!(p.joins[0][0].left.table, 0);
    }

    #[test]
    fn unknown_names_error() {
        let cat = catalog();
        assert!(plan(&parse_select("SELECT zzz FROM r").unwrap(), &cat).is_err());
        assert!(plan(&parse_select("SELECT c1 FROM nope").unwrap(), &cat).is_err());
        assert!(plan(&parse_select("SELECT q.c1 FROM r").unwrap(), &cat).is_err());
    }

    #[test]
    fn order_by_resolves_aliases_and_positions() {
        let cat = catalog();
        let sel =
            parse_select("SELECT k, SUM(c1) AS total FROM r GROUP BY k ORDER BY total DESC, 1")
                .unwrap();
        let p = plan(&sel, &cat).unwrap();
        assert_eq!(p.order_by, vec![(1, true), (0, false)]);
    }
}
