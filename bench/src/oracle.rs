//! The reference evaluator: expected wire cells for every statement,
//! computed without the JIT, the simulator, or `UpDecimal` arithmetic.
//!
//! `+ − ×` run on `up-baselines::SoftDecimal` (base-10⁴ digit vectors —
//! no code shared with the 2³²-limb kernels). `/` and `%` use the naive
//! fixed-scale form "value = BigInt, scale = const" with the paper's
//! §III-B3 rules (quotient truncated at scale s₁+4; integer modulo),
//! because `SoftDecimal::div` rounds half away where the engine
//! truncates. Cells are compared as rendered strings, digit for digit.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use up_baselines::soft_decimal::SoftDecimal;
use up_engine::Value;
use up_num::BigInt;

/// Binary operators of the reference expression tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Mod => "%",
        }
    }

    fn is_additive(self) -> bool {
        matches!(self, Op::Add | Op::Sub)
    }
}

/// A scalar expression over one table's columns. The SQL text and the
/// expected values are both derived from this one description.
#[derive(Clone, Debug)]
pub enum RefExpr {
    Col(usize),
    Lit(String),
    Bin(Op, Box<RefExpr>, Box<RefExpr>),
}

impl RefExpr {
    pub fn bin(op: Op, a: RefExpr, b: RefExpr) -> RefExpr {
        RefExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Whether the engine evaluates this without a kernel (bare column
    /// or literal: a JIT passthrough).
    pub fn is_leaf(&self) -> bool {
        !matches!(self, RefExpr::Bin(..))
    }

    /// SQL text, parenthesized only where precedence needs it so the
    /// paper's queries print the way the paper writes them.
    pub fn sql(&self, cols: &[String]) -> String {
        match self {
            RefExpr::Col(i) => cols[*i].clone(),
            RefExpr::Lit(s) => s.clone(),
            RefExpr::Bin(op, a, b) => {
                let wrap = |e: &RefExpr, right: bool| {
                    let s = e.sql(cols);
                    let needs = match e {
                        RefExpr::Bin(inner, ..) => {
                            (!op.is_additive() && inner.is_additive())
                                || (right && (!op.is_additive() || inner.is_additive()))
                        }
                        _ => false,
                    };
                    if needs {
                        format!("({s})")
                    } else {
                        s
                    }
                };
                format!("{} {} {}", wrap(a, false), op.symbol(), wrap(b, true))
            }
        }
    }

    /// Evaluates over one row of pre-parsed reference values.
    pub fn eval(&self, row: &[SoftDecimal]) -> SoftDecimal {
        match self {
            RefExpr::Col(i) => row[*i].clone(),
            RefExpr::Lit(s) => SoftDecimal::parse(s).expect("literal parses"),
            RefExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(row), b.eval(row));
                match op {
                    Op::Add => x.add(&y),
                    Op::Sub => x.sub(&y),
                    Op::Mul => x.mul(&y),
                    Op::Div => div_trunc(&x, &y),
                    Op::Mod => rem_int(&x, &y),
                }
            }
        }
    }
}

/// Unscaled integer and scale of a reference value, via its rendering.
fn split(x: &SoftDecimal) -> (BigInt, u32) {
    let digits: String = x.to_string().chars().filter(|c| *c != '.').collect();
    (
        BigInt::parse_dec(&digits).expect("rendered digits parse"),
        x.dscale(),
    )
}

/// Renders `int · 10^-scale` the way a decimal column prints.
pub fn render_scaled(int: &BigInt, scale: u32) -> String {
    let mut digits = int.mag_to_dec_string();
    let s = scale as usize;
    if digits.len() <= s {
        digits = format!("{}{digits}", "0".repeat(s + 1 - digits.len()));
    }
    let (int_part, frac) = digits.split_at(digits.len() - s);
    let sign = if int.is_negative() { "-" } else { "" };
    if s == 0 {
        format!("{sign}{int_part}")
    } else {
        format!("{sign}{int_part}.{frac}")
    }
}

fn join(int: &BigInt, scale: u32) -> SoftDecimal {
    SoftDecimal::parse(&render_scaled(int, scale)).expect("rendered value parses")
}

/// §III-B3 division: dividend × 10^(s₂+4), truncated quotient, scale s₁+4.
pub fn div_trunc(a: &SoftDecimal, b: &SoftDecimal) -> SoftDecimal {
    let ((ai, a_s), (bi, b_s)) = (split(a), split(b));
    join(&ai.mul_pow10(b_s + 4).div(&bi), a_s + 4)
}

/// §III-B3 modulo: both sides truncated to integers, scale 0.
fn rem_int(a: &SoftDecimal, b: &SoftDecimal) -> SoftDecimal {
    let ((ai, a_s), (bi, b_s)) = (split(a), split(b));
    join(&ai.div_pow10_trunc(a_s).rem(&bi.div_pow10_trunc(b_s)), 0)
}

/// The reference view of a stored value (zero for non-decimal cells,
/// which no reference expression reads).
pub fn to_soft(v: &Value) -> SoftDecimal {
    match v {
        Value::Decimal(d) => SoftDecimal::parse(&d.to_string()).expect("decimal renders"),
        _ => SoftDecimal::zero(0),
    }
}

/// One output item of a reference `SELECT`.
#[derive(Clone, Debug)]
pub enum Item {
    /// A group-by key column (string).
    Key(usize),
    Proj(RefExpr),
    Sum(RefExpr),
    Avg(RefExpr),
    CountStar,
}

impl Item {
    /// The scalar the engine evaluates for this item, if any.
    pub fn expr(&self) -> Option<&RefExpr> {
        match self {
            Item::Proj(e) | Item::Sum(e) | Item::Avg(e) => Some(e),
            Item::Key(_) | Item::CountStar => None,
        }
    }

    pub fn is_aggregate(&self) -> bool {
        matches!(self, Item::Sum(_) | Item::Avg(_) | Item::CountStar)
    }
}

/// Row filters the workloads use.
#[derive(Clone, Debug)]
pub enum Filter {
    /// `col > 0` on a decimal column.
    Positive(usize),
    /// `col <= 'text'` on a string column.
    StrLe(usize, String),
}

/// A reference `SELECT` over one table.
#[derive(Clone, Debug)]
pub struct Select {
    pub items: Vec<Item>,
    pub filter: Option<Filter>,
    /// Group-by string columns; output is ordered by them.
    pub group_by: Vec<usize>,
    pub limit: Option<usize>,
}

impl Select {
    pub fn of(items: Vec<Item>) -> Select {
        Select {
            items,
            filter: None,
            group_by: Vec::new(),
            limit: None,
        }
    }

    pub fn filter(mut self, f: Filter) -> Select {
        self.filter = Some(f);
        self
    }

    pub fn limit(mut self, n: usize) -> Select {
        self.limit = Some(n);
        self
    }

    /// SQL text for the subset the generic renderer covers (no GROUP BY:
    /// the one grouped statement is TPC-H Q1, whose text comes from
    /// `up_workloads::tpch::q1_sql`).
    pub fn sql(&self, table: &str, cols: &[String]) -> String {
        let items: Vec<String> = self
            .items
            .iter()
            .map(|it| match it {
                Item::Key(c) => cols[*c].clone(),
                Item::Proj(e) => e.sql(cols),
                Item::Sum(e) => format!("SUM({})", e.sql(cols)),
                Item::Avg(e) => format!("AVG({})", e.sql(cols)),
                Item::CountStar => "COUNT(*)".to_string(),
            })
            .collect();
        let mut sql = format!("SELECT {} FROM {table}", items.join(", "));
        match &self.filter {
            Some(Filter::Positive(c)) => sql.push_str(&format!(" WHERE {} > 0", cols[*c])),
            Some(Filter::StrLe(c, s)) => sql.push_str(&format!(" WHERE {} <= '{s}'", cols[*c])),
            None => {}
        }
        if let Some(l) = self.limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        sql
    }

    /// Row indexes that pass the filter, in table order.
    pub fn selection(&self, rows: &[Vec<Value>], soft: &[Vec<SoftDecimal>]) -> Vec<u32> {
        let zero = SoftDecimal::zero(0);
        (0..rows.len() as u32)
            .filter(|&r| match &self.filter {
                None => true,
                Some(Filter::Positive(c)) => {
                    soft[r as usize][*c].cmp_value(&zero) == Ordering::Greater
                }
                Some(Filter::StrLe(c, s)) => match &rows[r as usize][*c] {
                    Value::Str(v) => v.as_str().cmp(s.as_str()) != Ordering::Greater,
                    other => panic!("string filter on non-string cell {other:?}"),
                },
            })
            .collect()
    }

    /// The rendered cells the wire must deliver for this statement.
    pub fn expected(&self, rows: &[Vec<Value>], soft: &[Vec<SoftDecimal>]) -> Vec<Vec<String>> {
        let sel = self.selection(rows, soft);
        if !self.items.iter().any(Item::is_aggregate) {
            let take = self.limit.unwrap_or(usize::MAX);
            return sel
                .iter()
                .take(take)
                .map(|&r| {
                    self.items
                        .iter()
                        .map(|it| match it {
                            Item::Proj(e) => e.eval(&soft[r as usize]).to_string(),
                            Item::Key(c) => rows[r as usize][*c].render(),
                            _ => unreachable!("aggregates handled below"),
                        })
                        .collect()
                })
                .collect();
        }
        // Aggregates: one row per group, ordered by the key tuple.
        let mut groups: BTreeMap<Vec<String>, Vec<u32>> = BTreeMap::new();
        if self.group_by.is_empty() {
            groups.insert(Vec::new(), sel);
        } else {
            for r in sel {
                let key = self
                    .group_by
                    .iter()
                    .map(|c| rows[r as usize][*c].render())
                    .collect();
                groups.entry(key).or_default().push(r);
            }
        }
        let mut out: Vec<Vec<String>> = groups
            .values()
            .map(|members| {
                self.items
                    .iter()
                    .map(|it| match it {
                        Item::Key(c) => rows[members[0] as usize][*c].render(),
                        Item::CountStar => members.len().to_string(),
                        Item::Sum(e) => sum(e, members, soft).to_string(),
                        Item::Avg(e) => {
                            // AVG = SUM ÷ count under the division rule
                            // (the count is an integer: s₂ = 0).
                            let (int, scale) = split(&sum(e, members, soft));
                            let n = BigInt::from(members.len() as u64);
                            render_scaled(&int.mul_pow10(4).div(&n), scale + 4)
                        }
                        Item::Proj(_) => unreachable!("projection beside aggregates"),
                    })
                    .collect()
            })
            .collect();
        if let Some(l) = self.limit {
            out.truncate(l);
        }
        out
    }
}

fn sum(e: &RefExpr, members: &[u32], soft: &[Vec<SoftDecimal>]) -> SoftDecimal {
    let mut it = members.iter();
    let first = it.next().expect("aggregate over a non-empty selection");
    it.fold(e.eval(&soft[*first as usize]), |acc, &r| {
        acc.add(&e.eval(&soft[r as usize]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(s: &str) -> SoftDecimal {
        SoftDecimal::parse(s).unwrap()
    }

    #[test]
    fn division_truncates_at_scale_plus_four() {
        assert_eq!(div_trunc(&sd("10.00"), &sd("7")).to_string(), "1.428571");
        assert_eq!(div_trunc(&sd("-2.00"), &sd("3.0")).to_string(), "-0.666666");
    }

    #[test]
    fn modulo_is_integer_and_follows_the_dividend() {
        assert_eq!(rem_int(&sd("17.9"), &sd("5.2")).to_string(), "2");
        assert_eq!(rem_int(&sd("-17"), &sd("5")).to_string(), "-2");
    }

    #[test]
    fn sql_keeps_paper_spelling() {
        let cols = vec!["c1".to_string()];
        let n = || RefExpr::Lit("77".into());
        let c = || RefExpr::Col(0);
        let sq = RefExpr::bin(Op::Mod, RefExpr::bin(Op::Mul, c(), c()), n());
        let q4 = RefExpr::bin(Op::Mod, RefExpr::bin(Op::Mul, sq, c()), n());
        assert_eq!(q4.sql(&cols), "c1 * c1 % 77 * c1 % 77");
        let e = RefExpr::bin(
            Op::Mul,
            c(),
            RefExpr::bin(Op::Sub, RefExpr::Lit("1".into()), c()),
        );
        assert_eq!(e.sql(&cols), "c1 * (1 - c1)");
    }

    #[test]
    fn render_scaled_pads_small_values() {
        assert_eq!(render_scaled(&BigInt::from(-5i64), 2), "-0.05");
        assert_eq!(render_scaled(&BigInt::from(1234i64), 0), "1234");
    }
}
