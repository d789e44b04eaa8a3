//! A query's result set, kept as columns (DESIGN.md §16): [`Rows`] owns
//! the result columns — a decimal one is still a [`DecimalType`] plus `Lb`
//! compact bytes per cell (§III-B), the kernel's output buffer moved here
//! uncopied — and the row order HAVING, ORDER BY and LIMIT left. A wire
//! front end renders cells from the columns ([`Column::append_cell`]);
//! in-process callers get `[Vec<Value>]` on `Deref`, built on first use.

use crate::storage::Value;
use std::borrow::Cow;
use std::io::Write as _;
use std::sync::OnceLock;
use up_num::{decode_compact, DecimalType};

/// An evaluated scalar column. On the UltraPrecise path a decimal column
/// stays what storage and the kernels hold — one [`DecimalType`] and `Lb`
/// compact bytes per cell (§III-B): the kernel's output buffer, or a
/// passthrough column's stored (borrowed) or gathered bytes. The aggregate
/// folds, ORDER BY and the wire encoder read those bytes; a cell becomes a
/// [`Value`] only in [`Rows`]' row view. Everything else (CPU scalars,
/// comparator profiles, CASE, CAST, aggregate results) is per-cell values.
#[derive(Clone, Debug)]
pub enum Column<'a> {
    /// `bytes.len() / ty.lb()` compact cells of one type.
    Decimal {
        /// The column's type: every cell's precision and scale.
        ty: DecimalType,
        /// The cells, `ty.lb()` bytes each.
        bytes: Cow<'a, [u8]>,
    },
    /// One value per cell.
    Values(Vec<Value>),
}

/// Cell `i` of a compact column of type `ty`.
pub(crate) fn compact_cell(bytes: &[u8], ty: DecimalType, i: usize) -> &[u8] {
    let lb = ty.lb();
    &bytes[i * lb..][..lb]
}

#[cfg(test)]
thread_local! {
    /// Cells [`Column::value`] produced on this thread.
    pub(crate) static CELLS_DECODED: core::cell::Cell<usize> = const { core::cell::Cell::new(0) };
}

impl Column<'_> {
    pub(crate) fn value(&self, i: usize) -> Value {
        #[cfg(test)]
        CELLS_DECODED.with(|c| c.set(c.get() + 1));
        match self {
            Column::Decimal { ty, bytes } => {
                Value::Decimal(decode_compact(compact_cell(bytes, *ty, i), *ty))
            }
            Column::Values(vals) => vals[i].clone(),
        }
    }

    pub(crate) fn into_values(self) -> Vec<Value> {
        match self {
            Column::Decimal { ty, bytes } => bytes
                .chunks_exact(ty.lb())
                .map(|cell| Value::Decimal(decode_compact(cell, ty)))
                .collect(),
            Column::Values(vals) => vals,
        }
    }

    pub(crate) fn into_owned(self) -> Column<'static> {
        match self {
            Column::Decimal { ty, bytes } => {
                Column::Decimal { ty, bytes: Cow::Owned(bytes.into_owned()) }
            }
            Column::Values(vals) => Column::Values(vals),
        }
    }

    /// Appends cell `i`'s text — exactly [`Value::render`]'s — to `out`;
    /// a compact cell's digits go there straight from its bytes.
    pub fn append_cell(&self, i: usize, out: &mut Vec<u8>) {
        match self {
            Column::Decimal { ty, bytes } => {
                up_num::append_compact(out, compact_cell(bytes, *ty, i), ty.scale)
            }
            Column::Values(vals) => write!(out, "{}", vals[i]).expect("a Vec takes any write"),
        }
    }
}

/// The rows of a [`QueryResult`](crate::QueryResult): result columns plus
/// the order their rows come out in. Derefs to `[Vec<Value>]`.
#[derive(Clone)]
pub struct Rows {
    cols: Vec<Column<'static>>,
    /// Cells per column.
    n: usize,
    /// Result row `k` is cell `order[k]` of every column; `None` is every
    /// cell in column order.
    order: Option<Vec<u32>>,
    view: OnceLock<Vec<Vec<Value>>>,
}

impl Rows {
    pub(crate) fn new(cols: Vec<Column<'static>>, n: usize, order: Option<Vec<u32>>) -> Rows {
        Rows { cols, n, order, view: OnceLock::new() }
    }

    /// Number of result rows; materialises nothing.
    pub fn len(&self) -> usize {
        self.order.as_ref().map_or(self.n, Vec::len)
    }

    /// Whether there are no result rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The result columns, in output order. They may hold more cells than
    /// there are result rows: index them through [`Rows::row_ids`].
    pub fn columns(&self) -> &[Column<'static>] {
        &self.cols
    }

    /// For each result row in order, its cell index in every column.
    pub fn row_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|k| self.order.as_ref().map_or(k, |o| o[k] as usize))
    }
}

impl core::ops::Deref for Rows {
    type Target = [Vec<Value>];

    fn deref(&self) -> &[Vec<Value>] {
        self.view.get_or_init(|| {
            self.row_ids().map(|i| self.cols.iter().map(|c| c.value(i)).collect()).collect()
        })
    }
}

impl IntoIterator for Rows {
    type Item = Vec<Value>;
    type IntoIter = std::vec::IntoIter<Vec<Value>>;

    fn into_iter(mut self) -> Self::IntoIter {
        let _ = &*self;
        self.view.take().expect("materialised above").into_iter()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Vec<Value>;
    type IntoIter = core::slice::Iter<'a, Vec<Value>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        **self == **other
    }
}

impl core::fmt::Debug for Rows {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::cmp_values;
    use crate::{ColumnType, Database, Profile, Schema};
    use core::cmp::Ordering;
    use up_num::UpDecimal;

    /// `t(a, k, s)`: `a` repeats (ORDER BY ties), `k` is the row number.
    fn db() -> Database {
        let ty = DecimalType::new_unchecked(6, 2);
        let mut db = Database::new(Profile::UltraPrecise);
        db.create_table(
            "t",
            Schema::new(vec![
                ("a", ColumnType::Decimal(ty)),
                ("k", ColumnType::Int64),
                ("s", ColumnType::Str),
            ]),
        );
        let a = ["1.50", "-0.25", "1.50", "0.00", "-0.25", "7.00", "1.50", "-3.10"];
        db.insert_many(
            "t",
            a.iter().enumerate().map(|(k, a)| {
                vec![
                    Value::Decimal(UpDecimal::parse(a, ty).unwrap()),
                    Value::Int64(k as i64),
                    Value::Str(["x", "y"][k % 2].into()),
                ]
            }),
        )
        .unwrap();
        db
    }

    /// The row assembly `execute` used to do: materialise every row, keep
    /// those HAVING passes, stable-sort the rows, truncate.
    fn assembled(
        base: &[Vec<Value>],
        having: impl Fn(&[Value]) -> bool,
        order_by: &[(usize, bool)],
        limit: usize,
    ) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = base.iter().filter(|r| having(r)).cloned().collect();
        rows.sort_by(|x, y| {
            order_by.iter().fold(Ordering::Equal, |o, &(i, desc)| {
                o.then_with(|| {
                    let o = cmp_values(&x[i], &y[i]).unwrap();
                    if desc { o.reverse() } else { o }
                })
            })
        });
        rows.truncate(limit);
        rows
    }

    #[test]
    fn the_row_view_is_the_old_row_assembly() {
        let db = db();
        let base = db.query("SELECT a + a AS d, k, s FROM t").unwrap().rows;
        assert_eq!(base.len(), 8);
        let all = |_: &[Value]| true;
        let positive = |r: &[Value]| cmp_values(&r[0], &Value::Int64(0)).unwrap() == Ordering::Greater;
        // (SQL tail, HAVING, ORDER BY as (column, descending), LIMIT)
        type Case<'a> = (&'a str, &'a dyn Fn(&[Value]) -> bool, &'a [(usize, bool)], usize);
        let cases: [Case<'_>; 7] = [
            // Ties on `d` keep their table order, ascending and descending.
            ("ORDER BY d", &all, &[(0, false)], 8),
            ("ORDER BY d DESC LIMIT 4", &all, &[(0, true)], 4),
            ("ORDER BY s DESC, d", &all, &[(2, true), (0, false)], 8),
            ("HAVING d > 0", &positive, &[], 8),
            ("HAVING d > 0 ORDER BY d DESC, k DESC LIMIT 3", &positive, &[(0, true), (1, true)], 3),
            ("LIMIT 0", &all, &[], 0),
            ("LIMIT 100", &all, &[], 100),
        ];
        for (tail, having, order_by, limit) in cases {
            let got = db.query(&format!("SELECT a + a AS d, k, s FROM t {tail}")).unwrap().rows;
            let want = assembled(&base, having, order_by, limit);
            assert_eq!(got.len(), want.len(), "{tail}: len() before the view exists");
            assert_eq!(*got, want, "{tail}");
            assert_eq!(got.clone().into_iter().collect::<Vec<_>>(), want, "{tail}: by value");
        }
    }

    #[test]
    fn limit_decodes_only_the_rows_it_keeps() {
        let db = db();
        CELLS_DECODED.with(|c| c.set(0));
        let r = db.query("SELECT a + a, a * a FROM t ORDER BY 1 DESC LIMIT 3").unwrap();
        assert_eq!((r.rows.len(), r.rows.is_empty()), (3, false));
        assert_eq!(CELLS_DECODED.with(|c| c.get()), 0, "ordering and limiting read compact bytes");
        assert_eq!(r.rows[0][0].render(), "14.00");
        assert_eq!(r.rows[2][1].render(), "2.2500");
        assert_eq!(CELLS_DECODED.with(|c| c.get()), 6, "3 rows × 2 columns, once");
    }
}
