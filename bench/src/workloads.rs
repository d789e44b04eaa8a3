//! The five workloads: seeded tables, statements, and their oracles.
//!
//! A workload is generated from `--seed` before anything is timed; the
//! stack under test only ever sees the generated rows and SQL text.
//! Statement `i` of the run is `Workload::stmt(i)`; caller `c` of `n`
//! issues statements `c, c+n, c+2n, …`, so the order is fixed by the
//! seed, not by timing.

use crate::oracle::{to_soft, Filter, Item, Op, RefExpr, Select};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;
use up_baselines::soft_decimal::SoftDecimal;
use up_engine::{ColumnData, ColumnType, Database, Profile, Value};
use up_num::{BigInt, DecimalType};
use up_workloads::{datagen, rsa, tpch};

/// One pre-generated table: what `setup` loads, plus the reference view
/// the oracle reads.
pub struct TableData {
    pub name: &'static str,
    pub cols: Vec<(String, ColumnType)>,
    /// The column names alone, for rendering SQL.
    pub col_names: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub soft: Vec<Vec<SoftDecimal>>,
}

impl TableData {
    fn new(
        name: &'static str,
        cols: Vec<(String, ColumnType)>,
        rows: Vec<Vec<Value>>,
    ) -> TableData {
        let soft = rows
            .iter()
            .map(|r| r.iter().map(to_soft).collect())
            .collect();
        let col_names = cols.iter().map(|(n, _)| n.clone()).collect();
        TableData {
            name,
            cols,
            col_names,
            rows,
            soft,
        }
    }

    /// A table of decimal columns `names[i] DECIMAL(tys[i])`, each filled
    /// from its own seeded stream.
    fn decimals(
        name: &'static str,
        n: usize,
        cols: &[(&str, DecimalType)],
        headroom: u32,
        signed: bool,
        seed: u64,
    ) -> TableData {
        let data: Vec<_> = cols
            .iter()
            .enumerate()
            .map(|(i, (_, ty))| {
                datagen::random_decimal_column(n, *ty, headroom, signed, mix(seed, i as u64))
            })
            .collect();
        let rows = (0..n)
            .map(|r| data.iter().map(|c| Value::Decimal(c[r].clone())).collect())
            .collect();
        let cols = cols
            .iter()
            .map(|(n, ty)| (n.to_string(), ColumnType::Decimal(*ty)))
            .collect();
        TableData::new(name, cols, rows)
    }
}

/// What a correct reply looks like.
#[derive(Clone)]
pub enum Expected {
    /// Exactly these rendered cells.
    Rows(Arc<Vec<Vec<String>>>),
    /// `wire_ingest`: `[SUM, COUNT(*)]` where COUNT names the visible
    /// prefix and SUM must be that prefix's sum (`Ingest::prefix[which]`).
    Prefix(usize),
}

/// One statement of a workload.
#[derive(Clone)]
pub struct Stmt {
    pub sql: String,
    /// Statements of one class cost the same; per-layer numbers are
    /// medians within a class, averaged over classes.
    pub class: usize,
    pub table: usize,
    pub select: Select,
    pub expected: Expected,
}

/// The `wire_ingest` writer's plan and the oracle for what readers may see.
pub struct Ingest {
    pub table: &'static str,
    pub base_rows: usize,
    pub batch_rows: usize,
    pub period: Duration,
    /// A batch finishing this long after its due time is a failed operation.
    pub late_after: Duration,
    pub batches: Vec<Vec<Vec<Value>>>,
    /// `prefix[which][j]` = rendered SUM over the base rows plus `j` batches.
    pub prefix: [Vec<String>; 2],
}

impl Ingest {
    /// The expected SUM cell for a reply that saw `count` rows, or `None`
    /// when no batch boundary has that many rows (a torn snapshot).
    pub fn expected_sum(&self, which: usize, count: usize) -> Option<&str> {
        let extra = count.checked_sub(self.base_rows)?;
        if extra % self.batch_rows != 0 {
            return None;
        }
        self.prefix[which]
            .get(extra / self.batch_rows)
            .map(String::as_str)
    }
}

/// `wire_cold`'s statement generator: every statement a new signature.
pub struct Cold {
    shapes: Vec<Shape>,
    offset: usize,
}

/// One expression shape: a signed sum of products. The shape fixes which
/// columns and how many literal digits appear, so its cost does not
/// depend on the run seed; the seed picks the digits.
struct Shape {
    terms: Vec<(Op, Vec<Factor>)>,
}

#[derive(Clone, Copy)]
enum Factor {
    Col(usize),
    Lit { int_digits: u32, frac_digits: u32 },
}

/// The shape table is part of the benchmark's definition, not of a run:
/// the same 40 shapes for every `--seed`, so a 40-aligned block of
/// statements always holds the same multiset of kernels.
const SHAPE_SEED: u64 = 0x5ca1_ab1e;
pub const COLD_SHAPES: usize = 40;
const COLD_TYPES: [(u32, u32); 4] = [(16, 2), (30, 4), (60, 6), (12, 0)];

impl Cold {
    fn new(seed: u64) -> Cold {
        let mut r = StdRng::seed_from_u64(SHAPE_SEED);
        let shapes = (0..COLD_SHAPES)
            .map(|k| {
                // 3..=8 operators, one of them the trailing unique literal.
                let mut left = 2 + k % 6;
                let mut terms = vec![(Op::Add, vec![Factor::Col(r.gen_range(0..4))])];
                while left > 0 {
                    let cur = terms.last_mut().expect("at least one term");
                    let cols = cur.1.iter().filter(|f| matches!(f, Factor::Col(_))).count();
                    if cur.1.len() < 3 && r.gen_bool(0.5) {
                        cur.1.push(if cols < 2 && r.gen_bool(0.6) {
                            Factor::Col(r.gen_range(0..4))
                        } else {
                            Factor::Lit {
                                int_digits: r.gen_range(1..=2),
                                frac_digits: r.gen_range(0..=3),
                            }
                        });
                    } else {
                        let op = if r.gen_bool(0.5) { Op::Add } else { Op::Sub };
                        terms.push((op, vec![Factor::Col(r.gen_range(0..4))]));
                    }
                    left -= 1;
                }
                Shape { terms }
            })
            .collect();
        Cold {
            shapes,
            offset: (seed % COLD_SHAPES as u64) as usize,
        }
    }

    fn class_of(&self, i: u64) -> usize {
        (i as usize + self.offset) % COLD_SHAPES
    }

    /// Statement `i`: shape `class_of(i)`, literal digits from
    /// `(seed, i)`, and a trailing additive literal no other statement
    /// of the run carries, so its kernel signature is new.
    fn expr(&self, seed: u64, i: u64) -> RefExpr {
        let mut r = StdRng::seed_from_u64(mix(seed, i));
        let shape = &self.shapes[self.class_of(i)];
        let mut acc: Option<RefExpr> = None;
        for (op, factors) in &shape.terms {
            let mut term: Option<RefExpr> = None;
            for f in factors {
                let leaf = match *f {
                    Factor::Col(c) => RefExpr::Col(c),
                    Factor::Lit {
                        int_digits,
                        frac_digits,
                    } => {
                        // Leading digit 2..=9: never 0, 1 or a power of
                        // ten, which constant folding would shortcut.
                        let mut s = r.gen_range(2..=9u32).to_string();
                        for _ in 1..int_digits {
                            s.push(char::from_digit(r.gen_range(0..=9), 10).expect("digit"));
                        }
                        if frac_digits > 0 {
                            s.push('.');
                            for _ in 0..frac_digits {
                                s.push(char::from_digit(r.gen_range(1..=9), 10).expect("digit"));
                            }
                        }
                        RefExpr::Lit(s)
                    }
                };
                term = Some(match term {
                    None => leaf,
                    Some(t) => RefExpr::bin(Op::Mul, t, leaf),
                });
            }
            let term = term.expect("terms are non-empty");
            acc = Some(match acc {
                None => term,
                Some(a) => RefExpr::bin(*op, a, term),
            });
        }
        let unique = RefExpr::Lit(format!("{}.5", 1_000_000 + i));
        RefExpr::bin(Op::Add, acc.expect("shapes are non-empty"), unique)
    }
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub tables: Vec<TableData>,
    /// The distinct warm statements (class = index). Empty for `wire_cold`.
    pub warm: Vec<Stmt>,
    /// Seeded cyclic order over `warm`: a concatenation of permutations,
    /// so every window of `warm.len()` statements holds each class once.
    order: Vec<u8>,
    pub cold: Option<Cold>,
    pub ingest: Option<Ingest>,
    /// Closed-loop wire callers, one query in flight each.
    pub callers: usize,
    /// Statements of the serial in-process replay (simulated clock, exact
    /// engine/JIT counts).
    pub replay_len: usize,
    /// Statements of the traced walk that feed the exact simulator counts.
    pub trace_len: usize,
    /// Sizes worth printing in the provenance block.
    pub note: String,
}

pub const NAMES: [&str; 5] = [
    "wire_point",
    "wire_scan",
    "wire_bignum",
    "wire_cold",
    "wire_ingest",
];

/// SplitMix64 finalizer: independent sub-seeds from `(seed, stream)`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn dt(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

fn col(i: usize) -> RefExpr {
    RefExpr::Col(i)
}

impl Workload {
    /// Generates workload `name` from `seed`. `horizon` bounds how long
    /// the ingest writer may have to run (warm-up + window); `smoke`
    /// shrinks the fixed-length passes for the schema self-test.
    pub fn generate(name: &str, seed: u64, horizon: Duration, smoke: bool) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let mut w = Workload {
            name,
            seed,
            tables: Vec::new(),
            warm: Vec::new(),
            order: Vec::new(),
            cold: None,
            ingest: None,
            callers: 2,
            replay_len: if smoke { 24 } else { 200 },
            trace_len: 24,
            note: String::new(),
        };
        match name {
            "wire_point" => w.point(),
            "wire_scan" => w.scan(),
            "wire_bignum" => w.bignum(),
            "wire_cold" => w.cold(smoke),
            "wire_ingest" => w.ingest(horizon),
            _ => unreachable!("name checked against NAMES"),
        }
        if smoke {
            w.trace_len = 2 * w.classes();
        }
        if !w.warm.is_empty() {
            let k = w.warm.len();
            let mut r = StdRng::seed_from_u64(mix(seed, 0x0bde));
            for _ in 0..512 {
                let mut perm: Vec<u8> = (0..k as u8).collect();
                for i in (1..k).rev() {
                    perm.swap(i, r.gen_range(0..=i));
                }
                w.order.extend(perm);
            }
        }
        Some(w)
    }

    /// Number of statement classes.
    pub fn classes(&self) -> usize {
        if self.cold.is_some() {
            COLD_SHAPES
        } else {
            self.warm.len()
        }
    }

    /// Statement `i` of the run.
    pub fn stmt(&self, i: u64) -> Cow<'_, Stmt> {
        match &self.cold {
            None => Cow::Borrowed(&self.warm[self.order[i as usize % self.order.len()] as usize]),
            Some(cold) => {
                let t = &self.tables[0];
                let select = Select::of(vec![Item::Proj(cold.expr(self.seed, i))]);
                Cow::Owned(Stmt {
                    sql: select.sql(t.name, &t.col_names),
                    class: cold.class_of(i),
                    table: 0,
                    expected: Expected::Rows(Arc::new(select.expected(&t.rows, &t.soft))),
                    select,
                })
            }
        }
    }

    /// Adds a warm statement over table `table`; its expected cells come
    /// from the reference evaluator unless `expected` overrides them.
    fn warm_stmt(
        &mut self,
        table: usize,
        select: Select,
        sql: Option<String>,
        expected: Option<Expected>,
    ) {
        let t = &self.tables[table];
        let sql = sql.unwrap_or_else(|| select.sql(t.name, &t.col_names));
        let expected =
            expected.unwrap_or_else(|| Expected::Rows(Arc::new(select.expected(&t.rows, &t.soft))));
        self.warm.push(Stmt {
            sql,
            class: self.warm.len(),
            table,
            select,
            expected,
        });
    }

    /// `acct`: 256 rows × 3 DECIMAL(16,2). Six cheap statements: the
    /// simulator launches at most one 256-tuple LEN-2 kernel, so framing,
    /// reactor wake-ups, admission and the JIT cache *hit* dominate.
    fn point(&mut self) {
        let t = dt(16, 2);
        self.tables.push(TableData::decimals(
            "acct",
            256,
            &[("c1", t), ("c2", t), ("c3", t)],
            3,
            true,
            mix(self.seed, 1),
        ));
        let add = |a, b| RefExpr::bin(Op::Add, a, b);
        let sub = |a, b| RefExpr::bin(Op::Sub, a, b);
        let mul = |a, b| RefExpr::bin(Op::Mul, a, b);
        for select in [
            Select::of(vec![Item::Proj(add(col(0), col(1)))])
                .filter(Filter::Positive(0))
                .limit(8),
            Select::of(vec![Item::Sum(sub(col(0), col(2)))]),
            Select::of(vec![Item::Proj(add(mul(col(0), col(1)), col(2)))]).limit(4),
            Select::of(vec![Item::CountStar, Item::Sum(add(col(1), col(2)))]),
            Select::of(vec![Item::Sum(mul(col(1), col(2)))]),
            Select::of(vec![Item::Proj(sub(col(2), col(0)))])
                .filter(Filter::Positive(1))
                .limit(8),
        ] {
            self.warm_stmt(0, select, None, None);
        }
        self.trace_len = 240;
    }

    /// `r1`: 4096 rows at LEN 8. Full projections with ~300 KB replies:
    /// simulator host time on the memory/codec path, row render, `Rows`
    /// encode and the socket write dominate.
    fn scan(&mut self) {
        let (a, b) = (dt(74, 2), dt(75, 6));
        self.tables.push(TableData::decimals(
            "r1",
            4096,
            &[("c1", a), ("c2", a), ("c3", a), ("c4", b)],
            3,
            true,
            mix(self.seed, 2),
        ));
        let add = |a, b| RefExpr::bin(Op::Add, a, b);
        for select in [
            // fig08's Query 1.
            Select::of(vec![Item::Proj(add(add(col(0), col(1)), col(2)))]),
            // Mismatched scales: the §III-D alignment codec (fig10).
            Select::of(vec![Item::Proj(add(col(0), col(3)))]),
            Select::of(vec![Item::Proj(RefExpr::bin(Op::Sub, col(0), col(1)))])
                .filter(Filter::Positive(2)),
        ] {
            self.warm_stmt(0, select, None, None);
        }
    }

    /// Wide multiply/divide/modulo with 1–6-row replies: RSA Query 4
    /// under a SUM, TPC-H Q1 at LEN 32, and `SUM(a*b)` / `SUM(a/b)` at
    /// LEN 8→16. Row counts are sized so the four statements cost about
    /// the same in-process (see bench/README.md).
    fn bignum(&mut self) {
        // r4: c1³ mod N, message precision 143.
        let w = rsa::build(143, RSA_ROWS, mix(self.seed, 3));
        let n = w.key.n.to_string();
        let rows = w
            .messages
            .iter()
            .map(|m| vec![Value::Decimal(m.clone())])
            .collect();
        let cols = vec![("c1".to_string(), ColumnType::Decimal(w.msg_ty))];
        self.tables.push(TableData::new("r4", cols, rows));
        let lit = || RefExpr::Lit(n.clone());
        let sq = RefExpr::bin(Op::Mod, RefExpr::bin(Op::Mul, col(0), col(0)), lit());
        let q4 = RefExpr::bin(Op::Mod, RefExpr::bin(Op::Mul, sq, col(0)), lit());
        let truth = rsa::ground_truth(&w)
            .iter()
            .fold(BigInt::zero(), |acc, c| acc.add(c));
        self.warm_stmt(
            0,
            Select::of(vec![Item::Sum(q4)]),
            None,
            Some(Expected::Rows(Arc::new(vec![vec![truth.to_string()]]))),
        );

        // lineitem at LEN 32, generated once by the TPC-H loader and
        // copied out so `setup` only loads rows.
        let mut scratch = Database::new(Profile::UltraPrecise);
        tpch::load(
            &mut scratch,
            tpch::TpchConfig {
                lineitem_rows: Q1_ROWS,
                seed: mix(self.seed, 4),
                extended_precision: Some(Q1_PRECISION),
            },
        );
        let li = scratch.table("lineitem").expect("loader creates lineitem");
        let cols: Vec<(String, ColumnType)> = li
            .schema
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        let rows = (0..li.rows)
            .map(|r| {
                li.columns
                    .iter()
                    .map(|c| match c {
                        ColumnData::Decimal { .. } => Value::Decimal(c.get_decimal(r)),
                        ColumnData::Int64(v) => Value::Int64(v[r]),
                        ColumnData::Float64(v) => Value::Float64(v[r]),
                        ColumnData::Str(v) => Value::Str(v[r].clone()),
                    })
                    .collect()
            })
            .collect();
        drop(li);
        self.tables.push(TableData::new("lineitem", cols, rows));
        let li = &self.tables[1];
        let ix = |name: &str| {
            li.cols
                .iter()
                .position(|(n, _)| n == name)
                .expect("lineitem column")
        };
        let (qty, price, disc, tax) = (
            ix("l_quantity"),
            ix("l_extendedprice"),
            ix("l_discount"),
            ix("l_tax"),
        );
        let one = || RefExpr::Lit("1".into());
        let disc_price =
            || RefExpr::bin(Op::Mul, col(price), RefExpr::bin(Op::Sub, one(), col(disc)));
        let charge = RefExpr::bin(
            Op::Mul,
            disc_price(),
            RefExpr::bin(Op::Add, one(), col(tax)),
        );
        let q1 = Select {
            items: vec![
                Item::Key(ix("l_returnflag")),
                Item::Key(ix("l_linestatus")),
                Item::Sum(col(qty)),
                Item::Sum(col(price)),
                Item::Sum(disc_price()),
                Item::Sum(charge),
                Item::Avg(col(qty)),
                Item::Avg(col(price)),
                Item::CountStar,
            ],
            filter: Some(Filter::StrLe(ix("l_shipdate"), "1998-09-02".into())),
            group_by: vec![ix("l_returnflag"), ix("l_linestatus")],
            limit: None,
        };
        self.warm_stmt(1, q1, Some(tpch::q1_sql().to_string()), None);

        // w: LEN-8 operands; a*b lands on LEN 16, a/b runs DivBig.
        let t = dt(70, 2);
        self.tables.push(TableData::decimals(
            "w",
            W_ROWS,
            &[("a", t), ("b", t)],
            1,
            false,
            mix(self.seed, 5),
        ));
        self.warm_stmt(
            2,
            Select::of(vec![Item::Sum(RefExpr::bin(Op::Mul, col(0), col(1)))]),
            None,
            None,
        );
        self.warm_stmt(
            2,
            Select::of(vec![Item::Sum(RefExpr::bin(Op::Div, col(0), col(1)))]),
            None,
            None,
        );
        self.note = format!(
            "r4 {RSA_ROWS} rows, lineitem {Q1_ROWS} rows at precision {Q1_PRECISION}, w {W_ROWS} rows"
        );
    }

    /// `k`: 64 rows × 4 columns of mixed (p, s). No warm statements: every
    /// statement misses the JIT cache, and past 256 statements every miss
    /// evicts.
    fn cold(&mut self, smoke: bool) {
        let cols: Vec<(String, DecimalType)> = COLD_TYPES
            .iter()
            .enumerate()
            .map(|(i, &(p, s))| (format!("c{}", i + 1), dt(p, s)))
            .collect();
        let named: Vec<(&str, DecimalType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        self.tables.push(TableData::decimals(
            "k",
            64,
            &named,
            2,
            true,
            mix(self.seed, 6),
        ));
        self.cold = Some(Cold::new(self.seed));
        // Past the 256-kernel cache bound, so evictions show in the
        // replay's exact counts; a multiple of the shape count, so every
        // seed replays the same multiset of shapes.
        self.replay_len = if smoke { COLD_SHAPES } else { 320 };
        self.trace_len = 6 * COLD_SHAPES;
    }

    /// `led`: 16 384 rows; two readers, one writer appending 16 rows every
    /// 25 ms on a fixed schedule. (The issue had one reader. A single
    /// busy thread on this two-vCPU guest runs at whatever speed the
    /// neighbour on its physical core leaves it, 0.57x to 1.0x; with both
    /// vCPUs busy the workload repeats better, and two readers holding
    /// the table lock are the harder case for the writer anyway.)
    fn ingest(&mut self, horizon: Duration) {
        let (amt, rate) = (dt(16, 2), dt(8, 4));
        let base = 16_384;
        let batch_rows = 16;
        let period = Duration::from_millis(25);
        let n_batches = (horizon.as_secs_f64() / period.as_secs_f64()).ceil() as usize + 8;
        let mut all = TableData::decimals(
            "led",
            base + n_batches * batch_rows,
            &[("amt", amt), ("rate", rate)],
            2,
            true,
            mix(self.seed, 7),
        );
        let selects = [
            Select::of(vec![Item::Sum(col(0)), Item::CountStar]),
            Select::of(vec![
                Item::Sum(RefExpr::bin(Op::Mul, col(0), col(1))),
                Item::CountStar,
            ]),
        ];
        // Prefix sums at every batch boundary, by the reference adder.
        let mut prefix: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (which, select) in selects.iter().enumerate() {
            let e = select.items[0].expr().expect("SUM item");
            let mut acc: Option<SoftDecimal> = None;
            for (r, row) in all.soft.iter().enumerate() {
                let v = e.eval(row);
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.add(&v),
                });
                let n = r + 1;
                if n >= base && (n - base) % batch_rows == 0 {
                    prefix[which].push(acc.as_ref().expect("non-empty prefix").to_string());
                }
            }
        }
        let batches = all.rows[base..]
            .chunks(batch_rows)
            .map(<[_]>::to_vec)
            .collect();
        all.rows.truncate(base);
        all.soft.truncate(base);
        self.tables.push(all);
        for (which, select) in selects.into_iter().enumerate() {
            self.warm_stmt(0, select, None, Some(Expected::Prefix(which)));
        }
        self.ingest = Some(Ingest {
            table: "led",
            base_rows: base,
            batch_rows,
            period,
            late_after: Duration::from_secs(1),
            batches,
            prefix,
        });
        self.trace_len = 40;
    }
}

// `wire_bignum` sizes, tuned once so the four statements' warm in-process
// times sit within 1.5× of each other (bench/README.md records the probe).
const RSA_ROWS: usize = 896;
const Q1_ROWS: usize = 896;
const Q1_PRECISION: u32 = 290;
const W_ROWS: usize = 5120;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements() {
        for name in NAMES {
            let a = Workload::generate(name, 7, Duration::from_secs(1), true).unwrap();
            let b = Workload::generate(name, 7, Duration::from_secs(1), true).unwrap();
            for i in 0..50 {
                assert_eq!(a.stmt(i).sql, b.stmt(i).sql, "{name} statement {i}");
            }
        }
    }

    #[test]
    fn cold_statements_never_repeat_and_blocks_share_shapes() {
        let w = Workload::generate("wire_cold", 11, Duration::from_secs(1), true).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..400 {
            assert!(seen.insert(w.stmt(i).sql.clone()), "statement {i} repeats");
        }
        let mut classes: Vec<usize> = (0..COLD_SHAPES as u64).map(|i| w.stmt(i).class).collect();
        classes.sort_unstable();
        assert_eq!(classes, (0..COLD_SHAPES).collect::<Vec<_>>());
    }

    #[test]
    fn ingest_oracle_rejects_torn_counts() {
        let w = Workload::generate("wire_ingest", 3, Duration::from_secs(1), true).unwrap();
        let ing = w.ingest.as_ref().unwrap();
        assert!(ing.expected_sum(0, ing.base_rows).is_some());
        assert!(ing
            .expected_sum(0, ing.base_rows + ing.batch_rows)
            .is_some());
        assert!(ing.expected_sum(0, ing.base_rows + 1).is_none());
        assert!(ing.expected_sum(0, ing.base_rows - 1).is_none());
    }
}
