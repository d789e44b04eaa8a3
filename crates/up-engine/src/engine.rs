//! The database facade: catalog + JIT engine + device + profile, with a
//! one-call SQL entry point.
//!
//! Read-only queries take `&self`: the JIT engine's cache and counters use
//! interior mutability, so one `Database` behind an `Arc`/`RwLock` can
//! serve many concurrent sessions (the `up-server` crate builds exactly
//! that). Only DDL and insert paths — which mutate the catalog — still
//! require `&mut self`.

use crate::exec::{execute, ExecCtx, QueryError, QueryResult};
use crate::plan::plan;
use crate::profiles::Profile;
use crate::sql::parse_select;
use crate::storage::{Catalog, Schema, Table, Value};
use up_gpusim::DeviceConfig;
use up_jit::cache::{CacheStats, JitEngine};
use up_num::NumError;

/// A database instance bound to one execution profile.
pub struct Database {
    catalog: Catalog,
    device: DeviceConfig,
    profile: Profile,
    jit: JitEngine,
    /// TPI for multi-threaded expression evaluation (1 = single-thread
    /// kernels; §IV-C1 sweeps 1/4/8/16/32).
    pub expr_tpi: u32,
    /// Functional-interpreter backend for kernel launches (tree walker
    /// vs. pre-decoded flat programs). Results, stats, and modeled times
    /// are bit-identical across backends. Defaults to
    /// [`Auto`](up_gpusim::ExecBackend::Auto) tier promotion.
    pub exec_backend: up_gpusim::ExecBackend,
}

impl Database {
    /// New database on the A6000-like device.
    pub fn new(profile: Profile) -> Database {
        Database {
            catalog: Catalog::new(),
            device: DeviceConfig::a6000(),
            profile,
            jit: JitEngine::with_defaults(),
            expr_tpi: 1,
            exec_backend: up_gpusim::ExecBackend::default(),
        }
    }

    /// New database with explicit device and JIT options (ablations).
    pub fn with_config(
        profile: Profile,
        device: DeviceConfig,
        jit: JitEngine,
    ) -> Database {
        Database {
            catalog: Catalog::new(),
            device,
            profile,
            jit,
            expr_tpi: 1,
            exec_backend: up_gpusim::ExecBackend::default(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Creates (or replaces) a table. DDL: needs exclusive database
    /// access (the catalog map itself changes).
    pub fn create_table(&mut self, name: &str, schema: Schema) {
        self.catalog.put(Table::new(name, schema));
    }

    /// Appends one row. Takes `&self`: the catalog is lock-striped, so
    /// this only write-locks the target table — inserts into disjoint
    /// tables (and queries over other tables) proceed in parallel.
    pub fn insert(&self, table: &str, row: Vec<Value>) -> Result<(), NumError> {
        self.catalog
            .write(table)
            .unwrap_or_else(|| panic!("unknown table {table}"))
            .push_row(row)
    }

    /// Bulk-appends rows under one per-table write lock.
    pub fn insert_many(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<(), NumError> {
        let mut t = self
            .catalog
            .write(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        for row in rows {
            t.push_row(row)?;
        }
        Ok(())
    }

    /// Write access to one table (workload generators write columns in
    /// bulk). Holds that table's write lock for the guard's lifetime.
    pub fn table_mut(&self, name: &str) -> Option<std::sync::RwLockWriteGuard<'_, Table>> {
        self.catalog.write(name)
    }

    /// Read-only table access (holds the table's read lock).
    pub fn table(&self, name: &str) -> Option<std::sync::RwLockReadGuard<'_, Table>> {
        self.catalog.read(name)
    }

    /// Parses, plans, and executes one `SELECT` under the database's
    /// default profile. Read-only: safe to call from many threads when the
    /// `Database` is behind a shared reference.
    pub fn query(&self, sql: &str) -> Result<QueryResult, QueryError> {
        self.query_as(self.profile, sql)
    }

    /// Executes one `SELECT` under an explicit profile (per-session
    /// profiles in the concurrent service override the default this way).
    pub fn query_as(&self, profile: Profile, sql: &str) -> Result<QueryResult, QueryError> {
        let select = parse_select(sql).map_err(QueryError::Parse)?;
        let plan = plan(&select, &self.catalog).map_err(QueryError::Plan)?;
        let ctx = ExecCtx {
            catalog: &self.catalog,
            profile,
            device: &self.device,
            jit: &self.jit,
            expr_tpi: self.expr_tpi,
            exec_backend: self.exec_backend,
        };
        execute(&plan, &ctx)
    }

    /// The JIT kernel references `sql` would compile under `profile`, in
    /// the exact order execution reaches them (`(signature,
    /// expression)` pairs, duplicates included). Empty when the profile
    /// doesn't route through single-thread JIT kernels. The benchmark's
    /// per-layer trace (`bench/src/trace.rs`) times these compiles apart
    /// from the query that runs them.
    pub fn plan_kernels(
        &self,
        profile: Profile,
        sql: &str,
    ) -> Result<Vec<(String, up_jit::Expr)>, QueryError> {
        let select = parse_select(sql).map_err(QueryError::Parse)?;
        let plan = plan(&select, &self.catalog).map_err(QueryError::Plan)?;
        Ok(crate::exec::plan_kernel_refs(&plan, &self.jit, profile, self.expr_tpi))
    }

    /// JIT kernel-cache statistics (hits, misses, evictions, occupancy).
    pub fn jit_stats(&self) -> CacheStats {
        self.jit.cache_stats()
    }

    /// Renders the bound plan of a query without executing it — which
    /// tables and joins run, how each decimal expression is typed and
    /// routed (JIT kernel vs comparator backend), and what the §III-D
    /// optimizer did to it.
    pub fn explain(&self, sql: &str) -> Result<String, QueryError> {
        use crate::plan::{OutputKind, Scalar};
        use core::fmt::Write as _;
        let select = parse_select(sql).map_err(QueryError::Parse)?;
        let plan = plan(&select, &self.catalog).map_err(QueryError::Plan)?;
        let mut out = String::new();
        let _ = writeln!(out, "profile: {}", self.profile.name());
        let _ = writeln!(out, "scan: {}", plan.tables[0]);
        for (k, edges) in plan.joins.iter().enumerate() {
            let _ = writeln!(
                out,
                "hash join: {} ({} key{})",
                plan.tables[k + 1],
                edges.len(),
                if edges.len() == 1 { "" } else { "s" }
            );
        }
        if plan.filter.is_some() {
            let _ = writeln!(out, "filter: <predicate>");
        }
        if !plan.group_by.is_empty() {
            let _ = writeln!(out, "group by: {} key(s)", plan.group_by.len());
        }
        let describe_scalar = |out: &mut String, name: &str, s: &Scalar| {
            match s {
                Scalar::Decimal { expr, inputs } => {
                    let optimized = self.jit.optimize(expr);
                    let route = if self.profile.uses_jit() {
                        if matches!(optimized, up_jit::Expr::Col { .. } | up_jit::Expr::Const(_)) {
                            "passthrough (no kernel)"
                        } else {
                            "JIT kernel"
                        }
                    } else {
                        "comparator backend"
                    };
                    let _ = writeln!(
                        out,
                        "  {name}: {expr} :: {} → {route} ({} input col{})",
                        expr.dtype(),
                        inputs.len(),
                        if inputs.len() == 1 { "" } else { "s" }
                    );
                    if optimized != *expr {
                        let _ = writeln!(out, "    optimized: {optimized}");
                    }
                }
                Scalar::Cpu(_) => {
                    let _ = writeln!(out, "  {name}: <cpu scalar>");
                }
                Scalar::Case { branches, .. } => {
                    let _ = writeln!(
                        out,
                        "  {name}: CASE with {} branch(es) — predicated execution",
                        branches.len()
                    );
                }
                Scalar::Cast { ty, .. } => {
                    let _ = writeln!(out, "  {name}: CAST → {ty}");
                }
            }
        };
        let _ = writeln!(out, "project:");
        for item in &plan.items {
            match &item.kind {
                OutputKind::Scalar(s) => describe_scalar(&mut out, &item.name, s),
                OutputKind::Agg(f, s) => {
                    let _ = writeln!(out, "  {}: {:?} over:", item.name, f);
                    describe_scalar(&mut out, "    input", s);
                }
                OutputKind::AggCombo { aggs, .. } => {
                    let _ = writeln!(
                        out,
                        "  {}: arithmetic over {} aggregate(s)",
                        item.name,
                        aggs.len()
                    );
                }
                OutputKind::CountStar => {
                    let _ = writeln!(out, "  {}: COUNT(*)", item.name);
                }
                OutputKind::Key(_) => {
                    let _ = writeln!(out, "  {}: group key", item.name);
                }
            }
        }
        if plan.having.is_some() {
            let _ = writeln!(out, "having: <predicate over outputs>");
        }
        if !plan.order_by.is_empty() {
            let _ = writeln!(out, "order by: {} key(s)", plan.order_by.len());
        }
        if let Some(l) = plan.limit {
            let _ = writeln!(out, "limit: {l}");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ColumnType;
    use up_num::{DecimalType, UpDecimal};

    fn dt(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    fn dec(s: &str, p: u32, sc: u32) -> Value {
        Value::Decimal(UpDecimal::parse(s, dt(p, sc)).unwrap())
    }

    fn small_db(profile: Profile) -> Database {
        let mut db = Database::new(profile);
        db.create_table(
            "r",
            Schema::new(vec![
                ("c1", ColumnType::Decimal(dt(4, 2))),
                ("c2", ColumnType::Decimal(dt(4, 1))),
                ("g", ColumnType::Str),
            ]),
        );
        let rows = [
            ("1.23", "1.1", "a"),
            ("-5.00", "2.5", "a"),
            ("99.99", "-9.9", "b"),
            ("0.01", "0.0", "b"),
            ("10.00", "10.0", "a"),
        ];
        for (c1, c2, g) in rows {
            db.insert("r", vec![dec(c1, 4, 2), dec(c2, 4, 1), Value::Str(g.into())])
                .unwrap();
        }
        db
    }

    #[test]
    fn projection_on_gpu_matches_reference() {
        let db = small_db(Profile::UltraPrecise);
        let r = db.query("SELECT c1 + c2 FROM r").unwrap();
        let got: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert_eq!(got, vec!["2.33", "-2.50", "90.09", "0.01", "20.00"]);
        assert_eq!(r.kernels, 1);
        assert!(r.modeled.compile_s > 0.0);
        assert!(r.modeled.kernel_s > 0.0);
        assert!(r.modeled.pcie_s > 0.0);
    }

    #[test]
    fn all_profiles_agree_on_add_values() {
        let mut expected: Option<Vec<f64>> = None;
        for p in [
            Profile::UltraPrecise,
            Profile::RateupLike,
            Profile::HeavyAiLike,
            Profile::MonetLike,
            Profile::PostgresLike,
            Profile::H2Like,
            Profile::CockroachLike,
        ] {
            let db = small_db(p);
            let r = db.query("SELECT c1 + c2 FROM r").unwrap();
            let vals: Vec<f64> = r
                .rows
                .iter()
                .map(|row| match &row[0] {
                    Value::Decimal(d) => d.to_f64(),
                    other => panic!("{other:?}"),
                })
                .collect();
            match &expected {
                None => expected = Some(vals),
                Some(e) => {
                    for (a, b) in e.iter().zip(&vals) {
                        assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", p.name());
                    }
                }
            }
        }
    }

    #[test]
    fn filter_and_order_and_limit() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query("SELECT c1 FROM r WHERE c1 > 0 ORDER BY c1 DESC LIMIT 2")
            .unwrap();
        let got: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert_eq!(got, vec!["99.99", "10.00"]);
    }

    #[test]
    fn group_by_with_sum_and_count() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query("SELECT g, SUM(c1) AS s, COUNT(*) AS n FROM r GROUP BY g ORDER BY g")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].render(), "a");
        assert_eq!(r.rows[0][1].render(), "6.23"); // 1.23 - 5.00 + 10.00
        assert_eq!(r.rows[0][2].render(), "3");
        assert_eq!(r.rows[1][1].render(), "100.00");
    }

    #[test]
    fn global_aggregates() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query("SELECT SUM(c1), MIN(c1), MAX(c1), AVG(c1), COUNT(*) FROM r")
            .unwrap();
        let row = &r.rows[0];
        assert_eq!(row[0].render(), "106.23");
        assert_eq!(row[1].render(), "-5.00");
        assert_eq!(row[2].render(), "99.99");
        // AVG = 106.23 / 5 at scale 2+4.
        assert_eq!(row[3].render(), "21.246000");
        assert_eq!(row[4].render(), "5");
    }

    #[test]
    fn heavyai_rejects_wide_types() {
        let mut db = Database::new(Profile::HeavyAiLike);
        db.create_table("w", Schema::new(vec![("c", ColumnType::Decimal(dt(35, 5)))]));
        db.insert("w", vec![dec("1.00000", 35, 5)]).unwrap();
        let err = db.query("SELECT c + c FROM w").unwrap_err();
        assert!(matches!(err, QueryError::Capability(_)), "{err}");
    }

    #[test]
    fn division_by_zero_aborts_query() {
        let db = small_db(Profile::UltraPrecise);
        let err = db.query("SELECT c1 / c2 FROM r").unwrap_err(); // c2 has a 0.0
        assert!(matches!(err, QueryError::Num(NumError::DivisionByZero)), "{err}");
    }

    #[test]
    fn kernel_cache_reused_across_queries() {
        let db = small_db(Profile::UltraPrecise);
        db.query("SELECT c1 + c2 FROM r").unwrap();
        db.query("SELECT c1 + c2 FROM r").unwrap();
        let s = db.jit_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn joins_work() {
        let mut db = small_db(Profile::UltraPrecise);
        db.create_table(
            "s",
            Schema::new(vec![("g", ColumnType::Str), ("w", ColumnType::Decimal(dt(4, 1)))]),
        );
        db.insert("s", vec![Value::Str("a".into()), dec("2.0", 4, 1)]).unwrap();
        db.insert("s", vec![Value::Str("b".into()), dec("3.0", 4, 1)]).unwrap();
        let r = db
            .query("SELECT SUM(r.c1 * s.w) FROM r JOIN s ON r.g = s.g")
            .unwrap();
        // a-rows: (1.23 - 5.00 + 10.00)*2 = 12.46; b-rows: (99.99+0.01)*3 = 300.
        assert_eq!(r.rows[0][0].render(), "312.460");
    }

    #[test]
    fn double_profile_is_inexact() {
        let mut db = Database::new(Profile::DoubleF64);
        db.create_table("d", Schema::new(vec![("x", ColumnType::Decimal(dt(3, 1)))]));
        for _ in 0..100 {
            db.insert("d", vec![dec("0.1", 3, 1)]).unwrap();
        }
        let r = db.query("SELECT SUM(x + x) FROM d").unwrap();
        let Value::Float64(v) = r.rows[0][0] else { panic!("expected double") };
        assert!((v - 20.0).abs() < 1e-9);
        assert_ne!(v, 20.0, "f64 accumulation should drift");
    }

    #[test]
    fn case_when_predicated_selection() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query(
                "SELECT CASE WHEN g = 'a' THEN c1 ELSE 0 END FROM r ORDER BY 1 DESC LIMIT 2",
            )
            .unwrap();
        // a-rows' c1: 1.23, -5.00, 10.00; others → 0.
        assert_eq!(r.rows[0][0].render(), "10.00");
        assert_eq!(r.rows[1][0].render(), "1.23");
    }

    #[test]
    fn case_sum_counts_like_q12() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query(
                "SELECT SUM(CASE WHEN g = 'a' THEN 1 ELSE 0 END) AS a_cnt,                  SUM(CASE WHEN g = 'b' THEN 1 ELSE 0 END) AS b_cnt FROM r",
            )
            .unwrap();
        assert_eq!(r.rows[0][0].render(), "3");
        assert_eq!(r.rows[0][1].render(), "2");
    }

    #[test]
    fn aggregate_arithmetic_like_q14() {
        let db = small_db(Profile::UltraPrecise);
        // 100 * SUM(a-branch c1)/SUM(c1): a-rows sum 6.23, total 106.23.
        let r = db
            .query(
                "SELECT 100.00 * SUM(CASE WHEN g = 'a' THEN c1 ELSE 0 END) / SUM(c1) FROM r",
            )
            .unwrap();
        let Value::Decimal(d) = &r.rows[0][0] else { panic!("{:?}", r.rows[0][0]) };
        assert!((d.to_f64() - 100.0 * 6.23 / 106.23).abs() < 1e-3, "{d}");
    }

    #[test]
    fn cast_in_projection_and_aggregate() {
        let db = small_db(Profile::UltraPrecise);
        let r = db.query("SELECT CAST(c1 AS DECIMAL(10, 4)) FROM r LIMIT 1").unwrap();
        assert_eq!(r.rows[0][0].render(), "1.2300");
        let r2 = db.query("SELECT SUM(CAST(c1 AS DECIMAL(10, 0))) FROM r").unwrap();
        // rounded per value: 1, -5, 100, 0, 10 → 106
        assert_eq!(r2.rows[0][0].render(), "106");
        // Overflowing cast errors.
        assert!(db.query("SELECT CAST(c1 AS DECIMAL(2, 1)) FROM r").is_err());
    }

    #[test]
    fn sum_divided_by_literal_like_q17() {
        let db = small_db(Profile::UltraPrecise);
        let r = db.query("SELECT SUM(c1) / 7.0 FROM r").unwrap();
        let Value::Decimal(d) = &r.rows[0][0] else { panic!() };
        assert!((d.to_f64() - 106.23 / 7.0).abs() < 1e-4, "{d}");
    }

    #[test]
    fn mt_expression_path_matches_single_thread() {
        // §III-E1: results are independent of TPI; only the work
        // partitioning (and therefore the modeled time) changes.
        let wide = dt(70, 10);
        let make = |tpi: u32| {
            let mut db = Database::new(Profile::UltraPrecise);
            db.expr_tpi = tpi;
            db.create_table("w", Schema::new(vec![("x", ColumnType::Decimal(wide))]));
            for i in 1..=20i64 {
                db.insert(
                    "w",
                    vec![Value::Decimal(
                        UpDecimal::from_scaled_i64(i * 987_654_321, wide).unwrap(),
                    )],
                )
                .unwrap();
            }
            db
        };
        let single = make(1);
        let r1 = single.query("SELECT x * x + x FROM w").unwrap();
        for tpi in [4u32, 8, 32] {
            let mt = make(tpi);
            let r = mt.query("SELECT x * x + x FROM w").unwrap();
            for (a, b) in r1.rows.iter().zip(&r.rows) {
                let (Value::Decimal(x), Value::Decimal(y)) = (&a[0], &b[0]) else { panic!() };
                assert_eq!(x.cmp_value(y), std::cmp::Ordering::Equal, "tpi={tpi}");
            }
            assert!(r.modeled.kernel_s > 0.0);
        }
    }

    #[test]
    fn exec_backend_keeps_results_and_modeled_time_bit_identical() {
        use up_gpusim::ExecBackend;
        // The decoded interpreter must be invisible at the query level:
        // same rows, same modeled times, same kernel attribution as the
        // reference tree walker.
        let wide = dt(40, 4);
        let run = |backend: ExecBackend| {
            let mut db = Database::new(Profile::UltraPrecise);
            db.exec_backend = backend;
            db.create_table("w", Schema::new(vec![("x", ColumnType::Decimal(wide))]));
            let rows = (1..=4096i64).map(|i| {
                vec![Value::Decimal(
                    UpDecimal::from_scaled_i64(i * 987_654_321, wide).unwrap(),
                )]
            });
            db.insert_many("w", rows).unwrap();
            db.query("SELECT x * x + x FROM w").unwrap()
        };
        let oracle = run(ExecBackend::Tree);
        assert_eq!(oracle.tiers.tree, 1, "tree launch attributed");
        for backend in [ExecBackend::Decoded, ExecBackend::Compiled, ExecBackend::Auto] {
            let r = run(backend);
            assert_eq!(oracle.rows.len(), r.rows.len(), "{backend}");
            for (a, b) in oracle.rows.iter().zip(&r.rows) {
                assert_eq!(a[0].render(), b[0].render(), "{backend}");
            }
            assert_eq!(
                oracle.modeled.kernel_s.to_bits(),
                r.modeled.kernel_s.to_bits(),
                "{backend}: modeled kernel time must be bit-equal to tree"
            );
            assert_eq!(r.kernels, oracle.kernels, "{backend}");
            // Tier attribution matches the backend that actually ran.
            match backend {
                ExecBackend::Decoded => assert_eq!(r.tiers.decoded, 1, "{backend}"),
                ExecBackend::Compiled => {
                    assert_eq!(r.tiers.compiled, 1, "{backend}");
                    // Three loads of x and the result's store: the
                    // launch's lowering shape reaches the query result.
                    assert_eq!(r.tiers.fused_codec_runs, 4, "{backend}");
                    assert!(r.tiers.fused_codec_insts > 4 * wide.lb() as u64, "{backend}");
                    // … and so does what liveness pruned: each load keeps
                    // about Lw words and a sign of the ~Lb rows it writes,
                    // and moves words, not bytes.
                    let t = r.tiers;
                    assert!(t.fused_live_rows >= 3 * wide.lw() as u64, "{backend}: {t:?}");
                    assert!(t.fused_pruned_rows > t.fused_live_rows, "{backend}: {t:?}");
                    assert!(t.fused_word_planes >= 4 * (wide.lw() as u64 - 1), "{backend}: {t:?}");
                }
                _ => assert_eq!(r.tiers.total(), 1, "{backend}"),
            }
        }
    }

    #[test]
    fn group_by_decimal_column_uses_decimal_comparison() {
        // §III-A: "for the tuples grouped according to DECIMAL columns …
        // we implement the comparison operators of DECIMAL".
        let mut db = Database::new(Profile::UltraPrecise);
        db.create_table(
            "t",
            Schema::new(vec![("k", ColumnType::Decimal(dt(6, 2))), ("v", ColumnType::Decimal(dt(6, 2)))]),
        );
        for (k, v) in [("1.50", "1.00"), ("1.50", "2.00"), ("-0.25", "4.00"), ("1.50", "3.00")] {
            db.insert("t", vec![dec(k, 6, 2), dec(v, 6, 2)]).unwrap();
        }
        let r = db.query("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].render(), "-0.25");
        assert_eq!(r.rows[1][0].render(), "1.50");
        assert_eq!(r.rows[1][1].render(), "6.00");
        assert_eq!(r.rows[1][2].render(), "3");
    }

    #[test]
    fn having_filters_groups() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query(
                "SELECT g, SUM(c1) AS total FROM r GROUP BY g                  HAVING total > 50 ORDER BY g",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].render(), "b");
        // HAVING over COUNT(*).
        let r2 = db
            .query("SELECT g, COUNT(*) AS n FROM r GROUP BY g HAVING n >= 3")
            .unwrap();
        assert_eq!(r2.rows.len(), 1);
        assert_eq!(r2.rows[0][0].render(), "a");
        // Unknown HAVING column is a plan error.
        assert!(db.query("SELECT g FROM r GROUP BY g HAVING zzz > 1").is_err());
        // So is a string against a number, either way round.
        for having in ["g > 1", "total > 'abc'", "NOT (total > 1 OR g < 2.5)"] {
            let sql = format!("SELECT g, SUM(c1) AS total FROM r GROUP BY g HAVING {having}");
            assert!(matches!(db.query(&sql), Err(QueryError::Plan(_))), "{sql}");
        }
        assert!(db.query("SELECT g, MIN(c1) AS m FROM r GROUP BY g HAVING g >= 'b' AND m < 1.5").is_ok());
        // Where the planner does not type the comparison, the executor
        // answers with an error instead of panicking.
        let err = db.query("SELECT c1 FROM r WHERE g > 1").unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)), "{err}");
    }

    #[test]
    fn count_distinct() {
        let db = small_db(Profile::UltraPrecise);
        let r = db
            .query("SELECT COUNT(DISTINCT g), COUNT(*) FROM r")
            .unwrap();
        assert_eq!(r.rows[0][0].render(), "2");
        assert_eq!(r.rows[0][1].render(), "5");
        // Distinct decimals group by value, not representation.
        let r2 = db.query("SELECT COUNT(DISTINCT c2) FROM r").unwrap();
        // c2 values: 1.1, 2.5, -9.9, 0.0, 10.0 — all distinct.
        assert_eq!(r2.rows[0][0].render(), "5");
    }

    #[test]
    fn explain_describes_routing_and_optimization() {
        let db = small_db(Profile::UltraPrecise);
        let text = db
            .explain("SELECT g, SUM(c1 + 1 + 2) AS s FROM r GROUP BY g HAVING s > 0 ORDER BY g LIMIT 5")
            .unwrap();
        assert!(text.contains("profile: UltraPrecise"), "{text}");
        assert!(text.contains("scan: r"));
        assert!(text.contains("group by: 1 key(s)"));
        assert!(text.contains("JIT kernel"));
        assert!(text.contains("optimized:"), "constant folding should show: {text}");
        assert!(text.contains("having:"));
        assert!(text.contains("limit: 5"));
        // A comparator profile reports its routing.
        let pg = small_db(Profile::PostgresLike);
        let t2 = pg.explain("SELECT c1 + c2 FROM r").unwrap();
        assert!(t2.contains("comparator backend"), "{t2}");
    }

    #[test]
    fn statements_at_the_depth_limit_run_on_a_default_stack() {
        use crate::sql::MAX_EXPR_DEPTH as D;
        let statements = [
            format!("SELECT {}c1{} FROM r", "(".repeat(D), ")".repeat(D)),
            format!("SELECT {}c1 FROM r", "-".repeat(D)),
            format!("SELECT {}c1{} FROM r", "-(".repeat(D / 2), ")".repeat(D / 2)),
            format!("SELECT SUM({}c1) FROM r", "-".repeat(D - 1)),
            format!("SELECT c1 FROM r WHERE {}c1 > 0", "NOT ".repeat(D)),
            format!("SELECT c1 FROM r WHERE {}", vec!["c1 > 0"; D + 1].join(" OR ")),
        ];
        // A spawned thread gets the default 2 MiB stack, like a worker.
        std::thread::spawn(move || {
            let db = small_db(Profile::UltraPrecise);
            for sql in &statements {
                db.query(sql).unwrap_or_else(|e| panic!("{e}: {}", &sql[..40]));
            }
        })
        .join()
        .expect("no stack overflow at the depth limit");
    }

    #[test]
    fn constant_only_projection() {
        let db = small_db(Profile::UltraPrecise);
        let r = db.query("SELECT 1 + 2 FROM r LIMIT 3").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0].render(), "3");
        assert_eq!(r.kernels, 0); // folded away — no kernel generated
    }
}
