//! Cross-crate integration tests: SQL in, exact decimals out, across
//! every execution profile, with the GPU kernel path checked against the
//! scalar reference semantics.

use ultraprecise::prelude::*;
use ultraprecise::up_workloads::{datagen, rsa, tpch, trig};

fn dt(p: u32, s: u32) -> DecimalType {
    DecimalType::new(p, s).unwrap()
}

/// Builds a one-decimal-column database for a profile.
fn column_db(profile: Profile, name: &str, ty: DecimalType, vals: &[UpDecimal]) -> Database {
    let mut db = Database::new(profile);
    db.create_table("t", Schema::new(vec![(name, ColumnType::Decimal(ty))]));
    for v in vals {
        db.insert("t", vec![Value::Decimal(v.clone())]).unwrap();
    }
    db
}

#[test]
fn gpu_projection_matches_cpu_reference_on_random_data() {
    // Query 1 shape (c1+c2+c3) across three scales, LEN 2 and LEN 8.
    for p in [17u32, 70] {
        let tys = [dt(p, 2), dt(p, 2), dt(p, 2)];
        let cols: Vec<Vec<UpDecimal>> = (0..3)
            .map(|c| datagen::random_decimal_column(300, tys[c], 3, true, 100 + c as u64))
            .collect();
        let mut db = Database::new(Profile::UltraPrecise);
        db.create_table(
            "r1",
            Schema::new(vec![
                ("c1", ColumnType::Decimal(tys[0])),
                ("c2", ColumnType::Decimal(tys[1])),
                ("c3", ColumnType::Decimal(tys[2])),
            ]),
        );
        let rows = cols[0].iter().zip(&cols[1]).zip(&cols[2]);
        for ((c1, c2), c3) in rows.clone() {
            db.insert(
                "r1",
                vec![
                    Value::Decimal(c1.clone()),
                    Value::Decimal(c2.clone()),
                    Value::Decimal(c3.clone()),
                ],
            )
            .unwrap();
        }
        let r = db.query("SELECT c1 + c2 + c3 FROM r1").unwrap();
        for (i, ((c1, c2), c3)) in rows.enumerate() {
            let want = c1.add(c2).add(c3);
            let Value::Decimal(got) = &r.rows[i][0] else { panic!() };
            assert_eq!(got.cmp_value(&want), std::cmp::Ordering::Equal, "p={p} row={i}");
        }
    }
}

#[test]
fn sum_aggregation_is_exact_at_every_paper_precision() {
    // Query 3's precision/scale series: (11,7) … (281,101) — Fig. 14(a).
    for (p, s) in [(11, 7), (29, 11), (65, 31), (137, 51), (281, 101)] {
        let ty = dt(p, s);
        let vals = datagen::random_decimal_column(500, ty, 4, true, p as u64);
        let db = column_db(Profile::UltraPrecise, "c1", ty, &vals);
        let r = db.query("SELECT SUM(c1) FROM t").unwrap();
        // Manual exact sum.
        let out_ty = ty.sum_result(500);
        let mut acc = ultraprecise::up_num::BigInt::zero();
        for v in &vals {
            acc = acc.add(&v.align_up(out_ty.scale));
        }
        let want = UpDecimal::from_parts_unchecked(acc, out_ty);
        let Value::Decimal(got) = &r.rows[0][0] else { panic!() };
        assert_eq!(got.cmp_value(&want), std::cmp::Ordering::Equal, "({p},{s})");
        assert_eq!(got.dtype(), out_ty, "SUM widens per §III-B3");
    }
}

#[test]
fn arbitrary_precision_profiles_agree_with_each_other() {
    let ty = dt(30, 6);
    let vals = datagen::random_decimal_column(120, ty, 3, true, 77);
    let mut reference: Option<Vec<String>> = None;
    for profile in [Profile::UltraPrecise, Profile::PostgresLike, Profile::H2Like, Profile::CockroachLike] {
        let db = column_db(profile, "c1", ty, &vals);
        let r = db.query("SELECT c1 * c1 - c1 FROM t").unwrap();
        let got: Vec<String> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                // Normalize scale differences across systems via value
                // comparison at a canonical scale.
                Value::Decimal(d) => d.cast(dt(70, 12)).unwrap().to_string(),
                other => panic!("{other:?}"),
            })
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{}", profile.name()),
        }
    }
}

#[test]
fn limited_systems_fail_exactly_where_the_paper_says() {
    // Fig. 8: HEAVY.AI only LEN 2; MonetDB/RateupDB ≤ LEN 4 (p ≤ 38/36).
    // A 3-term add widens the result by 2 digits (§III-B3), so a column
    // of precision p yields a result of p+2 — size the columns for the
    // result, as the paper's Query 1 setup does.
    let cases = [
        (Profile::HeavyAiLike, 16, true),   // result 18 = the cap
        (Profile::HeavyAiLike, 35, false),  // result 37 → type too wide
        (Profile::MonetLike, 36, true),     // result 38 = the cap
        (Profile::MonetLike, 70, false),
        (Profile::RateupLike, 34, true),    // result 36 = the cap
        (Profile::RateupLike, 70, false),
    ];
    for (profile, p, should_work) in cases {
        let ty = dt(p, 2);
        let vals = datagen::random_decimal_column(50, ty, 4, true, p as u64 + 1000);
        let db = column_db(profile, "c1", ty, &vals);
        let r = db.query("SELECT c1 + c1 + c1 FROM t");
        assert_eq!(
            r.is_ok(),
            should_work,
            "{} at p={p}: {:?}",
            profile.name(),
            r.err()
        );
    }
}

#[test]
fn rsa_query_matches_modular_exponentiation() {
    let w = rsa::build(17, 150, 5);
    let mut db = Database::new(Profile::UltraPrecise);
    db.create_table("r4", Schema::new(vec![("c1", ColumnType::Decimal(w.msg_ty))]));
    for m in &w.messages {
        db.insert("r4", vec![Value::Decimal(m.clone())]).unwrap();
    }
    let r = db.query(&rsa::query4_sql(&w.key.n)).unwrap();
    let truth = rsa::ground_truth(&w);
    for (row, want) in r.rows.iter().zip(&truth) {
        let Value::Decimal(got) = &row[0] else { panic!() };
        assert_eq!(&got.unscaled().abs(), want);
    }
}

#[test]
fn taylor_series_error_collapses_with_terms() {
    let ty = trig::radian_type();
    let radians = datagen::normal_radian_column(60, ty, 0.78, 0.01, 21);
    let truth: Vec<UpDecimal> = radians.iter().map(|x| trig::sin_ground_truth(x, 120)).collect();
    // Build under the r5 name the SQL generator expects.
    let mut db5 = Database::new(Profile::UltraPrecise);
    db5.create_table("r5", Schema::new(vec![("c2", ColumnType::Decimal(ty))]));
    for x in &radians {
        db5.insert("r5", vec![Value::Decimal(x.clone())]).unwrap();
    }
    let mut last_mae = f64::INFINITY;
    for terms in [2u32, 4, 6, 8] {
        let r = db5.query(&trig::taylor_sql("c2", terms)).unwrap();
        let approx: Vec<UpDecimal> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Decimal(d) => d.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let mae = trig::mean_absolute_error(&approx, &truth);
        assert!(mae < last_mae / 10.0, "terms={terms}: {mae} !< {last_mae}/10");
        last_mae = mae;
    }
    assert!(last_mae < 1e-15);
}

#[test]
fn tpch_q1_is_identical_across_exact_profiles() {
    let cfg = tpch::TpchConfig { lineitem_rows: 800, seed: 12, extended_precision: None };
    let mut results = Vec::new();
    for profile in [Profile::UltraPrecise, Profile::PostgresLike] {
        let mut db = Database::new(profile);
        tpch::load(&mut db, cfg);
        let r = db.query(tpch::q1_sql()).unwrap();
        let rendered: Vec<Vec<f64>> = r
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Decimal(d) => d.to_f64(),
                        Value::Int64(n) => *n as f64,
                        Value::Str(_) => 0.0,
                        other => panic!("{other:?}"),
                    })
                    .collect()
            })
            .collect();
        results.push(rendered);
    }
    assert_eq!(results[0].len(), results[1].len());
    for (a, b) in results[0].iter().zip(&results[1]) {
        for (x, y) in a.iter().zip(b) {
            let tol = 1e-9 * x.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }
}

#[test]
fn modeled_times_have_the_papers_structure() {
    // GPU profile has PCIe+compile+kernel; CPU profile has cpu; MonetDB
    // excludes the scan.
    let ty = dt(20, 4);
    let vals = datagen::random_decimal_column(400, ty, 3, true, 31);

    let gpu = column_db(Profile::UltraPrecise, "c1", ty, &vals);
    let rg = gpu.query("SELECT c1 + c1 FROM t").unwrap();
    assert!(rg.modeled.compile_s > 0.0 && rg.modeled.kernel_s > 0.0 && rg.modeled.pcie_s > 0.0);
    assert!(rg.modeled.scan_s > 0.0);

    let pg = column_db(Profile::PostgresLike, "c1", ty, &vals);
    let rp = pg.query("SELECT c1 + c1 FROM t").unwrap();
    assert_eq!(rp.modeled.compile_s, 0.0);
    assert_eq!(rp.modeled.kernel_s, 0.0);
    assert!(rp.modeled.cpu_s > 0.0);
    assert!(rp.modeled.scan_s > 0.0);

    let monet = column_db(Profile::MonetLike, "c1", ty, &vals);
    let rm = monet.query("SELECT c1 + c1 FROM t").unwrap();
    assert_eq!(rm.modeled.scan_s, 0.0, "MonetDB is measured in-memory (§IV)");
}
