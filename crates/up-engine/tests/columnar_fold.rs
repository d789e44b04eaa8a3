//! The columnar host path against a per-value reference.
//!
//! On the UltraPrecise profile an aggregate's input column is compact
//! bytes — a kernel's output buffer, or a stored column borrowed (full
//! scan) or gathered (filtered) — folded by `SumAcc` and `cmp_compact`.
//! Every query here is answered a second time by the plainest possible
//! reference: decode each cell to an `UpDecimal`, fold SUM with
//! `BigInt::add`, take MIN/MAX with `cmp_value`. Cells are compared as
//! `Value`s (type and unscaled integer), not as text. Seeded, so a
//! failure reproduces.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use up_engine::{ColumnData, ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_num::{BigInt, DecimalType, Sign, UpDecimal};

const SEED: u64 = 0x5eed_c01f;

fn ty(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

/// A random value of type `t`: magnitude below `2^bits` for a random
/// `bits ≤ ⌊p·log₂10⌋` (so below `10^p`, with short and zero magnitudes
/// in the mix), sign as asked or random.
fn random_decimal(rng: &mut StdRng, t: DecimalType, negative: Option<bool>) -> UpDecimal {
    let max_bits = (t.precision as f64 * std::f64::consts::LOG2_10).floor() as usize;
    let bits = rng.gen_range(0..=max_bits);
    let mut mag: Vec<u32> = (0..bits.div_ceil(32)).map(|_| rng.next_u32()).collect();
    if bits % 32 != 0 {
        *mag.last_mut().unwrap() &= (1u32 << (bits % 32)) - 1;
    }
    let neg = negative.unwrap_or_else(|| rng.gen_bool(0.5));
    let sign = if neg { Sign::Minus } else { Sign::Plus };
    UpDecimal::from_parts_unchecked(BigInt::from_sign_mag(sign, mag), t)
}

/// `[SUM, AVG, MIN, MAX]` the per-value way; all NULL over nothing.
fn reference(vals: &[UpDecimal]) -> Vec<Value> {
    let Some(first) = vals.first() else {
        return vec![Value::Null; 4];
    };
    let n = vals.len() as u64;
    let total = vals
        .iter()
        .fold(BigInt::zero(), |acc, v| acc.add(v.unscaled()));
    let sum = UpDecimal::from_parts_unchecked(total, first.dtype().sum_result(n));
    let count = UpDecimal::from_parts_unchecked(BigInt::from(n), DecimalType::avg_divisor(n));
    let avg = sum.div(&count).unwrap();
    let min = vals.iter().min_by(|a, b| a.cmp_value(b)).unwrap().clone();
    let max = vals.iter().max_by(|a, b| a.cmp_value(b)).unwrap().clone();
    [sum, avg, min, max].map(Value::Decimal).to_vec()
}

/// Table `t(a, b, g)`: two decimal columns and the group key `i % 3`, so
/// every group's members are non-contiguous.
fn database(a: &[UpDecimal], b: &[UpDecimal]) -> Database {
    let mut db = Database::new(Profile::UltraPrecise);
    db.create_table(
        "t",
        Schema::new(vec![
            ("a", ColumnType::Decimal(a[0].dtype())),
            ("b", ColumnType::Decimal(b[0].dtype())),
            ("g", ColumnType::Int64),
        ]),
    );
    let rows = a.iter().zip(b).enumerate().map(|(i, (x, y))| {
        vec![
            Value::Decimal(x.clone()),
            Value::Decimal(y.clone()),
            Value::Int64(i as i64 % 3),
        ]
    });
    db.insert_many("t", rows).unwrap();
    db
}

const BARE: &str = "SELECT SUM(a), AVG(a), MIN(a), MAX(a) FROM t";
const KERNEL: &str = "SELECT SUM(a + b), AVG(a + b), MIN(a + b), MAX(a + b) FROM t";
const FILTERED: &str = "SELECT SUM(a), AVG(a), MIN(a), MAX(a), COUNT(*) FROM t WHERE g > 0";
const GROUPED: &str =
    "SELECT g, SUM(a + b), AVG(a), MIN(a), MAX(a + b), COUNT(*) FROM t GROUP BY g ORDER BY g";

/// Expected rows of the four statements, in that order.
fn expected(a: &[UpDecimal], b: &[UpDecimal]) -> [Vec<Vec<Value>>; 4] {
    let ab: Vec<UpDecimal> = a.iter().zip(b).map(|(x, y)| x.add(y)).collect();
    let of_group = |vals: &[UpDecimal], keep: &dyn Fn(usize) -> bool| -> Vec<UpDecimal> {
        vals.iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, v)| v.clone())
            .collect()
    };
    let kept = of_group(a, &|i| i % 3 > 0);
    let mut filtered = reference(&kept);
    filtered.push(Value::Int64(kept.len() as i64));
    let grouped = (0..3usize.min(a.len()))
        .map(|g| {
            let (ga, gab) = (of_group(a, &|i| i % 3 == g), of_group(&ab, &|i| i % 3 == g));
            let (ra, rab) = (reference(&ga), reference(&gab));
            vec![
                Value::Int64(g as i64),
                rab[0].clone(),
                ra[1].clone(),
                ra[2].clone(),
                rab[3].clone(),
                Value::Int64(ga.len() as i64),
            ]
        })
        .collect();
    [
        vec![reference(a)],
        vec![reference(&ab)],
        vec![filtered],
        grouped,
    ]
}

/// Runs the four statements, checks their rows, and hands the results on.
fn check_all(db: &Database, a: &[UpDecimal], b: &[UpDecimal], label: &str) -> Vec<QueryResult> {
    let want = expected(a, b);
    [BARE, KERNEL, FILTERED, GROUPED]
        .into_iter()
        .zip(want)
        .map(|(sql, want)| {
            let got = db
                .query(sql)
                .unwrap_or_else(|e| panic!("{label}: {sql}: {e}"));
            assert_eq!(*got.rows, want, "{label}: {sql}");
            got
        })
        .collect()
}

#[test]
fn aggregates_equal_the_reference_at_every_width() {
    let mut rng = StdRng::seed_from_u64(SEED);
    // Input precisions one short of LEN 1 / 2 / 8 / 32, so `a + b` is
    // exactly 9 / 18 / 76 / 307 digits.
    for (p, s, n, len) in [
        (8, 2, 301, 1),
        (17, 4, 301, 2),
        (75, 10, 200, 8),
        (306, 20, 64, 32),
    ] {
        let t = ty(p, s);
        assert_eq!(t.add_result(&t).lw(), len);
        let a: Vec<_> = (0..n).map(|_| random_decimal(&mut rng, t, None)).collect();
        let b: Vec<_> = (0..n).map(|_| random_decimal(&mut rng, t, None)).collect();
        check_all(
            &database(&a, &b),
            &a,
            &b,
            &format!("DECIMAL({p},{s}) x {n}"),
        );
    }
}

#[test]
fn table_ii_maximum_precision_and_scale() {
    // Table II's largest finite envelope (PostgreSQL): 147 455 digits,
    // 16 383 of them after the point — a 61 232-byte cell.
    let t = ty(147_455, 16_383);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let a: Vec<_> = (0..5).map(|_| random_decimal(&mut rng, t, None)).collect();
    let db = database(&a, &a);
    assert_eq!(*db.query(BARE).unwrap().rows, vec![reference(&a)]);
}

#[test]
fn sign_patterns_cancel_and_order_exactly() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let t = ty(30, 6);
    // Exact cancellation: every value beside its negation, interleaved.
    let half: Vec<_> = (0..90)
        .map(|_| random_decimal(&mut rng, t, Some(false)))
        .collect();
    let a: Vec<_> = half.iter().flat_map(|v| [v.clone(), v.neg()]).collect();
    let b: Vec<_> = a.iter().rev().cloned().collect();
    let db = database(&a, &b);
    check_all(&db, &a, &b, "cancellation");
    let Value::Decimal(zero) = &db.query(BARE).unwrap().rows[0][0] else {
        panic!("SUM is a decimal")
    };
    assert!(zero.is_zero());
    assert_eq!(zero.to_string(), "0.000000");

    let a: Vec<_> = (0..100)
        .map(|_| random_decimal(&mut rng, t, Some(true)))
        .collect();
    let b: Vec<_> = (0..100)
        .map(|_| random_decimal(&mut rng, t, Some(true)))
        .collect();
    check_all(&database(&a, &b), &a, &b, "all negative");
}

#[test]
fn a_sign_bit_over_zero_magnitude_is_zero() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let t = ty(20, 4);
    let mut a: Vec<_> = (0..60).map(|_| random_decimal(&mut rng, t, None)).collect();
    let b: Vec<_> = (0..60).map(|_| random_decimal(&mut rng, t, None)).collect();
    let zeros = [0usize, 7, 8, 31, 59];
    for &i in &zeros {
        a[i] = UpDecimal::zero(t);
    }
    let db = database(&a, &b);
    {
        // Storage never writes this pattern; a kernel or a loader may.
        let mut table = db.table_mut("t").unwrap();
        let ColumnData::Decimal { bytes, .. } = &mut table.columns[0] else {
            panic!("decimal")
        };
        for &i in &zeros {
            bytes[(i + 1) * t.lb() - 1] |= 0x80;
        }
    }
    check_all(&db, &a, &b, "negative zero");
    // All-zero column: SUM, MIN and MAX are zero and render without '-'.
    let z = vec![UpDecimal::zero(t); 4];
    let db = database(&z, &z);
    {
        let mut table = db.table_mut("t").unwrap();
        let ColumnData::Decimal { bytes, .. } = &mut table.columns[0] else {
            panic!("decimal")
        };
        for i in [1, 2] {
            bytes[(i + 1) * t.lb() - 1] |= 0x80;
        }
    }
    check_all(&db, &z, &z, "all zero");
    let row = &db
        .query("SELECT SUM(a), MIN(a), MAX(a) FROM t GROUP BY a")
        .unwrap()
        .rows;
    assert_eq!(row.len(), 1, "-0 and 0 are one group");
    assert!(row[0].iter().all(|v| v.render() == "0.0000"), "{row:?}");
}

#[test]
fn empty_selection_is_null_and_one_row_is_itself() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let t = ty(40, 8);
    let a = vec![random_decimal(&mut rng, t, Some(true))];
    let b = vec![random_decimal(&mut rng, t, None)];
    let db = database(&a, &b);
    check_all(&db, &a, &b, "one row"); // FILTERED keeps no row of the one
    let r = db
        .query("SELECT SUM(a + b), AVG(a), MIN(a), MAX(b), COUNT(*), COUNT(DISTINCT a) FROM t WHERE g > 5")
        .unwrap();
    let mut want = vec![Value::Null; 4];
    want.extend([Value::Int64(0), Value::Int64(0)]);
    assert_eq!(*r.rows, vec![want]);
    let r = db
        .query("SELECT g, SUM(a) FROM t WHERE g > 5 GROUP BY g")
        .unwrap();
    assert!(r.rows.is_empty());
}
