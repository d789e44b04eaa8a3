//! The columnar reply encoder against the row-at-a-time one it replaced.
//!
//! A server used to answer a query by rendering every cell
//! (`Value::render`) into `Frame::Rows { rows: Vec<Vec<String>> }` and
//! encoding that; it now writes the frame straight from the result's
//! columns with [`encode_rows`]. Clients, the benchmark's oracle and
//! tenant byte budgets all see those bytes, so the two must agree byte for
//! byte — and in the result-byte figure a tenant is charged — for every
//! result shape the executor produces: kernel output, a borrowed or
//! gathered stored column, per-cell values of every kind, NULLs, and
//! HAVING / ORDER BY / LIMIT row orders over them.

use proptest::prelude::*;
use up_engine::{Column, ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_net::{encode_rows, parse_frame, Frame, DEFAULT_MAX_FRAME};
use up_num::{BigInt, DecimalType, Sign, UpDecimal};

/// Precisions from one digit to LEN 40, around the word boundaries.
const PRECISIONS: [u32; 12] = [1, 2, 9, 10, 18, 19, 38, 76, 77, 154, 308, 380];

/// `(p, s)` with the scale at either limit (0 and p) or in between.
fn arb_type() -> impl Strategy<Value = DecimalType> {
    (0usize..PRECISIONS.len(), 0u32..4, any::<u32>()).prop_map(|(i, pick, any)| {
        let p = PRECISIONS[i];
        let s = [0, p, p.min(2), any % (p + 1)][pick as usize];
        DecimalType::new(p, s).unwrap()
    })
}

/// A cell of type `ty` from raw material: a magnitude of `digits % (p+1)`
/// random digits (0 of them: zero; fewer than the scale: `0.000…`).
fn cell(ty: DecimalType, digits: u32, raw: &[u8], neg: bool) -> Value {
    let text: String = raw
        .iter()
        .cycle()
        .take((digits % (ty.precision + 1)) as usize)
        .map(|b| char::from(b'0' + b % 10))
        .collect();
    let mag = BigInt::parse_dec(&format!("0{text}")).unwrap();
    let sign = if neg { Sign::Minus } else { Sign::Plus };
    let int = BigInt::from_sign_mag(sign, mag.mag().to_vec());
    Value::Decimal(UpDecimal::from_parts(int, ty).unwrap())
}

/// Digit counts of `d0` and `d1`, their digit material, `d0`'s sign
/// (`d1` takes the other); then `i`, `f` in eighths, and which tag `s` is.
type RawRow = ((u32, u32, Vec<u8>, bool), (i64, i64, u8));

fn arb_rows() -> impl Strategy<Value = Vec<RawRow>> {
    let decimals =
        (any::<u32>(), any::<u32>(), prop::collection::vec(any::<u8>(), 1..24), any::<bool>());
    prop::collection::vec((decimals, (-5i64..6, -8_000_000i64..8_000_000, 0u8..4)), 0..10)
}

/// `t(d0, d1, z, i, f, s)`: two decimal columns of the drawn types, a
/// zero column (a negative `d0` times it is a negative zero in the
/// kernel's output), and one column of every other kind.
fn database(t0: DecimalType, t1: DecimalType, rows: &[RawRow]) -> Database {
    let mut db = Database::new(Profile::UltraPrecise);
    let zero = DecimalType::new(1, 0).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![
            ("d0", ColumnType::Decimal(t0)),
            ("d1", ColumnType::Decimal(t1)),
            ("z", ColumnType::Decimal(zero)),
            ("i", ColumnType::Int64),
            ("f", ColumnType::Float64),
            ("s", ColumnType::Str),
        ]),
    );
    let tags = ["", "a", "µ→中", "NULL"];
    db.insert_many(
        "t",
        rows.iter().map(|((n0, n1, raw, neg), (i, f, tag))| {
            vec![
                cell(t0, *n0, raw, *neg),
                cell(t1, *n1, &raw[raw.len() / 2..], !*neg),
                Value::Decimal(UpDecimal::zero(zero)),
                Value::Int64(*i),
                Value::Float64(*f as f64 / 8.0),
                Value::Str(tags[*tag as usize].into()),
            ]
        }),
    )
    .unwrap();
    db
}

const QUERIES: [&str; 11] = [
    // Identity scan: borrowed passthrough, CPU scalars, kernel output.
    "SELECT d0, i, f, s, d0 + d0 AS e FROM t",
    "SELECT i, f, s FROM t",
    // Negative zeros out of the kernel.
    "SELECT d0 * z AS nz, d0 FROM t",
    // `Sel::Rows`: gathered passthrough and kernel inputs.
    "SELECT d0, s, d1 - d0 AS e FROM t WHERE i > 0",
    // Row orders over compact columns.
    "SELECT d0 + d1 AS e, i FROM t ORDER BY e DESC LIMIT 3",
    "SELECT d0 - d1 AS e, s FROM t HAVING e > 0",
    "SELECT d1 AS e, f FROM t HAVING e < 0 ORDER BY e, f DESC LIMIT 2",
    "SELECT d0 FROM t LIMIT 0",
    // Aggregates: per-cell values; NULLs over an empty selection.
    "SELECT SUM(d0), MIN(d1), AVG(d0), COUNT(*), MAX(f), SUM(i) FROM t WHERE i > 1000",
    "SELECT SUM(d0 + d1), MAX(d0), AVG(d1), COUNT(*) FROM t",
    "SELECT s, SUM(d0) AS tot, COUNT(*) FROM t GROUP BY s ORDER BY tot DESC, s",
];

/// Checks one result; returns how many negative-zero cells it carried.
fn check(id: u64, r: &QueryResult, sql: &str) -> Result<usize, TestCaseError> {
    let (frame, bytes) = encode_rows(id, &r.columns, &r.rows, DEFAULT_MAX_FRAME)
        .map_err(|size| TestCaseError::Fail(format!("{sql}: refused at {size} bytes")))?;
    // The row-at-a-time path, as the server ran it before.
    let rendered: Vec<Vec<String>> =
        r.rows.iter().map(|row| row.iter().map(Value::render).collect()).collect();
    let charged: u64 = rendered.iter().flatten().map(|c| c.len() as u64).sum();
    let old = Frame::Rows { id, columns: r.columns.clone(), rows: rendered };
    prop_assert_eq!(&frame, &old.to_bytes(), "{}", sql);
    prop_assert_eq!(bytes, charged, "{}: tenant result bytes", sql);
    prop_assert_eq!(r.rows.len(), r.rows.iter().count(), "{}", sql);
    let (used, decoded) = parse_frame(&frame, DEFAULT_MAX_FRAME).unwrap().unwrap();
    prop_assert_eq!((used, &decoded), (frame.len(), &old), "{}", sql);
    Ok(r.rows
        .columns()
        .iter()
        .map(|c| match c {
            Column::Decimal { ty, bytes } => bytes
                .chunks_exact(ty.lb())
                .filter(|cell| cell[ty.lb() - 1] == 0x80 && cell[..ty.lb() - 1].iter().all(|&b| b == 0))
                .count(),
            Column::Values(_) => 0,
        })
        .sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_encoder_equals_the_rendered_frame(
        t0 in arb_type(),
        t1 in arb_type(),
        rows in arb_rows(),
        id in any::<u64>(),
    ) {
        let db = database(t0, t1, &rows);
        let mut negative_zeros = 0;
        for sql in QUERIES {
            let r = db.query(sql).map_err(|e| TestCaseError::Fail(format!("{sql}: {e}")))?;
            negative_zeros += check(id, &r, sql)?;
        }
        // Every negative `d0` gave `d0 * z` a sign bit over no magnitude.
        let negative = |r: &&RawRow| {
            let (n0, _, raw, neg) = &r.0;
            matches!(cell(t0, *n0, raw, *neg), Value::Decimal(d) if d.unscaled().is_negative())
        };
        prop_assert!(negative_zeros >= rows.iter().filter(negative).count());
    }
}

#[test]
fn a_reply_over_max_frame_is_refused_with_its_size() {
    let ty = DecimalType::new(18, 2).unwrap();
    let rows: Vec<RawRow> = (0..64).map(|k| ((18, 18, vec![k as u8 + 1; 8], false), (1, 4, 1))).collect();
    let db = database(ty, ty, &rows);
    let r = db.query("SELECT d0 + d1, s FROM t").unwrap();
    let (frame, _) = encode_rows(9, &r.columns, &r.rows, DEFAULT_MAX_FRAME).unwrap();
    let payload = frame.len() - 4;
    // Exactly at the limit it goes out; one byte under, it does not, and
    // the size reported is what the peer's decoder would have refused.
    assert!(encode_rows(9, &r.columns, &r.rows, payload as u32).is_ok());
    assert_eq!(encode_rows(9, &r.columns, &r.rows, payload as u32 - 1).unwrap_err(), payload);
    assert!(encode_rows(9, &r.columns, &r.rows, 64).unwrap_err() <= 64 + 2 * 40);
}
