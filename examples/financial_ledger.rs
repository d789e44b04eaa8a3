//! Financial ledger: the exactness motivation from the paper's
//! introduction — "preserving the exactness in banking, stock, and many
//! other financing systems".
//!
//! Posts a ledger of 0.1-style fractions that binary floating point
//! cannot represent, reconciles debits against credits exactly, and then
//! compounds interest at high precision.
//!
//! ```sh
//! cargo run --release --example financial_ledger
//! ```

use ultraprecise::prelude::*;

fn main() {
    let mut db = Database::new(Profile::UltraPrecise);
    let money = DecimalType::new(14, 2).unwrap();
    db.create_table(
        "ledger",
        Schema::new(vec![
            ("account", ColumnType::Str),
            ("debit", ColumnType::Decimal(money)),
            ("credit", ColumnType::Decimal(money)),
        ]),
    );

    // 10,000 postings of 0.10 both ways plus a closing imbalance of one
    // cent — the kind of discrepancy auditors care about and f64 loses.
    for i in 0..10_000 {
        let account = if i % 2 == 0 { "operations" } else { "reserves" };
        db.insert(
            "ledger",
            vec![
                Value::Str(account.to_string()),
                Value::Decimal(UpDecimal::parse("0.10", money).unwrap()),
                Value::Decimal(UpDecimal::parse("0.10", money).unwrap()),
            ],
        )
        .unwrap();
    }
    db.insert(
        "ledger",
        vec![
            Value::Str("operations".to_string()),
            Value::Decimal(UpDecimal::parse("0.01", money).unwrap()),
            Value::Decimal(UpDecimal::parse("0.00", money).unwrap()),
        ],
    )
    .unwrap();

    let r = db
        .query(
            "SELECT account, SUM(debit - credit) AS imbalance FROM ledger \
             GROUP BY account ORDER BY account",
        )
        .unwrap();
    println!("Ledger reconciliation (exact):");
    for row in &r.rows {
        println!("  {:<12} {:>8}", row[0].render(), row[1].render());
    }
    println!("  → the one-cent discrepancy is found exactly, not as 0.009999…\n");

    // The same reconciliation on the DOUBLE profile: the imbalance drifts.
    let mut dbl = Database::new(Profile::DoubleF64);
    dbl.create_table(
        "ledger",
        Schema::new(vec![
            ("account", ColumnType::Str),
            ("debit", ColumnType::Decimal(money)),
            ("credit", ColumnType::Decimal(money)),
        ]),
    );
    for i in 0..10_000 {
        let account = if i % 2 == 0 { "operations" } else { "reserves" };
        dbl.insert(
            "ledger",
            vec![
                Value::Str(account.to_string()),
                Value::Decimal(UpDecimal::parse("0.10", money).unwrap()),
                Value::Decimal(UpDecimal::parse("0.10", money).unwrap()),
            ],
        )
        .unwrap();
    }
    dbl.insert(
        "ledger",
        vec![
            Value::Str("operations".to_string()),
            Value::Decimal(UpDecimal::parse("0.01", money).unwrap()),
            Value::Decimal(UpDecimal::parse("0.00", money).unwrap()),
        ],
    )
    .unwrap();
    let rd = dbl
        .query(
            "SELECT account, SUM(debit - credit) AS imbalance FROM ledger \
             GROUP BY account ORDER BY account",
        )
        .unwrap();
    println!("Same query through a DOUBLE engine:");
    for row in &rd.rows {
        println!("  {:<12} {:>24}", row[0].render(), row[1].render());
    }

    // High-precision compounding: daily interest at a 9-digit daily rate
    // over a year, exact to the last digit — needs precision no 64-bit
    // decimal offers.
    println!("\nCompounding 1,000,000.00 at 0.000137174 daily for 8 periods (exact):");
    let mut compound = Database::new(Profile::UltraPrecise);
    let wide = DecimalType::new(120, 80).unwrap();
    compound.create_table("pos", Schema::new(vec![("principal", ColumnType::Decimal(wide))]));
    compound
        .insert(
            "pos",
            vec![Value::Decimal(UpDecimal::parse("1000000.00", wide).unwrap())],
        )
        .unwrap();
    // (1 + r)^8 expanded as a product expression — every factor exact.
    let factor = "1.000137174";
    let expr = [factor; 8].join(" * ");
    let q = format!("SELECT principal * {expr} FROM pos");
    let rc = compound.query(&q).unwrap();
    println!("  final position = {}", rc.rows[0][0].render());
    println!("  (all digits significant; a DOUBLE keeps only ~16 of them)");
}
