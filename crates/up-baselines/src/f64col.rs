//! The DOUBLE path — fast and wrong (Fig. 1).
//!
//! Executing `SELECT SUM(c1+c2)` with `DOUBLE` columns "is very fast but
//! produces incorrect results. Furthermore … the DOUBLE execution results
//! from the two databases are inconsistent" (§I). This module provides
//! that baseline: plain `f64` evaluation plus the two accumulation orders
//! that make PostgreSQL-like and CockroachDB-like engines disagree with
//! each other (sequential vs. pairwise summation), so the Fig. 1 harness
//! can show both the error and the inconsistency.

use up_num::UpDecimal;

/// How an engine accumulates a DOUBLE sum — the source of cross-database
/// inconsistency in Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SumOrder {
    /// Left-to-right sequential accumulation (PostgreSQL-style executor).
    Sequential,
    /// Pairwise/tree reduction (vectorized or distributed executors).
    Pairwise,
}

/// Sums an f64 slice under an accumulation order.
pub fn sum_f64(values: &[f64], order: SumOrder) -> f64 {
    match order {
        SumOrder::Sequential => values.iter().sum(),
        SumOrder::Pairwise => pairwise(values),
    }
}

fn pairwise(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let mid = n / 2;
            pairwise(&v[..mid]) + pairwise(&v[mid..])
        }
    }
}

/// Converts a decimal column to f64 (the lossy cast a DOUBLE schema
/// implies).
pub fn to_f64_column(values: &[UpDecimal]) -> Vec<f64> {
    values.iter().map(UpDecimal::to_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use up_num::DecimalType;

    #[test]
    fn double_sum_is_inexact_where_decimal_is_exact() {
        // 10,000 copies of 0.1: exact sum 1000, f64 drifts.
        let t = DecimalType::new_unchecked(3, 1);
        let dec = vec![UpDecimal::parse("0.1", t).unwrap(); 10_000];
        let doubles = to_f64_column(&dec);
        let s = sum_f64(&doubles, SumOrder::Sequential);
        assert_ne!(s, 1000.0, "f64 should drift");
        assert!((s - 1000.0).abs() < 1e-6);
        // The exact engine gets 1000 exactly.
        let out_ty = t.sum_result(10_000);
        let mut acc = UpDecimal::zero(out_ty);
        for v in &dec {
            acc = UpDecimal::from_parts_unchecked(
                acc.unscaled().add(&v.align_up(out_ty.scale)),
                out_ty,
            );
        }
        assert_eq!(acc.to_string(), format!("1000.{}", "0"));
    }

    #[test]
    fn accumulation_orders_disagree() {
        // A spread of magnitudes makes sequential and pairwise differ —
        // the Fig. 1 "inconsistent results" observation. Sequentially,
        // each +1 is absorbed by the 1e16 accumulator (ULP spacing 2.0);
        // pairwise, the ones combine first and survive.
        let mut values = vec![1e16];
        values.extend(std::iter::repeat_n(1.0, 10_000));
        let seq = sum_f64(&values, SumOrder::Sequential);
        let pair = sum_f64(&values, SumOrder::Pairwise);
        assert_ne!(seq, pair, "orders should disagree on mixed magnitudes");
        assert!((pair - (1e16 + 10_000.0)).abs() <= 16.0);
    }

    #[test]
    fn pairwise_is_exact_on_integers() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(sum_f64(&values, SumOrder::Pairwise), 500_500.0);
        assert_eq!(sum_f64(&values, SumOrder::Sequential), 500_500.0);
    }
}
