//! `DECIMAL(p, s)` type metadata and the paper's type-inference rules.
//!
//! Precision `p` is the total digit count and scale `s` the digits after
//! the decimal point (§I). The word length of the value array follows
//!
//! ```text
//! Lw = ceil(p · log₂10 / 32)          (§III-B)
//! ```
//!
//! and the compact in-memory byte array (sign folded into one bit) follows
//!
//! ```text
//! Lb = ceil((1 + p · log₂10) / 8)     (§III-B, Fig. 4)
//! ```
//!
//! The JIT engine sizes every intermediate result at compile time with the
//! rules of §III-B3, reproduced verbatim in [`DecimalType::add_result`],
//! [`DecimalType::mul_result`], [`DecimalType::div_result`],
//! [`DecimalType::mod_result`], [`DecimalType::sum_result`] and
//! [`DecimalType::avg_divisor`].

use core::fmt;

/// log₂(10), used by the paper's Lw/Lb formulas.
pub const LOG2_10: f64 = core::f64::consts::LOG2_10;

/// Extra fractional digits every division result carries (§III-B3: "the
/// result is guaranteed to have the scale of s₁ + 4 in our framework").
pub const DIV_EXTRA_SCALE: u32 = 4;

/// The `DECIMAL(p, s)` column type: precision (total digits) and scale
/// (digits after the decimal point).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecimalType {
    /// Total number of decimal digits.
    pub precision: u32,
    /// Digits after the decimal point. Scale ≤ precision (we follow the
    /// SQL convention; Oracle's deviation is noted in Table II only).
    pub scale: u32,
}

impl DecimalType {
    /// Creates a type, validating `1 ≤ p` and `s ≤ p`.
    pub fn new(precision: u32, scale: u32) -> Result<Self, crate::NumError> {
        if precision == 0 {
            return Err(crate::NumError::InvalidType { precision, scale, reason: "precision must be ≥ 1" });
        }
        if scale > precision {
            return Err(crate::NumError::InvalidType { precision, scale, reason: "scale must be ≤ precision" });
        }
        Ok(DecimalType { precision, scale })
    }

    /// Creates a type without validation (for trusted constants).
    pub const fn new_unchecked(precision: u32, scale: u32) -> Self {
        DecimalType { precision, scale }
    }

    /// Number of 32-bit words of the word-aligned (register) representation:
    /// `Lw = ceil(p·log₂10 / 32)`. The paper pre-computes these in a
    /// key-value table; we memoize the same way.
    pub fn lw(&self) -> usize {
        lw_for_precision(self.precision)
    }

    /// Number of bytes of the compact (memory) representation:
    /// `Lb = ceil((1 + p·log₂10) / 8)` — one extra bit holds the sign.
    pub fn lb(&self) -> usize {
        lb_for_precision(self.precision)
    }

    /// Digits before the decimal point.
    pub fn int_digits(&self) -> u32 {
        self.precision - self.scale
    }

    /// Result type of `+`/`-` (§III-B3): with s₁ ≥ s₂ the result is
    /// `DECIMAL(max(p₁, p₂ + s₁ − s₂) + 1, s₁)`.
    pub fn add_result(&self, other: &DecimalType) -> DecimalType {
        let (hi, lo) = if self.scale >= other.scale { (self, other) } else { (other, self) };
        let (p1, s1) = (hi.precision, hi.scale);
        let (p2, s2) = (lo.precision, lo.scale);
        DecimalType { precision: p1.max(p2 + s1 - s2) + 1, scale: s1 }
    }

    /// Result type of `×` (§III-B3): `(p₁ + p₂, s₁ + s₂)`.
    pub fn mul_result(&self, other: &DecimalType) -> DecimalType {
        DecimalType { precision: self.precision + other.precision, scale: self.scale + other.scale }
    }

    /// Result type of `÷` (§III-B3): the dividend is pre-multiplied by
    /// `10^(s₂+4)` and the quotient is `DECIMAL(p₁ − p₂ + s₂ + 5, s₁ + 4)`
    /// (integer part bounded by `(p₁−s₁) − (p₂−s₂) + 1`). Clamped so the
    /// precision always admits the scale.
    pub fn div_result(&self, other: &DecimalType) -> DecimalType {
        let scale = self.scale + DIV_EXTRA_SCALE;
        let raw = self.precision as i64 - other.precision as i64 + other.scale as i64 + 5;
        let precision = raw.max(scale as i64 + 1) as u32;
        DecimalType { precision, scale }
    }

    /// Result type of `%` (§III-B3): `(p₂, 0)` — only integer modulo is
    /// supported.
    pub fn mod_result(&self, other: &DecimalType) -> DecimalType {
        DecimalType { precision: other.precision.max(1), scale: 0 }
    }

    /// Result type of `SUM` over `n` tuples (§III-B3): `p + ceil(log₁₀ n)`.
    pub fn sum_result(&self, n: u64) -> DecimalType {
        DecimalType { precision: self.precision + ceil_log10(n), scale: self.scale }
    }

    /// The divisor type `AVG` uses (§III-B3): the tuple count converted to
    /// `DECIMAL(floor(log₁₀ N) + 1, 0)` — i.e. exactly its digit count.
    pub fn avg_divisor(n: u64) -> DecimalType {
        DecimalType { precision: floor_log10(n) + 1, scale: 0 }
    }

    /// Result type of unary negation: unchanged.
    pub fn neg_result(&self) -> DecimalType {
        *self
    }

    /// Smallest type that can represent both inputs' values exactly —
    /// used when typing CASE/comparison coercions.
    pub fn union_type(&self, other: &DecimalType) -> DecimalType {
        let scale = self.scale.max(other.scale);
        let int = self.int_digits().max(other.int_digits());
        DecimalType { precision: int + scale, scale }
    }
}

impl fmt::Display for DecimalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DECIMAL({}, {})", self.precision, self.scale)
    }
}

impl fmt::Debug for DecimalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// `Lw` for a given precision: `ceil(p·log₂10 / 32)` (§III-B).
pub fn lw_for_precision(p: u32) -> usize {
    let bits = (p as f64 * LOG2_10).ceil() as usize;
    bits.div_ceil(32).max(1)
}

/// `Lb` for a given precision: `ceil((1 + p·log₂10) / 8)` (§III-B).
pub fn lb_for_precision(p: u32) -> usize {
    let bits = 1 + (p as f64 * LOG2_10).ceil() as usize;
    bits.div_ceil(8).max(1)
}

/// Largest precision whose magnitude **plus one sign bit** fits `lw`
/// words: `floor((32·Lw − 1) / log₂10)`. The evaluation fixes result
/// precisions to 18/38/76/153/307 for LEN = 2/4/8/16/32 (§IV "Workloads");
/// this function generates exactly that series.
pub fn max_precision_for_lw(lw: usize) -> u32 {
    let p = ((32 * lw - 1) as f64 / LOG2_10).floor() as u32;
    debug_assert!(lw_for_precision(p) <= lw);
    p
}

/// `ceil(log₁₀ n)` for n ≥ 1 (0 maps to 0), as used by the SUM rule.
pub fn ceil_log10(n: u64) -> u32 {
    if n <= 1 {
        return 0;
    }
    let mut d = 0;
    let mut bound: u128 = 1;
    while bound < n as u128 {
        bound *= 10;
        d += 1;
    }
    d
}

/// `floor(log₁₀ n)` for n ≥ 1.
pub fn floor_log10(n: u64) -> u32 {
    debug_assert!(n >= 1);
    let mut d = 0;
    let mut bound: u128 = 10;
    while bound <= n as u128 {
        bound *= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lw_matches_paper_examples() {
        // §III-B2: precision 4 → Lw = 1; expanded precision 6 → still 1.
        assert_eq!(lw_for_precision(4), 1);
        assert_eq!(lw_for_precision(6), 1);
        // §II: a 32-bit word holds at most 9 digits; 64-bit holds 19.
        assert_eq!(lw_for_precision(9), 1);
        assert_eq!(lw_for_precision(10), 2);
        assert_eq!(lw_for_precision(19), 2);
        assert_eq!(lw_for_precision(20), 3);
    }

    #[test]
    fn evaluation_len_series() {
        // §IV "Workloads": precisions 18/38/76/153/307 ↔ LEN 2/4/8/16/32.
        for (p, len) in [(18, 2), (38, 4), (76, 8), (153, 16), (307, 32)] {
            assert_eq!(lw_for_precision(p), len, "p={p}");
            assert_eq!(max_precision_for_lw(len), p, "len={len}");
        }
    }

    #[test]
    fn lb_matches_fig4_example() {
        // Fig. 4: -1.23 in DECIMAL(10, 2) takes 5 bytes compact…
        assert_eq!(lb_for_precision(10), 5);
        // …and 9 bytes word-aligned (2 words + sign byte).
        assert_eq!(lw_for_precision(10) * 4 + 1, 9);
        // Listing 1: DECIMAL(4,2)+DECIMAL(4,1) result precision 6 → Lb = 3.
        assert_eq!(lb_for_precision(6), 3);
        assert_eq!(lb_for_precision(4), 2);
    }

    #[test]
    fn add_rule() {
        // (4,2) + (4,1): s1=2 ≥ s2=1 → (max(4, 4+1)+1, 2) = (6, 2) — the
        // Listing 1 expansion "to avoid potential overflows… expand the
        // precision of the results to 6".
        let a = DecimalType::new_unchecked(4, 2);
        let b = DecimalType::new_unchecked(4, 1);
        assert_eq!(a.add_result(&b), DecimalType::new_unchecked(6, 2));
        assert_eq!(b.add_result(&a), DecimalType::new_unchecked(6, 2)); // symmetric
    }

    #[test]
    fn mul_rule() {
        let a = DecimalType::new_unchecked(12, 5);
        let b = DecimalType::new_unchecked(12, 5);
        assert_eq!(a.mul_result(&b), DecimalType::new_unchecked(24, 10)); // Fig. 6 "×" node
    }

    #[test]
    fn div_rule() {
        let a = DecimalType::new_unchecked(17, 5);
        let b = DecimalType::new_unchecked(14, 2);
        let q = a.div_result(&b);
        assert_eq!(q.scale, 9); // s1 + 4
        assert_eq!(q.precision, 17 - 14 + 2 + 5); // p1 - p2 + s2 + 5 = 10
        // Degenerate case must still admit the scale.
        let tiny = DecimalType::new_unchecked(2, 1);
        let huge = DecimalType::new_unchecked(300, 0);
        let q2 = tiny.div_result(&huge);
        assert!(q2.precision > q2.scale);
    }

    #[test]
    fn mod_rule() {
        let a = DecimalType::new_unchecked(17, 0);
        let n = DecimalType::new_unchecked(18, 0);
        assert_eq!(a.mod_result(&n), DecimalType::new_unchecked(18, 0));
    }

    #[test]
    fn sum_and_avg_rules() {
        let c = DecimalType::new_unchecked(12, 2);
        // 10M tuples → ceil(log10 1e7) = 7 extra digits.
        assert_eq!(c.sum_result(10_000_000), DecimalType::new_unchecked(19, 2));
        assert_eq!(DecimalType::avg_divisor(10_000_000), DecimalType::new_unchecked(8, 0));
    }

    #[test]
    fn log10_helpers() {
        assert_eq!(ceil_log10(1), 0);
        assert_eq!(ceil_log10(10), 1);
        assert_eq!(ceil_log10(11), 2);
        assert_eq!(ceil_log10(10_000_000), 7);
        assert_eq!(floor_log10(1), 0);
        assert_eq!(floor_log10(9), 0);
        assert_eq!(floor_log10(10), 1);
        assert_eq!(floor_log10(10_000_000), 7);
    }

    #[test]
    fn type_validation() {
        assert!(DecimalType::new(0, 0).is_err());
        assert!(DecimalType::new(3, 4).is_err());
        assert!(DecimalType::new(38, 38).is_ok());
    }
}
