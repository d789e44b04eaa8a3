//! The fixed-point decimal value: an unscaled [`BigInt`] plus a
//! [`DecimalType`].
//!
//! `1.23` in `DECIMAL(4, 2)` is stored as the integer `123` (§III-B); all
//! arithmetic is integer arithmetic after scale alignment (§II-B). The
//! operations here implement the exact semantics the JIT-generated kernels
//! compute on the GPU, and serve as the host-side reference the simulator
//! is validated against.

use crate::bigint::{BigInt, Sign};
use crate::dtype::{DecimalType, DIV_EXTRA_SCALE};
use crate::NumError;
use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision fixed-point decimal value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct UpDecimal {
    ty: DecimalType,
    /// The unscaled integer: value = int · 10^(−scale).
    int: BigInt,
}

impl UpDecimal {
    /// Wraps an unscaled integer as `DECIMAL(p, s)`.
    ///
    /// Returns [`NumError::Overflow`] if the integer needs more than `p`
    /// digits.
    pub fn from_parts(int: BigInt, ty: DecimalType) -> Result<Self, NumError> {
        if !int.is_zero() && int.dec_digits() > ty.precision {
            return Err(NumError::Overflow {
                ty,
                digits: int.dec_digits(),
            });
        }
        Ok(UpDecimal { ty, int })
    }

    /// Wraps an unscaled integer without the precision check (for values
    /// produced by operations whose result type was inferred — the §III-B3
    /// rules guarantee fit).
    pub fn from_parts_unchecked(int: BigInt, ty: DecimalType) -> Self {
        UpDecimal { ty, int }
    }

    /// Zero of the given type.
    pub fn zero(ty: DecimalType) -> Self {
        UpDecimal { ty, int: BigInt::zero() }
    }

    /// Parses a decimal literal like `-12.345` into the given type,
    /// right-padding or rounding (half away from zero) the fraction to the
    /// type's scale.
    pub fn parse(s: &str, ty: DecimalType) -> Result<Self, NumError> {
        let (int, digits_after) = parse_unscaled(s)?;
        let int = rescale_int(&int, digits_after, ty.scale);
        Self::from_parts(int, ty)
    }

    /// Parses a literal and infers the smallest type holding it — the rule
    /// the JIT applies to constants: "1.23 is DECIMAL(3, 2) and 10 is
    /// DECIMAL(2, 0)" (§III-D2).
    pub fn parse_literal(s: &str) -> Result<Self, NumError> {
        let (int, digits_after) = parse_unscaled(s)?;
        let digits = int.dec_digits();
        let scale = digits_after;
        let precision = digits.max(scale.max(1)).max(scale + digits.saturating_sub(scale));
        // precision = total significant digits, at least enough to carry the scale.
        let precision = precision.max(digits).max(scale.max(1));
        let ty = DecimalType::new(precision, scale)?;
        Self::from_parts(int, ty)
    }

    /// Builds from an `i64` at scale 0 with the smallest sufficient type.
    pub fn from_i64(v: i64) -> Self {
        let int = BigInt::from(v);
        let ty = DecimalType::new_unchecked(int.dec_digits(), 0);
        UpDecimal { ty, int }
    }

    /// Builds from an integer count of scaled units, e.g.
    /// `from_scaled_i64(123, DECIMAL(4,2))` is `1.23`.
    pub fn from_scaled_i64(unscaled: i64, ty: DecimalType) -> Result<Self, NumError> {
        Self::from_parts(BigInt::from(unscaled), ty)
    }

    /// The type.
    pub fn dtype(&self) -> DecimalType {
        self.ty
    }

    /// The unscaled integer.
    pub fn unscaled(&self) -> &BigInt {
        &self.int
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.int.is_zero()
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        self.int.sign()
    }

    /// Aligns the unscaled integer to a (greater or equal) scale by
    /// multiplying by `10^(s₂−s₁)` — the §II-B alignment. Aligning *down*
    /// is deliberately a different method ([`UpDecimal::cast`]) because it
    /// loses precision.
    pub fn align_up(&self, scale: u32) -> BigInt {
        debug_assert!(scale >= self.ty.scale, "align_up cannot reduce scale");
        self.int.mul_pow10(scale - self.ty.scale)
    }

    /// Addition with the §III-B3 result type.
    pub fn add(&self, other: &UpDecimal) -> UpDecimal {
        let ty = self.ty.add_result(&other.ty);
        let a = self.align_up(ty.scale);
        let b = other.align_up(ty.scale);
        UpDecimal { ty, int: a.add(&b) }
    }

    /// Subtraction with the §III-B3 result type.
    pub fn sub(&self, other: &UpDecimal) -> UpDecimal {
        let ty = self.ty.add_result(&other.ty);
        let a = self.align_up(ty.scale);
        let b = other.align_up(ty.scale);
        UpDecimal { ty, int: a.sub(&b) }
    }

    /// Unary negation (type unchanged).
    pub fn neg(&self) -> UpDecimal {
        UpDecimal { ty: self.ty, int: self.int.neg() }
    }

    /// Multiplication with the §III-B3 result type (no alignment needed).
    pub fn mul(&self, other: &UpDecimal) -> UpDecimal {
        UpDecimal {
            ty: self.ty.mul_result(&other.ty),
            int: self.int.mul(&other.int),
        }
    }

    /// Division per §III-B3: the dividend is multiplied by `10^(s₂+4)`
    /// first, the quotient truncates, and the result scale is `s₁ + 4`.
    ///
    /// The inferred precision bounds the quotient only when the divisor
    /// uses its declared integer width (`|b| ≥ 10^(p₂−s₂−1)` unscaled);
    /// the paper inherits the same caveat, and Fig. 15 discusses the dual
    /// problem (underflow) this rule causes for tiny dividends.
    ///
    /// Returns [`NumError::DivisionByZero`] on a zero divisor.
    pub fn div(&self, other: &UpDecimal) -> Result<UpDecimal, NumError> {
        if other.is_zero() {
            return Err(NumError::DivisionByZero);
        }
        let ty = self.ty.div_result(&other.ty);
        let boosted = self.int.mul_pow10(other.ty.scale + DIV_EXTRA_SCALE);
        let q = boosted.div(&other.int);
        Ok(UpDecimal { ty, int: q })
    }

    /// Integer modulo per §III-B3 (scale-0 result). Fractional digits of
    /// either operand are truncated first, matching "only the integer
    /// modulo is supported".
    pub fn rem(&self, other: &UpDecimal) -> Result<UpDecimal, NumError> {
        let a = self.int.div_pow10_trunc(self.ty.scale);
        let b = other.int.div_pow10_trunc(other.ty.scale);
        if b.is_zero() {
            return Err(NumError::DivisionByZero);
        }
        let ty = self.ty.mod_result(&other.ty);
        Ok(UpDecimal { ty, int: a.rem(&b) })
    }

    /// Casts to another type: aligns up exactly, or rounds half away from
    /// zero when the target scale is smaller. Errors if the value does not
    /// fit the target precision.
    pub fn cast(&self, ty: DecimalType) -> Result<UpDecimal, NumError> {
        let int = rescale_int(&self.int, self.ty.scale, ty.scale);
        Self::from_parts(int, ty)
    }

    /// Value comparison across types: aligns scales (up, never losing
    /// digits) and compares the signed integers — the GROUP BY / ORDER BY
    /// comparator of §III-A.
    pub fn cmp_value(&self, other: &UpDecimal) -> Ordering {
        let s = self.ty.scale.max(other.ty.scale);
        self.align_up(s).cmp_signed(&other.align_up(s))
    }

    /// Lossy `f64` view, for the DOUBLE baseline and error reporting.
    pub fn to_f64(&self) -> f64 {
        self.int.to_f64() / 10f64.powi(self.ty.scale as i32)
    }

    /// Builds from an `f64` by formatting at the target scale — the lossy
    /// conversion CPU databases apply when a DOUBLE literal meets DECIMAL.
    pub fn from_f64(v: f64, ty: DecimalType) -> Result<Self, NumError> {
        if !v.is_finite() {
            return Err(NumError::Parse(format!("non-finite double {v}")));
        }
        let s = format!("{v:.*}", ty.scale as usize);
        Self::parse(&s, ty)
    }

    /// Absolute difference as f64 — used by the Fig. 15 MAE computation.
    /// Computed from the difference's decimal digits so scales far beyond
    /// f64's exponent range (the 300-digit ground truths) stay finite.
    pub fn abs_diff_f64(&self, other: &UpDecimal) -> f64 {
        let s = self.ty.scale.max(other.ty.scale);
        let d = self.align_up(s).sub(&other.align_up(s));
        if d.is_zero() {
            return 0.0;
        }
        let digits = d.mag_to_dec_string();
        let take = digits.len().min(17);
        let mantissa: f64 = digits[..take].parse().expect("decimal digits");
        // |d| ≈ mantissa · 10^(len−take) at scale s.
        let exp = digits.len() as i32 - take as i32 - s as i32;
        mantissa * pow10_f64(exp)
    }
}

/// 10^exp as f64 without intermediate overflow for very negative
/// exponents (splits the exponent so each factor stays in range).
fn pow10_f64(exp: i32) -> f64 {
    if (-300..=300).contains(&exp) {
        10f64.powi(exp)
    } else if exp < 0 {
        let mut v = 1.0f64;
        let mut e = exp;
        while e < -300 {
            v *= 1e-300;
            e += 300;
        }
        v * 10f64.powi(e)
    } else {
        f64::INFINITY
    }
}

/// Parses a literal into (unscaled integer, digits after the point).
fn parse_unscaled(s: &str) -> Result<(BigInt, u32), NumError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(NumError::Parse("empty literal".into()));
    }
    let (body, neg) = match s.as_bytes()[0] {
        b'-' => (&s[1..], true),
        b'+' => (&s[1..], false),
        _ => (s, false),
    };
    let (int_part, frac_part) = match body.split_once('.') {
        Some((i, f)) => (i, f),
        None => (body, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return Err(NumError::Parse(format!("invalid literal {s:?}")));
    }
    if !int_part.bytes().all(|b| b.is_ascii_digit()) || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
        return Err(NumError::Parse(format!("invalid literal {s:?}")));
    }
    let joined = format!("{int_part}{frac_part}");
    let joined = if joined.is_empty() { "0".to_string() } else { joined };
    let mut int = BigInt::parse_dec(&joined)?;
    if neg {
        int = int.neg();
    }
    Ok((int, frac_part.len() as u32))
}

/// Rescales an unscaled integer from one scale to another: multiplies by
/// ten to go up, rounds half away from zero to go down.
fn rescale_int(int: &BigInt, from_scale: u32, to_scale: u32) -> BigInt {
    if to_scale >= from_scale {
        int.mul_pow10(to_scale - from_scale)
    } else {
        int.div_pow10_round(from_scale - to_scale)
    }
}

impl fmt::Display for UpDecimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::column::write_decimal(f, self.int.is_negative(), self.int.mag(), self.ty.scale)
    }
}

impl fmt::Debug for UpDecimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UpDecimal({} {})", self, self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    fn dec(s: &str, p: u32, sc: u32) -> UpDecimal {
        UpDecimal::parse(s, ty(p, sc)).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(dec("1.23", 4, 2).to_string(), "1.23");
        assert_eq!(dec("-1.23", 10, 2).to_string(), "-1.23");
        assert_eq!(dec("0.1", 3, 1).to_string(), "0.1");
        assert_eq!(dec("0.1", 3, 2).to_string(), "0.10"); // padded to scale
        assert_eq!(dec("7", 5, 0).to_string(), "7");
        assert_eq!(dec("0.0001", 9, 4).to_string(), "0.0001");
        assert_eq!(dec("-0.5", 2, 1).to_string(), "-0.5");
    }

    #[test]
    fn parse_rounds_when_narrowing() {
        assert_eq!(dec("1.235", 4, 2).to_string(), "1.24"); // half away from zero
        assert_eq!(dec("-1.235", 4, 2).to_string(), "-1.24");
        assert_eq!(dec("1.234", 4, 2).to_string(), "1.23");
    }

    #[test]
    fn paper_intro_example_is_exact() {
        // §II-B: 1.23 (4,2) + 0.1 (3,1): align 0.1 → 0.10 (integer 10).
        let a = dec("1.23", 4, 2);
        let b = dec("0.1", 3, 1);
        let sum = a.add(&b);
        assert_eq!(sum.to_string(), "1.33");
        assert_eq!(sum.dtype(), ty(5, 2)); // (max(4, 3+2-1)+1, 2)
        assert_eq!(sum.unscaled(), &BigInt::from(133i64));
    }

    #[test]
    fn exactness_that_double_lacks() {
        // 0.1 + 0.2 == 0.3 exactly in DECIMAL; not in f64.
        let a = dec("0.1", 3, 1);
        let b = dec("0.2", 3, 1);
        let c = a.add(&b);
        assert_eq!(c.cmp_value(&dec("0.3", 3, 1)), Ordering::Equal);
        assert_ne!(0.1f64 + 0.2f64, 0.3f64); // the motivating failure
    }

    #[test]
    fn listing1_shape() {
        // DECIMAL(4,2) + DECIMAL(4,1) → DECIMAL(6,2); the kernel computes
        // c1 + (c2 << 1).
        let c1 = dec("1.23", 4, 2);
        let c2 = dec("9.9", 4, 1);
        let r = c1.add(&c2);
        assert_eq!(r.dtype(), ty(6, 2));
        assert_eq!(r.to_string(), "11.13");
    }

    #[test]
    fn subtraction_picks_minuend_by_magnitude() {
        let a = dec("1.00", 4, 2);
        let b = dec("2.50", 4, 2);
        assert_eq!(a.sub(&b).to_string(), "-1.50");
        assert_eq!(b.sub(&a).to_string(), "1.50");
        let z = a.sub(&a);
        assert!(z.is_zero());
    }

    #[test]
    fn multiplication() {
        let a = dec("1.5", 2, 1);
        let b = dec("-2.05", 3, 2);
        let p = a.mul(&b);
        assert_eq!(p.dtype(), ty(5, 3));
        assert_eq!(p.to_string(), "-3.075");
    }

    #[test]
    fn division_scale_plus_4_rule() {
        let a = dec("1", 9, 8); // 1.00000000 in (9,8)
        let b = dec("3", 2, 0);
        let q = a.div(&b).unwrap();
        assert_eq!(q.dtype().scale, 12); // s1 + 4
        assert_eq!(q.to_string(), "0.333333333333");
        // Division truncates (the paper's underflow discussion for Fig. 15
        // depends on that).
        let q2 = dec("2", 2, 0).div(&dec("3", 2, 0)).unwrap();
        assert_eq!(q2.to_string(), "0.6666");
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let a = dec("1", 2, 0);
        assert!(matches!(a.div(&UpDecimal::zero(ty(2, 0))), Err(NumError::DivisionByZero)));
        assert!(matches!(a.rem(&UpDecimal::zero(ty(2, 0))), Err(NumError::DivisionByZero)));
    }

    #[test]
    fn modulo_is_integer_only() {
        let a = dec("17.9", 3, 1);
        let n = dec("5", 1, 0);
        let r = a.rem(&n).unwrap();
        assert_eq!(r.dtype().scale, 0);
        assert_eq!(r.to_string(), "2"); // 17 % 5
    }

    #[test]
    fn literal_type_inference() {
        // §III-D2: 1.23 is DECIMAL(3,2) and 10 is DECIMAL(2,0).
        assert_eq!(UpDecimal::parse_literal("1.23").unwrap().dtype(), ty(3, 2));
        assert_eq!(UpDecimal::parse_literal("10").unwrap().dtype(), ty(2, 0));
        assert_eq!(UpDecimal::parse_literal("0.25").unwrap().dtype(), ty(2, 2));
        assert_eq!(UpDecimal::parse_literal("-7").unwrap().dtype(), ty(1, 0));
    }

    #[test]
    fn cast_up_and_down() {
        let v = dec("1.23", 4, 2);
        let up = v.cast(ty(10, 5)).unwrap();
        assert_eq!(up.to_string(), "1.23000");
        let down = up.cast(ty(4, 1)).unwrap();
        assert_eq!(down.to_string(), "1.2");
        // Overflow on cast is reported.
        let big = dec("99.99", 4, 2);
        assert!(big.cast(ty(3, 2)).is_err());
    }

    #[test]
    fn value_comparison_across_scales() {
        let a = dec("1.5", 2, 1);
        let b = dec("1.50", 3, 2);
        assert_eq!(a.cmp_value(&b), Ordering::Equal);
        assert_eq!(dec("-2", 2, 0).cmp_value(&a), Ordering::Less);
    }

    #[test]
    fn overflow_detection() {
        assert!(UpDecimal::parse("100.0", ty(3, 1)).is_err());
        assert!(UpDecimal::parse("99.9", ty(3, 1)).is_ok());
    }

    #[test]
    fn f64_round_trip_at_scale() {
        let v = UpDecimal::from_f64(2.5, ty(5, 2)).unwrap();
        assert_eq!(v.to_string(), "2.50");
        assert!((v.to_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn high_precision_sum_stays_exact() {
        // 10^30 + 1 at scale 5 — far beyond f64's 53-bit mantissa.
        let t = ty(40, 5);
        let a = UpDecimal::parse("1000000000000000000000000000000.00001", t).unwrap();
        let b = UpDecimal::parse("0.00001", t).unwrap();
        let s = a.add(&b);
        assert_eq!(s.to_string(), "1000000000000000000000000000000.00002");
    }
}
