//! Signed arbitrary-precision integers over 32-bit limbs.
//!
//! `DECIMAL(p, s)` stores only an integer (the unscaled value) plus a sign
//! byte (§III-B, Fig. 4); the scale lives in column metadata. [`BigInt`] is
//! that stored integer. Sign handling follows the paper's description of
//! the addition function: "the signs of operands determine whether two
//! numbers are added or one number is subtracted from the other. Numbers
//! are compared before the subtraction to decide the minuend and the
//! subtrahend" (§II-B).

use crate::div;
use crate::limbs::{self, Limb};
use crate::mul;
use crate::pow10;
use core::cmp::Ordering;
use core::fmt;

/// Sign of a [`BigInt`]. Zero is always [`Sign::Zero`] (normalized form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Negative magnitude.
    Minus,
    /// The value zero.
    Zero,
    /// Positive magnitude.
    Plus,
}

// Inherent `neg`/`mul` are deliberate: `Sign` is not a number, these are
// the sign-algebra rules, and operator sugar would suggest otherwise.
#[allow(clippy::should_implement_trait)]
impl Sign {
    /// The opposite sign; zero stays zero.
    pub fn neg(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    /// Product-of-signs rule.
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// A signed arbitrary-precision integer: sign + little-endian magnitude.
///
/// Invariant: the magnitude has no high-order zero limbs, and a zero value
/// has an empty magnitude with `Sign::Zero`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: Vec<Limb>,
}

impl BigInt {
    /// The value 0.
    pub fn zero() -> Self {
        BigInt { sign: Sign::Zero, mag: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigInt { sign: Sign::Plus, mag: vec![1] }
    }

    /// Builds from a sign and a magnitude, normalizing.
    pub fn from_sign_mag(sign: Sign, mut mag: Vec<Limb>) -> Self {
        limbs::trim(&mut mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero, "non-empty magnitude with Zero sign");
            BigInt { sign, mag }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude limbs (little-endian, trimmed).
    pub fn mag(&self) -> &[Limb] {
        &self.mag
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff the value is negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Bit length of the magnitude.
    pub fn bit_len(&self) -> u64 {
        limbs::bit_len(&self.mag)
    }

    /// Negation.
    pub fn neg(&self) -> BigInt {
        BigInt { sign: self.sign.neg(), mag: self.mag.clone() }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match self.sign {
            Sign::Minus => BigInt { sign: Sign::Plus, mag: self.mag.clone() },
            _ => self.clone(),
        }
    }

    /// Signed addition, deciding add-vs-subtract from the operand signs as
    /// the paper's `+` operator does.
    pub fn add(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_mag(a, limbs::add(&self.mag, &other.mag)),
            _ => {
                // Opposite signs: compare magnitudes to pick minuend/subtrahend.
                match limbs::cmp(&self.mag, &other.mag) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_sign_mag(self.sign, limbs::sub(&self.mag, &other.mag))
                    }
                    Ordering::Less => {
                        BigInt::from_sign_mag(other.sign, limbs::sub(&other.mag, &self.mag))
                    }
                }
            }
        }
    }

    /// Signed subtraction.
    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    /// Signed multiplication.
    pub fn mul(&self, other: &BigInt) -> BigInt {
        BigInt::from_sign_mag(self.sign.mul(other.sign), mul::mul(&self.mag, &other.mag))
    }

    /// Truncated division (toward zero) with remainder; the remainder takes
    /// the dividend's sign — the SQL convention for `%`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        let (q, r) = div::div_rem(&self.mag, &other.mag);
        (
            BigInt::from_sign_mag(self.sign.mul(other.sign), q),
            BigInt::from_sign_mag(self.sign, r),
        )
    }

    /// Quotient of truncated division.
    pub fn div(&self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }

    /// Remainder of truncated division (sign follows the dividend).
    pub fn rem(&self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }

    /// Multiplies by `10^n` (scale-up alignment).
    pub fn mul_pow10(&self, n: u32) -> BigInt {
        if n == 0 || self.is_zero() {
            return self.clone();
        }
        BigInt::from_sign_mag(self.sign, mul::mul(&self.mag, &pow10::pow10_limbs(n)))
    }

    /// Divides by `10^n`, truncating toward zero (scale-down alignment; the
    /// paper notes this "lowers the intermediate precision", §II-B).
    pub fn div_pow10_trunc(&self, n: u32) -> BigInt {
        if n == 0 || self.is_zero() {
            return self.clone();
        }
        let (q, _) = div::div_rem(&self.mag, &pow10::pow10_limbs(n));
        BigInt::from_sign_mag(self.sign, q)
    }

    /// Divides by `10^n`, rounding half away from zero (PostgreSQL's
    /// `numeric` rounding, used when casting to a smaller scale).
    pub fn div_pow10_round(&self, n: u32) -> BigInt {
        if n == 0 || self.is_zero() {
            return self.clone();
        }
        let p = pow10::pow10_limbs(n);
        let (q, r) = div::div_rem(&self.mag, &p);
        let twice_r = limbs::shl_bits(&r, 1);
        let round_up = limbs::cmp(&twice_r, &p) != Ordering::Less;
        let q = if round_up { limbs::add(&q, &[1]) } else { q };
        BigInt::from_sign_mag(self.sign, q)
    }

    /// Raises to a small power (used by RSA's `X^e` with e = 3 and the
    /// ground-truth Taylor series).
    pub fn pow(&self, e: u32) -> BigInt {
        let mut result = BigInt::one();
        let mut base = self.clone();
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        result
    }

    /// Modular exponentiation `self^e mod m` (magnitude-positive modulus).
    pub fn mod_pow(&self, e: u32, m: &BigInt) -> BigInt {
        assert!(!m.is_zero(), "zero modulus");
        let mut result = BigInt::one();
        let mut base = self.rem(m);
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base).rem(m);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base).rem(m);
            }
        }
        result
    }

    /// Modular exponentiation with an arbitrary-precision exponent
    /// (square-and-multiply over the exponent's bits) — used by the RSA
    /// workload's Miller–Rabin primality test.
    pub fn mod_pow_big(&self, e: &BigInt, m: &BigInt) -> BigInt {
        assert!(!m.is_zero(), "zero modulus");
        assert!(e.sign() != Sign::Minus, "negative exponent");
        let bits = limbs::bit_len(e.mag());
        let mut result = BigInt::one().rem(m);
        let mut base = self.rem(m);
        for i in 0..bits {
            if limbs::get_bit(e.mag(), i) {
                result = result.mul(&base).rem(m);
            }
            if i + 1 < bits {
                base = base.mul(&base).rem(m);
            }
        }
        result
    }

    /// Number of decimal digits of the magnitude (0 has 1 digit).
    pub fn dec_digits(&self) -> u32 {
        if self.is_zero() {
            return 1;
        }
        // Estimate from the bit length, then correct by comparison.
        let bits = self.bit_len();
        let mut d = ((bits as f64) * core::f64::consts::LOG10_2).floor() as u32 + 1;
        // 10^(d-1) <= |x| must hold; if not, decrement. If 10^d <= |x|, increment.
        while d > 1 && limbs::cmp(&self.mag, &pow10::pow10_limbs(d - 1)) == Ordering::Less {
            d -= 1;
        }
        while limbs::cmp(&self.mag, &pow10::pow10_limbs(d)) != Ordering::Less {
            d += 1;
        }
        d
    }

    /// Signed comparison.
    pub fn cmp_signed(&self, other: &BigInt) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Minus, Sign::Minus) => limbs::cmp(&other.mag, &self.mag),
            (Sign::Minus, _) => Ordering::Less,
            (_, Sign::Minus) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Zero) => Ordering::Greater,
            (Sign::Plus, Sign::Plus) => limbs::cmp(&self.mag, &other.mag),
        }
    }

    /// Lossy conversion to `f64` (used only for reporting and the DOUBLE
    /// baseline comparisons).
    pub fn to_f64(&self) -> f64 {
        let n = self.mag.len();
        let mut v = 0.0f64;
        for i in (0..n).rev() {
            v = v * 4294967296.0 + self.mag[i] as f64;
        }
        if self.sign == Sign::Minus {
            -v
        } else {
            v
        }
    }

    /// Parses a decimal integer string (optionally signed).
    pub fn parse_dec(s: &str) -> Result<BigInt, crate::NumError> {
        let s = s.trim();
        let (sign, digits) = match s.as_bytes().first() {
            Some(b'-') => (Sign::Minus, &s[1..]),
            Some(b'+') => (Sign::Plus, &s[1..]),
            Some(_) => (Sign::Plus, s),
            None => return Err(crate::NumError::Parse("empty string".into())),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(crate::NumError::Parse(format!("invalid integer literal {s:?}")));
        }
        // Fold 9-digit chunks: mag = mag * 10^9 + chunk.
        let mut mag: Vec<Limb> = Vec::new();
        let bytes = digits.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(9);
            let chunk: u32 = digits[i..i + take].parse().expect("digit chunk");
            mag = limbs::mul_limb(&mag, 10u32.pow(take as u32));
            if chunk != 0 {
                mag.resize(mag.len() + 1, 0);
                let carry = limbs::add_assign(&mut mag, &[chunk]);
                debug_assert!(!carry);
                limbs::trim(&mut mag);
            }
            i += take;
        }
        Ok(BigInt::from_sign_mag(sign, mag))
    }

    /// Formats the magnitude as decimal digits (no sign).
    pub fn mag_to_dec_string(&self) -> String {
        let mut s = String::new();
        crate::column::write_decimal(&mut s, false, &self.mag, 0)
            .expect("writing to a String cannot fail");
        s
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag_to_dec_string())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        if v == 0 {
            return BigInt::zero();
        }
        let (sign, mag) = if v < 0 {
            (Sign::Minus, limbs::from_u64(v.unsigned_abs()))
        } else {
            (Sign::Plus, limbs::from_u64(v as u64))
        };
        BigInt { sign, mag }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_sign_mag(Sign::Plus, limbs::from_u64(v))
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        if v == 0 {
            return BigInt::zero();
        }
        let (sign, mag) = if v < 0 {
            (Sign::Minus, limbs::from_u128(v.unsigned_abs()))
        } else {
            (Sign::Plus, limbs::from_u128(v as u128))
        };
        BigInt { sign, mag }
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        BigInt::from_sign_mag(Sign::Plus, limbs::from_u128(v))
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_signed(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn signed_add_covers_all_sign_combinations() {
        let cases: [(i128, i128); 9] = [
            (0, 0),
            (5, 0),
            (0, -5),
            (3, 4),
            (-3, -4),
            (7, -3),
            (3, -7),
            (-7, 3),
            (-3, 7),
        ];
        for (a, b) in cases {
            assert_eq!(bi(a).add(&bi(b)), bi(a + b), "{a} + {b}");
            assert_eq!(bi(a).sub(&bi(b)), bi(a - b), "{a} - {b}");
        }
    }

    #[test]
    fn truncated_division_sign_convention() {
        // SQL: quotient truncates toward zero; remainder takes dividend sign.
        for (a, b) in [(7i128, 3i128), (-7, 3), (7, -3), (-7, -3)] {
            let (q, r) = bi(a).div_rem(&bi(b));
            assert_eq!(q, bi(a / b), "{a}/{b}");
            assert_eq!(r, bi(a % b), "{a}%{b}");
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "-1", "999999999", "1000000000", "-123456789012345678901234567890"] {
            let v = BigInt::parse_dec(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!(BigInt::parse_dec("12x").is_err());
        assert!(BigInt::parse_dec("").is_err());
        assert_eq!(BigInt::parse_dec("+42").unwrap(), bi(42));
    }

    #[test]
    fn dec_digits_exact_at_power_boundaries() {
        assert_eq!(bi(0).dec_digits(), 1);
        assert_eq!(bi(9).dec_digits(), 1);
        assert_eq!(bi(10).dec_digits(), 2);
        assert_eq!(bi(999_999_999_999_999_999).dec_digits(), 18);
        assert_eq!(bi(1_000_000_000_000_000_000).dec_digits(), 19);
        assert_eq!(BigInt::parse_dec("99999999999999999999999999999999999").unwrap().dec_digits(), 35);
    }

    #[test]
    fn pow10_scaling_round_trip() {
        let v = BigInt::parse_dec("-123456789").unwrap();
        assert_eq!(v.mul_pow10(5).div_pow10_trunc(5), v);
        assert_eq!(bi(12349).div_pow10_round(2), bi(123));
        assert_eq!(bi(12350).div_pow10_round(2), bi(124)); // half away from zero
        assert_eq!(bi(-12350).div_pow10_round(2), bi(-124));
    }

    #[test]
    fn mod_pow_matches_naive() {
        let m = bi(1_000_000_007);
        let x = bi(123_456_789);
        assert_eq!(x.mod_pow(3, &m), x.mul(&x).mul(&x).rem(&m));
    }

    #[test]
    fn signed_ordering() {
        let mut v = vec![bi(3), bi(-10), bi(0), bi(10), bi(-3)];
        v.sort();
        assert_eq!(v, vec![bi(-10), bi(-3), bi(0), bi(3), bi(10)]);
    }
}
