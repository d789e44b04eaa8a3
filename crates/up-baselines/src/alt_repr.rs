//! The alternative representation — §III-B1, Fig. 5.
//!
//! PostgreSQL and RateupDB place the decimal point *between* array
//! elements: each 32-bit word right of the point holds 9 decimal digits
//! (10⁹ states), so two values never need scale alignment before an
//! addition — at the cost of extra storage (low-precision values double
//! in size). UltraPrecise evaluated and **discarded** this design because
//! "reading data from the memory dominates the execution time of
//! additions and subtractions. A compact representation benefits the
//! calculation." This module implements the representation so the Fig. 8
//! ablation can measure exactly that trade-off.

use up_num::{BigInt, DecimalType, Sign, UpDecimal};

/// Decimal digits per word right of the point.
const DIGITS_PER_WORD: u32 = 9;

/// A decimal in the alternative layout: `int_words` (base 2³², little-
/// endian) left of the point, `frac_words` (base 10⁹, most significant
/// first) right of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AltDecimal {
    /// Sign: −1, 0, +1.
    pub sign: i8,
    /// Integer part, base 2³², little-endian.
    pub int_words: Vec<u32>,
    /// Fraction part, base 10⁹, most significant word first ("a 32-bit
    /// word to the right of the decimal point is only allowed to
    /// represent 10⁹ numbers").
    pub frac_words: Vec<u32>,
    /// Display scale in decimal digits.
    pub dscale: u32,
}

impl AltDecimal {
    /// Words needed for a `DECIMAL(p, s)` column in this layout.
    pub fn words_for(ty: DecimalType) -> usize {
        up_num::compact::alt_repr_words(ty)
    }

    /// Storage bytes per value (word array + sign byte).
    pub fn bytes_for(ty: DecimalType) -> usize {
        Self::words_for(ty) * 4 + 1
    }

    /// Converts from the reference representation.
    pub fn from_decimal(v: &UpDecimal) -> AltDecimal {
        let ty = v.dtype();
        let scale = ty.scale;
        // Split |v| into integer and fraction parts.
        let int = v.unscaled().div_pow10_trunc(scale);
        let frac = v
            .unscaled()
            .abs()
            .sub(&int.abs().mul_pow10(scale));
        // Fraction digits → base-10⁹ words, MSD first, left-justified:
        // 0.23 is stored as 230,000,000 (Fig. 5's example text).
        let frac_words_n = (scale as usize).div_ceil(DIGITS_PER_WORD as usize);
        let mut frac_digits = frac.mag_to_dec_string();
        // Left-pad to the scale, then right-pad to the word grid.
        while (frac_digits.len() as u32) < scale {
            frac_digits.insert(0, '0');
        }
        while frac_digits.len() < frac_words_n * DIGITS_PER_WORD as usize {
            frac_digits.push('0');
        }
        let frac_words: Vec<u32> = (0..frac_words_n)
            .map(|i| {
                frac_digits[i * 9..(i + 1) * 9].parse().expect("9 digits")
            })
            .collect();
        AltDecimal {
            sign: match v.sign() {
                Sign::Minus => -1,
                Sign::Zero => 0,
                Sign::Plus => 1,
            },
            int_words: int.abs().mag().to_vec(),
            frac_words,
            dscale: scale,
        }
    }

    /// Converts back to the reference representation at scale `dscale`.
    pub fn to_decimal(&self, ty: DecimalType) -> UpDecimal {
        debug_assert_eq!(ty.scale, self.dscale);
        let int = BigInt::from_sign_mag(
            if self.int_words.iter().all(|&w| w == 0) { Sign::Zero } else { Sign::Plus },
            self.int_words.clone(),
        );
        let mut unscaled = int.mul_pow10(self.dscale);
        // Fraction: MSD-first base-10⁹ words hold left-justified digits.
        let mut frac_digits = String::new();
        for w in &self.frac_words {
            frac_digits.push_str(&format!("{w:09}"));
        }
        frac_digits.truncate(self.dscale as usize);
        if !frac_digits.is_empty() {
            let frac = BigInt::parse_dec(&frac_digits).expect("digits");
            unscaled = unscaled.add(&frac);
        }
        if self.sign < 0 {
            unscaled = unscaled.neg();
        }
        UpDecimal::from_parts_unchecked(unscaled, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn fig5_example_1_23_layout() {
        // 1.23 in the alternative layout: one int word (1), one frac word
        // storing 230,000,000.
        let v = UpDecimal::parse("1.23", ty(4, 2)).unwrap();
        let alt = AltDecimal::from_decimal(&v);
        assert_eq!(alt.int_words, vec![1]);
        assert_eq!(alt.frac_words, vec![230_000_000]);
        // Two words where the compact layout needs one (§III-B1: "double
        // space is required" at low precision).
        assert_eq!(AltDecimal::words_for(ty(4, 2)), 2);
        assert_eq!(ty(4, 2).lw(), 1);
    }

    #[test]
    fn round_trip() {
        for (s, p, sc) in [
            ("0", 5u32, 2u32),
            ("-12345.67890", 12, 5),
            ("0.000000001", 10, 9),
            ("999999999999.999999999999", 24, 12),
        ] {
            let t = ty(p, sc);
            let v = UpDecimal::parse(s, t).unwrap();
            let alt = AltDecimal::from_decimal(&v);
            assert_eq!(alt.to_decimal(t), v, "{s}");
        }
    }

    #[test]
    fn storage_premium_shrinks_with_precision() {
        // Low precision: 2× the compact size; high precision: ~1.25×.
        let low = ty(4, 2);
        let high = ty(76, 38);
        let ratio_low = AltDecimal::bytes_for(low) as f64 / (low.lb() as f64);
        let ratio_high = AltDecimal::bytes_for(high) as f64 / (high.lb() as f64);
        assert!(ratio_low > 2.0, "{ratio_low}");
        assert!(ratio_high < 1.5, "{ratio_high}");
    }
}
