//! Compact (memory) vs word-aligned (register) representations — Fig. 4.
//!
//! In memory and on disk a decimal is a **byte-aligned** array of `Lb`
//! bytes with the sign folded into the most significant bit; in registers
//! it expands to `Lw` 32-bit words plus a sign byte, because PTX carry
//! instructions operate on 32-bit operands at least (§III-B). Expression
//! evaluation follows the three steps of §III-B2: read compact → expand →
//! evaluate → write back compact.

use crate::bigint::{BigInt, Sign};
use crate::column::{compact_limb, compact_sign_bit};
use crate::decimal::UpDecimal;
use crate::dtype::DecimalType;
use crate::limbs;
use crate::NumError;

/// The word-aligned register-resident form: `Lw` little-endian 32-bit
/// words plus a sign byte (`Decimal<N>` in the paper's generated code).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordRepr {
    /// −1, 0 or +1.
    pub sign: i8,
    /// Exactly `Lw` words for the owning type, least significant first.
    pub words: Vec<u32>,
}

impl WordRepr {
    /// Expands a value to exactly `lw` words.
    pub fn from_decimal(v: &UpDecimal, lw: usize) -> WordRepr {
        let mag = v.unscaled().mag();
        debug_assert!(limbs::sig_limbs(mag) <= lw, "value wider than Lw");
        let mut words = vec![0u32; lw];
        let n = mag.len().min(lw);
        words[..n].copy_from_slice(&mag[..n]);
        let sign = match v.sign() {
            Sign::Minus => -1,
            Sign::Zero => 0,
            Sign::Plus => 1,
        };
        WordRepr { sign, words }
    }

    /// Collapses back to a value of type `ty`.
    pub fn to_decimal(&self, ty: DecimalType) -> UpDecimal {
        let sign = match self.sign {
            0 => Sign::Zero,
            s if s < 0 => Sign::Minus,
            _ => Sign::Plus,
        };
        let int = BigInt::from_sign_mag(
            if limbs::is_zero(&self.words) { Sign::Zero } else { sign },
            self.words.clone(),
        );
        UpDecimal::from_parts_unchecked(int, ty)
    }
}

/// Encodes a value into its compact `Lb`-byte form in `out` (which must be
/// exactly `ty.lb()` bytes): little-endian magnitude bytes with the sign in
/// the top bit of the last byte.
pub fn encode_compact_into(v: &UpDecimal, ty: DecimalType, out: &mut [u8]) -> Result<(), NumError> {
    let lb = ty.lb();
    debug_assert_eq!(out.len(), lb);
    let mag = v.unscaled().mag();
    let bits = limbs::bit_len(mag);
    if bits as usize > lb * 8 - 1 {
        return Err(NumError::Overflow { ty, digits: v.unscaled().dec_digits() });
    }
    out.fill(0);
    for (i, b) in out.iter_mut().enumerate().take(mag.len() * 4) {
        let limb = mag[i / 4];
        *b = (limb >> (8 * (i % 4))) as u8;
    }
    if v.unscaled().is_negative() {
        out[lb - 1] |= 0x80;
    }
    Ok(())
}

/// Encodes a value into a fresh compact buffer of `ty.lb()` bytes.
pub fn encode_compact(v: &UpDecimal, ty: DecimalType) -> Result<Vec<u8>, NumError> {
    let mut out = vec![0u8; ty.lb()];
    encode_compact_into(v, ty, &mut out)?;
    Ok(out)
}

/// Decodes a compact buffer back into a value of type `ty` ("expand",
/// §III-B2 step 1).
pub fn decode_compact(bytes: &[u8], ty: DecimalType) -> UpDecimal {
    let lb = ty.lb();
    debug_assert_eq!(bytes.len(), lb);
    let words: Vec<u32> = (0..ty.lw()).map(|k| compact_limb(bytes, k)).collect();
    let sign = if limbs::is_zero(&words) {
        Sign::Zero
    } else if compact_sign_bit(bytes) {
        Sign::Minus
    } else {
        Sign::Plus
    };
    UpDecimal::from_parts_unchecked(BigInt::from_sign_mag(sign, words), ty)
}

/// Expands a compact buffer straight to the word-aligned form (what the
/// generated kernel's `Decimal<N>(cDecimal*)` constructor does).
pub fn expand_compact(bytes: &[u8], ty: DecimalType) -> WordRepr {
    let v = decode_compact(bytes, ty);
    WordRepr::from_decimal(&v, ty.lw())
}

/// Storage cost per value of the **alternative representation** (§III-B1):
/// the decimal point sits between array elements, each 32-bit word right of
/// the point holding 9 digits (10⁹ states). Returns the word count
/// `ceil(int_digits/9) + ceil(scale/9)` (minimum one word per side used by
/// PostgreSQL/RateupDB-style layouts). Used by the representation ablation.
pub fn alt_repr_words(ty: DecimalType) -> usize {
    let int_words = (ty.int_digits() as usize).div_ceil(9).max(1);
    let frac_words = (ty.scale as usize).div_ceil(9);
    int_words + frac_words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn fig4_example_minus_1_23_in_decimal_10_2() {
        let t = ty(10, 2);
        let v = UpDecimal::parse("-1.23", t).unwrap();
        // Compact: 5 bytes, value 123, sign bit set in the last byte.
        let c = encode_compact(&v, t).unwrap();
        assert_eq!(c, vec![123, 0, 0, 0, 0x80]);
        // Word-aligned: 2 words + a sign.
        let w = WordRepr::from_decimal(&v, t.lw());
        assert_eq!(w.words, vec![123, 0]);
        assert_eq!(w.sign, -1);
    }

    #[test]
    fn round_trip_positive_negative_zero() {
        let t = ty(20, 4);
        for s in ["0", "0.0001", "-0.0001", "12345.6789", "-9999999999999999.9999"] {
            let v = UpDecimal::parse(s, t).unwrap();
            let c = encode_compact(&v, t).unwrap();
            assert_eq!(c.len(), t.lb());
            let back = decode_compact(&c, t);
            assert_eq!(back, v, "{s}");
        }
    }

    #[test]
    fn zero_never_encodes_a_sign_bit() {
        let t = ty(10, 2);
        let z = UpDecimal::zero(t);
        let c = encode_compact(&z, t).unwrap();
        assert!(c.iter().all(|&b| b == 0));
    }

    #[test]
    fn word_repr_round_trip() {
        let t = ty(38, 10);
        let v = UpDecimal::parse("-1234567890123456789.0123456789", t).unwrap();
        let w = WordRepr::from_decimal(&v, t.lw());
        assert_eq!(w.words.len(), t.lw());
        assert_eq!(w.to_decimal(t), v);
    }

    #[test]
    fn compact_rejects_overwide_magnitude() {
        // A value that fits (4,0)'s digits but pretend Lb is for (2,0).
        let small = ty(2, 0);
        let v = UpDecimal::parse("9999", ty(4, 0)).unwrap();
        // 9999 needs 14 bits; Lb(2) = 1 byte = 7 magnitude bits.
        assert!(encode_compact(&v, small).is_err());
    }

    #[test]
    fn alternative_representation_storage_cost() {
        // §III-B1: representing 1.23 word-aligned needs two words (one for
        // 1, one for 0.23) — double the compact one word.
        let t = ty(4, 2);
        assert_eq!(alt_repr_words(t), 2);
        assert_eq!(t.lw(), 1);
        // High precision narrows the gap.
        let big = ty(76, 38);
        assert_eq!(alt_repr_words(big), 5 + 5);
        assert_eq!(big.lw(), 8);
    }

    #[test]
    fn expand_matches_decode_then_expand() {
        let t = ty(17, 5);
        let v = UpDecimal::parse("-123456789012.34567", t).unwrap();
        let c = encode_compact(&v, t).unwrap();
        let w = expand_compact(&c, t);
        assert_eq!(w.to_decimal(t), v);
    }
}
