//! Allocation-free primitives over compact decimal columns.
//!
//! A DECIMAL column is `Lb` bytes per value with the sign in the top bit of
//! the last byte, and its precision and scale live "in the metadata of the
//! relation", never per value (§III-B). Everything here works on those
//! bytes (or on borrowed limbs) directly, so the host code between a
//! kernel's output buffer and a result row needs no per-value [`BigInt`]:
//! [`SumAcc`] folds SUM the way §III-E2 reduces fixed-width word arrays,
//! [`cmp_compact`] orders two cells for MIN/MAX and ORDER BY, and
//! [`write_compact`] / [`append_compact`] / [`write_decimal`] render a cell
//! as decimal text into one buffer.
//!
//! A sign bit over a zero magnitude can be stored; it *is* zero: it folds
//! as 0, compares equal to 0 and renders without a `-`.

use crate::bigint::{BigInt, Sign};
use crate::decimal::UpDecimal;
use crate::limbs::{self, Limb};
use core::cmp::Ordering;
use core::fmt;

/// Magnitude limb `k` of a compact value: little-endian bytes, the sign
/// bit masked off the last one. `4k` must lie inside the value.
#[inline]
pub(crate) fn compact_limb(bytes: &[u8], k: usize) -> Limb {
    let rest = &bytes[4 * k..];
    match rest.first_chunk::<4>() {
        Some(full) if rest.len() > 4 => Limb::from_le_bytes(*full),
        // The top limb: one to four bytes ending in the sign byte.
        _ => {
            let w = rest.iter().rev().fold(0, |w, &b| w << 8 | b as Limb);
            w & !(0x80 << (8 * (rest.len() - 1)))
        }
    }
}

/// Whether a compact value carries the sign bit.
#[inline]
pub(crate) fn compact_sign_bit(bytes: &[u8]) -> bool {
    bytes.last().is_some_and(|b| b & 0x80 != 0)
}

/// `acc += Σ limb(k)·2^(32k)` for `k < n`, growing `acc` instead of
/// dropping a carry.
#[inline]
fn accumulate(acc: &mut Vec<Limb>, n: usize, limb: impl Fn(usize) -> Limb) {
    if acc.len() <= n {
        acc.resize(n + 1, 0);
    }
    let mut carry = false;
    for (k, slot) in acc.iter_mut().enumerate() {
        if k >= n && !carry {
            return;
        }
        *slot = limbs::add_carry(*slot, if k < n { limb(k) } else { 0 }, &mut carry);
    }
    if carry {
        acc.push(1);
    }
}

/// The SUM accumulator of a decimal column: one fixed-width magnitude for
/// the positive addends and one for the negative ones, subtracted once in
/// [`SumAcc::finish`]. Adding a value is a carry chain over its words — no
/// sign comparison, no allocation — which is what makes the fold
/// order-independent: shards can be summed apart and [`merge`]d.
///
/// Sized for the §III-B3 result type (`Lw(out) + 1` words each, the extra
/// word absorbing any carry of in-range addends); out-of-range input grows
/// the accumulator rather than wrapping.
///
/// [`merge`]: SumAcc::merge
#[derive(Clone, Debug)]
pub struct SumAcc {
    pos: Vec<Limb>,
    neg: Vec<Limb>,
}

impl SumAcc {
    /// An empty accumulator for results of `lw` words.
    pub fn new(lw: usize) -> SumAcc {
        SumAcc {
            pos: vec![0; lw + 1],
            neg: vec![0; lw + 1],
        }
    }

    /// Adds one compact value (any `Lb`; the unscaled integer is added as
    /// is, so the column's scale must be the result's scale).
    #[inline]
    pub fn add_compact(&mut self, bytes: &[u8]) {
        let acc = if compact_sign_bit(bytes) {
            &mut self.neg
        } else {
            &mut self.pos
        };
        accumulate(acc, bytes.len().div_ceil(4), |k| compact_limb(bytes, k));
    }

    /// Adds a value's unscaled integer aligned up to `scale`. For a typed
    /// column this is the identity — `sum_result` keeps the scale — and
    /// borrows the value's limbs; only a value of a smaller scale pays for
    /// the `10^Δ` multiplication.
    pub fn add_decimal(&mut self, v: &UpDecimal, scale: u32) {
        if v.dtype().scale == scale {
            self.add_int(v.unscaled());
        } else {
            self.add_int(&v.align_up(scale));
        }
    }

    /// Adds a signed integer.
    pub fn add_int(&mut self, v: &BigInt) {
        let acc = if v.is_negative() {
            &mut self.neg
        } else {
            &mut self.pos
        };
        let mag = v.mag();
        accumulate(acc, mag.len(), |k| mag[k]);
    }

    /// Adds another accumulator's partial sums (a shard's, in the fleet).
    pub fn merge(&mut self, other: &SumAcc) {
        accumulate(&mut self.pos, limbs::sig_limbs(&other.pos), |k| {
            other.pos[k]
        });
        accumulate(&mut self.neg, limbs::sig_limbs(&other.neg), |k| {
            other.neg[k]
        });
    }

    /// The signed total: positives minus negatives.
    pub fn finish(&self) -> BigInt {
        match limbs::cmp(&self.pos, &self.neg) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => {
                BigInt::from_sign_mag(Sign::Plus, limbs::sub(&self.pos, &self.neg))
            }
            Ordering::Less => BigInt::from_sign_mag(Sign::Minus, limbs::sub(&self.neg, &self.pos)),
        }
    }
}

/// Orders two compact values of one column (same `Lb`, same scale) by
/// value: sign-magnitude comparison, most significant byte first.
pub fn cmp_compact(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert_eq!(a.len(), b.len(), "cells of one column");
    let Some(top) = a.len().checked_sub(1) else {
        return Ordering::Equal;
    };
    let mag = (a[top] & 0x7f)
        .cmp(&(b[top] & 0x7f))
        .then_with(|| a[..top].iter().rev().cmp(b[..top].iter().rev()));
    match (compact_sign_bit(a), compact_sign_bit(b)) {
        (false, false) => mag,
        (true, true) => mag.reverse(),
        // Opposite sign bits over equal magnitudes differ unless both are
        // zero.
        _ if mag == Ordering::Equal && a[top] & 0x7f == 0 && a[..top].iter().all(|&x| x == 0) => {
            Ordering::Equal
        }
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
    }
}

/// Limbs kept on the stack while rendering: LEN 32 plus SUM growth.
const STACK_LIMBS: usize = 40;
/// Text bytes kept on the stack: what [`render_limbs`] needs for that many.
const STACK_TEXT: usize = 10 * STACK_LIMBS + 12;

/// Runs `f` over `n` zeroed scratch limbs — on the stack up to
/// [`STACK_LIMBS`], one heap buffer beyond.
fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [Limb]) -> R) -> R {
    if n <= STACK_LIMBS {
        f(&mut [0; STACK_LIMBS][..n])
    } else {
        f(&mut vec![0; n])
    }
}

/// `"00".."99"`: two digits per lookup.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849\
5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Nine digits of `chunk < 10⁹`, leading zeros kept. `chunk · ⌈2⁵⁷/10⁸⌉`
/// is `chunk / 10⁸` in 7.57 fixed point, high by less than one unit of the
/// last digit: the top seven bits are the first digit and each `· 100` of
/// the fraction shifts the next pair up — one multiply per two digits.
/// (Checked over all 10⁹ chunks; the tests keep a strided sample.)
#[inline]
fn nine_digits(chunk: u32, out: &mut [u8]) {
    let out: &mut [u8; 9] = out.try_into().expect("nine bytes per chunk");
    let mut t = chunk as u64 * 1_441_151_881;
    out[0] = b'0' + (t >> 57) as u8;
    for pair in out[1..].chunks_exact_mut(2) {
        t = (t & ((1 << 57) - 1)) * 100;
        pair.copy_from_slice(&PAIRS[2 * (t >> 57) as usize..][..2]);
    }
}

/// Renders `±work · 10^(−scale)`, destroying `work`, and hands the ASCII
/// text to `sink`. Repeated division by 10⁹ (a constant divisor, so
/// multiplies) peels nine digits at a time into the tail of one flat digit
/// buffer; the sign, the zero padding out to the scale and the `.` are
/// placed once, afterwards.
fn render_limbs<R>(neg: bool, work: &mut [Limb], scale: u32, sink: impl FnOnce(&[u8]) -> R) -> R {
    const CHUNK: u64 = 1_000_000_000;
    let scale = scale as usize;
    let mut n = limbs::sig_limbs(work);
    let neg = neg && n > 0;
    // Nine digits per pass and ≤ 9.64 per limb, or zero padding out to the
    // scale; plus the integer "0", '-', and the slot the '.' opens up.
    let need = (10 * n + 9).max(scale) + 3;
    let mut stack = [0u8; STACK_TEXT];
    let mut heap = Vec::new();
    let buf: &mut [u8] = if need <= STACK_TEXT {
        &mut stack
    } else {
        heap.resize(need, 0);
        &mut heap
    };
    // Digits fill `buf[pos..end]`; `buf[end]` stays free for the '.'.
    let mut end = buf.len() - 1;
    let mut pos = end;
    while n > 0 {
        let mut rem = 0u64;
        for w in work[..n].iter_mut().rev() {
            let cur = (rem << 32) | *w as u64;
            rem = cur % CHUNK;
            *w = (cur / CHUNK) as Limb;
        }
        n = limbs::sig_limbs(&work[..n]);
        nine_digits(rem as u32, &mut buf[pos - 9..pos]);
        pos -= 9;
    }
    // The most significant chunk's leading zeros go; the scale's stay.
    while pos < end && buf[pos] == b'0' {
        pos += 1;
    }
    if end - pos <= scale {
        let first = end - scale - 1;
        buf[first..pos].fill(b'0');
        pos = first;
    }
    if scale > 0 {
        buf.copy_within(end - scale..end, end - scale + 1);
        buf[end - scale] = b'.';
        end += 1;
    }
    if neg {
        pos -= 1;
        buf[pos] = b'-';
    }
    sink(&buf[pos..end])
}

fn write_ascii(out: &mut impl fmt::Write, text: &[u8]) -> fmt::Result {
    out.write_str(core::str::from_utf8(text).expect("ASCII digits"))
}

/// Writes `±mag · 10^(−scale)` as decimal text: optional `-`, at least one
/// integer digit, and exactly `scale` fraction digits.
pub fn write_decimal(
    out: &mut impl fmt::Write,
    neg: bool,
    mag: &[Limb],
    scale: u32,
) -> fmt::Result {
    with_scratch(mag.len(), |work| {
        work.copy_from_slice(mag);
        render_limbs(neg, work, scale, |text| write_ascii(out, text))
    })
}

/// Renders a compact value of the given scale and hands the text to `sink`.
fn render_compact<R>(bytes: &[u8], scale: u32, sink: impl FnOnce(&[u8]) -> R) -> R {
    with_scratch(bytes.len().div_ceil(4), |work| {
        for (k, w) in work.iter_mut().enumerate() {
            *w = compact_limb(bytes, k);
        }
        render_limbs(compact_sign_bit(bytes), work, scale, sink)
    })
}

/// Writes a compact value of the given scale as decimal text — the same
/// text as `decode_compact(bytes, ty).to_string()`, without the value.
pub fn write_compact(out: &mut impl fmt::Write, bytes: &[u8], scale: u32) -> fmt::Result {
    render_compact(bytes, scale, |text| write_ascii(out, text))
}

/// [`write_compact`] appending to a byte buffer (a wire frame under
/// construction): the same text, with no `str` in between.
pub fn append_compact(out: &mut Vec<u8>, bytes: &[u8], scale: u32) {
    render_compact(bytes, scale, |text| out.extend_from_slice(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{decode_compact, encode_compact};
    use crate::dtype::DecimalType;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    fn text(bytes: &[u8], scale: u32) -> String {
        let mut s = String::new();
        write_compact(&mut s, bytes, scale).unwrap();
        s
    }

    #[test]
    fn negative_zero_is_zero() {
        // DECIMAL(10,2): five bytes; only the sign bit set.
        let t = ty(10, 2);
        let neg_zero = [0, 0, 0, 0, 0x80];
        let zero = [0u8; 5];
        let one = encode_compact(&UpDecimal::parse("0.01", t).unwrap(), t).unwrap();
        let minus_one = encode_compact(&UpDecimal::parse("-0.01", t).unwrap(), t).unwrap();
        assert_eq!(cmp_compact(&neg_zero, &zero), Ordering::Equal);
        assert_eq!(cmp_compact(&zero, &neg_zero), Ordering::Equal);
        assert_eq!(cmp_compact(&neg_zero, &neg_zero), Ordering::Equal);
        assert_eq!(cmp_compact(&neg_zero, &one), Ordering::Less);
        assert_eq!(cmp_compact(&neg_zero, &minus_one), Ordering::Greater);
        assert_eq!(cmp_compact(&minus_one, &neg_zero), Ordering::Less);
        assert_eq!(text(&neg_zero, 2), "0.00");
        assert!(decode_compact(&neg_zero, t).is_zero());
        let mut acc = SumAcc::new(t.lw());
        acc.add_compact(&neg_zero);
        assert!(acc.finish().is_zero());
        acc.add_compact(&minus_one);
        acc.add_compact(&neg_zero);
        assert_eq!(acc.finish(), BigInt::from(-1i64));
    }

    #[test]
    fn accumulator_carries_into_the_extra_word() {
        // 2²⁰ maximal 4-byte cells (31 magnitude bits) into a one-word
        // result: the total needs 51 bits, so it lives in the extra word.
        let max = [0xff, 0xff, 0xff, 0x7f];
        let mut acc = SumAcc::new(1);
        let mut neg = SumAcc::new(1);
        for _ in 0..1 << 20 {
            acc.add_compact(&max);
            neg.add_compact(&[0xff; 4]);
        }
        let expect = BigInt::from((i32::MAX as i64) << 20);
        assert_eq!(acc.finish(), expect);
        assert_eq!(neg.finish(), expect.neg());
        acc.merge(&neg);
        assert!(acc.finish().is_zero(), "exact cancellation");
    }

    #[test]
    fn accumulator_grows_instead_of_wrapping() {
        let mut acc = SumAcc::new(1);
        let wide = BigInt::parse_dec("123456789012345678901234567890123456789").unwrap();
        acc.add_int(&wide);
        acc.add_int(&wide);
        acc.add_compact(&[1, 0, 0, 0, 0, 0, 0, 0, 0x80]); // −1 in nine bytes
        assert_eq!(acc.finish(), wide.add(&wide).sub(&BigInt::one()));
        // A carry out of the top word grows the accumulator too.
        let mut acc = SumAcc::new(0);
        acc.add_int(&BigInt::from(u32::MAX as u64));
        acc.add_int(&BigInt::from(1u64));
        assert_eq!(acc.finish(), BigInt::from(1u64 << 32));
    }

    #[test]
    fn add_decimal_aligns_only_a_smaller_scale() {
        let mut acc = SumAcc::new(2);
        acc.add_decimal(&UpDecimal::parse("1.50", ty(5, 2)).unwrap(), 2);
        acc.add_decimal(&UpDecimal::parse("-0.5", ty(5, 1)).unwrap(), 2);
        assert_eq!(acc.finish(), BigInt::from(100i64));
    }

    /// Digit by digit through `BigInt::div_rem` by ten: shares nothing
    /// with the writer's 10⁹ chunks, pair table or `.` placement.
    fn reference(int: &BigInt, scale: u32) -> String {
        let ten = BigInt::from(10u64);
        let (mut v, mut text) = (int.abs(), Vec::new());
        while !v.is_zero() || text.len() <= scale as usize {
            let (q, r) = v.div_rem(&ten);
            text.push(b'0' + r.mag().first().map_or(0, |&d| d as u8));
            v = q;
        }
        if scale > 0 {
            text.insert(scale as usize, b'.');
        }
        if int.is_negative() {
            text.push(b'-');
        }
        text.reverse();
        String::from_utf8(text).unwrap()
    }

    #[test]
    fn nine_digits_equals_zero_padded_formatting() {
        let edges = [0, 1, 9, 10, 99, 100, 99_999_999, 100_000_000, 999_999_999];
        for chunk in (0..1_000_000_000).step_by(7919).chain(edges) {
            let mut got = [0u8; 9];
            nine_digits(chunk, &mut got);
            assert_eq!(got, format!("{chunk:09}").as_bytes(), "{chunk}");
        }
    }

    #[test]
    fn radix_writer_equals_digit_by_digit_division() {
        let mut mags: Vec<Vec<Limb>> = vec![vec![], vec![0, 0, 0]];
        // Chunk boundaries, up to 432 digits: 45 limbs, past STACK_LIMBS
        // and (with the scales below) past STACK_TEXT, so the heap paths.
        for k in 1..=48 {
            let p = BigInt::from(10u64).pow(9 * k);
            for v in [p.sub(&BigInt::one()), p.clone(), p.add(&BigInt::one())] {
                mags.push(v.mag().to_vec());
            }
        }
        mags.extend((1..=44).map(|n| vec![Limb::MAX; n]));
        mags.extend([1, 9, 10, 99, 100, 999_999_999, 1_000_000_000, Limb::MAX].map(|w| vec![w]));
        for mag in &mags {
            let digits = BigInt::from_sign_mag(Sign::Plus, mag.clone()).dec_digits();
            for scale in [0, 2, 38, digits.saturating_sub(1), digits, digits + 1] {
                for neg in [false, true] {
                    let int = BigInt::from_sign_mag(if neg { Sign::Minus } else { Sign::Plus }, mag.clone());
                    let mut got = String::new();
                    write_decimal(&mut got, neg, mag, scale).unwrap();
                    assert_eq!(got, reference(&int, scale), "{mag:?} scale {scale} neg {neg}");
                }
            }
        }
        assert_eq!(reference(&BigInt::zero(), 0), "0");
        assert_eq!(reference(&BigInt::zero(), 2), "0.00");
        assert_eq!(reference(&BigInt::from(-5i64), 38), format!("-0.{}5", "0".repeat(37)));
    }

    #[test]
    fn text_pads_to_the_scale() {
        let cases = [
            ("0", 5, 0, "0"),
            ("0", 5, 2, "0.00"),
            ("-0.5", 2, 1, "-0.5"),
            ("0.0001", 9, 4, "0.0001"),
            ("-1.23", 10, 2, "-1.23"),
            ("1000000000", 10, 0, "1000000000"),
            ("999999999.999999999", 18, 9, "999999999.999999999"),
            ("0.000000001000000001", 18, 18, "0.000000001000000001"),
        ];
        for (lit, p, s, want) in cases {
            let t = ty(p, s);
            let v = UpDecimal::parse(lit, t).unwrap();
            assert_eq!(v.to_string(), want);
            assert_eq!(text(&encode_compact(&v, t).unwrap(), s), want);
        }
        // Scale far beyond the digit count, past the stack buffer.
        let mut s = String::new();
        write_decimal(&mut s, true, &[7], 500).unwrap();
        assert_eq!(s, format!("-0.{}7", "0".repeat(499)));
    }
}
