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
use crate::div::div_2by1;
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

/// `acc += addend · 2^(32·at)`, growing `acc` instead of dropping a
/// carry.
#[inline]
fn accumulate(acc: &mut Vec<Limb>, at: usize, addend: &[Limb]) {
    let n = at + addend.len();
    if acc.len() <= n {
        acc.resize(n + 1, 0);
    }
    let mut carry = false;
    for (k, slot) in acc.iter_mut().enumerate().skip(at) {
        if k >= n && !carry {
            return;
        }
        let limb = addend.get(k - at).copied().unwrap_or(0);
        *slot = limbs::add_carry(*slot, limb, &mut carry);
    }
    if carry {
        acc.push(1);
    }
}

/// The SUM accumulator of a decimal column: one fixed-width magnitude for
/// the positive addends and one for the negative ones, subtracted once in
/// [`SumAcc::finish`]. A column is added by [`SumAcc::add_cells`] in one
/// carry-save pass; integer addition is associative, so cells may be
/// added in any order and grouping with the same result.
///
/// Sized for the §III-B3 result type (`Lw(out) + 1` words each, the extra
/// word absorbing any carry of in-range addends); out-of-range input grows
/// the accumulator rather than wrapping.
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

    /// Adds the compact cells `rows` of `column`, whose cells are `lb`
    /// bytes each, back to back (any `Lb`; the unscaled integers are added
    /// as they are, so the column's scale must be the result's scale).
    ///
    /// Carry-save: each cell is read as 64-bit words, its sign bit becomes
    /// a 0/−1 mask, and `±word` adds into one `i128` lane per word position
    /// — no carry chain, no sign branch and no allocation per row. The
    /// lanes carry into the accumulator once, at the end. A lane's
    /// magnitude stays below `rows · 2⁶⁴`, so the fold is exact for fewer
    /// than 2⁶³ rows.
    pub fn add_cells(&mut self, column: &[u8], lb: usize, rows: impl IntoIterator<Item = usize>) {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        // Words `0..top` of a cell are whole. The top word is read as the
        // eight bytes that end the cell, in place — the low `shift` bits
        // belong to the word or cell before it — and shifted down.
        let top = lb.div_ceil(8) - 1;
        let shift = 8 * (8 * (top + 1) - lb) as u32;
        with_scratch::<i128, 2, STACK_WORDS, _>(top + 1, |lanes| {
            let (body, high) = lanes.split_at_mut(top);
            let mut n = 0u64;
            for r in rows {
                let (start, end) = (r * lb, (r + 1) * lb);
                let raw = match end.checked_sub(8) {
                    Some(at) => word(&column[at..end]),
                    // One of the first cells of a column of short cells: zeros
                    // stand in for the bytes before the column.
                    None => {
                        let mut padded = [0; 8];
                        padded[8 - end..].copy_from_slice(&column[..end]);
                        u64::from_le_bytes(padded)
                    }
                };
                let m = -((raw >> 63) as i64);
                high[0] += ((((raw << 1 >> 1) >> shift) as i64 ^ m) - m) as i128;
                let (m, cell) = (m as i128, &column[start..start + 8 * top]);
                for (lane, w) in body.iter_mut().zip(cell.chunks_exact(8)) {
                    *lane += (word(w) as i128 ^ m) - m;
                }
                n += 1;
            }
            debug_assert!(n < 1 << 63, "i128 lanes are exact below 2⁶³ rows");
            for (j, &lane) in lanes.iter().enumerate().filter(|(_, &l)| l != 0) {
                let mag = lane.unsigned_abs();
                let words: [Limb; 4] = core::array::from_fn(|i| (mag >> (32 * i)) as Limb);
                let acc = if lane < 0 {
                    &mut self.neg
                } else {
                    &mut self.pos
                };
                accumulate(acc, 2 * j, &words[..limbs::sig_limbs(&words)]);
            }
        })
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
        accumulate(acc, 0, v.mag());
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

/// Words kept on the stack while folding or rendering: LEN 32 plus SUM
/// growth.
const STACK_WORDS: usize = 20;
/// Text bytes kept on the stack: what [`render_words`] needs for that many.
const STACK_TEXT: usize = 20 * STACK_WORDS + 22;

/// Runs `f` over `n` zeroed scratch elements: a `SMALL` stack array when
/// that holds them — a short value zeroes little, per call — then a `BIG`
/// one, then one heap buffer.
fn with_scratch<T: Copy + Default, const SMALL: usize, const BIG: usize, R>(
    n: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if n <= SMALL {
        f(&mut [T::default(); SMALL][..n])
    } else if n <= BIG {
        f(&mut [T::default(); BIG][..n])
    } else {
        f(&mut vec![T::default(); n])
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

/// 10¹⁹, the largest power of ten in a word. It is at least 2⁶³, so it is
/// a normalized divisor for [`div_2by1`] as it stands.
const CHUNK: u64 = 10_000_000_000_000_000_000;
/// `div::reciprocal(CHUNK)`, evaluated at compile time.
const CHUNK_INV: u64 = ((((!CHUNK as u128) << 64) | u64::MAX as u128) / CHUNK as u128) as u64;

/// Renders `±work · 10^(−scale)`, destroying `work`, and hands the ASCII
/// text to `sink`. While more than a word's worth is left, each pass
/// divides by 10¹⁹ with one Möller–Granlund 2-by-1 step per word and peels
/// nineteen digits (1 + 9 + 9); the last word goes nine digits at a time.
/// Digits fill the tail of one flat buffer; the sign, the zero padding out
/// to the scale and the `.` are placed once, afterwards.
fn render_words<R>(neg: bool, work: &mut [u64], scale: u32, sink: impl FnOnce(&[u8]) -> R) -> R {
    const NINE: u64 = 1_000_000_000;
    let scale = scale as usize;
    let mut n = work.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    let neg = neg && n > 0;
    // Nineteen digits per pass and ≤ 19.27 per word, or zero padding out to
    // the scale; plus the integer "0", '-', and the slot the '.' opens up.
    let need = (20 * n + 19).max(scale) + 3;
    with_scratch::<u8, 64, STACK_TEXT, R>(need, |buf| {
        // Digits fill `buf[pos..end]`; `buf[end]` stays free for the '.'.
        let mut end = buf.len() - 1;
        let mut pos = end;
        while n > 1 || n == 1 && work[0] >= CHUNK {
            let mut rem = 0;
            for w in work[..n].iter_mut().rev() {
                (*w, rem) = div_2by1(rem, *w, CHUNK, CHUNK_INV);
            }
            // A quotient by less than 2⁶⁴ is at most one word shorter.
            n -= (work[n - 1] == 0) as usize;
            let low = rem % (NINE * NINE);
            buf[pos - 19] = b'0' + (rem / (NINE * NINE)) as u8;
            nine_digits((low / NINE) as u32, &mut buf[pos - 18..pos - 9]);
            nine_digits((low % NINE) as u32, &mut buf[pos - 9..pos]);
            pos -= 19;
        }
        let mut last = if n == 0 { 0 } else { work[0] };
        while last > 0 {
            nine_digits((last % NINE) as u32, &mut buf[pos - 9..pos]);
            last /= NINE;
            pos -= 9;
        }
        // The most significant chunk's leading zeros go (up to 18, so
        // eight at a time first); the scale's stay.
        while end - pos > 8 && buf[pos..pos + 8] == *b"00000000" {
            pos += 8;
        }
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
    })
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
    with_scratch::<u64, 2, STACK_WORDS, _>(mag.len().div_ceil(2), |work| {
        for (w, pair) in work.iter_mut().zip(mag.chunks(2)) {
            *w = pair.iter().rev().fold(0, |w, &l| w << 32 | l as u64);
        }
        render_words(neg, work, scale, |text| write_ascii(out, text))
    })
}

/// Renders a compact value of the given scale and hands the text to `sink`.
fn render_compact<R>(bytes: &[u8], scale: u32, sink: impl FnOnce(&[u8]) -> R) -> R {
    with_scratch::<u64, 2, STACK_WORDS, _>(bytes.len().div_ceil(8), |work| {
        for (w, chunk) in work.iter_mut().zip(bytes.chunks(8)) {
            *w = match chunk.try_into() {
                Ok(whole) => u64::from_le_bytes(whole),
                Err(_) => chunk.iter().rev().fold(0, |w, &b| w << 8 | b as u64),
            };
        }
        // The sign bit is the top bit of the last byte.
        if let Some(top) = work.last_mut() {
            *top &= !(0x80 << (8 * ((bytes.len() - 1) % 8)));
        }
        render_words(compact_sign_bit(bytes), work, scale, sink)
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
        acc.add_cells(&neg_zero, 5, [0]);
        assert!(acc.finish().is_zero());
        acc.add_cells(&[minus_one, neg_zero.to_vec()].concat(), 5, [0, 1]);
        assert_eq!(acc.finish(), BigInt::from(-1i64));
    }

    #[test]
    fn accumulator_carries_into_the_extra_word() {
        // 2²⁰ maximal 4-byte cells (31 magnitude bits) into a one-word
        // result: the total needs 51 bits, so it lives in the extra word.
        let max = [0xff, 0xff, 0xff, 0x7f];
        let mut acc = SumAcc::new(1);
        let mut neg = SumAcc::new(1);
        acc.add_cells(&max.repeat(1 << 20), 4, 0..1 << 20);
        neg.add_cells(&[0xff; 4].repeat(1 << 20), 4, 0..1 << 20);
        let expect = BigInt::from((i32::MAX as i64) << 20);
        assert_eq!(acc.finish(), expect);
        assert_eq!(neg.finish(), expect.neg());
        // The negative column into the same accumulator cancels exactly.
        acc.add_cells(&[0xff; 4].repeat(1 << 20), 4, 0..1 << 20);
        assert!(acc.finish().is_zero(), "exact cancellation");
    }

    #[test]
    fn accumulator_grows_instead_of_wrapping() {
        let mut acc = SumAcc::new(1);
        let wide = BigInt::parse_dec("123456789012345678901234567890123456789").unwrap();
        acc.add_int(&wide);
        acc.add_int(&wide);
        acc.add_cells(&[1, 0, 0, 0, 0, 0, 0, 0, 0x80], 9, [0]); // −1 in nine bytes
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
    /// with the writer's 10¹⁹ and 10⁹ chunks, pair table or `.` placement.
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
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut mags: Vec<Vec<Limb>> = vec![vec![], vec![0, 0, 0]];
        // Chunk boundaries of both passes, up to 437 digits: 46 limbs, past
        // STACK_WORDS and (with the scales below) past STACK_TEXT, so the
        // heap paths. 10^(19k) − 1 is chunks of all 9s; 10^(19k) + 1 and
        // 10^(19k) + 10^(19⌊k/2⌋) have zero chunks in the middle.
        let ten = BigInt::from(10u64);
        for k in 1..=48 {
            let p = ten.pow(9 * k);
            for v in [p.sub(&BigInt::one()), p.clone(), p.add(&BigInt::one())] {
                mags.push(v.mag().to_vec());
            }
        }
        for k in 1..=23 {
            let p = ten.pow(19 * k);
            let middle = p.add(&ten.pow(19 * (k / 2)));
            for v in [
                p.sub(&BigInt::one()),
                p.clone(),
                p.add(&BigInt::one()),
                middle,
            ] {
                mags.push(v.mag().to_vec());
            }
        }
        mags.extend((1..=44).map(|n| vec![Limb::MAX; n]));
        mags.extend([1, 9, 10, 99, 100, 999_999_999, 1_000_000_000, Limb::MAX].map(|w| vec![w]));
        let mut rng = StdRng::seed_from_u64(0x5eed_d161);
        let random = (1..=48).map(|n| (0..n).map(|_| rng.next_u32()).collect::<Vec<Limb>>());
        let mags = mags
            .into_iter()
            .map(|m| (m, false))
            .chain(random.map(|m| (m, true)));
        for (mag, random) in mags {
            let mag = &mag;
            let digits = BigInt::from_sign_mag(Sign::Plus, mag.clone()).dec_digits();
            let mut scales = vec![0, 2, 38, digits.saturating_sub(1), digits, digits + 1];
            if random {
                // Straddle every 19-digit chunk boundary.
                scales.extend(
                    (19..=digits + 1)
                        .step_by(19)
                        .flat_map(|b| [b - 1, b, b + 1]),
                );
            }
            for scale in scales {
                for neg in [false, true] {
                    let int = BigInt::from_sign_mag(
                        if neg { Sign::Minus } else { Sign::Plus },
                        mag.clone(),
                    );
                    let mut got = String::new();
                    write_decimal(&mut got, neg, mag, scale).unwrap();
                    assert_eq!(
                        got,
                        reference(&int, scale),
                        "{mag:?} scale {scale} neg {neg}"
                    );
                }
            }
        }
        assert_eq!(reference(&BigInt::zero(), 0), "0");
        assert_eq!(reference(&BigInt::zero(), 2), "0.00");
        assert_eq!(
            reference(&BigInt::from(-5i64), 38),
            format!("-0.{}5", "0".repeat(37))
        );
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
