//! Low-level multi-word ("limb") integer primitives.
//!
//! UltraPrecise stores a `DECIMAL` magnitude as an array of 32-bit words,
//! least-significant word first (paper §III-B, Fig. 4). Every routine here
//! mirrors an operation the paper implements with PTX on the GPU:
//!
//! * [`add_carry`] / [`sub_borrow`] are the software equivalents of
//!   `add.cc.u32`/`addc.cc.u32` and `sub.cc.u32`/`subc.cc.u32` (Listing 2);
//! * [`bit_len`] is the `bfind.u32` analogue used to bracket the quotient
//!   range in the division algorithm (§III-C2);
//! * [`cmp`] compares most-significant word first, returning as soon as two
//!   words differ (§II-B).
//!
//! All slices are little-endian limb order and may carry leading (i.e.
//! high-order) zero limbs; [`sig_limbs`] strips them logically.

use core::cmp::Ordering;

/// A single 32-bit machine word of a multi-word integer.
pub type Limb = u32;

/// Bits per limb.
pub const LIMB_BITS: u32 = 32;

/// Adds `a + b + carry_in`, returning the low word and updating the carry
/// flag — the software twin of PTX `addc.cc.u32`.
#[inline(always)]
pub fn add_carry(a: Limb, b: Limb, carry: &mut bool) -> Limb {
    let (s1, c1) = a.overflowing_add(b);
    let (s2, c2) = s1.overflowing_add(*carry as Limb);
    *carry = c1 | c2;
    s2
}

/// Subtracts `a - b - borrow_in`, returning the low word and updating the
/// borrow flag — the software twin of PTX `subc.cc.u32`.
#[inline(always)]
pub fn sub_borrow(a: Limb, b: Limb, borrow: &mut bool) -> Limb {
    let (d1, b1) = a.overflowing_sub(b);
    let (d2, b2) = d1.overflowing_sub(*borrow as Limb);
    *borrow = b1 | b2;
    d2
}

/// Number of significant limbs in `a` (ignoring high-order zeros).
#[inline]
pub fn sig_limbs(a: &[Limb]) -> usize {
    let mut n = a.len();
    while n > 0 && a[n - 1] == 0 {
        n -= 1;
    }
    n
}

/// True iff every limb is zero.
#[inline]
pub fn is_zero(a: &[Limb]) -> bool {
    a.iter().all(|&w| w == 0)
}

/// Bit length of the magnitude: position of the most significant set bit
/// plus one, or 0 for zero. This is what the paper derives with `bfind`.
#[inline]
pub fn bit_len(a: &[Limb]) -> u64 {
    let n = sig_limbs(a);
    if n == 0 {
        return 0;
    }
    (n as u64 - 1) * LIMB_BITS as u64 + (LIMB_BITS - a[n - 1].leading_zeros()) as u64
}

/// Returns whether bit `i` (0-based from the least significant bit) is set.
#[inline]
pub fn get_bit(a: &[Limb], i: u64) -> bool {
    let limb = (i / LIMB_BITS as u64) as usize;
    if limb >= a.len() {
        return false;
    }
    (a[limb] >> (i % LIMB_BITS as u64)) & 1 == 1
}

/// Compares two magnitudes, most significant word first (§II-B): the result
/// is derived as soon as two words differ.
pub fn cmp(a: &[Limb], b: &[Limb]) -> Ordering {
    let (na, nb) = (sig_limbs(a), sig_limbs(b));
    if na != nb {
        return na.cmp(&nb);
    }
    for i in (0..na).rev() {
        if a[i] != b[i] {
            return a[i].cmp(&b[i]);
        }
    }
    Ordering::Equal
}

/// `acc += rhs`, propagating carries across the whole of `acc`; returns the
/// final carry-out. `rhs` must not be longer (in significant limbs) than
/// `acc`.
pub fn add_assign(acc: &mut [Limb], rhs: &[Limb]) -> bool {
    debug_assert!(sig_limbs(rhs) <= acc.len());
    let mut carry = false;
    for (i, slot) in acc.iter_mut().enumerate() {
        let r = if i < rhs.len() { rhs[i] } else { 0 };
        if r == 0 && !carry {
            continue;
        }
        *slot = add_carry(*slot, r, &mut carry);
    }
    carry
}

/// `acc -= rhs`; returns the final borrow-out (true iff `rhs > acc`).
pub fn sub_assign(acc: &mut [Limb], rhs: &[Limb]) -> bool {
    debug_assert!(rhs.len() <= acc.len() || sig_limbs(rhs) <= acc.len());
    let mut borrow = false;
    for (i, slot) in acc.iter_mut().enumerate() {
        let r = if i < rhs.len() { rhs[i] } else { 0 };
        if r == 0 && !borrow {
            continue;
        }
        *slot = sub_borrow(*slot, r, &mut borrow);
    }
    borrow
}

/// Sum of two magnitudes as a fresh vector (always large enough for the
/// carry-out).
pub fn add(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = false;
    for i in 0..long.len() {
        let s = if i < short.len() { short[i] } else { 0 };
        out.push(add_carry(long[i], s, &mut carry));
    }
    if carry {
        out.push(1);
    }
    out
}

/// Difference `a - b` as a fresh vector. Requires `a >= b` (checked via
/// debug assertion); the caller decides minuend/subtrahend by comparing
/// first, exactly as the paper's addition function does (§II-B).
pub fn sub(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    debug_assert!(cmp(a, b) != Ordering::Less, "sub requires a >= b");
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = false;
    for i in 0..a.len() {
        let r = if i < b.len() { b[i] } else { 0 };
        out.push(sub_borrow(a[i], r, &mut borrow));
    }
    debug_assert!(!borrow);
    out
}

/// Shift left by `n` whole limbs (multiply by 2^(32 n)).
pub fn shl_limbs(a: &[Limb], n: usize) -> Vec<Limb> {
    if is_zero(a) {
        return Vec::new();
    }
    let mut out = vec![0; n + a.len()];
    out[n..].copy_from_slice(a);
    out
}

/// Shift left by an arbitrary bit count.
pub fn shl_bits(a: &[Limb], bits: u64) -> Vec<Limb> {
    let limbs = (bits / LIMB_BITS as u64) as usize;
    let rem = (bits % LIMB_BITS as u64) as u32;
    let mut out = shl_limbs(a, limbs);
    if rem == 0 || out.is_empty() {
        return out;
    }
    let mut carry = 0u32;
    for w in out.iter_mut().skip(limbs) {
        let nw = (*w << rem) | carry;
        carry = *w >> (LIMB_BITS - rem);
        *w = nw;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Drops high-order zero limbs in place.
#[inline]
pub fn trim(a: &mut Vec<Limb>) {
    let n = sig_limbs(a);
    a.truncate(n);
}

/// `acc[k..] += a * b` where `b` is a single limb — one row of the
/// elementary-school multiplication (§II-B). `acc` must be long enough to
/// absorb the product and the trailing carry.
pub fn mul_limb_add(acc: &mut [Limb], a: &[Limb], b: Limb, k: usize) {
    if b == 0 {
        return;
    }
    let mut carry: u64 = 0;
    for (i, &ai) in a.iter().enumerate() {
        let t = ai as u64 * b as u64 + acc[k + i] as u64 + carry;
        acc[k + i] = t as Limb;
        carry = t >> 32;
    }
    let mut j = k + a.len();
    while carry != 0 {
        let t = acc[j] as u64 + carry;
        acc[j] = t as Limb;
        carry = t >> 32;
        j += 1;
    }
}

/// Multiplies a magnitude by a single limb, returning a fresh vector.
pub fn mul_limb(a: &[Limb], b: Limb) -> Vec<Limb> {
    if b == 0 || is_zero(a) {
        return Vec::new();
    }
    let mut out = vec![0; a.len() + 1];
    mul_limb_add(&mut out, a, b, 0);
    trim(&mut out);
    out
}

/// Divides a magnitude by a single limb in place, returning the remainder.
/// This is the paper's §III-C2 fast path "if the divisor is only a 32-bit
/// word, divide the dividend from the most significant word to the least".
pub fn div_limb_in_place(a: &mut [Limb], d: Limb) -> Limb {
    debug_assert!(d != 0);
    let mut rem: u64 = 0;
    for w in a.iter_mut().rev() {
        let cur = (rem << 32) | *w as u64;
        *w = (cur / d as u64) as Limb;
        rem = cur % d as u64;
    }
    rem as Limb
}

/// Converts up to two significant limbs to a `u64`, or `None` if the value
/// does not fit. Used for the paper's "both operands fit in a 64-bit word →
/// use the `div` instruction directly" fast path.
pub fn to_u64(a: &[Limb]) -> Option<u64> {
    match sig_limbs(a) {
        0 => Some(0),
        1 => Some(a[0] as u64),
        2 => Some(a[0] as u64 | (a[1] as u64) << 32),
        _ => None,
    }
}

/// Builds a limb vector from a `u64`.
pub fn from_u64(v: u64) -> Vec<Limb> {
    if v == 0 {
        Vec::new()
    } else if v >> 32 == 0 {
        vec![v as Limb]
    } else {
        vec![v as Limb, (v >> 32) as Limb]
    }
}

/// Builds a limb vector from a `u128`.
pub fn from_u128(v: u128) -> Vec<Limb> {
    let mut out = Vec::with_capacity(4);
    let mut v = v;
    while v != 0 {
        out.push(v as Limb);
        v >>= 32;
    }
    out
}

/// Converts significant limbs to `u128` if they fit.
pub fn to_u128(a: &[Limb]) -> Option<u128> {
    if sig_limbs(a) > 4 {
        return None;
    }
    let mut v: u128 = 0;
    for (i, &w) in a.iter().enumerate().take(4) {
        v |= (w as u128) << (32 * i);
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_carry_chains_like_addc() {
        let mut c = false;
        assert_eq!(add_carry(u32::MAX, 1, &mut c), 0);
        assert!(c);
        assert_eq!(add_carry(0, 0, &mut c), 1); // carry-in consumed
        assert!(!c);
    }

    #[test]
    fn sub_borrow_chains_like_subc() {
        let mut b = false;
        assert_eq!(sub_borrow(0, 1, &mut b), u32::MAX);
        assert!(b);
        assert_eq!(sub_borrow(5, 2, &mut b), 2); // borrow-in consumed
        assert!(!b);
    }

    #[test]
    fn add_and_sub_round_trip() {
        let a = vec![u32::MAX, u32::MAX, 3];
        let b = vec![1, 0, 7];
        let s = add(&a, &b);
        assert_eq!(to_u128(&s).unwrap(), to_u128(&a).unwrap() + to_u128(&b).unwrap());
        let d = sub(&s, &b);
        assert_eq!(cmp(&d, &a), Ordering::Equal);
    }

    #[test]
    fn cmp_most_significant_first() {
        assert_eq!(cmp(&[0, 1], &[u32::MAX]), Ordering::Greater);
        assert_eq!(cmp(&[5, 0, 0], &[5]), Ordering::Equal);
        assert_eq!(cmp(&[1, 2], &[2, 2]), Ordering::Less);
    }

    #[test]
    fn bit_len_matches_bfind_semantics() {
        assert_eq!(bit_len(&[]), 0);
        assert_eq!(bit_len(&[0, 0]), 0);
        assert_eq!(bit_len(&[1]), 1);
        assert_eq!(bit_len(&[0b1000]), 4);
        assert_eq!(bit_len(&[0, 1]), 33);
    }

    #[test]
    fn shl_bits_matches_repeated_doubling() {
        let a = vec![0xdead_beef, 0x1234_5678];
        let mut want = a.clone();
        for bits in 0u64..=65 {
            assert_eq!(cmp(&shl_bits(&a, bits), &want), Ordering::Equal, "bits={bits}");
            want = mul_limb(&want, 2);
        }
    }

    #[test]
    fn mul_limb_matches_u128() {
        let a = vec![u32::MAX, 17, 0x8000_0000];
        let p = mul_limb(&a, 12345);
        assert_eq!(to_u128(&p).unwrap(), to_u128(&a).unwrap() * 12345);
    }

    #[test]
    fn div_limb_most_significant_first() {
        let mut a = from_u128(123_456_789_012_345_678_901_234_567u128);
        let r = div_limb_in_place(&mut a, 1_000_000_007);
        let q = to_u128(&a).unwrap();
        assert_eq!(
            q * 1_000_000_007u128 + r as u128,
            123_456_789_012_345_678_901_234_567u128
        );
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, u32::MAX as u64, u64::MAX, 0x1_0000_0000] {
            assert_eq!(to_u64(&from_u64(v)), Some(v));
        }
        assert_eq!(to_u64(&[1, 2, 3]), None);
    }
}
