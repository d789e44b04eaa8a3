//! Multi-word division.
//!
//! The paper describes four ways to divide (§II-B, §III-C2):
//!
//! 1. fast paths — if both operands fit in a 64-bit word, a single `div`
//!    instruction; if the divisor is one 32-bit word, divide the dividend
//!    word-by-word from the most significant end ([`div_rem`] dispatches
//!    both);
//! 2. the GPU single-thread algorithm — bracket the quotient range with
//!    `bfind` (most-significant-bit positions) and **binary-search** the
//!    quotient ([`div_rem_binary_search`]);
//! 3. **Newton–Raphson** reciprocal iteration, used by the CGBN-based
//!    multi-threaded kernels ([`div_rem_newton`]);
//! 4. the **Goldschmidt** convergence division ([`div_rem_goldschmidt`]).
//!
//! The CPU-reference algorithm backing everything else is Knuth's
//! Algorithm D ([`div_rem_knuth`]). All five agree bit-for-bit; the
//! property tests at the crate root cross-check them.

use crate::limbs::{self, Limb};
use crate::mul;
use core::cmp::Ordering;

/// Quotient and remainder of `a / b` (magnitudes). Dispatches the paper's
/// fast paths before falling back to Knuth's Algorithm D.
///
/// # Panics
/// Panics if `b` is zero.
pub fn div_rem(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let n = limbs::sig_limbs(b);
    let m = limbs::sig_limbs(a);
    let mut q = vec![0 as Limb; (m + 1).saturating_sub(n)];
    let mut r = vec![0 as Limb; n];
    div_rem_into(a, b, &mut q, &mut r, &mut Vec::new());
    limbs::trim(&mut q);
    limbs::trim(&mut r);
    (q, r)
}

/// [`div_rem`] into caller slices: the low `q.len()` limbs of the quotient
/// and the low `r.len()` limbs of the remainder, zero-extended, with all
/// working storage in `scratch` — a caller that keeps the three buffers
/// (the simulator's `DivBig`, once per lane) divides without allocating.
/// Same fast paths, same results.
///
/// # Panics
/// Panics if `b` is zero.
pub fn div_rem_into(
    a: &[Limb],
    b: &[Limb],
    q: &mut [Limb],
    r: &mut [Limb],
    scratch: &mut Vec<Limb>,
) {
    let n = limbs::sig_limbs(b);
    assert!(n > 0, "division by zero");
    let m = limbs::sig_limbs(a);
    let (a, b) = (&a[..m], &b[..n]);
    q.fill(0);
    r.fill(0);
    fn put(dst: &mut [Limb], src: &[Limb]) {
        let k = dst.len().min(src.len());
        dst[..k].copy_from_slice(&src[..k]);
    }
    if m == 0 || limbs::cmp(a, b) == Ordering::Less {
        return put(r, a);
    }
    // Fast path 1: both operands fit in 64 bits → hardware `div`.
    if let (Some(x), Some(y)) = (limbs::to_u64(a), limbs::to_u64(b)) {
        put(q, &[(x / y) as Limb, ((x / y) >> 32) as Limb]);
        return put(r, &[(x % y) as Limb, ((x % y) >> 32) as Limb]);
    }
    // Fast path 2: single-word divisor → most-significant-first word division.
    if n == 1 {
        scratch.clear();
        scratch.extend_from_slice(a);
        let rem = limbs::div_limb_in_place(scratch, b[0]);
        put(q, scratch);
        return put(r, &[rem]);
    }
    knuth_into(a, b, q, r, scratch);
}

/// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit limbs, for trimmed
/// operands with `a ≥ b` and a divisor of two or more limbs; output
/// convention of [`div_rem_into`] (`q` and `r` arrive zeroed).
fn knuth_into(a: &[Limb], b: &[Limb], q: &mut [Limb], r: &mut [Limb], scratch: &mut Vec<Limb>) {
    let (m, n) = (a.len(), b.len());
    // D1: normalize so the divisor's top limb has its high bit set; the
    // dividend gains one limb.
    let shift = b[n - 1].leading_zeros();
    let shl_into = |dst: &mut [Limb], src: &[Limb]| {
        let mut carry = 0;
        for (d, &w) in dst.iter_mut().zip(src.iter().chain(core::iter::once(&0))) {
            *d = if shift == 0 { w } else { (w << shift) | carry };
            carry = if shift == 0 { 0 } else { w >> (32 - shift) };
        }
    };
    scratch.clear();
    scratch.resize(m + 1 + n, 0);
    let (an, bn) = scratch.split_at_mut(m + 1);
    shl_into(an, a);
    shl_into(bn, b);
    // D2..D7: main loop, one quotient limb per iteration.
    for j in (0..=m - n).rev() {
        // D3: estimate qhat from the top two dividend limbs over the top
        // divisor limb, then correct with the second divisor limb.
        let top = ((an[j + n] as u64) << 32) | an[j + n - 1] as u64;
        let mut qhat = top / bn[n - 1] as u64;
        let mut rhat = top % bn[n - 1] as u64;
        loop {
            if qhat >> 32 != 0
                || qhat * bn[n - 2] as u64 > ((rhat << 32) | an[j + n - 2] as u64)
            {
                qhat -= 1;
                rhat += bn[n - 1] as u64;
                if rhat >> 32 == 0 {
                    continue;
                }
            }
            break;
        }
        // D4: multiply-and-subtract qhat * bn from the dividend window.
        let window = &mut an[j..=j + n];
        let mut carry = 0u64;
        let mut borrow = false;
        for (w, &bi) in window.iter_mut().zip(bn.iter().chain(core::iter::once(&0))) {
            let p = qhat * bi as u64 + carry;
            carry = p >> 32;
            *w = limbs::sub_borrow(*w, p as Limb, &mut borrow);
        }
        if borrow {
            // D6: the estimate was one too large — add the divisor back.
            qhat -= 1;
            let carry = limbs::add_assign(window, bn);
            debug_assert!(carry, "add-back must cancel the borrow");
        }
        if let Some(qj) = q.get_mut(j) {
            *qj = qhat as Limb;
        }
    }
    // D8: denormalize the remainder (`an[n]` is zero by now).
    for (i, ri) in r.iter_mut().enumerate().take(n) {
        let hi = if shift == 0 { 0 } else { an[i + 1] << (32 - shift) };
        *ri = (an[i] >> shift) | hi;
    }
}

/// Knuth Algorithm D as fresh vectors, taken for every operand size (no
/// 64-bit fast path), so the cross-checks against the other algorithms
/// exercise it on small values too.
pub fn div_rem_knuth(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let n = limbs::sig_limbs(b);
    assert!(n > 0, "division by zero");
    let m = limbs::sig_limbs(a);
    if m == 0 || limbs::cmp(a, b) == Ordering::Less {
        return (Vec::new(), a[..m].to_vec());
    }
    if n == 1 {
        let mut q = a[..m].to_vec();
        let r = limbs::div_limb_in_place(&mut q, b[0]);
        limbs::trim(&mut q);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }
    let mut q = vec![0 as Limb; m - n + 1];
    let mut r = vec![0 as Limb; n];
    knuth_into(&a[..m], &b[..n], &mut q, &mut r, &mut Vec::new());
    limbs::trim(&mut q);
    limbs::trim(&mut r);
    (q, r)
}

/// The paper's single-thread GPU division (§III-C2): bracket the quotient
/// with the most-significant-bit positions of dividend and divisor
/// (`bfind`), then binary-search the quotient, testing each probe with a
/// full multiply-and-compare.
pub fn div_rem_binary_search(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let nb = limbs::sig_limbs(b);
    assert!(nb > 0, "division by zero");
    let na = limbs::sig_limbs(a);
    if na == 0 || limbs::cmp(a, b) == Ordering::Less {
        return (Vec::new(), a[..na].to_vec());
    }
    let la = limbs::bit_len(a);
    let lb = limbs::bit_len(b);
    // If a is 1xxxxx₂ and b is 1xxx₂ the quotient lies in
    // [2^(la-lb-1), 2^(la-lb+1)) — the paper's quotient range.
    let mut lo: Vec<Limb> = if la > lb {
        limbs::shl_bits(&[1], la - lb - 1)
    } else {
        vec![1]
    };
    let mut hi: Vec<Limb> = limbs::shl_bits(&[1], la - lb + 1); // exclusive
    // Invariant: lo*b <= a < hi*b. Find the largest q with q*b <= a.
    while {
        let mut gap = hi.clone();
        let borrow = limbs::sub_assign(&mut gap, &lo);
        debug_assert!(!borrow);
        limbs::trim(&mut gap);
        limbs::cmp(&gap, &[1]) == Ordering::Greater
    } {
        // mid = (lo + hi) / 2
        let mut mid = limbs::add(&lo, &hi);
        mid = limbs::shr_bits(&mid, 1);
        let prod = mul::mul(&mid, b);
        if limbs::cmp(&prod, a) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let prod = mul::mul(&lo, b);
    let mut r = a[..na].to_vec();
    let borrow = limbs::sub_assign(&mut r, &prod);
    debug_assert!(!borrow);
    limbs::trim(&mut r);
    limbs::trim(&mut lo);
    (lo, r)
}

/// Newton–Raphson division (§II-B): approximate `1/b` in fixed point by
/// iterating `xᵢ₊₁ = xᵢ(2 − b·xᵢ)`, then multiply by the dividend and
/// correct. This is the algorithm the multi-threaded (CGBN-style) kernels
/// use (§III-E1).
pub fn div_rem_newton(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let nb = limbs::sig_limbs(b);
    assert!(nb > 0, "division by zero");
    let na = limbs::sig_limbs(a);
    if na == 0 || limbs::cmp(a, b) == Ordering::Less {
        return (Vec::new(), a[..na].to_vec());
    }
    if nb == 1 {
        // Reciprocal iteration is pointless for single-word divisors.
        return div_rem(a, b);
    }
    let la = limbs::bit_len(a);
    let lb = limbs::bit_len(b);
    // x approximates floor(2^k / b) with k = la + 1 fraction bits.
    let k = la + 1;

    // Initial estimate from the divisor's top 32 bits:
    //   b ≈ b_top · 2^(lb−32)  ⇒  2^k/b ≈ (2^63 / b_top) · 2^(k−lb−31).
    let b_top = {
        let top = limbs::shr_bits(&b[..nb], lb - 32);
        top[0] as u64
    };
    let est = (1u64 << 63) / b_top; // 31..32 significant bits
    let mut x: Vec<Limb> = if k >= lb + 31 {
        limbs::shl_bits(&limbs::from_u64(est), k - lb - 31)
    } else {
        limbs::shr_bits(&limbs::from_u64(est), lb + 31 - k)
    };
    if limbs::is_zero(&x) {
        x = vec![1];
    }

    // Quadratic convergence: ~30 correct bits double per step.
    let two_pow_k1 = limbs::shl_bits(&[1], k + 1);
    let mut iters = 0;
    let max_iters = 2 * (64 - k.leading_zeros() as usize) + 4;
    loop {
        // e = 2^(k+1) − b·x ;  x' = (x · e) >> k
        let bx = mul::mul(b, &x);
        if limbs::cmp(&bx, &two_pow_k1) != Ordering::Less {
            // Overshoot: shrink x and retry.
            x = limbs::shr_bits(&x, 1);
            if limbs::is_zero(&x) {
                x = vec![1];
            }
            iters += 1;
            if iters > max_iters {
                break;
            }
            continue;
        }
        let mut e = two_pow_k1.clone();
        let borrow = limbs::sub_assign(&mut e, &bx);
        debug_assert!(!borrow);
        limbs::trim(&mut e);
        let nx = limbs::shr_bits(&mul::mul(&x, &e), k);
        iters += 1;
        if limbs::cmp(&nx, &x) == Ordering::Equal || iters > max_iters {
            x = nx;
            break;
        }
        x = nx;
    }

    // q ≈ (a · x) >> k, then correct the few-ULP error exactly.
    let mut q = limbs::shr_bits(&mul::mul(a, &x), k);
    correct_quotient(&mut q, a, b);
    let prod = mul::mul(&q, b);
    let mut r = a[..na].to_vec();
    let borrow = limbs::sub_assign(&mut r, &prod);
    debug_assert!(!borrow);
    limbs::trim(&mut r);
    limbs::trim(&mut q);
    (q, r)
}

/// Goldschmidt division (§II-B): scale numerator and denominator by a
/// convergence factor `F = 2 − D` until the denominator approaches 1; the
/// numerator then approaches the quotient.
pub fn div_rem_goldschmidt(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let nb = limbs::sig_limbs(b);
    assert!(nb > 0, "division by zero");
    let na = limbs::sig_limbs(a);
    if na == 0 || limbs::cmp(a, b) == Ordering::Less {
        return (Vec::new(), a[..na].to_vec());
    }
    let la = limbs::bit_len(a);
    let lb = limbs::bit_len(b);
    // Fixed point with f fraction bits; generous guard bits keep the
    // truncation error below the final correction's reach.
    let f = la + 64;
    let one = limbs::shl_bits(&[1], f);
    let two = limbs::shl_bits(&[1], f + 1);

    // Normalize: D₀ = b / 2^lb ∈ [0.5, 1), N₀ = a / 2^lb.
    let mut d = limbs::shl_bits(&b[..nb], f - lb);
    let mut n = limbs::shl_bits(&a[..na], f - lb);

    for _ in 0..128 {
        // F = 2 − D
        let mut fch = two.clone();
        let borrow = limbs::sub_assign(&mut fch, &d);
        debug_assert!(!borrow);
        limbs::trim(&mut fch);
        if limbs::cmp(&fch, &one) == Ordering::Equal {
            break; // D has converged to 1.0 at this precision
        }
        n = limbs::shr_bits(&mul::mul(&n, &fch), f);
        d = limbs::shr_bits(&mul::mul(&d, &fch), f);
    }
    let mut q = limbs::shr_bits(&n, f);
    correct_quotient(&mut q, a, b);
    let prod = mul::mul(&q, b);
    let mut r = a[..na].to_vec();
    let borrow = limbs::sub_assign(&mut r, &prod);
    debug_assert!(!borrow);
    limbs::trim(&mut r);
    limbs::trim(&mut q);
    (q, r)
}

/// Nudges an approximate quotient to the exact floor quotient.
fn correct_quotient(q: &mut Vec<Limb>, a: &[Limb], b: &[Limb]) {
    // Lower q while q*b > a.
    loop {
        let prod = mul::mul(q, b);
        if limbs::cmp(&prod, a) != Ordering::Greater {
            break;
        }
        let borrow = limbs::sub_assign(q, &[1]);
        debug_assert!(!borrow);
        limbs::trim(q);
    }
    // Raise q while (q+1)*b <= a.
    loop {
        let q1 = limbs::add(q, &[1]);
        let prod = mul::mul(&q1, b);
        if limbs::cmp(&prod, a) == Ordering::Greater {
            break;
        }
        *q = q1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::{from_u128, to_u128};

    fn check_all(a: u128, b: u128) {
        let (la, lb) = (from_u128(a), from_u128(b));
        let algos: [(&str, fn(&[Limb], &[Limb]) -> (Vec<Limb>, Vec<Limb>)); 5] = [
            ("dispatch", div_rem),
            ("knuth", div_rem_knuth),
            ("binary_search", div_rem_binary_search),
            ("newton", div_rem_newton),
            ("goldschmidt", div_rem_goldschmidt),
        ];
        for (name, f) in algos {
            let (q, r) = f(&la, &lb);
            assert_eq!(to_u128(&q).unwrap(), a / b, "{name}: q of {a}/{b}");
            assert_eq!(to_u128(&r).unwrap(), a % b, "{name}: r of {a}/{b}");
        }
    }

    #[test]
    fn all_algorithms_agree_on_u128_cases() {
        let cases: [(u128, u128); 10] = [
            (0, 3),
            (7, 7),
            (6, 7),
            (u128::MAX, 1),
            (u128::MAX, 2),
            (u128::MAX, u64::MAX as u128),
            (u128::MAX, u128::MAX - 1),
            (123_456_789_012_345_678_901_234_567_890, 997),
            (123_456_789_012_345_678_901_234_567_890, 10_000_000_000_000_000_000),
            (1 << 100, (1 << 50) + 1),
        ];
        for (a, b) in cases {
            check_all(a, b);
        }
    }

    #[test]
    fn knuth_add_back_case() {
        // Constructed to trigger the rare D6 add-back step.
        let a = vec![0, 0, 0x8000_0000];
        let b = vec![1, 0x8000_0000];
        let (q, r) = div_rem_knuth(&a, &b);
        // Verify by reconstruction: a = q*b + r, r < b.
        let mut recon = mul::mul(&q, &b);
        recon.resize(recon.len().max(3) + 1, 0);
        let carry = limbs::add_assign(&mut recon, &r);
        assert!(!carry);
        assert_eq!(limbs::cmp(&recon, &a), Ordering::Equal);
        assert_eq!(limbs::cmp(&r, &b), Ordering::Less);
    }

    #[test]
    fn large_operand_reconstruction() {
        // 20-limb / 7-limb division, checked by reconstruction.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let a: Vec<u32> = (0..20).map(|_| next() | 1).collect();
        let b: Vec<u32> = (0..7).map(|_| next() | 1).collect();
        for f in [div_rem_knuth, div_rem_binary_search, div_rem_newton, div_rem_goldschmidt] {
            let (q, r) = f(&a, &b);
            let mut recon = mul::mul(&q, &b);
            recon.resize(recon.len().max(a.len()) + 1, 0);
            assert!(!limbs::add_assign(&mut recon, &r));
            assert_eq!(limbs::cmp(&recon, &a), Ordering::Equal);
            assert_eq!(limbs::cmp(&r, &b), Ordering::Less);
        }
    }

    /// `div_rem_into` is `div_rem` zero-extended or truncated to the
    /// caller's slices, on every dispatch path (a < b, 64-bit, one-limb
    /// divisor, Knuth incl. the add-back case), with a dirty reused
    /// scratch and dirty outputs.
    #[test]
    fn div_rem_into_matches_div_rem_in_any_output_width() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let mut cases: Vec<(Vec<u32>, Vec<u32>)> =
            vec![(vec![0, 0, 0x8000_0000], vec![1, 0x8000_0000]), (vec![], vec![5]), (vec![0, 0], vec![7, 0])];
        for (an, bn) in [(1, 1), (2, 1), (2, 2), (1, 3), (5, 1), (6, 2), (9, 9), (20, 7), (12, 11)] {
            for _ in 0..8 {
                let a: Vec<u32> = (0..an).map(|_| next() >> (next() % 32)).collect();
                let b: Vec<u32> = (0..bn).map(|i| if i + 1 == bn { next() | 1 } else { next() }).collect();
                cases.push((a, b));
            }
        }
        let mut scratch = vec![0xdead_beef; 3];
        for (a, b) in cases {
            let (q, r) = div_rem(&a, &b);
            for (qn, rn) in [(a.len() + 2, b.len() + 2), (1, 1), (0, 2), (a.len(), 0)] {
                let (mut qo, mut ro) = (vec![0xffff_ffff; qn], vec![0xffff_ffff; rn]);
                div_rem_into(&a, &b, &mut qo, &mut ro, &mut scratch);
                let want = |v: &[u32], n: usize| -> Vec<u32> {
                    (0..n).map(|i| v.get(i).copied().unwrap_or(0)).collect()
                };
                assert_eq!(qo, want(&q, qn), "q of {a:x?} / {b:x?}");
                assert_eq!(ro, want(&r, rn), "r of {a:x?} / {b:x?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div_rem(&[1], &[]);
    }
}
