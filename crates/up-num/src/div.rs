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
//! Everything else runs Knuth's Algorithm D. The hot path
//! ([`div_rem_into`], behind the simulator's `DivBig`) runs it on 64-bit
//! words with a Möller–Granlund reciprocal quotient digit and all working
//! storage in a caller-kept buffer; the 32-bit-limb version
//! ([`div_rem_knuth`]) is the reference. All agree bit-for-bit; the tests
//! below and the property tests at the crate root cross-check them.

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
/// Same fast paths, same results; divisors of two or more limbs run
/// Algorithm D on 64-bit words ([`knuth64_into`]).
///
/// # Panics
/// Panics if `b` is zero.
pub fn div_rem_into(
    a: &[Limb],
    b: &[Limb],
    q: &mut [Limb],
    r: &mut [Limb],
    scratch: &mut Vec<u64>,
) {
    let n = limbs::sig_limbs(b);
    assert!(n > 0, "division by zero");
    let m = limbs::sig_limbs(a);
    let (a, b) = (&a[..m], &b[..n]);
    // `DivBig` passes one output empty on every call, and a zero-length
    // `memset` takes ~100 ns on some x86 hosts — about as long as a
    // short division itself — so empty outputs skip the call.
    for out in [&mut *q, &mut *r] {
        if !out.is_empty() {
            out.fill(0);
        }
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
        let d = b[0] as u64;
        let mut rem = 0u64;
        for (i, &w) in a.iter().enumerate().rev() {
            let cur = (rem << 32) | w as u64;
            put_at(q, i, &[(cur / d) as Limb]);
            rem = cur % d;
        }
        return put(r, &[rem as Limb]);
    }
    knuth64_into(a, b, q, r, scratch);
}

/// Copies the low limbs of `src` that fit into `dst`.
fn put(dst: &mut [Limb], src: &[Limb]) {
    put_at(dst, 0, src);
}

/// Copies `src` into `dst` from limb `at` on, dropping what does not fit.
fn put_at(dst: &mut [Limb], at: usize, src: &[Limb]) {
    let at = at.min(dst.len());
    let dst = &mut dst[at..];
    let k = dst.len().min(src.len());
    dst[..k].copy_from_slice(&src[..k]);
}

/// Knuth Algorithm D on 64-bit words, for trimmed operands with `a ≥ b`
/// and a divisor of two or more 32-bit limbs; output convention of
/// [`div_rem_into`] (`q` and `r` arrive zeroed). The 32-bit limbs are
/// packed in pairs, and each quotient digit comes from a Möller–Granlund
/// 2-by-1 division by the divisor's top word with one reciprocal per call
/// — two multiplies instead of a 128-bit divide — so a digit covers twice
/// the bits of [`knuth_into`]'s at a quarter of its inner-loop multiplies.
fn knuth64_into(a: &[Limb], b: &[Limb], q: &mut [Limb], r: &mut [Limb], scratch: &mut Vec<u64>) {
    let (m, n) = (a.len().div_ceil(2), b.len().div_ceil(2));
    let word = |x: &[Limb], i: usize| {
        let hi = x.get(2 * i + 1).copied().unwrap_or(0) as u64;
        x.get(2 * i).map_or(0, |&lo| lo as u64 | hi << 32)
    };
    // D1: normalize so the divisor's top word has its high bit set; the
    // dividend gains one word. `(w >> 1) >> (63 - shift)` is
    // `w >> (64 - shift)`, and 0 for `shift == 0`.
    let shift = word(b, n - 1).leading_zeros();
    let shl_into = |dst: &mut [u64], src: &[Limb]| {
        let mut carry = 0;
        for (i, d) in dst.iter_mut().enumerate() {
            let w = word(src, i);
            *d = (w << shift) | carry;
            carry = (w >> 1) >> (63 - shift);
        }
    };
    scratch.clear();
    scratch.resize(m + 1 + n, 0);
    let (un, vn) = scratch.split_at_mut(m + 1);
    shl_into(un, a);
    shl_into(vn, b);
    let d1 = vn[n - 1];
    let v = reciprocal(d1);
    // D2..D7: main loop, one 64-bit quotient digit per iteration.
    for j in (0..=m - n).rev() {
        // D3: estimate qhat from the top two dividend words over the top
        // divisor word (`u2 ≤ d1` always; at equality the digit would
        // overflow, so it starts at β − 1), then correct with the second
        // divisor word while the remainder estimate still fits a word.
        let (u2, u1) = (un[j + n], un[j + n - 1]);
        let (mut qhat, mut rhat) = if u2 >= d1 {
            #[cfg(test)]
            test_hooks::hit(test_hooks::Branch::DigitOverflow);
            (u64::MAX, u1.checked_add(d1))
        } else {
            let (q, r) = div_2by1(u2, u1, d1, v);
            (q, Some(r))
        };
        if n > 1 {
            let (d0, u0) = (vn[n - 2] as u128, un[j + n - 2] as u128);
            while let Some(rh) = rhat {
                if qhat as u128 * d0 <= ((rh as u128) << 64 | u0) {
                    break;
                }
                qhat -= 1;
                rhat = rh.checked_add(d1);
            }
        }
        // D4: multiply-and-subtract qhat * vn from the dividend window.
        let window = &mut un[j..=j + n];
        let mut carry = 0u64;
        let mut borrow = false;
        for (w, &vi) in window.iter_mut().zip(vn.iter().chain(core::iter::once(&0))) {
            let p = qhat as u128 * vi as u128 + carry as u128;
            carry = (p >> 64) as u64;
            let (d, b1) = w.overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *w = d;
            borrow = b1 | b2;
        }
        if borrow {
            // D6: the estimate was one too large — add the divisor back
            // (the carry out of the top word cancels the borrow).
            #[cfg(test)]
            test_hooks::hit(test_hooks::Branch::AddBack);
            qhat -= 1;
            let mut carry = false;
            for (w, &vi) in window.iter_mut().zip(vn.iter().chain(core::iter::once(&0))) {
                let (s, c1) = w.overflowing_add(vi);
                let (s, c2) = s.overflowing_add(carry as u64);
                *w = s;
                carry = c1 | c2;
            }
            debug_assert!(carry, "add-back must cancel the borrow");
        }
        put_at(q, 2 * j, &[qhat as Limb, (qhat >> 32) as Limb]);
    }
    // D8: denormalize the remainder (`un[n]` is zero by now) and unpack.
    for i in 0..n {
        let w = (un[i] >> shift) | (un[i + 1] << 1) << (63 - shift);
        put_at(r, 2 * i, &[w as Limb, (w >> 32) as Limb]);
    }
}

/// The Möller–Granlund reciprocal of a normalized word `d`:
/// `⌊(β² − 1) / d⌋ − β` with `β = 2⁶⁴`, i.e. `(¬d·β + β − 1) / d`, whose
/// quotient fits a word because `¬d < d`.
fn reciprocal(d: u64) -> u64 {
    debug_assert!(d >> 63 == 1, "divisor word not normalized");
    let v = (((!d as u128) << 64) | u64::MAX as u128) / d as u128;
    #[cfg(test)]
    let v = v.wrapping_add(test_hooks::reciprocal_skew() as u128);
    v as u64
}

/// `(u1·β + u0) / d` for a normalized `d` with `u1 < d`, given `v =
/// reciprocal(d)`: "Improved division by invariant integers" (Möller &
/// Granlund, 2011), Algorithm 4 — one widening multiply, one low
/// multiply and at most two corrections. Returns `(quotient, remainder)`.
#[inline]
pub(crate) fn div_2by1(u1: u64, u0: u64, d: u64, v: u64) -> (u64, u64) {
    let p = (v as u128 * u1 as u128).wrapping_add((u1 as u128) << 64 | u0 as u128);
    let mut q = ((p >> 64) as u64).wrapping_add(1);
    let mut r = u0.wrapping_sub(q.wrapping_mul(d));
    if r > p as u64 {
        q = q.wrapping_sub(1);
        r = r.wrapping_add(d);
    }
    if r >= d {
        q = q.wrapping_add(1);
        r -= d;
    }
    (q, r)
}

/// Test-only hooks into [`knuth64_into`]: a planted reciprocal error (the
/// mutation the property suite must notice) and per-thread counts of the
/// two rare branches (so the suite can show it reaches them).
#[cfg(test)]
mod test_hooks {
    use std::cell::Cell;

    #[derive(Clone, Copy)]
    pub(super) enum Branch {
        /// D3 with the window's top word equal to the divisor's.
        DigitOverflow,
        /// D6, the add-back.
        AddBack,
    }

    thread_local! {
        static SKEW: Cell<i64> = const { Cell::new(0) };
        static HITS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    pub(super) fn reciprocal_skew() -> i64 {
        SKEW.get()
    }

    /// Runs `f` with every reciprocal on this thread off by `skew`.
    pub(super) fn with_skew<R>(skew: i64, f: impl FnOnce() -> R) -> R {
        SKEW.set(skew);
        let r = f();
        SKEW.set(0);
        r
    }

    pub(super) fn hit(b: Branch) {
        let mut v = HITS.get();
        v[b as usize] += 1;
        HITS.set(v);
    }

    /// Branch hits on this thread so far: `[DigitOverflow, AddBack]`.
    pub(super) fn hits() -> [u64; 2] {
        HITS.get()
    }
}

/// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit limbs, for trimmed
/// operands with `a ≥ b` and a divisor of two or more limbs; output
/// convention of [`div_rem_into`] (`q` and `r` arrive zeroed). The
/// reference [`div_rem_knuth`] runs it; the hot path is [`knuth64_into`].
fn knuth_into(a: &[Limb], b: &[Limb], q: &mut [Limb], r: &mut [Limb]) {
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
    let mut scratch = vec![0; m + 1 + n];
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
    knuth_into(&a[..m], &b[..n], &mut q, &mut r);
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

    type Algo = fn(&[Limb], &[Limb]) -> (Vec<Limb>, Vec<Limb>);

    fn check_all(a: u128, b: u128) {
        let (la, lb) = (from_u128(a), from_u128(b));
        let algos: [(&str, Algo); 5] = [
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

    /// Division cases for the 64-bit path: a sweep over every dividend
    /// length 1..=66 and divisor length 1..=34 (odd lengths leave the top
    /// packed word half empty), divisors whose top limb is `u32::MAX` or
    /// exactly `1 << 31` in both limb parities, and `a = (b − 1)·β + x` —
    /// Knuth's add-back operands (`knuth_add_back_case`) lifted to 64-bit
    /// words: the first digit estimates 1 and must be added back, the
    /// second starts with the window's top word equal to the divisor's.
    fn division_cases() -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let mut cases = vec![(vec![0, 0, 0x8000_0000], vec![1, 0x8000_0000])];
        for an in 1..=66 {
            for bn in 1..=34 {
                let a: Vec<u32> = (0..an).map(|_| next()).collect();
                let b: Vec<u32> = (0..bn).map(|_| next()).collect();
                cases.push((a, b));
            }
        }
        for bn in 2..=12 {
            for top in [u32::MAX, 1 << 31] {
                for an in [bn, bn + 1, bn + 2, 2 * bn + 3] {
                    let mut b: Vec<u32> = (0..bn).map(|_| next()).collect();
                    b[bn - 1] = top;
                    let a: Vec<u32> = (0..an).map(|_| next()).collect();
                    cases.push((a.clone(), b));
                    // Sparse divisor: only the top limb set.
                    let mut sparse = vec![0; bn];
                    sparse[bn - 1] = top;
                    cases.push((a, sparse));
                }
            }
        }
        for bn in [4, 6, 8, 14, 32] {
            for x in [[0, 0], [u32::MAX, u32::MAX], [next(), next()]] {
                let mut b: Vec<u32> = (0..bn).map(|_| next()).collect();
                b[0] |= 1;
                b[bn - 1] |= 1 << 31;
                let mut a = x.to_vec();
                a.extend_from_slice(&b);
                a[2] -= 1;
                cases.push((a, b));
            }
        }
        cases
    }

    /// `div_rem_into` on one case against the 32-bit reference, by
    /// reconstruction, and in four output widths (longer than, and
    /// shorter than, the quotient and the remainder), with dirty outputs
    /// and a dirty reused scratch.
    fn check_into(a: &[u32], b: &[u32], scratch: &mut Vec<u64>) -> Result<(), String> {
        let (q, r) = div_rem_knuth(a, b);
        let mut recon = mul::mul(&q, b);
        recon.resize(recon.len().max(a.len()) + 1, 0);
        if limbs::add_assign(&mut recon, &r)
            || limbs::cmp(&recon, a) != Ordering::Equal
            || limbs::cmp(&r, b) != Ordering::Less
        {
            return Err(format!("reference fails q·b + r == a ∧ r < b on {a:x?} / {b:x?}"));
        }
        let want = |v: &[u32], n: usize| -> Vec<u32> {
            (0..n).map(|i| v.get(i).copied().unwrap_or(0)).collect()
        };
        let short = (q.len().saturating_sub(1), r.len().saturating_sub(1));
        for (qn, rn) in [(a.len() + 2, b.len() + 2), short, (1, 1), (0, 3)] {
            let (mut qo, mut ro) = (vec![0xffff_ffff; qn], vec![0xffff_ffff; rn]);
            div_rem_into(a, b, &mut qo, &mut ro, scratch);
            if qo != want(&q, qn) || ro != want(&r, rn) {
                let got = format!("q {qo:x?} r {ro:x?}");
                return Err(format!("div_rem_into({a:x?}, {b:x?}) widths ({qn}, {rn}): {got}"));
            }
        }
        Ok(())
    }

    #[test]
    fn div_rem_into_matches_the_reference_and_reconstructs() {
        let before = test_hooks::hits();
        let mut scratch = vec![0xdead_beef; 5];
        for (a, b) in division_cases() {
            if limbs::is_zero(&b) {
                continue;
            }
            if let Err(e) = check_into(&a, &b, &mut scratch) {
                panic!("{e}");
            }
        }
        let after = test_hooks::hits();
        assert!(after[0] > before[0], "no case reached the D3 overflowing digit");
        assert!(after[1] > before[1], "no case reached the D6 add-back");
    }

    /// The suite above is sharp enough to notice a reciprocal that is off
    /// by one in either direction.
    #[test]
    fn off_by_one_reciprocal_is_caught() {
        for skew in [1, -1] {
            let caught = test_hooks::with_skew(skew, || {
                let mut scratch = Vec::new();
                division_cases().iter().filter(|(_, b)| !limbs::is_zero(b)).any(|(a, b)| {
                    let run = std::panic::AssertUnwindSafe(|| check_into(a, b, &mut scratch));
                    std::panic::catch_unwind(run).map_or(true, |r| r.is_err())
                })
            });
            assert!(caught, "a reciprocal off by {skew} went unnoticed");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div_rem(&[1], &[]);
    }
}
