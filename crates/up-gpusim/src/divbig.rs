//! `DivBig`/`RemBig` across a warp's structure-of-arrays register rows, as
//! the paper's §III-C2 division runs in every thread of a warp: lanes whose
//! divisor has the warp's widest limb count `n ≥ 2` share one Algorithm D
//! on 32-bit limbs, each step a fixed-trip loop over 32-lane tiles with the
//! lanes' choices as selects; the rest keep a per-lane loop over
//! `up_num::div::div_rem_into`. Both are exact, so no result bit, probe
//! cost or error depends on the path. The warp path runs only in the
//! AVX-512 build (chosen by [`crate::thunk_isa`]); an SSE2 build measured
//! slower than the loop on `bench_simspeed`'s `divbig_len32_rem`.
// Lane loops index several 32-lane tiles by the same lane.
#![allow(clippy::needless_range_loop)]

use crate::compiled::thunk_isa;
use crate::decoded::LANES as L;

type Row = [u32; L];

/// One `DivBig`/`RemBig`: SoA row offsets and limb counts of the result
/// (`rem`: the remainder, else the quotient) and both operands.
#[derive(Clone, Copy)]
pub(crate) struct DivShape {
    pub(crate) d: usize,
    pub(crate) dn: usize,
    pub(crate) a: usize,
    pub(crate) an: usize,
    pub(crate) b: usize,
    pub(crate) bn: usize,
    pub(crate) rem: bool,
}

/// Working storage kept for the launch: the per-lane loop's buffers, the
/// warp path's tiles, and the lanes each path divided (`[warp, loop]`).
#[derive(Default)]
pub(crate) struct DivBufs {
    a: Vec<u32>,
    b: Vec<u32>,
    out: Vec<u32>,
    work: Vec<u64>,
    un: Vec<Row>,
    vn: Vec<Row>,
    q: Vec<Row>,
    pub(crate) lanes: [u64; 2],
}

/// Runs one `DivBig` on the active lanes of `mask`, returning the probe
/// cost the warp adds to `warp_issue_cycles`, or `None` (and no register
/// written) when an active lane's divisor is zero.
pub(crate) fn div_big(regs: &mut [u32], s: DivShape, mask: u32, bufs: &mut DivBufs) -> Option<f64> {
    match thunk_isa() {
        #[cfg(target_arch = "x86_64")]
        crate::ThunkIsa::Avx512 if crate::compiled::avx512_detected() => {
            // SAFETY: the CPU reports every feature `div_big_avx512` is
            // built with, which is all a `#[target_feature]` call needs.
            unsafe { div_big_avx512(regs, s, mask, bufs) }
        }
        _ => div_big_body::<false>(regs, s, mask, bufs),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn div_big_avx512(regs: &mut [u32], s: DivShape, mask: u32, bufs: &mut DivBufs) -> Option<f64> {
    div_big_body::<true>(regs, s, mask, bufs)
}

fn row(regs: &[u32], at: usize) -> &Row {
    regs[at..at + L].try_into().expect("a register row holds 32 lanes")
}

/// Per lane, the significant limbs and the bit length of the `rows`-limb
/// value at `at` (`up_num::limbs::{sig_limbs, bit_len}`).
#[inline(always)]
fn survey(regs: &[u32], at: usize, rows: usize) -> (Row, Row) {
    let (mut sig, mut bits) = ([0u32; L], [0u32; L]);
    for i in 0..rows {
        let (w, top) = (row(regs, at + i * L), i as u32 + 1);
        for l in 0..L {
            sig[l] = if w[l] != 0 { top } else { sig[l] };
            bits[l] = if w[l] != 0 { 32 * top - w[l].leading_zeros() } else { bits[l] };
        }
    }
    (sig, bits)
}

/// The whole instruction: survey, the warp path (if `WARP`), the loop.
#[inline(always)]
fn div_big_body<const WARP: bool>(
    regs: &mut [u32],
    s: DivShape,
    mask: u32,
    bufs: &mut DivBufs,
) -> Option<f64> {
    let ((nb, lb), (_, la)) = (survey(regs, s.b, s.bn), survey(regs, s.a, s.an));
    let (mut n, mut span, mut m) = (0, 0, mask);
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        if nb[l] == 0 {
            return None;
        }
        n = n.max(nb[l]);
        span = span.max(la[l].saturating_sub(lb[l]));
    }
    let mut warp = 0u32;
    if WARP && n >= 2 {
        for l in 0..L {
            warp |= ((nb[l] == n) as u32) << l;
        }
        warp &= mask;
        warp_divide(regs, s, n as usize, warp, bufs);
    }
    bufs.lanes[0] += warp.count_ones() as u64;
    bufs.lanes[1] += (mask & !warp).count_ones() as u64;
    per_lane_divide(regs, s, mask & !warp, bufs);
    // The §III-C2 binary search probes ≈ the quotient's bit range, each
    // probe a multiply + compare, and the warp waits for its slowest lane.
    // Every factor is an exact integer, so these are the bits of the
    // maximum over lanes.
    let mul_cost = 2.0 * s.an as f64 * s.bn as f64 + 4.0 * s.an as f64;
    Some(if mask == 0 { 0.0 } else { (span as f64 + 2.0) * mul_cost })
}

/// The per-lane loop: gather a lane's limbs, divide, scatter the result.
#[inline(always)]
fn per_lane_divide(regs: &mut [u32], s: DivShape, lanes: u32, bufs: &mut DivBufs) {
    let DivBufs { a: av, b: bv, out, work, .. } = bufs;
    av.resize(s.an, 0);
    bv.resize(s.bn, 0);
    out.resize(s.dn, 0);
    let mut m = lanes;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        for (i, w) in av.iter_mut().enumerate() {
            *w = regs[s.a + i * L + l];
        }
        for (i, w) in bv.iter_mut().enumerate() {
            *w = regs[s.b + i * L + l];
        }
        let (q, r): (&mut [u32], &mut [u32]) = if s.rem { (&mut [], out) } else { (out, &mut []) };
        up_num::div::div_rem_into(av, bv, q, r, work);
        for (i, w) in out.iter().enumerate() {
            regs[s.d + i * L + l] = *w;
        }
    }
}

/// Algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit limbs for the lanes of
/// `warp`, whose divisors all have `n ≥ 2` significant limbs. Dividends
/// keep all `an` limbs (leading zero limbs give zero digits), so every lane
/// runs the same digit loop; lanes outside `warp` divide a copy of its
/// lowest lane's operands, so every lane's division is valid, and are
/// not written back.
#[inline(always)]
fn warp_divide(regs: &mut [u32], s: DivShape, n: usize, warp: u32, bufs: &mut DivBufs) {
    let m = s.an.max(n);
    let DivBufs { un, vn, q, .. } = bufs;
    un.clear();
    un.resize(m + 1, [0; L]);
    vn.clear();
    vn.resize(n + 1, [0; L]);
    un[..s.an].iter_mut().enumerate().for_each(|(i, t)| *t = *row(regs, s.a + i * L));
    vn[..n].iter_mut().enumerate().for_each(|(i, t)| *t = *row(regs, s.b + i * L));
    let (l0, mut rest) = (warp.trailing_zeros() as usize, !warp);
    while rest != 0 {
        let l = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        for t in un.iter_mut().chain(vn.iter_mut()) {
            t[l] = t[l0];
        }
    }
    // D1: normalize each lane by its top divisor limb's leading zeros; the
    // dividend's extra top limb takes the bits shifted out, and `vn` keeps
    // a zero row above the divisor for D4.
    let sh = vn[n - 1].map(u32::leading_zeros);
    shl_rows(vn, &sh);
    shl_rows(un, &sh);
    let (d1, d0) = (vn[n - 1], vn[n - 2]);
    let v = reciprocals(&d1);
    q.clear();
    q.resize(if s.rem { 0 } else { s.dn.min(m - n + 1) }, [0; L]);
    // D2..D7: one quotient limb per iteration, every lane at once.
    for j in (0..=m - n).rev() {
        // D3: the 2-by-1 digit of the top two window limbs over `d1`; a
        // lane whose top limb equals `d1` would overflow it, so it starts
        // at β − 1 with `rhat = u1 + d1`. Then at most two corrections by
        // the second divisor limb while `rhat` fits a limb.
        let (u2, u1, u0) = (&un[j + n], &un[j + n - 1], &un[j + n - 2]);
        let mut qd = [0u32; L];
        for l in 0..L {
            let (q1, r1) = div_2by1(u2[l], u1[l], d1[l], v[l]);
            let overflow = u2[l] >= d1[l];
            let mut qh = if overflow { u32::MAX as u64 } else { q1 as u64 };
            let mut rh = if overflow { u1[l] as u64 + d1[l] as u64 } else { r1 as u64 };
            for _ in 0..2 {
                let c = rh >> 32 == 0 && qh * d0[l] as u64 > (rh << 32 | u0[l] as u64);
                qh -= c as u64;
                rh += if c { d1[l] as u64 } else { 0 };
            }
            qd[l] = qh as u32;
        }
        #[cfg(test)]
        tests::hit(0, warp, |l| u2[l] >= d1[l]);
        // D4: subtract `qhat · v` from the window `un[j..=j + n]` (`vn`'s
        // zero row meets its top); `k` carries the product's high limb
        // minus the running borrow. A right digit leaves the window below
        // `v`, top limb zero; one too large leaves it negative, top limb
        // all ones: that limb is the borrow.
        let mut k = [0i64; L];
        for (w, vi) in un[j..=j + n].iter_mut().zip(vn.iter()) {
            mul_sub_row(w, vi, &qd, &mut k);
        }
        let (window, top) = un[j..=j + n].split_at_mut(n);
        let top = &mut top[0];
        let neg = top.map(|w| 0u32.wrapping_sub((w != 0) as u32));
        if neg.iter().any(|&x| x != 0) {
            // D6: the lanes that borrowed add the divisor back; the carry
            // out cancels the borrow.
            #[cfg(test)]
            tests::hit(1, warp, |l| neg[l] != 0);
            let mut c = [0u32; L];
            for (w, vi) in window.iter_mut().zip(&vn[..n]) {
                add_row(w, vi, &neg, &mut c);
            }
            for l in 0..L {
                top[l] = top[l].wrapping_add(c[l]);
                qd[l] = qd[l].wrapping_add(neg[l]);
            }
        }
        if let Some(qj) = q.get_mut(j) {
            *qj = qd;
        }
    }
    // D8: unnormalize the remainder in place (`un[n]` is zero by now).
    for i in 0..n {
        let (hi, w) = (un[i + 1], &mut un[i]);
        for l in 0..L {
            w[l] = w[l] >> sh[l] | (hi[l] << 1) << (31 - sh[l]);
        }
    }
    let out: &[Row] = if s.rem { &un[..n] } else { q };
    for i in 0..s.dn {
        let src = out.get(i).copied().unwrap_or([0; L]);
        let dst = &mut regs[s.d + i * L..][..L];
        for l in 0..L {
            dst[l] = if warp >> l & 1 == 1 { src[l] } else { dst[l] };
        }
    }
}

/// D4 on one limb row: `w −= q·v` lane by lane, `k` the running product
/// high limb minus borrow (Hacker's Delight's `divmnu`).
#[inline(always)]
fn mul_sub_row(w: &mut Row, v: &Row, q: &Row, k: &mut [i64; L]) {
    for l in 0..L {
        let p = q[l] as u64 * v[l] as u64;
        let t = w[l] as i64 - k[l] - (p & 0xffff_ffff) as i64;
        w[l] = t as u32;
        k[l] = (p >> 32) as i64 - (t >> 32);
    }
}

/// D6 on one limb row: `w += v & sel` lane by lane, `c` the carry.
#[inline(always)]
fn add_row(w: &mut Row, v: &Row, sel: &Row, c: &mut Row) {
    for l in 0..L {
        let t = w[l] as u64 + (v[l] & sel[l]) as u64 + c[l] as u64;
        w[l] = t as u32;
        c[l] = (t >> 32) as u32;
    }
}

/// Shifts each lane's multi-limb value in `t` left by its `sh[l] < 32`
/// bits, in place, top row first; `(w >> 1) >> (31 - s)` is
/// `w >> (32 - s)`, and 0 for `s == 0`.
#[inline(always)]
fn shl_rows(t: &mut [Row], sh: &Row) {
    for i in (0..t.len()).rev() {
        let (lo, w) = (if i > 0 { t[i - 1] } else { [0; L] }, &mut t[i]);
        for l in 0..L {
            w[l] = w[l] << sh[l] | (lo[l] >> 1) >> (31 - sh[l]);
        }
    }
}

/// Each lane's 32-bit Möller–Granlund reciprocal of its normalized `d1`,
/// `⌊(β² − 1) / d⌋ − β` with `β = 2³²`, without 32 integer divides: the
/// `f64` quotient is within 2⁻²⁰ of the exact one, so rounding it (adding
/// 2⁵² does that in the mantissa) gives the floor or one more, and one
/// signed remainder test takes the one back.
#[inline(always)]
fn reciprocals(d1: &Row) -> Row {
    const ROUND: f64 = (1u64 << 52) as f64;
    let mut v = [0u32; L];
    for l in 0..L {
        let (d, num) = (d1[l] as u64, (!d1[l] as u64) << 32 | 0xffff_ffff);
        let c = (num as f64 / d as f64 + ROUND).to_bits() - ROUND.to_bits();
        v[l] = (c - ((num.wrapping_sub(c * d) as i64) < 0) as u64) as u32;
    }
    v
}

/// `(u1·β + u0) / d` for a normalized `d` with `u1 < d`, given its
/// reciprocal `v` (Möller & Granlund 2011, Algorithm 4), corrections as
/// selects. Other inputs give some value, never a panic.
#[inline(always)]
fn div_2by1(u1: u32, u0: u32, d: u32, v: u32) -> (u32, u32) {
    let p = (v as u64 * u1 as u64).wrapping_add((u1 as u64) << 32 | u0 as u64);
    let q = ((p >> 32) as u32).wrapping_add(1);
    let r = u0.wrapping_sub(q.wrapping_mul(d));
    let c1 = r > p as u32;
    let (q, r) = (q.wrapping_sub(c1 as u32), r.wrapping_add(if c1 { d } else { 0 }));
    let c2 = r >= d;
    (q.wrapping_add(c2 as u32), r.wrapping_sub(if c2 { d } else { 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use up_num::limbs::bit_len;

    thread_local! {
        /// Lanes of the warp path that took D3's `qhat = β − 1` start
        /// (`[0]`) and D6's add-back (`[1]`) on this thread.
        static HITS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// Counts the lanes of `warp` where `took(lane)` under branch `b`.
    pub(super) fn hit(b: usize, warp: u32, took: impl Fn(usize) -> bool) {
        let mut v = HITS.get();
        v[b] += (0..L).filter(|&l| warp >> l & 1 == 1 && took(l)).count() as u64;
        HITS.set(v);
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u32 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }
        fn below(&mut self, n: u32) -> u32 {
            self.next() % n
        }
        /// A limb, one time in two from the values that sit on Algorithm
        /// D's edges.
        fn limb(&mut self) -> u32 {
            const EDGES: [u32; 5] = [0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX];
            match self.below(2) {
                0 => EDGES[self.below(5) as usize],
                _ => self.next(),
            }
        }
    }

    /// One lane's operands: `a` of `an` limbs, and `b` — `shared` if it
    /// is not empty, else `bn` limbs with exactly `sig` significant ones
    /// (`sig == 0`: a zero divisor).
    fn operands(rng: &mut Rng, an: usize, bn: usize, sig: usize, shared: &[u32]) -> [Vec<u32>; 2] {
        let mut b = shared.to_vec();
        if b.is_empty() {
            b = (0..bn).map(|i| if i < sig { rng.limb() } else { 0 }).collect();
            if sig > 0 && b[sig - 1] == 0 {
                b[sig - 1] = 1 + rng.below(u32::MAX);
            }
        }
        let a = match rng.below(4) {
            // a < b: fewer significant limbs than the divisor.
            0 => (0..an).map(|i| if i + 1 < sig { rng.limb() } else { 0 }).collect(),
            // a = b·k, or b·k − 1, truncated to `an` limbs.
            1 => {
                let k: Vec<u32> = (0..=rng.below(an as u32)).map(|_| rng.limb()).collect();
                let mut p = up_num::mul::mul(&b, &k);
                p.resize(an, 0);
                if rng.below(2) == 0 {
                    for w in p.iter_mut() {
                        let (v, borrow) = w.overflowing_sub(1);
                        *w = v;
                        if !borrow {
                            break;
                        }
                    }
                }
                p
            }
            _ => (0..an).map(|_| rng.limb()).collect(),
        };
        [a, b]
    }

    /// The warp path against `div_rem_into` lane by lane: random limb
    /// counts (1..=34), output widths, div and rem, full / partial / tail
    /// masks, divisors shorter in some lanes or equal in every lane,
    /// `a < b`, `a = b·k`, aliased output rows, and zero divisors. Checks
    /// every output row, every untouched lane, the probe cost's bits and
    /// the zero-divisor refusal, and that both of Algorithm D's rare
    /// branches were taken on lanes the warp path divided.
    #[test]
    fn warp_path_matches_the_per_lane_oracle() {
        let mut rng = Rng(0x0d1b_1600_0031);
        let before = HITS.get();
        let mut bufs = DivBufs::default();
        let cases = if cfg!(debug_assertions) { 3000 } else { 20_000 };
        for case in 0..cases {
            let (an, bn) = (1 + rng.below(34) as usize, 1 + rng.below(34) as usize);
            let dn = 1 + rng.below(34) as usize;
            let rem = rng.below(2) == 0;
            let mask = match rng.below(3) {
                0 => u32::MAX,
                1 => rng.next() | rng.next(),
                _ => u32::MAX >> rng.below(32),
            };
            // Divisor shape: full width everywhere, some lanes shorter, or
            // one divisor in every lane.
            let n = 1 + rng.below(bn as u32) as usize;
            let uniform = rng.below(4) == 0;
            let [_, b_all] = operands(&mut rng, an, bn, n, &[]);
            let shared = if uniform { b_all } else { vec![] };
            let zero_lane = (rng.below(8) == 0).then(|| rng.below(32) as usize);
            let (a, b) = (0, an * L);
            let d = match rng.below(4) {
                0 => a,
                1 => b,
                _ => (an + bn) * L,
            };
            let rows = an + bn + dn.max(an).max(bn);
            let mut regs: Vec<u32> = (0..rows * L).map(|_| rng.next()).collect();
            for l in 0..L {
                let sig = match (zero_lane == Some(l), rng.below(4)) {
                    (true, _) => 0,
                    (false, 0) => 1 + rng.below(n as u32) as usize,
                    _ => n,
                };
                let b_row = if sig == n { &shared[..] } else { &[] };
                let [av, bv] = operands(&mut rng, an, bn, sig, b_row);
                for i in 0..an {
                    regs[a + i * L + l] = av[i];
                }
                for i in 0..bn {
                    regs[b + i * L + l] = bv[i];
                }
            }
            let s = DivShape { d, dn, a, an, b, bn, rem };
            let snapshot = regs.clone();
            let got = div_big_body::<true>(&mut regs, s, mask, &mut bufs);

            let mut want = snapshot.clone();
            let mut span = None::<u64>;
            let mut zero = false;
            for l in (0..L).filter(|l| mask >> l & 1 == 1) {
                let av: Vec<u32> = (0..an).map(|i| snapshot[a + i * L + l]).collect();
                let bv: Vec<u32> = (0..bn).map(|i| snapshot[b + i * L + l]).collect();
                if up_num::limbs::is_zero(&bv) {
                    zero = true;
                    break;
                }
                span = Some(span.unwrap_or(0).max(bit_len(&av).saturating_sub(bit_len(&bv))));
                let mut out = vec![0; dn];
                let (q, r): (&mut [u32], &mut [u32]) =
                    if rem { (&mut [], &mut out) } else { (&mut out, &mut []) };
                up_num::div::div_rem_into(&av, &bv, q, r, &mut Vec::new());
                for i in 0..dn {
                    want[d + i * L + l] = out[i];
                }
            }
            let at = format!("case {case}: {an}÷{bn}→{dn} rem {rem} mask {mask:#x} n {n} d {d}");
            if zero {
                assert_eq!(got, None, "{at}");
                assert_eq!(regs, snapshot, "{at}: a refused division wrote registers");
                continue;
            }
            let mul_cost = 2.0 * an as f64 * bn as f64 + 4.0 * an as f64;
            let cycles = span.map_or(0.0, |s| (s as f64 + 2.0) * mul_cost);
            assert_eq!(got.map(f64::to_bits), Some(cycles.to_bits()), "{at}");
            assert_eq!(regs, want, "{at}");
        }
        let [digit_overflow, add_back] = HITS.get();
        let (digit_overflow, add_back) = (digit_overflow - before[0], add_back - before[1]);
        let lanes = bufs.lanes;
        eprintln!("warp/loop lanes {lanes:?}; qhat = β − 1 {digit_overflow}, add-back {add_back}");
        assert!(bufs.lanes[0] > bufs.lanes[1], "warp path took {:?} lanes", bufs.lanes);
        assert!(digit_overflow > 0, "no lane took qhat = β − 1");
        assert!(add_back > 0, "no lane added back");
    }
}
