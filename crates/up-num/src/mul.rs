//! Multi-word multiplication.
//!
//! The paper (§II-B) uses the elementary-school O(N²) algorithm on the GPU
//! because, for the word counts databases see (N ≤ 32), it beats Karatsuba.
//! We implement both — [`mul_schoolbook`] as the default and
//! [`mul_karatsuba`] for large operands — and expose [`mul`] which picks by
//! the measured crossover, mirroring the paper's observation that "the
//! Karatsuba algorithm is not as fast as the basic one for a small N".

use crate::limbs::{self, Limb};

/// Operand size (in limbs) above which Karatsuba takes over from the
/// schoolbook algorithm. Databases rarely cross this (LEN ≤ 32 in the whole
/// evaluation), matching the paper's choice of the basic algorithm.
pub const KARATSUBA_THRESHOLD: usize = 40;

/// Product of two magnitudes using the elementary-school algorithm: the
/// k-th output word accumulates `a[i] * b[j]` for all `i + j = k`, with the
/// carry-out pushed into word `k + 1` (§II-B).
pub fn mul_schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (na, nb) = (limbs::sig_limbs(a), limbs::sig_limbs(b));
    if na == 0 || nb == 0 {
        return Vec::new();
    }
    let mut out = vec![0 as Limb; na + nb];
    for (j, &bj) in b[..nb].iter().enumerate() {
        limbs::mul_limb_add(&mut out, &a[..na], bj, j);
    }
    limbs::trim(&mut out);
    out
}

/// Karatsuba multiplication: splits both operands around the half-width of
/// the longer one and recombines three half-size products, O(N^log2 3).
pub fn mul_karatsuba(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (na, nb) = (limbs::sig_limbs(a), limbs::sig_limbs(b));
    if na.min(nb) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(&a[..na], &b[..nb]);
    }
    let half = na.max(nb) / 2;
    let (a0, a1) = split(&a[..na], half);
    let (b0, b1) = split(&b[..nb], half);

    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    let sa = limbs::add(a0, a1);
    let sb = limbs::add(b0, b1);
    let mut z1 = mul_karatsuba(&sa, &sb);
    // z1 = (a0+a1)(b0+b1) - z0 - z2
    grow(&mut z1, z0.len().max(z2.len()));
    let bz0 = limbs::sub_assign(&mut z1, &z0);
    let bz2 = limbs::sub_assign(&mut z1, &z2);
    debug_assert!(!bz0 && !bz2, "karatsuba middle term underflow");

    // out = z0 + z1 << (32 half) + z2 << (64 half)
    let mut out = vec![0 as Limb; na + nb + 1];
    out[..z0.len()].copy_from_slice(&z0);
    let c1 = limbs::add_assign(&mut out[half..], &z1);
    let c2 = limbs::add_assign(&mut out[2 * half..], &z2);
    debug_assert!(!c1 && !c2);
    limbs::trim(&mut out);
    out
}

/// Product of two magnitudes; picks schoolbook or Karatsuba by operand size.
pub fn mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if limbs::sig_limbs(a).min(limbs::sig_limbs(b)) >= KARATSUBA_THRESHOLD {
        mul_karatsuba(a, b)
    } else {
        mul_schoolbook(a, b)
    }
}

fn split(a: &[Limb], at: usize) -> (&[Limb], &[Limb]) {
    if at >= a.len() {
        (a, &[])
    } else {
        (&a[..at], &a[at..])
    }
}

fn grow(v: &mut Vec<Limb>, at_least: usize) {
    if v.len() < at_least + 1 {
        v.resize(at_least + 1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::{from_u128, to_u128};

    #[test]
    fn schoolbook_matches_u128() {
        let cases: [(u128, u128); 6] = [
            (0, 12345),
            (1, u64::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (0xffff_ffff_ffff_ffff, 2),
            (123_456_789_123_456_789, 987_654_321_987_654_321),
            (u32::MAX as u128, u32::MAX as u128),
        ];
        for (x, y) in cases {
            let p = mul_schoolbook(&from_u128(x), &from_u128(y));
            assert_eq!(to_u128(&p).unwrap(), x * y, "{x} * {y}");
        }
    }

    #[test]
    fn karatsuba_matches_schoolbook_on_large_operands() {
        // Deterministic pseudo-random limbs, sized well above the threshold.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        for (na, nb) in [(80, 80), (81, 80), (120, 45), (41, 200)] {
            let a: Vec<u32> = (0..na).map(|_| next()).collect();
            let b: Vec<u32> = (0..nb).map(|_| next()).collect();
            let expect = mul_schoolbook(&a, &b);
            let got = mul_karatsuba(&a, &b);
            assert_eq!(got, expect, "na={na} nb={nb}");
        }
    }

    #[test]
    fn karatsuba_handles_unbalanced_and_zero() {
        assert!(mul_karatsuba(&[], &[1, 2, 3]).is_empty());
        let a = vec![7u32; 100];
        let b = vec![3u32];
        assert_eq!(mul_karatsuba(&a, &b), mul_schoolbook(&a, &b));
    }

    #[test]
    fn product_width_is_2n(
    ) {
        // Two N-word operands yield a product of at most 2N words (§II-B).
        let a = vec![u32::MAX; 8];
        let p = mul(&a, &a);
        assert!(p.len() <= 16);
        assert_eq!(p.len(), 16); // max values actually reach 2N
    }
}
