//! Cached powers of ten as limb arrays.
//!
//! Scale alignment multiplies or divides by `10^(s₂−s₁)` (§II-B), so powers
//! of ten are on the hot path of every addition between differently-scaled
//! columns. The JIT bakes them into kernels as constants; on the host we
//! memoize them behind a lock.

use crate::limbs::Limb;
use crate::mul;
use std::sync::{Mutex, OnceLock};

/// Largest exponent the process-wide cache will memoize. Larger exponents
/// are computed on the fly (they appear only in ground-truth computations).
pub const CACHE_MAX_EXP: u32 = 2048;

fn cache() -> &'static Mutex<Vec<Vec<Limb>>> {
    static CACHE: OnceLock<Mutex<Vec<Vec<Limb>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(vec![vec![1]]))
}

/// `10^n` as a little-endian limb vector.
pub fn pow10_limbs(n: u32) -> Vec<Limb> {
    if n <= 27 {
        // Fits u128 comfortably (10^38 < 2^127, but 10^27 < 2^90 stays cheap).
        return crate::limbs::from_u128(10u128.pow(n));
    }
    if n > CACHE_MAX_EXP {
        return compute_pow10(n);
    }
    let mut c = cache().lock().expect("pow10 cache poisoned");
    while c.len() <= n as usize {
        let next = mul::mul(&c[c.len() - 1], &[10]);
        c.push(next);
    }
    c[n as usize].clone()
}

fn compute_pow10(n: u32) -> Vec<Limb> {
    // Square-and-multiply on the exponent.
    let mut result: Vec<Limb> = vec![1];
    let mut base: Vec<Limb> = vec![10];
    let mut e = n;
    while e > 0 {
        if e & 1 == 1 {
            result = mul::mul(&result, &base);
        }
        e >>= 1;
        if e > 0 {
            base = mul::mul(&base, &base);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::to_u128;

    #[test]
    fn small_powers_match_u128() {
        for n in 0..=27 {
            assert_eq!(to_u128(&pow10_limbs(n)).unwrap(), 10u128.pow(n));
        }
    }

    #[test]
    fn cached_and_direct_agree() {
        for n in [28u32, 40, 77, 100] {
            assert_eq!(pow10_limbs(n), compute_pow10(n), "n={n}");
        }
    }

    #[test]
    fn big_power_has_expected_bit_length() {
        // 10^1000 needs ceil(1000·log₂10) = 3322 bits.
        let p = pow10_limbs(1000);
        assert_eq!(crate::limbs::bit_len(&p), 3322);
    }

    #[test]
    fn beyond_cache_limit_still_computes() {
        let p = compute_pow10(CACHE_MAX_EXP + 5);
        let q = mul::mul(&pow10_limbs(CACHE_MAX_EXP), &pow10_limbs(5));
        assert_eq!(p, q);
    }

    #[test]
    fn parallel_lookups_agree_with_serial_computation() {
        // The global cache extends itself lazily under its mutex; racing
        // threads asking for interleaved exponents must all observe
        // correct values (the concurrent server hits this path whenever
        // sessions align differently-scaled columns simultaneously).
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    // Each thread walks a different arithmetic sequence so
                    // cache growth is requested out of order.
                    (0..40u32)
                        .map(|i| {
                            let n = 28 + ((i * 7 + t * 13) % 200);
                            (n, pow10_limbs(n))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (n, limbs) in h.join().unwrap() {
                assert_eq!(limbs, compute_pow10(n), "n={n}");
            }
        }
    }
}
