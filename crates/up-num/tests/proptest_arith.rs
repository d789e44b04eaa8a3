//! Property-based tests for the numeric core: all division algorithms
//! agree, ring axioms hold for `BigInt`, fixed-point arithmetic matches an
//! independent i128 model at small precision, representations
//! round-trip, and the compact-column primitives (fold, compare, render)
//! agree with the per-value `BigInt` / `UpDecimal` reference.

use proptest::prelude::*;
use up_num::bigint::{BigInt, Sign};
use up_num::column::{append_compact, cmp_compact, write_compact, SumAcc};
use up_num::compact;
use up_num::decimal::UpDecimal;
use up_num::div;
use up_num::dtype::DecimalType;
use up_num::limbs;
use up_num::mul;

fn limb_vec(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..=max_len)
}

/// `UpDecimal`'s `Display` as it was before the single-buffer writer: a
/// cloned magnitude, one `format!` per 9-digit chunk, then padding by
/// `repeat` + `split_at`. Kept as the reference the writer must equal.
fn old_to_string(int: &BigInt, scale: u32) -> String {
    let mut chunks: Vec<u32> = Vec::new();
    let mut work = int.mag().to_vec();
    while !limbs::is_zero(&work) {
        chunks.push(limbs::div_limb_in_place(&mut work, 1_000_000_000));
    }
    let mut digits = chunks.pop().map_or("0".to_string(), |c| c.to_string());
    while let Some(c) = chunks.pop() {
        digits.push_str(&format!("{c:09}"));
    }
    let s = scale as usize;
    let padded = if digits.len() <= s {
        format!("{}{}", "0".repeat(s + 1 - digits.len()), digits)
    } else {
        digits
    };
    let (int_part, frac_part) = padded.split_at(padded.len() - s);
    let sign = if int.is_negative() { "-" } else { "" };
    if s == 0 {
        format!("{sign}{int_part}")
    } else {
        format!("{sign}{int_part}.{frac_part}")
    }
}

/// A signed value and the smallest type of the given scale that holds it.
fn typed(mag: Vec<u32>, neg: bool, scale: u32) -> (UpDecimal, DecimalType) {
    let int = BigInt::from_sign_mag(if neg { Sign::Minus } else { Sign::Plus }, mag);
    let ty = DecimalType::new_unchecked(int.dec_digits().max(scale).max(1), scale);
    (UpDecimal::from_parts(int, ty).unwrap(), ty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn division_algorithms_agree(a in limb_vec(12), b in limb_vec(6)) {
        prop_assume!(!limbs::is_zero(&b));
        let (q0, r0) = div::div_rem_knuth(&a, &b);
        for f in [div::div_rem, div::div_rem_binary_search, div::div_rem_newton, div::div_rem_goldschmidt] {
            let (q, r) = f(&a, &b);
            prop_assert_eq!(&q, &q0);
            prop_assert_eq!(&r, &r0);
        }
        // Reconstruction: a == q*b + r and r < b.
        let mut recon = mul::mul(&q0, &b);
        recon.resize(recon.len().max(a.len()) + 1, 0);
        prop_assert!(!limbs::add_assign(&mut recon, &r0));
        prop_assert_eq!(limbs::cmp(&recon, &a), std::cmp::Ordering::Equal);
        prop_assert_eq!(limbs::cmp(&r0, &b), std::cmp::Ordering::Less);
    }

    #[test]
    fn mul_is_commutative_and_matches_schoolbook(a in limb_vec(50), b in limb_vec(50)) {
        let ab = mul::mul(&a, &b);
        let ba = mul::mul(&b, &a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &mul::mul_schoolbook(&a, &b));
        prop_assert_eq!(&ab, &mul::mul_karatsuba(&a, &b));
    }

    #[test]
    fn bigint_ring_axioms(x in any::<i128>(), y in any::<i128>(), z in any::<i128>()) {
        // Work at half range to avoid i128 overflow in the model.
        let (x, y, z) = (x >> 2, y >> 2, z >> 2);
        let (bx, by, bz) = (BigInt::from(x), BigInt::from(y), BigInt::from(z));
        prop_assert_eq!(bx.add(&by), by.add(&bx));
        prop_assert_eq!(bx.add(&by).add(&bz), bx.add(&by.add(&bz)));
        prop_assert_eq!(bx.sub(&by), by.sub(&bx).neg());
        prop_assert_eq!(bx.add(&by), BigInt::from(x + y));
        // Distributivity at small magnitudes (product must fit the model).
        let (sx, sy, sz) = (x >> 40, y >> 40, z >> 40);
        let (bsx, bsy, bsz) = (BigInt::from(sx), BigInt::from(sy), BigInt::from(sz));
        prop_assert_eq!(
            bsx.mul(&bsy.add(&bsz)),
            bsx.mul(&bsy).add(&bsx.mul(&bsz))
        );
    }

    #[test]
    fn bigint_div_rem_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assume!(b != 0);
        let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
        prop_assert_eq!(q, BigInt::from(a / b));
        prop_assert_eq!(r, BigInt::from(a % b));
    }

    #[test]
    fn bigint_string_round_trip(a in any::<i128>()) {
        let b = BigInt::from(a);
        prop_assert_eq!(BigInt::parse_dec(&b.to_string()).unwrap(), b);
    }

    #[test]
    fn decimal_add_matches_i128_model(
        ua in -99_999_999_999i64..=99_999_999_999i64,
        ub in -99_999_999_999i64..=99_999_999_999i64,
        s1 in 0u32..=5,
        s2 in 0u32..=5,
    ) {
        let t1 = DecimalType::new(11, s1).unwrap();
        let t2 = DecimalType::new(11, s2).unwrap();
        let a = UpDecimal::from_scaled_i64(ua, t1).unwrap();
        let b = UpDecimal::from_scaled_i64(ub, t2).unwrap();
        let sum = a.add(&b);
        // Model: align both to max scale in i128.
        let sm = s1.max(s2);
        let ma = ua as i128 * 10i128.pow(sm - s1);
        let mb = ub as i128 * 10i128.pow(sm - s2);
        prop_assert_eq!(sum.unscaled(), &BigInt::from(ma + mb));
        prop_assert_eq!(sum.dtype().scale, sm);
        // The inferred result type always admits the value (§III-B3 claim).
        prop_assert!(sum.unscaled().dec_digits() <= sum.dtype().precision);
    }

    #[test]
    fn decimal_mul_matches_i128_model(
        ua in -999_999i64..=999_999i64,
        ub in -999_999i64..=999_999i64,
        s1 in 0u32..=4,
        s2 in 0u32..=4,
    ) {
        let t1 = DecimalType::new(6, s1).unwrap();
        let t2 = DecimalType::new(6, s2).unwrap();
        let a = UpDecimal::from_scaled_i64(ua, t1).unwrap();
        let b = UpDecimal::from_scaled_i64(ub, t2).unwrap();
        let p = a.mul(&b);
        prop_assert_eq!(p.unscaled(), &BigInt::from(ua as i128 * ub as i128));
        prop_assert_eq!(p.dtype().scale, s1 + s2);
        prop_assert!(p.unscaled().dec_digits() <= p.dtype().precision);
    }

    #[test]
    fn decimal_div_never_overflows_inferred_type(
        ua in -99_999_999i64..=99_999_999i64,
        ub in -99_999i64..=99_999i64,
        s1 in 0u32..=4,
        s2 in 0u32..=3,
    ) {
        prop_assume!(ub != 0);
        let t1 = DecimalType::new(8, s1).unwrap();
        // The §III-B3 quotient bound `(p1-s1)-(p2-s2)+1` integer digits only
        // holds when the divisor uses its declared integer width (dividing
        // by 1 declared DECIMAL(5,0) escapes it), so declare the divisor's
        // type by its actual digit count — what the JIT does for literals.
        let digits = BigInt::from(ub).dec_digits();
        let t2 = DecimalType::new(digits.max(s2 + 1), s2).unwrap();
        let a = UpDecimal::from_scaled_i64(ua, t1).unwrap();
        let b = UpDecimal::from_scaled_i64(ub, t2).unwrap();
        prop_assume!(digits > s2); // divisor magnitude ≥ 1 unscaled digit wide
        let q = a.div(&b).unwrap();
        prop_assert_eq!(q.dtype().scale, s1 + 4);
        prop_assert!(q.unscaled().dec_digits() <= q.dtype().precision,
            "quotient {} digits exceed {}", q.unscaled().dec_digits(), q.dtype());
        // Check against the f64 value within truncation error.
        let approx = (ua as f64 / 10f64.powi(s1 as i32)) / (ub as f64 / 10f64.powi(s2 as i32));
        let got = q.to_f64();
        let tol = 10f64.powi(-(s1 as i32 + 4)) + approx.abs() * 1e-9;
        prop_assert!((got - approx).abs() <= tol + tol, "{got} vs {approx}");
    }

    #[test]
    fn compact_round_trip(
        u in any::<i64>(),
        p in 1u32..=60,
        sfrac in 0u32..=100,
    ) {
        let s = sfrac * p / 101; // scale < p
        let ty = DecimalType::new(p, s).unwrap();
        // Clamp the value to the precision.
        let v = BigInt::from(u);
        let v = if v.dec_digits() > p {
            v.div_pow10_trunc(v.dec_digits() - p)
        } else { v };
        let d = UpDecimal::from_parts(v, ty).unwrap();
        let bytes = compact::encode_compact(&d, ty).unwrap();
        prop_assert_eq!(bytes.len(), ty.lb());
        prop_assert_eq!(compact::decode_compact(&bytes, ty), d.clone());
        let w = compact::expand_compact(&bytes, ty);
        prop_assert_eq!(w.words.len(), ty.lw());
        prop_assert_eq!(w.to_decimal(ty), d);
    }

    #[test]
    fn decimal_display_parse_round_trip(
        u in -9_999_999_999i64..=9_999_999_999i64,
        s in 0u32..=9,
    ) {
        let ty = DecimalType::new(10, s).unwrap();
        let d = UpDecimal::from_scaled_i64(u, ty).unwrap();
        let text = d.to_string();
        prop_assert_eq!(UpDecimal::parse(&text, ty).unwrap(), d);
    }

    #[test]
    fn cmp_value_consistent_with_f64(
        ua in -1_000_000i64..=1_000_000i64,
        ub in -1_000_000i64..=1_000_000i64,
        s1 in 0u32..=3,
        s2 in 0u32..=3,
    ) {
        let a = UpDecimal::from_scaled_i64(ua, DecimalType::new(7, s1).unwrap()).unwrap();
        let b = UpDecimal::from_scaled_i64(ub, DecimalType::new(7, s2).unwrap()).unwrap();
        let fa = ua as f64 / 10f64.powi(s1 as i32);
        let fb = ub as f64 / 10f64.powi(s2 as i32);
        // f64 holds these exactly (≤ 2^53), so orderings must agree.
        prop_assert_eq!(a.cmp_value(&b), fa.partial_cmp(&fb).unwrap());
    }

    #[test]
    fn text_writers_equal_the_old_to_string(
        // Up to LEN 32 plus SUM growth, past the writer's stack buffers.
        mag in limb_vec(44),
        neg in any::<bool>(),
        // Scales on both sides of the digit count.
        scale in 0u32..=450,
        // SUM over this many rows widens the cell (§III-B3).
        rows in 1u64..1 << 40,
    ) {
        let (v, ty) = typed(mag, neg, scale);
        let want = old_to_string(v.unscaled(), scale);
        prop_assert_eq!(&v.to_string(), &want);
        prop_assert_eq!(v.unscaled().mag_to_dec_string(), old_to_string(&v.unscaled().abs(), 0));
        // The value's own width, and the wider cell a SUM result has:
        // leading zero bytes, the sign bit further out, any `Lb mod 4`.
        for cell_ty in [ty, ty.sum_result(rows)] {
            let cell = compact::encode_compact(&v, cell_ty).unwrap();
            prop_assert_eq!(&compact::decode_compact(&cell, cell_ty).to_string(), &want);
            let mut text = String::new();
            write_compact(&mut text, &cell, scale).unwrap();
            prop_assert_eq!(&text, &want);
            let mut raw = b"frame".to_vec();
            append_compact(&mut raw, &cell, scale);
            prop_assert_eq!(&raw[5..], want.as_bytes());
        }
    }

    #[test]
    fn sum_acc_equals_the_bigint_fold(
        raw in prop::collection::vec((limb_vec(3), any::<bool>()), 0..200),
        split in 0usize..200,
    ) {
        let ty = DecimalType::new_unchecked(29, 5);
        let vals: Vec<UpDecimal> = raw.into_iter().map(|(m, neg)| {
            let int = BigInt::from_sign_mag(if neg { Sign::Minus } else { Sign::Plus }, m);
            UpDecimal::from_parts_unchecked(int, ty)
        }).collect();
        let want = vals.iter().fold(BigInt::zero(), |a, v| a.add(v.unscaled()));
        let out_lw = ty.sum_result(vals.len() as u64).lw();
        // One accumulator over the compact column; one over borrowed
        // limbs, fed the two halves of a split in turn.
        let column: Vec<u8> =
            vals.iter().flat_map(|v| compact::encode_compact(v, ty).unwrap()).collect();
        let mut whole = SumAcc::new(out_lw);
        whole.add_cells(&column, ty.lb(), 0..vals.len());
        let mut halves = SumAcc::new(out_lw);
        let (left, right) = vals.split_at(split.min(vals.len()));
        for v in left.iter().chain(right) {
            halves.add_decimal(v, 5);
        }
        prop_assert_eq!(whole.finish(), want.clone());
        prop_assert_eq!(halves.finish(), want);
    }

    #[test]
    fn cmp_compact_equals_cmp_value(
        a in limb_vec(3),
        b in limb_vec(3),
        na in any::<bool>(),
        nb in any::<bool>(),
        same in any::<bool>(),
    ) {
        let ty = DecimalType::new_unchecked(29, 5);
        let b = if same { a.clone() } else { b };
        let enc = |m: Vec<u32>, neg: bool| {
            let int = BigInt::from_sign_mag(if neg { Sign::Minus } else { Sign::Plus }, m);
            let v = UpDecimal::from_parts_unchecked(int, ty);
            (compact::encode_compact(&v, ty).unwrap(), v)
        };
        let ((ba, va), (bb, vb)) = (enc(a, na), enc(b, nb));
        prop_assert_eq!(cmp_compact(&ba, &bb), va.cmp_value(&vb));
    }
}
