//! `SumAcc::add_cells`, the carry-save column fold, against the plainest
//! reference: decode each cell with `decode_compact` and add it with
//! `BigInt::add`.
//!
//! Every cell width from 1 to 140 bytes is covered — each tail length of
//! the top word, the short-cell (< 8 B) reads at the head of a column and
//! the multi-word path — under random, all-negative and all-positive signs,
//! with negative zeros, member lists in any order, shard splits merged
//! back, and accumulators narrower than the cells. Seeded, so a failure
//! reproduces.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use up_num::{decode_compact, BigInt, DecimalType, SumAcc};

const SEED: u64 = 0x5eed_f01d;

/// The smallest type whose cells are `lb` bytes and whose `Lw` words hold
/// any `8·Lb − 1`-bit magnitude, so that `decode_compact` reads every cell
/// of that width whole.
fn type_of_width(lb: usize) -> DecimalType {
    (1..)
        .map(|p| DecimalType::new_unchecked(p, 0))
        .find(|t| t.lb() == lb && 32 * t.lw() >= 8 * lb - 1)
        .expect("every width has such a type")
}

#[derive(Clone, Copy, Debug)]
enum Signs {
    Random,
    AllNegative,
    AllPositive,
}

/// A random cell of `lb` bytes: a magnitude of random bit length, zero one
/// time in eight — so with a sign bit a negative zero — and all ones one
/// time in sixteen.
fn random_cell(rng: &mut StdRng, lb: usize, signs: Signs) -> Vec<u8> {
    let max_bits = 8 * lb - 1;
    let bits = match rng.gen_range(0..8u32) {
        0 => 0,
        1 => max_bits,
        _ => rng.gen_range(0..=max_bits),
    };
    let all_ones = bits == max_bits && rng.gen_bool(0.5);
    let mut cell: Vec<u8> = (0..lb)
        .map(|i| {
            let keep = bits.saturating_sub(8 * i).min(8);
            let byte = if all_ones { 0xff } else { rng.next_u32() as u8 };
            byte & ((1u16 << keep) - 1) as u8
        })
        .collect();
    let negative = match signs {
        Signs::Random => rng.gen_bool(0.5),
        Signs::AllNegative => true,
        Signs::AllPositive => false,
    };
    if negative {
        cell[lb - 1] |= 0x80;
    }
    cell
}

/// `Σ rows` the per-value way.
fn reference(column: &[u8], ty: DecimalType, rows: &[usize]) -> BigInt {
    let lb = ty.lb();
    rows.iter().fold(BigInt::zero(), |acc, &r| {
        acc.add(decode_compact(&column[r * lb..][..lb], ty).unscaled())
    })
}

#[test]
fn every_width_and_sign_pattern_equals_the_bigint_fold() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for lb in 1..=140 {
        let ty = type_of_width(lb);
        assert_eq!(ty.lb(), lb);
        for signs in [Signs::Random, Signs::AllNegative, Signs::AllPositive] {
            for _ in 0..4 {
                let n = rng.gen_range(0..=40usize);
                let column: Vec<u8> = (0..n)
                    .flat_map(|_| random_cell(&mut rng, lb, signs))
                    .collect();
                let label = format!("Lb {lb}, {signs:?}, {n} rows");
                let all: Vec<usize> = (0..n).collect();
                let want = reference(&column, ty, &all);
                let out_lw = ty.sum_result(n as u64).lw();
                let mut acc = SumAcc::new(out_lw);
                acc.add_cells(&column, lb, 0..n);
                assert_eq!(acc.finish(), want, "{label}: whole column");

                // A member list in any order, with repeats and gaps.
                let rows: Vec<usize> = (0..rng.gen_range(0..=2 * n))
                    .map(|_| rng.gen_range(0..n.max(1)))
                    .collect();
                let rows = if n == 0 { Vec::new() } else { rows };
                let want = reference(&column, ty, &rows);
                let mut acc = SumAcc::new(out_lw);
                acc.add_cells(&column, lb, rows.iter().copied());
                assert_eq!(acc.finish(), want, "{label}: members {rows:?}");

                // Split in two, both halves folded in order into one
                // accumulator narrower than the cells, which must grow.
                let cut = rng.gen_range(0..=rows.len());
                let narrow = rng.gen_range(0..=out_lw);
                let mut acc = SumAcc::new(narrow);
                acc.add_cells(&column, lb, rows[..cut].iter().copied());
                acc.add_cells(&column, lb, rows[cut..].iter().copied());
                assert_eq!(
                    acc.finish(),
                    want,
                    "{label}: split at {cut}, {narrow} words"
                );
            }
        }
    }
}

#[test]
fn maximal_cells_carry_past_a_one_word_result() {
    // 2²⁰ maximal cells of each sign into a one-word accumulator, read as
    // one cell repeated: the total needs 20 bits more than a cell.
    for lb in [1, 4, 7, 8, 9, 16, 17, 33, 140] {
        let ty = type_of_width(lb);
        let mut max = vec![0xff; lb];
        max[lb - 1] = 0x7f;
        let one = reference(&max, ty, &[0]);
        let want = (0..20).fold(one, |acc, _| acc.add(&acc));
        for (cell, want) in [
            (max.clone(), want.clone()),
            ([&max[..lb - 1], &[0xff]].concat(), want.neg()),
        ] {
            let mut acc = SumAcc::new(1);
            acc.add_cells(&cell, lb, std::iter::repeat_n(0, 1 << 20));
            assert_eq!(acc.finish(), want, "Lb {lb}");
        }
    }
}
