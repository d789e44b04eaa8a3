//! Frame-of-reference (FOR) compression for compact decimal columns —
//! the §IV-D1 case study.
//!
//! The paper evaluates FOR \[28\] on TPC-H Q1's decimal columns: values are
//! blocked, each block stores a reference (its minimum) and fixed-width
//! deltas, and the kernel decompresses before calculating. Narrower
//! distributions compress harder; the measured end-to-end speedups (with
//! PCIe transfer) were 1.38×/2.01×/3.36×/4.80× at LEN 4/8/16/32.

use up_num::{BigInt, DecimalType, Sign, UpDecimal};

/// Values per compression block.
pub const BLOCK: usize = 1024;

/// One FOR block: reference value + byte-width + packed deltas.
#[derive(Clone, Debug)]
pub struct ForBlock {
    /// Minimum (reference) as a signed unscaled integer.
    pub reference: BigInt,
    /// Bytes per delta.
    pub width: usize,
    /// Packed little-endian deltas, `width` bytes each.
    pub deltas: Vec<u8>,
    /// Values in this block.
    pub len: usize,
}

/// A FOR-compressed decimal column.
#[derive(Clone, Debug)]
pub struct ForColumn {
    /// Element type.
    pub ty: DecimalType,
    /// Blocks.
    pub blocks: Vec<ForBlock>,
}

impl ForColumn {
    /// Compressed size in bytes (references stored at the column's
    /// uncompressed width plus one byte of width metadata per block).
    pub fn compressed_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| self.ty.lb() as u64 + 1 + b.deltas.len() as u64)
            .sum()
    }

    /// Uncompressed size in bytes.
    pub fn uncompressed_bytes(&self) -> u64 {
        let n: usize = self.blocks.iter().map(|b| b.len).sum();
        (n * self.ty.lb()) as u64
    }

    /// Compression ratio (uncompressed / compressed).
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes() as f64 / self.compressed_bytes() as f64
    }
}

/// Compresses a column of decimals (all of type `ty`).
pub fn compress(values: &[UpDecimal], ty: DecimalType) -> ForColumn {
    let mut blocks = Vec::with_capacity(values.len().div_ceil(BLOCK));
    for chunk in values.chunks(BLOCK) {
        let reference = chunk
            .iter()
            .map(UpDecimal::unscaled)
            .min()
            .expect("non-empty chunk")
            .clone();
        // Deltas are non-negative by construction.
        let deltas_big: Vec<BigInt> =
            chunk.iter().map(|v| v.unscaled().sub(&reference)).collect();
        let max_bits = deltas_big
            .iter()
            .map(BigInt::bit_len)
            .max()
            .expect("non-empty");
        let width = ((max_bits as usize).div_ceil(8)).max(1);
        let mut deltas = Vec::with_capacity(chunk.len() * width);
        for d in &deltas_big {
            debug_assert!(d.sign() != Sign::Minus);
            let mag = d.mag();
            for b in 0..width {
                let limb = mag.get(b / 4).copied().unwrap_or(0);
                deltas.push((limb >> (8 * (b % 4))) as u8);
            }
        }
        blocks.push(ForBlock { reference, width, deltas, len: chunk.len() });
    }
    ForColumn { ty, blocks }
}

/// Decompresses back to decimals — the work the kernel performs before
/// calculating ("we decompress the values before the calculation in the
/// kernel").
pub fn decompress(col: &ForColumn) -> Vec<UpDecimal> {
    let mut out = Vec::with_capacity(col.blocks.iter().map(|b| b.len).sum());
    for block in &col.blocks {
        for i in 0..block.len {
            let raw = &block.deltas[i * block.width..(i + 1) * block.width];
            let mut limbs = vec![0u32; raw.len().div_ceil(4)];
            for (b, &byte) in raw.iter().enumerate() {
                limbs[b / 4] |= (byte as u32) << (8 * (b % 4));
            }
            let delta = BigInt::from_sign_mag(
                if limbs.iter().all(|&w| w == 0) { Sign::Zero } else { Sign::Plus },
                limbs,
            );
            let v = block.reference.add(&delta);
            out.push(UpDecimal::from_parts_unchecked(v, col.ty));
        }
    }
    out
}

/// Modeled per-value decompression cost in kernel cycles: one wide add
/// per value plus delta unpacking.
pub fn decompress_cycles_per_value(ty: DecimalType, width: usize) -> f64 {
    2.0 * ty.lw() as f64 + width as f64 * 0.5 + 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn round_trip_exact() {
        let t = ty(29, 11);
        let vals = datagen::random_decimal_column(3000, t, 2, true, 5);
        let c = compress(&vals, t);
        let back = decompress(&c);
        assert_eq!(back.len(), vals.len());
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.cmp_value(b), core::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn narrow_distributions_compress_harder() {
        let t = ty(38, 2);
        // Narrow: values clustered within a small range.
        let narrow: Vec<UpDecimal> = (0..4096)
            .map(|i| {
                UpDecimal::from_scaled_i64(1_000_000_000 + (i % 1000) as i64, t).unwrap()
            })
            .collect();
        // Wide: full 36-digit spread.
        let wide = datagen::random_decimal_column(4096, t, 2, false, 6);
        let cn = compress(&narrow, t);
        let cw = compress(&wide, t);
        assert!(cn.ratio() > 3.0, "narrow ratio {}", cn.ratio());
        assert!(cn.ratio() > 2.0 * cw.ratio(), "{} vs {}", cn.ratio(), cw.ratio());
        // Round trips still hold.
        assert_eq!(decompress(&cn)[17].cmp_value(&narrow[17]), core::cmp::Ordering::Equal);
    }

    #[test]
    fn constant_column_compresses_to_metadata() {
        let t = ty(17, 5);
        let v = UpDecimal::parse("123.45000", t).unwrap();
        let vals = vec![v; 2048];
        let c = compress(&vals, t);
        // width 1 (all-zero deltas): ~1 byte per value + block headers.
        assert!(c.compressed_bytes() < c.uncompressed_bytes() / 4);
        assert_eq!(decompress(&c)[2047].cmp_value(&vals[0]), core::cmp::Ordering::Equal);
    }

    #[test]
    fn negative_values_handled_by_reference() {
        let t = ty(10, 3);
        let vals: Vec<UpDecimal> = (-100i64..100)
            .map(|i| UpDecimal::from_scaled_i64(i * 997, t).unwrap())
            .collect();
        let c = compress(&vals, t);
        let back = decompress(&c);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.cmp_value(b), core::cmp::Ordering::Equal);
        }
    }
}
