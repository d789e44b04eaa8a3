#![warn(missing_docs)]
//! # up-num — arbitrary-precision fixed-point decimal arithmetic
//!
//! The numeric core of the UltraPrecise reproduction (ICDE 2024): 32-bit
//! limb primitives with explicit carry chains (the software analogue of the
//! paper's PTX `addc`/`subc`), school-book and Karatsuba multiplication,
//! five division algorithms (Knuth D, single-word fast path, binary-search
//! quotient, Newton–Raphson, Goldschmidt), a signed [`BigInt`], the
//! [`DecimalType`] metadata with the paper's §III-B3 intermediate-precision
//! rules, the fixed-point value type [`UpDecimal`], the compact ↔
//! word-aligned representation pair of Fig. 4, and allocation-free fold /
//! compare / render primitives over compact columns ([`column`]).
//!
//! ```
//! use up_num::{DecimalType, UpDecimal};
//!
//! let t = DecimalType::new(17, 5).unwrap();
//! let a = UpDecimal::parse("123.45678", t).unwrap();
//! let b = UpDecimal::parse("0.00322", t).unwrap();
//! assert_eq!(a.add(&b).to_string(), "123.46000");
//! ```

pub mod bigint;
pub mod column;
pub mod compact;
pub mod decimal;
pub mod div;
pub mod dtype;
pub mod limbs;
pub mod mul;
pub mod pow10;

pub use bigint::{BigInt, Sign};
pub use column::{append_compact, cmp_compact, write_compact, write_decimal, SumAcc};
pub use compact::{decode_compact, encode_compact, encode_compact_into, expand_compact, WordRepr};
pub use decimal::UpDecimal;
pub use dtype::{lb_for_precision, lw_for_precision, max_precision_for_lw, DecimalType, DIV_EXTRA_SCALE};

use core::fmt;

/// Errors produced by the numeric core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NumError {
    /// A literal could not be parsed.
    Parse(String),
    /// A value needs more digits than its declared precision.
    Overflow {
        /// The violated type.
        ty: DecimalType,
        /// Digits the value actually needs.
        digits: u32,
    },
    /// Division or modulo by zero.
    DivisionByZero,
    /// An invalid `DECIMAL(p, s)` declaration.
    InvalidType {
        /// Offending precision.
        precision: u32,
        /// Offending scale.
        scale: u32,
        /// Human-readable constraint.
        reason: &'static str,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Parse(msg) => write!(f, "parse error: {msg}"),
            NumError::Overflow { ty, digits } => {
                write!(f, "numeric overflow: {digits} digits do not fit {ty}")
            }
            NumError::DivisionByZero => write!(f, "division by zero"),
            NumError::InvalidType { precision, scale, reason } => {
                write!(f, "invalid DECIMAL({precision}, {scale}): {reason}")
            }
        }
    }
}

impl std::error::Error for NumError {}
