#![warn(missing_docs)]
//! # up-jit — the JIT expression-compilation framework
//!
//! The paper's core contribution: decimal expressions are compiled
//! just-in-time into per-(p, s) specialized GPU kernels. This crate holds
//! the typed expression tree over columns, constants and the five decimal operators ([`expr`]), the §III-D rewrites — binary↔n-ary
//! conversion ([`nary`]), alignment scheduling ([`schedule`]) and constant
//! optimization ([`constfold`]) — the code generator emitting the PTX-like
//! ISA ([`codegen`]), and the kernel cache with compile-time accounting
//! ([`cache`]).

pub mod cache;
pub mod codegen;
pub mod constfold;
pub mod expr;
pub mod nary;
pub mod schedule;

pub use cache::{JitEngine, JitOptions};
pub use codegen::{compile_expr, CompiledExpr};
pub use expr::Expr;
pub use nary::NExpr;
pub use schedule::{alignment_count, schedule_alignment};
