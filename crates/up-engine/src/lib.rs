#![warn(missing_docs)]
//! # up-engine — the database substrate
//!
//! A column-store SQL engine hosting the UltraPrecise framework, modeled
//! on the role RateupDB plays in the paper: compact decimal column
//! storage ([`storage`]), a SQL subset front end ([`sql`]), name
//! resolution and expression binding ([`plan`]), per-system execution
//! profiles ([`profiles`]), and an executor that routes DECIMAL
//! arithmetic through JIT-compiled GPU kernels, thread-group aggregation,
//! or the comparator backends ([`exec`]). [`Database`] ties it together.

pub mod engine;
pub mod exec;
pub mod plan;
pub mod profiles;
pub mod rows;
pub mod sql;
pub mod storage;

pub use engine::Database;
pub use exec::{ModeledTime, QueryError, QueryResult};
pub use profiles::Profile;
pub use rows::{Column, Rows};
pub use storage::{Catalog, ColumnData, ColumnType, Schema, Table, Value};
