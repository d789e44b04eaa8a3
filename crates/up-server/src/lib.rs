#![warn(missing_docs)]
//! # up-server — a concurrent query service over the engine
//!
//! The paper evaluates UltraPrecise inside RateupDB, a *server*: many
//! clients, one GPU, shared compiled artifacts. This crate reproduces
//! that deployment shape on top of [`up_engine`]:
//!
//! - **Sessions** ([`session`]): connect/disconnect with a per-session
//!   execution profile.
//! - **Admission control** ([`admission`]): a bounded queue feeding a
//!   configurable worker pool, dequeued by per-session weighted deficit
//!   round-robin; when it is full, submissions are rejected with a
//!   suggested retry-after instead of piling up latency.
//! - **Shared JIT kernel cache**: all sessions compile through one
//!   lock-striped LRU ([`up_jit::cache::SharedKernelCache`]), so a
//!   signature is compiled at most once no matter how many sessions race
//!   on it.
//! - **Metrics** ([`metrics`]): latency histograms, queue depth, cache
//!   hit rate, and modeled SM-seconds, snapshotable as a plain struct or
//!   a printable text report.
//!
//! A query's [`up_engine::ModeledTime`] is exactly what the engine
//! models for it alone; the server adds no modeled time of its own.
//!
//! Reads run concurrently (the engine's `query` takes `&self`). The
//! engine's catalog is lock-striped per table, so row inserts take the
//! server's read lock plus one table's write lock — inserts into
//! disjoint tables proceed in parallel with each other and with queries
//! over other tables. Only DDL (create/replace table) takes the global
//! write lock. Query concurrency comes from the worker pool: each kernel
//! launch runs its simulated blocks in order on the worker thread that
//! issued it, so N workers use at most N host cores for simulation.
//!
//! ```
//! use up_engine::{ColumnType, Profile, Schema, Value};
//! use up_num::{DecimalType, UpDecimal};
//! use up_server::{ServerConfig, UpServer};
//!
//! let server = UpServer::new(ServerConfig::default());
//! let ty = DecimalType::new_unchecked(6, 2);
//! server.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(ty))]));
//! server
//!     .insert_many(
//!         "t",
//!         vec![vec![Value::Decimal(UpDecimal::parse("1.25", ty).unwrap())]],
//!     )
//!     .unwrap();
//! let session = server.connect(Profile::UltraPrecise);
//! let result = server.query(session, "SELECT x + x FROM t").unwrap();
//! assert_eq!(result.rows[0][0].render(), "2.50");
//! println!("{}", server.metrics().report());
//! ```

pub mod admission;
pub mod metrics;
pub mod server;
pub mod session;

pub use metrics::{LatencyHistogram, LatencySummary, MetricsSnapshot};
pub use server::{CancelHandle, Completion, QueryTicket, ServerConfig, ServerError, UpServer};
pub use session::{SessionId, SessionManager};
