//! # UltraPrecise (reproduction) — GPU-based arbitrary-precision decimal
//! arithmetic for database systems
//!
//! A from-scratch Rust reproduction of *UltraPrecise: A GPU-Based
//! Framework for Arbitrary-Precision Arithmetic in Database Systems*
//! (ICDE 2024). The workspace provides:
//!
//! * [`up_num`] — the arbitrary-precision fixed-point numeric core;
//! * [`up_gpusim`] — the simulated SIMT GPU substrate (PTX-like ISA,
//!   functional executor, cost model, CGBN-style thread groups,
//!   multi-pass aggregation);
//! * [`up_jit`] — the JIT expression compiler with alignment scheduling
//!   and constant optimization;
//! * [`up_baselines`] — the comparator systems (PostgreSQL-style numeric,
//!   limited-precision engines, DOUBLE, the alternative representation);
//! * [`up_engine`] — the column-store SQL engine with per-system
//!   execution profiles;
//! * [`up_server`] — the concurrent query service (sessions, admission
//!   control, shared JIT cache, metrics);
//! * [`up_net`] — the framed TCP wire protocol in front of the service,
//!   with per-tenant quotas and a blocking client;
//! * [`up_workloads`] — TPC-H, RSA-in-SQL, Taylor trigonometry, and
//!   compression workload generators.
//!
//! ```
//! use ultraprecise::prelude::*;
//!
//! let mut db = Database::new(Profile::UltraPrecise);
//! db.create_table("r", Schema::new(vec![
//!     ("c1", ColumnType::Decimal(DecimalType::new(17, 5).unwrap())),
//! ]));
//! db.insert("r", vec![Value::Decimal(
//!     UpDecimal::parse("123456789012.34567", DecimalType::new(17, 5).unwrap()).unwrap(),
//! )]).unwrap();
//! let result = db.query("SELECT c1 + c1 FROM r").unwrap();
//! assert_eq!(result.rows[0][0].render(), "246913578024.69134");
//! ```

pub use up_baselines;
pub use up_engine;
pub use up_gpusim;
pub use up_jit;
pub use up_net;
pub use up_num;
pub use up_server;
pub use up_workloads;

/// Convenient re-exports for applications.
pub mod prelude {
    pub use up_engine::{ColumnType, Database, Profile, QueryError, QueryResult, Schema, Value};
    pub use up_net::{Client, NetConfig, TenantQuota, TenantRegistry, WireServer};
    pub use up_num::{DecimalType, UpDecimal};
    pub use up_server::{ServerConfig, SessionId, UpServer};
}
