//! `up-net` — a framed TCP wire protocol in front of
//! [`UpServer`](up_server::UpServer), with per-tenant quotas.
//!
//! The crate turns the in-process query service into a network service
//! using only `std::net` (the workspace is offline; no async runtime):
//!
//! - [`frame`] — the codec: length-prefixed, versioned binary frames
//!   with strict limits and stable numeric [`ErrorCode`]s;
//! - [`conn`] — the [`WireServer`] handle (bind, counters, graceful
//!   shutdown that drains in-flight queries) and the protocol brain:
//!   handshake order, admission, stable error codes;
//! - [`reactor`] — the one connection driver: an acceptor plus
//!   `O(cores)` readiness event loops over nonblocking sockets in a
//!   slab, per-connection read/write state machines over the codec, a
//!   bounded per-connection write buffer, idle timeouts, and a wakeup
//!   path that hands query completions back to the owning event thread
//!   (`epoll` on Linux, `poll(2)` on other unix — the build decides);
//! - [`tenant`] — the [`TenantRegistry`]: token-bucket rate limits,
//!   concurrency caps, result-byte budgets, and DRR admission weights;
//! - [`client`] — a blocking [`Client`] shared by the tests, the
//!   `bench_net` load harness, and `examples/wire_service.rs`;
//! - [`config`] — [`NetConfig`]; its listen address defaults from
//!   `UP_NET_ADDR`.
//!
//! ```
//! use std::sync::Arc;
//! use up_engine::{ColumnType, Schema, Value};
//! use up_net::{Client, NetConfig, TenantQuota, TenantRegistry, WireServer};
//! use up_num::{DecimalType, UpDecimal};
//! use up_server::{ServerConfig, UpServer};
//!
//! let up = Arc::new(UpServer::new(ServerConfig::default()));
//! let t = DecimalType::new_unchecked(6, 2);
//! up.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(t))]));
//! up.insert_many("t", [vec![Value::Decimal(UpDecimal::parse("1.25", t).unwrap())]])
//!     .unwrap();
//!
//! let tenants = Arc::new(TenantRegistry::new());
//! tenants.register("acme", "s3cret", TenantQuota::default());
//! let mut server = WireServer::start(up, tenants, NetConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr(), "acme", "s3cret").unwrap();
//! let rows = client.query("SELECT x + x FROM t").unwrap();
//! assert_eq!(rows.rows[0][0], "2.50");
//! client.goodbye().unwrap();
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod conn;
pub mod frame;
#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
mod sys;
pub mod tenant;
mod writeq;

pub use client::{Client, Reply, RowSet};
pub use config::{NetConfig, ReactorMode};
pub use conn::{WireServer, WireStats};
pub use frame::{
    encode_rows, parse_frame, read_frame, write_frame, DecodeError, ErrorCode, Frame,
    FrameAssembler, WireError, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
pub use tenant::{TenantQuota, TenantRegistry, TenantStats};
pub use writeq::Overflow;
