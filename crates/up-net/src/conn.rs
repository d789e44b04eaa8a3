//! The connection layer: the protocol brain and the server handle.
//!
//! [`WireServer`] binds the listener, owns the shared counters, and hands
//! both to the readiness [`reactor`](crate::reactor) — an acceptor plus
//! [`NetConfig::event_threads`] event loops over nonblocking sockets,
//! O(cores) threads no matter how many connections are open. That is the
//! only connection driver; the build target picks its poller
//! ([`ReactorMode`](crate::ReactorMode)).
//!
//! The rest of this module is what a connection *means*, kept apart from
//! how its bytes move: `ConnState` is the handshake order, `do_auth` and
//! `admit_query` perform the handshake and admission side effects,
//! `encode_reply` turns a finished query into the bytes (or the stable
//! error) to answer with. Error codes and quota behavior are decided here
//! and nowhere else.

use crate::config::NetConfig;
use crate::frame::{encode_rows, ErrorCode, Frame};
use crate::tenant::TenantRegistry;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use up_engine::Profile;
use up_server::{SessionId, UpServer};

#[cfg(unix)]
use crate::reactor::Reactor;

/// Targets with no readiness poller have no reactor: the workspace still
/// builds there, and [`WireServer::start`] says why it cannot run.
#[cfg(not(unix))]
enum Reactor {}

#[cfg(not(unix))]
impl Reactor {
    fn start(_: Arc<NetInner>, _: TcpListener) -> std::io::Result<Reactor> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the wire server needs a unix readiness poller (epoll or poll)",
        ))
    }

    fn shutdown(self) {
        match self {}
    }
}

/// The granularity at which the event loops observe idle connections,
/// query deadlines and a stalled final flush.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(25);

/// Wire-layer counters (the connection-level complement of
/// [`UpServer::metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct WireStats {
    /// Connections accepted (including later-refused ones).
    pub accepted: u64,
    /// Connections refused at the connection cap.
    pub refused: u64,
    /// Connections open right now.
    pub active: usize,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Connections dropped for protocol violations (bad frames, wrong
    /// handshake order, oversized frames).
    pub protocol_errors: u64,
    /// Connections dropped because the peer stopped reading and its
    /// bounded outbound queue overflowed ([`NetConfig::max_write_buf`]).
    pub slow_closed: u64,
}

pub(crate) struct NetInner {
    pub(crate) up: Arc<UpServer>,
    pub(crate) tenants: Arc<TenantRegistry>,
    pub(crate) config: NetConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) idle_closed: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) slow_closed: AtomicU64,
}

impl NetInner {
    fn stats(&self) -> WireStats {
        WireStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            slow_closed: self.slow_closed.load(Ordering::Relaxed),
        }
    }
}

/// The TCP front end: owns the listener and every server-side thread.
/// Dropping (or [`shutdown`](WireServer::shutdown)) stops accepting,
/// tells every connection to finish, and joins all threads.
pub struct WireServer {
    inner: Arc<NetInner>,
    reactor: Option<Reactor>,
    addr: SocketAddr,
}

impl WireServer {
    /// Binds `config.addr` and starts accepting. The `UpServer` is
    /// shared, not owned — several front ends (or in-process callers)
    /// may drive one server. Fails with
    /// [`Unsupported`](std::io::ErrorKind::Unsupported) on targets with
    /// no readiness poller (anything that is not unix).
    pub fn start(
        up: Arc<UpServer>,
        tenants: Arc<TenantRegistry>,
        config: NetConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(NetInner {
            up,
            tenants,
            config,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            slow_closed: AtomicU64::new(0),
        });
        let reactor = Reactor::start(Arc::clone(&inner), listener)?;
        Ok(WireServer { inner, reactor: Some(reactor), addr })
    }

    /// The bound address (resolves the ephemeral port of `host:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wire-layer counters.
    pub fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    /// The full text report: service metrics, tenant counters, and the
    /// wire line. This is what a `Metrics` frame answers with.
    pub fn report(&self) -> String {
        render_report(&self.inner)
    }

    /// Stops accepting, asks every connection to finish (in-flight
    /// queries drain first), and joins all threads. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(r) = self.reactor.take() {
            r.shutdown();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) fn render_report(inner: &NetInner) -> String {
    let w = inner.stats();
    format!(
        "{}{}== up-net ==\nmode:        {} ({} event threads)\nconns:       {} active / {} \
         accepted, {} refused (cap {}), {} idle-closed, {} protocol errors, {} slow-consumer\n",
        inner.up.metrics().report(),
        inner.tenants.report(),
        inner.config.reactor.name(),
        inner.config.event_threads,
        w.active,
        w.accepted,
        w.refused,
        inner.config.max_conns,
        w.idle_closed,
        w.protocol_errors,
        w.slow_closed,
    )
}

/// Best-effort refusal at the connection cap: a stable error frame and
/// an orderly goodbye in one nonblocking write — a new socket's send
/// buffer is empty, so the few dozen bytes fit, and a peer that is
/// already gone costs the acceptor nothing.
pub(crate) fn refuse(mut stream: TcpStream) {
    let mut bytes = Frame::Error {
        id: 0,
        code: ErrorCode::ConnLimit.as_u16(),
        message: "server connection cap reached".into(),
    }
    .to_bytes();
    Frame::Goodbye.encode(&mut bytes);
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&bytes);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection protocol state: which frames are legal next.
#[derive(Clone, Copy)]
pub(crate) enum ConnState {
    ExpectHello,
    ExpectAuth,
    Ready,
}

/// Authenticates a tenant and binds a fresh weighted server session —
/// the successful-`Auth` side effect.
pub(crate) fn do_auth(
    inner: &NetInner,
    tenant: &str,
    token: &str,
) -> Result<SessionId, ErrorCode> {
    let quota = inner.tenants.authenticate(tenant, token)?;
    let session = inner.up.connect(Profile::UltraPrecise);
    inner.up.set_session_weight(session, quota.weight);
    Ok(session)
}

/// The per-query admission gate run before submitting: the
/// connection's in-flight cap, then the tenant's quotas. On `Err` the
/// caller answers with the code and message, and the query never
/// reaches the server (no `on_done` owed).
pub(crate) fn admit_query(
    inner: &NetInner,
    tenant: &str,
    inflight: usize,
) -> Result<(), (ErrorCode, String)> {
    if inflight >= inner.config.max_inflight as usize {
        return Err((
            ErrorCode::TooManyInflight,
            format!("connection already has {} queries in flight", inner.config.max_inflight),
        ));
    }
    if let Err(code) = inner.tenants.try_admit(tenant) {
        return Err((code, format!("tenant {tenant} is over quota")));
    }
    Ok(())
}

/// The reply to query `id`, built on the worker thread that finished it
/// (never an event loop): the encoded `Rows` frame and
/// the tenant's result bytes, or the `Error` frame to answer with — a
/// failed query, or a result whose frame the peer's decoder would refuse.
pub(crate) fn encode_reply(
    id: u64,
    result: Result<up_engine::QueryResult, up_server::ServerError>,
    max_frame: u32,
) -> Result<(Vec<u8>, u64), Frame> {
    let fail = |code: ErrorCode, message| Frame::Error { id, code: code.as_u16(), message };
    let r = result.map_err(|e| fail(ErrorCode::from_server_error(&e), e.to_string()))?;
    encode_rows(id, &r.columns, &r.rows, max_frame).map_err(|size| {
        let rows = r.rows.len();
        fail(ErrorCode::FrameTooLarge, format!("{rows} rows need a frame over {size} bytes (limit {max_frame})"))
    })
}

pub(crate) fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello { .. } => "Hello",
        Frame::Auth { .. } => "Auth",
        Frame::AuthOk { .. } => "AuthOk",
        Frame::Query { .. } => "Query",
        Frame::Cancel { .. } => "Cancel",
        Frame::Rows { .. } => "Rows",
        Frame::Error { .. } => "Error",
        Frame::Metrics { .. } => "Metrics",
        Frame::Goodbye => "Goodbye",
    }
}
