//! The connection layer: one acceptor, two execution modes.
//!
//! [`WireServer::start`] dispatches on [`NetConfig::reactor`]:
//!
//! - **`threads`** (legacy): per connection, a **reader** thread owning
//!   the protocol state machine (`Hello → Auth → Ready`) and a
//!   **writer** thread draining a *bounded* outbound frame queue
//!   ([`WriteQueue`]); per in-flight query, a small **waiter** thread
//!   blocking on the [`QueryTicket`](up_server::QueryTicket). Simple,
//!   portable, O(connections) threads.
//! - **`epoll`** (default on Linux): the readiness [`reactor`] — a
//!   fixed pool of [`NetConfig::event_threads`] event loops over
//!   nonblocking sockets, O(cores) threads no matter how many
//!   connections are open. See [`crate::reactor`].
//!
//! Both modes share this module's protocol brain — [`classify`] maps
//! `(state, frame)` to an [`Intent`], [`do_auth`] and [`admit_query`]
//! perform the identical side effects — so handshake order, stable
//! error codes, quota behavior, idle/slow-consumer teardown, and the
//! drain-before-`Goodbye` shutdown sequence are byte-identical on the
//! wire regardless of mode.
//!
//! Reads are length-framed through the shared [`FrameAssembler`]: a
//! frame split across reads can never desynchronize the stream.
//! Graceful teardown — client `Goodbye`, idle timeout, slow-consumer
//! overflow, or server shutdown — stops reading, **drains in-flight
//! tickets**, then sends `Goodbye` and closes the server session, which
//! releases its DRR lane and errors anything still queued.

use crate::config::{NetConfig, ReactorMode};
use crate::frame::{encode_rows, write_frame, ErrorCode, Frame, FrameAssembler};
use crate::tenant::TenantRegistry;
use crate::writeq::WriteQueue;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use up_engine::Profile;
use up_server::{SessionId, UpServer};

/// Stack for connection/waiter threads — thousands of connections fit
/// comfortably (the handlers recurse nowhere near default depth).
pub(crate) const CONN_STACK: usize = 256 * 1024;

/// Poll tick: the granularity at which idle/stop/slow are observed, in
/// both the threads-mode reader and the reactor's `epoll_wait`.
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

/// The running backend: which threads to join at shutdown.
enum Backend {
    Threads {
        acceptor: Option<JoinHandle<()>>,
        conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    },
    #[cfg(target_os = "linux")]
    Epoll(Option<crate::reactor::Reactor>),
}

/// The TCP front end: owns the listener and every server-side thread.
/// Dropping (or [`shutdown`](WireServer::shutdown)) stops accepting,
/// tells every connection to finish, and joins all threads.
pub struct WireServer {
    inner: Arc<NetInner>,
    backend: Backend,
    mode: ReactorMode,
    addr: SocketAddr,
}

impl WireServer {
    /// Binds `config.addr` and starts accepting. The `UpServer` is
    /// shared, not owned — several front ends (or in-process callers)
    /// may drive one server.
    pub fn start(
        up: Arc<UpServer>,
        tenants: Arc<TenantRegistry>,
        config: NetConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mode = config.reactor.effective();
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
        let backend = match mode {
            ReactorMode::Threads => {
                let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
                let acceptor = {
                    let inner = Arc::clone(&inner);
                    let conns = Arc::clone(&conns);
                    std::thread::Builder::new()
                        .name("up-net-accept".into())
                        .spawn(move || accept_loop(inner, listener, conns))
                        .expect("spawn acceptor")
                };
                Backend::Threads { acceptor: Some(acceptor), conns }
            }
            #[cfg(target_os = "linux")]
            ReactorMode::Epoll => Backend::Epoll(Some(crate::reactor::Reactor::start(
                Arc::clone(&inner),
                listener,
            )?)),
            #[cfg(not(target_os = "linux"))]
            ReactorMode::Epoll => unreachable!("ReactorMode::effective degrades epoll off-linux"),
        };
        Ok(WireServer { inner, backend, mode, addr })
    }

    /// The bound address (resolves the ephemeral port of `host:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which backend this server is actually running (after the
    /// off-platform degrade in [`ReactorMode::effective`]).
    pub fn mode(&self) -> ReactorMode {
        self.mode
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
        match &mut self.backend {
            Backend::Threads { acceptor, conns } => {
                if let Some(h) = acceptor.take() {
                    let _ = h.join();
                }
                let handles = std::mem::take(&mut *conns.lock().expect("conn list poisoned"));
                for h in handles {
                    let _ = h.join();
                }
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll(reactor) => {
                if let Some(r) = reactor.take() {
                    r.shutdown();
                }
            }
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
        inner.config.reactor.effective().name(),
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

fn accept_loop(inner: Arc<NetInner>, listener: TcpListener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while !inner.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.accepted.fetch_add(1, Ordering::Relaxed);
                // Accepted sockets must be blocking regardless of what
                // the platform says they inherit from the listener.
                let _ = stream.set_nonblocking(false);
                if inner.active.load(Ordering::Relaxed) >= inner.config.max_conns {
                    inner.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(stream);
                    continue;
                }
                inner.active.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name("up-net-conn".into())
                    .stack_size(CONN_STACK)
                    .spawn(move || {
                        conn_main(&conn_inner, stream);
                        conn_inner.active.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection thread");
                let mut g = conns.lock().expect("conn list poisoned");
                g.retain(|h| !h.is_finished());
                g.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Best-effort refusal at the connection cap: a stable error frame and
/// an orderly goodbye, bounded so a dead peer can't stall the acceptor.
pub(crate) fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = write_frame(
        &mut stream,
        &Frame::Error {
            id: 0,
            code: ErrorCode::ConnLimit.as_u16(),
            message: "server connection cap reached".into(),
        },
    );
    let _ = write_frame(&mut stream, &Frame::Goodbye);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection protocol state. Shared by both wire modes.
#[derive(PartialEq)]
pub(crate) enum ConnState {
    ExpectHello,
    ExpectAuth,
    Ready,
}

/// What a decoded frame asks the connection to do. [`classify`] is the
/// one place `(state, frame)` is interpreted, so the two wire modes
/// cannot drift apart on protocol decisions.
pub(crate) enum Intent {
    /// Legal `Hello` in `ExpectHello`: reply with the server's limits.
    SendHello,
    /// Legal `Auth` in `ExpectAuth`: authenticate the tenant.
    Auth { tenant: String, token: String },
    /// Legal `Query` in `Ready`: admit and submit.
    Submit { id: u64, sql: String },
    /// Legal `Cancel` in `Ready`: best-effort cancel by id.
    Cancel { id: u64 },
    /// Legal `Metrics` request in `Ready`: reply with the text report.
    Metrics,
    /// Orderly close from the peer (legal in every state).
    Goodbye,
    /// Any other frame: protocol violation, answer `BadState` + close.
    BadState { name: &'static str },
}

pub(crate) fn classify(state: &ConnState, frame: Frame) -> Intent {
    match (state, frame) {
        (ConnState::ExpectHello, Frame::Hello { .. }) => Intent::SendHello,
        (ConnState::ExpectAuth, Frame::Auth { tenant, token }) => Intent::Auth { tenant, token },
        (ConnState::Ready, Frame::Query { id, sql }) => Intent::Submit { id, sql },
        (ConnState::Ready, Frame::Cancel { id }) => Intent::Cancel { id },
        (ConnState::Ready, Frame::Metrics { .. }) => Intent::Metrics,
        (_, Frame::Goodbye) => Intent::Goodbye,
        (_, other) => Intent::BadState { name: frame_name(&other) },
    }
}

/// Authenticates a tenant and binds a fresh weighted server session —
/// the successful-`Auth` side effect, identical in both modes.
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

/// The per-query admission gate both modes run before submitting: the
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

/// The reply to query `id`, built on the thread that finished it (a
/// worker or a waiter, never an event loop): the encoded `Rows` frame and
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

/// What a handled frame means for the connection's future.
enum Flow {
    Continue,
    Close,
}

struct Conn {
    state: ConnState,
    session: Option<SessionId>,
    tenant: Option<String>,
    /// Cancel handles of in-flight queries, by correlation id.
    inflight: Arc<Mutex<HashMap<u64, up_server::CancelHandle>>>,
    inflight_count: Arc<AtomicUsize>,
    waiters: Vec<JoinHandle<()>>,
    wq: Arc<WriteQueue>,
    /// Set by any producer whose bounded data push overflowed; the
    /// reader observes it each tick and runs the slow-consumer teardown.
    slow: Arc<AtomicBool>,
}

impl Conn {
    /// Bounded push for result-bearing frames (`Rows`, `Metrics`);
    /// overflow flags the peer as a slow consumer.
    fn send_data(&self, frame: &Frame) {
        if self.wq.push_bytes(frame.to_bytes()).is_err() {
            self.slow.store(true, Ordering::Relaxed);
        }
    }
}

fn conn_main(inner: &Arc<NetInner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut wstream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let wq = Arc::new(WriteQueue::new(inner.config.max_write_buf));
    let writer = {
        let wq = Arc::clone(&wq);
        // Bound every socket write so a peer that stops reading cannot
        // wedge the writer (and with it, shutdown's join) forever.
        let stall = inner.config.idle_timeout.max(Duration::from_secs(1));
        std::thread::Builder::new()
            .name("up-net-write".into())
            .stack_size(CONN_STACK)
            .spawn(move || {
                let _ = wstream.set_write_timeout(Some(stall));
                while let Some(out) = wq.pop_blocking() {
                    if wstream.write_all(&out.bytes).is_err() || out.goodbye {
                        break;
                    }
                }
                let _ = wstream.shutdown(Shutdown::Write);
            })
            .expect("spawn writer thread")
    };

    let mut conn = Conn {
        state: ConnState::ExpectHello,
        session: None,
        tenant: None,
        inflight: Arc::new(Mutex::new(HashMap::new())),
        inflight_count: Arc::new(AtomicUsize::new(0)),
        waiters: Vec::new(),
        wq,
        slow: Arc::new(AtomicBool::new(false)),
    };
    reader_loop(inner, stream, &mut conn);

    // Graceful drain: every in-flight ticket resolves (Rows or a stable
    // error) before the session — and with it the DRR lane — goes away.
    // Goodbye is sent only now, *after* the drain, so the writer (which
    // stops at Goodbye) never races past undelivered results.
    for w in conn.waiters.drain(..) {
        let _ = w.join();
    }
    conn.wq.push_control(&Frame::Goodbye);
    if let Some(s) = conn.session.take() {
        inner.up.close_session(s);
    }
    conn.wq.close();
    let _ = writer.join();
}

fn reader_loop(inner: &Arc<NetInner>, mut stream: TcpStream, conn: &mut Conn) {
    let mut asm = FrameAssembler::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    'conn: loop {
        // Peel complete frames off the assembler.
        loop {
            match asm.next_frame(inner.config.max_frame) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    last_activity = Instant::now();
                    match handle_frame(inner, conn, frame) {
                        Flow::Continue => {}
                        Flow::Close => break 'conn,
                    }
                }
                Err(e) => {
                    // Framing is no longer trustworthy — answer with the
                    // stable code and hang up.
                    inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.wq.push_control(&Frame::Error {
                        id: 0,
                        code: e.code.as_u16(),
                        message: e.message,
                    });
                    break 'conn;
                }
            }
        }
        conn.waiters.retain(|w| !w.is_finished());
        if conn.slow.load(Ordering::Relaxed) {
            inner.slow_closed.fetch_add(1, Ordering::Relaxed);
            conn.wq.push_control(&Frame::Error {
                id: 0,
                code: ErrorCode::SlowConsumer.as_u16(),
                message: format!(
                    "outbound queue exceeded {} bytes; peer is not reading",
                    inner.config.max_write_buf
                ),
            });
            break;
        }
        if inner.stop.load(Ordering::Relaxed) {
            conn.wq.push_control(&Frame::Error {
                id: 0,
                code: ErrorCode::Shutdown.as_u16(),
                message: "server shutting down".into(),
            });
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => asm.push(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_activity.elapsed() >= inner.config.idle_timeout {
                    inner.idle_closed.fetch_add(1, Ordering::Relaxed);
                    conn.wq.push_control(&Frame::Error {
                        id: 0,
                        code: ErrorCode::IdleTimeout.as_u16(),
                        message: format!(
                            "idle for {:.1} s (limit {:.1} s)",
                            last_activity.elapsed().as_secs_f64(),
                            inner.config.idle_timeout.as_secs_f64()
                        ),
                    });
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn handle_frame(inner: &Arc<NetInner>, conn: &mut Conn, frame: Frame) -> Flow {
    match classify(&conn.state, frame) {
        Intent::SendHello => {
            conn.wq.push_control(&Frame::Hello {
                max_frame: inner.config.max_frame,
                max_inflight: inner.config.max_inflight,
            });
            conn.state = ConnState::ExpectAuth;
            Flow::Continue
        }
        Intent::Auth { tenant, token } => match do_auth(inner, &tenant, &token) {
            Ok(session) => {
                conn.session = Some(session);
                conn.tenant = Some(tenant);
                conn.state = ConnState::Ready;
                conn.wq.push_control(&Frame::AuthOk { session: session.0 });
                Flow::Continue
            }
            Err(code) => {
                conn.wq.push_control(&Frame::Error {
                    id: 0,
                    code: code.as_u16(),
                    message: "unknown tenant or bad token".into(),
                });
                Flow::Close
            }
        },
        Intent::Submit { id, sql } => {
            submit_query(inner, conn, id, sql);
            Flow::Continue
        }
        Intent::Cancel { id } => {
            if let Some(h) = conn.inflight.lock().expect("inflight poisoned").get(&id) {
                h.cancel();
            }
            Flow::Continue
        }
        Intent::Metrics => {
            conn.send_data(&Frame::Metrics { report: render_report(inner) });
            Flow::Continue
        }
        Intent::Goodbye => Flow::Close,
        Intent::BadState { name } => {
            inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.wq.push_control(&Frame::Error {
                id: 0,
                code: ErrorCode::BadState.as_u16(),
                message: format!("frame {name} is not legal in this state"),
            });
            Flow::Close
        }
    }
}

fn submit_query(inner: &Arc<NetInner>, conn: &mut Conn, id: u64, sql: String) {
    let tenant = conn.tenant.clone().expect("Ready implies authenticated");
    let session = conn.session.expect("Ready implies a session");
    if let Err((code, message)) =
        admit_query(inner, &tenant, conn.inflight_count.load(Ordering::Relaxed))
    {
        conn.wq.push_control(&Frame::Error { id, code: code.as_u16(), message });
        return;
    }
    let t0 = Instant::now();
    let ticket = match inner.up.submit(session, &sql) {
        Ok(t) => t,
        Err(e) => {
            inner.tenants.on_done(&tenant, false, 0, t0.elapsed().as_secs_f64());
            conn.wq.push_control(&Frame::Error {
                id,
                code: ErrorCode::from_server_error(&e).as_u16(),
                message: e.to_string(),
            });
            return;
        }
    };
    conn.inflight_count.fetch_add(1, Ordering::Relaxed);
    conn.inflight.lock().expect("inflight poisoned").insert(id, ticket.cancel_handle());
    let wq = Arc::clone(&conn.wq);
    let slow = Arc::clone(&conn.slow);
    let tenants = Arc::clone(&inner.tenants);
    let inflight = Arc::clone(&conn.inflight);
    let inflight_count = Arc::clone(&conn.inflight_count);
    let max_frame = inner.config.max_frame;
    let waiter = std::thread::Builder::new()
        .name("up-net-wait".into())
        .stack_size(CONN_STACK)
        .spawn(move || {
            let result = ticket.wait();
            inflight.lock().expect("inflight poisoned").remove(&id);
            inflight_count.fetch_sub(1, Ordering::Relaxed);
            let latency_s = t0.elapsed().as_secs_f64();
            match encode_reply(id, result, max_frame) {
                Ok((frame, bytes)) => {
                    tenants.on_done(&tenant, true, bytes, latency_s);
                    if wq.push_bytes(frame).is_err() {
                        slow.store(true, Ordering::Relaxed);
                    }
                }
                Err(frame) => {
                    tenants.on_done(&tenant, false, 0, latency_s);
                    wq.push_control(&frame);
                }
            }
        })
        .expect("spawn waiter thread");
    conn.waiters.push(waiter);
}
