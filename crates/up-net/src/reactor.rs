//! The readiness reactor, the wire server's one connection driver:
//! `O(cores)` threads for any number of connections.
//!
//! Thread shape: one **acceptor** (cap enforcement and refusal) parked
//! on the listener, round-robining accepted sockets across
//! [`NetConfig::event_threads`](crate::NetConfig::event_threads)
//! **event loops**. Each loop owns a slab of nonblocking connections
//! and multiplexes them with a level-triggered `Poller` (`epoll` or
//! `poll(2)`, raw syscalls via [`crate::sys`] — no async runtime, no new
//! dependencies). Query execution stays on the `UpServer` worker pool: a
//! submit hands the worker a completion callback that renders the reply
//! frame off the event thread, posts it to the owning loop's inbox, and
//! kicks its `Waker`, so results re-enter the loop as ordinary wakeups.
//!
//! Per connection, two small state machines:
//!
//! - **read**: bytes → [`FrameAssembler`] → frames → `on_frame`, which
//!   checks each against the protocol state. Reads per readiness event
//!   are bounded (`READ_ROUNDS` chunks), so one firehose — or one
//!   slow-loris dribbling a byte at a time — cannot starve the other
//!   connections on the loop; level-triggered polling re-arms whatever
//!   was left.
//!   `last_activity` advances only when a *complete* frame parses,
//!   so trickled partial frames still hit the idle timeout.
//! - **write**: a bounded [`OutBuf`] flushed until `WouldBlock`; write
//!   interest is registered only while un-flushed bytes remain. Overflow
//!   is the slow-consumer teardown ([`ErrorCode::SlowConsumer`]).
//!
//! Every close path — client `Goodbye`, protocol error, idle timeout,
//! slow consumer, server shutdown — stops reading, **waits for
//! in-flight queries to resolve** (their completions still account
//! `on_done`), then queues `Goodbye`, closes the server session (which
//! releases its DRR lane), and frees the slot. Client-side wait
//! deadlines are enforced by the loop itself: each in-flight query
//! carries `UpServer::default_timeout`, and expiry cancels the job and
//! answers with the `Timeout` code and message a blocking
//! `QueryTicket::wait` would produce.

use crate::conn::{
    admit_query, do_auth, encode_reply, frame_name, refuse, render_report, ConnState, NetInner,
    POLL_TICK,
};
use crate::frame::{DecodeError, ErrorCode, Frame, FrameAssembler};
use crate::sys::{Event, Poller, Waker, ERR, HUP, IN, OUT};
use crate::writeq::OutBuf;
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use up_server::{CancelHandle, ServerError, SessionId};

/// Read at most this many chunks per readiness event before yielding to
/// the other connections on the loop (fairness under firehose input).
const READ_ROUNDS: usize = 4;
const READ_CHUNK: usize = 16 * 1024;

/// Token of a thread's own [`Waker`] (no slab slot reaches `u32::MAX`).
const WAKE_TOKEN: u64 = u64::MAX;
/// Token of the listener in the acceptor's poller.
const LISTEN_TOKEN: u64 = 0;

fn token(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

/// A finished query coming back from the worker pool: the reply was
/// encoded on the worker's thread ([`encode_reply`]); the loop only
/// queues bytes.
struct CompletionMsg {
    slot: usize,
    gen: u32,
    id: u64,
    reply: Result<(Vec<u8>, u64), Frame>,
}

#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    done: Vec<CompletionMsg>,
}

/// The cross-thread half of one event loop: its inbox plus the waker
/// that kicks it out of [`Poller::wait`].
struct LoopShared {
    inbox: Mutex<Inbox>,
    wake: Waker,
}

/// Handle owned by [`WireServer`](crate::WireServer): joins the
/// acceptor and every event loop at shutdown.
pub(crate) struct Reactor {
    acceptor: (Arc<Waker>, JoinHandle<()>),
    loops: Vec<(Arc<LoopShared>, JoinHandle<()>)>,
}

impl Reactor {
    pub(crate) fn start(inner: Arc<NetInner>, listener: TcpListener) -> std::io::Result<Reactor> {
        let wake = Arc::new(Waker::new()?);
        let mut accept_poller = Poller::new()?;
        accept_poller.add(listener.as_raw_fd(), IN, LISTEN_TOKEN)?;
        accept_poller.add(wake.raw_fd(), IN, WAKE_TOKEN)?;
        let n = inner.config.event_threads.max(1);
        let mut loops = Vec::with_capacity(n);
        for i in 0..n {
            let shared =
                Arc::new(LoopShared { inbox: Mutex::new(Inbox::default()), wake: Waker::new()? });
            let mut poller = Poller::new()?;
            poller.add(shared.wake.raw_fd(), IN, WAKE_TOKEN)?;
            let handle = {
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("up-net-ev{i}"))
                    .spawn(move || event_loop(inner, shared, poller))
                    .expect("spawn event thread")
            };
            loops.push((shared, handle));
        }
        let acceptor = {
            let wake = Arc::clone(&wake);
            let shareds = loops.iter().map(|(shared, _)| Arc::clone(shared)).collect();
            std::thread::Builder::new()
                .name("up-net-accept".into())
                .spawn(move || accept_loop(inner, listener, accept_poller, &wake, shareds))
                .expect("spawn acceptor")
        };
        Ok(Reactor { acceptor: (wake, acceptor), loops })
    }

    /// Joins everything. The caller has already set `inner.stop`. The
    /// acceptor goes first, so no socket is handed to a loop that has
    /// already drained and left.
    pub(crate) fn shutdown(self) {
        let (wake, acceptor) = self.acceptor;
        wake.wake();
        let _ = acceptor.join();
        for (shared, _) in &self.loops {
            shared.wake.wake();
        }
        for (_, h) in self.loops {
            let _ = h.join();
        }
    }
}

/// Parks on the listener (and the stop wake-up); each readiness report
/// drains the accept backlog.
fn accept_loop(
    inner: Arc<NetInner>,
    listener: TcpListener,
    mut poller: Poller,
    wake: &Waker,
    loops: Vec<Arc<LoopShared>>,
) {
    let mut events = [Event { events: 0, data: 0 }; 2];
    let mut next = 0usize;
    loop {
        let _ = poller.wait(&mut events, -1);
        wake.drain();
        if inner.stop.load(Ordering::Relaxed) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    inner.accepted.fetch_add(1, Ordering::Relaxed);
                    if inner.active.load(Ordering::Relaxed) >= inner.config.max_conns {
                        inner.refused.fetch_add(1, Ordering::Relaxed);
                        refuse(stream);
                        continue;
                    }
                    // Reserve the slot *before* handing off, so the cap
                    // is enforced here and nowhere else.
                    inner.active.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    let target = &loops[next % loops.len()];
                    next = next.wrapping_add(1);
                    target.inbox.lock().expect("inbox poisoned").conns.push(stream);
                    target.wake.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Out of descriptors, most likely: the backlog stays
                    // readable, so look away from it for a moment (the
                    // stop wake-up still gets through) and try again.
                    let fd = listener.as_raw_fd();
                    let _ = poller.modify(fd, 0, LISTEN_TOKEN);
                    let _ = poller.wait(&mut events, 5);
                    let _ = poller.modify(fd, IN, LISTEN_TOKEN);
                    break;
                }
            }
        }
    }
}

/// One in-flight query on a connection.
struct Inflight {
    cancel: CancelHandle,
    t0: Instant,
    /// Client-side wait deadline (`UpServer::default_timeout` past
    /// submit) — the loop's equivalent of `QueryTicket::wait`.
    deadline: Instant,
}

#[derive(PartialEq)]
enum Phase {
    /// Reading and serving.
    Open,
    /// Teardown begun: no more reads; waiting for in-flight queries,
    /// then `Goodbye`, flush, close.
    Draining,
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    state: ConnState,
    session: Option<SessionId>,
    tenant: Option<String>,
    inflight: HashMap<u64, Inflight>,
    asm: FrameAssembler,
    out: OutBuf,
    last_activity: Instant,
    phase: Phase,
    /// Socket is unusable (peer reset / write error): stop all I/O but
    /// keep the slot until in-flight queries resolve, so tenant
    /// accounting (`on_done`) never goes missing.
    dead: bool,
    goodbye_queued: bool,
    /// When the final flush began; force-close if it stalls.
    drain_since: Option<Instant>,
    /// Interest set currently registered with the poller.
    interest: u32,
}

struct EvLoop {
    inner: Arc<NetInner>,
    shared: Arc<LoopShared>,
    poller: Poller,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    gen_counter: u32,
}

fn event_loop(inner: Arc<NetInner>, shared: Arc<LoopShared>, poller: Poller) {
    let mut lp = EvLoop {
        inner,
        shared,
        poller,
        slab: Vec::new(),
        free: Vec::new(),
        live: 0,
        gen_counter: 0,
    };
    let mut events = vec![Event { events: 0, data: 0 }; 256];
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut next_sweep = Instant::now() + POLL_TICK;
    loop {
        let until_sweep = next_sweep.saturating_duration_since(Instant::now());
        let n = lp.poller.wait(&mut events, until_sweep.as_millis() as i32 + 1).unwrap_or(0);
        for ev in events.iter().take(n) {
            let ev = *ev;
            let tok = { ev.data };
            let bits = { ev.events };
            if tok == WAKE_TOKEN {
                lp.shared.wake.drain();
                continue;
            }
            lp.handle_io((tok & 0xffff_ffff) as usize, (tok >> 32) as u32, bits, &mut chunk);
        }
        lp.drain_inbox();
        let (stop, now) = (lp.inner.stop.load(Ordering::Relaxed), Instant::now());
        if stop || now >= next_sweep {
            lp.sweep(stop);
            next_sweep = now + POLL_TICK;
        }
        if stop && lp.live == 0 {
            let g = lp.shared.inbox.lock().expect("inbox poisoned");
            if g.conns.is_empty() {
                // Leftover `done` entries can only be late completions
                // for already-closed slots; nothing to deliver.
                break;
            }
        }
    }
}

impl EvLoop {
    fn conn(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slab.get_mut(slot).and_then(|c| c.as_mut())
    }

    // ---- inbox -----------------------------------------------------

    fn drain_inbox(&mut self) {
        let (conns, done) = {
            let mut g = self.shared.inbox.lock().expect("inbox poisoned");
            (std::mem::take(&mut g.conns), std::mem::take(&mut g.done))
        };
        for stream in conns {
            self.register(stream);
        }
        for msg in done {
            self.complete(msg);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.gen_counter = self.gen_counter.wrapping_add(1);
        let gen = self.gen_counter;
        if self.poller.add(stream.as_raw_fd(), IN, token(slot, gen)).is_err() {
            // Could not watch the socket: undo the acceptor's
            // reservation and drop the connection.
            self.inner.active.fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(Conn {
            stream,
            gen,
            state: ConnState::ExpectHello,
            session: None,
            tenant: None,
            inflight: HashMap::new(),
            asm: FrameAssembler::new(),
            out: OutBuf::new(self.inner.config.max_write_buf),
            last_activity: Instant::now(),
            phase: Phase::Open,
            dead: false,
            goodbye_queued: false,
            drain_since: None,
            interest: IN,
        });
        self.live += 1;
    }

    fn complete(&mut self, m: CompletionMsg) {
        let inner = Arc::clone(&self.inner);
        let overflow = {
            let Some(conn) = self.conn(m.slot) else { return };
            if conn.gen != m.gen {
                return;
            }
            let Some(inf) = conn.inflight.remove(&m.id) else {
                // Already resolved by the loop (client-side timeout):
                // accounting happened there; drop the late reply.
                return;
            };
            let tenant = conn.tenant.clone().unwrap_or_default();
            let (ok, bytes) = m.reply.as_ref().map_or((false, 0), |(_, bytes)| (true, *bytes));
            inner.tenants.on_done(&tenant, ok, bytes, inf.t0.elapsed().as_secs_f64());
            !conn.dead
                && match m.reply {
                    Ok((frame, _)) => conn.out.push_bytes(frame),
                    Err(frame) => conn.out.push(&frame),
                }
                .is_err()
        };
        if overflow {
            self.slow_consumer(m.slot);
        }
        self.pump(m.slot);
    }

    // ---- readiness -------------------------------------------------

    fn handle_io(&mut self, slot: usize, gen: u32, bits: u32, chunk: &mut [u8]) {
        {
            let Some(conn) = self.conn(slot) else { return };
            if conn.gen != gen {
                return;
            }
        }
        if bits & IN != 0 {
            self.do_read(slot, chunk);
        }
        if bits & ERR != 0 || (bits & HUP != 0 && bits & IN == 0) {
            self.socket_dead(slot);
        }
        self.pump(slot);
    }

    fn do_read(&mut self, slot: usize, chunk: &mut [u8]) {
        enum Step {
            Frames(Vec<Frame>, Option<DecodeError>),
            Closed,
            WouldBlock,
            Dead,
        }
        for _ in 0..READ_ROUNDS {
            let max_frame = self.inner.config.max_frame;
            let step = {
                let Some(conn) = self.conn(slot) else { return };
                if conn.phase != Phase::Open || conn.dead {
                    return;
                }
                loop {
                    match conn.stream.read(chunk) {
                        Ok(0) => break Step::Closed,
                        Ok(n) => {
                            conn.asm.push(&chunk[..n]);
                            let mut frames = Vec::new();
                            let mut decode_err = None;
                            loop {
                                match conn.asm.next_frame(max_frame) {
                                    Ok(None) => break,
                                    Ok(Some(frame)) => {
                                        // A *complete* frame is activity;
                                        // a trickle of partial bytes is
                                        // not — so a slow-loris still
                                        // hits the idle timeout.
                                        conn.last_activity = Instant::now();
                                        frames.push(frame);
                                    }
                                    Err(e) => {
                                        decode_err = Some(e);
                                        break;
                                    }
                                }
                            }
                            break Step::Frames(frames, decode_err);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            break Step::WouldBlock
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break Step::Dead,
                    }
                }
            };
            match step {
                Step::Frames(frames, decode_err) => {
                    // Frames decoded before a poisoned tail still
                    // execute.
                    for frame in frames {
                        if !self.on_frame(slot, frame) {
                            return;
                        }
                    }
                    if let Some(e) = decode_err {
                        self.inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        self.begin_close(
                            slot,
                            Some(Frame::Error {
                                id: 0,
                                code: e.code.as_u16(),
                                message: e.message,
                            }),
                        );
                        return;
                    }
                }
                Step::Closed => {
                    // Peer closed its write side at a frame boundary.
                    self.begin_close(slot, None);
                    return;
                }
                Step::WouldBlock => return,
                Step::Dead => {
                    self.socket_dead(slot);
                    return;
                }
            }
        }
    }

    /// Interprets one decoded frame against the connection's protocol
    /// state — the one place `(state, frame)` is decided. Returns false
    /// once the connection is closing.
    fn on_frame(&mut self, slot: usize, frame: Frame) -> bool {
        let inner = Arc::clone(&self.inner);
        let Some(conn) = self.conn(slot) else { return false };
        if conn.phase != Phase::Open || conn.dead {
            return false;
        }
        match (conn.state, frame) {
            (ConnState::ExpectHello, Frame::Hello { .. }) => {
                conn.out.push_control(&Frame::Hello {
                    max_frame: inner.config.max_frame,
                    max_inflight: inner.config.max_inflight,
                });
                conn.state = ConnState::ExpectAuth;
                true
            }
            (ConnState::ExpectAuth, Frame::Auth { tenant, token }) => {
                match do_auth(&inner, &tenant, &token) {
                    Ok(session) => {
                        conn.session = Some(session);
                        conn.tenant = Some(tenant);
                        conn.state = ConnState::Ready;
                        conn.out.push_control(&Frame::AuthOk { session: session.0 });
                        true
                    }
                    Err(code) => {
                        self.begin_close(
                            slot,
                            Some(Frame::Error {
                                id: 0,
                                code: code.as_u16(),
                                message: "unknown tenant or bad token".into(),
                            }),
                        );
                        false
                    }
                }
            }
            (ConnState::Ready, Frame::Query { id, sql }) => {
                self.submit(slot, id, sql);
                true
            }
            // Best-effort cancel by correlation id.
            (ConnState::Ready, Frame::Cancel { id }) => {
                if let Some(inf) = conn.inflight.get(&id) {
                    inf.cancel.cancel();
                }
                true
            }
            (ConnState::Ready, Frame::Metrics { .. }) => {
                if conn.out.push(&Frame::Metrics { report: render_report(&inner) }).is_err() {
                    self.slow_consumer(slot);
                    return false;
                }
                true
            }
            // Orderly close from the peer, legal in every state.
            (_, Frame::Goodbye) => {
                self.begin_close(slot, None);
                false
            }
            (_, other) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.begin_close(
                    slot,
                    Some(Frame::Error {
                        id: 0,
                        code: ErrorCode::BadState.as_u16(),
                        message: format!(
                            "frame {} is not legal in this state",
                            frame_name(&other)
                        ),
                    }),
                );
                false
            }
        }
    }

    fn submit(&mut self, slot: usize, id: u64, sql: String) {
        let (tenant, session, inflight_len, gen) = {
            let conn = self.conn(slot).expect("submit on live conn");
            (
                conn.tenant.clone().expect("Ready implies authenticated"),
                conn.session.expect("Ready implies a session"),
                conn.inflight.len(),
                conn.gen,
            )
        };
        if let Err((code, message)) = admit_query(&self.inner, &tenant, inflight_len) {
            let conn = self.conn(slot).expect("still live");
            conn.out.push_control(&Frame::Error { id, code: code.as_u16(), message });
            return;
        }
        let t0 = Instant::now();
        let shared = Arc::clone(&self.shared);
        let max_frame = self.inner.config.max_frame;
        let on_done: up_server::Completion = Box::new(move |result| {
            // Worker thread: encode the reply here, off the event loop.
            let reply = encode_reply(id, result, max_frame);
            shared
                .inbox
                .lock()
                .expect("inbox poisoned")
                .done
                .push(CompletionMsg { slot, gen, id, reply });
            shared.wake.wake();
        });
        match self.inner.up.submit_with(session, &sql, on_done) {
            Ok(cancel) => {
                let deadline = t0 + self.inner.up.default_timeout();
                let conn = self.conn(slot).expect("still live");
                conn.inflight.insert(id, Inflight { cancel, t0, deadline });
            }
            Err(e) => {
                self.inner.tenants.on_done(&tenant, false, 0, t0.elapsed().as_secs_f64());
                let frame = Frame::Error {
                    id,
                    code: ErrorCode::from_server_error(&e).as_u16(),
                    message: e.to_string(),
                };
                let conn = self.conn(slot).expect("still live");
                conn.out.push_control(&frame);
            }
        }
    }

    // ---- timers / shutdown ----------------------------------------

    /// Visits every connection: expires query deadlines, evicts the idle
    /// (or, when stopping, everyone), force-closes a stalled final flush.
    /// O(connections), and every event already pumps its own connection,
    /// so the loop runs this once per tick — or per pass while stopping,
    /// to finish the drain promptly — never once per event.
    fn sweep(&mut self, stop: bool) {
        let idle_timeout = self.inner.config.idle_timeout;
        let default_timeout = self.inner.up.default_timeout();
        for slot in 0..self.slab.len() {
            if self.slab[slot].is_none() {
                continue;
            }
            // Client-side wait deadlines.
            let now = Instant::now();
            let expired: Vec<u64> = {
                let conn = self.conn(slot).expect("checked above");
                conn.inflight
                    .iter()
                    .filter(|(_, inf)| now >= inf.deadline)
                    .map(|(id, _)| *id)
                    .collect()
            };
            for id in expired {
                let inner = Arc::clone(&self.inner);
                let Some(conn) = self.conn(slot) else { break };
                let Some(inf) = conn.inflight.remove(&id) else { continue };
                inf.cancel.cancel();
                inner.up.note_client_timeout();
                let tenant = conn.tenant.clone().unwrap_or_default();
                inner.tenants.on_done(&tenant, false, 0, inf.t0.elapsed().as_secs_f64());
                conn.out.push_control(&Frame::Error {
                    id,
                    code: ErrorCode::Timeout.as_u16(),
                    message: ServerError::Timeout { after_s: default_timeout.as_secs_f64() }
                        .to_string(),
                });
            }
            // Shutdown notice first, then idle eviction.
            let inner = Arc::clone(&self.inner);
            let teardown = {
                let conn = self.conn(slot).expect("checked above");
                if conn.phase != Phase::Open || conn.dead {
                    None
                } else if stop {
                    Some(Frame::Error {
                        id: 0,
                        code: ErrorCode::Shutdown.as_u16(),
                        message: "server shutting down".into(),
                    })
                } else if conn.last_activity.elapsed() >= idle_timeout {
                    inner.idle_closed.fetch_add(1, Ordering::Relaxed);
                    Some(Frame::Error {
                        id: 0,
                        code: ErrorCode::IdleTimeout.as_u16(),
                        message: format!(
                            "idle for {:.1} s (limit {:.1} s)",
                            conn.last_activity.elapsed().as_secs_f64(),
                            idle_timeout.as_secs_f64()
                        ),
                    })
                } else {
                    None
                }
            };
            if let Some(frame) = teardown {
                self.begin_close(slot, Some(frame));
            }
            self.pump(slot);
        }
    }

    // ---- teardown --------------------------------------------------

    /// Slow-consumer teardown: count it, say why (control frames bypass
    /// the bound), stop serving. Only the first overflow counts — once
    /// the connection is draining, later completions that bounce off
    /// the full outbox are silently dropped (the peer stopped reading;
    /// the teardown notice is already queued).
    fn slow_consumer(&mut self, slot: usize) {
        match self.conn(slot) {
            Some(conn) if conn.phase == Phase::Open => {}
            _ => return,
        }
        self.inner.slow_closed.fetch_add(1, Ordering::Relaxed);
        let max = self.inner.config.max_write_buf;
        self.begin_close(
            slot,
            Some(Frame::Error {
                id: 0,
                code: ErrorCode::SlowConsumer.as_u16(),
                message: format!("outbound queue exceeded {max} bytes; peer is not reading"),
            }),
        );
    }

    /// Stops reading and enters the drain phase, optionally queueing a
    /// final error notice first. In-flight queries keep running; the
    /// slot closes once they resolve and the outbox flushes.
    fn begin_close(&mut self, slot: usize, notice: Option<Frame>) {
        let Some(conn) = self.conn(slot) else { return };
        if let (Some(frame), false) = (notice, conn.dead) {
            conn.out.push_control(&frame);
        }
        conn.phase = Phase::Draining;
    }

    /// Marks the socket unusable: deregister and shut it down, discard
    /// the outbox, but keep the slot until in-flight queries resolve so
    /// `on_done` accounting survives abrupt disconnects.
    fn socket_dead(&mut self, slot: usize) {
        let fd = {
            let Some(conn) = self.conn(slot) else { return };
            if conn.dead {
                return;
            }
            conn.dead = true;
            conn.phase = Phase::Draining;
            conn.stream.as_raw_fd()
        };
        let _ = self.poller.delete(fd);
        if let Some(conn) = self.conn(slot) {
            conn.interest = 0;
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Flush, maybe finish the drain, refresh poller interest.
    fn pump(&mut self, slot: usize) {
        // Flush whatever the socket will take.
        let flush_err = {
            let Some(conn) = self.conn(slot) else { return };
            if conn.dead {
                false
            } else {
                conn.out.flush(&mut conn.stream).is_err()
            }
        };
        if flush_err {
            self.socket_dead(slot);
        }
        self.maybe_finish(slot);
        self.update_interest(slot);
    }

    fn maybe_finish(&mut self, slot: usize) {
        let inner = Arc::clone(&self.inner);
        let stall = inner.config.idle_timeout.max(Duration::from_secs(1));
        let close_now = {
            let Some(conn) = self.conn(slot) else { return };
            if conn.phase != Phase::Draining || !conn.inflight.is_empty() {
                return;
            }
            if !conn.goodbye_queued {
                // All in-flight work resolved: say Goodbye, then release
                // the session (and its DRR lane).
                if !conn.dead {
                    conn.out.push_control(&Frame::Goodbye);
                }
                conn.goodbye_queued = true;
                conn.drain_since = Some(Instant::now());
                if let Some(s) = conn.session.take() {
                    inner.up.close_session(s);
                }
                let _ = conn.out.flush(&mut conn.stream);
            }
            conn.dead
                || conn.out.is_empty()
                || conn.drain_since.is_some_and(|t| t.elapsed() >= stall)
        };
        if close_now {
            self.close_slot(slot);
        }
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(mut conn) = self.slab.get_mut(slot).and_then(|c| c.take()) else { return };
        if !conn.dead {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Defensive: every path that queues Goodbye already closed the
        // session, but a dead socket can skip that step.
        if let Some(s) = conn.session.take() {
            self.inner.up.close_session(s);
        }
        self.free.push(slot);
        self.live -= 1;
        self.inner.active.fetch_sub(1, Ordering::Relaxed);
    }

    fn update_interest(&mut self, slot: usize) {
        let (fd, tok, want, current) = {
            let Some(conn) = self.conn(slot) else { return };
            if conn.dead {
                return;
            }
            let mut want = 0;
            if conn.phase == Phase::Open {
                want |= IN;
            }
            if !conn.out.is_empty() {
                want |= OUT;
            }
            (conn.stream.as_raw_fd(), token(slot, conn.gen), want, conn.interest)
        };
        if want != current && self.poller.modify(fd, want, tok).is_ok() {
            if let Some(conn) = self.conn(slot) {
                conn.interest = want;
            }
        }
    }
}
