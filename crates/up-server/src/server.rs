//! The concurrent query server: worker pool + admission queue + shared
//! JIT cache, over one `RwLock`-guarded database.
//!
//! Concurrency model:
//!
//! - **Reads scale**: `Database::query` takes `&self`, so any number of
//!   workers execute queries under the read lock simultaneously. The JIT
//!   cache inside is lock-striped and shared — a kernel signature is
//!   compiled at most once server-wide.
//! - **Inserts stripe per table**: the engine's catalog gives every
//!   table its own `RwLock`, so row appends take the *read* side of the
//!   database lock plus one table's write lock. Inserts into disjoint
//!   tables run in parallel, and queries over other tables are never
//!   blocked by a load.
//! - **DDL serializes**: creating or replacing tables takes the global
//!   write lock, draining readers first. That is the paper's deployment
//!   shape (RateupDB's OLAP side: bulk loads, then read-heavy
//!   analytics).
//! - **Admission control**: a bounded queue in front of the pool. Full
//!   queue → immediate [`ServerError::Rejected`] with a retry-after
//!   estimate derived from observed service times, instead of unbounded
//!   latency. Dequeue order is per-session weighted deficit round-robin
//!   (FIFO within a session), so a chatty session cannot starve others.
//! - **Cancellation**: every submission carries a cancel flag; a ticket
//!   that times out flips it so a still-queued job is dropped cheaply.

use crate::admission::DrrQueue;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::session::{SessionId, SessionManager};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use up_engine::{Database, Profile, QueryError, QueryResult, Schema, Value};
use up_gpusim::DeviceConfig;
use up_jit::cache::{JitEngine, JitOptions, SharedKernelCache, DEFAULT_CACHE_CAPACITY};
use up_num::NumError;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing queries (0 = accept but never execute —
    /// useful for deterministic backpressure tests).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Shared JIT kernel-cache capacity (kernels).
    pub jit_cache_capacity: usize,
    /// Default client-side wait deadline for [`QueryTicket::wait`].
    pub default_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            jit_cache_capacity: DEFAULT_CACHE_CAPACITY,
            default_timeout: Duration::from_secs(30),
        }
    }
}

/// Everything that can go wrong between `submit` and a result.
#[derive(Debug)]
pub enum ServerError {
    /// Admission control bounced the submission; try again after the
    /// suggested backoff.
    Rejected {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// Suggested backoff before retrying, in seconds.
        retry_after_s: f64,
    },
    /// The session handle is not connected.
    UnknownSession(SessionId),
    /// The ticket's deadline expired before a result arrived (the queued
    /// job is canceled).
    Timeout {
        /// The deadline that expired, in seconds.
        after_s: f64,
    },
    /// The job was canceled before execution.
    Canceled,
    /// The server shut down before answering.
    Shutdown,
    /// The engine executed the query and failed.
    Query(QueryError),
    /// Executing the query panicked. The worker caught the panic and
    /// keeps serving; the message is the panic's.
    Internal(String),
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::Rejected { queue_depth, retry_after_s } => write!(
                f,
                "admission queue full (depth {queue_depth}); retry after {retry_after_s:.3} s"
            ),
            ServerError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServerError::Timeout { after_s } => {
                write!(f, "query timed out after {after_s:.3} s")
            }
            ServerError::Canceled => write!(f, "query canceled"),
            ServerError::Shutdown => write!(f, "server shut down"),
            ServerError::Query(e) => write!(f, "query failed: {e}"),
            ServerError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

struct Job {
    session: SessionId,
    profile: Profile,
    sql: String,
    cancel: Arc<AtomicBool>,
    enqueued: Instant,
    reply: ReplySink,
}

/// A completion callback: invoked exactly once with the query's result,
/// on whichever thread resolves the job (usually a worker). Callback
/// submissions ([`UpServer::submit_with`]) let a readiness-driven front
/// end receive results without parking a thread per query.
pub type Completion = Box<dyn FnOnce(Result<QueryResult, ServerError>) + Send + 'static>;

/// Where a job's result goes: a channel (ticket-based waits) or a
/// one-shot callback. Either way the submitter observes exactly one
/// resolution — a callback job that is dropped unresolved (e.g. still
/// queued when the queue closes) fires with [`ServerError::Shutdown`].
enum ReplySink {
    Channel(mpsc::Sender<Result<QueryResult, ServerError>>),
    Callback(Option<Completion>),
}

impl ReplySink {
    fn send(&mut self, r: Result<QueryResult, ServerError>) {
        match self {
            // A gone receiver (client timed out and dropped the ticket)
            // is fine — the work is done and accounted either way.
            ReplySink::Channel(tx) => {
                let _ = tx.send(r);
            }
            ReplySink::Callback(cb) => {
                if let Some(cb) = cb.take() {
                    cb(r);
                }
            }
        }
    }

    /// Disarms the drop-guard (the submitter is reporting the failure
    /// itself, e.g. an admission rejection returned from `submit_with`).
    fn defuse(&mut self) {
        if let ReplySink::Callback(cb) = self {
            cb.take();
        }
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        if let ReplySink::Callback(Some(_)) = self {
            self.send(Err(ServerError::Shutdown));
        }
    }
}

struct ServerInner {
    db: RwLock<Database>,
    jit_cache: Arc<SharedKernelCache>,
    sessions: SessionManager,
    metrics: MetricsRegistry,
    queue: DrrQueue<Job>,
    config: ServerConfig,
}

/// A pending query: await it with [`wait`](QueryTicket::wait) or abort
/// it with [`cancel`](QueryTicket::cancel).
pub struct QueryTicket {
    rx: mpsc::Receiver<Result<QueryResult, ServerError>>,
    cancel: Arc<AtomicBool>,
    timeout: Duration,
    inner: Arc<ServerInner>,
}

impl core::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("canceled", &self.cancel.load(Ordering::Relaxed))
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// Blocks until the result arrives or the server's default timeout
    /// elapses. On timeout the job is canceled (a worker that has not
    /// started it yet will drop it).
    pub fn wait(self) -> Result<QueryResult, ServerError> {
        let timeout = self.timeout;
        self.wait_timeout(timeout)
    }

    /// [`wait`](QueryTicket::wait) with an explicit deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<QueryResult, ServerError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.cancel.store(true, Ordering::Relaxed);
                self.inner.metrics.on_timed_out();
                Err(ServerError::Timeout { after_s: timeout.as_secs_f64() })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServerError::Shutdown),
        }
    }

    /// Flags the job canceled. A worker that dequeues it later replies
    /// [`ServerError::Canceled`] without executing.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

}

/// Cancels a query submitted with [`UpServer::submit_with`] (a handle
/// over the job's shared cancel flag).
#[derive(Clone, Debug)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// Flags the job canceled (same semantics as [`QueryTicket::cancel`]).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The concurrent query service. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct UpServer {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl UpServer {
    /// Starts a server over a fresh empty database (UltraPrecise default
    /// profile, A6000-like device, `Database::exec_backend` from
    /// `UP_SIM_EXEC`) whose JIT engine uses a shared cache of the
    /// configured capacity.
    pub fn new(config: ServerConfig) -> UpServer {
        let cache = Arc::new(SharedKernelCache::new(config.jit_cache_capacity));
        let jit = JitEngine::with_cache(JitOptions::default(), Arc::clone(&cache));
        let db = Database::with_config(Profile::UltraPrecise, DeviceConfig::a6000(), jit);
        let inner = Arc::new(ServerInner {
            db: RwLock::new(db),
            jit_cache: cache,
            sessions: SessionManager::new(),
            metrics: MetricsRegistry::new(),
            queue: DrrQueue::new(config.queue_capacity),
            config,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("up-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker")
            })
            .collect();
        UpServer { inner, workers }
    }

    /// Opens a session running under `profile`.
    pub fn connect(&self, profile: Profile) -> SessionId {
        self.inner.sessions.connect(profile)
    }

    /// Closes a session and releases everything it holds: its entry in
    /// the session map, its DRR lane, and every job it still has
    /// queued — each pending ticket observes a clean
    /// [`ServerError::UnknownSession`] instead of executing or hanging.
    /// False if the session was unknown.
    pub fn close_session(&self, id: SessionId) -> bool {
        if !self.inner.sessions.disconnect(id) {
            return false;
        }
        for mut job in self.inner.queue.remove_session(id.0) {
            self.inner.metrics.on_canceled();
            job.reply.send(Err(ServerError::UnknownSession(id)));
        }
        true
    }

    /// Creates (or replaces) a table. Write-locked: drains readers first.
    pub fn create_table(&self, name: &str, schema: Schema) {
        self.inner.db.write().expect("db poisoned").create_table(name, schema);
    }

    /// Bulk-appends rows. Lock-striped: takes the database *read* lock
    /// plus the target table's write lock, so loads into disjoint tables
    /// run in parallel and never drain concurrent queries.
    pub fn insert_many(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<(), NumError> {
        self.inner.db.read().expect("db poisoned").insert_many(table, rows)
    }

    /// Runs `f` under the database read lock (ad-hoc inspection).
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.db.read().expect("db poisoned"))
    }

    /// Runs `f` under the database write lock (ad-hoc DDL).
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.inner.db.write().expect("db poisoned"))
    }

    /// Submits a query for a session; returns a ticket to await. Fails
    /// fast with [`ServerError::Rejected`] when the admission queue is
    /// full and [`ServerError::UnknownSession`] for stale handles.
    pub fn submit(&self, session: SessionId, sql: &str) -> Result<QueryTicket, ServerError> {
        let (tx, rx) = mpsc::channel();
        let cancel = self.submit_sink(session, sql, ReplySink::Channel(tx))?;
        Ok(QueryTicket {
            rx,
            cancel,
            timeout: self.inner.config.default_timeout,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Submits a query whose result is delivered to `on_done` instead of
    /// a ticket — no thread parks waiting. The callback runs exactly
    /// once, on whichever thread resolves the job (a worker on
    /// completion; the closer on session teardown; the drop path with
    /// [`ServerError::Shutdown`] if the queue dies under it). Callers
    /// enforcing their own deadline should [`CancelHandle::cancel`] and
    /// record it via [`note_client_timeout`](UpServer::note_client_timeout).
    pub fn submit_with(
        &self,
        session: SessionId,
        sql: &str,
        on_done: Completion,
    ) -> Result<CancelHandle, ServerError> {
        let cancel = self.submit_sink(session, sql, ReplySink::Callback(Some(on_done)))?;
        Ok(CancelHandle(cancel))
    }

    /// The server's default client-wait deadline
    /// ([`ServerConfig::default_timeout`]) — what [`QueryTicket::wait`]
    /// enforces, exported so callback-based front ends can enforce the
    /// same deadline themselves.
    pub fn default_timeout(&self) -> Duration {
        self.inner.config.default_timeout
    }

    /// Records a client-side wait timeout in the server metrics — the
    /// callback-submission counterpart of the accounting
    /// [`QueryTicket::wait`] does when its deadline expires.
    pub fn note_client_timeout(&self) {
        self.inner.metrics.on_timed_out();
    }

    fn submit_sink(
        &self,
        session: SessionId,
        sql: &str,
        mut reply: ReplySink,
    ) -> Result<Arc<AtomicBool>, ServerError> {
        let profile = match self.inner.sessions.profile(session) {
            Some(p) => p,
            None => {
                // The submitter gets this as the call's error; the sink
                // must not fire a second time on drop.
                reply.defuse();
                return Err(ServerError::UnknownSession(session));
            }
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let job = Job {
            session,
            profile,
            sql: sql.to_string(),
            cancel: Arc::clone(&cancel),
            enqueued: Instant::now(),
            reply,
        };
        match self.inner.queue.push(session.0, job) {
            Ok(_depth) => {
                self.inner.metrics.on_submitted();
                Ok(cancel)
            }
            Err(mut full) => {
                // The submitter gets the rejection as this call's error;
                // a callback sink must not fire a second time on drop.
                full.0.reply.defuse();
                drop(full);
                self.inner.metrics.on_rejected();
                let queue_depth = self.inner.queue.len();
                // Estimated time for the backlog to drain one slot.
                let mean = self.inner.metrics.mean_latency_s();
                let per_slot = if mean > 0.0 { mean } else { 0.010 };
                let retry_after_s =
                    per_slot * (queue_depth as f64 + 1.0) / self.inner.config.workers.max(1) as f64;
                Err(ServerError::Rejected { queue_depth, retry_after_s })
            }
        }
    }

    /// Convenience: [`submit`](UpServer::submit) + [`QueryTicket::wait`].
    pub fn query(&self, session: SessionId, sql: &str) -> Result<QueryResult, ServerError> {
        self.submit(session, sql)?.wait()
    }

    /// Sets a session's fair-share weight: its share of dequeue grants,
    /// clamped to `[0.01, 100]` (non-finite → 1). False if the session is
    /// unknown.
    pub fn set_session_weight(&self, id: SessionId, weight: f64) -> bool {
        let known = self.inner.sessions.contains(id);
        if known {
            self.inner.queue.set_weight(id.0, weight);
        }
        known
    }

    /// A point-in-time snapshot of every service metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.inner.metrics.fill(&mut snap);
        snap.sessions_active = self.inner.sessions.active();
        snap.sessions_total = self.inner.sessions.total();
        snap.queue_depth = self.inner.queue.len();
        snap.queue_capacity = self.inner.queue.capacity();
        snap.queue_max_depth = self.inner.queue.max_depth();
        snap.cache = self.inner.jit_cache.stats();
        // Process-wide by design: one simulator substrate serves every
        // session, and tier promotion is a property of the shared kernel
        // cache, not of any single query.
        snap.exec_tiers = up_gpusim::tier_counters();
        snap.tier_compiles = up_gpusim::compile_counters();
        snap
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for UpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: Arc<ServerInner>) {
    while let Some(mut job) = inner.queue.pop_blocking() {
        inner.metrics.on_queue_wait(job.enqueued.elapsed().as_secs_f64());
        if job.cancel.load(Ordering::Relaxed) {
            inner.metrics.on_canceled();
            job.reply.send(Err(ServerError::Canceled));
            continue;
        }
        // The session may have been closed between submit and dequeue
        // (close_session drains the queue, but a job already in a
        // worker's hands races past that) — error it instead of running
        // work nobody is accounted for.
        if !inner.sessions.contains(job.session) {
            inner.metrics.on_canceled();
            job.reply.send(Err(ServerError::UnknownSession(job.session)));
            continue;
        }
        // The unwind boundary: a statement that panics the engine fails
        // alone, and this worker keeps serving. Only a writer's panic
        // poisons the database lock, and this holds the read side.
        let run = || inner.db.read().expect("db poisoned").query_as(job.profile, &job.sql);
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(r) => r.map_err(ServerError::Query),
            Err(payload) => Err(ServerError::Internal(panic_message(payload.as_ref()))),
        };
        if let Ok(r) = &result {
            inner.metrics.on_gpu_time(r.modeled.kernel_s);
        }
        inner
            .metrics
            .on_completed(job.enqueued.elapsed().as_secs_f64(), result.is_ok());
        // A gone receiver (client timed out and dropped the ticket) is
        // fine — the work is done and accounted either way.
        job.reply.send(result);
    }
}

/// The text of a caught panic (`panic!` payloads are `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "panic".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up_engine::ColumnType;
    use up_num::{DecimalType, UpDecimal};

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    fn dec(s: &str, t: DecimalType) -> Value {
        Value::Decimal(UpDecimal::parse(s, t).unwrap())
    }

    fn schema() -> Schema {
        Schema::new(vec![("x", ColumnType::Decimal(ty(6, 2)))])
    }

    fn seed_rows() -> [Vec<Value>; 4] {
        ["1.00", "2.50", "-3.25", "10.00"].map(|s| vec![dec(s, ty(6, 2))])
    }

    fn seeded_server(config: ServerConfig) -> UpServer {
        let server = UpServer::new(config);
        server.create_table("t", schema());
        server.insert_many("t", seed_rows()).unwrap();
        server
    }

    #[test]
    fn end_to_end_query_through_the_pool() {
        let server = seeded_server(ServerConfig { workers: 2, ..ServerConfig::default() });
        let s = server.connect(Profile::UltraPrecise);
        let r = server.query(s, "SELECT SUM(x) FROM t").unwrap();
        assert_eq!(r.rows[0][0].render(), "10.25");
        let m = server.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 0);
        assert_eq!(m.latency.count, 1);
    }

    #[test]
    fn per_session_profiles_route_execution() {
        let server = seeded_server(ServerConfig::default());
        let gpu = server.connect(Profile::UltraPrecise);
        let cpu = server.connect(Profile::PostgresLike);
        let r1 = server.query(gpu, "SELECT x + x FROM t").unwrap();
        let r2 = server.query(cpu, "SELECT x + x FROM t").unwrap();
        assert_eq!(r1.kernels, 1);
        assert_eq!(r2.kernels, 0, "comparator profile launches no kernels");
        // Result *values* agree; the declared result types may differ
        // between backends, so compare renderings.
        let render = |r: &up_engine::QueryResult| -> Vec<String> {
            r.rows.iter().map(|row| row[0].render()).collect()
        };
        assert_eq!(render(&r1), render(&r2));
    }

    #[test]
    fn unknown_session_is_rejected_up_front() {
        let server = seeded_server(ServerConfig::default());
        let err = server.query(SessionId(999), "SELECT x FROM t").unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession(_)), "{err}");
    }

    #[test]
    fn engine_errors_come_back_as_query_errors() {
        let server = seeded_server(ServerConfig::default());
        let s = server.connect(Profile::UltraPrecise);
        let err = server.query(s, "SELECT nope FROM t").unwrap_err();
        assert!(matches!(err, ServerError::Query(_)), "{err}");
        let m = server.metrics();
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn full_queue_rejects_with_retry_after() {
        // No workers: nothing drains, so the queue fills deterministically.
        let server = seeded_server(ServerConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let s = server.connect(Profile::UltraPrecise);
        let _t1 = server.submit(s, "SELECT x FROM t").unwrap();
        let _t2 = server.submit(s, "SELECT x FROM t").unwrap();
        let err = server.submit(s, "SELECT x FROM t").unwrap_err();
        match err {
            ServerError::Rejected { queue_depth, retry_after_s } => {
                assert_eq!(queue_depth, 2);
                assert!(retry_after_s > 0.0);
            }
            other => panic!("expected Rejected, got {other}"),
        }
        let m = server.metrics();
        assert_eq!(m.rejected, 1);
        assert_eq!(m.queue_depth, 2);
        assert_eq!(m.queue_max_depth, 2);
    }

    #[test]
    fn ticket_timeout_cancels_the_job() {
        let server = seeded_server(ServerConfig {
            workers: 0,
            default_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        });
        let s = server.connect(Profile::UltraPrecise);
        let ticket = server.submit(s, "SELECT x FROM t").unwrap();
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, ServerError::Timeout { .. }), "{err}");
        assert_eq!(server.metrics().timed_out, 1);
    }

    #[test]
    fn explicit_cancel_drops_a_queued_job() {
        // One worker. While the test holds the database write lock, A is
        // dequeued and parks on the read lock, so B stays queued behind
        // it until after its cancel flag is set.
        let server = seeded_server(ServerConfig { workers: 1, ..ServerConfig::default() });
        let s = server.connect(Profile::UltraPrecise);
        let (a, b) = server.write(|_| {
            let a = server.submit(s, "SELECT x FROM t").unwrap();
            while server.metrics().queue_depth != 0 {
                std::thread::yield_now();
            }
            let b = server.submit(s, "SELECT x FROM t").unwrap();
            b.cancel();
            (a, b)
        });
        assert_eq!(a.wait().unwrap().rows.len(), 4);
        let err = b.wait().unwrap_err();
        assert!(matches!(err, ServerError::Canceled), "{err}");
        let m = server.metrics();
        assert_eq!(m.canceled, 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn closed_sessions_error_pending_tickets_cleanly() {
        // No workers: submitted jobs sit in the queue until close_session
        // drains them — the tickets must observe an immediate, clean
        // error rather than timing out.
        let server = seeded_server(ServerConfig { workers: 0, ..ServerConfig::default() });
        let s = server.connect(Profile::UltraPrecise);
        let t1 = server.submit(s, "SELECT x FROM t").unwrap();
        let t2 = server.submit(s, "SELECT x FROM t").unwrap();
        assert!(server.close_session(s), "session was connected");
        for t in [t1, t2] {
            let err = t.wait_timeout(Duration::from_millis(200)).unwrap_err();
            assert!(matches!(err, ServerError::UnknownSession(_)), "{err}");
        }
        let m = server.metrics();
        assert_eq!(m.queue_depth, 0, "drained jobs leave the queue");
        assert_eq!(m.canceled, 2);
        assert_eq!(m.completed, 0, "nothing executed");
        assert!(!server.close_session(s), "double close is false");
        // New submissions for the dead session are rejected up front.
        let err = server.submit(s, "SELECT x FROM t").unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession(_)), "{err}");
    }

    #[test]
    fn closed_sessions_release_their_drr_lanes() {
        let server = seeded_server(ServerConfig { workers: 0, ..ServerConfig::default() });
        let s = server.connect(Profile::UltraPrecise);
        let ticket = server.submit(s, "SELECT x * x FROM t").unwrap();
        server.close_session(s);
        let err = ticket.wait_timeout(Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession(_)), "{err}");
        assert_eq!(server.inner.queue.lanes(), 0, "lane forgotten");
    }

    #[test]
    fn session_weights_skew_dequeue_grants_at_the_default_config() {
        // The default config with no workers, so both sessions stay
        // backlogged and the test takes the grants itself.
        let server = seeded_server(ServerConfig { workers: 0, ..ServerConfig::default() });
        let heavy = server.connect(Profile::UltraPrecise);
        let light = server.connect(Profile::UltraPrecise);
        assert!(server.set_session_weight(heavy, 3.0));
        assert!(server.set_session_weight(light, 1.0));
        let _tickets: Vec<QueryTicket> = (0..6)
            .flat_map(|_| [heavy, light])
            .map(|s| server.submit(s, "SELECT x FROM t").unwrap())
            .collect();
        let heavy_grants = (0..8)
            .filter(|_| server.inner.queue.pop_blocking().unwrap().session == heavy)
            .count();
        assert!(heavy_grants >= 5, "{heavy_grants} of the first 8 grants");
        assert!(server.close_session(heavy) && server.close_session(light));

        // The one clamp rule, `[0.01, 100]` with non-finite → 1: grants
        // to a fresh session at `weight` among the first `n`, against a
        // fresh default-weight one. The test takes each grant and
        // resubmits on the granted session, so both stay backlogged.
        let grants_at = |weight: f64, n: usize| -> usize {
            let heavy = server.connect(Profile::UltraPrecise);
            let light = server.connect(Profile::UltraPrecise);
            assert!(server.set_session_weight(heavy, weight));
            for s in [heavy, light, heavy, light] {
                server.submit(s, "SELECT x FROM t").unwrap();
            }
            let mut got = 0;
            for _ in 0..n {
                let s = server.inner.queue.pop_blocking().unwrap().session;
                got += usize::from(s == heavy);
                server.submit(s, "SELECT x FROM t").unwrap();
            }
            assert!(server.close_session(heavy) && server.close_session(light));
            got
        };
        assert!(!server.set_session_weight(SessionId(999), 2.0), "unknown session");
        assert!(!server.set_session_weight(heavy, 2.0), "closed session");
        assert_eq!(grants_at(1e9, 101), 100, "1e9 → 100: one round is 100 + 1 grants");
        assert_eq!(grants_at(f64::NAN, 8), 4, "NaN → 1: grants alternate");
        assert_eq!(grants_at(-2.0, 8), 0, "-2 → 0.01: a grant per ~100 rounds");
        assert!((1..=2).contains(&grants_at(-2.0, 202)), "-2 → 0.01 is not starved");
    }

    #[test]
    fn inserts_stripe_per_table_under_the_read_lock() {
        let server = seeded_server(ServerConfig::default());
        let t = ty(6, 2);
        server.create_table("u", Schema::new(vec![("y", ColumnType::Decimal(t))]));
        // Under the *read* lock, insert into `t` while holding another
        // table's read guard — possible only because writes stripe per
        // table instead of taking the database-wide write lock.
        server.read(|db| {
            let u_guard = db.table("u").expect("table u");
            db.insert_many("t", [vec![dec("5.00", t)]]).unwrap();
            assert_eq!(u_guard.rows, 0);
        });
        let s = server.connect(Profile::UltraPrecise);
        let r = server.query(s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].render(), "5");
    }

    #[test]
    fn concurrent_loads_into_disjoint_tables() {
        let server = Arc::new(seeded_server(ServerConfig::default()));
        let t = ty(6, 2);
        server.create_table("a", Schema::new(vec![("x", ColumnType::Decimal(t))]));
        server.create_table("b", Schema::new(vec![("x", ColumnType::Decimal(t))]));
        let loaders: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        server.insert_many(name, [vec![dec("1.00", t)]]).unwrap();
                    }
                })
            })
            .collect();
        let s = server.connect(Profile::UltraPrecise);
        // Queries over an unrelated table keep flowing during the load.
        for _ in 0..5 {
            server.query(s, "SELECT SUM(x) FROM t").unwrap();
        }
        for l in loaders {
            l.join().unwrap();
        }
        let ra = server.query(s, "SELECT COUNT(*) FROM a").unwrap();
        let rb = server.query(s, "SELECT COUNT(*) FROM b").unwrap();
        assert_eq!(ra.rows[0][0].render(), "50");
        assert_eq!(rb.rows[0][0].render(), "50");
    }

    #[test]
    fn writes_serialize_against_reads() {
        let server = seeded_server(ServerConfig::default());
        let s = server.connect(Profile::UltraPrecise);
        let before = server.query(s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(before.rows[0][0].render(), "4");
        server.insert_many("t", [vec![dec("7.77", ty(6, 2))]]).unwrap();
        let after = server.query(s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(after.rows[0][0].render(), "5");
    }

    #[test]
    fn kernel_time_and_cache_feed_the_snapshot() {
        let server = seeded_server(ServerConfig { workers: 2, ..ServerConfig::default() });
        let s = server.connect(Profile::UltraPrecise);
        for _ in 0..4 {
            server.query(s, "SELECT x * x FROM t").unwrap();
        }
        let m = server.metrics();
        assert_eq!(m.cache.misses, 1, "one signature, compiled once");
        assert_eq!(m.cache.hits, 3);
        assert!(m.gpu_kernel_s > 0.0);
        let text = m.report();
        assert!(text.contains("4 submitted"), "{text}");
    }

    #[test]
    fn server_modeled_time_equals_a_serial_engine_replay() {
        // One worker over a fresh cache, so the server's statements pay
        // their compiles in the same order as the serial replay.
        let server = seeded_server(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut reference = Database::new(Profile::UltraPrecise);
        reference.create_table("t", schema());
        reference.insert_many("t", seed_rows()).unwrap();
        let gpu = server.connect(Profile::UltraPrecise);
        let cpu = server.connect(Profile::PostgresLike);
        let statements = [
            (gpu, Profile::UltraPrecise, "SELECT x * x FROM t"),
            (gpu, Profile::UltraPrecise, "SELECT x * x FROM t"),
            (gpu, Profile::UltraPrecise, "SELECT SUM(x + x), AVG(x) FROM t"),
            (cpu, Profile::PostgresLike, "SELECT x * x FROM t"),
            (gpu, Profile::UltraPrecise, "SELECT x, x - x FROM t WHERE x > 0 ORDER BY x"),
            (gpu, Profile::UltraPrecise, "SELECT COUNT(*) FROM t"),
            (gpu, Profile::UltraPrecise, "SELECT SUM(x + x), AVG(x) FROM t"),
        ];
        for (k, (session, profile, sql)) in statements.into_iter().enumerate() {
            let got = server.query(session, sql).unwrap().modeled;
            let serial = reference.query_as(profile, sql).unwrap().modeled;
            for (name, a, b) in [
                ("scan_s", got.scan_s, serial.scan_s),
                ("pcie_s", got.pcie_s, serial.pcie_s),
                ("compile_s", got.compile_s, serial.compile_s),
                ("kernel_s", got.kernel_s, serial.kernel_s),
                ("cpu_s", got.cpu_s, serial.cpu_s),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "statement {k} {sql:?}: {name}");
            }
            assert_eq!(got.total().to_bits(), serial.total().to_bits(), "{sql:?}");
        }
        assert_eq!(server.metrics().cache.misses, reference.jit_stats().misses);
    }
}
