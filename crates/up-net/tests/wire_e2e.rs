//! End-to-end wire tests: real loopback TCP connections against a real
//! `UpServer`, checking result fidelity, stable error codes, tenant
//! quotas, fairness skew, and lifecycle edges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use up_engine::{ColumnType, Profile, Schema, Value};
use up_net::{
    read_frame, write_frame, Client, ErrorCode, Frame, NetConfig, Reply, TenantQuota,
    TenantRegistry, WireError, WireServer, DEFAULT_MAX_FRAME,
};
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

fn ty() -> DecimalType {
    DecimalType::new_unchecked(10, 2)
}

fn dec(s: &str) -> Value {
    Value::Decimal(UpDecimal::parse(s, ty()).unwrap())
}

/// An `UpServer` with table `t(x DECIMAL(10,2))` holding `n` rows.
fn seeded_up(config: ServerConfig, n: usize) -> Arc<UpServer> {
    let up = Arc::new(UpServer::new(config));
    up.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(ty()))]));
    let rows: Vec<Vec<Value>> =
        (0..n).map(|i| vec![dec(&format!("{}.{:02}", i % 500, i % 100))]).collect();
    up.insert_many("t", rows).unwrap();
    up
}

fn open_registry(names: &[&str]) -> Arc<TenantRegistry> {
    let tenants = Arc::new(TenantRegistry::new());
    for n in names {
        tenants.register(n, "token", TenantQuota::default());
    }
    tenants
}

fn net_config() -> NetConfig {
    NetConfig { addr: "127.0.0.1:0".into(), ..NetConfig::default() }
}

fn remote_code(err: WireError) -> ErrorCode {
    match err {
        WireError::Remote { code, .. } => {
            ErrorCode::from_u16(code).unwrap_or_else(|| panic!("unknown wire code {code}"))
        }
        other => panic!("expected a remote error, got {other}"),
    }
}

#[test]
fn wire_rows_are_bit_identical_to_in_process_queries() {
    let up = seeded_up(ServerConfig::default(), 64);
    let tenants = open_registry(&["alpha", "beta", "gamma"]);
    let mut server = WireServer::start(Arc::clone(&up), tenants, net_config()).unwrap();

    let queries = [
        "SELECT x + x FROM t",
        "SELECT SUM(x) FROM t",
        "SELECT x FROM t WHERE x > 100 ORDER BY x DESC LIMIT 5",
        "SELECT SUM(x * x) AS s, COUNT(*) AS n FROM t",
    ];
    for tenant in ["alpha", "beta", "gamma"] {
        let mut client = Client::connect(server.addr(), tenant, "token").unwrap();
        let reference = up.connect(Profile::UltraPrecise);
        for sql in queries {
            let wire = client.query(sql).unwrap();
            let local = up.query(reference, sql).unwrap();
            assert_eq!(wire.columns, local.columns, "{tenant}: {sql}");
            let local_rows: Vec<Vec<String>> = local
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v.render()).collect())
                .collect();
            assert_eq!(wire.rows, local_rows, "{tenant}: {sql}");
        }
        client.goodbye().unwrap();
    }

    // Engine failures execute (workers > 0) and come back as stable
    // code 6 with the engine's message.
    let mut client = Client::connect(server.addr(), "alpha", "token").unwrap();
    let err = client.query("SELECT definitely not sql").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::QueryFailed);
    server.shutdown();
}

#[test]
fn incomparable_predicates_are_error_replies_not_dead_workers() {
    // One worker: if a statement killed it, the statement after would
    // sit in the queue until the deadline.
    let up = Arc::new(UpServer::new(ServerConfig { workers: 1, ..ServerConfig::default() }));
    up.create_table(
        "g",
        Schema::new(vec![("k", ColumnType::Str), ("v", ColumnType::Decimal(ty()))]),
    );
    let rows = ["a", "b", "a"].into_iter().map(|k| vec![Value::Str(k.into()), dec("1.50")]);
    up.insert_many("g", rows).unwrap();
    let tenants = open_registry(&["acme"]);
    let mut server =
        WireServer::start(Arc::clone(&up), Arc::clone(&tenants), net_config()).unwrap();
    let mut c = Client::connect(server.addr(), "acme", "token").unwrap();
    for (sql, why) in [
        // Typed at plan time: a string key against a number, a sum
        // against a string.
        ("SELECT k, SUM(v) AS s FROM g GROUP BY k HAVING k > 1", "planning error"),
        ("SELECT k, SUM(v) AS s FROM g GROUP BY k HAVING s > 'abc'", "planning error"),
        // Not typed by the planner: the executor's fallback.
        ("SELECT v FROM g WHERE k > 1", "unsupported"),
    ] {
        match c.query(sql).unwrap_err() {
            WireError::Remote { code, message, .. } => {
                assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::QueryFailed), "{sql}");
                assert!(message.contains(why), "{sql}: {message}");
            }
            other => panic!("{sql}: {other}"),
        }
        // The same connection, and the only worker, answer the next one.
        let ok = c.query("SELECT k, SUM(v) AS s FROM g GROUP BY k HAVING s > 2 ORDER BY k").unwrap();
        assert_eq!(ok.rows, vec![vec!["a".to_string(), "3.00".to_string()]]);
    }
    let stats = tenants.stats("acme").unwrap();
    assert_eq!((stats.completed, stats.errors, stats.inflight), (6, 3, 0));
    server.shutdown();
}

/// One worker serves two tenants: `hostile` gets `code` with a message
/// naming `why` for `sql` on every try, and the other tenant's query is
/// answered within a second after.
fn hostile_statement_leaves_the_worker_serving(sql: &str, tries: usize, code: ErrorCode, why: &str) {
    let up = seeded_up(ServerConfig { workers: 1, ..ServerConfig::default() }, 8);
    let tenants = open_registry(&["hostile", "bystander"]);
    let mut server = WireServer::start(Arc::clone(&up), tenants, net_config()).unwrap();
    let mut hostile = Client::connect(server.addr(), "hostile", "token").unwrap();
    for _ in 0..tries {
        match hostile.query(sql).unwrap_err() {
            WireError::Remote { code: c, message, .. } => {
                assert_eq!(ErrorCode::from_u16(c), Some(code), "{message}");
                assert!(message.contains(why), "{message}");
            }
            other => panic!("expected a remote error, got {other}"),
        }
    }
    let mut bystander = Client::connect(server.addr(), "bystander", "token").unwrap();
    let t0 = Instant::now();
    let ok = bystander.query("SELECT SUM(x) FROM t").unwrap();
    assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
    assert_eq!(ok.rows, vec![vec!["28.28".to_string()]]);
    server.shutdown();
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    let sql = format!("SELECT {}x{} FROM t", "(".repeat(3000), ")".repeat(3000));
    hostile_statement_leaves_the_worker_serving(&sql, 1, ErrorCode::QueryFailed, "nested deeper");
}

#[test]
fn a_panicking_statement_is_an_internal_error_and_the_worker_lives() {
    // 140 terms exhaust the kernel's predicate file: codegen panics inside
    // the JIT cache's build. The second try compiles again instead of
    // waiting on the failed build's in-flight marker.
    let sql = format!("SELECT {} FROM t", vec!["x"; 140].join(" + "));
    hostile_statement_leaves_the_worker_serving(&sql, 2, ErrorCode::Internal, "predicate file exhausted");
}

#[test]
fn a_reply_over_max_frame_is_refused_and_the_connection_lives() {
    let up = seeded_up(ServerConfig::default(), 1000);
    let tenants = open_registry(&["acme"]);
    let config = NetConfig { max_frame: 4096, ..net_config() };
    let mut server = WireServer::start(Arc::clone(&up), Arc::clone(&tenants), config).unwrap();
    let mut c = Client::connect(server.addr(), "acme", "token").unwrap();
    // ~10 bytes a row: 1000 rows cannot fit 4096, 100 can.
    let small = c.query("SELECT x + x FROM t LIMIT 100").unwrap();
    assert_eq!(small.rows.len(), 100);
    let small_bytes: u64 = small.rows.iter().flatten().map(|cell| cell.len() as u64).sum();
    match c.query("SELECT x + x FROM t").unwrap_err() {
        WireError::Remote { id, code, message } => {
            assert_ne!(id, 0, "answers the query, not the connection");
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::FrameTooLarge));
            assert!(message.contains("1000 rows") && message.contains("limit 4096"), "{message}");
        }
        other => panic!("expected FrameTooLarge, got {other}"),
    }
    // Same connection, next query; the refused one is a failed query
    // that shipped no result bytes.
    assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().rows, vec![vec!["1000".to_string()]]);
    let stats = tenants.stats("acme").unwrap();
    assert_eq!((stats.completed, stats.errors, stats.inflight), (3, 1, 0));
    assert_eq!(stats.bytes_out, small_bytes + 4);
    c.goodbye().unwrap();
    server.shutdown();
    assert_eq!(server.stats().slow_closed + server.stats().protocol_errors, 0);
}

#[test]
fn server_errors_arrive_with_their_stable_codes() {
    // workers:0 parks everything in the queue forever, making each
    // error path deterministic: queue_capacity 2 makes the third
    // pipelined query a Rejected, closing the session turns the two
    // queued ones into UnknownSession, and a fresh query on a new
    // connection runs out the 300 ms ticket deadline into a Timeout.
    let up = seeded_up(
        ServerConfig {
            workers: 0,
            queue_capacity: 2,
            default_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
        8,
    );
    let tenants = open_registry(&["acme"]);
    let mut server = WireServer::start(Arc::clone(&up), tenants, net_config()).unwrap();
    let mut client = Client::connect(server.addr(), "acme", "token").unwrap();

    let q1 = client.send_query("SELECT x FROM t").unwrap();
    let q2 = client.send_query("SELECT x FROM t").unwrap();
    let q3 = client.send_query("SELECT x FROM t").unwrap();
    // The only reply that can arrive this early is q3's rejection.
    match client.recv_reply().unwrap() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, q3);
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::Rejected));
        }
        Reply::Rows { id, .. } => panic!("query {id} cannot succeed with 0 workers"),
    }
    // Close the session out from under the two queued queries: both
    // resolve with code 2 well before their 300 ms deadline.
    up.close_session(up_server::SessionId(client.session()));
    let mut got = std::collections::HashMap::new();
    for _ in 0..2 {
        match client.recv_reply().unwrap() {
            Reply::Error { id, code, .. } => {
                got.insert(id, ErrorCode::from_u16(code).unwrap());
            }
            Reply::Rows { id, .. } => panic!("query {id} cannot succeed with 0 workers"),
        }
    }
    assert_eq!(got[&q1], ErrorCode::UnknownSession, "{got:?}");
    assert_eq!(got[&q2], ErrorCode::UnknownSession, "{got:?}");

    // A fresh connection (fresh session, empty queue): the queued query
    // runs out the ticket deadline.
    let mut client = Client::connect(server.addr(), "acme", "token").unwrap();
    let err = client.query("SELECT x FROM t").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::Timeout);
    server.shutdown();
}

#[test]
fn tenant_quotas_enforce_rate_concurrency_and_byte_budget() {
    let up = seeded_up(
        ServerConfig { workers: 0, default_timeout: Duration::from_millis(200), ..Default::default() },
        8,
    );
    let tenants = Arc::new(TenantRegistry::new());
    // burst 2, negligible refill: the third immediate query throttles.
    tenants.register(
        "bursty",
        "token",
        TenantQuota { qps: 0.001, burst: 2.0, ..TenantQuota::default() },
    );
    tenants.register(
        "narrow",
        "token",
        TenantQuota { max_concurrent: 1, ..TenantQuota::default() },
    );
    let mut server = WireServer::start(Arc::clone(&up), tenants, net_config()).unwrap();

    let mut c = Client::connect(server.addr(), "bursty", "token").unwrap();
    c.send_query("SELECT x FROM t").unwrap();
    c.send_query("SELECT x FROM t").unwrap();
    let q3 = c.send_query("SELECT x FROM t").unwrap();
    // The throttle answers immediately, before the queued pair times out.
    match c.recv_reply().unwrap() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, q3);
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::RateLimited));
        }
        Reply::Rows { id, .. } => panic!("query {id} cannot succeed with 0 workers"),
    }

    let mut c = Client::connect(server.addr(), "narrow", "token").unwrap();
    c.send_query("SELECT x FROM t").unwrap();
    let q2 = c.send_query("SELECT x FROM t").unwrap();
    match c.recv_reply().unwrap() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, q2);
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::TenantConcurrency));
        }
        Reply::Rows { id, .. } => panic!("query {id} cannot succeed with 0 workers"),
    }
    server.shutdown();
}

#[test]
fn byte_budget_and_inflight_cap_cut_off_over_the_wire() {
    // Budget of 1 byte: the first query lands (the budget is checked
    // before its bytes arrive), the second is refused.
    let up = seeded_up(ServerConfig::default(), 8);
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register(
        "tiny",
        "token",
        TenantQuota { result_byte_budget: 1, ..TenantQuota::default() },
    );
    let mut server = WireServer::start(Arc::clone(&up), tenants, net_config()).unwrap();
    let mut c = Client::connect(server.addr(), "tiny", "token").unwrap();
    c.query("SELECT SUM(x) FROM t").unwrap();
    let err = c.query("SELECT SUM(x) FROM t").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::ByteBudgetExceeded);
    server.shutdown();

    // Per-connection in-flight cap: with 0 workers the first query
    // parks in the queue, so the second deterministically trips the cap
    // before any tenant quota is consulted.
    let up = seeded_up(
        ServerConfig { workers: 0, default_timeout: Duration::from_millis(200), ..Default::default() },
        8,
    );
    let tenants = open_registry(&["acme"]);
    let mut server = WireServer::start(
        Arc::clone(&up),
        tenants,
        NetConfig { max_inflight: 1, ..net_config() },
    )
    .unwrap();
    let mut c = Client::connect(server.addr(), "acme", "token").unwrap();
    c.send_query("SELECT x FROM t").unwrap();
    let q2 = c.send_query("SELECT x FROM t").unwrap();
    match c.recv_reply().unwrap() {
        Reply::Error { id, code, .. } => {
            assert_eq!(id, q2);
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::TooManyInflight));
        }
        Reply::Rows { id, .. } => panic!("query {id} cannot succeed with 0 workers"),
    }
    server.shutdown();
}

#[test]
fn handshake_violations_and_garbage_get_protocol_codes() {
    let up = seeded_up(ServerConfig::default(), 4);
    let tenants = open_registry(&["acme"]);
    let mut server = WireServer::start(up, tenants, net_config()).unwrap();

    // Wrong token.
    let err = Client::connect(server.addr(), "acme", "wrong").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::Unauthorized);
    // Unknown tenant.
    let err = Client::connect(server.addr(), "ghost", "token").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::Unauthorized);

    // Query before Hello: BadState, then an orderly close.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &Frame::Query { id: 1, sql: "SELECT 1".into() }).unwrap();
    match read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap() {
        Some(Frame::Error { code, .. }) => {
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadState));
        }
        f => panic!("expected BadState error, got {f:?}"),
    }
    assert_eq!(read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap(), Some(Frame::Goodbye));

    // A hostile length prefix: FrameTooLarge, never a hang.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    use std::io::Write as _;
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap() {
        Some(Frame::Error { code, .. }) => {
            assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::FrameTooLarge));
        }
        f => panic!("expected FrameTooLarge error, got {f:?}"),
    }

    assert!(server.stats().protocol_errors >= 2);
    server.shutdown();
}

#[test]
fn connection_cap_refuses_and_idle_timeout_reaps() {
    let up = seeded_up(ServerConfig::default(), 4);
    let tenants = open_registry(&["acme"]);
    let mut server = WireServer::start(
        Arc::clone(&up),
        tenants,
        NetConfig {
            max_conns: 1,
            idle_timeout: Duration::from_millis(300),
            ..net_config()
        },
    )
    .unwrap();

    let mut first = Client::connect(server.addr(), "acme", "token").unwrap();
    first.query("SELECT x FROM t").unwrap();
    // Second connection bounces off the cap with a stable code.
    let err = Client::connect(server.addr(), "acme", "token").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::ConnLimit);

    // Going idle past the limit closes the first connection...
    std::thread::sleep(Duration::from_millis(700));
    let err = first.query("SELECT x FROM t").unwrap_err();
    assert_eq!(remote_code(err), ErrorCode::IdleTimeout);
    assert_eq!(server.stats().idle_closed, 1);

    // ...which frees its slot (and its server session) for a newcomer.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut newcomer = loop {
        match Client::connect(server.addr(), "acme", "token") {
            Ok(c) => break c,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25))
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    newcomer.query("SELECT x FROM t").unwrap();
    assert_eq!(up.metrics().sessions_active, 1, "idle session was closed server-side");
    server.shutdown();
}

#[test]
fn weighted_tenants_get_a_skewed_completion_share_under_saturation() {
    // One worker, DRR dequeue, both tenants keep 32 queries queued: the
    // 2.0-weight tenant should complete ~2× the queries of the
    // 1.0-weight tenant at any cut point.
    let up = seeded_up(
        ServerConfig {
            workers: 1,
            queue_capacity: 256,
            default_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
        3000,
    );
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register("hot", "token", TenantQuota { weight: 2.0, ..TenantQuota::default() });
    tenants.register("cold", "token", TenantQuota { weight: 1.0, ..TenantQuota::default() });
    let mut server = WireServer::start(
        Arc::clone(&up),
        tenants,
        NetConfig { max_inflight: 64, ..net_config() },
    )
    .unwrap();

    const PER_TENANT: usize = 32;
    let hot_done = Arc::new(AtomicU64::new(0));
    let cold_done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for (tenant, counter) in
        [("hot", Arc::clone(&hot_done)), ("cold", Arc::clone(&cold_done))]
    {
        let addr = server.addr();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr, tenant, "token").unwrap();
            for _ in 0..PER_TENANT {
                c.send_query("SELECT SUM(x * x) FROM t").unwrap();
            }
            for _ in 0..PER_TENANT {
                match c.recv_reply().unwrap() {
                    Reply::Rows { .. } => {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    Reply::Error { code, message, .. } => {
                        panic!("query failed with code {code}: {message}")
                    }
                }
            }
        }));
    }

    // Cut when half the combined work is done and compare shares.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (hot_cut, cold_cut) = loop {
        let h = hot_done.load(Ordering::Relaxed);
        let c = cold_done.load(Ordering::Relaxed);
        if h + c >= PER_TENANT as u64 {
            break (h, c);
        }
        assert!(Instant::now() < deadline, "saturation run stalled at {h}+{c}");
        std::thread::sleep(Duration::from_millis(2));
    };
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        hot_cut as f64 >= cold_cut as f64 * 1.3,
        "2:1 weights should skew completions: hot {hot_cut} vs cold {cold_cut}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_queries_before_goodbye() {
    let up = seeded_up(
        ServerConfig { workers: 1, default_timeout: Duration::from_secs(60), ..Default::default() },
        2000,
    );
    let tenants = open_registry(&["acme"]);
    let mut server = WireServer::start(
        Arc::clone(&up),
        tenants,
        NetConfig { max_inflight: 16, ..net_config() },
    )
    .unwrap();

    let mut client = Client::connect(server.addr(), "acme", "token").unwrap();
    let mut ids = std::collections::HashSet::new();
    for _ in 0..4 {
        ids.insert(client.send_query("SELECT SUM(x * x) FROM t").unwrap());
    }
    // Wait until all four are actually in flight server-side (a query
    // still sitting in the socket buffer at shutdown is not in-flight —
    // it legitimately gets the shutdown notice instead of running).
    let deadline = Instant::now() + Duration::from_secs(10);
    while up.metrics().submitted < 4 {
        assert!(Instant::now() < deadline, "queries never reached the server");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Shut down while those queries are queued/executing: every one must
    // still resolve (rows or a stable error), and only then Goodbye.
    let shutter = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    let mut resolved = 0;
    while resolved < ids.len() {
        match client.recv_reply() {
            Ok(Reply::Rows { id, .. }) => {
                assert!(ids.remove(&id));
                resolved += 1;
            }
            Ok(Reply::Error { id, code, .. }) if id != 0 => {
                assert!(ids.remove(&id));
                let code = ErrorCode::from_u16(code).unwrap();
                assert!(
                    matches!(code, ErrorCode::Shutdown | ErrorCode::Timeout),
                    "in-flight queries may only fail with a shutdown-ish code, got {code}"
                );
                resolved += 1;
            }
            Ok(Reply::Error { .. }) => {} // connection-level shutdown notice
            Err(e) => panic!("connection died before draining: {e}"),
        }
    }
    shutter.join().unwrap();
    assert_eq!(up.metrics().sessions_active, 0, "drained connections close their sessions");
}
