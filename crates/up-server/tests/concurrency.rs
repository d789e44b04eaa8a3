//! Concurrency correctness of the query service.
//!
//! The two properties the ISSUE pins down:
//!
//! 1. N threads hammering one shared server produce results bit-identical
//!    to serial execution on a private engine — decimal arithmetic stays
//!    exact under concurrency.
//! 2. The shared JIT cache compiles each distinct kernel signature at
//!    most once, no matter how the threads race.

use std::collections::HashSet;
use std::sync::Arc;
use up_engine::{ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, ServerError, UpServer};

fn ty(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

fn rows(n: usize) -> Vec<Vec<Value>> {
    // Deterministic, sign-mixed, differently-scaled data.
    let ta = ty(12, 4);
    let tb = ty(12, 2);
    (0..n as i64)
        .map(|i| {
            let a = UpDecimal::from_scaled_i64((i * 7919 - 40_000) % 9_999_999, ta).unwrap();
            let b = UpDecimal::from_scaled_i64((i * 104_729 + 13) % 999_999, tb).unwrap();
            vec![Value::Decimal(a), Value::Decimal(b)]
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec![
        ("a", ColumnType::Decimal(ty(12, 4))),
        ("b", ColumnType::Decimal(ty(12, 2))),
    ])
}

const QUERIES: [&str; 4] = [
    "SELECT a + b FROM t",
    "SELECT a * b FROM t",
    "SELECT SUM(a + b) FROM t",
    "SELECT a, b FROM t WHERE a > 0 ORDER BY a DESC LIMIT 5",
];

/// Kernel-bearing expression signatures among `QUERIES`: `a + b` appears
/// twice (projection and under SUM — same signature), `a * b` once, and
/// the bare-column query compiles nothing.
const DISTINCT_SIGNATURES: u64 = 2;

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let n_rows = 64;
    let n_threads = 8;
    let reps = 4;

    // Serial reference: a private engine, one query at a time.
    let mut reference = Database::new(Profile::UltraPrecise);
    reference.create_table("t", schema());
    reference.insert_many("t", rows(n_rows)).unwrap();
    let expected: Vec<_> = QUERIES
        .iter()
        .map(|q| reference.query(q).unwrap().rows)
        .collect();

    // Shared server: every thread runs every query `reps` times.
    let server = Arc::new(UpServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServerConfig::default()
    }));
    server.create_table("t", schema());
    server.insert_many("t", rows(n_rows)).unwrap();

    let handles: Vec<_> = (0..n_threads)
        .map(|_| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let session = server.connect(Profile::UltraPrecise);
                let mut got = Vec::new();
                for _ in 0..reps {
                    for q in QUERIES {
                        got.push(server.query(session, q).unwrap().rows);
                    }
                }
                server.close_session(session);
                got
            })
        })
        .collect();

    for h in handles {
        let got = h.join().unwrap();
        for (i, rows) in got.into_iter().enumerate() {
            assert_eq!(
                rows,
                expected[i % QUERIES.len()],
                "query {:?} diverged from serial execution",
                QUERIES[i % QUERIES.len()]
            );
        }
    }

    // Shared cache: compilations never exceed distinct signatures.
    let m = server.metrics();
    assert!(
        m.cache.misses <= DISTINCT_SIGNATURES,
        "expected ≤ {DISTINCT_SIGNATURES} compilations, saw {} ({:?})",
        m.cache.misses,
        m.cache
    );
    let total = (n_threads * reps * QUERIES.len()) as u64;
    assert_eq!(m.completed, total);
    assert_eq!(m.failed, 0);
    assert_eq!(m.latency.count, total);
    assert_eq!(m.queue_depth, 0, "queue drained");
    assert_eq!(m.sessions_active, 0, "all sessions disconnected");
    assert_eq!(m.sessions_total, n_threads as u64);

    // Second input: the fig. 8/9-style ledger mix, shuffled per session.
    ledger_mix_matches_serial_replay();
}

fn ledger_schema() -> Schema {
    Schema::new(vec![
        ("x", ColumnType::Decimal(ty(30, 6))),
        ("y", ColumnType::Decimal(ty(30, 6))),
        ("z", ColumnType::Decimal(ty(20, 4))),
        ("g", ColumnType::Int64),
    ])
}

fn ledger_rows(n: usize) -> Vec<Vec<Value>> {
    let (tx, tyy, tz) = (ty(30, 6), ty(30, 6), ty(20, 4));
    (0..n as i64)
        .map(|i| {
            let x = UpDecimal::from_scaled_i64((i * 7919 - 500_000) % 99_999_999, tx).unwrap();
            let y = UpDecimal::from_scaled_i64((i * 104_729 + 77) % 9_999_999, tyy).unwrap();
            let z = UpDecimal::from_scaled_i64((i * 31 + 5) % 999_999, tz).unwrap();
            // `g` cycles, so a group's members are never contiguous.
            vec![Value::Decimal(x), Value::Decimal(y), Value::Decimal(z), Value::Int64(i % 3)]
        })
        .collect()
}

/// Expression evaluation and aggregation over decimals (the paper's
/// fig. 8/9 workload shape), including every shape of the columnar fold:
/// kernel output, bare stored column, filtered (gathered) column, and
/// GROUP BY over scattered members. Sessions share signatures, so
/// concurrent statements race for the same cache entries.
const LEDGER_QUERIES: [&str; 9] = [
    "SELECT x * y FROM ledger",
    "SELECT x + y FROM ledger",
    "SELECT (x * y) + z FROM ledger",
    "SELECT SUM(x * x), SUM(y + y) FROM ledger",
    "SELECT x - z FROM ledger",
    "SELECT COUNT(*) FROM ledger",
    "SELECT SUM(x), AVG(z), MIN(y), MAX(x) FROM ledger",
    "SELECT SUM(x), MIN(x * y), MAX(z), AVG(y) FROM ledger WHERE z > 50",
    "SELECT g, SUM(x), AVG(x * y), MIN(z), MAX(y), COUNT(*) FROM ledger GROUP BY g ORDER BY g",
];

/// Deterministic shuffle (LCG) so each session submits the mix in a
/// different — but reproducible — order.
fn shuffled(session: u64) -> Vec<&'static str> {
    let mut order: Vec<&'static str> = LEDGER_QUERIES.to_vec();
    let mut state = session.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Eight sessions (the last on a comparator profile, which compiles no
/// kernels) submit the shuffled ledger mix up front to a default-config
/// server; every statement must match a serial replay on a private
/// engine, and the shared cache must compile each signature exactly once.
fn ledger_mix_matches_serial_replay() {
    let n_sessions = 8u64;
    let profile =
        |i: u64| if i == n_sessions - 1 { Profile::PostgresLike } else { Profile::UltraPrecise };
    let server = UpServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServerConfig::default()
    });
    server.create_table("ledger", ledger_schema());
    server.insert_many("ledger", ledger_rows(200)).unwrap();
    let sessions: Vec<_> = (0..n_sessions).map(|i| server.connect(profile(i))).collect();
    // Skewed weights: fairness must never change results, only order.
    server.set_session_weight(sessions[0], 4.0);
    let mut plan: Vec<(u64, &'static str)> = Vec::new();
    let mut tickets = Vec::new();
    for (i, &session) in sessions.iter().enumerate() {
        for sql in shuffled(i as u64 + 1) {
            tickets.push(server.submit(session, sql).expect("admitted"));
            plan.push((i as u64, sql));
        }
    }
    let parallel: Vec<QueryResult> =
        tickets.into_iter().map(|t| t.wait().expect("query ok")).collect();
    let m = server.metrics();
    assert_eq!(m.failed, 0);
    assert_eq!(m.completed, plan.len() as u64);

    let mut reference = Database::new(Profile::UltraPrecise);
    reference.create_table("ledger", ledger_schema());
    reference.insert_many("ledger", ledger_rows(200)).unwrap();
    let mut signatures = HashSet::new();
    for (k, &(i, sql)) in plan.iter().enumerate() {
        let label = format!("statement {k} session {i} {sql:?}");
        let serial = reference.query_as(profile(i), sql).expect("query ok");
        let got = &parallel[k];
        assert_eq!(got.rows, serial.rows, "{label}: rows");
        assert_eq!(got.kernels, serial.kernels, "{label}: kernels");
        // `compile_s` is left out: concurrent statements that share a
        // signature race for its one cache miss, so which of them pays
        // the modeled NVCC seconds depends on timing (only the number of
        // misses is fixed, checked below).
        for (name, a, b) in [
            ("scan_s", got.modeled.scan_s, serial.modeled.scan_s),
            ("pcie_s", got.modeled.pcie_s, serial.modeled.pcie_s),
            ("kernel_s", got.modeled.kernel_s, serial.modeled.kernel_s),
            ("cpu_s", got.modeled.cpu_s, serial.modeled.cpu_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: {name} ({a} vs {b})");
        }
        let kernels = reference.plan_kernels(profile(i), sql).expect("plans");
        signatures.extend(kernels.into_iter().map(|(sig, _)| sig));
    }
    let distinct = signatures.len() as u64;
    assert!(distinct >= 5, "the mix compiles several kernels: {signatures:?}");
    assert_eq!(reference.jit_stats().misses, distinct, "serial replay");
    assert_eq!(m.cache.misses, distinct, "one compile per signature: {:?}", m.cache);
    assert_eq!(m.cache.evictions, 0, "capacity must cover the mix");
}

#[test]
fn metrics_snapshot_reports_every_required_dimension() {
    let server = UpServer::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.create_table("t", schema());
    server.insert_many("t", rows(32)).unwrap();
    let s = server.connect(Profile::UltraPrecise);
    for _ in 0..6 {
        server.query(s, "SELECT a * b + a FROM t").unwrap();
    }
    let m = server.metrics();
    // Queue depth (drained), per-query latency, cache counters, modeled
    // kernel seconds.
    assert_eq!(m.queue_depth, 0);
    assert!(m.queue_max_depth >= 1);
    assert_eq!(m.latency.count, 6);
    assert!(m.latency.p50_s > 0.0 && m.latency.max_s >= m.latency.p50_s);
    assert_eq!(m.cache.misses, 1);
    assert_eq!(m.cache.hits, 5);
    assert!(m.cache.hit_rate() > 0.8);
    assert!(m.gpu_kernel_s > 0.0);
    let text = m.report();
    for needle in ["queue:", "latency:", "jit cache:", "gpu kernels:"] {
        assert!(text.contains(needle), "report missing {needle:?}:\n{text}");
    }
}

#[test]
fn backpressure_is_deterministic_with_no_workers() {
    let server = UpServer::new(ServerConfig {
        workers: 0,
        queue_capacity: 3,
        ..ServerConfig::default()
    });
    server.create_table("t", schema());
    server.insert_many("t", rows(8)).unwrap();
    let s = server.connect(Profile::UltraPrecise);
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(server.submit(s, "SELECT a FROM t").unwrap());
    }
    for _ in 0..2 {
        match server.submit(s, "SELECT a FROM t") {
            Err(ServerError::Rejected { queue_depth, retry_after_s }) => {
                assert_eq!(queue_depth, 3);
                assert!(retry_after_s > 0.0);
            }
            other => panic!("expected rejection, got {:?}", other.map(|_| "ticket")),
        }
    }
    let m = server.metrics();
    assert_eq!(m.submitted, 3);
    assert_eq!(m.rejected, 2);
    assert_eq!(m.queue_depth, 3);
}

#[test]
fn concurrent_writes_and_reads_stay_consistent() {
    // Writers append batches while readers count; every count observed
    // must be a multiple of the batch size (writes are atomic under the
    // write lock — readers never see a half-applied batch).
    let batch = 8;
    let server = Arc::new(UpServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServerConfig::default()
    }));
    server.create_table("t", schema());
    server.insert_many("t", rows(batch)).unwrap(); // seed one batch
    let writer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for _ in 0..10 {
                server.insert_many("t", rows(batch)).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let s = server.connect(Profile::UltraPrecise);
                for _ in 0..20 {
                    let r = server.query(s, "SELECT COUNT(*) FROM t").unwrap();
                    let Value::Int64(n) = r.rows[0][0] else {
                        panic!("expected integer count, got {:?}", r.rows[0][0])
                    };
                    assert_eq!(n % batch as i64, 0, "torn batch visible: {n}");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    let s = server.connect(Profile::UltraPrecise);
    let r = server.query(s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(88));
}
