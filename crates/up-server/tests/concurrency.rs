//! Concurrency correctness of the query service.
//!
//! The two properties the ISSUE pins down:
//!
//! 1. N threads hammering one shared server produce results bit-identical
//!    to serial execution on a private engine — decimal arithmetic stays
//!    exact under concurrency.
//! 2. The shared JIT cache compiles each distinct kernel signature at
//!    most once, no matter how the threads race.

use std::sync::Arc;
use up_engine::{ColumnType, Database, Profile, Schema, Value};
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
                server.disconnect(session);
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
    // Queue depth (drained), per-query latency, cache counters, stream
    // utilization: the acceptance criteria's four dimensions.
    assert_eq!(m.queue_depth, 0);
    assert!(m.queue_max_depth >= 1);
    assert_eq!(m.latency.count, 6);
    assert!(m.latency.p50_s > 0.0 && m.latency.max_s >= m.latency.p50_s);
    assert_eq!(m.cache.misses, 1);
    assert_eq!(m.cache.hits, 5);
    assert!(m.cache.hit_rate() > 0.8);
    assert_eq!(m.streams.launches, 6);
    assert!(m.streams.utilization > 0.0 && m.streams.utilization <= 1.0);
    assert!(m.gpu_kernel_s > 0.0);
    let text = m.report();
    for needle in ["queue:", "latency:", "jit cache:", "gpu streams:", "utilization"] {
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
