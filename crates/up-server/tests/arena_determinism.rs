//! Cross-query determinism of the pipeline arena.
//!
//! Eight sessions fire a shuffled fig08/fig09-style query mix at one
//! arena-mode server (admission-time compile prefetch, cross-query
//! dedup, DRR dispatch, shared launch pools, NVCC latency emulation on),
//! and every observable the arena is allowed to touch must match a
//! serial one-at-a-time replay bit for bit:
//!
//! - result rows,
//! - per-query modeled scan/PCIe/compile/kernel/CPU seconds (`queue_s`
//!   is excluded by design — it prices wall-clock arrival contention),
//! - aggregate JIT-cache hit/miss/compile counts.
//!
//! The replay runs in admission-sequence order, because that is the
//! arena's ownership order: the first query to register a signature owns
//! its compile (and its modeled miss), exactly like the first query to
//! execute serially.
//!
//! With emulation on, the first compile of each signature holds its
//! arena entry open for ≥ 0.25 s while all ~72 submissions land in
//! microseconds, so at least one cross-query dedup is guaranteed — the
//! acceptance criterion the test pins down explicitly.

use up_engine::{ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_gpusim::{DeviceConfig, PipelineMode};
use up_jit::cache::JitEngine;
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

fn ty(p: u32, s: u32) -> DecimalType {
    DecimalType::new_unchecked(p, s)
}

fn schema() -> Schema {
    Schema::new(vec![
        ("x", ColumnType::Decimal(ty(30, 6))),
        ("y", ColumnType::Decimal(ty(30, 6))),
        ("z", ColumnType::Decimal(ty(20, 4))),
        ("g", ColumnType::Int64),
    ])
}

fn rows(n: usize) -> Vec<Vec<Value>> {
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

/// The per-session query mix: expression evaluation and aggregation over
/// decimals (the paper's fig. 8/9 workload shape), including every shape
/// of the columnar fold — kernel output, bare stored column, filtered
/// (gathered) column, and GROUP BY over scattered members. Several
/// sessions share signatures, so cross-query dedups must occur.
const QUERIES: [&str; 9] = [
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
    let mut order: Vec<&'static str> = QUERIES.to_vec();
    let mut state = session.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn fresh_db() -> Database {
    let mut jit = JitEngine::with_defaults();
    jit.set_nvcc_latency_emulation(true);
    let mut db = Database::with_config(Profile::UltraPrecise, DeviceConfig::a6000(), jit);
    db.create_table("ledger", schema());
    db.insert_many("ledger", rows(200)).unwrap();
    db
}

fn assert_identical(label: &str, serial: &QueryResult, arena: &QueryResult) {
    assert_eq!(serial.rows.len(), arena.rows.len(), "{label}: row count");
    for (a, b) in serial.rows.iter().zip(&arena.rows) {
        for (u, v) in a.iter().zip(b) {
            assert_eq!(u.render(), v.render(), "{label}: values");
        }
    }
    for (name, s, a) in [
        ("scan_s", serial.modeled.scan_s, arena.modeled.scan_s),
        ("pcie_s", serial.modeled.pcie_s, arena.modeled.pcie_s),
        ("compile_s", serial.modeled.compile_s, arena.modeled.compile_s),
        ("kernel_s", serial.modeled.kernel_s, arena.modeled.kernel_s),
        ("cpu_s", serial.modeled.cpu_s, arena.modeled.cpu_s),
    ] {
        assert_eq!(
            s.to_bits(),
            a.to_bits(),
            "{label}: {name} diverged (serial {s} vs arena {a})"
        );
    }
}

#[test]
fn arena_stress_is_bit_identical_to_serial_replay() {
    let n_sessions = 8u64;

    // --- Concurrent arena run: submit everything up front. ---
    let server = UpServer::with_database(
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            arena: true,
            compile_lanes: 8,
            pipeline: PipelineMode::On(4),
            ..ServerConfig::default()
        },
        fresh_db(),
    );
    // One comparator-backend session in the mix: its queries compile no
    // kernels and must not perturb the arena's accounting.
    let sessions: Vec<_> = (0..n_sessions)
        .map(|i| {
            server.connect(if i == n_sessions - 1 {
                Profile::PostgresLike
            } else {
                Profile::UltraPrecise
            })
        })
        .collect();
    // Skewed weights: fairness must never change results, only order.
    server.set_session_weight(sessions[0], 4.0);

    // Submission order (one thread) = arena admission-sequence order.
    let mut plan: Vec<(usize, &'static str)> = Vec::new();
    let mut tickets = Vec::new();
    for (i, &session) in sessions.iter().enumerate() {
        for sql in shuffled(i as u64 + 1) {
            let t = server.submit(session, sql).expect("admitted");
            assert_eq!(t.seq(), plan.len() as u64 + 1, "seq tracks admission order");
            plan.push((i, sql));
            tickets.push(t);
        }
    }
    let arena_results: Vec<QueryResult> =
        tickets.into_iter().map(|t| t.wait().expect("query ok")).collect();
    let m = server.metrics();
    let arena_cache = m.cache;
    assert!(m.arena_enabled);
    let stats = server.arena_stats().expect("arena on");
    assert!(
        stats.compile.cross_query_dedups >= 1,
        "expected at least one cross-query compile dedup, stats: {stats:?}"
    );
    assert_eq!(m.failed, 0);
    assert_eq!(m.completed, plan.len() as u64);

    // --- Serial replay: same mix, admission order, one at a time. ---
    let reference = UpServer::with_database(
        ServerConfig {
            workers: 1,
            queue_capacity: 256,
            arena: false,
            pipeline: PipelineMode::Off,
            ..ServerConfig::default()
        },
        fresh_db(),
    );
    let ref_sessions: Vec<_> = (0..n_sessions)
        .map(|i| {
            reference.connect(if i == n_sessions - 1 {
                Profile::PostgresLike
            } else {
                Profile::UltraPrecise
            })
        })
        .collect();
    let serial_results: Vec<QueryResult> = plan
        .iter()
        .map(|&(i, sql)| reference.query(ref_sessions[i], sql).expect("query ok"))
        .collect();
    let serial_cache = reference.metrics().cache;

    // --- Bit-exactness: rows, modeled time, cache accounting. ---
    for (k, (serial, arena)) in serial_results.iter().zip(&arena_results).enumerate() {
        let (i, sql) = plan[k];
        assert_identical(&format!("seq {} session {i} {sql:?}", k + 1), serial, arena);
    }
    assert_eq!(
        (arena_cache.misses, arena_cache.hits),
        (serial_cache.misses, serial_cache.hits),
        "aggregate cache accounting diverged: arena {arena_cache:?} vs serial {serial_cache:?}"
    );
    assert_eq!(arena_cache.evictions, 0, "capacity must cover the workload");
}
