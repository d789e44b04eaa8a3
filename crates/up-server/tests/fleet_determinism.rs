//! Fleet-mode determinism: sharding across a simulated device fleet must
//! never change what a query computes or what the canonical cost model
//! reports.
//!
//! Eight sessions fire a shuffled fig08/fig09-style query mix at a 2-,
//! 4- and 8-device arena server (fleet sharding + round-robin launch
//! routing + per-device stream pools, pipeline depth 2/4/8, NVCC latency
//! emulation on), and every canonical observable must match one
//! single-device, pipeline-off serial replay bit for bit:
//!
//! - result rows,
//! - per-query modeled scan/PCIe/compile/kernel/CPU seconds (`queue_s`
//!   is excluded by design — it prices wall-clock arrival contention),
//! - per-query kernel-launch counts,
//! - aggregate JIT-cache hit/miss counts.
//!
//! The fleet is strictly side-band: it only *adds* a [`FleetReport`]
//! (partitioning, priced exchange, modeled makespan/speedup) to each
//! result, which this test checks for shape — devices, full row
//! coverage, and a makespan no worse than the single-device leg.
//!
//! [`FleetReport`]: up_engine::FleetReport

use up_engine::{ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_gpusim::{DeviceConfig, PipelineMode};
use up_jit::cache::JitEngine;
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

const ROWS: usize = 200;

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

/// Expression evaluation plus the aggregation shapes the fleet actually
/// shards (SUM/AVG/MIN/MAX over decimals, COUNT), so the sharded
/// partial-merge path is exercised, not just the fall-through — over a
/// bare stored column, a kernel's output, a filtered (gathered) column,
/// and GROUP BY members scattered across the table.
const QUERIES: [&str; 8] = [
    "SELECT x * y FROM ledger",
    "SELECT SUM(x), AVG(y) FROM ledger",
    "SELECT (x * y) + z FROM ledger",
    "SELECT SUM(x * x), SUM(y + y) FROM ledger",
    "SELECT MIN(x), MAX(z) FROM ledger",
    "SELECT COUNT(*) FROM ledger",
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
    db.insert_many("ledger", rows(ROWS)).unwrap();
    db
}

fn assert_identical(label: &str, serial: &QueryResult, fleet: &QueryResult) {
    assert_eq!(serial.rows.len(), fleet.rows.len(), "{label}: row count");
    for (a, b) in serial.rows.iter().zip(&fleet.rows) {
        for (u, v) in a.iter().zip(b) {
            assert_eq!(u.render(), v.render(), "{label}: values");
        }
    }
    assert_eq!(serial.kernels, fleet.kernels, "{label}: kernel launches");
    for (name, s, f) in [
        ("scan_s", serial.modeled.scan_s, fleet.modeled.scan_s),
        ("pcie_s", serial.modeled.pcie_s, fleet.modeled.pcie_s),
        ("compile_s", serial.modeled.compile_s, fleet.modeled.compile_s),
        ("kernel_s", serial.modeled.kernel_s, fleet.modeled.kernel_s),
        ("cpu_s", serial.modeled.cpu_s, fleet.modeled.cpu_s),
    ] {
        assert_eq!(
            s.to_bits(),
            f.to_bits(),
            "{label}: {name} diverged (serial {s} vs fleet {f})"
        );
    }
}

fn connect_all(server: &UpServer, n_sessions: u64) -> Vec<up_server::SessionId> {
    // One comparator-backend session in the mix: no kernels, no fleet
    // perturbation of the shared accounting.
    (0..n_sessions)
        .map(|i| {
            server.connect(if i == n_sessions - 1 {
                Profile::PostgresLike
            } else {
                Profile::UltraPrecise
            })
        })
        .collect()
}

#[test]
fn fleet_stress_is_bit_identical_to_single_device_replay() {
    let n_sessions = 8u64;
    // Submission order (one thread) = admission order = replay order.
    let plan: Vec<(usize, &'static str)> = (0..n_sessions as usize)
        .flat_map(|i| shuffled(i as u64 + 1).into_iter().map(move |sql| (i, sql)))
        .collect();

    // --- Single-device serial replay: same mix, admission order. ---
    let reference = UpServer::with_database(
        ServerConfig {
            workers: 1,
            queue_capacity: 256,
            devices: 1,
            arena: false,
            pipeline: PipelineMode::Off,
            ..ServerConfig::default()
        },
        fresh_db(),
    );
    let ref_sessions = connect_all(&reference, n_sessions);
    let serial_results: Vec<QueryResult> = plan
        .iter()
        .map(|&(i, sql)| reference.query(ref_sessions[i], sql).expect("query ok"))
        .collect();
    let serial_cache = reference.metrics().cache;

    for (devices, depth) in [(2usize, 2u32), (4, 4), (8, 8)] {
        // --- Concurrent fleet run: arena pools, submit up front. ---
        let server = UpServer::with_database(
            ServerConfig {
                workers: 4,
                queue_capacity: 256,
                devices,
                arena: true,
                compile_lanes: 8,
                pipeline: PipelineMode::On(depth),
                ..ServerConfig::default()
            },
            fresh_db(),
        );
        let sessions = connect_all(&server, n_sessions);
        let tickets: Vec<_> = plan
            .iter()
            .map(|&(i, sql)| server.submit(sessions[i], sql).expect("admitted"))
            .collect();
        let fleet_results: Vec<QueryResult> =
            tickets.into_iter().map(|t| t.wait().expect("query ok")).collect();
        let m = server.metrics();
        let fleet_cache = m.cache;
        assert_eq!(m.failed, 0);
        assert_eq!(m.completed, plan.len() as u64);
        assert_eq!(m.fleet_devices, devices);
        assert_eq!(
            m.fleet_routed.iter().sum::<u64>(),
            plan.len() as u64,
            "every executed query routed to exactly one device: {:?}",
            m.fleet_routed
        );
        assert!(
            m.fleet_routed.iter().all(|&n| n > 0),
            "round-robin spreads load over all devices: {:?}",
            m.fleet_routed
        );

        // --- Bit-exactness of everything canonical. ---
        for (k, (serial, fleet)) in serial_results.iter().zip(&fleet_results).enumerate() {
            let (i, sql) = plan[k];
            let label = format!("{devices} devices, seq {} session {i} {sql:?}", k + 1);
            assert_identical(&label, serial, fleet);
            assert!(serial.fleet.is_none(), "single-device replay carries no fleet report");
            let f = fleet.fleet.as_ref().expect("fleet report rides every fleet-mode result");
            assert_eq!(f.devices, devices, "{label}: fleet size");
            assert_eq!(
                f.partition_rows.iter().sum::<u64>(),
                ROWS as u64,
                "{label}: shards cover the table exactly once"
            );
            assert!(
                f.makespan_s <= f.single_device_s,
                "{label}: sharded makespan must not exceed the single-device leg: {f:?}"
            );
        }
        assert_eq!(
            (fleet_cache.misses, fleet_cache.hits),
            (serial_cache.misses, serial_cache.hits),
            "{devices} devices: cache accounting diverged: fleet {fleet_cache:?} vs serial {serial_cache:?}"
        );
    }
}
