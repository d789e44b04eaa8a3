//! `bench_server` — cold-cache server throughput: pipeline off vs
//! per-query pipelining vs the cross-query pipeline arena.
//!
//! N client sessions each submit a small batch of two-slot decimal
//! projections against one server, every session with its own kernel
//! signatures (a cold-cache compile storm — the worst case the arena is
//! built for). NVCC latency emulation is on, so each first-occurrence
//! compile costs its modeled 300+ ms on the host:
//!
//! - `off`: no pipelining — each worker compiles its query's kernels
//!   back to back.
//! - `per-query`: intra-query launch DAG (PR 3) — a query overlaps its
//!   *own* compiles, but queued queries start compiling only when a
//!   worker picks them up, and concurrency is capped by the pool size.
//! - `arena`: cross-query arena — every admitted query's compiles start
//!   at submit on the shared lane pool, so the whole storm overlaps
//!   regardless of worker count.
//!
//! Every mode's results are checked bit-identical to the `off`
//! reference (rows and modeled compile/kernel/PCIe/CPU seconds), and at
//! 8 sessions the arena must deliver ≥ 2x the cold-cache QPS of
//! per-query pipelining — the PR's acceptance bar.
//!
//! Usage: `bench_server [--quick] [--tuples N] [--out PATH]`.
//! Results land in `results/BENCH_server.json`.

use std::sync::Arc;
use std::time::Instant;
use up_bench::HarnessOpts;
use up_engine::{ColumnType, Database, Profile, QueryResult, Schema, Value};
use up_gpusim::{DeviceConfig, PipelineMode};
use up_jit::cache::JitEngine;
use up_num::DecimalType;
use up_server::{ServerConfig, UpServer};
use up_workloads::datagen;

const COLS: [&str; 4] = ["a", "b", "c", "d"];

/// Kernel signatures are structural over operand *types*, not column
/// names, so every column gets its own decimal type — that is what makes
/// each session's expressions compile to distinct kernels (a cold-cache
/// storm instead of one shared signature).
const COL_TYPES: [(u32, u32); 4] = [(40, 4), (38, 3), (36, 2), (34, 5)];

/// Two 2-slot queries per session, 4 kernel signatures per session, all
/// structurally distinct across sessions (disjoint column pairs and, for
/// the second group of eight, deeper expression shapes).
fn session_queries(i: usize) -> [String; 2] {
    let pairs: [(usize, usize); 8] =
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 0), (1, 1)];
    let (u, v) = pairs[i % 8];
    let (u, v) = (COLS[u], COLS[v]);
    if (i / 8).is_multiple_of(2) {
        [
            format!("SELECT {u} * {v}, {u} + {v} FROM w"),
            format!("SELECT {u} * {u} + {v}, {u} - {v} * {v} FROM w"),
        ]
    } else {
        [
            format!("SELECT {u} * {v} * {v}, {u} + {v} + {u} FROM w"),
            format!("SELECT ({u} + {v}) * {v}, {u} * {u} - {v} FROM w"),
        ]
    }
}

fn fresh_server(n: usize, workers: usize, mode: &str) -> UpServer {
    let tys: Vec<DecimalType> =
        COL_TYPES.iter().map(|&(p, s)| DecimalType::new_unchecked(p, s)).collect();
    let mut jit = JitEngine::with_defaults();
    jit.set_nvcc_latency_emulation(true);
    let mut db = Database::with_config(Profile::UltraPrecise, DeviceConfig::a6000(), jit);
    db.create_table(
        "w",
        Schema::new(
            COLS.iter()
                .zip(&tys)
                .map(|(&c, &t)| (c, ColumnType::Decimal(t)))
                .collect::<Vec<_>>(),
        ),
    );
    let cols: Vec<Vec<_>> = tys
        .iter()
        .enumerate()
        .map(|(k, &t)| datagen::random_decimal_column(n, t, 2, true, 40 + k as u64))
        .collect();
    db.insert_many(
        "w",
        (0..n).map(|r| cols.iter().map(|c| Value::Decimal(c[r].clone())).collect::<Vec<_>>()),
    )
    .expect("rows fit declared type");
    UpServer::with_database(
        ServerConfig {
            workers,
            queue_capacity: 256,
            arena: mode == "arena",
            compile_lanes: 32,
            pipeline: if mode == "off" { PipelineMode::Off } else { PipelineMode::On(4) },
            ..ServerConfig::default()
        },
        db,
    )
}

struct ModeRun {
    /// Results keyed `[session][query]`, for cross-mode identity checks.
    results: Vec<Vec<QueryResult>>,
    wall_s: f64,
    qps: f64,
    p50_s: f64,
    p95_s: f64,
    compiles: u64,
}

/// One cold-cache storm: each session thread submits both its queries up
/// front (an async client), then collects them in order.
fn run_mode(mode: &str, sessions: usize, n: usize, reps: usize) -> ModeRun {
    let mut best: Option<ModeRun> = None;
    for _ in 0..reps {
        let server = Arc::new(fresh_server(n, 4, mode));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let s = server.connect(Profile::UltraPrecise);
                    let queries = session_queries(i);
                    let submitted = Instant::now();
                    let tickets: Vec<_> = queries
                        .iter()
                        .map(|q| server.submit(s, q).expect("admitted"))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| {
                            let r = t.wait().expect("query ok");
                            (r, submitted.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut results = Vec::new();
        let mut latencies = Vec::new();
        for h in handles {
            let per_session = h.join().expect("client thread");
            let (rs, ls): (Vec<_>, Vec<_>) = per_session.into_iter().unzip();
            results.push(rs);
            latencies.extend(ls);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let total = latencies.len();
        latencies.sort_by(f64::total_cmp);
        let q = |p: f64| latencies[((p * total as f64).ceil() as usize).clamp(1, total) - 1];
        let compiles = server.metrics().cache.misses;
        let run = ModeRun {
            results,
            wall_s,
            qps: total as f64 / wall_s,
            p50_s: q(0.50),
            p95_s: q(0.95),
            compiles,
        };
        if best.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
            best = Some(run);
        }
    }
    best.expect("at least one rep")
}

fn assert_identical(label: &str, reference: &ModeRun, run: &ModeRun) {
    for (i, (rs, os)) in reference.results.iter().zip(&run.results).enumerate() {
        for (j, (r, o)) in rs.iter().zip(os).enumerate() {
            assert_eq!(r.rows.len(), o.rows.len(), "{label} s{i}q{j}: row count");
            for (x, y) in r.rows.iter().zip(&o.rows) {
                for (u, v) in x.iter().zip(y) {
                    assert_eq!(u.render(), v.render(), "{label} s{i}q{j}: values");
                }
            }
            for (name, a, b) in [
                ("compile_s", r.modeled.compile_s, o.modeled.compile_s),
                ("kernel_s", r.modeled.kernel_s, o.modeled.kernel_s),
                ("pcie_s", r.modeled.pcie_s, o.modeled.pcie_s),
                ("cpu_s", r.modeled.cpu_s, o.modeled.cpu_s),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{label} s{i}q{j}: modeled {name}");
            }
        }
    }
}

fn main() {
    let opts = HarnessOpts::from_args(1_024);
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_server.json".to_string());
    let n = opts.sim_tuples;
    let reps = if opts.quick { 1 } else { 2 };
    let session_counts: &[usize] = if opts.quick { &[1, 8] } else { &[1, 4, 8, 16] };
    let host = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "bench_server: {n} tuples, 4 workers, 2 queries x 2 slots per session, \
         {reps} rep(s), host threads {host}, NVCC latency emulation on\n"
    );
    println!(
        "{:<10} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "mode", "sessions", "wall", "qps", "p50", "p95", "compiles"
    );

    let mut rows_json = Vec::new();
    for &sessions in session_counts {
        let off = run_mode("off", sessions, n, reps);
        let mut qps_by_mode = std::collections::HashMap::new();
        for mode in ["off", "per-query", "arena"] {
            let run_owned;
            let run = if mode == "off" {
                &off
            } else {
                run_owned = run_mode(mode, sessions, n, reps);
                &run_owned
            };
            assert_identical(&format!("{mode}@{sessions}"), &off, run);
            assert_eq!(
                run.compiles,
                4 * sessions as u64,
                "{mode}@{sessions}: every session's 4 signatures compile exactly once"
            );
            println!(
                "{:<10} {:>9} {:>8.3} s {:>10.2} {:>7.3} s {:>7.3} s {:>9}",
                mode, sessions, run.wall_s, run.qps, run.p50_s, run.p95_s, run.compiles
            );
            qps_by_mode.insert(mode, run.qps);
            rows_json.push(format!(
                "{{\"mode\":\"{mode}\",\"sessions\":{sessions},\"wall_s\":{:.6},\
                 \"qps\":{:.3},\"p50_s\":{:.6},\"p95_s\":{:.6},\"compiles\":{},\
                 \"identical_to_off\":true}}",
                run.wall_s, run.qps, run.p50_s, run.p95_s, run.compiles
            ));
        }
        if sessions == 8 {
            let gain = qps_by_mode["arena"] / qps_by_mode["per-query"];
            println!("  -> arena vs per-query at 8 sessions: {gain:.2}x cold-cache QPS");
            assert!(
                gain >= 2.0,
                "arena must deliver >= 2x cold-cache QPS over per-query pipelining \
                 at 8 sessions, got {gain:.2}x"
            );
        }
        println!();
    }

    let json = format!(
        "{{\"bench\":\"server\",\"host_threads\":{host},\"quick\":{},\"tuples\":{n},\
         \"workers\":4,\"compile_lanes\":32,\"queries_per_session\":2,\
         \"slots_per_query\":2,\"reps\":{reps},\"nvcc_latency_emulation\":true,\
         \"runs\":[{}]}}\n",
        opts.quick,
        rows_json.join(",")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, &json).expect("write BENCH_server.json");
    println!("wrote {out_path}");
}
