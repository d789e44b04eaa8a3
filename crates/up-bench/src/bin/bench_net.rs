//! `bench_net` — wire-protocol load harness: a connection-scaling
//! matrix of simulated clients over loopback TCP against one
//! `WireServer` per cell.
//!
//! Each cell is a connection count (256/1k/4k by default) with an
//! idle+active mix: 1/4 of the connections run queries, the rest hold
//! authenticated sockets open — the shape that separates per-connection
//! fixed cost from per-query work. Per cell the harness reports
//! throughput, per-tenant latency percentiles, OS threads (total
//! process peak plus the server's own `up-net-*`/`up-worker-*` threads
//! counted by name from `/proc/self/task`), and peak RSS.
//!
//! Four tenants share each server with skewed DRR admission weights
//! and skewed active-client populations (a hot/cold mix):
//!
//! | tenant   | weight | share of active clients |
//! |----------|--------|-------------------------|
//! | hot-a    | 4.0    | 40%                     |
//! | hot-b    | 2.0    | 30%                     |
//! | cold-a   | 1.0    | 20%                     |
//! | cold-b   | 1.0    | 10%                     |
//!
//! Results land in `results/BENCH_net.json` (schema
//! `net-conn-scaling-v2`, see `results/README.md`). The harness asserts
//! that nobody starved (no refusals, no protocol errors, every query
//! resolved) and that no cell runs per-connection threads (`up-net-*`
//! count ≤ event_threads + acceptor).
//!
//! Usage: `bench_net [--quick] [--clients N] [--tuples N] [--out PATH]`.
//! * default: full matrix (256, 1024 and 4096 connections)
//! * `--quick`: one CI-sized cell (64 connections)
//! * `--clients N`: one cell of that size

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use up_bench::HarnessOpts;
use up_engine::{ColumnType, Schema, Value};
use up_net::{Client, NetConfig, TenantQuota, TenantRegistry, WireServer};
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

const TENANTS: [(&str, f64, usize); 4] =
    [("hot-a", 4.0, 40), ("hot-b", 2.0, 30), ("cold-a", 1.0, 20), ("cold-b", 1.0, 10)];

const WORKERS: usize = 4;

/// Small per-client stack: active clients are threads, up to 1024 of
/// them in the largest cell.
const CLIENT_STACK: usize = 256 * 1024;

fn seeded_server(rows: usize) -> Arc<UpServer> {
    let t = DecimalType::new_unchecked(12, 2);
    let up = Arc::new(UpServer::new(ServerConfig {
        workers: WORKERS,
        queue_capacity: 4096,
        default_timeout: Duration::from_secs(300),
        ..ServerConfig::default()
    }));
    up.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(t))]));
    up.insert_many(
        "t",
        (0..rows).map(|i| {
            let s = format!("{}.{:02}", (i * 37) % 900, i % 100);
            vec![Value::Decimal(UpDecimal::parse(&s, t).unwrap())]
        }),
    )
    .expect("seed rows fit");
    up
}

/// The query mix: cheap scans and an aggregate, varied per client so
/// traffic is not one kernel signature.
fn query_for(client_ix: usize, rep: usize) -> &'static str {
    match (client_ix + rep) % 3 {
        0 => "SELECT SUM(x) FROM t",
        1 => "SELECT x + x FROM t WHERE x > 450 LIMIT 8",
        _ => "SELECT SUM(x * x) FROM t",
    }
}

fn connect_with_retry(addr: std::net::SocketAddr, tenant: &'static str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Client::connect(addr, tenant, "bench") {
            Ok(c) => return c,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "client for {tenant} could not connect within 60 s: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

// ---- /proc sampling ----------------------------------------------------

/// Reads an integer field (`Threads:`, `VmRSS:`, `VmHWM:`) from
/// `/proc/self/status`; `None` off Linux.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Counts live threads by `comm` prefix: (`up-net-*`, `up-worker-*`).
/// The benchmark's own client threads are named `bench-*`, so these two
/// prefixes isolate the server's side of the process.
fn server_thread_counts() -> (usize, usize) {
    let (mut wire, mut workers) = (0, 0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return (0, 0) };
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let comm = comm.trim();
        if comm.starts_with("up-net-") {
            wire += 1;
        } else if comm.starts_with("up-worker-") {
            workers += 1;
        }
    }
    (wire, workers)
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) so each cell gets
/// its own peak. Best-effort: needs a writable `/proc/self/clear_refs`.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Samples `Threads:` and `VmRSS:` until stopped, keeping the maxima.
struct PeakSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64)>,
}

impl PeakSampler {
    fn start() -> PeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let (mut threads, mut rss) = (0u64, 0u64);
                while !stop2.load(Ordering::Relaxed) {
                    threads = threads.max(proc_status("Threads:").unwrap_or(0));
                    rss = rss.max(proc_status("VmRSS:").unwrap_or(0));
                    std::thread::sleep(Duration::from_millis(10));
                }
                (threads, rss)
            })
            .expect("spawn sampler");
        PeakSampler { stop, handle }
    }

    /// (peak process threads, peak RSS in KiB) over the sampled window.
    fn finish(self) -> (u64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread")
    }
}

// ---- one matrix cell ---------------------------------------------------

struct TenantOutcome {
    name: &'static str,
    weight: f64,
    clients: usize,
    queries: usize,
    latencies_s: Vec<f64>,
}

struct CellResult {
    mode: &'static str,
    conns: usize,
    active: usize,
    queries: usize,
    wall_s: f64,
    qps: f64,
    wire_threads: usize,
    worker_threads: usize,
    peak_threads: u64,
    peak_rss_kb: u64,
    vm_hwm_kb: u64,
    hwm_reset: bool,
    tenants: Vec<TenantOutcome>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

fn run_cell(conns: usize, reps: usize, tuples: usize) -> CellResult {
    let active = (conns / 4).max(1);
    let idle = conns - active;
    let hwm_reset = reset_peak_rss();
    let sampler = PeakSampler::start();

    let up = seeded_server(tuples);
    let tenants = Arc::new(TenantRegistry::new());
    for (name, weight, _) in TENANTS {
        tenants.register(name, "bench", TenantQuota { weight, ..TenantQuota::default() });
    }
    let server = WireServer::start(
        Arc::clone(&up),
        Arc::clone(&tenants),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: conns + 64,
            // Idle connections must survive the whole cell untouched.
            idle_timeout: Duration::from_secs(600),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let mode_name = NetConfig::default().reactor.name();
    println!(
        "cell {mode_name}@{conns}: {active} active x {reps} queries + {idle} idle, \
         {tuples} tuples, {WORKERS} workers"
    );

    // Idle fleet: authenticated sockets held open from this thread — no
    // client-side thread cost, so thread counts isolate the server.
    let idle_clients: Vec<Client> = (0..idle)
        .map(|i| connect_with_retry(addr, TENANTS[i % TENANTS.len()].0))
        .collect();

    // Active fleet, partitioned over tenants by the configured shares.
    let mut assignment: Vec<&'static str> = Vec::with_capacity(active);
    for (name, _, share) in TENANTS {
        assignment.extend(std::iter::repeat_n(name, (active * share) / 100));
    }
    while assignment.len() < active {
        assignment.push(TENANTS[0].0);
    }

    let connected = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = assignment
        .iter()
        .enumerate()
        .map(|(ix, &tenant)| {
            let connected = Arc::clone(&connected);
            let start = Arc::clone(&start);
            std::thread::Builder::new()
                .name(format!("bench-client-{ix}"))
                .stack_size(CLIENT_STACK)
                .spawn(move || {
                    let mut client = connect_with_retry(addr, tenant);
                    connected.fetch_add(1, Ordering::Release);
                    while !start.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let mut latencies = Vec::with_capacity(reps);
                    for rep in 0..reps {
                        let q0 = Instant::now();
                        let rows = client
                            .query(query_for(ix, rep))
                            .unwrap_or_else(|e| panic!("client {ix} ({tenant}): {e}"));
                        assert!(!rows.columns.is_empty(), "client {ix}: empty result shape");
                        latencies.push(q0.elapsed().as_secs_f64());
                    }
                    client.goodbye().unwrap_or_else(|e| panic!("client {ix} goodbye: {e}"));
                    (tenant, latencies)
                })
                .expect("spawn bench client")
        })
        .collect();

    // Steady state: every connection is up, no query in flight yet.
    // This is where "no per-connection threads" is visible.
    while connected.load(Ordering::Acquire) < active {
        std::thread::sleep(Duration::from_millis(5));
    }
    let wire_now = server.stats();
    assert_eq!(wire_now.active, conns, "{mode_name}@{conns}: full fleet connected");
    let (wire_threads, worker_threads) = server_thread_counts();

    let t0 = Instant::now();
    start.store(true, Ordering::Release);

    let mut outcomes: Vec<TenantOutcome> = TENANTS
        .iter()
        .map(|&(name, weight, _)| TenantOutcome {
            name,
            weight,
            clients: 0,
            queries: 0,
            latencies_s: Vec::new(),
        })
        .collect();
    for h in handles {
        let (tenant, lats) = h.join().expect("bench client thread");
        let o = outcomes.iter_mut().find(|o| o.name == tenant).expect("known tenant");
        o.clients += 1;
        o.queries += lats.len();
        o.latencies_s.extend(lats);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    for o in &mut outcomes {
        o.latencies_s.sort_by(f64::total_cmp);
    }

    for c in idle_clients {
        c.goodbye().expect("idle client goodbye");
    }

    // The acceptance bar: nobody starved and nothing leaked.
    let wire = server.stats();
    let m = up.metrics();
    let queries: usize = outcomes.iter().map(|o| o.queries).sum();
    assert_eq!(wire.refused, 0, "connection cap must not starve the configured fleet");
    assert_eq!(wire.protocol_errors, 0, "clean traffic must not trip protocol errors");
    assert_eq!(wire.idle_closed, 0, "idle fleet must outlive the cell");
    assert_eq!(wire.slow_closed, 0, "active fleet reads its replies");
    assert_eq!(queries, active * reps, "every query must resolve with rows");
    assert_eq!(m.failed + m.rejected + m.timed_out + m.canceled, 0, "no server-side failures");
    for (name, ..) in TENANTS {
        let s = tenants.stats(name).expect("tenant registered");
        assert_eq!(s.inflight, 0, "{name}: in-flight queries drained");
        assert_eq!(s.errors, 0, "{name}: no errors");
    }
    // The reactor's contract: event threads + acceptor, regardless of
    // connection count. (Counted by thread name; 0 where /proc is absent.)
    let budget = NetConfig::default().event_threads + 1;
    assert!(
        wire_threads <= budget,
        "{mode_name}@{conns}: {wire_threads} up-net threads exceed event_threads+acceptor={budget}"
    );

    let mut server = server;
    server.shutdown();
    let (peak_threads, peak_rss_kb) = sampler.finish();
    let vm_hwm_kb = proc_status("VmHWM:").unwrap_or(0);

    CellResult {
        mode: mode_name,
        conns,
        active,
        queries,
        wall_s,
        qps: queries as f64 / wall_s,
        wire_threads,
        worker_threads,
        peak_threads,
        peak_rss_kb,
        vm_hwm_kb,
        hwm_reset,
        tenants: outcomes,
    }
}

// ---- driver ------------------------------------------------------------

fn main() {
    let opts = HarnessOpts::from_args(512);
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned());
    let out_path = flag("--out").unwrap_or_else(|| "results/BENCH_net.json".to_string());
    let clients_override: Option<usize> = flag("--clients").and_then(|v| v.parse().ok());
    let reps = if opts.quick { 2 } else { 3 };

    let cells: Vec<usize> = match clients_override {
        Some(n) => vec![n],
        None if opts.quick => vec![64],
        None => vec![256, 1024, 4096],
    };
    println!(
        "bench_net: {} cells, {} tuples, {WORKERS} workers, DRR weights {:?}\n",
        cells.len(),
        opts.sim_tuples,
        TENANTS.map(|(n, w, _)| format!("{n}={w}")),
    );

    let results: Vec<CellResult> =
        cells.iter().map(|&conns| run_cell(conns, reps, opts.sim_tuples)).collect();

    println!(
        "\n{:<14} {:>7} {:>8} {:>10} {:>9} {:>9} {:>9} {:>12}",
        "cell", "active", "queries", "qps", "net-thr", "wrk-thr", "peak-thr", "peak-rss"
    );
    for r in &results {
        println!(
            "{:<14} {:>7} {:>8} {:>10.2} {:>9} {:>9} {:>9} {:>9} KiB",
            format!("{}@{}", r.mode, r.conns),
            r.active,
            r.queries,
            r.qps,
            r.wire_threads,
            r.worker_threads,
            r.peak_threads,
            r.peak_rss_kb
        );
    }

    let cell_json: Vec<String> = results
        .iter()
        .map(|r| {
            let tenants: Vec<String> = r
                .tenants
                .iter()
                .map(|o| {
                    format!(
                        "{{\"tenant\":\"{}\",\"weight\":{},\"clients\":{},\"queries\":{},\
                         \"qps\":{:.3},\"p50_s\":{:.6},\"p95_s\":{:.6},\"p99_s\":{:.6}}}",
                        o.name,
                        o.weight,
                        o.clients,
                        o.queries,
                        o.queries as f64 / r.wall_s,
                        percentile(&o.latencies_s, 0.50),
                        percentile(&o.latencies_s, 0.95),
                        percentile(&o.latencies_s, 0.99)
                    )
                })
                .collect();
            format!(
                "{{\"mode\":\"{}\",\"conns\":{},\"active\":{},\"idle\":{},\"queries\":{},\
                 \"wall_s\":{:.6},\"qps\":{:.3},\"wire_threads\":{},\"worker_threads\":{},\
                 \"peak_process_threads\":{},\"peak_rss_kb\":{},\"vm_hwm_kb\":{},\
                 \"hwm_per_cell\":{},\"tenants\":[{}]}}",
                r.mode,
                r.conns,
                r.active,
                r.conns - r.active,
                r.queries,
                r.wall_s,
                r.qps,
                r.wire_threads,
                r.worker_threads,
                r.peak_threads,
                r.peak_rss_kb,
                r.vm_hwm_kb,
                r.hwm_reset,
                tenants.join(",")
            )
        })
        .collect();

    let json = format!(
        "{{\"bench\":\"net\",\"schema\":\"net-conn-scaling-v2\",\"quick\":{},\
         \"tuples\":{},\"workers\":{WORKERS},\"queries_per_client\":{reps},\
         \"cells\":[{}]}}\n",
        opts.quick,
        opts.sim_tuples,
        cell_json.join(",")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, &json).expect("write BENCH_net.json");
    println!("wrote {out_path}");
}
