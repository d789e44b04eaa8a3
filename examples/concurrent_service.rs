//! The query service under concurrent load: several client threads share
//! one server (one database, one JIT cache), then the metrics report is
//! printed.
//!
//! ```sh
//! cargo run --release --example concurrent_service
//! ```

use std::sync::Arc;
use std::time::Instant;
use ultraprecise::prelude::*;

fn main() {
    // A server at its defaults: a 4-thread worker pool, admission dequeued
    // by weighted deficit round-robin.
    // Each kernel launch runs on the worker thread that issued it, so
    // query concurrency is the worker pool's.
    let server = Arc::new(UpServer::new(ServerConfig::default()));
    println!(
        "query workers: {} on a {}-core host (one simulator thread per launch)",
        ServerConfig::default().workers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "exec backend: {} (decoded programs cached per kernel)",
        up_gpusim::ExecBackend::default(),
    );

    // Load a table of wide decimals (write path: serialized, drains
    // readers).
    let ty = DecimalType::new(30, 6).unwrap();
    server.create_table(
        "ledger",
        Schema::new(vec![
            ("amount", ColumnType::Decimal(ty)),
            ("rate", ColumnType::Decimal(ty)),
        ]),
    );
    let rows: Vec<Vec<Value>> = (0..2000i64)
        .map(|i| {
            let a = UpDecimal::from_scaled_i64(i * 982_451_653 % 900_000_000, ty).unwrap();
            let r = UpDecimal::from_scaled_i64(1_000_000 + i % 75_000, ty).unwrap();
            vec![Value::Decimal(a), Value::Decimal(r)]
        })
        .collect();
    server.insert_many("ledger", rows).unwrap();

    // Eight clients, each its own session, hammering a small query mix.
    // Every distinct expression compiles exactly once server-wide; the
    // rest are cache hits.
    let queries = [
        "SELECT SUM(amount * rate) FROM ledger",
        "SELECT amount, amount + rate FROM ledger WHERE amount > 0 ORDER BY amount DESC LIMIT 3",
        "SELECT AVG(amount * rate + amount) FROM ledger",
    ];
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let session = server.connect(Profile::UltraPrecise);
                for i in 0..6 {
                    let sql = queries[(c + i) % queries.len()];
                    let t0 = Instant::now();
                    match server.query(session, sql) {
                        Ok(r) => {
                            if c == 0 && i < queries.len() {
                                println!(
                                    "client {c}: {} -> {} row(s), host {:.3} ms, \
                                     modeled {:.3} ms (of which kernel {:.3} ms)",
                                    sql,
                                    r.rows.len(),
                                    t0.elapsed().as_secs_f64() * 1e3,
                                    r.modeled.total() * 1e3,
                                    r.modeled.kernel_s * 1e3,
                                );
                            }
                        }
                        Err(e) => println!("client {c}: {sql} -> {e}"),
                    }
                }
                server.close_session(session);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // The service dashboard: queue, queue wait, latency, shared-cache
    // efficiency, and modeled GPU kernel seconds.
    println!();
    print!("{}", server.metrics().report());

    // Decoded-program reuse: every distinct kernel is flattened once at
    // JIT-compile time; launches (and JIT cache hits) share the Arc.
    let (builds, hits) = up_gpusim::decode_counters();
    println!("decoded programs: {builds} built, {hits} cache hits");
}
