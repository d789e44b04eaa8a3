//! The query service over real TCP: a `WireServer` in front of
//! `UpServer`, two tenants with different quotas and admission weights,
//! and `up_net::Client` connections exercising queries, quota
//! rejections, and the metrics report — all over loopback.
//!
//! ```sh
//! cargo run --release --example wire_service
//! ```
//!
//! The listen address, connection cap, and idle timeout come from
//! `UP_NET_ADDR`, `UP_NET_MAX_CONNS`, and `UP_NET_IDLE_S` when set.

use std::sync::Arc;
use ultraprecise::prelude::*;
use up_net::ErrorCode;

fn main() {
    // The backing service: the usual in-process UpServer.
    let up = Arc::new(UpServer::new(ServerConfig::default()));
    let t = DecimalType::new(12, 2).unwrap();
    up.create_table("ledger", Schema::new(vec![("amount", ColumnType::Decimal(t))]));
    up.insert_many(
        "ledger",
        ["0.10", "0.20", "0.30", "1999.99", "-250.75"]
            .map(|s| vec![Value::Decimal(UpDecimal::parse(s, t).unwrap())]),
    )
    .unwrap();

    // Two tenants: "analytics" gets twice the admission weight;
    // "batch" is rate-limited to a 2-query burst.
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register(
        "analytics",
        "token-a",
        TenantQuota { weight: 2.0, ..TenantQuota::default() },
    );
    tenants.register(
        "batch",
        "token-b",
        TenantQuota { qps: 0.5, burst: 2.0, weight: 1.0, ..TenantQuota::default() },
    );

    // The wire front end (UP_NET_* env knobs override the defaults).
    let mut server = WireServer::start(Arc::clone(&up), tenants, NetConfig::default())
        .expect("bind wire server");
    println!("wire server listening on {}\n", server.addr());

    // A tenant connection is a plain blocking client.
    let mut analytics =
        Client::connect(server.addr(), "analytics", "token-a").expect("connect analytics");
    let rows = analytics.query("SELECT SUM(amount) FROM ledger").unwrap();
    println!("analytics: SUM(amount) = {}", rows.rows[0][0]);
    let rows = analytics
        .query("SELECT amount FROM ledger WHERE amount > 0 ORDER BY amount DESC LIMIT 3")
        .unwrap();
    println!("analytics: top positives = {:?}", rows.rows);

    // The rate-limited tenant burns its burst, then gets throttled with
    // the stable RateLimited code.
    let mut batch = Client::connect(server.addr(), "batch", "token-b").expect("connect batch");
    for i in 1..=3 {
        match batch.query("SELECT COUNT(*) FROM ledger") {
            Ok(r) => println!("batch: query {i} ok -> {}", r.rows[0][0]),
            Err(e) => {
                assert_eq!(e.remote_code(), Some(ErrorCode::RateLimited));
                println!("batch: query {i} throttled ({e})");
            }
        }
    }

    // Bad credentials bounce with Unauthorized, not a hang.
    let err = Client::connect(server.addr(), "batch", "wrong-token").unwrap_err();
    println!("bad token -> {err}");

    // The metrics report covers the service, every tenant, and the wire.
    println!("\n{}", analytics.metrics().unwrap());

    analytics.goodbye().unwrap();
    batch.goodbye().unwrap();
    server.shutdown();
}
