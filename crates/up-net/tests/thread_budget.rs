//! The reactor's thread contract: `event_threads` event loops plus one
//! acceptor, however many connections are open and whether or not they
//! are querying.
//!
//! Alone in this file on purpose: threads are counted by name from
//! `/proc/self/task`, and any other test in the process would add its own
//! server's threads to the count.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use up_engine::{ColumnType, Schema, Value};
use up_net::{Client, NetConfig, TenantQuota, TenantRegistry, WireServer};
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

fn wire_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm"));
    tasks.flatten().filter_map(|t| comm(t).ok()).filter(|c| c.starts_with("up-net-")).count()
}

#[test]
fn wire_threads_do_not_grow_with_connections() {
    let up = Arc::new(UpServer::new(ServerConfig::default()));
    let t = DecimalType::new_unchecked(10, 2);
    up.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(t))]));
    up.insert_many("t", [vec![Value::Decimal(UpDecimal::parse("1.25", t).unwrap())]]).unwrap();
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register("acme", "token", TenantQuota::default());
    let config =
        NetConfig { addr: "127.0.0.1:0".into(), event_threads: 2, ..NetConfig::default() };
    let budget = config.event_threads + 1;
    let mut server = WireServer::start(up, tenants, config).unwrap();
    let addr = server.addr();

    // 32 handshakes, dealt round-robin: every loop and the acceptor has
    // run (and so named itself) by the time the last one returns.
    let idle: Vec<Client> =
        (0..32).map(|_| Client::connect(addr, "acme", "token").unwrap()).collect();
    assert_eq!(wire_threads(), budget, "event loops + acceptor under 32 idle connections");

    // Four connections that keep queries in flight until told to stop;
    // each reports its first reply, so the count below is taken while
    // all four are mid-stream.
    let stop = Arc::new(AtomicBool::new(false));
    let (first_reply, first_replies) = mpsc::channel();
    let querying: Vec<_> = (0..4)
        .map(|_| {
            let (stop, mut first_reply) = (Arc::clone(&stop), Some(first_reply.clone()));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "acme", "token").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(c.query("SELECT SUM(x) FROM t").unwrap().rows.len(), 1);
                    if let Some(tx) = first_reply.take() {
                        tx.send(()).unwrap();
                    }
                }
                c.goodbye().unwrap();
            })
        })
        .collect();
    for _ in 0..4 {
        first_replies.recv().unwrap();
    }
    assert_eq!(server.stats().active, 36);
    assert_eq!(wire_threads(), budget, "36 connections, 4 of them querying");

    stop.store(true, Ordering::Relaxed);
    for h in querying {
        h.join().unwrap();
    }
    for c in idle {
        c.goodbye().unwrap();
    }
    server.shutdown();
}
