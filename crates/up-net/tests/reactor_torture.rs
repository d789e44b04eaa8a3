//! Adversarial wire-layer tests:
//!
//! * **Slow loris** — dozens of connections dribbling one byte of a
//!   frame at a time must not starve the event loop (a legit client on
//!   the same single event thread keeps completing queries) and must
//!   still be reaped by the idle timeout, because `last_activity` only
//!   advances on *complete* frames.
//! * **Slow consumer** — a peer that pipelines queries but never reads
//!   replies overflows its bounded outbound queue and is dropped with
//!   stable code 27 ([`ErrorCode::SlowConsumer`]), counted exactly once.
//! * **Resumable decode** — a proptest feeding arbitrarily-chunked
//!   frame streams through [`FrameAssembler`], which must reproduce the
//!   frame sequence exactly regardless of where the splits fall.

use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use up_engine::{ColumnType, Schema, Value};
use up_net::{
    read_frame, Client, ErrorCode, Frame, FrameAssembler, NetConfig, Reply, TenantQuota,
    TenantRegistry, WireServer, DEFAULT_MAX_FRAME,
};
use up_num::{DecimalType, UpDecimal};
use up_server::{ServerConfig, UpServer};

fn ty() -> DecimalType {
    DecimalType::new_unchecked(10, 2)
}

/// An `UpServer` with table `t(x DECIMAL(10,2))` holding `n` rows.
fn seeded_up(n: usize) -> Arc<UpServer> {
    let up = Arc::new(UpServer::new(ServerConfig::default()));
    up.create_table("t", Schema::new(vec![("x", ColumnType::Decimal(ty()))]));
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Decimal(UpDecimal::parse(&format!("{}.{:02}", i % 500, i % 100), ty()).unwrap())])
        .collect();
    up.insert_many("t", rows).unwrap();
    up
}

fn registry() -> Arc<TenantRegistry> {
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register("acme", "token", TenantQuota::default());
    tenants
}

#[test]
fn slow_loris_is_reaped_without_starving_the_event_loop() {
    const LORIS: usize = 24;
    let idle = Duration::from_millis(400);
    let up = seeded_up(64);
    let mut server = WireServer::start(
        up,
        registry(),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            // One event thread: if trickled bytes could monopolise the
            // loop, the legit client below would stall visibly.
            event_threads: 1,
            idle_timeout: idle,
            max_conns: 256,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Each loris dribbles one byte of a legal Query frame every 30 ms,
    // stopping (still mid-frame) before the idle deadline so the
    // eviction notice is read off a quiet socket. No complete frame
    // ever lands, so `last_activity` never advances and the server
    // must evict at ~400 ms even though bytes kept arriving.
    let loris: Vec<_> = (0..LORIS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let bytes = Frame::Query { id: 1, sql: "SELECT SUM(x) FROM t".into() }.to_bytes();
                for b in bytes.iter().take(10) {
                    if s.write_all(std::slice::from_ref(b)).is_err() {
                        break; // evicted early; the read below still sees why
                    }
                    std::thread::sleep(Duration::from_millis(30));
                }
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                match read_frame(&mut s, DEFAULT_MAX_FRAME) {
                    Ok(Some(Frame::Error { id: 0, code, .. })) => {
                        assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::IdleTimeout));
                    }
                    other => panic!("expected an IdleTimeout eviction notice, got {other:?}"),
                }
            })
        })
        .collect();

    // Meanwhile a legit client shares the single event thread with all
    // the loris sockets and must keep making progress.
    let mut client = Client::connect(addr, "acme", "token").unwrap();
    let t0 = Instant::now();
    let mut done = 0u32;
    while t0.elapsed() < Duration::from_millis(900) {
        let rows = client.query("SELECT SUM(x) FROM t").unwrap();
        assert_eq!(rows.rows.len(), 1);
        done += 1;
    }
    assert!(done >= 5, "legit client starved by loris traffic: {done} queries in 900 ms");
    client.goodbye().unwrap();

    for h in loris {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.idle_closed, LORIS as u64, "every loris reaped by idle timeout");
    assert_eq!(stats.slow_closed, 0);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
}

#[test]
fn slow_consumer_overflow_gets_code_27_and_the_boot() {
    // 30k rows render to ~400 KiB per reply; 24 pipelined replies are
    // ~10 MiB — far past what loopback socket buffers absorb (~4 MiB
    // measured) — so the 4 KiB outbound bound must overflow while the
    // client deliberately reads nothing.
    let up = seeded_up(30_000);
    let mut server = WireServer::start(
        up,
        registry(),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            max_inflight: 32,
            max_write_buf: 4096,
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(server.addr(), "acme", "token").unwrap();
    for _ in 0..24 {
        client.send_query("SELECT x FROM t").unwrap();
    }

    // The server must flag the connection on its own; the client is
    // still not reading. Poll the counter rather than sleeping blind.
    let t0 = Instant::now();
    while server.stats().slow_closed == 0 {
        assert!(t0.elapsed() < Duration::from_secs(30), "slow consumer never detected");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Now drain: some replies that were already buffered arrive, then
    // the code-27 notice, then Goodbye/EOF.
    let mut saw_slow = false;
    loop {
        match client.recv_reply() {
            Ok(Reply::Error { id: 0, code, .. })
                if ErrorCode::from_u16(code) == Some(ErrorCode::SlowConsumer) =>
            {
                saw_slow = true;
            }
            Ok(_) => {}
            Err(_) => break, // Goodbye or EOF
        }
    }
    assert!(saw_slow, "expected a SlowConsumer (27) notice before the close");
    let stats = server.stats();
    assert_eq!(stats.slow_closed, 1, "one connection, counted once");
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
}

// ---- resumable partial-frame decode ------------------------------------

/// Printable-ASCII strings up to `max` bytes (the vendored proptest
/// shim has no string strategies, so build them from byte vectors).
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (arb_text(12), arb_text(24)).prop_map(|(tenant, token)| Frame::Auth { tenant, token }),
        (any::<u64>(), arb_text(48)).prop_map(|(id, sql)| Frame::Query { id, sql }),
        any::<u64>().prop_map(|id| Frame::Cancel { id }),
        (any::<u64>(), any::<u16>(), arb_text(32))
            .prop_map(|(id, code, message)| Frame::Error { id, code, message }),
        (
            any::<u64>(),
            prop::collection::vec(arb_text(6), 1..3),
            prop::collection::vec(prop::collection::vec(arb_text(10), 1..3), 0..4),
        )
            .prop_map(|(id, columns, mut rows)| {
                let width = columns.len();
                for row in &mut rows {
                    row.resize(width, String::new());
                }
                Frame::Rows { id, columns, rows }
            }),
        (0u8..1).prop_map(|_| Frame::Goodbye),
    ]
    .boxed()
}

proptest! {
    /// Whatever the byte stream is cut into, the assembler yields the
    /// exact frame sequence and ends with no partial frame pending.
    #[test]
    fn assembler_survives_any_chunking(
        frames in prop::collection::vec(arb_frame(), 1..8),
        cuts in prop::collection::vec(1usize..64, 1..48),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut = cuts.iter().cycle();
        while pos < stream.len() {
            let n = (*cut.next().unwrap()).min(stream.len() - pos);
            asm.push(&stream[pos..pos + n]);
            pos += n;
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(asm.pending(), 0);
    }
}
