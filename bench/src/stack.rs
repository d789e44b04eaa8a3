//! The system under test, assembled from its defaults, plus the pieces
//! both run modes share: the reply checker, the `wire_ingest` writer and
//! the serial in-process replay.

use crate::workloads::{Expected, Ingest, Stmt, TableData, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use up_engine::{Catalog, Database, Profile, Schema, Table, Value};
use up_net::{Client, NetConfig, TenantQuota, TenantRegistry, WireServer};
use up_server::{ServerConfig, UpServer};

pub const TENANT: &str = "bench";
const TOKEN: &str = "bench-token";

fn schema(t: &TableData) -> Schema {
    Schema::new(t.cols.iter().map(|(n, ty)| (n.as_str(), *ty)).collect())
}

/// Compares replies with the oracle. `corrupt` is the self-test switch:
/// it changes one digit of every expected first cell, so a run that still
/// reports zero failures is not checking anything.
#[derive(Clone, Copy)]
pub struct Checker {
    pub corrupt: bool,
}

impl Checker {
    fn bend(&self, cell: &str) -> String {
        let mut s = cell.to_string();
        if self.corrupt {
            let last = s.pop().expect("cells are non-empty");
            s.push(if last == '7' { '3' } else { '7' });
        }
        s
    }

    /// Whether `rows` is exactly what statement `s` must return.
    pub fn ok(&self, w: &Workload, s: &Stmt, rows: &[Vec<String>]) -> bool {
        match &s.expected {
            Expected::Rows(exp) => {
                if !self.corrupt {
                    return exp.as_slice() == rows;
                }
                let mut exp = exp.as_ref().clone();
                if let Some(cell) = exp.first_mut().and_then(|r| r.first_mut()) {
                    *cell = self.bend(cell);
                }
                exp.as_slice() == rows
            }
            Expected::Prefix(which) => {
                let ing = w
                    .ingest
                    .as_ref()
                    .expect("prefix oracle needs an ingest plan");
                let [row] = rows else { return false };
                let [sum, count] = row.as_slice() else {
                    return false;
                };
                let Ok(count) = count.parse::<usize>() else {
                    return false;
                };
                ing.expected_sum(*which, count)
                    .is_some_and(|e| self.bend(e) == *sum)
            }
        }
    }
}

/// `up-net::Client → WireServer → UpServer → Database`, every layer at
/// its `Default` configuration.
pub struct Stack {
    pub up: Arc<UpServer>,
    pub server: WireServer,
    pub clients: Vec<Client>,
}

impl Stack {
    /// What `setup_s` times: load the pre-generated rows, start the wire
    /// server, connect and authenticate the callers, and run each distinct
    /// warm statement once (cold compile, decode, first launch). Returns
    /// how many of those first replies the oracle rejected.
    pub fn setup(w: &Workload, check: Checker) -> Result<(Stack, usize), String> {
        let up = Arc::new(UpServer::new(ServerConfig::default()));
        for t in &w.tables {
            up.create_table(t.name, schema(t));
            up.insert_many(t.name, t.rows.iter().cloned())
                .map_err(|e| e.to_string())?;
        }
        let tenants = Arc::new(TenantRegistry::new());
        tenants.register(TENANT, TOKEN, TenantQuota::default());
        let server = WireServer::start(Arc::clone(&up), tenants, NetConfig::default())
            .map_err(|e| format!("wire server: {e}"))?;
        let mut clients = (0..w.callers)
            .map(|_| Client::connect(server.addr(), TENANT, TOKEN).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut bad = 0;
        for s in &w.warm {
            let reply = clients[0]
                .query(&s.sql)
                .map_err(|e| format!("{}: {e}", s.sql))?;
            bad += usize::from(!check.ok(w, s, &reply.rows));
        }
        Ok((
            Stack {
                up,
                server,
                clients,
            },
            bad,
        ))
    }

    pub fn teardown(mut self) {
        for c in self.clients.drain(..) {
            let _ = c.goodbye();
        }
        self.server.shutdown();
    }
}

/// A standalone database holding the workload's tables, for the serial
/// replay and the traced walk's in-process steps.
pub fn fresh_db(w: &Workload) -> Database {
    let mut db = Database::new(Profile::UltraPrecise);
    for t in &w.tables {
        db.create_table(t.name, schema(t));
        db.insert_many(t.name, t.rows.iter().cloned())
            .expect("generated rows fit their columns");
    }
    db
}

/// The same tables as a bare catalog, for timing `plan::plan` alone.
pub fn mirror_catalog(w: &Workload) -> Catalog {
    let mut catalog = Catalog::new();
    for t in &w.tables {
        let mut table = Table::new(t.name, schema(t));
        for row in &t.rows {
            table
                .push_row(row.clone())
                .expect("generated rows fit their columns");
        }
        catalog.put(table);
    }
    catalog
}

pub fn render(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect()
}

/// One appended batch, timed from the instant it was due.
pub struct BatchSample {
    pub due: Instant,
    /// How late the generator itself started the batch.
    pub lateness: Duration,
    /// `insert_many` call time.
    pub call: Duration,
    /// Completion minus due time.
    pub lag: Duration,
}

/// The open-loop writer: batch `j` is due at `t0 + (j+1)·period` whatever
/// happened to earlier batches. `mirror` receives the same rows right
/// after, so an in-process database can track the server's table.
pub fn ingest_writer(
    up: &UpServer,
    mirror: Option<&Database>,
    ing: &Ingest,
    t0: Instant,
    stop_at: Instant,
) -> Vec<BatchSample> {
    let mut out = Vec::new();
    for (j, batch) in ing.batches.iter().enumerate() {
        let due = t0 + ing.period * (j as u32 + 1);
        if due >= stop_at {
            break;
        }
        let rows = batch.clone();
        let copy = mirror.map(|_| batch.clone());
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let start = Instant::now();
        up.insert_many(ing.table, rows)
            .expect("generated batch fits its columns");
        let done = Instant::now();
        if let (Some(db), Some(rows)) = (mirror, copy) {
            db.insert_many(ing.table, rows)
                .expect("generated batch fits its columns");
        }
        out.push(BatchSample {
            due,
            lateness: start.saturating_duration_since(due),
            call: done - start,
            lag: done.saturating_duration_since(due),
        });
    }
    out
}

/// Result of replaying the workload's first `replay_len` statements
/// serially through `Database::query` on a fresh cache. Everything here
/// is a function of the seed alone.
#[derive(Default)]
pub struct Replay {
    pub statements: usize,
    pub mismatches: usize,
    /// Sums over the replay, in statement order.
    pub modeled_s: f64,
    pub modeled_compile_s: f64,
    pub modeled_kernel_s: f64,
    pub rows_out: u64,
    pub kernels: u64,
    pub tiers: up_gpusim::TierCounters,
    pub cache: up_jit::cache::CacheStats,
    pub decode_builds: u64,
    pub tier_builds: u64,
    pub wall: Duration,
}

pub fn replay(w: &Workload, check: Checker) -> Replay {
    let db = fresh_db(w);
    let (decode0, tier0) = (
        up_gpusim::decode_counters().0,
        up_gpusim::compile_counters().0,
    );
    let mut r = Replay {
        statements: w.replay_len,
        ..Replay::default()
    };
    let t0 = Instant::now();
    for i in 0..w.replay_len as u64 {
        let s = w.stmt(i);
        match db.query(&s.sql) {
            Ok(q) => {
                let m = q.modeled;
                r.modeled_s += m.scan_s + m.pcie_s + m.compile_s + m.kernel_s + m.cpu_s;
                r.modeled_compile_s += m.compile_s;
                r.modeled_kernel_s += m.kernel_s;
                r.rows_out += q.rows.len() as u64;
                r.kernels += q.kernels as u64;
                r.tiers += q.tiers;
                r.mismatches += usize::from(!check.ok(w, &s, &render(&q.rows)));
            }
            Err(_) => r.mismatches += 1,
        }
    }
    r.wall = t0.elapsed();
    r.cache = db.jit_stats();
    r.decode_builds = up_gpusim::decode_counters().0 - decode0;
    r.tier_builds = up_gpusim::compile_counters().0 - tier0;
    r
}
