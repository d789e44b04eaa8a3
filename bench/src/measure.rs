//! The measured run (`--trace 0`): timed set-up, warm-up, the measured
//! window with tracing off, then the serial replay for the simulated
//! clock. Produces the end-to-end metrics.

use crate::stack::{ingest_writer, replay, BatchSample, Checker, Replay, Stack};
use crate::stats::{median, percentile, proc_status_kb, process_cpu_ms, sorted};
use crate::workloads::Workload;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often; cheap set-ups repeat until
/// `SETUP_BUDGET` is spent (at most `SETUP_MAX` times), so that the median
/// of a few-millisecond set-up is as steady as that of a slow one.
pub const SETUP_REPS: usize = 5;
const SETUP_MAX: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// One equal slice of the measured window.
pub struct Slice {
    pub verified: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub cpu_ms: f64,
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    pub slice_s: f64,
    pub slices: Vec<Slice>,
    /// Latencies of the window's verified replies, ascending, in ms.
    pub lat_ms: Vec<f64>,
    pub attempted: usize,
    /// Failed operations by kind.
    pub failures: [(&'static str, usize); 4],
    pub batches: Vec<BatchSample>,
    pub replay: Replay,
    pub peak_rss_mb: f64,
}

impl Measured {
    pub fn verified(&self) -> usize {
        self.lat_ms.len()
    }

    pub fn failed(&self) -> usize {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    /// `(name, value)` for every end-to-end metric, in `spec` order.
    ///
    /// Each host-clock metric is computed per slice and reported as the
    /// slices' **better quartile** (upper for a rate, lower for a time).
    /// The reference box shares its physical core with other guests, and
    /// a busy neighbour only ever slows a slice down, so the better
    /// slices are the ones that measured this system; the quartile, not
    /// the best slice, so that one lucky second decides nothing.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let better = |higher: bool, f: &dyn Fn(&Slice) -> f64| {
            let v = sorted(self.slices.iter().map(f).collect());
            percentile(&v, if higher { 0.75 } else { 0.25 })
        };
        vec![
            ("qps", better(true, &|s| s.verified as f64 / self.slice_s)),
            ("lat_p50_ms", better(false, &|s| s.p50_ms)),
            ("lat_p95_ms", better(false, &|s| s.p95_ms)),
            (
                "cpu_ms_per_query",
                better(false, &|s| s.cpu_ms / s.verified.max(1) as f64),
            ),
            (
                "modeled_ms_per_query",
                self.replay.modeled_s * 1e3 / self.replay.statements as f64,
            ),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", median(&self.setup_s)),
        ]
    }
}

struct CallerLog {
    /// `(seconds after the window opened, latency in ms)` per verified reply.
    ok: Vec<(f64, f64)>,
    attempted: usize,
    failed: usize,
}

/// One closed-loop caller: statement `first, first+step, …`, next request
/// only after the previous reply was read and checked. Operations sent
/// inside `[from, until)` are recorded; earlier ones are warm-up.
fn caller(
    w: &Workload,
    client: &mut up_net::Client,
    check: Checker,
    (first, step): (u64, u64),
    (from, until): (Instant, Instant),
) -> CallerLog {
    let mut log = CallerLog {
        ok: Vec::with_capacity(1 << 16),
        attempted: 0,
        failed: 0,
    };
    let mut i = first;
    loop {
        // `wire_cold` builds the statement and its oracle here, between
        // requests, so that cost never sits inside a latency sample.
        let s = w.stmt(i);
        let sent = Instant::now();
        if sent >= until {
            return log;
        }
        let ok = match client.query(&s.sql) {
            Ok(reply) => check.ok(w, &s, &reply.rows),
            Err(_) => false,
        };
        let lat = sent.elapsed();
        if sent >= from {
            log.attempted += 1;
            if ok {
                log.ok
                    .push(((sent - from).as_secs_f64(), lat.as_secs_f64() * 1e3));
            } else {
                log.failed += 1;
            }
        }
        i += step;
    }
}

pub fn run(
    w: &Workload,
    check: Checker,
    warmup: Duration,
    window: Duration,
    setup_reps: usize,
) -> Result<Measured, String> {
    // Set-up, several times over: only the last stack is kept.
    let mut setup_s = Vec::with_capacity(SETUP_MAX);
    let mut setup_failed = 0;
    let mut stack = None;
    let setup_start = Instant::now();
    while setup_s.len() < setup_reps
        || (setup_reps > 1 && setup_s.len() < SETUP_MAX && setup_start.elapsed() < SETUP_BUDGET)
    {
        if let Some(old) = stack.take() {
            Stack::teardown(old);
        }
        let t0 = Instant::now();
        let (s, bad) = Stack::setup(w, check)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_failed += bad;
        stack = Some(s);
    }
    let mut stack = stack.ok_or("no set-up repetition ran")?;

    let t0 = Instant::now();
    let from = t0 + warmup;
    let until = from + window;
    let step = w.callers as u64;
    let up = &stack.up;
    let n_slices = (window.as_secs_f64() as usize).clamp(1, 15);
    let (logs, batches, cpu) = std::thread::scope(|scope| {
        let callers: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                std::thread::Builder::new()
                    .name(format!("bench-caller-{c}"))
                    .spawn_scoped(scope, move || {
                        caller(w, client, check, (c as u64, step), (from, until))
                    })
                    .expect("spawn caller")
            })
            .collect();
        let writer = w.ingest.as_ref().map(|ing| {
            std::thread::Builder::new()
                .name("bench-writer".into())
                .spawn_scoped(scope, move || ingest_writer(up, None, ing, t0, until))
                .expect("spawn writer")
        });
        // Process CPU time at every slice boundary.
        let cpu: Vec<f64> = (0..=n_slices)
            .map(|k| {
                let at = from + window.mul_f64(k as f64 / n_slices as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                process_cpu_ms().unwrap_or(0.0)
            })
            .collect();
        let logs: Vec<CallerLog> = callers
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        let batches = writer
            .map(|h| h.join().expect("writer thread"))
            .unwrap_or_default();
        (logs, batches, cpu)
    });
    stack.teardown();

    // Ingest batches due inside the window are operations too; one that
    // finished too long after its due time failed.
    let batches: Vec<BatchSample> = batches.into_iter().filter(|b| b.due >= from).collect();
    let late = match &w.ingest {
        Some(ing) => batches.iter().filter(|b| b.lag > ing.late_after).count(),
        None => 0,
    };
    let replay = replay(w, check);
    let attempted = logs.iter().map(|l| l.attempted).sum::<usize>() + batches.len();
    let failures = [
        (
            "replies refused, errored or rejected by the oracle",
            logs.iter().map(|l| l.failed).sum(),
        ),
        ("ingest batches finished too late", late),
        ("set-up replies rejected by the oracle", setup_failed),
        ("replay rows rejected by the oracle", replay.mismatches),
    ];

    let slice_s = window.as_secs_f64() / n_slices as f64;
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); n_slices];
    for &(at, lat) in logs.iter().flat_map(|l| &l.ok) {
        by_slice[((at / slice_s) as usize).min(n_slices - 1)].push(lat);
    }
    let slices = by_slice
        .into_iter()
        .enumerate()
        .map(|(k, lat)| {
            let lat = sorted(lat);
            Slice {
                verified: lat.len(),
                p50_ms: percentile(&lat, 0.50),
                p95_ms: percentile(&lat, 0.95),
                cpu_ms: cpu[k + 1] - cpu[k],
            }
        })
        .collect();
    let lat_ms = sorted(
        logs.iter()
            .flat_map(|l| l.ok.iter().map(|&(_, lat)| lat))
            .collect(),
    );
    Ok(Measured {
        setup_s,
        slice_s,
        slices,
        lat_ms,
        attempted,
        failures,
        batches,
        replay,
        peak_rss_mb: proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0,
    })
}
