//! Service metrics: counters, a modeled-seconds sum and latency
//! histograms, all lock-free (`&self` everywhere) so the hot path never
//! serializes on a metrics mutex.
//!
//! [`MetricsRegistry`] is what the server updates; [`MetricsSnapshot`] is
//! the plain-struct view handed to callers, with a [`report`] method that
//! renders the text dashboard printed by `examples/concurrent_service.rs`.
//!
//! [`report`]: MetricsSnapshot::report

use std::sync::atomic::{AtomicU64, Ordering};
use up_jit::cache::CacheStats;

/// Power-of-two microsecond buckets: bucket `i` holds latencies in
/// `[2^(i−1), 2^i)` µs, so 40 buckets cover ~13 µs-to-years.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over atomic counters.
///
/// Quantiles are read from bucket upper bounds, so they are exact to
/// within a factor of 2 — plenty for a load report, and recording is a
/// single relaxed `fetch_add`.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: core::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// New empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    fn bucket_of(us: u64) -> usize {
        // 0–1 µs → bucket 0; otherwise the position of the highest bit.
        (64 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency observation.
    pub fn record(&self, seconds: f64) {
        let us = (seconds.max(0.0) * 1e6) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Approximate quantile (`q` in `[0, 1]`) in seconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i is 2^i µs.
                return (1u64 << i) as f64 / 1e6;
            }
        }
        self.max_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Point-in-time summary. Quantiles are bucket upper bounds clamped
    /// to the exact maximum (so `p50 ≤ p95 ≤ max` always holds).
    pub fn summary(&self) -> LatencySummary {
        let count = self.count.load(Ordering::Relaxed);
        let max_s = self.max_us.load(Ordering::Relaxed) as f64 / 1e6;
        LatencySummary {
            count,
            mean_s: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / 1e6 / count as f64
            },
            p50_s: self.quantile(0.50).min(max_s),
            p95_s: self.quantile(0.95).min(max_s),
            max_s,
        }
    }
}

/// Plain summary of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Median (upper bucket bound).
    pub p50_s: f64,
    /// 95th percentile (upper bucket bound).
    pub p95_s: f64,
    /// Largest observation.
    pub max_s: f64,
}

/// An `f64` accumulator over `AtomicU64` bit patterns (adds are CAS
/// loops; reads are a single load).
#[derive(Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The live metrics the server updates on every query.
#[derive(Default)]
pub struct MetricsRegistry {
    /// Queries accepted into the queue.
    submitted: AtomicU64,
    /// Queries that produced a result (Ok or engine error).
    completed: AtomicU64,
    /// Queries whose engine execution errored.
    failed: AtomicU64,
    /// Submissions bounced by admission control.
    rejected: AtomicU64,
    /// Tickets that gave up waiting (client-side deadline).
    timed_out: AtomicU64,
    /// Jobs observed canceled before execution.
    canceled: AtomicU64,
    /// End-to-end (enqueue → reply) latency of completed queries.
    latency: LatencyHistogram,
    /// Admission-queue wait (enqueue → dequeue) of every dequeued job —
    /// the tail-latency signal DRR admission targets.
    queue_wait: LatencyHistogram,
    /// Modeled GPU kernel seconds (SM-seconds) executed.
    gpu_kernel_s: AtomicF64,
}

impl MetricsRegistry {
    /// New registry with everything at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A submission was accepted.
    pub fn on_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was bounced by admission control.
    pub fn on_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A query finished; `latency_s` is enqueue → reply, `ok` whether the
    /// engine succeeded.
    pub fn on_completed(&self, latency_s: f64, ok: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency_s);
    }

    /// A job spent `wait_s` in the admission queue before a worker took
    /// it (recorded for canceled jobs too — they waited all the same).
    pub fn on_queue_wait(&self, wait_s: f64) {
        self.queue_wait.record(wait_s);
    }

    /// A ticket's deadline expired before the reply arrived.
    pub fn on_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was canceled before execution.
    pub fn on_canceled(&self) {
        self.canceled.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a query's modeled GPU kernel seconds.
    pub fn on_gpu_time(&self, kernel_s: f64) {
        self.gpu_kernel_s.add(kernel_s);
    }

    /// Mean end-to-end latency so far (0 before any completion) — the
    /// server's retry-after estimate is derived from this.
    pub fn mean_latency_s(&self) -> f64 {
        self.latency.summary().mean_s
    }

    /// Snapshot of the counters this registry owns; the server folds in
    /// queue/cache/session state to build the full [`MetricsSnapshot`].
    pub fn fill(&self, snap: &mut MetricsSnapshot) {
        snap.submitted = self.submitted.load(Ordering::Relaxed);
        snap.completed = self.completed.load(Ordering::Relaxed);
        snap.failed = self.failed.load(Ordering::Relaxed);
        snap.rejected = self.rejected.load(Ordering::Relaxed);
        snap.timed_out = self.timed_out.load(Ordering::Relaxed);
        snap.canceled = self.canceled.load(Ordering::Relaxed);
        snap.latency = self.latency.summary();
        snap.queue_wait = self.queue_wait.summary();
        snap.gpu_kernel_s = self.gpu_kernel_s.get();
    }
}

/// A plain point-in-time view of the whole service.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Sessions currently connected.
    pub sessions_active: usize,
    /// Sessions ever connected.
    pub sessions_total: u64,
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries whose execution errored.
    pub failed: u64,
    /// Submissions bounced by admission control.
    pub rejected: u64,
    /// Tickets that timed out waiting.
    pub timed_out: u64,
    /// Jobs canceled before execution.
    pub canceled: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Deepest the queue has been.
    pub queue_max_depth: usize,
    /// End-to-end latency summary.
    pub latency: LatencySummary,
    /// Admission-queue wait summary (enqueue → dequeue).
    pub queue_wait: LatencySummary,
    /// Shared JIT kernel-cache counters.
    pub cache: CacheStats,
    /// Process-wide simulator launch counts per execution tier (tree /
    /// decoded / closure-compiled) plus decoded→compiled promotion
    /// events — the server-level view of `UP_SIM_EXEC=auto` tiering.
    pub exec_tiers: up_gpusim::TierCounters,
    /// Closure-tier compile builds and cache hits (a hit is a launch
    /// reusing an artifact another launch or session already built).
    pub tier_compiles: (u64, u64),
    /// Modeled SM-seconds of kernel execution.
    pub gpu_kernel_s: f64,
}

fn fmt_s(s: f64) -> String {
    if s <= 0.0 {
        "0".to_string()
    } else if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 10.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

impl MetricsSnapshot {
    /// Renders the text dashboard.
    pub fn report(&self) -> String {
        use core::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(o, "== up-server metrics ==");
        let _ = writeln!(
            o,
            "sessions:    {} active / {} total",
            self.sessions_active, self.sessions_total
        );
        let _ = writeln!(
            o,
            "queries:     {} submitted, {} completed ({} failed), {} rejected, {} timed out, {} canceled",
            self.submitted, self.completed, self.failed, self.rejected, self.timed_out,
            self.canceled
        );
        let _ = writeln!(
            o,
            "queue:       depth {} / {} (max {})",
            self.queue_depth, self.queue_capacity, self.queue_max_depth
        );
        let l = &self.latency;
        let _ = writeln!(
            o,
            "latency:     p50 {} | p95 {} | max {} | mean {} (n = {})",
            fmt_s(l.p50_s),
            fmt_s(l.p95_s),
            fmt_s(l.max_s),
            fmt_s(l.mean_s),
            l.count
        );
        let w = &self.queue_wait;
        let _ = writeln!(
            o,
            "queue wait:  p50 {} | p95 {} | max {} (n = {})",
            fmt_s(w.p50_s),
            fmt_s(w.p95_s),
            fmt_s(w.max_s),
            w.count
        );
        let c = &self.cache;
        let _ = writeln!(
            o,
            "jit cache:   {}/{} kernels, {} hits / {} misses ({:.1}% hit rate), {} evictions, {:.1} MB resident",
            c.entries,
            c.capacity,
            c.hits,
            c.misses,
            c.hit_rate() * 100.0,
            c.evictions,
            c.resident_bytes as f64 / 1e6
        );
        let _ = writeln!(o, "gpu kernels: {} modeled", fmt_s(self.gpu_kernel_s));
        let t = &self.exec_tiers;
        let _ = writeln!(
            o,
            "exec tiers:  {} tree · {} decoded · {} compiled ({} promotions, {} builds / {} shared hits)",
            t.tree,
            t.decoded,
            t.compiled,
            t.promotions,
            self.tier_compiles.0,
            self.tier_compiles.1
        );
        let _ = writeln!(
            o,
            "mem lowering: {} lowered / {} fallback superblocks · {} mem thunks · {} fallback insts · {} fused codec runs over {} insts ({} rows live / {} pruned, {} word planes) · {} ALU thunks",
            t.lowered_superblocks,
            t.fallback_superblocks,
            t.lowered_mem_thunks,
            t.fallback_insts,
            t.fused_codec_runs,
            t.fused_codec_insts,
            t.fused_live_rows,
            t.fused_pruned_rows,
            t.fused_word_planes,
            up_gpusim::thunk_isa()
        );
        let _ = writeln!(
            o,
            "div_big:     {} lanes divided warp-wide · {} lanes one at a time",
            t.divbig_warp_lanes, t.divbig_loop_lanes
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for _ in 0..95 {
            h.record(0.001); // 1000 µs → bucket ub 1024 µs
        }
        for _ in 0..5 {
            h.record(0.1); // 100 000 µs
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50_s >= 0.001 && s.p50_s <= 0.002, "{}", s.p50_s);
        assert!(s.p95_s <= 0.002, "95th obs is still the 1 ms group");
        assert!((s.max_s - 0.1).abs() < 1e-9);
        assert!(s.mean_s > 0.001 && s.mean_s < 0.01);
        assert!(h.quantile(1.0) >= 0.1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_s, 0.0);
        assert_eq!(s.max_s, 0.0);
    }

    #[test]
    fn atomic_f64_accumulates_across_threads() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.on_gpu_time(0.001);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut snap = MetricsSnapshot::default();
        m.fill(&mut snap);
        assert!((snap.gpu_kernel_s - 8.0).abs() < 1e-9, "{}", snap.gpu_kernel_s);
    }

    #[test]
    fn queue_wait_line_renders() {
        let m = MetricsRegistry::new();
        m.on_queue_wait(0.002);
        m.on_queue_wait(0.004);
        let mut snap = MetricsSnapshot::default();
        m.fill(&mut snap);
        assert_eq!(snap.queue_wait.count, 2);
        assert!(snap.queue_wait.p95_s >= snap.queue_wait.p50_s);
        let text = snap.report();
        assert!(text.contains("queue wait:"), "{text}");
    }

    #[test]
    fn registry_counters_feed_snapshot_and_report() {
        let m = MetricsRegistry::new();
        m.on_submitted();
        m.on_submitted();
        m.on_completed(0.002, true);
        m.on_rejected();
        m.on_timed_out();
        let mut snap = MetricsSnapshot::default();
        m.fill(&mut snap);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.timed_out, 1);
        snap.cache.resident_bytes = 7_940_000;
        let text = snap.report();
        assert!(text.contains("2 submitted"), "{text}");
        assert!(text.contains("evictions, 7.9 MB resident"), "{text}");
        assert!(text.contains("jit cache:"), "{text}");
        assert!(text.contains("gpu kernels:"), "{text}");
        let isa = up_gpusim::thunk_isa();
        assert!(text.contains(&format!("word planes) · {isa} ALU thunks")), "{text}");
        snap.exec_tiers.divbig_warp_lanes = 96;
        snap.exec_tiers.divbig_loop_lanes = 3;
        let text = snap.report();
        let div_line = "div_big:     96 lanes divided warp-wide · 3 lanes one at a time";
        assert!(text.contains(div_line), "{text}");
    }
}
