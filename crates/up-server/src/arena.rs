//! The server-wide pipeline arena: one shared launch scheduler that all
//! worker threads feed, instead of each query pipelining alone.
//!
//! The arena is the cross-query half of the launch pipeline introduced in
//! `up_gpusim::pipeline`. It owns:
//!
//! - a [`CompileArena`] — the admission-time compile prefetcher. When a
//!   query is *submitted* (not when a worker picks it up), the server
//!   registers the plan's kernel signatures here; first occurrences start
//!   compiling immediately on a bounded pool of lanes scheduled by
//!   weighted deficit round-robin, and later occurrences — from the same
//!   query *or any other in-flight query* — attach to the in-flight
//!   compile instead of queueing a duplicate.
//! - a [`SharedTimeline`] — the shared launch-resource model (compile
//!   lanes, one copy engine, N compute streams) that every arena query's
//!   launch DAG is placed on, so modeled overlap reflects *cross-query*
//!   contention rather than a private per-query device.
//! - per-session queue-wait accounting, the input to the tail-latency
//!   fairness metric (`max_wait_share`).
//!
//! Determinism: the arena changes *when* compiles run, never *what* they
//! produce. Each signature is compiled exactly once by its owner entry
//! and everyone else observes the same cache hit serial execution would
//! have recorded, so results, `ModeledTime`, and aggregate cache stats
//! stay bit-identical to one-at-a-time execution (see
//! `up_jit::arena` for the full argument).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use up_gpusim::{SharedTimeline, SharedTimelineStats};
use up_jit::cache::JitEngine;
use up_jit::{CompileArena, CompileArenaStats, Expr};

/// A point-in-time view of the arena: compile-pool counters, shared
/// launch-timeline utilization, and the per-session wait distribution.
#[derive(Clone, Debug, Default)]
pub struct ArenaStats {
    /// Compile-prefetch pool counters (dedups, lanes, queue).
    pub compile: CompileArenaStats,
    /// Shared launch-resource model (copy engine / stream utilization).
    pub timeline: SharedTimelineStats,
    /// Accumulated admission-queue wait per session, sorted by session id.
    pub session_waits: Vec<(u64, f64)>,
    /// Largest single session's share of total queue wait, in `[0, 1]` —
    /// a fairness check: under equal weights and sustained load this
    /// should approach `1 / sessions`, not 1.
    pub max_wait_share: f64,
}

/// The server's shared launch scheduler (see module docs).
pub struct LaunchArena {
    compile: Arc<CompileArena>,
    timeline: SharedTimeline,
    /// Admission sequence: the order queries registered their kernels,
    /// which is also the ownership order for compile attribution.
    seq: AtomicU64,
    /// Accumulated queue wait per session id, for the fairness metric.
    session_wait: Mutex<HashMap<u64, f64>>,
}

impl LaunchArena {
    /// New arena compiling through `jit` (fork of the server engine, so
    /// the shared kernel cache and NVCC-emulation flag carry over) with
    /// `compile_lanes` concurrent compiles and `gpu_streams` compute
    /// streams in the shared timeline.
    pub fn new(jit: JitEngine, compile_lanes: usize, gpu_streams: usize) -> LaunchArena {
        let compile_lanes = compile_lanes.max(1);
        LaunchArena {
            compile: Arc::new(CompileArena::new(jit, compile_lanes)),
            timeline: SharedTimeline::new(gpu_streams, compile_lanes),
            seq: AtomicU64::new(0),
            session_wait: Mutex::new(HashMap::new()),
        }
    }

    /// Allocates the next admission sequence number (1-based).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The compile-prefetch pool (workers rendezvous with it at eval).
    pub fn compile(&self) -> &CompileArena {
        &self.compile
    }

    /// The shared launch timeline (workers place their DAGs on it).
    pub fn timeline(&self) -> &SharedTimeline {
        &self.timeline
    }

    /// Registers an admitted query's kernel references: sets the
    /// session's compile-lane weight and starts first-occurrence
    /// compiles. Called at submit time, before the job is queued.
    pub fn register(&self, session: u64, weight: f64, seq: u64, kernels: &[(String, Expr)]) {
        self.compile.register(session, weight, seq, kernels);
    }

    /// Releases a query's arena state (owned compile entries); must be
    /// called exactly once per allocated seq, including on cancel and on
    /// admission rejection.
    pub fn on_query_done(&self, seq: u64) {
        self.compile.query_done(seq);
    }

    /// Accumulates one dequeue's admission-queue wait against a session.
    pub fn record_wait(&self, session: u64, wait_s: f64) {
        *self
            .session_wait
            .lock()
            .expect("session wait poisoned")
            .entry(session)
            .or_insert(0.0) += wait_s.max(0.0);
    }

    /// Snapshot of compile-pool, timeline, and fairness state.
    pub fn stats(&self) -> ArenaStats {
        let mut session_waits: Vec<(u64, f64)> = self
            .session_wait
            .lock()
            .expect("session wait poisoned")
            .iter()
            .map(|(&id, &w)| (id, w))
            .collect();
        session_waits.sort_unstable_by_key(|&(id, _)| id);
        let total: f64 = session_waits.iter().map(|&(_, w)| w).sum();
        let max: f64 = session_waits.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        ArenaStats {
            compile: self.compile.stats(),
            timeline: self.timeline.stats(),
            session_waits,
            max_wait_share: if total > 0.0 { max / total } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_are_unique_and_monotonic() {
        let a = LaunchArena::new(JitEngine::with_defaults(), 2, 2);
        let s1 = a.next_seq();
        let s2 = a.next_seq();
        assert!(s1 >= 1);
        assert_eq!(s2, s1 + 1);
    }

    #[test]
    fn wait_shares_track_the_dominant_session() {
        let a = LaunchArena::new(JitEngine::with_defaults(), 2, 2);
        assert_eq!(a.stats().max_wait_share, 0.0, "no waits yet");
        a.record_wait(1, 0.030);
        a.record_wait(2, 0.010);
        a.record_wait(1, 0.030);
        a.record_wait(2, -5.0); // clamped to 0
        let st = a.stats();
        assert_eq!(st.session_waits, vec![(1, 0.060), (2, 0.010)]);
        assert!((st.max_wait_share - 0.060 / 0.070).abs() < 1e-12, "{}", st.max_wait_share);
    }

    #[test]
    fn register_and_done_round_trip_through_the_compile_pool() {
        use up_num::DecimalType;
        let jit = JitEngine::with_defaults();
        let a = LaunchArena::new(jit.fork(), 2, 2);
        let t = DecimalType::new_unchecked(9, 3);
        let e = Expr::col(0, t, "a").mul(Expr::col(1, t, "b"));
        let sig = jit.signature(&e).expect("jit-routed expression");
        let seq_a = a.next_seq();
        let seq_b = a.next_seq();
        a.register(1, 1.0, seq_a, &[(sig.clone(), e.clone())]);
        a.register(2, 1.0, seq_b, &[(sig, e.clone())]);
        let st = a.stats();
        assert_eq!(st.compile.registered, 2);
        assert_eq!(st.compile.cross_query_dedups, 1, "second query attached");
        // Both queries retire; the owner's entry may still be in flight
        // (orphaned) but the shared cache keeps the kernel either way.
        a.on_query_done(seq_a);
        a.on_query_done(seq_b);
        assert!(a.compile().rendezvous(seq_b + 1, &e).is_none(), "entries released");
    }
}
