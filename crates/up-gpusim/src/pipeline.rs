//! Plan-level launch pipelining: a dependency-ordered DAG executor plus a
//! modeled overlap timeline.
//!
//! A query plan's independent kernel launches (one per expression slot,
//! plus the multi-pass aggregate reductions behind them) form a DAG. The
//! serial executor walks it one node at a time, so JIT compilation, PCIe
//! transfer, and kernel execution never overlap — neither on the host
//! (wall-clock) nor in the modeled timeline. This module supplies both
//! halves of the pipelined alternative:
//!
//! * [`run_dag`] — executes DAG nodes on a small host worker pool.
//!   Results are returned per node index, which lets the caller merge
//!   them in the exact order the serial executor would have produced —
//!   bit-exact outputs and modeled times by construction.
//! * [`SharedTimeline`] — places the DAG's node costs on three modeled
//!   engines (NVCC compile lanes, one H2D copy engine, N compute streams,
//!   all [`crate::stream::StreamScheduler`]s) in deterministic node-index
//!   order, yielding the makespan, overlap, and stream utilization a
//!   stream-pipelined deployment would see ([`PipelineReport`]). One
//!   query's plan gets a fresh timeline; the server's arena shares one
//!   across queries.
//!
//! Pipelining never changes *what* is computed: every node runs the same
//! launch machinery, and the merge order is fixed. Only host
//! wall-clock and the separately-reported pipeline timeline change.

use crate::stream::StreamScheduler;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Whether (and how wide) plan-level pipelining runs.
///
/// `On(depth)` runs the DAG on `depth` host workers; `Off` is the serial
/// reference mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PipelineMode {
    /// Serial reference mode: nodes run one at a time in index order.
    #[default]
    Off,
    /// Pipelined with this many host workers (clamped to ≥ 1).
    On(u32),
}

/// Default worker depth for `UP_PIPELINE=on`.
pub const DEFAULT_PIPELINE_DEPTH: u32 = 8;

impl PipelineMode {
    /// Whether the DAG path runs at all.
    pub fn enabled(self) -> bool {
        matches!(self, PipelineMode::On(_))
    }

    /// Host workers the DAG executor uses (≥ 1, including the caller).
    pub fn depth(self) -> usize {
        match self {
            PipelineMode::Off => 1,
            PipelineMode::On(d) => d.max(1) as usize,
        }
    }

    /// Parses `off`, `on` (default depth), or a worker count.
    pub fn parse(s: &str) -> Option<PipelineMode> {
        match s {
            "off" => Some(PipelineMode::Off),
            "on" => Some(PipelineMode::On(DEFAULT_PIPELINE_DEPTH)),
            n => n.parse::<u32>().ok().map(|d| {
                if d == 0 {
                    PipelineMode::Off
                } else {
                    PipelineMode::On(d)
                }
            }),
        }
    }

    /// The `UP_PIPELINE` environment override, read once per process
    /// (`off` | `on` | depth). `None` when unset; an unparsable value
    /// warns once on stderr and behaves like unset.
    pub fn from_env() -> Option<PipelineMode> {
        static CACHE: OnceLock<Option<PipelineMode>> = OnceLock::new();
        *CACHE.get_or_init(|| {
            crate::env::knob("UP_PIPELINE", "off | on | <depth>", PipelineMode::parse)
        })
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineMode::Off => write!(f, "off"),
            PipelineMode::On(d) => write!(f, "on({d})"),
        }
    }
}

/// Executes a DAG of jobs, returning each node's result by index.
///
/// `deps[i]` lists the nodes that must complete before node `i` starts;
/// every dependency index must be smaller than its dependent's (node
/// order is a topological order). Under [`PipelineMode::Off`] nodes run
/// on the caller in index order; under `On(depth)` a pool of `depth`
/// workers (caller included) drains the ready set. Every node runs even
/// when another fails — the caller collects the `Vec` in index order, so
/// the first error it observes is the same one serial execution would
/// have returned.
pub fn run_dag<T, E, F>(deps: &[Vec<usize>], mode: PipelineMode, job: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let n = deps.len();
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < i, "dag dependency {d} of node {i} is not earlier in node order");
        }
    }
    let workers = mode.depth().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(&job).collect();
    }

    // Reverse adjacency + indegrees.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let indeg: Vec<AtomicUsize> = deps
        .iter()
        .enumerate()
        .map(|(i, ds)| {
            for &d in ds {
                children[d].push(i);
            }
            AtomicUsize::new(ds.len())
        })
        .collect();

    // Ready queue + completion count behind one lock; a condvar wakes
    // idle workers when nodes become ready (or everything finished).
    struct State {
        queue: Mutex<(VecDeque<usize>, usize)>,
        cv: Condvar,
    }
    let state = State { queue: Mutex::new((VecDeque::new(), 0)), cv: Condvar::new() };
    {
        let mut g = state.queue.lock().expect("dag queue poisoned");
        for (i, d) in indeg.iter().enumerate() {
            if d.load(Ordering::Relaxed) == 0 {
                g.0.push_back(i);
            }
        }
    }
    let results: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let worker = || loop {
        let idx = {
            let mut g = state.queue.lock().expect("dag queue poisoned");
            loop {
                if let Some(i) = g.0.pop_front() {
                    break i;
                }
                if g.1 == n {
                    return;
                }
                g = state.cv.wait(g).expect("dag queue poisoned");
            }
        };
        let r = job(idx);
        *results[idx].lock().expect("dag result poisoned") = Some(r);
        let mut g = state.queue.lock().expect("dag queue poisoned");
        g.1 += 1;
        for &c in &children[idx] {
            if indeg[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                g.0.push_back(c);
            }
        }
        drop(g);
        state.cv.notify_all();
    };
    std::thread::scope(|s| {
        for _ in 0..workers - 1 {
            s.spawn(worker);
        }
        worker();
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("dag result poisoned")
                .expect("every dag node runs to completion")
        })
        .collect()
}

/// Modeled cost of one DAG node, placed by [`SharedTimeline::place`].
#[derive(Clone, Debug, Default)]
pub struct DagNodeCost {
    /// Earlier nodes whose completion gates this node's execution.
    pub deps: Vec<usize>,
    /// Modeled NVCC compile seconds (0 when cached / passthrough). The
    /// compile can start as soon as the plan arrives — it has no data
    /// dependencies — so it is placed at the plan's arrival on a compile
    /// lane.
    pub compile_s: f64,
    /// Host→device transfer seconds, placed on the single copy engine
    /// once the node's dependencies have finished.
    pub h2d_s: f64,
    /// Execution seconds (kernel time; CPU profiles report their
    /// evaluator time here), placed on a compute stream after both the
    /// compile and the transfer complete.
    pub exec_s: f64,
}

/// The modeled pipeline timeline of one plan. Reported *alongside* the
/// engine's modeled-time totals, never folded into them — the serial
/// modeled breakdown stays bit-identical across pipeline modes.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineReport {
    /// DAG nodes placed on the timeline.
    pub nodes: u64,
    /// Compute streams of the modeled pool.
    pub streams: usize,
    /// Concurrent NVCC compile lanes of the modeled pool.
    pub compile_lanes: usize,
    /// Sum of all node costs — the no-overlap (serial) timeline length.
    pub serial_s: f64,
    /// Modeled completion time of the pipelined timeline.
    pub makespan_s: f64,
    /// `serial_s − makespan_s` (clamped at 0): seconds hidden by overlap.
    pub overlap_s: f64,
    /// Total compile seconds placed on the compile lanes.
    pub compile_s: f64,
    /// Total H2D seconds placed on the copy engine.
    pub h2d_s: f64,
    /// Total execution seconds placed on the compute streams.
    pub exec_s: f64,
    /// Total queueing delay across all three engines.
    pub queue_s: f64,
    /// Compute-stream utilization: `exec_s / (streams × makespan_s)`
    /// (0 when nothing ran).
    pub utilization: f64,
}

/// Weighted deficit round-robin over session ids.
///
/// Each registered session accrues `weight` units of deficit per
/// scheduling round and pays one unit per grant, so over time session
/// *i* receives `wᵢ / Σw` of the grants — a wide analytic session
/// cannot starve short interactive ones. A session with no queued work
/// forfeits its accumulated deficit (classic DRR), which keeps the
/// scheduler work-conserving: grants never idle waiting for an empty
/// queue to "catch up".
#[derive(Debug)]
pub struct DeficitRoundRobin {
    sessions: Vec<DrrSession>,
    cursor: usize,
    /// Whether the session at `cursor` still needs its per-round
    /// deficit replenishment (set when the cursor arrives there).
    fresh: bool,
}

impl Default for DeficitRoundRobin {
    fn default() -> DeficitRoundRobin {
        DeficitRoundRobin { sessions: Vec::new(), cursor: 0, fresh: true }
    }
}

#[derive(Debug)]
struct DrrSession {
    id: u64,
    weight: f64,
    deficit: f64,
}

impl DeficitRoundRobin {
    /// An empty scheduler.
    pub fn new() -> DeficitRoundRobin {
        DeficitRoundRobin::default()
    }

    /// Registers `id` (or updates its weight). Weights are clamped to
    /// `[0.01, 100]`; non-finite weights fall back to 1.
    pub fn set_weight(&mut self, id: u64, weight: f64) {
        let weight = if weight.is_finite() { weight.clamp(0.01, 100.0) } else { 1.0 };
        match self.sessions.iter_mut().find(|s| s.id == id) {
            Some(s) => s.weight = weight,
            None => self.sessions.push(DrrSession { id, weight, deficit: 0.0 }),
        }
    }

    /// Registers `id` with the default weight (1) if unknown.
    pub fn ensure(&mut self, id: u64) {
        if !self.sessions.iter().any(|s| s.id == id) {
            self.sessions.push(DrrSession { id, weight: 1.0, deficit: 0.0 });
        }
    }

    /// Forgets `id` entirely.
    pub fn remove(&mut self, id: u64) {
        if let Some(pos) = self.sessions.iter().position(|s| s.id == id) {
            self.sessions.remove(pos);
            if self.cursor > pos {
                self.cursor -= 1;
            } else if self.cursor == pos {
                self.fresh = true;
            }
        }
    }

    /// Picks the next session to serve among those for which `eligible`
    /// returns true (i.e. sessions with queued work). The cursor visits
    /// sessions round-robin; on arrival a session's deficit is topped up
    /// by its weight, each grant costs one unit, and the cursor stays
    /// put while the deficit lasts (so weight-3 sessions get ~3 grants
    /// per round). Returns `None` when no registered session is
    /// eligible.
    pub fn next(&mut self, eligible: &dyn Fn(u64) -> bool) -> Option<u64> {
        if !self.sessions.iter().any(|s| eligible(s.id)) {
            return None;
        }
        loop {
            if self.cursor >= self.sessions.len() {
                self.cursor = 0;
                self.fresh = true;
            }
            let s = &mut self.sessions[self.cursor];
            if !eligible(s.id) {
                s.deficit = 0.0;
                self.cursor += 1;
                self.fresh = true;
                continue;
            }
            if self.fresh {
                s.deficit += s.weight;
                self.fresh = false;
            }
            if s.deficit >= 1.0 {
                s.deficit -= 1.0;
                return Some(s.id);
            }
            self.cursor += 1;
            self.fresh = true;
        }
    }
}

/// A server-wide modeled pipeline timeline: an NVCC compile-lane pool,
/// one H2D copy engine and a compute-stream pool, all against one global
/// clock. Queries place their launch-DAG node costs at their modeled
/// arrival second, so contention *between* queries shows up as queue
/// delay on the shared engines; a fresh one placed at arrival 0 is one
/// plan's own timeline. This is a side-band model: engine results and
/// `ModeledTime` totals never depend on it.
pub struct SharedTimeline {
    state: Mutex<SharedState>,
    streams: usize,
    compile_lanes: usize,
}

struct SharedState {
    compile: StreamScheduler,
    copy: StreamScheduler,
    compute: StreamScheduler,
    queries: u64,
    nodes: u64,
    compile_s: f64,
    h2d_s: f64,
    exec_s: f64,
    makespan_s: f64,
}

impl SharedState {
    /// Queue delay across every engine, added left to right as
    /// ((compile + copy) + compute): a fresh timeline's report then has
    /// the bits of a plan placed on its own.
    fn queue_total(&self) -> f64 {
        self.compile.stats().queue_delay_total_s
            + self.copy.stats().queue_delay_total_s
            + self.compute.stats().queue_delay_total_s
    }
}

/// Aggregate view of everything placed on a [`SharedTimeline`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedTimelineStats {
    /// Queries that placed a DAG on the shared pools.
    pub queries: u64,
    /// Total DAG nodes placed.
    pub nodes: u64,
    /// Compute streams of the modeled pool.
    pub streams: usize,
    /// Concurrent NVCC compile lanes of the shared pool.
    pub compile_lanes: usize,
    /// Total compile seconds placed on the compile lanes.
    pub compile_s: f64,
    /// Total H2D seconds placed on the copy engine.
    pub h2d_s: f64,
    /// Total execution seconds placed on the compute streams.
    pub exec_s: f64,
    /// Total queueing delay across all shared engines.
    pub queue_s: f64,
    /// Modeled completion time of the whole server timeline.
    pub makespan_s: f64,
    /// `compile_s / (compile_lanes × makespan_s)` (0 when idle).
    pub compile_utilization: f64,
    /// `h2d_s / makespan_s` (0 when idle).
    pub copy_utilization: f64,
    /// `exec_s / (streams × makespan_s)` (0 when idle).
    pub stream_utilization: f64,
}

impl SharedTimeline {
    /// A fresh timeline with `streams` compute streams and
    /// `compile_lanes` NVCC lanes (both clamped to ≥ 1).
    pub fn new(streams: usize, compile_lanes: usize) -> SharedTimeline {
        let streams = streams.max(1);
        let compile_lanes = compile_lanes.max(1);
        SharedTimeline {
            state: Mutex::new(SharedState {
                compile: StreamScheduler::new(compile_lanes),
                copy: StreamScheduler::new(1),
                compute: StreamScheduler::new(streams),
                queries: 0,
                nodes: 0,
                compile_s: 0.0,
                h2d_s: 0.0,
                exec_s: 0.0,
                makespan_s: 0.0,
            }),
            streams,
            compile_lanes,
        }
    }

    /// Places one query's DAG node costs in node-index order, with
    /// compiles issued at the query's modeled `arrival_s` on the compile
    /// lanes (they have no data dependencies). Returns the query's own
    /// report: `makespan_s` and `queue_s` are relative to its arrival, so
    /// they include whatever delay *other* in-flight queries imposed on
    /// the engines it touched.
    pub fn place(&self, arrival_s: f64, nodes: &[DagNodeCost]) -> PipelineReport {
        let arrival_s = if arrival_s.is_finite() { arrival_s.max(0.0) } else { 0.0 };
        let mut st = self.state.lock().expect("shared timeline poisoned");
        let q0 = st.queue_total();
        let mut finish = vec![arrival_s; nodes.len()];
        let mut makespan = arrival_s;
        for (i, nd) in nodes.iter().enumerate() {
            let ready = nd.deps.iter().map(|&d| finish[d]).fold(arrival_s, f64::max);
            let c_end = if nd.compile_s > 0.0 {
                st.compile.submit(arrival_s, nd.compile_s).end_s
            } else {
                arrival_s
            };
            let h_end = if nd.h2d_s > 0.0 { st.copy.submit(ready, nd.h2d_s).end_s } else { ready };
            let start = ready.max(c_end).max(h_end);
            finish[i] =
                if nd.exec_s > 0.0 { st.compute.submit(start, nd.exec_s).end_s } else { start };
            makespan = makespan.max(finish[i]);
        }
        let compile_total: f64 = nodes.iter().map(|n| n.compile_s).sum();
        let h2d_total: f64 = nodes.iter().map(|n| n.h2d_s).sum();
        let exec_total: f64 = nodes.iter().map(|n| n.exec_s).sum();
        let serial_s = compile_total + h2d_total + exec_total;
        let queue_s = st.queue_total() - q0;
        st.queries += 1;
        st.nodes += nodes.len() as u64;
        st.compile_s += compile_total;
        st.h2d_s += h2d_total;
        st.exec_s += exec_total;
        st.makespan_s = st.makespan_s.max(makespan);
        let span = makespan - arrival_s;
        let cap = self.streams as f64 * span;
        PipelineReport {
            nodes: nodes.len() as u64,
            streams: self.streams,
            compile_lanes: self.compile_lanes,
            serial_s,
            makespan_s: span,
            overlap_s: (serial_s - span).max(0.0),
            compile_s: compile_total,
            h2d_s: h2d_total,
            exec_s: exec_total,
            queue_s,
            utilization: if cap > 0.0 { exec_total / cap } else { 0.0 },
        }
    }

    /// Aggregate stats over everything placed so far.
    pub fn stats(&self) -> SharedTimelineStats {
        let st = self.state.lock().expect("shared timeline poisoned");
        let span = st.makespan_s;
        let frac = |busy: f64, engines: usize| {
            if span > 0.0 {
                busy / (engines as f64 * span)
            } else {
                0.0
            }
        };
        SharedTimelineStats {
            queries: st.queries,
            nodes: st.nodes,
            streams: self.streams,
            compile_lanes: self.compile_lanes,
            compile_s: st.compile_s,
            h2d_s: st.h2d_s,
            exec_s: st.exec_s,
            queue_s: st.queue_total(),
            makespan_s: span,
            compile_utilization: frac(st.compile_s, self.compile_lanes),
            copy_utilization: frac(st.h2d_s, 1),
            stream_utilization: frac(st.exec_s, self.streams),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parses_and_displays() {
        assert_eq!(PipelineMode::parse("off"), Some(PipelineMode::Off));
        assert_eq!(PipelineMode::parse("on"), Some(PipelineMode::On(DEFAULT_PIPELINE_DEPTH)));
        assert_eq!(PipelineMode::parse("3"), Some(PipelineMode::On(3)));
        assert_eq!(PipelineMode::parse("0"), Some(PipelineMode::Off));
        assert_eq!(PipelineMode::parse("bogus"), None);
        assert_eq!(PipelineMode::On(4).to_string(), "on(4)");
        assert_eq!(PipelineMode::Off.to_string(), "off");
        assert!(!PipelineMode::Off.enabled());
        assert_eq!(PipelineMode::Off.depth(), 1);
        assert_eq!(PipelineMode::On(0).depth(), 1);
        assert_eq!(PipelineMode::On(6).depth(), 6);
    }

    #[test]
    fn dag_results_match_serial_in_every_mode() {
        // A diamond plus a tail: 0 → {1, 2} → 3 → 4.
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2], vec![3]];
        let job = |i: usize| -> Result<usize, ()> { Ok(i * i + 1) };
        let serial: Vec<_> = run_dag(&deps, PipelineMode::Off, job);
        for mode in [PipelineMode::On(1), PipelineMode::On(2), PipelineMode::On(8)] {
            let got: Vec<_> = run_dag(&deps, mode, job);
            assert_eq!(serial, got, "{mode}");
        }
    }

    #[test]
    fn dag_dependencies_complete_before_dependents_start() {
        use std::sync::atomic::AtomicU64;
        // Chain with a fan-out: completion stamps must respect edges.
        let deps = vec![vec![], vec![0], vec![0], vec![1], vec![2, 3]];
        let clock = AtomicU64::new(0);
        let stamps: Vec<AtomicU64> = (0..deps.len()).map(|_| AtomicU64::new(0)).collect();
        let starts: Vec<AtomicU64> = (0..deps.len()).map(|_| AtomicU64::new(0)).collect();
        let _: Vec<Result<(), ()>> = run_dag(&deps, PipelineMode::On(4), |i| {
            starts[i].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            stamps[i].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Ok(())
        });
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(
                    stamps[d].load(Ordering::SeqCst) < starts[i].load(Ordering::SeqCst),
                    "node {i} started before dependency {d} finished"
                );
            }
        }
    }

    #[test]
    fn dag_runs_every_node_even_after_an_error() {
        let deps = vec![vec![], vec![], vec![0]];
        let ran = AtomicUsize::new(0);
        let out: Vec<Result<usize, String>> = run_dag(&deps, PipelineMode::On(2), |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            if i == 1 {
                Err("boom".to_string())
            } else {
                Ok(i)
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert!(out[1].is_err());
        // Index-order collect surfaces the same error serial would.
        let first_err = out.into_iter().collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(first_err, "boom");
    }

    #[test]
    fn empty_dag_is_fine() {
        let out: Vec<Result<(), ()>> = run_dag(&[], PipelineMode::On(4), |_| Ok(()));
        assert!(out.is_empty());
    }

    /// One plan's own timeline: a fresh single-device pool, arrival 0.
    fn place_fresh(nodes: &[DagNodeCost], streams: usize, lanes: usize) -> PipelineReport {
        SharedTimeline::new(streams, lanes).place(0.0, nodes)
    }

    #[test]
    fn timeline_overlaps_independent_nodes() {
        // Four independent nodes, each 0.3 s compile + 0.01 s copy +
        // 0.1 s exec. Serial: 1.64 s. Pipelined over 4 streams/lanes:
        // compiles run concurrently, copies serialize on the one engine.
        let nodes: Vec<DagNodeCost> = (0..4)
            .map(|_| DagNodeCost { deps: vec![], compile_s: 0.3, h2d_s: 0.01, exec_s: 0.1 })
            .collect();
        let r = place_fresh(&nodes, 4, 4);
        assert_eq!(r.nodes, 4);
        assert!((r.serial_s - 1.64).abs() < 1e-12, "{r:?}");
        // All compiles end at 0.3; copies end by 0.04 ≤ 0.3; execs run
        // concurrently on 4 streams → makespan 0.4.
        assert!((r.makespan_s - 0.4).abs() < 1e-12, "{r:?}");
        assert!(r.overlap_s > 1.2, "{r:?}");
        assert!(r.utilization > 0.2, "{r:?}");
        // Serial placement (1 stream, 1 lane) cannot beat the sum of
        // compute+compile on their single engines.
        let s = place_fresh(&nodes, 1, 1);
        assert!(s.makespan_s >= 1.2, "{s:?}");
        assert!(s.makespan_s <= s.serial_s + 1e-12, "{s:?}");
    }

    #[test]
    fn timeline_respects_dependencies() {
        let nodes = vec![
            DagNodeCost { deps: vec![], compile_s: 0.0, h2d_s: 0.0, exec_s: 1.0 },
            DagNodeCost { deps: vec![0], compile_s: 0.0, h2d_s: 0.0, exec_s: 1.0 },
        ];
        let r = place_fresh(&nodes, 8, 8);
        // The chain cannot overlap: makespan is the full 2 s.
        assert!((r.makespan_s - 2.0).abs() < 1e-12, "{r:?}");
        assert_eq!(r.overlap_s, 0.0);
    }

    #[test]
    fn drr_splits_grants_by_weight_without_starvation() {
        let mut drr = DeficitRoundRobin::new();
        drr.set_weight(1, 3.0);
        drr.set_weight(2, 1.0);
        let mut grants = [0u32; 3];
        for _ in 0..400 {
            let id = drr.next(&|_| true).expect("both eligible");
            grants[id as usize] += 1;
        }
        // 3:1 weights → ~300/100 grants; allow slack for round phase.
        assert!((295..=305).contains(&grants[1]), "{grants:?}");
        assert!((95..=105).contains(&grants[2]), "{grants:?}");

        // A session with no queued work is skipped and forfeits deficit.
        let only_two = |id: u64| id == 2;
        for _ in 0..10 {
            assert_eq!(drr.next(&only_two), Some(2));
        }
        // Nothing eligible → None, not a spin.
        assert_eq!(drr.next(&|_| false), None);
        let mut empty = DeficitRoundRobin::new();
        assert_eq!(empty.next(&|_| true), None);

        // Removal keeps the cursor consistent.
        drr.ensure(7);
        drr.remove(1);
        assert_eq!(drr.next(&|id| id == 7), Some(7));
    }

    #[test]
    fn shared_timeline_charges_cross_query_contention_as_queue_delay() {
        // One stream, one lane: two queries arriving together contend.
        let tl = SharedTimeline::new(1, 1);
        let nodes =
            vec![DagNodeCost { deps: vec![], compile_s: 0.3, h2d_s: 0.01, exec_s: 0.1 }];
        let a = tl.place(0.0, &nodes);
        let b = tl.place(0.0, &nodes);
        // Query A runs uncontended; B queues behind A's compile + exec.
        assert!(a.queue_s.abs() < 1e-12, "{a:?}");
        assert!(b.queue_s > 0.25, "{b:?}");
        assert!(b.makespan_s > a.makespan_s, "{b:?} vs {a:?}");
        let s = tl.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.nodes, 2);
        assert!((s.compile_s - 0.6).abs() < 1e-12, "{s:?}");
        assert!(s.makespan_s >= b.makespan_s, "{s:?}");
        assert!(s.stream_utilization > 0.0 && s.stream_utilization <= 1.0, "{s:?}");
        assert!(s.compile_utilization > 0.0 && s.compile_utilization <= 1.0, "{s:?}");

        // With wide pools the same two queries overlap instead.
        let wide = SharedTimeline::new(4, 4);
        let wa = wide.place(0.0, &nodes);
        let wb = wide.place(0.0, &nodes);
        assert!(wa.queue_s.abs() < 1e-12 && wb.queue_s < 0.02, "{wa:?} {wb:?}");

        // Empty timeline: no NaNs.
        let idle = SharedTimeline::new(2, 2).stats();
        assert_eq!(idle.makespan_s, 0.0);
        assert!(!idle.stream_utilization.is_nan());
    }

    #[test]
    fn timeline_of_nothing_is_zero_not_nan() {
        let r = place_fresh(&[], 4, 2);
        assert_eq!(r.makespan_s, 0.0);
        assert_eq!(r.utilization, 0.0);
        assert!(!r.utilization.is_nan());
        let z = place_fresh(
            &[DagNodeCost { deps: vec![], compile_s: 0.0, h2d_s: 0.0, exec_s: 0.0 }],
            4,
            2,
        );
        assert_eq!(z.makespan_s, 0.0);
        assert_eq!(z.utilization, 0.0);
        assert!(!z.utilization.is_nan());
    }

    #[test]
    fn fresh_placement_reproduces_recorded_report_bits() {
        // Every field's bits as the per-plan placer produced them before
        // plans and the server arena shared one placer. The fan-out's
        // queue delay is the sum whose last bit depends on adding
        // ((compile + copy) + compute).
        fn n(deps: &[usize], compile_s: f64, h2d_s: f64, exec_s: f64) -> DagNodeCost {
            DagNodeCost { deps: deps.to_vec(), compile_s, h2d_s, exec_s }
        }
        // Two slots in a chain, each followed by its reduction.
        let chain = [
            n(&[], 0.0123, 0.0017, 0.0431),
            n(&[0], 0.0, 0.0, 0.0029),
            n(&[0], 0.0211, 0.0013, 0.0377),
            n(&[2], 0.0, 0.0, 0.0031),
        ];
        // One root slot and four dependants.
        let fan_out = [
            n(&[], 0.001, 0.00198, 0.0242),
            n(&[0], 0.0281, 0.00175, 0.034),
            n(&[0], 0.0223, 0.003, 0.0312),
            n(&[0], 0.0351, 0.00058, 0.0161),
            n(&[0], 0.0325, 0.0028, 0.0304),
        ];
        // Slot 2 repeats slot 0's signature: no compile of its own, and
        // it depends on the slot that owns the compile.
        let dup_sig = [
            n(&[], 0.0307, 0.0019, 0.0413),
            n(&[0], 0.0, 0.0, 0.0043),
            n(&[0], 0.0, 0.0019, 0.0413),
            n(&[2], 0.0, 0.0, 0.0043),
            n(&[], 0.0263, 0.0023, 0.0389),
            n(&[4], 0.0, 0.0, 0.0047),
        ];
        // serial, makespan, overlap, compile, h2d, exec, queue, utilization
        let cases: [(&[DagNodeCost], usize, [u64; 8]); 3] = [
            (
                &chain,
                1,
                [
                    0x3fbf8a0902de00d2,
                    0x3fb95e9e1b089a03,
                    0x3f98adab9f559b3c,
                    0x3fa119ce075f6fd2,
                    0x3f689374bc6a7efa,
                    0x3fb63886594af4f1,
                    0x3f8c779a6b50b0f1,
                    0x3fec073bac4d7f5a,
                ],
            ),
            (
                &fan_out,
                2,
                [
                    0x3fd0f5ec80c73abd,
                    0x3fb7b00bcbe61d00,
                    0x3fc613d31b9b66fa,
                    0x3fbe76c8b4395810,
                    0x3f84b48d3ae685db,
                    0x3fc1652bd3c36114,
                    0x3fb1c8216c61522b,
                    0x3fe77fd90b97a426,
                ],
            ),
            (
                &dup_sig,
                2,
                [
                    0x3fc954c985f06f6a,
                    0x3fc4538ef34d6a17,
                    0x3fa404ea4a8c154c,
                    0x3fad2f1a9fbe76c9,
                    0x3f78fc504816f006,
                    0x3fc141205bc01a37,
                    0x3fbce703afb7e911,
                    0x3fdb29ea135857b2,
                ],
            ),
        ];
        for (nodes, lanes, bits) in cases {
            let r = place_fresh(nodes, lanes, lanes);
            assert_eq!((r.nodes, r.streams, r.compile_lanes), (nodes.len() as u64, lanes, lanes));
            let got = [
                r.serial_s,
                r.makespan_s,
                r.overlap_s,
                r.compile_s,
                r.h2d_s,
                r.exec_s,
                r.queue_s,
                r.utilization,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "{r:?}");
        }
    }
}
