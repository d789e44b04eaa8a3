//! Cross-query compile coordination for the server-wide pipeline arena.
//!
//! Per-query launch DAGs (PR 3) dedup kernel signatures *within* one
//! plan; concurrent sessions of `up-server` still raced each other to
//! the shard lock of [`crate::cache::SharedKernelCache`]. That race is
//! correct but wasteful in two ways a busy server cares about:
//!
//! 1. **Late start.** A query's first-occurrence compiles begin only
//!    when a worker dequeues it, so a queue of eight cold queries pays
//!    its NVCC latencies in worker-count-sized waves.
//! 2. **Blind duplication.** Query B discovers that query A is already
//!    compiling a signature only by blocking on the shard lock.
//!
//! [`CompileArena`] fixes both: at *admission* time the server
//! registers every kernel signature a query will need. The first
//! registration of a signature becomes its **owner** and starts the
//! compile immediately on a bounded pool of compile lanes; later
//! registrations — from any query — are counted as cross-query dedups
//! and simply rendezvous with the in-flight entry. Lane dispatch is
//! weighted deficit round-robin over sessions
//! ([`up_gpusim::pipeline::DeficitRoundRobin`]), so one wide analytic
//! session cannot monopolize the lanes.
//!
//! **Bit-exactness.** Cache hit/miss counters and per-query
//! `ModeledTime` stay identical to serial one-query-at-a-time
//! execution: each signature is compiled (and its miss + modeled NVCC
//! seconds attributed) exactly once, by the owner query's rendezvous —
//! every other rendezvous waits for the entry to *finish* (including
//! the emulated NVCC sleep) and then performs a normal cache lookup,
//! recording the same hit the serial replay would. Ownership is pinned
//! under one lock in admission (seq) order, which is exactly the serial
//! replay order. The one caveat: if a query errors out before reaching
//! its owned slot, the miss has already been attributed to the arena's
//! helper thread — divergence is confined to error paths (and to
//! kernel-cache eviction pressure, which the server's capacity bound
//! avoids).

use crate::cache::{Compiled, CompileInfo, JitEngine};
use crate::expr::Expr;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use up_gpusim::pipeline::DeficitRoundRobin;

/// Point-in-time counters of a [`CompileArena`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileArenaStats {
    /// Kernel references registered at admission (incl. duplicates).
    pub registered: u64,
    /// First-occurrence compiles dispatched onto the lanes.
    pub compiles_started: u64,
    /// Registrations that matched a signature another query already
    /// owned — each one is a compile the server did not queue twice.
    pub cross_query_dedups: u64,
    /// Prefetched compile results taken by their owner query's slot.
    pub prefetched_taken: u64,
    /// Concurrent compile lanes of the pool.
    pub lanes: usize,
    /// Lanes currently running a compile.
    pub lanes_busy: usize,
    /// Compiles registered but not yet dispatched to a lane.
    pub queued: usize,
}

struct SigEntry {
    /// The admission seq of the query that first registered this
    /// signature; its slot takes the prefetched result (the miss).
    owner_seq: u64,
    done: bool,
    taken: bool,
    /// The owner finished (or was canceled) before the compile landed;
    /// the compile thread drops the entry instead of completing it.
    orphaned: bool,
    result: Option<(Compiled, CompileInfo)>,
}

struct PendingCompile {
    sig: String,
    expr: Expr,
}

#[derive(Default)]
struct ArenaState {
    entries: HashMap<String, SigEntry>,
    pending: HashMap<u64, VecDeque<PendingCompile>>,
    drr: DeficitRoundRobin,
    lanes_busy: usize,
    queued: usize,
    registered: u64,
    compiles_started: u64,
    cross_query_dedups: u64,
    prefetched_taken: u64,
}

/// The server-wide compile half of the pipeline arena: admission-time
/// kernel registration, bounded DRR-scheduled compile lanes, and
/// eval-time rendezvous. See the module docs for the design and the
/// bit-exactness argument.
pub struct CompileArena {
    jit: JitEngine,
    lanes: usize,
    state: Mutex<ArenaState>,
    done: Condvar,
}

impl CompileArena {
    /// A new arena compiling on `jit` (normally a [`JitEngine::fork`] of
    /// the database's engine, so the cache and NVCC-emulation flag are
    /// shared) with `lanes` concurrent compile lanes (clamped to ≥ 1).
    pub fn new(jit: JitEngine, lanes: usize) -> CompileArena {
        CompileArena {
            jit,
            lanes: lanes.max(1),
            state: Mutex::new(ArenaState::default()),
            done: Condvar::new(),
        }
    }

    /// Concurrent compile lanes of the pool.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Registers the kernel references of one admitted query
    /// (`(signature, expression)` pairs in plan order, duplicates
    /// included). First occurrences become owned entries and start
    /// compiling on the lanes; re-registrations by *other* queries are
    /// counted as cross-query dedups. `weight` is the session's DRR
    /// share of the lanes.
    pub fn register(
        self: &Arc<Self>,
        session: u64,
        weight: f64,
        seq: u64,
        kernels: &[(String, Expr)],
    ) {
        if kernels.is_empty() {
            return;
        }
        let mut st = self.state.lock().expect("compile arena poisoned");
        st.drr.set_weight(session, weight);
        for (sig, expr) in kernels {
            st.registered += 1;
            if let Some(e) = st.entries.get(sig) {
                if e.owner_seq != seq {
                    st.cross_query_dedups += 1;
                }
                continue;
            }
            st.entries.insert(
                sig.clone(),
                SigEntry {
                    owner_seq: seq,
                    done: false,
                    taken: false,
                    orphaned: false,
                    result: None,
                },
            );
            st.pending
                .entry(session)
                .or_default()
                .push_back(PendingCompile { sig: sig.clone(), expr: expr.clone() });
            st.queued += 1;
        }
        self.dispatch(&mut st);
    }

    /// Fills idle lanes from the per-session pending queues in weighted
    /// deficit round-robin order. Caller holds the state lock.
    fn dispatch(self: &Arc<Self>, st: &mut ArenaState) {
        loop {
            if st.lanes_busy >= self.lanes {
                return;
            }
            let job = {
                let ArenaState { drr, pending, .. } = &mut *st;
                let Some(sess) =
                    drr.next(&|id| pending.get(&id).is_some_and(|q| !q.is_empty()))
                else {
                    return;
                };
                let q = pending.get_mut(&sess).expect("eligible session has a queue");
                let job = q.pop_front().expect("eligible queue is non-empty");
                if q.is_empty() {
                    pending.remove(&sess);
                }
                job
            };
            st.queued -= 1;
            st.lanes_busy += 1;
            st.compiles_started += 1;
            let arena = Arc::clone(self);
            std::thread::spawn(move || arena.run_compile(job.sig, job.expr));
        }
    }

    /// One lane's work: compile (cache miss + emulated NVCC sleep happen
    /// here, on the shared cache), then publish the entry and refill the
    /// lane.
    fn run_compile(self: Arc<Self>, sig: String, expr: Expr) {
        let result = self.jit.compile(&expr);
        let mut st = self.state.lock().expect("compile arena poisoned");
        st.lanes_busy -= 1;
        match st.entries.get_mut(&sig) {
            Some(e) if e.orphaned => {
                st.entries.remove(&sig);
            }
            Some(e) => {
                e.done = true;
                e.result = Some(result);
            }
            None => {}
        }
        self.dispatch(&mut st);
        drop(st);
        self.done.notify_all();
    }

    /// Eval-time rendezvous of query `seq` with the arena's entry for
    /// `expr`, replacing a direct `jit.compile` call:
    ///
    /// * unregistered signature (or passthrough) → `None`; the caller
    ///   compiles normally.
    /// * the owner's first arrival → blocks until the prefetched compile
    ///   lands, then takes its result — the cache miss and modeled NVCC
    ///   seconds, exactly as serial execution would attribute them.
    /// * anyone else → blocks until the entry is *finished* (including
    ///   the emulated NVCC sleep — no free ride on a half-done compile),
    ///   then performs a normal cache lookup, recording the same hit a
    ///   serial replay would.
    pub fn rendezvous(&self, seq: u64, expr: &Expr) -> Option<(Compiled, CompileInfo)> {
        let sig = self.jit.signature(expr)?;
        let mut st = self.state.lock().expect("compile arena poisoned");
        loop {
            match st.entries.get_mut(&sig) {
                None => return None,
                Some(e) if e.done => {
                    if e.owner_seq == seq && !e.taken {
                        e.taken = true;
                        let r = e.result.clone().expect("a done arena entry holds its result");
                        st.prefetched_taken += 1;
                        return Some(r);
                    }
                    break;
                }
                Some(_) => st = self.done.wait(st).expect("compile arena poisoned"),
            }
        }
        drop(st);
        Some(self.jit.compile(expr))
    }

    /// Tells the arena query `seq` is finished (success, error, or
    /// cancellation): its owned entries are dropped — the compiled
    /// kernels live on in the shared LRU cache — so arena memory stays
    /// bounded by the in-flight query set. In-flight compiles it owns
    /// are orphaned and cleaned up by their lane on completion.
    pub fn query_done(&self, seq: u64) {
        let mut st = self.state.lock().expect("compile arena poisoned");
        st.entries.retain(|_, e| {
            if e.owner_seq != seq {
                return true;
            }
            if e.done {
                return false;
            }
            e.orphaned = true;
            true
        });
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CompileArenaStats {
        let st = self.state.lock().expect("compile arena poisoned");
        CompileArenaStats {
            registered: st.registered,
            compiles_started: st.compiles_started,
            cross_query_dedups: st.cross_query_dedups,
            prefetched_taken: st.prefetched_taken,
            lanes: self.lanes,
            lanes_busy: st.lanes_busy,
            queued: st.queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up_num::DecimalType;

    fn ty() -> DecimalType {
        DecimalType::new_unchecked(9, 3)
    }

    fn expr(k: u32) -> Expr {
        // Structurally distinct per k: different precision → distinct sig.
        let t = DecimalType::new_unchecked(9 + k, 3);
        Expr::col(0, t, "a").mul(Expr::col(1, ty(), "b"))
    }

    fn refs(jit: &JitEngine, exprs: &[Expr]) -> Vec<(String, Expr)> {
        exprs
            .iter()
            .filter_map(|e| jit.signature(e).map(|s| (s, e.clone())))
            .collect()
    }

    #[test]
    fn owner_takes_the_miss_and_everyone_else_hits() {
        let jit = JitEngine::with_defaults();
        let arena = Arc::new(CompileArena::new(jit.fork(), 2));
        let e = expr(0);
        let k = refs(&jit, std::slice::from_ref(&e));
        arena.register(1, 1.0, 10, &k); // query 10 owns the signature
        arena.register(2, 1.0, 11, &k); // query 11 dedups against it

        // The owner's rendezvous returns the prefetched miss.
        let (_, info) = arena.rendezvous(10, &e).expect("registered");
        assert!(!info.cached, "owner takes the compile miss");
        assert!(info.modeled_compile_s > 0.25);
        // The dedup'd query waits for completion, then records a hit.
        let (_, info2) = arena.rendezvous(11, &e).expect("registered");
        assert!(info2.cached);
        // A second arrival from the owner is an ordinary hit too.
        let (_, info3) = arena.rendezvous(10, &e).expect("registered");
        assert!(info3.cached);

        let s = arena.stats();
        assert_eq!(s.registered, 2);
        assert_eq!(s.compiles_started, 1);
        assert_eq!(s.cross_query_dedups, 1);
        assert_eq!(s.prefetched_taken, 1);
        // Cache counters match a serial replay: one miss, two hits.
        let cs = jit.cache_stats();
        assert_eq!((cs.misses, cs.hits), (1, 2), "{cs:?}");
    }

    #[test]
    fn unregistered_signatures_fall_through() {
        let jit = JitEngine::with_defaults();
        let arena = Arc::new(CompileArena::new(jit.fork(), 1));
        assert!(arena.rendezvous(1, &expr(5)).is_none());
        // Passthrough expressions have no signature at all.
        let p = Expr::lit("1").unwrap().add(Expr::col(0, ty(), "a"));
        assert!(arena.rendezvous(1, &p).is_none());
    }

    #[test]
    fn query_done_drops_owned_entries_but_keeps_cached_kernels() {
        let jit = JitEngine::with_defaults();
        let arena = Arc::new(CompileArena::new(jit.fork(), 4));
        let e = expr(1);
        let k = refs(&jit, std::slice::from_ref(&e));
        arena.register(1, 1.0, 20, &k);
        let _ = arena.rendezvous(20, &e).expect("owner take");
        arena.query_done(20);
        // The entry is gone → later queries compile normally and hit
        // the shared cache (which still holds the kernel).
        assert!(arena.rendezvous(21, &e).is_none());
        let (_, info) = jit.compile(&e);
        assert!(info.cached);
    }

    #[test]
    fn lanes_bound_concurrent_compiles_and_drain_the_queue() {
        let jit = JitEngine::with_defaults();
        let arena = Arc::new(CompileArena::new(jit.fork(), 2));
        let exprs: Vec<Expr> = (0..6).map(expr).collect();
        let k = refs(&jit, &exprs);
        assert_eq!(k.len(), 6);
        arena.register(1, 1.0, 1, &k);
        assert!(arena.stats().lanes_busy <= 2);
        // Every rendezvous completes; the owner takes each miss once.
        for e in &exprs {
            let (_, info) = arena.rendezvous(1, e).expect("registered");
            assert!(!info.cached);
        }
        let s = arena.stats();
        assert_eq!(s.compiles_started, 6);
        assert_eq!(s.prefetched_taken, 6);
        assert_eq!(s.queued, 0);
        assert_eq!(jit.cache_stats().misses, 6);
    }
}
