//! The JIT engine: optimization pipeline, shared kernel cache, and
//! compile-time accounting.
//!
//! Expressions are optimized (§III-D), compiled to kernels (§III-B2), and
//! cached by structural signature so repeated queries skip compilation.
//! The cache is a thread-safe, lock-striped LRU ([`SharedKernelCache`])
//! that can be shared across many engines via `Arc` — the way RateupDB's
//! server lets concurrent sessions reuse each other's compiled artifacts.
//! Compile time is reported two ways: the *actual* time this Rust code
//! spent building the IR (microseconds) and the *modeled* NVCC latency a
//! real deployment pays (§IV-D1 reports 320–423 ms for TPC-H Q1), so
//! harnesses can report the same compile/execute split the paper does.

use crate::codegen::{compile_expr_with, CodegenOptions, CompiledExpr};
use crate::constfold::{fold_constants, prealign_constants};
use crate::expr::Expr;
use crate::nary::NExpr;
use crate::schedule::schedule_alignment;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use up_gpusim::cost::modeled_compile_time_s;

/// Which §III-D rewrites run before code generation. All on by default;
/// the Fig. 10–12 ablation harnesses toggle them individually.
#[derive(Clone, Copy, Debug)]
pub struct JitOptions {
    /// Alignment scheduling (§III-D1).
    pub schedule_alignment: bool,
    /// Constant grouping + pre-calculation and shortcuts (§III-D2).
    pub fold_constants: bool,
    /// Compile-time constant alignment (Fig. 7's final step).
    pub prealign_constants: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions { schedule_alignment: true, fold_constants: true, prealign_constants: true }
    }
}

impl JitOptions {
    /// Every optimization disabled — the ablation baseline.
    pub fn none() -> Self {
        JitOptions { schedule_alignment: false, fold_constants: false, prealign_constants: false }
    }
}

/// Compilation outcome: a kernel, or nothing to run at all.
#[derive(Clone, Debug)]
pub enum Compiled {
    /// A generated kernel.
    Kernel(Arc<CompiledExpr>),
    /// The optimized expression is a bare column or constant — "no GPU
    /// kernel is generated" (§IV-B3's `1+a+2−3` case). The engine copies
    /// or broadcasts instead.
    Passthrough(Expr),
}

/// Metadata of one compile request.
#[derive(Clone, Copy, Debug)]
pub struct CompileInfo {
    /// Served from the kernel cache.
    pub cached: bool,
    /// Seconds this process actually spent optimizing + building IR.
    pub build_s: f64,
    /// Modeled NVCC compile latency (0 when cached or passthrough).
    pub modeled_compile_s: f64,
}

/// Point-in-time kernel-cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Compile requests served from the cache.
    pub hits: u64,
    /// Compile requests that built a new kernel.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Kernels currently resident.
    pub entries: usize,
    /// Total capacity across all shards.
    pub capacity: usize,
    /// Heap bytes the resident kernels hold (the sum of
    /// [`up_gpusim::Kernel::heap_bytes`]).
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default capacity of a per-engine cache, in kernels. A kernel keeps its
/// statement tree and its decoded program: a `wire_cold`-shaped kernel
/// (a signed sum of products, ~700 decoded ops) holds ~39 KB, 56 B per
/// op (a 16-B tree node and a 40-B decoded op), where 56-B tree nodes
/// with `Vec` slack and a decoded program grown by doubling held ~135 KB
/// (~190 B per op). A full cache of such kernels is ~10 MB. The bound
/// keeps long-lived services from accumulating every signature ever seen.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Default lock-stripe count for shared caches.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

struct Entry {
    kernel: Arc<CompiledExpr>,
    last_use: u64,
}

/// The rendezvous of one signature being built outside its shard's lock:
/// callers that find it wait until the build ends, then look again.
#[derive(Default)]
struct InFlight {
    done: Mutex<bool>,
    ended: Condvar,
}

impl InFlight {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self.ended.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    /// Signatures being built now. Not entries: never counted, never
    /// evicted.
    building: HashMap<String, Arc<InFlight>>,
    tick: u64,
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // No user code runs under a shard lock, so a poisoned one (an
    // allocation failure, say) still holds whole entries.
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ends a build, published or unwound by a panicking `build`: removes
/// its in-flight marker and wakes the waiters so they look the signature
/// up again (and find the kernel, or build it themselves).
struct BuildGuard<'a> {
    shard: &'a Mutex<Shard>,
    sig: &'a str,
    flight: Arc<InFlight>,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        lock(self.shard).building.remove(self.sig);
        *self.flight.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.flight.ended.notify_all();
    }
}

/// A thread-safe kernel cache: lock-striped over signature hash, each
/// shard an LRU bounded at `capacity / shards` entries. Cloning the `Arc`
/// and handing it to several [`JitEngine`]s makes concurrent sessions
/// reuse each other's compiled kernels — compilation happens at most once
/// per distinct signature. A miss builds outside its shard's lock, so a
/// slow compile stalls no lookup of another signature; a racing lookup of
/// the *same* signature waits for the build and then hits.
pub struct SharedKernelCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    next_id: AtomicU64,
}

impl SharedKernelCache {
    /// New cache bounded at roughly `capacity` kernels over the default
    /// stripe count.
    pub fn new(capacity: usize) -> SharedKernelCache {
        Self::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// New cache with an explicit stripe count (1 = exact global LRU,
    /// useful for deterministic tests; more stripes = less contention).
    pub fn with_shards(capacity: usize, shards: usize) -> SharedKernelCache {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        SharedKernelCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, sig: &str) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        sig.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `sig`, compiling and inserting on a miss. `build` receives
    /// a process-unique kernel id. Returns the kernel and whether it was
    /// served from cache.
    ///
    /// `build` runs without the shard lock, behind an in-flight marker: a
    /// racing caller for the same signature waits and returns the built
    /// kernel as a hit, so each signature still builds once. If `build`
    /// panics, the panic reaches this caller, the marker goes, and the
    /// next caller builds.
    pub fn get_or_compile(
        &self,
        sig: &str,
        build: impl FnOnce(u64) -> CompiledExpr,
    ) -> (Arc<CompiledExpr>, bool) {
        let shard = self.shard_of(sig);
        let flight = loop {
            let mut s = lock(shard);
            s.tick += 1;
            let tick = s.tick;
            if let Some(e) = s.map.get_mut(sig) {
                e.last_use = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(&e.kernel), true);
            }
            match s.building.get(sig).map(Arc::clone) {
                Some(flight) => {
                    drop(s);
                    flight.wait();
                }
                None => {
                    let flight = Arc::new(InFlight::default());
                    s.building.insert(sig.to_string(), Arc::clone(&flight));
                    break flight;
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let guard = BuildGuard { shard, sig, flight };
        let kernel = Arc::new(build(id));
        let mut s = lock(shard);
        s.tick += 1;
        let tick = s.tick;
        s.map.insert(sig.to_string(), Entry { kernel: Arc::clone(&kernel), last_use: tick });
        if s.map.len() > self.shard_capacity {
            // Evict the least-recently-used entry of this shard.
            if let Some(lru) = s.map.iter().min_by_key(|(_, e)| e.last_use).map(|(k, _)| k.clone())
            {
                s.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(s);
        drop(guard);
        (kernel, false)
    }

    /// Holders of `sig`'s in-flight marker (the shard map, the builder
    /// and each waiter), 0 when it is not being built.
    #[cfg(test)]
    fn in_flight_holders(&self, sig: &str) -> usize {
        lock(self.shard_of(sig)).building.get(sig).map_or(0, Arc::strong_count)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut resident_bytes) = (0, 0);
        for shard in &self.shards {
            let s = lock(shard);
            entries += s.map.len();
            resident_bytes += s.map.values().map(|e| e.kernel.kernel.heap_bytes()).sum::<usize>();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.shard_capacity * self.shards.len(),
            resident_bytes,
        }
    }
}

/// The JIT compilation engine over a (possibly shared) kernel cache.
///
/// All methods take `&self`: cache and counters use interior mutability,
/// so one engine can serve concurrent read-only queries. A default engine
/// owns a private cache; [`JitEngine::with_cache`] plugs in a shared one.
pub struct JitEngine {
    opts: JitOptions,
    cache: Arc<SharedKernelCache>,
}

impl JitEngine {
    /// New engine with the given optimization switches and a private,
    /// bounded kernel cache.
    pub fn new(opts: JitOptions) -> JitEngine {
        Self::with_cache(opts, Arc::new(SharedKernelCache::new(DEFAULT_CACHE_CAPACITY)))
    }

    /// New engine with all optimizations on.
    pub fn with_defaults() -> JitEngine {
        Self::new(JitOptions::default())
    }

    /// New engine over an existing (shared) kernel cache.
    pub fn with_cache(opts: JitOptions, cache: Arc<SharedKernelCache>) -> JitEngine {
        JitEngine { opts, cache }
    }

    /// Runs the §III-D optimization pipeline on an expression.
    pub fn optimize(&self, expr: &Expr) -> Expr {
        let mut n = NExpr::from_expr(expr);
        if self.opts.fold_constants {
            n = fold_constants(n);
        }
        if self.opts.schedule_alignment {
            n = schedule_alignment(n);
        }
        if self.opts.prealign_constants {
            n = prealign_constants(n);
        }
        n.to_expr()
    }

    /// The cache key `compile` uses for an already-optimized expression.
    fn sig_of(&self, optimized: &Expr) -> String {
        format!("{}|rtc={}", optimized.signature(), !self.opts.fold_constants)
    }

    /// The cache signature [`JitEngine::compile`] would use for `expr`,
    /// or `None` when the optimized expression is a passthrough (bare
    /// column / constant — never compiled, never cached).
    /// `up_engine::Database::plan_kernels` uses it to name a plan's
    /// kernels without compiling them.
    pub fn signature(&self, expr: &Expr) -> Option<String> {
        let optimized = self.optimize(expr);
        match optimized {
            Expr::Col { .. } | Expr::Const(_) => None,
            e => Some(self.sig_of(&e)),
        }
    }

    /// Optimizes and compiles an expression, consulting the cache.
    pub fn compile(&self, expr: &Expr) -> (Compiled, CompileInfo) {
        let t0 = Instant::now();
        let optimized = self.optimize(expr);
        match optimized {
            Expr::Col { .. } | Expr::Const(_) => {
                let info = CompileInfo {
                    cached: false,
                    build_s: t0.elapsed().as_secs_f64(),
                    modeled_compile_s: 0.0,
                };
                (Compiled::Passthrough(optimized), info)
            }
            e => {
                let copts = CodegenOptions {
                    // Without constant construction, literals convert to
                    // DECIMAL per tuple inside the kernel (§III-D2).
                    runtime_const_conversion: !self.opts.fold_constants,
                };
                let sig = self.sig_of(&e);
                let (compiled, cached) = self.cache.get_or_compile(&sig, |id| {
                    let name = format!("calc_expr_{id}");
                    compile_expr_with(&e, &name, copts)
                });
                let modeled = if cached {
                    0.0
                } else {
                    // `static_inst_count` also builds the kernel's decoded
                    // program (cached on the kernel), so decode happens
                    // once here at compile time and every cache hit —
                    // local or via the shared server cache — reuses it.
                    // The closure-compiled tier is deliberately *not*
                    // built here: cold kernels stay on the decoded
                    // interpreter, and tier promotion (launch-count
                    // crossing `up_gpusim::TIER_THRESHOLD`) builds the
                    // artifact into the same cached kernel's
                    // `OnceLock<Arc>`, so one promotion serves every
                    // session that hits this cache entry.
                    modeled_compile_time_s(compiled.kernel.static_inst_count())
                };
                let info = CompileInfo {
                    cached,
                    build_s: t0.elapsed().as_secs_f64(),
                    modeled_compile_s: modeled,
                };
                (Compiled::Kernel(compiled), info)
            }
        }
    }

    /// Cache counters (hits, misses, evictions, occupancy).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use up_num::DecimalType;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn cache_hits_on_identical_structure() {
        let jit = JitEngine::with_defaults();
        let e = Expr::col(0, ty(4, 2), "a").add(Expr::col(1, ty(4, 1), "b"));
        let (c1, i1) = jit.compile(&e);
        let (c2, i2) = jit.compile(&e);
        assert!(!i1.cached);
        assert!(i2.cached);
        assert!(i1.modeled_compile_s > 0.25); // NVCC front-end floor
        assert_eq!(i2.modeled_compile_s, 0.0);
        match (c1, c2) {
            (Compiled::Kernel(k1), Compiled::Kernel(k2)) => {
                assert!(Arc::ptr_eq(&k1, &k2));
            }
            _ => panic!("expected kernels"),
        }
        let s = jit.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn cache_hits_share_the_decoded_program() {
        // Compiling builds the decoded program (via the compile-time
        // model's static_inst_count); hits must reuse it rather than
        // re-decoding per launch.
        let jit = JitEngine::with_defaults();
        let e = Expr::col(0, ty(6, 2), "a").mul(Expr::col(1, ty(6, 2), "b"));
        let (c1, _) = jit.compile(&e);
        let (c2, _) = jit.compile(&e);
        let (Compiled::Kernel(k1), Compiled::Kernel(k2)) = (c1, c2) else {
            panic!("expected kernels");
        };
        // Same Arc<CompiledExpr> → same kernel → same decoded program.
        // (Build/hit counters are process-global, so only pointer
        // identity is asserted here — counts would race other tests.)
        assert!(Arc::ptr_eq(k1.kernel.decoded_program(), k2.kernel.decoded_program()));
    }

    #[test]
    fn cache_hits_share_the_compiled_tier_artifact() {
        // Tier promotion builds the closure-compiled program into the
        // cached kernel's `OnceLock<Arc>`; because cache hits hand out
        // the same `Arc<CompiledExpr>`, one promotion must serve every
        // session. Forcing the build through either handle must yield
        // pointer-identical artifacts.
        let jit = JitEngine::with_defaults();
        let e = Expr::col(0, ty(6, 2), "a").add(Expr::col(1, ty(6, 2), "b"));
        let (c1, _) = jit.compile(&e);
        let (c2, _) = jit.compile(&e);
        let (Compiled::Kernel(k1), Compiled::Kernel(k2)) = (c1, c2) else {
            panic!("expected kernels");
        };
        // JIT compilation must NOT eagerly build the closure tier: cold
        // kernels stay on the decoded interpreter.
        assert!(!k1.kernel.compiled_tier_built());
        let p1 = k1.kernel.compiled_program().clone();
        // The build through k1 is visible through k2 — shared artifact.
        assert!(k2.kernel.compiled_tier_built());
        assert!(Arc::ptr_eq(&p1, k2.kernel.compiled_program()));
    }

    #[test]
    fn trivial_expression_generates_no_kernel() {
        // 1 + a + 2 − 3 → a (§IV-B3: "no GPU kernel is generated").
        let jit = JitEngine::with_defaults();
        let e = Expr::lit("1")
            .unwrap()
            .add(Expr::col(0, ty(12, 10), "a"))
            .add(Expr::lit("2").unwrap())
            .sub(Expr::lit("3").unwrap());
        let (c, info) = jit.compile(&e);
        assert!(matches!(c, Compiled::Passthrough(Expr::Col { .. })));
        assert_eq!(info.modeled_compile_s, 0.0);
    }

    #[test]
    fn optimizations_reduce_kernel_size() {
        let a = || Expr::col(0, ty(12, 10), "a");
        let e = Expr::lit("1")
            .unwrap()
            .add(a())
            .add(Expr::lit("2").unwrap())
            .add(Expr::lit("11").unwrap());
        let on = JitEngine::with_defaults();
        let off = JitEngine::new(JitOptions::none());
        let (k_on, _) = on.compile(&e);
        let (k_off, _) = off.compile(&e);
        let (Compiled::Kernel(k_on), Compiled::Kernel(k_off)) = (k_on, k_off) else {
            panic!("expected kernels");
        };
        assert!(
            k_on.kernel.static_inst_count() < k_off.kernel.static_inst_count(),
            "{} !< {}",
            k_on.kernel.static_inst_count(),
            k_off.kernel.static_inst_count()
        );
    }

    #[test]
    fn distinct_types_do_not_collide_in_cache() {
        let jit = JitEngine::with_defaults();
        let e1 = Expr::col(0, ty(4, 2), "a").add(Expr::col(1, ty(4, 1), "b"));
        let e2 = Expr::col(0, ty(9, 2), "a").add(Expr::col(1, ty(4, 1), "b"));
        jit.compile(&e1);
        let (_, i2) = jit.compile(&e2);
        assert!(!i2.cached);
        let s = jit.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn lru_capacity_bound_evicts_coldest() {
        // Single shard → exact LRU semantics.
        let cache = Arc::new(SharedKernelCache::with_shards(2, 1));
        let jit = JitEngine::with_cache(JitOptions::default(), cache);
        let exprs: Vec<Expr> = (1..=3)
            .map(|p| Expr::col(0, ty(4 + p, 2), "a").add(Expr::col(1, ty(4, 1), "b")))
            .collect();
        jit.compile(&exprs[0]); // cache: [0]
        jit.compile(&exprs[1]); // cache: [0, 1]
        jit.compile(&exprs[0]); // touch 0 → 1 is now LRU
        jit.compile(&exprs[2]); // evicts 1
        let s = jit.cache_stats();
        assert_eq!(s.evictions, 1, "{s:?}");
        assert_eq!(s.entries, 2);
        // 0 survived (hit), 1 was evicted (miss again), totals add up.
        let (_, i0) = jit.compile(&exprs[0]);
        assert!(i0.cached);
        let (_, i1) = jit.compile(&exprs[1]);
        assert!(!i1.cached);
        let s = jit.cache_stats();
        assert_eq!(s.misses, 4, "{s:?}"); // 3 distinct + 1 re-compile
    }

    #[test]
    fn shared_cache_compiles_each_signature_once_across_engines() {
        let cache = Arc::new(SharedKernelCache::new(64));
        let e = Expr::col(0, ty(6, 2), "a").mul(Expr::col(1, ty(6, 2), "b"));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&cache);
            let expr = e.clone();
            handles.push(std::thread::spawn(move || {
                let jit = JitEngine::with_cache(JitOptions::default(), c);
                let (compiled, _) = jit.compile(&expr);
                match compiled {
                    Compiled::Kernel(k) => Arc::as_ptr(&k) as usize,
                    _ => panic!("expected kernel"),
                }
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "all threads share one kernel");
        let s = cache.stats();
        assert_eq!(s.misses, 1, "{s:?}"); // compiled exactly once
        assert_eq!(s.hits, 7, "{s:?}");
        assert!((s.hit_rate() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn resident_bytes_sum_the_resident_kernels_only() {
        let cache = Arc::new(SharedKernelCache::with_shards(4, 1));
        let jit = JitEngine::with_cache(JitOptions::default(), Arc::clone(&cache));
        let kernels: Vec<Arc<CompiledExpr>> = (1..=6)
            .map(|p| {
                let e = Expr::col(0, ty(4 + p, 2), "a").mul(Expr::col(1, ty(6, 2), "b"));
                let (Compiled::Kernel(k), _) = jit.compile(&e) else { panic!("expected a kernel") };
                k
            })
            .collect();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (4, 2), "{s:?}");
        // The two oldest were evicted: only the last four count.
        let resident: usize = kernels[2..].iter().map(|k| k.kernel.heap_bytes()).sum();
        assert_eq!(s.resident_bytes, resident);
        assert!(kernels[..2].iter().all(|k| k.kernel.heap_bytes() > 0));
    }

    fn kernel(name: &str) -> CompiledExpr {
        let e = Expr::col(0, ty(6, 2), "a").add(Expr::col(1, ty(6, 2), "b"));
        compile_expr_with(&e, name, CodegenOptions::default())
    }

    /// Starts building `sig` on a new thread whose `build` parks until
    /// the returned sender fires and then calls `finish`; returns once
    /// the build has started.
    fn park_build(
        cache: &Arc<SharedKernelCache>,
        sig: &'static str,
        finish: fn(&str) -> CompiledExpr,
    ) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<(Arc<CompiledExpr>, bool)>) {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let c = Arc::clone(cache);
        let builder = std::thread::spawn(move || {
            c.get_or_compile(sig, |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                finish(sig)
            })
        });
        started_rx.recv().unwrap();
        (release_tx, builder)
    }

    /// Calls `get_or_compile(sig)` on a new thread and returns once that
    /// call waits on the build in flight.
    fn wait_on_build(
        cache: &Arc<SharedKernelCache>,
        sig: &'static str,
        build: fn(u64) -> CompiledExpr,
    ) -> std::thread::JoinHandle<(Arc<CompiledExpr>, bool)> {
        let c = Arc::clone(cache);
        let waiter = std::thread::spawn(move || c.get_or_compile(sig, build));
        // The shard map, the builder and the waiter hold the marker.
        let t0 = std::time::Instant::now();
        while cache.in_flight_holders(sig) < 3 {
            assert!(t0.elapsed().as_secs() < 5, "the second caller never found {sig} in flight");
            std::thread::yield_now();
        }
        waiter
    }

    #[test]
    fn a_slow_build_does_not_block_other_signatures_of_its_shard() {
        let cache = Arc::new(SharedKernelCache::with_shards(8, 1));
        let (release, builder) = park_build(&cache, "A", kernel);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&cache);
        let other = std::thread::spawn(move || {
            let (_, cached) = c.get_or_compile("B", |_| kernel("B"));
            done_tx.send(cached).unwrap();
        });
        let got = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        release.send(()).unwrap();
        assert!(!builder.join().unwrap().1);
        other.join().unwrap();
        assert_eq!(got, Ok(false), "B waited for A's build");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 0, 2), "{s:?}");
    }

    #[test]
    fn a_racing_caller_waits_for_the_build_and_hits() {
        let cache = Arc::new(SharedKernelCache::with_shards(8, 1));
        let (release, builder) = park_build(&cache, "A", kernel);
        let waiter = wait_on_build(&cache, "A", |_| panic!("A is built once"));
        release.send(()).unwrap();
        let (built, cached) = builder.join().unwrap();
        assert!(!cached);
        let (got, cached) = waiter.join().unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&built, &got));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1), "{s:?}");
    }

    #[test]
    fn a_panicking_build_leaves_the_signature_buildable() {
        let cache = Arc::new(SharedKernelCache::with_shards(8, 1));
        let (release, builder) = park_build(&cache, "A", |_| panic!("codegen bug"));
        let waiter = wait_on_build(&cache, "A", |_| kernel("A"));
        release.send(()).unwrap();
        assert!(builder.join().is_err(), "the panic reaches the builder's caller");
        // The waiter woke, found no kernel and no marker, and built A.
        let (k, cached) = waiter.join().unwrap();
        assert!(!cached);
        assert_eq!(k.kernel.name, "A");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 0, 1), "{s:?}");
        assert_eq!(cache.in_flight_holders("A"), 0);
    }

    #[test]
    fn signature_matches_compile_routing() {
        let jit = JitEngine::with_defaults();
        // A real kernel has a signature; compiling it afterwards misses
        // once and a re-derived signature still matches the cached entry.
        let e = Expr::col(0, ty(6, 2), "a").mul(Expr::col(1, ty(6, 2), "b"));
        let sig = jit.signature(&e).expect("kernel expression has a signature");
        let (c, i) = jit.compile(&e);
        assert!(matches!(c, Compiled::Kernel(_)));
        assert!(!i.cached);
        assert_eq!(jit.signature(&e).as_deref(), Some(sig.as_str()));
        // A passthrough (1 + a + 2 − 3 → a) never compiles → no signature.
        let p = Expr::lit("1")
            .unwrap()
            .add(Expr::col(0, ty(12, 10), "a"))
            .add(Expr::lit("2").unwrap())
            .sub(Expr::lit("3").unwrap());
        assert_eq!(jit.signature(&p), None);
    }
}
