//! Tier-3 executor: closure-compiled ("threaded code") kernel programs
//! with count-based tier promotion.
//!
//! The tier-2 interpreter in [`crate::decoded`] already runs full-mask
//! superblocks with no divergence bookkeeping, but it still pays one trip
//! through a ~40-arm `DOp` match per instruction and updates the stats
//! fields per instruction. This module *compiles* each superblock once
//! into a chain of small monomorphized Rust closures over the same
//! structure-of-arrays register file:
//!
//! * Register-only ops lower to one tiny closure each — the operand
//!   offsets are captured as constants and each closure body is a single
//!   lane-inner loop the autovectorizer can SIMD across the 32 lanes,
//!   instead of one arm buried inside a giant match.
//! * Maximal runs of carry-chain ops (`add.cc`/`addc`/`sub.cc`/`subc`/
//!   `mad.lo.cc`/`madc.hi` — the spine of every multi-limb add and
//!   school-book multiply) fuse into a *single* register-tiled closure.
//!   The carry flags are one more 0/1 lane row of the warp state
//!   (`DCtx::carry`): the chain loads it into a local tile once, runs
//!   every op as a straight 32-lane add/compare loop the autovectorizer
//!   SIMDs (no per-lane bit extraction or mask folding), and stores the
//!   tile once at the end.
//! * Those lane loops run at the widest vector width the CPU offers, with
//!   nothing to configure. Every function that writes a thunk closure is
//!   generated twice from one macro body: once for the build target
//!   (SSE2 on x86-64), once under `#[target_feature(enable =
//!   "avx512f,avx512bw,avx512dq,avx512vl")]`, and a closure takes on the
//!   target features of the function it is written in. [`compile`] uses
//!   the AVX-512 set when [`thunk_isa`] finds all four features on the
//!   CPU and records the choice ([`CompiledProgram::isa`]). Every lowered
//!   op is a total integer op on fixed lanes, so the width decides only
//!   how many lanes one host instruction covers — never a register, a
//!   predicate, a stat or a bit of `warp_issue_cycles`.
//! * Per-instruction stats collapse to one batched update per straight-
//!   line segment, the f64 `warp_issue_cycles` included: every issue cost
//!   is a non-negative integer and the running sum stays far below 2⁵³,
//!   so the additions are exact, hence associative, and a segment adds
//!   its pre-summed cost in one step with the interpreter's bits.
//! * Global-memory ops (`ld`/`st`, word and byte) lower to first-class
//!   `Step::Mem` descriptors run by `exec_mem` straight against
//!   [`crate::GlobalMem`]. A flow-sensitive affine-address
//!   analysis recognizes the `base + gid·stride` shape every byte codec
//!   kernel emits; when the hint re-verifies against the live registers,
//!   the thunk does one warp-wide bounds check plus one `SectorSeen`
//!   coalescing pass and moves all 32 lanes with bulk strided copies
//!   (`GlobalMem::{load,store}_*_affine`) instead of per-lane per-byte
//!   calls, and the coalescing pass counts sectors from `(base, stride,
//!   n, width)` ([`note_transactions_affine`]) instead of from 32
//!   addresses. Stats and coalescing state are replayed in program
//!   order, so the fast path is bit-identical to the interpreter;
//!   non-affine or out-of-bounds warps fall back to the interpreter's
//!   exact per-lane loop.
//! * Compact-codec byte runs — the `ld.global.u8`/`add addr,1`/`shl`/`or`
//!   expansion of one DECIMAL column and its mirror-image store — fuse
//!   into one `Step::Fused` each: a symbolic evaluation of the run (see
//!   [`scan_codec_run`]) reduces every written row to
//!   `konst | OR of ((leaf >> shr) & mask) << shl` over loaded bytes and
//!   run-entry rows, keeps the rows [`crate::analysis`] finds live at the
//!   run's end, and regroups the bytes into little-endian words, so at
//!   run time the step verifies the address row once, coalesces once,
//!   gathers or scatters ~`Lw` word planes and writes each live row once.
//!   A warp that fails the step's two preconditions runs the same
//!   instructions lowered the ordinary way.
//! * Shared-memory ops, `ld.param`, and `DivBig` (data-dependent cycles)
//!   stay interpreter steps (`Step::Interp`) executed by the *same*
//!   `exec_dop` the decoded tier uses, frame-for-frame. The step is not
//!   where `DivBig`'s time goes: its arm divides the whole warp with one
//!   lane-parallel Algorithm D at AVX-512 width (module `divbig`),
//!   chosen by [`thunk_isa`] like the ALU thunks, so both tiers share it.
//!
//! Divergent regions and control flow never reach this module: the
//! decoded interpreter's `run_warp` only enters a compiled superblock
//! when the warp is fully converged, and falls back to its own loop
//! everywhere else. Outputs, [`crate::ExecStats`], and error surfaces are
//! therefore bit-identical across tree/decoded/compiled — the
//! differential fuzz suites in [`crate::decoded`] enforce it.
//!
//! **Promotion.** Compiling costs one pass over the decoded program plus
//! a closure allocation per instruction, so cold kernels should not pay
//! it. Under [`crate::ExecBackend::Auto`] each kernel counts its launches
//! ([`TierCache`]); once the count exceeds [`TIER_THRESHOLD`] the kernel
//! is promoted and the compiled artifact is cached in an `OnceLock<Arc<_>>` on the kernel — shared by
//! clones and the `up-jit` kernel cache, so one compile serves every
//! session that hits the same cached kernel.

#[cfg(test)]
use crate::analysis::seeded_bug;
use crate::analysis::{analyze, Facts};
use crate::decoded::{DCtx, DOp, DecodedProgram, MemOpKind, Op};
use crate::exec::{full_mask, note_transactions, note_transactions_affine, Geometry, SimError};
use crate::ptx::{AddrForm, Kernel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A compiled straight-line segment body: mutates registers, predicates,
/// and the carry row of a fully-converged warp. Never touches memory or
/// stats, never fails.
type AluThunk =
    Box<dyn Fn(&mut [u32], &mut [u32], &mut [u32; 32], &Geometry, usize) + Send + Sync>;

/// One step of a compiled superblock.
enum Step {
    /// A run of `insts` register-only instructions costing `cycles` in
    /// total: stats are applied in one batch, then the closures run (a
    /// fused carry chain is one thunk covering several instructions).
    Alu { thunks: Box<[AluThunk]>, insts: u64, cycles: f64 },
    /// A first-class lowered global-memory instruction, executed by
    /// [`exec_mem`].
    Mem(MemStep),
    /// A single instruction that touches shared memory/params or
    /// contributes data-dependent cycles — executed by the decoded tier's
    /// `exec_dop` with exactly the interpreter's per-instruction stats.
    Interp { dop: DOp, cycles: f64 },
    /// A fused compact-codec byte run (see [`scan_codec_run`]);
    /// `fallback` is the same instructions lowered the ordinary way, run
    /// when [`exec_fused`] reports a failed precondition.
    Fused { run: FusedRun, fallback: Box<[Step]> },
}

/// One lowered global-memory instruction: operand rows pre-resolved to
/// SoA offsets, plus the static affine-address hint. A plain descriptor
/// rather than a closure: [`exec_mem`] dispatches on it and calls the
/// `GlobalMem` bulk paths inline.
struct MemStep {
    kind: MemOpKind,
    buf: u8,
    addr: u32,
    data: u32,
    /// Lane-affine stride from [`analyze_addr_forms`]; `exec_mem`
    /// re-verifies it against the live address row before taking the
    /// bulk path, so a stale or unsound hint can only cost speed, never
    /// correctness.
    affine: Option<u32>,
    cycles: f64,
}

/// A compiled superblock: the steps of one maximal straight-line run plus
/// its exclusive end pc (where the interpreter resumes).
pub(crate) struct SuperBlock {
    steps: Box<[Step]>,
    pub(crate) end: u32,
}

/// A kernel's closure-compiled program, indexed by superblock start pc.
/// Built once per kernel at promotion (see [`TierCache`]) and shared by
/// every clone through the `Arc`.
pub struct CompiledProgram {
    /// `blocks[pc]` is `Some` iff `pc` starts a superblock.
    blocks: Vec<Option<SuperBlock>>,
    superblocks: usize,
    fused_chains: usize,
    fused_insts: usize,
    alu_insts: usize,
    interp_insts: usize,
    mem_insts: usize,
    affine_mem_insts: usize,
    lowered_superblocks: usize,
    fused_codec_mem_insts: usize,
    fused_runs: Vec<FusedRunInfo>,
    /// SoA offsets of the rows a warp must find zeroed (see
    /// [`Facts::entry_live_rows`]); every other row is written before it
    /// is read.
    entry_live: Box<[u32]>,
    isa: ThunkIsa,
}

/// Which build of the ALU thunk constructors a compiled program's
/// closures come from. Both compute the same bits; they differ in the
/// host vector width of their lane loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThunkIsa {
    /// Built for the compilation target (SSE2 on x86-64).
    Portable,
    /// Built with `avx512f`, `avx512bw`, `avx512dq` and `avx512vl`.
    Avx512,
}

impl ThunkIsa {
    /// The set's name in reports: `portable` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            ThunkIsa::Portable => "portable",
            ThunkIsa::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for ThunkIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The thunk set promotion compiles in this process: [`ThunkIsa::Avx512`]
/// when the CPU reports all four features that set is built with,
/// [`ThunkIsa::Portable`] otherwise and on every other architecture.
pub fn thunk_isa() -> ThunkIsa {
    #[cfg(test)]
    if let Some(isa) = tests::forced_isa::get() {
        return isa;
    }
    if avx512_detected() {
        ThunkIsa::Avx512
    } else {
        ThunkIsa::Portable
    }
}

pub(crate) fn avx512_detected() -> bool {
    // `std` caches the CPUID probe, so each check is one atomic load.
    #[cfg(target_arch = "x86_64")]
    let detected = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    detected
}

/// What promotion made of one compact-codec byte run: the static shape of
/// a fused step, for listings, counters and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedRunInfo {
    /// The flat-program pcs the run covers.
    pub pcs: std::ops::Range<usize>,
    /// A byte-store run (else a byte-load run).
    pub is_store: bool,
    /// Register rows the run's instructions write.
    pub rows_written: usize,
    /// Of those, rows live at the run's end — the only ones the fused
    /// step computes and writes.
    pub rows_live: usize,
    /// Of the live rows, compile-time constants (plain fills).
    pub rows_const: usize,
    /// Four-byte gathers (load run) or scatters (store run) the step
    /// performs per warp …
    pub word_planes: usize,
    /// … and single-byte ones.
    pub byte_planes: usize,
}

impl CompiledProgram {
    /// The compiled superblock starting at `pc`, if any.
    #[inline]
    pub(crate) fn block_at(&self, pc: usize) -> Option<&SuperBlock> {
        self.blocks.get(pc).and_then(|b| b.as_ref())
    }

    /// Superblocks lowered (same count as the decoded program's).
    pub fn superblock_count(&self) -> usize {
        self.superblocks
    }

    /// Carry-chain runs (length ≥ 2) fused into single closures.
    pub fn fused_chain_count(&self) -> usize {
        self.fused_chains
    }

    /// Instructions covered by fused carry-chain closures.
    pub fn fused_inst_count(&self) -> usize {
        self.fused_insts
    }

    /// Instructions kept as interpreter fallback steps (shared memory,
    /// params, `DivBig`).
    pub fn interp_inst_count(&self) -> usize {
        self.interp_insts
    }

    /// Global-memory instructions lowered to first-class mem thunks.
    pub fn mem_inst_count(&self) -> usize {
        self.mem_insts
    }

    /// Lowered mem thunks carrying a lane-affine address hint (eligible
    /// for the warp-wide bulk fast path).
    pub fn affine_mem_inst_count(&self) -> usize {
        self.affine_mem_insts
    }

    /// Superblocks fully lowered to closures and mem thunks — no
    /// interpreter fallback steps at all.
    pub fn lowered_superblock_count(&self) -> usize {
        self.lowered_superblocks
    }

    /// Superblocks containing at least one interpreter fallback step.
    pub fn fallback_superblock_count(&self) -> usize {
        self.superblocks - self.lowered_superblocks
    }

    /// The shape of every fused codec run, in program order.
    pub fn fused_runs(&self) -> &[FusedRunInfo] {
        &self.fused_runs
    }

    /// Compact-codec byte runs fused into single symbolic steps.
    pub fn fused_codec_run_count(&self) -> usize {
        self.fused_runs.len()
    }

    /// Instructions covered by fused codec runs (also counted in
    /// [`Self::alu_inst_count`]/[`Self::mem_inst_count`] through each
    /// run's unfused fallback).
    pub fn fused_codec_inst_count(&self) -> usize {
        self.fused_runs.iter().map(|r| r.pcs.len()).sum()
    }

    /// The rows a warp's register file must have zeroed before it runs
    /// this program; the rest may keep the previous warp's values.
    pub(crate) fn entry_live_rows(&self) -> &[u32] {
        &self.entry_live
    }

    /// Byte memory instructions covered by fused codec runs.
    pub fn fused_codec_mem_inst_count(&self) -> usize {
        self.fused_codec_mem_insts
    }

    /// The thunk set this program's ALU closures were built from.
    pub fn isa(&self) -> ThunkIsa {
        self.isa
    }
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledProgram({} superblocks ({} lowered), {} alu + {} mem ({} affine) + {} interp insts, {} fused chains, {} codec runs over {} insts, {} thunks)",
            self.superblocks,
            self.lowered_superblocks,
            self.alu_insts,
            self.mem_insts,
            self.affine_mem_insts,
            self.interp_insts,
            self.fused_chains,
            self.fused_codec_run_count(),
            self.fused_codec_inst_count(),
            self.isa
        )
    }
}

// ---------------------------------------------------------------------------
// Tier promotion: per-kernel launch counters + process-wide tier counters.
// ---------------------------------------------------------------------------

/// A kernel is promoted from decoded to compiled once its launch count
/// *exceeds* this bound: launches 1–2 interpret, 3+ run compiled. The
/// threshold exists for kernels that launch once (every statement of a
/// cold workload) and must not pay closure compile; nothing needs it
/// tuned.
pub const TIER_THRESHOLD: u64 = 2;

static COMPILE_BUILDS: AtomicU64 = AtomicU64::new(0);
static COMPILE_HITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide closure-compile counters: `(programs_built, cache_hits)`
/// — the tier-3 analogue of [`crate::decode_counters`].
pub fn compile_counters() -> (u64, u64) {
    (COMPILE_BUILDS.load(Ordering::Relaxed), COMPILE_HITS.load(Ordering::Relaxed))
}

/// Per-kernel compiled-tier cache: the launch counter driving promotion
/// and the `OnceLock`-cached compiled artifact. Clones share a built
/// artifact (the `Arc` is cloned); the JIT cache holds kernels behind
/// `Arc`, so one compile serves all sessions.
pub struct TierCache {
    program: OnceLock<Arc<CompiledProgram>>,
    launches: AtomicU64,
}

impl TierCache {
    /// Records one launch, returning its ordinal (1 for the first).
    pub(crate) fn record_launch(&self) -> u64 {
        self.launches.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether the compiled artifact has been built (i.e. the kernel has
    /// paid compile cost).
    pub(crate) fn built(&self) -> bool {
        self.program.get().is_some()
    }

    /// The compiled artifact, building it on first call. The second tuple
    /// element is `true` iff *this* call performed the build — the
    /// promotion event.
    pub(crate) fn get_or_compile(&self, kernel: &Kernel) -> (&Arc<CompiledProgram>, bool) {
        if let Some(p) = self.program.get() {
            COMPILE_HITS.fetch_add(1, Ordering::Relaxed);
            return (p, false);
        }
        let mut built = false;
        let p = self.program.get_or_init(|| {
            COMPILE_BUILDS.fetch_add(1, Ordering::Relaxed);
            built = true;
            Arc::new(compile(kernel))
        });
        (p, built)
    }
}

impl Default for TierCache {
    fn default() -> Self {
        TierCache { program: OnceLock::new(), launches: AtomicU64::new(0) }
    }
}

impl Clone for TierCache {
    fn clone(&self) -> Self {
        // Share a built artifact; the launch count is a per-kernel-object
        // statistic, so the clone starts from the source's current count.
        TierCache {
            program: self.program.clone(),
            launches: AtomicU64::new(self.launches.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for TierCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.program.get() {
            Some(p) => write!(f, "TierCache(compiled: {p:?}, launches: {})", self.launches.load(Ordering::Relaxed)),
            None => write!(f, "TierCache(decoded, launches: {})", self.launches.load(Ordering::Relaxed)),
        }
    }
}

/// Which tier actually executed a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTier {
    /// Reference `Stmt`-tree walker.
    Tree,
    /// Pre-decoded flat-program interpreter.
    Decoded,
    /// Closure-compiled superblocks (decoded fallback on divergence).
    Compiled,
}

/// Per-tier launch totals plus promotion events — process-wide via
/// [`tier_counters`], per-launch via [`last_launch_tiers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Launches executed by the tree walker.
    pub tree: u64,
    /// Launches executed by the decoded interpreter.
    pub decoded: u64,
    /// Launches executed by the closure-compiled tier.
    pub compiled: u64,
    /// Promotion events (a kernel's compiled artifact getting built under
    /// `auto` tiering).
    pub promotions: u64,
    /// Superblocks of compiled launches that are fully lowered (no
    /// interpreter fallback steps), summed per launch.
    pub lowered_superblocks: u64,
    /// Superblocks of compiled launches containing at least one
    /// interpreter fallback step, summed per launch.
    pub fallback_superblocks: u64,
    /// First-class lowered memory thunks in compiled launches, summed
    /// per launch (static counts, not dynamic executions).
    pub lowered_mem_thunks: u64,
    /// Instructions still executed as interpreter fallback frames inside
    /// compiled launches, summed per launch (static counts).
    pub fallback_insts: u64,
    /// Compact-codec byte runs fused into single steps in compiled
    /// launches, summed per launch (static counts).
    pub fused_codec_runs: u64,
    /// Instructions those fused runs cover, summed per launch.
    pub fused_codec_insts: u64,
    /// Register rows those fused runs compute and write (live at the
    /// run's end), summed per launch.
    pub fused_live_rows: u64,
    /// Rows the runs' instructions write that the fused steps skip as
    /// dead, summed per launch.
    pub fused_pruned_rows: u64,
    /// Four-byte gathers/scatters the fused steps perform in place of
    /// byte planes, summed per launch.
    pub fused_word_planes: u64,
    /// `DivBig` lanes the decoded and compiled tiers divided warp-wide …
    pub divbig_warp_lanes: u64,
    /// … and one at a time (a shorter or one-limb divisor, portable set).
    pub divbig_loop_lanes: u64,
}

impl TierCounters {
    /// Total launches across all tiers.
    pub fn total(&self) -> u64 {
        self.tree + self.decoded + self.compiled
    }
}

impl std::ops::AddAssign for TierCounters {
    fn add_assign(&mut self, rhs: TierCounters) {
        self.tree += rhs.tree;
        self.decoded += rhs.decoded;
        self.compiled += rhs.compiled;
        self.promotions += rhs.promotions;
        self.lowered_superblocks += rhs.lowered_superblocks;
        self.fallback_superblocks += rhs.fallback_superblocks;
        self.lowered_mem_thunks += rhs.lowered_mem_thunks;
        self.fallback_insts += rhs.fallback_insts;
        self.fused_codec_runs += rhs.fused_codec_runs;
        self.fused_codec_insts += rhs.fused_codec_insts;
        self.fused_live_rows += rhs.fused_live_rows;
        self.fused_pruned_rows += rhs.fused_pruned_rows;
        self.fused_word_planes += rhs.fused_word_planes;
        self.divbig_warp_lanes += rhs.divbig_warp_lanes;
        self.divbig_loop_lanes += rhs.divbig_loop_lanes;
    }
}

static TREE_LAUNCHES: AtomicU64 = AtomicU64::new(0);
static DECODED_LAUNCHES: AtomicU64 = AtomicU64::new(0);
static COMPILED_LAUNCHES: AtomicU64 = AtomicU64::new(0);
static PROMOTIONS: AtomicU64 = AtomicU64::new(0);
static LOWERED_SUPERBLOCKS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_SUPERBLOCKS: AtomicU64 = AtomicU64::new(0);
static LOWERED_MEM_THUNKS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_INSTS: AtomicU64 = AtomicU64::new(0);
static FUSED_CODEC_RUNS: AtomicU64 = AtomicU64::new(0);
static FUSED_CODEC_INSTS: AtomicU64 = AtomicU64::new(0);
static FUSED_LIVE_ROWS: AtomicU64 = AtomicU64::new(0);
static FUSED_PRUNED_ROWS: AtomicU64 = AtomicU64::new(0);
static FUSED_WORD_PLANES: AtomicU64 = AtomicU64::new(0);
static DIVBIG_WARP_LANES: AtomicU64 = AtomicU64::new(0);
static DIVBIG_LOOP_LANES: AtomicU64 = AtomicU64::new(0);

/// Process-wide per-tier launch counts and promotion events (e.g. for the
/// server metrics report).
pub fn tier_counters() -> TierCounters {
    TierCounters {
        tree: TREE_LAUNCHES.load(Ordering::Relaxed),
        decoded: DECODED_LAUNCHES.load(Ordering::Relaxed),
        compiled: COMPILED_LAUNCHES.load(Ordering::Relaxed),
        promotions: PROMOTIONS.load(Ordering::Relaxed),
        lowered_superblocks: LOWERED_SUPERBLOCKS.load(Ordering::Relaxed),
        fallback_superblocks: FALLBACK_SUPERBLOCKS.load(Ordering::Relaxed),
        lowered_mem_thunks: LOWERED_MEM_THUNKS.load(Ordering::Relaxed),
        fallback_insts: FALLBACK_INSTS.load(Ordering::Relaxed),
        fused_codec_runs: FUSED_CODEC_RUNS.load(Ordering::Relaxed),
        fused_codec_insts: FUSED_CODEC_INSTS.load(Ordering::Relaxed),
        fused_live_rows: FUSED_LIVE_ROWS.load(Ordering::Relaxed),
        fused_pruned_rows: FUSED_PRUNED_ROWS.load(Ordering::Relaxed),
        fused_word_planes: FUSED_WORD_PLANES.load(Ordering::Relaxed),
        divbig_warp_lanes: DIVBIG_WARP_LANES.load(Ordering::Relaxed),
        divbig_loop_lanes: DIVBIG_LOOP_LANES.load(Ordering::Relaxed),
    }
}

thread_local! {
    static LAST_LAUNCH: std::cell::Cell<Option<TierCounters>> =
        const { std::cell::Cell::new(None) };
}

/// Records a launch's tier (and, for compiled launches, the program's
/// lowered/fallback shape) on the process-wide counters and as this
/// thread's most recent launch (launches are synchronous, so the caller
/// can attribute it right after `launch_opts` returns).
pub(crate) fn note_launch(tier: ExecTier, promoted: bool, program: Option<&CompiledProgram>) {
    let mut t = TierCounters::default();
    match tier {
        ExecTier::Tree => t.tree = 1,
        ExecTier::Decoded => t.decoded = 1,
        ExecTier::Compiled => t.compiled = 1,
    }
    if promoted {
        t.promotions = 1;
    }
    if let Some(p) = program {
        t.lowered_superblocks = p.lowered_superblock_count() as u64;
        t.fallback_superblocks = p.fallback_superblock_count() as u64;
        t.lowered_mem_thunks = p.mem_inst_count() as u64;
        t.fallback_insts = p.interp_inst_count() as u64;
        t.fused_codec_runs = p.fused_codec_run_count() as u64;
        t.fused_codec_insts = p.fused_codec_inst_count() as u64;
        for r in p.fused_runs() {
            t.fused_live_rows += r.rows_live as u64;
            t.fused_pruned_rows += (r.rows_written - r.rows_live) as u64;
            t.fused_word_planes += r.word_planes as u64;
        }
    }
    TREE_LAUNCHES.fetch_add(t.tree, Ordering::Relaxed);
    DECODED_LAUNCHES.fetch_add(t.decoded, Ordering::Relaxed);
    COMPILED_LAUNCHES.fetch_add(t.compiled, Ordering::Relaxed);
    PROMOTIONS.fetch_add(t.promotions, Ordering::Relaxed);
    LOWERED_SUPERBLOCKS.fetch_add(t.lowered_superblocks, Ordering::Relaxed);
    FALLBACK_SUPERBLOCKS.fetch_add(t.fallback_superblocks, Ordering::Relaxed);
    LOWERED_MEM_THUNKS.fetch_add(t.lowered_mem_thunks, Ordering::Relaxed);
    FALLBACK_INSTS.fetch_add(t.fallback_insts, Ordering::Relaxed);
    FUSED_CODEC_RUNS.fetch_add(t.fused_codec_runs, Ordering::Relaxed);
    FUSED_CODEC_INSTS.fetch_add(t.fused_codec_insts, Ordering::Relaxed);
    FUSED_LIVE_ROWS.fetch_add(t.fused_live_rows, Ordering::Relaxed);
    FUSED_PRUNED_ROWS.fetch_add(t.fused_pruned_rows, Ordering::Relaxed);
    FUSED_WORD_PLANES.fetch_add(t.fused_word_planes, Ordering::Relaxed);
    LAST_LAUNCH.with(|c| c.set(Some(t)));
}

/// Adds a completed launch's `DivBig` lanes (`[warp path, per-lane loop]`)
/// to the process-wide counters and to this thread's most recent launch.
pub(crate) fn note_div_lanes([warp, lane_loop]: [u64; 2]) {
    DIVBIG_WARP_LANES.fetch_add(warp, Ordering::Relaxed);
    DIVBIG_LOOP_LANES.fetch_add(lane_loop, Ordering::Relaxed);
    let t = |t| TierCounters { divbig_warp_lanes: warp, divbig_loop_lanes: lane_loop, ..t };
    LAST_LAUNCH.with(|c| c.set(c.get().map(t)));
}

/// The most recent launch on *this* thread as a one-launch
/// [`TierCounters`] delta (all-zero if this thread has not launched).
/// Launches run synchronously on the calling thread, so reading this
/// immediately after a `launch_opts` call attributes that launch —
/// race-free even with concurrent launches on other threads. Compiled
/// launches also carry the program's lowered/fallback superblock and
/// mem-thunk shape.
pub fn last_launch_tiers() -> TierCounters {
    LAST_LAUNCH.with(|c| c.get()).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// Runs one compiled superblock over a fully-converged warp. Stats
/// batching is exact: the integer stats are associative, and so is the
/// f64 `warp_issue_cycles` sum, because every addend is a non-negative
/// integer (`issue_cycles`, the branch cost, `DivBig`'s probes × an
/// integer cost) and totals stay far below 2⁵³ — no addition ever rounds,
/// so a segment's pre-summed cost lands on the interpreter's bits
/// ([`lower_steps`] asserts the integrality it rests on).
pub(crate) fn run_superblock(
    sb: &SuperBlock,
    c: &mut DCtx<'_>,
    geom: &Geometry,
    lanes_n: usize,
    full: u32,
) -> Result<(), SimError> {
    run_steps(&sb.steps, c, geom, lanes_n, full)
}

fn run_steps(
    steps: &[Step],
    c: &mut DCtx<'_>,
    geom: &Geometry,
    lanes_n: usize,
    full: u32,
) -> Result<(), SimError> {
    for step in steps {
        match step {
            Step::Alu { thunks, insts, cycles } => {
                c.stats.warp_issues += insts;
                c.stats.thread_insts += insts * lanes_n as u64;
                c.stats.warp_issue_cycles += cycles;
                for t in thunks.iter() {
                    t(&mut c.regs, &mut c.preds, &mut c.carry, geom, lanes_n);
                }
            }
            Step::Mem(m) => {
                c.stats.warp_issues += 1;
                c.stats.warp_issue_cycles += m.cycles;
                c.stats.thread_insts += lanes_n as u64;
                exec_mem(m, c, lanes_n)?;
            }
            Step::Interp { dop, cycles } => {
                c.stats.warp_issues += 1;
                c.stats.warp_issue_cycles += *cycles;
                c.stats.thread_insts += lanes_n as u64;
                crate::decoded::exec_dop::<true>(c, dop, geom, full, lanes_n)?;
            }
            Step::Fused { run, fallback } => {
                if !exec_fused(run, c, lanes_n)? {
                    run_steps(fallback, c, geom, lanes_n, full)?;
                }
            }
        }
    }
    Ok(())
}

/// Executes one lowered memory thunk over a fully-converged warp.
///
/// The coalescing pass runs first, over exactly the addresses the
/// interpreter would pass — as `(base, stride, n, width)` when the static
/// lane-affine hint re-verifies against the live address row, as the
/// address slice otherwise — so `SectorSeen` mutations and the
/// transaction stats are identical by construction, including the epoch
/// window, which is the warp's own `c.seen` and therefore carries dedup
/// state across consecutive lowered thunks just like consecutive
/// interpreter steps. If the hint holds *and* the whole warp's span
/// bounds-checks once in u64 (which rules out u32 wraparound anywhere in
/// the span), the `GlobalMem` bulk `*_affine` paths move
/// all lanes at once; otherwise the interpreter's exact per-lane loop
/// runs — ascending lanes, error surfaced at the first failing lane, with
/// the same partial effects before it.
fn exec_mem(
    m: &MemStep,
    c: &mut DCtx<'_>,
    lanes_n: usize,
) -> Result<(), SimError> {
    let a = m.addr as usize;
    let d = m.data as usize;
    let n = lanes_n;
    let width = m.kind.width();
    let base = c.regs[a];
    let stride = m.affine.filter(|&s| is_lane_affine(&c.regs[a..a + n], base, s));
    match stride {
        Some(s) => note_transactions_affine(&mut c.stats, &mut c.seen, m.buf, base, s, n, width),
        None => note_transactions(&mut c.stats, &mut c.seen, m.buf, &c.regs[a..a + n], width),
    }
    if let Some(stride) = stride {
        let end = base as u64 + stride as u64 * (n as u64 - 1) + width as u64;
        if end <= c.mem.buf_len(m.buf) as u64 {
            let (mem, rows) = (&mut *c.mem, &mut c.regs[d..d + n]);
            match m.kind {
                MemOpKind::LdWord => mem.load_words_affine(m.buf, base, stride, rows),
                MemOpKind::LdByte => mem.load_bytes_affine(m.buf, base, stride, rows),
                MemOpKind::StWord => mem.store_words_affine(m.buf, base, stride, rows),
                MemOpKind::StByte => mem.store_bytes_affine(m.buf, base, stride, rows),
            }
            return Ok(());
        }
    }
    match m.kind {
        MemOpKind::LdWord => {
            for l in 0..n {
                c.regs[d + l] = c.mem.load_word(m.buf, c.regs[a + l])?;
            }
        }
        MemOpKind::LdByte => {
            for l in 0..n {
                c.regs[d + l] = c.mem.load_byte(m.buf, c.regs[a + l])? as u32;
            }
        }
        MemOpKind::StWord => {
            for l in 0..n {
                c.mem.store_word(m.buf, c.regs[a + l], c.regs[d + l])?;
            }
        }
        MemOpKind::StByte => {
            for l in 0..n {
                c.mem.store_byte(m.buf, c.regs[a + l], c.regs[d + l] as u8)?;
            }
        }
    }
    Ok(())
}

/// Whether lane `l` of an address row holds `base + l·stride` (wrapping)
/// — the run-time re-verification of a static [`AddrForm::LaneAffine`]
/// hint.
#[inline]
fn is_lane_affine(addrs: &[u32], base: u32, stride: u32) -> bool {
    addrs.iter().enumerate().all(|(l, &v)| v == base.wrapping_add(stride.wrapping_mul(l as u32)))
}

/// Writes lanes `< n` of a row; a full warp's is one fixed-size copy.
#[inline(always)]
fn commit(regs: &mut [u32], r: usize, v: &[u32; 32], n: usize) {
    if n == 32 {
        *row_mut(regs, r) = *v;
    } else {
        regs[r..r + n].copy_from_slice(&v[..n]);
    }
}

thread_local! {
    /// Gathered planes and evaluated rows of [`exec_fused`]: one buffer
    /// per host thread, grown to the largest run it has met and reused
    /// by every later launch.
    static FUSED_SCRATCH: std::cell::RefCell<Vec<[u32; 32]>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// What the poison differential mode leaves in every row a fused step
/// pruned as dead (tests and debug builds).
#[cfg(any(test, debug_assertions))]
const POISON: u32 = 0xDEAD_BEEF;

/// Executes a fused codec run over a fully-converged warp. `Ok(false)`
/// means a precondition failed and nothing was touched — the caller runs
/// the unfused fallback, so error surfaces and partial effects are the
/// interpreter's.
///
/// Preconditions: the entry address row is lane-affine with the static
/// stride, and the warp's whole span `[base, base + (n−1)·stride + span)`
/// lies inside the buffer (checked once in u64, which also rules out u32
/// wraparound of any address the run forms, and covers every word plane:
/// the scan places them at `off + 4 ≤ span`).
///
/// Everything the interpreter would do that can still be observed is then
/// replayed in bulk:
/// * stats — instruction counts and the (exact, integral) cycle sum;
/// * coalescing — the same `(buf, sector)` set, lowest sector first: one
///   call over `span`-byte lane windows when the run's offsets tile
///   `0..span`, else one call per memory op in program order;
/// * memory — one bulk gather or scatter per word or byte plane (the
///   static scan rejected store runs whose lanes or offsets overlap, so
///   plane order cannot matter);
/// * registers — the rows live at the run's end get their final value;
///   the dead temporaries keep whatever they held (poison, in tests and
///   debug builds). Values are functions of the run-entry state only, so
///   all are evaluated before any is committed. Lanes ≥ `n` are never
///   written.
fn exec_fused(
    f: &FusedRun,
    c: &mut DCtx<'_>,
    n: usize,
) -> Result<bool, SimError> {
    let a = f.addr as usize;
    let base = c.regs[a];
    let end = base as u64 + f.stride as u64 * (n as u64 - 1) + f.span as u64;
    if end > (c.mem.buf_len(f.buf) as u64).min(1 << 32)
        || !is_lane_affine(&c.regs[a..a + n], base, f.stride)
    {
        return Ok(false);
    }
    debug_assert!(
        f.assumed.iter().all(|&(r, k)| c.regs[r as usize..r as usize + n].iter().all(|&v| v == k)),
        "codec-run fusion relied on a constant the analysis got wrong"
    );
    c.stats.warp_issues += f.insts;
    c.stats.thread_insts += f.insts * n as u64;
    c.stats.warp_issue_cycles += f.cycles;
    if f.tiled {
        note_transactions_affine(&mut c.stats, &mut c.seen, f.buf, base, f.stride, n, f.span);
    } else {
        for &off in f.mem_offs.iter() {
            note_transactions_affine(&mut c.stats, &mut c.seen, f.buf, base + off, f.stride, n, 1);
        }
    }
    FUSED_SCRATCH.with_borrow_mut(|scratch| {
        if scratch.len() < f.gathers.len() + f.outs.len() {
            scratch.resize(f.gathers.len() + f.outs.len(), [0; 32]);
        }
        let (planes, vals) = scratch.split_at_mut(f.gathers.len());
        for (plane, g) in planes.iter_mut().zip(f.gathers.iter()) {
            if g.word {
                c.mem.load_words_affine(f.buf, base + g.off, f.stride, &mut plane[..n]);
            } else {
                c.mem.load_bytes_affine(f.buf, base + g.off, f.stride, &mut plane[..n]);
            }
        }
        for (at, sym) in f.scatters.iter() {
            let v = f.eval(sym, planes, &c.regs);
            if at.word {
                c.mem.store_words_affine(f.buf, base + at.off, f.stride, &v[..n]);
            } else {
                c.mem.store_bytes_affine(f.buf, base + at.off, f.stride, &v[..n]);
            }
        }
        for (v, (_, sym)) in vals.iter_mut().zip(f.outs.iter()) {
            *v = f.eval(sym, planes, &c.regs);
        }
        for (v, (row, _)) in vals.iter().zip(f.outs.iter()) {
            commit(&mut c.regs, *row as usize, v, n);
        }
    });
    #[cfg(any(test, debug_assertions))]
    for &r in f.pruned.iter() {
        c.regs[r as usize..r as usize + n].fill(POISON);
    }
    for r in &mut c.regs[a..a + n] {
        *r = r.wrapping_add(f.delta);
    }
    Ok(true)
}

/// What the annotated disassembly shows of a kernel's lowering, computed
/// without building (or touching) its compiled artifact: per pc, whether
/// the analysis proves a global-memory instruction's address row
/// lane-affine and with which stride (non-memory pcs are
/// [`AddrForm::Unknown`]), and the codec runs [`compile`] fuses.
pub(crate) fn listing_facts(kernel: &Kernel) -> (Vec<AddrForm>, Vec<FusedRunInfo>) {
    let ops = kernel.decoded_program().ops();
    let facts = analyze(ops, kernel.num_regs as usize);
    let mut scan = CodecScan::new(kernel.num_regs as usize);
    let mut runs = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        // Like `lower_steps`: every pc outside a fused run may head one.
        let fused = match &ops[pc] {
            Op::I { run_end, .. } => scan_codec_run(ops, &facts, pc..*run_end as usize, &mut scan),
            _ => None,
        };
        pc = fused.as_ref().map_or(pc + 1, |f| f.info.pcs.end);
        runs.extend(fused.map(|f| f.info));
    }
    (facts.forms.into_iter().map(|f| f.unwrap_or(AddrForm::Unknown)).collect(), runs)
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

/// Fused carry-chain micro-ops: operand offsets pre-resolved to SoA rows.
#[derive(Clone, Copy)]
enum CarryKind {
    AddCC,
    AddC,
    SubCC,
    SubC,
    MadLoCC,
    MadHiC,
}

#[derive(Clone, Copy)]
struct CarryOp {
    kind: CarryKind,
    d: usize,
    a: usize,
    b: usize,
    c: usize,
}

fn carry_op(dop: &DOp) -> Option<CarryOp> {
    Some(match *dop {
        DOp::AddCC { d, a, b } => {
            CarryOp { kind: CarryKind::AddCC, d: d as usize, a: a as usize, b: b as usize, c: 0 }
        }
        DOp::AddC { d, a, b } => {
            CarryOp { kind: CarryKind::AddC, d: d as usize, a: a as usize, b: b as usize, c: 0 }
        }
        DOp::SubCC { d, a, b } => {
            CarryOp { kind: CarryKind::SubCC, d: d as usize, a: a as usize, b: b as usize, c: 0 }
        }
        DOp::SubC { d, a, b } => {
            CarryOp { kind: CarryKind::SubC, d: d as usize, a: a as usize, b: b as usize, c: 0 }
        }
        DOp::MadLoCC { d, a, b, c } => CarryOp {
            kind: CarryKind::MadLoCC,
            d: d as usize,
            a: a as usize,
            b: b as usize,
            c: c as usize,
        },
        DOp::MadHiC { d, a, b, c } => CarryOp {
            kind: CarryKind::MadHiC,
            d: d as usize,
            a: a as usize,
            b: b as usize,
            c: c as usize,
        },
        _ => return None,
    })
}

// Register-tiled codegen: every thunk reads its source rows as fixed
// `&[u32; 32]` tiles (the SoA register file always allocates rows at
// stride `LANES` = 32, so the casts are one length check each), computes
// all 32 lanes in a constant-trip loop, and writes the full destination
// row back in one 128-byte copy. Constant trip count + fixed-size arrays
// means no per-lane bounds checks, a fully-initialized local tile (the
// `[0u32; 32]` init is dead and elided), and exactly the shape LLVM's
// autovectorizer SIMDs across the warp — loops writing `regs[d + l]` in
// place cannot vectorize because two rows of one `&mut [u32]` might
// overlap as far as the compiler knows.
//
// Computing lanes ≥ `lanes_n` of a tail warp is deliberate: every lowered
// op is total (checked divides, masked shifts), those lanes' rows are
// dead storage no interpreter path ever reads (`lanes_apply`, gathers,
// and merges all stop at `lanes_n`), and anything architectural —
// predicates — is merged under `full_mask(n)`. The carry row is a
// register row in this sense: its lanes ≥ `n` are dead storage too.
// Read-all-then-write-all per op is bit-identical to the interpreter's
// lane-by-lane order even when `d` aliases a source row: each lane only
// ever reads its own lane index from each row.

/// A register row as a fixed 32-lane tile.
#[inline(always)]
fn row(regs: &[u32], r: usize) -> &[u32; 32] {
    regs[r..r + 32].try_into().unwrap()
}

/// A register row as a mutable fixed 32-lane tile.
#[inline(always)]
fn row_mut(regs: &mut [u32], r: usize) -> &mut [u32; 32] {
    (&mut regs[r..r + 32]).try_into().unwrap()
}

/// Folds a tile of 0/1 flags into a lane bitmask.
#[inline(always)]
fn flag_bits(flags: &[u32; 32]) -> u32 {
    let mut bits = 0u32;
    for (l, f) in flags.iter().enumerate() {
        bits |= f << l;
    }
    bits
}

/// A comparison's second operand: register row or immediate.
#[derive(Clone, Copy)]
enum BSource {
    Reg(usize),
    Imm(u32),
}

/// Defines every function that writes a closure which becomes an
/// [`AluThunk`], with `$attr` on each. A closure takes on the target
/// features of the function it is written in — lexically: one written in
/// a helper without the attribute gets none, even when an attributed
/// function calls it — so the whole set is generated together.
macro_rules! thunk_constructors {
    ($(#[$attr:meta])*) => {
        /// One fused closure for a run of carry-chain ops: the carry row is
        /// loaded into a local tile once and stored once, and each op runs a
        /// register-tiled, constant-trip-count lane loop over it that the
        /// autovectorizer can SIMD across the warp. Bit-identical to executing
        /// the ops one at a time through `exec_dop`: every lane < `n` computes the
        /// same flag sequence, and lanes ≥ `n` of the row are dead storage.
        $(#[$attr])*
        pub(super) fn fuse_chain(chain: Vec<CarryOp>) -> AluThunk {
            let chain = chain.into_boxed_slice();
            Box::new(move |regs, _preds, carry, _geom, _n| {
                let mut cy = *carry;
                for op in chain.iter() {
                    let mut td = [0u32; 32];
                    {
                        let (ta, tb) = (row(regs, op.a), row(regs, op.b));
                        match op.kind {
                            CarryKind::AddCC => {
                                for l in 0..32 {
                                    let (s, co) = ta[l].overflowing_add(tb[l]);
                                    td[l] = s;
                                    cy[l] = co as u32;
                                }
                            }
                            CarryKind::AddC => {
                                for l in 0..32 {
                                    let (s1, c1) = ta[l].overflowing_add(tb[l]);
                                    let (s2, c2) = s1.overflowing_add(cy[l]);
                                    td[l] = s2;
                                    cy[l] = (c1 | c2) as u32;
                                }
                            }
                            CarryKind::SubCC => {
                                for l in 0..32 {
                                    let (s, co) = ta[l].overflowing_sub(tb[l]);
                                    td[l] = s;
                                    cy[l] = co as u32;
                                }
                            }
                            CarryKind::SubC => {
                                for l in 0..32 {
                                    let (s1, c1) = ta[l].overflowing_sub(tb[l]);
                                    let (s2, c2) = s1.overflowing_sub(cy[l]);
                                    td[l] = s2;
                                    cy[l] = (c1 | c2) as u32;
                                }
                            }
                            CarryKind::MadLoCC => {
                                let tc = row(regs, op.c);
                                for l in 0..32 {
                                    let (s, co) = ta[l].wrapping_mul(tb[l]).overflowing_add(tc[l]);
                                    td[l] = s;
                                    cy[l] = co as u32;
                                }
                            }
                            CarryKind::MadHiC => {
                                let tc = row(regs, op.c);
                                for l in 0..32 {
                                    let hi = ((ta[l] as u64 * tb[l] as u64) >> 32) as u32;
                                    let (s1, c1) = hi.overflowing_add(tc[l]);
                                    let (s2, c2) = s1.overflowing_add(cy[l]);
                                    td[l] = s2;
                                    cy[l] = (c1 | c2) as u32;
                                }
                            }
                        }
                    }
                    *row_mut(regs, op.d) = td;
                }
                *carry = cy;
            })
        }

        /// Builds a register-tiled thunk for a two-source ALU op, monomorphized
        /// per operation (`f` inlines into the bounds-check-free lane loop).
        #[inline]
        $(#[$attr])*
        fn bin_thunk(
            d: usize,
            a: usize,
            b: usize,
            f: impl Fn(u32, u32) -> u32 + Send + Sync + 'static,
        ) -> AluThunk {
            Box::new(move |regs, _, _, _, _| {
                let mut td = [0u32; 32];
                {
                    let (ta, tb) = (row(regs, a), row(regs, b));
                    for l in 0..32 {
                        td[l] = f(ta[l], tb[l]);
                    }
                }
                *row_mut(regs, d) = td;
            })
        }

        /// Register-tiled thunk for a one-source ALU op.
        #[inline]
        $(#[$attr])*
        fn un_thunk(d: usize, a: usize, f: impl Fn(u32) -> u32 + Send + Sync + 'static) -> AluThunk {
            Box::new(move |regs, _, _, _, _| {
                let mut td = [0u32; 32];
                {
                    let ta = row(regs, a);
                    for l in 0..32 {
                        td[l] = f(ta[l]);
                    }
                }
                *row_mut(regs, d) = td;
            })
        }

        /// Register-tiled thunk for a 64-bit op over register pairs.
        #[inline]
        $(#[$attr])*
        fn wide_thunk(
            dlo: usize,
            dhi: usize,
            alo: usize,
            ahi: usize,
            blo: usize,
            bhi: usize,
            f: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
        ) -> AluThunk {
            Box::new(move |regs, _, _, _, _| {
                let mut tdlo = [0u32; 32];
                let mut tdhi = [0u32; 32];
                {
                    let (talo, tahi) = (row(regs, alo), row(regs, ahi));
                    let (tblo, tbhi) = (row(regs, blo), row(regs, bhi));
                    for l in 0..32 {
                        let q = f(
                            talo[l] as u64 | (tahi[l] as u64) << 32,
                            tblo[l] as u64 | (tbhi[l] as u64) << 32,
                        );
                        tdlo[l] = q as u32;
                        tdhi[l] = (q >> 32) as u32;
                    }
                }
                *row_mut(regs, dlo) = tdlo;
                *row_mut(regs, dhi) = tdhi;
            })
        }

        /// Fused widening multiply: an adjacent `mul.lo`/`mul.hi` over one
        /// operand pair — the backbone of limb-product inner loops — computes the
        /// 64-bit product once and writes both halves. `lo_first` preserves
        /// program order for the (degenerate) case where both halves target the
        /// same row.
        #[inline]
        $(#[$attr])*
        fn mul_pair_thunk(dlo: usize, dhi: usize, a: usize, b: usize, lo_first: bool) -> AluThunk {
            Box::new(move |regs, _, _, _, _| {
                let mut tlo = [0u32; 32];
                let mut thi = [0u32; 32];
                {
                    let (ta, tb) = (row(regs, a), row(regs, b));
                    for l in 0..32 {
                        let q = ta[l] as u64 * tb[l] as u64;
                        tlo[l] = q as u32;
                        thi[l] = (q >> 32) as u32;
                    }
                }
                if lo_first {
                    *row_mut(regs, dlo) = tlo;
                    *row_mut(regs, dhi) = thi;
                } else {
                    *row_mut(regs, dhi) = thi;
                    *row_mut(regs, dlo) = tlo;
                }
            })
        }

        /// Register-tiled predicate-setting thunk, monomorphized per [`CmpOp`]
        /// (the comparison inlines instead of matching per lane).
        #[inline]
        $(#[$attr])*
        fn cmp_thunk(
            p: usize,
            a: usize,
            b: BSource,
            f: impl Fn(u32, u32) -> bool + Send + Sync + 'static,
        ) -> AluThunk {
            Box::new(move |regs, preds, _, _, n| {
                let mut fl = [0u32; 32];
                let ta = row(regs, a);
                match b {
                    BSource::Reg(b) => {
                        let tb = row(regs, b);
                        for l in 0..32 {
                            fl[l] = f(ta[l], tb[l]) as u32;
                        }
                    }
                    BSource::Imm(imm) => {
                        for l in 0..32 {
                            fl[l] = f(ta[l], imm) as u32;
                        }
                    }
                }
                let mask = full_mask(n);
                preds[p] = (preds[p] & !mask) | (flag_bits(&fl) & mask);
            })
        }

        /// Dispatches a [`CmpOp`] to a monomorphized [`cmp_thunk`].
        $(#[$attr])*
        fn lower_cmp(p: usize, a: usize, b: BSource, op: crate::ptx::CmpOp) -> AluThunk {
            use crate::ptx::CmpOp;
            match op {
                CmpOp::Eq => cmp_thunk(p, a, b, |x, y| x == y),
                CmpOp::Ne => cmp_thunk(p, a, b, |x, y| x != y),
                CmpOp::Lt => cmp_thunk(p, a, b, |x, y| x < y),
                CmpOp::Le => cmp_thunk(p, a, b, |x, y| x <= y),
                CmpOp::Gt => cmp_thunk(p, a, b, |x, y| x > y),
                CmpOp::Ge => cmp_thunk(p, a, b, |x, y| x >= y),
            }
        }

        /// Lowers one register-only op to its monomorphized closure. `None` for
        /// ops that must stay interpreter steps (memory, params, `DivBig` — and
        /// the carry ops, which are handled by [`fuse_chain`]).
        $(#[$attr])*
        pub(super) fn lower_thunk(dop: &DOp) -> Option<AluThunk> {
            use crate::ptx::Special;
            Some(match *dop {
                DOp::MovImm { d, imm } => {
                    let d = d as usize;
                    Box::new(move |regs, _, _, _, _| row_mut(regs, d).fill(imm))
                }
                DOp::Mov { d, a } => {
                    let (d, a) = (d as usize, a as usize);
                    Box::new(move |regs: &mut [u32], _, _, _, _| regs.copy_within(a..a + 32, d))
                }
                DOp::MovSpecial { d, s } => {
                    let d = d as usize;
                    match s {
                        Special::TidX => Box::new(move |regs, _, _, geom: &Geometry, _| {
                            let base = geom.tid_base;
                            for (l, r) in row_mut(regs, d).iter_mut().enumerate() {
                                *r = base + l as u32;
                            }
                        }),
                        Special::CtaIdX => Box::new(move |regs, _, _, geom: &Geometry, _| {
                            row_mut(regs, d).fill(geom.ctaid)
                        }),
                        Special::NTidX => Box::new(move |regs, _, _, geom: &Geometry, _| {
                            row_mut(regs, d).fill(geom.ntid)
                        }),
                        Special::NCtaIdX => Box::new(move |regs, _, _, geom: &Geometry, _| {
                            row_mut(regs, d).fill(geom.nctaid)
                        }),
                    }
                }
                DOp::Add { d, a, b } => {
                    bin_thunk(d as usize, a as usize, b as usize, |x, y| x.wrapping_add(y))
                }
                DOp::Sub { d, a, b } => {
                    bin_thunk(d as usize, a as usize, b as usize, |x, y| x.wrapping_sub(y))
                }
                DOp::MulLo { d, a, b } => {
                    bin_thunk(d as usize, a as usize, b as usize, |x, y| x.wrapping_mul(y))
                }
                DOp::MulHi { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| {
                    ((x as u64 * y as u64) >> 32) as u32
                }),
                DOp::Div { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| {
                    x.checked_div(y).unwrap_or(u32::MAX)
                }),
                DOp::Rem { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| {
                    if y == 0 { x } else { x % y }
                }),
                DOp::Div64 { dlo, dhi, alo, ahi, blo, bhi } => wide_thunk(
                    dlo as usize,
                    dhi as usize,
                    alo as usize,
                    ahi as usize,
                    blo as usize,
                    bhi as usize,
                    |x, y| x.checked_div(y).unwrap_or(u64::MAX),
                ),
                DOp::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => wide_thunk(
                    dlo as usize,
                    dhi as usize,
                    alo as usize,
                    ahi as usize,
                    blo as usize,
                    bhi as usize,
                    |x, y| if y == 0 { x } else { x % y },
                ),
                DOp::Bfind { d, a } => un_thunk(d as usize, a as usize, |v| {
                    if v == 0 { u32::MAX } else { 31 - v.leading_zeros() }
                }),
                DOp::Shl { d, a, b } => {
                    bin_thunk(d as usize, a as usize, b as usize, |x, y| x << (y & 31))
                }
                DOp::Shr { d, a, b } => {
                    bin_thunk(d as usize, a as usize, b as usize, |x, y| x >> (y & 31))
                }
                DOp::And { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| x & y),
                DOp::Or { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| x | y),
                DOp::Xor { d, a, b } => bin_thunk(d as usize, a as usize, b as usize, |x, y| x ^ y),
                DOp::SetP { p, op, a, b } => {
                    lower_cmp(p as usize, a as usize, BSource::Reg(b as usize), op)
                }
                DOp::SetPImm { p, op, a, imm } => {
                    lower_cmp(p as usize, a as usize, BSource::Imm(imm), op)
                }
                DOp::PAnd { p, a, b } => {
                    let (p, a, b) = (p as usize, a as usize, b as usize);
                    Box::new(move |_, preds: &mut [u32], _, _, n| {
                        let mask = full_mask(n);
                        let computed = preds[a] & preds[b];
                        preds[p] = (preds[p] & !mask) | (computed & mask);
                    })
                }
                DOp::PNot { p, a } => {
                    let (p, a) = (p as usize, a as usize);
                    Box::new(move |_, preds: &mut [u32], _, _, n| {
                        let mask = full_mask(n);
                        let computed = !preds[a];
                        preds[p] = (preds[p] & !mask) | (computed & mask);
                    })
                }
                DOp::Selp { d, a, b, p } => {
                    let (d, a, b, p) = (d as usize, a as usize, b as usize, p as usize);
                    Box::new(move |regs: &mut [u32], preds: &mut [u32], _, _, _| {
                        let pbits = preds[p];
                        let mut td = [0u32; 32];
                        {
                            let (ta, tb) = (row(regs, a), row(regs, b));
                            for l in 0..32 {
                                td[l] = if pbits >> l & 1 == 1 { ta[l] } else { tb[l] };
                            }
                        }
                        *row_mut(regs, d) = td;
                    })
                }
                // Cost-only under sequential warps — same no-op as the interpreter.
                DOp::BarSync => Box::new(move |_, _, _, _, _| {}),
                DOp::ShflIdx { d, a, lane } => {
                    let (d, a, lane) = (d as usize, a as usize, lane as usize);
                    Box::new(move |regs, _, _, _, n| {
                        // Gather before scattering so reads see pre-shuffle values.
                        let mut vals = [0u32; 32];
                        for l in 0..n {
                            let src_lane = regs[lane + l] as usize % n;
                            vals[l] = regs[a + src_lane];
                        }
                        regs[d..d + n].copy_from_slice(&vals[..n]);
                    })
                }
                DOp::Ballot { d, p } => {
                    let (d, p) = (d as usize, p as usize);
                    Box::new(move |regs: &mut [u32], preds: &mut [u32], _, _, n| {
                        let ballot = preds[p] & full_mask(n);
                        regs[d..d + n].fill(ballot);
                    })
                }
                // Memory, params, and data-dependent-cost ops stay interpreted.
                DOp::AddCC { .. }
                | DOp::AddC { .. }
                | DOp::SubCC { .. }
                | DOp::SubC { .. }
                | DOp::MadLoCC { .. }
                | DOp::MadHiC { .. }
                | DOp::LdGlobal { .. }
                | DOp::LdGlobalU8 { .. }
                | DOp::StGlobal { .. }
                | DOp::StGlobalU8 { .. }
                | DOp::LdShared { .. }
                | DOp::StShared { .. }
                | DOp::LdParam { .. }
                | DOp::DivBig { .. } => return None,
            })
        }

        /// Peephole over adjacent ops: `mul.lo` directly next to `mul.hi` on the
        /// same operand pair (either order; the product is commutative) shares a
        /// single widening multiply. The first destination must leave the second
        /// op's sources intact, or the fused read-once would diverge from the
        /// interpreter.
        $(#[$attr])*
        pub(super) fn fuse_mul_pair(first: &DOp, next: Option<&Op>) -> Option<AluThunk> {
            let Some(Op::I { dop: second, .. }) = next else { return None };
            let same_pair =
                |a1: u32, b1: u32, a2: u32, b2: u32| (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2);
            match (first, second) {
                (&DOp::MulLo { d: d1, a, b }, &DOp::MulHi { d: d2, a: a2, b: b2 })
                    if same_pair(a, b, a2, b2) && d1 != a2 && d1 != b2 =>
                {
                    Some(mul_pair_thunk(d1 as usize, d2 as usize, a as usize, b as usize, true))
                }
                (&DOp::MulHi { d: d1, a, b }, &DOp::MulLo { d: d2, a: a2, b: b2 })
                    if same_pair(a, b, a2, b2) && d1 != a2 && d1 != b2 =>
                {
                    Some(mul_pair_thunk(d2 as usize, d1 as usize, a as usize, b as usize, false))
                }
                _ => None,
            }
        }
    };
}

/// The thunk constructors built for the compilation target.
mod portable {
    use super::*;
    thunk_constructors!();
}

/// The same constructors with AVX-512 enabled: callable only where the
/// CPU reports all four features (see [`with_isa`]).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    thunk_constructors!(#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]);
}

/// Calls the thunk constructor `$f` of the set `$isa` names.
macro_rules! with_isa {
    ($isa:expr, $f:ident($($arg:expr),*)) => {
        match $isa {
            #[cfg(target_arch = "x86_64")]
            ThunkIsa::Avx512 if avx512_detected() => {
                // SAFETY: the CPU reports every feature the `avx512` set is
                // built with, which is all a `#[target_feature]` call needs.
                unsafe { avx512::$f($($arg),*) }
            }
            _ => portable::$f($($arg),*),
        }
    };
}

// ---------------------------------------------------------------------------
// Codec-run fusion.
// ---------------------------------------------------------------------------

/// Most OR-terms one symbolic row value may hold while a run is scanned
/// (a `Lw` word assembles from four bytes; a sign/magnitude tail adds one
/// or two).
const MAX_TERMS: usize = 8;
/// Largest address advance (and so byte span) of one fused run.
const MAX_SPAN: u32 = 1 << 16;

/// What a [`Term`] reads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Leaf {
    /// A gathered plane. While a run is scanned: the byte at the `n`-th
    /// distinct offset it loads; in a built run: `n` indexes
    /// [`FusedRun::gathers`], bytes regrouped into words.
    Plane(u16),
    /// A register row (SoA offset) as it stood when the run was entered.
    Row(u32),
}

/// One OR-term of a symbolic value: `((leaf >> shr) & mask) << shl`.
/// Invariant: `mask != 0`, and neither `mask << shr` (the leaf bits the
/// term selects) nor `mask << shl` loses a bit, so shifting and masking a
/// term again stays a term.
#[derive(Clone, Copy)]
struct Term {
    leaf: Leaf,
    shr: u8,
    shl: u8,
    mask: u32,
}

impl Term {
    fn shl(self, k: u32) -> Option<Term> {
        let shl = self.shl as u32 + k;
        (shl < 32).then(|| Term { shl: shl as u8, mask: self.mask & (u32::MAX >> shl), ..self })
    }

    fn shr(self, k: u32) -> Option<Term> {
        if k <= self.shl as u32 {
            return Some(Term { shl: self.shl - k as u8, ..self });
        }
        // Shifted past the term's own left shift: the rest moves into
        // the leaf's right shift.
        let j = k - self.shl as u32;
        let shr = self.shr as u32 + j;
        (shr < 32).then(|| Term { shr: shr as u8, shl: 0, mask: self.mask >> j, ..self })
    }

    fn and(self, k: u32) -> Term {
        Term { mask: self.mask & (k >> self.shl), ..self }
    }

    /// The leaf bits the term selects …
    fn bits(self) -> u32 {
        self.mask << self.shr
    }

    /// … and how far left it moves them (negative: right).
    fn net(self) -> i32 {
        self.shl as i32 - self.shr as i32
    }

    /// The term selecting `bits` of `leaf` and moving them by `net`.
    fn select(leaf: Leaf, bits: u32, net: i32) -> Term {
        let (shr, shl) = if net < 0 { (-net as u8, 0) } else { (0, net as u8) };
        Term { leaf, shr, shl, mask: bits >> shr }
    }
}

/// Appends `t` to the value whose terms start at `t0`, folded into an
/// earlier term that moves bits of the same leaf by the same distance —
/// which is how four byte terms of one word plane become one.
fn push_term(terms: &mut Vec<Term>, t0: usize, t: Term) {
    match terms[t0..].iter_mut().find(|u| u.leaf == t.leaf && u.net() == t.net()) {
        Some(u) => *u = Term::select(t.leaf, u.bits() | t.bits(), t.net()),
        None => terms.push(t),
    }
}

/// A row's value as a function of the run-entry state:
/// `konst | terms[t0] | … | terms[t0 + len - 1]`, the terms living in
/// [`CodecScan::terms`] while a run is scanned and in
/// [`FusedRun::terms`] once it is built. The algebra is closed under
/// `mov`, `or`, and `shl`/`shr`/`and` by a constant — exactly what the
/// compact codec does between its byte accesses — and exact in wrapping
/// u32 arithmetic.
#[derive(Clone, Copy)]
struct Sym {
    konst: u32,
    t0: u32,
    len: u32,
}

impl Sym {
    fn konst(konst: u32) -> Sym {
        Sym { konst, t0: 0, len: 0 }
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.t0 as usize..(self.t0 + self.len) as usize
    }
}

/// One bulk memory access of a fused run, `off` bytes past the entry
/// address in every lane: a little-endian word, or a single byte.
#[derive(Clone, Copy)]
struct Plane {
    off: u32,
    word: bool,
}

/// One fused compact-codec byte run — see [`scan_codec_run`] for what
/// qualifies and [`exec_fused`] for how it executes.
struct FusedRun {
    buf: u8,
    /// The address row every memory op of the run goes through.
    addr: u32,
    /// Its static lane stride (re-verified on entry).
    stride: u32,
    /// Byte offset from the entry address of each memory op, in program
    /// order (non-decreasing; unique for a store run).
    mem_offs: Box<[u32]>,
    /// Bytes each lane covers: last offset + 1.
    span: u32,
    /// The offsets tile `0..span`, so the warp touches one `span`-byte
    /// window per lane.
    tiled: bool,
    /// What the run adds to the address row in total.
    delta: u32,
    /// Instructions covered, and their summed issue cost.
    insts: u64,
    cycles: f64,
    /// What a load run fetches (empty for a store run): every byte it
    /// loads lies in one of these, all within `0..span`.
    gathers: Box<[Plane]>,
    /// What a store run writes (empty for a load run), disjoint.
    scatters: Box<[(Plane, Sym)]>,
    /// `(row, final value)` of the rows live at the run's end.
    outs: Box<[(u32, Sym)]>,
    terms: Box<[Term]>,
    /// `(row, k)`: rows the scan took as the constant `k` on the word of
    /// the static analysis alone. Collected in debug builds only, where
    /// [`exec_fused`] asserts them.
    assumed: Box<[(u32, u32)]>,
    /// Rows the run's instructions write that are dead at its end.
    #[cfg(any(test, debug_assertions))]
    pruned: Box<[u32]>,
    info: FusedRunInfo,
}

impl FusedRun {
    /// Evaluates a value for all 32 lanes (lanes past the warp's `n` read
    /// stale planes and dead rows; callers commit lanes `< n` only).
    #[inline(always)]
    fn eval(&self, sym: &Sym, planes: &[[u32; 32]], regs: &[u32]) -> [u32; 32] {
        let mut acc = [sym.konst; 32];
        for t in &self.terms[sym.range()] {
            let src = match t.leaf {
                Leaf::Plane(p) => &planes[p as usize],
                Leaf::Row(r) => row(regs, r as usize),
            };
            let (shr, shl, mask) = (t.shr as u32, t.shl as u32, t.mask);
            for l in 0..32 {
                acc[l] |= ((src[l] >> shr) & mask) << shl;
            }
        }
        acc
    }
}

/// Scratch of [`scan_codec_run`], allocated once per [`compile`]: the
/// rows the current run has written and their symbolic values.
struct CodecScan {
    /// `slot[row / 32]`: index into `vals`, or `u32::MAX` for a row the
    /// run has not written.
    slot: Vec<u32>,
    /// `(row, value)` in first-write order.
    vals: Vec<(u32, Sym)>,
    /// Term arena of the current run's values (append-only; superseded
    /// values leave garbage that [`scan_codec_run`] does not copy out).
    terms: Vec<Term>,
    assumed: Vec<(u32, u32)>,
}

impl CodecScan {
    fn new(num_regs: usize) -> CodecScan {
        CodecScan {
            slot: vec![u32::MAX; num_regs],
            vals: Vec::new(),
            terms: Vec::new(),
            assumed: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for (r, _) in self.vals.drain(..) {
            self.slot[r as usize / 32] = u32::MAX;
        }
        self.terms.clear();
        self.assumed.clear();
    }

    /// The value of operand row `r`: what the run last wrote there, else
    /// its analysed constant `k`, else its run-entry contents.
    fn val(&mut self, r: u32, k: Option<u32>) -> Sym {
        match (self.slot[r as usize / 32], k) {
            (u32::MAX, Some(k)) => {
                if cfg!(debug_assertions) {
                    self.assumed.push((r, k));
                }
                Sym::konst(k)
            }
            (u32::MAX, None) => self.leaf(Leaf::Row(r), u32::MAX),
            (i, _) => self.vals[i as usize].1,
        }
    }

    fn set(&mut self, r: u32, v: Sym) {
        match self.slot[r as usize / 32] {
            u32::MAX => {
                self.slot[r as usize / 32] = self.vals.len() as u32;
                self.vals.push((r, v));
            }
            i => self.vals[i as usize].1 = v,
        }
    }

    fn leaf(&mut self, leaf: Leaf, mask: u32) -> Sym {
        self.terms.push(Term { leaf, shr: 0, shl: 0, mask });
        Sym { konst: 0, t0: self.terms.len() as u32 - 1, len: 1 }
    }

    /// `v` with every term passed through `f` (`None`, or an empty mask,
    /// drops a term that became zero).
    fn map(&mut self, v: Sym, konst: u32, f: impl Fn(Term) -> Option<Term>) -> Sym {
        let t0 = self.terms.len();
        for i in v.range() {
            if let Some(t) = f(self.terms[i]).filter(|t| t.mask != 0) {
                self.terms.push(t);
            }
        }
        Sym { konst, t0: t0 as u32, len: (self.terms.len() - t0) as u32 }
    }

    fn or(&mut self, a: Sym, b: Sym) -> Option<Sym> {
        let konst = a.konst | b.konst;
        if a.len == 0 || b.len == 0 {
            let terms = if a.len == 0 { b } else { a };
            return Some(Sym { konst, ..terms });
        }
        if (a.len + b.len) as usize > MAX_TERMS {
            return None;
        }
        let t0 = self.terms.len() as u32;
        self.terms.extend_from_within(a.range());
        self.terms.extend_from_within(b.range());
        Some(Sym { konst, t0, len: a.len + b.len })
    }
}

/// Symbolic fusion of a compact-codec byte run. `pcs.start` is a
/// `ld.global.u8`/`st.global.u8` whose address row the analysis found
/// lane-affine; the scan walks forward while every instruction keeps each
/// written row inside the [`Sym`] algebra:
///
/// * `mov` (immediate or row), `or`, and `shl`/`shr`/`and` where one
///   side is a known constant;
/// * byte loads **or** byte stores (whichever the head is — a run never
///   mixes them, so no access inside it can alias another) through the
///   head's `(buf, address row)`;
/// * `add addr, addr, k` with `k` a known constant, which moves the
///   run's byte offset.
///
/// It stops before the first instruction outside these rules: anything
/// else, any other use of the address row, a ninth OR-term, and for a
/// store run an offset already written or ≥ the lane stride (lanes would
/// overlap, making store order observable). The accepted prefix fuses if
/// it holds at least two memory ops. Which instruction computes what is
/// immaterial — only the final values of the rows live at the run's end
/// and the stored bytes are kept — so the result does not depend on the
/// order `up-jit` happens to emit independent instructions in.
///
/// The kept values are then regrouped from bytes into words. A load run
/// of span ≥ 4 fetches four-byte windows instead of bytes — each window
/// starts at the first byte it must serve, pulled back to `span − 4` when
/// it would otherwise leave the bounds-checked span — and every byte term
/// becomes a term over its window, where [`push_term`] folds the four
/// bytes of a little-endian word into one. A store run turns four stores
/// at consecutive offsets into one word scatter of their OR-ed low bytes.
fn scan_codec_run(
    ops: &[Op],
    facts: &Facts,
    pcs: std::ops::Range<usize>,
    sc: &mut CodecScan,
) -> Option<FusedRun> {
    let Op::I { dop: head, .. } = &ops[pcs.start] else { return None };
    let head = head.mem_ref()?;
    let is_store = match head.kind {
        MemOpKind::LdByte => false,
        MemOpKind::StByte => true,
        MemOpKind::LdWord | MemOpKind::StWord => return None,
    };
    let Some(AddrForm::LaneAffine { stride }) = facts.forms[pcs.start] else { return None };
    sc.reset();
    let mut delta = 0u32;
    let mut mem_offs: Vec<u32> = Vec::new();
    // Distinct offsets a load run fetches; the byte each store op writes.
    let mut loaded: Vec<u32> = Vec::new();
    let mut stores: Vec<Sym> = Vec::new();
    let mut end = pcs.start;
    for pc in pcs.clone() {
        let Op::I { dop, .. } = &ops[pc] else { unreachable!("superblock runs are all I") };
        let [ka, kb] = facts.consts[pc].unwrap_or([None, None]);
        // Only the run's own memory ops and bumps may touch the address row.
        let is_addr = |r: u32| r == head.addr;
        let written = match *dop {
            DOp::Add { d, a, b } if is_addr(d) && a == d && b != d => {
                let k = sc.val(b, kb);
                match delta.checked_add(k.konst).filter(|&m| k.len == 0 && m < MAX_SPAN) {
                    Some(moved) => delta = moved,
                    None => break,
                }
                end = pc + 1;
                continue;
            }
            DOp::StGlobalU8 { buf, addr, src }
                if is_store && buf == head.buf && is_addr(addr) && !is_addr(src) =>
            {
                if delta >= stride || mem_offs.last() == Some(&delta) {
                    break;
                }
                stores.push(sc.val(src, ka));
                mem_offs.push(delta);
                end = pc + 1;
                continue;
            }
            DOp::LdGlobalU8 { d, buf, addr }
                if !is_store && buf == head.buf && is_addr(addr) && !is_addr(d) =>
            {
                // Offsets only grow, so a repeat is a repeat of the last.
                if loaded.last() != Some(&delta) {
                    loaded.push(delta);
                }
                mem_offs.push(delta);
                Some((d, sc.leaf(Leaf::Plane(loaded.len() as u16 - 1), 0xff)))
            }
            DOp::MovImm { d, imm } => Some((d, Sym::konst(imm))),
            DOp::Mov { d, a } if !is_addr(a) => Some((d, sc.val(a, ka))),
            DOp::Shl { d, a, b } | DOp::Shr { d, a, b } if !is_addr(a) && !is_addr(b) => {
                let (va, k) = (sc.val(a, ka), sc.val(b, kb));
                let by = k.konst & 31;
                (k.len == 0).then(|| match dop {
                    DOp::Shl { .. } => (d, sc.map(va, va.konst << by, |t| t.shl(by))),
                    _ => (d, sc.map(va, va.konst >> by, |t| t.shr(by))),
                })
            }
            DOp::And { d, a, b } if !is_addr(a) && !is_addr(b) => {
                let (va, vb) = (sc.val(a, ka), sc.val(b, kb));
                let (v, k) = if vb.len == 0 { (va, vb.konst) } else { (vb, va.konst) };
                (va.len == 0 || vb.len == 0).then(|| (d, sc.map(v, v.konst & k, |t| Some(t.and(k)))))
            }
            DOp::Or { d, a, b } if !is_addr(a) && !is_addr(b) => {
                let (va, vb) = (sc.val(a, ka), sc.val(b, kb));
                sc.or(va, vb).map(|v| (d, v))
            }
            _ => None,
        };
        match written {
            Some((d, v)) if !is_addr(d) => sc.set(d, v),
            _ => break,
        }
        end = pc + 1;
    }
    if mem_offs.len() < 2 {
        return None;
    }
    let span = mem_offs[mem_offs.len() - 1] + 1;
    let tiled = if is_store { mem_offs.len() } else { loaded.len() } as u32 == span;
    // Each loaded byte → (the gather serving it, its bit position there).
    let mut gathers: Vec<Plane> = Vec::new();
    let served: Vec<(u16, u8)> = loaded
        .iter()
        .map(|&off| {
            if span < 4 {
                gathers.push(Plane { off, word: false });
            } else if gathers.last().is_none_or(|g| off >= g.off + 4) {
                let window = off.min(span - 4);
                #[cfg(test)]
                let window = if seeded_bug::is(seeded_bug::Bug::WordWindowIgnoresSpan) { off } else { window };
                gathers.push(Plane { off: window, word: true });
            }
            let g = gathers.len() - 1;
            (g as u16, (off - gathers[g].off) as u8 * 8)
        })
        .collect();
    let place = |t: Term| match t.leaf {
        Leaf::Plane(byte) => {
            let (g, bit) = served[byte as usize];
            Term { leaf: Leaf::Plane(g), shr: t.shr + bit, ..t }
        }
        Leaf::Row(_) => t,
    };
    let mut terms: Vec<Term> = Vec::new();
    // Four stores at consecutive offsets make one word: a byte store
    // keeps its value's low byte, and byte `j` of the word sits 8·j up.
    let mut scatters: Vec<(Plane, Sym)> = Vec::new();
    let mut i = 0;
    while i < stores.len() {
        let off = mem_offs[i];
        let word = (1..4).all(|j| mem_offs.get(i + j) == Some(&(off + j as u32)));
        let t0 = terms.len();
        let mut konst = 0;
        for (j, v) in stores[i..i + if word { 4 } else { 1 }].iter().enumerate() {
            konst |= (v.konst & 0xff) << (8 * j);
            for t in &sc.terms[v.range()] {
                if let Some(t) = t.and(0xff).shl(8 * j as u32).filter(|t| t.mask != 0) {
                    push_term(&mut terms, t0, place(t));
                }
            }
            i += 1;
        }
        let len = (terms.len() - t0) as u32;
        scatters.push((Plane { off, word }, Sym { konst, t0: t0 as u32, len }));
    }
    let live = facts.live_at(ops, end);
    let (mut outs, mut pruned) = (Vec::new(), Vec::new());
    for (row, v) in sc.vals.iter() {
        if !live.has(*row) {
            pruned.push(*row);
            continue;
        }
        let t0 = terms.len();
        for t in &sc.terms[v.range()] {
            push_term(&mut terms, t0, place(*t));
        }
        outs.push((*row, Sym { konst: v.konst, t0: t0 as u32, len: (terms.len() - t0) as u32 }));
    }
    sc.assumed.sort_unstable();
    sc.assumed.dedup();
    let planes = |word: bool| {
        let moved = gathers.iter().chain(scatters.iter().map(|(p, _)| p));
        moved.filter(|p| p.word == word).count()
    };
    let info = FusedRunInfo {
        pcs: pcs.start..end,
        is_store,
        rows_written: sc.vals.len(),
        rows_live: outs.len(),
        rows_const: outs.iter().filter(|(_, v)| v.len == 0).count(),
        word_planes: planes(true),
        byte_planes: planes(false),
    };
    Some(FusedRun {
        buf: head.buf,
        addr: head.addr,
        stride,
        mem_offs: mem_offs.into_boxed_slice(),
        span,
        tiled,
        delta,
        insts: (end - pcs.start) as u64,
        cycles: ops[pcs.start..end]
            .iter()
            .map(|op| match op {
                Op::I { cycles, .. } => *cycles,
                _ => unreachable!("superblock runs are all I"),
            })
            .sum(),
        gathers: gathers.into_boxed_slice(),
        scatters: scatters.into_boxed_slice(),
        outs: outs.into_boxed_slice(),
        terms: terms.into_boxed_slice(),
        assumed: sc.assumed.as_slice().into(),
        #[cfg(any(test, debug_assertions))]
        pruned: pruned.into_boxed_slice(),
        info,
    })
}

/// Compiles a kernel's decoded program into closure chains, one
/// [`SuperBlock`] per maximal straight-line run. The analyses of
/// [`crate::analysis`] run once here, i.e. once per promoted kernel.
pub(crate) fn compile(kernel: &Kernel) -> CompiledProgram {
    let prog: &Arc<DecodedProgram> = kernel.decoded_program();
    let ops = prog.ops();
    let facts = analyze(ops, kernel.num_regs as usize);
    let mut scan = CodecScan::new(kernel.num_regs as usize);
    let mut out = CompiledProgram {
        isa: thunk_isa(),
        blocks: (0..ops.len()).map(|_| None).collect(),
        superblocks: 0,
        fused_chains: 0,
        fused_insts: 0,
        alu_insts: 0,
        interp_insts: 0,
        mem_insts: 0,
        affine_mem_insts: 0,
        lowered_superblocks: 0,
        fused_codec_mem_insts: 0,
        fused_runs: Vec::new(),
        entry_live: facts.entry_live_rows(ops, kernel.num_regs as usize).into_boxed_slice(),
    };
    let mut i = 0usize;
    while i < ops.len() {
        let Op::I { run_end, .. } = &ops[i] else {
            i += 1;
            continue;
        };
        let end = *run_end as usize;
        let interp_before = out.interp_insts;
        let steps = lower_steps(ops, &facts, i..end, Some(&mut scan), &mut out);
        out.blocks[i] = Some(SuperBlock { steps, end: end as u32 });
        out.superblocks += 1;
        if out.interp_insts == interp_before {
            out.lowered_superblocks += 1;
        }
        i = end;
    }
    out
}

/// The pending register-only segment of [`lower_steps`]: its thunks, and
/// the count and summed issue cost of the instructions they cover.
#[derive(Default)]
struct Segment {
    thunks: Vec<AluThunk>,
    insts: u64,
    cycles: f64,
}

impl Segment {
    fn count(&mut self, insts: u64, cycles: f64) {
        self.insts += insts;
        self.cycles += cycles;
    }

    fn flush(&mut self, steps: &mut Vec<Step>) {
        if self.insts > 0 {
            let Segment { thunks, insts, cycles } = std::mem::take(self);
            steps.push(Step::Alu { thunks: thunks.into_boxed_slice(), insts, cycles });
        }
    }
}

/// Lowers the straight-line instructions `ops[range]` to steps. With a
/// `scan`, byte memory ops first try to head a fused codec run; without
/// one (a fused run's fallback) every instruction lowers on its own.
fn lower_steps(
    ops: &[Op],
    facts: &Facts,
    range: std::ops::Range<usize>,
    mut scan: Option<&mut CodecScan>,
    tally: &mut CompiledProgram,
) -> Box<[Step]> {
    let run = &ops[range.clone()];
    let mut steps: Vec<Step> = Vec::new();
    let mut seg = Segment::default();
    let mut chain: Vec<CarryOp> = Vec::new();

    fn flush_chain(
        chain: &mut Vec<CarryOp>,
        thunks: &mut Vec<AluThunk>,
        tally: &mut CompiledProgram,
    ) {
        if chain.is_empty() {
            return;
        }
        if chain.len() >= 2 {
            tally.fused_chains += 1;
            tally.fused_insts += chain.len();
        }
        thunks.push(with_isa!(tally.isa, fuse_chain(std::mem::take(chain))));
    }

    let mut i = 0;
    while i < run.len() {
        let Op::I { dop, cycles: cy, .. } = &run[i] else {
            unreachable!("superblock runs are all I")
        };
        // Batched cycle sums equal the interpreter's one-by-one additions
        // only while every cost is a non-negative integer.
        debug_assert!(*cy >= 0.0 && cy.fract() == 0.0, "non-integral issue cost {cy}");
        if let Some(cop) = carry_op(dop) {
            chain.push(cop);
            seg.count(1, *cy);
            tally.alu_insts += 1;
            i += 1;
            continue;
        }
        if let Some(thunk) = with_isa!(tally.isa, fuse_mul_pair(dop, run.get(i + 1))) {
            let Some(Op::I { cycles: cy2, .. }) = run.get(i + 1) else { unreachable!() };
            flush_chain(&mut chain, &mut seg.thunks, tally);
            seg.thunks.push(thunk);
            seg.count(2, cy + cy2);
            tally.alu_insts += 2;
            i += 2;
            continue;
        }
        if let Some(thunk) = with_isa!(tally.isa, lower_thunk(dop)) {
            flush_chain(&mut chain, &mut seg.thunks, tally);
            seg.thunks.push(thunk);
            seg.count(1, *cy);
            tally.alu_insts += 1;
            i += 1;
            continue;
        }
        // A step that touches stats itself ends the pending segment.
        flush_chain(&mut chain, &mut seg.thunks, tally);
        seg.flush(&mut steps);
        let Some(mr) = dop.mem_ref() else {
            steps.push(Step::Interp { dop: dop.clone(), cycles: *cy });
            tally.interp_insts += 1;
            i += 1;
            continue;
        };
        let pc = range.start + i;
        let fused =
            scan.as_deref_mut().and_then(|sc| scan_codec_run(ops, facts, pc..range.end, sc));
        if let Some(fused) = fused {
            let end = fused.info.pcs.end;
            tally.fused_codec_mem_insts += fused.mem_offs.len();
            tally.fused_runs.push(fused.info.clone());
            steps.push(Step::Fused {
                run: fused,
                fallback: lower_steps(ops, facts, pc..end, None, tally),
            });
            i = end - range.start;
            continue;
        }
        let affine = match facts.forms[pc] {
            Some(AddrForm::LaneAffine { stride }) => Some(stride),
            _ => None,
        };
        steps.push(Step::Mem(MemStep {
            kind: mr.kind,
            buf: mr.buf,
            addr: mr.addr,
            data: mr.data,
            affine,
            cycles: *cy,
        }));
        tally.mem_insts += 1;
        if affine.is_some() {
            tally.affine_mem_insts += 1;
        }
        i += 1;
    }
    flush_chain(&mut chain, &mut seg.thunks, tally);
    seg.flush(&mut steps);
    steps.into_boxed_slice()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ptx::{CmpOp, Inst as I, KernelBuilder, Special};

    /// Tests force a thunk set for the calling thread's promotions, in the
    /// style of [`crate::analysis::seeded_bug`].
    pub(crate) mod forced_isa {
        use crate::compiled::{avx512_detected, ThunkIsa};
        use crate::decoded::ExecBackend;
        use std::cell::Cell;

        thread_local! {
            static FORCED: Cell<Option<ThunkIsa>> = const { Cell::new(None) };
        }

        pub(crate) fn get() -> Option<ThunkIsa> {
            FORCED.get()
        }

        /// Runs `f` with this thread's promotions compiling `isa`'s thunks.
        pub(crate) fn with<R>(isa: ThunkIsa, f: impl FnOnce() -> R) -> R {
            assert!(isa == ThunkIsa::Portable || avx512_detected(), "{isa} is not available here");
            // Restored on unwind too: suites catch the panics of planted bugs.
            struct Restore(Option<ThunkIsa>);
            impl Drop for Restore {
                fn drop(&mut self) {
                    FORCED.set(self.0);
                }
            }
            let _outer = Restore(FORCED.replace(Some(isa)));
            f()
        }

        /// Every set this host runs, portable first. A host without AVX-512
        /// says so on stderr (past the test harness's capture), so a suite
        /// never passes on the portable set alone without a trace.
        pub(crate) fn available() -> Vec<ThunkIsa> {
            if avx512_detected() {
                return vec![ThunkIsa::Portable, ThunkIsa::Avx512];
            }
            static NOTE: std::sync::Once = std::sync::Once::new();
            NOTE.call_once(|| {
                use std::io::Write;
                let note = "skipped the avx512 thunk set: the CPU does not report AVX-512";
                let _ = writeln!(std::io::stderr(), "{note}");
            });
            vec![ThunkIsa::Portable]
        }

        /// The tiers a differential suite checks against the tree walker:
        /// decoded and compiled at every available set (the decoded tier's
        /// `DivBig` depends on the set too).
        pub(crate) fn tiers() -> Vec<(ExecBackend, ThunkIsa)> {
            let backends = [ExecBackend::Decoded, ExecBackend::Compiled];
            available().into_iter().flat_map(|isa| backends.map(|b| (b, isa))).collect()
        }
    }

    fn carry_kernel() -> Kernel {
        let mut kb = KernelBuilder::new();
        let t = kb.reg();
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        let r = kb.regs(4);
        kb.push(I::MovImm { d: r[0], imm: 7 });
        kb.push(I::AddCC { d: r[1], a: r[0], b: t });
        kb.push(I::AddC { d: r[2], a: r[1], b: r[0] });
        kb.push(I::MadLoCC { d: r[1], a: r[1], b: r[2], c: r[0] });
        kb.push(I::MadHiC { d: r[2], a: r[1], b: r[2], c: r[0] });
        kb.push(I::StGlobal { buf: 0, addr: r[0], src: r[1] });
        let p = kb.pred();
        kb.push(I::SetPImm { p, op: CmpOp::Lt, a: t, imm: 4 });
        let then_ = kb.block(|b| b.push(I::Add { d: r[3], a: r[3], b: t }));
        kb.if_(p, then_, vec![]);
        kb.finish("carry_chain", 8)
    }

    #[test]
    fn compile_fuses_carry_chains_and_lowers_memory() {
        let kernel = carry_kernel();
        let (cp, built) = kernel.tier.get_or_compile(&kernel);
        assert!(built, "first call must build");
        assert_eq!(cp.superblock_count(), kernel.decoded_program().superblock_count());
        assert_eq!(cp.fused_chain_count(), 1, "the 4-op carry chain fuses once");
        assert_eq!(cp.fused_inst_count(), 4);
        assert_eq!(cp.interp_inst_count(), 0, "the store lowers to a mem thunk");
        assert_eq!(cp.mem_inst_count(), 1);
        assert_eq!(
            cp.affine_mem_inst_count(),
            1,
            "an immediate address is trivially lane-affine (stride 0)"
        );
        assert_eq!(cp.lowered_superblock_count(), cp.superblock_count());
        assert_eq!(cp.fallback_superblock_count(), 0);
        let (cp2, built2) = kernel.tier.get_or_compile(&kernel);
        assert!(!built2, "second call is a cache hit");
        assert!(Arc::ptr_eq(cp, cp2));
    }

    /// The codec-kernel address shape — `gid = ctaid·ntid + tid`, then
    /// `addr = gid·limb_bytes` bumped by one per byte, including through
    /// the grid-stride back-edge — must be recognized lane-affine with
    /// the right strides.
    #[test]
    fn affine_analysis_recognizes_codec_address_shape() {
        let mut kb = KernelBuilder::new();
        let (tid, ctaid, ntid, nctaid) = (kb.reg(), kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        kb.push(I::MovSpecial { d: nctaid, s: Special::NCtaIdX });
        let (i, step, n) = (kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MulLo { d: i, a: ctaid, b: ntid });
        kb.push(I::Add { d: i, a: i, b: tid });
        kb.push(I::MulLo { d: step, a: ntid, b: nctaid });
        kb.push(I::LdParam { d: n, idx: 0 });
        let (lb, one, addr, v) = (kb.reg(), kb.reg(), kb.reg(), kb.reg());
        kb.push(I::MovImm { d: lb, imm: 3 });
        kb.push(I::MovImm { d: one, imm: 1 });
        let p = kb.pred();
        let cond = kb.block(|b| b.push(I::SetP { p, op: CmpOp::Lt, a: i, b: n }));
        let body = kb.block(|b| {
            b.push(I::MulLo { d: addr, a: i, b: lb });
            b.push(I::LdGlobalU8 { d: v, buf: 0, addr });
            b.push(I::StGlobalU8 { buf: 1, addr, src: v });
            b.push(I::Add { d: addr, a: addr, b: one });
            b.push(I::LdGlobalU8 { d: v, buf: 0, addr });
            b.push(I::StGlobalU8 { buf: 1, addr, src: v });
            b.push(I::Add { d: i, a: i, b: step });
        });
        kb.while_(p, cond, body, 64);
        let kernel = kb.finish("codec_shape", 16);
        let forms = listing_facts(&kernel).0;
        let ops = kernel.decoded_program().ops();
        let mem_forms: Vec<AddrForm> = ops
            .iter()
            .zip(forms.iter())
            .filter(|(op, _)| matches!(op, Op::I { dop, .. } if dop.mem_ref().is_some()))
            .map(|(_, f)| *f)
            .collect();
        assert_eq!(
            mem_forms,
            vec![AddrForm::LaneAffine { stride: 3 }; 4],
            "all four byte accesses keep the gid·3 stride through the loop back-edge"
        );
        let (cp, _) = kernel.tier.get_or_compile(&kernel);
        assert_eq!(cp.mem_inst_count(), 4);
        assert_eq!(cp.affine_mem_inst_count(), 4);
        // Only the prologue superblock falls back (its `ld.param`); the
        // byte-dense loop body is fully lowered.
        assert_eq!(cp.fallback_superblock_count(), 1);
        assert_eq!(cp.interp_inst_count(), 1);
    }

    /// An address that mixes in loaded data must degrade to `Unknown`
    /// instead of producing a bogus hint shape.
    #[test]
    fn affine_analysis_rejects_data_dependent_addresses() {
        let mut kb = KernelBuilder::new();
        let t = kb.reg();
        kb.push(I::MovSpecial { d: t, s: Special::TidX });
        let (addr, v) = (kb.reg(), kb.reg());
        kb.push(I::LdGlobal { d: addr, buf: 0, addr: t });
        kb.push(I::LdGlobalU8 { d: v, buf: 1, addr });
        let kernel = kb.finish("data_dep_addr", 8);
        let forms = listing_facts(&kernel).0;
        let ops = kernel.decoded_program().ops();
        let mem_forms: Vec<AddrForm> = ops
            .iter()
            .zip(forms.iter())
            .filter(|(op, _)| matches!(op, Op::I { dop, .. } if dop.mem_ref().is_some()))
            .map(|(_, f)| *f)
            .collect();
        assert_eq!(
            mem_forms,
            vec![AddrForm::LaneAffine { stride: 1 }, AddrForm::Unknown],
            "the tid-addressed load is affine; the loaded-address access is not"
        );
    }

    /// What a conformance case builds its thunk from.
    enum ThunkSrc {
        Op(DOp),
        Chain(Vec<CarryOp>),
        Pair(DOp, DOp),
    }

    fn build(isa: ThunkIsa, src: &ThunkSrc) -> AluThunk {
        match src {
            ThunkSrc::Op(dop) => with_isa!(isa, lower_thunk(dop)).expect("a lowered op"),
            ThunkSrc::Chain(chain) => with_isa!(isa, fuse_chain(chain.clone())),
            ThunkSrc::Pair(first, second) => {
                let next = Op::I { dop: second.clone(), cycles: 1.0, run_end: 0 };
                with_isa!(isa, fuse_mul_pair(first, Some(&next))).expect("a fused pair")
            }
        }
    }

    /// Every thunk set this host runs builds thunks that leave registers,
    /// predicates and the carry row bit-identical to the portable set's:
    /// every `DOp` kind `lower_thunk` lowers (each special and comparison),
    /// carry chains of 1–6 ops starting with each `CarryKind`, their even
    /// ops in place (`d == a`), and `mul.lo`/`mul.hi` pairs in both orders.
    /// Rows are random lanes salted with 0, 1, `u32::MAX` and
    /// `0x8000_0000`; the carry row is random 0/1, the predicates random;
    /// warps are full and 5 lanes wide.
    #[test]
    fn every_thunk_set_matches_the_portable_one() {
        use CarryKind::*;
        let mut seed = 0x7b1c_e5e7_5eed_0001u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        const ROWS: u32 = 8;
        let edges = [0, 1, u32::MAX, 0x8000_0000];
        let regs: Vec<u32> = (0..ROWS * 32)
            .map(|_| match next() % 3 {
                0 => edges[next() as usize % 4],
                _ => next(),
            })
            .collect();
        let preds: Vec<u32> = (0..4).map(|_| next()).collect();
        let carry: [u32; 32] = std::array::from_fn(|_| next() & 1);
        let geom = Geometry { tid_base: 96, ctaid: 3, ntid: 128, nctaid: 7 };
        let mut row = || 32 * (next() % ROWS);
        let (d, a, b, c) = (row(), row(), row(), row());
        let mut srcs = vec![
            DOp::MovImm { d, imm: 0x8000_0001 },
            DOp::Mov { d, a },
            DOp::Add { d, a, b },
            DOp::Sub { d: a, a, b },
            DOp::MulLo { d, a, b },
            DOp::MulHi { d, a, b: a },
            DOp::Div { d, a, b },
            DOp::Rem { d, a, b },
            DOp::Div64 { dlo: d, dhi: c, alo: a, ahi: b, blo: c, bhi: a },
            DOp::Rem64 { dlo: d, dhi: c, alo: a, ahi: b, blo: b, bhi: c },
            DOp::Bfind { d, a },
            DOp::Shl { d, a, b },
            DOp::Shr { d, a, b },
            DOp::And { d, a, b },
            DOp::Or { d, a, b },
            DOp::Xor { d: b, a, b },
            DOp::PAnd { p: 0, a: 1, b: 2 },
            DOp::PNot { p: 3, a: 1 },
            DOp::Selp { d, a, b, p: 2 },
            DOp::BarSync,
            DOp::ShflIdx { d, a, lane: b },
            DOp::Ballot { d, p: 1 },
        ];
        for s in [Special::TidX, Special::CtaIdX, Special::NTidX, Special::NCtaIdX] {
            srcs.push(DOp::MovSpecial { d, s });
        }
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            srcs.push(DOp::SetP { p: 1, op, a, b });
            srcs.push(DOp::SetPImm { p: 2, op, a, imm: 0x8000_0000 });
        }
        let mut cases: Vec<ThunkSrc> = srcs.into_iter().map(ThunkSrc::Op).collect();
        let kinds = [AddCC, AddC, SubCC, SubC, MadLoCC, MadHiC];
        for (k, &first) in kinds.iter().enumerate() {
            for len in 1..=6 {
                let chain = (0..len).map(|i| {
                    let [d, a, b, c] = [row(), row(), row(), row()].map(|r| r as usize);
                    let kind = if i == 0 { first } else { kinds[(k + i + len) % 6] };
                    CarryOp { kind, d: if i % 2 == 0 { a } else { d }, a, b, c }
                });
                cases.push(ThunkSrc::Chain(chain.collect()));
            }
        }
        // The first destination is never a source of the second op, or the
        // pair would not fuse.
        let (x, y) = (32 * 6, 32 * 7);
        for (d1, d2) in [(32, 32), (32, 64), (64, y)] {
            cases.push(ThunkSrc::Pair(DOp::MulLo { d: d1, a: x, b: y }, DOp::MulHi { d: d2, a: y, b: x }));
            cases.push(ThunkSrc::Pair(DOp::MulHi { d: d1, a: x, b: y }, DOp::MulLo { d: d2, a: x, b: y }));
        }
        let run = |t: &AluThunk, n: usize| {
            let (mut r, mut p, mut cy) = (regs.clone(), preds.clone(), carry);
            t(&mut r, &mut p, &mut cy, &geom, n);
            (r, p, cy)
        };
        for (i, src) in cases.iter().enumerate() {
            let portable = build(ThunkIsa::Portable, src);
            for isa in forced_isa::available() {
                let thunk = build(isa, src);
                for n in [32, 5] {
                    assert!(run(&thunk, n) == run(&portable, n), "case {i} under {isa}, {n} lanes");
                }
            }
        }
    }

    #[test]
    fn tier_cache_clones_share_the_built_artifact() {
        let kernel = carry_kernel();
        let (p1, _) = kernel.tier.get_or_compile(&kernel);
        let p1 = Arc::clone(p1);
        let clone = kernel.clone();
        let (p2, built) = clone.tier.get_or_compile(&clone);
        assert!(!built, "clones share the compiled artifact");
        assert!(Arc::ptr_eq(&p1, p2));
    }

    #[test]
    fn launch_counter_survives_clone_and_counts_up() {
        let kernel = carry_kernel();
        assert_eq!(kernel.tier.record_launch(), 1);
        assert_eq!(kernel.tier.record_launch(), 2);
        let clone = kernel.clone();
        assert_eq!(clone.tier.record_launch(), 3);
        // The original keeps its own counter.
        assert_eq!(kernel.tier.record_launch(), 3);
    }

    #[test]
    fn tier_counter_arithmetic() {
        let mut t = TierCounters::default();
        t += TierCounters {
            tree: 1,
            decoded: 2,
            compiled: 3,
            promotions: 1,
            lowered_superblocks: 5,
            fallback_superblocks: 2,
            lowered_mem_thunks: 7,
            fallback_insts: 4,
            fused_codec_runs: 2,
            fused_codec_insts: 40,
            fused_live_rows: 6,
            fused_pruned_rows: 20,
            fused_word_planes: 3,
            divbig_warp_lanes: 64,
            divbig_loop_lanes: 5,
        };
        t += TierCounters {
            compiled: 1,
            lowered_mem_thunks: 3,
            divbig_loop_lanes: 1,
            ..Default::default()
        };
        assert_eq!(t.total(), 7);
        assert_eq!(t.compiled, 4);
        assert_eq!(t.promotions, 1);
        assert_eq!(t.lowered_superblocks, 5);
        assert_eq!(t.fallback_superblocks, 2);
        assert_eq!(t.lowered_mem_thunks, 10);
        assert_eq!(t.fallback_insts, 4);
        assert_eq!((t.fused_codec_runs, t.fused_codec_insts), (2, 40));
        assert_eq!((t.fused_live_rows, t.fused_pruned_rows, t.fused_word_planes), (6, 20, 3));
        assert_eq!((t.divbig_warp_lanes, t.divbig_loop_lanes), (64, 6));
    }
}
