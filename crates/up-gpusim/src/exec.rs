//! Functional SIMT executor.
//!
//! Executes a [`Kernel`] the way a SIMT machine does: blocks of warps, each
//! warp running its 32 lanes in lockstep under an active mask. Divergent
//! `If` branches serialize both paths (the cost the paper's expression
//! kernels mostly avoid by construction); `While` loops run until every
//! active lane's predicate drops.
//!
//! Besides computing bit-exact results, the executor gathers the statistics
//! the analytic cost model (see [`crate::cost`]) prices: warp instruction
//! issues (weighted by issue cycles), global-memory transactions with
//! coalescing (distinct 32-byte sectors per warp access), bytes moved, and
//! divergence counts.
//!
//! Blocks execute warp-by-warp, so `bar.sync` is supported only as a cost
//! marker: kernels generated by `up-jit` never communicate across warps
//! through shared memory (the multi-pass aggregation of §III-E2 is modeled
//! in [`crate::reduce`] instead).

use crate::compiled::{self, ExecTier};
use crate::decoded::{self, ExecBackend};
use crate::device::DeviceConfig;
use crate::ptx::{issue_cycles, Inst, Kernel, Special, Stmt};
use core::fmt;

/// Simulated global (device) memory: an indexed set of byte buffers.
/// Buffer indices are the `buf` operands of load/store instructions.
#[derive(Clone, Default)]
pub struct GlobalMem {
    bufs: Vec<Vec<u8>>,
}

impl GlobalMem {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a buffer, returning its index.
    pub fn add_buffer(&mut self, bytes: Vec<u8>) -> u8 {
        let idx = self.bufs.len();
        assert!(idx < 256, "too many device buffers");
        self.bufs.push(bytes);
        idx as u8
    }

    /// Adds a zero-filled buffer of `len` bytes, returning its index.
    pub fn alloc(&mut self, len: usize) -> u8 {
        self.add_buffer(vec![0u8; len])
    }

    /// Read-only view of a buffer.
    pub fn buffer(&self, idx: u8) -> &[u8] {
        &self.bufs[idx as usize]
    }

    /// Mutable view of a buffer.
    pub fn buffer_mut(&mut self, idx: u8) -> &mut Vec<u8> {
        &mut self.bufs[idx as usize]
    }

    /// Length of buffer `buf` — lets the compiled tier bounds-check a
    /// whole lane-affine warp access once instead of per lane.
    #[inline]
    pub(crate) fn buf_len(&self, buf: u8) -> usize {
        self.bufs[buf as usize].len()
    }

    pub(crate) fn load_word(&self, buf: u8, addr: u32) -> Result<u32, SimError> {
        let b = self.buffer(buf);
        let a = addr as usize;
        if a + 4 > b.len() {
            return Err(SimError::OutOfBounds { buf, addr, len: b.len() });
        }
        Ok(u32::from_le_bytes([b[a], b[a + 1], b[a + 2], b[a + 3]]))
    }

    pub(crate) fn load_byte(&self, buf: u8, addr: u32) -> Result<u8, SimError> {
        let b = self.buffer(buf);
        let a = addr as usize;
        if a >= b.len() {
            return Err(SimError::OutOfBounds { buf, addr, len: b.len() });
        }
        Ok(b[a])
    }

    pub(crate) fn store_word(&mut self, buf: u8, addr: u32, v: u32) -> Result<(), SimError> {
        let b = self.buffer_mut(buf);
        let a = addr as usize;
        if a + 4 > b.len() {
            let len = b.len();
            return Err(SimError::OutOfBounds { buf, addr, len });
        }
        b[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    pub(crate) fn store_byte(&mut self, buf: u8, addr: u32, v: u8) -> Result<(), SimError> {
        let b = self.buffer_mut(buf);
        let a = addr as usize;
        if a >= b.len() {
            let len = b.len();
            return Err(SimError::OutOfBounds { buf, addr, len });
        }
        b[a] = v;
        Ok(())
    }

    // Warp-batched lane-affine accesses: lane `i` touches
    // `base + i * stride`. The caller (the compiled tier's lowered mem
    // thunk or fused run) has already bounds-checked the whole span, so
    // one subslice borrow replaces 32 per-lane checks and the strided
    // walks become flat loops the autovectorizer handles. Lanes go in
    // ascending order, so overlapping stores resolve like the
    // interpreter's loop. Loads widen bytes to `u32` lanes and stores
    // truncate, matching `LdGlobalU8`/`StGlobalU8` register semantics.

    #[inline]
    pub(crate) fn load_words_affine(&self, buf: u8, base: u32, stride: u32, out: &mut [u32]) {
        let s = stride as usize;
        let b = &self.bufs[buf as usize][base as usize..];
        if s == 4 {
            for (i, o) in out.iter_mut().enumerate() {
                *o = u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
            }
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = u32::from_le_bytes(b[i * s..i * s + 4].try_into().unwrap());
            }
        }
    }

    #[inline]
    pub(crate) fn load_bytes_affine(&self, buf: u8, base: u32, stride: u32, out: &mut [u32]) {
        let s = stride as usize;
        let b = &self.bufs[buf as usize][base as usize..];
        for (i, o) in out.iter_mut().enumerate() {
            *o = b[i * s] as u32;
        }
    }

    #[inline]
    pub(crate) fn store_words_affine(&mut self, buf: u8, base: u32, stride: u32, src: &[u32]) {
        let s = stride as usize;
        let b = &mut self.bufs[buf as usize][base as usize..];
        for (i, &v) in src.iter().enumerate() {
            b[i * s..i * s + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    #[inline]
    pub(crate) fn store_bytes_affine(&mut self, buf: u8, base: u32, stride: u32, src: &[u32]) {
        let s = stride as usize;
        let b = &mut self.bufs[buf as usize][base as usize..];
        for (i, &v) in src.iter().enumerate() {
            b[i * s] = v as u8;
        }
    }
}

/// Grid/block geometry of a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid (x dimension only — expression kernels are 1-D).
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

impl LaunchConfig {
    /// One thread per tuple with a standard block size, as Listing 1's
    /// grid-stride loop expects.
    pub fn for_tuples(tuples: u64, block_threads: u32, device: &DeviceConfig) -> LaunchConfig {
        let block_threads = block_threads.min(device.max_threads_per_block);
        let blocks = tuples.div_ceil(block_threads as u64);
        // Cap the grid like real launches do; the grid-stride loop covers
        // the remainder.
        let blocks = blocks.min(16 * device.sm_count as u64 * 8).max(1) as u32;
        LaunchConfig { grid_blocks: blocks, block_threads }
    }
}

/// Statistics of one launch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Dynamic instructions summed over threads.
    pub thread_insts: u64,
    /// Warp-level issue slots, weighted by per-class issue cycles.
    pub warp_issue_cycles: f64,
    /// Unweighted warp-level instruction issues.
    pub warp_issues: u64,
    /// Coalesced global-memory transactions (32-byte sectors).
    pub mem_transactions: u64,
    /// Bytes moved between SMs and DRAM (32 B per transaction).
    pub dram_bytes: u64,
    /// Warp-divergent branches encountered.
    pub divergent_branches: u64,
    /// Warps executed.
    pub warps: u64,
    /// Blocks executed.
    pub blocks: u64,
}

impl ExecStats {
    /// Adds a block's stats. Launches call this strictly in block-index
    /// order, so the f64 `warp_issue_cycles` sum has one fixed
    /// accumulation order.
    fn accumulate(&mut self, s: &ExecStats) {
        self.thread_insts += s.thread_insts;
        self.warp_issue_cycles += s.warp_issue_cycles;
        self.warp_issues += s.warp_issues;
        self.mem_transactions += s.mem_transactions;
        self.dram_bytes += s.dram_bytes;
        self.divergent_branches += s.divergent_branches;
        self.warps += s.warps;
        self.blocks += s.blocks;
    }
}

/// Executor failures — all indicate kernel bugs, not data conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Global access outside a buffer.
    OutOfBounds {
        /// Buffer index.
        buf: u8,
        /// Byte address accessed.
        addr: u32,
        /// Buffer length.
        len: usize,
    },
    /// Shared-memory access outside the block's allocation.
    SharedOutOfBounds {
        /// Byte address accessed.
        addr: u32,
        /// Shared bytes allocated.
        len: u32,
    },
    /// Scalar parameter index out of range.
    BadParam(u8),
    /// A `While` exceeded its `max_iter` bound.
    MaxIterExceeded {
        /// Kernel name.
        kernel: String,
        /// The configured bound.
        bound: u32,
    },
    /// A `DivBig`/`RemBig` met a zero divisor — queries abort on division
    /// by zero, matching SQL semantics.
    DivisionByZero {
        /// Kernel name.
        kernel: String,
    },
    /// Kernel requested more shared memory than the device offers.
    SharedMemExceeded {
        /// Requested bytes.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { buf, addr, len } => {
                write!(f, "global access out of bounds: buffer {buf} addr {addr} len {len}")
            }
            SimError::SharedOutOfBounds { addr, len } => {
                write!(f, "shared access out of bounds: addr {addr} of {len}")
            }
            SimError::BadParam(i) => write!(f, "kernel parameter {i} not supplied"),
            SimError::DivisionByZero { kernel } => {
                write!(f, "kernel {kernel}: division by zero")
            }
            SimError::MaxIterExceeded { kernel, bound } => {
                write!(f, "kernel {kernel}: while loop exceeded {bound} iterations")
            }
            SimError::SharedMemExceeded { requested, limit } => {
                write!(f, "shared memory {requested} B exceeds device limit {limit} B")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-lane architectural state.
struct Lane {
    regs: Vec<u32>,
    preds: Vec<bool>,
    carry: bool,
}

struct WarpCtx<'a> {
    lanes: Vec<Lane>,
    mem: &'a mut GlobalMem,
    smem: Vec<u8>,
    params: &'a [u32],
    stats: ExecStats,
    kernel_name: &'a str,
    /// 32-byte sectors this warp has already touched, per buffer — models
    /// the L1/sector buffer so byte-granular compact accesses don't count
    /// one DRAM transaction per byte (§III-B's byte-aligned loads would
    /// otherwise be priced 32× too high).
    seen_sectors: SectorSeen,
}

impl WarpCtx<'_> {
    /// Zeroes the lane file for the next warp, reusing the allocations
    /// (special registers are materialized on demand via `MovSpecial`).
    fn reset_lanes(&mut self, lanes_n: usize, kernel: &Kernel) {
        if self.lanes.len() == lanes_n {
            for lane in &mut self.lanes {
                lane.regs.fill(0);
                lane.preds.fill(false);
                lane.carry = false;
            }
        } else {
            self.lanes = (0..lanes_n)
                .map(|_| Lane {
                    regs: vec![0u32; kernel.num_regs as usize],
                    preds: vec![false; kernel.num_preds as usize],
                    carry: false,
                })
                .collect();
        }
    }
}

/// Per-launch execution options. The default backend is
/// [`ExecBackend::Auto`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LaunchOpts {
    /// Which functional interpreter runs the kernel.
    pub backend: ExecBackend,
}

/// Launches a kernel over the full grid, returning execution statistics.
/// Blocks run in index order on the calling thread; results and stats are
/// bit-identical across the interpreter backends.
pub fn launch(
    kernel: &Kernel,
    cfg: LaunchConfig,
    device: &DeviceConfig,
    mem: &mut GlobalMem,
    params: &[u32],
) -> Result<ExecStats, SimError> {
    launch_opts(kernel, cfg, device, mem, params, LaunchOpts::default())
}

/// [`launch`] with full per-launch options.
pub fn launch_opts(
    kernel: &Kernel,
    cfg: LaunchConfig,
    device: &DeviceConfig,
    mem: &mut GlobalMem,
    params: &[u32],
    opts: LaunchOpts,
) -> Result<ExecStats, SimError> {
    if kernel.smem_bytes > device.shared_mem_per_block {
        return Err(SimError::SharedMemExceeded {
            requested: kernel.smem_bytes,
            limit: device.shared_mem_per_block,
        });
    }
    let warp = device.warp_size as usize;
    let mut promoted = false;
    // Pick the execution tier. The tree walker runs a tree rebuilt from
    // the kernel's program, once per launch; the compiled tier is forced
    // by `ExecBackend::Compiled` and count-promoted under `Auto`.
    let prog = kernel.decoded_program().as_ref();
    let tree;
    let tier = match opts.backend {
        ExecBackend::Tree => {
            tree = prog.to_stmts();
            TierExec::Tree(&tree)
        }
        ExecBackend::Decoded => TierExec::Decoded(prog),
        ExecBackend::Compiled => {
            let (cp, built) = kernel.tier.get_or_compile(kernel);
            // A forced compile is not a promotion event — promotions
            // count `auto`-tier threshold crossings only.
            let _ = built;
            TierExec::Compiled(prog, cp.as_ref())
        }
        ExecBackend::Auto => {
            let nth = kernel.tier.record_launch();
            if nth > compiled::TIER_THRESHOLD {
                let (cp, built) = kernel.tier.get_or_compile(kernel);
                if built {
                    promoted = true;
                }
                TierExec::Compiled(prog, cp.as_ref())
            } else {
                TierExec::Decoded(prog)
            }
        }
    };
    let compiled_prog = match tier {
        TierExec::Compiled(_, cp) => Some(cp),
        _ => None,
    };
    compiled::note_launch(tier.kind(), promoted, compiled_prog);

    // Blocks run in index order on this thread, writing straight into
    // `mem`. The warp context is allocated once per launch, not once per
    // block (the tree walker keeps its own per-block lane file).
    let mut ctx = decoded::DCtx::new(kernel, mem, params);
    let mut total = ExecStats::default();
    for block in 0..cfg.grid_blocks {
        let stats = match tier {
            TierExec::Compiled(p, cp) => {
                decoded::run_block_decoded(p, Some(cp), &mut ctx, cfg, block, warp)
            }
            TierExec::Decoded(p) => decoded::run_block_decoded(p, None, &mut ctx, cfg, block, warp),
            TierExec::Tree(body) => run_block(kernel, body, cfg, block, ctx.mem, params, warp),
        }?;
        total.accumulate(&stats);
    }
    compiled::note_div_lanes(ctx.div.lanes);
    Ok(total)
}

/// The execution tier a launch resolved to, with its read-only artifacts.
#[derive(Clone, Copy)]
enum TierExec<'a> {
    /// Reference tree walker, over the tree rebuilt for this launch.
    Tree(&'a [Stmt]),
    /// Decoded flat-program interpreter.
    Decoded(&'a decoded::DecodedProgram),
    /// Closure-compiled superblocks over the decoded program (divergent
    /// regions interpret frame-for-frame).
    Compiled(&'a decoded::DecodedProgram, &'a compiled::CompiledProgram),
}

impl TierExec<'_> {
    fn kind(self) -> ExecTier {
        match self {
            TierExec::Tree(_) => ExecTier::Tree,
            TierExec::Decoded(_) => ExecTier::Decoded,
            TierExec::Compiled(..) => ExecTier::Compiled,
        }
    }
}

/// Runs one block's warps sequentially against `mem` through the tree
/// walker over `body`, returning the block's stats.
fn run_block(
    kernel: &Kernel,
    body: &[Stmt],
    cfg: LaunchConfig,
    block: u32,
    mem: &mut GlobalMem,
    params: &[u32],
    warp: usize,
) -> Result<ExecStats, SimError> {
    let mut wctx = WarpCtx {
        lanes: Vec::new(),
        mem,
        smem: vec![0u8; kernel.smem_bytes as usize],
        params,
        stats: ExecStats::default(),
        kernel_name: &kernel.name,
        seen_sectors: SectorSeen::new(),
    };
    let threads = cfg.block_threads as usize;
    for warp_start in (0..threads).step_by(warp) {
        let lanes_n = warp.min(threads - warp_start);
        wctx.reset_lanes(lanes_n, kernel);
        let geom = Geometry {
            tid_base: warp_start as u32,
            ctaid: block,
            ntid: cfg.block_threads,
            nctaid: cfg.grid_blocks,
        };
        wctx.seen_sectors.clear();
        exec_stmts(body, &mut wctx, &geom, full_mask(lanes_n))?;
        wctx.stats.warps += 1;
    }
    wctx.stats.blocks += 1;
    Ok(wctx.stats)
}

/// The active mask of a fully-converged warp of `lanes_n` lanes.
#[inline]
pub(crate) fn full_mask(lanes_n: usize) -> u32 {
    if lanes_n == 32 {
        u32::MAX
    } else {
        (1u32 << lanes_n) - 1
    }
}

/// Runs `f` over the active lanes in ascending order. When the mask is
/// full this is the warp-uniform fast path: a plain `0..lanes_n` loop
/// with no per-lane mask tests; otherwise it iterates the set bits.
#[inline(always)]
fn for_each_active<E>(
    mask: u32,
    lanes_n: usize,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    if mask == full_mask(lanes_n) {
        for l in 0..lanes_n {
            f(l)?;
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l)?;
        }
    }
    Ok(())
}

/// Collects the active lanes' values of register `reg` into `buf`
/// (ascending lane order), returning how many were gathered.
#[inline]
fn gather_regs(lanes: &[Lane], mask: u32, reg: u16, buf: &mut [u32; 32]) -> usize {
    let mut n = 0;
    let _ = for_each_active::<std::convert::Infallible>(mask, lanes.len(), |l| {
        buf[n] = lanes[l].regs[reg as usize];
        n += 1;
        Ok(())
    });
    n
}

/// Thread-geometry of the warp being executed.
pub(crate) struct Geometry {
    pub(crate) tid_base: u32,
    pub(crate) ctaid: u32,
    pub(crate) ntid: u32,
    pub(crate) nctaid: u32,
}

fn exec_stmts(
    stmts: &[Stmt],
    w: &mut WarpCtx<'_>,
    geom: &Geometry,
    mask: u32,
) -> Result<(), SimError> {
    if mask == 0 {
        return Ok(());
    }
    for stmt in stmts {
        match stmt {
            Stmt::I(inst) => exec_inst(inst, w, geom, mask)?,
            Stmt::If(s) => {
                let mut taken = 0u32;
                for (l, lane) in w.lanes.iter().enumerate() {
                    if mask >> l & 1 == 1 && lane.preds[s.p as usize] {
                        taken |= 1 << l;
                    }
                }
                let not_taken = mask & !taken;
                if taken != 0 && not_taken != 0 {
                    w.stats.divergent_branches += 1;
                }
                // Branch issue cost.
                w.stats.warp_issues += 1;
                w.stats.warp_issue_cycles += 1.0;
                exec_stmts(&s.then_, w, geom, taken)?;
                exec_stmts(&s.else_, w, geom, not_taken)?;
            }
            Stmt::While(s) => {
                let mut active = mask;
                let mut iters = 0u32;
                loop {
                    exec_stmts(&s.cond, w, geom, active)?;
                    let mut still = 0u32;
                    for (l, lane) in w.lanes.iter().enumerate() {
                        if active >> l & 1 == 1 && lane.preds[s.p as usize] {
                            still |= 1 << l;
                        }
                    }
                    if still != active && still != 0 {
                        w.stats.divergent_branches += 1;
                    }
                    active = still;
                    if active == 0 {
                        break;
                    }
                    exec_stmts(&s.body, w, geom, active)?;
                    iters += 1;
                    if iters > s.max_iter {
                        return Err(SimError::MaxIterExceeded {
                            kernel: w.kernel_name.to_string(),
                            bound: s.max_iter,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

fn exec_inst(
    inst: &Inst,
    w: &mut WarpCtx<'_>,
    geom: &Geometry,
    mask: u32,
) -> Result<(), SimError> {
    if mask == 0 {
        return Ok(());
    }
    let lanes_n = w.lanes.len();
    w.stats.warp_issues += 1;
    w.stats.warp_issue_cycles += issue_cycles(inst);
    w.stats.thread_insts += mask.count_ones() as u64;

    // Memory instructions: model coalescing over the warp's addresses.
    match inst {
        Inst::LdGlobal { d, buf, addr } => {
            let mut abuf = [0u32; 32];
            let n = gather_regs(&w.lanes, mask, *addr, &mut abuf);
            note_transactions(&mut w.stats, &mut w.seen_sectors, *buf, &abuf[..n], 4);
            let mem = &*w.mem;
            let lanes = &mut w.lanes;
            let mut i = 0;
            for_each_active(mask, lanes_n, |l| {
                lanes[l].regs[*d as usize] = mem.load_word(*buf, abuf[i])?;
                i += 1;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::LdGlobalU8 { d, buf, addr } => {
            let mut abuf = [0u32; 32];
            let n = gather_regs(&w.lanes, mask, *addr, &mut abuf);
            note_transactions(&mut w.stats, &mut w.seen_sectors, *buf, &abuf[..n], 1);
            let mem = &*w.mem;
            let lanes = &mut w.lanes;
            let mut i = 0;
            for_each_active(mask, lanes_n, |l| {
                lanes[l].regs[*d as usize] = mem.load_byte(*buf, abuf[i])? as u32;
                i += 1;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::StGlobal { buf, addr, src } => {
            let mut abuf = [0u32; 32];
            let n = gather_regs(&w.lanes, mask, *addr, &mut abuf);
            note_transactions(&mut w.stats, &mut w.seen_sectors, *buf, &abuf[..n], 4);
            let mem = &mut *w.mem;
            let lanes = &w.lanes;
            let mut i = 0;
            for_each_active(mask, lanes_n, |l| {
                mem.store_word(*buf, abuf[i], lanes[l].regs[*src as usize])?;
                i += 1;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::StGlobalU8 { buf, addr, src } => {
            let mut abuf = [0u32; 32];
            let n = gather_regs(&w.lanes, mask, *addr, &mut abuf);
            note_transactions(&mut w.stats, &mut w.seen_sectors, *buf, &abuf[..n], 1);
            let mem = &mut *w.mem;
            let lanes = &w.lanes;
            let mut i = 0;
            for_each_active(mask, lanes_n, |l| {
                mem.store_byte(*buf, abuf[i], lanes[l].regs[*src as usize] as u8)?;
                i += 1;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::LdShared { d, addr } => {
            let smem = &w.smem;
            let lanes = &mut w.lanes;
            for_each_active(mask, lanes_n, |l| {
                let a = lanes[l].regs[*addr as usize];
                lanes[l].regs[*d as usize] = shared_word(smem, a)?;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::StShared { addr, src } => {
            let smem = &mut w.smem;
            let lanes = &w.lanes;
            for_each_active(mask, lanes_n, |l| {
                let a = lanes[l].regs[*addr as usize];
                shared_store(smem, a, lanes[l].regs[*src as usize])?;
                Ok(())
            })?;
            return Ok(());
        }
        Inst::ShflIdx { d, a, lane } => {
            // Gather first so all reads see pre-shuffle values.
            let mut vals = [0u32; 32];
            let lanes = &mut w.lanes;
            let mut n = 0;
            let _ = for_each_active::<std::convert::Infallible>(mask, lanes_n, |l| {
                let src_lane = lanes[l].regs[*lane as usize] as usize % lanes_n;
                vals[n] = lanes[src_lane].regs[*a as usize];
                n += 1;
                Ok(())
            });
            let mut i = 0;
            let _ = for_each_active::<std::convert::Infallible>(mask, lanes_n, |l| {
                lanes[l].regs[*d as usize] = vals[i];
                i += 1;
                Ok(())
            });
            return Ok(());
        }
        Inst::Ballot { d, p } => {
            let lanes = &mut w.lanes;
            let mut ballot = 0u32;
            let _ = for_each_active::<std::convert::Infallible>(mask, lanes_n, |l| {
                if lanes[l].preds[*p as usize] {
                    ballot |= 1 << l;
                }
                Ok(())
            });
            let _ = for_each_active::<std::convert::Infallible>(mask, lanes_n, |l| {
                lanes[l].regs[*d as usize] = ballot;
                Ok(())
            });
            return Ok(());
        }
        Inst::BarSync => return Ok(()), // cost only; warps run sequentially
        Inst::DivBig { d, dn, a, an, b, bn } | Inst::RemBig { d, dn, a, an, b, bn } => {
            let want_rem = matches!(inst, Inst::RemBig { .. });
            let mut max_probe_cycles = 0.0f64;
            let lanes = &mut w.lanes;
            let kernel_name = w.kernel_name;
            for_each_active(mask, lanes_n, |l| {
                let lane = &lanes[l];
                let av: Vec<u32> =
                    (0..*an as usize).map(|i| lane.regs[*a as usize + i]).collect();
                let bv: Vec<u32> =
                    (0..*bn as usize).map(|i| lane.regs[*b as usize + i]).collect();
                if up_num::limbs::is_zero(&bv) {
                    return Err(SimError::DivisionByZero { kernel: kernel_name.to_string() });
                }
                // Dynamic cost: the §III-C2 binary search probes ≈ the
                // quotient's bit range, each probe a full multiply+compare.
                let la = up_num::limbs::bit_len(&av);
                let lb = up_num::limbs::bit_len(&bv);
                let probes = la.saturating_sub(lb) as f64 + 2.0;
                let mul_cost = 2.0 * (*an as f64) * (*bn as f64) + 4.0 * *an as f64;
                max_probe_cycles = max_probe_cycles.max(probes * mul_cost);

                // Functionally Knuth D — bit-identical to the binary
                // search (cross-checked by up-num's property tests) and
                // much faster to simulate; the cost above still prices the
                // binary-search algorithm the kernel would run.
                let (q, r) = up_num::div::div_rem(&av, &bv);
                let out = if want_rem { r } else { q };
                let lane = &mut lanes[l];
                for i in 0..*dn as usize {
                    lane.regs[*d as usize + i] = out.get(i).copied().unwrap_or(0);
                }
                Ok(())
            })?;
            // Lockstep: the warp pays the slowest lane's probe sequence.
            w.stats.warp_issue_cycles += max_probe_cycles;
            return Ok(());
        }
        _ => {}
    }

    // Pure per-lane ALU instructions (warp-uniform fast path: full masks
    // take a plain lane loop with no per-lane mask tests).
    let lanes = &mut w.lanes;
    let params = w.params;
    for_each_active(mask, lanes_n, |l| {
        let lane = &mut lanes[l];
        let r = |lane: &Lane, i: &u16| lane.regs[*i as usize];
        match inst {
            Inst::MovImm { d, imm } => lane.regs[*d as usize] = *imm,
            Inst::Mov { d, a } => lane.regs[*d as usize] = r(lane, a),
            Inst::MovSpecial { d, s } => {
                lane.regs[*d as usize] = match s {
                    Special::TidX => geom.tid_base + l as u32,
                    Special::CtaIdX => geom.ctaid,
                    Special::NTidX => geom.ntid,
                    Special::NCtaIdX => geom.nctaid,
                }
            }
            Inst::Add { d, a, b } => {
                lane.regs[*d as usize] = r(lane, a).wrapping_add(r(lane, b))
            }
            Inst::AddCC { d, a, b } => {
                let (s, c) = r(lane, a).overflowing_add(r(lane, b));
                lane.regs[*d as usize] = s;
                lane.carry = c;
            }
            Inst::AddC { d, a, b } => {
                let (s1, c1) = r(lane, a).overflowing_add(r(lane, b));
                let (s2, c2) = s1.overflowing_add(lane.carry as u32);
                lane.regs[*d as usize] = s2;
                lane.carry = c1 | c2;
            }
            Inst::Sub { d, a, b } => {
                lane.regs[*d as usize] = r(lane, a).wrapping_sub(r(lane, b))
            }
            Inst::SubCC { d, a, b } => {
                let (s, c) = r(lane, a).overflowing_sub(r(lane, b));
                lane.regs[*d as usize] = s;
                lane.carry = c;
            }
            Inst::SubC { d, a, b } => {
                let (s1, c1) = r(lane, a).overflowing_sub(r(lane, b));
                let (s2, c2) = s1.overflowing_sub(lane.carry as u32);
                lane.regs[*d as usize] = s2;
                lane.carry = c1 | c2;
            }
            Inst::MulLo { d, a, b } => {
                lane.regs[*d as usize] = r(lane, a).wrapping_mul(r(lane, b))
            }
            Inst::MulHi { d, a, b } => {
                lane.regs[*d as usize] =
                    ((r(lane, a) as u64 * r(lane, b) as u64) >> 32) as u32
            }
            Inst::MadLoCC { d, a, b, c } => {
                // Carry reflects the low-word addition overflowing, as on HW.
                let prod_lo = (r(lane, a) as u64 * r(lane, b) as u64) as u32;
                let sum = prod_lo as u64 + r(lane, c) as u64;
                lane.regs[*d as usize] = sum as u32;
                lane.carry = sum > u32::MAX as u64;
            }
            Inst::MadHiC { d, a, b, c } => {
                let hi = ((r(lane, a) as u64 * r(lane, b) as u64) >> 32) as u32;
                let (s1, c1) = hi.overflowing_add(r(lane, c));
                let (s2, c2) = s1.overflowing_add(lane.carry as u32);
                lane.regs[*d as usize] = s2;
                lane.carry = c1 | c2;
            }
            Inst::Div { d, a, b } => {
                // Division by zero yields all-ones, as on real SASS.
                lane.regs[*d as usize] = r(lane, a).checked_div(r(lane, b)).unwrap_or(u32::MAX);
            }
            Inst::Rem { d, a, b } => {
                let bv = r(lane, b);
                lane.regs[*d as usize] = if bv == 0 { r(lane, a) } else { r(lane, a) % bv };
            }
            Inst::Div64 { dlo, dhi, alo, ahi, blo, bhi } => {
                let a64 = r(lane, alo) as u64 | (r(lane, ahi) as u64) << 32;
                let b64 = r(lane, blo) as u64 | (r(lane, bhi) as u64) << 32;
                let q = a64.checked_div(b64).unwrap_or(u64::MAX);
                lane.regs[*dlo as usize] = q as u32;
                lane.regs[*dhi as usize] = (q >> 32) as u32;
            }
            Inst::Rem64 { dlo, dhi, alo, ahi, blo, bhi } => {
                let a64 = r(lane, alo) as u64 | (r(lane, ahi) as u64) << 32;
                let b64 = r(lane, blo) as u64 | (r(lane, bhi) as u64) << 32;
                let q = if b64 == 0 { a64 } else { a64 % b64 };
                lane.regs[*dlo as usize] = q as u32;
                lane.regs[*dhi as usize] = (q >> 32) as u32;
            }
            Inst::Bfind { d, a } => {
                let v = r(lane, a);
                lane.regs[*d as usize] =
                    if v == 0 { u32::MAX } else { 31 - v.leading_zeros() };
            }
            Inst::Shl { d, a, b } => {
                let sh = r(lane, b) & 31;
                lane.regs[*d as usize] = r(lane, a) << sh;
            }
            Inst::Shr { d, a, b } => {
                let sh = r(lane, b) & 31;
                lane.regs[*d as usize] = r(lane, a) >> sh;
            }
            Inst::And { d, a, b } => lane.regs[*d as usize] = r(lane, a) & r(lane, b),
            Inst::Or { d, a, b } => lane.regs[*d as usize] = r(lane, a) | r(lane, b),
            Inst::Xor { d, a, b } => lane.regs[*d as usize] = r(lane, a) ^ r(lane, b),
            Inst::SetP { p, op, a, b } => {
                lane.preds[*p as usize] = op.eval(r(lane, a), r(lane, b))
            }
            Inst::SetPImm { p, op, a, imm } => {
                lane.preds[*p as usize] = op.eval(r(lane, a), *imm)
            }
            Inst::PAnd { p, a, b } => {
                lane.preds[*p as usize] = lane.preds[*a as usize] && lane.preds[*b as usize]
            }
            Inst::PNot { p, a } => lane.preds[*p as usize] = !lane.preds[*a as usize],
            Inst::Selp { d, a, b, p } => {
                lane.regs[*d as usize] =
                    if lane.preds[*p as usize] { r(lane, a) } else { r(lane, b) }
            }
            Inst::LdParam { d, idx } => {
                let v = *params.get(*idx as usize).ok_or(SimError::BadParam(*idx))?;
                lane.regs[*d as usize] = v;
            }
            // Memory/warp ops handled above.
            _ => unreachable!("memory instruction fell through"),
        }
        Ok(())
    })?;
    Ok(())
}

/// A fast, non-cryptographic hasher (FxHash-style multiply-xor) for
/// [`SectorSeen`]'s out-of-window fallback set — SipHash dominates
/// profile time there.
#[derive(Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashSet` keyed with [`FxHasher`].
type FxHashSet<T> = std::collections::HashSet<T, std::hash::BuildHasherDefault<FxHasher>>;

/// Sectors one warp-window covers per buffer (4096 × 32 B = 128 KiB of
/// address space — a warp's 32 tuples span a few KiB at most).
const WINDOW_SECTORS: usize = 4096;
/// Sectors the window anchor backs off below the first access, so
/// slightly-backwards patterns stay on the dense path.
const WINDOW_BACKOFF: u32 = 256;

/// Per-warp seen-sector set modelling the L1/sector buffer.
///
/// Semantically this is exactly a set of `(buf, sector)` pairs cleared
/// per warp — but a warp's accesses cluster in a narrow window of each
/// buffer (its 32 tuples), so membership is served by a dense
/// epoch-stamped window per buffer: `insert` is one index + compare +
/// store and `clear` is an epoch bump, instead of hashing every lane of
/// every memory instruction. Sectors outside the window (scattered
/// gathers, fuzzing's wild addresses) fall back to a hash set.
pub(crate) struct SectorSeen {
    epoch: u32,
    windows: Vec<SectorWindow>,
    fallback: FxHashSet<(u8, u32)>,
}

struct SectorWindow {
    /// First sector covered this warp; `u32::MAX` = not yet anchored.
    base: u32,
    /// Epoch stamp per sector in `[base, base + WINDOW_SECTORS)`.
    stamps: Vec<u32>,
}

impl SectorWindow {
    fn new() -> Self {
        SectorWindow { base: u32::MAX, stamps: vec![0; WINDOW_SECTORS] }
    }
}

impl SectorSeen {
    pub(crate) fn new() -> Self {
        SectorSeen { epoch: 1, windows: Vec::new(), fallback: FxHashSet::default() }
    }

    /// Forgets everything: the next warp starts with a cold sector buffer.
    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            for w in &mut self.windows {
                w.stamps.fill(0);
            }
            self.epoch = 1;
        }
        for w in &mut self.windows {
            w.base = u32::MAX;
        }
        self.fallback.clear();
    }

    /// Marks `(buf, sector)` as touched; `true` iff it was new this warp.
    #[inline]
    fn insert(&mut self, buf: u8, sector: u32) -> bool {
        let b = buf as usize;
        if b >= self.windows.len() {
            self.windows.resize_with(b + 1, SectorWindow::new);
        }
        let w = &mut self.windows[b];
        if w.base == u32::MAX {
            w.base = sector - sector.min(WINDOW_BACKOFF);
        }
        match w.stamps.get_mut(sector.wrapping_sub(w.base) as usize) {
            Some(stamp) if *stamp == self.epoch => false,
            Some(stamp) => {
                *stamp = self.epoch;
                true
            }
            None => self.fallback.insert((buf, sector)),
        }
    }

    /// [`SectorSeen::insert`] for every sector in `first..=last`
    /// (ascending, so an unanchored window anchors on `first` like the
    /// per-sector loop would); returns how many were new this warp. The
    /// part of the range inside the dense window is one pass over its
    /// stamp slice.
    fn insert_range(&mut self, buf: u8, first: u32, last: u32) -> u64 {
        let b = buf as usize;
        if b >= self.windows.len() {
            self.windows.resize_with(b + 1, SectorWindow::new);
        }
        let w = &mut self.windows[b];
        if w.base == u32::MAX {
            w.base = first - first.min(WINDOW_BACKOFF);
        }
        let lo = first.max(w.base);
        let hi = last.min(w.base + (WINDOW_SECTORS as u32 - 1));
        let mut new = 0u64;
        if lo <= hi {
            let epoch = self.epoch;
            for stamp in &mut w.stamps[(lo - w.base) as usize..=(hi - w.base) as usize] {
                new += (*stamp != epoch) as u64;
                *stamp = epoch;
            }
        }
        for sector in (first..=last).filter(|s| !(lo..=hi).contains(s)) {
            new += self.fallback.insert((buf, sector)) as u64;
        }
        new
    }
}

/// Coalescing model: the warp's addresses are grouped into 32-byte
/// sectors; each distinct sector the warp has not touched before is one
/// DRAM transaction (§IV-A's memory-bound profile follows from this).
/// The per-warp `seen` set models the L1/sector buffer, so the
/// byte-granular loads of the compact representation hit each sector
/// once instead of once per byte.
pub(crate) fn note_transactions(
    stats: &mut ExecStats,
    seen: &mut SectorSeen,
    buf: u8,
    addrs: &[u32],
    width: u32,
) {
    if addrs.is_empty() {
        return;
    }
    // Batched fast path: a warp-uniform access with stride-`width`
    // consecutive addresses covers one contiguous sector range — compute
    // it once instead of hashing every lane's address.
    let first = addrs[0] as u64;
    let w = width as u64;
    let contiguous = addrs
        .iter()
        .enumerate()
        .all(|(i, &a)| a as u64 == first + i as u64 * w);
    if contiguous {
        let last_end = first + (addrs.len() as u64 - 1) * w + w - 1;
        for sector in (first / 32)..=(last_end / 32) {
            if seen.insert(buf, sector as u32) {
                stats.mem_transactions += 1;
                stats.dram_bytes += 32;
            }
        }
        return;
    }
    // u64 like the contiguous path: a wild address near `u32::MAX` must
    // reach the bounds check as a typed error, not overflow here.
    for &a in addrs {
        let a = a as u64;
        for sector in (a / 32)..=((a + w - 1) / 32) {
            if seen.insert(buf, sector as u32) {
                stats.mem_transactions += 1;
                stats.dram_bytes += 32;
            }
        }
    }
}

/// [`note_transactions`] for a lane-affine warp access — lane `l` touches
/// `width` bytes at `base + l·stride` (wrapping) — counted from the four
/// numbers instead of from `n` addresses. Same set of `(buf, sector)`
/// pairs inserted, lowest first, so `mem_transactions`/`dram_bytes` and
/// the window anchor are exactly what the address slice would give. When
/// adjacent lanes leave no 32-byte gap (`stride − width < 32`) every
/// sector between the first and the last byte is touched: one
/// [`SectorSeen::insert_range`]. A warp whose addresses wrap `u32` is
/// materialised and handed to [`note_transactions`].
pub(crate) fn note_transactions_affine(
    stats: &mut ExecStats,
    seen: &mut SectorSeen,
    buf: u8,
    base: u32,
    stride: u32,
    n: usize,
    width: u32,
) {
    if n == 0 {
        return;
    }
    let (b, s, w) = (base as u64, stride as u64, width as u64);
    let last_addr = b + s * (n as u64 - 1);
    if last_addr > u32::MAX as u64 {
        let mut addrs = [0u32; 32];
        for (l, a) in addrs[..n].iter_mut().enumerate() {
            *a = base.wrapping_add(stride.wrapping_mul(l as u32));
        }
        return note_transactions(stats, seen, buf, &addrs[..n], width);
    }
    let new = if s < w + 32 {
        seen.insert_range(buf, (b / 32) as u32, ((last_addr + w - 1) / 32) as u32)
    } else {
        (0..n as u64)
            .map(|l| {
                let a = b + l * s;
                seen.insert_range(buf, (a / 32) as u32, ((a + w - 1) / 32) as u32)
            })
            .sum()
    };
    stats.mem_transactions += new;
    stats.dram_bytes += 32 * new;
}

pub(crate) fn shared_word(smem: &[u8], addr: u32) -> Result<u32, SimError> {
    let a = addr as usize;
    if a + 4 > smem.len() {
        return Err(SimError::SharedOutOfBounds { addr, len: smem.len() as u32 });
    }
    Ok(u32::from_le_bytes([smem[a], smem[a + 1], smem[a + 2], smem[a + 3]]))
}

pub(crate) fn shared_store(smem: &mut [u8], addr: u32, v: u32) -> Result<(), SimError> {
    let a = addr as usize;
    if a + 4 > smem.len() {
        return Err(SimError::SharedOutOfBounds { addr, len: smem.len() as u32 });
    }
    smem[a..a + 4].copy_from_slice(&v.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptx::{CmpOp, Inst as I, KernelBuilder, Special};

    /// Builds the canonical "out[i] = a[i] + b[i]" word kernel with a
    /// grid-stride loop, as in Listing 1's skeleton.
    fn vec_add_kernel() -> crate::ptx::Kernel {
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        let nctaid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        kb.push(I::MovSpecial { d: nctaid, s: Special::NCtaIdX });
        let i = kb.reg();
        let stride = kb.reg();
        kb.push(I::MulLo { d: i, a: ctaid, b: ntid });
        kb.push(I::Add { d: i, a: i, b: tid });
        kb.push(I::MulLo { d: stride, a: ntid, b: nctaid });
        let n = kb.reg();
        kb.push(I::LdParam { d: n, idx: 0 });
        let p = kb.pred();
        let cond = kb.block(|b| b.push(I::SetP { p, op: CmpOp::Lt, a: i, b: n }));
        let four = kb.imm(4);
        let body = kb.block(|b| {
            let addr = b.reg();
            let av = b.reg();
            let bv = b.reg();
            b.push(I::MulLo { d: addr, a: i, b: four });
            b.push(I::LdGlobal { d: av, buf: 0, addr });
            b.push(I::LdGlobal { d: bv, buf: 1, addr });
            b.push(I::AddCC { d: av, a: av, b: bv });
            b.push(I::StGlobal { buf: 2, addr, src: av });
            b.push(I::Add { d: i, a: i, b: stride });
        });
        kb.while_(p, cond, body, 1 << 20);
        kb.finish("vec_add", 24)
    }

    fn words_to_bytes(v: &[u32]) -> Vec<u8> {
        v.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn vector_add_computes_and_coalesces() {
        let device = DeviceConfig::tiny();
        let n = 1000u32;
        let a: Vec<u32> = (0..n).collect();
        let b: Vec<u32> = (0..n).map(|i| i * 7).collect();
        let mut mem = GlobalMem::new();
        let ba = mem.add_buffer(words_to_bytes(&a));
        let bb = mem.add_buffer(words_to_bytes(&b));
        let bo = mem.alloc(4 * n as usize);
        assert_eq!((ba, bb, bo), (0, 1, 2));

        let kernel = vec_add_kernel();
        let cfg = LaunchConfig { grid_blocks: 4, block_threads: 128 };
        let stats = launch(&kernel, cfg, &device, &mut mem, &[n]).unwrap();

        let out = mem.buffer(bo);
        for i in 0..n as usize {
            let got = u32::from_le_bytes(out[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(got, a[i].wrapping_add(b[i]), "i={i}");
        }
        // Coalescing: each warp reads 32 consecutive words = 4 sectors per
        // load, so transactions ≈ 3 accesses × 4 sectors × warps(+loop
        // overhead), far below 1 per thread per access.
        assert!(stats.mem_transactions < 3 * n as u64 / 2, "{stats:?}");
        assert!(stats.warps >= 16);
    }

    #[test]
    fn divergence_is_counted() {
        // if (tid & 1) x = 1 else x = 2 — every warp diverges.
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        let one = kb.imm(1);
        let bit = kb.reg();
        kb.push(I::And { d: bit, a: tid, b: one });
        let p = kb.pred();
        kb.push(I::SetPImm { p, op: CmpOp::Eq, a: bit, imm: 1 });
        let x = kb.reg();
        let then_ = kb.block(|b| b.push(I::MovImm { d: x, imm: 1 }));
        let else_ = kb.block(|b| b.push(I::MovImm { d: x, imm: 2 }));
        kb.if_(p, then_, else_);
        let kernel = kb.finish("diverge", 16);

        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        let cfg = LaunchConfig { grid_blocks: 1, block_threads: 64 };
        let stats = launch(&kernel, cfg, &device, &mut mem, &[]).unwrap();
        assert_eq!(stats.divergent_branches, 2); // one per warp
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut kb = KernelBuilder::new();
        let addr = kb.imm(1_000_000);
        let d = kb.reg();
        kb.push(I::LdGlobal { d, buf: 0, addr });
        let kernel = kb.finish("oob", 16);
        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        mem.alloc(16);
        let cfg = LaunchConfig { grid_blocks: 1, block_threads: 1 };
        let err = launch(&kernel, cfg, &device, &mut mem, &[]).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { buf: 0, .. }));
    }

    #[test]
    fn while_guard_trips_on_runaway_loops() {
        let mut kb = KernelBuilder::new();
        let p = kb.pred();
        let zero = kb.reg();
        let cond = kb.block(|b| b.push(I::SetPImm { p, op: CmpOp::Eq, a: zero, imm: 0 }));
        kb.while_(p, cond, vec![], 10);
        let kernel = kb.finish("runaway", 16);
        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        let cfg = LaunchConfig { grid_blocks: 1, block_threads: 1 };
        let err = launch(&kernel, cfg, &device, &mut mem, &[]).unwrap_err();
        assert!(matches!(err, SimError::MaxIterExceeded { .. }));
    }

    #[test]
    fn carry_chain_matches_hardware_semantics() {
        // 0xFFFFFFFF + 1 with AddCC, then 0 + 0 with AddC must yield 1.
        let mut kb = KernelBuilder::new();
        let a = kb.imm(u32::MAX);
        let one = kb.imm(1);
        let zero = kb.imm(0);
        let lo = kb.reg();
        let hi = kb.reg();
        kb.push(I::AddCC { d: lo, a, b: one });
        kb.push(I::AddC { d: hi, a: zero, b: zero });
        let addr0 = kb.imm(0);
        let addr4 = kb.imm(4);
        kb.push(I::StGlobal { buf: 0, addr: addr0, src: lo });
        kb.push(I::StGlobal { buf: 0, addr: addr4, src: hi });
        let kernel = kb.finish("carry", 16);
        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        mem.alloc(8);
        let cfg = LaunchConfig { grid_blocks: 1, block_threads: 1 };
        launch(&kernel, cfg, &device, &mut mem, &[]).unwrap();
        let out = mem.buffer(0);
        assert_eq!(&out[..8], &[0, 0, 0, 0, 1, 0, 0, 0]);
    }

    /// Runs `kernel` on the tree walker, then on the decoded and compiled
    /// tiers, and asserts each agrees with the tree walker: the result
    /// (full `ExecStats` with the f64 cycle sum to the bit, or the exact
    /// error) and, on success, every buffer byte. Returns the tree
    /// walker's run for spot checks.
    fn assert_tiers_match_tree(
        kernel: &Kernel,
        cfg: LaunchConfig,
        base: &GlobalMem,
        params: &[u32],
    ) -> (Result<ExecStats, SimError>, GlobalMem) {
        let device = DeviceConfig::tiny();
        let run = |backend| {
            let mut mem = base.clone();
            // Not yet promoted: a compiled launch builds with the forced set.
            let kernel = Kernel { tier: Default::default(), ..kernel.clone() };
            let res = launch_opts(&kernel, cfg, &device, &mut mem, params, LaunchOpts { backend });
            (res, mem)
        };
        let (tree_res, tree_mem) = run(ExecBackend::Tree);
        for (backend, isa) in crate::compiled::tests::forced_isa::tiers() {
            let (res, mem) = crate::compiled::tests::forced_isa::with(isa, || run(backend));
            let at = format!("{} under {backend}/{isa}", kernel.name);
            assert_eq!(res, tree_res, "{at}: result diverged");
            assert_eq!(
                res.as_ref().map(|s| s.warp_issue_cycles.to_bits()),
                tree_res.as_ref().map(|s| s.warp_issue_cycles.to_bits()),
                "{at}: f64 cycle sum must be bit-identical"
            );
            if tree_res.is_ok() {
                for b in 0..base.bufs.len() as u8 {
                    assert_eq!(mem.buffer(b), tree_mem.buffer(b), "{at}: buffer {b} diverged");
                }
            }
        }
        (tree_res, tree_mem)
    }

    #[test]
    fn unaligned_stores_match_on_every_tier() {
        // Lane writes: byte tid at addr 3*tid+1, word tid at addr 4*tid+2
        // — unaligned, and the byte stride is non-contiguous, so the slow
        // coalescing path runs.
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        let gid = kb.reg();
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let three = kb.imm(3);
        let one = kb.imm(1);
        let addr_b = kb.reg();
        kb.push(I::MulLo { d: addr_b, a: gid, b: three });
        kb.push(I::Add { d: addr_b, a: addr_b, b: one });
        kb.push(I::StGlobalU8 { buf: 0, addr: addr_b, src: gid });
        let four = kb.imm(4);
        let two = kb.imm(2);
        let addr_w = kb.reg();
        kb.push(I::MulLo { d: addr_w, a: gid, b: four });
        kb.push(I::Add { d: addr_w, a: addr_w, b: two });
        kb.push(I::StGlobal { buf: 1, addr: addr_w, src: gid });
        let kernel = kb.finish("unaligned", 16);

        let cfg = LaunchConfig { grid_blocks: 4, block_threads: 64 };
        let threads = (cfg.grid_blocks * cfg.block_threads) as usize;
        let mut base = GlobalMem::new();
        base.alloc(3 * threads + 1);
        base.alloc(4 * threads + 2);
        let (res, mem) = assert_tiers_match_tree(&kernel, cfg, &base, &[]);
        res.unwrap();
        // Spot-check the writes landed: tid 5 → byte at 16.
        assert_eq!(mem.buffer(0)[16], 5);
    }

    #[test]
    fn block_errors_surface_identically_on_every_tier() {
        // Only the first 2 blocks' loads are in bounds: block 2 of 8 fails
        // at its first lane, with the same error on every tier.
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        let ctaid = kb.reg();
        let ntid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::MovSpecial { d: ctaid, s: Special::CtaIdX });
        kb.push(I::MovSpecial { d: ntid, s: Special::NTidX });
        let gid = kb.reg();
        kb.push(I::MulLo { d: gid, a: ctaid, b: ntid });
        kb.push(I::Add { d: gid, a: gid, b: tid });
        let four = kb.imm(4);
        let addr = kb.reg();
        kb.push(I::MulLo { d: addr, a: gid, b: four });
        let v = kb.reg();
        kb.push(I::LdGlobal { d: v, buf: 0, addr });
        let kernel = kb.finish("oob_block2", 16);

        let cfg = LaunchConfig { grid_blocks: 8, block_threads: 128 };
        let mut base = GlobalMem::new();
        base.alloc(2 * 128 * 4);
        let (res, _) = assert_tiers_match_tree(&kernel, cfg, &base, &[]);
        assert!(matches!(res, Err(SimError::OutOfBounds { buf: 0, addr: 1024, .. })), "{res:?}");
    }

    #[test]
    fn bar_sync_kernels_run_on_every_tier() {
        // `bar.sync` is a cost marker: warps run sequentially, so the
        // kernel's stores land as if the barrier were absent.
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        kb.push(I::BarSync);
        let four = kb.imm(4);
        let addr = kb.reg();
        kb.push(I::MulLo { d: addr, a: tid, b: four });
        kb.push(I::StGlobal { buf: 0, addr, src: tid });
        let kernel = kb.finish("barsync", 16);

        let cfg = LaunchConfig { grid_blocks: 2, block_threads: 64 };
        let mut base = GlobalMem::new();
        base.alloc(64 * 4);
        let (res, mem) = assert_tiers_match_tree(&kernel, cfg, &base, &[]);
        res.unwrap();
        assert_eq!(mem.buffer(0), &words_to_bytes(&(0..64).collect::<Vec<u32>>())[..]);
    }

    #[test]
    fn ballot_and_shfl() {
        // Lane i reads lane 0's tid; ballot of (tid < 4) = 0b1111.
        let mut kb = KernelBuilder::new();
        let tid = kb.reg();
        kb.push(I::MovSpecial { d: tid, s: Special::TidX });
        let p = kb.pred();
        kb.push(I::SetPImm { p, op: CmpOp::Lt, a: tid, imm: 4 });
        let bal = kb.reg();
        kb.push(I::Ballot { d: bal, p });
        let zero = kb.imm(0);
        let from0 = kb.reg();
        kb.push(I::ShflIdx { d: from0, a: tid, lane: zero });
        // Store ballot at tid*4 and from0 at 128 + tid*4.
        let four = kb.imm(4);
        let addr = kb.reg();
        kb.push(I::MulLo { d: addr, a: tid, b: four });
        kb.push(I::StGlobal { buf: 0, addr, src: bal });
        let off = kb.imm(128);
        kb.push(I::Add { d: addr, a: addr, b: off });
        kb.push(I::StGlobal { buf: 0, addr, src: from0 });
        let kernel = kb.finish("warp_ops", 16);
        let device = DeviceConfig::tiny();
        let mut mem = GlobalMem::new();
        mem.alloc(256);
        let cfg = LaunchConfig { grid_blocks: 1, block_threads: 32 };
        launch(&kernel, cfg, &device, &mut mem, &[]).unwrap();
        let out = mem.buffer(0);
        let ballot = u32::from_le_bytes(out[0..4].try_into().unwrap());
        assert_eq!(ballot, 0b1111);
        for l in 0..32 {
            let v = u32::from_le_bytes(out[128 + 4 * l..132 + 4 * l].try_into().unwrap());
            assert_eq!(v, 0, "lane {l} should read lane 0's tid");
        }
    }

    /// The decoded and compiled tiers must agree with the tree walker on
    /// the canonical vec_add workload — stats, bytes, and the f64 cycle
    /// sum to the bit.
    #[test]
    fn decoded_backend_matches_tree_on_vec_add() {
        let n = 4000u32;
        let a: Vec<u32> = (0..n).collect();
        let b: Vec<u32> = (0..n).map(|i| i.wrapping_mul(7)).collect();
        let mut base = GlobalMem::new();
        base.add_buffer(words_to_bytes(&a));
        base.add_buffer(words_to_bytes(&b));
        base.alloc(4 * n as usize);
        let cfg = LaunchConfig { grid_blocks: 16, block_threads: 128 };
        let (res, _) = assert_tiers_match_tree(&vec_add_kernel(), cfg, &base, &[n]);
        res.unwrap();
    }

    /// Count-based tier promotion under `auto`: a cold kernel must not
    /// pay closure-compile cost, the launch that crosses the threshold
    /// compiles exactly once (a promotion event), and promoted launches
    /// stay bit-identical to the decoded interpreter.
    #[test]
    fn auto_promotes_after_threshold_and_stays_bit_identical() {
        let device = DeviceConfig::tiny();
        let n = 2048u32;
        let mut base = GlobalMem::new();
        base.add_buffer(words_to_bytes(&(0..n).collect::<Vec<u32>>()));
        base.add_buffer(words_to_bytes(&(0..n).map(|i| i.wrapping_mul(3)).collect::<Vec<u32>>()));
        base.alloc(4 * n as usize);
        let kernel = vec_add_kernel(); // fresh kernel → fresh launch counter
        let cfg = LaunchConfig { grid_blocks: 16, block_threads: 128 };
        let run = |backend: ExecBackend| {
            let mut mem = base.clone();
            let stats =
                launch_opts(&kernel, cfg, &device, &mut mem, &[n], LaunchOpts { backend }).unwrap();
            (stats, mem.buffer(2).to_vec())
        };

        // Reference: the decoded interpreter (explicit `decoded` never
        // builds the compiled artifact and does not count toward
        // promotion).
        let reference = run(ExecBackend::Decoded);
        assert!(!kernel.compiled_tier_built(), "explicit decoded must not compile");

        let threshold = compiled::TIER_THRESHOLD;
        for i in 1..=threshold {
            assert_eq!(run(ExecBackend::Auto), reference, "cold launch {i}");
            assert!(
                !kernel.compiled_tier_built(),
                "launch {i} of {threshold} must not pay compile cost"
            );
            let t = compiled::last_launch_tiers();
            assert_eq!((t.decoded, t.compiled, t.promotions), (1, 0, 0));
        }

        // The threshold-crossing launch compiles (one promotion event)…
        assert_eq!(run(ExecBackend::Auto), reference, "promoted launch");
        assert!(kernel.compiled_tier_built(), "launch {} must promote", threshold + 1);
        let t = compiled::last_launch_tiers();
        assert_eq!((t.decoded, t.compiled, t.promotions), (0, 1, 1));

        // …and later launches reuse the artifact (compiled, no new
        // promotion), still bit-identical.
        assert_eq!(run(ExecBackend::Auto), reference, "hot launch");
        let t = compiled::last_launch_tiers();
        assert_eq!((t.decoded, t.compiled, t.promotions), (0, 1, 0));
    }

    /// `note_transactions_affine` is `note_transactions` on the
    /// materialised address slice: same counts after every access of a
    /// warp, same window anchors, across accesses that start inside,
    /// straddle and miss the dense window (hash fallback), two buffers,
    /// and addresses that reach or wrap past `u32::MAX`.
    #[test]
    fn affine_coalescing_matches_the_address_slice() {
        let mut state = 0x5ec7_0a55_1234_5678u64;
        let mut next = move |n: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % n
        };
        let (mut by_slice, mut by_form) = (SectorSeen::new(), SectorSeen::new());
        let (mut s1, mut s2) = (ExecStats::default(), ExecStats::default());
        let window_bytes = WINDOW_SECTORS as u32 * 32;
        for warp in 0..3000 {
            let anchor = next(1 << 20);
            for access in 0..1 + next(5) {
                let base = match next(8) {
                    0 => anchor + window_bytes - next(6000),
                    1 => anchor.saturating_sub(WINDOW_BACKOFF * 32 + next(4000)),
                    2 => u32::MAX - next(6000),
                    _ => anchor + next(8192),
                };
                let (stride, n) = (next(161), 1 + next(32) as usize);
                let width = if next(2) == 0 { 1 } else { 4 };
                let buf = next(2) as u8;
                let addrs: Vec<u32> =
                    (0..n as u32).map(|l| base.wrapping_add(stride.wrapping_mul(l))).collect();
                note_transactions(&mut s1, &mut by_slice, buf, &addrs, width);
                note_transactions_affine(&mut s2, &mut by_form, buf, base, stride, n, width);
                assert_eq!(
                    s1, s2,
                    "warp {warp} access {access}: buf {buf} base {base:#x} stride {stride} n {n} width {width}"
                );
            }
            let anchors = |s: &SectorSeen| s.windows.iter().map(|w| w.base).collect::<Vec<_>>();
            assert_eq!(anchors(&by_slice), anchors(&by_form), "warp {warp}");
            by_slice.clear();
            by_form.clear();
        }
        assert!(s1.mem_transactions > 0);
    }

    #[test]
    fn fx_hash_distinguishes_nearby_keys() {
        use std::hash::BuildHasher;
        let h = |k: (u8, u32)| std::hash::BuildHasherDefault::<FxHasher>::default().hash_one(k);
        assert_ne!(h((0, 1)), h((0, 2)));
        assert_ne!(h((0, 1)), h((1, 1)));
    }

    /// Regression: the per-lane path summed `addr + width - 1` in u32, so
    /// a wild word access at `u32::MAX - 1` panicked (debug) or counted
    /// nothing (release) ahead of the typed bounds error. In u64 it
    /// touches the sector it starts in and the next.
    #[test]
    fn coalescing_a_wild_address_neither_overflows_nor_drops_sectors() {
        for (addrs, sectors) in [(vec![u32::MAX - 1; 32], 2), (vec![7, u32::MAX - 1], 3)] {
            let mut stats = ExecStats::default();
            note_transactions(&mut stats, &mut SectorSeen::new(), 0, &addrs, 4);
            assert_eq!((stats.mem_transactions, stats.dram_bytes), (sectors, 32 * sectors));
        }
    }
}
