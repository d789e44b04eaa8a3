//! The traced run (`--trace 1`): one thread walks each statement through
//! the layers by hand, timing calls into their public functions from the
//! outside and recording a span per call. Produces the per-layer metrics
//! and `bench/out/trace-<workload>.jsonl`.
//!
//! Per statement: `net.query_decode` → `net.admit` → `engine.parse` →
//! `engine.plan` → `jit.optimize` / `jit.compile_*` and `sim.launch` per
//! kernel → `sim.reduce` per aggregate → `engine.query` (the whole
//! `Database::query`; logical parent of the five before it) →
//! `engine.render` → `net.rows_encode` → `net.rows_decode`, then
//! `server.roundtrip` (`UpServer::query`) and `wire.roundtrip`
//! (`Client::query`). The children of `engine.query` are re-executions
//! outside its interval: compare durations, not timestamps.

use crate::oracle::{Item, RefExpr};
use crate::stack::{
    fresh_db, ingest_writer, mirror_catalog, render, replay, BatchSample, Checker, Stack, TENANT,
};
use crate::stats::{percentile, sorted, threads_named, ClassSamples};
use crate::workloads::{Stmt, Workload, COLD_SHAPES};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};
use up_engine::plan::plan;
use up_engine::sql::parse_select;
use up_engine::{Catalog, ColumnType, Database, Profile, Value};
use up_gpusim::cgbn::Tpi;
use up_gpusim::reduce::{aggregate, AggOp};
use up_gpusim::{launch_opts, DeviceConfig, ExecBackend, ExecStats, GlobalMem, LaunchOpts};
use up_jit::cache::{Compiled, JitEngine};
use up_jit::{CompiledExpr, Expr};
use up_net::{parse_frame, Frame, TenantQuota, TenantRegistry, DEFAULT_MAX_FRAME};
use up_num::{decode_compact, encode_compact, DecimalType, UpDecimal};
use up_server::SessionId;

/// One timed call. `parent` is the id of the span it is accounted under.
struct Span {
    id: u32,
    name: &'static str,
    parent: u32,
    stmt: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Switched off it neither reads the clock nor
/// stores anything: the walk alternates statements between the two
/// states, and the difference in walk time is `trace.overhead_frac`.
struct Tracer {
    t0: Instant,
    on: bool,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `f` as a new span; returns its result and duration in seconds
    /// (0 when off).
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.reserve();
        self.span_as(id, name, parent, stmt, f)
    }

    fn span_as<R>(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let start = self.t0.elapsed();
        let r = f();
        let end = self.t0.elapsed();
        self.spans.push(Span {
            id,
            name,
            parent,
            stmt,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (r, (end - start).as_secs_f64())
    }

    /// Names the span just recorded once its outcome is known.
    fn rename_last(&mut self, name: &'static str) {
        if self.on {
            if let Some(s) = self.spans.last_mut() {
                s.name = name;
            }
        }
    }
}

/// One kernel's device buffers, encoded once: buffer `slot` holds the
/// selected rows of the column that expression slot reads.
struct KernelInput {
    mem: GlobalMem,
    out_buf: u8,
    tuples: usize,
}

/// Column name behind each input slot of an expression.
fn slots(e: &Expr, out: &mut BTreeMap<usize, String>) {
    match e {
        Expr::Col { index, name, .. } => {
            out.insert(*index, name.rsplit('.').next().unwrap_or(name).to_string());
        }
        Expr::Const(_) => {}
        Expr::Neg(a) => slots(a, out),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
            slots(a, out);
            slots(b, out);
        }
    }
}

fn launch(
    device: &DeviceConfig,
    k: &CompiledExpr,
    input: &KernelInput,
    backend: ExecBackend,
) -> (GlobalMem, ExecStats) {
    let mut mem = input.mem.clone();
    let cfg = k.launch_config(input.tuples as u64, 256, device);
    let opts = LaunchOpts {
        backend,
        ..LaunchOpts::default()
    };
    let stats = launch_opts(
        &k.kernel,
        cfg,
        device,
        &mut mem,
        &[input.tuples as u32],
        opts,
    )
    .expect("workload kernels do not fault");
    (mem, stats)
}

/// Everything the walk accumulates.
#[derive(Default)]
struct Tally {
    /// Seconds per span kind, by statement class.
    samples: HashMap<&'static str, ClassSamples>,
    walk_on: ClassSamples,
    walk_off: ClassSamples,
    // Exact counts over the first `trace_len` statements.
    counted: u64,
    warp_issues: u64,
    thread_insts: u64,
    mem_transactions: u64,
    divergent_branches: u64,
    reply_bytes: u64,
    static_insts: BTreeMap<String, u64>,
    // Host speed of the auto tier.
    auto_launch_s: f64,
    auto_warp_issues: u64,
    lowered: u64,
    fallback: u64,
    rows_rendered: u64,
    render_s: f64,
    verified: usize,
    mismatches: usize,
    result_ty: Option<DecimalType>,
}

impl Tally {
    fn mix(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map(ClassSamples::mix_median)
            .unwrap_or(0.0)
    }
}

/// A decimal column's whole compact encoding and type (`None` for other columns).
type EncodedColumn = Option<(Vec<u8>, DecimalType)>;

struct Walker<'a> {
    w: &'a Workload,
    check: Checker,
    db: &'a Database,
    catalog: Catalog,
    jit: JitEngine,
    tenants: TenantRegistry,
    device: DeviceConfig,
    /// Whole-column compact encodings, `[table][column]`.
    encoded: Vec<Vec<EncodedColumn>>,
    /// Inputs of warm statements by `(class, kernel)`, built on first use.
    inputs: HashMap<(usize, usize), Rc<KernelInput>>,
    t: Tally,
}

impl Walker<'_> {
    fn encode_tables(w: &Workload) -> Vec<Vec<EncodedColumn>> {
        w.tables
            .iter()
            .map(|t| {
                t.cols
                    .iter()
                    .enumerate()
                    .map(|(c, (_, ty))| {
                        let ColumnType::Decimal(ty) = ty else {
                            return None;
                        };
                        let mut bytes = Vec::with_capacity(t.rows.len() * ty.lb());
                        for row in &t.rows {
                            let Value::Decimal(d) = &row[c] else {
                                unreachable!("typed column")
                            };
                            bytes.extend(encode_compact(d, *ty).expect("fits its column"));
                        }
                        Some((bytes, *ty))
                    })
                    .collect()
            })
            .collect()
    }

    /// Device buffers for one kernel of `s`. The engine filters on the
    /// host, so a kernel sees only the selected rows.
    fn kernel_input(&self, s: &Stmt, sel: &[u32], expr: &Expr, k: &CompiledExpr) -> KernelInput {
        let t = &self.w.tables[s.table];
        let mut names = BTreeMap::new();
        slots(expr, &mut names);
        let mut mem = GlobalMem::new();
        for (slot, (index, name)) in names.iter().enumerate() {
            assert_eq!(slot, *index, "expression slots are dense");
            let c = t
                .cols
                .iter()
                .position(|(n, _)| n == name)
                .expect("kernel column in table");
            let (bytes, ty) = self.encoded[s.table][c].as_ref().expect("decimal column");
            let lb = ty.lb();
            let mut buf = Vec::with_capacity(sel.len() * lb);
            for &r in sel {
                buf.extend_from_slice(&bytes[r as usize * lb..(r as usize + 1) * lb]);
            }
            mem.add_buffer(buf);
        }
        let out_buf = mem.alloc(sel.len().max(1) * k.out_ty.lb());
        KernelInput {
            mem,
            out_buf,
            tuples: sel.len(),
        }
    }

    fn verify(&mut self, s: &Stmt, cells: &[Vec<String>]) {
        if self.check.ok(self.w, s, cells) {
            self.t.verified += 1;
        } else {
            self.t.mismatches += 1;
        }
    }

    /// Walks statement `j` of the trace. `counted` statements feed the
    /// exact counts; every second round of classes runs with the tracer off.
    fn walk(
        &mut self,
        tr: &mut Tracer,
        j: u64,
        stack: &mut Stack,
        session: SessionId,
        counted: bool,
    ) {
        let [i_engine, i_prime, i_server, i_wire] = walk_indices(self.w, j);
        let s = self.w.stmt(i_engine);
        let class = s.class;
        // Whole rounds of classes alternate, so both states see every class.
        tr.on = (j / self.w.classes() as u64).is_multiple_of(2);
        let on = tr.on;
        macro_rules! rec {
            ($name:expr, $secs:expr) => {
                if on {
                    self.t.samples.entry($name).or_default().push(class, $secs);
                }
            };
        }

        // Untimed preparation: the frame a client would send, the kernel
        // references the engine will compile, and the rows they will see.
        let qbytes = Frame::Query {
            id: j + 1,
            sql: s.sql.clone(),
        }
        .to_bytes();
        let refs = self
            .db
            .plan_kernels(Profile::UltraPrecise, &s.sql)
            .expect("statement plans");
        let table = &self.w.tables[s.table];
        let sel = s.select.selection(&table.rows, &table.soft);
        let kernel_items = s
            .select
            .items
            .iter()
            .filter(|it| it.expr().is_some_and(|e| !e.is_leaf()));
        assert_eq!(
            refs.len(),
            kernel_items.count(),
            "one kernel per non-trivial item: {}",
            s.sql
        );

        let walk_start = Instant::now();
        let root = tr.reserve();
        let (_, d) = tr.span("net.query_decode", root, j, || {
            black_box(
                parse_frame(black_box(&qbytes), DEFAULT_MAX_FRAME).expect("own frame decodes"),
            )
        });
        rec!("net.query_decode", d);
        let (_, d) = tr.span("net.admit", root, j, || {
            self.tenants.try_admit(TENANT).expect("open quota admits");
            self.tenants.on_done(TENANT, true, 0, 0.0);
        });
        rec!("net.admit", d);

        let q_id = tr.reserve();
        let (select, d) = tr.span("engine.parse", q_id, j, || {
            parse_select(&s.sql).expect("parses")
        });
        rec!("engine.parse", d);
        let (_, d) = tr.span("engine.plan", q_id, j, || {
            black_box(plan(&select, &self.catalog).expect("plans"))
        });
        rec!("engine.plan", d);

        // JIT and simulator per kernel reference, in the executor's order.
        // `auto` is the engine's backend: a kernel it has not launched
        // before starts on the decoded tier.
        let mut launched: Vec<(std::sync::Arc<CompiledExpr>, Rc<KernelInput>)> = Vec::new();
        let mut outputs: Vec<(Vec<UpDecimal>, DecimalType)> = Vec::new();
        let (mut jit_s, mut launch_s) = (0.0, 0.0);
        for (n, (sig, expr)) in refs.iter().enumerate() {
            let (_, d) = tr.span("jit.optimize", q_id, j, || {
                black_box(self.jit.optimize(expr))
            });
            rec!("jit.optimize", d);
            let ((compiled, info), d) = tr.span("jit.compile", q_id, j, || self.jit.compile(expr));
            let name = if info.cached {
                "jit.compile_hit"
            } else {
                "jit.compile_miss"
            };
            tr.rename_last(name);
            rec!(name, d);
            // `compile` optimizes internally; the engine pays for one
            // `compile` per reference and nothing else.
            jit_s += d;
            let Compiled::Kernel(k) = compiled else {
                panic!("passthrough listed as kernel: {sig}")
            };
            if counted {
                self.t
                    .static_insts
                    .insert(sig.clone(), k.kernel.static_inst_count() as u64);
            }
            self.t.result_ty.get_or_insert(k.out_ty);
            let input = match self.inputs.get(&(class, n)) {
                Some(cached) if self.w.cold.is_none() => Rc::clone(cached),
                _ => {
                    let built = Rc::new(self.kernel_input(&s, &sel, expr, &k));
                    if self.w.cold.is_none() {
                        self.inputs.insert((class, n), Rc::clone(&built));
                    }
                    built
                }
            };
            let ((mem, stats), d) = tr.span("sim.launch", q_id, j, || {
                launch(&self.device, &k, &input, ExecBackend::Auto)
            });
            launch_s += d;
            if on {
                self.t.auto_launch_s += d;
                self.t.auto_warp_issues += stats.warp_issues;
            }
            if counted {
                self.t.warp_issues += stats.warp_issues;
                self.t.thread_insts += stats.thread_insts;
                self.t.mem_transactions += stats.mem_transactions;
                self.t.divergent_branches += stats.divergent_branches;
            }
            let (out, lb) = (mem.buffer(input.out_buf), k.out_ty.lb());
            let vals =
                (0..input.tuples).map(|r| decode_compact(&out[r * lb..(r + 1) * lb], k.out_ty));
            outputs.push((vals.collect(), k.out_ty));
            launched.push((k, input));
        }
        rec!("jit.lookup", jit_s);
        rec!("sim.launch_auto", launch_s);

        // The aggregate folds: a bare column reduces stored values, any
        // other expression reduces its kernel's output.
        let mut reduce_s = 0.0;
        let mut next_output = outputs.iter();
        for it in &s.select.items {
            let Some(e) = it.expr() else { continue };
            let stored;
            let (vals, ty): (&[UpDecimal], DecimalType) = match e {
                RefExpr::Col(c) => {
                    let ColumnType::Decimal(ty) = table.cols[*c].1 else {
                        panic!("decimal aggregate")
                    };
                    stored = sel
                        .iter()
                        .map(|&r| match &table.rows[r as usize][*c] {
                            Value::Decimal(d) => d.clone(),
                            other => panic!("decimal column holds {other:?}"),
                        })
                        .collect::<Vec<_>>();
                    (&stored, ty)
                }
                RefExpr::Lit(_) => continue,
                RefExpr::Bin(..) => {
                    let (vals, ty) = next_output
                        .next()
                        .expect("kernel output per non-trivial item");
                    (vals, *ty)
                }
            };
            if !matches!(it, Item::Sum(_) | Item::Avg(_)) || vals.is_empty() {
                continue;
            }
            let out_ty = ty.sum_result(vals.len() as u64);
            let (_, d) = tr.span("sim.reduce", q_id, j, || {
                black_box(aggregate(AggOp::Sum, vals, out_ty, Tpi(8), &self.device))
            });
            reduce_s += d;
        }
        rec!("sim.reduce", reduce_s);

        // The real thing, in process, and the reply's way out.
        let (result, d) = tr.span_as(q_id, "engine.query", root, j, || self.db.query(&s.sql));
        rec!("engine.query", d);
        let result = result.expect("statement executes");
        let (cells, d) = tr.span("engine.render", root, j, || render(&result.rows));
        rec!("engine.render", d);
        if on {
            self.t.rows_rendered += cells.len() as u64;
            self.t.render_s += d;
        }
        self.verify(&s, &cells);
        let reply = Frame::Rows {
            id: j + 1,
            columns: result.columns,
            rows: cells,
        };
        let (rbytes, d) = tr.span("net.rows_encode", root, j, || reply.to_bytes());
        rec!("net.rows_encode", d);
        let (_, d) = tr.span("net.rows_decode", root, j, || {
            black_box(
                parse_frame(black_box(&rbytes), DEFAULT_MAX_FRAME).expect("own frame decodes"),
            )
        });
        rec!("net.rows_decode", d);
        let walk_s = walk_start.elapsed().as_secs_f64();
        if on {
            self.t.walk_on.push(class, walk_s);
        } else {
            self.t.walk_off.push(class, walk_s);
        }
        if counted {
            self.t.counted += 1;
            self.t.reply_bytes += rbytes.len() as u64;
        }

        // The other two tiers, outside the walk's own total. Forcing
        // `compiled` on a kernel without its closure program builds it
        // first; a second launch gives the steady cost.
        if on {
            let (mut decoded_s, mut compiled_s, mut build_s) = (0.0, 0.0, 0.0);
            for (k, input) in &launched {
                let dev = &self.device;
                let (_, d) = tr.span("sim.launch.decoded", root, j, || {
                    launch(dev, k, input, ExecBackend::Decoded)
                });
                decoded_s += d;
                let builds = up_gpusim::compile_counters().0;
                let (_, first) = tr.span("sim.launch.compiled", root, j, || {
                    launch(dev, k, input, ExecBackend::Compiled)
                });
                let tiers = up_gpusim::last_launch_tiers();
                self.t.lowered += tiers.lowered_superblocks;
                self.t.fallback += tiers.fallback_superblocks;
                if up_gpusim::compile_counters().0 > builds {
                    let (_, steady) = tr.span("sim.launch.compiled", root, j, || {
                        launch(dev, k, input, ExecBackend::Compiled)
                    });
                    build_s += (first - steady).max(0.0);
                    compiled_s += steady;
                } else {
                    compiled_s += first;
                }
            }
            rec!("sim.launch_decoded", decoded_s);
            rec!("sim.launch_compiled", compiled_s);
            if build_s > 0.0 {
                rec!("sim.tier_compile", build_s);
            }
        }

        // Through the admission queue and a worker, then over the socket.
        // The steps above evicted the server's tables and kernels from
        // the CPU caches; in the measured window they are always hot, so
        // one unrecorded query brings them back first.
        let prime = self.w.stmt(i_prime);
        if stack.up.query(session, &prime.sql).is_err() {
            self.t.mismatches += 1;
        }
        let s_server = self.w.stmt(i_server);
        let (r, d) = tr.span("server.roundtrip", root, j, || {
            stack.up.query(session, &s_server.sql)
        });
        rec!("server.roundtrip", d);
        match r {
            Ok(r) => self.verify(&s_server, &render(&r.rows)),
            Err(_) => self.t.mismatches += 1,
        }
        let s_wire = self.w.stmt(i_wire);
        let client = &mut stack.clients[0];
        let (r, d) = tr.span("wire.roundtrip", root, j, || client.query(&s_wire.sql));
        rec!("wire.roundtrip", d);
        match r {
            Ok(r) => self.verify(&s_wire, &r.rows),
            Err(_) => self.t.mismatches += 1,
        }
    }
}

/// Statement indexes for walk `j`: the engine, priming, server and wire
/// steps of a warm statement run the same SQL; on `wire_cold` each needs
/// a statement of the same shape that its cache has never seen.
fn walk_indices(w: &Workload, j: u64) -> [u64; 4] {
    if w.cold.is_none() {
        return [j; 4];
    }
    let n = COLD_SHAPES as u64;
    let base = j / n * 4 * n + j % n;
    [base, base + n, base + 2 * n, base + 3 * n]
}

/// Host cost of `up-num` primitives at the workload's result width.
fn num_micro(ty: DecimalType, seed: u64) -> [(&'static str, f64); 4] {
    let vals = up_workloads::datagen::random_decimal_column(1000, ty, 1, true, seed);
    let per_call = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let mut n = 0u32;
        while t0.elapsed() < Duration::from_millis(20) {
            f();
            n += 1;
        }
        t0.elapsed().as_secs_f64() / f64::from(n)
    };
    let encode = per_call(&mut || {
        for v in &vals {
            black_box(encode_compact(black_box(v), ty).expect("fits"));
        }
    });
    let render = per_call(&mut || {
        for v in &vals {
            black_box(black_box(v).to_string());
        }
    });
    let (a, b) = (vals[0].unscaled(), vals[1].unscaled());
    let product = a.mul(b);
    let mul = per_call(&mut || {
        black_box(black_box(a).mul(black_box(b)));
    });
    let divrem = per_call(&mut || {
        black_box(black_box(&product).div_rem(black_box(b)));
    });
    [
        ("num.encode_us_per_1k", encode * 1e6),
        ("num.render_us_per_1k", render * 1e6),
        ("num.mul_ns", mul * 1e9),
        ("num.divrem_ns", divrem * 1e9),
    ]
}

pub struct Traced {
    /// `(name, value)` for every per-layer metric, in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub statements_walked: u64,
    /// `(layer, share of the wire round trip)`: the self-time budget.
    pub budget: Vec<(&'static str, f64)>,
    pub wire_ms: f64,
    /// `engine.query` median per statement class, in ms: how evenly the
    /// workload's statements cost.
    pub query_ms_by_class: Vec<f64>,
    pub trace_file: Option<PathBuf>,
}

pub fn run(w: &Workload, check: Checker, budget: Duration) -> Result<Traced, String> {
    // Exact engine/JIT counts and the simulated clock's split.
    let rep = replay(w, check);

    let (mut stack, setup_bad) = Stack::setup(w, check)?;
    let session = stack.up.connect(Profile::UltraPrecise);
    let db = fresh_db(w);
    let tenants = TenantRegistry::new();
    tenants.register(TENANT, "", TenantQuota::default());
    let mut tracer = Tracer {
        t0: Instant::now(),
        on: true,
        next_id: 0,
        spans: Vec::new(),
    };
    let mut walker = Walker {
        w,
        check,
        db: &db,
        catalog: mirror_catalog(w),
        jit: JitEngine::with_defaults(),
        tenants,
        device: DeviceConfig::a6000(),
        encoded: Walker::encode_tables(w),
        inputs: HashMap::new(),
        t: Tally::default(),
    };

    let cache0 = stack.up.metrics().cache;
    let t0 = Instant::now();
    let until = t0 + budget;
    let up = std::sync::Arc::clone(&stack.up);
    let (walked, batches) = std::thread::scope(|scope| {
        let writer = w.ingest.as_ref().map(|ing| {
            let (up, db) = (&up, &db);
            std::thread::Builder::new()
                .name("bench-writer".into())
                .spawn_scoped(scope, move || ingest_writer(up, Some(db), ing, t0, until))
                .expect("spawn writer")
        });
        let mut j = 0u64;
        while j < w.trace_len as u64 || Instant::now() < until {
            walker.walk(&mut tracer, j, &mut stack, session, j < w.trace_len as u64);
            j += 1;
        }
        (
            j,
            writer
                .map(|h| h.join().expect("writer thread"))
                .unwrap_or_default(),
        )
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = stack.up.metrics();
    let wire = stack.server.stats();
    let (wire_threads, worker_threads) = (threads_named("up-net-"), threads_named("up-worker-"));
    stack.teardown();

    let t = &walker.t;
    let ms = |name: &str| t.mix(name) * 1e3;
    let us = |name: &str| t.mix(name) * 1e6;
    let wire_ms = ms("wire.roundtrip");
    let server_ms = ms("server.roundtrip");
    let query_ms = ms("engine.query");
    let front_ms = (us("engine.parse") + us("engine.plan")) / 1e3;
    let children_ms = front_ms + ms("jit.lookup") + ms("sim.launch_auto") + ms("sim.reduce");
    let direct_ms = query_ms
        + ms("engine.render")
        + (us("net.query_decode")
            + us("net.admit")
            + us("net.rows_encode")
            + us("net.rows_decode"))
            / 1e3;
    let per_stmt = |v: u64| v as f64 / t.counted.max(1) as f64;
    let per_replay = |v: f64| v / rep.statements as f64;
    let hits = snap.cache.hits - cache0.hits;
    let lookups = hits + snap.cache.misses - cache0.misses;
    let wire_all = t
        .samples
        .get("wire.roundtrip")
        .map(ClassSamples::all_sorted)
        .unwrap_or_default();
    let (walk_on, walk_off) = (t.walk_on.mix_median(), t.walk_off.mix_median());
    let batch_p = |f: &dyn Fn(&BatchSample) -> Duration, q: f64, scale: f64| {
        percentile(
            &sorted(batches.iter().map(|b| f(b).as_secs_f64() * scale).collect()),
            q,
        )
    };
    let (late, ingest_rows) = match &w.ingest {
        Some(ing) => (
            batches.iter().filter(|b| b.lag > ing.late_after).count(),
            batches.len() * ing.batch_rows,
        ),
        None => (0, 0),
    };
    // A workload that never launched a kernel gets LEN 2.
    let num_ty = t.result_ty.unwrap_or(DecimalType::new_unchecked(18, 2));
    let verified = t.verified + rep.statements - rep.mismatches;
    let mismatches = t.mismatches + rep.mismatches + setup_bad;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("net.query_decode_us", us("net.query_decode")),
        ("net.rows_encode_us", us("net.rows_encode")),
        ("net.rows_decode_us", us("net.rows_decode")),
        ("net.reply_bytes_per_query", per_stmt(t.reply_bytes)),
        ("net.admit_us", us("net.admit")),
        ("net.overhead_ms", wire_ms - server_ms),
        ("net.protocol_errors", wire.protocol_errors as f64),
        ("net.slow_closed", wire.slow_closed as f64),
        ("net.refused", wire.refused as f64),
        ("net.idle_closed", wire.idle_closed as f64),
        ("net.wire_threads", wire_threads as f64),
        ("client.lat_p99_ms", percentile(&wire_all, 0.99) * 1e3),
        ("server.overhead_ms", server_ms - query_ms),
        ("server.queue_wait_ms_p50", snap.queue_wait.p50_s * 1e3),
        ("server.queue_wait_ms_p95", snap.queue_wait.p95_s * 1e3),
        ("server.queue_max_depth", snap.queue_max_depth as f64),
        ("server.rejected", snap.rejected as f64),
        ("server.timed_out", snap.timed_out as f64),
        ("server.failed", snap.failed as f64),
        ("server.worker_threads", worker_threads as f64),
        ("engine.parse_us", us("engine.parse")),
        ("engine.plan_us", us("engine.plan")),
        ("engine.query_ms", query_ms),
        ("engine.exec_rest_ms", query_ms - children_ms),
        (
            "engine.render_us_per_row",
            ratio(t.render_s * 1e6, t.rows_rendered as f64),
        ),
        ("engine.rows_out_per_query", per_replay(rep.rows_out as f64)),
        ("engine.kernels_per_query", per_replay(rep.kernels as f64)),
        (
            "engine.ingest_batch_us_p50",
            batch_p(&|b| b.call, 0.50, 1e6),
        ),
        (
            "engine.ingest_batch_us_p95",
            batch_p(&|b| b.call, 0.95, 1e6),
        ),
        ("engine.ingest_lag_ms_p95", batch_p(&|b| b.lag, 0.95, 1e3)),
        ("engine.ingest_rows_per_s", ingest_rows as f64 / elapsed),
        ("jit.optimize_us", us("jit.optimize")),
        ("jit.compile_miss_us", us("jit.compile_miss")),
        ("jit.compile_hit_us", us("jit.compile_hit")),
        ("jit.cache_hit_rate", ratio(hits as f64, lookups as f64)),
        ("jit.cache_misses", rep.cache.misses as f64),
        ("jit.cache_evictions", rep.cache.evictions as f64),
        ("jit.signatures", t.static_insts.len() as f64),
        (
            "jit.static_insts_per_kernel",
            ratio(
                t.static_insts.values().sum::<u64>() as f64,
                t.static_insts.len() as f64,
            ),
        ),
        (
            "jit.modeled_compile_ms_per_query",
            per_replay(rep.modeled_compile_s * 1e3),
        ),
        ("sim.launch_ms_decoded", ms("sim.launch_decoded")),
        ("sim.launch_ms_compiled", ms("sim.launch_compiled")),
        ("sim.launch_ms_auto", ms("sim.launch_auto")),
        ("sim.tier_compile_ms", ms("sim.tier_compile")),
        ("sim.reduce_ms", ms("sim.reduce")),
        (
            "sim.host_ns_per_warp_issue",
            ratio(t.auto_launch_s * 1e9, t.auto_warp_issues as f64),
        ),
        ("sim.warp_issues_per_query", per_stmt(t.warp_issues)),
        ("sim.thread_insts_per_query", per_stmt(t.thread_insts)),
        (
            "sim.mem_transactions_per_query",
            per_stmt(t.mem_transactions),
        ),
        (
            "sim.divergent_branches_per_query",
            per_stmt(t.divergent_branches),
        ),
        (
            "sim.modeled_kernel_ms_per_query",
            per_replay(rep.modeled_kernel_s * 1e3),
        ),
        ("sim.launches_decoded", rep.tiers.decoded as f64),
        ("sim.launches_compiled", rep.tiers.compiled as f64),
        ("sim.promotions", rep.tiers.promotions as f64),
        (
            "sim.lowered_superblock_frac",
            ratio(t.lowered as f64, (t.lowered + t.fallback) as f64),
        ),
        ("sim.decode_builds", rep.decode_builds as f64),
        ("sim.tier_builds", rep.tier_builds as f64),
    ];
    metrics.extend(num_micro(num_ty, w.seed));
    metrics.extend([
        ("trace.coverage_frac", ratio(direct_ms, wire_ms)),
        ("trace.unattributed_ms", wire_ms - direct_ms),
        ("trace.overhead_frac", ratio(walk_on - walk_off, walk_off)),
        ("check.statements_verified", verified as f64),
        ("check.oracle_mismatches", mismatches as f64),
        ("gen.lateness_ms_p95", batch_p(&|b| b.lateness, 0.95, 1e3)),
    ]);

    // `net.overhead_ms` = wire − server holds the reply's rendering and
    // framing; the budget shows those directly timed parts separately.
    let share = |v: f64| ratio(v, wire_ms);
    let reply_ms = ms("engine.render") + (us("net.rows_encode") + us("net.rows_decode")) / 1e3;
    let budget = vec![
        (
            "net.overhead - reply",
            share(wire_ms - server_ms - reply_ms),
        ),
        ("engine.render", share(ms("engine.render"))),
        ("net.rows_encode", share(us("net.rows_encode") / 1e3)),
        (
            "net.rows_decode (caller)",
            share(us("net.rows_decode") / 1e3),
        ),
        ("server.overhead", share(server_ms - query_ms)),
        ("engine.parse+plan", share(front_ms)),
        ("jit.optimize+compile", share(ms("jit.lookup"))),
        ("sim.launch (auto)", share(ms("sim.launch_auto"))),
        ("sim.reduce", share(ms("sim.reduce"))),
        ("engine.exec_rest", share(query_ms - children_ms)),
    ];
    Ok(Traced {
        metrics,
        attempted: verified + mismatches + batches.len(),
        failed: mismatches + late,
        statements_walked: walked,
        budget,
        wire_ms,
        query_ms_by_class: t
            .samples
            .get("engine.query")
            .map(|c| c.medians().iter().map(|s| s * 1e3).collect())
            .unwrap_or_default(),
        trace_file: write_spans(w.name, &tracer.spans).ok(),
    })
}

/// Writes the spans, one JSON object per line, after the run.
fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = if Path::new("bench").is_dir() {
        "bench/out"
    } else {
        "out"
    };
    std::fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("trace-{workload}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"stmt\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.parent, s.stmt, s.start_ns, s.end_ns
        )?;
    }
    f.flush()?;
    Ok(path)
}
