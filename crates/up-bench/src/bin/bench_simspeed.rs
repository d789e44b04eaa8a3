//! `bench_simspeed` — host-side simulator throughput across execution
//! tiers (tree walker, pre-decoded flat programs, closure-compiled
//! superblocks, and `auto` count-based tier promotion). Every launch
//! runs on one host thread, so each (workload, backend) pair is one
//! cell.
//!
//! Unlike the figure harnesses (which report *modeled* GPU time), this
//! bin measures how fast the functional SIMT executor itself runs on the
//! host: tuples/second of real wall clock for `up-jit`-generated kernels
//! shaped like the paper's workloads:
//!
//! - **fig08 shape**: `c1 + c2 + c3` at LEN 2 — short, memory-lean
//!   kernels where launch overhead and the warp-uniform fast path
//!   dominate.
//! - **fig13 shape** (TPI=32-class instance sizes): `a + b` and `a × b`
//!   at LEN ≥ 8 (precisions 76 and 153) — long multi-limb inner loops.
//! - **fig10 shape** (`codec_align_len8/16`): adds with mismatched
//!   scales, forcing the §III-D alignment codec — kernels dominated by
//!   byte-granular `ld.global.u8`/`st.global.u8` runs, the target of the
//!   compiled tier's lane-affine mem-thunk fast path.
//! - **fig14c shape**: `a % N` at LEN 16 and 32 (`divbig_len16/32_rem`,
//!   a half-width literal modulus, so every lane runs a multi-word
//!   `DivBig`) and `a × b` at LEN 32 (`fig13_len32_mul`, the longest
//!   carry chains) — RSA's two costly operations.
//!
//! Every run is checked against the tree-walker reference:
//! byte-identical output buffers, `ExecStats` equal field-for-field, and
//! the priced kernel time bit-equal (`f64::to_bits`). A violation aborts
//! the bench — speed without determinism is a bug, not a result.
//!
//! Usage: `bench_simspeed [--quick] [--tuples N] [--out PATH]
//! [--assert-tiering]`. Results land in `results/BENCH_simspeed.json`.
//! `--assert-tiering` exits non-zero unless the compiled tier beats the
//! decoded interpreter on the hot cells — by any margin on the
//! carry-chain (fig13 mul) and `DivBig` (`divbig_*`) workloads, by ≥ 2×
//! on the byte-codec (`codec_align_*`) ones, where codec-run fusion and affine coalescing
//! remove most of the work, and, on a host whose ALU thunks run at
//! AVX-512 width, by ≥ [`AVX512_LEN32_MUL_FLOOR`] on `fig13_len32_mul`, so a
//! refactor that loses the wide thunks fails; on that host the compiled
//! `divbig_*` cells must also beat the tree walker by ≥
//! [`AVX512_DIVBIG_FLOOR`], so one that loses the warp-wide division
//! fails too — the CI guard for tier-promotion, mem-lowering, thunk-width
//! and `DivBig` regressions.
//!
//! The `auto` cells exercise count-based promotion live: each workload
//! reuses one kernel and runs `auto` `TIER_THRESHOLD + 1` (3) times, so
//! the first launches run decoded and the last runs compiled. Every rep
//! is checked, so the determinism check covers the promotion boundary.

use std::time::Instant;
use up_bench::{precision_for_len, HarnessOpts};
use up_gpusim::cost::kernel_time;
use up_gpusim::{
    launch_opts, thunk_isa, DeviceConfig, ExecBackend, ExecStats, GlobalMem, LaunchConfig,
    LaunchOpts, ThunkIsa,
};
use up_jit::cache::{Compiled, JitEngine};
use up_jit::Expr;
use up_num::{encode_compact, DecimalType};
use up_workloads::datagen;

/// Compiled/decoded floor on `fig13_len32_mul` when the ALU thunks are the
/// AVX-512 set: the longest carry chains, where the thunks are most of
/// the compiled tier's time. Chosen from quick runs of both builds on an
/// AVX-512 host (see `results/README.md`).
const AVX512_LEN32_MUL_FLOOR: f64 = 6.5;

/// Compiled/tree floor on the `divbig_*` cells when `DivBig` divides the
/// warp with one lane-parallel Algorithm D (the AVX-512 set); the tree
/// walker keeps dividing lane by lane. Chosen from quick runs of both
/// builds on an AVX-512 host (see `results/README.md`).
const AVX512_DIVBIG_FLOOR: f64 = 13.0;

struct Workload {
    name: &'static str,
    expr: Expr,
    col_tys: Vec<DecimalType>,
}

fn workloads() -> Vec<Workload> {
    let col = |i: usize, ty: DecimalType, n: &str| Expr::col(i, ty, n);
    let mut out = Vec::new();

    // fig08 shape: three-column sum at LEN 2.
    let p2 = precision_for_len(2);
    let t2 = DecimalType::new_unchecked(p2 - 2, 2);
    out.push(Workload {
        name: "fig08_len2_add3",
        expr: col(0, t2, "c1").add(col(1, t2, "c2")).add(col(2, t2, "c3")),
        col_tys: vec![t2, t2, t2],
    });

    // fig13 shapes: single-operator kernels at LEN 8 and LEN 16 (LEN 32:
    // the multiply only).
    for &len in &[8usize, 16, 32] {
        let p = precision_for_len(len);
        let t_add = DecimalType::new_unchecked(p - 1, 2);
        let t_mul = DecimalType::new_unchecked((p / 2).max(5), 2);
        if len < 32 {
            out.push(Workload {
                name: match len {
                    8 => "fig13_len8_add",
                    _ => "fig13_len16_add",
                },
                expr: col(0, t_add, "a").add(col(1, t_add, "b")),
                col_tys: vec![t_add, t_add],
            });
        }
        out.push(Workload {
            name: match len {
                8 => "fig13_len8_mul",
                16 => "fig13_len16_mul",
                _ => "fig13_len32_mul",
            },
            expr: col(0, t_mul, "a").mul(col(1, t_mul, "b")),
            col_tys: vec![t_mul, t_mul],
        });
    }

    // fig10 shape: byte-dense codec cells. Mismatched scales force the
    // §III-D alignment codec, so the generated kernels are long runs of
    // byte loads/stores at lane-affine addresses — the cells that measure
    // the compiled tier's warp-wide mem-thunk fast path.
    for &len in &[8usize, 16] {
        let p = precision_for_len(len);
        let t_a = DecimalType::new_unchecked(p - 1, 1);
        let t_b = DecimalType::new_unchecked(p - 1, 6);
        out.push(Workload {
            name: match len {
                8 => "codec_align_len8",
                _ => "codec_align_len16",
            },
            expr: col(0, t_a, "a").add(col(1, t_b, "b")),
            col_tys: vec![t_a, t_b],
        });
    }

    // fig14c shape: `a % N` with an odd modulus of half `a`'s digits, so
    // divisor and quotient both span LEN/2 limbs.
    for &len in &[16usize, 32] {
        let p = precision_for_len(len);
        let t = DecimalType::new_unchecked(p - 1, 0);
        let digits = "9876543210".chars().cycle().take(p as usize / 2 - 1);
        let modulus: String = digits.chain(['7']).collect();
        out.push(Workload {
            name: match len {
                16 => "divbig_len16_rem",
                _ => "divbig_len32_rem",
            },
            expr: col(0, t, "a").rem(Expr::lit(&modulus).expect("integer literal")),
            col_tys: vec![t],
        });
    }
    out
}

fn assert_identical(
    name: &str,
    backend: ExecBackend,
    tree: (&ExecStats, &[Vec<u8>], f64),
    run: (&ExecStats, &[Vec<u8>], f64),
) {
    let (t_stats, t_bufs, t_time) = tree;
    let (stats, bufs, time) = run;
    assert!(
        t_stats == stats && t_bufs == bufs && t_time.to_bits() == time.to_bits(),
        "{name}/{backend}: run diverged from the reference \
         (stats match: {}, bytes match: {}, modeled time bits match: {})",
        t_stats == stats,
        t_bufs == bufs,
        t_time.to_bits() == time.to_bits()
    );
}

fn main() {
    let opts = HarnessOpts::from_args(200_000);
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_simspeed.json".to_string());
    let assert_tiering = args.iter().any(|a| a == "--assert-tiering");
    let n = opts.sim_tuples;
    let reps = if opts.quick { 1 } else { 3 };
    let device = DeviceConfig::a6000();

    let isa = thunk_isa();
    println!("bench_simspeed: {n} tuples/run, {reps} rep(s), {isa} ALU thunks\n");

    let mut json_entries: Vec<String> = Vec::new();
    // (workload, tree, decoded and compiled tps) for the hot carry-chain,
    // `DivBig` and codec cells the CI guard checks.
    let mut tier_cells: Vec<(String, f64, f64, f64)> = Vec::new();
    for w in workloads() {
        let jit = JitEngine::with_defaults();
        let (compiled, _) = jit.compile(&w.expr);
        let Compiled::Kernel(k) = compiled else { panic!("{}: folded away", w.name) };

        // Encode the input columns once; every run clones this memory.
        let mut base = GlobalMem::new();
        for (slot, ty) in w.col_tys.iter().enumerate() {
            let col = datagen::random_decimal_column(n, *ty, 2, true, 11 + slot as u64);
            let mut bytes = Vec::with_capacity(n * ty.lb());
            for v in &col {
                bytes.extend(encode_compact(v, *ty).expect("fits declared type"));
            }
            base.add_buffer(bytes);
        }
        let out_buf = base.alloc(n * k.out_ty.lb());
        let cfg = LaunchConfig::for_tuples(n as u64, 256, &device);

        // Timed run: best-of-reps wall clock, plus the artifacts needed
        // for the determinism check (every rep must match the first).
        let run = |backend: ExecBackend| -> (ExecStats, Vec<Vec<u8>>, f64, f64) {
            let reps = match backend {
                ExecBackend::Auto => reps.max(up_gpusim::TIER_THRESHOLD as usize + 1),
                _ => reps,
            };
            let mut best = f64::INFINITY;
            let mut kept: Option<(ExecStats, Vec<Vec<u8>>, f64)> = None;
            for _ in 0..reps {
                let mut mem = base.clone();
                let t0 = Instant::now();
                let opts = LaunchOpts { backend };
                let stats = launch_opts(&k.kernel, cfg, &device, &mut mem, &[n as u32], opts)
                    .expect("launch");
                let wall = t0.elapsed().as_secs_f64();
                let bufs = vec![mem.buffer(out_buf).to_vec()];
                let time = kernel_time(k.kernel.hw_regs_per_thread, &stats, &device).total_s;
                if let Some((s0, b0, t0)) = &kept {
                    assert_identical(w.name, backend, (s0, b0, *t0), (&stats, &bufs, time));
                }
                if wall < best {
                    best = wall;
                    kept = Some((stats, bufs, time));
                }
            }
            let (stats, bufs, time) = kept.expect("at least one rep");
            (stats, bufs, time, best)
        };

        // Reference: the tree walker — everything else must match it to
        // the bit.
        let (t_stats, t_bufs, t_time, t_wall) = run(ExecBackend::Tree);
        let mut cells = vec![(ExecBackend::Tree, t_wall)];
        for backend in [ExecBackend::Decoded, ExecBackend::Compiled, ExecBackend::Auto] {
            let (stats, bufs, time, wall) = run(backend);
            assert_identical(w.name, backend, (&t_stats, &t_bufs, t_time), (&stats, &bufs, time));
            cells.push((backend, wall));
        }
        for (i, &(backend, wall)) in cells.iter().enumerate() {
            println!(
                "{:<18} {:<9} {:>9.3} ms  {:>12.0} tuples/s  {:>5.2}x",
                if i == 0 { w.name } else { "" },
                backend.to_string(),
                wall * 1e3,
                n as f64 / wall,
                t_wall / wall
            );
        }
        if w.name.contains("mul") || w.name.starts_with("codec_") || w.name.starts_with("divbig_") {
            let tps_of = |b: ExecBackend| {
                let &(_, wall) = cells.iter().find(|(c, _)| *c == b).expect("cell present");
                n as f64 / wall
            };
            tier_cells.push((
                w.name.to_string(),
                tps_of(ExecBackend::Tree),
                tps_of(ExecBackend::Decoded),
                tps_of(ExecBackend::Compiled),
            ));
        }
        println!();

        let cell_json: Vec<String> = cells
            .iter()
            .map(|&(backend, wall)| {
                format!(
                    "{{\"backend\":\"{backend}\",\"wall_s\":{wall:.6},\
                     \"tuples_per_s\":{:.1},\"speedup_vs_tree\":{:.3},\
                     \"identical_to_tree\":true}}",
                    n as f64 / wall,
                    t_wall / wall
                )
            })
            .collect();
        json_entries.push(format!(
            "{{\"workload\":\"{}\",\"tuples\":{},\"cells\":[{}]}}",
            w.name,
            n,
            cell_json.join(",")
        ));
    }

    let json = format!(
        "{{\"bench\":\"simspeed\",\"schema\":\"backend-v6\",\"quick\":{},\"thunk_isa\":\"{isa}\",\
         \"tuples_per_run\":{},\"reps\":{},\"tier_threshold\":{},\"workloads\":[{}]}}\n",
        opts.quick,
        n,
        reps,
        up_gpusim::TIER_THRESHOLD,
        json_entries.join(",")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, &json).expect("write BENCH_simspeed.json");
    println!("wrote {out_path}");

    // The tier-promotion payoff summary (and CI guard): the closure tier
    // must not lose to the interpreter it was promoted from on the hot
    // carry-chain and `DivBig` kernels, must at least double it on the
    // byte-codec kernels, whose byte runs it fuses, and must keep the
    // AVX-512 thunks' lead on the LEN-32 product and the warp-wide
    // division's lead over the tree walker where the host has AVX-512.
    let mut tier_ok = true;
    for (name, tree, decoded, compiled) in &tier_cells {
        let floor = match name.as_str() {
            n if n.starts_with("codec_align") => 2.0,
            "fig13_len32_mul" if isa == ThunkIsa::Avx512 => AVX512_LEN32_MUL_FLOOR,
            _ => 1.0,
        };
        let mut gates = vec![("decoded", compiled / decoded, floor)];
        if name.starts_with("divbig_") && isa == ThunkIsa::Avx512 {
            gates.push(("tree", compiled / tree, AVX512_DIVBIG_FLOOR));
        }
        for (base, ratio, floor) in gates {
            println!(
                "tiering {name}: compiled {ratio:.2}x {base} (floor {floor:.1}x){}",
                if ratio < floor { "  << REGRESSION" } else { "" }
            );
            tier_ok &= ratio >= floor;
        }
    }
    if assert_tiering {
        assert!(
            tier_ok,
            "compiled tier under a floor on a hot carry-chain, DivBig or codec cell ({isa} thunks)"
        );
        println!("tiering assertion passed");
    }
}
