//! `up-e2e-bench` — the repository's canonical benchmark.
//!
//! One run drives one workload through the real stack
//! `up-net::Client → WireServer(epoll) → UpServer → Database → up-jit →
//! up-gpusim`, checks every reply against an oracle, and prints every
//! metric by name with unit, clock, direction and regression bound; the
//! last line of stdout is one JSON object.
//!
//! ```text
//! up-e2e-bench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! up-e2e-bench --all  --seed <u64> [--seconds <n>]      every workload, both modes, one child each
//! up-e2e-bench --sets <N> --seed <u64> [--seconds <n>]  repeatability: N sets, deviation per cell
//! up-e2e-bench --emit-benchmark-json                    the canonical BENCHMARK.json
//! ```
//!
//! `--smoke` shrinks every phase for the schema self-test;
//! `--corrupt-oracle` bends one expected digit per reply and must make
//! the run fail. See `bench/README.md`.

use std::process::{Command, ExitCode};
use std::time::Duration;
use up_e2e_bench::report::{json_line, parse_line, RunResult};
use up_e2e_bench::spec::{self, Clock, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use up_e2e_bench::stack::Checker;
use up_e2e_bench::workloads::Workload;
use up_e2e_bench::{measure, stats, trace};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    sets: Option<usize>,
    smoke: bool,
    corrupt: bool,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        all: false,
        sets: None,
        smoke: false,
        corrupt: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--sets" => a.sets = Some(value()?.parse().map_err(|e| format!("--sets: {e}"))?),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--corrupt-oracle" => a.corrupt = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.smoke {
        a.seconds = 0.5;
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", a.seconds));
    }
    Ok(a)
}

/// `UP_*` variables would change `ServerConfig::default()` and
/// `NetConfig::default()`, which are what is measured. They are removed
/// before the first thread starts and before any layer reads them.
fn strip_up_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UP_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(a: &Args, w: &Workload, stripped: &[String], warmup: Duration) {
    let server = up_server::ServerConfig::default();
    let net = up_net::NetConfig::default();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# up-e2e-bench  workload={}  seed={}  mode={}",
        w.name,
        a.seed,
        if a.trace { "traced" } else { "measured" }
    );
    println!(
        "# commit={}  rustc={}",
        tool_line("git", &["rev-parse", "HEAD"]),
        tool_line("rustc", &["-V"])
    );
    println!(
        "# nproc={nproc}  callers={} (closed loop, one query in flight each)  warmup_s={}  window_s={}  setup_reps>={}",
        w.callers,
        warmup.as_secs_f64(),
        a.seconds,
        if a.smoke { 1 } else { measure::SETUP_REPS },
    );
    println!(
        "# workers={}  event_threads={}  reactor={}  jit_cache={}  stripped_env=[{}]",
        server.workers,
        net.event_threads,
        net.reactor.name(),
        server.jit_cache_capacity,
        stripped.join(",")
    );
    println!(
        "# replay_statements={}  trace_statements={}  {}",
        w.replay_len, w.trace_len, w.note
    );
    println!(
        "# clocks: host = this process's wall/CPU time; simulated = ModeledTime of the A6000 model. \
         The repository holds no hardware reference: the simulated clock is validated only against \
         the paper's figure shapes (EXPERIMENTS.md), so no error figure is given."
    );
}

fn direction(higher: bool) -> &'static str {
    if higher {
        "higher is better"
    } else {
        "lower is better"
    }
}

/// One workload, in this process.
fn run_one(a: &Args, name: &str, stripped: &[String]) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if nproc < 2 {
        return Err(format!(
            "{nproc} core: the callers would time themselves, not the server"
        ));
    }
    if cfg!(debug_assertions) && !a.smoke {
        return Err("debug build: measure release builds only (cargo run --release)".into());
    }
    let window = Duration::from_secs_f64(a.seconds);
    let warmup = Duration::from_secs_f64((a.seconds * 0.2).min(3.0));
    let w = Workload::generate(name, a.seed, warmup + window, a.smoke)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let check = Checker { corrupt: a.corrupt };
    provenance(a, &w, stripped, warmup);

    let (attempted, failed, metrics): (usize, usize, Vec<(&str, f64, &str)>) = if a.trace {
        let t = trace::run(&w, check, window)?;
        println!(
            "# walked {} statements; spans in {}",
            t.statements_walked,
            t.trace_file
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "(not written)".into())
        );
        println!(
            "# engine.query ms by statement class: {:.4?}",
            t.query_ms_by_class
        );
        println!(
            "\nself-time budget (share of the {:.4} ms wire round trip):",
            t.wire_ms
        );
        for (layer, share) in &t.budget {
            println!("  {layer:<24} {:>6.1} %", share * 100.0);
        }
        println!(
            "\n{:<36} {:>16} {:<6} {:<10} direction",
            "per-layer metric", "value", "unit", "clock"
        );
        let mut out = Vec::new();
        for (spec, (name, value)) in PER_LAYER.iter().zip(&t.metrics) {
            assert_eq!(spec.name, *name, "metric order follows spec::PER_LAYER");
            println!(
                "{:<36} {:>16.4} {:<6} {:<10} {}{}",
                spec.name,
                value,
                spec.unit,
                spec.clock.name(),
                direction(spec.higher_is_better),
                if spec.exact { ", exact" } else { "" }
            );
            out.push((spec.name, *value, spec.unit));
        }
        (t.attempted, t.failed, out)
    } else {
        let reps = if a.smoke { 1 } else { measure::SETUP_REPS };
        let m = measure::run(&w, check, warmup, window, reps)?;
        println!(
            "# window: {} verified replies (= latency samples), {} ingest batches, p99 {:.4} ms; replay {:.2} s",
            m.verified(),
            m.batches.len(),
            stats::percentile(&m.lat_ms, 0.99),
            m.replay.wall.as_secs_f64()
        );
        println!(
            "# per-slice qps:    {:.0?}",
            m.slices
                .iter()
                .map(|s| s.verified as f64 / m.slice_s)
                .collect::<Vec<_>>()
        );
        println!(
            "# per-slice p50 ms: {:.3?}",
            m.slices.iter().map(|s| s.p50_ms).collect::<Vec<_>>()
        );
        println!(
            "# per-slice p95 ms: {:.3?}",
            m.slices.iter().map(|s| s.p95_ms).collect::<Vec<_>>()
        );
        let setups = stats::sorted(m.setup_s.clone());
        println!(
            "# setup: {} repetitions, {:.4} .. {:.4} s",
            setups.len(),
            setups[0],
            setups[setups.len() - 1]
        );
        println!(
            "\n{:<24} {:>16} {:<6} {:<10} {:<17} bound",
            "end-to-end metric", "value", "unit", "clock", "direction"
        );
        let mut out = Vec::new();
        for (spec, (name, value)) in END_TO_END.iter().zip(m.metrics()) {
            assert_eq!(spec.name, name, "metric order follows spec::END_TO_END");
            let exact = if spec.clock == Clock::Simulated {
                " across seeds; exact for one seed"
            } else {
                ""
            };
            println!(
                "{:<24} {:>16.4} {:<6} {:<10} {:<17} {:.0} %{exact}",
                spec.name,
                value,
                spec.unit,
                spec.clock.name(),
                direction(spec.higher_is_better),
                spec.bound * 100.0
            );
            out.push((spec.name, value, spec.unit));
        }
        for (kind, n) in m.failures.iter().filter(|(_, n)| *n > 0) {
            println!("# FAILED: {n} {kind}");
        }
        (m.attempted, m.failed(), out)
    };
    println!(
        "\nfailed {failed} of {attempted} operations (failed_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

fn run_child(a: &Args, workload: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()]);
    cmd.args([
        "--seconds",
        &a.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("UP_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text.lines().last().and_then(parse_line);
    match result {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!(
            "{workload} (trace {}) failed:\n{text}",
            u8::from(trace)
        )),
    }
}

/// Every workload, measured then traced, each in a fresh process so the
/// process-global tier/decode counters and `VmHWM` start clean.
fn run_set(a: &Args) -> Result<Vec<(String, RunResult, RunResult)>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            Ok((
                w.name.to_string(),
                run_child(a, w.name, false)?,
                run_child(a, w.name, true)?,
            ))
        })
        .collect()
}

fn print_set(set: &[(String, RunResult, RunResult)]) {
    print!("{:<36}", "metric");
    for (name, ..) in set {
        print!(" {name:>14}");
    }
    println!();
    let row =
        |name: &str, pick: &dyn Fn(&(String, RunResult, RunResult)) -> &RunResult, tail: String| {
            print!("{name:<36}");
            for cell in set {
                let v = pick(cell)
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v);
                print!(" {:>14.4}", v.unwrap_or(f64::NAN));
            }
            println!("  {tail}");
        };
    for m in &END_TO_END {
        let tail = format!(
            "{} · {} · {} · bound {:.0} %",
            m.unit,
            m.clock.name(),
            direction(m.higher_is_better),
            m.bound * 100.0
        );
        row(m.name, &|c| &c.1, tail);
    }
    println!();
    for m in &PER_LAYER {
        let tail = format!(
            "{} · {}{}",
            m.unit,
            m.clock.name(),
            if m.exact { " · exact" } else { "" }
        );
        row(m.name, &|c| &c.2, tail);
    }
}

/// Repeatability: `n` full sets; per cell the median and the largest
/// relative deviation from it. Fails when an end-to-end cell deviates by
/// more than its bound or an exact count differs between sets.
fn run_sets(a: &Args, n: usize) -> Result<bool, String> {
    let sets: Vec<_> = (0..n).map(|_| run_set(a)).collect::<Result<_, _>>()?;
    let mut ok = true;
    println!(
        "{:<36} {:<12} {:>14} {:>10}  verdict",
        "metric", "workload", "median", "max dev"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let cell = |name: &str, traced: bool| -> Vec<f64> {
            sets.iter()
                .filter_map(|s| {
                    let r = if traced { &s[wi].2 } else { &s[wi].1 };
                    r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
                })
                .collect()
        };
        let deviation = |v: &[f64]| {
            let med = stats::median(v);
            let dev = v.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
            (med, if med != 0.0 { dev / med.abs() } else { dev })
        };
        for m in &END_TO_END {
            let (med, dev) = deviation(&cell(m.name, false));
            let pass = dev <= m.bound;
            ok &= pass;
            println!(
                "{:<36} {:<12} {med:>14.4} {:>9.2}%  {}",
                m.name,
                w.name,
                dev * 100.0,
                if pass { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let v = cell(m.name, true);
            let pass = v.windows(2).all(|p| p[0].to_bits() == p[1].to_bits());
            ok &= pass;
            println!(
                "{:<36} {:<12} {:>14.4} {:>10}  {}",
                m.name,
                w.name,
                v.first().copied().unwrap_or(f64::NAN),
                "-",
                if pass { "exact" } else { "NOT EXACT" }
            );
        }
    }
    ok &= sets
        .iter()
        .flatten()
        .all(|(_, m, t)| m.correct && t.correct);
    Ok(ok)
}

fn main() -> ExitCode {
    let stripped = strip_up_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("up-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some(n) = args.sets {
        run_sets(&args, n.max(2))
    } else if args.all {
        run_set(&args).map(|set| {
            print_set(&set);
            set.iter().all(|(_, m, t)| m.correct && t.correct)
        })
    } else if let Some(name) = &args.workload {
        run_one(&args, name, &stripped)
    } else {
        Err("give --workload <name>, --all or --sets <N>".into())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("up-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}
