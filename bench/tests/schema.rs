//! Schema self-test: what the program prints is what `BENCHMARK.json`
//! declares, exact counts repeat, `wire_cold` really misses every time,
//! and a bent oracle makes a run fail. Runs the built program with
//! `--smoke` (0.5 s windows, short fixed passes); `cargo test --release`
//! is the quick way, a debug build works too.

use std::process::Command;
use up_e2e_bench::report::{parse_line, RunResult};
use up_e2e_bench::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};

const BIN: &str = env!("CARGO_BIN_EXE_up-e2e-bench");
const SEED: &str = "7";

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (bool, String, Option<RunResult>) {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("run the benchmark program");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let result = text.lines().last().and_then(parse_line);
    (out.status.success(), text, result)
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .1
}

#[test]
fn benchmark_json_is_the_emitted_text() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with --emit-benchmark-json"
    );
    let emitted = Command::new(BIN)
        .arg("--emit-benchmark-json")
        .output()
        .expect("run");
    assert_eq!(String::from_utf8_lossy(&emitted.stdout), on_disk);
}

#[test]
fn printed_names_match_and_exact_counts_repeat() {
    for w in &WORKLOADS {
        let (ok, text, measured) = smoke(w.name, "0", &[]);
        assert!(ok, "{}: measured smoke run failed\n{text}", w.name);
        let measured = measured.expect("result line");
        let names: Vec<&str> = measured.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{}",
            w.name
        );
        assert!(
            measured.correct && measured.failed == 0 && measured.attempted >= 1,
            "{}",
            w.name
        );
        assert!(
            measured.metrics.iter().all(|(_, v)| *v > 0.0),
            "{}: a zero end-to-end metric",
            w.name
        );

        let (ok, text, first) = smoke(w.name, "1", &[]);
        assert!(ok, "{}: traced smoke run failed\n{text}", w.name);
        let first = first.expect("result line");
        let names: Vec<&str> = first.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{}",
            w.name
        );
        assert!(first.correct && first.failed == 0, "{}", w.name);

        // Same commit, same seed: every exact count and the simulated
        // clock repeat bit for bit.
        let (_, _, again) = smoke(w.name, "1", &[]);
        let again = again.expect("result line");
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (value(&first, m.name), value(&again, m.name));
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {}: {a} vs {b}",
                w.name,
                m.name
            );
        }
        let (_, _, measured_again) = smoke(w.name, "0", &[]);
        let (a, b) = (
            value(&measured, "modeled_ms_per_query"),
            value(
                &measured_again.expect("result line"),
                "modeled_ms_per_query",
            ),
        );
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: simulated clock {a} vs {b}",
            w.name
        );

        if w.name == "wire_cold" {
            let replayed = text
                .split("replay_statements=")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse::<f64>().ok())
                .expect("provenance names the replay length");
            assert_eq!(value(&first, "jit.cache_hit_rate"), 0.0);
            assert_eq!(value(&first, "jit.cache_misses"), replayed);
        } else {
            assert_eq!(value(&first, "jit.cache_hit_rate"), 1.0, "{}", w.name);
        }
    }
}

#[test]
fn a_bent_oracle_fails_the_run() {
    // One workload per kind of oracle: precomputed cells, cells computed
    // per generated statement, and the ingest prefix sums.
    for workload in ["wire_point", "wire_cold", "wire_ingest"] {
        for trace in ["0", "1"] {
            let (ok, text, result) = smoke(workload, trace, &["--corrupt-oracle"]);
            let result = result.unwrap_or_else(|| panic!("{workload}: no result line\n{text}"));
            assert!(
                !ok,
                "{workload} trace {trace}: exit code 0 with a bent oracle"
            );
            assert!(
                !result.correct && result.failed > 0,
                "{workload} trace {trace}: {result:?}"
            );
        }
    }
}
