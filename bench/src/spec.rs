//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end cells each
//! is expected to move. `BENCHMARK.json` is generated from these tables
//! (`--emit-benchmark-json`) and the schema self-test holds the two equal.

/// Which clock a number is read from. Host = wall/CPU time of this
/// process; Simulated = the modeled GPU seconds the paper reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Simulated,
    /// Counts, ratios, sizes.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::None => "-",
        }
    }
}

/// Unit of every simulated-clock metric: milliseconds of the modeled
/// A6000, never to be added to or compared with host `ms`.
pub const SIM_MS: &str = "sim_ms";

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "wire_point",
        why: "256-row LEN-2 statements, all JIT cache hits: framing, reactor wake-ups, admission and parse/plan dominate, the simulator barely runs",
    },
    WorkloadSpec {
        name: "wire_scan",
        why: "4096-row LEN-8 projections with ~300 KB replies: simulator memory/codec path, row render, Rows encode and socket write dominate",
    },
    WorkloadSpec {
        name: "wire_bignum",
        why: "RSA cube-mod, TPC-H Q1 at LEN 32, SUM(a*b) and SUM(a/b) with 1-6 row replies: carry chains, schoolbook multiply and DivBig dominate",
    },
    WorkloadSpec {
        name: "wire_cold",
        why: "every statement a new expression over 64 rows: 0% JIT cache hits, so parse, plan, rewrite, codegen, decode and LRU eviction dominate",
    },
    WorkloadSpec {
        name: "wire_ingest",
        why: "two readers sum a 16k-row table while a writer appends 16 rows every 25 ms on a fixed schedule: table locks, snapshots checked by COUNT(*)",
    },
];

pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [E2eSpec; 7] = [
    E2eSpec {
        name: "qps",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
    },
    E2eSpec {
        name: "lat_p50_ms",
        unit: "ms",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    E2eSpec {
        name: "lat_p95_ms",
        unit: "ms",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    E2eSpec {
        name: "cpu_ms_per_query",
        unit: "ms",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    E2eSpec {
        name: "modeled_ms_per_query",
        unit: SIM_MS,
        clock: Clock::Simulated,
        higher_is_better: false,
        bound: 0.02,
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::None,
        higher_is_better: false,
        bound: 0.15,
    },
    E2eSpec {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Must repeat bit for bit for one commit and seed.
    pub exact: bool,
    /// `(end-to-end metric, workload)` cells this is expected to move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn host(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        clock: Clock::Host,
        higher_is_better: false,
        exact: false,
        moves,
    }
}

const fn count(
    name: &'static str,
    exact: bool,
    moves: &'static [(&'static str, &'static str)],
) -> LayerSpec {
    LayerSpec {
        name,
        unit: "count",
        clock: Clock::None,
        higher_is_better: false,
        exact,
        moves,
    }
}

impl LayerSpec {
    const fn unit(mut self, unit: &'static str) -> LayerSpec {
        self.unit = unit;
        self
    }

    const fn higher(mut self) -> LayerSpec {
        self.higher_is_better = true;
        self
    }

    const fn simulated(mut self) -> LayerSpec {
        self.clock = Clock::Simulated;
        self
    }
}

const FRONT: &[(&str, &str)] = &[
    ("lat_p50_ms", "wire_point"),
    ("cpu_ms_per_query", "wire_point"),
];
const FRONT_COLD: &[(&str, &str)] = &[("lat_p50_ms", "wire_point"), ("lat_p50_ms", "wire_cold")];
const REPLY: &[(&str, &str)] = &[("qps", "wire_scan"), ("cpu_ms_per_query", "wire_scan")];
const ANY_FAIL: &[(&str, &str)] = &[("qps", "wire_point"), ("qps", "wire_ingest")];
const QUEUE: &[(&str, &str)] = &[("lat_p95_ms", "wire_point")];
const EXEC: &[(&str, &str)] = &[("qps", "wire_scan"), ("qps", "wire_bignum")];
const INGEST: &[(&str, &str)] = &[("lat_p95_ms", "wire_ingest"), ("qps", "wire_ingest")];
const MISS: &[(&str, &str)] = &[
    ("qps", "wire_cold"),
    ("lat_p50_ms", "wire_cold"),
    ("cpu_ms_per_query", "wire_cold"),
    ("setup_s", "wire_bignum"),
];
const HIT: &[(&str, &str)] = &[("lat_p50_ms", "wire_point")];
const SIM: &[(&str, &str)] = &[
    ("qps", "wire_scan"),
    ("lat_p50_ms", "wire_scan"),
    ("cpu_ms_per_query", "wire_scan"),
    ("qps", "wire_bignum"),
    ("lat_p50_ms", "wire_bignum"),
];
const MODELED: &[(&str, &str)] = &[
    ("modeled_ms_per_query", "wire_scan"),
    ("modeled_ms_per_query", "wire_bignum"),
];
const MODELED_COLD: &[(&str, &str)] = &[("modeled_ms_per_query", "wire_cold")];
const TIER: &[(&str, &str)] = &[("setup_s", "wire_scan"), ("lat_p50_ms", "wire_cold")];
const NUM_WIDE: &[(&str, &str)] = &[("qps", "wire_scan")];
const NUM_FOLD: &[(&str, &str)] = &[("lat_p50_ms", "wire_cold")];
/// Quality of the measurement itself: which cells to distrust when off.
const SELF: &[(&str, &str)] = &[("lat_p50_ms", "wire_point")];

pub const PER_LAYER: [LayerSpec; 67] = [
    // up-net
    host("net.query_decode_us", "us", FRONT),
    host("net.rows_encode_us", "us", REPLY),
    host("net.rows_decode_us", "us", REPLY),
    count("net.reply_bytes_per_query", true, REPLY).unit("B"),
    host("net.admit_us", "us", FRONT),
    host("net.overhead_ms", "ms", FRONT),
    count("net.protocol_errors", false, ANY_FAIL),
    count("net.slow_closed", false, ANY_FAIL),
    count("net.refused", false, ANY_FAIL),
    count("net.idle_closed", false, ANY_FAIL),
    count("net.wire_threads", false, FRONT),
    host("client.lat_p99_ms", "ms", QUEUE),
    // up-server
    host("server.overhead_ms", "ms", FRONT_COLD),
    host("server.queue_wait_ms_p50", "ms", QUEUE),
    host("server.queue_wait_ms_p95", "ms", QUEUE),
    count("server.queue_max_depth", false, QUEUE),
    count("server.rejected", false, ANY_FAIL),
    count("server.timed_out", false, ANY_FAIL),
    count("server.failed", false, ANY_FAIL),
    count("server.worker_threads", false, FRONT),
    // up-engine
    host("engine.parse_us", "us", FRONT_COLD),
    host("engine.plan_us", "us", FRONT_COLD),
    host("engine.query_ms", "ms", EXEC),
    host("engine.exec_rest_ms", "ms", EXEC),
    host("engine.render_us_per_row", "us", REPLY),
    count("engine.rows_out_per_query", true, REPLY),
    count("engine.kernels_per_query", true, MODELED),
    host("engine.ingest_batch_us_p50", "us", INGEST),
    host("engine.ingest_batch_us_p95", "us", INGEST),
    host("engine.ingest_lag_ms_p95", "ms", INGEST),
    host("engine.ingest_rows_per_s", "1/s", INGEST).higher(),
    // up-jit
    host("jit.optimize_us", "us", MISS),
    host("jit.compile_miss_us", "us", MISS),
    host("jit.compile_hit_us", "us", HIT),
    count("jit.cache_hit_rate", false, HIT)
        .unit("ratio")
        .higher(),
    count("jit.cache_misses", true, MODELED_COLD),
    count("jit.cache_evictions", true, MISS),
    count("jit.signatures", true, MODELED_COLD),
    count("jit.static_insts_per_kernel", true, MODELED_COLD),
    host("jit.modeled_compile_ms_per_query", SIM_MS, MODELED_COLD).simulated(),
    // up-gpusim
    host("sim.launch_ms_decoded", "ms", TIER),
    host("sim.launch_ms_compiled", "ms", SIM),
    host("sim.launch_ms_auto", "ms", SIM),
    host("sim.tier_compile_ms", "ms", TIER),
    host("sim.reduce_ms", "ms", EXEC),
    host("sim.host_ns_per_warp_issue", "ns", SIM),
    count("sim.warp_issues_per_query", true, MODELED),
    count("sim.thread_insts_per_query", true, MODELED),
    count("sim.mem_transactions_per_query", true, MODELED),
    count("sim.divergent_branches_per_query", true, MODELED),
    host("sim.modeled_kernel_ms_per_query", SIM_MS, MODELED).simulated(),
    count("sim.launches_decoded", true, TIER),
    count("sim.launches_compiled", true, SIM).higher(),
    count("sim.promotions", true, TIER),
    count("sim.lowered_superblock_frac", false, SIM)
        .unit("ratio")
        .higher(),
    count("sim.decode_builds", true, MISS),
    count("sim.tier_builds", true, TIER),
    // up-num
    host("num.encode_us_per_1k", "us", NUM_WIDE),
    host("num.render_us_per_1k", "us", NUM_WIDE),
    host("num.mul_ns", "ns", NUM_FOLD),
    host("num.divrem_ns", "ns", NUM_FOLD),
    // the benchmark's own quality
    count("trace.coverage_frac", false, SELF)
        .unit("ratio")
        .higher(),
    host("trace.unattributed_ms", "ms", SELF),
    count("trace.overhead_frac", false, SELF).unit("ratio"),
    count("check.statements_verified", false, ANY_FAIL).higher(),
    count("check.oracle_mismatches", false, ANY_FAIL),
    host("gen.lateness_ms_p95", "ms", INGEST),
];

/// Seconds one run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 15;

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The canonical text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m.higher_is_better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_layer_metric_names_the_cells_it_moves() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
            for (metric, workload) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: {metric}",
                    m.name
                );
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *workload),
                    "{}: {workload}",
                    m.name
                );
            }
        }
    }
}
