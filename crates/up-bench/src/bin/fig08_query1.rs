//! Figure 8 — Query 1: `SELECT c1+c2+c3 FROM R1` across result LEN ∈
//! {2,4,8,16,32} on HEAVY.AI, RateupDB, MonetDB, PostgreSQL, and
//! UltraPrecise (no alignment scheduling or constant optimization is
//! exercised: all three columns share precision and scale 2, and the
//! multi-threading arithmetic is disabled, §IV-A).
//!
//! Expected shape: HEAVY.AI only completes LEN 2; MonetDB and RateupDB
//! stop after LEN 4; PostgreSQL completes everything but slowly (the
//! paper's 5.24× GPU speedup at high LEN); UltraPrecise tracks RateupDB
//! at LEN 2 and overtakes from LEN 4.

use up_bench::{precision_for_len, print_header, print_row, runner, HarnessOpts, LEN_SERIES};
use up_engine::Profile;
use up_num::DecimalType;

/// Runs a multi-expression Query-1 variant with the launch DAG off and
/// on and asserts byte-identical results and bit-equal modeled time —
/// the harness-level leg of the determinism suite.
fn pipeline_check(sim_tuples: usize) {
    use up_gpusim::PipelineMode;
    let ty = DecimalType::new_unchecked(precision_for_len(8) - 2, 2);
    let cols = [("c1", ty), ("c2", ty), ("c3", ty)];
    // Three independent expression slots, one repeated signature.
    let sql = "SELECT c1 + c2 + c3, c1 * c2, c2 + c3 * c1, c1 + c2 + c3 FROM r1";
    let run = |mode: PipelineMode| {
        let mut db =
            runner::decimal_db(Profile::UltraPrecise, "r1", &cols, sim_tuples, 1, 808);
        db.pipeline = mode;
        db.query(sql).expect("pipelined query 1")
    };
    let off = run(PipelineMode::Off);
    for mode in [PipelineMode::On(2), PipelineMode::On(8)] {
        let r = run(mode);
        assert_eq!(off.rows.len(), r.rows.len(), "pipeline check ({mode}): row count");
        for (a, b) in off.rows.iter().zip(&r.rows) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.render(), y.render(), "pipeline check ({mode}): values");
            }
        }
        for (name, x, y) in [
            ("kernel_s", off.modeled.kernel_s, r.modeled.kernel_s),
            ("pcie_s", off.modeled.pcie_s, r.modeled.pcie_s),
            ("compile_s", off.modeled.compile_s, r.modeled.compile_s),
            ("cpu_s", off.modeled.cpu_s, r.modeled.cpu_s),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "pipeline check ({mode}): modeled {name} must be bit-equal"
            );
        }
        assert!(r.pipeline.is_some(), "pipeline check ({mode}): report expected");
    }
    println!(
        "pipeline check: off vs on(2)/on(8) — identical results and bit-equal \
         modeled time over {sim_tuples} tuples\n"
    );
}

fn main() {
    let opts = HarnessOpts::from_args(8_000);
    println!(
        "Figure 8: SELECT c1+c2+c3 FROM R1 — {} simulated tuples scaled to {}\n",
        opts.sim_tuples, opts.report_tuples
    );
    pipeline_check(opts.sim_tuples.clamp(512, 4_096));

    let systems = [
        Profile::HeavyAiLike,
        Profile::RateupLike,
        Profile::MonetLike,
        Profile::PostgresLike,
        Profile::UltraPrecise,
    ];
    let widths = [13usize, 14, 14, 14, 14, 14];
    print_header(&["system", "LEN=2", "LEN=4", "LEN=8", "LEN=16", "LEN=32"], &widths);

    let mut rows: Vec<Vec<String>> =
        systems.iter().map(|p| vec![p.name().to_string()]).collect();
    for &len in &LEN_SERIES {
        // A 3-term same-scale add widens by 2 digits (§III-B3): pick the
        // column precision so the *result* hits the LEN target.
        let result_p = precision_for_len(len);
        let col_p = result_p - 2;
        let ty = DecimalType::new_unchecked(col_p, 2);
        let cols = [("c1", ty), ("c2", ty), ("c3", ty)];
        let outcomes = runner::sweep(
            &systems,
            |p| runner::decimal_db(p, "r1", &cols, opts.sim_tuples, 1, 800 + len as u64),
            "SELECT c1 + c2 + c3 FROM r1",
            opts.scale(),
            false,
        );
        for (row, o) in rows.iter_mut().zip(&outcomes) {
            row.push(match &o.result {
                Ok(m) => up_bench::fmt_time(m.total()),
                Err(_) => "✗".to_string(),
            });
        }
    }
    for row in &rows {
        print_row(row, &widths);
    }

    println!(
        "\n✗ = the system cannot declare or compute the type (HEAVY.AI caps at p=18, \
         MonetDB at 38, RateupDB at 36/38-intermediate), matching the paper's missing bars."
    );
}
