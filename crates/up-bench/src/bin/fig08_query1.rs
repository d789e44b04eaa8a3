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

fn main() {
    let opts = HarnessOpts::from_args(8_000);
    println!(
        "Figure 8: SELECT c1+c2+c3 FROM R1 — {} simulated tuples scaled to {}\n",
        opts.sim_tuples, opts.report_tuples
    );

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
