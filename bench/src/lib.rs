//! `up-e2e-bench` — the repository's canonical benchmark, as a library so
//! the schema self-test can read the metric tables. The program is
//! `src/main.rs`; `bench/README.md` explains what is measured and why.

pub mod measure;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
