//! # wfbb-bench — benchmark harness
//!
//! Criterion benchmarks in `benches/`:
//!
//! * `engine` — kernel microbenchmarks: the max–min fair-share solver at
//!   various flow counts, and end-to-end engine throughput;
//! * `workloads` — full simulations of the paper's two applications
//!   (SWarp sweeps, the 903-task 1000Genomes instance);
//! * `figures` — regeneration time of every reproduced table/figure
//!   (`table1`, `fig04` … `fig14`), exercising exactly the code paths the
//!   experiment binaries run.
//!
//! Run with `cargo bench --workspace`. The experiment *data* itself is
//! produced by the binaries in `wfbb-experiments` (`cargo run --release
//! -p wfbb-experiments --bin fig04`, ...), which write CSVs to
//! `results/`.

/// Benchmarked figure ids, re-exported for the `figures` bench.
pub const FIGURE_IDS: [&str; 22] = wfbb_experiments::figures::NAMES;
