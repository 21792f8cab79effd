//! # wfbb-bench — kernel microbenchmarks
//!
//! Criterion benchmarks in `benches/`:
//!
//! * `engine` — kernel microbenchmarks no `wfbb-perf` layer metric
//!   isolates: the max–min fair-share solver at fixed flow counts, engine
//!   throughput, Naive vs Incremental on a delay-heavy mix, 10k flows,
//!   engine fork, the explain build, and checkpointing on vs off.
//!   A sampled run summarized by `scripts/bench-summary.py` is committed
//!   as `BENCH_engine.json`;
//! * `figures` — regeneration of every reproduced table and figure
//!   through `wfbb_experiments::figures`. Its `cargo bench -- --test`
//!   smoke is the only CI run of the `ablation`, `bigfiles`, `scaling`,
//!   `optimality`, `refit` and `bbnodes` runners.
//!
//! End-to-end simulation, campaign and service performance is measured
//! by the `wfbb-perf` package (committed as `BENCH_perf.json`), not here.
//! The experiment *data* itself is produced by the binaries in
//! `wfbb-experiments` (`cargo run --release -p wfbb-experiments --bin
//! fig04`, ...), which write CSVs to `results/`.

/// Benchmarked figure ids, re-exported for the `figures` bench.
pub const FIGURE_IDS: [&str; 22] = wfbb_experiments::figures::NAMES;
