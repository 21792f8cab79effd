//! Kernel microbenchmarks: fair-share solver and engine throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wfbb_simcore::fairshare::{solve, FlowReq};
use wfbb_simcore::{Engine, EngineConfig, FlowSpec, ResourceId, SolveMode};

/// Max–min solve over `n` flows crossing a shared link plus a private
/// resource each — the allocation pattern of concurrent pipelines.
fn bench_fairshare(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairshare_solve");
    for n in [8usize, 64, 256] {
        // Resource 0 is shared; resources 1..=n are per-flow.
        let capacities: Vec<f64> = std::iter::once(1000.0)
            .chain((0..n).map(|_| 50.0))
            .collect();
        let routes: Vec<[ResourceId; 2]> = (0..n)
            .map(|i| [ResourceId::from_index(0), ResourceId::from_index(i + 1)])
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let flows: Vec<FlowReq> = routes
                    .iter()
                    .map(|r| FlowReq {
                        route: r,
                        rate_cap: None,
                    })
                    .collect();
                black_box(solve(&capacities, &flows))
            })
        });
    }
    group.finish();
}

/// End-to-end engine throughput: `n` equal flows on one link, run to
/// completion (one solve per completion event).
fn bench_engine_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_run");
    for n in [16usize, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut engine: Engine<usize> = Engine::new();
                let link = engine.add_resource("link", 1000.0);
                for i in 0..n {
                    // Staggered sizes force n distinct completion events.
                    engine.spawn_flow(FlowSpec::new(100.0 + i as f64, vec![link]), i);
                }
                black_box(engine.run_to_completion().len())
            })
        });
    }
    group.finish();
}

/// The workload the incremental engine targets: `n` transfers contending
/// on one link interleaved with ~4n pure-delay events (compute phases,
/// metadata timers — the bulk of a workflow execution's event stream).
/// The naive engine re-solves the whole allocation at every delay end;
/// the incremental engine skips those solves and pops the heap.
fn stress_scenario(mode: SolveMode, n: usize) -> usize {
    let mut engine: Engine<usize> = Engine::with_config(EngineConfig {
        solve_mode: mode,
        ..EngineConfig::default()
    });
    let link = engine.add_resource("link", 1000.0);
    for i in 0..n {
        engine.spawn_flow(FlowSpec::new(100.0 + i as f64, vec![link]), i);
    }
    // Delay endpoints spread across the flows' completion span so each one
    // interrupts steady-state streaming.
    let span = 0.1 * (100.0 + n as f64) * n as f64 / 1000.0;
    for k in 0..4 * n {
        engine.spawn_delay(span * (k as f64 + 0.5) / (4 * n) as f64, n + k);
    }
    engine.run_to_completion().len()
}

/// A/B comparison on the delay-heavy stress mix: the ISSUE's ≥5× target
/// is measured between these two series at n = 1000.
fn bench_engine_stress(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_stress");
    group.sample_size(10);
    for n in [250usize, 1000] {
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, &n| {
            b.iter(|| black_box(stress_scenario(SolveMode::Naive, n)))
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, &n| {
            b.iter(|| black_box(stress_scenario(SolveMode::Incremental, n)))
        });
    }
    group.finish();
}

/// Scale check: 10 000 concurrent flows (two route groups plus delays)
/// must complete in seconds, not minutes.
fn bench_engine_10k(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_10k");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let n = 10_000usize;
            let mut engine: Engine<usize> = Engine::new();
            let link = engine.add_resource("link", 10_000.0);
            let nic = engine.add_resource("nic", 4_000.0);
            for i in 0..n {
                let route = if i % 2 == 0 {
                    vec![link]
                } else {
                    vec![nic, link]
                };
                engine.spawn_flow(FlowSpec::new(50.0 + (i % 100) as f64, route), i);
            }
            for k in 0..n {
                engine.spawn_delay(0.01 * k as f64, n + k);
            }
            black_box(engine.run_to_completion().len())
        })
    });
    group.finish();
}

/// Fork cost vs live engine size: `n` flows contending on one link plus
/// `n` delay timers, stepped partway so the lazy heap and the solver
/// workspace are warm. The deep clone bounds the per-candidate cost of
/// the plan scheduler's speculative rollouts (docs/snapshot.md).
fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork");
    for n in [16usize, 128, 512] {
        let mut engine: Engine<usize> = Engine::new();
        let link = engine.add_resource("link", 1000.0);
        for i in 0..n {
            engine.spawn_flow(FlowSpec::new(100.0 + i as f64, vec![link]), i);
        }
        for k in 0..n {
            engine.spawn_delay(0.01 * k as f64, n + k);
        }
        for _ in 0..n / 2 {
            engine.try_step().expect("warm-up steps succeed");
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(engine.fork()))
        });
    }
    group.finish();
}

/// Explainability overhead: building the full `explain` report (hotspot
/// ranking, critical-path walk, composition, renderers) from a finished
/// SWarp run. Attribution accounting itself is always on, so this bounds
/// the *extra* cost of `--explain` over a plain run.
fn bench_explain_report(c: &mut Criterion) {
    use wfbb_platform::{presets, BbMode};
    use wfbb_storage::PlacementPolicy;
    use wfbb_wms::SimulationBuilder;
    use wfbb_workloads::SwarpConfig;

    let report = SimulationBuilder::new(
        presets::cori(1, BbMode::Striped),
        SwarpConfig::new(8).with_cores_per_task(4).build(),
    )
    .placement(PlacementPolicy::AllBb)
    .run()
    .expect("swarp run succeeds");

    let mut group = c.benchmark_group("explain");
    group.bench_function("report", |b| b.iter(|| black_box(report.explain(5))));
    group.bench_function("render_text", |b| {
        let explanation = report.explain(5);
        b.iter(|| black_box(explanation.render_text()))
    });
    group.finish();
}

/// Checkpoint overhead: the same SWarp run with no policy, a sparse
/// policy, and a dense policy. The no-policy series doubles as the
/// regression guard for the bitwise-zero path — checkpointing disabled
/// must cost nothing over the pre-checkpoint executor.
fn bench_checkpoint_overhead(c: &mut Criterion) {
    use wfbb_platform::{presets, BbMode};
    use wfbb_storage::PlacementPolicy;
    use wfbb_wms::{CheckpointPolicy, CheckpointTier, SimulationBuilder};
    use wfbb_workloads::SwarpConfig;

    let run = |interval: Option<f64>| {
        let mut builder = SimulationBuilder::new(
            presets::cori(1, BbMode::Striped),
            SwarpConfig::new(4).with_cores_per_task(8).build(),
        )
        .placement(PlacementPolicy::AllBb);
        if let Some(i) = interval {
            builder = builder.checkpoint(CheckpointPolicy::new(i, CheckpointTier::Bb));
        }
        builder.run().expect("swarp run succeeds").makespan
    };

    let mut group = c.benchmark_group("checkpoint_overhead");
    group.sample_size(10);
    group.bench_function("disabled", |b| b.iter(|| black_box(run(None))));
    group.bench_function("sparse_16s", |b| b.iter(|| black_box(run(Some(16.0)))));
    group.bench_function("dense_2s", |b| b.iter(|| black_box(run(Some(2.0)))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fairshare, bench_engine_events, bench_engine_stress, bench_engine_10k,
              bench_fork, bench_explain_report, bench_checkpoint_overhead
}
criterion_main!(benches);
