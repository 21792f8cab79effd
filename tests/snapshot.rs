//! Fork determinism contract tests.
//!
//! The pinned guarantee (`docs/snapshot.md`): running an engine after
//! `fork()` is **bitwise identical** — activity ids, tags, and the exact
//! `f64` bit patterns of completion times — to the uninterrupted run, in
//! both solve modes, with and without capacity faults, from any fork
//! point. The same holds one layer up for `CampaignSim::fork`, which is
//! what the `plan` scheduling policy (and future mid-campaign
//! checkpointing) builds on.

use proptest::prelude::*;

use wfbb::platform::{presets, BbMode};
use wfbb::sched::{
    run_campaign, synthetic_jobs, BatchPolicy, CampaignConfig, CampaignSim, JobSpec,
    SyntheticConfig,
};
use wfbb::simcore::{ActivityId, Engine, EngineConfig, FaultPlan, FlowSpec, SolveMode};

// ---- randomized engine scenarios ----------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a seeded mixed workload: a handful of resources, a blend of
/// flows (with latencies, rate caps, shared routes) and pure delays, and
/// optionally a capacity-fault schedule (degradations and full outages).
fn build_engine(seed: u64, mode: SolveMode, with_faults: bool) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::with_config(EngineConfig {
        solve_mode: mode,
        ..Default::default()
    });
    let mut s = seed.wrapping_mul(2).wrapping_add(1);
    let nres = 2 + (splitmix(&mut s) % 4) as usize;
    let res: Vec<_> = (0..nres)
        .map(|i| engine.add_resource(format!("r{i}"), 50.0 + (splitmix(&mut s) % 950) as f64))
        .collect();
    let nact = 5 + (splitmix(&mut s) % 20) as usize;
    for i in 0..nact {
        if splitmix(&mut s).is_multiple_of(4) {
            engine.spawn_delay(((splitmix(&mut s) % 1000) as f64) / 10.0, i as u64);
        } else {
            let a = (splitmix(&mut s) % nres as u64) as usize;
            let b = (splitmix(&mut s) % nres as u64) as usize;
            let route = if a == b {
                vec![res[a]]
            } else {
                vec![res[a], res[b]]
            };
            let mut spec = FlowSpec::new(100.0 + (splitmix(&mut s) % 100_000) as f64, route);
            if splitmix(&mut s).is_multiple_of(3) {
                spec = spec.with_latency(((splitmix(&mut s) % 100) as f64) / 10.0);
            }
            if splitmix(&mut s).is_multiple_of(3) {
                spec = spec.with_rate_cap(10.0 + (splitmix(&mut s) % 200) as f64);
            }
            engine.spawn_flow(spec, i as u64);
        }
    }
    if with_faults {
        // Three capacity events: a degradation to half, a restore to
        // nominal, and (sometimes) a full outage late enough that most
        // scenarios still drain. Stalls are part of the contract too —
        // the replay must stall at the identical point.
        let mut plan = FaultPlan::new();
        for k in 0..3u64 {
            let r = res[(splitmix(&mut s) % nres as u64) as usize];
            let t = ((splitmix(&mut s) % 600) as f64) / 10.0;
            let cap = match (splitmix(&mut s).wrapping_add(k)) % 3 {
                0 => engine.resource(r).capacity * 0.5,
                1 => engine.resource(r).capacity,
                _ => 0.0,
            };
            plan.push_capacity(t, r, cap);
        }
        engine.set_fault_plan(&plan);
    }
    engine
}

/// One completion, fingerprinted exactly: id, tag, and the raw bit
/// pattern of the completion time.
type Event = (ActivityId, u64, u64);

/// Drains the engine, returning the exact event sequence plus the error
/// (as text) if it stalled instead of draining.
fn drain(engine: &mut Engine<u64>) -> (Vec<Event>, Option<String>) {
    let mut events = Vec::new();
    loop {
        match engine.try_step() {
            Ok(Some(c)) => events.push((c.id, c.tag, c.time.seconds().to_bits())),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e.to_string())),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// fork → run-to-completion is bitwise equal to the uninterrupted run,
    /// from any event index, in both solve modes, with and without
    /// capacity faults — even when the fork overwrites a *different*
    /// engine's state.
    #[test]
    fn fork_replays_bitwise(
        seed in 0u64..10_000,
        fork_at in 0usize..12,
        faulty in 0u64..2,
    ) {
        let with_faults = faulty == 1;
        for mode in [SolveMode::Naive, SolveMode::Incremental] {
            let mut original = build_engine(seed, mode, with_faults);
            for _ in 0..fork_at {
                match original.try_step() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
            let mut held = original.fork();

            // The uninterrupted run: the original simply continues.
            let uninterrupted = drain(&mut original);

            // Overwrite a dirty, unrelated engine with a fork: the old
            // state must not leak through.
            let mut dirty = build_engine(seed ^ 0x5eed, mode, !with_faults);
            let _ = dirty.try_step();
            dirty = held.fork();
            prop_assert_eq!(&drain(&mut dirty), &uninterrupted, "fork over dirty ({mode:?})");

            // A held fork is a reusable value: forking it again replays
            // the identical sequence again, and so does the held copy.
            dirty = held.fork();
            prop_assert_eq!(&drain(&mut dirty), &uninterrupted, "re-fork ({mode:?})");
            prop_assert_eq!(&drain(&mut held), &uninterrupted, "held fork ({mode:?})");
        }
    }
}

// ---- campaign-level forking ---------------------------------------------

fn campaign_jobs(seed: u64, kills: bool) -> Vec<JobSpec> {
    let jobs = synthetic_jobs(
        seed,
        &SyntheticConfig {
            jobs: 5,
            mean_interarrival: 25.0,
            bb_request_scale: 1.5,
            max_nodes: 2,
        },
    )
    .unwrap();
    if !kills {
        return jobs;
    }
    jobs.into_iter()
        .map(|j| {
            if j.workflow_spec.starts_with("swarp") {
                // Kills landing outside the task's window are no-ops, so
                // cases cover clean runs, retries, and job failures.
                j.with_kill("resample_0", 40.0).with_max_attempts(2)
            } else {
                j
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A campaign forked mid-flight finishes with a byte-identical
    /// report, in both solve modes, including campaigns with kill faults
    /// in flight at the fork point.
    #[test]
    fn mid_campaign_fork_replays_bitwise(
        seed in 0u64..1_000,
        fork_at in 0usize..40,
        kills in 0u64..2,
    ) {
        let jobs = campaign_jobs(seed, kills == 1);
        for mode in [SolveMode::Naive, SolveMode::Incremental] {
            let cfg = CampaignConfig::new(presets::cori(4, BbMode::Striped))
                .with_policy(BatchPolicy::BbAware)
                .with_solve_mode(mode)
                .with_platform_label("cori:striped");
            let mut sim = CampaignSim::new(&cfg, &jobs).unwrap();
            for _ in 0..fork_at {
                if !sim.step().unwrap() {
                    break;
                }
            }
            let mut forked = sim.fork();
            while sim.step().unwrap() {}
            while forked.step().unwrap() {}
            let a = sim.finish().unwrap();
            let b = forked.finish().unwrap();
            prop_assert_eq!(a.to_json(), b.to_json(), "fork diverged ({:?})", mode);
        }
    }
}

// ---- plan-policy acceptance ---------------------------------------------

/// On an oversubscribed 20-job campaign (2× BB pressure, 15 s mean
/// interarrival on 8 nodes) plan-based scheduling must *strictly* beat
/// greedy BB-aware backfilling on mean bounded slowdown — the regime
/// Kopanski & Rzadca identify — and never lose a job doing it.
#[test]
fn plan_strictly_beats_bb_aware_when_oversubscribed() {
    let jobs = synthetic_jobs(
        1,
        &SyntheticConfig {
            jobs: 20,
            mean_interarrival: 15.0,
            bb_request_scale: 2.0,
            max_nodes: 8,
        },
    )
    .unwrap();
    let run = |policy| {
        let cfg = CampaignConfig::new(presets::cori(8, BbMode::Striped))
            .with_policy(policy)
            .with_platform_label("cori:striped");
        run_campaign(&cfg, &jobs).unwrap()
    };
    let greedy = run(BatchPolicy::BbAware);
    let plan = run(BatchPolicy::Plan);
    assert_eq!(plan.jobs_ran, greedy.jobs_ran, "plan must not lose jobs");
    assert!(
        plan.mean_bounded_slowdown < greedy.mean_bounded_slowdown - 1e-9,
        "plan {} must strictly beat bb-aware {}",
        plan.mean_bounded_slowdown,
        greedy.mean_bounded_slowdown
    );
}
