//! Component-solve contract tests.
//!
//! [`SolveMode::Incremental`] solves every epoch by connected components
//! over shared resources; [`SolveMode::Naive`] keeps the monolithic
//! progressive-filling pass as the reference. The pinned guarantees
//! (`docs/performance.md`):
//!
//! 1. **Partitioned ≈ monolithic.** The partitioned allocation may differ
//!    from the single-pass solve only through cross-component tolerance
//!    ties, far below the engine's `EPSILON`; completion times agree to
//!    the same 1e-9 relative tolerance as the `SolveMode` A/B suite.
//! 2. **Fork replay is bitwise.** A fork taken mid-run replays bitwise
//!    in both modes, with and without capacity faults, exactly as
//!    `docs/snapshot.md` promises.
//!
//! Degenerate decompositions — one giant component, all singletons, and a
//! component merge mid-run when a latent flow opens a shared route — are
//! covered explicitly, since those are the shapes where bucketing and
//! canonical merge order are easiest to get wrong.

use proptest::prelude::*;

use wfbb::simcore::{ActivityId, Engine, EngineConfig, FaultPlan, FlowSpec, SolveMode};

// ---- randomized engine scenarios ----------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a seeded scenario shaped like a campaign epoch: several disjoint
/// resource groups (a node's cores, a carved BB share) plus one "PFS"
/// resource that a minority of flows cross, so solves decompose into many
/// components with one larger shared one. Latencies stagger streaming-set
/// entry, rate caps mix binding kinds, and an optional fault plan hits
/// both grouped and shared resources.
fn build_engine(seed: u64, mode: SolveMode, with_faults: bool) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::with_config(EngineConfig {
        solve_mode: mode,
        ..Default::default()
    });
    let mut s = seed.wrapping_mul(2).wrapping_add(1);
    let ngroups = 2 + (splitmix(&mut s) % 6) as usize;
    let pfs = engine.add_resource("pfs", 200.0 + (splitmix(&mut s) % 800) as f64);
    let groups: Vec<[wfbb::simcore::ResourceId; 2]> = (0..ngroups)
        .map(|g| {
            [
                engine.add_resource(format!("g{g}a"), 50.0 + (splitmix(&mut s) % 950) as f64),
                engine.add_resource(format!("g{g}b"), 50.0 + (splitmix(&mut s) % 950) as f64),
            ]
        })
        .collect();
    let nact = 6 + (splitmix(&mut s) % 24) as usize;
    for i in 0..nact {
        if splitmix(&mut s).is_multiple_of(5) {
            engine.spawn_delay(((splitmix(&mut s) % 1000) as f64) / 10.0, i as u64);
            continue;
        }
        let g = &groups[(splitmix(&mut s) % ngroups as u64) as usize];
        let route = match splitmix(&mut s) % 4 {
            0 => vec![g[0]],
            1 => vec![g[0], g[1]],
            2 => vec![g[1], pfs], // crosses into the shared component
            _ => vec![g[0]],
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
    if with_faults {
        let mut plan = FaultPlan::new();
        for k in 0..3u64 {
            let r = if splitmix(&mut s).is_multiple_of(3) {
                pfs
            } else {
                groups[(splitmix(&mut s) % ngroups as u64) as usize][0]
            };
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

/// Asserts two drains agree to the A/B suite's tolerance: identical event
/// order, ids, tags and outcome, completion times within 1e-9 relative.
fn assert_close(mono: &(Vec<Event>, Option<String>), part: &(Vec<Event>, Option<String>)) {
    assert_eq!(mono.1.is_some(), part.1.is_some());
    assert_eq!(mono.0.len(), part.0.len());
    for (m, p) in mono.0.iter().zip(&part.0) {
        assert_eq!((m.0, m.1), (p.0, p.1));
        let (tm, tp) = (f64::from_bits(m.2), f64::from_bits(p.2));
        assert!(
            (tm - tp).abs() <= 1e-9 * tm.abs().max(1.0),
            "times differ: {tm} vs {tp}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partitioned solve (`Incremental`) agrees with the monolithic
    /// one (`Naive`) to the same 1e-9 relative tolerance the SolveMode
    /// A/B suite uses: identical event order and tags, times within
    /// tolerance.
    #[test]
    fn partitioned_matches_monolithic(
        seed in 0u64..10_000,
        faulty in 0u64..2,
    ) {
        let with_faults = faulty == 1;
        assert_close(
            &drain(&mut build_engine(seed, SolveMode::Naive, with_faults)),
            &drain(&mut build_engine(seed, SolveMode::Incremental, with_faults)),
        );
    }

    /// Fork replay is bitwise in both modes: a fork taken mid-run drains
    /// identically to its original.
    #[test]
    fn snapshot_fork_replay_is_bitwise(
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
            let mut fork = original.fork();
            let rest = drain(&mut original);
            prop_assert_eq!(&drain(&mut fork), &rest, "fork diverged");
        }
    }
}

// ---- degenerate decompositions ------------------------------------------

/// All flows share one PFS resource: a single giant component. Every
/// solve must see exactly one component, and the run must agree with the
/// monolithic reference (the component *is* the monolithic sub-problem;
/// the kernel-level `shared_resource_merges_components` pins that bitwise).
#[test]
fn single_giant_component_is_bitwise_stable() {
    let build = |mode: SolveMode| {
        let mut engine: Engine<u64> = Engine::with_config(EngineConfig {
            solve_mode: mode,
            ..Default::default()
        });
        let pfs = engine.add_resource("pfs", 1000.0);
        let disks: Vec<_> = (0..8)
            .map(|i| engine.add_resource(format!("disk{i}"), 300.0))
            .collect();
        for i in 0..32u64 {
            let route = vec![disks[(i % 8) as usize], pfs];
            engine.spawn_flow(FlowSpec::new(1000.0 + 37.0 * i as f64, route), i);
        }
        engine
    };
    let mut engine = build(SolveMode::Incremental);
    let events = drain(&mut engine);
    assert_eq!(
        engine.counters().partitioned_solves,
        engine.counters().solves
    );
    assert_eq!(
        engine.counters().components,
        engine.counters().partitioned_solves,
        "every solve must see exactly one component"
    );
    // Only the tail of the drain, where a lone flow survives, may produce
    // a size-one component.
    assert!(engine.counters().singleton_components <= 1);
    assert_eq!(events, drain(&mut build(SolveMode::Incremental)));
    assert_close(&drain(&mut build(SolveMode::Naive)), &events);
}

/// Every flow on its own private resource: all-singleton components, the
/// maximal decomposition. Reruns must agree bitwise, and the counters
/// must show the decomposition.
#[test]
fn all_singleton_components_are_bitwise_stable() {
    let build = || {
        let mut engine: Engine<u64> = Engine::new();
        let links: Vec<_> = (0..96)
            .map(|i| engine.add_resource(format!("link{i}"), 40.0 + i as f64))
            .collect();
        for (i, &link) in links.iter().enumerate() {
            let mut spec = FlowSpec::new(500.0 + 11.0 * i as f64, vec![link]);
            if i % 3 == 0 {
                spec = spec.with_rate_cap(15.0 + i as f64);
            }
            engine.spawn_flow(spec, i as u64);
        }
        engine
    };
    let mut engine = build();
    let events = drain(&mut engine);
    let counters = *engine.counters();
    assert!(counters.partitioned_solves > 0);
    // The first solve sees one singleton component per flow.
    assert_eq!(counters.component_max, 1);
    assert_eq!(counters.singleton_components, counters.components);
    assert_eq!(events, drain(&mut build()));
}

/// Two disjoint components merge mid-run when a latent flow whose route
/// bridges both groups starts streaming (the shape of a stage-out opening
/// a shared route). Reruns must agree bitwise, and the counters must
/// record the widened component.
#[test]
fn components_merging_mid_run_stay_bitwise_stable() {
    let build = || {
        let mut engine: Engine<u64> = Engine::new();
        let a = engine.add_resource("bb", 100.0);
        let b = engine.add_resource("pfs", 80.0);
        engine.spawn_flow(FlowSpec::new(2000.0, vec![a]), 0);
        engine.spawn_flow(FlowSpec::new(2000.0, vec![b]), 1);
        // The bridge streams only once its latency elapses at t = 5.
        engine.spawn_flow(FlowSpec::new(1000.0, vec![a, b]).with_latency(5.0), 2);
        engine
    };
    let mut engine = build();
    let events = drain(&mut engine);
    let counters = *engine.counters();
    // First solve: {0} on bb, {1} on pfs. After the latency expiry the
    // bridge connects them into one three-flow component.
    assert!(counters.partitioned_solves >= 2);
    assert_eq!(counters.component_max, 3);
    assert!(counters.singleton_components >= 2);
    assert_eq!(events, drain(&mut build()));
}

/// N simultaneous spawns are one event instant and one solve — the
/// batched event application the incremental engine promises.
#[test]
fn simultaneous_arrivals_cost_one_solve() {
    let mut engine: Engine<u64> = Engine::new();
    let links: Vec<_> = (0..16)
        .map(|i| engine.add_resource(format!("l{i}"), 100.0))
        .collect();
    // 64 flows spawned at the same instant, all finishing together in
    // groups: equal sizes per link.
    for i in 0..64u64 {
        engine.spawn_flow(FlowSpec::new(400.0, vec![links[(i % 16) as usize]]), i);
    }
    let (events, err) = drain(&mut engine);
    assert!(err.is_none());
    assert_eq!(events.len(), 64);
    let counters = engine.counters();
    assert_eq!(
        counters.events, 1,
        "64 simultaneous completions must be one event instant"
    );
    assert_eq!(
        counters.solves, 1,
        "one spawn batch must trigger exactly one solve"
    );
}
