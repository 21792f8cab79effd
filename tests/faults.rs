//! Fault-injection integration tests: the empty-plan equivalence
//! property, the ISSUE acceptance scenario (a BB node lost mid-stage-in
//! on Cori's striped burst buffer), and kill/retry semantics — all
//! asserted across the full crate stack. See `docs/failure-model.md`
//! for the failure taxonomy these tests pin down.

use proptest::prelude::*;

use wfbb::prelude::*;
use wfbb::simcore::EngineConfig;
use wfbb::storage::StorageSystem;
use wfbb::wms::executor::Executor;
use wfbb::wms::{FaultEvent, FaultSpec, RetryPolicy, SchedulerPolicy};
use wfbb::workloads::patterns;

fn platform_for(idx: usize, nodes: usize) -> wfbb::platform::PlatformSpec {
    match idx % 3 {
        0 => presets::cori(nodes, BbMode::Private),
        1 => presets::cori(nodes, BbMode::Striped),
        _ => presets::summit(nodes),
    }
}

/// Everything observable about a run, as exact bit patterns: makespan,
/// staging, traffic/capacity accounting, per-task timeline and
/// decomposition, and the fault aggregates.
fn fingerprint(report: &SimulationReport) -> Vec<u64> {
    let mut bits = vec![
        report.makespan.seconds().to_bits(),
        report.stage_in_time.to_bits(),
        report.bb_bytes.to_bits(),
        report.pfs_bytes.to_bits(),
        report.bb_peak_bytes.to_bits(),
        report.fault_lost_bytes.to_bits(),
        report.fault_lost_compute.to_bits(),
        report.fault_wait_total.to_bits(),
        report.faults.len() as u64,
        report.retries as u64,
    ];
    for t in &report.tasks {
        bits.extend([
            t.start.seconds().to_bits(),
            t.read_end.seconds().to_bits(),
            t.compute_end.seconds().to_bits(),
            t.end.seconds().to_bits(),
            t.pure_compute.to_bits(),
            t.serialized_io.to_bits(),
            t.contention_wait.to_bits(),
            t.fault_wait.to_bits(),
            t.attempts as u64,
            t.node as u64,
        ]);
    }
    bits
}

/// Runs `wf` through the plain builder path (fault subsystem never
/// enabled).
fn run_without_subsystem(
    platform: &wfbb::platform::PlatformSpec,
    wf: &Workflow,
    fraction: f64,
    mode: SolveMode,
) -> SimulationReport {
    SimulationBuilder::new(platform.clone(), wf.clone())
        .placement(PlacementPolicy::FractionToBb { fraction })
        .solve_mode(mode)
        .run()
        .unwrap()
}

/// Runs `wf` with the fault subsystem explicitly armed — retry policy
/// installed, injection machinery active — but an *empty* schedule.
/// (`SimulationBuilder` skips `set_fault_injection` for empty specs, so
/// this drives the `Executor` directly to force the enabled path.)
fn run_with_empty_plan(
    platform: &wfbb::platform::PlatformSpec,
    wf: &Workflow,
    fraction: f64,
    mode: SolveMode,
) -> SimulationReport {
    platform.validate().unwrap();
    let mut engine = Engine::with_config(EngineConfig {
        solve_mode: mode,
        ..EngineConfig::default()
    });
    // An empty engine-level capacity-fault plan must be inert too.
    engine.set_fault_plan(&wfbb::simcore::FaultPlan::new());
    let instance = platform.instantiate(&mut engine);
    let storage = StorageSystem::new(instance);
    let plan = PlacementPolicy::FractionToBb { fraction }.plan(wf);
    let mut executor = Executor::new(
        engine,
        storage,
        wf.clone(),
        plan,
        None,
        SchedulerPolicy::default(),
    );
    let empty = FaultSpec::new().resolve(0).unwrap();
    assert!(empty.is_empty());
    executor.set_fault_injection(empty, RetryPolicy::default());
    executor.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ISSUE satellite: an empty `FaultPlan` is bitwise-identical to a
    /// run without the fault subsystem enabled, in both solve modes.
    #[test]
    fn empty_fault_plan_is_bitwise_inert(
        layers in 1usize..4,
        width in 1usize..4,
        seed in 0u64..500,
        platform_idx in 0usize..3,
        nodes in 1usize..3,
        fraction in 0.0f64..=1.0,
    ) {
        let wf = patterns::random_layered(layers, width, seed);
        let platform = platform_for(platform_idx, nodes);
        for mode in [SolveMode::Naive, SolveMode::Incremental] {
            let plain = run_without_subsystem(&platform, &wf, fraction, mode);
            let armed = run_with_empty_plan(&platform, &wf, fraction, mode);
            prop_assert_eq!(
                fingerprint(&plain),
                fingerprint(&armed),
                "{:?}: empty fault plan changed the run",
                mode
            );
            // Fault-free runs carry exactly-zero fault accounting.
            prop_assert!(armed.faults.is_empty());
            prop_assert_eq!(armed.retries, 0);
            for t in &armed.tasks {
                prop_assert_eq!(t.attempts, 1);
                prop_assert_eq!(t.fault_wait.to_bits(), 0.0f64.to_bits());
            }
        }
    }
}

/// The same property through the public builder: `.faults(empty)` is a
/// no-op, cheap enough to check on a real SWarp instance.
#[test]
fn empty_spec_through_builder_is_inert() {
    let wf = SwarpConfig::new(2).with_cores_per_task(8).build();
    let platform = presets::cori(1, BbMode::Striped);
    for mode in [SolveMode::Naive, SolveMode::Incremental] {
        let run = |spec: Option<FaultSpec>| {
            let mut b = SimulationBuilder::new(platform.clone(), wf.clone())
                .placement(PlacementPolicy::AllBb)
                .solve_mode(mode);
            if let Some(spec) = spec {
                b = b.faults(spec);
            }
            b.run().unwrap()
        };
        let plain = run(None);
        let empty = run(Some(FaultSpec::parse("# nothing scheduled\n").unwrap()));
        assert_eq!(fingerprint(&plain), fingerprint(&empty));
    }
}

/// ISSUE acceptance: a SWarp run on Cori's striped BB with one BB node
/// killed mid-stage-in completes via PFS failover, reports
/// fault-attributed lost work > 0, and the four-term decomposition
/// identity still holds within 1e-9.
#[test]
fn swarp_striped_bb_node_loss_fails_over_to_pfs() {
    let platform = presets::cori(1, BbMode::Striped);
    let wf = SwarpConfig::new(4).with_cores_per_task(8).build();

    // Fault-free baseline: find the middle of the stage-in window. Each
    // striped file stage is metadata-bound (the slow per-stripe opens of
    // §VI), with the actual data transfer compressed into the last
    // ~10 ms of the span — so aim the kill a few milliseconds before the
    // middle span ends to catch its stripe transfers in flight.
    let baseline = SimulationBuilder::new(platform.clone(), wf.clone())
        .placement(PlacementPolicy::AllBb)
        .run()
        .unwrap();
    assert!(baseline.stage_in_time > 0.0, "SWarp stages inputs");
    assert_eq!(baseline.pfs_bytes, 0.0, "baseline never touches the PFS");
    let mid_span = &baseline.stage_spans[baseline.stage_spans.len() / 2];
    assert!(
        mid_span.location.contains("striped"),
        "mid-stage-in file is striped, got {}",
        mid_span.location
    );
    let kill_time = mid_span.end.seconds() - 0.005;

    let mut spec = FaultSpec::new();
    spec.push(FaultEvent::BbNodeDown {
        time: kill_time,
        device: 0,
    });
    let report = SimulationBuilder::new(platform, wf)
        .placement(PlacementPolicy::AllBb)
        .faults(spec)
        .run()
        .expect("run completes despite the node loss");

    // The fault fired, cancelled in-flight striped transfers, and the
    // cancelled progress is attributed to it.
    assert_eq!(report.faults.len(), 1);
    let fault = &report.faults[0];
    assert_eq!(fault.kind, "bb-down");
    assert_eq!(fault.target, "bb:0");
    assert!((fault.time - kill_time).abs() < 1e-9);
    assert!(fault.cancelled_flows > 0, "stage-in was in flight");
    assert!(
        report.fault_lost_bytes > 0.0,
        "fault-attributed lost work must be > 0"
    );

    // Failover: every striped placement spans bb:0, so post-fault
    // accesses re-route to the PFS and the run still completes.
    assert!(
        report.pfs_bytes > 0.0,
        "failover routes traffic via the PFS"
    );
    assert_eq!(report.tasks.len(), baseline.tasks.len());

    // Decomposition identity, now with the fault term.
    for t in &report.tasks {
        let sum = t.pure_compute + t.serialized_io + t.contention_wait + t.fault_wait;
        assert!(
            (sum - t.duration()).abs() <= 1e-9 * t.duration().max(1.0),
            "{}: decomposition {sum} != duration {}",
            t.name,
            t.duration()
        );
    }

    // The explanation surfaces the fault blame category.
    let explanation = report.explain(3);
    assert_eq!(explanation.faults.len(), 1);
    assert!(explanation.fault_lost_bytes > 0.0);
    assert!(
        explanation.render_text().contains("bb-down"),
        "explain text names the fault"
    );
}

/// Kill faults trigger the retry policy: the victim re-executes, its
/// record carries the extra attempts and fault wait, and the identity
/// absorbs the recovery time.
#[test]
fn task_kill_retries_and_decomposition_holds() {
    let platform = presets::cori(1, BbMode::Private);
    let wf = SwarpConfig::new(2).with_cores_per_task(8).build();
    let baseline = SimulationBuilder::new(platform.clone(), wf.clone())
        .placement(PlacementPolicy::AllBb)
        .run()
        .unwrap();
    let victim = baseline.task_by_name("resample_0").unwrap();
    // Mid-compute: the pre-kill timeline is identical to the baseline,
    // so resample_0 is guaranteed to be running then.
    let kill_time = 0.5 * (victim.read_end.seconds() + victim.compute_end.seconds());

    let spec = FaultSpec::parse(&format!("task:resample_0@{kill_time}")).unwrap();
    let report = SimulationBuilder::new(platform, wf)
        .placement(PlacementPolicy::AllBb)
        .faults(spec)
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: 1.5,
        })
        .run()
        .unwrap();

    let retried = report.task_by_name("resample_0").unwrap();
    assert_eq!(retried.attempts, 2, "one kill, one re-execution");
    assert!(
        retried.fault_wait >= 1.5,
        "fault wait covers the killed attempt plus the 1.5 s backoff, got {}",
        retried.fault_wait
    );
    assert_eq!(report.retries, 1);
    assert!(report.fault_lost_compute > 0.0, "killed compute is charged");
    assert!(
        report.makespan > baseline.makespan,
        "losing an attempt cannot speed the run up"
    );
    for t in &report.tasks {
        let sum = t.pure_compute + t.serialized_io + t.contention_wait + t.fault_wait;
        assert!(
            (sum - t.duration()).abs() <= 1e-9 * t.duration().max(1.0),
            "{}: decomposition {sum} != duration {}",
            t.name,
            t.duration()
        );
    }
    // Untouched tasks keep exactly-zero fault accounting.
    for t in report.tasks.iter().filter(|t| t.name != "resample_0") {
        assert_eq!(t.attempts, 1);
        assert_eq!(t.fault_wait.to_bits(), 0.0f64.to_bits());
    }
}
