//! Checkpoint/restart economics integration tests: the five-term
//! decomposition identity, exact-zero accounting without a policy,
//! restore-from-image semantics, the campaign-scope BB-pool shrink
//! (capacity faults with blast radius), and determinism of checkpointed
//! faulted campaigns across solve modes and solver thread counts.

use wfbb::prelude::*;
use wfbb::sched::{
    run_campaign, run_campaign_logged, BatchPolicy, CampaignConfig, DecisionRecord, JobSpec,
    JobStatus,
};
use wfbb::wms::{CheckpointPolicy, CheckpointTier, RetryPolicy};

/// Asserts the exact five-term identity on every task record:
/// `pure_compute + serialized_io + contention_wait + fault_wait +
/// checkpoint_io == duration` within 1e-9 relative.
fn assert_identity(report: &SimulationReport) {
    for t in &report.tasks {
        let sum =
            t.pure_compute + t.serialized_io + t.contention_wait + t.fault_wait + t.checkpoint_io;
        assert!(
            (sum - t.duration()).abs() <= 1e-9 * t.duration().max(1.0),
            "{}: decomposition {sum} != duration {}",
            t.name,
            t.duration()
        );
    }
}

fn swarp_run(policy: Option<CheckpointPolicy>) -> SimulationReport {
    let platform = presets::cori(1, BbMode::Striped);
    let wf = SwarpConfig::new(2).with_cores_per_task(8).build();
    let mut b = SimulationBuilder::new(platform, wf).placement(PlacementPolicy::AllBb);
    if let Some(p) = policy {
        b = b.checkpoint(p);
    }
    b.run().unwrap()
}

/// An interval short enough that SWarp's resample tasks checkpoint at
/// least twice, derived from the fault-free baseline.
fn dense_interval(baseline: &SimulationReport) -> f64 {
    let t = baseline.task_by_name("resample_0").unwrap();
    let compute_wall = t.compute_end.seconds() - t.read_end.seconds();
    assert!(compute_wall > 0.0);
    compute_wall / 3.0
}

/// Without a policy every checkpoint field is *bitwise* zero and the
/// report carries no checkpoint activity — the checkpoint-free path is
/// the pre-subsystem path.
#[test]
fn checkpoint_accounting_is_exactly_zero_without_a_policy() {
    let report = swarp_run(None);
    assert_eq!(report.checkpoints, 0);
    assert_eq!(report.restores, 0);
    assert_eq!(report.checkpoint_bytes.to_bits(), 0.0f64.to_bits());
    assert_eq!(report.checkpoint_io_total.to_bits(), 0.0f64.to_bits());
    for t in &report.tasks {
        assert_eq!(
            t.checkpoint_io.to_bits(),
            0.0f64.to_bits(),
            "{}: checkpoint_io must be exactly 0.0",
            t.name
        );
    }
    assert_identity(&report);
}

/// With a dense policy the checkpoint writes happen, cost real (nonzero)
/// wall-clock that lands in `checkpoint_io`, lengthen the makespan, and
/// the five-term identity still telescopes exactly.
#[test]
fn five_term_identity_holds_with_checkpoints() {
    let baseline = swarp_run(None);
    let interval = dense_interval(&baseline);
    for tier in [CheckpointTier::Bb, CheckpointTier::Pfs] {
        let report = swarp_run(Some(CheckpointPolicy::new(interval, tier)));
        assert!(
            report.checkpoints > 0,
            "{tier}: dense interval must trigger checkpoints"
        );
        assert!(report.checkpoint_bytes > 0.0);
        assert!(
            report.checkpoint_io_total > 0.0,
            "{tier}: checkpoint writes cost wall-clock"
        );
        assert!(
            report.makespan > baseline.makespan,
            "{tier}: checkpoint overhead cannot be free"
        );
        assert!(
            report.tasks.iter().any(|t| t.checkpoint_io > 0.0),
            "{tier}: some task must carry checkpoint_io"
        );
        assert_identity(&report);
    }
}

/// A task killed after a completed checkpoint restores from the image
/// (the report counts a restore) instead of re-reading its inputs, and
/// recovers less work than a scratch restart loses.
#[test]
fn killed_task_restores_from_its_last_checkpoint() {
    let platform = presets::cori(1, BbMode::Striped);
    let wf = SwarpConfig::new(2).with_cores_per_task(8).build();
    let baseline = swarp_run(None);
    let victim = baseline.task_by_name("resample_0").unwrap();
    // Late in the compute window: past the second checkpoint of a
    // three-segment split, so an image exists when the kill lands.
    let kill_time = victim.read_end.seconds()
        + 0.9 * (victim.compute_end.seconds() - victim.read_end.seconds());
    let interval = dense_interval(&baseline);

    let spec = FaultSpec::parse(&format!("task:resample_0@{kill_time}")).unwrap();
    let report = SimulationBuilder::new(platform, wf)
        .placement(PlacementPolicy::AllBb)
        .checkpoint(CheckpointPolicy::new(interval, CheckpointTier::Bb))
        .faults(spec)
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: 0.0,
        })
        .run()
        .unwrap();

    let retried = report.task_by_name("resample_0").unwrap();
    assert_eq!(retried.attempts, 2, "one kill, one re-execution");
    assert!(
        report.restores >= 1,
        "the retry must restore from the checkpoint image"
    );
    assert!(report.checkpoints > 0);
    assert_identity(&report);
}

const NODES: usize = 8;

fn campaign_config() -> CampaignConfig {
    CampaignConfig::new(presets::cori(NODES, BbMode::Striped))
        .with_policy(BatchPolicy::BbAware)
        .with_platform_label("cori:striped")
}

fn job(name: &str, submit: f64, nodes: usize, bb: f64, est: f64) -> JobSpec {
    let spec = "swarp:1:8";
    JobSpec::new(
        name,
        submit,
        spec,
        wfbb::sched::build_workflow(spec).unwrap(),
        nodes,
        bb,
        est,
    )
}

/// ISSUE acceptance: a BB stripe dying mid-campaign shrinks the
/// reservation pool — dead-capacity grants are clawed back, later
/// admissions see the smaller pool (an over-large arrival is rejected,
/// not stalled), and the decision log records the shrink.
#[test]
fn bb_stripe_death_shrinks_the_pool_mid_campaign() {
    let platform = presets::cori(NODES, BbMode::Striped);
    let per_device = platform.bb_capacity;
    let devices = 4; // cori striped stripes over 4 BB nodes
    let pool = devices as f64 * per_device;

    // "hog" holds 90% of the pool when device 0 dies at t=5: the free
    // 10% cannot absorb a 25% loss, so the shrink claws back part of
    // hog's grant. "late" arrives after the fault asking for more than
    // the surviving 3 devices can ever hold; "ok" fits comfortably.
    let jobs = vec![
        job("hog", 0.0, 2, 0.9 * pool, 3000.0),
        job("late", 50.0, 1, 0.8 * pool, 600.0),
        job("ok", 60.0, 1, 0.1 * pool, 600.0),
    ];
    let cfg = campaign_config()
        .with_faults(FaultSpec::parse("bb:0@5").unwrap())
        .with_decision_log(true);
    let run = run_campaign_logged(&cfg, &jobs).unwrap();
    let report = &run.report;

    // The pool permanently lost one device's capacity...
    assert_eq!(report.bb_pool_bytes, pool - per_device);
    // ...and conservation still holds at drain: everything granted came
    // back to the (smaller) pool.
    assert_eq!(report.bb_pool_free_end, report.bb_pool_bytes);

    // Blast radius: hog survives via failover, late is rejected against
    // the shrunk pool, ok runs.
    assert_eq!(report.jobs[0].status, JobStatus::Completed, "hog");
    assert_eq!(report.jobs[1].status, JobStatus::Rejected, "late");
    let detail = report.jobs[1].detail.as_deref().unwrap_or("");
    assert!(
        detail.contains("shrank"),
        "rejection must name the shrink: {detail}"
    );
    assert_eq!(report.jobs[2].status, JobStatus::Completed, "ok");

    // The decision log pins the ledger operation.
    let shrink = run
        .log
        .records()
        .iter()
        .find_map(|r| match r {
            DecisionRecord::PoolShrink {
                time,
                device,
                bytes,
                clawed,
                free_after,
            } => Some((*time, *device, *bytes, *clawed, *free_after)),
            _ => None,
        })
        .expect("the shrink must be logged");
    assert_eq!(shrink.0, 5.0);
    assert_eq!(shrink.1, 0);
    assert_eq!(shrink.2, per_device);
    assert!(
        shrink.3 > 0.0,
        "free capacity (10%) cannot absorb a 25% loss: grants must be clawed back"
    );
    assert!(shrink.4 >= 0.0);
    let jsonl = run.log.to_jsonl();
    assert!(jsonl.contains("\"op\":\"shrink\""), "{jsonl}");
    assert!(jsonl.contains("\"pool_shrinks\":1"), "{jsonl}");
}

/// Campaign fault schedules only accept capacity faults: a task kill is
/// rejected loudly, pointing at the per-job `kill=` alternative.
#[test]
fn campaign_task_kill_faults_are_rejected_loudly() {
    let jobs = vec![job("a", 0.0, 1, 1e9, 600.0)];
    let cfg = campaign_config().with_faults(FaultSpec::parse("task:resample_0@10").unwrap());
    let err = run_campaign(&cfg, &jobs).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("per-job"), "{msg}");
    assert!(msg.contains("kill=resample_0"), "{msg}");
}

/// A checkpointed, faulted campaign is bitwise-deterministic within a
/// solve mode, and the two solve modes agree on job completion times
/// within solver tolerance.
#[test]
fn checkpointed_faulted_campaign_is_deterministic() {
    let platform = presets::cori(NODES, BbMode::Striped);
    let pool = 4.0 * platform.bb_capacity;
    let mk_jobs = || -> Vec<JobSpec> {
        (0..4)
            .map(|i| {
                job(&format!("j{i}"), 10.0 * i as f64, 2, 0.2 * pool, 1200.0)
                    .with_checkpoint(CheckpointPolicy::new(5.0, CheckpointTier::Bb))
                    .with_kill("resample_0", 40.0)
            })
            .collect()
    };
    let cfg = |mode: SolveMode| {
        campaign_config()
            .with_solve_mode(mode)
            .with_faults(FaultSpec::parse("bb:1@30").unwrap())
    };
    let jobs = mk_jobs();
    let mut per_mode = Vec::new();
    for mode in [SolveMode::Incremental, SolveMode::Naive] {
        let t1 = run_campaign(&cfg(mode), &jobs).unwrap();
        let t2 = run_campaign(&cfg(mode), &jobs).unwrap();
        assert_eq!(
            t1.to_json(),
            t2.to_json(),
            "{mode:?}: a rerun changed campaign bytes"
        );
        assert!(t1
            .jobs
            .iter()
            .any(|j| j.report.as_ref().is_some_and(|r| r.checkpoints > 0)));
        per_mode.push(t1);
    }
    for (x, y) in per_mode[0].jobs.iter().zip(&per_mode[1].jobs) {
        assert!(
            (x.end - y.end).abs() < 1e-6,
            "{}: incremental end {} vs naive end {}",
            x.name,
            x.end,
            y.end
        );
    }
}
