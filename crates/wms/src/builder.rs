//! High-level simulation entry point.
//!
//! [`SimulationBuilder`] wires a platform, a workflow, and a placement
//! policy into an [`Executor`](crate::executor) and runs it:
//!
//! ```
//! use wfbb_platform::{presets, BbMode};
//! use wfbb_storage::PlacementPolicy;
//! use wfbb_wms::SimulationBuilder;
//! use wfbb_workflow::WorkflowBuilder;
//!
//! let mut b = WorkflowBuilder::new("tiny");
//! let input = b.add_file("in", 32e6);
//! let out = b.add_file("out", 8e6);
//! b.task("t").category("proc").flops(3.68e10).cores(4)
//!     .input(input).output(out).add();
//! let wf = b.build().unwrap();
//!
//! let report = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf)
//!     .placement(PlacementPolicy::AllBb)
//!     .run()
//!     .unwrap();
//! assert!(report.makespan.seconds() > 0.0);
//! ```

use wfbb_platform::{PlatformError, PlatformSpec};
use wfbb_resilience::CheckpointPolicy;
use wfbb_simcore::{Engine, EngineConfig, SolveMode, TelemetryConfig};
use wfbb_storage::{FailoverPolicy, PlacementPlan, PlacementPolicy, StorageSystem};
use wfbb_workflow::Workflow;

use crate::executor::{Executor, ExecutorError, SchedulerPolicy};
use crate::fault::{FaultEvent, FaultSpec, RetryPolicy};
use crate::report::SimulationReport;

/// Errors surfaced by [`SimulationBuilder::run`].
#[derive(Debug)]
pub enum SimulationError {
    /// The platform specification failed validation.
    Platform(PlatformError),
    /// Execution failed (scheduling deadlock or exhausted retries).
    Execution(ExecutorError),
    /// The fault specification does not fit this platform or workflow
    /// (unknown BB device, unknown task name, ...).
    InvalidFaults(String),
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::Platform(e) => write!(f, "{e}"),
            SimulationError::Execution(e) => write!(f, "{e}"),
            SimulationError::InvalidFaults(msg) => write!(f, "invalid fault spec: {msg}"),
        }
    }
}

impl std::error::Error for SimulationError {}

/// Configures and runs one simulated workflow execution.
pub struct SimulationBuilder {
    platform: PlatformSpec,
    workflow: Workflow,
    placement: PlacementPolicy,
    plan_override: Option<PlacementPlan>,
    io_concurrency: Option<usize>,
    scheduler: SchedulerPolicy,
    solve_mode: SolveMode,
    telemetry: TelemetryConfig,
    faults: FaultSpec,
    retry: RetryPolicy,
    failover: FailoverPolicy,
    checkpoint: Option<CheckpointPolicy>,
}

impl SimulationBuilder {
    /// Starts configuring a simulation of `workflow` on `platform`.
    ///
    /// Defaults: all files in the burst buffer
    /// ([`PlacementPolicy::AllBb`]), per-task I/O concurrency equal to the
    /// task's core count.
    pub fn new(platform: PlatformSpec, workflow: Workflow) -> Self {
        SimulationBuilder {
            platform,
            workflow,
            placement: PlacementPolicy::AllBb,
            plan_override: None,
            io_concurrency: None,
            scheduler: SchedulerPolicy::default(),
            solve_mode: SolveMode::default(),
            telemetry: TelemetryConfig::default(),
            faults: FaultSpec::new(),
            retry: RetryPolicy::default(),
            failover: FailoverPolicy::default(),
            checkpoint: None,
        }
    }

    /// Injects a fault schedule into the run (default: none). The spec
    /// is resolved against the platform when [`SimulationBuilder::run`]
    /// is called; see `docs/failure-model.md` for semantics. An empty
    /// spec leaves the simulation bitwise-identical to an uninjected
    /// one.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Sets the retry policy for kill faults (default: 3 attempts, no
    /// backoff).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the tier-failover policy applied after a BB device loss
    /// (default: [`FailoverPolicy::RerouteToPfs`]).
    pub fn failover(mut self, policy: FailoverPolicy) -> Self {
        self.failover = policy;
        self
    }

    /// Enables periodic checkpointing (default: off): each task's
    /// compute is cut into `policy.interval`-second segments with an
    /// image write to the target tier between them, and a killed task
    /// restores from its last image instead of re-running from the read
    /// phase. Checkpoint writes are ordinary scheduled I/O — they pay
    /// real contention and show up as the `checkpoint_io` decomposition
    /// term. See `docs/failure-model.md`.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sets the file placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Uses a pre-resolved placement plan (e.g. from a capacity-aware
    /// heuristic in `wfbb_storage::heuristics`) instead of a declarative
    /// policy. The plan must be index-aligned with this workflow's files.
    pub fn placement_plan(mut self, plan: PlacementPlan) -> Self {
        self.plan_override = Some(plan);
        self
    }

    /// Overrides the per-task I/O concurrency limit (default: the task's
    /// core count, the paper's "I/O parallelism scales with cores"
    /// assumption).
    pub fn io_concurrency(mut self, limit: usize) -> Self {
        self.io_concurrency = Some(limit);
        self
    }

    /// Sets the node-assignment policy (default:
    /// [`SchedulerPolicy::PipelineAffinity`]).
    pub fn scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Selects the engine's solve strategy (default:
    /// [`SolveMode::Incremental`]). The naive mode exists for A/B
    /// verification of the incremental engine.
    pub fn solve_mode(mut self, mode: SolveMode) -> Self {
        self.solve_mode = mode;
        self
    }

    /// Enables engine telemetry sampling for this run. The resulting
    /// [`SimulationReport::telemetry`](crate::report::SimulationReport::telemetry)
    /// carries per-resource time series, utilization histograms, and engine
    /// counters; the trace exporters in [`crate::traceexport`] include them
    /// in their output. Telemetry is off by default (zero sampling cost).
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Runs the simulation and returns the report.
    pub fn run(self) -> Result<SimulationReport, SimulationError> {
        self.platform
            .validate()
            .map_err(SimulationError::Platform)?;
        let mut engine = Engine::with_config(EngineConfig {
            solve_mode: self.solve_mode,
            telemetry: self.telemetry,
            ..EngineConfig::default()
        });
        let instance = self.platform.instantiate(&mut engine);
        let mut storage = StorageSystem::new(instance);
        storage.set_failover(self.failover);
        let fault_events = self
            .faults
            .resolve(storage.platform.bb_devices())
            .map_err(|e| SimulationError::InvalidFaults(e.message))?;
        for ev in &fault_events {
            if let FaultEvent::TaskKill { task, .. } = ev {
                if !self.workflow.tasks().iter().any(|t| t.name == *task) {
                    return Err(SimulationError::InvalidFaults(format!(
                        "kill targets unknown task {task:?}"
                    )));
                }
            }
        }
        let plan = match self.plan_override {
            Some(plan) => {
                assert_eq!(
                    plan.len(),
                    self.workflow.file_count(),
                    "placement plan must cover every workflow file"
                );
                plan
            }
            None => self.placement.plan(&self.workflow),
        };
        let mut executor = Executor::new(
            engine,
            storage,
            self.workflow,
            plan,
            self.io_concurrency,
            self.scheduler,
        );
        if let Some(policy) = self.checkpoint {
            executor.set_checkpoint_policy(policy);
        }
        if !fault_events.is_empty() {
            executor.set_fault_injection(fault_events, self.retry);
        }
        executor.run().map_err(SimulationError::Execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbb_platform::{presets, BbMode};
    use wfbb_storage::Tier;
    use wfbb_workflow::WorkflowBuilder;

    #[test]
    fn scheduler_labels_parse() {
        assert_eq!(
            SchedulerPolicy::parse("affinity"),
            Ok(SchedulerPolicy::PipelineAffinity)
        );
        assert_eq!(
            SchedulerPolicy::parse("least-loaded"),
            Ok(SchedulerPolicy::LeastLoaded)
        );
        assert_eq!(
            SchedulerPolicy::parse("round-robin"),
            Ok(SchedulerPolicy::RoundRobin)
        );
        assert!(SchedulerPolicy::parse("chaotic").is_err());
    }

    /// One SWarp-like pipeline: 2 inputs -> resample -> 2 mids -> combine
    /// -> 1 output.
    fn pipeline_workflow(cores: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("pipeline");
        let in0 = b.add_file("in0", 32e6);
        let in1 = b.add_file("in1", 16e6);
        let mid0 = b.add_file("mid0", 32e6);
        let mid1 = b.add_file("mid1", 16e6);
        let out = b.add_file("out", 50e6);
        b.task("resample")
            .category("resample")
            .flops(3.68e11)
            .cores(cores)
            .pipeline(0)
            .inputs([in0, in1])
            .outputs([mid0, mid1])
            .add();
        b.task("combine")
            .category("combine")
            .flops(3.68e11)
            .cores(cores)
            .pipeline(0)
            .inputs([mid0, mid1])
            .output(out)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn simple_pipeline_runs_on_all_three_architectures() {
        for platform in presets::paper_configs(1) {
            let report = SimulationBuilder::new(platform.clone(), pipeline_workflow(4))
                .placement(PlacementPolicy::AllBb)
                .run()
                .unwrap();
            assert!(
                report.makespan.seconds() > 0.0,
                "{}: zero makespan",
                platform.name
            );
            assert_eq!(report.tasks.len(), 2);
            let r = report.task_by_name("resample").unwrap();
            let c = report.task_by_name("combine").unwrap();
            assert!(c.start >= r.end, "combine starts after resample ends");
            assert!(report.stage_in_time > 0.0, "inputs were staged");
            assert!(report.bb_bytes > 0.0);
        }
    }

    #[test]
    fn all_pfs_never_touches_the_bb() {
        let report =
            SimulationBuilder::new(presets::cori(1, BbMode::Private), pipeline_workflow(4))
                .placement(PlacementPolicy::AllPfs)
                .run()
                .unwrap();
        assert_eq!(report.bb_bytes, 0.0);
        assert!(report.pfs_bytes > 0.0);
        assert_eq!(report.stage_in_time, 0.0, "nothing to stage");
    }

    #[test]
    fn bb_beats_pfs_on_cori() {
        let wf = pipeline_workflow(4);
        let bb = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf.clone())
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        let pfs = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf)
            .placement(PlacementPolicy::AllPfs)
            .run()
            .unwrap();
        // Even charging the stage-in, the BB's bandwidth advantage over the
        // 100 MB/s PFS should win for MB-scale files.
        assert!(
            bb.makespan < pfs.makespan,
            "BB {} !< PFS {}",
            bb.makespan,
            pfs.makespan
        );
    }

    #[test]
    fn summit_outperforms_cori_for_the_same_workflow() {
        let wf = pipeline_workflow(4);
        let cori = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf.clone())
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        let summit = SimulationBuilder::new(presets::summit(1), wf)
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        assert!(summit.makespan < cori.makespan);
        assert!(summit.stage_in_time < cori.stage_in_time);
    }

    #[test]
    fn striped_mode_is_slower_than_private_for_small_files() {
        let wf = pipeline_workflow(4);
        let private = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf.clone())
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        let striped = SimulationBuilder::new(presets::cori(1, BbMode::Striped), wf)
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        assert!(striped.makespan > private.makespan);
    }

    #[test]
    fn more_cores_never_hurt() {
        let p1 = SimulationBuilder::new(presets::summit(1), pipeline_workflow(1))
            .run()
            .unwrap();
        let p16 = SimulationBuilder::new(presets::summit(1), pipeline_workflow(16))
            .run()
            .unwrap();
        assert!(p16.makespan <= p1.makespan);
    }

    #[test]
    fn task_phases_are_ordered() {
        let report = SimulationBuilder::new(presets::summit(1), pipeline_workflow(2))
            .run()
            .unwrap();
        for t in &report.tasks {
            assert!(t.start <= t.read_end);
            assert!(t.read_end <= t.compute_end);
            assert!(t.compute_end <= t.end);
        }
    }

    #[test]
    fn fraction_zero_equals_all_pfs_inputs() {
        let wf = pipeline_workflow(2);
        let frac0 = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf.clone())
            .placement(PlacementPolicy::InputFraction {
                fraction: 0.0,
                intermediates: Tier::Pfs,
                outputs: Tier::Pfs,
            })
            .run()
            .unwrap();
        let all_pfs = SimulationBuilder::new(presets::cori(1, BbMode::Private), wf)
            .placement(PlacementPolicy::AllPfs)
            .run()
            .unwrap();
        assert!(
            (frac0.makespan.seconds() - all_pfs.makespan.seconds()).abs() < 1e-6,
            "{} vs {}",
            frac0.makespan,
            all_pfs.makespan
        );
    }

    #[test]
    fn engine_stall_surfaces_as_typed_error() {
        use wfbb_simcore::{EngineError, FlowSpec};
        use wfbb_storage::StorageSystem;
        use wfbb_workflow::TaskId;

        let platform = presets::summit(1);
        platform.validate().unwrap();
        let mut engine = Engine::new();
        let instance = platform.instantiate(&mut engine);
        // Poison the engine: a flow whose rate cap is below the solver
        // tolerance can never progress, so once everything else finishes
        // the engine stalls instead of completing.
        let route = vec![instance.pfs_disk];
        engine.spawn_flow(
            FlowSpec::new(1.0, route).with_rate_cap(1e-12),
            crate::executor::JobTag {
                job: 0,
                tag: crate::executor::Tag::Compute(TaskId::from_index(0)),
            },
        );
        let storage = StorageSystem::new(instance);
        let wf = pipeline_workflow(2);
        let plan = PlacementPolicy::AllBb.plan(&wf);
        let executor = Executor::new(engine, storage, wf, plan, None, SchedulerPolicy::default());
        let err = executor.run().unwrap_err();
        assert!(
            matches!(err, ExecutorError::Engine(EngineError::Stalled { .. })),
            "expected stall, got {err:?}"
        );
        assert!(err.to_string().contains("simulation stalled"));
    }

    #[test]
    fn solve_modes_agree_end_to_end() {
        use wfbb_simcore::SolveMode;
        let wf = pipeline_workflow(4);
        let run = |mode| {
            SimulationBuilder::new(presets::cori(1, BbMode::Private), wf.clone())
                .placement(PlacementPolicy::AllBb)
                .solve_mode(mode)
                .run()
                .unwrap()
        };
        let naive = run(SolveMode::Naive);
        let incr = run(SolveMode::Incremental);
        assert!(
            (naive.makespan.seconds() - incr.makespan.seconds()).abs() < 1e-9,
            "{} vs {}",
            naive.makespan,
            incr.makespan
        );
    }

    #[test]
    fn invalid_platform_is_reported() {
        let mut p = presets::summit(1);
        p.pfs_disk_bw = -5.0;
        let err = SimulationBuilder::new(p, pipeline_workflow(1)).run();
        assert!(matches!(err, Err(SimulationError::Platform(_))));
    }

    #[test]
    fn empty_workflow_completes_instantly() {
        let wf = WorkflowBuilder::new("empty").build().unwrap();
        let report = SimulationBuilder::new(presets::summit(1), wf)
            .run()
            .unwrap();
        assert_eq!(report.makespan.seconds(), 0.0);
        assert!(report.tasks.is_empty());
    }

    #[test]
    fn scheduler_policies_place_tasks_differently() {
        // Eight independent 1-core tasks, two nodes.
        let mut b = WorkflowBuilder::new("spread");
        for i in 0..8 {
            let f = b.add_file(format!("o{i}"), 1e6);
            b.task(format!("t{i}"))
                .category("w")
                .flops(1e11)
                .cores(1)
                .output(f)
                .add();
        }
        let wf = b.build().unwrap();
        let run = |policy| {
            SimulationBuilder::new(presets::summit(2), wf.clone())
                .scheduler(policy)
                .run()
                .unwrap()
        };
        let rr = run(SchedulerPolicy::RoundRobin);
        let nodes_rr: std::collections::HashSet<_> = rr.tasks.iter().map(|t| t.node).collect();
        assert_eq!(nodes_rr.len(), 2, "round robin uses both nodes");
        // Round robin alternates exactly.
        for t in &rr.tasks {
            assert_eq!(t.node, t.task.index() % 2);
        }
        let ll = run(SchedulerPolicy::LeastLoaded);
        let nodes_ll: std::collections::HashSet<_> = ll.tasks.iter().map(|t| t.node).collect();
        assert_eq!(nodes_ll.len(), 2, "least loaded balances across nodes");
    }

    #[test]
    fn least_loaded_ignores_pipeline_pinning() {
        // Two pipelines whose tags both map to node 0 under affinity.
        let mut b = WorkflowBuilder::new("pin");
        for p in [0usize, 2] {
            let f = b.add_file(format!("o{p}"), 1e6);
            b.task(format!("t{p}"))
                .category("w")
                .flops(1e12)
                .cores(32)
                .pipeline(p)
                .output(f)
                .add();
        }
        let wf = b.build().unwrap();
        let affinity = SimulationBuilder::new(presets::summit(2), wf.clone())
            .run()
            .unwrap();
        // pipeline 0 and 2 both mod 2 == 0: serialized on node 0.
        assert!(affinity.tasks.iter().all(|t| t.node == 0));
        let balanced = SimulationBuilder::new(presets::summit(2), wf)
            .scheduler(SchedulerPolicy::LeastLoaded)
            .run()
            .unwrap();
        let nodes: std::collections::HashSet<_> = balanced.tasks.iter().map(|t| t.node).collect();
        assert_eq!(nodes.len(), 2);
        assert!(
            balanced.makespan < affinity.makespan,
            "balancing helps here"
        );
    }

    #[test]
    fn explicit_placement_plan_overrides_policy() {
        use wfbb_storage::Tier;
        let wf = pipeline_workflow(4);
        // Plan: everything on PFS despite an AllBb policy.
        let plan = wfbb_storage::PlacementPlan::from_tiers(vec![Tier::Pfs; wf.file_count()]);
        let report = SimulationBuilder::new(presets::summit(1), wf)
            .placement(PlacementPolicy::AllBb)
            .placement_plan(plan)
            .run()
            .unwrap();
        assert_eq!(report.bb_bytes, 0.0);
    }

    #[test]
    #[should_panic(expected = "cover every workflow file")]
    fn misaligned_plan_is_rejected() {
        let wf = pipeline_workflow(4);
        let plan = wfbb_storage::PlacementPlan::from_tiers(vec![]);
        let _ = SimulationBuilder::new(presets::summit(1), wf)
            .placement_plan(plan)
            .run();
    }

    #[test]
    fn full_bb_spills_writes_to_the_pfs() {
        let mut platform = presets::summit(1);
        // Room for the staged inputs but nothing else.
        platform.bb_capacity = 50e6;
        let report = SimulationBuilder::new(platform, pipeline_workflow(4))
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        assert!(report.spilled_files > 0, "something must spill");
        assert!(report.pfs_bytes > 0.0, "spilled files travel via the PFS");
        assert!(
            report.bb_peak_bytes <= 50e6 + 1.0,
            "capacity respected: peak {}",
            report.bb_peak_bytes
        );
    }

    #[test]
    fn tiny_bb_capacity_still_completes_with_pfs_performance() {
        let mut tiny = presets::summit(1);
        tiny.bb_capacity = 1.0; // effectively no BB
        let wf = pipeline_workflow(4);
        let constrained = SimulationBuilder::new(tiny, wf.clone())
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        let all_pfs = SimulationBuilder::new(presets::summit(1), wf)
            .placement(PlacementPolicy::AllPfs)
            .run()
            .unwrap();
        // Everything spilled: performance degrades to the PFS baseline.
        assert!(
            (constrained.makespan.seconds() - all_pfs.makespan.seconds()).abs()
                < 0.05 * all_pfs.makespan.seconds(),
            "{} vs {}",
            constrained.makespan,
            all_pfs.makespan
        );
        assert_eq!(constrained.bb_bytes, 0.0);
    }

    #[test]
    fn ample_capacity_never_spills() {
        let report = SimulationBuilder::new(presets::summit(1), pipeline_workflow(4))
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap();
        assert_eq!(report.spilled_files, 0);
        assert!(report.bb_peak_bytes > 0.0);
    }

    #[test]
    fn independent_tasks_share_a_node_concurrently() {
        // Two 1-core tasks with no dependencies on one node: they overlap.
        let mut b = WorkflowBuilder::new("par");
        let o0 = b.add_file("o0", 1e6);
        let o1 = b.add_file("o1", 1e6);
        b.task("a")
            .category("work")
            .flops(4.912e10)
            .cores(1)
            .output(o0)
            .add();
        b.task("b")
            .category("work")
            .flops(4.912e10)
            .cores(1)
            .output(o1)
            .add();
        let wf = b.build().unwrap();
        let report = SimulationBuilder::new(presets::summit(1), wf)
            .run()
            .unwrap();
        let a = report.task_by_name("a").unwrap();
        let b_ = report.task_by_name("b").unwrap();
        assert!(
            a.start < b_.end && b_.start < a.end,
            "tasks overlap in time"
        );
    }
}
