//! The workflow executor state machine.
//!
//! [`Executor`] drives one workflow execution through a simulation
//! engine, event by event. The engine is held behind `Rc<RefCell<..>>`
//! so several executors can share it: a campaign driver (see the
//! `wfbb-sched` crate) runs many concurrent jobs on one engine, each
//! executor reacting only to completions tagged with its job id, while
//! single runs keep the classic one-executor-per-engine shape via
//! [`Executor::new`] + [`Executor::run`]:
//!
//! * the **stage-in phase** copies BB-assigned input files into the burst
//!   buffer one at a time (the paper's stage-in task is sequential); input
//!   files left on the PFS are registered there directly;
//! * each scheduled task walks `Reading → Computing → Writing`, with at
//!   most `cores` files in flight per task;
//! * completed writes register file locations so consumers read from the
//!   right tier; task completions release cores and unlock dependents.
//!
//! Every file movement — a stage-in copy, a task's read or write, a
//! checkpoint write or a restore read — is one `Access` with one
//! lifecycle: a metadata flow on the tier (if it charges one), then the
//! fair-shared data flows, then a completion step that depends on the
//! access's kind.
//!
//! Scheduling uses pipeline affinity: tasks tagged with a pipeline run on
//! node `pipeline mod nodes` (keeping SWarp pipelines node-local, as in the
//! paper's single-node experiments); untagged tasks go to the node with the
//! most free cores.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use wfbb_resilience::{CheckpointPolicy, CheckpointTier};
use wfbb_simcore::{ActivityId, Engine, EngineError, FaultPlan, FlowSpec, ResourceId, SimTime};
use wfbb_storage::system::AccessPlan;
use wfbb_storage::{FileRegistry, Location, PlacementPlan, StorageSystem, Tier};
use wfbb_workflow::{amdahl_time, FileId, TaskId, Workflow};

use crate::fault::{FaultEvent, RetryPolicy};
use crate::report::{
    CriticalStep, CriticalStepKind, FaultRecord, ResourceContention, SimulationReport, StageSpan,
    TaskRecord,
};

/// Node-assignment policy of the WMS scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Tasks tagged with a pipeline are pinned to node
    /// `pipeline mod nodes` (keeps SWarp pipelines node-local, matching
    /// the paper's experiments); untagged tasks go to the node with the
    /// most free cores.
    #[default]
    PipelineAffinity,
    /// Every task goes to the node with the most free cores, ignoring
    /// pipeline tags.
    LeastLoaded,
    /// Tasks are statically spread: node `task_id mod nodes`.
    RoundRobin,
}

impl SchedulerPolicy {
    /// Parses a scheduler label: `affinity`, `least-loaded` or
    /// `round-robin`.
    pub fn parse(label: &str) -> Result<SchedulerPolicy, String> {
        match label {
            "affinity" => Ok(SchedulerPolicy::PipelineAffinity),
            "least-loaded" => Ok(SchedulerPolicy::LeastLoaded),
            "round-robin" => Ok(SchedulerPolicy::RoundRobin),
            other => Err(format!(
                "unknown scheduler {other:?} (affinity | least-loaded | round-robin)"
            )),
        }
    }
}

/// Engine-activity tags: what each completion means to the executor.
///
/// Public only because [`Executor::new`] accepts a pre-built
/// `Engine<JobTag>`; treat it as an implementation detail.
#[derive(Debug, Clone, Copy)]
pub enum Tag {
    /// One metadata flow of an access (a stage-in copy, a task's file
    /// read or write, a checkpoint write or a restore read).
    Meta(AccessId),
    /// One data flow of an access.
    Data(AccessId),
    /// A task's compute phase (one segment when checkpointing splits it).
    Compute(TaskId),
    /// Sentinel delay ending exactly at fault event `k` of the resolved
    /// schedule (the engine applies the capacity change first, then
    /// delivers this completion so the executor can run recovery).
    Fault(u32),
    /// Backoff delay before re-running a killed task.
    Retry(TaskId),
    /// Driver-level sentinel (e.g. a job arrival in a campaign). Never
    /// produced by the executor; [`Executor::on_completion`] ignores it
    /// so drivers may share the tag space.
    External(u32),
}

impl Tag {
    /// The access an activity belongs to, or `None` for compute flows
    /// and sentinel/retry delays.
    fn access(self) -> Option<AccessId> {
        match self {
            Tag::Meta(id) | Tag::Data(id) => Some(id),
            Tag::Compute(_) | Tag::Fault(_) | Tag::Retry(_) | Tag::External(_) => None,
        }
    }
}

/// Opaque handle of an in-flight file access: a dense index into the
/// executor's access slab, reused once the access is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessId(u32);

/// An executor [`Tag`] namespaced by the job it belongs to. The shared
/// engine of a multi-job campaign is an `Engine<JobTag>`: the campaign
/// driver routes each completion to the executor whose `job` matches,
/// and single runs use job `0` throughout.
#[derive(Debug, Clone, Copy)]
pub struct JobTag {
    /// Owning job (always `0` for single runs).
    pub job: u32,
    /// The executor-level meaning of the completion.
    pub tag: Tag,
}

/// A fault-log record with nothing cancelled or lost; the bb-down and
/// task-kill paths fill in their losses.
fn fault_record(time: f64, kind: &str, target: String, description: String) -> FaultRecord {
    FaultRecord {
        time,
        kind: kind.into(),
        target,
        cancelled_flows: 0,
        lost_bytes: 0.0,
        lost_compute: 0.0,
        description,
    }
}

/// What an access moves and for whom. The kind decides how the location
/// is resolved, the flow labels, and what completion does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    /// The stage-in task copies input `file` into the BB.
    Stage(FileId),
    /// A task reads one of its inputs.
    Read(TaskId, FileId),
    /// A task writes one of its outputs.
    Write(TaskId, FileId),
    /// A task writes its checkpoint image.
    Checkpoint(TaskId),
    /// A retried task reads its checkpoint image back.
    Restore(TaskId),
}

impl AccessKind {
    /// The task driving the access (`None` for stage-in).
    fn task(self) -> Option<TaskId> {
        match self {
            AccessKind::Stage(_) => None,
            AccessKind::Read(t, _)
            | AccessKind::Write(t, _)
            | AccessKind::Checkpoint(t)
            | AccessKind::Restore(t) => Some(t),
        }
    }

    /// Whether the access reserved BB space at its location when it
    /// opened (reads and restores use space someone else reserved).
    fn reserves(self) -> bool {
        matches!(
            self,
            AccessKind::Stage(_) | AccessKind::Write(..) | AccessKind::Checkpoint(_)
        )
    }

    /// Deterministic processing order of interrupted accesses:
    /// `(task, file, is-write)`, stage-ins (no task) last. A task has at
    /// most one checkpoint access in flight, so those order by task.
    fn order_key(self) -> (u32, u32, bool) {
        match self {
            AccessKind::Stage(f) => (u32::MAX, f.index() as u32, false),
            AccessKind::Read(t, f) => (t.index() as u32, f.index() as u32, false),
            AccessKind::Write(t, f) => (t.index() as u32, f.index() as u32, true),
            AccessKind::Checkpoint(t) | AccessKind::Restore(t) => (t.index() as u32, 0, false),
        }
    }
}

/// One file movement in flight: a metadata phase on the tier, then
/// fair-shared data flows.
#[derive(Debug, Clone)]
struct Access {
    kind: AccessKind,
    /// Compute node driving the transfer.
    node: usize,
    /// Where the bytes go or come from, resolved when the access opened
    /// (so completion agrees with the capacity decision made then).
    loc: Location,
    bytes: f64,
    /// Metadata flows still in flight.
    meta: usize,
    /// Data flows still in flight.
    data: usize,
    /// When the access first opened. A copy restarted by a BB failure
    /// keeps its original start, so its span covers the wasted work.
    start: SimTime,
}

impl Access {
    fn new(kind: AccessKind, node: usize, loc: Location, bytes: f64, start: SimTime) -> Self {
        Access {
            kind,
            node,
            loc,
            bytes,
            meta: 0,
            data: 0,
            start,
        }
    }
}

/// Task lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Reading,
    Computing,
    /// Writing a periodic checkpoint image between compute segments.
    Checkpointing,
    /// Re-reading the last checkpoint image after a kill.
    Restoring,
    Writing,
    Done,
}

#[derive(Debug, Clone)]
struct TaskState {
    phase: Phase,
    node: usize,
    cores: usize,
    /// Files not yet accessed in the current phase.
    pending: VecDeque<FileId>,
    /// File access chains currently in flight.
    in_flight: usize,
    start: SimTime,
    read_end: SimTime,
    compute_end: SimTime,
    end: SimTime,
    /// Compute seconds finished in earlier segments of this attempt.
    compute_done: f64,
    /// Length of the in-flight compute segment, seconds.
    seg_len: f64,
    /// Whether the in-flight segment is the attempt's last.
    seg_final: bool,
    /// Wall-clock spent in `Checkpointing`/`Restoring` this attempt.
    ckpt_wall: f64,
    /// When the current checkpoint/restore phase began.
    ckpt_phase_start: SimTime,
}

/// Flow-level contention totals of one task phase: summed wall-clock and
/// uncontended ("ideal") flow durations, plus the serialized per-flow
/// wait, all in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseFlows {
    ideal: f64,
    actual: f64,
    wait: f64,
}

/// Contention accumulated by one task across its read/compute/write/
/// checkpoint phases (indices 0/1/2/3) and per binding resource.
#[derive(Debug, Clone, Default)]
struct TaskContention {
    phases: [PhaseFlows; 4],
    by_resource: Vec<(ResourceId, f64)>,
}

impl TaskState {
    fn new() -> Self {
        TaskState {
            phase: Phase::Waiting,
            node: 0,
            cores: 1,
            pending: VecDeque::new(),
            in_flight: 0,
            start: SimTime::ZERO,
            read_end: SimTime::ZERO,
            compute_end: SimTime::ZERO,
            end: SimTime::ZERO,
            compute_done: 0.0,
            seg_len: 0.0,
            seg_final: false,
            ckpt_wall: 0.0,
            ckpt_phase_start: SimTime::ZERO,
        }
    }
}

/// Errors surfaced by [`Executor::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutorError {
    /// The simulation ended with unexecuted tasks — a scheduling deadlock
    /// (should be impossible for valid inputs; reported rather than
    /// silently producing a truncated makespan).
    Deadlock {
        /// Tasks that never completed.
        unfinished: usize,
    },
    /// The engine could not make progress (e.g. a flow starved by a
    /// sub-tolerance rate cap on a malformed platform).
    Engine(EngineError),
    /// A kill fault hit a task that had already used every attempt its
    /// [`RetryPolicy`] allows.
    RetryExhausted {
        /// Name of the task that ran out of attempts.
        task: String,
        /// Attempts the task used before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::Deadlock { unfinished } => {
                write!(f, "execution deadlocked with {unfinished} unfinished tasks")
            }
            ExecutorError::Engine(e) => write!(f, "{e}"),
            ExecutorError::RetryExhausted { task, attempts } => {
                write!(f, "task {task} killed after exhausting {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

impl From<EngineError> for ExecutorError {
    fn from(e: EngineError) -> Self {
        ExecutorError::Engine(e)
    }
}

/// Drives one workflow execution through the engine.
pub struct Executor {
    engine: Rc<RefCell<Engine<JobTag>>>,
    /// Everything else; [`Executor::fork`] deep-copies it.
    s: State,
}

/// The executor's cloneable state: everything but the engine handle.
#[derive(Clone)]
struct State {
    /// Job id stamped on every activity this executor spawns (`0` for
    /// single runs).
    job: u32,
    /// Prefix applied to every activity label (empty for single runs;
    /// `"j<id>/"` in campaigns so shared-engine traces stay readable).
    label_prefix: String,
    storage: StorageSystem,
    workflow: Workflow,
    plan: PlacementPlan,
    registry: FileRegistry,
    states: Vec<TaskState>,
    deps_remaining: Vec<usize>,
    free_cores: Vec<usize>,
    ready: BTreeSet<TaskId>,
    /// In-flight accesses, indexed by [`AccessId`]; `None` marks a free
    /// slot.
    accesses: Vec<Option<Access>>,
    /// Free slots of `accesses`, reused last-freed first.
    free_access_ids: Vec<u32>,
    /// Inputs still to stage: file, staging node, and the start of an
    /// earlier copy a BB failure interrupted.
    stage_queue: VecDeque<(FileId, usize, Option<SimTime>)>,
    /// Completed per-file stage-in spans, in staging order.
    stage_spans: Vec<StageSpan>,
    /// Completed output-write (stage-out) spans, in completion order.
    output_spans: Vec<StageSpan>,
    /// Per-task contention accumulators (indexed by task).
    contention: Vec<TaskContention>,
    /// Contention wait suffered by stage-in flows, per binding resource.
    stage_waits: HashMap<ResourceId, f64>,
    staging_done: bool,
    stage_end: SimTime,
    completed: usize,
    io_concurrency: Option<usize>,
    scheduler: SchedulerPolicy,
    /// Bytes currently stored on each BB device.
    bb_used: Vec<f64>,
    /// Peak total BB occupancy observed, bytes.
    bb_peak: f64,
    /// Files that spilled to the PFS because their BB device was full.
    spilled: usize,
    /// Resolved fault schedule, sorted by time (empty without injection).
    faults: Vec<FaultEvent>,
    /// Retry policy for kill faults.
    retry: RetryPolicy,
    /// Engine activities currently in flight, for fault-time
    /// cancellation (sentinel/retry delays are not tracked).
    live: BTreeMap<ActivityId, Tag>,
    /// Completions already queued inside the engine for activities a
    /// fault cancelled; their delivery is skipped.
    discard: HashSet<ActivityId>,
    /// Execution attempts started per task.
    attempts: Vec<u32>,
    /// First attempt's start per task (`TaskState::start` tracks the
    /// current attempt; the gap between the two is the fault wait).
    first_start: Vec<SimTime>,
    /// Outputs written (registered) by each task's current attempt, so a
    /// kill releases exactly this attempt's BB reservations.
    written: Vec<Vec<FileId>>,
    /// Fault records for the report, in firing order.
    fault_log: Vec<FaultRecord>,
    /// Task re-executions triggered by kill faults.
    retries: u32,
    /// Checkpoint policy (`None` disables checkpointing entirely).
    checkpoint: Option<CheckpointPolicy>,
    /// Compute seconds protected by each task's live image.
    ckpt_progress: Vec<f64>,
    /// Location of each task's live checkpoint image (holds a BB
    /// reservation while `Some`).
    ckpt_location: Vec<Option<Location>>,
    /// Checkpoint images successfully written.
    checkpoints_taken: u32,
    /// Restores from a checkpoint image (retries that skipped the read
    /// phase).
    restores: u32,
    /// Total bytes of checkpoint images written.
    ckpt_bytes_total: f64,
}

impl Executor {
    /// Builds an executor from pre-instantiated parts. `engine` must be the
    /// engine `storage`'s platform was instantiated into.
    pub fn new(
        engine: Engine<JobTag>,
        storage: StorageSystem,
        workflow: Workflow,
        plan: PlacementPlan,
        io_concurrency: Option<usize>,
        scheduler: SchedulerPolicy,
    ) -> Self {
        let mut ex = Self::shared(
            Rc::new(RefCell::new(engine)),
            0,
            storage,
            workflow,
            plan,
            io_concurrency,
            scheduler,
        );
        // Single runs keep unprefixed labels (trace goldens predate the
        // campaign layer).
        ex.s.label_prefix = String::new();
        ex
    }

    /// Builds an executor for job `job` on a *shared* engine (multi-job
    /// campaigns). Activities are tagged `JobTag { job, .. }` and labels
    /// are prefixed `"j<job>/"` so shared-engine traces stay readable.
    /// `storage`'s platform view must reference resources that live in
    /// `engine`.
    #[allow(clippy::too_many_arguments)]
    pub fn shared(
        engine: Rc<RefCell<Engine<JobTag>>>,
        job: u32,
        storage: StorageSystem,
        workflow: Workflow,
        plan: PlacementPlan,
        io_concurrency: Option<usize>,
        scheduler: SchedulerPolicy,
    ) -> Self {
        let n = workflow.task_count();
        let nodes = storage.platform.nodes();
        let cores = storage.platform.spec.cores_per_node;
        let mut deps_remaining = vec![0usize; n];
        for t in workflow.tasks() {
            deps_remaining[t.id.index()] = workflow.dependencies(t.id).len();
        }
        let registry = FileRegistry::new(workflow.file_count());
        let bb_devices = storage.platform.bb_devices();
        Executor {
            engine,
            s: State {
                job,
                label_prefix: format!("j{job}/"),
                storage,
                workflow,
                plan,
                registry,
                states: (0..n).map(|_| TaskState::new()).collect(),
                deps_remaining,
                free_cores: vec![cores; nodes],
                ready: BTreeSet::new(),
                accesses: Vec::new(),
                free_access_ids: Vec::new(),
                stage_queue: VecDeque::new(),
                stage_spans: Vec::new(),
                output_spans: Vec::new(),
                contention: vec![TaskContention::default(); n],
                stage_waits: HashMap::new(),
                staging_done: false,
                stage_end: SimTime::ZERO,
                completed: 0,
                io_concurrency,
                scheduler,
                bb_used: vec![0.0; bb_devices],
                bb_peak: 0.0,
                spilled: 0,
                faults: Vec::new(),
                retry: RetryPolicy::default(),
                live: BTreeMap::new(),
                discard: HashSet::new(),
                attempts: vec![0; n],
                first_start: vec![SimTime::ZERO; n],
                written: vec![Vec::new(); n],
                fault_log: Vec::new(),
                retries: 0,
                checkpoint: None,
                ckpt_progress: vec![0.0; n],
                ckpt_location: vec![None; n],
                checkpoints_taken: 0,
                restores: 0,
                ckpt_bytes_total: 0.0,
            },
        }
    }

    /// Clones this executor against a forked engine, so the copy can be
    /// driven forward hypothetically without touching the original run.
    ///
    /// `engine` must be a fork of the engine this executor currently
    /// drives — activity ids and resource handles held by the executor's
    /// state are only meaningful against that engine's state. All task,
    /// stage, contention, reservation, and fault-recovery state is
    /// deep-copied; driving the fork and the original identically yields
    /// bitwise-identical results.
    pub fn fork(&self, engine: Rc<RefCell<Engine<JobTag>>>) -> Executor {
        Executor {
            engine,
            s: self.s.clone(),
        }
    }

    /// Installs a resolved fault schedule and the retry policy for kill
    /// faults. An empty schedule leaves the run bitwise-identical to one
    /// without fault injection.
    pub fn set_fault_injection(&mut self, events: Vec<FaultEvent>, retry: RetryPolicy) {
        self.s.faults = events;
        self.s.retry = retry;
    }

    /// Installs the checkpoint policy: each task's compute is cut into
    /// `policy.interval`-second segments with an image write to the
    /// target tier between them, and a killed task restores from its
    /// last image instead of starting over from the read phase. Without
    /// a policy (the default) runs are bitwise-identical to builds
    /// predating the checkpoint subsystem.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.s.checkpoint = Some(policy);
    }

    /// The BB devices a `size`-byte file at `location` occupies, with the
    /// bytes it holds on each (nothing for the PFS; one stripe's share
    /// per device for striped files).
    fn device_shares(location: &Location, size: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (devices, share): (&[usize], f64) = match location {
            Location::Pfs => (&[], 0.0),
            Location::SharedBb { bb_node: d } | Location::OnNodeBb { node: d } => {
                (std::slice::from_ref(d), size)
            }
            Location::StripedBb { stripe_nodes } => {
                (stripe_nodes, size / stripe_nodes.len() as f64)
            }
        };
        devices.iter().map(move |&d| (d, share))
    }

    /// Reserves `size` bytes at `location`, returning whether it fits.
    /// PFS capacity is unbounded; BB devices are bounded by
    /// `spec.bb_capacity` (striped files need space on every stripe).
    fn try_reserve(&mut self, location: &Location, size: f64) -> bool {
        let cap = self.s.storage.platform.spec.bb_capacity;
        let used = &mut self.s.bb_used;
        if !Self::device_shares(location, size).all(|(d, b)| used[d] + b <= cap) {
            return false;
        }
        for (d, b) in Self::device_shares(location, size) {
            used[d] += b;
        }
        let total: f64 = used.iter().sum();
        self.s.bb_peak = self.s.bb_peak.max(total);
        true
    }

    /// Returns previously reserved BB bytes (the inverse of
    /// [`Executor::try_reserve`]; a PFS location holds nothing).
    fn release_reservation(&mut self, location: &Location, size: f64) {
        for (d, b) in Self::device_shares(location, size) {
            self.s.bb_used[d] = (self.s.bb_used[d] - b).max(0.0);
        }
    }

    /// Where a `size`-byte file written by `node` to `tier` goes: its
    /// natural location if the space can be reserved there, else the PFS
    /// (counted as a spill).
    fn place(&mut self, tier: Tier, node: usize, size: f64) -> Location {
        let desired = self.s.storage.locate(tier, node, size);
        if self.try_reserve(&desired, size) {
            desired
        } else {
            self.s.spilled += 1;
            Location::Pfs
        }
    }

    /// Runs the workflow to completion and produces the report
    /// (single-run driver: this executor must be the engine's sole
    /// client).
    pub fn run(mut self) -> Result<SimulationReport, ExecutorError> {
        self.start();

        loop {
            let step = self.engine.borrow_mut().try_step()?;
            let Some(c) = step else { break };
            debug_assert_eq!(
                c.tag.job, self.s.job,
                "single-run engine only carries this executor's activities"
            );
            self.on_completion(c.id, c.tag.tag)?;
            if !self.s.faults.is_empty() && self.is_complete() {
                // All work done; don't sit out sentinel delays for
                // faults scheduled after the workflow finished. (Only
                // with injection: fault-free runs keep draining the
                // engine so stray activities still surface as stalls.)
                break;
            }
        }

        let tasks = self.s.workflow.task_count();
        if self.s.completed != tasks {
            return Err(ExecutorError::Deadlock {
                unfinished: tasks - self.s.completed,
            });
        }
        Ok(self.report())
    }

    /// Kicks the execution off: installs faults, registers/stages
    /// inputs, and spawns the first activities. Campaign drivers call
    /// this once per job at its start time, then feed completions via
    /// [`Executor::on_completion`].
    pub fn start(&mut self) {
        self.install_faults();
        self.prepare_staging();
        self.start_next_stage();
    }

    /// Reacts to one engine completion belonging to this executor's job
    /// (the campaign driver strips the [`JobTag`] wrapper and routes by
    /// job id). Safe to call with completions of cancelled activities —
    /// they are discarded, exactly as in the single-run loop.
    pub fn on_completion(&mut self, id: ActivityId, tag: Tag) -> Result<(), ExecutorError> {
        self.s.live.remove(&id);
        if self.s.discard.remove(&id) {
            // A fault cancelled this activity after its completion
            // was already queued; its access has been re-issued.
            return Ok(());
        }
        self.absorb_contention(id, tag);
        match tag {
            Tag::Meta(access) => self.on_meta_done(access),
            Tag::Data(access) => self.on_data_done(access),
            Tag::Compute(task) => self.on_compute_done(task),
            Tag::Fault(k) => self.on_fault(k)?,
            Tag::Retry(task) => self.on_retry(task),
            Tag::External(_) => {
                debug_assert!(false, "External tags are driver-level, not executor-level");
            }
        }
        Ok(())
    }

    /// Whether staging and every task have finished (the job is done and
    /// [`Executor::report`] is meaningful).
    pub fn is_complete(&self) -> bool {
        self.s.staging_done && self.s.completed == self.s.workflow.task_count()
    }

    /// The job id stamped on this executor's activities.
    pub fn job(&self) -> u32 {
        self.s.job
    }

    /// Cancels every in-flight activity of this executor. Campaign
    /// drivers call this when abandoning a failed job so its flows stop
    /// contending with the survivors (already-queued completions are
    /// marked for discard, as in fault recovery).
    pub fn abort(&mut self) {
        let ids: Vec<ActivityId> = self.s.live.keys().copied().collect();
        let _ = self.cancel_all(&ids);
    }

    /// Current simulated time.
    fn now(&self) -> SimTime {
        self.engine.borrow().now()
    }

    /// Translates the fault schedule into engine capacity events and one
    /// sentinel delay per event. The engine applies capacity changes
    /// *before* delivering same-time completions, so each sentinel wakes
    /// the executor with the failure already in effect. Degradation
    /// factors are relative to *nominal* capacity.
    fn install_faults(&mut self) {
        if self.s.faults.is_empty() {
            return;
        }
        let platform = &self.s.storage.platform;
        let mut plan = FaultPlan::new();
        let mut any_capacity = false;
        for ev in &self.s.faults {
            match *ev {
                FaultEvent::BbNodeDown { time, device } => {
                    for r in platform.bb_device_resources(device) {
                        plan.push_capacity(time, r, 0.0);
                        any_capacity = true;
                    }
                }
                FaultEvent::BbDegraded {
                    time,
                    device,
                    factor,
                } => {
                    for r in platform.bb_device_resources(device) {
                        let nominal = self.engine.borrow().resource(r).capacity;
                        plan.push_capacity(time, r, nominal * factor);
                        any_capacity = true;
                    }
                }
                FaultEvent::PfsDegraded { time, factor } => {
                    for r in [platform.pfs_link, platform.pfs_disk] {
                        let nominal = self.engine.borrow().resource(r).capacity;
                        plan.push_capacity(time, r, nominal * factor);
                        any_capacity = true;
                    }
                }
                FaultEvent::TaskKill { .. } => {}
            }
        }
        if any_capacity {
            // Capacity faults are engine-global (absolute times, shared
            // resources). Merge instead of replace so a driver-installed
            // plan (campaign-scope stripe deaths) survives; for single
            // runs the merge is into an empty plan — identical to a
            // plain install.
            self.engine.borrow_mut().merge_fault_plan(&plan);
        }
        for (k, ev) in self.s.faults.iter().enumerate() {
            self.engine.borrow_mut().spawn_delay_labeled(
                ev.time(),
                JobTag {
                    job: self.s.job,
                    tag: Tag::Fault(k as u32),
                },
                Some(format!(
                    "{}fault:{}:{}",
                    self.s.label_prefix,
                    ev.kind(),
                    ev.target()
                )),
            );
        }
    }

    /// Spawns a flow and tracks it for fault-time cancellation.
    fn spawn_tracked_flow(&mut self, spec: FlowSpec, tag: Tag, label: String) {
        let label = format!("{}{label}", self.s.label_prefix);
        let id = self.engine.borrow_mut().spawn_flow_labeled(
            spec,
            JobTag {
                job: self.s.job,
                tag,
            },
            Some(label),
        );
        self.s.live.insert(id, tag);
    }

    /// Folds a completed flow's [`wfbb_simcore::ContentionRecord`] into the
    /// accumulator of the task phase (or the stage-in phase) it belonged
    /// to. Instant flows carry no record and are skipped.
    fn absorb_contention(&mut self, id: ActivityId, tag: Tag) {
        let (ideal, actual, wait, blame) = {
            let engine = self.engine.borrow();
            let Some(rec) = engine.flow_contention(id) else {
                return;
            };
            // Per-resource share of the wait: lost work at each binding
            // resource, converted to seconds at the flow's uncontended
            // rate.
            let blame: Vec<(ResourceId, f64)> = rec
                .blame
                .iter()
                .map(|&(r, lost)| (r, lost / rec.uncontended_rate))
                .collect();
            (rec.ideal_duration(), rec.duration(), rec.wait, blame)
        };
        let (task, phase) = match tag {
            Tag::Meta(access) | Tag::Data(access) => match self.access(access).kind {
                AccessKind::Stage(_) => {
                    for (r, w) in blame {
                        *self.s.stage_waits.entry(r).or_insert(0.0) += w;
                    }
                    return;
                }
                AccessKind::Read(task, _) => (task, 0),
                AccessKind::Write(task, _) => (task, 2),
                AccessKind::Checkpoint(task) | AccessKind::Restore(task) => (task, 3),
            },
            Tag::Compute(task) => (task, 1),
            Tag::Fault(_) | Tag::Retry(_) | Tag::External(_) => return,
        };
        let acc = &mut self.s.contention[task.index()];
        acc.phases[phase].ideal += ideal;
        acc.phases[phase].actual += actual;
        acc.phases[phase].wait += wait;
        for (r, w) in blame {
            match acc.by_resource.iter_mut().find(|(res, _)| *res == r) {
                Some((_, total)) => *total += w,
                None => acc.by_resource.push((r, w)),
            }
        }
    }

    // ---- the access lifecycle ---------------------------------------

    fn access(&self, id: AccessId) -> &Access {
        self.s.accesses[id.0 as usize]
            .as_ref()
            .expect("access is in flight")
    }

    fn access_mut(&mut self, id: AccessId) -> &mut Access {
        self.s.accesses[id.0 as usize]
            .as_mut()
            .expect("access is in flight")
    }

    /// Removes a finished or abandoned access, freeing its slot.
    fn take_access(&mut self, id: AccessId) -> Access {
        let acc = self.s.accesses[id.0 as usize]
            .take()
            .expect("access is in flight");
        self.s.free_access_ids.push(id.0);
        acc
    }

    /// The flows of `acc` as the storage layer prices them.
    fn plan_flows(&self, acc: &Access) -> AccessPlan {
        let storage = &self.s.storage;
        match acc.kind {
            AccessKind::Stage(_) => storage.stage_in_flows(acc.bytes, &acc.loc, acc.node),
            AccessKind::Read(..) | AccessKind::Restore(_) => {
                storage.read_flows(acc.bytes, &acc.loc, acc.node)
            }
            AccessKind::Write(..) | AccessKind::Checkpoint(_) => {
                storage.write_flows(acc.bytes, &acc.loc, acc.node)
            }
        }
    }

    /// Activity label of an access's metadata or data flows, e.g.
    /// `stage-meta:<file>`, `write:<task>:<file>` or `ckpt:<task>`.
    fn access_label(&self, kind: AccessKind, meta: bool) -> String {
        let wf = &self.s.workflow;
        let (verb, subject) = match kind {
            AccessKind::Stage(f) => ("stage", wf.file(f).name.clone()),
            AccessKind::Read(t, f) => ("read", format!("{}:{}", wf.task(t).name, wf.file(f).name)),
            AccessKind::Write(t, f) => {
                ("write", format!("{}:{}", wf.task(t).name, wf.file(f).name))
            }
            AccessKind::Checkpoint(t) => ("ckpt", wf.task(t).name.clone()),
            AccessKind::Restore(t) => ("restore", wf.task(t).name.clone()),
        };
        format!("{verb}{}:{subject}", if meta { "-meta" } else { "" })
    }

    /// Opens an access: records it and spawns its metadata flows, or its
    /// data flows when the tier charges no metadata.
    fn open_access(&mut self, acc: Access, plan: AccessPlan) {
        let kind = acc.kind;
        let id = match self.s.free_access_ids.pop() {
            Some(slot) => {
                self.s.accesses[slot as usize] = Some(acc);
                AccessId(slot)
            }
            None => {
                self.s.accesses.push(Some(acc));
                AccessId(self.s.accesses.len() as u32 - 1)
            }
        };
        if plan.metadata.is_empty() {
            self.spawn_data(id, plan.data);
            return;
        }
        self.access_mut(id).meta = plan.metadata.len();
        let label = self.access_label(kind, true);
        for flow in plan.metadata {
            self.spawn_tracked_flow(flow, Tag::Meta(id), label.clone());
        }
    }

    /// Spawns the data flows of access `id`, completing it at once when
    /// there is nothing to move. Task-level I/O is driven by the task's
    /// threads: a p-core task moves at most p × io_core_bw, split across
    /// the access's flows (the paper's linear-in-cores I/O assumption).
    /// The stage-in task is not bound by it.
    fn spawn_data(&mut self, id: AccessId, mut data: Vec<FlowSpec>) {
        if data.is_empty() {
            // Zero-cost access (e.g. zero-byte file): complete immediately.
            self.complete_access(id);
            return;
        }
        let kind = self.access(id).kind;
        if let Some(task) = kind.task() {
            let cores = self.s.states[task.index()].cores as f64;
            let per_flow_cap = cores * self.s.storage.platform.spec.io_core_bw / data.len() as f64;
            for flow in &mut data {
                flow.rate_cap = Some(match flow.rate_cap {
                    Some(cap) => cap.min(per_flow_cap),
                    None => per_flow_cap,
                });
            }
        }
        self.access_mut(id).data = data.len();
        let label = self.access_label(kind, false);
        for flow in data {
            self.spawn_tracked_flow(flow, Tag::Data(id), label.clone());
        }
    }

    /// One metadata flow of access `id` finished; once all have, its data
    /// flows start.
    fn on_meta_done(&mut self, id: AccessId) {
        let acc = self.access_mut(id);
        acc.meta -= 1;
        if acc.meta > 0 {
            return;
        }
        if self.s.storage.location_is_dead(&self.access(id).loc) {
            // The location died exactly when the metadata phase finished
            // (the flows escaped cancellation by completing at the fault
            // instant): handle it like any access the fault interrupted.
            self.interrupt_access(id);
            return;
        }
        let plan = self.plan_flows(self.access(id));
        self.spawn_data(id, plan.data);
    }

    fn on_data_done(&mut self, id: AccessId) {
        let acc = self.access_mut(id);
        acc.data -= 1;
        if acc.data == 0 {
            self.complete_access(id);
        }
    }

    /// Where a finished copy's bytes ended up: its destination, or — when
    /// the destination died at the very instant the copy finished — the
    /// PFS master copy, with the dead reservation returned.
    fn landing(&mut self, loc: Location, size: f64) -> Location {
        if self.s.storage.location_is_dead(&loc) {
            self.release_reservation(&loc, size);
            Location::Pfs
        } else {
            loc
        }
    }

    /// All flows of access `id` finished; what that means depends on its
    /// kind.
    fn complete_access(&mut self, id: AccessId) {
        let acc = self.take_access(id);
        match acc.kind {
            AccessKind::Stage(file) => {
                let landed = self.landing(acc.loc, acc.bytes);
                let span = self.span(file, acc.start, &landed);
                self.s.stage_spans.push(span);
                self.s.registry.set(file, landed);
                self.start_next_stage();
            }
            AccessKind::Read(task, _) => {
                self.s.states[task.index()].in_flight -= 1;
                self.pump_accesses(task, false);
            }
            AccessKind::Write(task, file) => {
                let landed = self.landing(acc.loc, acc.bytes);
                let span = self.span(file, acc.start, &landed);
                self.s.output_spans.push(span);
                self.s.registry.set(file, landed);
                self.s.written[task.index()].push(file);
                self.s.states[task.index()].in_flight -= 1;
                self.pump_accesses(task, true);
            }
            AccessKind::Checkpoint(task) => {
                if self.s.storage.location_is_dead(&acc.loc) {
                    // Completed at the very fault instant on a dead
                    // device: the image is lost, no rollback point.
                    self.release_reservation(&acc.loc, acc.bytes);
                } else {
                    // The new image supersedes the previous one.
                    if let Some(prev) = self.s.ckpt_location[task.index()].take() {
                        self.release_reservation(&prev, acc.bytes);
                    }
                    self.s.ckpt_progress[task.index()] = self.s.states[task.index()].compute_done;
                    self.s.ckpt_location[task.index()] = Some(acc.loc);
                    self.s.checkpoints_taken += 1;
                    self.s.ckpt_bytes_total += acc.bytes;
                }
                self.resume_compute(task);
            }
            AccessKind::Restore(task) => {
                if self.s.storage.location_is_dead(&acc.loc) {
                    // The image died as the restore finished: nothing
                    // usable was read, restart from scratch.
                    self.restore_failed(task);
                } else {
                    self.resume_compute(task);
                }
            }
        }
    }

    /// Abandons access `id` because its location died, returning any BB
    /// space it reserved. A stage-in or task file access starts again
    /// against the post-failure state (the failover policy decides
    /// where); a checkpoint write is skipped and compute resumes; a
    /// restore falls back to a full restart of the attempt.
    fn interrupt_access(&mut self, id: AccessId) {
        let acc = self.take_access(id);
        if acc.kind.reserves() {
            self.release_reservation(&acc.loc, acc.bytes);
        }
        match acc.kind {
            AccessKind::Stage(file) => {
                self.s
                    .stage_queue
                    .push_front((file, acc.node, Some(acc.start)));
                self.start_next_stage();
            }
            AccessKind::Read(task, file) => self.start_access(task, file, false, acc.start),
            AccessKind::Write(task, file) => self.start_access(task, file, true, acc.start),
            AccessKind::Checkpoint(task) => self.resume_compute(task),
            AccessKind::Restore(task) => self.restore_failed(task),
        }
    }

    /// The span of `file`'s copy from `start` until now, landed at `loc`.
    fn span(&self, file: FileId, start: SimTime, loc: &Location) -> StageSpan {
        StageSpan {
            file: self.s.workflow.file(file).name.clone(),
            start,
            end: self.now(),
            location: Self::location_label(loc),
        }
    }

    /// Human-readable destination label for a staged file, as documented
    /// in `docs/trace-format.md`.
    fn location_label(loc: &Location) -> String {
        match loc {
            Location::Pfs => "pfs".to_string(),
            Location::SharedBb { bb_node } => format!("bb:{bb_node}"),
            Location::StripedBb { stripe_nodes } => {
                format!("bb:striped:{}", stripe_nodes.len())
            }
            Location::OnNodeBb { node } => format!("bb:node{node}"),
        }
    }

    // ---- staging ----------------------------------------------------

    /// Registers PFS-resident inputs and queues BB-assigned inputs for
    /// sequential staging, distributing them round-robin across nodes (on
    /// shared BBs the namespaces coincide; on on-node BBs this spreads
    /// data like a data-local placement would).
    fn prepare_staging(&mut self) {
        let nodes = self.s.storage.platform.nodes();
        let mut staged_idx = 0usize;
        for f in self.s.workflow.input_files() {
            match self.s.plan.tier(f) {
                Tier::Pfs => self.s.registry.set(f, Location::Pfs),
                Tier::BurstBuffer => {
                    self.s.stage_queue.push_back((f, staged_idx % nodes, None));
                    staged_idx += 1;
                }
            }
        }
    }

    /// Opens the next queued stage-in copy; once the queue drains,
    /// staging is done and tasks become schedulable.
    fn start_next_stage(&mut self) {
        while let Some((file, node, start)) = self.s.stage_queue.pop_front() {
            let size = self.s.workflow.file(file).size;
            let loc = self.s.storage.locate(Tier::BurstBuffer, node, size);
            if !self.try_reserve(&loc, size) {
                // BB full: the input stays on the PFS (spilled).
                self.s.spilled += 1;
                self.s.registry.set(file, Location::Pfs);
                continue;
            }
            let start = start.unwrap_or_else(|| self.now());
            let acc = Access::new(AccessKind::Stage(file), node, loc, size, start);
            let plan = self.plan_flows(&acc);
            if plan.data.is_empty() {
                // Degenerate: nothing to move (no BB on this platform) —
                // the file effectively stays on the PFS.
                let span = self.span(file, start, &acc.loc);
                self.s.stage_spans.push(span);
                self.s.registry.set(file, acc.loc);
                continue;
            }
            self.open_access(acc, plan);
            return;
        }
        self.finish_staging();
    }

    fn finish_staging(&mut self) {
        debug_assert!(!self.s.staging_done, "staging finishes once");
        self.s.staging_done = true;
        self.s.stage_end = self.now();
        for t in self.s.workflow.tasks() {
            if self.s.deps_remaining[t.id.index()] == 0 {
                self.s.ready.insert(t.id);
            }
        }
        self.try_schedule();
    }

    // ---- scheduling -------------------------------------------------

    /// Node a task must run on, or `None` for "any node".
    fn pinned_node(&self, task: TaskId) -> Option<usize> {
        let nodes = self.s.storage.platform.nodes();
        match self.s.scheduler {
            SchedulerPolicy::PipelineAffinity => {
                self.s.workflow.task(task).pipeline.map(|p| p % nodes)
            }
            SchedulerPolicy::LeastLoaded => None,
            SchedulerPolicy::RoundRobin => Some(task.index() % nodes),
        }
    }

    fn try_schedule(&mut self) {
        let candidates: Vec<TaskId> = self.s.ready.iter().copied().collect();
        for task in candidates {
            let t = self.s.workflow.task(task);
            let cores = t.cores.min(self.s.storage.platform.spec.cores_per_node);
            let node = match self.pinned_node(task) {
                Some(n) => {
                    if self.s.free_cores[n] < cores {
                        continue;
                    }
                    n
                }
                None => {
                    // Most free cores; ties to the lowest index.
                    let Some((n, &free)) = self
                        .s
                        .free_cores
                        .iter()
                        .enumerate()
                        .max_by_key(|&(i, &f)| (f, std::cmp::Reverse(i)))
                    else {
                        continue;
                    };
                    if free < cores {
                        continue;
                    }
                    n
                }
            };
            self.s.ready.remove(&task);
            self.s.free_cores[node] -= cores;
            self.start_task(task, node, cores);
        }
    }

    fn start_task(&mut self, task: TaskId, node: usize, cores: usize) {
        let now = self.now();
        self.s.attempts[task.index()] += 1;
        if self.s.attempts[task.index()] == 1 {
            self.s.first_start[task.index()] = now;
        }
        self.s.written[task.index()].clear();
        let st = &mut self.s.states[task.index()];
        st.node = node;
        st.cores = cores;
        st.start = now;
        self.read_inputs(task);
    }

    /// (Re)starts the current attempt from its read phase.
    fn read_inputs(&mut self, task: TaskId) {
        let inputs: VecDeque<FileId> = self.s.workflow.task(task).inputs.iter().copied().collect();
        let st = &mut self.s.states[task.index()];
        st.phase = Phase::Reading;
        st.pending = inputs;
        st.in_flight = 0;
        st.compute_done = 0.0;
        st.ckpt_wall = 0.0;
        self.pump_accesses(task, false);
    }

    /// Starts queued file accesses for `task` up to its I/O concurrency
    /// limit, then fires the phase transition if the phase has drained.
    fn pump_accesses(&mut self, task: TaskId, write: bool) {
        let limit = self
            .s
            .io_concurrency
            .unwrap_or(self.s.states[task.index()].cores)
            .max(1);
        loop {
            let st = &mut self.s.states[task.index()];
            if st.in_flight >= limit {
                return;
            }
            let Some(file) = st.pending.pop_front() else {
                break;
            };
            st.in_flight += 1;
            let now = self.now();
            self.start_access(task, file, write, now);
        }
        if self.s.states[task.index()].in_flight == 0 {
            self.phase_done(task);
        }
    }

    /// Opens `task`'s read or write of `file`. Reads come from the
    /// registry; writes go where the placement plan dictates, spilling
    /// to the PFS when the target BB device is full.
    fn start_access(&mut self, task: TaskId, file: FileId, write: bool, start: SimTime) {
        let node = self.s.states[task.index()].node;
        let size = self.s.workflow.file(file).size;
        let (kind, loc) = if write {
            let tier = self.s.plan.tier(file);
            (AccessKind::Write(task, file), self.place(tier, node, size))
        } else {
            let loc = self.s.registry.require(file).clone();
            (AccessKind::Read(task, file), loc)
        };
        let acc = Access::new(kind, node, loc, size, start);
        let plan = self.plan_flows(&acc);
        self.open_access(acc, plan);
    }

    /// Current phase drained (no pending, no in-flight): advance the task.
    fn phase_done(&mut self, task: TaskId) {
        let now = self.now();
        let st = &mut self.s.states[task.index()];
        match st.phase {
            Phase::Reading => {
                st.read_end = now;
                st.phase = Phase::Computing;
                self.spawn_compute(task);
            }
            Phase::Writing => {
                st.end = now;
                st.phase = Phase::Done;
                self.finish_task(task);
            }
            other => unreachable!("phase_done in phase {other:?}"),
        }
    }

    /// Spawns the task's (next) compute segment. Without a checkpoint
    /// policy the whole compute phase is one flow, exactly as before;
    /// with one, compute is cut into `policy.interval`-second segments
    /// with a checkpoint write between consecutive segments.
    fn spawn_compute(&mut self, task: TaskId) {
        let (flops, alpha, name) = {
            let t = self.s.workflow.task(task);
            (t.flops, t.alpha, t.name.clone())
        };
        let speed = self.s.storage.platform.spec.gflops_per_core * 1e9;
        let seq_seconds = flops / speed;
        let (cores, node, compute_done) = {
            let st = &self.s.states[task.index()];
            (st.cores, st.node, st.compute_done)
        };
        let total = amdahl_time(seq_seconds, cores, alpha);
        // `x - 0.0` is bitwise `x`, so the checkpoint-free path (and the
        // first segment) computes the exact duration it always did.
        let remaining = total - compute_done;
        let interval = match self.s.checkpoint {
            Some(p) if self.ckpt_bytes(task) > 0.0 => Some(p.interval),
            _ => None,
        };
        let (chunk, last) = match interval {
            // Strictly more than one interval of compute left: run one
            // interval, then checkpoint. The epsilon absorbs float noise
            // so an exact multiple doesn't spawn a zero-length tail.
            Some(iv) if remaining > iv * (1.0 + 1e-9) => (iv, false),
            _ => (remaining, true),
        };
        {
            let st = &mut self.s.states[task.index()];
            st.seg_len = chunk;
            st.seg_final = last;
        }
        let core_seconds = chunk * cores as f64;
        let label = format!("compute:{name}");
        if core_seconds <= 0.0 {
            self.spawn_tracked_flow(FlowSpec::new(0.0, vec![]), Tag::Compute(task), label);
        } else {
            let cpu = self.s.storage.platform.node_cpu[node];
            self.spawn_tracked_flow(
                FlowSpec::new(core_seconds, vec![cpu]).with_rate_cap(cores as f64),
                Tag::Compute(task),
                label,
            );
        }
    }

    fn on_compute_done(&mut self, task: TaskId) {
        let now = self.now();
        if !self.s.states[task.index()].seg_final {
            // One interval of compute finished; write a checkpoint
            // before starting the next segment.
            let st = &mut self.s.states[task.index()];
            st.compute_done += st.seg_len;
            st.phase = Phase::Checkpointing;
            st.ckpt_phase_start = now;
            self.start_checkpoint_write(task);
            return;
        }
        let outputs: VecDeque<FileId> =
            self.s.workflow.task(task).outputs.iter().copied().collect();
        {
            let st = &mut self.s.states[task.index()];
            st.compute_end = now;
            st.phase = Phase::Writing;
            st.pending = outputs;
            st.in_flight = 0;
        }
        self.pump_accesses(task, true);
    }

    fn finish_task(&mut self, task: TaskId) {
        // The task is done: its checkpoint image (if any) is garbage.
        if let Some(loc) = self.s.ckpt_location[task.index()].take() {
            self.release_reservation(&loc, self.ckpt_bytes(task));
        }
        self.s.completed += 1;
        let (node, cores) = {
            let st = &self.s.states[task.index()];
            (st.node, st.cores)
        };
        self.s.free_cores[node] += cores;
        for dep in self.s.workflow.dependents(task) {
            self.s.deps_remaining[dep.index()] -= 1;
            if self.s.deps_remaining[dep.index()] == 0 {
                self.s.ready.insert(dep);
            }
        }
        self.try_schedule();
    }

    // ---- fault recovery ---------------------------------------------

    /// Runs recovery for fault event `k`. The engine has already applied
    /// the capacity change (it processes faults before delivering
    /// same-time completions), so this only does the WMS-level part:
    /// cancellation, failover, retry, and bookkeeping.
    fn on_fault(&mut self, k: u32) -> Result<(), ExecutorError> {
        match self.s.faults[k as usize].clone() {
            FaultEvent::BbNodeDown { time, device } => self.recover_bb_down(device, time),
            FaultEvent::BbDegraded {
                time,
                device,
                factor,
            } => {
                self.s.fault_log.push(fault_record(
                    time,
                    "bb-degraded",
                    format!("bb:{device}"),
                    format!(
                        "BB device {device} degraded to {:.0}% of nominal capacity",
                        factor * 100.0
                    ),
                ));
            }
            FaultEvent::PfsDegraded { time, factor } => {
                self.s.fault_log.push(fault_record(
                    time,
                    "pfs-degraded",
                    "pfs".into(),
                    format!("PFS degraded to {:.0}% of nominal capacity", factor * 100.0),
                ));
            }
            FaultEvent::TaskKill { time, task } => return self.kill_task_by_name(&task, time),
        }
        Ok(())
    }

    /// The task an activity works for, or `None` for staging and
    /// sentinel/retry delays.
    fn tag_task(&self, tag: Tag) -> Option<TaskId> {
        match tag {
            Tag::Meta(id) | Tag::Data(id) => self.access(id).kind.task(),
            Tag::Compute(task) => Some(task),
            Tag::Fault(_) | Tag::Retry(_) | Tag::External(_) => None,
        }
    }

    /// Cancels the given activities, returning `(count, lost transfer
    /// bytes, lost compute core-seconds)`. An activity whose completion
    /// is already queued inside the engine (it finished at the very
    /// fault instant) is marked for discard instead.
    fn cancel_all(&mut self, ids: &[ActivityId]) -> (usize, f64, f64) {
        let (mut n, mut bytes, mut compute) = (0usize, 0.0f64, 0.0f64);
        for &id in ids {
            let Some(tag) = self.s.live.remove(&id) else {
                continue;
            };
            match self.engine.borrow_mut().cancel_activity(id) {
                Some(c) => {
                    n += 1;
                    match tag {
                        Tag::Compute(_) => compute += c.work_done,
                        Tag::Data(_) => bytes += c.work_done,
                        _ => {}
                    }
                }
                None => {
                    self.s.discard.insert(id);
                }
            }
        }
        (n, bytes, compute)
    }

    /// Cancels every in-flight flow of the given accesses, in activity
    /// order (see [`Executor::cancel_all`]).
    fn cancel_accesses(&mut self, accesses: &[AccessId]) -> (usize, f64, f64) {
        let ids: Vec<ActivityId> = self
            .s
            .live
            .iter()
            .filter(|(_, tag)| tag.access().is_some_and(|a| accesses.contains(&a)))
            .map(|(&id, _)| id)
            .collect();
        self.cancel_all(&ids)
    }

    /// Campaign-driver entry for a BB-device failure: runs the same
    /// recovery as a schedule-installed `bb:<i>@t` event. Campaign-scope
    /// stripe deaths live in the driver's own fault plan, not in this
    /// executor's schedule, so the driver calls this on every running
    /// job when the stripe dies; the engine must already have zeroed the
    /// device's capacity at `time`.
    pub fn bb_node_down(&mut self, device: usize, time: f64) {
        self.recover_bb_down(device, time);
    }

    /// BB device `device` died: cancel transfers crossing it, re-source
    /// its files from the PFS master copies, and re-issue the
    /// interrupted accesses under the failover policy.
    fn recover_bb_down(&mut self, device: usize, time: f64) {
        self.s.storage.mark_bb_dead(device);

        // Accesses with at least one in-flight flow crossing the device,
        // in (task, file, is-write) order with stage-ins last.
        let mut victims: BTreeSet<ActivityId> = BTreeSet::new();
        for r in self.s.storage.platform.bb_device_resources(device) {
            victims.extend(self.engine.borrow().flows_through(r));
        }
        let mut hit: Vec<AccessId> = victims
            .iter()
            .filter_map(|id| self.s.live.get(id).and_then(|tag| tag.access()))
            .collect();
        hit.sort_unstable_by_key(|&a| self.access(a).kind.order_key());
        hit.dedup();
        let (ckpt, files): (Vec<AccessId>, Vec<AccessId>) = hit.into_iter().partition(|&a| {
            matches!(
                self.access(a).kind,
                AccessKind::Checkpoint(_) | AccessKind::Restore(_)
            )
        });

        // Cancel every flow of each affected file access — healthy stripes
        // of a partially-dead striped transfer included; the copy restarts.
        let (mut cancelled, mut lost_bytes, _) = self.cancel_accesses(&files);

        // Files whose registered location died are re-sourced from their
        // PFS master copies (DataWarp-style drain); free their BB space.
        let mut lost_files = 0usize;
        for f in (0..self.s.workflow.file_count()).map(FileId::from_index) {
            let Some(loc) = self.s.registry.get(f) else {
                continue;
            };
            if self.s.storage.location_is_dead(loc) {
                let loc = loc.clone();
                self.release_reservation(&loc, self.s.workflow.file(f).size);
                self.s.registry.set(f, Location::Pfs);
                lost_files += 1;
            }
        }

        // Checkpoint images on the dead device are lost: release their
        // space and drop the rollback points (affected tasks fall back
        // to a full restart on their next retry).
        for t in (0..self.s.workflow.task_count()).map(TaskId::from_index) {
            let Some(loc) = self.s.ckpt_location[t.index()].clone() else {
                continue;
            };
            if self.s.storage.location_is_dead(&loc) {
                self.release_reservation(&loc, self.ckpt_bytes(t));
                self.s.ckpt_location[t.index()] = None;
                self.s.ckpt_progress[t.index()] = 0.0;
            }
        }

        // Interrupted checkpoint writes / restore reads, one task at a
        // time: cancel every flow of the access and resolve the torn
        // phase — a write skips its checkpoint and resumes compute, a
        // restore restarts the attempt from scratch.
        for a in ckpt {
            let (n, b, _) = self.cancel_accesses(&[a]);
            cancelled += n;
            lost_bytes += b;
            self.interrupt_access(a);
        }

        // Re-issue the interrupted file accesses against the post-failure
        // state: reads re-resolve via the registry, writes and stage-in
        // re-place under the failover policy.
        for a in files {
            self.interrupt_access(a);
        }

        self.s.fault_log.push(FaultRecord {
            cancelled_flows: cancelled,
            lost_bytes,
            ..fault_record(
                time,
                "bb-down",
                format!("bb:{device}"),
                format!("BB device {device} lost; {lost_files} file(s) re-sourced from the PFS"),
            )
        });
    }

    /// Kills the named task if it is running: cancels its in-flight
    /// activities, rolls back the attempt's reservations, and schedules
    /// a retry (or fails the run once attempts are exhausted).
    fn kill_task_by_name(&mut self, name: &str, time: f64) -> Result<(), ExecutorError> {
        let no_effect = |why: String| fault_record(time, "task-kill", name.to_string(), why);
        let Some(task) = self
            .s
            .workflow
            .tasks()
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.id)
        else {
            // Builder validation rejects unknown names; tolerate direct
            // executor use.
            self.s
                .fault_log
                .push(no_effect(format!("no task named {name}; kill ignored")));
            return Ok(());
        };
        let phase = self.s.states[task.index()].phase;
        if matches!(phase, Phase::Waiting | Phase::Done) {
            self.s.fault_log.push(no_effect(format!(
                "task {name} was not running ({phase:?}); kill had no effect"
            )));
            return Ok(());
        }
        if self.s.attempts[task.index()] >= self.s.retry.max_attempts {
            return Err(ExecutorError::RetryExhausted {
                task: name.to_string(),
                attempts: self.s.attempts[task.index()],
            });
        }

        // Cancel everything the attempt has in flight.
        let to_cancel: Vec<ActivityId> = self
            .s
            .live
            .iter()
            .filter(|(_, &tag)| self.tag_task(tag) == Some(task))
            .map(|(&id, _)| id)
            .collect();
        let (cancelled, lost_bytes, lost_compute) = self.cancel_all(&to_cancel);

        // Drop the attempt's accesses and return the space its writes
        // reserved, in (file, is-write) order so the float sums in
        // `bb_used` are reproducible. The image a restore reads survives
        // the kill — that is the point — and the retry restores from it.
        let mut owned: Vec<AccessId> = (0..self.s.accesses.len() as u32)
            .map(AccessId)
            .filter(|&a| {
                self.s.accesses[a.0 as usize]
                    .as_ref()
                    .is_some_and(|acc| acc.kind.task() == Some(task))
            })
            .collect();
        owned.sort_unstable_by_key(|&a| self.access(a).kind.order_key());
        for a in owned {
            let acc = self.take_access(a);
            if acc.kind.reserves() {
                self.release_reservation(&acc.loc, acc.bytes);
            }
        }
        // Outputs the attempt already registered will be rewritten; free
        // their BB space so the retry re-reserves from scratch.
        let written = std::mem::take(&mut self.s.written[task.index()]);
        for f in written {
            let loc = self.s.registry.require(f).clone();
            self.release_reservation(&loc, self.s.workflow.file(f).size);
        }

        {
            let st = &mut self.s.states[task.index()];
            st.phase = Phase::Waiting;
            st.pending.clear();
            st.in_flight = 0;
        }
        self.s.contention[task.index()] = TaskContention::default();
        self.s.retries += 1;
        let backoff = self.s.retry.backoff.max(0.0);
        self.engine.borrow_mut().spawn_delay_labeled(
            backoff,
            JobTag {
                job: self.s.job,
                tag: Tag::Retry(task),
            },
            Some(format!("{}retry:{name}", self.s.label_prefix)),
        );
        self.s.fault_log.push(FaultRecord {
            cancelled_flows: cancelled,
            lost_bytes,
            lost_compute,
            ..fault_record(
                time,
                "task-kill",
                name.to_string(),
                format!(
                    "task {name} killed on attempt {} of {}; retrying after {backoff} s",
                    self.s.attempts[task.index()],
                    self.s.retry.max_attempts,
                ),
            )
        });
        Ok(())
    }

    /// A retry backoff elapsed: re-run the task on the cores it still
    /// holds (kills never release cores, so the retry cannot starve).
    /// With a live checkpoint image the task restores from it instead of
    /// starting over from the read phase.
    fn on_retry(&mut self, task: TaskId) {
        match self.s.ckpt_location[task.index()].clone() {
            Some(loc) if !self.s.storage.location_is_dead(&loc) => self.restore_task(task, loc),
            _ => {
                let st = &self.s.states[task.index()];
                self.start_task(task, st.node, st.cores);
            }
        }
    }

    // ---- checkpointing ----------------------------------------------

    /// Checkpoint image size for `task`, bytes: the policy's fixed size,
    /// or the task's total output volume when none is given. `0.0`
    /// (including "no policy") disables checkpointing for the task.
    fn ckpt_bytes(&self, task: TaskId) -> f64 {
        match &self.s.checkpoint {
            Some(p) => p.bytes.unwrap_or_else(|| {
                self.s
                    .workflow
                    .task(task)
                    .outputs
                    .iter()
                    .map(|&f| self.s.workflow.file(f).size)
                    .sum()
            }),
            None => 0.0,
        }
    }

    /// Starts the checkpoint write of `task` to the policy's target tier
    /// (spilling to the PFS when the BB device is full, like any other
    /// write).
    fn start_checkpoint_write(&mut self, task: TaskId) {
        let policy = self.s.checkpoint.expect("checkpointing without a policy");
        let bytes = self.ckpt_bytes(task);
        let node = self.s.states[task.index()].node;
        let tier = match policy.target {
            CheckpointTier::Bb => Tier::BurstBuffer,
            CheckpointTier::Pfs => Tier::Pfs,
        };
        let loc = self.place(tier, node, bytes);
        let acc = Access::new(AccessKind::Checkpoint(task), node, loc, bytes, self.now());
        let plan = self.plan_flows(&acc);
        self.open_access(acc, plan);
    }

    /// A checkpoint write or restore read finished (or was skipped): the
    /// task goes back to computing.
    fn resume_compute(&mut self, task: TaskId) {
        let now = self.now();
        let st = &mut self.s.states[task.index()];
        st.ckpt_wall += now.duration_since(st.ckpt_phase_start);
        st.phase = Phase::Computing;
        self.spawn_compute(task);
    }

    /// A restore could not use its image (the device died): the attempt
    /// starts over from the read phase. The rollback point is dropped
    /// (a dead image's reservation is released by the device sweep in
    /// `recover_bb_down`; here only the claim is cleared). The wasted
    /// restore wall lands in the attempt's read window (`start` is
    /// unchanged), so it must not also count as checkpoint wall —
    /// `ckpt_wall` resets.
    fn restore_failed(&mut self, task: TaskId) {
        self.s.ckpt_location[task.index()] = None;
        self.s.ckpt_progress[task.index()] = 0.0;
        self.read_inputs(task);
    }

    /// Re-runs a killed task from its last checkpoint: instead of
    /// re-reading its inputs, the attempt reads the image back from the
    /// checkpoint tier and resumes compute at the checkpointed offset.
    /// The restore read replaces the read phase — the attempt's read
    /// wall is zero and the restore wall counts as checkpoint I/O.
    fn restore_task(&mut self, task: TaskId, loc: Location) {
        let now = self.now();
        self.s.attempts[task.index()] += 1;
        self.s.written[task.index()].clear();
        self.s.restores += 1;
        let st = &mut self.s.states[task.index()];
        st.phase = Phase::Restoring;
        st.start = now;
        st.read_end = now;
        st.pending.clear();
        st.in_flight = 0;
        st.compute_done = self.s.ckpt_progress[task.index()];
        st.ckpt_wall = 0.0;
        st.ckpt_phase_start = now;
        let node = st.node;
        let bytes = self.ckpt_bytes(task);
        let acc = Access::new(AccessKind::Restore(task), node, loc, bytes, now);
        let plan = self.plan_flows(&acc);
        self.open_access(acc, plan);
    }

    // ---- reporting --------------------------------------------------

    /// Splits one task's phase walls into contention wait and useful
    /// time. Walls are read / compute / write / checkpoint (indices
    /// 0–3); the checkpoint wall — time spent writing images or reading
    /// one back — is carved out of the compute window it interleaves
    /// with. Each phase `p` scales its wall by the flow-level
    /// inefficiency `1 - ideal_p / actual_p` (concurrent flows share the
    /// wall, so serialized per-flow waits would overcount); a phase
    /// whose flows accrued no wait contributes exactly `0.0`. Without a
    /// checkpoint policy `ckpt_wall` is `0.0` and every term is bitwise
    /// what the three-wall split produced. Returns
    /// `(pure_compute, serialized_io, contention_wait, checkpoint_io)`.
    fn decompose(&self, task: TaskId, st: &TaskState) -> (f64, f64, f64, f64) {
        let acc = &self.s.contention[task.index()];
        let wall = [
            st.read_end.duration_since(st.start),
            st.compute_end.duration_since(st.read_end) - st.ckpt_wall,
            st.end.duration_since(st.compute_end),
            st.ckpt_wall,
        ];
        let mut waits = [0.0f64; 4];
        for p in 0..4 {
            let ph = &acc.phases[p];
            if ph.wait > 0.0 && ph.actual > 0.0 {
                waits[p] = (wall[p] * (1.0 - ph.ideal / ph.actual)).clamp(0.0, wall[p]);
            }
        }
        let pure_compute = wall[1] - waits[1];
        let serialized_io = (wall[0] - waits[0]) + (wall[2] - waits[2]);
        let checkpoint_io = wall[3] - waits[3];
        (
            pure_compute,
            serialized_io,
            waits[0] + waits[1] + waits[2] + waits[3],
            checkpoint_io,
        )
    }

    /// The executed critical path: from the last-finishing task, follow
    /// the latest-finishing dependency backwards (ties to the lowest task
    /// id), then prepend the stage-in phase that gates all task starts.
    fn executed_critical_path(&self) -> Vec<CriticalStep> {
        let states = &self.s.states;
        let wf = &self.s.workflow;
        let by_end = |a: TaskId, b: TaskId| {
            states[a.index()]
                .end
                .cmp(&states[b.index()].end)
                .then_with(|| b.cmp(&a))
        };
        let mut chain: Vec<TaskId> = Vec::new();
        if let Some(last) = wf
            .tasks()
            .iter()
            .map(|t| t.id)
            .max_by(|&a, &b| by_end(a, b))
        {
            chain.push(last);
            let mut cur = last;
            while let Some(&pred) = wf.dependencies(cur).iter().max_by(|&&a, &&b| by_end(a, b)) {
                chain.push(pred);
                cur = pred;
            }
            chain.reverse();
        }
        let mut steps = Vec::new();
        let mut prev_end = SimTime::ZERO;
        if self.s.stage_end > SimTime::ZERO {
            steps.push(CriticalStep {
                label: "stage-in".to_string(),
                kind: CriticalStepKind::StageIn,
                start: SimTime::ZERO,
                end: self.s.stage_end,
                slack: 0.0,
            });
            prev_end = self.s.stage_end;
        }
        for t in chain {
            let st = &states[t.index()];
            steps.push(CriticalStep {
                label: wf.task(t).name.clone(),
                kind: CriticalStepKind::Task,
                start: st.start,
                end: st.end,
                slack: st.start.duration_since(prev_end).max(0.0),
            });
            prev_end = st.end;
        }
        steps
    }

    /// Builds the [`SimulationReport`] of this job. In a campaign the
    /// driver calls this at the instant the job's final completion is
    /// processed, so `makespan` (the engine's current time) equals the
    /// job's end time.
    pub fn report(&self) -> SimulationReport {
        let engine = self.engine.borrow();
        let s = &self.s;
        let tasks: Vec<TaskRecord> = s
            .workflow
            .tasks()
            .iter()
            .map(|t| {
                let st = &s.states[t.id.index()];
                let (pure_compute, serialized_io, contention_wait, checkpoint_io) =
                    self.decompose(t.id, st);
                // Gap between the first attempt's start and the final
                // (successful) attempt's start; exactly 0.0 without
                // kills, keeping fault-free runs bitwise unchanged.
                let fault_wait = st.start.duration_since(s.first_start[t.id.index()]);
                let mut contention_by_resource: Vec<(String, f64)> = s.contention[t.id.index()]
                    .by_resource
                    .iter()
                    .map(|&(r, w)| (engine.resource(r).name.clone(), w))
                    .collect();
                contention_by_resource
                    .sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                TaskRecord {
                    task: t.id,
                    name: t.name.clone(),
                    category: t.category.clone(),
                    pipeline: t.pipeline,
                    node: st.node,
                    cores: st.cores,
                    start: s.first_start[t.id.index()],
                    read_end: st.read_end,
                    compute_end: st.compute_end,
                    end: st.end,
                    pure_compute,
                    serialized_io,
                    contention_wait,
                    attempts: s.attempts[t.id.index()],
                    fault_wait,
                    checkpoint_io,
                    contention_by_resource,
                }
            })
            .collect();
        let fault_wait_total: f64 = tasks.iter().map(|t: &TaskRecord| t.fault_wait).sum();
        let checkpoint_io_total: f64 = tasks.iter().map(|t: &TaskRecord| t.checkpoint_io).sum();

        // Per-resource blame totals (always accumulated by the engine).
        let mut contention: Vec<ResourceContention> = engine
            .resource_blame()
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                b.interval().map(|interval| {
                    let id = ResourceId::from_index(i);
                    ResourceContention {
                        name: engine.resource(id).name.clone(),
                        capacity: engine.resource(id).capacity,
                        lost_work: b.lost_work,
                        wait: b.wait,
                        interval,
                    }
                })
            })
            .collect();
        contention.sort_by(|a, b| b.wait.total_cmp(&a.wait).then_with(|| a.name.cmp(&b.name)));

        let mut stage_contention: Vec<(String, f64)> = s
            .stage_waits
            .iter()
            .map(|(&r, &w)| (engine.resource(r).name.clone(), w))
            .collect();
        stage_contention.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // Tier-level byte/bandwidth accounting from the devices.
        let platform = &s.storage.platform;
        let (mut bb_bytes, mut bb_busy) = (0.0, 0.0);
        match &platform.bb {
            wfbb_platform::BbInstance::Shared { disks, .. }
            | wfbb_platform::BbInstance::OnNode { disks, .. } => {
                for &d in disks {
                    let st = engine.resource_stats(d);
                    bb_bytes += st.total_served;
                    bb_busy += st.busy_time;
                }
            }
            wfbb_platform::BbInstance::None => {}
        }
        let pfs = engine.resource_stats(platform.pfs_disk);

        SimulationReport {
            workflow: s.workflow.name.clone(),
            makespan: engine.now(),
            stage_in_time: s.stage_end.seconds(),
            stage_spans: s.stage_spans.clone(),
            output_spans: s.output_spans.clone(),
            tasks,
            contention,
            stage_contention,
            critical_path: self.executed_critical_path(),
            faults: s.fault_log.clone(),
            fault_lost_bytes: s.fault_log.iter().map(|f| f.lost_bytes).sum(),
            fault_lost_compute: s.fault_log.iter().map(|f| f.lost_compute).sum(),
            fault_wait_total,
            retries: s.retries,
            checkpoints: s.checkpoints_taken,
            restores: s.restores,
            checkpoint_bytes: s.ckpt_bytes_total,
            checkpoint_io_total,
            bb_bytes,
            pfs_bytes: pfs.total_served,
            bb_achieved_bw: if bb_busy > 0.0 {
                bb_bytes / bb_busy
            } else {
                0.0
            },
            pfs_achieved_bw: pfs.mean_busy_rate(),
            bb_nominal_bw: platform.spec.bb_disk_bw * platform.bb_devices() as f64,
            pfs_nominal_bw: platform.spec.pfs_disk_bw,
            bb_peak_bytes: s.bb_peak,
            spilled_files: s.spilled,
            nodes: platform.nodes(),
            cores_per_node: platform.spec.cores_per_node,
            telemetry: engine.telemetry_snapshot(),
        }
    }
}
