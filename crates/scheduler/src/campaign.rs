//! The campaign driver: a multi-tenant batch simulation.
//!
//! One [`wfbb_simcore::Engine`] hosts the whole machine. Each admitted
//! job gets an exclusive *slice* of the platform (its nodes, its carved
//! share of the BB capacity) via [`wfbb_platform::PlatformInstance::slice`]
//! and is executed by the ordinary single-run
//! [`wfbb_wms::Executor`] on that slice — so stage-in/stage-out and
//! PFS/interconnect traffic of concurrent jobs contend *naturally*
//! inside the shared fluid engine, while compute and BB capacity are
//! partitioned by the scheduler. Burst-buffer capacity is a
//! reservation-pool resource ([`wfbb_storage::BbPool`]): granted at
//! admission, released at completion or failure, conserved across the
//! campaign.
//!
//! Scheduling decisions are delegated to the pure
//! [`crate::policy::plan_admissions`] at every arrival and completion
//! event; everything else here is deterministic bookkeeping (BTree
//! collections, job-order arrival spawns), so identical inputs produce
//! bitwise-identical [`CampaignReport`]s in both solve modes.
//!
//! ## Forking and plan-based scheduling
//!
//! The driver's state lives in [`CampaignSim`], which is *forkable*: the
//! shared engine is copied via [`wfbb_simcore::Engine::fork`], every
//! live executor is re-bound to the copy via [`wfbb_wms::Executor::fork`],
//! and the scheduler bookkeeping (queue, reservation ledger, records) is
//! cloned. A fork stepped forward produces bitwise-identical events to
//! the original — the foundation of the [`BatchPolicy::Plan`] policy,
//! which at each scheduling point plays candidate queue orderings
//! forward in speculative forks, scores them by projected mean bounded
//! slowdown, and commits the best (Kopanski & Rzadca, arXiv:2109.00082).
//! See `docs/snapshot.md` for the determinism contract and
//! `docs/scheduler.md` for the policy.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use crate::decisionlog::{DecisionLog, DecisionRecord, PlanCandidate, SchedProfile};
use crate::job::JobSpec;
use crate::policy::{plan_admissions, BatchPolicy, BlockReason, QueuedReq, RunningRes, Verdict};
use crate::report::{job_metrics, CampaignReport, JobOutcome, JobStatus, UtilSample};
use wfbb_platform::{BbArchitecture, PlatformInstance, PlatformSpec};
use wfbb_simcore::{Engine, EngineConfig, FaultPlan, SolveMode, TelemetryConfig};
use wfbb_storage::{BbPool, StorageSystem};
use wfbb_wms::{Executor, FaultEvent, FaultSpec, JobTag, RetryPolicy, SchedulerPolicy, Tag};

/// Error from a campaign simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The platform spec is invalid.
    Platform(String),
    /// The job list is empty.
    EmptyCampaign,
    /// The simulation engine failed.
    Engine(String),
    /// The campaign fault schedule is invalid (bad device index, or a
    /// fault kind campaigns do not support).
    Faults(String),
    /// The event queue drained with jobs still queued or running — a
    /// scheduler bug (unsatisfiable requests are rejected at submit).
    Stalled(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Platform(m) => write!(f, "invalid platform: {m}"),
            CampaignError::EmptyCampaign => write!(f, "campaign has no jobs"),
            CampaignError::Engine(m) => write!(f, "engine error: {m}"),
            CampaignError::Faults(m) => write!(f, "invalid campaign faults: {m}"),
            CampaignError::Stalled(m) => write!(f, "campaign stalled: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Default lookahead of the `plan` policy, seconds: speculative forks
/// stop once they pass this far beyond the scheduling point.
pub const DEFAULT_PLAN_HORIZON: f64 = 86_400.0;

/// Sentinel job id of campaign-scope fault events: completions tagged
/// with it are routed to the fault handler instead of a job's executor.
/// Real job ids are indices into the job list, so `u32::MAX` can never
/// collide.
const CAMPAIGN_FAULT_JOB: u32 = u32::MAX;

/// Cluster-level configuration of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The machine every job shares.
    pub platform: PlatformSpec,
    /// Human-readable platform label echoed into reports (`cori:striped`).
    pub platform_label: String,
    /// Admission/backfilling policy.
    pub policy: BatchPolicy,
    /// Fair-share solver mode of the shared engine.
    pub solve_mode: SolveMode,
    /// Engine telemetry sampling (off by default).
    pub telemetry: TelemetryConfig,
    /// Per-node concurrent-I/O cap forwarded to every executor.
    pub io_concurrency: Option<usize>,
    /// Task-to-node mapping policy inside each job's partition.
    pub node_scheduler: SchedulerPolicy,
    /// Lookahead of the `plan` policy's speculative forks, seconds past
    /// the scheduling point ([`DEFAULT_PLAN_HORIZON`] by default).
    /// Ignored by the other policies.
    pub plan_horizon: f64,
    /// Collect the structured [`DecisionLog`] (off by default). Purely
    /// additive observability: the per-job wait decomposition is always
    /// accrued, and enabling the log leaves every [`CampaignReport`]
    /// byte-identical (pinned by `tests/decision_log.rs`).
    pub log_decisions: bool,
    /// Campaign-scope capacity faults (empty by default). Only capacity
    /// kinds are allowed — `bb:<i>@<t>` (device death: engine resources
    /// drop to zero, the reservation pool shrinks by the device's share,
    /// running executors fail over), `bb:<i>@<t>*<f>` / `pfs@<t>*<f>`
    /// (degradations), and `seed:` clauses. Task kills are per-job and
    /// are rejected here — put `kill=` on the job instead.
    pub faults: FaultSpec,
}

impl CampaignConfig {
    /// Default campaign config on `platform`: FCFS, incremental solver,
    /// no telemetry.
    pub fn new(platform: PlatformSpec) -> Self {
        let platform_label = platform.name.clone();
        CampaignConfig {
            platform,
            platform_label,
            policy: BatchPolicy::Fcfs,
            solve_mode: SolveMode::Incremental,
            telemetry: TelemetryConfig::default(),
            io_concurrency: None,
            node_scheduler: SchedulerPolicy::default(),
            plan_horizon: DEFAULT_PLAN_HORIZON,
            log_decisions: false,
            faults: FaultSpec::new(),
        }
    }

    /// Sets the admission policy.
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the solver mode.
    pub fn with_solve_mode(mut self, mode: SolveMode) -> Self {
        self.solve_mode = mode;
        self
    }

    /// Sets the report's platform label.
    pub fn with_platform_label(mut self, label: impl Into<String>) -> Self {
        self.platform_label = label.into();
        self
    }

    /// Sets the `plan` policy's lookahead horizon, seconds.
    pub fn with_plan_horizon(mut self, horizon: f64) -> Self {
        self.plan_horizon = horizon;
        self
    }

    /// Enables (or disables) collection of the structured decision log.
    pub fn with_decision_log(mut self, on: bool) -> Self {
        self.log_decisions = on;
        self
    }

    /// Installs a campaign-scope fault schedule (capacity faults only;
    /// validated when the campaign is built).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// Which resource a queued job is currently classified as blocked on —
/// the accrual key of the wait decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Nodes,
    Bb,
    Reservation,
}

impl BlockKind {
    fn of(reason: &BlockReason) -> BlockKind {
        match reason {
            BlockReason::InsufficientNodes { .. } => BlockKind::Nodes,
            BlockReason::InsufficientBb { .. } => BlockKind::Bb,
            BlockReason::ReservationShadow { .. } => BlockKind::Reservation,
        }
    }
}

/// Per-job wait-decomposition accumulator. Every admission pass closes
/// the segment since `mark` against the previous classification and
/// re-marks, so the components telescope from arrival to start:
/// `blocked_on_nodes + blocked_on_bb + blocked_on_reservation == wait`
/// (exactly 0.0 each for jobs admitted in their arrival pass).
#[derive(Debug, Clone, Copy)]
struct WaitAcc {
    mark: f64,
    kind: Option<BlockKind>,
    nodes: f64,
    bb: f64,
    reservation: f64,
}

/// Bookkeeping for one running job.
#[derive(Debug, Clone)]
struct RunningJob {
    start: f64,
    walltime_est: f64,
    nodes: Vec<usize>,
    bb: f64,
}

/// Per-job record accumulated by the driver.
#[derive(Debug, Clone)]
struct JobRecord {
    status: JobStatus,
    start: f64,
    end: f64,
    reserved_start: Option<f64>,
    detail: Option<String>,
    report: Option<wfbb_wms::SimulationReport>,
}

/// Candidate queue orderings the `plan` policy evaluates. `Arrival`
/// (the untouched queue, i.e. plain BB-aware behavior) is always the
/// first candidate and wins ties, so `plan` never does worse than
/// `bb-aware` *in projection*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderRule {
    /// Queue order as-is (FIFO by submit time) — the BB-aware baseline.
    Arrival,
    /// Shortest walltime estimate first.
    ShortestFirst,
    /// Smallest BB request first.
    SmallestBbFirst,
    /// Largest BB request first (drain the big reservation early).
    LargestBbFirst,
    /// Fewest nodes first.
    FewestNodesFirst,
}

impl OrderRule {
    /// Stable label for plan-exploration records.
    fn label(&self) -> &'static str {
        match self {
            OrderRule::Arrival => "arrival",
            OrderRule::ShortestFirst => "shortest_first",
            OrderRule::SmallestBbFirst => "smallest_bb_first",
            OrderRule::LargestBbFirst => "largest_bb_first",
            OrderRule::FewestNodesFirst => "fewest_nodes_first",
        }
    }
}

const PLAN_RULES: [OrderRule; 5] = [
    OrderRule::Arrival,
    OrderRule::ShortestFirst,
    OrderRule::SmallestBbFirst,
    OrderRule::LargestBbFirst,
    OrderRule::FewestNodesFirst,
];

/// Why a request can never be satisfied on this machine, or `None`.
fn rejection_reason(spec: &JobSpec, platform: &PlatformSpec, pool_bytes: f64) -> Option<String> {
    if spec.nodes == 0 {
        return Some("requests 0 nodes".into());
    }
    if spec.nodes > platform.compute_nodes {
        return Some(format!(
            "requests {} nodes, machine has {}",
            spec.nodes, platform.compute_nodes
        ));
    }
    if !spec.bb_bytes.is_finite() || spec.bb_bytes < 0.0 {
        return Some(format!("invalid BB request {}", spec.bb_bytes));
    }
    if spec.bb_bytes > pool_bytes {
        return Some(format!(
            "requests {:.3e} B of BB, pool holds {:.3e} B",
            spec.bb_bytes, pool_bytes
        ));
    }
    if matches!(platform.bb, BbArchitecture::OnNode)
        && spec.bb_bytes > spec.nodes as f64 * platform.bb_capacity
    {
        return Some(format!(
            "on-node BB: {} nodes hold at most {:.3e} B",
            spec.nodes,
            spec.nodes as f64 * platform.bb_capacity
        ));
    }
    if !spec.walltime_est.is_finite() || spec.walltime_est <= 0.0 {
        return Some(format!(
            "walltime estimate must be > 0, got {}",
            spec.walltime_est
        ));
    }
    if !spec.submit.is_finite() || spec.submit < 0.0 {
        return Some(format!("invalid submit time {}", spec.submit));
    }
    for (task, time) in &spec.kills {
        if !spec.workflow.tasks().iter().any(|t| t.name == *task) {
            return Some(format!("kill targets unknown task {task:?}"));
        }
        if !time.is_finite() || *time < 0.0 {
            return Some(format!("invalid kill time {time}"));
        }
    }
    None
}

/// A stepwise, forkable campaign simulation.
///
/// [`run_campaign`] wraps the common drive-to-completion case; the
/// stepwise API exists for mid-campaign snapshotting and for the `plan`
/// policy's speculative rollouts:
///
/// * [`CampaignSim::step`] processes one engine event (an arrival, or a
///   completion routed to its job's executor) and re-plans admissions.
/// * [`CampaignSim::fork`] deep-copies the entire simulation — engine,
///   executors, scheduler bookkeeping — into an independent sim whose
///   subsequent events are bitwise identical to the original's.
/// * [`CampaignSim::finish`] closes the books and builds the report.
pub struct CampaignSim<'a> {
    config: &'a CampaignConfig,
    jobs: &'a [JobSpec],
    engine: Rc<RefCell<Engine<JobTag>>>,
    instance: PlatformInstance,
    total_nodes: usize,
    records: BTreeMap<u32, JobRecord>,
    pool: BbPool,
    free_nodes: BTreeSet<usize>,
    queue: Vec<u32>,
    running: BTreeMap<u32, RunningJob>,
    executors: BTreeMap<u32, Executor>,
    samples: Vec<UtilSample>,
    now: f64,
    /// Speculative rollouts of the `plan` policy replay upcoming
    /// arrivals but never re-plan (admissions fall back to BB-aware on
    /// the candidate order, later arrivals queue behind it), skip
    /// utilization sampling, and never emit decision records.
    speculative: bool,
    /// Per-job wait-decomposition accumulators, keyed by job id from
    /// arrival until the campaign ends (always accrued, log on or off).
    waits: BTreeMap<u32, WaitAcc>,
    /// Campaign-scope fault events resolved against the platform, in
    /// schedule order; sentinel delays tagged [`CAMPAIGN_FAULT_JOB`]
    /// index into this vector.
    fault_events: Vec<FaultEvent>,
    /// BB devices lost to campaign faults so far. Fresh executors are
    /// told about them at admission so placements avoid dead devices.
    dead_bb: BTreeSet<usize>,
    /// The structured decision log (drops pushes when disabled).
    log: DecisionLog,
    /// Host-side wall-clock profile of the scheduler loop.
    profile: SchedProfile,
    admitted_total: usize,
    finished_total: usize,
}

impl<'a> CampaignSim<'a> {
    /// Validates inputs, instantiates the platform into a fresh engine,
    /// screens submissions, and spawns arrival sentinels.
    pub fn new(config: &'a CampaignConfig, jobs: &'a [JobSpec]) -> Result<Self, CampaignError> {
        if jobs.is_empty() {
            return Err(CampaignError::EmptyCampaign);
        }
        config
            .platform
            .validate()
            .map_err(|e| CampaignError::Platform(e.to_string()))?;

        let mut engine = Engine::with_config(EngineConfig {
            solve_mode: config.solve_mode,
            telemetry: config.telemetry.clone(),
            ..EngineConfig::default()
        });
        let instance = config.platform.instantiate(&mut engine);
        let total_nodes = instance.nodes();
        let bb_devices = instance.bb_devices();
        let pool_bytes = bb_devices as f64 * config.platform.bb_capacity;

        // Campaign-scope capacity faults: screen the schedule, merge the
        // engine-level capacity drops into the shared fault plan, and
        // spawn one sentinel per event so the scheduler can do its own
        // bookkeeping (pool shrink, executor failover) at fault time.
        let fault_events = if config.faults.is_empty() {
            Vec::new()
        } else {
            let resolved = config
                .faults
                .resolve(bb_devices)
                .map_err(|e| CampaignError::Faults(e.message))?;
            let mut plan = FaultPlan::new();
            for ev in &resolved {
                match *ev {
                    FaultEvent::TaskKill { ref task, .. } => {
                        return Err(CampaignError::Faults(format!(
                            "task kills are per-job, not campaign-scope: drop \
                             'task:{task}@...' from --faults and put \
                             kill={task}@<time> on the target job's workload \
                             line instead"
                        )));
                    }
                    FaultEvent::BbNodeDown { time, device } => {
                        if !matches!(config.platform.bb, BbArchitecture::Shared { .. }) {
                            return Err(CampaignError::Faults(format!(
                                "campaign BB faults need a shared burst buffer \
                                 (device {device} is not machine-wide on \
                                 platform '{}')",
                                config.platform.name
                            )));
                        }
                        for r in instance.bb_device_resources(device) {
                            plan.push_capacity(time, r, 0.0);
                        }
                    }
                    FaultEvent::BbDegraded {
                        time,
                        device,
                        factor,
                    } => {
                        if !matches!(config.platform.bb, BbArchitecture::Shared { .. }) {
                            return Err(CampaignError::Faults(format!(
                                "campaign BB faults need a shared burst buffer \
                                 (device {device} is not machine-wide on \
                                 platform '{}')",
                                config.platform.name
                            )));
                        }
                        for r in instance.bb_device_resources(device) {
                            let nominal = engine.resource(r).capacity;
                            plan.push_capacity(time, r, nominal * factor);
                        }
                    }
                    FaultEvent::PfsDegraded { time, factor } => {
                        for r in [instance.pfs_link, instance.pfs_disk] {
                            let nominal = engine.resource(r).capacity;
                            plan.push_capacity(time, r, nominal * factor);
                        }
                    }
                }
            }
            engine.merge_fault_plan(&plan);
            for (k, ev) in resolved.iter().enumerate() {
                engine.spawn_delay_labeled(
                    ev.time(),
                    JobTag {
                        job: CAMPAIGN_FAULT_JOB,
                        tag: Tag::External(k as u32),
                    },
                    Some(format!("fault:{}:{}", ev.kind(), ev.target())),
                );
            }
            resolved
        };
        let engine = Rc::new(RefCell::new(engine));

        let mut records: BTreeMap<u32, JobRecord> = BTreeMap::new();
        let mut log = DecisionLog::new(config.log_decisions, config.policy.label());

        // Submit-time screening + arrival sentinels, in job order
        // (ascending activity ids make same-instant arrivals
        // deterministic).
        for (j, spec) in jobs.iter().enumerate() {
            let j = j as u32;
            if let Some(reason) = rejection_reason(spec, &config.platform, pool_bytes) {
                log.push(DecisionRecord::Rejected {
                    job: j,
                    reason: reason.clone(),
                });
                records.insert(
                    j,
                    JobRecord {
                        status: JobStatus::Rejected,
                        start: 0.0,
                        end: 0.0,
                        reserved_start: None,
                        detail: Some(reason),
                        report: None,
                    },
                );
                continue;
            }
            engine.borrow_mut().spawn_delay_labeled(
                spec.submit,
                JobTag {
                    job: j,
                    tag: Tag::External(j),
                },
                Some(format!("arrival:{}", spec.name)),
            );
        }

        Ok(CampaignSim {
            config,
            jobs,
            engine,
            instance,
            total_nodes,
            records,
            pool: BbPool::new(pool_bytes),
            free_nodes: (0..total_nodes).collect(),
            queue: Vec::new(),
            running: BTreeMap::new(),
            executors: BTreeMap::new(),
            samples: Vec::new(),
            now: 0.0,
            speculative: false,
            waits: BTreeMap::new(),
            fault_events,
            dead_bb: BTreeSet::new(),
            log,
            profile: SchedProfile::default(),
            admitted_total: 0,
            finished_total: 0,
        })
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently executing.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Jobs admitted so far (head or backfill).
    pub fn jobs_admitted(&self) -> usize {
        self.admitted_total
    }

    /// Jobs that finished (completed or failed) so far.
    pub fn jobs_finished(&self) -> usize {
        self.finished_total
    }

    /// The decision log collected so far (empty unless
    /// [`CampaignConfig::log_decisions`] is set).
    pub fn decision_log(&self) -> &DecisionLog {
        &self.log
    }

    /// Host-side wall-clock profile of the scheduler loop so far.
    pub fn profile(&self) -> SchedProfile {
        self.profile
    }

    /// A copy of the decision log with the engine counters stamped for
    /// the JSONL `counters` line — the exportable form.
    pub fn export_decision_log(&self) -> DecisionLog {
        let mut log = self.log.clone();
        log.set_counters(self.counters());
        log
    }

    /// Cumulative counters of the shared engine (solves, events, component
    /// decomposition stats, ...). Useful for sizing campaigns in benchmarks;
    /// see docs/performance.md.
    pub fn counters(&self) -> wfbb_simcore::EngineCounters {
        *self.engine.borrow().counters()
    }

    /// Deep-copies the whole simulation into an independent sim.
    ///
    /// The shared engine is forked ([`Engine::fork`]), every live
    /// executor is re-bound to the fork ([`Executor::fork`]), and the
    /// scheduler bookkeeping is cloned. Stepping the fork and the
    /// original identically produces bitwise-identical reports.
    pub fn fork(&self) -> CampaignSim<'a> {
        let engine = Rc::new(RefCell::new(self.engine.borrow().fork()));
        let executors = self
            .executors
            .iter()
            .map(|(&j, ex)| (j, ex.fork(engine.clone())))
            .collect();
        CampaignSim {
            config: self.config,
            jobs: self.jobs,
            engine,
            instance: self.instance.clone(),
            total_nodes: self.total_nodes,
            records: self.records.clone(),
            pool: self.pool.clone(),
            free_nodes: self.free_nodes.clone(),
            queue: self.queue.clone(),
            running: self.running.clone(),
            executors,
            samples: self.samples.clone(),
            now: self.now,
            speculative: self.speculative,
            waits: self.waits.clone(),
            fault_events: self.fault_events.clone(),
            dead_bb: self.dead_bb.clone(),
            log: self.log.clone(),
            profile: self.profile,
            admitted_total: self.admitted_total,
            finished_total: self.finished_total,
        }
    }

    fn sample(&mut self) {
        if self.speculative {
            return;
        }
        self.samples.push(UtilSample {
            time: self.now,
            running_jobs: self.running.len(),
            busy_nodes: self.total_nodes - self.free_nodes.len(),
            bb_reserved: self.pool.capacity() - self.pool.free(),
            queue_depth: self.queue.len(),
        });
    }

    /// Processes one engine event. Returns `Ok(false)` once the engine
    /// has drained (no more events).
    pub fn step(&mut self) -> Result<bool, CampaignError> {
        let t_solve = Instant::now();
        let step = self.engine.borrow_mut().try_step();
        self.profile.solve_ns += t_solve.elapsed().as_nanos() as u64;
        let completion = match step {
            Err(e) => return Err(CampaignError::Engine(format!("{e:?}"))),
            Ok(None) => return Ok(false),
            Ok(Some(c)) => c,
        };
        if !self.speculative {
            self.profile.events += 1;
        }
        self.now = completion.time.seconds();
        let JobTag { job, tag } = completion.tag;
        if job == CAMPAIGN_FAULT_JOB {
            if let Tag::External(k) = tag {
                self.on_campaign_fault(k as usize);
            }
            return Ok(true);
        }
        match tag {
            Tag::External(_) => {
                // Arrivals replay inside speculative rollouts too: a
                // campaign's submission schedule is part of the workload,
                // so lookahead may account for jobs that will arrive
                // during the plan window (they join the queue *behind*
                // the candidate order being evaluated). Without this the
                // rollouts over-commit to reorderings that only pay off
                // if nothing else shows up.
                self.waits.entry(job).or_insert(WaitAcc {
                    mark: self.now,
                    kind: None,
                    nodes: 0.0,
                    bb: 0.0,
                    reservation: 0.0,
                });
                self.queue.push(job);
                self.sample();
                self.try_admit();
                self.sample();
            }
            tag => {
                // Stale completions of finished/aborted jobs are dropped.
                let Some(ex) = self.executors.get_mut(&job) else {
                    return Ok(true);
                };
                let outcome = match ex.on_completion(completion.id, tag) {
                    Ok(()) if ex.is_complete() => {
                        // Build the job's report *now*, while engine time
                        // is its final completion instant (so its
                        // makespan matches a single run).
                        Some((JobStatus::Completed, None, Some(ex.report())))
                    }
                    Ok(()) => None,
                    Err(e) => {
                        ex.abort();
                        Some((JobStatus::Failed, Some(e.to_string()), None))
                    }
                };
                let Some((status, detail, report)) = outcome else {
                    return Ok(true);
                };
                self.executors.remove(&job);
                let run = self.running.remove(&job).expect("finished job was running");
                let released_bb = run.bb;
                for n in run.nodes {
                    self.free_nodes.insert(n);
                }
                self.pool.release(job);
                self.finished_total += 1;
                if !self.speculative {
                    self.log.push(DecisionRecord::PoolRelease {
                        time: self.now,
                        job,
                        bytes: released_bb,
                        free_after: self.pool.free(),
                    });
                }
                let rec = self
                    .records
                    .get_mut(&job)
                    .expect("finished job has a record");
                rec.status = status;
                rec.end = self.now;
                rec.detail = detail;
                rec.report = report;
                self.sample();
                self.try_admit();
                self.sample();
            }
        }
        Ok(true)
    }

    /// Handles one campaign-scope fault sentinel. The engine-level
    /// capacity drop already happened (the merged fault plan applies
    /// before same-instant completions); this is the *scheduler's* share
    /// of the blast radius.
    fn on_campaign_fault(&mut self, k: usize) {
        match self.fault_events[k].clone() {
            FaultEvent::BbNodeDown { device, .. } => {
                if !self.dead_bb.insert(device) {
                    return; // duplicate event for an already-dead device
                }
                // The machine lost one device's worth of reservable
                // capacity: free bytes absorb the loss first, then
                // running jobs' grants are clawed back in ascending
                // job order (ledger conservation holds throughout).
                let lost = self.config.platform.bb_capacity;
                let clawed = self.pool.shrink(lost);
                let mut clawed_total = 0.0;
                for &(job, bytes) in &clawed {
                    clawed_total += bytes;
                    if let Some(run) = self.running.get_mut(&job) {
                        run.bb -= bytes;
                    }
                }
                if !self.speculative {
                    self.log.push(DecisionRecord::PoolShrink {
                        time: self.now,
                        device,
                        bytes: lost,
                        clawed: clawed_total,
                        free_after: self.pool.free(),
                    });
                }
                // Every running executor fails over: in-flight transfers
                // crossing the device are cancelled, its files re-sourced
                // from the PFS, and future placements avoid it.
                for ex in self.executors.values_mut() {
                    ex.bb_node_down(device, self.now);
                }
                self.sample();
                self.try_admit();
                self.sample();
            }
            // Degradations change bandwidth, not capacity: the merged
            // fault plan already re-solved the fair share, and nothing
            // in the scheduler's ledger moves.
            FaultEvent::BbDegraded { .. } | FaultEvent::PfsDegraded { .. } => {}
            FaultEvent::TaskKill { .. } => {
                unreachable!("task kills are screened out at campaign construction")
            }
        }
    }

    /// Rejects queued jobs whose BB request no longer fits the shrunk
    /// pool. Without this sweep they would sit blocked forever and turn
    /// the drained event queue into a [`CampaignError::Stalled`].
    fn sweep_unsatisfiable(&mut self) {
        let cap = self.pool.capacity();
        let doomed: Vec<u32> = self
            .queue
            .iter()
            .copied()
            .filter(|&j| self.jobs[j as usize].bb_bytes > cap)
            .collect();
        for job in doomed {
            self.queue.retain(|&q| q != job);
            self.waits.remove(&job);
            let reason = format!(
                "requests {:.3e} B of BB, pool shrank to {:.3e} B after device failure",
                self.jobs[job as usize].bb_bytes, cap
            );
            if !self.speculative {
                self.log.push(DecisionRecord::Rejected {
                    job,
                    reason: reason.clone(),
                });
            }
            self.records.insert(
                job,
                JobRecord {
                    status: JobStatus::Rejected,
                    start: 0.0,
                    end: 0.0,
                    reserved_start: None,
                    detail: Some(reason),
                    report: None,
                },
            );
        }
    }

    /// Admission pass: ask the policy, start what it admits. Under
    /// [`BatchPolicy::Plan`] this first commits the best queue ordering
    /// found by speculative rollouts, then admits BB-aware on it.
    fn try_admit(&mut self) {
        if !self.dead_bb.is_empty() {
            self.sweep_unsatisfiable();
        }
        if self.queue.is_empty() {
            return;
        }
        self.profile.admission_passes += 1;
        // Speculative rollouts never re-plan: they inherit the candidate
        // ordering they were forked with and admit BB-aware on it.
        let mut policy = self.config.policy;
        if policy == BatchPolicy::Plan {
            if !self.speculative && self.queue.len() >= 2 {
                let t_plan = Instant::now();
                self.plan_queue_order();
                self.profile.plan_ns += t_plan.elapsed().as_nanos() as u64;
            }
            policy = BatchPolicy::BbAware;
        }
        let t_admit = Instant::now();
        let reqs: Vec<QueuedReq> = self
            .queue
            .iter()
            .map(|&j| {
                let s = &self.jobs[j as usize];
                QueuedReq {
                    job: j,
                    nodes: s.nodes,
                    bb: s.bb_bytes,
                    est: s.walltime_est,
                }
            })
            .collect();
        let holds: Vec<RunningRes> = self
            .running
            .values()
            .map(|r| RunningRes {
                end_est: r.start + r.walltime_est,
                nodes: r.nodes.len(),
                bb: r.bb,
            })
            .collect();
        let adm = plan_admissions(
            policy,
            self.now,
            self.free_nodes.len(),
            self.pool.free(),
            &reqs,
            &holds,
        );
        if let Some((job, shadow)) = adm.head_reservation {
            // Record only the first promise: later re-plans may move the
            // reservation, but the invariant we expose is "EASY never
            // starts the head later than it first promised" (assuming
            // conservative estimates).
            if let Some(rec) = self.records.get_mut(&job) {
                if rec.reserved_start.is_none() {
                    rec.reserved_start = Some(shadow);
                }
            } else {
                self.records.insert(
                    job,
                    JobRecord {
                        status: JobStatus::Failed, // placeholder; overwritten at start
                        start: 0.0,
                        end: 0.0,
                        reserved_start: Some(shadow),
                        detail: None,
                        report: None,
                    },
                );
            }
        }
        self.profile.admit_ns += t_admit.elapsed().as_nanos() as u64;

        // Wait-decomposition accrual + transition-gated decision records.
        // Each pass closes every queued job's open segment against its
        // previous classification (telescoping from arrival to start),
        // then re-classifies; a `Blocked` record is emitted only when the
        // blocking resource changes.
        let t_log = Instant::now();
        for d in &adm.decisions {
            let Some(acc) = self.waits.get_mut(&d.job) else {
                continue;
            };
            let dt = self.now - acc.mark;
            if dt > 0.0 {
                match acc.kind {
                    Some(BlockKind::Nodes) => acc.nodes += dt,
                    Some(BlockKind::Bb) => acc.bb += dt,
                    Some(BlockKind::Reservation) => acc.reservation += dt,
                    None => {}
                }
            }
            acc.mark = self.now;
            match &d.verdict {
                Verdict::Admit(kind) => {
                    acc.kind = None;
                    if !self.speculative {
                        self.log.push(DecisionRecord::Admitted {
                            time: self.now,
                            job: d.job,
                            kind: *kind,
                        });
                    }
                }
                Verdict::Blocked(reason) => {
                    let kind = BlockKind::of(reason);
                    if acc.kind != Some(kind) && !self.speculative {
                        self.log.push(DecisionRecord::Blocked {
                            time: self.now,
                            job: d.job,
                            reason: *reason,
                        });
                    }
                    acc.kind = Some(kind);
                }
            }
        }
        self.profile.log_ns += t_log.elapsed().as_nanos() as u64;

        let t_start = Instant::now();
        for job in adm.start {
            self.admit(job);
        }
        self.profile.admit_ns += t_start.elapsed().as_nanos() as u64;
    }

    /// Starts one admitted job: carves its platform slice, reserves BB,
    /// builds its executor, and records the start.
    fn admit(&mut self, job: u32) {
        let spec = &self.jobs[job as usize];
        self.queue.retain(|&q| q != job);
        let node_ids: Vec<usize> = self.free_nodes.iter().copied().take(spec.nodes).collect();
        assert_eq!(
            node_ids.len(),
            spec.nodes,
            "policy admitted past free nodes"
        );
        for n in &node_ids {
            self.free_nodes.remove(n);
        }
        assert!(
            self.pool.try_reserve(job, spec.bb_bytes),
            "policy admitted past free BB"
        );
        self.admitted_total += 1;
        if !self.speculative {
            self.log.push(DecisionRecord::PoolReserve {
                time: self.now,
                job,
                bytes: spec.bb_bytes,
                free_after: self.pool.free(),
            });
        }
        let view_devices = match self.config.platform.bb {
            BbArchitecture::Shared { bb_nodes, .. } => bb_nodes,
            BbArchitecture::OnNode => node_ids.len(),
            BbArchitecture::None => 0,
        };
        let per_dev = if view_devices > 0 {
            spec.bb_bytes / view_devices as f64
        } else {
            0.0
        };
        let view = self.instance.slice(&node_ids, per_dev);
        let mut storage = StorageSystem::new(view);
        // Shared-BB device indices are machine-global, so the slice view
        // keeps them aligned: mark devices lost to earlier campaign
        // faults dead so the fresh executor's placements avoid them.
        for &d in &self.dead_bb {
            storage.mark_bb_dead(d);
        }
        let plan = spec.placement.plan(&spec.workflow);
        let mut ex = Executor::shared(
            self.engine.clone(),
            job,
            storage,
            spec.workflow.clone(),
            plan,
            self.config.io_concurrency,
            self.config.node_scheduler,
        );
        if !spec.kills.is_empty() {
            let events: Vec<FaultEvent> = spec
                .kills
                .iter()
                .map(|(task, time)| FaultEvent::TaskKill {
                    time: *time,
                    task: task.clone(),
                })
                .collect();
            ex.set_fault_injection(
                events,
                RetryPolicy {
                    max_attempts: spec.max_attempts,
                    backoff: 0.0,
                },
            );
        }
        if let Some(policy) = spec.checkpoint {
            ex.set_checkpoint_policy(policy);
        }
        let reserved = self.records.get(&job).and_then(|r| r.reserved_start);
        self.records.insert(
            job,
            JobRecord {
                status: JobStatus::Failed, // overwritten when it finishes
                start: self.now,
                end: self.now,
                reserved_start: reserved,
                detail: None,
                report: None,
            },
        );
        self.running.insert(
            job,
            RunningJob {
                start: self.now,
                walltime_est: spec.walltime_est,
                nodes: node_ids,
                bb: spec.bb_bytes,
            },
        );
        ex.start();
        self.executors.insert(job, ex);
    }

    /// The `plan` policy's ordering search: fork the sim per candidate
    /// rule, roll each fork forward (BB-aware on the candidate order,
    /// upcoming arrivals replayed) until the campaign drains or the
    /// horizon passes, score by projected mean bounded slowdown over
    /// every job the rollout saw, and commit the best ordering to the
    /// real queue. The arrival order is always a candidate and wins
    /// ties, so `plan` degenerates to `bb-aware` when lookahead finds
    /// nothing better.
    fn plan_queue_order(&mut self) {
        let horizon_end = self.now + self.config.plan_horizon;
        let mut best: Option<(f64, Vec<u32>, &'static str)> = None;
        let mut seen: Vec<Vec<u32>> = Vec::new();
        let mut candidates: Vec<PlanCandidate> = Vec::new();
        for rule in PLAN_RULES {
            let order = self.ordered_queue(rule);
            if seen.contains(&order) {
                continue; // identical ordering already scored
            }
            seen.push(order.clone());
            let mut rollout = self.fork();
            rollout.speculative = true;
            rollout.samples.clear();
            // Rollouts never log; drop the inherited records so each of
            // the (up to) five forks doesn't clone a growing log.
            rollout.log = DecisionLog::new(false, "");
            rollout.queue = order.clone();
            self.profile.plan_forks += 1;
            if rollout.run_rollout(horizon_end).is_err() {
                // A rollout that errors (it explores states the real run
                // may never reach) simply drops out of the candidate set.
                continue;
            }
            let score = rollout.projected_bounded_slowdown();
            if self.log.enabled() {
                candidates.push(PlanCandidate {
                    rule: rule.label(),
                    order: order.clone(),
                    score,
                });
            }
            let better = match &best {
                None => true,
                Some((b, _, _)) => score < b - 1e-12,
            };
            if better {
                best = Some((score, order, rule.label()));
            }
        }
        if let Some((_, order, winner)) = best {
            self.profile.plan_choices += 1;
            self.log.push(DecisionRecord::PlanChoice {
                time: self.now,
                winner,
                candidates,
            });
            self.queue = order;
        }
    }

    /// The queue reordered by `rule` (stable: ties keep arrival order).
    fn ordered_queue(&self, rule: OrderRule) -> Vec<u32> {
        let mut order = self.queue.clone();
        let spec = |j: u32| &self.jobs[j as usize];
        match rule {
            OrderRule::Arrival => {}
            OrderRule::ShortestFirst => {
                order.sort_by(|&a, &b| spec(a).walltime_est.total_cmp(&spec(b).walltime_est));
            }
            OrderRule::SmallestBbFirst => {
                order.sort_by(|&a, &b| spec(a).bb_bytes.total_cmp(&spec(b).bb_bytes));
            }
            OrderRule::LargestBbFirst => {
                order.sort_by(|&a, &b| spec(b).bb_bytes.total_cmp(&spec(a).bb_bytes));
            }
            OrderRule::FewestNodesFirst => {
                order.sort_by_key(|&a| spec(a).nodes);
            }
        }
        order
    }

    /// Drives a speculative fork: admit on the candidate order, then
    /// step (replaying upcoming arrivals) until the campaign drains or
    /// the horizon passes.
    fn run_rollout(&mut self, t_end: f64) -> Result<(), CampaignError> {
        self.try_admit();
        loop {
            if self.now > t_end || !self.step()? {
                return Ok(());
            }
        }
    }

    /// Projected mean bounded slowdown over every job that has entered
    /// the system and was not rejected: finished jobs contribute their
    /// realized metric; running jobs are projected to end at
    /// `max(now, start + estimate)`; still-queued jobs are charged as if
    /// starting now. Arrivals are time-driven, so competing rollouts cut
    /// off at the same horizon score the identical job set; jobs that
    /// finished before the planning instant add the same constant to
    /// every candidate and never tip a comparison.
    fn projected_bounded_slowdown(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &j in &self.queue {
            let spec = &self.jobs[j as usize];
            sum += job_metrics(spec.submit, self.now, self.now + spec.walltime_est).3;
            n += 1;
        }
        for (&j, run) in &self.running {
            let spec = &self.jobs[j as usize];
            let end = self.now.max(run.start + run.walltime_est);
            sum += job_metrics(spec.submit, run.start, end).3;
            n += 1;
        }
        for (&j, rec) in &self.records {
            if rec.status == JobStatus::Rejected {
                continue;
            }
            let spec = &self.jobs[j as usize];
            sum += job_metrics(spec.submit, rec.start, rec.end).3;
            n += 1;
        }
        if n == 0 {
            return 1.0;
        }
        sum / n as f64
    }

    /// Closes the books after the engine drained and builds the report.
    pub fn finish(mut self) -> Result<CampaignReport, CampaignError> {
        if !self.queue.is_empty() || !self.executors.is_empty() {
            return Err(CampaignError::Stalled(format!(
                "{} queued, {} running after the event queue drained",
                self.queue.len(),
                self.executors.len()
            )));
        }

        let outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                let j = j as u32;
                let rec = self.records.remove(&j).unwrap_or(JobRecord {
                    status: JobStatus::Rejected,
                    start: 0.0,
                    end: 0.0,
                    reserved_start: None,
                    detail: Some("never scheduled".into()),
                    report: None,
                });
                let (wait, run, stretch, bounded_slowdown) = if rec.status == JobStatus::Rejected {
                    (0.0, 0.0, 1.0, 1.0)
                } else {
                    job_metrics(spec.submit, rec.start, rec.end)
                };
                let acc = if rec.status == JobStatus::Rejected {
                    None
                } else {
                    self.waits.get(&j).copied()
                };
                JobOutcome {
                    job: j,
                    name: spec.name.clone(),
                    workflow: spec.workflow_spec.clone(),
                    submit: spec.submit,
                    nodes: spec.nodes,
                    bb_request: spec.bb_bytes,
                    walltime_est: spec.walltime_est,
                    status: rec.status,
                    start: rec.start,
                    end: rec.end,
                    wait,
                    run,
                    stretch,
                    bounded_slowdown,
                    blocked_on_nodes: acc.map_or(0.0, |a| a.nodes),
                    blocked_on_bb: acc.map_or(0.0, |a| a.bb),
                    blocked_on_reservation: acc.map_or(0.0, |a| a.reservation),
                    reserved_start: rec.reserved_start,
                    detail: rec.detail,
                    report: rec.report,
                }
            })
            .collect();

        let mut report = CampaignReport {
            policy: self.config.policy,
            platform: self.config.platform_label.clone(),
            total_nodes: self.total_nodes,
            bb_pool_bytes: self.pool.capacity(),
            jobs: outcomes,
            makespan: 0.0,
            mean_wait: 0.0,
            max_wait: 0.0,
            mean_stretch: 0.0,
            mean_bounded_slowdown: 0.0,
            jobs_ran: 0,
            node_utilization: 0.0,
            bb_utilization: 0.0,
            utilization: self.samples,
            bb_pool_free_end: self.pool.free(),
            blocked_on_nodes_total: 0.0,
            blocked_on_bb_total: 0.0,
            blocked_on_reservation_total: 0.0,
            counters: *self.engine.borrow().counters(),
        };
        report.finalize();
        Ok(report)
    }
}

/// Runs a campaign of `jobs` (in submission order — sort by submit time
/// first, ties broken by position) on one shared engine and returns the
/// campaign report.
pub fn run_campaign(
    config: &CampaignConfig,
    jobs: &[JobSpec],
) -> Result<CampaignReport, CampaignError> {
    let mut sim = CampaignSim::new(config, jobs)?;
    while sim.step()? {}
    sim.finish()
}

/// A finished campaign plus its observability artifacts: the report,
/// the decision log (counters stamped, ready for
/// [`DecisionLog::to_jsonl`]), and the host-side scheduler profile.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The campaign report (byte-identical to a [`run_campaign`] of the
    /// same config — the log never perturbs results).
    pub report: CampaignReport,
    /// The structured decision log (empty records unless
    /// [`CampaignConfig::log_decisions`] was set).
    pub log: DecisionLog,
    /// Wall-clock spent in solve / admission / plan search / logging.
    pub profile: SchedProfile,
}

/// Like [`run_campaign`], but also returns the decision log and the
/// scheduler profile.
pub fn run_campaign_logged(
    config: &CampaignConfig,
    jobs: &[JobSpec],
) -> Result<CampaignRun, CampaignError> {
    let mut sim = CampaignSim::new(config, jobs)?;
    while sim.step()? {}
    let log = sim.export_decision_log();
    let profile = sim.profile();
    let report = sim.finish()?;
    Ok(CampaignRun {
        report,
        log,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_workflow;
    use wfbb_platform::presets;
    use wfbb_platform::BbMode;

    fn job(name: &str, submit: f64, spec: &str, nodes: usize, bb: f64, est: f64) -> JobSpec {
        JobSpec::new(
            name,
            submit,
            spec,
            build_workflow(spec).unwrap(),
            nodes,
            bb,
            est,
        )
    }

    fn config(policy: BatchPolicy) -> CampaignConfig {
        CampaignConfig::new(presets::cori(4, BbMode::Striped))
            .with_policy(policy)
            .with_platform_label("cori:striped")
    }

    #[test]
    fn solo_campaign_completes_and_conserves_the_pool() {
        let jobs = vec![job("solo", 0.0, "swarp:1:8", 1, 2e9, 600.0)];
        let report = run_campaign(&config(BatchPolicy::Fcfs), &jobs).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].status, JobStatus::Completed);
        assert_eq!(report.jobs[0].wait, 0.0);
        assert!(report.jobs[0].run > 0.0);
        assert_eq!(report.bb_pool_free_end, report.bb_pool_bytes);
        assert!(report.jobs[0].report.is_some());
    }

    #[test]
    fn oversized_requests_are_rejected_not_deadlocked() {
        let jobs = vec![
            job("huge-nodes", 0.0, "swarp:1:8", 99, 1e9, 600.0),
            job("huge-bb", 0.0, "swarp:1:8", 1, 1e18, 600.0),
            job("ok", 0.0, "swarp:1:8", 1, 1e9, 600.0),
        ];
        let report = run_campaign(&config(BatchPolicy::EasyBackfill), &jobs).unwrap();
        assert_eq!(report.jobs[0].status, JobStatus::Rejected);
        assert_eq!(report.jobs[1].status, JobStatus::Rejected);
        assert_eq!(report.jobs[2].status, JobStatus::Completed);
    }

    #[test]
    fn fcfs_serializes_contending_jobs() {
        // Two jobs that each want the whole machine: the second must
        // wait for the first.
        let jobs = vec![
            job("a", 0.0, "swarp:1:8", 4, 1e9, 600.0),
            job("b", 0.0, "swarp:1:8", 4, 1e9, 600.0),
        ];
        let report = run_campaign(&config(BatchPolicy::Fcfs), &jobs).unwrap();
        let (a, b) = (&report.jobs[0], &report.jobs[1]);
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(b.status, JobStatus::Completed);
        assert_eq!(a.wait, 0.0);
        assert!(b.start >= a.end - 1e-9, "b must wait for a");
        assert!(b.stretch > 1.0);
    }

    #[test]
    fn kill_faults_release_the_reservation() {
        // A job whose task is killed more times than its retry budget
        // fails — and must still release nodes and BB. Run the job solo
        // first to find a time resample_0 is guaranteed to be computing.
        let probe = vec![job("victim", 0.0, "swarp:1:8", 2, 4e9, 600.0)];
        let solo = run_campaign(&config(BatchPolicy::Fcfs), &probe).unwrap();
        let rep = solo.jobs[0].report.as_ref().unwrap();
        let t = rep.task_by_name("resample_0").unwrap();
        let kill_time = 0.5 * (t.read_end.seconds() + t.compute_end.seconds());
        let mut victim = job("victim", 0.0, "swarp:1:8", 2, 4e9, 600.0).with_max_attempts(1);
        victim.kills.push(("resample_0".into(), kill_time));
        let jobs = vec![victim, job("after", 1.0, "swarp:1:8", 4, 1e9, 600.0)];
        let report = run_campaign(&config(BatchPolicy::Fcfs), &jobs).unwrap();
        assert_eq!(report.jobs[0].status, JobStatus::Failed);
        assert_eq!(report.jobs[1].status, JobStatus::Completed);
        assert_eq!(report.bb_pool_free_end, report.bb_pool_bytes);
    }

    #[test]
    fn identical_seed_reports_are_bitwise_equal_across_solve_modes() {
        let jobs: Vec<JobSpec> = crate::workload::synthetic_jobs(
            11,
            &crate::workload::SyntheticConfig {
                jobs: 6,
                mean_interarrival: 60.0,
                bb_request_scale: 1.0,
                max_nodes: 2,
            },
        )
        .unwrap();
        let a = run_campaign(&config(BatchPolicy::BbAware), &jobs).unwrap();
        let b = run_campaign(&config(BatchPolicy::BbAware), &jobs).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        let c = run_campaign(
            &config(BatchPolicy::BbAware).with_solve_mode(SolveMode::Naive),
            &jobs,
        )
        .unwrap();
        for (x, y) in a.jobs.iter().zip(&c.jobs) {
            assert!(
                (x.end - y.end).abs() < 1e-6,
                "{}: {} vs {}",
                x.name,
                x.end,
                y.end
            );
        }
    }

    #[test]
    fn mid_campaign_fork_matches_the_original_bitwise() {
        let jobs: Vec<JobSpec> = crate::workload::synthetic_jobs(
            7,
            &crate::workload::SyntheticConfig {
                jobs: 5,
                mean_interarrival: 30.0,
                bb_request_scale: 1.0,
                max_nodes: 2,
            },
        )
        .unwrap();
        let cfg = config(BatchPolicy::BbAware);
        let mut sim = CampaignSim::new(&cfg, &jobs).unwrap();
        // Step partway in, fork, then drive both to completion.
        for _ in 0..25 {
            if !sim.step().unwrap() {
                break;
            }
        }
        let mut forked = sim.fork();
        while sim.step().unwrap() {}
        while forked.step().unwrap() {}
        let a = sim.finish().unwrap();
        let b = forked.finish().unwrap();
        assert_eq!(a.to_json(), b.to_json(), "fork must replay bitwise");
    }

    #[test]
    fn plan_policy_completes_and_conserves_the_pool() {
        let jobs: Vec<JobSpec> = crate::workload::synthetic_jobs(
            3,
            &crate::workload::SyntheticConfig {
                jobs: 6,
                mean_interarrival: 20.0,
                bb_request_scale: 1.5,
                max_nodes: 2,
            },
        )
        .unwrap();
        let report = run_campaign(&config(BatchPolicy::Plan), &jobs).unwrap();
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Completed));
        assert_eq!(report.bb_pool_free_end, report.bb_pool_bytes);
    }
}
