//! Executes a validated [`JobRequest`] and materializes its artifact
//! set — the same code paths, in the same order, as the `simulate` and
//! `campaign` CLI subcommands, so a job submitted over HTTP produces
//! byte-identical artifacts to the equivalent CLI invocation (pinned by
//! `tests/serve.rs` and the CI service-smoke step).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::request::{CampaignRequest, JobKind, JobRequest, SimulateRequest, WorkloadSource};
use wfbb_platform::{presets, PlatformSpec};
use wfbb_sched::{
    explain_json, parse_workload, synthetic_jobs, CampaignConfig, CampaignSim, JobSpec,
};
use wfbb_storage::{FailoverPolicy, PlacementPolicy};
use wfbb_wms::{RetryPolicy, SchedulerPolicy, SimulationBuilder, TelemetryConfig};

/// How many contention hotspots the canned `explain.json` artifact
/// reports (the CLI's `--explain-json` default).
const EXPLAIN_TOP_K: usize = 5;

/// A finished job's artifact set: named deterministic byte blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    items: Vec<(String, Vec<u8>)>,
}

impl Artifacts {
    /// Wraps a list of `(name, bytes)` artifacts.
    pub fn new(items: Vec<(String, Vec<u8>)>) -> Artifacts {
        Artifacts { items }
    }

    /// The artifact named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.items
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// `(name, size)` of every artifact, in canonical order.
    pub fn manifest(&self) -> Vec<(&str, usize)> {
        self.items
            .iter()
            .map(|(n, b)| (n.as_str(), b.len()))
            .collect()
    }

    /// Total payload bytes (the unit of cache accounting).
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Live progress of a running job, sampled by the `/events` stream and
/// the job-status endpoint — the HTTP analogue of the CLI `--progress`
/// heartbeat.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Progress {
    /// Simulated seconds elapsed.
    pub sim_time: f64,
    /// Campaign jobs admitted so far (0 for simulate jobs).
    pub jobs_admitted: usize,
    /// Campaign jobs finished so far.
    pub jobs_finished: usize,
    /// Campaign queue depth.
    pub queue_depth: usize,
    /// Engine events processed.
    pub events: u64,
}

/// Why a run produced no artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The simulation itself failed (rendered as a `failed` job).
    Failed(String),
    /// The job's cancel flag was raised (quota timeout) and the runner
    /// stopped cooperatively.
    Cancelled,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Failed(m) => write!(f, "run failed: {m}"),
            RunError::Cancelled => write!(f, "run cancelled by quota timeout"),
        }
    }
}

impl std::error::Error for RunError {}

/// Maps a preset label (already validated at parse time) to its
/// [`PlatformSpec`] through [`presets::by_name`] — the CLI's mapping,
/// minus file paths (see `crate::request` on cache soundness).
pub fn parse_platform(spec: &str, nodes: usize) -> Result<PlatformSpec, String> {
    presets::by_name(spec, nodes).ok_or_else(|| format!("unknown platform preset {spec:?}"))
}

/// Runs `request` to completion, publishing progress into `progress`
/// and checking `cancel` between engine events (campaigns) or around
/// the single blocking run (simulate jobs).
pub fn run_request(
    request: &JobRequest,
    cancel: &AtomicBool,
    progress: &Mutex<Progress>,
) -> Result<Artifacts, RunError> {
    match &request.kind {
        JobKind::Simulate(s) => run_simulate(s, cancel),
        JobKind::Campaign(c) => run_campaign_job(c, cancel, progress),
    }
}

fn run_simulate(req: &SimulateRequest, cancel: &AtomicBool) -> Result<Artifacts, RunError> {
    if cancel.load(Ordering::Relaxed) {
        return Err(RunError::Cancelled);
    }
    let platform = parse_platform(&req.platform, req.nodes).map_err(RunError::Failed)?;
    let placement = PlacementPolicy::parse(&req.placement).map_err(RunError::Failed)?;
    let scheduler = SchedulerPolicy::parse(&req.scheduler).map_err(RunError::Failed)?;
    let workflow =
        wfbb_sched::build_workflow(&req.workflow).map_err(|e| RunError::Failed(e.to_string()))?;
    // Telemetry on, exactly like a CLI run with --trace-out: the
    // artifact set always includes the full trace.
    let mut builder = SimulationBuilder::new(platform, workflow)
        .placement(placement)
        .scheduler(scheduler)
        .telemetry(TelemetryConfig::enabled());
    if !req.faults.is_empty() {
        let spec =
            wfbb_wms::FaultSpec::parse(&req.faults).map_err(|e| RunError::Failed(e.to_string()))?;
        builder = builder.faults(spec);
        builder = builder.failover(FailoverPolicy::parse(&req.failover).map_err(RunError::Failed)?);
        builder = builder.retry_policy(RetryPolicy {
            max_attempts: req.retries,
            ..Default::default()
        });
    }
    let report = builder.run().map_err(|e| RunError::Failed(e.to_string()))?;

    // A compact single-run report the CLI prints as text; field order
    // fixed so the bytes are deterministic.
    let mut summary = String::from("{");
    use std::fmt::Write as _;
    let _ = write!(
        summary,
        "\"workflow\":\"{}\",\"platform\":\"{}\",\"makespan\":{},\"stage_in_time\":{},\
         \"bb_bytes\":{},\"bb_peak_bytes\":{},\"pfs_bytes\":{},\"spilled_files\":{},\
         \"faults\":{},\"retries\":{},\"fault_wait_total\":{}}}",
        report.workflow,
        req.platform,
        report.makespan.seconds(),
        report.stage_in_time,
        report.bb_bytes,
        report.bb_peak_bytes,
        report.pfs_bytes,
        report.spilled_files,
        report.faults.len(),
        report.retries,
        report.fault_wait_total,
    );

    Ok(Artifacts::new(vec![
        ("report.json".into(), summary.into_bytes()),
        (
            "explain.json".into(),
            report.explain(EXPLAIN_TOP_K).to_json().into_bytes(),
        ),
        (
            "trace.json".into(),
            report.perfetto_trace_json().into_bytes(),
        ),
        ("trace.jsonl".into(), report.jsonl_trace().into_bytes()),
    ]))
}

fn run_campaign_job(
    req: &CampaignRequest,
    cancel: &AtomicBool,
    progress: &Mutex<Progress>,
) -> Result<Artifacts, RunError> {
    let platform = parse_platform(&req.platform, req.nodes).map_err(RunError::Failed)?;
    let jobs: Vec<JobSpec> = match &req.workload {
        WorkloadSource::Synthetic { seed, config } => {
            synthetic_jobs(*seed, config).map_err(|e| RunError::Failed(e.to_string()))?
        }
        WorkloadSource::Inline(text) => {
            parse_workload(text).map_err(|e| RunError::Failed(e.to_string()))?
        }
    };
    // Mirror the CLI campaign construction (with the decision log
    // always on — it never perturbs report bytes, pinned by
    // tests/decision_log.rs — so the artifact set always includes
    // decisions.jsonl and the decision-annotated trace).
    let config = CampaignConfig::new(platform)
        .with_policy(req.policy)
        .with_platform_label(&req.platform)
        .with_plan_horizon(req.plan_horizon)
        .with_decision_log(true);
    let mut sim = CampaignSim::new(&config, &jobs).map_err(|e| RunError::Failed(e.to_string()))?;
    let mut events = 0u64;
    loop {
        if cancel.load(Ordering::Relaxed) {
            return Err(RunError::Cancelled);
        }
        let more = sim.step().map_err(|e| RunError::Failed(e.to_string()))?;
        events += 1;
        if let Ok(mut p) = progress.lock() {
            p.sim_time = sim.now();
            p.jobs_admitted = sim.jobs_admitted();
            p.jobs_finished = sim.jobs_finished();
            p.queue_depth = sim.queue_depth();
            p.events = events;
        }
        if !more {
            break;
        }
    }
    let log = sim.export_decision_log();
    let report = sim.finish().map_err(|e| RunError::Failed(e.to_string()))?;

    Ok(Artifacts::new(vec![
        ("report.json".into(), report.to_json().into_bytes()),
        ("jobs.csv".into(), report.jobs_csv().into_bytes()),
        (
            "explain.json".into(),
            explain_json(&report, &log, 10).into_bytes(),
        ),
        ("decisions.jsonl".into(), log.to_jsonl().into_bytes()),
        (
            "trace.json".into(),
            report.perfetto_trace_with_decisions(&log).into_bytes(),
        ),
        ("summary.txt".into(), report.summary_text().into_bytes()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobRequest;

    fn run(body: &str) -> Result<Artifacts, RunError> {
        let req = JobRequest::parse(body.as_bytes()).unwrap();
        run_request(
            &req,
            &AtomicBool::new(false),
            &Mutex::new(Progress::default()),
        )
    }

    #[test]
    fn campaign_run_produces_the_full_artifact_set() {
        let artifacts = run(
            r#"{"type":"campaign","platform":"cori:striped","nodes":4,"policy":"bb-aware",
                "workload":{"type":"synthetic","jobs":4,"seed":7}}"#,
        )
        .unwrap();
        let names: Vec<&str> = artifacts.manifest().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "report.json",
                "jobs.csv",
                "explain.json",
                "decisions.jsonl",
                "trace.json",
                "summary.txt"
            ]
        );
        let report = std::str::from_utf8(artifacts.get("report.json").unwrap()).unwrap();
        assert!(report.contains("\"policy\":\"bb-aware\""));
        assert!(report.contains("\"platform\":\"cori:striped\""));
    }

    #[test]
    fn simulate_run_produces_trace_and_explain() {
        let artifacts = run(
            r#"{"type":"simulate","workflow":"swarp:1:8","platform":"cori:striped",
                "placement":"allbb"}"#,
        )
        .unwrap();
        assert!(artifacts.get("report.json").is_some());
        let trace = std::str::from_utf8(artifacts.get("trace.json").unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        let explain = std::str::from_utf8(artifacts.get("explain.json").unwrap()).unwrap();
        assert!(explain.contains("\"hotspots\""));
    }

    #[test]
    fn identical_requests_produce_identical_bytes() {
        let body = r#"{"type":"campaign","platform":"cori:striped","nodes":4,
            "policy":"easy","workload":{"type":"synthetic","jobs":3,"seed":11}}"#;
        let a = run(body).unwrap();
        let b = run(body).unwrap();
        assert_eq!(a, b, "deterministic artifact bytes");
    }

    #[test]
    fn cancelled_campaign_stops_early() {
        let req = JobRequest::parse(
            br#"{"type":"campaign","platform":"cori:striped","nodes":4,
                "workload":{"type":"synthetic","jobs":10,"seed":1}}"#,
        )
        .unwrap();
        let cancel = AtomicBool::new(true);
        let err = run_request(&req, &cancel, &Mutex::new(Progress::default())).unwrap_err();
        assert_eq!(err, RunError::Cancelled);
    }
}
