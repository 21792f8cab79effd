//! Executes a validated [`JobRequest`] and materializes its artifact
//! set — the same code paths, in the same order, as the `simulate` and
//! `campaign` CLI subcommands, so a job submitted over HTTP produces
//! byte-identical artifacts to the equivalent CLI invocation (pinned by
//! `tests/serve.rs` and the CI service-smoke step).
//!
//! A simulate job renders only `report.json` when it finishes. Its
//! `explain.json`, `trace.json` and `trace.jsonl` are rendered from the
//! retained [`SimulationReport`] on their first fetch and kept from
//! then on; campaign artifacts are rendered at once.

use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::request::{CampaignRequest, JobKind, JobRequest, SimulateRequest, WorkloadSource};
use wfbb_platform::{presets, PlatformSpec};
use wfbb_sched::{
    explain_json, parse_workload, synthetic_jobs, CampaignConfig, CampaignSim, JobSpec,
};
use wfbb_storage::{FailoverPolicy, PlacementPolicy};
use wfbb_wms::{
    RetryPolicy, SchedulerPolicy, SimulationBuilder, SimulationReport, TelemetryConfig,
};

/// How many contention hotspots the canned `explain.json` artifact
/// reports (the CLI's `--explain-json` default).
const EXPLAIN_TOP_K: usize = 5;

/// An exporter that renders a deferred artifact from its report.
type Render = fn(&SimulationReport) -> String;

/// The exporters a simulate job defers, in canonical order after
/// `report.json`.
const DEFERRED: [(&str, Render); 3] = [
    ("explain.json", |r| r.explain(EXPLAIN_TOP_K).to_json()),
    ("trace.json", SimulationReport::perfetto_trace_json),
    ("trace.jsonl", SimulationReport::jsonl_trace),
];

#[derive(Debug, Clone)]
enum Body {
    /// Rendered when the run finished.
    Ready(Vec<u8>),
    /// Rendered from `report` on first fetch, then kept in `bytes`.
    Deferred {
        render: Render,
        report: Arc<SimulationReport>,
        bytes: OnceLock<Vec<u8>>,
    },
}

impl Body {
    fn rendered(&self) -> Option<&[u8]> {
        match self {
            Body::Ready(bytes) => Some(bytes),
            Body::Deferred { bytes, .. } => bytes.get().map(Vec::as_slice),
        }
    }
}

/// A finished job's artifact set: named deterministic byte blobs, some
/// of them rendered on first fetch.
#[derive(Debug, Clone)]
pub struct Artifacts {
    items: Vec<(String, Body)>,
    /// Estimated size of the report the deferred artifacts render from.
    retained_bytes: usize,
}

impl Artifacts {
    /// Wraps a list of `(name, bytes)` artifacts, all rendered.
    pub fn new(items: Vec<(String, Vec<u8>)>) -> Artifacts {
        Artifacts {
            items: items
                .into_iter()
                .map(|(name, bytes)| (name, Body::Ready(bytes)))
                .collect(),
            retained_bytes: 0,
        }
    }

    /// A simulate job's set: `report.json` now, the [`DEFERRED`]
    /// exporters over `report` on first fetch.
    fn simulation(report_json: Vec<u8>, report: SimulationReport) -> Artifacts {
        let retained_bytes = retained_size(&report);
        let report = Arc::new(report);
        let mut items = vec![("report.json".to_string(), Body::Ready(report_json))];
        items.extend(DEFERRED.iter().map(|&(name, render)| {
            let body = Body::Deferred {
                render,
                report: Arc::clone(&report),
                bytes: OnceLock::new(),
            };
            (name.to_string(), body)
        }));
        Artifacts {
            items,
            retained_bytes,
        }
    }

    /// The artifact named `name`, if present, rendering it first if it
    /// is deferred and not yet rendered.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        let (_, body) = self.items.iter().find(|(n, _)| n == name)?;
        Some(match body {
            Body::Ready(bytes) => bytes,
            Body::Deferred {
                render,
                report,
                bytes,
            } => bytes.get_or_init(|| render(report).into_bytes()),
        })
    }

    /// Whether `name` is a deferred artifact not rendered yet (its next
    /// [`Artifacts::get`] renders it).
    pub fn is_pending(&self, name: &str) -> bool {
        self.items
            .iter()
            .any(|(n, body)| n == name && body.rendered().is_none())
    }

    /// `(name, size)` of every artifact, in canonical order; the size
    /// is `None` for a deferred artifact not rendered yet.
    pub fn manifest(&self) -> Vec<(&str, Option<usize>)> {
        self.items
            .iter()
            .map(|(n, body)| (n.as_str(), body.rendered().map(<[u8]>::len)))
            .collect()
    }

    /// The unit of cache accounting: the rendered artifacts' bytes plus
    /// the estimated size of the report kept for deferred rendering.
    /// It grows as deferred artifacts render.
    pub fn total_bytes(&self) -> usize {
        let rendered: usize = self
            .items
            .iter()
            .filter_map(|(_, body)| body.rendered())
            .map(<[u8]>::len)
            .sum();
        rendered + self.retained_bytes
    }
}

/// Two sets are equal when they name the same artifacts with the same
/// bytes; comparing renders every deferred artifact.
impl PartialEq for Artifacts {
    fn eq(&self, other: &Artifacts) -> bool {
        self.items.len() == other.items.len()
            && self
                .items
                .iter()
                .zip(&other.items)
                .all(|((a, _), (b, _))| a == b && self.get(a) == other.get(b))
    }
}

impl Eq for Artifacts {}

/// A deterministic estimate of what a retained report keeps alive:
/// each vector's length × the size of its element, plus string
/// lengths, nested vectors included. Allocator slack and spare
/// capacity are left out, so equal reports always cost the same.
fn retained_size(r: &SimulationReport) -> usize {
    let strings =
        |v: &[(String, f64)]| size_of_val(v) + v.iter().map(|(s, _)| s.len()).sum::<usize>();
    let mut n = size_of::<SimulationReport>() + r.workflow.len() + strings(&r.stage_contention);
    for span in r.stage_spans.iter().chain(&r.output_spans) {
        n += size_of_val(span) + span.file.len() + span.location.len();
    }
    for t in &r.tasks {
        n += size_of_val(t) + t.name.len() + t.category.len() + strings(&t.contention_by_resource);
    }
    for c in &r.contention {
        n += size_of_val(c) + c.name.len();
    }
    for f in &r.faults {
        n += size_of_val(f) + f.kind.len() + f.target.len() + f.description.len();
    }
    for s in &r.critical_path {
        n += size_of_val(s) + s.label.len();
    }
    if let Some(t) = &r.telemetry {
        for res in &t.resources {
            n += size_of_val(res)
                + res.name.len()
                + size_of_val(res.samples.as_slice())
                + size_of_val(res.histogram.bins());
        }
        for c in &t.contention {
            n += size_of_val(c) + size_of_val(c.blame.as_slice());
        }
    }
    n
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

    Ok(Artifacts::simulation(summary.into_bytes(), report))
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
    fn simulate_traces_render_on_first_get_and_grow_the_charge() {
        let artifacts = run(
            r#"{"type":"simulate","workflow":"swarp:1:8","platform":"cori:striped",
                "placement":"allbb"}"#,
        )
        .unwrap();
        let report = artifacts.get("report.json").unwrap().len();
        let sizes = |a: &Artifacts| a.manifest().iter().map(|(_, b)| *b).collect::<Vec<_>>();
        assert_eq!(sizes(&artifacts), [Some(report), None, None, None]);
        assert!(artifacts.is_pending("trace.jsonl"));
        assert!(!artifacts.is_pending("report.json"));
        assert!(!artifacts.is_pending("no-such-artifact"));
        let before = artifacts.total_bytes();
        assert!(before > report, "the retained report is charged");

        let first = artifacts.get("trace.jsonl").unwrap().as_ptr();
        let len = artifacts.get("trace.jsonl").unwrap().len();
        assert_eq!(
            artifacts.get("trace.jsonl").unwrap().as_ptr(),
            first,
            "a second get reuses the rendered bytes"
        );
        assert!(!artifacts.is_pending("trace.jsonl"));
        assert_eq!(sizes(&artifacts), [Some(report), None, None, Some(len)]);
        assert_eq!(artifacts.total_bytes(), before + len);
    }

    #[test]
    fn identical_requests_produce_identical_bytes() {
        for body in [
            r#"{"type":"campaign","platform":"cori:striped","nodes":4,
                "policy":"easy","workload":{"type":"synthetic","jobs":3,"seed":11}}"#,
            r#"{"type":"simulate","workflow":"genomes:2","platform":"summit",
                "nodes":4,"placement":"fraction:0.5"}"#,
        ] {
            let (a, b) = (run(body).unwrap(), run(body).unwrap());
            assert_eq!(a.total_bytes(), b.total_bytes(), "deterministic charge");
            assert_eq!(a, b, "deterministic artifact bytes");
        }
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
