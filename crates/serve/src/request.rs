//! The service's job-request model: JSON parsing, validation, and the
//! deterministic canonical input hash that keys the result cache.
//!
//! # Cache soundness
//!
//! The engine is deterministic — the same parsed request produces the
//! same artifact bytes (the snapshot/fork contract of `docs/snapshot.md`
//! pins this) — so caching *parsed, normalized* requests is sound. Two
//! rules keep it that way:
//!
//! 1. **Normalization before hashing.** The hash covers
//!    [`JobRequest::canonical`], a fixed-order rendering of every field
//!    *with defaults applied*, so `{"nodes": 4}` and an omitted
//!    `"nodes"` (default 4) share one cache entry, while any
//!    semantically different field value — seed, policy,
//!    `bb_request_scale`, ... — produces a different key.
//! 2. **No ambient inputs.** Requests may only reference the built-in
//!    workflow generators (`swarp:*`, `genomes:*`) and platform presets.
//!    File paths are rejected at parse time: a file's *content* is
//!    invisible to the hash, so accepting paths would let two different
//!    simulations collide on one key.
//!
//! The hash itself is FNV-1a over the canonical bytes — the same
//! content-keying approach `wfbb_simcore::partition` uses for solver
//! memoization.

use crate::API_VERSION;
use serde_json::Value;
use wfbb_platform::presets::{self, MAX_NODES};
use wfbb_sched::{BatchPolicy, SyntheticConfig, DEFAULT_PLAN_HORIZON};
use wfbb_storage::{FailoverPolicy, PlacementPolicy};
use wfbb_wms::SchedulerPolicy;

/// A request the service refuses to run, rendered as a typed `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError(pub String);

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RequestError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RequestError> {
    Err(RequestError(msg.into()))
}

/// A validated, normalized job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Declared `api_version` (must equal [`API_VERSION`]).
    pub api_version: u32,
    /// What to simulate.
    pub kind: JobKind,
}

/// The two job shapes the service runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One workflow on one platform — the `simulate` subcommand over
    /// HTTP.
    Simulate(SimulateRequest),
    /// A multi-tenant batch campaign — the `campaign` subcommand over
    /// HTTP.
    Campaign(CampaignRequest),
}

/// A single-workflow simulation request (defaults match `wfbb simulate`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Workflow spec (`swarp:<p>[:<c>]` or `genomes:<c>`; generators
    /// only — see the module docs for why files are rejected).
    pub workflow: String,
    /// Platform preset (`cori`, `cori:private`, `cori:striped`,
    /// `summit`, `generic`).
    pub platform: String,
    /// Compute nodes (default 1).
    pub nodes: usize,
    /// Placement spec (`allbb` | `allpfs` | `fraction:<f>` |
    /// `threshold:<bytes>`; default `allbb`).
    pub placement: String,
    /// Task-to-node scheduler (`affinity` | `least-loaded` |
    /// `round-robin`; default `affinity`).
    pub scheduler: String,
    /// Inline fault spec in the `docs/failure-model.md` grammar
    /// (default empty — fault-free).
    pub faults: String,
    /// Failover policy when a BB namespace dies (`pfs` | `bb`).
    pub failover: String,
    /// Per-task attempt budget under kill faults (default 3).
    pub retries: u32,
}

/// A campaign request (defaults match `wfbb campaign`).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Platform preset label.
    pub platform: String,
    /// Machine size in compute nodes (default 4).
    pub nodes: usize,
    /// Admission policy (default `fcfs`).
    pub policy: BatchPolicy,
    /// `plan` policy lookahead, seconds (default 86400).
    pub plan_horizon: f64,
    /// Where the jobs come from.
    pub workload: WorkloadSource,
}

/// A campaign's job stream: a seeded synthetic draw or an inline
/// workload document.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// Seeded synthetic campaign ([`wfbb_sched::synthetic_jobs`]).
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Draw parameters.
        config: SyntheticConfig,
    },
    /// Inline workload text in the `docs/scheduler.md` file format
    /// (the *content* travels in the request, so it is covered by the
    /// cache key — unlike a path, which would not be).
    Inline(String),
}

fn check_keys(obj: &Value, allowed: &[&str], what: &str) -> Result<(), RequestError> {
    let Value::Object(entries) = obj else {
        return err(format!("{what} must be a JSON object, got {}", obj.kind()));
    };
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return err(format!("unknown field {k:?} in {what}"));
        }
    }
    Ok(())
}

fn get_str<'v>(obj: &'v Value, key: &str, default: &'v str) -> Result<&'v str, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError(format!("field {key:?} must be a string"))),
    }
}

fn get_u64(obj: &Value, key: &str, default: u64) -> Result<u64, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| RequestError(format!("field {key:?} must be a non-negative integer"))),
    }
}

/// A `u32` field. Values above `u32::MAX` are refused, not truncated.
fn get_u32(obj: &Value, key: &str, default: u32) -> Result<u32, RequestError> {
    let v = get_u64(obj, key, u64::from(default))?;
    u32::try_from(v)
        .map_err(|_| RequestError(format!("field {key:?} must be at most {}", u32::MAX)))
}

fn get_f64(obj: &Value, key: &str, default: f64) -> Result<f64, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| RequestError(format!("field {key:?} must be a number"))),
    }
}

/// The `nodes` field: a machine size in `1..=MAX_NODES`. The presets
/// allocate per node, so an unbounded count could abort the service.
fn get_nodes(obj: &Value, default: u64) -> Result<usize, RequestError> {
    let nodes = get_u64(obj, "nodes", default)?;
    if nodes == 0 || nodes > MAX_NODES as u64 {
        return err(format!("\"nodes\" must be in 1..={MAX_NODES}"));
    }
    Ok(nodes as usize)
}

fn validate_workflow_spec(spec: &str) -> Result<(), RequestError> {
    wfbb_sched::build_workflow(spec)
        .map(|_| ())
        .map_err(|e| RequestError(format!("bad workflow spec: {e}")))
}

fn validate_platform(spec: &str) -> Result<(), RequestError> {
    if presets::NAMES.contains(&spec) {
        Ok(())
    } else {
        err(format!(
            "unknown platform {spec:?} (presets only: {})",
            presets::NAMES.join(", ")
        ))
    }
}

impl JobRequest {
    /// Parses and validates a JSON request body. Unknown fields are
    /// rejected so client typos fail loudly instead of silently running
    /// a default simulation.
    pub fn parse(body: &[u8]) -> Result<JobRequest, RequestError> {
        let text =
            std::str::from_utf8(body).map_err(|_| RequestError("body is not UTF-8".into()))?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| RequestError(format!("invalid JSON: {e}")))?;
        let api_version = get_u32(&value, "api_version", API_VERSION)?;
        if api_version != API_VERSION {
            return err(format!(
                "unsupported api_version {api_version} (this server speaks {API_VERSION})"
            ));
        }
        let kind = get_str(&value, "type", "")?;
        match kind {
            "simulate" => Self::parse_simulate(&value),
            "campaign" => Self::parse_campaign(&value),
            "" => err("missing required field \"type\" (simulate | campaign)"),
            other => err(format!("unknown job type {other:?} (simulate | campaign)")),
        }
    }

    fn parse_simulate(value: &Value) -> Result<JobRequest, RequestError> {
        check_keys(
            value,
            &[
                "api_version",
                "type",
                "workflow",
                "platform",
                "nodes",
                "placement",
                "scheduler",
                "faults",
                "failover",
                "retries",
            ],
            "a simulate request",
        )?;
        let workflow = get_str(value, "workflow", "")?;
        if workflow.is_empty() {
            return err("simulate request needs a \"workflow\" spec");
        }
        validate_workflow_spec(workflow)?;
        let platform = get_str(value, "platform", "")?;
        if platform.is_empty() {
            return err("simulate request needs a \"platform\" preset");
        }
        validate_platform(platform)?;
        let nodes = get_nodes(value, 1)?;
        let placement = get_str(value, "placement", "allbb")?;
        PlacementPolicy::parse(placement).map_err(RequestError)?;
        let scheduler = get_str(value, "scheduler", "affinity")?;
        SchedulerPolicy::parse(scheduler).map_err(RequestError)?;
        let faults = get_str(value, "faults", "")?;
        if !faults.is_empty() {
            wfbb_wms::FaultSpec::parse(faults)
                .map_err(|e| RequestError(format!("bad fault spec: {e}")))?;
        }
        let failover = get_str(value, "failover", "pfs")?;
        FailoverPolicy::parse(failover).map_err(RequestError)?;
        let retries = get_u32(value, "retries", 3)?;
        Ok(JobRequest {
            api_version: API_VERSION,
            kind: JobKind::Simulate(SimulateRequest {
                workflow: workflow.to_string(),
                platform: platform.to_string(),
                nodes,
                placement: placement.to_string(),
                scheduler: scheduler.to_string(),
                faults: faults.to_string(),
                failover: failover.to_string(),
                retries,
            }),
        })
    }

    fn parse_campaign(value: &Value) -> Result<JobRequest, RequestError> {
        check_keys(
            value,
            &[
                "api_version",
                "type",
                "platform",
                "nodes",
                "policy",
                "plan_horizon",
                "workload",
            ],
            "a campaign request",
        )?;
        let platform = get_str(value, "platform", "")?;
        if platform.is_empty() {
            return err("campaign request needs a \"platform\" preset");
        }
        validate_platform(platform)?;
        let nodes = get_nodes(value, 4)?;
        let policy_label = get_str(value, "policy", "fcfs")?;
        let policy = BatchPolicy::parse(policy_label).ok_or_else(|| {
            RequestError(format!(
                "unknown policy {policy_label:?} (fcfs | easy | bb-aware | plan)"
            ))
        })?;
        let plan_horizon = get_f64(value, "plan_horizon", DEFAULT_PLAN_HORIZON)?;
        if !plan_horizon.is_finite() || plan_horizon <= 0.0 {
            return err("\"plan_horizon\" must be a positive number");
        }

        let workload = match value.get("workload") {
            None => WorkloadSource::Synthetic {
                seed: 1,
                config: SyntheticConfig {
                    max_nodes: nodes,
                    ..SyntheticConfig::default()
                },
            },
            Some(w) => {
                let wtype = get_str(w, "type", "synthetic")?;
                match wtype {
                    "synthetic" => {
                        check_keys(
                            w,
                            &[
                                "type",
                                "jobs",
                                "seed",
                                "mean_interarrival",
                                "bb_request_scale",
                                "max_nodes",
                            ],
                            "a synthetic workload",
                        )?;
                        // Counts saturate rather than wrap, so `validate`
                        // sees (and refuses) an oversized one.
                        let count = |key, default: usize| -> Result<usize, RequestError> {
                            let v = get_u64(w, key, default as u64)?;
                            Ok(usize::try_from(v).unwrap_or(usize::MAX))
                        };
                        let config = SyntheticConfig {
                            jobs: count("jobs", 20)?,
                            mean_interarrival: get_f64(w, "mean_interarrival", 30.0)?,
                            bb_request_scale: get_f64(w, "bb_request_scale", 1.0)?,
                            max_nodes: count("max_nodes", nodes)?,
                        };
                        config.validate().map_err(|e| RequestError(e.0))?;
                        WorkloadSource::Synthetic {
                            seed: get_u64(w, "seed", 1)?,
                            config,
                        }
                    }
                    "inline" => {
                        check_keys(w, &["type", "text"], "an inline workload")?;
                        let text = get_str(w, "text", "")?;
                        if text.is_empty() {
                            return err("inline workload needs a non-empty \"text\"");
                        }
                        wfbb_sched::parse_workload(text)
                            .map_err(|e| RequestError(format!("bad workload: {e}")))?;
                        WorkloadSource::Inline(text.to_string())
                    }
                    other => err(format!(
                        "unknown workload type {other:?} (synthetic | inline)"
                    ))?,
                }
            }
        };
        Ok(JobRequest {
            api_version: API_VERSION,
            kind: JobKind::Campaign(CampaignRequest {
                platform: platform.to_string(),
                nodes,
                policy,
                plan_horizon,
                workload,
            }),
        })
    }

    /// The canonical normalized rendering the cache key hashes: every
    /// field in a fixed order with defaults applied, so syntactically
    /// different but semantically identical requests normalize to one
    /// string.
    pub fn canonical(&self) -> String {
        match &self.kind {
            JobKind::Simulate(s) => format!(
                "v{}|simulate|workflow={}|platform={}|nodes={}|placement={}|scheduler={}\
                 |faults={}|failover={}|retries={}",
                self.api_version,
                s.workflow,
                s.platform,
                s.nodes,
                s.placement,
                s.scheduler,
                s.faults,
                s.failover,
                s.retries
            ),
            JobKind::Campaign(c) => {
                let workload = match &c.workload {
                    WorkloadSource::Synthetic { seed, config } => format!(
                        "synthetic:seed={},jobs={},mean_interarrival={},bb_request_scale={},max_nodes={}",
                        seed,
                        config.jobs,
                        config.mean_interarrival,
                        config.bb_request_scale,
                        config.max_nodes
                    ),
                    WorkloadSource::Inline(text) => format!("inline:{text}"),
                };
                format!(
                    "v{}|campaign|platform={}|nodes={}|policy={}|plan_horizon={}|workload={}",
                    self.api_version,
                    c.platform,
                    c.nodes,
                    c.policy.label(),
                    c.plan_horizon,
                    workload
                )
            }
        }
    }

    /// FNV-1a over the canonical bytes — the result-cache key.
    pub fn cache_key(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for byte in self.canonical().as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Short human-readable label for job listings.
    pub fn label(&self) -> String {
        match &self.kind {
            JobKind::Simulate(s) => format!("simulate {} on {}", s.workflow, s.platform),
            JobKind::Campaign(c) => {
                format!("campaign {} on {}", c.policy.label(), c.platform)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<JobRequest, RequestError> {
        JobRequest::parse(s.as_bytes())
    }

    /// Asserts `body` is rejected with an error naming `field`.
    fn assert_rejects(body: &str, field: &str) {
        let e = parse(body).unwrap_err();
        assert!(e.0.contains(field), "{body}: {e}");
    }

    #[test]
    fn oversized_simulate_nodes_are_rejected() {
        assert_rejects(
            r#"{"type":"simulate","workflow":"swarp:1","platform":"cori","nodes":65537}"#,
            "\"nodes\"",
        );
    }

    #[test]
    fn oversized_campaign_nodes_are_rejected() {
        assert_rejects(
            r#"{"type":"campaign","platform":"cori","nodes":4000000000}"#,
            "\"nodes\"",
        );
    }

    #[test]
    fn oversized_synthetic_jobs_are_rejected() {
        assert_rejects(
            r#"{"type":"campaign","platform":"cori",
                "workload":{"type":"synthetic","jobs":4000000000000}}"#,
            "\"jobs\"",
        );
    }

    #[test]
    fn oversized_swarp_pipelines_are_rejected() {
        assert_rejects(
            r#"{"type":"simulate","workflow":"swarp:4000000000","platform":"cori"}"#,
            "pipeline count",
        );
    }

    #[test]
    fn oversized_genomes_chromosomes_are_rejected() {
        assert_rejects(
            r#"{"type":"simulate","workflow":"genomes:10001","platform":"cori"}"#,
            "chromosome count",
        );
    }

    #[test]
    fn largest_accepted_sizes_still_parse() {
        parse(r#"{"type":"simulate","workflow":"swarp:1","platform":"cori","nodes":65536}"#)
            .unwrap();
        parse(
            r#"{"type":"campaign","platform":"cori","nodes":65536,
                "workload":{"type":"synthetic","jobs":10000}}"#,
        )
        .unwrap();
    }

    #[test]
    fn api_version_above_u32_max_is_rejected_not_truncated() {
        // 2^32 + 1 would truncate to 1, the supported version.
        assert_rejects(
            r#"{"type":"campaign","platform":"cori","api_version":4294967297}"#,
            "\"api_version\"",
        );
    }

    #[test]
    fn retries_above_u32_max_are_rejected_not_truncated() {
        // 2^32 + 3 would truncate to 3, the default budget.
        assert_rejects(
            r#"{"type":"simulate","workflow":"swarp:1","platform":"cori","retries":4294967299}"#,
            "\"retries\"",
        );
    }

    #[test]
    fn u32_max_retries_still_parse() {
        let r = parse(
            r#"{"type":"simulate","workflow":"swarp:1","platform":"cori","retries":4294967295}"#,
        )
        .unwrap();
        let JobKind::Simulate(s) = &r.kind else {
            panic!("expected simulate")
        };
        assert_eq!(s.retries, u32::MAX);
    }

    fn synthetic(workload: &str) -> String {
        format!(
            r#"{{"type":"campaign","platform":"cori","workload":{{"type":"synthetic",{workload}}}}}"#
        )
    }

    #[test]
    fn zero_mean_interarrival_is_rejected() {
        assert_rejects(
            &synthetic(r#""mean_interarrival":0"#),
            "\"mean_interarrival\"",
        );
    }

    #[test]
    fn negative_bb_request_scale_is_rejected() {
        assert_rejects(
            &synthetic(r#""bb_request_scale":-1.5"#),
            "\"bb_request_scale\"",
        );
    }

    #[test]
    fn zero_max_nodes_is_rejected() {
        assert_rejects(&synthetic(r#""max_nodes":0"#), "\"max_nodes\"");
    }

    #[test]
    fn removed_solver_key_is_an_unknown_field() {
        assert_rejects(
            r#"{"type":"campaign","platform":"cori","solver":"naive"}"#,
            "unknown field \"solver\"",
        );
    }

    #[test]
    fn minimal_campaign_request_parses_with_defaults() {
        let r = parse(r#"{"type":"campaign","platform":"cori:striped"}"#).unwrap();
        let JobKind::Campaign(c) = &r.kind else {
            panic!("expected campaign")
        };
        assert_eq!(c.nodes, 4);
        assert_eq!(c.policy, BatchPolicy::Fcfs);
        let WorkloadSource::Synthetic { seed, config } = &c.workload else {
            panic!("expected synthetic")
        };
        assert_eq!(*seed, 1);
        assert_eq!(config.jobs, 20);
        assert_eq!(config.max_nodes, 4);
    }

    #[test]
    fn defaults_and_explicit_defaults_share_a_key() {
        let implicit = parse(r#"{"type":"campaign","platform":"cori:striped"}"#).unwrap();
        let explicit = parse(
            r#"{"type":"campaign","platform":"cori:striped","nodes":4,"policy":"fcfs",
                "workload":{"type":"synthetic","jobs":20,"seed":1}}"#,
        )
        .unwrap();
        assert_eq!(implicit.cache_key(), explicit.cache_key());
        assert_eq!(implicit.canonical(), explicit.canonical());
    }

    #[test]
    fn every_field_perturbation_changes_the_key() {
        let base = r#"{"type":"campaign","platform":"cori:striped","nodes":8,"policy":"bb-aware",
            "workload":{"type":"synthetic","jobs":8,"seed":7,"bb_request_scale":1.0}}"#;
        let key = parse(base).unwrap().cache_key();
        for perturbed in [
            base.replace("\"seed\":7", "\"seed\":8"),
            base.replace("bb-aware", "easy"),
            base.replace("\"bb_request_scale\":1.0", "\"bb_request_scale\":2.0"),
            base.replace("\"nodes\":8", "\"nodes\":6"),
            base.replace("\"jobs\":8", "\"jobs\":9"),
            base.replace("cori:striped", "cori:private"),
        ] {
            assert_ne!(parse(&perturbed).unwrap().cache_key(), key, "{perturbed}");
        }
    }

    #[test]
    fn unknown_fields_and_types_are_rejected() {
        assert!(parse(r#"{"type":"campaign","platform":"cori","sede":7}"#).is_err());
        assert!(parse(r#"{"type":"teleport"}"#).is_err());
        assert!(parse(r#"{"platform":"cori"}"#).is_err());
        assert!(parse("{nope").is_err());
        assert!(parse(r#"{"type":"campaign","platform":"cori","api_version":99}"#).is_err());
    }

    #[test]
    fn file_backed_specs_are_rejected() {
        // A path is not a preset...
        assert!(parse(r#"{"type":"campaign","platform":"/tmp/platform.json"}"#).is_err());
        // ...and not a generator spec.
        assert!(
            parse(r#"{"type":"simulate","workflow":"/tmp/wf.json","platform":"summit"}"#).is_err()
        );
    }

    #[test]
    fn simulate_request_validates_sub_specs() {
        let ok = parse(
            r#"{"type":"simulate","workflow":"swarp:2:8","platform":"cori:striped",
                "placement":"fraction:0.5","faults":"bb:0@2","failover":"bb","retries":5}"#,
        )
        .unwrap();
        assert!(ok.canonical().contains("faults=bb:0@2"));
        assert!(parse(
            r#"{"type":"simulate","workflow":"swarp:2","platform":"summit","placement":"magic"}"#
        )
        .is_err());
        assert!(parse(
            r#"{"type":"simulate","workflow":"swarp:2","platform":"summit","faults":"bb:x@y"}"#
        )
        .is_err());
        assert_rejects(
            r#"{"type":"simulate","workflow":"swarp:2","platform":"summit","failover":"nvme"}"#,
            "failover",
        );
        assert_rejects(
            r#"{"type":"simulate","workflow":"swarp:2","platform":"summit","scheduler":"chaotic"}"#,
            "scheduler",
        );
    }

    #[test]
    fn inline_workloads_are_validated_and_content_keyed() {
        let a = parse(
            r#"{"type":"campaign","platform":"cori:striped","workload":{"type":"inline",
                "text":"workflow=swarp:1:8 nodes=2 bb=2e9 walltime=600"}}"#,
        )
        .unwrap();
        let b = parse(
            r#"{"type":"campaign","platform":"cori:striped","workload":{"type":"inline",
                "text":"workflow=swarp:1:8 nodes=2 bb=3e9 walltime=600"}}"#,
        )
        .unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        assert!(parse(
            r#"{"type":"campaign","platform":"cori","workload":{"type":"inline","text":"garbage"}}"#
        )
        .is_err());
    }
}
