//! Campaign workload sources: a plain-text workload file format and a
//! seeded synthetic generator.
//!
//! # Workload file format
//!
//! One job per line, `#` starts a comment, tokens are whitespace
//! separated `key=value` pairs:
//!
//! ```text
//! # workflow        nodes  bb (bytes)  walltime estimate (s)
//! workflow=swarp:2:8 nodes=2 bb=4e9 walltime=400 submit=0   name=swarp-a
//! workflow=genomes:2 nodes=4 bb=12e9 walltime=3000 submit=60 placement=threshold:1e9
//! workflow=swarp:1:8 nodes=1 bb=2e9 walltime=300 submit=90  kill=resample_0_3@20 retries=2
//! ```
//!
//! Required keys: `workflow`, `nodes`, `bb`, `walltime`. Optional:
//! `submit` (default 0), `name` (default `job<line-index>`),
//! `placement` (`allbb` | `allpfs` | `fraction:<f>` | `threshold:<bytes>`),
//! `kill=<task>@<time>` (repeatable), `retries=<n>`,
//! `checkpoint=<interval>@<bb|pfs>[:<bytes>]` (see
//! `wfbb_wms::CheckpointPolicy`).
//!
//! # Synthetic campaigns
//!
//! [`synthetic_jobs`] draws a seeded stream of jobs with exponential
//! interarrival times from a small mix of SWarp and 1000Genomes job
//! classes — the same SplitMix64 generator `wfbb_simcore::seeded_failures`
//! uses, so campaigns are reproducible from `(seed, config)` alone.

use crate::job::JobSpec;
use wfbb_storage::PlacementPolicy;
use wfbb_wms::CheckpointPolicy;
use wfbb_workflow::Workflow;
use wfbb_workloads::{GenomesConfig, SwarpConfig};

/// Error from workload parsing or generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError(pub String);

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload error: {}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WorkloadError> {
    Err(WorkloadError(msg.into()))
}

/// Largest `jobs` count [`synthetic_jobs`] draws.
pub const MAX_SYNTHETIC_JOBS: usize = 10_000;
/// Largest pipeline count a `swarp:<pipelines>` spec builds.
pub const MAX_SWARP_PIPELINES: usize = 10_000;
/// Largest chromosome count a `genomes:<chromosomes>` spec builds.
pub const MAX_GENOMES_CHROMOSOMES: usize = 10_000;

/// Parses the count `what` of `spec` as an integer in `1..=max`. Counts
/// size allocations, so an unbounded one could abort the process.
fn parse_count(text: &str, what: &str, max: usize, spec: &str) -> Result<usize, WorkloadError> {
    let n: usize = text
        .parse()
        .map_err(|_| WorkloadError(format!("bad {what} in '{spec}'")))?;
    if n == 0 || n > max {
        return err(format!("'{spec}': {what} must be in 1..={max}"));
    }
    Ok(n)
}

/// Builds a workflow from a campaign workflow spec: `swarp:<pipelines>`
/// `[:<cores>]` or `genomes:<chromosomes>`.
pub fn build_workflow(spec: &str) -> Result<Workflow, WorkloadError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["swarp", p] | ["swarp", p, _] => {
            let pipelines = parse_count(p, "pipeline count", MAX_SWARP_PIPELINES, spec)?;
            let mut cfg = SwarpConfig::new(pipelines);
            if let [_, _, c] = parts.as_slice() {
                let cores: usize = c
                    .parse()
                    .map_err(|_| WorkloadError(format!("bad cores-per-task in '{spec}'")))?;
                if cores == 0 {
                    return err(format!("'{spec}': cores-per-task must be >= 1"));
                }
                cfg = cfg.with_cores_per_task(cores);
            }
            Ok(cfg.build())
        }
        ["genomes", c] => {
            let chromosomes = parse_count(c, "chromosome count", MAX_GENOMES_CHROMOSOMES, spec)?;
            Ok(GenomesConfig::new(chromosomes).build())
        }
        _ => err(format!(
            "unknown workflow spec '{spec}' (expected swarp:<p>[:<c>] or genomes:<c>)"
        )),
    }
}

/// Parses a workload file (see the module docs for the format).
pub fn parse_workload(text: &str) -> Result<Vec<JobSpec>, WorkloadError> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |m: &str| format!("line {}: {m}", lineno + 1);
        let mut workflow_spec = None;
        let mut nodes = None;
        let mut bb = None;
        let mut walltime = None;
        let mut submit = 0.0f64;
        let mut name = None;
        let mut placement = PlacementPolicy::AllBb;
        let mut kills: Vec<(String, f64)> = Vec::new();
        let mut retries = 3u32;
        let mut checkpoint: Option<CheckpointPolicy> = None;
        for token in line.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                return err(at(&format!("expected key=value, got '{token}'")));
            };
            match key {
                "workflow" => workflow_spec = Some(value.to_string()),
                "nodes" => {
                    nodes = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| WorkloadError(at(&format!("bad nodes '{value}'"))))?,
                    )
                }
                "bb" => {
                    bb = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| WorkloadError(at(&format!("bad bb '{value}'"))))?,
                    )
                }
                "walltime" => {
                    walltime = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| WorkloadError(at(&format!("bad walltime '{value}'"))))?,
                    )
                }
                "submit" => {
                    submit = value
                        .parse::<f64>()
                        .map_err(|_| WorkloadError(at(&format!("bad submit '{value}'"))))?
                }
                "name" => name = Some(value.to_string()),
                "placement" => {
                    placement = PlacementPolicy::parse(value).map_err(|e| WorkloadError(at(&e)))?
                }
                "kill" => {
                    let Some((task, time)) = value.split_once('@') else {
                        return err(at(&format!("kill must be <task>@<time>, got '{value}'")));
                    };
                    let t: f64 = time
                        .parse()
                        .map_err(|_| WorkloadError(at(&format!("bad kill time '{time}'"))))?;
                    kills.push((task.to_string(), t));
                }
                "retries" => {
                    retries = value
                        .parse::<u32>()
                        .map_err(|_| WorkloadError(at(&format!("bad retries '{value}'"))))?
                }
                "checkpoint" => {
                    checkpoint = Some(
                        CheckpointPolicy::parse(value)
                            .map_err(|e| WorkloadError(at(&e.message)))?,
                    )
                }
                _ => return err(at(&format!("unknown key '{key}'"))),
            }
        }
        let workflow_spec = workflow_spec.ok_or_else(|| WorkloadError(at("missing workflow=")))?;
        let nodes = nodes.ok_or_else(|| WorkloadError(at("missing nodes=")))?;
        let bb = bb.ok_or_else(|| WorkloadError(at("missing bb=")))?;
        let walltime = walltime.ok_or_else(|| WorkloadError(at("missing walltime=")))?;
        let workflow = build_workflow(&workflow_spec).map_err(|e| WorkloadError(at(&e.0)))?;
        let mut job = JobSpec::new(
            name.unwrap_or_else(|| format!("job{}", jobs.len())),
            submit,
            workflow_spec,
            workflow,
            nodes,
            bb,
            walltime,
        )
        .with_placement(placement)
        .with_max_attempts(retries);
        for (task, time) in kills {
            job = job.with_kill(task, time);
        }
        if let Some(policy) = checkpoint {
            job = job.with_checkpoint(policy);
        }
        jobs.push(job);
    }
    // Queue order is submit time with job index as the tie-break; sort
    // stably so the file's order is the tie-break.
    jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit));
    Ok(jobs)
}

/// Shape of a synthetic campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of jobs to draw.
    pub jobs: usize,
    /// Mean of the exponential interarrival distribution, seconds.
    pub mean_interarrival: f64,
    /// Multiplier on every job class's base BB request — crank it up to
    /// oversubscribe the pool and make the policies diverge.
    pub bb_request_scale: f64,
    /// Largest node request any class may draw (clamped to this).
    pub max_nodes: usize,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            jobs: 20,
            mean_interarrival: 30.0,
            bb_request_scale: 1.0,
            max_nodes: 4,
        }
    }
}

impl SyntheticConfig {
    /// Checks that [`synthetic_jobs`] can draw this campaign: `jobs` in
    /// `1..=MAX_SYNTHETIC_JOBS`, `mean_interarrival` and
    /// `bb_request_scale` finite and positive, `max_nodes` at least 1.
    /// The error names the offending field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.jobs == 0 || self.jobs > MAX_SYNTHETIC_JOBS {
            return err(format!("\"jobs\" must be in 1..={MAX_SYNTHETIC_JOBS}"));
        }
        for (field, value) in [
            ("mean_interarrival", self.mean_interarrival),
            ("bb_request_scale", self.bb_request_scale),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return err(format!("\"{field}\" must be a positive number"));
            }
        }
        if self.max_nodes == 0 {
            return err("\"max_nodes\" must be at least 1");
        }
        Ok(())
    }
}

/// SplitMix64 — the same tiny deterministic generator
/// `wfbb_simcore::seeded_failures` uses, re-implemented here so the
/// scheduler does not depend on simcore's private helpers.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` by bounded rejection sampling: draws whose
    /// residue class is over-represented in `[0, 2^64)` are rejected, so
    /// every value is *exactly* equally likely (a plain `% n` is biased
    /// toward small values whenever `n` does not divide `2^64`). For
    /// power-of-two `n` — like the current 4-entry class table — the
    /// threshold is 0, nothing is ever rejected, and the output stream
    /// is bit-identical to the old modulo code.
    fn next_bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // 2^64 mod n, computed without overflowing u64.
        let threshold = (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v >= threshold {
                return v % n;
            }
        }
    }
}

/// A synthetic job class: workflow shape + base resource request.
struct JobClass {
    spec: &'static str,
    nodes: usize,
    /// Base BB request, bytes (scaled by `bb_request_scale` and jitter).
    bb: f64,
    /// Conservative walltime estimate, seconds.
    walltime: f64,
}

/// The synthetic mix: small/large SWarp and small/medium 1000Genomes,
/// with deliberately generous walltime estimates (backfilling's
/// guarantees assume conservative estimates, like real batch systems).
///
/// BB requests are *allocations*, not footprints: like real DataWarp
/// reservations they are TB-scale — sized against Cori's 25.6 TB
/// striped pool (5%–35% each at scale 1), so a `bb_request_scale`
/// around 2 makes concurrent requests oversubscribe the pool and the
/// scheduling policies diverge.
const CLASSES: [JobClass; 4] = [
    JobClass {
        spec: "swarp:1:8",
        nodes: 1,
        bb: 1.28e12,
        walltime: 600.0,
    },
    JobClass {
        spec: "swarp:2:8",
        nodes: 2,
        bb: 2.56e12,
        walltime: 600.0,
    },
    JobClass {
        spec: "genomes:2",
        nodes: 2,
        bb: 5.12e12,
        walltime: 2400.0,
    },
    JobClass {
        spec: "genomes:4",
        nodes: 4,
        bb: 8.96e12,
        walltime: 3600.0,
    },
];

/// Draws a deterministic synthetic campaign: exponential interarrivals
/// with the configured mean, job classes chosen uniformly, BB requests
/// jittered ±25% around the class base times `bb_request_scale`.
pub fn synthetic_jobs(seed: u64, cfg: &SyntheticConfig) -> Result<Vec<JobSpec>, WorkloadError> {
    cfg.validate()?;
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    let mut jobs = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        // Exponential interarrival: -ln(1-u) * mean, u in [0,1).
        t += -(1.0 - rng.next_f64()).ln() * cfg.mean_interarrival;
        let class = &CLASSES[rng.next_bounded(CLASSES.len() as u64) as usize];
        let jitter = 0.75 + 0.5 * rng.next_f64();
        let nodes = class.nodes.min(cfg.max_nodes);
        let workflow = build_workflow(class.spec)?;
        jobs.push(JobSpec::new(
            format!("j{i:02}-{}", class.spec.replace(':', "-")),
            t,
            class.spec,
            workflow,
            nodes,
            class.bb * cfg.bb_request_scale * jitter,
            class.walltime,
        ));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_workflow_counts_are_rejected() {
        for spec in [
            "swarp:10001",
            "swarp:4000000000",
            "genomes:10001",
            "swarp:2:0",
        ] {
            assert!(build_workflow(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn oversized_synthetic_campaigns_are_rejected() {
        let cfg = SyntheticConfig {
            jobs: MAX_SYNTHETIC_JOBS + 1,
            ..SyntheticConfig::default()
        };
        assert!(synthetic_jobs(1, &cfg).is_err());
    }

    #[test]
    fn synthetic_configs_that_cannot_run_name_their_field() {
        let base = SyntheticConfig::default();
        for (field, cfg) in [
            ("\"jobs\"", SyntheticConfig { jobs: 0, ..base }),
            (
                "\"mean_interarrival\"",
                SyntheticConfig {
                    mean_interarrival: 0.0,
                    ..base
                },
            ),
            (
                "\"bb_request_scale\"",
                SyntheticConfig {
                    bb_request_scale: f64::NAN,
                    ..base
                },
            ),
            (
                "\"max_nodes\"",
                SyntheticConfig {
                    max_nodes: 0,
                    ..base
                },
            ),
        ] {
            let e = cfg.validate().unwrap_err();
            assert!(e.0.contains(field), "{field}: {e}");
            assert_eq!(synthetic_jobs(1, &cfg).unwrap_err(), e);
        }
        assert_eq!(base.validate(), Ok(()));
    }

    #[test]
    fn largest_accepted_counts_still_parse() {
        // Building the full 10,000-pipeline workflow is slow in debug
        // builds; the bound itself lives in `parse_count`.
        let top = |max: usize| parse_count(&max.to_string(), "count", max, "spec");
        assert_eq!(top(MAX_SWARP_PIPELINES), Ok(MAX_SWARP_PIPELINES));
        assert_eq!(top(MAX_GENOMES_CHROMOSOMES), Ok(MAX_GENOMES_CHROMOSOMES));
    }

    #[test]
    fn parses_a_workload_file() {
        let text = "\
# a comment
workflow=swarp:1:8 nodes=1 bb=2e9 walltime=300 name=a
workflow=genomes:1 nodes=2 bb=4e9 walltime=5000 submit=60 placement=allpfs retries=1
workflow=swarp:2 nodes=2 bb=1e9 walltime=400 submit=30 kill=resample_0_0@10
";
        let jobs = parse_workload(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].nodes, 1);
        // Sorted by submit time.
        assert_eq!(jobs[1].submit, 30.0);
        assert_eq!(jobs[1].kills, vec![("resample_0_0".to_string(), 10.0)]);
        assert_eq!(jobs[2].placement, wfbb_storage::PlacementPolicy::AllPfs);
        assert_eq!(jobs[2].max_attempts, 1);
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(parse_workload("workflow=swarp:1 nodes=1 bb=1e9").is_err());
        assert!(parse_workload("workflow=swarp:1 nodes=1 bb=1e9 walltime=10 bogus=1").is_err());
        assert!(parse_workload("workflow=tycho:1 nodes=1 bb=1e9 walltime=10").is_err());
        assert!(parse_workload("workflow=swarp:0 nodes=1 bb=1e9 walltime=10").is_err());
    }

    #[test]
    fn parses_checkpoint_policies() {
        let jobs = parse_workload(
            "workflow=swarp:1:8 nodes=1 bb=2e9 walltime=300 checkpoint=60@bb\n\
             workflow=swarp:1:8 nodes=1 bb=2e9 walltime=300 checkpoint=45@pfs:3e9\n\
             workflow=swarp:1:8 nodes=1 bb=2e9 walltime=300\n",
        )
        .unwrap();
        let a = jobs[0].checkpoint.unwrap();
        assert_eq!(a.interval, 60.0);
        assert_eq!(a.target, wfbb_wms::CheckpointTier::Bb);
        assert_eq!(a.bytes, None);
        let b = jobs[1].checkpoint.unwrap();
        assert_eq!(b.target, wfbb_wms::CheckpointTier::Pfs);
        assert_eq!(b.bytes, Some(3e9));
        assert!(jobs[2].checkpoint.is_none(), "checkpoint stays opt-in");
        // Parse errors carry the line number and the grammar message.
        let err = parse_workload("workflow=swarp:1 nodes=1 bb=1e9 walltime=10 checkpoint=60@tape")
            .unwrap_err();
        assert!(err.0.contains("line 1"), "{}", err.0);
    }

    #[test]
    fn synthetic_is_deterministic_and_seed_sensitive() {
        let cfg = SyntheticConfig::default();
        let a = synthetic_jobs(42, &cfg).unwrap();
        let b = synthetic_jobs(42, &cfg).unwrap();
        assert_eq!(a.len(), cfg.jobs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.bb_bytes, y.bb_bytes);
            assert_eq!(x.workflow_spec, y.workflow_spec);
        }
        let c = synthetic_jobs(43, &cfg).unwrap();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.submit != y.submit
                || x.bb_bytes != y.bb_bytes
                || x.workflow_spec != y.workflow_spec),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn synthetic_submits_are_nondecreasing() {
        let jobs = synthetic_jobs(7, &SyntheticConfig::default()).unwrap();
        for w in jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
    }

    #[test]
    fn bounded_sampling_matches_modulo_for_power_of_two_n() {
        // CLASSES.len() is 4, a power of two: the rejection threshold is
        // 0 and the draw stream must be bit-identical to the old
        // `next_u64() % n` code (no regenerated workload goldens).
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert_eq!(a.next_bounded(4), b.next_u64() % 4);
        }
    }

    #[test]
    fn bounded_sampling_is_unbiased_for_awkward_n() {
        // n = 3 does not divide 2^64; `% 3` over-represents some residues
        // by construction, while rejection sampling keeps every class
        // within tight binomial bounds of the uniform expectation.
        let mut rng = SplitMix64::new(1234);
        let n = 3u64;
        let draws = 300_000usize;
        let mut counts = [0usize; 3];
        for _ in 0..draws {
            let v = rng.next_bounded(n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        // ~13 standard deviations of slack: astronomically unlikely to
        // flake, tight enough to catch a systematic bias.
        let tol = 13.0 * (expect * (1.0 - 1.0 / n as f64)).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < tol,
                "class {i}: {c} draws vs expectation {expect:.0} ± {tol:.0}"
            );
        }
    }
}
