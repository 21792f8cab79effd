//! Scheduler decision-log acceptance tests: bitwise determinism of the
//! JSONL export (per solve mode), byte-identity of the campaign report
//! with the log on vs. off, the exact wait-decomposition identity on the
//! oversubscribed 20-job acceptance workload, plan-search records, and a
//! golden-file pin of the JSONL schema (regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test decision_log`).

use proptest::prelude::*;
use serde_json::Value;

use wfbb::prelude::*;
use wfbb::sched::{
    run_campaign, run_campaign_logged, BatchPolicy, CampaignConfig, CampaignRun, JobSpec,
    JobStatus, SyntheticConfig,
};

const NODES: usize = 8;

fn config(policy: BatchPolicy) -> CampaignConfig {
    CampaignConfig::new(presets::cori(NODES, BbMode::Striped))
        .with_policy(policy)
        .with_platform_label("cori:striped")
        .with_decision_log(true)
}

/// The oversubscribed 20-job acceptance workload of `tests/campaign.rs`.
fn pressured_campaign() -> Vec<JobSpec> {
    wfbb::sched::synthetic_jobs(
        20260806,
        &SyntheticConfig {
            jobs: 20,
            mean_interarrival: 15.0,
            bb_request_scale: 2.0,
            max_nodes: 2,
        },
    )
    .unwrap()
}

/// A smaller pressured campaign for the golden file and proptest cases.
fn small_campaign(seed: u64, jobs: usize) -> Vec<JobSpec> {
    wfbb::sched::synthetic_jobs(
        seed,
        &SyntheticConfig {
            jobs,
            mean_interarrival: 15.0,
            bb_request_scale: 2.0,
            max_nodes: 2,
        },
    )
    .unwrap()
}

fn run_logged(policy: BatchPolicy, jobs: &[JobSpec]) -> CampaignRun {
    run_campaign_logged(&config(policy), jobs).unwrap()
}

// ---- golden file --------------------------------------------------------

#[test]
fn decision_jsonl_matches_golden_file() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/campaign_decisions.jsonl"
    );
    let run = run_logged(BatchPolicy::BbAware, &small_campaign(20260806, 8));
    let jsonl = run.log.to_jsonl();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden).parent().unwrap()).unwrap();
        std::fs::write(golden, &jsonl).unwrap();
    }
    let expected = std::fs::read_to_string(golden)
        .expect("golden file missing; run UPDATE_GOLDEN=1 cargo test --test decision_log");
    assert_eq!(
        jsonl, expected,
        "decision-log JSONL drifted from the golden file; if the schema \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and update \
         docs/trace-format.md (bumping TRACE_SCHEMA_VERSION on breaking \
         changes)"
    );
}

#[test]
fn decision_jsonl_lines_all_parse_and_cover_schema() {
    let run = run_logged(BatchPolicy::BbAware, &pressured_campaign());
    let jsonl = run.log.to_jsonl();
    let mut types = std::collections::BTreeSet::new();
    for (i, line) in jsonl.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("line {} lacks a type tag", i + 1));
        types.insert(ty.to_string());
    }
    for expected in ["header", "decision", "pool", "counters", "summary"] {
        assert!(types.contains(expected), "missing record type {expected:?}");
    }
    // Header carries the trace schema version shared with run traces.
    let header: Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("version").and_then(Value::as_u64),
        Some(wfbb::wms::TRACE_SCHEMA_VERSION as u64)
    );
    assert_eq!(
        header.get("schema").and_then(Value::as_str),
        Some("wfbb-sched-decisions")
    );
    // The summary's ledger tallies balance: every reserve was released.
    let summary: Value = serde_json::from_str(jsonl.lines().last().unwrap()).unwrap();
    assert_eq!(
        summary.get("pool_reserves").and_then(Value::as_u64),
        summary.get("pool_releases").and_then(Value::as_u64)
    );
    assert!(
        summary
            .get("min_pool_free")
            .and_then(Value::as_f64)
            .unwrap()
            >= 0.0
    );
}

// ---- determinism --------------------------------------------------------

/// Same seed, same solve mode ⇒ bitwise-identical decision logs; and the
/// partitioned solver's thread count never leaks into the log.
#[test]
fn decision_log_is_bitwise_deterministic_per_mode() {
    let jobs = pressured_campaign();
    for mode in [SolveMode::Incremental, SolveMode::Naive] {
        let a = run_campaign_logged(&config(BatchPolicy::BbAware).with_solve_mode(mode), &jobs)
            .unwrap();
        let b = run_campaign_logged(&config(BatchPolicy::BbAware).with_solve_mode(mode), &jobs)
            .unwrap();
        assert_eq!(
            a.log.to_jsonl(),
            b.log.to_jsonl(),
            "{mode:?} log must be deterministic"
        );
        assert_eq!(a.report.to_json(), b.report.to_json());
    }
}

/// Enabling the decision log leaves the campaign report byte-identical —
/// the acceptance-criteria pin, checked across every policy.
#[test]
fn log_on_report_is_byte_identical_to_log_off() {
    let jobs = pressured_campaign();
    for policy in BatchPolicy::ALL {
        let off = run_campaign(&config(policy).with_decision_log(false), &jobs).unwrap();
        let on = run_logged(policy, &jobs);
        assert_eq!(
            off.to_json(),
            on.report.to_json(),
            "{}: the decision log must not perturb the report",
            policy.label()
        );
        assert_eq!(off.jobs_csv(), on.report.jobs_csv());
        assert_eq!(off.perfetto_trace_json(), on.report.perfetto_trace_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Log-on/log-off report equivalence over randomized campaigns.
    #[test]
    fn log_never_perturbs_reports(seed in 1u64..500, jobs in 4usize..10) {
        let workload = small_campaign(seed, jobs);
        let policy = match seed % 3 {
            0 => BatchPolicy::Fcfs,
            1 => BatchPolicy::EasyBackfill,
            _ => BatchPolicy::BbAware,
        };
        let off = run_campaign(&config(policy).with_decision_log(false), &workload).unwrap();
        let on = run_campaign_logged(&config(policy), &workload).unwrap();
        prop_assert_eq!(off.to_json(), on.report.to_json());
    }
}

// ---- wait decomposition -------------------------------------------------

/// On the acceptance workload, every job's queue wait decomposes exactly
/// into nodes + bb + reservation time (within 1e-9 of floating
/// accumulation), with exact zeros for jobs that never waited.
#[test]
fn wait_decomposition_sums_exactly_to_queue_wait() {
    let jobs = pressured_campaign();
    for policy in BatchPolicy::ALL {
        let run = run_logged(policy, &jobs);
        let mut blocked_jobs = 0;
        for j in &run.report.jobs {
            assert_eq!(j.status, JobStatus::Completed, "{}", policy.label());
            let sum = j.blocked_on_nodes + j.blocked_on_bb + j.blocked_on_reservation;
            assert!(
                (sum - j.wait).abs() <= 1e-9,
                "{} job {}: decomposition {sum} != wait {}",
                policy.label(),
                j.name,
                j.wait
            );
            if j.wait == 0.0 {
                assert_eq!(j.blocked_on_nodes, 0.0, "{}", j.name);
                assert_eq!(j.blocked_on_bb, 0.0, "{}", j.name);
                assert_eq!(j.blocked_on_reservation, 0.0, "{}", j.name);
            } else {
                blocked_jobs += 1;
            }
        }
        assert!(
            blocked_jobs > 0,
            "{}: the pressured campaign must block someone",
            policy.label()
        );
        let totals = run.report.blocked_on_nodes_total
            + run.report.blocked_on_bb_total
            + run.report.blocked_on_reservation_total;
        let waits: f64 = run.report.jobs.iter().map(|j| j.wait).sum();
        assert!((totals - waits).abs() <= 1e-6, "{}", policy.label());
        assert_ne!(run.report.dominant_block(), "none", "{}", policy.label());
    }
}

// ---- plan records and profile -------------------------------------------

/// Under the plan policy the log carries ordering-search records with
/// scored candidates, and the profile counts the forks.
#[test]
fn plan_policy_logs_ordering_searches() {
    let jobs = small_campaign(3, 8);
    let run = run_logged(BatchPolicy::Plan, &jobs);
    let jsonl = run.log.to_jsonl();
    let plans: Vec<Value> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .filter(|v: &Value| v.get("type").and_then(Value::as_str) == Some("plan"))
        .collect();
    assert!(!plans.is_empty(), "plan campaign must record searches");
    const RULES: [&str; 5] = [
        "arrival",
        "shortest_first",
        "smallest_bb_first",
        "largest_bb_first",
        "fewest_nodes_first",
    ];
    for p in &plans {
        let winner = p.get("winner").and_then(Value::as_str).unwrap();
        assert!(RULES.contains(&winner), "unknown winner {winner:?}");
        let candidates = p.get("candidates").and_then(Value::as_array).unwrap();
        assert!(!candidates.is_empty());
        for c in candidates {
            let rule = c.get("rule").and_then(Value::as_str).unwrap();
            assert!(RULES.contains(&rule));
            assert!(c.get("score").and_then(Value::as_f64).unwrap() >= 1.0 - 1e-9);
            assert!(!c.get("order").and_then(Value::as_array).unwrap().is_empty());
        }
        // The winner is one of the scored candidates.
        assert!(candidates
            .iter()
            .any(|c| c.get("rule").and_then(Value::as_str) == Some(winner)));
    }
    assert!(run.profile.plan_forks > 0, "forks must be counted");
    assert!(run.profile.plan_choices as usize >= plans.len());
    assert!(run.profile.admission_passes > 0);
    assert!(run.profile.events > 0);
}

/// The decision lane survives into the campaign Perfetto trace, and the
/// partition counters surface in both exports.
#[test]
fn perfetto_and_jsonl_surface_decisions_and_partition_counters() {
    let jobs = small_campaign(20260806, 8);
    let run = run_campaign_logged(&config(BatchPolicy::BbAware), &jobs).unwrap();
    let trace = run.report.perfetto_trace_with_decisions(&run.log);
    assert!(trace.contains("\"name\":\"scheduler\""), "decision lane");
    assert!(trace.contains("\"name\":\"bb_pool_free\""), "pool counter");
    assert!(trace.contains("\"name\":\"engine_counters\""));
    assert!(trace.contains("\"partitioned_solves\":"));
    let jsonl = run.log.to_jsonl();
    let counters = jsonl
        .lines()
        .find(|l| l.contains("\"type\":\"counters\""))
        .expect("counters line");
    for key in [
        "partitioned_solves",
        "components",
        "component_max",
        "singleton_components",
        "components_reused",
    ] {
        assert!(counters.contains(&format!("\"{key}\":")), "{counters}");
    }
    let report_json = run.report.to_json();
    assert!(report_json.contains("\"engine_counters\":{"));
    assert!(report_json.contains("\"components_reused\":"));
}
