//! `wfbb` — simulate workflow executions on burst-buffer platforms.
//!
//! ```text
//! wfbb simulate --workflow swarp:4 --platform cori:private \
//!               --placement fraction:0.5 [--nodes 1] [--scheduler affinity] [--gantt 60] \
//!               [--explain 3 | --explain-json report.json] \
//!               [--trace-out trace.json --trace-format perfetto|jsonl]
//! wfbb campaign --platform cori:striped --nodes 4 --policy bb-aware \
//!               [--workload jobs.txt | --jobs 20 --seed 1] \
//!               [--csv out.csv] [--json out.json] [--trace-out trace.json] \
//!               [--decision-log decisions.jsonl] [--explain-sched 5] \
//!               [--explain-sched-json explain.json] [--progress]
//! wfbb generate --workflow genomes:22 --out wf.json
//! wfbb inspect  --workflow wf.json [--dot graph.dot]
//! wfbb serve    [--addr 127.0.0.1:8080] [--workers 2] [--cache-mb 64]
//!               [--tenant-quota 4] [--job-timeout 300]
//!               [--job-ttl 600] [--max-jobs 1024]
//! ```
//!
//! Platform specs: `cori[:private|:striped]`, `summit`, `generic`, or a
//! platform JSON file. Workflow specs: `swarp:<pipelines>[:<cores>]`,
//! `genomes:<chromosomes>`, or a workflow JSON file. Placement specs:
//! `allbb`, `allpfs`, `fraction:<f>`, `threshold:<bytes>`.
//!
//! `--explain <k>` prints the makespan-explainability report (top-k
//! contention hotspots with victims, the executed critical path and its
//! compute/I-O/wait composition, achieved-vs-nominal tier bandwidth);
//! `--explain-json <path>` writes the same report as machine-readable
//! JSON.
//!
//! `campaign` simulates a multi-tenant batch campaign: a stream of
//! workflow jobs (from a workload file or seeded synthetic arrivals) is
//! admitted onto one shared machine under `--policy fcfs|easy|bb-aware`
//! and executed concurrently; see `docs/scheduler.md`.
//!
//! `--faults <spec|file>` injects deterministic faults (BB node
//! failures, tier degradations, task kills) using the grammar of
//! `docs/failure-model.md`; when the argument names an existing file,
//! the spec is read from it (one event per line, `#` comments).
//! `--failover pfs|bb` selects where accesses re-route when a BB
//! namespace dies, and `--retries <n>` caps re-execution attempts per
//! killed task.

mod args;

use args::{parse_platform, parse_workflow, Args, CliError};
use wfbb_storage::{FailoverPolicy, PlacementPolicy};
use wfbb_wms::{SchedulerPolicy, SimulationBuilder, TelemetryConfig};

const USAGE: &str = "\
usage:
  wfbb simulate --workflow <spec> --platform <spec> [--placement <spec>]
                [--nodes <n>] [--scheduler affinity|least-loaded|round-robin]
                [--gantt <width>] [--explain <k>] [--explain-json <path>]
                [--trace-out <path> [--trace-format perfetto|jsonl]]
                [--faults <spec|file>] [--failover pfs|bb] [--retries <n>]
                [--checkpoint <interval>@<bb|pfs>[:<bytes>]]
  wfbb campaign --platform <spec> [--nodes <n>]
                [--policy fcfs|easy|bb-aware|plan] [--plan-horizon <s>]
                (--workload <file> | [--jobs <n>] [--seed <s>]
                 [--mean-interarrival <s>] [--bb-scale <f>] [--max-nodes <n>])
                [--faults <spec|file>] [--checkpoint <spec>]
                [--csv <path>] [--json <path>] [--trace-out <path>]
                [--decision-log <path>] [--explain-sched <k>]
                [--explain-sched-json <path>] [--progress]
  wfbb generate --workflow <spec> --out <file.json>
  wfbb inspect  --workflow <spec> [--dot <file.dot>]
  wfbb serve    [--addr <host:port>] [--workers <n>] [--cache-mb <mb>]
                [--tenant-quota <n>] [--job-timeout <s>]
                [--job-ttl <s>] [--max-jobs <n>]

specs:
  workflow:  swarp:<pipelines>[:<cores>] | genomes:<chromosomes>
             | wfcommons:<trace.json>[:<gflops_per_core>] | <file.json>
  platform:  cori[:private|:striped] | summit | generic | <file.json>
  placement: allbb | allpfs | fraction:<f> | threshold:<bytes>

observability (see docs/trace-format.md):
  --explain      print the makespan-explainability report: top-<k>
                 contention hotspots, executed critical path, tier bandwidth
  --explain-json write the explainability report as JSON to <path>
  --trace-out    write a full run trace (stage spans, task phases, engine
                 telemetry) to <path>; enables engine telemetry sampling
  --trace-format perfetto (default; load in ui.perfetto.dev) | jsonl

campaign scheduling (see docs/scheduler.md):
  --policy       fcfs | easy (EASY backfilling on nodes) | bb-aware (EASY on
                 nodes *and* burst-buffer capacity) | plan (fork the whole
                 simulation at each scheduling point, play candidate queue
                 orders forward, commit the best projected bounded slowdown)
  --plan-horizon lookahead of plan's speculative forks, seconds past the
                 scheduling point (default 86400)
  --workload     workload file (one `key=value ...` job per line); without it
                 a synthetic campaign is drawn from --seed/--jobs/
                 --mean-interarrival/--bb-scale/--max-nodes
  --csv/--json   per-job outcomes as CSV / the full campaign report as JSON
  --trace-out    Perfetto trace with one lane per job, cluster counters, and
                 (with the decision log on) a scheduler decision lane
  --decision-log write the structured scheduler decision log as JSONL (every
                 admission verdict with its typed block reason, BB-pool
                 ledger, plan-search records; docs/observability.md)
  --explain-sched      print why the campaign waited: top-<k> blocked jobs
                 with their nodes/bb/reservation wait decomposition, the
                 dominant blocking resource, the plan win/loss table
  --explain-sched-json write the same explanation as JSON to <path>
  --progress     stderr heartbeat (sim time, jobs admitted/finished, queue
                 depth, wall-clock) plus a final scheduler wall-clock
                 profile; never alters stdout or any artifact bytes

fault injection (see docs/failure-model.md):
  --faults       comma/newline-separated events, or a path to a spec file:
                 bb:<i>@<t> (kill BB node i at t s), bb:<i>@<t>*<f> and
                 pfs@<t>*<f> (degrade to fraction f of nominal),
                 task:<name>@<t> (kill a running task),
                 seed:<s>:<k>@<horizon> (k seeded BB failures before t)
  --failover     pfs (default: dead-BB accesses re-route to the PFS) | bb
                 (re-place on surviving BB namespaces when possible)
  --retries      max execution attempts per task (default 3)
  --checkpoint   periodic checkpoint writes as scheduled I/O:
                 <interval>@<bb|pfs>[:<bytes>], e.g. 60@bb or 45@pfs:2e9
                 (bytes default to each task's output footprint); killed
                 tasks restart from their last completed image. On
                 campaign the policy applies to every job that does not
                 set its own checkpoint= key in the workload file.
                 campaign --faults accepts only campaign-scope capacity
                 events (bb:<i>@<t>, bb:<i>@<t>*<f>, pfs@<t>*<f>,
                 seed:...); a BB node death shrinks the machine-wide BB
                 reservation pool for every tenant. task:<name>@<t>
                 kills are per-job: use kill= on the workload line.

serving (see docs/service.md):
  serve          run the long-lived what-if HTTP API: submit simulate/
                 campaign jobs as JSON, stream progress, fetch artifacts;
                 identical inputs are answered from a deterministic
                 result cache
  --addr         bind address (default 127.0.0.1:8080; port 0 = ephemeral)
  --workers      simulation worker threads (default 2)
  --cache-mb     result-cache capacity in MiB (default 64)
  --tenant-quota max in-flight jobs per tenant (default 4)
  --job-timeout  per-job wall-clock timeout in seconds (default 300)
  --job-ttl      seconds a finished job stays fetchable before its entry
                 is evicted (default 600)
  --max-jobs     max retained finished jobs before the oldest are
                 evicted (default 1024)";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&raw) {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn run(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse_with_switches(raw, &["progress"])?;
    match args.command.as_str() {
        "simulate" => {
            args.check_flags(&[
                "workflow",
                "platform",
                "placement",
                "nodes",
                "scheduler",
                "gantt",
                "explain",
                "explain-json",
                "trace-out",
                "trace-format",
                "faults",
                "failover",
                "retries",
                "checkpoint",
            ])?;
            simulate(&args)
        }
        "campaign" => {
            args.check_flags(&[
                "platform",
                "nodes",
                "policy",
                "plan-horizon",
                "workload",
                "jobs",
                "seed",
                "mean-interarrival",
                "bb-scale",
                "max-nodes",
                "faults",
                "checkpoint",
                "csv",
                "json",
                "trace-out",
                "decision-log",
                "explain-sched",
                "explain-sched-json",
                "progress",
            ])?;
            campaign(&args)
        }
        "generate" => {
            args.check_flags(&["workflow", "out"])?;
            generate(&args)
        }
        "inspect" => {
            args.check_flags(&["workflow", "dot"])?;
            inspect(&args)
        }
        "serve" => {
            args.check_flags(&[
                "addr",
                "workers",
                "cache-mb",
                "tenant-quota",
                "job-timeout",
                "job-ttl",
                "max-jobs",
            ])?;
            serve(&args)
        }
        other => Err(CliError(format!("unknown subcommand {other:?}"))),
    }
}

/// Reads a `--faults` argument: the text of the file it names, or the
/// argument itself as an inline spec.
fn fault_spec(arg: &str) -> Result<wfbb_wms::FaultSpec, CliError> {
    let text = if std::path::Path::new(arg).is_file() {
        std::fs::read_to_string(arg)
            .map_err(|e| CliError(format!("cannot read fault spec {arg:?}: {e}")))?
    } else {
        arg.to_string()
    };
    wfbb_wms::FaultSpec::parse(&text).map_err(|e| CliError(e.to_string()))
}

/// Parses a `--checkpoint` argument (`<interval>@<bb|pfs>[:<bytes>]`).
fn checkpoint_policy(arg: &str) -> Result<wfbb_wms::CheckpointPolicy, CliError> {
    wfbb_wms::CheckpointPolicy::parse(arg).map_err(|e| CliError(e.to_string()))
}

fn simulate(args: &Args) -> Result<(), CliError> {
    let workflow = parse_workflow(args.require("workflow")?)?;
    let nodes: usize = args
        .get_or("nodes", "1")
        .parse()
        .map_err(|_| CliError("bad --nodes value".into()))?;
    let platform = parse_platform(args.require("platform")?, nodes)?;
    let placement = PlacementPolicy::parse(args.get_or("placement", "allbb")).map_err(CliError)?;
    let scheduler =
        SchedulerPolicy::parse(args.get_or("scheduler", "affinity")).map_err(CliError)?;
    let trace_out = args.get("trace-out");
    let trace_format = args.get_or("trace-format", "perfetto");
    if !matches!(trace_format, "perfetto" | "jsonl") {
        return Err(CliError(format!(
            "unrecognized trace format {trace_format:?} (expected perfetto or jsonl)"
        )));
    }
    let gantt_width = args
        .get("gantt")
        .map(|w| match w.parse::<usize>() {
            Ok(w) if w >= 10 => Ok(w),
            Ok(_) => Err(CliError("--gantt width must be at least 10 columns".into())),
            Err(_) => Err(CliError("bad --gantt width".into())),
        })
        .transpose()?;

    let mut builder = SimulationBuilder::new(platform.clone(), workflow)
        .placement(placement)
        .scheduler(scheduler);
    if trace_out.is_some() {
        // Full traces want the engine's resource series and histograms.
        builder = builder.telemetry(TelemetryConfig::enabled());
    }
    if let Some(spec) = args.get("faults") {
        builder = builder.faults(fault_spec(spec)?);
    }
    if let Some(spec) = args.get("checkpoint") {
        builder = builder.checkpoint(checkpoint_policy(spec)?);
    }
    if let Some(policy) = args.get("failover") {
        builder = builder.failover(FailoverPolicy::parse(policy).map_err(CliError)?);
    }
    if let Some(n) = args.get("retries") {
        let max_attempts: u32 = n
            .parse()
            .map_err(|_| CliError("bad --retries value".into()))?;
        builder = builder.retry_policy(wfbb_wms::RetryPolicy {
            max_attempts,
            ..Default::default()
        });
    }
    let report = builder
        .run()
        .map_err(|e| CliError(format!("simulation failed: {e}")))?;

    println!("platform   : {}", platform.name);
    println!("makespan   : {:.3} s", report.makespan.seconds());
    println!("stage-in   : {:.3} s", report.stage_in_time);
    println!(
        "BB traffic : {:.2} GB (peak occupancy {:.2} GB, {} spilled)",
        report.bb_bytes / 1e9,
        report.bb_peak_bytes / 1e9,
        report.spilled_files
    );
    println!("PFS traffic: {:.2} GB", report.pfs_bytes / 1e9);
    if !report.faults.is_empty() {
        println!(
            "faults     : {} event(s), {} retried execution(s), {:.3} s fault wait, \
             {:.2} MB lost in flight",
            report.faults.len(),
            report.retries,
            report.fault_wait_total,
            report.fault_lost_bytes / 1e6,
        );
        for f in &report.faults {
            println!("  t={:>10.3} s  {}", f.time, f.description);
        }
    }
    if report.checkpoints > 0 || report.restores > 0 {
        println!(
            "checkpoints: {} written ({:.2} GB, {:.3} s of checkpoint I/O), {} restore(s)",
            report.checkpoints,
            report.checkpoint_bytes / 1e9,
            report.checkpoint_io_total,
            report.restores,
        );
    }
    for (category, stats) in report.by_category() {
        println!(
            "  {:<20} {:>4} task(s)  mean {:>9.3} s  (I/O {:.3} s, compute {:.3} s)",
            category, stats.count, stats.mean_duration, stats.mean_io_time, stats.mean_compute_time
        );
    }
    if let Some(width) = gantt_width {
        println!("\n{}", report.gantt_ascii(width));
    }
    if let Some(k) = args.get("explain") {
        let k: usize = k
            .parse()
            .map_err(|_| CliError("bad --explain hotspot count".into()))?;
        println!("\n{}", report.explain(k).render_text());
    }
    if let Some(path) = args.get("explain-json") {
        std::fs::write(path, report.explain(5).to_json())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote explainability report to {path}");
    }
    if let Some(path) = trace_out {
        let trace = match trace_format {
            "jsonl" => report.jsonl_trace(),
            _ => report.perfetto_trace_json(),
        };
        std::fs::write(path, trace).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        match trace_format {
            "jsonl" => println!("wrote JSONL trace to {path} (schema in docs/trace-format.md)"),
            _ => println!("wrote Perfetto trace to {path} (open in ui.perfetto.dev)"),
        }
    }
    Ok(())
}

fn campaign(args: &Args) -> Result<(), CliError> {
    use wfbb_sched::{
        explain_json, explain_text, parse_workload, synthetic_jobs, BatchPolicy, CampaignConfig,
        CampaignSim, SyntheticConfig,
    };

    let nodes: usize = args
        .get_or("nodes", "4")
        .parse()
        .map_err(|_| CliError("bad --nodes value".into()))?;
    let platform_spec = args.require("platform")?;
    let platform = parse_platform(platform_spec, nodes)?;
    let policy_label = args.get_or("policy", "fcfs");
    let policy = BatchPolicy::parse(policy_label).ok_or_else(|| {
        CliError(format!(
            "unrecognized policy {policy_label:?} (expected fcfs, easy, bb-aware, or plan)"
        ))
    })?;
    let plan_horizon: f64 = args
        .get_or("plan-horizon", "86400")
        .parse()
        .map_err(|_| CliError("bad --plan-horizon value".into()))?;
    if !plan_horizon.is_finite() || plan_horizon <= 0.0 {
        return Err(CliError("--plan-horizon must be a positive number".into()));
    }

    let mut jobs = if let Some(path) = args.get("workload") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read workload {path:?}: {e}")))?;
        parse_workload(&text).map_err(|e| CliError(e.to_string()))?
    } else {
        let count: usize = args
            .get_or("jobs", "20")
            .parse()
            .map_err(|_| CliError("bad --jobs value".into()))?;
        let seed: u64 = args
            .get_or("seed", "1")
            .parse()
            .map_err(|_| CliError("bad --seed value".into()))?;
        let mean_interarrival: f64 = args
            .get_or("mean-interarrival", "30")
            .parse()
            .map_err(|_| CliError("bad --mean-interarrival value".into()))?;
        let bb_request_scale: f64 = args
            .get_or("bb-scale", "1")
            .parse()
            .map_err(|_| CliError("bad --bb-scale value".into()))?;
        let default_max = nodes.to_string();
        let max_nodes: usize = args
            .get_or("max-nodes", &default_max)
            .parse()
            .map_err(|_| CliError("bad --max-nodes value".into()))?;
        synthetic_jobs(
            seed,
            &SyntheticConfig {
                jobs: count,
                mean_interarrival,
                bb_request_scale,
                max_nodes,
            },
        )
        .map_err(|e| CliError(e.to_string()))?
    };
    if let Some(spec) = args.get("checkpoint") {
        // A campaign-wide default: per-job checkpoint= keys in the
        // workload file take precedence.
        let policy = checkpoint_policy(spec)?;
        for job in &mut jobs {
            if job.checkpoint.is_none() {
                job.checkpoint = Some(policy);
            }
        }
    }

    let explain_k = args
        .get("explain-sched")
        .map(|k| {
            k.parse::<usize>()
                .map_err(|_| CliError("bad --explain-sched job count".into()))
        })
        .transpose()?;
    // The log is collected whenever anything will read it; the report is
    // byte-identical either way (pinned by tests/decision_log.rs).
    let want_log = args.get("decision-log").is_some()
        || explain_k.is_some()
        || args.get("explain-sched-json").is_some();
    let progress = args.flag("progress");

    let mut config = CampaignConfig::new(platform)
        .with_policy(policy)
        .with_platform_label(platform_spec)
        .with_plan_horizon(plan_horizon)
        .with_decision_log(want_log);
    if let Some(spec) = args.get("faults") {
        // Campaign-scope capacity faults; `CampaignSim::new` rejects
        // task kills loudly (they belong on workload `kill=` keys).
        config = config.with_faults(fault_spec(spec)?);
    }
    let mut sim =
        CampaignSim::new(&config, &jobs).map_err(|e| CliError(format!("campaign failed: {e}")))?;
    let wall_start = std::time::Instant::now();
    let mut last_beat = std::time::Instant::now();
    loop {
        let more = sim
            .step()
            .map_err(|e| CliError(format!("campaign failed: {e}")))?;
        // The heartbeat writes to stderr only, so stdout and every
        // artifact stay byte-identical with or without --progress.
        if progress && last_beat.elapsed().as_millis() >= 500 {
            eprintln!(
                "[campaign] t={:.1}s admitted={} finished={} queue={} wall={:.1}s",
                sim.now(),
                sim.jobs_admitted(),
                sim.jobs_finished(),
                sim.queue_depth(),
                wall_start.elapsed().as_secs_f64(),
            );
            last_beat = std::time::Instant::now();
        }
        if !more {
            break;
        }
    }
    let log = sim.export_decision_log();
    let profile = sim.profile();
    if progress {
        eprintln!(
            "[campaign] done: t={:.1}s admitted={} finished={} wall={:.2}s",
            sim.now(),
            sim.jobs_admitted(),
            sim.jobs_finished(),
            wall_start.elapsed().as_secs_f64(),
        );
        eprintln!("[sched-profile] {}", profile.summary_text());
    }
    let report = sim
        .finish()
        .map_err(|e| CliError(format!("campaign failed: {e}")))?;
    print!("{}", report.summary_text());
    if let Some(k) = explain_k {
        print!("{}", explain_text(&report, &log, k));
    }
    if let Some(path) = args.get("explain-sched-json") {
        std::fs::write(path, explain_json(&report, &log, 10))
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote scheduler explanation to {path}");
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, report.jobs_csv())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote per-job CSV to {path}");
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote campaign report to {path}");
    }
    if let Some(path) = args.get("decision-log") {
        std::fs::write(path, log.to_jsonl())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote scheduler decision log to {path} (schema in docs/trace-format.md)");
    }
    if let Some(path) = args.get("trace-out") {
        let trace = if log.enabled() {
            report.perfetto_trace_with_decisions(&log)
        } else {
            report.perfetto_trace_json()
        };
        std::fs::write(path, trace).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote Perfetto campaign trace to {path} (open in ui.perfetto.dev)");
    }
    Ok(())
}

fn generate(args: &Args) -> Result<(), CliError> {
    let workflow = parse_workflow(args.require("workflow")?)?;
    let out = args.require("out")?;
    std::fs::write(out, workflow.to_json())
        .map_err(|e| CliError(format!("cannot write {out:?}: {e}")))?;
    println!(
        "wrote {} ({} tasks, {} files, {:.2} GB footprint)",
        out,
        workflow.task_count(),
        workflow.file_count(),
        workflow.data_footprint() / 1e9
    );
    Ok(())
}

fn inspect(args: &Args) -> Result<(), CliError> {
    let workflow = parse_workflow(args.require("workflow")?)?;
    let (cp_work, cp_path) = workflow.critical_path(|t| workflow.task(t).flops);
    println!("workflow     : {}", workflow.name);
    println!("tasks        : {}", workflow.task_count());
    println!("files        : {}", workflow.file_count());
    println!("depth        : {}", workflow.depth());
    println!("width        : {}", workflow.width());
    println!(
        "footprint    : {:.2} GB ({:.2} GB input, {:.0}%)",
        workflow.data_footprint() / 1e9,
        workflow.input_data_size() / 1e9,
        100.0 * workflow.input_data_size() / workflow.data_footprint().max(1.0)
    );
    println!(
        "critical path: {:.2} Gflop over {} tasks",
        cp_work / 1e9,
        cp_path.len()
    );
    let mut by_cat: std::collections::BTreeMap<&str, usize> = Default::default();
    for t in workflow.tasks() {
        *by_cat.entry(t.category.as_str()).or_default() += 1;
    }
    for (cat, n) in by_cat {
        println!("  {cat:<24} {n}");
    }
    let findings = workflow.lint();
    if findings.is_empty() {
        println!("lint         : clean");
    } else {
        println!("lint         : {} finding(s)", findings.len());
        for finding in findings.iter().take(10) {
            println!("  - {finding}");
        }
        if findings.len() > 10 {
            println!("  ... and {} more", findings.len() - 10);
        }
    }
    if let Some(path) = args.get("dot") {
        std::fs::write(path, workflow.to_dot())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        println!("wrote DOT graph to {path}");
    }
    Ok(())
}

fn serve(args: &Args) -> Result<(), CliError> {
    let addr = args.get_or("addr", "127.0.0.1:8080").to_string();
    let workers: usize = args
        .get_or("workers", "2")
        .parse()
        .map_err(|_| CliError("bad --workers value".into()))?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".into()));
    }
    let cache_mb: usize = args
        .get_or("cache-mb", "64")
        .parse()
        .map_err(|_| CliError("bad --cache-mb value".into()))?;
    let tenant_quota: usize = args
        .get_or("tenant-quota", "4")
        .parse()
        .map_err(|_| CliError("bad --tenant-quota value".into()))?;
    if tenant_quota == 0 {
        return Err(CliError("--tenant-quota must be at least 1".into()));
    }
    let job_timeout: f64 = args
        .get_or("job-timeout", "300")
        .parse()
        .map_err(|_| CliError("bad --job-timeout value".into()))?;
    if !job_timeout.is_finite() || job_timeout <= 0.0 {
        return Err(CliError("--job-timeout must be positive".into()));
    }
    let job_ttl: f64 = args
        .get_or("job-ttl", "600")
        .parse()
        .map_err(|_| CliError("bad --job-ttl value".into()))?;
    if !job_ttl.is_finite() || job_ttl <= 0.0 {
        return Err(CliError("--job-ttl must be positive".into()));
    }
    let max_jobs: usize = args
        .get_or("max-jobs", "1024")
        .parse()
        .map_err(|_| CliError("bad --max-jobs value".into()))?;
    if max_jobs == 0 {
        return Err(CliError("--max-jobs must be at least 1".into()));
    }
    let config = wfbb_serve::ServeConfig {
        addr,
        workers,
        cache_bytes: cache_mb.saturating_mul(1024 * 1024),
        quota: wfbb_serve::TenantQuota {
            max_in_flight: tenant_quota,
            timeout_s: job_timeout,
            ..Default::default()
        },
        job_ttl: std::time::Duration::from_secs_f64(job_ttl),
        max_jobs,
    };
    let server = wfbb_serve::Server::bind(config)
        .map_err(|e| CliError(format!("cannot bind serve address: {e}")))?;
    // The bound address line doubles as the CI readiness/port-discovery
    // signal when --addr ends in :0.
    println!("listening on http://{}", server.local_addr());
    println!(
        "workers={workers} cache={cache_mb}MiB tenant-quota={tenant_quota} \
         job-timeout={job_timeout}s job-ttl={job_ttl}s max-jobs={max_jobs}  (docs/service.md)"
    );
    server
        .run()
        .map_err(|e| CliError(format!("serve failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rawv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn simulate_swarp_on_summit_succeeds() {
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:2:8",
            "--platform",
            "summit",
            "--placement",
            "fraction:0.5",
        ]))
        .unwrap();
    }

    #[test]
    fn generate_then_inspect_then_simulate_round_trips() {
        let dir = std::env::temp_dir().join("wfbb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wf.json");
        let path_str = path.to_str().unwrap();
        run(&rawv(&[
            "generate",
            "--workflow",
            "genomes:2",
            "--out",
            path_str,
        ]))
        .unwrap();
        let dot_path = dir.join("wf.dot");
        run(&rawv(&[
            "inspect",
            "--workflow",
            path_str,
            "--dot",
            dot_path.to_str().unwrap(),
        ]))
        .unwrap();
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("digraph"));
        std::fs::remove_file(dot_path).ok();
        run(&rawv(&[
            "simulate",
            "--workflow",
            path_str,
            "--platform",
            "cori:striped",
            "--nodes",
            "2",
            "--scheduler",
            "least-loaded",
        ]))
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_out_writes_both_formats() {
        let dir = std::env::temp_dir().join("wfbb-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let perfetto = dir.join("trace.json");
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1:4",
            "--platform",
            "summit",
            "--trace-out",
            perfetto.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&perfetto).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"ph\":\"C\""), "telemetry counters present");
        std::fs::remove_file(&perfetto).ok();
        let jsonl = dir.join("trace.jsonl");
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1:4",
            "--platform",
            "summit",
            "--trace-out",
            jsonl.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&jsonl).unwrap();
        assert!(body.starts_with("{\"type\":\"header\""));
        assert!(body.contains("\"type\":\"resource_sample\""));
        std::fs::remove_file(&jsonl).ok();
    }

    #[test]
    fn explain_prints_and_writes_json() {
        let dir = std::env::temp_dir().join("wfbb-cli-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explain.json");
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:4:8",
            "--platform",
            "cori:striped",
            "--placement",
            "allbb",
            "--explain",
            "3",
            "--explain-json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains("\"hotspots\""));
        assert!(body.contains("\"critical_path\""));
        // SWarp on striped-mode Cori is bound by the shared burst buffer:
        // the report names a BB resource among the hotspots.
        assert!(body.contains("/bb"), "expected a BB hotspot in {body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_inline_spec_simulates_with_failover() {
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:2:8",
            "--platform",
            "cori:striped",
            "--placement",
            "allbb",
            "--faults",
            "bb:0@2",
            "--failover",
            "pfs",
        ]))
        .unwrap();
    }

    #[test]
    fn faults_spec_file_is_read_and_applied() {
        let dir = std::env::temp_dir().join("wfbb-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.txt");
        std::fs::write(
            &path,
            "# kill one BB node early, degrade the PFS\nbb:0@2\npfs@5*0.5\n",
        )
        .unwrap();
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1:8",
            "--platform",
            "cori:striped",
            "--placement",
            "allbb",
            "--faults",
            path.to_str().unwrap(),
            "--retries",
            "5",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_fault_spec_and_failover_are_rejected() {
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--faults",
            "bb:zero@nope",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("fault spec"), "{err}");
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--failover",
            "tape",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("failover"), "{err}");
    }

    #[test]
    fn gantt_width_below_ten_is_rejected() {
        for width in ["5", "0"] {
            let err = run(&rawv(&[
                "simulate",
                "--workflow",
                "swarp:1:8",
                "--platform",
                "cori:striped",
                "--gantt",
                width,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("--gantt"), "{err}");
        }
    }

    #[test]
    fn bad_explain_count_is_rejected() {
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--explain",
            "many",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("explain"));
    }

    #[test]
    fn bad_trace_format_is_rejected() {
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--trace-out",
            "/tmp/x.json",
            "--trace-format",
            "xml",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("trace format"));
    }

    #[test]
    fn campaign_synthetic_writes_csv_json_and_trace() {
        let dir = std::env::temp_dir().join("wfbb-cli-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("jobs.csv");
        let json = dir.join("report.json");
        let trace = dir.join("trace.json");
        run(&rawv(&[
            "campaign",
            "--platform",
            "cori:striped",
            "--nodes",
            "4",
            "--policy",
            "bb-aware",
            "--jobs",
            "6",
            "--seed",
            "7",
            "--csv",
            csv.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let csv_body = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(csv_body.lines().count(), 7, "header + 6 jobs");
        assert!(csv_body.contains("bb-aware"));
        let json_body = std::fs::read_to_string(&json).unwrap();
        assert!(json_body.contains("\"policy\":\"bb-aware\""));
        let trace_body = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_body.contains("\"traceEvents\""));
        assert!(trace_body.contains("\"name\":\"job:"));
        for p in [&csv, &json, &trace] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn campaign_decision_log_explain_and_progress() {
        let dir = std::env::temp_dir().join("wfbb-cli-campaign-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dlog = dir.join("decisions.jsonl");
        let explain = dir.join("explain.json");
        let json_a = dir.join("report-a.json");
        let json_b = dir.join("report-b.json");
        run(&rawv(&[
            "campaign",
            "--platform",
            "cori:striped",
            "--nodes",
            "4",
            "--policy",
            "plan",
            "--jobs",
            "8",
            "--seed",
            "7",
            "--mean-interarrival",
            "15",
            "--progress",
            "--decision-log",
            dlog.to_str().unwrap(),
            "--explain-sched",
            "3",
            "--explain-sched-json",
            explain.to_str().unwrap(),
            "--json",
            json_a.to_str().unwrap(),
        ]))
        .unwrap();
        let log_body = std::fs::read_to_string(&dlog).unwrap();
        assert!(log_body.starts_with("{\"type\":\"header\""), "{log_body}");
        assert!(log_body.contains("\"schema\":\"wfbb-sched-decisions\""));
        assert!(log_body.contains("\"type\":\"counters\""));
        assert!(log_body
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .contains("\"type\":\"summary\""));
        let explain_body = std::fs::read_to_string(&explain).unwrap();
        assert!(
            explain_body.contains("\"dominant_block\":"),
            "{explain_body}"
        );
        // The same campaign without any observability flags writes a
        // byte-identical report.
        run(&rawv(&[
            "campaign",
            "--platform",
            "cori:striped",
            "--nodes",
            "4",
            "--policy",
            "plan",
            "--jobs",
            "8",
            "--seed",
            "7",
            "--mean-interarrival",
            "15",
            "--json",
            json_b.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&json_a).unwrap(),
            std::fs::read_to_string(&json_b).unwrap(),
            "decision log must not perturb the report"
        );
        for p in [&dlog, &explain, &json_a, &json_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn campaign_workload_file_runs_under_every_policy() {
        let dir = std::env::temp_dir().join("wfbb-cli-campaign-wl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let wl = dir.join("jobs.txt");
        std::fs::write(
            &wl,
            "workflow=swarp:1:8 nodes=2 bb=2e9 walltime=600 name=a\n\
             workflow=swarp:1:8 nodes=2 bb=2e9 walltime=600 submit=5 name=b\n",
        )
        .unwrap();
        for policy in ["fcfs", "easy", "bb-aware"] {
            run(&rawv(&[
                "campaign",
                "--platform",
                "cori:striped",
                "--policy",
                policy,
                "--workload",
                wl.to_str().unwrap(),
            ]))
            .unwrap();
        }
        std::fs::remove_file(&wl).ok();
    }

    #[test]
    fn campaign_rejects_bad_policy_and_chrome_flag_is_gone() {
        let err = run(&rawv(&[
            "campaign",
            "--platform",
            "summit",
            "--policy",
            "lottery",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("policy"), "{err}");
        // --chrome was removed after its deprecation window: the parser
        // now treats it as an unknown flag.
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--chrome",
            "/tmp/x.json",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("chrome"), "{err}");
    }

    #[test]
    fn simulate_checkpoint_flag_runs_and_bad_specs_are_rejected() {
        run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1:8",
            "--platform",
            "cori:striped",
            "--placement",
            "allbb",
            "--checkpoint",
            "20@bb",
        ]))
        .unwrap();
        let err = run(&rawv(&[
            "simulate",
            "--workflow",
            "swarp:1",
            "--platform",
            "summit",
            "--checkpoint",
            "60@tape",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn campaign_capacity_faults_run_and_task_kills_are_rejected_loudly() {
        let dir = std::env::temp_dir().join("wfbb-cli-campaign-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("report.json");
        run(&rawv(&[
            "campaign",
            "--platform",
            "cori:striped",
            "--nodes",
            "4",
            "--policy",
            "bb-aware",
            "--jobs",
            "4",
            "--seed",
            "7",
            "--faults",
            "bb:0@40",
            "--checkpoint",
            "30@bb",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"bb_pool_bytes\""));
        std::fs::remove_file(&json).ok();
        // Task kills are per-job, not campaign-scope: the error says so
        // and points at the workload-file alternative.
        let err = run(&rawv(&[
            "campaign",
            "--platform",
            "cori:striped",
            "--policy",
            "fcfs",
            "--jobs",
            "2",
            "--faults",
            "task:resample_0@10",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("per-job"), "{msg}");
        assert!(msg.contains("kill=resample_0"), "{msg}");
        // Campaign BB faults need a machine-wide (shared) burst buffer.
        let err = run(&rawv(&[
            "campaign",
            "--platform",
            "summit",
            "--policy",
            "fcfs",
            "--jobs",
            "2",
            "--faults",
            "bb:0@10",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("shared"), "{err}");
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&rawv(&["teleport"])).is_err());
        assert!(run(&rawv(&[])).is_err());
    }

    #[test]
    fn simulate_requires_workflow_and_platform() {
        assert!(run(&rawv(&["simulate", "--platform", "summit"])).is_err());
        assert!(run(&rawv(&["simulate", "--workflow", "swarp:1"])).is_err());
    }
}
