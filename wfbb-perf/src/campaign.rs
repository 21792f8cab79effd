//! `campaign_large` and `campaign_plan`: campaigns run back to back,
//! closed loop on one thread.
//!
//! Each workload fixes a job mix — one `synthetic_jobs` draw from the
//! workload's own base seed — and runs it under a cycle of shuffles of
//! which job arrives at which of the draw's arrival times. Shuffle `k`
//! depends on the base seed and `k` alone, and is pinned in the
//! reference; `--seed` picks where in the cycle a run starts (the `i`-th
//! campaign of a run is shuffle `(seed + i) mod cycle`). Keeping the mix
//! and varying the order keeps the cost of a run within a few percent
//! across seeds (fresh draws differ by a third), so the run-to-run
//! spread measures the program and not the draw, and every campaign of
//! every run is checked against the reference.
//!
//! * `campaign_large` — BB-aware backfilling of a 200-job stream with
//!   small BB requests on 256-node striped Cori (several seconds each).
//!   Most of the time is in `Engine::try_step` over hundreds of
//!   streaming flows per solve; it never plans, so plan work should
//!   leave it unchanged. An op is a fixed number of `CampaignSim::step`
//!   calls, about a hundredth of a campaign, so a run of a few campaigns
//!   still has hundreds of latency samples.
//! * `campaign_plan` — the first 6 jobs of the oversubscribed stream of
//!   the `campaign_throughput` Criterion bench (base seed 20260806) under
//!   the `plan` policy on 8-node striped Cori (about 0.15 s each), where
//!   the ordering search (forks and speculative rollouts) is nearly all
//!   of the time. An op is a whole campaign.

use std::time::{Duration, Instant};

use wfbb_platform::{presets, BbMode};
use wfbb_sched::{
    explain_json, synthetic_jobs, BatchPolicy, CampaignConfig, CampaignReport, CampaignSim,
    JobSpec, JobStatus, SchedProfile, SyntheticConfig,
};
use wfbb_simcore::EngineCounters;

use crate::layers::FORK_PROBE;
use crate::metrics::Outcome;
use crate::reference::Reference;
use crate::stats::{median, Rng, Summary};
use crate::trace::Tracer;
use crate::{layers, Opts};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Large,
    Plan,
}

/// A workload's fixed job mix and machine.
struct Shape {
    base_seed: u64,
    mix: SyntheticConfig,
    nodes: usize,
    policy: BatchPolicy,
    /// Number of shuffles of the mix a run cycles through, each pinned
    /// in the reference.
    cycle: u64,
    /// `CampaignSim::step` calls per op; `u64::MAX` makes the whole
    /// campaign one op.
    steps_per_op: u64,
}

fn shape(kind: Kind, quick: bool) -> Shape {
    match kind {
        Kind::Large => Shape {
            base_seed: 42,
            mix: SyntheticConfig {
                jobs: if quick { 10 } else { 200 },
                mean_interarrival: 0.2,
                bb_request_scale: 0.05,
                max_nodes: 2,
            },
            nodes: if quick { 8 } else { 256 },
            policy: BatchPolicy::BbAware,
            cycle: 32,
            steps_per_op: if quick { 64 } else { 4096 },
        },
        Kind::Plan => Shape {
            base_seed: 20260806,
            mix: SyntheticConfig {
                jobs: if quick { 4 } else { 6 },
                mean_interarrival: 15.0,
                bb_request_scale: 1.0,
                max_nodes: 2,
            },
            nodes: 8,
            policy: BatchPolicy::Plan,
            cycle: 256,
            steps_per_op: u64::MAX,
        },
    }
}

pub fn name(kind: Kind) -> &'static str {
    match kind {
        Kind::Large => "campaign_large",
        Kind::Plan => "campaign_plan",
    }
}

fn config(shape: &Shape, policy: BatchPolicy) -> CampaignConfig {
    CampaignConfig::new(presets::cori(shape.nodes, BbMode::Striped))
        .with_policy(policy)
        .with_platform_label("cori:striped")
}

/// Shuffle `k` of the job mix: its payloads over its arrival times.
fn jobs(shape: &Shape, k: u64) -> Result<Vec<JobSpec>, String> {
    let mut jobs = synthetic_jobs(shape.base_seed, &shape.mix).map_err(|e| e.to_string())?;
    let arrivals: Vec<f64> = jobs.iter().map(|j| j.submit).collect();
    Rng::derive(shape.base_seed, k).shuffle(&mut jobs);
    for (job, t) in jobs.iter_mut().zip(arrivals) {
        job.submit = t;
    }
    Ok(jobs)
}

/// Which artifacts a driven campaign exports.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Exports {
    /// `report.json`, what `wfbb campaign --json` prints.
    Report,
    /// The service's whole artifact set.
    Service,
}

/// A finished campaign and what the harness saw of it.
pub struct Driven {
    pub report: CampaignReport,
    pub report_json: String,
    pub profile: SchedProfile,
    pub counters: EngineCounters,
    pub export_bytes: usize,
    /// Seconds of each op: each run of `steps_per_op` steps, the last
    /// one also holding `finish` and the export.
    pub op_s: Vec<f64>,
}

/// `CampaignSim::new` in its span.
pub fn new_sim<'a>(
    tr: &mut Tracer,
    config: &'a CampaignConfig,
    jobs: &'a [JobSpec],
) -> Result<CampaignSim<'a>, String> {
    tr.hot("scheduler.new", || CampaignSim::new(config, jobs))
        .map_err(|e| e.to_string())
}

/// Runs a campaign to its report through `CampaignSim::step` /
/// `finish` and the report exporters, one span each. Each step's
/// solve, admission, plan and log time comes from the sim's own
/// profile; with `probe_forks`, a fork of the sim right after each
/// ordering search prices `CampaignSim::fork`. Every `steps_per_op`
/// steps closes an op.
pub fn drive(
    tr: &mut Tracer,
    mut sim: CampaignSim<'_>,
    probe_forks: bool,
    exports: Exports,
    steps_per_op: u64,
) -> Result<Driven, String> {
    let probe = tr.on() && probe_forks;
    let mut op_s = Vec::new();
    let mut op_start = Instant::now();
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > steps_per_op {
            op_s.push(op_start.elapsed().as_secs_f64());
            op_start = Instant::now();
            steps = 1;
        }
        let before = sim.profile();
        tr.open_hot("scheduler.step");
        let more = sim.step();
        let after = sim.profile();
        tr.attribute("simcore.step", after.solve_ns - before.solve_ns);
        tr.attribute("scheduler.admit", after.admit_ns - before.admit_ns);
        tr.attribute("scheduler.plan", after.plan_ns - before.plan_ns);
        tr.attribute("scheduler.log", after.log_ns - before.log_ns);
        tr.close();
        if !more.map_err(|e| e.to_string())? {
            break;
        }
        if probe && after.plan_choices > before.plan_choices {
            tr.open(FORK_PROBE);
            drop(std::hint::black_box(sim.fork()));
            tr.close();
        }
    }
    let profile = sim.profile();
    let counters = sim.counters();
    let log = (exports == Exports::Service).then(|| sim.export_decision_log());
    let report = tr
        .hot("scheduler.finish", || sim.finish())
        .map_err(|e| e.to_string())?;
    tr.open_hot("scheduler.export");
    let report_json = report.to_json();
    let mut export_bytes = report_json.len();
    if let Some(log) = &log {
        export_bytes += report.jobs_csv().len()
            + explain_json(&report, log, 10).len()
            + log.to_jsonl().len()
            + report.perfetto_trace_with_decisions(log).len()
            + report.summary_text().len();
    }
    tr.close();
    op_s.push(op_start.elapsed().as_secs_f64());
    Ok(Driven {
        report,
        report_json,
        profile,
        counters,
        export_bytes,
        op_s,
    })
}

/// The campaign invariants: every job completes, the BB pool ends full
/// (within 1e-9 relative), and each job's wait splits exactly into
/// nodes + BB + reservation time.
pub fn invariants(report: &CampaignReport) -> Result<(), String> {
    if let Some(j) = report
        .jobs
        .iter()
        .find(|j| j.status != JobStatus::Completed)
    {
        return Err(format!(
            "job {} ended {:?}: {:?}",
            j.name, j.status, j.detail
        ));
    }
    let pool = report.bb_pool_bytes;
    if (report.bb_pool_free_end - pool).abs() > 1e-9 * pool {
        return Err(format!(
            "BB pool ends at {} of {pool} bytes free",
            report.bb_pool_free_end
        ));
    }
    for j in &report.jobs {
        let sum = j.blocked_on_nodes + j.blocked_on_bb + j.blocked_on_reservation;
        if (sum - j.wait).abs() > 1e-9 * j.wait.max(1.0) {
            return Err(format!("job {}: wait {} splits into {sum}", j.name, j.wait));
        }
    }
    Ok(())
}

fn ref_key(kind: Kind, quick: bool, k: u64) -> String {
    format!(
        "{}/{}/{k}",
        name(kind),
        if quick { "quick" } else { "full" }
    )
}

/// Checks one finished campaign against the invariants and the
/// reference.
fn check(
    out: &mut Outcome,
    reference: &Reference,
    kind: Kind,
    opts: &Opts,
    k: u64,
    report: &CampaignReport,
) {
    out.check(invariants(report).is_ok(), || {
        format!(
            "{} shuffle {k}: {}",
            name(kind),
            invariants(report).unwrap_err()
        )
    });
    let key = ref_key(kind, opts.quick, k);
    for (what, value) in [
        ("makespan", report.makespan),
        ("bsld", report.mean_bounded_slowdown),
    ] {
        if let Some(p) = reference.check_close("campaigns", &format!("{key}/{what}"), value, 1e-6) {
            out.check(false, || p);
        }
    }
}

/// A campaign from set-up to report, untraced.
fn run_plain(config: &CampaignConfig, jobs: &[JobSpec]) -> Result<Driven, String> {
    let mut tr = Tracer::new(false);
    let sim = new_sim(&mut tr, config, jobs)?;
    drive(&mut tr, sim, false, Exports::Report, u64::MAX)
}

/// One measured campaign: set-up time (job generation and
/// `CampaignSim::new`), the `CampaignSim::new` part of it, and the
/// result with its op times (steps, `finish`, the JSON report).
struct Op {
    setup_s: f64,
    new_s: f64,
    driven: Driven,
}

pub fn run(kind: Kind, opts: &Opts, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let shape = shape(kind, opts.quick);
    let cfg = config(&shape, shape.policy);
    let plan = shape.policy == BatchPolicy::Plan;
    let budget = Duration::from_secs_f64(opts.seconds);
    let shuffle = |i: u64| (opts.seed % shape.cycle + i) % shape.cycle;

    // The traced campaign also holds `scheduler.new`, so
    // `trace.overhead` compares `CampaignSim::new` plus the ops.
    let run_op = |out: &mut Outcome, i: u64, tr: &mut Tracer| -> Option<Op> {
        let k = shuffle(i);
        let t = Instant::now();
        let result = jobs(&shape, k).and_then(|js| {
            let t_new = Instant::now();
            tr.open("op.campaign");
            let op = new_sim(tr, &cfg, &js).and_then(|sim| {
                let (new_s, setup_s) = (t_new.elapsed().as_secs_f64(), t.elapsed().as_secs_f64());
                let driven = drive(tr, sim, plan, Exports::Report, shape.steps_per_op)?;
                Ok(Op {
                    setup_s,
                    new_s,
                    driven,
                })
            });
            tr.close();
            op
        });
        match result {
            Ok(op) => {
                check(out, reference, kind, opts, k, &op.driven.report);
                Some(op)
            }
            Err(e) => {
                out.check(false, || format!("{} shuffle {k}: {e}", name(kind)));
                None
            }
        }
    };

    // Traced, each campaign also runs a second time with spans, back to
    // back and alternating which goes first, so host drift hits both
    // alike. Counts are the first campaign's; per-unit costs and the
    // fork split use every traced campaign.
    let mut plain = Tracer::new(false);
    let mut tr = Tracer::new(opts.trace);
    let (mut setups, mut lat, mut untraced_s) = (Vec::new(), Vec::new(), 0.0);
    let mut bsld = Vec::new();
    let (mut events, mut completions, mut forks) = (0, 0, 0);
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed() < budget || n == 0 {
        let (op, traced) = match (opts.trace, n % 2) {
            (false, _) => (run_op(&mut out, n, &mut plain), None),
            (true, 0) => {
                let op = run_op(&mut out, n, &mut plain);
                (op, run_op(&mut out, n, &mut tr))
            }
            (true, _) => {
                let traced = run_op(&mut out, n, &mut tr);
                (run_op(&mut out, n, &mut plain), traced)
            }
        };
        if let Some(op) = op {
            setups.push(op.setup_s);
            lat.extend(&op.driven.op_s);
            untraced_s += op.new_s + op.driven.op_s.iter().sum::<f64>();
            bsld.push((shuffle(n), op.driven.report.mean_bounded_slowdown));
        }
        if let Some(Op { driven: d, .. }) = traced {
            events += d.counters.events;
            completions += d.counters.completions;
            forks += d.profile.plan_forks;
            if n == 0 {
                layers::engine_counters(&mut out, &d.counters);
                out.set("wms.callbacks", d.counters.completions as f64);
                out.set(
                    "scheduler.admission_passes",
                    d.profile.admission_passes as f64,
                );
                out.set("scheduler.plan_choices", d.profile.plan_choices as f64);
                out.set("scheduler.plan_forks", d.profile.plan_forks as f64);
                out.set("scheduler.export_bytes", d.export_bytes as f64);
            }
        }
        n += 1;
    }
    // Plan must never do worse than BB-aware backfilling on the same
    // jobs (checked after the measurement, untimed, on the first 32).
    if plan {
        let bb = config(&shape, BatchPolicy::BbAware);
        for &(k, planned) in bsld.iter().take(32) {
            match jobs(&shape, k).and_then(|j| run_plain(&bb, &j)) {
                Ok(d) => out.check(planned <= d.report.mean_bounded_slowdown, || {
                    format!(
                        "plan shuffle {k}: mean bounded slowdown {planned} exceeds BB-aware's {}",
                        d.report.mean_bounded_slowdown
                    )
                }),
                Err(e) => out.check(false, || format!("BB-aware shuffle {k}: {e}")),
            }
        }
    }
    if !opts.trace {
        out.set_summary("setup_s", median(&setups), Summary::of(&setups));
        crate::latency_metrics(&mut out, &lat);
        out.set(
            "peak_rss_mb",
            crate::metrics::peak_rss_mb("self").unwrap_or(0.0),
        );
        return out;
    }
    layers::unit_costs(&mut out, &tr, events, completions);
    layers::shares(&mut out, &tr, &["op.campaign"], forks as f64);
    let traced_s = (tr.total_ns("op.campaign") - tr.total_ns(FORK_PROBE)) as f64 / 1e9;
    out.set("trace.overhead", traced_s / untraced_s - 1.0);
    crate::write_trace(opts, &tr, &mut out);
    out
}

/// Makespan and mean bounded slowdown of every shuffle, full and quick
/// size, for `write-reference`.
pub fn reference_values() -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for kind in [Kind::Large, Kind::Plan] {
        for quick in [false, true] {
            let shape = shape(kind, quick);
            let cfg = config(&shape, shape.policy);
            for k in 0..shape.cycle {
                let d = run_plain(&cfg, &jobs(&shape, k)?)?;
                invariants(&d.report)?;
                let key = ref_key(kind, quick, k);
                out.push((format!("{key}/makespan"), d.report.makespan));
                out.push((format!("{key}/bsld"), d.report.mean_bounded_slowdown));
            }
        }
    }
    Ok(out)
}
