//! Per-layer metrics from a traced run: self-time shares, exact engine
//! counters and per-unit costs.

use wfbb_simcore::EngineCounters;

use crate::metrics::Outcome;
use crate::trace::Tracer;

/// Span name → share metric. A span's self time is the layer's own
/// cost; `scheduler.step`'s self time is what `CampaignSim::step` spends
/// beyond the solve, admission, plan and log time its profile reports:
/// routing completions into the executors.
const SHARES: &[(&str, &str)] = &[
    ("simcore.step", "simcore.step_share"),
    ("wms.setup", "wms.setup_share"),
    ("wms.start", "wms.start_share"),
    ("wms.callback", "wms.callback_share"),
    ("wms.report", "wms.report_share"),
    ("storage.placement", "storage.placement_share"),
    ("scheduler.new", "scheduler.new_share"),
    ("scheduler.admit", "scheduler.admit_share"),
    ("scheduler.plan", "scheduler.plan_share"),
    ("scheduler.log", "scheduler.log_share"),
    ("scheduler.step", "scheduler.dispatch_share"),
    ("scheduler.finish", "scheduler.finish_share"),
    ("scheduler.export", "scheduler.export_share"),
];

/// Fork probes taken by the harness to price `CampaignSim::fork`; they
/// are not part of any op.
pub const FORK_PROBE: &str = "probe.fork";

/// Sets every layer share over the summed duration of the `ops` spans.
/// The ops' own self time is harness glue (`harness.share`). `forks`
/// is the number of plan forks the traced run made.
pub fn shares(out: &mut Outcome, tr: &Tracer, ops: &[&str], forks: f64) {
    let probes = tr.total_ns(FORK_PROBE);
    let denom = ops
        .iter()
        .map(|o| tr.total_ns(o))
        .sum::<u64>()
        .saturating_sub(probes) as f64;
    if denom <= 0.0 {
        return;
    }
    for (span, metric) in SHARES {
        out.set(metric, tr.self_ns(span) as f64 / denom);
    }
    out.set(
        "harness.share",
        ops.iter().map(|o| tr.self_ns(o)).sum::<u64>() as f64 / denom,
    );
    // Plan time splits into forking the sim and rolling the forks out:
    // forks × the mean cost of a fork the harness took itself.
    let plan = tr.self_ns("scheduler.plan") as f64;
    let probe_ns = tr.durations(FORK_PROBE);
    let fork = if probe_ns.is_empty() {
        0.0
    } else {
        let mean = probe_ns.iter().sum::<u64>() as f64 / probe_ns.len() as f64;
        (forks * mean).min(plan)
    };
    out.set("scheduler.fork_share", fork / denom);
    out.set("scheduler.rollout_share", (plan - fork) / denom);
}

/// Engine and executor time per unit of work, over the whole traced run.
pub fn unit_costs(out: &mut Outcome, tr: &Tracer, events: u64, callbacks: u64) {
    if events > 0 {
        out.set(
            "simcore.ns_per_event",
            tr.self_ns("simcore.step") as f64 / events as f64,
        );
    }
    if callbacks > 0 {
        let ns = tr.self_ns("wms.callback") + tr.self_ns("scheduler.step");
        out.set("wms.ns_per_callback", ns as f64 / callbacks as f64);
    }
}

pub fn add_counters(acc: &mut EngineCounters, c: &EngineCounters) {
    acc.events += c.events;
    acc.completions += c.completions;
    acc.solves += c.solves;
    acc.solver_flows += c.solver_flows;
    acc.solver_groups += c.solver_groups;
    acc.heap_pushes += c.heap_pushes;
    acc.heap_pops += c.heap_pops;
    acc.heap_stale += c.heap_stale;
    acc.fastpath_events += c.fastpath_events;
    acc.integrations += c.integrations;
    acc.partitioned_solves += c.partitioned_solves;
    acc.components += c.components;
    acc.component_max = acc.component_max.max(c.component_max);
    acc.singleton_components += c.singleton_components;
    acc.components_reused += c.components_reused;
}

/// The exact engine counters and the ratios built from them.
pub fn engine_counters(out: &mut Outcome, c: &EngineCounters) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("simcore.events", c.events as f64);
    out.set("simcore.completions", c.completions as f64);
    out.set("simcore.solves", c.solves as f64);
    out.set("simcore.solver_flows", c.solver_flows as f64);
    out.set("simcore.solver_groups", c.solver_groups as f64);
    out.set("simcore.heap_pushes", c.heap_pushes as f64);
    out.set("simcore.heap_stale", c.heap_stale as f64);
    out.set("simcore.fastpath_events", c.fastpath_events as f64);
    out.set("simcore.integrations", c.integrations as f64);
    out.set("simcore.components", c.components as f64);
    out.set("simcore.components_reused", c.components_reused as f64);
    out.set("simcore.flows_per_solve", ratio(c.solver_flows, c.solves));
    out.set(
        "simcore.group_collapse",
        ratio(c.solver_flows, c.solver_groups),
    );
    out.set("simcore.heap_stale_ratio", ratio(c.heap_stale, c.heap_pops));
    out.set("simcore.solves_per_event", ratio(c.solves, c.events));
    out.set(
        "simcore.memo_hit_ratio",
        ratio(c.components_reused, c.components),
    );
}
