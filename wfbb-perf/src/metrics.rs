//! The metric catalogue and the result every run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; the smoke test checks the two agree. Every workload
//! reports every metric: an untraced run the end-to-end ones, a traced
//! run the per-layer ones (zero where a workload never enters a layer —
//! a count or share, never a time).

use std::collections::BTreeMap;

use crate::stats::Summary;

/// A metric's name and unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of each path sees. An *op* is one simulation
/// (`paper_sweep`), a fixed number of campaign steps (`campaign_large`),
/// one campaign (`campaign_plan`) or one HTTP request from its due time
/// to its fetched report (`serve_*`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("op_p50_ms", "ms"),
    def("op_p90_ms", "ms"),
    def("ops_per_s", "1/s"),
    def("peak_rss_mb", "MB"),
];

/// One layer each, named after the crate (`simcore`, `wms`, `storage`,
/// `scheduler`, `serve`). Shares are self time over op time in the
/// traced run; counts are exact totals over its first unit of work (one
/// sweep pass, one campaign, the replayed service keys).
pub const PER_LAYER: &[Def] = &[
    // simcore: Engine::try_step (for campaigns, SchedProfile::solve_ns).
    def("simcore.step_share", "share"),
    def("simcore.ns_per_event", "ns"),
    def("simcore.events", "count"),
    def("simcore.completions", "count"),
    def("simcore.solves", "count"),
    def("simcore.solver_flows", "count"),
    def("simcore.solver_groups", "count"),
    def("simcore.heap_pushes", "count"),
    def("simcore.heap_stale", "count"),
    def("simcore.fastpath_events", "count"),
    def("simcore.integrations", "count"),
    def("simcore.components", "count"),
    def("simcore.components_reused", "count"),
    def("simcore.flows_per_solve", "ratio"),
    def("simcore.group_collapse", "ratio"),
    def("simcore.heap_stale_ratio", "ratio"),
    def("simcore.solves_per_event", "ratio"),
    def("simcore.memo_hit_ratio", "ratio"),
    // wms: the executor lifecycle.
    def("wms.setup_share", "share"),
    def("wms.start_share", "share"),
    def("wms.callback_share", "share"),
    def("wms.report_share", "share"),
    def("wms.ns_per_callback", "ns"),
    def("wms.callbacks", "count"),
    // storage: PlacementPolicy::plan.
    def("storage.placement_share", "share"),
    // scheduler: CampaignSim and its SchedProfile.
    def("scheduler.new_share", "share"),
    def("scheduler.admit_share", "share"),
    def("scheduler.plan_share", "share"),
    def("scheduler.fork_share", "share"),
    def("scheduler.rollout_share", "share"),
    def("scheduler.log_share", "share"),
    def("scheduler.dispatch_share", "share"),
    def("scheduler.finish_share", "share"),
    def("scheduler.export_share", "share"),
    def("scheduler.export_bytes", "B"),
    def("scheduler.admission_passes", "count"),
    def("scheduler.plan_choices", "count"),
    def("scheduler.plan_forks", "count"),
    // serve: the client's view of each request, the server's counters,
    // and the in-process replay of the same keys.
    def("serve.submit_share", "share"),
    def("serve.poll_share", "share"),
    def("serve.fetch_share", "share"),
    def("serve.wait_share", "share"),
    def("serve.queue_share", "share"),
    def("serve.gen_late_share", "share"),
    def("serve.cache_hits", "count"),
    def("serve.cache_misses", "count"),
    def("serve.cache_evictions", "count"),
    def("serve.hit_ratio", "ratio"),
    def("serve.worker_load", "ratio"),
    def("serve.artifact_bytes", "B"),
    // The harness itself.
    def("harness.share", "share"),
    def("trace.overhead", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spread of the per-op samples behind a metric, for the printout.
    pub spreads: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Lines printed with the metrics that are not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn set_summary(&mut self, name: &'static str, value: f64, spread: Summary) {
        self.set(name, value);
        self.spreads.insert(name, spread);
    }

    /// Counts one attempted operation or check, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Keeps exactly `defs`, setting any a workload never reached to 0.
    pub fn restrict(&mut self, defs: &[Def]) {
        self.metrics
            .retain(|k, _| defs.iter().any(|d| d.name == *k));
        for d in defs {
            self.metrics.entry(d.name).or_insert(0.0);
        }
    }

    /// `workload metric value unit (n, min/median/max)` per metric.
    pub fn print_lines(&self, workload: &str) {
        for (name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            match self.spreads.get(name) {
                Some(s) => println!(
                    "{workload} {name} {value} {unit} (n={}, {}/{}/{})",
                    s.n, s.min, s.median, s.max
                ),
                None => println!("{workload} {name} {value} {unit} (n=1)"),
            }
        }
        for n in &self.notes {
            println!("{workload} {n}");
        }
        for p in &self.problems {
            println!("{workload} CHECK FAILED: {p}");
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_num(*value),
                    unit_of(name).unwrap_or("")
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number with all its digits (`{:?}` round-trips an f64);
/// non-finite values, which only a broken run produces, become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.25);
        o.check(true, String::new);
        o.restrict(END_TO_END);
        let line = o.result_json();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(1));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(|x| x.as_f64()),
            Some(0.25)
        );
        assert!(m.get("op_p50_ms").is_some());
    }
}
