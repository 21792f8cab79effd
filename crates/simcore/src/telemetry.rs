//! Engine observability: resource time series, utilization histograms,
//! and engine-internal counters.
//!
//! The simulator's headline output (the event trace in [`crate::trace`])
//! says *what* happened; this module records *why*: how hard each resource
//! was driven over time, how deep its queue of concurrent flows was, and
//! how much work the incremental solver actually did. Three instruments:
//!
//! * **Per-resource time series** — at every solver epoch (the only
//!   instants at which rates can change) the engine samples, for each
//!   resource, the total allocated rate and the number of streaming flows
//!   crossing it. Samples land in a fixed-capacity ring buffer
//!   ([`RingSeries`]) so long simulations have bounded memory; the number
//!   of evicted samples is reported so consumers know the series is
//!   truncated.
//! * **Windowed utilization histograms** — every integration span
//!   contributes `dt` seconds to the bin matching the resource's achieved
//!   utilization over that span ([`UtilizationHistogram`]), extending the
//!   two scalars of [`crate::stats::ResourceStats`] into a distribution.
//! * **Engine counters** ([`EngineCounters`]) — solve calls, solver input
//!   sizes before and after route grouping, heap traffic, lazy
//!   invalidations, and deferred-integration fast-path events. These make
//!   the incremental engine's claimed savings observable on any run
//!   instead of only on the criterion benches.
//!
//! Sampling and histograms are **disabled by default** and cost nothing
//! when off (a single branch per solve / integration); enable them with
//! [`TelemetryConfig`] via [`crate::engine::EngineConfig`] or
//! [`crate::Engine::set_telemetry_config`]. Counters are plain integer
//! increments and are always maintained.
//!
//! Telemetry never influences the simulation: rates, event times, and
//! completion order are identical with telemetry on or off (property-tested
//! in `tests/trace_export.rs`).

use crate::ids::{ActivityId, ResourceId};

/// Configuration of the sampling instruments.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch for time-series sampling and utilization histograms.
    /// Counters are always on. Defaults to `false`.
    pub enabled: bool,
    /// Maximum retained samples per resource series; older samples are
    /// evicted ring-buffer style. Defaults to 4096.
    pub ring_capacity: usize,
    /// Number of equal-width utilization bins over `[0, 1]`. Defaults
    /// to 10.
    pub histogram_bins: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 4096,
            histogram_bins: 10,
        }
    }
}

impl TelemetryConfig {
    /// A configuration with sampling enabled and default sizes.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Self::default()
        }
    }
}

/// One time-series sample for one resource, taken at a solver epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSample {
    /// Simulated time of the sample, seconds.
    pub time: f64,
    /// Total rate allocated across the resource at that instant, in the
    /// resource's work units per second.
    pub allocated_rate: f64,
    /// Number of streaming flows crossing the resource (queue depth).
    pub queue_depth: u32,
}

/// A bounded, chronologically ordered sample buffer.
///
/// Pushing beyond capacity evicts the oldest sample and increments
/// [`RingSeries::evicted`], so consumers can tell a truncated series from a
/// complete one.
#[derive(Debug, Clone, Default)]
pub struct RingSeries {
    cap: usize,
    /// Index of the oldest sample once the buffer has wrapped.
    head: usize,
    buf: Vec<ResourceSample>,
    evicted: u64,
}

impl RingSeries {
    /// Creates an empty series retaining at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        RingSeries {
            cap: cap.max(1),
            head: 0,
            buf: Vec::new(),
            evicted: 0,
        }
    }

    /// Appends a sample, evicting the oldest if the buffer is full.
    pub fn push(&mut self, sample: ResourceSample) {
        if self.buf.len() < self.cap {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of samples evicted because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained samples in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceSample> {
        let (older, newer) = self.buf.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// Retained samples as an owned, chronologically ordered vector.
    pub fn to_vec(&self) -> Vec<ResourceSample> {
        self.iter().copied().collect()
    }
}

/// Time-weighted distribution of a resource's achieved utilization.
///
/// Each integration span of length `dt` adds `dt` seconds to the bin for
/// the utilization achieved over that span (`served / dt / capacity`,
/// clamped to `[0, 1]`). Bins are equal-width over `[0, 1]`; the last bin
/// is closed so a fully utilized span lands in it.
#[derive(Debug, Clone, Default)]
pub struct UtilizationHistogram {
    bins: Vec<f64>,
    /// Integral of utilization over recorded time (for the exact
    /// time-weighted mean, independent of binning).
    weighted: f64,
    total: f64,
}

impl UtilizationHistogram {
    /// Creates a histogram with `bins` equal-width utilization bins.
    pub fn new(bins: usize) -> Self {
        UtilizationHistogram {
            bins: vec![0.0; bins.max(1)],
            weighted: 0.0,
            total: 0.0,
        }
    }

    /// Adds `dt` seconds spent at the given utilization (clamped to
    /// `[0, 1]`). Zero or negative spans are ignored.
    pub fn record(&mut self, utilization: f64, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let u = utilization.clamp(0.0, 1.0);
        let n = self.bins.len();
        let idx = ((u * n as f64) as usize).min(n - 1);
        self.bins[idx] += dt;
        self.weighted += u * dt;
        self.total += dt;
    }

    /// Seconds accumulated per utilization bin, lowest bin first.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Total recorded time, seconds.
    pub fn total_time(&self) -> f64 {
        self.total
    }

    /// Exact time-weighted mean utilization over the recorded spans, or 0
    /// if nothing was recorded.
    pub fn mean_utilization(&self) -> f64 {
        if self.total > 0.0 {
            self.weighted / self.total
        } else {
            0.0
        }
    }
}

/// Monotonic counters over engine internals. Always maintained (integer
/// increments); reset only by building a fresh engine.
///
/// Together these expose the incremental engine's work savings: compare
/// `solves` with `events`, or `solver_flows` with `solver_groups`, to see
/// the dirty-set and route-grouping optimizations acting on a given run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Event instants processed (batches of simultaneous completions).
    pub events: u64,
    /// Completions delivered to the caller.
    pub completions: u64,
    /// Fair-share solver invocations.
    pub solves: u64,
    /// Streaming flows summed over all solves (the dirty-set sizes).
    pub solver_flows: u64,
    /// Weighted solver entries summed over all solves (after route
    /// grouping; equals `solver_flows` in naive mode).
    pub solver_groups: u64,
    /// Events pushed onto the pending-event heap.
    pub heap_pushes: u64,
    /// Events popped from the heap (live and stale).
    pub heap_pops: u64,
    /// Stale heap entries discarded by lazy invalidation (superseded
    /// flow-end predictions and already-completed activities).
    pub heap_stale: u64,
    /// Pure-delay events absorbed by the deferred-integration fast path
    /// (no solve, no integration, no completion scan).
    pub fastpath_events: u64,
    /// Integration spans applied with `dt > 0`.
    pub integrations: u64,
    /// Solves that went through the connected-component partitioner:
    /// every [`crate::SolveMode::Incremental`] solve, none in
    /// [`crate::SolveMode::Naive`].
    pub partitioned_solves: u64,
    /// Connected components summed over all partitioned solves; divide by
    /// `partitioned_solves` for the mean decomposition width.
    pub components: u64,
    /// Entry count of the largest component seen in any partitioned solve
    /// (a running maximum, not a sum).
    pub component_max: u64,
    /// Single-entry components summed over all partitioned solves.
    pub singleton_components: u64,
    /// Components whose results were reused from the previous solve's
    /// memo (exact content-key match; bit-for-bit identical to solving),
    /// summed over all partitioned solves. `components -
    /// components_reused` is the number of sub-problems actually solved.
    pub components_reused: u64,
}

impl EngineCounters {
    /// All counters as `(name, value)` pairs, in a stable order; the names
    /// are the exported identifiers of the trace-format contract (see
    /// `docs/trace-format.md`).
    pub fn as_named(&self) -> [(&'static str, u64); 15] {
        [
            ("events", self.events),
            ("completions", self.completions),
            ("solves", self.solves),
            ("solver_flows", self.solver_flows),
            ("solver_groups", self.solver_groups),
            ("heap_pushes", self.heap_pushes),
            ("heap_pops", self.heap_pops),
            ("heap_stale", self.heap_stale),
            ("fastpath_events", self.fastpath_events),
            ("integrations", self.integrations),
            ("partitioned_solves", self.partitioned_solves),
            ("components", self.components),
            ("component_max", self.component_max),
            ("singleton_components", self.singleton_components),
            ("components_reused", self.components_reused),
        ]
    }
}

/// The engine-owned telemetry state: counters plus, when enabled,
/// per-resource sample rings and utilization histograms.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    config: TelemetryConfig,
    /// Engine-internal counters (always on).
    pub counters: EngineCounters,
    series: Vec<RingSeries>,
    histograms: Vec<UtilizationHistogram>,
}

impl Telemetry {
    /// Creates telemetry state for the given configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            counters: EngineCounters::default(),
            series: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Whether sampling instruments are active.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Replaces the configuration, keeping counters. Existing samples are
    /// retained when still enabled; grows per-resource state lazily.
    pub fn set_config(&mut self, config: TelemetryConfig) {
        if !config.enabled {
            self.series.clear();
            self.histograms.clear();
        } else if config.ring_capacity != self.config.ring_capacity
            || config.histogram_bins != self.config.histogram_bins
        {
            let n = self.series.len().max(self.histograms.len());
            self.series = (0..n)
                .map(|_| RingSeries::new(config.ring_capacity))
                .collect();
            self.histograms = (0..n)
                .map(|_| UtilizationHistogram::new(config.histogram_bins))
                .collect();
        }
        self.config = config;
    }

    /// Grows per-resource state to cover `n` resources.
    pub fn ensure_resources(&mut self, n: usize) {
        if !self.config.enabled {
            return;
        }
        while self.series.len() < n {
            self.series.push(RingSeries::new(self.config.ring_capacity));
        }
        while self.histograms.len() < n {
            self.histograms
                .push(UtilizationHistogram::new(self.config.histogram_bins));
        }
    }

    /// Records one sample per resource at time `t`. `rates[i]` and
    /// `depths[i]` are the allocated rate and queue depth of resource `i`.
    pub fn record_samples(&mut self, t: f64, rates: &[f64], depths: &[u32]) {
        if !self.config.enabled {
            return;
        }
        self.ensure_resources(rates.len());
        for (i, series) in self.series.iter_mut().enumerate().take(rates.len()) {
            series.push(ResourceSample {
                time: t,
                allocated_rate: rates[i],
                queue_depth: depths[i],
            });
        }
    }

    /// Accounts one integration span: resource `i` served `served[i]` work
    /// units over `dt` seconds against capacity `capacities[i]`.
    pub fn record_utilization(&mut self, served: &[f64], dt: f64, capacities: &[f64]) {
        if !self.config.enabled || dt <= 0.0 {
            return;
        }
        self.ensure_resources(served.len());
        for (i, hist) in self.histograms.iter_mut().enumerate().take(served.len()) {
            let cap = capacities[i];
            let util = if cap > 0.0 { served[i] / dt / cap } else { 0.0 };
            hist.record(util, dt);
        }
    }

    /// The sample series of resource `i`, if sampling is enabled and the
    /// resource has been observed.
    pub fn series(&self, i: usize) -> Option<&RingSeries> {
        self.series.get(i)
    }

    /// The utilization histogram of resource `i`, if available.
    pub fn histogram(&self, i: usize) -> Option<&UtilizationHistogram> {
        self.histograms.get(i)
    }
}

/// Contention accounting of one completed flow (always maintained, like
/// [`EngineCounters`]).
///
/// The *uncontended rate* is what the flow would achieve alone: the minimum
/// capacity along its route, clamped by its rate cap. Whenever the achieved
/// fair-share rate falls short of it, the engine integrates the gap and
/// attributes it to the binding resource identified by the fair-share
/// solver's freeze pass ([`crate::fairshare::Binding`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRecord {
    /// The flow's activity id.
    pub id: ActivityId,
    /// Spawn time, seconds.
    pub start: f64,
    /// Completion time, seconds.
    pub end: f64,
    /// Startup latency the flow was spawned with, seconds.
    pub latency: f64,
    /// Work the flow was spawned with (bytes or core-seconds).
    pub amount: f64,
    /// Rate the flow would have achieved alone (min capacity along the
    /// route, clamped by the rate cap).
    pub uncontended_rate: f64,
    /// Work not transferred due to contention: `∫ (uncontended − achieved)
    /// dt` over the flow's streaming spans.
    pub lost_work: f64,
    /// Seconds lost to contention: `lost_work / uncontended_rate`, i.e. the
    /// flow's duration minus its ideal (uncontended) duration.
    pub wait: f64,
    /// The resource that caused most of the lost work, or `None` when the
    /// flow never lost work to a resource (it ran at its cap throughout).
    pub binding: Option<ResourceId>,
    /// Lost work per blamed resource, in first-blamed order.
    pub blame: Vec<(ResourceId, f64)>,
}

impl ContentionRecord {
    /// Wall-clock duration of the flow, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Duration the flow would have had alone: latency plus work at the
    /// uncontended rate (zero work at infinite rate).
    pub fn ideal_duration(&self) -> f64 {
        if self.uncontended_rate.is_finite() && self.uncontended_rate > 0.0 {
            self.latency + self.amount / self.uncontended_rate
        } else {
            self.latency
        }
    }
}

/// Aggregate contention blamed on one resource (always maintained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBlame {
    /// Total work victims failed to transfer while bound here.
    pub lost_work: f64,
    /// Total victim-seconds lost while bound here (each victim flow's
    /// `gap / uncontended_rate`, integrated).
    pub wait: f64,
    /// Earliest instant blame accrued, seconds (`INFINITY` when none).
    pub first: f64,
    /// Latest instant blame accrued, seconds (`NEG_INFINITY` when none).
    pub last: f64,
}

impl Default for ResourceBlame {
    fn default() -> Self {
        ResourceBlame {
            lost_work: 0.0,
            wait: 0.0,
            first: f64::INFINITY,
            last: f64::NEG_INFINITY,
        }
    }
}

impl ResourceBlame {
    /// The `[first, last]` interval over which blame accrued, or `None`
    /// when the resource was never a binding constraint with a gap.
    pub fn interval(&self) -> Option<(f64, f64)> {
        (self.first <= self.last).then_some((self.first, self.last))
    }
}

/// Owned copy of one resource's telemetry, with identity attached.
#[derive(Debug, Clone)]
pub struct ResourceTelemetry {
    /// Resource name as registered with the engine.
    pub name: String,
    /// Resource capacity, work units per second.
    pub capacity: f64,
    /// Retained `(time, allocated_rate, queue_depth)` samples,
    /// chronological.
    pub samples: Vec<ResourceSample>,
    /// Samples evicted from the ring before this snapshot.
    pub evicted: u64,
    /// Time-weighted utilization distribution.
    pub histogram: UtilizationHistogram,
    /// Contention blamed on this resource.
    pub blame: ResourceBlame,
}

/// A self-contained copy of a run's telemetry, detached from the engine.
///
/// Produced by [`crate::Engine::telemetry_snapshot`]; consumed by the
/// report/exporter layer in `wfbb-wms`.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Engine counters at snapshot time.
    pub counters: EngineCounters,
    /// Per-resource series and histograms, in resource-index order.
    pub resources: Vec<ResourceTelemetry>,
    /// Per-flow contention records, in completion order.
    pub contention: Vec<ContentionRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, r: f64, q: u32) -> ResourceSample {
        ResourceSample {
            time: t,
            allocated_rate: r,
            queue_depth: q,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let mut s = RingSeries::new(3);
        for k in 0..5 {
            s.push(sample(k as f64, 1.0, 1));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let times: Vec<f64> = s.iter().map(|x| x.time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
        assert_eq!(s.to_vec().len(), 3);
    }

    #[test]
    fn ring_below_capacity_is_chronological() {
        let mut s = RingSeries::new(8);
        s.push(sample(0.0, 1.0, 1));
        s.push(sample(1.0, 2.0, 2));
        let v = s.to_vec();
        assert_eq!(v[0].time, 0.0);
        assert_eq!(v[1].queue_depth, 2);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    fn histogram_bins_time_by_utilization() {
        let mut h = UtilizationHistogram::new(10);
        h.record(0.05, 2.0); // bin 0
        h.record(0.55, 1.0); // bin 5
        h.record(1.0, 3.0); // clamped into last bin
        h.record(2.0, 1.0); // clamped to 1.0, last bin
        assert_eq!(h.bins()[0], 2.0);
        assert_eq!(h.bins()[5], 1.0);
        assert_eq!(h.bins()[9], 4.0);
        assert_eq!(h.total_time(), 7.0);
        let mean = (0.05 * 2.0 + 0.55 + 1.0 * 3.0 + 1.0) / 7.0;
        assert!((h.mean_utilization() - mean).abs() < 1e-12);
    }

    #[test]
    fn histogram_ignores_empty_spans() {
        let mut h = UtilizationHistogram::new(4);
        h.record(0.5, 0.0);
        h.record(0.5, -1.0);
        assert_eq!(h.total_time(), 0.0);
        assert_eq!(h.mean_utilization(), 0.0);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record_samples(1.0, &[5.0], &[1]);
        t.record_utilization(&[5.0], 1.0, &[10.0]);
        assert!(t.series(0).is_none());
        assert!(t.histogram(0).is_none());
    }

    #[test]
    fn enabled_telemetry_tracks_per_resource() {
        let mut t = Telemetry::new(TelemetryConfig::enabled());
        t.record_samples(1.0, &[5.0, 0.0], &[2, 0]);
        t.record_utilization(&[5.0, 0.0], 1.0, &[10.0, 10.0]);
        let s0 = t.series(0).unwrap();
        assert_eq!(s0.len(), 1);
        assert_eq!(s0.to_vec()[0].queue_depth, 2);
        let h0 = t.histogram(0).unwrap();
        assert!((h0.mean_utilization() - 0.5).abs() < 1e-12);
        let h1 = t.histogram(1).unwrap();
        assert_eq!(h1.mean_utilization(), 0.0);
    }

    #[test]
    fn counter_names_are_stable() {
        let c = EngineCounters {
            solves: 3,
            ..Default::default()
        };
        let named = c.as_named();
        assert_eq!(named.len(), 15);
        assert!(named.contains(&("solves", 3)));
        // Names are unique.
        let mut names: Vec<_> = named.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn blame_interval_requires_accrual() {
        let empty = ResourceBlame::default();
        assert_eq!(empty.interval(), None);
        let accrued = ResourceBlame {
            lost_work: 5.0,
            wait: 0.5,
            first: 1.0,
            last: 3.0,
        };
        assert_eq!(accrued.interval(), Some((1.0, 3.0)));
    }

    #[test]
    fn contention_record_ideal_duration() {
        let rec = ContentionRecord {
            id: ActivityId(0),
            start: 0.0,
            end: 12.0,
            latency: 2.0,
            amount: 100.0,
            uncontended_rate: 20.0,
            lost_work: 100.0,
            wait: 5.0,
            binding: Some(ResourceId::from_index(0)),
            blame: vec![(ResourceId::from_index(0), 100.0)],
        };
        assert!((rec.ideal_duration() - 7.0).abs() < 1e-12);
        assert!((rec.duration() - 12.0).abs() < 1e-12);
        // wait = duration - ideal for a flow contended its whole life.
        assert!((rec.duration() - rec.ideal_duration() - rec.wait).abs() < 1e-12);
    }

    #[test]
    fn reconfiguring_disabled_drops_samples() {
        let mut t = Telemetry::new(TelemetryConfig::enabled());
        t.record_samples(1.0, &[5.0], &[1]);
        t.set_config(TelemetryConfig::default());
        assert!(t.series(0).is_none());
        assert!(!t.enabled());
    }
}
