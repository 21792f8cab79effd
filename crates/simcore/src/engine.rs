//! The discrete-event engine.
//!
//! [`Engine`] advances simulated time from completion to completion. Between
//! events, every active flow streams at the rate computed by the max–min
//! fair-share solver ([`crate::fairshare`]); the engine integrates remaining
//! work, finds the earliest finishing activity, jumps there, and hands the
//! completion back to the caller, who reacts by spawning further activities.
//!
//! This *pull* design keeps the control logic (schedulers, workflow engines)
//! in ordinary Rust code instead of simulated processes, while remaining
//! faithful to the fluid model of SimGrid on which the paper's simulator is
//! built.
//!
//! ## Incremental stepping
//!
//! The default [`SolveMode::Incremental`] engine avoids the naive
//! per-event rebuild in three ways:
//!
//! * **Dirty-set re-solve** — the fair-share allocation is recomputed only
//!   when the set of streaming flows changes (a flow starts streaming,
//!   finishes, or exits its latency phase). Events that leave rates
//!   untouched — pure delays, the bulk of a workflow execution's events
//!   (metadata timers, compute phases) — skip the solver entirely.
//! * **Route grouping** — streaming flows are grouped by (route, rate cap)
//!   signature and each group enters the solver as one weighted entry: `N`
//!   concurrent transfers over the same link cost one solver slot.
//! * **Component solves** — the grouped entries are split into connected
//!   components over shared resources and each component is solved on its
//!   own, reusing the previous solve's result for every component whose
//!   inputs did not change ([`crate::partition`]). Solver buffers live in
//!   a persistent [`partition::PartitionWorkspace`], so steady-state
//!   stepping performs no allocations.
//! * **Event heap** — the next event comes from a [`BinaryHeap`] holding
//!   delay ends, latency expiries, and one flow-completion candidate per
//!   solve epoch, instead of a linear scan over all active activities.
//!   Candidates are invalidated lazily: re-solving bumps the epoch, and
//!   stale entries are discarded when they surface.
//!
//! [`SolveMode::Naive`] preserves the reference behavior (full monolithic
//! re-solve and linear scan every event) for A/B verification; in debug
//! builds the incremental engine additionally cross-checks every chosen
//! event time against the linear scan.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use crate::activity::{ActivityKind, FlowSpec};
use crate::fairshare::{self, Binding, WeightedReq};
use crate::fault::{CapacityFault, FaultPlan};
use crate::ids::{ActivityId, ResourceId};
use crate::partition;
use crate::resource::Resource;
use crate::stats::ResourceStats;
use crate::telemetry::{
    ContentionRecord, EngineCounters, ResourceBlame, ResourceTelemetry, Telemetry, TelemetryConfig,
    TelemetrySnapshot,
};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceEventKind, TraceLog};
use crate::EPSILON;

/// Construction-time engine options, bundling the trace switch, the solve
/// strategy, and the telemetry instruments (see [`crate::telemetry`]).
///
/// Everything defaults to the cheap path: no trace, incremental solving
/// by connected components, telemetry sampling off. The trace switch and
/// the solve mode are fixed for the engine's lifetime; only the telemetry
/// instruments can be changed later ([`Engine::set_telemetry_config`]).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Record start/end events into the [`TraceLog`].
    pub trace: bool,
    /// Solve strategy; see [`SolveMode`].
    pub solve_mode: SolveMode,
    /// Sampling instruments; see [`TelemetryConfig`].
    pub telemetry: TelemetryConfig,
}

/// What [`Engine::cancel_activity`] removed: the activity's tag plus how
/// much of its work had been done at the cancellation instant.
#[derive(Debug)]
pub struct Cancelled<T> {
    /// The caller-supplied tag of the cancelled activity.
    pub tag: T,
    /// Work completed before cancellation (bytes or core-seconds for
    /// flows; `0.0` for delays).
    pub work_done: f64,
    /// Work outstanding at cancellation (seconds left for delays).
    pub remaining: f64,
}

/// A completed activity, as returned by [`Engine::step`].
#[derive(Debug, Clone)]
pub struct Completion<T> {
    /// Which activity completed.
    pub id: ActivityId,
    /// When it completed.
    pub time: SimTime,
    /// The caller-supplied tag, handed back.
    pub tag: T,
}

/// How the engine recomputes rates and finds the next event. Chosen at
/// construction through [`EngineConfig::solve_mode`] and fixed for the
/// engine's lifetime (forks inherit it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Re-solve the full allocation in one monolithic progressive-filling
    /// pass and scan every activity on every event. The reference
    /// implementation, kept as the A/B oracle for tests.
    Naive,
    /// Re-solve only when the streaming set changes, group identical flows,
    /// solve each connected component of the resource-sharing graph
    /// independently (see [`crate::partition`]), and pull the next event
    /// from a heap. Equivalent to [`Self::Naive`] up to floating-point
    /// noise far below [`EPSILON`].
    #[default]
    Incremental,
}

/// Errors surfaced by [`Engine::try_step`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Active activities exist but none can make progress: every streaming
    /// flow has (numerically) zero rate and no delay or latency expiry is
    /// pending. Indicates a malformed platform (e.g. a rate cap below the
    /// solver tolerance), not a normal simulation outcome.
    Stalled {
        /// Simulated time at which progress stopped.
        time: SimTime,
        /// Number of stuck activities.
        active: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Stalled { time, active } => write!(
                f,
                "simulation stalled at {time}: {active} active activities but no progress possible"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug, Clone)]
struct Activity<T> {
    kind: ActivityKind,
    tag: T,
    label: Option<String>,
}

/// Sentinel for [`FlowSlot::stream_pos`]: the flow is still in its latency
/// phase (or the slot is free).
const LATENT: u32 = u32::MAX;

/// Flow state, stored densely so integration and solving iterate flat
/// arrays instead of walking the activity map.
#[derive(Debug, Clone)]
struct FlowSlot {
    id: ActivityId,
    /// Absolute time at which the startup latency elapses.
    latency_until: f64,
    remaining: f64,
    route: Vec<ResourceId>,
    rate_cap: Option<f64>,
    rate: f64,
    /// Position in `Engine::streams`, or [`LATENT`].
    stream_pos: u32,
    /// Grouping signature: flows with equal keys *and* equal (route, cap)
    /// share one weighted solver entry. The key is a hash, so distinct
    /// routes may collide; grouping re-checks actual equality.
    group_key: u64,
    /// Spawn time, seconds.
    spawned: f64,
    /// Work the flow was spawned with.
    amount: f64,
    /// Rate the flow would achieve alone: min capacity along its route,
    /// clamped by the rate cap.
    uncontended: f64,
    /// Constraint that froze this flow in the latest solve.
    binding: Binding,
    /// Lost work accumulated per blamed resource, in first-blamed order.
    lost_by: Vec<(ResourceId, f64)>,
}

impl FlowSlot {
    /// Completion predicate for a streaming flow.
    fn is_done(&self) -> bool {
        self.remaining <= EPSILON || (self.rate > EPSILON && self.remaining / self.rate <= EPSILON)
    }
}

/// FNV-1a over the route indices and cap bits; deterministic across runs.
fn group_key(route: &[ResourceId], rate_cap: Option<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in route {
        mix(r.index() as u64);
    }
    mix(rate_cap.map_or(u64::MAX, f64::to_bits));
    h
}

/// What a heap entry announces ("ends" throughout: a delay elapsing, a
/// flow's latency phase elapsing, a flow's predicted completion).
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    DelayEnd,
    LatencyEnd,
    FlowEnd,
}

/// An entry in the pending-event heap. Ordered by time (total order), then
/// id, for deterministic pops.
#[derive(Debug, Clone, Copy)]
struct HeapEvent {
    time: f64,
    id: ActivityId,
    kind: EventKind,
    /// Solve epoch a `FlowEnd` prediction belongs to; stale epochs are
    /// discarded lazily. Ignored for the other kinds.
    epoch: u64,
}

impl PartialEq for HeapEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEvent {}
impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| (self.kind as u8).cmp(&(other.kind as u8)))
            .then_with(|| self.epoch.cmp(&other.epoch))
    }
}

/// Discrete-event fluid simulation engine.
///
/// The type parameter `T` is an opaque per-activity tag returned with each
/// completion; higher layers use it to identify what finished (a task's
/// input transfer, its compute phase, ...).
///
/// When `T: Clone` the whole engine state is cloneable, which is the basis
/// of [`Engine::fork`] — see `docs/snapshot.md` for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Engine<T> {
    resources: Vec<Resource>,
    stats: Vec<ResourceStats>,
    /// Mirror of `resources[i].capacity`, the shape the solver wants.
    capacities: Vec<f64>,
    now: SimTime,
    next_id: u64,
    active: BTreeMap<ActivityId, Activity<T>>,
    /// Flow arena; slots are recycled through `free_slots`.
    flows: Vec<FlowSlot>,
    free_slots: Vec<u32>,
    /// Slots of flows currently streaming (latency elapsed, not finished).
    streams: Vec<u32>,
    ready: std::collections::VecDeque<Completion<T>>,
    trace: TraceLog,
    trace_enabled: bool,
    mode: SolveMode,
    /// Streaming set changed since the last solve.
    dirty: bool,
    /// Bumped on every re-solve; invalidates outstanding predictions.
    epoch: u64,
    events: BinaryHeap<Reverse<HeapEvent>>,
    /// Monolithic-solve buffers ([`SolveMode::Naive`]).
    ws: fairshare::Workspace,
    /// Component-solve buffers ([`SolveMode::Incremental`]).
    pws: partition::PartitionWorkspace,
    /// How far stream integration has advanced. Between solves rates are
    /// constant, so integration over a span of pure-delay events can be
    /// deferred and applied in one multiplication per flow — `now` may run
    /// ahead of this. Always caught up before the streaming set or rates
    /// change.
    integrated_until: f64,
    /// Lower bound (from the last solve) on the earliest time any
    /// streaming flow can satisfy the completion predicate. Events before
    /// this bound with an unchanged streaming set skip integration and the
    /// completion scan entirely.
    earliest_done: f64,
    // Reusable scratch buffers (steady-state stepping allocates nothing).
    order: Vec<u32>,
    /// Activity ids parallel to `order`, to detect slot recycling when the
    /// order is incrementally rebuilt (see [`Engine::rebuild_order`]).
    order_ids: Vec<ActivityId>,
    /// Slots made streaming since the last incremental solve, merged into
    /// `order` by [`Engine::rebuild_order`] and then cleared.
    newly_streaming: Vec<u32>,
    order_scratch: Vec<u32>,
    order_ids_scratch: Vec<ActivityId>,
    groups: Vec<(u32, u32)>,
    busy: Vec<bool>,
    done_buf: Vec<ActivityId>,
    promote_buf: Vec<u32>,
    deferred: Vec<HeapEvent>,
    window_buf: Vec<HeapEvent>,
    telemetry: Telemetry,
    // Telemetry scratch (per-resource accumulators, used only when
    // sampling is enabled).
    rate_accum: Vec<f64>,
    depth_accum: Vec<u32>,
    served_accum: Vec<f64>,
    /// Contention records of completed flows, in completion order (always
    /// maintained, one per non-instant flow).
    contention_log: Vec<ContentionRecord>,
    /// Index into `contention_log` by activity id.
    contention_index: HashMap<ActivityId, u32>,
    /// Per-resource blame accumulators, parallel to `resources`.
    blame: Vec<ResourceBlame>,
    /// Scheduled capacity faults, sorted by time; `fault_cursor` points at
    /// the next unapplied event. Empty unless a fault plan was installed.
    faults: Vec<CapacityFault>,
    fault_cursor: usize,
}

impl<T> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Engine<T> {
    /// Clones the engine into an independent copy that can be stepped
    /// forward hypothetically without affecting `self`.
    ///
    /// The copy is deep: resources and capacities, the activity map, the
    /// flow arena (per-flow rates, latency phases, contention blame), the
    /// lazy event heap with its epoch counters, the solver workspaces and
    /// their component memo, the deferred-integration watermarks,
    /// telemetry and trace state, and any installed fault plan with its
    /// cursor. The fork and the original therefore produce **bitwise
    /// identical** event sequences if driven identically, in either
    /// [`SolveMode`]. Nothing is shared, so overwriting a dirty engine
    /// with `*dirty = held.fork()` leaks none of its state. Cost is
    /// O(resources + active activities + pending heap events); see
    /// `docs/snapshot.md` for the full contract.
    pub fn fork(&self) -> Engine<T> {
        self.clone()
    }
}

impl<T> Engine<T> {
    /// Creates an empty engine at time zero with all options at their
    /// defaults (no trace, incremental solving, telemetry sampling off).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Creates an empty engine at time zero with explicit options.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            resources: Vec::new(),
            stats: Vec::new(),
            capacities: Vec::new(),
            now: SimTime::ZERO,
            next_id: 0,
            active: BTreeMap::new(),
            flows: Vec::new(),
            free_slots: Vec::new(),
            streams: Vec::new(),
            ready: std::collections::VecDeque::new(),
            trace: TraceLog::new(),
            trace_enabled: config.trace,
            mode: config.solve_mode,
            // A fresh engine has never solved, so its first step solves
            // (and takes the first telemetry sample) even if nothing
            // streams yet.
            dirty: true,
            epoch: 0,
            events: BinaryHeap::new(),
            ws: fairshare::Workspace::new(),
            pws: partition::PartitionWorkspace::new(),
            integrated_until: 0.0,
            earliest_done: f64::INFINITY,
            order: Vec::new(),
            order_ids: Vec::new(),
            newly_streaming: Vec::new(),
            order_scratch: Vec::new(),
            order_ids_scratch: Vec::new(),
            groups: Vec::new(),
            busy: Vec::new(),
            done_buf: Vec::new(),
            promote_buf: Vec::new(),
            deferred: Vec::new(),
            window_buf: Vec::new(),
            telemetry: Telemetry::new(config.telemetry),
            rate_accum: Vec::new(),
            depth_accum: Vec::new(),
            served_accum: Vec::new(),
            contention_log: Vec::new(),
            contention_index: HashMap::new(),
            blame: Vec::new(),
            faults: Vec::new(),
            fault_cursor: 0,
        }
    }

    /// Registers a resource and returns its handle.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.resources.push(Resource::new(name, capacity));
        self.capacities.push(capacity);
        self.stats.push(ResourceStats::default());
        self.blame.push(ResourceBlame::default());
        self.telemetry.ensure_resources(self.resources.len());
        ResourceId::from_index(self.resources.len() - 1)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of activities not yet delivered as completions.
    pub fn active_count(&self) -> usize {
        self.active.len() + self.ready.len()
    }

    /// Read access to a registered resource.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Utilization counters for a resource.
    pub fn resource_stats(&self, id: ResourceId) -> &ResourceStats {
        &self.stats[id.index()]
    }

    /// Utilization counters for all resources, indexed by resource index.
    pub fn all_stats(&self) -> &[ResourceStats] {
        &self.stats
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The engine's solve mode.
    pub fn solve_mode(&self) -> SolveMode {
        self.mode
    }

    /// Read access to the telemetry state (counters are always live;
    /// series and histograms only when sampling is enabled).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine-internal counters (always maintained).
    pub fn counters(&self) -> &EngineCounters {
        &self.telemetry.counters
    }

    /// Enables, disables, or resizes the sampling instruments. Counters
    /// are unaffected. Usually set before the first step; enabling mid-run
    /// starts sampling from the next solve.
    pub fn set_telemetry_config(&mut self, config: TelemetryConfig) {
        self.telemetry.set_config(config);
        self.telemetry.ensure_resources(self.resources.len());
    }

    /// Detaches an owned copy of the run's telemetry — counters plus, per
    /// resource, its identity, sample series, utilization histogram, and
    /// contention blame, plus the per-flow contention records. `None` when
    /// sampling is disabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.telemetry.enabled() {
            return None;
        }
        let resources = self
            .resources
            .iter()
            .enumerate()
            .map(|(i, r)| ResourceTelemetry {
                name: r.name.clone(),
                capacity: r.capacity,
                samples: self
                    .telemetry
                    .series(i)
                    .map(|s| s.to_vec())
                    .unwrap_or_default(),
                evicted: self.telemetry.series(i).map_or(0, |s| s.evicted()),
                histogram: self.telemetry.histogram(i).cloned().unwrap_or_default(),
                blame: self.blame[i],
            })
            .collect();
        Some(TelemetrySnapshot {
            counters: self.telemetry.counters,
            resources,
            contention: self.contention_log.clone(),
        })
    }

    /// Contention records of all completed flows, in completion order
    /// (always maintained, one per non-instant flow — see
    /// [`ContentionRecord`]).
    pub fn contention_records(&self) -> &[ContentionRecord] {
        &self.contention_log
    }

    /// The contention record of a completed flow, if any. Instant flows
    /// (zero work and zero latency) never stream and have no record.
    pub fn flow_contention(&self, id: ActivityId) -> Option<&ContentionRecord> {
        self.contention_index
            .get(&id)
            .map(|&i| &self.contention_log[i as usize])
    }

    /// Per-resource contention blame accumulated so far, indexed by
    /// resource index (always maintained).
    pub fn resource_blame(&self) -> &[ResourceBlame] {
        &self.blame
    }

    /// Installs a deterministic fault schedule. Capacity events are applied
    /// between simulation events at their scheduled times: the streaming
    /// set is integrated up to the fault instant, the capacity changes, and
    /// the next solve recomputes the allocation — a fault is just another
    /// solver epoch. Installing an empty plan is a no-op and leaves the
    /// engine's behavior bitwise identical to never installing one.
    ///
    /// Replaces any previously installed plan; events already applied are
    /// not rolled back.
    ///
    /// # Panics
    /// Panics if an event references an unknown resource.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let events = plan.sorted_events();
        for ev in &events {
            assert!(
                ev.resource.index() < self.resources.len(),
                "fault plan references unknown resource {}",
                ev.resource
            );
        }
        self.faults = events;
        self.fault_cursor = 0;
    }

    /// Merges `plan`'s events into the installed schedule instead of
    /// replacing it, so independent scopes (e.g. per-job executors and a
    /// campaign-wide fault plan sharing one engine) can each contribute
    /// capacity events. Already-applied events are untouched; the new
    /// events are interleaved into the unapplied tail in time order
    /// (ties by resource index). Merging an empty plan is a no-op, and
    /// merging into an empty engine is identical to
    /// [`Engine::set_fault_plan`].
    ///
    /// # Panics
    /// Panics if an event references an unknown resource.
    pub fn merge_fault_plan(&mut self, plan: &FaultPlan) {
        let events = plan.sorted_events();
        if events.is_empty() {
            return;
        }
        for ev in &events {
            assert!(
                ev.resource.index() < self.resources.len(),
                "fault plan references unknown resource {}",
                ev.resource
            );
        }
        let mut tail = self.faults.split_off(self.fault_cursor);
        tail.extend(events);
        tail.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.resource.index().cmp(&b.resource.index()))
        });
        self.faults.extend(tail);
    }

    /// Time of the next unapplied capacity fault (`INFINITY` if none).
    fn next_fault_time(&self) -> f64 {
        self.faults
            .get(self.fault_cursor)
            .map_or(f64::INFINITY, |f| f.time)
    }

    /// Applies every scheduled fault due at or before the current time.
    fn apply_due_faults(&mut self) {
        let now = self.now.seconds();
        while let Some(&CapacityFault {
            time,
            resource,
            capacity,
        }) = self.faults.get(self.fault_cursor)
        {
            if time > now {
                break;
            }
            self.fault_cursor += 1;
            self.set_capacity_now(resource, capacity);
        }
    }

    /// Changes a resource's capacity at the current simulated time. The
    /// streaming set is integrated up to now first (flows keep their old
    /// rates until this instant), every active flow's uncontended baseline
    /// is re-derived, and the next solve redistributes bandwidth.
    ///
    /// Setting a capacity to zero freezes flows crossing the resource at
    /// rate zero; they stay active (and can stall the engine) until
    /// cancelled with [`Engine::cancel_activity`] or the capacity is
    /// restored by a later change.
    pub fn set_capacity_now(&mut self, resource: ResourceId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and non-negative, got {capacity}"
        );
        assert!(
            resource.index() < self.resources.len(),
            "unknown resource {resource}"
        );
        self.integrate(self.now.seconds());
        self.resources[resource.index()].capacity = capacity;
        self.capacities[resource.index()] = capacity;
        // Uncontended baselines were computed against the old capacities;
        // re-derive them so contention attribution measures the gap to
        // what the *degraded* platform could deliver.
        let slots: Vec<u32> = self
            .active
            .values()
            .filter_map(|a| match a.kind {
                ActivityKind::Flow { slot } => Some(slot),
                ActivityKind::Delay { .. } => None,
            })
            .collect();
        for slot in slots {
            let f = &mut self.flows[slot as usize];
            if f.route.contains(&resource) {
                f.uncontended = f
                    .route
                    .iter()
                    .fold(f.rate_cap.unwrap_or(f64::INFINITY), |acc, r| {
                        acc.min(self.capacities[r.index()])
                    });
            }
        }
        self.dirty = true;
    }

    /// Cancels an active activity, removing it without delivering a
    /// completion or sealing a [`ContentionRecord`]. Returns the tag and
    /// the work done/remaining at the cancellation instant, or `None` if
    /// the activity already completed (including completions queued but
    /// not yet returned by [`Engine::try_step`]).
    pub fn cancel_activity(&mut self, id: ActivityId) -> Option<Cancelled<T>> {
        // Catch up integration first so a streaming flow's `remaining`
        // reflects the current instant.
        self.integrate(self.now.seconds());
        let act = self.active.remove(&id)?;
        self.record(id, TraceEventKind::End, act.label.as_deref());
        match act.kind {
            ActivityKind::Delay { end } => Some(Cancelled {
                tag: act.tag,
                work_done: 0.0,
                remaining: (end.seconds() - self.now.seconds()).max(0.0),
            }),
            ActivityKind::Flow { slot } => {
                let f = &self.flows[slot as usize];
                let work_done = f.amount - f.remaining;
                let remaining = f.remaining;
                if f.stream_pos == LATENT {
                    // Never streamed: the slot was not in the streaming set,
                    // so rates are unaffected.
                    self.free_slots.push(slot);
                } else {
                    self.release_flow(slot);
                }
                // Stale heap entries (latency expiry, flow-end candidate)
                // are discarded lazily: the id is no longer active.
                Some(Cancelled {
                    tag: act.tag,
                    work_done,
                    remaining,
                })
            }
        }
    }

    /// Ids of all active flows whose route crosses `resource` (streaming
    /// or still latent), in id order. Used by recovery logic to find the
    /// victims of a dead resource.
    pub fn flows_through(&self, resource: ResourceId) -> Vec<ActivityId> {
        self.active
            .iter()
            .filter_map(|(id, act)| match act.kind {
                ActivityKind::Flow { slot }
                    if self.flows[slot as usize].route.contains(&resource) =>
                {
                    Some(*id)
                }
                _ => None,
            })
            .collect()
    }

    fn fresh_id(&mut self) -> ActivityId {
        let id = ActivityId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Pushes a pending event, counting heap traffic. The naive path finds
    /// events by scanning the activity table and never reads the heap, so
    /// it pushes nothing.
    fn push_event(&mut self, ev: HeapEvent) {
        if self.mode == SolveMode::Naive {
            return;
        }
        self.telemetry.counters.heap_pushes += 1;
        self.events.push(Reverse(ev));
    }

    /// Samples per-resource allocated rate and queue depth at the current
    /// instant (called at every solver epoch when sampling is enabled).
    fn sample_telemetry(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let n = self.resources.len();
        self.rate_accum.clear();
        self.rate_accum.resize(n, 0.0);
        self.depth_accum.clear();
        self.depth_accum.resize(n, 0);
        for &s in &self.streams {
            let f = &self.flows[s as usize];
            for r in &f.route {
                self.rate_accum[r.index()] += f.rate;
                self.depth_accum[r.index()] += 1;
            }
        }
        let t = self.now.seconds();
        self.telemetry
            .record_samples(t, &self.rate_accum, &self.depth_accum);
    }

    fn record(&mut self, id: ActivityId, kind: TraceEventKind, label: Option<&str>) {
        if self.trace_enabled {
            self.trace.record(TraceEvent {
                time: self.now,
                activity: id,
                kind,
                label: label.unwrap_or("").to_string(),
            });
        }
    }

    /// Spawns a fixed-duration delay starting now.
    pub fn spawn_delay(&mut self, duration: f64, tag: T) -> ActivityId {
        self.spawn_delay_labeled(duration, tag, None::<&str>)
    }

    /// Spawns a labeled fixed-duration delay starting now.
    pub fn spawn_delay_labeled(
        &mut self,
        duration: f64,
        tag: T,
        label: Option<impl Into<String>>,
    ) -> ActivityId {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "delay duration must be finite and non-negative, got {duration}"
        );
        let id = self.fresh_id();
        let label = label.map(Into::into);
        self.record(id, TraceEventKind::Start, label.as_deref());
        if duration <= EPSILON {
            self.record(id, TraceEventKind::End, label.as_deref());
            self.ready.push_back(Completion {
                id,
                time: self.now,
                tag,
            });
        } else {
            let end = self.now + duration;
            self.push_event(HeapEvent {
                time: end.seconds(),
                id,
                kind: EventKind::DelayEnd,
                epoch: 0,
            });
            self.active.insert(
                id,
                Activity {
                    kind: ActivityKind::Delay { end },
                    tag,
                    label,
                },
            );
        }
        id
    }

    /// Spawns a fluid flow starting now.
    pub fn spawn_flow(&mut self, spec: FlowSpec, tag: T) -> ActivityId {
        self.spawn_flow_labeled(spec, tag, None::<&str>)
    }

    /// Spawns a labeled fluid flow starting now.
    pub fn spawn_flow_labeled(
        &mut self,
        spec: FlowSpec,
        tag: T,
        label: Option<impl Into<String>>,
    ) -> ActivityId {
        spec.validate();
        for r in &spec.route {
            assert!(
                r.index() < self.resources.len(),
                "flow route references unknown resource {r}"
            );
        }
        let id = self.fresh_id();
        let label = label.map(Into::into);
        self.record(id, TraceEventKind::Start, label.as_deref());
        if spec.amount <= EPSILON && spec.latency <= EPSILON {
            self.record(id, TraceEventKind::End, label.as_deref());
            self.ready.push_back(Completion {
                id,
                time: self.now,
                tag,
            });
            return id;
        }
        let latency_until = self.now.seconds() + spec.latency;
        let key = group_key(&spec.route, spec.rate_cap);
        let uncontended = spec
            .route
            .iter()
            .fold(spec.rate_cap.unwrap_or(f64::INFINITY), |acc, r| {
                acc.min(self.capacities[r.index()])
            });
        let slot = self.alloc_slot(FlowSlot {
            id,
            latency_until,
            remaining: spec.amount,
            route: spec.route,
            rate_cap: spec.rate_cap,
            rate: 0.0,
            stream_pos: LATENT,
            group_key: key,
            spawned: self.now.seconds(),
            amount: spec.amount,
            uncontended,
            binding: Binding::Cap,
            lost_by: Vec::new(),
        });
        if spec.latency > EPSILON {
            self.push_event(HeapEvent {
                time: latency_until,
                id,
                kind: EventKind::LatencyEnd,
                epoch: 0,
            });
        } else {
            self.make_streaming(slot);
        }
        self.active.insert(
            id,
            Activity {
                kind: ActivityKind::Flow { slot },
                tag,
                label,
            },
        );
        id
    }

    fn alloc_slot(&mut self, slot: FlowSlot) -> u32 {
        match self.free_slots.pop() {
            Some(idx) => {
                self.flows[idx as usize] = slot;
                idx
            }
            None => {
                let idx = u32::try_from(self.flows.len()).expect("flow arena overflows u32");
                self.flows.push(slot);
                idx
            }
        }
    }

    /// Moves a latent flow into the streaming set.
    fn make_streaming(&mut self, slot: u32) {
        // The previous streaming set must be fully integrated before it
        // changes, or the newcomer would be charged for time before it
        // existed.
        self.integrate(self.now.seconds());
        debug_assert_eq!(self.flows[slot as usize].stream_pos, LATENT);
        self.flows[slot as usize].stream_pos = self.streams.len() as u32;
        self.streams.push(slot);
        self.newly_streaming.push(slot);
        self.dirty = true;
    }

    /// Rebuilds `order` — the streaming set sorted by `(group_key, slot)`
    /// — incrementally: entries whose flow stopped streaming since the
    /// last incremental solve are filtered out (matched by activity id,
    /// which guards against slot recycling), and flows that started
    /// streaming are merged in at their sorted positions. The result is
    /// exactly what re-sorting `streams` from scratch would produce, in
    /// O(streams + new log new) instead of O(streams log streams).
    fn rebuild_order(&mut self) {
        let flows = &self.flows;
        // Drop entries whose slot no longer holds the same streaming flow.
        let mut w = 0usize;
        for r in 0..self.order.len() {
            let slot = self.order[r];
            let f = &flows[slot as usize];
            if f.stream_pos != LATENT && f.id == self.order_ids[r] {
                self.order[w] = slot;
                self.order_ids[w] = f.id;
                w += 1;
            }
        }
        self.order.truncate(w);
        self.order_ids.truncate(w);
        // Sort and validate the newcomers. A slot released and re-streamed
        // between solves appears twice describing the same current flow;
        // equal slots sort adjacent, so `dedup` collapses them.
        self.newly_streaming
            .retain(|&s| flows[s as usize].stream_pos != LATENT);
        self.newly_streaming.sort_unstable_by(|&a, &b| {
            flows[a as usize]
                .group_key
                .cmp(&flows[b as usize].group_key)
                .then_with(|| a.cmp(&b))
        });
        self.newly_streaming.dedup();
        if !self.newly_streaming.is_empty() {
            self.order_scratch.clear();
            self.order_ids_scratch.clear();
            let total = self.order.len() + self.newly_streaming.len();
            self.order_scratch.reserve(total);
            self.order_ids_scratch.reserve(total);
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.order.len() || j < self.newly_streaming.len() {
                let take_old = if i == self.order.len() {
                    false
                } else if j == self.newly_streaming.len() {
                    true
                } else {
                    let a = self.order[i];
                    let b = self.newly_streaming[j];
                    (flows[a as usize].group_key, a) <= (flows[b as usize].group_key, b)
                };
                let slot = if take_old {
                    i += 1;
                    self.order[i - 1]
                } else {
                    j += 1;
                    self.newly_streaming[j - 1]
                };
                self.order_scratch.push(slot);
                self.order_ids_scratch.push(flows[slot as usize].id);
            }
            std::mem::swap(&mut self.order, &mut self.order_scratch);
            std::mem::swap(&mut self.order_ids, &mut self.order_ids_scratch);
            self.newly_streaming.clear();
        }
        debug_assert_eq!(self.order.len(), self.streams.len());
        #[cfg(debug_assertions)]
        {
            // Cross-check against the from-scratch sort (debug builds
            // only, like the heap-vs-scan check in try_step).
            let mut reference = self.streams.clone();
            reference.sort_unstable_by(|&a, &b| {
                flows[a as usize]
                    .group_key
                    .cmp(&flows[b as usize].group_key)
                    .then_with(|| a.cmp(&b))
            });
            debug_assert_eq!(self.order, reference, "incremental order diverged");
        }
    }

    /// Seals a finishing flow's contention accounting into a
    /// [`ContentionRecord`] (called just before the slot is recycled).
    fn finish_flow_contention(&mut self, slot: u32) {
        let f = &mut self.flows[slot as usize];
        let blame = std::mem::take(&mut f.lost_by);
        let lost_work: f64 = blame.iter().map(|(_, l)| l).sum();
        // Dominant blamed resource: most lost work, ties to the lowest id.
        let binding = blame
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(r, _)| r);
        let wait = if f.uncontended.is_finite() && f.uncontended > 0.0 {
            lost_work / f.uncontended
        } else {
            0.0
        };
        let record = ContentionRecord {
            id: f.id,
            start: f.spawned,
            end: self.now.seconds(),
            latency: (f.latency_until - f.spawned).max(0.0),
            amount: f.amount,
            uncontended_rate: f.uncontended,
            lost_work,
            wait,
            binding,
            blame,
        };
        self.contention_index
            .insert(f.id, self.contention_log.len() as u32);
        self.contention_log.push(record);
    }

    /// Removes a finished flow from the streaming set and recycles its slot.
    fn release_flow(&mut self, slot: u32) {
        let pos = self.flows[slot as usize].stream_pos;
        debug_assert_ne!(pos, LATENT, "completed flow must be streaming");
        self.streams.swap_remove(pos as usize);
        if let Some(&moved) = self.streams.get(pos as usize) {
            self.flows[moved as usize].stream_pos = pos;
        }
        self.flows[slot as usize].stream_pos = LATENT;
        self.free_slots.push(slot);
        self.dirty = true;
    }

    /// Recomputes the fair-share allocation for the streaming set and, in
    /// incremental mode, pushes the next flow-completion candidate.
    ///
    /// [`SolveMode::Naive`] solves in one monolithic progressive-filling
    /// pass; [`SolveMode::Incremental`] goes through the
    /// connected-component decomposition of [`crate::partition`].
    fn resolve_rates(&mut self) {
        // Rates are about to change: close out the constant-rate span.
        self.integrate(self.now.seconds());
        self.epoch += 1;
        self.dirty = false;
        self.telemetry.counters.solves += 1;
        self.telemetry.counters.solver_flows += self.streams.len() as u64;
        match self.mode {
            SolveMode::Naive => {
                // The naive solve keeps no sorted order; drop the
                // incremental-order log so it cannot grow without bound.
                self.newly_streaming.clear();
                self.telemetry.counters.solver_groups += self.streams.len() as u64;
                let flows = &self.flows;
                let entries = self.streams.iter().map(|&s| {
                    let f = &flows[s as usize];
                    WeightedReq {
                        route: &f.route,
                        rate_cap: f.rate_cap,
                        weight: 1.0,
                    }
                });
                fairshare::solve_into(&mut self.ws, &self.capacities, entries);
                for (k, &s) in self.streams.iter().enumerate() {
                    self.flows[s as usize].rate = self.ws.rates()[k];
                    self.flows[s as usize].binding = self.ws.bindings()[k];
                }
            }
            SolveMode::Incremental => {
                // Group streaming flows by (route, cap) signature, ordered
                // by the precomputed key and maintained incrementally across
                // solves; boundary detection re-checks actual equality, so
                // hash collisions only cost an extra group, never a wrong
                // one.
                self.rebuild_order();
                let flows = &self.flows;
                self.groups.clear();
                let mut start = 0usize;
                for k in 1..=self.order.len() {
                    let boundary = k == self.order.len() || {
                        let fa = &flows[self.order[k - 1] as usize];
                        let fb = &flows[self.order[k] as usize];
                        fa.group_key != fb.group_key
                            || fa.route != fb.route
                            || fa.rate_cap.map(f64::to_bits) != fb.rate_cap.map(f64::to_bits)
                    };
                    if boundary {
                        self.groups.push((start as u32, k as u32));
                        start = k;
                    }
                }
                self.telemetry.counters.solver_groups += self.groups.len() as u64;
                let order = &self.order;
                let entries = self.groups.iter().map(|&(s, e)| {
                    let f = &flows[order[s as usize] as usize];
                    WeightedReq {
                        route: &f.route,
                        rate_cap: f.rate_cap,
                        weight: (e - s) as f64,
                    }
                });
                self.pws.solve(&self.capacities, entries);
                let counters = &mut self.telemetry.counters;
                counters.partitioned_solves += 1;
                counters.components += self.pws.components() as u64;
                counters.component_max =
                    counters.component_max.max(self.pws.max_component() as u64);
                counters.singleton_components += self.pws.singletons() as u64;
                counters.components_reused += self.pws.reused() as u64;
                // One completion candidate per epoch: the earliest predicted
                // flow end. Simultaneous (EPSILON-window) neighbors are
                // collected by the completion scan when it fires. Alongside
                // it, bound the earliest instant any flow could satisfy the
                // completion predicate (which tolerates `EPSILON` of
                // remaining work, i.e. fires up to `EPSILON / rate` early);
                // events before that bound skip the scan entirely. Both
                // ride along the rate writeback: the candidate is the
                // minimum of `(t, id)` pairs under a total order, so it
                // does not depend on the order the flows are walked.
                let now = self.now.seconds();
                let mut best: Option<(f64, ActivityId)> = None;
                let mut earliest = f64::INFINITY;
                for (g, &(s, e)) in self.groups.iter().enumerate() {
                    let rate = self.pws.rates()[g];
                    // Identical flows freeze identically, so every member
                    // inherits the group's binding — matching what the
                    // naive per-flow solve would decide.
                    let binding = self.pws.bindings()[g];
                    let slack = (EPSILON / rate).max(EPSILON);
                    for &slot in &self.order[s as usize..e as usize] {
                        let f = &mut self.flows[slot as usize];
                        f.rate = rate;
                        f.binding = binding;
                        if rate > EPSILON {
                            let t = now + f.remaining / rate;
                            earliest = earliest.min(t - slack);
                            if best.is_none_or(|(bt, bid)| t < bt || (t == bt && f.id < bid)) {
                                best = Some((t, f.id));
                            }
                        }
                    }
                }
                self.earliest_done = earliest;
                if let Some((time, id)) = best {
                    self.push_event(HeapEvent {
                        time,
                        id,
                        kind: EventKind::FlowEnd,
                        epoch: self.epoch,
                    });
                }
            }
        }
        self.sample_telemetry();
    }

    /// Whether a heap entry no longer describes a live event.
    fn event_is_stale(&self, ev: &HeapEvent) -> bool {
        if !self.active.contains_key(&ev.id) {
            return true;
        }
        ev.kind == EventKind::FlowEnd && ev.epoch != self.epoch
    }

    /// Earliest event time by linear scan (reference path; also the debug
    /// cross-check for the heap). `INFINITY` means no progress is possible.
    ///
    /// Flow-end predictions are based at `integrated_until`, the instant
    /// the stored `remaining` values refer to (equal to `now` except during
    /// a deferred-integration span of pure-delay events).
    fn next_event_scan(&self) -> f64 {
        let now = self.now.seconds();
        let base = self.integrated_until;
        let mut t_next = f64::INFINITY;
        for act in self.active.values() {
            let t = match act.kind {
                ActivityKind::Delay { end } => end.seconds(),
                ActivityKind::Flow { slot } => {
                    let f = &self.flows[slot as usize];
                    if f.latency_until > now + EPSILON {
                        f.latency_until
                    } else if f.rate > EPSILON {
                        base + f.remaining / f.rate
                    } else {
                        f64::INFINITY
                    }
                }
            };
            if t < t_next {
                t_next = t;
            }
        }
        t_next
    }

    /// Earliest event time from the heap, discarding stale entries.
    fn next_event_heap(&mut self) -> f64 {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if self.event_is_stale(&ev) {
                self.events.pop();
                self.telemetry.counters.heap_pops += 1;
                self.telemetry.counters.heap_stale += 1;
                continue;
            }
            return ev.time;
        }
        f64::INFINITY
    }

    /// Advances every streaming flow from `integrated_until` to `upto` and
    /// accounts resource usage. Rates are constant over the span (solves
    /// force integration first), so one deferred application is exact.
    fn integrate(&mut self, upto: f64) {
        let dt = upto - self.integrated_until;
        if dt <= 0.0 {
            return;
        }
        let span_start = self.integrated_until;
        self.integrated_until = upto;
        self.telemetry.counters.integrations += 1;
        let sampling = self.telemetry.enabled();
        if sampling {
            self.served_accum.clear();
            self.served_accum.resize(self.resources.len(), 0.0);
        }
        self.busy.clear();
        self.busy.resize(self.resources.len(), false);
        for &s in &self.streams {
            let f = &mut self.flows[s as usize];
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            // Contention accounting: the gap between the flow's
            // uncontended rate and its achieved rate, attributed to the
            // binding resource the solver identified. Rates are constant
            // over the span, so this is exact and identical in both
            // solve modes.
            if let Binding::Resource(res) = f.binding {
                if f.uncontended.is_finite() {
                    let gap = (f.uncontended - f.rate) * dt;
                    if gap > 0.0 {
                        match f.lost_by.iter_mut().find(|(r, _)| *r == res) {
                            Some((_, lost)) => *lost += gap,
                            None => f.lost_by.push((res, gap)),
                        }
                        let b = &mut self.blame[res.index()];
                        b.lost_work += gap;
                        b.wait += gap / f.uncontended;
                        b.first = b.first.min(span_start);
                        b.last = b.last.max(upto);
                    }
                }
            }
            for r in &f.route {
                self.stats[r.index()].total_served += moved;
                self.busy[r.index()] = true;
                if sampling {
                    self.served_accum[r.index()] += moved;
                }
            }
        }
        for (idx, b) in self.busy.iter().enumerate() {
            if *b {
                self.stats[idx].busy_time += dt;
            }
        }
        if sampling {
            self.telemetry
                .record_utilization(&self.served_accum, dt, &self.capacities);
        }
    }

    /// Collects all completions at `t_next` (in id order), promotes flows
    /// whose latency elapsed, and queues the completions.
    fn collect_completions(&mut self, t_next: f64) {
        self.done_buf.clear();
        match self.mode {
            SolveMode::Naive => {
                self.integrate(t_next);
                self.promote_buf.clear();
                for (id, act) in &self.active {
                    match act.kind {
                        ActivityKind::Delay { end } => {
                            if end.seconds() <= t_next + EPSILON {
                                self.done_buf.push(*id);
                            }
                        }
                        ActivityKind::Flow { slot } => {
                            let f = &self.flows[slot as usize];
                            if f.latency_until <= t_next + EPSILON {
                                if f.stream_pos == LATENT {
                                    self.promote_buf.push(slot);
                                }
                                if f.is_done() {
                                    self.done_buf.push(*id);
                                }
                            }
                        }
                    }
                }
                for k in 0..self.promote_buf.len() {
                    let slot = self.promote_buf[k];
                    self.make_streaming(slot);
                }
            }
            SolveMode::Incremental => {
                self.window_buf.clear();
                while let Some(&Reverse(ev)) = self.events.peek() {
                    if ev.time > t_next + EPSILON {
                        break;
                    }
                    self.events.pop();
                    self.telemetry.counters.heap_pops += 1;
                    if self.event_is_stale(&ev) {
                        self.telemetry.counters.heap_stale += 1;
                    } else {
                        self.window_buf.push(ev);
                    }
                }
                let delays_only = self
                    .window_buf
                    .iter()
                    .all(|ev| ev.kind == EventKind::DelayEnd);
                if delays_only && t_next + EPSILON < self.earliest_done {
                    // Fast path: the streaming set is untouched and no flow
                    // can satisfy the completion predicate yet, so neither
                    // integration nor the stream scan is needed — rates are
                    // constant and `remaining` stays based at
                    // `integrated_until`.
                    self.telemetry.counters.fastpath_events += self.window_buf.len() as u64;
                    for k in 0..self.window_buf.len() {
                        self.done_buf.push(self.window_buf[k].id);
                    }
                } else {
                    self.integrate(t_next);
                    self.deferred.clear();
                    for k in 0..self.window_buf.len() {
                        let ev = self.window_buf[k];
                        match ev.kind {
                            EventKind::DelayEnd => self.done_buf.push(ev.id),
                            EventKind::LatencyEnd => {
                                if let Some(ActivityKind::Flow { slot }) =
                                    self.active.get(&ev.id).map(|a| a.kind)
                                {
                                    if self.flows[slot as usize].stream_pos == LATENT {
                                        self.make_streaming(slot);
                                    }
                                }
                            }
                            EventKind::FlowEnd => self.deferred.push(ev),
                        }
                    }
                    for k in 0..self.streams.len() {
                        let f = &self.flows[self.streams[k] as usize];
                        if f.latency_until <= t_next + EPSILON && f.is_done() {
                            self.done_buf.push(f.id);
                        }
                    }
                    self.done_buf.sort_unstable();
                    // A consumed candidate whose flow did not finish (an
                    // EPSILON-window artifact): re-predict from current
                    // state so no completion is lost.
                    for k in 0..self.deferred.len() {
                        let ev = self.deferred[k];
                        if self.done_buf.binary_search(&ev.id).is_err() {
                            if let Some(ActivityKind::Flow { slot }) =
                                self.active.get(&ev.id).map(|a| a.kind)
                            {
                                let f = &self.flows[slot as usize];
                                if f.rate > EPSILON {
                                    let time = t_next + f.remaining / f.rate;
                                    self.push_event(HeapEvent {
                                        time,
                                        id: ev.id,
                                        kind: EventKind::FlowEnd,
                                        epoch: self.epoch,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        self.done_buf.sort_unstable();
        self.telemetry.counters.completions += self.done_buf.len() as u64;
        for k in 0..self.done_buf.len() {
            let id = self.done_buf[k];
            let act = self.active.remove(&id).expect("completed activity exists");
            if let ActivityKind::Flow { slot } = act.kind {
                self.finish_flow_contention(slot);
                self.release_flow(slot);
            }
            self.record(id, TraceEventKind::End, act.label.as_deref());
            self.ready.push_back(Completion {
                id,
                time: self.now,
                tag: act.tag,
            });
        }
    }

    /// Advances the simulation to the next completion and returns it, or
    /// `Ok(None)` when no activity remains.
    ///
    /// Simultaneous completions are returned on successive calls, ordered by
    /// activity id.
    ///
    /// # Errors
    /// Returns [`EngineError::Stalled`] if active activities exist but none
    /// can make progress (all starved with zero rate and no pending delay
    /// or latency).
    pub fn try_step(&mut self) -> Result<Option<Completion<T>>, EngineError> {
        loop {
            if let Some(c) = self.ready.pop_front() {
                return Ok(Some(c));
            }
            if self.active.is_empty() {
                return Ok(None);
            }

            let must_solve = match self.mode {
                SolveMode::Naive => true,
                SolveMode::Incremental => self.dirty,
            };
            if must_solve {
                self.resolve_rates();
            }

            let t_next = match self.mode {
                SolveMode::Naive => self.next_event_scan(),
                SolveMode::Incremental => {
                    let t = self.next_event_heap();
                    #[cfg(debug_assertions)]
                    {
                        let scan = self.next_event_scan();
                        debug_assert!(
                            (t.is_infinite() && scan.is_infinite())
                                || (t - scan).abs() <= 1e-9 * scan.abs().max(1.0),
                            "event heap disagrees with linear scan: {t} vs {scan}"
                        );
                    }
                    t
                }
            };
            // A scheduled capacity fault due before the next event is
            // itself the next event: advance there, apply it, and re-solve.
            // A pending fault also rescues an otherwise-stalled engine (a
            // later capacity restoration may unfreeze zero-rate flows).
            let fault_t = self.next_fault_time();
            if fault_t.is_finite() && fault_t <= t_next {
                let t = fault_t.max(self.now.seconds());
                self.now = SimTime::from_seconds(t);
                self.apply_due_faults();
                continue;
            }
            if !t_next.is_finite() {
                return Err(EngineError::Stalled {
                    time: self.now,
                    active: self.active.len(),
                });
            }
            let t_next = t_next.max(self.now.seconds());
            self.now = SimTime::from_seconds(t_next);
            self.telemetry.counters.events += 1;
            // Integration happens inside collect_completions: the naive
            // path integrates unconditionally, the incremental path defers
            // it across pure-delay spans.
            self.collect_completions(t_next);
            // Loop: either we queued completions (returned next iteration)
            // or only a latency expired (rates change, keep advancing).
        }
    }

    /// Advances the simulation to the next completion and returns it, or
    /// `None` when no activity remains.
    ///
    /// # Panics
    /// Panics on [`EngineError::Stalled`]; use [`Engine::try_step`] to
    /// handle stalls as values.
    pub fn step(&mut self) -> Option<Completion<T>> {
        match self.try_step() {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation until no activity remains, returning all
    /// completions in order.
    ///
    /// # Errors
    /// Returns [`EngineError::Stalled`] under the same conditions as
    /// [`Engine::try_step`].
    pub fn try_run_to_completion(&mut self) -> Result<Vec<Completion<T>>, EngineError> {
        let mut out = Vec::new();
        while let Some(c) = self.try_step()? {
            out.push(c);
        }
        Ok(out)
    }

    /// Runs the simulation until no activity remains, returning all
    /// completions in order.
    ///
    /// # Panics
    /// Panics on [`EngineError::Stalled`]; see [`Engine::try_step`].
    pub fn run_to_completion(&mut self) -> Vec<Completion<T>> {
        match self.try_run_to_completion() {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_mode<T>(mode: SolveMode) -> Engine<T> {
        Engine::with_config(EngineConfig {
            solve_mode: mode,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn empty_engine_yields_no_completions() {
        let mut e: Engine<()> = Engine::new();
        assert!(e.step().is_none());
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    fn delay_completes_at_its_end_time() {
        let mut e: Engine<u32> = Engine::new();
        e.spawn_delay(5.0, 42);
        let c = e.step().unwrap();
        assert_eq!(c.tag, 42);
        assert!(c.time.approx_eq(SimTime::from_seconds(5.0), 1e-9));
        assert!(e.step().is_none());
    }

    #[test]
    fn zero_delay_completes_immediately() {
        let mut e: Engine<u32> = Engine::new();
        e.spawn_delay(0.0, 7);
        let c = e.step().unwrap();
        assert_eq!(c.time, SimTime::ZERO);
    }

    #[test]
    fn single_flow_runs_at_link_capacity() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(1000.0, vec![link]), "f");
        let c = e.step().unwrap();
        assert!(c.time.approx_eq(SimTime::from_seconds(10.0), 1e-9));
    }

    #[test]
    fn two_flows_share_and_finish_together() {
        let mut e: Engine<u8> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), 1);
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), 2);
        let c1 = e.step().unwrap();
        let c2 = e.step().unwrap();
        assert!(c1.time.approx_eq(SimTime::from_seconds(10.0), 1e-9));
        assert!(c2.time.approx_eq(SimTime::from_seconds(10.0), 1e-9));
        // Ties broken by spawn order.
        assert_eq!(c1.tag, 1);
        assert_eq!(c2.tag, 2);
    }

    #[test]
    fn short_flow_finishing_frees_bandwidth_for_long_flow() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        // Both start together at 50 B/s each. The short one (100 B) ends at
        // t=2; the long one (500 B) then runs at 100 B/s: 100 B done at t=2,
        // 400 B remaining -> ends at t=6.
        e.spawn_flow(FlowSpec::new(100.0, vec![link]), "short");
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), "long");
        let c1 = e.step().unwrap();
        assert_eq!(c1.tag, "short");
        assert!(c1.time.approx_eq(SimTime::from_seconds(2.0), 1e-9));
        let c2 = e.step().unwrap();
        assert_eq!(c2.tag, "long");
        assert!(c2.time.approx_eq(SimTime::from_seconds(6.0), 1e-9));
    }

    #[test]
    fn latency_defers_streaming() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(100.0, vec![link]).with_latency(3.0), "f");
        let c = e.step().unwrap();
        assert!(c.time.approx_eq(SimTime::from_seconds(4.0), 1e-9));
    }

    #[test]
    fn latency_flow_does_not_consume_bandwidth() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        // Flow A streams immediately; flow B sits in a 5 s latency phase.
        // A (200 B) must finish at t=2 using the full link.
        e.spawn_flow(FlowSpec::new(200.0, vec![link]), "a");
        e.spawn_flow(FlowSpec::new(100.0, vec![link]).with_latency(5.0), "b");
        let c = e.step().unwrap();
        assert_eq!(c.tag, "a");
        assert!(c.time.approx_eq(SimTime::from_seconds(2.0), 1e-9));
        let c = e.step().unwrap();
        assert_eq!(c.tag, "b");
        assert!(c.time.approx_eq(SimTime::from_seconds(6.0), 1e-9));
    }

    #[test]
    fn rate_cap_slows_a_lone_flow() {
        let mut e: Engine<&str> = Engine::new();
        let cpu = e.add_resource("cpu", 32.0);
        // A task allowed 1 core of a 32-core host: 10 core-seconds of work
        // takes 10 s even though the host is idle.
        e.spawn_flow(FlowSpec::new(10.0, vec![cpu]).with_rate_cap(1.0), "t");
        let c = e.step().unwrap();
        assert!(c.time.approx_eq(SimTime::from_seconds(10.0), 1e-9));
    }

    #[test]
    fn oversubscribed_cpu_timeshares() {
        let mut e: Engine<u32> = Engine::new();
        let cpu = e.add_resource("cpu", 2.0);
        // Four 1-core tasks of 10 core-seconds each on a 2-core host: each
        // runs at 0.5 core -> 20 s.
        for i in 0..4 {
            e.spawn_flow(FlowSpec::new(10.0, vec![cpu]).with_rate_cap(1.0), i);
        }
        let completions = e.run_to_completion();
        assert_eq!(completions.len(), 4);
        for c in completions {
            assert!(c.time.approx_eq(SimTime::from_seconds(20.0), 1e-9));
        }
    }

    #[test]
    fn multi_resource_route_is_bottlenecked_by_slowest() {
        let mut e: Engine<&str> = Engine::new();
        let fast = e.add_resource("net", 1000.0);
        let slow = e.add_resource("disk", 100.0);
        e.spawn_flow(FlowSpec::new(1000.0, vec![fast, slow]), "io");
        let c = e.step().unwrap();
        assert!(c.time.approx_eq(SimTime::from_seconds(10.0), 1e-9));
    }

    #[test]
    fn zero_size_flow_completes_instantly() {
        let mut e: Engine<&str> = Engine::new();
        let _ = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(0.0, vec![]), "nil");
        let c = e.step().unwrap();
        assert_eq!(c.time, SimTime::ZERO);
    }

    #[test]
    fn stats_account_served_bytes_and_busy_time() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), "f");
        e.run_to_completion();
        let s = e.resource_stats(link);
        assert!((s.total_served - 500.0).abs() < 1e-6);
        assert!((s.busy_time - 5.0).abs() < 1e-9);
        assert!((s.mean_busy_rate() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn trace_records_start_and_end() {
        let mut e: Engine<&str> = Engine::with_config(EngineConfig {
            trace: true,
            ..EngineConfig::default()
        });
        let link = e.add_resource("link", 100.0);
        e.spawn_flow_labeled(FlowSpec::new(100.0, vec![link]), "f", Some("read:file1"));
        e.run_to_completion();
        let trace = e.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].kind, TraceEventKind::Start);
        assert_eq!(trace.events()[0].label, "read:file1");
        assert_eq!(trace.events()[1].kind, TraceEventKind::End);
        assert_eq!(trace.last_event_time().unwrap(), SimTime::from_seconds(1.0));
    }

    #[test]
    fn spawning_during_run_reshapes_sharing() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(400.0, vec![link]), "a");
        // Run until "a" would be half done, then inject "b".
        // We emulate a controller: step() only returns at completions, so
        // spawn immediately (t=0) a short delay to interleave.
        e.spawn_delay(2.0, "timer");
        let c = e.step().unwrap();
        assert_eq!(c.tag, "timer");
        // At t=2, "a" has moved 200 B. Inject "b": both now at 50 B/s.
        e.spawn_flow(FlowSpec::new(100.0, vec![link]), "b");
        let c = e.step().unwrap();
        assert_eq!(c.tag, "b");
        assert!(c.time.approx_eq(SimTime::from_seconds(4.0), 1e-9));
        let c = e.step().unwrap();
        assert_eq!(c.tag, "a");
        // "a" had 100 B left at t=4, now alone at 100 B/s -> t=5.
        assert!(c.time.approx_eq(SimTime::from_seconds(5.0), 1e-9));
    }

    #[test]
    fn run_to_completion_returns_chronological_completions() {
        let mut e: Engine<u32> = Engine::new();
        e.spawn_delay(3.0, 3);
        e.spawn_delay(1.0, 1);
        e.spawn_delay(2.0, 2);
        let out = e.run_to_completion();
        let tags: Vec<u32> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert!(e.now().approx_eq(SimTime::from_seconds(3.0), 1e-9));
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn flow_with_bad_route_is_rejected() {
        let mut e: Engine<()> = Engine::new();
        e.spawn_flow(FlowSpec::new(1.0, vec![ResourceId::from_index(5)]), ());
    }

    #[test]
    fn trace_intervals_reconstruct_activity_lifetimes() {
        let mut e: Engine<u8> = Engine::with_config(EngineConfig {
            trace: true,
            ..EngineConfig::default()
        });
        let link = e.add_resource("link", 100.0);
        e.spawn_flow_labeled(FlowSpec::new(200.0, vec![link]), 1, Some("first"));
        e.spawn_flow_labeled(FlowSpec::new(600.0, vec![link]), 2, Some("second"));
        e.run_to_completion();
        let intervals = e.trace().intervals();
        assert_eq!(intervals.len(), 2);
        let first = intervals.iter().find(|(l, _, _)| l == "first").unwrap();
        let second = intervals.iter().find(|(l, _, _)| l == "second").unwrap();
        // Both start at 0 sharing 50/50; "first" (200 B) ends at t=4;
        // "second" then runs at 100 B/s: 200 left of 600... at t=4 it has
        // moved 200, 400 remain -> ends at t=8.
        assert!(first.2.approx_eq(SimTime::from_seconds(4.0), 1e-9));
        assert!(second.2.approx_eq(SimTime::from_seconds(8.0), 1e-9));
    }

    #[test]
    fn capped_flow_leaves_resource_partially_idle() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(100.0, vec![link]).with_rate_cap(20.0), "slow");
        e.run_to_completion();
        let s = e.resource_stats(link);
        // 5 s busy at 20 B/s: utilization of capacity is 20%.
        assert!((s.busy_time - 5.0).abs() < 1e-9);
        assert!((s.mean_busy_rate() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_latency_and_streaming_phases_share_correctly() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        // "a" streams alone for 1 s (100 B), then "b" exits latency and
        // both share: "a" needs 100 more at 50 B/s -> t=3.
        e.spawn_flow(FlowSpec::new(200.0, vec![link]), "a");
        e.spawn_flow(FlowSpec::new(100.0, vec![link]).with_latency(1.0), "b");
        let c = e.step().unwrap();
        assert_eq!(c.tag, "a");
        assert!(c.time.approx_eq(SimTime::from_seconds(3.0), 1e-9));
        let c = e.step().unwrap();
        assert_eq!(c.tag, "b");
        assert!(c.time.approx_eq(SimTime::from_seconds(3.0), 1e-9));
    }

    #[test]
    fn thousand_flow_stress_run_is_exact() {
        let mut e: Engine<usize> = Engine::new();
        let link = e.add_resource("link", 1000.0);
        let n = 1000;
        for i in 0..n {
            e.spawn_flow(FlowSpec::new(10.0, vec![link]), i);
        }
        let out = e.run_to_completion();
        assert_eq!(out.len(), n);
        // Equal flows on one link: all complete together at total/capacity.
        let expected = 10.0 * n as f64 / 1000.0;
        assert!(e.now().approx_eq(SimTime::from_seconds(expected), 1e-6));
        let s = e.resource_stats(link);
        assert!((s.total_served - 10.0 * n as f64).abs() < 1e-3);
    }

    #[test]
    fn stalled_engine_returns_typed_error() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        // A rate cap below the solver tolerance: the flow is allocated a
        // (numerically) zero rate and can never finish.
        e.spawn_flow(FlowSpec::new(1.0, vec![link]).with_rate_cap(1e-12), "stuck");
        let err = e.try_step().unwrap_err();
        assert_eq!(
            err,
            EngineError::Stalled {
                time: SimTime::ZERO,
                active: 1
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("simulation stalled"), "message: {msg}");
    }

    #[test]
    #[should_panic(expected = "simulation stalled")]
    fn step_panics_on_stall() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(1.0, vec![link]).with_rate_cap(1e-12), "stuck");
        let _ = e.step();
    }

    #[test]
    fn naive_mode_also_detects_stall() {
        let mut e: Engine<&str> = with_mode(SolveMode::Naive);
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(1.0, vec![link]).with_rate_cap(1e-12), "stuck");
        assert!(matches!(
            e.try_step(),
            Err(EngineError::Stalled { active: 1, .. })
        ));
    }

    #[test]
    fn counters_run_without_telemetry_sampling() {
        let mut e: Engine<u32> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(100.0, vec![link]), 1);
        e.spawn_delay(0.3, 2);
        e.run_to_completion();
        let c = e.counters();
        assert!(c.solves >= 1, "at least one solve: {c:?}");
        assert!(c.completions == 2, "two completions: {c:?}");
        assert!(c.events >= 2, "two event instants: {c:?}");
        assert!(c.heap_pushes >= 2);
        assert!(e.telemetry_snapshot().is_none(), "sampling off by default");
    }

    #[test]
    fn telemetry_sampling_records_series_and_histograms() {
        let mut e: Engine<u32> = Engine::with_config(EngineConfig {
            telemetry: TelemetryConfig::enabled(),
            ..Default::default()
        });
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(200.0, vec![link]), 1);
        e.spawn_flow(FlowSpec::new(400.0, vec![link]), 2);
        e.run_to_completion();
        let snap = e.telemetry_snapshot().expect("sampling enabled");
        assert_eq!(snap.resources.len(), 1);
        let r = &snap.resources[0];
        assert_eq!(r.name, "link");
        assert_eq!(r.capacity, 100.0);
        // First epoch: both flows streaming at 50 each -> rate 100, depth 2.
        let first = r.samples.first().unwrap();
        assert!((first.allocated_rate - 100.0).abs() < 1e-9);
        assert_eq!(first.queue_depth, 2);
        // Histogram time equals the resource's busy time (always saturated).
        let busy = e.resource_stats(link).busy_time;
        assert!((r.histogram.total_time() - busy).abs() < 1e-9);
        assert!((r.histogram.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_does_not_change_makespan() {
        let run = |sampling: bool| {
            let mut e: Engine<usize> = Engine::with_config(EngineConfig {
                telemetry: TelemetryConfig {
                    enabled: sampling,
                    ..Default::default()
                },
                ..Default::default()
            });
            let link = e.add_resource("link", 250.0);
            for i in 0..12 {
                e.spawn_flow(
                    FlowSpec::new(40.0 + i as f64, vec![link]).with_latency(0.05 * i as f64),
                    i,
                );
                e.spawn_delay(0.2 * i as f64, 100 + i);
            }
            e.run_to_completion()
                .iter()
                .map(|c| (c.id, c.time.seconds()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    /// Runs the same scripted scenario in both modes and compares the
    /// completion sequences (exact tags/ids, times within 1e-9).
    fn assert_modes_agree(build: impl Fn(&mut Engine<usize>)) {
        let run = |mode: SolveMode| {
            let mut e: Engine<usize> = with_mode(mode);
            build(&mut e);
            e.run_to_completion()
                .iter()
                .map(|c| (c.id, c.tag, c.time.seconds()))
                .collect::<Vec<_>>()
        };
        let naive = run(SolveMode::Naive);
        let incremental = run(SolveMode::Incremental);
        assert_eq!(naive.len(), incremental.len());
        for (n, i) in naive.iter().zip(&incremental) {
            assert_eq!(
                n.0, i.0,
                "completion order differs: {naive:?} vs {incremental:?}"
            );
            assert_eq!(n.1, i.1);
            assert!(
                (n.2 - i.2).abs() <= 1e-9 * n.2.abs().max(1.0),
                "times differ: {} vs {}",
                n.2,
                i.2
            );
        }
    }

    #[test]
    fn modes_agree_on_mixed_workload() {
        assert_modes_agree(|e| {
            let link = e.add_resource("link", 250.0);
            let disk = e.add_resource("disk", 100.0);
            for i in 0..10 {
                e.spawn_flow(
                    FlowSpec::new(50.0 + 13.0 * i as f64, vec![link]).with_latency(0.1 * i as f64),
                    i,
                );
            }
            for i in 0..6 {
                e.spawn_flow(
                    FlowSpec::new(120.0, vec![link, disk]).with_rate_cap(30.0),
                    100 + i,
                );
            }
            for i in 0..8 {
                e.spawn_delay(0.7 * i as f64 + 0.3, 200 + i);
            }
        });
    }

    #[test]
    fn modes_agree_on_identical_flow_groups() {
        assert_modes_agree(|e| {
            let link = e.add_resource("link", 1000.0);
            let nic = e.add_resource("nic", 400.0);
            for i in 0..40 {
                e.spawn_flow(FlowSpec::new(25.0, vec![link]), i);
            }
            for i in 0..20 {
                e.spawn_flow(FlowSpec::new(60.0, vec![nic, link]), 100 + i);
            }
        });
    }

    #[test]
    fn solo_flow_accrues_exactly_zero_contention() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), "solo");
        e.run_to_completion();
        let recs = e.contention_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lost_work, 0.0, "alone on the route: no gap");
        assert_eq!(recs[0].wait, 0.0);
        assert_eq!(recs[0].binding, None);
        assert_eq!(recs[0].uncontended_rate, 100.0);
        assert_eq!(e.resource_blame()[link.index()].interval(), None);
    }

    #[test]
    fn capped_solo_flow_accrues_zero_contention() {
        let mut e: Engine<&str> = Engine::new();
        let cpu = e.add_resource("cpu", 32.0);
        e.spawn_flow(FlowSpec::new(10.0, vec![cpu]).with_rate_cap(4.0), "t");
        e.run_to_completion();
        let rec = &e.contention_records()[0];
        assert_eq!(rec.uncontended_rate, 4.0, "cap bounds the solo rate");
        assert_eq!(rec.lost_work, 0.0);
        assert_eq!(rec.wait, 0.0);
    }

    #[test]
    fn shared_link_contention_is_blamed_on_it() {
        let mut e: Engine<u8> = Engine::new();
        let link = e.add_resource("link", 100.0);
        // Two 500 B flows at 50 B/s each for 10 s: each would do 100 B/s
        // alone, so each loses 50 B/s * 10 s = 500 B, i.e. waits 5 s.
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), 1);
        e.spawn_flow(FlowSpec::new(500.0, vec![link]), 2);
        e.run_to_completion();
        let recs = e.contention_records();
        assert_eq!(recs.len(), 2);
        for rec in recs {
            assert!(
                (rec.lost_work - 500.0).abs() < 1e-6,
                "lost {}",
                rec.lost_work
            );
            assert!((rec.wait - 5.0).abs() < 1e-9, "wait {}", rec.wait);
            assert_eq!(rec.binding, Some(link));
            // wait equals duration minus ideal duration.
            let ideal = rec.ideal_duration();
            assert!((rec.duration() - ideal - rec.wait).abs() < 1e-9);
        }
        let blame = e.resource_blame()[link.index()];
        assert!((blame.lost_work - 1000.0).abs() < 1e-6);
        assert!((blame.wait - 10.0).abs() < 1e-9);
        assert_eq!(blame.interval(), Some((0.0, 10.0)));
    }

    #[test]
    fn contention_attribution_follows_the_bottleneck() {
        let mut e: Engine<&str> = Engine::new();
        let a = e.add_resource("a", 10.0);
        let b = e.add_resource("b", 100.0);
        // Flow "both" crosses A and B but is bound at A (uncontended rate
        // min(10, 100) = 10, achieved 5 sharing with "on_a"): all blame
        // lands on A even though B is also on the route.
        let both_id = e.spawn_flow(FlowSpec::new(50.0, vec![a, b]), "both");
        e.spawn_flow(FlowSpec::new(50.0, vec![a]), "on_a");
        e.run_to_completion();
        let both = e.flow_contention(both_id).unwrap();
        assert_eq!(both.binding, Some(a));
        assert!(both.lost_work > 0.0);
        assert!(e.resource_blame()[a.index()].lost_work > 0.0);
        assert_eq!(e.resource_blame()[b.index()].lost_work, 0.0);
    }

    #[test]
    fn contention_snapshot_requires_sampling() {
        let mut e: Engine<u8> = Engine::with_config(EngineConfig {
            telemetry: TelemetryConfig::enabled(),
            ..Default::default()
        });
        let link = e.add_resource("link", 100.0);
        e.spawn_flow(FlowSpec::new(200.0, vec![link]), 1);
        e.spawn_flow(FlowSpec::new(200.0, vec![link]), 2);
        e.run_to_completion();
        let snap = e.telemetry_snapshot().unwrap();
        assert_eq!(snap.contention.len(), 2);
        assert!(snap.resources[0].blame.lost_work > 0.0);
    }

    /// Attribution must be A/B-identical across solve modes: same lost
    /// work, waits, bindings, and per-resource blame.
    #[test]
    fn contention_attribution_matches_across_modes() {
        let run = |mode: SolveMode| {
            let mut e: Engine<usize> = with_mode(mode);
            let link = e.add_resource("link", 500.0);
            let disk = e.add_resource("disk", 200.0);
            for i in 0..12 {
                let route = if i % 3 == 0 {
                    vec![link, disk]
                } else {
                    vec![link]
                };
                let mut spec = FlowSpec::new(80.0 + 11.0 * i as f64, route)
                    .with_latency(0.05 * (i % 4) as f64);
                if i % 5 == 0 {
                    spec = spec.with_rate_cap(40.0);
                }
                e.spawn_flow(spec, i);
            }
            for i in 0..4 {
                e.spawn_delay(0.4 * i as f64 + 0.1, 100 + i);
            }
            e.run_to_completion();
            (e.contention_records().to_vec(), e.resource_blame().to_vec())
        };
        let (nrec, nblame) = run(SolveMode::Naive);
        let (irec, iblame) = run(SolveMode::Incremental);
        assert_eq!(nrec.len(), irec.len());
        for (n, i) in nrec.iter().zip(&irec) {
            assert_eq!(n.id, i.id);
            assert_eq!(n.binding, i.binding, "binding differs for {}", n.id);
            assert!(
                (n.lost_work - i.lost_work).abs() <= 1e-6 * n.lost_work.max(1.0),
                "lost work differs for {}: {} vs {}",
                n.id,
                n.lost_work,
                i.lost_work
            );
            assert!((n.wait - i.wait).abs() <= 1e-6 * n.wait.max(1.0));
        }
        for (k, (n, i)) in nblame.iter().zip(&iblame).enumerate() {
            assert!(
                (n.lost_work - i.lost_work).abs() <= 1e-6 * n.lost_work.max(1.0),
                "resource {k} blame differs: {} vs {}",
                n.lost_work,
                i.lost_work
            );
            assert_eq!(n.interval().is_some(), i.interval().is_some());
        }
    }

    #[test]
    fn capacity_fault_slows_flow_mid_transfer() {
        // 1000 B over a 100 B/s link; at t=5 the link halves to 50 B/s.
        // 500 B done at t=5, 500 B left at 50 B/s -> ends at t=15.
        for mode in [SolveMode::Naive, SolveMode::Incremental] {
            let mut e: Engine<&str> = with_mode(mode);
            let link = e.add_resource("link", 100.0);
            let mut plan = FaultPlan::new();
            plan.push_capacity(5.0, link, 50.0);
            e.set_fault_plan(&plan);
            e.spawn_flow(FlowSpec::new(1000.0, vec![link]), "f");
            let c = e.step().unwrap();
            assert!(
                c.time.approx_eq(SimTime::from_seconds(15.0), 1e-9),
                "{mode:?}: finished at {}",
                c.time
            );
            assert_eq!(e.resource(link).capacity, 50.0);
        }
    }

    #[test]
    fn capacity_restoration_unstalls_a_dead_resource() {
        // The link dies at t=1 and revives at t=3: 100 B at 100 B/s for
        // 1 s, frozen for 2 s, then 0 B left?  No: 100 B done at t=1 of
        // 300 B; frozen until t=3; 200 B at 100 B/s -> t=5.
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        let mut plan = FaultPlan::new();
        plan.push_capacity(1.0, link, 0.0);
        plan.push_capacity(3.0, link, 100.0);
        e.set_fault_plan(&plan);
        e.spawn_flow(FlowSpec::new(300.0, vec![link]), "f");
        let c = e.step().unwrap();
        assert!(
            c.time.approx_eq(SimTime::from_seconds(5.0), 1e-9),
            "finished at {}",
            c.time
        );
    }

    #[test]
    fn dead_resource_with_no_other_events_stalls() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        let mut plan = FaultPlan::new();
        plan.push_capacity(1.0, link, 0.0);
        e.set_fault_plan(&plan);
        e.spawn_flow(FlowSpec::new(300.0, vec![link]), "f");
        assert!(matches!(
            e.try_step(),
            Err(EngineError::Stalled { active: 1, .. })
        ));
    }

    #[test]
    fn cancel_activity_returns_work_done_and_frees_bandwidth() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        let victim = e.spawn_flow(FlowSpec::new(400.0, vec![link]), "victim");
        e.spawn_flow(FlowSpec::new(400.0, vec![link]), "other");
        e.spawn_delay(2.0, "timer");
        let c = e.step().unwrap();
        assert_eq!(c.tag, "timer");
        // At t=2 each flow has moved 100 B (50 B/s shared).
        let cancelled = e.cancel_activity(victim).expect("victim is active");
        assert_eq!(cancelled.tag, "victim");
        assert!((cancelled.work_done - 100.0).abs() < 1e-9);
        assert!((cancelled.remaining - 300.0).abs() < 1e-9);
        // "other" now runs alone at 100 B/s: 300 B left -> t=5.
        let c = e.step().unwrap();
        assert_eq!(c.tag, "other");
        assert!(c.time.approx_eq(SimTime::from_seconds(5.0), 1e-9));
        // Cancelled flows leave no contention record.
        assert!(e.flow_contention(victim).is_none());
        // Cancelling again (or a completed activity) yields None.
        assert!(e.cancel_activity(victim).is_none());
    }

    #[test]
    fn cancel_latent_flow_and_delay() {
        let mut e: Engine<&str> = Engine::new();
        let link = e.add_resource("link", 100.0);
        let latent = e.spawn_flow(
            FlowSpec::new(100.0, vec![link]).with_latency(10.0),
            "latent",
        );
        let delay = e.spawn_delay(7.0, "delay");
        let l = e.cancel_activity(latent).unwrap();
        assert_eq!(l.work_done, 0.0);
        let d = e.cancel_activity(delay).unwrap();
        assert!((d.remaining - 7.0).abs() < 1e-9);
        assert!(e.step().is_none(), "nothing left after cancellations");
    }

    #[test]
    fn flows_through_finds_victims_by_route() {
        let mut e: Engine<u8> = Engine::new();
        let a = e.add_resource("a", 100.0);
        let b = e.add_resource("b", 100.0);
        let f1 = e.spawn_flow(FlowSpec::new(100.0, vec![a]), 1);
        let f2 = e.spawn_flow(FlowSpec::new(100.0, vec![a, b]), 2);
        let _f3 = e.spawn_flow(FlowSpec::new(100.0, vec![b]).with_latency(5.0), 3);
        let through_a = e.flows_through(a);
        assert_eq!(through_a, vec![f1, f2]);
        assert_eq!(e.flows_through(b).len(), 2, "latent flows count too");
    }

    #[test]
    fn fault_modes_agree() {
        let run = |mode: SolveMode| {
            let mut e: Engine<usize> = with_mode(mode);
            let link = e.add_resource("link", 200.0);
            let disk = e.add_resource("disk", 100.0);
            let mut plan = FaultPlan::new();
            plan.push_capacity(1.5, disk, 40.0);
            plan.push_capacity(4.0, link, 120.0);
            e.set_fault_plan(&plan);
            for i in 0..6 {
                e.spawn_flow(
                    FlowSpec::new(60.0 + 20.0 * i as f64, vec![link, disk])
                        .with_latency(0.1 * i as f64),
                    i,
                );
            }
            e.spawn_delay(2.0, 100);
            e.run_to_completion()
                .iter()
                .map(|c| (c.id, c.time.seconds()))
                .collect::<Vec<_>>()
        };
        let naive = run(SolveMode::Naive);
        let incremental = run(SolveMode::Incremental);
        assert_eq!(naive.len(), incremental.len());
        for (n, i) in naive.iter().zip(&incremental) {
            assert_eq!(n.0, i.0);
            assert!((n.1 - i.1).abs() <= 1e-9 * n.1.abs().max(1.0));
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let run = |install: bool| {
            let mut e: Engine<usize> = Engine::new();
            let link = e.add_resource("link", 250.0);
            if install {
                e.set_fault_plan(&FaultPlan::new());
            }
            for i in 0..8 {
                e.spawn_flow(
                    FlowSpec::new(40.0 + 7.0 * i as f64, vec![link]).with_latency(0.03 * i as f64),
                    i,
                );
            }
            e.run_to_completion()
                .iter()
                .map(|c| (c.id, c.time.seconds().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "empty plan must be bitwise inert");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Total bytes served on a single link equal the sum of flow
            /// sizes, and the makespan is at least total/capacity.
            #[test]
            fn conservation_of_bytes(
                sizes in proptest::collection::vec(1.0f64..1e6, 1..10),
                cap in 1.0f64..1e4,
            ) {
                let mut e: Engine<usize> = Engine::new();
                let link = e.add_resource("link", cap);
                for (i, s) in sizes.iter().enumerate() {
                    e.spawn_flow(FlowSpec::new(*s, vec![link]), i);
                }
                let out = e.run_to_completion();
                prop_assert_eq!(out.len(), sizes.len());
                let total: f64 = sizes.iter().sum();
                let served = e.resource_stats(link).total_served;
                prop_assert!((served - total).abs() < 1e-6 * total,
                    "served {} != total {}", served, total);
                let makespan = e.now().seconds();
                prop_assert!(makespan >= total / cap - 1e-6,
                    "makespan {} below physical bound {}", makespan, total / cap);
            }

            /// On a fair single link, equal flows finish simultaneously and
            /// the makespan equals total/capacity exactly.
            #[test]
            fn equal_flows_saturate_link(
                n in 1usize..16,
                size in 1.0f64..1e5,
                cap in 1.0f64..1e4,
            ) {
                let mut e: Engine<usize> = Engine::new();
                let link = e.add_resource("link", cap);
                for i in 0..n {
                    e.spawn_flow(FlowSpec::new(size, vec![link]), i);
                }
                e.run_to_completion();
                let expected = size * n as f64 / cap;
                prop_assert!((e.now().seconds() - expected).abs() < 1e-6 * expected.max(1.0));
            }

            /// Doubling link capacity never increases the makespan.
            #[test]
            fn more_bandwidth_is_never_slower(
                sizes in proptest::collection::vec(1.0f64..1e5, 1..8),
                cap in 1.0f64..1e4,
            ) {
                let run = |cap: f64| {
                    let mut e: Engine<usize> = Engine::new();
                    let link = e.add_resource("link", cap);
                    for (i, s) in sizes.iter().enumerate() {
                        e.spawn_flow(FlowSpec::new(*s, vec![link]), i);
                    }
                    e.run_to_completion();
                    e.now().seconds()
                };
                let slow = run(cap);
                let fast = run(cap * 2.0);
                prop_assert!(fast <= slow + 1e-6 * slow.max(1.0));
            }

            /// Two engines fed the same mixed activity set produce
            /// identical completion sequences (determinism).
            #[test]
            fn mixed_runs_are_deterministic(
                flows in proptest::collection::vec((1.0f64..1e4, 0.0f64..2.0), 1..12),
                delays in proptest::collection::vec(0.0f64..20.0, 0..6),
            ) {
                let build = || {
                    let mut e: Engine<usize> = Engine::new();
                    let link = e.add_resource("link", 500.0);
                    for (i, (size, lat)) in flows.iter().enumerate() {
                        e.spawn_flow(FlowSpec::new(*size, vec![link]).with_latency(*lat), i);
                    }
                    for (i, d) in delays.iter().enumerate() {
                        e.spawn_delay(*d, 1000 + i);
                    }
                    e.run_to_completion()
                        .iter()
                        .map(|c| (c.tag, c.time.seconds()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(build(), build());
            }

            /// Delays complete in duration order regardless of spawn order.
            #[test]
            fn delays_complete_in_time_order(
                mut durations in proptest::collection::vec(0.0f64..100.0, 1..20),
            ) {
                let mut e: Engine<usize> = Engine::new();
                for (i, d) in durations.iter().enumerate() {
                    e.spawn_delay(*d, i);
                }
                let out = e.run_to_completion();
                let times: Vec<f64> = out.iter().map(|c| c.time.seconds()).collect();
                for w in times.windows(2) {
                    prop_assert!(w[0] <= w[1] + 1e-9);
                }
                durations.sort_by(f64::total_cmp);
                prop_assert!((times.last().unwrap() - durations.last().unwrap()).abs() < 1e-9);
            }

            /// The incremental engine and the naive reference produce the
            /// same completion sequence on arbitrary mixed workloads.
            #[test]
            fn incremental_matches_naive(
                flows in proptest::collection::vec(
                    (1.0f64..1e4, 0.0f64..2.0, proptest::option::of(1.0f64..100.0)),
                    1..14,
                ),
                delays in proptest::collection::vec(0.0f64..15.0, 0..8),
            ) {
                let run = |mode: SolveMode| {
                    let mut e: Engine<usize> = with_mode(mode);
                    let link = e.add_resource("link", 500.0);
                    let disk = e.add_resource("disk", 200.0);
                    for (i, (size, lat, cap)) in flows.iter().enumerate() {
                        let route = if i % 3 == 0 { vec![link, disk] } else { vec![link] };
                        let mut spec = FlowSpec::new(*size, route).with_latency(*lat);
                        if let Some(c) = cap {
                            spec = spec.with_rate_cap(*c);
                        }
                        e.spawn_flow(spec, i);
                    }
                    for (i, d) in delays.iter().enumerate() {
                        e.spawn_delay(*d, 1000 + i);
                    }
                    e.run_to_completion()
                        .iter()
                        .map(|c| (c.id, c.tag, c.time.seconds()))
                        .collect::<Vec<_>>()
                };
                let naive = run(SolveMode::Naive);
                let incr = run(SolveMode::Incremental);
                prop_assert_eq!(naive.len(), incr.len());
                for (n, i) in naive.iter().zip(&incr) {
                    prop_assert_eq!(n.0, i.0);
                    prop_assert_eq!(n.1, i.1);
                    prop_assert!((n.2 - i.2).abs() <= 1e-9 * n.2.abs().max(1.0),
                        "times differ: {} vs {}", n.2, i.2);
                }
            }
        }
    }
}
