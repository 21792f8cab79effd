//! # wfbb-simcore — discrete-event fluid simulation kernel
//!
//! This crate implements the simulation substrate that the paper obtains from
//! SimGrid: a discrete-event engine in which *activities* (data flows and
//! delays) compete for *resources* (network links, disks, CPU cores) whose
//! capacity is shared **max–min fairly** among all concurrent activities
//! ("progressive filling", the classic fluid network model).
//!
//! The engine is deliberately small and deterministic:
//!
//! * [`Engine`] owns resources and active activities and exposes a *pull*
//!   API: callers spawn activities and repeatedly call [`Engine::step`] to
//!   advance simulated time to the next completion. Higher layers (the
//!   workflow management system in `wfbb-wms`) drive the simulation by
//!   reacting to completions — no coroutines or callbacks are needed.
//! * A [`FlowSpec`] describes a fluid activity: an amount of work (bytes or
//!   core-seconds) streamed across a route of resources after an initial
//!   fixed latency. Per-flow rate caps model activities that cannot use more
//!   than their allocated share (e.g. a 1-core task on a 32-core host).
//! * [`fairshare::solve`] computes the bandwidth allocation; its invariants
//!   (capacity conservation, bottleneck optimality, order independence) are
//!   property-tested.
//!
//! Simultaneous completions are delivered in ascending activity-id order, so
//! a simulation is a pure function of its inputs.
//!
//! Beyond the simulation itself, the kernel is observable: [`trace`]
//! records time-stamped start/end events, [`stats`] accumulates
//! per-resource utilization counters, and [`telemetry`] adds per-resource
//! rate/queue-depth time series, windowed utilization histograms, and
//! engine-internal counters (solver and event-heap activity). Telemetry
//! sampling is off by default and never affects simulated times.
//!
//! ```
//! use wfbb_simcore::{Engine, FlowSpec};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! let link = engine.add_resource("link", 100.0); // 100 bytes/s
//! engine.spawn_flow(FlowSpec::new(500.0, vec![link]), "a");
//! engine.spawn_flow(FlowSpec::new(500.0, vec![link]), "b");
//! // Two flows share the link fairly: each gets 50 bytes/s.
//! let c = engine.step().unwrap();
//! assert!((c.time.seconds() - 10.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod activity;
pub mod engine;
pub mod fairshare;
pub mod fault;
pub mod ids;
pub mod partition;
pub mod resource;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use activity::FlowSpec;
pub use engine::{Cancelled, Completion, Engine, EngineConfig, EngineError, SolveMode};
pub use fairshare::Binding;
pub use fault::{seeded_failures, CapacityFault, FaultPlan};
pub use ids::{ActivityId, ResourceId};
pub use partition::PartitionWorkspace;
pub use resource::Resource;
pub use stats::ResourceStats;
pub use telemetry::{
    ContentionRecord, EngineCounters, ResourceBlame, TelemetryConfig, TelemetrySnapshot,
};
pub use time::SimTime;
pub use trace::{TraceEvent, TraceEventKind, TraceLog};

/// Numerical tolerance used throughout the kernel when comparing simulated
/// times, remaining work, and bandwidth allocations.
pub const EPSILON: f64 = 1e-9;
