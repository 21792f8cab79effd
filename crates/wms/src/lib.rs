//! # wfbb-wms — the simulated workflow management system
//!
//! Executes a workflow DAG on a platform through the fluid simulation
//! engine, following the paper's execution model:
//!
//! 1. **Stage-in** — the entry phase (the `S_in` task of Figure 2): input
//!    files assigned to the burst buffer are copied, *sequentially* (as in
//!    the paper's experiments), from the staging source into the BB;
//!    remaining inputs stay on the PFS. All tasks wait for stage-in.
//! 2. **Task lifecycle** — a ready task scheduled on a node reads its
//!    inputs (metadata phase, then data flows; at most `cores` files in
//!    flight, which is how added cores shorten latency-bound I/O), computes
//!    (Amdahl's Law on the node's CPU pool — time-shared if the node is
//!    oversubscribed), and writes its outputs to the tier chosen by the
//!    placement policy, registering their locations for consumers.
//! 3. **Makespan** — the date of the last completion event, exactly as the
//!    paper defines it.
//!
//! The main entry point is [`SimulationBuilder`]; results come back as a
//! [`SimulationReport`] with per-task records, per-category aggregates, and
//! achieved-bandwidth accounting (the paper's Figure 9).
//!
//! For observability beyond the report scalars, enable engine telemetry
//! with [`SimulationBuilder::telemetry`] and export the run through
//! [`crate::traceexport`] as line-delimited JSONL or a Perfetto/Chrome
//! trace (`docs/trace-format.md` documents both schemas). To answer
//! "why is this workflow slow", [`SimulationReport::explain`]
//! ([`crate::explain`]) ranks contention hotspots, decomposes the
//! executed critical path, and compares achieved to nominal tier
//! bandwidth — all from always-on engine contention accounting.

#![deny(missing_docs)]

pub mod builder;
pub mod executor;
pub mod explain;
pub mod fault;
pub mod gantt;
pub mod report;
pub mod traceexport;

pub use builder::{SimulationBuilder, SimulationError};
pub use executor::{Executor, ExecutorError, JobTag, SchedulerPolicy, Tag};
pub use explain::{Explanation, Hotspot, PathComposition, TierBandwidth};
pub use fault::{FaultEvent, FaultSpec, FaultSpecError, RetryPolicy};
pub use report::{
    CategoryStats, CriticalStep, CriticalStepKind, FaultRecord, ResourceContention,
    SimulationReport, StageSpan, TaskRecord,
};
pub use traceexport::TRACE_SCHEMA_VERSION;
pub use wfbb_resilience::{young_interval, CheckpointPolicy, CheckpointSpecError, CheckpointTier};
pub use wfbb_simcore::{EngineCounters, TelemetryConfig, TelemetrySnapshot};
