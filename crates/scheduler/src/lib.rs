//! # wfbb-sched — multi-tenant batch scheduling of workflow campaigns
//!
//! Turns the single-run simulator into a *campaign* simulator: a
//! deterministic stream of workflow jobs (arrival time, workflow,
//! node count, burst-buffer request, walltime estimate) is admitted
//! onto a shared machine by a pluggable batch scheduler and executed
//! concurrently inside one fluid engine.
//!
//! The pieces:
//!
//! * [`JobSpec`] ([`job`]) — one entry of the workload;
//! * [`workload`] — workload-file parsing and seeded synthetic
//!   campaign generation;
//! * [`BatchPolicy`] / [`policy::plan_admissions`] ([`policy`]) — FCFS,
//!   EASY backfilling, the BB-aware backfilling variant that plans
//!   burst-buffer capacity as a second schedulable resource, and the
//!   plan-based policy that simulates candidate admission orders
//!   forward before committing (both after Kopanski & Rzadca,
//!   arXiv:2109.00082);
//! * [`run_campaign`] / [`CampaignSim`] ([`campaign`]) — the driver:
//!   carves platform slices per admitted job, reserves BB capacity from
//!   a [`wfbb_storage::BbPool`], and routes engine completions to each
//!   job's [`wfbb_wms::Executor`] until the campaign drains; the
//!   stepwise [`CampaignSim`] additionally supports deterministic
//!   mid-campaign forking (`docs/snapshot.md`);
//! * [`CampaignReport`] ([`report`]) — per-job wait/run/stretch/
//!   bounded-slowdown with the three-way wait decomposition, cluster
//!   utilization series, and deterministic JSON / CSV / Perfetto
//!   exports;
//! * [`DecisionLog`] / [`SchedProfile`] ([`decisionlog`]) — the
//!   structured record of every admission verdict, BB-pool ledger
//!   operation, and plan-ordering search, plus the host-side wall-clock
//!   profile of the scheduler loop (`docs/observability.md`);
//! * [`explain_text`] / [`explain_json`] ([`explain`]) — the
//!   `--explain-sched` renderers: top blocked jobs, dominant blocking
//!   resource, plan win/loss table.
//!
//! Compute nodes and BB *capacity* are partitioned by the scheduler;
//! the PFS, interconnect, and BB *bandwidth* stay shared, so
//! cross-job contention (the interesting part) emerges naturally from
//! the fluid engine rather than from an analytic slowdown model.

#![deny(missing_docs)]

pub mod campaign;
pub mod decisionlog;
pub mod explain;
pub mod job;
pub mod policy;
pub mod report;
pub mod workload;

pub use campaign::{
    run_campaign, run_campaign_logged, CampaignConfig, CampaignError, CampaignRun, CampaignSim,
    DEFAULT_PLAN_HORIZON,
};
pub use decisionlog::{DecisionLog, DecisionRecord, PlanCandidate, SchedProfile};
pub use explain::{explain_json, explain_text};
pub use job::JobSpec;
pub use policy::{
    Admissions, AdmitKind, BatchPolicy, BlockReason, JobDecision, QueuedReq, RunningRes, Verdict,
};
pub use report::{CampaignReport, JobOutcome, JobStatus, UtilSample, BOUNDED_SLOWDOWN_TAU};
pub use workload::{
    build_workflow, parse_workload, synthetic_jobs, SyntheticConfig, WorkloadError,
    MAX_GENOMES_CHROMOSOMES, MAX_SWARP_PIPELINES, MAX_SYNTHETIC_JOBS,
};
