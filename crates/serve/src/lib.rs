//! Simulation-as-a-service: a long-running, multi-tenant what-if API
//! over the workflow/burst-buffer simulation engine.
//!
//! The service accepts `(workflow | campaign, platform, policy,
//! faults)` jobs as JSON over a dependency-free HTTP/1.1 layer built
//! on [`std::net::TcpListener`], runs them on a fixed worker-thread
//! pool, and serves the full artifact set (report JSON/CSV, explain,
//! decision log, Perfetto trace) per job id. Because the engine is
//! deterministic — same normalized input, same output bits — results
//! are memoized in an in-memory LRU keyed by a canonical input hash:
//! a repeated what-if query costs a hash lookup, not a simulation.
//!
//! The crate splits along the request path:
//!
//! * [`http`] — minimal HTTP/1.1 parsing/writing (no external deps);
//! * [`request`] — JSON job schema, validation, canonicalization, and
//!   the FNV-1a cache key;
//! * [`runner`] — executes a parsed request against the engine crates
//!   and collects the [`Artifacts`] (a simulate job's traces and
//!   explanation render on first fetch);
//! * [`cache`] — the byte-bounded, two-level (global + per-tenant)
//!   LRU result cache;
//! * [`tenant`] — per-tenant quotas and the admission ledger;
//! * [`metrics`] — the [`ServeMetrics`] operational snapshot;
//! * [`server`] — the accept loop, routing, worker pool, and the
//!   wall-clock reaper.
//!
//! The full service contract (routes, schemas, error taxonomy, quota
//! semantics, and the cache-soundness argument) lives in
//! `docs/service.md` and is drift-checked against this crate by
//! `scripts/check-doc-links.sh`.

#![deny(missing_docs)]

pub mod cache;
pub mod http;
pub mod metrics;
pub mod request;
pub mod runner;
pub mod server;
pub mod tenant;

/// Version tag carried in every request and response body. Bumped on
/// any breaking change to the wire schema.
pub const API_VERSION: u32 = 2;

pub use cache::{CacheCounters, ResultCache};
pub use metrics::ServeMetrics;
pub use request::{CampaignRequest, JobKind, JobRequest, SimulateRequest, WorkloadSource};
pub use runner::{run_request, Artifacts, Progress, RunError};
pub use server::{ServeConfig, Server, ServerHandle, Service, DEFAULT_TENANT};
pub use tenant::{QuotaError, QuotaLedger, TenantQuota, TenantUsage};
