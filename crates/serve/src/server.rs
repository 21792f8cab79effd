//! The long-running service: TCP accept loop, routing, the job table,
//! the fixed simulation worker pool, and the quota reaper.
//!
//! Threading model (all `std`, no async runtime):
//!
//! * the **accept loop** hands each connection to a short-lived handler
//!   thread (one request per connection, `Connection: close`);
//! * a **fixed pool** of `--workers` simulation threads drains the job
//!   queue — simulations are CPU-bound and engine state is not `Send`
//!   mid-run, so one job occupies one worker from start to finish;
//! * a **reaper** thread enforces the per-tenant wall-clock timeout:
//!   it raises the job's cancel flag (checked between engine events),
//!   marks the job `timeout`, and frees the tenant's quota slot
//!   immediately; if the worker does not come back within a grace
//!   period (a non-cancellable section), a replacement worker is
//!   spawned so pool capacity never leaks, and the stuck worker retires
//!   itself when it finally returns.
//!
//! Routes, schemas, and the error taxonomy are documented (and
//! drift-checked by `scripts/check-doc-links.sh`) in `docs/service.md`.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::http::{ChunkedWriter, HttpError, Request, Response};
use crate::metrics::ServeMetrics;
use crate::request::{JobRequest, RequestError};
use crate::runner::{run_request, Artifacts, Progress, RunError};
use crate::tenant::{QuotaError, QuotaLedger, TenantQuota};

/// Tenant assumed when no `X-Tenant` header is sent.
pub const DEFAULT_TENANT: &str = "anonymous";

/// How long the reaper waits for a cancelled job's worker to return
/// before spawning a replacement worker.
const REAP_GRACE: Duration = Duration::from_secs(2);

/// Reaper scan interval.
const REAP_SCAN: Duration = Duration::from_millis(50);

/// Progress-stream heartbeat interval.
const EVENT_BEAT: Duration = Duration::from_millis(100);

/// Server configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8080`; port `0` picks an ephemeral one).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Result-cache capacity, bytes.
    pub cache_bytes: usize,
    /// Per-tenant limits.
    pub quota: TenantQuota,
    /// How long a terminal (done/failed/timeout) job stays fetchable
    /// before the reaper evicts its entry; expired ids answer `404`.
    pub job_ttl: Duration,
    /// Maximum retained terminal jobs across all tenants; past it the
    /// oldest terminal entries are evicted first.
    pub max_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 2,
            cache_bytes: 64 * 1024 * 1024,
            quota: TenantQuota::default(),
            job_ttl: Duration::from_secs(600),
            max_jobs: 1024,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    TimedOut,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timeout",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::TimedOut)
    }
}

struct JobEntry {
    tenant: String,
    label: String,
    /// The canonical input hash; the job document shows it as
    /// `input_hash`.
    key: u64,
    request: Arc<JobRequest>,
    state: JobState,
    cached: bool,
    error: Option<String>,
    artifacts: Option<Arc<Artifacts>>,
    progress: Arc<Mutex<Progress>>,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    /// When the job reached a terminal state (drives retention).
    finished_at: Option<Instant>,
    /// When the reaper raised the cancel flag (for the grace window).
    reaped_at: Option<Instant>,
    /// A worker popped this job off the queue and is (or was) running
    /// it. Jobs reaped while still queued never set this.
    claimed: bool,
    /// The claiming worker's epilogue ran — its thread is accounted for.
    worker_done: bool,
    /// A replacement worker was spawned for this job's stuck worker.
    replacement_spawned: bool,
}

#[derive(Default)]
struct Totals {
    done: u64,
    failed: u64,
    timed_out: u64,
    from_cache: u64,
    evicted: u64,
}

struct Inner {
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    cache: ResultCache,
    ledger: QuotaLedger,
    next_id: u64,
    workers_busy: usize,
    workers_replaced: u64,
    totals: Totals,
    shutdown: bool,
}

/// Shared service state behind the HTTP front end.
pub struct Service {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    config: ServeConfig,
}

impl Service {
    fn new(config: ServeConfig) -> Service {
        Service {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                cache: ResultCache::new(config.cache_bytes),
                ledger: QuotaLedger::new(),
                next_id: 1,
                workers_busy: 0,
                workers_replaced: 0,
                totals: Totals::default(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            config,
        }
    }

    /// Submits a parsed request for `tenant`: cache hit → an already-
    /// `done` job carrying the cached artifacts; miss → queued job
    /// (or a quota error). Returns `(cache_hit, job_document_json)`;
    /// the document is rendered under the submission lock so it cannot
    /// race with retention eviction.
    fn submit(&self, tenant: &str, request: JobRequest) -> Result<(bool, String), QuotaError> {
        let key = request.cache_key();
        let label = request.label();
        let mut inner = self.inner.lock().expect("service lock");
        let cached = inner.cache.get(key);
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(artifacts) = cached {
            inner.ledger.record_cache_hit(tenant);
            inner.totals.from_cache += 1;
            let entry = JobEntry {
                tenant: tenant.to_string(),
                label,
                key,
                request: Arc::new(request),
                state: JobState::Done,
                cached: true,
                error: None,
                artifacts: Some(artifacts),
                progress: Arc::new(Mutex::new(Progress::default())),
                cancel: Arc::new(AtomicBool::new(false)),
                submitted: Instant::now(),
                finished_at: Some(Instant::now()),
                reaped_at: None,
                claimed: false,
                worker_done: false,
                replacement_spawned: false,
            };
            let body = job_json(&entry, id);
            inner.jobs.insert(id, entry);
            return Ok((true, body));
        }
        inner.ledger.admit(tenant, &self.config.quota)?;
        let entry = JobEntry {
            tenant: tenant.to_string(),
            label,
            key,
            request: Arc::new(request),
            state: JobState::Queued,
            cached: false,
            error: None,
            artifacts: None,
            progress: Arc::new(Mutex::new(Progress::default())),
            cancel: Arc::new(AtomicBool::new(false)),
            submitted: Instant::now(),
            finished_at: None,
            reaped_at: None,
            claimed: false,
            worker_done: false,
            replacement_spawned: false,
        };
        let body = job_json(&entry, id);
        inner.jobs.insert(id, entry);
        inner.queue.push_back(id);
        drop(inner);
        self.work_ready.notify_one();
        Ok((false, body))
    }

    /// One worker's run loop. Returns when the service shuts down, or
    /// early if this worker got stuck past the reap grace and a
    /// replacement was spawned for it (the pool has already been
    /// refilled).
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let claimed = {
                let mut inner = self.inner.lock().expect("service lock");
                loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        // Jobs reaped while still queued are skipped —
                        // their state and quota were already settled.
                        let entry = inner.jobs.get_mut(&id).expect("queued job exists");
                        if entry.state != JobState::Queued {
                            continue;
                        }
                        entry.state = JobState::Running;
                        entry.claimed = true;
                        let claim = (
                            id,
                            Arc::clone(&entry.request),
                            Arc::clone(&entry.cancel),
                            Arc::clone(&entry.progress),
                        );
                        inner.workers_busy += 1;
                        break Some(claim);
                    }
                    inner = self
                        .work_ready
                        .wait_timeout(inner, Duration::from_millis(200))
                        .expect("service lock")
                        .0;
                }
            };
            let Some((id, request, cancel, progress)) = claimed else {
                return;
            };
            let result = run_request(&request, &cancel, &progress);
            let mut inner = self.inner.lock().expect("service lock");
            inner.workers_busy -= 1;
            // Retention never evicts a claimed job before this epilogue
            // runs (`worker_done` gates eviction), so the entry exists.
            let entry = inner.jobs.get_mut(&id).expect("running job exists");
            entry.worker_done = true;
            let retire = entry.replacement_spawned;
            let tenant = entry.tenant.clone();
            let key = entry.key;
            if entry.state == JobState::TimedOut {
                // The reaper already settled this job (state, quota);
                // whatever the run produced is discarded.
            } else {
                entry.finished_at = Some(Instant::now());
                match result {
                    Ok(artifacts) => {
                        let artifacts = Arc::new(artifacts);
                        entry.state = JobState::Done;
                        entry.artifacts = Some(Arc::clone(&artifacts));
                        inner.totals.done += 1;
                        inner.cache.insert(
                            key,
                            &tenant,
                            artifacts,
                            self.config.quota.max_cached_bytes,
                        );
                        inner.ledger.release_completed(&tenant);
                    }
                    Err(RunError::Cancelled) => {
                        // Cancel raised but the reaper lost the race to
                        // mark the state: settle it here.
                        entry.state = JobState::TimedOut;
                        inner.totals.timed_out += 1;
                        inner.ledger.release_reaped(&tenant);
                    }
                    Err(RunError::Failed(message)) => {
                        entry.state = JobState::Failed;
                        entry.error = Some(message);
                        inner.totals.failed += 1;
                        inner.ledger.release_completed(&tenant);
                    }
                }
            }
            if retire {
                // A replacement took this worker's pool slot while it
                // was stuck; retire instead of over-provisioning.
                return;
            }
        }
    }

    /// One reaper scan: time out over-budget jobs, replace stuck
    /// workers, evict retired job entries past retention.
    fn reap(self: &Arc<Self>) {
        let timeout = Duration::from_secs_f64(self.config.quota.timeout_s.max(0.0));
        let mut replacements = 0u32;
        {
            let mut inner = self.inner.lock().expect("service lock");
            let now = Instant::now();
            let mut to_reap = Vec::new();
            let mut to_replace = Vec::new();
            for (id, entry) in &inner.jobs {
                match entry.state {
                    JobState::Queued | JobState::Running
                        if now.duration_since(entry.submitted) >= timeout =>
                    {
                        to_reap.push(*id);
                    }
                    JobState::TimedOut => {
                        if let Some(reaped_at) = entry.reaped_at {
                            // A worker claimed this job and its epilogue
                            // still has not run past the grace window:
                            // that worker is stuck in a non-cancellable
                            // section. Jobs reaped while still *queued*
                            // never set `claimed`, so no replacement is
                            // spawned for them — no worker is missing.
                            if entry.claimed
                                && !entry.worker_done
                                && !entry.replacement_spawned
                                && now.duration_since(reaped_at) >= REAP_GRACE
                            {
                                to_replace.push(*id);
                            }
                        }
                    }
                    _ => {}
                }
            }
            for id in to_reap {
                let entry = inner.jobs.get_mut(&id).expect("job exists");
                entry.cancel.store(true, Ordering::Relaxed);
                entry.state = JobState::TimedOut;
                entry.finished_at = Some(now);
                entry.reaped_at = Some(now);
                let tenant = entry.tenant.clone();
                inner.totals.timed_out += 1;
                inner.ledger.release_reaped(&tenant);
            }
            for id in to_replace {
                let entry = inner.jobs.get_mut(&id).expect("job exists");
                entry.replacement_spawned = true;
                inner.workers_replaced += 1;
                replacements += 1;
            }
            self.evict_retired(&mut inner, now);
        }
        for _ in 0..replacements {
            let service = Arc::clone(self);
            std::thread::spawn(move || service.worker_loop());
        }
    }

    /// Drops terminal job entries past the retention TTL, and the
    /// oldest terminal entries beyond the `max_jobs` cap, so the job
    /// table (and the artifact `Arc`s it pins) stays bounded in a
    /// long-running service. Expired ids answer `404` afterwards. A
    /// claimed job whose worker epilogue has not run yet is never
    /// evicted — the epilogue needs the entry.
    fn evict_retired(&self, inner: &mut Inner, now: Instant) {
        let mut terminal: Vec<(Instant, u64)> = inner
            .jobs
            .iter()
            .filter(|(_, e)| e.state.terminal() && (!e.claimed || e.worker_done))
            .map(|(id, e)| (e.finished_at.unwrap_or(e.submitted), *id))
            .collect();
        terminal.sort();
        // Sorted oldest-first, so the expired set is a prefix; the cap
        // then extends that prefix to drop the oldest survivors.
        let expired = terminal
            .iter()
            .take_while(|(finished, _)| {
                now.saturating_duration_since(*finished) >= self.config.job_ttl
            })
            .count();
        let evict = expired.max(terminal.len().saturating_sub(self.config.max_jobs));
        for &(_, id) in &terminal[..evict] {
            inner.jobs.remove(&id);
            inner.totals.evicted += 1;
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        let inner = self.inner.lock().expect("service lock");
        let mut running = 0usize;
        let mut queued = 0usize;
        for entry in inner.jobs.values() {
            match entry.state {
                JobState::Running => running += 1,
                JobState::Queued => queued += 1,
                _ => {}
            }
        }
        ServeMetrics {
            workers: self.config.workers,
            workers_busy: inner.workers_busy,
            workers_replaced: inner.workers_replaced,
            queue_depth: queued,
            jobs_running: running,
            jobs_done: inner.totals.done,
            jobs_failed: inner.totals.failed,
            jobs_timed_out: inner.totals.timed_out,
            jobs_from_cache: inner.totals.from_cache,
            jobs_evicted: inner.totals.evicted,
            cache_entries: inner.cache.len(),
            cache_bytes: inner.cache.used_bytes(),
            cache_capacity_bytes: inner.cache.capacity_bytes(),
            cache: inner.cache.counters(),
            tenants: inner
                .ledger
                .all()
                .map(|(name, usage)| (name.to_string(), *usage))
                .collect(),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal: `"`, `\`,
/// and every control character below 0x20 (RFC 8259 requires them
/// escaped — engine error strings and echoed request paths can carry
/// newlines or other control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A typed API error body (`docs/service.md` error taxonomy).
fn error_body(status: u16, code: &str, message: &str) -> Response {
    let escaped = json_escape(message);
    Response::json(
        status,
        format!(
            "{{\"error\":{{\"status\":{status},\"code\":\"{code}\",\"message\":\"{escaped}\"}}}}"
        ),
    )
}

fn job_json(entry: &JobEntry, id: u64) -> String {
    let progress = entry.progress.lock().map(|p| *p).unwrap_or_default();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"api_version\":{},\"id\":{},\"state\":\"{}\",\"tenant\":\"{}\",\"label\":\"{}\",\
         \"input_hash\":\"{:016x}\",\"cached\":{},",
        crate::API_VERSION,
        id,
        entry.state.label(),
        json_escape(&entry.tenant),
        json_escape(&entry.label),
        entry.key,
        entry.cached,
    );
    let _ = write!(
        out,
        "\"progress\":{{\"sim_time\":{},\"jobs_admitted\":{},\"jobs_finished\":{},\
         \"queue_depth\":{},\"events\":{}}},",
        progress.sim_time,
        progress.jobs_admitted,
        progress.jobs_finished,
        progress.queue_depth,
        progress.events,
    );
    match &entry.error {
        Some(e) => {
            let _ = write!(out, "\"error\":\"{}\",", json_escape(e));
        }
        None => out.push_str("\"error\":null,"),
    }
    out.push_str("\"artifacts\":[");
    if let Some(artifacts) = &entry.artifacts {
        for (i, (name, bytes)) in artifacts.manifest().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"bytes\":", json_escape(name));
            match bytes {
                Some(n) => {
                    let _ = write!(out, "{n}}}");
                }
                // A deferred artifact not fetched yet has no size.
                None => out.push_str("null}"),
            }
        }
    }
    out.push_str("]}");
    out
}

fn artifact_content_type(name: &str) -> &'static str {
    if name.ends_with(".json") {
        "application/json"
    } else if name.ends_with(".jsonl") {
        "application/x-ndjson"
    } else if name.ends_with(".csv") {
        "text/csv"
    } else {
        "text/plain"
    }
}

/// The running server: a bound listener plus its background threads.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

/// Handle to a server running on background threads (tests and
/// embedders); [`ServerHandle::stop`] shuts it down.
pub struct ServerHandle {
    /// The actually-bound address (resolves `:0` requests).
    pub addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and prepares (but does not start) the
    /// service.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            service: Arc::new(Service::new(config)),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Runs the accept loop on the calling thread (the CLI entry
    /// point); worker pool and reaper run on background threads.
    pub fn run(self) -> std::io::Result<()> {
        let service = Arc::clone(&self.service);
        Self::spawn_background(&service);
        Self::accept_loop(self.listener, service)
    }

    /// Starts the whole server on background threads and returns a
    /// stop handle — the embedding used by tests and the CI smoke step.
    pub fn start(self) -> ServerHandle {
        let addr = self.local_addr();
        let service = Arc::clone(&self.service);
        Self::spawn_background(&service);
        let accept_service = Arc::clone(&self.service);
        let listener = self.listener;
        let accept = std::thread::spawn(move || {
            let _ = Self::accept_loop(listener, accept_service);
        });
        ServerHandle {
            addr,
            service,
            accept: Some(accept),
        }
    }

    fn spawn_background(service: &Arc<Service>) {
        for _ in 0..service.config.workers.max(1) {
            let worker = Arc::clone(service);
            std::thread::spawn(move || worker.worker_loop());
        }
        let reaper = Arc::clone(service);
        std::thread::spawn(move || loop {
            if reaper.inner.lock().expect("service lock").shutdown {
                return;
            }
            reaper.reap();
            std::thread::sleep(REAP_SCAN);
        });
    }

    fn accept_loop(listener: TcpListener, service: Arc<Service>) -> std::io::Result<()> {
        for stream in listener.incoming() {
            if service.inner.lock().expect("service lock").shutdown {
                return Ok(());
            }
            let Ok(stream) = stream else { continue };
            let conn_service = Arc::clone(&service);
            std::thread::spawn(move || handle_connection(stream, conn_service));
        }
        Ok(())
    }
}

impl ServerHandle {
    /// Stops the server: shuts the accept loop, workers, and reaper
    /// down and joins the accept thread.
    pub fn stop(mut self) {
        self.service.inner.lock().expect("service lock").shutdown = true;
        self.service.work_ready.notify_all();
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// The service behind this handle (metrics for assertions).
    pub fn service_metrics(&self) -> ServeMetrics {
        self.service.metrics()
    }
}

fn handle_connection(mut stream: TcpStream, service: Arc<Service>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match Request::read(&mut stream, service.config.quota.max_body_bytes) {
        Ok(r) => r,
        Err(HttpError::BodyTooLarge { declared, limit }) => {
            let _ = error_body(
                413,
                "quota_body_bytes",
                &format!("request body of {declared} bytes exceeds the {limit}-byte quota"),
            )
            .write(&mut stream);
            return;
        }
        Err(e) => {
            let _ = error_body(400, "bad_request", &e.to_string()).write(&mut stream);
            return;
        }
    };
    match route(&request, &service, &mut stream) {
        Routed::Response(response) => {
            let _ = response.write(&mut stream);
        }
        Routed::Streamed => {}
    }
}

enum Routed {
    Response(Response),
    /// The route wrote its own (chunked) response.
    Streamed,
}

fn route(request: &Request, service: &Arc<Service>, stream: &mut TcpStream) -> Routed {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => Routed::Response(Response::json(
            200,
            format!("{{\"ok\":true,\"api_version\":{}}}", crate::API_VERSION),
        )),
        ("GET", ["v1", "metrics"]) => {
            Routed::Response(Response::json(200, service.metrics().to_json()))
        }
        ("POST", ["v1", "jobs"]) => Routed::Response(submit(request, service)),
        ("GET", ["v1", "jobs", id]) => Routed::Response(job_status(id, service)),
        ("GET", ["v1", "jobs", id, "events"]) => stream_events(id, service, stream),
        ("GET", ["v1", "jobs", id, "artifacts", name]) => {
            Routed::Response(fetch_artifact(id, name, service))
        }
        ("POST", _) | ("GET", _) => Routed::Response(error_body(
            404,
            "not_found",
            &format!("no route for {method} {}", request.path),
        )),
        _ => Routed::Response(error_body(
            405,
            "method_not_allowed",
            &format!("method {method} is not supported"),
        )),
    }
}

fn submit(request: &Request, service: &Arc<Service>) -> Response {
    let tenant = request.header("x-tenant").unwrap_or(DEFAULT_TENANT);
    if tenant.is_empty()
        || !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return error_body(
            400,
            "bad_tenant",
            "X-Tenant must be a non-empty [A-Za-z0-9_-]+ name",
        );
    }
    let parsed = match JobRequest::parse(&request.body) {
        Ok(p) => p,
        Err(RequestError(message)) => return error_body(400, "bad_request", &message),
    };
    match service.submit(tenant, parsed) {
        Ok((cached, body)) => Response::json(if cached { 200 } else { 202 }, body),
        Err(err @ QuotaError::InFlight { .. }) => {
            error_body(429, "quota_in_flight", &err.to_string())
        }
    }
}

fn parse_id(id: &str) -> Option<u64> {
    id.parse().ok()
}

fn job_status(id: &str, service: &Arc<Service>) -> Response {
    let Some(id) = parse_id(id) else {
        return error_body(400, "bad_request", "job id must be an integer");
    };
    let inner = service.inner.lock().expect("service lock");
    match inner.jobs.get(&id) {
        None => error_body(
            404,
            "not_found",
            &format!("no job {id} (unknown or expired)"),
        ),
        Some(entry) if entry.state == JobState::TimedOut => Response {
            status: 504,
            content_type: "application/json",
            body: timeout_body(entry, id).into_bytes(),
        },
        Some(entry) => Response::json(200, job_json(entry, id)),
    }
}

/// The typed `504` body still carries the job document so clients can
/// see how far the run got before the reaper cancelled it.
fn timeout_body(entry: &JobEntry, id: u64) -> String {
    format!(
        "{{\"error\":{{\"status\":504,\"code\":\"timeout\",\
         \"message\":\"job exceeded the tenant wall-clock quota and was reaped\"}},\
         \"job\":{}}}",
        job_json(entry, id)
    )
}

/// The answer to an artifact fetch for a job that is not `done`.
fn unfinished(entry: &JobEntry, id: u64) -> Response {
    match entry.state {
        JobState::TimedOut => Response {
            status: 504,
            content_type: "application/json",
            body: timeout_body(entry, id).into_bytes(),
        },
        JobState::Failed => error_body(
            409,
            "job_failed",
            entry.error.as_deref().unwrap_or("simulation failed"),
        ),
        _ => error_body(
            409,
            "not_ready",
            &format!("job {id} is {}; poll /v1/jobs/{id}", entry.state.label()),
        ),
    }
}

fn fetch_artifact(id: &str, name: &str, service: &Arc<Service>) -> Response {
    let Some(id) = parse_id(id) else {
        return error_body(400, "bad_request", "job id must be an integer");
    };
    // Take the artifact set out from under the lock: rendering a
    // deferred artifact can take tens of milliseconds, and no other
    // route should wait for it.
    let (artifacts, key) = {
        let inner = service.inner.lock().expect("service lock");
        let Some(entry) = inner.jobs.get(&id) else {
            return error_body(
                404,
                "not_found",
                &format!("no job {id} (unknown or expired)"),
            );
        };
        match (entry.state, &entry.artifacts) {
            (JobState::Done, Some(artifacts)) => (Arc::clone(artifacts), entry.key),
            _ => return unfinished(entry, id),
        }
    };
    let pending = artifacts.is_pending(name);
    let Some(bytes) = artifacts.get(name) else {
        let names: Vec<&str> = artifacts.manifest().iter().map(|(n, _)| *n).collect();
        return error_body(
            404,
            "not_found",
            &format!(
                "job {id} has no artifact {name:?} (available: {})",
                names.join(", ")
            ),
        );
    };
    let response = Response::bytes(200, artifact_content_type(name), bytes.to_vec());
    if pending {
        // The render grew the set: charge it to the cache entry.
        let mut inner = service.inner.lock().expect("service lock");
        inner
            .cache
            .charge(key, service.config.quota.max_cached_bytes);
    }
    response
}

/// Streams progress heartbeats as chunked NDJSON until the job reaches
/// a terminal state — the HTTP analogue of the CLI `--progress`
/// heartbeat (same fields, same semantics; see `docs/service.md`).
fn stream_events(id: &str, service: &Arc<Service>, stream: &mut TcpStream) -> Routed {
    let Some(id) = parse_id(id) else {
        return Routed::Response(error_body(400, "bad_request", "job id must be an integer"));
    };
    {
        let inner = service.inner.lock().expect("service lock");
        if !inner.jobs.contains_key(&id) {
            return Routed::Response(error_body(404, "not_found", &format!("no job {id}")));
        }
    }
    let Ok(mut writer) = ChunkedWriter::start(stream, 200, "application/x-ndjson") else {
        return Routed::Streamed;
    };
    let started = Instant::now();
    loop {
        let snapshot = {
            let inner = service.inner.lock().expect("service lock");
            let Some(entry) = inner.jobs.get(&id) else {
                // Evicted by retention mid-stream: end cleanly (the
                // write happens below, after the lock is dropped).
                break;
            };
            let progress = entry.progress.lock().map(|p| *p).unwrap_or_default();
            let line = format!(
                "{{\"type\":\"heartbeat\",\"id\":{},\"state\":\"{}\",\"sim_time\":{},\
                 \"jobs_admitted\":{},\"jobs_finished\":{},\"queue_depth\":{},\"events\":{},\
                 \"wall_s\":{:.3}}}\n",
                id,
                entry.state.label(),
                progress.sim_time,
                progress.jobs_admitted,
                progress.jobs_finished,
                progress.queue_depth,
                progress.events,
                started.elapsed().as_secs_f64(),
            );
            (line, entry.state.terminal())
        };
        let (line, terminal) = snapshot;
        if writer.chunk(line.as_bytes()).is_err() {
            return Routed::Streamed;
        }
        if terminal {
            break;
        }
        std::thread::sleep(EVENT_BEAT);
    }
    let final_line = {
        let inner = service.inner.lock().expect("service lock");
        match inner.jobs.get(&id) {
            Some(entry) => format!("{{\"type\":\"end\",\"job\":{}}}\n", job_json(entry, id)),
            // Evicted between the last heartbeat and this render.
            None => "{\"type\":\"end\",\"job\":null}\n".to_string(),
        }
    };
    let _ = writer.chunk(final_line.as_bytes());
    let _ = writer.finish();
    Routed::Streamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\r\ttab"), "line\\nbreak\\r\\ttab");
        assert_eq!(json_escape("bell\u{07}nul\u{00}"), "bell\\u0007nul\\u0000");
    }

    #[test]
    fn error_bodies_stay_valid_json_for_control_character_messages() {
        let response = error_body(404, "not_found", "no route for GET /\u{01}\n\"x\"");
        let body = String::from_utf8(response.body).unwrap();
        // RFC 8259: no raw control characters may appear in the output.
        assert!(body.chars().all(|c| (c as u32) >= 0x20));
        assert!(body.contains("\\u0001"));
        assert!(body.contains("\\n"));
        assert!(body.contains("\\\"x\\\""));
    }
}
