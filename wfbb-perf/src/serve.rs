//! `serve_cold` and `serve_hit`: the what-if service under an open loop.
//!
//! The harness starts the service in a child process (this binary's
//! `serve-child`, which binds `wfbb_serve::Server` with the defaults of
//! `wfbb serve --workers 2`) and drives it over `std::net` from one
//! thread, one connection at a time. Requests arrive on a seeded
//! Poisson schedule whatever the server does, over four tenants; each
//! goes submit → poll `GET /v1/jobs/<id>` every 2 ms → fetch
//! `report.json`, and its latency is timed from when it was due, so a
//! stall also delays every request behind it.
//!
//! * `serve_cold` — 10 requests/s, every one a new key: 8-job BB-aware
//!   campaigns, SWarp (1–4 pipelines) and 1000Genomes (2–6 chromosomes)
//!   simulations in equal parts. Each runs on a worker (2–50 ms in the
//!   engine); artifact sets of 35 KB to 3 MB overflow the 16 MiB
//!   per-tenant cache budget, so the cache evicts.
//! * `serve_hit` — 40 requests/s over 16 keys computed before the
//!   measurement: every request is a cache hit and never reaches the
//!   engine, so only the HTTP layer, routing and the cache move it.
//!
//! The traced run also replays the service's keys in process, once
//! through `wfbb_serve::run_request` (the worker's own code, timed
//! alone) and once through the public entry points with spans, so the
//! cold path gets the same per-layer breakdown as the other workloads.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;
use wfbb_sched::{build_workflow, synthetic_jobs, BatchPolicy, CampaignConfig, SyntheticConfig};
use wfbb_serve::runner::parse_platform;
use wfbb_simcore::EngineCounters;
use wfbb_storage::{FailoverPolicy, PlacementPolicy};
use wfbb_wms::FaultSpec;

use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{median, quantile, Rng, Summary};
use crate::trace::Tracer;
use crate::{campaign, layers, sweep, Opts};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Hit,
}

const TENANTS: usize = 4;
/// Server start-ups timed before the run, and again after it.
const SPAWNS: usize = 5;
const POLL: Duration = Duration::from_millis(2);
/// A request not done this long after it was due counts as a stall.
const STALL: Duration = Duration::from_secs(30);
/// The run is invalid when the generator's p99 lateness exceeds this.
const MAX_LATE_P99_MS: f64 = 10.0;
/// Warm keys of `serve_hit`: four per tenant, small enough that none
/// is evicted from the 16 MiB tenant budget.
const HIT_KEYS: usize = 16;
/// Cold keys the traced run replays in process.
const REPLAY_KEYS: usize = 30;
/// Cold keys `serve_cold` resubmits to compare cold and cached bytes.
const IDENTITY_KEYS: usize = 16;

/// One service input, as the harness generates it.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    Campaign {
        seed: u64,
    },
    Simulate {
        workflow: String,
        platform: &'static str,
        nodes: usize,
        fraction: f64,
    },
}

const PLATFORMS: [&str; 3] = ["cori:private", "cori:striped", "summit"];

impl Key {
    fn body(&self) -> String {
        match self {
            Key::Campaign { seed } => format!(
                "{{\"type\":\"campaign\",\"platform\":\"cori:striped\",\"nodes\":8,\
                 \"policy\":\"bb-aware\",\"workload\":{{\"type\":\"synthetic\",\"seed\":{seed},\
                 \"jobs\":8,\"max_nodes\":2}}}}"
            ),
            Key::Simulate {
                workflow,
                platform,
                nodes,
                fraction,
            } => format!(
                "{{\"type\":\"simulate\",\"workflow\":\"{workflow}\",\"platform\":\"{platform}\",\
                 \"nodes\":{nodes},\"placement\":\"fraction:{fraction}\"}}"
            ),
        }
    }

    /// The `i`-th key of a pool: campaigns, SWarp and Genomes in turn.
    /// `small` keeps the artifact sets small (the `serve_hit` pool).
    fn draw(rng: &mut Rng, i: usize, small: bool) -> Key {
        let platform = PLATFORMS[rng.below(3)];
        let fraction = rng.below(1001) as f64 / 1000.0;
        match i % 3 {
            0 => Key::Campaign {
                seed: rng.next_u64() % 1_000_000_000,
            },
            1 => {
                let pipelines = if small { 1 } else { [1, 2, 4][rng.below(3)] };
                let cores = [8, 16][rng.below(2)];
                Key::Simulate {
                    workflow: format!("swarp:{pipelines}:{cores}"),
                    platform,
                    nodes: 1,
                    fraction,
                }
            }
            _ => Key::Simulate {
                workflow: format!("genomes:{}", if small { 2 } else { 2 + rng.below(5) }),
                platform,
                nodes: 4,
                fraction,
            },
        }
    }

    /// `n` distinct keys.
    fn pool(seed: u64, n: usize, small: bool) -> Vec<Key> {
        let mut rng = Rng::derive(seed, 7);
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = Key::draw(&mut rng, out.len(), small);
            if seen.insert(k.body()) {
                out.push(k);
            }
        }
        out
    }
}

// ---- the server process ------------------------------------------------

/// `wfbb-perf serve-child --addr <a> --workers <n>`: the service with
/// `wfbb serve`'s defaults. Prints `listening on http://<addr>` once
/// bound, then serves until killed.
pub fn child(args: &[String]) -> Result<(), String> {
    let mut config = wfbb_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--workers" => {
                config.workers = value
                    .parse()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or("bad --workers")?
            }
            other => return Err(format!("unknown serve-child argument {other:?}")),
        }
    }
    let server = wfbb_serve::Server::bind(config).map_err(|e| e.to_string())?;
    println!("listening on http://{}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// A running service child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the service and waits for its first healthy `/v1/healthz`.
    fn start() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["serve-child", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the service: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("service did not report its address: {line:?}"));
        };
        let server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = http(server.addr, "GET", "/v1/healthz", "probe", b"") {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("service never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection: status and body.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Tenant: {tenant}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    s.write_all(&req).map_err(io)?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(io)?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, buf[split + 4..].to_vec()))
}

fn json(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

// ---- the open loop -----------------------------------------------------

/// One request of the open loop and what the client saw of it.
struct Req {
    due: Instant,
    key: usize,
    tenant: usize,
    job: Option<u64>,
    next_poll: Instant,
    late: Duration,
    submit: Duration,
    polls: Duration,
    fetch: Duration,
    done: Option<Instant>,
    cached: bool,
    artifact_bytes: u64,
    report: Vec<u8>,
}

impl Req {
    fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d - self.due)
    }

    /// Time the job spent queued or running on the server, as polled.
    fn wait(&self) -> Duration {
        [self.late, self.submit, self.polls, self.fetch]
            .into_iter()
            .fold(self.latency().unwrap_or_default(), Duration::saturating_sub)
    }
}

struct Client {
    addr: SocketAddr,
    bodies: Vec<String>,
}

impl Client {
    fn tenant(t: usize) -> String {
        format!("t{t}")
    }

    /// Submits `r`; a cached answer is fetched at once.
    fn submit(&self, r: &mut Req) -> Result<(), String> {
        let t = Instant::now();
        r.late = t.saturating_duration_since(r.due);
        let tenant = Self::tenant(r.tenant);
        let (status, body) = http(
            self.addr,
            "POST",
            "/v1/jobs",
            &tenant,
            self.bodies[r.key].as_bytes(),
        )?;
        r.submit = t.elapsed();
        let doc = json(&body).ok_or("submit: response is not JSON")?;
        if status >= 400 {
            return Err(format!(
                "submit: HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        r.job = doc.get("id").and_then(Value::as_u64);
        r.cached = doc.get("cached").and_then(Value::as_bool) == Some(true);
        if doc.get("state").and_then(Value::as_str) == Some("done") {
            self.fetch(r, &doc)
        } else {
            r.next_poll = Instant::now() + POLL;
            Ok(())
        }
    }

    /// Polls `r`'s job once; fetches the report when it is done.
    fn poll(&self, r: &mut Req) -> Result<(), String> {
        let t = Instant::now();
        let id = r.job.ok_or("poll: no job id")?;
        let (status, body) = http(
            self.addr,
            "GET",
            &format!("/v1/jobs/{id}"),
            &Self::tenant(r.tenant),
            b"",
        )?;
        r.polls += t.elapsed();
        if status >= 400 {
            return Err(format!(
                "poll: HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        let doc = json(&body).ok_or("poll: response is not JSON")?;
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => self.fetch(r, &doc),
            Some("queued") | Some("running") => {
                r.next_poll = Instant::now() + POLL;
                Ok(())
            }
            other => Err(format!(
                "job {id} ended {other:?}: {}",
                String::from_utf8_lossy(&body)
            )),
        }
    }

    fn fetch(&self, r: &mut Req, doc: &Value) -> Result<(), String> {
        let t = Instant::now();
        let id = r.job.ok_or("fetch: no job id")?;
        let path = format!("/v1/jobs/{id}/artifacts/report.json");
        let (status, body) = http(self.addr, "GET", &path, &Self::tenant(r.tenant), b"")?;
        let now = Instant::now();
        r.fetch = now - t;
        if status != 200 {
            return Err(format!(
                "fetch: HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        r.done = Some(now);
        r.report = body;
        r.artifact_bytes = doc
            .get("artifacts")
            .and_then(Value::as_array)
            .map_or(0, |a| {
                a.iter()
                    .filter_map(|e| e.get("bytes").and_then(Value::as_u64))
                    .sum()
            });
        Ok(())
    }

    /// Runs every request to completion: submissions go out when due,
    /// ahead of any poll; between them, the earliest poll due is sent.
    fn open_loop(&self, reqs: &mut [Req], out: &mut Outcome) {
        let mut next = 0;
        let mut waiting: Vec<usize> = Vec::new();
        loop {
            let now = Instant::now();
            if next < reqs.len() && reqs[next].due <= now {
                let r = &mut reqs[next];
                match self.submit(r) {
                    Ok(()) if r.done.is_none() => waiting.push(next),
                    Ok(()) => {}
                    Err(e) => out.check(false, || format!("request {next}: {e}")),
                }
                next += 1;
                continue;
            }
            let soonest = waiting
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| reqs[i].next_poll)
                .map(|(w, &i)| (w, i));
            if let Some((w, i)) = soonest {
                if reqs[i].next_poll <= now {
                    let r = &mut reqs[i];
                    let result = self.poll(r);
                    if result.is_err() || r.done.is_some() || now - r.due > STALL {
                        waiting.swap_remove(w);
                        match result {
                            Err(e) => out.check(false, || format!("request {i}: {e}")),
                            Ok(()) if r.done.is_none() => {
                                out.check(false, || format!("request {i} stalled"))
                            }
                            Ok(()) => {}
                        }
                    }
                    continue;
                }
            }
            if next == reqs.len() && waiting.is_empty() {
                return;
            }
            let wake = [
                reqs.get(next).map(|r| r.due),
                soonest.map(|(_, i)| reqs[i].next_poll),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("something is pending");
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
    }

    /// Submits `keys` one at a time, each once the last is done, outside
    /// any measurement: the warm-up of `serve_hit` and the resubmissions
    /// of the identity check.
    fn settle(&self, keys: &[(usize, usize)], out: &mut Outcome) -> Vec<Req> {
        keys.iter()
            .map(|&(key, tenant)| {
                let mut one = [new_req(Instant::now(), key, tenant)];
                self.open_loop(&mut one, out);
                let [r] = one;
                r
            })
            .collect()
    }

    fn metrics(&self) -> Option<Value> {
        match http(self.addr, "GET", "/v1/metrics", "probe", b"") {
            Ok((200, body)) => json(&body),
            _ => None,
        }
    }
}

fn new_req(due: Instant, key: usize, tenant: usize) -> Req {
    Req {
        due,
        key,
        tenant,
        job: None,
        next_poll: due,
        late: Duration::ZERO,
        submit: Duration::ZERO,
        polls: Duration::ZERO,
        fetch: Duration::ZERO,
        done: None,
        cached: false,
        artifact_bytes: 0,
        report: Vec::new(),
    }
}

/// `rate × seconds` seeded Poisson arrivals over `seconds`: a Poisson
/// process conditioned on its count places the arrivals uniformly, so
/// every seed offers the same number of requests.
fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = Rng::derive(seed, 11);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

// ---- the workloads -----------------------------------------------------

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let rate = match kind {
        Kind::Cold => 10.0,
        Kind::Hit => 40.0,
    };
    let window = if opts.quick {
        opts.seconds.min(1.0)
    } else {
        opts.seconds
    };

    // Set-up: spawn to first healthy answer, several times before the
    // run (the last server serves it) and as many after, so one slow
    // moment of the host cannot cover every sample.
    let mut setups = Vec::new();
    let mut spawn = |out: &mut Outcome| {
        let t = Instant::now();
        let s = Server::start();
        setups.push(t.elapsed().as_secs_f64());
        s.map_err(|e| out.check(false, || e)).ok()
    };
    let mut server = None;
    for _ in 0..SPAWNS {
        drop(server.take());
        server = spawn(&mut out);
        if server.is_none() {
            return out;
        }
    }
    let server = server.expect("started above");

    // Cold: a new key per request, tenants in turn. Hit: requests drawn
    // from the warm keys, each always asked by the tenant that owns it.
    let arrivals = schedule(opts.seed, rate, window);
    let mut rng = Rng::derive(opts.seed, 13);
    let keys = match kind {
        Kind::Cold => Key::pool(opts.seed, arrivals.len(), false),
        Kind::Hit => Key::pool(opts.seed, HIT_KEYS, true),
    };
    let client = Client {
        addr: server.addr,
        bodies: keys.iter().map(Key::body).collect(),
    };
    let warm: Vec<Vec<u8>> = match kind {
        Kind::Cold => Vec::new(),
        Kind::Hit => {
            let all: Vec<(usize, usize)> = (0..keys.len()).map(|k| (k, k % TENANTS)).collect();
            client
                .settle(&all, &mut out)
                .into_iter()
                .map(|r| r.report)
                .collect()
        }
    };
    let origin = Instant::now() + Duration::from_millis(20);
    let mut open: Vec<Req> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let key = match kind {
                Kind::Cold => i,
                Kind::Hit => rng.below(HIT_KEYS),
            };
            new_req(origin + at, key, key % TENANTS)
        })
        .collect();
    client.open_loop(&mut open, &mut out);
    let served = client.metrics();
    check_answers(&mut out, kind, &client, &open, &warm, &mut rng);

    if !opts.trace {
        let peak = server.peak_rss_mb().unwrap_or(0.0);
        drop(server);
        for _ in 0..SPAWNS {
            drop(spawn(&mut out));
        }
        out.set_summary("setup_s", median(&setups), Summary::of(&setups));
        let done: Vec<&Req> = open.iter().filter(|r| r.done.is_some()).collect();
        let ms: Vec<f64> = done
            .iter()
            .filter_map(|r| r.latency())
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let spread = Summary::of(&ms);
        out.set_summary("op_p50_ms", median(&ms), spread);
        out.set_summary("op_p90_ms", quantile(&ms, 0.9), spread);
        let end = done.iter().filter_map(|r| r.done).max().unwrap_or(origin);
        out.set(
            "ops_per_s",
            done.len() as f64 / (end - origin).as_secs_f64(),
        );
        out.set("peak_rss_mb", peak);
        return out;
    }
    drop(server);
    let mut tr = Tracer::new(true);
    layer_metrics(
        &mut out,
        &mut tr,
        kind,
        &keys,
        &client,
        &open,
        served.as_ref(),
        &mut rng,
        window,
    );
    crate::write_trace(opts, &tr, &mut out);
    out
}

/// Every request answered, the right cache behaviour, byte-identical
/// reports for a key however it was served, and a generator that kept
/// to its schedule.
fn check_answers(
    out: &mut Outcome,
    kind: Kind,
    client: &Client,
    open: &[Req],
    warm: &[Vec<u8>],
    rng: &mut Rng,
) {
    for (i, r) in open.iter().enumerate() {
        out.check(r.done.is_some(), || format!("request {i} never completed"));
        if r.done.is_none() {
            continue;
        }
        match kind {
            Kind::Cold => out.check(!r.cached, || {
                format!("request {i}: a new key was served from cache")
            }),
            Kind::Hit => {
                out.check(r.cached, || {
                    format!("request {i}: a warm key missed the cache")
                });
                out.check(Some(&r.report) == warm.get(r.key), || {
                    format!("request {i}: cached report.json differs from the computed one")
                });
            }
        }
    }
    if kind == Kind::Cold {
        let done: Vec<&Req> = open.iter().filter(|r| r.done.is_some()).collect();
        let picks = sample(rng, done.len(), IDENTITY_KEYS);
        let keys: Vec<(usize, usize)> = picks
            .iter()
            .map(|&i| (done[i].key, done[i].tenant))
            .collect();
        for (&i, again) in picks.iter().zip(client.settle(&keys, out)) {
            out.check(again.report == done[i].report, || {
                format!(
                    "key {}: report.json differs between cold and repeated fetch",
                    done[i].key
                )
            });
        }
    }
    let late_ms: Vec<f64> = open.iter().map(|r| r.late.as_secs_f64() * 1e3).collect();
    let p99 = quantile(&late_ms, 0.99);
    out.note(format!(
        "generator lateness p50 {:.3} ms, p99 {p99:.3} ms, max {:.3} ms (n={})",
        median(&late_ms),
        quantile(&late_ms, 1.0),
        late_ms.len()
    ));
    // A p99 needs a hundred samples to mean anything.
    if late_ms.len() >= 100 {
        out.check(p99 <= MAX_LATE_P99_MS, || {
            format!("the generator ran late: p99 {p99:.2} ms > {MAX_LATE_P99_MS} ms")
        });
    }
}

/// The traced run's metrics: the client's phases of each request, the
/// server's cache counters, and the in-process replay of its keys.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    tr: &mut Tracer,
    kind: Kind,
    keys: &[Key],
    client: &Client,
    open: &[Req],
    served: Option<&Value>,
    rng: &mut Rng,
    window: f64,
) {
    let done: Vec<&Req> = open.iter().filter(|r| r.done.is_some()).collect();
    for (i, r) in open.iter().enumerate() {
        let Some(end) = r.done else { continue };
        let req = Some(i as u64);
        let parent = tr.record(
            "serve.request",
            r.due,
            end,
            None,
            req,
            r.wait().as_nanos() as u64,
        );
        let submit_at = r.due + r.late;
        tr.record(
            "serve.gen_late",
            r.due,
            submit_at,
            Some(parent),
            req,
            r.late.as_nanos() as u64,
        );
        tr.record(
            "serve.submit",
            submit_at,
            submit_at + r.submit,
            Some(parent),
            req,
            r.submit.as_nanos() as u64,
        );
        tr.record(
            "serve.fetch",
            end - r.fetch,
            end,
            Some(parent),
            req,
            r.fetch.as_nanos() as u64,
        );
    }
    let total: f64 = done
        .iter()
        .filter_map(|r| r.latency())
        .map(|d| d.as_secs_f64())
        .sum();
    let share =
        |f: fn(&Req) -> Duration| done.iter().map(|r| f(r).as_secs_f64()).sum::<f64>() / total;
    out.set("serve.gen_late_share", share(|r| r.late));
    out.set("serve.submit_share", share(|r| r.submit));
    out.set("serve.poll_share", share(|r| r.polls));
    out.set("serve.fetch_share", share(|r| r.fetch));
    out.set("serve.wait_share", share(Req::wait));
    // Cache pressure: the artifact sets of the distinct keys answered.
    let mut seen = BTreeSet::new();
    let bytes: u64 = done
        .iter()
        .filter(|r| seen.insert(r.key))
        .map(|r| r.artifact_bytes)
        .sum();
    out.set("serve.artifact_bytes", bytes as f64);
    match served.and_then(|m| m.get("cache")) {
        Some(m) => {
            let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            out.set("serve.cache_hits", num("hits"));
            out.set("serve.cache_misses", num("misses"));
            out.set("serve.cache_evictions", num("evictions"));
            out.set("serve.hit_ratio", num("hit_ratio"));
        }
        None => out.check(false, || "GET /v1/metrics failed".into()),
    }

    // Replay a seeded sample of the cold keys, or every warm key.
    let replay: Vec<&Req> = match kind {
        Kind::Cold => sample(rng, done.len(), REPLAY_KEYS)
            .into_iter()
            .map(|i| done[i])
            .collect(),
        Kind::Hit => (0..keys.len())
            .filter_map(|k| done.iter().find(|r| r.key == k).copied())
            .collect(),
    };
    let mut replayed = Vec::new();
    for r in replay {
        match replay_key(tr, &keys[r.key], &client.bodies[r.key], &r.report) {
            Ok(rep) => replayed.push((r, rep)),
            Err(e) => out.check(false, || format!("replay of key {}: {e}", r.key)),
        }
    }
    let mut counters = EngineCounters::default();
    for (_, rep) in &replayed {
        layers::add_counters(&mut counters, &rep.counters);
    }
    let sum = |f: fn(&Replayed) -> u64| replayed.iter().map(|(_, rep)| f(rep)).sum::<u64>() as f64;
    layers::engine_counters(out, &counters);
    out.set("wms.callbacks", counters.completions as f64);
    out.set("scheduler.admission_passes", sum(|r| r.admission_passes));
    out.set("scheduler.export_bytes", sum(|r| r.export_bytes as u64));
    layers::unit_costs(out, tr, counters.events, counters.completions);
    layers::shares(out, tr, &["op.replay"], 0.0);
    let isolated_s: f64 = replayed
        .iter()
        .map(|(_, rep)| rep.isolated.as_secs_f64())
        .sum();
    out.set(
        "trace.overhead",
        tr.total_ns("op.replay") as f64 / 1e9 / isolated_s - 1.0,
    );
    // Queueing: how much longer a replayed request waited in the open
    // loop than its run takes alone.
    let queued: f64 = replayed
        .iter()
        .map(|(r, rep)| r.wait().saturating_sub(rep.isolated).as_secs_f64())
        .sum();
    let latency: f64 = replayed
        .iter()
        .filter_map(|(r, _)| r.latency())
        .map(|d| d.as_secs_f64())
        .sum();
    out.set(
        "serve.queue_share",
        if latency > 0.0 { queued / latency } else { 0.0 },
    );
    // Offered work per worker: the mean isolated run of a computed key,
    // times the keys the open loop computed, over the two workers.
    let computed = match kind {
        Kind::Cold => done.len(),
        Kind::Hit => 0,
    };
    let mean = if replayed.is_empty() {
        0.0
    } else {
        isolated_s / replayed.len() as f64
    };
    out.set("serve.worker_load", mean * computed as f64 / (2.0 * window));
}

/// `k` distinct indices below `n`, seeded.
fn sample(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

struct Replayed {
    isolated: Duration,
    counters: EngineCounters,
    admission_passes: u64,
    export_bytes: usize,
}

/// Replays one key in process: the worker's `run_request`, timed alone,
/// must return the bytes the service served; the traced public-API path
/// must reproduce them (campaigns) or the makespan (simulations).
fn replay_key(tr: &mut Tracer, key: &Key, body: &str, served: &[u8]) -> Result<Replayed, String> {
    let request = wfbb_serve::JobRequest::parse(body.as_bytes()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let artifacts = wfbb_serve::run_request(
        &request,
        &AtomicBool::new(false),
        &Mutex::new(Default::default()),
    )
    .map_err(|e| e.to_string())?;
    let isolated = t.elapsed();
    if artifacts.get("report.json") != Some(served) {
        return Err("in-process report.json differs from the served one".into());
    }
    tr.open("op.replay");
    let result = match key {
        Key::Campaign { seed } => replay_campaign(tr, *seed, served),
        Key::Simulate {
            workflow,
            platform,
            nodes,
            fraction,
        } => replay_simulation(tr, workflow, platform, *nodes, *fraction, served),
    };
    tr.close();
    result.map(|(counters, admission_passes, export_bytes)| Replayed {
        isolated,
        counters,
        admission_passes,
        export_bytes,
    })
}

fn replay_campaign(
    tr: &mut Tracer,
    seed: u64,
    served: &[u8],
) -> Result<(EngineCounters, u64, usize), String> {
    let jobs = synthetic_jobs(
        seed,
        &SyntheticConfig {
            jobs: 8,
            max_nodes: 2,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let config = CampaignConfig::new(parse_platform("cori:striped", 8)?)
        .with_policy(BatchPolicy::BbAware)
        .with_platform_label("cori:striped")
        .with_decision_log(true);
    let sim = campaign::new_sim(tr, &config, &jobs)?;
    let d = campaign::drive(tr, sim, false, campaign::Exports::Service, u64::MAX)?;
    if d.report_json.as_bytes() != served {
        return Err("traced campaign's report.json differs from the served one".into());
    }
    Ok((d.counters, d.profile.admission_passes, d.export_bytes))
}

fn replay_simulation(
    tr: &mut Tracer,
    workflow: &str,
    label: &str,
    nodes: usize,
    fraction: f64,
    served: &[u8],
) -> Result<(EngineCounters, u64, usize), String> {
    let p = sweep::Prepared {
        key: workflow.to_string(),
        platform: parse_platform(label, nodes)?,
        workflow: build_workflow(workflow).map_err(|e| e.to_string())?,
        placement: PlacementPolicy::FractionToBb { fraction },
        checkpoint: None,
        faults: FaultSpec::new(),
        failover: FailoverPolicy::default(),
    };
    let d = sweep::drive(tr, &p, true)?;
    tr.open_hot("wms.report");
    let exported = d.report.explain(5).to_json().len()
        + d.report.perfetto_trace_json().len()
        + d.report.jsonl_trace().len();
    tr.close();
    let makespan = json(served)
        .and_then(|v| v.get("makespan").and_then(Value::as_f64))
        .ok_or("served report.json has no makespan")?;
    if makespan.to_bits() != d.report.makespan.seconds().to_bits() {
        return Err(format!(
            "traced makespan {} differs from the served {makespan}",
            d.report.makespan.seconds()
        ));
    }
    Ok((d.counters, 0, exported))
}
