//! End-to-end tests of the simulation service (`wfbb-serve`): the
//! determinism contract *through HTTP* (service campaign bytes ==
//! library campaign bytes), result-cache soundness (same request twice
//! → identical bytes, counted as a hit; any perturbation → a different
//! key), simulate traces rendered on first fetch with the library's
//! bytes, the typed quota errors (`429`/`413`/`504`), and the
//! `/v1/metrics` schema.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use wfbb::platform::{presets, BbMode};
use wfbb::sched::{
    build_workflow, run_campaign_logged, synthetic_jobs, BatchPolicy, CampaignConfig,
    SyntheticConfig,
};
use wfbb::serve::{JobRequest, QuotaLedger, ServeConfig, Server, ServerHandle, TenantQuota};
use wfbb::storage::PlacementPolicy;
use wfbb::wms::{SchedulerPolicy, SimulationBuilder, TelemetryConfig};

// The CI smoke campaign: `wfbb campaign --platform cori:striped --nodes 8
// --policy bb-aware --jobs 8 --seed 7 --max-nodes 2`.
const SMOKE_BODY: &str = r#"{"type":"campaign","platform":"cori:striped","nodes":8,
    "policy":"bb-aware","workload":{"type":"synthetic","seed":7,"jobs":8,"max_nodes":2}}"#;

// ---- a minimal HTTP/1.1 client (Connection: close lets us read to EOF) --

struct HttpResponse {
    status: u16,
    body: Vec<u8>,
}

fn http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> HttpResponse {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = std::str::from_utf8(&raw[..split]).expect("ascii head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let chunked = lines
        .filter_map(|l| l.split_once(':'))
        .any(|(n, v)| n.eq_ignore_ascii_case("transfer-encoding") && v.trim() == "chunked");
    let payload = &raw[split + 4..];
    let body = if chunked {
        dechunk(payload)
    } else {
        payload.to_vec()
    };
    HttpResponse { status, body }
}

fn dechunk(mut payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = payload
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&payload[..line_end]).expect("ascii size"),
            16,
        )
        .expect("hex chunk size");
        payload = &payload[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
}

fn json_str(v: &serde_json::Value, key: &str) -> String {
    v.get(key)
        .and_then(|s| s.as_str())
        .unwrap_or_default()
        .to_string()
}

fn submit(addr: std::net::SocketAddr, tenant: &str, body: &str) -> (u16, serde_json::Value) {
    let r = http(
        addr,
        "POST",
        "/v1/jobs",
        &[("X-Tenant", tenant)],
        body.as_bytes(),
    );
    let v =
        serde_json::from_str(std::str::from_utf8(&r.body).expect("utf8 body")).expect("json body");
    (r.status, v)
}

/// Polls `/v1/jobs/<id>` until the job leaves queued/running (or the
/// deadline passes), returning the last (status, body) pair.
fn await_done(addr: std::net::SocketAddr, id: u64) -> (u16, serde_json::Value) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&r.body).expect("utf8")).expect("json");
        let state = if r.status == 504 {
            json_str(v.get("job").expect("504 carries the job"), "state")
        } else {
            json_str(&v, "state")
        };
        if state != "queued" && state != "running" {
            return (r.status, v);
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port")
    .start()
}

// ---- determinism through the service ------------------------------------

#[test]
fn http_campaign_bytes_match_the_library_run_and_repeat_hits_the_cache() {
    let server = start(ServeConfig::default());
    let addr = server.addr;

    let (status, job) = submit(addr, "alice", SMOKE_BODY);
    assert_eq!(status, 202, "first submission queues a real run");
    let id = job.get("id").unwrap().as_u64().unwrap();
    let (status, done) = await_done(addr, id);
    assert_eq!(status, 200);
    assert_eq!(json_str(&done, "state"), "done");
    assert_eq!(done.get("cached").unwrap().as_bool(), Some(false));

    let report = http(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/report.json"),
        &[],
        b"",
    );
    assert_eq!(report.status, 200);

    // The exact construction the CLI `campaign` subcommand performs for
    // the smoke flags — the service must be byte-identical to it.
    let jobs = synthetic_jobs(
        7,
        &SyntheticConfig {
            jobs: 8,
            max_nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let config = CampaignConfig::new(presets::cori(8, BbMode::Striped))
        .with_policy(BatchPolicy::BbAware)
        .with_platform_label("cori:striped")
        .with_decision_log(true);
    let expected = run_campaign_logged(&config, &jobs).unwrap();
    assert_eq!(
        report.body,
        expected.report.to_json().into_bytes(),
        "service report.json must be byte-identical to the library run"
    );
    let csv = http(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/jobs.csv"),
        &[],
        b"",
    );
    assert_eq!(csv.body, expected.report.jobs_csv().into_bytes());
    let decisions = http(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/decisions.jsonl"),
        &[],
        b"",
    );
    assert_eq!(decisions.body, expected.log.to_jsonl().into_bytes());

    // Same request again: answered from the cache, same bytes, counted.
    let (status, repeat) = submit(addr, "alice", SMOKE_BODY);
    assert_eq!(status, 200, "cache hits answer immediately");
    assert_eq!(repeat.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(json_str(&repeat, "state"), "done");
    assert_eq!(
        json_str(&repeat, "input_hash"),
        json_str(&done, "input_hash"),
        "identical requests share one canonical input hash"
    );
    let id2 = repeat.get("id").unwrap().as_u64().unwrap();
    let report2 = http(
        addr,
        "GET",
        &format!("/v1/jobs/{id2}/artifacts/report.json"),
        &[],
        b"",
    );
    assert_eq!(
        report2.body, report.body,
        "cached bytes are the original bytes"
    );

    let metrics = http(addr, "GET", "/v1/metrics", &[], b"");
    let m: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    assert_eq!(
        m.get("jobs").unwrap().get("from_cache").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(
        m.get("cache").unwrap().get("hits").unwrap().as_u64(),
        Some(1)
    );

    // A perturbed request (different seed) is a different key: a miss.
    let perturbed = SMOKE_BODY.replace("\"seed\":7", "\"seed\":8");
    let (status, other) = submit(addr, "alice", &perturbed);
    assert_eq!(status, 202, "perturbed request re-simulates");
    assert_ne!(
        json_str(&other, "input_hash"),
        json_str(&done, "input_hash")
    );
    let other_id = other.get("id").unwrap().as_u64().unwrap();
    let (_, other_done) = await_done(addr, other_id);
    assert_eq!(json_str(&other_done, "state"), "done");

    server.stop();
}

/// `(name, bytes)` of a job document's artifact list; `bytes` is `None`
/// for a deferred artifact not rendered yet (`"bytes": null`).
fn artifact_sizes(job: &serde_json::Value) -> Vec<(String, Option<u64>)> {
    job.get("artifacts")
        .and_then(|a| a.as_array())
        .expect("artifact list")
        .iter()
        .map(|a| {
            let bytes = a.get("bytes").expect("bytes key");
            assert!(
                *bytes == serde_json::Value::Null || bytes.as_u64().is_some(),
                "{a:?}"
            );
            (json_str(a, "name"), bytes.as_u64())
        })
        .collect()
}

#[test]
fn simulate_traces_render_on_first_fetch_byte_identical_to_the_library() {
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let body = r#"{"type":"simulate","workflow":"swarp:1:8","platform":"cori:striped",
        "nodes":1,"placement":"fraction:0.5"}"#;
    let (status, job) = submit(addr, "carol", body);
    assert_eq!(status, 202);
    let id = job.get("id").unwrap().as_u64().unwrap();
    let (status, done) = await_done(addr, id);
    assert_eq!(status, 200);
    assert_eq!(json_str(&done, "state"), "done");
    let sizes = artifact_sizes(&done);
    let names: Vec<&str> = sizes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["report.json", "explain.json", "trace.json", "trace.jsonl"]
    );
    assert!(sizes[0].1.is_some(), "report.json is rendered with the run");
    assert_eq!(
        sizes[1..].iter().map(|(_, b)| *b).collect::<Vec<_>>(),
        [None, None, None],
        "traces and the explanation are not rendered before a fetch"
    );

    // The library run the service performs for this request.
    let report = SimulationBuilder::new(
        presets::cori(1, BbMode::Striped),
        build_workflow("swarp:1:8").unwrap(),
    )
    .placement(PlacementPolicy::parse("fraction:0.5").unwrap())
    .scheduler(SchedulerPolicy::parse("affinity").unwrap())
    .telemetry(TelemetryConfig::enabled())
    .run()
    .unwrap();
    let expected = [
        ("explain.json", report.explain(5).to_json()),
        ("trace.json", report.perfetto_trace_json()),
        ("trace.jsonl", report.jsonl_trace()),
    ];
    for (i, (name, bytes)) in expected.iter().enumerate() {
        let fetched = http(
            addr,
            "GET",
            &format!("/v1/jobs/{id}/artifacts/{name}"),
            &[],
            b"",
        );
        assert_eq!(fetched.status, 200, "{name}");
        assert!(
            fetched.body == bytes.as_bytes(),
            "{name} differs from the library run"
        );
        let doc = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
        let doc: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&doc.body).unwrap()).unwrap();
        let sizes = artifact_sizes(&doc);
        assert_eq!(sizes[i + 1].1, Some(bytes.len() as u64), "{name}");
        for (later, size) in &sizes[i + 2..] {
            assert_eq!(*size, None, "{later} renders only when fetched");
        }
    }

    // A resubmission is served from the cache with the same bytes.
    let (status, repeat) = submit(addr, "carol", body);
    assert_eq!(status, 200);
    assert_eq!(repeat.get("cached").unwrap().as_bool(), Some(true));
    let id2 = repeat.get("id").unwrap().as_u64().unwrap();
    for (name, bytes) in &expected {
        let fetched = http(
            addr,
            "GET",
            &format!("/v1/jobs/{id2}/artifacts/{name}"),
            &[],
            b"",
        );
        assert!(fetched.body == bytes.as_bytes(), "cached {name}");
    }
    server.stop();
}

#[test]
fn progress_stream_ends_with_the_job_document() {
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let (status, job) = submit(addr, "bob", SMOKE_BODY);
    assert_eq!(status, 202);
    let id = job.get("id").unwrap().as_u64().unwrap();
    let events = http(addr, "GET", &format!("/v1/jobs/{id}/events"), &[], b"");
    assert_eq!(events.status, 200);
    let text = String::from_utf8(events.body).expect("utf8 stream");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines[..lines.len() - 1] {
        let v: serde_json::Value = serde_json::from_str(line).expect("heartbeat json");
        assert_eq!(json_str(&v, "type"), "heartbeat");
    }
    let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
    assert_eq!(json_str(&last, "type"), "end");
    assert_eq!(json_str(last.get("job").unwrap(), "state"), "done");
    server.stop();
}

// ---- job retention (the jobs table stays bounded) -----------------------

#[test]
fn terminal_jobs_are_evicted_after_the_retention_ttl() {
    let server = start(ServeConfig {
        job_ttl: Duration::from_millis(100),
        ..Default::default()
    });
    let addr = server.addr;
    let (status, job) = submit(addr, "gail", SMOKE_BODY);
    assert_eq!(status, 202);
    let id = job.get("id").unwrap().as_u64().unwrap();
    let (status, _) = await_done(addr, id);
    assert_eq!(status, 200);

    // The reaper evicts the terminal entry once the TTL elapses...
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http(addr, "GET", &format!("/v1/jobs/{id}"), &[], b"").status == 404 {
            break;
        }
        assert!(Instant::now() < deadline, "job {id} was never evicted");
        std::thread::sleep(Duration::from_millis(25));
    }
    let m: serde_json::Value = serde_json::from_str(
        std::str::from_utf8(&http(addr, "GET", "/v1/metrics", &[], b"").body).unwrap(),
    )
    .unwrap();
    assert!(m.get("jobs").unwrap().get("evicted").unwrap().as_u64() >= Some(1));

    // ...but the result cache is independent of job retention: the
    // same request is still answered from cache.
    let (status, repeat) = submit(addr, "gail", SMOKE_BODY);
    assert_eq!(status, 200, "cache survives job eviction");
    assert_eq!(repeat.get("cached").unwrap().as_bool(), Some(true));
    server.stop();
}

#[test]
fn terminal_job_count_is_capped_dropping_the_oldest_first() {
    let server = start(ServeConfig {
        max_jobs: 1,
        ..Default::default()
    });
    let addr = server.addr;
    let (_, first) = submit(addr, "hank", SMOKE_BODY);
    let first_id = first.get("id").unwrap().as_u64().unwrap();
    await_done(addr, first_id);
    let perturbed = SMOKE_BODY.replace("\"seed\":7", "\"seed\":9");
    let (_, second) = submit(addr, "hank", &perturbed);
    let second_id = second.get("id").unwrap().as_u64().unwrap();
    await_done(addr, second_id);

    // Two terminal entries over a cap of one: the reaper drops the
    // oldest; the newest stays fetchable.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http(addr, "GET", &format!("/v1/jobs/{first_id}"), &[], b"").status == 404 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "oldest terminal job was never evicted"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let r = http(addr, "GET", &format!("/v1/jobs/{second_id}"), &[], b"");
    assert_eq!(r.status, 200, "the newest terminal job is retained");
    server.stop();
}

// ---- cache-key sensitivity ----------------------------------------------

#[test]
fn every_field_perturbation_changes_the_cache_key() {
    let base = JobRequest::parse(SMOKE_BODY.as_bytes()).unwrap();
    // Explicit defaults hash the same as implicit ones.
    let explicit = JobRequest::parse(
        SMOKE_BODY
            .replace(
                "\"max_nodes\":2}",
                "\"max_nodes\":2,\"mean_interarrival\":30.0,\"bb_request_scale\":1.0}",
            )
            .as_bytes(),
    )
    .unwrap();
    assert_eq!(base.cache_key(), explicit.cache_key());

    for (from, to) in [
        ("\"seed\":7", "\"seed\":8"),
        ("\"policy\":\"bb-aware\"", "\"policy\":\"fcfs\""),
        ("\"jobs\":8", "\"jobs\":9"),
        ("\"nodes\":8", "\"nodes\":4"),
        (
            "\"platform\":\"cori:striped\"",
            "\"platform\":\"cori:private\"",
        ),
        (
            "\"max_nodes\":2}",
            "\"max_nodes\":2,\"bb_request_scale\":0.5}",
        ),
    ] {
        let perturbed = JobRequest::parse(SMOKE_BODY.replace(from, to).as_bytes()).unwrap();
        assert_ne!(
            base.cache_key(),
            perturbed.cache_key(),
            "{from} -> {to} must change the key"
        );
    }
}

// ---- typed quota errors -------------------------------------------------

#[test]
fn in_flight_quota_returns_a_typed_429() {
    let server = start(ServeConfig {
        workers: 1,
        quota: TenantQuota {
            max_in_flight: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.addr;
    // A long campaign holds carol's only slot...
    let long = SMOKE_BODY.replace("\"jobs\":8", "\"jobs\":60");
    let (status, first) = submit(addr, "carol", &long);
    assert_eq!(status, 202);
    // ...so her second submission is refused with the typed error...
    let (status, refused) = submit(addr, "carol", SMOKE_BODY);
    assert_eq!(status, 429);
    let error = refused.get("error").expect("typed error body");
    assert_eq!(json_str(error, "code"), "quota_in_flight");
    assert_eq!(error.get("status").unwrap().as_u64(), Some(429));
    // ...while another tenant is unaffected.
    let (status, _) = submit(addr, "dave", SMOKE_BODY);
    assert_eq!(status, 202);
    let id = first.get("id").unwrap().as_u64().unwrap();
    let (_, done) = await_done(addr, id);
    assert_eq!(json_str(&done, "state"), "done");
    server.stop();
}

#[test]
fn oversized_bodies_get_a_typed_413_before_the_body_is_read() {
    let server = start(ServeConfig {
        quota: TenantQuota {
            max_body_bytes: 64,
            ..Default::default()
        },
        ..Default::default()
    });
    let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(500));
    let r = http(server.addr, "POST", "/v1/jobs", &[], big.as_bytes());
    assert_eq!(r.status, 413);
    let v: serde_json::Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
    assert_eq!(
        json_str(v.get("error").unwrap(), "code"),
        "quota_body_bytes"
    );
    server.stop();
}

#[test]
fn wall_clock_timeout_reaps_the_job_with_a_typed_504_and_frees_the_quota() {
    let server = start(ServeConfig {
        workers: 1,
        quota: TenantQuota {
            max_in_flight: 1,
            timeout_s: 0.1,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.addr;
    let long = SMOKE_BODY.replace("\"jobs\":8", "\"jobs\":400");
    let (status, job) = submit(addr, "erin", &long);
    assert_eq!(status, 202);
    let id = job.get("id").unwrap().as_u64().unwrap();
    let (status, body) = await_done(addr, id);
    assert_eq!(status, 504, "reaped job answers with the typed timeout");
    let error = body.get("error").expect("typed error body");
    assert_eq!(json_str(error, "code"), "timeout");
    assert_eq!(json_str(body.get("job").unwrap(), "state"), "timeout");
    // The reap freed erin's slot: she can submit again immediately.
    let (status, _) = submit(addr, "erin", SMOKE_BODY);
    assert_eq!(status, 202, "quota slot freed by the reap");
    // And the reap shows up in metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m: serde_json::Value = serde_json::from_str(
            std::str::from_utf8(&http(addr, "GET", "/v1/metrics", &[], b"").body).unwrap(),
        )
        .unwrap();
        if m.get("jobs").unwrap().get("timeout").unwrap().as_u64() == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "timeout never surfaced in metrics"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
}

#[test]
fn unknown_routes_and_bad_bodies_get_typed_errors() {
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let r = http(addr, "GET", "/v1/nonsense", &[], b"");
    assert_eq!(r.status, 404);
    let r = http(addr, "POST", "/v1/jobs", &[], b"{\"type\":\"teleport\"}");
    assert_eq!(r.status, 400);
    let r = http(addr, "GET", "/v1/jobs/999", &[], b"");
    assert_eq!(r.status, 404);
    let r = http(addr, "DELETE", "/v1/jobs/1", &[], b"");
    assert_eq!(r.status, 405);
    // Artifacts of an unfinished job: 409 not_ready.
    let (status, job) = submit(addr, "frank", SMOKE_BODY);
    assert_eq!(status, 202);
    let id = job.get("id").unwrap().as_u64().unwrap();
    let r = http(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/report.json"),
        &[],
        b"",
    );
    if r.status != 200 {
        // Unless the tiny campaign already finished, which is fine too.
        assert_eq!(r.status, 409);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(json_str(v.get("error").unwrap(), "code"), "not_ready");
    }
    let (_, done) = await_done(addr, id);
    assert_eq!(json_str(&done, "state"), "done");
    server.stop();
}

/// Sizes that drive allocation are bounded at parse time: an oversized
/// request is a typed 400 naming the field, never an out-of-memory abort
/// of the whole service.
#[test]
fn oversized_sizes_get_a_typed_400_naming_the_field() {
    let server = start(ServeConfig::default());
    for (body, field) in [
        (
            r#"{"type":"campaign","platform":"cori","nodes":4000000000}"#,
            "nodes",
        ),
        (
            r#"{"type":"campaign","platform":"cori","workload":{"type":"synthetic","jobs":4000000000000}}"#,
            "jobs",
        ),
        (
            r#"{"type":"simulate","workflow":"swarp:4000000000","platform":"cori"}"#,
            "pipeline count",
        ),
        (
            r#"{"type":"simulate","workflow":"genomes:4000000000","platform":"cori"}"#,
            "chromosome count",
        ),
    ] {
        let r = http(server.addr, "POST", "/v1/jobs", &[], body.as_bytes());
        assert_eq!(r.status, 400, "{body}");
        let text = std::str::from_utf8(&r.body).unwrap();
        assert!(text.contains(field), "{body}: {text}");
    }
    server.stop();
}

// ---- metrics schema -----------------------------------------------------

#[test]
fn metrics_endpoint_carries_the_documented_schema() {
    let server = start(ServeConfig::default());
    let m: serde_json::Value = serde_json::from_str(
        std::str::from_utf8(&http(server.addr, "GET", "/v1/metrics", &[], b"").body).unwrap(),
    )
    .unwrap();
    assert_eq!(m.get("api_version").unwrap().as_u64(), Some(2));
    let workers = m.get("workers").unwrap();
    for key in ["configured", "busy", "replaced", "utilization"] {
        assert!(workers.get(key).is_some(), "workers.{key} missing");
    }
    assert!(m.get("queue_depth").is_some());
    let jobs = m.get("jobs").unwrap();
    for key in [
        "running",
        "done",
        "failed",
        "timeout",
        "from_cache",
        "evicted",
    ] {
        assert!(jobs.get(key).is_some(), "jobs.{key} missing");
    }
    let cache = m.get("cache").unwrap();
    for key in [
        "entries",
        "bytes",
        "capacity_bytes",
        "hits",
        "misses",
        "insertions",
        "evictions",
        "uncacheable",
        "hit_ratio",
    ] {
        assert!(cache.get(key).is_some(), "cache.{key} missing");
    }
    assert!(m.get("tenants").unwrap().as_array().is_some());
    server.stop();
}

// ---- quota-ledger accounting never goes negative ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random admit/complete/reap/hit traffic across three tenants:
    /// in-flight counts always equal admits minus releases, never go
    /// negative, and every reap frees exactly one slot.
    #[test]
    fn quota_ledger_accounting_is_exact(ops in proptest::collection::vec((0usize..4, 0usize..3), 1..200)) {
        let quota = TenantQuota { max_in_flight: 3, ..Default::default() };
        let tenants = ["a", "b", "c"];
        let mut ledger = QuotaLedger::new();
        let mut model = [0usize; 3];
        for (op, who) in ops {
            let tenant = tenants[who];
            match op {
                0 => match ledger.admit(tenant, &quota) {
                    Ok(()) => {
                        model[who] += 1;
                        prop_assert!(model[who] <= quota.max_in_flight);
                    }
                    Err(_) => prop_assert_eq!(model[who], quota.max_in_flight),
                },
                1 if model[who] > 0 => {
                    ledger.release_completed(tenant);
                    model[who] -= 1;
                }
                2 if model[who] > 0 => {
                    ledger.release_reaped(tenant);
                    model[who] -= 1;
                }
                _ => ledger.record_cache_hit(tenant),
            }
            for (i, tenant) in tenants.iter().enumerate() {
                let usage = ledger.usage(tenant);
                prop_assert_eq!(usage.in_flight, model[i]);
                prop_assert_eq!(
                    usage.admitted,
                    usage.completed + usage.reaped + usage.in_flight as u64
                );
            }
            prop_assert_eq!(ledger.total_in_flight(), model.iter().sum::<usize>());
        }
    }
}
