//! Trace-export contract tests: golden-file pinning of the JSONL schema,
//! Perfetto well-formedness, and the telemetry-is-an-observer property
//! (enabling it never changes simulation results).
//!
//! The golden files under `tests/golden/` pin the exact bytes of the JSONL
//! export for a tiny deterministic workflow, and for a checkpointed run
//! whose faults take every recovery branch of the executor (BB deaths
//! during stage-in, a task write and a checkpoint write, plus a kill that
//! restores from its image). If an intentional schema change breaks them,
//! regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_export
//! ```
//!
//! and bump `TRACE_SCHEMA_VERSION` plus `docs/trace-format.md` when fields
//! were renamed, removed, or changed meaning.

use proptest::prelude::*;
use serde_json::Value;

use wfbb::prelude::*;
use wfbb::wms::FaultEvent;
use wfbb::workloads::patterns;

/// Three tasks (two resamples feeding one combine), fixed sizes: small
/// enough to read the golden file by eye, rich enough to exercise stage
/// spans, all three task phases, and both storage tiers.
fn tiny_workflow() -> Workflow {
    let mut b = WorkflowBuilder::new("tiny3");
    let in0 = b.add_file("in0", 32e6);
    let in1 = b.add_file("in1", 16e6);
    let mid0 = b.add_file("mid0", 24e6);
    let mid1 = b.add_file("mid1", 8e6);
    let out = b.add_file("out", 40e6);
    b.task("resample0")
        .category("resample")
        .flops(3.68e11)
        .cores(4)
        .pipeline(0)
        .input(in0)
        .output(mid0)
        .add();
    b.task("resample1")
        .category("resample")
        .flops(1.84e11)
        .cores(4)
        .pipeline(0)
        .input(in1)
        .output(mid1)
        .add();
    b.task("combine")
        .category("combine")
        .flops(3.68e11)
        .cores(4)
        .pipeline(0)
        .inputs([mid0, mid1])
        .output(out)
        .add();
    b.build().unwrap()
}

fn tiny_report(telemetry: bool) -> SimulationReport {
    let mut builder = SimulationBuilder::new(presets::cori(1, BbMode::Private), tiny_workflow())
        .placement(PlacementPolicy::AllBb);
    if telemetry {
        builder = builder.telemetry(TelemetryConfig::enabled());
    }
    builder.run().unwrap()
}

/// Checkpoint interval of the faulted run, seconds.
const CKPT_INTERVAL: f64 = 10.0;

/// Four independent single-task pipelines on striped Cori with four
/// compute nodes. Every file fits one 4 MB stripe, so compute node `p`
/// stages, writes and checkpoints to BB device `p` alone, and a device
/// death hits exactly one pipeline.
fn faulted_workflow() -> Workflow {
    let speed = presets::cori(1, BbMode::Striped).gflops_per_core * 1e9;
    let mut b = WorkflowBuilder::new("faulted4");
    let files: Vec<_> = (0..4)
        .map(|p| {
            (
                b.add_file(format!("in{p}"), 4e6),
                b.add_file(format!("out{p}"), 4e6),
            )
        })
        .collect();
    for (p, (input, output)) in files.into_iter().enumerate() {
        // 24–30 s of compute on 8 cores: two checkpoints each.
        b.task(format!("work{p}"))
            .category("work")
            .flops((24.0 + 2.0 * p as f64) * 8.0 * speed)
            .cores(8)
            .pipeline(p)
            .input(input)
            .output(output)
            .add();
    }
    b.build().unwrap()
}

fn faulted_report(faults: &[FaultEvent]) -> SimulationReport {
    let mut spec = FaultSpec::new();
    for ev in faults {
        spec.push(ev.clone());
    }
    SimulationBuilder::new(presets::cori(4, BbMode::Striped), faulted_workflow())
        .placement(PlacementPolicy::AllBb)
        .checkpoint(CheckpointPolicy::new(CKPT_INTERVAL, CheckpointTier::Bb))
        .faults(spec)
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: 0.0,
        })
        .telemetry(TelemetryConfig {
            // Keep the golden small: the eviction count still pins how
            // many samples each series took.
            ring_capacity: 2,
            ..TelemetryConfig::enabled()
        })
        .run()
        .unwrap()
}

/// The faulted run's schedule. Each time is read off the run that
/// already carries the earlier faults: a fault changes nothing before
/// it fires, so the targeted access is in flight at that time.
fn fault_schedule() -> Vec<FaultEvent> {
    let mut events = Vec::new();
    // BB device 0 dies while `in0` is staged to it.
    let run = faulted_report(&events);
    let span = run.stage_spans.iter().find(|s| s.file == "in0").unwrap();
    events.push(FaultEvent::BbNodeDown {
        time: 0.5 * (span.start.seconds() + span.end.seconds()),
        device: 0,
    });
    // Device 2 dies during work2's first checkpoint write, which starts
    // one interval after its read phase ends.
    let run = faulted_report(&events);
    let t = run.task_by_name("work2").unwrap();
    events.push(FaultEvent::BbNodeDown {
        time: t.read_end.seconds() + CKPT_INTERVAL + 0.1,
        device: 2,
    });
    // work3 is killed halfway through its second compute segment, after
    // its first image landed on device 3.
    let run = faulted_report(&events);
    let t = run.task_by_name("work3").unwrap();
    events.push(FaultEvent::TaskKill {
        time: t.read_end.seconds() + 1.5 * CKPT_INTERVAL,
        task: "work3".into(),
    });
    // Device 1 dies 2 ms before work1's output write to it ends: inside
    // the 5 ms data transfer, after the metadata phase.
    let run = faulted_report(&events);
    let span = run.output_spans.iter().find(|s| s.file == "out1").unwrap();
    events.push(FaultEvent::BbNodeDown {
        time: span.end.seconds() - 0.002,
        device: 1,
    });
    events
}

/// The checkpointed, faulted run pinned by the second golden file, after
/// checking that it takes every recovery branch it is meant to pin.
fn faulted_golden_report() -> SimulationReport {
    let report = faulted_report(&fault_schedule());
    let bb_down = |device: usize| {
        report
            .faults
            .iter()
            .find(|f| f.kind == "bb-down" && f.target == format!("bb:{device}"))
            .unwrap_or_else(|| panic!("no bb-down record for device {device}"))
    };
    let covers = |s: &StageSpan, time: f64| s.start.seconds() <= time && time <= s.end.seconds();

    // Device 0 died mid-stage-in: the copy was cancelled and restarted,
    // landing on the PFS.
    let f = bb_down(0);
    assert!(f.cancelled_flows > 0, "stage-in flows were in flight");
    assert!(f.time < report.stage_in_time);
    let span = report.stage_spans.iter().find(|s| s.file == "in0").unwrap();
    assert!(covers(span, f.time));
    assert_eq!(span.location, "pfs", "the restarted stage-in fails over");

    // Device 1 died mid-write: the partly moved data was lost and the
    // write was reissued to the PFS.
    let f = bb_down(1);
    assert!(f.cancelled_flows > 0, "the output write was in flight");
    assert!(f.lost_bytes > 0.0, "the write's data flow was cancelled");
    let span = report
        .output_spans
        .iter()
        .find(|s| s.file == "out1")
        .unwrap();
    assert!(covers(span, f.time));
    assert_eq!(span.location, "pfs", "the reissued write fails over");

    // Device 2 died inside work2's compute window while no stage-in,
    // read or output write was running. Compute flows never cross a BB
    // device, so the cancelled flows were its checkpoint write.
    let f = bb_down(2);
    assert!(f.cancelled_flows > 0, "the checkpoint write was in flight");
    let t = report.task_by_name("work2").unwrap();
    assert!(t.read_end.seconds() < f.time && f.time < t.compute_end.seconds());
    assert!(!report
        .stage_spans
        .iter()
        .chain(&report.output_spans)
        .any(|s| covers(s, f.time)));
    // (A retried task's record spans all its attempts; work3's kill
    // comes after this fault, so its first read phase ended before it.)
    assert!(report
        .tasks
        .iter()
        .filter(|t| t.attempts == 1)
        .all(|t| f.time < t.start.seconds() || t.read_end.seconds() < f.time));
    let kill = report
        .faults
        .iter()
        .find(|f| f.kind == "task-kill")
        .unwrap();
    assert!(f.time < kill.time);

    // work3 was killed once and its retry restored from the image.
    assert!(report
        .faults
        .iter()
        .any(|f| f.kind == "task-kill" && f.target == "work3" && f.cancelled_flows > 0));
    assert_eq!(report.task_by_name("work3").unwrap().attempts, 2);
    assert!(report.restores >= 1, "the retry restores from its image");
    assert!(report.checkpoints > 0);
    report
}

/// Compares `trace` with the golden file `name` under `tests/golden/`,
/// rewriting the file first when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, trace: &str) {
    let golden = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(&golden).parent().unwrap()).unwrap();
        std::fs::write(&golden, trace).unwrap();
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden file missing; run UPDATE_GOLDEN=1 cargo test --test trace_export");
    assert_eq!(
        trace, expected,
        "JSONL trace drifted from the golden file {name}; if the schema \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and update \
         docs/trace-format.md (bumping TRACE_SCHEMA_VERSION on breaking \
         changes)"
    );
}

#[test]
fn jsonl_matches_golden_file() {
    assert_matches_golden("tiny_trace.jsonl", &tiny_report(true).jsonl_trace());
    assert_matches_golden(
        "faulted_checkpoint_trace.jsonl",
        &faulted_golden_report().jsonl_trace(),
    );
}

#[test]
fn jsonl_lines_all_parse_and_cover_schema() {
    let report = tiny_report(true);
    let trace = report.jsonl_trace();
    let mut types = std::collections::BTreeSet::new();
    for (i, line) in trace.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("line {} lacks a type tag", i + 1));
        types.insert(ty.to_string());
    }
    // The full schema-2 vocabulary appears in a telemetry-on run.
    for expected in [
        "header",
        "stage",
        "stage_out",
        "task",
        "resource",
        "resource_sample",
        "counter",
        "summary",
    ] {
        assert!(types.contains(expected), "no {expected:?} line in trace");
    }
    // Contention lines mirror the report's blamed-resource table exactly.
    assert_eq!(
        types.contains("contention"),
        !report.contention.is_empty(),
        "contention lines must appear iff resources accrued blame"
    );
    // Header declares the documented schema version.
    let header: Value = serde_json::from_str(trace.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("version").and_then(Value::as_u64),
        Some(TRACE_SCHEMA_VERSION as u64)
    );
    assert_eq!(
        header.get("schema").and_then(Value::as_str),
        Some("wfbb-trace")
    );
}

// ---- Perfetto well-formedness -------------------------------------------

#[test]
fn perfetto_trace_is_well_formed() {
    let report = tiny_report(true);
    let trace = report.perfetto_trace_json();
    let v: Value = serde_json::from_str(&trace).expect("Perfetto trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let nodes = report.nodes as u64;
    let mut last_ts = f64::NEG_INFINITY;
    let mut seen_non_meta = false;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
        let pid = e.get("pid").and_then(Value::as_u64).expect("pid field");
        // pid scheme: 0..nodes-1 compute nodes, nodes = stage-in,
        // nodes + 1 = engine counters, nodes + 2 = stage-out.
        assert!(pid <= nodes + 2, "pid {pid} outside the documented scheme");
        match ph {
            "M" => {
                assert!(!seen_non_meta, "metadata events must precede timed events");
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" | "C" | "i" => {
                seen_non_meta = true;
                let ts = e.get("ts").and_then(Value::as_f64).expect("ts field");
                assert!(ts >= 0.0);
                assert!(ts >= last_ts, "events not sorted: {ts} after {last_ts}");
                last_ts = ts;
                if ph == "X" {
                    let dur = e.get("dur").and_then(Value::as_f64).expect("dur field");
                    assert!(dur >= 0.0);
                    // Task phases live on compute-node pids with the task
                    // index as tid; stage spans on the stage-in pid;
                    // output-write spans on the stage-out pid.
                    let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
                    if cat == "stage" {
                        assert_eq!(pid, nodes);
                    } else if cat == "stage_out" {
                        assert_eq!(pid, nodes + 2);
                    } else {
                        assert!(pid < nodes);
                        let tid = e.get("tid").and_then(Value::as_u64).expect("tid");
                        assert!((tid as usize) < report.tasks.len());
                        // Schema v2: every task phase event carries the
                        // task's makespan-decomposition attribution args.
                        let args = e.get("args").expect("task phase args");
                        for key in ["pure_compute", "serialized_io", "contention_wait"] {
                            assert!(
                                args.get(key).and_then(Value::as_f64).is_some(),
                                "task phase event lacks {key:?} arg"
                            );
                        }
                    }
                }
                if ph == "C" {
                    assert_eq!(pid, nodes + 1, "counter tracks live on the engine pid");
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(seen_non_meta, "trace contains timed events");
    // Every X/C event's pid has a process_name metadata record.
    let named_pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .map(|e| e.get("pid").and_then(Value::as_u64).unwrap())
        .collect();
    for e in events {
        let pid = e.get("pid").and_then(Value::as_u64).unwrap();
        assert!(named_pids.contains(&pid), "pid {pid} has no process_name");
    }
}

#[test]
fn perfetto_without_telemetry_has_no_counter_tracks() {
    let trace = tiny_report(false).perfetto_trace_json();
    let v: Value = serde_json::from_str(&trace).unwrap();
    let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Value::as_str) != Some("C")));
    // Task phases are still exported.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
}

// ---- telemetry is an observer -------------------------------------------

fn platform_for(idx: usize, nodes: usize) -> wfbb::platform::PlatformSpec {
    match idx % 3 {
        0 => presets::cori(nodes, BbMode::Private),
        1 => presets::cori(nodes, BbMode::Striped),
        _ => presets::summit(nodes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Telemetry must be a pure observer: the same run with sampling on
    /// and off produces bit-identical makespans, task timings, and byte
    /// accounting.
    #[test]
    fn telemetry_never_changes_results(
        layers in 1usize..5,
        width in 1usize..5,
        seed in 0u64..500,
        platform_idx in 0usize..3,
        nodes in 1usize..3,
        fraction in 0.0f64..=1.0,
    ) {
        let wf = patterns::random_layered(layers, width, seed);
        let platform = platform_for(platform_idx, nodes);
        let run = |telemetry: bool| {
            let mut b = SimulationBuilder::new(platform.clone(), wf.clone())
                .placement(PlacementPolicy::FractionToBb { fraction });
            if telemetry {
                b = b.telemetry(TelemetryConfig::enabled());
            }
            b.run().unwrap()
        };
        let plain = run(false);
        let observed = run(true);
        prop_assert_eq!(plain.makespan, observed.makespan);
        prop_assert_eq!(plain.stage_in_time, observed.stage_in_time);
        prop_assert_eq!(plain.bb_bytes, observed.bb_bytes);
        prop_assert_eq!(plain.pfs_bytes, observed.pfs_bytes);
        prop_assert_eq!(plain.spilled_files, observed.spilled_files);
        prop_assert_eq!(plain.tasks.len(), observed.tasks.len());
        for (a, b) in plain.tasks.iter().zip(&observed.tasks) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.read_end, b.read_end);
            prop_assert_eq!(a.compute_end, b.compute_end);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.node, b.node);
        }
        prop_assert!(plain.telemetry.is_none());
        prop_assert!(observed.telemetry.is_some());
    }
}

// ---- stage spans --------------------------------------------------------

#[test]
fn stage_spans_tile_the_stage_in_phase() {
    let report = tiny_report(false);
    // AllBb on Cori: both inputs staged sequentially.
    assert_eq!(report.stage_spans.len(), 2);
    let mut prev_end = 0.0;
    for s in &report.stage_spans {
        assert!(s.start.seconds() >= prev_end - 1e-9, "spans are sequential");
        assert!(s.end > s.start, "stage copies take time");
        assert!(s.location.starts_with("bb:"), "staged to the BB tier");
        prev_end = s.end.seconds();
    }
    let last = report.stage_spans.last().unwrap();
    assert!(
        (last.end.seconds() - report.stage_in_time).abs() < 1e-9,
        "the last span closes the stage-in phase"
    );
}

#[test]
fn output_spans_cover_every_task_write() {
    let report = tiny_report(false);
    // Each of the three tasks writes exactly one output file.
    assert_eq!(report.output_spans.len(), 3);
    for s in &report.output_spans {
        assert!(s.end > s.start, "output writes take time");
        assert!(
            s.location.starts_with("bb:"),
            "AllBb places outputs on the BB"
        );
        assert!(
            s.end.seconds() <= report.makespan.seconds() + 1e-9,
            "writes finish inside the run"
        );
    }
    // Spans are recorded in completion order.
    let mut prev = 0.0;
    for s in &report.output_spans {
        assert!(s.end.seconds() >= prev, "spans sorted by completion");
        prev = s.end.seconds();
    }
}
