//! Every workload at `--quick` size, untraced and traced: each emits
//! every metric `BENCHMARK.json` names, with its unit, and passes its
//! checks; a corrupted reference makes the run fail.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_wfbb-perf");

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let out = tmp_dir("perf-smoke-out");
    Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--quick", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("wfbb-perf runs")
}

fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn names<'a>(v: &'a Value, key: &str) -> Vec<(&'a str, &'a str)> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap(),
                m.get("unit").and_then(Value::as_str).unwrap(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes() {
    let bench = benchmark();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert!(!workloads.is_empty());
    for w in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
            let r = result(&out);
            assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true), "{w}");
            assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{w}");
            assert!(r.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = r.get("metrics").unwrap();
            let expected = names(&bench, key);
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(*unit),
                    "{w}: {name}"
                );
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{w}: end-to-end {name} is {value}");
                }
            }
            match metrics {
                Value::Object(m) => assert_eq!(m.len(), expected.len(), "{w}: extra metrics"),
                _ => panic!("metrics is an object"),
            }
        }
    }
}

/// A copy of `reference/` in `name` with `file` changed by `edit`.
fn corrupted_reference(name: &str, file: &str, edit: impl Fn(&str) -> String) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let dst = tmp_dir(name);
    for sub in ["", "tables"] {
        std::fs::create_dir_all(dst.join(sub)).unwrap();
        for entry in std::fs::read_dir(src.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::copy(&path, dst.join(sub).join(path.file_name().unwrap())).unwrap();
            }
        }
    }
    let text = std::fs::read_to_string(dst.join(file)).unwrap();
    std::fs::write(dst.join(file), edit(&text)).unwrap();
    dst
}

/// Scales the pinned value of every `key value` line whose key starts
/// with `prefix`.
fn scale_entries(text: &str, prefix: &str) -> String {
    let lines: Vec<String> = text
        .lines()
        .map(|l| match l.rsplit_once(' ') {
            Some((key, v)) if key.starts_with(prefix) => {
                format!("{key} {}", v.parse::<f64>().unwrap() * 1.001)
            }
            _ => l.to_string(),
        })
        .collect();
    lines.join("\n") + "\n"
}

fn assert_fails(workload: &str, reference: &Path, names: &str) {
    let out = run(workload, "0", &["--reference", reference.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "{workload}: a wrong reference must fail the run"
    );
    let r = result(&out);
    assert_eq!(r.get("correct").and_then(Value::as_bool), Some(false));
    assert!(r.get("failed").and_then(Value::as_u64).unwrap() > 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("CHECK FAILED") && l.contains(names)),
        "{workload}: no failed check names {names}:\n{stdout}"
    );
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    let sweep = corrupted_reference("perf-smoke-sweep", "sweep.txt", |t| {
        scale_entries(t, "swarp:4:16@")
    });
    assert_fails("paper_sweep", &sweep, "sweep/swarp:4:16@");

    let campaigns = corrupted_reference("perf-smoke-campaigns", "campaigns.txt", |t| {
        scale_entries(t, "campaign_large/quick/")
    });
    assert_fails(
        "campaign_large",
        &campaigns,
        "campaigns/campaign_large/quick/",
    );

    let table = corrupted_reference("perf-smoke-table", "tables/table_i.csv", |t| {
        t.replacen(',', ";", 1)
    });
    assert_fails("paper_sweep", &table, "table_i");
}
