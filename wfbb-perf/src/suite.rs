//! `run` — every workload, interleaved — and `compare` — two builds,
//! alternated. Both drive one-run child processes of a `wfbb-perf`
//! binary, so each workload's peak RSS is its own.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, Summary};
use crate::{Opts, WORKLOADS};

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn invoke(exe: &Path, args: &[String]) -> Result<RunResult, String> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{} {}: no result line (exit {:?}): {}",
            exe.display(),
            args.join(" "),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(m)) = v.get("metrics") {
        for (name, m) in m {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    for line in stdout.lines().filter(|l| l.contains("CHECK FAILED")) {
        eprintln!("{line}");
    }
    Ok(RunResult {
        correct: v.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

fn run_args(opts: &Opts, workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(opts.out.display().to_string());
    args.extend([
        "--reference".to_string(),
        opts.reference.display().to_string(),
    ]);
    if opts.quick {
        args.push("--quick".into());
    }
    args
}

/// Untraced runs of every workload in `wfbb-perf run`.
const REPS: usize = 3;

/// Alternating pairs of runs per workload in `wfbb-perf compare`.
const PAIRS: usize = 10;

/// `wfbb-perf run`: `REPS` untraced runs of every workload, interleaved
/// round-robin so host drift hits all alike, then one traced run each.
pub fn run(opts: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    for rep in 0..REPS {
        for w in WORKLOADS {
            eprintln!("wfbb-perf: {w} untraced run {}/{REPS}", rep + 1);
            runs.entry(w)
                .or_default()
                .push(invoke(&exe, &run_args(opts, w, opts.seed, false))?);
        }
    }
    let mut traced = BTreeMap::new();
    for w in WORKLOADS {
        eprintln!("wfbb-perf: {w} traced run");
        traced.insert(*w, invoke(&exe, &run_args(opts, w, opts.seed, true))?);
    }

    let mut ok = true;
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let untraced = &runs[w];
        let tr = &traced[w];
        let correct = tr.correct && untraced.iter().all(|r| r.correct);
        ok &= correct;
        let attempted: u64 = untraced.iter().chain([tr]).map(|r| r.attempted).sum();
        let failed: u64 = untraced.iter().chain([tr]).map(|r| r.failed).sum();
        println!(
            "{w} fail_ratio {} - (n={})",
            failed as f64 / attempted.max(1) as f64,
            untraced.len() + 1
        );
        let mut e2e = Vec::new();
        for d in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.get(d.name).copied())
                .collect();
            let s = Summary::of(&values);
            println!(
                "{w} {} {} {} (n={}, {}/{}/{})",
                d.name, s.median, d.unit, s.n, s.min, s.median, s.max
            );
            e2e.push((
                d.name,
                object(vec![
                    ("unit", Value::String(d.unit.into())),
                    ("median", Value::Number(s.median)),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::Number).collect()),
                    ),
                ]),
            ));
        }
        let mut layer = Vec::new();
        for d in PER_LAYER {
            let v = tr.metrics.get(d.name).copied().unwrap_or(0.0);
            println!("{w} {} {v} {} (n=1, traced run)", d.name, d.unit);
            layer.push((
                d.name,
                object(vec![
                    ("unit", Value::String(d.unit.into())),
                    ("value", Value::Number(v)),
                ]),
            ));
        }
        per_workload.push((
            *w,
            object(vec![
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Number(attempted as f64)),
                ("failed", Value::Number(failed as f64)),
                ("end_to_end", object(e2e)),
                ("per_layer", object(layer)),
            ]),
        ));
    }
    let results = object(vec![
        ("seed", Value::Number(opts.seed as f64)),
        ("seconds", Value::Number(opts.seconds)),
        ("reps", Value::Number(REPS as f64)),
        ("workloads", object(per_workload)),
    ]);
    std::fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;
    let path = opts.out.join("results.json");
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A metric's direction and regression bound, from `BENCHMARK.json`.
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for m in v
        .get("end_to_end")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            },
        );
    }
    Ok(out)
}

/// `wfbb-perf compare <base-exe> <head-exe>`: the paired rule. Each of
/// `PAIRS` pairs runs both builds on one seed, alternating which goes
/// first. A gain needs the head to win at least 9 in 10 pairs and
/// medians further apart than the base's interquartile range; a metric
/// whose base spread exceeds its bound is unresolved unless every head
/// run beats every base run; a regression is a median worse than the
/// bound allows.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut exes = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--seconds" => opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--workload" => workloads.push(value()?),
            "--out" => opts.out = PathBuf::from(value()?),
            exe => exes.push(PathBuf::from(exe)),
        }
    }
    let [base, head] =
        <[PathBuf; 2]>::try_from(exes).map_err(|_| "compare takes <base-exe> <head-exe>")?;
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    let bounds = load_bounds(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;

    let mut regressions = 0;
    let mut report = String::new();
    println!("workload metric base_median [q1,q3] head_median ratio(head/base) wins verdict");
    for w in &workloads {
        let mut base_runs = Vec::new();
        let mut head_runs = Vec::new();
        for i in 0..PAIRS {
            let seed = 1000 + i as u64;
            // No `--reference`: each side checks against its own.
            let args: Vec<String> = [
                "--workload",
                w,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &opts.seconds.to_string(),
                "--trace",
                "0",
                "--out",
                &opts.out.display().to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            eprintln!("wfbb-perf: {w} pair {}/{PAIRS}", i + 1);
            let order = if i % 2 == 0 {
                [&base, &head]
            } else {
                [&head, &base]
            };
            let first = invoke(order[0], &args)?;
            let second = invoke(order[1], &args)?;
            let (b, h) = if i % 2 == 0 {
                (first, second)
            } else {
                (second, first)
            };
            if !b.correct || !h.correct {
                return Err(format!("{w} pair {i}: a run failed its checks"));
            }
            base_runs.push(b.metrics);
            head_runs.push(h.metrics);
        }
        for (name, bound) in &bounds {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|m| m.get(name).copied()).collect()
            };
            let (b, h) = (pick(&base_runs), pick(&head_runs));
            if b.len() != PAIRS || h.len() != PAIRS {
                continue;
            }
            let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
            let (bm, hm) = (median(&b), median(&h));
            let (q1, q3) = quartiles(&b).unwrap_or((bm, bm));
            let wins = b.iter().zip(&h).filter(|(x, y)| better(**y, **x)).count();
            let all_better = h.iter().all(|y| b.iter().all(|x| better(*y, *x)));
            let worse_by = if bound.lower_is_better {
                hm / bm - 1.0
            } else {
                1.0 - hm / bm
            };
            let gain = wins * 10 >= PAIRS * 9 && better(hm, bm) && (hm - bm).abs() > q3 - q1;
            let verdict = if gain {
                "gain"
            } else if (q3 - q1) / bm > bound.bound {
                if all_better {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse_by > bound.bound {
                regressions += 1;
                "regression"
            } else {
                "no regression"
            };
            let line = format!(
                "{w} {name} {bm} [{q1},{q3}] {hm} {:.4} {wins}/{PAIRS} {verdict}",
                hm / bm
            );
            println!("{line} ({})", unit_of(name).unwrap_or(""));
            report.push_str(&line);
            report.push('\n');
        }
    }
    std::fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;
    let path = opts.out.join("compare.txt");
    std::fs::write(&path, report).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
