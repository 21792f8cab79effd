//! `wfbb-perf`: one benchmark for the paper sweep, campaign, plan and
//! service paths, end to end and per layer.
//!
//! ```text
//! wfbb-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--quick] [--out <dir>] [--reference <dir>]
//! wfbb-perf run [--seed <n>] [--seconds <s>] [--out <dir>] [--quick]
//! wfbb-perf compare <base-exe> <head-exe> [--seconds <s>]
//!           [--workload <name>]... [--out <dir>]
//! wfbb-perf write-reference [--reference <dir>]
//! ```
//!
//! The first form is one measured run of one workload: it prints every
//! metric as `workload metric value unit (n, min/median/max)` and, as
//! its last line, the JSON result (`correct`, `attempted`, `failed`,
//! `metrics`); an untraced run (`--trace 0`) reports the end-to-end
//! metrics, a traced one (`--trace 1`) the per-layer metrics and writes
//! its spans to `<out>/trace-<workload>.jsonl`. It exits 1 when a
//! correctness check fails. `run`, `compare` and `write-reference` are
//! described in `README.md`. The harness times its own calls into the
//! public entry points of each crate; it adds nothing to the program.

mod campaign;
mod layers;
mod metrics;
mod reference;
mod serve;
mod stats;
mod suite;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Outcome;
use reference::Reference;
use trace::Tracer;

/// The seed every workload uses unless `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 42;

pub const WORKLOADS: &[&str] = &[
    "paper_sweep",
    "campaign_large",
    "campaign_plan",
    "serve_cold",
    "serve_hit",
];

/// Options of one measured run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub reference: PathBuf,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            quick: false,
            out: PathBuf::from("bench-out"),
            reference: Reference::default_dir(),
        }
    }
}

/// `op_p50_ms`, `op_p90_ms` and `ops_per_s` of a closed loop, from its
/// op latencies in seconds.
pub fn latency_metrics(out: &mut Outcome, lat_s: &[f64]) {
    let ms: Vec<f64> = lat_s.iter().map(|s| s * 1e3).collect();
    let spread = stats::Summary::of(&ms);
    out.set_summary("op_p50_ms", stats::median(&ms), spread);
    out.set_summary("op_p90_ms", stats::quantile(&ms, 0.9), spread);
    out.set("ops_per_s", lat_s.len() as f64 / lat_s.iter().sum::<f64>());
}

/// Writes the traced run's spans to `<out>/trace-<workload>.jsonl`.
pub fn write_trace(opts: &Opts, tr: &Tracer, out: &mut Outcome) {
    let path = opts.out.join(format!("trace-{}.jsonl", opts.workload));
    let written = tr.write_jsonl(&path, &opts.workload);
    out.check(written.is_ok(), || {
        format!("cannot write {}: {}", path.display(), written.unwrap_err())
    });
}

/// One measured run of `opts.workload`.
pub fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    let reference = Reference::load(&opts.reference)?;
    let mut out = match opts.workload.as_str() {
        "paper_sweep" => sweep::run(opts, &reference),
        "campaign_large" => campaign::run(campaign::Kind::Large, opts, &reference),
        "campaign_plan" => campaign::run(campaign::Kind::Plan, opts, &reference),
        "serve_cold" => serve::run(serve::Kind::Cold, opts),
        "serve_hit" => serve::run(serve::Kind::Hit, opts),
        other => return Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    };
    out.restrict(if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    });
    Ok(out)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = PathBuf::from(value()?),
            "--reference" => opts.reference = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => serve::child(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("run") => parse_opts(&args[1..]).and_then(|opts| suite::run(&opts)),
        Some("compare") => suite::compare(&args[1..]),
        Some("write-reference") => parse_opts(&args[1..]).and_then(|opts| {
            reference::write_all(&opts.reference)?;
            println!("wrote {}", opts.reference.display());
            Ok(ExitCode::SUCCESS)
        }),
        _ => parse_opts(&args).and_then(|opts| {
            if opts.workload.is_empty() {
                return Err("--workload is required".into());
            }
            let out = run_workload(&opts)?;
            out.print_lines(&opts.workload);
            println!("{}", out.result_json());
            Ok(if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("wfbb-perf: {e}");
        ExitCode::from(2)
    })
}
