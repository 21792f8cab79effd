//! Argument parsing for the `wfbb` CLI.
//!
//! Deliberately dependency-free: flags are `--key value` pairs; specs use
//! small colon-separated mini-grammars (`swarp:4`, `cori:private`,
//! `fraction:0.5`) so invocations stay one-liners.

use std::collections::HashMap;

use wfbb_platform::{presets, PlatformSpec};
use wfbb_workflow::Workflow;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (`simulate`, `generate`, `inspect`).
    pub command: String,
    options: HashMap<String, String>,
}

/// CLI errors, printed to stderr with usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses raw arguments (without the program name), treating any
    /// flag named in `switches` as a valueless boolean (present ⇒
    /// `"true"`, query with [`Args::flag`]). All other flags require a
    /// value.
    pub fn parse_with_switches(raw: &[String], switches: &[&str]) -> Result<Args, CliError> {
        let Some(command) = raw.first() else {
            return Err(CliError("missing subcommand".into()));
        };
        let mut options = HashMap::new();
        let mut i = 1;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got {:?}", raw[i])))?;
            if switches.contains(&key) {
                options.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = raw
                .get(i + 1)
                .ok_or_else(|| CliError(format!("flag --{key} needs a value")))?;
            options.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Args {
            command: command.clone(),
            options,
        })
    }

    /// Whether a boolean switch was given (see
    /// [`Args::parse_with_switches`]).
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// An option's value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An option's value or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// Errors on any flag outside `allowed` — unknown (or removed) flags
    /// fail loudly instead of being silently ignored.
    pub fn check_flags(&self, allowed: &[&str]) -> Result<(), CliError> {
        let mut unknown: Vec<&str> = self
            .options
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        if let Some(k) = unknown.first() {
            return Err(CliError(format!(
                "unknown flag --{k} for subcommand {:?}",
                self.command
            )));
        }
        Ok(())
    }
}

/// Parses a platform spec: a preset label ([`presets::NAMES`]) or a path
/// to a platform JSON file. `nodes` scales presets.
pub fn parse_platform(spec: &str, nodes: usize) -> Result<PlatformSpec, CliError> {
    if nodes > presets::MAX_NODES {
        return Err(CliError(format!(
            "--nodes {nodes} exceeds the limit of {}",
            presets::MAX_NODES
        )));
    }
    if let Some(platform) = presets::by_name(spec, nodes) {
        return Ok(platform);
    }
    let json = std::fs::read_to_string(spec)
        .map_err(|e| CliError(format!("cannot read platform {spec:?}: {e}")))?;
    PlatformSpec::from_json(&json).map_err(|e| CliError(format!("invalid platform {spec:?}: {e}")))
}

/// Parses a workflow spec: `swarp:<pipelines>[:<cores>]`,
/// `genomes:<chromosomes>`, `wfcommons:<path>[:<gflops_per_core>]`, or a
/// path to a workflow JSON file in the native format.
pub fn parse_workflow(spec: &str) -> Result<Workflow, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["wfcommons", path] => load_wfcommons(path, 36.80),
        ["wfcommons", path, gflops] => {
            let speed: f64 = gflops
                .parse()
                .map_err(|_| CliError(format!("bad per-core speed {gflops:?}")))?;
            load_wfcommons(path, speed)
        }
        ["swarp", ..] | ["genomes", ..] => {
            wfbb_sched::build_workflow(spec).map_err(|e| CliError(e.to_string()))
        }
        [path] => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read workflow {path:?}: {e}")))?;
            Workflow::from_json(&json)
                .map_err(|e| CliError(format!("invalid workflow {path:?}: {e}")))
        }
        _ => Err(CliError(format!("unrecognized workflow spec {spec:?}"))),
    }
}

fn load_wfcommons(path: &str, gflops: f64) -> Result<Workflow, CliError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read workflow {path:?}: {e}")))?;
    wfbb_workflow::wfcommons::from_wfcommons_json(&json, gflops)
        .map_err(|e| CliError(format!("invalid WfCommons trace {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, CliError> {
        let raw: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Args::parse_with_switches(&raw, &[])
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = args(&["simulate", "--workflow", "swarp:4", "--platform", "cori"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("workflow"), Some("swarp:4"));
        assert_eq!(a.get_or("nodes", "1"), "1");
        assert!(a.require("platform").is_ok());
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(args(&[]).is_err());
        assert!(args(&["simulate", "notaflag"]).is_err());
        assert!(args(&["simulate", "--dangling"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let raw: Vec<String> = ["campaign", "--progress", "--jobs", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_switches(&raw, &["progress"]).unwrap();
        assert!(a.flag("progress"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.get("jobs"), Some("5"));
        // Without the switch registered, a trailing valueless flag is
        // malformed.
        let raw: Vec<String> = ["campaign", "--progress"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Args::parse_with_switches(&raw, &[]).is_err());
        assert!(Args::parse_with_switches(&raw, &["progress"]).is_ok());
    }

    #[test]
    fn platform_presets_parse() {
        assert_eq!(parse_platform("cori", 2).unwrap().compute_nodes, 2);
        assert_eq!(
            parse_platform("cori:striped", 1).unwrap().bb.label(),
            "striped"
        );
        assert_eq!(parse_platform("summit", 1).unwrap().bb.label(), "on-node");
        assert!(parse_platform("generic", 1).is_ok());
        assert!(parse_platform("/nonexistent.json", 1).is_err());
    }

    #[test]
    fn oversized_node_counts_are_rejected() {
        assert!(parse_platform("cori", presets::MAX_NODES).is_ok());
        let e = parse_platform("cori", 4_000_000_000).unwrap_err();
        assert!(e.0.contains("--nodes"), "{e}");
    }

    #[test]
    fn workflow_specs_parse() {
        let wf = parse_workflow("swarp:3").unwrap();
        assert_eq!(wf.task_count(), 6);
        let wf = parse_workflow("swarp:2:8").unwrap();
        assert_eq!(wf.tasks()[0].cores, 8);
        let wf = parse_workflow("genomes:2").unwrap();
        assert_eq!(wf.task_count(), 2 * 41 + 1);
        assert!(parse_workflow("swarp:0").is_err());
        assert!(parse_workflow("swarp:2:0").is_err());
        assert!(parse_workflow("swarp:4000000000").is_err());
        assert!(parse_workflow("genomes:10001").is_err());
        assert!(parse_workflow("mystery:1").is_err());
    }

    #[test]
    fn wfcommons_spec_parses_a_trace_file() {
        let dir = std::env::temp_dir().join("wfbb-args-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        std::fs::write(
            &path,
            r#"{"workflow": {"tasks": [
                {"name": "t_ID1", "runtime": 2.0,
                 "files": [{"link": "output", "name": "o", "sizeInBytes": 5}]}
            ]}}"#,
        )
        .unwrap();
        let spec = format!("wfcommons:{}", path.display());
        let wf = parse_workflow(&spec).unwrap();
        assert_eq!(wf.task_count(), 1);
        // Custom per-core speed.
        let spec = format!("wfcommons:{}:10.0", path.display());
        let wf = parse_workflow(&spec).unwrap();
        assert!((wf.tasks()[0].flops - 2.0 * 10.0e9).abs() < 1.0);
        std::fs::remove_file(path).ok();
    }
}
