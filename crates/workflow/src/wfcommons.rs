//! WfCommons (WfFormat) import.
//!
//! The paper's 1000Genomes instance comes from WorkflowHub — today's
//! WfCommons project — whose JSON trace format is the community standard
//! for published workflow instances. This module imports the pragmatic
//! subset needed to simulate such traces:
//!
//! * `workflow.tasks` (or the legacy `workflow.jobs`) with `name`,
//!   `runtime`/`runtimeInSeconds`, `cores`, `category`, and `files`
//!   (`link` = `input`/`output`, `sizeInBytes`/`size`);
//! * `parents` edges: dependencies not already induced by shared files
//!   are preserved through synthetic zero-byte control files (our model
//!   derives all edges from files, as the paper's does).
//!
//! Task runtimes are observed wall-clock seconds; the importer converts
//! them to platform-independent flops at a caller-supplied per-core speed
//! (pass the speed of the machine the trace was recorded on — for
//! WorkflowHub-era traces typically a Cori-class core).

use crate::graph::{Workflow, WorkflowBuilder};
use crate::io::IoError;

/// Imports a WfCommons/WfFormat JSON document.
///
/// `gflops_per_core` is the per-core speed (GFlop/s) used to convert
/// observed runtimes into platform-independent work; a speed that is
/// not a positive finite number is an [`IoError::InvalidSpeed`].
pub fn from_wfcommons_json(json: &str, gflops_per_core: f64) -> Result<Workflow, IoError> {
    if !(gflops_per_core.is_finite() && gflops_per_core > 0.0) {
        return Err(IoError::InvalidSpeed(gflops_per_core));
    }
    let doc: serde_json::Value = serde_json::from_str(json).map_err(IoError::Json)?;
    let name = doc
        .get("name")
        .and_then(|v| v.as_str())
        .unwrap_or("wfcommons-import");
    let tasks = doc
        .get("workflow")
        .and_then(|w| w.get("tasks").or_else(|| w.get("jobs")))
        .and_then(|t| t.as_array())
        .ok_or_else(|| IoError::UnknownFile("workflow.tasks".to_string()))?;

    let mut b = WorkflowBuilder::new(name);
    let mut file_ids: std::collections::HashMap<String, crate::FileId> = Default::default();
    // First pass: declare every file once (first declared size wins).
    for task in tasks {
        for file in task
            .get("files")
            .and_then(|f| f.as_array())
            .unwrap_or(&Vec::new())
        {
            let Some(fname) = file.get("name").and_then(|v| v.as_str()) else {
                continue;
            };
            if file_ids.contains_key(fname) {
                continue;
            }
            let size = file
                .get("sizeInBytes")
                .or_else(|| file.get("size"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            let id = b.add_file(fname, size);
            file_ids.insert(fname.to_string(), id);
        }
    }

    // Collect per-task I/O and parent names.
    struct Spec {
        name: String,
        category: String,
        flops: f64,
        cores: usize,
        inputs: Vec<crate::FileId>,
        outputs: Vec<crate::FileId>,
        parents: Vec<String>,
    }
    let mut specs: Vec<Spec> = Vec::with_capacity(tasks.len());
    for task in tasks {
        let tname = task
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| IoError::UnknownFile("task.name".to_string()))?
            .to_string();
        let runtime = task
            .get("runtime")
            .or_else(|| task.get("runtimeInSeconds"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let cores = task
            .get("cores")
            .and_then(|v| v.as_u64())
            .map(|c| c.max(1) as usize)
            .unwrap_or(1);
        let category = task
            .get("category")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            // WfCommons task names are conventionally "<category>_ID0001".
            .unwrap_or_else(|| {
                tname
                    .rsplit_once(['_', '.'])
                    .map(|(head, _)| head.to_string())
                    .unwrap_or_else(|| tname.clone())
            });
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for file in task
            .get("files")
            .and_then(|f| f.as_array())
            .unwrap_or(&Vec::new())
        {
            let Some(fname) = file.get("name").and_then(|v| v.as_str()) else {
                continue;
            };
            let id = file_ids[fname];
            match file.get("link").and_then(|v| v.as_str()) {
                Some("input") => inputs.push(id),
                Some("output") => outputs.push(id),
                _ => {}
            }
        }
        let parents = task
            .get("parents")
            .and_then(|p| p.as_array())
            .map(|p| {
                p.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        specs.push(Spec {
            name: tname,
            category,
            flops: runtime * gflops_per_core * 1e9,
            cores,
            inputs,
            outputs,
            parents,
        });
    }

    // Parent edges not already induced by a shared file become zero-byte
    // control files.
    let produced_by: std::collections::HashMap<crate::FileId, usize> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.outputs.iter().map(move |&f| (f, i)))
        .collect();
    let by_name: std::collections::HashMap<String, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), i))
        .collect();
    let mut control_edges: Vec<(usize, usize)> = Vec::new();
    for (child_idx, spec) in specs.iter().enumerate() {
        for parent in &spec.parents {
            let Some(&parent_idx) = by_name.get(parent) else {
                return Err(IoError::UnknownFile(format!("parent task {parent:?}")));
            };
            // Already connected through a file?
            let connected = spec
                .inputs
                .iter()
                .any(|f| produced_by.get(f).is_some_and(|&p| p == parent_idx));
            if !connected {
                control_edges.push((parent_idx, child_idx));
            }
        }
    }
    let mut extra_inputs: Vec<Vec<crate::FileId>> = vec![Vec::new(); specs.len()];
    let mut extra_outputs: Vec<Vec<crate::FileId>> = vec![Vec::new(); specs.len()];
    for (k, (parent, child)) in control_edges.iter().enumerate() {
        let ctrl = b.add_file(format!("__ctrl_{k}"), 0.0);
        extra_outputs[*parent].push(ctrl);
        extra_inputs[*child].push(ctrl);
    }

    for (i, spec) in specs.into_iter().enumerate() {
        b.task(spec.name)
            .category(spec.category)
            .flops(spec.flops)
            .cores(spec.cores)
            .inputs(spec.inputs.into_iter().chain(extra_inputs[i].clone()))
            .outputs(spec.outputs.into_iter().chain(extra_outputs[i].clone()))
            .add();
    }
    b.build().map_err(IoError::Workflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "name": "1000genome-sample",
        "workflow": {
            "tasks": [
                {
                    "name": "individuals_ID01",
                    "runtime": 40.5,
                    "cores": 1,
                    "files": [
                        {"link": "input", "name": "chr1.vcf", "sizeInBytes": 90000000},
                        {"link": "output", "name": "ind01", "sizeInBytes": 20000000}
                    ]
                },
                {
                    "name": "individuals_ID02",
                    "runtimeInSeconds": 38.0,
                    "files": [
                        {"link": "input", "name": "chr1b.vcf", "size": 90000000},
                        {"link": "output", "name": "ind02", "sizeInBytes": 20000000}
                    ]
                },
                {
                    "name": "merge_ID01",
                    "runtime": 12.0,
                    "cores": 4,
                    "category": "individuals_merge",
                    "parents": ["individuals_ID01", "individuals_ID02"],
                    "files": [
                        {"link": "input", "name": "ind01", "sizeInBytes": 20000000},
                        {"link": "input", "name": "ind02", "sizeInBytes": 20000000},
                        {"link": "output", "name": "merged", "sizeInBytes": 50000000}
                    ]
                },
                {
                    "name": "plot_ID01",
                    "runtime": 2.0,
                    "parents": ["merge_ID01"],
                    "files": []
                }
            ]
        }
    }"#;

    #[test]
    fn imports_tasks_files_and_categories() {
        let wf = from_wfcommons_json(SAMPLE, 36.80).unwrap();
        assert_eq!(wf.name, "1000genome-sample");
        assert_eq!(wf.task_count(), 4);
        let ind = wf.task_by_name("individuals_ID01").unwrap();
        assert_eq!(ind.category, "individuals");
        assert_eq!(ind.cores, 1);
        assert!((ind.flops - 40.5 * 36.80e9).abs() < 1.0);
        let merge = wf.task_by_name("merge_ID01").unwrap();
        assert_eq!(
            merge.category, "individuals_merge",
            "explicit category wins"
        );
        assert_eq!(merge.cores, 4);
    }

    #[test]
    fn file_induced_dependencies_are_recovered() {
        let wf = from_wfcommons_json(SAMPLE, 36.80).unwrap();
        let merge = wf.task_by_name("merge_ID01").unwrap();
        let deps = wf.dependencies(merge.id);
        assert_eq!(deps.len(), 2, "both individuals feed the merge via files");
    }

    #[test]
    fn parent_only_edges_become_control_files() {
        let wf = from_wfcommons_json(SAMPLE, 36.80).unwrap();
        let plot = wf.task_by_name("plot_ID01").unwrap();
        let deps = wf.dependencies(plot.id);
        assert_eq!(deps.len(), 1);
        assert_eq!(wf.task(deps[0]).name, "merge_ID01");
        // The synthetic file is zero bytes.
        let ctrl = &plot.inputs;
        assert_eq!(ctrl.len(), 1);
        assert_eq!(wf.file(ctrl[0]).size, 0.0);
    }

    #[test]
    fn imported_workflows_simulate() {
        use wfbb_platform_free_check::run;
        run(from_wfcommons_json(SAMPLE, 36.80).unwrap());
    }

    /// Structural smoke check without a wms dependency: topological order
    /// and analyses work on the imported graph.
    mod wfbb_platform_free_check {
        pub fn run(wf: crate::graph::Workflow) {
            assert_eq!(wf.topological_order().len(), wf.task_count());
            assert!(wf.depth() >= 3);
            let (cp, _) = wf.critical_path(|t| wf.task(t).flops);
            assert!(cp > 0.0);
        }
    }

    #[test]
    fn legacy_jobs_key_is_accepted() {
        let json = r#"{"workflow": {"jobs": [
            {"name": "solo_ID1", "runtime": 1.0, "files": []}
        ]}}"#;
        let wf = from_wfcommons_json(json, 10.0).unwrap();
        assert_eq!(wf.task_count(), 1);
        assert_eq!(wf.name, "wfcommons-import");
    }

    #[test]
    fn unknown_parent_is_an_error() {
        let json = r#"{"workflow": {"tasks": [
            {"name": "a", "runtime": 1.0, "parents": ["ghost"], "files": []}
        ]}}"#;
        assert!(from_wfcommons_json(json, 10.0).is_err());
    }

    #[test]
    fn malformed_document_is_an_error() {
        assert!(from_wfcommons_json("{}", 10.0).is_err());
        assert!(from_wfcommons_json("not json", 10.0).is_err());
    }

    #[test]
    fn non_positive_speed_is_an_error() {
        for speed in [0.0, -1.0, f64::NAN] {
            let err = from_wfcommons_json(SAMPLE, speed).unwrap_err();
            assert!(
                matches!(err, IoError::InvalidSpeed(s) if s.to_bits() == speed.to_bits()),
                "{speed}: {err}"
            );
            assert!(err.to_string().contains("per-core speed must be positive"));
        }
    }
}
