//! Workflow JSON serialization.
//!
//! A compact, human-editable JSON schema in the spirit of the WfCommons
//! WfFormat the paper's tooling consumes (the 1000Genomes instance comes
//! from WorkflowHub traces). Files are declared once with their sizes; tasks
//! reference them by name.
//!
//! ```json
//! {
//!   "name": "demo",
//!   "files": [ {"name": "in.dat", "size": 1000000.0} ],
//!   "tasks": [
//!     {"name": "t1", "category": "proc", "flops": 1e9, "alpha": 0.0,
//!      "cores": 4, "inputs": ["in.dat"], "outputs": [], "pipeline": null}
//!   ]
//! }
//! ```

use serde::{Deserialize, Serialize};

use crate::graph::{Workflow, WorkflowBuilder, WorkflowError};

#[derive(Debug, Serialize, Deserialize)]
struct FileDoc {
    name: String,
    size: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TaskDoc {
    name: String,
    #[serde(default)]
    category: String,
    #[serde(default)]
    flops: f64,
    #[serde(default)]
    alpha: f64,
    #[serde(default = "one")]
    cores: usize,
    #[serde(default)]
    inputs: Vec<String>,
    #[serde(default)]
    outputs: Vec<String>,
    #[serde(default)]
    pipeline: Option<usize>,
}

fn one() -> usize {
    1
}

#[derive(Debug, Serialize, Deserialize)]
struct WorkflowDoc {
    name: String,
    files: Vec<FileDoc>,
    tasks: Vec<TaskDoc>,
}

/// Errors raised when parsing a workflow document.
#[derive(Debug)]
pub enum IoError {
    /// The document is not valid JSON for the schema.
    Json(serde_json::Error),
    /// A task references a file name that is not declared.
    UnknownFile(String),
    /// The parsed workflow fails structural validation.
    Workflow(WorkflowError),
    /// The per-core speed used to convert observed runtimes into work
    /// is not a positive finite number.
    InvalidSpeed(f64),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "invalid workflow JSON: {e}"),
            IoError::UnknownFile(n) => write!(f, "task references undeclared file {n:?}"),
            IoError::Workflow(e) => write!(f, "invalid workflow: {e}"),
            IoError::InvalidSpeed(s) => write!(f, "per-core speed must be positive, got {s}"),
        }
    }
}

impl std::error::Error for IoError {}

impl Workflow {
    /// Serializes the workflow to pretty JSON.
    pub fn to_json(&self) -> String {
        let doc = WorkflowDoc {
            name: self.name.clone(),
            files: self
                .files()
                .iter()
                .map(|f| FileDoc {
                    name: f.name.clone(),
                    size: f.size,
                })
                .collect(),
            tasks: self
                .tasks()
                .iter()
                .map(|t| TaskDoc {
                    name: t.name.clone(),
                    category: t.category.clone(),
                    flops: t.flops,
                    alpha: t.alpha,
                    cores: t.cores,
                    inputs: t
                        .inputs
                        .iter()
                        .map(|&f| self.file(f).name.clone())
                        .collect(),
                    outputs: t
                        .outputs
                        .iter()
                        .map(|&f| self.file(f).name.clone())
                        .collect(),
                    pipeline: t.pipeline,
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).expect("workflow doc serializes")
    }

    /// Parses and validates a workflow from JSON.
    pub fn from_json(json: &str) -> Result<Workflow, IoError> {
        let doc: WorkflowDoc = serde_json::from_str(json).map_err(IoError::Json)?;
        let mut b = WorkflowBuilder::new(doc.name);
        let mut by_name = std::collections::HashMap::new();
        for f in doc.files {
            let id = b.add_file(f.name.clone(), f.size);
            by_name.insert(f.name, id);
        }
        for t in doc.tasks {
            let mut tb = b
                .task(t.name)
                .category(t.category)
                .flops(t.flops)
                .alpha(t.alpha)
                .cores(t.cores);
            if let Some(p) = t.pipeline {
                tb = tb.pipeline(p);
            }
            for name in t.inputs {
                let id = *by_name
                    .get(&name)
                    .ok_or_else(|| IoError::UnknownFile(name.clone()))?;
                tb = tb.input(id);
            }
            for name in t.outputs {
                let id = *by_name
                    .get(&name)
                    .ok_or_else(|| IoError::UnknownFile(name.clone()))?;
                tb = tb.output(id);
            }
            tb.add();
        }
        b.build().map_err(IoError::Workflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new("sample");
        let fi = b.add_file("in", 1e6);
        let fm = b.add_file("mid", 5e5);
        let fo = b.add_file("out", 1e5);
        b.task("first")
            .category("proc")
            .flops(2e9)
            .alpha(0.1)
            .cores(4)
            .pipeline(0)
            .input(fi)
            .output(fm)
            .add();
        b.task("second")
            .category("merge")
            .input(fm)
            .output(fo)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let wf = sample();
        let json = wf.to_json();
        let back = Workflow::from_json(&json).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.task_count(), 2);
        assert_eq!(back.file_count(), 3);
        let t = back.task_by_name("first").unwrap();
        assert_eq!(t.category, "proc");
        assert_eq!(t.flops, 2e9);
        assert_eq!(t.alpha, 0.1);
        assert_eq!(t.cores, 4);
        assert_eq!(t.pipeline, Some(0));
        assert_eq!(
            back.dependencies(back.task_by_name("second").unwrap().id)
                .len(),
            1
        );
    }

    #[test]
    fn unknown_file_reference_fails() {
        let json = r#"{
            "name": "bad", "files": [],
            "tasks": [{"name": "t", "inputs": ["ghost"]}]
        }"#;
        match Workflow::from_json(json) {
            Err(IoError::UnknownFile(n)) => assert_eq!(n, "ghost"),
            other => panic!("expected UnknownFile, got {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let json = r#"{
            "name": "min",
            "files": [{"name": "f", "size": 1.0}],
            "tasks": [{"name": "t", "outputs": ["f"]}]
        }"#;
        let wf = Workflow::from_json(json).unwrap();
        let t = wf.task_by_name("t").unwrap();
        assert_eq!(t.cores, 1);
        assert_eq!(t.alpha, 0.0);
        assert_eq!(t.flops, 0.0);
        assert_eq!(t.pipeline, None);
    }

    #[test]
    fn malformed_json_fails() {
        assert!(matches!(Workflow::from_json("{"), Err(IoError::Json(_))));
    }

    #[test]
    fn structurally_invalid_doc_fails() {
        let json = r#"{
            "name": "bad",
            "files": [{"name": "f", "size": 1.0}],
            "tasks": [
                {"name": "a", "outputs": ["f"]},
                {"name": "b", "outputs": ["f"]}
            ]
        }"#;
        assert!(matches!(
            Workflow::from_json(json),
            Err(IoError::Workflow(_))
        ));
    }
}
