//! Gantt-chart view of a simulation report.
//!
//! Turns per-task records into per-node timelines and renders them as a
//! quick ASCII chart for terminals (the CLI's `--gantt`). Phase
//! boundaries are exact simulation timestamps. For a chart to load in
//! Perfetto or `chrome://tracing`, use
//! [`SimulationReport::perfetto_trace_json`](crate::traceexport).

use crate::report::{SimulationReport, TaskRecord};

impl SimulationReport {
    /// Task records grouped by compute node, each group sorted by start
    /// time (ties by task id).
    fn gantt_by_node(&self) -> Vec<Vec<&TaskRecord>> {
        let nodes = self.tasks.iter().map(|t| t.node).max().map_or(0, |n| n + 1);
        let mut lanes: Vec<Vec<&TaskRecord>> = (0..nodes).map(|_| Vec::new()).collect();
        for t in &self.tasks {
            lanes[t.node].push(t);
        }
        for lane in &mut lanes {
            lane.sort_by(|a, b| a.start.cmp(&b.start).then(a.task.cmp(&b.task)));
        }
        lanes
    }

    /// Renders a compact ASCII Gantt chart, `width` characters wide.
    /// Phases are drawn as `r` (read), `c` (compute), `w` (write).
    pub fn gantt_ascii(&self, width: usize) -> String {
        assert!(width >= 10, "need at least 10 columns");
        let horizon = self.makespan.seconds().max(1e-12);
        let col = |t: f64| ((t / horizon) * (width as f64 - 1.0)).round() as usize;
        let mut out = String::new();
        let name_w = self
            .tasks
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(4)
            .min(24);
        for lane in self.gantt_by_node() {
            for t in lane {
                let mut row = vec![' '; width];
                let (s, r, c, e) = (
                    col(t.start.seconds()),
                    col(t.read_end.seconds()),
                    col(t.compute_end.seconds()),
                    col(t.end.seconds()),
                );
                for cell in row.iter_mut().take(r).skip(s) {
                    *cell = 'r';
                }
                for cell in row.iter_mut().take(c).skip(r) {
                    *cell = 'c';
                }
                for cell in row.iter_mut().take(e.max(c + 1).min(width)).skip(c) {
                    *cell = 'w';
                }
                let name: String = t.name.chars().take(name_w).collect();
                out.push_str(&format!(
                    "n{:02} {:name_w$} |{}|\n",
                    t.node,
                    name,
                    row.iter().collect::<String>()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use wfbb_platform::presets;
    use wfbb_storage::PlacementPolicy;
    use wfbb_workflow::WorkflowBuilder;

    use crate::builder::SimulationBuilder;

    fn report() -> crate::report::SimulationReport {
        let mut b = WorkflowBuilder::new("g");
        let f0 = b.add_file("f0", 1e6);
        let f1 = b.add_file("f1", 1e6);
        b.task("a")
            .category("x")
            .flops(1e11)
            .cores(2)
            .pipeline(0)
            .output(f0)
            .add();
        b.task("b")
            .category("x")
            .flops(1e11)
            .cores(2)
            .pipeline(1)
            .input(f0)
            .output(f1)
            .add();
        let wf = b.build().unwrap();
        SimulationBuilder::new(presets::summit(2), wf)
            .placement(PlacementPolicy::AllBb)
            .run()
            .unwrap()
    }

    #[test]
    fn lanes_group_by_node_and_sort_by_start() {
        let r = report();
        let lanes = r.gantt_by_node();
        assert_eq!(lanes.len(), 2, "two pipeline-pinned nodes");
        let total: usize = lanes.iter().map(|l| l.len()).sum();
        assert_eq!(total, 2);
        for lane in lanes {
            for w in lane.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
        }
    }

    #[test]
    fn ascii_gantt_renders_phases() {
        let r = report();
        let chart = r.gantt_ascii(60);
        assert!(chart.contains('c'), "compute phases visible");
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.lines().all(|l| l.contains('|')));
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn ascii_rejects_tiny_width() {
        let _ = report().gantt_ascii(3);
    }

    #[test]
    fn empty_report_exports_are_well_formed() {
        let wf = WorkflowBuilder::new("void").build().unwrap();
        let r = SimulationBuilder::new(presets::summit(1), wf)
            .run()
            .unwrap();
        assert!(r.gantt_by_node().is_empty());
        assert_eq!(r.gantt_ascii(20), "");
        assert_eq!(r.mean_utilization(), 0.0);
    }

    /// Hand-built two-task report with round-number timestamps, so the
    /// snapshot tests below are readable by eye and fully deterministic.
    fn synthetic_report() -> crate::report::SimulationReport {
        use wfbb_simcore::SimTime;
        use wfbb_workflow::TaskId;
        let task = |idx: usize,
                    name: &str,
                    cat: &str,
                    pipeline: Option<usize>,
                    node: usize,
                    cores: usize,
                    times: [f64; 4]| {
            crate::report::TaskRecord {
                task: TaskId::from_index(idx),
                name: name.into(),
                category: cat.into(),
                pipeline,
                node,
                cores,
                start: SimTime::from_seconds(times[0]),
                read_end: SimTime::from_seconds(times[1]),
                compute_end: SimTime::from_seconds(times[2]),
                end: SimTime::from_seconds(times[3]),
                pure_compute: times[2] - times[1],
                serialized_io: (times[1] - times[0]) + (times[3] - times[2]),
                contention_wait: 0.0,
                attempts: 1,
                fault_wait: 0.0,
                checkpoint_io: 0.0,
                contention_by_resource: Vec::new(),
            }
        };
        crate::report::SimulationReport {
            workflow: "synthetic".into(),
            makespan: SimTime::from_seconds(10.0),
            stage_in_time: 0.0,
            stage_spans: Vec::new(),
            output_spans: Vec::new(),
            contention: Vec::new(),
            stage_contention: Vec::new(),
            critical_path: Vec::new(),
            faults: Vec::new(),
            fault_lost_bytes: 0.0,
            fault_lost_compute: 0.0,
            fault_wait_total: 0.0,
            retries: 0,
            checkpoints: 0,
            restores: 0,
            checkpoint_bytes: 0.0,
            checkpoint_io_total: 0.0,
            tasks: vec![
                task(0, "a", "x", Some(0), 0, 2, [0.0, 2.0, 8.0, 10.0]),
                task(1, "b", "y", None, 1, 1, [1.0, 1.5, 4.0, 5.0]),
            ],
            bb_bytes: 0.0,
            pfs_bytes: 0.0,
            bb_achieved_bw: 0.0,
            pfs_achieved_bw: 0.0,
            bb_nominal_bw: 0.0,
            pfs_nominal_bw: 0.0,
            bb_peak_bytes: 0.0,
            spilled_files: 0,
            nodes: 2,
            cores_per_node: 4,
            telemetry: None,
        }
    }

    #[test]
    fn ascii_snapshot_at_width_40() {
        let r = synthetic_report();
        let expected = "\
            n00 a |rrrrrrrrcccccccccccccccccccccccwwwwwwww |\n\
            n01 b |    rrccccccccccwwww                    |\n";
        assert_eq!(r.gantt_ascii(40), expected);
    }

    #[test]
    fn ascii_rows_honor_the_requested_width() {
        let r = synthetic_report();
        for width in [10usize, 37, 64, 120] {
            let chart = r.gantt_ascii(width);
            for line in chart.lines() {
                let open = line.find('|').unwrap();
                let close = line.rfind('|').unwrap();
                assert_eq!(
                    close - open - 1,
                    width,
                    "timeline body must be exactly {width} cells wide"
                );
                assert_eq!(close, line.len() - 1, "the bar closes the row");
            }
        }
    }

    #[test]
    fn ascii_truncates_long_names_to_24_columns() {
        let mut r = synthetic_report();
        r.tasks[0].name = "a".repeat(30);
        let chart = r.gantt_ascii(40);
        let first = chart.lines().next().unwrap();
        assert!(first.contains(&"a".repeat(24)));
        assert!(!first.contains(&"a".repeat(25)));
        // Rows stay aligned: both rows open their bars at the same column.
        let cols: Vec<usize> = chart.lines().map(|l| l.find('|').unwrap()).collect();
        assert_eq!(cols[0], cols[1]);
    }

    #[test]
    fn utilization_reflects_occupancy() {
        let r = report();
        // Two 2-core tasks on two 42-core Summit nodes, running back to
        // back: utilization is low but positive on both nodes.
        let u = r.node_utilization();
        assert_eq!(u.len(), 2);
        for v in u {
            assert!(v > 0.0 && v < 0.2, "utilization {v}");
        }
    }
}
