//! File placement policies.
//!
//! A placement policy assigns a [`Tier`] to every workflow file. The
//! paper's experiments sweep two knobs: the **fraction of input files
//! staged into the burst buffer** (Figures 4, 10, 13, 14) and the **tier of
//! intermediate files** (Figure 5); Figures 7, 8, and 11 use the all-BB
//! setting. [`PlacementPolicy`] expresses all of these; custom policies can
//! be expressed with [`PlacementPolicy::PerCategory`] or by-size rules.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use wfbb_workflow::{FileId, Workflow};

use crate::tier::Tier;

/// Declarative file-placement policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Everything on the PFS — the paper's baseline.
    AllPfs,
    /// Everything in the burst buffer.
    AllBb,
    /// The paper's main experimental knob: a fraction of the *input* files
    /// is staged into the BB (selected by even stride over the input files
    /// in id order, so staged bytes grow near-linearly with the fraction);
    /// intermediate and output files go to `intermediates`.
    FractionToBb {
        /// Fraction of input files staged into the BB, in `[0, 1]`.
        fraction: f64,
    },
    /// Like `FractionToBb` but with explicit control of where
    /// intermediate/output files are written (Figure 5 sweeps this).
    InputFraction {
        /// Fraction of input files staged into the BB, in `[0, 1]`.
        fraction: f64,
        /// Tier for intermediate files.
        intermediates: Tier,
        /// Tier for workflow output files.
        outputs: Tier,
    },
    /// Files of at least `min_bytes` go to the BB, smaller files to the
    /// PFS — a simple size-aware heuristic enabled by the simulator.
    BySizeThreshold {
        /// Minimum size, in bytes, for BB placement.
        min_bytes: f64,
    },
    /// Tier chosen by the producing/consuming task category (files not
    /// matched default to the PFS). Keys match `Task::category` of the
    /// producer, or `"input"` for workflow inputs.
    PerCategory(HashMap<String, Tier>),
}

/// The resolved tier of every file of a workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    tiers: Vec<Tier>,
}

impl PlacementPlan {
    /// Builds a plan from an explicit per-file tier vector (index-aligned
    /// with the workflow's files). Used by capacity-aware heuristics.
    pub fn from_tiers(tiers: Vec<Tier>) -> Self {
        PlacementPlan { tiers }
    }

    /// Tier assigned to `file`.
    pub fn tier(&self, file: FileId) -> Tier {
        self.tiers[file.index()]
    }

    /// Number of files in the plan.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Files assigned to the burst buffer, in id order.
    pub fn bb_files(&self) -> Vec<FileId> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == Tier::BurstBuffer)
            .map(|(i, _)| FileId::from_index(i))
            .collect()
    }
}

/// Selects `⌈fraction·n⌉` indices out of `0..n` by even stride, so that the
/// selected set grows monotonically with `fraction` in count and (for
/// homogeneous interleaved inputs) in bytes.
fn stride_select(n: usize, fraction: f64) -> Vec<bool> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1], got {fraction}"
    );
    let mut selected = vec![false; n];
    let mut acc = 0.0f64;
    for s in selected.iter_mut() {
        acc += fraction;
        if acc >= 1.0 - 1e-12 {
            *s = true;
            acc -= 1.0;
        }
    }
    selected
}

impl PlacementPolicy {
    /// Parses the placement grammar shared by the CLI, the service and
    /// campaign workload files: `allbb`, `allpfs`, `fraction:<f>` (`f` in
    /// `[0, 1]`) or `threshold:<bytes>`.
    pub fn parse(spec: &str) -> Result<PlacementPolicy, String> {
        match spec.split_once(':') {
            None if spec == "allbb" => Ok(PlacementPolicy::AllBb),
            None if spec == "allpfs" => Ok(PlacementPolicy::AllPfs),
            Some(("fraction", f)) => {
                let fraction: f64 = f.parse().map_err(|_| format!("bad fraction {f:?}"))?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("fraction {fraction} outside [0, 1]"));
                }
                Ok(PlacementPolicy::FractionToBb { fraction })
            }
            Some(("threshold", b)) => {
                let min_bytes: f64 = b.parse().map_err(|_| format!("bad threshold {b:?}"))?;
                Ok(PlacementPolicy::BySizeThreshold { min_bytes })
            }
            _ => Err(format!(
                "unknown placement spec {spec:?} (allbb | allpfs | fraction:<f> | threshold:<bytes>)"
            )),
        }
    }

    /// Resolves the policy against a workflow.
    pub fn plan(&self, workflow: &Workflow) -> PlacementPlan {
        let n = workflow.file_count();
        let tiers = match self {
            PlacementPolicy::AllPfs => vec![Tier::Pfs; n],
            PlacementPolicy::AllBb => vec![Tier::BurstBuffer; n],
            PlacementPolicy::FractionToBb { fraction } => {
                return PlacementPolicy::InputFraction {
                    fraction: *fraction,
                    intermediates: Tier::BurstBuffer,
                    outputs: Tier::BurstBuffer,
                }
                .plan(workflow)
            }
            PlacementPolicy::InputFraction {
                fraction,
                intermediates,
                outputs,
            } => {
                let mut tiers = vec![Tier::Pfs; n];
                let inputs = workflow.input_files();
                let picked = stride_select(inputs.len(), *fraction);
                for (i, &f) in inputs.iter().enumerate() {
                    tiers[f.index()] = if picked[i] {
                        Tier::BurstBuffer
                    } else {
                        Tier::Pfs
                    };
                }
                for f in workflow.intermediate_files() {
                    tiers[f.index()] = *intermediates;
                }
                for f in workflow.output_files() {
                    tiers[f.index()] = *outputs;
                }
                tiers
            }
            PlacementPolicy::BySizeThreshold { min_bytes } => workflow
                .files()
                .iter()
                .map(|f| {
                    if f.size >= *min_bytes {
                        Tier::BurstBuffer
                    } else {
                        Tier::Pfs
                    }
                })
                .collect(),
            PlacementPolicy::PerCategory(map) => workflow
                .files()
                .iter()
                .map(|f| {
                    let key = match workflow.producer(f.id) {
                        Some(t) => workflow.task(t).category.clone(),
                        None => "input".to_string(),
                    };
                    map.get(&key).copied().unwrap_or(Tier::Pfs)
                })
                .collect(),
        };
        PlacementPlan { tiers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbb_workflow::WorkflowBuilder;

    fn workflow_with_inputs(n_inputs: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("wf");
        let mut ins = Vec::new();
        for i in 0..n_inputs {
            ins.push(b.add_file(format!("in{i}"), 10.0));
        }
        let mid = b.add_file("mid", 5.0);
        let out = b.add_file("out", 1.0);
        b.task("t1")
            .category("resample")
            .inputs(ins)
            .output(mid)
            .add();
        b.task("t2")
            .category("combine")
            .input(mid)
            .output(out)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn all_pfs_and_all_bb() {
        let wf = workflow_with_inputs(4);
        let plan = PlacementPolicy::AllPfs.plan(&wf);
        assert!(plan.bb_files().is_empty());
        let plan = PlacementPolicy::AllBb.plan(&wf);
        assert_eq!(plan.bb_files().len(), wf.file_count());
    }

    #[test]
    fn fraction_selects_expected_counts() {
        let wf = workflow_with_inputs(16);
        for (fraction, expected) in [(0.0, 0), (0.25, 4), (0.5, 8), (0.75, 12), (1.0, 16)] {
            let plan = PlacementPolicy::InputFraction {
                fraction,
                intermediates: Tier::Pfs,
                outputs: Tier::Pfs,
            }
            .plan(&wf);
            let staged = wf
                .input_files()
                .iter()
                .filter(|&&f| plan.tier(f) == Tier::BurstBuffer)
                .count();
            assert_eq!(staged, expected, "fraction {fraction}");
        }
    }

    #[test]
    fn fraction_to_bb_sends_intermediates_to_bb() {
        let wf = workflow_with_inputs(4);
        let plan = PlacementPolicy::FractionToBb { fraction: 0.5 }.plan(&wf);
        let mid = wf.file_by_name("mid").unwrap().id;
        let out = wf.file_by_name("out").unwrap().id;
        assert_eq!(plan.tier(mid), Tier::BurstBuffer);
        assert_eq!(plan.tier(out), Tier::BurstBuffer);
    }

    #[test]
    fn stride_selection_is_monotone_in_fraction() {
        for n in [1usize, 7, 16, 100] {
            let mut prev = 0;
            for k in 0..=10 {
                let f = k as f64 / 10.0;
                let count = stride_select(n, f).iter().filter(|&&s| s).count();
                assert!(count >= prev, "n={n} f={f}");
                prev = count;
            }
            assert_eq!(prev, n, "fraction 1.0 selects everything");
        }
    }

    #[test]
    fn stride_selection_spreads_choices() {
        // With 50 % of 4 interleaved entries, selection alternates.
        let sel = stride_select(4, 0.5);
        assert_eq!(sel, vec![false, true, false, true]);
    }

    #[test]
    fn size_threshold_splits_by_size() {
        let wf = workflow_with_inputs(2);
        let plan = PlacementPolicy::BySizeThreshold { min_bytes: 6.0 }.plan(&wf);
        // 10-byte inputs -> BB; 5-byte mid and 1-byte out -> PFS.
        let mid = wf.file_by_name("mid").unwrap().id;
        assert_eq!(plan.tier(mid), Tier::Pfs);
        assert_eq!(
            plan.tier(wf.file_by_name("in0").unwrap().id),
            Tier::BurstBuffer
        );
    }

    #[test]
    fn per_category_places_by_producer() {
        let wf = workflow_with_inputs(2);
        let mut map = HashMap::new();
        map.insert("resample".to_string(), Tier::BurstBuffer);
        map.insert("input".to_string(), Tier::BurstBuffer);
        let plan = PlacementPolicy::PerCategory(map).plan(&wf);
        let mid = wf.file_by_name("mid").unwrap().id; // produced by resample
        let out = wf.file_by_name("out").unwrap().id; // produced by combine (unmapped)
        assert_eq!(plan.tier(mid), Tier::BurstBuffer);
        assert_eq!(plan.tier(out), Tier::Pfs);
        assert_eq!(
            plan.tier(wf.file_by_name("in0").unwrap().id),
            Tier::BurstBuffer
        );
    }

    #[test]
    fn placement_specs_parse() {
        assert_eq!(PlacementPolicy::parse("allbb"), Ok(PlacementPolicy::AllBb));
        assert_eq!(
            PlacementPolicy::parse("allpfs"),
            Ok(PlacementPolicy::AllPfs)
        );
        assert_eq!(
            PlacementPolicy::parse("fraction:0.5"),
            Ok(PlacementPolicy::FractionToBb { fraction: 0.5 })
        );
        assert_eq!(
            PlacementPolicy::parse("threshold:1e6"),
            Ok(PlacementPolicy::BySizeThreshold { min_bytes: 1e6 })
        );
        for bad in [
            "fraction:2.0",
            "fraction:x",
            "threshold:",
            "magic",
            "allbb:1",
            "",
        ] {
            assert!(PlacementPolicy::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn fraction_out_of_range_panics() {
        let wf = workflow_with_inputs(2);
        let _ = PlacementPolicy::FractionToBb { fraction: 1.5 }.plan(&wf);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Staged byte volume grows monotonically with the fraction.
            #[test]
            fn staged_bytes_monotone(
                n in 1usize..64,
                steps in 2usize..8,
            ) {
                let wf = workflow_with_inputs(n);
                let mut prev = -1.0f64;
                for k in 0..=steps {
                    let fraction = k as f64 / steps as f64;
                    let plan = PlacementPolicy::FractionToBb { fraction }.plan(&wf);
                    let staged: f64 = wf.input_files().iter()
                        .filter(|&&f| plan.tier(f) == Tier::BurstBuffer)
                        .map(|&f| wf.file(f).size)
                        .sum();
                    prop_assert!(staged >= prev);
                    prev = staged;
                }
            }

            /// Every file receives exactly one tier.
            #[test]
            fn plans_cover_all_files(n in 1usize..32, fraction in 0.0f64..=1.0) {
                let wf = workflow_with_inputs(n);
                let plan = PlacementPolicy::FractionToBb { fraction }.plan(&wf);
                prop_assert_eq!(plan.len(), wf.file_count());
            }
        }
    }
}
