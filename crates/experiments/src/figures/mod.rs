//! One module per reproduced table/figure.

pub mod ablation;
pub mod bbnodes;
pub mod bigfiles;
pub mod campaign;
pub mod checkpoint_economics;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod heuristics;
pub mod optimality;
pub mod plan_scheduling;
pub mod refit;
pub mod resilience;
pub mod scaling;
pub mod table1;

use crate::table::Table;

/// Known experiment names: the paper's tables/figures in order, then the
/// extension experiments (placement heuristics, model ablation).
pub const NAMES: [&str; 22] = [
    "table1",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "heuristics",
    "ablation",
    "bigfiles",
    "scaling",
    "optimality",
    "refit",
    "bbnodes",
    "resilience",
    "campaign",
    "plan_scheduling",
    "checkpoint_economics",
];

/// Resolves an experiment name to its runner.
pub fn by_name(name: &str) -> Option<fn() -> Vec<Table>> {
    match name {
        "table1" => Some(table1::run),
        "fig04" => Some(fig04::run),
        "fig05" => Some(fig05::run),
        "fig06" => Some(fig06::run),
        "fig07" => Some(fig07::run),
        "fig08" => Some(fig08::run),
        "fig09" => Some(fig09::run),
        "fig10" => Some(fig10::run),
        "fig11" => Some(fig11::run),
        "fig13" => Some(fig13::run),
        "fig14" => Some(fig14::run),
        "heuristics" => Some(heuristics::run),
        "ablation" => Some(ablation::run),
        "bigfiles" => Some(bigfiles::run),
        "scaling" => Some(scaling::run),
        "optimality" => Some(optimality::run),
        "refit" => Some(refit::run),
        "bbnodes" => Some(bbnodes::run),
        "resilience" => Some(resilience::run),
        "campaign" => Some(campaign::run),
        "plan_scheduling" => Some(plan_scheduling::run),
        "checkpoint_economics" => Some(checkpoint_economics::run),
        _ => None,
    }
}
