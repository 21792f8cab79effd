//! Pinned outputs every run is checked against, under `reference/`:
//!
//! * `sweep.txt` — the makespan of every `paper_sweep` scenario;
//! * `campaigns.txt` — makespan and mean bounded slowdown of every
//!   campaign a campaign workload runs;
//! * `tables/<slug>.csv` — the paper's tables and figures (table1,
//!   fig04–fig11, fig13, fig14), pinned here because the committed
//!   `results/` copies of figures 4, 8, 10 and 11 are stale.
//!
//! All are written by `wfbb-perf write-reference` from the current tree.
//! None depends on `--seed`, which only orders the work, so every run
//! checks against them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::metrics::Outcome;

/// The paper tables and figures a `paper_sweep` run regenerates.
pub const TABLES: &[&str] = &[
    "table1", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig13",
    "fig14",
];

/// The tables a `--quick` run regenerates: the cheapest ones.
const QUICK_TABLES: &[&str] = &["table1", "fig09"];

const FILES: &[&str] = &["sweep", "campaigns"];

pub struct Reference {
    dir: PathBuf,
    entries: BTreeMap<&'static str, BTreeMap<String, f64>>,
}

impl Reference {
    /// The copy compiled next to this binary's sources.
    pub fn default_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("reference")
    }

    pub fn load(dir: &Path) -> Result<Reference, String> {
        let mut entries = BTreeMap::new();
        for file in FILES {
            let path = dir.join(format!("{file}.txt"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut map = BTreeMap::new();
            for (n, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let (key, value) = line
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("{}:{}: expected `key value`", path.display(), n + 1))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("{}:{}: bad number {value:?}", path.display(), n + 1))?;
                map.insert(key.to_string(), value);
            }
            entries.insert(*file, map);
        }
        Ok(Reference {
            dir: dir.to_path_buf(),
            entries,
        })
    }

    /// `None` when `value` is within `rel` of the value pinned for
    /// `key`, else what is wrong.
    pub fn check_close(&self, file: &str, key: &str, value: f64, rel: f64) -> Option<String> {
        match self.entries.get(file).and_then(|m| m.get(key)) {
            Some(&pinned) => {
                let ok = (value - pinned).abs() <= rel * pinned.abs().max(f64::MIN_POSITIVE);
                (!ok).then(|| {
                    format!("{file}/{key}: {value:?} differs from the reference {pinned:?}")
                })
            }
            None => Some(format!("{file}/{key}: no reference value")),
        }
    }
}

/// Regenerates the paper tables (untimed; with `quick`, only the
/// cheapest) and compares each byte for byte with its pinned copy; one
/// check per table.
pub fn check_tables(out: &mut Outcome, reference: &Reference, quick: bool) {
    for name in if quick { QUICK_TABLES } else { TABLES } {
        let run = wfbb_experiments::figures::by_name(name).expect("known experiment");
        for table in run() {
            let path = reference
                .dir
                .join("tables")
                .join(format!("{}.csv", table.slug()));
            let pinned = std::fs::read_to_string(&path).unwrap_or_default();
            out.check(pinned == table.to_csv(), || {
                format!("{name}: {} differs from {}", table.slug(), path.display())
            });
        }
    }
}

/// `wfbb-perf write-reference`: pins the current tree's outputs.
pub fn write_all(dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir.join("tables")).map_err(io)?;

    let mut sweep = String::from("# paper_sweep makespans, seconds (wfbb-perf write-reference)\n");
    for quick in [false, true] {
        for (key, makespan) in crate::sweep::reference_makespans(quick)? {
            let _ = writeln!(sweep, "{key} {makespan:?}");
        }
    }
    let mut sweep_lines: Vec<&str> = sweep.lines().collect();
    sweep_lines[1..].sort_unstable();
    sweep_lines.dedup();
    std::fs::write(dir.join("sweep.txt"), sweep_lines.join("\n") + "\n").map_err(io)?;

    let mut campaigns = String::from(
        "# campaign makespans (s) and mean bounded slowdowns (wfbb-perf write-reference)\n",
    );
    for (key, value) in crate::campaign::reference_values()? {
        let _ = writeln!(campaigns, "{key} {value:?}");
    }
    std::fs::write(dir.join("campaigns.txt"), campaigns).map_err(io)?;

    for name in TABLES {
        let run = wfbb_experiments::figures::by_name(name).expect("known experiment");
        for table in run() {
            std::fs::write(
                dir.join("tables").join(format!("{}.csv", table.slug())),
                table.to_csv(),
            )
            .map_err(io)?;
        }
    }
    Ok(())
}
