//! The paper reproduction pinned byte for byte.
//!
//! Every paper table and figure (Table I, Figs 4–11, 13 and 14) is
//! regenerated in-process and its CSV compared with the committed copy
//! under `results/`. A drift in any simulated or emulated value — a Fig
//! 10/11 error moving in the last printed digit included — fails here
//! instead of passing unnoticed. After an intentional change, regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test fidelity` and account for
//! every changed byte.

use wfbb_experiments::figures;

/// Regenerates experiment `name` and compares each of its tables with
/// `results/<slug>.csv`, rewriting the files first under `UPDATE_GOLDEN`.
fn assert_matches_results(name: &str) {
    let run = figures::by_name(name).expect("paper experiment resolves");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    for table in run() {
        let path = format!("{dir}/{}.csv", table.slug());
        let csv = table.to_csv();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &csv).unwrap();
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path}: {e}; run UPDATE_GOLDEN=1 cargo test --test fidelity")
        });
        assert!(
            csv == expected,
            "{name} drifted from {path}; if intentional, regenerate with \
             UPDATE_GOLDEN=1 and account for the change\n--- regenerated ---\n{csv}"
        );
    }
}

macro_rules! paper_tables {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_matches_results(stringify!($name));
            }
        )*
    };
}

paper_tables!(table1, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig13, fig14);
