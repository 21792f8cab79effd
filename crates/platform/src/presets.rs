//! Calibrated platform presets.
//!
//! The Cori and Summit presets encode the paper's Table I verbatim:
//!
//! | | Proc. speed | BB network | BB disk | PFS network | PFS disk |
//! |---|---|---|---|---|---|
//! | Cori | 36.80 GFlop/s/core | 800 MB/s | 950 MB/s | 1.0 GB/s | 100 MB/s |
//! | Summit | 49.12 GFlop/s/core | 6.5 GB/s | 3.3 GB/s | 2.1 GB/s | 100 MB/s |
//!
//! Remaining parameters (NIC and fabric bandwidths, per-file latencies, the
//! staging-source bandwidth) are calibration choices documented in
//! DESIGN.md; they are set so that the relative behaviors of Section III of
//! the paper are reproduced, and they are deliberately identical across
//! presets except where an architectural difference demands otherwise.

use crate::latency::LatencyProfile;
use crate::spec::{BbArchitecture, BbMode, PlatformSpec};
use crate::units::*;

/// Number of BB nodes in a default striped Cori allocation (files are
/// striped over all of them).
pub const CORI_STRIPE_NODES: usize = 4;

/// Largest compute-node count the input parsers accept for a preset. The
/// presets allocate per node, so an unchecked count from a request or a
/// flag could exhaust memory and abort the process.
pub const MAX_NODES: usize = 65_536;

/// Cori (NERSC): Cray XC40 Haswell partition with remote shared burst
/// buffers (Cray DataWarp).
///
/// `mode` selects the DataWarp allocation mode. Private allocations use a
/// single BB node (one namespace per compute node on that node); striped
/// allocations spread files over [`CORI_STRIPE_NODES`] BB nodes.
pub fn cori(compute_nodes: usize, mode: BbMode) -> PlatformSpec {
    let bb_nodes = match mode {
        BbMode::Private => 1,
        BbMode::Striped => CORI_STRIPE_NODES,
    };
    // DataWarp metadata throughput: the private mode's per-node namespaces
    // make metadata cheap; the striped mode funnels per-stripe opens through
    // a shared metadata service (Section III-D of the paper observes
    // metadata-bound behavior and up to two orders of magnitude slowdowns).
    let bb_meta_ops = match mode {
        BbMode::Private => 200.0,
        // Per-BB-node rate: striped opens hit every stripe's node in
        // parallel, so the per-node service must be slow enough to
        // reproduce the measured collapse on many-small-file workloads.
        BbMode::Striped => 4.0,
    };
    PlatformSpec {
        name: format!("cori-{}", mode.label()),
        compute_nodes,
        cores_per_node: 32,
        gflops_per_core: 36.80,
        nic_bw: 8.0 * GB,
        interconnect_bw: 45.0 * GB,
        bb: BbArchitecture::Shared { bb_nodes, mode },
        bb_network_bw: 800.0 * MB,
        bb_disk_bw: 950.0 * MB,
        pfs_network_bw: 1.0 * GB,
        pfs_disk_bw: 100.0 * MB,
        stage_source_bw: 12.8 * GB,
        // 8 cores saturate the 800 MB/s BB path: Figure 6's Cori plateau.
        io_core_bw: 100.0 * MB,
        // Each DataWarp node exposes ~6.4 TB of usable flash.
        bb_capacity: 6.4 * TB,
        pfs_meta_ops: 100.0,
        bb_meta_ops,
        // DataWarp's default striping granularity.
        stripe_unit: 8.0 * 1024.0 * 1024.0,
        latency: LatencyProfile::default(),
    }
}

/// Summit (ORNL): IBM AC922 nodes with an on-node NVMe burst buffer
/// (Samsung PM1725a) per compute node.
pub fn summit(compute_nodes: usize) -> PlatformSpec {
    PlatformSpec {
        name: "summit-onnode".to_string(),
        compute_nodes,
        cores_per_node: 42,
        gflops_per_core: 49.12,
        nic_bw: 12.5 * GB,
        interconnect_bw: 115.0 * GB,
        bb: BbArchitecture::OnNode,
        bb_network_bw: 6.5 * GB,
        bb_disk_bw: 3.3 * GB,
        pfs_network_bw: 2.1 * GB,
        pfs_disk_bw: 100.0 * MB,
        stage_source_bw: 12.8 * GB,
        // 16 cores saturate the 3.3 GB/s NVMe device: Figure 6's Summit
        // plateau.
        io_core_bw: 210.0 * MB,
        // One 1.6 TB Samsung PM1725a per compute node.
        bb_capacity: 1.6 * TB,
        pfs_meta_ops: 100.0,
        // Local NVMe metadata is effectively free compared to a remote
        // shared service.
        bb_meta_ops: 5000.0,
        stripe_unit: 8.0 * 1024.0 * 1024.0,
        latency: LatencyProfile {
            // Local NVMe: no remote metadata server on the BB path.
            bb_onnode_per_file: 0.001,
            ..LatencyProfile::default()
        },
    }
}

/// A small generic cluster without burst buffers, useful for examples and
/// tests of the PFS-only baseline.
pub fn generic(compute_nodes: usize) -> PlatformSpec {
    PlatformSpec {
        name: "generic-pfs".to_string(),
        compute_nodes,
        cores_per_node: 16,
        gflops_per_core: 20.0,
        nic_bw: 10.0 * GB,
        interconnect_bw: 40.0 * GB,
        bb: BbArchitecture::None,
        bb_network_bw: 1.0 * GB,
        bb_disk_bw: 1.0 * GB,
        pfs_network_bw: 1.0 * GB,
        pfs_disk_bw: 100.0 * MB,
        stage_source_bw: 12.8 * GB,
        io_core_bw: 100.0 * MB,
        bb_capacity: 1.0 * TB,
        pfs_meta_ops: 100.0,
        bb_meta_ops: 500.0,
        stripe_unit: 8.0 * 1024.0 * 1024.0,
        latency: LatencyProfile::default(),
    }
}

/// The three platform configurations studied throughout the paper, in the
/// order the figures present them: Cori/private, Cori/striped,
/// Summit/on-node.
pub fn paper_configs(compute_nodes: usize) -> Vec<PlatformSpec> {
    vec![
        cori(compute_nodes, BbMode::Private),
        cori(compute_nodes, BbMode::Striped),
        summit(compute_nodes),
    ]
}

/// Every label [`by_name`] accepts, in the order error messages list them.
pub const NAMES: [&str; 6] = [
    "cori",
    "cori:private",
    "cori:striped",
    "summit",
    "summit:onnode",
    "generic",
];

/// The preset a platform label names, scaled to `compute_nodes`: `cori`
/// and `cori:private` are Cori with private BB allocations,
/// `cori:striped` is Cori with striped ones, `summit` and
/// `summit:onnode` are Summit, and `generic` is [`generic`]. `None` for
/// any other label.
pub fn by_name(name: &str, compute_nodes: usize) -> Option<PlatformSpec> {
    match name {
        "cori" | "cori:private" => Some(cori(compute_nodes, BbMode::Private)),
        "cori:striped" => Some(cori(compute_nodes, BbMode::Striped)),
        "summit" | "summit:onnode" => Some(summit(compute_nodes)),
        "generic" => Some(generic(compute_nodes)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves_and_nothing_else_does() {
        for name in NAMES {
            assert_eq!(by_name(name, 2).expect(name).compute_nodes, 2);
        }
        assert!(by_name("/tmp/platform.json", 1).is_none());
        assert!(by_name("", 1).is_none());
    }

    #[test]
    fn cori_private_uses_one_bb_node() {
        match cori(1, BbMode::Private).bb {
            BbArchitecture::Shared { bb_nodes, mode } => {
                assert_eq!(bb_nodes, 1);
                assert_eq!(mode, BbMode::Private);
            }
            _ => panic!("Cori must use a shared BB"),
        }
    }

    #[test]
    fn cori_striped_spreads_over_multiple_bb_nodes() {
        match cori(1, BbMode::Striped).bb {
            BbArchitecture::Shared { bb_nodes, .. } => assert_eq!(bb_nodes, CORI_STRIPE_NODES),
            _ => panic!("Cori must use a shared BB"),
        }
    }

    #[test]
    fn summit_is_on_node() {
        assert_eq!(summit(3).bb, BbArchitecture::OnNode);
        assert_eq!(summit(3).compute_nodes, 3);
    }

    #[test]
    fn paper_configs_cover_the_three_architectures() {
        let configs = paper_configs(1);
        let labels: Vec<&str> = configs.iter().map(|c| c.bb.label()).collect();
        assert_eq!(labels, vec!["private", "striped", "on-node"]);
        for c in &configs {
            c.validate().unwrap();
        }
    }

    #[test]
    fn summit_bb_is_faster_than_cori_bb() {
        let c = cori(1, BbMode::Private);
        let s = summit(1);
        assert!(s.bb_disk_bw > c.bb_disk_bw);
        assert!(s.latency.bb_onnode_per_file < c.latency.bb_private_per_file);
    }
}
