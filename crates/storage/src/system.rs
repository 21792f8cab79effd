//! The storage system: location assignment and access-cost construction.
//!
//! [`StorageSystem`] wraps a [`PlatformInstance`] and translates logical
//! file accesses into the fluid activities the engine prices:
//!
//! * every access is an [`AccessPlan`]: an optional **metadata phase** (a
//!   flow of open-operations through the tier's metadata service — the
//!   resource whose saturation makes Cori's striped mode collapse on
//!   many-small-file workloads) followed by one or more **data flows**;
//! * striped files produce one data flow per stripe, each crossing its BB
//!   node, so striping aggregates bandwidth while multiplying metadata
//!   cost — exactly the trade-off the paper observes (good for N:1 large
//!   files, bad for SWarp's 1:N small files);
//! * on-node BB accesses from the owning node never touch the network;
//!   remote on-node reads cross the interconnect (the paper argues such
//!   transfers are cheap, which this model reproduces).

use wfbb_platform::{BbInstance, BbMode, PlatformInstance};
use wfbb_simcore::FlowSpec;

use crate::tier::{Location, StorageKind, Tier};

/// The cost of one file access: a metadata phase (possibly several
/// parallel flows, one per stripe node), then data transfers (run
/// concurrently once all metadata completes).
#[derive(Debug, Clone)]
pub struct AccessPlan {
    /// Metadata flows — open operations through the tier's metadata
    /// service(s). Empty when the tier's metadata cost is negligible
    /// (on-node NVMe).
    pub metadata: Vec<FlowSpec>,
    /// Data transfer flows.
    pub data: Vec<FlowSpec>,
}

impl AccessPlan {
    /// Total bytes moved by the data flows.
    pub fn total_bytes(&self) -> f64 {
        self.data.iter().map(|f| f.amount).sum()
    }
}

/// How the storage system re-places data that would land on a dead BB
/// device (see `docs/failure-model.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailoverPolicy {
    /// Any placement that would touch a dead device is re-routed wholly to
    /// the PFS — the conservative DataWarp-style behavior where a lost
    /// namespace falls back to the always-available tier.
    #[default]
    RerouteToPfs,
    /// Re-place on the surviving BB devices (private namespaces remap,
    /// striped allocations narrow to the remaining width); falls back to
    /// the PFS only when no device survives.
    SurvivingBb,
}

impl FailoverPolicy {
    /// Parses a failover label: `pfs` ([`Self::RerouteToPfs`]) or `bb`
    /// ([`Self::SurvivingBb`]).
    pub fn parse(label: &str) -> Result<FailoverPolicy, String> {
        match label {
            "pfs" => Ok(FailoverPolicy::RerouteToPfs),
            "bb" => Ok(FailoverPolicy::SurvivingBb),
            other => Err(format!("unknown failover policy {other:?} (pfs | bb)")),
        }
    }
}

/// Storage-access planner for one platform.
#[derive(Debug, Clone)]
pub struct StorageSystem {
    /// The underlying platform resources.
    pub platform: PlatformInstance,
    /// Failover policy applied by [`StorageSystem::locate`] when the
    /// natural placement touches a dead device.
    failover: FailoverPolicy,
    /// Liveness of each BB device (all alive until a fault marks one dead).
    dead: Vec<bool>,
}

impl StorageSystem {
    /// Wraps a platform instance (all BB devices alive, default failover).
    pub fn new(platform: PlatformInstance) -> Self {
        let devices = platform.bb_devices();
        StorageSystem {
            platform,
            failover: FailoverPolicy::default(),
            dead: vec![false; devices],
        }
    }

    /// Sets the failover policy consulted by [`StorageSystem::locate`].
    pub fn set_failover(&mut self, policy: FailoverPolicy) {
        self.failover = policy;
    }

    /// The active failover policy.
    pub fn failover(&self) -> FailoverPolicy {
        self.failover
    }

    /// Marks BB device `idx` dead: subsequent placements avoid it per the
    /// failover policy. Idempotent.
    pub fn mark_bb_dead(&mut self, idx: usize) {
        self.dead[idx] = true;
    }

    /// Whether BB device `idx` has been marked dead.
    pub fn bb_is_dead(&self, idx: usize) -> bool {
        self.dead.get(idx).copied().unwrap_or(false)
    }

    /// Whether any BB device has been marked dead.
    pub fn any_bb_dead(&self) -> bool {
        self.dead.iter().any(|&d| d)
    }

    /// Whether a concrete location touches a dead BB device — data there
    /// is lost and accesses to it can never complete.
    pub fn location_is_dead(&self, location: &Location) -> bool {
        match location {
            Location::Pfs => false,
            Location::SharedBb { bb_node } => self.bb_is_dead(*bb_node),
            Location::StripedBb { stripe_nodes } => {
                stripe_nodes.iter().any(|&b| self.bb_is_dead(b))
            }
            Location::OnNodeBb { node } => self.bb_is_dead(*node),
        }
    }

    /// The storage service the platform's BB tier corresponds to.
    pub fn bb_kind(&self) -> StorageKind {
        match &self.platform.bb {
            BbInstance::Shared {
                mode: BbMode::Private,
                ..
            } => StorageKind::SharedBbPrivate,
            BbInstance::Shared {
                mode: BbMode::Striped,
                ..
            } => StorageKind::SharedBbStriped,
            BbInstance::OnNode { .. } => StorageKind::OnNodeBb,
            BbInstance::None => StorageKind::Pfs,
        }
    }

    /// Chooses the concrete location for a file of `size` bytes assigned
    /// to `tier`, written (or staged) by compute node `node`.
    ///
    /// * Shared/private: the writing node's namespace lives on BB node
    ///   `node % bb_nodes`.
    /// * Shared/striped: the file occupies `ceil(size / stripe_unit)`
    ///   stripes (at least one, capped by the allocation width), placed
    ///   round-robin starting from the writer's namespace node — small
    ///   files are never spread over many nodes, matching DataWarp's
    ///   granularity.
    /// * On-node: the writing node's local device.
    /// * Platforms without a BB silently degrade `BurstBuffer` to the PFS
    ///   (the PFS-only baseline).
    ///
    /// When the natural placement touches a dead BB device the
    /// [`FailoverPolicy`] decides: re-route to the PFS, or re-place on the
    /// surviving devices (PFS when none survive).
    pub fn locate(&self, tier: Tier, node: usize, size: f64) -> Location {
        let natural = self.natural_location(tier, node, size);
        if !self.location_is_dead(&natural) {
            return natural;
        }
        match self.failover {
            FailoverPolicy::RerouteToPfs => Location::Pfs,
            FailoverPolicy::SurvivingBb => self.surviving_location(node, size),
        }
    }

    /// The placement ignoring device liveness (the pre-fault geometry).
    fn natural_location(&self, tier: Tier, node: usize, size: f64) -> Location {
        match tier {
            Tier::Pfs => Location::Pfs,
            Tier::BurstBuffer => match &self.platform.bb {
                BbInstance::Shared {
                    disks,
                    mode: BbMode::Private,
                    ..
                } => Location::SharedBb {
                    bb_node: node % disks.len(),
                },
                BbInstance::Shared {
                    disks,
                    mode: BbMode::Striped,
                    ..
                } => {
                    let width = disks.len();
                    let unit = self.platform.spec.stripe_unit;
                    let stripes = ((size / unit).ceil() as usize).clamp(1, width);
                    let start = node % width;
                    Location::StripedBb {
                        stripe_nodes: (0..stripes).map(|k| (start + k) % width).collect(),
                    }
                }
                BbInstance::OnNode { .. } => Location::OnNodeBb { node },
                BbInstance::None => Location::Pfs,
            },
        }
    }

    /// Re-places a BB allocation on the surviving devices ([`FailoverPolicy::SurvivingBb`]).
    fn surviving_location(&self, node: usize, size: f64) -> Location {
        let alive: Vec<usize> = (0..self.dead.len()).filter(|&i| !self.dead[i]).collect();
        if alive.is_empty() {
            return Location::Pfs;
        }
        match &self.platform.bb {
            BbInstance::Shared {
                mode: BbMode::Private,
                ..
            } => Location::SharedBb {
                bb_node: alive[node % alive.len()],
            },
            BbInstance::Shared {
                mode: BbMode::Striped,
                ..
            } => {
                let width = alive.len();
                let unit = self.platform.spec.stripe_unit;
                let stripes = ((size / unit).ceil() as usize).clamp(1, width);
                let start = node % width;
                Location::StripedBb {
                    stripe_nodes: (0..stripes).map(|k| alive[(start + k) % width]).collect(),
                }
            }
            BbInstance::OnNode { .. } => Location::OnNodeBb {
                node: alive[node % alive.len()],
            },
            BbInstance::None => Location::Pfs,
        }
    }

    /// Metadata flows for accessing a file at `location`: one op on the
    /// PFS metadata service, one op on a private namespace's BB node, or
    /// one op on **each stripe's** BB node (in parallel) for striped
    /// files.
    fn metadata_flows(&self, location: &Location) -> Vec<FlowSpec> {
        let lat = &self.platform.spec.latency;
        match location {
            Location::Pfs => {
                vec![FlowSpec::new(1.0, vec![self.platform.pfs_meta]).with_latency(lat.network)]
            }
            Location::SharedBb { bb_node } => {
                let metas = self
                    .platform
                    .shared_bb_metas()
                    .expect("shared BB location on platform with shared BB");
                vec![FlowSpec::new(1.0, vec![metas[*bb_node]]).with_latency(lat.network)]
            }
            Location::StripedBb { stripe_nodes } => {
                let metas = self
                    .platform
                    .shared_bb_metas()
                    .expect("striped BB location on platform with shared BB");
                stripe_nodes
                    .iter()
                    .map(|&b| FlowSpec::new(1.0, vec![metas[b]]).with_latency(lat.network))
                    .collect()
            }
            // Local NVMe metadata is effectively free; modeled as the fixed
            // per-file latency on the data flow instead.
            Location::OnNodeBb { .. } => Vec::new(),
        }
    }

    /// Plans a read of `size` bytes from `location` by compute node
    /// `reader_node`.
    pub fn read_flows(&self, size: f64, location: &Location, reader_node: usize) -> AccessPlan {
        let lat = &self.platform.spec.latency;
        let data = match location {
            Location::Pfs => vec![
                FlowSpec::new(size, self.platform.route_node_pfs(reader_node))
                    .with_latency(lat.network + lat.pfs_per_file),
            ],
            Location::SharedBb { bb_node } => vec![FlowSpec::new(
                size,
                self.platform.route_node_shared_bb(reader_node, *bb_node),
            )
            .with_latency(lat.network + lat.bb_private_per_file)],
            Location::StripedBb { stripe_nodes } => {
                let k = stripe_nodes.len() as f64;
                stripe_nodes
                    .iter()
                    .map(|&b| {
                        FlowSpec::new(size / k, self.platform.route_node_shared_bb(reader_node, b))
                            .with_latency(lat.network + lat.bb_striped_per_stripe)
                    })
                    .collect()
            }
            Location::OnNodeBb { node } => {
                if *node == reader_node {
                    vec![
                        FlowSpec::new(size, self.platform.route_node_local_bb(*node))
                            .with_latency(lat.bb_onnode_per_file),
                    ]
                } else {
                    // Remote read from another node's local BB: cross both
                    // NICs and the fabric to reach the owner's device.
                    let mut route = vec![
                        self.platform.node_nic[reader_node],
                        self.platform.interconnect,
                        self.platform.node_nic[*node],
                    ];
                    route.extend(self.platform.route_node_local_bb(*node));
                    vec![FlowSpec::new(size, route)
                        .with_latency(lat.network + lat.bb_onnode_per_file)]
                }
            }
        };
        AccessPlan {
            metadata: self.metadata_flows(location),
            data,
        }
    }

    /// Plans a write of `size` bytes to `location` by compute node
    /// `writer_node`. Writes are modeled symmetrically to reads (the fluid
    /// model does not distinguish direction).
    pub fn write_flows(&self, size: f64, location: &Location, writer_node: usize) -> AccessPlan {
        self.read_flows(size, location, writer_node)
    }

    /// Plans the stage-in of `size` bytes from the staging source into
    /// `location`, performed by compute node `node` (the paper's stage-in
    /// task copies input files one at a time through the compute node).
    pub fn stage_in_flows(&self, size: f64, location: &Location, node: usize) -> AccessPlan {
        let lat = &self.platform.spec.latency;
        let src = self.platform.route_stage_to_node(node);
        let data = match location {
            Location::Pfs => {
                // Files left on the PFS are already there; staging them is
                // free (the paper's stage-in time goes to ~0 at 0 % staged).
                vec![]
            }
            Location::SharedBb { bb_node } => {
                let mut route = src;
                route.extend(self.platform.route_node_shared_bb(node, *bb_node));
                vec![FlowSpec::new(size, dedup(route))
                    .with_latency(lat.network + lat.bb_private_per_file)]
            }
            Location::StripedBb { stripe_nodes } => {
                let k = stripe_nodes.len() as f64;
                stripe_nodes
                    .iter()
                    .map(|&b| {
                        let mut route = src.clone();
                        route.extend(self.platform.route_node_shared_bb(node, b));
                        FlowSpec::new(size / k, dedup(route))
                            .with_latency(lat.network + lat.bb_striped_per_stripe)
                    })
                    .collect()
            }
            Location::OnNodeBb { node: owner } => {
                let mut route = src;
                route.extend(self.platform.route_node_local_bb(*owner));
                vec![FlowSpec::new(size, dedup(route)).with_latency(lat.bb_onnode_per_file)]
            }
        };
        let metadata = if data.is_empty() {
            Vec::new()
        } else {
            self.metadata_flows(location)
        };
        AccessPlan { metadata, data }
    }
}

/// Removes duplicate resources from a route while preserving order (e.g.
/// the NIC appearing in both the staging and BB halves of a route).
fn dedup(route: Vec<wfbb_simcore::ResourceId>) -> Vec<wfbb_simcore::ResourceId> {
    let mut seen = std::collections::HashSet::new();
    route.into_iter().filter(|r| seen.insert(*r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbb_platform::{presets, BbMode};
    use wfbb_simcore::Engine;

    #[test]
    fn failover_labels_parse() {
        assert_eq!(
            FailoverPolicy::parse("pfs"),
            Ok(FailoverPolicy::RerouteToPfs)
        );
        assert_eq!(FailoverPolicy::parse("bb"), Ok(FailoverPolicy::SurvivingBb));
        assert!(FailoverPolicy::parse("nvme").is_err());
    }

    fn system(spec: wfbb_platform::PlatformSpec) -> (Engine<u32>, StorageSystem) {
        let mut engine: Engine<u32> = Engine::new();
        let inst = spec.instantiate(&mut engine);
        (engine, StorageSystem::new(inst))
    }

    #[test]
    fn bb_kinds_follow_architecture() {
        let (_, s) = system(presets::cori(1, BbMode::Private));
        assert_eq!(s.bb_kind(), StorageKind::SharedBbPrivate);
        let (_, s) = system(presets::cori(1, BbMode::Striped));
        assert_eq!(s.bb_kind(), StorageKind::SharedBbStriped);
        let (_, s) = system(presets::summit(1));
        assert_eq!(s.bb_kind(), StorageKind::OnNodeBb);
        let (_, s) = system(presets::generic(1));
        assert_eq!(s.bb_kind(), StorageKind::Pfs);
    }

    #[test]
    fn locate_private_maps_namespaces_round_robin() {
        let (_, s) = system(presets::cori(3, BbMode::Private));
        assert_eq!(
            s.locate(Tier::BurstBuffer, 0, 100e6),
            Location::SharedBb { bb_node: 0 }
        );
        assert_eq!(
            s.locate(Tier::BurstBuffer, 2, 100e6),
            Location::SharedBb { bb_node: 0 }
        );
        assert_eq!(s.locate(Tier::Pfs, 1, 100e6), Location::Pfs);
    }

    #[test]
    fn locate_striped_uses_all_bb_nodes() {
        let (_, s) = system(presets::cori(1, BbMode::Striped));
        match s.locate(Tier::BurstBuffer, 0, 100e6) {
            Location::StripedBb { stripe_nodes } => {
                assert_eq!(stripe_nodes.len(), presets::CORI_STRIPE_NODES)
            }
            other => panic!("expected striped location, got {other:?}"),
        }
    }

    #[test]
    fn locate_on_node_uses_writer_node() {
        let (_, s) = system(presets::summit(4));
        assert_eq!(
            s.locate(Tier::BurstBuffer, 3, 100e6),
            Location::OnNodeBb { node: 3 }
        );
    }

    #[test]
    fn locate_degrades_to_pfs_without_bb() {
        let (_, s) = system(presets::generic(1));
        assert_eq!(s.locate(Tier::BurstBuffer, 0, 100e6), Location::Pfs);
    }

    #[test]
    fn pfs_read_pays_metadata_and_crosses_network() {
        let (_, s) = system(presets::cori(1, BbMode::Private));
        let plan = s.read_flows(1e6, &Location::Pfs, 0);
        assert_eq!(plan.metadata.len(), 1, "PFS reads pay metadata");
        assert_eq!(plan.metadata[0].amount, 1.0);
        assert_eq!(plan.data.len(), 1);
        assert_eq!(plan.data[0].route.len(), 4);
        assert_eq!(plan.total_bytes(), 1e6);
    }

    #[test]
    fn striped_read_splits_bytes_and_multiplies_metadata() {
        let (_, s) = system(presets::cori(1, BbMode::Striped));
        let loc = s.locate(Tier::BurstBuffer, 0, 100e6);
        let plan = s.read_flows(1e6, &loc, 0);
        assert_eq!(plan.data.len(), presets::CORI_STRIPE_NODES);
        // One 1-op metadata flow per stripe, each on its own BB node.
        assert_eq!(plan.metadata.len(), presets::CORI_STRIPE_NODES);
        let meta_routes: std::collections::HashSet<_> =
            plan.metadata.iter().map(|m| m.route[0]).collect();
        assert_eq!(meta_routes.len(), presets::CORI_STRIPE_NODES);
        assert!((plan.total_bytes() - 1e6).abs() < 1e-6);
        // Stripes hit distinct BB nodes.
        let first_routes: std::collections::HashSet<_> =
            plan.data.iter().map(|f| f.route[2]).collect();
        assert_eq!(first_routes.len(), presets::CORI_STRIPE_NODES);
    }

    #[test]
    fn local_bb_read_has_no_metadata_and_no_network() {
        let (_, s) = system(presets::summit(2));
        let plan = s.read_flows(1e6, &Location::OnNodeBb { node: 1 }, 1);
        assert!(plan.metadata.is_empty());
        assert_eq!(plan.data.len(), 1);
        assert_eq!(plan.data[0].route.len(), 2);
    }

    #[test]
    fn remote_on_node_read_crosses_fabric() {
        let (_, s) = system(presets::summit(2));
        let plan = s.read_flows(1e6, &Location::OnNodeBb { node: 0 }, 1);
        assert_eq!(plan.data.len(), 1);
        assert!(plan.data[0].route.contains(&s.platform.interconnect));
        assert!(plan.data[0].route.len() > 2);
    }

    #[test]
    fn stage_in_to_pfs_is_free() {
        let (_, s) = system(presets::cori(1, BbMode::Private));
        let plan = s.stage_in_flows(1e6, &Location::Pfs, 0);
        assert!(plan.data.is_empty());
        assert!(plan.metadata.is_empty());
    }

    #[test]
    fn stage_in_to_bb_moves_all_bytes() {
        let (_, s) = system(presets::cori(1, BbMode::Private));
        let loc = s.locate(Tier::BurstBuffer, 0, 100e6);
        let plan = s.stage_in_flows(1e6, &loc, 0);
        assert!((plan.total_bytes() - 1e6).abs() < 1e-6);
        assert!(!plan.metadata.is_empty());
        // Route starts at the staging source.
        assert_eq!(plan.data[0].route[0], s.platform.stage_source);
    }

    #[test]
    fn stage_in_routes_have_no_duplicate_resources() {
        for spec in presets::paper_configs(2) {
            let (_, s) = system(spec);
            let loc = s.locate(Tier::BurstBuffer, 1, 100e6);
            let plan = s.stage_in_flows(1e6, &loc, 1);
            for f in &plan.data {
                let set: std::collections::HashSet<_> = f.route.iter().collect();
                assert_eq!(
                    set.len(),
                    f.route.len(),
                    "route has duplicates: {:?}",
                    f.route
                );
            }
        }
    }

    #[test]
    fn writes_are_priced_like_reads() {
        let (_, s) = system(presets::cori(1, BbMode::Private));
        let loc = s.locate(Tier::BurstBuffer, 0, 100e6);
        let read = s.read_flows(5e6, &loc, 0);
        let write = s.write_flows(5e6, &loc, 0);
        assert_eq!(read.data.len(), write.data.len());
        assert_eq!(read.data[0].route, write.data[0].route);
        assert_eq!(read.data[0].latency, write.data[0].latency);
    }

    #[test]
    fn metadata_flows_target_the_right_service() {
        let (_, s) = system(presets::cori(1, BbMode::Striped));
        let pfs_meta = &s.read_flows(1e6, &Location::Pfs, 0).metadata[0];
        assert_eq!(pfs_meta.route, vec![s.platform.pfs_meta]);
        let bb_loc = s.locate(Tier::BurstBuffer, 0, 100e6);
        let bb_meta = &s.read_flows(1e6, &bb_loc, 0).metadata[0];
        let metas = s.platform.shared_bb_metas().unwrap();
        assert!(metas.contains(&bb_meta.route[0]));
        assert_ne!(pfs_meta.route, bb_meta.route);
    }

    #[test]
    fn private_namespaces_rotate_across_bb_nodes() {
        // With more BB nodes than one, different compute nodes land on
        // different namespaces.
        let mut spec = presets::cori(4, BbMode::Private);
        spec.bb = wfbb_platform::BbArchitecture::Shared {
            bb_nodes: 2,
            mode: BbMode::Private,
        };
        let (_, s) = system(spec);
        assert_eq!(
            s.locate(Tier::BurstBuffer, 0, 100e6),
            Location::SharedBb { bb_node: 0 }
        );
        assert_eq!(
            s.locate(Tier::BurstBuffer, 1, 100e6),
            Location::SharedBb { bb_node: 1 }
        );
        assert_eq!(
            s.locate(Tier::BurstBuffer, 2, 100e6),
            Location::SharedBb { bb_node: 0 }
        );
    }

    #[test]
    fn access_plan_total_bytes_matches_request() {
        for spec in presets::paper_configs(1) {
            let (_, s) = system(spec);
            let loc = s.locate(Tier::BurstBuffer, 0, 100e6);
            for size in [0.0, 1.0, 123456.0, 2e9] {
                let plan = s.read_flows(size, &loc, 0);
                assert!(
                    (plan.total_bytes() - size).abs() < 1e-6 * size.max(1.0),
                    "{}: {} != {}",
                    s.platform.spec.name,
                    plan.total_bytes(),
                    size
                );
            }
        }
    }

    #[test]
    fn stripe_count_follows_file_size() {
        let (_, s) = system(presets::cori(1, BbMode::Striped));
        let unit = s.platform.spec.stripe_unit;
        // A sub-unit file occupies one stripe.
        match s.locate(Tier::BurstBuffer, 0, unit / 2.0) {
            Location::StripedBb { stripe_nodes } => assert_eq!(stripe_nodes.len(), 1),
            other => panic!("expected striped location, got {other:?}"),
        }
        // A 2.5-unit file occupies three stripes.
        match s.locate(Tier::BurstBuffer, 0, 2.5 * unit) {
            Location::StripedBb { stripe_nodes } => assert_eq!(stripe_nodes.len(), 3),
            other => panic!("expected striped location, got {other:?}"),
        }
        // A giant file is capped at the allocation width.
        match s.locate(Tier::BurstBuffer, 0, 1e12) {
            Location::StripedBb { stripe_nodes } => {
                assert_eq!(stripe_nodes.len(), presets::CORI_STRIPE_NODES)
            }
            other => panic!("expected striped location, got {other:?}"),
        }
    }

    #[test]
    fn stripe_placement_rotates_with_the_writer_node() {
        let (_, s) = system(presets::cori(presets::CORI_STRIPE_NODES, BbMode::Striped));
        let unit = s.platform.spec.stripe_unit;
        let from = |node: usize| match s.locate(Tier::BurstBuffer, node, unit / 2.0) {
            Location::StripedBb { stripe_nodes } => stripe_nodes[0],
            other => panic!("expected striped location, got {other:?}"),
        };
        assert_ne!(from(0), from(1), "different writers spread their stripes");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For every architecture, any access conserves bytes and
            /// produces between 1 and width stripes.
            #[test]
            fn access_plans_are_well_formed(
                size in 1.0f64..5e9,
                node in 0usize..2,
                config in 0usize..3,
            ) {
                let spec = presets::paper_configs(2).swap_remove(config);
                let (_, s) = system(spec);
                let loc = s.locate(Tier::BurstBuffer, node, size);
                if let Location::StripedBb { stripe_nodes } = &loc {
                    prop_assert!(!stripe_nodes.is_empty());
                    prop_assert!(stripe_nodes.len() <= presets::CORI_STRIPE_NODES);
                    let distinct: std::collections::HashSet<_> =
                        stripe_nodes.iter().collect();
                    prop_assert_eq!(distinct.len(), stripe_nodes.len(),
                        "stripes land on distinct BB nodes");
                }
                let plan = s.read_flows(size, &loc, node);
                prop_assert!((plan.total_bytes() - size).abs() < 1e-6 * size);
                for flow in &plan.data {
                    prop_assert!(flow.latency >= 0.0);
                    prop_assert!(!flow.route.is_empty());
                }
            }
        }
    }

    #[test]
    fn dead_device_reroutes_to_pfs_by_default() {
        let mut spec = presets::cori(4, BbMode::Private);
        spec.bb = wfbb_platform::BbArchitecture::Shared {
            bb_nodes: 2,
            mode: BbMode::Private,
        };
        let (_, mut s) = system(spec);
        assert_eq!(s.failover(), FailoverPolicy::RerouteToPfs);
        let before = s.locate(Tier::BurstBuffer, 0, 1e6);
        assert_eq!(before, Location::SharedBb { bb_node: 0 });
        s.mark_bb_dead(0);
        assert!(s.bb_is_dead(0) && s.any_bb_dead());
        assert!(s.location_is_dead(&before));
        // Node 0's namespace died: its placements go to the PFS; node 1's
        // namespace (device 1) is untouched.
        assert_eq!(s.locate(Tier::BurstBuffer, 0, 1e6), Location::Pfs);
        assert_eq!(
            s.locate(Tier::BurstBuffer, 1, 1e6),
            Location::SharedBb { bb_node: 1 }
        );
    }

    #[test]
    fn surviving_bb_policy_remaps_private_namespaces() {
        let mut spec = presets::cori(4, BbMode::Private);
        spec.bb = wfbb_platform::BbArchitecture::Shared {
            bb_nodes: 2,
            mode: BbMode::Private,
        };
        let (_, mut s) = system(spec);
        s.set_failover(FailoverPolicy::SurvivingBb);
        s.mark_bb_dead(0);
        assert_eq!(
            s.locate(Tier::BurstBuffer, 0, 1e6),
            Location::SharedBb { bb_node: 1 },
            "dead namespace remaps to the survivor"
        );
        s.mark_bb_dead(1);
        assert_eq!(
            s.locate(Tier::BurstBuffer, 0, 1e6),
            Location::Pfs,
            "no survivors: PFS"
        );
    }

    #[test]
    fn surviving_bb_policy_narrows_striped_allocations() {
        let (_, mut s) = system(presets::cori(1, BbMode::Striped));
        s.set_failover(FailoverPolicy::SurvivingBb);
        s.mark_bb_dead(1);
        match s.locate(Tier::BurstBuffer, 0, 1e12) {
            Location::StripedBb { stripe_nodes } => {
                assert_eq!(stripe_nodes.len(), presets::CORI_STRIPE_NODES - 1);
                assert!(!stripe_nodes.contains(&1), "dead stripe node excluded");
            }
            other => panic!("expected striped location, got {other:?}"),
        }
    }

    #[test]
    fn dead_striped_location_detected_by_any_stripe() {
        let (_, mut s) = system(presets::cori(1, BbMode::Striped));
        let loc = s.locate(Tier::BurstBuffer, 0, 1e12);
        s.mark_bb_dead(2);
        assert!(s.location_is_dead(&loc));
        assert!(!s.location_is_dead(&Location::Pfs));
    }

    #[test]
    fn on_node_failover_avoids_the_dead_device() {
        let (_, mut s) = system(presets::summit(3));
        s.mark_bb_dead(1);
        assert_eq!(s.locate(Tier::BurstBuffer, 1, 1e6), Location::Pfs);
        s.set_failover(FailoverPolicy::SurvivingBb);
        match s.locate(Tier::BurstBuffer, 1, 1e6) {
            Location::OnNodeBb { node } => assert_ne!(node, 1),
            other => panic!("expected on-node location, got {other:?}"),
        }
    }

    #[test]
    fn striped_latency_exceeds_private_latency() {
        let (_, priv_s) = system(presets::cori(1, BbMode::Private));
        let (_, stri_s) = system(presets::cori(1, BbMode::Striped));
        let pl = priv_s.read_flows(1e6, &priv_s.locate(Tier::BurstBuffer, 0, 100e6), 0);
        let sl = stri_s.read_flows(1e6, &stri_s.locate(Tier::BurstBuffer, 0, 100e6), 0);
        assert!(sl.data[0].latency > pl.data[0].latency);
    }
}
