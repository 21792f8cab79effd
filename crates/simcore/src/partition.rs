//! Connected-component decomposition of the fair-share solve.
//!
//! One epoch of progressive filling ([`crate::fairshare::solve_into`])
//! freezes entries level by level: every round scans *all* entries and
//! *all* resources to find the next global fill level. A campaign of
//! concurrent jobs mostly runs on disjoint resource groups (each job's
//! compute nodes, its carved burst-buffer share), so the monolithic solve
//! pays roughly one round per *distinct* saturation level — one per busy
//! node group — and every round rescans the whole platform. That is the
//! quadratic the ROADMAP's "raw speed" item points at.
//!
//! This module splits the entry set into connected components over shared
//! resources (union-find over each entry's route) and solves every
//! component as an independent sub-problem:
//!
//! * **Arena/SoA entry tables.** Entries are ingested once into flat
//!   parallel arrays (`route_start`/`route_len` into one route arena, plus
//!   caps and weights), so component discovery and bucketing walk dense
//!   memory instead of re-running the engine's flow-map iterators.
//! * **Local compaction.** Each component is renumbered into a dense local
//!   resource space (`global → local` map plus a local capacity vector),
//!   so a 4-entry component solves over its 5 resources, not the whole
//!   platform's.
//! * **Component-result reuse.** An engine event usually perturbs one or
//!   two components (a flow completed, a job spawned work) and leaves the
//!   other hundred untouched. Each component's sub-problem is hashed into
//!   a content key — member weights, caps, routes by *global* resource id,
//!   and the capacities of those resources — and looked up in the memo of
//!   the previous solve. On an exact key match the previous rates and
//!   bindings are copied back verbatim: [`crate::fairshare::solve_into`]
//!   is a pure function of exactly the hashed inputs, so reuse is
//!   bit-for-bit identical to re-solving (hash collisions are guarded by
//!   a full key comparison). Only missed components are (re-)solved.
//!
//! # Determinism
//!
//! The engine's fork replay contract promises bitwise-identical
//! event streams, and the campaign scheduler's speculative rollouts rely
//! on it. Components are discovered by a deterministic union-find sweep
//! over the entry list and indexed in order of first appearance, and each
//! component's local resource numbering follows its own entries in entry
//! order. The same input therefore always performs the same `f64`
//! operations in the same order.
//!
//! # Relation to the monolithic solve
//!
//! [`crate::SolveMode::Incremental`] solves by components;
//! [`crate::SolveMode::Naive`] keeps the monolithic
//! [`crate::fairshare::solve_into`] as the reference. The two are not
//! bit-for-bit equal: the monolithic solve freezes entries against a
//! *global* fill level with a relative tie tolerance (~1e-12), so two
//! components whose levels land within that tolerance of each other can
//! couple through it. Exact ties behave identically (the frozen rate is
//! `cap.min(level)` either way), and all differences stay far below the
//! engine's `EPSILON`; the A/B tests compare the two modes at a 1e-9
//! relative tolerance.

use std::collections::HashMap;

use crate::fairshare::{self, Binding, WeightedReq};
use crate::ids::ResourceId;

/// Sentinel for "no local index assigned" in the global → local resource
/// maps, and for "no component" (empty-route entries).
const NONE: u32 = u32::MAX;

/// One solver entry of one component, with its route re-based into the
/// component's local route arena.
#[derive(Debug, Clone, Copy, Default)]
struct LocalEntry {
    route_start: u32,
    route_len: u32,
    rate_cap: Option<f64>,
    weight: f64,
}

/// Scratch for compacting and solving one component at a time.
#[derive(Debug, Clone, Default)]
struct ComponentScratch {
    /// Inner progressive-filling workspace, reused across components.
    ws: fairshare::Workspace,
    /// Capacities of the current component's resources, locally indexed.
    local_caps: Vec<f64>,
    /// Local resource index → global id (for mapping bindings back).
    local_ids: Vec<ResourceId>,
    /// Global resource index → local index; entries are reset to [`NONE`]
    /// after each component via `local_ids`, so the map stays warm.
    global2local: Vec<u32>,
    /// Route arena of the current component, in local resource ids.
    local_routes: Vec<ResourceId>,
    /// Entries of the current component, in bucketed order.
    entries: Vec<LocalEntry>,
}

impl ComponentScratch {
    /// Compacts and solves the component whose bucketed entry indices are
    /// `members`, writing each member's rate and binding (global resource
    /// ids) into `rates`/`bindings` at its entry index.
    fn solve_component(
        &mut self,
        tables: &Tables<'_>,
        members: &[u32],
        rates: &mut [f64],
        bindings: &mut [Binding],
    ) {
        let ComponentScratch {
            ws,
            local_caps,
            local_ids,
            global2local,
            local_routes,
            entries,
        } = self;
        global2local.resize(tables.capacities.len(), NONE);
        local_caps.clear();
        local_ids.clear();
        local_routes.clear();
        entries.clear();
        for &e in members {
            let e = e as usize;
            let start = tables.route_start[e] as usize;
            let len = tables.route_len[e] as usize;
            let local_start = local_routes.len() as u32;
            for &rid in &tables.routes[start..start + len] {
                let gi = rid.index();
                let mut li = global2local[gi];
                if li == NONE {
                    li = local_caps.len() as u32;
                    global2local[gi] = li;
                    local_caps.push(tables.capacities[gi]);
                    local_ids.push(rid);
                }
                local_routes.push(ResourceId::from_index(li as usize));
            }
            entries.push(LocalEntry {
                route_start: local_start,
                route_len: len as u32,
                rate_cap: tables.caps[e],
                weight: tables.weights[e],
            });
        }
        let local_routes = &*local_routes;
        fairshare::solve_into(
            ws,
            local_caps,
            entries.iter().map(|le| WeightedReq {
                route: &local_routes
                    [le.route_start as usize..(le.route_start + le.route_len) as usize],
                rate_cap: le.rate_cap,
                weight: le.weight,
            }),
        );
        for (j, &e) in members.iter().enumerate() {
            rates[e as usize] = ws.rates()[j];
            bindings[e as usize] = match ws.bindings()[j] {
                Binding::Resource(local) => Binding::Resource(local_ids[local.index()]),
                Binding::Cap => Binding::Cap,
            };
        }
        // Reset only the touched map entries so the next component starts
        // clean without an O(resources) wipe.
        for rid in local_ids.iter() {
            global2local[rid.index()] = NONE;
        }
    }
}

/// Stored result of one solved component: a slice of the memo's key arena
/// plus parallel slices of its rates/bindings arenas.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    key_start: u32,
    key_len: u32,
    /// Start of this component's rates/bindings in the result arenas (the
    /// length is implied by the caller's member list).
    res_start: u32,
    /// Next slot with the same key hash ([`NONE`] terminates the chain).
    next: u32,
}

/// Component results of one solve, content-addressed by key hash. Two
/// arenas are kept and swapped every solve, so lookups always hit the
/// previous epoch's results with zero steady-state allocation.
#[derive(Debug, Clone, Default)]
struct MemoArena {
    /// Key hash → head slot of the collision chain.
    index: HashMap<u64, u32>,
    slots: Vec<MemoSlot>,
    keys: Vec<u64>,
    rates: Vec<f64>,
    bindings: Vec<Binding>,
}

impl MemoArena {
    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.keys.clear();
        self.rates.clear();
        self.bindings.clear();
    }

    /// Finds a stored component whose full key equals `key`, or `None`.
    fn lookup(&self, hash: u64, key: &[u64]) -> Option<&MemoSlot> {
        let mut at = *self.index.get(&hash)?;
        while at != NONE {
            let slot = &self.slots[at as usize];
            let stored =
                &self.keys[slot.key_start as usize..(slot.key_start + slot.key_len) as usize];
            if stored == key {
                return Some(slot);
            }
            at = slot.next;
        }
        None
    }

    /// Appends a component's key and results, gathering the per-member
    /// rates/bindings out of the entry-ordered output tables, and chains
    /// the slot under `hash`. New slots are prepended to the chain; chain
    /// order never affects results because lookups compare full keys and
    /// equal keys carry equal data.
    fn insert_gather(
        &mut self,
        hash: u64,
        key: &[u64],
        members: &[u32],
        rates: &[f64],
        bindings: &[Binding],
    ) {
        let id = self.slots.len() as u32;
        let head = self.index.insert(hash, id).unwrap_or(NONE);
        self.slots.push(MemoSlot {
            key_start: self.keys.len() as u32,
            key_len: key.len() as u32,
            res_start: self.rates.len() as u32,
            next: head,
        });
        self.keys.extend_from_slice(key);
        for &e in members {
            self.rates.push(rates[e as usize]);
            self.bindings.push(bindings[e as usize]);
        }
    }
}

/// FNV-1a over 64-bit words; only used to index the memo (exact key
/// comparison decides reuse, so collisions cost time, never correctness).
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Borrowed views of the ingested SoA entry tables, read while the
/// outputs are written.
#[derive(Clone, Copy)]
struct Tables<'a> {
    capacities: &'a [f64],
    route_start: &'a [u32],
    route_len: &'a [u32],
    routes: &'a [ResourceId],
    caps: &'a [Option<f64>],
    weights: &'a [f64],
}

/// Reusable buffers for the partitioned fair-share solve.
///
/// Like [`fairshare::Workspace`], holding one `PartitionWorkspace` across
/// [`PartitionWorkspace::solve`] calls amortizes all allocations: after
/// warm-up, a solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PartitionWorkspace {
    // Ingested entry tables (SoA, canonical entry order).
    route_start: Vec<u32>,
    route_len: Vec<u32>,
    routes: Vec<ResourceId>,
    caps: Vec<Option<f64>>,
    weights: Vec<f64>,
    // Union-find over resource indices.
    parent: Vec<u32>,
    // Component assignment and bucketing.
    comp_of_entry: Vec<u32>,
    root_comp: Vec<u32>,
    comp_sizes: Vec<u32>,
    comp_offsets: Vec<u32>,
    cursor: Vec<u32>,
    by_comp: Vec<u32>,
    scratch: ComponentScratch,
    // Component-result memo: previous solve's results (looked up) and the
    // current solve's results (built), swapped at the end of each solve.
    memo_prev: MemoArena,
    memo_next: MemoArena,
    // Per-component content keys of the current solve.
    key_arena: Vec<u64>,
    comp_key_start: Vec<u32>,
    comp_hash: Vec<u64>,
    // Outputs, parallel to the ingested entry order.
    rates: Vec<f64>,
    bindings: Vec<Binding>,
    // Decomposition statistics of the most recent solve.
    components: usize,
    max_component: usize,
    singletons: usize,
    reused: usize,
}

/// Union-find `find` with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

impl PartitionWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-entry rates computed by the most recent [`Self::solve`] call,
    /// in the order the entries were given.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-entry binding constraints (global resource ids) identified by
    /// the most recent [`Self::solve`] call, parallel to [`Self::rates`].
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Number of connected components in the most recent solve
    /// (empty-route entries are unconstrained and not counted).
    pub fn components(&self) -> usize {
        self.components
    }

    /// Entry count of the largest component in the most recent solve.
    pub fn max_component(&self) -> usize {
        self.max_component
    }

    /// Number of single-entry components in the most recent solve.
    pub fn singletons(&self) -> usize {
        self.singletons
    }

    /// Components of the most recent solve whose results were copied from
    /// the previous solve's memo instead of being re-solved (exact
    /// content-key match; bit-for-bit identical to re-solving).
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Computes the max–min fair allocation by independent component
    /// solves, in canonical (discovery) order.
    ///
    /// Semantics match [`fairshare::solve_into`] up to cross-component
    /// tolerance ties (see the module docs).
    ///
    /// # Panics
    /// Panics if a route references a resource index out of bounds.
    pub fn solve<'a, I>(&mut self, capacities: &[f64], entries: I)
    where
        I: Iterator<Item = WeightedReq<'a>>,
    {
        // ---- ingest into the SoA tables -------------------------------
        self.route_start.clear();
        self.route_len.clear();
        self.routes.clear();
        self.caps.clear();
        self.weights.clear();
        for e in entries {
            self.route_start.push(self.routes.len() as u32);
            self.route_len.push(e.route.len() as u32);
            for r in e.route {
                assert!(
                    r.index() < capacities.len(),
                    "route references unknown resource {r}"
                );
            }
            self.routes.extend_from_slice(e.route);
            self.caps.push(e.rate_cap);
            self.weights.push(e.weight);
        }
        let n = self.caps.len();
        let n_res = capacities.len();
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.bindings.clear();
        self.bindings.resize(n, Binding::Cap);

        // ---- union-find over each entry's route -----------------------
        self.parent.clear();
        self.parent.extend(0..n_res as u32);
        for i in 0..n {
            let start = self.route_start[i] as usize;
            let len = self.route_len[i] as usize;
            let route = &self.routes[start..start + len];
            if let Some((&first, rest)) = route.split_first() {
                let mut root = find(&mut self.parent, first.index() as u32);
                for r in rest {
                    let other = find(&mut self.parent, r.index() as u32);
                    if other != root {
                        // Smaller index wins so the root choice is a pure
                        // function of the input, not of union order.
                        let (lo, hi) = if root < other {
                            (root, other)
                        } else {
                            (other, root)
                        };
                        self.parent[hi as usize] = lo;
                        root = lo;
                    }
                }
            }
        }

        // ---- assign components in entry-discovery order ---------------
        self.root_comp.clear();
        self.root_comp.resize(n_res, NONE);
        self.comp_of_entry.clear();
        self.comp_sizes.clear();
        for i in 0..n {
            let start = self.route_start[i] as usize;
            if self.route_len[i] == 0 {
                // Unconstrained: fixed right here, exactly as the
                // monolithic solver does before its first round.
                self.comp_of_entry.push(NONE);
                self.rates[i] = self.caps[i].unwrap_or(f64::INFINITY);
                continue;
            }
            let root = find(&mut self.parent, self.routes[start].index() as u32);
            let mut comp = self.root_comp[root as usize];
            if comp == NONE {
                comp = self.comp_sizes.len() as u32;
                self.root_comp[root as usize] = comp;
                self.comp_sizes.push(0);
            }
            self.comp_of_entry.push(comp);
            self.comp_sizes[comp as usize] += 1;
        }
        let n_comp = self.comp_sizes.len();
        self.components = n_comp;
        self.max_component = self.comp_sizes.iter().copied().max().unwrap_or(0) as usize;
        self.singletons = self.comp_sizes.iter().filter(|&&s| s == 1).count();

        // ---- bucket entries component-major ---------------------------
        self.comp_offsets.clear();
        let mut acc = 0u32;
        for &s in &self.comp_sizes {
            self.comp_offsets.push(acc);
            acc += s;
        }
        let bucketed = acc as usize;
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.comp_offsets);
        self.by_comp.clear();
        self.by_comp.resize(bucketed, 0);
        for i in 0..n {
            let comp = self.comp_of_entry[i];
            if comp != NONE {
                let pos = self.cursor[comp as usize];
                self.by_comp[pos as usize] = i as u32;
                self.cursor[comp as usize] = pos + 1;
            }
        }

        // ---- memo lookup, or solve the component on a miss -------------
        // The key captures everything fairshare::solve_into reads for the
        // component — member weights, caps, routes by global resource id,
        // and those resources' capacities — so an exact match means the
        // stored rates/bindings are bit-for-bit what re-solving would give.
        {
            let Self {
                key_arena,
                comp_key_start,
                comp_hash,
                scratch,
                by_comp,
                comp_offsets,
                comp_sizes,
                route_start,
                route_len,
                routes,
                caps,
                weights,
                memo_prev,
                rates,
                bindings,
                reused,
                ..
            } = self;
            let tables = Tables {
                capacities,
                route_start,
                route_len,
                routes,
                caps,
                weights,
            };
            key_arena.clear();
            comp_key_start.clear();
            comp_hash.clear();
            *reused = 0;
            for c in 0..n_comp {
                let key_start = key_arena.len();
                comp_key_start.push(key_start as u32);
                let off = comp_offsets[c] as usize;
                let size = comp_sizes[c] as usize;
                let members = &by_comp[off..off + size];
                for &e in members {
                    let e = e as usize;
                    let start = route_start[e] as usize;
                    let len = route_len[e] as usize;
                    key_arena.push(weights[e].to_bits());
                    key_arena.push(caps[e].is_some() as u64);
                    key_arena.push(caps[e].map_or(0, f64::to_bits));
                    key_arena.push(len as u64);
                    for &rid in &routes[start..start + len] {
                        key_arena.push(rid.index() as u64);
                        key_arena.push(capacities[rid.index()].to_bits());
                    }
                }
                let key = &key_arena[key_start..];
                let hash = fnv1a(key);
                comp_hash.push(hash);
                if let Some(slot) = memo_prev.lookup(hash, key) {
                    let res = slot.res_start as usize;
                    for (j, &entry) in members.iter().enumerate() {
                        rates[entry as usize] = memo_prev.rates[res + j];
                        bindings[entry as usize] = memo_prev.bindings[res + j];
                    }
                    *reused += 1;
                } else {
                    scratch.solve_component(&tables, members, rates, bindings);
                }
            }
            comp_key_start.push(key_arena.len() as u32);
        }

        // ---- refresh the memo with this solve's results ---------------
        self.memo_next.clear();
        for c in 0..n_comp {
            let key = &self.key_arena
                [self.comp_key_start[c] as usize..self.comp_key_start[c + 1] as usize];
            let off = self.comp_offsets[c] as usize;
            let size = self.comp_sizes[c] as usize;
            self.memo_next.insert_gather(
                self.comp_hash[c],
                key,
                &self.by_comp[off..off + size],
                &self.rates,
                &self.bindings,
            );
        }
        std::mem::swap(&mut self.memo_prev, &mut self.memo_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::{solve, FlowReq, Workspace};

    fn rid(i: usize) -> ResourceId {
        ResourceId::from_index(i)
    }

    fn weighted<'a>(route: &'a [ResourceId], cap: Option<f64>, weight: f64) -> WeightedReq<'a> {
        WeightedReq {
            route,
            rate_cap: cap,
            weight,
        }
    }

    #[test]
    fn disjoint_pairs_solve_like_the_monolith() {
        // Two independent links, two flows each: exact answers, so the
        // partitioned result must equal the monolithic one bitwise.
        let caps = [100.0, 60.0];
        let r0 = [rid(0)];
        let r1 = [rid(1)];
        let flows = vec![req(&r0), req(&r0), req(&r1), req(&r1)];
        let reference = solve(&caps, &flows);

        let mut pw = PartitionWorkspace::new();
        pw.solve(
            &caps,
            flows.iter().map(|f| weighted(f.route, f.rate_cap, 1.0)),
        );
        assert_eq!(pw.components(), 2);
        assert_eq!(pw.max_component(), 2);
        assert_eq!(pw.singletons(), 0);
        for (a, b) in pw.rates().iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn req(route: &[ResourceId]) -> FlowReq<'_> {
        FlowReq {
            route,
            rate_cap: None,
        }
    }

    #[test]
    fn shared_resource_merges_components() {
        // Flow 1 bridges resources 0 and 1, so all three flows are one
        // component and the result is exactly the monolithic solve.
        let caps = [10.0, 10.0];
        let r0 = [rid(0)];
        let r01 = [rid(0), rid(1)];
        let r1 = [rid(1)];
        let entries = [
            weighted(&r0, None, 1.0),
            weighted(&r01, None, 1.0),
            weighted(&r1, None, 1.0),
        ];
        let mut pw = PartitionWorkspace::new();
        pw.solve(&caps, entries.iter().copied());
        assert_eq!(pw.components(), 1);
        assert_eq!(pw.max_component(), 3);
        let mut ws = Workspace::new();
        let reference = fairshare::solve_into(&mut ws, &caps, entries.iter().copied()).to_vec();
        for (a, b) in pw.rates().iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(pw.bindings(), ws.bindings());
    }

    #[test]
    fn empty_routes_get_cap_or_infinity() {
        let caps = [50.0];
        let shared = [rid(0)];
        let empty: [ResourceId; 0] = [];
        let entries = [
            weighted(&empty, Some(7.0), 1.0),
            weighted(&shared, None, 1.0),
            weighted(&empty, None, 1.0),
        ];
        let mut pw = PartitionWorkspace::new();
        pw.solve(&caps, entries.iter().copied());
        assert_eq!(pw.rates()[0], 7.0);
        assert_eq!(pw.rates()[1], 50.0);
        assert_eq!(pw.rates()[2], f64::INFINITY);
        assert_eq!(pw.components(), 1);
        assert_eq!(pw.singletons(), 1);
    }

    #[test]
    fn workspace_reuse_is_clean_across_shapes() {
        // Solving a big instance and then a small one must not leak state.
        let caps = [10.0, 20.0, 30.0];
        let r0 = [rid(0)];
        let r1 = [rid(1)];
        let r2 = [rid(2)];
        let mut pw = PartitionWorkspace::new();
        pw.solve(
            &caps,
            [
                weighted(&r0, None, 1.0),
                weighted(&r1, None, 1.0),
                weighted(&r2, Some(5.0), 2.0),
            ]
            .into_iter(),
        );
        assert_eq!(pw.components(), 3);
        pw.solve(&caps, [weighted(&r1, None, 1.0)].into_iter());
        assert_eq!(pw.components(), 1);
        assert_eq!(pw.rates(), &[20.0]);
        assert_eq!(pw.singletons(), 1);
    }
}
