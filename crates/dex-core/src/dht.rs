//! Distributed hash table on top of DEX (paper, Sect. 4.4.4).
//!
//! Every node knows the current p-cycle size `s = p`, hence the same hash
//! function `h_s : keys → Z_p` (we use the SplitMix64 finalizer mod p). A
//! key–value pair lives with the node simulating vertex `h_s(k)`; insert
//! and lookup route along locally computed shortest paths in the virtual
//! graph, which map to physical paths (Fact 1) — O(log n) rounds and
//! messages each.
//!
//! When the virtual graph is replaced (type-2 recovery), responsibility
//! rehashes to the new cycle. The paper staggers the data handoff with the
//! staggered inflation at a constant-factor overhead; we apply the whole
//! migration at switchover and charge one message per stored item then:
//! the same total cost as the staggered handoff of the paper's
//! Sect. 4.4.4, lumped into the switchover step.

use crate::dex::DexNetwork;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use dex_sim::rng::splitmix64;
use dex_sim::{RecoveryKind, StepKind, StepMetrics};

/// Key type.
pub type Key = u64;
/// Value type (O(log n) bits, as CONGEST requires).
pub type Value = u64;

/// DHT storage (simulator-global view; ownership is always derived from
/// the *current* virtual mapping, so vertex transfers implicitly move
/// responsibility exactly as the paper prescribes).
#[derive(Default)]
pub struct DhtStore {
    entries: FxHashMap<Key, Value>,
    /// p value the stored data is currently partitioned under; a change
    /// triggers the (charged) migration.
    hashed_under: Option<u64>,
}

impl DhtStore {
    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `p` the stored data is currently partitioned under (`None`
    /// until the first DHT operation observes a cycle).
    pub fn hashed_under(&self) -> Option<u64> {
        self.hashed_under
    }

    /// All stored pairs, sorted by key — a canonical representation for
    /// differential end-state comparison.
    pub fn entries_sorted(&self) -> Vec<(Key, Value)> {
        let mut v: Vec<(Key, Value)> = self.entries.iter().map(|(&k, &val)| (k, val)).collect();
        v.sort_unstable();
        v
    }
}

/// `h_s(k)`: hash a key to a vertex of the current cycle.
pub fn hash_to_vertex(key: Key, p: u64) -> VertexId {
    VertexId(splitmix64(key) % p)
}

impl DexNetwork {
    /// Node that is currently responsible for `key`.
    pub fn dht_owner(&self, key: Key) -> NodeId {
        let z = hash_to_vertex(key, self.cycle.p());
        self.map.owner_of(z)
    }

    /// Read-only view of the DHT storage state (entry count, current
    /// partitioning).
    pub fn dht_store(&self) -> &DhtStore {
        &self.dht
    }

    /// Store `(key, value)`, initiated by node `from`. Returns the metered
    /// cost (recorded in history as its own step).
    pub fn dht_insert(&mut self, from: NodeId, key: Key, value: Value) -> StepMetrics {
        self.net.begin_step();
        self.migrate_if_rehashed();
        let delivered = if self.faults.is_some() {
            // Message-level routing: an abandoned put is simply not
            // applied (graceful degradation, counted in `dht_abandoned`).
            self.route_dht_faulted(from, key, false)
        } else {
            self.route_dht(from, key);
            true
        };
        if delivered {
            self.dht.entries.insert(key, value);
        }
        self.net.end_step(StepKind::Insert, RecoveryKind::Type1)
    }

    /// Look up `key`, initiated by node `from`. The reply routes back along
    /// the same path, so the cost is twice the one-way routing cost (the
    /// path is resolved once and charged twice).
    pub fn dht_lookup(&mut self, from: NodeId, key: Key) -> (Option<Value>, StepMetrics) {
        self.net.begin_step();
        self.migrate_if_rehashed();
        let delivered = if self.faults.is_some() {
            // Request + reply as one round-trip route; an abandoned
            // lookup reports `None` (counted in `dht_abandoned`).
            self.route_dht_faulted(from, key, true)
        } else {
            let hops = self.route_dht(from, key);
            self.net.charge_rounds(hops); // reply path (same length)
            self.net.charge_messages(hops);
            true
        };
        let v = if delivered {
            self.dht.entries.get(&key).copied()
        } else {
            None
        };
        let m = self.net.end_step(StepKind::Insert, RecoveryKind::Type1);
        (v, m)
    }

    /// Route one message from `from` to the node owning `h(key)`: the
    /// initiator computes a shortest path in the virtual graph from one of
    /// its own vertices and forwards hop by hop; hops between vertices
    /// simulated by the same node are free local computation. Returns the
    /// physical hop count (also charged as rounds and messages).
    ///
    /// Hot path: the virtual path comes from the pooled bidirectional BFS
    /// ([`dex_graph::pcycle::PCycle::shortest_path_with`], O(√p) visited
    /// vertices instead of the old full-BFS O(p)), each path vertex
    /// resolves through the slot Φ's dense owner records
    /// ([`crate::VirtualMapping::owner_of`], one array load), and every
    /// buffer lives in the pooled [`crate::routing::RouteScratch`] — zero
    /// allocation per operation once warm.
    fn route_dht(&mut self, from: NodeId, key: Key) -> u64 {
        let target = hash_to_vertex(key, self.cycle.p());
        let start = *self
            .map
            .sim(from)
            .iter()
            .min()
            .expect("initiator simulates a vertex");
        let route = &mut self.heal.route;
        self.cycle
            .shortest_path_with(start, target, &mut route.bfs, &mut route.vpath);
        let mut hops = 0u64;
        let mut prev = self.map.owner_of(route.vpath[0]);
        for &z in &route.vpath[1..] {
            let cur = self.map.owner_of(z);
            if cur != prev {
                debug_assert!(
                    self.net.graph().contains_edge(prev, cur),
                    "virtual path step not physical: {prev} {cur}"
                );
                hops += 1;
            }
            prev = cur;
        }
        self.net.charge_rounds(hops);
        self.net.charge_messages(hops);
        hops
    }

    /// After a type-2 recovery the hash function changed: rehash all data,
    /// charging one message per item (lump-sum equivalent of the paper's
    /// staggered handoff).
    fn migrate_if_rehashed(&mut self) {
        let p = self.cycle.p();
        match self.dht.hashed_under {
            Some(q) if q == p => {}
            Some(_) => {
                self.net.charge_messages(self.dht.entries.len() as u64);
                self.net.charge_rounds(1);
                self.dht.hashed_under = Some(p);
            }
            None => self.dht.hashed_under = Some(p),
        }
    }
}
