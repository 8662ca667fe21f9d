//! The top-level DEX network: adversarial steps and type-1 recovery
//! (Algorithms 4.2 and 4.3), dispatching to type-2 recovery when spare
//! capacity runs out.

use crate::config::{DexConfig, RecoveryMode};
use crate::fabric;
use crate::mapping::VirtualMapping;
use crate::scratch::HealScratch;
use crate::staggered::StaggeredOp;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PCycle;
use dex_graph::primes;
use dex_sim::flood::{flood_count_with, FloodScratch};
use dex_sim::rng::{Purpose, SeedSpace};
use dex_sim::tokens::random_walk_search;
use dex_sim::{Network, RecoveryKind, StepKind, StepMetrics};

/// Counters for walk behaviour (experiment E7).
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkStats {
    /// Individual walk attempts.
    pub attempts: u64,
    /// Walks that found an accepting node.
    pub hits: u64,
    /// Walks that missed and forced a flood count.
    pub misses: u64,
    /// Type-2 recoveries triggered.
    pub type2: u64,
}

/// A DEX-maintained self-healing expander network.
///
/// Drive it with [`DexNetwork::insert`] / [`DexNetwork::delete`] (one
/// adversarial event per step, exactly the paper's model); each call runs
/// the full distributed recovery and returns the step's metered cost.
pub struct DexNetwork {
    /// Algorithm parameters.
    pub cfg: DexConfig,
    /// The metered physical network.
    pub net: Network,
    /// Current virtual graph `Z(p)` — global knowledge (every node knows p).
    pub cycle: PCycle,
    /// The virtual mapping Φ.
    pub map: VirtualMapping,
    /// In-progress staggered type-2 operation (worst-case mode only).
    pub(crate) stag: Option<StaggeredOp>,
    /// RNG stream derivation.
    pub(crate) seeds: SeedSpace,
    /// Walk success statistics.
    pub walk_stats: WalkStats,
    /// DHT storage (keys live with the vertex they hash to).
    pub(crate) dht: crate::dht::DhtStore,
    pub(crate) step_no: u64,
    /// Reusable BFS scratch for the type-2 decision floods (one flood per
    /// type-2 step; reusing the buffers keeps the hot path allocation-free).
    pub(crate) flood_scratch: FloodScratch,
    /// Pooled healing buffers (vertex sets, neighbor lists, fabric
    /// instances, routing paths) — with these, steady-state type-1
    /// recovery allocates nothing per operation.
    pub(crate) heal: HealScratch,
    /// Worker threads for the parallel batch-heal planner (1 = plan
    /// inline). Results are bit-identical for every value — see
    /// [`crate::parheal`].
    pub(crate) heal_threads: usize,
    /// Waved batch-heal statistics (waves, serial fallbacks, wave-size
    /// histogram), accumulated across batch steps.
    pub batch_stats: crate::parheal::BatchHealStats,
    /// When set, type-1 walks and DHT routing run on the message-level
    /// simulator ([`dex_sim::msim`]) under this fault model instead of
    /// the centralized fast path (see [`crate::faulted`]). `None` (the
    /// default) keeps the centralized execution.
    pub(crate) faults: Option<dex_sim::msim::FaultSpec>,
    /// Fault-layer counters accumulated while `faults` is set.
    pub(crate) fault_stats: dex_sim::msim::FaultStats,
}

impl DexNetwork {
    /// Bootstrap an initial network of `n0` nodes with ids `0..n0`.
    ///
    /// The paper starts from a constant-size `G₀` whose nodes compute
    /// `Z₀(p₀)`, `p₀` the smallest prime in `(4n₀, 8n₀)`, by local
    /// broadcast. We allow any `n0` and construct the same object directly
    /// (centralized bootstrap is explicitly permitted, Sect. 4).
    pub fn bootstrap(cfg: DexConfig, n0: u64) -> Self {
        assert!(n0 >= 2, "need at least 2 initial nodes");
        let p0 = primes::initial_prime(n0);
        let cycle = PCycle::new(p0);
        let mut map = VirtualMapping::with_vertex_capacity(cfg.zeta, p0);
        let mut net = Network::new();
        for i in 0..n0 {
            net.adversary_add_node(NodeId(i));
        }
        // Deal vertices round-robin: every load is ⌈p₀/n₀⌉ or ⌊p₀/n₀⌋,
        // i.e. within [4, 8] — comfortably 4ζ-balanced and all in Spare/Low.
        for x in 0..p0 {
            map.assign(VertexId(x), NodeId(x % n0));
        }
        fabric::materialize_all(&mut net, &map, &cycle, false);
        DexNetwork {
            cfg,
            net,
            cycle,
            map,
            stag: None,
            seeds: SeedSpace::new(cfg.seed),
            walk_stats: WalkStats::default(),
            dht: crate::dht::DhtStore::default(),
            step_no: 0,
            flood_scratch: FloodScratch::new(),
            heal: HealScratch::new(),
            heal_threads: 1,
            batch_stats: crate::parheal::BatchHealStats::default(),
            faults: None,
            fault_stats: dex_sim::msim::FaultStats::default(),
        }
    }

    /// Set the worker-thread count for the parallel batch-heal planner.
    /// Purely a throughput knob: batch results are bit-identical for any
    /// value (the determinism contract `tests/batch_par.rs` and the
    /// `bench_batch --smoke` CI job enforce).
    pub fn set_heal_threads(&mut self, threads: usize) {
        self.heal_threads = threads.max(1);
    }

    /// Current batch-heal planner thread count.
    pub fn heal_threads(&self) -> usize {
        self.heal_threads
    }

    /// Current network size.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The physical graph.
    pub fn graph(&self) -> &dex_graph::MultiGraph {
        self.net.graph()
    }

    /// Spectral gap `1 − λ₂` of the current physical network.
    pub fn spectral_gap(&self) -> f64 {
        dex_graph::spectral::spectral_gap(self.net.graph())
    }

    /// Maximum load (vertices simulated) over all nodes, counting staged
    /// vertices of an in-progress type-2 operation.
    pub fn max_total_load(&self) -> u64 {
        let extra = self.stag.as_ref();
        self.net
            .graph()
            .nodes()
            .map(|u| self.map.load(u) + extra.map_or(0, |s| s.staged_load(u)))
            .max()
            .unwrap_or(0)
    }

    /// Maximum physical degree.
    pub fn max_degree(&self) -> usize {
        self.net.graph().max_degree()
    }

    /// Is a staggered type-2 operation in progress?
    pub fn type2_in_progress(&self) -> bool {
        self.stag.is_some()
    }

    /// Staged (next-cycle) load of `u` during an in-progress staggered
    /// operation; 0 otherwise.
    pub fn staged_load(&self, u: NodeId) -> u64 {
        self.stag.as_ref().map_or(0, |s| s.staged_load(u))
    }

    /// Node ids currently in the network, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.net.graph().nodes_sorted()
    }

    // ------------------------------------------------------------------
    // Insertion (Algorithm 4.2)
    // ------------------------------------------------------------------

    /// Adversary inserts node `u` attached to existing node `v`; the
    /// algorithm heals and the step's cost is returned.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> StepMetrics {
        assert!(!self.net.graph().has_node(u), "insert: {u} already present");
        assert!(
            self.net.graph().has_node(v),
            "insert: attach point {v} missing"
        );
        self.step_no += 1;
        self.net.begin_step();
        self.net.adversary_add_node(u);
        self.net.adversary_add_edge(u, v);

        let recovery = if self.stag.is_some() {
            crate::staggered::insert_during_staggered(self, u, v);
            RecoveryKind::Type1Staggered
        } else {
            self.insert_normal(u, v)
        };
        // Worst-case mode: coordinator bookkeeping + window advance.
        if self.cfg.mode == RecoveryMode::Staggered {
            crate::staggered::after_step(self);
        }
        let recovery = self.final_recovery_kind(recovery);
        self.net.end_step(StepKind::Insert, recovery)
    }

    /// Normal-mode insertion recovery. Returns the recovery kind used.
    fn insert_normal(&mut self, u: NodeId, v: NodeId) -> RecoveryKind {
        if self.faults.is_some() {
            return self.insert_normal_faulted(u, v);
        }
        let walk_len = self.cfg.walk_len(self.cycle.p());
        let mut flooded = false;
        for attempt in 0..self.cfg.max_walk_retries {
            self.walk_stats.attempts += 1;
            let map = &self.map;
            let mut rng = self
                .seeds
                .stream(Purpose::InsertWalk, &[self.step_no, attempt]);
            let out = random_walk_search(
                &mut self.net,
                v,
                walk_len,
                Some(u),
                |w| map.is_spare(w),
                &mut rng,
            );
            if let Some(w) = out.hit {
                self.walk_stats.hits += 1;
                self.give_vertex_to_new_node(w, u, v);
                return RecoveryKind::Type1;
            }
            self.walk_stats.misses += 1;
            // Deterministic count (Algorithm 4.4) before deciding; the
            // paper floods once, then retries walks (Alg. 4.2 line 9
            // repeats from line 1 — loads cannot change mid-step).
            if flooded {
                continue;
            }
            flooded = true;
            let res = flood_count_with(
                &mut self.net,
                v,
                |w| map.is_spare(w),
                &mut self.flood_scratch,
            );
            // The flood reaches the fresh node u too; the paper counts
            // |Spare| against |G_{t-1}|.
            let n_prev = res.n.saturating_sub(1);
            if !self.cfg.spare_sufficient(res.matching, n_prev) {
                self.walk_stats.type2 += 1;
                match self.cfg.mode {
                    RecoveryMode::Simplified => {
                        crate::type2_simple::inflate(self, Some((u, v)));
                        return RecoveryKind::InflateSimple;
                    }
                    RecoveryMode::Staggered => {
                        // The coordinator should have fired at 3θn; reaching
                        // the hard wall means it must start now, and the new
                        // node is served from the first staged window.
                        crate::staggered::begin_inflation(self);
                        crate::staggered::insert_during_staggered(self, u, v);
                        return RecoveryKind::InflateStaggered;
                    }
                }
            }
            // Enough spares exist; the walk was simply unlucky — retry.
        }
        panic!(
            "insertion walk failed {} times with |Spare| ≥ θn — bug or \
             pathological parameters (n={}, p={})",
            self.cfg.max_walk_retries,
            self.n(),
            self.cycle.p()
        );
    }

    /// Transfer one vertex from spare node `w` to the fresh node `u`, then
    /// drop the adversarial attach edge (the fabric edge set re-creates a
    /// `(u, v)` edge if and only if the virtual graph requires one).
    pub(crate) fn give_vertex_to_new_node(&mut self, w: NodeId, u: NodeId, v: NodeId) {
        debug_assert!(self.map.load(w) >= 2);
        // Deterministic pick: the largest vertex id at w.
        let z = *self
            .map
            .sim(w)
            .iter()
            .max()
            .expect("spare node must simulate a vertex");
        fabric::move_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            &[z],
            u,
            &mut self.heal.insts,
        );
        // O(1) handoff messages: vertex id + its 3 neighbor node ids.
        self.net.charge_messages(4);
        self.net.charge_rounds(1);
        self.charge_load_updates(&[w, u]);
        // Remove the adversary's temporary attach edge (one extra instance
        // beyond the fabric).
        self.net.remove_edge(u, v);
    }

    // ------------------------------------------------------------------
    // Deletion (Algorithm 4.3)
    // ------------------------------------------------------------------

    /// Adversary deletes `victim`; the algorithm heals and the step cost is
    /// returned.
    pub fn delete(&mut self, victim: NodeId) -> StepMetrics {
        assert!(
            self.net.graph().has_node(victim),
            "delete: {victim} missing"
        );
        assert!(self.n() > 2, "refusing to delete below 2 nodes");
        self.step_no += 1;

        // Former neighbors learn of the attack in the same time step.
        self.heal.nbrs.clear();
        let nbrs = &mut self.heal.nbrs;
        nbrs.extend(
            self.net
                .graph()
                .neighbors(victim)
                .iter()
                .filter(|&w| w != victim),
        );
        nbrs.sort_unstable();
        nbrs.dedup();
        assert!(
            !nbrs.is_empty(),
            "deleted node had no neighbors — network was disconnected"
        );
        let rescuer = nbrs[0];

        self.net.begin_step();
        self.net.adversary_remove_node(victim);

        let recovery = if self.stag.is_some() {
            crate::staggered::delete_during_staggered(self, victim, rescuer);
            RecoveryKind::Type1Staggered
        } else {
            self.delete_normal(victim, rescuer)
        };
        if self.cfg.mode == RecoveryMode::Staggered {
            crate::staggered::after_step(self);
        }
        let recovery = self.final_recovery_kind(recovery);
        self.net.end_step(StepKind::Delete, recovery)
    }

    /// Normal-mode deletion recovery. Detaches the pooled vertex/touched
    /// buffers from `self`, runs the core, and reattaches them so their
    /// capacity survives across steps (including the early type-2 return).
    fn delete_normal(&mut self, victim: NodeId, rescuer: NodeId) -> RecoveryKind {
        let mut zs = std::mem::take(&mut self.heal.zs);
        let mut touched = std::mem::take(&mut self.heal.touched);
        zs.clear();
        zs.extend_from_slice(self.map.sim(victim));
        touched.clear();
        let kind = self.delete_normal_core(rescuer, &zs, &mut touched);
        self.heal.zs = zs;
        self.heal.touched = touched;
        kind
    }

    fn delete_normal_core(
        &mut self,
        rescuer: NodeId,
        zs: &[VertexId],
        touched: &mut Vec<NodeId>,
    ) -> RecoveryKind {
        if self.faults.is_some() {
            return self.delete_normal_core_faulted(rescuer, zs, touched);
        }
        // Rescuer adopts the victim's vertices and restores their edges.
        debug_assert!(!zs.is_empty(), "every node simulates >= 1 vertex");
        fabric::adopt_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            zs,
            rescuer,
            &mut self.heal.insts,
        );
        self.net.charge_messages(3 * zs.len() as u64);
        self.net.charge_rounds(1);

        // Redistribute each adopted vertex to a node in Low. The count is
        // re-run after every failed walk (Alg. 4.3 lines 6–11): our own
        // transfers within the step can shrink Low, so the threshold must
        // be re-checked before deciding between retry and deflation.
        // Load updates to neighbors are batched: each touched node informs
        // its neighbors once at the end of the recovery.
        let walk_len = self.cfg.walk_len(self.cycle.p());
        touched.push(rescuer);
        for (i, &z) in zs.iter().enumerate() {
            let mut attempt = 0;
            loop {
                self.walk_stats.attempts += 1;
                let map = &self.map;
                let mut rng = self
                    .seeds
                    .stream(Purpose::DeleteWalk, &[self.step_no, i as u64, attempt]);
                let out = random_walk_search(
                    &mut self.net,
                    rescuer,
                    walk_len,
                    None,
                    |w| map.is_low(w),
                    &mut rng,
                );
                if let Some(w) = out.hit {
                    self.walk_stats.hits += 1;
                    if w != rescuer {
                        fabric::move_vertices(
                            &mut self.net,
                            &mut self.map,
                            &self.cycle,
                            &[z],
                            w,
                            &mut self.heal.insts,
                        );
                        self.net.charge_messages(4);
                        self.net.charge_rounds(1);
                        touched.push(w);
                    }
                    break;
                }
                self.walk_stats.misses += 1;
                let res = flood_count_with(
                    &mut self.net,
                    rescuer,
                    |w| map.is_low(w),
                    &mut self.flood_scratch,
                );
                if !self.cfg.low_sufficient(res.matching, res.n) {
                    self.walk_stats.type2 += 1;
                    match self.cfg.mode {
                        RecoveryMode::Simplified => {
                            crate::type2_simple::deflate(self, rescuer);
                            return RecoveryKind::DeflateSimple;
                        }
                        RecoveryMode::Staggered => {
                            crate::staggered::begin_deflation(self);
                            return RecoveryKind::DeflateStaggered;
                        }
                    }
                }
                attempt += 1;
                assert!(
                    attempt < self.cfg.max_walk_retries,
                    "deletion walk failed {} times with |Low| ≥ θn",
                    self.cfg.max_walk_retries
                );
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.charge_load_updates(touched);
        RecoveryKind::Type1
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// Nodes advertise load changes to their neighbors (constant overhead,
    /// Sect. 4.1); charged as one message per incident edge.
    pub(crate) fn charge_load_updates(&mut self, nodes: &[NodeId]) {
        let mut msgs = 0u64;
        for &u in nodes {
            if self.net.graph().has_node(u) {
                msgs += self.net.graph().degree(u) as u64;
            }
        }
        self.net.charge_messages(msgs);
    }

    /// Refine the step's recovery label with staggered-operation state.
    fn final_recovery_kind(&self, base: RecoveryKind) -> RecoveryKind {
        match (&self.stag, base) {
            (Some(op), RecoveryKind::Type1 | RecoveryKind::Type1Staggered) => {
                if op.is_inflation() {
                    RecoveryKind::InflateStaggered
                } else {
                    RecoveryKind::DeflateStaggered
                }
            }
            _ => base,
        }
    }

    /// Fresh unused node id (convenience for workloads; the adversary may
    /// also pick its own ids).
    pub fn fresh_node_id(&self) -> NodeId {
        NodeId(
            self.net
                .graph()
                .nodes()
                .map(|u| u.0)
                .max()
                .map(|m| m + 1)
                .unwrap_or(0),
        )
    }
}

impl std::fmt::Debug for DexNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DexNetwork(n={}, p={}, {:?}, stag={})",
            self.n(),
            self.cycle.p(),
            self.map,
            self.stag.is_some()
        )
    }
}
