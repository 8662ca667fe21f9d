//! The metered physical network.
//!
//! Wraps a [`MultiGraph`] and charges every cost the paper reports:
//!
//! * **topology changes** — edges added/removed by the healing algorithm
//!   (`add_edge` / `remove_edge`). The adversary's own attack — attaching a
//!   new node, or a deletion taking its incident edges down — is applied
//!   through the `adversary_*` methods and is *not* charged, matching the
//!   paper's accounting (the algorithm's "number of topology changes").
//! * **messages** and **rounds** — charged explicitly by protocol helpers
//!   ([`crate::tokens`], [`crate::flood`]) and by protocol code in
//!   `dex-core`.
//!
//! A *step scope* (`begin_step` / `end_step`) brackets each adversarial
//! event and snapshots the counters into a [`StepMetrics`] history entry.

use crate::metrics::{RecoveryKind, StepKind, StepMetrics};
use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;

/// How the network records per-step metrics. Long-running large-n drivers
/// (the 1M-node churn benchmarks) switch to [`HistoryMode::Off`] so a
/// multi-thousand-step run does not hold every [`StepMetrics`] live;
/// running [`StepTotals`] are maintained in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep every step (default — tests and experiment-scale harnesses).
    Full,
    /// Keep no per-step history at all.
    Off,
}

/// Running totals over every completed step, maintained regardless of the
/// [`HistoryMode`] — the O(1)-memory summary a streaming driver reads
/// instead of the history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Completed steps.
    pub steps: u64,
    /// Total rounds across all steps.
    pub rounds: u64,
    /// Total messages across all steps.
    pub messages: u64,
    /// Total topology changes across all steps.
    pub topology_changes: u64,
    /// Steps whose recovery was a type-2 flavour.
    pub type2_steps: u64,
    /// Conflict-free waves applied by the parallel batch-heal engine
    /// across all steps (observability only; costs are charged the same
    /// as sequential application).
    pub heal_waves: u64,
}

/// Metered dynamic network. See module docs.
pub struct Network {
    graph: MultiGraph,
    rounds: u64,
    messages: u64,
    topology_changes: u64,
    waves: u64,
    in_step: bool,
    step_counter: u64,
    mode: HistoryMode,
    /// Per-step metric history (push order = step order).
    history: Vec<StepMetrics>,
    totals: StepTotals,
}

impl Network {
    /// Empty network recording full history.
    pub fn new() -> Self {
        Network {
            graph: MultiGraph::new(),
            rounds: 0,
            messages: 0,
            topology_changes: 0,
            waves: 0,
            in_step: false,
            step_counter: 0,
            mode: HistoryMode::Full,
            history: Vec::new(),
            totals: StepTotals::default(),
        }
    }

    /// Change how per-step metrics are retained. Switching to
    /// [`HistoryMode::Off`] drops the retained entries immediately;
    /// totals are unaffected.
    pub fn set_history_mode(&mut self, mode: HistoryMode) {
        self.mode = mode;
        if mode == HistoryMode::Off {
            self.history.clear();
        }
    }

    /// The retained per-step history (every step recorded under
    /// [`HistoryMode::Full`], empty under [`HistoryMode::Off`]).
    #[inline]
    pub fn history(&self) -> &[StepMetrics] {
        &self.history
    }

    /// Running totals over *all* completed steps (mode-independent).
    #[inline]
    pub fn totals(&self) -> StepTotals {
        self.totals
    }

    /// Read-only view of the physical topology.
    #[inline]
    pub fn graph(&self) -> &MultiGraph {
        &self.graph
    }

    /// Current network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.num_nodes()
    }

    // ---- adversarial (uncharged) mutations -------------------------------

    /// Adversary inserts an isolated node.
    pub fn adversary_add_node(&mut self, u: NodeId) {
        self.adversary_add_node_slot(u);
    }

    /// Adversary inserts an isolated node; returns its arena slot (the
    /// batch commit path keeps working in slot space from here on).
    pub fn adversary_add_node_slot(&mut self, u: NodeId) -> u32 {
        self.graph
            .add_node_slot(u)
            .unwrap_or_else(|| panic!("adversary inserted existing node {u}"))
    }

    /// Adversary attaches an edge (e.g. the initial connection of an
    /// inserted node). Not charged to the algorithm.
    pub fn adversary_add_edge(&mut self, u: NodeId, v: NodeId) {
        self.graph.add_edge(u, v);
    }

    /// [`Network::adversary_add_edge`] in slot space (uncharged).
    pub fn adversary_add_edge_slots(&mut self, su: u32, sv: u32) {
        self.graph.add_edge_slots(su, sv);
    }

    /// Adversary (or uncharged bootstrap code) removes one edge copy.
    /// Not charged. Returns whether a copy existed.
    pub fn adversary_remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.graph.remove_edge(u, v)
    }

    /// Adversary deletes a node with all incident edges. Not charged.
    pub fn adversary_remove_node(&mut self, u: NodeId) -> usize {
        self.graph
            .remove_node(u)
            .unwrap_or_else(|| panic!("adversary deleted missing node {u}"))
    }

    // ---- algorithm (charged) mutations ------------------------------------

    /// Healing code adds an edge: one topology change.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.graph.add_edge(u, v);
        self.topology_changes += 1;
    }

    /// Healing code removes one edge copy: one topology change.
    /// Returns whether an edge was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            self.topology_changes += 1;
        }
        removed
    }

    /// [`Network::add_edge`] in slot space: the batch commit path resolves
    /// each endpoint slot once per heal plan instead of hashing per edge
    /// instance. Charged identically.
    pub fn add_edge_slots(&mut self, su: u32, sv: u32) {
        self.graph.add_edge_slots(su, sv);
        self.topology_changes += 1;
    }

    /// [`Network::remove_edge`] in slot space. Charged identically.
    pub fn remove_edge_slots(&mut self, su: u32, sv: u32) -> bool {
        let removed = self.graph.remove_edge_slots(su, sv);
        if removed {
            self.topology_changes += 1;
        }
        removed
    }

    /// Healing code adds a node (only used when bootstrapping).
    pub fn add_node(&mut self, u: NodeId) {
        assert!(self.graph.add_node(u), "node {u} already present");
    }

    // ---- cost charging -----------------------------------------------------

    /// Charge `k` synchronous rounds.
    #[inline]
    pub fn charge_rounds(&mut self, k: u64) {
        self.rounds += k;
    }

    /// Charge `k` messages.
    #[inline]
    pub fn charge_messages(&mut self, k: u64) {
        self.messages += k;
    }

    /// Record one conflict-free wave applied by the parallel batch-heal
    /// engine within the current step. Observability only — never affects
    /// the metered rounds/messages/topology counters, which the waved
    /// engine charges exactly as sequential application would.
    #[inline]
    pub fn note_heal_wave(&mut self) {
        self.waves += 1;
    }

    /// Counters since the current step began: `(rounds, messages,
    /// topology_changes)`.
    pub fn current_counters(&self) -> (u64, u64, u64) {
        (self.rounds, self.messages, self.topology_changes)
    }

    // ---- step scoping ------------------------------------------------------

    /// Begin an adversarial step: zero the per-step counters.
    pub fn begin_step(&mut self) {
        assert!(!self.in_step, "begin_step inside an open step");
        self.in_step = true;
        self.step_counter += 1;
        self.rounds = 0;
        self.messages = 0;
        self.topology_changes = 0;
        self.waves = 0;
    }

    /// End the step, record and return its metrics.
    pub fn end_step(&mut self, kind: StepKind, recovery: RecoveryKind) -> StepMetrics {
        assert!(self.in_step, "end_step without begin_step");
        self.in_step = false;
        let m = StepMetrics {
            step: self.step_counter,
            kind,
            recovery,
            rounds: self.rounds,
            messages: self.messages,
            topology_changes: self.topology_changes,
            waves: u32::try_from(self.waves).expect("wave count overflow"),
            n_after: self.n(),
        };
        self.totals.steps += 1;
        self.totals.rounds += m.rounds;
        self.totals.messages += m.messages;
        self.totals.topology_changes += m.topology_changes;
        self.totals.heal_waves += self.waves;
        if recovery.is_type2() {
            self.totals.type2_steps += 1;
        }
        if self.mode == HistoryMode::Full {
            self.history.push(m);
        }
        m
    }

    /// Number of completed steps.
    pub fn steps_completed(&self) -> u64 {
        self.step_counter
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn charges_algorithm_edges_only() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.adversary_add_node(n(1));
        net.begin_step();
        net.adversary_add_edge(n(0), n(1)); // attack: free
        net.add_edge(n(0), n(1)); // healing: charged
        net.remove_edge(n(0), n(1)); // healing: charged
        let m = net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!(m.topology_changes, 2);
        assert_eq!(net.graph().num_edges(), 1);
    }

    #[test]
    fn step_scope_resets_counters() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.begin_step();
        net.charge_rounds(5);
        net.charge_messages(9);
        let m1 = net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!((m1.rounds, m1.messages), (5, 9));
        net.begin_step();
        let m2 = net.end_step(StepKind::Delete, RecoveryKind::Type1);
        assert_eq!((m2.rounds, m2.messages), (0, 0));
        assert_eq!(net.history().len(), 2);
        assert_eq!(net.history()[1].step, 2);
    }

    #[test]
    fn off_mode_retains_nothing_but_still_totals() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.set_history_mode(HistoryMode::Off);
        net.begin_step();
        net.charge_messages(7);
        net.end_step(StepKind::Delete, RecoveryKind::InflateSimple);
        assert!(net.history().is_empty());
        assert_eq!(net.totals().messages, 7);
        assert_eq!(net.totals().type2_steps, 1);
        // Switching modes later drops retained entries but keeps totals.
        net.set_history_mode(HistoryMode::Full);
        net.begin_step();
        net.end_step(StepKind::Insert, RecoveryKind::Type1);
        assert_eq!(net.history().len(), 1);
        assert_eq!(net.totals().steps, 2);
    }

    #[test]
    #[should_panic(expected = "begin_step inside an open step")]
    fn nested_steps_rejected() {
        let mut net = Network::new();
        net.begin_step();
        net.begin_step();
    }

    #[test]
    fn adversary_remove_reports_edge_count() {
        let mut net = Network::new();
        for i in 0..3 {
            net.adversary_add_node(n(i));
        }
        net.adversary_add_edge(n(0), n(1));
        net.adversary_add_edge(n(0), n(2));
        assert_eq!(net.adversary_remove_node(n(0)), 2);
        assert_eq!(net.n(), 2);
    }

    #[test]
    fn remove_missing_edge_not_charged() {
        let mut net = Network::new();
        net.adversary_add_node(n(0));
        net.adversary_add_node(n(1));
        net.begin_step();
        assert!(!net.remove_edge(n(0), n(1)));
        let m = net.end_step(StepKind::Delete, RecoveryKind::Type1);
        assert_eq!(m.topology_changes, 0);
    }
}
