//! Random walks on multigraphs.
//!
//! Type-1 recovery is built on O(log n)-length random walks whose hitting
//! behaviour is controlled by Gillman's Chernoff bound for expanders
//! (paper, Lemma 2). This module provides the walk primitive used by tests
//! and analysis tooling; the *protocol* walk (token forwarding with round
//! accounting) lives in `dex-core::walk` and must match this semantics.
//!
//! Walks run in the graph's dense slot space: the public [`NodeId`]
//! entry points resolve the id→slot translation once, then every hop is
//! two array reads and one RNG draw — no hashing, no heap allocation.
//!
//! # The K-way interleaved walk engine
//!
//! A single random walk on a DRAM-resident graph is a *dependent-miss
//! chain*: the next hop's adjacency row cannot even be requested until the
//! current row has arrived and the RNG has drawn from it, so every hop
//! costs a full memory round trip and the core sits idle. Batch callers
//! (the batch-heal planner, trial fan-outs, DHT search storms) hold many
//! *independent* walks, which makes the latency hideable: [`run_interleaved`]
//! keeps K walks in flight round-robin, and each visit to a lane issues
//! the prefetches for that lane's *next* line(s) before rotating on — so
//! one lane's DRAM miss overlaps the other K−1 lanes' compute. Each hop is
//! two pipeline stages, mirroring the two dependent lines per hop in the
//! slot arena ([`MultiGraph::prefetch_slot`] pulls the record;
//! [`MultiGraph::prefetch_slot_adj`] needs that record resident to find
//! the adjacency storage).
//!
//! **Interleaving is bit-identical to running the walks back-to-back, by
//! construction**: every lane draws exclusively from its own RNG stream
//! (per-job seed, or a stream keyed by `(step, id, index)` — never by
//! arrival order), consumes its own adjacency rows in its own hop order,
//! and never reads another lane's state. The scheduler permutes *when*
//! draws happen, not *what* is drawn. Differential proptests
//! (`tests/props.rs`) pin this across K ∈ {1, 4, 8} and thread counts.
//!
//! Consumers implement [`WalkLane`] (per-hop draw + arrival test) and get
//! the pipeline for free; [`walk_endpoints_interleaved`] is the
//! fixed-length uniform-walk instantiation the graph-core benchmark
//! times. Runtime callers pass [`WALK_PIPELINE_K`] as the pipeline depth,
//! and the engine reports mean in-flight occupancy for observability.

use crate::adjacency::MultiGraph;
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ======================================================================
// K-way interleaved walk engine
// ======================================================================

/// Pipeline depth (lanes in flight) every runtime caller of
/// [`run_interleaved`] uses. K = 8 covers one DRAM miss (~80–100 ns) with
/// ~7 other lanes' compute (~10–15 ns each); a larger K spends L1 on
/// in-flight lines, a smaller one leaves latency uncovered. Results are
/// K-invariant, so this is a schedule choice, not a parameter.
pub const WALK_PIPELINE_K: usize = 8;

/// One walk participating in [`run_interleaved`]. A lane owns *all* state
/// of its walk — RNG stream, hop budget, accumulated outcome — so lanes
/// are independent by construction and the engine's visit order can never
/// influence a result.
pub trait WalkLane {
    /// Draw the next slot from `slot`'s adjacency row (`nbrs`), or `None`
    /// to finish the walk (budget exhausted, stuck, or done). Must consume
    /// the lane's RNG exactly as the scalar walk would at this hop.
    fn choose(&mut self, g: &MultiGraph, slot: u32, nbrs: &[u32]) -> Option<u32>;

    /// The walk has arrived at `slot` (its record and adjacency prefetches
    /// were issued in earlier pipeline stages). Return `true` to finish
    /// (an accepting hit). Not called for the start slot — scalar walk
    /// semantics never test the start.
    fn arrive(&mut self, g: &MultiGraph, slot: u32) -> bool;

    /// Issue consumer-specific prefetches for `slot` one stage before
    /// [`WalkLane::arrive`] runs its test there (e.g. the Φ load entry the
    /// test will probe). Default: none.
    #[inline]
    fn prefetch_hint(&mut self, _g: &MultiGraph, _slot: u32) {}
}

/// Observability counters of one [`run_interleaved`] batch: how well the
/// pipeline stayed filled.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterleaveStats {
    /// Lane visits executed (pipeline stage steps).
    pub turns: u64,
    /// Sum over turns of the number of walks in flight at that turn.
    pub active_sum: u64,
}

impl InterleaveStats {
    /// Mean number of walks in flight per turn (≤ K; sags toward the tail
    /// as the batch drains).
    pub fn mean_in_flight(&self) -> f64 {
        if self.turns == 0 {
            0.0
        } else {
            self.active_sum as f64 / self.turns as f64
        }
    }

    /// Accumulate another batch's counters.
    pub fn merge(&mut self, other: InterleaveStats) {
        self.turns += other.turns;
        self.active_sum += other.active_sum;
    }
}

/// Pipeline position of one in-flight walk. Each hop takes two stages,
/// matching the slot arena's two dependent lines per hop: the stage that
/// *chose* a slot prefetches its record ([`MultiGraph::prefetch_slot`]);
/// the next visit prefetches its adjacency storage
/// ([`MultiGraph::prefetch_slot_adj`], which needs the record resident);
/// the visit after that consumes the row.
enum Stage {
    /// Start slot chosen at admission (record prefetched): pull its
    /// adjacency next.
    Seed,
    /// First hop: draw from the start row without testing the start.
    Boot,
    /// A chosen slot whose record is in flight: pull its adjacency + the
    /// consumer's hint lines.
    Fetch,
    /// A slot with both lines in flight: test arrival, then draw onward.
    Step,
}

struct Flight {
    lane: u32,
    slot: u32,
    stage: Stage,
}

/// Run `lanes[i]` as a walk starting at `starts[i]`, keeping up to `k`
/// walks in flight round-robin. Visits rotate through the in-flight ring;
/// each visit advances one pipeline stage and issues the prefetches for
/// that lane's next dependent line(s), so one lane's DRAM latency is
/// covered by the other lanes' work. Finished lanes are replaced from the
/// remaining backlog in index order.
///
/// Results are **bit-identical to running each lane's scalar walk
/// back-to-back** for any `k` (including 1): lanes own their RNG streams
/// and never observe each other, so the interleaving permutes only the
/// wall-clock order of memory accesses. Returns pipeline occupancy stats.
pub fn run_interleaved<L: WalkLane>(
    g: &MultiGraph,
    lanes: &mut [L],
    starts: &[u32],
    k: usize,
) -> InterleaveStats {
    assert_eq!(lanes.len(), starts.len(), "one start slot per lane");
    let k = k.clamp(1, lanes.len().max(1));
    let mut stats = InterleaveStats::default();
    let mut ring: Vec<Flight> = Vec::with_capacity(k);
    let mut backlog = 0usize; // next lane index to admit
    while ring.len() < k && backlog < lanes.len() {
        g.prefetch_slot(starts[backlog]);
        ring.push(Flight {
            lane: backlog as u32,
            slot: starts[backlog],
            stage: Stage::Seed,
        });
        backlog += 1;
    }
    let mut i = 0usize;
    while !ring.is_empty() {
        if i >= ring.len() {
            i = 0;
        }
        stats.turns += 1;
        stats.active_sum += ring.len() as u64;
        let fl = &mut ring[i];
        let lane = &mut lanes[fl.lane as usize];
        let done = match fl.stage {
            Stage::Seed => {
                g.prefetch_slot_adj(fl.slot);
                fl.stage = Stage::Boot;
                false
            }
            Stage::Fetch => {
                g.prefetch_slot_adj(fl.slot);
                lane.prefetch_hint(g, fl.slot);
                fl.stage = Stage::Step;
                false
            }
            Stage::Boot | Stage::Step => {
                let hit = matches!(fl.stage, Stage::Step) && lane.arrive(g, fl.slot);
                if hit {
                    true
                } else {
                    match lane.choose(g, fl.slot, g.neighbor_slots(fl.slot)) {
                        Some(next) => {
                            g.prefetch_slot(next);
                            fl.slot = next;
                            fl.stage = Stage::Fetch;
                            false
                        }
                        None => true,
                    }
                }
            }
        };
        if done {
            if backlog < lanes.len() {
                g.prefetch_slot(starts[backlog]);
                ring[i] = Flight {
                    lane: backlog as u32,
                    slot: starts[backlog],
                    stage: Stage::Seed,
                };
                backlog += 1;
                i += 1;
            } else {
                ring.swap_remove(i);
                // The swapped-in flight takes this ring position; visiting
                // it next keeps the rotation fair.
            }
        } else {
            i += 1;
        }
    }
    stats
}

/// Fixed-length uniform walk as a [`WalkLane`]: per-hop draws are exactly
/// [`MultiGraph::step_slot`]'s (`random_range(0..deg)`), so an interleaved
/// batch of these is bit-identical to per-job [`MultiGraph::walk_slots`].
pub struct EndpointLane<R> {
    rng: R,
    remaining: usize,
    /// Last slot visited (the endpoint once the lane finishes).
    pub end: u32,
}

impl<R> EndpointLane<R> {
    /// Lane walking `len` hops, drawing from `rng`.
    pub fn new(rng: R, len: usize, start: u32) -> Self {
        EndpointLane {
            rng,
            remaining: len,
            end: start,
        }
    }

    /// Consume the lane, returning its RNG — differential tests compare
    /// the stream position against the scalar walk's.
    pub fn into_rng(self) -> R {
        self.rng
    }
}

impl<R: Rng> WalkLane for EndpointLane<R> {
    fn choose(&mut self, g: &MultiGraph, slot: u32, nbrs: &[u32]) -> Option<u32> {
        self.end = slot;
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        assert!(
            !nbrs.is_empty(),
            "random walk stuck at isolated node {}",
            g.id_of_slot(slot)
        );
        Some(nbrs[self.rng.random_range(0..nbrs.len())])
    }

    fn arrive(&mut self, _g: &MultiGraph, slot: u32) -> bool {
        self.end = slot;
        false
    }
}

/// One fixed-length batch-walk job in slot space. Seeds are carried per
/// job so a batch can be split or re-ordered without changing endpoints.
#[derive(Debug, Clone, Copy)]
pub struct SlotWalkJob {
    /// Start slot (must be live).
    pub start: u32,
    /// Number of hops.
    pub len: usize,
    /// Per-walk RNG seed (`StdRng::seed_from_u64`).
    pub seed: u64,
}

/// Endpoints of a batch of independent fixed-length uniform walks, K-way
/// interleaved. `out[i]` is the endpoint of `jobs[i]`, bit-identical to
/// `g.walk_slots(jobs[i].start, jobs[i].len, &mut StdRng::seed_from_u64(jobs[i].seed))`
/// for every job, at any `k`. Returns pipeline occupancy stats.
pub fn walk_endpoints_interleaved(
    g: &MultiGraph,
    jobs: &[SlotWalkJob],
    k: usize,
    out: &mut [u32],
) -> InterleaveStats {
    assert_eq!(jobs.len(), out.len());
    let mut lanes: Vec<EndpointLane<StdRng>> = jobs
        .iter()
        .map(|j| EndpointLane::new(StdRng::seed_from_u64(j.seed), j.len, j.start))
        .collect();
    let starts: Vec<u32> = jobs.iter().map(|j| j.start).collect();
    let stats = run_interleaved(g, &mut lanes, &starts, k);
    for (slot, lane) in out.iter_mut().zip(&lanes) {
        *slot = lane.end;
    }
    stats
}

/// One uniform step from `u`: picks an adjacency entry uniformly, so
/// parallel edges weight their endpoint proportionally and a self-loop
/// stays put with probability `1/deg(u)`.
pub fn step<R: Rng + ?Sized>(g: &MultiGraph, u: NodeId, rng: &mut R) -> NodeId {
    let slot = g
        .slot_of(u)
        .unwrap_or_else(|| panic!("random walk from missing node {u}"));
    g.id_of_slot(g.step_slot(slot, rng))
}

/// Walk `len` steps from `start`; returns the endpoint.
pub fn walk<R: Rng + ?Sized>(g: &MultiGraph, start: NodeId, len: usize, rng: &mut R) -> NodeId {
    let slot = g
        .slot_of(start)
        .unwrap_or_else(|| panic!("random walk from missing node {start}"));
    g.id_of_slot(g.walk_slots(slot, len, rng))
}

/// Walk `len` steps from `start`; returns the full path (len+1 nodes).
pub fn walk_path<R: Rng + ?Sized>(
    g: &MultiGraph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(len + 1);
    path.push(start);
    let mut slot = g
        .slot_of(start)
        .unwrap_or_else(|| panic!("random walk from missing node {start}"));
    for _ in 0..len {
        slot = g.step_slot(slot, rng);
        path.push(g.id_of_slot(slot));
    }
    path
}

/// Total-variation distance of the `t`-step *lazy* walk distribution from
/// stationarity, starting at `start`. Dense O(t·m); for analysis and tests.
pub fn tv_distance_after(g: &MultiGraph, start: NodeId, t: usize) -> f64 {
    let csr = g.csr();
    let n = csr.n();
    let idx = csr
        .order
        .iter()
        .position(|&u| u == start)
        .expect("start not in graph");
    let deg_sum: f64 = (0..n).map(|i| csr.degree(i) as f64).sum();
    let pi: Vec<f64> = (0..n).map(|i| csr.degree(i) as f64 / deg_sum).collect();
    let mut dist = vec![0.0f64; n];
    dist[idx] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..t {
        next.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            if dist[i] == 0.0 {
                continue;
            }
            let d = csr.degree(i) as f64;
            next[i] += dist[i] * 0.5;
            let share = dist[i] * 0.5 / d;
            for &j in csr.row(i) {
                next[j as usize] += share;
            }
        }
        std::mem::swap(&mut dist, &mut next);
    }
    0.5 * dist
        .iter()
        .zip(pi.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Smallest `t ≤ max_t` with TV distance below `eps` from the worst start,
/// or `None`. Exact dense computation — small graphs only.
pub fn mixing_time(g: &MultiGraph, eps: f64, max_t: usize) -> Option<usize> {
    let nodes = g.nodes_sorted();
    'outer: for t in 1..=max_t {
        for &u in &nodes {
            if tv_distance_after(g, u, t) > eps {
                continue 'outer;
            }
        }
        return Some(t);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcycle::PCycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn walk_stays_in_graph() {
        let g = PCycle::new(23).to_multigraph();
        let mut rng = StdRng::seed_from_u64(1);
        for start in [0u64, 7, 22] {
            let end = walk(&g, NodeId(start), 50, &mut rng);
            assert!(g.has_node(end));
        }
    }

    #[test]
    fn walk_path_steps_are_edges() {
        let g = PCycle::new(23).to_multigraph();
        let mut rng = StdRng::seed_from_u64(2);
        let path = walk_path(&g, NodeId(0), 30, &mut rng);
        assert_eq!(path.len(), 31);
        for w in path.windows(2) {
            assert!(
                g.contains_edge(w[0], w[1]),
                "non-edge step {:?}->{:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn lazy_walk_mixes_on_expander() {
        let g = PCycle::new(101).to_multigraph();
        // O(log n) mixing with the family's constant: the p-cycle gap is
        // ≈0.06 (lazy ≈0.03), so C·log p with C ≈ 35 suffices here.
        let tv250 = tv_distance_after(&g, NodeId(0), 250);
        assert!(tv250 < 0.02, "tv after 250 lazy steps: {tv250}");
        // And mixing is monotone in t.
        let tv80 = tv_distance_after(&g, NodeId(0), 80);
        assert!(tv80 > tv250);
    }

    #[test]
    fn expander_mixes_faster_than_ring() {
        let expander = PCycle::new(61).to_multigraph();
        let mut ring = MultiGraph::new();
        for i in 0..61 {
            ring.add_node(NodeId(i));
        }
        for i in 0..61u64 {
            ring.add_edge(NodeId(i), NodeId((i + 1) % 61));
        }
        let t_exp = mixing_time(&expander, 0.05, 400).unwrap();
        let t_ring = mixing_time(&ring, 0.05, 4000).unwrap_or(4000);
        assert!(
            t_exp * 4 < t_ring,
            "expander {t_exp} not clearly faster than ring {t_ring}"
        );
    }

    #[test]
    fn interleaved_endpoints_match_scalar_walks() {
        let g = PCycle::new(211).to_multigraph();
        let jobs: Vec<SlotWalkJob> = (0..97)
            .map(|i| SlotWalkJob {
                start: g.slot_of(NodeId(i % 211)).unwrap(),
                len: (i as usize * 7) % 40, // includes len = 0
                seed: 0x5eed ^ i,
            })
            .collect();
        let scalar: Vec<u32> = jobs
            .iter()
            .map(|j| {
                let mut rng = StdRng::seed_from_u64(j.seed);
                g.walk_slots(j.start, j.len, &mut rng)
            })
            .collect();
        for k in [1, 2, 4, 8, 64] {
            let mut out = vec![0u32; jobs.len()];
            let stats = walk_endpoints_interleaved(&g, &jobs, k, &mut out);
            assert_eq!(out, scalar, "k={k}");
            assert!(stats.turns > 0);
            assert!(stats.mean_in_flight() <= k as f64 + 1e-9, "k={k}");
        }
    }

    #[test]
    fn interleaved_pipeline_stays_occupied() {
        // Uniform-length batch: until the tail drains, every turn should
        // see ~K walks in flight.
        let g = PCycle::new(101).to_multigraph();
        let jobs: Vec<SlotWalkJob> = (0..64)
            .map(|i| SlotWalkJob {
                start: g.slot_of(NodeId(i % 101)).unwrap(),
                len: 50,
                seed: i,
            })
            .collect();
        let mut out = vec![0u32; jobs.len()];
        let stats = walk_endpoints_interleaved(&g, &jobs, 8, &mut out);
        assert!(
            stats.mean_in_flight() > 7.0,
            "occupancy {:.2} of 8",
            stats.mean_in_flight()
        );
    }

    #[test]
    fn interleaved_empty_batch_is_a_noop() {
        let g = PCycle::new(23).to_multigraph();
        let stats = walk_endpoints_interleaved(&g, &[], 8, &mut []);
        assert_eq!(stats.turns, 0);
        assert_eq!(stats.mean_in_flight(), 0.0);
    }

    #[test]
    fn parallel_edges_bias_the_step() {
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        g.add_node(NodeId(1));
        g.add_node(NodeId(2));
        for _ in 0..9 {
            g.add_edge(NodeId(0), NodeId(1));
        }
        g.add_edge(NodeId(0), NodeId(2));
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits1 = 0;
        for _ in 0..2000 {
            if step(&g, NodeId(0), &mut rng) == NodeId(1) {
                hits1 += 1;
            }
        }
        // Expected 90%; allow generous slack.
        assert!(hits1 > 1650, "parallel edge bias missing: {hits1}/2000");
    }
}
