//! Deterministic parallel batch healing: conflict-graph scheduling of a
//! whole adversarial batch inside one network.
//!
//! DEX repair is local by design — each insertion/deletion touches only an
//! O(1)-size neighborhood of Φ and the fabric — so concurrent repairs that
//! touch disjoint regions commute (the Xheal observation). This module
//! exploits that inside a single network: a batch of k ops is partitioned
//! into **conflict-free waves** and each wave is applied with exactly the
//! state the sequential path would have given it, so the result is
//! **bit-identical to sequential application for any `--threads` value**
//! (the repo's standing determinism contract; differential proptests in
//! `tests/batch_par.rs` enforce it op-for-op).
//!
//! # How a wave is built: speculate → partition → commit
//!
//! 1. **Plan (parallel, read-only).** Every not-yet-applied op is
//!    *speculatively healed* against the current network state: its type-1
//!    walk is replayed hop-for-hop with the very RNG stream the sequential
//!    path would use (streams are keyed by `(step, id, index)`, never by
//!    arrival order), recording the walk outcome plus the op's **touch
//!    set** over the graph's dense slot indices — the slots its decisions
//!    *read* (walk visits, load probes, the victim's neighborhood) and the
//!    slots its application will *write* (attach point, donor/destination
//!    nodes, the Φ owner slots of every fabric instance it rewires).
//!    Deletions interleave walks with their own mutations, so they plan
//!    against a copy-on-write [`Overlay`] that replays adoption and vertex
//!    moves with exact `swap_remove`/`push` semantics. Because the plan
//!    already resolves every owner, the finished plan is a **slot
//!    program**: the exact fabric edge edits as pre-resolved arena slot
//!    pairs — all `NodeId → slot` hashing is hoisted out of the commit.
//!    Planning fans out over the persistent [`dex_exec`] worker pool via
//!    the chunk-deterministic [`dex_exec::for_chunks_scratch_mut`], with
//!    one [`PlanScratch`] living in each pool worker's persistent scratch
//!    slot — a planning round costs parked-worker handoffs, **zero thread
//!    spawns and zero scratch construction once warm** (a differential
//!    test asserts the spawn counter stays flat). Chunk boundaries are
//!    fixed, so the plans are identical for any thread count.
//! 2. **Partition (sequential, deterministic).** Scan plans in canonical
//!    (batch) order and accept the longest prefix whose members are
//!    pairwise compatible: op j joins the wave iff no slot in its touch
//!    set was *written* by an already-accepted op (greedy coloring over a
//!    slot-indexed epoch map, [`TouchTracker`]). Conflicting ops stay
//!    queued in order — ops sharing a slot therefore serialize across
//!    waves in canonical order. Keeping waves *prefix-shaped* (rather than
//!    hole-punching later ops forward) is what makes waved application
//!    provably equal to sequential: every committed op has seen either the
//!    exact pre-wave state (disjointness) or runs after all lower-indexed
//!    ops (next wave).
//! 3. **Commit (in-order).** Accepted plans replay their slot programs
//!    through the charged slot-space editors
//!    (`Network::{add,remove}_edge_slots`,
//!    [`crate::VirtualMapping::transfer_all`]) with the planned walk
//!    outcomes substituted for re-walking; costs are charged exactly as
//!    the sequential path charges them. Ops whose plan went *serial* (a
//!    walk miss → flood, a type-2 trigger, an attach point that is an
//!    earlier-in-batch newcomer) run through the untouched sequential heal
//!    code when they reach the head of the queue — a fully-conflicting
//!    batch degenerates to plain sequential application.
//!
//! Soundness of the touch sets (why accepted plans replay exactly): a
//! plan's *decisions* are its walk outcomes, victim/rescuer choices, and
//! resolved owner slots, all functions of the slots in its touch set — so
//! by induction over the wave's accept order, nothing an accepted op read
//! or will rewrite has changed since it was planned, and the slot program
//! it carries is exactly the edit the sequential path would compute.
//!
//! Why commits are sequential: a wave's writes are disjoint, but the
//! arenas' shared bookkeeping (slot free-lists, `num_edges`, Φ counters,
//! the metered step counters) is not, and slot allocation order is part of
//! the determinism contract. The planning pass carries the parallelizable
//! work — walks, probes, owner resolution, conflict hashing; what remains
//! is lean arena edits. On a single core the engine attacks the other
//! axis, **memory-level parallelism**: heal cost here is dominated by
//! dependent chains of scattered DRAM reads (arena records, Φ meta, hash
//! buckets), and the batch shape makes the *next* op's lines known while
//! the current one executes — the planner and the commit loop run a
//! depth-2 prefetch pipeline over op entry points and slot programs
//! ([`dex_graph::par::prefetch_read`]) so consecutive ops' misses overlap
//! instead of serializing.
//!
//! The sequential entry points survive as
//! [`DexNetwork::insert_batch_seq`]/[`DexNetwork::delete_batch_seq`] — the
//! differential oracle for tests and the baseline for `bench_batch`.
//!
//! The engine plans against the centralized fast path only. While a fault
//! spec is installed, `insert_batch`/`delete_batch` never enter it: the
//! batch heals op by op through the sequential path, whose walks run on
//! the message schedule ([`crate::faulted`]).

use crate::dex::DexNetwork;
use crate::fabric;
use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::walks::{run_interleaved, WalkLane, WALK_PIPELINE_K};
use dex_sim::rng::Purpose;
use rand::rngs::StdRng;
use rand::Rng;

/// Smallest batch routed through the waved engine; below this the
/// sequential path is applied directly (identical results either way —
/// the engine is bit-exact — but planning overhead isn't worth four ops).
pub const PAR_BATCH_MIN: usize = 8;

/// Fixed ops-per-chunk for the planning fan-out. Chunk boundaries must not
/// depend on the thread count (determinism), and a chunk is also the unit
/// over which one worker's pooled scratch amortizes.
const PLAN_CHUNK: usize = 16;

/// Hard cap on ops speculatively planned per wave round. The effective
/// lookahead is adaptive — ~4× the EMA of committed wave sizes
/// (`ParScratch::wave_ema`), clamped to `[32, PLAN_WINDOW]` — so under
/// heavy conflict the engine stops planning ops that the waves in front
/// of them would invalidate anyway.
const PLAN_WINDOW: usize = 1024;

/// Sentinel slot in an insert plan's program standing for the newcomer's
/// slot, which exists only once the commit creates the node.
const NEW_SLOT: u32 = u32::MAX;

/// Log₂-bucketed wave-size histogram: bucket `i` counts waves of size in
/// `[2^i, 2^(i+1))`, with the last bucket open-ended.
pub const WAVE_HIST_BUCKETS: usize = 12;

/// Cross-step statistics of the waved engine, accumulated on the network
/// (`DexNetwork::batch_stats`); `bench_batch` reads and resets them.
#[derive(Debug, Clone, Default)]
pub struct BatchHealStats {
    /// Conflict-free waves committed (serial fallbacks count as waves of
    /// size 1 — they occupy a wave slot in the schedule).
    pub waves: u64,
    /// Ops that fell back to the sequential heal path (walk miss/type-2
    /// risk, chained attach, or a panic-bound precondition).
    pub serial_ops: u64,
    /// Ops committed from parallel-planned waves.
    pub waved_ops: u64,
    /// Largest wave committed.
    pub max_wave: usize,
    /// Plans recomputed because a committed wave wrote into their touch
    /// set (speculation waste metric).
    pub replans: u64,
    /// Wall nanoseconds in the (parallelizable) planning pass.
    pub plan_ns: u64,
    /// Wall nanoseconds in partition scans + plan invalidation.
    pub partition_ns: u64,
    /// Wall nanoseconds committing waves.
    pub commit_ns: u64,
    /// Wall nanoseconds in serial fallback ops.
    pub serial_ns: u64,
    /// Log₂ histogram of committed wave sizes.
    pub wave_hist: [u64; WAVE_HIST_BUCKETS],
    /// Always 0: the adaptive crossover controller that counted batches
    /// routed around the engine is gone. Kept only because the frozen
    /// benchmark reads it; drop it with the next benchmark revision.
    pub crossover_batches: u64,
}

impl BatchHealStats {
    fn record_wave(&mut self, size: usize) {
        self.waves += 1;
        self.max_wave = self.max_wave.max(size);
        let b = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
        self.wave_hist[b.min(WAVE_HIST_BUCKETS - 1)] += 1;
    }

    /// Reset all counters (between benchmark sections).
    pub fn reset(&mut self) {
        *self = BatchHealStats::default();
    }
}

/// One batched adversarial event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchOp {
    /// Insert `u` attached to `v`.
    Insert { u: NodeId, v: NodeId },
    /// Delete `victim`.
    Delete { victim: NodeId },
}

/// A speculative heal plan for one op (or the reason it cannot be waved).
#[cfg_attr(test, derive(Debug, PartialEq))]
enum OpPlan {
    /// Not planned against the current state (fresh, or invalidated by a
    /// committed wave).
    Stale,
    /// Attach point not alive yet — an earlier-in-batch newcomer must
    /// commit first. Re-planned every wave.
    Blocked,
    /// The op's heal leaves the pure type-1 fast path (walk miss → flood
    /// and possibly type-2) or trips a precondition; it must run through
    /// the sequential code. `touch` is everything its decision read (the
    /// plan stays valid while those slots are untouched).
    Serial { touch: Vec<u32> },
    /// Insert resolved to a single-transfer type-1 heal.
    Insert(InsertPlan),
    /// Delete resolved to an adopt-and-redistribute type-1 heal.
    Delete(DeletePlan),
}

/// Planned insert: walk outcome, donated vertex, and the fabric edit as a
/// pre-resolved slot program (≤ 3 instances; the newcomer's side of a
/// re-add is [`NEW_SLOT`]).
#[cfg_attr(test, derive(Debug, PartialEq))]
struct InsertPlan {
    hit: NodeId,
    hit_slot: u32,
    v_slot: u32,
    /// Donated vertex (`max(Sim(hit))` at plan time — unchanged by wave
    /// disjointness; commit `debug_assert`s it).
    z: VertexId,
    hops: u64,
    /// Instance removals (owners before the move).
    rm: [(u32, u32); 3],
    /// Instance re-adds (owners after the move; [`NEW_SLOT`] = newcomer).
    ad: [(u32, u32); 3],
    n_inst: u8,
    reads: Vec<u32>,
    writes: Vec<u32>,
}

/// Planned delete: rescuer election, one planned walk outcome per adopted
/// vertex (in `Sim(victim)` order), and the whole fabric edit as one flat
/// slot program.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct DeletePlan {
    rescuer: NodeId,
    /// Destination of vertex `i` of the victim's `Sim` set.
    dests: Vec<NodeId>,
    /// Hops the walk for vertex `i` took (charged at commit).
    hops: Vec<u64>,
    /// Slot program: `prog[..adopt_n]` are the adoption re-adds; then for
    /// each move with `dest != rescuer`, `move_insts[j]` removals followed
    /// by the same number of re-adds.
    prog: Vec<(u32, u32)>,
    adopt_n: u32,
    move_insts: Vec<u8>,
    reads: Vec<u32>,
    writes: Vec<u32>,
}

impl OpPlan {
    /// (reads, writes) of a waveable plan; `None` otherwise.
    fn touch_sets(&self) -> Option<(&[u32], &[u32])> {
        match self {
            OpPlan::Insert(p) => Some((&p.reads, &p.writes)),
            OpPlan::Delete(p) => Some((&p.reads, &p.writes)),
            _ => None,
        }
    }

    /// Does a committed wave's write set overlap this plan's touch set?
    fn invalidated_by(&self, tracker: &TouchTracker) -> bool {
        match self {
            OpPlan::Stale => false,  // will be re-planned anyway
            OpPlan::Blocked => true, // unblocked only by commits: re-plan
            OpPlan::Serial { touch } => touch.iter().any(|&s| tracker.written(s)),
            OpPlan::Insert(p) => p.reads.iter().chain(&p.writes).any(|&s| tracker.written(s)),
            OpPlan::Delete(p) => p.reads.iter().chain(&p.writes).any(|&s| tracker.written(s)),
        }
    }
}

// ======================================================================
// Conflict tracking
// ======================================================================

/// Epoch-stamped write marks over the graph's dense slot space: `O(1)`
/// mark/test, `O(1)` wave reset (bump the epoch), reused across batches
/// with no clearing.
#[derive(Default)]
pub(crate) struct TouchTracker {
    mark: Vec<u32>,
    epoch: u32,
}

impl TouchTracker {
    fn begin_wave(&mut self, slot_bound: usize) {
        if self.mark.len() < slot_bound {
            // Power-of-two headroom: the bound creeps upward as inserts
            // commit, and an exact per-wave resize would be steady-state
            // allocation pressure (cf. `Overlay::ensure_slots`).
            self.mark.resize(slot_bound.next_power_of_two(), 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
    }

    #[inline]
    fn mark_write(&mut self, slot: u32) {
        // Slots created after the wave snapshot never appear in plans.
        if let Some(m) = self.mark.get_mut(slot as usize) {
            *m = self.epoch;
        }
    }

    #[inline]
    fn written(&self, slot: u32) -> bool {
        self.mark.get(slot as usize).copied() == Some(self.epoch)
    }
}

// ======================================================================
// Per-worker planning scratch
// ======================================================================

/// Free-lists of the vectors plans carry (touch sets, per-vertex walk
/// outcomes, slot programs). Retired plans recycle their buffers here
/// instead of freeing them, so the steady-state single-thread waved path
/// allocates nothing per batch once warm (parallel workers allocate afresh
/// per wave — amortized over their chunks — because plans outlive workers).
#[derive(Default)]
struct BufPool {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    u8s: Vec<Vec<u8>>,
    nodes: Vec<Vec<NodeId>>,
    pairs: Vec<Vec<(u32, u32)>>,
}

/// Free-list cap — bounds pool growth when the parallel path recycles
/// worker-allocated buffers it will never hand back out.
const BUF_POOL_CAP: usize = 4096;

macro_rules! pool_lane {
    ($get:ident, $put:ident, $field:ident, $t:ty) => {
        fn $get(&mut self) -> Vec<$t> {
            self.$field.pop().unwrap_or_default()
        }
        fn $put(&mut self, mut v: Vec<$t>) {
            if self.$field.len() < BUF_POOL_CAP {
                v.clear();
                self.$field.push(v);
            }
        }
    };
}

impl BufPool {
    pool_lane!(get_u32, put_u32, u32s, u32);
    pool_lane!(get_u64, put_u64, u64s, u64);
    pool_lane!(get_u8, put_u8, u8s, u8);
    pool_lane!(get_nodes, put_nodes, nodes, NodeId);
    pool_lane!(get_pairs, put_pairs, pairs, (u32, u32));

    /// Reclaim a retired plan's buffers.
    fn recycle(&mut self, plan: OpPlan) {
        match plan {
            OpPlan::Stale | OpPlan::Blocked => {}
            OpPlan::Serial { touch } => self.put_u32(touch),
            OpPlan::Insert(p) => {
                self.put_u32(p.reads);
                self.put_u32(p.writes);
            }
            OpPlan::Delete(p) => {
                self.put_u32(p.reads);
                self.put_u32(p.writes);
                self.put_u64(p.hops);
                self.put_u8(p.move_insts);
                self.put_nodes(p.dests);
                self.put_pairs(p.prog);
            }
        }
    }
}

/// Pooled buffers for one planning worker: the copy-on-write overlay a
/// delete plan mutates, plus list/instance staging and the plan-buffer
/// free-lists. One instance per worker per wave (persistent across waves
/// in the single-thread path); contents never influence results — pure
/// scratch.
#[derive(Default)]
pub(crate) struct PlanScratch {
    overlay: Overlay,
    /// Victim `Sim` snapshot (plan-local).
    zs: Vec<VertexId>,
    /// Rescuer-election neighbor staging.
    nbrs: Vec<NodeId>,
    /// Fabric instance staging for adoption / per-vertex moves.
    insts: Vec<(VertexId, VertexId)>,
    /// Victim adjacency snapshot for overlay node removal.
    incident: Vec<u32>,
    /// Plan-buffer free-lists.
    pool: BufPool,
}

impl PlanScratch {
    fn new() -> Self {
        Self::default()
    }
}

/// Copy-on-write view of (graph adjacency, Φ ownership) that a delete plan
/// mutates while the real structures stay read-only. Materialized lists
/// replicate the arena's exact `push`/`swap_remove` semantics, so list
/// *order* — which feeds the reservoir sampling of later walk hops — is
/// byte-for-byte what the sequential path would have produced.
///
/// An op materializes a few dozen rows at most, so rows live in flat
/// pooled vectors — but the *hit test* runs on every walk hop and edge
/// edit, so it goes through an epoch-stamped dense `slot → row` index
/// (O(1), reset by bumping the epoch) instead of a linear scan. The
/// small `Sim`/owner override sets stay linear.
#[derive(Default)]
struct Overlay {
    /// Materialized adjacency rows: `adj_slots[i]`'s row is `adj_pool[i]`.
    adj_slots: Vec<u32>,
    adj_pool: Vec<Vec<u32>>,
    /// Dense `(epoch, row)` per graph slot; a stamp equal to the current
    /// epoch means the slot is overlaid at `adj_pool[row]`.
    adj_idx: Vec<(u32, u32)>,
    epoch: u32,
    /// Materialized `Sim` sets: `sim_nodes[i]`'s set is `sim_pool[i]`.
    sim_nodes: Vec<NodeId>,
    sim_pool: Vec<Vec<VertexId>>,
    /// Vertex-owner overrides (append-only; last entry wins).
    owner_z: Vec<u64>,
    owner_node: Vec<NodeId>,
}

impl Overlay {
    /// Pre-size the dense row index to the arena's slot bound so the
    /// steady-state (inline, pooled) planning path never grows it
    /// mid-measurement. Worker-local overlays skip this and grow lazily —
    /// a fresh worker scratch lives for one planning round, and zeroing
    /// `slot_bound` entries per round would cost more than it saves.
    fn ensure_slots(&mut self, bound: usize) {
        if self.adj_idx.len() < bound {
            // Power-of-two headroom: the bound creeps upward under growth
            // churn, and re-sizing every batch would itself be steady-state
            // allocation pressure.
            self.adj_idx.resize(bound.next_power_of_two(), (0, 0));
        }
    }

    fn reset(&mut self) {
        self.adj_slots.clear();
        self.sim_nodes.clear();
        self.owner_z.clear();
        self.owner_node.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.adj_idx.fill((0, 0));
                1
            }
        };
    }

    /// Overlay row of `slot`, if materialized this epoch.
    #[inline]
    fn row_of(&self, slot: u32) -> Option<usize> {
        match self.adj_idx.get(slot as usize) {
            Some(&(e, row)) if e == self.epoch => Some(row as usize),
            _ => None,
        }
    }

    /// Adjacency row of `slot` (overlaid or underlying).
    #[inline]
    fn adj<'a>(&'a self, g: &'a MultiGraph, slot: u32) -> &'a [u32] {
        match self.row_of(slot) {
            Some(i) => &self.adj_pool[i],
            None => g.neighbor_slots(slot),
        }
    }

    /// Materialize (copy-on-write) `slot`'s adjacency row for mutation,
    /// write-marking it on first touch.
    fn adj_mut(&mut self, g: &MultiGraph, slot: u32, writes: &mut Vec<u32>) -> &mut Vec<u32> {
        let i = match self.row_of(slot) {
            Some(i) => i,
            None => {
                let i = self.adj_slots.len();
                self.adj_slots.push(slot);
                if self.adj_pool.len() <= i {
                    self.adj_pool.push(Vec::new());
                }
                self.adj_pool[i].clear();
                self.adj_pool[i].extend_from_slice(g.neighbor_slots(slot));
                if self.adj_idx.len() <= slot as usize {
                    self.adj_idx.resize(slot as usize + 1, (0, 0));
                }
                self.adj_idx[slot as usize] = (self.epoch, i as u32);
                writes.push(slot);
                i
            }
        };
        &mut self.adj_pool[i]
    }

    /// Replicate `MultiGraph::remove_node` (entry order, first-occurrence
    /// `swap_remove` per reverse entry). `incident` is caller staging.
    fn remove_node(
        &mut self,
        g: &MultiGraph,
        slot: u32,
        incident: &mut Vec<u32>,
        writes: &mut Vec<u32>,
    ) {
        incident.clear();
        incident.extend_from_slice(self.adj(g, slot));
        for &vs in incident.iter() {
            if vs != slot {
                let list = self.adj_mut(g, vs, writes);
                let pos = list
                    .iter()
                    .position(|&w| w == slot)
                    .expect("adjacency symmetry violated in overlay");
                list.swap_remove(pos);
            }
        }
        self.adj_mut(g, slot, writes).clear();
    }

    /// Replicate `MultiGraph::add_edge` in slot space.
    fn add_edge(&mut self, g: &MultiGraph, su: u32, sv: u32, writes: &mut Vec<u32>) {
        if su == sv {
            self.adj_mut(g, su, writes).push(su);
        } else {
            self.adj_mut(g, su, writes).push(sv);
            self.adj_mut(g, sv, writes).push(su);
        }
    }

    /// Replicate `MultiGraph::remove_edge` in slot space (must exist —
    /// the fabric invariant the real path asserts too).
    fn remove_edge(&mut self, g: &MultiGraph, su: u32, sv: u32, writes: &mut Vec<u32>) {
        let lu = self.adj_mut(g, su, writes);
        let pos = lu
            .iter()
            .position(|&w| w == sv)
            .expect("overlay fabric desync: missing instance");
        lu.swap_remove(pos);
        if su != sv {
            let lv = self.adj_mut(g, sv, writes);
            let pos = lv
                .iter()
                .position(|&w| w == su)
                .expect("overlay fabric desync: missing reverse instance");
            lv.swap_remove(pos);
        }
    }

    /// Current owner of `z` under the overlay.
    #[inline]
    fn owner_of(&self, dex: &DexNetwork, z: VertexId) -> NodeId {
        // Last write wins (a vertex can move twice: adoption, then spread).
        match self.owner_z.iter().rposition(|&y| y == z.0) {
            Some(i) => self.owner_node[i],
            None => dex.map.owner_of(z),
        }
    }

    /// Materialize `u`'s `Sim` set for mutation, write-marking `u`'s graph
    /// slot on first touch.
    fn sim_mut(
        &mut self,
        dex: &DexNetwork,
        u: NodeId,
        writes: &mut Vec<u32>,
    ) -> &mut Vec<VertexId> {
        let i = match self.sim_nodes.iter().position(|&w| w == u) {
            Some(i) => i,
            None => {
                let i = self.sim_nodes.len();
                self.sim_nodes.push(u);
                if self.sim_pool.len() <= i {
                    self.sim_pool.push(Vec::new());
                }
                self.sim_pool[i].clear();
                self.sim_pool[i].extend_from_slice(dex.map.sim(u));
                if let Some(slot) = dex.net.graph().slot_of(u) {
                    writes.push(slot);
                }
                i
            }
        };
        &mut self.sim_pool[i]
    }

    /// Load of `u` under the overlay.
    #[inline]
    fn load(&self, dex: &DexNetwork, u: NodeId) -> u64 {
        match self.sim_nodes.iter().position(|&w| w == u) {
            Some(i) => self.sim_pool[i].len() as u64,
            None => dex.map.load(u),
        }
    }

    /// Replicate `VirtualMapping::transfer` (swap-remove from the old
    /// owner's `Sim`, push onto the new one's).
    fn transfer(&mut self, dex: &DexNetwork, z: VertexId, to: NodeId, writes: &mut Vec<u32>) {
        let from = self.owner_of(dex, z);
        let list = self.sim_mut(dex, from, writes);
        let pos = list
            .iter()
            .position(|&y| y == z)
            .expect("overlay Sim desync");
        list.swap_remove(pos);
        self.sim_mut(dex, to, writes).push(z);
        self.owner_z.push(z.0);
        self.owner_node.push(to);
    }
}

// ======================================================================
// Engine state pooled on the network
// ======================================================================

/// Batch-engine state owned by [`crate::scratch::HealScratch`]: plans,
/// the conflict map, the op staging buffer, and the single-thread
/// planning scratch — all reused across batches.
#[derive(Default)]
pub(crate) struct ParScratch {
    plans: Vec<OpPlan>,
    tracker: TouchTracker,
    pub(crate) ops: Vec<BatchOp>,
    /// Planning scratch for the inline (threads ≤ 1) path, kept warm
    /// across waves and batches.
    inline_scratch: Option<Box<PlanScratch>>,
    /// EMA of committed wave sizes, persisted across batches: sets the
    /// speculation lookahead (plans that would only be invalidated by the
    /// waves in front of them are never computed). Deterministic — a pure
    /// function of the committed wave history.
    wave_ema: usize,
}

// ======================================================================
// Planning
// ======================================================================

/// Replay the reservoir step of `dex_sim::tokens::random_walk_search` over
/// an adjacency row: identical candidate set and identical RNG consumption
/// (the sequential walk's `exclude` slot never appears in any row the
/// planner sees — for inserts the newcomer is not in the graph yet, which
/// skips without drawing in both worlds).
#[inline]
fn reservoir_step(g: &MultiGraph, nbrs: &[u32], rng: &mut StdRng) -> Option<u32> {
    let mut choice: Option<u32> = None;
    for (i, &v) in nbrs.iter().enumerate() {
        // `seen` in the sequential reservoir is `i + 1`; the range bound —
        // and hence the RNG draw sequence — is identical.
        if rng.random_range(0..i + 1) == 0 {
            choice = Some(v);
            // Start pulling the candidate's arena record now: the
            // reservoir settles after ~H(deg) updates, so by the end of
            // the scan the chosen next hop's line is usually in flight —
            // the walk's dependent-miss chain overlaps with the scan.
            g.prefetch_slot(v);
        }
    }
    choice
}

/// Speculatively heal one op against the current state. Read-only; all
/// mutation happens in `scratch.overlay`. Scalar oracle (see
/// [`plan_chunk_scalar`]).
#[cfg(test)]
fn plan_op(dex: &DexNetwork, op: BatchOp, walk_len: u64, scratch: &mut PlanScratch) -> OpPlan {
    match op {
        BatchOp::Insert { u, v } => plan_insert(dex, u, v, walk_len, scratch),
        BatchOp::Delete { victim } => plan_delete(dex, victim, walk_len, scratch),
    }
}

/// Pay the entry-point resolutions of `op` early (slot hash + record
/// line) so they overlap the planning of the op before it.
fn prefetch_plan_entry(dex: &DexNetwork, op: BatchOp) {
    let g = dex.net.graph();
    match op {
        BatchOp::Insert { v, .. } => {
            if let Some(s) = g.slot_of(v) {
                g.prefetch_slot(s);
            }
        }
        BatchOp::Delete { victim } => {
            if let Some(s) = g.slot_of(victim) {
                g.prefetch_slot(s);
            }
            dex.map.prefetch_node(victim);
        }
    }
}

/// Second prefetch stage: the entry row itself (its record is resident
/// from [`prefetch_plan_entry`] one op earlier).
fn prefetch_plan_row(dex: &DexNetwork, op: BatchOp) {
    let g = dex.net.graph();
    let u = match op {
        BatchOp::Insert { v, .. } => v,
        BatchOp::Delete { victim } => victim,
    };
    if let Some(s) = g.slot_of(u) {
        g.prefetch_slot_adj(s);
    }
}

/// One insert walk in flight in the K-way interleaved planner: replays
/// [`plan_insert`]'s walk loop — same keyed RNG stream, same `reads`
/// trace, same spare test — while the engine schedules *when* each hop's
/// adjacency row is read.
struct InsertLane<'d> {
    dex: &'d DexNetwork,
    rng: StdRng,
    walk_len: u64,
    hops: u64,
    hit: Option<u32>,
    reads: Vec<u32>,
}

impl WalkLane for InsertLane<'_> {
    fn choose(&mut self, g: &MultiGraph, _slot: u32, nbrs: &[u32]) -> Option<u32> {
        if self.hops >= self.walk_len {
            return None;
        }
        let next = reservoir_step(g, nbrs, &mut self.rng)?;
        self.hops += 1;
        Some(next)
    }

    fn arrive(&mut self, g: &MultiGraph, slot: u32) -> bool {
        self.reads.push(slot);
        if self.dex.map.is_spare(g.id_of_slot(slot)) {
            self.hit = Some(slot);
            true
        } else {
            false
        }
    }

    fn prefetch_hint(&mut self, g: &MultiGraph, slot: u32) {
        // The spare test at arrival reads the Φ map's node meta; start
        // that line alongside the adjacency row (the slot record itself
        // is resident from the previous pipeline stage).
        self.dex.map.prefetch_node(g.id_of_slot(slot));
    }
}

/// Scalar planner for one chunk of ops (`chunk[i]` plans op
/// `ops[first + i]`): depth-2 entry pipeline — resolve + prefetch op
/// i+2's entry record, row-prefetch op i+1, plan op i. The oracle the
/// interleaved planner is differentially tested against.
#[cfg(test)]
fn plan_chunk_scalar(
    dex: &DexNetwork,
    ops: &[BatchOp],
    first: usize,
    walk_len: u64,
    chunk: &mut [OpPlan],
    ps: &mut PlanScratch,
) {
    let len = chunk.len();
    for (off, slot) in chunk.iter_mut().enumerate() {
        if off + 2 < len {
            prefetch_plan_entry(dex, ops[first + off + 2]);
        }
        if off + 1 < len {
            prefetch_plan_row(dex, ops[first + off + 1]);
        }
        if matches!(slot, OpPlan::Stale) {
            *slot = plan_op(dex, ops[first + off], walk_len, ps);
        }
    }
}

/// Memory-level-parallel planner for one chunk: phase 1 drives every
/// stale insert's walk through the K-way interleaved engine — ~K walks
/// advance round-robin, each one's next adjacency row prefetched while
/// the others consume already-resident lines — then phase 2 finishes the
/// insert plans from the recorded outcomes and plans deletes (whose
/// redistribution walks run over a per-op overlay and therefore stay
/// serial within the op) under the retained depth-2 entry pipeline.
///
/// Bit-identical to [`plan_chunk_scalar`]: every walk owns its keyed RNG
/// stream, so interleaving permutes only the wall-clock order of row
/// reads, never a draw — a differential test compares whole plans.
fn plan_chunk_interleaved(
    dex: &DexNetwork,
    ops: &[BatchOp],
    first: usize,
    walk_len: u64,
    chunk: &mut [OpPlan],
    ps: &mut PlanScratch,
) {
    let g = dex.net.graph();
    // ---- phase 1: fan the stale inserts' walks K-way -----------------
    let mut lanes: Vec<InsertLane> = Vec::with_capacity(chunk.len());
    let mut starts: Vec<u32> = Vec::with_capacity(chunk.len());
    for (off, slot) in chunk.iter_mut().enumerate() {
        if !matches!(slot, OpPlan::Stale) {
            continue;
        }
        if let BatchOp::Insert { u, v } = ops[first + off] {
            let Some(start) = g.slot_of(v) else {
                // Chained join: the attach point is an earlier newcomer
                // of this batch that has not committed yet.
                *slot = OpPlan::Blocked;
                continue;
            };
            let mut reads = ps.pool.get_u32();
            reads.push(start);
            lanes.push(InsertLane {
                dex,
                rng: dex
                    .seeds
                    .stream(Purpose::InsertWalk, &[dex.step_no, u.0, 0]),
                walk_len,
                hops: 0,
                hit: None,
                reads,
            });
            starts.push(start);
        }
    }
    run_interleaved(g, &mut lanes, &starts, WALK_PIPELINE_K);
    // ---- phase 2: finish plans in op order ---------------------------
    let len = chunk.len();
    let mut lane = lanes.into_iter();
    for (off, slot) in chunk.iter_mut().enumerate() {
        // Deletes keep the depth-2 entry pipeline; insert entries were
        // already streamed through the engine in phase 1.
        if off + 2 < len {
            if let op @ BatchOp::Delete { .. } = ops[first + off + 2] {
                prefetch_plan_entry(dex, op);
            }
        }
        if off + 1 < len {
            if let op @ BatchOp::Delete { .. } = ops[first + off + 1] {
                prefetch_plan_row(dex, op);
            }
        }
        if !matches!(slot, OpPlan::Stale) {
            continue;
        }
        *slot = match ops[first + off] {
            BatchOp::Insert { .. } => {
                let l = lane.next().expect("one lane per stale insert");
                plan_insert_finish(dex, l.hit, l.hops, l.reads, ps)
            }
            BatchOp::Delete { victim } => plan_delete(dex, victim, walk_len, ps),
        };
    }
    debug_assert!(lane.next().is_none(), "all insert lanes consumed");
}

/// Scalar insert planner: the walk loop [`InsertLane`] replays hop for
/// hop. Oracle for the interleaved planner.
#[cfg(test)]
fn plan_insert(
    dex: &DexNetwork,
    u: NodeId,
    v: NodeId,
    walk_len: u64,
    scratch: &mut PlanScratch,
) -> OpPlan {
    let g = dex.net.graph();
    let Some(start) = g.slot_of(v) else {
        // Chained join: the attach point is an earlier newcomer of this
        // batch that has not committed yet.
        return OpPlan::Blocked;
    };
    let mut reads: Vec<u32> = scratch.pool.get_u32();
    reads.push(start);
    // Exactly `heal_one_insert`, attempt 0: walk from the attach point
    // with the stream keyed by the newcomer id.
    let mut rng = dex
        .seeds
        .stream(Purpose::InsertWalk, &[dex.step_no, u.0, 0]);
    let mut cur = start;
    let mut hops = 0u64;
    let mut hit = None;
    while hops < walk_len {
        let Some(next) = reservoir_step(g, g.neighbor_slots(cur), &mut rng) else {
            break;
        };
        hops += 1;
        cur = next;
        reads.push(cur);
        if dex.map.is_spare(g.id_of_slot(cur)) {
            hit = Some(cur);
            break;
        }
    }
    plan_insert_finish(dex, hit, hops, reads, scratch)
}

/// Resolve a planned insert's fabric edit from its walk outcome:
/// `reads[0]` is the attach slot, `hit` the spare's slot (`None` = walk
/// miss ⇒ sequential territory). Shared tail of the scalar
/// [`plan_insert`] and the K-way interleaved planner, so both produce
/// the plan from one code path.
fn plan_insert_finish(
    dex: &DexNetwork,
    hit: Option<u32>,
    hops: u64,
    reads: Vec<u32>,
    scratch: &mut PlanScratch,
) -> OpPlan {
    let g = dex.net.graph();
    let start = reads[0];
    let Some(hit_slot) = hit else {
        // Walk miss ⇒ flood count ⇒ possibly type-2: whole-state reads.
        return OpPlan::Serial { touch: reads };
    };
    let mut writes: Vec<u32> = scratch.pool.get_u32();
    let w = g.id_of_slot(hit_slot);
    writes.push(start);
    writes.push(hit_slot);
    // The donated vertex, and the whole fabric edit as a slot program:
    // owners resolved here, once, instead of hash-by-hash at commit.
    let z = *dex
        .map
        .sim(w)
        .iter()
        .max()
        .expect("spare node simulates a vertex");
    fabric::incident_edges_into(&dex.cycle, &[z], &mut scratch.insts);
    let mut rm = [(0u32, 0u32); 3];
    let mut ad = [(0u32, 0u32); 3];
    let n_inst = scratch.insts.len();
    debug_assert!(n_inst <= 3);
    for (i, &(a, b)) in scratch.insts.iter().enumerate() {
        // One owner resolution per endpoint serves both the removal (z
        // still at the donor) and the re-add (z at the newcomer).
        let resolve = |x: VertexId| -> (u32, u32) {
            if x == z {
                return (hit_slot, NEW_SLOT);
            }
            let owner = dex.map.owner_of(x);
            let s = g.slot_of(owner).expect("owner is live");
            (s, s)
        };
        let (ra, aa) = resolve(a);
        let (rb, ab) = resolve(b);
        rm[i] = (ra, rb);
        ad[i] = (aa, ab);
        for s in [ra, rb] {
            if s != hit_slot {
                writes.push(s);
            }
        }
    }
    OpPlan::Insert(InsertPlan {
        hit: w,
        hit_slot,
        v_slot: start,
        z,
        hops,
        rm,
        ad,
        n_inst: n_inst as u8,
        reads,
        writes,
    })
}

fn plan_delete(
    dex: &DexNetwork,
    victim: NodeId,
    walk_len: u64,
    scratch: &mut PlanScratch,
) -> OpPlan {
    let g = dex.net.graph();
    let cycle = &dex.cycle;
    let vslot = g.slot_of(victim).expect("victim validated live");
    let mut reads: Vec<u32> = scratch.pool.get_u32();
    let mut writes: Vec<u32> = scratch.pool.get_u32();
    reads.push(vslot);

    // Overlap the op's scattered dependent reads before chasing them:
    // every victim neighbor's record (rescuer election + removal fix-ups)
    // and the Φ meta of every incident vertex the adoption will resolve
    // (the incident list is a pure function of (cycle, zs), so it is
    // computed here once and reused below).
    for &s in g.neighbor_slots(vslot) {
        g.prefetch_slot(s);
    }
    let zs = &mut scratch.zs;
    zs.clear();
    zs.extend_from_slice(dex.map.sim(victim));
    fabric::incident_edges_into(cycle, zs, &mut scratch.insts);
    for &(a, b) in scratch.insts.iter() {
        dex.map.prefetch_vertex(a);
        dex.map.prefetch_vertex(b);
    }

    // Rescuer election, exactly as the sequential entry loop does it.
    let nbrs = &mut scratch.nbrs;
    nbrs.clear();
    nbrs.extend(
        g.neighbor_slots(vslot)
            .iter()
            .map(|&s| g.id_of_slot(s))
            .filter(|&w| w != victim),
    );
    nbrs.sort_unstable();
    nbrs.dedup();
    if nbrs.is_empty() {
        // The sequential path panics ("lost all neighbors"); route through
        // it so the failure is identical.
        scratch.pool.put_u32(writes);
        return OpPlan::Serial { touch: reads };
    }
    let rescuer = nbrs[0];
    let rescuer_slot = g.slot_of(rescuer).expect("rescuer is live");

    let ov = &mut scratch.overlay;
    ov.reset();
    let mut prog: Vec<(u32, u32)> = scratch.pool.get_pairs();
    let mut move_insts: Vec<u8> = scratch.pool.get_u8();

    // adversary_remove_node(victim).
    ov.remove_node(g, vslot, &mut scratch.incident, &mut writes);
    // adopt_vertices: transfer all to the rescuer, then restore incident
    // instances under the new owners.
    for &z in zs.iter() {
        ov.transfer(dex, z, rescuer, &mut writes);
    }
    // `scratch.insts` still holds the adoption incident list from above.
    for i in 0..scratch.insts.len() {
        let (a, b) = scratch.insts[i];
        let (ua, ub) = (ov.owner_of(dex, a), ov.owner_of(dex, b));
        let (sa, sb) = (
            g.slot_of(ua).expect("owner is live"),
            g.slot_of(ub).expect("owner is live"),
        );
        ov.add_edge(g, sa, sb, &mut writes);
        prog.push((sa, sb));
    }
    let adopt_n = prog.len() as u32;

    // Per-vertex redistribution walks, each over the overlayed state.
    let mut dests: Vec<NodeId> = scratch.pool.get_nodes();
    let mut hops_per: Vec<u64> = scratch.pool.get_u64();
    for (i, &z) in zs.iter().enumerate() {
        let mut rng = dex
            .seeds
            .stream(Purpose::DeleteWalk, &[dex.step_no, victim.0, i as u64, 0]);
        let mut cur = rescuer_slot;
        let mut hops = 0u64;
        let mut hit = None;
        while hops < walk_len {
            let Some(next) = reservoir_step(g, ov.adj(g, cur), &mut rng) else {
                break;
            };
            hops += 1;
            cur = next;
            reads.push(cur);
            let id = g.id_of_slot(cur);
            let l = ov.load(dex, id);
            if l >= 1 && l <= 2 * dex.cfg.zeta {
                hit = Some(id);
                break;
            }
        }
        let Some(w) = hit else {
            // Miss ⇒ flood ⇒ possibly deflate: sequential path territory.
            reads.extend_from_slice(&writes);
            scratch.pool.put_u32(writes);
            scratch.pool.put_nodes(dests);
            scratch.pool.put_u64(hops_per);
            scratch.pool.put_u8(move_insts);
            scratch.pool.put_pairs(prog);
            return OpPlan::Serial { touch: reads };
        };
        if w != rescuer {
            // Replicate move_vertices([z], w) on the overlay, emitting the
            // slot program (removals under pre-move owners, re-adds under
            // post-move owners).
            fabric::incident_edges_into(cycle, &[z], &mut scratch.insts);
            move_insts.push(scratch.insts.len() as u8);
            for i in 0..scratch.insts.len() {
                let (a, b) = scratch.insts[i];
                let (ua, ub) = (ov.owner_of(dex, a), ov.owner_of(dex, b));
                let (sa, sb) = (
                    g.slot_of(ua).expect("owner is live"),
                    g.slot_of(ub).expect("owner is live"),
                );
                ov.remove_edge(g, sa, sb, &mut writes);
                prog.push((sa, sb));
            }
            ov.transfer(dex, z, w, &mut writes);
            for i in 0..scratch.insts.len() {
                let (a, b) = scratch.insts[i];
                let (ua, ub) = (ov.owner_of(dex, a), ov.owner_of(dex, b));
                let (sa, sb) = (
                    g.slot_of(ua).expect("owner is live"),
                    g.slot_of(ub).expect("owner is live"),
                );
                ov.add_edge(g, sa, sb, &mut writes);
                prog.push((sa, sb));
            }
        }
        dests.push(w);
        hops_per.push(hops);
    }
    OpPlan::Delete(DeletePlan {
        rescuer,
        dests,
        hops: hops_per,
        prog,
        adopt_n,
        move_insts,
        reads,
        writes,
    })
}

// ======================================================================
// Commit
// ======================================================================

/// Issue prefetches for the lines a plan's commit will touch — its slot
/// program's arena rows and the Φ segments it edits. Called one op ahead
/// of the commit loop so the next commit's dependent-miss chain overlaps
/// the current one (single-core memory-level parallelism).
fn prefetch_commit(dex: &DexNetwork, op: &BatchOp, plan: &OpPlan) {
    let g = dex.net.graph();
    match (op, plan) {
        (BatchOp::Insert { .. }, OpPlan::Insert(p)) => {
            g.prefetch_slot(p.v_slot);
            g.prefetch_slot_adj(p.v_slot);
            g.prefetch_slot(p.hit_slot);
            dex.map.prefetch_node(p.hit);
            dex.map.prefetch_vertex(p.z);
            for i in 0..p.n_inst as usize {
                for s in [p.rm[i].0, p.rm[i].1] {
                    g.prefetch_slot(s);
                    g.prefetch_slot_adj(s);
                }
            }
        }
        (BatchOp::Delete { victim }, OpPlan::Delete(p)) => {
            if let Some(s) = g.slot_of(*victim) {
                g.prefetch_slot(s);
                g.prefetch_slot_adj(s);
            }
            dex.map.prefetch_node(*victim);
            dex.map.prefetch_node(p.rescuer);
            for &(a, b) in p.prog.iter() {
                g.prefetch_slot(a);
                g.prefetch_slot(b);
            }
        }
        _ => {}
    }
}

/// Apply a planned insert through the charged slot-space editors (no
/// hashing beyond the newcomer's unavoidable arena inserts), charging
/// exactly what the sequential path charges; the walk is replaced by its
/// planned outcome.
fn commit_insert(dex: &mut DexNetwork, u: NodeId, v: NodeId, plan: &InsertPlan) {
    debug_assert_eq!(dex.net.graph().slot_of(v), Some(plan.v_slot));
    let _ = v;
    let u_slot = dex.net.adversary_add_node_slot(u);
    dex.net.adversary_add_edge_slots(u_slot, plan.v_slot);
    dex.walk_stats.hits += 1;
    dex.walk_stats.attempts += 1;
    dex.net.charge_rounds(plan.hops);
    dex.net.charge_messages(plan.hops);
    // give_vertex_to_new_node, pre-resolved: move z's instances off the
    // old owners, transfer, re-add under the new owners.
    debug_assert!(dex.map.load(plan.hit) >= 2);
    debug_assert_eq!(
        dex.map.sim(plan.hit).iter().max(),
        Some(&plan.z),
        "speculative donated vertex diverged"
    );
    for i in 0..plan.n_inst as usize {
        let (a, b) = plan.rm[i];
        assert!(
            dex.net.remove_edge_slots(a, b),
            "fabric desync: missing planned instance"
        );
    }
    dex.map.transfer(plan.z, u);
    for i in 0..plan.n_inst as usize {
        let (a, b) = plan.ad[i];
        let a = if a == NEW_SLOT { u_slot } else { a };
        let b = if b == NEW_SLOT { u_slot } else { b };
        dex.net.add_edge_slots(a, b);
    }
    dex.net.charge_messages(4);
    dex.net.charge_rounds(1);
    // charge_load_updates(&[hit, u]) — degrees read before the attach edge
    // comes down, exactly like the sequential path.
    let g = dex.net.graph();
    let msgs = (g.degree_of_slot(plan.hit_slot) + g.degree_of_slot(u_slot)) as u64;
    dex.net.charge_messages(msgs);
    // Remove the adversary's temporary attach edge (charged).
    assert!(dex.net.remove_edge_slots(u_slot, plan.v_slot));
}

/// Apply a planned delete; see [`commit_insert`].
fn commit_delete(dex: &mut DexNetwork, victim: NodeId, plan: &DeletePlan) {
    #[cfg(debug_assertions)]
    {
        // The rescuer election re-run against live state must equal the
        // planned one (wave disjointness).
        let mut nbrs: Vec<NodeId> = dex
            .net
            .graph()
            .neighbors(victim)
            .iter()
            .filter(|&w| w != victim)
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        assert_eq!(
            nbrs.first(),
            Some(&plan.rescuer),
            "speculative rescuer diverged"
        );
    }
    dex.net.adversary_remove_node(victim);

    let mut zs = std::mem::take(&mut dex.heal.zs);
    zs.clear();
    zs.extend_from_slice(dex.map.sim(victim));
    debug_assert_eq!(zs.len(), plan.dests.len(), "speculative Sim diverged");
    // Adoption: Φ transfers with one slot resolution, then the planned
    // instance re-adds.
    dex.map.transfer_all(&zs, plan.rescuer);
    for &(a, b) in &plan.prog[..plan.adopt_n as usize] {
        dex.net.add_edge_slots(a, b);
    }
    dex.net.charge_messages(3 * zs.len() as u64);
    dex.net.charge_rounds(1);

    let mut cursor = plan.adopt_n as usize;
    let mut mv = 0usize;
    for (i, &z) in zs.iter().enumerate() {
        dex.walk_stats.attempts += 1;
        dex.net.charge_rounds(plan.hops[i]);
        dex.net.charge_messages(plan.hops[i]);
        dex.walk_stats.hits += 1;
        let w = plan.dests[i];
        if w != plan.rescuer {
            let n = plan.move_insts[mv] as usize;
            mv += 1;
            for &(a, b) in &plan.prog[cursor..cursor + n] {
                assert!(
                    dex.net.remove_edge_slots(a, b),
                    "fabric desync: missing planned instance"
                );
            }
            dex.map.transfer(z, w);
            for &(a, b) in &plan.prog[cursor + n..cursor + 2 * n] {
                dex.net.add_edge_slots(a, b);
            }
            cursor += 2 * n;
            dex.net.charge_messages(4);
            dex.net.charge_rounds(1);
        }
    }
    debug_assert_eq!(cursor, plan.prog.len());
    dex.heal.zs = zs;
}

/// Run one op through the untouched sequential heal path (the op is at
/// the head of the queue, so this *is* sequential semantics). Returns
/// whether type-2 fired.
fn run_sequential_op(dex: &mut DexNetwork, op: BatchOp) -> bool {
    match op {
        BatchOp::Insert { u, v } => {
            dex.net.adversary_add_node(u);
            dex.net.adversary_add_edge(u, v);
            dex.heal_one_insert(u, v)
        }
        BatchOp::Delete { victim } => {
            dex.heal.nbrs.clear();
            let nbrs = &mut dex.heal.nbrs;
            nbrs.extend(
                dex.net
                    .graph()
                    .neighbors(victim)
                    .iter()
                    .filter(|&w| w != victim),
            );
            nbrs.sort_unstable();
            nbrs.dedup();
            assert!(!nbrs.is_empty(), "victim {victim} lost all neighbors");
            let rescuer = nbrs[0];
            dex.net.adversary_remove_node(victim);
            dex.heal_one_delete(victim, rescuer)
        }
    }
}

// ======================================================================
// The engine
// ======================================================================

/// Apply a validated batch through conflict-free waves. The step scope is
/// already open and `step_no` bumped; returns whether any op used type-2.
pub(crate) fn run_batch(dex: &mut DexNetwork, threads: usize) -> bool {
    let mut state = std::mem::take(&mut dex.heal.par);
    let ops = std::mem::take(&mut state.ops);
    debug_assert!(dex.faults.is_none(), "faulted batches heal sequentially");
    let mut used_type2 = false;

    state.plans.clear();
    state.plans.resize_with(ops.len(), || OpPlan::Stale);
    let mut inline_scratch = state
        .inline_scratch
        .take()
        .unwrap_or_else(|| Box::new(PlanScratch::new()));
    inline_scratch
        .overlay
        .ensure_slots(dex.net.graph().slot_bound());

    if state.wave_ema == 0 {
        state.wave_ema = 64; // optimistic first batch
    }
    let mut next = 0usize;
    while next < ops.len() {
        let walk_len = dex.cfg.walk_len(dex.cycle.p());
        // Speculate ~4 expected waves ahead: under heavy conflict (small
        // waves) most longer-range plans would be invalidated before
        // their turn, so planning them is pure waste; under low conflict
        // the lookahead covers the whole window anyway.
        let lookahead = (4 * state.wave_ema).clamp(32, PLAN_WINDOW);
        let window_end = (next + lookahead).min(ops.len());

        // ---- 1. (re)plan stale ops, fanned out over workers -----------
        let t_plan = std::time::Instant::now();
        {
            let dex_ref: &DexNetwork = dex;
            let ops_ref = &ops[..];
            let base = next;
            let plans = &mut state.plans[next..window_end];
            let stale = plans.iter().filter(|p| matches!(p, OpPlan::Stale)).count();
            // Engage workers only when there is enough stale work to fill
            // their chunks (results are identical either way — the clamp
            // is purely a throughput guard). With the persistent pool a
            // fan-out costs parked-worker handoffs, not spawns, so the
            // requested thread count is honored even above the core count.
            let workers = threads.min(stale.div_ceil(PLAN_CHUNK)).max(1);
            let plan_chunk = |start: usize, chunk: &mut [OpPlan], ps: &mut PlanScratch| {
                plan_chunk_interleaved(dex_ref, ops_ref, base + start, walk_len, chunk, ps);
            };
            if workers <= 1 {
                plan_chunk(0, plans, &mut inline_scratch);
            } else {
                // Persistent pool + persistent per-worker scratch slots:
                // once warm, a planning round spawns no threads and builds
                // no scratch — workers are handed their fixed chunk spans
                // and reuse the PlanScratch living in their TLS slot.
                dex_exec::for_chunks_scratch_mut::<_, PlanScratch, _>(
                    plans, workers, PLAN_CHUNK, plan_chunk,
                );
            }
        }
        dex.batch_stats.plan_ns += t_plan.elapsed().as_nanos() as u64;

        // ---- 2. partition: maximal conflict-free prefix ----------------
        let t_part = std::time::Instant::now();
        state.tracker.begin_wave(dex.net.graph().slot_bound());
        let mut wave_end = next;
        while wave_end < window_end {
            let Some((reads, writes)) = state.plans[wave_end].touch_sets() else {
                break; // Serial or Blocked truncates the wave
            };
            if reads
                .iter()
                .chain(writes)
                .any(|&s| state.tracker.written(s))
            {
                break;
            }
            for &s in writes {
                state.tracker.mark_write(s);
            }
            wave_end += 1;
        }
        dex.batch_stats.partition_ns += t_part.elapsed().as_nanos() as u64;

        if wave_end == next {
            // ---- serial fallback: head op through the sequential path --
            assert!(
                !matches!(state.plans[next], OpPlan::Blocked),
                "head op blocked: validation guarantees the attach point is \
                 live or an earlier newcomer (already committed)"
            );
            let t_serial = std::time::Instant::now();
            used_type2 |= run_sequential_op(dex, ops[next]);
            dex.batch_stats.serial_ns += t_serial.elapsed().as_nanos() as u64;
            next += 1;
            dex.net.note_heal_wave();
            dex.batch_stats.record_wave(1);
            dex.batch_stats.serial_ops += 1;
            state.wave_ema = (3 * state.wave_ema + 1) / 4;
            // A sequential op's writes are untracked (it may have run a
            // type-2 rebuild): every surviving plan is stale.
            for p in &mut state.plans[next..] {
                if !matches!(p, OpPlan::Stale) {
                    dex.batch_stats.replans += 1;
                    let old = std::mem::replace(p, OpPlan::Stale);
                    inline_scratch.pool.recycle(old);
                }
            }
            continue;
        }

        // ---- 3. commit the wave in canonical order ---------------------
        let t_commit = std::time::Instant::now();
        for idx in next..wave_end {
            if idx + 1 < wave_end {
                prefetch_commit(dex, &ops[idx + 1], &state.plans[idx + 1]);
            }
            match (&ops[idx], &state.plans[idx]) {
                (&BatchOp::Insert { u, v }, OpPlan::Insert(p)) => commit_insert(dex, u, v, p),
                (&BatchOp::Delete { victim }, OpPlan::Delete(p)) => commit_delete(dex, victim, p),
                _ => unreachable!("accepted plan shape mismatch"),
            }
        }
        dex.batch_stats.commit_ns += t_commit.elapsed().as_nanos() as u64;
        let wave_size = wave_end - next;
        next = wave_end;
        dex.net.note_heal_wave();
        dex.batch_stats.record_wave(wave_size);
        dex.batch_stats.waved_ops += wave_size as u64;
        state.wave_ema = (3 * state.wave_ema + wave_size) / 4;

        // ---- 4. invalidate surviving plans the wave wrote into ---------
        let t_inval = std::time::Instant::now();
        for p in &mut state.plans[next..] {
            if p.invalidated_by(&state.tracker) {
                dex.batch_stats.replans += 1;
                let old = std::mem::replace(p, OpPlan::Stale);
                inline_scratch.pool.recycle(old);
            }
        }
        dex.batch_stats.partition_ns += t_inval.elapsed().as_nanos() as u64;
    }

    // Reclaim every plan's buffers for the next batch.
    for plan in state.plans.drain(..) {
        inline_scratch.pool.recycle(plan);
    }
    state.inline_scratch = Some(inline_scratch);
    state.ops = ops;
    dex.heal.par = state;
    used_type2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the partitioner directly with synthetic touch sets: the edge
    /// cases the scheduler must get right independently of walk behavior.
    fn waves_of(plans: Vec<(Vec<u32>, Vec<u32>)>, slot_bound: usize) -> Vec<Vec<usize>> {
        let mut tracker = TouchTracker::default();
        let plans: Vec<OpPlan> = plans
            .into_iter()
            .map(|(reads, writes)| {
                OpPlan::Insert(InsertPlan {
                    hit: NodeId(0),
                    hit_slot: 0,
                    v_slot: 0,
                    z: VertexId(0),
                    hops: 0,
                    rm: [(0, 0); 3],
                    ad: [(0, 0); 3],
                    n_inst: 0,
                    reads,
                    writes,
                })
            })
            .collect();
        let mut waves = Vec::new();
        let mut next = 0;
        while next < plans.len() {
            tracker.begin_wave(slot_bound);
            let mut wave = Vec::new();
            let mut idx = next;
            while idx < plans.len() {
                let (reads, writes) = plans[idx].touch_sets().unwrap();
                if reads.iter().chain(writes).any(|&s| tracker.written(s)) {
                    break;
                }
                for &s in writes {
                    tracker.mark_write(s);
                }
                wave.push(idx);
                idx += 1;
            }
            assert!(!wave.is_empty(), "head of queue always schedulable");
            next = idx;
            waves.push(wave);
        }
        waves
    }

    #[test]
    fn all_disjoint_batch_is_a_single_wave() {
        let plans: Vec<_> = (0..16u32)
            .map(|i| (vec![100 + i], vec![i, 32 + i]))
            .collect();
        let waves = waves_of(plans, 256);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 16);
    }

    #[test]
    fn fully_conflicting_clique_degenerates_to_sequential() {
        // Every op writes slot 7 (e.g. all joins share one attach point).
        let plans: Vec<_> = (0..8u32).map(|i| (vec![i], vec![7])).collect();
        let waves = waves_of(plans, 64);
        assert_eq!(waves.len(), 8, "one op per wave");
        assert!(waves.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn overlapping_attach_neighborhoods_serialize_in_canonical_order() {
        // Ops 0 and 2 share written slot 5; op 1 and 3 are disjoint.
        // Prefix waves: {0, 1} (op 2 conflicts and truncates), then {2, 3}.
        let plans = vec![
            (vec![10], vec![5]),
            (vec![11], vec![6]),
            (vec![12], vec![5]),
            (vec![13], vec![8]),
        ];
        let waves = waves_of(plans, 64);
        assert_eq!(waves, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn read_of_earlier_write_conflicts_but_write_of_earlier_read_does_not() {
        // Op 1 reads what op 0 wrote → separate waves.
        let waves = waves_of(vec![(vec![], vec![3]), (vec![3], vec![9])], 64);
        assert_eq!(waves.len(), 2);
        // Op 1 *writes* what op 0 only read → same wave (commit order is
        // canonical, so the earlier op's decisions are unaffected).
        let waves = waves_of(vec![(vec![3], vec![1]), (vec![], vec![3])], 64);
        assert_eq!(waves.len(), 1);
    }

    #[test]
    fn duplicate_victim_region_spans_waves() {
        // Deletes in one neighborhood: op 0 writes the whole shared region
        // {20, 21}, so ops 1 and 2 (each touching half of it) must wait a
        // wave; between themselves they are disjoint and wave together,
        // and disjoint op 3 rides along. Conflicts against *earlier*
        // waves are not the partitioner's job — the engine invalidates
        // and re-plans overlapped plans after each commit — so each
        // partition round only guards the wave being built.
        let plans = vec![
            (vec![], vec![20, 21, 1]),
            (vec![], vec![20, 2]),
            (vec![], vec![21, 3]),
            (vec![], vec![40]),
        ];
        let waves = waves_of(plans, 64);
        assert_eq!(waves, vec![vec![0], vec![1, 2, 3]]);
        // Fully shared region: strict one-per-wave serialization.
        let plans = vec![
            (vec![], vec![20, 21, 1]),
            (vec![], vec![20, 21, 2]),
            (vec![], vec![20, 21, 3]),
            (vec![], vec![40]),
        ];
        let waves = waves_of(plans, 64);
        assert_eq!(waves, vec![vec![0], vec![1], vec![2, 3]]);
    }

    #[test]
    fn tracker_epochs_reset_without_clearing() {
        let mut t = TouchTracker::default();
        t.begin_wave(8);
        t.mark_write(3);
        assert!(t.written(3));
        t.begin_wave(8);
        assert!(!t.written(3), "new wave must not see old marks");
        t.mark_write(5);
        assert!(t.written(5) && !t.written(3));
        // Out-of-range slots (created mid-batch) are never tracked.
        t.mark_write(100);
        assert!(!t.written(100));
    }

    #[test]
    fn wave_histogram_buckets_by_log2() {
        let mut s = BatchHealStats::default();
        s.record_wave(1);
        s.record_wave(2);
        s.record_wave(3);
        s.record_wave(700);
        assert_eq!(s.wave_hist[0], 1);
        assert_eq!(s.wave_hist[1], 2); // sizes 2 and 3
        assert_eq!(s.wave_hist[9], 1); // 512 ≤ 700 < 1024
        assert_eq!(s.waves, 4);
        assert_eq!(s.max_wave, 700);
    }

    #[test]
    fn interleaved_planner_is_bit_identical_to_scalar() {
        use crate::DexConfig;
        // A churned network with spares, then a mixed chunk stream of
        // inserts (incl. chained = Blocked), deletes, and already-planned
        // slots: every produced plan — walk trace, touch sets, slot
        // programs — must match the scalar planner field for field.
        let cfg = DexConfig::new(0x9e37_79b9_7f4a_7c15).simplified();
        let mut dex = DexNetwork::bootstrap(cfg, 400);
        let ids = dex.node_ids();
        for &v in ids.iter().step_by(9).take(20) {
            dex.delete(v);
        }
        let live = dex.node_ids();
        let mut ops: Vec<BatchOp> = Vec::new();
        for i in 0..(3 * PLAN_CHUNK as u64 + 5) {
            ops.push(match i % 4 {
                0 | 1 => BatchOp::Insert {
                    u: NodeId(1_000_000 + i),
                    v: live[(i as usize * 17) % live.len()],
                },
                // Attach point not live: must come back Blocked.
                2 => BatchOp::Insert {
                    u: NodeId(2_000_000 + i),
                    v: NodeId(1_000_000 + i),
                },
                _ => BatchOp::Delete {
                    victim: live[(i as usize * 31) % live.len()],
                },
            });
        }
        let walk_len = dex.cfg.walk_len(dex.cycle.p());
        let bound = dex.net.graph().slot_bound();
        let plan_with = |interleaved: bool| -> Vec<OpPlan> {
            let mut ps = PlanScratch::new();
            ps.overlay.ensure_slots(bound);
            let mut plans: Vec<OpPlan> = Vec::new();
            plans.resize_with(ops.len(), || OpPlan::Stale);
            // Pre-planned slots must be left untouched by both planners.
            plans[5] = OpPlan::Serial {
                touch: vec![1, 2, 3],
            };
            for start in (0..ops.len()).step_by(PLAN_CHUNK) {
                let end = (start + PLAN_CHUNK).min(ops.len());
                let chunk = &mut plans[start..end];
                if interleaved {
                    plan_chunk_interleaved(&dex, &ops, start, walk_len, chunk, &mut ps);
                } else {
                    plan_chunk_scalar(&dex, &ops, start, walk_len, chunk, &mut ps);
                }
            }
            plans
        };
        let scalar = plan_with(false);
        let interleaved = plan_with(true);
        assert!(
            scalar.iter().any(|p| matches!(p, OpPlan::Insert(_))),
            "mix must exercise resolved insert plans"
        );
        assert!(scalar.iter().any(|p| matches!(p, OpPlan::Blocked)));
        assert_eq!(scalar.len(), interleaved.len());
        for (i, (a, b)) in scalar.iter().zip(&interleaved).enumerate() {
            assert_eq!(a, b, "plan {i} diverged");
        }
    }
}
