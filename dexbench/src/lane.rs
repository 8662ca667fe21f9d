//! One network and its single synchronous caller.
//!
//! A lane issues one call at a time into the DEX public API (every call
//! returns only after its heal or route completes) and records, per call:
//! wall time, the virtual cost from the returned `StepMetrics`, and the
//! deltas of the counters the crates expose (`walk_stats`, `batch_stats`,
//! `fault_stats`). Counter deltas attribute a step to floods or type-2
//! without any tracing inside the program. A shadow oracle of delivered
//! puts checks every delivered get.

use crate::trace::{Kind, Tracer, NO_PARENT};
use dex_core::batch::MAX_ATTACH_FAN_IN;
use dex_core::dht::hash_to_vertex;
use dex_core::parheal::PAR_BATCH_MIN;
use dex_core::DexNetwork;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use dex_graph::pcycle::PathScratch;
use dex_sim::rng::splitmix64;
use dex_sim::{RecoveryKind, StepMetrics};

/// In a traced run, every `REPLAY_EVERY`-th DHT call of a lane has its
/// route re-run step by step.
pub const REPLAY_EVERY: u64 = 8;

/// A lane refuses to shrink its network below this many nodes.
pub const FLOOR: usize = 16;

/// Everything a lane measured over one stretch of calls (the phase, or
/// the verification pass after it).
#[derive(Default, Debug)]
pub struct Record {
    /// Ops issued (a batch of k counts k).
    pub attempted: u64,
    /// Ops that completed.
    pub completed: u64,
    /// Ops that did not complete (abandoned DHT routes).
    pub failed: u64,
    /// Σ rounds over every call.
    pub rounds: u64,
    /// Σ messages over every call.
    pub messages: u64,
    /// Σ topology changes over every call.
    pub topology: u64,
    /// Wall ns of each DHT call.
    pub dht_ns: Vec<u64>,
    /// Wall ns of each churn call that joins nodes (single or batch).
    pub join_ns: Vec<u64>,
    /// Wall ns of each churn call that removes nodes (single or batch).
    pub leave_ns: Vec<u64>,
    /// `(end ns, ops)` of every call, for windowed throughput.
    pub done: Vec<(u64, u64)>,
    /// Per-op wall ns of inserts healed on the type-1 path.
    pub type1_insert_ns: Vec<u64>,
    /// Per-op wall ns of deletes healed on the type-1 path.
    pub type1_delete_ns: Vec<u64>,
    /// DHT calls.
    pub dht_calls: u64,
    /// DHT calls that paid a rehash migration.
    pub migrations: u64,
    /// Items those migrations moved.
    pub migrated_items: u64,
    /// Delivered gets that disagreed with the oracle (must stay 0).
    pub mismatches: u64,
    /// Churn calls on the type-1 path.
    pub type1_calls: u64,
    /// Churn calls outside the wave engine with a walk miss (hence a
    /// flood count) and no type-2.
    pub flood_steps: u64,
    /// Churn calls that ran a type-2 rebuild.
    pub type2_steps: u64,
    /// Σ messages of those calls.
    pub type2_messages: u64,
    /// Batch calls through the wave engine.
    pub batch_calls: u64,
    /// Nodes joined or removed by churn calls.
    pub churned: u64,
    /// Walk attempts and hits (from `walk_stats` deltas).
    pub walk_attempts: u64,
    /// See `walk_attempts`.
    pub walk_hits: u64,
    /// Wave-engine counter deltas (from `batch_stats`).
    pub waves: u64,
    /// See `waves`.
    pub waved_ops: u64,
    /// See `waves`.
    pub serial_ops: u64,
    /// See `waves`.
    pub replans: u64,
    /// See `waves`.
    pub crossover_batches: u64,
    /// Wave-engine section wall ns, as the engine measures them.
    pub wave_ns: [u64; 4],
    /// Replayed routes: count, BFS ns, Φ ns, virtual path vertices,
    /// physical hops, wall ns of the calls they replay.
    pub replays: u64,
    /// See `replays`.
    pub bfs_ns: Vec<u64>,
    /// See `replays`.
    pub phi_ns: Vec<u64>,
    /// See `replays`.
    pub path_vertices: u64,
    /// See `replays`.
    pub replay_hops: u64,
    /// See `replays`.
    pub replayed_call_ns: u64,
    /// Replays whose hop count differs from what the call charged.
    pub hop_mismatches: u64,
    /// splitmix64 fold of every call's virtual cost and result.
    pub digest: u64,
}

impl Record {
    fn fold(&mut self, x: u64) {
        self.digest = splitmix64(self.digest ^ x);
    }

    fn charge(&mut self, m: &StepMetrics) {
        self.rounds += m.rounds;
        self.messages += m.messages;
        self.topology += m.topology_changes;
        self.fold(m.rounds);
        self.fold(m.messages);
        self.fold(m.topology_changes);
    }
}

/// One network driven by one caller.
pub struct Lane {
    /// The network.
    pub dex: DexNetwork,
    /// Span store (phase spans when tracing).
    pub tr: Tracer,
    /// What the current stretch measured.
    pub rec: Record,
    /// Parent span of the calls being recorded.
    pub parent: u32,
    live: Vec<NodeId>,
    next_id: u64,
    rng: u64,
    oracle: FxHashMap<u64, u64>,
    keys: Vec<u64>,
    dht_seen: u64,
    bfs: PathScratch,
    vpath: Vec<VertexId>,
    fan: FxHashMap<NodeId, usize>,
    joins: Vec<(NodeId, NodeId)>,
    victims: Vec<NodeId>,
}

impl Lane {
    /// A lane over a freshly bootstrapped network; `seed` keys its picks.
    pub fn new(dex: DexNetwork, seed: u64, tr: Tracer) -> Lane {
        let live = dex.node_ids();
        let next_id = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        Lane {
            dex,
            tr,
            rec: Record::default(),
            parent: NO_PARENT,
            live,
            next_id,
            rng: splitmix64(seed ^ 0x1a4e),
            oracle: FxHashMap::default(),
            keys: Vec::new(),
            dht_seen: 0,
            bfs: PathScratch::default(),
            vpath: Vec::new(),
            fan: FxHashMap::default(),
            joins: Vec::new(),
            victims: Vec::new(),
        }
    }

    fn rnd(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    fn pick(&mut self) -> NodeId {
        let r = self.rnd();
        self.live[(r % self.live.len() as u64) as usize]
    }

    /// Has any key been put yet?
    pub fn has_keys(&self) -> bool {
        !self.keys.is_empty()
    }

    /// Start a fresh stretch of measurement (keeps network and oracle).
    pub fn take_record(&mut self) -> Record {
        std::mem::take(&mut self.rec)
    }

    /// `dht_insert(key, value)` from a random live node.
    pub fn put(&mut self, key: u64, value: u64, op: u64) {
        self.keys.push(key);
        self.dht(Some(value), key, op);
    }

    /// `dht_lookup(key)` from a random live node.
    pub fn get(&mut self, key: u64, op: u64) {
        self.dht(None, key, op);
    }

    /// `dht_lookup` of a random key put earlier.
    pub fn get_known(&mut self, op: u64) {
        let r = self.rnd();
        let key = self.keys[(r % self.keys.len() as u64) as usize];
        self.get(key, op);
    }

    fn dht(&mut self, put: Option<u64>, key: u64, op: u64) {
        let from = self.pick();
        let store = self.dex.dht_store();
        let migrating = store
            .hashed_under()
            .is_some_and(|q| q != self.dex.cycle.p());
        let items = store.len() as u64;
        let lost_before = self.dex.fault_stats().dht_abandoned;
        let t0 = self.tr.now();
        let (got, m) = match put {
            Some(value) => (None, self.dex.dht_insert(from, key, value)),
            None => self.dex.dht_lookup(from, key),
        };
        let t1 = self.tr.now();
        self.tr.record(Kind::Dht, t0, t1, self.parent, op);
        let delivered = self.dex.fault_stats().dht_abandoned == lost_before;
        let rec = &mut self.rec;
        rec.attempted += 1;
        rec.dht_calls += 1;
        rec.dht_ns.push(t1 - t0);
        rec.done.push((t1, u64::from(delivered)));
        rec.charge(&m);
        if migrating {
            rec.migrations += 1;
            rec.migrated_items += items;
        }
        if !delivered {
            rec.failed += 1;
        } else {
            rec.completed += 1;
            match put {
                Some(value) => {
                    self.oracle.insert(key, value);
                }
                None => {
                    if got != self.oracle.get(&key).copied() {
                        rec.mismatches += 1;
                    }
                }
            }
        }
        rec.fold(put.map_or(2, |_| 1) ^ (key << 2));
        rec.fold(u64::from(delivered) ^ got.map_or(u64::MAX, |v| v << 1));
        if self.tr.on() && self.dht_seen.is_multiple_of(REPLAY_EVERY) {
            let hops_charged = if self.dex.faults().is_some() {
                None
            } else {
                let route_rounds = m.rounds - u64::from(migrating);
                Some(if put.is_some() {
                    route_rounds
                } else {
                    route_rounds / 2
                })
            };
            self.replay(from, key, hops_charged, t1 - t0, op);
        }
        self.dht_seen += 1;
    }

    /// Re-run the route's two public steps on the call's inputs: the
    /// virtual shortest path, then the Φ owner pass that counts physical
    /// hops. Timed separately; the hop count must match the call's charge.
    fn replay(&mut self, from: NodeId, key: u64, hops_charged: Option<u64>, call_ns: u64, op: u64) {
        let t0 = self.tr.now();
        let start = *self
            .dex
            .map
            .sim(from)
            .iter()
            .min()
            .expect("initiator simulates a vertex");
        let target = hash_to_vertex(key, self.dex.cycle.p());
        self.dex
            .cycle
            .shortest_path_with(start, target, &mut self.bfs, &mut self.vpath);
        let t1 = self.tr.now();
        let map = &self.dex.map;
        let mut hops = 0u64;
        let mut prev = map.owner_of(self.vpath[0]);
        for &z in &self.vpath[1..] {
            let cur = map.owner_of(z);
            hops += u64::from(cur != prev);
            prev = cur;
        }
        let hops = std::hint::black_box(hops);
        let t2 = self.tr.now();
        self.tr.record(Kind::ReplayBfs, t0, t1, self.parent, op);
        self.tr.record(Kind::ReplayPhi, t1, t2, self.parent, op);
        let rec = &mut self.rec;
        rec.replays += 1;
        rec.bfs_ns.push(t1 - t0);
        rec.phi_ns.push(t2 - t1);
        rec.path_vertices += self.vpath.len() as u64;
        rec.replay_hops += hops;
        rec.replayed_call_ns += call_ns;
        if hops_charged.is_some_and(|h| h != hops) {
            rec.hop_mismatches += 1;
        }
    }

    /// One node joins, attached to a random live node (`insert`).
    pub fn join(&mut self, op: u64) -> RecoveryKind {
        let v = self.pick();
        let u = NodeId(self.next_id);
        self.next_id += 1;
        let m = self.churn(op, 1, true, |dex| dex.insert(u, v));
        self.live.push(u);
        m.recovery
    }

    /// A random live node leaves (`delete`).
    pub fn leave(&mut self, op: u64) -> RecoveryKind {
        assert!(self.live.len() > FLOOR, "leave below the lane floor");
        let r = self.rnd();
        let victim = self.live.swap_remove((r % self.live.len() as u64) as usize);
        self.churn(op, 1, false, |dex| dex.delete(victim)).recovery
    }

    /// `k` nodes join in one `insert_batch` call, each attach point
    /// carrying at most `MAX_ATTACH_FAN_IN` newcomers.
    pub fn join_batch(&mut self, k: usize, op: u64) {
        let mut joins = std::mem::take(&mut self.joins);
        joins.clear();
        self.fan.clear();
        for _ in 0..k {
            let v = loop {
                let v = self.pick();
                if self.fan.get(&v).copied().unwrap_or(0) < MAX_ATTACH_FAN_IN {
                    break v;
                }
            };
            *self.fan.entry(v).or_insert(0) += 1;
            joins.push((NodeId(self.next_id), v));
            self.next_id += 1;
        }
        self.churn(op, k, true, |dex| dex.insert_batch(&joins));
        self.live.extend(joins.iter().map(|&(u, _)| u));
        self.joins = joins;
    }

    /// `k` distinct random live nodes leave in one `delete_batch` call.
    pub fn leave_batch(&mut self, k: usize, op: u64) {
        assert!(self.live.len() > FLOOR + k, "batch leave below the floor");
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        for _ in 0..k {
            let r = self.rnd();
            victims.push(self.live.swap_remove((r % self.live.len() as u64) as usize));
        }
        self.churn(op, k, false, |dex| dex.delete_batch(&victims));
        self.victims = victims;
    }

    /// Time one churn call and attribute it to a layer by counter deltas.
    fn churn(
        &mut self,
        op: u64,
        k: usize,
        insert: bool,
        call: impl FnOnce(&mut DexNetwork) -> StepMetrics,
    ) -> StepMetrics {
        let waved = k >= PAR_BATCH_MIN;
        let walk0 = self.dex.walk_stats;
        let b0 = self.dex.batch_stats.clone();
        let t0 = self.tr.now();
        let m = call(&mut self.dex);
        let t1 = self.tr.now();
        let walk = self.dex.walk_stats;
        let kind = if waved {
            Kind::Batch
        } else if walk.type2 > walk0.type2 || m.recovery.is_type2() {
            Kind::Type2
        } else if walk.misses > walk0.misses {
            Kind::Flood
        } else {
            Kind::Type1
        };
        self.tr.record(kind, t0, t1, self.parent, op);
        let ns = t1 - t0;
        let rec = &mut self.rec;
        rec.attempted += k as u64;
        rec.completed += k as u64;
        rec.churned += k as u64;
        rec.done.push((t1, k as u64));
        if insert {
            rec.join_ns.push(ns);
        } else {
            rec.leave_ns.push(ns);
        }
        rec.charge(&m);
        rec.fold(((k as u64) << 1) | u64::from(insert));
        rec.walk_attempts += walk.attempts - walk0.attempts;
        rec.walk_hits += walk.hits - walk0.hits;
        match kind {
            Kind::Batch => {
                let b = &self.dex.batch_stats;
                rec.batch_calls += 1;
                rec.waves += b.waves - b0.waves;
                rec.waved_ops += b.waved_ops - b0.waved_ops;
                rec.serial_ops += b.serial_ops - b0.serial_ops;
                rec.replans += b.replans - b0.replans;
                rec.crossover_batches += b.crossover_batches - b0.crossover_batches;
                rec.wave_ns[0] += b.plan_ns - b0.plan_ns;
                rec.wave_ns[1] += b.partition_ns - b0.partition_ns;
                rec.wave_ns[2] += b.commit_ns - b0.commit_ns;
                rec.wave_ns[3] += b.serial_ns - b0.serial_ns;
            }
            Kind::Type2 => {
                rec.type2_steps += 1;
                rec.type2_messages += m.messages;
            }
            Kind::Flood => rec.flood_steps += 1,
            _ => {
                rec.type1_calls += 1;
                let per_op = ns / k as u64;
                if insert {
                    rec.type1_insert_ns.push(per_op);
                } else {
                    rec.type1_delete_ns.push(per_op);
                }
            }
        }
        m
    }
}
