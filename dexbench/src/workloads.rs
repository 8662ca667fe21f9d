//! The four named workloads: their networks, their op streams, and how
//! much work one run does.
//!
//! Every op stream is a pure function of the seed. Work is fixed per run
//! — the op count is `--seconds` times a per-workload rate calibrated on
//! a 2-core x86-64 host — so two builds measured on the same seed do
//! identical work and their virtual costs compare bit for bit.

use crate::lane::Lane;
use dex_core::{DexConfig, DexNetwork, FaultSpec};
use dex_sim::rng::splitmix64;
use dex_sim::{HistoryMode, RecoveryKind};
use dex_workload::serve::{build_schedule, Arrivals, OpKind, ServeOptions};

const NET_SALT: u64 = 0xbe7c_0001;
const LANE_SALT: u64 = 0xbe7c_0002;
const KEY_SALT: u64 = 0xbe7c_0003;
const VALUE_SALT: u64 = 0xbe7c_0004;
const MIX_SALT: u64 = 0xbe7c_0005;
const SIZE_SALT: u64 = 0xbe7c_0006;
const FAULT_SALT: u64 = 0xbe7c_0007;
const SCHEDULE_SALT: u64 = 0xbe7c_0008;

/// DHT key domain of every workload (the `bench_serve` mix's).
const KEYSPACE: u64 = 1 << 24;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 4 shards × 250k: `bench_serve`'s 80% DHT / 20% single-churn mix,
    /// shards fanned out over `dex_exec::par_map`.
    DhtServe,
    /// One 50k network under alternating `insert_batch`/`delete_batch`
    /// calls of 1..=64 nodes, no DHT traffic.
    ChurnBatch,
    /// One network from 10k: single inserts until an inflation, single
    /// deletes until a deflation, with periodic DHT gets.
    GrowShrink,
    /// One 50k network on the message-level simulator at 5% loss.
    FaultedServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DhtServe,
        Workload::ChurnBatch,
        Workload::GrowShrink,
        Workload::FaultedServe,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DhtServe => "dht_serve",
            Workload::ChurnBatch => "churn_batch",
            Workload::GrowShrink => "grow_shrink",
            Workload::FaultedServe => "faulted_serve",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Layers the workload is predicted to spend its phase in (the
    /// dominant-layer table checks the measured one against these).
    pub fn predicted(self) -> &'static [&'static str] {
        match self {
            Workload::DhtServe => &["route.bfs"],
            Workload::ChurnBatch => &[
                "wave.plan",
                "wave.partition",
                "wave.commit",
                "wave.serial",
                "batch",
                "type1",
            ],
            Workload::GrowShrink => &["type1", "flood", "type2"],
            Workload::FaultedServe => &["msim.route", "msim.heal"],
        }
    }

    /// Executor threads the shards' callers fan out over. Only
    /// `dht_serve` fans out; every other workload runs one caller on one
    /// thread. Heal planners stay at their default of one thread: on a
    /// 2-vCPU VM each batch's hand-off to a parked pool worker put the
    /// `churn_batch` batch p99 anywhere between 0.9 and 11.5 ms from run
    /// to run, which no bound can hold.
    pub fn fanout(self, threads: usize) -> usize {
        if self == Workload::DhtServe {
            threads
        } else {
            1
        }
    }

    /// Is the workload's network on the message-level simulator?
    pub fn faulted(self) -> bool {
        self == Workload::FaultedServe
    }

    /// How much one run does: full scale for `seconds` of measurement,
    /// or the fixed toy scale the determinism test uses.
    pub fn sizes(self, seconds: u64, toy: bool) -> Sizes {
        let s = seconds.max(1) as usize;
        let (shards, n0, ops, prefill, verify) = match (self, toy) {
            (Workload::DhtServe, false) => (4, 250_000, 2_800 * s, 0, 256),
            (Workload::DhtServe, true) => (4, 2_000, 600, 0, 16),
            (Workload::ChurnBatch, false) => (1, 50_000, 50_000 * s, 1_024, 3_000),
            (Workload::ChurnBatch, true) => (1, 2_000, 2_600, 32, 32),
            (Workload::GrowShrink, false) => (s, 5_000, 1, 2_000, 256),
            (Workload::GrowShrink, true) => (2, 300, 1, 200, 32),
            (Workload::FaultedServe, false) => (1, 50_000, 4_400 * s, 0, 1_024),
            (Workload::FaultedServe, true) => (1, 1_000, 600, 0, 32),
        };
        Sizes {
            shards,
            n0,
            ops,
            prefill,
            verify,
        }
    }

    /// Bootstrap shard `shard`'s network, configured for the workload.
    pub fn bootstrap(self, sizes: &Sizes, seed: u64, shard: usize) -> DexNetwork {
        let net_seed = derive(seed, NET_SALT, shard as u64);
        let mut dex = DexNetwork::bootstrap(DexConfig::new(net_seed).simplified(), sizes.n0);
        dex.net.set_history_mode(HistoryMode::Off);
        if self.faulted() {
            dex.set_faults(Some(
                FaultSpec::zero()
                    .with_loss(50)
                    .with_latency(1, 3)
                    .with_seed(derive(seed, FAULT_SALT, 0)),
            ));
        }
        dex
    }

    /// Seed of shard `shard`'s caller.
    pub fn lane_seed(seed: u64, shard: usize) -> u64 {
        derive(seed, LANE_SALT, shard as u64)
    }

    /// Store the set-up keys of one lane.
    pub fn prefill(sizes: &Sizes, seed: u64, lane: &mut Lane) {
        for i in 0..sizes.prefill as u64 {
            let (key, value) = key_value(seed, i);
            lane.put(key, value, i);
        }
    }

    /// The measured phase's work, one entry per shard.
    pub fn work(self, sizes: &Sizes, seed: u64) -> Vec<Work> {
        match self {
            Workload::DhtServe => {
                let opts = ServeOptions {
                    shards: sizes.shards,
                    n0: sizes.n0,
                    ops: sizes.ops,
                    offered: 1.0,
                    arrivals: Arrivals::Burst,
                    read_pct: 60,
                    churn_pct: 20,
                    keyspace: KEYSPACE,
                    queue_cap: usize::MAX,
                    batch_max: 1,
                    seed: derive(seed, SCHEDULE_SALT, 0),
                    threads: 1,
                    heal_threads: 1,
                };
                build_schedule(&opts)
                    .into_iter()
                    .map(|shard| {
                        Work::Ops(
                            shard
                                .iter()
                                .map(|o| match o.kind {
                                    OpKind::Put { key, value } => Op::Put { key, value },
                                    OpKind::Get { key } => Op::Get { key },
                                    OpKind::Join => Op::Join,
                                    OpKind::Leave => Op::Leave,
                                })
                                .collect(),
                        )
                    })
                    .collect()
            }
            Workload::ChurnBatch => {
                // Pairs of equal-sized join and leave batches keep n at n0;
                // sizes 1..=64 straddle the wave engine's PAR_BATCH_MIN. A
                // pair churns 65 nodes on average.
                let pairs = sizes.ops / 65;
                let mut ops = Vec::with_capacity(2 * pairs);
                for i in 0..pairs as u64 {
                    let k = 1 + (derive(seed, SIZE_SALT, i) % 64) as usize;
                    ops.push(Op::JoinBatch(k));
                    ops.push(Op::LeaveBatch(k));
                }
                vec![Work::Ops(ops)]
            }
            Workload::GrowShrink => vec![
                Work::GrowShrink {
                    cycles: sizes.ops,
                    get_every: 64,
                };
                sizes.shards
            ],
            Workload::FaultedServe => {
                // 30% puts, 30% gets of keys put earlier, 20% joins,
                // 20% leaves.
                let mut ops = Vec::with_capacity(sizes.ops);
                let mut any_put = false;
                for i in 0..sizes.ops as u64 {
                    let r = derive(seed, MIX_SALT, i) % 100;
                    let op = match r {
                        30..=59 if any_put => Op::GetKnown,
                        0..=59 => {
                            let (key, value) = key_value(seed, i);
                            any_put = true;
                            Op::Put { key, value }
                        }
                        60..=79 => Op::Join,
                        _ => Op::Leave,
                    };
                    ops.push(op);
                }
                vec![Work::Ops(ops)]
            }
        }
    }
}

/// Draw `i` of the stream `salt` under `seed`. Mixing the seed before
/// the index keeps the streams of different seeds unrelated (a plain
/// `seed ^ salt ^ i` would make seed 2 / index 1 equal seed 3 / index 0).
fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ salt) ^ i)
}

fn key_value(seed: u64, i: u64) -> (u64, u64) {
    (
        derive(seed, KEY_SALT, i) % KEYSPACE,
        derive(seed, VALUE_SALT, i),
    )
}

/// How much one run does.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Independent networks (shards).
    pub shards: usize,
    /// Bootstrap size of each.
    pub n0: u64,
    /// Phase ops across all shards (churn_batch: nodes churned;
    /// grow_shrink: grow/shrink cycles).
    pub ops: usize,
    /// Keys stored per shard during set-up.
    pub prefill: usize,
    /// Verification gets per shard after the phase.
    pub verify: usize,
}

/// One call of a pre-generated stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `dht_insert`.
    Put {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// `dht_lookup`.
    Get {
        /// Key.
        key: u64,
    },
    /// `dht_lookup` of a key the lane put earlier.
    GetKnown,
    /// `insert`.
    Join,
    /// `delete`.
    Leave,
    /// `insert_batch` of k nodes.
    JoinBatch(usize),
    /// `delete_batch` of k nodes.
    LeaveBatch(usize),
}

/// One shard's phase.
#[derive(Clone, Debug)]
pub enum Work {
    /// A pre-generated stream, issued closed-loop.
    Ops(Vec<Op>),
    /// `cycles` × (inserts until an inflation, then deletes until a
    /// deflation), with a get of a stored key every `get_every` steps.
    GrowShrink {
        /// Grow/shrink cycles.
        cycles: usize,
        /// Steps between DHT gets.
        get_every: u64,
    },
}

/// Most churn steps one grow or shrink leg may take before the run is
/// declared broken (a leg at 10k takes ~20k steps).
const MAX_LEG_STEPS: u64 = 2_000_000;

/// Issue one shard's phase through its lane, closed-loop.
pub fn drive(lane: &mut Lane, work: &Work) {
    match work {
        Work::Ops(ops) => {
            for (i, op) in ops.iter().enumerate() {
                let i = i as u64;
                match *op {
                    Op::Put { key, value } => lane.put(key, value, i),
                    Op::Get { key } => lane.get(key, i),
                    Op::GetKnown => lane.get_known(i),
                    Op::Join => {
                        lane.join(i);
                    }
                    Op::Leave => {
                        lane.leave(i);
                    }
                    Op::JoinBatch(k) => lane.join_batch(k, i),
                    Op::LeaveBatch(k) => lane.leave_batch(k, i),
                }
            }
        }
        &Work::GrowShrink { cycles, get_every } => {
            let mut op = 0u64;
            for _ in 0..cycles {
                for grow in [true, false] {
                    let start = op;
                    loop {
                        let kind = if grow { lane.join(op) } else { lane.leave(op) };
                        op += 1;
                        if op.is_multiple_of(get_every) {
                            lane.get_known(op);
                            op += 1;
                        }
                        let done = if grow {
                            RecoveryKind::InflateSimple
                        } else {
                            RecoveryKind::DeflateSimple
                        };
                        if kind == done {
                            break;
                        }
                        assert!(op - start < MAX_LEG_STEPS, "no type-2 within a leg");
                    }
                }
            }
        }
    }
}
