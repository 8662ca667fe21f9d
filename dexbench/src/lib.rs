//! The repository benchmark: DEX driven through its public API on four
//! named closed-loop workloads.
//!
//! One run = set-up (bootstrap plus any DHT pre-fill), a measured phase in
//! which each network's single synchronous caller issues its op stream,
//! then a verification pass (gets checked against a shadow oracle),
//! `invariants::check` and λ₂ on every network. An untraced
//! run reports the end-to-end metrics; a traced run repeats the phase
//! from an identical set-up with spans recorded at the benchmark's call
//! sites and reports the per-layer breakdown (see [`report`]).

pub mod lane;
pub mod report;
pub mod trace;
pub mod workloads;

use lane::{Lane, Record};
use std::sync::Mutex;
use std::time::Instant;
use trace::{Kind, Tracer, NO_PARENT};
use workloads::{Sizes, Workload};

/// Power-iteration budget of each λ₂ solve behind `spectral_gap_end`
/// (fixed, so the value is deterministic and comparable across builds).
const GAP_ITERS: usize = 250;
const GAP_TOL: f64 = 1e-9;
const GAP_SEED: u64 = 0xdecafbad;

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds (sets the phase's fixed work).
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Executor threads: `dht_serve`'s shard fan-out and the λ₂ solver.
    pub threads: usize,
    /// Fixed toy scale instead of full scale.
    pub toy: bool,
}

impl Options {
    /// The work one run does.
    pub fn sizes(&self) -> Sizes {
        self.workload.sizes(self.seconds, self.toy)
    }
}

/// Everything one set-up + phase + verification produced.
pub struct Outcome {
    /// Wall ns of the set-up(s) timed.
    pub setup_ns: Vec<u64>,
    /// Wall ns of each shard's bootstrap (last set-up).
    pub bootstrap_ns: Vec<u64>,
    /// Wall ns of the measured phase, on an `Instant` apart from the spans.
    pub phase_ns: u64,
    /// Phase start and end on the run's span clock.
    pub phase_start: u64,
    /// See `phase_start`.
    pub phase_end: u64,
    /// Executor lanes the shards fan out over.
    pub width: u32,
    /// Per-shard records of the phase.
    pub phase: Vec<Record>,
    /// Per-shard records of the verification pass.
    pub verify: Vec<Record>,
    /// Σ fault-layer counters over all shards at the end.
    pub faults: dex_sim::FaultStats,
    /// Network sizes at the end.
    pub final_n: Vec<usize>,
    /// `invariants::check` failures, one line each.
    pub invariant_errors: Vec<String>,
    /// Wall ns of the invariant checks (0 when not checked).
    pub check_ns: u64,
    /// Median 1 − λ₂ over the networks at the end (0 when not checked).
    pub gap: f64,
    /// Wall ns of those solves.
    pub solve_ns: u64,
    /// Spans (traced runs): bootstrap, phase tree, verification.
    pub tracer: Tracer,
    /// Index of the phase root span.
    pub root: u32,
}

impl Outcome {
    /// splitmix64 fold of every shard's call results and final size.
    pub fn digest(&self) -> u64 {
        let mut d = 0x0dec_be7c_u64;
        for (i, r) in self.phase.iter().chain(&self.verify).enumerate() {
            d = dex_sim::rng::splitmix64(d ^ r.digest ^ i as u64);
        }
        for &n in &self.final_n {
            d = dex_sim::rng::splitmix64(d ^ n as u64);
        }
        d
    }
}

/// Set up the workload's networks `reps` times (timing each, keeping the
/// last), run the phase and the verification pass, and (with `check`)
/// run `invariants::check` and λ₂ on every network.
pub fn execute(opts: &Options, trace: bool, reps: usize, check: bool) -> Outcome {
    let sizes = opts.sizes();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);
    let mut setup_ns = Vec::new();
    let mut built = Vec::new();
    for _ in 0..reps.max(1) {
        drop(std::mem::take(&mut built));
        let t0 = Instant::now();
        built = setup(opts, &sizes, epoch);
        setup_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let mut bootstrap_ns = Vec::new();
    let mut lanes = Vec::new();
    for (s, (mut lane, b0, b1)) in built.into_iter().enumerate() {
        tracer.record(Kind::Bootstrap, b0, b1, NO_PARENT, s as u64);
        bootstrap_ns.push(b1 - b0);
        lane.tr = Tracer::new(trace, epoch);
        lanes.push(lane);
    }

    // Measured phase: one closed-loop caller per shard, shards over the
    // executor.
    let work = opts.workload.work(&sizes, opts.seed);
    let fanout = opts.workload.fanout(opts.threads);
    let width = fanout.min(lanes.len()).max(1) as u32;
    let phase_start = tracer.now();
    let root = tracer.open(Kind::Phase, phase_start, NO_PARENT, 0, width);
    let t0 = Instant::now();
    let mut lanes = on_lanes(lanes, fanout, |s, lane| {
        let start = lane.tr.now();
        lane.parent = lane.tr.open(Kind::Shard, start, NO_PARENT, s as u64, 1);
        workloads::drive(lane, &work[s]);
        let end = lane.tr.now();
        lane.tr.close(lane.parent, end);
    });
    let phase_ns = t0.elapsed().as_nanos() as u64;
    let phase_end = tracer.now();
    tracer.close(root, phase_end);
    let mut phase = Vec::new();
    for lane in &mut lanes {
        tracer.absorb(&mut lane.tr, root);
        phase.push(lane.take_record());
        lane.parent = NO_PARENT;
    }

    // Verification pass: gets of stored keys against the oracle.
    let mut lanes = on_lanes(lanes, fanout, |_, lane| {
        if lane.has_keys() {
            for i in 0..sizes.verify as u64 {
                lane.get_known(i);
            }
        }
    });
    let mut verify = Vec::new();
    let mut faults = dex_sim::FaultStats::default();
    for lane in &mut lanes {
        tracer.absorb(&mut lane.tr, NO_PARENT);
        verify.push(lane.take_record());
        faults.merge(&lane.dex.fault_stats());
    }

    let (mut invariant_errors, mut check_ns, mut gap, mut solve_ns) = (Vec::new(), 0, 0.0, 0);
    if check {
        let t0 = Instant::now();
        for (s, l) in lanes.iter().enumerate() {
            if let Err(e) = dex_core::invariants::check(&l.dex) {
                invariant_errors.push(format!("shard {s}: {e}"));
            }
        }
        check_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let mut solver = dex_graph::spectral::Lambda2Solver::with_threads(opts.threads);
        let mut gaps: Vec<f64> = lanes
            .iter()
            .map(|l| {
                solver.reset();
                1.0 - solver.lambda2(l.dex.graph(), GAP_ITERS, GAP_TOL, GAP_SEED)
            })
            .collect();
        solve_ns = t0.elapsed().as_nanos() as u64;
        gaps.sort_by(f64::total_cmp);
        gap = gaps[gaps.len() / 2];
    }

    Outcome {
        setup_ns,
        bootstrap_ns,
        phase_ns,
        phase_start,
        phase_end,
        width,
        phase,
        verify,
        faults,
        final_n: lanes.iter().map(|l| l.dex.n()).collect(),
        invariant_errors,
        check_ns,
        gap,
        solve_ns,
        tracer,
        root,
    }
}

/// Run `f(shard, lane)` on every lane, fanned out over `threads`.
fn on_lanes(lanes: Vec<Lane>, threads: usize, f: impl Fn(usize, &mut Lane) + Sync) -> Vec<Lane> {
    let cells: Vec<Mutex<Lane>> = lanes.into_iter().map(Mutex::new).collect();
    let shards: Vec<usize> = (0..cells.len()).collect();
    dex_exec::par_map(&shards, threads, |&s| {
        f(s, &mut cells[s].lock().expect("lane lock poisoned"));
    });
    cells
        .into_iter()
        .map(|c| c.into_inner().expect("lane lock poisoned"))
        .collect()
}

/// Bootstrap every shard over the executor and pre-fill its DHT; returns
/// each lane with its bootstrap start/end on the run's clock.
fn setup(opts: &Options, sizes: &Sizes, epoch: Instant) -> Vec<(Lane, u64, u64)> {
    let shards: Vec<usize> = (0..sizes.shards).collect();
    dex_exec::par_map(&shards, opts.workload.fanout(opts.threads), |&s| {
        let clock = Tracer::new(false, epoch);
        let b0 = clock.now();
        let dex = opts.workload.bootstrap(sizes, opts.seed, s);
        let b1 = clock.now();
        let mut lane = Lane::new(dex, Workload::lane_seed(opts.seed, s), clock);
        Workload::prefill(sizes, opts.seed, &mut lane);
        lane.take_record();
        (lane, b0, b1)
    })
}
