//! Whole-stack determinism: one master seed fixes every topology, metric,
//! and DHT outcome; traces replay bit-identically.

use dex::prelude::*;

fn signature(net: &DexNetwork) -> (usize, u64, Vec<(NodeId, NodeId)>, u64, u64) {
    let mut edges = net.graph().edges();
    edges.sort();
    let rounds: u64 = net.net.history().iter().map(|m| m.rounds).sum();
    let msgs: u64 = net.net.history().iter().map(|m| m.messages).sum();
    (net.n(), net.cycle.p(), edges, rounds, msgs)
}

fn run(seed: u64, mode_staggered: bool) -> (usize, u64, Vec<(NodeId, NodeId)>, u64, u64) {
    let cfg = if mode_staggered {
        DexConfig::new(seed).staggered()
    } else {
        DexConfig::new(seed).simplified()
    };
    let mut net = DexNetwork::bootstrap(cfg, 16);
    let mut adv = RandomChurn::new(seed ^ 0xabcd, 0.55);
    for _ in 0..250 {
        dex::adversary::driver::step(&mut net, &mut adv);
    }
    signature(&net)
}

#[test]
fn identical_seeds_identical_runs() {
    assert_eq!(run(1, false), run(1, false));
    assert_eq!(run(1, true), run(1, true));
}

#[test]
fn different_seeds_different_runs() {
    assert_ne!(run(2, false), run(3, false));
}

#[test]
fn recorded_trace_replays_identically() {
    let mut net1 = DexNetwork::bootstrap(DexConfig::new(5).simplified(), 16);
    let mut adv = RandomChurn::new(17, 0.5);
    let actions = dex::adversary::driver::run(&mut net1, &mut adv, 200);

    let text = dex::adversary::trace::to_string(&actions);
    let parsed = dex::adversary::trace::parse(&text).unwrap();
    let mut net2 = DexNetwork::bootstrap(DexConfig::new(5).simplified(), 16);
    let mut replay = ReplayTrace::new(parsed);
    dex::adversary::driver::run(&mut net2, &mut replay, 200);

    assert_eq!(signature(&net1), signature(&net2));
}

#[test]
fn parallel_measurement_matches_sequential() {
    // The executor par_map used by the harness must be order-preserving.
    let mut net = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 16);
    let mut adv = RandomChurn::new(23, 0.6);
    let mut snapshots = Vec::new();
    for _ in 0..20 {
        dex::adversary::driver::step(&mut net, &mut adv);
        snapshots.push(net.graph().clone());
    }
    let seq: Vec<f64> = snapshots.iter().map(spectral::spectral_gap).collect();
    let par = dex::exec::par_map(&snapshots, 8, spectral::spectral_gap);
    assert_eq!(seq, par);
}
