//! Fault-injection benchmark: degradation curves for the DEX healing
//! protocol under message loss, latency skew, and partitions, emitted to
//! `BENCH_faults.json`.
//!
//! Five sections:
//!
//! * `percolation` — engine-level delivery curve: many walk and route
//!   operations on a frozen bootstrap topology, swept over the loss grid
//!   {0, 0.25, 0.5, 0.8} via [`dex::sim::msim`] directly (no protocol on
//!   top), showing raw delivery rate, retries, and makespan stretch;
//! * `degradation` — protocol-level curve: the scenario engine runs a
//!   churn+DHT workload with a [`Phase::Faults`] span at each loss point;
//!   pooled per-step percentiles, λ₂ before/after, delivery rate, and
//!   DHT success rate (abandoned operations are graceful degradation,
//!   not data loss — the shadow oracle still must never mismatch);
//! * `flood_degradation` — flood-aggregate curve: complete rate, partial
//!   count error, and witness rate of message-scheduled floods with the
//!   spec's re-flood budget at each loss point;
//! * `type2_degradation` — inflate/deflate coordination curve: insert-
//!   heavy growth forces type-2 rebuilds whose coordination rolls back
//!   and re-initiates under loss (rollback rate per attempt);
//! * `attacks` — two scenario-engine attack families (flash crowd,
//!   partition-then-heal) re-run under loss with full structural
//!   invariant checks after every step.
//!
//! Determinism contract: everything in the JSON except the executor
//! header is **byte-identical** for a given `--seed` regardless of
//! `--exec-threads` (CI byte-diffs the smoke output across 1/3/8).
//! Nothing in the JSON reads the wall clock. Every fault spec uses the
//! fixed loss grid {0, 250, 500, 800}‰, 6 walk and route retries, and a
//! fault seed derived from `--seed`.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_faults            # full
//! cargo run --release -p dex-bench --bin bench_faults -- --smoke # CI-sized
//! ```

use dex::prelude::*;
use dex::sim::msim;
use dex::sim::rng::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

struct Args {
    smoke: bool,
    threads: usize,
    seed: u64,
    trials: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: dex::exec::thread_budget(),
        seed: 0xfa57_cafe,
        trials: 0, // 0 = scale default
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--exec-threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exec-threads N");
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--trials" => {
                args.trials = it.next().and_then(|v| v.parse().ok()).expect("--trials R");
            }
            "--out" => args.out = Some(it.next().expect("--out FILE")),
            other => panic!(
                "unknown flag {other:?} (try --smoke / --exec-threads / --seed / --trials / --out)"
            ),
        }
    }
    args
}

/// The loss grid, in 1/1000 units.
const LOSS_GRID: [u32; 4] = [0, 250, 500, 800];

/// Walk and route re-initiation budget of every fault spec.
const RETRIES: u32 = 6;

/// The fault spec for one loss point: loss plus mild latency skew, the
/// fixed retry budgets, and a fault seed derived from `seed`.
fn spec_for(loss: u32, seed: u64) -> FaultSpec {
    FaultSpec::zero()
        .with_loss(loss)
        .with_latency(1, 3)
        .with_retries(RETRIES, RETRIES)
        .with_fallback(2)
        .with_seed(splitmix64(seed ^ 0xfa57))
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.4}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        s.count, s.mean, s.p50, s.p95, s.p99, s.p999, s.max
    )
}

fn fault_stats_json(fs: &FaultStats) -> String {
    format!(
        "{{\"sent\": {}, \"delivered\": {}, \"lost_random\": {}, \"lost_burst\": {}, \
         \"lost_partition\": {}, \"timeouts\": {}, \"reinitiations\": {}, \"walks_lost\": {}, \
         \"routes_lost\": {}, \"heal_fallbacks\": {}, \"dht_abandoned\": {}, \
         \"flood_retries\": {}, \"floods_partial\": {}, \"type2_rollbacks\": {}, \
         \"type2_reinitiations\": {}, \
         \"delivery_rate\": {:.6}}}",
        fs.sent,
        fs.delivered,
        fs.lost_random,
        fs.lost_burst,
        fs.lost_partition,
        fs.timeouts,
        fs.reinitiations,
        fs.walks_lost,
        fs.routes_lost,
        fs.heal_fallbacks,
        fs.dht_abandoned,
        fs.flood_retries,
        fs.floods_partial,
        fs.type2_rollbacks,
        fs.type2_reinitiations,
        fs.delivery_rate(),
    )
}

/// Engine-level percolation point: `n_ops` walks (to a sparse accept set)
/// and `n_ops` fixed-length routes on a frozen bootstrap topology.
fn percolation_point(
    g: &dex::graph::MultiGraph,
    loss: u32,
    seed: u64,
    n_ops: usize,
    threads: usize,
) -> String {
    let spec = spec_for(loss, seed);
    let nodes = g.nodes_sorted();
    let pick = |x: u64| nodes[(splitmix64(x) % nodes.len() as u64) as usize];

    // Walks: hunt for a ~1/8 sparse accept set, 32-hop budget.
    let walk_ops: Vec<msim::WalkOp> = (0..n_ops)
        .map(|i| msim::WalkOp {
            start: pick(seed ^ (i as u64)),
            max_len: 32,
            exclude: None,
            op_key: splitmix64(seed ^ 0x3a1c ^ (i as u64)),
        })
        .collect();
    let accept = |u: NodeId| splitmix64(u.0 ^ seed).is_multiple_of(8);
    let mk_rng = |i: usize, retry: u32| {
        StdRng::seed_from_u64(splitmix64(
            seed ^ 0x77a1 ^ (i as u64) ^ ((retry as u64) << 40),
        ))
    };
    let (walk_results, walk_report) = msim::run_walks(g, &spec, &walk_ops, accept, mk_rng, threads);
    let walk_hits = walk_results.iter().filter(|r| r.hit.is_some()).count();
    let walk_lost = walk_results
        .iter()
        .filter(|r| r.status == msim::OpStatus::Lost)
        .count();

    // Routes: 12-hop neighbor-chain paths (consecutive entries adjacent),
    // round-trip like a DHT lookup.
    let route_ops: Vec<msim::RouteOp> = (0..n_ops)
        .map(|i| {
            let mut at = pick(seed ^ 0x5b3d ^ (i as u64));
            let mut path = vec![at];
            for hop in 0..12u64 {
                let nbrs: Vec<NodeId> = g.neighbors(at).iter().collect();
                at = nbrs
                    [(splitmix64(seed ^ (i as u64) ^ (hop << 32)) % nbrs.len() as u64) as usize];
                path.push(at);
            }
            msim::RouteOp {
                path,
                round_trip: true,
                op_key: splitmix64(seed ^ 0x0f3c ^ (i as u64)),
            }
        })
        .collect();
    let (route_results, route_report) = msim::run_routes(g, &spec, &route_ops, threads);
    let route_delivered = route_results
        .iter()
        .filter(|r| r.status == msim::OpStatus::Delivered)
        .count();
    let mean_retries = route_results.iter().map(|r| r.retries as u64).sum::<u64>() as f64
        / route_results.len() as f64;

    format!(
        "{{\"loss_milli\": {loss}, \
         \"walk_hit_rate\": {:.6}, \"walks_lost\": {walk_lost}, \
         \"walk_delivery_rate\": {:.6}, \"walk_makespan\": {}, \
         \"route_delivery_rate\": {:.6}, \"route_token_delivery_rate\": {:.6}, \
         \"route_mean_retries\": {mean_retries:.4}, \"route_makespan\": {}, \
         \"sends\": {}}}",
        walk_hits as f64 / walk_ops.len() as f64,
        walk_report.stats.delivery_rate(),
        walk_report.makespan,
        route_delivered as f64 / route_ops.len() as f64,
        route_report.stats.delivery_rate(),
        route_report.makespan,
        walk_report.messages + route_report.messages,
    )
}

/// Protocol-level degradation point: churn + DHT traffic inside a
/// [`Phase::Faults`] span at this loss.
fn degradation_point(loss: u32, opts: &RunOptions, smoke: bool) -> (String, StepAggregate) {
    let churn = if smoke { 16 } else { 192 };
    let dht_ops = if smoke { 16 } else { 256 };
    let sc = Scenario::new("degradation")
        .phase(Phase::Faults {
            spec: spec_for(loss, opts.seed),
        })
        .phase(Phase::Churn {
            steps: churn,
            p_insert: 0.5,
        })
        .phase(Phase::DhtMix {
            ops: dht_ops,
            read_pct: 50,
            keyspace: 1 << 16,
        })
        .phase(Phase::FaultsOff);
    let reports = run_trials(&sc, opts);
    let agg = pool_aggregate(&reports);
    let mismatches: u64 = reports.iter().map(|r| r.dht_mismatches).sum();
    assert_eq!(mismatches, 0, "loss {loss}: shadow oracle mismatch");
    let mut fs = FaultStats::default();
    for r in &reports {
        fs.merge(&r.fault_stats);
    }
    let total_dht = (dht_ops * reports.len()) as f64;
    let dht_success = 1.0 - fs.dht_abandoned as f64 / total_dht;
    // λ₂ at bootstrap and after the campaign, averaged over trials.
    let l2_first = reports.iter().map(|r| r.lambda2[0]).sum::<f64>() / reports.len() as f64;
    let l2_final = reports
        .iter()
        .map(|r| *r.lambda2.last().expect("trajectory"))
        .sum::<f64>()
        / reports.len() as f64;
    let json = format!(
        "{{\"loss_milli\": {loss}, \"steps\": {}, \"rounds\": {}, \"messages\": {}, \
         \"lambda2_start\": {l2_first:.6}, \"lambda2_final\": {l2_final:.6}, \
         \"dht_success_rate\": {dht_success:.6}, \"dht_mismatches\": {mismatches}, \
         \"faults\": {}}}",
        agg.steps,
        summary_json(&agg.rounds),
        summary_json(&agg.messages),
        fault_stats_json(&fs),
    );
    (json, agg)
}

/// Engine-level flood degradation point: `k` flood-aggregates from
/// distinct roots on the frozen bootstrap topology, each with the spec's
/// re-flood budget. Reports how gracefully the count degrades: complete
/// rate, mean partial-count error vs the true size, witness-found rate,
/// and the new flood counters.
fn flood_point(
    g: &dex::graph::MultiGraph,
    loss: u32,
    seed: u64,
    k: usize,
    threads: usize,
) -> String {
    let spec = spec_for(loss, seed);
    let nodes = g.nodes_sorted();
    let n = nodes.len() as f64;
    let pred = |u: NodeId| splitmix64(u.0 ^ seed ^ 0x5e7).is_multiple_of(8);
    let mut fs = FaultStats::default();
    let (mut complete, mut witnesses) = (0usize, 0usize);
    let (mut err_sum, mut makespan_sum) = (0.0f64, 0u64);
    for i in 0..k {
        let root = nodes[(splitmix64(seed ^ 0xf10d ^ i as u64) % nodes.len() as u64) as usize];
        let op_key = splitmix64(seed ^ 0xf1f1 ^ i as u64);
        let (out, report) =
            msim::run_flood(g, &spec, root, pred, op_key, spec.flood_retries, threads);
        if out.complete {
            complete += 1;
        }
        if out.witness.is_some() {
            witnesses += 1;
        }
        err_sum += (n - out.n as f64).abs() / n;
        makespan_sum += report.makespan;
        fs.merge(&report.stats);
    }
    if loss == 0 {
        assert_eq!(complete, k, "zero loss left a flood incomplete");
        assert_eq!(err_sum, 0.0, "zero loss miscounted");
    }
    format!(
        "{{\"loss_milli\": {loss}, \"floods\": {k}, \
         \"complete_rate\": {:.6}, \"partial_count_error\": {:.6}, \
         \"witness_rate\": {:.6}, \"mean_makespan\": {:.4}, \"faults\": {}}}",
        complete as f64 / k as f64,
        err_sum / k as f64,
        witnesses as f64 / k as f64,
        makespan_sum as f64 / k as f64,
        fault_stats_json(&fs),
    )
}

/// Protocol-level type-2 degradation point: insert-heavy growth from a
/// tiny bootstrap runs the spare pool dry, forcing inflations whose
/// message-scheduled coordination must roll back and re-initiate under
/// loss. `rollback_rate` is failed coordination attempts per attempt
/// (completions + rollbacks).
fn type2_point(loss: u32, seed: u64, smoke: bool, threads: usize) -> String {
    let n0 = 16u64;
    let inserts = if smoke { 120 } else { 280 };
    let cfg = DexConfig::new(splitmix64(seed ^ 0x7209)).simplified();
    let mut dex = DexNetwork::bootstrap(cfg, n0);
    dex.set_heal_threads(threads);
    dex.set_faults(Some(spec_for(loss, seed)));
    let mut live = dex.node_ids();
    let first = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
    for i in 0..inserts {
        let attach = live[(splitmix64(seed ^ 0xa77 ^ i as u64) % live.len() as u64) as usize];
        let u = NodeId(first + i as u64);
        dex.insert(u, attach);
        live.push(u);
    }
    invariants::assert_ok(&dex);
    let fs = dex.fault_stats();
    let t2 = dex.walk_stats.type2;
    assert!(t2 >= 1, "loss {loss}: growth never forced a type-2");
    let attempts = t2 + fs.type2_rollbacks;
    format!(
        "{{\"loss_milli\": {loss}, \"inserts\": {inserts}, \"final_n\": {}, \
         \"type2_steps\": {t2}, \"rollback_rate\": {:.6}, \"faults\": {}}}",
        dex.n(),
        fs.type2_rollbacks as f64 / attempts as f64,
        fault_stats_json(&fs),
    )
}

/// One attack family re-run under loss with full invariant checking.
fn attack_point(name: &str, sc: &Scenario, opts: &RunOptions) -> String {
    let reports = run_trials(sc, opts);
    let agg = pool_aggregate(&reports);
    let mismatches: u64 = reports.iter().map(|r| r.dht_mismatches).sum();
    assert_eq!(mismatches, 0, "{name}: shadow oracle mismatch");
    let mut fs = FaultStats::default();
    for r in &reports {
        fs.merge(&r.fault_stats);
    }
    let l2_final = reports
        .iter()
        .map(|r| *r.lambda2.last().expect("trajectory"))
        .sum::<f64>()
        / reports.len() as f64;
    format!(
        "{{\"name\": \"{name}\", \"invariants_checked\": true, \"steps\": {}, \
         \"rounds\": {}, \"messages\": {}, \"lambda2_final\": {l2_final:.6}, \
         \"final_n\": [{}], \"faults\": {}}}",
        agg.steps,
        summary_json(&agg.rounds),
        summary_json(&agg.messages),
        reports
            .iter()
            .map(|r| r.final_n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        fault_stats_json(&fs),
    )
}

fn main() {
    let args = parse_args();
    let n0: u64 = if args.smoke { 48 } else { 2048 };
    let trials = if args.trials > 0 {
        args.trials
    } else if args.smoke {
        2
    } else {
        3
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_faults.json".to_string());

    let opts = RunOptions {
        n0,
        trials,
        seed: args.seed,
        // Sample λ₂ only at the endpoints: the curve wants "gap before vs
        // after the campaign", not a trajectory.
        lambda_every: 1 << 30,
        exec: ExecConfig::with_threads(args.threads),
        check_invariants: args.smoke,
        keep_actions: false,
        keep_step_metrics: false,
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n0\": {n0}, \"trials\": {trials}, \"seed\": {}, \"smoke\": {}, \
         \"loss_grid\": [{}]}},",
        args.seed,
        args.smoke,
        LOSS_GRID
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());

    // ---- Section 1: engine-level delivery percolation -------------------
    let frozen = DexNetwork::bootstrap(
        DexConfig::new(splitmix64(args.seed ^ 0x9e1)).simplified(),
        n0,
    );
    let n_ops = if args.smoke { 200 } else { 2000 };
    let _ = writeln!(json, "  \"percolation\": [");
    for (i, &loss) in LOSS_GRID.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let point = percolation_point(frozen.graph(), loss, args.seed, n_ops, args.threads);
        println!(
            "percolation loss {loss:>4}  ({:.2}s)",
            t0.elapsed().as_secs_f64()
        );
        let _ = writeln!(
            json,
            "    {point}{}",
            if i + 1 < LOSS_GRID.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // ---- Section 2: protocol-level degradation curve --------------------
    let _ = writeln!(json, "  \"degradation\": [");
    for (i, &loss) in LOSS_GRID.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let (point, agg) = degradation_point(loss, &opts, args.smoke);
        println!(
            "degradation loss {loss:>4}  steps {:>5}  rounds p50/p95 {}/{}  ({:.2}s)",
            agg.steps,
            agg.rounds.p50,
            agg.rounds.p95,
            t0.elapsed().as_secs_f64()
        );
        let _ = writeln!(
            json,
            "    {point}{}",
            if i + 1 < LOSS_GRID.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // ---- Section 3: flood-aggregate degradation curve -------------------
    let flood_k = if args.smoke { 16 } else { 64 };
    let _ = writeln!(json, "  \"flood_degradation\": [");
    for (i, &loss) in LOSS_GRID.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let point = flood_point(frozen.graph(), loss, args.seed, flood_k, args.threads);
        println!("flood loss {loss:>4}  ({:.2}s)", t0.elapsed().as_secs_f64());
        let _ = writeln!(
            json,
            "    {point}{}",
            if i + 1 < LOSS_GRID.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // ---- Section 4: type-2 coordination degradation curve ---------------
    let _ = writeln!(json, "  \"type2_degradation\": [");
    for (i, &loss) in LOSS_GRID.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let point = type2_point(loss, args.seed, args.smoke, args.threads);
        println!("type2 loss {loss:>4}  ({:.2}s)", t0.elapsed().as_secs_f64());
        let _ = writeln!(
            json,
            "    {point}{}",
            if i + 1 < LOSS_GRID.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // ---- Section 5: attack families under loss, invariants on -----------
    let attack_loss = 350;
    let attack_opts = RunOptions {
        check_invariants: true,
        ..opts
    };
    let s = |a: usize, b: usize| if args.smoke { b } else { a };
    let attacks = [
        (
            "flash-crowd-under-loss",
            Scenario::new("flash-crowd-under-loss")
                .phase(Phase::Faults {
                    spec: spec_for(attack_loss, args.seed),
                })
                .phase(Phase::FlashCrowd {
                    waves: s(6, 2),
                    wave_size: s(48, 6),
                })
                .phase(Phase::FaultsOff),
        ),
        (
            "partition-heal-under-loss",
            Scenario::new("partition-heal-under-loss")
                .phase(Phase::Faults {
                    spec: spec_for(attack_loss, args.seed).with_partition(48, 6),
                })
                .phase(Phase::PartitionHeal {
                    bursts: s(3, 1),
                    burst_size: s(16, 3),
                    regrow: s(48, 6),
                })
                .phase(Phase::FaultsOff),
        ),
    ];
    let _ = writeln!(json, "  \"attacks\": [");
    for (i, (name, sc)) in attacks.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let point = attack_point(name, sc, &attack_opts);
        println!("attack {name:<28}  ({:.2}s)", t0.elapsed().as_secs_f64());
        let _ = writeln!(
            json,
            "    {point}{}",
            if i + 1 < attacks.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out, &json).expect("write faults bench JSON");
    println!(
        "wrote {out} ({} loss points, {} attack families)",
        LOSS_GRID.len(),
        attacks.len()
    );
}
