//! Graph-core before/after benchmark: emits `BENCH_graph_core.json`.
//!
//! Reproduces the experiment loop the arena/snapshot refactor targets —
//! "mutate the multigraph, then re-measure" — and times the seed
//! implementation's path against the new engine on the same workload:
//!
//! * **λ₂ under churn** (n ≈ 20k): per epoch, a few edges churn, then λ₂
//!   is measured. Seed path = from-scratch CSR rebuild
//!   ([`MultiGraph::to_csr`]) + cold-start power iteration; new path =
//!   cached incremental snapshot ([`MultiGraph::csr`]) + warm-started
//!   [`Lambda2Solver`].
//! * **walk throughput**: seed path = per-hop id-space neighbor lookup
//!   (one hash probe per hop, as the seed's `FxHashMap` adjacency did);
//!   new path = slot-space walking ([`MultiGraph::walk_slots`]).
//! * **memory-level-parallel kernels** (`kernels` section): per-hop ns for
//!   scalar vs K-way interleaved walk batches and per-row ns for scalar vs
//!   blocked SpMV, at n ∈ {20k, 200k, 1M} — the single-core
//!   latency-hiding payoff, with pipeline occupancy as an observability
//!   stat. Outputs are asserted bit-identical between the paths before any
//!   timing is reported.
//!
//! Run with `cargo run --release -p dex-bench --bin bench_graph_core`.
//! `--smoke` emits only deterministic digests (no timings, no occupancy),
//! byte-identical for any `DEX_EXEC_THREADS` setting, after asserting the
//! scalar and memory-level-parallel kernels agree in-process.
//! `--out FILE` overrides the output path.

use dex::graph::spectral;
use dex::graph::walks::{walk_endpoints_interleaved, SlotWalkJob, WALK_PIPELINE_K};
use dex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const P: u64 = 20011; // prime ⇒ n = 20011 ≈ 20k nodes, 3-regular
const EPOCHS: usize = 12;
const CHURN_PER_EPOCH: usize = 4;
const MAX_ITERS: usize = 6000;
const TOL: f64 = 1e-10;

fn churn_edges(g: &mut MultiGraph, rng: &mut StdRng) {
    for _ in 0..CHURN_PER_EPOCH {
        let a = NodeId(rng.random_range(0..P));
        let b = NodeId(rng.random_range(0..P));
        if g.contains_edge(a, b) && g.degree(a) > 1 && g.degree(b) > 1 {
            g.remove_edge(a, b);
        } else {
            g.add_edge(a, b);
        }
    }
}

struct Lambda2Outcome {
    total_s: f64,
    last_lambda: f64,
}

// ---------------------------------------------------------------------
// Faithful copy of the SEED implementation's measurement path (the code
// this PR replaced): from-scratch CSR rebuild per call, cold random start,
// drift-based stopping. Kept verbatim here so the "before" timing is the
// seed's actual algorithm, not an emulation.
// ---------------------------------------------------------------------

fn seed_apply_lazy(csr: &dex::graph::Csr, x: &[f64], y: &mut [f64]) {
    for i in 0..csr.n() {
        let deg = csr.degree(i);
        let mut acc = 0.0;
        for &j in csr.row(i) {
            acc += x[j as usize];
        }
        y[i] = 0.5 * x[i] + 0.5 * acc / deg as f64;
    }
}

fn seed_deflate_top(pi: &[f64], x: &mut [f64]) {
    let num: f64 = pi.iter().zip(x.iter()).map(|(p, v)| p * v).sum();
    for v in x.iter_mut() {
        *v -= num;
    }
}

fn seed_pi_norm(pi: &[f64], x: &[f64]) -> f64 {
    pi.iter()
        .zip(x.iter())
        .map(|(p, v)| p * v * v)
        .sum::<f64>()
        .sqrt()
}

fn seed_power_lambda2(g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> f64 {
    let csr = g.to_csr(); // the seed's per-call rebuild
    let n = csr.n();
    let deg_sum: f64 = (0..n).map(|i| csr.degree(i) as f64).sum();
    let pi: Vec<f64> = (0..n).map(|i| csr.degree(i) as f64 / deg_sum).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    seed_deflate_top(&pi, &mut x);
    let norm = seed_pi_norm(&pi, &x);
    for v in x.iter_mut() {
        *v /= norm;
    }
    let mut y = vec![0.0f64; n];
    let mut prev = f64::NAN;
    for it in 0..max_iters {
        seed_apply_lazy(&csr, &x, &mut y);
        seed_deflate_top(&pi, &mut y);
        let rq: f64 = pi
            .iter()
            .zip(x.iter().zip(y.iter()))
            .map(|(p, (xv, yv))| p * xv * yv)
            .sum();
        let norm = seed_pi_norm(&pi, &y);
        if norm < 1e-300 {
            return 0.0;
        }
        for (xv, yv) in x.iter_mut().zip(y.iter()) {
            *xv = yv / norm;
        }
        if it > 16 && (rq - prev).abs() < tol {
            return (2.0 * rq - 1.0).clamp(-1.0, 1.0);
        }
        prev = rq;
    }
    (2.0 * prev - 1.0).clamp(-1.0, 1.0)
}

/// Seed path: every measurement rebuilds the CSR from scratch and runs the
/// seed's cold-start drift-stopped power iteration.
fn lambda2_seed_path(mut g: MultiGraph, seed: u64) -> Lambda2Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut last = 0.0;
    let t0 = Instant::now();
    for _ in 0..EPOCHS {
        churn_edges(&mut g, &mut rng);
        last = seed_power_lambda2(&g, MAX_ITERS, TOL, 0xdecafbad);
    }
    Lambda2Outcome {
        total_s: t0.elapsed().as_secs_f64(),
        last_lambda: last,
    }
}

/// New path: the graph's cached snapshot refreshes dirty rows only, and a
/// persistent solver warm-starts from the previous eigenvector.
fn lambda2_cached_path(mut g: MultiGraph, seed: u64) -> Lambda2Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut solver = Lambda2Solver::new();
    let mut last = 0.0;
    let t0 = Instant::now();
    for _ in 0..EPOCHS {
        churn_edges(&mut g, &mut rng);
        last = solver.lambda2(&g, MAX_ITERS, TOL, 0xdecafbad);
    }
    Lambda2Outcome {
        total_s: t0.elapsed().as_secs_f64(),
        last_lambda: last,
    }
}

/// Seed-path walk: one id→slot hash probe per hop (the seed's
/// `FxHashMap<NodeId, Vec<NodeId>>` adjacency did exactly one hash probe
/// per `neighbors()` call).
fn walk_seed_path(g: &MultiGraph, hops: usize, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = NodeId(0);
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..hops {
        let nbrs = g.neighbors(cur);
        cur = nbrs.at(rng.random_range(0..nbrs.len()));
        acc = acc.wrapping_add(cur.0);
    }
    (t0.elapsed().as_secs_f64(), acc)
}

/// Slot-space walk: two array reads per hop, ids resolved once.
fn walk_slot_path(g: &MultiGraph, hops: usize, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let slot = g.slot_of(NodeId(0)).unwrap();
    let end = g.walk_slots(slot, hops, &mut rng);
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, g.id_of_slot(end).0)
}

// ---------------------------------------------------------------------
// Memory-level-parallel kernels (PR 6): scalar vs K-way walks, scalar vs
// blocked SpMV. Timed single-core (threads = 1) so the numbers isolate
// the latency-hiding effect the pool then multiplies.
// ---------------------------------------------------------------------

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a u64 stream — the deterministic digest CI byte-diffs.
fn fnv1a(acc: u64, v: u64) -> u64 {
    let mut h = acc;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn median3(mut v: [f64; 3]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[1]
}

/// Deterministic batch of fixed-length walk jobs with starts scattered
/// over the whole arena (golden-ratio stride ⇒ DRAM-resident at large n).
fn kernel_jobs(g: &MultiGraph, n: u64, jobs: usize, len: usize) -> Vec<SlotWalkJob> {
    (0..jobs)
        .map(|i| SlotWalkJob {
            start: g
                .slot_of(NodeId((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % n))
                .unwrap(),
            len,
            seed: 0x5eed_c0de ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
        })
        .collect()
}

/// Scalar reference: one `walk_slots` per job, endpoints into `out`.
fn scalar_walk_batch(g: &MultiGraph, jobs: &[SlotWalkJob], out: &mut [u32]) {
    for (j, slot) in jobs.iter().zip(out.iter_mut()) {
        let mut rng = StdRng::seed_from_u64(j.seed);
        *slot = g.walk_slots(j.start, j.len, &mut rng);
    }
}

struct WalkKernelRow {
    n: u64,
    jobs: usize,
    len: usize,
    scalar_ns_per_hop: f64,
    kway_ns_per_hop: f64,
    mean_in_flight: f64,
}

fn kernel_walks(g: &MultiGraph, n: u64, njobs: usize, len: usize) -> WalkKernelRow {
    let jobs = kernel_jobs(g, n, njobs, len);
    let hops = (njobs * len) as f64;
    let k = WALK_PIPELINE_K;
    let mut scalar_out = vec![0u32; njobs];
    let mut kway_out = vec![0u32; njobs];
    // Bit-identity first, then timing: a fast wrong kernel is worthless.
    scalar_walk_batch(g, &jobs, &mut scalar_out);
    let stats = walk_endpoints_interleaved(g, &jobs, k, &mut kway_out);
    assert_eq!(scalar_out, kway_out, "K-way endpoints diverged at n={n}");
    let mut t_scalar = [0.0f64; 3];
    let mut t_kway = [0.0f64; 3];
    for rep in 0..3 {
        let t0 = Instant::now();
        scalar_walk_batch(g, &jobs, &mut scalar_out);
        t_scalar[rep] = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        walk_endpoints_interleaved(g, &jobs, k, &mut kway_out);
        t_kway[rep] = t0.elapsed().as_secs_f64();
    }
    std::hint::black_box((&scalar_out, &kway_out));
    WalkKernelRow {
        n,
        jobs: njobs,
        len,
        scalar_ns_per_hop: median3(t_scalar) * 1e9 / hops,
        kway_ns_per_hop: median3(t_kway) * 1e9 / hops,
        mean_in_flight: stats.mean_in_flight(),
    }
}

struct SpmvKernelRow {
    n: u64,
    scalar_ns_per_row: f64,
    blocked_ns_per_row: f64,
}

fn kernel_spmv(g: &MultiGraph, n: u64) -> SpmvKernelRow {
    let csr = g.csr();
    let rows = csr.n();
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.618).sin()).collect();
    let mut y_scalar = vec![0.0f64; rows];
    let mut y_blocked = vec![0.0f64; rows];
    spectral::lazy_spmv(&csr, &x, &mut y_scalar, 1, 1.0, false);
    spectral::lazy_spmv(&csr, &x, &mut y_blocked, 1, 1.0, true);
    assert!(
        y_scalar
            .iter()
            .zip(&y_blocked)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "blocked SpMV diverged at n={n}"
    );
    let mut t_scalar = [0.0f64; 3];
    let mut t_blocked = [0.0f64; 3];
    for rep in 0..3 {
        let t0 = Instant::now();
        spectral::lazy_spmv(&csr, &x, &mut y_scalar, 1, 1.0, false);
        t_scalar[rep] = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        spectral::lazy_spmv(&csr, &x, &mut y_blocked, 1, 1.0, true);
        t_blocked[rep] = t0.elapsed().as_secs_f64();
    }
    std::hint::black_box((&y_scalar, &y_blocked));
    SpmvKernelRow {
        n,
        scalar_ns_per_row: median3(t_scalar) * 1e9 / rows as f64,
        blocked_ns_per_row: median3(t_blocked) * 1e9 / rows as f64,
    }
}

/// The three kernel scales: cache-resident, cache-straddling, and
/// DRAM-resident arenas. All primes (p-cycle sizes).
const KERNEL_SIZES: [(u64, &str, usize, usize); 3] = [
    (20_011, "cache_resident", 4096, 64),
    (200_003, "cache_straddling", 4096, 128),
    (1_000_003, "dram_resident", 8192, 128),
];

fn kernels_json() -> String {
    let mut json = String::new();
    let _ = writeln!(json, "  \"kernels\": {{");
    let _ = writeln!(json, "    \"walk_k\": {},", WALK_PIPELINE_K);
    let _ = writeln!(
        json,
        "    \"note\": \"single-core (threads=1); medians of 3 reps on a \
         1-CPU container (~±20% noise); the MLP win is the per-hop/per-row \
         ns *trend vs n* — flat scalar-vs-kway at cache_resident n is \
         expected, the gap must open in the DRAM regime\","
    );
    let mut walks = Vec::new();
    let mut spmvs = Vec::new();
    for (n, regime, njobs, len) in KERNEL_SIZES {
        let g = PCycle::new(n).to_multigraph();
        let w = kernel_walks(&g, n, njobs, len);
        println!(
            "kernels n={n} ({regime}): walks scalar {:.1} ns/hop, K-way {:.1} ns/hop ({:.2}x, occupancy {:.2})",
            w.scalar_ns_per_hop,
            w.kway_ns_per_hop,
            w.scalar_ns_per_hop / w.kway_ns_per_hop,
            w.mean_in_flight
        );
        let s = kernel_spmv(&g, n);
        println!(
            "kernels n={n} ({regime}): spmv scalar {:.1} ns/row, blocked {:.1} ns/row ({:.2}x)",
            s.scalar_ns_per_row,
            s.blocked_ns_per_row,
            s.scalar_ns_per_row / s.blocked_ns_per_row
        );
        walks.push((regime, w));
        spmvs.push((regime, s));
    }
    let _ = writeln!(json, "    \"walks\": [");
    for (i, (regime, w)) in walks.iter().enumerate() {
        let comma = if i + 1 < walks.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"regime\": \"{}\", \"jobs\": {}, \"hops_per_job\": {}, \
             \"scalar_ns_per_hop\": {:.2}, \"kway_ns_per_hop\": {:.2}, \
             \"speedup\": {:.2}, \"mean_in_flight\": {:.2}}}{}",
            w.n,
            regime,
            w.jobs,
            w.len,
            w.scalar_ns_per_hop,
            w.kway_ns_per_hop,
            w.scalar_ns_per_hop / w.kway_ns_per_hop,
            w.mean_in_flight,
            comma
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"spmv\": [");
    for (i, (regime, s)) in spmvs.iter().enumerate() {
        let comma = if i + 1 < spmvs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"regime\": \"{}\", \"scalar_ns_per_row\": {:.2}, \
             \"blocked_ns_per_row\": {:.2}, \"speedup\": {:.2}}}{}",
            s.n,
            regime,
            s.scalar_ns_per_row,
            s.blocked_ns_per_row,
            s.scalar_ns_per_row / s.blocked_ns_per_row,
            comma
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = write!(json, "  }}");
    json
}

// ---------------------------------------------------------------------
// Smoke mode: deterministic digests only — no timings, no occupancy —
// byte-identical for any DEX_EXEC_THREADS setting. Scalar and MLP
// kernels are compared in-process before any digest is written.
// ---------------------------------------------------------------------

fn run_smoke(base: &MultiGraph) -> String {
    // Walk endpoints: scalar and K-way must agree in-process.
    let jobs = kernel_jobs(base, P, 512, 64);
    let mut scalar_out = vec![0u32; jobs.len()];
    let mut kway_out = vec![0u32; jobs.len()];
    scalar_walk_batch(base, &jobs, &mut scalar_out);
    walk_endpoints_interleaved(base, &jobs, WALK_PIPELINE_K, &mut kway_out);
    assert_eq!(scalar_out, kway_out, "smoke: K-way endpoints diverged");
    let walk_fnv = scalar_out
        .iter()
        .fold(FNV_SEED, |h, &s| fnv1a(h, base.id_of_slot(s).0));

    // SpMV: both kernels bitwise, digest of the env-selected path.
    let csr = base.csr();
    let rows = csr.n();
    let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.618).sin()).collect();
    let mut y_scalar = vec![0.0f64; rows];
    let mut y_blocked = vec![0.0f64; rows];
    spectral::lazy_spmv(&csr, &x, &mut y_scalar, 1, -1.0, false);
    spectral::lazy_spmv(&csr, &x, &mut y_blocked, 1, -1.0, true);
    assert!(
        y_scalar
            .iter()
            .zip(&y_blocked)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "smoke: blocked SpMV diverged"
    );
    let spmv_fnv = y_scalar.iter().fold(FNV_SEED, |h, v| fnv1a(h, v.to_bits()));

    // λ₂ through the solver's dispatch (fused MLP path when enabled):
    // the eigenvalue bits must not depend on the knob.
    let mut g = base.clone();
    let mut rng = StdRng::seed_from_u64(99);
    let mut solver = Lambda2Solver::new();
    let mut last = 0.0;
    for _ in 0..3 {
        churn_edges(&mut g, &mut rng);
        last = solver.lambda2(&g, 600, TOL, 0xdecafbad);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"n\": {}, \"m\": {}, \"family\": \"pcycle\"}},",
        base.num_nodes(),
        base.num_edges()
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());
    let _ = writeln!(json, "  \"digests\": {{");
    let _ = writeln!(json, "    \"walk_endpoints_fnv\": \"{walk_fnv:#018x}\",");
    let _ = writeln!(json, "    \"spmv_y_fnv\": \"{spmv_fnv:#018x}\",");
    let _ = writeln!(json, "    \"lambda2_bits\": \"{:#018x}\"", last.to_bits());
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    json
}

fn run_full(base: &MultiGraph) -> String {
    // λ₂ under churn — identical churn stream for both paths.
    let seed_out = lambda2_seed_path(base.clone(), 99);
    println!(
        "lambda2 seed path:   {:.3} s over {EPOCHS} epochs (λ₂ = {:.6})",
        seed_out.total_s, seed_out.last_lambda
    );
    let cached_out = lambda2_cached_path(base.clone(), 99);
    println!(
        "lambda2 cached path: {:.3} s over {EPOCHS} epochs (λ₂ = {:.6})",
        cached_out.total_s, cached_out.last_lambda
    );
    let lambda_speedup = seed_out.total_s / cached_out.total_s;
    println!("lambda2 speedup: {lambda_speedup:.2}x");
    assert!(
        (seed_out.last_lambda - cached_out.last_lambda).abs() < 1e-4,
        "paths disagree: {} vs {}",
        seed_out.last_lambda,
        cached_out.last_lambda
    );

    // Walk throughput.
    let hops = 4_000_000usize;
    let (t_id, sink_a) = walk_seed_path(base, hops, 7);
    let (t_slot, sink_b) = walk_slot_path(base, hops, 7);
    std::hint::black_box((sink_a, sink_b));
    let id_mhps = hops as f64 / t_id / 1e6;
    let slot_mhps = hops as f64 / t_slot / 1e6;
    println!("walks: id-space {id_mhps:.2} Mhops/s, slot-space {slot_mhps:.2} Mhops/s");

    let kernels = kernels_json();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"n\": {}, \"m\": {}, \"family\": \"pcycle\"}},",
        base.num_nodes(),
        base.num_edges()
    );
    let _ = writeln!(json, "  {},", dex_bench::exec_header_json());
    let _ = writeln!(json, "  \"lambda2_under_churn\": {{");
    let _ = writeln!(json, "    \"epochs\": {EPOCHS},");
    let _ = writeln!(json, "    \"edge_churn_per_epoch\": {CHURN_PER_EPOCH},");
    let _ = writeln!(
        json,
        "    \"seed_rebuild_per_call_s\": {:.4},",
        seed_out.total_s
    );
    let _ = writeln!(
        json,
        "    \"cached_warm_start_s\": {:.4},",
        cached_out.total_s
    );
    let _ = writeln!(json, "    \"speedup\": {lambda_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"walk_throughput\": {{");
    let _ = writeln!(json, "    \"hops\": {hops},");
    let _ = writeln!(json, "    \"seed_id_space_mhops_per_s\": {id_mhps:.2},");
    let _ = writeln!(json, "    \"slot_space_mhops_per_s\": {slot_mhps:.2},");
    let _ = writeln!(json, "    \"speedup\": {:.2}", slot_mhps / id_mhps);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "{kernels}");
    let _ = writeln!(json, "}}");
    json
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out FILE")),
            other => panic!("unknown flag {other:?} (try --smoke / --out)"),
        }
    }
    let out = out.unwrap_or_else(|| "BENCH_graph_core.json".into());
    let base = PCycle::new(P).to_multigraph();
    println!("graph: n={} m={}", base.num_nodes(), base.num_edges());
    let json = if smoke {
        run_smoke(&base)
    } else {
        run_full(&base)
    };
    std::fs::write(&out, &json).expect("write graph-core bench JSON");
    println!("wrote {out}");
}
