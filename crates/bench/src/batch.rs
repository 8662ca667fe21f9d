//! The single-network batch-heal benchmark behind `bench_batch` (and its
//! CI smoke + determinism tests): the parallel wave engine
//! (`dex_core::parheal`) against the sequential one-op-at-a-time path on
//! pure batch churn, at n ∈ {20k, 200k, 1M}. Emits `BENCH_batch.json`.
//!
//! Unlike `bench_heal` (which fans *trials* out over threads), every
//! number here comes from **one network**: the workload is an alternating
//! stream of batch inserts and batch deletes of `B` nodes, applied either
//! through `insert_batch_seq`/`delete_batch_seq` (the sequential oracle)
//! or through `insert_batch`/`delete_batch` (the wave engine) at several
//! planner thread counts.
//!
//! Reported per scale:
//!
//! - **Parity digests** — a fold of every step's charged (rounds,
//!   messages, topology) plus a final Φ/graph checksum. The sequential
//!   and every waved configuration must agree bit-for-bit (the binary
//!   asserts it); `parity` in the JSON records the check.
//! - **Throughput** — heal ops/s over the measured window for the
//!   sequential path and each waved thread count, with the waved/seq
//!   speedup. Timing fields are honest wall-clock measurements on the
//!   current machine; on a single-core container the thread sweep shows
//!   the engine's single-core gain only (see `sections` for the
//!   parallelizable fraction).
//! - **Per-section breakdown** — nanoseconds in the (parallelizable,
//!   read-only) planning pass vs the sequential partition/commit/serial
//!   segments, from [`dex::core::parheal::BatchHealStats`]; plus wave-size
//!   histograms, serial-fallback and replan counts.
//! - **Allocation** — bytes allocated per heal op (through
//!   [`crate::alloc`]) for the sequential path and the single-threaded
//!   waved path (steady state pools everything; pool workers keep their
//!   planning scratch in persistent per-worker slots, so warm waves
//!   allocate nothing and spawn nothing — `pool_spawns` records it).
//! - **Per-wave fan-out cost** — a direct microbench of one planning
//!   round's work distribution at 8 workers: persistent-pool handoff vs
//!   the per-call scoped spawn+join the engine paid before `dex-exec`.
//!
//! A `--type2` variant swaps the mixed churn for a type-2-heavy schedule
//! (pure batch growth through an inflation, then pure batch shrink
//! through a deflation), proving the pooled type-2 rebuild — permutation
//! resolution, cloud staging — stays bit-identical to the sequential
//! oracle; it is smoke-formatted and CI byte-diffs it across thread
//! counts like `--smoke`.
//!
//! Determinism contract: everything except the clearly-labelled timing
//! fields is a pure function of `(smoke, type2, seed)` — independent of
//! `--exec-threads`. In `--smoke`/`--type2` mode timing and allocation
//! fields are omitted and the JSON is **byte-identical** across thread
//! counts (CI runs `--exec-threads 1/3/8` and diffs the files; the
//! `batch_determinism` tests do the same in-process).

use dex::core::parheal::WAVE_HIST_BUCKETS;
use dex::prelude::*;
use dex::sim::rng::splitmix64;
use dex::sim::HistoryMode;
use std::fmt::Write as _;
use std::time::Instant;

/// Options for one benchmark run.
pub struct BatchBenchOptions {
    /// Toy scales, per-step invariant checking, no timing/alloc fields.
    pub smoke: bool,
    /// Type-2-heavy schedule (pure growth through an inflation, then pure
    /// shrink through a deflation) instead of the mixed churn: exercises
    /// the pooled type-2 rebuild (permutation resolution, cloud staging)
    /// inside batch steps. Smoke-formatted — the output is byte-identical
    /// for any `--exec-threads` value and CI diffs 1/3/8.
    pub type2: bool,
    /// Planner thread count for the smoke parity pass (full mode sweeps a
    /// fixed list instead; results are bit-identical for any value).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Reads the process-wide allocated-bytes counter, when the caller
    /// installed [`crate::alloc::CountingAlloc`]. `None` ⇒ allocation
    /// fields are reported as `null`.
    pub alloc_bytes: Option<fn() -> u64>,
}

impl Default for BatchBenchOptions {
    fn default() -> Self {
        BatchBenchOptions {
            smoke: false,
            type2: false,
            threads: 1,
            seed: 0xba7c4,
            alloc_bytes: None,
        }
    }
}

/// One benchmark scale.
struct Scale {
    n0: u64,
    /// Ops per batch step.
    batch: usize,
    /// Total batch steps (first quarter is warmup; under a type-2
    /// schedule there is no warmup split — the whole run is measured).
    steps: usize,
    /// Type-2 schedule: the first `grow` steps are batch inserts and the
    /// rest batch deletes (forcing inflate → deflate); `None` ⇒ the
    /// mixed alternating schedule.
    grow: Option<usize>,
    /// Waved planner thread counts to sweep (full mode).
    sweep: &'static [usize],
}

/// Deterministic pure-batch churn driver: alternating batch inserts and
/// batch deletes of `batch` nodes, fan-in-safe attach points, distinct
/// victims. The schedule is a pure function of the seed — identical for
/// the sequential and every waved configuration.
struct BatchChurn {
    dex: DexNetwork,
    live: Vec<NodeId>,
    next_id: u64,
    state: u64,
    joins: Vec<(NodeId, NodeId)>,
    victims: Vec<NodeId>,
    /// Waved entry points (`false` ⇒ the `*_seq` oracle).
    waved: bool,
    /// Type-2 schedule: insert-only for the first `grow` steps, then
    /// delete-only (`None` ⇒ alternate).
    grow: Option<usize>,
    pub digest: u64,
    pub ops: u64,
}

impl BatchChurn {
    fn new(sc: &Scale, seed: u64, waved: bool, threads: usize) -> Self {
        let n0 = sc.n0;
        let mut dex =
            DexNetwork::bootstrap(DexConfig::new(splitmix64(seed ^ 0xba7c4)).simplified(), n0);
        dex.net.set_history_mode(HistoryMode::Off);
        dex.set_heal_threads(threads);
        let live = dex.node_ids();
        let next_id = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        BatchChurn {
            dex,
            live,
            next_id,
            state: splitmix64(seed ^ 0xc0de),
            joins: Vec::new(),
            victims: Vec::new(),
            waved,
            grow: sc.grow,
            digest: splitmix64(seed),
            ops: 0,
        }
    }

    #[inline]
    fn rnd(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// One batch step. Mixed schedule: even steps insert `batch` nodes,
    /// odd steps delete `batch` nodes (n oscillates around n0). Type-2
    /// schedule: insert-only while `s < grow`, delete-only after —
    /// driving the network through an inflation and then a deflation.
    fn step(&mut self, s: usize, batch: usize) {
        let inserting = match self.grow {
            Some(grow) => s < grow,
            None => s.is_multiple_of(2),
        };
        let m = if inserting {
            self.joins.clear();
            for _ in 0..batch {
                // Fan-in-safe attach point (validation caps fan-in at 8).
                let attach = loop {
                    let r = self.rnd();
                    let v = self.live[(r % self.live.len() as u64) as usize];
                    if self.joins.iter().filter(|&&(_, a)| a == v).count() < 8 {
                        break v;
                    }
                };
                let u = NodeId(self.next_id);
                self.next_id += 1;
                self.joins.push((u, attach));
            }
            let joins = std::mem::take(&mut self.joins);
            let m = if self.waved {
                self.dex.insert_batch(&joins)
            } else {
                self.dex.insert_batch_seq(&joins)
            };
            self.live.extend(joins.iter().map(|&(u, _)| u));
            self.joins = joins;
            m
        } else {
            self.victims.clear();
            for _ in 0..batch {
                let r = self.rnd();
                let idx = (r % self.live.len() as u64) as usize;
                self.victims.push(self.live.swap_remove(idx));
            }
            let victims = std::mem::take(&mut self.victims);
            let m = if self.waved {
                self.dex.delete_batch(&victims)
            } else {
                self.dex.delete_batch_seq(&victims)
            };
            self.victims = victims;
            m
        };
        self.ops += batch as u64;
        // `waves` is deliberately NOT folded: it is the one observable
        // allowed to differ between the waved and sequential paths.
        self.digest = splitmix64(self.digest ^ m.rounds);
        self.digest = splitmix64(self.digest ^ m.messages);
        self.digest = splitmix64(self.digest ^ m.topology_changes);
    }

    /// Fold the final Φ + graph state into the digest: node/edge counts,
    /// Φ counters, and every (vertex, owner) entry in canonical order.
    fn seal(&mut self) {
        let mut d = self.digest;
        d = splitmix64(d ^ self.dex.n() as u64);
        d = splitmix64(d ^ self.dex.graph().num_edges() as u64);
        d = splitmix64(d ^ self.dex.cycle.p());
        d = splitmix64(d ^ self.dex.map.spare_count() as u64);
        d = splitmix64(d ^ self.dex.map.low_count() as u64);
        d = splitmix64(d ^ self.dex.map.max_load());
        for (z, u) in self.dex.map.entries() {
            d = d.rotate_left(1) ^ (z.0 ^ splitmix64(u.0));
        }
        self.digest = splitmix64(d);
    }
}

/// Outcome of one configuration's run over a scale.
struct RunOutcome {
    digest: u64,
    measured_ops: u64,
    wall_s: f64,
    bytes: Option<u64>,
    /// Wave-engine stats over the measured window (zeroed for the
    /// sequential path).
    stats: dex::core::parheal::BatchHealStats,
    /// Steps whose recovery was a type-2 flavour (whole run).
    type2_steps: u64,
    /// Executor threads spawned during the measured window — 0 on a warm
    /// pool (the warmup window absorbs the lazy spawns).
    pool_spawns: u64,
}

fn run_config(
    sc: &Scale,
    seed: u64,
    waved: bool,
    threads: usize,
    opts: &BatchBenchOptions,
) -> RunOutcome {
    // Type-2 schedules measure the whole run (the inflate/deflate events
    // *are* the workload); mixed churn warms up for a quarter first.
    let warmup = if sc.grow.is_some() { 0 } else { sc.steps / 4 };
    let mut d = BatchChurn::new(sc, seed, waved, threads);
    let check = opts.smoke || opts.type2;
    for s in 0..warmup {
        d.step(s, sc.batch);
        if check {
            invariants::assert_ok(&d.dex);
        }
    }
    d.dex.batch_stats.reset();
    let ops0 = d.ops;
    let totals0 = d.dex.net.totals();
    let b0 = opts.alloc_bytes.map(|f| f());
    let spawns0 = dex::exec::total_spawns();
    let t0 = Instant::now();
    for s in warmup..sc.steps {
        d.step(s, sc.batch);
        if check {
            invariants::assert_ok(&d.dex);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let bytes = opts.alloc_bytes.map(|f| f() - b0.unwrap());
    invariants::check(&d.dex).expect("batch churn ended with an invariant violation");
    d.seal();
    RunOutcome {
        digest: d.digest,
        measured_ops: d.ops - ops0,
        wall_s,
        bytes,
        stats: d.dex.batch_stats.clone(),
        type2_steps: d.dex.net.totals().type2_steps - totals0.type2_steps,
        pool_spawns: dex::exec::total_spawns() - spawns0,
    }
}

/// Per-wave fan-out cost, measured directly: one planning round's worth of
/// work distribution at 8 workers, (a) as a persistent-pool parked-worker
/// handoff round-trip and (b) as the pre-executor per-call scoped-thread
/// spawn+join the engine used to pay. The ratio is the structural win of
/// the pool on this machine, independent of workload noise.
fn fanout_microbench() -> (u64, u64) {
    const WORKERS: usize = 8;
    const ROUNDS: u32 = 1000;
    dex::exec::prewarm(WORKERS);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        dex::exec::run_workers(WORKERS, |w| {
            std::hint::black_box(w);
        });
    }
    let pool_ns = (t0.elapsed().as_nanos() / ROUNDS as u128) as u64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        // This IS the measurement: the pre-executor per-call scoped
        // spawn+join baseline the parked-pool handoff is compared
        // against. Routing it through dex_exec would measure the pool
        // against itself.
        // dex-lint: allow(no-raw-threads) -- deliberate scoped-spawn cost baseline
        std::thread::scope(|s| {
            for i in 1..WORKERS {
                s.spawn(move || {
                    std::hint::black_box(i);
                });
            }
        });
    }
    let spawn_ns = (t0.elapsed().as_nanos() / ROUNDS as u128) as u64;
    (pool_ns, spawn_ns)
}

fn wave_hist_json(h: &[u64; WAVE_HIST_BUCKETS]) -> String {
    let entries: Vec<String> = h.iter().map(|c| c.to_string()).collect();
    format!("[{}]", entries.join(", "))
}

/// Run the benchmark and return the `BENCH_batch.json` contents.
pub fn run_batch_bench(opts: &BatchBenchOptions) -> String {
    let scales: Vec<Scale> = if opts.type2 {
        // Pure growth through an inflation, then pure shrink through a
        // deflation: p₀ = initial_prime(4n₀..8n₀), spares are exhausted
        // once n approaches p₀ (inflate), and Low empties once the
        // contracted network is overloaded (deflate). Sized so both fire
        // deterministically; the run asserts they did.
        vec![
            Scale {
                n0: 48,
                batch: 16,
                steps: 22,
                grow: Some(10),
                sweep: &[],
            },
            Scale {
                n0: 96,
                batch: 24,
                steps: 29,
                grow: Some(13),
                sweep: &[],
            },
        ]
    } else if opts.smoke {
        vec![
            Scale {
                n0: 192,
                batch: 16,
                steps: 24,
                grow: None,
                sweep: &[],
            },
            Scale {
                n0: 768,
                batch: 24,
                steps: 32,
                grow: None,
                sweep: &[],
            },
        ]
    } else {
        vec![
            Scale {
                n0: 20_000,
                batch: 64,
                steps: 2400,
                grow: None,
                sweep: &[1, 2, 4, 8],
            },
            Scale {
                n0: 200_000,
                batch: 64,
                steps: 1600,
                grow: None,
                sweep: &[1, 2, 4, 8],
            },
            Scale {
                n0: 1_000_000,
                batch: 64,
                steps: 640,
                grow: None,
                sweep: &[1, 8],
            },
        ]
    };
    let deterministic_output = opts.smoke || opts.type2;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let schedule = if opts.type2 { "type2" } else { "mixed" };
    // `deterministic` is what gates timing-field omission; `smoke`
    // faithfully reflects the flag (a `--type2` run is deterministic but
    // not a smoke run).
    let _ = writeln!(
        json,
        "  \"config\": {{\"smoke\": {}, \"schedule\": \"{schedule}\", \"deterministic\": {deterministic_output}, \"seed\": {}}},",
        opts.smoke, opts.seed
    );
    // Machine context for reading the thread sweep: real multi-core
    // measurements and single-core pool-handoff numbers look alike in a
    // flat table — `available_parallelism` vs `thread_budget` is what
    // distinguishes them.
    let _ = writeln!(json, "  {},", crate::exec_header_json());
    if !deterministic_output {
        let (pool_ns, spawn_ns) = fanout_microbench();
        let _ = writeln!(
            json,
            "  \"per_wave_fanout\": {{\"workers\": 8, \"pool_handoff_ns_per_round\": {pool_ns}, \"scoped_spawn_ns_per_round\": {spawn_ns}, \"reduction\": {:.1}}},",
            spawn_ns as f64 / pool_ns.max(1) as f64
        );
        println!(
            "per-wave fan-out (8 workers): pool handoff {pool_ns} ns/round vs scoped spawn {spawn_ns} ns/round ({:.1}x cheaper)",
            spawn_ns as f64 / pool_ns.max(1) as f64
        );
    }
    let _ = writeln!(json, "  \"scales\": [");
    for (i, sc) in scales.iter().enumerate() {
        let seed = splitmix64(opts.seed ^ sc.n0);
        let warmup = if sc.grow.is_some() { 0 } else { sc.steps / 4 };
        let measured_steps = sc.steps - warmup;

        // Sequential oracle.
        let seq = run_config(sc, seed, false, 1, opts);
        let seq_ops_s = seq.measured_ops as f64 / seq.wall_s;

        // Waved sweep: smoke/type2 runs only the caller's thread count
        // (results are bit-identical for any value — that's what CI
        // diffs); full mode sweeps the scale's list.
        let sweep: Vec<usize> = if deterministic_output {
            vec![opts.threads.max(1)]
        } else {
            sc.sweep.to_vec()
        };
        let waved: Vec<(usize, RunOutcome)> = sweep
            .iter()
            .map(|&t| (t, run_config(sc, seed, true, t, opts)))
            .collect();
        for (t, w) in &waved {
            assert_eq!(
                w.digest, seq.digest,
                "waved (threads={t}) and sequential state diverged at n0={}",
                sc.n0
            );
            assert_eq!(
                w.type2_steps, seq.type2_steps,
                "waved (threads={t}) type-2 schedule diverged at n0={}",
                sc.n0
            );
        }
        if opts.type2 {
            assert!(
                seq.type2_steps >= 2,
                "type-2 schedule must trigger an inflation and a deflation \
                 (got {} type-2 steps at n0={})",
                seq.type2_steps,
                sc.n0
            );
        }

        let _ = writeln!(json, "    {{");
        let _ = writeln!(
            json,
            "      \"n0\": {}, \"batch\": {}, \"steps\": {}, \"measured_steps\": {measured_steps}, \"measured_ops\": {},",
            sc.n0, sc.batch, sc.steps, seq.measured_ops
        );
        let _ = writeln!(
            json,
            "      \"digest\": \"{:#018x}\", \"parity\": true,",
            seq.digest
        );
        let _ = writeln!(json, "      \"invariants\": \"ok\",");
        let _ = writeln!(json, "      \"type2_steps\": {},", seq.type2_steps);
        // Sequential section.
        let mut line = String::from("      \"seq\": {");
        if !deterministic_output {
            let _ = write!(
                line,
                "\"ops_per_sec\": {:.0}, \"wall_s\": {:.3}, \"bytes_per_op\": {}",
                seq_ops_s,
                seq.wall_s,
                seq.bytes
                    .map(|b| (b / seq.measured_ops.max(1)).to_string())
                    .unwrap_or_else(|| "null".into())
            );
        } else {
            let _ = write!(line, "\"measured\": true");
        }
        line.push_str("},");
        let _ = writeln!(json, "{line}");
        if !deterministic_output {
            println!(
                "n0={:<9} seq   {:>10.0} ops/s  ({} ops in {:.3}s)",
                sc.n0, seq_ops_s, seq.measured_ops, seq.wall_s
            );
        }
        // Waved sections.
        let _ = writeln!(json, "      \"waved\": [");
        for (j, (t, w)) in waved.iter().enumerate() {
            let s = &w.stats;
            let _ = writeln!(json, "        {{");
            if deterministic_output {
                // The thread count must not appear in smoke output: the
                // whole point of the CI diff is that nothing else depends
                // on it.
                let _ = writeln!(json, "          \"threads\": \"any\",");
            } else {
                let _ = writeln!(json, "          \"threads\": {t},");
            }
            if !deterministic_output {
                let ops_s = w.measured_ops as f64 / w.wall_s;
                let _ = writeln!(
                    json,
                    "          \"ops_per_sec\": {:.0}, \"wall_s\": {:.3}, \"speedup_vs_seq\": {:.3}, \"bytes_per_op\": {},",
                    ops_s,
                    w.wall_s,
                    ops_s / seq_ops_s,
                    w.bytes
                        .map(|b| (b / w.measured_ops.max(1)).to_string())
                        .unwrap_or_else(|| "null".into())
                );
                let sect_total = (s.plan_ns + s.partition_ns + s.commit_ns + s.serial_ns).max(1);
                let _ = writeln!(
                    json,
                    "          \"sections\": {{\"plan_ns\": {}, \"partition_ns\": {}, \"commit_ns\": {}, \"serial_ns\": {}, \"plan_fraction\": {:.3}}},",
                    s.plan_ns,
                    s.partition_ns,
                    s.commit_ns,
                    s.serial_ns,
                    s.plan_ns as f64 / sect_total as f64
                );
                // A warm pool spawns nothing inside the measured window —
                // the per-wave fan-out cost is parked-worker handoffs only.
                let _ = writeln!(json, "          \"pool_spawns\": {},", w.pool_spawns);
                println!(
                    "n0={:<9} waved {:>10.0} ops/s  (threads {t}, {:.2}x vs seq; plan {:.0}% of engine time; waves {} serial {} replans {})",
                    sc.n0,
                    ops_s,
                    ops_s / seq_ops_s,
                    100.0 * s.plan_ns as f64 / sect_total as f64,
                    s.waves,
                    s.serial_ops,
                    s.replans
                );
            }
            let _ = writeln!(
                json,
                "          \"waves\": {}, \"waved_ops\": {}, \"serial_ops\": {}, \"replans\": {}, \"max_wave\": {},",
                s.waves, s.waved_ops, s.serial_ops, s.replans, s.max_wave
            );
            let _ = writeln!(
                json,
                "          \"wave_hist_log2\": {}",
                wave_hist_json(&s.wave_hist)
            );
            let _ = writeln!(
                json,
                "        }}{}",
                if j + 1 < waved.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < scales.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    json
}
