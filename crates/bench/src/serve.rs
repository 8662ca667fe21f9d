//! The sharded DHT serving benchmark behind `bench_serve` (and its CI
//! smoke + determinism checks): the open-loop serving harness
//! (`dex::workload::serve`) driven through a calibrated offered-load
//! sweep. Emits `BENCH_serve.json`.
//!
//! The run has two stages:
//!
//! 1. **Calibration** — a closed-loop saturation probe ([`Arrivals::Burst`]
//!    into an unbounded queue): every op is available from round 0, so the
//!    shards batch maximally and the measured `served/makespan` is the
//!    harness's service **capacity** in ops per virtual round. Pure
//!    virtual-time arithmetic — no wall-clock.
//! 2. **Sweep** — open-loop Poisson arrivals at fixed fractions of that
//!    capacity (0.25× … 1.25×) through the bounded ingestion queue. Below
//!    the knee, latency is flat and nothing sheds; at and above capacity,
//!    queueing delay climbs and the bounded queue starts shedding — the
//!    saturation knee and the backpressure behavior, in one table.
//!
//! Reported per sweep point: sustained throughput in ops per virtual
//! round, utilization against calibrated capacity, shed count, and
//! latency percentiles (p50/p95/p99/p999) in virtual rounds, plus the
//! pooled per-batch heal/route cost summaries and a bit-identity digest.
//!
//! Determinism contract: everything except the clearly-labelled timing
//! fields is a pure function of `(smoke, seed, shards, queue_cap)` —
//! independent of `--exec-threads`. In `--smoke` mode the timing fields
//! are omitted and the JSON is **byte-identical** across thread counts
//! (CI runs `--exec-threads 1/3/8` and diffs the files).

use dex::prelude::*;
use dex::workload::serve::ServeReport;
use dex::workload::{Arrivals, ServeOptions};
use std::fmt::Write as _;
use std::time::Instant;

/// Offered-load fractions of calibrated capacity the sweep visits.
const SWEEP_FRACS: &[f64] = &[0.25, 0.5, 0.75, 1.0, 1.25];

/// Options for one benchmark run.
pub struct ServeBenchOptions {
    /// Toy scale, no timing fields, byte-identical across thread counts.
    pub smoke: bool,
    /// Executor fan-out width for the shard map and each shard's wave
    /// planner (results are bit-identical for any value).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Shard count (`--shards`).
    pub shards: usize,
    /// Ingestion-queue bound (`--queue-cap`).
    pub queue_cap: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            smoke: false,
            threads: 1,
            seed: 0x5e7e,
            shards: 4,
            queue_cap: 4096,
        }
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.4}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        s.count, s.mean, s.p50, s.p95, s.p99, s.p999, s.max
    )
}

/// Sanity every run must satisfy regardless of scale or load.
fn check_report(r: &ServeReport, offered_ops: usize, what: &str) {
    assert_eq!(
        r.served + r.shed,
        offered_ops as u64,
        "{what}: accounting must close"
    );
    assert_eq!(
        r.latency.count as u64, r.served,
        "{what}: one latency sample per served op"
    );
    for sr in &r.shards {
        assert_eq!(
            sr.mismatches, 0,
            "{what}: shard {} DHT oracle mismatch",
            sr.shard
        );
    }
}

/// Run the benchmark; returns the `BENCH_serve.json` contents.
pub fn run_serve_bench(opts: &ServeBenchOptions) -> String {
    let (shards, queue_cap) = (opts.shards, opts.queue_cap);
    // Full scale: 4 × 250k = n≈1M aggregate. Smoke: CI-sized.
    let (n0, cal_ops, point_ops, batch_max) = if opts.smoke {
        (48, 192, 320, 16)
    } else {
        (250_000, 4_096, 16_384, 64)
    };
    let base = ServeOptions {
        shards,
        n0,
        ops: point_ops,
        offered: 1.0,
        arrivals: Arrivals::Poisson,
        read_pct: 60,
        churn_pct: 20,
        keyspace: 1 << 24,
        queue_cap,
        batch_max,
        seed: opts.seed,
        threads: opts.threads,
        heal_threads: opts.threads.max(1),
    };

    // Stage 1: closed-loop capacity calibration (virtual time only).
    let cal = dex::workload::run_serve(&ServeOptions {
        arrivals: Arrivals::Burst,
        queue_cap: usize::MAX,
        ops: cal_ops,
        ..base
    });
    check_report(&cal, cal_ops, "calibration");
    let capacity = if cal.makespan == 0 {
        1.0
    } else {
        cal.served as f64 / cal.makespan as f64
    };

    // Stage 2: offered-load sweep.
    struct Point {
        frac: f64,
        report: ServeReport,
        wall_s: f64,
    }
    let points: Vec<Point> = SWEEP_FRACS
        .iter()
        .map(|&frac| {
            let t0 = Instant::now();
            let report = dex::workload::run_serve(&ServeOptions {
                offered: capacity * frac,
                ..base
            });
            let wall_s = t0.elapsed().as_secs_f64();
            check_report(&report, point_ops, "sweep");
            Point {
                frac,
                report,
                wall_s,
            }
        })
        .collect();

    // Human-readable table.
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                format!("{:.2}x", p.frac),
                format!("{:.3}", capacity * p.frac),
                format!("{:.3}", r.ops_per_round),
                format!("{}", r.shed),
                format!("{}", r.latency.p50),
                format!("{}", r.latency.p99),
                format!("{}", r.latency.p999),
                if opts.smoke {
                    "-".into()
                } else {
                    format!("{:.0}", r.served as f64 / p.wall_s.max(1e-9))
                },
            ]
        })
        .collect();
    crate::print_table(
        &format!(
            "serve: {} shards x n0={} (capacity {:.3} ops/round)",
            shards, n0, capacity
        ),
        &[
            "load", "offered", "ops/rnd", "shed", "p50", "p99", "p999", "ops/s",
        ],
        &rows,
    );

    // JSON assembly.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{\"smoke\": {}, \"seed\": {}, \"shards\": {}, \"n0_per_shard\": {}, \"aggregate_n0\": {}, \"queue_cap\": {}, \"batch_max\": {}, \"read_pct\": 60, \"churn_pct\": 20}},",
        opts.smoke,
        opts.seed,
        shards,
        n0,
        shards as u64 * n0,
        queue_cap,
        batch_max
    );
    let _ = writeln!(json, "  {},", crate::exec_header_json());
    let _ = writeln!(
        json,
        "  \"calibration\": {{\"ops\": {}, \"capacity_ops_per_round\": {:.6}, \"makespan_rounds\": {}, \"batches\": {}, \"digest\": \"0x{:016x}\"}},",
        cal_ops,
        capacity,
        cal.makespan,
        cal.shards.iter().map(|s| s.batches).sum::<u64>(),
        cal.digest
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(
            json,
            "      \"offered_frac\": {:.2}, \"offered_ops_per_round\": {:.6},",
            p.frac,
            capacity * p.frac
        );
        let _ = writeln!(
            json,
            "      \"served\": {}, \"shed\": {}, \"leaves_skipped\": {}, \"final_n\": {},",
            r.served,
            r.shed,
            r.shards.iter().map(|s| s.leaves_skipped).sum::<u64>(),
            r.final_n
        );
        let _ = writeln!(
            json,
            "      \"makespan_rounds\": {}, \"ops_per_round\": {:.6}, \"utilization\": {:.4},",
            r.makespan,
            r.ops_per_round,
            r.ops_per_round / capacity
        );
        let _ = writeln!(
            json,
            "      \"batches\": {}, \"batch_peak\": {}, \"queue_peak\": {},",
            r.shards.iter().map(|s| s.batches).sum::<u64>(),
            r.shards.iter().map(|s| s.batch_peak).max().unwrap_or(0),
            r.shards.iter().map(|s| s.queue_peak).max().unwrap_or(0)
        );
        let _ = writeln!(
            json,
            "      \"latency_rounds\": {},",
            summary_json(&r.latency)
        );
        let _ = writeln!(
            json,
            "      \"heal_rounds\": {},",
            summary_json(&r.steps.rounds)
        );
        let _ = writeln!(
            json,
            "      \"heal_messages\": {},",
            summary_json(&r.steps.messages)
        );
        if opts.smoke {
            let _ = writeln!(json, "      \"digest\": \"0x{:016x}\"", r.digest);
        } else {
            // Wall-clock throughput: the only machine-dependent fields,
            // full mode only (smoke output must byte-diff clean).
            let _ = writeln!(json, "      \"digest\": \"0x{:016x}\",", r.digest);
            let _ = writeln!(
                json,
                "      \"wall_s\": {:.3}, \"ops_per_sec\": {:.0}",
                p.wall_s,
                r.served as f64 / p.wall_s.max(1e-9)
            );
        }
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_json_is_thread_invariant_and_shows_the_knee() {
        let a = run_serve_bench(&ServeBenchOptions {
            smoke: true,
            threads: 1,
            ..ServeBenchOptions::default()
        });
        for threads in [3, 8] {
            let b = run_serve_bench(&ServeBenchOptions {
                smoke: true,
                threads,
                ..ServeBenchOptions::default()
            });
            assert_eq!(a, b, "smoke JSON diverged at threads={threads}");
        }
        assert!(a.contains("\"sweep\""));
        assert!(a.contains("\"p999\""));
        assert!(!a.contains("wall_s"), "smoke must omit wall-clock fields");
    }
}
