//! Correctness gates, metrics and the layer table.
//!
//! Virtual cost (rounds, messages, topology changes: the paper's metric)
//! and wall cost (the implementation's metric) are separate metrics and
//! never mixed. Timings are per call: nearest-rank p50 and p99, each over
//! ≥1000 calls.

use crate::lane::Record;
use crate::trace::{self, Kind};
use crate::workloads::Workload;
use crate::{Options, Outcome};
use std::collections::BTreeMap;

/// The traced run reconciles when Σ layer self-times (the caller's own
/// residual included) is within this share of lanes × phase wall, timed
/// by an `Instant` apart from the spans, and no span's self time is below
/// `-NEST_SLACK_NS`.
pub const RECONCILE_TOL_PCT: f64 = 2.0;
const NEST_SLACK_NS: i64 = 10_000;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Nearest-rank percentile of ns samples, in µs (0 when empty).
pub fn pct_us(samples: impl IntoIterator<Item = u64>, q: f64) -> f64 {
    let mut v: Vec<u64> = samples.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx] as f64 / 1e3
}

/// Most windows a phase is cut into. Each window's latency percentile is
/// taken over ≥1000 calls (so p99 has ≥10 calls beyond it) and the median
/// over windows is reported: an episode of outside interference shorter
/// than half the phase moves some windows, not the result.
const MAX_WINDOWS: usize = 9;

/// Windowed percentile (µs) of per-lane, call-ordered ns series: window
/// `w` pools the `w`-th slice of every series.
fn windowed_us(series: &[&[u64]], q: f64) -> f64 {
    let total: usize = series.iter().map(|s| s.len()).sum();
    // An odd count, so the median is one window's value.
    let windows = ((total / 1000).clamp(1, MAX_WINDOWS) - 1) | 1;
    let mut per: Vec<f64> = (0..windows)
        .map(|w| {
            pct_us(
                series.iter().flat_map(|s| {
                    let n = s.len();
                    s[w * n / windows..(w + 1) * n / windows].iter().copied()
                }),
                q,
            )
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2]
}

/// Completed ops per second in each of `MAX_WINDOWS` equal slices of the
/// phase's wall time; the median over slices.
fn windowed_rate(o: &Outcome) -> f64 {
    let span = o.phase_end.saturating_sub(o.phase_start).max(1) as f64;
    let mut ops = [0u64; MAX_WINDOWS];
    for &(end, k) in o.phase.iter().flat_map(|r| &r.done) {
        let w = ((end.saturating_sub(o.phase_start)) as f64 / span * MAX_WINDOWS as f64) as usize;
        ops[w.min(MAX_WINDOWS - 1)] += k;
    }
    let mut rates: Vec<f64> = ops
        .iter()
        .map(|&k| k as f64 / (span / MAX_WINDOWS as f64 / 1e9))
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[MAX_WINDOWS / 2]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2] as f64,
        n => (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0,
    }
}

fn sum(recs: &[Record], f: impl Fn(&Record) -> u64) -> u64 {
    recs.iter().map(f).sum()
}

fn all(o: &Outcome) -> impl Iterator<Item = &Record> {
    o.phase.iter().chain(&o.verify)
}

/// The run's correctness gates. Any failure means no metrics.
pub fn gates(o: &Outcome) -> Result<(), String> {
    let mut errs = Vec::new();
    let mismatches: u64 = all(o).map(|r| r.mismatches).sum();
    if mismatches > 0 {
        errs.push(format!("{mismatches} gets disagreed with the oracle"));
    }
    for r in all(o) {
        if r.attempted != r.completed + r.failed {
            errs.push(format!(
                "attempted {} != completed {} + failed {}",
                r.attempted, r.completed, r.failed
            ));
        }
    }
    let hop: u64 = all(o).map(|r| r.hop_mismatches).sum();
    if hop > 0 {
        errs.push(format!(
            "{hop} replayed routes disagree with the hops charged"
        ));
    }
    errs.extend(o.invariant_errors.iter().cloned());
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

/// Ops attempted and failed, phase plus verification.
pub fn attempted_failed(o: &Outcome) -> (u64, u64) {
    (
        all(o).map(|r| r.attempted).sum(),
        all(o).map(|r| r.failed).sum(),
    )
}

fn ops_per_s(o: &Outcome) -> f64 {
    ratio(
        sum(&o.phase, |r| r.completed) as f64,
        o.phase_ns as f64 / 1e9,
    )
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let ops = sum(&o.phase, |r| r.attempted) as f64;
    let (attempted, failed) = attempted_failed(o);
    let dht: Vec<&[u64]> = all(o).map(|r| r.dht_ns.as_slice()).collect();
    vec![
        m("setup_s", "s", median(&o.setup_ns) / 1e9),
        m("ops_per_s", "1/s", windowed_rate(o)),
        m("dht_p50_us", "us", windowed_us(&dht, 0.50)),
        m("dht_p99_us", "us", windowed_us(&dht, 0.99)),
        m(
            "rounds_per_op",
            "rounds",
            ratio(sum(&o.phase, |r| r.rounds) as f64, ops),
        ),
        m(
            "messages_per_op",
            "messages",
            ratio(sum(&o.phase, |r| r.messages) as f64, ops),
        ),
        m(
            "topology_changes_per_op",
            "edges",
            ratio(sum(&o.phase, |r| r.topology) as f64, ops),
        ),
        m(
            "success_frac",
            "ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("spectral_gap_end", "ratio", o.gap),
    ]
}

/// Every count the determinism contract covers, with the digest of the
/// op results: identical at any thread count, traced or not, run after
/// run.
pub fn witness(o: &Outcome) -> Vec<(&'static str, u64)> {
    let s = |f: fn(&Record) -> u64| all(o).map(f).sum::<u64>();
    let fs = &o.faults;
    vec![
        ("digest", o.digest()),
        ("attempted", s(|r| r.attempted)),
        ("completed", s(|r| r.completed)),
        ("failed", s(|r| r.failed)),
        ("rounds", s(|r| r.rounds)),
        ("messages", s(|r| r.messages)),
        ("topology", s(|r| r.topology)),
        ("walk_attempts", s(|r| r.walk_attempts)),
        ("walk_hits", s(|r| r.walk_hits)),
        ("flood_steps", s(|r| r.flood_steps)),
        ("type2_steps", s(|r| r.type2_steps)),
        ("type2_messages", s(|r| r.type2_messages)),
        ("waves", s(|r| r.waves)),
        ("waved_ops", s(|r| r.waved_ops)),
        ("serial_ops", s(|r| r.serial_ops)),
        ("replans", s(|r| r.replans)),
        ("migrations", s(|r| r.migrations)),
        ("migrated_items", s(|r| r.migrated_items)),
        ("msim_sent", fs.sent),
        ("msim_delivered", fs.delivered),
        ("msim_timeouts", fs.timeouts),
        ("msim_reinitiations", fs.reinitiations),
        ("msim_walks_lost", fs.walks_lost),
        ("msim_routes_lost", fs.routes_lost),
        ("msim_heal_fallbacks", fs.heal_fallbacks),
    ]
}

/// Layer buckets of the traced phase, in table order.
const BUCKETS: [&str; 16] = [
    "route.bfs",
    "phi.resolve",
    "dht",
    "msim.route",
    "msim.heal",
    "type1",
    "flood",
    "type2",
    "batch",
    "wave.plan",
    "wave.partition",
    "wave.commit",
    "wave.serial",
    "exec.fanout",
    "driver",
    "trace.replay",
];

/// Self ns per layer bucket over the traced phase. DHT call time is split
/// into route BFS, Φ resolve and the rest by the shares the replays
/// measured; batch call time into the wave engine's own section timers
/// and the rest.
fn buckets(o: &Outcome, w: Workload, ledger: &BTreeMap<Kind, i64>) -> BTreeMap<&'static str, f64> {
    let get = |k: Kind| *ledger.get(&k).unwrap_or(&0) as f64;
    let replayed = all(o).map(|r| r.replayed_call_ns).sum::<u64>() as f64;
    let mut bfs_share = ratio(all(o).flat_map(|r| &r.bfs_ns).sum::<u64>() as f64, replayed);
    let mut phi_share = ratio(all(o).flat_map(|r| &r.phi_ns).sum::<u64>() as f64, replayed);
    // A replay can outrun its call (it runs right after it, on warm
    // caches); the two steps then account for the whole call.
    let steps = bfs_share + phi_share;
    if steps > 1.0 {
        bfs_share /= steps;
        phi_share /= steps;
    }
    let dht = get(Kind::Dht);
    let mut b: BTreeMap<&'static str, f64> = BUCKETS.iter().map(|&n| (n, 0.0)).collect();
    b.insert("route.bfs", dht * bfs_share);
    b.insert("phi.resolve", dht * phi_share);
    let rest = (dht * (1.0 - bfs_share - phi_share)).max(0.0);
    let wave: Vec<f64> = (0..4)
        .map(|i| o.phase.iter().map(|r| r.wave_ns[i]).sum::<u64>() as f64)
        .collect();
    if w.faulted() {
        b.insert("msim.route", rest);
        b.insert("msim.heal", get(Kind::Type1) + get(Kind::Flood));
    } else {
        b.insert("dht", rest);
        b.insert("type1", get(Kind::Type1));
        b.insert("flood", get(Kind::Flood));
    }
    b.insert("type2", get(Kind::Type2));
    b.insert("batch", get(Kind::Batch) - wave.iter().sum::<f64>());
    b.insert("wave.plan", wave[0]);
    b.insert("wave.partition", wave[1]);
    b.insert("wave.commit", wave[2]);
    b.insert("wave.serial", wave[3]);
    b.insert("exec.fanout", get(Kind::Phase));
    b.insert("driver", get(Kind::Shard));
    b.insert("trace.replay", get(Kind::ReplayBfs) + get(Kind::ReplayPhi));
    b
}

/// Per-layer metrics of a traced run `t`, with `u` the untraced run of
/// the same inputs (for the tracing overhead), plus the layer table.
/// Fails when the traced run does not reconcile.
pub fn per_layer(
    opts: &Options,
    t: &Outcome,
    u: &Outcome,
) -> Result<(Vec<Metric>, String), String> {
    let w = opts.workload;
    let spans = t.tracer.spans();
    let (ledger, worst) = trace::self_times(spans, t.root);
    let b = buckets(t, w, &ledger);
    let total: f64 = b.values().sum();
    let capacity = t.width as f64 * t.phase_ns as f64;
    let err_pct = 100.0 * (total - capacity).abs() / capacity;
    if err_pct > RECONCILE_TOL_PCT || worst < -NEST_SLACK_NS {
        return Err(format!(
            "traced run does not reconcile: Σ layers {:.3} ms vs lanes × wall {:.3} ms \
             ({err_pct:.3}% > {RECONCILE_TOL_PCT}%), worst self time {worst} ns",
            total / 1e6,
            capacity / 1e6
        ));
    }
    let busy: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == Kind::Shard && s.parent == t.root)
        .map(|s| s.dur() as f64)
        .collect();
    let p = &t.phase;
    let ps = |f: fn(&Record) -> u64| sum(p, f) as f64;
    let alls = |f: fn(&Record) -> u64| all(t).map(f).sum::<u64>() as f64;
    let engine_ops = ps(|r| r.waved_ops + r.serial_ops);
    let join: Vec<&[u64]> = p.iter().map(|r| r.join_ns.as_slice()).collect();
    let leave: Vec<&[u64]> = p.iter().map(|r| r.leave_ns.as_slice()).collect();
    let fs = &t.faults;
    let (attempted, _) = attempted_failed(t);
    let mut out = vec![
        m(
            "bootstrap.ms_per_shard",
            "ms",
            t.bootstrap_ns.iter().sum::<u64>() as f64 / t.bootstrap_ns.len() as f64 / 1e6,
        ),
        m(
            "exec.shard_busy_ms_max",
            "ms",
            busy.iter().cloned().fold(0.0, f64::max) / 1e6,
        ),
        m(
            "exec.shard_busy_ms_mean",
            "ms",
            ratio(busy.iter().sum(), busy.len() as f64) / 1e6,
        ),
        m(
            "exec.fanout_efficiency",
            "ratio",
            ratio(busy.iter().sum(), t.width as f64 * t.phase_ns as f64),
        ),
        m("dht.calls", "count", ps(|r| r.dht_calls)),
        m(
            "dht.call_us_p50",
            "us",
            pct_us(all(t).flat_map(|r| r.dht_ns.iter().copied()), 0.5),
        ),
        m(
            "dht.hops_mean",
            "hops",
            ratio(alls(|r| r.replay_hops), alls(|r| r.replays)),
        ),
        m("dht.migrations", "count", ps(|r| r.migrations)),
        m("dht.migrated_items", "count", ps(|r| r.migrated_items)),
        m(
            "route.bfs_us_p50",
            "us",
            pct_us(all(t).flat_map(|r| r.bfs_ns.iter().copied()), 0.5),
        ),
        m(
            "route.path_len_mean",
            "vertices",
            ratio(alls(|r| r.path_vertices), alls(|r| r.replays)),
        ),
        m(
            "route.bfs_share",
            "ratio",
            ratio(
                all(t).flat_map(|r| &r.bfs_ns).sum::<u64>() as f64,
                alls(|r| r.replayed_call_ns),
            ),
        ),
        m(
            "phi.resolve_us_p50",
            "us",
            pct_us(all(t).flat_map(|r| r.phi_ns.iter().copied()), 0.5),
        ),
        m("heal.join_p50_us", "us", windowed_us(&join, 0.50)),
        m("heal.join_p99_us", "us", windowed_us(&join, 0.99)),
        m("heal.leave_p50_us", "us", windowed_us(&leave, 0.50)),
        m("heal.leave_p99_us", "us", windowed_us(&leave, 0.99)),
        m("type1.calls", "count", ps(|r| r.type1_calls)),
        m(
            "type1.insert_us_p50",
            "us",
            pct_us(
                p.iter().flat_map(|r| r.type1_insert_ns.iter().copied()),
                0.5,
            ),
        ),
        m(
            "type1.delete_us_p50",
            "us",
            pct_us(
                p.iter().flat_map(|r| r.type1_delete_ns.iter().copied()),
                0.5,
            ),
        ),
        m(
            "walk.attempts_per_op",
            "count",
            ratio(ps(|r| r.walk_attempts), ps(|r| r.churned)),
        ),
        m(
            "walk.hit_ratio",
            "ratio",
            ratio(ps(|r| r.walk_hits), ps(|r| r.walk_attempts)),
        ),
        m("flood.steps", "count", ps(|r| r.flood_steps)),
        m("batch.calls", "count", ps(|r| r.batch_calls)),
        m("wave.waves", "count", ps(|r| r.waves)),
        m("wave.mean_size", "ops", ratio(engine_ops, ps(|r| r.waves))),
        m(
            "wave.waved_share",
            "ratio",
            ratio(ps(|r| r.waved_ops), engine_ops),
        ),
        m(
            "wave.replans_per_op",
            "count",
            ratio(ps(|r| r.replans), engine_ops),
        ),
        m(
            "wave.crossover_batches",
            "count",
            ps(|r| r.crossover_batches),
        ),
        m("type2.steps", "count", ps(|r| r.type2_steps)),
        m(
            "type2.messages_mean",
            "messages",
            ratio(ps(|r| r.type2_messages), ps(|r| r.type2_steps)),
        ),
        m(
            "msim.sent_per_op",
            "messages",
            ratio(fs.sent as f64, attempted as f64),
        ),
        m(
            "msim.delivery_ratio",
            "ratio",
            ratio(fs.delivered as f64, fs.sent as f64),
        ),
        m("msim.timeouts", "count", fs.timeouts as f64),
        m("msim.reinitiations", "count", fs.reinitiations as f64),
        m("msim.routes_lost", "count", fs.routes_lost as f64),
        m("msim.walks_lost", "count", fs.walks_lost as f64),
        m("msim.heal_fallbacks", "count", fs.heal_fallbacks as f64),
        m("invariants.check_ms", "ms", t.check_ns as f64 / 1e6),
        m("spectral.solve_ms", "ms", t.solve_ns as f64 / 1e6),
        m("driver.residual_ms", "ms", b["driver"] / 1e6),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * (ratio(ops_per_s(u), ops_per_s(t)) - 1.0),
        ),
        m("trace.reconcile_err_pct", "%", err_pct),
    ];
    for name in BUCKETS {
        out.push(m(
            &format!("self_pct.{name}"),
            "%",
            100.0 * ratio(b[name], total),
        ));
    }
    Ok((out, table(w, &b, total, err_pct)))
}

fn table(w: Workload, b: &BTreeMap<&'static str, f64>, total: f64, err_pct: f64) -> String {
    let mut rows: Vec<(&str, f64)> = b.iter().map(|(&k, &v)| (k, v)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut s = format!(
        "layer self-times, traced phase of {} (lanes × wall = {:.1} ms, reconciled within {err_pct:.3}%, tolerance {RECONCILE_TOL_PCT}%)\n",
        w.name(),
        total / 1e6
    );
    s.push_str(&format!(
        "{:<16} {:>12} {:>8}\n",
        "layer", "self_ms", "share"
    ));
    for (name, ns) in rows.iter().filter(|r| r.1.abs() >= 1e5) {
        s.push_str(&format!(
            "{name:<16} {:>12.1} {:>7.1}%\n",
            ns / 1e6,
            100.0 * ns / total
        ));
    }
    let dominant = rows[0].0;
    let predicted = w.predicted();
    s.push_str(&format!(
        "dominant layer: {dominant}; predicted: {}; {}\n",
        predicted.join("|"),
        if predicted.contains(&dominant) {
            "agrees"
        } else {
            "DISAGREES"
        }
    ));
    s
}

/// One-line JSON of a result: the last line a run prints.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite f64 as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process in MB (`getrusage` high-water mark).
pub fn peak_rss_mb() -> f64 {
    // struct rusage on Linux: two timevals, then 14 longs, the first of
    // which is ru_maxrss in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut ru = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a writable struct with the size and layout of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only into that struct.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc == 0 {
        ru.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
