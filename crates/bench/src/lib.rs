//! Shared harness for the experiment binaries (`src/bin/*`) and criterion
//! benches: comparable churn schedules, overlay drivers, and plain-text
//! table formatting.
//!
//! Every table and figure of the paper maps to one binary here: each
//! binary's doc header names the table, figure or experiment (E1–E8) it
//! reproduces, and the run prints the expected outcome next to the
//! measured one.

use dex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod alloc;
pub mod batch;
pub mod heal;
pub mod serve;

/// A churn schedule that can be applied identically to different overlays:
/// each entry is (insert?, index into the live node list) — indices rather
/// than ids so the same schedule drives any overlay.
#[derive(Clone)]
pub struct Schedule {
    ops: Vec<(bool, usize)>,
}

impl Schedule {
    /// Random schedule with the given insert probability. Indices are
    /// drawn large and reduced mod the live count at apply time.
    pub fn random(seed: u64, steps: usize, p_insert: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = (0..steps)
            .map(|_| (rng.random_bool(p_insert), rng.random_range(0..usize::MAX)))
            .collect();
        Schedule { ops }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply the schedule to an overlay; returns per-step metrics and the
    /// running maximum degree observed. Fresh node ids are allocated above
    /// the overlay's current maximum, so schedules compose with any prior
    /// growth.
    pub fn apply(&self, o: &mut dyn Overlay) -> (Vec<StepMetrics>, usize) {
        let mut next_id = o.node_ids().iter().map(|u| u.0).max().unwrap_or(0) + 1;
        let mut out = Vec::with_capacity(self.ops.len());
        let mut max_deg = 0;
        for &(insert, raw) in &self.ops {
            let live = o.node_ids();
            let idx = raw % live.len();
            let m = if insert || live.len() <= 8 {
                let id = NodeId(next_id);
                next_id += 1;
                o.insert(id, live[idx])
            } else {
                o.delete(live[idx])
            };
            out.push(m);
            max_deg = max_deg.max(o.max_degree());
        }
        (out, max_deg)
    }
}

/// Build the standard overlay lineup at size `n0` (all bootstrapped on
/// ids `0..n0`).
pub fn lineup(seed: u64, n0: u64) -> Vec<Box<dyn Overlay>> {
    vec![
        Box::new(DexNetwork::bootstrap(DexConfig::new(seed).staggered(), n0)),
        Box::new(DexNetwork::bootstrap(DexConfig::new(seed).simplified(), n0)),
        Box::new(LawSiu::bootstrap(seed + 1, n0, 3)),
        Box::new(SkipLite::bootstrap(seed + 2, n0)),
        Box::new(Flooding::bootstrap(seed + 3, n0, 4)),
        Box::new(NaivePatch::bootstrap(seed + 4, n0)),
    ]
}

/// Executor-environment header fragment for every `BENCH_*.json` emitter:
/// the machine's `available_parallelism`, the executor's effective thread
/// budget, and the pool mode, so a reader can tell which machine and
/// thread budget produced the numbers. Deliberately independent of any
/// `--exec-threads` flag so smoke outputs stay byte-identical across
/// thread sweeps on one machine.
pub fn exec_header_json() -> String {
    format!(
        "\"exec\": {{\"available_parallelism\": {}, \"thread_budget\": {}, \"pool_mode\": \"{}\"}}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        dex::exec::thread_budget(),
        dex::exec::pool_mode()
    )
}

/// Render a plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Compact "p50/p95/max" rendering of a summary.
pub fn sss(s: &Summary) -> String {
    format!("{}/{}/{}", s.p50, s.p95, s.max)
}

/// ⌈log₂ n⌉.
pub fn log2(n: usize) -> u64 {
    (64 - (n.max(2) as u64).leading_zeros() as u64).max(1)
}

/// Grow a DEX network to roughly `target` nodes by pure insertion.
pub fn grow_to(net: &mut DexNetwork, target: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    while net.n() < target {
        let live = net.node_ids();
        let attach = live[rng.random_range(0..live.len())];
        let id = net.fresh_node_id();
        net.insert(id, attach);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_overlay_agnostic_and_deterministic() {
        let sched = Schedule::random(1, 60, 0.5);
        let mut a = DexNetwork::bootstrap(DexConfig::new(2).simplified(), 16);
        let mut b = DexNetwork::bootstrap(DexConfig::new(2).simplified(), 16);
        let (ma, _) = sched.apply(&mut a);
        let (mb, _) = sched.apply(&mut b);
        let ra: Vec<u64> = ma.iter().map(|m| m.rounds).collect();
        let rb: Vec<u64> = mb.iter().map(|m| m.rounds).collect();
        assert_eq!(ra, rb);
        // And it drives baselines too.
        let mut ls = LawSiu::bootstrap(3, 16, 2);
        let (ml, _) = sched.apply(&mut ls);
        assert_eq!(ml.len(), 60);
    }

    #[test]
    fn lineup_contains_all_six() {
        let l = lineup(5, 16);
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn grow_to_reaches_target() {
        let mut net = DexNetwork::bootstrap(DexConfig::new(6).simplified(), 8);
        grow_to(&mut net, 64, 7);
        assert!(net.n() >= 64);
    }
}
