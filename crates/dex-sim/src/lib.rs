//! Synchronous round-based CONGEST message-passing simulator substrate.
//!
//! The DEX paper's costs are *model* quantities — rounds of synchronous
//! communication, O(log n)-bit messages, and topology changes — not
//! wall-clock seconds. This crate realizes exactly that model:
//!
//! * [`network::Network`] owns the physical topology and meters every cost:
//!   healing edge changes are charged as topology changes, every message
//!   hop is charged, and rounds accumulate per recovery step;
//! * [`tokens`] implements per-hop token forwarding (random-walk searches
//!   and path routing) including store-and-forward **congestion** with a
//!   per-edge-per-round capacity — the CONGEST constraint that makes the
//!   paper give Phase-2 walks `ρ = O(log² n)` rounds;
//! * [`flood`] implements BFS broadcast + convergecast aggregation
//!   (the paper's `computeSpare` / `computeLow`, Algorithm 4.4);
//! * [`rng`] derives deterministic per-purpose RNG streams so whole runs
//!   replay bit-identically from one master seed (the adaptive adversary is
//!   entitled to all past random choices — determinism makes that honest);
//! * [`msim`] is the message-level simulator: per-message delivery with
//!   loss, latency and partition fault models.
//!
//! Locality discipline: protocol code in `dex-core` reads only per-node
//! state and the physical adjacency; this crate's helpers take closures so
//! that *what a node can see* is explicit at every call site.

pub mod flood;
pub mod metrics;
pub mod msim;
pub mod network;
pub mod rng;
pub mod tokens;

pub use metrics::{
    HasStepLog, RecoveryKind, StepAggregate, StepKind, StepLog, StepMetrics, Summary,
};
pub use msim::{FaultSpec, FaultStats, OpResult, OpStatus, RouteOp, RunReport, WalkOp};
pub use network::{HistoryMode, Network, StepTotals};

/// The fork-join contract the simulator's drivers rely on from
/// [`dex_exec`]: output order equals input order for any thread count and
/// chunking, and the default thread budget stays in range.
#[cfg(test)]
mod parallel {
    mod tests {
        use dex_exec::{par_map, thread_budget};

        #[test]
        fn matches_sequential_map() {
            let items: Vec<u64> = (0..1000).collect();
            let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
            for threads in [1, 2, 3, 8, 64] {
                let par = par_map(&items, threads, |x| x * x);
                assert_eq!(par, seq, "threads={threads}");
            }
        }

        #[test]
        fn empty_and_singleton() {
            let empty: Vec<u32> = vec![];
            assert!(par_map(&empty, 8, |x| *x).is_empty());
            assert_eq!(par_map(&[5u32], 8, |x| x + 1), vec![6]);
        }

        #[test]
        fn preserves_order_with_uneven_chunks() {
            let items: Vec<usize> = (0..17).collect();
            let out = par_map(&items, 4, |x| *x);
            assert_eq!(out, items);
        }

        #[test]
        fn default_threads_sane() {
            let t = thread_budget();
            assert!((1..=16).contains(&t));
        }
    }
}
