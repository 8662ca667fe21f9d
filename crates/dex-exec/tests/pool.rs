//! Pool-reuse contract tests: executor results must be bit-identical
//! across thread counts **and** across repeated invocations on the same
//! warm pool (per-worker scratch slots persist between waves purely as
//! capacity — never as state that leaks into results), and a warm pool
//! must perform zero thread spawns.

use dex_exec::{
    for_chunks_scratch_mut, for_chunks_state_mut, par_map, prewarm, reduce_chunks, run_workers,
    total_spawns, MAX_WORKERS,
};
use proptest::prelude::*;

/// A scratch type that deliberately accumulates garbage across chunks and
/// invocations: if any helper let scratch contents influence results, the
/// repeated-invocation sweep below would diverge.
#[derive(Default)]
struct Sticky {
    junk: Vec<u64>,
}

/// One deterministic "wave": mixes each element with its index, via
/// scratch that keeps growing (polluted by every previous wave on
/// whatever worker ran it).
fn wave(data: &mut [u64], threads: usize, chunk: usize, salt: u64) {
    for_chunks_scratch_mut::<u64, Sticky, _>(data, threads, chunk, |start, chunk, s| {
        s.junk.push(salt ^ start as u64);
        for (i, v) in chunk.iter_mut().enumerate() {
            let idx = (start + i) as u64;
            *v = v
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(idx ^ salt);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Bit-identical across threads 1/3/8 *and* across repeated
    // invocations on the same pool: every (threads, repetition) pair of
    // the same wave sequence must produce the same bytes even though the
    // workers' scratch slots carry junk from every earlier case.
    #[test]
    fn scratch_waves_are_thread_and_history_invariant(
        n in 0usize..2000,
        chunk in 1usize..96,
        salts in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let reference = {
            let mut data: Vec<u64> = (0..n as u64).collect();
            for &s in &salts {
                wave(&mut data, 1, chunk, s);
            }
            data
        };
        for threads in [1usize, 3, 8] {
            for repetition in 0..2 {
                let mut data: Vec<u64> = (0..n as u64).collect();
                for &s in &salts {
                    wave(&mut data, threads, chunk, s);
                }
                prop_assert_eq!(
                    &data, &reference,
                    "threads={} repetition={}", threads, repetition
                );
            }
        }
    }

    // The ordered-combine helpers share the contract, and so does the
    // caller-chunked pass with per-worker state.
    #[test]
    fn map_and_reduce_are_thread_invariant(
        items in proptest::collection::vec(any::<u64>(), 0..3000),
        chunk in 1usize..96,
    ) {
        let seq_map: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3) + 1).collect();
        let seq_red = reduce_chunks(items.len(), 1, |lo, hi| {
            items[lo..hi].iter().map(|&x| (x % 1024) as f64).sum()
        });
        for threads in [3usize, 8] {
            prop_assert_eq!(
                par_map(&items, threads, |&x| x.wrapping_mul(3) + 1),
                seq_map.clone()
            );
            let red = reduce_chunks(items.len(), threads, |lo, hi| {
                items[lo..hi].iter().map(|&x| (x % 1024) as f64).sum()
            });
            prop_assert_eq!(red.to_bits(), seq_red.to_bits());
        }
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(31) ^ i as u64)
            .collect();
        for threads in [1usize, 3, 8] {
            let mut data = items.clone();
            for_chunks_state_mut(&mut data, threads, chunk, Vec::<u64>::new, |start, part, seen| {
                // Per-worker state is scratch: it accumulates across the
                // worker's chunks but never feeds a result.
                seen.push(start as u64);
                for (i, v) in part.iter_mut().enumerate() {
                    *v = v.wrapping_mul(31) ^ (start + i) as u64;
                }
            });
            prop_assert_eq!(&data, &want, "threads={} chunk={}", threads, chunk);
        }
    }
}

/// The hot loop performs zero thread spawns after warm-up: once the pool
/// is saturated, any number of parallel sections reuse parked workers.
/// (Saturating via `prewarm(MAX_WORKERS)` makes the assertion immune to
/// concurrently running tests claiming workers — a full pool can never
/// spawn again.)
#[test]
fn warm_pool_spawns_no_threads() {
    prewarm(MAX_WORKERS);
    let spawned = total_spawns();
    assert_eq!(
        spawned,
        (MAX_WORKERS - 1) as u64,
        "prewarm must have materialized the whole pool"
    );
    let mut data: Vec<u64> = (0..10_000).collect();
    for round in 0..200u64 {
        run_workers(8, |_w| {});
        wave(&mut data, 8, 64, round);
        let _ = par_map(&data, 4, |x| x + 1);
    }
    assert_eq!(
        total_spawns(),
        spawned,
        "warm-pool parallel sections must not spawn threads"
    );
}
