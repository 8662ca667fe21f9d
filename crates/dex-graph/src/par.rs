//! Memory-level parallelism helpers: a portable software-prefetch hint,
//! plus two constant reporters the repository benchmark prints.
//!
//! Thread-level parallelism lives in [`dex_exec`]; callers use its chunk
//! primitives directly.

/// Hint the CPU to pull the cache line at `p` toward L1 (x86_64
/// `prefetcht0`, aarch64 `prfm pldl1keep`; a no-op elsewhere). Safe for
/// any address — prefetches never fault.
///
/// This is the *memory-level* parallelism sibling of the thread helpers in
/// this module: batch engines that interleave many independent pointer
/// chases (walk hops, owner resolutions, commit targets) overlap their
/// cache misses by prefetching the next item's lines while working on the
/// current one — a large win even on a single core for workloads that are
/// DRAM-latency-bound on scattered reads, which heal-time graph and Φ
/// access is.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints never fault, for any address including null
    // and unmapped — the CPU drops invalid prefetches silently.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(target_arch = "aarch64")]
    // No stable prefetch intrinsic on aarch64; PLD-keep-to-L1 via inline
    // asm. `nostack`/`preserves_flags` keep it as cheap as the intrinsic.
    // SAFETY: PRFM is a hint and never faults, for any address; the asm
    // reads no memory and clobbers nothing (readonly/nostack).
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        )
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Are the memory-level-parallel kernels (K-way interleaved walks, blocked
/// SpMV) the runtime path? Always: the scalar kernels remain only as
/// test oracles. Kept as a reporter for benchmark config headers.
pub const fn mlp_enabled() -> bool {
    true
}

/// Pipeline depth of the interleaved walk engine,
/// [`crate::walks::WALK_PIPELINE_K`]. Kept as a reporter for benchmark
/// config headers.
pub const fn walk_pipeline_k() -> usize {
    crate::walks::WALK_PIPELINE_K
}

#[cfg(test)]
mod tests {
    use super::*;
    // Spectral (here) and permutation routing (dex-core) call these
    // `dex_exec` chunk primitives directly; the tests below pin the chunk
    // contract they rely on.
    use dex_exec::{for_chunks_mut, for_chunks_state_mut, reduce_chunks, CHUNK};

    #[test]
    fn prefetch_compiles_and_tolerates_any_address() {
        // The cfg branches (x86_64 intrinsic / aarch64 asm / portable
        // no-op) must all build and accept arbitrary addresses without
        // faulting: live data, one-past-the-end, null, and unmapped.
        let data = [0u64; 4];
        prefetch_read(data.as_ptr());
        // SAFETY: one-past-the-end pointers are valid to *form* for any
        // allocation; only dereferencing would be UB, and prefetch never
        // dereferences.
        prefetch_read(unsafe { data.as_ptr().add(4) });
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(0xdead_beef_0000usize as *const u8);
    }

    #[test]
    fn mlp_knobs_are_cached_and_in_range() {
        // The reporters are constants: the MLP kernels are the runtime
        // path and K is the engine's fixed depth.
        assert!(mlp_enabled());
        assert_eq!(walk_pipeline_k(), crate::walks::WALK_PIPELINE_K);
        assert!(walk_pipeline_k() >= 1);
    }

    #[test]
    fn chunked_writes_cover_everything_once() {
        for n in [0usize, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            for threads in [1, 2, 5] {
                let mut data = vec![0u32; n];
                for_chunks_mut(&mut data, threads, |start, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v += (start + i) as u32;
                    }
                });
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i as u32),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        let n = 3 * CHUNK + 911;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let expect = reduce_chunks(n, 1, |lo, hi| x[lo..hi].iter().sum());
        for threads in [2, 3, 8] {
            let got = reduce_chunks(n, threads, |lo, hi| x[lo..hi].iter().sum());
            assert_eq!(got.to_bits(), expect.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn multi_worker_reduction_covers_every_chunk() {
        // n_chunks (4) is far below CHUNK, so this exercises the direct
        // worker split — the path a naive re-chunk of the partials array
        // would leave sequential.
        let n = 4 * CHUNK;
        let sum = reduce_chunks(n, 4, |lo, hi| (hi - lo) as f64);
        assert_eq!(sum, n as f64);
    }

    #[test]
    fn empty_reduction() {
        assert_eq!(reduce_chunks(0, 4, |_, _| unreachable!()), 0.0);
    }

    #[test]
    fn sized_chunks_with_worker_state_cover_everything_once() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            for threads in [1, 3, 8] {
                let mut data = vec![0u32; n];
                for_chunks_state_mut(
                    &mut data,
                    threads,
                    8,
                    Vec::<u32>::new,
                    |start, chunk, scratch| {
                        // The state is scratch: its contents carry over
                        // between one worker's chunks but never leak into
                        // results.
                        scratch.push(start as u32);
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v += (start + i) as u32 + 1;
                        }
                    },
                );
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                    "n={n} threads={threads}"
                );
            }
        }
    }
}
