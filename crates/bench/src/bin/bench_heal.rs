//! Healing-throughput benchmark: the slot-arena Φ vs the legacy HashMap Φ
//! on the heal access pattern, plus end-to-end insert/delete/batch churn
//! on full DEX networks at n ∈ {20k, 200k, 1M}. Emits `BENCH_heal.json`.
//!
//! A counting global allocator measures **bytes allocated per healing
//! operation** in the single-threaded measurement pass — steady-state
//! type-1 healing is expected to allocate nothing (all hot-path buffers
//! are pooled in `HealScratch` / `FloodScratch`).
//!
//! Determinism: everything in the JSON except the timing fields is
//! bit-identical for a given `--seed` regardless of `--exec-threads`; `--smoke`
//! omits the timing fields so the whole file is byte-identical (the CI
//! smoke job and the `heal_determinism` test rely on this).
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_heal            # full, up to n≈1M
//! cargo run --release -p dex-bench --bin bench_heal -- --smoke # CI-sized
//! cargo run --release -p dex-bench --bin bench_heal -- --exec-threads 1
//! ```

use dex_bench::alloc::{allocated_bytes, CountingAlloc};
use dex_bench::heal::{run_heal_bench, HealBenchOptions};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let mut opts = HealBenchOptions {
        alloc_bytes: Some(allocated_bytes),
        ..HealBenchOptions::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--exec-threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exec-threads N");
            }
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--trials" => {
                opts.trials = it.next().and_then(|v| v.parse().ok()).expect("--trials R");
            }
            other => {
                panic!("unknown flag {other:?} (try --smoke / --exec-threads / --seed / --trials)")
            }
        }
    }
    let json = run_heal_bench(&opts);
    std::fs::write("BENCH_heal.json", &json).expect("write BENCH_heal.json");
    println!("wrote BENCH_heal.json");
}
