//! Single-network batch-heal benchmark: the parallel wave engine vs the
//! sequential path, at n ∈ {20k, 200k, 1M}. Emits `BENCH_batch.json`.
//! See `dex_bench::batch` for what is measured and the determinism
//! contract.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin bench_batch            # full, up to n≈1M
//! cargo run --release -p dex-bench --bin bench_batch -- --smoke # CI-sized
//! cargo run --release -p dex-bench --bin bench_batch -- --smoke --exec-threads 8
//! cargo run --release -p dex-bench --bin bench_batch -- --type2 --exec-threads 3
//! ```
//!
//! `--smoke` and `--type2` output is byte-identical for any
//! `--exec-threads` value — CI runs 1/3/8 and diffs the files. `--type2`
//! drives a type-2-heavy schedule (batch growth through an inflation,
//! then batch shrink through a deflation) so the pooled rebuild fan-out
//! is exercised and parity-checked.

use dex_bench::alloc::{allocated_bytes, CountingAlloc};
use dex_bench::batch::{run_batch_bench, BatchBenchOptions};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let mut opts = BatchBenchOptions {
        alloc_bytes: Some(allocated_bytes),
        ..BatchBenchOptions::default()
    };
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--type2" => opts.type2 = true,
            "--exec-threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exec-threads N");
            }
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--out" => {
                out = Some(it.next().expect("--out FILE"));
            }
            other => panic!(
                "unknown flag {other:?} (try --smoke / --type2 / --exec-threads / --seed / --out)"
            ),
        }
    }
    let out = out.unwrap_or_else(|| {
        if opts.type2 {
            "BENCH_batch_type2.json".into()
        } else {
            "BENCH_batch.json".into()
        }
    });
    let json = run_batch_bench(&opts);
    std::fs::write(&out, &json).expect("write batch bench JSON");
    println!("wrote {out}");
}
