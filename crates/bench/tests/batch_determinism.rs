//! `bench_batch --smoke` must be byte-identical across planner thread
//! counts: the wave engine's results are bit-identical for any `threads`
//! value and nothing in the smoke JSON depends on timing or allocation,
//! so `--exec-threads 1`, `3`, and `8` must produce the same file to the byte
//! (CI also diffs the actual binary outputs).

use dex_bench::batch::{run_batch_bench, BatchBenchOptions};

fn smoke_json(threads: usize) -> String {
    run_batch_bench(&BatchBenchOptions {
        smoke: true,
        type2: false,
        threads,
        seed: 0xba7c_4d37,
        alloc_bytes: None,
    })
}

fn type2_json(threads: usize) -> String {
    run_batch_bench(&BatchBenchOptions {
        smoke: false,
        type2: true,
        threads,
        seed: 0xba7c_4d37,
        alloc_bytes: None,
    })
}

#[test]
fn smoke_output_is_byte_identical_across_thread_counts() {
    let one = smoke_json(1);
    assert!(one.contains("\"parity\": true"), "parity check missing");
    assert!(one.contains("\"waved\""), "waved section missing");
    assert!(one.contains("\"wave_hist_log2\""), "wave histogram missing");
    assert!(
        !one.contains("ops_per_sec") && !one.contains("bytes_per_op"),
        "smoke output must not contain timing/alloc fields"
    );
    for threads in [3, 8] {
        let other = smoke_json(threads);
        assert_eq!(
            one, other,
            "bench_batch --smoke output differs between --exec-threads 1 and --exec-threads {threads}"
        );
    }
}

#[test]
fn type2_smoke_output_is_byte_identical_across_thread_counts() {
    let one = type2_json(1);
    assert!(
        one.contains("\"schedule\": \"type2\""),
        "type-2 schedule marker missing"
    );
    assert!(one.contains("\"parity\": true"), "parity check missing");
    assert!(
        !one.contains("\"type2_steps\": 0"),
        "type-2 schedule must actually trigger inflate/deflate"
    );
    for threads in [3, 8] {
        let other = type2_json(threads);
        assert_eq!(
            one, other,
            "bench_batch --type2 output differs between --exec-threads 1 and --exec-threads {threads}"
        );
    }
}
