//! Determinism witness at toy scale: every deterministic metric and the
//! digest of the op results are identical at 1 and 2 executor threads,
//! traced or untraced, and across repeated runs of the same seed.

use dexbench::workloads::Workload;
use dexbench::{execute, report, Options};

/// End-to-end metrics that are pure functions of the seed.
const DETERMINISTIC: [&str; 5] = [
    "rounds_per_op",
    "messages_per_op",
    "topology_changes_per_op",
    "success_frac",
    "spectral_gap_end",
];

fn deterministic_metrics(o: &dexbench::Outcome) -> Vec<(String, u64)> {
    report::end_to_end(o)
        .into_iter()
        .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn results_are_identical_across_threads_tracing_and_runs() {
    for w in Workload::ALL {
        let opts = |threads| Options {
            workload: w,
            seed: 7,
            seconds: 1,
            trace: false,
            threads,
            toy: true,
        };
        let base = execute(&opts(1), false, 1, true);
        report::gates(&base).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        for (threads, traced) in [(2, false), (2, true), (1, false)] {
            let o = execute(&opts(threads), traced, 1, true);
            let label = format!("{} threads={threads} traced={traced}", w.name());
            report::gates(&o).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report::witness(&o), report::witness(&base), "{label}");
            assert_eq!(
                deterministic_metrics(&o),
                deterministic_metrics(&base),
                "{label}"
            );
            if traced {
                report::per_layer(&opts(threads), &o, &base)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}

#[test]
fn every_workload_exercises_its_layers_at_toy_scale() {
    let run = |w| {
        let opts = Options {
            workload: w,
            seed: 3,
            seconds: 1,
            trace: false,
            threads: 1,
            toy: true,
        };
        let o = execute(&opts, false, 1, true);
        report::gates(&o).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        report::witness(&o)
            .into_iter()
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert!(run(Workload::ChurnBatch)["waves"] > 0);
    let grow = run(Workload::GrowShrink);
    assert!(grow["type2_steps"] >= 2 && grow["migrations"] > 0);
    let faulted = run(Workload::FaultedServe);
    assert!(faulted["failed"] > 0 && faulted["msim_sent"] > 0);
}
