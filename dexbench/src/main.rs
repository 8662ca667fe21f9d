//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path dexbench/Cargo.toml -- \
//!     --workload dht_serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a config line, (traced runs) the layer table, and as the last
//! line one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits nonzero without a result when a correctness gate fails or a
//! `DEX_*` knob is set in the environment.

use dexbench::workloads::Workload;
use dexbench::{execute, report, Options};
use std::process::ExitCode;

/// Executor threads: `dht_serve`'s shard fan-out and the λ₂ solver.
const THREADS: usize = 2;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        threads: THREADS,
        toy: false,
    })
}

/// Refuse any declared `DEX_*` knob: each one changes a schedule or a
/// harness input, and the benchmark's numbers must come from its own
/// fixed settings.
fn check_knobs() -> Result<(), String> {
    let set: Vec<&str> = dex_exec::knobs::REGISTRY
        .iter()
        .filter(|k| dex_exec::knobs::raw(k).is_some())
        .map(|k| k.name)
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to report numbers: {} set in the environment",
            set.join(", ")
        ))
    }
}

fn config_json(opts: &Options) -> String {
    let sizes = opts.sizes();
    let knobs: Vec<String> = dex_exec::knobs::REGISTRY
        .iter()
        .map(|k| format!("\"{}\": \"unset\"", k.name))
        .collect();
    format!(
        "{{\"config\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"shards\": {}, \"n0_per_shard\": {}, \"phase_work\": {}, \"prefill_per_shard\": {}, \
         \"verify_gets_per_shard\": {}, \"threads\": {}, \"thread_budget\": {}, \
         \"available_parallelism\": {}, \"pool_mode\": \"{}\", \"mlp_kernels\": {}, \
         \"walk_pipeline_k\": {}, \"knobs\": {{{}}}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        sizes.shards,
        sizes.n0,
        sizes.ops,
        sizes.prefill,
        sizes.verify,
        opts.threads,
        dex_exec::thread_budget(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        dex_exec::pool_mode(),
        dex_graph::par::mlp_enabled(),
        dex_graph::par::walk_pipeline_k(),
        knobs.join(", ")
    )
}

fn run(opts: &Options) -> Result<String, String> {
    if !opts.trace {
        let o = execute(opts, false, SETUP_REPS, true);
        report::gates(&o)?;
        let (attempted, failed) = report::attempted_failed(&o);
        return Ok(report::result_json(
            attempted,
            failed,
            &report::end_to_end(&o),
        ));
    }
    // Traced: the same inputs untraced (for the tracing overhead; its end
    // state is checked through the traced pass, which must reproduce every
    // result), then traced from an identical set-up.
    let u = execute(opts, false, 1, false);
    report::gates(&u)?;
    let t = execute(opts, true, 1, true);
    report::gates(&t)?;
    if report::witness(&u) != report::witness(&t) {
        return Err("traced run changed a result".into());
    }
    let (metrics, table) = report::per_layer(opts, &t, &u)?;
    print!("{table}");
    write_spans(opts, &t.tracer)?;
    let (attempted, failed) = report::attempted_failed(&t);
    Ok(report::result_json(attempted, failed, &metrics))
}

/// Write the traced run's spans under `dexbench/traces/`.
fn write_spans(opts: &Options, tracer: &dexbench::trace::Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", opts.workload.name(), opts.seed));
    std::fs::write(&path, tracer.to_tsv()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dexbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_knobs() {
        eprintln!("dexbench: {e}");
        return ExitCode::from(2);
    }
    dex_exec::set_thread_budget(THREADS);
    println!("{}", config_json(&opts));
    match run(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dexbench: gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
