//! The ssim benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-repro --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Every metric is printed by name with
//! its unit (and the sample count behind it); the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed check exits non-zero. See
//! `perfbench/README.md` for what each workload and metric is for.

mod common;
mod dse;
mod paper;
mod served;
mod trace;

use common::{Args, Report, RunDir};
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports all.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim.p50_ms", "ms"),
    ("sim.p90_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not run
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("profile.s", "s"),
    ("profile.minstr_per_s", "Minstr/s"),
    ("eds.skip_s", "s"),
    ("eds.run_s", "s"),
    ("eds.minstr_per_s", "Minstr/s"),
    ("compile.s", "s"),
    ("compile.count", "count"),
    ("generate.s", "s"),
    ("walk_restarts_per_kstep", "1/kstep"),
    ("sim.s", "s"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("sim.wrong_path_per_committed", "ratio"),
    ("par.busy_frac", "ratio"),
    ("plan.s", "s"),
    ("plan.sims", "count"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.result_cache.hit_ratio", "ratio"),
    ("gateway.hop_ms_p50", "ms"),
    ("journal.fsync_ms_p50", "ms"),
    ("read.p50_ms", "ms"),
    ("job.p50_ms", "ms"),
    ("sweep.p50_ms", "ms"),
    ("gen.lateness_p99_ms", "ms"),
    ("gen.rate_ratio", "ratio"),
    ("ipc_err_pct", "%"),
    ("pareto_gap_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["paper-repro", "dse-sweep", "served-mix"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--setup-only" => args.setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Isolation: a private, empty profile cache and journal directory
    // per run, a fixed pool size, and no inherited metrics, fault or
    // cache knobs. Set before any thread exists.
    let dir = match RunDir::create(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", dir.profile_cache());
    std::env::set_var("SSIM_THREADS", "2");
    for knob in ["SSIM_NO_PROFILE_CACHE", "SSIM_METRICS", "SSIM_FAULT_PLAN"] {
        std::env::remove_var(knob);
    }
    let load_start = common::loadavg();

    let tracer = trace::Tracer::new(args.trace);
    let mut rep = Report::default();
    if args.setup_only {
        match args.workload.as_str() {
            "dse-sweep" => dse::setup_only(&dir),
            "served-mix" => served::setup_only(&dir, &mut rep),
            _ => rep.check(false, || {
                "--setup-only runs on dse-sweep and served-mix".into()
            }),
        }
        return if rep.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match args.workload.as_str() {
        "paper-repro" => paper::run(&args, &dir, &tracer, &mut rep),
        "dse-sweep" => dse::run(&args, &dir, &tracer, &mut rep),
        _ => served::run(&args, &dir, &tracer, &mut rep),
    }
    rep.set("peak_rss_mb", common::peak_rss_mb(), 1);

    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"ssim_threads\": {}, \"loadavg_start\": \"{load_start}\", \
         \"loadavg_end\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ssim_par::available_parallelism(),
        ssim_par::num_threads(),
        common::loadavg(),
        common::git_commit(),
    );
    println!("host {header}");
    for l in &rep.lines {
        println!("{l}");
    }
    for (table, kind) in [(END_TO_END, "end-to-end"), (PER_LAYER, "per-layer")] {
        for (name, unit) in table {
            if let Some((v, n)) = rep.values.get(name) {
                println!("{kind:<10} {name:<30} {v:>14.6} {unit:<9} n={n}");
            }
        }
    }
    if args.trace {
        let path = std::path::Path::new(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path, &header) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => rep.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let (table, fill) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match rep.values.get(name) {
            Some((v, _)) => *v,
            // A layer this workload does not run spent no time in it.
            None if fill => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        rep.check(value.is_finite(), || format!("metric {name} is {value}"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    let correct = rep.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    drop(dir);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
