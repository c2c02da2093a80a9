//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <model_paper|serve_reuse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). The run log, including the per-layer table
//! with each metric's target, goes to standard error. Scratch files live
//! under `.perfbench/` and are removed at exit. See `perfbench/README.md`
//! for the metric map.

mod cpu;
mod loadgen;
mod model;
mod probes;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["model_paper", "serve_reuse"];
/// Seconds of a trace run's side section.
const SIDE_SECONDS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?),
            "--trace" => trace = Some(int()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let run_dir = work.join(format!("{}-{}", args.workload, std::process::id()));
    // A model section keeps every CPU from halting while it measures
    // (see `cpu`); the serving section pins itself to one CPU and keeps
    // only that one busy (see `serve`).
    let all_cpus: Vec<usize> = (0..nproc.max(1)).collect();
    let model_run = |seconds| {
        let _spinners = cpu::IdleSpinners::on(&all_cpus);
        model::run(args.seed, seconds, args.trace)
    };
    // A trace run reports every per-layer metric. Layers its own loop
    // does not reach come from a short side section of the other kind,
    // run before or after it so that the serving section's CPU pinning
    // never covers model runs.
    let mut outcome = if args.workload == "model_paper" {
        let mut own = model_run(args.seconds);
        if args.trace {
            own.absorb_side(serve::run(args.seed, SIDE_SECONDS, true, &run_dir));
        }
        own
    } else {
        let side = args.trace.then(|| model_run(SIDE_SECONDS));
        let mut own = serve::run(args.seed, args.seconds, args.trace, &run_dir);
        if let Some(side) = side {
            own.absorb_side(side);
        }
        own
    };
    let reported = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    for problem in report::catalogue_mismatches(args.trace, reported) {
        outcome.fail(problem);
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    // The end-to-end figures go to the log in both modes. A trace run
    // adds no work inside its timed loop (the probes and the side
    // section run outside it), so its figures set against an untraced
    // run's give the tracing overhead.
    for m in &outcome.e2e {
        eprintln!("{:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        eprint!("{}", report::layer_table(&args.workload, &outcome.layers));
    }
    println!("{}", outcome.result_json(args.trace));
    ExitCode::SUCCESS
}
