//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <des-fleet|des-sweep|live-offload> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --workload <des-fleet|des-sweep> --seed <n> --digest
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with
//! telemetry off; a traced run (`--trace 1`) switches telemetry on
//! through config, times each layer's public functions on the
//! workload's inputs and reports the per-layer metrics. Both check the
//! program's outputs and print, as the last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. A failed
//! output check exits with code 1. `--digest` prints operation 0's
//! result digest, for recording goldens. See `README.md`.

mod checks;
mod fleet;
mod goldens;
mod layers;
mod live;
mod observe;
mod report;
mod stats;
mod sweep;
mod sys;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub digest: bool,
}

const WORKLOADS: &[&str] = &["des-fleet", "des-sweep", "live-offload"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            args.digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", args.seconds));
    }
    Ok(args)
}

/// SplitMix64 of `seed` and `index`: the seed of the `index`-th input a
/// run generates. Distinct indices give unrelated streams.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.digest {
        let d = match args.workload.as_str() {
            "des-fleet" => fleet::digest(args.seed),
            "des-sweep" => sweep::digest(args.seed),
            _ => {
                eprintln!("perfbench: --digest applies to the DES workloads only");
                return ExitCode::from(2);
            }
        };
        println!("({}, {d:#018x}),", args.seed);
        return ExitCode::SUCCESS;
    }

    let cores = sys::host_cores();
    let comparable = cores >= 2;
    println!(
        "# host {{\"host_cores\": {cores}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"comparable\": {comparable}}}",
        sys::cpu_model(),
        sys::rustc_version()
    );
    if !comparable {
        let warning = "# warning: fewer than 2 cores; the workloads assume 2 busy threads, \
                       so this result is not comparable with results from 2-core hosts";
        println!("{warning}");
        eprintln!("{warning}");
    }

    let mut report = Report::default();
    let started = std::time::Instant::now();
    match (args.workload.as_str(), args.trace) {
        ("des-fleet", false) => fleet::untraced(&args, &mut report),
        ("des-fleet", true) => fleet::traced_run(&args, &mut report),
        ("des-sweep", false) => sweep::untraced(&args, &mut report),
        ("des-sweep", true) => sweep::traced_run(&args, &mut report),
        ("live-offload", false) => live::untraced(&args, &mut report),
        _ => live::traced_run(&args, &mut report),
    }
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed {} {}: {} operations attempted, {} failed, {:.1} s",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    print!("{}", report.table(set));
    let line = report.result_line(set).unwrap_or_else(|e| {
        // A metric left unmeasured is a defect of the benchmark itself.
        report.errors.push(e);
        format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            report.attempted.max(1),
            report.failed
        )
    });
    for e in &report.errors {
        println!("# check failed: {e}");
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
