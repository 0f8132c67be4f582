//! `mixpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. `mixpbench --capture-expected` rewrites
//! `expected.jsonl` from the current program, and `mixpbench
//! --write-benchmark-json` writes `BENCHMARK.json` from the catalogue.

use mixpbench::expected::{render_line, Expected, Outcome};
use mixpbench::meta::Meta;
use mixpbench::metrics::{benchmark_json, reported};
use mixpbench::timed::{campaign_run, pinned_options, RunResult};
use mixpbench::workloads::{all_cells, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: mixpbench::alloc::Counting = mixpbench::alloc::Counting;

/// Scratch space inside the checkout, removed when the run ends.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins the two environment knobs the program would otherwise read:
/// `MIXP_WORKERS` changes which configurations a search evaluates and
/// `MIXP_STEAL` the pool's steal policy. Called first in `main`, before any
/// thread exists, as changing the environment requires.
fn pin_environment() {
    std::env::remove_var("MIXP_WORKERS");
    std::env::set_var("MIXP_STEAL", "one");
}

fn capture_expected() -> Result<(), String> {
    let cells = all_cells();
    let opts = pinned_options(Workload::Table5Small);
    let outcomes = mixp_harness::run_campaign(&cells, &opts);
    let mut text = String::new();
    for o in &outcomes {
        let result = o
            .result()
            .ok_or_else(|| format!("cell {:?} failed: {:?}", o.job, o.outcome))?;
        text.push_str(&render_line(&o.job, &Outcome::of(&result.result)));
        text.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.jsonl");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} cells to {}", outcomes.len(), path.display());
    Ok(())
}

fn write_benchmark_json() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::write(&path, benchmark_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let expected = Expected::committed();
    let workload = args.workload;
    let RunResult {
        report,
        attempted,
        failed,
    } = if args.trace {
        mixpbench::traced::traced_run(workload, args.seed, dir, &expected)?
    } else {
        campaign_run(workload, args.seed, args.seconds, &expected)
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    // Only traced runs start a daemon (the serve probe).
    let meta = Meta::collect(workload, args.seed, Some(dir).filter(|_| args.trace));
    let defs = reported(args.trace);
    report.check_complete(defs)?;
    println!(
        "# workload {} seed {} trace {}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("# meta {}", meta.to_json());
    print!("{}", report.table());
    let correct = failed == 0 && attempted > 0;
    Ok(report.result_line(defs, correct, attempted, failed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    pin_environment();
    let tool: Option<fn() -> Result<(), String>> = match argv.first().map(String::as_str) {
        Some("--capture-expected") => Some(capture_expected),
        Some("--write-benchmark-json") => Some(write_benchmark_json),
        _ => None,
    };
    if let Some(tool) = tool {
        return match tool() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mixpbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mixpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(RUN_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(RUN_DIR);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mixpbench: {e}");
            ExitCode::FAILURE
        }
    }
}
