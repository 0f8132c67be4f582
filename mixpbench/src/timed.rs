//! Timed runs: tracing off, end-to-end metrics only.

use crate::alloc;
use crate::calib::Calibration;
use crate::expected::Expected;
use crate::metrics::Report;
use crate::stats::median;
use crate::workloads::Workload;
use mixp_harness::{benchmark_by_name, run_campaign, CampaignOptions, Job, JobOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Calibration bursts before the first pass.
pub const CALIB_FIRST: usize = 3;
/// Calibration bursts a run makes after its passes, about evenly spread.
pub const CALIB_AFTER: usize = 12;

/// Set-up is repeated at least this often before the first pass, and for
/// at least [`SETUP_MIN_S`].
pub const SETUP_REPS: usize = 15;
/// Least total time spent repeating set-up before the first pass.
pub const SETUP_MIN_S: f64 = 0.5;
/// Time spent repeating set-up after each pass (at least one repetition),
/// so that `setup_s` samples the whole run, as `wall_s` does, and not
/// only the host's state in its first half second.
pub const SETUP_BETWEEN_S: f64 = 0.05;

/// Runs `f` until it ran `reps` times and for `min_s` seconds, appending
/// the seconds of each repetition to `times`.
pub fn repeat_setup(times: &mut Vec<f64>, reps: usize, min_s: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    for rep in 0.. {
        if rep >= reps && start.elapsed().as_secs_f64() >= min_s {
            return;
        }
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
}

/// What one run (timed or traced) measured and checked.
pub struct RunResult {
    /// Measured metrics.
    pub report: Report,
    /// Operations attempted (cells and serve-probe campaigns).
    pub attempted: u64,
    /// Operations that failed or mismatched the expected file.
    pub failed: u64,
}

/// Campaign options with every knob that shapes results pinned.
pub fn pinned_options(workload: Workload) -> CampaignOptions {
    CampaignOptions {
        workers: workload.workers(),
        eval_workers: workload.eval_workers(),
        shared_cache: true,
        ..CampaignOptions::default()
    }
}

/// Builds the benchmark of every cell, as each job does before it
/// searches: input synthesis, program model and clusters.
pub fn build_benchmarks(jobs: &[Job]) {
    for job in jobs {
        let bench =
            benchmark_by_name(&job.benchmark, job.scale).expect("registry covers the workload");
        std::hint::black_box(bench.program().total_clusters());
    }
}

/// Counts outcomes that match the expected file.
pub fn matching(outcomes: &[JobOutcome], expected: &Expected) -> usize {
    outcomes
        .iter()
        .filter(|o| o.result().is_some_and(|r| expected.matches(&o.job, r)))
        .count()
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn seconds_list(samples: &[f64]) -> String {
    let texts: Vec<String> = samples.iter().map(|s| format!("{s:.5}")).collect();
    texts.join(" ")
}

/// A timed run: fresh campaign passes over the workload's cells, each
/// pass in its own seeded order and timed segment by segment
/// ([`Workload::pass_segments`]).
///
/// `wall_s` is the sum over segments of each segment's fastest pass, and
/// `setup_s` the fastest set-up repetition, both divided by the run's
/// host factor ([`Calibration::host_factor`]). A segment or a set-up does
/// the same work every time, and the host only ever slows it down (a
/// co-tenant on the physical core, in states lasting seconds), so the
/// fastest sample is the steadiest estimate of what the program costs; a
/// median of a few multi-second samples follows the host's state instead.
/// The host factor takes out what is left: the host's slower states that
/// last the whole run.
pub fn campaign_run(workload: Workload, seed: u64, seconds: f64, expected: &Expected) -> RunResult {
    let cells = workload.pass_cells(seed, 0);
    let mut setup = Vec::new();
    repeat_setup(&mut setup, SETUP_REPS, SETUP_MIN_S, || {
        build_benchmarks(&cells)
    });
    let mut calib = Calibration::default();
    for _ in 0..CALIB_FIRST {
        calib.burst();
    }
    let passes = workload.passes(seconds);
    let calib_every = passes.div_ceil(CALIB_AFTER);
    let opts = pinned_options(workload);
    let mut segments: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut pass_walls, mut peaks, mut evals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut ok) = (0u64, 0u64);
    for pass in 0..passes {
        alloc::reset_peak();
        let (mut pass_wall, mut pass_evals) = (0.0, 0usize);
        for segment in workload.pass_segments(seed, pass) {
            let t = Instant::now();
            let outcomes = run_campaign(&segment.jobs, &opts);
            let wall = t.elapsed().as_secs_f64();
            pass_wall += wall;
            segments.entry(segment.label).or_default().push(wall);
            attempted += outcomes.len() as u64;
            ok += matching(&outcomes, expected) as u64;
            pass_evals += outcomes
                .iter()
                .filter_map(JobOutcome::result)
                .map(|r| r.result.evaluated)
                .sum::<usize>();
        }
        pass_walls.push(pass_wall);
        peaks.push(alloc::peak_mb());
        evals.push(pass_evals as f64);
        repeat_setup(&mut setup, 1, SETUP_BETWEEN_S, || build_benchmarks(&cells));
        if (pass + 1) % calib_every == 0 {
            calib.burst();
        }
    }
    let raw_wall: f64 = segments.values().map(|walls| fastest(walls)).sum();
    let factor = calib.host_factor();
    let wall = raw_wall / factor;
    println!(
        "# {} passes of {} cells in {} segments; wall_s sums each segment's fastest pass (median pass {:.4} s); setup_s is the fastest of {} repetitions (median {:.5} s)",
        pass_walls.len(),
        cells.len(),
        segments.len(),
        median(&pass_walls),
        setup.len(),
        median(&setup)
    );
    println!(
        "# host factor {factor:.4} from {} calibration bursts (fastest {}); measured wall_s {raw_wall:.4} s, setup_s {:.5} s",
        calib.bursts(),
        seconds_list(&calib.fastest()),
        fastest(&setup)
    );
    for (label, walls) in &segments {
        println!("# segment {label}: {}", seconds_list(walls));
    }
    let mut report = Report::default();
    report.set("setup_s", fastest(&setup) / factor);
    report.set("wall_s", wall);
    report.set("cells_per_s", cells.len() as f64 / wall);
    report.set("evals_per_s", median(&evals) / wall);
    report.set("peak_heap_mb", median(&peaks));
    report.set("ok_frac", ok as f64 / attempted as f64);
    RunResult {
        report,
        attempted,
        failed: attempted - ok,
    }
}
