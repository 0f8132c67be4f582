//! Traced runs: a separate replay of the workload with benchmark-owned
//! spans around the calls into each crate, plus layer probes on the
//! workload's own inputs. Never the timed run.

use crate::closed::Rig;
use crate::closed::Sample;
use crate::expected::{Expected, Outcome};
use crate::metrics::{Report, APPS};
use crate::spans::{self_seconds_by_name, SpanLog};
use crate::stats::{geomean, median, median_secs, percentile};
use crate::timed::{matching, pinned_options, RunResult};
use crate::workloads::{distinct_benchmarks, serve_campaigns, ServeCampaign, Workload};
use mixp_core::obs::sink::{parse_trace_line, Scalar};
use mixp_core::synth::SplitMix64;
use mixp_core::{
    compile_plan, run_config_planned, run_plan, Benchmark, CacheParams, CachedEval, ConfigKey,
    CostModel, EvalCache, EvaluatorBuilder, ExecCtx, Obs, PlanCache, Pool, Precision,
    PrecisionConfig, QualityThreshold, ReferenceCache, StealPolicy,
};
use mixp_harness::scheduler::run_cell;
use mixp_harness::{benchmark_by_name, run_campaign, CampaignOptions, Job, Scale, SharedEvalCache};
use mixp_search::algorithm_by_name;
use mixp_serve::protocol::{parse_request, submit_line};
use mixp_serve::{Admission, QueueJournal, ServeConfig, ServiceState, SubmitOptions};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Campaigns of the serve probe every traced run makes: enough for a p99
/// with ten samples beyond it.
pub const SERVE_PROBE_CAMPAIGNS: usize = 1000;

/// Pool workers of the serve probe's daemon.
pub const SERVE_PROBE_WORKERS: usize = 2;

/// An [`EvalCache`] that times every lookup and insert of the cache it
/// wraps.
struct TimedCache {
    inner: Arc<dyn EvalCache>,
    get_ns: Mutex<Vec<u64>>,
    put_ns: Mutex<Vec<u64>>,
}

impl EvalCache for TimedCache {
    fn get(&self, key: &ConfigKey) -> Option<CachedEval> {
        let t = Instant::now();
        let hit = self.inner.get(key);
        let ns = t.elapsed().as_nanos() as u64;
        self.get_ns.lock().expect("timing lock").push(ns);
        hit
    }

    fn put(&self, key: &ConfigKey, value: CachedEval) {
        let t = Instant::now();
        self.inner.put(key, value);
        let ns = t.elapsed().as_nanos() as u64;
        self.put_ns.lock().expect("timing lock").push(ns);
    }
}

/// Benchmark-owned caches shared by every replayed cell of one benchmark.
#[derive(Default)]
struct Caches {
    plans: HashMap<String, Arc<PlanCache>>,
    references: HashMap<String, Arc<ReferenceCache>>,
}

impl Caches {
    fn plans(&mut self, bench: &str) -> Arc<PlanCache> {
        Arc::clone(self.plans.entry(bench.to_string()).or_default())
    }

    fn reference(&mut self, bench: &str) -> Arc<ReferenceCache> {
        Arc::clone(self.references.entry(bench.to_string()).or_default())
    }
}

/// What replaying cells measured.
#[derive(Default)]
struct Replay {
    /// Wall seconds of each replayed cell.
    cell_s: Vec<f64>,
    /// Cold reference builds (first build per benchmark), ms.
    reference_ms: Vec<f64>,
    /// Durations of the evaluator's own `eval` spans, ms.
    eval_ms: Vec<f64>,
    /// Summed `evaluator.*` counters.
    counters: BTreeMap<String, u64>,
    evaluated: Vec<usize>,
    dnf: usize,
    mismatches: usize,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
}

/// Per-evaluation wall (ms) from an in-memory obs trace: each `eval`
/// span is one run; an `eval.batch` span that ran `n` configurations
/// sequentially contributes its wall split evenly over the `n` runs.
fn eval_span_ms(lines: &[String]) -> Vec<f64> {
    let mut open: HashMap<u64, f64> = HashMap::new();
    let mut out = Vec::new();
    for line in lines {
        let Some(fields) = parse_trace_line(line) else {
            continue;
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let num = |k: &str| match get(k) {
            Some(Scalar::Num(n)) => Some(*n),
            _ => None,
        };
        let batch = match get("name") {
            Some(Scalar::Str(name)) if name == "eval" => false,
            Some(Scalar::Str(name)) if name == "eval.batch" => true,
            _ => continue,
        };
        let (Some(id), Some(wall)) = (num("id"), num("wall_us")) else {
            continue;
        };
        match get("t") {
            Some(Scalar::Str(t)) if t == "span" => {
                open.insert(id as u64, wall);
            }
            Some(Scalar::Str(t)) if t == "end" => {
                let Some(start) = open.remove(&(id as u64)) else {
                    continue;
                };
                let runs = if batch {
                    num("ran").unwrap_or(0.0) as usize
                } else {
                    1
                };
                let each = (wall - start) / 1e3 / runs.max(1) as f64;
                out.extend(std::iter::repeat_n(each, runs));
            }
            _ => {}
        }
    }
    out
}

/// Replays `cells` through `EvaluatorBuilder` + `algorithm_by_name` with
/// benchmark-owned caches. With `log`, every cell gets spans and an
/// enabled obs handle; without, nothing is recorded (the tracing-overhead
/// baseline).
fn replay(
    cells: &[Job],
    cache: &Arc<SharedEvalCache>,
    caches: &mut Caches,
    expected: &Expected,
    mut log: Option<&mut SpanLog>,
    parent: Option<u64>,
    out: &mut Replay,
) {
    for (index, job) in cells.iter().enumerate() {
        let cell = Some(index);
        let traced = log.is_some();
        let obs = if traced {
            Obs::builder()
                .memory(true)
                .wall_clock(true)
                .build()
                .expect("in-memory obs")
        } else {
            Obs::noop()
        };
        let t = Instant::now();
        let root = log
            .as_deref_mut()
            .map(|l| l.open("harness.cell", parent, cell));
        let span = |log: &mut Option<&mut SpanLog>, name: &str| {
            log.as_deref_mut().map(|l| l.open(name, root, cell))
        };
        let close = |log: &mut Option<&mut SpanLog>, id: Option<u64>| {
            if let (Some(l), Some(id)) = (log.as_deref_mut(), id) {
                l.close(id);
            }
        };
        let s = span(&mut log, "typedeps.build");
        let bench = benchmark_by_name(&job.benchmark, job.scale).expect("registry covers the cell");
        close(&mut log, s);
        let algo = algorithm_by_name(&job.algorithm).expect("known algorithm");
        // Only traced replays time the shared cache's calls.
        let scoped: Arc<dyn EvalCache> = cache.scoped(&job.benchmark, job.scale);
        let timed_cache = traced.then(|| {
            Arc::new(TimedCache {
                inner: Arc::clone(&scoped),
                get_ns: Mutex::new(Vec::new()),
                put_ns: Mutex::new(Vec::new()),
            })
        });
        let shared = match &timed_cache {
            Some(timed) => Arc::clone(timed) as Arc<dyn EvalCache>,
            None => scoped,
        };
        let reference = caches.reference(&job.benchmark);
        let cold_reference = !reference.is_warm();
        let s = span(&mut log, "core.reference");
        let r0 = Instant::now();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(job.threshold))
            .budget(job.budget)
            .workers(1)
            .obs(obs.clone())
            .plan_cache(caches.plans(&job.benchmark))
            .reference_cache(reference)
            .shared_cache(shared)
            .build(bench.as_ref());
        if cold_reference {
            out.reference_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        }
        close(&mut log, s);
        let s = span(&mut log, "search.run");
        let result = algo.search(&mut ev);
        close(&mut log, s);
        close(&mut log, root);
        out.cell_s.push(t.elapsed().as_secs_f64());
        drop(ev);
        if expected.get(job) != Some(&Outcome::of(&result)) {
            out.mismatches += 1;
        }
        out.evaluated.push(result.evaluated);
        out.dnf += usize::from(result.dnf);
        if let Some(timed_cache) = timed_cache {
            out.eval_ms.extend(eval_span_ms(&obs.trace_lines()));
            if let Some(snapshot) = obs.metrics_snapshot() {
                for (name, n) in snapshot.counters {
                    *out.counters.entry(name).or_default() += n;
                }
            }
            out.get_ns
                .extend(timed_cache.get_ns.lock().expect("timing lock").iter());
            out.put_ns
                .extend(timed_cache.put_ns.lock().expect("timing lock").iter());
        }
    }
}

/// Replays a workload's cells as one campaign under a `harness.campaign`
/// span, with the shared evaluation cache `shared` (cold on the first
/// replay that uses it, warm on later ones).
fn replay_campaign(
    jobs: &[Job],
    caches: &mut Caches,
    expected: &Expected,
    mut log: Option<&mut SpanLog>,
    shared: &Arc<SharedEvalCache>,
    out: &mut Replay,
) {
    let root = log
        .as_deref_mut()
        .map(|l| l.open("harness.campaign", None, None));
    replay(
        jobs,
        shared,
        caches,
        expected,
        log.as_deref_mut(),
        root,
        out,
    );
    if let (Some(l), Some(id)) = (log, root) {
        l.close(id);
    }
}

/// The configurations every compute/cache-simulation probe runs: all
/// double, all single and two seeded cluster-level mixes.
fn sample_configs(bench: &dyn Benchmark, seed: u64) -> Vec<PrecisionConfig> {
    let program = bench.program();
    let mut rng = SplitMix64::new(seed ^ 0x636F_6E66_6967_7321);
    let mut configs = vec![program.config_all_double(), program.config_all_single()];
    for _ in 0..2 {
        let levels: Vec<Precision> = (0..program.total_clusters())
            .map(|_| {
                if rng.next_range(2) == 0 {
                    Precision::Single
                } else {
                    Precision::Double
                }
            })
            .collect();
        configs.push(program.config_from_cluster_levels(&levels));
    }
    configs
}

/// One benchmark's evaluation phases under the sample configurations.
struct PhaseProbe {
    name: String,
    /// Mean over configs of the untraced run, ms.
    compute_ms: f64,
    /// Mean over configs of the traced run, ms.
    traced_ms: f64,
    /// Untraced all-single run, ms.
    single_compute_ms: f64,
    /// Traced all-single run, ms.
    single_traced_ms: f64,
    /// Cold plan compile of the all-single config, ms (`None` without IR).
    compile_ms: Option<f64>,
    /// Median cold compile over the configs, µs.
    compile_us: Option<f64>,
    /// Mean simulated accesses per run.
    accesses: f64,
    /// Mean counted operations (flops + memory ops) per run.
    ops: f64,
    /// Cost-model evaluation, µs.
    cost_us: f64,
    /// Quality-metric evaluation, µs.
    metric_us: f64,
}

fn probe_phases(name: &str, scale: Scale, seed: u64) -> PhaseProbe {
    let bench = benchmark_by_name(name, scale).expect("registry covers the probe");
    let configs = sample_configs(bench.as_ref(), seed);
    let plans = PlanCache::new();
    let cache = CacheParams::default();
    let reps = 3;
    let mut compile_us = Vec::new();
    let (mut compute, mut traced, mut accesses, mut ops) = (0.0, 0.0, 0.0, 0.0);
    let mut cost_us = Vec::new();
    let mut metric_us = Vec::new();
    let mut single = (0.0, 0.0);
    let reference = run_config_planned(bench.as_ref(), &configs[0], cache, &plans).0;
    for (i, cfg) in configs.iter().enumerate() {
        if let Some(prog) = bench.ir_program() {
            compile_us.push(
                median_secs(reps, || {
                    std::hint::black_box(compile_plan(prog, cfg));
                }) * 1e6,
            );
        }
        // Warm the plan cache so neither timing below includes a compile.
        let plan = bench
            .ir_program()
            .map(|prog| plans.get_or_compile(prog, cfg));
        let compute_ms = median_secs(reps, || {
            let mut ctx = ExecCtx::new(cfg);
            let out = match &plan {
                Some(plan) => run_plan(plan, &mut ctx),
                None => bench.run(&mut ctx),
            };
            std::hint::black_box(out);
        }) * 1e3;
        let mut run = None;
        let traced_ms = median_secs(reps, || {
            run = Some(run_config_planned(bench.as_ref(), cfg, cache, &plans));
        }) * 1e3;
        if i == 1 {
            single = (compute_ms, traced_ms);
        }
        compute += compute_ms;
        traced += traced_ms;
        let (out, counts, stats) = run.expect("ran at least once");
        accesses += stats.accesses as f64;
        ops += (counts.total_flops() + counts.total_mem_ops()) as f64;
        let model = CostModel::default();
        cost_us.push(
            median_secs(5, || {
                for _ in 0..1000 {
                    std::hint::black_box(model.cost(&counts, Some(&stats)));
                }
            }) * 1e3,
        );
        metric_us.push(
            median_secs(11, || {
                std::hint::black_box(bench.metric().compare(&reference, &out));
            }) * 1e6,
        );
    }
    let n = configs.len() as f64;
    let compile_ms = bench.ir_program().map(|prog| {
        median_secs(reps, || {
            std::hint::black_box(compile_plan(prog, &configs[1]));
        }) * 1e3
    });
    PhaseProbe {
        name: name.to_string(),
        compute_ms: compute / n,
        traced_ms: traced / n,
        single_compute_ms: single.0,
        single_traced_ms: single.1,
        compile_ms,
        compile_us: (!compile_us.is_empty()).then(|| median(&compile_us)),
        accesses: accesses / n,
        ops: ops / n,
        cost_us: median(&cost_us),
        metric_us: median(&metric_us),
    }
}

/// Median µs of one empty-task `run_batch` on a two-worker pool.
fn pool_dispatch_us() -> f64 {
    let pool = Pool::with_steal_policy(2, Obs::noop(), StealPolicy::One);
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        pool.run_batch(2, |i| {
            std::hint::black_box(i);
        });
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Median µs `run_cell` adds over `Job::execute_with` on the same cells.
/// Both calls read one warm shared cache, so neither pays for evaluations
/// and the difference is the entry point's own work. Each repetition times
/// the pair back to back; half the repetitions run `run_cell` first, and
/// the two orders' median differences are averaged, so whatever the second
/// call of a pair gains from the first cancels out.
fn cell_overhead_us(cells: &[Job], workload: Workload) -> f64 {
    let opts = pinned_options(workload);
    let mut diffs = Vec::new();
    for (i, job) in cells.iter().enumerate() {
        let cache = Arc::new(SharedEvalCache::new());
        let _ = std::hint::black_box(job.execute_with(None, None, Some(&cache)));
        let direct = || {
            let t = Instant::now();
            let _ = std::hint::black_box(job.execute_with(None, None, Some(&cache)));
            t.elapsed().as_secs_f64()
        };
        let via_cell = || {
            let t = Instant::now();
            let _ = std::hint::black_box(run_cell(i, job, &opts, Some(&cache), None, None, None));
            t.elapsed().as_secs_f64()
        };
        let (mut direct_first, mut cell_first) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let d = direct();
            direct_first.push(via_cell() - d);
            let c = via_cell();
            cell_first.push(c - direct());
        }
        diffs.push((median(&direct_first) + median(&cell_first)) / 2.0 * 1e6);
    }
    median(&diffs)
}

/// The cheapest cells of a workload (by expected evaluations), for probes
/// that run cells many times.
fn cheapest(cells: &[Job], expected: &Expected, n: usize) -> Vec<Job> {
    let mut sorted: Vec<&Job> = cells.iter().collect();
    sorted.sort_by_key(|j| expected.get(j).map_or(usize::MAX, |o| o.evaluated));
    sorted.into_iter().take(n).cloned().collect()
}

/// Serve-layer calls timed on the workload's own campaigns: request
/// parse, admission, journal append and wave picking.
fn serve_mechanics(
    campaigns: &[ServeCampaign],
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let options = SubmitOptions::default();
    let lines: Vec<String> = campaigns
        .iter()
        .map(|c| submit_line(c.tenant, Some(&c.key), &c.jobs, &options))
        .collect();
    let parse_us: Vec<f64> = lines
        .iter()
        .map(|line| {
            median_secs(5, || {
                std::hint::black_box(parse_request(line).expect("well-formed submit"));
            }) * 1e6
        })
        .collect();
    report.set("serve.parse_us", median(&parse_us));
    let mut state = ServiceState::new(ServeConfig {
        workers: 2,
        queue_depth: usize::MAX,
        default_quota: usize::MAX / 2,
        quotas: Vec::new(),
    });
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("probe-queue.jsonl");
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = QueueJournal::open(&path).map_err(|e| e.to_string())?;
    let header = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let (mut admit_us, mut append_us) = (Vec::new(), Vec::new());
    for c in campaigns {
        let t = Instant::now();
        let admission = state.admit(
            c.tenant,
            Some(c.key.clone()),
            c.jobs.clone(),
            options.clone(),
        );
        admit_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Admission::Admitted { id } = admission else {
            return Err(format!("probe admission refused: {admission:?}"));
        };
        let campaign = state.campaign(id).expect("just admitted");
        let t = Instant::now();
        journal
            .record_admission(campaign)
            .map_err(|e| e.to_string())?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() - header;
    let mut pick_us = Vec::new();
    loop {
        let t = Instant::now();
        let wave = state.pick_wave(2);
        pick_us.push(t.elapsed().as_secs_f64() * 1e6);
        if wave.is_empty() {
            break;
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    report.set("serve.admit_us", median(&admit_us));
    report.set("serve.journal_append_us", median(&append_us));
    report.set(
        "serve.journal_bytes_per_campaign",
        bytes as f64 / campaigns.len() as f64,
    );
    report.set("serve.pick_wave_us", median(&pick_us));
    Ok(())
}

/// Median wall of running every cell of `campaigns` through `run_cell`
/// with `obs`, over three alternating repetitions.
fn cells_with_obs(campaigns: &[ServeCampaign], obs: &Obs) -> f64 {
    let opts = CampaignOptions {
        workers: 1,
        eval_workers: 1,
        obs: obs.clone(),
        ..CampaignOptions::default()
    };
    let t = Instant::now();
    for c in campaigns {
        let cache = Arc::new(SharedEvalCache::new());
        for (i, job) in c.jobs.iter().enumerate() {
            let _ = std::hint::black_box(run_cell(i, job, &opts, Some(&cache), None, None, None));
        }
    }
    t.elapsed().as_secs_f64()
}

/// The serve probe: the closed loop over the seeded campaign mix (client
/// latencies from send to reply, or to the done trailer), with exec-only
/// and forwarding-obs comparisons. Returns the samples.
fn serve_probe(
    campaigns: &[ServeCampaign],
    dir: &Path,
    expected: &Expected,
    report: &mut Report,
) -> Result<Vec<Sample>, String> {
    let mut rig = Rig::start(dir, SERVE_PROBE_WORKERS).map_err(|e| e.to_string())?;
    let samples = rig.run(campaigns, expected);
    rig.stop();
    let series: [(&str, Vec<f64>); 3] = [
        ("campaign", samples.iter().map(|s| s.campaign_ms).collect()),
        ("submit", samples.iter().map(|s| s.submit_ms).collect()),
        ("status", samples.iter().map(|s| s.status_ms).collect()),
    ];
    for (what, values) in series {
        report.set(&format!("serve.{what}_ms_p50"), percentile(&values, 50.0)?);
        report.set(&format!("serve.{what}_ms_p99"), percentile(&values, 99.0)?);
    }
    let exec_ms: Vec<f64> = campaigns
        .iter()
        .map(|c| {
            let opts = CampaignOptions {
                workers: 1,
                eval_workers: 1,
                ..CampaignOptions::default()
            };
            let t = Instant::now();
            std::hint::black_box(run_campaign(&c.jobs, &opts));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let wait_ms: Vec<f64> = samples
        .iter()
        .zip(&exec_ms)
        .map(|(s, e)| s.campaign_ms - e)
        .collect();
    report.set("serve.exec_ms_p50", percentile(&exec_ms, 50.0)?);
    report.set("serve.wait_ms_p50", percentile(&wait_ms, 50.0)?);
    report.set("serve.wait_ms_p99", percentile(&wait_ms, 99.0)?);
    let n = samples.len() as f64;
    report.set(
        "serve.records_per_campaign",
        samples.iter().map(|s| s.records as f64).sum::<f64>() / n,
    );
    report.set(
        "serve.status_bytes",
        samples.iter().map(|s| s.status_bytes as f64).sum::<f64>() / n,
    );
    let forward = Obs::builder()
        .forward(|record: &str| {
            std::hint::black_box(record.len());
        })
        .build()
        .map_err(|e| e.to_string())?;
    let (mut noop_s, mut forward_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        noop_s.push(cells_with_obs(campaigns, &Obs::noop()));
        forward_s.push(cells_with_obs(campaigns, &forward));
    }
    report.set(
        "obs.forward_overhead_frac",
        median(&forward_s) / median(&noop_s) - 1.0,
    );
    Ok(samples)
}

/// A row of the measured-baseline table.
fn baseline_row(p: &PhaseProbe) -> String {
    format!(
        "| {} | {:.3} | {:.3} | {} |",
        p.name,
        p.single_compute_ms,
        p.single_traced_ms,
        p.compile_ms
            .map_or("(no IR)".to_string(), |ms| format!("{ms:.3}")),
    )
}

/// A traced run of `workload`. Its work is fixed: it does not depend on
/// the run length the timed runs are sized by.
///
/// # Errors
///
/// A serve-layer failure or a percentile without enough samples.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    dir: &Path,
    expected: &Expected,
) -> Result<RunResult, String> {
    let mut report = Report::default();
    let scale = workload.scale();
    let cells = workload.pass_cells(seed, 0);
    let campaigns = serve_campaigns(seed, SERVE_PROBE_CAMPAIGNS);
    // Every outcome checked against the expected file, and the failures.
    let (mut attempted, mut failed) = (0usize, 0usize);

    // The serve probe, the same for every workload.
    let samples = serve_probe(&campaigns, &dir.join("serve"), expected, &mut report)?;
    attempted += samples.len();
    failed += samples.iter().filter(|s| !s.ok).count();

    // One untraced pass at the workload's pinned width: the wall the
    // pool's busy fraction is taken against.
    let t = Instant::now();
    let outcomes = run_campaign(&cells, &pinned_options(workload));
    attempted += outcomes.len();
    failed += outcomes.len() - matching(&outcomes, expected);
    let timed_wall = t.elapsed().as_secs_f64();

    // Untraced replays on either side of the traced one: their mean wall
    // is the tracing-overhead baseline, free of a steady drift in host
    // speed.
    let plain_replay = || {
        let mut out = Replay::default();
        let t = Instant::now();
        replay_campaign(
            &cells,
            &mut Caches::default(),
            expected,
            None,
            &Arc::new(SharedEvalCache::new()),
            &mut out,
        );
        (out, t.elapsed().as_secs_f64())
    };
    let (plain, plain_before) = plain_replay();
    let mut log = SpanLog::new(workload.name());
    let mut cold = Replay::default();
    let mut caches = Caches::default();
    let shared = Arc::new(SharedEvalCache::new());
    let t = Instant::now();
    replay_campaign(
        &cells,
        &mut caches,
        expected,
        Some(&mut log),
        &shared,
        &mut cold,
    );
    let traced_wall = t.elapsed().as_secs_f64();
    // All-shared-hits replay: the same caches, now warm.
    let mut warm = Replay::default();
    let mut warm_log = SpanLog::new(workload.name());
    replay_campaign(
        &cells,
        &mut caches,
        expected,
        Some(&mut warm_log),
        &shared,
        &mut warm,
    );
    // ir: plan reuse in the replays.
    let (hits, compiles) = caches
        .plans
        .values()
        .fold((0u64, 0u64), |(h, c), p| (h + p.hits(), c + p.compiles()));
    // The second untraced replay runs after the traced replay's caches are
    // freed, as the first ran before they existed: with them alive, it
    // read 45% slower than the first on `paper-slice`.
    drop((caches, shared));
    let (plain_again, plain_after) = plain_replay();
    for r in [&plain, &plain_again, &cold, &warm] {
        attempted += r.evaluated.len();
        failed += r.mismatches;
    }

    // core: the evaluator's own counters and eval spans.
    let counter = |name: &str| cold.counters.get(name).copied().unwrap_or(0) as f64;
    let (runs, shared_hits, uncompiled, memo) = (
        counter("evaluator.runs"),
        counter("evaluator.shared_hits"),
        counter("evaluator.uncompiled"),
        counter("evaluator.memo_hits"),
    );
    let admitted = runs + shared_hits + uncompiled;
    report.set("core.reference_ms", median(&cold.reference_ms));
    report.set("core.eval_ms_p50", percentile(&cold.eval_ms, 50.0)?);
    report.set("core.eval_ms_p99", percentile(&cold.eval_ms, 99.0)?);
    report.set("core.memo_hit_frac", memo / (memo + admitted));
    report.set("core.shared_hit_frac", shared_hits / admitted);
    report.set("core.uncompiled_frac", uncompiled / admitted);
    report.set("core.runs", runs);

    // search: warm replay search time is search + bookkeeping alone.
    let warm_search = self_seconds_by_name(warm_log.spans())
        .get("search.run")
        .copied()
        .unwrap_or(0.0);
    report.set("search.self_s", warm_search);
    report.set(
        "search.self_frac",
        warm_search / cold.cell_s.iter().sum::<f64>(),
    );
    report.set(
        "search.evals_per_cell",
        cold.evaluated.iter().sum::<usize>() as f64 / cold.evaluated.len() as f64,
    );
    report.set(
        "search.dnf_frac",
        cold.dnf as f64 / cold.evaluated.len() as f64,
    );

    // harness: cache calls and the cell entry point.
    let us = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
    report.set("harness.evalcache_get_us", us(&cold.get_ns));
    report.set("harness.evalcache_put_us", us(&cold.put_ns));
    report.set(
        "harness.cell_overhead_us",
        cell_overhead_us(&cheapest(&cells, expected, 12), workload),
    );

    // pool.
    report.set("pool.dispatch_us", pool_dispatch_us());
    report.set(
        "pool.busy_frac",
        plain.cell_s.iter().sum::<f64>() / (workload.workers() as f64 * timed_wall),
    );

    // ir: plan reuse in the replays, cold compiles in the probes.
    report.set(
        "ir.plan_hit_frac",
        hits as f64 / (hits + compiles).max(1) as f64,
    );

    // typedeps, mpfloat, perf, verify: phase probes of the workload's
    // benchmarks and of every application at the workload's scale.
    let benches = distinct_benchmarks(&cells);
    report.set(
        "typedeps.build_ms",
        geomean(
            &benches
                .iter()
                .map(|b| {
                    median_secs(9, || {
                        std::hint::black_box(benchmark_by_name(b, scale));
                    }) * 1e3
                })
                .collect::<Vec<_>>(),
        ),
    );
    let mut probed: Vec<PhaseProbe> = Vec::new();
    for name in benches.iter().map(String::as_str).chain(APPS) {
        if !probed.iter().any(|p| p.name == name) {
            probed.push(probe_phases(name, scale, seed));
        }
    }
    let ours: Vec<&PhaseProbe> = probed
        .iter()
        .filter(|p| benches.contains(&p.name))
        .collect();
    let compile: Vec<f64> = ours.iter().filter_map(|p| p.compile_us).collect();
    if compile.is_empty() {
        return Err("workload has no IR-ported benchmark to compile".to_string());
    }
    report.set("ir.compile_us", geomean(&compile));
    let hotspot = probed
        .iter()
        .find(|p| p.name == "hotspot")
        .expect("apps probed");
    report.set(
        "ir.compile_us.hotspot",
        hotspot.compile_us.expect("hotspot has IR"),
    );
    for app in APPS {
        let p = probed.iter().find(|p| p.name == app).expect("apps probed");
        report.set(&format!("mpfloat.compute_ms.{app}"), p.compute_ms);
        report.set(
            &format!("perf.cachesim_ms.{app}"),
            p.traced_ms - p.compute_ms,
        );
    }
    let traced_sum: f64 = ours.iter().map(|p| p.traced_ms).sum();
    let compute_sum: f64 = ours.iter().map(|p| p.compute_ms).sum();
    let n = ours.len() as f64;
    report.set(
        "perf.cachesim_frac",
        (traced_sum - compute_sum) / traced_sum,
    );
    report.set(
        "perf.accesses_per_eval",
        ours.iter().map(|p| p.accesses).sum::<f64>() / n,
    );
    report.set(
        "mpfloat.ops_per_eval",
        ours.iter().map(|p| p.ops).sum::<f64>() / n,
    );
    report.set(
        "perf.cost_us",
        median(&ours.iter().map(|p| p.cost_us).collect::<Vec<_>>()),
    );
    report.set(
        "verify.metric_us",
        median(&ours.iter().map(|p| p.metric_us).collect::<Vec<_>>()),
    );

    // serve: the layer's calls on this workload's own submissions.
    let own = [ServeCampaign {
        tenant: "t0",
        key: format!("{}-{seed}", workload.name()),
        jobs: cells.clone(),
    }];
    serve_mechanics(&own, dir, &mut report)?;

    // obs: the fraction the traced replay adds to the untraced one.
    report.set(
        "obs.trace_overhead_frac",
        traced_wall / ((plain_before + plain_after) / 2.0) - 1.0,
    );

    println!(
        "# measured baseline ({} scale, all-single; ms per evaluation)",
        if scale == Scale::Paper {
            "paper"
        } else {
            "small"
        }
    );
    println!("| benchmark | compute only (no tracer) | full run (traced) | plan compile |");
    println!("|---|---|---|---|");
    for p in &probed {
        println!("{}", baseline_row(p));
    }
    std::fs::create_dir_all(".bench_run").map_err(|e| e.to_string())?;
    for (suffix, spans) in [("", &log), ("-warm", &warm_log)] {
        let path = format!(".bench_run/trace-{}-{seed}{suffix}.jsonl", workload.name());
        std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!("# spans written to {path}");
    }
    Ok(RunResult {
        report,
        attempted: attempted as u64,
        failed: failed as u64,
    })
}
