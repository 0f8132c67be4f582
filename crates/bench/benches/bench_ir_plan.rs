//! Plan-interpretation A/B bench: each IR-ported kernel run through the
//! IR's element-wise reference interpreter (`reference`, the default
//! `Benchmark::run`) vs the compiled execution plan, with compilation
//! either paid on every run (`plan-cold`) or served from a shared
//! `PlanCache` (`plan-cached`).
//!
//! All three arms produce bit-identical outputs, op counts and cache
//! statistics (property-tested in `tests/integration_properties.rs`);
//! what differs is interpretation overhead. The plan resolves every
//! op's precision and rounding once per configuration, hoists
//! loop-invariant accounting and runs vectorizable sweeps as slice
//! instructions, and the spread between `plan-cold` and `plan-cached`
//! isolates the compile cost itself.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::perf::Hierarchy;
use mixp_core::{run_config, run_config_planned, CacheParams, ExecCtx, PlanCache};
use mixp_harness::{benchmark_by_name, Scale};
use std::time::Duration;

fn main() {
    let mut group = BenchGroup::new("ir_plan");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    let params = CacheParams::default();
    for name in ["eos", "hydro-1d", "iccg", "banded-lin-eq", "innerprod"] {
        let bench = benchmark_by_name(name, Scale::Paper).unwrap();
        assert!(
            bench.ir_program().is_some(),
            "{name} must be IR-ported for this bench"
        );
        // A mixed configuration (first cluster lowered) so the plan path
        // exercises real precision specialization, not the all-double
        // fast case.
        let pm = bench.program();
        let first = pm.clustering().ids().next().unwrap();
        let cfg = pm.config_from_clusters([first]);
        // The same reused, reset-per-run hierarchy `run_config` keeps.
        let mut hierarchy = Hierarchy::new(params);
        group.bench_function(format!("{name}/reference"), |b| {
            b.iter(|| {
                hierarchy.reset();
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut hierarchy);
                black_box(bench.run(&mut ctx))
            })
        });
        group.bench_function(format!("{name}/plan-cold"), |b| {
            b.iter(|| black_box(run_config(bench.as_ref(), &cfg, params)))
        });
        let plans = PlanCache::new();
        group.bench_function(format!("{name}/plan-cached"), |b| {
            b.iter(|| black_box(run_config_planned(bench.as_ref(), &cfg, params, &plans)))
        });
    }
    group.finish();
}
