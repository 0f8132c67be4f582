//! Plan-specialized execution of IR-ported benchmarks.
//!
//! A benchmark that exposes an [`mixp_ir::Program`] through
//! [`crate::Benchmark::ir_program`] is executed by compiling the
//! `(program, configuration)` pair into a straight-line [`Plan`] —
//! every store's rounding mode, every charge's precision and every
//! stream group's widths resolved once — and interpreting that plan
//! over raw `f64` slices with zero per-op configuration dispatch.
//!
//! The bridge back into the runtime's accounting is [`CtxSink`], shared
//! by plans and the reference interpreter ([`run_reference`]): charges
//! route through [`ExecCtx::op_sig`] + `flop_sig`/`heavy_sig` (so cast
//! accounting is that of [`ExecCtx::flop`]), and stream groups route
//! through [`ExecCtx::commit_streams`] (the primitive behind
//! [`mixp_float::StreamGroup`], so cancellation is still polled once per
//! stream per commit).
//!
//! Plans depend only on the configuration — not on input data — so the
//! evaluator caches them per [`ConfigKey`] in a [`PlanCache`] shared by
//! the reference run, sequential evaluation and batch fan-out alike.

use mixp_float::{ConfigKey, ExecCtx, Precision, PrecisionConfig, StreamSpec, VarId};
use mixp_ir::{ExecSink, Plan, Prec, Program, StreamRt};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maps an IR storage precision to the runtime's.
fn to_precision(p: Prec) -> Precision {
    match p {
        Prec::Half => Precision::Half,
        Prec::Single => Precision::Single,
        Prec::Double => Precision::Double,
    }
}

/// Maps the runtime's storage precision to the IR's.
fn to_prec(p: Precision) -> Prec {
    match p {
        Precision::Half => Prec::Half,
        Precision::Single => Prec::Single,
        Precision::Double => Prec::Double,
    }
}

/// Compiles `prog` specialized to `cfg`: IR variable indices are the
/// benchmark's [`VarId`] indices, and the extended narrow format is the
/// runtime's IEEE binary16 rounding.
pub fn compile_plan(prog: &Program, cfg: &PrecisionConfig) -> Plan {
    let mut prec_of = |var: u32| to_prec(cfg.get(VarId::from_index(var as usize)));
    prog.compile(&mut prec_of, mixp_float::half::round_f64_to_f16)
}

/// The [`ExecSink`] that replays a plan's accounting into an
/// [`ExecCtx`], with reusable scratch so a run allocates nothing per
/// stream group.
struct CtxSink<'a, 'c> {
    ctx: &'a mut ExecCtx<'c>,
    specs: Vec<StreamSpec>,
    precs: Vec<Option<Precision>>,
    src_ids: Vec<VarId>,
}

impl<'a, 'c> CtxSink<'a, 'c> {
    fn new(ctx: &'a mut ExecCtx<'c>) -> Self {
        CtxSink {
            ctx,
            specs: Vec::new(),
            precs: Vec::new(),
            src_ids: Vec::new(),
        }
    }
}

impl ExecSink for CtxSink<'_, '_> {
    fn reserve(&mut self, var: u32, len: usize, _prec: Prec) -> u64 {
        // The context derives the width from its own configuration; the
        // plan asserts the returned base against its precomputed layout,
        // which catches any precision disagreement too (widths feed the
        // cumulative base addresses).
        self.ctx.reserve(VarId::from_index(var as usize), len)
    }

    fn charge(&mut self, heavy: bool, dst: u32, srcs: &[u32], amount: u64) {
        self.src_ids.clear();
        self.src_ids
            .extend(srcs.iter().map(|&s| VarId::from_index(s as usize)));
        let sig = self
            .ctx
            .op_sig(VarId::from_index(dst as usize), &self.src_ids);
        if heavy {
            self.ctx.heavy_sig(sig, amount);
        } else {
            self.ctx.flop_sig(sig, amount);
        }
    }

    fn commit_group(&mut self, streams: &[StreamRt], count: usize) {
        self.specs.clear();
        self.precs.clear();
        for s in streams {
            self.specs.push(StreamSpec {
                base: s.base,
                elem_bytes: s.elem_bytes,
                stride: s.stride,
                write: s.write,
            });
            self.precs.push(Some(to_precision(s.prec)));
        }
        self.ctx.commit_streams(&self.specs, &self.precs, count);
    }
}

thread_local! {
    /// Per-thread plan-interpreter scratch (arena, temporaries, output
    /// buffer), reused across evaluations exactly like the evaluator's
    /// cached cache hierarchy.
    static SCRATCH: RefCell<mixp_ir::Scratch> = RefCell::new(mixp_ir::Scratch::new());
}

/// Executes a compiled plan against `ctx`, returning the verification
/// output — bit-identical, counts and access stream included, to
/// [`run_reference`] under the same configuration.
pub fn run_plan(plan: &Plan, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let mut sink = CtxSink::new(ctx);
        plan.execute(&mut sink, &mut scratch)
    })
}

/// Runs `prog` under `ctx`'s configuration through the IR's reference
/// interpreter ([`Program::interpret`]): the executable definition of an
/// IR-ported benchmark and the default [`crate::Benchmark::run`].
pub fn run_reference(prog: &Program, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
    let cfg = ctx.config();
    let mut prec_of = |var: u32| to_prec(cfg.get(VarId::from_index(var as usize)));
    prog.interpret(
        &mut prec_of,
        mixp_float::half::round_f64_to_f16,
        &mut CtxSink::new(ctx),
    )
}

/// A per-benchmark cache of compiled plans keyed by configuration
/// fingerprint.
///
/// Plans are pure functions of `(program, configuration)`, so sharing a
/// cache across runs — or across evaluators of the same benchmark — is
/// a wall-clock optimisation with zero numerical effect. The map is
/// guarded by one mutex: compilation is microseconds and lookups are
/// one hash probe, so contention under batch fan-out is negligible
/// compared to the runs themselves.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<ConfigKey, Arc<Plan>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns the cached plan for `cfg`, compiling (and caching) it on
    /// first sight of the fingerprint.
    pub fn get_or_compile(&self, prog: &Program, cfg: &PrecisionConfig) -> Arc<Plan> {
        let key = cfg.fingerprint();
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        // Compile outside the lock: concurrent first sights of the same
        // fingerprint may both compile, but the insert is idempotent
        // (identical inputs produce interchangeable plans) and holding a
        // mutex across compilation would serialize batch warm-up.
        let plan = Arc::new(compile_plan(prog, cfg));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut map = self.plans.lock().unwrap();
        Arc::clone(map.entry(key).or_insert(plan))
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of plan compilations performed.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Number of distinct configurations with a cached plan.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Whether no plans are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_float::{OpCounts, PrecisionConfig};
    use mixp_ir::Sweep;

    /// y = a*x + y over two 2-var clusters, as a plan and through the
    /// reference interpreter, compared against the equivalent MpVec loop:
    /// the anchor tying IR semantics to `MpVec` semantics.
    fn axpy_prog(n: usize) -> Program {
        let mut p = Program::new("axpy");
        let x = p.array_init(0, (0..n).map(|i| 0.1 + i as f64 * 0.01).collect());
        let y = p.array_init(1, (0..n).map(|i| 0.2 + i as f64 * 0.02).collect());
        let a = p.scalar(2, 1.5);
        p.flop(1, &[2, 0], n as u64);
        p.sweep(Sweep::axpy(y, x, n, mixp_ir::Expr::scal(a)));
        p.output(y);
        p
    }

    fn run_handwritten(cfg: &PrecisionConfig, n: usize) -> (Vec<f64>, OpCounts) {
        let mut ctx = ExecCtx::new(cfg);
        let x = mixp_float::MpVec::from_fn(&mut ctx, VarId::from_index(0), n, |i| {
            0.1 + i as f64 * 0.01
        });
        let mut y = mixp_float::MpVec::from_fn(&mut ctx, VarId::from_index(1), n, |i| {
            0.2 + i as f64 * 0.02
        });
        let a = mixp_float::MpScalar::new(&ctx, VarId::from_index(2), 1.5);
        ctx.flop(VarId::from_index(1), &[VarId::from_index(2), VarId::from_index(0)], n as u64);
        let mut g = mixp_float::StreamGroup::new();
        g.load(&x, 0).load(&y, 0).store(&y, 0);
        g.commit(&mut ctx, n);
        for i in 0..n {
            let v = a.get() * x.raw()[i] + y.raw()[i];
            y.write_rounded(i, v);
        }
        let out = y.snapshot();
        (out, ctx.counts())
    }

    #[test]
    fn plan_matches_handwritten_for_mixed_configs() {
        let n = 33;
        let prog = axpy_prog(n);
        let mut configs = vec![
            PrecisionConfig::all_double(3),
            PrecisionConfig::all_single(3),
        ];
        let mut c = PrecisionConfig::all_double(3);
        c.set(VarId::from_index(0), Precision::Half);
        c.set(VarId::from_index(2), Precision::Single);
        configs.push(c);
        for cfg in &mut configs {
            let plan = compile_plan(&prog, cfg);
            let mut ctx = ExecCtx::new(cfg);
            let out = run_plan(&plan, &mut ctx);
            let counts = ctx.counts();
            let (href, hcounts) = run_handwritten(cfg, n);
            assert_eq!(out, href, "outputs must be bit-identical");
            assert_eq!(counts, hcounts, "op counts must match");
            let mut ctx = ExecCtx::new(cfg);
            let rout = run_reference(&prog, &mut ctx);
            assert_eq!(rout, href, "reference outputs must be bit-identical");
            assert_eq!(ctx.counts(), hcounts, "reference op counts must match");
        }
    }

    #[test]
    fn plan_cache_compiles_once_per_fingerprint() {
        let prog = axpy_prog(8);
        let cache = PlanCache::new();
        let d = PrecisionConfig::all_double(3);
        let s = PrecisionConfig::all_single(3);
        let p1 = cache.get_or_compile(&prog, &d);
        let p2 = cache.get_or_compile(&prog, &d);
        let _p3 = cache.get_or_compile(&prog, &s);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }
}
