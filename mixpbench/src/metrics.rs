//! The metric catalogue (it must agree with `BENCHMARK.json`) and the
//! result line every run prints last.

use crate::workloads::Workload;
use mixp_harness::json::Json;

/// The command that runs the benchmark, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "mixpbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["mixpbench"];

/// Seconds one run is asked to measure.
pub const RUN_SECONDS: u32 = 45;

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every timed run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("cells_per_s", "1/s", "higher", 0.25),
    e2e("evals_per_s", "1/s", "higher", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.15),
    e2e("ok_frac", "frac", "higher", 0.01),
];

/// The applications whose compute and cache-simulation cost is probed.
pub const APPS: [&str; 7] = [
    "blackscholes",
    "cfd",
    "hotspot",
    "hpccg",
    "kmeans",
    "lavamd",
    "srad",
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("ir.compile_us", "us", "lower"),
    layer("ir.compile_us.hotspot", "us", "lower"),
    layer("ir.plan_hit_frac", "frac", "higher"),
    layer("mpfloat.compute_ms.blackscholes", "ms", "lower"),
    layer("mpfloat.compute_ms.cfd", "ms", "lower"),
    layer("mpfloat.compute_ms.hotspot", "ms", "lower"),
    layer("mpfloat.compute_ms.hpccg", "ms", "lower"),
    layer("mpfloat.compute_ms.kmeans", "ms", "lower"),
    layer("mpfloat.compute_ms.lavamd", "ms", "lower"),
    layer("mpfloat.compute_ms.srad", "ms", "lower"),
    layer("perf.cachesim_ms.blackscholes", "ms", "lower"),
    layer("perf.cachesim_ms.cfd", "ms", "lower"),
    layer("perf.cachesim_ms.hotspot", "ms", "lower"),
    layer("perf.cachesim_ms.hpccg", "ms", "lower"),
    layer("perf.cachesim_ms.kmeans", "ms", "lower"),
    layer("perf.cachesim_ms.lavamd", "ms", "lower"),
    layer("perf.cachesim_ms.srad", "ms", "lower"),
    layer("perf.cachesim_frac", "frac", "lower"),
    layer("perf.accesses_per_eval", "count", "lower"),
    layer("mpfloat.ops_per_eval", "count", "lower"),
    layer("perf.cost_us", "us", "lower"),
    layer("verify.metric_us", "us", "lower"),
    layer("typedeps.build_ms", "ms", "lower"),
    layer("core.reference_ms", "ms", "lower"),
    layer("core.eval_ms_p50", "ms", "lower"),
    layer("core.eval_ms_p99", "ms", "lower"),
    layer("core.memo_hit_frac", "frac", "higher"),
    layer("core.shared_hit_frac", "frac", "higher"),
    layer("core.uncompiled_frac", "frac", "lower"),
    layer("core.runs", "count", "lower"),
    layer("search.self_s", "s", "lower"),
    layer("search.self_frac", "frac", "lower"),
    layer("search.evals_per_cell", "count", "lower"),
    layer("search.dnf_frac", "frac", "lower"),
    layer("pool.dispatch_us", "us", "lower"),
    layer("pool.busy_frac", "frac", "higher"),
    layer("harness.evalcache_get_us", "us", "lower"),
    layer("harness.evalcache_put_us", "us", "lower"),
    layer("harness.cell_overhead_us", "us", "lower"),
    layer("serve.parse_us", "us", "lower"),
    layer("serve.admit_us", "us", "lower"),
    layer("serve.journal_append_us", "us", "lower"),
    layer("serve.journal_bytes_per_campaign", "B", "lower"),
    layer("serve.pick_wave_us", "us", "lower"),
    layer("serve.status_bytes", "B", "lower"),
    layer("serve.exec_ms_p50", "ms", "lower"),
    layer("serve.wait_ms_p50", "ms", "lower"),
    layer("serve.wait_ms_p99", "ms", "lower"),
    layer("serve.records_per_campaign", "count", "lower"),
    layer("serve.campaign_ms_p50", "ms", "lower"),
    layer("serve.campaign_ms_p99", "ms", "lower"),
    layer("serve.submit_ms_p50", "ms", "lower"),
    layer("serve.submit_ms_p99", "ms", "lower"),
    layer("serve.status_ms_p50", "ms", "lower"),
    layer("serve.status_ms_p99", "ms", "lower"),
    layer("obs.forward_overhead_frac", "frac", "lower"),
    layer("obs.trace_overhead_frac", "frac", "lower"),
];

/// The metrics a workload's run of the given mode puts in its result
/// line: the whole catalogue of that mode, for every workload.
pub fn reported(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `BENCHMARK.json` as this catalogue declares it: the command, the
/// workloads, and both metric lists with their bounds.
pub fn benchmark_json() -> String {
    let text = |v: &str| Json::String(v.to_string());
    let entry = |fields: Vec<(&str, Json)>| {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let metrics = |defs: &[MetricDef]| {
        Json::Array(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", text(d.name)),
                        ("unit", text(d.unit)),
                        ("better", text(d.better)),
                    ];
                    fields.extend(d.bound.map(|b| ("bound", Json::Number(b))));
                    entry(fields)
                })
                .collect(),
        )
    };
    let doc = entry(vec![
        ("command", Json::Array(COMMAND.map(text).to_vec())),
        ("paths", Json::Array(PATHS.map(text).to_vec())),
        ("run_seconds", Json::Number(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Array(
                Workload::ALL
                    .iter()
                    .map(|w| entry(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(END_TO_END)),
        ("per_layer", metrics(PER_LAYER)),
    ]);
    doc.pretty() + "\n"
}

fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values of one run, in catalogue order once finished.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: Vec<(&'static MetricDef, f64)>,
}

impl Report {
    /// Records `value` for the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on an uncatalogued name or a repeated one: both are
    /// benchmark bugs.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((def, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, v)| *v)
    }

    /// Names recorded, in recording order.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|(d, _)| d.name).collect()
    }

    /// Checks that exactly the metrics of `defs` were recorded, each
    /// finite.
    ///
    /// # Errors
    ///
    /// Names the first missing, unexpected or non-finite metric.
    pub fn check_complete(&self, defs: &[MetricDef]) -> Result<(), String> {
        for d in defs {
            match self.get(d.name) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite ({v})", d.name))
                }
                Some(_) => {}
            }
        }
        for name in self.names() {
            if !defs.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} does not belong to this run"));
            }
        }
        Ok(())
    }

    /// A human-readable table of every recorded metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.values {
            out.push_str(&format!(
                "  {:<36} {:>16.6} {}\n",
                def.name, value, def.unit
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `defs` with their units.
    pub fn result_line(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).expect("checked complete");
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// A finite float in JSON syntax with every digit Rust's shortest
/// round-trip rendering gives.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_harness::json::parse;

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json differs from the catalogue; run `mixpbench --write-benchmark-json`"
        );
        let doc = parse(&committed).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["paper-slice", "table5-small"]);
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for d in END_TO_END {
            assert!(d.bound.unwrap() <= setup.bound.unwrap() && d.bound.unwrap() <= 0.25);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn result_line_carries_exactly_the_mode_catalogue() {
        let mut r = Report::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, 1.5 + i as f64);
        }
        r.check_complete(END_TO_END).unwrap();
        assert!(r.check_complete(PER_LAYER).is_err());
        let line = r.result_line(END_TO_END, true, 3, 0);
        let doc = parse(&line).unwrap();
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "uncatalogued")]
    fn uncatalogued_names_are_refused() {
        Report::default().set("made_up", 1.0);
    }
}
