//! The committed expected results: one line per cell any workload can
//! run, captured from the program at the commit that defined the
//! benchmark. Every outcome a run produces is checked against it.

use mixp_harness::json::{parse, Json};
use mixp_harness::{Job, JobResult, Scale};
use mixp_search::SearchResult;
use std::collections::HashMap;

/// The expected-results file, compiled into the binary.
pub const EXPECTED_JSONL: &str = include_str!("../expected.jsonl");

/// The bits of one cell's outcome that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Configurations evaluated (the paper's EV).
    pub evaluated: usize,
    /// Whether the search ran out of budget.
    pub dnf: bool,
    /// Bit pattern of the best passing speedup, if any.
    pub speedup_bits: Option<u64>,
    /// Bit pattern of the best passing quality, if any.
    pub quality_bits: Option<u64>,
}

impl Outcome {
    /// The outcome a finished search reports.
    pub fn of(result: &SearchResult) -> Outcome {
        let best = result.best.as_ref();
        Outcome {
            evaluated: result.evaluated,
            dnf: result.dnf,
            speedup_bits: best.map(|b| b.speedup.to_bits()),
            quality_bits: best.map(|b| b.quality.to_bits()),
        }
    }
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn key(benchmark: &str, algorithm: &str, threshold: f64, scale: &str) -> String {
    format!(
        "{benchmark}|{}|{:016x}|{scale}",
        algorithm.to_ascii_uppercase(),
        threshold.to_bits()
    )
}

fn job_key(job: &Job) -> String {
    key(
        &job.benchmark,
        &job.algorithm,
        job.threshold,
        scale_tag(job.scale),
    )
}

fn bits_field(bits: Option<u64>) -> String {
    bits.map_or("null".to_string(), |b| format!("\"{b:016x}\""))
}

/// Renders one expected-results line for `job`.
pub fn render_line(job: &Job, outcome: &Outcome) -> String {
    format!(
        "{{\"benchmark\":\"{}\",\"algorithm\":\"{}\",\"threshold\":{:e},\"scale\":\"{}\",\"evaluated\":{},\"dnf\":{},\"speedup\":{},\"quality\":{}}}",
        job.benchmark,
        job.algorithm,
        job.threshold,
        scale_tag(job.scale),
        outcome.evaluated,
        outcome.dnf,
        bits_field(outcome.speedup_bits),
        bits_field(outcome.quality_bits),
    )
}

/// The parsed expected results, keyed by cell.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    cells: HashMap<String, Outcome>,
}

impl Expected {
    /// The committed file.
    pub fn committed() -> Expected {
        Expected::parse(EXPECTED_JSONL).expect("committed expected.jsonl parses")
    }

    /// Parses JSONL text.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut cells = HashMap::new();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = || format!("expected.jsonl line {}: malformed", n + 1);
            let doc = parse(line).map_err(|_| bad())?;
            let text_of = |k: &str| doc.get(k).and_then(Json::as_str).ok_or_else(bad);
            let bits_of = |k: &str| match doc.get(k) {
                Some(Json::Null) => Ok(None),
                Some(Json::String(s)) => u64::from_str_radix(s, 16).map(Some).map_err(|_| bad()),
                _ => Err(bad()),
            };
            let threshold = doc
                .get("threshold")
                .and_then(Json::as_f64)
                .ok_or_else(bad)?;
            let outcome = Outcome {
                evaluated: doc
                    .get("evaluated")
                    .and_then(Json::as_f64)
                    .ok_or_else(bad)? as usize,
                dnf: matches!(doc.get("dnf"), Some(Json::Bool(true))),
                speedup_bits: bits_of("speedup")?,
                quality_bits: bits_of("quality")?,
            };
            let k = key(
                text_of("benchmark")?,
                text_of("algorithm")?,
                threshold,
                text_of("scale")?,
            );
            cells.insert(k, outcome);
        }
        Ok(Expected { cells })
    }

    /// The expected outcome of `job`, if the file covers it.
    pub fn get(&self, job: &Job) -> Option<&Outcome> {
        self.cells.get(&job_key(job))
    }

    /// Whether `result` is exactly what the file expects for `job`.
    pub fn matches(&self, job: &Job, result: &JobResult) -> bool {
        self.get(job) == Some(&Outcome::of(&result.result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::all_cells;

    #[test]
    fn rendered_lines_parse_back() {
        let job = Job::new("eos", "CB", 1e-8, Scale::Paper);
        let outcome = Outcome {
            evaluated: 3,
            dnf: false,
            speedup_bits: Some(1.25f64.to_bits()),
            quality_bits: None,
        };
        let expected = Expected::parse(&render_line(&job, &outcome)).unwrap();
        assert_eq!(expected.get(&job), Some(&outcome));
        let other = Job::new("eos", "CB", 1e-6, Scale::Paper);
        assert_eq!(expected.get(&other), None);
    }

    #[test]
    fn committed_file_covers_every_cell() {
        let expected = Expected::committed();
        for job in all_cells() {
            assert!(
                expected.get(&job).is_some(),
                "no expected entry for {job:?}"
            );
        }
    }
}
