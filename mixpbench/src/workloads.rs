//! The two workloads: which cells each runs, at which scale, on how
//! many workers, and how the seed shapes them; and the seeded campaign mix
//! of the serve probe that every traced run makes.

use mixp_core::synth::SplitMix64;
use mixp_harness::experiments::{
    application_names, kernel_names, TABLE3_ALGOS, TABLE3_THRESHOLD, TABLE5_ALGOS,
    TABLE5_THRESHOLDS,
};
use mixp_harness::{Job, Scale};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table III at paper scale plus a Table V slice at 1e-6, one worker.
    PaperSlice,
    /// All 105 Table V cells at small scale, shared cache on, two workers.
    Table5Small,
}

/// The Table V slice of `paper-slice`: (application, algorithm) at 1e-6.
/// One cell per application, covering all five algorithms; hotspot×CM
/// (512 plan compiles) and lavamd×HC are the two long cells. Each cell is
/// a timed segment of its own, so a pass is as short as these cells allow
/// and a run samples each of them as often as its length allows.
pub const SLICE: [(&str, &str); 7] = [
    ("hotspot", "CM"),
    ("lavamd", "HC"),
    ("cfd", "GA"),
    ("kmeans", "GA"),
    ("srad", "HR"),
    ("blackscholes", "HC"),
    ("hpccg", "DD"),
];

/// The threshold of the Table V slice.
pub const SLICE_THRESHOLD: f64 = 1e-6;

/// Tenants of the serve probe's client fleet.
pub const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// Cells per serve-probe campaign: uniform in `1..=MAX_CAMPAIGN_CELLS`.
pub const MAX_CAMPAIGN_CELLS: usize = 6;

/// Passes a run makes at least: three, so every segment has a choice of
/// samples.
pub const MIN_PASSES: usize = 3;

/// A group of cells timed as one `run_campaign`.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Names the segment across passes (a benchmark name, or `all`).
    pub label: String,
    /// The segment's cells, in the pass's order.
    pub jobs: Vec<Job>,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` declares them all.
    pub const ALL: [Workload; 2] = [Workload::PaperSlice, Workload::Table5Small];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSlice => "paper-slice",
            Workload::Table5Small => "table5-small",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSlice => "Table III and a Table V slice at paper scale on 1 worker: plan compile, value computation and cache simulation do almost all the work",
            Workload::Table5Small => "all 105 Table V cells at small scale on 2 workers: shared eval-cache reads, search bookkeeping and pool load balance",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Problem scale of every cell.
    pub fn scale(self) -> Scale {
        match self {
            Workload::PaperSlice => Scale::Paper,
            Workload::Table5Small => Scale::Small,
        }
    }

    /// Pinned pool workers (campaign pool, or the daemon's pool).
    pub fn workers(self) -> usize {
        match self {
            Workload::PaperSlice => 1,
            Workload::Table5Small => 2,
        }
    }

    /// Pinned evaluator batch width. It decides which configurations a
    /// search evaluates, so it is never taken from the environment.
    pub fn eval_workers(self) -> usize {
        1
    }

    /// Seconds one pass takes on the reference host (2-core VM): sizes
    /// a run's fixed work from its requested length.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::PaperSlice => 9.0,
            Workload::Table5Small => 1.4,
        }
    }

    /// Passes of a run asked to last `seconds`. The count depends only on
    /// `seconds`, so every commit does the same work.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(MIN_PASSES)
    }

    /// The cells of pass `pass`, in an order drawn from `seed` and the
    /// pass index, so a run's passes span several orders.
    pub fn pass_cells(self, seed: u64, pass: usize) -> Vec<Job> {
        let order = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(pass as u64);
        match self {
            Workload::PaperSlice => permute(paper_slice_cells(), order),
            Workload::Table5Small => permute(table5_small_cells(), order),
        }
    }

    /// The cells of pass `pass` ([`Workload::pass_cells`]) cut into the
    /// segments a timed run times one by one. `paper-slice` runs one
    /// campaign per benchmark, in the order the benchmarks first appear:
    /// cells of different benchmarks share no cache, so this is the work
    /// of one 1-worker campaign over all cells, timed in pieces of 0.01–5
    /// s. `table5-small` is one campaign, so that its 2-worker pool
    /// balances all 105 cells.
    pub fn pass_segments(self, seed: u64, pass: usize) -> Vec<Segment> {
        let cells = self.pass_cells(seed, pass);
        match self {
            Workload::PaperSlice => distinct_benchmarks(&cells)
                .into_iter()
                .map(|b| Segment {
                    jobs: cells.iter().filter(|j| j.benchmark == b).cloned().collect(),
                    label: b,
                })
                .collect(),
            Workload::Table5Small => vec![Segment {
                label: "all".to_string(),
                jobs: cells,
            }],
        }
    }
}

/// Table III at paper scale followed by the Table V slice.
pub fn paper_slice_cells() -> Vec<Job> {
    let mut jobs: Vec<Job> = kernel_names()
        .into_iter()
        .flat_map(|k| {
            TABLE3_ALGOS
                .iter()
                .map(move |a| Job::new(k, a, TABLE3_THRESHOLD, Scale::Paper))
        })
        .collect();
    jobs.extend(
        SLICE
            .iter()
            .map(|(b, a)| Job::new(b, a, SLICE_THRESHOLD, Scale::Paper)),
    );
    jobs
}

/// Every Table V cell at small scale: 7 apps × 5 algorithms × 3
/// thresholds.
pub fn table5_small_cells() -> Vec<Job> {
    let mut jobs = Vec::new();
    for t in TABLE5_THRESHOLDS {
        for b in application_names() {
            for a in TABLE5_ALGOS {
                jobs.push(Job::new(b, a, t, Scale::Small));
            }
        }
    }
    jobs
}

/// The cells serve-probe campaigns draw from: every kernel × the six
/// Table III algorithms × the three Table V thresholds, at small scale.
pub fn serve_pool() -> Vec<Job> {
    let mut jobs = Vec::new();
    for t in TABLE5_THRESHOLDS {
        for k in kernel_names() {
            for a in TABLE3_ALGOS {
                jobs.push(Job::new(k, a, t, Scale::Small));
            }
        }
    }
    jobs
}

/// Every cell any workload can run (the expected-results file's domain).
pub fn all_cells() -> Vec<Job> {
    let mut jobs = paper_slice_cells();
    jobs.extend(table5_small_cells());
    jobs.extend(serve_pool());
    jobs
}

/// A seeded Fisher–Yates shuffle.
pub fn permute<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed ^ 0x6D69_7870_6265_6E63);
    for i in (1..items.len()).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

/// One serve-probe campaign submission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCampaign {
    /// Submitting tenant.
    pub tenant: &'static str,
    /// Idempotency key, unique within a run.
    pub key: String,
    /// The campaign's cells.
    pub jobs: Vec<Job>,
}

/// The first `n` campaigns of the seeded serve-probe stream.
pub fn serve_campaigns(seed: u64, n: usize) -> Vec<ServeCampaign> {
    let pool = serve_pool();
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_6563_6C64);
    (0..n)
        .map(|i| {
            let tenant = TENANTS[rng.next_range(TENANTS.len() as u64) as usize];
            let cells = 1 + rng.next_range(MAX_CAMPAIGN_CELLS as u64) as usize;
            let jobs = (0..cells)
                .map(|_| pool[rng.next_range(pool.len() as u64) as usize].clone())
                .collect();
            ServeCampaign {
                tenant,
                key: format!("s{seed}-c{i}"),
                jobs,
            }
        })
        .collect()
}

/// The distinct benchmark names among `jobs`, in first-seen order.
pub fn distinct_benchmarks(jobs: &[Job]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for job in jobs {
        if !names.contains(&job.benchmark) {
            names.push(job.benchmark.clone());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_workload_definitions() {
        assert_eq!(paper_slice_cells().len(), 60 + 7);
        assert_eq!(table5_small_cells().len(), 105);
        assert_eq!(serve_pool().len(), 180);
        let apps: Vec<String> = distinct_benchmarks(&paper_slice_cells()[60..]);
        assert_eq!(apps.len(), 7, "the slice touches every application");
        let algos: Vec<&str> = SLICE.iter().map(|(_, a)| *a).collect();
        for a in TABLE5_ALGOS {
            assert!(algos.contains(&a), "slice misses {a}");
        }
    }

    #[test]
    fn same_seed_same_serve_campaigns_different_seed_different() {
        let a = serve_campaigns(7, 300);
        assert_eq!(a, serve_campaigns(7, 300));
        assert_ne!(a, serve_campaigns(8, 300));
        assert!(a
            .iter()
            .all(|c| (1..=MAX_CAMPAIGN_CELLS).contains(&c.jobs.len())));
        let mut keys: Vec<&str> = a.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 300, "keys are unique");
    }

    #[test]
    fn permutation_is_seeded() {
        let cells = table5_small_cells();
        let a = permute(cells.clone(), 1);
        assert_eq!(a, permute(cells.clone(), 1));
        assert_ne!(a, permute(cells.clone(), 2));
        let mut sorted: Vec<String> = a.iter().map(|j| format!("{j:?}")).collect();
        let mut orig: Vec<String> = cells.iter().map(|j| format!("{j:?}")).collect();
        sorted.sort();
        orig.sort();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn pass_count_depends_only_on_the_run_length() {
        for w in Workload::ALL {
            assert_eq!(w.passes(0.0), MIN_PASSES);
            assert_eq!(w.passes(1000.0), w.passes(1000.0));
        }
        assert_eq!(Workload::Table5Small.passes(28.0), 20);
        assert_ne!(
            Workload::Table5Small.pass_cells(3, 0),
            Workload::Table5Small.pass_cells(3, 1)
        );
    }

    #[test]
    fn segments_partition_the_pass() {
        for w in Workload::ALL {
            let segments = w.pass_segments(5, 2);
            let joined: Vec<Job> = segments.iter().flat_map(|s| s.jobs.clone()).collect();
            let mut got: Vec<String> = joined.iter().map(|j| format!("{j:?}")).collect();
            let mut want: Vec<String> = w
                .pass_cells(5, 2)
                .iter()
                .map(|j| format!("{j:?}"))
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{}", w.name());
            let mut labels: Vec<&str> = segments.iter().map(|s| s.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), segments.len(), "labels name one segment each");
        }
        let paper = Workload::PaperSlice.pass_segments(5, 2);
        assert_eq!(paper.len(), 17, "one segment per benchmark");
        assert!(paper
            .iter()
            .all(|s| s.jobs.iter().all(|j| j.benchmark == s.label)));
        assert_eq!(Workload::Table5Small.pass_segments(5, 2).len(), 1);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
