//! Capture metadata: what a reader needs to compare two captures.

use crate::workloads::Workload;
use std::path::Path;

/// Facts about the host, build and run settings of one capture.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Host parallelism.
    pub nproc: usize,
    /// Git revision of the checkout, or `none` outside a git checkout.
    pub revision: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Pinned pool workers.
    pub workers: usize,
    /// Pinned evaluator batch width.
    pub eval_workers: usize,
    /// Pinned pool steal policy.
    pub steal: &'static str,
    /// Whether the serve state directory sits on tmpfs (`None` when the
    /// workload runs no daemon).
    pub state_on_tmpfs: Option<bool>,
}

impl Meta {
    /// Metadata for a run of `workload` with `seed`.
    pub fn collect(workload: Workload, seed: u64, state_dir: Option<&Path>) -> Meta {
        Meta {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            revision: git_revision(Path::new(".git")),
            rustc: env!("MIXPBENCH_RUSTC"),
            seed,
            workers: workload.workers(),
            eval_workers: workload.eval_workers(),
            steal: "one",
            state_on_tmpfs: state_dir.map(on_tmpfs),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"revision\":\"{}\",\"rustc\":\"{}\",\"seed\":{},\"workers\":{},\"eval_workers\":{},\"steal\":\"{}\",\"state_on_tmpfs\":{}}}",
            self.nproc,
            self.revision,
            self.rustc,
            self.seed,
            self.workers,
            self.eval_workers,
            self.steal,
            self.state_on_tmpfs
                .map_or("null".to_string(), |b| b.to_string()),
        )
    }
}

/// The commit `git_dir`'s HEAD names, read without running git.
pub fn git_revision(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Whether `dir` lives on a tmpfs mount, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = std::fs::canonicalize(dir) else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = fields.next()?;
            let kind = fields.next()?;
            dir.starts_with(point)
                .then_some((point.len(), kind == "tmpfs"))
        })
        .max_by_key(|(len, _)| *len)
        .is_some_and(|(_, tmpfs)| tmpfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_renders_every_field() {
        let meta = Meta::collect(Workload::Table5Small, 9, None);
        let json = meta.to_json();
        for field in [
            "nproc",
            "revision",
            "rustc",
            "seed",
            "workers",
            "eval_workers",
            "steal",
            "state_on_tmpfs",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "{json}");
        }
        assert!(mixp_harness::json::parse(&json).is_ok());
    }

    #[test]
    fn missing_git_dir_reads_none() {
        assert_eq!(git_revision(Path::new("/nonexistent/.git")), "none");
    }
}
