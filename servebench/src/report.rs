//! The run report: run metadata, every metric with its unit and sample
//! count, and the one-line JSON result that ends standard output.

use std::path::Path;
use std::process::Command;

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What a run was measured on, so results can be compared honestly.
pub struct RunInfo {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Uncommitted changes to tracked files (`None`: not a checkout).
    pub dirty: Option<bool>,
    /// Cores available to this process.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
}

impl RunInfo {
    /// Collects the metadata of the current directory's checkout.
    pub fn collect() -> RunInfo {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        // Only a repository rooted here counts: git would otherwise
        // describe whatever repository encloses the checkout.
        let in_repo = Path::new(".git").exists();
        let git = |args: &[&str]| if in_repo { run("git", args) } else { None };
        let commit = git(&["rev-parse", "HEAD"]);
        let dirty = commit
            .as_ref()
            .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
            .map(|s| !s.is_empty());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        RunInfo {
            commit: commit.unwrap_or_else(|| "unknown".into()),
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Whether the run may stand as a point on the performance
    /// trajectory: only runs of a known, clean commit.
    pub fn is_trajectory_point(&self) -> bool {
        self.dirty == Some(false)
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics,
/// as one JSON object.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
