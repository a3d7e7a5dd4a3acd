//! What a run hands back and how it is printed: named metrics with units,
//! the JSON result line, the provenance line, and process memory.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Result type of the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// End-to-end metrics `(name, unit)`: printed by every workload with
/// tracing off. The same list, with direction and bound, is in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("cum_response_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("storage.scan.us_per_q", "us"),
    ("cracking.kernels.us_per_q", "us"),
    ("cracking.kernels.dispatches", "count"),
    ("cracking.kernels.values_swept", "count"),
    ("cracking.cracker.self_us_per_q", "us"),
    ("cracking.cracker.pieces", "count"),
    ("cracking.cracker.zero_read_ratio", "ratio"),
    ("cracking.concurrent.self_us_per_q", "us"),
    ("cracking.concurrent.sharded_self_us_per_q", "us"),
    ("cracking.concurrent.exclusive_share", "ratio"),
    ("core.engine.self_us_per_q", "us"),
    ("core.engine.batch_us_per_q", "us"),
    ("server.core.self_us_per_q", "us"),
    ("server.core.mean_batch", "count"),
    ("server.net.self_us_per_q", "us"),
    ("trace_overhead_pct", "%"),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Smoke scale: tiny sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Directory for trace files and persistence scratch (inside the
    /// checkout the command runs from).
    pub out_dir: PathBuf,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: Cow<'static, str>,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with a fixed name.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: Cow::Borrowed(name),
            value,
            unit,
        }
    }

    /// A metric whose name is built at run time.
    #[must_use]
    pub fn owned(name: String, value: f64, unit: &'static str) -> Self {
        Metric {
            name: Cow::Owned(name),
            value,
            unit,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Whether every output was right (no failed op, durability held).
    pub correct: bool,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Further named values, printed but not part of the result line.
    pub diagnostics: Vec<Metric>,
}

impl Outcome {
    /// The value of metric `name`, if the run produced it.
    #[cfg(test)]
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Checks that the metrics are exactly `expected`, in any order, each
    /// finite and in its unit.
    pub fn check_metrics(&self, expected: &[(&str, &str)]) -> Res<()> {
        for (name, unit) in expected {
            let found = self.metrics.iter().find(|m| m.name == *name);
            let metric = found.ok_or_else(|| format!("metric {name} was not produced"))?;
            if metric.unit != *unit {
                return Err(format!("metric {name} has unit {}, not {unit}", metric.unit).into());
            }
            if !metric.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", metric.value).into());
            }
        }
        if self.metrics.len() != expected.len() {
            return Err(format!(
                "{} metrics produced, {} expected",
                self.metrics.len(),
                expected.len()
            )
            .into());
        }
        Ok(())
    }

    /// The one-line JSON result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// Prints every metric and diagnostic by name, with its unit.
    pub fn print_table(&self, workload: &str, traced: bool) {
        let kind = if traced {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        println!("== {workload}: {kind} ==");
        println!(
            "attempted {}  failed {}  fail_share {:.6}  correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
        for m in &self.metrics {
            println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        if !self.diagnostics.is_empty() {
            println!("  -- diagnostics (not in the result line) --");
            for m in &self.diagnostics {
                println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
            }
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` does not say.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
#[must_use]
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The provenance line: where and how the numbers below it were produced.
/// `clients` is the workload's concurrent client count, so a multi-thread
/// number from a box with fewer hardware threads is labelled in the data.
#[must_use]
pub fn provenance_line(
    workload: &str,
    ctx: &Ctx,
    traced: bool,
    clients: usize,
    frozen: &str,
) -> String {
    let threads = hw_threads();
    format!(
        "PROVENANCE {{\"workload\": \"{workload}\", \"git_sha\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {traced}, \"smoke\": {}, \"hw_threads\": {threads}, \"clients\": {clients}, \"oversubscribed\": {}, \"rustc\": \"{}\", \"frozen\": {frozen}}}",
        git_sha(),
        ctx.seed,
        ctx.seconds,
        ctx.smoke,
        clients > threads,
        rustc_version(),
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// in a checkout that is not a repository.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.len() >= 7 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha.to_string()
    } else {
        "unknown".to_string()
    }
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().replace('"', "'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: vec![
                Metric::new("setup_s", 0.5, "s"),
                Metric::new("p50_us", 1.25, "us"),
            ],
            diagnostics: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        assert_eq!(
            outcome().result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn check_metrics_rejects_missing_extra_and_non_finite() {
        let o = outcome();
        assert!(o
            .check_metrics(&[("setup_s", "s"), ("p50_us", "us")])
            .is_ok());
        assert!(o.check_metrics(&[("setup_s", "s")]).is_err());
        assert!(o
            .check_metrics(&[("setup_s", "s"), ("p99_us", "us")])
            .is_err());
        assert!(o
            .check_metrics(&[("setup_s", "ms"), ("p50_us", "us")])
            .is_err());
        let mut bad = outcome();
        bad.metrics[0].value = f64::NAN;
        assert!(bad
            .check_metrics(&[("setup_s", "s"), ("p50_us", "us")])
            .is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::workloads::ALL.map(|w| w.name) {
            let entry = format!("\"name\": \"{workload}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(hw_threads() >= 1);
    }
}
