//! Benchmark-baseline recording and regression checking.
//!
//! The repo root carries one committed JSON map per suite —
//! `BENCH_micro_ops.json` (alignment + linalg groups) and
//! `BENCH_sample_ops.json` (the sample-plane group) — of per-target median
//! nanoseconds. The `baseline` binary re-runs the registered workloads
//! (see [`crate::micro`]) at a quick scale and either **records** fresh
//! medians into those files or **checks** the current build against them,
//! failing on any regression beyond a configurable threshold.
//!
//! Baselines are machine-specific wall-clock numbers: re-record
//! (`baseline record`) when the hardware changes, and expect CI to compare
//! only against baselines recorded on comparable runners.

use criterion::{json, Criterion};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default allowed median regression before a check fails (25 %).
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// The two committed suites: file stem and registration function.
pub fn suites() -> Vec<Suite> {
    vec![
        Suite {
            file: "BENCH_micro_ops.json",
            register: crate::micro::register_micro,
        },
        Suite {
            file: "BENCH_sample_ops.json",
            register: crate::micro::register_sample,
        },
    ]
}

/// One baseline-gated benchmark suite.
pub struct Suite {
    /// Baseline file name at the repo root.
    pub file: &'static str,
    /// Registers the suite's benchmark groups on a criterion driver.
    pub register: fn(&mut Criterion),
}

/// Quick-scale measurement configuration: enough samples for a stable
/// median, small enough that both suites finish in well under a minute.
fn quick_criterion(json_path: PathBuf) -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300))
        .json_output(Some(json_path))
}

/// Run one suite's workloads, merging medians into `json_path`.
pub fn measure(suite: &Suite, json_path: &Path) -> std::io::Result<Vec<(String, f64)>> {
    // Start from a clean slate so retired targets do not linger.
    if json_path.exists() {
        std::fs::remove_file(json_path)?;
    }
    let mut criterion = quick_criterion(json_path.to_path_buf());
    (suite.register)(&mut criterion);
    let text = std::fs::read_to_string(json_path)?;
    json::parse_flat_map(&text).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is not a flat JSON map", json_path.display()),
        )
    })
}

/// The verdict of comparing one target against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `group/id` target name.
    pub target: String,
    /// Committed baseline median, ns.
    pub baseline_ns: f64,
    /// Freshly measured median, ns (`None` when the target disappeared).
    pub measured_ns: Option<f64>,
    /// `measured/baseline − 1` (positive = slower).
    pub delta: Option<f64>,
}

impl Comparison {
    /// True when this target regressed beyond `threshold` or vanished.
    pub fn failed(&self, threshold: f64) -> bool {
        match self.delta {
            Some(d) => d > threshold,
            None => true,
        }
    }
}

/// Compare measured medians against a committed baseline map.
pub fn compare(baseline: &[(String, f64)], measured: &[(String, f64)]) -> Vec<Comparison> {
    baseline
        .iter()
        .map(|(target, base)| {
            let measured_ns = measured
                .iter()
                .find(|(t, _)| t == target)
                .map(|&(_, ns)| ns);
            Comparison {
                target: target.clone(),
                baseline_ns: *base,
                measured_ns,
                delta: measured_ns.map(|ns| ns / base - 1.0),
            }
        })
        .collect()
}

/// Whether `baseline record` may overwrite a committed baseline. It may
/// not when that would raise an existing target's median by more than
/// `threshold` — the regression would become the new reference — unless
/// `accept_regression` says the rise is intended. Retired targets
/// (`measured_ns` is `None`) and new ones never block a re-record.
pub fn may_record(comparisons: &[Comparison], threshold: f64, accept_regression: bool) -> bool {
    accept_regression
        || comparisons
            .iter()
            .all(|c| c.delta.is_none_or(|d| d <= threshold))
}

/// Targets present in the measurement but absent from the baseline (new
/// benchmarks that need a `baseline record` run to become gated).
pub fn ungated<'a>(baseline: &[(String, f64)], measured: &'a [(String, f64)]) -> Vec<&'a str> {
    measured
        .iter()
        .filter(|(t, _)| !baseline.iter().any(|(b, _)| b == t))
        .map(|(t, _)| t.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn comparison_flags_regressions_only() {
        let base = map(&[("g/fast", 100.0), ("g/slow", 100.0), ("g/gone", 50.0)]);
        let meas = map(&[("g/fast", 110.0), ("g/slow", 200.0), ("g/new", 1.0)]);
        let cmp = compare(&base, &meas);
        assert_eq!(cmp.len(), 3);
        assert!(!cmp[0].failed(0.25), "10% slower is within a 25% threshold");
        assert!(cmp[1].failed(0.25), "2x slower must fail");
        assert!(cmp[2].failed(0.25), "vanished target must fail");
        assert_eq!(ungated(&base, &meas), vec!["g/new"]);
    }

    #[test]
    fn threshold_boundary() {
        let base = map(&[("g/a", 100.0)]);
        let exactly = compare(&base, &map(&[("g/a", 125.0)]));
        assert!(!exactly[0].failed(0.25), "exactly at threshold passes");
        let above = compare(&base, &map(&[("g/a", 126.0)]));
        assert!(above[0].failed(0.25));
    }

    #[test]
    fn record_refuses_a_raised_median_unless_accepted() {
        let base = map(&[("g/a", 100.0), ("g/gone", 50.0)]);
        let faster = compare(&base, &map(&[("g/a", 60.0), ("g/new", 1.0)]));
        assert!(
            may_record(&faster, 0.25, false),
            "speedups and retirements record"
        );
        let at_threshold = compare(&base, &map(&[("g/a", 125.0)]));
        assert!(may_record(&at_threshold, 0.25, false));
        let raised = compare(&base, &map(&[("g/a", 126.0)]));
        assert!(!may_record(&raised, 0.25, false), "a >25% rise is refused");
        assert!(
            may_record(&raised, 0.25, true),
            "--accept-regression records it"
        );
        assert!(
            may_record(&compare(&[], &map(&[("g/a", 1.0)])), 0.25, false),
            "first record"
        );
    }

    #[test]
    fn suites_cover_both_files() {
        let names: Vec<_> = suites().iter().map(|s| s.file).collect();
        assert_eq!(names, vec!["BENCH_micro_ops.json", "BENCH_sample_ops.json"]);
    }
}
