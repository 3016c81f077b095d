//! Result bookkeeping: operations and checks attempted, failures, and the
//! metric list printed as the run's last line.

use crate::stats::{best_of, fastest, tail};
use iac_sim::stats::quantile;
use std::fmt::Write as _;

/// Operations and output checks attempted, and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Timed operations plus output checks.
    pub attempted: u64,
    /// One line per failed operation or mismatched output.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count `n` timed operations that completed.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Count one output check; record `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed operations and checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Check the names and units against a catalogue: every metric once,
    /// nothing else, every value finite.
    pub fn check_against(&self, catalogue: &[(String, String)], tally: &mut Tally) {
        for (name, unit) in catalogue {
            let found: Vec<_> = self.0.iter().filter(|(n, _, _)| n == name).collect();
            tally.check(
                found.len() == 1 && found[0].2 == unit && found[0].1.is_finite(),
                || format!("metric {name} ({unit}) missing, repeated or not finite"),
            );
        }
        for (name, _, _) in &self.0 {
            tally.check(catalogue.iter().any(|(n, _)| n == name), || {
                format!("metric {name} is not in the catalogue")
            });
        }
    }

    /// A human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "  {name:<40} {value:>16.6} {unit}");
        }
        s
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, tally: &Tally) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            tally.failures.is_empty(),
            tally.attempted.max(1),
            tally.failed()
        )
    }
}

/// The end-to-end metrics of an untraced run from its set-up times (s) and
/// its passes, each `(wall s, per-operation latency ms)` with the same
/// operations in the same order. Each operation's latency is its fastest
/// time over the run's passes ([`best_of`]), and so is the rest of a pass
/// (wall time outside the operations: dispatch, reduce, the client loop).
/// `sweep_s` is the sum of all of these, the latencies the operations'
/// median and tail. `setup_s` is the fastest set-up.
///
/// # Panics
/// Panics with no set-ups or with ten or fewer operations a pass.
pub fn end_to_end(
    workload: &str,
    setups: &[f64],
    passes: &[(f64, Vec<f64>)],
    peak_rss_mb: f64,
) -> Metrics {
    assert!(!setups.is_empty(), "set-ups ran");
    let best = best_of(passes.iter().map(|p| p.1.as_slice()));
    let rests_ms: Vec<f64> = passes
        .iter()
        .map(|(wall, ops)| wall * 1e3 - ops.iter().sum::<f64>())
        .collect();
    let sweep_s = (best.iter().sum::<f64>() + fastest(&rests_ms).max(0.0)) / 1e3;
    let (tail_pct, tail_ms) = tail(&best).expect("more than ten operations a pass");
    println!(
        "{workload}: {} passes of {} operations (pass wall s: {}); best-of-passes sum {sweep_s:.4} s; \
         tail = p{tail_pct:.2}; setup fastest of {}",
        passes.len(),
        best.len(),
        passes.iter().map(|p| format!("{:.3}", p.0)).collect::<Vec<_>>().join(" "),
        setups.len()
    );
    let mut m = Metrics::default();
    m.push("sweep_s", sweep_s, "s");
    m.push("setup_s", fastest(setups), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m.push("requests_per_s", best.len() as f64 / sweep_s, "1/s");
    m.push("latency_p50_ms", quantile(&best, 0.5), "ms");
    m.push("latency_p99_ms", tail_ms, "ms");
    m
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("sweep_s", 0.25, "s");
        m.push("latency_p50_ms", 1.5, "ms");
        let mut t = Tally::default();
        t.ops(3);
        t.check(true, || unreachable!());
        assert_eq!(
            m.result_json(&t),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"sweep_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        t.check(false, || "mismatch".into());
        assert!(m
            .result_json(&t)
            .starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1"));
    }

    #[test]
    fn catalogue_check_flags_missing_and_extra() {
        let cat = vec![("a".into(), "s".into()), ("b".into(), "ms".into())];
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("c", 1.0, "s");
        let mut t = Tally::default();
        m.check_against(&cat, &mut t);
        assert_eq!(t.failed(), 2, "{:?}", t.failures);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
