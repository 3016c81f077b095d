//! Chaos-injection scenarios, available only when the daemon runs with
//! `chaos: true` (CLI `--chaos`). They exist so tests and the CI chaos
//! gate can exercise every failure path with real requests:
//!
//! | scenario            | injected fault                                     |
//! |---------------------|----------------------------------------------------|
//! | `chaos_panic`       | every replicate panics                             |
//! | `chaos_flaky`       | panics iff the derived trial seed is odd           |
//! | `chaos_slow`        | ~30 ms per replicate (deadline/timeout testing)    |
//! | `chaos_sleepy`      | ~300 ms per replicate (concurrency smoke)          |
//! | `chaos_kill_worker` | worker thread exits without replying (worker loss) |
//!
//! All of them (except the kill, which never produces output) emit
//! deterministic seed-derived metrics, so chaos runs are held to the same
//! bit-identity contract as real scenarios. Sleeps burn wall-clock, not
//! CPU, which is what lets the concurrency smoke prove N parallel requests
//! overlap even on a single-core runner.

use std::time::Duration;

use iac_sim::registry::{Quality, Scenario, TrialOutput};

/// Name the daemon maps to [`crate::pool::JobKind::Kill`] submissions.
pub const KILL_SCENARIO: &str = "chaos_kill_worker";

fn metric(seed: u64) -> TrialOutput {
    TrialOutput {
        // Deterministic, seed-derived, and spread over [0, 1).
        metrics: vec![("chaos_value", (seed % 1000) as f64 / 1000.0)],
    }
}

/// Panics unconditionally.
pub fn chaos_panic(_quality: Quality, seed: u64) -> TrialOutput {
    panic!("chaos_panic: injected failure (trial seed {seed:#x})");
}

/// Panics on odd trial seeds, succeeds on even ones.
pub fn chaos_flaky(_quality: Quality, seed: u64) -> TrialOutput {
    if seed % 2 == 1 {
        panic!("chaos_flaky: injected failure (trial seed {seed:#x})");
    }
    metric(seed)
}

/// Sleeps ~30 ms, then succeeds — slow enough to trip tight deadlines.
pub fn chaos_slow(_quality: Quality, seed: u64) -> TrialOutput {
    std::thread::sleep(Duration::from_millis(30));
    metric(seed)
}

/// Sleeps ~300 ms, then succeeds — long enough that a fast request issued
/// concurrently must finish first unless the daemon serializes.
pub fn chaos_sleepy(_quality: Quality, seed: u64) -> TrialOutput {
    std::thread::sleep(Duration::from_millis(300));
    metric(seed)
}

/// The chaos scenario table, as registry rows. [`KILL_SCENARIO`] is listed
/// with a no-op entry point; the daemon special-cases the name into Kill
/// jobs before any trial would run.
pub fn scenarios() -> Vec<Scenario> {
    [
        ("chaos_panic", chaos_panic as fn(Quality, u64) -> TrialOutput, 2),
        ("chaos_flaky", chaos_flaky, 2),
        ("chaos_slow", chaos_slow, 4),
        ("chaos_sleepy", chaos_sleepy, 1),
        (KILL_SCENARIO, metric_entry, 1),
    ]
    .into_iter()
    .map(|(name, run, default_replicates)| Scenario {
        name,
        about: "chaos injection (see iac_serve::chaos)",
        default_replicates,
        run,
    })
    .collect()
}

fn metric_entry(_quality: Quality, seed: u64) -> TrialOutput {
    metric(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_metrics_are_deterministic() {
        assert_eq!(chaos_flaky(Quality::Quick, 42), chaos_flaky(Quality::Paper, 42));
        assert_eq!(metric(123).metrics, vec![("chaos_value", 0.123)]);
    }

    #[test]
    fn flaky_panics_only_on_odd_seeds() {
        let err = std::panic::catch_unwind(|| chaos_flaky(Quality::Quick, 7)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("chaos_flaky"), "{msg}");
        assert!(std::panic::catch_unwind(|| chaos_flaky(Quality::Quick, 8)).is_ok());
    }
}
