//! Shared configuration for the figure-regeneration benches.
//!
//! Every `cargo bench -p iac-bench --bench <figure>` target prints the
//! corresponding paper artifact (series + headline numbers) to stdout.
//! Results are deterministic for a given scale.
//!
//! Scale control: set `IAC_BENCH_SCALE=quick|paper` (default `paper`).
//! `quick` shrinks pick/slot counts ~10× for smoke runs.
//!
//! The [`micro`] module is the shared §9 micro-benchmark registry and
//! [`baseline`] the regression harness behind the `baseline` binary and the
//! committed `BENCH_*.json` files (see `docs/PERFORMANCE.md`).

use iac_sim::experiment::{ExperimentConfig, DEFAULT_SEED};

pub mod baseline;
pub mod micro;

/// Bench scale selected via the `IAC_BENCH_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-quality sizes (the default).
    Paper,
    /// ~10× smaller smoke-test sizes.
    Quick,
}

/// Read the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("IAC_BENCH_SCALE").as_deref() {
        Ok("quick") => Scale::Quick,
        _ => Scale::Paper,
    }
}

/// The per-figure experiment configuration at the chosen scale.
///
/// The six figure bench targets call it.
pub fn experiment_config() -> ExperimentConfig {
    match scale() {
        Scale::Paper => ExperimentConfig {
            picks: 40,
            slots: 100,
            ..ExperimentConfig::paper_default(DEFAULT_SEED)
        },
        Scale::Quick => ExperimentConfig {
            picks: 8,
            slots: 20,
            ..ExperimentConfig::paper_default(DEFAULT_SEED)
        },
    }
}

/// Print the standard bench header.
pub fn header(figure: &str, paper_headline: &str) {
    println!("==========================================================================");
    println!("{figure}");
    println!("paper headline: {paper_headline}");
    println!(
        "scale: {:?} (set IAC_BENCH_SCALE=quick for a smoke run)",
        scale()
    );
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // The env var is unset in test runs.
        if std::env::var("IAC_BENCH_SCALE").is_err() {
            assert_eq!(scale(), Scale::Paper);
        }
    }

    #[test]
    fn config_sizes_differ_by_scale() {
        let paper = ExperimentConfig {
            picks: 40,
            slots: 100,
            ..ExperimentConfig::paper_default(DEFAULT_SEED)
        };
        assert!(paper.picks > ExperimentConfig::quick(0).picks);
    }
}
