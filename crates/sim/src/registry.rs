//! The unified scenario registry.
//!
//! Every paper artifact in [`crate::scenarios`] — the figure scatters, the
//! ablations, the §6 practicality checks, and the discrete-event
//! time-domain scenarios — registers here under one uniform entry point:
//! a pure function `(Quality, seed) → TrialOutput` returning named scalar
//! metrics. On top of that uniform surface the registry provides replicated
//! execution through the parallel [`crate::engine`], reducing `replicates`
//! independent trials to `mean ± 95 % CI` per metric.
//!
//! # Seeding contract
//!
//! One master seed reproduces an entire sweep:
//!
//! ```text
//! scenario_seed = Rng64::derive_seed(master, fnv1a(scenario_name))
//! trial_seed[i] = Rng64::derive_seed(scenario_seed, i)
//! ```
//!
//! Each trial's output is a pure function of its trial seed, so the reduced
//! report is bit-identical for every worker-thread count (property-tested in
//! `crates/sim/tests/engine_parallel.rs`) and `--seed` on
//! `examples/sweep.rs` reaches every scenario — nothing hard-codes a seed.
//!
//! # Adding a scenario
//!
//! Write a `fn(Quality, u64) -> TrialOutput` wrapper that builds the
//! scenario's config from the seed (use its `quick(seed)` /
//! `paper_default(seed)` constructors; never a constant), extract a few
//! stable headline metrics, and push a [`Scenario`] row in [`all`]. That
//! one function is the whole trial: telemetry needs no second entry point,
//! because every `netsim::run_netsim` call inside an observed trial reports
//! its DES facts to the engine lane on its own. Then regenerate the golden
//! snapshots (`UPDATE_GOLDENS=1 cargo test -p iac-sim --test goldens`) if
//! the scenario is golden-gated. See `docs/EXPERIMENTS.md` for the longer
//! walkthrough.

use crate::engine::{self, Deadline, TrialPanic};
use crate::experiment::ExperimentConfig;
use crate::obs::SweepObs;
use crate::scenarios::{
    ablations, clustered, des_campus, des_load, fig12, fig13, fig14, fig15, fig16, lemmas, ofdm,
    overhead, robustness, sec6,
};
use crate::stats;
use iac_linalg::Rng64;

/// How heavy a trial should be: `Quick` for tests and smoke runs, `Paper`
/// for figure-quality statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Test-sized configs (each scenario's `quick(seed)` sizing).
    Quick,
    /// Full figure-quality configs (`paper_default(seed)` sizing).
    Paper,
}

impl Quality {
    /// Stable lowercase label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Quality::Quick => "quick",
            Quality::Paper => "paper",
        }
    }
}

/// One trial's result: named scalar metrics, in a stable order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// `(metric name, value)` pairs; every trial of a scenario must emit
    /// the same names in the same order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl TrialOutput {
    fn new(metrics: Vec<(&'static str, f64)>) -> Self {
        Self { metrics }
    }
}

/// A registered scenario: a name, a one-line description, and the uniform
/// entry point.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable id (`sweep --scenario <name>`, golden file stem).
    pub name: &'static str,
    /// What the scenario reproduces.
    pub about: &'static str,
    /// Replicates a paper-quality sweep defaults to.
    pub default_replicates: usize,
    /// The uniform entry point: one independent trial from one seed.
    pub run: fn(Quality, u64) -> TrialOutput,
}

/// FNV-1a over the scenario name: a stable, dependency-free name hash for
/// the per-scenario seed stream.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The per-scenario master seed derived from the sweep's master seed.
pub fn scenario_seed(master: u64, name: &str) -> u64 {
    Rng64::derive_seed(master, fnv1a(name))
}

fn base(quality: Quality, seed: u64) -> ExperimentConfig {
    match quality {
        Quality::Quick => ExperimentConfig::quick(seed),
        Quality::Paper => ExperimentConfig::paper_default(seed),
    }
}

fn gains(points: &[crate::experiment::ScatterPoint]) -> Vec<f64> {
    points.iter().map(|p| p.gain()).collect()
}

fn run_fig12(q: Quality, seed: u64) -> TrialOutput {
    let r = fig12::run(&base(q, seed));
    let g = gains(&r.points);
    let s = stats::Summary::of(&g);
    TrialOutput::new(vec![
        ("average_gain", r.average_gain()),
        ("gain_min", s.min),
        ("gain_median", s.median),
        ("gain_max", s.max),
        (
            "baseline_mean",
            stats::mean(&r.points.iter().map(|p| p.baseline).collect::<Vec<_>>()),
        ),
    ])
}

fn run_fig13(q: Quality, seed: u64, direction: fig13::Direction13) -> TrialOutput {
    let r = fig13::run(&base(q, seed), direction);
    let (lo, hi) = r.gain_by_rate_half();
    TrialOutput::new(vec![
        ("average_gain", r.average_gain()),
        ("gain_low_half", lo),
        ("gain_high_half", hi),
    ])
}

fn run_fig13a(q: Quality, seed: u64) -> TrialOutput {
    run_fig13(q, seed, fig13::Direction13::Uplink)
}

fn run_fig13b(q: Quality, seed: u64) -> TrialOutput {
    run_fig13(q, seed, fig13::Direction13::Downlink)
}

fn run_fig14(q: Quality, seed: u64) -> TrialOutput {
    let r = fig14::run(&base(q, seed));
    let (lo, hi) = r.gain_by_rate_half();
    TrialOutput::new(vec![
        ("average_gain", r.average_gain()),
        ("split_fraction", r.split_fraction),
        ("gain_low_half", lo),
        ("gain_high_half", hi),
    ])
}

fn run_fig15(q: Quality, seed: u64, direction: fig15::Direction15) -> TrialOutput {
    let cfg = match q {
        Quality::Quick => fig15::Fig15Config::quick(seed),
        Quality::Paper => fig15::Fig15Config::paper_default(seed),
    };
    let r = fig15::run(&cfg, direction);
    TrialOutput::new(vec![
        ("gain_brute_force", r.average_gain(fig15::PolicyKind::BruteForce)),
        ("gain_fifo", r.average_gain(fig15::PolicyKind::Fifo)),
        ("gain_best_of_two", r.average_gain(fig15::PolicyKind::BestOfTwo)),
        (
            "min_gain_best_of_two",
            r.min_gain(fig15::PolicyKind::BestOfTwo),
        ),
        (
            "losers_fraction_brute_force",
            r.losers_fraction(fig15::PolicyKind::BruteForce),
        ),
    ])
}

fn run_fig15a(q: Quality, seed: u64) -> TrialOutput {
    run_fig15(q, seed, fig15::Direction15::Uplink)
}

fn run_fig15b(q: Quality, seed: u64) -> TrialOutput {
    run_fig15(q, seed, fig15::Direction15::Downlink)
}

fn run_fig16(q: Quality, seed: u64) -> TrialOutput {
    let (pairs, moves) = match q {
        Quality::Quick => (8, 3),
        Quality::Paper => (17, 5),
    };
    let r = fig16::run(&base(q, seed), pairs, moves);
    TrialOutput::new(vec![
        ("average_error", r.average_error()),
        ("worst_error", r.worst_error()),
    ])
}

fn run_fig17(q: Quality, seed: u64) -> TrialOutput {
    let cfg = match q {
        Quality::Quick => ExperimentConfig {
            slots: 30,
            ..ExperimentConfig::quick(seed)
        },
        Quality::Paper => ExperimentConfig::paper_default(seed),
    };
    // Weak 6 dB inter-cluster bottleneck, fast 20 b/s/Hz intra links.
    let r = clustered::run(&cfg, 6.0, 20.0);
    TrialOutput::new(vec![
        ("end_to_end_gain", r.gain()),
        ("bottleneck_mimo", r.bottleneck_mimo),
        ("bottleneck_iac", r.bottleneck_iac),
    ])
}

fn run_lemmas(q: Quality, seed: u64) -> TrialOutput {
    let m_max = match q {
        Quality::Quick => 3,
        Quality::Paper => 4,
    };
    let r = lemmas::run(m_max, seed);
    let achieved = r.rows.iter().filter(|row| row.achieved).count();
    TrialOutput::new(vec![
        (
            "achieved_fraction",
            achieved as f64 / r.rows.len() as f64,
        ),
        (
            "max_residual",
            r.rows.iter().map(|row| row.residual).fold(0.0, f64::max),
        ),
        (
            "min_sinr",
            r.rows
                .iter()
                .map(|row| row.min_sinr)
                .fold(f64::INFINITY, f64::min),
        ),
        (
            "total_packets",
            r.rows.iter().map(|row| row.packets as f64).sum(),
        ),
    ])
}

fn run_sec6_ofdm(q: Quality, seed: u64) -> TrialOutput {
    let (bins, taps, trials) = match q {
        Quality::Quick => (16, 4, 6),
        Quality::Paper => (64, 6, 24),
    };
    let r = ofdm::run(bins, taps, trials, seed);
    TrialOutput::new(vec![
        (
            "flat_worst_at_max_taps",
            r.points.last().map_or(0.0, |p| p.flat_worst),
        ),
        (
            "per_bin_worst_overall",
            r.points.iter().map(|p| p.per_bin_worst).fold(0.0, f64::max),
        ),
    ])
}

fn run_sec7_overhead(_q: Quality, seed: u64) -> TrialOutput {
    let r = overhead::run(3, 1440, seed);
    TrialOutput::new(vec![
        ("wireless_overhead", r.wireless_overhead),
        ("wire_bytes_per_wireless_byte", r.wire_bytes_per_wireless_byte),
        ("virtual_mimo_multiplier", r.virtual_mimo_multiplier),
    ])
}

fn run_sec6_cfo(q: Quality, seed: u64) -> TrialOutput {
    let payload = match q {
        Quality::Quick => 120,
        Quality::Paper => 400,
    };
    let r = sec6::run_cfo_sweep(payload, seed);
    TrialOutput::new(vec![
        (
            "worst_ber",
            r.points.iter().map(|p| p.worst_ber).fold(0.0, f64::max),
        ),
        (
            "min_alignment",
            r.points
                .iter()
                .map(|p| p.alignment)
                .fold(f64::INFINITY, f64::min),
        ),
        (
            "crc_all_ok",
            if r.points.iter().all(|p| p.all_ok) { 1.0 } else { 0.0 },
        ),
    ])
}

fn run_sec6_modulation(_q: Quality, seed: u64) -> TrialOutput {
    let r = sec6::run_modulation_matrix(seed);
    TrialOutput::new(vec![
        (
            "residual_errors_total",
            r.rows.iter().map(|(_, e)| *e as f64).sum(),
        ),
        ("combinations", r.rows.len() as f64),
    ])
}

fn run_ablation_estimation(q: Quality, seed: u64) -> TrialOutput {
    let slots = match q {
        Quality::Quick => 10,
        Quality::Paper => 40,
    };
    let r = ablations::estimation_sweep(seed, slots);
    TrialOutput::new(vec![
        ("gain_perfect_csi", r.points.first().map_or(0.0, |p| p.1)),
        ("gain_5db", r.points.last().map_or(0.0, |p| p.1)),
    ])
}

fn run_ablation_similarity(q: Quality, seed: u64) -> TrialOutput {
    let slots = match q {
        Quality::Quick => 12,
        Quality::Paper => 40,
    };
    let r = ablations::similarity_sweep(seed, slots);
    TrialOutput::new(vec![
        ("gain_independent", r.points.first().map_or(0.0, |p| p.1)),
        ("gain_similar", r.points.last().map_or(0.0, |p| p.1)),
    ])
}

fn run_ablation_alignment(q: Quality, seed: u64) -> TrialOutput {
    let trials = match q {
        Quality::Quick => 10,
        Quality::Paper => 40,
    };
    let r = ablations::alignment_ablation(seed, trials);
    TrialOutput::new(vec![
        ("aligned_sinr", r.aligned_sinr),
        ("random_sinr", r.random_sinr),
    ])
}

fn run_des_campus(q: Quality, seed: u64) -> TrialOutput {
    let r = des_campus::run(&crate::desrec::campus_config(q, seed));
    crate::desrec::campus_trial_output(&r)
}

fn run_des_load(q: Quality, seed: u64) -> TrialOutput {
    // Knee loads are grid-interpolated (`des_load::interpolated_knee`), so
    // all three metrics vary continuously with the seed instead of snapping
    // between swept grid loads.
    let r = des_load::run(&crate::desrec::load_config(q, seed));
    crate::desrec::load_trial_output(&r)
}

fn run_rob_ap_churn(q: Quality, seed: u64) -> TrialOutput {
    let r = robustness::run_churn(&crate::desrec::churn_config(q, seed));
    crate::desrec::churn_trial_output(&r)
}

fn run_rob_backhaul_partition(q: Quality, seed: u64) -> TrialOutput {
    let r = robustness::run_partition(&crate::desrec::partition_config(q, seed));
    crate::desrec::partition_trial_output(&r)
}

fn run_rob_csi_aging(q: Quality, seed: u64) -> TrialOutput {
    let r = robustness::run_csi_aging(&crate::desrec::aging_config(q, seed));
    crate::desrec::aging_trial_output(&r)
}

/// Every registered scenario, in presentation order.
pub fn all() -> Vec<Scenario> {
    fn s(
        name: &'static str,
        about: &'static str,
        default_replicates: usize,
        run: fn(Quality, u64) -> TrialOutput,
    ) -> Scenario {
        Scenario {
            name,
            about,
            default_replicates,
            run,
        }
    }
    vec![
        s("fig12", "2-client/2-AP uplink scatter (paper: ~1.5x)", 8, run_fig12),
        s("fig13a", "3-client/3-AP uplink, 4 packets (paper: ~1.8x)", 8, run_fig13a),
        s("fig13b", "3-client/3-AP downlink, 3 packets (paper: ~1.4x)", 8, run_fig13b),
        s("fig14", "1-client/2-AP diversity gain (paper: ~1.2x)", 8, run_fig14),
        s("fig15a", "whole-testbed uplink policy CDFs", 4, run_fig15a),
        s("fig15b", "whole-testbed downlink policy CDFs", 4, run_fig15b),
        s("fig16", "channel-reciprocity fractional error", 8, run_fig16),
        s("fig17", "clustered-mesh inter-cluster bottleneck", 8, run_fig17),
        s("lemmas", "Lemma 5.1/5.2 multiplexing-gain bounds", 4, run_lemmas),
        s("sec6_cfo", "alignment under carrier frequency offsets", 4, run_sec6_cfo),
        s("sec6_modulation", "modulation/FEC transparency", 4, run_sec6_modulation),
        s("sec6_ofdm", "per-subcarrier alignment conjecture", 8, run_sec6_ofdm),
        s("sec7_overhead", "coordination overhead accounting", 2, run_sec7_overhead),
        s("ablation_estimation", "gain vs channel-estimation SNR", 8, run_ablation_estimation),
        s("ablation_similarity", "gain vs client-channel similarity", 8, run_ablation_similarity),
        s("ablation_alignment", "alignment on/off SINR contrast", 8, run_ablation_alignment),
        s("des_campus", "dynamic-arrival campus uplink with churn", 4, run_des_campus),
        s("des_load", "offered-load sweep: latency knees", 4, run_des_load),
        s("rob_ap_churn", "decoding APs crash/recover; groups shrink", 4, run_rob_ap_churn),
        s("rob_backhaul_partition", "backhaul partitions; MIMO fallback + recovery", 4, run_rob_backhaul_partition),
        s("rob_csi_aging", "CSI staleness sweep: IAC degrades toward MIMO", 4, run_rob_csi_aging),
    ]
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// One metric reduced over the replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAggregate {
    /// Metric name (stable across replicates).
    pub name: &'static str,
    /// Mean over replicates.
    pub mean: f64,
    /// 95 % confidence half-width on the mean (0 for a single replicate).
    pub ci95: f64,
    /// Per-replicate values, in trial order.
    pub values: Vec<f64>,
}

/// A scenario's reduced sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario id.
    pub scenario: &'static str,
    /// Trial sizing.
    pub quality: Quality,
    /// The sweep's master seed (not the derived scenario seed).
    pub master_seed: u64,
    /// Replicates reduced.
    pub replicates: usize,
    /// Aggregates, one per registered metric.
    pub metrics: Vec<MetricAggregate>,
}

/// Format an `f64` for report JSON: the shortest round-trip `{}` rendering,
/// `null` for non-finite values. The one JSON number format of the workspace
/// (`iac-serve` streams replicate metrics with it too).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // NaN/∞ are not JSON numbers; null keeps the file parseable and the
        // comparison byte-stable.
        "null".to_string()
    }
}

impl ScenarioReport {
    /// Compact deterministic JSON: the golden-snapshot format. Excludes
    /// anything execution-dependent (thread count, timing), so the string is
    /// bit-identical for every worker count.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"scenario\":\"{}\",\"quality\":\"{}\",\"master_seed\":{},\"replicates\":{},\"metrics\":{{",
            self.scenario,
            self.quality.label(),
            self.master_seed,
            self.replicates
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let values: Vec<String> = m.values.iter().map(|&v| json_f64(v)).collect();
            out.push_str(&format!(
                "\"{}\":{{\"mean\":{},\"ci95\":{},\"values\":[{}]}}",
                m.name,
                json_f64(m.mean),
                json_f64(m.ci95),
                values.join(",")
            ));
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} — {} replicates at {} quality, master seed {:#x}",
            self.scenario,
            self.replicates,
            self.quality.label(),
            self.master_seed
        )?;
        for m in &self.metrics {
            writeln!(f, "  {:<32} {:>12.4} ± {:<10.4}", m.name, m.mean, m.ci95)?;
        }
        Ok(())
    }
}

/// Run `replicates` trials of `spec` on the engine and reduce them to
/// `mean ± 95 % CI` per metric — the one runner behind every sweep.
/// `threads` is a requested count (`0` = auto, see
/// [`engine::effective_workers`]); no replicate starts after `deadline`;
/// with `obs` the run's facts fold into it.
///
/// `Ok` carries the report over the completed prefix (its `replicates` is
/// the completed count) and whether every replicate ran. The report is
/// bit-identical for every `threads` and with or without `obs` (pinned by
/// `tests/obs_invariance.rs`). A panicking replicate comes back as `Err`.
pub fn run_replicates(
    spec: &Scenario,
    quality: Quality,
    master_seed: u64,
    replicates: usize,
    threads: usize,
    deadline: Deadline,
    obs: Option<&mut SweepObs>,
) -> Result<(ScenarioReport, bool), TrialPanic> {
    let trials = engine::trials_for(scenario_seed(master_seed, spec.name), replicates);
    let plan = engine::RunPlan {
        workers: engine::effective_workers(threads, replicates),
        deadline,
        observe: obs.is_some(),
    };
    let run = spec.run;
    let done = engine::run(replicates, &plan, |i| run(quality, trials[i].seed));
    let completed = done.outputs.len();
    if let (Some(obs), Some(facts)) = (obs, &done.facts) {
        obs.record_scenario(spec.name, facts, completed);
    }
    match done.panic {
        Some(panic) => Err(panic),
        None => Ok((
            reduce_outputs(spec.name, quality, master_seed, completed, &done.outputs),
            done.complete,
        )),
    }
}

/// [`run_replicates`] to completion, unobserved.
///
/// # Panics
/// Re-panics, naming the scenario and the replicate, if a replicate panics.
pub fn run_scenario(
    spec: &Scenario,
    quality: Quality,
    master_seed: u64,
    replicates: usize,
    threads: usize,
) -> ScenarioReport {
    let r = run_replicates(spec, quality, master_seed, replicates, threads, Deadline::none(), None);
    completed(spec, r)
}

/// [`run_replicates`] to completion, observed into `obs`. The report is
/// bit-identical to [`run_scenario`]'s.
///
/// # Panics
/// Re-panics, naming the scenario and the replicate, if a replicate panics.
pub fn run_scenario_observed(
    spec: &Scenario,
    quality: Quality,
    master_seed: u64,
    replicates: usize,
    threads: usize,
    obs: &mut SweepObs,
) -> ScenarioReport {
    let obs = Some(obs);
    let r = run_replicates(spec, quality, master_seed, replicates, threads, Deadline::none(), obs);
    completed(spec, r)
}

fn completed(spec: &Scenario, run: Result<(ScenarioReport, bool), TrialPanic>) -> ScenarioReport {
    match run {
        Ok((report, _)) => report,
        Err(p) => panic!("{} replicate {} panicked: {}", spec.name, p.replicate, p.message),
    }
}

/// The shared order-independent reduce: trial outputs (already in trial
/// order) to `mean ± 95 % CI` per metric. [`run_replicates`] goes through
/// here, so an observed sweep cannot drift from a plain one —
/// public so out-of-crate schedulers (the `iac-serve` daemon runs
/// replicates through its own worker pool) reduce through the identical
/// code path and their reports stay bit-identical to [`run_scenario`]'s.
///
/// # Panics
/// Panics if the outputs disagree on metric names (a scenario contract
/// violation, not an input error).
pub fn reduce_outputs(
    scenario: &'static str,
    quality: Quality,
    master_seed: u64,
    replicates: usize,
    outputs: &[TrialOutput],
) -> ScenarioReport {
    let mut metrics: Vec<MetricAggregate> = Vec::new();
    if let Some(first) = outputs.first() {
        for (idx, &(name, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = outputs
                .iter()
                .map(|o| {
                    assert_eq!(
                        o.metrics[idx].0, name,
                        "scenario {scenario} emitted inconsistent metric names",
                    );
                    o.metrics[idx].1
                })
                .collect();
            metrics.push(MetricAggregate {
                name,
                mean: stats::mean(&values),
                ci95: stats::ci95_half_width(&values),
                values,
            });
        }
    }
    ScenarioReport {
        scenario,
        quality,
        master_seed,
        replicates,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_matches_report_convention() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let scenarios = all();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate scenario name");
        assert!(scenarios.len() >= 18);
        assert!(find("fig12").is_some());
        assert!(find("nonesuch").is_none());
        for s in &scenarios {
            assert!(!s.about.is_empty());
            assert!(s.default_replicates >= 2);
        }
    }

    #[test]
    fn scenario_seeds_differ_by_name() {
        assert_ne!(scenario_seed(1, "fig12"), scenario_seed(1, "fig13a"));
        assert_ne!(scenario_seed(1, "fig12"), scenario_seed(2, "fig12"));
    }

    #[test]
    fn report_reduces_and_serialises() {
        let spec = find("sec7_overhead").unwrap();
        let r = run_scenario(&spec, Quality::Quick, 7, 3, 1);
        assert_eq!(r.replicates, 3);
        assert!(!r.metrics.is_empty());
        for m in &r.metrics {
            assert_eq!(m.values.len(), 3);
            assert!(m.ci95 >= 0.0);
        }
        let json = r.to_json();
        assert!(json.starts_with("{\"scenario\":\"sec7_overhead\""));
        assert!(json.contains("\"wireless_overhead\""));
        assert!(format!("{r}").contains("sec7_overhead"));
    }

    #[test]
    fn observed_scenario_report_is_bit_identical() {
        let spec = find("sec7_overhead").unwrap();
        let plain = run_scenario(&spec, Quality::Quick, 7, 3, 1);
        let mut obs = SweepObs::new();
        let observed = run_scenario_observed(&spec, Quality::Quick, 7, 3, 1, &mut obs);
        assert_eq!(plain, observed);
        assert_eq!(plain.to_json(), observed.to_json());
        let json = obs.metrics_json();
        assert!(
            json.contains("\"engine.sec7_overhead.trials\":3"),
            "engine telemetry missing from {json}"
        );
    }

    #[test]
    fn deadline_scenario_matches_unbounded_when_generous() {
        let spec = find("sec7_overhead").unwrap();
        let plain = run_scenario(&spec, Quality::Quick, 7, 3, 1);
        let bounded = |deadline| run_replicates(&spec, Quality::Quick, 7, 3, 1, deadline, None);
        let (report, complete) = bounded(Deadline::after(std::time::Duration::from_secs(3600)))
            .expect("no replicate panics");
        assert!(complete);
        assert_eq!(plain, report);
        // An already-expired deadline yields a well-formed empty report.
        let (empty, complete) =
            bounded(Deadline::after(std::time::Duration::ZERO)).expect("no replicate panics");
        assert!(!complete);
        assert_eq!(empty.replicates, 0);
        assert!(empty.metrics.is_empty());
        assert!(empty.to_json().contains("\"replicates\":0"));
    }

    fn panicky(_q: Quality, seed: u64) -> TrialOutput {
        let replicate = (0..4)
            .position(|i| Rng64::derive_seed(scenario_seed(7, "panicky"), i) == seed)
            .expect("a panicky trial seed");
        assert_ne!(replicate, 2, "replicate 2 is broken");
        TrialOutput::new(vec![("replicate", replicate as f64)])
    }

    #[test]
    fn panicking_replicate_is_an_error_not_an_abort() {
        let spec = Scenario {
            name: "panicky",
            about: "replicate 2 panics",
            default_replicates: 4,
            run: panicky,
        };
        for threads in [1, 2] {
            let err = run_replicates(&spec, Quality::Quick, 7, 4, threads, Deadline::none(), None)
                .expect_err("replicate 2 panics");
            assert_eq!(err.replicate, 2, "threads = {threads}");
            assert!(err.message.contains("replicate 2 is broken"), "{}", err.message);
        }
        // The observed path folds what ran and still reports the panic.
        let mut obs = SweepObs::new();
        let err = run_replicates(&spec, Quality::Quick, 7, 4, 1, Deadline::none(), Some(&mut obs))
            .expect_err("replicate 2 panics");
        assert_eq!(err.replicate, 2);
        assert!(obs.metrics_json().contains("\"engine.panicky.trials\":2"));
        // The completing wrappers re-panic with the scenario and replicate.
        let message = crate::engine::catch_trial(|| run_scenario(&spec, Quality::Quick, 7, 4, 1))
            .expect_err("run_scenario re-panics");
        assert!(message.starts_with("panicky replicate 2 panicked: "), "{message}");
    }

    #[test]
    fn reduce_outputs_rebuilds_a_run_scenario_report() {
        // The iac-serve contract: reducing the same trial outputs through
        // the public entry point is bit-identical to run_scenario.
        let spec = find("sec7_overhead").unwrap();
        let expected = run_scenario(&spec, Quality::Quick, 7, 3, 1);
        let scen_seed = scenario_seed(7, spec.name);
        let trials = engine::trials_for(scen_seed, 3);
        let outputs: Vec<TrialOutput> =
            trials.iter().map(|t| (spec.run)(Quality::Quick, t.seed)).collect();
        let rebuilt = reduce_outputs(spec.name, Quality::Quick, 7, 3, &outputs);
        assert_eq!(expected, rebuilt);
        assert_eq!(expected.to_json(), rebuilt.to_json());
    }

    #[test]
    fn master_seed_reaches_the_trials() {
        // The satellite fix: a different master seed must change every
        // scenario's numbers (no hard-coded seed survives).
        let spec = find("fig12").unwrap();
        let a = run_scenario(&spec, Quality::Quick, 1, 2, 1);
        let b = run_scenario(&spec, Quality::Quick, 2, 2, 1);
        assert_ne!(a.metrics[0].values, b.metrics[0].values, "--seed is ignored");
    }
}
