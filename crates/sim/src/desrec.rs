//! Record/replay plumbing for the DES scenarios.
//!
//! A registry-level DES trial (`des_campus`, `des_load`) is a sequence of
//! one or more *constituent* [`NetSim`] runs — one for the campus scenario,
//! two per swept load (IAC and the 802.11-MIMO baseline) for the load
//! sweep. This module enumerates those runs for a `(scenario, quality,
//! trial seed)` triple so that each can be recorded to an event log,
//! replayed from one under bit-exact verification, and the scenario's
//! [`TrialOutput`] reconstructed from the replayed outcomes. Because spec
//! construction and report derivation are pure functions of the
//! configuration (see `des_campus::spec_for` / `des_load::point_spec`), the
//! reconstruction is the *same code path* the live registry entry uses — a
//! replayed trial cannot drift from a live one without the replay checker
//! noticing first.
//!
//! Consumers: `examples/replay.rs` (the record/replay/diff CLI), the
//! `replay_roundtrip` integration suite, and the replay goldens.

use crate::netsim::{self, CalibratedPhy, NetSim, NetSimOutcome};
use crate::registry::{Quality, TrialOutput};
use crate::scenarios::{des_campus, des_load, robustness};
use iac_des::{Divergence, EventLog};

/// The registered scenarios that support record/replay (every DES scenario
/// in the registry, including the fault-injecting `rob_*` family — faults
/// are ordinary logged events, so a faulty run records and replays exactly
/// like a clean one).
pub const DES_SCENARIOS: &[&str] = &[
    "des_campus",
    "des_load",
    "rob_ap_churn",
    "rob_backhaul_partition",
    "rob_csi_aging",
];

/// One constituent simulation run of a DES trial.
pub struct DesRun {
    /// Filesystem-safe run label, unique within the trial (log file stem).
    pub label: String,
    /// The declarative run description.
    pub spec: NetSim,
    /// The calibrated PHY the run drives.
    pub phy: CalibratedPhy,
}

/// The campus config for a quality/seed pair (the registry's sizing rule).
pub(crate) fn campus_config(quality: Quality, trial_seed: u64) -> des_campus::CampusConfig {
    match quality {
        Quality::Quick => des_campus::CampusConfig::quick(trial_seed),
        Quality::Paper => des_campus::CampusConfig::paper_default(trial_seed),
    }
}

/// The load-sweep config for a quality/seed pair (the registry's sizing
/// rule).
pub(crate) fn load_config(quality: Quality, trial_seed: u64) -> des_load::LoadSweepConfig {
    match quality {
        Quality::Quick => des_load::LoadSweepConfig::quick(trial_seed),
        Quality::Paper => des_load::LoadSweepConfig::paper_default(trial_seed),
    }
}

/// The AP-churn config for a quality/seed pair (the registry's sizing
/// rule).
pub(crate) fn churn_config(quality: Quality, trial_seed: u64) -> robustness::ChurnConfig {
    match quality {
        Quality::Quick => robustness::ChurnConfig::quick(trial_seed),
        Quality::Paper => robustness::ChurnConfig::paper_default(trial_seed),
    }
}

/// The backhaul-partition config for a quality/seed pair (the registry's
/// sizing rule).
pub(crate) fn partition_config(quality: Quality, trial_seed: u64) -> robustness::PartitionConfig {
    match quality {
        Quality::Quick => robustness::PartitionConfig::quick(trial_seed),
        Quality::Paper => robustness::PartitionConfig::paper_default(trial_seed),
    }
}

/// The CSI-aging config for a quality/seed pair (the registry's sizing
/// rule).
pub(crate) fn aging_config(quality: Quality, trial_seed: u64) -> robustness::CsiAgingConfig {
    match quality {
        Quality::Quick => robustness::CsiAgingConfig::quick(trial_seed),
        Quality::Paper => robustness::CsiAgingConfig::paper_default(trial_seed),
    }
}

/// Enumerate the constituent runs of one DES trial, in a stable order
/// (`des_load`: IAC then MIMO at each load, loads ascending;
/// `rob_csi_aging`: the MIMO baseline, then IAC per severity, ascending).
///
/// # Panics
/// Panics if `name` is not in [`DES_SCENARIOS`].
pub fn des_runs(name: &str, quality: Quality, trial_seed: u64) -> Vec<DesRun> {
    match name {
        "des_campus" => {
            let cfg = campus_config(quality, trial_seed);
            vec![DesRun {
                label: "campus".to_string(),
                spec: des_campus::spec_for(&cfg),
                phy: des_campus::phy_for(&cfg),
            }]
        }
        "des_load" => {
            let cfg = load_config(quality, trial_seed);
            let (iac_phy, mimo_phy) = des_load::phys_for(&cfg);
            let mut runs = Vec::with_capacity(2 * cfg.loads_pps.len());
            for &load in &cfg.loads_pps {
                runs.push(DesRun {
                    label: format!("iac_{load:04.0}"),
                    spec: des_load::point_spec(&cfg, load, true),
                    phy: iac_phy.clone(),
                });
                runs.push(DesRun {
                    label: format!("mimo_{load:04.0}"),
                    spec: des_load::point_spec(&cfg, load, false),
                    phy: mimo_phy.clone(),
                });
            }
            runs
        }
        "rob_ap_churn" => {
            let cfg = churn_config(quality, trial_seed);
            vec![DesRun {
                label: "churn".to_string(),
                spec: robustness::churn_spec(&cfg),
                phy: robustness::churn_phy(&cfg),
            }]
        }
        "rob_backhaul_partition" => {
            let cfg = partition_config(quality, trial_seed);
            vec![DesRun {
                label: "partition".to_string(),
                spec: robustness::partition_spec(&cfg),
                phy: robustness::partition_phy(&cfg),
            }]
        }
        "rob_csi_aging" => {
            let cfg = aging_config(quality, trial_seed);
            let (iac_phys, mimo_phy) = robustness::aging_phys(&cfg);
            let mut runs = Vec::with_capacity(1 + cfg.severities);
            runs.push(DesRun {
                label: "mimo".to_string(),
                spec: robustness::aging_mimo_spec(&cfg),
                phy: mimo_phy,
            });
            for (level, phy) in iac_phys.into_iter().enumerate() {
                runs.push(DesRun {
                    label: format!("iac_s{level}"),
                    spec: robustness::aging_iac_spec(&cfg, level),
                    phy,
                });
            }
            runs
        }
        other => panic!("no DES scenario named {other:?} (see desrec::DES_SCENARIOS)"),
    }
}

/// Run one constituent simulation with recording; returns the encoded event
/// log alongside the outcome. The outcome is identical to an unrecorded
/// [`netsim::run_netsim`]'s (the recorder is a passive observer).
pub fn record(run: &DesRun) -> (Vec<u8>, NetSimOutcome) {
    let sink = iac_des::log::MemorySink::default();
    let out = netsim::run_netsim_recorded(&run.spec, run.phy.clone(), sink.clone())
        .expect("in-memory sink cannot fail");
    (sink.take(), out)
}

/// Replay one constituent simulation from its recorded log under bit-exact
/// verification.
pub fn replay(run: &DesRun, log: &EventLog) -> Result<NetSimOutcome, Box<Divergence>> {
    netsim::run_netsim_replayed(&run.spec, run.phy.clone(), log)
}

/// [`replay`] with telemetry facts harvested after verification succeeds
/// (the replay checker owns the observer slot, so per-kind counts stay
/// empty — see `netsim::run_netsim_replayed_observed`). The outcome is
/// bit-identical to [`replay`]'s.
pub fn replay_observed(
    run: &DesRun,
    log: &EventLog,
) -> Result<(NetSimOutcome, netsim::DesRunFacts), Box<Divergence>> {
    let (out, mut facts) = netsim::run_netsim_replayed_observed(&run.spec, run.phy.clone(), log)?;
    facts.label.clone_from(&run.label);
    Ok((out, facts))
}

/// The campus trial's registry metrics from its report — the single metric
/// extraction both the live registry entry and replay reconstruction use.
pub(crate) fn campus_trial_output(r: &des_campus::CampusReport) -> TrialOutput {
    TrialOutput {
        metrics: vec![
            ("delivered_uplink", r.log.delivered_count(true) as f64),
            ("delivered_downlink", r.log.delivered_count(false) as f64),
            ("uplink_median_ms", r.uplink_latency_ms.median),
            ("jain_overall", r.jain_overall),
            ("throughput_mbps", r.throughput_mbps),
            // Tail drops at the bounded MAC queues: the campus scenario
            // constructs every queue via `TrafficQueue::with_capacity`, so
            // overload sheds load here instead of ballooning memory — the
            // counter is part of the report's contract.
            ("drops_overflow", r.log.drops_overflow as f64),
        ],
    }
}

/// The load-sweep trial's registry metrics from its report. The knees are
/// grid-interpolated (see `des_load::interpolated_knee`), so these are
/// continuous in the underlying measurements rather than snapping to swept
/// grid loads.
pub(crate) fn load_trial_output(r: &des_load::LoadSweepReport) -> TrialOutput {
    TrialOutput {
        metrics: vec![
            ("load_gain", r.gain()),
            ("iac_sustained_pps", r.iac_sustained_pps),
            ("mimo_sustained_pps", r.mimo_sustained_pps),
            // Sweep-total tail drops at the bounded MAC queues (per system):
            // overload past the knee must show up as shed load, not memory
            // growth — both runs construct queues via `with_capacity`.
            (
                "iac_drops_overflow",
                r.points.iter().map(|p| p.iac.overflow_drops).sum::<u64>() as f64,
            ),
            (
                "mimo_drops_overflow",
                r.points.iter().map(|p| p.mimo.overflow_drops).sum::<u64>() as f64,
            ),
        ],
    }
}

/// The AP-churn trial's registry metrics from its report.
pub(crate) fn churn_trial_output(r: &robustness::ChurnReport) -> TrialOutput {
    TrialOutput {
        metrics: vec![
            ("delivery_ratio", r.delivery_ratio),
            ("throughput_mbps", r.throughput_mbps),
            ("faults", r.faults as f64),
            ("poll_timeouts", r.poll_timeouts as f64),
            ("degraded_groups", r.degraded_groups as f64),
        ],
    }
}

/// The backhaul-partition trial's registry metrics from its report.
pub(crate) fn partition_trial_output(r: &robustness::PartitionReport) -> TrialOutput {
    TrialOutput {
        metrics: vec![
            ("delivery_ratio", r.delivery_ratio),
            ("throughput_mbps", r.throughput_mbps),
            ("wire_expired", r.wire_expired as f64),
            ("degraded_groups", r.degraded_groups as f64),
            ("retx", r.retx as f64),
        ],
    }
}

/// The CSI-aging trial's registry metrics from its report: the clean and
/// worst-severity IAC/MIMO ratios plus the sweep-wide floor — the
/// graceful-degradation contract in three numbers (gain shrinks with
/// severity, the floor stays at or above the baseline).
pub(crate) fn aging_trial_output(r: &robustness::CsiAgingReport) -> TrialOutput {
    TrialOutput {
        metrics: vec![
            ("gain_clean", r.ratio(0)),
            ("gain_worst", r.ratio(r.points.len() - 1)),
            ("min_ratio", r.min_ratio()),
            ("mimo_mbps", r.mimo_mbps),
            (
                "fallback_groups_worst",
                r.points.last().map_or(0.0, |p| p.degraded_groups as f64),
            ),
        ],
    }
}

/// The `trial.json` payload of a recording directory: bit-faithful
/// (`f64::to_bits`) metric values alongside the full seed-derivation
/// context, so a replay can verify the reconstructed [`TrialOutput`]
/// byte-for-byte. Written by `examples/replay.rs`'s `record` command and
/// by the serve daemon's `--audit-dir` trail; re-generated and compared by
/// the `replay` command.
pub fn trial_json(
    name: &str,
    quality: Quality,
    master_seed: u64,
    trial: usize,
    trial_seed: u64,
    out: &TrialOutput,
) -> String {
    let mut s = format!(
        "{{\n  \"scenario\": \"{name}\",\n  \"quality\": \"{}\",\n  \"master_seed\": {master_seed},\n  \"trial\": {trial},\n  \"trial_seed\": {trial_seed},\n  \"metrics\": {{",
        quality.label(),
    );
    for (i, (metric, v)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{metric}\": {{\"bits\": \"{:#018x}\", \"approx\": \"{v}\"}}",
            v.to_bits()
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Reconstruct a trial's [`TrialOutput`] from its constituent outcomes (in
/// [`des_runs`] order) — the path replayed outcomes take back to scenario
/// metrics. Feeding in live outcomes gives exactly the registry entry's
/// result.
///
/// # Panics
/// Panics if `name` is unknown or `outcomes` has the wrong length.
pub fn trial_output_from(
    name: &str,
    quality: Quality,
    trial_seed: u64,
    outcomes: Vec<NetSimOutcome>,
) -> TrialOutput {
    match name {
        "des_campus" => {
            let cfg = campus_config(quality, trial_seed);
            let spec = des_campus::spec_for(&cfg);
            let [out]: [NetSimOutcome; 1] = outcomes.try_into().unwrap_or_else(|o: Vec<_>| {
                panic!("des_campus expects 1 outcome, got {}", o.len())
            });
            campus_trial_output(&des_campus::report_from(&cfg, &spec, out))
        }
        "des_load" => {
            let cfg = load_config(quality, trial_seed);
            assert_eq!(
                outcomes.len(),
                2 * cfg.loads_pps.len(),
                "des_load expects IAC+MIMO outcomes per load"
            );
            let points = cfg
                .loads_pps
                .iter()
                .enumerate()
                .map(|(k, &load)| des_load::LoadPoint {
                    load_pps: load,
                    iac: des_load::point_from(&cfg, true, &outcomes[2 * k]),
                    mimo: des_load::point_from(&cfg, false, &outcomes[2 * k + 1]),
                })
                .collect();
            load_trial_output(&des_load::report_from(&cfg, points))
        }
        "rob_ap_churn" => {
            let cfg = churn_config(quality, trial_seed);
            let [out]: [NetSimOutcome; 1] = outcomes.try_into().unwrap_or_else(|o: Vec<_>| {
                panic!("rob_ap_churn expects 1 outcome, got {}", o.len())
            });
            churn_trial_output(&robustness::churn_report_from(&cfg, &out))
        }
        "rob_backhaul_partition" => {
            let cfg = partition_config(quality, trial_seed);
            let [out]: [NetSimOutcome; 1] = outcomes.try_into().unwrap_or_else(|o: Vec<_>| {
                panic!("rob_backhaul_partition expects 1 outcome, got {}", o.len())
            });
            partition_trial_output(&robustness::partition_report_from(&cfg, &out))
        }
        "rob_csi_aging" => {
            let cfg = aging_config(quality, trial_seed);
            assert_eq!(
                outcomes.len(),
                1 + cfg.severities,
                "rob_csi_aging expects the MIMO baseline plus one IAC outcome per severity"
            );
            aging_trial_output(&robustness::aging_report_from(
                &cfg,
                &outcomes[0],
                &outcomes[1..],
            ))
        }
        other => panic!("no DES scenario named {other:?} (see desrec::DES_SCENARIOS)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_enumerate_with_unique_labels() {
        for &name in DES_SCENARIOS {
            let runs = des_runs(name, Quality::Quick, 5);
            assert!(!runs.is_empty());
            let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
            labels.sort_unstable();
            let mut deduped = labels.clone();
            deduped.dedup();
            assert_eq!(labels, deduped, "{name}: duplicate run label");
            for l in labels {
                assert!(
                    l.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "{name}: label {l:?} not filesystem-safe"
                );
            }
        }
    }

    #[test]
    fn load_runs_pair_systems_per_load() {
        let cfg = load_config(Quality::Quick, 5);
        let runs = des_runs("des_load", Quality::Quick, 5);
        assert_eq!(runs.len(), 2 * cfg.loads_pps.len());
        assert!(runs[0].label.starts_with("iac_"));
        assert!(runs[1].label.starts_with("mimo_"));
    }

    #[test]
    #[should_panic(expected = "no DES scenario")]
    fn unknown_scenario_panics() {
        des_runs("fig12", Quality::Quick, 1);
    }
}
