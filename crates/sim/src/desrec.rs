//! The one description of a DES trial, and its recording layout.
//!
//! A registry-level DES trial (`des_campus`, `des_load`, the `rob_*`
//! family) is a sequence of one or more *constituent* [`NetSim`] runs — one
//! for the campus scenario, two per swept load (IAC and the 802.11-MIMO
//! baseline) for the load sweep. Each scenario module lists its runs
//! (`runs`) and folds their outcomes, in that order, into its report
//! (`reduce`). [`drive`] is the only way a trial executes: it hands each
//! run to an executor and folds the outcome as it arrives. The live
//! registry entry executes with `netsim::run_netsim`, [`record_trial`] with
//! the event recorder, and [`verify_recording`] with the replay checker, so
//! the replay reconstruction is the *same code path* the live registry
//! entry uses — run list, reduce and metric extraction included; only the
//! executor differs.
//!
//! A recording directory holds, per run, `<label>.iaclog` (the binary event
//! log) and `<label>.metrics.json` (its bit-faithful `MetricsLog`), plus
//! `trial.json` (the trial's scenario metrics). [`record_trial`] writes it
//! and [`verify_recording`] reads it back; nothing else knows the layout.
//!
//! Consumers: the registry's DES entries, `examples/replay.rs` (the
//! record/replay/diff CLI), the serve daemon's `--audit-dir` trail, the
//! `replay_roundtrip` integration suite, and the replay goldens.

use crate::netsim::{self, CalibratedPhy, NetSim, NetSimOutcome};
use crate::registry::{self, Quality, TrialOutput};
use crate::scenarios::{des_campus, des_load, robustness};
use iac_des::{Divergence, EventLog, NetEvent};
use iac_obs::Profiler;
use std::convert::Infallible;
use std::path::{Path, PathBuf};

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

/// One constituent simulation run of a DES trial. Built only by the
/// scenario modules' `runs` functions.
#[derive(Debug)]
pub struct DesRun {
    /// Filesystem-safe run label, unique within the trial (log file stem).
    pub label: String,
    /// The declarative run description.
    pub spec: NetSim,
    /// The calibrated PHY the run drives.
    pub phy: CalibratedPhy,
}

/// The next outcome a scenario's reduce folds.
///
/// # Panics
/// Panics if the executor yielded fewer outcomes than the trial has runs.
pub(crate) fn next_outcome<E>(
    outcomes: &mut impl Iterator<Item = Result<NetSimOutcome, E>>,
) -> Result<NetSimOutcome, E> {
    outcomes.next().expect("one outcome per run")
}

/// A scenario config at `quality` (the registry's sizing rule).
fn sized<C>(quality: Quality, seed: u64, quick: fn(u64) -> C, paper: fn(u64) -> C) -> C {
    match quality {
        Quality::Quick => quick(seed),
        Quality::Paper => paper(seed),
    }
}

/// Run one DES trial: build the scenario's runs for `(quality,
/// trial_seed)`, hand each to `exec` in order, and fold each outcome into
/// the trial's [`TrialOutput`] as it arrives. The first error `exec`
/// returns stops the trial and comes back as is. Run order: `des_load` IAC
/// then MIMO at each load, loads ascending; `rob_csi_aging` the MIMO
/// baseline, then IAC per severity, ascending.
///
/// # Panics
/// Panics if `name` is not in [`DES_SCENARIOS`].
pub fn drive<E>(
    name: &str,
    quality: Quality,
    trial_seed: u64,
    exec: impl FnMut(DesRun) -> Result<NetSimOutcome, E>,
) -> Result<TrialOutput, E> {
    use des_campus::CampusConfig;
    use des_load::LoadSweepConfig;
    use robustness::{ChurnConfig, CsiAgingConfig, PartitionConfig};
    let seed = trial_seed;
    match name {
        "des_campus" => {
            let cfg = sized(
                quality,
                seed,
                CampusConfig::quick,
                CampusConfig::paper_default,
            );
            let runs = des_campus::runs(&cfg).into_iter().map(exec);
            des_campus::reduce(&cfg, runs).map(|r| r.trial_output())
        }
        "des_load" => {
            let cfg = sized(
                quality,
                seed,
                LoadSweepConfig::quick,
                LoadSweepConfig::paper_default,
            );
            let runs = des_load::runs(&cfg).into_iter().map(exec);
            des_load::reduce(&cfg, runs).map(|r| r.trial_output())
        }
        "rob_ap_churn" => {
            let cfg = sized(
                quality,
                seed,
                ChurnConfig::quick,
                ChurnConfig::paper_default,
            );
            let runs = robustness::churn_runs(&cfg).into_iter().map(exec);
            robustness::churn_reduce(&cfg, runs).map(|r| r.trial_output())
        }
        "rob_backhaul_partition" => {
            let cfg = sized(
                quality,
                seed,
                PartitionConfig::quick,
                PartitionConfig::paper_default,
            );
            let runs = robustness::partition_runs(&cfg).into_iter().map(exec);
            robustness::partition_reduce(&cfg, runs).map(|r| r.trial_output())
        }
        "rob_csi_aging" => {
            let cfg = sized(
                quality,
                seed,
                CsiAgingConfig::quick,
                CsiAgingConfig::paper_default,
            );
            let runs = robustness::aging_runs(&cfg).into_iter().map(exec);
            robustness::aging_reduce(&cfg, runs).map(|r| r.trial_output())
        }
        other => panic!("no DES scenario named {other:?} (see desrec::DES_SCENARIOS)"),
    }
}

/// The live executor: run the simulation with `netsim::run_netsim`.
fn run_live(run: DesRun) -> Result<NetSimOutcome, Infallible> {
    Ok(netsim::run_netsim(&run.spec, run.phy))
}

/// `runs`, executed live, one at a time and in order, for a scenario's
/// reduce: the iterator is lazy, so a reduce that folds as it goes holds
/// one outcome at a time.
pub(crate) fn live(runs: Vec<DesRun>) -> impl Iterator<Item = Result<NetSimOutcome, Infallible>> {
    runs.into_iter().map(run_live)
}

/// One live DES trial — the registry entry of every DES scenario.
pub(crate) fn live_trial(name: &str, quality: Quality, trial_seed: u64) -> TrialOutput {
    let Ok(out) = drive(name, quality, trial_seed, run_live);
    out
}

fn log_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{label}.iaclog"))
}

fn metrics_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{label}.metrics.json"))
}

fn trial_path(dir: &Path) -> PathBuf {
    dir.join("trial.json")
}

/// Record replicate `trial` of scenario `name` under `master_seed` into
/// `dir` (created if missing): per run, in order, its event log streamed to
/// `<label>.iaclog` as the run fires and its metrics to
/// `<label>.metrics.json`; then the trial's `trial.json`. `on_run` sees
/// each run's label, log path and outcome once its files are written.
/// Every outcome is identical to a live run's (the recorder is a passive
/// observer).
///
/// # Panics
/// Panics if `name` is not in [`DES_SCENARIOS`].
pub fn record_trial(
    dir: &Path,
    name: &str,
    quality: Quality,
    master_seed: u64,
    trial: usize,
    mut on_run: impl FnMut(&str, &Path, &NetSimOutcome),
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let trial_seed = registry::trial_seed(master_seed, name, trial);
    let out = drive(name, quality, trial_seed, |run| {
        let log = log_path(dir, &run.label);
        let file = std::io::BufWriter::new(std::fs::File::create(&log)?);
        let out = netsim::run_netsim_recorded(&run.spec, run.phy, file)?;
        std::fs::write(metrics_path(dir, &run.label), out.log.to_json())?;
        on_run(&run.label, &log, &out);
        Ok::<_, std::io::Error>(out)
    })?;
    std::fs::write(
        trial_path(dir),
        trial_json(name, quality, master_seed, trial, trial_seed, &out),
    )
}

/// Progress of [`verify_recording`], reported as it happens.
pub enum ReplayStep<'a> {
    /// The run `label` is about to replay against its `events`-event log.
    Verifying {
        /// The run's label.
        label: &'a str,
        /// Events in its recorded log.
        events: usize,
    },
    /// The run `label` replayed bit-exactly and its metrics file matched.
    Verified {
        /// The run's label.
        label: &'a str,
        /// Events the replayed run dispatched (its outcome's `events`).
        events: u64,
    },
}

/// Why a recording failed to verify.
#[derive(Debug)]
pub enum ReplayError {
    /// A recording file is missing, unreadable or not a valid event log.
    Unreadable(PathBuf, String),
    /// A run's fired events diverged from its recorded log.
    Diverged(String, Box<Divergence>),
    /// A run replayed bit-exactly, but its recorded metrics file differs.
    MetricsDiffer(String, PathBuf),
    /// Every run replayed bit-exactly, but the recorded `trial.json`
    /// differs from the regenerated one.
    TrialDiffers(PathBuf),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Unreadable(path, why) => {
                write!(f, "cannot read {}: {why}", path.display())
            }
            ReplayError::Diverged(label, d) => {
                write!(f, "[replay] {label} DIVERGED:\n{}", d.render::<NetEvent>())
            }
            ReplayError::MetricsDiffer(label, path) => write!(
                f,
                "[replay] {label}: events matched but {} differs from the replayed metrics — \
                 recorded files are inconsistent",
                path.display()
            ),
            ReplayError::TrialDiffers(path) => write!(
                f,
                "[replay] runs replayed bit-identically but {} disagrees — was it recorded \
                 with the same scenario, seed, trial and quality?",
                path.display()
            ),
        }
    }
}

fn read_string(path: &Path) -> Result<String, ReplayError> {
    std::fs::read_to_string(path).map_err(|e| ReplayError::Unreadable(path.into(), e.to_string()))
}

/// Re-run the recording [`record_trial`] wrote into `dir` under bit-exact
/// verification: each run replays against its `.iaclog` (inside a `"run"`
/// span on `prof`) and must reproduce its `.metrics.json` byte for byte;
/// then the regenerated `trial.json` must match the recorded one. Stops at
/// the first failure. Under an open `obs` handle (see
/// [`crate::obs::observing`]) each replayed run writes its telemetry into
/// it.
///
/// # Panics
/// Panics if `name` is not in [`DES_SCENARIOS`].
pub fn verify_recording(
    dir: &Path,
    name: &str,
    quality: Quality,
    master_seed: u64,
    trial: usize,
    prof: &Profiler,
    mut on_step: impl FnMut(ReplayStep<'_>),
) -> Result<(), ReplayError> {
    let trial_seed = registry::trial_seed(master_seed, name, trial);
    let out = drive(name, quality, trial_seed, |run| {
        let path = log_path(dir, &run.label);
        let bytes = std::fs::read(&path)
            .map_err(|e| ReplayError::Unreadable(path.clone(), e.to_string()))?;
        let log = EventLog::decode(&bytes)
            .map_err(|e| ReplayError::Unreadable(path, format!("not a valid event log: {e}")))?;
        let label = run.label.as_str();
        let events = log.len();
        on_step(ReplayStep::Verifying { label, events });
        let replayed = {
            let _span = iac_obs::span!(prof, "run");
            netsim::run_netsim_replayed(&run.spec, run.phy, log)
        };
        let out = replayed.map_err(|d| ReplayError::Diverged(run.label.clone(), d))?;
        let path = metrics_path(dir, label);
        if read_string(&path)? != out.log.to_json() {
            return Err(ReplayError::MetricsDiffer(run.label, path));
        }
        on_step(ReplayStep::Verified {
            label,
            events: out.events,
        });
        Ok(out)
    })?;
    let path = trial_path(dir);
    if read_string(&path)? != trial_json(name, quality, master_seed, trial, trial_seed, &out) {
        return Err(ReplayError::TrialDiffers(path));
    }
    Ok(())
}

/// The `trial.json` payload of a recording directory: bit-faithful
/// (`f64::to_bits`) metric values alongside the full seed-derivation
/// context, so byte equality of the file is bit equality of every metric.
fn trial_json(
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels of a quick trial's runs, in run order.
    fn labels(name: &str) -> Vec<String> {
        let mut labels = Vec::new();
        let _ = drive(name, Quality::Quick, 5, |run| {
            labels.push(run.label.clone());
            run_live(run)
        });
        labels
    }

    #[test]
    fn runs_enumerate_with_unique_labels() {
        for &name in DES_SCENARIOS {
            let mut labels = labels(name);
            assert!(!labels.is_empty());
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
        let cfg = des_load::LoadSweepConfig::quick(5);
        let labels = labels("des_load");
        assert_eq!(labels.len(), 2 * cfg.loads_pps.len());
        assert!(labels[0].starts_with("iac_"));
        assert!(labels[1].starts_with("mimo_"));
    }

    #[test]
    #[should_panic(expected = "no DES scenario")]
    fn unknown_scenario_panics() {
        live_trial("fig12", Quality::Quick, 1);
    }
}
