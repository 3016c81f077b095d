//! Record → replay round-trip gate for every registered DES scenario.
//!
//! For each scenario in [`desrec::DES_SCENARIOS`], every constituent run is
//! executed three ways — plain, recorded, and replayed from the recording —
//! and all three must produce the same [`MetricsLog`] bit-for-bit (the
//! recorder is a passive tap; replay is verified re-execution). The
//! scenario's registry metrics folded from replayed outcomes must equal the
//! live registry entry's, bit-for-bit. The suite is
//! thread-count-invariant: the `IAC_TEST_THREADS` CI matrix (1 and 4) runs
//! it unchanged, and the registry comparison below goes through the
//! parallel engine at whatever thread count is in force.
//!
//! A recording made with one trial seed must *not* replay against another
//! seed's simulation: the divergence check is the suite's negative control.
//! Telemetry written under an open `obs` handle on the replay path matches
//! the live path's, per-kind event counts aside.
//!
//! [`MetricsLog`]: iac_des::MetricsLog

use iac_des::log::{diff_logs, EventLog, MemorySink};
use iac_des::{Divergence, NetEvent};
use iac_obs::Registry;
use iac_sim::desrec::{self, DesRun};
use iac_sim::netsim::{self, NetSimOutcome};
use iac_sim::obs;
use iac_sim::registry::{self, Quality};
use iac_sim::DEFAULT_SEED;
use std::convert::Infallible;
use std::sync::Arc;

/// Trial-0 seed under the default master seed.
fn trial0_seed(name: &str) -> u64 {
    registry::trial_seed(DEFAULT_SEED, name, 0)
}

/// Record `run` in memory: its encoded event log and outcome.
fn record(run: &DesRun) -> (Vec<u8>, NetSimOutcome) {
    let sink = MemorySink::default();
    let out = netsim::run_netsim_recorded(&run.spec, run.phy.clone(), sink.clone())
        .expect("in-memory sink cannot fail");
    (sink.take(), out)
}

/// Record `run`, then replay it from the decoded log.
fn record_and_replay(name: &str, run: DesRun) -> NetSimOutcome {
    let (bytes, _) = record(&run);
    let log = EventLog::decode(&bytes).unwrap();
    let out = netsim::run_netsim_replayed(&run.spec, run.phy, log).unwrap_or_else(|d| {
        panic!(
            "{name}/{}: replay diverged:\n{}",
            run.label,
            d.render::<NetEvent>()
        )
    });
    out
}

/// The first run of a trial: `drive` stops at the executor's first error.
fn first_run(name: &str, seed: u64) -> DesRun {
    desrec::drive(name, Quality::Quick, seed, Err).unwrap_err()
}

#[test]
fn every_des_scenario_roundtrips_bit_identically() {
    for &name in desrec::DES_SCENARIOS {
        let seed = trial0_seed(name);
        let from_replay = desrec::drive(name, Quality::Quick, seed, |run| {
            let plain = netsim::run_netsim(&run.spec, run.phy.clone());
            let (bytes, recorded) = record(&run);

            // Recording is a passive observer: identical outcome.
            assert_eq!(
                plain.log, recorded.log,
                "{name}/{}: recorder perturbed the run",
                run.label
            );
            assert_eq!(plain.events, recorded.events, "{name}/{}", run.label);
            assert_eq!(plain.end_time, recorded.end_time, "{name}/{}", run.label);

            // The log round-trips through the wire format and replays to a
            // bit-identical metrics log.
            let log = EventLog::decode(&bytes)
                .unwrap_or_else(|e| panic!("{name}/{}: log decode failed: {e}", run.label));
            assert_eq!(log.len() as u64, plain.events, "{name}/{}", run.label);
            let replayed = netsim::run_netsim_replayed(&run.spec, run.phy, log)?;
            assert_eq!(
                plain.log, replayed.log,
                "{name}/{}: replayed metrics differ",
                run.label
            );
            assert_eq!(
                plain.log.to_json(),
                replayed.log.to_json(),
                "{name}/{}: JSON serialization differs",
                run.label
            );
            Ok(replayed)
        })
        .unwrap_or_else(|d: Box<Divergence>| {
            panic!("{name}: replay diverged:\n{}", d.render::<NetEvent>())
        });

        // Trial metrics folded from replayed outcomes match the live
        // registry entry exactly.
        let spec = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
        let live = (spec.run)(Quality::Quick, seed);
        for ((ln, lv), (rn, rv)) in live.metrics.iter().zip(&from_replay.metrics) {
            assert_eq!(ln, rn, "{name}: metric name order differs");
            assert_eq!(
                lv.to_bits(),
                rv.to_bits(),
                "{name}/{ln}: live {lv} != replay-reconstructed {rv}"
            );
        }
        assert_eq!(live.metrics.len(), from_replay.metrics.len());
    }
}

#[test]
fn recordings_do_not_replay_against_a_different_seed() {
    for &name in desrec::DES_SCENARIOS {
        let seed_a = trial0_seed(name);
        let seed_b = seed_a ^ 0x5DEECE66D;

        // One constituent run is enough for the negative control.
        let (run_a, run_b) = (first_run(name, seed_a), first_run(name, seed_b));
        let (bytes_a, _) = record(&run_a);
        let (bytes_b, _) = record(&run_b);
        let log_a = EventLog::decode(&bytes_a).unwrap();
        let log_b = EventLog::decode(&bytes_b).unwrap();

        let d = netsim::run_netsim_replayed(&run_b.spec, run_b.phy, log_a.clone())
            .expect_err(&format!("{name}: cross-seed replay must diverge"));
        assert!(
            d.expected.is_some() || d.got.is_some(),
            "{name}: empty divergence"
        );

        // And the two logs themselves diff as divergent, at the same kind of
        // early fork the replay checker found.
        let diff = diff_logs(&log_a, &log_b);
        assert!(!diff.is_identical(), "{name}: cross-seed logs identical");
    }
}

#[test]
fn registry_report_matches_replay_reconstruction_per_trial() {
    // The full registry path (parallel engine, IAC_TEST_THREADS-resolved
    // worker count, replicate seed stream) must agree, replicate by
    // replicate, with record→replay reconstruction of the same trials.
    const REPLICATES: usize = 2;
    for &name in desrec::DES_SCENARIOS {
        let spec = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
        let report = registry::run_scenario(&spec, Quality::Quick, DEFAULT_SEED, REPLICATES, 0);
        for trial in 0..REPLICATES {
            let seed = registry::trial_seed(DEFAULT_SEED, name, trial);
            let Ok(reconstructed) = desrec::drive(name, Quality::Quick, seed, |run| {
                Ok::<_, Infallible>(record_and_replay(name, run))
            });
            for agg in &report.metrics {
                let (_, v) = reconstructed
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == agg.name)
                    .unwrap_or_else(|| panic!("{name}: metric {} missing", agg.name));
                assert_eq!(
                    agg.values[trial].to_bits(),
                    v.to_bits(),
                    "{name}/{} trial {trial}: engine value {} != replayed {}",
                    agg.name,
                    agg.values[trial],
                    v
                );
            }
        }
    }
}

#[test]
fn observed_replay_is_bit_identical_and_harvests_facts() {
    // Telemetry on the replay path is passive too: under an open handle the
    // replay returns the exact outcome the live run does, and writes
    // engine/MAC numbers that match the recording (no per-kind counts —
    // the replay checker owns the observer slot).
    let run = first_run("des_campus", trial0_seed("des_campus"));
    let plain = netsim::run_netsim(&run.spec, run.phy.clone());
    let (bytes, _) = record(&run);
    let log = EventLog::decode(&bytes).unwrap();
    let events = log.len() as u64;
    let registry = Arc::new(Registry::new());
    let observed = obs::observing(&registry, || {
        netsim::run_netsim_replayed(&run.spec, run.phy, log)
            .unwrap_or_else(|d| panic!("replay diverged:\n{}", d.render::<NetEvent>()))
    });
    assert_eq!(plain.log, observed.log, "telemetry perturbed replay");
    assert_eq!(plain.events, observed.events);
    assert_eq!(plain.end_time, observed.end_time);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("des.events_processed"), Some(events));
    assert!(
        !snap
            .entries
            .iter()
            .any(|(n, _)| n.starts_with("des.events.")),
        "observer slot was taken by the checker"
    );
    assert!(snap.gauge("des.queue_high_water").unwrap() > 0);
    assert_eq!(
        snap.counter("mac.delivered"),
        Some(observed.log.delivered.len() as u64)
    );
    assert_eq!(
        snap.counter("mac.poll_rounds"),
        Some(observed.log.poll_rounds)
    );
    let util_bp = observed.log.air_busy_us / observed.end_time.micros() * 10_000.0;
    assert_eq!(
        snap.gauge("mac.airtime_utilization_bp"),
        Some(util_bp.round() as u64)
    );
}

#[test]
fn replay_metrics_match_a_live_observed_run() {
    // `replay --metrics`: one recorded trial per DES scenario, verified
    // under an open handle, writes every counter and gauge a live observed
    // run of the same trial writes, with the same value — except the
    // per-kind `des.events.<Kind>` counts, which replay cannot collect.
    for &name in desrec::DES_SCENARIOS {
        let dir =
            std::env::temp_dir().join(format!("iac_replay_metrics_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        desrec::record_trial(&dir, name, Quality::Quick, DEFAULT_SEED, 0, |_, _, _| {}).unwrap();
        let replayed = Arc::new(Registry::new());
        obs::observing(&replayed, || {
            let prof = iac_obs::Profiler::new();
            desrec::verify_recording(&dir, name, Quality::Quick, DEFAULT_SEED, 0, &prof, |_| {})
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        let live = Arc::new(Registry::new());
        let Ok(_) = obs::observing(&live, || {
            desrec::drive(name, Quality::Quick, trial0_seed(name), |run| {
                Ok::<_, Infallible>(netsim::run_netsim(&run.spec, run.phy))
            })
        });

        let (live, replayed) = (live.snapshot(), replayed.snapshot());
        let per_kind = |n: &str| n.starts_with("des.events.");
        assert!(live.entries.iter().any(|(n, _)| per_kind(n)), "{name}");
        let live_rest: Vec<_> = live.entries.iter().filter(|(n, _)| !per_kind(n)).collect();
        let replayed: Vec<_> = replayed.entries.iter().collect();
        // 4 engine totals, the queue high-water, 12 MAC counters and 2 MAC
        // gauges.
        assert_eq!(live_rest.len(), 19, "{name}: {live_rest:?}");
        assert_eq!(live_rest, replayed, "{name}: replay telemetry differs");
    }
}

#[test]
fn recording_directory_verifies_and_flags_tampering() {
    // The shared recording layout: what `record_trial` writes,
    // `verify_recording` accepts; a changed metrics file, a changed
    // `trial.json` or a missing log each fail with their own error.
    let dir = std::env::temp_dir().join(format!("iac_replay_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (name, q) = ("rob_csi_aging", Quality::Quick);
    let mut labels = Vec::new();
    desrec::record_trial(&dir, name, q, DEFAULT_SEED, 1, |label, _, _| {
        labels.push(label.to_string())
    })
    .unwrap();
    let verify = || {
        let prof = iac_obs::Profiler::new();
        desrec::verify_recording(&dir, name, q, DEFAULT_SEED, 1, &prof, |_| {})
    };
    verify().expect("a fresh recording verifies");
    // A recording replays only as the trial it was recorded as.
    let prof = iac_obs::Profiler::new();
    let other = desrec::verify_recording(&dir, name, q, DEFAULT_SEED, 0, &prof, |_| {});
    assert!(
        matches!(other, Err(desrec::ReplayError::Diverged(..))),
        "{other:?}"
    );

    let metrics = dir.join(format!("{}.metrics.json", labels[1]));
    let good = std::fs::read(&metrics).unwrap();
    std::fs::write(&metrics, b"{}").unwrap();
    assert!(matches!(
        verify(),
        Err(desrec::ReplayError::MetricsDiffer(..))
    ));
    std::fs::write(&metrics, &good).unwrap();

    let trial = dir.join("trial.json");
    let good = std::fs::read_to_string(&trial).unwrap();
    std::fs::write(&trial, good.replace("\"trial\": 1", "\"trial\": 2")).unwrap();
    assert!(matches!(
        verify(),
        Err(desrec::ReplayError::TrialDiffers(_))
    ));
    std::fs::write(&trial, &good).unwrap();
    verify().expect("restored recording verifies again");

    std::fs::remove_file(dir.join(format!("{}.iaclog", labels[0]))).unwrap();
    assert!(matches!(verify(), Err(desrec::ReplayError::Unreadable(..))));
    let _ = std::fs::remove_dir_all(&dir);
}
