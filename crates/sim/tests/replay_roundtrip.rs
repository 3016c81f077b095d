//! Record → replay round-trip gate for every registered DES scenario.
//!
//! For each scenario in [`desrec::DES_SCENARIOS`], every constituent run is
//! executed three ways — plain, recorded, and replayed from the recording —
//! and all three must produce the same [`MetricsLog`] bit-for-bit (the
//! recorder is a passive tap; replay is verified re-execution). The
//! scenario's registry metrics reconstructed from replayed outcomes must
//! equal the live registry entry's, bit-for-bit. The suite is
//! thread-count-invariant: the `IAC_TEST_THREADS` CI matrix (1 and 4) runs
//! it unchanged, and the registry comparison below goes through the
//! parallel engine at whatever thread count is in force.
//!
//! A recording made with one trial seed must *not* replay against another
//! seed's simulation: the divergence check is the suite's negative control.

use iac_des::NetEvent;
use iac_sim::registry::{self, Quality};
use iac_sim::{desrec, engine, DEFAULT_SEED};

use iac_des::log::{diff_logs, EventLog};

/// The registry's seed for replicate `trial` of a scenario under `master` —
/// the same derivation the engine and `examples/replay.rs` use.
fn trial_seed_for(master: u64, name: &str, trial: usize) -> u64 {
    let scen_seed = registry::scenario_seed(master, name);
    engine::trials_for(scen_seed, trial + 1)[trial].seed
}

/// Trial-0 seed under the default master seed.
fn trial0_seed(name: &str) -> u64 {
    trial_seed_for(DEFAULT_SEED, name, 0)
}

#[test]
fn every_des_scenario_roundtrips_bit_identically() {
    for &name in desrec::DES_SCENARIOS {
        let seed = trial0_seed(name);
        let runs = desrec::des_runs(name, Quality::Quick, seed);
        let mut plain_outcomes = Vec::with_capacity(runs.len());
        let mut replayed_outcomes = Vec::with_capacity(runs.len());
        for run in &runs {
            let plain = iac_sim::netsim::run_netsim(&run.spec, run.phy.clone());
            let (bytes, recorded) = desrec::record(run);

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
            let replayed = desrec::replay(run, &log).unwrap_or_else(|d| {
                panic!(
                    "{name}/{}: replay diverged:\n{}",
                    run.label,
                    d.render::<NetEvent>()
                )
            });
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

            plain_outcomes.push(plain);
            replayed_outcomes.push(replayed);
        }

        // Reconstructed trial metrics are bit-identical whether fed live or
        // replayed outcomes — and match the live registry entry exactly.
        let from_plain = desrec::trial_output_from(name, Quality::Quick, seed, plain_outcomes);
        let from_replay = desrec::trial_output_from(name, Quality::Quick, seed, replayed_outcomes);
        assert_eq!(
            from_plain.metrics, from_replay.metrics,
            "{name}: replayed trial metrics differ"
        );
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
        let runs_a = desrec::des_runs(name, Quality::Quick, seed_a);
        let runs_b = desrec::des_runs(name, Quality::Quick, seed_b);

        // One constituent run is enough for the negative control.
        let (bytes_a, _) = desrec::record(&runs_a[0]);
        let (bytes_b, _) = desrec::record(&runs_b[0]);
        let log_a = EventLog::decode(&bytes_a).unwrap();
        let log_b = EventLog::decode(&bytes_b).unwrap();

        let d = desrec::replay(&runs_b[0], &log_a)
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
            let seed = trial_seed_for(DEFAULT_SEED, name, trial);
            let runs = desrec::des_runs(name, Quality::Quick, seed);
            let outcomes = runs
                .iter()
                .map(|run| {
                    let (bytes, _) = desrec::record(run);
                    let log = EventLog::decode(&bytes).unwrap();
                    desrec::replay(run, &log).unwrap_or_else(|d| {
                        panic!(
                            "{name}/{} trial {trial}: replay diverged:\n{}",
                            run.label,
                            d.render::<NetEvent>()
                        )
                    })
                })
                .collect();
            let reconstructed = desrec::trial_output_from(name, Quality::Quick, seed, outcomes);
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
    // Telemetry on the replay path is passive too: `replay_observed` must
    // return the exact outcome `replay` does, plus facts whose engine/MAC
    // numbers match the recording (per-kind counts stay empty — the replay
    // checker owns the observer slot).
    let seed = trial0_seed("des_campus");
    let runs = desrec::des_runs("des_campus", Quality::Quick, seed);
    for run in &runs {
        let (bytes, _) = desrec::record(run);
        let log = EventLog::decode(&bytes).unwrap();
        let plain = desrec::replay(run, &log)
            .unwrap_or_else(|d| panic!("plain replay diverged:\n{}", d.render::<NetEvent>()));
        let (observed, facts) = desrec::replay_observed(run, &log)
            .unwrap_or_else(|d| panic!("observed replay diverged:\n{}", d.render::<NetEvent>()));
        assert_eq!(
            plain.log, observed.log,
            "{}: telemetry perturbed replay",
            run.label
        );
        assert_eq!(plain.events, observed.events, "{}", run.label);
        assert_eq!(plain.end_time, observed.end_time, "{}", run.label);
        assert_eq!(facts.label, run.label);
        assert_eq!(facts.events_processed, log.len() as u64);
        assert!(
            facts.event_kinds.is_empty(),
            "observer slot was taken by the checker"
        );
        assert!(facts.queue_high_water > 0);
        assert_eq!(facts.delivered, observed.log.delivered.len() as u64);
        assert_eq!(facts.poll_rounds, observed.log.poll_rounds);
        assert_eq!(
            facts.end_time_us.to_bits(),
            observed.end_time.micros().to_bits()
        );
    }
}
