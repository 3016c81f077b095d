//! The observability hard contract: telemetry is strictly passive.
//!
//! Three layers of pinning:
//!
//! 1. **Registry**: `run_scenario_observed` returns a bit-identical
//!    [`ScenarioReport`] to `run_scenario` for *every* registered scenario,
//!    at 1 and 4 worker threads.
//! 2. **Sweep CLI**: `run_sweep`'s stdout bytes are invariant across
//!    `--threads` values and across telemetry flags
//!    (`--metrics`/`--trace`/`--progress` on or off, with or without a
//!    `--timeout-secs` that never fires) — execution-dependent output is
//!    confined to stderr and the export files.
//! 3. **Exports**: the `--metrics` and `--trace` files are valid JSON with
//!    the promised keys (engine trial timings, DES queue high-water, MAC
//!    retx/drop counters, scratch-pool counters).
//!
//! The whole file runs under both feature modes (`cargo test -p iac-sim`
//! and `--no-default-features`), so compiled-out telemetry is held to the
//! same contract.

use iac_sim::cli::{run_sweep, SweepArgs};
use iac_sim::obs::SweepObs;
use iac_sim::registry::{self, Quality};

#[test]
fn observed_reports_are_bit_identical_for_every_scenario() {
    for spec in registry::all() {
        let plain = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1);
        for threads in [1, 4] {
            let mut obs = SweepObs::new();
            let observed =
                registry::run_scenario_observed(&spec, Quality::Quick, 11, 2, threads, &mut obs);
            assert_eq!(
                plain, observed,
                "{}: observed report drifted at {threads} threads",
                spec.name
            );
            assert_eq!(plain.to_json(), observed.to_json(), "{}", spec.name);
        }
    }
}

#[test]
fn des_scenario_telemetry_reaches_every_layer() {
    let spec = registry::find("des_campus").unwrap();
    let mut obs = SweepObs::new();
    registry::run_scenario_observed(&spec, Quality::Quick, 5, 2, 2, &mut obs);
    let json = obs.metrics_json();
    // Layer by layer: engine, DES queue, per-kind events, MAC, PHY scratch.
    for key in [
        "\"engine.des_campus.trials\":2",
        "\"engine.des_campus.trial_ns\"",
        "\"des.queue_high_water\":",
        "\"des.events_processed\":",
        "\"des.events.Arrival\":",
        "\"mac.retx\":",
        "\"mac.drops_overflow\":",
        "\"mac.poll_rounds\":",
        "\"mac.airtime_utilization_bp\":",
        "\"phy.scratch.pool_hits\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    if iac_obs::ENABLED {
        // Two trials → two timed spans → two histogram entries + two trace
        // events.
        assert!(json.contains("\"count\":2"), "{json}");
        assert_eq!(obs.trace_json().matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(obs.profile.roots[0].count, 2);
    } else {
        assert!(obs.trace.is_empty(), "spans must compile out");
        assert!(obs.profile.roots.is_empty());
    }
}

fn sweep_stdout(args: &SweepArgs) -> (Vec<u8>, Vec<u8>) {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    assert_eq!(
        run_sweep(args, &mut out, &mut err).expect("sweep runs"),
        iac_sim::cli::SweepOutcome::Completed
    );
    (out, err)
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "iac_obs_invariance_{}_{}_{tag}.json",
        std::process::id(),
        if iac_obs::ENABLED { "on" } else { "off" }
    ))
}

#[test]
fn sweep_stdout_bytes_survive_threads_and_telemetry() {
    let base = SweepArgs {
        scenario: "des_load".to_string(),
        replicates: Some(2),
        threads: 1,
        json: true,
        ..SweepArgs::default()
    };
    let (reference, base_err) = sweep_stdout(&base);
    assert!(!reference.is_empty());
    assert!(
        String::from_utf8(base_err)
            .unwrap()
            .contains("replicates in"),
        "timing line belongs on stderr"
    );

    // More workers: same bytes.
    let (out, _) = sweep_stdout(&SweepArgs {
        threads: 4,
        ..base.clone()
    });
    assert_eq!(out, reference, "stdout changed with --threads 4");

    // Full telemetry (metrics + trace + progress), 1 and 4 threads: same
    // bytes again, and the exports are valid.
    for threads in [1, 4] {
        let metrics_path = unique_path(&format!("m{threads}"));
        let trace_path = unique_path(&format!("t{threads}"));
        let args = SweepArgs {
            threads,
            metrics_path: Some(metrics_path.display().to_string()),
            trace_path: Some(trace_path.display().to_string()),
            progress: true,
            ..base.clone()
        };
        let (out, err) = sweep_stdout(&args);
        assert_eq!(
            out, reference,
            "stdout changed with telemetry at {threads} threads"
        );
        let err = String::from_utf8(err).unwrap();
        assert!(
            err.contains("running 2 replicates"),
            "--progress goes to stderr"
        );
        assert!(err.contains("metrics snapshot written"));

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.starts_with("{\"metrics\":{\"counters\":{"));
        assert!(metrics.contains("\"des.queue_high_water\":"));
        assert!(metrics.contains("\"mac.retx\":"));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        if iac_obs::ENABLED {
            assert!(trace.contains("\"name\":\"des_load\""));
        }
        let _ = std::fs::remove_file(metrics_path);
        let _ = std::fs::remove_file(trace_path);
    }
}

#[test]
fn metrics_snapshot_merge_matches_single_registry() {
    // The sweep's registry semantics are commutative, so recording the same
    // scenarios in either order gives identical snapshots — the
    // order-independence half of the passivity contract, at the sweep level.
    let campus = registry::find("des_campus").unwrap();
    let load = registry::find("des_load").unwrap();
    let mut ab = SweepObs::new();
    registry::run_scenario_observed(&campus, Quality::Quick, 3, 2, 1, &mut ab);
    registry::run_scenario_observed(&load, Quality::Quick, 3, 2, 1, &mut ab);
    let mut ba = SweepObs::new();
    registry::run_scenario_observed(&load, Quality::Quick, 3, 2, 1, &mut ba);
    registry::run_scenario_observed(&campus, Quality::Quick, 3, 2, 1, &mut ba);
    // Histograms and counters are commutative; only the wall-clock *values*
    // inside timing histograms differ run to run, so compare names + the
    // deterministic counters via the structure of the counter section.
    let counters = |s: &str| s.split("\"gauges\"").next().unwrap().to_string();
    assert_eq!(counters(&ab.metrics_json()), counters(&ba.metrics_json()));
}

#[test]
fn generous_timeout_keeps_stdout_and_telemetry() {
    // A deadline that never fires must change nothing: not the stdout
    // bytes, and not the telemetry — the deadline path observes like any
    // other run.
    let base = SweepArgs {
        scenario: "des_load".to_string(),
        replicates: Some(2),
        threads: 1,
        json: true,
        ..SweepArgs::default()
    };
    let (reference, _) = sweep_stdout(&base);
    let metrics_of = |timeout_secs: Option<u64>, tag: &str| {
        let path = unique_path(tag);
        let (out, _) = sweep_stdout(&SweepArgs {
            timeout_secs,
            metrics_path: Some(path.display().to_string()),
            ..base.clone()
        });
        assert_eq!(out, reference, "stdout changed ({tag})");
        let metrics = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(path);
        metrics
    };
    let unbounded = metrics_of(None, "unbounded");
    let bounded = metrics_of(Some(3600), "bounded");
    for key in [
        "\"des.events_processed\":",
        "\"mac.retx\":",
        "\"engine.des_load.trials\":2",
    ] {
        assert!(bounded.contains(key), "missing {key} in {bounded}");
    }
    let counters = |s: &str| s.split("\"gauges\"").next().unwrap().to_string();
    assert_eq!(counters(&bounded), counters(&unbounded));
}
