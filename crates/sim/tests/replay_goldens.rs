//! Replay goldens: committed event logs that must keep replaying,
//! bit-for-bit, forever.
//!
//! The round-trip suite (`replay_roundtrip.rs`) proves record → replay is
//! self-consistent *within one build*; this suite pins the contract
//! *across* builds. A tiny `des_campus` and a tiny `des_load` run are
//! recorded once and committed under `tests/goldens/replay/` — the binary
//! `.iaclog` next to its bit-faithful `.metrics.json`. Every build must
//! (a) record byte-identical logs from the same configs (wire format and
//! event stream both frozen) and (b) replay the *committed* logs cleanly to
//! the *committed* metrics. A handler edit, an RNG reorder, or a codec
//! layout change all fail here with the first divergent event named.
//!
//! Regeneration after an intentional change (reviewed like code):
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p iac-sim --test replay_goldens
//! ```

use iac_des::log::{EventLog, MemorySink};
use iac_des::NetEvent;
use iac_sim::desrec::DesRun;
use iac_sim::netsim;
use iac_sim::scenarios::{des_campus, des_load, robustness};
use std::path::PathBuf;

/// Fixed seed for the golden runs (decoupled from `DEFAULT_SEED`, so
/// re-deriving sweep seeds never silently invalidates these files).
const GOLDEN_SEED: u64 = 0x1AC0_901D;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/replay")
}

/// The committed runs: deliberately tiny configs (a few dozen ms of
/// simulated time, 3 clients) so the binary logs stay a few kilobytes.
fn golden_runs() -> Vec<(String, DesRun)> {
    let campus_cfg = des_campus::CampusConfig {
        seed: GOLDEN_SEED,
        n_clients: 3,
        uplink_pps: 300.0,
        n_downlink: 1,
        downlink_gap_ms: 5.0,
        horizon_ms: 30.0,
        queue_capacity: 64,
        calibration_draws: 4,
    };
    let load_cfg = des_load::LoadSweepConfig {
        seed: GOLDEN_SEED,
        n_clients: 3,
        loads_pps: vec![450.0],
        horizon_ms: 40.0,
        queue_capacity: 64,
        latency_threshold_ms: 30.0,
        calibration_draws: 4,
    };
    let churn_cfg = robustness::ChurnConfig {
        seed: GOLDEN_SEED,
        n_clients: 3,
        uplink_pps: 300.0,
        horizon_ms: 40.0,
        queue_capacity: 64,
        mean_up_ms: 12.0,
        mean_down_ms: 5.0,
        calibration_draws: 4,
    };
    // Golden stems are `<scenario>__<run label>`; the runs come from the
    // scenarios' own run lists, so the goldens pin exactly what a trial runs.
    let tagged = |scenario: &'static str, runs: Vec<DesRun>| {
        runs.into_iter()
            .map(move |run| (format!("{scenario}__{}", run.label), run))
    };
    tagged("des_campus", des_campus::runs(&campus_cfg))
        .chain(tagged("des_load", des_load::runs(&load_cfg)))
        // A fault-injecting run: the committed log carries AP crash/recover
        // events, freezing the fault-event wire tags alongside the clean
        // protocol's.
        .chain(tagged("rob_ap_churn", robustness::churn_runs(&churn_cfg)))
        .collect()
}

#[test]
fn committed_logs_record_and_replay_bit_identically() {
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    let mut failures = Vec::new();
    for (stem, run) in golden_runs() {
        let log_path = dir.join(format!("{stem}.iaclog"));
        let json_path = dir.join(format!("{stem}.metrics.json"));
        let sink = MemorySink::default();
        let out = netsim::run_netsim_recorded(&run.spec, run.phy.clone(), sink.clone())
            .expect("in-memory sink cannot fail");
        let bytes = sink.take();
        let json = out.log.to_json();
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&log_path, &bytes).unwrap();
            std::fs::write(&json_path, &json).unwrap();
        }

        // (a) The freshly recorded log is byte-identical to the committed
        // one — the wire format and the event stream are both frozen.
        match std::fs::read(&log_path) {
            Ok(committed) if committed == bytes => {}
            Ok(committed) => {
                let a = EventLog::decode(&committed).map(|l| l.len());
                failures.push(format!(
                    "{stem}: recorded log differs from committed ({} vs {} bytes, \
                     committed decodes to {a:?} events)",
                    bytes.len(),
                    committed.len()
                ));
                continue;
            }
            Err(e) => {
                failures.push(format!(
                    "{stem}: cannot read {} ({e}); regenerate with \
                     UPDATE_GOLDENS=1 cargo test -p iac-sim --test replay_goldens",
                    log_path.display()
                ));
                continue;
            }
        }

        // (b) The committed log replays cleanly and reproduces the
        // committed metrics byte-for-byte.
        let log = EventLog::decode(&std::fs::read(&log_path).unwrap())
            .unwrap_or_else(|e| panic!("{stem}: committed log does not decode: {e}"));
        match netsim::run_netsim_replayed(&run.spec, run.phy, log) {
            Ok(replayed) => {
                let committed_json = std::fs::read_to_string(&json_path).unwrap_or_else(|e| {
                    panic!("{stem}: cannot read {} ({e})", json_path.display())
                });
                if replayed.log.to_json() != committed_json {
                    failures.push(format!(
                        "{stem}: replay of the committed log produced different metrics JSON"
                    ));
                }
            }
            Err(d) => failures.push(format!(
                "{stem}: committed log no longer replays:\n{}",
                d.render::<NetEvent>()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "replay golden failures — if the change is intentional, regenerate with \
         UPDATE_GOLDENS=1 and commit the diff:\n{}",
        failures.join("\n")
    );
}

#[test]
fn replay_goldens_directory_has_no_orphans() {
    let Ok(entries) = std::fs::read_dir(golden_dir()) else {
        return; // nothing committed yet (first UPDATE_GOLDENS run pending)
    };
    let stems: Vec<String> = golden_runs().into_iter().map(|(s, _)| s).collect();
    for entry in entries.flatten() {
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        let stem = fname
            .strip_suffix(".iaclog")
            .or_else(|| fname.strip_suffix(".metrics.json"))
            .unwrap_or_else(|| panic!("unexpected file in goldens/replay/: {fname}"));
        assert!(
            stems.iter().any(|s| s == stem),
            "orphan replay golden {fname}: not produced by golden_runs()"
        );
    }
}
