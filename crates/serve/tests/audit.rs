//! The `--audit-dir` trail: a served DES result leaves, byte for byte, the
//! recording `replay record` writes for the same trial, and that recording
//! replays bit-exactly; a non-DES result leaves nothing.

use iac_obs::Profiler;
use iac_serve::{Daemon, DaemonConfig};
use iac_sim::desrec;
use iac_sim::registry::Quality;
use iac_sim::DEFAULT_SEED;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iac_serve_audit_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every file under `dir` (one level), sorted by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn audit_dir_matches_replay_record_and_replays() {
    let audit = tmp_dir("trail");
    let daemon = Daemon::new(DaemonConfig {
        workers: 1,
        audit_dir: Some(audit.clone()),
        ..DaemonConfig::default()
    })
    .expect("daemon builds");
    for req in [
        r#"{"type":"run","id":"d","scenario":"des_load","replicates":1}"#,
        r#"{"type":"run","id":"f","scenario":"fig12","replicates":1}"#,
    ] {
        let mut out = Vec::new();
        daemon.handle_line(req.as_bytes(), &mut |l| out.push(l.to_string()));
        let last = out.last().unwrap();
        assert!(last.contains("\"status\":\"ok\""), "{last}");
    }
    daemon.shutdown();

    // One subdirectory, des_load's: the fig12 request wrote nothing.
    let sub = format!("des_load-quick-{DEFAULT_SEED:016x}-r0");
    let entries: Vec<String> = std::fs::read_dir(&audit)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries, std::slice::from_ref(&sub));
    let sub = audit.join(sub);

    // Byte for byte what `replay record` writes for the same trial.
    let reference = tmp_dir("reference");
    desrec::record_trial(
        &reference,
        "des_load",
        Quality::Quick,
        DEFAULT_SEED,
        0,
        |_, _, _| {},
    )
    .expect("record the reference");
    let (got, want) = (files(&sub), files(&reference));
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want));
    for ((name, a), (_, b)) in got.iter().zip(&want) {
        assert!(a == b, "{name} differs from the replay-record copy");
    }

    // And it replays bit-exactly through the shared verifier.
    let mut verified = 0;
    desrec::verify_recording(
        &sub,
        "des_load",
        Quality::Quick,
        DEFAULT_SEED,
        0,
        &Profiler::new(),
        |step| verified += matches!(step, desrec::ReplayStep::Verified { .. }) as usize,
    )
    .unwrap_or_else(|e| panic!("audit trail does not replay: {e}"));
    assert_eq!(verified, 8, "quick des_load is 4 loads x 2 systems");

    let _ = std::fs::remove_dir_all(&audit);
    let _ = std::fs::remove_dir_all(&reference);
}
