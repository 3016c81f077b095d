//! The chaos harness: injected panics, slowness, worker kills, and
//! overload, asserting the daemon (a) never dies, (b) answers *every*
//! request with a typed response, and (c) keeps its successful responses
//! bit-identical to the plain registry path at 1 and 4 workers.

use iac_serve::{Daemon, DaemonConfig};
use iac_sim::registry::{self, Quality};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iac_serve_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn chaos_daemon(workers: usize, max_inflight: usize, cache_dir: Option<PathBuf>) -> Daemon {
    Daemon::new(DaemonConfig {
        workers,
        max_inflight,
        cache_dir,
        chaos: true,
        ..DaemonConfig::default()
    })
    .expect("daemon builds")
}

fn drive(daemon: &Daemon, line: &str) -> Vec<String> {
    let mut out = Vec::new();
    daemon.handle_line(line.as_bytes(), &mut |l| out.push(l.to_string()));
    out
}

#[test]
fn panics_are_typed_and_the_daemon_keeps_serving() {
    for workers in [1, 4] {
        let daemon = chaos_daemon(workers, 4, None);
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"boom","scenario":"chaos_panic","seed":3,"replicates":4}"#,
        );
        let last = out.last().unwrap();
        assert!(last.contains("\"error\":\"panic\""), "{last}");
        assert!(last.contains("chaos_panic: injected failure"), "{last}");
        assert_eq!(daemon.metrics().panics.get(), 1);

        // The very next request — a real scenario — must still be exact.
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"after","scenario":"fig12","seed":11,"replicates":2}"#,
        );
        let spec = registry::find("fig12").unwrap();
        let want = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1).to_json();
        assert!(
            out.last()
                .unwrap()
                .contains(&format!("\"report\":{want}}}")),
            "workers={workers}: post-panic report drifted\n{}",
            out.last().unwrap()
        );
        daemon.shutdown();
    }
}

#[test]
fn flaky_scenario_fails_typed_without_poisoning_the_pool() {
    let daemon = chaos_daemon(2, 4, None);
    // chaos_flaky panics on odd derived trial seeds; with enough
    // replicates at least one lands odd (seeds are uniform u64s).
    let out = drive(
        &daemon,
        r#"{"type":"run","id":"f","scenario":"chaos_flaky","seed":1,"replicates":8}"#,
    );
    let last = out.last().unwrap();
    assert!(last.contains("\"error\":\"panic\""), "{last}");
    assert_eq!(daemon.metrics().panics.get(), 1);
    // No worker died — panics are caught, not fatal.
    assert_eq!(daemon.metrics().worker_lost.get(), 0);
    assert_eq!(daemon.metrics().respawns.get(), 0);
    daemon.shutdown();
}

#[test]
fn deadlines_flush_partial_contiguous_prefixes() {
    let daemon = chaos_daemon(1, 4, None);
    // 8 × ~30 ms on one worker against a 70 ms budget: some complete,
    // never all.
    let out = drive(
        &daemon,
        r#"{"type":"run","id":"slow","scenario":"chaos_slow","seed":5,"replicates":8,"deadline_ms":70}"#,
    );
    let last = out.last().unwrap();
    assert!(last.contains("\"status\":\"timeout\""), "{last}");
    assert!(last.contains("\"requested\":8"), "{last}");
    let completed = out.len() - 1; // replicate lines stream ahead of the result
    assert!(
        (1..8).contains(&completed),
        "expected a strict partial prefix, got {completed} of 8:\n{last}"
    );
    assert!(
        last.contains(&format!("\"completed\":{completed}")),
        "{last}"
    );
    // The partial report reduces over exactly the completed prefix.
    assert!(
        last.contains(&format!("\"replicates\":{completed}")),
        "{last}"
    );
    for (i, line) in out[..completed].iter().enumerate() {
        assert!(line.contains(&format!("\"replicate\":{i}")), "{line}");
    }
    assert_eq!(daemon.metrics().timeouts.get(), 1);

    // deadline_ms: 0 = already expired — a clean, typed, zero-work timeout.
    let out = drive(
        &daemon,
        r#"{"type":"run","id":"zero","scenario":"fig12","deadline_ms":0}"#,
    );
    assert_eq!(out.len(), 1);
    assert!(out[0].contains("\"status\":\"timeout\""), "{}", out[0]);
    assert!(out[0].contains("\"completed\":0"), "{}", out[0]);
    daemon.shutdown();
}

#[test]
fn worker_kill_mid_request_fails_typed_and_respawns() {
    let daemon = chaos_daemon(2, 4, None);
    let out = drive(
        &daemon,
        r#"{"type":"run","id":"kill","scenario":"chaos_kill_worker","seed":9,"replicates":2}"#,
    );
    let last = out.last().unwrap();
    assert!(last.contains("\"error\":\"worker_lost\""), "{last}");
    assert_eq!(daemon.metrics().worker_lost.get(), 1);
    assert!(
        daemon.metrics().respawns.get() >= 1,
        "dead workers respawned"
    );

    // The daemon answers the next request correctly on the respawned pool.
    let out = drive(
        &daemon,
        r#"{"type":"run","id":"next","scenario":"fig12","seed":11,"replicates":2}"#,
    );
    let spec = registry::find("fig12").unwrap();
    let want = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1).to_json();
    assert!(
        out.last()
            .unwrap()
            .contains(&format!("\"report\":{want}}}")),
        "post-kill report drifted\n{}",
        out.last().unwrap()
    );
    daemon.shutdown();
}

#[test]
fn overload_sheds_typed_and_degrades_to_cached_quick() {
    let dir = tmp_dir("overload");
    let daemon = chaos_daemon(4, 1, Some(dir.clone()));
    // Prewarm a committed Quick result for fig12.
    let warm = drive(
        &daemon,
        r#"{"type":"run","id":"warm","scenario":"fig12","seed":11,"replicates":2}"#,
    );
    let warm_report = warm.last().unwrap().clone();
    assert!(warm_report.contains("\"status\":\"ok\""), "{warm_report}");

    // Saturate the single admission slot with a ~400 ms sleepy request,
    // then poke concurrent requests at the overloaded daemon.
    std::thread::scope(|s| {
        s.spawn(|| {
            let out = drive(
                &daemon,
                r#"{"type":"run","id":"hog","scenario":"chaos_sleepy","seed":1,"replicates":1}"#,
            );
            assert!(
                out.last().unwrap().contains("\"status\":\"ok\""),
                "the hog itself completes: {}",
                out.last().unwrap()
            );
        });
        // Let the hog claim the slot.
        while daemon.metrics().cache_misses.get() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Paper request with a committed Quick sibling → degraded hit.
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"deg","scenario":"fig12","quality":"paper","seed":11,"replicates":2}"#,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"degraded\":true"), "{}", out[0]);
        assert!(out[0].contains("\"cached\":true"), "{}", out[0]);
        // The degraded payload is the committed Quick report, verbatim.
        let spec = registry::find("fig12").unwrap();
        let want = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1).to_json();
        assert!(
            out[0].contains(&format!("\"report\":{want}}}")),
            "{}",
            out[0]
        );

        // No cached fallback → typed shed.
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"shed","scenario":"fig14","seed":11,"replicates":2}"#,
        );
        assert!(out[0].contains("\"error\":\"overloaded\""), "{}", out[0]);

        // Exact cache hits stay free even under overload.
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"hit","scenario":"fig12","seed":11,"replicates":2}"#,
        );
        assert!(out[0].contains("\"cached\":true"), "{}", out[0]);
        assert!(out[0].contains("\"degraded\":false"), "{}", out[0]);
    });
    assert_eq!(daemon.metrics().degraded.get(), 1);
    assert_eq!(daemon.metrics().sheds.get(), 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_responses_are_deterministic_across_runs_and_workers() {
    // Same request → byte-identical successful responses, whatever the
    // worker count and whatever faults other requests injected — chaos
    // scenarios emit seed-derived metrics and are held to the same
    // standard as real ones.
    let mut reference: Option<Vec<String>> = None;
    for workers in [1, 4, 1] {
        let daemon = chaos_daemon(workers, 4, None);
        // Inject unrelated carnage first.
        drive(
            &daemon,
            r#"{"type":"run","id":"x","scenario":"chaos_panic"}"#,
        );
        drive(
            &daemon,
            r#"{"type":"run","id":"y","scenario":"chaos_kill_worker"}"#,
        );
        // Master seed 5 derives even (non-panicking) trial seeds for both
        // chaos_flaky replicates, so this request must *succeed* — and
        // identically every time.
        let out = drive(
            &daemon,
            r#"{"type":"run","id":"d","scenario":"chaos_flaky","seed":5,"replicates":2}"#,
        );
        match &reference {
            None => reference = Some(out),
            Some(want) => assert_eq!(&out, want, "workers={workers} drifted"),
        }
        daemon.shutdown();
    }
    // And the responses really were successes, not matching errors.
    let last = reference.unwrap().pop().unwrap();
    assert!(last.contains("\"status\":\"ok\""), "{last}");
}
