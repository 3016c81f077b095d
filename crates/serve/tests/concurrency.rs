//! The coarse-lock tripwire: two clients on the Unix socket, one slow
//! (`chaos_sleepy`, ~300 ms of pure sleep) and one fast. If the daemon
//! serialized requests behind a global lock, the fast client would wait
//! out the sleeper; instead it must complete while the sleeper is still in
//! flight. Sleeping (not spinning) makes this sound even on a single-core
//! runner. CI re-proves the same property end-to-end against the real
//! binary with N parallel clients (the mosaic-serve smoke pattern).
#![cfg(unix)]

use iac_serve::{serve_socket, Daemon, DaemonConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iac_serve_cc_{}_{tag}.sock", std::process::id()))
}

/// Stops the daemon when dropped — **including on panic**. Every accept
/// loop in these tests runs inside the same `thread::scope` as the
/// assertions; without this guard a failed assertion would unwind into
/// the scope's implicit join and deadlock against the still-polling
/// accept thread instead of failing the test.
struct StopOnDrop<'a>(&'a Daemon);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_stop();
    }
}

/// Send one request line, read response lines until the `result` line for
/// `id` arrives; return the lines and the arrival instant.
fn request(path: &PathBuf, line: &str, id: &str) -> (Vec<String>, Instant) {
    let mut stream = UnixStream::connect(path).expect("connect");
    writeln!(stream, "{line}").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut lines = Vec::new();
    loop {
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).unwrap();
        assert!(n > 0, "daemon hung up before answering {id}: {lines:?}");
        let buf = buf.trim_end().to_string();
        let done = (buf.contains("\"type\":\"result\"") || buf.contains("\"type\":\"error\""))
            && buf.contains(&format!("\"id\":\"{id}\""));
        lines.push(buf);
        if done {
            return (lines, Instant::now());
        }
    }
}

#[test]
fn parallel_clients_do_not_serialize() {
    let path = sock_path("parallel");
    let daemon = Daemon::new(DaemonConfig {
        workers: 4,
        max_inflight: 4,
        chaos: true,
        ..DaemonConfig::default()
    })
    .unwrap();

    std::thread::scope(|s| {
        let _stop = StopOnDrop(&daemon);
        let accept = s.spawn(|| serve_socket(&daemon, &path).unwrap());
        // Wait for the socket to exist.
        let t0 = Instant::now();
        while !path.exists() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "socket never appeared"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // 12 sleepy replicates on 4 workers: three-plus waves, ≥ 1.2 s of
        // wall clock. The fast request joins the queue during wave 1 and
        // sleeps once (~300 ms), so it finishes a full wave (~600 ms)
        // ahead of the sleeper — but only if requests genuinely share the
        // pool. Both sides sleep rather than compute, so a slow debug
        // build cannot flip the ordering.
        let slow = s.spawn(|| {
            request(
                &path,
                r#"{"type":"run","id":"slow","scenario":"chaos_sleepy","seed":1,"replicates":12,"no_cache":true}"#,
                "slow",
            )
        });
        // Give the sleeper a head start so it is genuinely in flight.
        std::thread::sleep(Duration::from_millis(60));
        let (fast_lines, fast_done) = request(
            &path,
            r#"{"type":"run","id":"fast","scenario":"chaos_sleepy","seed":2,"replicates":1,"no_cache":true}"#,
            "fast",
        );
        let (slow_lines, slow_done) = slow.join().unwrap();

        assert!(
            fast_lines.last().unwrap().contains("\"status\":\"ok\""),
            "{fast_lines:?}"
        );
        assert!(
            slow_lines.last().unwrap().contains("\"status\":\"ok\""),
            "{slow_lines:?}"
        );
        assert!(
            fast_done < slow_done,
            "fast request finished after the sleeper: the daemon serialized"
        );

        // Graceful drain: shutdown over the socket stops the accept loop.
        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .write_all(b"{\"type\":\"shutdown\",\"id\":\"bye\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"type\":\"bye\""), "{line}");
        accept.join().unwrap();
    });
    assert!(!path.exists(), "socket file removed on exit");
    daemon.shutdown();
}

#[test]
fn many_concurrent_clients_all_get_exact_answers() {
    let path = sock_path("many");
    let daemon = Daemon::new(DaemonConfig {
        workers: 4,
        max_inflight: 8,
        ..DaemonConfig::default()
    })
    .unwrap();

    std::thread::scope(|s| {
        let _stop = StopOnDrop(&daemon);
        s.spawn(|| serve_socket(&daemon, &path).unwrap());
        let t0 = Instant::now();
        while !path.exists() {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(5));
        }

        let want = {
            let spec = iac_sim::registry::find("fig12").unwrap();
            iac_sim::registry::run_scenario(&spec, iac_sim::Quality::Quick, 11, 2, 1).to_json()
        };
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let want = want.clone();
                let path = path.clone();
                s.spawn(move || {
                    let id = format!("c{i}");
                    let line = format!(
                        r#"{{"type":"run","id":"{id}","scenario":"fig12","seed":11,"replicates":2,"no_cache":true}}"#
                    );
                    let (lines, _) = request(&path, &line, &id);
                    let last = lines.last().unwrap();
                    assert!(
                        last.contains(&format!("\"report\":{want}}}")),
                        "client {id} got a drifted report: {last}"
                    );
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        daemon.request_stop();
    });
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}
