//! The daemon: request dispatch, admission control, cache plumbing,
//! transports, and graceful shutdown.
//!
//! One [`Daemon`] owns a [`WorkerPool`], an optional [`ResultCache`], and a
//! [`ServeMetrics`] registry. Transports ([`serve_stream`] for stdio /
//! per-connection sockets, [`serve_socket`] for the Unix-socket accept
//! loop) are thin: they frame lines and hand them to
//! [`Daemon::handle_line`], which owns every protocol decision. That split
//! is what the chaos suite leans on — it drives `handle_line` directly and
//! asserts the daemon's replies are bit-identical to
//! `registry::run_scenario`, while CI drives the real socket.
//!
//! Robustness decisions, in one place:
//!
//! - **Panic isolation**: the pool runs trials under the trial engine's
//!   panic capture; a panicking scenario yields a typed `panic` error
//!   response. Worker *loss* yields `worker_lost` and an automatic
//!   respawn. The daemon process never dies for either.
//! - **Deadlines**: cooperative, checked between replicates
//!   ([`iac_sim::engine::Deadline`], the same machinery
//!   `sweep --timeout-secs` uses). On expiry the completed contiguous
//!   prefix is reduced and flushed with `status:"timeout"`. `deadline_ms`
//!   of `0` means "already expired" (useful for probing). Partial results
//!   are never cached.
//! - **Backpressure**: at most `max_inflight` run requests execute at
//!   once. Over that, a Paper request falls back to a committed Quick
//!   result for the same `(scenario, seed, replicates)` — served with
//!   `degraded:true` — and anything else gets a typed `overloaded` error.
//!   Admission is all-or-nothing per request; nothing queues half-done.
//! - **Crash safety**: completed runs commit to the content-addressed
//!   cache atomically; `SIGTERM`/`shutdown` stop intake, drain in-flight
//!   work, and lose nothing committed.

use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iac_obs::{Counter, Registry, Snapshot};
use iac_sim::engine::{self, Deadline};
use iac_sim::registry::{self, Quality, Scenario};
use iac_sim::{desrec, DEFAULT_SEED};

use crate::cache::{CacheKey, CacheLookup, RecoveryReport, ResultCache};
use crate::chaos;
use crate::pool::{run_batch, BatchError, WorkerPool};
use crate::protocol::{
    self, bye_line, error_line, pong_line, replicate_line, result_line, stats_line, ProtoError,
    Request, RunRequest, RunStatus,
};

/// Daemon configuration (CLI flags map 1:1, see `examples/serve.rs`).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads in the trial pool.
    pub workers: usize,
    /// Run requests executing at once before load-shedding kicks in.
    pub max_inflight: usize,
    /// Result cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Directory for `.iaclog` audit recordings of served DES runs;
    /// `None` disables auditing.
    pub audit_dir: Option<PathBuf>,
    /// Expose the `chaos_*` fault-injection scenarios.
    pub chaos: bool,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            max_inflight: 4,
            cache_dir: None,
            audit_dir: None,
            chaos: false,
            default_deadline_ms: None,
        }
    }
}

/// The daemon's `iac-obs` counters. Always compiled (the `obs` feature
/// gates only span tracing); snapshots are deterministic name-ordered JSON.
pub struct ServeMetrics {
    registry: Registry,
    /// Requests decoded (any type).
    pub requests: Arc<Counter>,
    /// Run requests answered from the cache.
    pub cache_hits: Arc<Counter>,
    /// Run requests that had to compute.
    pub cache_misses: Arc<Counter>,
    /// Corrupt cache entries quarantined (startup scan + lazy).
    pub quarantined: Arc<Counter>,
    /// Requests rejected outright under overload.
    pub sheds: Arc<Counter>,
    /// Requests served a lower-quality cached result under overload.
    pub degraded: Arc<Counter>,
    /// Replicate panics caught.
    pub panics: Arc<Counter>,
    /// Deadline expiries (partial results flushed).
    pub timeouts: Arc<Counter>,
    /// Worker threads respawned after loss.
    pub respawns: Arc<Counter>,
    /// Batches failed by a lost worker.
    pub worker_lost: Arc<Counter>,
    /// Undecodable request lines.
    pub protocol_errors: Arc<Counter>,
}

impl ServeMetrics {
    /// Fresh registry with every counter registered (so `stats` responses
    /// always carry the full schema, zeros included).
    pub fn new() -> Self {
        let registry = Registry::new();
        let c = |name: &str| registry.counter(name);
        ServeMetrics {
            requests: c("serve.requests"),
            cache_hits: c("serve.cache_hits"),
            cache_misses: c("serve.cache_misses"),
            quarantined: c("serve.cache_quarantined"),
            sheds: c("serve.sheds"),
            degraded: c("serve.degraded"),
            panics: c("serve.panics"),
            timeouts: c("serve.timeouts"),
            respawns: c("serve.respawns"),
            worker_lost: c("serve.worker_lost"),
            protocol_errors: c("serve.protocol_errors"),
            registry,
        }
    }

    /// Deterministic snapshot of every counter.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether the connection should keep reading after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Continue,
    /// A `shutdown` was acknowledged; the daemon is draining.
    Stop,
}

/// Decrements the in-flight count on every exit path.
struct AdmitGuard<'a>(&'a AtomicUsize);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The long-running experiment daemon. All methods take `&self`; one
/// instance serves every transport concurrently.
pub struct Daemon {
    cfg: DaemonConfig,
    pool: WorkerPool,
    cache: Option<ResultCache>,
    recovery: RecoveryReport,
    metrics: ServeMetrics,
    scenarios: Vec<Scenario>,
    inflight: AtomicUsize,
    stop: AtomicBool,
}

impl Daemon {
    /// Build the daemon: spawn the pool, open the cache (running its
    /// recovery scan), and assemble the scenario table (the full registry,
    /// plus the `chaos_*` family when `cfg.chaos`).
    pub fn new(cfg: DaemonConfig) -> io::Result<Daemon> {
        let metrics = ServeMetrics::new();
        let (cache, recovery) = match &cfg.cache_dir {
            Some(dir) => {
                let (cache, recovery) = ResultCache::open(dir)?;
                (Some(cache), recovery)
            }
            None => (None, RecoveryReport::default()),
        };
        metrics.quarantined.add(recovery.quarantined as u64);
        if let Some(dir) = &cfg.audit_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut scenarios = registry::all();
        if cfg.chaos {
            scenarios.extend(chaos::scenarios());
        }
        let pool = WorkerPool::new(cfg.workers);
        Ok(Daemon {
            pool,
            cache,
            recovery,
            metrics,
            scenarios,
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            cfg,
        })
    }

    /// What the startup cache recovery scan found.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The daemon's metric counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Ask the daemon to stop: intake loops exit at their next check;
    /// in-flight work still drains.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested (by `shutdown`, or by `SIGTERM` when
    /// [`install_sigterm`] is active).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sigterm_received()
    }

    /// Drain and join the worker pool. Call after the transports return.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Handle one framed request line, emitting zero or more response
    /// lines through `emit` (each a complete JSON object, no newline).
    pub fn handle_line(&self, line: &[u8], emit: &mut dyn FnMut(&str)) -> Flow {
        match protocol::decode_request(line) {
            Err(e) => {
                self.metrics.protocol_errors.inc();
                emit(&error_line(None, e.code(), &e.to_string()));
                Flow::Continue
            }
            Ok(req) => {
                self.metrics.requests.inc();
                match req {
                    Request::Ping { id } => {
                        emit(&pong_line(&id));
                        Flow::Continue
                    }
                    Request::Stats { id } => {
                        emit(&stats_line(&id, &self.metrics.snapshot().to_json()));
                        Flow::Continue
                    }
                    Request::Shutdown { id } => {
                        self.request_stop();
                        emit(&bye_line(&id));
                        Flow::Stop
                    }
                    Request::Run(rr) => {
                        self.handle_run(&rr, emit);
                        Flow::Continue
                    }
                }
            }
        }
    }

    /// Report an oversized line (already consumed by the framer) without
    /// decoding it.
    pub fn handle_oversized(&self, len: usize, emit: &mut dyn FnMut(&str)) {
        let e = ProtoError::Oversized { len };
        self.metrics.protocol_errors.inc();
        emit(&error_line(None, e.code(), &e.to_string()));
    }

    fn find(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    fn try_admit(&self) -> Option<AdmitGuard<'_>> {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cfg.max_inflight).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmitGuard(&self.inflight))
    }

    fn cache_lookup(&self, key: &CacheKey) -> CacheLookup {
        match &self.cache {
            None => CacheLookup::Miss,
            Some(cache) => {
                let lookup = cache.get_detailed(key);
                if lookup == CacheLookup::Quarantined {
                    self.metrics.quarantined.inc();
                }
                lookup
            }
        }
    }

    fn handle_run(&self, rr: &RunRequest, emit: &mut dyn FnMut(&str)) {
        // Top the pool back up front (counted), so a worker lost on a past
        // request never degrades future ones.
        let respawned = self.pool.respawn_dead();
        self.metrics.respawns.add(respawned as u64);

        let Some(spec) = self.find(&rr.scenario) else {
            emit(&error_line(
                Some(&rr.id),
                "unknown_scenario",
                &format!("no scenario named {:?}", rr.scenario),
            ));
            return;
        };
        let seed = rr.seed.unwrap_or(DEFAULT_SEED);
        let replicates = rr.replicates.unwrap_or(spec.default_replicates);
        let key = CacheKey {
            scenario: spec.name.to_string(),
            quality: rr.quality,
            seed,
            replicates,
        };

        // 1. Committed exact result? Free, regardless of load.
        if !rr.no_cache {
            if let CacheLookup::Hit(report) = self.cache_lookup(&key) {
                self.metrics.cache_hits.inc();
                emit(&result_line(
                    &rr.id,
                    RunStatus::Ok,
                    true,
                    false,
                    replicates,
                    replicates,
                    &report,
                ));
                return;
            }
        }

        // 2. Admission. Over capacity, degrade a Paper request to a
        //    committed Quick result if one exists; otherwise shed.
        let Some(_guard) = self.try_admit() else {
            if rr.quality == Quality::Paper && !rr.no_cache {
                let fallback = CacheKey {
                    quality: Quality::Quick,
                    ..key.clone()
                };
                if let CacheLookup::Hit(report) = self.cache_lookup(&fallback) {
                    self.metrics.degraded.inc();
                    emit(&result_line(
                        &rr.id,
                        RunStatus::Ok,
                        true,
                        true,
                        replicates,
                        replicates,
                        &report,
                    ));
                    return;
                }
            }
            self.metrics.sheds.inc();
            emit(&error_line(
                Some(&rr.id),
                "overloaded",
                &format!(
                    "{} run requests already in flight; retry later",
                    self.cfg.max_inflight
                ),
            ));
            return;
        };
        self.metrics.cache_misses.inc();

        // 3. Compute: same seed derivation and reduce as
        //    `registry::run_scenario`, scheduled on the daemon's pool.
        let deadline = match rr.deadline_ms.or(self.cfg.default_deadline_ms) {
            None => Deadline::none(),
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
        };
        let scen_seed = registry::scenario_seed(seed, spec.name);
        let seeds: Vec<u64> = engine::trials_for(scen_seed, replicates)
            .iter()
            .map(|t| t.seed)
            .collect();
        let kill = self.cfg.chaos && spec.name == chaos::KILL_SCENARIO;
        let id = rr.id.clone();
        let outcome = run_batch(
            &self.pool,
            spec.run,
            rr.quality,
            &seeds,
            deadline,
            kill,
            |i, out| emit(&replicate_line(&id, i, &out.metrics)),
        );

        match outcome.error {
            Some(BatchError::Panicked(p)) => {
                self.metrics.panics.inc();
                emit(&error_line(
                    Some(&rr.id),
                    "panic",
                    &format!("replicate {} panicked: {}", p.replicate, p.message),
                ));
            }
            Some(BatchError::WorkerLost) => {
                self.metrics.worker_lost.inc();
                // Loss is detected the instant the dying worker drops its
                // job, which can be a hair before its thread finishes
                // tearing down and `is_finished()` flips — wait that out so
                // the respawn is committed before this response goes out.
                let mut respawned = self.pool.respawn_dead();
                let wait_until = std::time::Instant::now() + Duration::from_millis(500);
                while respawned == 0 && std::time::Instant::now() < wait_until {
                    std::thread::sleep(Duration::from_millis(1));
                    respawned = self.pool.respawn_dead();
                }
                self.metrics.respawns.add(respawned as u64);
                emit(&error_line(
                    Some(&rr.id),
                    "worker_lost",
                    &format!("a worker died mid-request; {respawned} respawned"),
                ));
            }
            None => {
                let completed = outcome.outputs.len();
                let report = registry::reduce_outputs(
                    spec.name,
                    rr.quality,
                    seed,
                    completed,
                    &outcome.outputs,
                );
                let json = report.to_json();
                if outcome.complete {
                    if !rr.no_cache {
                        if let Some(cache) = &self.cache {
                            // Commit failures are non-fatal: the result
                            // still goes out, only the cache misses again.
                            let _ = cache.put(&key, &json);
                        }
                    }
                    self.audit(spec.name, rr.quality, seed);
                    emit(&result_line(
                        &rr.id,
                        RunStatus::Ok,
                        false,
                        false,
                        completed,
                        replicates,
                        &json,
                    ));
                } else {
                    self.metrics.timeouts.inc();
                    emit(&result_line(
                        &rr.id,
                        RunStatus::Timeout,
                        false,
                        false,
                        completed,
                        replicates,
                        &json,
                    ));
                }
            }
        }
    }

    /// Audit trail: re-record replicate 0 of a freshly computed DES run to
    /// `.iaclog` event logs (PR 6's record format), so any served DES
    /// result can be replayed and bit-verified offline with
    /// `examples/replay.rs`. Costs one extra replicate; that's the price
    /// of auditing and is documented in `docs/SERVE.md`.
    fn audit(&self, name: &'static str, quality: Quality, master_seed: u64) {
        let Some(dir) = &self.cfg.audit_dir else {
            return;
        };
        if !desrec::DES_SCENARIOS.contains(&name) {
            return;
        }
        // One subdirectory per (scenario, quality, master seed), in the
        // exact layout `examples/replay.rs record` writes — so any served
        // DES number can be re-verified offline with
        // `replay -- replay --scenario <name> [--paper] --dir <subdir>`.
        let sub = dir.join(format!("{name}-{}-{master_seed:016x}-r0", quality.label()));
        if std::fs::create_dir_all(&sub).is_err() {
            return;
        }
        let scen_seed = registry::scenario_seed(master_seed, name);
        let trial_seed = engine::trials_for(scen_seed, 1)[0].seed;
        let runs = desrec::des_runs(name, quality, trial_seed);
        let mut outcomes = Vec::with_capacity(runs.len());
        for run in &runs {
            let (log, outcome) = desrec::record(run);
            let _ = std::fs::write(sub.join(format!("{}.iaclog", run.label)), log);
            let _ = std::fs::write(
                sub.join(format!("{}.metrics.json", run.label)),
                outcome.log.to_json(),
            );
            outcomes.push(outcome);
        }
        let trial = desrec::trial_output_from(name, quality, trial_seed, outcomes);
        let _ = std::fs::write(
            sub.join("trial.json"),
            desrec::trial_json(name, quality, master_seed, 0, trial_seed, &trial),
        );
    }
}

/// One framed read's result.
enum LineEvent {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// A line that blew past [`protocol::MAX_LINE_BYTES`]; it has been
    /// consumed up to (and including) its newline, so the stream is
    /// resynchronized.
    Oversized(usize),
    /// End of stream.
    Eof,
    /// `stop` fired while waiting for input.
    Stopped,
}

/// Read one newline-terminated line, never buffering more than the
/// protocol cap: past the cap, bytes are counted and discarded until the
/// newline. `WouldBlock`/`TimedOut` reads (socket read timeouts) poll
/// `stop` instead of failing, which is how a blocked connection notices a
/// daemon-wide drain.
fn read_line_capped(
    reader: &mut impl BufRead,
    stop: &dyn Fn() -> bool,
) -> io::Result<LineEvent> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarded = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    return Ok(LineEvent::Stopped);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() && discarded == 0 {
                LineEvent::Eof
            } else if discarded > 0 {
                LineEvent::Oversized(buf.len() + discarded)
            } else {
                // Final unterminated line: still a line.
                LineEvent::Line(std::mem::take(&mut buf))
            });
        }
        let (take, found_newline) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        let payload = take - usize::from(found_newline);
        if discarded > 0 || buf.len() + payload > protocol::MAX_LINE_BYTES {
            discarded += payload;
        } else {
            buf.extend_from_slice(&chunk[..payload]);
        }
        reader.consume(take);
        if found_newline {
            return Ok(if discarded > 0 {
                LineEvent::Oversized(buf.len() + discarded)
            } else {
                LineEvent::Line(std::mem::take(&mut buf))
            });
        }
    }
}

/// Serve one bidirectional stream (stdin/stdout, or one accepted socket
/// connection): frame lines, dispatch, write each response line followed
/// by `\n`, flush after every line so clients see replicates stream in.
/// Returns when the peer closes, a `shutdown` is processed, or `stop`
/// fires between reads.
pub fn serve_stream(
    daemon: &Daemon,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    stop: &dyn Fn() -> bool,
) -> io::Result<()> {
    loop {
        if daemon.stopping() || stop() {
            return Ok(());
        }
        match read_line_capped(reader, &|| daemon.stopping() || stop())? {
            LineEvent::Eof | LineEvent::Stopped => return Ok(()),
            LineEvent::Oversized(len) => {
                let mut err: io::Result<()> = Ok(());
                daemon.handle_oversized(len, &mut |line| {
                    if err.is_ok() {
                        err = writeln!(writer, "{line}").and_then(|()| writer.flush());
                    }
                });
                err?;
            }
            LineEvent::Line(line) => {
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    continue; // blank keep-alive lines are legal
                }
                let mut err: io::Result<()> = Ok(());
                let flow = daemon.handle_line(&line, &mut |line| {
                    if err.is_ok() {
                        err = writeln!(writer, "{line}").and_then(|()| writer.flush());
                    }
                });
                err?;
                if flow == Flow::Stop {
                    return Ok(());
                }
            }
        }
    }
}

/// Accept loop on a Unix socket: one thread per connection, each running
/// [`serve_stream`] with a 100 ms read timeout so every connection polls
/// the stop flag. Returns once a stop is requested (signal or `shutdown`
/// request on any connection) and all connections have drained; the
/// socket file is removed on the way out.
#[cfg(unix)]
pub fn serve_socket(daemon: &Daemon, path: &Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let result = std::thread::scope(|s| -> io::Result<()> {
        loop {
            if daemon.stopping() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                    let reader_stream = stream.try_clone()?;
                    s.spawn(move || {
                        let mut reader = io::BufReader::new(reader_stream);
                        let mut writer = stream;
                        // Peer hangups surface as io errors; the daemon
                        // just drops the connection.
                        let _ = serve_stream(daemon, &mut reader, &mut writer, &|| false);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    });
    let _ = std::fs::remove_file(path);
    result
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Install a `SIGTERM`/`SIGINT` handler that flips the process-wide stop
/// flag [`Daemon::stopping`] polls, turning an external kill into the same
/// graceful drain as a `shutdown` request. `std` already links `libc`, so
/// `signal(2)` is declared directly rather than pulling in a crate.
#[cfg(unix)]
pub fn install_sigterm() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGTERM_NO, on_sigterm);
        signal(SIGINT, on_sigterm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(daemon: &Daemon, line: &str) -> (Flow, Vec<String>) {
        let mut out = Vec::new();
        let flow = daemon.handle_line(line.as_bytes(), &mut |l| out.push(l.to_string()));
        (flow, out)
    }

    fn quick_daemon(cfg: DaemonConfig) -> Daemon {
        Daemon::new(cfg).expect("daemon builds")
    }

    #[test]
    fn ping_stats_and_garbage() {
        let daemon = quick_daemon(DaemonConfig::default());
        let (flow, out) = collect(&daemon, r#"{"type":"ping","id":"p1"}"#);
        assert_eq!(flow, Flow::Continue);
        assert_eq!(out, vec![r#"{"type":"pong","id":"p1"}"#.to_string()]);

        let (_, out) = collect(&daemon, "not json at all");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"error\":\"protocol\""), "{}", out[0]);

        let (_, out) = collect(&daemon, r#"{"type":"stats","id":"s1"}"#);
        assert!(out[0].contains("\"serve.requests\":"), "{}", out[0]);
        assert!(out[0].contains("\"serve.protocol_errors\":1"), "{}", out[0]);
        daemon.shutdown();
    }

    #[test]
    fn run_matches_registry_bit_for_bit() {
        let daemon = quick_daemon(DaemonConfig {
            workers: 4,
            ..DaemonConfig::default()
        });
        let (_, out) = collect(
            &daemon,
            r#"{"type":"run","id":"r1","scenario":"fig12","seed":11,"replicates":2}"#,
        );
        let spec = registry::find("fig12").unwrap();
        let want = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1).to_json();
        let last = out.last().unwrap();
        assert!(
            last.contains(&format!("\"report\":{want}}}")),
            "daemon report drifted from registry:\n{last}\nwant {want}"
        );
        // 2 replicate lines + 1 result line, replicates in index order.
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"replicate\":0"));
        assert!(out[1].contains("\"replicate\":1"));
        daemon.shutdown();
    }

    #[test]
    fn unknown_scenario_is_typed() {
        let daemon = quick_daemon(DaemonConfig::default());
        let (_, out) = collect(
            &daemon,
            r#"{"type":"run","id":"r","scenario":"nonesuch"}"#,
        );
        assert!(out[0].contains("\"error\":\"unknown_scenario\""), "{}", out[0]);
        // Chaos scenarios are absent unless enabled.
        let (_, out) = collect(
            &daemon,
            r#"{"type":"run","id":"r","scenario":"chaos_panic"}"#,
        );
        assert!(out[0].contains("unknown_scenario"), "{}", out[0]);
        daemon.shutdown();
    }

    #[test]
    fn stream_frames_oversized_blank_and_shutdown() {
        let daemon = quick_daemon(DaemonConfig::default());
        let mut input = Vec::new();
        input.extend_from_slice(b"\n   \n"); // blank keep-alives
        input.extend_from_slice(br#"{"type":"ping","id":"a"}"#);
        input.push(b'\n');
        // An oversized line that must be consumed, reported, and resynced
        // past — the ping after it must still be answered.
        input.extend_from_slice(&vec![b'x'; protocol::MAX_LINE_BYTES + 100]);
        input.push(b'\n');
        input.extend_from_slice(br#"{"type":"ping","id":"b"}"#);
        input.push(b'\n');
        input.extend_from_slice(br#"{"type":"shutdown","id":"z"}"#);
        input.push(b'\n');
        input.extend_from_slice(br#"{"type":"ping","id":"never"}"#);
        input.push(b'\n');

        let mut reader = io::BufReader::new(&input[..]);
        let mut out = Vec::new();
        serve_stream(&daemon, &mut reader, &mut out, &|| false).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"id\":\"a\""));
        assert!(lines[1].contains("\"error\":\"oversized\""));
        assert!(lines[2].contains("\"id\":\"b\""));
        assert!(lines[3].contains("\"type\":\"bye\""));
        assert!(!text.contains("never"), "no service after shutdown");
        assert!(daemon.stopping());
        daemon.shutdown();
    }
}
