//! The `serve_mixed` workload: one closed-loop client driving
//! `Daemon::handle_line` on an in-process daemon with one pool worker.

use crate::plan::{run_line, ServeKey, Stream, SERVE_REPLICATES, SERVE_SCENARIOS};
use crate::report::{end_to_end, peak_rss_mb, Metrics, Tally};
use iac_linalg::Rng64;
use iac_serve::{CacheKey, Daemon, DaemonConfig, ResultCache};
use iac_sim::registry::{self, Quality};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pool workers in the daemon.
pub const POOL_WORKERS: usize = 1;

/// Master seeds per serve scenario whose results an earlier daemon run left
/// in the cache: the recovery scan at every start-up validates these
/// `SERVE_SCENARIOS.len() × PRIOR_SEEDS` entries.
const PRIOR_SEEDS: u64 = 4;

/// Rng stream for the prior entries' seeds.
const PRIOR_SEED_STREAM: u64 = 4;

/// Replicates of the prior entries: not [`SERVE_REPLICATES`], so no stream
/// key can collide with one.
const PRIOR_REPLICATES: usize = 2;

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const RESULT_PREFIX: &str = "{\"type\":\"result\"";

/// A cache directory holding the prior run's entries, and the stream.
pub struct ServeBench {
    /// The daemon's cache directory.
    pub cache_dir: PathBuf,
    /// The seeded request stream.
    pub stream: Stream,
    seed: u64,
}

/// What one pass measured.
pub struct PassTimes {
    /// Daemon start-up plus warm-up, s.
    pub setup_s: f64,
    /// First request sent to last response received, s.
    pub stream_s: f64,
    /// Per-request latency, ms, in stream order.
    pub latency_ms: Vec<f64>,
    /// The daemon's counters after the pass: (hits, misses).
    pub hits_misses: (u64, u64),
}

fn cache_key(key: ServeKey, replicates: usize) -> CacheKey {
    CacheKey {
        scenario: key.scenario.to_string(),
        quality: Quality::Quick,
        seed: key.seed,
        replicates,
    }
}

/// The report a `result` line carries (spliced verbatim before the final
/// brace), if the line is a successful result.
fn result_report(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(RESULT_PREFIX)?;
    if !rest.starts_with(",\"id\":") || !rest.contains("\"status\":\"ok\"") {
        return None;
    }
    let at = rest.find("\"report\":")?;
    rest[at + "\"report\":".len()..].strip_suffix('}')
}

impl ServeBench {
    /// Fill `cache_dir` with the prior run's entries (real reports at
    /// [`PRIOR_REPLICATES`]) and build the stream. Untimed.
    pub fn prepare(seed: u64, cache_dir: &Path) -> std::io::Result<ServeBench> {
        let (cache, _) = ResultCache::open(cache_dir)?;
        for scenario in SERVE_SCENARIOS {
            let spec = registry::find(scenario).expect("serve scenario registered");
            for j in 0..PRIOR_SEEDS {
                let key = ServeKey {
                    scenario,
                    seed: Rng64::derive_seed(Rng64::derive_seed(seed, PRIOR_SEED_STREAM), j),
                };
                let report =
                    registry::run_scenario(&spec, Quality::Quick, key.seed, PRIOR_REPLICATES, 1);
                cache.put(&cache_key(key, PRIOR_REPLICATES), &report.to_json())?;
            }
        }
        Ok(ServeBench {
            cache_dir: cache_dir.to_path_buf(),
            stream: Stream::new(seed),
            seed,
        })
    }

    /// One pass. Set-up (timed): start the daemon, whose cache recovery
    /// scan validates the prior entries, and send one uncached warm-up
    /// request per scenario. Then the stream, each request timed from send
    /// to its last response line. Afterwards (untimed) stop the daemon,
    /// check every response and the daemon's hit and miss counters, and
    /// delete the entries the stream wrote so the next pass starts from
    /// the same cache.
    pub fn pass(&self, reports: &mut HashMap<usize, String>, tally: &mut Tally) -> PassTimes {
        let t0 = Instant::now();
        let daemon = Daemon::new(DaemonConfig {
            workers: POOL_WORKERS,
            cache_dir: Some(self.cache_dir.clone()),
            ..DaemonConfig::default()
        })
        .expect("daemon starts on the benchmark's cache directory");
        for (i, &scenario) in SERVE_SCENARIOS.iter().enumerate() {
            let key = ServeKey {
                scenario,
                seed: self.seed,
            };
            daemon.handle_line(
                run_line(&format!("w{i}"), key, true, 1).as_bytes(),
                &mut |_| {},
            );
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let counts = |daemon: &Daemon| {
            let snap = daemon.metrics().snapshot();
            let c = |name| snap.counter(name).unwrap_or(0);
            (c("serve.cache_hits"), c("serve.cache_misses"))
        };
        // The uncached warm-ups count as misses; only the stream's count.
        let before = counts(&daemon);

        let n = self.stream.requests.len();
        let mut latency_ms = Vec::with_capacity(n);
        let mut results: Vec<String> = Vec::with_capacity(n);
        let s0 = Instant::now();
        for req in &self.stream.requests {
            let r0 = Instant::now();
            let mut last = String::new();
            daemon.handle_line(req.line.as_bytes(), &mut |line| {
                if !line.starts_with("{\"type\":\"replicate\"") {
                    last = line.to_string();
                }
            });
            latency_ms.push(r0.elapsed().as_secs_f64() * 1e3);
            results.push(last);
        }
        let stream_s = s0.elapsed().as_secs_f64();
        let after = counts(&daemon);
        daemon.shutdown();
        tally.ops(n);

        let mut filled: HashMap<usize, &str> = HashMap::new();
        for (req, line) in self.stream.requests.iter().zip(&results) {
            let key = self.stream.keys[req.key];
            let cached = line.contains("\"cached\":true");
            let Some(report) = result_report(line) else {
                tally.check(false, || format!("{}: not a result: {line}", req.line));
                continue;
            };
            tally.check(cached == req.expect_hit, || {
                format!(
                    "{}: cached = {cached}, expected {}",
                    req.line, req.expect_hit
                )
            });
            match filled.get(&req.key) {
                // A hit must return the bytes the miss that filled it returned.
                Some(&miss) => tally.check(report == miss, || {
                    format!(
                        "{} {:#x}: hit differs from its miss",
                        key.scenario, key.seed
                    )
                }),
                None => {
                    filled.insert(req.key, report);
                    reports.entry(req.key).or_insert_with(|| report.to_string());
                }
            }
        }
        for key in &self.stream.keys {
            let entry = self
                .cache_dir
                .join(cache_key(*key, SERVE_REPLICATES).file_name());
            std::fs::remove_file(&entry).expect("stream entry committed, so removable");
        }
        let hits_misses = (after.0 - before.0, after.1 - before.1);
        let hits = self.stream.expected_hits() as u64;
        let expected = (hits, n as u64 - hits);
        tally.check(hits_misses == expected, || {
            format!("cache hits/misses {hits_misses:?}, expected {expected:?}")
        });
        PassTimes {
            setup_s,
            stream_s,
            latency_ms,
            hits_misses,
        }
    }

    /// Check each distinct key's served report against
    /// `registry::run_scenario` on the same inputs.
    pub fn check_reports(&self, reports: &HashMap<usize, String>, tally: &mut Tally) {
        for (i, key) in self.stream.keys.iter().enumerate() {
            let spec = registry::find(key.scenario).expect("serve scenario registered");
            let want = registry::run_scenario(&spec, Quality::Quick, key.seed, SERVE_REPLICATES, 1)
                .to_json();
            tally.check(reports.get(&i) == Some(&want), || {
                format!(
                    "{} {:#x}: served report differs from run_scenario",
                    key.scenario, key.seed
                )
            });
        }
    }
}

/// Run `serve_mixed` for `seconds` and report its end-to-end metrics.
pub fn run(seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> Metrics {
    let bench = ServeBench::prepare(seed, &work.join("cache")).expect("cache directory writable");
    let mut reports = HashMap::new();
    let (mut setups, mut passes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let times = bench.pass(&mut reports, tally);
        setups.push(times.setup_s);
        passes.push((times.stream_s, times.latency_ms));
    }
    let rss = peak_rss_mb();
    bench.check_reports(&reports, tally);
    end_to_end("serve_mixed", &setups, &passes, rss)
}
