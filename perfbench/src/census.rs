//! The traced run: every per-layer metric, whatever the workload. Each
//! round runs both sweeps plain and traced (`run_scenario_observed`, inside
//! the benchmark's own spans); then come three passes of the serve stream
//! and the kernel probes. Timings across rounds are the fastest round, as
//! the untraced run takes each operation's fastest pass.

use crate::plan::{Sweep, Workload};
use crate::probes;
use crate::report::{Metrics, Tally};
use crate::serve::ServeBench;
use crate::stats::{best_of, fastest};
use crate::sweep::{self, check_same};
use iac_obs::metrics::MetricValue;
use iac_obs::Profiler;
use iac_sim::desrec::DES_SCENARIOS;
use iac_sim::obs::SweepObs;
use iac_sim::stats::quantile;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Share of `--seconds` the sweep rounds take; the serve pass and probes
/// take a fixed few seconds on top.
const SWEEP_SHARE: f64 = 0.5;

/// Fewest sweep rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// One sweep's observations across rounds.
#[derive(Default)]
struct SweepRounds {
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    dispatch_ms: Vec<f64>,
    trial_ms: HashMap<&'static str, Vec<f64>>,
    /// The last traced round's telemetry (counts repeat exactly per round).
    last: Option<SweepObs>,
}

fn histogram_ns(obs: &SweepObs, name: &str) -> (u64, u64) {
    match obs.registry.snapshot().get(name) {
        Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
        _ => (0, 0),
    }
}

impl SweepRounds {
    fn round(&mut self, sweep: &Sweep, name: &'static str, plain_first: bool, tally: &mut Tally) {
        let plain = || sweep::plain_pass(sweep);
        let mut obs = SweepObs::new();
        let prof = Profiler::new();
        let mut traced = || sweep::observed_pass(sweep, name, &prof, &mut obs);
        let (plain, traced) = if plain_first {
            let p = plain();
            (p, traced())
        } else {
            let t = traced();
            (plain(), t)
        };
        check_same(sweep, &plain, &traced, "plain vs traced", tally);
        tally.ops(sweep.trials_per_pass() * 2);

        // The pass span from the benchmark's profiler is the traced wall
        // time; the engine histograms give each scenario's trial time.
        let tree = prof.tree();
        let pass_ns = tree
            .roots
            .iter()
            .find(|n| n.name == name)
            .map(|n| n.total_ns);
        tally.check(pass_ns.is_some(), || {
            format!("{name}: the traced pass recorded no span")
        });
        let pass_ns = pass_ns.unwrap_or(traced.wall.as_nanos() as u64);
        let mut trial_sum_ns = 0;
        for spec in &sweep.specs {
            let (count, sum) = histogram_ns(&obs, &format!("engine.{}.trial_ns", spec.name));
            tally.check(count == spec.default_replicates as u64, || {
                format!("{}: {count} trials timed by the engine", spec.name)
            });
            trial_sum_ns += sum;
            self.trial_ms
                .entry(spec.name)
                .or_default()
                .push(sum as f64 / count.max(1) as f64 / 1e6);
        }
        self.plain_s.push(plain.wall.as_secs_f64());
        self.traced_s.push(pass_ns as f64 / 1e9);
        self.dispatch_ms
            .push(pass_ns.saturating_sub(trial_sum_ns) as f64 / 1e6);
        self.last = Some(obs);
    }
}

/// Run the census and report every per-layer metric.
pub fn run(seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> Metrics {
    let sweeps = [
        (
            Workload::SweepMatrix,
            sweep::setup(Workload::SweepMatrix, seed),
        ),
        (
            Workload::SweepTimedomain,
            sweep::setup(Workload::SweepTimedomain, seed),
        ),
    ];
    let mut rounds: [SweepRounds; 2] = Default::default();
    let start = Instant::now();
    let mut r = 0;
    while r < MIN_ROUNDS || start.elapsed().as_secs_f64() < SWEEP_SHARE * seconds {
        for ((workload, sweep), rounds) in sweeps.iter().zip(rounds.iter_mut()) {
            rounds.round(sweep, workload.name(), r % 2 == 0, tally);
        }
        r += 1;
    }

    let mut m = Metrics::default();
    for ((_, sweep), rounds) in sweeps.iter().zip(&rounds) {
        for spec in &sweep.specs {
            m.push(
                format!("sim.trial_ms.{}", spec.name),
                fastest(&rounds.trial_ms[spec.name]),
                "ms",
            );
        }
    }
    for ((workload, _), rounds) in sweeps.iter().zip(&rounds) {
        m.push(
            format!("sim.dispatch_ms.{}", workload.name()),
            fastest(&rounds.dispatch_ms),
            "ms",
        );
    }

    // Sample-plane and DES facts from the time-domain sweep's last traced
    // round.
    let [matrix, timedomain] = &rounds;
    let timedomain_sweep = &sweeps[1].1;
    let obs = timedomain.last.as_ref().expect("a traced round ran");
    let snap = obs.registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let pool = counter("phy.scratch.pool_hits") + counter("phy.scratch.pool_misses");
    m.push(
        "phy.scratch.pool_hit_ratio",
        counter("phy.scratch.pool_hits") / pool.max(1.0),
        "fraction",
    );
    let des_trial_s: f64 = timedomain_sweep
        .specs
        .iter()
        .filter(|s| DES_SCENARIOS.contains(&s.name))
        .map(|s| fastest(&timedomain.trial_ms[s.name]) * s.default_replicates as f64 / 1e3)
        .sum();
    let events = counter("des.events_processed");
    m.push("des.events_processed", events, "count");
    m.push("des.events_per_s", events / des_trial_s, "1/s");
    m.push(
        "des.queue_high_water",
        snap.gauge("des.queue_high_water").unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "mac.delivery_ratio",
        counter("mac.delivered") / counter("mac.offered").max(1.0),
        "fraction",
    );
    m.push("mac.retx", counter("mac.retx"), "count");
    m.push("mac.drops_overflow", counter("mac.drops_overflow"), "count");

    let cache_dir = work.join("cache");
    serve_census(seed, &cache_dir, &mut m, tally);
    probes::run(seed, work, &cache_dir, &mut m);

    let traced = fastest(&matrix.traced_s) + fastest(&timedomain.traced_s);
    let plain = fastest(&matrix.plain_s) + fastest(&timedomain.plain_s);
    m.push("obs.overhead_frac", traced / plain - 1.0, "fraction");
    println!(
        "census: {r} sweep rounds, traced {traced:.4} s vs plain {plain:.4} s per pair of passes"
    );
    m
}

/// Passes of the serve stream. Hit and miss latencies are medians over
/// each request's best pass, as in the untraced run.
fn serve_census(seed: u64, cache_dir: &Path, m: &mut Metrics, tally: &mut Tally) {
    const PASSES: usize = 3;
    let bench = ServeBench::prepare(seed, cache_dir).expect("cache directory writable");
    let mut reports = HashMap::new();
    let mut latencies = Vec::with_capacity(PASSES);
    let mut hits_misses = (0, 0);
    for _ in 0..PASSES {
        let times = bench.pass(&mut reports, tally);
        hits_misses = times.hits_misses;
        latencies.push(times.latency_ms);
    }
    let best = best_of(latencies.iter().map(Vec::as_slice));
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for (req, &ms) in bench.stream.requests.iter().zip(&best) {
        if req.expect_hit {
            &mut hit_ms
        } else {
            &mut miss_ms
        }
        .push(ms);
    }
    let (hits, misses) = hits_misses;
    m.push(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );
    m.push("serve.cache_hits", hits as f64, "count");
    m.push("serve.cache_misses", misses as f64, "count");
    // The stream always holds both hits and misses (plan.rs tests the mix).
    m.push("serve.hit_latency_p50_ms", quantile(&hit_ms, 0.5), "ms");
    m.push("serve.miss_latency_p50_ms", quantile(&miss_ms, 0.5), "ms");
}
