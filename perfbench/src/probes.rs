//! Kernel probes: single layer calls timed from outside, all through the
//! vendored criterion harness. The alignment, linalg and sample-plane
//! workloads are `iac_bench::micro`'s own closures; the `probe` group
//! written here covers only channel draws, the decode chain, fig15's other
//! scoring calls, the registry reduce/serialize and the serve protocol,
//! cache and pool.

use crate::plan::{run_line, ServeKey, SERVE_REPLICATES, SERVE_SCENARIOS};
use crate::report::Metrics;
use criterion::Criterion;
use iac_channel::estimation::EstimationConfig;
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize;
use iac_linalg::Rng64;
use iac_serve::protocol::decode_request;
use iac_serve::{run_batch, CacheKey, ResultCache, WorkerPool};
use iac_sim::engine::{self, Deadline};
use iac_sim::registry::{self, Quality, TrialOutput};
use iac_sim::Testbed;
use std::path::Path;
use std::time::Duration;

/// `(metric, criterion target, unit)`; every target times one call.
#[rustfmt::skip]
const TARGETS: [(&str, &str, &str); 25] = [
    ("sim.reduce_us", "probe/reduce", "us"),
    ("sim.to_json_us", "probe/to_json", "us"),
    ("channel.uplink_grid_us", "probe/uplink_grid", "us"),
    ("channel.downlink_grid_us", "probe/downlink_grid", "us"),
    ("channel.estimate_us", "probe/estimate", "us"),
    ("align.uplink4_closed_form_us", "alignment/uplink4_closed_form_2x2", "us"),
    ("align.uplink4_optimized_us", "alignment/uplink4_optimized_2x2", "us"),
    ("align.downlink3_optimized_us", "probe/downlink3_optimized", "us"),
    ("align.predicted_rate_us", "probe/predicted_rate", "us"),
    ("align.decode_us", "probe/decode", "us"),
    ("align.leakage_solver_m3_ms", "alignment/leakage_solver_uplink_2m/3", "ms"),
    ("align.leakage_solver_m4_ms", "alignment/leakage_solver_uplink_2m/4", "ms"),
    ("align.inverse4_us", "linalg/inverse/4", "us"),
    ("align.eigh4_us", "linalg/eigh/4", "us"),
    ("align.mul_mat_8x8_us", "linalg/mul_mat_8x8", "us"),
    ("phy.precode_12k_us", "sample_ops/precode_12k_samples", "us"),
    ("phy.project_12k_us", "sample_ops/project_12k_samples", "us"),
    ("phy.mix_12k_us", "sample_ops/medium_mix_12k_samples", "us"),
    ("phy.reconstruct_12k_us", "sample_ops/cancel_reconstruct_12k_samples", "us"),
    ("phy.fft_1024_us", "sample_ops/fft_1024", "us"),
    ("serve.decode_us", "probe/decode_request", "us"),
    ("serve.cache_get_us", "probe/cache_get", "us"),
    ("serve.cache_put_us", "probe/cache_put", "us"),
    ("serve.batch_overhead_us", "probe/run_batch_noop", "us"),
    ("serve.recovery_scan_ms", "probe/recovery_scan", "ms"),
];

fn noop_trial(_quality: Quality, seed: u64) -> TrialOutput {
    TrialOutput {
        metrics: vec![("seed", seed as f64)],
    }
}

/// Run every probe under a short criterion configuration and read the
/// medians back from its JSON output. `cache_dir` holds the serve
/// benchmark's prior entries, which the recovery-scan probe reopens.
pub fn run(seed: u64, work: &Path, cache_dir: &Path, m: &mut Metrics) {
    let json = work.join("criterion.json");
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_millis(150))
        .json_output(Some(json.clone()));
    iac_bench::micro::register_alignment(&mut c);
    iac_bench::micro::register_linalg(&mut c);
    iac_bench::micro::register_sample_ops(&mut c);
    let pool = WorkerPool::new(1);
    register_probes(&mut c, seed, work, cache_dir, &pool);
    pool.shutdown();

    let text = std::fs::read_to_string(&json).expect("criterion wrote its medians");
    let medians = criterion::json::parse_flat_map(&text).expect("criterion medians parse");
    for (name, target, unit) in TARGETS {
        let ns = medians
            .iter()
            .find(|(t, _)| t == target)
            .unwrap_or_else(|| panic!("probe target {target} not measured"))
            .1;
        m.push(name, ns / if unit == "ms" { 1e6 } else { 1e3 }, unit);
    }
}

/// The `probe` group: fig15's quick channel shape (8 clients, 3 APs, two
/// antennas each, on a deployed testbed), fig15's scoring calls and the
/// decode chain on a 3×3 grid of 2×2 links (the grid `iac_bench::micro`
/// times `uplink4_optimized` on), reduce/serialize over the twelve serve
/// scenarios, and the serve calls: request decoding, a cache hit, a cache
/// commit, a recovery scan and a serve-sized batch of no-op trials on a
/// one-worker pool (so its time is the pool's own overhead).
fn register_probes(c: &mut Criterion, seed: u64, work: &Path, cache_dir: &Path, pool: &WorkerPool) {
    const POWER: f64 = 1.0;
    const NOISE: f64 = 0.05;
    let mut group = c.benchmark_group("probe");
    let mut rng = Rng64::new(seed);
    let est_cfg = EstimationConfig::paper_default();

    let testbed = Testbed::deploy(11, 2, &mut rng);
    let (aps, clients) = testbed.pick_roles(3, 8, &mut rng);
    let slot = testbed.uplink_grid(&clients, &aps, &mut rng);
    group.bench_function("uplink_grid", |b| {
        b.iter(|| testbed.uplink_grid(&clients, &aps, &mut rng))
    });
    group.bench_function("downlink_grid", |b| {
        b.iter(|| testbed.downlink_grid(&aps, &clients, &mut rng))
    });
    group.bench_function("estimate", |b| {
        b.iter(|| slot.estimated(&est_cfg, &mut rng))
    });

    let up = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
    let down = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
    let est = up.estimated(&est_cfg, &mut rng);
    let config = optimize::uplink4_optimized(&est, POWER, NOISE).expect("uplink aligns");
    let powers = equal_split_powers(&config.schedule, POWER);
    group.bench_function("downlink3_optimized", |b| {
        b.iter(|| optimize::downlink3_optimized(&down, POWER, NOISE).expect("downlink aligns"))
    });
    group.bench_function("predicted_rate", |b| {
        b.iter(|| optimize::predicted_rate(&est, &config, POWER, NOISE))
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            IacDecoder {
                true_grid: &up,
                est_grid: &est,
                schedule: &config.schedule,
                encoding: &config.encoding,
                packet_power: powers.clone(),
                noise_power: NOISE,
            }
            .decode()
            .expect("decodes")
        })
    });

    let sets: Vec<(&'static str, Vec<TrialOutput>)> = SERVE_SCENARIOS
        .iter()
        .map(|&name| {
            let spec = registry::find(name).expect("serve scenario registered");
            let trials = engine::trials_for(registry::scenario_seed(seed, name), SERVE_REPLICATES);
            let outs = trials
                .iter()
                .map(|t| (spec.run)(Quality::Quick, t.seed))
                .collect();
            (spec.name, outs)
        })
        .collect();
    let reduce = |(name, outs): &(&'static str, Vec<TrialOutput>)| {
        registry::reduce_outputs(name, Quality::Quick, seed, SERVE_REPLICATES, outs)
    };
    let reports: Vec<_> = sets.iter().map(reduce).collect();
    // Each iteration takes the next scenario, so the medians are per call
    // across the twelve.
    let mut next = (0..sets.len()).cycle();
    let mut next = move || next.next().expect("a cycle never ends");
    group.bench_function("reduce", |b| b.iter(|| reduce(&sets[next()])));
    group.bench_function("to_json", |b| b.iter(|| reports[next()].to_json()));

    // The first serve scenario's key, committed with its own report.
    let key = ServeKey {
        scenario: SERVE_SCENARIOS[0],
        seed,
    };
    let line = run_line("probe", key, false, SERVE_REPLICATES);
    group.bench_function("decode_request", |b| {
        b.iter(|| decode_request(line.as_bytes()).expect("request decodes"))
    });
    let (cache, _) = ResultCache::open(&work.join("probe-cache")).expect("probe cache opens");
    let cache_key = CacheKey {
        scenario: key.scenario.to_string(),
        quality: Quality::Quick,
        seed,
        replicates: SERVE_REPLICATES,
    };
    let report = &reports[0].to_json();
    group.bench_function("cache_put", |b| {
        b.iter(|| cache.put(&cache_key, report).expect("cache commit"))
    });
    group.bench_function("cache_get", |b| {
        b.iter(|| cache.get(&cache_key).expect("cache hit"))
    });
    group.bench_function("recovery_scan", |b| {
        b.iter(|| ResultCache::open(cache_dir).expect("recovery scan"))
    });
    let seeds: Vec<u64> = (0..SERVE_REPLICATES as u64).collect();
    group.bench_function("run_batch_noop", |b| {
        b.iter(|| {
            run_batch(
                pool,
                noop_trial,
                Quality::Quick,
                &seeds,
                Deadline::none(),
                false,
                |_, _| {},
            )
            .outputs
        })
    });
    group.finish();
}
