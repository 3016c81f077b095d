//! The §9 micro-benchmark registry, shared between the `micro_ops` bench
//! target and the `baseline` regression binary.
//!
//! Each `register_*` function adds one criterion group. The `baseline`
//! binary runs the same closures at a quick scale and records/compares the
//! medians (see `docs/PERFORMANCE.md`), so a workload must live HERE — not
//! in the bench target — to be regression-gated.
//!
//! The sample-plane group measures the `_into` variants with warm buffers:
//! that is the steady-state hot path (the allocating wrappers just delegate),
//! so the numbers reflect the DSP, not the allocator.

use criterion::{BenchmarkId, Criterion};
use iac_channel::estimation::EstimationConfig;
use iac_channel::{Awgn, Cfo};
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::schedule::DecodeSchedule;
use iac_core::solver::{AlignmentProblem, SolverConfig};
use iac_core::{closed_form, optimize};
use iac_linalg::{CMat, CVec, Rng64, Svd};
use iac_phy::cancel::reconstruct_into;
use iac_phy::dsp::Scratch;
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::precode::precode_into;
use iac_phy::project::combine_into;

/// Samples per packet in the sample-plane workloads: a 1500-byte BPSK
/// payload at 1 sample/bit, the paper's prototype shape.
pub const PACKET_SAMPLES: usize = 12_000;

/// Alignment-solver costs (closed form, optimised seed scoring, one decode,
/// iterative leakage minimisation) as functions of the antenna count.
pub fn register_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("alignment");
    let mut rng = Rng64::new(1);
    let grid3 = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
    group.bench_function("uplink4_closed_form_2x2", |b| {
        let mut r = Rng64::new(2);
        b.iter(|| closed_form::uplink4(&grid3, &mut r).unwrap())
    });
    group.bench_function("uplink4_optimized_2x2", |b| {
        b.iter(|| optimize::uplink4_optimized(&grid3, 1.0, 0.05).unwrap())
    });
    // The leader's decode of one aligned configuration on its own
    // estimates: the two-antenna step loop the group scores run twice.
    let cfg = closed_form::uplink4(&grid3, &mut Rng64::new(2)).unwrap();
    let decoder = IacDecoder {
        true_grid: &grid3,
        est_grid: &grid3,
        schedule: &cfg.schedule,
        encoding: &cfg.encoding,
        packet_power: equal_split_powers(&cfg.schedule, 1.0),
        noise_power: 0.05,
    };
    group.bench_function("decode_uplink4_2x2", |b| {
        b.iter(|| decoder.decode().unwrap())
    });
    for m in [3usize, 4] {
        let schedule = DecodeSchedule::uplink_2m(m);
        let clients = schedule.owners.iter().max().unwrap() + 1;
        let g = ChannelGrid::random(Direction::Uplink, clients, 3, m, m, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("leakage_solver_uplink_2m", m),
            &m,
            |b, _| {
                b.iter(|| {
                    let mut r = Rng64::new(3);
                    AlignmentProblem {
                        grid: &g,
                        schedule: &schedule,
                    }
                    .solve(
                        &SolverConfig {
                            max_iters: 400,
                            tolerance: 1e-6,
                            restarts: 1,
                        },
                        &mut r,
                    )
                    .unwrap()
                })
            },
        );
    }
    // The leader's brute-force scoring of one quick-size slot: the 42
    // ordered companion pairs of an 8-client grid in one batch, through a
    // fresh context, so each companion's cached terms are computed inside
    // the timing as on a real slot.
    for (direction, name) in [
        (Direction::Uplink, "score_batch_uplink_42"),
        (Direction::Downlink, "score_batch_downlink_42"),
    ] {
        let (tx, rx) = match direction {
            Direction::Uplink => (8, 3),
            Direction::Downlink => (3, 8),
        };
        let slot = ChannelGrid::random(direction, tx, rx, 2, 2, &mut rng);
        let pairs: Vec<[u16; 2]> = (1..8)
            .flat_map(|a| (1..8).map(move |b| [a, b]))
            .filter(|[a, b]| a != b)
            .collect();
        let mut scores = vec![0.0; pairs.len()];
        group.bench_function(name, |b| {
            b.iter(|| {
                optimize::ScoringContext::new(&slot, 0, 1.0, 0.05).score_batch(&pairs, &mut scores)
            })
        });
    }
    // One Fig. 4b alignment as fig12 runs it per role order: eight seeds
    // scored on the leader's estimate of a two-client, two-AP slot. Drawn
    // last, so the grids above keep their draws.
    let est = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng)
        .estimated(&EstimationConfig::paper_default(), &mut rng);
    group.bench_function("uplink3_optimized_8", |b| {
        let mut seeds = Rng64::new(6);
        b.iter(|| {
            optimize::uplink3_optimized(
                &est,
                1.0,
                1.0,
                optimize::DEFAULT_SEED_CANDIDATES,
                &mut seeds,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// The per-packet sample-plane operations of §9: precoding, projection,
/// medium mixing, cancellation reconstruction, and the planned FFT — all on
/// warm `_into` buffers (zero steady-state allocations).
pub fn register_sample_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_ops");
    let mut rng = Rng64::new(4);
    let samples: Vec<_> = (0..PACKET_SAMPLES).map(|_| rng.cn01()).collect();
    let v = CVec::random_unit(2, &mut rng);

    // Filled up front (not as a side effect of the first bench target), so
    // the downstream project/mix workloads stay valid under reordering.
    let mut precoded = Vec::new();
    precode_into(&samples, &v, 1.0, &mut precoded);
    group.bench_function("precode_12k_samples", |b| {
        b.iter(|| precode_into(&samples, &v, 1.0, &mut precoded))
    });

    let mut projected = Vec::new();
    group.bench_function("project_12k_samples", |b| {
        b.iter(|| combine_into(&precoded, &v, &mut projected))
    });

    let h = CMat::random(2, 2, &mut rng);
    let cfo = Cfo::new(300.0, 500_000.0);
    let mut mixed = Vec::new();
    let mut mix_rng = Rng64::new(5);
    group.bench_function("medium_mix_12k_samples", |b| {
        b.iter(|| {
            Medium::mix_into(
                &[AirTransmission {
                    streams: &precoded,
                    channel: &h,
                    cfo,
                    start: 0,
                }],
                2,
                PACKET_SAMPLES,
                Awgn::new(0.0),
                &mut mix_rng,
                &mut mixed,
            )
        })
    });

    let mut reconstruction = Vec::new();
    group.bench_function("cancel_reconstruct_12k_samples", |b| {
        b.iter(|| {
            reconstruct_into(
                &samples,
                &v,
                &h,
                1.0,
                300.0,
                500_000.0,
                0,
                &mut reconstruction,
            )
        })
    });

    // Planned FFT on the largest OFDM size the workspace uses. Forward and
    // inverse per iteration, so the buffer returns to (a scaling of) itself
    // and the timing covers both directions of one plan.
    let mut scratch = Scratch::new();
    let mut spectrum = scratch.take(1024);
    for (k, s) in spectrum.iter_mut().enumerate() {
        *s = samples[k];
    }
    group.bench_function("fft_1024", |b| {
        b.iter(|| {
            let plan = scratch.plan(1024);
            plan.fft(&mut spectrum);
            plan.ifft(&mut spectrum);
        })
    });

    group.finish();
}

/// Small-matrix linear algebra on the alignment path: inversion, Hermitian
/// eigendecomposition, the 2×2 SVD, and the raw `mul_mat` kernel.
pub fn register_linalg(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    let mut rng = Rng64::new(5);
    for m in [2usize, 4, 6] {
        let a = CMat::random(m, m, &mut rng);
        group.bench_with_input(BenchmarkId::new("inverse", m), &m, |b, _| {
            b.iter(|| a.inverse().unwrap())
        });
        let h = a.mul_mat(&a.hermitian());
        group.bench_with_input(BenchmarkId::new("eigh", m), &m, |b, _| {
            b.iter(|| iac_linalg::eigh(&h).unwrap())
        });
        if m == 2 {
            // The 802.11-MIMO baseline's per-link decomposition.
            group.bench_with_input(BenchmarkId::new("svd", m), &m, |b, _| {
                b.iter(|| Svd::compute(&a))
            });
        }
    }
    let a = CMat::random(8, 8, &mut rng);
    let b8 = CMat::random(8, 8, &mut rng);
    group.bench_function("mul_mat_8x8", |b| b.iter(|| a.mul_mat(&b8)));
    group.finish();
}

/// The parallel experiment engine: one registry scenario swept at 1 and 2
/// workers (regression-gates the engine + registry overhead around the
/// science), plus the worker pool's raw claim/reduce cost. The scaling
/// *demonstration* lives in the `parallel_sweep` bench target; these
/// entries exist so the bench-baseline job gates the machinery.
pub fn register_parallel_sweep(c: &mut Criterion) {
    use iac_sim::registry::{self, Quality};
    let mut group = c.benchmark_group("parallel_sweep");
    let spec = registry::find("fig14").expect("fig14 registered");
    for threads in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("fig14_quick_r2_threads", threads),
            &threads,
            |b, &t| b.iter(|| registry::run_scenario(&spec, Quality::Quick, 0x5EED, 2, t)),
        );
    }
    // Raw claim/reduce cost of the chunked work-stealing dispatcher at an
    // exact worker count (the plan bypasses the core clamp, so the
    // two-worker machinery is measured even on a single-core runner).
    let plan = iac_sim::engine::RunPlan {
        workers: 2,
        deadline: iac_sim::engine::Deadline::none(),
        observe: None,
    };
    group.bench_function("engine_dispatch_4k_trials", |b| {
        b.iter(|| iac_sim::engine::run(4096, &plan, |i| (i as u64).wrapping_mul(3)).outputs)
    });
    group.finish();
}

/// The groups gated by `BENCH_micro_ops.json`.
pub fn register_micro(c: &mut Criterion) {
    register_alignment(c);
    register_linalg(c);
    register_parallel_sweep(c);
}

/// The groups gated by `BENCH_sample_ops.json`.
pub fn register_sample(c: &mut Criterion) {
    register_sample_ops(c);
}
