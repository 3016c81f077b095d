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
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::schedule::DecodeSchedule;
use iac_core::solver::{AlignmentProblem, SolverConfig};
use iac_core::{closed_form, optimize};
use iac_linalg::{CMat, CVec, Rng64};
use iac_phy::cancel::reconstruct_into;
use iac_phy::dsp::Scratch;
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::precode::precode_into;
use iac_phy::project::combine_into;
use iac_phy::soa;
use iac_channel::{Awgn, Cfo};

/// Samples per packet in the sample-plane workloads: a 1500-byte BPSK
/// payload at 1 sample/bit, the paper's prototype shape.
pub const PACKET_SAMPLES: usize = 12_000;

/// Alignment-solver costs (closed form, optimised seed scoring, iterative
/// leakage minimisation) as functions of the antenna count.
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

    // The raw SoA kernels underneath the adapters above, on packet-sized
    // split planes: these expose the packed inner loops directly (no
    // split/merge at the edges), so a vectorization regression shows up
    // here even when the adapter numbers are dominated by memory traffic.
    let (s_re, s_im): (Vec<f64>, Vec<f64>) =
        samples.iter().map(|z| (z.re, z.im)).unzip();
    let w = samples[1];
    let mut acc_re = vec![0.0; PACKET_SAMPLES];
    let mut acc_im = vec![0.0; PACKET_SAMPLES];
    group.bench_function("soa_axpy_12k", |b| {
        b.iter(|| soa::axpy(w, &s_re, &s_im, &mut acc_re, &mut acc_im))
    });
    let mut rot_re = vec![0.0; PACKET_SAMPLES];
    let mut rot_im = vec![0.0; PACKET_SAMPLES];
    group.bench_function("soa_fill_phasors_12k", |b| {
        b.iter(|| soa::fill_phasors(cfo.phasor_at(0), cfo.phasor_at(1), &mut rot_re, &mut rot_im))
    });
    group.bench_function("soa_rotate_scale_12k", |b| {
        b.iter(|| {
            soa::rotate_scale(w, &s_re, &s_im, &rot_re, &rot_im, &mut acc_re, &mut acc_im)
        })
    });
    let mut f_re: Vec<f64> = s_re[..1024].to_vec();
    let mut f_im: Vec<f64> = s_im[..1024].to_vec();
    group.bench_function("fft_split_1024", |b| {
        b.iter(|| {
            let plan = scratch.plan(1024);
            plan.fft_split(&mut f_re, &mut f_im);
            plan.ifft_split(&mut f_re, &mut f_im);
        })
    });
    group.finish();
}

/// Small-matrix linear algebra on the alignment path: inversion, Hermitian
/// eigendecomposition, and the raw `mul_mat` kernel.
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
        observe: false,
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
