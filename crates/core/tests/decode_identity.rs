//! `IacDecoder::decode` computes each image `H(owner(q), rx)·v_q` once per
//! step and skips the cancellation residuals when both grids are one
//! object. Neither may change a single bit: this test pins its SINRs
//! against a copy of the straightforward per-term loop, on separate true
//! and estimated grids, on one shared grid, and on two equal grids.

use iac_channel::estimation::EstimationConfig;
use iac_core::closed_form::{self, AlignedConfig};
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::solver::interference_covariance;
use iac_linalg::eig::smallest_eigvec_hermitian;
use iac_linalg::{CVec, Result, Rng64};

const DRAWS: usize = 300;
const NOISE: f64 = 0.05;

/// The decode loop as a direct transcription of the model: every term
/// recomputes its own image, and every cancellation residual is formed.
fn reference_sinrs(dec: &IacDecoder) -> Result<Vec<f64>> {
    let schedule = dec.schedule;
    let sets = schedule.interference_sets();
    let mut sinrs = Vec::new();
    for (step_idx, step) in schedule.steps.iter().enumerate() {
        let (receiver, ref interf, _) = sets[step_idx];
        let image = |grid: &ChannelGrid, q: usize| {
            grid.link(schedule.owners[q], receiver)
                .mul_vec(&dec.encoding[q])
        };
        let mut us = Vec::new();
        for &p in &step.decode {
            let nuisance = interf
                .iter()
                .copied()
                .chain(step.decode.iter().copied().filter(|&q| q != p));
            let q =
                interference_covariance(dec.est_grid, schedule, receiver, nuisance, dec.encoding);
            let mut u = smallest_eigvec_hermitian(&q)?;
            let sig = u.dot(&image(dec.est_grid, p));
            if sig.abs() > 1e-12 {
                u = u.scale_c((sig * (1.0 / sig.abs())).conj());
            }
            us.push(u);
        }
        for (u, &p) in us.iter().zip(&step.decode) {
            let mut num = 0.0;
            let mut den = dec.noise_power;
            num += dec.packet_power[p] * u.dot(&image(dec.true_grid, p)).norm_sqr();
            for &q in interf {
                den += dec.packet_power[q] * u.dot(&image(dec.true_grid, q)).norm_sqr();
            }
            for &q in &step.decode {
                if q == p {
                    continue;
                }
                den += dec.packet_power[q] * u.dot(&image(dec.true_grid, q)).norm_sqr();
            }
            for &c in &step.cancel {
                let h_err = dec.true_grid.link(schedule.owners[c], receiver)
                    - dec.est_grid.link(schedule.owners[c], receiver);
                let img = h_err.mul_vec(&dec.encoding[c]);
                den += dec.packet_power[c] * u.dot(&img).norm_sqr();
            }
            sinrs.push(num / den);
        }
    }
    Ok(sinrs)
}

fn assert_same(dec: &IacDecoder, what: &str) {
    let fast = dec
        .decode()
        .map(|o| o.sinrs.iter().map(|p| p.sinr.to_bits()).collect::<Vec<_>>());
    let slow = reference_sinrs(dec).map(|s| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    assert_eq!(fast, slow, "{what}");
}

/// Draw grids of one shape, align on the estimates, and compare the decoder
/// with the reference three ways.
fn check(
    direction: Direction,
    nodes: usize,
    seed: u64,
    align: impl Fn(&ChannelGrid, &mut Rng64) -> Result<AlignedConfig>,
) {
    let mut rng = Rng64::new(seed);
    let est_cfg = EstimationConfig::paper_default();
    let mut decoded = 0;
    for i in 0..DRAWS {
        let truth = ChannelGrid::random(direction, nodes, nodes, 2, 2, &mut rng);
        let est = truth.estimated(&est_cfg, &mut rng);
        let Ok(cfg) = align(&est, &mut rng) else {
            continue;
        };
        let copy = est.clone();
        for (true_grid, label) in [(&truth, "separate"), (&est, "shared"), (&copy, "equal")] {
            let dec = IacDecoder {
                true_grid,
                est_grid: &est,
                schedule: &cfg.schedule,
                encoding: &cfg.encoding,
                packet_power: equal_split_powers(&cfg.schedule, 1.0),
                noise_power: NOISE,
            };
            assert_same(&dec, &format!("{direction:?} draw {i}, {label} grids"));
        }
        decoded += 1;
    }
    assert!(
        decoded > DRAWS / 2,
        "only {decoded} of {DRAWS} draws aligned"
    );
}

#[test]
fn uplink3_decode_matches_reference() {
    check(Direction::Uplink, 2, 31, closed_form::uplink3);
}

#[test]
fn uplink4_decode_matches_reference() {
    check(Direction::Uplink, 3, 41, closed_form::uplink4);
}

#[test]
fn downlink3_decode_matches_reference() {
    check(Direction::Downlink, 3, 51, |g, _| closed_form::downlink3(g));
}

/// Unaligned random encodings leave real interference in every term.
#[test]
fn unaligned_decode_matches_reference() {
    check(Direction::Uplink, 3, 61, |g, rng| {
        let mut cfg = closed_form::uplink4(g, rng)?;
        cfg.encoding = (0..4).map(|_| CVec::random_unit(2, rng)).collect();
        Ok(cfg)
    });
}
