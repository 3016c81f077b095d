//! `IacDecoder::decode` computes each image `H(owner(q), rx)·v_q` once per
//! step, skips the cancellation residuals when both grids are one object,
//! and holds a two-antenna decode's vectors as `[C64; 2]` arrays. None of
//! that may change a single bit: this test pins its SINRs against a copy of
//! the straightforward per-term loop, which forms every residual, on
//! separate true and estimated grids, on one shared grid, and on two equal
//! grids; the shared and equal decodes must also agree with each other.
//! Every fixture but
//! `uplink6_m3_decode_matches_reference` is two-antenna, so those pin the
//! array path; the three-antenna schedule pins the `CVec` path. Hostile
//! links (NaN, ±∞, zero, 1e±150, rank one) must give the same bits or the
//! same error.

use iac_channel::estimation::EstimationConfig;
use iac_core::closed_form::{self, AlignedConfig};
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::schedule::DecodeSchedule;
use iac_core::solver::{interference_covariance, AlignmentProblem, SolverConfig};
use iac_linalg::eig::smallest_eigvec_hermitian;
use iac_linalg::{CMat, CVec, LinAlgError, Result, Rng64, C64};

const DRAWS: usize = 300;
const NOISE: f64 = 0.05;

/// Whether every entry of every link of `grid` is finite.
fn all_finite(grid: &ChannelGrid) -> bool {
    (0..grid.transmitters()).all(|t| {
        (0..grid.receivers()).all(|r| grid.link(t, r).as_slice().iter().all(|z| z.is_finite()))
    })
}

/// The decode loop as a direct transcription of the model: every term
/// recomputes its own image, and every cancellation residual is formed.
/// The one exception is a shared grid with a non-finite link: the decoder
/// defines `H − Ĥ` on one grid as exactly zero, which the formula gives for
/// finite links only (`∞ − ∞` is NaN), so there the residuals are left out.
/// A NaN SINR is an error.
fn reference_sinrs(dec: &IacDecoder) -> Result<Vec<f64>> {
    let schedule = dec.schedule;
    let residuals = !std::ptr::eq(dec.true_grid, dec.est_grid) || all_finite(dec.est_grid);
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
            for &c in step.cancel.iter().filter(|_| residuals) {
                let h_err = dec.true_grid.link(schedule.owners[c], receiver)
                    - dec.est_grid.link(schedule.owners[c], receiver);
                let img = h_err.mul_vec(&dec.encoding[c]);
                den += dec.packet_power[c] * u.dot(&img).norm_sqr();
            }
            if (num / den).is_nan() {
                return Err(LinAlgError::Degenerate("NaN SINR"));
            }
            sinrs.push(num / den);
        }
    }
    Ok(sinrs)
}

/// The decoder's SINR bits, or its error.
fn decoded_bits(dec: &IacDecoder) -> Result<Vec<u64>> {
    dec.decode()
        .map(|o| o.sinrs.iter().map(|p| p.sinr.to_bits()).collect())
}

/// Compare the decoder with the reference; returns the decoder's bits.
fn assert_same(dec: &IacDecoder, what: &str) -> Result<Vec<u64>> {
    let fast = decoded_bits(dec);
    let slow = reference_sinrs(dec).map(|s| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    assert_eq!(fast, slow, "{what}");
    fast
}

/// The decoder on `(true_grid, est_grid)` with the paper's power split.
fn decoder<'a>(
    true_grid: &'a ChannelGrid,
    est_grid: &'a ChannelGrid,
    cfg: &'a AlignedConfig,
) -> IacDecoder<'a> {
    IacDecoder {
        true_grid,
        est_grid,
        schedule: &cfg.schedule,
        encoding: &cfg.encoding,
        packet_power: equal_split_powers(&cfg.schedule, 1.0),
        noise_power: NOISE,
    }
}

/// Draw grids of one shape, align on the estimates, and compare the decoder
/// with the reference three ways; the one-grid decode, which skips the
/// residuals, must also give the bits of the decode on an equal copy.
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
        let [_, shared, equal] =
            [(&truth, "separate"), (&est, "shared"), (&copy, "equal")].map(|(true_grid, label)| {
                let dec = decoder(true_grid, &est, &cfg);
                assert_same(&dec, &format!("{direction:?} draw {i}, {label} grids"))
            });
        assert_eq!(
            shared, equal,
            "{direction:?} draw {i}, shared vs equal grids"
        );
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

/// The six-packet, three-antenna uplink of Lemma 5.2 with encodings from the
/// leakage solver: the decoder holds its vectors as `CVec`s here.
#[test]
fn uplink6_m3_decode_matches_reference() {
    let mut rng = Rng64::new(81);
    let schedule = DecodeSchedule::uplink_2m(3);
    let solver = SolverConfig {
        max_iters: 400,
        tolerance: 1e-6,
        restarts: 1,
    };
    for i in 0..12 {
        let truth = ChannelGrid::random(Direction::Uplink, 3, 3, 3, 3, &mut rng);
        let est = truth.estimated(&EstimationConfig::paper_default(), &mut rng);
        let problem = AlignmentProblem {
            grid: &est,
            schedule: &schedule,
        };
        let solution = problem.solve(&solver, &mut rng).expect("solver returns");
        let cfg = AlignedConfig {
            schedule: schedule.clone(),
            encoding: solution.encoding,
        };
        let copy = est.clone();
        let [_, shared, equal] =
            [(&truth, "separate"), (&est, "shared"), (&copy, "equal")].map(|(true_grid, label)| {
                let dec = decoder(true_grid, &est, &cfg);
                let bits = assert_same(&dec, &format!("m = 3 draw {i}, {label} grids"));
                assert!(bits.is_ok(), "m = 3 draw {i}, {label} grids decodes");
                bits
            });
        assert_eq!(shared, equal, "m = 3 draw {i}, shared vs equal grids");
    }
}

/// Ways a link can be hostile to the decode.
#[derive(Debug, Clone, Copy)]
enum Hostile {
    Nan,
    PosInf,
    NegInf,
    Zero,
    Huge,
    Tiny,
    RankOne,
}

const HOSTILE: [Hostile; 7] = [
    Hostile::Nan,
    Hostile::PosInf,
    Hostile::NegInf,
    Hostile::Zero,
    Hostile::Huge,
    Hostile::Tiny,
    Hostile::RankOne,
];

/// `link` made hostile: one entry NaN or ±∞, all zero, scaled by 1e±150,
/// or replaced by a rank-one matrix of the same scale.
fn hostile(kind: Hostile, link: &CMat, rng: &mut Rng64) -> CMat {
    let mut bad = link.clone();
    let entry = (rng.below(2) as usize, rng.below(2) as usize);
    match kind {
        Hostile::Nan => bad[entry] = C64::new(f64::NAN, bad[entry].im),
        Hostile::PosInf => bad[entry] = C64::new(bad[entry].re, f64::INFINITY),
        Hostile::NegInf => bad[entry] = C64::new(f64::NEG_INFINITY, bad[entry].im),
        Hostile::Zero => bad = CMat::zeros(2, 2),
        Hostile::Huge => bad = link.scale(1e150),
        Hostile::Tiny => bad = link.scale(1e-150),
        Hostile::RankOne => {
            let col = link.col(0);
            bad = CMat::from_cols(&[col.clone(), col.scale_c(rng.cn01())]);
        }
    }
    bad
}

/// `grid` with link `(tx, rx)` replaced.
fn with_link(grid: &ChannelGrid, tx: usize, rx: usize, link: CMat) -> ChannelGrid {
    let h = (0..grid.transmitters())
        .map(|t| {
            (0..grid.receivers())
                .map(|r| {
                    if (t, r) == (tx, rx) {
                        link.clone()
                    } else {
                        grid.link(t, r).clone()
                    }
                })
                .collect()
        })
        .collect();
    ChannelGrid::new(grid.direction(), h)
}

/// One hostile link in the true grid, the estimate, or the one grid both
/// share, for every kind of [`Hostile`], on grids aligned before the link
/// turned hostile. The decoder must give the reference's bits or its error,
/// and a shared grid whose links stay finite the bits of an equal copy.
fn check_hostile(
    direction: Direction,
    nodes: usize,
    seed: u64,
    align: impl Fn(&ChannelGrid, &mut Rng64) -> Result<AlignedConfig>,
) {
    let mut rng = Rng64::new(seed);
    let est_cfg = EstimationConfig::paper_default();
    let (mut decoded, mut failed) = (0, 0);
    for i in 0..40 {
        let truth = ChannelGrid::random(direction, nodes, nodes, 2, 2, &mut rng);
        let est = truth.estimated(&est_cfg, &mut rng);
        let Ok(cfg) = align(&est, &mut rng) else {
            continue;
        };
        for kind in HOSTILE {
            let n = nodes as u64;
            let (tx, rx) = (rng.below(n) as usize, rng.below(n) as usize);
            let bad_truth = with_link(&truth, tx, rx, hostile(kind, truth.link(tx, rx), &mut rng));
            let bad_est = with_link(&est, tx, rx, hostile(kind, est.link(tx, rx), &mut rng));
            let cases = [
                (&bad_truth, &est, "true grid"),
                (&truth, &bad_est, "estimate"),
                (&bad_est, &bad_est, "shared grid"),
            ];
            for (true_grid, est_grid, label) in cases {
                let what =
                    format!("{direction:?} draw {i}, {kind:?} link ({tx}, {rx}) in the {label}");
                let bits = assert_same(&decoder(true_grid, est_grid, &cfg), &what);
                if bits.is_ok() {
                    decoded += 1;
                } else {
                    failed += 1;
                }
                if std::ptr::eq(true_grid, est_grid) && all_finite(est_grid) {
                    let copy = est_grid.clone();
                    let equal = decoded_bits(&decoder(&copy, est_grid, &cfg));
                    assert_eq!(bits, equal, "{what}, vs an equal copy");
                }
            }
        }
    }
    assert!(
        decoded > 0 && failed > 0,
        "{direction:?}: {decoded} hostile decodes succeeded and {failed} failed; \
         both outcomes must be exercised"
    );
}

#[test]
fn hostile_uplink3_links_match_reference() {
    check_hostile(Direction::Uplink, 2, 91, closed_form::uplink3);
}

#[test]
fn hostile_uplink4_links_match_reference() {
    check_hostile(Direction::Uplink, 3, 92, closed_form::uplink4);
}

#[test]
fn hostile_downlink3_links_match_reference() {
    check_hostile(Direction::Downlink, 3, 93, |g, _| closed_form::downlink3(g));
}
