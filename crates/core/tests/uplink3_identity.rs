//! `uplink3_optimized` scores its alignment seeds side by side in lanes and
//! runs the whole call on the scalar candidate loop when any lane cannot be
//! scored exactly as that loop scores it. Either way the call must return
//! what the loop returns: the same rate and encoding bit for bit, or the
//! same error, with the RNG left in the same state. This test keeps the
//! loop as a reference and compares the two for every candidate count
//! around the lane count, on random estimated grids and on grids carrying
//! singular, zero, NaN, infinite and extreme-magnitude links.

use iac_channel::estimation::EstimationConfig;
use iac_core::closed_form::AlignedConfig;
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize::{predicted_rate, uplink3_optimized};
use iac_core::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::{CMat, CVec, Result, Rng64, C64};

const POWER: f64 = 1.0;

/// Candidate counts: one seed, a short, a full and a one-over chunk, the
/// experiments' eight, and one past two chunks.
const CANDIDATES: [usize; 6] = [1, 3, 4, 5, 8, 9];

/// Noise powers: one small enough that the residual interference a
/// zero-forcing decoding vector leaves (around 1e-32 of a unit image)
/// still moves the SINR, so every nuisance term counts; those of the unit
/// tests and of the experiments; and infinite, where every SINR and so
/// every candidate's rate is 0.0 and the first candidate must win the tie.
const NOISES: [f64; 4] = [1e-30, 0.05, 1.0, f64::INFINITY];

/// The Fig. 4b schedule: AP0 decodes p0; AP1 cancels p0 and decodes p1, p2.
fn schedule() -> DecodeSchedule {
    DecodeSchedule {
        antennas: 2,
        owners: vec![0, 0, 1],
        steps: vec![
            DecodeStep {
                receiver: 0,
                decode: vec![0],
                cancel: vec![],
            },
            DecodeStep {
                receiver: 1,
                decode: vec![1, 2],
                cancel: vec![0],
            },
        ],
    }
}

/// The candidate loop as `uplink3_optimized` ran it before its seeds were
/// scored in lanes: one seed at a time, each scored by a full decode, the
/// first of equal rates winning. `drawn` counts the seeds it drew.
fn reference(
    est: &ChannelGrid,
    noise: f64,
    candidates: usize,
    rng: &mut Rng64,
    drawn: &mut usize,
) -> Result<(f64, Vec<CVec>)> {
    let h00 = est.link(0, 0);
    let h00_inv = h00.inverse()?;
    let h10_inv = est.link(1, 0).inverse()?;
    let mut best: Option<(f64, Vec<CVec>)> = None;
    for _ in 0..candidates.max(1) {
        let g = CVec::random_unit(2, rng);
        *drawn += 1;
        let v1 = h00_inv.mul_vec(&g).normalize()?;
        let v2 = h10_inv.mul_vec(&g).normalize()?;
        let u0 = h00.mul_vec(&v1).orth_2d()?;
        let v0 = h00.hermitian().mul_vec(&u0).normalize()?;
        let config = AlignedConfig {
            schedule: schedule(),
            encoding: vec![v0, v1, v2],
        };
        let rate = predicted_rate(est, &config, POWER, noise);
        if best.as_ref().map(|(s, _)| rate > *s).unwrap_or(true) {
            best = Some((rate, config.encoding));
        }
    }
    Ok(best.expect("candidates >= 1"))
}

fn bits(encoding: &[CVec]) -> Vec<[u64; 2]> {
    encoding
        .iter()
        .flat_map(|v| {
            v.as_slice()
                .iter()
                .map(|z| [z.re.to_bits(), z.im.to_bits()])
        })
        .collect()
}

/// Compare `uplink3_optimized` with the reference on `est` for every
/// candidate count and noise power, both from `Rng64::new(seed)`; return
/// the most seeds the reference drew before it failed (0 if it never did).
fn check(est: &ChannelGrid, seed: u64, what: &str) -> usize {
    let mut drawn_before_error = 0;
    for candidates in CANDIDATES {
        for noise in NOISES {
            let (mut fast_rng, mut slow_rng) = (Rng64::new(seed), Rng64::new(seed));
            let fast = uplink3_optimized(est, POWER, noise, candidates, &mut fast_rng);
            let mut drawn = 0;
            let slow = reference(est, noise, candidates, &mut slow_rng, &mut drawn);
            let at = format!("{what}, seed {seed}, {candidates} candidates, noise {noise}");
            match (fast, slow) {
                (Ok(fast), Ok((rate, encoding))) => {
                    assert_eq!(fast.rate.to_bits(), rate.to_bits(), "{at}: rate");
                    assert_eq!(bits(&fast.encoding), bits(&encoding), "{at}: encoding");
                    assert_eq!(fast.schedule, schedule(), "{at}: schedule");
                    let rescored = predicted_rate(est, &fast, POWER, noise);
                    assert_eq!(fast.rate.to_bits(), rescored.to_bits(), "{at}: re-scored");
                }
                (Err(fast), Err(slow)) => {
                    assert_eq!(fast, slow, "{at}: error");
                    drawn_before_error = drawn_before_error.max(drawn);
                }
                (fast, slow) => panic!("{at}: lanes {fast:?}, reference {slow:?}"),
            }
            assert_eq!(
                fast_rng.next_u64(),
                slow_rng.next_u64(),
                "{at}: the RNG after the call"
            );
        }
    }
    drawn_before_error
}

/// A random estimated two-client, two-AP uplink grid.
fn estimated_grid(rng: &mut Rng64) -> ChannelGrid {
    ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, rng)
        .estimated(&EstimationConfig::paper_default(), rng)
}

/// `grid` with link `(tx, rx)` replaced.
fn with_link(grid: &ChannelGrid, tx: usize, rx: usize, link: &CMat) -> ChannelGrid {
    let h = (0..2)
        .map(|t| {
            (0..2)
                .map(|r| {
                    if (t, r) == (tx, rx) {
                        link
                    } else {
                        grid.link(t, r)
                    }
                    .clone()
                })
                .collect()
        })
        .collect();
    ChannelGrid::new(Direction::Uplink, h)
}

#[test]
fn lanes_match_the_candidate_loop_on_random_grids() {
    let mut rng = Rng64::new(0x0303);
    for seed in 0..200 {
        let est = estimated_grid(&mut rng);
        assert_eq!(check(&est, seed, "random grid"), 0);
    }
}

/// Each hostile link in each of the four positions. A singular or zero
/// link to AP0 fails an inversion before any seed is drawn; the others
/// reach the decode with non-finite, zero or extreme images, which sends
/// the call through every error and fallback path.
#[test]
fn lanes_match_the_candidate_loop_on_hostile_grids() {
    let mut rng = Rng64::new(0x0304);
    let rank_one = CMat::from_fn(2, 2, |r, c| C64::real(((r + 1) * (c + 1)) as f64));
    let nan = CMat::from_fn(2, 2, |_, _| C64::new(f64::NAN, 0.0));
    let inf =
        |sign: f64| CMat::from_fn(2, 2, |r, c| C64::new(sign * f64::INFINITY, (r + c) as f64));
    let huge = CMat::random(2, 2, &mut rng).scale(1e150);
    let tiny = CMat::random(2, 2, &mut rng).scale(1e-150);
    let links = [
        ("rank-one", rank_one),
        ("zero", CMat::zeros(2, 2)),
        ("NaN", nan),
        ("+inf", inf(1.0)),
        ("-inf", inf(-1.0)),
        ("1e150", huge),
        ("1e-150", tiny),
    ];
    for (name, link) in &links {
        for (tx, rx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let est = with_link(&estimated_grid(&mut rng), tx, rx, link);
            check(&est, 7, &format!("{name} link ({tx}, {rx})"));
        }
    }
}

/// With `H(1, 0) = K·I`, `v2 = H(1, 0)⁻¹·g` is `g/K`, and at `K ≈ 4.5e161`
/// its squared entries round to zero exactly when every real and imaginary
/// part of `g` is below about 0.7 in magnitude. So some seeds fail the
/// normalisation and others do not: a call can fail at a middle
/// candidate, after drawing only the seeds up to it, and the lane path
/// must leave the RNG where the candidate loop leaves it.
#[test]
fn a_middle_candidate_failure_consumes_the_same_seeds() {
    let k = C64::real(1.0 / 2.246e-162);
    let scaled = CMat::from_fn(2, 2, |r, c| if r == c { k } else { C64::zero() });
    let est = with_link(&estimated_grid(&mut Rng64::new(0x0305)), 1, 0, &scaled);
    let mut middle = 0;
    for seed in 0..64 {
        let drawn = check(&est, seed, "K·I link (1, 0)");
        if (2..CANDIDATES[CANDIDATES.len() - 1]).contains(&drawn) {
            middle += 1;
        }
    }
    assert!(middle > 0, "no seed failed at a middle candidate");
}
