//! The single-client diversity mode of §10.2 (Fig. 14).
//!
//! With one active client IAC has no multiplexing gain — two antennas cap the
//! stream count at two — but the Ethernet still lets APs cooperate. The
//! leader AP compares three ways to deliver two packets:
//!
//! * both packets from AP 0 (plain 802.11-MIMO from that AP),
//! * both packets from AP 1,
//! * one packet from each AP, jointly precoded.
//!
//! and picks whichever the (estimated) channels predict to be fastest. The
//! comparison "can be done merely by computing the capacity using our
//! knowledge of the channel matrices" (§10.2, footnote 10).

use crate::baseline::eigenmode_rate_from;
use iac_linalg::{CMat, Result, Svd};

/// The option the leader AP selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiversityOption {
    /// Both packets transmitted from the given AP (eigenmode precoding).
    BothFrom(usize),
    /// One packet from each of the two APs, jointly precoded.
    OneFromEach,
}

/// Outcome of the option search.
#[derive(Debug, Clone)]
pub struct DiversityOutcome {
    /// Chosen option.
    pub option: DiversityOption,
    /// Realised achievable rate under the true channels.
    pub rate: f64,
    /// Realised per-packet SINRs.
    pub sinrs: Vec<f64>,
}

/// Evaluate the split option: AP0 sends packet 0, AP1 sends packet 1, each
/// with power `p_per_ap`. Precoders come from the estimates; the realised
/// SINRs from the true channels.
fn one_from_each(
    links_true: &[CMat; 2],
    links_est: &[CMat; 2],
    p_per_ap: f64,
    noise: f64,
) -> Result<(f64, Vec<f64>)> {
    // AP0 beam-forms to the client's dominant eigenmode.
    let svd0 = Svd::compute(&links_est[0]);
    let v0 = svd0.v.col(0);
    let dir0 = links_est[0].mul_vec(&v0).normalize()?;
    // AP1 beam-forms into the residual space (avoid colliding with AP0).
    let m = links_est[1].rows();
    let mut proj = CMat::identity(m);
    for r in 0..m {
        for c in 0..m {
            proj[(r, c)] -= dir0[r] * dir0[c].conj();
        }
    }
    let residual = proj.mul_mat(&links_est[1]);
    let svd1 = Svd::compute(&residual);
    let v1 = svd1.v.col(0);

    // Zero-forcing receive from the estimated effective 2×2 system.
    let g_est = CMat::from_cols(&[links_est[0].mul_vec(&v0), links_est[1].mul_vec(&v1)]);
    let g_inv = g_est.inverse()?;
    let u0 = g_inv.row(0).conj().normalize()?;
    let u1 = g_inv.row(1).conj().normalize()?;

    let tx = [&v0, &v1];
    let us = [&u0, &u1];
    let mut sinrs = Vec::with_capacity(2);
    for i in 0..2 {
        let own = links_true[i].mul_vec(tx[i]);
        let other = links_true[1 - i].mul_vec(tx[1 - i]);
        let signal = p_per_ap * us[i].dot(&own).norm_sqr();
        let cross = p_per_ap * us[i].dot(&other).norm_sqr();
        sinrs.push(signal / (cross + noise));
    }
    Ok((crate::baseline::checked_rate(&sinrs)?, sinrs))
}

/// The leader AP's search. `links_*[i]` is the downlink channel from AP `i`
/// to the client (client-antennas × AP-antennas). `p_per_ap` is each AP's
/// power budget; a single AP serving both packets splits it across streams.
pub fn best_downlink_option(
    links_true: &[CMat; 2],
    links_est: &[CMat; 2],
    p_per_ap: f64,
    noise: f64,
) -> Result<DiversityOutcome> {
    // Predict every option from the estimates alone.
    let svds = links_est.each_ref().map(Svd::compute);
    let mut candidates: Vec<(DiversityOption, f64)> = Vec::with_capacity(3);
    for (ap, (link, svd)) in links_est.iter().zip(&svds).enumerate() {
        // A degenerate estimate predicts 0.0.
        let predicted =
            eigenmode_rate_from(svd, link, p_per_ap, noise).map_or(0.0, |(rate, _)| rate);
        candidates.push((DiversityOption::BothFrom(ap), predicted));
    }
    let (predicted_split, _) = one_from_each(links_est, links_est, p_per_ap, noise)?;
    candidates.push((DiversityOption::OneFromEach, predicted_split));

    let (option, _) = candidates
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("three candidates");

    // Realise the chosen option under the true channels.
    let (rate, sinrs) = match option {
        DiversityOption::BothFrom(ap) => {
            eigenmode_rate_from(&svds[ap], &links_true[ap], p_per_ap, noise)?
        }
        DiversityOption::OneFromEach => one_from_each(links_true, links_est, p_per_ap, noise)?,
    };
    Ok(DiversityOutcome {
        option,
        rate,
        sinrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    fn random_links(seed: u64, scale0: f64, scale1: f64) -> [CMat; 2] {
        let mut rng = Rng64::new(seed);
        [
            CMat::random(2, 2, &mut rng).scale(scale0),
            CMat::random(2, 2, &mut rng).scale(scale1),
        ]
    }

    #[test]
    fn iac_option_search_never_loses_to_best_ap() {
        // The IAC leader considers the baseline's options plus one more, all
        // predicted on the same estimates — it can only do better or equal
        // in prediction; with perfect CSI, also in realisation.
        let mut rng = Rng64::new(1);
        for _ in 0..100 {
            let links = [CMat::random(2, 2, &mut rng), CMat::random(2, 2, &mut rng)];
            let iac = best_downlink_option(&links, &links, 1.0, 0.05).unwrap();
            let base =
                crate::baseline::best_ap_rate(links.as_ref(), links.as_ref(), 1.0, 0.05).unwrap();
            assert!(
                iac.rate >= base.1 - 1e-9,
                "IAC {} < baseline {}",
                iac.rate,
                base.1
            );
        }
    }

    #[test]
    fn average_diversity_gain_exists() {
        // Fig. 14's claim: averaged over channels, the option search beats
        // best-AP 802.11-MIMO (≈1.2× in the paper).
        let mut rng = Rng64::new(2);
        let mut iac_acc = 0.0;
        let mut base_acc = 0.0;
        for _ in 0..400 {
            let links = [
                CMat::random(2, 2, &mut rng).scale(0.7),
                CMat::random(2, 2, &mut rng).scale(0.7),
            ];
            iac_acc += best_downlink_option(&links, &links, 1.0, 0.1).unwrap().rate;
            base_acc += crate::baseline::best_ap_rate(links.as_ref(), links.as_ref(), 1.0, 0.1)
                .unwrap()
                .1;
        }
        let gain = iac_acc / base_acc;
        assert!(gain > 1.02, "no diversity gain: {gain}");
        assert!(gain < 2.0, "implausibly large diversity gain: {gain}");
    }

    #[test]
    fn lopsided_links_pick_the_strong_ap() {
        // When AP0's channel is 10× stronger, serving both packets from AP0
        // should win.
        let links = random_links(3, 3.0, 0.3);
        let out = best_downlink_option(&links, &links, 1.0, 0.05).unwrap();
        assert_eq!(out.option, DiversityOption::BothFrom(0));
    }

    #[test]
    fn split_option_chosen_sometimes() {
        // Across many draws, OneFromEach must win a nontrivial fraction —
        // otherwise the extra option (and the Ethernet coordination) would
        // be pointless.
        let mut rng = Rng64::new(4);
        let mut split_wins = 0;
        let trials = 200;
        for _ in 0..trials {
            let links = [CMat::random(2, 2, &mut rng), CMat::random(2, 2, &mut rng)];
            let out = best_downlink_option(&links, &links, 1.0, 0.1).unwrap();
            if out.option == DiversityOption::OneFromEach {
                split_wins += 1;
            }
        }
        assert!(
            split_wins > trials / 20,
            "split won only {split_wins}/{trials}"
        );
    }

    #[test]
    fn outcome_has_positive_sinrs() {
        let links = random_links(5, 1.0, 1.0);
        let out = best_downlink_option(&links, &links, 1.0, 0.1).unwrap();
        assert!(!out.sinrs.is_empty());
        for s in &out.sinrs {
            assert!(*s > 0.0);
        }
    }

    #[test]
    fn estimation_mismatch_degrades_gracefully() {
        use iac_channel::estimation::{estimate_with_error, EstimationConfig};
        let mut rng = Rng64::new(6);
        let cfg = EstimationConfig::paper_default();
        let mut perfect = 0.0;
        let mut noisy = 0.0;
        for _ in 0..100 {
            let t0 = CMat::random(2, 2, &mut rng);
            let t1 = CMat::random(2, 2, &mut rng);
            let e0 = estimate_with_error(&t0, &cfg, &mut rng);
            let e1 = estimate_with_error(&t1, &cfg, &mut rng);
            let links_true = [t0, t1];
            let links_est = [e0, e1];
            perfect += best_downlink_option(&links_true, &links_true, 1.0, 0.05)
                .unwrap()
                .rate;
            noisy += best_downlink_option(&links_true, &links_est, 1.0, 0.05)
                .unwrap()
                .rate;
        }
        assert!(noisy <= perfect);
        assert!(noisy > 0.7 * perfect, "collapse: {noisy} vs {perfect}");
    }
}
