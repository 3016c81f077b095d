//! Channel reciprocity and TX/RX calibration (paper §8b, Fig. 16).
//!
//! The over-the-air channel is reciprocal — the downlink matrix is the
//! transpose of the uplink matrix — but the *measured* channels include each
//! node's transmit and receive hardware chains, which differ. The paper uses
//! QUALCOMM's calibration (Eq. 8):
//!
//! ```text
//! (H^d)ᵀ = C_client,rx · Hᵘ · C_AP,tx
//! ```
//!
//! where the `C` matrices are constant complex diagonals per node. Once
//! calibrated, an AP can infer the downlink channel from uplink estimates
//! alone, even after the client moves (the air channel changes, the hardware
//! does not). Fig. 16 measures exactly that: the fractional error of the
//! reciprocity-based estimate after moving the client.

use iac_linalg::{CMat, LinAlgError, Result, Rng64, C64};

/// Per-pair calibration state: the diagonal hardware-chain matrices of Eq. 8.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Client receive-chain response (diagonal, one entry per client antenna).
    pub client_rx: CMat,
    /// AP transmit-chain response (diagonal, one entry per AP antenna).
    pub ap_tx: CMat,
}

/// Draw a random hardware chain response: per-antenna gain within ±`gain_db`
/// of nominal and uniformly random phase. Hardware chains are static, so this
/// is drawn once per node.
pub fn random_chain(antennas: usize, gain_spread_db: f64, rng: &mut Rng64) -> CMat {
    let entries: Vec<C64> = (0..antennas)
        .map(|_| {
            let gain_db = rng.uniform(-gain_spread_db, gain_spread_db);
            let gain = crate::pathloss::db_to_linear(gain_db).sqrt();
            let phase = rng.uniform(0.0, std::f64::consts::TAU);
            C64::from_polar(gain, phase)
        })
        .collect();
    CMat::diag(&entries)
}

impl Calibration {
    /// Compute the calibration matrices from one simultaneous measurement of
    /// the uplink and downlink channels (the one-time calibration step the
    /// paper describes: "computed once and does not change for the same
    /// sender receiver pair").
    ///
    /// Given measured `Hᵘ` and `H^d` related by Eq. 8 with unknown diagonals,
    /// solve entrywise: `(H^d)ᵀ[i][j] = c_rx[i] · Hᵘ[i][j] · c_tx[j]`.
    /// The system is determined only up to a complex scalar (α·c_rx, c_tx/α
    /// gives the same products), so the first RX entry is normalised to 1 —
    /// the downlink inference is invariant to that choice.
    pub fn from_measurement(h_up: &CMat, h_down: &CMat) -> Result<Self> {
        let (r, t) = h_up.shape(); // r = client antennas, t = AP antennas
        if h_down.shape() != (t, r) {
            return Err(LinAlgError::ShapeMismatch {
                expected: (t, r),
                got: h_down.shape(),
            });
        }
        let dt = h_down.transpose(); // r×t, equals C_rx · Hᵘ · C_tx
                                     // Ratio matrix R[i][j] = dt[i][j]/Hᵘ[i][j] = c_rx[i]·c_tx[j].
        let mut ratio = CMat::zeros(r, t);
        for i in 0..r {
            for j in 0..t {
                let denom = h_up[(i, j)];
                if denom.abs() < 1e-12 {
                    return Err(LinAlgError::Degenerate(
                        "uplink entry too small to calibrate against",
                    ));
                }
                ratio[(i, j)] = dt[(i, j)] / denom;
            }
        }
        // Fix c_rx[0] = 1 ⇒ c_tx[j] = R[0][j]; c_rx[i] = R[i][0]/c_tx[0].
        let mut tx = Vec::with_capacity(t);
        for j in 0..t {
            tx.push(ratio[(0, j)]);
        }
        let tx0 = tx[0];
        if tx0.abs() < 1e-12 {
            return Err(LinAlgError::Degenerate("degenerate calibration ratio"));
        }
        let mut rx = Vec::with_capacity(r);
        for i in 0..r {
            rx.push(ratio[(i, 0)] / tx0);
        }
        Ok(Self {
            client_rx: CMat::diag(&rx),
            ap_tx: CMat::diag(&tx),
        })
    }

    /// Infer the downlink channel from a (later) uplink estimate via Eq. 8:
    /// `H^d = (C_client,rx · Hᵘ · C_AP,tx)ᵀ`.
    pub fn downlink_from_uplink(&self, h_up: &CMat) -> CMat {
        self.client_rx
            .mul_mat(h_up)
            .mul_mat(&self.ap_tx)
            .transpose()
    }
}

/// The Fig. 16 metric: `‖H_true − H_est‖ / ‖H_true‖` (Frobenius).
pub fn fractional_error(h_true: &CMat, h_est: &CMat) -> f64 {
    let denom = h_true.frobenius_norm();
    if denom == 0.0 {
        return if h_est.frobenius_norm() == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (h_est - h_true).frobenius_norm() / denom
}

/// Compose the *measured* uplink channel for a given over-the-air channel
/// `h_air` (client→AP, shape `ap×client`), including hardware chains:
/// `Hᵘ_meas = C_AP,rx · H_air · C_client,tx`.
pub fn measured_uplink(h_air: &CMat, ap_rx: &CMat, client_tx: &CMat) -> CMat {
    ap_rx.mul_mat(h_air).mul_mat(client_tx)
}

/// Compose the measured downlink channel: the air channel reciprocally
/// transposes, then the AP TX and client RX chains apply:
/// `H^d_meas = C_client,rx · H_airᵀ · C_AP,tx`.
pub fn measured_downlink(h_air: &CMat, client_rx: &CMat, ap_tx: &CMat) -> CMat {
    client_rx.mul_mat(&h_air.transpose()).mul_mat(ap_tx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a full hardware+air scenario and return
    /// (measured uplink, measured downlink) for the same air channel.
    fn scenario(
        rng: &mut Rng64,
        h_air: &CMat,
        ap_tx: &CMat,
        ap_rx: &CMat,
        cl_tx: &CMat,
        cl_rx: &CMat,
    ) -> (CMat, CMat) {
        let _ = rng;
        let up = measured_uplink(h_air, ap_rx, cl_tx); // ap×client
        let down = measured_downlink(h_air, cl_rx, ap_tx); // client×ap
        (up, down)
    }

    #[test]
    fn chains_are_diagonal_and_near_nominal() {
        let mut rng = Rng64::new(1);
        let c = random_chain(2, 1.0, &mut rng);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 1)], C64::zero());
        for i in 0..2 {
            let g = c[(i, i)].abs();
            assert!(g > 0.8 && g < 1.25, "gain {g} outside ±1 dB");
        }
    }

    #[test]
    fn calibration_recovers_downlink_exactly_when_static() {
        // Calibrate and immediately re-infer: error must be ~0.
        let mut rng = Rng64::new(2);
        let h_air = CMat::random(2, 2, &mut rng);
        let ap_tx = random_chain(2, 1.0, &mut rng);
        let ap_rx = random_chain(2, 1.0, &mut rng);
        let cl_tx = random_chain(2, 1.0, &mut rng);
        let cl_rx = random_chain(2, 1.0, &mut rng);
        let (up, down) = scenario(&mut rng, &h_air, &ap_tx, &ap_rx, &cl_tx, &cl_rx);
        let cal = Calibration::from_measurement(&up, &down).unwrap();
        let inferred = cal.downlink_from_uplink(&up);
        assert!(
            fractional_error(&down, &inferred) < 1e-10,
            "error {}",
            fractional_error(&down, &inferred)
        );
    }

    #[test]
    fn calibration_survives_client_movement() {
        // The Fig. 16 experiment: calibrate at location A, move the client
        // (new air channel), infer downlink from the NEW uplink — hardware
        // chains unchanged, so inference stays exact (absent noise).
        let mut rng = Rng64::new(3);
        let ap_tx = random_chain(2, 1.0, &mut rng);
        let ap_rx = random_chain(2, 1.0, &mut rng);
        let cl_tx = random_chain(2, 1.0, &mut rng);
        let cl_rx = random_chain(2, 1.0, &mut rng);

        let h_air_a = CMat::random(2, 2, &mut rng);
        let (up_a, down_a) = scenario(&mut rng, &h_air_a, &ap_tx, &ap_rx, &cl_tx, &cl_rx);
        let cal = Calibration::from_measurement(&up_a, &down_a).unwrap();

        for _ in 0..5 {
            let h_air_b = CMat::random(2, 2, &mut rng); // client moved
            let (up_b, down_b) = scenario(&mut rng, &h_air_b, &ap_tx, &ap_rx, &cl_tx, &cl_rx);
            let inferred = cal.downlink_from_uplink(&up_b);
            assert!(fractional_error(&down_b, &inferred) < 1e-9);
        }
    }

    #[test]
    fn noisy_estimates_give_small_fractional_error() {
        // With estimation noise the Fig. 16 error becomes nonzero but stays
        // in the paper's 0.05–0.2 band for paper-like estimation SNR.
        use crate::estimation::{estimate_with_error, EstimationConfig};
        let mut rng = Rng64::new(4);
        let config = EstimationConfig::paper_default();
        let ap_tx = random_chain(2, 1.0, &mut rng);
        let ap_rx = random_chain(2, 1.0, &mut rng);
        let cl_tx = random_chain(2, 1.0, &mut rng);
        let cl_rx = random_chain(2, 1.0, &mut rng);

        let h_air_a = CMat::random(2, 2, &mut rng);
        let (up_a, down_a) = scenario(&mut rng, &h_air_a, &ap_tx, &ap_rx, &cl_tx, &cl_rx);
        let up_a_est = estimate_with_error(&up_a, &config, &mut rng);
        let down_a_est = estimate_with_error(&down_a, &config, &mut rng);
        let cal = Calibration::from_measurement(&up_a_est, &down_a_est).unwrap();

        let mut worst: f64 = 0.0;
        for _ in 0..20 {
            let h_air_b = CMat::random(2, 2, &mut rng);
            let (up_b, down_b) = scenario(&mut rng, &h_air_b, &ap_tx, &ap_rx, &cl_tx, &cl_rx);
            let up_b_est = estimate_with_error(&up_b, &config, &mut rng);
            let inferred = cal.downlink_from_uplink(&up_b_est);
            worst = worst.max(fractional_error(&down_b, &inferred));
        }
        assert!(worst < 0.5, "worst fractional error {worst}");
        assert!(worst > 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let up = CMat::zeros(2, 2);
        let down = CMat::zeros(3, 2);
        assert!(Calibration::from_measurement(&up, &down).is_err());
    }

    #[test]
    fn fractional_error_of_identical_is_zero() {
        let mut rng = Rng64::new(5);
        let h = CMat::random(2, 2, &mut rng);
        assert_eq!(fractional_error(&h, &h), 0.0);
    }

    #[test]
    fn reciprocity_is_not_link_symmetry() {
        // The paper stresses reciprocity concerns the channel matrix, not
        // link quality: different noise floors at the two ends do not break
        // Eq. 8. Model: same air channel, inference stays exact regardless
        // of receiver noise added AFTER estimation (which only affects SNR).
        let mut rng = Rng64::new(6);
        let h_air = CMat::random(2, 2, &mut rng);
        let chains: Vec<CMat> = (0..4).map(|_| random_chain(2, 1.0, &mut rng)).collect();
        let (up, down) = scenario(
            &mut rng, &h_air, &chains[0], &chains[1], &chains[2], &chains[3],
        );
        let cal = Calibration::from_measurement(&up, &down).unwrap();
        let inferred = cal.downlink_from_uplink(&up);
        // Perfect inference even though we may declare the AP side "noisy".
        assert!(fractional_error(&down, &inferred) < 1e-10);
    }
}
