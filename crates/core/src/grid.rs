//! Channel containers for multi-client / multi-AP topologies.
//!
//! Uplink channel `H_ij` goes from client `i` to AP `j` (paper notation); the
//! downlink channel `Hᵈ_ij` goes from AP `i` to client `j`. Both are stored
//! here as a [`ChannelGrid`] indexed `(transmitter, receiver)` with a
//! [`Direction`] tag for intent, so solver code reads like the paper's
//! equations.

use iac_channel::estimation::{estimate_with_error, EstimationConfig};
use iac_linalg::{CMat, Rng64};

/// Which way the grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Transmitters are clients, receivers are APs.
    Uplink,
    /// Transmitters are APs, receivers are clients.
    Downlink,
}

/// Channels addressed by `(transmitter, receiver)`: a whole
/// [`ChannelGrid`], or a view of part of one, or of one with its nodes in
/// another order. The decoder and `optimize::uplink3_optimized` read links
/// through this, so a candidate group or a role order is decoded in place.
pub trait Links {
    /// Channel from transmitter `tx` to receiver `rx`.
    fn link(&self, tx: usize, rx: usize) -> &CMat;

    /// The `(rows, cols)` shape every link has.
    fn link_shape(&self) -> (usize, usize);

    /// Which way the links point.
    fn direction(&self) -> Direction;

    /// Number of transmitters.
    fn transmitters(&self) -> usize;

    /// Number of receivers.
    fn receivers(&self) -> usize;
}

impl Links for ChannelGrid {
    fn link(&self, tx: usize, rx: usize) -> &CMat {
        ChannelGrid::link(self, tx, rx)
    }

    /// [`ChannelGrid::new`] checks that every link has this shape.
    fn link_shape(&self) -> (usize, usize) {
        (self.rx_antennas(), self.tx_antennas())
    }

    fn direction(&self) -> Direction {
        ChannelGrid::direction(self)
    }

    fn transmitters(&self) -> usize {
        ChannelGrid::transmitters(self)
    }

    fn receivers(&self) -> usize {
        ChannelGrid::receivers(self)
    }
}

/// A dense grid of MIMO channels between every transmitter and receiver.
#[derive(Debug, Clone)]
pub struct ChannelGrid {
    direction: Direction,
    /// `h[tx][rx]`, each `rx_antennas × tx_antennas`.
    h: Vec<Vec<CMat>>,
}

impl ChannelGrid {
    /// Build from explicit matrices, validating shape consistency.
    ///
    /// # Panics
    ///
    /// On an empty grid (no transmitter or no receiver), a ragged one (rows
    /// of different lengths) or one that mixes matrix shapes. Every caller
    /// builds a rectangular grid of equal-shape links from fixed loop
    /// bounds, so a bad shape is a programming error, not an input to
    /// handle; the checks catch it at construction instead of as a wrong
    /// index deep in the alignment maths.
    pub fn new(direction: Direction, h: Vec<Vec<CMat>>) -> Self {
        assert!(!h.is_empty(), "grid needs at least one transmitter");
        let rx_count = h[0].len();
        assert!(rx_count > 0, "grid needs at least one receiver");
        let shape = h[0][0].shape();
        for row in &h {
            assert_eq!(row.len(), rx_count, "ragged channel grid");
            for m in row {
                assert_eq!(m.shape(), shape, "mixed antenna counts in grid");
            }
        }
        Self { direction, h }
    }

    /// Draw an i.i.d. Rayleigh grid: every link gets an independent
    /// `rx_antennas × tx_antennas` fading matrix. Channels to the *same*
    /// receiver from different transmitters are independent — the property
    /// that makes "aligned at AP1 but not at AP2" possible (§4b).
    pub fn random(
        direction: Direction,
        transmitters: usize,
        receivers: usize,
        rx_antennas: usize,
        tx_antennas: usize,
        rng: &mut Rng64,
    ) -> Self {
        let h = (0..transmitters)
            .map(|_| {
                (0..receivers)
                    .map(|_| {
                        iac_channel::fading::well_conditioned_rayleigh(
                            rx_antennas,
                            tx_antennas,
                            1e4,
                            rng,
                        )
                    })
                    .collect()
            })
            .collect();
        Self::new(direction, h)
    }

    /// Channel from transmitter `tx` to receiver `rx`.
    pub fn link(&self, tx: usize, rx: usize) -> &CMat {
        &self.h[tx][rx]
    }

    /// Grid direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of transmitters.
    pub fn transmitters(&self) -> usize {
        self.h.len()
    }

    /// Number of receivers.
    pub fn receivers(&self) -> usize {
        self.h[0].len()
    }

    /// Receiver antenna count.
    pub(crate) fn rx_antennas(&self) -> usize {
        self.h[0][0].rows()
    }

    /// Transmitter antenna count.
    pub(crate) fn tx_antennas(&self) -> usize {
        self.h[0][0].cols()
    }

    /// Apply per-link scalar amplitude gains (large-scale path loss) in
    /// place: `gain(tx, rx)` multiplies every entry of the corresponding
    /// link.
    pub fn with_amplitudes(mut self, gain: impl Fn(usize, usize) -> f64) -> Self {
        for (t, row) in self.h.iter_mut().enumerate() {
            for (r, m) in row.iter_mut().enumerate() {
                m.scale_in_place(gain(t, r));
            }
        }
        self
    }

    /// Produce the estimated version of this grid under the given estimation
    /// error model — what the leader AP actually computes vectors from (§8).
    pub fn estimated(&self, config: &EstimationConfig, rng: &mut Rng64) -> Self {
        let h = self
            .h
            .iter()
            .map(|row| {
                row.iter()
                    .map(|m| estimate_with_error(m, config, rng))
                    .collect()
            })
            .collect();
        Self::new(self.direction, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_grid_shape() {
        let mut rng = Rng64::new(1);
        let g = ChannelGrid::random(Direction::Uplink, 2, 3, 2, 2, &mut rng);
        assert_eq!(g.transmitters(), 2);
        assert_eq!(g.receivers(), 3);
        assert_eq!(g.link(1, 2).shape(), (2, 2));
        assert_eq!(g.direction(), Direction::Uplink);
    }

    #[test]
    fn links_are_independent_draws() {
        let mut rng = Rng64::new(2);
        let g = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let d = (g.link(0, 0) - g.link(0, 1)).frobenius_norm();
        assert!(d > 0.1, "suspiciously similar independent links");
    }

    #[test]
    fn amplitudes_scale_links() {
        let mut rng = Rng64::new(3);
        let g = ChannelGrid::random(Direction::Downlink, 2, 2, 2, 2, &mut rng);
        let gains = [[1.0, 2.0], [0.5, 1.0]];
        let scaled = g.clone().with_amplitudes(|t, r| gains[t][r]);
        let ratio = scaled.link(0, 1).frobenius_norm() / g.link(0, 1).frobenius_norm();
        assert!((ratio - 2.0).abs() < 1e-12);
        let ratio2 = scaled.link(1, 0).frobenius_norm() / g.link(1, 0).frobenius_norm();
        assert!((ratio2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn estimated_grid_perturbs() {
        let mut rng = Rng64::new(4);
        let g = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let est = g.estimated(&EstimationConfig::paper_default(), &mut rng);
        let d = (g.link(0, 0) - est.link(0, 0)).frobenius_norm();
        assert!(d > 0.0 && d < 0.5, "estimation perturbation {d}");
        let perfect = g.estimated(&EstimationConfig::perfect(), &mut rng);
        assert_eq!(perfect.link(1, 1), g.link(1, 1));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_grid_rejected() {
        let m = CMat::zeros(2, 2);
        let _ = ChannelGrid::new(Direction::Uplink, vec![vec![m.clone(), m.clone()], vec![m]]);
    }
}
