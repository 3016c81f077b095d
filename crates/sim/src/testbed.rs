//! The 20-node testbed (Fig. 11) and per-experiment channel generation.

use iac_channel::{db_to_linear, Position, Room};
use iac_core::grid::{ChannelGrid, Direction};
use iac_linalg::Rng64;
use std::sync::OnceLock;

/// A deployed testbed: node positions in a calibrated room.
///
/// The room and positions are fixed at deployment, so the amplitude of an
/// ordered node pair is computed once, on first use, and every later draw
/// reads it. (Filling all n² pairs at deployment would cost a scenario that
/// deploys per trial and reads a few pairs, like fig16, more than it
/// saves.)
#[derive(Debug, Clone)]
pub struct Testbed {
    room: Room,
    positions: Vec<Position>,
    /// `amplitudes[a * n + b]` holds [`Testbed::amplitude`]`(a, b)` once
    /// it has been asked for.
    amplitudes: Vec<OnceLock<f64>>,
    /// Antennas per node (2 on the paper's USRPs).
    pub antennas: usize,
}

impl Testbed {
    /// Deploy `n` nodes in the default room.
    pub fn deploy(n: usize, antennas: usize, rng: &mut Rng64) -> Self {
        let room = Room::testbed_default();
        let positions = room.place_nodes(n, rng);
        let amplitudes = (0..n * n).map(|_| OnceLock::new()).collect();
        Self {
            room,
            positions,
            amplitudes,
            antennas,
        }
    }

    /// The paper's testbed: 20 two-antenna nodes.
    pub fn paper_default(rng: &mut Rng64) -> Self {
        Self::deploy(20, 2, rng)
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Per-link amplitude between two nodes: channel entries are `CN(0,1)`
    /// scaled by this, so with unit noise power the average per-antenna SNR
    /// equals the link budget.
    pub(crate) fn amplitude(&self, a: usize, b: usize) -> f64 {
        assert!(b < self.len(), "node {b} out of range");
        *self.amplitudes[a * self.len() + b].get_or_init(|| {
            db_to_linear(
                self.room
                    .link_snr_db(&self.positions[a], &self.positions[b]),
            )
            .sqrt()
        })
    }

    /// Draw one slot's uplink channel grid for the given client and AP node
    /// indices: independent Rayleigh fading scaled by each pair's path loss.
    pub fn uplink_grid(&self, clients: &[usize], aps: &[usize], rng: &mut Rng64) -> ChannelGrid {
        ChannelGrid::random(
            Direction::Uplink,
            clients.len(),
            aps.len(),
            self.antennas,
            self.antennas,
            rng,
        )
        .with_amplitudes(|t, r| self.amplitude(clients[t], aps[r]))
    }

    /// Draw one slot's downlink grid (APs transmit).
    pub fn downlink_grid(&self, aps: &[usize], clients: &[usize], rng: &mut Rng64) -> ChannelGrid {
        ChannelGrid::random(
            Direction::Downlink,
            aps.len(),
            clients.len(),
            self.antennas,
            self.antennas,
            rng,
        )
        .with_amplitudes(|t, r| self.amplitude(aps[t], clients[r]))
    }

    /// Pick `n_aps` AP nodes and `n_clients` client nodes, disjoint, at
    /// random (the paper's per-experiment methodology: "we randomly pick
    /// some nodes to act as APs and others to act as clients").
    pub fn pick_roles(
        &self,
        n_aps: usize,
        n_clients: usize,
        rng: &mut Rng64,
    ) -> (Vec<usize>, Vec<usize>) {
        assert!(n_aps + n_clients <= self.len(), "not enough nodes");
        let picked = rng.choose_indices(self.len(), n_aps + n_clients);
        let aps = picked[..n_aps].to_vec();
        let clients = picked[n_aps..].to_vec();
        (aps, clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_shape() {
        let mut rng = Rng64::new(1);
        let tb = Testbed::paper_default(&mut rng);
        assert_eq!(tb.len(), 20);
        assert_eq!(tb.antennas, 2);
        assert!(!tb.positions.is_empty());
    }

    #[test]
    fn grids_have_role_shapes() {
        let mut rng = Rng64::new(2);
        let tb = Testbed::paper_default(&mut rng);
        let up = tb.uplink_grid(&[0, 1, 2], &[3, 4, 5], &mut rng);
        assert_eq!(up.transmitters(), 3);
        assert_eq!(up.receivers(), 3);
        let down = tb.downlink_grid(&[3, 4], &[0, 1, 2], &mut rng);
        assert_eq!(down.transmitters(), 2);
        assert_eq!(down.receivers(), 3);
    }

    #[test]
    fn amplitudes_decay_with_distance() {
        let mut rng = Rng64::new(3);
        let tb = Testbed::paper_default(&mut rng);
        // Find the closest and farthest pairs; closer must have the larger
        // amplitude.
        let mut best = (0, 1, f64::INFINITY);
        let mut worst = (0, 1, 0.0f64);
        for i in 0..tb.len() {
            for j in (i + 1)..tb.len() {
                let d = tb.positions[i].distance_to(&tb.positions[j]);
                if d < best.2 {
                    best = (i, j, d);
                }
                if d > worst.2 {
                    worst = (i, j, d);
                }
            }
        }
        assert!(tb.amplitude(best.0, best.1) > tb.amplitude(worst.0, worst.1));
    }

    #[test]
    fn cached_amplitudes_match_the_link_budget() {
        let mut rng = Rng64::new(6);
        let tb = Testbed::paper_default(&mut rng);
        let pos = &tb.positions;
        for a in 0..tb.len() {
            for b in 0..tb.len() {
                let direct = db_to_linear(tb.room.link_snr_db(&pos[a], &pos[b])).sqrt();
                assert_eq!(
                    tb.amplitude(a, b).to_bits(),
                    direct.to_bits(),
                    "pair ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn role_picks_are_disjoint() {
        let mut rng = Rng64::new(4);
        let tb = Testbed::paper_default(&mut rng);
        for _ in 0..20 {
            let (aps, clients) = tb.pick_roles(3, 17, &mut rng);
            assert_eq!(aps.len(), 3);
            assert_eq!(clients.len(), 17);
            for a in &aps {
                assert!(!clients.contains(a));
            }
        }
    }

    #[test]
    fn grid_snr_matches_link_budget() {
        // With unit noise, average per-entry |h|² should equal the
        // link-budget SNR (linear).
        let mut rng = Rng64::new(5);
        let tb = Testbed::paper_default(&mut rng);
        let c = 0;
        let a = 1;
        let expect = tb.amplitude(c, a).powi(2);
        let mut acc = 0.0;
        let n = 3000;
        for _ in 0..n {
            let g = tb.uplink_grid(&[c], &[a], &mut rng);
            acc += g.link(0, 0).frobenius_norm().powi(2) / 4.0;
        }
        let measured = acc / n as f64;
        assert!(
            (measured / expect - 1.0).abs() < 0.1,
            "measured {measured}, expected {expect}"
        );
    }
}
