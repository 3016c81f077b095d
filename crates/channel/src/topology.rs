//! Node placement and per-link budgets.
//!
//! The paper's testbed (Fig. 11) is 20 two-antenna nodes spread over one
//! office floor, all "within radio range of each other to ensure that
//! concurrent transmissions are enabled by the existence of multiple
//! antennas, not by spatial reuse". [`Room`] reproduces that: random
//! placement in a rectangle sized so every pair stays above a minimum SNR.

use crate::pathloss::LogDistance;
use iac_linalg::Rng64;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    pub x: f64,
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: &Position) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// A rectangular deployment area with a path-loss model and link budget.
#[derive(Debug, Clone)]
pub struct Room {
    /// Width in metres.
    pub width_m: f64,
    /// Depth in metres.
    pub depth_m: f64,
    /// Path-loss model for all links.
    pub pathloss: LogDistance,
    /// Link budget in dB (TX power + gains − noise floor at 1 m reference).
    pub budget_db: f64,
    /// Minimum spacing between nodes in metres (physical footprint).
    pub min_spacing_m: f64,
}

impl Room {
    /// The default testbed room: sized so that the farthest pair still sees
    /// roughly 5–10 dB SNR and the nearest around 25–30 dB — matching the
    /// rate band the paper reports for 802.11-MIMO.
    pub fn testbed_default() -> Self {
        Self {
            width_m: 16.0,
            depth_m: 11.0,
            // One open office floor, mostly line of sight: a milder exponent
            // than the multi-wall indoor default keeps the near/far SNR
            // spread at ~20 dB, matching the paper's observed rate band
            // (802.11-MIMO averaging ~8 b/s/Hz over two streams) while the
            // farthest pair stays above the decodability floor — the Fig. 11
            // "all nodes within radio range" requirement.
            pathloss: LogDistance {
                d0_m: 1.0,
                pl0_db: 40.0,
                exponent: 2.2,
            },
            budget_db: 71.5,
            min_spacing_m: 1.0,
        }
    }

    /// Place `n` nodes uniformly at random, honouring the minimum spacing
    /// (rejection sampling; panics only if the room is absurdly overfull).
    pub fn place_nodes(&self, n: usize, rng: &mut Rng64) -> Vec<Position> {
        let mut out: Vec<Position> = Vec::with_capacity(n);
        let mut attempts = 0usize;
        while out.len() < n {
            attempts += 1;
            assert!(
                attempts < 100_000,
                "cannot place {n} nodes with spacing {} in {}x{} room",
                self.min_spacing_m,
                self.width_m,
                self.depth_m
            );
            let candidate = Position {
                x: rng.uniform(0.0, self.width_m),
                y: rng.uniform(0.0, self.depth_m),
            };
            if out
                .iter()
                .all(|p| p.distance_to(&candidate) >= self.min_spacing_m)
            {
                out.push(candidate);
            }
        }
        out
    }

    /// Average per-link SNR in dB between two positions.
    pub fn link_snr_db(&self, a: &Position, b: &Position) -> f64 {
        self.pathloss.snr_db(a.distance_to(b), self.budget_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_symmetric() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance_to(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn placement_respects_bounds_and_spacing() {
        let room = Room::testbed_default();
        let mut rng = Rng64::new(42);
        let nodes = room.place_nodes(20, &mut rng);
        assert_eq!(nodes.len(), 20);
        for n in &nodes {
            assert!(n.x >= 0.0 && n.x <= room.width_m);
            assert!(n.y >= 0.0 && n.y <= room.depth_m);
        }
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                assert!(a.distance_to(b) >= room.min_spacing_m);
            }
        }
    }

    #[test]
    fn default_room_is_single_collision_domain() {
        // Every pair in the default 20-node layout should remain decodable
        // (> 3 dB) — the Fig. 11 property.
        let room = Room::testbed_default();
        let mut rng = Rng64::new(7);
        for trial in 0..10 {
            let nodes = room.place_nodes(20, &mut rng);
            for (i, a) in nodes.iter().enumerate() {
                for b in nodes.iter().skip(i + 1) {
                    assert!(
                        room.link_snr_db(a, b) >= 3.0,
                        "trial {trial} produced a disconnected pair"
                    );
                }
            }
        }
    }

    #[test]
    fn snr_band_matches_paper() {
        // Across many layouts the per-link SNR distribution should span
        // roughly 5–30 dB, reproducing the x-axis spread of Figs. 12–14.
        let room = Room::testbed_default();
        let mut rng = Rng64::new(11);
        let nodes = room.place_nodes(20, &mut rng);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                let s = room.link_snr_db(a, b);
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        assert!(hi > 20.0, "best link only {hi} dB");
        assert!(lo < 20.0 && lo > 0.0, "worst link {lo} dB");
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let room = Room::testbed_default();
        let a = room.place_nodes(5, &mut Rng64::new(3));
        let b = room.place_nodes(5, &mut Rng64::new(3));
        assert_eq!(a, b);
    }
}
