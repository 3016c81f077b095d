//! The paper's closed-form alignment solutions.
//!
//! Every function returns unit-norm encoding vectors plus the decode schedule
//! they realise. All derivations are the paper's own, rewritten with
//! 0-indexed clients/APs/packets:
//!
//! * [`uplink3`] — Eq. 2: `H11·v2 = H21·v3`, solved by inversion.
//! * [`uplink4`] — Eqs. 3–4, solved through the footnote-4 eigenproblem.
//! * [`downlink3`] — Eqs. 5–7, an eigenproblem of the same shape.
//! * [`downlink_2m_minus_2`] — the Lemma 5.1 construction (two independent
//!   alignment chains, one per client).

use crate::grid::{ChannelGrid, Direction};
use crate::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::{eig2, CMat, CVec, LinAlgError, Result, Rng64};

/// A closed-form (or solver-produced) IAC transmit configuration.
#[derive(Debug, Clone)]
pub struct AlignedConfig {
    /// The decode schedule the encoding realises.
    pub schedule: DecodeSchedule,
    /// Unit-norm encoding vector per packet.
    pub encoding: Vec<CVec>,
}

fn check_grid(grid: &ChannelGrid, dir: Direction, txs: usize, rxs: usize) -> Result<()> {
    if grid.direction() != dir {
        return Err(LinAlgError::Degenerate("wrong grid direction"));
    }
    if grid.transmitters() != txs || grid.receivers() != rxs {
        return Err(LinAlgError::ShapeMismatch {
            expected: (txs, rxs),
            got: (grid.transmitters(), grid.receivers()),
        });
    }
    Ok(())
}

/// Three concurrent uplink packets with two 2-antenna clients and two APs
/// (paper §4b, Fig. 4b). Client 0 sends packets 0 and 1; client 1 sends
/// packet 2. Packets 1 and 2 align at AP 0:
/// `H(0,0)·v1 = H(1,0)·v2  ⇒  v2 = H(1,0)⁻¹·H(0,0)·v1`.
pub fn uplink3(grid: &ChannelGrid, rng: &mut Rng64) -> Result<AlignedConfig> {
    check_grid(grid, Direction::Uplink, 2, 2)?;
    let v0 = CVec::random_unit(2, rng);
    let v1 = CVec::random_unit(2, rng);
    let v2 = grid
        .link(1, 0)
        .inverse()?
        .mul_mat(grid.link(0, 0))
        .mul_vec(&v1)
        .normalize()?;
    let schedule = DecodeSchedule {
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
    };
    Ok(AlignedConfig {
        schedule,
        encoding: vec![v0, v1, v2],
    })
}

/// Four concurrent uplink packets with three 2-antenna clients and three APs
/// (paper §4c, Fig. 5). Client 0 sends packets 0,1; client 1 sends packet 2;
/// client 2 sends packet 3. Alignment (0-indexed form of Eqs. 3–4):
///
/// ```text
/// AP0:  H(0,0)·v1 = H(1,0)·v2 = H(2,0)·v3
/// AP1:  H(1,1)·v2 = H(2,1)·v3
/// ```
///
/// Eliminating v1, v2 gives the footnote-4 eigenproblem
/// `v3 = eig( H(2,1)⁻¹·H(1,1)·H(1,0)⁻¹·H(2,0) )`.
pub fn uplink4(grid: &ChannelGrid, rng: &mut Rng64) -> Result<AlignedConfig> {
    check_grid(grid, Direction::Uplink, 3, 3)?;
    let prod = grid
        .link(2, 1)
        .inverse()?
        .mul_mat(grid.link(1, 1))
        .mul_mat(&grid.link(1, 0).inverse()?)
        .mul_mat(grid.link(2, 0));
    let pairs = eig2(&prod)?;
    // Either eigenvector satisfies the alignment; pick the better conditioned
    // one (larger |λ| keeps downstream normalisations stable).
    let v3 = if pairs[0].0.abs() >= pairs[1].0.abs() {
        pairs[0].1.clone()
    } else {
        pairs[1].1.clone()
    };
    let v2 = grid
        .link(1, 0)
        .inverse()?
        .mul_mat(grid.link(2, 0))
        .mul_vec(&v3)
        .normalize()?;
    let v1 = grid
        .link(0, 0)
        .inverse()?
        .mul_mat(grid.link(2, 0))
        .mul_vec(&v3)
        .normalize()?;
    let v0 = CVec::random_unit(2, rng);
    let schedule = DecodeSchedule::uplink_2m(2);
    Ok(AlignedConfig {
        schedule,
        encoding: vec![v0, v1, v2, v3],
    })
}

/// Three concurrent downlink packets with three 2-antenna APs and three
/// clients (paper §4d, Fig. 6). AP `j` sends packet `j` to client `j`; at
/// every client the two undesired packets must align (Eqs. 5–7, 0-indexed):
///
/// ```text
/// client 0:  Hᵈ(1,0)·v1 = Hᵈ(2,0)·v2
/// client 1:  Hᵈ(0,1)·v0 = Hᵈ(2,1)·v2
/// client 2:  Hᵈ(0,2)·v0 = Hᵈ(1,2)·v1
/// ```
pub fn downlink3(grid: &ChannelGrid) -> Result<AlignedConfig> {
    check_grid(grid, Direction::Downlink, 3, 3)?;
    // Eliminate v0 and v1 in favour of v2.
    let a = grid
        .link(1, 2)
        .mul_mat(&grid.link(1, 0).inverse()?)
        .mul_mat(grid.link(2, 0)); // maps v2 → Hᵈ(1,2)·v1 side
    let b = grid
        .link(0, 2)
        .mul_mat(&grid.link(0, 1).inverse()?)
        .mul_mat(grid.link(2, 1)); // maps v2 → Hᵈ(0,2)·v0 side
    let prod = a.inverse()?.mul_mat(&b);
    let pairs = eig2(&prod)?;
    let v2 = if pairs[0].0.abs() >= pairs[1].0.abs() {
        pairs[0].1.clone()
    } else {
        pairs[1].1.clone()
    };
    let v1 = grid
        .link(1, 0)
        .inverse()?
        .mul_mat(grid.link(2, 0))
        .mul_vec(&v2)
        .normalize()?;
    let v0 = grid
        .link(0, 1)
        .inverse()?
        .mul_mat(grid.link(2, 1))
        .mul_vec(&v2)
        .normalize()?;
    Ok(AlignedConfig {
        schedule: DecodeSchedule::downlink_3_packets(),
        encoding: vec![v0, v1, v2.normalize()?],
    })
}

/// The Lemma 5.1 downlink construction for `m ≥ 3` antennas: `m−1` APs and
/// two clients, `2m−2` packets (Fig. 7 shows `m = 3`). AP `i` sends packet
/// `2i` to client 0 and packet `2i+1` to client 1. The undesired set at each
/// client must collapse onto one line:
///
/// ```text
/// client 0:  Hᵈ(i,0)·v_{2i+1} ∥ Hᵈ(0,0)·v_1   ⇒ v_{2i+1} = Hᵈ(i,0)⁻¹·Hᵈ(0,0)·v_1
/// client 1:  Hᵈ(i,1)·v_{2i}   ∥ Hᵈ(0,1)·v_0   ⇒ v_{2i}   = Hᵈ(i,1)⁻¹·Hᵈ(0,1)·v_0
/// ```
///
/// The two chains are independent, so no eigenproblem arises — just pick
/// `v_0`, `v_1` at random and propagate.
pub fn downlink_2m_minus_2(grid: &ChannelGrid, rng: &mut Rng64) -> Result<AlignedConfig> {
    let m = grid.rx_antennas();
    if m < 3 {
        return Err(LinAlgError::Degenerate(
            "the 2m−2 construction needs m >= 3 (use downlink3 for m = 2)",
        ));
    }
    check_grid(grid, Direction::Downlink, m - 1, 2)?;
    let aps = m - 1;
    let n = 2 * aps;
    let mut encoding = vec![CVec::zeros(m); n];
    encoding[0] = CVec::random_unit(m, rng);
    encoding[1] = CVec::random_unit(m, rng);
    for i in 1..aps {
        // Packet 2i (to client 0) must align with packet 0's image at client 1.
        encoding[2 * i] = grid
            .link(i, 1)
            .inverse()?
            .mul_mat(grid.link(0, 1))
            .mul_vec(&encoding[0])
            .normalize()?;
        // Packet 2i+1 (to client 1) aligns with packet 1's image at client 0.
        encoding[2 * i + 1] = grid
            .link(i, 0)
            .inverse()?
            .mul_mat(grid.link(0, 0))
            .mul_vec(&encoding[1])
            .normalize()?;
    }
    Ok(AlignedConfig {
        schedule: DecodeSchedule::downlink_2m_minus_2(m),
        encoding,
    })
}

/// Relative misalignment of an encoding against a schedule: for every
/// interference set that must fit in an `s`-dimensional subspace, the ratio
/// `σ_{s+1}/σ_1` of the stacked interference images (0 = perfectly aligned).
/// Returns the worst ratio across all steps.
pub fn alignment_residual(grid: &ChannelGrid, schedule: &DecodeSchedule, encoding: &[CVec]) -> f64 {
    let mut worst: f64 = 0.0;
    for (receiver, interf, dim) in schedule.interference_sets() {
        if interf.len() <= dim {
            continue; // nothing to align
        }
        let images: Vec<CVec> = interf
            .iter()
            .map(|&p| {
                grid.link(schedule.owners[p], receiver)
                    .mul_vec(&encoding[p])
            })
            .collect();
        let mat = CMat::from_cols(&images);
        let svd = iac_linalg::Svd::compute(&mat);
        let s1 = svd.singular_values[0];
        let s_next = svd.singular_values.get(dim).copied().unwrap_or(0.0);
        if s1 > 0.0 {
            worst = worst.max(s_next / s1);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uplink_grid(clients: usize, aps: usize, m: usize, seed: u64) -> (ChannelGrid, Rng64) {
        let mut rng = Rng64::new(seed);
        let g = ChannelGrid::random(Direction::Uplink, clients, aps, m, m, &mut rng);
        (g, rng)
    }

    fn downlink_grid(aps: usize, clients: usize, m: usize, seed: u64) -> (ChannelGrid, Rng64) {
        let mut rng = Rng64::new(seed);
        let g = ChannelGrid::random(Direction::Downlink, aps, clients, m, m, &mut rng);
        (g, rng)
    }

    #[test]
    fn uplink3_aligns_at_ap0() {
        for seed in 0..20 {
            let (g, mut rng) = uplink_grid(2, 2, 2, seed);
            let cfg = uplink3(&g, &mut rng).unwrap();
            // Packets 1 and 2 must be parallel at AP0 (Eq. 2)...
            let img1 = g.link(0, 0).mul_vec(&cfg.encoding[1]);
            let img2 = g.link(1, 0).mul_vec(&cfg.encoding[2]);
            assert!(img1.alignment_with(&img2) > 1.0 - 1e-9, "seed {seed}");
            // ...but NOT at AP1 (independent channels), which is what lets
            // AP1 decode them after cancellation.
            let j1 = g.link(0, 1).mul_vec(&cfg.encoding[1]);
            let j2 = g.link(1, 1).mul_vec(&cfg.encoding[2]);
            assert!(j1.alignment_with(&j2) < 0.9999, "seed {seed}");
            assert!(alignment_residual(&g, &cfg.schedule, &cfg.encoding) < 1e-9);
        }
    }

    #[test]
    fn uplink3_unit_norm_encoding() {
        let (g, mut rng) = uplink_grid(2, 2, 2, 7);
        let cfg = uplink3(&g, &mut rng).unwrap();
        for v in &cfg.encoding {
            assert!((v.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn uplink4_satisfies_eqs_3_and_4() {
        for seed in 0..20 {
            let (g, mut rng) = uplink_grid(3, 3, 2, 100 + seed);
            let cfg = uplink4(&g, &mut rng).unwrap();
            let v = &cfg.encoding;
            // Eq. 3: three-way alignment at AP0.
            let a = g.link(0, 0).mul_vec(&v[1]);
            let b = g.link(1, 0).mul_vec(&v[2]);
            let c = g.link(2, 0).mul_vec(&v[3]);
            assert!(a.alignment_with(&b) > 1.0 - 1e-8, "seed {seed} eq3 ab");
            assert!(b.alignment_with(&c) > 1.0 - 1e-8, "seed {seed} eq3 bc");
            // Eq. 4: pairwise alignment at AP1.
            let d = g.link(1, 1).mul_vec(&v[2]);
            let e = g.link(2, 1).mul_vec(&v[3]);
            assert!(d.alignment_with(&e) > 1.0 - 1e-8, "seed {seed} eq4");
            // Schedule-level residual check.
            assert!(alignment_residual(&g, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn uplink4_not_aligned_where_not_required() {
        let (g, mut rng) = uplink_grid(3, 3, 2, 500);
        let cfg = uplink4(&g, &mut rng).unwrap();
        let v = &cfg.encoding;
        // At AP2 nothing is required to align; packets 2 and 3 should be
        // decodable there, i.e. NOT parallel.
        let a = g.link(1, 2).mul_vec(&v[2]);
        let b = g.link(2, 2).mul_vec(&v[3]);
        assert!(a.alignment_with(&b) < 0.9999);
    }

    #[test]
    fn downlink3_aligns_undesired_at_every_client() {
        for seed in 0..20 {
            let (g, _) = downlink_grid(3, 3, 2, 200 + seed);
            let cfg = downlink3(&g).unwrap();
            let v = &cfg.encoding;
            for client in 0..3 {
                let undesired: Vec<usize> = (0..3).filter(|&p| p != client).collect();
                let a = g.link(undesired[0], client).mul_vec(&v[undesired[0]]);
                let b = g.link(undesired[1], client).mul_vec(&v[undesired[1]]);
                assert!(
                    a.alignment_with(&b) > 1.0 - 1e-8,
                    "seed {seed} client {client}: {}",
                    a.alignment_with(&b)
                );
                // The desired packet must stay out of the interference line.
                let want = g.link(client, client).mul_vec(&v[client]);
                assert!(want.alignment_with(&a) < 0.9999, "seed {seed} desired");
            }
            assert!(alignment_residual(&g, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn downlink_2m_minus_2_aligns_for_m_3_to_5() {
        for m in 3..=5 {
            for seed in 0..5 {
                let (g, mut rng) = downlink_grid(m - 1, 2, m, 300 + seed);
                let cfg = downlink_2m_minus_2(&g, &mut rng).unwrap();
                assert_eq!(cfg.encoding.len(), 2 * m - 2);
                let resid = alignment_residual(&g, &cfg.schedule, &cfg.encoding);
                assert!(resid < 1e-8, "m={m} seed={seed}: residual {resid}");
            }
        }
    }

    #[test]
    fn downlink_2m_minus_2_rejects_m2() {
        let (g, mut rng) = downlink_grid(1, 2, 2, 1);
        assert!(downlink_2m_minus_2(&g, &mut rng).is_err());
    }

    #[test]
    fn wrong_grid_shapes_rejected() {
        let (g, mut rng) = uplink_grid(2, 2, 2, 1);
        assert!(uplink4(&g, &mut rng).is_err());
        let (g2, _) = downlink_grid(3, 3, 2, 1);
        assert!(uplink3(&g2, &mut rng).is_err());
    }

    #[test]
    fn residual_detects_misalignment() {
        // Random (unaligned) encoding must produce a large residual.
        let (g, mut rng) = uplink_grid(3, 3, 2, 900);
        let schedule = DecodeSchedule::uplink_2m(2);
        let random_encoding: Vec<CVec> = (0..4).map(|_| CVec::random_unit(2, &mut rng)).collect();
        let r = alignment_residual(&g, &schedule, &random_encoding);
        assert!(r > 0.05, "random encoding suspiciously aligned: {r}");
    }
}
