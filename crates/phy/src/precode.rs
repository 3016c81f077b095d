//! Transmit precoding: applying encoding vectors to packet samples.
//!
//! "Instead of transmitting each packet on a single antenna, we multiply
//! packet `pᵢ` by a vector `vᵢ` (i.e., multiply all digital samples in the
//! packet by the vector) and transmit the two elements of the resulting
//! 2-dimensional vector, one on each antenna" (§4b).

use crate::dsp::shape_streams;
use iac_linalg::{CVec, C64};

/// Multiply every sample by the encoding vector, producing one stream per
/// transmit antenna, scaled so the *total* radiated power of the packet is
/// `power` times the input sample power (encoding vectors are unit norm, so
/// the scale is just `sqrt(power)`).
pub fn precode(samples: &[C64], v: &CVec, power: f64) -> Vec<Vec<C64>> {
    let mut out = Vec::new();
    precode_into(samples, v, power, &mut out);
    out
}

/// [`precode`] into a caller-owned stream set: `out` is reshaped to
/// `v.len()` streams of `samples.len()` entries, reusing existing buffer
/// capacity. Zero allocations once warm.
pub fn precode_into(samples: &[C64], v: &CVec, power: f64, out: &mut Vec<Vec<C64>>) {
    assert!(power >= 0.0, "power must be non-negative");
    let amp = power.sqrt();
    shape_streams(out, v.len());
    for (antenna, stream) in out.iter_mut().enumerate() {
        let w = v[antenna] * amp;
        stream.clear();
        stream.extend(samples.iter().map(|&s| s * w));
    }
}

/// Sum several per-antenna stream sets element-wise (a node transmitting
/// multiple precoded packets at once adds their antenna streams — e.g.
/// client 1 in Fig. 4b sends `p1·v1 + p2·v2`).
pub fn sum_streams(sets: &[Vec<Vec<C64>>]) -> Vec<Vec<C64>> {
    let mut out = Vec::new();
    sum_streams_into(sets, &mut out);
    out
}

/// [`sum_streams`] into a caller-owned stream set (reshaped and overwritten,
/// reusing capacity).
pub fn sum_streams_into(sets: &[Vec<Vec<C64>>], out: &mut Vec<Vec<C64>>) {
    assert!(!sets.is_empty(), "no stream sets to sum");
    let antennas = sets[0].len();
    let len = sets[0][0].len();
    for s in sets {
        assert_eq!(s.len(), antennas, "antenna count mismatch");
        assert!(s.iter().all(|st| st.len() == len), "stream length mismatch");
    }
    shape_streams(out, antennas);
    for (a, stream) in out.iter_mut().enumerate() {
        stream.clear();
        stream.extend((0..len).map(|t| sets.iter().map(|s| s[a][t]).sum::<C64>()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    #[test]
    fn precode_shapes_and_values() {
        let samples = vec![C64::one(), C64::real(-1.0)];
        let v = CVec::new(vec![C64::real(0.6), C64::new(0.0, 0.8)]);
        let streams = precode(&samples, &v, 1.0);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].len(), 2);
        assert!((streams[0][0] - C64::real(0.6)).abs() < 1e-12);
        assert!((streams[1][1] - C64::new(0.0, -0.8)).abs() < 1e-12);
    }

    #[test]
    fn total_power_matches_request() {
        let mut rng = Rng64::new(1);
        let samples: Vec<_> = (0..1000).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        for &power in &[0.5, 1.0, 2.0] {
            let streams = precode(&samples, &v, power);
            let radiated: f64 = streams
                .iter()
                .flat_map(|s| s.iter().map(|z| z.norm_sqr()))
                .sum::<f64>()
                / samples.len() as f64;
            let input: f64 =
                samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
            assert!(
                (radiated - power * input).abs() < 1e-9 * power.max(1.0),
                "power {power}: radiated {radiated}"
            );
        }
    }

    #[test]
    fn unit_basis_vector_is_single_antenna() {
        // Precoding with e₀ reproduces "transmit on the first antenna".
        let samples = vec![C64::real(2.0)];
        let streams = precode(&samples, &CVec::basis(2, 0), 1.0);
        assert_eq!(streams[0][0], C64::real(2.0));
        assert_eq!(streams[1][0], C64::zero());
    }

    #[test]
    fn sum_streams_superposes() {
        let a = vec![vec![C64::one()], vec![C64::zero()]];
        let b = vec![vec![C64::one()], vec![C64::real(3.0)]];
        let s = sum_streams(&[a, b]);
        assert_eq!(s[0][0], C64::real(2.0));
        assert_eq!(s[1][0], C64::real(3.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_sum_rejected() {
        let a = vec![vec![C64::one(); 2]];
        let b = vec![vec![C64::one(); 3]];
        let _ = sum_streams(&[a, b]);
    }
}
