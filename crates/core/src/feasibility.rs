//! Closed-form capacity bounds of §5 (Lemmas 5.1 and 5.2).
//!
//! The bounds come from counting degrees of freedom: every encoding vector in
//! `C^M` carries `M−1` projective degrees of freedom, and every alignment
//! requirement consumes some. "For a feasible solution, the constraints
//! should stay fewer than the free variables in an encoding vector" (§5).

/// Lemma 5.2: maximum concurrent uplink packets for `m` antennas per node —
/// `2m`, achievable with three or more APs and at least two clients.
pub fn max_uplink_packets(m: usize) -> usize {
    assert!(m >= 1, "antenna count must be positive");
    2 * m
}

/// Lemma 5.1: maximum concurrent downlink packets for `m` antennas per node —
/// `max(2m−2, ⌊3m/2⌋)`.
pub fn max_downlink_packets(m: usize) -> usize {
    assert!(m >= 1, "antenna count must be positive");
    let a = (2 * m).saturating_sub(2);
    let b = (3 * m) / 2;
    a.max(b)
}

/// Degrees-of-freedom accounting for a set of alignment requirements.
///
/// `interference_sets` lists, per receiver, `(packets_that_interfere,
/// allowed_subspace_dim)`. Forcing `k` vectors into an `s`-dimensional
/// subspace of `C^m` costs `(k−s)·(m−s)` scalar constraints when `k > s`
/// (the first `s` vectors *define* the subspace for free). The total must
/// not exceed the `(m−1)` projective freedoms of each encoding vector.
pub(crate) fn dof_feasible(
    m: usize,
    n_packets: usize,
    interference_sets: &[(usize, usize)],
) -> bool {
    let freedoms = n_packets * (m - 1);
    let mut constraints = 0usize;
    for &(k, s) in interference_sets {
        if s >= m {
            // Interference allowed to fill the whole space: no constraint,
            // but then nothing can be decoded at this receiver either.
            continue;
        }
        if k > 0 && s == 0 {
            // A nonzero vector through an invertible channel cannot land in
            // a 0-dimensional subspace: flatly infeasible, not a matter of
            // counting (this is the §4c "two clients, two APs, four packets"
            // impossibility).
            return false;
        }
        if k > s {
            constraints += (k - s) * (m - s);
        }
    }
    constraints <= freedoms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_bound_table() {
        // The paper's headline: 2M on the uplink.
        assert_eq!(max_uplink_packets(2), 4);
        assert_eq!(max_uplink_packets(3), 6);
        assert_eq!(max_uplink_packets(4), 8);
    }

    #[test]
    fn downlink_bound_table() {
        // max(2M−2, ⌊3M/2⌋): 3, 4, 6, 8 for M = 2..5.
        assert_eq!(max_downlink_packets(2), 3);
        assert_eq!(max_downlink_packets(3), 4);
        assert_eq!(max_downlink_packets(4), 6);
        assert_eq!(max_downlink_packets(5), 8);
    }

    #[test]
    fn downlink_bound_beats_point_to_point() {
        // For every M ≥ 2 IAC's downlink beats the M-packet limit of
        // point-to-point MIMO.
        for m in 2..=8 {
            assert!(max_downlink_packets(m) > m, "M = {m}");
        }
    }

    #[test]
    fn uplink_is_exactly_double() {
        for m in 1..=8 {
            assert_eq!(max_uplink_packets(m), 2 * m);
        }
    }

    #[test]
    fn dof_uplink_constructions_feasible() {
        // Lemma 5.2 schedule: AP1 aligns 2M−1 packets into M−1 dims, AP2
        // aligns M packets into 1 dim, AP3 unconstrained.
        for m in 2..=6 {
            let sets = [(2 * m - 1, m - 1), (m, 1)];
            assert!(dof_feasible(m, 2 * m, &sets), "M = {m} should be feasible");
        }
    }

    #[test]
    fn dof_downlink_constructions_feasible() {
        // M = 2, 3 packets, each client aligns 2 packets into 1 dim.
        assert!(dof_feasible(2, 3, &[(2, 1), (2, 1), (2, 1)]));
        // M ≥ 3: 2M−2 packets, each of 2 clients aligns M−1 into 1 dim.
        for m in 3..=6 {
            let sets = [(m - 1, 1), (m - 1, 1)];
            assert!(dof_feasible(m, 2 * m - 2, &sets), "M = {m}");
        }
    }

    #[test]
    fn dof_rejects_overconstrained() {
        // Naively trying to deliver 4 packets with 2 clients and 2 APs at
        // M = 2 (the §4c remark: "the system is already too constrained"):
        // AP1 would decode 2 of 4 packets, leaving 2 interferers that must
        // vanish into a 0-dimensional subspace — impossible.
        let sets = [(2, 0)];
        assert!(!dof_feasible(2, 4, &sets));
    }

    #[test]
    fn dof_more_aps_stop_helping() {
        // §5: "using more APs is beneficial but only up to a point". Asking
        // 5 receivers to each see 2M of 2M+1 packets aligned at M = 2 is
        // infeasible.
        let m = 2;
        let n = 2 * m + 1;
        let sets = vec![(n - 1, m - 1); 5];
        assert!(!dof_feasible(m, n, &sets));
    }
}
