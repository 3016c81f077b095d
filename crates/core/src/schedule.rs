//! Decode schedules: which AP decodes which packets, in what order, and what
//! has been cancelled before it starts.
//!
//! A schedule is the combinatorial skeleton of an IAC solution. The uplink
//! chain of Lemma 5.2, for instance, is: AP1 decodes 1 packet (everything
//! else aligned into an (M−1)-dim subspace), AP2 cancels that packet and
//! decodes M−1 more (the final M packets aligned onto a line), AP3 cancels
//! everything decoded so far and zero-forces the last M packets.

use crate::feasibility;

/// One step of the chain: an AP decodes `decode` after cancelling `cancel`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeStep {
    /// Receiver (AP on the uplink, client on the downlink) index.
    pub receiver: usize,
    /// Packets decoded at this step.
    pub decode: Vec<usize>,
    /// Packets cancelled before decoding (must have been decoded earlier and
    /// shipped over the Ethernet — empty on the downlink, where clients
    /// cannot cooperate, §4d).
    pub cancel: Vec<usize>,
}

/// A full decode schedule for `n_packets` packets owned by `owners[p]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeSchedule {
    /// Antennas per node.
    pub antennas: usize,
    /// Transmitting node of each packet (client index on uplink, AP index on
    /// downlink).
    pub owners: Vec<usize>,
    /// Ordered decode steps.
    pub steps: Vec<DecodeStep>,
}

impl DecodeSchedule {
    /// Number of packets.
    pub fn n_packets(&self) -> usize {
        self.owners.len()
    }

    /// The interference set at each step: packets that are neither cancelled
    /// nor decoded there, together with the subspace dimension they must fit
    /// in (`antennas − decoded_here`).
    pub fn interference_sets(&self) -> Vec<(usize, Vec<usize>, usize)> {
        self.steps
            .iter()
            .map(|s| {
                let interf: Vec<usize> = (0..self.n_packets())
                    .filter(|p| !s.cancel.contains(p) && !s.decode.contains(p))
                    .collect();
                let dim = self.antennas - s.decode.len();
                (s.receiver, interf, dim)
            })
            .collect()
    }

    /// Structural validation:
    /// * every packet decoded exactly once,
    /// * each step cancels exactly the packets decoded at earlier steps,
    /// * no step decodes more packets than antennas,
    /// * no alignment requirement forces two same-owner packets parallel
    ///   (impossible: same channel ⇒ parallel everywhere, breaking later
    ///   decoding — the reason the 4-packet M=2 uplink needs 3 clients).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_packets();
        let mut decoded_at = vec![None::<usize>; n];
        // Downlink-style schedules have independent receivers and no wire:
        // every cancel list is empty and the chain check does not apply.
        let downlink_style = self.is_downlink_style();
        for (si, step) in self.steps.iter().enumerate() {
            if step.decode.is_empty() {
                return Err(format!("step {si} decodes nothing"));
            }
            if step.decode.len() > self.antennas {
                return Err(format!(
                    "step {si} decodes {} packets with {} antennas",
                    step.decode.len(),
                    self.antennas
                ));
            }
            for &p in &step.decode {
                if p >= n {
                    return Err(format!("step {si} decodes unknown packet {p}"));
                }
                if let Some(prev) = decoded_at[p] {
                    return Err(format!("packet {p} decoded at steps {prev} and {si}"));
                }
                decoded_at[p] = Some(si);
            }
            if downlink_style {
                continue;
            }
            // Chain style: cancels must be exactly the previously decoded set.
            let mut expected: Vec<usize> = self
                .steps
                .iter()
                .take(si)
                .flat_map(|s| s.decode.iter().copied())
                .collect();
            expected.sort_unstable();
            let mut got = step.cancel.clone();
            got.sort_unstable();
            if expected != got {
                return Err(format!(
                    "step {si} cancels {got:?} but earlier steps decoded {expected:?}"
                ));
            }
        }
        if let Some(p) = decoded_at.iter().position(|d| d.is_none()) {
            return Err(format!("packet {p} never decoded"));
        }
        // Same-owner parallel-alignment check: if an interference set must
        // fit in a 1-dim subspace and contains two packets of one owner,
        // those packets would be parallel at every receiver.
        for (recv, interf, dim) in self.interference_sets() {
            if dim == 1 && interf.len() > 1 {
                for (i, &a) in interf.iter().enumerate() {
                    for &b in interf.iter().skip(i + 1) {
                        if self.owners[a] == self.owners[b] {
                            return Err(format!(
                                "receiver {recv} needs packets {a} and {b} of the same \
                                 transmitter aligned on a line — they would then be \
                                 parallel everywhere"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Degrees-of-freedom feasibility of the alignment this schedule implies.
    ///
    /// No production caller: public for `crates/core/tests/properties.rs`.
    pub fn dof_feasible(&self) -> bool {
        let sets: Vec<(usize, usize)> = self
            .interference_sets()
            .iter()
            .map(|(_, interf, dim)| (interf.len(), *dim))
            .collect();
        feasibility::dof_feasible(self.antennas, self.n_packets(), &sets)
    }

    /// The Lemma 5.2 uplink schedule for `m ≥ 2` antennas: `2m` packets,
    /// three APs. Clients: for `m = 2`, three clients owning (2,1,1) packets
    /// (the paper's Fig. 5 arrangement); for `m ≥ 3`, `m` clients owning two
    /// packets each (the Fig. 8 arrangement generalised).
    pub fn uplink_2m(m: usize) -> Self {
        assert!(m >= 2, "MIMO uplink schedule needs m >= 2");
        let n = 2 * m;
        let (owners, first_of_client): (Vec<usize>, Vec<usize>) = if m == 2 {
            // Packets p0,p1 from client 0; p2 from client 1; p3 from client 2.
            (vec![0, 0, 1, 2], vec![0, 2, 3])
        } else {
            // Packet 2k and 2k+1 from client k.
            let owners = (0..n).map(|p| p / 2).collect();
            let firsts = (0..m).map(|c| 2 * c).collect();
            (owners, firsts)
        };
        let _ = &first_of_client;
        // AP0 decodes packet 0. AP1 decodes m−1 packets, one per distinct
        // other client where possible. AP2 decodes the remaining m.
        let p0 = 0usize;
        let (ap1_set, ap2_set): (Vec<usize>, Vec<usize>) = if m == 2 {
            // AP1 decodes p1 (client 0's second packet is NOT eligible for
            // the aligned line at AP1... choose paper arrangement: AP1
            // decodes p1? Fig. 5 has AP2 decode one packet and AP3 decode
            // two. Packets aligned at AP1: {p1,p2,p3}; AP2 aligns {p2,p3}
            // after cancelling p0 and decodes p1; AP3 decodes p2,p3.
            (vec![1], vec![2, 3])
        } else {
            // AP1 decodes the first packet of clients 1..m−1 → m−1 packets.
            // Remaining: client 0's second packet, client m−1's... compute.
            let ap1: Vec<usize> = (1..m).map(|c| 2 * c).collect();
            let ap2: Vec<usize> = (0..n).filter(|&p| p != p0 && !ap1.contains(&p)).collect();
            (ap1, ap2)
        };
        let steps = vec![
            DecodeStep {
                receiver: 0,
                decode: vec![p0],
                cancel: vec![],
            },
            DecodeStep {
                receiver: 1,
                decode: ap1_set.clone(),
                cancel: vec![p0],
            },
            DecodeStep {
                receiver: 2,
                decode: ap2_set,
                cancel: {
                    let mut c = vec![p0];
                    c.extend(ap1_set);
                    c
                },
            },
        ];
        Self {
            antennas: m,
            owners,
            steps,
        }
    }

    /// The downlink schedule for `m = 2`: three packets, three APs, three
    /// clients, no cancellation (clients cannot cooperate). Client `j`
    /// decodes packet `j`; the other two packets must align at it.
    pub fn downlink_3_packets() -> Self {
        let steps = (0..3)
            .map(|j| DecodeStep {
                receiver: j,
                decode: vec![j],
                cancel: vec![],
            })
            .collect();
        Self {
            antennas: 2,
            owners: vec![0, 1, 2], // packet j transmitted by AP j
            steps,
        }
    }

    /// The Lemma 5.1 downlink construction for `m ≥ 3`: `m−1` APs, two
    /// clients, `2m−2` packets. AP `i` sends packet `2i` to client 0 and
    /// packet `2i+1` to client 1. Each client needs the other's `m−1`
    /// packets aligned onto a line.
    pub fn downlink_2m_minus_2(m: usize) -> Self {
        assert!(m >= 3, "the 2m−2 downlink construction needs m >= 3");
        let aps = m - 1;
        let n = 2 * aps;
        let owners: Vec<usize> = (0..n).map(|p| p / 2).collect();
        let steps = vec![
            DecodeStep {
                receiver: 0,
                decode: (0..n).filter(|p| p % 2 == 0).collect(),
                cancel: vec![],
            },
            DecodeStep {
                receiver: 1,
                decode: (0..n).filter(|p| p % 2 == 1).collect(),
                cancel: vec![],
            },
        ];
        Self {
            antennas: m,
            owners,
            steps,
        }
    }

    /// Downlink schedules have no cancellation; when modelling them the
    /// steps are independent (every client decodes simultaneously). This
    /// normalises such a schedule's `cancel` lists for validation.
    pub(crate) fn is_downlink_style(&self) -> bool {
        self.steps.iter().all(|s| s.cancel.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_m2_matches_paper_figure5() {
        let s = DecodeSchedule::uplink_2m(2);
        assert_eq!(s.n_packets(), 4);
        assert_eq!(s.owners, vec![0, 0, 1, 2]);
        assert_eq!(s.steps.len(), 3);
        assert_eq!(s.steps[0].decode, vec![0]);
        assert_eq!(s.steps[1].decode, vec![1]);
        assert_eq!(s.steps[2].decode, vec![2, 3]);
        s.validate().expect("schedule must validate");
        assert!(s.dof_feasible());
    }

    #[test]
    fn uplink_m3_matches_paper_figure8_structure() {
        let s = DecodeSchedule::uplink_2m(3);
        assert_eq!(s.n_packets(), 6);
        // 3 clients, 2 packets each.
        assert_eq!(s.owners, vec![0, 0, 1, 1, 2, 2]);
        // AP decode counts: 1, M−1, M.
        assert_eq!(s.steps[0].decode.len(), 1);
        assert_eq!(s.steps[1].decode.len(), 2);
        assert_eq!(s.steps[2].decode.len(), 3);
        s.validate().expect("schedule must validate");
        assert!(s.dof_feasible());
    }

    #[test]
    fn uplink_schedules_validate_for_many_m() {
        for m in 2..=6 {
            let s = DecodeSchedule::uplink_2m(m);
            assert_eq!(s.n_packets(), 2 * m);
            s.validate().unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(s.dof_feasible(), "m={m} dof");
        }
    }

    #[test]
    fn downlink_3_validates() {
        let s = DecodeSchedule::downlink_3_packets();
        s.validate().expect("downlink 3 validates");
        assert!(s.is_downlink_style());
        assert!(s.dof_feasible());
        // Every client sees the other two packets as interference in 1 dim.
        for (_, interf, dim) in s.interference_sets() {
            assert_eq!(interf.len(), 2);
            assert_eq!(dim, 1);
        }
    }

    #[test]
    fn downlink_2m_minus_2_validates() {
        for m in 3..=6 {
            let s = DecodeSchedule::downlink_2m_minus_2(m);
            assert_eq!(s.n_packets(), 2 * m - 2);
            s.validate().unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(s.dof_feasible(), "m={m}");
        }
    }

    #[test]
    fn interference_sets_respect_cancellation() {
        let s = DecodeSchedule::uplink_2m(2);
        let sets = s.interference_sets();
        // AP0: interferers are {1,2,3} in a 1-dim subspace.
        assert_eq!(sets[0].1, vec![1, 2, 3]);
        assert_eq!(sets[0].2, 1);
        // AP1: packet 0 cancelled; interferers {2,3} in 1 dim.
        assert_eq!(sets[1].1, vec![2, 3]);
        // AP2: everything else cancelled; no interference, 0-dim allowance
        // unused (2 antennas, decode 2).
        assert!(sets[2].1.is_empty());
    }

    #[test]
    fn validation_rejects_double_decode() {
        let mut s = DecodeSchedule::uplink_2m(2);
        s.steps[1].decode = vec![0]; // already decoded at step 0
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_wrong_cancel_set() {
        let mut s = DecodeSchedule::uplink_2m(2);
        s.steps[2].cancel = vec![0]; // should be {0,1}
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_same_owner_parallel_alignment() {
        // 2 clients, 4 packets, M=2: AP0's line would hold two packets of
        // client 1 — the §4c infeasibility.
        let s = DecodeSchedule {
            antennas: 2,
            owners: vec![0, 0, 1, 1],
            steps: vec![
                DecodeStep {
                    receiver: 0,
                    decode: vec![0],
                    cancel: vec![],
                },
                DecodeStep {
                    receiver: 1,
                    decode: vec![1],
                    cancel: vec![0],
                },
                DecodeStep {
                    receiver: 2,
                    decode: vec![2, 3],
                    cancel: vec![0, 1],
                },
            ],
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_missing_packet() {
        let s = DecodeSchedule {
            antennas: 2,
            owners: vec![0, 1],
            steps: vec![DecodeStep {
                receiver: 0,
                decode: vec![0],
                cancel: vec![],
            }],
        };
        assert!(s.validate().unwrap_err().contains("never decoded"));
    }
}
