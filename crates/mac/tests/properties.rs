//! Property-based tests for the MAC: frame codecs must round-trip arbitrary
//! contents, the hub must conserve packets, and the grouping policies must
//! respect their structural contracts under arbitrary scorers.

use iac_linalg::{CVec, Rng64};
use iac_mac::concurrency::{BestOfTwo, BruteForce, FifoPolicy, GroupPolicy};
use iac_mac::ethernet::{Hub, WirePacket};
use iac_mac::frames::{
    Beacon, CfEnd, DataPoll, DataReqHeader, Grant, MacFrame, PollEntry, VectorQ,
};
use iac_mac::queue::{QueuedPacket, TrafficQueue};
use proptest::prelude::*;

fn arb_entries(seed: u64, n: usize) -> Vec<PollEntry> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|k| PollEntry {
            client: k as u16,
            encoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
            decoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
        })
        .collect()
}

/// `n` entries whose vectors carry 0–4 quantised parts each.
fn ragged_entries(seed: u64, n: usize) -> Vec<PollEntry> {
    let mut rng = Rng64::new(seed);
    let vector = |rng: &mut Rng64| VectorQ {
        parts: (0..rng.below(5))
            .map(|_| (rng.cn01().re as f32, rng.cn01().im as f32))
            .collect(),
    };
    (0..n)
        .map(|k| PollEntry {
            client: k as u16,
            encoding: vector(&mut rng),
            decoding: vector(&mut rng),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encoded_len_matches_encoding(seed in any::<u64>(), n in 0usize..9, acks in 0usize..301,
                                    id in any::<u16>(), more in any::<bool>()) {
        let ack_map = (0..acks as u16).map(|k| (k, k.wrapping_mul(7))).collect();
        for f in [
            MacFrame::Beacon(Beacon { cfp_id: id, duration_slots: 9, ack_map }),
            MacFrame::DataPoll(DataPoll {
                fid: id,
                n_aps: 3,
                max_len: 1440,
                entries: ragged_entries(seed, n),
            }),
            MacFrame::Grant(Grant { fid: id, n_aps: 2, entries: ragged_entries(!seed, n) }),
            MacFrame::DataReq(DataReqHeader { client: id, seq: 4, more_traffic: more }),
            MacFrame::CfEnd(CfEnd { cfp_id: id }),
        ] {
            prop_assert_eq!(f.encoded_len(), f.encode().len(), "{:?}", f);
        }
    }

    #[test]
    fn beacon_roundtrips(cfp_id in any::<u16>(), dur in any::<u16>(),
                         acks in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..32)) {
        let f = MacFrame::Beacon(Beacon { cfp_id, duration_slots: dur, ack_map: acks });
        prop_assert_eq!(MacFrame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn datapoll_roundtrips(fid in any::<u16>(), n_aps in 1u8..8, max_len in any::<u16>(),
                           seed in any::<u64>(), n in 0usize..6) {
        let f = MacFrame::DataPoll(DataPoll {
            fid,
            n_aps,
            max_len,
            entries: arb_entries(seed, n),
        });
        prop_assert_eq!(MacFrame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn grant_and_datareq_roundtrip(fid in any::<u16>(), seed in any::<u64>(),
                                   client in any::<u16>(), seq in any::<u16>(), more in any::<bool>()) {
        let g = MacFrame::Grant(Grant { fid, n_aps: 3, entries: arb_entries(seed, 3) });
        prop_assert_eq!(MacFrame::decode(g.encode()).unwrap(), g);
        let d = MacFrame::DataReq(DataReqHeader { client, seq, more_traffic: more });
        prop_assert_eq!(MacFrame::decode(d.encode()).unwrap(), d);
    }

    #[test]
    fn any_byte_corruption_detected(seed in any::<u64>(), corrupt_at in any::<usize>(), xor in 1u8..=255) {
        let f = MacFrame::DataPoll(DataPoll {
            fid: 1,
            n_aps: 3,
            max_len: 1440,
            entries: arb_entries(seed, 3),
        });
        let mut bytes = f.encode().to_vec();
        let idx = corrupt_at % bytes.len();
        bytes[idx] ^= xor;
        prop_assert!(MacFrame::decode(bytes::Bytes::from(bytes)).is_err());
    }

    #[test]
    fn hub_conserves_packets(n_aps in 2usize..6, sends in 1usize..40, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut hub = Hub::new(n_aps);
        for k in 0..sends {
            hub.broadcast(WirePacket {
                from_ap: rng.below(n_aps as u64) as u16,
                client: 0,
                seq: k as u16,
                payload_bytes: 100,
                annotations: vec![],
            });
        }
        prop_assert_eq!(hub.packets_broadcast(), sends as u64);
        // Every packet lands in exactly n_aps−1 inboxes.
        let mut delivered = 0usize;
        for ap in 0..n_aps {
            delivered += hub.drain(ap as u16).len();
        }
        prop_assert_eq!(delivered, sends * (n_aps - 1));
    }

    #[test]
    fn queue_never_loses_packets(ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..64)) {
        let mut q = TrafficQueue::new();
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for (client, pop) in ops {
            if pop {
                if q.pop().is_some() {
                    popped += 1;
                }
            } else {
                q.push(QueuedPacket { client: client % 8, seq: 0, bytes: 1 });
                pushed += 1;
            }
        }
        prop_assert_eq!(q.len(), pushed - popped);
    }

    #[test]
    fn policies_structural_contract(seed in any::<u64>(), n_candidates in 0usize..12, slots in 0usize..3) {
        let mut rng = Rng64::new(seed);
        let candidates: Vec<u16> = (1..=n_candidates as u16).collect();
        let head = 0u16;
        for policy in &mut [
            Box::new(FifoPolicy) as Box<dyn GroupPolicy>,
            Box::new(BruteForce),
            Box::new(BestOfTwo::default()),
        ] {
            let mut score = |g: &[u16]| g.len() as f64;
            let picked = policy.select(head, &candidates, slots, &mut score, &mut rng);
            // Contract: at most `slots` picks, all from candidates, no
            // duplicates, never the head.
            prop_assert!(picked.len() <= slots, "{}", policy.name());
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), picked.len(), "{} duplicated", policy.name());
            for c in &picked {
                prop_assert!(candidates.contains(c));
                prop_assert_ne!(*c, head);
            }
        }
    }

    #[test]
    fn quantised_vectors_stay_unit_norm(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let v = CVec::random_unit(2, &mut rng);
        let q = VectorQ::from_cvec(&v).to_cvec();
        prop_assert!((q.norm() - 1.0).abs() < 1e-5);
    }
}
