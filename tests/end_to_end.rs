//! Cross-crate integration tests: each test exercises a pipeline spanning
//! several workspace crates, the way a deployment would.

use iac_lan::prelude::*;
use iac_lan::{phy, sim};

/// channel → core → rate: the full matrix-level uplink chain with estimation
/// error, against the baseline, on testbed-calibrated channels.
#[test]
fn matrix_level_uplink_chain_beats_baseline() {
    let mut rng = Rng64::new(1);
    let testbed = Testbed::paper_default(&mut rng);
    let est_cfg = EstimationConfig::paper_default();
    let mut base_acc = 0.0;
    let mut iac_acc = 0.0;
    for _ in 0..40 {
        let (aps, clients) = testbed.pick_roles(2, 2, &mut rng);
        let grid = testbed.uplink_grid(&clients, &aps, &mut rng);
        let est = grid.estimated(&est_cfg, &mut rng);
        // Baseline: best-AP eigenmode per client, half the airtime each.
        for c in 0..2 {
            let lt: Vec<CMat> = (0..2).map(|a| grid.link(c, a).clone()).collect();
            let le: Vec<CMat> = (0..2).map(|a| est.link(c, a).clone()).collect();
            base_acc += iac_lan::core::baseline::best_ap_rate(&lt, &le, 1.0, 1.0)
                .unwrap()
                .1
                / 2.0;
        }
        // IAC: three concurrent packets.
        let config = optimize::uplink3_optimized(&est, 1.0, 1.0, 8, &mut rng).unwrap();
        let powers = equal_split_powers(&config.schedule, 1.0);
        iac_acc += IacDecoder {
            true_grid: &grid,
            est_grid: &est,
            schedule: &config.schedule,
            encoding: &config.encoding,
            packet_power: powers,
            noise_power: 1.0,
        }
        .decode()
        .unwrap()
        .rate_bits_per_hz();
    }
    let gain = iac_acc / base_acc;
    assert!(gain > 1.15, "end-to-end gain {gain} too small");
}

/// phy → core: sample-level signals agree with the matrix-level SINR model.
#[test]
fn sample_level_and_matrix_level_agree() {
    let report = sim::samplelevel::run_uplink3(&sim::samplelevel::SampleLevelConfig {
        payload_bytes: 400,
        noise_power: 0.02,
        ..sim::samplelevel::SampleLevelConfig::default_test()
    });
    // All packets decode and the measured SNRs are in a plausible band for
    // 0.02 noise power and unit channels.
    assert!(report.crc_ok.iter().all(|&ok| ok));
    for &snr in &report.measured_snr {
        assert!(snr > 1.0 && snr < 1e6, "implausible measured SNR {snr}");
    }
}

/// mac + des + core: the event-driven PCF MAC driven by the real
/// matrix-level PHY.
#[test]
fn pcf_protocol_over_real_phy() {
    use iac_lan::des::{NetEvent, SharedMetrics, WiredSink};
    use iac_lan::mac::pcf::{PacketResult, PhyOutcome};

    /// A PHY backed by actual IAC decoding over testbed channels.
    struct RealPhy {
        testbed: Testbed,
        clients: Vec<usize>,
        aps: Vec<usize>,
        est: EstimationConfig,
    }

    impl PhyOutcome for RealPhy {
        fn downlink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
            if clients.len() < 3 {
                // Degenerate group: serve the head alone via plain MIMO.
                return clients
                    .iter()
                    .map(|&c| PacketResult {
                        client: c,
                        seq: 0,
                        sinr: 10.0,
                        ok: true,
                        ap: 0,
                    })
                    .collect();
            }
            let nodes: Vec<usize> = clients.iter().map(|&c| self.clients[c as usize]).collect();
            let grid = self.testbed.downlink_grid(&self.aps, &nodes, rng);
            let est = grid.estimated(&self.est, rng);
            let Ok(config) = optimize::downlink3_optimized(&est, 1.0, 1.0) else {
                return vec![];
            };
            let powers = equal_split_powers(&config.schedule, 1.0);
            let Ok(out) = (IacDecoder {
                true_grid: &grid,
                est_grid: &est,
                schedule: &config.schedule,
                encoding: &config.encoding,
                packet_power: powers,
                noise_power: 1.0,
            })
            .decode() else {
                return vec![];
            };
            out.sinrs
                .iter()
                .map(|p| PacketResult {
                    client: clients[p.packet],
                    seq: 0,
                    sinr: p.sinr,
                    ok: p.sinr > 0.5, // SINR threshold as CRC proxy
                    ap: p.receiver as u16,
                })
                .collect()
        }

        fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
            self.downlink_group(clients, rng)
        }
    }

    let mut rng = Rng64::new(3);
    let testbed = Testbed::paper_default(&mut rng);
    let (aps, clients) = testbed.pick_roles(3, 9, &mut rng);
    let phy = RealPhy {
        testbed,
        clients,
        aps,
        est: EstimationConfig::paper_default(),
    };
    // 27 packets each way at t = 0. The first CFP serves them all (9 groups
    // per direction, ~14 ms); the horizon leaves room for retransmissions
    // and the acking beacons, and every idle CFP after that still costs
    // control bytes.
    let cfg = EventPcfConfig {
        horizon: SimTime::from_millis(20.0),
        ..EventPcfConfig::default()
    };
    let mut sim = Simulation::new(3);
    let metrics = SharedMetrics::new();
    let sinks = (0..cfg.protocol.n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let mac = sim.add_component("leader", EventPcf::new(cfg, phy, sinks, metrics.clone()));
    for client in 0..9u16 {
        for seq in 0..3u16 {
            for (seq, uplink) in [(seq, false), (100 + seq, true)] {
                sim.schedule(
                    SimTime::ZERO,
                    mac,
                    NetEvent::Arrival {
                        client,
                        seq,
                        uplink,
                    },
                );
            }
        }
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    sim.step_until_no_events();
    let log = metrics.snapshot();
    // Most packets must make it through; the wire carried each decoded
    // uplink packet once; control overhead stays in budget.
    assert!(
        log.delivered.len() > 40,
        "only {} + {} delivered",
        log.delivered_count(false),
        log.delivered_count(true)
    );
    assert!(log.wire_packets >= log.delivered_count(true));
    let overhead = log.control_bytes as f64 / log.data_bytes as f64;
    assert!(overhead < 0.05, "control overhead {overhead}");
}

/// channel → core: reciprocity-calibrated downlink estimates are good enough
/// to drive the downlink alignment (the §8b design decision).
#[test]
fn reciprocity_estimates_support_alignment() {
    use iac_lan::channel::reciprocity::{
        measured_downlink, measured_uplink, random_chain, Calibration,
    };

    let mut rng = Rng64::new(4);
    let est_cfg = EstimationConfig::paper_default();
    // Three APs, three clients, hardware chains per node.
    let ap_tx: Vec<CMat> = (0..3).map(|_| random_chain(2, 1.0, &mut rng)).collect();
    let ap_rx: Vec<CMat> = (0..3).map(|_| random_chain(2, 1.0, &mut rng)).collect();
    let cl_tx: Vec<CMat> = (0..3).map(|_| random_chain(2, 1.0, &mut rng)).collect();
    let cl_rx: Vec<CMat> = (0..3).map(|_| random_chain(2, 1.0, &mut rng)).collect();

    // Calibrate each AP-client pair once.
    let mut cals: Vec<Vec<Calibration>> = Vec::new();
    for a in 0..3 {
        let mut row = Vec::new();
        for c in 0..3 {
            let air = CMat::random(2, 2, &mut rng);
            let up = measured_uplink(&air, &ap_rx[a], &cl_tx[c]);
            let down = measured_downlink(&air, &cl_rx[c], &ap_tx[a]);
            row.push(Calibration::from_measurement(&up, &down).unwrap());
        }
        cals.push(row);
    }

    // New air channels (clients moved); APs see only uplink estimates.
    let mut true_down: Vec<Vec<CMat>> = vec![vec![CMat::zeros(2, 2); 3]; 3];
    let mut inferred_down: Vec<Vec<CMat>> = vec![vec![CMat::zeros(2, 2); 3]; 3];
    for a in 0..3 {
        for c in 0..3 {
            let air = CMat::random(2, 2, &mut rng);
            let up = measured_uplink(&air, &ap_rx[a], &cl_tx[c]);
            let up_est = iac_lan::channel::estimation::estimate_with_error(&up, &est_cfg, &mut rng);
            true_down[a][c] = measured_downlink(&air, &cl_rx[c], &ap_tx[a]);
            inferred_down[a][c] = cals[a][c].downlink_from_uplink(&up_est);
        }
    }
    let true_grid = ChannelGrid::new(Direction::Downlink, true_down);
    let inferred_grid = ChannelGrid::new(Direction::Downlink, inferred_down);

    // Align on the inferred grid, decode on the true one.
    let config = optimize::downlink3_optimized(&inferred_grid, 1.0, 0.01).unwrap();
    let powers = equal_split_powers(&config.schedule, 1.0);
    let out = IacDecoder {
        true_grid: &true_grid,
        est_grid: &inferred_grid,
        schedule: &config.schedule,
        encoding: &config.encoding,
        packet_power: powers,
        noise_power: 0.01,
    }
    .decode()
    .unwrap();
    assert!(
        out.min_sinr() > 1.0,
        "reciprocity-driven alignment failed: min SINR {}",
        out.min_sinr()
    );
}

/// linalg → core → phy: encoding vectors quantised through the MAC's wire
/// format still align (f32 quantisation ≪ estimation error).
#[test]
fn wire_quantised_vectors_still_align() {
    use iac_lan::mac::frames::VectorQ;

    let mut rng = Rng64::new(5);
    let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
    let config = closed_form::uplink3(&grid, &mut rng).unwrap();
    let quantised: Vec<CVec> = config
        .encoding
        .iter()
        .map(|v| {
            let q = VectorQ::from_cvec(v);
            CVec::new(
                q.parts
                    .iter()
                    .map(|&(re, im)| C64::new(re as f64, im as f64))
                    .collect(),
            )
        })
        .collect();
    let residual = closed_form::alignment_residual(&grid, &config.schedule, &quantised);
    assert!(residual < 1e-6, "quantisation broke alignment: {residual}");
}

/// The feasibility bounds match what the solver can actually achieve.
#[test]
fn feasibility_bounds_are_tight() {
    use iac_lan::core::feasibility::{max_downlink_packets, max_uplink_packets};
    use iac_lan::core::schedule::DecodeSchedule as DS;

    for m in 2..=4 {
        let schedule = DS::uplink_2m(m);
        assert_eq!(schedule.n_packets(), max_uplink_packets(m));
        assert!(schedule.dof_feasible());
        let down = if m == 2 {
            DS::downlink_3_packets()
        } else {
            DS::downlink_2m_minus_2(m)
        };
        assert_eq!(down.n_packets(), max_downlink_packets(m));
        assert!(down.dof_feasible());
    }
}

/// OFDM per-subcarrier alignment composes with the frame/modulation stack.
#[test]
fn ofdm_alignment_pipeline() {
    use iac_lan::phy::ofdm::MultitapChannel;

    let mut rng = Rng64::new(6);
    let h1 = MultitapChannel::random(2, 2, 3, 0.5, &mut rng);
    let h2 = MultitapChannel::random(2, 2, 3, 0.5, &mut rng);
    let bins1 = h1.per_subcarrier(64);
    let bins2 = h2.per_subcarrier(64);
    let v1 = CVec::random_unit(2, &mut rng);
    // Per-bin Eq. 2: every subcarrier aligns independently.
    for bin in (0..64).step_by(7) {
        let v2 = bins2[bin]
            .inverse()
            .unwrap()
            .mul_mat(&bins1[bin])
            .mul_vec(&v1)
            .normalize()
            .unwrap();
        let a = bins1[bin].mul_vec(&v1);
        let b = bins2[bin].mul_vec(&v2);
        assert!(a.alignment_with(&b) > 1.0 - 1e-9, "bin {bin}");
    }
    let _ = phy::frame::crc32(b"pipeline sanity");
}
