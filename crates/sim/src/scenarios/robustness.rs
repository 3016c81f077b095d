//! Robustness family — IAC under deterministic fault injection.
//!
//! The paper's evaluation runs on a healthy testbed; these scenarios ask
//! what §7's distributed MAC does when the deployment misbehaves, using the
//! `iac-des` fault layer (`iac_des::fault`) so every fault is an ordinary
//! recorded event and a faulty run replays bit-exactly:
//!
//! * `rob_ap_churn` — decoding APs crash and recover on a
//!   seeded exponential process. The leader observes unanswered polls,
//!   voids those results, and shrinks transmission groups to the live-AP
//!   count.
//! * `rob_backhaul_partition` — the inter-AP Ethernet
//!   partitions and heals. Decoded-packet forwards expire (bounded
//!   retry/deadline at the hub), IAC grouping dissolves to the
//!   standalone-MIMO fallback, and service recovers after the heal.
//! * `rob_csi_aging` — the CSI feedback loop ages: a
//!   staleness ramp plus a per-slot SINR penalty on *aligned* groups and an
//!   impaired calibration pool (`iac_channel::CsiImpairment`). IAC's
//!   throughput degrades **toward, never below,** the 802.11-MIMO baseline
//!   — past the trust threshold the MAC itself falls back to exactly that
//!   baseline shape (the graceful-degradation contract, pinned by
//!   `CsiAgingReport::min_ratio` assertions).

use crate::desrec::{self, DesRun};
use crate::metrics;
use crate::netsim::{self, CalibratedPhy, NetSim, NetSimOutcome, SourceSpec};
use crate::registry::TrialOutput;
use crate::testbed::Testbed;
use iac_channel::estimation::{CsiImpairment, EstimationConfig};
use iac_des::fault::{ap_churn_schedule, csi_aging_ramp, partition_windows, FaultAt};
use iac_des::pcf::EventPcfConfig;
use iac_des::traffic::ArrivalProcess;
use iac_des::SimTime;
use iac_linalg::Rng64;
use iac_mac::ethernet::WireModel;
use iac_mac::pcf::PcfConfig;

/// The shared MAC shape: IAC (3-client groups, deferred ACK map, backplane
/// forwarding) or the 802.11-MIMO baseline (one client × 2 streams,
/// synchronous CF-ACKs) — identical to the load sweep's pairing.
fn mac_config(iac: bool, queue_capacity: usize, horizon_ms: f64) -> EventPcfConfig {
    EventPcfConfig {
        protocol: PcfConfig {
            group_size: if iac { 3 } else { 1 },
            max_groups_per_cfp: 8,
            ..PcfConfig::default()
        },
        streams_per_client: if iac { 1 } else { 2 },
        immediate_uplink_ack: !iac,
        queue_capacity: Some(queue_capacity),
        horizon: SimTime::from_millis(horizon_ms),
        wire: WireModel::gigabit(),
        ..EventPcfConfig::default()
    }
}

fn delivery_ratio(out: &NetSimOutcome) -> f64 {
    if out.log.offered == 0 {
        1.0
    } else {
        out.log.delivered_count(true) as f64 / out.log.offered as f64
    }
}

fn uplink_mbps(out: &NetSimOutcome, horizon_ms: f64) -> f64 {
    metrics::throughput_mbps(
        &out.log,
        PcfConfig::default().payload_bytes,
        horizon_ms * 1e3,
    )
}

// ---------------------------------------------------------------- churn --

/// `rob_ap_churn` knobs.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed.
    pub seed: u64,
    /// Uplink clients.
    pub n_clients: usize,
    /// Per-client offered load, packets/s.
    pub uplink_pps: f64,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// MAC queue bound.
    pub queue_capacity: usize,
    /// Mean AP uptime between crashes, ms.
    pub mean_up_ms: f64,
    /// Mean AP downtime per crash, ms.
    pub mean_down_ms: f64,
    /// Matrix-level decode draws for the SINR pool.
    pub calibration_draws: usize,
}

impl ChurnConfig {
    /// Full-quality defaults, reproducible from `seed`.
    pub(crate) fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 400.0,
            horizon_ms: 400.0,
            queue_capacity: 256,
            mean_up_ms: 60.0,
            mean_down_ms: 15.0,
            calibration_draws: 12,
        }
    }

    /// A fast variant for unit tests and smoke runs.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 400.0,
            horizon_ms: 150.0,
            queue_capacity: 192,
            mean_up_ms: 30.0,
            mean_down_ms: 10.0,
            calibration_draws: 6,
        }
    }
}

/// The run description: IAC MAC plus a seeded crash/recover timeline for
/// the two non-leader APs. Pure in `config` (the schedule generator carries
/// its own derived seed).
fn churn_spec(config: &ChurnConfig) -> NetSim {
    NetSim {
        seed: config.seed ^ 0xA9_C4A5,
        cfg: mac_config(true, config.queue_capacity, config.horizon_ms),
        sources: (0..config.n_clients as u16)
            .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(config.uplink_pps)))
            .collect(),
        // AP 0 hosts the leader and stays up (a leader crash ends the CFP
        // cycle outright — a different failure mode than this scenario's
        // member churn).
        faults: ap_churn_schedule(
            Rng64::derive_seed(config.seed, 0xFA17),
            &[1, 2],
            config.mean_up_ms,
            config.mean_down_ms,
            config.horizon_ms,
        ),
    }
}

/// The calibrated IAC PHY for a churn trial.
fn churn_phy(config: &ChurnConfig) -> CalibratedPhy {
    let mut rng = Rng64::new(config.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let est = EstimationConfig::paper_default();
    let pool = netsim::calibrate_iac_pool(&testbed, &est, config.calibration_draws, &mut rng);
    CalibratedPhy::new(pool, 0.5, 0.01, 3)
}

/// What AP churn did to the run.
#[derive(Debug, Clone)]
pub(crate) struct ChurnReport {
    /// Fault events applied (crashes + recoveries).
    pub faults: u64,
    /// Poll results voided because the serving AP was down.
    pub poll_timeouts: u64,
    /// Groups formed below the configured size during outages.
    pub degraded_groups: u64,
    /// Delivered / offered uplink packets.
    pub delivery_ratio: f64,
    /// Delivered uplink throughput, Mbit/s.
    pub throughput_mbps: f64,
}

/// The churn trial's one run.
pub fn churn_runs(config: &ChurnConfig) -> Vec<DesRun> {
    vec![DesRun {
        label: "churn".to_string(),
        spec: churn_spec(config),
        phy: churn_phy(config),
    }]
}

/// Fold the churn trial's outcome into its report. Pure in
/// `(config, outcome)`.
pub(crate) fn churn_reduce<E>(
    config: &ChurnConfig,
    mut outcomes: impl Iterator<Item = Result<NetSimOutcome, E>>,
) -> Result<ChurnReport, E> {
    let out = desrec::next_outcome(&mut outcomes)?;
    Ok(ChurnReport {
        faults: out.log.faults,
        poll_timeouts: out.log.poll_timeouts,
        degraded_groups: out.log.degraded_groups,
        delivery_ratio: delivery_ratio(&out),
        throughput_mbps: uplink_mbps(&out, config.horizon_ms),
    })
}

impl ChurnReport {
    /// The churn trial's registry metrics.
    pub(crate) fn trial_output(&self) -> TrialOutput {
        TrialOutput {
            metrics: vec![
                ("delivery_ratio", self.delivery_ratio),
                ("throughput_mbps", self.throughput_mbps),
                ("faults", self.faults as f64),
                ("poll_timeouts", self.poll_timeouts as f64),
                ("degraded_groups", self.degraded_groups as f64),
            ],
        }
    }
}

// ------------------------------------------------------------ partition --

/// `rob_backhaul_partition` knobs.
#[derive(Debug, Clone)]
pub(crate) struct PartitionConfig {
    /// Master seed.
    pub seed: u64,
    /// Uplink clients.
    pub n_clients: usize,
    /// Per-client offered load, packets/s.
    pub uplink_pps: f64,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// MAC queue bound.
    pub queue_capacity: usize,
    /// Matrix-level decode draws for the SINR pool.
    pub calibration_draws: usize,
}

impl PartitionConfig {
    /// Full-quality defaults, reproducible from `seed`.
    pub(crate) fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 400.0,
            horizon_ms: 400.0,
            queue_capacity: 256,
            calibration_draws: 12,
        }
    }

    /// A fast variant for unit tests and smoke runs.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 400.0,
            horizon_ms: 150.0,
            queue_capacity: 192,
            calibration_draws: 6,
        }
    }
}

/// The partition timeline: two outage windows at fixed fractions of the
/// horizon (25–40 % and 60–72 %), so roughly a quarter of the run has no
/// backhaul.
pub(crate) fn partition_schedule(config: &PartitionConfig) -> Vec<FaultAt> {
    let h = config.horizon_ms;
    partition_windows(&[(0.25 * h, 0.40 * h), (0.60 * h, 0.72 * h)])
}

/// The run description: IAC MAC plus the partition timeline. Pure in
/// `config`.
fn partition_spec(config: &PartitionConfig) -> NetSim {
    NetSim {
        seed: config.seed ^ 0xBAC_4A01,
        cfg: mac_config(true, config.queue_capacity, config.horizon_ms),
        sources: (0..config.n_clients as u16)
            .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(config.uplink_pps)))
            .collect(),
        faults: partition_schedule(config),
    }
}

/// The calibrated IAC PHY (with the MIMO fallback pool attached: during a
/// partition the MAC dissolves groups to the standalone-MIMO shape, whose
/// SINRs come from the baseline's own calibration).
fn partition_phy(config: &PartitionConfig) -> CalibratedPhy {
    let mut rng = Rng64::new(config.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let est = EstimationConfig::paper_default();
    let iac = netsim::calibrate_iac_pool(&testbed, &est, config.calibration_draws, &mut rng);
    let mimo = netsim::calibrate_mimo_pool(&testbed, &est, config.calibration_draws, &mut rng);
    CalibratedPhy::new(iac, 0.5, 0.01, 3).with_fallback_pool(mimo)
}

/// What the partitions did to the run.
#[derive(Debug, Clone)]
pub(crate) struct PartitionReport {
    /// Forwards abandoned at the partitioned backhaul.
    pub wire_expired: u64,
    /// Groups dissolved to the standalone-MIMO fallback.
    pub degraded_groups: u64,
    /// Delivered / offered uplink packets.
    pub delivery_ratio: f64,
    /// Delivered uplink throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// Retransmission attempts (partition windows recycle unacked packets).
    pub retx: u64,
}

/// The partition trial's one run.
pub(crate) fn partition_runs(config: &PartitionConfig) -> Vec<DesRun> {
    vec![DesRun {
        label: "partition".to_string(),
        spec: partition_spec(config),
        phy: partition_phy(config),
    }]
}

/// Fold the partition trial's outcome into its report. Pure in
/// `(config, outcome)`.
pub(crate) fn partition_reduce<E>(
    config: &PartitionConfig,
    mut outcomes: impl Iterator<Item = Result<NetSimOutcome, E>>,
) -> Result<PartitionReport, E> {
    let out = desrec::next_outcome(&mut outcomes)?;
    Ok(PartitionReport {
        wire_expired: out.log.wire_expired,
        degraded_groups: out.log.degraded_groups,
        delivery_ratio: delivery_ratio(&out),
        throughput_mbps: uplink_mbps(&out, config.horizon_ms),
        retx: out.log.retx,
    })
}

impl PartitionReport {
    /// The partition trial's registry metrics.
    pub(crate) fn trial_output(&self) -> TrialOutput {
        TrialOutput {
            metrics: vec![
                ("delivery_ratio", self.delivery_ratio),
                ("throughput_mbps", self.throughput_mbps),
                ("wire_expired", self.wire_expired as f64),
                ("degraded_groups", self.degraded_groups as f64),
                ("retx", self.retx as f64),
            ],
        }
    }
}

// ------------------------------------------------------------ csi aging --

/// `rob_csi_aging` knobs.
#[derive(Debug, Clone)]
pub(crate) struct CsiAgingConfig {
    /// Master seed.
    pub seed: u64,
    /// Uplink clients.
    pub n_clients: usize,
    /// Per-client offered load, packets/s.
    pub uplink_pps: f64,
    /// Simulated horizon per run, ms.
    pub horizon_ms: f64,
    /// MAC queue bound.
    pub queue_capacity: usize,
    /// Impairment severities to sweep (level 0 = fresh CSI; each level
    /// scales feedback delay, Doppler, and the staleness ramp).
    pub severities: usize,
    /// Staleness (slots) beyond which the leader falls back to standalone
    /// MIMO.
    pub fallback_age_slots: u16,
    /// SINR penalty on aligned groups per slot of staleness, dB.
    pub aging_penalty_db_per_slot: f64,
    /// Matrix-level decode draws per SINR pool.
    pub calibration_draws: usize,
}

impl CsiAgingConfig {
    /// Full-quality defaults, reproducible from `seed`.
    pub(crate) fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 800.0,
            horizon_ms: 300.0,
            queue_capacity: 256,
            severities: 4,
            fallback_age_slots: 9,
            aging_penalty_db_per_slot: 0.3,
            calibration_draws: 12,
        }
    }

    /// A fast variant for unit tests and smoke runs.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            uplink_pps: 800.0,
            horizon_ms: 120.0,
            queue_capacity: 192,
            severities: 3,
            fallback_age_slots: 9,
            aging_penalty_db_per_slot: 0.3,
            calibration_draws: 6,
        }
    }

    /// The feedback-loop impairment at severity `level` (used for the
    /// calibration pools; the in-run staleness ramp comes from
    /// [`aging_schedule`]).
    pub(crate) fn impairment(&self, level: usize) -> CsiImpairment {
        CsiImpairment {
            feedback_delay_slots: 4 * level as u16,
            quant_bits: None,
            doppler: 0.0015 * level as f64,
        }
    }
}

/// The in-run staleness ramp at severity `level`: age grows by `3·level`
/// slots every eighth of the horizon (level 0 = no faults at all).
pub(crate) fn aging_schedule(config: &CsiAgingConfig, level: usize) -> Vec<FaultAt> {
    if level == 0 {
        return Vec::new();
    }
    let step = config.horizon_ms / 8.0;
    csi_aging_ramp(step, step, 3 * level as u16, config.horizon_ms)
}

/// The IAC run description at severity `level`. Pure in `(config, level)`.
fn aging_iac_spec(config: &CsiAgingConfig, level: usize) -> NetSim {
    let mut cfg = mac_config(true, config.queue_capacity, config.horizon_ms);
    cfg.csi_fallback_age_slots = Some(config.fallback_age_slots);
    NetSim {
        seed: config.seed ^ (0xC51_A61 + level as u64).rotate_left(13),
        cfg,
        sources: (0..config.n_clients as u16)
            .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(config.uplink_pps)))
            .collect(),
        faults: aging_schedule(config, level),
    }
}

/// The 802.11-MIMO baseline run description (immune to the feedback-loop
/// impairment: its client trains its own AP link immediately before
/// transmitting). Pure in `config`.
fn aging_mimo_spec(config: &CsiAgingConfig) -> NetSim {
    NetSim {
        seed: config.seed ^ 0xC51_A60,
        cfg: mac_config(false, config.queue_capacity, config.horizon_ms),
        sources: (0..config.n_clients as u16)
            .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(config.uplink_pps)))
            .collect(),
        faults: vec![],
    }
}

/// The calibrated PHYs: one IAC PHY per severity (pool calibrated under
/// that severity's impaired estimation model, MIMO fallback pool attached,
/// aging penalty armed) and the baseline MIMO PHY.
fn aging_phys(config: &CsiAgingConfig) -> (Vec<CalibratedPhy>, CalibratedPhy) {
    let mut rng = Rng64::new(config.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let base = EstimationConfig::paper_default();
    let mimo_pool =
        netsim::calibrate_mimo_pool(&testbed, &base, config.calibration_draws, &mut rng);
    let iac_phys = (0..config.severities)
        .map(|level| {
            let est = config.impairment(level).degrade(&base);
            let pool =
                netsim::calibrate_iac_pool(&testbed, &est, config.calibration_draws, &mut rng);
            CalibratedPhy::new(pool, 0.5, 0.01, 3)
                .with_fallback_pool(mimo_pool.clone())
                .with_aging_penalty(config.aging_penalty_db_per_slot)
        })
        .collect();
    let mimo_phy = CalibratedPhy::new(mimo_pool, 0.5, 0.01, 3);
    (iac_phys, mimo_phy)
}

/// One severity's measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AgingPoint {
    /// IAC uplink throughput at this severity, Mbit/s.
    pub iac_mbps: f64,
    /// Groups the MAC dissolved to the standalone-MIMO fallback.
    pub degraded_groups: u64,
}

/// The aging sweep's report.
#[derive(Debug, Clone)]
pub(crate) struct CsiAgingReport {
    /// One entry per severity, ascending.
    pub points: Vec<AgingPoint>,
    /// The baseline's uplink throughput, Mbit/s (severity-independent).
    pub mimo_mbps: f64,
}

impl CsiAgingReport {
    /// IAC/MIMO throughput ratio at severity `level`.
    pub(crate) fn ratio(&self, level: usize) -> f64 {
        self.points[level].iac_mbps / self.mimo_mbps
    }

    /// The worst IAC/MIMO ratio across the sweep — the graceful-degradation
    /// floor (≥ ~1 when fallback works: IAC never does *worse* than the
    /// baseline it can become).
    pub(crate) fn min_ratio(&self) -> f64 {
        (0..self.points.len())
            .map(|k| self.ratio(k))
            .fold(f64::INFINITY, f64::min)
    }
}

/// The aging sweep's runs: the MIMO baseline, then IAC per severity,
/// ascending.
pub(crate) fn aging_runs(config: &CsiAgingConfig) -> Vec<DesRun> {
    let (iac_phys, mimo_phy) = aging_phys(config);
    let mut runs = Vec::with_capacity(1 + config.severities);
    runs.push(DesRun {
        label: "mimo".to_string(),
        spec: aging_mimo_spec(config),
        phy: mimo_phy,
    });
    for (level, phy) in iac_phys.into_iter().enumerate() {
        runs.push(DesRun {
            label: format!("iac_s{level}"),
            spec: aging_iac_spec(config, level),
            phy,
        });
    }
    runs
}

/// Fold the aging sweep's outcomes, in [`aging_runs`] order, into the
/// report. Pure in `(config, outcomes)`.
pub(crate) fn aging_reduce<E>(
    config: &CsiAgingConfig,
    mut outcomes: impl Iterator<Item = Result<NetSimOutcome, E>>,
) -> Result<CsiAgingReport, E> {
    let mimo_mbps = uplink_mbps(&desrec::next_outcome(&mut outcomes)?, config.horizon_ms);
    let mut points = Vec::with_capacity(config.severities);
    for _ in 0..config.severities {
        let out = desrec::next_outcome(&mut outcomes)?;
        points.push(AgingPoint {
            iac_mbps: uplink_mbps(&out, config.horizon_ms),
            degraded_groups: out.log.degraded_groups,
        });
    }
    Ok(CsiAgingReport { points, mimo_mbps })
}

impl CsiAgingReport {
    /// The aging sweep's registry metrics: the clean and worst-severity
    /// IAC/MIMO ratios plus the sweep-wide floor — the graceful-degradation
    /// contract in three numbers (gain shrinks with severity, the floor
    /// stays at or above the baseline).
    pub(crate) fn trial_output(&self) -> TrialOutput {
        TrialOutput {
            metrics: vec![
                ("gain_clean", self.ratio(0)),
                ("gain_worst", self.ratio(self.points.len() - 1)),
                ("min_ratio", self.min_ratio()),
                ("mimo_mbps", self.mimo_mbps),
                (
                    "fallback_groups_worst",
                    self.points.last().map_or(0.0, |p| p.degraded_groups as f64),
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_degrades_gracefully() {
        let cfg = ChurnConfig::quick(41);
        let Ok(r) = churn_reduce(&cfg, desrec::live(churn_runs(&cfg)));
        assert!(r.faults > 0, "schedule produced no churn");
        assert!(r.poll_timeouts > 0, "crashed APs kept answering polls");
        assert!(r.degraded_groups > 0, "outages never shrank a group");
        assert!(
            r.delivery_ratio > 0.5,
            "churn collapsed the run: {:.2}",
            r.delivery_ratio
        );
    }

    #[test]
    fn partition_expires_forwards_and_recovers() {
        let cfg = PartitionConfig::quick(42);
        let outcomes: Vec<NetSimOutcome> = desrec::live(partition_runs(&cfg))
            .map(|Ok(out)| out)
            .collect();
        assert_eq!(outcomes[0].log.faults, 4, "two windows = four fault events");
        let outcomes = outcomes.into_iter().map(Ok::<_, std::convert::Infallible>);
        let Ok(r) = partition_reduce(&cfg, outcomes);
        assert!(r.wire_expired > 0, "partition never blocked a forward");
        assert!(r.degraded_groups > 0, "partition never dissolved a group");
        assert!(
            r.retx > 0,
            "expired forwards must recycle as retransmissions"
        );
        assert!(
            r.delivery_ratio > 0.5,
            "partitions collapsed the run: {:.2}",
            r.delivery_ratio
        );
    }

    #[test]
    fn csi_aging_degrades_toward_but_never_below_mimo() {
        let cfg = CsiAgingConfig::quick(43);
        let Ok(r) = aging_reduce(&cfg, desrec::live(aging_runs(&cfg)));
        assert!(r.mimo_mbps > 0.0);
        // Fresh CSI: IAC holds a real gain over the baseline.
        assert!(
            r.ratio(0) > 1.1,
            "no IAC gain at zero impairment: {:.2}",
            r.ratio(0)
        );
        // Impairment bites: the worst severity has lost ground vs fresh.
        let worst = r.ratio(r.points.len() - 1);
        assert!(
            worst < r.ratio(0),
            "severity had no effect: {:.2} vs {:.2}",
            worst,
            r.ratio(0)
        );
        // Fallback actually engaged at the higher severities.
        assert!(
            r.points.last().unwrap().degraded_groups > 0,
            "threshold never crossed"
        );
        // The graceful-degradation floor: IAC degrades TOWARD the baseline,
        // never below it (§ISSUE acceptance) — the MAC falls back to the
        // baseline's own shape rather than riding stale alignment down.
        assert!(
            r.min_ratio() >= 0.95,
            "IAC fell below the MIMO baseline: floor {:.2}",
            r.min_ratio()
        );
    }

    #[test]
    fn specs_are_pure() {
        let c = ChurnConfig::quick(44);
        assert_eq!(churn_spec(&c).faults, churn_spec(&c).faults);
        let p = PartitionConfig::quick(44);
        assert_eq!(partition_spec(&p).faults.len(), 4);
        let a = CsiAgingConfig::quick(44);
        assert!(aging_schedule(&a, 0).is_empty());
        assert!(!aging_schedule(&a, 1).is_empty());
        assert_eq!(
            aging_iac_spec(&a, 1).faults,
            aging_iac_spec(&a, 1).faults,
            "aging spec not pure"
        );
    }
}
