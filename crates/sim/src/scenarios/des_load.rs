//! Time-domain extension — offered-load sweep: IAC vs 802.11-MIMO
//! saturation latency.
//!
//! The slot-level experiments (Figs. 12/13) compare saturated *throughput*;
//! here the same two systems face increasing offered load and we watch
//! where *latency* diverges. Both run the identical event-driven PCF
//! machinery and airtime model; they differ exactly where the designs
//! differ:
//!
//! * **IAC** — 3-client transmission groups (one aligned packet each per
//!   data airtime), deferred beacon ACK map, decoded packets forwarded over
//!   the hub.
//! * **802.11-MIMO** — one client per group spatially multiplexing 2
//!   streams to its best AP, synchronous per-frame CF-ACKs, no backplane
//!   traffic.
//!
//! Below saturation both deliver what is offered (IAC paying ~a beacon of
//! extra uplink latency for the deferred ACK); past its capacity each
//! system's queue grows until tail-drop, and p95 latency jumps an order of
//! magnitude. IAC's knee sits at higher load — consistent with the paper's
//! ~1.5× uplink gain.

use crate::desrec::{self, DesRun};
use crate::metrics;
use crate::netsim::{self, CalibratedPhy, NetSim, NetSimOutcome, SourceSpec};
use crate::registry::TrialOutput;
use crate::testbed::Testbed;
use iac_channel::estimation::EstimationConfig;
use iac_des::pcf::EventPcfConfig;
use iac_des::traffic::ArrivalProcess;
use iac_des::SimTime;
use iac_linalg::Rng64;
use iac_mac::ethernet::WireModel;
use iac_mac::pcf::PcfConfig;

/// Sweep knobs.
#[derive(Debug, Clone)]
pub struct LoadSweepConfig {
    /// Master seed.
    pub seed: u64,
    /// Uplink clients.
    pub n_clients: usize,
    /// Per-client offered loads to sweep, packets/s.
    pub loads_pps: Vec<f64>,
    /// Simulated horizon per point, ms.
    pub horizon_ms: f64,
    /// MAC queue bound.
    pub queue_capacity: usize,
    /// p95 latency below this counts as "sustained", ms.
    pub latency_threshold_ms: f64,
    /// Matrix-level decode draws per SINR pool.
    pub calibration_draws: usize,
}

impl LoadSweepConfig {
    /// Full-quality defaults, reproducible from `seed`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            loads_pps: vec![150.0, 300.0, 450.0, 550.0, 650.0, 800.0, 1000.0],
            horizon_ms: 400.0,
            queue_capacity: 256,
            latency_threshold_ms: 30.0,
            calibration_draws: 12,
        }
    }

    /// A fast variant for unit tests and smoke runs.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            seed,
            n_clients: 6,
            loads_pps: vec![150.0, 450.0, 650.0, 1000.0],
            horizon_ms: 150.0,
            queue_capacity: 192,
            latency_threshold_ms: 30.0,
            calibration_draws: 6,
        }
    }
}

/// One system's measurements at one offered load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SystemPoint {
    /// Mean uplink latency, ms (the deferred-ACK test compares it).
    #[cfg(test)]
    pub mean_latency_ms: f64,
    /// 95th-percentile uplink latency, ms.
    pub p95_latency_ms: f64,
    /// Delivered / offered.
    pub delivery_ratio: f64,
    /// Tail drops at the MAC queue.
    pub overflow_drops: u64,
}

impl SystemPoint {
    /// Whether this point counts as sustained under `threshold_ms`.
    pub(crate) fn sustained(&self, threshold_ms: f64) -> bool {
        self.p95_latency_ms < threshold_ms && self.delivery_ratio > 0.9
    }
}

/// Both systems at one offered load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadPoint {
    /// Per-client offered load, packets/s.
    pub load_pps: f64,
    /// IAC measurements.
    pub iac: SystemPoint,
    /// 802.11-MIMO baseline measurements.
    pub mimo: SystemPoint,
}

/// The sweep's report.
#[derive(Debug, Clone)]
pub(crate) struct LoadSweepReport {
    /// One entry per swept load, ascending.
    pub points: Vec<LoadPoint>,
    /// Sustained-load knee for IAC, pps/client — the interpolated crossing
    /// of the sustainability boundary between the last sustained and first
    /// unsustained grid loads (see `interpolated_knee`).
    pub iac_sustained_pps: f64,
    /// Sustained-load knee for the 802.11-MIMO baseline, pps/client.
    pub mimo_sustained_pps: f64,
}

impl LoadSweepReport {
    /// Load-sustained gain (IAC / baseline).
    pub(crate) fn gain(&self) -> f64 {
        self.iac_sustained_pps / self.mimo_sustained_pps
    }
}

fn mac_config(iac: bool, cfg: &LoadSweepConfig) -> EventPcfConfig {
    EventPcfConfig {
        protocol: PcfConfig {
            group_size: if iac { 3 } else { 1 },
            max_groups_per_cfp: 8,
            ..PcfConfig::default()
        },
        streams_per_client: if iac { 1 } else { 2 },
        immediate_uplink_ack: !iac,
        queue_capacity: Some(cfg.queue_capacity),
        horizon: SimTime::from_millis(cfg.horizon_ms),
        // A switched-gigabit backplane, not the instantaneous default: IAC's
        // forwarded uplink packets pay a real (if small) wire cost.
        wire: WireModel::gigabit(),
        ..EventPcfConfig::default()
    }
}

/// The run description for one system at one offered load. Pure — no
/// calibration, no RNG draws.
fn point_spec(cfg: &LoadSweepConfig, load_pps: f64, iac: bool) -> NetSim {
    NetSim {
        // Same seed for both systems at a given load. Arrival draws share
        // the one simulation RNG with PHY/policy draws, so the two systems'
        // packet timings diverge after the first transmission — the
        // comparison is same-law (identical Poisson process parameters),
        // not packet-for-packet paired.
        seed: cfg.seed ^ (load_pps as u64).rotate_left(17),
        cfg: mac_config(iac, cfg),
        sources: (0..cfg.n_clients as u16)
            .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(load_pps)))
            .collect(),
        faults: vec![],
    }
}

/// Reduce a completed run's outcome to its [`SystemPoint`]. Pure in the
/// outcome, so a replayed outcome reconstructs the identical point.
fn point_from(out: &NetSimOutcome) -> SystemPoint {
    let lat = metrics::latencies_ms(&out.log, Some(true));
    let delivered = out.log.delivered_count(true);
    SystemPoint {
        #[cfg(test)]
        mean_latency_ms: crate::stats::mean(&lat),
        p95_latency_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            crate::stats::quantile(&lat, 0.95)
        },
        delivery_ratio: if out.log.offered == 0 {
            1.0
        } else {
            delivered as f64 / out.log.offered as f64
        },
        overflow_drops: out.log.drops_overflow,
    }
}

/// The two calibrated PHYs (IAC pool, then 802.11-MIMO pool), drawn from
/// `config.seed`.
fn phys_for(config: &LoadSweepConfig) -> (CalibratedPhy, CalibratedPhy) {
    let mut rng = Rng64::new(config.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let est = EstimationConfig::paper_default();
    let iac = netsim::calibrate_iac_pool(&testbed, &est, config.calibration_draws, &mut rng);
    let mimo = netsim::calibrate_mimo_pool(&testbed, &est, config.calibration_draws, &mut rng);
    (CalibratedPhy::new(iac), CalibratedPhy::new(mimo))
}

/// The sweep's runs: IAC then 802.11-MIMO at each load, loads ascending.
pub fn runs(config: &LoadSweepConfig) -> Vec<DesRun> {
    let (iac_phy, mimo_phy) = phys_for(config);
    let mut runs = Vec::with_capacity(2 * config.loads_pps.len());
    for &load in &config.loads_pps {
        runs.push(DesRun {
            label: format!("iac_{load:04.0}"),
            spec: point_spec(config, load, true),
            phy: iac_phy.clone(),
        });
        runs.push(DesRun {
            label: format!("mimo_{load:04.0}"),
            spec: point_spec(config, load, false),
            phy: mimo_phy.clone(),
        });
    }
    runs
}

/// The sustained-load knee, linearly interpolated between grid points.
///
/// `points` is `(load_pps, measurement)` in ascending load order. The knee
/// sits between the last load of the all-sustained prefix and the first
/// unsustained load; within that interval the crossing is located by linear
/// interpolation of whichever criterion broke — the p95 latency reaching
/// the threshold, or (when latency stayed low and delivery collapsed
/// instead) the delivery ratio crossing 0.9. This removes the grid
/// quantization that made the knee — and everything derived from it, like
/// the reported load gain — a step function of the swept grid and fragile
/// to seed choice: a seed that nudges p95 latency slightly now nudges the
/// knee slightly, instead of snapping it a whole grid cell.
///
/// Degenerate cases: an empty or never-sustained sweep reports 0; an
/// all-sustained sweep reports its last grid load (the sweep never found
/// the knee, so there is nothing to interpolate toward); an unusable
/// interpolant (first unsustained point's p95 non-finite *and* delivery
/// not below 0.9 — e.g. nothing was delivered at all) falls back to the
/// interval midpoint.
pub(crate) fn interpolated_knee(points: &[(f64, SystemPoint)], threshold_ms: f64) -> f64 {
    let mut last_sustained = None;
    for (i, (_, p)) in points.iter().enumerate() {
        if p.sustained(threshold_ms) {
            last_sustained = Some(i);
        } else {
            break;
        }
    }
    let Some(i) = last_sustained else {
        return 0.0;
    };
    if i + 1 >= points.len() {
        return points[i].0;
    }
    let (la, a) = points[i];
    let (lb, b) = points[i + 1];
    let t = if b.p95_latency_ms.is_finite() && b.p95_latency_ms >= threshold_ms {
        // Latency broke the threshold: find where p95(load) crosses it.
        (threshold_ms - a.p95_latency_ms) / (b.p95_latency_ms - a.p95_latency_ms)
    } else if b.delivery_ratio <= 0.9 && a.delivery_ratio > b.delivery_ratio {
        // Delivery collapsed first: find where it crosses 0.9.
        (a.delivery_ratio - 0.9) / (a.delivery_ratio - b.delivery_ratio)
    } else {
        0.5
    };
    la + t.clamp(0.0, 1.0) * (lb - la)
}

/// Fold the sweep's outcomes, in [`runs`] order, into the report
/// (interpolated knees included). Each outcome becomes its
/// [`SystemPoint`] as it arrives, so live runs hold one `MetricsLog` at a
/// time. Pure in `(config, outcomes)`, so replayed outcomes reconstruct the
/// identical report.
pub(crate) fn reduce<E>(
    config: &LoadSweepConfig,
    mut outcomes: impl Iterator<Item = Result<NetSimOutcome, E>>,
) -> Result<LoadSweepReport, E> {
    let mut points = Vec::with_capacity(config.loads_pps.len());
    for &load_pps in &config.loads_pps {
        let iac = point_from(&desrec::next_outcome(&mut outcomes)?);
        let mimo = point_from(&desrec::next_outcome(&mut outcomes)?);
        points.push(LoadPoint {
            load_pps,
            iac,
            mimo,
        });
    }
    let series = |pick: fn(&LoadPoint) -> SystemPoint| -> Vec<(f64, SystemPoint)> {
        points.iter().map(|p| (p.load_pps, pick(p))).collect()
    };
    Ok(LoadSweepReport {
        iac_sustained_pps: interpolated_knee(&series(|p| p.iac), config.latency_threshold_ms),
        mimo_sustained_pps: interpolated_knee(&series(|p| p.mimo), config.latency_threshold_ms),
        points,
    })
}

/// Run the sweep.
#[cfg(test)]
fn run(config: &LoadSweepConfig) -> LoadSweepReport {
    let Ok(report) = reduce(config, desrec::live(runs(config)));
    report
}

impl LoadSweepReport {
    /// The sweep's registry metrics. The knees are grid-interpolated (see
    /// `interpolated_knee`), so these are continuous in the underlying
    /// measurements rather than snapping to swept grid loads.
    pub(crate) fn trial_output(&self) -> TrialOutput {
        TrialOutput {
            metrics: vec![
                ("load_gain", self.gain()),
                ("iac_sustained_pps", self.iac_sustained_pps),
                ("mimo_sustained_pps", self.mimo_sustained_pps),
                // Sweep-total tail drops at the bounded MAC queues (per
                // system): overload past the knee must show up as shed load,
                // not memory growth — both runs construct queues via
                // `with_capacity`.
                (
                    "iac_drops_overflow",
                    self.points
                        .iter()
                        .map(|p| p.iac.overflow_drops)
                        .sum::<u64>() as f64,
                ),
                (
                    "mimo_drops_overflow",
                    self.points
                        .iter()
                        .map(|p| p.mimo.overflow_drops)
                        .sum::<u64>() as f64,
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iac_sustains_higher_load_before_latency_diverges() {
        let r = run(&LoadSweepConfig::quick(31));
        assert!(r.mimo_sustained_pps > 0.0, "baseline sustained nothing");
        assert!(
            r.iac_sustained_pps > r.mimo_sustained_pps,
            "IAC knee {} not beyond baseline {}",
            r.iac_sustained_pps,
            r.mimo_sustained_pps
        );
        let gain = r.gain();
        assert!(
            (1.1..2.5).contains(&gain),
            "gain {gain} inconsistent with the paper's ~1.5x"
        );
    }

    #[test]
    fn latency_explodes_past_saturation() {
        let r = run(&LoadSweepConfig::quick(32));
        for sys in [|p: &LoadPoint| p.iac, |p: &LoadPoint| p.mimo] {
            let first = sys(r.points.first().unwrap());
            let last = sys(r.points.last().unwrap());
            assert!(
                last.p95_latency_ms > 3.0 * first.p95_latency_ms,
                "no divergence: {} → {}",
                first.p95_latency_ms,
                last.p95_latency_ms
            );
            assert!(last.overflow_drops > 0, "no tail drops at 1000 pps/client");
        }
    }

    #[test]
    fn below_saturation_both_deliver_everything() {
        let r = run(&LoadSweepConfig::quick(33));
        let p = r.points.first().unwrap();
        assert!(p.iac.delivery_ratio > 0.9, "{}", p.iac.delivery_ratio);
        assert!(p.mimo.delivery_ratio > 0.9, "{}", p.mimo.delivery_ratio);
        // Deferred-ACK cost: at low load IAC's uplink latency exceeds the
        // synchronously-acked baseline's.
        assert!(p.iac.mean_latency_ms > p.mimo.mean_latency_ms);
    }

    #[test]
    fn knee_interpolates_between_grid_points() {
        let pt = |p95: f64, dr: f64| SystemPoint {
            mean_latency_ms: 0.0,
            p95_latency_ms: p95,
            delivery_ratio: dr,
            overflow_drops: 0,
        };
        // Latency crossing: p95 goes 10 → 50 over loads 400 → 600; the
        // 30 ms threshold is crossed exactly halfway.
        let pts = vec![
            (200.0, pt(5.0, 1.0)),
            (400.0, pt(10.0, 1.0)),
            (600.0, pt(50.0, 1.0)),
        ];
        assert_eq!(interpolated_knee(&pts, 30.0), 500.0);
        // Delivery collapse with latency still low: ratio 1.0 → 0.7 crosses
        // 0.9 a third of the way into the interval.
        let pts = vec![(400.0, pt(10.0, 1.0)), (600.0, pt(12.0, 0.7))];
        let knee = interpolated_knee(&pts, 30.0);
        assert!((knee - (400.0 + 200.0 / 3.0)).abs() < 1e-9, "{knee}");
        // Nothing delivered at the unsustained point (p95 = ∞): falls back
        // to the delivery-ratio crossing.
        let pts = vec![(400.0, pt(10.0, 1.0)), (600.0, pt(f64::INFINITY, 0.0))];
        assert!((interpolated_knee(&pts, 30.0) - 420.0).abs() < 1e-9);
        // Unusable interpolants: midpoint.
        let pts = vec![(400.0, pt(10.0, 1.0)), (600.0, pt(f64::INFINITY, 1.0))];
        assert_eq!(interpolated_knee(&pts, 30.0), 500.0);
        // All sustained: the last grid load. None sustained: zero.
        assert_eq!(interpolated_knee(&[(400.0, pt(10.0, 1.0))], 30.0), 400.0);
        assert_eq!(interpolated_knee(&[(400.0, pt(90.0, 1.0))], 30.0), 0.0);
        assert_eq!(interpolated_knee(&[], 30.0), 0.0);
    }

    #[test]
    fn knee_moves_continuously_with_the_breaking_point() {
        // The reason for interpolating: a small perturbation of the
        // unsustained point's p95 must move the knee a little, not snap it
        // across a whole grid cell.
        let pt = |p95: f64| SystemPoint {
            mean_latency_ms: 0.0,
            p95_latency_ms: p95,
            delivery_ratio: 1.0,
            overflow_drops: 0,
        };
        let knee_at =
            |p95_hi: f64| interpolated_knee(&[(400.0, pt(10.0)), (600.0, pt(p95_hi))], 30.0);
        let (a, b) = (knee_at(50.0), knee_at(51.0));
        assert!((a - b).abs() < 10.0, "knee jumped: {a} vs {b}");
        assert!(b < a, "higher overload p95 must pull the knee down");
    }

    #[test]
    fn queues_are_bounded_and_tail_drops_are_surfaced() {
        // Every point in the sweep — both systems — runs with a bounded MAC
        // queue (`TrafficQueue::with_capacity` inside the event MAC, wired
        // through `queue_capacity: Some(..)`), so overload past the knee
        // sheds load at the queue tail instead of growing memory.
        for cfg in [
            LoadSweepConfig::quick(35),
            LoadSweepConfig::paper_default(35),
        ] {
            assert!(cfg.queue_capacity > 0);
            for &load in &cfg.loads_pps {
                for iac in [true, false] {
                    assert_eq!(
                        point_spec(&cfg, load, iac).cfg.queue_capacity,
                        Some(cfg.queue_capacity),
                        "spec must wire a bounded queue (load={load}, iac={iac})"
                    );
                }
            }
        }
        // The drop counters flow from the per-point logs into the registry
        // trial output, and the overloaded top of the sweep actually drops.
        let r = run(&LoadSweepConfig::quick(36));
        let out = r.trial_output();
        let surfaced = |key: &str| {
            out.metrics
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{key} missing from trial output"))
        };
        let iac_total: u64 = r.points.iter().map(|p| p.iac.overflow_drops).sum();
        let mimo_total: u64 = r.points.iter().map(|p| p.mimo.overflow_drops).sum();
        assert_eq!(surfaced("iac_drops_overflow"), iac_total as f64);
        assert_eq!(surfaced("mimo_drops_overflow"), mimo_total as f64);
        assert!(
            iac_total > 0 && mimo_total > 0,
            "overloaded sweep produced no tail drops (iac={iac_total}, mimo={mimo_total})"
        );
    }
}
