//! Packet arrival processes.
//!
//! The static measurement loop in `iac-sim` assumes saturated queues; real
//! LANs are driven by stochastic arrivals, and the interesting MAC behaviour
//! (queueing delay, overflow drops, CFP shrinking) only appears under them.
//! Three classic processes cover the evaluation's needs:
//!
//! * **Poisson** — memoryless; gaps are exponential with mean `1/rate`.
//! * **CBR** — constant bit rate; fixed gaps (think video or sensor feeds).
//! * **Bursty ON/OFF** — exponentially distributed ON and OFF periods with
//!   Poisson arrivals during ON; the classic web-traffic caricature that
//!   stresses queue capacity.
//!
//! All draws flow through the caller's [`Rng64`], so an arrival sequence is
//! bit-reproducible from the simulation seed.

use crate::time::SimTime;
use iac_linalg::Rng64;

/// Exponential draw with the given mean (inverse-CDF method).
fn exp_mean(mean: f64, rng: &mut Rng64) -> f64 {
    // 1 - u ∈ (0, 1], so the log is finite.
    -mean * (1.0 - rng.next_f64()).ln()
}

#[derive(Debug, Clone)]
enum Kind {
    Poisson {
        rate_pps: f64,
    },
    Cbr {
        interval: SimTime,
    },
    OnOff {
        on_mean: SimTime,
        off_mean: SimTime,
        rate_pps: f64,
        /// Remaining time in the current ON period (µs).
        burst_left_us: f64,
    },
}

/// A stateful arrival process: repeatedly ask it for the gap to the next
/// packet.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: Kind,
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate_pps` packets per second.
    pub fn poisson(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "Poisson rate must be positive");
        Self {
            kind: Kind::Poisson { rate_pps },
        }
    }

    /// Constant-rate arrivals, one packet every `interval`.
    pub fn cbr(interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "CBR interval must be positive");
        Self {
            kind: Kind::Cbr { interval },
        }
    }

    /// Bursty ON/OFF arrivals: exponential ON periods of mean `on_mean` with
    /// Poisson arrivals at `rate_pps`, separated by exponential OFF periods
    /// of mean `off_mean`.
    pub fn on_off(on_mean: SimTime, off_mean: SimTime, rate_pps: f64) -> Self {
        assert!(on_mean > SimTime::ZERO && off_mean > SimTime::ZERO);
        assert!(rate_pps > 0.0);
        Self {
            kind: Kind::OnOff {
                on_mean,
                off_mean,
                rate_pps,
                burst_left_us: 0.0,
            },
        }
    }

    /// The gap from the previous packet (or from process start) to the next.
    pub(crate) fn next_gap(&mut self, rng: &mut Rng64) -> SimTime {
        match &mut self.kind {
            Kind::Poisson { rate_pps } => SimTime::from_secs(exp_mean(1.0 / *rate_pps, rng)),
            Kind::Cbr { interval } => *interval,
            Kind::OnOff {
                on_mean,
                off_mean,
                rate_pps,
                burst_left_us,
            } => {
                let mut gap_us = 0.0;
                loop {
                    let draw_us = exp_mean(1e6 / *rate_pps, rng);
                    if draw_us <= *burst_left_us {
                        *burst_left_us -= draw_us;
                        gap_us += draw_us;
                        return SimTime::from_micros(gap_us);
                    }
                    // The burst ends before the next arrival: spend what is
                    // left of it, sit out an OFF period, start a new burst.
                    gap_us += *burst_left_us;
                    gap_us += exp_mean(off_mean.micros(), rng);
                    *burst_left_us = exp_mean(on_mean.micros(), rng);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut p = ArrivalProcess::poisson(1000.0); // 1 packet per ms
        let mut rng = Rng64::new(1);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).micros()).sum();
        let mean_us = total / n as f64;
        assert!((mean_us - 1000.0).abs() < 30.0, "mean gap {mean_us}us");
    }

    #[test]
    fn cbr_is_exact() {
        let mut c = ArrivalProcess::cbr(SimTime::from_micros(250.0));
        let mut rng = Rng64::new(2);
        for _ in 0..10 {
            assert_eq!(c.next_gap(&mut rng), SimTime::from_micros(250.0));
        }
    }

    #[test]
    fn on_off_long_run_rate_matches_duty_cycle() {
        // ON 10ms / OFF 30ms at 2000 pps during ON → 500 pps average.
        let mut b = ArrivalProcess::on_off(
            SimTime::from_millis(10.0),
            SimTime::from_millis(30.0),
            2000.0,
        );
        let mut rng = Rng64::new(3);
        let n = 20_000;
        let total_s: f64 = (0..n).map(|_| b.next_gap(&mut rng).secs()).sum();
        let rate = n as f64 / total_s;
        assert!(
            (rate - 500.0).abs() < 40.0,
            "long-run ON/OFF rate {rate} pps"
        );
    }

    #[test]
    fn on_off_is_bursty() {
        // Gap dispersion (coefficient of variation) must exceed Poisson's 1.
        let mut b = ArrivalProcess::on_off(
            SimTime::from_millis(5.0),
            SimTime::from_millis(20.0),
            4000.0,
        );
        let mut rng = Rng64::new(4);
        let gaps: Vec<f64> = (0..20_000).map(|_| b.next_gap(&mut rng).micros()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.5, "ON/OFF coefficient of variation {cv} not bursty");
    }

    #[test]
    fn deterministic_from_seed() {
        let run = |seed| {
            let mut p = ArrivalProcess::on_off(
                SimTime::from_millis(1.0),
                SimTime::from_millis(2.0),
                5000.0,
            );
            let mut rng = Rng64::new(seed);
            (0..100)
                .map(|_| p.next_gap(&mut rng).micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
