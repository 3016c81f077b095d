//! Time-domain metrics over a discrete-event run.
//!
//! `iac-des` records raw facts (per-packet arrival/delivery timestamps,
//! queue-depth samples); this module turns them into the statistics the
//! dynamic scenarios report: latency CDFs, sliding-window per-client
//! throughput, and Jain's fairness index over those windows.

use crate::stats;
use iac_des::metrics::MetricsLog;

/// Per-packet latencies in milliseconds, optionally filtered by direction
/// (`Some(true)` = uplink only).
pub(crate) fn latencies_ms(log: &MetricsLog, direction: Option<bool>) -> Vec<f64> {
    log.delivered
        .iter()
        .filter(|r| direction.is_none_or(|up| r.uplink == up))
        .map(|r| r.latency_us() * 1e-3)
        .collect()
}

/// Empirical latency CDF in milliseconds: sorted `(latency_ms, fraction)`.
pub fn latency_cdf_ms(log: &MetricsLog, direction: Option<bool>) -> Vec<(f64, f64)> {
    stats::cdf_points(&latencies_ms(log, direction))
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when perfectly fair, → 1/n
/// when one value dominates. Empty or all-zero input scores 1 (nothing is
/// unfair about nothing).
pub(crate) fn jain_fairness(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

/// Aggregate delivered throughput in Mbit/s over `[0, horizon_us]`.
pub(crate) fn throughput_mbps(log: &MetricsLog, payload_bytes: usize, horizon_us: f64) -> f64 {
    if horizon_us <= 0.0 {
        return 0.0;
    }
    let bits = log.delivered.len() as f64 * payload_bytes as f64 * 8.0;
    bits / horizon_us // bits per µs == Mbit/s
}

/// Jain fairness of per-client delivered throughput inside each window:
/// `(window_start_ms, fairness)`. A client participates in every window its
/// activity span — first arrival to last delivery over the run — overlaps,
/// *including windows where it delivered nothing*, so mid-run starvation of
/// a present client drags the index down. Outside its span a client is
/// treated as churned out and ignored; an idle window scores 1.
pub fn windowed_jain(log: &MetricsLog, window_us: f64, horizon_us: f64) -> Vec<(f64, f64)> {
    assert!(window_us > 0.0, "window must be positive");
    let clients: Vec<u16> = log.per_client_delivered().iter().map(|&(c, _)| c).collect();
    // Per-client (first arrival, last delivery) activity span.
    let mut spans: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::NEG_INFINITY); clients.len()];
    let n_windows = (horizon_us / window_us).ceil() as usize;
    let mut per_window: Vec<Vec<f64>> = vec![vec![0.0; clients.len()]; n_windows.max(1)];
    for r in &log.delivered {
        if let Some(i) = clients.iter().position(|&c| c == r.client) {
            spans[i].0 = spans[i].0.min(r.arrival_us);
            spans[i].1 = spans[i].1.max(r.delivered_us);
            let w = (r.delivered_us / window_us) as usize;
            if w < per_window.len() {
                per_window[w][i] += 1.0;
            }
        }
    }
    per_window
        .iter()
        .enumerate()
        .map(|(w, counts)| {
            let (start, end) = (w as f64 * window_us, (w + 1) as f64 * window_us);
            let active: Vec<f64> = counts
                .iter()
                .zip(&spans)
                .filter(|&(_, &(first, last))| first < end && last >= start)
                .map(|(&x, _)| x)
                .collect();
            (start * 1e-3, jain_fairness(&active))
        })
        .collect()
}

/// Peak queue depth over the run, `(downlink, uplink)`.
pub(crate) fn peak_queue_depth(log: &MetricsLog) -> (usize, usize) {
    log.queue_depth
        .iter()
        .fold((0, 0), |(d, u), s| (d.max(s.downlink), u.max(s.uplink)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_des::metrics::{PacketRecord, QueueDepthSample};

    fn log_with(records: &[(u16, f64, f64)]) -> MetricsLog {
        let mut log = MetricsLog::default();
        for &(client, arrival_us, delivered_us) in records {
            log.delivered.push(PacketRecord {
                client,
                seq: 0,
                uplink: true,
                arrival_us,
                delivered_us,
            });
        }
        log
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_fairness(&[2.0, 1.0]);
        assert!(mid > 1.0 / 2.0 && mid < 1.0);
    }

    #[test]
    fn latency_conversion_and_cdf() {
        let log = log_with(&[(0, 0.0, 2000.0), (1, 1000.0, 2000.0)]);
        let ms = latencies_ms(&log, Some(true));
        assert_eq!(ms, vec![2.0, 1.0]);
        assert!(latencies_ms(&log, Some(false)).is_empty());
        let cdf = latency_cdf_ms(&log, None);
        assert_eq!(cdf, vec![(1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn throughput_counts_delivered_bits() {
        // Three delivered packets of 1250 B = 10 kbit each over 2 ms.
        let log = log_with(&[(0, 0.0, 100.0), (0, 0.0, 900.0), (0, 0.0, 1500.0)]);
        assert!((throughput_mbps(&log, 1250, 2000.0) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_jain_ignores_absent_clients() {
        // Client 1 joins in window 1 (first arrival 1050): window 0 is fair
        // among the clients present then, window 1 among those present then.
        let log = log_with(&[(0, 0.0, 100.0), (0, 0.0, 200.0), (1, 1050.0, 1100.0)]);
        let j = windowed_jain(&log, 1000.0, 2000.0);
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].1, 1.0);
        assert_eq!(j[1].1, 1.0);
    }

    #[test]
    fn windowed_jain_sees_starved_present_clients() {
        // Client 1 is present the whole run (arrival in window 0, delivery
        // in window 1) but delivers nothing during window 0: that window's
        // index must reflect the starvation, not score a vacuous 1.
        let log = log_with(&[(0, 0.0, 100.0), (0, 0.0, 200.0), (1, 50.0, 1100.0)]);
        let j = windowed_jain(&log, 1000.0, 2000.0);
        let w0 = j[0].1;
        assert!(
            (w0 - 0.5).abs() < 1e-12,
            "expected jain([2,0]) = 0.5, got {w0}"
        );
    }

    #[test]
    fn peak_depth() {
        let mut log = MetricsLog::default();
        for &(t, d, u) in &[(0.0, 1usize, 7usize), (1.0, 4, 2)] {
            log.queue_depth.push(QueueDepthSample {
                time_us: t,
                downlink: d,
                uplink: u,
            });
        }
        assert_eq!(peak_queue_depth(&log), (4, 7));
    }
}
