//! A narrated tour of the discrete-event simulator: the dynamic-arrival
//! campus uplink with client churn, in simulated time.
//!
//! Where `campus_uplink` scores throughput over *slots*, this runs the same
//! IAC LAN through `iac-des`: Poisson/CBR/bursty arrivals, an event-driven
//! extended-PCF leader priced by the airtime model, a latency-modelled
//! Ethernet backplane, clients leaving and rejoining mid-run — and reports
//! what only a time-domain simulation can: latency CDFs, queue dynamics,
//! and fairness over sliding windows.
//!
//! Run with: `cargo run --release --example des_campus`

use iac_sim::metrics;
use iac_sim::scenarios::des_campus::{run, CampusConfig};

fn main() {
    let cfg = CampusConfig {
        horizon_ms: 300.0,
        ..CampusConfig::paper_default(0x1AC_DE5)
    };
    println!(
        "=== dynamic-arrival campus uplink, {} ms of simulated time ===\n",
        cfg.horizon_ms
    );
    println!(
        "{} clients on 3 cooperating APs; cohort B leaves at {:.0} ms and rejoins at {:.0} ms,\n\
         cohort C associates at {:.0} ms; the last client is bursty ON/OFF.\n",
        cfg.n_clients,
        0.40 * cfg.horizon_ms,
        0.70 * cfg.horizon_ms,
        0.25 * cfg.horizon_ms
    );

    let report = run(&cfg);
    println!("{report}");

    // The deferred-ACK design (§7.1a) is visible in the raw records: an
    // uplink packet is not "delivered" until the next beacon's ACK map.
    println!("uplink latency CDF (ms):");
    let cdf = metrics::latency_cdf_ms(&report.log, Some(true));
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        if let Some((v, _)) = cdf.iter().find(|&&(_, f)| f >= q) {
            println!("  p{:<4} {:>8.2}", (q * 100.0) as u32, v);
        }
    }

    println!("\nqueue depth over time (sampled at each CFP start):");
    let n = report.log.queue_depth.len();
    for s in report.log.queue_depth.iter().step_by(n.div_ceil(12).max(1)) {
        println!(
            "  t={:>7.1}ms  down {:>3} {}  up {:>3} {}",
            s.time_us * 1e-3,
            s.downlink,
            "#".repeat(s.downlink.min(40)),
            s.uplink,
            "#".repeat(s.uplink.min(40)),
        );
    }

    println!("\nper-20ms-window fairness (Jain, active clients only):");
    let windows = metrics::windowed_jain(&report.log, 20_000.0, cfg.horizon_ms * 1e3);
    for (t_ms, j) in windows {
        println!(
            "  [{t_ms:>5.0}ms] {:.3} {}",
            j,
            "*".repeat((j * 30.0) as usize)
        );
    }
}
