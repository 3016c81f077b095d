//! Conference room: the Fig. 15 whole-testbed experiment.
//!
//! 17 backlogged clients, 3 APs, three concurrency algorithms (brute force /
//! FIFO / best-of-two). Shows the throughput-fairness tradeoff: brute force
//! starves weak clients, FIFO wastes rate, best-of-two balances both.
//!
//! Run with: `cargo run --release --example conference_room`

use iac_core::grid::Direction;
use iac_sim::experiment::DEFAULT_SEED;
use iac_sim::scenarios::fig15::{run, Fig15Config};

fn main() {
    let mut cfg = Fig15Config::paper_default(DEFAULT_SEED);
    // Example-sized run (`sweep --scenario fig15a --paper` runs the
    // paper-quality version).
    cfg.base.slots = 250;
    cfg.runs = 1;

    println!("=== uplink (4 concurrent packets per group) ===\n");
    println!("{}", run(&cfg, Direction::Uplink));

    println!("\n=== downlink (3 concurrent packets per group) ===\n");
    println!("{}", run(&cfg, Direction::Downlink));
}
