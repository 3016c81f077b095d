//! Campus uplink: the Fig. 12 and Fig. 13a experiments at reduced scale.
//!
//! Random client/AP picks from the 20-node testbed, same slot budget for
//! 802.11-MIMO and IAC, Eq. 9 rates, Eq. 10 gains — exactly the paper's
//! methodology (§10e), with ASCII scatter plots.
//!
//! Run with: `cargo run --release --example campus_uplink`

use iac_core::grid::Direction;
use iac_sim::experiment::{ExperimentConfig, DEFAULT_SEED};
use iac_sim::scenarios::{fig12, fig13};

fn main() {
    let cfg = ExperimentConfig {
        picks: 24,
        slots: 60,
        ..ExperimentConfig::paper_default(DEFAULT_SEED)
    };

    println!("=== 2 clients / 2 APs, three concurrent packets ===\n");
    let twelve = fig12::run(&cfg);
    println!("{twelve}");

    println!("\n=== 3 clients / 3 APs, four concurrent packets ===\n");
    let thirteen = fig13::run(&cfg, Direction::Uplink);
    println!("{thirteen}");
}
