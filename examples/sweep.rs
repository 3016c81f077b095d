//! The unified experiment CLI: every registered scenario behind one binary.
//!
//! Replaces the per-figure ad-hoc mains: pick a scenario (or `all`), a
//! replicate count, a worker-thread count, and a master seed, and get each
//! metric reported as `mean ± 95 % CI` over the replicates. Telemetry is
//! opt-in: `--metrics`/`--trace` export a metrics snapshot and a Chrome
//! trace without perturbing the aggregate output by a single byte.
//!
//! ```text
//! cargo run --release --example sweep -- --list
//! cargo run --release --example sweep -- --scenario fig14 --replicates 8
//! cargo run --release --example sweep -- --scenario all --paper --threads 8 --seed 42
//! cargo run --release --example sweep -- --scenario fig12 --json
//! cargo run --release --example sweep -- --scenario des_load --metrics m.json --trace t.json
//! cargo run --release --example sweep -- --scenario all --paper --timeout-secs 60
//! ```
//!
//! `--timeout-secs` bounds the whole sweep with the `iac-serve` daemon's
//! cooperative deadline machinery: the budget is checked between
//! replicates, the scenario in flight reports the replicates it completed,
//! the rest are skipped, and the process exits 124 (the `timeout(1)`
//! convention) instead of running unbounded.
//!
//! A panicking replicate does not abort the sweep: stderr names the
//! scenario and the replicate, that scenario's report is skipped, the rest
//! still run, and the process exits 1.
//!
//! Determinism guarantee (see `docs/EXPERIMENTS.md` and
//! `docs/OBSERVABILITY.md`): the aggregate output on **stdout** is
//! bit-identical for every `--threads` value and every telemetry-flag
//! combination — timing, progress, and telemetry go to stderr or to the
//! export files, everything seed-derived goes to stdout.
//!
//! The implementation lives in `iac_sim::cli` so the stream separation is
//! integration-tested (`crates/sim/tests/obs_invariance.rs`).

use iac_lan::sim::cli;

fn main() {
    let args = match cli::parse_sweep_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    let mut stderr = std::io::stderr().lock();
    match cli::run_sweep(&args, &mut stdout, &mut stderr) {
        Ok(cli::SweepOutcome::Completed) => {}
        Ok(cli::SweepOutcome::UnknownScenario) => std::process::exit(2),
        Ok(cli::SweepOutcome::TimedOut) => std::process::exit(124),
        Ok(cli::SweepOutcome::Panicked) => std::process::exit(1),
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}
