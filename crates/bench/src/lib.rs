//! Benchmark support for the workspace.
//!
//! The paper's artifacts are regenerated by the scenario registry
//! (`cargo run --release --example sweep -- --scenario <s> --paper`), not
//! here; see `docs/BENCHMARKS.md`. This crate holds what measures the
//! implementation itself:
//!
//! * [`micro`] — the shared §9 micro-benchmark registry, run by the
//!   `micro_ops` bench target, the `baseline` binary and perfbench's probes;
//! * [`baseline`] — the regression harness behind the `baseline` binary and
//!   the committed `BENCH_*.json` files (see `docs/PERFORMANCE.md`);
//! * the `parallel_sweep` bench target and the `scaling_smoke` binary — the
//!   experiment engine's determinism and scaling checks;
//! * `tests/alloc_count.rs` — the zero-allocation proof of the hot loops.

pub mod baseline;
pub mod micro;
