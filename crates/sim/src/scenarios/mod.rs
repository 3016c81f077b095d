//! One module per paper artifact. Each builds its report from a config and
//! a seed (the DES scenarios through a run list and a reduce); the registry
//! (`crate::registry`) reduces every report to its named metrics, and
//! `sweep --scenario <s>` runs it (`docs/BENCHMARKS.md` maps artifacts to
//! scenarios). The reports the narrated examples print implement `Display`,
//! showing the figure's series and headline numbers next to the paper's
//! reported values.

pub(crate) mod ablations;
pub mod clustered;
pub mod des_campus;
pub mod des_load;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub(crate) mod fig16;
pub(crate) mod lemmas;
pub(crate) mod ofdm;
pub(crate) mod overhead;
pub mod robustness;
pub mod sec6;
