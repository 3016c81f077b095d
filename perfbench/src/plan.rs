//! What each workload runs, derived from the seed alone, and the catalogue
//! of metrics the benchmark reports.

use iac_linalg::Rng64;
use iac_serve::protocol::{encode_request, Request, RunRequest};
use iac_sim::registry::{self, Quality, Scenario};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The matrix-plane scenarios at quick quality.
    SweepMatrix,
    /// The sample-plane and DES scenarios at paper quality.
    SweepTimedomain,
    /// A closed-loop client on an in-process `iac-serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepMatrix,
        Workload::SweepTimedomain,
        Workload::ServeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepMatrix => "sweep_matrix",
            Workload::SweepTimedomain => "sweep_timedomain",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `sweep_matrix`: figs 12–17, the lemmas, the overhead accounting and the
/// three ablations — every scenario that never touches the sample plane or
/// the DES.
pub const MATRIX_SCENARIOS: [&str; 13] = [
    "fig12",
    "fig13a",
    "fig13b",
    "fig14",
    "fig15a",
    "fig15b",
    "fig16",
    "fig17",
    "lemmas",
    "sec7_overhead",
    "ablation_estimation",
    "ablation_similarity",
    "ablation_alignment",
];

/// `sweep_timedomain`: the §6 sample-plane checks and the DES family.
pub const TIMEDOMAIN_SCENARIOS: [&str; 8] = [
    "sec6_cfo",
    "sec6_modulation",
    "sec6_ofdm",
    "des_campus",
    "des_load",
    "rob_ap_churn",
    "rob_backhaul_partition",
    "rob_csi_aging",
];

/// `serve_mixed`'s scenarios: cheap ones from every plane. fig15 is left
/// out so that no single key dominates the miss path, and `lemmas` because
/// its solver's cost swings 3× with the seed, right at the median request.
pub const SERVE_SCENARIOS: [&str; 12] = [
    "fig12",
    "fig13a",
    "fig13b",
    "fig14",
    "fig16",
    "fig17",
    "sec6_modulation",
    "sec6_ofdm",
    "des_campus",
    "des_load",
    "rob_ap_churn",
    "rob_csi_aging",
];

/// Master seeds per serve scenario: the key space is
/// `SERVE_SCENARIOS × SERVE_SEEDS`.
pub const SERVE_SEEDS: u64 = 8;

/// One key in this many (two seeds of every scenario) is requested a
/// second time, a hit. Every other request misses, so a fifth of the
/// stream hits and the median request sits mid-way through the misses,
/// away from the steps between scenarios' costs.
pub const SERVE_REPEAT_EVERY: usize = 4;

/// Replicates per serve request. One keeps a pass short, so a run makes
/// enough passes for each request's fastest time to settle.
pub const SERVE_REPLICATES: usize = 1;

/// Rng stream ids under the benchmark seed, one per derived input.
const ORDER_STREAM: u64 = 1;
const STREAM_ORDER_STREAM: u64 = 2;
const KEY_SEED_STREAM: u64 = 3;

/// One sweep workload: scenarios in a seeded order, reduced at their
/// registry replicate counts.
#[derive(Clone)]
pub struct Sweep {
    /// Trial sizing.
    pub quality: Quality,
    /// Registry master seed (the benchmark seed).
    pub master_seed: u64,
    /// The scenarios, in the order a pass runs them.
    pub specs: Vec<Scenario>,
}

impl Sweep {
    /// The sweep a workload runs; `None` for `serve_mixed`.
    pub fn of(workload: Workload, seed: u64) -> Option<Sweep> {
        match workload {
            Workload::SweepMatrix => Some(Sweep::build(&MATRIX_SCENARIOS, Quality::Quick, seed)),
            Workload::SweepTimedomain => {
                Some(Sweep::build(&TIMEDOMAIN_SCENARIOS, Quality::Paper, seed))
            }
            Workload::ServeMixed => None,
        }
    }

    fn build(names: &[&str], quality: Quality, seed: u64) -> Sweep {
        let all = registry::all();
        let mut specs: Vec<Scenario> = names
            .iter()
            .map(|name| {
                *all.iter()
                    .find(|s| s.name == *name)
                    .unwrap_or_else(|| panic!("scenario {name} is not registered"))
            })
            .collect();
        Rng64::derive(seed, ORDER_STREAM).shuffle(&mut specs);
        Sweep {
            quality,
            master_seed: seed,
            specs,
        }
    }

    /// Trials one pass runs.
    pub fn trials_per_pass(&self) -> usize {
        self.specs.iter().map(|s| s.default_replicates).sum()
    }
}

/// One cache key of the serve stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeKey {
    /// Registry scenario.
    pub scenario: &'static str,
    /// Master seed of the request.
    pub seed: u64,
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Index into [`Stream::keys`].
    pub key: usize,
    /// The JSON line the client sends.
    pub line: String,
    /// Whether an earlier request in the pass already filled this key.
    pub expect_hit: bool,
}

/// The seeded request stream of `serve_mixed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Distinct keys.
    pub keys: Vec<ServeKey>,
    /// Requests in send order.
    pub requests: Vec<ServeRequest>,
}

impl Stream {
    /// Build the stream for a benchmark seed: every key once, one key in
    /// [`SERVE_REPEAT_EVERY`] twice, in a seeded order.
    pub fn new(seed: u64) -> Stream {
        let keys: Vec<ServeKey> = SERVE_SCENARIOS
            .iter()
            .flat_map(|&scenario| {
                (0..SERVE_SEEDS).map(move |k| ServeKey {
                    scenario,
                    seed: Rng64::derive_seed(Rng64::derive_seed(seed, KEY_SEED_STREAM), k),
                })
            })
            .collect();
        let mut order: Vec<usize> = (0..keys.len())
            .chain((0..keys.len()).step_by(SERVE_REPEAT_EVERY))
            .collect();
        Rng64::derive(seed, STREAM_ORDER_STREAM).shuffle(&mut order);
        let mut seen = vec![false; keys.len()];
        let requests = order
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                let expect_hit = std::mem::replace(&mut seen[key], true);
                ServeRequest {
                    key,
                    line: run_line(&format!("q{i}"), keys[key], false, SERVE_REPLICATES),
                    expect_hit,
                }
            })
            .collect();
        Stream { keys, requests }
    }

    /// Requests a pass expects the cache to answer.
    pub fn expected_hits(&self) -> usize {
        self.requests.iter().filter(|r| r.expect_hit).count()
    }
}

/// Encode a quick `run` request line.
pub fn run_line(id: &str, key: ServeKey, no_cache: bool, replicates: usize) -> String {
    encode_request(&Request::Run(RunRequest {
        id: id.to_string(),
        scenario: key.scenario.to_string(),
        quality: Quality::Quick,
        seed: Some(key.seed),
        replicates: Some(replicates),
        deadline_ms: None,
        no_cache,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 7, 0x1AC_2009] {
            for w in Workload::ALL {
                let (a, b) = (Sweep::of(w, seed), Sweep::of(w, seed));
                let names = |s: Option<Sweep>| -> Option<Vec<&str>> {
                    s.map(|s| s.specs.iter().map(|x| x.name).collect())
                };
                assert_eq!(names(a), names(b), "{} order differs", w.name());
            }
            let (a, b) = (Stream::new(seed), Stream::new(seed));
            assert_eq!(a, b);
            assert_eq!(a.expected_hits(), b.expected_hits());
        }
        // Another seed reorders the sweep and redraws the stream.
        let order = |seed| -> Vec<&str> {
            Sweep::of(Workload::SweepMatrix, seed)
                .unwrap()
                .specs
                .iter()
                .map(|s| s.name)
                .collect()
        };
        assert_ne!(order(1), order(2));
        assert_ne!(Stream::new(1), Stream::new(2));
    }

    #[test]
    fn stream_mix_is_one_fifth_hits() {
        let s = Stream::new(5);
        let n = SERVE_SCENARIOS.len() * SERVE_SEEDS as usize;
        assert_eq!(s.keys.len(), n);
        assert_eq!(s.requests.len(), n + n / SERVE_REPEAT_EVERY);
        assert_eq!(s.expected_hits() * 5, s.requests.len());
        // The first request of each key is the one expected to miss.
        let mut seen = std::collections::HashSet::new();
        for r in &s.requests {
            assert_eq!(r.expect_hit, !seen.insert(r.key));
        }
    }

    #[test]
    fn sweeps_cover_their_scenario_lists() {
        let m = Sweep::of(Workload::SweepMatrix, 3).unwrap();
        let t = Sweep::of(Workload::SweepTimedomain, 3).unwrap();
        assert_eq!(m.specs.len(), MATRIX_SCENARIOS.len());
        assert_eq!(t.specs.len(), TIMEDOMAIN_SCENARIOS.len());
        assert_eq!(m.quality, Quality::Quick);
        assert_eq!(t.quality, Quality::Paper);
        assert!(Sweep::of(Workload::ServeMixed, 3).is_none());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nonesuch"), None);
    }
}
