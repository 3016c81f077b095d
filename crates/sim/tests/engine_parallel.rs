//! Determinism under parallelism: for **every** registered scenario, the
//! reduced report must be byte-identical whether the replicates run on 1, 2,
//! or 7 worker threads. This is the engine's core guarantee — trial-indexed
//! seeding plus order-independent reduction — checked against the real
//! scenario code, not a toy workload.

use iac_sim::registry::{self, Quality};

#[test]
fn every_scenario_is_bit_identical_across_thread_counts() {
    // 7 replicates, not 2: the engine caps the pool at the trial count,
    // so anything fewer would silently turn the 7-thread leg into a re-run
    // of the 2-thread leg and never exercise >2 concurrent workers.
    const REPLICATES: usize = 7;
    for spec in registry::all() {
        let reference = registry::run_scenario(&spec, Quality::Quick, 0x0D17_EA57, REPLICATES, 1);
        let reference_json = reference.to_json();
        for threads in [2, 7] {
            let parallel =
                registry::run_scenario(&spec, Quality::Quick, 0x0D17_EA57, REPLICATES, threads);
            assert_eq!(
                parallel.to_json(),
                reference_json,
                "scenario {} diverged at {threads} threads",
                spec.name
            );
            assert_eq!(
                parallel, reference,
                "scenario {} aggregate drifted",
                spec.name
            );
        }
    }
}

#[test]
fn replicates_are_statistically_independent_not_identical() {
    // The opposite failure mode of non-determinism: if every replicate
    // reused one seed, the CI would collapse to zero and the "statistics"
    // would be a single sample in disguise.
    //
    // Two scenarios report intentionally seed-invariant metrics (exact-zero
    // BER counts, frame-size byte accounting) and are excluded.
    const SEED_INVARIANT: [&str; 2] = ["sec6_modulation", "sec7_overhead"];
    for spec in registry::all() {
        if SEED_INVARIANT.contains(&spec.name) {
            continue;
        }
        let r = registry::run_scenario(&spec, Quality::Quick, 0xFEED, 2, 2);
        let varies = r
            .metrics
            .iter()
            .any(|m| m.values.windows(2).any(|w| w[0] != w[1]));
        assert!(
            varies,
            "scenario {}: both replicates produced identical metrics — seed derivation is not reaching the trials",
            spec.name
        );
    }
}

#[test]
fn thread_count_env_override_is_respected() {
    // `resolve_threads(0)` honours IAC_TEST_THREADS (the CI matrix runs the
    // suite at 1 and 4); explicit requests always win.
    assert_eq!(iac_sim::engine::resolve_threads(3), 3);
    let auto = iac_sim::engine::resolve_threads(0);
    if let Ok(v) = std::env::var("IAC_TEST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            assert_eq!(auto, n);
        }
    } else {
        assert!(auto >= 1);
    }
}
