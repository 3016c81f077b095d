//! Satellite: cache integrity.
//!
//! Two contracts:
//!
//! 1. **Bit-identity** — for every registry scenario at `Quality::Quick`,
//!    the cache-hit response carries the byte-identical `report` payload
//!    to the cold-path response, which is itself byte-identical to
//!    `registry::run_scenario`. The result envelope differs *only* in the
//!    `cached` flag, and none of it depends on the worker count.
//! 2. **Corruption recovery** — flip any single byte of a committed entry
//!    and the daemon never serves it: the startup recovery scan (or the
//!    lazy read-path check) quarantines the entry and the next request
//!    recomputes.

use iac_serve::{CacheKey, Daemon, DaemonConfig, ResultCache};
use iac_sim::registry::{self, Quality};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iac_serve_cache_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn daemon_with(cache_dir: &std::path::Path, workers: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        workers,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..DaemonConfig::default()
    })
    .expect("daemon builds")
}

fn drive(daemon: &Daemon, line: &str) -> Vec<String> {
    let mut out = Vec::new();
    daemon.handle_line(line.as_bytes(), &mut |l| out.push(l.to_string()));
    out
}

fn run_line(scenario: &str) -> String {
    format!(r#"{{"type":"run","id":"q","scenario":"{scenario}","seed":11,"replicates":2}}"#)
}

#[test]
fn every_registry_scenario_hits_bit_identical_across_worker_counts() {
    let dir = tmp_dir("bitident");
    let scenarios = registry::all();
    let daemon4 = daemon_with(&dir, 4);
    let mut cold_results = Vec::new();
    for spec in &scenarios {
        // Cold: computes on the pool, commits, and must equal the plain
        // registry path byte for byte.
        let cold = drive(&daemon4, &run_line(spec.name));
        let want = registry::run_scenario(spec, Quality::Quick, 11, 2, 1).to_json();
        let cold_result = cold.last().unwrap().clone();
        assert!(
            cold_result.contains(&format!("\"report\":{want}}}")),
            "{}: cold report drifted from registry\n{cold_result}",
            spec.name
        );
        assert!(cold_result.contains("\"cached\":false"), "{cold_result}");

        // Hit: byte-identical except the cached flag, no recompute.
        let hit = drive(&daemon4, &run_line(spec.name));
        assert_eq!(
            hit.len(),
            1,
            "{}: a hit streams no replicate lines",
            spec.name
        );
        assert_eq!(
            hit[0],
            cold_result.replace("\"cached\":false", "\"cached\":true"),
            "{}: hit envelope drifted",
            spec.name
        );
        cold_results.push(cold_result);
    }
    let hits4 = daemon4.metrics().cache_hits.get();
    assert_eq!(hits4 as usize, scenarios.len());
    daemon4.shutdown();

    // A fresh daemon at 1 worker over the same cache directory: its
    // recovery scan validates every entry and every request hits with the
    // same bytes — cached results are worker-count invariant.
    let daemon1 = daemon_with(&dir, 1);
    assert_eq!(daemon1.recovery().valid, scenarios.len());
    assert_eq!(daemon1.recovery().quarantined, 0);
    for (spec, cold_result) in scenarios.iter().zip(&cold_results) {
        let hit = drive(&daemon1, &run_line(spec.name));
        assert_eq!(
            hit[0],
            cold_result.replace("\"cached\":false", "\"cached\":true"),
            "{}: 1-worker hit differs from 4-worker cold result",
            spec.name
        );
    }
    daemon1.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_single_byte_corruption_is_quarantined_and_recomputed() {
    let dir = tmp_dir("flips");
    let key = CacheKey {
        scenario: "fig12".to_string(),
        quality: Quality::Quick,
        seed: 11,
        replicates: 2,
    };
    let (cache, _) = ResultCache::open(&dir).unwrap();
    let spec = registry::find("fig12").unwrap();
    let report = registry::run_scenario(&spec, Quality::Quick, 11, 2, 1).to_json();
    cache.put(&key, &report).unwrap();
    let path = cache.entry_path(&key);
    let committed = std::fs::read(&path).unwrap();
    assert!(committed.len() > 100);
    drop(cache);

    // Each flip rewrites the one byte in place and, once caught, moves the
    // quarantined entry back and undoes the flip. A fresh commit per flip
    // would free an fsync'd file per flip, which is the slow part on disks
    // that discard freed blocks; recommitting is checked once per mask.
    // The one file in `quarantine/`, whatever the cache named it.
    let quarantined = || {
        let mut files = std::fs::read_dir(dir.join("quarantine")).unwrap();
        let file = files.next().expect("a quarantined file").unwrap().path();
        assert!(files.next().is_none(), "one quarantined file");
        file
    };
    let flip_in_place = |pos: usize, flip: u8| {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(pos as u64)).unwrap();
        f.write_all(&[committed[pos] ^ flip]).unwrap();
    };
    for flip in [0x01u8, 0xFF] {
        for pos in 0..committed.len() {
            flip_in_place(pos, flip);

            // The startup recovery scan must catch it...
            let (cache, recovery) = ResultCache::open(&dir).unwrap();
            assert_eq!(
                (recovery.valid, recovery.quarantined),
                (0, 1),
                "flip {flip:#04x} at byte {pos} survived the recovery scan"
            );
            // ...and the daemon-side read path must miss.
            assert_eq!(cache.get(&key), None, "byte {pos}");
            std::fs::rename(quarantined(), &path).unwrap();
            flip_in_place(pos, 0);
        }
        assert_eq!(std::fs::read(&path).unwrap(), committed);

        // A missed entry is recomputed and recommitted with the pristine
        // bytes.
        flip_in_place(committed.len() - 1, flip);
        let (cache, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!(recovery.quarantined, 1);
        assert_eq!(cache.get(&key), None);
        cache.put(&key, &report).unwrap();
        assert_eq!(cache.get(&key).as_deref(), Some(report.as_str()));
        assert_eq!(std::fs::read(&path).unwrap(), committed);
        std::fs::remove_file(quarantined()).unwrap();
    }

    // The lazy (read-path) check catches live corruption too, without a
    // restart: corrupt after open, then get().
    let (cache, recovery) = ResultCache::open(&dir).unwrap();
    assert_eq!(recovery.valid, 1);
    let mut corrupt = committed.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    assert_eq!(cache.get(&key), None, "live corruption served");
    assert_eq!(cache.quarantined_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
