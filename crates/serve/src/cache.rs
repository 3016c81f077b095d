//! Content-addressed, crash-safe result cache.
//!
//! Completed `(scenario, quality, seed, replicates)` runs persist to disk so
//! repeated requests are free across daemon restarts. The layout is designed
//! so that *no* write can leave a half-entry that later gets served:
//!
//! - **Content addressing** — the canonical key string (see [`CacheKey`])
//!   is FNV-1a-64 hashed into the file name `<hex16>.iacr`. The key string
//!   is also stored *inside* the entry and checked on read, so a hash
//!   collision degrades to a miss, never a wrong answer.
//! - **Per-entry checksum** — the last line is the FNV-1a-64 of everything
//!   before it. A torn or bit-flipped entry fails validation.
//! - **Atomic commit** — entries are written to a `tmp-*` sibling and
//!   `rename`d into place; readers only ever see absent or complete files.
//! - **Recovery scan** — [`ResultCache::open`] validates every entry and
//!   moves corrupt ones to `quarantine/` (preserved for post-mortem, each
//!   copy under its own `.<n>` suffix, never served).
//!   [`ResultCache::get`] re-validates on every hit and quarantines lazily
//!   too, so corruption introduced *while the daemon is running* is also
//!   caught.
//!
//! Entry format (three `\n`-terminated lines):
//!
//! ```text
//! IACR1 <canonical key>
//! <report JSON, verbatim ScenarioReport::to_json() bytes>
//! <16-hex-digit FNV-1a-64 of the previous two lines>
//! ```
//!
//! The cached payload is the **exact** byte string the cold path produced,
//! so cache hits are bit-identical to recomputation (pinned by
//! `tests/cache_integrity.rs`).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use iac_sim::registry::Quality;

/// FNV-1a 64-bit, the same construction the scenario registry uses for
/// name-derived seeds.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of a cacheable run. Two requests with equal keys are guaranteed
/// (by the engine's determinism contract) to produce byte-identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Scenario name.
    pub scenario: String,
    /// Trial sizing.
    pub quality: Quality,
    /// Master sweep seed.
    pub seed: u64,
    /// Replicate count (partial/timed-out runs are never cached).
    pub replicates: usize,
}

impl CacheKey {
    /// The canonical key string embedded in entries and hashed for the
    /// file name. Spaces cannot occur in scenario names, so the encoding
    /// is unambiguous.
    pub(crate) fn canonical(&self) -> String {
        format!(
            "{} {} {:#018x} {}",
            self.scenario,
            self.quality.label(),
            self.seed,
            self.replicates
        )
    }

    /// Entry file name: `<fnv1a64(canonical) as 16 hex digits>.iacr`.
    pub fn file_name(&self) -> String {
        format!("{:016x}.iacr", fnv1a64(self.canonical().as_bytes()))
    }
}

/// What the startup recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries that validated.
    pub valid: usize,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: usize,
    /// Abandoned `tmp-*` files from an interrupted writer, deleted.
    pub stale_tmp: usize,
}

/// One cache lookup's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// Committed entry validated; payload is the verbatim report JSON.
    Hit(String),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation and was moved to
    /// `quarantine/`; the caller should recompute (and overwrite).
    Quarantined,
}

/// The on-disk cache. All methods take `&self`; concurrent use is safe
/// because commits are atomic renames and reads validate checksums.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    tmp_counter: AtomicU64,
}

const MAGIC: &str = "IACR1 ";

fn entry_bytes(canonical: &str, report_json: &str) -> Vec<u8> {
    let body = format!("{MAGIC}{canonical}\n{report_json}\n");
    let sum = fnv1a64(body.as_bytes());
    format!("{body}{sum:016x}\n").into_bytes()
}

/// Validate entry bytes against the expected canonical key; return the
/// report JSON on success.
fn validate(bytes: &[u8], want_canonical: &str) -> Result<String, &'static str> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8")?;
    // Three newline-terminated lines exactly.
    let mut lines = text.split_inclusive('\n');
    let header = lines.next().ok_or("empty")?;
    let report = lines.next().ok_or("missing report line")?;
    let sum_line = lines.next().ok_or("missing checksum line")?;
    if lines.next().is_some() {
        return Err("trailing data");
    }
    let header = header.strip_suffix('\n').ok_or("unterminated header")?;
    let report = report.strip_suffix('\n').ok_or("unterminated report")?;
    let sum_line = sum_line.strip_suffix('\n').ok_or("unterminated checksum")?;
    let canonical = header.strip_prefix(MAGIC).ok_or("bad magic")?;
    let body_len = bytes.len() - sum_line.len() - 1;
    let want_sum = fnv1a64(&bytes[..body_len]);
    let got_sum = u64::from_str_radix(sum_line, 16).map_err(|_| "unparseable checksum")?;
    if sum_line.len() != 16 || got_sum != want_sum {
        return Err("checksum mismatch");
    }
    if canonical != want_canonical {
        // Hash collision or renamed file: checksum fine, wrong identity.
        return Err("key mismatch");
    }
    Ok(report.to_string())
}

impl ResultCache {
    /// Open (creating if needed) the cache at `dir` and run the recovery
    /// scan: delete stale temp files, validate every `*.iacr` entry's
    /// checksum, and quarantine corrupt ones.
    pub fn open(dir: &Path) -> std::io::Result<(Self, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        fs::create_dir_all(dir.join("quarantine"))?;
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            tmp_counter: AtomicU64::new(0),
        };
        let mut report = RecoveryReport::default();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("tmp-") {
                let _ = fs::remove_file(&path);
                report.stale_tmp += 1;
                continue;
            }
            if !name.ends_with(".iacr") {
                continue;
            }
            // Recovery validates structure + checksum + that the stored key
            // actually hashes to this file name.
            let ok = fs::read(&path).ok().and_then(|bytes| {
                let text = std::str::from_utf8(&bytes).ok()?;
                let canonical = text.lines().next()?.strip_prefix(MAGIC)?;
                let want_name = format!("{:016x}.iacr", fnv1a64(canonical.as_bytes()));
                let canonical = canonical.to_string();
                (want_name == name).then_some(())?;
                validate(&bytes, &canonical).ok()
            });
            if ok.is_some() {
                report.valid += 1;
            } else {
                cache.quarantine(&path);
                report.quarantined += 1;
            }
        }
        Ok((cache, report))
    }

    /// Path a key's entry lives at.
    ///
    /// Also a hook for `tests/cache_integrity.rs`, which corrupts entries on disk.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Look up a committed report. Returns the verbatim report JSON, or
    /// `None` on miss. A present-but-corrupt entry is quarantined and
    /// reported as a miss (the caller recomputes and overwrites).
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        match self.get_detailed(key) {
            CacheLookup::Hit(report) => Some(report),
            CacheLookup::Miss | CacheLookup::Quarantined => None,
        }
    }

    /// [`ResultCache::get`] distinguishing a clean miss from a corrupt
    /// entry that was just quarantined (the daemon counts the latter).
    pub(crate) fn get_detailed(&self, key: &CacheKey) -> CacheLookup {
        let path = self.entry_path(key);
        let Ok(bytes) = fs::read(&path) else {
            return CacheLookup::Miss;
        };
        match validate(&bytes, &key.canonical()) {
            Ok(report) => CacheLookup::Hit(report),
            Err(_) => {
                self.quarantine(&path);
                CacheLookup::Quarantined
            }
        }
    }

    /// Commit a completed run's report atomically: write a temp sibling,
    /// then `rename` over the entry path. Readers never observe a partial
    /// entry; a crash mid-write leaves only a `tmp-*` file the next
    /// recovery scan deletes.
    pub fn put(&self, key: &CacheKey, report_json: &str) -> std::io::Result<()> {
        let bytes = entry_bytes(&key.canonical(), report_json);
        let tmp = self.dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.entry_path(key))
    }

    /// Move a corrupt entry into `quarantine/` as `<name>.<n>`, the first
    /// `n` no earlier copy holds. The name is claimed with `hard_link`,
    /// which fails rather than replace an existing file, so a later
    /// corruption of the same key, or a concurrent reader quarantining the
    /// same entry, never replaces an earlier copy. Best-effort: if the entry
    /// is already gone (another reader moved it) or cannot be linked, it is
    /// left alone and simply fails validation again; a recommit that lands
    /// between the link and the removal is quarantined too and recomputed.
    fn quarantine(&self, path: &Path) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let dir = self.dir.join("quarantine");
        for n in 0u64.. {
            match fs::hard_link(path, dir.join(format!("{name}.{n}"))) {
                Ok(()) => {
                    let _ = fs::remove_file(path);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(_) => return,
            }
        }
    }

    /// Number of quarantined files (for tests and the stats endpoint).
    ///
    /// No production caller: a hook for `tests/cache_integrity.rs`.
    pub fn quarantined_count(&self) -> usize {
        fs::read_dir(self.dir.join("quarantine"))
            .map(|d| d.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("iac_serve_cache_unit_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key() -> CacheKey {
        CacheKey {
            scenario: "fig12".to_string(),
            quality: Quality::Quick,
            seed: 0x1AC_2009,
            replicates: 4,
        }
    }

    #[test]
    fn put_get_round_trips_verbatim() {
        let dir = tmp_dir("roundtrip");
        let (cache, rec) = ResultCache::open(&dir).unwrap();
        assert_eq!(rec, RecoveryReport::default());
        let report = r#"{"scenario":"fig12","metrics":{"x":1.5}}"#;
        assert_eq!(cache.get(&key()), None);
        cache.put(&key(), report).unwrap();
        assert_eq!(cache.get(&key()).as_deref(), Some(report));
        // Different replicates → different key → miss.
        let other = CacheKey {
            replicates: 5,
            ..key()
        };
        assert_eq!(cache.get(&other), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_corruption_and_sweeps_tmp() {
        let dir = tmp_dir("recovery");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        cache.put(&key(), "{\"ok\":1}").unwrap();
        // Flip one byte in the committed entry and strand a temp file.
        let path = cache.entry_path(&key());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        fs::write(dir.join("tmp-999-0"), b"half-written").unwrap();

        let (cache, rec) = ResultCache::open(&dir).unwrap();
        assert_eq!(
            rec,
            RecoveryReport {
                valid: 0,
                quarantined: 1,
                stale_tmp: 1
            }
        );
        assert_eq!(cache.get(&key()), None, "quarantined entry must not hit");
        assert_eq!(cache.quarantined_count(), 1);
        assert!(!path.exists(), "corrupt entry moved, not copied");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_get_quarantines_lazily() {
        let dir = tmp_dir("lazy");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        cache.put(&key(), "{\"ok\":2}").unwrap();
        let path = cache.entry_path(&key());
        fs::write(&path, b"IACR1 not even close\n").unwrap();
        assert_eq!(cache.get(&key()), None);
        assert!(!path.exists());
        assert_eq!(cache.quarantined_count(), 1);
        // Recompute-and-overwrite restores service.
        cache.put(&key(), "{\"ok\":2}").unwrap();
        assert_eq!(cache.get(&key()).as_deref(), Some("{\"ok\":2}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_corruption_keeps_every_quarantined_copy() {
        let dir = tmp_dir("twice");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let path = cache.entry_path(&key());
        cache.put(&key(), "{\"ok\":3}").unwrap();
        fs::write(&path, b"IACR1 first corruption\n").unwrap();
        assert_eq!(cache.get(&key()), None);
        let quarantined = || {
            let mut files: Vec<_> = fs::read_dir(dir.join("quarantine"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
        };
        let [first] = quarantined().try_into().expect("one copy");
        // Recommit, corrupt again: the second copy lands beside the first.
        cache.put(&key(), "{\"ok\":3}").unwrap();
        fs::write(&path, b"IACR1 second corruption\n").unwrap();
        assert_eq!(cache.get(&key()), None);
        assert_eq!(cache.quarantined_count(), 2);
        assert_eq!(fs::read(&first).unwrap(), b"IACR1 first corruption\n");
        assert!(quarantined().contains(&first));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_keys_distinguish_every_field() {
        let base = key();
        let variants = [
            CacheKey {
                scenario: "fig14".to_string(),
                ..base.clone()
            },
            CacheKey {
                quality: Quality::Paper,
                ..base.clone()
            },
            CacheKey {
                seed: 7,
                ..base.clone()
            },
            CacheKey {
                replicates: 40,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical());
            assert_ne!(v.file_name(), base.file_name());
        }
    }
}
