//! Global-free metric registry: counters, high-water gauges, and log₂
//! histograms with deterministic snapshot/merge/JSON semantics.
//!
//! There is deliberately no `static` registry — every consumer creates a
//! [`Registry`] and threads it to where it is needed, so two concurrent
//! harvests (say, parallel sweep shards) can never alias each other's
//! state. All three instrument types are monotone and commutative:
//!
//! * [`Counter`] — `add` only; merge sums.
//! * [`Gauge`] — high-water semantics (`observe` keeps the max); merge
//!   takes the max. This is the right shape for queue depths and pool
//!   sizes, where the interesting number is the worst case, and it keeps
//!   merges order-independent (a last-write-wins gauge would not be).
//! * [`Histogram`] — log₂ buckets plus exact count/sum/min/max; merge adds
//!   buckets and folds the extrema.
//!
//! Because every operation commutes, recording the same multiset of
//! observations in any interleaving — or sharding them across registries
//! and merging the [`Snapshot`]s in any order — yields byte-identical
//! JSON. The property test below pins this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water gauge: `observe` keeps the maximum ever seen.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Record a level; the gauge retains the maximum.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current high-water mark.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; bucket 64 holds values with the top
/// bit set.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucket histogram with exact count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log₂ bucket index for a value.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time value of one metric, detached from its atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge high-water mark.
    Gauge(u64),
    /// Histogram state: count, sum, min, max, and the non-empty buckets
    /// as `(bucket index, count)` pairs in ascending index order.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Smallest observation (`u64::MAX` when empty).
        min: u64,
        /// Largest observation (0 when empty).
        max: u64,
        /// Non-empty `(bucket index, count)` pairs, ascending.
        buckets: Vec<(usize, u64)>,
    },
}

/// A registry of named metrics. Handles are `Arc`s, so instrumented code
/// can clone one out once and hit the atomic directly afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the high-water gauge named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Detach a deterministic snapshot: entries in ascending name order,
    /// values read from the atomics.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        min: h.min.load(Ordering::Relaxed),
                        max: h.max.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let n = b.load(Ordering::Relaxed);
                                (n > 0).then_some((i, n))
                            })
                            .collect(),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

fn kind_of(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// A detached, order-deterministic view of a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The value of the counter named `name`, if it exists and is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// The high-water mark of the gauge named `name`, if it exists and is a
    /// gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(n) => Some(*n),
            _ => None,
        }
    }

    /// Merge `other` into `self`. Counters and histograms sum, gauges take
    /// the max; names present in only one side carry over. Merging is
    /// commutative and associative, so parallel shards reduce in any order
    /// to the same snapshot.
    ///
    /// # Panics
    /// Panics if the same name has different metric types on the two sides.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut map: BTreeMap<String, MetricValue> = self.entries.drain(..).collect();
        for (name, v) in &other.entries {
            match map.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    merge_value(name, e.get_mut(), v);
                }
            }
        }
        self.entries = map.into_iter().collect();
    }

    /// Serialize to compact JSON with metrics grouped by type, names in
    /// ascending order — byte-deterministic for a given logical content.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, v) in &self.entries {
            match v {
                MetricValue::Counter(n) => {
                    comma(&mut counters);
                    let _ = write!(counters, "{}:{n}", json_str(name));
                }
                MetricValue::Gauge(n) => {
                    comma(&mut gauges);
                    let _ = write!(gauges, "{}:{n}", json_str(name));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    comma(&mut histograms);
                    let mut b = String::new();
                    for &(i, n) in buckets {
                        comma(&mut b);
                        let _ = write!(b, "\"{i}\":{n}");
                    }
                    // An empty histogram's min is the u64::MAX sentinel;
                    // emit null so the JSON has no fake observation.
                    let min_s = if *count == 0 {
                        "null".to_string()
                    } else {
                        min.to_string()
                    };
                    let max_s = if *count == 0 {
                        "null".to_string()
                    } else {
                        max.to_string()
                    };
                    let _ = write!(
                        histograms,
                        "{}:{{\"count\":{count},\"sum\":{sum},\"min\":{min_s},\"max\":{max_s},\"buckets\":{{{b}}}}}",
                        json_str(name)
                    );
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }
}

fn merge_value(name: &str, a: &mut MetricValue, b: &MetricValue) {
    match (a, b) {
        (MetricValue::Counter(x), MetricValue::Counter(y)) => *x = x.wrapping_add(*y),
        (MetricValue::Gauge(x), MetricValue::Gauge(y)) => *x = (*x).max(*y),
        (
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            },
            MetricValue::Histogram {
                count: c2,
                sum: s2,
                min: m2,
                max: x2,
                buckets: b2,
            },
        ) => {
            // Wrapping, to match the silent wrap of the atomic `fetch_add`s
            // (so sharded-then-merged equals recorded-in-one even at the
            // u64 edge).
            *count = count.wrapping_add(*c2);
            *sum = sum.wrapping_add(*s2);
            *min = (*min).min(*m2);
            *max = (*max).max(*x2);
            let mut merged: BTreeMap<usize, u64> = buckets.drain(..).collect();
            for &(i, n) in b2 {
                let e = merged.entry(i).or_insert(0);
                *e = e.wrapping_add(n);
            }
            *buckets = merged.into_iter().collect();
        }
        _ => panic!("metric {name:?} has mismatched types across merged snapshots"),
    }
}

fn comma(s: &mut String) {
    if !s.is_empty() {
        s.push(',');
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes),
/// surrounding quotes included — metric names are plain identifiers, but
/// stay correct regardless. `iac-serve` encodes its protocol strings with
/// it too.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_semantics() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        let g = r.gauge("a.depth");
        g.observe(7);
        g.observe(3);
        assert_eq!(g.get(), 7, "gauge keeps the high-water mark");
        // Re-fetching by name hits the same atomic.
        r.counter("a.count").inc();
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn snapshot_named_accessors() {
        let r = Registry::new();
        r.counter("serve.requests").add(9);
        r.gauge("serve.queue_high_water").observe(4);
        r.histogram("serve.latency_us").observe(10);
        let s = r.snapshot();
        assert_eq!(s.counter("serve.requests"), Some(9));
        assert_eq!(s.gauge("serve.queue_high_water"), Some(4));
        // Wrong type or missing name: None, never a panic.
        assert_eq!(s.counter("serve.queue_high_water"), None);
        assert_eq!(s.gauge("serve.requests"), None);
        assert_eq!(s.counter("nonesuch"), None);
        assert!(matches!(
            s.get("serve.latency_us"),
            Some(MetricValue::Histogram { count: 1, .. })
        ));
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_extrema_and_buckets() {
        let r = Registry::new();
        let h = r.histogram("t.ns");
        for v in [0u64, 5, 5, 1000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let (_, v) = &snap.entries[0];
        match v {
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                assert_eq!((*count, *sum, *min, *max), (4, 1010, 0, 1000));
                assert_eq!(buckets, &vec![(0, 1), (3, 2), (10, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_collision_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_orders_by_name_and_json_is_compact() {
        let r = Registry::new();
        r.counter("z.last").add(2);
        r.counter("a.first").inc();
        r.gauge("m.depth").observe(4);
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.last\":2},\"gauges\":{\"m.depth\":4},\"histograms\":{}}"
        );
    }

    #[test]
    fn empty_histogram_serializes_null_extrema() {
        let r = Registry::new();
        r.histogram("h");
        assert_eq!(
            r.snapshot().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"count\":0,\"sum\":0,\"min\":null,\"max\":null,\"buckets\":{}}}}"
        );
    }

    #[test]
    fn merge_is_commutative() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.gauge("g").observe(9);
        a.histogram("h").observe(3);
        let b = Registry::new();
        b.counter("c").add(5);
        b.counter("only_b").inc();
        b.gauge("g").observe(4);
        b.histogram("h").observe(100);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert!(ab.to_json().contains("\"c\":7"));
        assert!(ab.to_json().contains("\"g\":9"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
