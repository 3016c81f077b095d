//! Scoped span timing aggregated into a parent/child profile tree.
//!
//! A [`Profiler`] owns an arena of span nodes plus the currently-open span
//! stack for one thread of execution (it is deliberately `!Sync` — each
//! engine worker gets its own and the trees merge afterwards, the same
//! shard-then-reduce shape the metric snapshots use). Opening a span with
//! the [`span!`](crate::span!) macro finds-or-creates the node under the
//! currently open span and starts its timer; dropping the returned
//! [`SpanGuard`] closes it, folding the elapsed nanoseconds into the
//! node's count/total/min/max and into the parent's child-time (so
//! *self* time falls out as `total − children` at snapshot time).
//!
//! Guards must close in LIFO order — which scoping gives for free; the
//! only way to violate it is deliberately `drop`ping an outer guard early.
//!
//! [`Profiler::with_trace`] additionally records one Chrome-trace complete
//! event (`ph:"X"`) per span for [`crate::trace::chrome_trace_json`].

use crate::metrics::json_str;
use crate::trace::TraceEvent;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-thread span profiler. Create one per worker; merge the resulting
/// [`ProfileTree`]s.
#[derive(Debug)]
pub struct Profiler {
    inner: RefCell<Inner>,
    // Only the enabled-mode `SpanGuard` reads these; without the feature
    // the profiler is an inert shell that snapshots empty trees.
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    origin: Instant,
}

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[derive(Debug)]
struct Inner {
    /// Span arena; index 0 is the synthetic root (never itself a span).
    nodes: Vec<Node>,
    /// Indices of the currently open spans, outermost first (0 = root).
    stack: Vec<usize>,
    /// Captured Chrome-trace events, when tracing is on.
    events: Vec<TraceEvent>,
    trace: bool,
    lane: u32,
}

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Node {
    fn new(name: &'static str, parent: usize) -> Self {
        Node {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            child_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An aggregate-only profiler (no per-span trace events retained).
    pub fn new() -> Self {
        Self::build(false, 0, Instant::now())
    }

    /// A profiler that also captures one Chrome-trace event per span,
    /// tagged with worker lane `lane` (the trace `tid`). Timestamps are
    /// relative to `origin` so lanes from one run share a time base.
    pub fn with_trace(lane: u32, origin: Instant) -> Self {
        Self::build(true, lane, origin)
    }

    fn build(trace: bool, lane: u32, origin: Instant) -> Self {
        Profiler {
            inner: RefCell::new(Inner {
                nodes: vec![Node::new("<root>", 0)],
                stack: vec![0],
                events: Vec::new(),
                trace,
                lane,
            }),
            origin,
        }
    }

    /// Snapshot the aggregated tree (children in name order, so equal
    /// span structures snapshot to equal trees regardless of first-call
    /// order).
    pub fn tree(&self) -> ProfileTree {
        let inner = self.inner.borrow();
        ProfileTree {
            roots: collect_children(&inner.nodes, 0),
        }
    }

    /// Drain the captured Chrome-trace events (empty unless built with
    /// [`Profiler::with_trace`]).
    pub fn take_trace_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.borrow_mut().events)
    }
}

fn collect_children(nodes: &[Node], idx: usize) -> Vec<ProfileNode> {
    let mut out: Vec<ProfileNode> = nodes[idx]
        .children
        .iter()
        .map(|&c| {
            let n = &nodes[c];
            ProfileNode {
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
                min_ns: n.min_ns,
                max_ns: n.max_ns,
                children: collect_children(nodes, c),
            }
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// An open span; created by [`span!`](crate::span!), closed on drop.
#[cfg(feature = "enabled")]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    prof: &'a Profiler,
    node: usize,
    start: Instant,
}

#[cfg(feature = "enabled")]
impl<'a> SpanGuard<'a> {
    /// Open a span named `name` under the profiler's currently open span.
    /// Prefer the [`span!`](crate::span!) macro, which compiles out with
    /// the `enabled` feature.
    pub fn enter(prof: &'a Profiler, name: &'static str) -> Self {
        let node = {
            let mut inner = prof.inner.borrow_mut();
            let parent = *inner.stack.last().expect("root never pops");
            let found =
                inner.nodes[parent].children.iter().copied().find(|&c| {
                    std::ptr::eq(inner.nodes[c].name, name) || inner.nodes[c].name == name
                });
            let idx = found.unwrap_or_else(|| {
                let idx = inner.nodes.len();
                inner.nodes.push(Node::new(name, parent));
                inner.nodes[parent].children.push(idx);
                idx
            });
            inner.stack.push(idx);
            idx
        };
        SpanGuard {
            prof,
            node,
            start: Instant::now(),
        }
    }
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.prof.inner.borrow_mut();
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(self.node), "span guards must close LIFO");
        let parent = inner.nodes[self.node].parent;
        {
            let n = &mut inner.nodes[self.node];
            n.count += 1;
            n.total_ns += dur_ns;
            n.min_ns = n.min_ns.min(dur_ns);
            n.max_ns = n.max_ns.max(dur_ns);
        }
        inner.nodes[parent].child_ns += dur_ns;
        if inner.trace {
            let ts_ns = u64::try_from(self.start.duration_since(self.prof.origin).as_nanos())
                .unwrap_or(u64::MAX);
            let name = inner.nodes[self.node].name;
            let lane = inner.lane;
            inner.events.push(TraceEvent {
                name: name.to_string(),
                ts_ns,
                dur_ns,
                lane,
            });
        }
    }
}

/// Zero-sized stand-in for the span guard when telemetry is compiled out.
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Clone, Copy)]
pub struct SpanGuard;

/// One aggregated span in a [`ProfileTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name.
    pub name: String,
    /// Times the span closed.
    pub count: u64,
    /// Total nanoseconds across all closings (children included).
    pub total_ns: u64,
    /// Total minus time spent in child spans.
    pub self_ns: u64,
    /// Shortest single closing (`u64::MAX` if never closed).
    pub min_ns: u64,
    /// Longest single closing.
    pub max_ns: u64,
    /// Child spans, in name order.
    pub children: Vec<ProfileNode>,
}

/// An aggregated, mergeable span tree detached from any profiler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileTree {
    /// Top-level spans, in name order.
    pub roots: Vec<ProfileNode>,
}

impl ProfileTree {
    /// Merge another tree into this one: matching paths sum counts and
    /// times and fold min/max; unmatched paths carry over. Commutative,
    /// so worker trees reduce in any order to the same result.
    pub fn merge(&mut self, other: &ProfileTree) {
        merge_levels(&mut self.roots, &other.roots);
    }

    /// Compact JSON: an array of span objects, children nested, names in
    /// ascending order at every level.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        nodes_json(&self.roots, &mut s);
        s
    }
}

fn merge_levels(into: &mut Vec<ProfileNode>, from: &[ProfileNode]) {
    for f in from {
        if let Some(n) = into.iter_mut().find(|n| n.name == f.name) {
            n.count += f.count;
            n.total_ns += f.total_ns;
            n.self_ns += f.self_ns;
            n.min_ns = n.min_ns.min(f.min_ns);
            n.max_ns = n.max_ns.max(f.max_ns);
            merge_levels(&mut n.children, &f.children);
        } else {
            into.push(f.clone());
        }
    }
    into.sort_by(|a, b| a.name.cmp(&b.name));
}

fn nodes_json(nodes: &[ProfileNode], out: &mut String) {
    out.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let min_s = if n.count == 0 {
            "null".to_string()
        } else {
            n.min_ns.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{min_s},\"max_ns\":{},\"children\":",
            json_str(&n.name),
            n.count,
            n.total_ns,
            n.self_ns,
            n.max_ns
        );
        nodes_json(&n.children, out);
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_nest_and_aggregate() {
        let prof = Profiler::new();
        for _ in 0..3 {
            let _outer = crate::span!(prof, "outer");
            {
                let _inner = crate::span!(prof, "inner");
            }
            {
                let _inner = crate::span!(prof, "inner");
            }
        }
        let tree = prof.tree();
        assert_eq!(tree.roots.len(), 1);
        let outer = &tree.roots[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer", 3));
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.count), ("inner", 6));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.min_ns <= inner.max_ns);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn tracing_captures_one_event_per_span() {
        let origin = Instant::now();
        let prof = Profiler::with_trace(2, origin);
        {
            let _a = crate::span!(prof, "a");
            let _b = crate::span!(prof, "b");
        }
        let events = prof.take_trace_events();
        assert_eq!(events.len(), 2);
        // Inner span closes first.
        assert_eq!(events[0].name, "b");
        assert_eq!(events[1].name, "a");
        assert!(events.iter().all(|e| e.lane == 2));
        assert!(prof.take_trace_events().is_empty(), "drained");
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_spans_record_nothing() {
        let prof = Profiler::new();
        let _g = crate::span!(prof, "anything");
        assert!(prof.tree().roots.is_empty());
    }

    #[test]
    fn tree_merge_is_commutative() {
        let leaf = |name: &str, count: u64, total: u64| ProfileNode {
            name: name.to_string(),
            count,
            total_ns: total,
            self_ns: total,
            min_ns: total / count.max(1),
            max_ns: total,
            children: Vec::new(),
        };
        let a = ProfileTree {
            roots: vec![ProfileNode {
                children: vec![leaf("x", 2, 10)],
                ..leaf("trial", 1, 100)
            }],
        };
        let b = ProfileTree {
            roots: vec![
                ProfileNode {
                    children: vec![leaf("y", 1, 5)],
                    ..leaf("trial", 4, 50)
                },
                leaf("other", 1, 7),
            ],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.roots[1].count, 5);
        assert_eq!(ab.roots[1].children.len(), 2);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn empty_tree_json() {
        assert_eq!(ProfileTree::default().to_json(), "[]");
    }
}
