//! The pending-event set: a binary min-heap on `(time, id)`.
//!
//! `BinaryHeap` alone is not deterministic for equal keys, so the ordering
//! key includes the insertion-order [`EventId`]: events scheduled for the
//! same instant fire in the order they were scheduled (stable FIFO
//! tie-breaking). Together with the single seeded RNG in the driver this
//! makes every run bit-reproducible.

use crate::event::{ComponentId, Event, EventId};
use crate::hash::FixedSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry with reversed ordering, so the heap pops the earliest
/// `(time, id)` first.
struct HeapEntry<E>(Event<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller time (then smaller id) compares greater.
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue: push in any order, pop in `(time, insertion)` order.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    /// Ids of pending (scheduled, not yet fired or cancelled) events.
    /// Cancellation just removes the id here; `pop` skips heap entries whose
    /// id is no longer live. Bounded by the number of pending events, so
    /// cancelling fired ids cannot accumulate state.
    live: FixedSet<EventId>,
    next_id: EventId,
    /// Deepest the heap has ever been (pending events, cancelled included).
    high_water: usize,
    /// Scheduled events that were cancelled while still pending.
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` pending events, so the heap
    /// and the live set do not re-allocate while the simulation warms up.
    /// A good hint is the expected peak of concurrently scheduled events
    /// (components × pending self-ticks), not the total event count.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            live: FixedSet::with_capacity_and_hasher(capacity, Default::default()),
            next_id: 0,
            high_water: 0,
            cancelled: 0,
        }
    }

    /// Grow the pending-event reservation to at least `additional` more than
    /// the current length.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.live.reserve(additional);
    }

    /// Schedule an event at absolute time `time`; returns its id.
    pub fn push(&mut self, time: SimTime, src: ComponentId, dst: ComponentId, payload: E) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id);
        self.heap.push(HeapEntry(Event {
            id,
            time,
            src,
            dst,
            payload,
        }));
        self.high_water = self.high_water.max(self.heap.len());
        id
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<Event<E>> {
        while let Some(HeapEntry(ev)) = self.heap.pop() {
            if self.live.remove(&ev.id) {
                return Some(ev);
            }
        }
        None
    }

    /// The fire time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(HeapEntry(ev)) = self.heap.peek() {
            if self.live.contains(&ev.id) {
                return Some(ev.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Mark a scheduled event as cancelled; it will be silently skipped.
    /// Cancelling an id that already fired (or was already cancelled) is a
    /// true no-op: nothing is retained.
    pub fn cancel(&mut self, id: EventId) {
        if self.live.remove(&id) {
            self.cancelled += 1;
        }
    }

    /// Pending events, *including* any not-yet-skipped cancelled ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events (cancelled or not) are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.next_id
    }

    /// Deepest the pending set has ever been (cancelled-but-unskipped
    /// entries included, matching [`EventQueue::len`]'s accounting).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events cancelled while still pending. Cancelling an id that already
    /// fired (or was never scheduled) does not count — those calls are
    /// no-ops by contract.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30.0), 0, 0, "c");
        q.push(t(10.0), 0, 0, "a");
        q.push(t(20.0), 0, 0, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for k in 0..100u32 {
            q.push(t(5.0), 0, 0, k);
        }
        for k in 0..100u32 {
            assert_eq!(q.pop().unwrap().payload, k);
        }
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), 0, 0, "a");
        q.push(t(2.0), 0, 0, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_fired_or_unknown_ids_retains_nothing() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), 0, 0, "a");
        let b = q.push(t(2.0), 0, 0, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.cancel(a); // already fired
        q.cancel(9999); // never scheduled
        assert_eq!(q.live.len(), 1, "only b is pending");
        q.cancel(b);
        assert!(q.live.is_empty(), "cancel must not accumulate state");
        assert!(q.pop().is_none());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        let ids: Vec<_> = (0..5).map(|k| q.push(t(k as f64), 0, 0, k)).collect();
        assert_eq!(q.high_water(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 5, "high-water never recedes");
        q.push(t(9.0), 0, 0, 9);
        assert_eq!(q.high_water(), 5, "4 pending < old peak");
        let _ = ids;
    }

    #[test]
    fn cancelled_counts_only_live_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), 0, 0, "a");
        let b = q.push(t(2.0), 0, 0, "b");
        assert_eq!(q.cancelled(), 0);
        q.cancel(a);
        assert_eq!(q.cancelled(), 1);
        q.cancel(a); // already cancelled
        q.cancel(9999); // never scheduled
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        q.cancel(b); // already fired
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(7.0), 1, 2, ());
        assert_eq!(q.peek_time(), Some(t(7.0)));
        let ev = q.pop().unwrap();
        assert_eq!((ev.src, ev.dst, ev.time), (1, 2, t(7.0)));
    }
}
