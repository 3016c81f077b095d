//! The pending-event set: a binary min-heap of `(time, id)` keys over an
//! event slab.
//!
//! `BinaryHeap` alone is not deterministic for equal keys, so the ordering
//! key includes the insertion-order [`EventId`]: events scheduled for the
//! same instant fire in the order they were scheduled (stable FIFO
//! tie-breaking). Together with the single seeded RNG in the driver this
//! makes every run bit-reproducible.
//!
//! The heap moves 24-byte `Key`s, not events: each event body waits in a
//! free-listed slab slot until it fires, so a sift never copies a payload.
//! Nothing is hashed per event. Cancellation keeps a small set of cancelled
//! ids that `pop` and `peek_time` consult only while it is non-empty.

use crate::event::{ComponentId, Event, EventId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event's place in fire order, and where its body lives.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// The fire time under `f64::total_cmp`'s key transform, made unsigned:
    /// two times compare as these integers do exactly when `total_cmp`
    /// orders them the same way.
    time: u64,
    id: EventId,
    /// Index of the event's slab slot.
    slot: u32,
}

impl Key {
    fn new(time: SimTime, id: EventId, slot: u32) -> Self {
        // `total_cmp` flips every bit but the sign of a negative value and
        // compares the result as `i64`; flipping the sign bit as well turns
        // that signed order into the unsigned one.
        let bits = time.micros().to_bits() as i64;
        let ordered = bits ^ (((bits >> 63) as u64) >> 1) as i64;
        Self {
            time: ordered as u64 ^ (1 << 63),
            id,
            slot,
        }
    }

    /// `(time, id)` as one integer.
    fn rank(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.id)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so the max-heap pops the smallest rank first.
        other.rank().cmp(&self.rank())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue: push in any order, pop in `(time, insertion)` order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Event bodies by slot; `None` marks a free slot.
    slab: Vec<Option<Event<E>>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Ids cancelled while pending whose keys are still in the heap. Each
    /// leaves when `pop` or `peek_time` skips its key, so it never holds a
    /// fired or unknown id.
    cancelled_ids: Vec<EventId>,
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
    /// and the slab do not re-allocate while the simulation warms up.
    /// A good hint is the expected peak of concurrently scheduled events
    /// (components × pending self-ticks), not the total event count.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            cancelled_ids: Vec::new(),
            next_id: 0,
            high_water: 0,
            cancelled: 0,
        }
    }

    /// Schedule an event at absolute time `time`; returns its id.
    pub fn push(
        &mut self,
        time: SimTime,
        src: ComponentId,
        dst: ComponentId,
        payload: E,
    ) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        let event = Some(Event {
            id,
            time,
            src,
            dst,
            payload,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = event;
                slot
            }
            None => {
                self.slab.push(event);
                u32::try_from(self.slab.len() - 1).expect("more than 2^32 pending events")
            }
        };
        self.heap.push(Key::new(time, id, slot));
        self.high_water = self.high_water.max(self.heap.len());
        id
    }

    /// Free `key`'s slot and return its event.
    fn take(&mut self, key: Key) -> Event<E> {
        self.free.push(key.slot);
        self.slab[key.slot as usize]
            .take()
            .expect("a heap key points at an occupied slot")
    }

    /// Whether `key`'s event was cancelled; if so, forget the id (its key
    /// is about to leave the heap). With nothing cancelled this is one
    /// length check.
    fn was_cancelled(&mut self, key: &Key) -> bool {
        let Some(at) = self.cancelled_ids.iter().position(|&id| id == key.id) else {
            return false;
        };
        self.cancelled_ids.swap_remove(at);
        true
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<Event<E>> {
        while let Some(key) = self.heap.pop() {
            let cancelled = self.was_cancelled(&key);
            let event = self.take(key);
            if !cancelled {
                return Some(event);
            }
        }
        None
    }

    /// The fire time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&key) = self.heap.peek() {
            if !self.was_cancelled(&key) {
                let event = self.slab[key.slot as usize].as_ref();
                return Some(event.expect("a heap key points at an occupied slot").time);
            }
            self.heap.pop();
            self.take(key);
        }
        None
    }

    /// Mark a scheduled event as cancelled; it will be silently skipped.
    /// Cancelling an id that already fired (or was already cancelled) is a
    /// true no-op: nothing is retained. Nothing in the engine's own
    /// components cancels, so this scans the pending keys rather than keep
    /// per-event bookkeeping on the fire path.
    pub fn cancel(&mut self, id: EventId) {
        if self.cancelled_ids.contains(&id) || !self.heap.iter().any(|key| key.id == id) {
            return;
        }
        self.cancelled_ids.push(id);
        self.cancelled += 1;
    }

    /// Pending events, *including* any not-yet-skipped cancelled ones.
    ///
    /// No production caller: public for `crates/des/tests/properties.rs`.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events (cancelled or not) are pending.
    ///
    /// No production caller: public for `crates/des/tests/properties.rs`.
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
        assert_eq!(q.cancelled(), 0, "neither call cancelled anything");
        assert_eq!(q.len(), 1, "only b is pending");
        assert_eq!(q.peek_time(), Some(t(2.0)), "b is still live");
        q.cancel(b);
        assert_eq!(q.cancelled(), 1);
        assert!(q.pop().is_none());
        assert!(q.is_empty(), "the skipped key left nothing behind");
        // A cancelled id that was skipped is gone for good: cancelling it
        // again counts nothing, and later events are untouched.
        q.cancel(b);
        assert_eq!(q.cancelled(), 1, "cancel must not accumulate state");
        q.push(t(3.0), 0, 0, "c");
        assert_eq!(q.pop().unwrap().payload, "c");
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

    #[test]
    fn rank_orders_like_total_cmp_then_id() {
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for &a in &times {
            for &b in &times {
                for (ia, ib) in [(0, 0), (0, 1), (1, 0), (u64::MAX, 0)] {
                    let ka = Key::new(t(a), ia, 0);
                    let kb = Key::new(t(b), ib, 0);
                    let want = a.total_cmp(&b).then(ia.cmp(&ib));
                    assert_eq!(ka.rank().cmp(&kb.rank()), want, "{a} #{ia} vs {b} #{ib}");
                }
            }
        }
    }
}
