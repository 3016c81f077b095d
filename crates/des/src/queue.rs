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
//! Nothing is hashed per event, and every scheduled event fires: there is
//! no cancellation, so `pop` is one heap pop and one slab take.

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
    next_id: EventId,
    /// Deepest the heap has ever been.
    high_water: usize,
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
            next_id: 0,
            high_water: 0,
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

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let key = self.heap.pop()?;
        self.free.push(key.slot);
        let event = self.slab[key.slot as usize].take();
        Some(event.expect("a heap key points at an occupied slot"))
    }

    /// The fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let event = self.slab[self.heap.peek()?.slot as usize].as_ref();
        Some(event.expect("a heap key points at an occupied slot").time)
    }

    /// Pending events.
    ///
    /// No production caller: public for `crates/des/tests/properties.rs`.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    ///
    /// No production caller: public for `crates/des/tests/properties.rs`.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.next_id
    }

    /// Deepest the pending set has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
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
