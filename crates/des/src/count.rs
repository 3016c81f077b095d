//! Per-event-kind counting through the passive observer hook.
//!
//! [`EventKindCounter`] is an [`EventObserver`] that
//! tallies fired events by their [`EventCodec::kind`] label into a shared
//! [`SharedKindCounts`] map — the telemetry layer's window into *what* a
//! simulation spent its events on, without touching any handler. Like the
//! recorder it rides the single observer slot, and like every observer it
//! is passive by construction: it holds only a clone of the count map and
//! sees events by shared reference.

use crate::log::EventCodec;
use crate::simulation::EventObserver;
use crate::Event;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared handle to the per-kind tallies, readable after the run while the
/// counter (inside the simulation) still holds its clone. A `BTreeMap` so
/// iteration order is the label order — deterministic export for free.
#[derive(Debug, Clone, Default)]
pub struct SharedKindCounts(Rc<RefCell<BTreeMap<&'static str, u64>>>);

impl SharedKindCounts {
    /// A fresh, empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the tallies as `(kind, count)` pairs in label order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        self.0.borrow().iter().map(|(&k, &n)| (k, n)).collect()
    }

    /// Total events tallied across all kinds.
    ///
    /// No production caller: public for `crates/bench/tests/alloc_count.rs`.
    pub fn total(&self) -> u64 {
        self.0.borrow().values().sum()
    }
}

/// The observer half: attach with
/// [`Simulation::set_observer`](crate::Simulation::set_observer).
#[derive(Debug, Default)]
pub struct EventKindCounter {
    counts: SharedKindCounts,
}

impl EventKindCounter {
    /// A counter writing into `counts`.
    pub fn new(counts: SharedKindCounts) -> Self {
        Self { counts }
    }
}

impl<E: EventCodec> EventObserver<E> for EventKindCounter {
    fn on_fire(&mut self, event: &Event<E>) {
        *self
            .counts
            .0
            .borrow_mut()
            .entry(event.payload.kind())
            .or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::{Ctx, EventHandler, Simulation};
    use bytes::{BufMut, Bytes, BytesMut};

    #[derive(Debug, PartialEq)]
    enum Tick {
        Fast,
        Slow,
    }

    impl EventCodec for Tick {
        fn encode_payload(&self, buf: &mut BytesMut) {
            buf.put_u8(matches!(self, Tick::Slow) as u8);
        }
        fn decode_payload(buf: &mut Bytes) -> Result<Self, crate::log::CodecError> {
            Ok(if crate::log::codec::get_u8(buf, "tick")? == 1 {
                Tick::Slow
            } else {
                Tick::Fast
            })
        }
        fn kind(&self) -> &'static str {
            match self {
                Tick::Fast => "Fast",
                Tick::Slow => "Slow",
            }
        }
    }

    struct Burst;
    impl EventHandler<Tick> for Burst {
        fn on_event(&mut self, event: Event<Tick>, ctx: &mut Ctx<'_, Tick>) {
            if event.payload == Tick::Fast && ctx.time() < SimTime::from_micros(25.0) {
                ctx.emit_self(SimTime::from_micros(10.0), Tick::Fast);
                ctx.emit_self(SimTime::from_micros(10.0), Tick::Slow);
            }
        }
    }

    #[test]
    fn kinds_tally_in_label_order() {
        let counts = SharedKindCounts::new();
        let mut sim = Simulation::new(7);
        let a = sim.add_component("burst", Burst);
        sim.set_observer(Box::new(EventKindCounter::new(counts.clone())));
        sim.schedule(SimTime::ZERO, a, Tick::Fast);
        let n = sim.step_until_no_events();
        assert_eq!(counts.total(), n);
        // Fast at t=0,10,20 re-arm; Fast at t=30 stops. Slow at 10,20,30.
        assert_eq!(counts.counts(), vec![("Fast", 4), ("Slow", 3)]);
    }
}
