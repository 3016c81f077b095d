//! The simulation driver.
//!
//! A [`Simulation`] owns the clock, the event queue, a single seeded
//! [`Rng64`], and one boxed [`EventHandler`] per registered component.
//! Execution is strictly sequential: [`Simulation::step`] pops the earliest
//! event, advances the clock to its timestamp, and dispatches it to the
//! destination component, which may schedule further events through the
//! [`Ctx`] it is handed. Because the queue breaks time ties by insertion
//! order and all randomness flows through the one seeded generator, a run is
//! bit-reproducible from its `u64` seed.

use crate::event::{ComponentId, Event, EventId};
use crate::queue::EventQueue;
use crate::time::SimTime;
use iac_linalg::Rng64;

/// Pseudo-source id for events injected from outside any handler (e.g. the
/// initial kick-off events a scenario schedules before running).
pub(crate) const EXTERNAL: ComponentId = ComponentId::MAX;

/// A component's view of the running simulation while it handles an event:
/// the current time, the shared RNG, and the ability to schedule (or cancel)
/// events.
pub struct Ctx<'a, E> {
    time: SimTime,
    self_id: ComponentId,
    rng: &'a mut Rng64,
    queue: &'a mut EventQueue<E>,
}

impl<E> Ctx<'_, E> {
    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The simulation's seeded random source.
    pub fn rng(&mut self) -> &mut Rng64 {
        self.rng
    }

    /// Schedule `payload` for `dst`, `delay` from now.
    pub fn emit(&mut self, dst: ComponentId, delay: SimTime, payload: E) -> EventId {
        assert!(
            delay >= SimTime::ZERO,
            "cannot schedule into the past (delay {delay})"
        );
        self.queue
            .push(self.time + delay, self.self_id, dst, payload)
    }

    /// Schedule a self-event `delay` from now.
    pub fn emit_self(&mut self, delay: SimTime, payload: E) -> EventId {
        self.emit(self.self_id, delay, payload)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired id is
    /// a no-op.
    pub(crate) fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }
}

/// A simulation component: anything that reacts to events.
pub trait EventHandler<E> {
    /// Handle one event. New events are scheduled through `ctx`.
    fn on_event(&mut self, event: Event<E>, ctx: &mut Ctx<'_, E>);
}

/// A passive tap on the event stream: sees every event the driver fires, in
/// fire order, *before* the destination handler runs. This is the
/// record/replay hook — [`crate::log::EventRecorder`] serializes the stream,
/// [`crate::log::ReplayChecker`] asserts it matches a recording. Observers
/// must not mutate the simulation (they are handed the event by shared
/// reference and nothing else), so attaching one cannot change a run.
pub trait EventObserver<E> {
    /// Called once per fired event, after the clock advanced to its
    /// timestamp and before it is dispatched (undeliverable events are
    /// observed too).
    fn on_fire(&mut self, event: &Event<E>);
}

/// The discrete-event simulation driver, generic over the event payload `E`.
pub struct Simulation<E> {
    time: SimTime,
    queue: EventQueue<E>,
    rng: Rng64,
    handlers: Vec<Box<dyn EventHandler<E>>>,
    names: Vec<String>,
    processed: u64,
    undeliverable: u64,
    observer: Option<Box<dyn EventObserver<E>>>,
}

impl<E> Simulation<E> {
    /// A fresh simulation at time zero, with its RNG seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_capacity(seed, 0)
    }

    /// [`Simulation::new`] with the event queue pre-reserved for
    /// `events_hint` concurrently pending events (see
    /// [`EventQueue::with_capacity`]): scenario drivers that know their
    /// component count avoid re-allocating the heap mid-run.
    pub fn with_capacity(seed: u64, events_hint: usize) -> Self {
        Self {
            time: SimTime::ZERO,
            queue: EventQueue::with_capacity(events_hint),
            rng: Rng64::new(seed),
            handlers: Vec::new(),
            names: Vec::new(),
            processed: 0,
            undeliverable: 0,
            observer: None,
        }
    }

    /// Attach an [`EventObserver`] (replacing any previous one, which is
    /// returned). The observer sees every subsequently fired event; pass the
    /// recording or checking half of the `log` module here. With no observer
    /// attached the per-event cost is a single branch on a `None`.
    pub fn set_observer(
        &mut self,
        observer: Box<dyn EventObserver<E>>,
    ) -> Option<Box<dyn EventObserver<E>>> {
        self.observer.replace(observer)
    }

    /// Detach and return the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn EventObserver<E>>> {
        self.observer.take()
    }

    /// Register a component; returns its id (assigned sequentially from 0).
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        handler: impl EventHandler<E> + 'static,
    ) -> ComponentId {
        let id = self.handlers.len() as ComponentId;
        self.handlers.push(Box::new(handler));
        self.names.push(name.into());
        id
    }

    /// Inject an event from outside any handler, `delay` from the current
    /// time.
    pub fn schedule(&mut self, delay: SimTime, dst: ComponentId, payload: E) -> EventId {
        assert!(delay >= SimTime::ZERO, "cannot schedule into the past");
        self.queue.push(self.time + delay, EXTERNAL, dst, payload)
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Events whose destination was not a registered component.
    pub fn events_undeliverable(&self) -> u64 {
        self.undeliverable
    }

    /// Total events ever scheduled (fired or not).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Events cancelled while still pending (see [`EventQueue::cancelled`]).
    pub fn events_cancelled(&self) -> u64 {
        self.queue.cancelled()
    }

    /// Deepest the pending-event set has ever been (see
    /// [`EventQueue::high_water`]).
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Process the earliest pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.time, "event queue went back in time");
        self.time = ev.time;
        self.processed += 1;
        if let Some(obs) = self.observer.as_mut() {
            obs.on_fire(&ev);
        }
        let Some(handler) = self.handlers.get_mut(ev.dst as usize) else {
            self.undeliverable += 1;
            return true;
        };
        // The handler and `Ctx` borrow disjoint fields of the simulation;
        // components talk to each other only through events.
        let mut ctx = Ctx {
            time: self.time,
            self_id: ev.dst,
            rng: &mut self.rng,
            queue: &mut self.queue,
        };
        handler.on_event(ev, &mut ctx);
        true
    }

    /// Process every event scheduled at or before `t`, then advance the
    /// clock to exactly `t`. Returns the number of events processed.
    ///
    /// No production caller: public for `crates/bench/tests/alloc_count.rs`.
    pub fn step_until_time(&mut self, t: SimTime) -> u64 {
        let mut n = 0;
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
            n += 1;
        }
        if self.time < t {
            self.time = t;
        }
        n
    }

    /// Run until the event queue is empty. Returns the number of events
    /// processed. Termination is the model's responsibility: components with
    /// unconditional self-re-arming ticks never drain the queue.
    pub fn step_until_no_events(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relays each received number back to a peer after a fixed delay,
    /// decrementing it, until it hits zero.
    struct PingPong {
        peer: ComponentId,
        delay: SimTime,
        log: std::rc::Rc<std::cell::RefCell<Vec<(f64, u32)>>>,
    }

    impl EventHandler<u32> for PingPong {
        fn on_event(&mut self, event: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            self.log
                .borrow_mut()
                .push((ctx.time().micros(), event.payload));
            if event.payload > 0 {
                ctx.emit(self.peer, self.delay, event.payload - 1);
            }
        }
    }

    /// Cancels `target` from inside a handler, the way a component does.
    struct Canceller {
        target: EventId,
    }

    impl EventHandler<u32> for Canceller {
        fn on_event(&mut self, _event: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            ctx.cancel(self.target);
        }
    }

    #[test]
    fn ping_pong_terminates_and_orders() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let a = sim.add_component(
            "a",
            PingPong {
                peer: 1,
                delay: SimTime::from_micros(10.0),
                log: log.clone(),
            },
        );
        let b = sim.add_component(
            "b",
            PingPong {
                peer: 0,
                delay: SimTime::from_micros(10.0),
                log: log.clone(),
            },
        );
        assert_eq!((a, b), (0, 1));
        sim.schedule(SimTime::ZERO, a, 4);
        let n = sim.step_until_no_events();
        assert_eq!(n, 5);
        assert_eq!(sim.time().micros(), 40.0);
        let got = log.borrow().clone();
        assert_eq!(
            got,
            vec![(0.0, 4), (10.0, 3), (20.0, 2), (30.0, 1), (40.0, 0)]
        );
    }

    #[test]
    fn step_until_time_stops_at_boundary() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new(2);
        let a = sim.add_component(
            "a",
            PingPong {
                peer: 0,
                delay: SimTime::from_micros(10.0),
                log: log.clone(),
            },
        );
        sim.schedule(SimTime::ZERO, a, 100);
        let n = sim.step_until_time(SimTime::from_micros(35.0));
        assert_eq!(n, 4); // t = 0, 10, 20, 30
        assert_eq!(sim.time(), SimTime::from_micros(35.0));
        // The t=40 event is still pending.
        assert!(sim.step());
        assert_eq!(sim.time(), SimTime::from_micros(40.0));
    }

    #[test]
    fn undeliverable_events_counted() {
        let mut sim: Simulation<u32> = Simulation::new(3);
        sim.schedule(SimTime::ZERO, 99, 7);
        assert_eq!(sim.step_until_no_events(), 1);
        assert_eq!(sim.events_undeliverable(), 1);
    }

    #[test]
    fn queue_stats_visible_through_driver() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new(9);
        let a = sim.add_component(
            "a",
            PingPong {
                peer: 0,
                delay: SimTime::from_micros(1.0),
                log,
            },
        );
        sim.schedule(SimTime::ZERO, a, 2);
        let doomed = sim.schedule(SimTime::from_micros(50.0), a, 0);
        assert_eq!(sim.queue_high_water(), 2);
        let c = sim.add_component("c", Canceller { target: doomed });
        sim.schedule(SimTime::ZERO, c, 0);
        sim.step_until_no_events();
        assert_eq!(sim.queue_high_water(), 3);
        assert_eq!(sim.events_cancelled(), 1);
        assert_eq!(sim.events_scheduled(), 5); // 3 injected + 2 relays
    }

    #[test]
    fn cancelled_event_never_fires() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new(4);
        let a = sim.add_component(
            "a",
            PingPong {
                peer: 0,
                delay: SimTime::from_micros(1.0),
                log: log.clone(),
            },
        );
        let id = sim.schedule(SimTime::from_micros(5.0), a, 0);
        let c = sim.add_component("c", Canceller { target: id });
        sim.schedule(SimTime::ZERO, c, 0);
        assert_eq!(sim.step_until_no_events(), 1, "only the canceller fires");
        assert!(log.borrow().is_empty());
    }
}
