//! # iac-des — deterministic discrete-event simulation for the IAC LAN
//!
//! The static measurement loop in `iac-sim` scores throughput over *slots*;
//! this crate adds the missing dimension: **simulated time**. It provides a
//! small, deterministic discrete-event engine and, on top of it, the network
//! components that turn the repo into a real network simulator — stochastic
//! traffic sources, the event-driven extended-PCF MAC (§7.1) priced by the
//! `iac-mac` airtime model, and a latency-modelled
//! Ethernet backplane. Packet latency, queueing delay, overflow drops, and
//! client churn — none of which a slot counter can express — all become
//! measurable.
//!
//! ## Engine
//!
//! * [`time`] — [`SimTime`], f64 microseconds with total ordering.
//! * [`event`] — events, component ids, the insertion-order tie-breaker.
//! * [`queue`] — the pending-event min-heap of `(time, id)` keys over an
//!   event slab, with stable FIFO tie-breaking; every scheduled event fires.
//! * [`simulation`] — the [`Simulation`] driver: `step()`,
//!   `step_until_time()`, `step_until_no_events()`, one boxed
//!   [`EventHandler`] per component, one seeded RNG.
//!
//! Determinism: events at equal times fire in scheduling order, all
//! randomness flows through the single seeded `Rng64`, and components
//! interact only via events — so a run is bit-reproducible from its `u64`
//! seed. See `docs/DES.md` for the full argument.
//!
//! Record/replay: the [`log`] module captures every fired event of a run
//! into a compact versioned binary log (via a passive
//! [`simulation::EventObserver`] tap), replays a log against a freshly
//! built simulation with bit-exact verification, and diffs two logs down to
//! the first divergent event — see `docs/DES.md` § "Record/replay & log
//! diff".
//!
//! Threading: a *live* simulation is single-threaded by design (components
//! share an `Rc`-based metrics log), but every run **description** (configs,
//! arrival processes) and every run **output** ([`MetricsLog`] and its
//! records) is `Send`. The parallel experiment engine in `iac-sim` exploits
//! exactly this: each worker thread constructs, runs, and tears down a whole
//! simulation locally and ships only plain data back — see
//! `crates/des/tests/send_construction.rs` and `docs/EXPERIMENTS.md`.
//!
//! ## Network model
//!
//! * [`traffic`] — Poisson, CBR, and bursty ON/OFF arrival processes.
//! * [`net`] — the [`NetEvent`] vocabulary, per-client [`TrafficSource`]s
//!   (with `Join`/`Leave` churn), and the wired sinks.
//! * [`pcf`] — [`EventPcf`], the event-driven extended-PCF leader driving
//!   the pluggable [`iac_mac::PhyOutcome`] PHY.
//! * [`fault`] — deterministic fault injection: seeded AP-churn, backhaul
//!   partition, and CSI-aging schedules delivered by a [`FaultInjector`]
//!   as ordinary [`NetEvent`]s, so faulty runs record/replay/diff exactly
//!   like clean ones.
//! * [`metrics`] — raw per-packet/queue-depth records ([`SharedMetrics`]);
//!   statistics live in `iac-sim::metrics`.
//!
//! ## Example
//!
//! ```
//! use iac_des::prelude::*;
//!
//! // Two relays bouncing a counter: the classic DES hello world.
//! struct Relay { peer: ComponentId }
//! impl EventHandler<u32> for Relay {
//!     fn on_event(&mut self, event: Event<u32>, ctx: &mut Ctx<'_, u32>) {
//!         if event.payload > 0 {
//!             ctx.emit(self.peer, SimTime::from_micros(10.0), event.payload - 1);
//!         }
//!     }
//! }
//! let mut sim = Simulation::new(42);
//! let a = sim.add_component("a", Relay { peer: 1 });
//! let _b = sim.add_component("b", Relay { peer: 0 });
//! sim.schedule(SimTime::ZERO, a, 5u32);
//! assert_eq!(sim.step_until_no_events(), 6);
//! assert_eq!(sim.time(), SimTime::from_micros(50.0));
//! ```

pub mod count;
pub mod event;
pub mod fault;
mod hash;
pub mod log;
pub mod metrics;
pub mod net;
pub mod pcf;
pub mod queue;
pub mod simulation;
pub mod time;
pub mod traffic;

pub use count::{EventKindCounter, SharedKindCounts};
pub use event::{ComponentId, Event, EventId};
pub use fault::{
    ap_churn_schedule, csi_aging_ramp, partition_windows, FaultAt, FaultInjector, FaultKind,
};
pub use log::{Divergence, EventCodec, EventLog, EventRecorder, Replayer};
pub use metrics::{MetricsLog, PacketRecord, QueueDepthSample, SharedMetrics};
pub use net::{NetEvent, TrafficSource, WiredSink};
pub use pcf::{EventPcf, EventPcfConfig};
pub use queue::EventQueue;
pub use simulation::{Ctx, EventHandler, EventObserver, Simulation};
pub use time::SimTime;
pub use traffic::ArrivalProcess;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::event::{ComponentId, Event, EventId};
    pub use crate::metrics::{MetricsLog, PacketRecord, SharedMetrics};
    pub use crate::net::{NetEvent, TrafficSource, WiredSink};
    pub use crate::pcf::{EventPcf, EventPcfConfig};
    pub use crate::simulation::{Ctx, EventHandler, Simulation};
    pub use crate::time::SimTime;
    pub use crate::traffic::ArrivalProcess;
}
