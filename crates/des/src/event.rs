//! Events and component identifiers.

use crate::time::SimTime;

/// Monotonically increasing event identifier, assigned at scheduling time.
///
/// Doubles as the FIFO tie-breaker: of two events scheduled for the same
/// instant, the one scheduled *first* fires first.
pub type EventId = u64;

/// A registered component's index in the simulation.
pub type ComponentId = u32;

/// A scheduled event carrying a payload of the simulation's event type `E`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<E> {
    /// Scheduling-order identifier (unique per simulation).
    pub id: EventId,
    /// When the event fires.
    pub time: SimTime,
    /// Component that scheduled it (the destination itself for self-ticks,
    /// or `crate::simulation::EXTERNAL` for events injected from outside).
    pub src: ComponentId,
    /// Component whose handler receives it.
    pub dst: ComponentId,
    /// The payload.
    pub payload: E,
}
