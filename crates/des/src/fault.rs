//! Deterministic fault injection.
//!
//! A fault is an *ordinary simulation event*: a [`NetEvent`] variant
//! (`ApDown`/`ApUp`, `BackhaulDown`/`BackhaulUp`, `WireImpair`, `CsiStale`)
//! delivered to the MAC at a scheduled time. Because faults ride the same
//! queue, codec, and observer path as every other event, a faulty run
//! records, replays, and diffs exactly like a clean one — there is no
//! side-channel the replay checker cannot see.
//!
//! Two ways to produce a fault timeline:
//!
//! * **Declaratively** — build a `Vec<FaultAt>` by hand or with the seeded
//!   generators ([`ap_churn_schedule`], [`partition_windows`],
//!   [`csi_aging_ramp`]). Generators take their own seed and are pure
//!   functions of it, so a scenario spec that embeds a schedule stays a pure
//!   value (the reproducibility contract of the `iac-sim` scenario layer).
//! * **At runtime** — register a [`FaultInjector`] component with the
//!   schedule; it walks the timeline with self-`FaultTick`s and emits each
//!   fault to the MAC at its due time. The injector draws nothing from the
//!   simulation RNG, so attaching one perturbs no other component's stream.

use crate::event::{ComponentId, Event};
use crate::net::NetEvent;
use crate::simulation::{Ctx, EventHandler};
use crate::time::SimTime;
use iac_linalg::Rng64;

/// What goes wrong (plain data; converts to the event vocabulary via
/// `FaultKind::to_event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// AP `ap` crashes.
    ApDown(u16),
    /// AP `ap` recovers.
    ApUp(u16),
    /// The inter-AP backhaul partitions.
    BackhaulDown,
    /// The backhaul heals.
    BackhaulUp,
    /// Wire impairment reconfiguration (loss / corruption, parts per
    /// million per attempt).
    WireImpair {
        /// Per-attempt loss probability, ppm.
        loss_ppm: u32,
        /// Per-delivery corruption probability, ppm.
        corrupt_ppm: u32,
    },
    /// CSI feedback has aged to `slots` slots.
    CsiStale(u16),
}

impl FaultKind {
    /// The [`NetEvent`] this fault is delivered as.
    pub(crate) fn to_event(self) -> NetEvent {
        match self {
            FaultKind::ApDown(ap) => NetEvent::ApDown { ap },
            FaultKind::ApUp(ap) => NetEvent::ApUp { ap },
            FaultKind::BackhaulDown => NetEvent::BackhaulDown,
            FaultKind::BackhaulUp => NetEvent::BackhaulUp,
            FaultKind::WireImpair {
                loss_ppm,
                corrupt_ppm,
            } => NetEvent::WireImpair {
                loss_ppm,
                corrupt_ppm,
            },
            FaultKind::CsiStale(slots) => NetEvent::CsiStale { slots },
        }
    }
}

/// One timed fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAt {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// An exponential holding time with the given mean (inverse-CDF draw from
/// the schedule's own generator).
fn exp_ms(rng: &mut Rng64, mean_ms: f64) -> f64 {
    -mean_ms * (1.0 - rng.next_f64()).ln()
}

/// A seeded AP crash/recover process: each AP in `aps` alternates
/// exponentially distributed up and down periods (means `mean_up_ms` /
/// `mean_down_ms`), starting up, until `horizon_ms`. Pure in
/// `(seed, arguments)`; the returned schedule is sorted by time with ties in
/// `aps` order.
pub fn ap_churn_schedule(
    seed: u64,
    aps: &[u16],
    mean_up_ms: f64,
    mean_down_ms: f64,
    horizon_ms: f64,
) -> Vec<FaultAt> {
    let mut out = Vec::new();
    for (i, &ap) in aps.iter().enumerate() {
        let mut rng = Rng64::derive(seed, ap as u64 ^ ((i as u64) << 32));
        let mut t = exp_ms(&mut rng, mean_up_ms);
        let mut up = true;
        while t < horizon_ms {
            let kind = if up {
                FaultKind::ApDown(ap)
            } else {
                FaultKind::ApUp(ap)
            };
            out.push(FaultAt {
                at: SimTime::from_millis(t),
                kind,
            });
            up = !up;
            t += exp_ms(&mut rng, if up { mean_up_ms } else { mean_down_ms });
        }
        // Never strand an AP down past the horizon: the timeline as cut off
        // must leave every AP recovered, so end-of-run metrics compare
        // degraded *windows*, not a permanently shrunk deployment.
        if !up {
            out.push(FaultAt {
                at: SimTime::from_millis(horizon_ms),
                kind: FaultKind::ApUp(ap),
            });
        }
    }
    out.sort_by_key(|a| a.at);
    out
}

/// Backhaul partition windows: `windows` is a list of `(down_ms, up_ms)`
/// pairs; each contributes a `BackhaulDown` / `BackhaulUp` fault.
pub fn partition_windows(windows: &[(f64, f64)]) -> Vec<FaultAt> {
    let mut out = Vec::new();
    for &(down_ms, up_ms) in windows {
        assert!(down_ms < up_ms, "partition window must heal after it opens");
        out.push(FaultAt {
            at: SimTime::from_millis(down_ms),
            kind: FaultKind::BackhaulDown,
        });
        out.push(FaultAt {
            at: SimTime::from_millis(up_ms),
            kind: FaultKind::BackhaulUp,
        });
    }
    out.sort_by_key(|a| a.at);
    out
}

/// A CSI-aging ramp: starting at `start_ms`, staleness increases by
/// `slots_per_step` every `step_ms` until `horizon_ms` (feedback that never
/// refreshes — the El Ayach et al. aging regime as a timeline).
pub fn csi_aging_ramp(
    start_ms: f64,
    step_ms: f64,
    slots_per_step: u16,
    horizon_ms: f64,
) -> Vec<FaultAt> {
    assert!(step_ms > 0.0, "aging step must advance time");
    let mut out = Vec::new();
    let mut t = start_ms;
    let mut slots = 0u16;
    while t < horizon_ms {
        slots = slots.saturating_add(slots_per_step);
        out.push(FaultAt {
            at: SimTime::from_millis(t),
            kind: FaultKind::CsiStale(slots),
        });
        t += step_ms;
    }
    out
}

/// A component that walks a fault timeline and delivers each fault to the
/// MAC at its scheduled time.
///
/// Kick it off by scheduling one [`NetEvent::FaultTick`] at the first
/// fault's time; it re-arms itself for each subsequent fault. Faults due at
/// the same instant are emitted in schedule order (the queue's FIFO
/// tie-break preserves it).
pub struct FaultInjector {
    mac: ComponentId,
    schedule: Vec<FaultAt>,
    next: usize,
}

impl FaultInjector {
    /// An injector delivering `schedule` (sorted by time; asserted) to
    /// `mac`.
    pub fn new(mac: ComponentId, schedule: Vec<FaultAt>) -> Self {
        assert!(
            schedule.windows(2).all(|w| w[0].at <= w[1].at),
            "fault schedule must be sorted by time"
        );
        Self {
            mac,
            schedule,
            next: 0,
        }
    }

    /// When the first fault is due (`None` for an empty schedule) — the
    /// time to schedule the kick-off `FaultTick` at.
    pub fn first_due(&self) -> Option<SimTime> {
        self.schedule.first().map(|f| f.at)
    }
}

impl EventHandler<NetEvent> for FaultInjector {
    fn on_event(&mut self, event: Event<NetEvent>, ctx: &mut Ctx<'_, NetEvent>) {
        if event.payload != NetEvent::FaultTick {
            return;
        }
        while let Some(f) = self.schedule.get(self.next) {
            if f.at > ctx.time() {
                break;
            }
            ctx.emit(self.mac, SimTime::ZERO, f.kind.to_event());
            self.next += 1;
        }
        if let Some(f) = self.schedule.get(self.next) {
            ctx.emit_self(f.at - ctx.time(), NetEvent::FaultTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_schedule_is_pure_sorted_and_balanced() {
        let a = ap_churn_schedule(7, &[1, 2], 30.0, 10.0, 200.0);
        let b = ap_churn_schedule(7, &[1, 2], 30.0, 10.0, 200.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        assert!(!a.is_empty(), "200ms at a 30ms mean uptime must churn");
        // Every AP ends up: downs and ups pair off.
        for ap in [1u16, 2] {
            let downs = a.iter().filter(|f| f.kind == FaultKind::ApDown(ap)).count();
            let ups = a.iter().filter(|f| f.kind == FaultKind::ApUp(ap)).count();
            assert_eq!(downs, ups, "AP {ap} left stranded down");
        }
        let c = ap_churn_schedule(8, &[1, 2], 30.0, 10.0, 200.0);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn partition_windows_alternate() {
        let s = partition_windows(&[(10.0, 20.0), (50.0, 55.0)]);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].kind, FaultKind::BackhaulDown);
        assert_eq!(s[1].kind, FaultKind::BackhaulUp);
        assert_eq!(s[1].at, SimTime::from_millis(20.0));
    }

    #[test]
    fn aging_ramp_escalates() {
        let s = csi_aging_ramp(20.0, 20.0, 4, 100.0);
        assert_eq!(s.len(), 4);
        let slots: Vec<u16> = s
            .iter()
            .map(|f| match f.kind {
                FaultKind::CsiStale(k) => k,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![4, 8, 12, 16]);
    }

    #[test]
    fn injector_delivers_in_order() {
        use crate::simulation::Simulation;
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Tap(Rc<RefCell<Vec<(f64, NetEvent)>>>);
        impl EventHandler<NetEvent> for Tap {
            fn on_event(&mut self, event: Event<NetEvent>, ctx: &mut Ctx<'_, NetEvent>) {
                self.0
                    .borrow_mut()
                    .push((ctx.time().micros(), event.payload));
            }
        }

        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let mac = sim.add_component("mac", Tap(seen.clone()));
        let schedule = vec![
            FaultAt {
                at: SimTime::from_millis(1.0),
                kind: FaultKind::ApDown(2),
            },
            FaultAt {
                at: SimTime::from_millis(1.0),
                kind: FaultKind::BackhaulDown,
            },
            FaultAt {
                at: SimTime::from_millis(3.0),
                kind: FaultKind::ApUp(2),
            },
        ];
        let injector = FaultInjector::new(mac, schedule);
        let first = injector.first_due().unwrap();
        let inj = sim.add_component("faults", injector);
        sim.schedule(first, inj, NetEvent::FaultTick);
        sim.step_until_no_events();
        let got = seen.borrow().clone();
        assert_eq!(
            got,
            vec![
                (1000.0, NetEvent::ApDown { ap: 2 }),
                (1000.0, NetEvent::BackhaulDown),
                (3000.0, NetEvent::ApUp { ap: 2 }),
            ]
        );
    }
}
