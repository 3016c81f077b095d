//! Replay: re-drive a handler set and assert the event stream matches a
//! recording, bit for bit.
//!
//! Because a simulation is a pure function of its construction and seed,
//! replay is *verified re-execution*: rebuild the same components, attach a
//! [`ReplayChecker`] where the recording attached an
//! [`EventRecorder`](super::EventRecorder), and run. The checker compares
//! every fired event against the recording — id, time bits, source,
//! destination, and the encoded payload bytes — and remembers the first
//! mismatch with a window of surrounding recorded context. A clean run
//! therefore reproduces the original [`MetricsLog`](crate::MetricsLog)
//! bit-identically (the handlers saw exactly the same events in the same
//! order with the same RNG stream); a divergent run names the exact event
//! where history forked instead of leaving a golden-file mismatch to puzzle
//! over.

use super::codec::{EventCodec, EventLog, EventRecord};
use crate::event::Event;
use crate::simulation::{EventObserver, Simulation};
use bytes::BytesMut;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

/// How many recorded events around a divergence are attached as context.
pub const CONTEXT_WINDOW: usize = 3;

/// The first point where a replay (or a second log) departs from a
/// recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index into the fired-event sequence.
    pub index: u64,
    /// What the recording holds at that index (`None`: the replay fired
    /// *more* events than were recorded).
    pub expected: Option<EventRecord>,
    /// What actually fired (`None`: the replay drained with recorded events
    /// left over).
    pub got: Option<EventRecord>,
    /// Recorded events around the divergence: `(index, record)`, covering
    /// up to [`CONTEXT_WINDOW`] before and after.
    pub context: Vec<(u64, EventRecord)>,
}

impl Divergence {
    /// Detailed rendering with payloads decoded as event type `E`.
    pub fn render<E: EventCodec + std::fmt::Debug>(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "first divergence at fired event {}:\n",
            self.index
        ));
        match &self.expected {
            Some(r) => out.push_str(&format!("  expected: {}\n", r.describe::<E>())),
            None => out.push_str("  expected: <end of recording — extra event fired>\n"),
        }
        match &self.got {
            Some(r) => out.push_str(&format!("  got:      {}\n", r.describe::<E>())),
            None => out.push_str("  got:      <simulation drained — recorded events left>\n"),
        }
        if !self.context.is_empty() {
            out.push_str("  recorded context:\n");
            for (i, r) in &self.context {
                let marker = if *i == self.index { ">>" } else { "  " };
                out.push_str(&format!("  {marker} [{i}] {}\n", r.describe::<E>()));
            }
        }
        out
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at fired event {} (expected {}, got {})",
            self.index,
            match &self.expected {
                Some(r) => format!("#{} at t-bits {:#x}", r.id, r.time_bits),
                None => "end of recording".to_string(),
            },
            match &self.got {
                Some(r) => format!("#{} at t-bits {:#x}", r.id, r.time_bits),
                None => "drained simulation".to_string(),
            }
        )
    }
}

impl std::error::Error for Divergence {}

/// Extract the context window around `index` from a log.
pub(crate) fn context_window(log: &EventLog, index: u64) -> Vec<(u64, EventRecord)> {
    let lo = (index as usize).saturating_sub(CONTEXT_WINDOW);
    let hi = ((index as usize) + CONTEXT_WINDOW + 1).min(log.records.len());
    (lo..hi)
        .map(|i| (i as u64, log.records[i].clone()))
        .collect()
}

struct CheckerInner {
    log: EventLog,
    cursor: usize,
    divergence: Option<Divergence>,
    scratch: BytesMut,
}

/// An [`EventObserver`] that checks each fired event against a recording;
/// cheap-clone handle like the recorder. After the run,
/// [`ReplayChecker::finish`] reports success or the first divergence.
pub struct ReplayChecker<E> {
    inner: Rc<RefCell<CheckerInner>>,
    _marker: PhantomData<fn(&E)>,
}

impl<E> Clone for ReplayChecker<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
            _marker: PhantomData,
        }
    }
}

impl<E: EventCodec> ReplayChecker<E> {
    /// A checker expecting exactly the events of `log`, in order.
    pub fn new(log: EventLog) -> Self {
        Self {
            inner: Rc::new(RefCell::new(CheckerInner {
                log,
                cursor: 0,
                divergence: None,
                scratch: BytesMut::with_capacity(256),
            })),
            _marker: PhantomData,
        }
    }

    /// Events checked successfully so far.
    ///
    /// No production caller: public for `crates/des/tests/record_replay.rs`.
    pub fn checked(&self) -> u64 {
        self.inner.borrow().cursor as u64
    }

    /// Success (the number of matched events) if every fired event matched
    /// the recording *and* the recording was fully consumed; otherwise the
    /// first divergence (boxed: the success path stays lean, and a
    /// divergence is a terminal diagnostic, not a hot value).
    pub fn finish(&self) -> Result<u64, Box<Divergence>> {
        let inner = self.inner.borrow();
        if let Some(d) = &inner.divergence {
            return Err(Box::new(d.clone()));
        }
        if inner.cursor < inner.log.records.len() {
            return Err(Box::new(Divergence {
                index: inner.cursor as u64,
                expected: Some(inner.log.records[inner.cursor].clone()),
                got: None,
                context: context_window(&inner.log, inner.cursor as u64),
            }));
        }
        Ok(inner.cursor as u64)
    }
}

impl<E: EventCodec> EventObserver<E> for ReplayChecker<E> {
    fn on_fire(&mut self, event: &Event<E>) {
        let mut inner = self.inner.borrow_mut();
        if inner.divergence.is_some() {
            return;
        }
        let CheckerInner {
            log,
            cursor,
            divergence,
            scratch,
        } = &mut *inner;
        scratch.clear();
        event.payload.encode_payload(scratch);
        let fired = EventRecord {
            id: event.id,
            time_bits: event.time.micros().to_bits(),
            src: event.src,
            dst: event.dst,
            payload: scratch.to_vec(),
        };
        let index = *cursor as u64;
        match log.records.get(*cursor) {
            Some(want) if *want == fired => *cursor += 1,
            want => {
                *divergence = Some(Divergence {
                    index,
                    expected: want.cloned(),
                    got: Some(fired),
                    context: context_window(log, index),
                });
            }
        }
    }
}

/// What a successful replay reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Events fired and matched against the recording.
    pub events: u64,
}

/// High-level verified re-execution: drive a freshly built [`Simulation`]
/// (same components, same seed as the recorded run) to completion while
/// checking every fired event against the recording.
pub struct Replayer {
    log: EventLog,
}

impl Replayer {
    /// A replayer for one recorded log.
    pub fn new(log: EventLog) -> Self {
        Self { log }
    }

    /// Run `sim` to queue exhaustion under the checker. The simulation must
    /// be constructed exactly as the recorded one was (the record/replay
    /// contract); on success its side effects — in particular any
    /// [`MetricsLog`](crate::MetricsLog) — are bit-identical to the
    /// original run's.
    pub fn run<E: EventCodec + 'static>(
        &self,
        sim: &mut Simulation<E>,
    ) -> Result<ReplaySummary, Box<Divergence>> {
        let checker: ReplayChecker<E> = ReplayChecker::new(self.log.clone());
        sim.set_observer(Box::new(checker.clone()));
        sim.step_until_no_events();
        sim.take_observer();
        checker.finish().map(|events| ReplaySummary { events })
    }
}
