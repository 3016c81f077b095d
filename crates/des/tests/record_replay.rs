//! End-to-end record → replay → diff tests against a small RNG-dependent
//! simulation: a clean replay matches every fired event bit-for-bit, a
//! different seed is caught at the first divergent event (not at the end of
//! the run), and log surgery (truncation, extension, byte flips) produces
//! the right [`Divergence`] shape.

use iac_des::log::codec::{self, CodecError, EventCodec};
use iac_des::log::{
    diff_logs, render_diff, EventLog, EventRecorder, LogDiff, MemorySink, ReplayChecker, Replayer,
};
use iac_des::prelude::*;
use iac_des::EventId;

use bytes::{Bytes, BytesMut};

/// Countdown payload for the relay pair below.
#[derive(Debug, Clone, PartialEq)]
struct Tick(u32);

impl EventCodec for Tick {
    fn encode_payload(&self, buf: &mut BytesMut) {
        use bytes::BufMut;
        buf.put_u32(self.0);
    }
    fn decode_payload(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(Self(codec::get_u32(buf, "Tick")?))
    }
    fn kind(&self) -> &'static str {
        "Tick"
    }
}

/// A relay that bounces the countdown to its peer with an RNG-drawn delay —
/// the fire times (and so the whole event stream) depend on the simulation
/// seed, which is exactly what replay must reproduce.
struct JitterRelay {
    peer: ComponentId,
}

impl EventHandler<Tick> for JitterRelay {
    fn on_event(&mut self, event: Event<Tick>, ctx: &mut Ctx<'_, Tick>) {
        if event.payload.0 > 0 {
            let jitter = 1.0 + 9.0 * ctx.rng().next_f64();
            ctx.emit(
                self.peer,
                SimTime::from_micros(jitter),
                Tick(event.payload.0 - 1),
            );
        }
    }
}

/// The reference scenario: two jittering relays counting down from 8.
fn build(seed: u64) -> Simulation<Tick> {
    let mut sim = Simulation::new(seed);
    let a = sim.add_component("a", JitterRelay { peer: 1 });
    let _b = sim.add_component("b", JitterRelay { peer: 0 });
    sim.schedule(SimTime::ZERO, a, Tick(8));
    sim
}

/// Record one full run of `build(seed)` and return the decoded log.
fn record(seed: u64) -> EventLog {
    let (rec, sink) = EventRecorder::<Tick>::in_memory();
    let mut sim = build(seed);
    sim.set_observer(Box::new(rec.clone()));
    sim.step_until_no_events();
    sim.take_observer();
    let n = rec.finish().expect("in-memory finish");
    let log = EventLog::decode(&sink.take()).expect("recorded log decodes");
    assert_eq!(log.len() as u64, n);
    log
}

#[test]
fn record_then_replay_same_seed_matches_every_event() {
    let log = record(42);
    assert_eq!(log.len(), 9, "initial event + 8 countdown hops");
    let mut sim = build(42);
    let summary = Replayer::new(log.clone())
        .run(&mut sim)
        .expect("identical construction must replay cleanly");
    assert_eq!(summary.events, log.len() as u64);
}

#[test]
fn recording_is_a_passive_observer() {
    // Same seed with and without a recorder attached: identical step count
    // and identical final clock.
    let mut plain = build(7);
    let plain_steps = plain.step_until_no_events();

    let (rec, _sink) = EventRecorder::<Tick>::in_memory();
    let mut observed = build(7);
    observed.set_observer(Box::new(rec.clone()));
    let observed_steps = observed.step_until_no_events();
    observed.take_observer();

    assert_eq!(plain_steps, observed_steps);
    assert_eq!(plain.time(), observed.time());
    assert_eq!(rec.finish().unwrap(), plain_steps);
}

#[test]
fn different_seed_diverges_at_the_first_jittered_event() {
    let log = record(42);
    let mut sim = build(43);
    let d = Replayer::new(log)
        .run(&mut sim)
        .expect_err("different RNG stream must diverge");
    // Event 0 is the externally scheduled kick-off (seed-independent);
    // event 1 is the first RNG-jittered hop.
    assert_eq!(d.index, 1);
    let (expected, got) = (d.expected.as_ref().unwrap(), d.got.as_ref().unwrap());
    assert_eq!(expected.id, got.id, "same scheduling order");
    assert_ne!(expected.time_bits, got.time_bits, "different jitter");
    let rendered = d.render::<Tick>();
    assert!(rendered.contains("first divergence at fired event 1"));
    assert!(
        rendered.contains(">> [1]"),
        "context marker missing:\n{rendered}"
    );
    assert!(!format!("{d}").is_empty(), "Display must render");
}

#[test]
fn truncated_recording_reports_the_extra_fired_event() {
    let mut log = record(42);
    let n = log.len();
    log.records.truncate(n - 1);
    let mut sim = build(42);
    let d = Replayer::new(log).run(&mut sim).expect_err("extra event");
    assert_eq!(d.index as usize, n - 1);
    assert!(d.expected.is_none(), "recording ended");
    assert!(d.got.is_some(), "the simulation still fired");
    assert!(d.render::<Tick>().contains("extra event fired"));
}

#[test]
fn overlong_recording_reports_leftover_records() {
    let mut log = record(42);
    let mut extra = log.records.last().unwrap().clone();
    extra.id += 1;
    log.records.push(extra);
    let n = log.len();
    let mut sim = build(42);
    let d = Replayer::new(log)
        .run(&mut sim)
        .expect_err("leftover record");
    assert_eq!(d.index as usize, n - 1);
    assert!(d.expected.is_some(), "the recording still has this event");
    assert!(d.got.is_none(), "the simulation drained");
    assert!(d.render::<Tick>().contains("recorded events left"));
}

#[test]
fn checker_counts_matched_events_incrementally() {
    let log = record(42);
    let checker: ReplayChecker<Tick> = ReplayChecker::new(log.clone());
    assert_eq!(checker.checked(), 0);
    let mut sim = build(42);
    sim.set_observer(Box::new(checker.clone()));
    sim.step_until_no_events();
    sim.take_observer();
    assert_eq!(checker.checked(), log.len() as u64);
    assert_eq!(checker.finish(), Ok(log.len() as u64));
}

#[test]
fn diff_identical_and_divergent_logs() {
    let a = record(42);
    let b = record(42);
    assert_eq!(
        diff_logs(&a, &b),
        LogDiff::Identical {
            events: a.len() as u64
        }
    );
    assert!(render_diff::<Tick>(&a, &b).contains("logs identical"));

    let c = record(1234);
    match diff_logs(&a, &c) {
        LogDiff::Diverged(d) => {
            assert_eq!(d.index, 1, "kick-off matches, first hop forks");
            assert!(d.expected.is_some() && d.got.is_some());
        }
        other => panic!("expected divergence, got {other:?}"),
    }
    let rendered = render_diff::<Tick>(&a, &c);
    assert!(rendered.contains("--- log A ---"));
    assert!(rendered.contains("--- log B ---"));
    assert!(rendered.contains(">> [1]"));
}

#[test]
fn diff_prefix_case_points_at_the_shorter_end() {
    let a = record(42);
    let mut b = a.clone();
    b.records.truncate(a.len() - 2);
    match diff_logs(&a, &b) {
        LogDiff::Diverged(d) => {
            assert_eq!(d.index as usize, a.len() - 2);
            assert!(d.expected.is_some());
            assert!(d.got.is_none(), "B is a strict prefix");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
    assert!(render_diff::<Tick>(&a, &b).contains("<log ends here>"));
}

#[test]
fn diff_catches_a_single_payload_byte_flip() {
    let a = record(42);
    let mut b = a.clone();
    let mid = a.len() / 2;
    *b.records[mid].payload.last_mut().unwrap() ^= 0x01;
    match diff_logs(&a, &b) {
        LogDiff::Diverged(d) => assert_eq!(d.index as usize, mid),
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn unfinished_recording_decodes_as_truncated() {
    let (rec, sink) = EventRecorder::<Tick>::in_memory();
    let mut sim = build(5);
    sim.set_observer(Box::new(rec.clone()));
    sim.step_until_no_events();
    sim.take_observer();
    // No finish(): the sink holds a header and records but no end marker —
    // exactly what a crashed recorder leaves behind.
    assert!(!sink.is_empty());
    let bytes = sink.take();
    assert!(sink.is_empty(), "take drains the sink");
    assert_eq!(EventLog::decode(&bytes), Err(CodecError::MissingEndMarker));
    drop(rec);
}

#[test]
fn memory_sink_reports_length() {
    let sink = MemorySink::default();
    assert!(sink.is_empty());
    assert_eq!(sink.len(), 0);
    {
        use std::io::Write;
        let mut w = sink.clone();
        w.write_all(&[1, 2, 3]).unwrap();
    }
    assert_eq!(sink.len(), 3);
    assert_eq!(sink.take(), vec![1, 2, 3]);
}

#[test]
fn divergence_context_window_is_bounded() {
    let a = record(42);
    let mid = a.len() / 2;
    let mut b = a.clone();
    b.records[mid].src ^= 1;
    let LogDiff::Diverged(d) = diff_logs(&a, &b) else {
        panic!("expected divergence")
    };
    assert_eq!(d.index as usize, mid);
    assert!(d.context.len() <= 2 * iac_des::log::CONTEXT_WINDOW + 1);
    assert!(d.context.iter().any(|(i, _)| *i == mid as u64));
    let ids: Vec<EventId> = d.context.iter().map(|(i, _)| *i).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "context is in log order");
}
