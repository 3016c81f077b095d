//! Edge-semantics tests for [`EventQueue`]: cancellation after an event has
//! already fired must be a true no-op, FIFO tie-breaking at equal
//! `SimTime` must survive interleaved cancellation, and `with_capacity`
//! must behave identically to `new`.

use iac_des::queue::EventQueue;
use iac_des::SimTime;

fn t(us: f64) -> SimTime {
    SimTime::from_micros(us)
}

#[test]
fn cancel_after_fire_is_a_no_op() {
    let mut q = EventQueue::new();
    let a = q.push(t(1.0), 0, 0, "a");
    let b = q.push(t(1.0), 0, 0, "b");
    assert_eq!(q.pop().unwrap().payload, "a");

    // Cancelling the fired id must not disturb anything still pending…
    q.cancel(a);
    assert_eq!(q.peek_time(), Some(t(1.0)));
    assert_eq!(q.pop().unwrap().payload, "b");

    // …and repeating it (or cancelling twice) stays a no-op.
    q.cancel(a);
    q.cancel(b);
    q.cancel(b);
    assert!(q.pop().is_none());
    assert!(q.is_empty());
    assert_eq!(q.scheduled(), 2, "cancel must never mint ids");
}

#[test]
fn cancel_after_fire_does_not_resurrect_later_reuse() {
    // A fired id followed by many more pushes: cancelling the stale id must
    // not cancel any live event, even as ids keep growing past it.
    let mut q = EventQueue::new();
    let first = q.push(t(0.0), 0, 0, 0u32);
    assert_eq!(q.pop().unwrap().id, first);
    for k in 1..50u32 {
        q.push(t(k as f64), 0, 0, k);
    }
    q.cancel(first); // stale
    let mut seen = Vec::new();
    while let Some(ev) = q.pop() {
        seen.push(ev.payload);
    }
    assert_eq!(seen, (1..50).collect::<Vec<u32>>());
}

#[test]
fn fifo_tie_break_survives_interleaved_cancellation() {
    // 20 events at the same instant; cancel every third one. Survivors must
    // still pop in insertion order.
    let mut q = EventQueue::new();
    let ids: Vec<_> = (0..20u32).map(|k| q.push(t(7.0), 0, 0, k)).collect();
    for (k, &id) in ids.iter().enumerate() {
        if k % 3 == 0 {
            q.cancel(id);
        }
    }
    let mut seen = Vec::new();
    while let Some(ev) = q.pop() {
        seen.push(ev.payload);
    }
    let expect: Vec<u32> = (0..20).filter(|k| k % 3 != 0).collect();
    assert_eq!(seen, expect);
}

#[test]
fn fifo_tie_break_is_per_time_not_global() {
    // Later-scheduled events at an *earlier* time still fire first; FIFO
    // order only applies within one timestamp.
    let mut q = EventQueue::new();
    q.push(t(5.0), 0, 0, "late-a");
    q.push(t(5.0), 0, 0, "late-b");
    q.push(t(2.0), 0, 0, "early");
    assert_eq!(q.pop().unwrap().payload, "early");
    assert_eq!(q.pop().unwrap().payload, "late-a");
    assert_eq!(q.pop().unwrap().payload, "late-b");
}

#[test]
fn with_capacity_matches_new_exactly() {
    let mut plain = EventQueue::new();
    let mut sized = EventQueue::with_capacity(64);
    for k in 0..40u32 {
        let time = t((k % 5) as f64);
        assert_eq!(
            plain.push(time, 0, 0, k),
            sized.push(time, 0, 0, k),
            "id streams must agree"
        );
    }
    plain.cancel(3);
    sized.cancel(3);
    loop {
        match (plain.pop(), sized.pop()) {
            (None, None) => break,
            (a, b) => {
                let (a, b) = (a.expect("plain ended early"), b.expect("sized ended early"));
                assert_eq!((a.id, a.time, a.payload), (b.id, b.time, b.payload));
            }
        }
    }
    assert_eq!(plain.scheduled(), sized.scheduled());
}

#[test]
fn with_capacity_zero_works() {
    let mut q = EventQueue::<u8>::with_capacity(0);
    assert!(q.is_empty());
    q.push(t(1.0), 0, 0, 1);
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop().unwrap().payload, 1);
}
