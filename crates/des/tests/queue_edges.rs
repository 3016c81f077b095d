//! Edge-semantics tests for [`EventQueue`]: FIFO tie-breaking applies only
//! within one `SimTime`, and `with_capacity` must behave identically to
//! `new`.

use iac_des::queue::EventQueue;
use iac_des::SimTime;

fn t(us: f64) -> SimTime {
    SimTime::from_micros(us)
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
