//! Property-based tests for the event engine's core guarantees: temporal
//! order, stable FIFO tie-breaking, bit-reproducibility from the seed, and
//! the queue's whole public contract against a sorted reference model.

use iac_des::prelude::*;
use iac_des::queue::EventQueue;
use iac_linalg::Rng64;
use proptest::prelude::*;

/// Draw a pseudo-random schedule of (time, payload) pairs from a seed, with
/// deliberately many collisions (times quantised to a few buckets).
fn random_schedule(seed: u64, n: usize, buckets: u64) -> Vec<(f64, u32)> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|k| {
            let t = (rng.next_u64() % buckets) as f64;
            (t, k as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn events_fire_in_non_decreasing_time(seed in any::<u64>(), n in 1usize..200) {
        let mut q = EventQueue::new();
        for &(t, k) in &random_schedule(seed, n, 17) {
            q.push(SimTime::from_micros(t), 0, 0, k);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last, "time went backwards");
            last = ev.time;
            popped += 1;
        }
        prop_assert_eq!(popped, n);
    }

    #[test]
    fn same_time_events_fire_in_insertion_order(seed in any::<u64>(), n in 1usize..200) {
        // Heavy collisions: only 3 distinct times.
        let mut q = EventQueue::new();
        for &(t, k) in &random_schedule(seed, n, 3) {
            q.push(SimTime::from_micros(t), 0, 0, k);
        }
        // Within each timestamp, payloads (== insertion index) ascend.
        let mut last: Option<(SimTime, u32)> = None;
        while let Some(ev) = q.pop() {
            if let Some((t, k)) = last {
                if ev.time == t {
                    prop_assert!(ev.payload > k, "FIFO violated at {}", ev.time);
                }
            }
            last = Some((ev.time, ev.payload));
        }
    }

    #[test]
    fn pop_order_matches_stable_sort(seed in any::<u64>(), n in 1usize..150) {
        // The queue must agree with the spec: stable sort by time.
        let schedule = random_schedule(seed, n, 5);
        let mut q = EventQueue::new();
        for &(t, k) in &schedule {
            q.push(SimTime::from_micros(t), 0, 0, k);
        }
        let mut expected = schedule;
        expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // sort_by is stable
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push((ev.time.micros(), ev.payload));
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn cancellation_removes_exactly_the_cancelled(seed in any::<u64>(), n in 2usize..100) {
        let schedule = random_schedule(seed, n, 11);
        let mut q = EventQueue::new();
        let ids: Vec<_> = schedule
            .iter()
            .map(|&(t, k)| q.push(SimTime::from_micros(t), 0, 0, k))
            .collect();
        // Cancel every third event.
        let cancelled: Vec<bool> = (0..n).map(|k| k % 3 == 0).collect();
        for (id, &c) in ids.iter().zip(&cancelled) {
            if c {
                q.cancel(*id);
            }
        }
        let mut survivors = Vec::new();
        while let Some(ev) = q.pop() {
            survivors.push(ev.payload);
        }
        for (k, &c) in cancelled.iter().enumerate() {
            prop_assert_eq!(survivors.contains(&(k as u32)), !c);
        }
    }

    #[test]
    fn full_run_is_bit_identical_across_two_runs(seed in any::<u64>()) {
        // A component that fans out a random number of children with random
        // delays — every branch decided by the simulation's seeded RNG.
        struct Fanout {
            budget: std::rc::Rc<std::cell::RefCell<u32>>,
            trace: std::rc::Rc<std::cell::RefCell<Vec<(f64, u32)>>>,
        }
        impl EventHandler<u32> for Fanout {
            fn on_event(&mut self, event: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                self.trace.borrow_mut().push((ctx.time().micros(), event.payload));
                let mut budget = self.budget.borrow_mut();
                let children = ctx.rng().next_u64() % 3;
                for _ in 0..children {
                    if *budget == 0 {
                        return;
                    }
                    *budget -= 1;
                    let delay = SimTime::from_micros((ctx.rng().next_u64() % 50) as f64);
                    let payload = (ctx.rng().next_u64() % 1000) as u32;
                    ctx.emit_self(delay, payload);
                }
            }
        }
        let run = |seed: u64| {
            let trace = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let budget = std::rc::Rc::new(std::cell::RefCell::new(200u32));
            let mut sim = Simulation::new(seed);
            let a = sim.add_component(
                "fanout",
                Fanout { budget, trace: trace.clone() },
            );
            sim.schedule(SimTime::ZERO, a, 1u32);
            let n = sim.step_until_no_events();
            let out = (n, sim.time(), trace.borrow().clone());
            out
        };
        let (n1, t1, trace1) = run(seed);
        let (n2, t2, trace2) = run(seed);
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(trace1, trace2);
    }

    #[test]
    fn queue_matches_sorted_reference_model(seed in any::<u64>(), n in 1usize..400) {
        let mut rng = Rng64::new(seed);
        let mut q = EventQueue::new();
        let mut model = Model::default();
        for step in 0..n {
            match rng.below(10) {
                0..=4 => {
                    let time = TIMES[rng.below(TIMES.len() as u64) as usize];
                    let time = SimTime::from_micros(time);
                    let payload = step as u32;
                    let id = q.push(time, 0, 0, payload);
                    prop_assert_eq!(id, model.push(time, payload));
                }
                5 | 6 => {
                    let got = q.pop().map(|ev| (ev.time, ev.id, ev.payload));
                    prop_assert_eq!(got, model.pop(), "pop at step {}", step);
                }
                7 => prop_assert_eq!(q.peek_time(), model.peek_time(), "peek at step {}", step),
                _ => {
                    // Pending, fired, cancelled and never-scheduled ids alike.
                    let id = rng.below(model.next_id + 3);
                    q.cancel(id);
                    model.cancel(id);
                }
            }
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            prop_assert_eq!(q.high_water(), model.high_water);
            prop_assert_eq!(q.cancelled(), model.cancelled);
            prop_assert_eq!(q.scheduled(), model.next_id);
        }
        // Draining fires every live event in model order.
        loop {
            let got = q.pop().map(|ev| (ev.time, ev.id, ev.payload));
            prop_assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}

/// Fire times for the reference-model test: few enough to collide often,
/// with zero, both infinities and negative times (which only a direct
/// `EventQueue::push` can schedule).
const TIMES: [f64; 9] = [
    0.0,
    0.0,
    1.0,
    1.0,
    2.5,
    1e9,
    f64::INFINITY,
    -3.0,
    f64::NEG_INFINITY,
];

/// The queue's contract, written plainly: pending entries (cancelled ones
/// included until a pop or peek skips them), fired in `(time, id)` order
/// with times compared by `total_cmp`.
#[derive(Default)]
struct Model {
    /// `(time, id, payload, cancelled)`.
    pending: Vec<(SimTime, u64, u32, bool)>,
    next_id: u64,
    high_water: usize,
    cancelled: u64,
}

impl Model {
    fn push(&mut self, time: SimTime, payload: u32) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((time, id, payload, false));
        self.high_water = self.high_water.max(self.pending.len());
        id
    }

    /// Index of the earliest pending entry.
    fn first(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, ia, _, _) = self.pending[a];
            let (tb, ib, _, _) = self.pending[b];
            ta.micros().total_cmp(&tb.micros()).then(ia.cmp(&ib))
        })
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        while let Some(at) = self.first() {
            let (time, id, payload, cancelled) = self.pending.remove(at);
            if !cancelled {
                return Some((time, id, payload));
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(at) = self.first() {
            if !self.pending[at].3 {
                return Some(self.pending[at].0);
            }
            self.pending.remove(at);
        }
        None
    }

    fn cancel(&mut self, id: u64) {
        if let Some(entry) = self.pending.iter_mut().find(|e| e.1 == id && !e.3) {
            entry.3 = true;
            self.cancelled += 1;
        }
    }
}
