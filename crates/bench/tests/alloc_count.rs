//! Proof of the zero-allocation sample plane: a counting global allocator
//! wraps `System`, the full steady-state sample loop (precode → medium mix →
//! project → equalize → cancel-reconstruct/subtract → planned FFT) runs on
//! warm `_into` buffers, and the heap counter must not move. The same
//! counter caps the heap traffic of one fig15 group score, through the
//! optimisers and through the per-slot scoring context, of one Fig. 4b
//! seed search, and of one transmission group of the event-driven PCF MAC.
//!
//! Registered with `harness = false` (a plain `fn main`): the measured
//! window must be the only live thread in the process — libtest's harness
//! threads allocate sporadically and would trip the counter.

use iac_channel::estimation::EstimationConfig;
use iac_channel::{Awgn, Cfo};
use iac_core::baseline;
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize::{self, ScoringContext};
use iac_linalg::{CMat, CVec, Rng64, C64};
use iac_phy::cancel::{reconstruct_into, subtract};
use iac_phy::dsp::Scratch;
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::precode::{precode_into, sum_streams_into};
use iac_phy::project::{combine_into, equalize_in_place};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocation and reallocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Everything one steady-state iteration reads and writes; all buffers are
/// owned here so iterations only ever reuse them.
struct Pipeline {
    rng: Rng64,
    scratch: Scratch,
    samples: Vec<C64>,
    v: CVec,
    u: CVec,
    h: CMat,
    cfo: Cfo,
    // Reused output buffers.
    precoded_a: Vec<Vec<C64>>,
    precoded_b: Vec<Vec<C64>>,
    summed: Vec<Vec<C64>>,
    mixed: Vec<Vec<C64>>,
    projected: Vec<C64>,
    reconstruction: Vec<Vec<C64>>,
}

impl Pipeline {
    fn new() -> Self {
        let mut rng = Rng64::new(0xA110C);
        let samples: Vec<C64> = (0..4096).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        let u = CVec::random_unit(2, &mut rng);
        let h = CMat::random(2, 2, &mut rng);
        Self {
            rng,
            scratch: Scratch::new(),
            samples,
            v,
            u,
            h,
            cfo: Cfo::new(300.0, 500_000.0),
            precoded_a: Vec::new(),
            precoded_b: Vec::new(),
            summed: Vec::new(),
            mixed: Vec::new(),
            projected: Vec::new(),
            reconstruction: Vec::new(),
        }
    }

    /// One full sample-plane iteration on reused buffers.
    fn step(&mut self) {
        let n = self.samples.len();
        precode_into(&self.samples, &self.v, 0.5, &mut self.precoded_a);
        precode_into(&self.samples, &self.u, 0.5, &mut self.precoded_b);
        let sets = [
            std::mem::take(&mut self.precoded_a),
            std::mem::take(&mut self.precoded_b),
        ];
        sum_streams_into(&sets, &mut self.summed);
        let [a, b] = sets;
        self.precoded_a = a;
        self.precoded_b = b;
        Medium::mix_into(
            &[AirTransmission {
                streams: &self.summed,
                channel: &self.h,
                cfo: self.cfo,
                start: 0,
            }],
            2,
            n,
            Awgn::new(0.01),
            &mut self.rng,
            &mut self.mixed,
        );
        combine_into(&self.mixed, &self.u, &mut self.projected);
        equalize_in_place(&mut self.projected, C64::new(0.8, 0.1));
        reconstruct_into(
            &self.samples,
            &self.v,
            &self.h,
            0.5,
            300.0,
            500_000.0,
            0,
            &mut self.reconstruction,
        );
        subtract(&mut self.mixed, &self.reconstruction, 0);
        // Planned FFT straight off the scratch plan cache.
        let mut spectrum = self.scratch.take(1024);
        spectrum.copy_from_slice(&self.projected[..1024]);
        let plan = self.scratch.plan(1024);
        plan.fft(&mut spectrum);
        plan.ifft(&mut spectrum);
        self.scratch.put(spectrum);
    }
}

/// A self-perpetuating DES component: each event schedules the next. The
/// steady state of this loop — pop, dispatch, emit — must stay off the heap
/// once the queue's backing storage is warm, *including* the disabled
/// observer hook on the fire path (a single `None` branch).
struct SelfTick;

impl iac_des::EventHandler<u64> for SelfTick {
    fn on_event(&mut self, event: iac_des::Event<u64>, ctx: &mut iac_des::Ctx<'_, u64>) {
        // An RNG draw keeps the jitter path on the measured loop.
        let jitter = 1.0 + ctx.rng().next_f64();
        ctx.emit_self(iac_des::SimTime::from_micros(jitter), event.payload + 1);
    }
}

/// The DES half of the proof: with no observer attached, stepping the
/// simulation allocates nothing in steady state — recording is zero-cost
/// when disabled.
fn des_steady_state_is_allocation_free() {
    let mut sim = iac_des::Simulation::with_capacity(0xA110C, 16);
    let tick = sim.add_component("tick", SelfTick);
    sim.schedule(iac_des::SimTime::ZERO, tick, 0u64);
    for _ in 0..32 {
        assert!(sim.step(), "self-tick must keep the queue non-empty");
    }
    let before = allocations();
    for _ in 0..1000 {
        assert!(sim.step());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "DES steady state with recording disabled allocated {} time(s)",
        after - before
    );
    println!("alloc_count: 1000 DES steps with no observer performed 0 heap allocations — ok");
}

/// A two-kind codec payload so the kind-counting telemetry observer has
/// distinct map entries to warm and then hit.
#[derive(Debug, PartialEq)]
enum Tick {
    Even,
    Odd,
}

impl iac_des::EventCodec for Tick {
    fn encode_payload(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u8(matches!(self, Tick::Odd) as u8);
    }
    fn decode_payload(buf: &mut bytes::Bytes) -> Result<Self, iac_des::log::CodecError> {
        Ok(if iac_des::log::codec::get_u8(buf, "tick")? == 1 {
            Tick::Odd
        } else {
            Tick::Even
        })
    }
    fn kind(&self) -> &'static str {
        match self {
            Tick::Even => "Even",
            Tick::Odd => "Odd",
        }
    }
}

/// Self-perpetuating ticker alternating both payload kinds.
struct AlternatingTick;

impl iac_des::EventHandler<Tick> for AlternatingTick {
    fn on_event(&mut self, event: iac_des::Event<Tick>, ctx: &mut iac_des::Ctx<'_, Tick>) {
        let jitter = 1.0 + ctx.rng().next_f64();
        let next = match event.payload {
            Tick::Even => Tick::Odd,
            Tick::Odd => Tick::Even,
        };
        ctx.emit_self(iac_des::SimTime::from_micros(jitter), next);
    }
}

/// The telemetry half: with the passive kind-counting observer *attached*,
/// the steady state still allocates nothing — once every payload kind's map
/// entry exists (the warm-up covers both), counting is a BTreeMap hit and
/// an integer increment. Telemetry on the DES hot loop is heap-silent.
fn observed_des_steady_state_is_allocation_free() {
    let counts = iac_des::SharedKindCounts::new();
    let mut sim = iac_des::Simulation::with_capacity(0xA110C, 16);
    sim.set_observer(Box::new(iac_des::EventKindCounter::new(counts.clone())));
    let tick = sim.add_component("tick", AlternatingTick);
    sim.schedule(iac_des::SimTime::ZERO, tick, Tick::Even);
    for _ in 0..32 {
        assert!(sim.step(), "alternating tick must keep the queue non-empty");
    }
    let before = allocations();
    for _ in 0..1000 {
        assert!(sim.step());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "observed DES steady state allocated {} time(s)",
        after - before
    );
    assert_eq!(
        counts.total(),
        1032,
        "the observer saw every dispatched event"
    );
    println!("alloc_count: 1000 observed DES steps performed 0 heap allocations — ok");
}

/// Most heap allocations one uplink / downlink group score through the
/// optimisers may make, sub-grid included. The count is deterministic; 2×2
/// values live inline and the scoring decodes sum their SINRs on the stack,
/// so what remains is the grid, schedule and power-split `Vec`s.
const UPLINK_SCORE_CEILING: u64 = 18;
const DOWNLINK_SCORE_CEILING: u64 = 13;

/// Most heap allocations one fig15 batch of group scores through a built
/// [`ScoringContext`] may make, in either direction: none. The lanes'
/// buffers live on the stack.
const CONTEXT_SCORE_CEILING: u64 = 0;

/// Most heap allocations one `baseline::best_ap_rate` over three 2×2 links
/// may make: the `Svd` list and each link's singular values, then the
/// gains, water-filling and SINR lists of four eigenmode rates (three
/// predicted, one realised).
const BEST_AP_CEILING: u64 = 20;

/// Heap allocations of one `uplink3_optimized` call with eight seed
/// candidates on a 2×2 estimate: the schedule's five `Vec`s, the power
/// split and the returned encoding. The seeds, the lanes and their decodes
/// live on the stack.
const UPLINK3_ALLOCATIONS: u64 = 7;

/// Most heap allocations the event-driven PCF MAC may make per transmission
/// group, averaged over a window of a `des_load`-shaped IAC run (every event
/// in the window counted: arrivals, beacons, groups, wire deliveries). What
/// remains per group is the plan's two `Vec`s (they travel in the
/// `GroupDone` event), the PHY's result list, and amortised growth of the
/// metric logs and the un-acked map.
const PCF_GROUP_CEILING: u64 = 4;

/// A `des_load` point at paper sizing (6 uplink clients at 650 packets/s,
/// 3-client IAC groups): warm up to 100 ms of simulated time, then count
/// the allocations and the groups formed up to 300 ms.
fn pcf_group_stays_under_ceiling() {
    use iac_sim::scenarios::des_load::{self, LoadSweepConfig};
    let cfg = LoadSweepConfig::paper_default(0x10AD);
    let run = des_load::runs(&cfg)
        .into_iter()
        .find(|run| run.label == "iac_0650")
        .expect("the sweep has a 650 packets/s IAC run");
    let (mut sim, metrics) = iac_sim::netsim::build_netsim(&run.spec, run.phy);
    sim.step_until_time(iac_des::SimTime::from_millis(100.0));
    let groups_before = metrics.snapshot().poll_rounds;
    let before = allocations();
    sim.step_until_time(iac_des::SimTime::from_millis(300.0));
    let allocs = allocations() - before;
    let groups = metrics.snapshot().poll_rounds - groups_before;
    assert!(groups > 100, "the window formed only {groups} groups");
    assert!(
        allocs <= PCF_GROUP_CEILING * groups,
        "{groups} PCF groups made {allocs} heap allocations, {:.2} per group \
         (ceiling {PCF_GROUP_CEILING})",
        allocs as f64 / groups as f64
    );
    println!(
        "alloc_count: {groups} PCF groups made {allocs} heap allocations, {:.2} per group — ok",
        allocs as f64 / groups as f64
    );
}

/// One group score through the optimisers: cut the group's 3×3 sub-grid
/// out of the slot's estimates, align it, and take the rate the optimiser
/// reports for its winner.
fn group_scores_stay_under_ceiling() {
    let mut rng = Rng64::new(0xF15);
    let est = EstimationConfig::paper_default();
    let up = ChannelGrid::random(Direction::Uplink, 8, 3, 2, 2, &mut rng).estimated(&est, &mut rng);
    let down =
        ChannelGrid::random(Direction::Downlink, 3, 8, 2, 2, &mut rng).estimated(&est, &mut rng);
    let group = [4usize, 1, 6];
    context_scores_stay_under_ceiling(&up, &down, group[0]);

    let before = allocations();
    let sub = ChannelGrid::new(
        Direction::Uplink,
        group
            .iter()
            .map(|&t| (0..3).map(|r| up.link(t, r).clone()).collect())
            .collect(),
    );
    let rate = optimize::uplink4_optimized(&sub, 1.0, 0.05).map(|o| o.rate);
    let uplink = allocations() - before;
    assert!(rate.expect("uplink aligns") > 0.0);

    let before = allocations();
    let sub = ChannelGrid::new(
        Direction::Downlink,
        (0..3)
            .map(|a| group.iter().map(|&c| down.link(a, c).clone()).collect())
            .collect(),
    );
    let rate = optimize::downlink3_optimized(&sub, 1.0, 0.05).map(|o| o.rate);
    let downlink = allocations() - before;
    assert!(rate.expect("downlink aligns") > 0.0);

    assert!(
        uplink <= UPLINK_SCORE_CEILING,
        "one uplink group score allocated {uplink} times (ceiling {UPLINK_SCORE_CEILING})"
    );
    assert!(
        downlink <= DOWNLINK_SCORE_CEILING,
        "one downlink group score allocated {downlink} times (ceiling {DOWNLINK_SCORE_CEILING})"
    );
    println!(
        "alloc_count: one fig15 group score made {uplink} heap allocations uplink, \
         {downlink} downlink — ok"
    );
}

/// One fig15 leader-side slot of group scores, as `scenarios/fig15.rs`
/// computes it: every ordered companion pair of the head on the 8-client
/// grid (42 pairs) in one batch through the slot's [`ScoringContext`],
/// once a first one-pair batch has built the per-slot state. Most
/// companions are new to the context, so their terms are computed inside
/// the measured window.
fn context_scores_stay_under_ceiling(up: &ChannelGrid, down: &ChannelGrid, head: usize) {
    let pairs: Vec<[u16; 2]> = (0..8)
        .flat_map(|a| (0..8).map(move |b| [a, b]))
        .filter(|&[a, b]| a != b && usize::from(a) != head && usize::from(b) != head)
        .collect();
    assert_eq!(pairs.len(), 42);
    let mut scores = vec![0.0; pairs.len()];
    let mut counts = [0; 2];
    for (count, grid) in counts.iter_mut().zip([up, down]) {
        let mut context = ScoringContext::new(grid, head, 1.0, 0.05);
        let mut warm = [0.0];
        context.score_batch(&[[2, 3]], &mut warm);
        assert!(warm[0] > 0.0, "warm-up group aligns");
        let before = allocations();
        context.score_batch(&pairs, &mut scores);
        *count = allocations() - before;
        assert!(
            scores.iter().all(|&s| s > 0.0),
            "{:?} groups align",
            grid.direction()
        );
    }
    let [uplink, downlink] = counts;
    assert_eq!(
        [uplink, downlink],
        [CONTEXT_SCORE_CEILING; 2],
        "one 42-pair context batch allocated {uplink} times uplink, {downlink} downlink \
         (ceiling {CONTEXT_SCORE_CEILING})"
    );
    println!(
        "alloc_count: one 42-pair fig15 context batch made {uplink} heap allocations uplink, \
         {downlink} downlink — ok"
    );
}

/// One 802.11-MIMO baseline association, as fig12–14 compute it: three
/// estimated 2×2 links, the best predicted one realised on its true link.
fn best_ap_rate_stays_under_ceiling() {
    let mut rng = Rng64::new(0xBE57);
    let truth: Vec<CMat> = (0..3).map(|_| CMat::random(2, 2, &mut rng)).collect();
    let est: Vec<CMat> = truth
        .iter()
        .map(|h| h + &CMat::random(2, 2, &mut rng).scale(0.1))
        .collect();
    let before = allocations();
    let (_, rate, _) = baseline::best_ap_rate(&truth, &est, 1.0, 0.05).expect("finite links");
    let count = allocations() - before;
    assert!(rate > 0.0, "the baseline link carries a stream");
    assert!(
        count <= BEST_AP_CEILING,
        "one best-AP rate allocated {count} times (ceiling {BEST_AP_CEILING})"
    );
    println!("alloc_count: one best-AP baseline rate made {count} heap allocations — ok");
}

/// One Fig. 4b alignment as fig12 runs it per role order: eight seeds
/// scored on the leader's estimate of a two-client, two-AP slot.
fn uplink3_optimized_allocations_are_pinned() {
    let mut rng = Rng64::new(0x0303);
    let est = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng)
        .estimated(&EstimationConfig::paper_default(), &mut rng);
    let before = allocations();
    let optimized =
        optimize::uplink3_optimized(&est, 1.0, 1.0, optimize::DEFAULT_SEED_CANDIDATES, &mut rng);
    let count = allocations() - before;
    assert!(optimized.expect("the slot aligns").rate > 0.0);
    assert_eq!(
        count, UPLINK3_ALLOCATIONS,
        "one eight-seed uplink3_optimized call allocated {count} times \
         (pinned at {UPLINK3_ALLOCATIONS})"
    );
    println!(
        "alloc_count: one eight-seed uplink3_optimized call made {count} heap allocations — ok"
    );
}

fn main() {
    group_scores_stay_under_ceiling();
    best_ap_rate_stays_under_ceiling();
    uplink3_optimized_allocations_are_pinned();
    des_steady_state_is_allocation_free();
    observed_des_steady_state_is_allocation_free();
    pcf_group_stays_under_ceiling();
    let mut pipe = Pipeline::new();
    // Warm-up: first iterations size every buffer and build the FFT plans.
    for _ in 0..3 {
        pipe.step();
    }
    let before = allocations();
    for _ in 0..10 {
        pipe.step();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state sample loop allocated {} time(s)",
        after - before
    );
    // Sanity: the instrumentation itself works — cold buffers do allocate.
    let before_cold = allocations();
    let cold: Vec<C64> = (0..64).map(|_| pipe.rng.cn01()).collect();
    assert!(allocations() > before_cold, "counting allocator is dead");
    drop(cold);
    println!("alloc_count: steady-state sample loop performed 0 heap allocations — ok");
}
