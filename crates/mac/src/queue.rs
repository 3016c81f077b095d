//! Per-direction traffic queues.
//!
//! §7.2: "The leader AP maintains a FIFO queue for traffic pending for the
//! downlink and a similar queue for uplink requests learned from DATA+Poll
//! frames."

use std::collections::VecDeque;

/// One pending packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPacket {
    /// Client to serve (destination on downlink, source on uplink).
    pub client: u16,
    /// Sequence number.
    pub seq: u16,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// A packet and its position in the queue's single FIFO order.
#[derive(Debug, Clone, Copy)]
struct Stamped {
    /// Queue position: `push` stamps ascending from 0, `push_front`
    /// descending from −1, so a smaller stamp is nearer the head.
    stamp: i64,
    packet: QueuedPacket,
}

/// A FIFO of pending packets with client-indexed helpers.
///
/// Stored as one FIFO per client whose packets carry their position in the
/// single queue the FIFOs together represent, so the head, a client's
/// earliest packet and the clients in queue order cost O(clients), not a
/// scan of every packet.
///
/// Optionally bounded: [`TrafficQueue::with_capacity`] sets a hard limit on
/// pending packets and tail-drops (with counting) beyond it, so arrival
/// processes can overflow the leader realistically. [`TrafficQueue::new`]
/// remains unbounded, preserving the original saturated-queue behaviour.
#[derive(Debug, Clone, Default)]
pub struct TrafficQueue {
    /// Pending packets per client, indexed by client id (grown on demand),
    /// each in stamp order.
    fifos: Vec<VecDeque<Stamped>>,
    /// Clients with pending packets, ordered by their earliest packet's
    /// stamp: first-appearance order in the queue.
    order: Vec<u16>,
    /// The stamp the next `push_front` takes is `front - 1`; the next
    /// `push` takes `back`.
    front: i64,
    back: i64,
    len: usize,
    capacity: Option<usize>,
    dropped: u64,
    high_water: usize,
}

impl TrafficQueue {
    /// Empty, unbounded queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue holding at most `capacity` packets; further pushes are
    /// tail-dropped and counted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    fn fifo(&mut self, client: u16) -> &mut VecDeque<Stamped> {
        let c = client as usize;
        if c >= self.fifos.len() {
            self.fifos.resize_with(c + 1, VecDeque::new);
        }
        &mut self.fifos[c]
    }

    /// Re-place `client` in `order` after its earliest packet changed.
    fn reorder(&mut self, client: u16) {
        if let Some(at) = self.order.iter().position(|&c| c == client) {
            self.order.remove(at);
        }
        let fifos = &self.fifos;
        let Some(first) = fifos[client as usize].front() else {
            return;
        };
        let at = self
            .order
            .partition_point(|&c| fifos[c as usize][0].stamp < first.stamp);
        self.order.insert(at, client);
    }

    fn admitted(&mut self) {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Append a packet. Returns `false` (and counts a drop) if the queue is
    /// at capacity — tail-drop, the arriving packet is discarded.
    pub fn push(&mut self, p: QueuedPacket) -> bool {
        if self.capacity.is_some_and(|cap| self.len >= cap) {
            self.dropped += 1;
            return false;
        }
        let stamp = self.back;
        self.back += 1;
        let fifo = self.fifo(p.client);
        fifo.push_back(Stamped { stamp, packet: p });
        if fifo.len() == 1 {
            // The newest stamp: the client goes last.
            self.order.push(p.client);
        }
        self.admitted();
        true
    }

    /// Put a packet back at the *front* (retransmission priority: the lost
    /// packet re-enters as the next head so the client is not starved).
    /// Deliberately bypasses the capacity bound — the packet already held a
    /// slot when it was first admitted, so a retransmission is never the
    /// packet that overflows the queue.
    pub fn push_front(&mut self, p: QueuedPacket) {
        self.front -= 1;
        let stamp = self.front;
        self.fifo(p.client).push_front(Stamped { stamp, packet: p });
        self.reorder(p.client);
        self.admitted();
    }

    /// The capacity bound, if any.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Packets tail-dropped because the queue was full.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been (retransmission re-entries via
    /// [`TrafficQueue::push_front`] included).
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The head packet, if any.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn head(&self) -> Option<QueuedPacket> {
        let &client = self.order.first()?;
        Some(self.fifos[client as usize][0].packet)
    }

    /// Pop the head.
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        let &client = self.order.first()?;
        self.pop_for_client(client)
    }

    /// Remove and return the first queued packet of `client`.
    pub fn pop_for_client(&mut self, client: u16) -> Option<QueuedPacket> {
        let p = self.fifos.get_mut(client as usize)?.pop_front()?;
        self.len -= 1;
        self.reorder(client);
        Some(p.packet)
    }

    /// Distinct clients with pending traffic, in queue order (each where
    /// its earliest packet stands). The head's client comes first.
    pub fn clients(&self) -> &[u16] {
        &self.order
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no traffic is pending — the condition that naturally
    /// shrinks the CFP (§7.1a).
    ///
    /// No production caller: public for `crates/mac/tests/properties.rs`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(client: u16, seq: u16) -> QueuedPacket {
        QueuedPacket {
            client,
            seq,
            bytes: 1500,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = TrafficQueue::new();
        q.push(p(1, 1));
        q.push(p(2, 1));
        q.push(p(1, 2));
        assert_eq!(q.pop().unwrap().client, 1);
        assert_eq!(q.pop().unwrap().client, 2);
        assert_eq!(q.pop().unwrap(), p(1, 2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn retransmission_goes_to_front() {
        let mut q = TrafficQueue::new();
        q.push(p(1, 1));
        q.push(p(2, 1));
        q.push_front(p(3, 9));
        assert_eq!(q.head().unwrap().client, 3);
    }

    #[test]
    fn clients_lists_in_order_without_duplicates() {
        let mut q = TrafficQueue::new();
        q.push(p(5, 1));
        q.push(p(2, 1));
        q.push(p(5, 2));
        q.push(p(9, 1));
        assert_eq!(q.clients(), vec![5, 2, 9]);
    }

    #[test]
    fn pop_for_client_takes_earliest() {
        let mut q = TrafficQueue::new();
        q.push(p(1, 1));
        q.push(p(2, 7));
        q.push(p(2, 8));
        let got = q.pop_for_client(2).unwrap();
        assert_eq!(got.seq, 7);
        assert_eq!(q.len(), 2);
        assert!(q.pop_for_client(42).is_none());
    }

    #[test]
    fn bounded_queue_tail_drops_and_counts() {
        let mut q = TrafficQueue::with_capacity(2);
        assert_eq!(q.capacity(), Some(2));
        assert!(q.push(p(1, 1)));
        assert!(q.push(p(2, 1)));
        assert!(!q.push(p(3, 1)), "third push should tail-drop");
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        // The survivors are the two earliest arrivals (tail-drop, not head).
        assert_eq!(q.pop().unwrap().client, 1);
        // A freed slot admits traffic again.
        assert!(q.push(p(4, 1)));
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn retransmission_bypasses_capacity() {
        let mut q = TrafficQueue::with_capacity(1);
        assert!(q.push(p(1, 1)));
        q.push_front(p(9, 9)); // retransmission re-entry is never dropped
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 0);
        assert_eq!(q.head().unwrap().client, 9);
    }

    #[test]
    fn unbounded_queue_never_drops() {
        let mut q = TrafficQueue::new();
        assert_eq!(q.capacity(), None);
        for k in 0..10_000 {
            assert!(q.push(p(1, k)));
        }
        assert_eq!(q.dropped(), 0);
        assert_eq!(q.len(), 10_000);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = TrafficQueue::new();
        assert_eq!(q.high_water(), 0);
        q.push(p(1, 1));
        q.push(p(1, 2));
        q.push(p(1, 3));
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 3, "high-water never recedes");
        q.push_front(p(9, 9));
        assert_eq!(q.high_water(), 3, "2 pending < old peak");
        // A bounded queue's drops do not move the mark.
        let mut b = TrafficQueue::with_capacity(1);
        b.push(p(1, 1));
        b.push(p(2, 1)); // dropped
        assert_eq!(b.high_water(), 1);
    }

    /// First-appearance client scan over a plain deque of the same
    /// packets: the definition `clients()` must keep.
    fn naive_clients(model: &VecDeque<QueuedPacket>) -> Vec<u16> {
        let mut seen = Vec::new();
        for p in model {
            if !seen.contains(&p.client) {
                seen.push(p.client);
            }
        }
        seen
    }

    #[test]
    fn client_bookkeeping_matches_naive_scan() {
        for seed in 0..200u64 {
            let mut rng = iac_linalg::Rng64::new(seed);
            // Small capacities so tail-drops happen; few clients so queues
            // hold long runs of repeats.
            let cap = 1 + rng.below(12) as usize;
            let n_clients = 1 + rng.below(6) as u16;
            let mut q = TrafficQueue::with_capacity(cap);
            let mut model = VecDeque::new();
            for step in 0..120u16 {
                let client = rng.below(n_clients as u64) as u16;
                let packet = p(client, step);
                match rng.below(4) {
                    0 => {
                        if q.push(packet) {
                            model.push_back(packet);
                        }
                    }
                    1 => {
                        q.push_front(packet);
                        model.push_front(packet);
                    }
                    2 => {
                        assert_eq!(q.pop(), model.pop_front(), "seed {seed} step {step}");
                    }
                    _ => {
                        let at = model.iter().position(|p| p.client == client);
                        let want = at.and_then(|at| model.remove(at));
                        assert_eq!(q.pop_for_client(client), want, "seed {seed} step {step}");
                    }
                }
                assert_eq!(
                    q.clients(),
                    naive_clients(&model),
                    "seed {seed} step {step}"
                );
                assert_eq!(q.head(), model.front().copied(), "seed {seed} step {step}");
                assert_eq!(q.len(), model.len(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn counting_helpers() {
        let mut q = TrafficQueue::new();
        assert!(q.is_empty());
        q.push(p(1, 1));
        q.push(p(1, 2));
        q.push(p(2, 1));
        assert!(!q.is_empty());
        assert_eq!(q.len(), 3);
    }
}
