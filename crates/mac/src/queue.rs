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

/// A FIFO of pending packets with client-indexed helpers.
///
/// Optionally bounded: [`TrafficQueue::with_capacity`] sets a hard limit on
/// pending packets and tail-drops (with counting) beyond it, so arrival
/// processes can overflow the leader realistically. [`TrafficQueue::new`]
/// remains unbounded, preserving the original saturated-queue behaviour.
#[derive(Debug, Clone, Default)]
pub struct TrafficQueue {
    q: VecDeque<QueuedPacket>,
    /// Queued packets per client, indexed by client id (grown on demand).
    per_client: Vec<usize>,
    /// Clients with at least one queued packet (non-zero `per_client`).
    distinct: usize,
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

    fn admit(&mut self, client: u16) {
        let c = client as usize;
        if c >= self.per_client.len() {
            self.per_client.resize(c + 1, 0);
        }
        if self.per_client[c] == 0 {
            self.distinct += 1;
        }
        self.per_client[c] += 1;
    }

    fn release(&mut self, client: u16) {
        let n = &mut self.per_client[client as usize];
        *n -= 1;
        if *n == 0 {
            self.distinct -= 1;
        }
    }

    /// Append a packet. Returns `false` (and counts a drop) if the queue is
    /// at capacity — tail-drop, the arriving packet is discarded.
    pub fn push(&mut self, p: QueuedPacket) -> bool {
        if let Some(cap) = self.capacity {
            if self.q.len() >= cap {
                self.dropped += 1;
                return false;
            }
        }
        self.admit(p.client);
        self.q.push_back(p);
        self.high_water = self.high_water.max(self.q.len());
        true
    }

    /// Put a packet back at the *front* (retransmission priority: the lost
    /// packet re-enters as the next head so the client is not starved).
    /// Deliberately bypasses the capacity bound — the packet already held a
    /// slot when it was first admitted, so a retransmission is never the
    /// packet that overflows the queue.
    pub fn push_front(&mut self, p: QueuedPacket) {
        self.admit(p.client);
        self.q.push_front(p);
        self.high_water = self.high_water.max(self.q.len());
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Packets tail-dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been (retransmission re-entries via
    /// [`TrafficQueue::push_front`] included).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The head packet, if any.
    pub fn head(&self) -> Option<QueuedPacket> {
        self.q.front().copied()
    }

    /// Pop the head.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        let p = self.q.pop_front()?;
        self.release(p.client);
        Some(p)
    }

    /// Remove and return the first queued packet of `client`.
    pub fn pop_for_client(&mut self, client: u16) -> Option<QueuedPacket> {
        if self.count_for(client) == 0 {
            return None;
        }
        let pos = self.q.iter().position(|p| p.client == client)?;
        let p = self.q.remove(pos)?;
        self.release(client);
        Some(p)
    }

    /// Distinct clients with pending traffic, in queue order. The scan stops
    /// as soon as every client with queued traffic has been seen, so a deep
    /// queue over few clients costs a short prefix, not the whole queue.
    pub fn clients(&self) -> Vec<u16> {
        let mut seen = Vec::with_capacity(self.distinct);
        for p in &self.q {
            if seen.len() == self.distinct {
                break;
            }
            if !seen.contains(&p.client) {
                seen.push(p.client);
            }
        }
        seen
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no traffic is pending — the condition that naturally
    /// shrinks the CFP (§7.1a).
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total queued packets for one client.
    pub fn count_for(&self, client: u16) -> usize {
        self.per_client.get(client as usize).copied().unwrap_or(0)
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

    /// First-appearance client scan over the raw queue: the definition
    /// `clients()` must keep while it tracks counts and exits early.
    fn naive_clients(q: &TrafficQueue) -> Vec<u16> {
        let mut seen = Vec::new();
        for p in &q.q {
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
            // hold long runs of repeats (the early-exit case).
            let cap = 1 + rng.below(12) as usize;
            let n_clients = 1 + rng.below(6) as u16;
            let mut q = TrafficQueue::with_capacity(cap);
            for step in 0..120u16 {
                let client = rng.below(n_clients as u64) as u16;
                let packet = p(client, step);
                match rng.below(4) {
                    0 => {
                        q.push(packet);
                    }
                    1 => q.push_front(packet),
                    2 => {
                        q.pop();
                    }
                    _ => {
                        q.pop_for_client(client);
                    }
                }
                let naive = naive_clients(&q);
                assert_eq!(q.clients(), naive, "seed {seed} step {step}");
                for c in 0..n_clients + 1 {
                    let direct = q.q.iter().filter(|p| p.client == c).count();
                    assert_eq!(q.count_for(c), direct, "seed {seed} step {step} client {c}");
                }
                assert_eq!(q.distinct, naive.len(), "seed {seed} step {step}");
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
        assert_eq!(q.count_for(1), 2);
        assert_eq!(q.count_for(3), 0);
        assert_eq!(q.len(), 3);
    }
}
