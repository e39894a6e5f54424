//! A stable, time-ordered event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Cycle;

/// A time-ordered priority queue with FIFO tie-breaking.
///
/// The whole simulated machine is driven by a single `EventQueue`: core
/// continuations, protocol message deliveries, background-writeback ticks and
/// periodic checkpoint timers are all events. Events scheduled for the same
/// cycle are delivered in insertion order, which makes every simulation run
/// bit-for-bit deterministic.
///
/// # Implementation
///
/// Payloads live in a slab arena and are addressed by slot index, so they
/// are written once on `push` and read once on `pop` — they never move
/// while the queue reorders itself (a machine event carries a 128-byte core
/// set). The ordering is one binary heap of `(time, seq, slot)` keys, where
/// `seq` is a global insertion counter, so the pop order is exactly that of
/// a naive stable priority queue. A calendar ring of one-cycle buckets was
/// measured against this heap on the repository benchmark and did not win,
/// so the simpler structure stays.
///
/// # Example
///
/// ```
/// use rebound_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(5), 'b');
/// q.push(Cycle(1), 'a');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'a')));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Payload arena; `free` holds the indices of vacant slots.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    /// Pending events as `(time, seq, slot)`, earliest first.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the payload arena or the heap reallocates. The machine
    /// pre-sizes its queue to the steady-state event population (a few
    /// events per core), so the first checkpoint storm does not pay a
    /// reallocation cascade.
    pub fn with_capacity(capacity: usize) -> EventQueue<T> {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `payload` for delivery at time `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(payload);
                i
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at.raw(), self.seq, slot)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let Reverse((t, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        let payload = self.slots[slot as usize]
            .take()
            .expect("queue slot holds a payload");
        Some((Cycle(t), payload))
    }

    /// The delivery time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|&Reverse((t, _, _))| Cycle(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The width of the calendar ring these schedules were written
    /// against; its boundaries stay useful as awkward time offsets.
    const RING: u64 = 4096;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Cycle(4), "x");
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn draining_empties_queue() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(1), 'b');
        assert_eq!(q.pop(), Some((Cycle(1), 'b')));
        q.push(Cycle(3), 'c');
        q.push(Cycle(5), 'd');
        assert_eq!(q.pop(), Some((Cycle(3), 'c')));
        assert_eq!(q.pop(), Some((Cycle(5), 'a')));
        assert_eq!(q.pop(), Some((Cycle(5), 'd')));
    }

    #[test]
    fn far_future_events_cross_the_ring_boundary() {
        let mut q = EventQueue::new();
        // Straddle the near/far boundary and a huge sentinel.
        q.push(Cycle(RING * 3 + 17), 'f');
        q.push(Cycle(2), 'a');
        q.push(Cycle(RING - 1), 'n');
        q.push(Cycle(u64::MAX), 'z');
        assert_eq!(q.pop(), Some((Cycle(2), 'a')));
        // After popping, the window slid to 2; RING*3+17 is still far.
        q.push(Cycle(3), 'b');
        assert_eq!(q.pop(), Some((Cycle(3), 'b')));
        assert_eq!(q.pop(), Some((Cycle(RING - 1), 'n')));
        assert_eq!(q.pop(), Some((Cycle(RING * 3 + 17), 'f')));
        assert_eq!(q.pop(), Some((Cycle(u64::MAX), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_and_near_ties_stay_fifo() {
        let mut q = EventQueue::new();
        // Pushed while far (beyond the initial window)...
        q.push(Cycle(RING + 5), 1);
        // ...then the window slides past RING, so this same-time push
        // lands in the ring. Insertion order must still win the tie.
        q.push(Cycle(RING), 0);
        assert_eq!(q.pop(), Some((Cycle(RING), 0)));
        q.push(Cycle(RING + 5), 2);
        assert_eq!(q.pop(), Some((Cycle(RING + 5), 1)));
        assert_eq!(q.pop(), Some((Cycle(RING + 5), 2)));
    }

    #[test]
    fn pushing_into_the_past_rewinds_the_window() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), 'a');
        q.push(Cycle(200), 'b');
        assert_eq!(q.pop(), Some((Cycle(100), 'a')));
        // Queue cursor is now 100; schedule behind it.
        q.push(Cycle(40), 'c');
        q.push(Cycle(150), 'd');
        assert_eq!(q.pop(), Some((Cycle(40), 'c')));
        assert_eq!(q.pop(), Some((Cycle(150), 'd')));
        assert_eq!(q.pop(), Some((Cycle(200), 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_heap_on_random_schedule() {
        // Differential check against a naive stable reference across a
        // schedule that exercises window slides, far spills and ties.
        use std::cmp::Reverse as Rev;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Rev<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        for i in 0..20_000u32 {
            let r = rng();
            if r % 3 != 0 {
                // Mostly near, sometimes same-cycle, sometimes far.
                let dt = match r % 7 {
                    0 => 0,
                    1..=4 => r % 97,
                    5 => r % (RING * 2),
                    _ => RING * 8 + r % 1000,
                };
                q.push(Cycle(now + dt), i);
                reference.push(Rev((now + dt, seq, i)));
                seq += 1;
            } else {
                let got = q.pop();
                let want = reference.pop().map(|Rev((t, _, p))| (Cycle(t), p));
                assert_eq!(got, want, "at op {i}");
                if let Some((t, _)) = got {
                    now = t.raw();
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Rev((t, _, p))) = reference.pop() {
            assert_eq!(q.pop(), Some((Cycle(t), p)));
        }
        assert_eq!(q.pop(), None);
    }
}
