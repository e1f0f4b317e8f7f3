//! The simulator's pending-event set: a calendar queue (R. Brown,
//! "Calendar queues: a fast O(1) priority queue implementation for the
//! simulation event set problem", CACM 1988).
//!
//! Events come out in `(time, push order)` order — exactly the order of
//! a binary heap keyed `(time, seq)` — but `push` and `pop` are O(1). A
//! ring of [`SPAN`] FIFO slots, one per cycle, holds every event due
//! less than `SPAN` cycles after the last popped one. Events further
//! ahead wait in a small overflow heap keyed `(time, seq)`, so a legal
//! but distant time (`think_cycles = u32::MAX`, a large retry backoff)
//! costs one heap entry instead of a ring sized to reach it.
//!
//! The contract the simulator relies on:
//!
//! - **No event in the past.** [`EventQueue::push`] panics on a time
//!   before the last popped event's.
//! - **Ties pop in push order.** Within a slot, events form a FIFO
//!   chain. An overflow event was pushed while its time was still beyond
//!   the ring, so before any ring event due at that time: on a tie the
//!   heap's event pops first.
//! - **Peek does not pop.** [`EventQueue::peek`] returns the next due
//!   time and leaves the event queued.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the ring covers past the last popped event. A seed-1 pass of
/// each host-bench workload never schedules an event 2^15 or more cycles
/// ahead (`l2-resident` never 2^11, `figrepro` never 2^13); at this span
/// a `write-mix` pass sends 17 of its 6.18 M pushes to the overflow heap.
const SPAN: u64 = 1 << 14;

/// End of a slot's chain or of the free list.
const NIL: u32 = u32::MAX;

/// The FIFO chain of slab nodes due at one cycle.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    /// Last node of the chain; stale while `head` is [`NIL`].
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

struct Node<T> {
    event: T,
    /// Next node of the same slot's chain, or of the free list.
    next: u32,
}

/// A calendar queue of `T` events keyed by simulated cycle.
pub(crate) struct EventQueue<T> {
    /// Slot `time % SPAN` chains the ring events due at `time`.
    ring: Box<[Slot; SPAN as usize]>,
    /// Events held in the ring.
    ring_len: usize,
    /// Events pushed `SPAN` or more cycles ahead, keyed `(time, seq,
    /// node)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Pushes into `overflow` so far: the `seq` of its keys.
    overflow_seq: u64,
    /// Every queued event's node. Freed nodes are chained from `free`,
    /// so a push reuses the node popped most recently.
    slab: Vec<Node<T>>,
    free: u32,
    /// Time of the last popped event; no push may be earlier.
    now: u64,
    /// The ring's cursor: no ring event is due in `[now, scan)`, and
    /// `scan` never passes the overflow heap's earliest time.
    scan: u64,
}

impl<T: Copy> EventQueue<T> {
    /// An empty queue at cycle 0.
    pub(crate) fn new() -> Self {
        let ring = vec![EMPTY; SPAN as usize]
            .into_boxed_slice()
            .try_into()
            .expect("ring holds SPAN slots");
        Self {
            ring,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            slab: Vec::new(),
            free: NIL,
            now: 0,
            scan: 0,
        }
    }

    /// Queues `event` at `time`, after every event already queued there.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped event's time.
    pub(crate) fn push(&mut self, time: u64, event: T) {
        assert!(
            time >= self.now,
            "event scheduled at cycle {time}, before the last popped cycle {}",
            self.now
        );
        let node = self.alloc(event);
        if time - self.now < SPAN {
            let slot = &mut self.ring[(time % SPAN) as usize];
            if slot.head == NIL {
                slot.head = node;
            } else {
                self.slab[slot.tail as usize].next = node;
            }
            slot.tail = node;
            self.ring_len += 1;
            self.scan = self.scan.min(time);
        } else {
            self.overflow_seq += 1;
            self.overflow.push(Reverse((time, self.overflow_seq, node)));
        }
    }

    /// The time of the next event to pop, leaving it queued; `None` when
    /// the queue is empty.
    pub(crate) fn peek(&mut self) -> Option<u64> {
        let overflow_next = self.overflow.peek().map(|&Reverse((time, ..))| time);
        if self.ring_len == 0 {
            return overflow_next;
        }
        // A ring event is due before `now + SPAN`, so the scan stops
        // there at the latest.
        let stop = overflow_next.unwrap_or(u64::MAX);
        while self.scan < stop && self.ring[(self.scan % SPAN) as usize].head == NIL {
            self.scan += 1;
        }
        Some(self.scan)
    }

    /// Removes and returns the next event with its time.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let time = self.peek()?;
        let node = match self.overflow.peek() {
            Some(&Reverse((due, _, node))) if due == time => {
                self.overflow.pop();
                node
            }
            _ => {
                let slot = &mut self.ring[(time % SPAN) as usize];
                let node = slot.head;
                slot.head = self.slab[node as usize].next;
                self.ring_len -= 1;
                node
            }
        };
        self.now = time;
        self.scan = time;
        let freed = &mut self.slab[node as usize];
        freed.next = self.free;
        self.free = node;
        Some((time, freed.event))
    }

    fn alloc(&mut self, event: T) -> u32 {
        let node = Node { event, next: NIL };
        if self.free == NIL {
            let idx = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
            self.slab.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            idx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl<T> EventQueue<T> {
        fn len(&self) -> usize {
            self.ring_len + self.overflow.len()
        }
    }

    /// A push distance from the last popped time, covering the drained
    /// cycle, near events, both edges of the ring and several spans out.
    fn distance(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..10) {
            0 => 0,
            1 => SPAN - 1,
            2 => SPAN,
            3 => SPAN + 1,
            4 => rng.gen_range(2..6) * SPAN + rng.gen_range(0..64),
            5 => rng.gen_range(0..3 * SPAN),
            _ => rng.gen_range(0..64),
        }
    }

    /// Checks the queue against a `BinaryHeap<Reverse<(time, push_id)>>`
    /// after every push, peek and pop of seeded random sequences, then
    /// drains both to empty.
    #[test]
    fn matches_a_reference_heap() {
        let mut ring_overflow_ties = 0;
        let mut overflow_pushes = 0;
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0;
            // Times recently sent to the overflow heap: pushing one of
            // them again once it is inside the ring makes a tie.
            let mut far_times: Vec<u64> = Vec::new();
            for id in 0..4000u64 {
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let time = match far_times.last() {
                            Some(&t) if t >= now && rng.gen_bool(0.3) => t,
                            _ => now + distance(&mut rng),
                        };
                        if time - now >= SPAN {
                            far_times.push(time);
                            overflow_pushes += 1;
                        } else if queue.overflow.iter().any(|e| e.0 .0 == time) {
                            ring_overflow_ties += 1;
                        }
                        queue.push(time, id);
                        model.push(Reverse((time, id)));
                    }
                    4..=5 => {
                        assert_eq!(
                            queue.peek(),
                            model.peek().map(|e| e.0 .0),
                            "seed {seed} op {id}"
                        );
                    }
                    _ => {
                        let got = queue.pop();
                        assert_eq!(got, model.pop().map(|e| e.0), "seed {seed} op {id}");
                        if let Some((time, _)) = got {
                            now = time;
                        }
                    }
                }
                assert_eq!(queue.len(), model.len(), "seed {seed} op {id}");
            }
            while let Some(Reverse(expect)) = model.pop() {
                assert_eq!(queue.peek(), Some(expect.0), "seed {seed}");
                assert_eq!(queue.pop(), Some(expect), "seed {seed}");
            }
            assert_eq!(queue.len(), 0);
            assert_eq!(queue.peek(), None);
            assert_eq!(queue.pop(), None);
        }
        assert!(overflow_pushes > 1000, "{overflow_pushes} overflow pushes");
        assert!(
            ring_overflow_ties > 100,
            "{ring_overflow_ties} ring/overflow ties"
        );
    }

    #[test]
    #[should_panic(expected = "before the last popped cycle")]
    fn push_before_the_last_popped_event_panics() {
        let mut queue = EventQueue::new();
        queue.push(10, ());
        queue.pop();
        queue.push(9, ());
    }
}
