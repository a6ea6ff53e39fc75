//! The timestamped event queue, with stable tie-breaking.
//!
//! Events pop by `(time, push sequence)`: events at one instant pop in the
//! order they were pushed. This total order is what makes whole
//! simulations built on the queue deterministic; `tests/queue_diff.rs`
//! holds it against a `BinaryHeap` keyed the same way, op by op.

use crate::SimTime;

/// Result of [`EventQueue::pop_if_before`]: a single
/// head-comparison-and-pop, so callers with a time budget never peek and
/// then pop (two head traversals) in their hot loop.
#[derive(Debug, PartialEq, Eq)]
pub enum PopIfBefore<E> {
    /// The earliest event's time was at or before the limit; it has been
    /// removed and is returned.
    Popped(SimTime, E),
    /// The earliest event lies strictly after the limit; the queue is
    /// untouched and the head's timestamp is reported.
    Deferred(SimTime),
    /// No events are pending.
    Empty,
}

/// A min-ordered queue of `(SimTime, E)` events: one `Vec` sorted by
/// `(time, seq)` descending, so the earliest event is the last element.
///
/// Pop is `Vec::pop`; push binary-searches its place and shifts what
/// pops earlier up by one. The engine holds at most a few events per
/// processor, so the shift is short and the queue one contiguous block.
///
/// # Example
///
/// ```
/// use spasm_desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_ns(1), 'a')));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, `(time, seq)` descending: the head is the last.
    ///
    /// Ordering never reads `seq`: `push` places each event by time
    /// alone. The field stays because it keeps the engine's `(time, seq,
    /// Ev)` entry one 64 B line; with 56 B `(time, Ev)` entries,
    /// `logp_grid` `wall_s` measured a median 0.161 → 0.175 s (4
    /// alternating pairs on a 2-vCPU x86-64 VM, 3 of them worse). It goes
    /// only when a measurement says so.
    events: Vec<(SimTime, u64, E)>,
    seq: u64,
    popped: u64,
}

/// The queue's former name, a remnant kept only because
/// `benchmark/src/layers.rs` names it.
pub type CalendarQueue<E> = EventQueue<E>;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        // This seq is the largest ever issued, so the insertion point is
        // found by time alone and lands after (popping later than) every
        // pending event at the same time: FIFO. A time before the last
        // pop's is allowed, as in the heap, and pops next.
        let idx = self.events.partition_point(|e| e.0 > time);
        self.events.insert(idx, (time, seq, event));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Inlined: the caller then reads a large event straight out of
    /// the `Vec` instead of through a returned temporary (DESIGN.md §12).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, _, e) = self.events.pop()?;
        self.popped += 1;
        Some((t, e))
    }

    /// Pops the earliest event only if its timestamp is at or before
    /// `limit`: one head comparison instead of a peek and a pop. See
    /// [`PopIfBefore`].
    pub fn pop_if_before(&mut self, limit: SimTime) -> PopIfBefore<E> {
        match self.events.last() {
            None => PopIfBefore::Empty,
            Some(&(head, _, _)) if head > limit => PopIfBefore::Deferred(head),
            Some(_) => {
                let (t, e) = self.pop().expect("the head was just read");
                PopIfBefore::Popped(t, e)
            }
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever pushed (a simulator "event count" metric).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Total number of events ever popped. Invariant checkers compare this
    /// against [`EventQueue::pushed`] at end of run: a drained queue
    /// must have popped exactly what was pushed.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The differential suite against the heap oracle is tests/queue_diff.rs.

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_equal_and_distinct_times() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5), "a5");
        q.push(SimTime::from_ns(1), "a1");
        q.push(SimTime::from_ns(5), "b5");
        q.push(SimTime::from_ns(1), "b1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "b1", "a5", "b5"]);
    }

    #[test]
    fn pushed_counts_all_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed(), 2);
    }

    #[test]
    fn popped_tracks_consumption() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        q.push(SimTime::from_ns(10), 'a');
        q.push(SimTime::from_ns(20), 'b');
        q.pop();
        assert_eq!(q.popped(), 1);
        q.pop();
        assert_eq!(q.popped(), 2);
        assert_eq!(q.popped(), q.pushed());
        q.pop();
        assert_eq!(q.popped(), 2); // empty pop does not count
    }

    #[test]
    fn pop_if_before_pops_at_or_before_limit_only() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 'a');
        q.push(SimTime::from_ns(20), 'b');
        assert_eq!(
            q.pop_if_before(SimTime::from_ns(10)),
            PopIfBefore::Popped(SimTime::from_ns(10), 'a')
        );
        assert_eq!(
            q.pop_if_before(SimTime::from_ns(19)),
            PopIfBefore::Deferred(SimTime::from_ns(20))
        );
        assert_eq!(q.len(), 1); // deferred pop left the queue untouched
        assert_eq!(q.popped(), 1);
        assert_eq!(
            q.pop_if_before(SimTime::MAX),
            PopIfBefore::Popped(SimTime::from_ns(20), 'b')
        );
        assert_eq!(q.pop_if_before(SimTime::MAX), PopIfBefore::Empty);
    }

    #[test]
    fn far_apart_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(500), 'z');
        q.push(SimTime::from_ns(3), 'a');
        q.push(SimTime::from_ms(400), 'y');
        q.push(SimTime::from_ms(400), 'w'); // same far timestamp: FIFO
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_ms(400), 'y')));
        assert_eq!(q.pop(), Some((SimTime::from_ms(400), 'w')));
        assert_eq!(q.pop(), Some((SimTime::from_ms(500), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extreme_timestamps_terminate() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 'm');
        q.push(SimTime::ZERO, 'z');
        q.push(SimTime::from_ns(u64::MAX - 1), 'n');
        assert_eq!(q.pop(), Some((SimTime::ZERO, 'z')));
        assert_eq!(q.pop(), Some((SimTime::from_ns(u64::MAX - 1), 'n')));
        assert_eq!(q.pop(), Some((SimTime::MAX, 'm')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_drained_queue_keeps_its_buffer() {
        // Nothing allocates per event: a queue refilled to a depth it held
        // before pushes into the buffer it already has.
        let n = 100u64;
        let fill = |q: &mut EventQueue<u64>| {
            for i in 0..n {
                q.push(SimTime::from_ns((i * 37) % 11), i);
            }
        };
        let mut q = EventQueue::new();
        fill(&mut q);
        let buffer = (q.events.as_ptr(), q.events.capacity());
        while q.pop().is_some() {}
        fill(&mut q);
        assert_eq!((q.events.as_ptr(), q.events.capacity()), buffer);
        assert_eq!(q.len(), n as usize);
    }

    #[test]
    fn push_into_the_past_pops_next() {
        // The heap allows scheduling before the last popped time; the
        // queue must match.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(100), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), 'b')));
        q.push(SimTime::from_ns(5), 'a');
        q.push(SimTime::from_us(90), 'c');
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_us(90), 'c')));
    }
}
