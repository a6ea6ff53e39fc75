//! The timestamped event queue, with stable tie-breaking.
//!
//! [`CalendarQueue`] is a bucketed ladder/calendar queue with O(1)
//! amortized push/pop.
//!
//! Events are ordered by `(time, push sequence)`: events scheduled for the
//! same instant pop in the order they were pushed (FIFO within a
//! timestamp). This total order is what makes entire simulations built on
//! the queue deterministic — no behaviour ever depends on container
//! internals. `crates/desim/tests/queue_diff.rs` holds the reference
//! implementation (a `BinaryHeap` ordered by the same key) and drives
//! adversarial schedules through both, demanding identical pop sequences
//! and accounting.

use crate::SimTime;

/// Result of [`CalendarQueue::pop_if_before`]: a single
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

/// Number of ring buckets. Power of two so the ring index is a mask. The
/// engine's pending-event population is small (a handful per processor),
/// so a fixed modest ring plus the far-future spill ladder covers every
/// workload without calendar-queue resize heuristics.
const RING_BUCKETS: usize = 512;
/// Initial bucket width as a shift (2^6 = 64 ns ≈ two CPU cycles). The
/// width re-adapts to the observed event-time span whenever the window is
/// re-seeded from the spill ladder.
const INIT_WIDTH_SHIFT: u32 = 6;
/// Widest allowed bucket (2^40 ns ≈ 18 min of simulated time per bucket):
/// beyond this, far-apart events simply share buckets and are ordered by
/// the per-bucket sort, which stays correct at any width.
const MAX_WIDTH_SHIFT: u32 = 40;

/// A min-ordered queue of `(SimTime, E)` events backed by a ladder /
/// calendar structure: a sorted "current" run being drained, a ring of
/// unsorted near-future buckets, and an unsorted far-future spill ladder.
///
/// Push and pop are O(1) amortized: a push appends to a bucket (or
/// binary-inserts into the small current run when the event is due inside
/// the bucket being drained), and each event is sorted exactly once, in
/// the small batch of its bucket, when the drain front reaches it. The
/// observable behaviour — pop order, FIFO stability within a timestamp,
/// `pushed`/`popped`/`last_popped` accounting — is bit-identical to a
/// binary heap ordered by `(time, seq)`, which the differential suite
/// (`tests/queue_diff.rs`) enforces.
///
/// # Example
///
/// ```
/// use spasm_desim::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.push(SimTime::from_ns(5), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_ns(1), 'a')));
/// ```
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The run currently being drained, sorted by `(time, seq)`
    /// DESCENDING so pop is `Vec::pop` from the tail. Also receives
    /// pushes due before the current bucket's end (including pushes in
    /// the past, which the heap semantics allow).
    cur: Vec<(SimTime, u64, E)>,
    /// Ring of unsorted near-future buckets. `ring[ring_pos]` is the
    /// bucket being drained into `cur`; bucket `i` steps ahead holds
    /// times `[base + i·W, base + (i+1)·W)`.
    ring: Vec<Vec<(SimTime, u64, E)>>,
    /// Physical ring index of the current bucket.
    ring_pos: usize,
    /// Start of the current bucket's time range, aligned to the width.
    base: u64,
    /// log2 of the bucket width W.
    width_shift: u32,
    /// Events pending in the ring (not counting `cur`).
    in_ring: usize,
    /// Exclusive end of the epoch's ring window, FROZEN between
    /// re-seeds. The boundary must not track the advancing `base`:
    /// otherwise an event spilled to `far` (≥ the boundary at push time)
    /// could silently fall into the past as the window slides forward,
    /// and the ring would pop later events first. u128 so `u64::MAX`
    /// timestamps compare without saturation.
    epoch_end: u128,
    /// Far-future spill ladder: unsorted events at or beyond
    /// `epoch_end`, redistributed (and the width re-adapted) when the
    /// ring and current run drain dry.
    far: Vec<(SimTime, u64, E)>,
    /// Always empty: the ladder's second buffer, swapped with `far` at a
    /// re-seed so the events that stay far are kept without allocating.
    spare: Vec<(SimTime, u64, E)>,
    seq: u64,
    popped: u64,
    last_popped: Option<SimTime>,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            cur: Vec::new(),
            ring: std::iter::repeat_with(Vec::new)
                .take(RING_BUCKETS)
                .collect(),
            ring_pos: 0,
            base: 0,
            width_shift: INIT_WIDTH_SHIFT,
            in_ring: 0,
            epoch_end: (1u128 << INIT_WIDTH_SHIFT) * RING_BUCKETS as u128,
            far: Vec::new(),
            spare: Vec::new(),
            seq: 0,
            popped: 0,
            last_popped: None,
        }
    }

    #[inline]
    fn width(&self) -> u64 {
        1u64 << self.width_shift
    }

    /// End of the current bucket (exclusive), in u128 so `u64::MAX`
    /// timestamps never saturate into an off-by-one.
    #[inline]
    fn cur_end(&self) -> u128 {
        u128::from(self.base) + u128::from(self.width())
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let t = u128::from(time.as_ns());
        if t < self.cur_end() {
            // Due inside (or before) the bucket being drained — including
            // pushes into the past, which must pop next. `cur` is sorted
            // descending by (time, seq); this seq is the largest ever
            // issued, so the insertion point is found by time alone and
            // lands after any equal-time entries (FIFO).
            let key = (time, seq);
            let idx = self.cur.partition_point(|&(et, es, _)| (et, es) > key);
            self.cur.insert(idx, (time, seq, event));
        } else if t < self.epoch_end {
            // Within the frozen epoch window: `base` has advanced k
            // buckets into the epoch, so the offset is < RING_BUCKETS - k
            // and the slot never laps the drain position.
            let offset = ((time.as_ns() - self.base) >> self.width_shift) as usize;
            debug_assert!((1..RING_BUCKETS).contains(&offset));
            let slot = (self.ring_pos + offset) & (RING_BUCKETS - 1);
            self.ring[slot].push((time, seq, event));
            self.in_ring += 1;
        } else {
            self.far.push((time, seq, event));
        }
    }

    /// Ensures `cur` holds the next events to pop, advancing the ring
    /// window and re-seeding from the spill ladder as needed. Returns
    /// `false` when the queue is empty.
    fn refill(&mut self) -> bool {
        if !self.cur.is_empty() {
            return true;
        }
        if self.in_ring > 0 {
            // Advance to the next non-empty bucket. Bounded by the ring
            // size, and each step is a length check on a contiguous Vec.
            loop {
                self.ring_pos = (self.ring_pos + 1) & (RING_BUCKETS - 1);
                self.base = self.base.saturating_add(self.width());
                if !self.ring[self.ring_pos].is_empty() {
                    break;
                }
            }
            // Swap, not take: the drained slot keeps `cur`'s empty
            // buffer, so the next lap's pushes there need no allocation.
            std::mem::swap(&mut self.cur, &mut self.ring[self.ring_pos]);
            self.in_ring -= self.cur.len();
            self.cur
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
            return true;
        }
        if self.far.is_empty() {
            return false;
        }
        self.reseed_from_far();
        true
    }

    /// Re-anchors the window at the earliest far event, re-adapting the
    /// bucket width to the observed span, and redistributes the ladder.
    /// `cur` is empty here, so the first bucket's events go straight into
    /// it, and the events that stay far move into `spare`'s buffer.
    fn reseed_from_far(&mut self) {
        let (mut min_t, mut max_t) = (u64::MAX, 0u64);
        for &(t, _, _) in &self.far {
            let ns = t.as_ns();
            min_t = min_t.min(ns);
            max_t = max_t.max(ns);
        }
        // Aim to spread the span over about half the ring; any width is
        // correct (buckets are sorted when drained), wider just batches
        // more events per sort.
        let span = max_t - min_t;
        let target = (span / (RING_BUCKETS as u64 / 2)).max(1);
        self.width_shift =
            (64 - (target - 1).leading_zeros()).clamp(INIT_WIDTH_SHIFT, MAX_WIDTH_SHIFT);
        self.base = min_t & !(self.width() - 1);
        self.ring_pos = 0;
        self.epoch_end = u128::from(self.base) + u128::from(self.width()) * RING_BUCKETS as u128;
        let cur_end = self.cur_end();
        let epoch_end = self.epoch_end;
        debug_assert!(self.cur.is_empty() && self.spare.is_empty());
        std::mem::swap(&mut self.far, &mut self.spare);
        for (time, seq, event) in self.spare.drain(..) {
            let t = u128::from(time.as_ns());
            if t < cur_end {
                self.cur.push((time, seq, event));
            } else if t < epoch_end {
                let offset = ((time.as_ns() - self.base) >> self.width_shift) as usize;
                let slot = (self.ring_pos + offset) & (RING_BUCKETS - 1);
                self.ring[slot].push((time, seq, event));
                self.in_ring += 1;
            } else {
                self.far.push((time, seq, event));
            }
        }
        debug_assert!(
            !self.cur.is_empty(),
            "min far event must land in the window"
        );
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
    }

    #[inline]
    fn take_head(&mut self) -> (SimTime, E) {
        let (t, _, e) = self.cur.pop().expect("refill guaranteed a head");
        self.popped += 1;
        self.last_popped = Some(t);
        (t, e)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Inlined: the caller then reads a large event straight out of
    /// `cur` instead of through a returned temporary (DESIGN.md §12).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.refill() {
            return None;
        }
        Some(self.take_head())
    }

    /// Pops the earliest event only if its timestamp is at or before
    /// `limit` — a combined head-compare-and-pop, so a deadline-bounded
    /// caller touches the head once per event instead of peeking and then
    /// popping. See [`PopIfBefore`].
    pub fn pop_if_before(&mut self, limit: SimTime) -> PopIfBefore<E> {
        if !self.refill() {
            return PopIfBefore::Empty;
        }
        let head = self.cur.last().expect("refill guaranteed a head").0;
        if head > limit {
            return PopIfBefore::Deferred(head);
        }
        let (t, e) = self.take_head();
        PopIfBefore::Popped(t, e)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.cur.len() + self.in_ring + self.far.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (a simulator "event count" metric).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Total number of events ever popped. Invariant checkers compare this
    /// against [`CalendarQueue::pushed`] at end of run: a drained queue
    /// must have popped exactly what was pushed.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the most recently popped event, if any — the queue-side
    /// record of the simulation clock, for monotonicity checks.
    pub fn last_popped(&self) -> Option<SimTime> {
        self.last_popped
    }
}

impl<E> Default for CalendarQueue<E> {
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
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_equal_and_distinct_times() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ns(5), "a5");
        q.push(SimTime::from_ns(1), "a1");
        q.push(SimTime::from_ns(5), "b5");
        q.push(SimTime::from_ns(1), "b1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "b1", "a5", "b5"]);
    }

    #[test]
    fn pushed_counts_all_events() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed(), 2);
    }

    #[test]
    fn popped_and_last_popped_track_consumption() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.popped(), 0);
        assert_eq!(q.last_popped(), None);
        q.push(SimTime::from_ns(10), 'a');
        q.push(SimTime::from_ns(20), 'b');
        q.pop();
        assert_eq!(q.popped(), 1);
        assert_eq!(q.last_popped(), Some(SimTime::from_ns(10)));
        q.pop();
        assert_eq!(q.popped(), 2);
        assert_eq!(q.last_popped(), Some(SimTime::from_ns(20)));
        assert_eq!(q.popped(), q.pushed());
        q.pop();
        assert_eq!(q.popped(), 2); // empty pop does not count
    }

    #[test]
    fn pop_if_before_pops_at_or_before_limit_only() {
        let mut q = CalendarQueue::new();
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
    fn far_future_spill_and_reseed() {
        let mut q = CalendarQueue::new();
        // Far beyond the initial ring window (64ns × 512 buckets).
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
        let mut q = CalendarQueue::new();
        q.push(SimTime::MAX, 'm');
        q.push(SimTime::ZERO, 'z');
        q.push(SimTime::from_ns(u64::MAX - 1), 'n');
        assert_eq!(q.pop(), Some((SimTime::ZERO, 'z')));
        assert_eq!(q.pop(), Some((SimTime::from_ns(u64::MAX - 1), 'n')));
        assert_eq!(q.pop(), Some((SimTime::MAX, 'm')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drained_buckets_and_the_far_ladder_keep_their_buffers() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // One event in every ring bucket after the first, plus two in the
        // far ladder, popped against a heap ordered by (time, push seq).
        let lap = |q: &mut CalendarQueue<u64>, base: u64| {
            let mut heap = BinaryHeap::new();
            for i in 1..RING_BUCKETS as u64 {
                heap.push(Reverse((base + i * 64 + 5, q.pushed())));
                q.push(SimTime::from_ns(base + i * 64 + 5), q.pushed());
            }
            for far in [base + 1_000_000_000, base + 1_000_000_007] {
                heap.push(Reverse((far, q.pushed())));
                q.push(SimTime::from_ns(far), q.pushed());
            }
            heap
        };
        let drain = |q: &mut CalendarQueue<u64>, mut heap: BinaryHeap<Reverse<(u64, u64)>>| {
            while let Some(Reverse((t, id))) = heap.pop() {
                assert_eq!(q.pop(), Some((SimTime::from_ns(t), id)));
            }
            assert_eq!(q.pop(), None);
        };

        let mut q = CalendarQueue::new();
        let heap = lap(&mut q, 0);
        let (far_ptr, far_cap) = (q.far.as_ptr(), q.far.capacity());
        drain(&mut q, heap);
        // Each drained bucket took the previous one's buffer; only the
        // first drained and the never-used bucket 0 hold none.
        let kept = q.ring.iter().filter(|b| b.capacity() > 0).count();
        assert!(kept >= RING_BUCKETS - 2, "{kept} buckets kept a buffer");
        // The re-seed drained the ladder's buffer into `spare`, not the heap.
        assert_eq!((q.spare.as_ptr(), q.spare.capacity()), (far_ptr, far_cap));

        // The second lap pushes into the buffers the first left behind.
        let before: Vec<_> = q.ring.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        let heap = lap(&mut q, 1_000_000_000);
        for (slot, (b, &(ptr, cap))) in q.ring.iter().zip(&before).enumerate() {
            if cap > 0 {
                assert_eq!(b.as_ptr(), ptr, "bucket {slot} reallocated");
            }
        }
        drain(&mut q, heap);
        assert!(q.far.capacity() >= 2 && q.spare.capacity() >= 2);
    }

    #[test]
    fn push_into_the_past_pops_next() {
        // The heap allows scheduling before the last popped time; the
        // calendar must match (non-monotonic inserts land in `cur`).
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ns(100), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), 'b')));
        q.push(SimTime::from_ns(5), 'a');
        q.push(SimTime::from_us(90), 'c'); // ring range
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_us(90), 'c')));
    }
}
