//! A stably ordered discrete-event queue.
//!
//! Events at equal timestamps pop in insertion order, which makes the
//! simulation deterministic regardless of queue internals. The queue is
//! the simulator's hottest data structure — a 0.1 ms micro-slice run
//! multiplies event counts ~300× over the 30 ms baseline, and almost all
//! of those events are short-horizon timers (slice expiry, IPI acks,
//! kicks at 0.1–30 ms) — so it is built the way production timer
//! subsystems are:
//!
//! - a **two-level timing wheel** buckets entries by firing time up to
//!   2^26 ns (~67 ms) ahead: pushing a near-future timer is a bucket
//!   append plus a bitmap bit, and popping drains one pre-sorted slot
//!   buffer at a time (DESIGN.md §4.10);
//! - a **binary min-heap** catches what the wheel does not hold: events
//!   past its horizon (fault-plan entries, and policy timers of 100 ms
//!   and up such as Algorithm 1's 1-s epoch: 181 of the quick suite's
//!   48.1M pushes) and events behind the drain frontier (the full
//!   priority-queue contract allows pushing "into the past", though
//!   event-loop traffic — pop at `t`, push at `t` or later — never
//!   does).
//!
//! Each entry carries its payload inline next to its `(time, seq)`
//! ordering key, so a pop hands the payload straight out of the buffer it
//! was sorted in. Ordering ties cannot occur: the key is unique because
//! `seq` increments on every push, which is also what gives FIFO order
//! within a timestamp. There is no cancellation: the simulator discards
//! superseded events when they fire, so nothing ever looks an entry up
//! after pushing it.

use crate::time::SimTime;
use core::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

mod wheel;

use wheel::{Wheel, SHIFT0};

/// One pending event: the `(at, seq)` ordering key and the payload.
#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// Entries order by key alone, which is unique per queue, so the payload
// never needs an ordering of its own.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Sorts a drained bucket descending by key. Buckets usually hold a few
/// entries, where an insertion sort is cheaper than the general sort.
fn sort_descending<E>(v: &mut [Entry<E>]) {
    if v.len() > 16 {
        v.sort_unstable_by_key(|e| Reverse(e.key()));
        return;
    }
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && v[j - 1].key() < v[j].key() {
            v.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// A priority queue of timestamped events with stable FIFO tie-breaking,
/// backed by a two-level timing wheel with a heap overflow level (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), 'a');
/// q.push(SimTime::from_micros(10), 'b');
/// q.push(SimTime::from_micros(5), 'c');
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'c')));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'b')));
/// assert!(q.is_empty());
/// ```
///
/// Cloning snapshots the queue verbatim — wheel buckets and cursor, drain
/// buffer, heap, and sequence counter — so a clone pops exactly like the
/// original, the property the machine snapshot/fork path rests on.
#[derive(Clone)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    /// Drain buffer: the entries of the wheel slot at the cursor, sorted
    /// descending by `(at, seq)` so the next entry pops off the end.
    /// Pushes targeting the cursor's slot insert here directly.
    cur: Vec<Entry<E>>,
    /// Events at/beyond the wheel horizon or behind the cursor.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            cur: Vec::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let entry = Entry {
            at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        let t = at.as_nanos();
        let cursor = self.wheel.cursor;
        if t < cursor {
            // Behind the drain frontier: full queue semantics still hold,
            // the heap serves as the underflow level too.
            self.push_overflow(entry);
        } else if (t >> SHIFT0) == (cursor >> SHIFT0) {
            // The cursor's own slot: insert sorted into the drain buffer
            // (descending, so the scan starts at the tail — a fresh push
            // carries the largest `seq` and usually lands there).
            let key = entry.key();
            self.cur.push(entry);
            let mut i = self.cur.len() - 1;
            while i > 0 && self.cur[i - 1].key() < key {
                self.cur.swap(i - 1, i);
                i -= 1;
            }
        } else if let Err(entry) = self.wheel.insert(entry) {
            self.push_overflow(entry);
        }
    }

    /// The wheel side's minimum key, refilling the drain buffer from the
    /// wheel when it has run dry — but only from a slot that starts at or
    /// before `limit`, so the cursor never passes a deadline.
    #[inline]
    fn wheel_head(&mut self, limit: u64) -> Option<(SimTime, u64)> {
        if self.cur.is_empty() {
            if !self.wheel.take_next_slot(limit, &mut self.cur) {
                return None;
            }
            sort_descending(&mut self.cur);
        }
        self.cur.last().map(Entry::key)
    }

    /// The firing time of the queue's minimum entry and whether it sits
    /// on the overflow heap (as opposed to the drain buffer). Wheel slots
    /// that start after `limit` stay undrained and are ignored, so the
    /// answer is exact only when it is at or before `limit`. Nor does a
    /// slot that starts after the heap's head drain: popping that head
    /// then leaves the cursor at or before its time, so the event loop's
    /// next pushes (at that time or later) stay off the heap.
    #[inline]
    fn head(&mut self, limit: u64) -> Option<(SimTime, bool)> {
        let heap = self.overflow.peek().map(|Reverse(e)| e.key());
        let wheel = self.wheel_head(heap.map_or(limit, |(at, _)| limit.min(at.as_nanos())));
        match (wheel, heap) {
            (Some(w), Some(h)) if h < w => Some((h.0, true)),
            (Some(w), _) => Some((w.0, false)),
            (None, h) => h.map(|(at, _)| (at, true)),
        }
    }

    /// Pops the head located by [`head`](Self::head) off its side.
    #[inline]
    fn take_head(&mut self, from_overflow: bool) -> (SimTime, E) {
        let entry = if from_overflow {
            self.pop_overflow()
        } else {
            self.cur.pop().expect("head() found an entry")
        };
        (entry.at, entry.payload)
    }

    /// The heap's pop, kept out of line like [`push_overflow`]: a few
    /// hundred of a run's millions of pops take it, and inlined into
    /// `pop_at_or_before` it slowed every other pop (DESIGN.md §4.10).
    ///
    /// [`push_overflow`]: Self::push_overflow
    #[cold]
    #[inline(never)]
    fn pop_overflow(&mut self) -> Entry<E> {
        let Reverse(entry) = self.overflow.pop().expect("head() found an entry");
        entry
    }

    /// The heap's push, kept out of `push` for the same reason.
    #[cold]
    #[inline(never)]
    fn push_overflow(&mut self, entry: Entry<E>) {
        self.overflow.push(Reverse(entry));
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, from_overflow) = self.head(u64::MAX)?;
        Some(self.take_head(from_overflow))
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `deadline` — the event loop's fused peek-then-pop. The
    /// drain buffer is refilled only from a wheel slot that starts by the
    /// deadline, so a past-the-deadline call leaves the cursor in place.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (at, from_overflow) = self.head(deadline.as_nanos())?;
        if at > deadline {
            return None;
        }
        Some(self.take_head(from_overflow))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Exact, and takes `&self`: when the drain buffer is empty it scans
    /// the first occupied wheel bucket of each level instead of draining
    /// one. The event loop never peeks; it pops with
    /// [`pop_at_or_before`](Self::pop_at_or_before).
    pub fn earliest(&self) -> Option<SimTime> {
        let wheel = match self.cur.last() {
            Some(entry) => Some(entry.at),
            None => self.wheel.earliest(),
        };
        let heap = self.overflow.peek().map(|Reverse(e)| e.at);
        wheel.into_iter().chain(heap).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cur.len() + self.wheel.count + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn earliest_scans_the_buckets_without_draining() {
        let mut q = EventQueue::new();
        assert_eq!(q.earliest(), None);
        q.push(SimTime::from_micros(1), 'a');
        q.push(SimTime::from_micros(5), 'b');
        q.push(SimTime::from_millis(3), 'c'); // level 1
        q.push(SimTime::from_millis(60), 'd'); // level 1, near the horizon
        q.push(SimTime::from_millis(200), 'e'); // overflow heap

        // 'a' went straight to the drain buffer (the cursor's slot), the
        // rest to the buckets and the heap.
        assert_eq!(q.earliest(), Some(SimTime::from_micros(1)));
        assert_eq!(q.len(), 5, "peeking must not consume");
        for (at, next) in [
            (SimTime::from_micros(1), SimTime::from_micros(5)),
            (SimTime::from_micros(5), SimTime::from_millis(3)),
            (SimTime::from_millis(3), SimTime::from_millis(60)),
            (SimTime::from_millis(60), SimTime::from_millis(200)),
        ] {
            assert_eq!(q.pop().map(|(t, _)| t), Some(at));
            // The drain buffer is empty after each pop, so `earliest`
            // must find the next event in the buckets or the heap.
            assert!(q.cur.is_empty());
            assert_eq!(q.earliest(), Some(next));
        }
        assert_eq!(q.pop(), Some((SimTime::from_millis(200), 'e')));
        assert_eq!(q.earliest(), None);
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 'a');
        q.push(SimTime::from_micros(20), 'b');
        q.push(SimTime::from_micros(30), 'c');
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(5)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(10), 'a'))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(20), 'b'))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.earliest(), Some(SimTime::from_micros(30)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 'c')));
    }

    #[test]
    fn far_future_events_overflow_and_pop_in_order() {
        // Beyond the ~67 ms wheel horizon events live on the heap; they
        // still interleave correctly with wheel-resident events.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 'd');
        q.push(SimTime::from_micros(5), 'a');
        q.push(SimTime::from_secs(5), 'c');
        q.push(SimTime::from_millis(40), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(40), 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 'c')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 'd')));
        assert!(q.is_empty());
    }

    /// Alone in an unadvanced queue, the last nanosecond of the last
    /// level-1 tick stays on the wheel and the horizon itself (2^26 ns)
    /// goes to the heap; both still pop.
    #[test]
    fn the_horizon_splits_level_1_from_the_heap() {
        for (at, on_heap) in [((1 << 26) - 1, 0), (1 << 26, 1)] {
            let mut q = EventQueue::new();
            q.push(SimTime::from_nanos(at), ());
            assert_eq!(q.overflow.len(), on_heap, "push at {at} ns");
            assert_eq!(q.earliest(), Some(SimTime::from_nanos(at)));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(at), ())));
        }
    }

    #[test]
    fn pushes_behind_the_drain_frontier_pop_first() {
        // Popping an event advances the wheel cursor; a later push at an
        // earlier time (allowed by the priority-queue contract) takes the
        // underflow path and must still pop before everything later.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 'b');
        q.push(SimTime::from_millis(9), 'c');
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 'b')));
        q.push(SimTime::from_micros(1), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 'c')));
    }

    /// The machine's event kinds once sat in separate shards, and the
    /// merge front had to restore global push order on ties. In the one
    /// queue, where an equal-time entry is stored depends on how far
    /// ahead of the cursor it was pushed — the overflow heap, a level-1
    /// bucket that later cascades, a level-0 bucket, or the drain buffer
    /// — and ties must still pop in global push order.
    #[test]
    fn sharded_fifo_holds_across_shards() {
        const MARKER: u32 = u32::MAX;
        let t = SimTime::from_secs(5);
        let mut q = EventQueue::new();
        let mut next = 0u32;
        // Pushed from time 0, `t` is past the wheel horizon.
        for _ in 0..4 {
            q.push(t, next);
            next += 1;
        }
        assert_eq!(q.overflow.len(), 4);
        // Walk the cursor ever closer to `t` (3 s, 10 ms, 100 µs, 1 ns
        // ahead), pushing more ties at each stop. Markers step at most
        // 50 ms, inside the wheel: a pop off the heap leaves the cursor
        // where it was.
        let mut now = 0;
        for lead_ns in [3_000_000_000, 10_000_000, 100_000, 1] {
            let stop = t.as_nanos() - lead_ns;
            while now < stop {
                now = stop.min(now + 50_000_000);
                let at = SimTime::from_nanos(now);
                q.push(at, MARKER);
                assert_eq!(q.pop(), Some((at, MARKER)));
            }
            for _ in 0..4 {
                q.push(t, next);
                next += 1;
            }
        }
        assert_eq!(q.overflow.len(), 8, "the ties from 5 s and 3 s ahead");
        assert_eq!(q.cur.len(), 12, "the cursor's slot holds the wheel ties");
        for i in 0..next {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    /// Deadline pops whose candidates sit in different parts of the
    /// queue — the overflow heap (pushed behind the cursor), the drain
    /// buffer and a level-1 bucket — must each honour the deadline.
    #[test]
    fn sharded_pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 'x');
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'x')));
        q.push(SimTime::from_micros(10), 'a'); // behind the cursor
        q.push(SimTime::from_micros(1_001), 'b'); // the cursor's slot
        q.push(SimTime::from_millis(3), 'c'); // level 1
        assert_eq!((q.overflow.len(), q.cur.len()), (1, 1));
        let deadline = SimTime::from_micros(2_500);
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(5)), None);
        assert_eq!(
            q.pop_at_or_before(deadline),
            Some((SimTime::from_micros(10), 'a'))
        );
        assert_eq!(
            q.pop_at_or_before(deadline),
            Some((SimTime::from_micros(1_001), 'b'))
        );
        assert_eq!(q.pop_at_or_before(deadline), None);
        assert_eq!(q.earliest(), Some(SimTime::from_millis(3)));
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(3)),
            Some((SimTime::from_millis(3), 'c'))
        );
        assert!(q.is_empty());
    }

    /// The event loop's traffic shape: pop the next event at `t`, then
    /// push follow-ups at `t` itself and at short horizons up to 30 ms.
    /// None of it may land behind the drain cursor, so the overflow heap
    /// stays empty; a queue whose pops move the cursor past `t` sends a
    /// large share of this traffic through the heap instead.
    #[test]
    fn machine_shaped_traffic_never_touches_the_overflow_heap() {
        const HORIZONS_NS: [u64; 6] = [0, 1_000, 40_000, 100_000, 1_500_000, 30_000_000];
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..64u64 {
            q.push(SimTime::from_micros(i * 37), i);
        }
        let mut popped = 0u64;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop order went backwards");
            last = t;
            popped += 1;
            if popped == 20_000 {
                break;
            }
            // One or two follow-ups per pop keep the queue populated.
            for _ in 0..1 + (popped & 1) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = HORIZONS_NS[(x % 6) as usize];
                q.push(t + crate::time::SimDuration::from_nanos(delta), popped);
            }
            assert!(q.overflow.is_empty(), "push after pop at {t} overflowed");
        }
        assert_eq!(popped, 20_000);
    }

    /// A long timer on the heap (Algorithm 1's 1-s epoch, say) pops while
    /// the wheel's next level-0 slot starts after it. Draining that slot
    /// first would move the cursor past the popped time, and the event
    /// loop's next pushes, just after it, would land behind the cursor on
    /// the heap.
    #[test]
    fn heap_pops_leave_the_cursor_at_or_before_their_time() {
        let mut q = EventQueue::new();
        let epoch = SimTime::from_millis(100);
        q.push(epoch, 'e'); // past the horizon: the heap
        q.push(SimTime::from_millis(50), 'a'); // level 1
        assert_eq!(q.pop(), Some((SimTime::from_millis(50), 'a')));
        let late = SimTime::from_micros(100_500);
        q.push(late, 'w'); // level 1, in the tick that holds `epoch`
        assert_eq!(q.pop(), Some((epoch, 'e')));
        assert!(q.wheel.cursor <= epoch.as_nanos());
        let next = SimTime::from_micros(100_001);
        q.push(next, 'n');
        assert!(q.overflow.is_empty(), "the next push went behind");
        assert_eq!(q.pop(), Some((next, 'n')));
        assert_eq!(q.pop(), Some((late, 'w')));
    }

    /// A deadline pop that finds nothing due leaves the cursor at or
    /// before the deadline, even when it cascades a level-1 bucket, so
    /// the event loop's next pushes (at the deadline, its new `now`) stay
    /// on the wheel.
    #[test]
    fn deadline_pops_never_move_the_cursor_past_the_deadline() {
        let mut q = EventQueue::new();
        // Level-1 tick 2 spans ~2.10–3.15 ms; its event fires at 2.9 ms.
        q.push(SimTime::from_micros(2_900), 'b');
        let deadline = SimTime::from_micros(2_500);
        assert_eq!(q.pop_at_or_before(deadline), None);
        assert!(q.wheel.cursor <= deadline.as_nanos());
        q.push(deadline, 'a');
        assert!(q.overflow.is_empty(), "a push at the deadline overflowed");
        assert_eq!(q.pop(), Some((deadline, 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(2_900), 'b')));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_micros(i), i);
        }
        q.push(SimTime::from_secs(30), 10);
        assert_eq!(q.len(), 11);
        q.pop();
        q.pop_at_or_before(SimTime::from_micros(5));
        assert_eq!(q.len(), 9);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 9);
        assert!(q.is_empty());
    }

    /// Pushes `id`s 0.. and runs `ops` against both the queue and a sorted
    /// reference model, checking every pop, deadline pop, `len`, and
    /// `earliest` — `t` is the push time or the pop deadline.
    fn check_against_model(ops: &[(u16, u64)]) {
        let mut q = EventQueue::new();
        // Reference: (time, seq) pairs — the seq doubles as the payload.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut next_id = 0u64;
        for &(op, t) in ops {
            match op {
                0 | 1 => {
                    q.push(SimTime::from_nanos(t), next_id);
                    model.push((t, next_id));
                    next_id += 1;
                }
                2 => {
                    model.sort_unstable();
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    let expected = expected.map(|(t, id)| (SimTime::from_nanos(t), id));
                    prop_assert_eq!(q.pop(), expected);
                }
                _ => {
                    model.sort_unstable();
                    let expected = match model.first() {
                        Some(&(head, _)) if head <= t => Some(model.remove(0)),
                        _ => None,
                    };
                    let expected = expected.map(|(t, id)| (SimTime::from_nanos(t), id));
                    prop_assert_eq!(q.pop_at_or_before(SimTime::from_nanos(t)), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(
                q.earliest(),
                model.iter().map(|&(t, _)| SimTime::from_nanos(t)).min()
            );
        }
    }

    proptest! {
        /// Popped timestamps are non-decreasing and every pushed event
        /// comes out exactly once, for arbitrary push/pop interleavings.
        #[test]
        fn prop_total_order_and_conservation(
            times in proptest::collection::vec(0u64..1_000, 1..200),
            pop_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
                if *pop_mask.get(i).unwrap_or(&false) {
                    out.extend(q.pop().map(|(_, id)| id));
                }
            }
            // Interleaved pops may go back in time (a later push can be
            // earlier); the final drain may not.
            let mut last = SimTime::ZERO;
            while let Some((t, id)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                out.push(id);
            }
            out.sort_unstable();
            prop_assert_eq!(out, (0..times.len()).collect::<Vec<_>>());
        }

        /// FIFO tie-break: for events at the same instant, pop order equals
        /// push order.
        #[test]
        fn prop_fifo_within_timestamp(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_millis(7);
            for i in 0..n {
                q.push(t, i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop(), Some((t, i)));
            }
        }

        /// Interleaved push/pop/deadline-pop against a naive reference
        /// model: the wheel + overflow heap must agree with a sorted-vec
        /// simulation of the same operation sequence, including `len` and
        /// `earliest`.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u16..4, 0u64..500_000), 1..300),
        ) {
            check_against_model(&ops);
        }

        /// The reference-model property again, over horizons that land
        /// events in both wheel levels *and* the overflow heap (times up
        /// to ~134 ms against a ~67 ms horizon).
        #[test]
        fn prop_matches_reference_model_all_levels(
            ops in proptest::collection::vec((0u16..4, 0u64..1 << 27), 1..200),
        ) {
            check_against_model(&ops);
        }

        /// A clone taken mid-stream behaves identically to the original
        /// from that point on: same pops, same deadline pops, same peeks
        /// and lengths, including for pushes made after the clone. This is
        /// the contract the machine snapshot/fork path rests on.
        #[test]
        fn prop_clone_replays_identically(
            pre in proptest::collection::vec((0u16..3, 0u64..300_000), 1..120),
            post in proptest::collection::vec((0u16..4, 0u64..300_000), 1..120),
        ) {
            let mut q = EventQueue::new();
            let mut next_id = 0u64;
            for (op, t) in pre {
                if op < 2 {
                    q.push(SimTime::from_nanos(t), next_id);
                    next_id += 1;
                } else {
                    q.pop();
                }
            }
            let mut fork = q.clone();
            prop_assert_eq!(fork.len(), q.len());
            for (op, t) in post {
                match op {
                    0 | 1 => {
                        let at = SimTime::from_nanos(t);
                        q.push(at, next_id);
                        fork.push(at, next_id);
                        next_id += 1;
                    }
                    2 => {
                        prop_assert_eq!(q.pop(), fork.pop());
                    }
                    _ => {
                        let deadline = SimTime::from_nanos(t);
                        prop_assert_eq!(
                            q.pop_at_or_before(deadline),
                            fork.pop_at_or_before(deadline)
                        );
                    }
                }
                prop_assert_eq!(q.len(), fork.len());
                prop_assert_eq!(q.earliest(), fork.earliest());
            }
            loop {
                let (a, b) = (q.pop(), fork.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// `pop_at_or_before` equals peek-check-then-pop for arbitrary
        /// deadlines over arbitrary event sets.
        #[test]
        fn prop_pop_at_or_before_matches_peek_pop(
            times in proptest::collection::vec(0u64..100, 1..80),
            deadline in 0u64..100,
        ) {
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                a.push(SimTime::from_micros(t), i);
                b.push(SimTime::from_micros(t), i);
            }
            let deadline = SimTime::from_micros(deadline);
            loop {
                let fused = a.pop_at_or_before(deadline);
                let split = match b.earliest() {
                    Some(t) if t <= deadline => b.pop(),
                    _ => None,
                };
                prop_assert_eq!(fused, split);
                if fused.is_none() {
                    break;
                }
            }
            prop_assert_eq!(a.len(), b.len());
        }
    }
}
