//! A bounded trace ring — the simulator's `xentrace` analogue.
//!
//! The paper's analysis (§3.1) relies on `xentrace` and `perf` logs to
//! attribute yields to kernel functions. [`TraceBuffer`] provides the same
//! capability for the simulator: components append timestamped records and
//! analyses inspect (or drain) them afterwards. The ring is bounded so
//! long simulations cannot exhaust memory: once it is full, each new
//! record overwrites the oldest one. A disabled ring has capacity 0 and
//! costs one inlined branch per record.

use crate::time::SimTime;

/// A timestamped trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord<T> {
    /// When the event happened in simulated time.
    pub at: SimTime,
    /// The event payload (defined by the tracing component).
    pub event: T,
}

/// A bounded ring of trace records: a `Vec` of slots written in turn and
/// a running count of records that locates the oldest one.
///
/// # Examples
///
/// ```
/// use simcore::time::SimTime;
/// use simcore::trace::TraceBuffer;
///
/// let mut trace = TraceBuffer::new(2);
/// trace.record(SimTime::from_micros(1), "boot");
/// trace.record(SimTime::from_micros(2), "yield");
/// trace.record(SimTime::from_micros(3), "migrate");
/// assert_eq!(trace.total(), 3);
/// let kept: Vec<_> = trace.iter().map(|r| r.event).collect();
/// assert_eq!(kept, ["yield", "migrate"]); // "boot" was overwritten
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuffer<T> {
    slots: Vec<TraceRecord<T>>,
    /// Slot count; 0 means disabled.
    capacity: usize,
    /// Records written since creation or the last drain. The next write
    /// goes to slot `total % capacity`.
    total: u64,
}

impl<T> TraceBuffer<T> {
    /// A ring retaining the last `capacity` records (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            total: 0,
        }
    }

    /// A disabled ring: [`TraceBuffer::record`] is a no-op.
    pub fn disabled() -> Self {
        TraceBuffer {
            slots: Vec::new(),
            capacity: 0,
            total: 0,
        }
    }

    /// True if the ring retains records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Appends a record, overwriting the oldest one once the ring is full.
    ///
    /// The disabled check is an inlined early-out, so simulation hot paths
    /// pay one predictable branch when tracing is off.
    #[inline]
    pub fn record(&mut self, at: SimTime, event: T) {
        if self.capacity != 0 {
            self.record_slow(TraceRecord { at, event });
        }
    }

    #[cold]
    fn record_slow(&mut self, record: TraceRecord<T>) {
        let slot = self.head();
        if slot < self.slots.len() {
            self.slots[slot] = record;
        } else {
            self.slots.push(record);
        }
        self.total += 1;
    }

    /// The slot the next record goes to: the oldest record once the ring
    /// is full, one past the newest before.
    fn head(&self) -> usize {
        (self.total % self.capacity.max(1) as u64) as usize
    }

    /// Iterates over the retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord<T>> {
        let (newer, older) = self.slots.split_at(self.head());
        older.iter().chain(newer)
    }

    /// Removes and returns the retained records, oldest first. The ring
    /// then refills from empty and its [`total`](TraceBuffer::total)
    /// restarts at zero.
    pub fn drain(&mut self) -> Vec<TraceRecord<T>> {
        let head = self.head();
        let mut records = std::mem::take(&mut self.slots);
        records.rotate_left(head);
        self.total = 0;
        records
    }

    /// Records written since creation or the last drain, retained plus
    /// overwritten.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, n: u64) -> TraceBuffer<u64> {
        let mut t = TraceBuffer::new(capacity);
        for i in 0..n {
            t.record(SimTime::from_micros(i), i);
        }
        t
    }

    fn events(t: &TraceBuffer<u64>) -> Vec<u64> {
        t.iter().map(|r| r.event).collect()
    }

    #[test]
    fn records_in_order() {
        let t = filled(10, 5);
        assert_eq!(events(&t), [0, 1, 2, 3, 4]);
        let times: Vec<u64> = t.iter().map(|r| r.at.as_micros()).collect();
        assert_eq!(times, [0, 1, 2, 3, 4]);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let t = filled(3, 5);
        assert_eq!(events(&t), [2, 3, 4], "oldest first after the wrap");
        assert_eq!(t.len(), 3);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let t = filled(0, 3);
        assert!(t.is_enabled());
        assert_eq!(events(&t), [2]);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn disabled_buffer_discards_silently() {
        let mut t = TraceBuffer::disabled();
        assert!(!t.is_enabled());
        t.record(SimTime::ZERO, "x");
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn drain_empties_buffer() {
        let mut t = filled(3, 5);
        let drained: Vec<u64> = t.drain().into_iter().map(|r| r.event).collect();
        assert_eq!(drained, [2, 3, 4], "oldest first");
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        // The ring refills from empty and wraps as before.
        for i in 5..9 {
            t.record(SimTime::from_micros(i), i);
        }
        assert_eq!(events(&t), [6, 7, 8]);
        assert_eq!(t.total(), 4);
    }
}
