//! The two-level timing wheel behind [`EventQueue`](super::EventQueue).
//!
//! Two power-of-two levels bucket entries by firing time relative to a
//! monotonically advancing `cursor` (the drain frontier, always a
//! multiple of the level-0 granularity):
//!
//! | level | slots | granularity        | window from cursor |
//! |-------|-------|--------------------|--------------------|
//! | 0     | 256   | 2^12 ns ≈ 4.1 µs   | 2^20 ns ≈ 1.05 ms  |
//! | 1     | 64    | 2^20 ns ≈ 1.05 ms  | 2^26 ns ≈ 67 ms    |
//!
//! Entries beyond the level-1 window — or behind the cursor — are the
//! caller's problem (the queue routes them to its overflow heap). Each
//! level keeps an occupancy bitmap (one bit per slot) so finding the next
//! non-empty slot is a handful of word operations, never a slot walk.
//! Buckets are unordered; the queue sorts a bucket once when the cursor
//! reaches it. A level-1 bucket cascades into level 0 exactly when the
//! cursor enters its tick, so every entry is sorted exactly once, in the
//! level-0 bucket it ends up in. See DESIGN.md §4.10.

use super::Entry;
use crate::time::SimTime;

/// log2 of the level-0 slot width in nanoseconds.
pub(super) const SHIFT0: u32 = 12;
/// log2 of the level-1 slot width: 256 level-0 slots.
const SHIFT1: u32 = SHIFT0 + 8;

const SLOTS0: u64 = 1 << (SHIFT1 - SHIFT0);
/// Level-1 slots: the wheel holds times up to `2^(SHIFT1 + 6)` ns
/// (~67 ms) past the cursor.
const SLOTS1: u64 = 64;

/// First set bit at or after `start` in a circular 256-bit map, as a
/// delta `0..256` from `start`; `None` if the map is empty.
#[inline]
fn scan256(occ: &[u64; 4], start: usize) -> Option<usize> {
    let (w0, b0) = (start >> 6, start & 63);
    let first = occ[w0] >> b0;
    if first != 0 {
        return Some(first.trailing_zeros() as usize);
    }
    for k in 1..4 {
        let w = occ[(w0 + k) & 3];
        if w != 0 {
            return Some((64 - b0) + 64 * (k - 1) + w.trailing_zeros() as usize);
        }
    }
    let low = occ[w0] & ((1u64 << b0) - 1);
    if low != 0 {
        return Some((64 - b0) + 192 + low.trailing_zeros() as usize);
    }
    None
}

/// First set bit strictly after `start` in a circular 64-bit map, as a
/// delta `1..64`; the `start` bit itself is ignored (that level-1 slot is
/// invariantly empty — see the cascade notes below).
#[inline]
fn scan64_after(occ: u64, start: usize) -> Option<usize> {
    let rot = occ.rotate_right(start as u32) & !1u64;
    if rot == 0 {
        None
    } else {
        Some(rot.trailing_zeros() as usize)
    }
}

/// The two bucket levels plus their occupancy bitmaps and the cursor.
///
/// Invariants (relied on by the scans):
/// - every bucketed entry fires at or after `cursor`, in level 0 if it
///   fires within 256 level-0 slots of the cursor's, else in level 1
///   within 64 level-1 slots of the cursor's;
/// - the level-1 slot containing the cursor is empty (a level-1 entry
///   is at least one level-1 tick ahead, and its bucket cascades down
///   the moment the cursor enters that tick);
/// - the level-0 slot containing the cursor is only ever filled by a
///   cascade, and [`Wheel::take_next_slot`] drains it in the same call —
///   direct pushes for the cursor slot stay in the queue's drain buffer.
#[derive(Clone)]
pub(super) struct Wheel<E> {
    l0: Vec<Vec<Entry<E>>>,
    l1: Vec<Vec<Entry<E>>>,
    occ0: [u64; 4],
    occ1: u64,
    /// The drain frontier in ns, always a multiple of `2^SHIFT0`. Never
    /// moves backwards; never skips a non-empty slot.
    pub(super) cursor: u64,
    /// Total entries across all buckets.
    pub(super) count: usize,
}

impl<E> Wheel<E> {
    pub(super) fn new() -> Self {
        Wheel {
            l0: (0..SLOTS0).map(|_| Vec::new()).collect(),
            l1: (0..SLOTS1).map(|_| Vec::new()).collect(),
            occ0: [0; 4],
            occ1: 0,
            cursor: 0,
            count: 0,
        }
    }

    /// Buckets `entry` in the level that covers its firing time, or hands
    /// it back if it fires beyond the level-1 window. The caller must not
    /// pass times behind the cursor, nor times in the cursor's own
    /// level-0 slot.
    #[inline]
    pub(super) fn insert(&mut self, entry: Entry<E>) -> Result<(), Entry<E>> {
        let t = entry.at.as_nanos();
        debug_assert!(t >= self.cursor);
        if (t >> SHIFT0) - (self.cursor >> SHIFT0) < SLOTS0 {
            self.insert0(entry);
        } else if (t >> SHIFT1) - (self.cursor >> SHIFT1) < SLOTS1 {
            let i = ((t >> SHIFT1) & (SLOTS1 - 1)) as usize;
            self.l1[i].push(entry);
            self.occ1 |= 1 << i;
        } else {
            return Err(entry);
        }
        self.count += 1;
        Ok(())
    }

    /// Appends `entry` to its level-0 bucket; `count` is the caller's.
    #[inline]
    fn insert0(&mut self, entry: Entry<E>) {
        let i = ((entry.at.as_nanos() >> SHIFT0) & (SLOTS0 - 1)) as usize;
        self.l0[i].push(entry);
        self.occ0[i >> 6] |= 1 << (i & 63);
    }

    /// The absolute tick (firing time shifted by the level's granularity)
    /// of the first occupied slot at or after the cursor, per level.
    #[inline]
    fn next_ticks(&self) -> [Option<u64>; 2] {
        let cur0 = self.cursor >> SHIFT0;
        let cur1 = self.cursor >> SHIFT1;
        [
            scan256(&self.occ0, (cur0 & (SLOTS0 - 1)) as usize).map(|d| cur0 + d as u64),
            scan64_after(self.occ1, (cur1 & (SLOTS1 - 1)) as usize).map(|d| cur1 + d as u64),
        ]
    }

    /// The exact earliest bucketed firing time, without mutating anything:
    /// the minimum over the first occupied bucket of each level (a level's
    /// later buckets fire later). `None` iff the wheel is empty.
    pub(super) fn earliest(&self) -> Option<SimTime> {
        let [a, b] = self.next_ticks();
        let first = |level: &[Vec<Entry<E>>], tick: Option<u64>| {
            let bucket = &level[(tick? as usize) & (level.len() - 1)];
            bucket.iter().map(|e| e.at).min()
        };
        [first(&self.l0, a), first(&self.l1, b)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the cursor to the next non-empty level-0 slot — cascading
    /// a level-1 bucket into level 0 when the cursor enters its tick —
    /// and moves that slot's entries (unsorted) into `out`. Stops,
    /// returning `false`, when the wheel is empty or the next occupied
    /// slot starts after `limit` (ns), so the cursor never advances past
    /// `limit`.
    pub(super) fn take_next_slot(&mut self, limit: u64, out: &mut Vec<Entry<E>>) -> bool {
        debug_assert!(out.is_empty());
        loop {
            if self.count == 0 {
                return false;
            }
            let [a, b] = self.next_ticks();
            let ab = a.map_or(u64::MAX, |t| t << SHIFT0);
            let bb = b.map_or(u64::MAX, |t| t << SHIFT1);
            if ab.min(bb) > limit {
                return false;
            }
            // Level 1 wins ties: a bucket whose tick starts at the same
            // instant as a level-0 slot may hold earlier entries, so it
            // must cascade before that slot drains. Its entries all fire
            // within 2^SHIFT1 ns of the new cursor, so they land in level
            // 0 (the cursor's own slot included, which the next scan
            // finds).
            if bb <= ab {
                let tick = b.expect("bb finite");
                self.cursor = tick << SHIFT1;
                let i = (tick & (SLOTS1 - 1)) as usize;
                self.occ1 &= !(1 << i);
                for e in core::mem::take(&mut self.l1[i]) {
                    assert!(e.at.as_nanos() >> SHIFT1 == tick, "cascade off its tick");
                    self.insert0(e);
                }
            } else {
                let tick = a.expect("count > 0 with no level-1 slot");
                self.cursor = tick << SHIFT0;
                let i = (tick & (SLOTS0 - 1)) as usize;
                self.occ0[i >> 6] &= !(1 << (i & 63));
                core::mem::swap(out, &mut self.l0[i]);
                self.count -= out.len();
                return true;
            }
        }
    }
}
