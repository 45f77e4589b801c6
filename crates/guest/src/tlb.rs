//! The one-to-many TLB-shootdown protocol.
//!
//! `mmap`/`munmap`-heavy workloads (dedup, vips; §3.1) force the initiating
//! vCPU to IPI every sibling in the address space and wait in
//! `smp_call_function_many` until *all* of them acknowledge. One preempted
//! straggler stalls the initiator — the co-run latencies of Table 4b. This
//! module tracks in-flight shootdowns and their acknowledgement sets.

use core::fmt;
use simcore::ids::{VcpuId, VmId};
use simcore::time::SimTime;
use std::collections::BTreeMap;

/// A set of vCPU indices of one VM: bit `i` stands for vCPU `i`.
///
/// It is the format of every acknowledgement set, and of the candidate
/// sets the micro-slice policy scans for. One `u64` means a VM has at most
/// [`VcpuSet::MAX_VCPUS`] vCPUs, which VM construction enforces. The set
/// is `Copy`, so taking a snapshot of it allocates nothing, and it
/// iterates in ascending index order.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct VcpuSet(u64);

impl VcpuSet {
    /// The largest vCPU count a set can hold.
    pub const MAX_VCPUS: u16 = 64;

    /// The empty set.
    pub const fn new() -> Self {
        VcpuSet(0)
    }

    /// Adds vCPU `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`VcpuSet::MAX_VCPUS`].
    #[inline]
    pub fn insert(&mut self, idx: u16) {
        assert!(
            idx < Self::MAX_VCPUS,
            "vCPU index {idx} exceeds the 64-vCPU bound"
        );
        self.0 |= 1 << idx;
    }

    /// Removes vCPU `idx` (a no-op if absent).
    #[inline]
    pub fn remove(&mut self, idx: u16) {
        if idx < Self::MAX_VCPUS {
            self.0 &= !(1 << idx);
        }
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of vCPUs in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The vCPU indices, ascending.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = u16> {
        let mut bits = self.0;
        core::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let idx = bits.trailing_zeros() as u16;
            bits &= bits - 1;
            Some(idx)
        })
    }

    /// The set as vCPU ids of `vm`, ascending.
    #[inline]
    pub fn vcpus(self, vm: VmId) -> impl Iterator<Item = VcpuId> {
        self.iter().map(move |idx| VcpuId::new(vm, idx))
    }
}

impl FromIterator<u16> for VcpuSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut set = VcpuSet::new();
        for idx in iter {
            set.insert(idx);
        }
        set
    }
}

impl core::ops::BitOr for VcpuSet {
    type Output = VcpuSet;

    #[inline]
    fn bitor(self, rhs: VcpuSet) -> VcpuSet {
        VcpuSet(self.0 | rhs.0)
    }
}

impl fmt::Debug for VcpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Identifies an in-flight shootdown within one VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShootdownId(pub u64);

/// One in-flight shootdown.
#[derive(Clone, Debug)]
pub struct Shootdown {
    /// Initiating vCPU index.
    pub initiator: u16,
    /// Initiating task index.
    pub task: u32,
    /// Sibling vCPU indices that have not yet acknowledged.
    pub pending: VcpuSet,
    /// When the shootdown started (Table 4b latency measurement).
    pub started: SimTime,
}

/// All in-flight shootdowns of one VM.
#[derive(Clone, Debug, Default)]
pub struct ShootdownTable {
    inflight: BTreeMap<ShootdownId, Shootdown>,
    next_id: u64,
    /// Completed shootdowns (for statistics).
    pub completed: u64,
}

impl ShootdownTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a shootdown from `initiator` to `targets`.
    ///
    /// An empty target set is legal (all siblings idle in lazy-TLB mode)
    /// and completes immediately; the caller should check
    /// [`ShootdownTable::is_complete`] right after starting.
    pub fn start(
        &mut self,
        initiator: u16,
        task: u32,
        mut targets: VcpuSet,
        now: SimTime,
    ) -> ShootdownId {
        let id = ShootdownId(self.next_id);
        self.next_id += 1;
        targets.remove(initiator);
        self.inflight.insert(
            id,
            Shootdown {
                initiator,
                task,
                pending: targets,
                started: now,
            },
        );
        id
    }

    /// Records `vcpu`'s acknowledgement. Returns `true` if this was the
    /// last outstanding acknowledgement (the initiator may proceed).
    ///
    /// Acknowledging an unknown shootdown or acknowledging twice is
    /// harmless and returns the current completion state — IPIs can race
    /// with teardown in the real kernel too.
    pub fn ack(&mut self, id: ShootdownId, vcpu: u16) -> bool {
        match self.inflight.get_mut(&id) {
            Some(sd) => {
                sd.pending.remove(vcpu);
                sd.pending.is_empty()
            }
            None => false,
        }
    }

    /// True once every target has acknowledged.
    pub fn is_complete(&self, id: ShootdownId) -> bool {
        self.inflight
            .get(&id)
            .map(|sd| sd.pending.is_empty())
            .unwrap_or(false)
    }

    /// Looks up an in-flight shootdown.
    pub fn get(&self, id: ShootdownId) -> Option<&Shootdown> {
        self.inflight.get(&id)
    }

    /// Finishes a completed shootdown, returning its start time for
    /// latency accounting.
    ///
    /// # Panics
    ///
    /// Panics if the shootdown is unknown or still has pending targets —
    /// finishing early would silently corrupt the Table 4b statistics.
    pub fn finish(&mut self, id: ShootdownId) -> SimTime {
        let sd = self
            .inflight
            .remove(&id)
            .unwrap_or_else(|| panic!("finish of unknown shootdown {id:?}"));
        assert!(
            sd.pending.is_empty(),
            "finish with {} pending acks",
            sd.pending.len()
        );
        self.completed += 1;
        sd.started
    }

    /// vCPU indices with at least one outstanding acknowledgement, across
    /// all in-flight shootdowns (deterministic order). These are the
    /// "preempted sibling vCPUs" the micro-slice policy wakes (§4.2).
    pub fn vcpus_owing_acks(&self) -> VcpuSet {
        self.inflight
            .values()
            .fold(VcpuSet::new(), |set, sd| set | sd.pending)
    }

    /// Number of in-flight shootdowns.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set(idx: &[u16]) -> VcpuSet {
        idx.iter().copied().collect()
    }

    #[test]
    fn full_protocol_roundtrip() {
        let mut t = ShootdownTable::new();
        let id = t.start(0, 7, set(&[1, 2, 3]), SimTime::from_micros(5));
        assert!(!t.is_complete(id));
        assert!(!t.ack(id, 1));
        assert!(!t.ack(id, 2));
        assert!(t.ack(id, 3), "last ack completes");
        assert!(t.is_complete(id));
        assert_eq!(t.finish(id), SimTime::from_micros(5));
        assert_eq!(t.completed, 1);
        assert_eq!(t.inflight_count(), 0);
    }

    #[test]
    fn initiator_is_excluded_from_targets() {
        let mut t = ShootdownTable::new();
        let id = t.start(2, 0, set(&[0, 1, 2]), SimTime::ZERO);
        assert_eq!(t.get(id).unwrap().pending.len(), 2);
    }

    #[test]
    fn empty_target_set_is_immediately_complete() {
        let mut t = ShootdownTable::new();
        let id = t.start(0, 0, VcpuSet::new(), SimTime::ZERO);
        assert!(t.is_complete(id));
        t.finish(id);
    }

    #[test]
    fn duplicate_and_unknown_acks_are_harmless() {
        let mut t = ShootdownTable::new();
        let id = t.start(0, 0, set(&[1]), SimTime::ZERO);
        assert!(t.ack(id, 1));
        assert!(t.ack(id, 1), "re-ack still reports complete");
        assert!(t.ack(id, 200), "acks from outside the set are ignored");
        assert!(!t.ack(ShootdownId(999), 1));
        assert!(!t.is_complete(ShootdownId(999)));
    }

    #[test]
    #[should_panic(expected = "pending")]
    fn finish_with_pending_acks_panics() {
        let mut t = ShootdownTable::new();
        let id = t.start(0, 0, set(&[1, 2]), SimTime::ZERO);
        t.finish(id);
    }

    #[test]
    fn vcpus_owing_acks_unions_inflight() {
        let mut t = ShootdownTable::new();
        let a = t.start(0, 0, set(&[1, 2]), SimTime::ZERO);
        let _b = t.start(3, 1, set(&[2, 4]), SimTime::ZERO);
        t.ack(a, 2);
        let owing: Vec<u16> = t.vcpus_owing_acks().iter().collect();
        assert_eq!(owing, vec![1, 2, 4]);
    }

    #[test]
    fn vcpu_set_spans_all_64_indices_in_order() {
        let all: VcpuSet = (0..64).rev().collect();
        assert_eq!(all.len(), 64);
        assert!(all.iter().eq(0..64));
        let ids: Vec<VcpuId> = set(&[5, 0]).vcpus(VmId(2)).collect();
        assert_eq!(ids, vec![VcpuId::new(VmId(2), 0), VcpuId::new(VmId(2), 5)]);
        assert_eq!(format!("{:?}", set(&[3, 1])), "{1, 3}");
    }

    #[test]
    #[should_panic(expected = "64-vCPU bound")]
    fn vcpu_set_rejects_index_64() {
        VcpuSet::new().insert(64);
    }

    /// The table as it was with `BTreeSet<u16>` ack sets, verbatim.
    #[derive(Default)]
    struct RefTable {
        inflight: BTreeMap<ShootdownId, (BTreeSet<u16>, SimTime)>,
        next_id: u64,
    }

    impl RefTable {
        fn start(&mut self, initiator: u16, targets: &[u16], now: SimTime) -> ShootdownId {
            let id = ShootdownId(self.next_id);
            self.next_id += 1;
            let pending = targets
                .iter()
                .copied()
                .filter(|&t| t != initiator)
                .collect();
            self.inflight.insert(id, (pending, now));
            id
        }

        fn ack(&mut self, id: ShootdownId, vcpu: u16) -> bool {
            match self.inflight.get_mut(&id) {
                Some((pending, _)) => {
                    pending.remove(&vcpu);
                    pending.is_empty()
                }
                None => false,
            }
        }

        fn is_complete(&self, id: ShootdownId) -> bool {
            self.inflight
                .get(&id)
                .map(|(pending, _)| pending.is_empty())
                .unwrap_or(false)
        }

        fn vcpus_owing_acks(&self) -> BTreeSet<u16> {
            let mut set = BTreeSet::new();
            for (pending, _) in self.inflight.values() {
                set.extend(pending.iter().copied());
            }
            set
        }
    }

    proptest! {
        /// Completion requires exactly the target set to ack, in any order.
        #[test]
        fn prop_completion_needs_all_targets(
            targets in proptest::collection::btree_set(1u16..12, 1..11),
            order in any::<u64>(),
        ) {
            let mut t = ShootdownTable::new();
            let id = t.start(0, 0, targets.iter().copied().collect(), SimTime::ZERO);
            let mut list: Vec<u16> = targets.iter().copied().collect();
            // Deterministic shuffle from the seed.
            let mut rng = simcore::rng::SimRng::new(order);
            for i in (1..list.len()).rev() {
                list.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for (n, vcpu) in list.iter().enumerate() {
                prop_assert!(!t.is_complete(id));
                let done = t.ack(id, *vcpu);
                prop_assert_eq!(done, n + 1 == list.len());
            }
            prop_assert!(t.is_complete(id));
        }

        /// Random start/ack/finish streams over up to 64 vCPUs: the bitmask
        /// table and the `BTreeSet` reference agree on every acknowledgement
        /// result, every completion flag, every pending set, and the owing
        /// union (ascending order included) after every operation.
        #[test]
        fn prop_bitmask_table_matches_btreeset_reference(
            vcpus in 1u16..65,
            ops in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..160),
        ) {
            let mut t = ShootdownTable::new();
            let mut r = RefTable::default();
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                let now = SimTime::from_micros(step as u64);
                let ids: Vec<ShootdownId> = r.inflight.keys().copied().collect();
                // Ids of finished shootdowns (and a never-issued one) stay
                // in play: acks racing teardown must be harmless.
                let pick = |x: u64| ShootdownId(x % (r.next_id + 1));
                match op {
                    0 => {
                        let initiator = (a % u64::from(vcpus)) as u16;
                        let targets: Vec<u16> =
                            (0..vcpus).filter(|&v| b >> (v % 64) & 1 == 1).collect();
                        let id = t.start(initiator, 0, targets.iter().copied().collect(), now);
                        prop_assert_eq!(id, r.start(initiator, &targets, now));
                    }
                    1 | 2 => {
                        let id = pick(a);
                        let vcpu = (b % u64::from(vcpus)) as u16;
                        prop_assert_eq!(t.ack(id, vcpu), r.ack(id, vcpu));
                    }
                    _ => {
                        if let Some(&id) = ids.iter().find(|&&id| r.is_complete(id)) {
                            let (_, started) = r.inflight.remove(&id).unwrap();
                            prop_assert_eq!(t.finish(id), started);
                        }
                    }
                }
                prop_assert_eq!(t.inflight_count(), r.inflight.len());
                for (&id, (pending, _)) in &r.inflight {
                    prop_assert_eq!(t.is_complete(id), r.is_complete(id));
                    let sd = t.get(id).unwrap();
                    prop_assert_eq!(sd.pending.len(), pending.len());
                    prop_assert!(sd.pending.iter().eq(pending.iter().copied()));
                }
                prop_assert!(t.vcpus_owing_acks().iter().eq(r.vcpus_owing_acks()));
            }
        }
    }
}
