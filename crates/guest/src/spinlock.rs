//! Kernel spinlocks with holder tracking.
//!
//! Linux ≥ 4.2 uses queued spinlocks; in paravirtualized guests the queue
//! degrades to an unfair spin, which removes the lock-*waiter* preemption
//! problem but — as §3.3 of the paper stresses — leaves lock-*holder*
//! preemption fully intact. We model that behaviour: acquisition is
//! first-come among *running* vCPUs, the holder is tracked so the
//! simulation can observe lock-holder preemption, and per-lock wait-time
//! statistics feed Table 4a.

use crate::tlb::VcpuSet;
use simcore::ids::VcpuId;

/// A guest kernel spinlock.
///
/// Locks are per-VM: every vCPU passed in must belong to the lock's own
/// VM, because spinners are kept by vCPU index.
#[derive(Clone, Debug)]
pub struct SpinLock {
    /// The vCPU currently inside the critical section, if any.
    holder: Option<VcpuId>,
    /// Indices of the vCPUs currently spinning on this lock.
    spinners: VcpuSet,
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to spin first.
    pub contended: u64,
}

impl Default for SpinLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        SpinLock {
            holder: None,
            spinners: VcpuSet::new(),
            acquisitions: 0,
            contended: 0,
        }
    }

    /// The current holder.
    pub fn holder(&self) -> Option<VcpuId> {
        self.holder
    }

    /// True if the lock is free.
    pub fn is_free(&self) -> bool {
        self.holder.is_none()
    }

    /// Attempts to acquire for `vcpu`. On success the vCPU becomes the
    /// holder; on failure it is registered as a spinner.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` already holds the lock (kernel spinlocks are not
    /// recursive — re-acquisition would be a guest bug, and in the
    /// simulation a machine bug).
    pub fn try_acquire(&mut self, vcpu: VcpuId) -> bool {
        assert_ne!(self.holder, Some(vcpu), "recursive spinlock acquisition");
        match self.holder {
            None => {
                self.holder = Some(vcpu);
                if self.spinners.contains(vcpu.idx) {
                    self.spinners.remove(vcpu.idx);
                    self.contended += 1;
                }
                self.acquisitions += 1;
                true
            }
            Some(_) => {
                self.spinners.insert(vcpu.idx);
                false
            }
        }
    }

    /// Releases the lock.
    ///
    /// The lock becomes free; spinners acquire it the next time they
    /// execute (unfair qspinlock behaviour under paravirtualization).
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is not the holder — releasing a lock one does not
    /// hold would be a machine bug worth failing loudly on.
    pub fn release(&mut self, vcpu: VcpuId) {
        assert_eq!(self.holder, Some(vcpu), "release by non-holder");
        self.holder = None;
    }

    /// Removes a vCPU from the spinner set (it gave up, e.g. its task was
    /// migrated or the simulation is tearing down).
    pub fn remove_spinner(&mut self, vcpu: VcpuId) {
        self.spinners.remove(vcpu.idx);
    }

    /// The indices of the vCPUs currently spinning; the set is `Copy` and
    /// iterates in ascending order.
    pub fn spinners(&self) -> VcpuSet {
        self.spinners
    }

    /// Number of spinning vCPUs.
    pub fn spinner_count(&self) -> usize {
        self.spinners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::ids::VmId;

    fn v(idx: u16) -> VcpuId {
        VcpuId::new(VmId(0), idx)
    }

    #[test]
    fn uncontended_acquire_release() {
        let mut l = SpinLock::new();
        assert!(l.is_free());
        assert!(l.try_acquire(v(0)));
        assert_eq!(l.holder(), Some(v(0)));
        assert!(!l.is_free());
        l.release(v(0));
        assert!(l.is_free());
        assert_eq!(l.acquisitions, 1);
        assert_eq!(l.contended, 0);
    }

    #[test]
    fn contended_acquire_registers_spinner() {
        let mut l = SpinLock::new();
        assert!(l.try_acquire(v(0)));
        assert!(!l.try_acquire(v(1)));
        assert!(!l.try_acquire(v(2)));
        assert_eq!(l.spinner_count(), 2);
        l.release(v(0));
        assert!(l.is_free(), "release does not hand off; spinners re-try");
        assert!(l.try_acquire(v(2)));
        assert_eq!(l.spinner_count(), 1, "acquirer left the spinner set");
        assert_eq!(l.contended, 1);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut l = SpinLock::new();
        l.try_acquire(v(0));
        l.release(v(1));
    }

    #[test]
    #[should_panic(expected = "recursive")]
    fn recursive_acquire_panics() {
        let mut l = SpinLock::new();
        l.try_acquire(v(0));
        l.try_acquire(v(0));
    }

    #[test]
    fn remove_spinner() {
        let mut l = SpinLock::new();
        l.try_acquire(v(0));
        l.try_acquire(v(1));
        l.remove_spinner(v(1));
        assert_eq!(l.spinner_count(), 0);
    }

    #[test]
    fn spinners_are_deterministically_ordered() {
        let mut l = SpinLock::new();
        l.try_acquire(v(9));
        for idx in [5, 1, 3] {
            l.try_acquire(v(idx));
        }
        let order: Vec<u16> = l.spinners().iter().collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    /// The lock as it was with a `BTreeSet<VcpuId>` spinner set, verbatim.
    #[derive(Default)]
    struct RefLock {
        holder: Option<VcpuId>,
        spinners: std::collections::BTreeSet<VcpuId>,
        acquisitions: u64,
        contended: u64,
    }

    impl RefLock {
        fn try_acquire(&mut self, vcpu: VcpuId) -> bool {
            match self.holder {
                None => {
                    self.holder = Some(vcpu);
                    if self.spinners.remove(&vcpu) {
                        self.contended += 1;
                    }
                    self.acquisitions += 1;
                    true
                }
                Some(_) => {
                    self.spinners.insert(vcpu);
                    false
                }
            }
        }
    }

    proptest! {
        /// Random acquire/release/give-up streams over up to 64 vCPUs: the
        /// bitmask lock and the `BTreeSet` reference agree on every acquire
        /// result, the holder, both counters, and the spinner set in
        /// ascending order after every operation.
        #[test]
        fn prop_bitmask_spinners_match_btreeset_reference(
            ops in proptest::collection::vec((0u8..5, 0u16..64), 1..300),
        ) {
            let mut l = SpinLock::new();
            let mut r = RefLock::default();
            for (op, idx) in ops {
                match op {
                    0..=2 => {
                        if r.holder != Some(v(idx)) {
                            prop_assert_eq!(l.try_acquire(v(idx)), r.try_acquire(v(idx)));
                        }
                    }
                    3 => {
                        if let Some(h) = r.holder.take() {
                            l.release(h);
                        }
                    }
                    _ => {
                        l.remove_spinner(v(idx));
                        r.spinners.remove(&v(idx));
                    }
                }
                prop_assert_eq!(l.holder(), r.holder);
                prop_assert_eq!(l.acquisitions, r.acquisitions);
                prop_assert_eq!(l.contended, r.contended);
                prop_assert_eq!(l.spinner_count(), r.spinners.len());
                let spinners: Vec<VcpuId> = l.spinners().vcpus(VmId(0)).collect();
                prop_assert!(spinners.iter().eq(r.spinners.iter()));
            }
        }

        /// Mutual exclusion and statistics hold for arbitrary operation
        /// sequences: at most one holder, every successful acquire pairs
        /// with the holder, and counts are consistent.
        #[test]
        fn prop_mutual_exclusion(ops in proptest::collection::vec((0u16..4, any::<bool>()), 1..200)) {
            let mut l = SpinLock::new();
            let mut holder: Option<u16> = None;
            let mut acquired = 0u64;
            for (idx, want_acquire) in ops {
                if want_acquire {
                    if holder == Some(idx) {
                        continue; // Skip recursive acquire (would panic by design).
                    }
                    let ok = l.try_acquire(v(idx));
                    prop_assert_eq!(ok, holder.is_none());
                    if ok {
                        holder = Some(idx);
                        acquired += 1;
                    }
                } else if holder == Some(idx) {
                    l.release(v(idx));
                    holder = None;
                }
                prop_assert_eq!(l.holder(), holder.map(v));
            }
            prop_assert_eq!(l.acquisitions, acquired);
            prop_assert!(l.contended <= l.acquisitions);
        }
    }
}
