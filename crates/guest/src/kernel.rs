//! The per-VM guest kernel: lock set, shootdowns, flows, and statistics.

use crate::net::FlowState;
use crate::spinlock::SpinLock;
use crate::tlb::ShootdownTable;
use metrics::summary::DurationSummary;
use simcore::time::SimDuration;

/// The kernel subsystem a lock protects — the four components whose wait
/// times Table 4a reports, plus a bucket for everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// Per-CPU scheduler run queue locks.
    Runqueue,
    /// The zone lock of the page allocator.
    PageAlloc,
    /// Dentry cache hash-bucket locks.
    Dentry,
    /// Page reclaim (LRU) lock.
    PageReclaim,
    /// Any other kernel lock.
    Other,
}

impl LockKind {
    /// All kinds, in Table 4a order.
    pub const ALL: [LockKind; 5] = [
        LockKind::PageReclaim,
        LockKind::PageAlloc,
        LockKind::Dentry,
        LockKind::Runqueue,
        LockKind::Other,
    ];

    /// This kind's position in [`LockKind::ALL`], which indexes
    /// [`VmKernel::lock_wait`].
    pub fn slot(self) -> usize {
        LockKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }

    /// The whitelisted critical-section function executed while holding a
    /// lock of this kind (determines the preempted holder's IP).
    pub fn critical_sym(self) -> &'static str {
        match self {
            LockKind::Runqueue => "_raw_spin_unlock_irqrestore",
            LockKind::PageAlloc => "get_page_from_freelist",
            LockKind::Dentry => "__raw_spin_unlock",
            LockKind::PageReclaim => "free_one_page",
            LockKind::Other => "__raw_spin_unlock_irq",
        }
    }

    /// Human-readable name matching Table 4a rows.
    pub fn display_name(self) -> &'static str {
        match self {
            LockKind::Runqueue => "Runqueue",
            LockKind::PageAlloc => "Page allocator",
            LockKind::Dentry => "Dentry",
            LockKind::PageReclaim => "Page reclaim",
            LockKind::Other => "Other",
        }
    }
}

/// Maps lock kinds to indices in the VM's lock table.
///
/// Run-queue locks are per-vCPU (as in Linux); the dentry cache has a few
/// hash buckets; the page allocator and reclaim paths funnel through single
/// hot locks — which is why they dominate Table 4a.
#[derive(Clone, Copy, Debug)]
pub struct LockLayout {
    num_vcpus: u16,
}

/// Number of dentry hash-bucket locks.
const DENTRY_BUCKETS: u16 = 4;
/// Number of generic "other" locks.
const OTHER_LOCKS: u16 = 2;

impl LockLayout {
    /// Creates the layout for a VM with `num_vcpus` virtual CPUs.
    pub fn new(num_vcpus: u16) -> Self {
        assert!(num_vcpus > 0, "a VM needs at least one vCPU");
        LockLayout { num_vcpus }
    }

    /// The run-queue lock of a vCPU.
    pub fn runqueue(&self, vcpu: u16) -> u16 {
        assert!(vcpu < self.num_vcpus, "vcpu {vcpu} out of range");
        vcpu
    }

    /// The page-allocator zone lock.
    pub fn page_alloc(&self) -> u16 {
        self.num_vcpus
    }

    /// A dentry hash-bucket lock.
    pub fn dentry(&self, bucket: u16) -> u16 {
        self.num_vcpus + 1 + (bucket % DENTRY_BUCKETS)
    }

    /// The page-reclaim lock.
    pub fn page_reclaim(&self) -> u16 {
        self.num_vcpus + 1 + DENTRY_BUCKETS
    }

    /// A generic kernel lock.
    pub fn other(&self, which: u16) -> u16 {
        self.num_vcpus + 2 + DENTRY_BUCKETS + (which % OTHER_LOCKS)
    }

    /// Total number of lock instances.
    pub fn total(&self) -> u16 {
        self.num_vcpus + 2 + DENTRY_BUCKETS + OTHER_LOCKS
    }

    /// The kind of a lock index.
    pub fn kind_of(&self, idx: u16) -> LockKind {
        if idx < self.num_vcpus {
            LockKind::Runqueue
        } else if idx == self.page_alloc() {
            LockKind::PageAlloc
        } else if idx < self.num_vcpus + 1 + DENTRY_BUCKETS {
            LockKind::Dentry
        } else if idx == self.page_reclaim() {
            LockKind::PageReclaim
        } else {
            LockKind::Other
        }
    }
}

/// The modeled kernel state of one VM.
#[derive(Clone, Debug)]
pub struct VmKernel {
    /// Lock layout for this VM.
    pub layout: LockLayout,
    /// Lock instances, indexed per [`LockLayout`].
    pub locks: Vec<SpinLock>,
    /// In-flight TLB shootdowns.
    pub shootdowns: ShootdownTable,
    /// Network flows terminating in this VM.
    pub flows: Vec<FlowState>,
    /// Spinlock wait times per kind (Table 4a).
    pub lock_wait: [DurationSummary; 5],
    /// TLB synchronization latency (Table 4b).
    pub tlb_latency: DurationSummary,
}

impl VmKernel {
    /// Creates the kernel state for a VM with `num_vcpus` vCPUs.
    pub fn new(num_vcpus: u16) -> Self {
        let layout = LockLayout::new(num_vcpus);
        VmKernel {
            layout,
            locks: (0..layout.total()).map(|_| SpinLock::new()).collect(),
            shootdowns: ShootdownTable::new(),
            flows: Vec::new(),
            lock_wait: Default::default(),
            tlb_latency: DurationSummary::new(),
        }
    }

    /// Records a completed lock acquisition's wait time.
    pub fn record_lock_wait(&mut self, lock: u16, wait: SimDuration) {
        self.lock_wait[self.layout.kind_of(lock).slot()].record(wait);
    }

    /// The wait times of a lock kind.
    pub fn lock_wait_of(&self, kind: LockKind) -> &DurationSummary {
        &self.lock_wait[kind.slot()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_indices_are_disjoint_and_kinded() {
        let l = LockLayout::new(12);
        let mut seen = std::collections::HashSet::new();
        for v in 0..12 {
            assert!(seen.insert(l.runqueue(v)));
            assert_eq!(l.kind_of(l.runqueue(v)), LockKind::Runqueue);
        }
        assert!(seen.insert(l.page_alloc()));
        assert_eq!(l.kind_of(l.page_alloc()), LockKind::PageAlloc);
        for b in 0..4 {
            assert!(seen.insert(l.dentry(b)));
            assert_eq!(l.kind_of(l.dentry(b)), LockKind::Dentry);
        }
        assert!(seen.insert(l.page_reclaim()));
        assert_eq!(l.kind_of(l.page_reclaim()), LockKind::PageReclaim);
        for o in 0..2 {
            assert!(seen.insert(l.other(o)));
            assert_eq!(l.kind_of(l.other(o)), LockKind::Other);
        }
        assert_eq!(seen.len(), l.total() as usize);
    }

    #[test]
    fn bucket_wraparound() {
        let l = LockLayout::new(4);
        assert_eq!(l.dentry(0), l.dentry(4));
        assert_eq!(l.other(1), l.other(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn runqueue_out_of_range_panics() {
        LockLayout::new(2).runqueue(2);
    }

    #[test]
    fn kernel_construction_and_wait_recording() {
        let mut k = VmKernel::new(12);
        assert_eq!(k.locks.len(), k.layout.total() as usize);
        let idx = k.layout.page_alloc();
        k.record_lock_wait(idx, SimDuration::from_micros(420));
        let h = k.lock_wait_of(LockKind::PageAlloc);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), SimDuration::from_micros(420));
        assert_eq!(k.lock_wait_of(LockKind::Dentry).count(), 0);
    }

    #[test]
    fn critical_syms_are_whitelisted() {
        let wl = ksym::whitelist::Whitelist::linux44();
        for kind in LockKind::ALL {
            assert_eq!(
                wl.class_of(kind.critical_sym()),
                ksym::whitelist::CriticalClass::SpinlockCritical,
                "{kind:?}"
            );
        }
    }
}
