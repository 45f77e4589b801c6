//! Physical CPUs and their run queues.
//!
//! A run queue is one `Vec<RunqEntry>` kept in priority order, FIFO
//! within a class. Queues are tiny (a handful of entries at 2:1
//! overcommit), so a linear scan plus `Vec` insert/remove shifts beat any
//! pointer structure.

use crate::vcpu::Prio;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::time::SimTime;

/// One entry on a run queue: the vCPU and the priority it was enqueued at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunqEntry {
    /// The queued vCPU.
    pub vcpu: VcpuId,
    /// Priority at enqueue time (ordering key).
    pub prio: Prio,
}

/// A physical CPU: the currently running vCPU plus a priority run queue.
#[derive(Clone, Debug)]
pub struct Pcpu {
    /// Identity.
    pub id: PcpuId,
    /// Currently dispatched vCPU, if any.
    pub current: Option<VcpuId>,
    /// When the current slice ends.
    pub slice_end: SimTime,
    /// The waiting vCPUs, best priority first.
    runq: Vec<RunqEntry>,
    /// VM of the last vCPU that ran here (cache-pollution cost model).
    pub last_vm: Option<VmId>,
    /// The last vCPU that ran here (same-vCPU re-dispatch is cheap).
    pub last_vcpu: Option<VcpuId>,
}

impl Pcpu {
    /// Creates an idle pCPU.
    pub fn new(id: PcpuId) -> Self {
        Pcpu {
            id,
            current: None,
            slice_end: SimTime::ZERO,
            runq: Vec::new(),
            last_vm: None,
            last_vcpu: None,
        }
    }

    /// First index whose priority is strictly worse than `prio` — i.e.
    /// the slot a new entry of `prio` takes to land after the last entry
    /// of priority ≥ its own (priority order, FIFO within a class).
    #[inline]
    fn insert_pos(&self, prio: Prio) -> usize {
        self.runq
            .iter()
            .position(|e| e.prio > prio)
            .unwrap_or(self.runq.len())
    }

    #[inline]
    fn debug_check_absent(&self, vcpu: VcpuId) {
        debug_assert!(
            !self.runq.iter().any(|e| e.vcpu == vcpu),
            "{vcpu} double-enqueued on {}",
            self.id
        );
    }

    /// Inserts a vCPU after the last entry of priority ≥ `prio` (priority
    /// order, FIFO within a priority class).
    pub fn enqueue(&mut self, vcpu: VcpuId, prio: Prio) {
        self.debug_check_absent(vcpu);
        let pos = self.insert_pos(prio);
        self.runq.insert(pos, RunqEntry { vcpu, prio });
    }

    /// Inserts a yielding vCPU behind one extra entry (Xen credit1
    /// YIELD-flag semantics: "put it behind one lower priority vcpu ...
    /// so that it is not scheduled again immediately").
    pub fn enqueue_yield(&mut self, vcpu: VcpuId, prio: Prio) {
        self.debug_check_absent(vcpu);
        // Skip one entry past the normal insertion point, if any.
        let pos = (self.insert_pos(prio) + 1).min(self.runq.len());
        self.runq.insert(pos, RunqEntry { vcpu, prio });
    }

    /// Removes and returns the highest-priority waiter.
    pub fn pop(&mut self) -> Option<RunqEntry> {
        if self.runq.is_empty() {
            return None;
        }
        Some(self.runq.remove(0))
    }

    /// Refreshes every queued priority from the live value `prio_of`
    /// reports and restores priority order (stable, so FIFO within a
    /// class is preserved), without allocating.
    ///
    /// Xen compares each queued vCPU's *current* `pri` field during
    /// insertion; snapshotting priorities at enqueue time lets a waiter
    /// whose credits were refilled rot behind its stale OVER tag and
    /// starve — a bug this simulation had until Figure 9's pinned pair
    /// exposed it.
    pub fn refresh_with(&mut self, mut prio_of: impl FnMut(VcpuId) -> Prio) {
        for e in &mut self.runq {
            e.prio = prio_of(e.vcpu);
        }
        // Queues are a handful of entries and usually still sorted, so: a
        // linear sortedness check, then a stable insertion sort only when
        // the refresh actually reordered something.
        if self.runq.is_sorted_by_key(|e| e.prio) {
            return;
        }
        for i in 1..self.runq.len() {
            let entry = self.runq[i];
            let mut j = i;
            while j > 0 && self.runq[j - 1].prio > entry.prio {
                self.runq[j] = self.runq[j - 1];
                j -= 1;
            }
            self.runq[j] = entry;
        }
    }

    /// Priority of the best waiter, if any.
    pub fn head_prio(&self) -> Option<Prio> {
        self.runq.first().map(|e| e.prio)
    }

    /// Removes a specific vCPU from the queue. Returns `true` if present.
    pub fn remove(&mut self, vcpu: VcpuId) -> bool {
        if let Some(pos) = self.runq.iter().position(|e| e.vcpu == vcpu) {
            self.runq.remove(pos);
            true
        } else {
            false
        }
    }

    /// Steals the lowest-priority (tail) waiter, preferring one that the
    /// filter admits. Used by idle pCPUs pulling work.
    pub fn steal_tail(&mut self, admit: impl Fn(VcpuId) -> bool) -> Option<RunqEntry> {
        let pos = self.runq.iter().rposition(|e| admit(e.vcpu))?;
        Some(self.runq.remove(pos))
    }

    /// Queue length (excluding the running vCPU).
    pub fn runq_len(&self) -> usize {
        self.runq.len()
    }

    /// Load metric: queue length plus one if busy.
    pub fn load(&self) -> usize {
        self.runq.len() + usize::from(self.current.is_some())
    }

    /// True if nothing is running and nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.runq.is_empty()
    }

    /// Iterates over queued entries by value, best priority first.
    pub fn runq_iter(&self) -> impl Iterator<Item = RunqEntry> + '_ {
        self.runq.iter().copied()
    }

    /// Drains the whole queue (pool reconfiguration).
    pub fn drain_runq(&mut self) -> Vec<RunqEntry> {
        std::mem::take(&mut self.runq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(idx: u16) -> VcpuId {
        VcpuId::new(VmId(0), idx)
    }

    #[test]
    fn priority_order_with_fifo_ties() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Under);
        p.enqueue(v(2), Prio::Over);
        p.enqueue(v(3), Prio::Boost);
        p.enqueue(v(4), Prio::Under);
        let order: Vec<u16> = std::iter::from_fn(|| p.pop()).map(|e| e.vcpu.idx).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn head_prio_and_load() {
        let mut p = Pcpu::new(PcpuId(0));
        assert!(p.is_idle());
        assert_eq!(p.head_prio(), None);
        p.enqueue(v(1), Prio::Over);
        p.enqueue(v(2), Prio::Under);
        assert_eq!(p.head_prio(), Some(Prio::Under));
        assert_eq!(p.runq_len(), 2);
        assert_eq!(p.load(), 2);
        p.current = Some(v(9));
        assert_eq!(p.load(), 3);
        assert!(!p.is_idle());
    }

    #[test]
    fn remove_specific() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Under);
        p.enqueue(v(2), Prio::Under);
        assert!(p.remove(v(1)));
        assert!(!p.remove(v(1)));
        assert_eq!(p.pop().unwrap().vcpu, v(2));
    }

    #[test]
    fn steal_tail_respects_filter() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Under);
        p.enqueue(v(2), Prio::Under);
        p.enqueue(v(3), Prio::Over);
        // Filter rejects v3; the tail-most admitted is v2.
        let got = p.steal_tail(|vc| vc.idx != 3).unwrap();
        assert_eq!(got.vcpu, v(2));
        assert_eq!(p.runq_len(), 2);
        assert!(p.steal_tail(|_| false).is_none());
    }

    #[test]
    fn refresh_prios_restores_live_order() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Over); // Stale: actually UNDER by now.
        p.enqueue(v(2), Prio::Under);
        // Live values: v1 was refilled to UNDER, v2 dropped to OVER.
        p.refresh_with(|vc| if vc == v(1) { Prio::Under } else { Prio::Over });
        let order: Vec<u16> = std::iter::from_fn(|| p.pop()).map(|e| e.vcpu.idx).collect();
        assert_eq!(order, vec![1, 2]);
        // Stability: equal priorities keep FIFO order.
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(3), Prio::Over);
        p.enqueue(v(4), Prio::Over);
        p.refresh_with(|_| Prio::Under);
        let order: Vec<u16> = std::iter::from_fn(|| p.pop()).map(|e| e.vcpu.idx).collect();
        assert_eq!(order, vec![3, 4]);
    }

    #[test]
    fn enqueue_yield_skips_one_entry() {
        // Yielding Under vCPU lands behind the Over entry it would
        // normally precede.
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Over);
        p.enqueue_yield(v(2), Prio::Under);
        let order: Vec<u16> = std::iter::from_fn(|| p.pop()).map(|e| e.vcpu.idx).collect();
        assert_eq!(order, vec![1, 2]);
        // With an empty queue it is just a plain insert.
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue_yield(v(3), Prio::Under);
        assert_eq!(p.pop().unwrap().vcpu, v(3));
        // It skips exactly one, not all: a second Over entry stays behind.
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Over);
        p.enqueue(v(2), Prio::Over);
        p.enqueue_yield(v(3), Prio::Under);
        let order: Vec<u16> = std::iter::from_fn(|| p.pop()).map(|e| e.vcpu.idx).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn drain_empties() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Under);
        p.enqueue(v(2), Prio::Boost);
        let drained = p.drain_runq();
        assert_eq!(drained.len(), 2);
        assert!(p.is_idle() || p.runq_len() == 0);
    }

    #[test]
    #[should_panic(expected = "double-enqueued")]
    #[cfg(debug_assertions)]
    fn double_enqueue_panics_in_debug() {
        let mut p = Pcpu::new(PcpuId(0));
        p.enqueue(v(1), Prio::Under);
        p.enqueue(v(1), Prio::Under);
    }
}
