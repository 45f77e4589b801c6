//! The policy-facing machine API.
//!
//! Everything the micro-slice policy (and experiments) may do to the
//! machine: inspect vCPUs and their instruction pointers, migrate vCPUs
//! into the micro pool, resize the pools, set timers, and read statistics.

use super::{Event, Machine};
use crate::machine::sched::RequeueMode;
use crate::pool::PoolId;
use guest::tlb::VcpuSet;
use metrics::counters::Counter;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::time::SimDuration;

impl Machine {
    /// The instruction pointer of a vCPU, exactly as the paper's prototype
    /// reads it from the VMCS on a yield (§4.1).
    pub fn vcpu_ip(&self, vcpu: VcpuId) -> u64 {
        self.vcpu(vcpu).ctx.ip(&self.map)
    }

    /// All vCPU ids of a VM, in index order.
    pub fn siblings(&self, vm: VmId) -> impl Iterator<Item = VcpuId> {
        (0..self.vcpus[vm.0 as usize].len() as u16).map(move |i| VcpuId::new(vm, i))
    }

    /// Sibling vCPU indices with outstanding TLB-shootdown
    /// acknowledgements (the vCPUs §4.2 wakes and migrates).
    pub fn vcpus_owing_acks(&self, vm: VmId) -> VcpuSet {
        self.vms[vm.0 as usize].kernel.shootdowns.vcpus_owing_acks()
    }

    /// The pool a pCPU currently belongs to.
    pub fn pcpu_pool(&self, pcpu: PcpuId) -> PoolId {
        self.pools.pool_of(pcpu)
    }

    /// Run-queue length of a pCPU (excluding its running vCPU).
    pub fn pcpu_runq_len(&self, pcpu: PcpuId) -> usize {
        self.pcpus[pcpu.0 as usize].runq_len()
    }

    /// The vCPU currently running on a pCPU, if any.
    pub fn pcpu_current(&self, pcpu: PcpuId) -> Option<VcpuId> {
        self.pcpus[pcpu.0 as usize].current
    }

    /// Number of pCPUs currently in the micro pool.
    pub fn micro_cores(&self) -> usize {
        self.pools.count(PoolId::Micro)
    }

    /// Number of pCPUs in the normal pool.
    pub fn normal_cores(&self) -> usize {
        self.pools.count(PoolId::Normal)
    }

    /// Resizes the micro pool to `n` cores (clamped so the normal pool
    /// keeps at least one). Running and queued vCPUs of reassigned pCPUs
    /// are drained into their (new) proper pools.
    pub fn set_micro_cores(&mut self, n: usize) {
        let changed = self.pools.resize_micro(n);
        if changed.is_empty() {
            return;
        }
        self.stats.counters.incr(Counter::PoolResizes);
        self.trace_record(super::TraceEvent::PoolResize { micro_cores: n });
        for pcpu in changed {
            // Preempt whatever runs there.
            if let Some(current) = self.pcpus[pcpu.0 as usize].current {
                self.deschedule(current, RequeueMode::NormalPool);
            }
            // Re-place the queued vCPUs: everything drained from a pool
            // boundary change goes back to the normal pool (micro-pool
            // vCPUs were transient accelerations anyway).
            let drained = self.pcpus[pcpu.0 as usize].drain_runq();
            for entry in drained {
                self.vcpu_mut(entry.vcpu).pool = PoolId::Normal;
                let target = self.choose_pcpu(entry.vcpu, PoolId::Normal);
                self.enqueue_on(entry.vcpu, target);
            }
            if self.pcpus[pcpu.0 as usize].current.is_none() {
                self.dispatch(pcpu);
            }
        }
    }

    /// True if some micro-pool pCPU can accept another vCPU (run queue
    /// below the cap; §5 caps it at one).
    pub fn micro_slot_available(&self) -> bool {
        self.micro_slot().is_some()
    }

    /// Finds a micro-pool pCPU with a free run-queue slot, idle first.
    pub(crate) fn micro_slot(&self) -> Option<PcpuId> {
        let members = self.pools.members(PoolId::Micro);
        members
            .iter()
            .copied()
            .find(|&p| self.pcpus[p.0 as usize].is_idle())
            .or_else(|| {
                members
                    .iter()
                    .copied()
                    .find(|&p| self.pcpus[p.0 as usize].runq_len() < self.cfg.micro_runq_cap)
            })
    }

    /// Migrates a preempted (or blocked) vCPU onto a micro-sliced core for
    /// one short slice. Returns `false` if the vCPU is already running,
    /// already accelerated, or no micro slot is free.
    pub fn try_accelerate(&mut self, vcpu: VcpuId) -> bool {
        {
            let vc = self.vcpu(vcpu);
            if vc.is_running() || vc.pool == PoolId::Micro {
                return false;
            }
        }
        let Some(slot) = self.micro_slot() else {
            self.stats.counters.incr(Counter::MicroRejects);
            return false;
        };
        // Remove from its current run queue, if preempted.
        if let Some(pcpu) = self.vcpu(vcpu).pcpu() {
            let removed = self.pcpus[pcpu.0 as usize].remove(vcpu);
            debug_assert!(removed, "preempted vCPU missing from its run queue");
        }
        self.stats.counters.incr(Counter::MicroMigrations);
        self.stats.per_vm[vcpu.vm.0 as usize].micro_migrations += 1;
        self.trace_record(super::TraceEvent::MicroMigration { vcpu });
        self.vcpu_mut(vcpu).pool = PoolId::Micro;
        let prio = self.vcpu(vcpu).prio();
        self.vcpu_mut(vcpu).state = crate::vcpu::VState::Runnable { pcpu: slot };
        self.pcpus[slot.0 as usize].enqueue(vcpu, prio);
        if self.pcpus[slot.0 as usize].current.is_none() {
            self.dispatch(slot);
        }
        true
    }

    /// True if the hypervisor has relayed interrupt work (flush IPI,
    /// reschedule IPI, or vIRQ) to this vCPU that it has not yet handled.
    ///
    /// The hypervisor legitimately knows this without guest cooperation:
    /// it is the relay for every virtual interrupt (§4.1 "Detecting from
    /// IRQ events").
    pub fn has_pending_kwork(&self, vcpu: VcpuId) -> bool {
        !self.vcpu(vcpu).ctx.pending.is_empty()
    }

    /// Pins or unpins a vCPU as a *sticky* micro-pool resident: it stays
    /// in the micro pool across deschedules instead of being evicted
    /// after one slice. Used by coarse-grained comparator policies
    /// (vTRS-style whole-vCPU classification), never by the paper's
    /// mechanism. Unpinning returns the vCPU to the normal pool at its
    /// next deschedule (or immediately if it is queued).
    pub fn set_sticky_micro(&mut self, vcpu: VcpuId, sticky: bool) {
        self.vcpu_mut(vcpu).sticky_micro = sticky;
        if !sticky && self.vcpu(vcpu).pool == PoolId::Micro && self.vcpu(vcpu).is_preempted() {
            // Pull it out of the micro queue right away.
            if let Some(pcpu) = self.vcpu(vcpu).pcpu() {
                self.pcpus[pcpu.0 as usize].remove(vcpu);
            }
            self.vcpu_mut(vcpu).pool = PoolId::Normal;
            let target = self.choose_pcpu(vcpu, PoolId::Normal);
            self.enqueue_on(vcpu, target);
        }
    }

    /// Requests acceleration of a vCPU from a policy hook.
    ///
    /// A preempted or blocked vCPU migrates immediately (like
    /// [`Machine::try_accelerate`]); a *running* vCPU — typically the one
    /// currently yielding, §4.1 — is marked so its upcoming deschedule
    /// requeues it into the micro pool instead of behind the normal-pool
    /// queue. Returns `false` if no slot is free.
    pub fn request_acceleration(&mut self, vcpu: VcpuId) -> bool {
        if self.vcpu(vcpu).is_running() {
            if self.vcpu(vcpu).pool == PoolId::Micro {
                // Already accelerated: let it cycle back through the
                // micro pool on this yield as well.
                self.vcpu_mut(vcpu).micro_requested = true;
                return true;
            }
            if self.micro_slot().is_some() {
                self.vcpu_mut(vcpu).micro_requested = true;
                return true;
            }
            self.stats.counters.incr(Counter::MicroRejects);
            return false;
        }
        self.try_accelerate(vcpu)
    }

    /// Arms a policy timer that fires `delay` from now with the given id.
    pub fn set_policy_timer(&mut self, delay: SimDuration, id: u64) {
        self.push_event(self.now + delay, Event::PolicyTimer { id });
    }

    /// Pins a vCPU to a set of pCPUs (normal-pool affinity).
    ///
    /// Must be called before the simulation runs (placement happens at
    /// boot and on every wake).
    pub fn pin_vcpu(&mut self, vcpu: VcpuId, pcpus: Vec<PcpuId>) {
        assert!(!pcpus.is_empty(), "empty affinity set");
        self.vcpu_mut(vcpu).affinity = Some(pcpus);
    }

    /// Total work units completed by a VM.
    pub fn vm_work_done(&self, vm: VmId) -> u64 {
        self.vms[vm.0 as usize].work_done()
    }

    /// When a VM finished all its tasks, if it has.
    pub fn vm_finished_at(&self, vm: VmId) -> Option<simcore::time::SimTime> {
        self.vms[vm.0 as usize].finished_at
    }
}
