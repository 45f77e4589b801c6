//! Guest-transparent detection of preempted critical OS services.
//!
//! The hypervisor cannot ask the guest what it was doing — the whole point
//! of the paper is avoiding guest modifications. What it *can* do (§4.1):
//!
//! - read the instruction pointer of any vCPU (it owns the VMCS),
//! - resolve it against the guest's kernel symbol table (`System.map`),
//! - match the symbol against the Table 3 whitelist.
//!
//! [`DetectionEngine`] packages those three steps plus the two sibling
//! scans §4.2 needs: "which preempted siblings owe TLB acknowledgements"
//! and "which preempted sibling is inside a spinlock critical section".
//! Each scan returns a [`VcpuSet`] bitmask of vCPU indices, so a scan on
//! the yield path allocates nothing.

use guest::tlb::VcpuSet;
use hypervisor::Machine;
use ksym::whitelist::{CriticalClass, Whitelist};
use simcore::ids::{VcpuId, VmId};

/// Classifies vCPU instruction pointers and finds acceleration targets.
#[derive(Clone, Debug)]
pub struct DetectionEngine {
    whitelist: Whitelist,
}

impl Default for DetectionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectionEngine {
    /// Creates an engine with the Linux 4.4 whitelist (Table 3).
    pub fn new() -> Self {
        Self::with_whitelist(Whitelist::linux44())
    }

    /// Creates an engine with a custom whitelist (ablations).
    pub fn with_whitelist(whitelist: Whitelist) -> Self {
        DetectionEngine { whitelist }
    }

    /// Classifies what a vCPU is executing, from its instruction pointer
    /// alone: an address computation, a binary search of the guest's
    /// symbol table and a whitelist read.
    pub fn classify(&self, machine: &Machine, vcpu: VcpuId) -> CriticalClass {
        let ip = machine.vcpu_ip(vcpu);
        self.whitelist.classify(machine.kernel_map().table(), ip)
    }

    /// Preempted sibling vCPUs that owe TLB-shootdown acknowledgements —
    /// the set §4.2 wakes and migrates for the one-to-many IPI case.
    ///
    /// Detection is transparent: the hypervisor relayed those IPIs itself,
    /// so it knows who has not yet acknowledged.
    pub fn preempted_ack_owers(&self, machine: &Machine, vm: VmId) -> VcpuSet {
        machine
            .vcpus_owing_acks(vm)
            .iter()
            .filter(|&i| machine.vcpu(VcpuId::new(vm, i)).is_preempted())
            .collect()
    }

    /// Preempted siblings whose instruction pointer lies inside a
    /// whitelisted spinlock critical section — the suspected preempted
    /// lock holders of §4.2.
    pub fn preempted_critical_siblings(&self, machine: &Machine, vm: VmId) -> VcpuSet {
        machine
            .siblings(vm)
            .filter(|&v| machine.vcpu(v).is_preempted())
            .filter(|&v| self.classify(machine, v) == CriticalClass::SpinlockCritical)
            .map(|v| v.idx)
            .collect()
    }

    /// Preempted siblings with undelivered relayed interrupts (reschedule
    /// IPIs or vIRQs) — recipients whose handling is stalled.
    pub fn preempted_ipi_recipients(&self, machine: &Machine, vm: VmId) -> VcpuSet {
        machine
            .siblings(vm)
            .filter(|&v| machine.vcpu(v).is_preempted())
            .filter(|&v| machine.has_pending_kwork(v))
            .map(|v| v.idx)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest::segment::{Program, ScriptedProgram, Segment};
    use hypervisor::{BaselinePolicy, Machine, MachineConfig, VmSpec};
    use simcore::time::{SimDuration, SimTime};

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// Builds an overcommitted machine where VM 0 hammers a lock with
    /// long holds and VM 1 hogs the CPUs.
    fn contended_machine() -> Machine {
        let layout = guest::kernel::LockLayout::new(4);
        let lock = layout.page_alloc();
        let locker = move |_v: u16| -> Box<dyn Program> {
            Box::new(ScriptedProgram::looping(
                "locker",
                vec![
                    Segment::Critical {
                        lock,
                        sym: ksym::sym!("get_page_from_freelist"),
                        hold: us(200),
                    },
                    Segment::User { dur: us(50) },
                ],
            ))
        };
        let hog = |_v: u16| -> Box<dyn Program> {
            Box::new(ScriptedProgram::looping(
                "hog",
                vec![Segment::User {
                    dur: SimDuration::from_millis(10),
                }],
            ))
        };
        Machine::new(
            MachineConfig::small(4).with_seed(11),
            vec![
                VmSpec::new("lockers", 4).task_per_vcpu(locker),
                VmSpec::new("hog", 4).task_per_vcpu(hog),
            ],
            Box::new(BaselinePolicy),
        )
    }

    #[test]
    fn classify_reads_real_ips() {
        let mut m = contended_machine();
        m.run_until(SimTime::from_millis(200)).unwrap();
        let engine = DetectionEngine::new();
        // Some locker vCPU must classify as critical-section or spin-wait
        // at some observation point.
        let mut seen_any_kernel = false;
        for v in m.siblings(VmId(0)) {
            let class = engine.classify(&m, v);
            if class != CriticalClass::NotCritical {
                seen_any_kernel = true;
            }
        }
        assert!(seen_any_kernel, "lock-heavy VM never observed in kernel");
    }

    #[test]
    fn finds_preempted_lock_holders_eventually() {
        // Preempted-holder windows are short (the load balancer rescues
        // UNDER vCPUs quickly), so sample densely.
        let mut m = contended_machine();
        let engine = DetectionEngine::new();
        let mut found = false;
        for step in 1..40_000u64 {
            m.run_until(SimTime::from_micros(step * 50)).unwrap();
            if !engine.preempted_critical_siblings(&m, VmId(0)).is_empty() {
                found = true;
                break;
            }
        }
        assert!(found, "no preempted lock holder in 2 s of contention");
    }

    #[test]
    fn empty_whitelist_detects_nothing() {
        let mut m = contended_machine();
        m.run_until(SimTime::from_millis(100)).unwrap();
        let engine = DetectionEngine::with_whitelist(Whitelist::empty());
        for v in m.siblings(VmId(0)) {
            assert_eq!(engine.classify(&m, v), CriticalClass::NotCritical);
        }
        assert!(engine.preempted_critical_siblings(&m, VmId(0)).is_empty());
    }

    #[test]
    fn ack_owers_are_preempted_subset() {
        let mut m = contended_machine();
        m.run_until(SimTime::from_millis(50)).unwrap();
        let engine = DetectionEngine::new();
        for v in engine.preempted_ack_owers(&m, VmId(0)).vcpus(VmId(0)) {
            assert!(m.vcpu(v).is_preempted());
        }
    }
}
