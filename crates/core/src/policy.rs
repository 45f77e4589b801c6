//! The micro-slice scheduling policy: detection + handling + pool sizing.

use crate::adaptive::{AdaptiveConfig, AdaptiveController, UrgentEvents};
use crate::detect::DetectionEngine;
use guest::tlb::VcpuSet;
use hypervisor::policy::{SchedPolicy, YieldCause};
use hypervisor::Machine;
use ksym::whitelist::CriticalClass;
use metrics::counters::{Counter, CounterSet};
use simcore::ids::{VcpuId, VmId};

/// How the micro pool is sized.
#[derive(Clone, Debug)]
pub enum PolicyMode {
    /// A fixed number of micro-sliced cores, set at boot (the "static"
    /// configurations of Figures 4–6; also the administrator mode of
    /// §4.3).
    Static(usize),
    /// Algorithm 1 (§4.3): profile/run phases sizing the pool at runtime.
    Adaptive {
        /// The Algorithm 1 state machine.
        controller: AdaptiveController,
        /// Counter snapshot at boot or the last timer callback, which the
        /// next callback's urgent-event deltas are taken against.
        last_snapshot: Box<CounterSet>,
    },
}

/// The flexible micro-sliced cores policy (§4, §5).
#[derive(Clone)]
pub struct MicroslicePolicy {
    mode: PolicyMode,
    detect: DetectionEngine,
}

/// Timer id used for the adaptive controller.
const ADAPTIVE_TIMER: u64 = 1;

impl MicroslicePolicy {
    /// A policy with a fixed micro-pool size.
    pub fn fixed(micro_cores: usize) -> Self {
        MicroslicePolicy {
            mode: PolicyMode::Static(micro_cores),
            detect: DetectionEngine::new(),
        }
    }

    /// A policy sized by Algorithm 1.
    pub fn adaptive(cfg: AdaptiveConfig) -> Self {
        MicroslicePolicy {
            mode: PolicyMode::Adaptive {
                controller: AdaptiveController::new(cfg),
                last_snapshot: Box::default(),
            },
            detect: DetectionEngine::new(),
        }
    }

    /// Replaces the detection engine (ablations: empty whitelist, custom
    /// tables).
    pub fn with_detection(mut self, detect: DetectionEngine) -> Self {
        self.detect = detect;
        self
    }

    /// The sizing mode.
    pub fn mode(&self) -> &PolicyMode {
        &self.mode
    }
}

/// Tries to accelerate each candidate vCPU of `vm`, in ascending index
/// order. `candidates` is a copy taken before the first attempt, so
/// migrations made by earlier attempts cannot change which vCPUs are tried.
fn accelerate_all(machine: &mut Machine, vm: VmId, candidates: VcpuSet) {
    for v in candidates.vcpus(vm) {
        machine.try_accelerate(v);
    }
}

impl SchedPolicy for MicroslicePolicy {
    fn name(&self) -> &'static str {
        match self.mode {
            PolicyMode::Static(_) => "microslice-static",
            PolicyMode::Adaptive { .. } => "microslice-adaptive",
        }
    }

    fn on_init(&mut self, machine: &mut Machine) {
        match &mut self.mode {
            PolicyMode::Static(n) => machine.set_micro_cores(*n),
            PolicyMode::Adaptive {
                controller,
                last_snapshot,
            } => {
                **last_snapshot = machine.stats.counters.snapshot();
                machine.set_policy_timer(controller.config().profile_interval, ADAPTIVE_TIMER);
            }
        }
    }

    fn on_yield(&mut self, machine: &mut Machine, vcpu: VcpuId, cause: YieldCause) {
        if machine.micro_cores() == 0 {
            return; // No pool reserved right now.
        }
        // Read the yielding vCPU's instruction pointer and classify it
        // (§4.1 "Detecting from yield events").
        let class = self.detect.classify(machine, vcpu);
        let vm = vcpu.vm;
        match class {
            CriticalClass::IpiWait => {
                // One-to-many TLB synchronization: wake and migrate every
                // preempted acknowledgement-owing sibling, and keep the
                // yielding initiator cycling on the micro pool so it
                // re-checks completion every 0.1 ms instead of after a
                // full normal-pool queueing round (§4.1 step 3).
                let owers = self.detect.preempted_ack_owers(machine, vm);
                accelerate_all(machine, vm, owers);
                machine.request_acceleration(vcpu);
            }
            CriticalClass::SpinWait => {
                // PLE while spinning: migrate the preempted lock holder(s)
                // and the spinning waiter itself.
                let holders = self.detect.preempted_critical_siblings(machine, vm);
                accelerate_all(machine, vm, holders);
                machine.request_acceleration(vcpu);
            }
            CriticalClass::SchedWakeup => {
                // Waiting for a reschedule-IPI acknowledgement: migrate the
                // stalled recipient(s) and the waiter.
                let recipients = self.detect.preempted_ipi_recipients(machine, vm);
                accelerate_all(machine, vm, recipients);
                machine.request_acceleration(vcpu);
            }
            CriticalClass::TlbHandler
            | CriticalClass::SpinlockCritical
            | CriticalClass::RwsemWake
            | CriticalClass::Irq
            | CriticalClass::NotCritical => {
                let _ = cause;
            }
        }
    }

    fn on_virq(&mut self, machine: &mut Machine, _vm: VmId, target: VcpuId) {
        // §4.2: migrate the recipient vCPU before relaying the vIRQ, if it
        // is preempted (the mixed-workload case BOOST cannot help: the
        // vCPU is already on a run queue).
        if machine.micro_cores() > 0 && machine.vcpu(target).is_preempted() {
            machine.try_accelerate(target);
        }
    }

    fn on_resched_ipi(&mut self, machine: &mut Machine, target: VcpuId) {
        // §4.2: before relaying a guest reschedule IPI, move the preempted
        // recipient onto the micro-sliced pool.
        if machine.micro_cores() > 0 && machine.vcpu(target).is_preempted() {
            machine.try_accelerate(target);
        }
    }

    fn on_timer(&mut self, machine: &mut Machine, id: u64) {
        if id != ADAPTIVE_TIMER {
            return;
        }
        let PolicyMode::Adaptive {
            controller,
            last_snapshot,
        } = &mut self.mode
        else {
            return;
        };
        // Urgent-event deltas since the last callback (the counters the
        // paper's prototype extends Xen with; §5 "Tracking critical
        // events").
        let now = machine.stats.counters.snapshot();
        let delta = now.delta_since(last_snapshot);
        **last_snapshot = now;
        let events = UrgentEvents {
            ipis: delta.value(Counter::IpiYields),
            ples: delta.value(Counter::PleExits),
            irqs: delta.value(Counter::Virqs),
        };
        let decision = controller.on_timer(events);
        machine.set_micro_cores(decision.micro_cores);
        machine.set_policy_timer(decision.next_interval, ADAPTIVE_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest::segment::{Program, ScriptedProgram, Segment};
    use hypervisor::{MachineConfig, VmSpec};
    use simcore::time::{SimDuration, SimTime};

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn hog(_v: u16) -> Box<dyn Program> {
        Box::new(ScriptedProgram::looping(
            "hog",
            vec![Segment::User {
                dur: SimDuration::from_millis(10),
            }],
        ))
    }

    fn locker_spec(num_vcpus: u16) -> VmSpec {
        let layout = guest::kernel::LockLayout::new(num_vcpus);
        let lock = layout.page_alloc();
        VmSpec::new("lockers", num_vcpus).task_per_vcpu(move |_| {
            Box::new(ScriptedProgram::looping(
                "locker",
                vec![
                    Segment::Critical {
                        lock,
                        sym: ksym::sym!("get_page_from_freelist"),
                        hold: us(4),
                    },
                    Segment::User { dur: us(100) },
                    Segment::WorkUnit,
                ],
            ))
        })
    }

    #[test]
    fn static_policy_reserves_cores_at_boot() {
        let specs = vec![locker_spec(12), VmSpec::new("hog", 12).task_per_vcpu(hog)];
        let mut m = Machine::new(
            MachineConfig::small(12).with_seed(3),
            specs,
            Box::new(MicroslicePolicy::fixed(1)),
        );
        assert_eq!(m.micro_cores(), 1);
        assert_eq!(m.normal_cores(), 11);
        m.run_until(SimTime::from_secs(2)).unwrap();
        assert!(
            m.stats.counters.get("micro_migrations") > 0,
            "contention should trigger accelerations"
        );
    }

    #[test]
    fn static_policy_collapses_lock_pathology() {
        // The paper-scale setup (12 pCPUs, 12-vCPU VMs at 2:1 overcommit):
        // accelerating preempted lock holders must collapse PLE yields and
        // lock waits by an order of magnitude.
        let run = |policy: Box<dyn SchedPolicy>| {
            let specs = vec![locker_spec(12), VmSpec::new("hog", 12).task_per_vcpu(hog)];
            let mut m = Machine::new(MachineConfig::small(12).with_seed(3), specs, policy);
            m.run_until(SimTime::from_secs(2)).unwrap();
            let waits = m
                .vm(VmId(0))
                .kernel
                .lock_wait_of(guest::kernel::LockKind::PageAlloc)
                .mean()
                .as_micros_f64();
            (m.stats.vm(VmId(0)).yields.spinlock, waits)
        };
        let (base_ples, base_wait) = run(Box::new(hypervisor::BaselinePolicy));
        let (fast_ples, fast_wait) = run(Box::new(MicroslicePolicy::fixed(1)));
        assert!(base_ples > 500, "baseline should churn: {base_ples} PLEs");
        // This synthetic lock is near saturation, so spinning on *running*
        // holders continues; the LHP-driven share must still drop.
        assert!(
            fast_ples < base_ples * 7 / 10,
            "PLE yields should drop: {fast_ples} vs {base_ples}"
        );
        assert!(
            fast_wait < base_wait / 2.0,
            "lock waits should collapse: {fast_wait}us vs {base_wait}us"
        );
    }

    #[test]
    fn adaptive_policy_keeps_zero_cores_when_uncontended() {
        let specs = vec![VmSpec::new("calm", 2).task_per_vcpu(hog)];
        let mut m = Machine::new(
            MachineConfig::small(4).with_seed(5),
            specs,
            Box::new(MicroslicePolicy::adaptive(AdaptiveConfig::default())),
        );
        m.run_until(SimTime::from_secs(3)).unwrap();
        assert_eq!(m.micro_cores(), 0, "no contention, no reserved cores");
        assert_eq!(m.stats.counters.get("micro_migrations"), 0);
    }

    #[test]
    fn adaptive_policy_reserves_under_contention() {
        let specs = vec![locker_spec(4), VmSpec::new("hog", 4).task_per_vcpu(hog)];
        let mut m = Machine::new(
            MachineConfig::small(4).with_seed(7),
            specs,
            Box::new(MicroslicePolicy::adaptive(AdaptiveConfig {
                max_micro_cores: 2,
                ..AdaptiveConfig::default()
            })),
        );
        m.run_until(SimTime::from_secs(3)).unwrap();
        assert!(
            m.stats.counters.get("micro_migrations") > 0,
            "adaptive policy never accelerated anything"
        );
        assert!(m.stats.counters.get("pool_resizes") > 0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(MicroslicePolicy::fixed(1).name(), "microslice-static");
        assert_eq!(
            MicroslicePolicy::adaptive(AdaptiveConfig::default()).name(),
            "microslice-adaptive"
        );
        assert!(matches!(
            MicroslicePolicy::fixed(2).mode(),
            PolicyMode::Static(2)
        ));
    }
}
