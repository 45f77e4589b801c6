//! Simplified implementations of the prior approaches the paper compares
//! against in Table 1.
//!
//! Each comparator runs against the same hypervisor substrate as the
//! paper's mechanism, so the `table1` experiment can contrast them
//! quantitatively:
//!
//! - [`VTurboPolicy`] — vTurbo (USENIX ATC '13): a statically dedicated
//!   "turbo" core with a short time slice, used for I/O interrupt
//!   processing only. The real system modifies the guest OS to split its
//!   I/O handling onto the turbo core; here the hypervisor routes every
//!   vIRQ recipient there, which is the same effective behaviour for the
//!   workloads we model. No lock or TLB handling, matching Table 1.
//! - [`VtrsPolicy`] — vTRS (EuroSys '16): runtime profiling classifies
//!   whole *vCPUs* by their time-slice preference; lock/I/O-intensive
//!   vCPUs move (entirely, user work included) to a short-slice pool.
//!   The classification is coarse — exactly the paper's criticism: a
//!   vCPU with mixed behaviour drags its cache-sensitive user work onto
//!   0.1 ms slices.
//!
//! The "Fixed-µsliced" comparator `[2]` needs no policy: set
//! `MachineConfig::normal_slice` to 0.1 ms (see
//! `experiments::ablations::run_fixed_usliced`).

use hypervisor::policy::{SchedPolicy, YieldCause};
use hypervisor::Machine;
use metrics::counters::CounterSet;
use simcore::ids::{VcpuId, VmId};
use simcore::time::SimDuration;
use std::collections::HashMap;

/// vTurbo: one statically dedicated short-slice core for I/O.
#[derive(Clone)]
pub struct VTurboPolicy {
    /// Number of dedicated turbo cores (vTurbo evaluated one).
    turbo_cores: usize,
}

impl VTurboPolicy {
    /// One turbo core, as evaluated in the vTurbo paper.
    pub fn new() -> Self {
        VTurboPolicy { turbo_cores: 1 }
    }
}

impl Default for VTurboPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for VTurboPolicy {
    fn name(&self) -> &'static str {
        "vturbo"
    }

    fn on_init(&mut self, machine: &mut Machine) {
        // The turbo core is static for the whole run (no flexibility —
        // the "CPU utilization" cost the paper's §4.3 addresses).
        machine.set_micro_cores(self.turbo_cores);
    }

    fn on_virq(&mut self, machine: &mut Machine, _vm: VmId, target: VcpuId) {
        // All I/O processing runs on the turbo core.
        if machine.vcpu(target).is_preempted() {
            machine.try_accelerate(target);
        } else if machine.vcpu(target).is_running() {
            machine.request_acceleration(target);
        }
    }

    // No on_yield handling: vTurbo does not address lock-holder
    // preemption or TLB-shootdown waits (Table 1).
}

/// Tuning for the vTRS-style classifier.
#[derive(Clone, Copy, Debug)]
pub struct VtrsConfig {
    /// Profiling period between reclassifications.
    pub period: SimDuration,
    /// Yields+vIRQs per period above which a vCPU is classed
    /// short-slice-preferring.
    pub short_class_threshold: u64,
    /// Size of the short-slice pool.
    pub short_pool_cores: usize,
}

impl Default for VtrsConfig {
    fn default() -> Self {
        VtrsConfig {
            period: SimDuration::from_millis(200),
            short_class_threshold: 50,
            short_pool_cores: 3,
        }
    }
}

/// vTRS: coarse-grained whole-vCPU classification into slice classes.
#[derive(Clone)]
pub struct VtrsPolicy {
    cfg: VtrsConfig,
    /// Per-vCPU urgent-event counts in the current period.
    events: HashMap<VcpuId, u64>,
    /// vCPUs currently classified short-slice.
    short_class: Vec<VcpuId>,
    last_counters: CounterSet,
}

/// Timer id for the reclassification period.
const VTRS_TIMER: u64 = 7;

impl VtrsPolicy {
    /// Creates the policy with the given tuning.
    pub fn new(cfg: VtrsConfig) -> Self {
        VtrsPolicy {
            cfg,
            events: HashMap::new(),
            short_class: Vec::new(),
            last_counters: CounterSet::new(),
        }
    }

    /// vCPUs currently classified as short-slice-preferring.
    pub fn short_class(&self) -> &[VcpuId] {
        &self.short_class
    }
}

impl Default for VtrsPolicy {
    fn default() -> Self {
        Self::new(VtrsConfig::default())
    }
}

impl SchedPolicy for VtrsPolicy {
    fn name(&self) -> &'static str {
        "vtrs"
    }

    fn on_init(&mut self, machine: &mut Machine) {
        machine.set_micro_cores(self.cfg.short_pool_cores);
        machine.set_policy_timer(self.cfg.period, VTRS_TIMER);
        self.last_counters = machine.stats.counters.snapshot();
    }

    fn on_yield(&mut self, _machine: &mut Machine, vcpu: VcpuId, cause: YieldCause) {
        // Profiling input: yields signal a time-slice preference.
        if cause != YieldCause::Halt {
            *self.events.entry(vcpu).or_insert(0) += 1;
        }
    }

    fn on_virq(&mut self, _machine: &mut Machine, _vm: VmId, target: VcpuId) {
        *self.events.entry(target).or_insert(0) += 1;
    }

    fn on_timer(&mut self, machine: &mut Machine, id: u64) {
        if id != VTRS_TIMER {
            return;
        }
        // Reclassify: whole vCPUs, by their event counts this period.
        let mut ranked: Vec<(VcpuId, u64)> = self
            .events
            .drain()
            .filter(|&(_, n)| n >= self.cfg.short_class_threshold)
            .collect();
        ranked.sort_by_key(|&(v, n)| (core::cmp::Reverse(n), v));
        let new_class: Vec<VcpuId> = ranked
            .into_iter()
            .take(self.cfg.short_pool_cores * 2)
            .map(|(v, _)| v)
            .collect();
        // Unpin vCPUs that left the class; pin the new members.
        for &v in &self.short_class {
            if !new_class.contains(&v) {
                machine.set_sticky_micro(v, false);
            }
        }
        for &v in &new_class {
            machine.set_sticky_micro(v, true);
            if machine.vcpu(v).is_preempted() {
                machine.try_accelerate(v);
            }
        }
        self.short_class = new_class;
        machine.set_policy_timer(self.cfg.period, VTRS_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{MachineConfig, PoolId};
    use simcore::time::SimTime;
    use workloads::{scenarios, Workload};

    fn corun(w: Workload, policy: Box<dyn SchedPolicy>) -> Machine {
        let (cfg, _) = scenarios::corun(w);
        let n = cfg.num_pcpus;
        let specs = vec![
            scenarios::vm_with_iters(w, n, None),
            scenarios::vm_with_iters(Workload::Swaptions, n, None),
        ];
        Machine::new(MachineConfig { seed: 77, ..cfg }, specs, policy)
    }

    #[test]
    fn vturbo_reserves_a_static_core_and_accelerates_io() {
        let (cfg, specs) = scenarios::fig9_mixed_pinned(true);
        let mut m = Machine::new(cfg, specs, Box::new(VTurboPolicy::new()));
        assert_eq!(m.micro_cores(), 1);
        m.run_until(SimTime::from_secs(1)).unwrap();
        assert!(
            m.stats.counters.get("micro_migrations") > 100,
            "vTurbo should route I/O through the turbo core"
        );
        let flow = &m.vm(simcore::ids::VmId(0)).kernel.flows[0];
        assert!(flow.jitter_ms() < 1.0, "turbo core should tame jitter");
    }

    #[test]
    fn vturbo_ignores_lock_pathology() {
        let mut m = corun(Workload::Exim, Box::new(VTurboPolicy::new()));
        m.run_until(SimTime::from_millis(800)).unwrap();
        // The pool exists but no lock-driven migrations happen: every
        // migration must have come from vIRQ routing, and exim has none.
        assert_eq!(m.stats.counters.get("micro_migrations"), 0);
    }

    #[test]
    fn vtrs_classifies_busy_vcpus_and_pins_them() {
        let mut m = corun(Workload::Dedup, Box::new(VtrsPolicy::default()));
        m.run_until(SimTime::from_secs(1)).unwrap();
        // Some dedup vCPUs yield constantly and get classified; sticky
        // residents should exist in the micro pool at some point.
        let migrated = m.stats.counters.get("micro_migrations");
        assert!(migrated > 0, "vTRS never classified anything");
        let sticky: usize = m
            .siblings(VmId(0))
            .filter(|&v| m.vcpu(v).sticky_micro)
            .count();
        assert!(sticky > 0, "no sticky short-class residents");
        // Sticky vCPUs actually live in the micro pool when scheduled.
        let in_micro = m
            .siblings(VmId(0))
            .filter(|&v| m.vcpu(v).pool == PoolId::Micro)
            .count();
        assert!(in_micro > 0);
    }
}
