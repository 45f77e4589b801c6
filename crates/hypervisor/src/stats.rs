//! Machine-wide and per-VM statistics.
//!
//! The decomposition of yields by cause drives Table 2 and Figure 7; the
//! global counters (IPIs, PLEs, vIRQs) feed the adaptive controller of
//! §4.3; CPU-time accounting supports the utilization analysis of §6.

use metrics::counters::{Counter, CounterSet};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use std::collections::BTreeMap;

/// Why a vCPU yielded its pCPU — the Figure 7 categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YieldCause {
    /// Pause-loop exit while spinning on a lock ("spinlock").
    Spinlock,
    /// Voluntary yield while waiting for IPI acknowledgements ("ipi").
    Ipi,
    /// Guest went idle and halted ("halt").
    Halt,
    /// Anything else ("others").
    Other,
}

/// Per-VM yield counts by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct YieldBreakdown {
    /// PLE-induced yields.
    pub spinlock: u64,
    /// IPI-wait yields.
    pub ipi: u64,
    /// Halt yields.
    pub halt: u64,
    /// Other yields.
    pub other: u64,
}

impl YieldBreakdown {
    /// Total yields.
    pub fn total(&self) -> u64 {
        self.spinlock + self.ipi + self.halt + self.other
    }

    /// The yields recorded since `earlier`, an earlier breakdown of the
    /// same VM.
    pub fn since(&self, earlier: &YieldBreakdown) -> YieldBreakdown {
        YieldBreakdown {
            spinlock: self.spinlock - earlier.spinlock,
            ipi: self.ipi - earlier.ipi,
            halt: self.halt - earlier.halt,
            other: self.other - earlier.other,
        }
    }

    /// Records one yield.
    pub fn record(&mut self, cause: YieldCause) {
        match cause {
            YieldCause::Spinlock => self.spinlock += 1,
            YieldCause::Ipi => self.ipi += 1,
            YieldCause::Halt => self.halt += 1,
            YieldCause::Other => self.other += 1,
        }
    }
}

/// Per-VM statistics.
#[derive(Clone, Debug, Default)]
pub struct VmStats {
    /// Yield decomposition.
    pub yields: YieldBreakdown,
    /// Total CPU time consumed by this VM's vCPUs.
    pub cpu_time: SimDuration,
}

/// Statistics for the whole machine.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Global event counters, keyed by [`Counter`]: its variants document
    /// each key, and [`Counter::ALL`] lists them in rendering order.
    ///
    /// The robustness keys (`faults_*`, `fault_*`, `invariant_checks`,
    /// `sim_errors`) stay absent unless their feature is engaged, so the
    /// default counter fingerprint is unchanged by those features.
    pub counters: CounterSet,
    /// Per-VM statistics, indexed by VM id.
    pub per_vm: Vec<VmStats>,
    /// Census of kernel functions observed at yield time (instruction
    /// pointer resolved through the symbol table) — the data behind the
    /// paper's Table 3 analysis. User-mode yields record as `"user"`.
    pub yield_sites: BTreeMap<&'static str, u64>,
}

impl MachineStats {
    /// Creates statistics for `num_vms` VMs.
    pub fn new(num_vms: usize) -> Self {
        MachineStats {
            counters: CounterSet::new(),
            per_vm: vec![VmStats::default(); num_vms],
            yield_sites: BTreeMap::new(),
        }
    }

    /// Records a yield for a VM.
    pub fn record_yield(&mut self, vm: VmId, cause: YieldCause) {
        self.per_vm[vm.0 as usize].yields.record(cause);
        match cause {
            YieldCause::Spinlock => self.counters.incr(Counter::PleExits),
            YieldCause::Ipi => self.counters.incr(Counter::IpiYields),
            YieldCause::Halt => self.counters.incr(Counter::HaltYields),
            YieldCause::Other => self.counters.incr(Counter::OtherYields),
        }
    }

    /// Per-VM stats accessor.
    pub fn vm(&self, vm: VmId) -> &VmStats {
        &self.per_vm[vm.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_totals() {
        let mut b = YieldBreakdown::default();
        b.record(YieldCause::Spinlock);
        b.record(YieldCause::Spinlock);
        b.record(YieldCause::Ipi);
        b.record(YieldCause::Halt);
        b.record(YieldCause::Other);
        assert_eq!(b.spinlock, 2);
        assert_eq!(b.total(), 5);
    }

    #[test]
    fn machine_stats_split_by_vm() {
        let mut s = MachineStats::new(2);
        s.record_yield(VmId(0), YieldCause::Ipi);
        s.record_yield(VmId(1), YieldCause::Spinlock);
        s.record_yield(VmId(1), YieldCause::Spinlock);
        assert_eq!(s.vm(VmId(0)).yields.ipi, 1);
        assert_eq!(s.vm(VmId(1)).yields.spinlock, 2);
        assert_eq!(s.counters.get("ple_exits"), 2);
        assert_eq!(s.counters.get("ipi_yields"), 1);
    }
}
