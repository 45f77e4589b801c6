//! Hypervisor-side vCPU state.

use crate::pool::PoolId;
use guest::activity::VcpuCtx;
use simcore::ids::{PcpuId, VcpuId};
use simcore::time::SimTime;

/// Scheduler state of a vCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VState {
    /// Executing on a pCPU since the given time.
    Running {
        /// The pCPU it occupies.
        pcpu: PcpuId,
        /// Dispatch time (start of the current scheduling).
        since: SimTime,
    },
    /// Waiting on a pCPU's run queue.
    Runnable {
        /// The pCPU whose queue holds it.
        pcpu: PcpuId,
    },
    /// Blocked (guest HLT or waiting for an event).
    Blocked,
}

/// Credit-scheduler priority, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prio {
    /// Temporarily boosted after a wakeup (Xen BOOST).
    Boost,
    /// Has credits left.
    Under,
    /// Out of credits.
    Over,
}

impl Prio {
    /// Numeric rank, 0 = highest.
    pub fn rank(self) -> u8 {
        match self {
            Prio::Boost => 0,
            Prio::Under => 1,
            Prio::Over => 2,
        }
    }
}

/// A virtual CPU as the hypervisor sees it.
#[derive(Clone, Debug)]
pub struct Vcpu {
    /// Identity.
    pub id: VcpuId,
    /// Scheduler state.
    pub state: VState,
    /// Which pool this vCPU is currently scheduled in.
    pub pool: PoolId,
    /// Remaining credits.
    pub credits: i64,
    /// Whether this vCPU currently holds BOOST priority.
    pub boosted: bool,
    /// Generation counter guarding stale transition events.
    pub gen: u64,
    /// Guest-side execution context.
    pub ctx: VcpuCtx,
    /// Last pCPU this vCPU ran on (placement affinity hint).
    pub last_pcpu: PcpuId,
    /// Hard affinity within the normal pool, if pinned.
    pub affinity: Option<Vec<PcpuId>>,
    /// Time of the last progress accounting while running.
    pub last_update: SimTime,
    /// Nanoseconds of runtime not yet converted into a credit debit.
    pub burn_acc: u64,
    /// Set by the policy while the vCPU is running: at the next
    /// deschedule, requeue it into the micro pool instead of the normal
    /// pool (the §4.1 migration of a *yielding* vCPU).
    pub micro_requested: bool,
    /// Keep this vCPU in the micro pool across deschedules instead of
    /// evicting it after one slice. Never set by the paper's policy — it
    /// exists for coarse-grained comparators (vTRS-style whole-vCPU
    /// classification) and ablations.
    pub sticky_micro: bool,
}

impl Vcpu {
    /// Creates a blocked vCPU with full credits.
    pub fn new(id: VcpuId, credits: i64) -> Self {
        Vcpu {
            id,
            state: VState::Blocked,
            pool: PoolId::Normal,
            credits,
            boosted: false,
            gen: 0,
            ctx: VcpuCtx::new(id.idx),
            last_pcpu: PcpuId(0),
            affinity: None,
            last_update: SimTime::ZERO,
            burn_acc: 0,
            micro_requested: false,
            sticky_micro: false,
        }
    }

    /// Effective scheduling priority.
    pub fn prio(&self) -> Prio {
        if self.boosted {
            Prio::Boost
        } else if self.credits > 0 {
            Prio::Under
        } else {
            Prio::Over
        }
    }

    /// True if currently executing.
    pub fn is_running(&self) -> bool {
        matches!(self.state, VState::Running { .. })
    }

    /// True if queued but not executing — the "preempted" state the paper's
    /// detection logic looks for in sibling vCPUs (§4.2).
    pub fn is_preempted(&self) -> bool {
        matches!(self.state, VState::Runnable { .. })
    }

    /// True if blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self.state, VState::Blocked)
    }

    /// The pCPU this vCPU occupies or queues on, if any.
    pub fn pcpu(&self) -> Option<PcpuId> {
        match self.state {
            VState::Running { pcpu, .. } | VState::Runnable { pcpu } => Some(pcpu),
            VState::Blocked => None,
        }
    }

    /// Whether affinity permits running on `pcpu`.
    pub fn allows(&self, pcpu: PcpuId) -> bool {
        match &self.affinity {
            Some(set) => set.contains(&pcpu),
            None => true,
        }
    }

    /// Invalidates any scheduled transition event for this vCPU.
    pub fn bump_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ids::VmId;

    fn v() -> Vcpu {
        Vcpu::new(VcpuId::new(VmId(0), 1), 150)
    }

    #[test]
    fn prio_from_credits_and_boost() {
        let mut vc = v();
        assert_eq!(vc.prio(), Prio::Under);
        vc.credits = 0;
        assert_eq!(vc.prio(), Prio::Over);
        vc.credits = -50;
        assert_eq!(vc.prio(), Prio::Over);
        vc.boosted = true;
        assert_eq!(vc.prio(), Prio::Boost);
        assert!(Prio::Boost < Prio::Under);
        assert!(Prio::Under < Prio::Over);
        assert_eq!(Prio::Boost.rank(), 0);
        assert_eq!(Prio::Over.rank(), 2);
    }

    #[test]
    fn state_predicates() {
        let mut vc = v();
        assert!(vc.is_blocked());
        assert_eq!(vc.pcpu(), None);
        vc.state = VState::Runnable { pcpu: PcpuId(3) };
        assert!(vc.is_preempted());
        assert_eq!(vc.pcpu(), Some(PcpuId(3)));
        vc.state = VState::Running {
            pcpu: PcpuId(3),
            since: SimTime::ZERO,
        };
        assert!(vc.is_running());
        assert!(!vc.is_preempted());
    }

    #[test]
    fn affinity_checks() {
        let mut vc = v();
        assert!(vc.allows(PcpuId(7)));
        vc.affinity = Some(vec![PcpuId(0), PcpuId(1)]);
        assert!(vc.allows(PcpuId(0)));
        assert!(!vc.allows(PcpuId(7)));
    }

    #[test]
    fn gen_bumps_monotonically() {
        let mut vc = v();
        let a = vc.bump_gen();
        let b = vc.bump_gen();
        assert!(b > a);
    }
}
