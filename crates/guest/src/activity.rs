//! What a vCPU is executing right now — and therefore what its
//! instruction pointer reports to the hypervisor.
//!
//! The hypervisor's only window into the guest (§4.1) is the preempted
//! vCPU's instruction pointer. [`Activity`] models the current execution
//! context of a vCPU, [`KWork`] models interrupt work injected into it
//! (flush IPIs, reschedule IPIs, virtual IRQs), and [`VcpuCtx`] combines
//! them with the guest-level run queue and the interrupt stack. The
//! [`VcpuCtx::ip`] method is the bridge: it maps the execution context to a
//! synthetic kernel address that resolves through the `ksym` crate exactly
//! like a real `System.map` lookup.

use crate::tlb::ShootdownId;
use ksym::linux44::USER_IP;
use ksym::{sym, Sym};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Interrupt work injected into a vCPU by the hypervisor or by siblings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KWork {
    /// A TLB-shootdown flush request from a sibling (one-to-many IPI).
    TlbFlush {
        /// The shootdown this flush acknowledges on completion.
        sd: ShootdownId,
    },
    /// A reschedule IPI: a sibling woke a task homed on this vCPU.
    ReschedIpi {
        /// The sender vCPU index (to deliver the acknowledgement back).
        waker: u16,
        /// Matches the sender's [`Activity::ReschedWait`] token.
        token: u64,
    },
    /// A virtual IRQ carrying a network packet (the I/O path of §3.2).
    Virq {
        /// Packet sequence number within its flow.
        pkt_seq: u64,
        /// Flow index within the VM.
        flow: u32,
        /// When the physical IRQ fired (for latency/jitter accounting).
        arrived: SimTime,
    },
}

/// The execution context of a vCPU at an instant.
///
/// Timed variants carry `rem`, the CPU time still needed; the hypervisor
/// decrements it as the vCPU runs and preserves it across preemptions —
/// that preserved remainder *is* the virtual time discontinuity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Activity {
    /// Nothing runnable: the guest idle loop (will HLT, blocking the vCPU).
    Idle,
    /// User-mode computation.
    User {
        /// Running task index.
        task: u32,
        /// Remaining CPU time.
        rem: SimDuration,
    },
    /// Kernel-mode computation outside critical sections.
    Kernel {
        /// Running task index.
        task: u32,
        /// Kernel function being executed.
        sym: Sym,
        /// Remaining CPU time.
        rem: SimDuration,
    },
    /// Inside a spinlock-protected critical section.
    CriticalHold {
        /// Running task index.
        task: u32,
        /// Held lock (index into the VM's lock table).
        lock: u16,
        /// Critical-section body function (whitelisted).
        sym: Sym,
        /// Remaining hold time.
        rem: SimDuration,
    },
    /// Spinning to acquire a held lock (the PLE yield site).
    SpinWait {
        /// Spinning task index.
        task: u32,
        /// Lock being acquired.
        lock: u16,
        /// Critical-section function to execute once acquired.
        sym: Sym,
        /// Hold time once acquired.
        hold: SimDuration,
        /// Spin time accumulated in the current scheduling (for PLE).
        spun: SimDuration,
        /// When the acquisition attempt began (Table 4a wait time).
        wait_start: SimTime,
    },
    /// Performing the local part of a TLB flush before IPI-ing siblings
    /// (`flush_tlb_mm_range`): completion initiates the shootdown.
    TlbLocal {
        /// Initiating task index.
        task: u32,
        /// Remaining local flush work.
        rem: SimDuration,
    },
    /// Waiting for TLB-shootdown acknowledgements from siblings
    /// (`smp_call_function_many`; §3.1).
    TlbWait {
        /// Initiating task index.
        task: u32,
        /// The in-flight shootdown.
        sd: ShootdownId,
        /// Spin time accumulated before the next voluntary yield.
        spun: SimDuration,
    },
    /// Waiting for a reschedule-IPI acknowledgement (`kick_process`).
    ReschedWait {
        /// Waking task index.
        task: u32,
        /// Target vCPU index.
        target: u16,
        /// Token matching the delivered [`KWork::ReschedIpi`].
        token: u64,
        /// Spin time accumulated before the next voluntary yield.
        spun: SimDuration,
    },
    /// Executing injected interrupt work.
    KWorkRun {
        /// The work being handled.
        work: KWork,
        /// Remaining handler time.
        rem: SimDuration,
    },
}

impl Activity {
    /// The task index this activity belongs to, if any.
    pub fn task(&self) -> Option<u32> {
        match self {
            Activity::User { task, .. }
            | Activity::Kernel { task, .. }
            | Activity::CriticalHold { task, .. }
            | Activity::SpinWait { task, .. }
            | Activity::TlbLocal { task, .. }
            | Activity::TlbWait { task, .. }
            | Activity::ReschedWait { task, .. } => Some(*task),
            Activity::Idle | Activity::KWorkRun { .. } => None,
        }
    }

    /// The kernel function the instruction pointer falls in.
    ///
    /// Returns `None` for user-mode execution (the IP is outside kernel
    /// text and resolves to no symbol).
    pub fn sym(&self) -> Option<Sym> {
        match self {
            Activity::Idle => Some(sym!("default_idle")),
            Activity::User { .. } => None,
            Activity::Kernel { sym, .. } => Some(*sym),
            Activity::TlbLocal { .. } => Some(sym!("flush_tlb_mm_range")),
            Activity::CriticalHold { sym, .. } => Some(*sym),
            // Linux 4.4 uses the queued-spinlock slowpath while contended.
            Activity::SpinWait { .. } => Some(sym!("native_queued_spin_lock_slowpath")),
            Activity::TlbWait { .. } => Some(sym!("smp_call_function_many")),
            Activity::ReschedWait { .. } => Some(sym!("kick_process")),
            Activity::KWorkRun { work, .. } => Some(match work {
                KWork::TlbFlush { .. } => sym!("flush_tlb_func"),
                KWork::ReschedIpi { .. } => sym!("scheduler_ipi"),
                KWork::Virq { .. } => sym!("net_rx_action"),
            }),
        }
    }

    /// Remaining CPU time, for timed activities.
    pub fn rem(&self) -> Option<SimDuration> {
        match self {
            Activity::User { rem, .. }
            | Activity::Kernel { rem, .. }
            | Activity::CriticalHold { rem, .. }
            | Activity::TlbLocal { rem, .. }
            | Activity::KWorkRun { rem, .. } => Some(*rem),
            _ => None,
        }
    }

    /// Decrements the remaining time of a timed activity by `elapsed`
    /// (saturating), or accumulates spin time for spinning activities.
    pub fn advance(&mut self, elapsed: SimDuration) {
        match self {
            Activity::User { rem, .. }
            | Activity::Kernel { rem, .. }
            | Activity::CriticalHold { rem, .. }
            | Activity::TlbLocal { rem, .. }
            | Activity::KWorkRun { rem, .. } => *rem = rem.saturating_sub(elapsed),
            Activity::SpinWait { spun, .. }
            | Activity::TlbWait { spun, .. }
            | Activity::ReschedWait { spun, .. } => *spun += elapsed,
            Activity::Idle => {}
        }
    }

    /// Adds `extra` to the remaining time of a timed activity — the
    /// guest-visible effect of host-level stolen time (the work did not
    /// progress while the host ran someone else). No-op for spinning and
    /// idle states, whose cost is wall-clock, not CPU work.
    pub fn inflate(&mut self, extra: SimDuration) {
        match self {
            Activity::User { rem, .. }
            | Activity::Kernel { rem, .. }
            | Activity::CriticalHold { rem, .. }
            | Activity::TlbLocal { rem, .. }
            | Activity::KWorkRun { rem, .. } => *rem += extra,
            Activity::SpinWait { .. }
            | Activity::TlbWait { .. }
            | Activity::ReschedWait { .. }
            | Activity::Idle => {}
        }
    }
}

/// The guest-side context of one vCPU.
#[derive(Clone, Debug)]
pub struct VcpuCtx {
    /// This vCPU's index within its VM.
    pub idx: u16,
    /// What the vCPU is executing now.
    pub activity: Activity,
    /// Activities suspended by interrupt work, innermost last.
    pub interrupted: Vec<Activity>,
    /// Interrupt work delivered but not yet started.
    pub pending: VecDeque<KWork>,
    /// Guest run queue: ready tasks homed here (indices into the VM task
    /// table), excluding the one currently bound to `activity`.
    pub runq: VecDeque<u32>,
    /// When the currently bound task last started running on this vCPU
    /// (guest-level time slicing for multi-task vCPUs).
    pub task_started: SimTime,
    /// Monotonic token source for reschedule-IPI acknowledgements.
    pub next_token: u64,
    /// Highest reschedule-IPI token acknowledged back to this vCPU.
    ///
    /// Tokens are allocated monotonically and at most one wait is
    /// outstanding, so "token ≤ acked" means "my wait is over" even when
    /// the acknowledgement lands while this vCPU is inside an interrupt
    /// handler and its `ReschedWait` sits on the interrupted stack.
    pub acked_resched: u64,
}

impl VcpuCtx {
    /// Creates an idle context.
    pub fn new(idx: u16) -> Self {
        VcpuCtx {
            idx,
            activity: Activity::Idle,
            interrupted: Vec::new(),
            pending: VecDeque::new(),
            runq: VecDeque::new(),
            task_started: SimTime::ZERO,
            next_token: 0,
            acked_resched: 0,
        }
    }

    /// The instruction pointer the hypervisor would read from this vCPU.
    pub fn ip(&self) -> u64 {
        self.activity.sym().map_or(USER_IP, Sym::ip)
    }

    /// True if the guest has nothing to do on this vCPU (would HLT).
    pub fn is_idle(&self) -> bool {
        matches!(self.activity, Activity::Idle) && self.pending.is_empty() && self.runq.is_empty()
    }

    /// Queues interrupt work for this vCPU.
    pub fn push_kwork(&mut self, work: KWork) {
        self.pending.push_back(work);
    }

    /// Starts the next pending interrupt work, suspending the current
    /// activity. Returns the work started, or `None` if none is pending.
    ///
    /// `handler_cost` is the CPU time the handler will consume.
    pub fn begin_kwork(&mut self, handler_cost: SimDuration) -> Option<KWork> {
        let work = self.pending.pop_front()?;
        let prev = core::mem::replace(
            &mut self.activity,
            Activity::KWorkRun {
                work,
                rem: handler_cost,
            },
        );
        if prev != Activity::Idle {
            self.interrupted.push(prev);
        }
        Some(work)
    }

    /// Finishes the current interrupt work, resuming the suspended
    /// activity (or going idle). Returns the completed work.
    ///
    /// # Panics
    ///
    /// Panics if the current activity is not [`Activity::KWorkRun`].
    pub fn end_kwork(&mut self) -> KWork {
        let resumed = self.interrupted.pop().unwrap_or(Activity::Idle);
        match core::mem::replace(&mut self.activity, resumed) {
            Activity::KWorkRun { work, .. } => work,
            other => panic!("end_kwork while executing {other:?}"),
        }
    }

    /// Allocates a fresh reschedule-IPI acknowledgement token.
    pub fn alloc_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksym::whitelist::{CriticalClass, Whitelist};

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn activity_sym_classification_matches_whitelist() {
        let wl = Whitelist::linux44();
        let cases: Vec<(Activity, CriticalClass)> = vec![
            (Activity::Idle, CriticalClass::NotCritical),
            (
                Activity::User {
                    task: 0,
                    rem: us(1),
                },
                CriticalClass::NotCritical,
            ),
            (
                Activity::Kernel {
                    task: 0,
                    sym: sym!("sys_read"),
                    rem: us(1),
                },
                CriticalClass::NotCritical,
            ),
            (
                Activity::CriticalHold {
                    task: 0,
                    lock: 0,
                    sym: sym!("get_page_from_freelist"),
                    rem: us(1),
                },
                CriticalClass::SpinlockCritical,
            ),
            (
                Activity::SpinWait {
                    task: 0,
                    lock: 0,
                    sym: sym!("get_page_from_freelist"),
                    hold: us(1),
                    spun: SimDuration::ZERO,
                    wait_start: SimTime::ZERO,
                },
                CriticalClass::SpinWait,
            ),
            (
                Activity::TlbWait {
                    task: 0,
                    sd: ShootdownId(0),
                    spun: SimDuration::ZERO,
                },
                CriticalClass::IpiWait,
            ),
            (
                Activity::ReschedWait {
                    task: 0,
                    target: 1,
                    token: 1,
                    spun: SimDuration::ZERO,
                },
                CriticalClass::SchedWakeup,
            ),
            (
                Activity::KWorkRun {
                    work: KWork::TlbFlush { sd: ShootdownId(0) },
                    rem: us(1),
                },
                CriticalClass::TlbHandler,
            ),
            (
                Activity::KWorkRun {
                    work: KWork::Virq {
                        pkt_seq: 0,
                        flow: 0,
                        arrived: SimTime::ZERO,
                    },
                    rem: us(1),
                },
                CriticalClass::Irq,
            ),
        ];
        for (activity, class) in cases {
            let mut ctx = VcpuCtx::new(0);
            ctx.activity = activity.clone();
            assert_eq!(
                wl.classify(ksym::LINUX44.table(), ctx.ip()),
                class,
                "activity {activity:?}"
            );
        }
    }

    #[test]
    fn advance_decrements_timed_and_accrues_spin() {
        let mut a = Activity::User {
            task: 0,
            rem: us(10),
        };
        a.advance(us(4));
        assert_eq!(a.rem(), Some(us(6)));
        a.advance(us(100));
        assert_eq!(a.rem(), Some(SimDuration::ZERO));

        let mut s = Activity::SpinWait {
            task: 0,
            lock: 0,
            sym: sym!("free_one_page"),
            hold: us(1),
            spun: SimDuration::ZERO,
            wait_start: SimTime::ZERO,
        };
        s.advance(us(7));
        match s {
            Activity::SpinWait { spun, .. } => assert_eq!(spun, us(7)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn inflate_extends_timed_only() {
        let mut a = Activity::Kernel {
            task: 0,
            sym: sym!("sys_read"),
            rem: us(10),
        };
        a.inflate(us(5));
        assert_eq!(a.rem(), Some(us(15)));

        let mut s = Activity::TlbWait {
            task: 0,
            sd: ShootdownId(0),
            spun: us(2),
        };
        s.inflate(us(5));
        match s {
            Activity::TlbWait { spun, .. } => assert_eq!(spun, us(2)),
            _ => unreachable!(),
        }
        let mut i = Activity::Idle;
        i.inflate(us(5));
        assert_eq!(i, Activity::Idle);
    }

    #[test]
    fn kwork_interrupt_stack() {
        let mut ctx = VcpuCtx::new(2);
        ctx.activity = Activity::User {
            task: 5,
            rem: us(10),
        };
        ctx.push_kwork(KWork::TlbFlush { sd: ShootdownId(9) });
        ctx.push_kwork(KWork::Virq {
            pkt_seq: 1,
            flow: 0,
            arrived: SimTime::ZERO,
        });

        let w = ctx.begin_kwork(us(3)).unwrap();
        assert_eq!(w, KWork::TlbFlush { sd: ShootdownId(9) });
        assert_eq!(ctx.interrupted.len(), 1);
        assert!(matches!(ctx.activity, Activity::KWorkRun { .. }));

        // Nested interrupt.
        let w2 = ctx.begin_kwork(us(2)).unwrap();
        assert!(matches!(w2, KWork::Virq { .. }));
        assert_eq!(ctx.interrupted.len(), 2);

        assert!(matches!(ctx.end_kwork(), KWork::Virq { .. }));
        assert!(matches!(ctx.end_kwork(), KWork::TlbFlush { .. }));
        assert_eq!(
            ctx.activity,
            Activity::User {
                task: 5,
                rem: us(10)
            }
        );
        assert!(ctx.interrupted.is_empty());
        assert!(ctx.begin_kwork(us(1)).is_none());
    }

    #[test]
    fn idle_is_not_stacked() {
        let mut ctx = VcpuCtx::new(0);
        ctx.push_kwork(KWork::TlbFlush { sd: ShootdownId(1) });
        ctx.begin_kwork(us(1)).unwrap();
        assert!(ctx.interrupted.is_empty());
        ctx.end_kwork();
        assert_eq!(ctx.activity, Activity::Idle);
    }

    #[test]
    #[should_panic(expected = "end_kwork")]
    fn end_kwork_outside_handler_panics() {
        let mut ctx = VcpuCtx::new(0);
        ctx.end_kwork();
    }

    #[test]
    fn idle_detection() {
        let mut ctx = VcpuCtx::new(0);
        assert!(ctx.is_idle());
        ctx.runq.push_back(3);
        assert!(!ctx.is_idle());
        ctx.runq.clear();
        ctx.push_kwork(KWork::TlbFlush { sd: ShootdownId(0) });
        assert!(!ctx.is_idle());
    }

    #[test]
    fn tokens_are_unique() {
        let mut ctx = VcpuCtx::new(0);
        let a = ctx.alloc_token();
        let b = ctx.alloc_token();
        assert_ne!(a, b);
    }
}
