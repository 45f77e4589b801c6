//! Event decoding and the periodic scheduler timers.
//!
//! Staleness discipline: superseded transition plans are never cancelled
//! through the queue — `on_transition` drops them by generation-stamp
//! comparison when they fire. That idiom is what the timing-wheel queue
//! is shaped around: a dead event sits in its wheel bucket untouched
//! (no sift, no lookup) and costs exactly one skip when its slot drains,
//! so replanning a vCPU's stop is O(1) no matter how many stale plans it
//! leaves behind.

use super::{Event, Machine, Stop};
use crate::machine::sched::RequeueMode;
use crate::pool::PoolId;
use crate::stats::YieldCause;
use guest::activity::{Activity, KWork};
use guest::net::ArrivalAction;
use metrics::counters::Counter;
use simcore::ids::VcpuId;

impl Machine {
    /// Dispatches one event.
    pub(crate) fn handle(&mut self, event: Event) {
        match event {
            Event::Transition { vcpu, gen, stop } => self.on_transition(vcpu, gen, stop),
            Event::Tick => self.on_tick(),
            Event::Account => self.on_account(),
            Event::PacketArrival { vm, flow } => self.on_packet(vm, flow),
            Event::PolicyTimer { id } => {
                self.stats.counters.incr(Counter::PolicyTimers);
                self.with_policy(|policy, machine| policy.on_timer(machine, id));
            }
            Event::Kick { vcpu } => self.on_kick(vcpu),
            Event::Preempt { pcpu } => self.do_preempt_check(pcpu),
            Event::TaskWake { vm, task } => self.on_task_wake(vm, task),
            Event::Fault { seq } => self.apply_fault(seq),
        }
    }

    /// A planned stop fires for a running vCPU.
    fn on_transition(&mut self, vcpu: VcpuId, gen: u64, stop: Stop) {
        {
            let vc = self.vcpu(vcpu);
            if !vc.is_running() || vc.gen != gen {
                return; // Stale.
            }
        }
        self.account_progress(vcpu);
        match stop {
            Stop::SliceEnd => {
                // PANIC-OK(stale transitions returned above; the vCPU is still running here)
                let pcpu = self.vcpu(vcpu).pcpu().expect("running");
                let from_micro = self.vcpu(vcpu).pool == PoolId::Micro;
                // Micro-pool slices always evict back to the normal pool
                // (§5 "Other considerations"); normal slices round-robin.
                let mode = if from_micro {
                    RequeueMode::NormalPool
                } else {
                    RequeueMode::SamePcpu
                };
                self.deschedule(vcpu, mode);
                if self.pcpus[pcpu.0 as usize].current.is_none() {
                    self.dispatch(pcpu);
                }
            }
            Stop::Done => {
                // Progress accounting drove the remaining time to zero;
                // the step loop completes the activity and re-plans.
                self.vcpu_mut(vcpu).bump_gen();
                self.step_vcpu(vcpu);
            }
            Stop::Ple => {
                // Pause-loop exit: reset the spin burst and yield.
                if let Activity::SpinWait { spun, .. } = &mut self.vcpu_mut(vcpu).ctx.activity {
                    *spun = simcore::time::SimDuration::ZERO;
                }
                self.do_yield(vcpu, YieldCause::Spinlock);
            }
            Stop::IpiYield => {
                match &mut self.vcpu_mut(vcpu).ctx.activity {
                    Activity::TlbWait { spun, .. } | Activity::ReschedWait { spun, .. } => {
                        *spun = simcore::time::SimDuration::ZERO;
                    }
                    _ => {}
                }
                self.do_yield(vcpu, YieldCause::Ipi);
            }
            Stop::GuestPreempt => {
                self.guest_preempt(vcpu);
                self.vcpu_mut(vcpu).bump_gen();
                self.step_vcpu(vcpu);
            }
        }
    }

    /// Scheduler tick. In sampled mode (Xen credit1's actual behaviour)
    /// the vCPU running at the tick is charged the full tick's credits;
    /// in exact mode the tick only settles running vCPUs' accounts.
    fn on_tick(&mut self) {
        let debit = self.cfg.credits_per_tick;
        let floor = -self.cfg.credit_cap;
        let sampled = self.cfg.credit_sampled_ticks;
        for p in 0..self.pcpus.len() {
            if let Some(vcpu) = self.pcpus[p].current {
                self.account_progress(vcpu);
                if sampled {
                    let vc = self.vcpu_mut(vcpu);
                    vc.credits = (vc.credits - debit).max(floor);
                }
            }
        }
        // A pending timer-coalescing fault delays exactly one tick; the
        // cadence recovers on the next one (see `FaultKind::TimerJitter`).
        let jitter = core::mem::take(&mut self.faults.tick_jitter);
        let next = self.now + self.cfg.tick + jitter;
        self.push_event(next, Event::Tick);
        if self.cfg.paranoid {
            self.stats.counters.incr(Counter::InvariantChecks);
            if let Err(e) = self.check_invariants() {
                self.fail(e);
            }
        }
    }

    /// Credit refill: the pool of credits a full period provides is split
    /// equally among all vCPUs (equal VM weights, as in the paper).
    fn on_account(&mut self) {
        let ticks_per_period =
            (self.cfg.account_period.as_nanos() / self.cfg.tick.as_nanos()).max(1) as i64;
        let total = self.cfg.num_pcpus as i64 * self.cfg.credits_per_tick * ticks_per_period;
        let num_vcpus: usize = self.vcpus.iter().map(|v| v.len()).sum();
        let share = total / num_vcpus.max(1) as i64;
        let cap = self.cfg.credit_cap;
        for vm in &mut self.vcpus {
            for vc in vm {
                vc.credits = (vc.credits + share).min(cap);
            }
        }
        let next = self.now + self.cfg.account_period;
        self.push_event(next, Event::Account);
    }

    /// A packet reaches the host NIC: run the flow state machine, the
    /// policy hook, and deliver the virtual IRQ if one is due.
    fn on_packet(&mut self, vm: simcore::ids::VmId, flow: u32) {
        let vmi = vm.0 as usize;
        let fi = flow as usize;
        if self.vms[vmi].finished_at.is_some() {
            return; // The receiver workload is done; drop the stream.
        }
        let now = self.now;
        let (action, next) = self.vms[vmi].kernel.flows[fi].on_arrival(now);
        if let Some(t) = next {
            self.push_event(t, Event::PacketArrival { vm, flow });
        }
        match action {
            ArrivalAction::Dropped => {}
            ArrivalAction::Coalesced => {
                // The guest-visible vIRQ is still pending, but the host
                // saw a physical IRQ for this VM: the policy hook fires
                // exactly as the paper's prototype hooks Xen's relay
                // path (§4.1 "Detecting from IRQ events").
                self.stats.counters.incr(Counter::Virqs);
                let target = VcpuId::new(vm, self.vms[vmi].kernel.flows[fi].cfg.virq_vcpu);
                self.with_policy(|policy, machine| policy.on_virq(machine, vm, target));
            }
            ArrivalAction::DeliverVirq => {
                self.stats.counters.incr(Counter::Virqs);
                let target = VcpuId::new(vm, self.vms[vmi].kernel.flows[fi].cfg.virq_vcpu);
                self.with_policy(|policy, machine| policy.on_virq(machine, vm, target));
                self.deliver_kwork(
                    target,
                    KWork::Virq {
                        pkt_seq: 0,
                        flow,
                        arrived: now,
                    },
                );
            }
        }
    }

    /// A sleeping task's timer expires: mark it ready and wake its vCPU.
    fn on_task_wake(&mut self, vm: simcore::ids::VmId, task: u32) {
        let vmi = vm.0 as usize;
        let t = &mut self.vms[vmi].tasks[task as usize];
        if t.state != guest::task::TaskState::Blocked {
            return; // Woken early by a sibling; the timer is stale.
        }
        t.state = guest::task::TaskState::Ready;
        let home = t.home_vcpu;
        self.vcpus[vmi][home as usize].ctx.runq.push_back(task);
        let hid = VcpuId::new(vm, home);
        if self.vcpu(hid).is_blocked() {
            self.wake_vcpu(hid);
        }
    }

    /// An IPI (or lock handoff) kick: re-plan a running vCPU immediately.
    fn on_kick(&mut self, vcpu: VcpuId) {
        if !self.vcpu(vcpu).is_running() {
            return; // It will notice at its next dispatch.
        }
        self.account_progress(vcpu);
        self.vcpu_mut(vcpu).bump_gen();
        self.step_vcpu(vcpu);
    }
}
