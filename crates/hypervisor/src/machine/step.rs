//! The per-vCPU execution state machine.
//!
//! `step_vcpu` is called whenever a running vCPU needs (re-)planning: right
//! after dispatch, after a transition event, or after an IPI kick. It
//! performs all zero-time actions (starting segments, acquiring free
//! locks, initiating shootdowns, taking interrupts) and finally schedules
//! exactly one transition event — or yields the pCPU.
//!
//! Every stop planned here is a short-horizon timer (slice remainders,
//! segment ends, IPI acks — the 0.1–30 ms classes the paper micro-slices
//! around), which is precisely the range the event queue's timing wheel
//! serves with O(1) bucket pushes. Of what this file pushes, only the
//! wakeup of a `Sleep` segment longer than the wheel's ~67 ms horizon
//! spills to its overflow heap, next to the long timers pushed elsewhere
//! (policy timers such as Algorithm 1's 1-s epoch, fault-plan entries).

use super::{Event, Machine, Stop};
use crate::error::SimError;
use crate::stats::YieldCause;
use guest::activity::{Activity, KWork};
use guest::task::TaskState;
use guest::tlb::VcpuSet;
use ksym::sym;
use metrics::counters::Counter;
use simcore::ids::VcpuId;
use simcore::time::SimDuration;

/// Upper bound on zero-time actions per step; exceeding it means a
/// workload program never emits timed work.
const STEP_GUARD: usize = 100_000;

impl Machine {
    /// Runs the zero-time action loop for a running vCPU and plans its
    /// next stop.
    pub(crate) fn step_vcpu(&mut self, vcpu: VcpuId) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        debug_assert!(self.vcpu(vcpu).is_running(), "step of non-running {vcpu}");

        for _guard in 0..STEP_GUARD {
            // Take pending interrupt work first (IRQs beat everything),
            // unless already inside a handler (interrupts stay disabled).
            let in_handler = matches!(self.vcpus[vmi][vi].ctx.activity, Activity::KWorkRun { .. });
            if !in_handler && !self.vcpus[vmi][vi].ctx.pending.is_empty() {
                let work = *self.vcpus[vmi][vi]
                    .ctx
                    .pending
                    .front()
                    .expect("checked non-empty"); // PANIC-OK(guarded by the `is_empty` check above)
                let cost = self.kwork_cost(vcpu, work);
                self.vcpus[vmi][vi].ctx.begin_kwork(cost);
                continue;
            }

            match self.vcpus[vmi][vi].ctx.activity.clone() {
                Activity::Idle => {
                    if let Some(task) = self.vcpus[vmi][vi].ctx.runq.pop_front() {
                        self.bind_task(vcpu, task);
                        continue;
                    }
                    // Nothing runnable: HLT.
                    self.do_yield(vcpu, YieldCause::Halt);
                    return;
                }
                Activity::User { task, rem }
                | Activity::Kernel { task, rem, .. }
                | Activity::CriticalHold { task, rem, .. }
                | Activity::TlbLocal { task, rem } => {
                    if rem.is_zero() {
                        self.complete_activity(vcpu);
                        continue;
                    }
                    let start = self.vcpus[vmi][vi].last_update.max(self.now);
                    // Guest-level preemption applies to user execution on
                    // multi-task vCPUs only (kernel paths do not preempt).
                    let is_user = matches!(self.vcpus[vmi][vi].ctx.activity, Activity::User { .. });
                    if is_user && !self.vcpus[vmi][vi].ctx.runq.is_empty() {
                        let preempt_at =
                            self.vcpus[vmi][vi].ctx.task_started + self.cfg.guest_slice;
                        if preempt_at < start + rem {
                            self.plan_stop(vcpu, preempt_at, Stop::GuestPreempt);
                            return;
                        }
                    }
                    let _ = task;
                    self.plan_stop(vcpu, start + rem, Stop::Done);
                    return;
                }
                Activity::KWorkRun { rem, .. } => {
                    if rem.is_zero() {
                        self.complete_activity(vcpu);
                        continue;
                    }
                    let start = self.vcpus[vmi][vi].last_update.max(self.now);
                    self.plan_stop(vcpu, start + rem, Stop::Done);
                    return;
                }
                Activity::SpinWait {
                    task,
                    lock,
                    sym,
                    hold,
                    spun,
                    wait_start,
                } => {
                    let acquired = self.vms[vmi].kernel.locks[lock as usize].try_acquire(vcpu);
                    if acquired {
                        let waited = self.now.saturating_since(wait_start);
                        self.vms[vmi].kernel.record_lock_wait(lock, waited);
                        self.vcpus[vmi][vi].ctx.activity = Activity::CriticalHold {
                            task,
                            lock,
                            sym,
                            rem: hold,
                        };
                        continue;
                    }
                    let start = self.vcpus[vmi][vi].last_update.max(self.now);
                    if self.cfg.ple_enabled {
                        let left = self.cfg.ple_window.saturating_sub(spun);
                        self.plan_stop(vcpu, start + left, Stop::Ple);
                    } else {
                        // Spin until the slice ends.
                        self.plan_stop(vcpu, simcore::time::SimTime::MAX, Stop::Done);
                    }
                    return;
                }
                Activity::TlbWait { task, sd, .. } => {
                    if self.vms[vmi].kernel.shootdowns.is_complete(sd) {
                        // Possible only for shootdowns completing between
                        // the last ack and this step; the ack path usually
                        // resumes us directly.
                        let started = self.vms[vmi].kernel.shootdowns.finish(sd);
                        let latency = self.now.saturating_since(started);
                        self.vms[vmi].kernel.tlb_latency.record(latency);
                        self.advance_task(vcpu, task);
                        continue;
                    }
                    let start = self.vcpus[vmi][vi].last_update.max(self.now);
                    self.plan_stop(vcpu, start + self.cfg.ipi_spin_budget, Stop::IpiYield);
                    return;
                }
                Activity::ReschedWait { task, token, .. } => {
                    if self.vcpus[vmi][vi].ctx.acked_resched >= token {
                        // Acknowledged while we were preempted or inside
                        // an interrupt handler.
                        self.advance_task(vcpu, task);
                        continue;
                    }
                    let start = self.vcpus[vmi][vi].last_update.max(self.now);
                    self.plan_stop(vcpu, start + self.cfg.ipi_spin_budget, Stop::IpiYield);
                    return;
                }
            }
        }
        // A workload program that never emits timed work would loop here
        // forever. Poison the machine instead of aborting the process: the
        // run loop surfaces the error after this event completes.
        self.fail(SimError::StepGuard { at: self.now, vcpu });
        self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
    }

    /// CPU cost of handling a piece of interrupt work.
    fn kwork_cost(&self, vcpu: VcpuId, work: KWork) -> SimDuration {
        match work {
            KWork::TlbFlush { .. } => self.cfg.tlb_flush_cost,
            KWork::ReschedIpi { .. } => self.cfg.resched_handle_cost,
            KWork::Virq { flow, .. } => {
                let f = &self.vm(vcpu.vm).kernel.flows[flow as usize];
                let pkts = f.backlog_len().min(f.cfg.napi_budget as usize) as u64;
                self.cfg.irq_cost + self.cfg.softirq_per_pkt * pkts
            }
        }
    }

    /// Binds a guest task to the vCPU, restoring saved mid-segment state
    /// if the task was preempted at guest level.
    fn bind_task(&mut self, vcpu: VcpuId, task: u32) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        let t = &mut self.vms[vmi].tasks[task as usize];
        debug_assert_eq!(t.state, TaskState::Ready, "binding non-ready task");
        t.state = TaskState::Running;
        let saved = t.saved.take();
        self.vcpus[vmi][vi].ctx.task_started = self.now;
        match saved {
            Some(activity) => {
                debug_assert_eq!(activity.task(), Some(task));
                self.vcpus[vmi][vi].ctx.activity = activity;
            }
            None => self.advance_task(vcpu, task),
        }
    }

    /// Rotates the currently bound task out (guest-level preemption): the
    /// task keeps its mid-segment state and re-queues behind other ready
    /// tasks.
    pub(crate) fn guest_preempt(&mut self, vcpu: VcpuId) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        let activity = core::mem::replace(&mut self.vcpus[vmi][vi].ctx.activity, Activity::Idle);
        let Some(task) = activity.task() else {
            // Nothing task-bound (interrupt work): restore and bail.
            self.vcpus[vmi][vi].ctx.activity = activity;
            return;
        };
        let t = &mut self.vms[vmi].tasks[task as usize];
        t.state = TaskState::Ready;
        t.saved = Some(activity);
        self.vcpus[vmi][vi].ctx.runq.push_back(task);
    }

    /// Completes the current (exhausted) timed activity.
    fn complete_activity(&mut self, vcpu: VcpuId) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        match self.vcpus[vmi][vi].ctx.activity.clone() {
            Activity::User { task, .. } | Activity::Kernel { task, .. } => {
                self.advance_task(vcpu, task);
            }
            Activity::CriticalHold { task, lock, .. } => {
                self.vms[vmi].kernel.locks[lock as usize].release(vcpu);
                // Spinners currently on a pCPU re-check via a kick; the
                // preempted ones re-check at their next dispatch.
                let spinners = self.vms[vmi].kernel.locks[lock as usize].spinners();
                for s in spinners.vcpus(vcpu.vm) {
                    if self.vcpu(s).is_running() {
                        self.push_event(self.now, Event::Kick { vcpu: s });
                    }
                }
                self.advance_task(vcpu, task);
            }
            Activity::TlbLocal { task, .. } => {
                self.initiate_shootdown(vcpu, task);
            }
            Activity::KWorkRun { .. } => {
                let work = self.vcpus[vmi][vi].ctx.end_kwork();
                self.handle_kwork_done(vcpu, work);
            }
            // PANIC-OK(callers only complete timed activities; waits and Idle never reach here)
            other => panic!("complete_activity on {other:?}"),
        }
    }

    /// Starts a one-to-many TLB shootdown from `vcpu` (after its local
    /// flush finished).
    fn initiate_shootdown(&mut self, vcpu: VcpuId, task: u32) {
        let vmi = vcpu.vm.0 as usize;
        let num_vcpus = self.vms[vmi].num_vcpus;
        // Targets: every sibling in the address space. Halted-idle vCPUs
        // are in lazy-TLB mode and are skipped (leave_mm), as in Linux.
        let targets: VcpuSet = (0..num_vcpus)
            .filter(|&v| v != vcpu.idx)
            .filter(|&v| {
                let vc = &self.vcpus[vmi][v as usize];
                !(vc.is_blocked() && vc.ctx.is_idle())
            })
            .collect();
        self.stats.counters.incr(Counter::TlbShootdowns);
        self.stats
            .counters
            .add(Counter::IpisSent, targets.len() as u64);
        let sd = self.vms[vmi]
            .kernel
            .shootdowns
            .start(vcpu.idx, task, targets, self.now);
        if targets.is_empty() {
            let started = self.vms[vmi].kernel.shootdowns.finish(sd);
            let latency = self.now.saturating_since(started);
            self.vms[vmi].kernel.tlb_latency.record(latency);
            self.advance_task(vcpu, task);
            return;
        }
        self.vcpus[vmi][vcpu.idx as usize].ctx.activity = Activity::TlbWait {
            task,
            sd,
            spun: SimDuration::ZERO,
        };
        for t in targets.vcpus(vcpu.vm) {
            self.deliver_kwork(t, KWork::TlbFlush { sd });
        }
    }

    /// Delivers interrupt work to a vCPU, waking or kicking it as needed.
    pub(crate) fn deliver_kwork(&mut self, target: VcpuId, work: KWork) {
        self.vcpu_mut(target).ctx.push_kwork(work);
        if self.vcpu(target).is_blocked() {
            self.wake_vcpu(target);
        } else if self.vcpu(target).is_running() {
            if self.faults.drop_kicks > 0 {
                // Injected fault: the wakeup kick is lost. The work itself
                // stays queued, so the target still drains it at its next
                // natural transition (slice end at the latest) — dropped
                // kicks delay delivery, they never deadlock it.
                self.faults.drop_kicks -= 1;
                self.stats.counters.incr(Counter::FaultDroppedKicks);
                return;
            }
            let at = self.now + self.cfg.ipi_deliver_latency + self.faults.ipi_extra;
            self.push_event(at, Event::Kick { vcpu: target });
        }
        // Runnable (preempted): handled at its next dispatch — this delay
        // is the virtual time discontinuity in action.
    }

    /// Finishes interrupt work: acks, wakeups, NAPI re-arm.
    fn handle_kwork_done(&mut self, vcpu: VcpuId, work: KWork) {
        let vmi = vcpu.vm.0 as usize;
        match work {
            KWork::TlbFlush { sd } => {
                let complete = self.vms[vmi].kernel.shootdowns.ack(sd, vcpu.idx);
                if complete {
                    // `ack` just returned true for this id, and only
                    // `finish` below removes table entries.
                    let info = self.vms[vmi]
                        .kernel
                        .shootdowns
                        .get(sd)
                        .expect("completed shootdown still tabled"); // PANIC-OK(ack returned true; see above)
                    let initiator = VcpuId::new(vcpu.vm, info.initiator);
                    let task = info.task;
                    let waiting = matches!(
                        self.vcpu(initiator).ctx.activity,
                        Activity::TlbWait { sd: s, .. } if s == sd
                    );
                    if waiting {
                        let started = self.vms[vmi].kernel.shootdowns.finish(sd);
                        let latency = self.now.saturating_since(started);
                        self.vms[vmi].kernel.tlb_latency.record(latency);
                        self.resume_waiter(initiator, task);
                    }
                    // If the initiator is not (yet) in TlbWait the step
                    // fallback finishes the shootdown when it gets there.
                }
            }
            KWork::ReschedIpi { waker, token } => {
                if token != 0 {
                    let wid = VcpuId::new(vcpu.vm, waker);
                    // Record the acknowledgement even if the waker is
                    // momentarily inside an interrupt handler; its step
                    // loop checks `acked_resched` when the wait resumes.
                    let ctx = &mut self.vcpu_mut(wid).ctx;
                    ctx.acked_resched = ctx.acked_resched.max(token);
                    let waiting = matches!(
                        self.vcpu(wid).ctx.activity,
                        Activity::ReschedWait { token: t, .. } if t == token
                    );
                    if waiting {
                        let task = self
                            .vcpu(wid)
                            .ctx
                            .activity
                            .task()
                            .expect("ReschedWait has a task"); // PANIC-OK(the `matches!` above pinned the variant)
                        self.resume_waiter(wid, task);
                    }
                }
            }
            KWork::Virq { flow, .. } => {
                let fi = flow as usize;
                let moved = self.vms[vmi].kernel.flows[fi].softirq_drain();
                let target_task = self.vms[vmi].kernel.flows[fi].cfg.target_task;
                self.vms[vmi].tasks[target_task as usize].inbox += moved;
                self.wake_task_interactive(vcpu.vm, target_task);
                // NAPI re-arm: more backlog means another softIRQ pass.
                if self.vms[vmi].kernel.flows[fi].backlog_len() > 0 {
                    self.vcpus[vmi][vcpu.idx as usize]
                        .ctx
                        .push_kwork(KWork::Virq {
                            pkt_seq: 0,
                            flow,
                            arrived: self.now,
                        });
                } else {
                    self.vms[vmi].kernel.flows[fi].virq_outstanding = false;
                }
            }
        }
    }

    /// Resumes a vCPU that was waiting for an acknowledgement: accounts
    /// its spin time, advances its task, and reschedules its planning.
    fn resume_waiter(&mut self, waiter: VcpuId, task: u32) {
        self.account_progress(waiter);
        self.advance_task(waiter, task);
        if self.vcpu(waiter).is_running() {
            self.vcpu_mut(waiter).bump_gen();
            self.push_event(self.now, Event::Kick { vcpu: waiter });
        }
        // Runnable waiters proceed at their next dispatch; they cannot be
        // blocked (IPI waits spin or yield, never HLT).
    }

    /// Wakes the consumer task of a network flow with interactive priority
    /// (front of the guest run queue), waking its vCPU if halted.
    fn wake_task_interactive(&mut self, vm: simcore::ids::VmId, task: u32) {
        let vmi = vm.0 as usize;
        if self.vms[vmi].tasks[task as usize].state != TaskState::Blocked {
            return;
        }
        self.vms[vmi].tasks[task as usize].state = TaskState::Ready;
        let home = self.vms[vmi].tasks[task as usize].home_vcpu;
        self.vcpus[vmi][home as usize].ctx.runq.push_front(task);
        let hid = VcpuId::new(vm, home);
        if self.vcpu(hid).is_blocked() {
            self.wake_vcpu(hid);
        } else if self.vcpu(hid).is_running() {
            // Guest wakeup preemption: an interactive task preempts user
            // execution promptly (CFS wakeup preemption).
            if matches!(self.vcpu(hid).ctx.activity, Activity::User { .. }) {
                self.account_progress(hid);
                self.guest_preempt(hid);
                // Put the interactive task back at the front (guest_preempt
                // pushed the preempted task to the back).
                let q = &mut self.vcpus[vmi][home as usize].ctx.runq;
                if let Some(pos) = q.iter().position(|&t| t == task) {
                    q.remove(pos);
                    q.push_front(task);
                }
                self.vcpu_mut(hid).bump_gen();
                self.push_event(self.now, Event::Kick { vcpu: hid });
            }
        }
    }

    /// Advances a task to its next segment(s), performing zero-time
    /// segments inline, and sets the vCPU's new activity.
    pub(crate) fn advance_task(&mut self, vcpu: VcpuId, task: u32) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        let ti = task as usize;
        for _guard in 0..STEP_GUARD {
            let seg = self.vms[vmi].tasks[ti].next_segment();
            match seg {
                guest::segment::Segment::User { dur } => {
                    self.vcpus[vmi][vi].ctx.activity = Activity::User { task, rem: dur };
                    return;
                }
                guest::segment::Segment::Kernel { sym, dur } => {
                    self.vcpus[vmi][vi].ctx.activity = Activity::Kernel {
                        task,
                        sym,
                        rem: dur,
                    };
                    return;
                }
                guest::segment::Segment::Critical { lock, sym, hold } => {
                    let acquired = self.vms[vmi].kernel.locks[lock as usize].try_acquire(vcpu);
                    if acquired {
                        self.vms[vmi]
                            .kernel
                            .record_lock_wait(lock, SimDuration::ZERO);
                        self.vcpus[vmi][vi].ctx.activity = Activity::CriticalHold {
                            task,
                            lock,
                            sym,
                            rem: hold,
                        };
                    } else {
                        self.vcpus[vmi][vi].ctx.activity = Activity::SpinWait {
                            task,
                            lock,
                            sym,
                            hold,
                            spun: SimDuration::ZERO,
                            wait_start: self.now,
                        };
                    }
                    return;
                }
                guest::segment::Segment::TlbShootdown { local_cost } => {
                    self.vcpus[vmi][vi].ctx.activity = Activity::TlbLocal {
                        task,
                        rem: local_cost,
                    };
                    return;
                }
                guest::segment::Segment::Wake { target, cost } => {
                    self.do_wake_segment(vcpu, task, target, cost);
                    return;
                }
                guest::segment::Segment::Block => {
                    self.vms[vmi].tasks[ti].state = TaskState::Blocked;
                    self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
                    return;
                }
                guest::segment::Segment::Sleep { dur } => {
                    self.vms[vmi].tasks[ti].state = TaskState::Blocked;
                    self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
                    self.push_event(self.now + dur, Event::TaskWake { vm: vcpu.vm, task });
                    return;
                }
                guest::segment::Segment::NetRecv => {
                    if self.vms[vmi].tasks[ti].inbox > 0 {
                        self.vms[vmi].tasks[ti].inbox -= 1;
                        if let Some(fi) = self.vms[vmi].flow_of_task(task) {
                            let consumed =
                                self.vms[vmi].kernel.flows[fi as usize].consume(self.now);
                            if let Some(Some(next)) = consumed {
                                self.push_event(
                                    next,
                                    Event::PacketArrival {
                                        vm: vcpu.vm,
                                        flow: fi,
                                    },
                                );
                            }
                        }
                        continue; // Next segment (per-packet app work).
                    }
                    self.vms[vmi].tasks[ti].state = TaskState::Blocked;
                    self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
                    return;
                }
                guest::segment::Segment::WorkUnit => {
                    self.vms[vmi].tasks[ti].work_done += 1;
                    continue;
                }
                guest::segment::Segment::End => {
                    self.vms[vmi].tasks[ti].state = TaskState::Finished;
                    self.vms[vmi].tasks[ti].finished_at = Some(self.now);
                    if self.vms[vmi].all_finished() && self.vms[vmi].finished_at.is_none() {
                        self.vms[vmi].finished_at = Some(self.now);
                    }
                    self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
                    return;
                }
            }
        }
        // Same poisoning as the step guard: a program emitting unbounded
        // zero-time segments is a workload bug, not a process-fatal one.
        self.fail(SimError::SegmentGuard {
            at: self.now,
            vm: vcpu.vm,
            task,
        });
        self.vcpus[vmi][vi].ctx.activity = Activity::Idle;
    }

    /// Executes a `Wake` segment: marks the target ready and, if it lives
    /// on another vCPU, relays a reschedule IPI and waits for the ack.
    fn do_wake_segment(&mut self, vcpu: VcpuId, task: u32, target: u32, cost: SimDuration) {
        let vmi = vcpu.vm.0 as usize;
        let vi = vcpu.idx as usize;
        let tstate = self.vms[vmi].tasks[target as usize].state;
        if tstate != TaskState::Blocked {
            // Already awake: the wakeup is a no-op but still costs CPU.
            self.vcpus[vmi][vi].ctx.activity = Activity::Kernel {
                task,
                sym: sym!("ttwu_do_wakeup"),
                rem: cost,
            };
            return;
        }
        self.vms[vmi].tasks[target as usize].state = TaskState::Ready;
        let home = self.vms[vmi].tasks[target as usize].home_vcpu;
        if home == vcpu.idx {
            self.vcpus[vmi][vi].ctx.runq.push_back(target);
            self.vcpus[vmi][vi].ctx.activity = Activity::Kernel {
                task,
                sym: sym!("ttwu_do_activate"),
                rem: cost,
            };
            return;
        }
        self.vcpus[vmi][home as usize].ctx.runq.push_back(target);
        let token = self.vcpus[vmi][vi].ctx.alloc_token();
        let target_vcpu = VcpuId::new(vcpu.vm, home);
        self.stats.counters.incr(Counter::ReschedIpis);
        self.vcpus[vmi][vi].ctx.activity = Activity::ReschedWait {
            task,
            target: home,
            token,
            spun: SimDuration::ZERO,
        };
        // Policy hook at the relay point (§4.2), then delivery.
        self.with_policy(|policy, machine| policy.on_resched_ipi(machine, target_vcpu));
        self.deliver_kwork(
            target_vcpu,
            KWork::ReschedIpi {
                waker: vcpu.idx,
                token,
            },
        );
    }
}
