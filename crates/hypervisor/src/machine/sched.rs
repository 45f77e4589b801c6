//! Credit-scheduler mechanics: dispatch, wakeup, preemption, stealing.

use super::{Event, Machine, Stop};
use crate::pool::PoolId;
use crate::stats::YieldCause;
use crate::vcpu::{Prio, VState};
use metrics::counters::Counter;
use simcore::ids::{PcpuId, VcpuId};
use simcore::time::SimTime;

/// Where a descheduled vCPU goes next.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequeueMode {
    /// Back on the tail of its priority class on the pCPU it ran on.
    SamePcpu,
    /// Behind *everything* on the pCPU it ran on (Xen credit1 YIELD flag).
    YieldTail,
    /// Into the normal pool (micro-pool eviction or pool resize).
    NormalPool,
    /// Nowhere: the vCPU blocks.
    Block,
}

impl Machine {
    /// Accounts the progress of a running vCPU up to `now`: decrements its
    /// activity's remaining time (or accrues spin time) and charges CPU
    /// time to the VM.
    pub(crate) fn account_progress(&mut self, vcpu: VcpuId) {
        let now = self.now;
        // Exact credit burn, used only when `credit_sampled_ticks` is off:
        // one credit per (tick / credits_per_tick) of runtime. The default
        // sampled mode charges whole ticks in `on_tick` instead.
        let ns_per_credit =
            (self.cfg.tick.as_nanos() / self.cfg.credits_per_tick.max(1) as u64).max(1);
        let floor = -self.cfg.credit_cap;
        let sampled = self.cfg.credit_sampled_ticks;
        let vc = self.vcpu_mut(vcpu);
        if !vc.is_running() {
            return;
        }
        let elapsed = now.saturating_since(vc.last_update);
        if elapsed.is_zero() {
            return;
        }
        vc.ctx.activity.advance(elapsed);
        vc.cpu_time += elapsed;
        vc.last_update = now;
        if !sampled {
            // Exact-burn mode (ablation): one credit per unit of runtime.
            vc.burn_acc += elapsed.as_nanos();
            let debit = (vc.burn_acc / ns_per_credit) as i64;
            vc.burn_acc %= ns_per_credit;
            vc.credits = (vc.credits - debit).max(floor);
        }
        self.stats.per_vm[vcpu.vm.0 as usize].cpu_time += elapsed;
    }

    /// Picks and dispatches the next vCPU on an idle pCPU (stealing from
    /// same-pool siblings if the local queue is empty).
    /// Re-tags a pCPU's queued entries with live priorities (Xen reads
    /// each vCPU's current `pri` field; stored snapshots go stale as
    /// credits refill and starve waiters).
    pub(crate) fn refresh_runq(&mut self, pcpu: PcpuId) {
        // Field-split borrow: the closure reads vCPU state while the queue
        // rewrites its key array in place — no scratch allocation.
        let (pcpus, vcpus) = (&mut self.pcpus, &self.vcpus);
        pcpus[pcpu.0 as usize].refresh_with(|v| vcpus[v.vm.0 as usize][v.idx as usize].prio());
    }

    pub(crate) fn dispatch(&mut self, pcpu: PcpuId) {
        debug_assert!(self.pcpus[pcpu.0 as usize].current.is_none());
        self.refresh_runq(pcpu);
        // Mirror Xen credit1's csched_load_balance: when the local head is
        // OVER priority (or the queue is empty), try to steal
        // higher-priority work from same-pool peers first, so an UNDER
        // vCPU never waits behind an OVER vCPU anywhere in the pool.
        let local_rank = self.pcpus[pcpu.0 as usize]
            .head_prio()
            .map(|p| p.rank())
            .unwrap_or(u8::MAX);
        let entry = if local_rank > Prio::Under.rank() {
            match self.steal_for(pcpu, local_rank) {
                Some(stolen) => Some(stolen),
                None => self.pcpus[pcpu.0 as usize].pop(),
            }
        } else {
            self.pcpus[pcpu.0 as usize].pop()
        };
        let Some(entry) = entry else {
            return; // Idle.
        };
        let vcpu = entry.vcpu;
        let now = self.now;
        let pool = self.pools.pool_of(pcpu);
        let mut slice = self.pools.slice(pool);
        if pool == PoolId::Normal && self.cfg.slice_jitter_frac > 0.0 {
            // Deterministic desynchronization (see MachineConfig docs).
            let j = self.cfg.slice_jitter_frac;
            slice = slice.mul_f64(1.0 - j + 2.0 * j * self.rng.next_f64());
        }

        // Cost model: direct switch cost (VMEXIT/VMENTER + state swap)
        // whenever a different vCPU comes in, plus a cache-refill penalty
        // that is heavier across VMs (§1 "cache pollution"). Re-dispatching
        // the same vCPU (e.g. after a solo yield) costs only the direct
        // part.
        let mut overhead = self.cfg.ctx_switch_cost;
        if self.pcpus[pcpu.0 as usize].last_vcpu != Some(vcpu) {
            overhead += if self.pcpus[pcpu.0 as usize].last_vm != Some(vcpu.vm) {
                self.cfg.cache_refill_cost
            } else {
                self.cfg.cache_refill_cost / 2
            };
        }
        self.stats.counters.incr(Counter::CtxSwitches);

        {
            let p = &mut self.pcpus[pcpu.0 as usize];
            p.current = Some(vcpu);
            p.last_vm = Some(vcpu.vm);
            p.last_vcpu = Some(vcpu);
            p.slice_end = now + overhead + slice;
        }
        let vc = self.vcpu_mut(vcpu);
        vc.state = VState::Running { pcpu, since: now };
        vc.last_pcpu = pcpu;
        vc.last_update = now + overhead;
        self.trace_record(super::TraceEvent::Dispatch { pcpu, vcpu });
        self.step_vcpu(vcpu);
    }

    /// Steals an admissible waiter with priority rank better than
    /// `worse_than` from the most loaded same-pool sibling.
    fn steal_for(&mut self, pcpu: PcpuId, worse_than: u8) -> Option<crate::pcpu::RunqEntry> {
        let pool = self.pools.pool_of(pcpu);
        if pool == PoolId::Micro {
            // The micro pool never load-balances (§5 "Other
            // considerations"): vCPUs are placed there explicitly.
            return None;
        }
        // Xen's balancer trylocks peer run queues and skips them on
        // contention; model that as a per-attempt success probability.
        if self.cfg.steal_success_prob < 1.0 {
            let roll = self.rng.next_f64();
            if roll >= self.cfg.steal_success_prob {
                return None;
            }
        }
        let mut donors: Vec<PcpuId> = self
            .pools
            .members(pool)
            .iter()
            .copied()
            .filter(|&p| p != pcpu && self.pcpus[p.0 as usize].runq_len() > 0)
            .collect();
        donors.sort_by_key(|&p| core::cmp::Reverse(self.pcpus[p.0 as usize].runq_len()));
        for donor in donors {
            // Collect affinity admissibility without borrowing the donor
            // queue mutably yet.
            let admissible: Vec<VcpuId> = self.pcpus[donor.0 as usize]
                .runq_iter()
                .filter(|e| e.prio.rank() < worse_than)
                .map(|e| e.vcpu)
                .filter(|&v| self.vcpu(v).allows(pcpu))
                .collect();
            if admissible.is_empty() {
                continue;
            }
            let entry = self.pcpus[donor.0 as usize].steal_tail(|v| admissible.contains(&v));
            if let Some(entry) = entry {
                self.stats.counters.incr(Counter::Steals);
                self.vcpu_mut(entry.vcpu).state = VState::Runnable { pcpu };
                return Some(entry);
            }
        }
        None
    }

    /// Chooses a pCPU for a waking/requeued vCPU within `pool`:
    /// idle pCPU first (preferring the last one it ran on), then the least
    /// loaded, respecting affinity in the normal pool.
    pub(crate) fn choose_pcpu(&mut self, vcpu: VcpuId, pool: PoolId) -> PcpuId {
        let members = self.pools.members(pool);
        let vc = self.vcpu(vcpu);
        // Affinity applies in the normal pool; if it admits no member, it
        // is ignored (the historical fallback). Expressed as a predicate
        // over the borrowed member slice so nothing is collected.
        let filter_on = pool == PoolId::Normal && members.iter().any(|&p| vc.allows(p));
        let admit = |p: PcpuId| !filter_on || vc.allows(p);
        // Unreachable assert: pools are fixed at boot and resize keeps the
        // normal pool non-empty; the predicate falls back to all members.
        assert!(members.iter().any(|&p| admit(p)), "pool has no pCPUs");
        let last = vc.last_pcpu;
        if members.contains(&last) && admit(last) && self.pcpus[last.0 as usize].is_idle() {
            return last;
        }
        if let Some(&idle) = members
            .iter()
            .find(|&&p| admit(p) && self.pcpus[p.0 as usize].is_idle())
        {
            return idle;
        }
        *members
            .iter()
            .filter(|&&p| admit(p))
            .min_by_key(|&&p| (self.pcpus[p.0 as usize].load(), p.0))
            .expect("non-empty") // PANIC-OK(admissibility was asserted above; the filter is non-empty)
    }

    /// Enqueues a runnable vCPU on a pCPU and handles wakeup preemption.
    pub(crate) fn enqueue_on(&mut self, vcpu: VcpuId, pcpu: PcpuId) {
        self.refresh_runq(pcpu);
        let prio = self.vcpu(vcpu).prio();
        self.vcpu_mut(vcpu).state = VState::Runnable { pcpu };
        self.pcpus[pcpu.0 as usize].enqueue(vcpu, prio);
        let Some(current) = self.pcpus[pcpu.0 as usize].current else {
            self.dispatch(pcpu);
            return;
        };
        // BOOST preemption: a boosted waiter preempts a non-boosted
        // current, in the normal pool only (§5 disables preemption of
        // accelerated vCPUs). Deferred through the event queue so a vCPU
        // can never be descheduled in the middle of its own step cascade.
        if prio == Prio::Boost
            && self.pools.pool_of(pcpu) == PoolId::Normal
            && self.vcpu(current).prio() != Prio::Boost
        {
            self.push_event(self.now, Event::Preempt { pcpu });
        }
    }

    /// Executes a deferred BOOST preemption check on a pCPU.
    pub(crate) fn do_preempt_check(&mut self, pcpu: PcpuId) {
        self.refresh_runq(pcpu);
        let Some(current) = self.pcpus[pcpu.0 as usize].current else {
            if self.pcpus[pcpu.0 as usize].runq_len() > 0 {
                self.dispatch(pcpu);
            }
            return;
        };
        let Some(head) = self.pcpus[pcpu.0 as usize].head_prio() else {
            return;
        };
        if head.rank() < self.vcpu(current).prio().rank() {
            self.stats.counters.incr(Counter::Preemptions);
            self.deschedule(current, RequeueMode::SamePcpu);
            self.dispatch(pcpu);
        }
    }

    /// Removes a running vCPU from its pCPU (after accounting progress)
    /// and requeues or blocks it. Does *not* dispatch the freed pCPU —
    /// callers do, so they can interpose.
    pub(crate) fn deschedule(&mut self, vcpu: VcpuId, mode: RequeueMode) {
        self.account_progress(vcpu);
        // A deschedule of a non-running vCPU means the scheduler's own
        // bookkeeping is corrupt; poison the machine rather than abort.
        let VState::Running { pcpu, .. } = self.vcpu(vcpu).state else {
            let state = self.vcpu(vcpu).state;
            self.fail(crate::error::SimError::SchedCorruption {
                at: self.now,
                what: format!("deschedule of non-running {vcpu} (state {state:?})"),
            });
            return;
        };
        let vc = self.vcpu_mut(vcpu);
        vc.bump_gen();
        vc.boosted = false; // BOOST is consumed by one scheduling.
        self.pcpus[pcpu.0 as usize].current = None;

        // A policy acceleration request redirects the requeue into the
        // micro pool (the yielding-vCPU migration of §4.1), slot
        // permitting.
        if mode != RequeueMode::Block && self.vcpu(vcpu).micro_requested {
            self.vcpu_mut(vcpu).micro_requested = false;
            if let Some(slot) = self.micro_slot() {
                self.stats.counters.incr(Counter::MicroMigrations);
                self.stats.per_vm[vcpu.vm.0 as usize].micro_migrations += 1;
                self.vcpu_mut(vcpu).pool = PoolId::Micro;
                let prio = self.vcpu(vcpu).prio();
                self.vcpu_mut(vcpu).state = VState::Runnable { pcpu: slot };
                self.pcpus[slot.0 as usize].enqueue(vcpu, prio);
                if self.pcpus[slot.0 as usize].current.is_none() {
                    self.dispatch(slot);
                }
                return;
            }
            self.stats.counters.incr(Counter::MicroRejects);
        }
        if mode == RequeueMode::Block {
            self.vcpu_mut(vcpu).micro_requested = false;
        }

        let in_micro = self.vcpu(vcpu).pool == PoolId::Micro;
        // Sticky residents (vTRS-style comparators) requeue within the
        // micro pool instead of being evicted after one slice.
        if in_micro && self.vcpu(vcpu).sticky_micro && mode != RequeueMode::Block {
            let target = self.choose_pcpu(vcpu, PoolId::Micro);
            let prio = self.vcpu(vcpu).prio();
            self.vcpu_mut(vcpu).state = VState::Runnable { pcpu: target };
            self.pcpus[target.0 as usize].enqueue(vcpu, prio);
            if target != pcpu && self.pcpus[target.0 as usize].current.is_none() {
                self.dispatch(target);
            }
            return;
        }
        match mode {
            RequeueMode::Block => {
                if in_micro {
                    self.vcpu_mut(vcpu).pool = PoolId::Normal;
                }
                self.vcpu_mut(vcpu).state = VState::Blocked;
            }
            RequeueMode::SamePcpu if !in_micro => {
                let prio = self.vcpu(vcpu).prio();
                self.vcpu_mut(vcpu).state = VState::Runnable { pcpu };
                self.pcpus[pcpu.0 as usize].enqueue(vcpu, prio);
            }
            RequeueMode::YieldTail if !in_micro => {
                let prio = self.vcpu(vcpu).prio();
                self.vcpu_mut(vcpu).state = VState::Runnable { pcpu };
                self.pcpus[pcpu.0 as usize].enqueue_yield(vcpu, prio);
            }
            _ => {
                // Micro-pool eviction (any requeue from the micro pool
                // returns to the normal pool; §5) or explicit NormalPool.
                self.vcpu_mut(vcpu).pool = PoolId::Normal;
                let target = self.choose_pcpu(vcpu, PoolId::Normal);
                let prio = self.vcpu(vcpu).prio();
                self.vcpu_mut(vcpu).state = VState::Runnable { pcpu: target };
                self.pcpus[target.0 as usize].enqueue(vcpu, prio);
                if target != pcpu && self.pcpus[target.0 as usize].current.is_none() {
                    self.dispatch(target);
                }
            }
        }
    }

    /// Wakes a blocked vCPU: BOOST (if enabled and it has credit), place,
    /// enqueue, and possibly preempt.
    pub(crate) fn wake_vcpu(&mut self, vcpu: VcpuId) {
        let boost_enabled = self.cfg.boost_enabled;
        let vc = self.vcpu_mut(vcpu);
        if !vc.is_blocked() {
            return;
        }
        if boost_enabled && vc.credits > 0 {
            vc.boosted = true;
            self.stats.counters.incr(Counter::Boosts);
        }
        let pool = self.vcpu(vcpu).pool;
        let pcpu = self.choose_pcpu(vcpu, pool);
        self.enqueue_on(vcpu, pcpu);
    }

    /// Handles a yield (PLE, IPI-wait hypercall, or halt): records the
    /// cause, runs the policy hook, then deschedules.
    pub(crate) fn do_yield(&mut self, vcpu: VcpuId, cause: YieldCause) {
        self.stats.record_yield(vcpu.vm, cause);
        self.trace_record(super::TraceEvent::Yield { vcpu, cause });
        let site = self.vcpu(vcpu).ctx.activity.sym().unwrap_or("user");
        *self.stats.yield_sites.entry(site).or_insert(0) += 1;
        self.with_policy(|policy, machine| policy.on_yield(machine, vcpu, cause));
        // The policy may have migrated this very vCPU (e.g. accelerated a
        // sibling that preempted us) — re-check we are still running.
        if !self.vcpu(vcpu).is_running() {
            return;
        }
        // PANIC-OK(`is_running` was re-checked just above)
        let pcpu = self.vcpu(vcpu).pcpu().expect("running");
        if cause == YieldCause::Halt {
            self.deschedule(vcpu, RequeueMode::Block);
        } else if self.cfg.yield_to_tail && self.vcpu(vcpu).pool == PoolId::Normal {
            // Xen credit1 YIELD semantics: behind everyone, regardless of
            // priority, for one scheduling round.
            self.deschedule(vcpu, RequeueMode::YieldTail);
        } else {
            self.deschedule(vcpu, RequeueMode::SamePcpu);
        }
        if self.pcpus[pcpu.0 as usize].current.is_none() {
            self.dispatch(pcpu);
        }
    }

    /// Plans the next stop for a running vCPU and pushes the transition
    /// event. `earliest` is when the current operation completes if
    /// uninterrupted; the actual stop may be the slice end or a guest
    /// preemption point, whichever is first.
    pub(crate) fn plan_stop(&mut self, vcpu: VcpuId, at: SimTime, stop: Stop) {
        // PANIC-OK(only the step loop plans stops, and it runs exclusively on running vCPUs)
        let pcpu = self.vcpu(vcpu).pcpu().expect("planning for running vCPU");
        let slice_end = self.pcpus[pcpu.0 as usize].slice_end;
        let (at, stop) = if slice_end <= at {
            (slice_end, Stop::SliceEnd)
        } else {
            (at, stop)
        };
        let gen = self.vcpu(vcpu).gen;
        self.push_event(at.max(self.now), Event::Transition { vcpu, gen, stop });
    }
}
