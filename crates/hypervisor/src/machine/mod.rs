//! The simulated machine: event loop, topology, and global state.
//!
//! `Machine` composes the substrates — pCPUs and pools, the credit
//! scheduler, the guest kernels — and advances simulated time by draining
//! a discrete-event queue. The scheduler logic lives in `sched.rs`
//! (dispatch, wakeup, preemption, stealing), guest execution in `step.rs`
//! (the per-vCPU state machine), event decoding in `handlers.rs`, and the
//! policy-facing API in `api.rs`.

mod api;
mod handlers;
mod invariants;
mod sched;
mod snapshot;
mod step;

pub use snapshot::Snapshot;

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::faults::FaultState;
use crate::pcpu::Pcpu;
use crate::policy::SchedPolicy;
use crate::pool::{PoolId, PoolSet};
use crate::stats::MachineStats;
use crate::vcpu::{VState, Vcpu};
use crate::vm::{Vm, VmSpec};
use ksym::linux44::{Linux44Map, LINUX44};
use metrics::counters::Counter;
use simcore::event::EventQueue;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::rng::SimRng;
use simcore::time::SimTime;
use simcore::trace::TraceBuffer;

/// A trace record — the simulator's `xentrace` analogue: every event the
/// machine handles, and the scheduler decisions taken while handling it.
///
/// Tracing is off by default (simulations emit millions of events). A
/// machine built inside a [`crate::crash::with_session`] scope records
/// its last [`crate::crash::DEFAULT_RING`] records for its crash report;
/// [`Machine::enable_trace`] sets any other capacity. Inspect or drain
/// via [`Machine::trace`] / [`Machine::trace_mut`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The event loop handled an event (stale transition plans are
    /// dropped unrecorded).
    Handled(Event),
    /// A vCPU was dispatched onto a pCPU.
    Dispatch {
        /// The pCPU.
        pcpu: PcpuId,
        /// The incoming vCPU.
        vcpu: VcpuId,
    },
    /// A vCPU yielded (PLE, IPI wait, or halt).
    Yield {
        /// The yielding vCPU.
        vcpu: VcpuId,
        /// Why it yielded.
        cause: crate::stats::YieldCause,
    },
    /// A vCPU migrated into the micro pool.
    MicroMigration {
        /// The accelerated vCPU.
        vcpu: VcpuId,
    },
    /// The micro pool was resized.
    PoolResize {
        /// New number of micro cores.
        micro_cores: usize,
    },
}

/// Why a planned vCPU transition fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The pool time slice expired.
    SliceEnd,
    /// The current timed activity completed.
    Done,
    /// Pause-loop exit: spun past the PLE window.
    Ple,
    /// Voluntary yield while waiting for IPI acknowledgements.
    IpiYield,
    /// Guest-level time slice expired (multi-task vCPU rotation).
    GuestPreempt,
}

/// A simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A planned stop for a running vCPU. Stale if `gen` mismatches.
    Transition {
        /// The vCPU this stop belongs to.
        vcpu: VcpuId,
        /// Generation at planning time.
        gen: u64,
        /// Why the vCPU stops.
        stop: Stop,
    },
    /// Credit debit tick (every `cfg.tick`).
    Tick,
    /// Credit refill (every `cfg.account_period`).
    Account,
    /// A packet reaches the host NIC for `(vm, flow)`.
    PacketArrival {
        /// Destination VM.
        vm: VmId,
        /// Flow index within the VM.
        flow: u32,
    },
    /// A policy timer fires.
    PolicyTimer {
        /// Timer id chosen by the policy.
        id: u64,
    },
    /// Re-plan a running vCPU (IPI delivery, lock handoff).
    Kick {
        /// The vCPU to re-plan.
        vcpu: VcpuId,
    },
    /// Deferred BOOST-preemption check on a pCPU.
    Preempt {
        /// The pCPU whose run queue may now outrank its current vCPU.
        pcpu: PcpuId,
    },
    /// A sleeping guest task's timer fires (`schedule_timeout` expiry).
    TaskWake {
        /// The VM owning the task.
        vm: VmId,
        /// Task index within the VM.
        task: u32,
    },
    /// A planned fault-injection entry fires (see [`crate::faults`]).
    Fault {
        /// Index into the installed fault plan.
        seq: u32,
    },
}

/// The simulated host.
///
/// `Clone` is a deep checkpoint: every run queue, the event queue,
/// guest program, RNG stream, latency summary, and the fault-plan
/// cursor copy verbatim, so a clone replays bit-identically to the
/// original.
/// See [`Machine::snapshot`] / [`Snapshot`] for the checkpoint/fork API
/// built on top of it.
#[derive(Clone)]
pub struct Machine {
    /// Configuration (read-only after construction).
    pub cfg: MachineConfig,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Event>,
    /// Machine-level RNG (placement tie-breaking and the like).
    pub rng: SimRng,
    pub(crate) pcpus: Vec<Pcpu>,
    pub(crate) pools: PoolSet,
    pub(crate) vms: Vec<Vm>,
    /// `vcpus[vm][idx]`.
    pub(crate) vcpus: Vec<Vec<Vcpu>>,
    pub(crate) policy: Option<Box<dyn SchedPolicy>>,
    /// Statistics (public so experiments can read them directly).
    pub stats: MachineStats,
    /// Trace ring (see [`TraceEvent`]): disabled unless constructed inside
    /// a [`crate::crash::with_session`] scope or enabled explicitly.
    pub(crate) trace: TraceBuffer<TraceEvent>,
    /// First fatal error, if any; poisons every later `run_until_*`.
    pub(crate) fatal: Option<SimError>,
    /// Fault-injection state (empty plan by default).
    pub(crate) faults: FaultState,
}

impl Machine {
    /// Builds a machine from a configuration, VM specs, and a policy.
    pub fn new(cfg: MachineConfig, specs: Vec<VmSpec>, policy: Box<dyn SchedPolicy>) -> Self {
        assert!(cfg.num_pcpus > 0, "need at least one pCPU");
        assert!(!specs.is_empty(), "need at least one VM");
        // SIMLINT: the machine-stream root — the one sanctioned seeding
        // site; every other generator forks from this stream.
        let mut rng = SimRng::new(cfg.seed);
        let pools = PoolSet::new(cfg.num_pcpus, cfg.normal_slice, cfg.micro_slice);
        let pcpus = (0..cfg.num_pcpus).map(|i| Pcpu::new(PcpuId(i))).collect();
        let mut vms = Vec::new();
        let mut vcpus = Vec::new();
        let initial_credits = cfg.credit_cap / 2;
        for (i, mut spec) in specs.into_iter().enumerate() {
            let vm_id = VmId(i as u16);
            let mut vm_rng = rng.fork(i as u64);
            let n = spec.num_vcpus;
            let pins = core::mem::take(&mut spec.pins);
            let vm = Vm::from_spec(vm_id, spec, &mut vm_rng);
            let mut vm_vcpus: Vec<Vcpu> = (0..n)
                .map(|v| Vcpu::new(VcpuId::new(vm_id, v), initial_credits))
                .collect();
            for (idx, pcpus) in pins {
                assert!(idx < n, "pinned vCPU index out of range");
                vm_vcpus[idx as usize].affinity = Some(pcpus);
            }
            vcpus.push(vm_vcpus);
            vms.push(vm);
        }
        let num_vms = vms.len();
        let mut machine = Machine {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng,
            pcpus,
            pools,
            vms,
            vcpus,
            policy: Some(policy),
            stats: MachineStats::new(num_vms),
            trace: if crate::crash::session_armed() {
                TraceBuffer::new(crate::crash::DEFAULT_RING)
            } else {
                TraceBuffer::disabled()
            },
            fatal: None,
            faults: FaultState::default(),
        };
        machine.boot();
        machine
    }

    /// Initial placement, timers, flows, and the policy's init hook.
    fn boot(&mut self) {
        // Guest run queues: every task starts ready on its home vCPU.
        for vm_i in 0..self.vms.len() {
            for t in 0..self.vms[vm_i].tasks.len() {
                let home = self.vms[vm_i].tasks[t].home_vcpu;
                self.vcpus[vm_i][home as usize].ctx.runq.push_back(t as u32);
            }
        }
        // Round-robin initial placement of non-idle vCPUs over the normal
        // pool, respecting affinity. (Cold path: the copy is fine.)
        let members: Vec<PcpuId> = self.pools.members(PoolId::Normal).to_vec();
        let mut next = 0usize;
        for vm_i in 0..self.vcpus.len() {
            for v in 0..self.vcpus[vm_i].len() {
                if self.vcpus[vm_i][v].ctx.runq.is_empty() {
                    continue; // No tasks: stays blocked (guest idle).
                }
                let vc = &self.vcpus[vm_i][v];
                let allowed: Vec<PcpuId> =
                    members.iter().copied().filter(|&p| vc.allows(p)).collect();
                assert!(!allowed.is_empty(), "vCPU affinity excludes every pCPU");
                let pcpu = allowed[next % allowed.len()];
                next += 1;
                let prio = self.vcpus[vm_i][v].prio();
                self.vcpus[vm_i][v].state = VState::Runnable { pcpu };
                self.pcpus[pcpu.0 as usize].enqueue(VcpuId::new(VmId(vm_i as u16), v as u16), prio);
            }
        }
        for p in 0..self.pcpus.len() {
            if self.pcpus[p].current.is_none() {
                self.dispatch(PcpuId(p as u16));
            }
        }
        // Periodic scheduler timers.
        let tick = self.cfg.tick;
        let account = self.cfg.account_period;
        self.push_event(self.now + tick, Event::Tick);
        self.push_event(self.now + account, Event::Account);
        // Seed network flows.
        for vm_i in 0..self.vms.len() {
            for f in 0..self.vms[vm_i].kernel.flows.len() {
                let start = self.now;
                let arrivals = self.vms[vm_i].kernel.flows[f].initial_arrivals(start);
                for t in arrivals {
                    self.push_event(
                        t,
                        Event::PacketArrival {
                            vm: VmId(vm_i as u16),
                            flow: f as u32,
                        },
                    );
                }
            }
        }
        self.with_policy(|policy, machine| policy.on_init(machine));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records a fatal error. The first error wins; later ones are
    /// counted but dropped (the machine is already poisoned). When a
    /// crash session is armed on this thread, the first failure also
    /// publishes a rendered crash report (see [`crate::crash`]).
    pub(crate) fn fail(&mut self, e: SimError) {
        self.stats.counters.incr(Counter::SimErrors);
        if self.fatal.is_none() {
            if crate::crash::session_armed() {
                crate::crash::publish_report(self.render_crash_report(&e));
            }
            self.fatal = Some(e);
        }
    }

    /// The fatal error poisoning this machine, if any.
    pub fn error(&self) -> Option<&SimError> {
        self.fatal.as_ref()
    }

    /// Propagates a previously recorded fatal error, if any.
    #[inline]
    fn poisoned(&self) -> Result<(), SimError> {
        match &self.fatal {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Runs until the queue empties or `deadline` is reached, whichever is
    /// first. On success, [`Machine::now`] equals `deadline` (or the last
    /// event time if the queue drained early). On a fatal simulation
    /// failure the error is returned immediately and the machine stays
    /// poisoned: every later `run_until_*` returns the same error.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.run_loop(deadline, |_| false)?;
        if self.now < deadline {
            self.now = deadline;
        }
        self.settle();
        Ok(())
    }

    /// Runs until `vm` finishes all its tasks or `horizon` passes. Returns
    /// the finish time if the VM completed, `None` on horizon exhaustion.
    pub fn run_until_vm_finished(
        &mut self,
        vm: VmId,
        horizon: SimTime,
    ) -> Result<Option<SimTime>, SimError> {
        self.run_loop(horizon, |m| m.vms[vm.0 as usize].finished_at.is_some())?;
        self.settle();
        Ok(self.vms[vm.0 as usize].finished_at)
    }

    /// Runs until every VM with tasks has finished them, or `horizon`
    /// passes. Returns `true` if everything finished.
    pub fn run_until_all_finished(&mut self, horizon: SimTime) -> Result<bool, SimError> {
        let all_done = |m: &Machine| {
            m.vms
                .iter()
                .filter(|vm| !vm.tasks.is_empty())
                .all(|vm| vm.finished_at.is_some())
        };
        self.run_loop(horizon, all_done)?;
        self.settle();
        Ok(all_done(self))
    }

    /// The event loop behind every `run_until*`: until `done` holds, pops
    /// the next event at or before `horizon` and, unless it is a stale
    /// transition plan, records it in the trace ring and handles it.
    /// Polls the watchdog every 1024 pops and returns the first fatal
    /// error.
    fn run_loop(
        &mut self,
        horizon: SimTime,
        done: impl Fn(&Machine) -> bool,
    ) -> Result<(), SimError> {
        self.poisoned()?;
        let mut pace: u32 = 0;
        while !done(self) {
            let Some((t, event)) = self.queue.pop_at_or_before(horizon) else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if self.is_live(event) {
                self.trace.record(t, TraceEvent::Handled(event));
                self.handle(event);
            }
            pace = pace.wrapping_add(1);
            if pace & 1023 == 0 && simcore::watchdog::expired() {
                self.fail(SimError::Watchdog { at: self.now });
            }
            self.poisoned()?;
        }
        Ok(())
    }

    /// Accounts progress of all running vCPUs up to `now` (so CPU-time
    /// statistics are exact at measurement points).
    fn settle(&mut self) {
        for p in 0..self.pcpus.len() {
            if let Some(vcpu) = self.pcpus[p].current {
                self.account_progress(vcpu);
            }
        }
    }

    /// Invokes a closure with the policy temporarily detached, so the
    /// policy can call back into the machine.
    pub(crate) fn with_policy(&mut self, f: impl FnOnce(&mut dyn SchedPolicy, &mut Machine)) {
        if let Some(mut policy) = self.policy.take() {
            f(policy.as_mut(), self);
            self.policy = Some(policy);
        }
    }

    /// Schedules an event. Pops come out ordered by `(time, push order)`.
    #[inline]
    pub(crate) fn push_event(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, event);
    }

    /// Immutable vCPU accessor.
    #[inline]
    pub fn vcpu(&self, id: VcpuId) -> &Vcpu {
        &self.vcpus[id.vm.0 as usize][id.idx as usize]
    }

    /// Mutable vCPU accessor (crate-internal).
    #[inline]
    pub(crate) fn vcpu_mut(&mut self, id: VcpuId) -> &mut Vcpu {
        &mut self.vcpus[id.vm.0 as usize][id.idx as usize]
    }

    /// Immutable VM accessor.
    #[inline]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0 as usize]
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// The guest kernel's symbol map; every guest runs the same kernel.
    pub fn kernel_map(&self) -> &'static Linux44Map {
        &LINUX44
    }

    /// Replaces the trace ring with an empty one of `capacity` records
    /// (the `xentrace` analogue the paper's analysis uses, §3.1).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::new(capacity);
    }

    /// The trace buffer (read-only).
    pub fn trace(&self) -> &TraceBuffer<TraceEvent> {
        &self.trace
    }

    /// The trace buffer, mutable (for draining).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer<TraceEvent> {
        &mut self.trace
    }

    #[inline]
    pub(crate) fn trace_record(&mut self, event: TraceEvent) {
        self.trace.record(self.now, event);
    }
}
